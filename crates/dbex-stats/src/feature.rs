//! Compare Attribute selection (paper Problem 1.1, Section 3.1.1).
//!
//! "Choosing Compare Attributes is a feature selection problem with a
//! specialized way of evaluating the quality of a feature: good features
//! yield sharply contrasting IUnits across the different Pivot Attribute
//! values." The paper uses Weka's ChiSquare evaluator with a p-value
//! threshold; we do the same: each candidate attribute is scored by the
//! chi-square statistic of its contingency table against the pivot classes,
//! attributes failing the significance threshold are dropped, and the
//! remainder are ranked by decreasing statistic.

use crate::cache::{CodecKey, ContingencyKey, StatsCache};
use crate::chi2::ContingencyTable;
use crate::discretize::AttributeCodec;
use crate::entropy::{information_gain, symmetrical_uncertainty};
use crate::histogram::BinningStrategy;
use dbex_table::dict::NULL_CODE;
use dbex_table::View;
use std::sync::Arc;

/// Relevance measure used to rank candidate Compare Attributes.
///
/// The paper ships chi-square (Weka's `ChiSquare`); the two
/// information-theoretic alternatives are standard in the feature-selection
/// literature the paper cites and are compared in the ablation benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FeatureScorer {
    /// Pearson chi-square statistic (paper default).
    #[default]
    ChiSquare,
    /// Mutual information between attribute and pivot classes.
    InfoGain,
    /// Symmetrical uncertainty (entropy-normalized mutual information,
    /// unbiased toward high-cardinality attributes).
    SymmetricalUncertainty,
}

/// Configuration for Compare Attribute selection.
#[derive(Debug, Clone)]
pub struct FeatureSelectionConfig {
    /// Maximum number of Compare Attributes to return (`c` in the paper,
    /// driven by available screen space).
    pub max_attrs: usize,
    /// Significance level: attributes with `p > alpha` are considered
    /// uninformative and excluded (paper suggests 0.01 / 0.05 / 0.10).
    pub alpha: f64,
    /// Bins used to discretize numeric candidates.
    pub bins: usize,
    /// Binning strategy for numeric candidates.
    pub strategy: BinningStrategy,
    /// Rows to subsample before scoring (paper Optimization 1). `None`
    /// scores on the full result set.
    pub sample: Option<usize>,
    /// Relevance measure used for ranking (the chi-square significance
    /// gate applies regardless).
    pub scorer: FeatureScorer,
}

impl Default for FeatureSelectionConfig {
    fn default() -> Self {
        FeatureSelectionConfig {
            max_attrs: 5,
            alpha: 0.05,
            bins: 6,
            strategy: BinningStrategy::EquiDepth,
            sample: None,
            scorer: FeatureScorer::ChiSquare,
        }
    }
}

/// Score of one candidate attribute against the pivot classes.
#[derive(Debug, Clone)]
pub struct FeatureScore {
    /// The attribute's position in the table schema.
    pub attr_index: usize,
    /// Chi-square statistic (larger = more contrast between pivot values).
    pub statistic: f64,
    /// Degrees of freedom of the test.
    pub dof: f64,
    /// Upper-tail p-value of the chi-square test.
    pub p_value: f64,
    /// The ranking score under the configured [`FeatureScorer`] (equals
    /// `statistic` for chi-square).
    pub score: f64,
}

/// Selects Compare Attributes for a CAD View.
///
/// * `view` — the result set `R`.
/// * `pivot_col` — schema index of the Pivot Attribute (categorical).
/// * `pivot_codes` — the selected pivot values `V` (dictionary codes).
/// * `forced` — attributes the user explicitly listed in the `SELECT`
///   clause; they are always included, first, in the given order, and do not
///   count against the significance filter.
/// * `candidates` — attributes eligible for automatic selection.
///
/// Returns the selected attribute indices (forced first, then auto-selected
/// by decreasing chi-square), plus the full scored list for diagnostics.
pub fn select_compare_attributes(
    view: &View<'_>,
    pivot_col: usize,
    pivot_codes: &[u32],
    forced: &[usize],
    candidates: &[usize],
    config: &FeatureSelectionConfig,
) -> (Vec<usize>, Vec<FeatureScore>) {
    // Class label per row: position of the row's pivot dictionary code
    // within V.
    let pivot_column = view.table().column(pivot_col);
    let class_of = move |row: usize| -> Option<usize> {
        let code = pivot_column.get_code(row)?;
        if code == NULL_CODE {
            return None;
        }
        pivot_codes.iter().position(|&c| c == code)
    };
    select_compare_attributes_by(
        view,
        pivot_codes.len(),
        &class_of,
        pivot_col,
        forced,
        candidates,
        config,
    )
}

/// Execution context for Compare Attribute selection: parallelism and
/// memoization. The default is sequential and uncached — exactly the
/// behavior of [`select_compare_attributes_by`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ScoringCtx<'a> {
    /// Worker threads for per-attribute scoring; `0`/`1` score on the
    /// caller's thread (see `dbex_par::par_map`).
    pub threads: usize,
    /// Memoization cache for contingency tables, if any.
    pub cache: Option<&'a StatsCache>,
    /// Hash identifying the class-label assignment (e.g. pivot column +
    /// selected pivot codes). Only used as part of the cache key; callers
    /// passing a cache must make this collision-free across different
    /// `class_of` functions used with the same view.
    pub class_ctx: u64,
}

/// Generalized Compare Attribute selection with caller-provided class
/// labels.
///
/// `class_of(row_id)` maps a base-table row to its pivot class in
/// `0..num_classes` (or `None` to skip the row) — this supports pivots
/// that are not plain dictionary codes, e.g. binned numeric pivots.
/// `pivot_col` is only used to exclude the pivot from the candidates.
pub fn select_compare_attributes_by(
    view: &View<'_>,
    num_classes: usize,
    class_of: &(dyn Fn(usize) -> Option<usize> + Sync),
    pivot_col: usize,
    forced: &[usize],
    candidates: &[usize],
    config: &FeatureSelectionConfig,
) -> (Vec<usize>, Vec<FeatureScore>) {
    select_compare_attributes_ctx(
        view,
        num_classes,
        class_of,
        pivot_col,
        forced,
        candidates,
        config,
        ScoringCtx::default(),
    )
}

/// [`select_compare_attributes_by`] with an explicit [`ScoringCtx`]:
/// candidate attributes are scored across `ctx.threads` workers, and
/// contingency tables are memoized in `ctx.cache` when present.
///
/// The scored list is identical to the sequential, uncached path for any
/// thread count: each attribute's score is computed independently and
/// results are collected in candidate order before the stable sort.
#[allow(clippy::too_many_arguments)]
pub fn select_compare_attributes_ctx(
    view: &View<'_>,
    num_classes: usize,
    class_of: &(dyn Fn(usize) -> Option<usize> + Sync),
    pivot_col: usize,
    forced: &[usize],
    candidates: &[usize],
    config: &FeatureSelectionConfig,
    ctx: ScoringCtx<'_>,
) -> (Vec<usize>, Vec<FeatureScore>) {
    let scoring_view = match config.sample {
        Some(n) => view.sample(n),
        None => view.clone(),
    };
    let view_fp = ctx.cache.map(|_| scoring_view.fingerprint());

    // Resolve the class label of every scoring row once, up front —
    // `class_of` used to be re-evaluated per row *per candidate*. The
    // labels feed the batch contingency fill as a code slice with
    // `NULL_CODE` marking skipped rows (a class index can never collide
    // with the sentinel: contingency rows are bounded far below u32::MAX).
    let classes: Vec<u32> = scoring_view
        .row_ids()
        .iter()
        .map(|&r| match class_of(r as usize) {
            Some(c) => c as u32,
            None => NULL_CODE,
        })
        .collect();

    let score_one = |attr: usize| -> Option<FeatureScore> {
        if attr == pivot_col || forced.contains(&attr) {
            return None;
        }
        let build = || {
            contingency_for(
                &scoring_view,
                view_fp,
                attr,
                num_classes,
                &classes,
                config,
                ctx.cache,
            )
        };
        let table: Arc<ContingencyTable> = match (ctx.cache, view_fp) {
            (Some(cache), Some(fp)) => cache.contingency_with(
                ContingencyKey {
                    view_fp: fp,
                    class_ctx: ctx.class_ctx,
                    attr,
                    bins: config.bins,
                    strategy: config.strategy,
                },
                build,
            )?,
            _ => Arc::new(build()?),
        };
        let result = table.chi_square()?;
        let score = match config.scorer {
            FeatureScorer::ChiSquare => result.statistic,
            FeatureScorer::InfoGain => information_gain(&table),
            FeatureScorer::SymmetricalUncertainty => symmetrical_uncertainty(&table),
        };
        Some(FeatureScore {
            attr_index: attr,
            statistic: result.statistic,
            dof: result.dof,
            p_value: result.p_value,
            score,
        })
    };

    let mut scores: Vec<FeatureScore> =
        dbex_par::par_map(ctx.threads, candidates, |_, &attr| score_one(attr))
            .into_iter()
            .flatten()
            .collect();

    scores.sort_by(|a, b| b.score.total_cmp(&a.score));

    let mut selected: Vec<usize> = forced.to_vec();
    for s in &scores {
        if selected.len() >= config.max_attrs {
            break;
        }
        if s.p_value <= config.alpha && !selected.contains(&s.attr_index) {
            selected.push(s.attr_index);
        }
    }
    (selected, scores)
}

/// Builds the (class × code) contingency table for one candidate attribute,
/// or `None` when the attribute cannot be discretized over the view.
///
/// `classes` carries the precomputed per-row class labels (`NULL_CODE` =
/// skip), parallel to the scoring view's `row_ids()`. The attribute is
/// batch-encoded and the table filled through the vectorized pair kernel —
/// counts identical to the old per-row `add` loop.
///
/// With a cache, the codec is memoized under the same [`CodecKey`] that
/// `CodedMatrix::encode_ctx` looks up, so when the scoring view is the
/// whole result set (no sampling) the selected attributes' codecs are
/// built once per build, not twice.
fn contingency_for(
    scoring_view: &View<'_>,
    view_fp: Option<u64>,
    attr: usize,
    num_classes: usize,
    classes: &[u32],
    config: &FeatureSelectionConfig,
    cache: Option<&StatsCache>,
) -> Option<ContingencyTable> {
    let build = || AttributeCodec::build(scoring_view, attr, config.bins, config.strategy);
    let codec: Arc<AttributeCodec> = match (cache, view_fp) {
        (Some(cache), Some(fp)) => {
            let key = CodecKey {
                view_fp: fp,
                attr,
                bins: config.bins,
                strategy: config.strategy,
            };
            cache.codec_with(key, build).ok()?
        }
        _ => Arc::new(build().ok()?),
    };
    let column = scoring_view.table().column(attr);
    let codes = codec.encode_rows(column, scoring_view.row_ids());
    let mut table = ContingencyTable::new(num_classes, codec.cardinality());
    table.fill_pairs(classes, &codes, NULL_CODE);
    Some(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbex_table::{DataType, Field, TableBuilder};

    /// Builds a table where `Dependent` is perfectly determined by `Make`,
    /// `Noise` is independent of it, and `Price` is numerically correlated.
    fn table() -> dbex_table::Table {
        let mut b = TableBuilder::new(vec![
            Field::new("Make", DataType::Categorical),
            Field::new("Dependent", DataType::Categorical),
            Field::new("Noise", DataType::Categorical),
            Field::new("Price", DataType::Int),
        ])
        .unwrap();
        for i in 0..200 {
            let make = if i % 2 == 0 { "Ford" } else { "Jeep" };
            let dep = if i % 2 == 0 { "A" } else { "B" };
            let noise = ["x", "y", "z"][i % 3];
            let price = if i % 2 == 0 { 10_000 + (i as i64) } else { 40_000 + (i as i64) };
            b.push_row(vec![make.into(), dep.into(), noise.into(), price.into()])
                .unwrap();
        }
        b.finish()
    }

    fn pivot_codes(t: &dbex_table::Table) -> Vec<u32> {
        let dict = t.column(0).dictionary().unwrap();
        vec![dict.code("Ford").unwrap(), dict.code("Jeep").unwrap()]
    }

    #[test]
    fn dependent_attribute_ranked_above_noise() {
        let t = table();
        let v = t.full_view();
        let codes = pivot_codes(&t);
        let (selected, scores) = select_compare_attributes(
            &v,
            0,
            &codes,
            &[],
            &[1, 2, 3],
            &FeatureSelectionConfig::default(),
        );
        // Dependent (attr 1) and Price (attr 3) are informative; Noise is not.
        assert!(selected.contains(&1));
        assert!(selected.contains(&3));
        assert!(!selected.contains(&2));
        let dep = scores.iter().find(|s| s.attr_index == 1).unwrap();
        let noise = scores.iter().find(|s| s.attr_index == 2).unwrap();
        assert!(dep.statistic > noise.statistic);
        assert!(dep.p_value < 1e-10);
        assert!(noise.p_value > 0.05);
    }

    #[test]
    fn forced_attributes_come_first() {
        let t = table();
        let v = t.full_view();
        let codes = pivot_codes(&t);
        let (selected, _) = select_compare_attributes(
            &v,
            0,
            &codes,
            &[2],
            &[1, 2, 3],
            &FeatureSelectionConfig::default(),
        );
        assert_eq!(selected[0], 2); // forced Noise leads despite being uninformative
        assert!(selected.contains(&1));
    }

    #[test]
    fn max_attrs_respected() {
        let t = table();
        let v = t.full_view();
        let codes = pivot_codes(&t);
        let config = FeatureSelectionConfig {
            max_attrs: 1,
            ..Default::default()
        };
        let (selected, _) =
            select_compare_attributes(&v, 0, &codes, &[], &[1, 2, 3], &config);
        assert_eq!(selected.len(), 1);
        assert_eq!(selected[0], 1); // the strongest signal
    }

    #[test]
    fn sampling_preserves_top_attribute() {
        let t = table();
        let v = t.full_view();
        let codes = pivot_codes(&t);
        let config = FeatureSelectionConfig {
            sample: Some(50),
            ..Default::default()
        };
        let (selected, _) =
            select_compare_attributes(&v, 0, &codes, &[], &[1, 2, 3], &config);
        assert_eq!(selected[0], 1);
    }

    /// Scoring across threads, with or without the cache, must reproduce
    /// the sequential uncached scores exactly.
    #[test]
    fn parallel_and_cached_scoring_match_sequential() {
        let t = table();
        let v = t.full_view();
        let codes = pivot_codes(&t);
        let pivot_column = t.column(0);
        let class_of = |row: usize| -> Option<usize> {
            let code = pivot_column.get_code(row)?;
            codes.iter().position(|&c| c == code)
        };
        let config = FeatureSelectionConfig::default();
        let run = |ctx: ScoringCtx<'_>| {
            select_compare_attributes_ctx(&v, codes.len(), &class_of, 0, &[], &[1, 2, 3], &config, ctx)
        };
        let (base_sel, base_scores) = run(ScoringCtx::default());
        let cache = StatsCache::new();
        for threads in [1, 2, 4] {
            for use_cache in [false, true] {
                let ctx = ScoringCtx {
                    threads,
                    cache: use_cache.then_some(&cache),
                    class_ctx: 17,
                };
                let (sel, scores) = run(ctx);
                assert_eq!(sel, base_sel, "threads={threads} cache={use_cache}");
                assert_eq!(scores.len(), base_scores.len());
                for (a, b) in scores.iter().zip(&base_scores) {
                    assert_eq!(a.attr_index, b.attr_index);
                    assert_eq!(a.statistic.to_bits(), b.statistic.to_bits());
                    assert_eq!(a.score.to_bits(), b.score.to_bits());
                }
            }
        }
        let stats = cache.stats();
        assert!(stats.hits > 0, "repeat cached runs must hit: {stats}");
    }

    #[test]
    fn pivot_attribute_never_selected() {
        let t = table();
        let v = t.full_view();
        let codes = pivot_codes(&t);
        let (selected, _) = select_compare_attributes(
            &v,
            0,
            &codes,
            &[],
            &[0, 1],
            &FeatureSelectionConfig::default(),
        );
        assert!(!selected.contains(&0));
    }
}
