//! CAD View construction pipeline (paper Section 3).
//!
//! `build_cad_view` realizes the sequence Problem 1.1 → 1.2 → 2:
//!
//! 1. **Compare Attributes** — chi-square feature selection against the
//!    pivot classes (optionally on a sample: Optimization 1).
//! 2. **Candidate IUnits** — per pivot value, k-means with `l ≈ 1.5k`
//!    centers over one-hot encoded Compare Attributes (optionally sampled
//!    clustering with out-of-sample assignment; optionally fewer candidates
//!    on huge results: Optimization 2), then cluster labeling.
//! 3. **Diversified top-k** — div-astar over the candidate IUnits with the
//!    Algorithm-1 similarity graph at threshold `τ = tau_fraction · |I|`.
//!
//! Per-stage wall-clock timings are recorded in [`CadTimings`] using the
//! same three buckets as the paper's Figure 8 (Compare Attribute time,
//! IUnit generation time, "others").

use crate::budget::{BudgetGauge, Degradation, DegradationKind, ExecBudget};
use crate::cad::{CadRow, CadView};
use crate::error::CadError;
use crate::iunit::{IUnit, LabelConfig};
use crate::simil::iunit_similarity;
use dbex_cluster::{
    assign_all_packed, kmeans, kmeans_packed_warm, mini_batch_kmeans, mini_batch_kmeans_packed,
    KMeansConfig, KMeansResult, MiniBatchConfig, OneHotSpace, PackedMatrix,
};
use dbex_stats::cache::{ClusterKey, ClusterSolution};
use dbex_stats::discretize::{AttributeCodec, CodedColumn, CodedMatrix};
use dbex_stats::feature::{
    select_compare_attributes_ctx, FeatureScorer, FeatureSelectionConfig, ScoringCtx,
};
use dbex_obs::{Span, Tracer};
use dbex_stats::histogram::BinningStrategy;
use dbex_stats::{CacheStats, StatsCache};
use dbex_table::dict::NULL_CODE;
use dbex_table::{DataType, View};
use dbex_topk::{div_astar, greedy, ConflictGraph};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How IUnits are scored for the top-k ranking (Problem 2's preference
/// function `P`).
#[derive(Debug, Clone, PartialEq)]
pub enum Preference {
    /// Larger clusters first (the paper's system default).
    ClusterSize,
    /// Ascending mean of a numeric attribute (e.g. cheapest price first —
    /// the paper's car-shopper example).
    AttributeAsc(String),
    /// Descending mean of a numeric attribute (e.g. highest mileage first —
    /// the paper's taxi-fleet example).
    AttributeDesc(String),
}

/// Tuning knobs for the construction pipeline.
#[derive(Debug, Clone)]
pub struct CadConfig {
    /// Candidate IUnits per pivot value: `l = ceil(candidate_factor · k)`
    /// (the paper suggests `l = 1.5k`).
    pub candidate_factor: f64,
    /// Bins for numeric Compare Attributes.
    pub bins: usize,
    /// Binning strategy for numeric Compare Attributes.
    pub strategy: BinningStrategy,
    /// Chi-square significance level for Compare Attribute selection.
    pub alpha: f64,
    /// Relevance measure ranking candidate Compare Attributes.
    pub scorer: FeatureScorer,
    /// Similarity threshold as a fraction of `|I|`: `τ = tau_fraction·|I|`.
    pub tau_fraction: f64,
    /// IUnit labeling thresholds.
    pub label: LabelConfig,
    /// Optimization 1a: feature-select on at most this many rows.
    pub fs_sample: Option<usize>,
    /// Optimization 1b: cluster at most this many rows per pivot value and
    /// assign the remainder to the nearest centroid.
    pub cluster_sample: Option<usize>,
    /// Optimization 2: on partitions larger than
    /// [`CadConfig::ADAPTIVE_THRESHOLD`], generate only `k` candidates.
    pub adaptive_iunits: bool,
    /// Maximum k-means iterations.
    pub kmeans_iters: usize,
    /// k-means++ seeding (`false` = random seeding, ablation only).
    pub plus_plus: bool,
    /// PRNG seed for clustering.
    pub seed: u64,
    /// Cluster directly on packed `u8`/`u16` dictionary-code rows instead
    /// of materialized sparse one-hot points (the default). The packed
    /// kernels are bit-identical to the one-hot reference — this switch
    /// exists for A/B verification and as an escape hatch; attribute sets
    /// the packed layout cannot represent (cardinality > 65 535) fall back
    /// to the reference path automatically.
    pub packed_kernel: bool,
    /// Seed k-means from the previous build's centroids for the same pivot
    /// value when the partition's membership *changed* (a shrunken or grown
    /// facet refinement). Warm seeding converges in fewer Lloyd iterations
    /// but produces a (deterministically) different clustering than a cold
    /// build, so it is opt-in and disables exact cluster reuse; the default
    /// preserves the byte-identical cold-vs-incremental contract.
    pub warm_start: bool,
    /// Worker threads for the per-attribute and per-pivot-value stages.
    /// `1` (the default) runs the whole pipeline sequentially on the
    /// caller's thread — required by the fault-injection hooks, whose
    /// thread-locals only fire on the arming thread. `0` resolves to
    /// `DBEX_THREADS` or the machine's available parallelism. Output is
    /// byte-identical for any thread count at a fixed seed.
    pub threads: usize,
}

impl CadConfig {
    /// Partition size above which `adaptive_iunits` clamps `l` to `k`.
    pub const ADAPTIVE_THRESHOLD: usize = 10_000;

    /// The paper's combined optimizations (Section 6.3): sampled feature
    /// selection + sampled clustering + adaptive candidate counts, which
    /// together bring a 40K-row CAD View under ~500 ms.
    pub fn optimized() -> CadConfig {
        CadConfig {
            fs_sample: Some(5_000),
            cluster_sample: Some(2_000),
            adaptive_iunits: true,
            ..CadConfig::default()
        }
    }
}

impl Default for CadConfig {
    fn default() -> Self {
        CadConfig {
            candidate_factor: 1.5,
            bins: 6,
            strategy: BinningStrategy::EquiDepth,
            alpha: 0.05,
            scorer: FeatureScorer::ChiSquare,
            tau_fraction: 0.7,
            label: LabelConfig::default(),
            fs_sample: None,
            cluster_sample: None,
            adaptive_iunits: false,
            kmeans_iters: 20,
            plus_plus: true,
            seed: 0xCAD,
            packed_kernel: true,
            warm_start: false,
            threads: 1,
        }
    }
}

/// A CAD View request — the programmatic equivalent of the paper's
/// `CREATE CADVIEW` statement (Section 2.1.2).
#[derive(Debug, Clone)]
pub struct CadRequest {
    /// Pivot Attribute name (`SET pivot = ...`).
    pub pivot: String,
    /// Explicit pivot values to show; `None` shows every distinct value,
    /// ordered by decreasing tuple count.
    pub pivot_values: Option<Vec<String>>,
    /// User-forced Compare Attributes (the `SELECT` list).
    pub compare_attrs: Vec<String>,
    /// Total Compare Attribute budget `M` (`LIMIT COLUMNS M`).
    pub max_compare_attrs: usize,
    /// IUnits per pivot value `k` (`IUNITS k`).
    pub iunits: usize,
    /// IUnit preference function.
    pub preference: Preference,
    /// Pipeline tuning.
    pub config: CadConfig,
    /// Resource limits; exhaustion degrades the build instead of failing
    /// it (see [`crate::budget`]).
    pub budget: ExecBudget,
}

impl CadRequest {
    /// A request with defaults matching the paper's running example
    /// (5 Compare Attributes, 3 IUnits, cluster-size preference).
    pub fn new(pivot: impl Into<String>) -> CadRequest {
        CadRequest {
            pivot: pivot.into(),
            pivot_values: None,
            compare_attrs: Vec::new(),
            max_compare_attrs: 5,
            iunits: 3,
            preference: Preference::ClusterSize,
            config: CadConfig::default(),
            budget: ExecBudget::unlimited(),
        }
    }

    /// Restricts the view to these pivot values, in this order.
    pub fn with_pivot_values<S: Into<String>>(mut self, values: Vec<S>) -> Self {
        self.pivot_values = Some(values.into_iter().map(Into::into).collect());
        self
    }

    /// Forces these attributes into the Compare Attribute set.
    pub fn with_compare<S: Into<String>>(mut self, attrs: Vec<S>) -> Self {
        self.compare_attrs = attrs.into_iter().map(Into::into).collect();
        self
    }

    /// Sets `k`, the IUnits shown per pivot value.
    pub fn with_iunits(mut self, k: usize) -> Self {
        self.iunits = k;
        self
    }

    /// Sets `M`, the Compare Attribute budget.
    pub fn with_max_compare_attrs(mut self, m: usize) -> Self {
        self.max_compare_attrs = m;
        self
    }

    /// Sets the IUnit preference function.
    pub fn with_preference(mut self, p: Preference) -> Self {
        self.preference = p;
        self
    }

    /// Replaces the pipeline configuration.
    pub fn with_config(mut self, config: CadConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the execution budget.
    pub fn with_budget(mut self, budget: ExecBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// Wall-clock cost of each pipeline stage — the decomposition plotted in
/// the paper's Figure 8.
#[derive(Debug, Clone, Copy, Default)]
pub struct CadTimings {
    /// Compare Attribute selection (chi-square feature selection).
    pub compare_attrs: Duration,
    /// Candidate IUnit generation (encoding, clustering, labeling).
    pub iunit_generation: Duration,
    /// Everything else: similarity graph, diversified top-k, assembly.
    pub others: Duration,
}

impl CadTimings {
    /// Total build time.
    pub fn total(&self) -> Duration {
        self.compare_attrs + self.iunit_generation + self.others
    }
}

/// Builds a CAD View over result set `result`.
///
/// Errors if the pivot attribute is unknown or not categorical, if an
/// explicit pivot value does not occur in the result set, or if a forced
/// Compare Attribute is unknown.
///
/// ```
/// use dbex_table::{TableBuilder, Field, DataType};
/// use dbex_core::{build_cad_view, CadRequest};
///
/// let mut b = TableBuilder::new(vec![
///     Field::new("Make", DataType::Categorical),
///     Field::new("Engine", DataType::Categorical),
/// ]).unwrap();
/// for i in 0..20 {
///     let (m, e) = if i % 2 == 0 { ("Ford", "V6") } else { ("Jeep", "V8") };
///     b.push_row(vec![m.into(), e.into()]).unwrap();
/// }
/// let table = b.finish();
///
/// let cad = build_cad_view(&table.full_view(), &CadRequest::new("Make")).unwrap();
/// assert_eq!(cad.rows.len(), 2);
/// assert!(cad.render().contains("IUnit 1"));
/// ```
pub fn build_cad_view(result: &View<'_>, request: &CadRequest) -> Result<CadView, CadError> {
    build_cad_view_cached(result, request, None)
}

/// [`build_cad_view`] with an optional statistics cache.
///
/// The cache memoizes attribute codecs (histograms + bin labels) and
/// chi-square contingency tables across builds, keyed on the view's
/// fingerprint — repeated `CREATE CADVIEW` statements and TPFacet
/// refinements over the same result set stop recomputing them. Pass
/// `None` for the uncached behavior of [`build_cad_view`]; cached and
/// uncached builds produce identical views.
pub fn build_cad_view_cached(
    result: &View<'_>,
    request: &CadRequest,
    cache: Option<&StatsCache>,
) -> Result<CadView, CadError> {
    build_cad_view_traced(result, request, cache, &Tracer::disabled())
}

/// Reads the cache counters, treating "no cache" as all-zero.
fn cache_stats(cache: Option<&StatsCache>) -> CacheStats {
    cache.map(|c| c.stats()).unwrap_or_default()
}

/// [`build_cad_view_cached`] with span tracing.
///
/// With an enabled `tracer` the build records the span taxonomy below
/// and attaches the assembled tree as [`CadView::trace`] (the tracer is
/// drained — use one tracer per build). With `Tracer::disabled()` the
/// instrumentation cost is an `Option` check per stage.
///
/// ```text
/// cad_build                rows_input, degradations, degradation_level
/// ├ pivot_encode           rows_scanned, pivot_values
/// ├ compare_attrs          rows_scanned, attrs_scored, attrs_selected,
/// │                        cache_hits, cache_misses
/// ├ iunit_generation
/// │ ├ encode_matrix        rows_scanned, attrs_encoded, cache_hits/misses
/// │ └ cluster_partition    rows_clustered, rows_distinct, candidates,
/// │                        degradations
/// └ topk
///   └ solve_partition      candidates, selected, greedy_solves
/// ```
///
/// `cluster_partition` / `solve_partition` run once per pivot value —
/// possibly on pool workers — and merge into a single node, so the tree
/// and every counter are byte-identical at any thread count; only the
/// recorded durations differ. A streamed build (see
/// [`build_cad_view_streamed`]) that emits a preview also records an
/// `iunit_generation › preview` span (`rows_sampled`,
/// `partitions_sampled`) with its own `solve_partition` child.
pub fn build_cad_view_traced(
    result: &View<'_>,
    request: &CadRequest,
    cache: Option<&StatsCache>,
    tracer: &Tracer,
) -> Result<CadView, CadError> {
    build_cad_view_streamed(result, request, cache, tracer, None)
}

/// Result-size floor for a streamed preview: a build emits one only when
/// the partitions that missed cluster reuse hold at least this many rows.
/// Below it the exact clustering is itself interactive, so a preview
/// would only add work.
pub const PREVIEW_MIN_ROWS: usize = 2_000;

/// [`build_cad_view_traced`] that may hand `preview` a cheap view first.
///
/// After compare-attribute selection and encoding, the build probes the
/// cluster-reuse cache for every partition. When a `preview` sink is
/// given, the deadline has not passed, and the partitions that missed
/// reuse hold at least [`PREVIEW_MIN_ROWS`] rows, the sink receives a
/// preview view: reused partitions keep their exact IUnits, missed ones
/// are clustered on the degradation ladder's sampled rung (recorded as a
/// `sampled-clustering` degradation). Then the build clusters the missed
/// partitions exactly. The returned view is identical to an unstreamed
/// build's: the preview is never cached, its rows are not charged to the
/// budget, and its time is excluded from the deadline. With `None` this
/// is [`build_cad_view_traced`].
pub fn build_cad_view_streamed(
    result: &View<'_>,
    request: &CadRequest,
    cache: Option<&StatsCache>,
    tracer: &Tracer,
    preview: Option<&mut dyn FnMut(CadView)>,
) -> Result<CadView, CadError> {
    let build_start = Instant::now();
    dbex_obs::counter!("cad.builds").incr(1);
    let threads = dbex_par::resolve_threads(request.config.threads);
    // Record which SIMD kernel family this process dispatches to, so
    // `metrics`/EXPLAIN ANALYZE can attribute build timings to the
    // hardware path actually taken (codes from `SimdDispatch::code`).
    dbex_obs::gauge!("cluster.kernel_dispatch").set(dbex_stats::simd::dispatch().code());
    let mut gauge = request.budget.start();
    let mut degradation: Vec<Degradation> = Vec::new();
    let schema = result.table().schema();
    let pivot_col = schema.index_of(&request.pivot)?;
    if request.iunits == 0 {
        return Err(CadError::ZeroIUnits);
    }
    let root = tracer.root("cad_build");
    root.add("rows_input", result.len() as u64);
    let pivot_span = root.child("pivot_encode");
    let pivot_column = result.table().column(pivot_col);
    // Categorical pivots use their dictionary codes; numeric pivots are
    // discretized, and the bins act as pivot values (an extension beyond
    // the paper, which assumes a categorical pivot).
    let pivot_codec = AttributeCodec::build(
        result,
        pivot_col,
        request.config.bins,
        request.config.strategy,
    )
    .map_err(|e| CadError::PivotNotDiscretizable {
        pivot: request.pivot.clone(),
        source: e,
    })?;

    // Partition the result set by pivot code (positions, not row ids).
    let mut partitions: Vec<(u32, Vec<usize>)> = Vec::new();
    {
        let mut index_of_code: std::collections::HashMap<u32, usize> =
            std::collections::HashMap::new();
        for (pos, &row) in result.row_ids().iter().enumerate() {
            let Some(code) = pivot_codec.encode(pivot_column, row as usize) else {
                continue;
            };
            if code == NULL_CODE {
                continue;
            }
            let slot = *index_of_code.entry(code).or_insert_with(|| {
                partitions.push((code, Vec::new()));
                partitions.len() - 1
            });
            partitions[slot].1.push(pos);
        }
    }

    // Resolve the pivot value list V.
    let selected_partitions: Vec<(u32, String, Vec<usize>)> = match &request.pivot_values {
        Some(labels) => {
            let mut out = Vec::with_capacity(labels.len());
            for label in labels {
                let code = pivot_codec.code_of_label(label).ok_or_else(|| {
                    CadError::UnknownPivotValue {
                        value: label.clone(),
                        pivot: request.pivot.clone(),
                    }
                })?;
                let members = partitions
                    .iter()
                    .find(|(c, _)| *c == code)
                    .map(|(_, m)| m.clone())
                    .unwrap_or_default();
                out.push((code, label.clone(), members));
            }
            out
        }
        None => {
            let mut parts = partitions.clone();
            match schema.field(pivot_col).data_type {
                // Categorical pivots: biggest partitions first.
                DataType::Categorical => {
                    parts.sort_by_key(|p| std::cmp::Reverse(p.1.len()));
                }
                // Binned numeric pivots: natural bin order.
                _ => parts.sort_by_key(|p| p.0),
            }
            parts
                .into_iter()
                .map(|(code, members)| {
                    let label = pivot_codec.label(code).to_owned();
                    (code, label, members)
                })
                .collect()
        }
    };
    let pivot_codes: Vec<u32> = selected_partitions.iter().map(|(c, _, _)| *c).collect();
    if pivot_codes.is_empty() {
        return Err(CadError::NoPivotValues);
    }
    pivot_span.add("rows_scanned", result.len() as u64);
    pivot_span.add("pivot_values", selected_partitions.len() as u64);
    drop(pivot_span);

    // --- Stage 1: Compare Attributes (Problem 1.1) ---
    let t0 = Instant::now();
    let fs_span = root.child("compare_attrs");
    let fs_cache_before = cache_stats(cache);
    let forced: Vec<usize> = request
        .compare_attrs
        .iter()
        .map(|name| schema.index_of(name))
        .collect::<dbex_table::Result<_>>()?;
    let candidates: Vec<usize> = (0..schema.len()).filter(|&i| i != pivot_col).collect();
    let candidates_scored = candidates.len();
    // Deadline already blown before stage 1 (e.g. a tiny budget): clamp
    // feature selection to a small sample instead of scanning everything.
    let mut fs_sample = request.config.fs_sample;
    if gauge.time_exhausted() {
        const FS_DEGRADED_CAP: usize = 1_000;
        if fs_sample.is_none_or(|s| s > FS_DEGRADED_CAP) {
            fs_sample = Some(FS_DEGRADED_CAP);
            degradation.push(Degradation {
                kind: DegradationKind::SampledFeatureSelection,
                pivot_value: None,
                reason: format!(
                    "time budget exhausted after {:?}; scoring attributes on a {FS_DEGRADED_CAP}-row sample",
                    gauge.elapsed()
                ),
            });
        }
    }
    let fs_config = FeatureSelectionConfig {
        max_attrs: request.max_compare_attrs,
        alpha: request.config.alpha,
        bins: request.config.bins,
        strategy: request.config.strategy,
        sample: fs_sample,
        scorer: request.config.scorer,
    };
    let class_of = |row: usize| -> Option<usize> {
        let code = pivot_codec.encode(pivot_column, row)?;
        pivot_codes.iter().position(|&c| c == code)
    };
    // Contingency tables are cached per class-label assignment; hash the
    // pivot column and the selected codes so two pivots over the same view
    // can never collide.
    let class_ctx = {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        mix(pivot_col as u64);
        for &code in &pivot_codes {
            mix(code as u64 + 1);
        }
        h
    };
    let (mut compare_attrs, scores) = select_compare_attributes_ctx(
        result,
        pivot_codes.len(),
        &class_of,
        pivot_col,
        &forced,
        &candidates,
        &fs_config,
        ScoringCtx {
            threads,
            cache,
            class_ctx,
        },
    );
    // Degenerate fallback: if nothing passes the significance filter, take
    // the best-scoring candidates anyway — an empty CAD View helps nobody.
    if compare_attrs.is_empty() {
        compare_attrs = scores
            .iter()
            .take(request.max_compare_attrs)
            .map(|s| s.attr_index)
            .collect();
    }
    if compare_attrs.is_empty() {
        compare_attrs = candidates
            .into_iter()
            .take(request.max_compare_attrs)
            .collect();
    }
    // The scoring view is the (possibly sampled) result set crossed with
    // every candidate attribute.
    let scoring_rows = fs_sample.map_or(result.len(), |s| result.len().min(s));
    fs_span.add("rows_scanned", (scoring_rows * candidates_scored) as u64);
    fs_span.add("attrs_scored", candidates_scored as u64);
    fs_span.add("attrs_selected", compare_attrs.len() as u64);
    let fs_cache_after = cache_stats(cache);
    fs_span.add("cache_hits", fs_cache_after.hits - fs_cache_before.hits);
    fs_span.add("cache_misses", fs_cache_after.misses - fs_cache_before.misses);
    drop(fs_span);
    let timing_compare = t0.elapsed();

    // --- Stage 2: Candidate IUnits (Problem 1.2) ---
    let t1 = Instant::now();
    let gen_span = root.child("iunit_generation");
    let enc_span = gen_span.child("encode_matrix");
    let enc_cache_before = cache_stats(cache);
    let matrix = CodedMatrix::encode_ctx(
        result,
        &compare_attrs,
        request.config.bins,
        request.config.strategy,
        threads,
        cache,
    );
    let coded: Vec<&CodedColumn> = matrix.columns.iter().collect();
    // Attributes that survived encoding, in selection order.
    let live_attrs: Vec<usize> = coded.iter().map(|c| c.attr_index).collect();
    if coded.is_empty() {
        return Err(CadError::NoCompareAttributes);
    }
    // Resolve the preference before any clustering, so a bad one fails
    // fast (and before a preview can stream), and so the per-partition
    // ranking is infallible (a pool worker has no way to surface a typed
    // error mid-map).
    let pref = resolve_preference(result, &request.preference)?;
    enc_span.add("rows_scanned", (result.len() * coded.len()) as u64);
    enc_span.add("attrs_encoded", coded.len() as u64);
    let enc_cache_after = cache_stats(cache);
    enc_span.add("cache_hits", enc_cache_after.hits - enc_cache_before.hits);
    enc_span.add(
        "cache_misses",
        enc_cache_after.misses - enc_cache_before.misses,
    );
    drop(enc_span);
    let space = OneHotSpace::from_columns(&coded);
    let k = request.iunits;
    let tau = request.config.tau_fraction * coded.len() as f64;
    let view_of = |rows: Vec<CadRow>, degradation: Vec<Degradation>, feature_scores| CadView {
        pivot_attr: pivot_col,
        pivot_name: request.pivot.clone(),
        compare_attrs: live_attrs.clone(),
        compare_names: live_attrs
            .iter()
            .map(|&i| schema.field(i).name.clone())
            .collect(),
        k,
        tau,
        rows,
        feature_scores,
        timings: CadTimings::default(),
        threads_used: threads,
        degradation,
        partitions_reused: 0,
        warm_starts: 0,
        trace: None,
    };

    // Iteration-cap clamping is recorded once, not per partition.
    let kmeans_iters = gauge.clamp_iters(request.config.kmeans_iters);
    if kmeans_iters < request.config.kmeans_iters {
        degradation.push(Degradation {
            kind: DegradationKind::ClampedKMeansIters,
            pivot_value: None,
            reason: format!(
                "k-means capped at {kmeans_iters} of {} configured iterations",
                request.config.kmeans_iters
            ),
        });
    }

    // When there are fewer partitions than workers (few pivot values, the
    // common shape on real datasets), the leftover parallelism moves
    // *inside* each partition: the packed kernel splits its row walk into
    // deterministically-merged chunks. Dividing keeps the worst-case
    // thread count near `threads` (outer workers × inner chunks).
    let inner_threads = if threads > 1 {
        threads.div_ceil(selected_partitions.len().max(1)).max(1)
    } else {
        1
    };
    // Probe every partition's cluster-reuse key before clustering any of
    // them, so the build knows how much clustering work is left.
    let jobs: Vec<PartitionJob<'_>> =
        dbex_par::par_map(threads, &selected_partitions, |i, _| {
            let (_, label, members) = &selected_partitions[i];
            probe_partition(
                members,
                label,
                &coded,
                k,
                &request.config,
                kmeans_iters,
                &gauge,
                cache,
                result,
            )
        });
    let rows_missed: usize = jobs
        .iter()
        .filter(|job| job.hit.is_none())
        .map(|job| job.members.len())
        .sum();
    if let Some(sink) = preview {
        if rows_missed >= PREVIEW_MIN_ROWS && !gauge.time_exhausted() {
            let before = gauge.elapsed();
            let span = gen_span.child("preview");
            span.add("rows_sampled", rows_missed as u64);
            let preview_units: Option<Vec<_>> = dbex_par::par_map(threads, &jobs, |_, job| {
                let config = &request.config;
                preview_candidates(job, &coded, &space, config, kmeans_iters, inner_threads)
            })
            .into_iter()
            .collect();
            // A sampled rung that fails (an armed cluster fault) drops
            // the preview; the exact build below degrades on its own.
            if let Some(preview_units) = preview_units {
                let mut preview_degradation = degradation.clone();
                let mut staged = Vec::with_capacity(jobs.len());
                for ((code, label, _), (units, sampled)) in
                    selected_partitions.iter().zip(preview_units)
                {
                    preview_degradation.extend(sampled);
                    staged.push((*code, label.clone(), units));
                }
                let sampled = preview_degradation.len() - degradation.len();
                span.add("partitions_sampled", sampled as u64);
                let rows = rank_partitions(
                    staged,
                    result,
                    &pref,
                    tau,
                    k,
                    threads,
                    &gauge,
                    &span,
                    &mut preview_degradation,
                );
                sink(CadView {
                    partitions_reused: jobs.iter().filter(|job| job.hit.is_some()).count(),
                    ..view_of(rows, preview_degradation, scores.clone())
                });
            }
            drop(span);
            // The preview is not this build's work: its time must not
            // move the exact build's deadline.
            let spent = gauge.elapsed().saturating_sub(before);
            gauge.exclude(spent);
        }
    }

    // Fan the per-pivot-value work (clustering + labeling) across the
    // pool. Each partition is independent and seeded identically to the
    // sequential path, and `par_map` returns results in partition order,
    // so the output — including the degradation log — is byte-identical
    // at any thread count.
    let mut candidate_sets: Vec<Vec<IUnit>> = Vec::with_capacity(jobs.len());
    let mut partitions_reused = 0usize;
    let mut warm_starts = 0usize;
    for candidates in dbex_par::par_map(threads, &jobs, |_, job| {
        let span = gen_span.child("cluster_partition");
        gauge.charge_rows(job.members.len());
        let candidates = generate_candidates(
            job,
            &coded,
            &space,
            &request.config,
            kmeans_iters,
            inner_threads,
            &gauge,
            cache,
            result,
        );
        span.add("rows_clustered", job.members.len() as u64);
        span.add("rows_distinct", candidates.rows_distinct as u64);
        span.add("candidates", candidates.units.len() as u64);
        span.add("degradations", candidates.degradations.len() as u64);
        span.add("partitions_reused", candidates.reused as u64);
        span.add("warm_starts", candidates.warm_started as u64);
        candidates
    }) {
        candidate_sets.push(candidates.units);
        degradation.extend(candidates.degradations);
        partitions_reused += candidates.reused as usize;
        warm_starts += candidates.warm_started as usize;
    }
    drop(jobs);
    drop(gen_span);
    let timing_iunits = t1.elapsed();

    // --- Stage 3: preference scores + diversified top-k (Problem 2) ---
    let t2 = Instant::now();
    let staged: Vec<(u32, String, Vec<IUnit>)> = selected_partitions
        .into_iter()
        .zip(candidate_sets)
        .map(|((code, label, _members), units)| (code, label, units))
        .collect();
    let topk_span = root.child("topk");
    let rows = rank_partitions(
        staged,
        result,
        &pref,
        tau,
        k,
        threads,
        &gauge,
        &topk_span,
        &mut degradation,
    );
    drop(topk_span);
    let timing_others = t2.elapsed();

    root.add("degradations", degradation.len() as u64);
    root.add(
        "degradation_level",
        degradation.iter().map(|d| d.kind.severity()).max().unwrap_or(0),
    );
    drop(root);
    let trace = tracer.finish();
    dbex_obs::counter!("cad.degradations").incr(degradation.len() as u64);
    build_ms_histogram().observe_ms(build_start.elapsed());

    Ok(CadView {
        timings: CadTimings {
            compare_attrs: timing_compare,
            iunit_generation: timing_iunits,
            others: timing_others,
        },
        partitions_reused,
        warm_starts,
        trace,
        ..view_of(rows, degradation, scores)
    })
}

/// Stage 3 over every partition: preference scores, similarity graph and
/// top-k solve, then the CAD rows in partition order. Past the deadline,
/// div-astar's exact search gives way to the greedy heuristic, recorded
/// once in `degradation` after the fan-out. The clock is monotone, so the
/// sequential path degrades every partition after the first exhausted
/// one.
#[allow(clippy::too_many_arguments)]
fn rank_partitions(
    staged: Vec<(u32, String, Vec<IUnit>)>,
    result: &View<'_>,
    pref: &PrefSpec,
    tau: f64,
    k: usize,
    threads: usize,
    gauge: &BudgetGauge<'_>,
    span: &Span<'_>,
    degradation: &mut Vec<Degradation>,
) -> Vec<CadRow> {
    let solved: Vec<(Vec<usize>, Vec<f64>, bool)> =
        dbex_par::par_map(threads, &staged, |_, (_, _, units)| {
            let span = span.child("solve_partition");
            let scores = preference_scores(units, result, pref);
            let graph = ConflictGraph::from_similarity(
                units.len(),
                |a, b| iunit_similarity(&units[a], &units[b]),
                tau,
            );
            let used_greedy = gauge.time_exhausted();
            let solution = if used_greedy {
                greedy(&scores, &graph, k)
            } else {
                div_astar(&scores, &graph, k)
            };
            let mut chosen: Vec<usize> = solution.items;
            chosen.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
            span.add("candidates", units.len() as u64);
            span.add("selected", chosen.len() as u64);
            span.add("greedy_solves", used_greedy as u64);
            (chosen, scores, used_greedy)
        });
    let mut greedy_partitions = 0usize;
    let mut rows = Vec::with_capacity(staged.len());
    for ((code, label, units), (chosen, scores, used_greedy)) in
        staged.into_iter().zip(solved)
    {
        if used_greedy {
            greedy_partitions += 1;
        }
        let iunits: Vec<IUnit> = {
            // Drain by index without cloning the rest. Indices from the
            // top-k solvers are distinct and in range; out-of-contract
            // values are skipped rather than trusted with a panic.
            let mut taken: Vec<Option<IUnit>> = units
                .into_iter()
                .zip(scores)
                .map(|(mut u, s)| {
                    u.score = s;
                    Some(u)
                })
                .collect();
            chosen
                .into_iter()
                .filter_map(|i| taken.get_mut(i).and_then(Option::take))
                .collect()
        };
        rows.push(CadRow {
            pivot_code: code,
            pivot_label: label,
            iunits,
        });
    }
    if greedy_partitions > 0 {
        degradation.push(Degradation {
            kind: DegradationKind::GreedyTopK,
            pivot_value: None,
            reason: format!(
                "time budget exhausted after {:?}; ranked IUnits greedily for \
                 {greedy_partitions} partition(s)",
                gauge.elapsed()
            ),
        });
    }
    rows
}

/// The global build-latency histogram (fixed bounds: interactive-latency
/// decades from 1 ms to 2.5 s).
fn build_ms_histogram() -> std::sync::Arc<dbex_obs::Histogram> {
    static SLOT: std::sync::OnceLock<std::sync::Arc<dbex_obs::Histogram>> =
        std::sync::OnceLock::new();
    std::sync::Arc::clone(SLOT.get_or_init(|| {
        dbex_obs::global().histogram("cad.build_ms", &[1.0, 5.0, 25.0, 100.0, 500.0, 2_500.0])
    }))
}

/// Sample cap used by the last clustering rung under an exhausted budget.
const DEGRADED_SAMPLE_CAP: usize = 256;

/// Rows the sampled rung clusters at most: the configured sample, capped
/// at [`DEGRADED_SAMPLE_CAP`].
fn sampled_rung_cap(config: &CadConfig) -> usize {
    config
        .cluster_sample
        .unwrap_or(DEGRADED_SAMPLE_CAP)
        .min(DEGRADED_SAMPLE_CAP)
}

/// Rungs of the degradation ladder, in order of decreasing fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClusterRung {
    /// Full Lloyd iterations (possibly over `cluster_sample` rows).
    Full,
    /// Mini-batch k-means: constant work per point.
    MiniBatch,
    /// Full k-means over a tiny stride sample, remainder assigned.
    Sampled,
}

impl ClusterRung {
    fn next(self) -> Option<ClusterRung> {
        match self {
            ClusterRung::Full => Some(ClusterRung::MiniBatch),
            ClusterRung::MiniBatch => Some(ClusterRung::Sampled),
            ClusterRung::Sampled => None,
        }
    }

    fn kind(self) -> DegradationKind {
        match self {
            // `Full` never appears in a degradation record; mapped for
            // completeness only.
            ClusterRung::Full | ClusterRung::MiniBatch => DegradationKind::MiniBatchClustering,
            ClusterRung::Sampled => DegradationKind::SampledClustering,
        }
    }
}

/// Hash of the partition's *content* for the cluster-reuse cache key:
/// the member row ids (via [`View::fingerprint_positions`]) crossed with
/// every compare attribute's identity, cardinality, and dictionary codes
/// at those members. A numeric attribute re-binned after a refinement
/// changes its codes and so misses; categorical codes are stable across
/// refinements, which is what makes untouched partitions hit.
fn partition_fingerprint(
    result: &View<'_>,
    members: &[usize],
    coded: &[&CodedColumn],
) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = result.fingerprint_positions(members);
    let mut mix = |word: u64| {
        hash = (hash ^ word).wrapping_mul(PRIME);
    };
    for col in coded {
        mix(col.attr_index as u64);
        mix(col.codec.cardinality() as u64);
        for &p in members {
            mix(u64::from(col.codes.get(p).copied().unwrap_or(NULL_CODE)) + 1);
        }
    }
    hash
}

/// Identity under which a pivot value's centroids are kept for warm
/// seeding: table, pivot value, live attribute set, and the parameters
/// that shape the centroid space. Deliberately *excludes* the partition
/// membership — warm starts exist precisely for when membership changed.
fn warm_start_key(
    result: &View<'_>,
    pivot_label: &str,
    coded: &[&CodedColumn],
    l: usize,
    config: &CadConfig,
) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        hash = (hash ^ word).wrapping_mul(PRIME);
    };
    mix(result.table().id());
    for byte in pivot_label.as_bytes() {
        mix(u64::from(*byte) + 1);
    }
    for col in coded {
        mix(col.attr_index as u64);
        mix(col.codec.cardinality() as u64);
    }
    mix(l as u64);
    mix(config.seed);
    mix(config.plus_plus as u64);
    hash
}

/// One pivot partition's clustering job, as the reuse probe left it.
struct PartitionJob<'p> {
    members: &'p [usize],
    label: &'p str,
    /// Candidate IUnits to generate (`l`).
    l: usize,
    /// The cluster-reuse key, when the partition is eligible for reuse.
    key: Option<ClusterKey>,
    /// The memoized solution found under `key`.
    hit: Option<Arc<ClusterSolution>>,
}

/// The reuse probe: sizes a partition's candidate set and, when exact
/// reuse is possible, looks up its cluster-reuse key.
///
/// Reuse is bypassed whenever it could diverge from a cold build: on a
/// degraded rung (an exhausted deadline or an over-budget partition —
/// such rungs are shaped by transient budget state), in warm-start mode
/// (warm results are history-dependent), or while a cluster fault is
/// armed on this thread (a cold build would descend the ladder, so a
/// cache hit would diverge from it).
#[allow(clippy::too_many_arguments)]
fn probe_partition<'p>(
    members: &'p [usize],
    label: &'p str,
    coded: &[&CodedColumn],
    k: usize,
    config: &CadConfig,
    kmeans_iters: usize,
    gauge: &BudgetGauge<'_>,
    cache: Option<&StatsCache>,
    result: &View<'_>,
) -> PartitionJob<'p> {
    let adaptive_clamp =
        config.adaptive_iunits && members.len() > CadConfig::ADAPTIVE_THRESHOLD;
    let l = if adaptive_clamp {
        k
    } else {
        ((config.candidate_factor * k as f64).ceil() as usize).max(k)
    };
    let mut job = PartitionJob {
        members,
        label,
        l,
        key: None,
        hit: None,
    };
    let full_rung = !gauge.time_exhausted() && !gauge.rows_exhausted(members.len());
    let faults_clear = dbex_cluster::fault::check("cluster::kmeans").is_ok()
        && dbex_cluster::fault::check("cluster::minibatch").is_ok();
    if let Some(cache) = cache {
        if !members.is_empty() && full_rung && !config.warm_start && faults_clear {
            let key = ClusterKey {
                partition_fp: partition_fingerprint(result, members, coded),
                l,
                iters: kmeans_iters,
                seed: config.seed,
                plus_plus: config.plus_plus,
                sample: config.cluster_sample.unwrap_or(usize::MAX),
            };
            job.hit = cache.cluster_lookup(&key);
            job.key = Some(key);
        }
    }
    job
}

/// IUnits for clusters given as indices into `members`.
fn units_of(
    clusters: &[Vec<u32>],
    members: &[usize],
    coded: &[&CodedColumn],
    label: &LabelConfig,
) -> Vec<IUnit> {
    clusters
        .iter()
        .map(|cluster| {
            let mems: Vec<usize> = cluster
                .iter()
                .filter_map(|&i| members.get(i as usize).copied())
                .collect();
            IUnit::from_members(mems, coded, label)
        })
        .collect()
}

/// A partition's IUnits for a streamed preview: the exact ones when the
/// probe found them, else the sampled rung's, with the degradation that
/// records it. Nothing is cached and no rows are charged. `None` when the
/// sampled rung fails.
fn preview_candidates(
    job: &PartitionJob<'_>,
    coded: &[&CodedColumn],
    space: &OneHotSpace,
    config: &CadConfig,
    kmeans_iters: usize,
    inner_threads: usize,
) -> Option<(Vec<IUnit>, Option<Degradation>)> {
    if let Some(solution) = &job.hit {
        let units = units_of(&solution.clusters, job.members, coded, &config.label);
        return Some((units, None));
    }
    if job.members.is_empty() {
        return Some((Vec::new(), None));
    }
    let (clusters, _, _) = cluster_partition(
        job.members,
        coded,
        space,
        job.l,
        config,
        kmeans_iters,
        inner_threads,
        ClusterRung::Sampled,
        None,
    )
    .ok()?;
    let sampled = Degradation {
        kind: DegradationKind::SampledClustering,
        pivot_value: Some(job.label.to_owned()),
        reason: format!(
            "preview: clustered a {}-row sample; the exact build follows",
            sampled_rung_cap(config).min(job.members.len())
        ),
    };
    let units = units_of(&clusters, job.members, coded, &config.label);
    Some((units, Some(sampled)))
}

/// Clusters one pivot partition into `l` candidate IUnits.
///
/// Budget exhaustion and clustering failures never propagate: the ladder
/// walks full k-means → mini-batch → sampled build → a single catch-all
/// IUnit, recording a [`Degradation`] for every rung it descends. The
/// degradations are *returned* rather than pushed into shared state so the
/// caller can run partitions on pool workers and still merge the log in
/// deterministic partition order.
///
/// With a [`StatsCache`], full-fidelity solutions are memoized per
/// partition fingerprint, so a facet refinement that leaves this pivot
/// value's rows untouched skips re-clustering entirely (the returned
/// `reused` flag): the solution [`probe_partition`] found is used when
/// the partition still runs on the full rung.
#[allow(clippy::too_many_arguments)]
fn generate_candidates(
    job: &PartitionJob<'_>,
    coded: &[&CodedColumn],
    space: &OneHotSpace,
    config: &CadConfig,
    kmeans_iters: usize,
    inner_threads: usize,
    gauge: &BudgetGauge<'_>,
    cache: Option<&StatsCache>,
    result: &View<'_>,
) -> Candidates {
    let PartitionJob {
        members,
        label: pivot_label,
        l,
        ..
    } = *job;
    let mut degradation = Vec::new();
    if members.is_empty() {
        return Candidates::new(Vec::new(), degradation);
    }

    // Pick the starting rung from the budget state.
    let mut rung = if gauge.time_exhausted() {
        degradation.push(Degradation {
            kind: DegradationKind::SampledClustering,
            pivot_value: Some(pivot_label.to_owned()),
            reason: format!(
                "time budget exhausted after {:?}; clustering a {}-row sample",
                gauge.elapsed(),
                DEGRADED_SAMPLE_CAP.min(members.len())
            ),
        });
        ClusterRung::Sampled
    } else if gauge.rows_exhausted(members.len()) {
        degradation.push(Degradation {
            kind: DegradationKind::MiniBatchClustering,
            pivot_value: Some(pivot_label.to_owned()),
            reason: format!(
                "partition has {} rows over the {}-row budget",
                members.len(),
                gauge.budget().max_rows.unwrap_or(0)
            ),
        });
        ClusterRung::MiniBatch
    } else {
        ClusterRung::Full
    };

    if rung == ClusterRung::Full {
        if let Some(solution) = &job.hit {
            dbex_obs::counter!("cluster.partitions_reused").incr(1);
            let units = units_of(&solution.clusters, members, coded, &config.label);
            return Candidates {
                reused: true,
                ..Candidates::new(units, degradation)
            };
        }
    }

    // Warm seeding is keyed on the pivot value's identity, not its
    // membership, so a refined (shrunken/grown) partition can still seed
    // from the previous build's centroids.
    let warm = (config.warm_start && rung != ClusterRung::MiniBatch)
        .then(|| cache.map(|c| (c, warm_start_key(result, pivot_label, coded, l, config))))
        .flatten();

    loop {
        match cluster_partition(
            members,
            coded,
            space,
            l,
            config,
            kmeans_iters,
            inner_threads,
            rung,
            warm,
        ) {
            Ok((clusters, warm_started, rows_distinct)) => {
                if rung == ClusterRung::Full {
                    if let (Some(key), Some(cache)) = (job.key, cache) {
                        cache.cluster_insert(
                            key,
                            ClusterSolution {
                                clusters: clusters.clone(),
                            },
                        );
                    }
                }
                if warm_started {
                    dbex_obs::counter!("cluster.warm_starts").incr(1);
                }
                let units = units_of(&clusters, members, coded, &config.label);
                return Candidates {
                    warm_started,
                    rows_distinct,
                    ..Candidates::new(units, degradation)
                };
            }
            Err(e) => match rung.next() {
                Some(next) => {
                    degradation.push(Degradation {
                        kind: next.kind(),
                        pivot_value: Some(pivot_label.to_owned()),
                        reason: format!("{rung:?} clustering failed ({e}); degrading"),
                    });
                    rung = next;
                }
                None => {
                    // Every clustering rung failed: one catch-all IUnit
                    // still gives the pivot row a well-formed summary.
                    degradation.push(Degradation {
                        kind: DegradationKind::SingleUnitFallback,
                        pivot_value: Some(pivot_label.to_owned()),
                        reason: format!("all clustering fallbacks failed ({e})"),
                    });
                    let unit = IUnit::from_members(members.to_vec(), coded, &config.label);
                    return Candidates::new(vec![unit], degradation);
                }
            },
        }
    }
}

/// One partition's clustering outcome from [`generate_candidates`].
struct Candidates {
    units: Vec<IUnit>,
    degradations: Vec<Degradation>,
    /// Served from the cluster-reuse cache: no k-means ran.
    reused: bool,
    /// The k-means started from a previous build's centroids.
    warm_started: bool,
    /// Distinct rows the k-means passes walked (0 when none ran).
    rows_distinct: usize,
}

impl Candidates {
    fn new(units: Vec<IUnit>, degradations: Vec<Degradation>) -> Candidates {
        Candidates {
            units,
            degradations,
            reused: false,
            warm_started: false,
            rows_distinct: 0,
        }
    }
}

/// One attempt at clustering a partition on a specific ladder rung.
///
/// Returns the non-empty clusters as **indices into `members`** (the
/// representation the reuse cache stores, position-independent), whether
/// the k-means was warm-seeded, and how many distinct rows it walked. The default path clusters on a
/// [`PackedMatrix`] of `u8`/`u16` dictionary codes — no per-tuple one-hot
/// vectors are materialized — and is bit-identical to the sparse one-hot
/// reference, which remains both the oracle and the automatic fallback
/// when the attribute set cannot pack.
#[allow(clippy::too_many_arguments)]
fn cluster_partition(
    members: &[usize],
    coded: &[&CodedColumn],
    space: &OneHotSpace,
    l: usize,
    config: &CadConfig,
    kmeans_iters: usize,
    inner_threads: usize,
    rung: ClusterRung,
    warm: Option<(&dbex_stats::StatsCache, u64)>,
) -> Result<(Vec<Vec<u32>>, bool, usize), dbex_cluster::ClusterError> {
    // Cluster a sample and assign the rest (Optimization 1). The sampled
    // rung forces a tiny cap regardless of configuration.
    let cap = match rung {
        ClusterRung::Sampled => Some(sampled_rung_cap(config)),
        _ => config.cluster_sample,
    };
    // Train/holdout split as member-list indices; positions are looked up
    // only where the encoders need them.
    let (train_idx, holdout_idx): (Vec<usize>, Vec<usize>) = match cap {
        Some(cap) if members.len() > cap => {
            // Deterministic stride sample over the member positions.
            let step = members.len() as f64 / cap as f64;
            let mut train = Vec::with_capacity(cap);
            let mut is_train = vec![false; members.len()];
            let mut pos = 0.0;
            while train.len() < cap {
                let idx = pos as usize;
                if idx >= members.len() {
                    break;
                }
                if !is_train[idx] {
                    is_train[idx] = true;
                    train.push(idx);
                }
                pos += step;
            }
            let holdout = (0..members.len()).filter(|&i| !is_train[i]).collect();
            (train, holdout)
        }
        _ => ((0..members.len()).collect(), Vec::new()),
    };
    let train_members: Vec<usize> = train_idx.iter().map(|&i| members[i]).collect();

    let packed = if config.packed_kernel {
        PackedMatrix::from_columns(coded, &train_members)
    } else {
        None
    };
    if packed.is_some() {
        dbex_obs::counter!("cluster.packed_path").incr(1);
    } else {
        dbex_obs::counter!("cluster.onehot_path").incr(1);
    }

    let mut warm_started = false;
    let km: KMeansResult = match (&packed, rung) {
        (Some(matrix), ClusterRung::MiniBatch) => mini_batch_kmeans_packed(
            matrix,
            &MiniBatchConfig {
                k: l,
                batch_size: 256,
                batches: kmeans_iters.max(1) * 3,
                seed: config.seed,
            },
        )?,
        (Some(matrix), _) => {
            let initial = warm.and_then(|(cache, key)| cache.warm_centroids(key));
            warm_started = initial.is_some();
            kmeans_packed_warm(
                matrix,
                &KMeansConfig {
                    k: l,
                    max_iters: kmeans_iters,
                    seed: config.seed,
                    plus_plus: config.plus_plus,
                    threads: inner_threads,
                },
                initial.as_ref().map(|c| c.as_slice()),
            )?
        }
        (None, ClusterRung::MiniBatch) => mini_batch_kmeans(
            &space.encode_positions(coded, &train_members),
            space.dim(),
            &MiniBatchConfig {
                k: l,
                batch_size: 256,
                batches: kmeans_iters.max(1) * 3,
                seed: config.seed,
            },
        )?,
        (None, _) => kmeans(
            &space.encode_positions(coded, &train_members),
            space.dim(),
            &KMeansConfig {
                k: l,
                max_iters: kmeans_iters,
                seed: config.seed,
                plus_plus: config.plus_plus,
                threads: 1, // the one-hot reference path is sequential
            },
        )?,
    };
    if let Some((cache, key)) = warm {
        // Publish this build's centroid histograms so the *next* build of
        // the same pivot value (possibly over refined membership) can
        // warm-seed. Mini-batch runs leave `histograms` empty (their
        // centroids are learning-rate blends, not count ratios) and keep
        // whatever a previous Lloyd run stored.
        if !km.histograms.is_empty() {
            cache.set_warm_centroids(key, km.histograms.clone());
        }
    }

    // Bucket every member (train + holdout) into its cluster.
    let mut clusters: Vec<Vec<u32>> = vec![Vec::new(); km.centroids.len()];
    for (i, &mi) in train_idx.iter().enumerate() {
        if let Some(slot) = clusters.get_mut(km.assignments[i]) {
            slot.push(mi as u32);
        }
    }
    if !holdout_idx.is_empty() {
        let holdout_members: Vec<usize> = holdout_idx.iter().map(|&i| members[i]).collect();
        let holdout_packed = packed
            .is_some()
            .then(|| PackedMatrix::from_columns(coded, &holdout_members))
            .flatten();
        let assignments = match &holdout_packed {
            Some(matrix) => assign_all_packed(&km, matrix),
            None => km.assign_all(&space.encode_positions(coded, &holdout_members)),
        };
        for (assignment, &mi) in assignments.iter().zip(&holdout_idx) {
            if let Some(slot) = clusters.get_mut(*assignment) {
                slot.push(mi as u32);
            }
        }
    }

    Ok((
        clusters.into_iter().filter(|c| !c.is_empty()).collect(),
        warm_started,
        km.distinct_rows,
    ))
}

/// A [`Preference`] resolved against the result schema, so applying it to
/// any partition is infallible (and thus safe to run on pool workers).
#[derive(Debug, Clone, Copy)]
enum PrefSpec {
    /// Keep the size-based scores IUnits are born with.
    ClusterSize,
    /// Score by the mean of a (validated numeric) column.
    Attribute { col: usize, ascending: bool },
}

/// Validates the preference function once, before the per-partition loop.
fn resolve_preference(
    result: &View<'_>,
    preference: &Preference,
) -> Result<PrefSpec, CadError> {
    match preference {
        Preference::ClusterSize => Ok(PrefSpec::ClusterSize),
        Preference::AttributeAsc(name) | Preference::AttributeDesc(name) => {
            let col = result.table().schema().index_of(name)?;
            if result.table().column(col).data_type() == DataType::Categorical {
                return Err(CadError::NonNumericPreference { attr: name.clone() });
            }
            Ok(PrefSpec::Attribute {
                col,
                ascending: matches!(preference, Preference::AttributeAsc(_)),
            })
        }
    }
}

/// Preference score per candidate IUnit, parallel to `units`.
fn preference_scores(units: &[IUnit], result: &View<'_>, pref: &PrefSpec) -> Vec<f64> {
    match *pref {
        PrefSpec::ClusterSize => units.iter().map(|u| u.score).collect(),
        PrefSpec::Attribute { col, ascending } => {
            let column = result.table().column(col);
            let means: Vec<f64> = units
                .iter()
                .map(|u| {
                    let mut sum = 0.0;
                    let mut n = 0usize;
                    for &pos in &u.members {
                        let row = result.row_ids()[pos] as usize;
                        if let Some(v) = column.get_f64(row) {
                            sum += v;
                            n += 1;
                        }
                    }
                    if n == 0 {
                        0.0
                    } else {
                        sum / n as f64
                    }
                })
                .collect();
            let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            means
                .into_iter()
                .map(|mean| {
                    if ascending {
                        hi - mean + 1.0
                    } else {
                        mean - lo + 1.0
                    }
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbex_table::{Field, TableBuilder};

    /// A small car-like table with clear Make → (Engine, Price) structure.
    fn table() -> dbex_table::Table {
        let mut b = TableBuilder::new(vec![
            Field::new("Make", DataType::Categorical),
            Field::new("Engine", DataType::Categorical),
            Field::new("Price", DataType::Int),
            Field::new("Color", DataType::Categorical),
        ])
        .unwrap();
        // Ford: V6 around 25K and V4 around 15K; Jeep: V8 around 35K.
        for i in 0..60 {
            let color = ["Red", "Blue", "Black"][i % 3];
            if i % 2 == 0 {
                b.push_row(vec!["Ford".into(), "V6".into(), (25_000 + (i as i64 % 7) * 100).into(), color.into()]).unwrap();
            } else {
                b.push_row(vec!["Ford".into(), "V4".into(), (15_000 + (i as i64 % 7) * 100).into(), color.into()]).unwrap();
            }
            b.push_row(vec!["Jeep".into(), "V8".into(), (35_000 + (i as i64 % 5) * 100).into(), color.into()]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn builds_rows_per_pivot_value() {
        let t = table();
        let view = t.full_view();
        let cad = build_cad_view(&view, &CadRequest::new("Make").with_iunits(2)).unwrap();
        assert_eq!(cad.rows.len(), 2);
        // Rows ordered by partition size desc: Jeep (60) then Ford (60)?
        // Equal sizes — both present regardless of order.
        let labels: Vec<&str> = cad.rows.iter().map(|r| r.pivot_label.as_str()).collect();
        assert!(labels.contains(&"Ford"));
        assert!(labels.contains(&"Jeep"));
        for row in &cad.rows {
            assert!(!row.iunits.is_empty());
            assert!(row.iunits.len() <= 2);
        }
    }

    #[test]
    fn engine_selected_as_compare_attribute() {
        let t = table();
        let view = t.full_view();
        let cad = build_cad_view(&view, &CadRequest::new("Make")).unwrap();
        assert!(
            cad.compare_names.iter().any(|n| n == "Engine"),
            "Engine strongly contrasts Makes: {:?}",
            cad.compare_names
        );
        // Color is independent of Make and should not be selected.
        assert!(
            !cad.compare_names.iter().any(|n| n == "Color"),
            "{:?}",
            cad.compare_names
        );
    }

    #[test]
    fn explicit_pivot_values_and_order() {
        let t = table();
        let view = t.full_view();
        let cad = build_cad_view(
            &view,
            &CadRequest::new("Make").with_pivot_values(vec!["Jeep", "Ford"]),
        )
        .unwrap();
        assert_eq!(cad.rows[0].pivot_label, "Jeep");
        assert_eq!(cad.rows[1].pivot_label, "Ford");
    }

    #[test]
    fn unknown_pivot_value_rejected() {
        let t = table();
        let view = t.full_view();
        let err = build_cad_view(
            &view,
            &CadRequest::new("Make").with_pivot_values(vec!["Tesla"]),
        );
        assert!(err.is_err());
    }

    #[test]
    fn numeric_pivot_binned_into_ranges() {
        // Numeric pivots are supported by discretization: bins become the
        // pivot values, in natural numeric order.
        let t = table();
        let view = t.full_view();
        let cad = build_cad_view(&view, &CadRequest::new("Price").with_iunits(2)).unwrap();
        assert!(cad.rows.len() >= 2);
        for row in &cad.rows {
            assert!(row.pivot_label.contains('-'), "bin label: {}", row.pivot_label);
        }
        // Engine contrasts price ranges strongly (V4 cheap, V8 expensive).
        assert!(cad.compare_names.iter().any(|n| n == "Engine"));
        // Unknown attributes still error.
        assert!(build_cad_view(&view, &CadRequest::new("Nope")).is_err());
    }

    #[test]
    fn forced_compare_attribute_included() {
        let t = table();
        let view = t.full_view();
        let cad = build_cad_view(
            &view,
            &CadRequest::new("Make").with_compare(vec!["Color"]),
        )
        .unwrap();
        assert_eq!(cad.compare_names[0], "Color");
    }

    #[test]
    fn ford_iunits_separate_v4_and_v6() {
        let t = table();
        let view = t.full_view();
        let cad = build_cad_view(&view, &CadRequest::new("Make").with_iunits(2)).unwrap();
        let ford = cad.row("Ford").unwrap();
        let engine_pos = cad
            .compare_names
            .iter()
            .position(|n| n == "Engine")
            .unwrap();
        let labels: Vec<String> = ford
            .iunits
            .iter()
            .map(|u| u.labels[engine_pos].join(","))
            .collect();
        assert!(
            labels.iter().any(|l| l.contains("V6")) && labels.iter().any(|l| l.contains("V4")),
            "expected V4 and V6 IUnits, got {labels:?}"
        );
    }

    #[test]
    fn preference_by_price_ascending() {
        let t = table();
        let view = t.full_view();
        let cad = build_cad_view(
            &view,
            &CadRequest::new("Make")
                .with_iunits(2)
                .with_pivot_values(vec!["Ford"])
                .with_preference(Preference::AttributeAsc("Price".into())),
        )
        .unwrap();
        let ford = &cad.rows[0];
        // First IUnit should be the cheap (V4 ≈ 15K) cluster.
        let price_pos = cad.compare_names.iter().position(|n| n == "Price");
        let engine_pos = cad.compare_names.iter().position(|n| n == "Engine").unwrap();
        assert!(price_pos.is_some() || engine_pos < usize::MAX);
        assert!(
            ford.iunits[0].labels[engine_pos].contains(&"V4".to_string()),
            "cheapest cluster first: {:?}",
            ford.iunits[0].labels
        );
    }

    #[test]
    fn categorical_preference_attribute_rejected() {
        let t = table();
        let view = t.full_view();
        let tracer = Tracer::enabled();
        let err = build_cad_view_traced(
            &view,
            &CadRequest::new("Make")
                .with_preference(Preference::AttributeAsc("Color".into())),
            None,
            &tracer,
        );
        assert!(
            matches!(err, Err(CadError::NonNumericPreference { .. })),
            "{err:?}"
        );
        // The preference is checked before clustering: no k-means ran.
        let trace = tracer.finish().expect("an enabled tracer yields a trace");
        assert!(trace.find("encode_matrix").is_some());
        assert!(trace.find("cluster_partition").is_none());
    }

    #[test]
    fn timings_populated() {
        let t = table();
        let view = t.full_view();
        let cad = build_cad_view(&view, &CadRequest::new("Make")).unwrap();
        assert!(cad.timings.total() > Duration::ZERO);
    }

    #[test]
    fn optimized_config_gives_same_shape() {
        let t = table();
        let view = t.full_view();
        let base = build_cad_view(&view, &CadRequest::new("Make").with_iunits(2)).unwrap();
        let opt = build_cad_view(
            &view,
            &CadRequest::new("Make")
                .with_iunits(2)
                .with_config(CadConfig::optimized()),
        )
        .unwrap();
        assert_eq!(base.rows.len(), opt.rows.len());
        assert_eq!(base.compare_names, opt.compare_names);
    }

    #[test]
    fn sampled_clustering_covers_every_member() {
        // With cluster_sample smaller than the partition, holdout rows are
        // assigned to learned centroids — IUnit sizes must still cover the
        // entire partition.
        let t = table();
        let view = t.full_view();
        let config = CadConfig {
            cluster_sample: Some(10),
            ..CadConfig::default()
        };
        let cad = build_cad_view(
            &view,
            &CadRequest::new("Make")
                .with_pivot_values(vec!["Ford"])
                .with_iunits(2)
                .with_config(config),
        )
        .unwrap();
        let covered: usize = cad.rows[0].iunits.iter().map(|u| u.size).sum();
        let ford_rows = t
            .filter(&dbex_table::Predicate::eq("Make", "Ford"))
            .unwrap()
            .len();
        // Diversified top-k may drop a candidate cluster, but with k=2 and
        // two real clusters everything should be covered here.
        assert_eq!(covered, ford_rows);
    }

    #[test]
    fn adaptive_candidates_clamp_l() {
        // Partition below the threshold: adaptive config behaves like the
        // default (this exercises the flag path; the threshold behavior at
        // >10K rows is covered by the fig9/opt benches).
        let t = table();
        let view = t.full_view();
        let adaptive = build_cad_view(
            &view,
            &CadRequest::new("Make").with_config(CadConfig {
                adaptive_iunits: true,
                ..CadConfig::default()
            }),
        )
        .unwrap();
        let normal = build_cad_view(&view, &CadRequest::new("Make")).unwrap();
        assert_eq!(adaptive.rows.len(), normal.rows.len());
    }

    /// Everything observable about a view, rendered to one comparable string.
    fn view_digest(cad: &CadView) -> String {
        let mut out = format!(
            "pivot={} compare={:?} k={} tau={}\n",
            cad.pivot_name, cad.compare_names, cad.k, cad.tau
        );
        for s in &cad.feature_scores {
            out.push_str(&format!(
                "score {} {} {}\n",
                s.attr_index,
                s.statistic.to_bits(),
                s.p_value.to_bits()
            ));
        }
        for row in &cad.rows {
            out.push_str(&format!("row {} {}\n", row.pivot_code, row.pivot_label));
            for u in &row.iunits {
                out.push_str(&format!(
                    "  iunit size={} score={} labels={:?} members={:?}\n",
                    u.size,
                    u.score.to_bits(),
                    u.labels,
                    u.members
                ));
            }
        }
        for d in &cad.degradation {
            out.push_str(&format!("degraded {d}\n"));
        }
        out
    }

    #[test]
    fn parallel_build_matches_sequential_exactly() {
        let t = table();
        let view = t.full_view();
        let request = |threads: usize| {
            CadRequest::new("Make").with_iunits(2).with_config(CadConfig {
                threads,
                ..CadConfig::default()
            })
        };
        let sequential = build_cad_view(&view, &request(1)).unwrap();
        assert_eq!(sequential.threads_used, 1);
        for threads in [2, 4, 8] {
            let parallel = build_cad_view(&view, &request(threads)).unwrap();
            assert_eq!(parallel.threads_used, threads);
            assert_eq!(
                view_digest(&parallel),
                view_digest(&sequential),
                "{threads}-thread build diverged from sequential"
            );
        }
    }

    #[test]
    fn cached_build_matches_uncached_exactly() {
        let t = table();
        let view = t.full_view();
        let request = CadRequest::new("Make").with_iunits(2);
        let uncached = build_cad_view(&view, &request).unwrap();
        let cache = dbex_stats::StatsCache::new();
        let first = build_cad_view_cached(&view, &request, Some(&cache)).unwrap();
        let second = build_cad_view_cached(&view, &request, Some(&cache)).unwrap();
        assert_eq!(view_digest(&first), view_digest(&uncached));
        assert_eq!(view_digest(&second), view_digest(&uncached));
        let stats = cache.stats();
        assert!(stats.hits > 0, "second build should hit the cache: {stats}");
    }

    #[test]
    fn parallel_build_still_degrades_under_budget() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;

        let t = table();
        let view = t.full_view();
        let clock = Arc::new(AtomicU64::new(500));
        let request = CadRequest::new("Make")
            .with_iunits(2)
            .with_config(CadConfig {
                threads: 4,
                ..CadConfig::default()
            })
            .with_budget(
                ExecBudget::unlimited()
                    .with_time_limit(Duration::ZERO)
                    .with_manual_clock(clock),
            );
        let cad = build_cad_view(&view, &request).unwrap();
        assert!(cad.is_degraded(), "zero deadline must degrade");
        assert!(
            cad.degradation
                .iter()
                .any(|d| d.kind == DegradationKind::SampledClustering),
            "{:?}",
            cad.degradation
        );
        assert!(
            cad.degradation
                .iter()
                .any(|d| d.kind == DegradationKind::GreedyTopK),
            "{:?}",
            cad.degradation
        );
    }

    #[test]
    fn rows_are_charged_against_the_gauge() {
        // charge_rows totals the partition sizes regardless of threading;
        // exercised indirectly here by just ensuring a build completes with
        // an auto thread count (0 resolves via DBEX_THREADS / hardware).
        let t = table();
        let view = t.full_view();
        let cad = build_cad_view(
            &view,
            &CadRequest::new("Make").with_config(CadConfig {
                threads: 0,
                ..CadConfig::default()
            }),
        )
        .unwrap();
        assert!(cad.threads_used >= 1);
    }

    #[test]
    fn empty_result_rejected() {
        let t = table();
        let empty = t
            .filter(&dbex_table::Predicate::eq("Make", "Tesla"))
            .unwrap();
        assert!(build_cad_view(&empty, &CadRequest::new("Make")).is_err());
    }

    /// Streams `request` over `view`, returning the exact view and every
    /// preview the sink received.
    fn streamed(
        view: &View<'_>,
        request: &CadRequest,
        cache: &StatsCache,
        tracer: &Tracer,
    ) -> (CadView, Vec<CadView>) {
        let mut previews = Vec::new();
        let mut sink = |p: CadView| previews.push(p);
        let cad =
            build_cad_view_streamed(view, request, Some(cache), tracer, Some(&mut sink)).unwrap();
        (cad, previews)
    }

    #[test]
    fn streamed_build_previews_only_uncached_work() {
        let t = dbex_data::UsedCarsGenerator::new(7).generate(6_000);
        let view = t.full_view();
        let request = CadRequest::new("Make");
        let unstreamed =
            build_cad_view_cached(&view, &request, Some(&StatsCache::new())).unwrap();

        let cache = StatsCache::new();
        let tracer = Tracer::enabled();
        let (cold, previews) = streamed(&view, &request, &cache, &tracer);
        assert_eq!(view_digest(&cold), view_digest(&unstreamed));
        assert_eq!(previews.len(), 1, "a cold build over 6000 rows previews once");
        let preview = &previews[0];
        assert_eq!(preview.compare_names, cold.compare_names);
        assert_eq!(preview.rows.len(), cold.rows.len());
        assert!(preview.degradation.iter().all(|d| {
            d.kind == DegradationKind::SampledClustering && d.reason.starts_with("preview")
        }));
        let span = cold
            .trace
            .as_ref()
            .and_then(|trace| trace.find("preview"))
            .expect("the exact trace records the preview");
        assert_eq!(span.counter("partitions_sampled"), preview.degradation.len() as u64);

        // Every partition is now reusable: no clustering work, no preview.
        let (warm, previews) = streamed(&view, &request, &cache, &Tracer::disabled());
        assert!(previews.is_empty());
        assert_eq!(warm.partitions_reused, warm.rows.len());
        assert_eq!(view_digest(&warm), view_digest(&unstreamed));
    }

    #[test]
    fn preview_time_does_not_count_toward_the_deadline() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let t = dbex_data::UsedCarsGenerator::new(7).generate(3_000);
        let view = t.full_view();
        let clock = Arc::new(AtomicU64::new(0));
        let request = CadRequest::new("Make").with_budget(
            ExecBudget::unlimited()
                .with_time_limit(Duration::from_millis(50))
                .with_manual_clock(Arc::clone(&clock)),
        );
        let unstreamed = build_cad_view(&view, &request).unwrap();
        assert!(!unstreamed.is_degraded());
        // A preview that "takes" a second must leave the exact build
        // inside its 50 ms deadline.
        let mut previews = 0;
        let mut sink = |_: CadView| {
            previews += 1;
            clock.fetch_add(1_000, Ordering::Relaxed);
        };
        let cad =
            build_cad_view_streamed(&view, &request, None, &Tracer::disabled(), Some(&mut sink))
                .unwrap();
        assert_eq!(previews, 1);
        assert_eq!(view_digest(&cad), view_digest(&unstreamed));
    }

    #[test]
    fn expired_builds_never_preview() {
        let big = dbex_data::UsedCarsGenerator::new(7).generate(3_000);
        let expired = CadRequest::new("Make").with_budget(
            ExecBudget::unlimited()
                .with_time_limit(Duration::ZERO)
                .with_manual_clock(Arc::new(std::sync::atomic::AtomicU64::new(0))),
        );
        let (cad, previews) =
            streamed(&big.full_view(), &expired, &StatsCache::new(), &Tracer::disabled());
        assert!(previews.is_empty(), "a build past its deadline has no time for a preview");
        assert!(cad.is_degraded());
    }

    #[test]
    fn traced_cars_build_reports_distinct_rows_clustered() {
        // Binned cars rows repeat, so k-means walks fewer distinct rows
        // than it clusters; the span reports both for EXPLAIN ANALYZE.
        let t = dbex_data::UsedCarsGenerator::new(7).generate(6_000);
        let view = t.full_view();
        let cache = StatsCache::new();
        let cad = build_cad_view_traced(
            &view,
            &CadRequest::new("Make"),
            Some(&cache),
            &Tracer::enabled(),
        )
        .unwrap();
        let trace = cad.trace.expect("a traced build carries its trace");
        let span = trace
            .find("cluster_partition")
            .expect("cluster_partition span");
        let distinct = span.counter("rows_distinct");
        let clustered = span.counter("rows_clustered");
        assert!(
            0 < distinct && distinct <= clustered,
            "rows_distinct={distinct} rows_clustered={clustered}"
        );
    }
}
