//! # dbex-suggest
//!
//! Exploration intelligence for DBExplorer: next-step recommendation and
//! predicate completion (ROADMAP item 5).
//!
//! The paper's TPFacet story is *navigation* — the user walks a facet tree
//! and the system keeps the view summarized. This crate closes the loop in
//! the other direction: given where the user currently *is* (a refined
//! result set and a pivot), rank where to go *next*.
//!
//! Two surfaces, both pure functions over a [`View`]:
//!
//! * [`suggest_next`] ranks candidate attributes by **symmetrical
//!   uncertainty** against the current pivot — `2·I(P;A) / (H(P)+H(A))` —
//!   computed from the same contingency tables the CAD feature selector
//!   uses (and cached in the same [`StatsCache`], keyed on the view
//!   fingerprint, so repeated keystrokes over an unchanged view are cache
//!   hits). SU rather than raw information gain removes the bias toward
//!   high-cardinality attributes, and it is exactly 0 for any attribute
//!   that is constant over the current view — an attribute eliminated by
//!   refinement can never be suggested (the monotonicity property in
//!   `tests/suggest_ranking.rs`).
//! * [`complete_attribute`] / [`complete_value`] rank completions for a
//!   partial `WHERE` clause by data-informed *frequency ×
//!   discriminativeness* (grounded in Le Guilly & Petit, "SQL Query
//!   Completion for Data Exploration", and Kahng et al., "Interactive
//!   Browsing and Navigation in Relational Databases").
//!
//! Every ranking uses the deterministic tie-break *(score desc via
//! `total_cmp`, then attribute/code id asc)* so rendered output is
//! byte-identical at any thread count.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dbex_stats::{
    entropy, information_gain, symmetrical_uncertainty, AttributeCodec, BinningStrategy,
    CodecKey, ContingencyKey, ContingencyTable, StatsCache,
};
use dbex_table::dict::NULL_CODE;
use dbex_table::View;

/// Bin count for numeric attributes — matches `CadConfig::default()` so
/// codec cache entries are *shared* with CAD builds on the same view.
pub const SUGGEST_BINS: usize = 6;

/// Binning strategy — matches `CadConfig::default()` for the same reason.
pub const SUGGEST_STRATEGY: BinningStrategy = BinningStrategy::EquiDepth;

/// Default number of suggestions returned.
pub const DEFAULT_LIMIT: usize = 8;

/// Histogram bounds for `suggest.rank_ms` (milliseconds).
const RANK_MS_BOUNDS: &[f64] = &[0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 100.0];

/// Tuning knobs for a suggestion run.
#[derive(Debug, Clone)]
pub struct SuggestConfig {
    /// Numeric discretization bins (keep at [`SUGGEST_BINS`] to share
    /// codec cache entries with CAD builds).
    pub bins: usize,
    /// Numeric binning strategy.
    pub strategy: BinningStrategy,
    /// Maximum suggestions returned after ranking.
    pub limit: usize,
    /// Worker threads for candidate scoring (0 = resolve from environment).
    /// Ranked output is byte-identical at any thread count: each candidate
    /// is scored independently and merged in attribute order.
    pub threads: usize,
}

impl Default for SuggestConfig {
    fn default() -> Self {
        SuggestConfig {
            bins: SUGGEST_BINS,
            strategy: SUGGEST_STRATEGY,
            limit: DEFAULT_LIMIT,
            threads: 1,
        }
    }
}

/// Why a suggestion run could not produce a ranking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuggestError {
    /// The pivot column index is out of range for the view's schema.
    PivotOutOfRange {
        /// The offending index.
        pivot: usize,
        /// Number of columns in the schema.
        columns: usize,
    },
    /// The named attribute does not exist in the view's schema.
    UnknownAttribute(String),
}

impl std::fmt::Display for SuggestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuggestError::PivotOutOfRange { pivot, columns } => {
                write!(f, "pivot column {pivot} out of range ({columns} columns)")
            }
            SuggestError::UnknownAttribute(name) => write!(f, "unknown attribute {name}"),
        }
    }
}

impl std::error::Error for SuggestError {}

/// One ranked next-step candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct NextSuggestion {
    /// Column index in the schema (the deterministic tie-break key).
    pub attr: usize,
    /// Attribute name.
    pub name: String,
    /// Symmetrical uncertainty against the pivot, in `[0, 1]`.
    pub score: f64,
    /// Raw information gain `I(pivot; attr)` in nats.
    pub gain: f64,
    /// Attribute entropy `H(attr)` over the *current* view, in nats.
    pub entropy: f64,
    /// Distinct non-null codes the attribute takes over the current view.
    pub cardinality: usize,
}

/// Result of a [`suggest_next`] run.
#[derive(Debug, Clone)]
pub struct NextReport {
    /// Pivot column index the candidates were scored against.
    pub pivot: usize,
    /// Pivot attribute name.
    pub pivot_name: String,
    /// Rows in the view the ranking was computed over.
    pub view_rows: usize,
    /// Candidates that survived scoring (before the limit cut).
    pub candidates: usize,
    /// Ranked suggestions, best first.
    pub suggestions: Vec<NextSuggestion>,
    /// Stats-cache hits among this run's own lookups (0 without a cache).
    pub cache_hits: u64,
    /// Stats-cache misses among this run's own lookups.
    pub cache_misses: u64,
    /// Wall-clock time spent ranking.
    pub elapsed: std::time::Duration,
}

/// One ranked completion candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionItem {
    /// The completion text (attribute name or value label).
    pub text: String,
    /// Frequency × discriminativeness score.
    pub score: f64,
    /// Human-readable annotation (coverage / match counts).
    pub detail: String,
}

/// Contingency tables built by the suggester are cached under a `class_ctx`
/// derived from this salt + the pivot index, so they never collide with the
/// CAD feature selector's entries for the same `(view, attr)` pair.
const SUGGEST_CTX_SALT: u64 = 0x5355_4747_4553_5421; // "SUGGEST!"

/// Cache context tag for suggest contingency tables against `pivot`.
pub fn suggest_class_ctx(pivot: usize) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = SUGGEST_CTX_SALT;
    h ^= pivot as u64;
    h = h.wrapping_mul(PRIME);
    h
}

/// One call's own stats-cache traffic. The cache's counters are shared
/// with every concurrent session, so their difference across a call is
/// not the call's traffic.
#[derive(Default)]
struct Traffic {
    lookups: AtomicU64,
    misses: AtomicU64,
}

impl Traffic {
    /// Counts one lookup, returning `build` wrapped to count a miss when
    /// the cache runs it.
    fn lookup<'a, T>(&'a self, build: impl FnOnce() -> T + 'a) -> impl FnOnce() -> T + 'a {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        move || {
            self.misses.fetch_add(1, Ordering::Relaxed);
            build()
        }
    }

    /// `(hits, misses)` so far.
    fn counts(&self) -> (u64, u64) {
        let misses = self.misses.load(Ordering::Relaxed);
        (self.lookups.load(Ordering::Relaxed) - misses, misses)
    }
}

/// Builds (or fetches from `cache`) the codec for `attr` over `view`,
/// counting the lookup in `traffic`.
fn codec_for(
    view: &View<'_>,
    view_fp: Option<u64>,
    attr: usize,
    cfg: &SuggestConfig,
    cache: Option<&StatsCache>,
    traffic: &Traffic,
) -> Option<Arc<AttributeCodec>> {
    let build = || AttributeCodec::build(view, attr, cfg.bins, cfg.strategy);
    match (cache, view_fp) {
        (Some(cache), Some(fp)) => cache
            .codec_with(
                CodecKey {
                    view_fp: fp,
                    attr,
                    bins: cfg.bins,
                    strategy: cfg.strategy,
                },
                traffic.lookup(build),
            )
            .ok(),
        _ => build().ok().map(Arc::new),
    }
}

/// Non-null frequency vector (indexed by code) of `codes`.
fn code_frequencies(codes: &[u32], cardinality: usize) -> Vec<f64> {
    let mut freq = vec![0.0f64; cardinality];
    for &c in codes {
        if c != NULL_CODE {
            if let Some(slot) = freq.get_mut(c as usize) {
                *slot += 1.0;
            }
        }
    }
    freq
}

/// Ranks candidate next-step attributes against `pivot` over `view`.
///
/// Score = symmetrical uncertainty of the `pivot × attr` contingency table
/// over the current rows. Attributes that are constant (or all-null) over
/// the view score exactly 0 and are dropped — refining a view can only
/// *remove* candidates, never resurrect one (monotonicity). Ties break on
/// ascending column index, making the full ranking deterministic.
pub fn suggest_next(
    view: &View<'_>,
    pivot: usize,
    cfg: &SuggestConfig,
    cache: Option<&StatsCache>,
) -> Result<NextReport, SuggestError> {
    let started = Instant::now();
    let table = view.table();
    let schema = table.schema();
    if pivot >= schema.len() {
        return Err(SuggestError::PivotOutOfRange {
            pivot,
            columns: schema.len(),
        });
    }
    let traffic = Traffic::default();
    let view_fp = cache.map(|_| view.fingerprint());

    let pivot_codec = codec_for(view, view_fp, pivot, cfg, cache, &traffic);
    let pivot_codes: Vec<u32> = match &pivot_codec {
        Some(codec) => codec.encode_rows(table.column(pivot), view.row_ids()),
        None => Vec::new(),
    };
    let pivot_card = pivot_codec.as_ref().map(|c| c.cardinality()).unwrap_or(0);

    let candidates: Vec<usize> = schema
        .queriable_indices()
        .into_iter()
        .filter(|&a| a != pivot)
        .collect();

    let threads = dbex_par::resolve_threads(cfg.threads);
    let scored: Vec<Option<NextSuggestion>> = dbex_par::par_map(threads, &candidates, |_, &attr| {
        let codec = codec_for(view, view_fp, attr, cfg, cache, &traffic)?;
        let codes = codec.encode_rows(table.column(attr), view.row_ids());
        let freq = code_frequencies(&codes, codec.cardinality());
        let live = freq.iter().filter(|&&f| f > 0.0).count();
        let h_attr = entropy(&freq);
        if h_attr <= 0.0 {
            // Constant or all-null over the current view: eliminated.
            return None;
        }
        let contingency = |rows: usize, cols: usize| {
            let mut t = ContingencyTable::new(rows, cols);
            t.fill_pairs(&pivot_codes, &codes, NULL_CODE);
            t
        };
        let table = match (cache, view_fp) {
            (Some(cache), Some(fp)) => cache.contingency_with(
                ContingencyKey {
                    view_fp: fp,
                    class_ctx: suggest_class_ctx(pivot),
                    attr,
                    bins: cfg.bins,
                    strategy: cfg.strategy,
                },
                traffic.lookup(|| Some(contingency(pivot_card, codec.cardinality()))),
            )?,
            _ => Arc::new(contingency(pivot_card, codec.cardinality())),
        };
        Some(NextSuggestion {
            attr,
            name: schema.field(attr).name.clone(),
            score: symmetrical_uncertainty(&table),
            gain: information_gain(&table),
            entropy: h_attr,
            cardinality: live,
        })
    });

    let mut suggestions: Vec<NextSuggestion> = scored.into_iter().flatten().collect();
    // Deterministic tie-break: score desc (total order on f64), attr asc.
    suggestions.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.attr.cmp(&b.attr)));
    let candidates = suggestions.len();
    suggestions.truncate(cfg.limit);

    let (hits, misses) = traffic.counts();
    let elapsed = started.elapsed();
    dbex_obs::histogram!("suggest.rank_ms", RANK_MS_BOUNDS).observe_ms(elapsed);
    dbex_obs::counter!("suggest.next.calls").incr(1);
    dbex_obs::counter!("suggest.cache_hit").incr(hits);
    dbex_obs::counter!("suggest.cache_miss").incr(misses);

    Ok(NextReport {
        pivot,
        pivot_name: schema.field(pivot).name.clone(),
        view_rows: view.len(),
        candidates,
        suggestions,
        cache_hits: hits,
        cache_misses: misses,
        elapsed,
    })
}

/// Ranks queriable attributes matching `partial` (case-insensitive prefix)
/// as candidates to type next in a `WHERE` clause.
///
/// Score = *coverage × discriminativeness*: the fraction of view rows where
/// the attribute is non-null, times its normalized entropy
/// `H(a) / ln(cardinality)` over the current view. An attribute that is
/// constant over the view (nothing left to discriminate) scores 0 and is
/// dropped. Ties break on ascending column index.
pub fn complete_attribute(
    view: &View<'_>,
    partial: &str,
    cfg: &SuggestConfig,
    cache: Option<&StatsCache>,
) -> Vec<CompletionItem> {
    let started = Instant::now();
    let table = view.table();
    let schema = table.schema();
    let view_fp = cache.map(|_| view.fingerprint());
    let needle = partial.to_ascii_lowercase();

    let mut scored: Vec<(usize, f64, CompletionItem)> = Vec::new();
    for attr in schema.queriable_indices() {
        let name = &schema.field(attr).name;
        if !name.to_ascii_lowercase().starts_with(&needle) {
            continue;
        }
        let Some(codec) = codec_for(view, view_fp, attr, cfg, cache, &Traffic::default()) else {
            continue;
        };
        let codes = codec.encode_rows(table.column(attr), view.row_ids());
        let freq = code_frequencies(&codes, codec.cardinality());
        let non_null: f64 = freq.iter().sum();
        let live = freq.iter().filter(|&&f| f > 0.0).count();
        if live < 2 || view.is_empty() {
            continue;
        }
        let coverage = non_null / view.len() as f64;
        let discrimination = entropy(&freq) / (live as f64).ln();
        let score = coverage * discrimination;
        if score <= 0.0 {
            continue;
        }
        scored.push((
            attr,
            score,
            CompletionItem {
                text: name.clone(),
                score,
                detail: format!("{live} values, {:.0}% coverage", coverage * 100.0),
            },
        ));
    }
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let items: Vec<CompletionItem> = scored
        .into_iter()
        .take(cfg.limit)
        .map(|(_, _, item)| item)
        .collect();
    dbex_obs::histogram!("suggest.rank_ms", RANK_MS_BOUNDS).observe_ms(started.elapsed());
    dbex_obs::counter!("suggest.complete.calls").incr(1);
    items
}

/// Ranks values of `attr` matching `partial` (case-insensitive prefix) as
/// candidates for the right-hand side of `WHERE attr =`.
///
/// Score = the value's frequency over the *current* view (a completion the
/// data cannot satisfy never appears — every suggested predicate has a
/// non-empty result). Ties break on ascending code id, which for
/// dictionary-encoded columns is first-appearance order and for binned
/// numerics is bin order.
pub fn complete_value(
    view: &View<'_>,
    attr: &str,
    partial: &str,
    cfg: &SuggestConfig,
    cache: Option<&StatsCache>,
) -> Result<Vec<CompletionItem>, SuggestError> {
    let started = Instant::now();
    let table = view.table();
    let schema = table.schema();
    let col = schema
        .index_of(attr)
        .map_err(|_| SuggestError::UnknownAttribute(attr.to_owned()))?;
    let view_fp = cache.map(|_| view.fingerprint());
    let Some(codec) = codec_for(view, view_fp, col, cfg, cache, &Traffic::default()) else {
        return Ok(Vec::new());
    };
    let codes = codec.encode_rows(table.column(col), view.row_ids());
    let freq = code_frequencies(&codes, codec.cardinality());
    let non_null: f64 = freq.iter().sum();
    if non_null <= 0.0 {
        return Ok(Vec::new());
    }
    let needle = partial.to_ascii_lowercase();
    let mut items: Vec<CompletionItem> = Vec::new();
    for (code, &count) in freq.iter().enumerate() {
        if count <= 0.0 {
            continue;
        }
        let label = codec.label(code as u32);
        if !label.to_ascii_lowercase().starts_with(&needle) {
            continue;
        }
        items.push(CompletionItem {
            text: label.to_owned(),
            score: count / non_null,
            detail: format!("{count:.0} rows"),
        });
    }
    // Codes iterate ascending already; stable sort keeps code order on ties.
    items.sort_by(|a, b| b.score.total_cmp(&a.score));
    items.truncate(cfg.limit);
    dbex_obs::histogram!("suggest.rank_ms", RANK_MS_BOUNDS).observe_ms(started.elapsed());
    dbex_obs::counter!("suggest.complete.calls").incr(1);
    Ok(items)
}

/// What kind of completion a partial `WHERE` prefix calls for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompletionMode {
    /// The cursor is on an attribute name (possibly empty).
    Attribute {
        /// The partial attribute text typed so far.
        partial: String,
    },
    /// The cursor is after `attr =` (or another comparison operator).
    Value {
        /// The attribute on the left of the operator.
        attr: String,
        /// The partial value text typed so far (quotes stripped).
        partial: String,
    },
}

/// Structural analysis of a partial query prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixAnalysis {
    /// Table named after `FROM`, if present.
    pub table: Option<String>,
    /// The complete predicate clauses *before* the partial one, verbatim —
    /// the caller parses this to refine the view the completion ranks over.
    pub context: Option<String>,
    /// What to complete at the cursor.
    pub mode: CompletionMode,
}

/// Splits `text` on top-level occurrences of the case-insensitive keyword
/// `kw` (whole-word, outside single-quoted strings). Returns the fragments.
fn split_keyword<'a>(text: &'a str, keywords: &[&str]) -> Vec<&'a str> {
    let bytes = text.as_bytes();
    let mut fragments = Vec::new();
    let mut start = 0usize;
    let mut i = 0usize;
    let mut in_string = false;
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            if b == b'\'' {
                in_string = false;
            }
            i += 1;
            continue;
        }
        if b == b'\'' {
            in_string = true;
            i += 1;
            continue;
        }
        let mut matched = false;
        for kw in keywords {
            let k = kw.len();
            // Byte-wise compare: `i` walks bytes and may sit mid-char in
            // multi-byte input, where a str slice would panic. A match
            // means the span is pure ASCII, so the fragment boundaries
            // pushed below are always char boundaries.
            if i + k <= bytes.len()
                && bytes[i..i + k].eq_ignore_ascii_case(kw.as_bytes())
                && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric() && bytes[i - 1] != b'_')
                && (i + k == bytes.len()
                    || !bytes[i + k].is_ascii_alphanumeric() && bytes[i + k] != b'_')
            {
                fragments.push(&text[start..i]);
                start = i + k;
                i += k;
                matched = true;
                break;
            }
        }
        if !matched {
            i += 1;
        }
    }
    fragments.push(&text[start..]);
    fragments
}

/// Finds the last top-level occurrence of whole-word `kw` in `text`
/// (case-insensitive, outside single-quoted strings). Returns the byte
/// offset of the keyword's first character.
fn rfind_keyword(text: &str, kw: &str) -> Option<usize> {
    let fragments = split_keyword(text, &[kw]);
    if fragments.len() < 2 {
        return None;
    }
    // Offset of the start of the final fragment minus the keyword itself.
    let last = fragments[fragments.len() - 1];
    let tail_start = last.as_ptr() as usize - text.as_ptr() as usize;
    Some(tail_start - kw.len())
}

/// Analyzes a partial statement prefix (`... FROM t WHERE a = 'x' AND b`)
/// and determines what the user is in the middle of typing.
///
/// Pure string analysis — the prefix is by definition not a parseable
/// statement, so this never goes through the query parser. Single-quoted
/// strings are respected; keywords match case-insensitively.
pub fn analyze_prefix(prefix: &str) -> PrefixAnalysis {
    let text = prefix.trim_end_matches(';');

    // Table: the word after the last top-level FROM.
    let table = rfind_keyword(text, "FROM").and_then(|at| {
        text[at + 4..]
            .split_whitespace()
            .next()
            .map(|w| w.trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_').to_owned())
            .filter(|w| !w.is_empty())
    });

    // Everything after the last top-level WHERE is predicate territory.
    let after_where = match rfind_keyword(text, "WHERE") {
        Some(at) => &text[at + 5..],
        None => {
            return PrefixAnalysis {
                table,
                context: None,
                mode: CompletionMode::Attribute {
                    partial: String::new(),
                },
            }
        }
    };

    // Split the predicate tail into clauses on AND/OR; the final fragment
    // is the one being typed, everything before it is complete context.
    let clauses = split_keyword(after_where, &["AND", "OR"]);
    let partial_clause = clauses[clauses.len() - 1].trim();
    let context = if clauses.len() > 1 {
        // Everything up to the end of the previous fragment (i.e. the text
        // before the final AND/OR connector) is the complete context.
        let prev = clauses[clauses.len() - 2];
        let prev_end = prev.as_ptr() as usize - after_where.as_ptr() as usize + prev.len();
        let ctx = after_where[..prev_end].trim();
        (!ctx.is_empty()).then(|| ctx.to_owned())
    } else {
        None
    };

    // Inside the partial clause: a comparison operator flips us to value
    // completion. Scan outside quotes for = < > (and != / <= / >=).
    let bytes = partial_clause.as_bytes();
    let mut in_string = false;
    let mut op_at = None;
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            if b == b'\'' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'\'' => in_string = true,
            b'=' | b'<' | b'>' => {
                op_at = Some(i);
                break;
            }
            b'!' if bytes.get(i + 1) == Some(&b'=') => {
                op_at = Some(i);
                break;
            }
            _ => {}
        }
    }

    let mode = match op_at {
        Some(at) => {
            let attr = partial_clause[..at].trim().to_owned();
            let mut rest = partial_clause[at..].trim_start_matches(['=', '<', '>', '!']).trim();
            rest = rest.strip_prefix('\'').unwrap_or(rest);
            let rest = rest.strip_suffix('\'').unwrap_or(rest);
            CompletionMode::Value {
                attr,
                partial: rest.to_owned(),
            }
        }
        None => CompletionMode::Attribute {
            partial: partial_clause.to_owned(),
        },
    };

    PrefixAnalysis {
        table,
        context,
        mode,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbex_table::{DataType, Field, TableBuilder, Value};

    fn sample_table() -> dbex_table::Table {
        let mut b = TableBuilder::new(vec![
            Field::new("make", DataType::Categorical),
            Field::new("body", DataType::Categorical),
            Field::new("price", DataType::Float),
        ])
        .unwrap();
        let rows = [
            ("ford", "suv", 30.0),
            ("ford", "suv", 32.0),
            ("ford", "sedan", 22.0),
            ("jeep", "suv", 35.0),
            ("jeep", "suv", 37.0),
            ("kia", "sedan", 18.0),
            ("kia", "sedan", 19.0),
            ("kia", "hatch", 15.0),
        ];
        for (m, body, p) in rows {
            b.push_row(vec![
                Value::Str(m.into()),
                Value::Str(body.into()),
                Value::Float(p),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn next_ranks_correlated_attribute_first() {
        let t = sample_table();
        let view = View::all(&t);
        let report = suggest_next(&view, 0, &SuggestConfig::default(), None).unwrap();
        assert_eq!(report.pivot_name, "make");
        assert!(!report.suggestions.is_empty());
        // body and price both correlate with make; all scores in [0,1].
        for s in &report.suggestions {
            assert!((0.0..=1.0).contains(&s.score), "score {}", s.score);
            assert_ne!(s.attr, 0, "pivot must not suggest itself");
        }
    }

    #[test]
    fn next_drops_constant_attributes() {
        let t = sample_table();
        let view = View::all(&t);
        // Refine to make = kia: body still varies (sedan/hatch) but a
        // further refinement to body = hatch leaves everything constant.
        let refined = view
            .refine(&dbex_table::Predicate::eq("body", "hatch"))
            .unwrap();
        let report = suggest_next(&refined, 0, &SuggestConfig::default(), None).unwrap();
        assert!(
            report.suggestions.iter().all(|s| s.name != "body"),
            "constant attribute must be eliminated: {:?}",
            report.suggestions
        );
    }

    #[test]
    fn next_rejects_bad_pivot() {
        let t = sample_table();
        let view = View::all(&t);
        let err = suggest_next(&view, 99, &SuggestConfig::default(), None).unwrap_err();
        assert!(matches!(err, SuggestError::PivotOutOfRange { .. }));
    }

    #[test]
    fn attribute_completion_prefix_filters() {
        let t = sample_table();
        let view = View::all(&t);
        let items = complete_attribute(&view, "b", &SuggestConfig::default(), None);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].text, "body");
        let all = complete_attribute(&view, "", &SuggestConfig::default(), None);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn value_completion_ranks_by_frequency() {
        let t = sample_table();
        let view = View::all(&t);
        let items = complete_value(&view, "make", "", &SuggestConfig::default(), None).unwrap();
        // ford and kia tie at 3 rows; first-appearance code order breaks it.
        assert_eq!(items[0].text, "ford");
        assert_eq!(items[1].text, "kia");
        assert!((items[0].score - 3.0 / 8.0).abs() < 1e-12);
        let f = complete_value(&view, "make", "f", &SuggestConfig::default(), None).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].text, "ford");
        assert!(complete_value(&view, "nope", "", &SuggestConfig::default(), None).is_err());
    }

    #[test]
    fn prefix_analysis_modes() {
        let a = analyze_prefix("SELECT * FROM cars WHERE ma");
        assert_eq!(a.table.as_deref(), Some("cars"));
        assert_eq!(a.context, None);
        assert_eq!(
            a.mode,
            CompletionMode::Attribute {
                partial: "ma".into()
            }
        );

        let v = analyze_prefix("SELECT * FROM cars WHERE make = 'fo");
        assert_eq!(
            v.mode,
            CompletionMode::Value {
                attr: "make".into(),
                partial: "fo".into()
            }
        );

        let ctx = analyze_prefix("SELECT * FROM cars WHERE body = suv AND make =");
        assert_eq!(ctx.context.as_deref(), Some("body = suv"));
        assert_eq!(
            ctx.mode,
            CompletionMode::Value {
                attr: "make".into(),
                partial: String::new()
            }
        );

        let bare = analyze_prefix("SELECT * FROM cars ");
        assert_eq!(bare.table.as_deref(), Some("cars"));
        assert_eq!(
            bare.mode,
            CompletionMode::Attribute {
                partial: String::new()
            }
        );

        // Keywords inside string literals must not split clauses.
        let s = analyze_prefix("SELECT * FROM t WHERE a = 'x and y' AND b");
        assert_eq!(s.context.as_deref(), Some("a = 'x and y'"));
        assert_eq!(
            s.mode,
            CompletionMode::Attribute {
                partial: "b".into()
            }
        );
    }

    #[test]
    fn class_ctx_distinct_per_pivot() {
        assert_ne!(suggest_class_ctx(0), suggest_class_ctx(1));
    }

    #[test]
    fn prefix_analysis_survives_multibyte_input() {
        // The keyword scanner walks byte offsets; multi-byte chars that
        // straddle a keyword-length window must not panic the slicer.
        for prefix in [
            "ééééééé",
            "SELECT * FROM cafés WHERE é",
            "SELECT * FROM t WHERE é = 'ü' AND ö",
            "whère ánd frôm",
        ] {
            let _ = analyze_prefix(prefix);
        }
        let a = analyze_prefix("SELECT * FROM cafés WHERE dégustation = ");
        assert_eq!(
            a.mode,
            CompletionMode::Value {
                attr: "dégustation".into(),
                partial: String::new()
            }
        );
    }
}
