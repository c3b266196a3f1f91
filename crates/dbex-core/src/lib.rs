//! # dbex-core
//!
//! The Conditional Attribute Dependency (CAD) View — the paper's primary
//! contribution (Sections 2-5).
//!
//! A CAD View summarizes a result set *in context*: the user picks a
//! **Pivot Attribute**; the system picks contrasting **Compare Attributes**
//! (chi-square feature selection); each pivot value's tuples are clustered
//! over the Compare Attributes into labeled **IUnits**; a diversified top-k
//! pass picks the `k` IUnits shown per row. Similarity search over the view
//! (Algorithms 1 and 2) supports finding similar IUnits and similar pivot
//! values.
//!
//! Modules:
//!
//! * [`iunit`] — IUnits and the cluster-labeling step (Section 3.1.2).
//! * [`simil`] — Algorithm 1 (IUnit pair similarity) and Algorithm 2
//!   (attribute-value pair similarity over ranked IUnit lists).
//! * [`builder`] — the end-to-end construction pipeline with per-stage
//!   timings (the quantities plotted in the paper's Figures 8-10).
//! * [`cad`] — the [`CadView`] structure, highlight / reorder operations,
//!   and the ASCII renderer that reproduces Table 1's layout.
//! * [`tpfacet`] — the two-phase faceted interface integrating the CAD
//!   View with faceted navigation (Section 5).
//! * [`error`] / [`budget`] — typed [`CadError`]s with intact `source()`
//!   chains, execution budgets, and the graceful-degradation records
//!   surfaced by `EXPLAIN CADVIEW`.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod budget;
pub mod builder;
pub mod cad;
pub mod diff;
pub mod error;
pub mod export;
pub mod iunit;
pub mod simil;
pub mod tpfacet;

pub use budget::{BudgetGauge, ClockSource, Degradation, DegradationKind, ExecBudget};
pub use builder::{
    build_cad_view, build_cad_view_cached, build_cad_view_streamed, build_cad_view_traced,
    CadConfig, CadRequest, CadTimings, Preference, PREVIEW_MIN_ROWS,
};
// Re-exported so clients can trace builds and inspect the resulting span
// trees without depending on dbex-obs directly.
pub use dbex_obs::{Trace, Tracer};
// Re-exported so clients one layer up (dbex-query) can hold a cache
// without depending on dbex-stats directly.
pub use dbex_stats::{CacheStats, StatsCache};
pub use cad::{CadRow, CadView};
pub use error::CadError;
pub use diff::{ContextDiff, IUnitChange, RowDiff};
pub use export::{to_csv as cad_to_csv, to_markdown as cad_to_markdown};
pub use iunit::{IUnit, LabelConfig};
pub use simil::{attribute_value_distance, iunit_similarity};
pub use tpfacet::{Panel, TpFacet};
