//! Typed errors for the clustering layer.

use dbex_stats::StatsError;
use std::fmt;

/// An error from k-means / mini-batch clustering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// `k == 0` clusters requested.
    ZeroClusters,
    /// A mini-batch of zero points requested.
    ZeroBatchSize,
    /// A sparse point activates a dimension outside the feature space.
    DimensionOutOfRange {
        /// Index of the offending point.
        point: usize,
        /// The out-of-range dimension.
        dim: u32,
        /// Dimensionality of the space.
        space: usize,
    },
    /// A coded column stores a code outside its codec's cardinality.
    CodeOutOfRange {
        /// Attribute index of the column.
        attr: usize,
        /// The offending code.
        code: u32,
        /// The codec's cardinality.
        cardinality: usize,
    },
    /// A row position lies past the end of a coded column.
    PositionOutOfRange {
        /// Attribute index of the column.
        attr: usize,
        /// Rows the column holds.
        rows: usize,
    },
    /// `rows · attrs` exceeds the packed kernels' `u32` dot accumulator.
    TooManyCells {
        /// Rows to pack.
        rows: usize,
        /// Attributes per row.
        attrs: usize,
    },
    /// Discretization failed while preparing clustering inputs.
    Stats(StatsError),
    /// A deliberately injected fault (testing only; see [`crate::fault`]).
    FaultInjected {
        /// The site that was armed.
        site: &'static str,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::ZeroClusters => write!(f, "k must be at least 1"),
            ClusterError::ZeroBatchSize => write!(f, "mini-batch size must be at least 1"),
            ClusterError::DimensionOutOfRange { point, dim, space } => write!(
                f,
                "point {point} activates dimension {dim} outside the {space}-dimensional space"
            ),
            ClusterError::CodeOutOfRange {
                attr,
                code,
                cardinality,
            } => write!(
                f,
                "attribute {attr} stores code {code} outside its {cardinality}-value codec"
            ),
            ClusterError::PositionOutOfRange { attr, rows } => {
                write!(
                    f,
                    "a position lies past attribute {attr}'s {rows} coded rows"
                )
            }
            ClusterError::TooManyCells { rows, attrs } => write!(
                f,
                "{rows} rows × {attrs} attributes exceed the packed kernels' u32 bound"
            ),
            ClusterError::Stats(_) => write!(f, "discretization failed"),
            ClusterError::FaultInjected { site } => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StatsError> for ClusterError {
    fn from(e: StatsError) -> Self {
        ClusterError::Stats(e)
    }
}
