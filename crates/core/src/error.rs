//! Error type for the RSP core passes.

use crate::control::TruncationReason;
use rsp_mapper::ScheduleViolation;
use std::error::Error;
use std::fmt;

/// Errors raised by rearrangement, exploration, or the flow driver.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RspError {
    /// The rearrangement scheduler exceeded its safety bound — indicates an
    /// internal inconsistency (unschedulable resource graph).
    RearrangeDiverged {
        /// Cycle bound that was hit.
        bound: u32,
    },
    /// The context breaks an input rule of exact rearrangement:
    /// [`ScheduleViolation::DependenceViolated`] names a producer whose
    /// base cycle does not come before its consumer's, and
    /// [`ScheduleViolation::PeOutsideArray`] an instance outside the
    /// context's array. [`rsp_mapper::map`] never builds such a context;
    /// a deserialized or edited one can be.
    InvalidContext(ScheduleViolation),
    /// The design space produced no point satisfying the constraints.
    NoFeasibleDesign,
    /// A kernel failed to map onto the base architecture.
    Map(rsp_mapper::MapError),
    /// There is no executed work to weigh designs by. A flow's profiling
    /// selected no critical loop: the applications list no kernel, none
    /// of their kernels executes any operation, or the flow's coverage
    /// is not positive. Or an exploration got no kernels, or weights
    /// that leave its base execution time not positive (every weight 0).
    EmptyProfile,
    /// The rearranged schedule exceeds the configuration cache *and*
    /// cannot be split: some cache-sized window contains no legal cut
    /// point (an operation is in flight across every boundary). A
    /// schedule that merely exceeds the cache is not an error — it is
    /// split across refills ([`crate::Rearranged::refill`]).
    UnsplittableSchedule {
        /// First cycle of the segment that could not be closed.
        start_cycle: u32,
        /// The cache depth bounding the window.
        cache_depth: u32,
    },
    /// An [`ExploreCheckpoint`](crate::ExploreCheckpoint) cannot resume
    /// under the given inputs or options.
    CheckpointMismatch {
        /// What differed between the checkpoint and this call.
        what: String,
    },
    /// A run budget stopped the sweep before it produced any usable
    /// result (e.g. the flow's deadline passed before a base
    /// architecture was selected). Distinct from
    /// [`NoFeasibleDesign`](Self::NoFeasibleDesign): feasibility was
    /// never established either way.
    Interrupted {
        /// Which budget stopped the run.
        reason: TruncationReason,
    },
    /// A candidate's evaluation panicked and was isolated; reported only
    /// when no other candidate produced a usable result.
    CandidateFaulted {
        /// Name of the faulted candidate architecture.
        name: String,
    },
}

impl fmt::Display for RspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RspError::RearrangeDiverged { bound } => {
                write!(
                    f,
                    "rearrangement exceeded the safety bound of {bound} cycles"
                )
            }
            RspError::InvalidContext(v) => write!(f, "context cannot be rearranged: {v}"),
            RspError::NoFeasibleDesign => {
                write!(
                    f,
                    "no design point satisfies the cost/performance constraints"
                )
            }
            RspError::Map(e) => write!(f, "mapping failed: {e}"),
            RspError::EmptyProfile => write!(
                f,
                "no executed work to weigh designs by (profiling selected no critical loop, \
                 or the kernels' weighted base execution time is not positive)"
            ),
            RspError::UnsplittableSchedule {
                start_cycle,
                cache_depth,
            } => write!(
                f,
                "oversized schedule has no legal refill cut within {cache_depth} cycles \
                 of cycle {start_cycle}"
            ),
            RspError::CheckpointMismatch { what } => {
                write!(f, "checkpoint cannot resume here: {what}")
            }
            RspError::Interrupted { reason } => {
                write!(f, "run stopped ({reason:?}) before any usable result")
            }
            RspError::CandidateFaulted { name } => {
                write!(
                    f,
                    "candidate `{name}` panicked during evaluation and was isolated"
                )
            }
        }
    }
}

impl Error for RspError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RspError::Map(e) => Some(e),
            RspError::InvalidContext(v) => Some(v),
            _ => None,
        }
    }
}

impl From<rsp_mapper::MapError> for RspError {
    fn from(e: rsp_mapper::MapError) -> Self {
        RspError::Map(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_and_source() {
        let e = RspError::Map(rsp_mapper::MapError::IiSearchFailed { max_ii: 9 });
        assert!(e.to_string().contains("mapping failed"));
        assert!(e.source().is_some());
        assert!(!RspError::NoFeasibleDesign.to_string().is_empty());
    }
}
