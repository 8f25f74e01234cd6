//! Error types for mapping and schedule validation.

use rsp_arch::{OpKind, PeId};
use std::error::Error;
use std::fmt;

/// Errors raised while mapping a kernel onto an array.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MapError {
    /// The base PE design cannot execute an operation the kernel needs.
    MissingUnit {
        /// The unsupported operation.
        op: OpKind,
    },
    /// The schedule needs more contexts than the per-PE configuration
    /// cache holds.
    ConfigCacheExceeded {
        /// Contexts required by the schedule.
        needed: u32,
        /// Cache capacity.
        available: u32,
    },
    /// The dataflow modulo scheduler found no feasible initiation interval
    /// within its search bound.
    IiSearchFailed {
        /// Last initiation interval tried.
        max_ii: u32,
    },
    /// A dataflow-style kernel violated the single-step/no-accumulator
    /// shape (should have been caught by kernel validation).
    BadDataflowKernel,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::MissingUnit { op } => {
                write!(f, "the PE design cannot execute `{op}`")
            }
            MapError::ConfigCacheExceeded { needed, available } => write!(
                f,
                "schedule needs {needed} contexts but the configuration cache holds {available}"
            ),
            MapError::IiSearchFailed { max_ii } => {
                write!(f, "no feasible initiation interval up to {max_ii}")
            }
            MapError::BadDataflowKernel => {
                write!(
                    f,
                    "dataflow mapping requires a single-step kernel without tail"
                )
            }
        }
    }
}

impl Error for MapError {}

/// First violation found when checking a schedule against base-architecture
/// legality rules.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleViolation {
    /// A consumer issues before its producer's result is ready.
    DependenceViolated {
        /// Producer instance index.
        producer: usize,
        /// Consumer instance index.
        consumer: usize,
        /// Producer's cycle.
        producer_cycle: u32,
        /// Consumer's cycle.
        consumer_cycle: u32,
    },
    /// An instance sits on a PE outside the context's array.
    PeOutsideArray {
        /// Instance index.
        instance: usize,
        /// The PE.
        pe: PeId,
    },
    /// Two instances share one PE in one cycle.
    PeConflict {
        /// The PE.
        pe: PeId,
        /// The cycle.
        cycle: u32,
    },
    /// Read- or write-bus words exceed a row's capacity in some cycle
    /// (only reported by the strict checker).
    BusOverflow {
        /// The row.
        row: usize,
        /// The cycle.
        cycle: u32,
        /// Words requested.
        words: usize,
        /// Bus capacity.
        capacity: usize,
    },
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleViolation::DependenceViolated {
                producer,
                consumer,
                producer_cycle,
                consumer_cycle,
            } => write!(
                f,
                "instance {consumer} at cycle {consumer_cycle} uses instance {producer} scheduled at cycle {producer_cycle}"
            ),
            ScheduleViolation::PeOutsideArray { instance, pe } => {
                write!(f, "instance {instance} sits on {pe}, outside the array")
            }
            ScheduleViolation::PeConflict { pe, cycle } => {
                write!(f, "two instances on {pe} in cycle {cycle}")
            }
            ScheduleViolation::BusOverflow {
                row,
                cycle,
                words,
                capacity,
            } => write!(
                f,
                "row {row} moves {words} bus words in cycle {cycle}, capacity {capacity}"
            ),
        }
    }
}

impl Error for ScheduleViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_nonempty() {
        let errs: [&dyn fmt::Display; 4] = [
            &MapError::MissingUnit { op: OpKind::Mult },
            &MapError::ConfigCacheExceeded {
                needed: 300,
                available: 256,
            },
            &MapError::IiSearchFailed { max_ii: 64 },
            &MapError::BadDataflowKernel,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
        let v = ScheduleViolation::PeConflict {
            pe: PeId::new(0, 0),
            cycle: 3,
        };
        assert!(v.to_string().contains("cycle 3"));
    }
}
