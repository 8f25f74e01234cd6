//! # rsp-core — Resource Sharing and Pipelining, the paper's contribution
//!
//! Executable form of §3–§4 of *"Resource Sharing and Pipelining in
//! Coarse-Grained Reconfigurable Architecture for Domain-Specific
//! Optimization"* (Kim et al., DATE 2005):
//!
//! * [`rearrange()`] — transforms initial configuration contexts into RSP
//!   contexts under the paper's two rules: shared resources granted in
//!   loop-iteration order (RS stalls on shortage), and multi-cycle
//!   pipelined operations with overlap between consecutive issues (RP).
//!   Schedules deeper than the per-PE configuration cache are split
//!   into cache-sized segments at legal cut points
//!   (`rsp_mapper::split_schedule`) and charged refill stalls
//!   ([`Rearranged::refill`]) instead of being rejected; the flow and
//!   [`estimate_stalls`] charge the same penalty
//!   ([`refill_stall_estimate`]), admissibly, so the estimate stays a
//!   lower bound.
//! * [`estimate_stalls`] — the cheap slack-aware **admissible** estimate
//!   the exploration stage uses instead of exact remapping: it never
//!   exceeds the exact rearranged elapsed cycles (property-tested), so
//!   cutting candidates on it never changes the result.
//! * [`explore()`] — enumerates RSP parameters (`shr`, `shc`, stages,
//!   resource kinds), applies the eq. (2) cost bound, keeps Pareto points,
//!   selects an optimum. The engine behind it ([`explore_with`]) settles
//!   each candidate on its own: it cuts candidates whose estimate,
//!   times the stage-structure clock floor, already violates the
//!   slowdown constraint before synthesizing their delay, streams
//!   feasible points through a [`ParetoFrontier`] whose emission is
//!   bit-identical to the reference batch sweep, and reports candidates
//!   seen, pruned and clock-cut in [`Exploration::stats`]
//!   ([`PruneStats`]).
//! * [`run_flow`] — the whole Fig. 7 flow: profiling → critical loops →
//!   base architecture (the smallest candidate geometry that fits) →
//!   pipeline mapping → RSP exploration → RSP mapping with exact
//!   performance, where the exact stage rearranges every estimation
//!   Pareto candidate and selects on exact times. Per-stage work
//!   counters surface in [`FlowStats`].
//!
//! # Anytime operation
//!
//! Every sweep accepts an [`ExploreControl`] (deadline, candidate
//! budget, external cancel) and stops cooperatively at candidate
//! boundaries, returning a best-so-far result tagged
//! [`Completeness`]; truncated explorations checkpoint
//! ([`Exploration::checkpoint`]) and resume ([`explore_resume`]) to the
//! bit-identical complete result, and a panicking candidate is isolated
//! and counted ([`PruneStats::faulted`]) instead of aborting the sweep.
//! See [`control`] for the semantics and the truncation-soundness
//! argument.
//!
//! # Examples
//!
//! ```
//! use rsp_arch::presets;
//! use rsp_core::{evaluate_perf, rearrange};
//! use rsp_kernel::suite;
//! use rsp_mapper::{map, MapOptions};
//! use rsp_synth::DelayModel;
//!
//! // Map the 2D-FDCT once, then compare one multiplier per row (RS#1,
//! // which Table 5 shows stalling heavily) against the generous RSP#4.
//! let base = presets::base_8x8();
//! let ctx = map(base.base(), &suite::fdct(), &MapOptions::default())?;
//!
//! let rs1 = rearrange(&ctx, &presets::rs1(), &Default::default())?;
//! let rsp4 = rearrange(&ctx, &presets::rsp4(), &Default::default())?;
//! assert!(rs1.rs_stalls > 0);
//! assert_eq!(rsp4.rs_stalls, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod control;
mod error;
mod estimate;
mod explore;
mod flow;
mod frontier;
mod perf;
mod power;
mod rearrange;
mod session;
mod utilization;

pub use control::{Completeness, ExploreControl, TruncationReason};
pub use error::RspError;
pub use estimate::{estimate_stalls, refill_stall_estimate, ContextProfile, StallEstimate};
pub use explore::{
    explore, explore_reference, explore_reference_with, explore_resume, explore_with, Constraints,
    DesignPoint, DesignSpace, Exploration, ExploreCheckpoint, ExploreOptions, Objective,
    ProfileCache, PruneStats,
};
pub use flow::{run_flow, AppProfile, CriticalLoop, FlowConfig, FlowReport, FlowStats};
pub use frontier::ParetoFrontier;
pub use perf::{evaluate_perf, perf_from_rearranged, perf_from_rearranged_with, KernelPerf};
pub use power::{activity_of, evaluate_energy};
pub use rearrange::{rearrange, RearrangeOptions, Rearranged};
pub use session::{Session, SessionBuilder, SessionStats};
pub use utilization::{utilization_of, FuUtilization, UtilizationReport};

/// The observability facade option structs carry their recorder from
/// ([`ExploreOptions::recorder`], [`FlowConfig::recorder`]) — re-exported
/// so engine callers need no separate `rsp_obs` dependency.
pub use rsp_obs as obs;
