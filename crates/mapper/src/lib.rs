//! # rsp-mapper — loop-pipelining mapper for the RSP CGRA template
//!
//! Rebuilds the mapping layer the paper takes from refs. \[7\]/\[8\]
//! (Lee/Choi/Dutt): kernels become *configuration contexts* — per-PE,
//! per-cycle operation assignments — under loop-pipelined execution.
//!
//! Two placement policies cover the paper's kernel suite:
//!
//! * [`MappingStyle::Lockstep`](rsp_kernel::MappingStyle) — one element per
//!   PE, columns staggered by one cycle: reproduces Fig. 2 cycle-for-cycle
//!   on the matrix-multiplication kernel.
//! * [`MappingStyle::Dataflow`](rsp_kernel::MappingStyle) — one element per
//!   row, modulo-scheduled over the row's PEs: used by the
//!   multiplication-dense kernels that exhibit RS stalls in Tables 4/5.
//!
//! The output [`ConfigContext`] carries resolved operands, concrete memory
//! addresses and the dependence graph, ready for RSP rearrangement
//! (`rsp-core`) and cycle-accurate simulation (`rsp-sim`).
//!
//! # Configuration-cache refill
//!
//! Schedules deeper than the per-PE configuration cache are no longer a
//! feasibility cliff: [`split_schedule`] partitions any schedule into
//! cache-sized segments at legal cut points (no operation in flight — and
//! therefore no bus transfer or shared-resource binding — across a cut)
//! and returns a [`RefillPlan`] with the per-PE reload cost of every
//! segment, derived from the [`ConfigImage`] encoding: a segment of `d`
//! contexts occupies `d × 8` bytes per PE and reloads at 8 bytes per PE
//! per stall cycle, so its refill stalls the array `d` cycles. The first
//! segment's load is the initial configuration load the unsplit model
//! already assumes, so only later segments charge stalls. See the
//! [`refill`](split_schedule) module docs for the full model.
//!
//! # Examples
//!
//! ```
//! use rsp_arch::presets;
//! use rsp_kernel::suite;
//! use rsp_mapper::{map, MapOptions};
//!
//! let base = presets::fig1_4x4();
//! let ctx = map(base.base(), &suite::matmul(4), &MapOptions::default())?;
//! // Fig. 2: two columns multiply simultaneously at the peak.
//! assert_eq!(ctx.mult_profile().max_per_cycle, 8);
//! # Ok::<(), rsp_mapper::MapError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod build;
mod context;
mod dataflow;
mod encode;
mod error;
mod lockstep;
mod mapper;
mod refill;
mod validate;

pub use context::{ConfigContext, DemandProfile, InstanceId, MemAccess, OpInstance, SrcOperand};
pub use encode::{encode_context, ConfigImage, ConfigWord, EncodeError};
pub use error::{MapError, ScheduleViolation};
pub use mapper::{map, MapOptions};
pub use refill::{
    encode_segments, min_splittable_depth, refill_cycles_for_depth, split_schedule, RefillPlan,
    RefillSegment, SplitError, CONFIG_WORD_BYTES, REFILL_BYTES_PER_CYCLE,
};
pub use validate::{check_buses, validate_base_schedule, validate_schedule};
