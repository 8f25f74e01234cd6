//! Configuration-cache refill: splitting oversized schedules into
//! cache-sized segments.
//!
//! The paper's flow assumes every kernel's context stream fits the per-PE
//! configuration cache, which turns cache capacity into a feasibility
//! cliff: one context too many and the whole design point is rejected.
//! Related CGRA work (Cascade's end-to-end application pipelining
//! overheads; Kong et al.'s context-switch reload of PE configuration
//! state) instead treats configuration movement as a *cost*. This module
//! follows that lead:
//!
//! * [`split_schedule`] partitions a schedule into segments of at most
//!   `cache_depth` cycles, cutting only at **legal cut points** — cycle
//!   boundaries no operation is in flight across. An operation issued in
//!   one segment always retires (and its bus transfer completes) before
//!   the cut, so the array can stop, reload every PE's configuration
//!   cache, and resume: PE registers and memory persist, and the
//!   resumed segment observes exactly the state the unsplit schedule
//!   would have produced. A multi-cycle (pipelined shared-resource)
//!   operation therefore also never holds a shared-resource binding
//!   across a cut.
//! * [`RefillPlan`] records the segment boundaries plus the per-PE
//!   reload cost of each segment. The cost is derived from the
//!   [`ConfigImage`] encoding: a segment of `d`
//!   cycles occupies `d ×` [`CONFIG_WORD_BYTES`] bytes in every PE's
//!   cache, and the configuration bus delivers
//!   [`REFILL_BYTES_PER_CYCLE`] bytes per PE per stall cycle (all PE
//!   caches refill in parallel, each from its own cache port), so a
//!   refill stalls the array for `ceil(d × 8 / 8) = d` cycles.
//!   Segment 0 is the initial configuration load the unsplit model
//!   already assumes free, so only segments `1..` charge refill stalls.
//!
//! [`RefillPlan::stalled_schedule`] converts a compact (gap-free)
//! schedule into the executed timeline with the refill stalls
//! materialized as idle windows, which is what `rsp-sim` simulates.

use crate::context::ConfigContext;
use crate::encode::{encode_context, ConfigImage, ConfigWord, EncodeError};
use rsp_arch::SharedResourceId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Bytes of one configuration word (the [`crate::ConfigWord`] encoding).
pub const CONFIG_WORD_BYTES: usize = std::mem::size_of::<ConfigWord>();

/// Configuration-bus bandwidth per PE: bytes written into one PE's cache
/// per refill-stall cycle. One 64-bit context word per cycle — the same
/// width the cache's read port feeds the PE with during execution.
pub const REFILL_BYTES_PER_CYCLE: usize = 8;

/// Refill-stall cycles needed to load `depth` context words into every
/// PE's cache (loads proceed in parallel across PEs).
pub fn refill_cycles_for_depth(depth: u32) -> u32 {
    ((depth as usize * CONFIG_WORD_BYTES).div_ceil(REFILL_BYTES_PER_CYCLE)) as u32
}

/// One cache-sized segment of a split schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefillSegment {
    /// First schedule cycle of the segment (inclusive, compact timeline).
    pub start_cycle: u32,
    /// One past the last schedule cycle (exclusive, compact timeline).
    pub end_cycle: u32,
    /// Stall cycles charged to reload this segment's contexts before it
    /// executes (0 for segment 0 — the initial configuration load).
    pub refill_cycles: u32,
}

impl RefillSegment {
    /// Context words per PE this segment occupies.
    pub fn depth(&self) -> u32 {
        self.end_cycle - self.start_cycle
    }

    /// Bytes of this segment's context stream in one PE's cache.
    pub fn per_pe_bytes(&self) -> usize {
        self.depth() as usize * CONFIG_WORD_BYTES
    }
}

/// How a schedule maps onto the per-PE configuration caches: the ordered
/// cache-sized segments plus each segment's reload cost. Produced by
/// [`split_schedule`]; a schedule that fits the cache yields a
/// single-segment plan with zero refill stalls, so every schedule —
/// split or not — carries a plan and downstream passes need no special
/// cases.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefillPlan {
    cache_depth: u32,
    segments: Vec<RefillSegment>,
}

impl RefillPlan {
    /// A plan for a schedule that fits the cache: one segment, no refill
    /// (the empty schedule gets an empty plan).
    pub fn single(total_cycles: u32, cache_depth: u32) -> Self {
        debug_assert!(total_cycles <= cache_depth);
        let segments = if total_cycles == 0 {
            Vec::new()
        } else {
            vec![RefillSegment {
                start_cycle: 0,
                end_cycle: total_cycles,
                refill_cycles: 0,
            }]
        };
        Self {
            cache_depth,
            segments,
        }
    }

    /// The cache depth the plan was split for.
    pub fn cache_depth(&self) -> u32 {
        self.cache_depth
    }

    /// The segments, schedule order.
    pub fn segments(&self) -> &[RefillSegment] {
        &self.segments
    }

    /// Whether the schedule was actually split (more than one segment).
    pub fn is_split(&self) -> bool {
        self.segments.len() > 1
    }

    /// Refill events: segments that charge a reload stall (all but the
    /// first).
    pub fn refill_count(&self) -> usize {
        self.segments.len().saturating_sub(1)
    }

    /// Total refill-stall cycles across all segments.
    pub fn total_refill_cycles(&self) -> u32 {
        self.segments.iter().map(|s| s.refill_cycles).sum()
    }

    /// Bytes reloaded into one PE's cache beyond the initial load.
    pub fn per_pe_refill_bytes(&self) -> usize {
        self.segments
            .iter()
            .skip(1)
            .map(RefillSegment::per_pe_bytes)
            .sum()
    }

    /// Maps a compact schedule cycle to its executed cycle: every
    /// segment is delayed by the cumulative refill stalls of itself and
    /// all earlier segments.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` lies beyond the planned schedule.
    pub fn stalled_cycle(&self, cycle: u32) -> u32 {
        let mut shift = 0u32;
        for s in &self.segments {
            shift += s.refill_cycles;
            if cycle < s.end_cycle {
                return cycle + shift;
            }
        }
        panic!("cycle {cycle} beyond the planned schedule");
    }

    /// The executed timeline of a compact schedule: refill stalls become
    /// idle windows between segments.
    pub fn stalled_schedule(&self, schedule: &[u32]) -> Vec<u32> {
        schedule.iter().map(|&c| self.stalled_cycle(c)).collect()
    }

    /// The refill-stall windows in the executed timeline, as
    /// `(first_stall_cycle, stall_cycles)` pairs — the cycles the array
    /// sits idle while the caches reload.
    pub fn stall_windows(&self) -> Vec<(u32, u32)> {
        let mut windows = Vec::new();
        let mut shift = 0u32;
        for s in &self.segments {
            if s.refill_cycles > 0 {
                windows.push((s.start_cycle + shift, s.refill_cycles));
            }
            shift += s.refill_cycles;
        }
        windows
    }

    /// Total executed cycles: the compact schedule length plus every
    /// refill stall.
    pub fn elapsed_cycles(&self) -> u32 {
        self.segments
            .last()
            .map_or(0, |s| s.end_cycle + self.total_refill_cycles())
    }
}

impl fmt::Display for RefillPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} segment(s), {} refill cycle(s), cache depth {}",
            self.segments.len(),
            self.total_refill_cycles(),
            self.cache_depth
        )
    }
}

/// Why a schedule could not be split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SplitError {
    /// No legal cut point exists within one cache window: some operation
    /// is in flight across every candidate boundary, so no prefix of at
    /// most `cache_depth` cycles can retire completely before a reload.
    NoLegalCut {
        /// First cycle of the segment that could not be closed.
        start_cycle: u32,
        /// The cache depth that bounded the window.
        cache_depth: u32,
    },
    /// The schedule slice is not parallel to the context's instances.
    ShapeMismatch,
}

impl fmt::Display for SplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitError::NoLegalCut {
                start_cycle,
                cache_depth,
            } => write!(
                f,
                "no legal cut point within {cache_depth} cycles of cycle {start_cycle} \
                 (an operation is in flight across every boundary)"
            ),
            SplitError::ShapeMismatch => write!(f, "schedule not parallel to context"),
        }
    }
}

impl std::error::Error for SplitError {}

/// Splits `schedule` into cache-sized segments at legal cut points.
///
/// A boundary `t` (between cycles `t-1` and `t`) is **legal** when no
/// instance issued before `t` is still executing at `t`
/// (`schedule[i] < t < schedule[i] + latency(i)` for no `i`): nothing is
/// mid-pipeline, no bus transfer is outstanding, and no shared-resource
/// binding spans the cut. The splitter is greedy: each segment extends to
/// the **latest** legal boundary within `cache_depth` cycles of its
/// start, which maximizes segment 0 (whose load is free) and minimizes
/// the segment count.
///
/// `latency(i)` is the cycles instance `i` occupies its unit (pass
/// `arch.op_latency(...)` for a rearranged schedule, or `|_| 1` for a
/// base schedule).
///
/// # Errors
///
/// * [`SplitError::ShapeMismatch`] — `schedule` not parallel to `ctx`.
/// * [`SplitError::NoLegalCut`] — some window of `cache_depth` cycles
///   contains no legal boundary (only possible when pipeline latencies
///   tile an entire window, never for unit-latency schedules).
///
/// # Examples
///
/// ```
/// use rsp_arch::presets;
/// use rsp_kernel::suite;
/// use rsp_mapper::{map, split_schedule, MapOptions};
///
/// let base = presets::base_8x8();
/// let ctx = map(base.base(), &suite::sad(), &MapOptions::default())?;
/// // Forced through an artificially small cache: every boundary of the
/// // unit-latency base schedule is legal, so segments pack exactly.
/// let plan = split_schedule(&ctx, ctx.cycles(), |_| 1, 16)?;
/// assert!(plan.is_split());
/// assert!(plan.segments().iter().all(|s| s.depth() <= 16));
/// assert_eq!(plan.elapsed_cycles(),
///            ctx.total_cycles() + plan.total_refill_cycles());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn split_schedule(
    ctx: &ConfigContext,
    schedule: &[u32],
    latency: impl Fn(usize) -> u32,
    cache_depth: u32,
) -> Result<RefillPlan, SplitError> {
    if schedule.len() != ctx.instances().len() {
        return Err(SplitError::ShapeMismatch);
    }
    assert!(cache_depth > 0, "cache depth must be positive");
    let total = schedule.iter().map(|&c| c + 1).max().unwrap_or(0);
    if total <= cache_depth {
        return Ok(RefillPlan::single(total, cache_depth));
    }

    let busy = busy_boundaries(schedule, latency, total);
    let mut segments = Vec::new();
    let mut start = 0u32;
    while start < total {
        let window_end = (start + cache_depth).min(total);
        let cut = (start + 1..=window_end).rev().find(|&t| !busy[t as usize]);
        let Some(cut) = cut else {
            return Err(SplitError::NoLegalCut {
                start_cycle: start,
                cache_depth,
            });
        };
        let depth = cut - start;
        segments.push(RefillSegment {
            start_cycle: start,
            end_cycle: cut,
            refill_cycles: if start == 0 {
                0
            } else {
                refill_cycles_for_depth(depth)
            },
        });
        start = cut;
    }
    Ok(RefillPlan {
        cache_depth,
        segments,
    })
}

/// `busy[t]` = some instance is in flight across boundary `t`
/// (issued `< t`, retires `> t`). Boundaries `0` and `total` are always
/// legal.
fn busy_boundaries(schedule: &[u32], latency: impl Fn(usize) -> u32, total: u32) -> Vec<bool> {
    let mut busy = vec![false; total as usize + 1];
    for (i, &c) in schedule.iter().enumerate() {
        let lat = latency(i).max(1);
        for t in c + 1..(c + lat).min(total) {
            busy[t as usize] = true;
        }
    }
    busy
}

/// The smallest cache depth [`split_schedule`] can split this schedule
/// for: the largest distance between consecutive legal cut boundaries.
/// Any `cache_depth ≥` this value succeeds; any smaller depth hits
/// [`SplitError::NoLegalCut`] in the widest boundary gap. For
/// unit-latency schedules every boundary is legal and the result is 1;
/// a schedule whose pipelined operations tile every interior boundary
/// returns its full length (splitting is impossible below that).
///
/// # Errors
///
/// [`SplitError::ShapeMismatch`] when `schedule` is not parallel to
/// `ctx`.
pub fn min_splittable_depth(
    ctx: &ConfigContext,
    schedule: &[u32],
    latency: impl Fn(usize) -> u32,
) -> Result<u32, SplitError> {
    if schedule.len() != ctx.instances().len() {
        return Err(SplitError::ShapeMismatch);
    }
    let total = schedule.iter().map(|&c| c + 1).max().unwrap_or(0);
    if total == 0 {
        return Ok(1);
    }
    let busy = busy_boundaries(schedule, latency, total);
    let mut max_gap = 0u32;
    let mut last = 0u32;
    for t in 1..=total {
        if !busy[t as usize] {
            max_gap = max_gap.max(t - last);
            last = t;
        }
    }
    Ok(max_gap.max(1))
}

/// Encodes each segment of a split schedule as its own per-PE
/// [`ConfigImage`] — the byte streams a refill actually loads. Segment
/// cycles are rebased to the segment start, so each image's depth equals
/// the segment's depth and a single-segment plan reproduces the unsplit
/// [`encode_context`] image byte for byte.
///
/// # Errors
///
/// Propagates [`EncodeError`] field-width violations from the encoder.
pub fn encode_segments(
    ctx: &ConfigContext,
    schedule: &[u32],
    bindings: &[Option<SharedResourceId>],
    arch: &rsp_arch::RspArchitecture,
    plan: &RefillPlan,
) -> Result<Vec<ConfigImage>, EncodeError> {
    if schedule.len() != ctx.instances().len() || bindings.len() != ctx.instances().len() {
        return Err(EncodeError::ShapeMismatch);
    }
    let mut images = Vec::with_capacity(plan.segments().len());
    for seg in plan.segments() {
        let mut seg_cycles = Vec::new();
        let mut seg_bindings = Vec::new();
        let mut keep: Vec<u32> = Vec::new();
        for (i, &c) in schedule.iter().enumerate() {
            if c >= seg.start_cycle && c < seg.end_cycle {
                seg_cycles.push(c - seg.start_cycle);
                seg_bindings.push(bindings[i]);
                keep.push(i as u32);
            }
        }
        // Rebuild a context view holding only this segment's instances?
        // Not needed: encode directly from the kept instances by reusing
        // the full context with a masked schedule would misplace words,
        // so encode via a dense buffer matching encode_context's layout.
        images.push(encode_segment(
            ctx,
            &keep,
            &seg_cycles,
            &seg_bindings,
            arch,
            seg.depth() as usize,
        )?);
    }
    Ok(images)
}

/// Encodes the instances named by `keep` (with segment-relative cycles)
/// into one image of `depth` contexts per PE, by delegating to
/// [`encode_context`] over a schedule that parks every other instance in
/// its own original slot of a scratch copy. To avoid duplicating the
/// word-encoding logic, this builds a full-length schedule where
/// non-segment instances are temporarily assigned distinct cycles beyond
/// `depth` and the resulting image is truncated back to `depth`.
fn encode_segment(
    ctx: &ConfigContext,
    keep: &[u32],
    seg_cycles: &[u32],
    seg_bindings: &[Option<SharedResourceId>],
    arch: &rsp_arch::RspArchitecture,
    depth: usize,
) -> Result<ConfigImage, EncodeError> {
    // Full-length scratch schedule: segment instances at their rebased
    // cycles, everything else pushed past the segment so the words land
    // outside the truncated window. Parking cycles must not collide on a
    // (PE, cycle) slot; reusing each instance's original cycle offset
    // past the window preserves the no-collision property of the source
    // schedule.
    let n = ctx.instances().len();
    let mut scratch = vec![0u32; n];
    let mut bindings = vec![None; n];
    let park_base = depth as u32;
    for (i, inst) in ctx.instances().iter().enumerate() {
        scratch[i] = park_base + ctx.cycle_of(inst.id);
    }
    for ((&i, &c), &b) in keep.iter().zip(seg_cycles).zip(seg_bindings) {
        scratch[i as usize] = c;
        bindings[i as usize] = b;
    }
    let full = encode_context(ctx, &scratch, &bindings, arch)?;
    Ok(full.truncated(depth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{map, MapOptions};
    use rsp_arch::presets;
    use rsp_kernel::suite;

    fn ctx_for(kernel: &rsp_kernel::Kernel) -> ConfigContext {
        map(presets::base_8x8().base(), kernel, &MapOptions::default()).unwrap()
    }

    #[test]
    fn fitting_schedule_is_single_segment() {
        let ctx = ctx_for(&suite::mvm());
        let plan = split_schedule(&ctx, ctx.cycles(), |_| 1, 256).unwrap();
        assert!(!plan.is_split());
        assert_eq!(plan.refill_count(), 0);
        assert_eq!(plan.total_refill_cycles(), 0);
        assert_eq!(plan.elapsed_cycles(), ctx.total_cycles());
        assert_eq!(plan.stalled_schedule(ctx.cycles()), ctx.cycles());
    }

    #[test]
    fn split_segments_cover_schedule_and_respect_depth() {
        let ctx = ctx_for(&suite::sad());
        let depth = 8u32;
        let plan = split_schedule(&ctx, ctx.cycles(), |_| 1, depth).unwrap();
        assert!(plan.is_split());
        let segs = plan.segments();
        assert_eq!(segs[0].start_cycle, 0);
        assert_eq!(segs.last().unwrap().end_cycle, ctx.total_cycles());
        for w in segs.windows(2) {
            assert_eq!(w[0].end_cycle, w[1].start_cycle, "contiguous");
        }
        for (k, s) in segs.iter().enumerate() {
            assert!(s.depth() >= 1 && s.depth() <= depth);
            if k == 0 {
                assert_eq!(s.refill_cycles, 0, "initial load is free");
            } else {
                assert_eq!(s.refill_cycles, refill_cycles_for_depth(s.depth()));
            }
        }
    }

    #[test]
    fn refill_cost_derives_from_config_image_bytes() {
        // depth words x 8 bytes / 8 bytes-per-cycle = depth cycles.
        assert_eq!(refill_cycles_for_depth(17), 17);
        let seg = RefillSegment {
            start_cycle: 0,
            end_cycle: 10,
            refill_cycles: 0,
        };
        assert_eq!(seg.per_pe_bytes(), 10 * CONFIG_WORD_BYTES);
    }

    #[test]
    fn stalled_schedule_shifts_segments_by_cumulative_refill() {
        let ctx = ctx_for(&suite::sad());
        let plan = split_schedule(&ctx, ctx.cycles(), |_| 1, 16).unwrap();
        let stalled = plan.stalled_schedule(ctx.cycles());
        // Order-preserving and non-compressing.
        for (i, (&a, &b)) in ctx.cycles().iter().zip(&stalled).enumerate() {
            assert!(b >= a, "instance {i}");
        }
        let max = stalled.iter().map(|&c| c + 1).max().unwrap();
        assert_eq!(max, plan.elapsed_cycles());
        // Stall windows tile exactly the added cycles.
        let total: u32 = plan.stall_windows().iter().map(|&(_, l)| l).sum();
        assert_eq!(total, plan.total_refill_cycles());
    }

    #[test]
    fn cuts_never_cross_in_flight_operations() {
        // Give every instance a 3-cycle latency: boundaries inside any
        // op's flight window must be rejected as cut points.
        let ctx = ctx_for(&suite::mvm());
        let plan = split_schedule(&ctx, ctx.cycles(), |_| 3, 16).unwrap();
        for s in plan.segments().iter().skip(1) {
            let t = s.start_cycle;
            for (i, &c) in ctx.cycles().iter().enumerate() {
                let lat = 3u32;
                assert!(
                    !(c < t && c + lat > t),
                    "instance {i} in flight across cut at {t}"
                );
            }
        }
    }

    #[test]
    fn unsplittable_window_reported() {
        // A dataflow kernel saturates early cycles; with latency longer
        // than the cache window every boundary is busy.
        let ctx = ctx_for(&suite::matmul(8));
        let err = split_schedule(&ctx, ctx.cycles(), |_| 8, 4).unwrap_err();
        assert!(matches!(err, SplitError::NoLegalCut { .. }));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let ctx = ctx_for(&suite::mvm());
        let err = split_schedule(&ctx, &[0, 1], |_| 1, 256).unwrap_err();
        assert_eq!(err, SplitError::ShapeMismatch);
    }

    #[test]
    fn single_segment_encoding_is_byte_identical_to_unsplit() {
        let arch = presets::base_8x8();
        let ctx = ctx_for(&suite::mvm());
        let bindings = vec![None; ctx.instances().len()];
        let plan = split_schedule(&ctx, ctx.cycles(), |_| 1, 256).unwrap();
        assert!(!plan.is_split());
        let whole = encode_context(&ctx, ctx.cycles(), &bindings, &arch).unwrap();
        let segs = encode_segments(&ctx, ctx.cycles(), &bindings, &arch, &plan).unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0], whole);
    }

    #[test]
    fn split_segment_words_match_unsplit_image() {
        // Every (PE, cycle) word of every segment equals the word at the
        // absolute cycle of the unsplit image — splitting reorders
        // nothing, it only repackages.
        let arch = presets::base_8x8();
        let ctx = ctx_for(&suite::sad());
        let bindings = vec![None; ctx.instances().len()];
        let plan = split_schedule(&ctx, ctx.cycles(), |_| 1, 16).unwrap();
        assert!(plan.is_split());
        let whole = encode_context(&ctx, ctx.cycles(), &bindings, &arch).unwrap();
        let segs = encode_segments(&ctx, ctx.cycles(), &bindings, &arch, &plan).unwrap();
        assert_eq!(segs.len(), plan.segments().len());
        let total_bytes: usize = segs.iter().map(ConfigImage::bytes).sum();
        assert_eq!(total_bytes, whole.bytes());
        for (seg, img) in plan.segments().iter().zip(&segs) {
            assert_eq!(img.depth() as u32, seg.depth());
            for pe in ctx.geometry().iter() {
                for c in 0..seg.depth() {
                    assert_eq!(
                        img.word(pe, c as usize),
                        whole.word(pe, (seg.start_cycle + c) as usize),
                        "{pe} cycle {c} of segment at {}",
                        seg.start_cycle
                    );
                }
            }
        }
    }
}
