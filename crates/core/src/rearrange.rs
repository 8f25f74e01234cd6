//! RSP context rearrangement — the paper's §4 rules made executable.
//!
//! Given the *initial* configuration contexts (base schedule) and a target
//! RSP architecture, produce the *RSP configuration contexts*:
//!
//! 1. **Resource sharing (RS)** — shared resources are granted to
//!    operations **in loop-iteration order** each cycle; an operation that
//!    finds no free resource is moved to the next cycle, pushing its PE's
//!    later operations (and transitively, later iterations) back — an *RS
//!    stall*.
//! 2. **Resource pipelining (RP)** — operations on pipelined resources
//!    take `stages` cycles, so dependent operations stall with them; since
//!    a pipelined resource accepts a new issue every cycle, *consecutive*
//!    multiplications overlap in distinct stages and a chain of `k`
//!    multiplications costs `k + stages − 1` cycles, not `k × stages`
//!    (the paper's "overlapped cycles are removed" rule and the mechanism
//!    behind Fig. 6 needing four multipliers where Fig. 2 needs eight).
//!
//! The result is a resource-constrained list schedule over the instance
//! graph with three invariants: no instance issues before its base-schedule
//! cycle (rearrangement only delays), each PE issues its instances in
//! base-schedule order (the configuration stream is a FIFO), and shared
//! resources accept one issue per cycle.
//!
//! # The engine
//!
//! Each call builds dense, index-addressed state in O(n + producers):
//! every instance's latency, PE and shared group; its *rank*, its
//! position in loop-iteration order `(element, step, node)`; and the PE
//! FIFOs as one CSR array, filled by a counting sort on base cycle in
//! rank order, so each FIFO lists its instances in `(base, rank)` order.
//! Two input rules are checked on the way, because a deserialized
//! [`ConfigContext`] need not keep them although [`rsp_mapper::map`]
//! always does:
//!
//! * every producer's base cycle comes before its consumer's — otherwise
//!   [`RspError::InvalidContext`] names the pair;
//! * instances are listed in rank order — otherwise they are sorted into
//!   it, which costs O(n log n) instead of O(n).
//!
//! **Pass 1** (RP only, unlimited shared resources) is one sweep in
//! `(base, rank)` order:
//!
//! `tᵢ = max(baseᵢ, max_pred(tₚ + latₚ), t_prevFIFO + 1)`.
//!
//! This is exactly the unlimited-resource list schedule. With no resource
//! limit every ready FIFO head issues at once, and a head that is ready
//! stays ready, so each instance issues in the first cycle that satisfies
//! all three terms. The sweep order is topological: producers have
//! earlier base cycles (the first input rule), and FIFO predecessors come
//! earlier in the order. It is the longest-path arrival-time pass of
//! static timing analysis. How far its makespan exceeds the base
//! schedule's is [`Rearranged::rp_overhead`].
//!
//! **Pass 2** (RS and RP) is the list scheduler proper. Each PE caches
//! its head's ready time. A head waiting on an unissued producer has no
//! ready time yet and is rechecked at the next visited cycle. When no
//! head is ready, `t` jumps straight to the earliest ready head. Local
//! operations issue as soon as they are ready. Ready shared operations
//! are sorted by rank and granted the first free resource their PE
//! reaches (row bank, then column bank): the §4 loop-iteration grant
//! order. Each shared resource keeps the cycle it last accepted an issue,
//! which replaces a per-cycle booking table because `t` only grows.
//!
//! Each pass reports one `rearrange/schedule` span to the process-global
//! recorder ([`rsp_obs::global`], read once per call: [`rearrange`]
//! takes no recorder): id 0 covers the set-up and the sweep, id 1 the
//! sharing pass. Every [`rearrange`] call records exactly two spans, so
//! redundant scheduling work shows up as a count.
//!
//! # Configuration-cache refill
//!
//! A rearranged schedule deeper than the per-PE configuration cache is
//! no longer rejected: it is split into cache-sized segments at legal
//! cut points ([`rsp_mapper::split_schedule`]) and the resulting
//! [`RefillPlan`] rides on the [`Rearranged`] output. Each segment after
//! the first charges a refill stall of one cycle per context word
//! (derived from the `ConfigImage` byte size; see the mapper's refill
//! module docs), so [`Rearranged::elapsed_cycles`] =
//! `total_cycles + refill_stalls`. The stalls are pure delay — the
//! compact schedule, bindings, and therefore memory effects are
//! untouched — which keeps `base_cycles` an admissible floor on the
//! elapsed cycles (`elapsed ≥ total ≥ base`), exactly the invariant the
//! flow's pruning cuts rest on.

use crate::error::RspError;
use rsp_arch::{FuKind, OpKind, RspArchitecture, SharedResourceId};
use rsp_mapper::{split_schedule, ConfigContext, RefillPlan, ScheduleViolation, SplitError};
use rsp_obs::Span;
use serde::{Deserialize, Serialize};

/// Rearrangement options. There are none left: row-bus bandwidth is
/// allocated at mapping time ([`rsp_mapper::MapOptions::strict_buses`]),
/// not by the scheduler.
///
/// The type stays only so that three-argument callers of [`rearrange`]
/// and [`crate::evaluate_perf`] keep compiling; the benchmark package
/// builds it. The next change to the benchmark removes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct RearrangeOptions {}

/// The rearranged (RSP) configuration contexts for one kernel on one
/// architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rearranged {
    /// New schedule, parallel to the context's instances.
    pub cycles: Vec<u32>,
    /// Shared-resource binding per instance (multiplications on RS/RSP
    /// architectures; `None` for local operations).
    pub bindings: Vec<Option<SharedResourceId>>,
    /// Total cycles of the rearranged schedule. Never less than
    /// `base_cycles`: the scheduler issues no instance before its
    /// base-schedule cycle, so rearrangement only *delays* — the
    /// monotonicity the estimator's admissibility proof rests on, and
    /// through it the exact-time floors that let [`crate::run_flow`]
    /// skip rearranging candidates that cannot win.
    pub total_cycles: u32,
    /// Total cycles of the base schedule.
    pub base_cycles: u32,
    /// Cycles added by multi-cycle (pipelined) operation latency alone —
    /// the RP contribution, measured with unlimited resources.
    pub rp_overhead: u32,
    /// Additional cycles lost to shared-resource shortage — the paper's
    /// "stall" column.
    pub rs_stalls: u32,
    /// How the schedule maps onto the per-PE configuration caches: one
    /// segment with zero refill when it fits, cache-sized segments with
    /// per-segment reload stalls when it does not (see the module docs).
    pub refill: RefillPlan,
}

impl Rearranged {
    /// Whether the architecture "supports the kernel without stall"
    /// (the paper's criterion for RSP#2 in §5.3).
    pub fn is_stall_free(&self) -> bool {
        self.rs_stalls == 0
    }

    /// Refill-stall cycles the split schedule spends reloading the
    /// configuration caches (0 when the schedule fits).
    pub fn refill_stalls(&self) -> u32 {
        self.refill.total_refill_cycles()
    }

    /// Cache refills the schedule performs (segments beyond the first).
    pub fn refill_count(&self) -> usize {
        self.refill.refill_count()
    }

    /// Wall-clock cycles including refill stalls: what the kernel's
    /// execution time is charged with.
    pub fn elapsed_cycles(&self) -> u32 {
        self.total_cycles + self.refill_stalls()
    }
}

/// Rearranges `ctx` for `arch` per the RS/RP/RSP rules.
///
/// For the base architecture this is the identity (the base schedule is
/// already legal); for RS it inserts sharing stalls; for RP it stretches
/// multi-cycle operations; for RSP it does both.
///
/// A schedule deeper than the configuration cache is split into
/// cache-sized segments and charged refill stalls instead of being
/// rejected (see the module docs); [`Rearranged::refill`] carries the
/// plan.
///
/// # Errors
///
/// * [`RspError::InvalidContext`] if an instance sits outside the
///   context's array, or a producer's base cycle does not come before
///   its consumer's (never for a context [`rsp_mapper::map`] built).
/// * [`RspError::RearrangeDiverged`] on internal inconsistency (never
///   expected for validated inputs).
/// * [`RspError::UnsplittableSchedule`] if the oversized schedule has no
///   legal cut point within some cache window (only possible when
///   pipeline latencies tile an entire window).
///
/// # Examples
///
/// ```
/// use rsp_arch::presets;
/// use rsp_core::rearrange;
/// use rsp_kernel::suite;
/// use rsp_mapper::{map, MapOptions};
///
/// let base = presets::base_8x8();
/// let ctx = map(base.base(), &suite::state(), &MapOptions::default())?;
///
/// // One multiplier per row starves the State kernel (Table 4: stalls),
/// // two pipelined multipliers per row run it stall-free (RSP#2).
/// let rs1 = rearrange(&ctx, &presets::rs1(), &Default::default())?;
/// let rsp2 = rearrange(&ctx, &presets::rsp2(), &Default::default())?;
/// assert!(rs1.rs_stalls > 0);
/// assert!(rsp2.is_stall_free());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn rearrange(
    ctx: &ConfigContext,
    arch: &RspArchitecture,
    _opts: &RearrangeOptions,
) -> Result<Rearranged, RspError> {
    let obs = rsp_obs::global();
    let (engine, rp_total) = {
        let _span = Span::enter(&*obs, "rearrange", "schedule", 0);
        let engine = Engine::new(ctx, arch)?;
        let rp_total = engine.sweep()?;
        (engine, rp_total)
    };
    let (cycles, bindings) = {
        let _span = Span::enter(&*obs, "rearrange", "schedule", 1);
        engine.list_schedule()?
    };
    finish(ctx, arch, cycles, bindings, rp_total, |i| engine.lat[i])
}

/// Splits the sharing pass's schedule across the configuration cache and
/// assembles the result.
fn finish(
    ctx: &ConfigContext,
    arch: &RspArchitecture,
    cycles: Vec<u32>,
    bindings: Vec<Option<SharedResourceId>>,
    rp_total: u32,
    latency: impl Fn(usize) -> u32,
) -> Result<Rearranged, RspError> {
    let base_cycles = ctx.total_cycles();
    let total_cycles = cycles.iter().map(|&c| c + 1).max().unwrap_or(0);
    let available = arch.base().config_cache_depth() as u32;
    let refill = split_schedule(ctx, &cycles, latency, available).map_err(|e| match e {
        SplitError::NoLegalCut {
            start_cycle,
            cache_depth,
        } => RspError::UnsplittableSchedule {
            start_cycle,
            cache_depth,
        },
        other => unreachable!("schedule is parallel to the context: {other}"),
    })?;
    Ok(Rearranged {
        cycles,
        bindings,
        total_cycles,
        base_cycles,
        rp_overhead: rp_total.saturating_sub(base_cycles),
        rs_stalls: total_cycles.saturating_sub(rp_total),
        refill,
    })
}

/// Issue cycle of an instance that has not issued, and ready time of a
/// FIFO head still waiting on a producer.
const UNSET: u32 = u32::MAX;

/// Shared group of an instance that runs on a unit inside its PE.
const LOCAL: u32 = u32::MAX;

/// One shared group in the dense resource numbering, which follows
/// [`rsp_arch::SharingPlan::resources`]: per group, every row bank and
/// then every column bank.
struct Banks {
    kind: FuKind,
    per_row: usize,
    per_col: usize,
    /// Dense index of row 0's first resource.
    row_start: usize,
    /// Dense index of column 0's first resource.
    col_start: usize,
}

/// The dense per-call state both passes read (see the module docs).
struct Engine<'a> {
    ctx: &'a ConfigContext,
    /// Result latency of each instance on the architecture.
    lat: Vec<u32>,
    /// Row-major PE index of each instance.
    pe: Vec<u32>,
    /// Index into `banks` of each instance's shared group, or [`LOCAL`].
    group: Vec<u32>,
    banks: Vec<Banks>,
    /// Shared resources on the array.
    resources: usize,
    /// Position of each instance in `(element, step, node)` order.
    rank: Vec<u32>,
    /// Every instance in `(base, rank)` order.
    order: Vec<u32>,
    /// The PE FIFOs as one CSR array: PE `p` issues
    /// `fifo[fifo_start[p]..fifo_start[p + 1]]` in order.
    fifo_start: Vec<u32>,
    fifo: Vec<u32>,
    /// No instance may issue after this cycle.
    bound: u32,
}

/// A PE's FIFO head during pass 2.
struct Head {
    /// FIFO position of the head.
    pos: u32,
    /// First cycle the head may issue in: a PE issues once per cycle.
    free: u32,
    /// The head's ready time; [`UNSET`] until computed, and while it
    /// waits on a producer.
    ready: u32,
}

impl Head {
    /// Moves past the head, which issued in cycle `t`.
    fn pop(&mut self, t: u32) {
        self.pos += 1;
        self.free = t + 1;
        self.ready = UNSET;
    }
}

impl<'a> Engine<'a> {
    fn new(ctx: &'a ConfigContext, arch: &RspArchitecture) -> Result<Self, RspError> {
        let insts = ctx.instances();
        let n = insts.len();
        let base = &ctx.cycles()[..n];
        let geom = ctx.geometry();
        let bound = ctx.total_cycles() * 4 + 16 * n as u32 + 64;

        let mut banks = Vec::new();
        let mut resources = 0;
        for g in arch.plan().groups() {
            let row_start = resources;
            let col_start = row_start + geom.rows() * g.per_row();
            resources = col_start + geom.cols() * g.per_col();
            banks.push(Banks {
                kind: g.kind(),
                per_row: g.per_row(),
                per_col: g.per_col(),
                row_start,
                col_start,
            });
        }
        // Latency and group per operation kind, resolved once per call.
        let mut op_lat = [1; OpKind::ALL.len()];
        let mut op_group = [LOCAL; OpKind::ALL.len()];
        for op in OpKind::ALL {
            op_lat[op as usize] = u32::from(arch.op_latency(op));
            if let Some(g) = banks.iter().position(|b| Some(b.kind) == op.fu()) {
                op_group[op as usize] = g as u32;
            }
        }

        let mut lat = Vec::with_capacity(n);
        let mut pe = Vec::with_capacity(n);
        let mut group = Vec::with_capacity(n);
        let mut last_base = 0;
        for (i, inst) in insts.iter().enumerate() {
            if !geom.contains(inst.pe) {
                let v = ScheduleViolation::PeOutsideArray {
                    instance: i,
                    pe: inst.pe,
                };
                return Err(RspError::InvalidContext(v));
            }
            for p in &inst.preds {
                if base[p.index()] >= base[i] {
                    let v = ScheduleViolation::DependenceViolated {
                        producer: p.index(),
                        consumer: i,
                        producer_cycle: base[p.index()],
                        consumer_cycle: base[i],
                    };
                    return Err(RspError::InvalidContext(v));
                }
            }
            last_base = last_base.max(base[i]);
            lat.push(op_lat[inst.op as usize]);
            pe.push(geom.linear(inst.pe) as u32);
            group.push(op_group[inst.op as usize]);
        }
        if last_base > bound {
            // No instance issues before its base cycle, so this diverges;
            // failing here also bounds the counting sort's buckets.
            return Err(RspError::RearrangeDiverged { bound });
        }

        let key = |i: usize| (insts[i].element, insts[i].step, insts[i].node);
        let mut by_rank: Vec<u32> = (0..n as u32).collect();
        if !(1..n).all(|i| key(i - 1) < key(i)) {
            by_rank.sort_by_key(|&i| key(i as usize));
        }
        let mut rank = vec![0; n];
        for (r, &i) in by_rank.iter().enumerate() {
            rank[i as usize] = r as u32;
        }

        // Counting sort on base cycle, stable in rank order.
        let mut next = vec![0u32; last_base as usize + 2];
        for &b in base {
            next[b as usize + 1] += 1;
        }
        for b in 1..next.len() {
            next[b] += next[b - 1];
        }
        let mut order = vec![0; n];
        for &i in &by_rank {
            let slot = &mut next[base[i as usize] as usize];
            order[*slot as usize] = i;
            *slot += 1;
        }

        // Distributing that order over the PEs keeps it within each FIFO.
        let pes = geom.pe_count();
        let mut fifo_start = vec![0u32; pes + 1];
        for &p in &pe {
            fifo_start[p as usize + 1] += 1;
        }
        for p in 0..pes {
            fifo_start[p + 1] += fifo_start[p];
        }
        let mut fill = fifo_start[..pes].to_vec();
        let mut fifo = vec![0; n];
        for &i in &order {
            let slot = &mut fill[pe[i as usize] as usize];
            fifo[*slot as usize] = i;
            *slot += 1;
        }

        Ok(Self {
            ctx,
            lat,
            pe,
            group,
            banks,
            resources,
            rank,
            order,
            fifo_start,
            fifo,
            bound,
        })
    }

    fn pe_count(&self) -> usize {
        self.fifo_start.len() - 1
    }

    /// Pass 1: the makespan with unlimited shared resources.
    fn sweep(&self) -> Result<u32, RspError> {
        let insts = self.ctx.instances();
        let base = self.ctx.cycles();
        let mut issue = vec![0u32; insts.len()];
        // First cycle each PE's next FIFO entry may issue in.
        let mut free = vec![0u32; self.pe_count()];
        let mut total = 0;
        for &i in &self.order {
            let i = i as usize;
            let pe = self.pe[i] as usize;
            let mut t = base[i].max(free[pe]);
            for p in &insts[i].preds {
                t = t.max(issue[p.index()] + self.lat[p.index()]);
            }
            issue[i] = t;
            free[pe] = t + 1;
            total = total.max(t + 1);
        }
        if total > 0 && total - 1 > self.bound {
            return Err(RspError::RearrangeDiverged { bound: self.bound });
        }
        Ok(total)
    }

    /// Pass 2: the list schedule with shared resources granted in rank
    /// order, and each instance's binding.
    fn list_schedule(&self) -> Result<(Vec<u32>, Vec<Option<SharedResourceId>>), RspError> {
        let n = self.ctx.instances().len();
        let mut issue = vec![UNSET; n];
        let mut bindings = vec![None; n];
        let mut heads: Vec<Head> = self.fifo_start[..self.pe_count()]
            .iter()
            .map(|&pos| Head {
                pos,
                free: 0,
                ready: UNSET,
            })
            .collect();
        // Cycle each shared resource last accepted an issue in.
        let mut stamp = vec![UNSET; self.resources];
        // PEs with instances left, and this cycle's ready shared heads.
        let mut active: Vec<usize> = (0..heads.len())
            .filter(|&p| heads[p].pos < self.fifo_start[p + 1])
            .collect();
        let mut contenders = Vec::new();
        let mut t = 0u32;
        while !active.is_empty() {
            if t > self.bound {
                return Err(RspError::RearrangeDiverged { bound: self.bound });
            }
            let mut next = UNSET;
            let mut any_ready = false;
            for &p in &active {
                let head = &mut heads[p];
                let h = self.fifo[head.pos as usize] as usize;
                if head.ready == UNSET {
                    head.ready = self.ready_time(h, head.free, &issue);
                }
                if head.ready > t {
                    next = next.min(head.ready);
                    continue;
                }
                any_ready = true;
                if self.group[h] == LOCAL {
                    issue[h] = t;
                    head.pop(t);
                } else {
                    contenders.push(h);
                }
            }
            contenders.sort_unstable_by_key(|&h| self.rank[h]);
            for h in contenders.drain(..) {
                if let Some(res) = self.grant(h, t, &mut stamp) {
                    issue[h] = t;
                    bindings[h] = Some(res);
                    heads[self.pe[h] as usize].pop(t);
                }
            }
            active.retain(|&p| heads[p].pos < self.fifo_start[p + 1]);
            // Nothing issues before the earliest ready head.
            t = if any_ready { t + 1 } else { next };
        }
        Ok((issue, bindings))
    }

    /// First cycle FIFO head `h` may issue in, given its PE is free from
    /// `free` on; [`UNSET`] while one of its producers has not issued.
    fn ready_time(&self, h: usize, free: u32, issue: &[u32]) -> u32 {
        let mut t = self.ctx.cycles()[h].max(free);
        for p in &self.ctx.instances()[h].preds {
            let at = issue[p.index()];
            if at == UNSET {
                return UNSET;
            }
            t = t.max(at + self.lat[p.index()]);
        }
        t
    }

    /// The first resource reachable from `h`'s PE that is free in cycle
    /// `t` (row bank, then column bank), booked for `t`.
    fn grant(&self, h: usize, t: u32, stamp: &mut [u32]) -> Option<SharedResourceId> {
        let b = &self.banks[self.group[h] as usize];
        let pe = self.ctx.instances()[h].pe;
        let row = b.row_start + pe.row * b.per_row;
        if let Some(index) = (0..b.per_row).find(|&k| stamp[row + k] != t) {
            stamp[row + index] = t;
            return Some(SharedResourceId::Row {
                kind: b.kind,
                row: pe.row,
                index,
            });
        }
        let col = b.col_start + pe.col * b.per_col;
        let index = (0..b.per_col).find(|&k| stamp[col + k] != t)?;
        stamp[col + index] = t;
        Some(SharedResourceId::Col {
            kind: b.kind,
            col: pe.col,
            index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::DesignSpace;
    use rsp_arch::{presets, BaseArchitecture};
    use rsp_kernel::suite;
    use rsp_mapper::{map, validate_schedule, InstanceId, MapOptions};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn ctx_for(kernel: &rsp_kernel::Kernel) -> ConfigContext {
        map(presets::base_8x8().base(), kernel, &MapOptions::default()).unwrap()
    }

    #[test]
    fn base_architecture_is_identity() {
        for k in suite::all() {
            let ctx = ctx_for(&k);
            let r = rearrange(&ctx, &presets::base_8x8(), &Default::default()).unwrap();
            assert_eq!(r.cycles, ctx.cycles(), "{}", k.name());
            assert_eq!(r.rp_overhead, 0);
            assert_eq!(r.rs_stalls, 0);
            assert!(r.bindings.iter().all(Option::is_none));
        }
    }

    #[test]
    fn fitting_schedules_carry_single_segment_plans() {
        // The split path is the only path: a schedule that fits the
        // cache gets a one-segment plan with zero refill, so elapsed
        // cycles equal execution cycles everywhere in Tables 4/5.
        for k in suite::all() {
            let ctx = ctx_for(&k);
            for arch in presets::table_architectures() {
                let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
                assert!(!r.refill.is_split(), "{} on {}", k.name(), arch.name());
                assert_eq!(r.refill_stalls(), 0);
                assert_eq!(r.refill_count(), 0);
                assert_eq!(r.elapsed_cycles(), r.total_cycles);
            }
        }
    }

    #[test]
    fn oversized_rearrangement_splits_instead_of_failing() {
        // Shrink the cache below the rearranged schedule: rearrange used
        // to return ConfigCacheExceeded here; now it must produce a
        // split plan whose segments fit the cache and whose stalls
        // follow the byte-derived cost model.
        let k = suite::fdct();
        let ctx = ctx_for(&k);
        let big = presets::rs1();
        let probe = rearrange(&ctx, &big, &Default::default()).unwrap();
        let depth = (probe.total_cycles / 2 + 1) as usize;
        let arch = with_cache(&big, depth);

        let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
        // Same compact schedule — splitting repackages, never reschedules.
        assert_eq!(r.cycles, probe.cycles);
        assert_eq!(r.bindings, probe.bindings);
        assert!(r.refill.is_split());
        assert_eq!(r.refill.segments().len(), 2);
        assert!(r
            .refill
            .segments()
            .iter()
            .all(|s| s.depth() as usize <= depth));
        // Cost model: segment k>0 reloads depth words at 1 word/cycle.
        let expected: u32 = r.refill.segments()[1..].iter().map(|s| s.depth()).sum();
        assert_eq!(r.refill_stalls(), expected);
        assert_eq!(r.elapsed_cycles(), r.total_cycles + expected);
    }

    #[test]
    fn rearrangement_only_delays() {
        // The admissibility property the flow's exact-stage dominance
        // cut rests on: no architecture can finish a kernel in fewer
        // cycles than the base schedule, because instances never issue
        // before their base-schedule cycle.
        for k in suite::all() {
            let ctx = ctx_for(&k);
            for arch in presets::table_architectures() {
                let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
                assert!(
                    r.total_cycles >= r.base_cycles,
                    "{} on {}: {} < base {}",
                    k.name(),
                    arch.name(),
                    r.total_cycles,
                    r.base_cycles
                );
            }
        }
    }

    #[test]
    fn rearranged_schedules_are_legal() {
        for k in suite::all() {
            for arch in presets::table_architectures() {
                let ctx = ctx_for(&k);
                let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
                let lat = |i: usize| u32::from(arch.op_latency(ctx.instances()[i].op));
                validate_schedule(&ctx, &r.cycles, lat)
                    .unwrap_or_else(|v| panic!("{} on {}: {v}", k.name(), arch.name()));
            }
        }
    }

    #[test]
    fn bindings_respect_reachability_and_capacity() {
        for k in [suite::fdct(), suite::state(), suite::matmul(8)] {
            for arch in [presets::rs1(), presets::rs2(), presets::rsp3()] {
                let ctx = ctx_for(&k);
                let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
                let mut seen: HashMap<(SharedResourceId, u32), usize> = HashMap::new();
                for (i, b) in r.bindings.iter().enumerate() {
                    let inst = &ctx.instances()[i];
                    if inst.op == OpKind::Mult {
                        let res = b.unwrap_or_else(|| {
                            panic!("{}: unbound mult on {}", k.name(), arch.name())
                        });
                        assert!(res.reaches(inst.pe), "resource unreachable");
                        let slot = seen.entry((res, r.cycles[i])).or_default();
                        *slot += 1;
                        assert_eq!(*slot, 1, "double issue on {res} @{}", r.cycles[i]);
                    } else {
                        assert!(b.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn rs_stall_pattern_matches_paper_classes() {
        // Multiplication-dense kernels stall on RS#1; the lockstep
        // single-multiplication kernels do not (Tables 4/5).
        let rs1 = presets::rs1();
        for k in [
            suite::hydro(),
            suite::state(),
            suite::fdct(),
            suite::fft_mult_loop(),
        ] {
            let r = rearrange(&ctx_for(&k), &rs1, &Default::default()).unwrap();
            assert!(r.rs_stalls > 0, "{} should stall on RS#1", k.name());
        }
        for k in [
            suite::iccg(),
            suite::tri_diagonal(),
            suite::inner_product(),
            suite::sad(),
            suite::mvm(),
        ] {
            let r = rearrange(&ctx_for(&k), &rs1, &Default::default()).unwrap();
            assert_eq!(r.rs_stalls, 0, "{} must not stall on RS#1", k.name());
        }
    }

    #[test]
    fn rsp2_supports_all_kernels_with_at_most_marginal_stall() {
        // The paper's §5.3 claim: RSP#2 supports every kernel without
        // stall. Eight of nine kernels reproduce exactly; our FDCT
        // schedule (write-bus limited, II = 9) keeps one residual stall
        // where the paper's (tighter, RP-stretched) schedule had none —
        // recorded as deviation D2 in EXPERIMENTS.md.
        let rsp2 = presets::rsp2();
        for k in suite::all() {
            let r = rearrange(&ctx_for(&k), &rsp2, &Default::default()).unwrap();
            if k.name() == "2D-FDCT" {
                assert!(r.rs_stalls <= 1, "FDCT stalls {} > 1 on RSP#2", r.rs_stalls);
            } else {
                assert!(r.is_stall_free(), "{} stalls on RSP#2", k.name());
            }
        }
    }

    #[test]
    fn rs4_never_stalls() {
        // Two per row + two per column is the paper's most generous config.
        let rs4 = presets::rs4();
        for k in suite::all() {
            let r = rearrange(&ctx_for(&k), &rs4, &Default::default()).unwrap();
            assert_eq!(r.rs_stalls, 0, "{}", k.name());
        }
    }

    #[test]
    fn sad_unaffected_by_any_architecture() {
        // No multiplications: neither sharing nor pipelining changes its
        // cycle count (paper: 39 cycles in every column).
        for arch in presets::table_architectures() {
            let r = rearrange(&ctx_for(&suite::sad()), &arch, &Default::default()).unwrap();
            assert_eq!(r.total_cycles, r.base_cycles, "{}", arch.name());
        }
    }

    #[test]
    fn rp_overhead_small_for_slack_kernels() {
        // ICCG has a load between multiply and use: RP costs at most one
        // cycle (paper: 18 -> 19).
        let r = rearrange(
            &ctx_for(&suite::iccg()),
            &presets::rsp4(),
            &Default::default(),
        )
        .unwrap();
        assert!(r.rp_overhead <= 2, "rp_overhead = {}", r.rp_overhead);
        assert_eq!(r.rs_stalls, 0);
    }

    #[test]
    fn deeper_sharing_configs_weakly_reduce_stalls() {
        for k in [suite::fdct(), suite::state()] {
            let ctx = ctx_for(&k);
            let mut prev = u32::MAX;
            for c in 1..=4 {
                let r = rearrange(&ctx, &presets::rs(c), &Default::default()).unwrap();
                assert!(r.rs_stalls <= prev, "{} RS#{c}", k.name());
                prev = r.rs_stalls;
            }
        }
    }

    #[test]
    fn pipelining_keeps_sharing_viable() {
        // §3.2: pipelining relaxes the sharing conditions because one
        // resource holds `stages` operations in flight. The measurable
        // form: under RSP the *execution-time* penalty of sharing stays
        // bounded — stall counts stay within a small margin of the
        // corresponding RS design even though every multiplication now
        // takes two cycles.
        for k in suite::all() {
            let ctx = ctx_for(&k);
            for c in 1..=4 {
                let rs = rearrange(&ctx, &presets::rs(c), &Default::default()).unwrap();
                let rsp = rearrange(&ctx, &presets::rsp(c), &Default::default()).unwrap();
                assert!(
                    rsp.rs_stalls <= rs.rs_stalls + 4,
                    "{} on config {c}: RSP {} vs RS {}",
                    k.name(),
                    rsp.rs_stalls,
                    rs.rs_stalls
                );
            }
        }
    }

    /// The list scheduler the engine replaced, kept as its oracle: it
    /// steps through every cycle, re-checks every FIFO head's producers
    /// and sorts the ready heads each cycle, and books shared issue slots
    /// in a hash map. With `enforce_sharing` false, shared resources are
    /// unlimited (pass 1).
    fn oracle_schedule(
        ctx: &ConfigContext,
        arch: &RspArchitecture,
        enforce_sharing: bool,
    ) -> Result<(Vec<u32>, Vec<Option<SharedResourceId>>), RspError> {
        let n = ctx.instances().len();
        let mut sched = vec![u32::MAX; n];
        let mut bindings: Vec<Option<SharedResourceId>> = vec![None; n];

        // Per-PE FIFOs in base-schedule order.
        let mut fifos: HashMap<(usize, usize), Vec<InstanceId>> = HashMap::new();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| {
            let inst = &ctx.instances()[i];
            (ctx.cycles()[i], inst.element, inst.step, inst.node)
        });
        for i in order {
            let inst = &ctx.instances()[i];
            fifos
                .entry((inst.pe.row, inst.pe.col))
                .or_default()
                .push(inst.id);
        }
        let mut heads: HashMap<(usize, usize), usize> = fifos.keys().map(|&k| (k, 0)).collect();

        let latency = |i: usize| -> u32 { u32::from(arch.op_latency(ctx.instances()[i].op)) };

        // Issue slots of shared resources, per cycle.
        let mut issue_used: HashMap<(SharedResourceId, u32), ()> = HashMap::new();

        let bound = ctx.total_cycles() * 4 + 16 * n as u32 + 64;
        let mut remaining = n;
        let mut t: u32 = 0;
        while remaining > 0 {
            if t > bound {
                return Err(RspError::RearrangeDiverged { bound });
            }
            // Candidate heads, ready at t, in loop-iteration order (rule 1).
            let mut cands: Vec<InstanceId> = Vec::new();
            for (&pe, &head) in heads.iter() {
                let fifo = &fifos[&pe];
                if head >= fifo.len() {
                    continue;
                }
                let id = fifo[head];
                let i = id.index();
                let inst = &ctx.instances()[i];
                if ctx.cycles()[i] > t {
                    continue; // never earlier than the base schedule
                }
                let deps_ready = inst.preds.iter().all(|p| {
                    sched[p.index()] != u32::MAX && sched[p.index()] + latency(p.index()) <= t
                });
                if deps_ready {
                    cands.push(id);
                }
            }
            cands.sort_by_key(|id| {
                let inst = &ctx.instances()[id.index()];
                (inst.element, inst.step, inst.node)
            });

            for id in cands {
                let i = id.index();
                let inst = &ctx.instances()[i];

                // Shared-resource issue slot (RS rule).
                let mut binding = None;
                if enforce_sharing && arch.op_is_shared(inst.op) {
                    let mut found = false;
                    for res in arch.candidates(inst.pe, inst.op) {
                        if !issue_used.contains_key(&(res, t)) {
                            binding = Some(res);
                            found = true;
                            break;
                        }
                    }
                    if !found {
                        continue; // stalls; PE FIFO blocks
                    }
                }

                // Issue.
                sched[i] = t;
                remaining -= 1;
                *heads.get_mut(&(inst.pe.row, inst.pe.col)).unwrap() += 1;
                if let Some(res) = binding {
                    issue_used.insert((res, t), ());
                    bindings[i] = Some(res);
                }
            }
            t += 1;
        }
        Ok((sched, bindings))
    }

    /// What [`rearrange`] returned before the engine: both oracle
    /// passes, then the same refill split.
    fn oracle(ctx: &ConfigContext, arch: &RspArchitecture) -> Result<Rearranged, RspError> {
        let (rp, _) = oracle_schedule(ctx, arch, false)?;
        let rp_total = rp.iter().map(|&c| c + 1).max().unwrap_or(0);
        let (cycles, bindings) = oracle_schedule(ctx, arch, true)?;
        finish(ctx, arch, cycles, bindings, rp_total, |i| {
            u32::from(arch.op_latency(ctx.instances()[i].op))
        })
    }

    /// `arch` with its configuration cache cut to `depth` contexts.
    fn with_cache(arch: &RspArchitecture, depth: usize) -> RspArchitecture {
        let b = arch.base();
        let small = BaseArchitecture::new(b.geometry(), b.pe().clone(), b.buses(), depth);
        RspArchitecture::new(arch.name(), small, arch.plan().clone()).unwrap()
    }

    /// Every `step`-th plan of `space`, starting at `offset`, on the 8×8
    /// base.
    fn sampled_plans(space: &DesignSpace, offset: usize, step: usize) -> Vec<RspArchitecture> {
        let base = Arc::new(presets::base_8x8().base().clone());
        space
            .plans()
            .enumerate()
            .skip(offset)
            .step_by(step)
            .filter_map(|(i, plan)| {
                RspArchitecture::new(format!("plan#{i}"), Arc::clone(&base), plan).ok()
            })
            .collect()
    }

    /// Asserts the engine returns exactly what the oracle returns, result
    /// or error, on `arch` and on `arch` with caches cut short enough to
    /// force refill splits (some of them unsplittable).
    fn assert_engine_matches_oracle(ctx: &ConfigContext, arch: &RspArchitecture) {
        let engine = rearrange(ctx, arch, &Default::default());
        let expected = oracle(ctx, arch);
        assert_eq!(engine, expected, "{} on {}", ctx.kernel_name(), arch.name());
        let Ok(full) = expected else { return };
        for depth in [full.total_cycles / 2 + 1, full.total_cycles / 5 + 1, 3] {
            let small = with_cache(arch, depth as usize);
            let engine = rearrange(ctx, &small, &Default::default());
            // The oracle's schedule does not read the cache depth; only
            // the split does, so its run on `small` is this.
            let expected = finish(
                ctx,
                &small,
                full.cycles.clone(),
                full.bindings.clone(),
                full.total_cycles - full.rs_stalls,
                |i| u32::from(arch.op_latency(ctx.instances()[i].op)),
            );
            assert_eq!(
                engine,
                expected,
                "{} on {} with a {depth}-deep cache",
                ctx.kernel_name(),
                arch.name()
            );
        }
    }

    #[test]
    fn engine_matches_the_oracle_scheduler() {
        let mut kernels = suite::all();
        kernels.extend(rsp_workload::registry());
        let cfg = rsp_workload::RandomKernelConfig::default();
        kernels.extend((0..12).map(|seed| rsp_workload::random_kernel(seed, &cfg)));
        let deep = DesignSpace::deep();
        let deep100 = DesignSpace::deep100();
        for (k, kernel) in kernels.iter().enumerate() {
            let Ok(ctx) = map(presets::base_8x8().base(), kernel, &MapOptions::default()) else {
                continue;
            };
            // Big contexts get fewer plans: the oracle is slow.
            let step = (ctx.instances().len() / 400).max(1);
            let mut archs = presets::table_architectures();
            archs.extend(sampled_plans(&deep, k % 37, 37 * step));
            archs.extend(sampled_plans(&deep100, (k * 97) % 743, 743 * step));
            for arch in &archs {
                assert_engine_matches_oracle(&ctx, arch);
            }
        }
    }

    /// FDCT's 8×8 context, edited through its serde form.
    fn edited_fdct(edit: impl FnOnce(&mut serde_json::Value)) -> ConfigContext {
        let mut v = serde_json::to_value(&ctx_for(&suite::fdct())).unwrap();
        edit(&mut v);
        serde_json::from_value(v).unwrap()
    }

    #[test]
    fn a_consumer_not_after_its_producer_is_an_error_naming_the_pair() {
        let ctx = ctx_for(&suite::fdct());
        let consumer = ctx
            .instances()
            .iter()
            .find(|i| !i.preds.is_empty())
            .unwrap();
        let (c, p) = (consumer.id.index(), consumer.preds[0].index());
        let broken = edited_fdct(|v| v["cycles"][c] = v["cycles"][p].clone());
        let err = rearrange(&broken, &presets::rsp2(), &Default::default()).unwrap_err();
        assert_eq!(
            err,
            RspError::InvalidContext(ScheduleViolation::DependenceViolated {
                producer: p,
                consumer: c,
                producer_cycle: ctx.cycles()[p],
                consumer_cycle: ctx.cycles()[p],
            })
        );
        // The replaced scheduler scheduled such a context: it held the
        // consumer until its producer's result was ready.
        assert!(oracle(&broken, &presets::rsp2()).is_ok());
    }

    #[test]
    fn instances_listed_out_of_loop_order_are_sorted_into_it() {
        // Numbering FDCT's elements backwards lists every instance out of
        // (element, step, node) order and reverses the §4 grant order.
        let ctx = ctx_for(&suite::fdct());
        let last = ctx.instances().iter().map(|i| i.element).max().unwrap();
        let reversed = edited_fdct(|v| {
            let edited = v["instances"].as_array_mut().unwrap();
            for (inst, listed) in edited.iter_mut().zip(ctx.instances()) {
                inst["element"] = (last - listed.element).into();
            }
        });
        let rs1 = presets::rs1();
        let r = rearrange(&reversed, &rs1, &Default::default()).unwrap();
        assert_eq!(Ok(&r), oracle(&reversed, &rs1).as_ref());
        // The grant order changed the schedule, so the rank was honoured.
        let listed = rearrange(&ctx, &rs1, &Default::default()).unwrap();
        assert_ne!(r.cycles, listed.cycles);
    }

    #[test]
    fn an_instance_outside_the_array_is_an_error() {
        let broken = edited_fdct(|v| v["instances"][5]["pe"]["col"] = 8.into());
        let err = rearrange(&broken, &presets::rsp2(), &Default::default()).unwrap_err();
        assert!(matches!(
            err,
            RspError::InvalidContext(ScheduleViolation::PeOutsideArray { instance: 5, .. })
        ));
    }
}
