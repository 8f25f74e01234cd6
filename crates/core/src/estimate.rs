//! Exploration-time performance estimation: an admissible, slack-aware
//! lower bound on the rearranged cycle count.
//!
//! Mapping and exactly evaluating every candidate RSP design is
//! time-consuming, so the exploration stage estimates each candidate's
//! elapsed cycles from the *initial* configuration contexts alone.
//! Where the paper's §4 estimator charges every over-subscribed
//! operation a whole stall cycle (a pessimistic upper bound — ≈ 3.6×
//! the exact schedule on the dense kernels), this module computes a
//! **slack-aware lower bound**: later idle capacity is credited against
//! earlier oversubscribed cycles, so the estimate tracks what the list
//! scheduler can actually achieve while staying *admissible* —
//! `estimate ≤ exact elapsed cycles`, property-tested across the whole
//! suite — which is exactly the property result-preserving pruning
//! needs.
//!
//! # The slack-aware bound
//!
//! The exact rearrangement (see [`rearrange`](crate::rearrange())) obeys
//! three invariants:
//!
//! 1. an instance never issues before its base-schedule cycle;
//! 2. a shared resource accepts one *issue* per cycle (pipelining
//!    overlaps execution, not issue);
//! 3. an instance on PE `(r, c)` can only reach its own row bank
//!    (`shr` resources) and its own column bank (`shc` resources).
//!
//! Fix one shared kind on an `R × C` array and let `t₁ < t₂ < …` be
//! the base cycles with demand. For any suffix starting at `tᵢ`:
//!
//! * the **suffix total** `Sᵢ` (all demand at base cycles ≥ `tᵢ`)
//!   issues at most `R·shr + C·shc` operations per cycle, none of it
//!   before `tᵢ` (invariants 1–2), so any legal schedule runs at least
//!   `tᵢ + ⌈Sᵢ / (R·shr + C·shc)⌉` cycles;
//! * the **suffix row maximum** `Mʳᵢ = maxᵣ` (row `r`'s demand at base
//!   cycles ≥ `tᵢ`) issues at most `shr + C·shc` per cycle — its own
//!   row bank plus one slot in every column bank (invariant 3) —
//!   giving `tᵢ + ⌈Mʳᵢ / (shr + C·shc)⌉`;
//! * symmetrically for columns: `tᵢ + ⌈Mᶜᵢ / (shc + R·shr)⌉`.
//!
//! The execution floor is the maximum of these terms over every suffix
//! and every shared group, and never below the base length `T`.
//! Crediting a *suffix's* demand against a *suffix's* capacity is what
//! makes the bound slack-aware: a burst at cycle `t` is only charged
//! the stalls that the idle capacity after `t` cannot absorb, instead
//! of one stall per excess operation.
//!
//! Refill stalls are charged on top via [`refill_stall_estimate`],
//! which is monotone and admissible when fed an execution lower bound.
//! RP latency overhead is **not** added: a pipelined resource overlaps
//! retirement with later issues, so no per-operation latency charge is
//! admissible in general. The paper's greedy count — one stall per
//! operation its row and column banks cannot absorb in its own cycle —
//! describes a legal issue assignment, so it upper-bounds every estimate
//! here; it survives only as test code that checks exactly that.
//!
//! # Estimation cost
//!
//! The demand a kernel places on a shared kind depends only on the
//! context, never on the candidate plan, so it is profiled once, straight
//! from the schedule: the kind's instances are sorted by base cycle, and
//! one backward pass keeps every row's and column's suffix sum and their
//! running maxima — suffix sums only grow going backward, so each maximum
//! updates in O(1) per instance — into per-suffix tables
//! `(tᵢ, Sᵢ, Mʳᵢ, Mᶜᵢ)`. One group's floor is then one pass over those
//! tables with three divisions per entry, and no dense
//! `cycles × rows × cols` histogram is ever built. A group's floor
//! depends only on `(kind, shr, shc)`, so the exploration engine
//! computes it once per distinct triple of its space
//! ([`ContextProfile::exec_floor`]) and settles every candidate from
//! those values. Because the estimate is itself a lower bound, the
//! engine cuts candidates on it directly.

use rsp_arch::{FuKind, PeId, RspArchitecture, SharingPlan};
use rsp_mapper::ConfigContext;
use serde::{Deserialize, Serialize};

/// Estimated performance of one kernel on one candidate architecture.
///
/// `total_cycles` is an admissible lower bound on the exact rearranged
/// schedule's elapsed cycles (execution + refill). It has no RP latency
/// term: pipelined issue overlaps, so no admissible per-operation latency
/// charge exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallEstimate {
    /// Estimated RS stalls (resource shortage): the slack-aware
    /// execution floor minus the base schedule length.
    pub rs_stalls: u32,
    /// Estimated configuration-cache refill stalls
    /// ([`refill_stall_estimate`] over the estimated execution cycles;
    /// 0 when the estimate fits the cache).
    pub refill_stalls: u32,
    /// Estimated total elapsed cycles (base + RS + refill).
    pub total_cycles: u32,
}

/// The refill-stall charge for a schedule of `exec_cycles` execution
/// cycles on a cache of `cache_depth` contexts:
/// `max(0, exec − cache_depth)`.
///
/// The exact cost of a split schedule is `exec − seg0_depth` (every
/// segment after the first reloads at one stall cycle per context word;
/// segment 0's load is the initial configuration load, which is free),
/// and `seg0_depth ≤ cache_depth` always, so this formula is the greedy
/// ideal `seg0_depth = cache_depth` — a lower bound on the exact refill
/// stalls, and monotone in `exec_cycles`. Fed a lower bound on the
/// execution cycles it therefore stays an admissible lower bound on the
/// exact refill, which is what lets both the estimate and the
/// exploration engine's pruning floor include refill without ever
/// cutting a candidate the reference keeps.
pub fn refill_stall_estimate(exec_cycles: u32, cache_depth: u32) -> u32 {
    exec_cycles.saturating_sub(cache_depth)
}

/// One demand suffix of one shared kind: everything the slack-aware
/// floor needs about the base cycles `≥ cycle`.
#[derive(Debug, Clone, Copy)]
struct SlackCycle {
    /// First base cycle of the suffix (a cycle with demand).
    cycle: u32,
    /// Total demand at base cycles `≥ cycle`.
    suffix_total: u32,
    /// Largest single-row demand at base cycles `≥ cycle`.
    suffix_row_max: u32,
    /// Largest single-column demand at base cycles `≥ cycle`.
    suffix_col_max: u32,
}

/// Suffix tables of one shared kind, one entry per non-empty base
/// cycle, ascending. Built once per `(context, kind)`; evaluating a
/// candidate's floor is then a single pass with three divisions per
/// entry — see [`SlackProfile::exec_floor`].
#[derive(Debug, Clone, Default)]
struct SlackProfile {
    rows: u32,
    cols: u32,
    cycles: Vec<SlackCycle>,
}

impl SlackProfile {
    /// `kind`'s suffix tables, straight from the schedule: its instances
    /// sorted by base cycle, then one backward pass that keeps every
    /// row's and column's suffix sum and their running maxima. Suffix
    /// sums only grow going backward, so each maximum updates in O(1)
    /// per instance.
    ///
    /// # Panics
    ///
    /// Panics if an instance of `kind` sits outside the context's array.
    fn build(ctx: &ConfigContext, kind: FuKind) -> Self {
        let geom = ctx.geometry();
        let mut demand: Vec<(u32, PeId)> = ctx
            .instances()
            .iter()
            .zip(ctx.cycles())
            .filter(|(inst, _)| inst.op.fu() == Some(kind))
            .map(|(inst, &cycle)| (cycle, inst.pe))
            .collect();
        demand.sort_unstable_by_key(|&(cycle, _)| cycle);
        let mut row_suffix = vec![0u32; geom.rows()];
        let mut col_suffix = vec![0u32; geom.cols()];
        let (mut row_max, mut col_max) = (0, 0);
        let mut cycles = Vec::new();
        for (i, &(cycle, pe)) in demand.iter().enumerate().rev() {
            row_suffix[pe.row] += 1;
            row_max = row_max.max(row_suffix[pe.row]);
            col_suffix[pe.col] += 1;
            col_max = col_max.max(col_suffix[pe.col]);
            // `cycle`'s suffix is complete once the next instance back
            // issues earlier.
            if i == 0 || demand[i - 1].0 < cycle {
                cycles.push(SlackCycle {
                    cycle,
                    suffix_total: (demand.len() - i) as u32,
                    suffix_row_max: row_max,
                    suffix_col_max: col_max,
                });
            }
        }
        cycles.reverse();
        SlackProfile {
            rows: geom.rows() as u32,
            cols: geom.cols() as u32,
            cycles,
        }
    }

    /// The slack-aware execution floor this kind's demand imposes on a
    /// candidate with `shr` resources per row bank and `shc` per column
    /// bank: the maximum over suffixes of `tᵢ + ⌈demand / capacity⌉`
    /// for the suffix-total, row and column terms. 0 when the kind has
    /// no demand.
    fn exec_floor(&self, shr: u32, shc: u32) -> u32 {
        debug_assert!(shr + shc > 0, "a shared group provides resources");
        let cap_total = self.rows * shr + self.cols * shc;
        let div_row = shr + self.cols * shc;
        let div_col = shc + self.rows * shr;
        let mut floor = 0u32;
        for s in &self.cycles {
            let need = s
                .suffix_total
                .div_ceil(cap_total)
                .max(s.suffix_row_max.div_ceil(div_row))
                .max(s.suffix_col_max.div_ceil(div_col));
            floor = floor.max(s.cycle + need);
        }
        floor
    }
}

/// A context's demand on every shared kind an exploration offers,
/// reduced to the suffix tables the slack-aware floor reads: built once
/// per context and reused across all candidate architectures.
#[derive(Debug, Clone)]
pub struct ContextProfile {
    /// Suffix tables per profiled shared kind, in `kinds` order.
    kinds: Vec<(FuKind, SlackProfile)>,
    /// Base-schedule length.
    total_cycles: u32,
}

impl ContextProfile {
    /// Profiles `ctx` for the shared-resource `kinds` an exploration will
    /// offer.
    ///
    /// # Panics
    ///
    /// Panics if an instance of one of `kinds` sits outside the context's
    /// array. The explorations reject such a context before they profile
    /// it, as [`rearrange`](crate::rearrange()) does.
    pub fn new(ctx: &ConfigContext, kinds: &[FuKind]) -> Self {
        let mut profiled: Vec<(FuKind, SlackProfile)> = Vec::with_capacity(kinds.len());
        for &kind in kinds {
            if !profiled.iter().any(|(k, _)| *k == kind) {
                profiled.push((kind, SlackProfile::build(ctx, kind)));
            }
        }
        ContextProfile {
            kinds: profiled,
            total_cycles: ctx.total_cycles(),
        }
    }

    fn slack_profile(&self, kind: FuKind) -> Option<&SlackProfile> {
        self.kinds.iter().find(|(k, _)| *k == kind).map(|(_, s)| s)
    }

    /// Base-schedule cycles of the profiled context.
    pub fn total_cycles(&self) -> u32 {
        self.total_cycles
    }

    /// The slack-aware execution floor `kind`'s demand alone imposes on a
    /// plan that shares it with `shr` resources per row bank and `shc`
    /// per column bank; 0 when the kind has no demand. A plan's floor in
    /// [`estimate`](Self::estimate) is the base length or the largest of
    /// its groups' floors, whichever is greater, and a group's floor
    /// depends on neither its pipeline depth nor the plan's other groups:
    /// an exploration tabulates it once per distinct `(kind, shr, shc)`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not profiled.
    pub fn exec_floor(&self, kind: FuKind, shr: usize, shc: usize) -> u32 {
        self.slack_profile(kind)
            .expect("shared kind was profiled for this exploration")
            .exec_floor(shr as u32, shc as u32)
    }

    /// The slack-aware execution-cycle floor for a candidate plan: the
    /// base length or the largest per-group floor, whichever is greater.
    fn exec_cycles_floor(&self, plan: &SharingPlan) -> u32 {
        let mut exec = self.total_cycles;
        for g in plan.groups() {
            exec = exec.max(self.exec_floor(g.kind(), g.per_row(), g.per_col()));
        }
        exec
    }

    /// Admissible estimate for a candidate plan, using only profiled
    /// data: the slack-aware execution floor, plus the greedy-ideal refill
    /// charge for the part beyond the `cache_depth`-deep per-PE
    /// configuration cache ([`refill_stall_estimate`]). Never exceeds
    /// the exact rearranged schedule's elapsed cycles.
    ///
    /// # Panics
    ///
    /// Panics if the plan shares a kind that was not profiled.
    pub fn estimate(&self, plan: &SharingPlan, cache_depth: u32) -> StallEstimate {
        let exec = self.exec_cycles_floor(plan);
        let refill = refill_stall_estimate(exec, cache_depth);
        StallEstimate {
            rs_stalls: exec - self.total_cycles,
            refill_stalls: refill,
            total_cycles: exec + refill,
        }
    }
}

/// Estimates the rearranged cycle count of `ctx` on `arch` without
/// rescheduling.
///
/// One-shot convenience over [`ContextProfile`]: profiles the context for
/// the plan's shared kinds, then estimates. Exploration engines should
/// build the profile once instead.
///
/// # Examples
///
/// ```
/// use rsp_arch::presets;
/// use rsp_core::{estimate_stalls, rearrange};
/// use rsp_kernel::suite;
/// use rsp_mapper::{map, MapOptions};
///
/// let kernel = suite::state();
/// let ctx = map(presets::base_8x8().base(), &kernel, &MapOptions::default())?;
/// let est = estimate_stalls(&ctx, &presets::rs1());
/// let exact = rearrange(&ctx, &presets::rs1(), &Default::default())?;
/// // The slack-aware estimate is admissible: it never exceeds the
/// // exact schedule, refill stalls included.
/// assert!(est.total_cycles <= exact.elapsed_cycles());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Panics
///
/// Panics if an instance of a kind the plan shares sits outside the
/// context's array (see [`ContextProfile::new`]).
pub fn estimate_stalls(ctx: &ConfigContext, arch: &RspArchitecture) -> StallEstimate {
    let kinds: Vec<FuKind> = arch.plan().groups().iter().map(|g| g.kind()).collect();
    ContextProfile::new(ctx, &kinds).estimate(arch.plan(), arch.base().config_cache_depth() as u32)
}

/// Dense-histogram twin of [`estimate_stalls`], kept as the independent
/// oracle behind [`crate::explore_reference`]: rebuilds a
/// `cycles × rows × cols` demand histogram per shared group per call
/// and computes the slack-aware floor by a dense backward sweep over
/// *every* schedule cycle. Bit-equal to [`estimate_stalls`]
/// (property-tested), but shares no code with the profile path, so a
/// regression in either implementation shows up as a divergence.
pub(crate) fn estimate_stalls_dense(ctx: &ConfigContext, arch: &RspArchitecture) -> StallEstimate {
    let exec = dense_exec_floor(ctx, arch);
    let refill = refill_stall_estimate(exec, arch.base().config_cache_depth() as u32);
    StallEstimate {
        rs_stalls: exec - ctx.total_cycles(),
        refill_stalls: refill,
        total_cycles: exec + refill,
    }
}

/// The slack-aware execution floor computed the expensive way: dense
/// per-`(cycle, row, col)` histograms and a full backward suffix sweep
/// over every cycle, no sorting, no precomputed tables.
fn dense_exec_floor(ctx: &ConfigContext, arch: &RspArchitecture) -> u32 {
    let plan = arch.plan();
    let geom = ctx.geometry();
    let (rows, cols) = (geom.rows(), geom.cols());
    let t = ctx.total_cycles() as usize;
    let mut exec = ctx.total_cycles();

    for g in plan.groups() {
        let kind = g.kind();
        let mut demand = vec![0u32; t * rows * cols];
        for (inst, &cyc) in ctx.instances().iter().zip(ctx.cycles()) {
            if inst.op.fu() == Some(kind) {
                demand[(cyc as usize * rows + inst.pe.row) * cols + inst.pe.col] += 1;
            }
        }
        let (shr, shc) = (g.per_row() as u32, g.per_col() as u32);
        let cap_total = rows as u32 * shr + cols as u32 * shc;
        let div_row = shr + cols as u32 * shc;
        let div_col = shc + rows as u32 * shr;
        let mut row_suffix = vec![0u32; rows];
        let mut col_suffix = vec![0u32; cols];
        let mut suffix_total = 0u32;
        let mut floor = 0u32;
        for cyc in (0..t).rev() {
            let mut cycle_total = 0u32;
            for r in 0..rows {
                for c in 0..cols {
                    let d = demand[(cyc * rows + r) * cols + c];
                    row_suffix[r] += d;
                    col_suffix[c] += d;
                    cycle_total += d;
                }
            }
            suffix_total += cycle_total;
            if cycle_total == 0 {
                continue;
            }
            let need = suffix_total
                .div_ceil(cap_total)
                .max(
                    row_suffix
                        .iter()
                        .copied()
                        .max()
                        .unwrap_or(0)
                        .div_ceil(div_row),
                )
                .max(
                    col_suffix
                        .iter()
                        .copied()
                        .max()
                        .unwrap_or(0)
                        .div_ceil(div_col),
                );
            floor = floor.max(cyc as u32 + need);
        }
        exec = exec.max(floor);
    }
    exec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::DesignSpace;
    use crate::rearrange::rearrange;
    use proptest::prelude::*;
    use rsp_arch::{presets, ArrayGeometry, BaseArchitecture, BusSpec, PeDesign};
    use rsp_kernel::suite;
    use rsp_mapper::{map, MapOptions};
    use std::sync::OnceLock;

    fn ctx_for(kernel: &rsp_kernel::Kernel) -> ConfigContext {
        map(presets::base_8x8().base(), kernel, &MapOptions::default()).unwrap()
    }

    /// The paper's §4 RS stall count, computed densely: per cycle, each
    /// cell's operations, in row-major order, take what their row bank
    /// (`shr` per row) and then their column bank (`shc` per column)
    /// still have; whatever remains is charged one stall cycle per
    /// operation. Deferring each excess operation to a private stall
    /// cycle is a legal, if wasteful, issue assignment, so
    /// `total_cycles + greedy_rs_stalls` bounds every admissible estimate
    /// from above.
    fn greedy_rs_stalls(ctx: &ConfigContext, plan: &SharingPlan) -> u32 {
        let geom = ctx.geometry();
        let (rows, cols) = (geom.rows(), geom.cols());
        let mut stalls = 0;
        for g in plan.groups() {
            let mut demand = vec![0u32; ctx.total_cycles() as usize * rows * cols];
            for (inst, &cyc) in ctx.instances().iter().zip(ctx.cycles()) {
                if inst.op.fu() == Some(g.kind()) {
                    demand[(cyc as usize * rows + inst.pe.row) * cols + inst.pe.col] += 1;
                }
            }
            let (shr, shc) = (g.per_row() as u32, g.per_col() as u32);
            for cycle in demand.chunks(rows * cols) {
                let mut row_used = vec![0u32; rows];
                let mut col_used = vec![0u32; cols];
                for (cell, &d) in cycle.iter().enumerate() {
                    let (r, c) = (cell / cols, cell % cols);
                    let from_row = d.min(shr - row_used[r]);
                    row_used[r] += from_row;
                    let from_col = (d - from_row).min(shc - col_used[c]);
                    col_used[c] += from_col;
                    stalls += d - from_row - from_col;
                }
            }
        }
        stalls
    }

    #[test]
    fn estimate_lower_bounds_exact_for_suite() {
        // Admissibility: the slack-aware estimate never exceeds the
        // exact rearranged schedule, on any kernel × architecture.
        for k in suite::all() {
            let ctx = ctx_for(&k);
            for arch in presets::table_architectures() {
                let est = estimate_stalls(&ctx, &arch);
                let exact = rearrange(&ctx, &arch, &Default::default()).unwrap();
                assert!(
                    est.total_cycles <= exact.elapsed_cycles(),
                    "{} on {}: est {} > exact {}",
                    k.name(),
                    arch.name(),
                    est.total_cycles,
                    exact.elapsed_cycles()
                );
            }
        }
    }

    #[test]
    fn base_estimate_is_exact() {
        for k in suite::all() {
            let ctx = ctx_for(&k);
            let est = estimate_stalls(&ctx, &presets::base_8x8());
            assert_eq!(est.total_cycles, ctx.total_cycles(), "{}", k.name());
            assert_eq!(est.rs_stalls, 0);
        }
    }

    #[test]
    fn rs_estimate_zero_for_single_mult_lockstep_kernels() {
        for k in [
            suite::iccg(),
            suite::tri_diagonal(),
            suite::inner_product(),
            suite::mvm(),
        ] {
            let ctx = ctx_for(&k);
            let est = estimate_stalls(&ctx, &presets::rs1());
            assert_eq!(est.rs_stalls, 0, "{}", k.name());
        }
    }

    #[test]
    fn rs_estimate_positive_when_demand_exceeds_capacity() {
        // Capacity-oversubscribed schedules must keep a positive floor:
        // matmul on the 8×8 issues far more multiplications than RS#1's
        // eight row banks can retire within the base schedule. (The
        // small dense suite kernels stall for *dependence* reasons the
        // exact scheduler sees but no capacity bound can — admissibility
        // forces those to 0, which the suite-wide lower-bound test
        // covers.)
        let k = suite::matmul(8);
        let ctx = ctx_for(&k);
        let est = estimate_stalls(&ctx, &presets::rs1());
        let exact = rearrange(&ctx, &presets::rs1(), &Default::default()).unwrap();
        assert!(est.rs_stalls > 0);
        assert!(est.total_cycles <= exact.elapsed_cycles());

        // And a schedule whose demand exactly matches capacity keeps an
        // exact floor: matmul(4) issues eight multiplications in each
        // of its demand cycles — precisely RS#1's eight row banks.
        let k = suite::matmul(4);
        let ctx = ctx_for(&k);
        let est = estimate_stalls(&ctx, &presets::rs1());
        let exact = rearrange(&ctx, &presets::rs1(), &Default::default()).unwrap();
        assert_eq!(est.total_cycles, exact.elapsed_cycles());
    }

    #[test]
    fn sad_estimates_zero_everywhere() {
        let k = suite::sad();
        let ctx = ctx_for(&k);
        for arch in presets::table_architectures() {
            let est = estimate_stalls(&ctx, &arch);
            assert_eq!(est.total_cycles, ctx.total_cycles(), "{}", arch.name());
        }
    }

    #[test]
    fn estimate_never_exceeds_greedy_paper_estimate() {
        // The paper's greedy charge describes a legal (if wasteful)
        // issue assignment, so the admissible estimate must stay at or
        // below base + greedy.
        for k in suite::all() {
            let ctx = ctx_for(&k);
            let profile = ContextProfile::new(&ctx, &[FuKind::Multiplier]);
            for arch in presets::table_architectures() {
                let greedy = greedy_rs_stalls(&ctx, arch.plan());
                let est = profile.estimate(arch.plan(), u32::MAX).rs_stalls;
                assert!(
                    est <= greedy,
                    "{} on {}: estimate {} > greedy {}",
                    k.name(),
                    arch.name(),
                    est,
                    greedy
                );
            }
        }
    }

    #[test]
    fn refill_estimate_is_admissible_against_exact_refill() {
        // Against small-cache variants of the table architectures, the
        // estimate's refill charge lower-bounds the exact split plan's
        // stalls — the admissibility every refill-aware cut relies on —
        // and the charge evaluated at the *exact* execution length
        // still lower-bounds the exact refill (seg0 ≤ cache_depth).
        use rsp_arch::{BaseArchitecture, RspArchitecture};
        let mut saw_refill = false;
        for k in [suite::fdct(), suite::state(), suite::sad()] {
            let ctx = ctx_for(&k);
            for big in [presets::rs1(), presets::rs2()] {
                let probe = rearrange(&ctx, &big, &Default::default()).unwrap();
                let depth = (probe.total_cycles / 2 + 1) as usize;
                let b = big.base();
                let small = BaseArchitecture::new(b.geometry(), b.pe().clone(), b.buses(), depth);
                let arch = RspArchitecture::new(big.name().to_string(), small, big.plan().clone())
                    .unwrap();
                let exact = rearrange(&ctx, &arch, &Default::default()).unwrap();
                let est = estimate_stalls(&ctx, &arch);
                saw_refill |= exact.refill_stalls() > 0;
                assert!(
                    est.refill_stalls <= exact.refill_stalls(),
                    "{} on {}: est refill {} > exact {}",
                    k.name(),
                    arch.name(),
                    est.refill_stalls,
                    exact.refill_stalls()
                );
                assert!(est.total_cycles <= exact.elapsed_cycles());
                let lb = refill_stall_estimate(exact.total_cycles, depth as u32);
                assert!(
                    lb <= exact.refill_stalls(),
                    "{} on {}: refill lb {} > exact {}",
                    k.name(),
                    arch.name(),
                    lb,
                    exact.refill_stalls()
                );
            }
        }
        assert!(saw_refill, "no combination exercised an actual refill");
    }

    #[test]
    fn sparse_estimator_matches_dense_oracle() {
        // The profile path and the dense-histogram twin share no code;
        // they must agree exactly on every kernel × preset.
        for k in suite::all() {
            let ctx = ctx_for(&k);
            for arch in presets::table_architectures() {
                assert_eq!(
                    estimate_stalls(&ctx, &arch),
                    estimate_stalls_dense(&ctx, &arch),
                    "{} on {}",
                    k.name(),
                    arch.name()
                );
            }
            // Deep pipelines and row+column banks too.
            for (shr, shc, st) in [(1, 1, 4), (3, 0, 8), (2, 2, 3)] {
                let arch = presets::shared_multiplier("deep", 8, 8, shr, shc, st);
                assert_eq!(
                    estimate_stalls(&ctx, &arch),
                    estimate_stalls_dense(&ctx, &arch),
                    "{} on {}",
                    k.name(),
                    arch.name()
                );
            }
        }
    }

    #[test]
    fn profile_estimate_matches_one_shot_estimate() {
        for k in suite::all() {
            let ctx = ctx_for(&k);
            let profile = ContextProfile::new(&ctx, &[FuKind::Multiplier]);
            for arch in presets::table_architectures() {
                assert_eq!(
                    profile.estimate(arch.plan(), arch.base().config_cache_depth() as u32),
                    estimate_stalls(&ctx, &arch),
                    "{} on {}",
                    k.name(),
                    arch.name()
                );
            }
        }
    }

    /// Every plan of [`DesignSpace::deep100`], enumerated once.
    fn deep100_plans() -> &'static [SharingPlan] {
        static PLANS: OnceLock<Vec<SharingPlan>> = OnceLock::new();
        PLANS.get_or_init(|| DesignSpace::deep100().plans().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random kernels mapped onto random, mostly non-square
        /// arrays, under deep100 plans that share all three kinds, alone
        /// and mixed, the profile path equals the dense oracle and stays
        /// admissible. The suite tests above all run on square arrays,
        /// where a row/column mix-up cancels out.
        #[test]
        fn estimate_matches_dense_oracle_on_non_square_arrays(
            seed in any::<u64>(),
            rows in 2usize..=10,
            cols in 2usize..=10,
            offset in 0usize..11_024,
            depth in 4usize..=64,
        ) {
            let kernel = rsp_workload::random_kernel(seed, &Default::default());
            let geometry = ArrayGeometry::new(rows, cols);
            let base = |depth| {
                BaseArchitecture::new(geometry, PeDesign::full(), BusSpec::paper_default(), depth)
            };
            // Mapped with room to spare, estimated against a cache that
            // may force refill splits.
            let Ok(ctx) = map(&base(4096), &kernel, &MapOptions::default()) else {
                return Ok(());
            };
            let base = base(depth);
            // Four plans a quarter of the space apart: the grid's three
            // kinds and the mixes all get sampled.
            let plans = deep100_plans();
            for quarter in 0..4 {
                let plan = &plans[(offset + quarter * plans.len() / 4) % plans.len()];
                let Ok(arch) = RspArchitecture::new("sampled", base.clone(), plan.clone()) else {
                    continue;
                };
                let est = estimate_stalls(&ctx, &arch);
                prop_assert_eq!(est, estimate_stalls_dense(&ctx, &arch), "{} on {}", geometry, plan);
                if let Ok(exact) = rearrange(&ctx, &arch, &Default::default()) {
                    prop_assert!(
                        est.total_cycles <= exact.elapsed_cycles(),
                        "{} on {} {}: est {} > exact {}",
                        kernel.name(),
                        geometry,
                        plan,
                        est.total_cycles,
                        exact.elapsed_cycles()
                    );
                }
            }
        }
    }
}
