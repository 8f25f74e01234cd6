//! Anytime-robustness adapter — the `rsp/soak` benchmark
//! (`BENCH_soak.json`).
//!
//! Where `rsp/explore` tracks how fast the engine completes, this
//! benchmark tracks how well it *stops*: every row exercises the
//! anytime layer ([`rsp_core::ExploreControl`]) over the 480-candidate
//! `deep` space and anchors its *exact* result counts, so any drift in
//! truncation behavior — a budget row suddenly evaluating a different
//! prefix, a resumed run no longer reaching the complete result, a
//! faulted candidate leaking into the feasible set — fails CI even when
//! timings are fine.
//!
//! Every engine row is pinned to one thread, so the cross-host timing
//! gate holds it everywhere. All budgets are **candidate counts**, never
//! wall-clock: deadline truncation is inherently host-dependent, so it
//! is exercised by the unit/property tests
//! (`rsp-core/tests/anytime.rs`) rather than anchored here.
//!
//! Rows of the one tracked label, `soak-deep`:
//!
//! * `serial-reference` — [`rsp_core::explore_reference`] over the full
//!   space: the timing yardstick and the feasible-count oracle.
//! * `soak-1-thread-full` — the engine with its candidate budget set to
//!   exactly the space size; asserts the run reports `Complete` and
//!   anchors the same feasible count as the reference (an unhit budget
//!   must be free).
//! * `soak-1-thread-budget-75/-50/-25` — budgets of 75/50/25 % of the
//!   space; the anchored `feasible`/`candidates_seen` pin the exact
//!   truncation prefix.
//! * `soak-1-thread-faulted` — a [`DelayModel`] fault hook makes one
//!   feasible candidate's synthesis panic; the run must isolate it
//!   (`PruneStats::faulted == 1`, asserted here) and the anchored
//!   feasible count is exactly the reference's minus one.
//! * `soak-1-thread-resume` — truncates at 50 %, checkpoints, and
//!   resumes to completion ([`rsp_core::explore_resume`]); the anchored
//!   feasible count equals the full run's, and the row's wall-clock
//!   tracks the cost of the truncate → checkpoint → resume round trip.

use crate::gate::{time_median, BenchReport, EngineRow};
use rsp_arch::presets;
use rsp_core::{
    explore_reference, explore_resume, explore_with, Constraints, DesignSpace, ExploreControl,
    ExploreOptions, Objective,
};
use rsp_kernel::suite;
use rsp_mapper::{map, MapOptions};
use rsp_synth::{AreaModel, DelayModel, ModelCache};
use std::hint::black_box;
use std::sync::{Arc, OnceLock};

/// Marker in the injected fault's panic payload, letting the muting
/// panic hook distinguish the benchmark's own injected worker panics
/// from real ones (which still print).
const FAULT_MARKER: &str = "soak-bench-injected-fault";

fn mute_injected_panics() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let muted = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(FAULT_MARKER));
            if !muted {
                default(info);
            }
        }));
    });
}

/// Measures the tracked label (`soak-deep`) with `samples` measured
/// repetitions per row; `None` for an unknown label.
pub fn measure(label: &str, samples: u32) -> Option<BenchReport> {
    (label == "soak-deep").then(|| run(samples))
}

/// Runs the soak benchmark over the `deep` space with `samples` measured
/// repetitions per row.
pub fn run(samples: u32) -> BenchReport {
    let space = DesignSpace::deep();
    let base = presets::base_8x8().base().clone();
    let kernels = suite::all();
    let contexts: Vec<_> = kernels
        .iter()
        .map(|k| map(&base, k, &MapOptions::default()).expect("suite maps"))
        .collect();
    let weights = vec![1.0; kernels.len()];
    let total = space.plans().count();

    let opts = |control: ExploreControl| ExploreOptions {
        parallelism: Some(1),
        constraints: Constraints::default(),
        objective: Objective::AreaDelayProduct,
        cache: None,
        profiles: None,
        control,
        recorder: rsp_obs::global(),
    };

    let mut rows: Vec<EngineRow> = Vec::new();
    let mut push_row =
        |name: &str, median: u64, min: u64, reference_median: u64, r: &rsp_core::Exploration| {
            rows.push(EngineRow {
                name: name.into(),
                median_ns: median,
                min_ns: min,
                samples,
                speedup_vs_reference: reference_median as f64 / median as f64,
                feasible: r.feasible.len(),
                candidates_seen: r.stats.candidates_seen,
                candidates_pruned: r.stats.candidates_pruned,
                clock_bound_cuts: r.stats.clock_bound_cuts,
                refill_segments: 0,
                refill_stall_cycles: 0,
            });
        };

    // Yardstick: the unbudgeted serial reference.
    let mut reference = None;
    let (reference_median, reference_min) = time_median(samples, || {
        reference = Some(
            explore_reference(
                black_box(&base),
                &kernels,
                &contexts,
                &weights,
                &space,
                &Constraints::default(),
                Objective::AreaDelayProduct,
            )
            .expect("reference explores"),
        );
    });
    let reference = reference.unwrap();
    push_row(
        "serial-reference",
        reference_median,
        reference_min,
        reference_median,
        &reference,
    );

    // Budgeted rows, the full-budget row first: an exactly-sized budget
    // must report Complete and reproduce the reference's feasible set.
    let budgets = [
        ("soak-1-thread-full", total),
        ("soak-1-thread-budget-75", total * 3 / 4),
        ("soak-1-thread-budget-50", total / 2),
        ("soak-1-thread-budget-25", total / 4),
    ];
    for (name, budget) in budgets {
        let o = opts(ExploreControl::with_budget(budget));
        let mut last = None;
        let (median, min) = time_median(samples, || {
            last = Some(
                explore_with(black_box(&base), &kernels, &contexts, &weights, &space, &o)
                    .expect("budgeted engine explores"),
            );
        });
        let last = last.unwrap();
        assert_eq!(
            last.completeness.is_complete(),
            budget >= total,
            "{name}: completeness does not match its budget"
        );
        assert_eq!(last.stats.candidates_seen, budget.min(total), "{name}");
        if budget >= total {
            assert_eq!(
                last.feasible.len(),
                reference.feasible.len(),
                "{name}: an unhit budget must reproduce the complete result"
            );
        }
        push_row(name, median, min, reference_median, &last);
    }

    // Fault-isolation row: one feasible candidate's delay synthesis
    // panics; the run must complete with it isolated and counted.
    {
        mute_injected_panics();
        // Match on the full sharing plan, not the display name: deep-
        // space names collide across shared-FU kinds, and the hook must
        // fault exactly one candidate.
        let target = reference
            .feasible
            .iter()
            .enumerate()
            .find(|(i, _)| !reference.pareto.contains(i))
            .map(|(_, p)| p.arch.plan().clone())
            .expect("deep space has non-frontier feasible points");
        let mut o = opts(ExploreControl::default());
        let mut last = None;
        let (median, min) = time_median(samples, || {
            // Fresh hooked cache per run, so every sample pays (and
            // isolates) the fault rather than hitting a memo.
            let fault_target = target.clone();
            let faulty = DelayModel::new().with_fault_hook(move |arch| {
                if *arch.plan() == fault_target {
                    panic!("{FAULT_MARKER}: {}", arch.name());
                }
            });
            o.cache = Some(Arc::new(ModelCache::with_models(AreaModel::new(), faulty)));
            last = Some(
                explore_with(black_box(&base), &kernels, &contexts, &weights, &space, &o)
                    .expect("faulted engine still explores"),
            );
        });
        let last = last.unwrap();
        assert_eq!(last.stats.faulted, 1, "exactly one candidate faults");
        assert!(last.completeness.is_complete());
        assert_eq!(
            last.feasible.len(),
            reference.feasible.len() - 1,
            "the faulted candidate (and only it) drops out"
        );
        push_row(
            "soak-1-thread-faulted",
            median,
            min,
            reference_median,
            &last,
        );
    }

    // Checkpoint/resume row: truncate at 50 %, checkpoint, resume to the
    // complete result. The row times the whole round trip.
    {
        let mut last = None;
        let (median, min) = time_median(samples, || {
            let truncated = explore_with(
                black_box(&base),
                &kernels,
                &contexts,
                &weights,
                &space,
                &opts(ExploreControl::with_budget(total / 2)),
            )
            .expect("truncated engine explores");
            let checkpoint = truncated.checkpoint();
            last = Some(
                explore_resume(
                    black_box(&base),
                    &kernels,
                    &contexts,
                    &weights,
                    &space,
                    &opts(ExploreControl::default()),
                    &checkpoint,
                )
                .expect("resume completes"),
            );
        });
        let last = last.unwrap();
        assert!(last.completeness.is_complete());
        assert_eq!(
            last.feasible.len(),
            reference.feasible.len(),
            "resume must reach the complete feasible set"
        );
        push_row("soak-1-thread-resume", median, min, reference_median, &last);
    }

    BenchReport {
        space: "soak-deep".into(),
        candidates: total,
        kernels: kernels.len(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        samples,
        selected_pe_count: 0,
        engines: rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_benchmark_runs_and_anchors_hold() {
        let report = measure("soak-deep", 1).unwrap();
        assert_eq!(report.engines.len(), 7);
        let row = |name: &str| report.engines.iter().find(|e| e.name == name).unwrap();
        let full = row("soak-1-thread-full");
        let reference = row("serial-reference");
        assert_eq!(full.feasible, reference.feasible);
        assert_eq!(full.candidates_seen, report.candidates);
        // Budget rows see exactly their budget.
        assert_eq!(
            row("soak-1-thread-budget-50").candidates_seen,
            report.candidates / 2
        );
        assert!(row("soak-1-thread-budget-25").feasible <= row("soak-1-thread-budget-50").feasible);
        // Fault isolation drops exactly one point; resume recovers all.
        assert_eq!(
            row("soak-1-thread-faulted").feasible,
            reference.feasible - 1
        );
        assert_eq!(row("soak-1-thread-resume").feasible, reference.feasible);
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("soak-1-thread-resume"));
        // Unknown labels are refused.
        assert!(measure("soak-imaginary", 1).is_none());
    }
}
