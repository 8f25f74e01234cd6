//! Anytime-robustness adapter — the `rsp/soak` benchmark
//! (`BENCH_soak.json`).
//!
//! Where `rsp/explore` tracks what the engine computes, this benchmark
//! tracks how well it *stops*: every row exercises the anytime layer
//! ([`rsp_core::ExploreControl`]) over the 480-candidate `deep` space
//! and anchors its *exact* result counts, so any drift in truncation
//! behavior — a budget row suddenly evaluating a different prefix, a
//! resumed run no longer reaching the complete result, a faulted
//! candidate leaking into the feasible set — fails CI.
//!
//! Every engine row runs on one thread, as every exploration does; the
//! `1-thread` row names are the committed artifact's row keys. All
//! budgets are **candidate counts**, never wall-clock: deadline
//! truncation is inherently host-dependent, so it is exercised by the
//! unit/property tests (`rsp-core/tests/anytime.rs`) rather than
//! anchored here.
//!
//! Rows of the one tracked label, `soak-deep`:
//!
//! * `serial-reference` — [`rsp_core::explore_reference`] over the full
//!   space: the feasible-count oracle.
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
//!   feasible count equals the full run's, and its events count the
//!   whole truncate → checkpoint → resume round trip.

use super::{Measured, Rows};
use crate::gate::EngineRow;
use rsp_arch::presets;
use rsp_core::{
    explore_reference, explore_resume, explore_with, Constraints, DesignSpace, ExploreControl,
    ExploreOptions, Objective,
};
use rsp_kernel::suite;
use rsp_mapper::{map, MapOptions};
use rsp_synth::{AreaModel, DelayModel, ModelCache};
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

/// Measures the tracked label (`soak-deep`); `None` for an unknown
/// label.
pub fn measure(label: &str) -> Option<Measured> {
    (label == "soak-deep").then(run)
}

/// Runs the soak benchmark over the `deep` space, each row once.
pub fn run() -> Measured {
    let space = DesignSpace::deep();
    let base = presets::base_8x8().base().clone();
    let kernels = suite::all();
    let contexts: Vec<_> = kernels
        .iter()
        .map(|k| map(&base, k, &MapOptions::default()).expect("suite maps"))
        .collect();
    let weights = vec![1.0; kernels.len()];
    let total = space.plans().count();

    // Called inside each recorded run, so the options report to the
    // row's recorder.
    let opts = |control: ExploreControl| ExploreOptions {
        control,
        ..ExploreOptions::default()
    };
    let explore = |options: &ExploreOptions| {
        explore_with(&base, &kernels, &contexts, &weights, &space, options)
    };

    let mut rows = Rows::default();
    let reference = rows.record(
        || {
            explore_reference(
                &base,
                &kernels,
                &contexts,
                &weights,
                &space,
                &Constraints::default(),
                Objective::AreaDelayProduct,
            )
            .expect("reference explores")
        },
        |r, events| EngineRow::from_exploration("serial-reference", r, events),
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
        let run = rows.record(
            || {
                explore(&opts(ExploreControl::with_budget(budget)))
                    .expect("budgeted engine explores")
            },
            |r, events| EngineRow::from_exploration(name, r, events),
        );
        assert_eq!(
            run.completeness.is_complete(),
            budget >= total,
            "{name}: completeness does not match its budget"
        );
        assert_eq!(run.stats.candidates_seen, budget.min(total), "{name}");
        if budget >= total {
            assert_eq!(
                run.feasible.len(),
                reference.feasible.len(),
                "{name}: an unhit budget must reproduce the complete result"
            );
        }
    }

    // Fault-isolation row: one feasible candidate's delay synthesis
    // panics; the run must complete with it isolated and counted.
    mute_injected_panics();
    // Match on the full sharing plan, not the display name: deep-space
    // names collide across shared-FU kinds, and the hook must fault
    // exactly one candidate.
    let target = reference
        .feasible
        .iter()
        .enumerate()
        .find(|(i, _)| !reference.pareto.contains(i))
        .map(|(_, p)| p.arch.plan().clone())
        .expect("deep space has non-frontier feasible points");
    let faulted = rows.record(
        || {
            let faulty = DelayModel::new().with_fault_hook(move |arch| {
                if *arch.plan() == target {
                    panic!("{FAULT_MARKER}: {}", arch.name());
                }
            });
            let options = ExploreOptions {
                cache: Some(Arc::new(ModelCache::with_models(AreaModel::new(), faulty))),
                ..opts(ExploreControl::default())
            };
            explore(&options).expect("faulted engine still explores")
        },
        |r, events| EngineRow::from_exploration("soak-1-thread-faulted", r, events),
    );
    assert_eq!(faulted.stats.faulted, 1, "exactly one candidate faults");
    assert!(faulted.completeness.is_complete());
    assert_eq!(
        faulted.feasible.len(),
        reference.feasible.len() - 1,
        "the faulted candidate (and only it) drops out"
    );

    // Checkpoint/resume row: truncate at 50 %, checkpoint, resume to the
    // complete result, all in one recorded run.
    let resumed = rows.record(
        || {
            let truncated = explore(&opts(ExploreControl::with_budget(total / 2)))
                .expect("truncated engine explores");
            explore_resume(
                &base,
                &kernels,
                &contexts,
                &weights,
                &space,
                &opts(ExploreControl::default()),
                &truncated.checkpoint(),
            )
            .expect("resume completes")
        },
        |r, events| EngineRow::from_exploration("soak-1-thread-resume", r, events),
    );
    assert!(resumed.completeness.is_complete());
    assert_eq!(
        resumed.feasible.len(),
        reference.feasible.len(),
        "resume must reach the complete feasible set"
    );

    rows.measured("soak-deep", total, kernels.len(), 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_benchmark_runs_and_anchors_hold() {
        let report = measure("soak-deep").unwrap().report;
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
        assert!(measure("soak-imaginary").is_none());
    }
}
