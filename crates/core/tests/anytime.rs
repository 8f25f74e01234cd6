//! Property tests for anytime exploration: truncation soundness,
//! cancellation determinism, checkpoint/resume bit-identity, and panic
//! isolation.
//!
//! The load-bearing facts proved here:
//!
//! * a run stopped at candidate boundary `k` (by budget, cancel, or
//!   deadline — all three take the same stop-check path) is bit-identical
//!   to the serial reference truncated at the same `k`;
//! * `explore_resume(checkpoint)` continues a truncated run to the
//!   bit-identical complete result, including through a JSON round trip,
//!   and refuses checkpoints of another schema version or run;
//! * a candidate whose synthesis panics is isolated (counted in
//!   `stats.faulted`) without aborting the run or changing the surviving
//!   Pareto set.

use rsp_arch::{presets, BaseArchitecture};
use rsp_core::{
    explore_reference_with, explore_resume, explore_with, Completeness, Constraints, DesignSpace,
    Exploration, ExploreControl, ExploreOptions, Objective, RspError, TruncationReason,
};
use rsp_kernel::Kernel;
use rsp_mapper::{map, ConfigContext, MapOptions};
use rsp_synth::{AreaModel, DelayModel, ModelCache};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The full suite mapped onto the 8×8 base, shared across tests (mapping
/// is the expensive part of the setup, not exploration).
fn fixture() -> &'static (BaseArchitecture, Vec<Kernel>, Vec<ConfigContext>) {
    static FIXTURE: OnceLock<(BaseArchitecture, Vec<Kernel>, Vec<ConfigContext>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let base = presets::base_8x8().base().clone();
        let kernels = rsp_kernel::suite::all();
        let contexts = kernels
            .iter()
            .map(|k| map(&base, k, &MapOptions::default()).unwrap())
            .collect();
        (base, kernels, contexts)
    })
}

fn options(control: ExploreControl) -> ExploreOptions {
    ExploreOptions {
        parallelism: Some(3),
        constraints: Constraints::default(),
        objective: Objective::AreaDelayProduct,
        cache: None,
        profiles: None,
        control,
        recorder: rsp_core::obs::global(),
    }
}

fn run_engine(opts: &ExploreOptions) -> Exploration {
    let (base, kernels, contexts) = fixture();
    let weights = vec![1.0; kernels.len()];
    explore_with(
        base,
        kernels,
        contexts,
        &weights,
        &DesignSpace::extended(),
        opts,
    )
    .unwrap()
}

fn run_reference(control: &ExploreControl) -> Exploration {
    let (base, kernels, contexts) = fixture();
    let weights = vec![1.0; kernels.len()];
    explore_reference_with(
        base,
        kernels,
        contexts,
        &weights,
        &DesignSpace::extended(),
        &Constraints::default(),
        Objective::AreaDelayProduct,
        control,
    )
    .unwrap()
}

fn assert_bit_identical(engine: &Exploration, reference: &Exploration, what: &str) {
    assert_eq!(
        engine.feasible.len(),
        reference.feasible.len(),
        "feasible size ({what})"
    );
    for (e, r) in engine.feasible.iter().zip(&reference.feasible) {
        assert_eq!(e.arch.name(), r.arch.name(), "{what}");
        assert_eq!(e.area_slices.to_bits(), r.area_slices.to_bits(), "{what}");
        assert_eq!(e.clock_ns.to_bits(), r.clock_ns.to_bits(), "{what}");
        assert_eq!(e.est_cycles, r.est_cycles, "{what}");
        assert_eq!(e.est_et_ns.to_bits(), r.est_et_ns.to_bits(), "{what}");
        assert_eq!(e.cost_bound_ok, r.cost_bound_ok, "{what}");
    }
    assert_eq!(engine.pareto, reference.pareto, "pareto ({what})");
    assert_eq!(engine.best, reference.best, "best ({what})");
    assert_eq!(
        engine.base_et_ns.to_bits(),
        reference.base_et_ns.to_bits(),
        "{what}"
    );
    assert_eq!(engine.completeness, reference.completeness, "{what}");
}

fn space_total() -> usize {
    DesignSpace::extended().plans().count()
}

/// Stopping at every candidate boundary `k` — via the machine-independent
/// candidate budget, which shares the stop-check path with cancellation
/// and deadlines — reproduces the serial reference truncated at the same
/// `k`, bit for bit.
#[test]
fn truncation_at_every_boundary_matches_reference() {
    let total = space_total();
    for k in 0..=total {
        let control = ExploreControl::with_budget(k);
        let engine = run_engine(&options(control.clone()));
        let reference = run_reference(&control);
        assert_bit_identical(&engine, &reference, &format!("k={k}"));
        let expected = if k < total {
            Completeness::Truncated {
                candidates_remaining: total - k,
                reason: TruncationReason::CandidateBudget,
            }
        } else {
            Completeness::Complete
        };
        assert_eq!(engine.completeness, expected, "k={k}");
        assert_eq!(engine.stats.candidates_seen, k.min(total));
    }
}

/// Resuming a checkpoint taken at any boundary `k` — with no further
/// budget — reaches the bit-identical complete result.
#[test]
fn resume_reaches_bit_identical_complete_result() {
    let total = space_total();
    let (base, kernels, contexts) = fixture();
    let weights = vec![1.0; kernels.len()];
    let space = DesignSpace::extended();
    let complete = run_engine(&options(Default::default()));
    for k in 0..=total {
        let truncated = run_engine(&options(ExploreControl::with_budget(k)));
        let ckpt = truncated.checkpoint();
        assert_eq!(ckpt.cursor(), k.min(total));
        assert_eq!(ckpt.candidates_total(), total);
        let resumed = explore_resume(
            base,
            kernels,
            contexts,
            &weights,
            &space,
            &options(Default::default()),
            &ckpt,
        )
        .unwrap();
        assert_bit_identical(&resumed, &complete, &format!("k={k}"));
        assert_eq!(resumed.stats, complete.stats, "k={k}");
    }
}

/// A checkpoint survives a JSON round trip (shortest-round-trip float
/// formatting keeps every f64 bit-exact) and still resumes to the
/// bit-identical complete result. Resuming an already-complete
/// checkpoint is a harmless no-op.
#[test]
fn checkpoint_roundtrips_through_json() {
    let total = space_total();
    let (base, kernels, contexts) = fixture();
    let weights = vec![1.0; kernels.len()];
    let space = DesignSpace::extended();
    let opts = options(Default::default());
    let complete = run_engine(&opts);

    let truncated = run_engine(&options(ExploreControl::with_budget(total / 2)));
    let json = serde_json::to_string(&truncated.checkpoint()).unwrap();
    let ckpt: rsp_core::ExploreCheckpoint = serde_json::from_str(&json).unwrap();
    assert!(!ckpt.is_complete());
    let resumed = explore_resume(base, kernels, contexts, &weights, &space, &opts, &ckpt).unwrap();
    assert_bit_identical(&resumed, &complete, "json round trip");

    // Complete checkpoint → no-op resume.
    let ckpt = complete.checkpoint();
    assert!(ckpt.is_complete());
    let resumed = explore_resume(base, kernels, contexts, &weights, &space, &opts, &ckpt).unwrap();
    assert_bit_identical(&resumed, &complete, "complete no-op resume");
}

/// A checkpoint refuses to resume under a different objective,
/// different constraints, or a different design space (fingerprint
/// mismatch).
#[test]
fn checkpoint_mismatch_is_rejected() {
    let (base, kernels, contexts) = fixture();
    let weights = vec![1.0; kernels.len()];
    let opts = options(Default::default());
    let ckpt = run_engine(&options(ExploreControl::with_budget(5))).checkpoint();
    let resume = |space: &DesignSpace, opts: &ExploreOptions| {
        explore_resume(base, kernels, contexts, &weights, space, opts, &ckpt).unwrap_err()
    };

    let other_objective = ExploreOptions {
        objective: Objective::ExecutionTime,
        ..options(Default::default())
    };
    let other_constraints = ExploreOptions {
        constraints: Constraints {
            enforce_cost_bound: true,
            max_slowdown: 2.0,
        },
        ..options(Default::default())
    };
    for (what, err) in [
        (
            "objective",
            resume(&DesignSpace::extended(), &other_objective),
        ),
        (
            "constraints",
            resume(&DesignSpace::extended(), &other_constraints),
        ),
        // The candidate total differs.
        ("space", resume(&DesignSpace::paper(), &opts)),
    ] {
        assert!(
            matches!(err, RspError::CheckpointMismatch { .. }),
            "{what}: {err:?}"
        );
    }
}

/// A checkpoint written before the schema dropped the pruning-strategy
/// knobs (version 1, verbatim) is refused with a mismatch that names its
/// version, even though its fields otherwise still parse.
#[test]
fn version_1_checkpoint_is_refused() {
    const V1: &str = r#"{"version":1,"fingerprint":{"prune":"LowerBound","bound":"PerRowResidual","clock_bound":"StageFloor","objective":"AreaDelayProduct","constraints":{"enforce_cost_bound":true,"max_slowdown":1.5},"candidates_total":48},"cursor":2,"base_et_ns":4680.0,"candidates_pruned":0,"clock_bound_cuts":0,"faulted":0,"tightness_sum":2.0,"tightness_count":2,"points":[{"name":"RS(shr=1,shc=0,st=1)","plan":{"groups":[{"kind":"Multiplier","per_row":1,"per_col":0,"stages":1}],"local_pipeline":{}},"area_slices":32442.88,"clock_ns":26.849999999999998,"est_cycles":[14,8,12,19,25,43,24,11,24],"est_et_ns":4832.999999999999,"cost_bound_ok":true},{"name":"RS(shr=1,shc=1,st=1)","plan":{"groups":[{"kind":"Multiplier","per_row":1,"per_col":1,"stages":1}],"local_pipeline":{}},"area_slices":36917.76,"clock_ns":27.8,"est_cycles":[14,8,12,19,25,43,24,11,24],"est_et_ns":5004.0,"cost_bound_ok":true}]}"#;
    let (base, kernels, contexts) = fixture();
    let weights = vec![1.0; kernels.len()];
    let ckpt: rsp_core::ExploreCheckpoint = serde_json::from_str(V1).unwrap();
    let err = explore_resume(
        base,
        kernels,
        contexts,
        &weights,
        &DesignSpace::extended(),
        &options(Default::default()),
        &ckpt,
    )
    .unwrap_err();
    let RspError::CheckpointMismatch { what } = err else {
        panic!("expected a checkpoint mismatch, got {err:?}");
    };
    assert!(what.contains("version 1"), "{what}");
}

/// A pre-raised cancel flag stops the sweep at candidate 0 with an empty
/// anytime result; a zero deadline does the same with `Deadline`; the
/// candidate budget outranks both when several conditions hold.
#[test]
fn cancel_and_deadline_semantics() {
    let total = space_total();

    let control = ExploreControl::default();
    control.request_cancel();
    let cancelled = run_engine(&options(control));
    assert_eq!(
        cancelled.completeness,
        Completeness::Truncated {
            candidates_remaining: total,
            reason: TruncationReason::Cancelled,
        }
    );
    assert!(cancelled.feasible.is_empty());
    assert!(cancelled.try_best_point().is_none());
    assert_eq!(cancelled.best, None);

    let timed_out = run_engine(&options(ExploreControl::with_deadline(Duration::ZERO)));
    assert_eq!(
        timed_out.completeness,
        Completeness::Truncated {
            candidates_remaining: total,
            reason: TruncationReason::Deadline,
        }
    );

    // Budget outranks a raised cancel flag at the same boundary.
    let control = ExploreControl {
        deadline: Some(Duration::ZERO),
        candidate_budget: Some(0),
        cancel: Arc::new(AtomicBool::new(true)),
    };
    let budgeted = run_engine(&options(control));
    assert_eq!(
        budgeted.completeness,
        Completeness::Truncated {
            candidates_remaining: total,
            reason: TruncationReason::CandidateBudget,
        }
    );
}

/// A cancel raised asynchronously from another thread lands at *some*
/// candidate boundary `k`; wherever it lands, the result equals the
/// serial reference truncated at the same `k` (or the complete result if
/// the sweep won the race).
#[test]
fn async_cancel_truncates_at_a_sound_boundary() {
    let control = ExploreControl::default();
    let handle = control.cancel_handle();
    let flipper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_micros(200));
        handle.store(true, Ordering::Relaxed);
    });
    let engine = run_engine(&options(control));
    flipper.join().unwrap();
    let k = engine.stats.candidates_seen;
    let reference = run_reference(&ExploreControl::with_budget(k));
    // Completeness tags differ in reason (Cancelled vs CandidateBudget)
    // when the flag landed mid-sweep; everything else is bit-identical.
    assert_eq!(engine.feasible.len(), reference.feasible.len());
    for (e, r) in engine.feasible.iter().zip(&reference.feasible) {
        assert_eq!(e.arch.name(), r.arch.name());
        assert_eq!(e.est_et_ns.to_bits(), r.est_et_ns.to_bits());
    }
    assert_eq!(engine.pareto, reference.pareto);
    assert_eq!(engine.best, reference.best);
}

/// Marker embedded in the injected panic so the test's panic-hook filter
/// can mute the expected worker panic without hiding real ones.
const FAULT_MARKER: &str = "anytime-test-injected-fault";

fn mute_injected_panics() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let muted = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(FAULT_MARKER))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains(FAULT_MARKER));
            if !muted {
                default(info);
            }
        }));
    });
}

/// A candidate whose delay synthesis panics is isolated: the run
/// completes, `stats.faulted` counts it, the other candidates'
/// evaluations are untouched bit for bit, and — when the faulted
/// candidate was not on the frontier — the Pareto set and selection are
/// unchanged.
#[test]
fn injected_panic_is_isolated_and_counted() {
    mute_injected_panics();
    let clean = run_engine(&options(Default::default()));
    // Pick a feasible candidate that is NOT on the Pareto frontier, so
    // dropping it must leave the frontier and selection unchanged.
    let target = clean
        .feasible
        .iter()
        .enumerate()
        .find(|(i, _)| !clean.pareto.contains(i))
        .map(|(_, p)| p.arch.name().to_string())
        .expect("extended space has non-frontier feasible points");

    let fault_target = target.clone();
    let faulty = DelayModel::new().with_fault_hook(move |arch| {
        if arch.name() == fault_target {
            panic!("{FAULT_MARKER}: {}", arch.name());
        }
    });
    let mut opts = options(Default::default());
    opts.cache = Some(Arc::new(ModelCache::with_models(AreaModel::new(), faulty)));
    let faulted = run_engine(&opts);

    assert_eq!(faulted.stats.faulted, 1);
    assert!(faulted.completeness.is_complete());
    assert_eq!(faulted.stats.candidates_seen, clean.stats.candidates_seen);
    assert_eq!(faulted.feasible.len(), clean.feasible.len() - 1);
    // Every surviving evaluation is bit-identical to the clean run's.
    let mut clean_iter = clean.feasible.iter().filter(|p| p.arch.name() != target);
    for f in &faulted.feasible {
        let c = clean_iter.next().unwrap();
        assert_eq!(f.arch.name(), c.arch.name());
        assert_eq!(f.area_slices.to_bits(), c.area_slices.to_bits());
        assert_eq!(f.est_et_ns.to_bits(), c.est_et_ns.to_bits());
    }
    let names = |r: &Exploration| -> Vec<String> {
        r.pareto_points()
            .map(|p| p.arch.name().to_string())
            .collect()
    };
    assert_eq!(names(&faulted), names(&clean));
    assert_eq!(
        faulted.best_point().arch.name(),
        clean.best_point().arch.name()
    );
}
