//! Property tests: observability is *purely observational*. Running the
//! exploration engine or the full flow under any recorder — the no-op
//! [`NullRecorder`], the in-memory [`RingRecorder`], a streaming
//! [`JsonlRecorder`] — produces results bit-identical (exact f64 bit
//! patterns, same frontier, same chosen design) to the uninstrumented
//! run, while the instrumented runs demonstrably record events.

use proptest::prelude::*;
use rsp_arch::{presets, BaseArchitecture};
use rsp_core::{
    explore_with, run_flow, AppProfile, Constraints, DesignSpace, Exploration, ExploreOptions,
    FlowConfig, Objective,
};
use rsp_kernel::Kernel;
use rsp_mapper::{map, ConfigContext, MapOptions};
use rsp_obs::{JsonlRecorder, NullRecorder, Recorder, RingRecorder};
use std::sync::{Arc, OnceLock};

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

/// The three recorder shapes under test: disabled, in-memory, and
/// streaming (into a sink — the write path still runs in full).
fn recorders() -> Vec<(&'static str, Arc<dyn Recorder>)> {
    vec![
        ("null", Arc::new(NullRecorder)),
        ("ring", Arc::new(RingRecorder::new(4096))),
        (
            "jsonl",
            Arc::new(JsonlRecorder::new(Box::new(std::io::sink()))),
        ),
    ]
}

fn assert_bit_identical(label: &str, engine: &Exploration, reference: &Exploration) {
    assert_eq!(
        engine.feasible.len(),
        reference.feasible.len(),
        "{label}: feasible size"
    );
    for (e, r) in engine.feasible.iter().zip(&reference.feasible) {
        assert_eq!(e.arch.plan(), r.arch.plan(), "{label}");
        assert_eq!(e.area_slices.to_bits(), r.area_slices.to_bits(), "{label}");
        assert_eq!(e.clock_ns.to_bits(), r.clock_ns.to_bits(), "{label}");
        assert_eq!(e.est_cycles, r.est_cycles, "{label}");
        assert_eq!(e.est_et_ns.to_bits(), r.est_et_ns.to_bits(), "{label}");
    }
    assert_eq!(engine.pareto, reference.pareto, "{label}: pareto");
    assert_eq!(engine.best, reference.best, "{label}: best");
    assert_eq!(
        engine.base_et_ns.to_bits(),
        reference.base_et_ns.to_bits(),
        "{label}"
    );
    assert_eq!(
        engine.stats.candidates_seen, reference.stats.candidates_seen,
        "{label}"
    );
    assert_eq!(
        engine.stats.candidates_pruned, reference.stats.candidates_pruned,
        "{label}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Exploration under every recorder reproduces the NullRecorder
    /// run bit for bit, across thread counts and both paper and extended
    /// spaces.
    #[test]
    fn exploration_is_bit_identical_under_any_recorder(
        threads in 1usize..=4,
        extended in any::<bool>(),
    ) {
        let (base, kernels, contexts) = fixture();
        let weights = vec![1.0; kernels.len()];
        let space = if extended { DesignSpace::extended() } else { DesignSpace::paper() };
        let options = |recorder: Arc<dyn Recorder>| ExploreOptions {
            parallelism: Some(threads),
            constraints: Constraints::default(),
            objective: Objective::AreaDelayProduct,
            cache: None,
            profiles: None,
            control: Default::default(),
            recorder,
        };
        let reference = explore_with(
            base, kernels, contexts, &weights, &space, &options(Arc::new(NullRecorder)),
        ).unwrap();
        for (label, recorder) in recorders() {
            let instrumented = recorder.enabled();
            let run = explore_with(
                base, kernels, contexts, &weights, &space, &options(recorder),
            ).unwrap();
            assert_bit_identical(label, &run, &reference);
            prop_assert_eq!(instrumented, label != "null");
        }
    }
}

/// The full flow — profiling, base selection, exploration, exact
/// rearrangement — is bit-identical under all three recorders, and the
/// enabled recorders actually observe every phase.
#[test]
fn flow_is_bit_identical_under_any_recorder() {
    let apps = vec![AppProfile::new(
        "video",
        vec![
            (rsp_kernel::suite::fdct(), 99),
            (rsp_kernel::suite::sad(), 396),
        ],
    )];
    let config = |recorder: Arc<dyn Recorder>| FlowConfig {
        recorder,
        ..FlowConfig::default()
    };
    let reference = run_flow(&apps, &config(Arc::new(NullRecorder))).unwrap();

    for (label, recorder) in recorders() {
        let report = run_flow(&apps, &config(Arc::clone(&recorder))).unwrap();
        assert_eq!(report.chosen.plan(), reference.chosen.plan(), "{label}");
        assert_eq!(
            report.area_slices.to_bits(),
            reference.area_slices.to_bits(),
            "{label}"
        );
        assert_eq!(
            report.base_area_slices.to_bits(),
            reference.base_area_slices.to_bits(),
            "{label}"
        );
        assert_eq!(
            report.weighted_et_ns().to_bits(),
            reference.weighted_et_ns().to_bits(),
            "{label}"
        );
        assert_eq!(
            report.stats.refill_segments, reference.stats.refill_segments,
            "{label}"
        );
        assert_eq!(
            report.stats.refill_stall_cycles, reference.stats.refill_stall_cycles,
            "{label}"
        );
    }

    // The ring recorder saw every flow phase, in order of first use.
    let ring = Arc::new(RingRecorder::new(4096));
    run_flow(&apps, &config(ring.clone())).unwrap();
    let phases: Vec<&str> = ring
        .summary()
        .iter()
        .filter(|((target, _), _)| *target == "flow")
        .map(|((_, name), _)| *name)
        .collect();
    for expected in ["profile", "select_base", "explore", "exact", "rearrange"] {
        assert!(
            phases.contains(&expected),
            "flow phase {expected:?} not recorded; got {phases:?}"
        );
    }

    // The jsonl recorder streamed well-formed lines (counted, no errors).
    let jsonl = Arc::new(JsonlRecorder::new(Box::new(std::io::sink())));
    run_flow(&apps, &config(jsonl.clone())).unwrap();
    assert!(jsonl.lines() > 0, "jsonl recorder wrote no events");
    assert_eq!(jsonl.errors(), 0);
}
