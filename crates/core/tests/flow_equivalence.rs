//! Property tests for the parallel Fig. 7 flow: `run_flow` with the
//! rayon geometry fan-out and parallel exact stage produces bit-identical
//! *results* (base, contexts, chosen design, RSP contexts, Tables 4/5
//! performance) to the `Some(1)` serial oracle path for any thread
//! count. Work counters (`FlowStats`) may legitimately differ — the
//! serial geometry oracle early-exits.

use proptest::prelude::*;
use rsp_core::{run_flow, AppProfile, DesignSpace, FlowConfig, FlowReport, Objective};
use rsp_kernel::suite;

fn mixed_apps() -> Vec<AppProfile> {
    vec![
        AppProfile::new(
            "H.263 encoder",
            vec![(suite::fdct(), 99), (suite::sad(), 396)],
        ),
        AppProfile::new(
            "scientific",
            vec![(suite::hydro(), 50), (suite::inner_product(), 80)],
        ),
        AppProfile::new("fft", vec![(suite::fft_mult_loop(), 64)]),
    ]
}

/// Bit-exact equality of every *result* field of two flow reports
/// (work-counter stats excluded by design).
fn assert_reports_identical(a: &FlowReport, b: &FlowReport) {
    assert_eq!(a.critical_loops.len(), b.critical_loops.len());
    for (x, y) in a.critical_loops.iter().zip(&b.critical_loops) {
        assert_eq!(x.kernel.name(), y.kernel.name());
        assert_eq!(x.weight.to_bits(), y.weight.to_bits());
    }
    assert_eq!(a.base.geometry(), b.base.geometry());
    assert_eq!(a.contexts, b.contexts, "initial configuration contexts");
    assert_eq!(a.chosen.name(), b.chosen.name());
    assert_eq!(a.chosen.plan(), b.chosen.plan());
    assert_eq!(a.rsp_contexts, b.rsp_contexts, "RSP configuration contexts");
    assert_eq!(a.perf.len(), b.perf.len());
    for (x, y) in a.perf.iter().zip(&b.perf) {
        assert_eq!(x.kernel, y.kernel);
        assert_eq!(x.cycles, y.cycles, "{}", x.kernel);
        assert_eq!(x.clock_ns.to_bits(), y.clock_ns.to_bits(), "{}", x.kernel);
        assert_eq!(x.et_ns.to_bits(), y.et_ns.to_bits(), "{}", x.kernel);
        assert_eq!(x.rs_stalls, y.rs_stalls, "{}", x.kernel);
        assert_eq!(x.rp_overhead, y.rp_overhead, "{}", x.kernel);
    }
    assert_eq!(a.area_slices.to_bits(), b.area_slices.to_bits());
    assert_eq!(a.base_area_slices.to_bits(), b.base_area_slices.to_bits());
    // The estimation phase itself must agree too.
    assert_eq!(a.exploration.pareto.len(), b.exploration.pareto.len());
}

fn arb_space() -> impl Strategy<Value = DesignSpace> {
    prop_oneof![
        Just(DesignSpace::paper()),
        Just(DesignSpace::extended()),
        Just(DesignSpace::deep()),
    ]
}

fn arb_objective() -> impl Strategy<Value = Objective> {
    prop_oneof![
        Just(Objective::AreaDelayProduct),
        Just(Objective::ExecutionTime),
        Just(Objective::Area),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The rayon fan-out (geometries, exploration, exact stage) is
    /// bit-identical to the serial oracle for any thread count,
    /// multi-geometry configurations included.
    #[test]
    fn parallel_flow_matches_serial_oracle(
        threads in 2usize..=6,
        space in arb_space(),
        objective in arb_objective(),
        multi_geometry in any::<bool>(),
    ) {
        let geometries = if multi_geometry {
            vec![(4, 4), (6, 6), (8, 8)]
        } else {
            vec![(8, 8)]
        };
        let cfg = |parallelism| FlowConfig {
            geometries: geometries.clone(),
            space: space.clone(),
            objective,
            parallelism,
            ..FlowConfig::default()
        };
        let apps = mixed_apps();
        let serial = run_flow(&apps, &cfg(Some(1))).unwrap();
        let parallel = run_flow(&apps, &cfg(Some(threads))).unwrap();
        assert_reports_identical(&serial, &parallel);
        // The exact stage rearranges every frontier candidate.
        for report in [&serial, &parallel] {
            assert_eq!(
                report.stats.rearranged_candidates + report.stats.rearrangements_failed,
                report.stats.frontier_candidates
            );
        }
    }
}
