//! End-to-end flow integration: registry workloads drive
//! `rsp_core::run_flow`, and the generated kernel families finally give
//! multi-geometry base-architecture exploration a reason to leave the
//! 4×4 array (the standing ROADMAP note this subsystem closes).

use rsp_core::{run_flow, AppProfile, Constraints, FlowConfig};
use rsp_workload::{generators, registry, SUITE_MAX_SLOWDOWN};

fn workload_apps() -> Vec<AppProfile> {
    vec![AppProfile::new(
        "generated-suite",
        registry().into_iter().map(|k| (k, 1)).collect(),
    )]
}

fn multi_geometry(parallelism: Option<usize>) -> FlowConfig {
    FlowConfig {
        coverage: 1.0,
        geometries: vec![(4, 4), (6, 6), (8, 8)],
        parallelism,
        // The paper's 1.5× cap (rationale on the constant): honest now
        // that the estimator is admissible.
        constraints: Constraints {
            enforce_cost_bound: true,
            max_slowdown: SUITE_MAX_SLOWDOWN,
        },
        ..FlowConfig::default()
    }
}

#[test]
fn workload_suite_selects_the_8x8_geometry() {
    // reduce8192x8x8 exceeds both the 4×4 and the 6×6 configuration
    // cache, so a genuinely multi-geometry exploration must land on the
    // paper's 8×8 — not because it was pinned.
    let report = run_flow(&workload_apps(), &multi_geometry(None)).unwrap();
    assert_eq!(report.base.geometry().rows(), 8);
    assert_eq!(report.base.geometry().cols(), 8);
    assert_eq!(report.stats.geometries_considered, 3);
    assert_eq!(report.stats.geometries_explored, 3);
    // The flow still finds a sharing design smaller than the base.
    assert!(report.area_slices < report.base_area_slices);
}

#[test]
fn serial_oracle_no_longer_early_exits_at_4x4() {
    // The serial geometry oracle walks geometries smallest-first and
    // stops at the first feasible one; with reduce8192x8x8 in the
    // profile it must walk straight through 4×4 and 6×6.
    let report = run_flow(&workload_apps(), &multi_geometry(Some(1))).unwrap();
    assert_eq!(report.stats.geometries_explored, 3);
    assert_eq!(report.base.geometry().pe_count(), 64);
}

#[test]
fn generated_families_escalate_geometry_stepwise() {
    // The intermediate escalation step: matmul11 overflows a 4×4 but
    // fits a 6×6; the big mult-free reduction overflows both.
    let apps = |k| vec![AppProfile::new("m", vec![(k, 1)])];
    let cfg = multi_geometry(None);
    let r12 = run_flow(&apps(generators::matmul(11)), &cfg).unwrap();
    assert_eq!(r12.base.geometry().pe_count(), 36);
    let big = run_flow(&apps(generators::reduction(8192, 8, 8)), &cfg).unwrap();
    assert_eq!(big.base.geometry().pe_count(), 64);
}

#[test]
fn workload_flow_charges_refill_instead_of_rejecting() {
    // With matmul16 in the suite, stall-heavy frontier candidates
    // rearrange schedules past the 256-deep cache. The flow must split
    // them (nonzero refill counters), fail only the honestly
    // unsplittable pipelined combinations, and still choose a design.
    let report = run_flow(&workload_apps(), &multi_geometry(None)).unwrap();
    assert!(
        report.stats.refill_segments > 0,
        "no exact rearrangement was split: {:?}",
        report.stats
    );
    assert!(report.stats.refill_stall_cycles > 0);
    // The chosen design's own contexts expose their plans.
    let split: Vec<_> = report
        .rsp_contexts
        .iter()
        .filter(|r| r.refill.is_split())
        .collect();
    for r in &split {
        assert_eq!(r.refill_stalls(), r.elapsed_cycles() - r.total_cycles);
    }
    // Perf rows carry the refill columns consistently.
    for (p, r) in report.perf.iter().zip(&report.rsp_contexts) {
        assert_eq!(p.refill_stalls, r.refill_stalls(), "{}", p.kernel);
        assert_eq!(p.refill_segments as usize, r.refill_count(), "{}", p.kernel);
        assert_eq!(p.cycles, r.elapsed_cycles(), "{}", p.kernel);
    }
}

#[test]
fn parallel_workload_flow_with_refill_is_bit_identical_to_serial() {
    // The equivalence property on the refill-exercising workload: the
    // parallel flow leaves every flow output bit-identical to the serial
    // flow, refill penalties included.
    let apps = workload_apps();
    let serial = run_flow(&apps, &multi_geometry(Some(1))).unwrap();
    let parallel = run_flow(&apps, &multi_geometry(None)).unwrap();
    assert_eq!(serial.base.geometry(), parallel.base.geometry());
    assert_eq!(serial.contexts, parallel.contexts);
    assert_eq!(serial.chosen.name(), parallel.chosen.name());
    assert_eq!(serial.chosen.plan(), parallel.chosen.plan());
    assert_eq!(serial.rsp_contexts, parallel.rsp_contexts);
    for (a, b) in serial.perf.iter().zip(&parallel.perf) {
        assert_eq!(a.cycles, b.cycles, "{}", a.kernel);
        assert_eq!(a.et_ns.to_bits(), b.et_ns.to_bits(), "{}", a.kernel);
        assert_eq!(a.refill_stalls, b.refill_stalls, "{}", a.kernel);
        assert_eq!(a.refill_segments, b.refill_segments, "{}", a.kernel);
    }
    assert_eq!(serial.area_slices.to_bits(), parallel.area_slices.to_bits());
    // Both flows exercised the splitter on the same frontier.
    assert!(parallel.stats.refill_segments > 0);
    assert_eq!(serial.stats.refill_segments, parallel.stats.refill_segments);
    assert_eq!(
        serial.stats.refill_stall_cycles,
        parallel.stats.refill_stall_cycles
    );
}

#[test]
fn matmul16_mapping_exceeds_4x4_and_6x6_capacity() {
    // Pure mapping capacity (no flow): matmul16's base schedule
    // overflows the 4×4 and 6×6 configuration caches and lands on 8×8.
    use rsp_arch::{ArrayGeometry, BaseArchitecture, BusSpec, PeDesign};
    use rsp_mapper::{map, MapError, MapOptions};
    let k = generators::matmul(16);
    let base = |r, c| {
        BaseArchitecture::new(
            ArrayGeometry::new(r, c),
            PeDesign::full(),
            BusSpec::paper_default(),
            256,
        )
    };
    for (r, c) in [(4, 4), (6, 6)] {
        let err = map(&base(r, c), &k, &MapOptions::default()).unwrap_err();
        assert!(
            matches!(err, MapError::ConfigCacheExceeded { .. }),
            "{r}x{c}"
        );
    }
    assert!(map(&base(8, 8), &k, &MapOptions::default()).is_ok());
}
