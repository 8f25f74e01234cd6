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

fn multi_geometry() -> FlowConfig {
    FlowConfig {
        coverage: 1.0,
        geometries: vec![(4, 4), (6, 6), (8, 8)],
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
    // cache, so a genuinely multi-geometry exploration must walk through
    // them, smallest first, and land on the paper's 8×8 — not because
    // it was pinned.
    let report = run_flow(&workload_apps(), &multi_geometry()).unwrap();
    assert_eq!(report.base.geometry().rows(), 8);
    assert_eq!(report.base.geometry().cols(), 8);
    assert_eq!(report.stats.geometries_considered, 3);
    assert_eq!(report.stats.geometries_explored, 3);
    // The flow still finds a sharing design smaller than the base.
    assert!(report.area_slices < report.base_area_slices);
}

#[test]
fn generated_families_escalate_geometry_stepwise() {
    // The intermediate escalation step: matmul11 overflows a 4×4 but
    // fits a 6×6; the big mult-free reduction overflows both.
    let apps = |k| vec![AppProfile::new("m", vec![(k, 1)])];
    let cfg = multi_geometry();
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
    let report = run_flow(&workload_apps(), &multi_geometry()).unwrap();
    assert!(
        report.stats.refill_segments > 0,
        "no exact rearrangement was split: {:?}",
        report.stats
    );
    assert!(report.stats.refill_stall_cycles > 0);
    // Untruncated, the exact stage settles every frontier candidate:
    // each one either rearranges or fails.
    assert_eq!(
        report.stats.rearranged_candidates + report.stats.rearrangements_failed,
        report.stats.frontier_candidates
    );
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
