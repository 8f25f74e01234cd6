//! Generated-workload flow adapter — the `rsp/workload` benchmark
//! (`BENCH_workload.json`).
//!
//! Runs the complete Fig. 7 flow over the **generated workload suite**
//! ([`rsp_workload::registry`]: committed under `workloads/`,
//! regenerated by `workloadgen`) instead of the paper's fixed nine
//! kernels. The suite is built to exercise big geometries: its
//! multi-geometry base-architecture exploration (4×4, 6×6, 8×8
//! candidates) genuinely selects the paper's **8×8** array —
//! `reduce8192x8x8` overflows the smaller arrays' configuration caches —
//! and the report's `selected_pe_count: 64` anchor gates that selection
//! in CI alongside the other exact anchors.
//!
//! The suite also contains `matmul16`, whose rearranged schedules
//! outgrow the 256-deep configuration cache on stall-heavy sharing
//! variants (561 contexts on RS#1): the exact stage splits them across
//! cache refills, and the per-row `refill_segments` /
//! `refill_stall_cycles` anchors gate that behavior — nonzero on every
//! row, exact-drift-checked by the shared gate.
//!
//! One tracked label (`flow-workload`, the paper's 12-point space) with
//! the same single row as the flow adapter: `serial-reference`.

use super::flow::measure_configs;
use super::Measured;
use rsp_core::{AppProfile, Constraints, DesignSpace, FlowConfig, Objective};
use rsp_workload::{registry, SUITE_MAX_SLOWDOWN};

/// The generated workload suite as one domain, coverage 1.0 so every
/// workload becomes a critical loop.
fn workload() -> Vec<AppProfile> {
    vec![AppProfile::new(
        "generated-suite",
        registry().into_iter().map(|k| (k, 1)).collect(),
    )]
}

fn config() -> FlowConfig {
    FlowConfig {
        coverage: 1.0,
        // Genuinely multi-geometry: nothing pins the 8×8 — the suite
        // earns it by overflowing the smaller caches.
        geometries: vec![(4, 4), (6, 6), (8, 8)],
        space: DesignSpace::paper(),
        objective: Objective::AreaDelayProduct,
        // The suite-wide cap (rationale on the constant): the paper's
        // 1.5× would reject the whole space under matmul16's stall
        // estimates.
        constraints: Constraints {
            enforce_cost_bound: true,
            max_slowdown: SUITE_MAX_SLOWDOWN,
        },
        ..FlowConfig::default()
    }
}

/// Measures the tracked label (`flow-workload`); `None` for an unknown
/// label. The scaffold is shared with the flow adapter
/// ([`crate::adapters::flow`]).
pub fn measure(label: &str) -> Option<Measured> {
    if label != "flow-workload" {
        return None;
    }
    let apps = workload();
    Some(measure_configs(
        label,
        &apps,
        DesignSpace::paper().plans().count(),
        &config,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_benchmark_selects_the_8x8_geometry() {
        let report = measure("flow-workload").unwrap().report;
        assert_eq!(report.selected_pe_count, 64);
        assert_eq!(report.engines.len(), 1);
        assert_eq!(report.engines[0].name, "serial-reference");
        assert_eq!(report.kernels, registry().len());
        // matmul16 forces the exact stage through the schedule splitter:
        // the refill anchors the gate enforces are nonzero.
        for e in &report.engines {
            assert!(e.refill_segments > 0, "{}: no refill segments", e.name);
            assert!(e.refill_stall_cycles > 0, "{}: no refill stalls", e.name);
        }
        // Unknown labels are refused.
        assert!(measure("flow-imaginary").is_none());
    }
}
