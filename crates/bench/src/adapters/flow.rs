//! End-to-end flow adapter — the `rsp/flow` benchmark
//! (`BENCH_flow.json`).
//!
//! Runs the complete Fig. 7 flow ([`rsp_core::run_flow`]: profiling →
//! base-architecture exploration over three candidate geometries →
//! pipeline mapping → RSP exploration → exact RSP mapping) over the full
//! kernel suite. Tracked labels:
//!
//! * `flow-paper` — the paper's 12-point space over **three candidate
//!   geometries** (4×4, 6×6, 8×8) and the paper suite *plus* the
//!   generated `matmul11` (`rsp_workload::generators`), which overflows
//!   the 4×4 configuration cache: base selection no longer stops at the
//!   4×4 but walks on to the 6×6 (the `selected_pe_count: 36` anchor),
//!   so the report covers real multi-geometry work plus exact-stage
//!   refinement where exploration itself is cheap.
//! * `flow-deep` — the 480-candidate deep space pinned to the paper's
//!   8×8 base, with a wide estimation frontier for the exact stage
//!   (`candidates_pruned` / `clock_bound_cuts` per row).
//!
//! Each label runs one row, `serial-reference`: the flow, which runs on
//! its caller's thread, with exact rearrangement of every frontier
//! candidate. Its events — every `flow/rearrange` and
//! `rearrange/schedule` span of the exact stage among them — are the
//! gate's work anchors. This module also owns `measure_configs`, the
//! scaffold the workload adapter ([`crate::adapters::workload`]) reuses
//! — only the workload and the [`FlowConfig`] constructor differ between
//! the two artifacts.

use super::{Measured, Rows};
use crate::gate::EngineRow;
use rsp_core::{run_flow, AppProfile, DesignSpace, FlowConfig, Objective};
use rsp_kernel::suite;

/// The benchmark workload: the full kernel suite plus the generated
/// `matmul11` (which a 4×4 array cannot hold) as one domain, coverage
/// 1.0 so every kernel becomes a critical loop.
fn workload() -> Vec<AppProfile> {
    let mut kernels: Vec<_> = suite::all().into_iter().map(|k| (k, 1)).collect();
    kernels.push((rsp_workload::generators::matmul(11), 1));
    vec![AppProfile::new("full-suite+generated", kernels)]
}

/// The design space and geometry list a report label names.
fn space_for(label: &str) -> Option<(DesignSpace, Vec<(usize, usize)>)> {
    match label {
        // Multi-geometry: base-architecture exploration has real work to
        // fan out (the serial oracle walks them smallest first).
        "flow-paper" => Some((DesignSpace::paper(), vec![(4, 4), (6, 6), (8, 8)])),
        // Pinned to the paper's 8×8 so the deep space's wide frontier
        // stays exercised — on the 4×4, the smallest feasible base the
        // flow would otherwise select, the frontier collapses to two
        // points.
        "flow-deep" => Some((DesignSpace::deep(), vec![(8, 8)])),
        _ => None,
    }
}

fn config(label: &str) -> FlowConfig {
    let (space, geometries) = space_for(label).expect("known flow label");
    FlowConfig {
        coverage: 1.0,
        geometries,
        space,
        objective: Objective::AreaDelayProduct,
        ..FlowConfig::default()
    }
}

/// Runs the tracked flow row (`serial-reference`) over `apps` and
/// assembles the report — the scaffold shared with the workload adapter;
/// only the workload and the [`FlowConfig`] constructor differ between
/// the artifacts.
pub(crate) fn measure_configs(
    label: &str,
    apps: &[AppProfile],
    candidates: usize,
    config: &dyn Fn() -> FlowConfig,
) -> Measured {
    let mut rows = Rows::default();
    // The config is built inside the recorded run so its recorder is the
    // row's.
    let report = rows.record(
        || run_flow(apps, &config()).expect("flow runs"),
        |r, events| EngineRow::from_flow("serial-reference", r, events),
    );
    let selected_pe_count = report.base.geometry().pe_count();
    let kernels = apps.iter().map(|a| a.kernels.len()).sum();
    rows.measured(label, candidates, kernels, selected_pe_count)
}

/// Measures one tracked label (`flow-paper` / `flow-deep`); `None` for
/// an unknown label.
pub fn measure(label: &str) -> Option<Measured> {
    let (space, _) = space_for(label)?;
    let apps = workload();
    Some(measure_configs(
        label,
        &apps,
        space.plans().count(),
        &|| config(label),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_benchmark_runs_and_reports_cut_counters() {
        let report = measure("flow-paper").unwrap().report;
        let names: Vec<&str> = report.engines.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["serial-reference"]);
        // The generated matmul11 overflows the 4×4, so the multi-geometry
        // exploration escalates to the 6×6 — no more 4×4 early exit.
        assert_eq!(report.selected_pe_count, 36);
        let row = &report.engines[0];
        assert!(row.clock_bound_cuts <= row.candidates_pruned);
        // Same artifact schema as the exploration benchmark.
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("refill_segments"));
        // Unknown labels are refused.
        assert!(measure("flow-imaginary").is_none());
    }
}
