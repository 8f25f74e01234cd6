//! End-to-end flow adapter — the `rsp/flow` benchmark
//! (`BENCH_flow.json`).
//!
//! Times the complete Fig. 7 flow ([`rsp_core::run_flow`]: profiling →
//! base-architecture exploration over three candidate geometries →
//! pipeline mapping → RSP exploration → exact RSP mapping) over the full
//! kernel suite. Tracked labels:
//!
//! * `flow-paper` — the paper's 12-point space over **three candidate
//!   geometries** (4×4, 6×6, 8×8) and the paper suite *plus* the
//!   generated `matmul11` (`rsp_workload::generators`), which overflows
//!   the 4×4 configuration cache: the serial geometry oracle no longer
//!   early-exits at 4×4 — both paths walk to the 6×6 (the
//!   `selected_pe_count: 36` anchor) — so the report measures real
//!   multi-geometry work plus exact-stage refinement where exploration
//!   itself is cheap.
//! * `flow-deep` — the 480-candidate deep space pinned to the paper's
//!   8×8 base, with a wide estimation frontier for the exact stage
//!   (`candidates_pruned` / `clock_bound_cuts` per row).
//!
//! Flow configurations measured per space:
//!
//! * `serial-reference` — `parallelism: Some(1)`: the serial geometry
//!   oracle, one-thread exploration, and serial exact rearrangement of
//!   every frontier candidate. The normalization yardstick.
//! * `flow-parallel` — all cores (isolates the fan-out win).
//!
//! Both rows produce bit-identical flow outputs (property-tested in
//! `rsp-core`); only the work they perform differs. This module also
//! owns `measure_configs`, the measurement scaffold the workload adapter
//! ([`crate::adapters::workload`]) reuses — only the workload and the
//! [`FlowConfig`] constructor differ between the two artifacts.

use crate::gate::{time_median, BenchReport, EngineRow};
use rsp_core::{run_flow, AppProfile, DesignSpace, FlowConfig, FlowReport, Objective};
use rsp_kernel::suite;
use std::hint::black_box;

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

fn config(label: &str, parallelism: Option<usize>) -> FlowConfig {
    let (space, geometries) = space_for(label).expect("known flow label");
    FlowConfig {
        coverage: 1.0,
        geometries,
        space,
        objective: Objective::AreaDelayProduct,
        parallelism,
        ..FlowConfig::default()
    }
}

fn row_from(
    name: &str,
    median: u64,
    min: u64,
    samples: u32,
    reference_median: u64,
    report: &FlowReport,
) -> EngineRow {
    EngineRow {
        name: name.into(),
        median_ns: median,
        min_ns: min,
        samples,
        speedup_vs_reference: reference_median as f64 / median as f64,
        feasible: report.exploration.feasible.len(),
        candidates_seen: report.exploration.stats.candidates_seen,
        candidates_pruned: report.stats.candidates_pruned,
        clock_bound_cuts: report.stats.clock_bound_cuts,
        refill_segments: report.stats.refill_segments,
        refill_stall_cycles: report.stats.refill_stall_cycles,
    }
}

/// Measures the two tracked flow configurations (`serial-reference`,
/// `flow-parallel`) over `apps` and assembles the report — the scaffold
/// shared with the workload adapter; only the workload and the
/// [`FlowConfig`] constructor differ between the artifacts.
pub(crate) fn measure_configs(
    label: &str,
    apps: &[AppProfile],
    candidates: usize,
    samples: u32,
    config: &dyn Fn(Option<usize>) -> FlowConfig,
) -> BenchReport {
    let mut rows: Vec<EngineRow> = Vec::new();
    let mut reference_median = 0u64;
    let mut selected_pe_count = 0;
    for (name, parallelism) in [("serial-reference", Some(1)), ("flow-parallel", None)] {
        let cfg = config(parallelism);
        let mut last = None;
        let (median, min) = time_median(samples, || {
            last = Some(run_flow(black_box(apps), &cfg).expect("flow runs"));
        });
        let last = last.unwrap();
        if name == "serial-reference" {
            reference_median = median;
            selected_pe_count = last.base.geometry().pe_count();
        }
        rows.push(row_from(
            name,
            median,
            min,
            samples,
            reference_median,
            &last,
        ));
    }

    BenchReport {
        space: label.into(),
        candidates,
        kernels: apps.iter().map(|a| a.kernels.len()).sum(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        samples,
        selected_pe_count,
        engines: rows,
    }
}

/// Measures one tracked label (`flow-paper` / `flow-deep`) with
/// `samples` measured repetitions per configuration; `None` for an
/// unknown label.
pub fn measure(label: &str, samples: u32) -> Option<BenchReport> {
    let (space, _) = space_for(label)?;
    let apps = workload();
    Some(measure_configs(
        label,
        &apps,
        space.plans().count(),
        samples,
        &|parallelism| config(label, parallelism),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_benchmark_runs_and_reports_cut_counters() {
        let report = measure("flow-paper", 1).unwrap();
        let names: Vec<&str> = report.engines.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["serial-reference", "flow-parallel"]);
        // The generated matmul11 overflows the 4×4, so the multi-geometry
        // exploration escalates to the 6×6 — no more 4×4 early exit.
        assert_eq!(report.selected_pe_count, 36);
        // Both rows run the one engine, so they report the same cuts.
        let (serial, parallel) = (&report.engines[0], &report.engines[1]);
        assert_eq!(serial.candidates_pruned, parallel.candidates_pruned);
        assert!(parallel.clock_bound_cuts <= parallel.candidates_pruned);
        // Same artifact schema as the exploration benchmark.
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("refill_segments"));
        // Unknown labels are refused.
        assert!(measure("flow-imaginary", 1).is_none());
    }
}
