//! Exploration-engine adapter — the `rsp/explore` benchmark
//! (`BENCH_explore.json`).
//!
//! Measures the exploration engine against the serial reference over a
//! named design space. The tracked labels (see the registry definition)
//! are:
//!
//! * `extended` — the engine-speedup trajectory tracked since the engine
//!   rebuild.
//! * `deep` — the 480-candidate space, where the engine's slowdown cuts
//!   settle part of the space (`candidates_pruned` / `clock_bound_cuts`
//!   per row, anchored exactly).
//!
//! (`paper`, the 12-point space, is also accepted — it is the cheap
//! label the adapter's own tests and fabricated CLI fixtures use.)
//!
//! Engines measured per space, all over the full kernel suite with
//! uniform weights:
//!
//! * `serial-reference` — [`rsp_core::explore_reference`], the paper-
//!   faithful baseline: clones the base per candidate, re-synthesizes
//!   every report, rebuilds dense demand histograms.
//! * `engine-1-thread` — the allocation-free engine pinned to one thread
//!   (isolates the algorithmic win from parallel speedup): the
//!   core-count-independent row the cross-host timing gate always
//!   holds.
//! * `engine-parallel` — the engine on all cores.

use crate::gate::{time_median, BenchReport, EngineRow};
use rsp_arch::presets;
use rsp_core::{
    explore_reference, explore_with, Constraints, DesignSpace, ExploreOptions, Objective,
};
use rsp_kernel::suite;
use rsp_mapper::{map, MapOptions};
use std::hint::black_box;

/// The design space a report label names.
fn space_for(label: &str) -> Option<DesignSpace> {
    match label {
        "paper" => Some(DesignSpace::paper()),
        "extended" => Some(DesignSpace::extended()),
        "deep" => Some(DesignSpace::deep()),
        _ => None,
    }
}

/// Measures one tracked label (`extended` / `deep` / `paper`) with
/// `samples` measured repetitions per engine; `None` for an unknown
/// label. The registry's generic runner and gate are the callers.
pub fn measure(label: &str, samples: u32) -> Option<BenchReport> {
    space_for(label).map(|space| run(&space, label, samples))
}

/// Runs the exploration benchmark on `space` with `samples` measured
/// repetitions per engine.
pub fn run(space: &DesignSpace, space_label: &str, samples: u32) -> BenchReport {
    let base = presets::base_8x8().base().clone();
    let kernels = suite::all();
    let contexts: Vec<_> = kernels
        .iter()
        .map(|k| map(&base, k, &MapOptions::default()).expect("suite maps"))
        .collect();
    let weights = vec![1.0; kernels.len()];
    let constraints = Constraints::default();
    let objective = Objective::AreaDelayProduct;

    // Each engine run gets a fresh run-local cache (`cache: None`) so the
    // rows measure full cost, not a warmed memo.
    let engine_opts = |parallelism: Option<usize>| ExploreOptions {
        parallelism,
        constraints,
        objective,
        cache: None,
        profiles: None,
        control: Default::default(),
        recorder: rsp_obs::global(),
    };

    let mut rows: Vec<EngineRow> = Vec::new();

    // Reference baseline.
    let reference_median = {
        let mut last = None;
        let (median, min) = time_median(samples, || {
            last = Some(
                explore_reference(
                    black_box(&base),
                    &kernels,
                    &contexts,
                    &weights,
                    space,
                    &constraints,
                    objective,
                )
                .expect("reference explores"),
            );
        });
        let last = last.unwrap();
        rows.push(EngineRow {
            name: "serial-reference".into(),
            median_ns: median,
            min_ns: min,
            samples,
            speedup_vs_reference: 1.0,
            feasible: last.feasible.len(),
            candidates_seen: last.stats.candidates_seen,
            candidates_pruned: 0,
            clock_bound_cuts: 0,
            refill_segments: 0,
            refill_stall_cycles: 0,
        });
        median
    };

    for (name, parallelism) in [("engine-1-thread", Some(1)), ("engine-parallel", None)] {
        let opts = engine_opts(parallelism);
        let mut last = None;
        let (median, min) = time_median(samples, || {
            last = Some(
                explore_with(
                    black_box(&base),
                    &kernels,
                    &contexts,
                    &weights,
                    space,
                    &opts,
                )
                .expect("engine explores"),
            );
        });
        let last = last.unwrap();
        rows.push(EngineRow {
            name: name.into(),
            median_ns: median,
            min_ns: min,
            samples,
            speedup_vs_reference: reference_median as f64 / median as f64,
            feasible: last.feasible.len(),
            candidates_seen: last.stats.candidates_seen,
            candidates_pruned: last.stats.candidates_pruned,
            clock_bound_cuts: last.stats.clock_bound_cuts,
            refill_segments: 0,
            refill_stall_cycles: 0,
        });
    }

    BenchReport {
        space: space_label.into(),
        candidates: space.plans().count(),
        kernels: kernels.len(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        samples,
        selected_pe_count: 0, // exploration is pinned to the 8×8 base
        engines: rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_runs_and_engines_agree() {
        let report = measure("paper", 2).unwrap();
        let names: Vec<&str> = report.engines.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            ["serial-reference", "engine-1-thread", "engine-parallel"]
        );
        // The engines agree exactly with the reference and report their
        // cuts.
        for row in &report.engines {
            assert_eq!(row.feasible, report.engines[0].feasible, "{}", row.name);
            assert_eq!(row.candidates_seen, report.candidates, "{}", row.name);
            assert!(
                row.clock_bound_cuts <= row.candidates_pruned,
                "{}",
                row.name
            );
        }
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("serial-reference"));
        assert!(json.contains("clock_bound_cuts"));
        // Unknown labels are refused.
        assert!(measure("imaginary", 1).is_none());
    }
}
