//! Mixed-space adapter — the `rsp/deep100` benchmark
//! (`BENCH_deep100.json`).
//!
//! Sweeps [`DesignSpace::deep100`] — the mixed multi-kind space of
//! 11,024 candidates (Mult × Alu × Shifter sharing axes) — the first
//! tracked space past the 10⁴-candidate mark. Engine rows only: the
//! dense-histogram serial reference rebuilds a `cycles × rows × cols`
//! demand per shared group per candidate, which at this scale is mostly
//! allocator churn, so the `serial-reference` row is the
//! allocation-free engine pinned to one thread (documented here and in
//! METHODOLOGY.md; the engine-vs-oracle equivalence itself is
//! property-tested in rsp-core on smaller spaces, including a corner of
//! this one where the clock-floor cut fires).
//!
//! * `serial-reference` — the engine on one thread.
//! * `engine-parallel` — the engine on all cores.
//!
//! While measuring, the adapter asserts that the space clears 10⁴
//! candidates and that the parallel frontier is bit-identical to the
//! one-thread frontier; the exact cut counts are the gate's anchors.

use super::{Measured, Rows};
use crate::gate::EngineRow;
use rsp_arch::presets;
use rsp_core::{explore_with, DesignSpace, Exploration, ExploreOptions};
use rsp_kernel::suite;
use rsp_mapper::{map, MapOptions};

/// Minimum candidate count the tracked space must enumerate.
const MIN_CANDIDATES: usize = 10_000;

/// Measures the one tracked label (`deep100`); `None` for an unknown
/// label.
pub fn measure(label: &str) -> Option<Measured> {
    (label == "deep100").then(run)
}

/// A row's frontier must match the reference row's bit-for-bit: same
/// candidates by name, same synthesized numbers to the bit.
fn assert_frontier_identical(reference: &Exploration, row_run: &Exploration, row: &str) {
    let a: Vec<_> = reference.pareto_points().collect();
    let b: Vec<_> = row_run.pareto_points().collect();
    assert_eq!(a.len(), b.len(), "{row}: frontier size diverged");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.arch.name(), y.arch.name(), "{row}: frontier candidate");
        assert_eq!(
            x.area_slices.to_bits(),
            y.area_slices.to_bits(),
            "{row}: area of {}",
            x.arch.name()
        );
        assert_eq!(
            x.est_et_ns.to_bits(),
            y.est_et_ns.to_bits(),
            "{row}: est et of {}",
            x.arch.name()
        );
        assert_eq!(
            x.clock_ns.to_bits(),
            y.clock_ns.to_bits(),
            "{row}: clock of {}",
            x.arch.name()
        );
    }
}

/// Runs the deep100 benchmark, each engine once.
pub fn run() -> Measured {
    let space = DesignSpace::deep100();
    let base = presets::base_8x8().base().clone();
    let kernels = suite::all();
    let contexts: Vec<_> = kernels
        .iter()
        .map(|k| map(&base, k, &MapOptions::default()).expect("suite maps"))
        .collect();
    let weights = vec![1.0; kernels.len()];

    let mut rows = Rows::default();
    let mut runs: Vec<Exploration> = Vec::new();
    for (name, parallelism) in [("serial-reference", Some(1)), ("engine-parallel", None)] {
        let run = rows.record(
            || {
                let opts = ExploreOptions {
                    parallelism,
                    ..ExploreOptions::default()
                };
                explore_with(&base, &kernels, &contexts, &weights, &space, &opts)
                    .expect("deep100 explores")
            },
            |r, events| EngineRow::from_exploration(name, r, events),
        );
        assert!(
            run.stats.candidates_seen >= MIN_CANDIDATES,
            "{name}: space shrank below {MIN_CANDIDATES} candidates \
             ({} seen)",
            run.stats.candidates_seen
        );
        if let Some(reference) = runs.first() {
            assert_frontier_identical(reference, &run, name);
        }
        runs.push(run);
    }
    // Exploration is pinned to the 8×8 base: no geometry is selected.
    rows.measured("deep100", space.plans().count(), kernels.len(), 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_runs_and_asserts_its_anchors() {
        let report = measure("deep100").unwrap().report;
        assert_eq!(report.candidates, 11_024);
        let names: Vec<&str> = report.engines.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["serial-reference", "engine-parallel"]);
        // Both rows run the one engine, so every anchor agrees; the
        // clock-floor cut fires on this space.
        let (reference, parallel) = (&report.engines[0], &report.engines[1]);
        assert!(reference.candidates_seen >= MIN_CANDIDATES);
        assert!(reference.clock_bound_cuts > 0);
        for (a, b) in [
            (reference.feasible, parallel.feasible),
            (reference.candidates_seen, parallel.candidates_seen),
            (reference.candidates_pruned, parallel.candidates_pruned),
            (reference.clock_bound_cuts, parallel.clock_bound_cuts),
        ] {
            assert_eq!(a, b);
        }
        assert!(measure("deep").is_none());
    }
}
