//! Mixed-space adapter — the `rsp/deep100` benchmark
//! (`BENCH_deep100.json`).
//!
//! Sweeps [`DesignSpace::deep100`] — the mixed multi-kind space of
//! 11,024 candidates (Mult × Alu × Shifter sharing axes) — the first
//! tracked space past the 10⁴-candidate mark. One engine row: the
//! dense-histogram serial reference rebuilds a `cycles × rows × cols`
//! demand per shared group per candidate, which at this scale is mostly
//! allocator churn, so the `serial-reference` row is the
//! allocation-free engine itself (documented here and in
//! METHODOLOGY.md; the engine-vs-oracle equivalence is property-tested
//! in rsp-core on smaller spaces, including a corner of this one where
//! the clock-floor cut fires).
//!
//! While measuring, the adapter asserts that the space clears 10⁴
//! candidates; the exact cut counts are the gate's anchors.

use super::{Measured, Rows};
use crate::gate::EngineRow;
use rsp_arch::presets;
use rsp_core::{explore_with, DesignSpace, ExploreOptions};
use rsp_kernel::suite;
use rsp_mapper::{map, MapOptions};

/// Minimum candidate count the tracked space must enumerate.
const MIN_CANDIDATES: usize = 10_000;

/// Measures the one tracked label (`deep100`); `None` for an unknown
/// label.
pub fn measure(label: &str) -> Option<Measured> {
    (label == "deep100").then(run)
}

/// Runs the deep100 benchmark once.
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
    let exploration = rows.record(
        || {
            explore_with(
                &base,
                &kernels,
                &contexts,
                &weights,
                &space,
                &ExploreOptions::default(),
            )
            .expect("deep100 explores")
        },
        |r, events| EngineRow::from_exploration("serial-reference", r, events),
    );
    assert!(
        exploration.stats.candidates_seen >= MIN_CANDIDATES,
        "space shrank below {MIN_CANDIDATES} candidates ({} seen)",
        exploration.stats.candidates_seen
    );
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
        assert_eq!(names, ["serial-reference"]);
        // The clock-floor cut fires on this space.
        let row = &report.engines[0];
        assert!(row.candidates_seen >= MIN_CANDIDATES);
        assert!(row.clock_bound_cuts > 0);
        assert!(row.clock_bound_cuts <= row.candidates_pruned);
        assert!(measure("deep").is_none());
    }
}
