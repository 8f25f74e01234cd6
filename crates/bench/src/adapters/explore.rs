//! Exploration-engine adapter — the `rsp/explore` benchmark
//! (`BENCH_explore.json`).
//!
//! Runs the exploration engine and the serial reference over a named
//! design space. The tracked labels (see the registry definition) are:
//!
//! * `extended` — the 48-candidate space, where nothing is cut.
//! * `deep` — the 480-candidate space, where the engine's slowdown cuts
//!   settle part of the space (`candidates_pruned` / `clock_bound_cuts`
//!   and `explore/prune` events per row, anchored exactly).
//!
//! (`paper`, the 12-point space, is also accepted — it is the cheap
//! label the adapter's own tests and fabricated CLI fixtures use.)
//!
//! Engines run per space, all over the full kernel suite with uniform
//! weights:
//!
//! * `serial-reference` — [`rsp_core::explore_reference`], the paper-
//!   faithful oracle: clones the base per candidate, re-synthesizes
//!   every report, rebuilds dense demand histograms. It emits no events,
//!   so its row anchors results only.
//! * `engine-1-thread` — the allocation-free engine, which runs on its
//!   caller's thread (the name is the committed artifacts' row key).

use super::{Measured, Rows};
use crate::gate::EngineRow;
use rsp_arch::presets;
use rsp_core::{
    explore_reference, explore_with, Constraints, DesignSpace, ExploreOptions, Objective,
};
use rsp_kernel::suite;
use rsp_mapper::{map, MapOptions};

/// The design space a report label names.
fn space_for(label: &str) -> Option<DesignSpace> {
    match label {
        "paper" => Some(DesignSpace::paper()),
        "extended" => Some(DesignSpace::extended()),
        "deep" => Some(DesignSpace::deep()),
        _ => None,
    }
}

/// Measures one tracked label (`extended` / `deep` / `paper`); `None`
/// for an unknown label. The registry's generic runner and gate are the
/// callers.
pub fn measure(label: &str) -> Option<Measured> {
    space_for(label).map(|space| run(&space, label))
}

/// Runs the exploration benchmark on `space`, each engine once.
pub fn run(space: &DesignSpace, space_label: &str) -> Measured {
    let base = presets::base_8x8().base().clone();
    let kernels = suite::all();
    let contexts: Vec<_> = kernels
        .iter()
        .map(|k| map(&base, k, &MapOptions::default()).expect("suite maps"))
        .collect();
    let weights = vec![1.0; kernels.len()];
    let constraints = Constraints::default();
    let objective = Objective::AreaDelayProduct;

    let mut rows = Rows::default();
    rows.record(
        || {
            explore_reference(
                &base,
                &kernels,
                &contexts,
                &weights,
                space,
                &constraints,
                objective,
            )
            .expect("reference explores")
        },
        |r, events| EngineRow::from_exploration("serial-reference", r, events),
    );
    rows.record(
        || {
            // Built inside the recorded run so its recorder is the row's;
            // a fresh run-local cache (`cache: None`) so the row does the
            // full work.
            let opts = ExploreOptions {
                constraints,
                objective,
                ..ExploreOptions::default()
            };
            explore_with(&base, &kernels, &contexts, &weights, space, &opts)
                .expect("engine explores")
        },
        |r, events| EngineRow::from_exploration("engine-1-thread", r, events),
    );
    // Exploration is pinned to the 8×8 base: no geometry is selected.
    rows.measured(space_label, space.plans().count(), kernels.len(), 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_runs_and_engines_agree() {
        let report = measure("paper").unwrap().report;
        let names: Vec<&str> = report.engines.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["serial-reference", "engine-1-thread"]);
        // The engine agrees exactly with the reference and reports its
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
        assert!(measure("imaginary").is_none());
    }
}
