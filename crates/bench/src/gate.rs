//! Shared benchmark-artifact schema and the CI regression gate.
//!
//! Every artifact the registry tracks ([`crate::registry`]) uses the
//! same shape: [`BenchReport`]s of [`EngineRow`]s, each row an exact
//! record of one run — its correctness anchors (feasible-design counts,
//! pruning and refill counters, the estimation frontier and the pick,
//! the selected base geometry) and the work it did, as the count and
//! delta sum of every `(target, name)` event it recorded
//! ([`EventCount`]). Nothing in an artifact is a timing, so nothing in
//! it depends on the host. [`check_with`] is the gate shared by all of
//! them: it re-runs every committed report and fails on any field that
//! differs at all. The methodology is documented in
//! `crates/bench/METHODOLOGY.md`.

use rsp_core::{Exploration, FlowReport};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// How often one `(target, name)` event was recorded in a row's run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCount {
    /// Events recorded (spans, points and counts alike).
    pub count: u64,
    /// Summed `delta` of its count events (0 for spans and points).
    pub delta: u64,
}

/// A row's recorded events, keyed `target/name`.
pub type Events = BTreeMap<String, EventCount>;

/// One engine configuration's run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineRow {
    /// Engine configuration name.
    pub name: String,
    /// Feasible designs the run produced.
    pub feasible: usize,
    /// Candidate plans enumerated from the space.
    pub candidates_seen: usize,
    /// Candidates the engine cut on the slowdown constraint.
    pub candidates_pruned: usize,
    /// Candidates the stage-floor clock bound cut before delay
    /// synthesis (subset of `candidates_pruned`).
    pub clock_bound_cuts: usize,
    /// Flow rows only: configuration-cache refills performed across the
    /// exact rearrangements (schedule segments beyond the first).
    pub refill_segments: usize,
    /// Flow rows only: refill-stall cycles those splits charged.
    pub refill_stall_cycles: u64,
    /// The estimation Pareto frontier, smallest area first: one
    /// `"{name} {area_slices:?} {est_et_ns:?}"` entry per point. Floats
    /// print shortest round-trip, so equal text is equal bits.
    pub frontier: Vec<String>,
    /// The selected design: the exploration's best point, or the flow's
    /// exactly chosen architecture (empty when a truncated exploration
    /// found none).
    pub selected: String,
    /// Every event the run recorded — the work it did, counted: chunks
    /// prepared, candidates pruned, flow phases, scheduler passes,
    /// served requests.
    pub events: Events,
}

impl EngineRow {
    /// A row over one exploration's anchors.
    pub fn from_exploration(name: &str, run: &Exploration, events: Events) -> EngineRow {
        EngineRow {
            name: name.into(),
            feasible: run.feasible.len(),
            candidates_seen: run.stats.candidates_seen,
            candidates_pruned: run.stats.candidates_pruned,
            clock_bound_cuts: run.stats.clock_bound_cuts,
            refill_segments: 0,
            refill_stall_cycles: 0,
            frontier: frontier_of(run),
            selected: run
                .try_best_point()
                .map_or_else(String::new, |p| p.arch.name().to_string()),
            events,
        }
    }

    /// A row over one flow's anchors.
    pub fn from_flow(name: &str, report: &FlowReport, events: Events) -> EngineRow {
        EngineRow {
            name: name.into(),
            feasible: report.exploration.feasible.len(),
            candidates_seen: report.exploration.stats.candidates_seen,
            candidates_pruned: report.stats.candidates_pruned,
            clock_bound_cuts: report.stats.clock_bound_cuts,
            refill_segments: report.stats.refill_segments,
            refill_stall_cycles: report.stats.refill_stall_cycles,
            frontier: frontier_of(&report.exploration),
            selected: report.chosen.name().to_string(),
            events,
        }
    }

    /// The one-line anchor summary `--run` prints.
    pub fn summary(&self) -> String {
        format!(
            "{} feasible, {}/{} pruned [{} clock-cut], {} refills/{} stall-cyc, \
             {}-point frontier, selects {}",
            self.feasible,
            self.candidates_pruned,
            self.candidates_seen,
            self.clock_bound_cuts,
            self.refill_segments,
            self.refill_stall_cycles,
            self.frontier.len(),
            self.selected,
        )
    }
}

/// One [`EngineRow::frontier`] entry per Pareto point of `run`.
fn frontier_of(run: &Exploration) -> Vec<String> {
    run.pareto_points()
        .map(|p| format!("{} {:?} {:?}", p.arch.name(), p.area_slices, p.est_et_ns))
        .collect()
}

/// Every engine row over one benchmark configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Configuration label (`extended`, `deep`, `flow-paper`, ...).
    pub space: String,
    /// Candidate plans enumerated per run.
    pub candidates: usize,
    /// Kernels in the workload.
    pub kernels: usize,
    /// PE count of the base geometry the flow's multi-geometry
    /// exploration selected (`0` for benchmarks that do not explore
    /// geometries).
    pub selected_pe_count: usize,
    /// The rows, reference first.
    pub engines: Vec<EngineRow>,
}

/// One whole committed artifact (`BENCH_explore.json`, ...).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchArtifact {
    /// Benchmark id (`rsp/explore`, `rsp/flow`, ...).
    pub benchmark: String,
    /// One report per tracked configuration.
    pub reports: Vec<BenchReport>,
}

/// Outcome of a benchmark-regression check ([`check_with`]).
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// One status line per compared engine row.
    pub lines: Vec<String>,
    /// One `committed → now` line per drifted field; empty means the
    /// gate passes.
    pub drifts: Vec<String>,
}

impl CheckOutcome {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.drifts.is_empty()
    }
}

/// The shared benchmark-regression gate: re-runs every report of the
/// committed artifact through `rerun` (which maps a committed report's
/// label back to a fresh measurement, or `None` for an unknown label)
/// and compares every field exactly — report fields, the set of rows,
/// and each row's anchors and event counts by name. Each difference is
/// one drift line, `committed → now`.
pub fn check_with(
    committed: &BenchArtifact,
    rerun: impl Fn(&BenchReport) -> Option<BenchReport>,
) -> CheckOutcome {
    let mut outcome = CheckOutcome {
        lines: Vec::new(),
        drifts: Vec::new(),
    };
    for old in &committed.reports {
        let Some(new) = rerun(old) else {
            outcome
                .drifts
                .push(format!("unknown committed label {:?}", old.space));
            continue;
        };
        let report_fields = [
            ("candidates", old.candidates, new.candidates),
            ("kernels", old.kernels, new.kernels),
            (
                "selected_pe_count",
                old.selected_pe_count,
                new.selected_pe_count,
            ),
        ];
        for (field, was, now) in report_fields {
            if was != now {
                outcome
                    .drifts
                    .push(format!("{}: {field} {was} → {now}", old.space));
            }
        }
        for new_row in &new.engines {
            if !old.engines.iter().any(|e| e.name == new_row.name) {
                outcome.drifts.push(format!(
                    "{}/{}: row not in the committed artifact",
                    old.space, new_row.name
                ));
            }
        }
        for old_row in &old.engines {
            let at = format!("{}/{}", old.space, old_row.name);
            let Some(new_row) = new.engines.iter().find(|e| e.name == old_row.name) else {
                outcome
                    .drifts
                    .push(format!("{at}: engine configuration no longer measured"));
                continue;
            };
            let before = outcome.drifts.len();
            diff_rows(&at, old_row, new_row, &mut outcome.drifts);
            let verdict = if outcome.drifts.len() == before {
                "ok"
            } else {
                "DRIFT"
            };
            outcome.lines.push(format!(
                "{at}: {} ({} event kinds) {verdict}",
                new_row.summary(),
                new_row.events.len()
            ));
        }
    }
    outcome
}

/// Appends one `committed → now` line per differing field of two rows.
/// An event kind one side never recorded counts as `count 0, delta 0`.
fn diff_rows(at: &str, old: &EngineRow, new: &EngineRow, drifts: &mut Vec<String>) {
    let fields = [
        ("feasible", old.feasible as u64, new.feasible as u64),
        (
            "candidates_seen",
            old.candidates_seen as u64,
            new.candidates_seen as u64,
        ),
        (
            "candidates_pruned",
            old.candidates_pruned as u64,
            new.candidates_pruned as u64,
        ),
        (
            "clock_bound_cuts",
            old.clock_bound_cuts as u64,
            new.clock_bound_cuts as u64,
        ),
        (
            "refill_segments",
            old.refill_segments as u64,
            new.refill_segments as u64,
        ),
        (
            "refill_stall_cycles",
            old.refill_stall_cycles,
            new.refill_stall_cycles,
        ),
    ];
    for (field, was, now) in fields {
        if was != now {
            drifts.push(format!("{at}: {field} {was} → {now}"));
        }
    }
    if old.selected != new.selected {
        drifts.push(format!(
            "{at}: selected {} → {}",
            old.selected, new.selected
        ));
    }
    let entry = |frontier: &[String], i: usize| frontier.get(i).cloned().unwrap_or("-".into());
    for i in 0..old.frontier.len().max(new.frontier.len()) {
        let (was, now) = (entry(&old.frontier, i), entry(&new.frontier, i));
        if was != now {
            drifts.push(format!("{at}: frontier[{i}] {was} → {now}"));
        }
    }
    let kinds: BTreeSet<&String> = old.events.keys().chain(new.events.keys()).collect();
    for kind in kinds {
        let was = old.events.get(kind).copied().unwrap_or_default();
        let now = new.events.get(kind).copied().unwrap_or_default();
        for (field, a, b) in [
            ("count", was.count, now.count),
            ("delta", was.delta, now.delta),
        ] {
            if a != b {
                drifts.push(format!("{at}: {kind} {field} {a} → {b}"));
            }
        }
    }
}
