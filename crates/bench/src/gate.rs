//! Shared benchmark-artifact schema and the CI regression gate.
//!
//! Every artifact the registry tracks ([`crate::registry`]) uses the
//! same rebar-style shape: [`BenchReport`]s of [`EngineRow`]s with
//! median-of-N and best-of-N wall-clock plus correctness anchors
//! (feasible-design counts, refill and pruning counters, the selected
//! base geometry), and one `serial-reference`
//! row per report serving as the
//! normalization yardstick. [`check_with`] implements the gate shared
//! by all of them: a row regresses only when its reference-normalized
//! median **and** best-of-N both exceed the tolerance (the
//! median-AND-best rule that keeps the gate stable on noisy 1-CPU
//! hosts), or when a correctness anchor drifts. The full methodology —
//! normalization, the cross-host core-count convention, anchor
//! semantics, and the regeneration discipline — is documented in
//! `crates/bench/METHODOLOGY.md`.

use serde::{Deserialize, Serialize};

/// One engine's timing row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineRow {
    /// Engine configuration name.
    pub name: String,
    /// Median wall-clock per run (nanoseconds).
    pub median_ns: u64,
    /// Minimum observed (nanoseconds).
    pub min_ns: u64,
    /// Measured samples (after one warmup).
    pub samples: u32,
    /// Speedup versus the serial reference (reference median / this
    /// median).
    pub speedup_vs_reference: f64,
    /// Feasible designs the run produced (sanity anchor: engines must
    /// agree).
    pub feasible: usize,
    /// Candidate plans enumerated from the space (exact-drift anchor:
    /// the enumeration is deterministic, so any change is a code
    /// change).
    pub candidates_seen: usize,
    /// Candidates the engine cut on the slowdown constraint (exact-drift
    /// anchor: cut decisions are deterministic at every thread count).
    pub candidates_pruned: usize,
    /// Candidates the stage-floor clock bound cut before delay
    /// synthesis (subset of `candidates_pruned`; exact-drift anchor).
    pub clock_bound_cuts: usize,
    /// Flow rows only: configuration-cache refills performed across the
    /// exact rearrangements (schedule segments beyond the first). A
    /// correctness anchor: the `flow-workload` report records a nonzero
    /// count — matmul16's stall-heavy schedules split instead of
    /// overflowing — and the gate fails on any drift.
    pub refill_segments: usize,
    /// Flow rows only: refill-stall cycles those splits charged
    /// (anchored against drift together with `refill_segments`).
    pub refill_stall_cycles: u64,
}

/// Timings of every engine over one benchmark configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Configuration label (`extended`, `deep`, `flow-paper`, ...).
    pub space: String,
    /// Candidate plans enumerated per run.
    pub candidates: usize,
    /// Kernels in the workload.
    pub kernels: usize,
    /// Worker threads available to the parallel engines.
    pub threads: usize,
    /// Measured samples per engine (after one warmup).
    pub samples: u32,
    /// PE count of the base geometry the flow's multi-geometry
    /// exploration selected (`0` for benchmarks that do not explore
    /// geometries). A correctness anchor: the `flow-workload` report
    /// records `64` — the generated suite genuinely selects the paper's
    /// 8×8 — and the gate fails if that selection ever drifts.
    pub selected_pe_count: usize,
    /// Timing rows, reference first.
    pub engines: Vec<EngineRow>,
}

/// One whole committed artifact (`BENCH_explore.json` /
/// `BENCH_flow.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchArtifact {
    /// Artifact schema/benchmark id (`rsp/explore`, `rsp/flow`).
    pub benchmark: String,
    /// One report per tracked configuration.
    pub reports: Vec<BenchReport>,
}

/// Renders a human-readable summary table of one report.
pub fn render(report: &BenchReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let geometry = if report.selected_pe_count > 0 {
        format!(", selects {}-PE base", report.selected_pe_count)
    } else {
        String::new()
    };
    let _ = writeln!(
        s,
        "{} ({} candidates x {} kernels, {} threads, median of {}{}):",
        report.space, report.candidates, report.kernels, report.threads, report.samples, geometry
    );
    for e in &report.engines {
        let _ = writeln!(
            s,
            "  {:<24} {:>10.3} ms   {:>6.2}x   ({} feasible, {}/{} pruned \
             [{} clock-cut], {} refills/{} stall-cyc)",
            e.name,
            e.median_ns as f64 / 1e6,
            e.speedup_vs_reference,
            e.feasible,
            e.candidates_pruned,
            e.candidates_seen,
            e.clock_bound_cuts,
            e.refill_segments,
            e.refill_stall_cycles,
        );
    }
    s
}

/// Renders every report of an artifact.
pub fn render_all(artifact: &BenchArtifact) -> String {
    artifact
        .reports
        .iter()
        .map(render)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Outcome of a benchmark-regression check ([`check_with`]).
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// One status line per compared engine row.
    pub lines: Vec<String>,
    /// Human-readable failures; empty means the gate passes.
    pub regressions: Vec<String>,
    /// The freshly re-run reports (same labels and sample counts as the
    /// committed artifact) — written out by `headline --emit` so CI can
    /// upload them for diffing when the gate fails.
    pub fresh: BenchArtifact,
}

impl CheckOutcome {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// The shared benchmark-regression gate: re-runs every report of the
/// committed artifact through `rerun` (which maps a committed report's
/// label back to a fresh measurement at the same sample count, or `None`
/// for an unknown label) and compares engine rows by name.
///
/// A row regresses when its reference-normalized median **and**
/// best-of-N both exceed the committed ratios by more than `tolerance`
/// (e.g. `0.15` = +15 %), when a correctness anchor drifts at all
/// (feasible count, refill counters, pruning counters, selected base
/// geometry), or when a committed engine
/// configuration disappears. The `serial-reference`
/// row is the yardstick and is checked for anchor drift only; when the
/// committed `threads` differs from the host's, timing is gated only
/// for core-count-independent rows (names containing `1-thread`). The
/// rationale for each rule is in `crates/bench/METHODOLOGY.md`.
pub fn check_with(
    committed: &BenchArtifact,
    tolerance: f64,
    rerun: impl Fn(&BenchReport) -> Option<BenchReport>,
) -> CheckOutcome {
    let mut outcome = CheckOutcome {
        lines: Vec::new(),
        regressions: Vec::new(),
        fresh: BenchArtifact {
            benchmark: committed.benchmark.clone(),
            reports: Vec::new(),
        },
    };
    for old in &committed.reports {
        let Some(new) = rerun(old) else {
            outcome
                .regressions
                .push(format!("unknown committed label {:?}", old.space));
            continue;
        };
        let reference = |report: &BenchReport| {
            report
                .engines
                .iter()
                .find(|e| e.name == "serial-reference")
                .map(|e| (e.median_ns as f64, e.min_ns as f64))
        };
        let Some(old_ref) = reference(old) else {
            outcome.regressions.push(format!(
                "{}: committed report lacks the serial-reference yardstick",
                old.space
            ));
            continue;
        };
        let new_ref = reference(&new).expect("rerun always measures the reference");
        if new.selected_pe_count != old.selected_pe_count {
            outcome.regressions.push(format!(
                "{}: selected base geometry drifted {} -> {} PEs",
                old.space, old.selected_pe_count, new.selected_pe_count
            ));
        }
        let threads_match = old.threads == new.threads;
        if !threads_match {
            outcome.lines.push(format!(
                "{}: committed threads {} != host threads {} — timing gated for \
                 core-count-independent rows only",
                old.space, old.threads, new.threads
            ));
        }
        for old_row in &old.engines {
            let Some(new_row) = new.engines.iter().find(|e| e.name == old_row.name) else {
                outcome.regressions.push(format!(
                    "{}/{}: engine configuration no longer measured",
                    old.space, old_row.name
                ));
                continue;
            };
            // Reference-normalized timings: fraction of the same run's
            // serial-reference cost.
            let old_med = old_row.median_ns as f64 / old_ref.0;
            let new_med = new_row.median_ns as f64 / new_ref.0;
            let old_min = old_row.min_ns as f64 / old_ref.1;
            let new_min = new_row.min_ns as f64 / new_ref.1;
            let med_ratio = new_med / old_med;
            let min_ratio = new_min / old_min;
            let is_reference = old_row.name == "serial-reference";
            // Parallel rows' ratio to the reference scales with core
            // count; only gate them when the host matches the artifact.
            // Single-threaded rows are core-count-independent and stay
            // gated either way.
            let single_threaded = old_row.name.contains("1-thread");
            let timing_gated = !is_reference && (threads_match || single_threaded);
            let verdict = if new_row.feasible != old_row.feasible {
                outcome.regressions.push(format!(
                    "{}/{}: feasible count drifted {} -> {}",
                    old.space, old_row.name, old_row.feasible, new_row.feasible
                ));
                "FEASIBLE-DRIFT"
            } else if new_row.refill_segments != old_row.refill_segments
                || new_row.refill_stall_cycles != old_row.refill_stall_cycles
            {
                outcome.regressions.push(format!(
                    "{}/{}: refill anchors drifted {} segments/{} stall-cycles -> {}/{}",
                    old.space,
                    old_row.name,
                    old_row.refill_segments,
                    old_row.refill_stall_cycles,
                    new_row.refill_segments,
                    new_row.refill_stall_cycles
                ));
                "REFILL-DRIFT"
            } else if new_row.candidates_seen != old_row.candidates_seen
                || new_row.candidates_pruned != old_row.candidates_pruned
                || new_row.clock_bound_cuts != old_row.clock_bound_cuts
            {
                outcome.regressions.push(format!(
                    "{}/{}: pruning anchors drifted {}/{} seen/pruned \
                     [{} clock-cut] -> {}/{} [{}]",
                    old.space,
                    old_row.name,
                    old_row.candidates_seen,
                    old_row.candidates_pruned,
                    old_row.clock_bound_cuts,
                    new_row.candidates_seen,
                    new_row.candidates_pruned,
                    new_row.clock_bound_cuts
                ));
                "PRUNE-DRIFT"
            } else if timing_gated && med_ratio > 1.0 + tolerance && min_ratio > 1.0 + tolerance {
                outcome.regressions.push(format!(
                    "{}/{}: normalized median {:.3}x-ref -> {:.3}x-ref (+{:.0} %) and \
                     normalized min (+{:.0} %) both exceed the {:.0} % tolerance",
                    old.space,
                    old_row.name,
                    old_med,
                    new_med,
                    (med_ratio - 1.0) * 100.0,
                    (min_ratio - 1.0) * 100.0,
                    tolerance * 100.0
                ));
                "REGRESSED"
            } else {
                "ok"
            };
            outcome.lines.push(format!(
                "{}/{}: median {:.3} ms ({:.3}x-ref, committed {:.3}x-ref, {:+.1} %), \
                 min {:+.1} % {}",
                old.space,
                old_row.name,
                new_row.median_ns as f64 / 1e6,
                new_med,
                old_med,
                (med_ratio - 1.0) * 100.0,
                (min_ratio - 1.0) * 100.0,
                verdict
            ));
        }
        outcome.fresh.reports.push(new);
    }
    outcome
}

/// Times `f` with one warmup plus `samples` measured runs; returns
/// `(median, min)` nanoseconds.
pub(crate) fn time_median<F: FnMut()>(samples: u32, mut f: F) -> (u64, u64) {
    assert!(samples >= 1, "need at least one sample");
    f(); // warmup
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    (times[times.len() / 2], times[0])
}
