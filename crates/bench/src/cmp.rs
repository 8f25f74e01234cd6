//! Before/after artifact comparison — `headline --cmp` (rebar-style).
//!
//! Renders a markdown diff of two benchmark artifacts (or two
//! directories of committed `BENCH_*.json` artifacts, paired by
//! filename). Timings are compared the same way the gate compares them
//! ([`crate::gate::check_with`]): **normalized by the same report's
//! `serial-reference` median/min**, so a diff between artifacts from
//! different hosts shows behavior changes, not host speed. A row is
//! called:
//!
//! * `anchor-drift` — a correctness anchor (feasible count, refill
//!   counters) changed: a behavior change, flagged before any timing
//!   verdict.
//! * `regressed` / `improved` — normalized median **and** best-of-N
//!   both moved past the tolerance in the same direction (the gate's
//!   median-AND-best rule, applied symmetrically).
//! * `within noise` — anything in between.
//! * `yardstick` — the `serial-reference` row itself (it defines the
//!   normalization, so its own normalized ratio is 1.0 by construction).
//! * `cross-host` — a parallel row compared across differing host core
//!   counts: its ratio to the serial reference legitimately scales with
//!   cores, so no timing verdict is offered (same convention as the
//!   gate: rows named `*1-thread*` stay verdict-gated everywhere).
//!
//! CI renders this diff of committed-vs-regenerated into the step
//! summary on every run — pass and fail — so the delta is visible
//! without downloading artifacts.

use crate::gate::{BenchArtifact, BenchReport, EngineRow};
use std::fmt::Write as _;
use std::path::Path;

/// How far past the committed normalized ratio (in either direction)
/// both statistics must move before `--cmp` calls a verdict.
pub const DEFAULT_TOLERANCE: f64 = 0.15;

fn reference(report: &BenchReport) -> Option<(f64, f64)> {
    report
        .engines
        .iter()
        .find(|e| e.name == "serial-reference")
        .map(|e| (e.median_ns as f64, e.min_ns as f64))
}

fn verdict_for(
    name: &str,
    med_ratio: f64,
    min_ratio: f64,
    anchors_drifted: bool,
    threads_match: bool,
    tolerance: f64,
) -> &'static str {
    if anchors_drifted {
        "**anchor-drift**"
    } else if name == "serial-reference" {
        "yardstick"
    } else if !threads_match && !name.contains("1-thread") {
        "cross-host"
    } else if med_ratio > 1.0 + tolerance && min_ratio > 1.0 + tolerance {
        "**regressed**"
    } else if med_ratio < 1.0 - tolerance && min_ratio < 1.0 - tolerance {
        "improved"
    } else {
        "within noise"
    }
}

/// Renders the markdown diff of two artifacts at the gate's default
/// tolerance.
pub fn cmp_artifacts(before: &BenchArtifact, after: &BenchArtifact, tolerance: f64) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "### {}", before.benchmark);
    if before.benchmark != after.benchmark {
        let _ = writeln!(
            s,
            "\n> benchmark id changed: `{}` -> `{}`",
            before.benchmark, after.benchmark
        );
        return s;
    }
    for old in &before.reports {
        let Some(new) = after.reports.iter().find(|r| r.space == old.space) else {
            let _ = writeln!(
                s,
                "\n> report `{}` missing from the after artifact",
                old.space
            );
            continue;
        };
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "**{}** ({} candidates, {} kernels, median of {})",
            old.space, new.candidates, new.kernels, new.samples
        );
        if new.selected_pe_count != old.selected_pe_count {
            let _ = writeln!(
                s,
                "\n> **anchor-drift**: selected base geometry {} -> {} PEs",
                old.selected_pe_count, new.selected_pe_count
            );
        }
        let threads_match = old.threads == new.threads;
        if !threads_match {
            let _ = writeln!(
                s,
                "\n> cross-host: before recorded {} threads, after {} — parallel rows \
                 get no timing verdict",
                old.threads, new.threads
            );
        }
        let (Some(old_ref), Some(new_ref)) = (reference(old), reference(new)) else {
            let _ = writeln!(
                s,
                "\n> report `{}` lacks a serial-reference yardstick",
                old.space
            );
            continue;
        };
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "| engine | before x-ref | after x-ref | Δ median | Δ best | verdict |"
        );
        let _ = writeln!(s, "|---|---|---|---|---|---|");
        for old_row in &old.engines {
            let Some(new_row) = new.engines.iter().find(|e| e.name == old_row.name) else {
                let _ = writeln!(
                    s,
                    "| {} | {:.3}x | — | — | — | **missing** |",
                    old_row.name,
                    old_row.median_ns as f64 / old_ref.0
                );
                continue;
            };
            let old_med = old_row.median_ns as f64 / old_ref.0;
            let new_med = new_row.median_ns as f64 / new_ref.0;
            let old_min = old_row.min_ns as f64 / old_ref.1;
            let new_min = new_row.min_ns as f64 / new_ref.1;
            let anchors_drifted = new_row.feasible != old_row.feasible
                || new_row.refill_segments != old_row.refill_segments
                || new_row.refill_stall_cycles != old_row.refill_stall_cycles;
            let verdict = verdict_for(
                &old_row.name,
                new_med / old_med,
                new_min / old_min,
                anchors_drifted,
                threads_match,
                tolerance,
            );
            let detail = if anchors_drifted {
                format!(" ({})", anchor_drift_detail(old_row, new_row))
            } else {
                String::new()
            };
            let _ = writeln!(
                s,
                "| {} | {:.3}x | {:.3}x | {:+.1} % | {:+.1} % | {}{} |",
                old_row.name,
                old_med,
                new_med,
                (new_med / old_med - 1.0) * 100.0,
                (new_min / old_min - 1.0) * 100.0,
                verdict,
                detail
            );
        }
        for new_row in &new.engines {
            if !old.engines.iter().any(|e| e.name == new_row.name) {
                let _ = writeln!(
                    s,
                    "| {} | — | {:.3}x | — | — | new |",
                    new_row.name,
                    new_row.median_ns as f64 / new_ref.0
                );
            }
        }
    }
    for new in &after.reports {
        if !before.reports.iter().any(|r| r.space == new.space) {
            let _ = writeln!(s, "\n> report `{}` is new in the after artifact", new.space);
        }
    }
    s
}

fn anchor_drift_detail(old: &EngineRow, new: &EngineRow) -> String {
    let mut parts = Vec::new();
    if new.feasible != old.feasible {
        parts.push(format!("feasible {} -> {}", old.feasible, new.feasible));
    }
    if new.refill_segments != old.refill_segments {
        parts.push(format!(
            "refill_segments {} -> {}",
            old.refill_segments, new.refill_segments
        ));
    }
    if new.refill_stall_cycles != old.refill_stall_cycles {
        parts.push(format!(
            "refill_stall_cycles {} -> {}",
            old.refill_stall_cycles, new.refill_stall_cycles
        ));
    }
    parts.join(", ")
}

fn load(path: &Path) -> Result<BenchArtifact, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read artifact {}: {e}", path.display()))?;
    serde_json::from_str(&raw)
        .map_err(|e| format!("{}: invalid benchmark artifact: {e}", path.display()))
}

/// Compares two artifact files, or two directories of `BENCH_*.json`
/// artifacts paired by filename. A file missing from the after side is
/// reported as a note, not an error, so the CI step-summary render
/// works even when the gate aborted before regenerating everything.
pub fn cmp_paths(before: &Path, after: &Path, tolerance: f64) -> Result<String, String> {
    // A missing after-directory is the "gate aborted before regenerating
    // anything" case: every artifact reports as not regenerated.
    if before.is_dir() != after.is_dir() && after.exists() {
        return Err(format!(
            "--cmp needs two artifact files or two directories, got {} and {}",
            before.display(),
            after.display()
        ));
    }
    if !before.is_dir() {
        return Ok(cmp_artifacts(&load(before)?, &load(after)?, tolerance));
    }
    let mut names: Vec<String> = std::fs::read_dir(before)
        .map_err(|e| format!("cannot read directory {}: {e}", before.display()))?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("no BENCH_*.json artifacts in {}", before.display()));
    }
    let mut s = String::new();
    for name in names {
        let after_path = after.join(&name);
        if !after_path.is_file() {
            let _ = writeln!(
                s,
                "### {name}\n\n> not regenerated (missing from {})\n",
                after.display()
            );
            continue;
        }
        s.push_str(&cmp_artifacts(
            &load(&before.join(&name))?,
            &load(&after_path)?,
            tolerance,
        ));
        s.push('\n');
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, median_ns: u64, min_ns: u64, feasible: usize) -> EngineRow {
        EngineRow {
            name: name.into(),
            median_ns,
            min_ns,
            samples: 5,
            speedup_vs_reference: 1.0,
            feasible,
            candidates_seen: 48,
            candidates_pruned: 0,
            clock_bound_cuts: 0,
            refill_segments: 0,
            refill_stall_cycles: 0,
        }
    }

    fn artifact(rows: Vec<EngineRow>, threads: usize) -> BenchArtifact {
        BenchArtifact {
            benchmark: "rsp/explore".into(),
            reports: vec![BenchReport {
                space: "extended".into(),
                candidates: 48,
                kernels: 9,
                threads,
                samples: 5,
                selected_pe_count: 0,
                engines: rows,
            }],
        }
    }

    #[test]
    fn improved_regressed_and_noise_verdicts() {
        let before = artifact(
            vec![
                row("serial-reference", 1_000_000, 900_000, 30),
                row("engine-1-thread", 500_000, 450_000, 30),
                row("engine-1-thread-pruned", 500_000, 450_000, 28),
                row("engine-parallel", 400_000, 350_000, 30),
            ],
            1,
        );
        // Same reference; one row 2x better, one 2x worse, one moved
        // only in median (noise by the median-AND-best rule).
        let after = artifact(
            vec![
                row("serial-reference", 1_000_000, 900_000, 30),
                row("engine-1-thread", 250_000, 225_000, 30),
                row("engine-1-thread-pruned", 1_000_000, 900_000, 28),
                row("engine-parallel", 480_000, 350_000, 30),
            ],
            1,
        );
        let out = cmp_artifacts(&before, &after, DEFAULT_TOLERANCE);
        let line = |name: &str| {
            out.lines()
                .find(|l| l.starts_with(&format!("| {name} ")))
                .unwrap_or_else(|| panic!("no table row for {name} in:\n{out}"))
                .to_string()
        };
        assert!(line("serial-reference").contains("yardstick"), "{out}");
        assert!(line("engine-1-thread").contains("improved"), "{out}");
        assert!(line("engine-1-thread").contains("-50.0 %"), "{out}");
        assert!(
            line("engine-1-thread-pruned").contains("**regressed**"),
            "{out}"
        );
        assert!(line("engine-parallel").contains("within noise"), "{out}");
    }

    #[test]
    fn anchor_drift_beats_timing_and_names_the_anchor() {
        let before = artifact(
            vec![
                row("serial-reference", 1_000_000, 900_000, 30),
                row("engine-1-thread", 500_000, 450_000, 30),
            ],
            1,
        );
        let mut after = before.clone();
        after.reports[0].engines[1].feasible = 29;
        after.reports[0].engines[1].median_ns = 250_000; // 2x faster — irrelevant
        let out = cmp_artifacts(&before, &after, DEFAULT_TOLERANCE);
        assert!(
            out.contains("**anchor-drift** (feasible 30 -> 29)"),
            "{out}"
        );
        assert!(!out.contains("improved"), "{out}");

        // Refill anchors drift the same way.
        let mut after = before.clone();
        after.reports[0].engines[1].refill_segments = 3;
        after.reports[0].engines[1].refill_stall_cycles = 120;
        let out = cmp_artifacts(&before, &after, DEFAULT_TOLERANCE);
        assert!(out.contains("refill_segments 0 -> 3"), "{out}");
        assert!(out.contains("refill_stall_cycles 0 -> 120"), "{out}");

        // Selected-geometry drift is a report-level note.
        let mut after = before.clone();
        after.reports[0].selected_pe_count = 36;
        let out = cmp_artifacts(&before, &after, DEFAULT_TOLERANCE);
        assert!(out.contains("selected base geometry 0 -> 36 PEs"), "{out}");
    }

    #[test]
    fn cross_host_parallel_rows_get_no_timing_verdict() {
        let before = artifact(
            vec![
                row("serial-reference", 1_000_000, 900_000, 30),
                row("engine-1-thread", 500_000, 450_000, 30),
                row("engine-parallel", 100_000, 90_000, 30),
            ],
            8,
        );
        let mut after = artifact(
            vec![
                row("serial-reference", 1_000_000, 900_000, 30),
                row("engine-1-thread", 2_000_000, 1_800_000, 30),
                row("engine-parallel", 1_000_000, 900_000, 30),
            ],
            1,
        );
        after.reports[0].threads = 1;
        let out = cmp_artifacts(&before, &after, DEFAULT_TOLERANCE);
        let line = |name: &str| {
            out.lines()
                .find(|l| l.starts_with(&format!("| {name} ")))
                .unwrap()
                .to_string()
        };
        // The 10x slower parallel row is host topology, not a verdict...
        assert!(line("engine-parallel").contains("cross-host"), "{out}");
        assert!(out.contains("parallel rows"), "{out}");
        // ...but the 1-thread row stays verdict-gated everywhere.
        assert!(line("engine-1-thread").contains("**regressed**"), "{out}");
    }

    #[test]
    fn structural_changes_are_reported_not_dropped() {
        let before = artifact(
            vec![
                row("serial-reference", 1_000_000, 900_000, 30),
                row("engine-retired", 500_000, 450_000, 30),
            ],
            1,
        );
        let mut after = artifact(vec![row("serial-reference", 1_000_000, 900_000, 30)], 1);
        after.reports[0]
            .engines
            .push(row("engine-new", 500_000, 450_000, 30));
        after.reports.push(BenchReport {
            space: "brand-new".into(),
            ..after.reports[0].clone()
        });
        let out = cmp_artifacts(&before, &after, DEFAULT_TOLERANCE);
        assert!(out.contains("**missing**"), "{out}");
        assert!(out.contains("| engine-new | — |"), "{out}");
        assert!(out.contains("report `brand-new` is new"), "{out}");

        let mut truncated = before.clone();
        truncated.reports.clear();
        let out = cmp_artifacts(&before, &truncated, DEFAULT_TOLERANCE);
        assert!(out.contains("report `extended` missing"), "{out}");
    }

    #[test]
    fn dir_mode_pairs_by_filename_and_tolerates_missing_after() {
        let base = std::env::temp_dir().join(format!("bench-cmp-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (b, a) = (base.join("before"), base.join("after"));
        std::fs::create_dir_all(&b).unwrap();
        std::fs::create_dir_all(&a).unwrap();
        let art = artifact(vec![row("serial-reference", 1_000_000, 900_000, 30)], 1);
        let json = serde_json::to_string_pretty(&art).unwrap();
        std::fs::write(b.join("BENCH_explore.json"), &json).unwrap();
        std::fs::write(b.join("BENCH_flow.json"), &json).unwrap();
        std::fs::write(a.join("BENCH_explore.json"), &json).unwrap();
        // BENCH_flow.json deliberately missing from the after dir.
        let out = cmp_paths(&b, &a, DEFAULT_TOLERANCE).unwrap();
        assert!(out.contains("### rsp/explore"), "{out}");
        assert!(out.contains("not regenerated"), "{out}");

        // A missing after-directory (gate aborted before regenerating)
        // still renders, with every artifact marked not regenerated.
        let out = cmp_paths(&b, &base.join("never-created"), DEFAULT_TOLERANCE).unwrap();
        assert_eq!(out.matches("not regenerated").count(), 2, "{out}");

        // File/dir mixups and empty before-dirs are errors.
        assert!(cmp_paths(&b, &b.join("BENCH_explore.json"), 0.15).is_err());
        let empty = base.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(cmp_paths(&empty, &a, 0.15).is_err());
        let _ = std::fs::remove_dir_all(&base);
    }
}
