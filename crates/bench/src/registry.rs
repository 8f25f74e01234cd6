//! The benchmark registry — every tracked benchmark as one declarative
//! [`BenchDef`], discovered and filtered by id, run and gated by one
//! generic runner.
//!
//! Modeled on BurntSushi/rebar's barometer design: a benchmark is
//! *data* (id, workload, space, engine configurations, anchors, tracked
//! report labels) plus a per-kind measurement adapter
//! ([`crate::adapters`]); everything else — running a filtered subset
//! (`headline --run`), listing definitions with their regeneration
//! commands (`--list`), and the CI regression gate (`--check` /
//! `--check-all`) — is generic over the definition. Adding a benchmark
//! is one [`BenchDef`] entry plus its committed artifact: no new
//! scaffold, no workflow edit — the CI gate discovers committed
//! `BENCH_*.json` artifacts and pairs them with definitions by id
//! ([`Registry::discover`]), failing on an artifact with no definition
//! or a definition with no artifact.
//!
//! The gate's rule (every field exact) lives in [`crate::gate`] and is
//! documented in `crates/bench/METHODOLOGY.md`.

use crate::adapters::{self, Measured};
use crate::gate::{check_with, BenchArtifact, CheckOutcome};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// One tracked benchmark, declaratively: identity, what it measures,
/// which report labels it tracks, which anchors its gate enforces, and
/// the per-kind adapter that measures one label.
#[derive(Clone, Debug)]
pub struct BenchDef {
    /// Registry id — also the `benchmark` field of the committed
    /// artifact (`rsp/explore`, `rsp/flow`, ...). Globs passed to
    /// [`Registry::filter`] match against this.
    pub id: &'static str,
    /// Committed artifact filename at the repository root.
    pub artifact: &'static str,
    /// One-line description for `--list`.
    pub title: &'static str,
    /// The workload the benchmark measures over.
    pub workload: &'static str,
    /// The design space(s) swept.
    pub space: &'static str,
    /// Engine configurations measured per report (row names).
    pub engines: &'static [&'static str],
    /// Anchors worth naming (every row also anchors its event counts,
    /// and the gate compares every field exactly).
    pub anchors: &'static [&'static str],
    /// Tracked report labels, in artifact order. [`BenchDef::run_all`]
    /// measures exactly these; the gate replays whatever labels the
    /// committed artifact recorded.
    pub labels: &'static [&'static str],
    /// The per-kind adapter: measures one report label, `None` for a
    /// label this benchmark does not know.
    pub measure: fn(&str) -> Option<Measured>,
}

impl BenchDef {
    /// The one checked command that regenerates this benchmark's
    /// committed artifact (cspx-style regeneration discipline: the
    /// registry emits it, docs and CI quote it).
    pub fn regen_command(&self) -> String {
        format!(
            "cargo run --release -p rsp-bench --bin headline -- --run {} --json {}",
            self.id, self.artifact
        )
    }

    /// Measures every tracked label, in artifact order.
    ///
    /// # Panics
    ///
    /// Panics if a tracked label's adapter refuses it (a registry
    /// definition bug, caught by the registry tests).
    pub fn run_all(&self) -> Vec<Measured> {
        self.labels
            .iter()
            .map(|label| (self.measure)(label).expect("tracked label measures"))
            .collect()
    }

    /// The benchmark-regression gate: replays every committed report's
    /// label through this definition's adapter and
    /// [`crate::gate::check_with`], which compares every field exactly
    /// (see `crates/bench/METHODOLOGY.md`).
    pub fn check(&self, committed: &BenchArtifact) -> CheckOutcome {
        check_with(committed, |old| {
            (self.measure)(&old.space).map(|m| m.report)
        })
    }
}

/// A validated set of benchmark definitions.
#[derive(Debug)]
pub struct Registry {
    defs: Vec<BenchDef>,
}

impl Registry {
    /// Builds a registry, rejecting duplicate ids and duplicate artifact
    /// filenames (two definitions claiming one committed file would make
    /// [`Registry::discover`]'s pairing ambiguous).
    pub fn new(defs: Vec<BenchDef>) -> Result<Registry, String> {
        for (i, def) in defs.iter().enumerate() {
            for earlier in &defs[..i] {
                if earlier.id == def.id {
                    return Err(format!("duplicate benchmark id {:?}", def.id));
                }
                if earlier.artifact == def.artifact {
                    return Err(format!(
                        "benchmarks {:?} and {:?} both claim artifact {:?}",
                        earlier.id, def.id, def.artifact
                    ));
                }
            }
        }
        Ok(Registry { defs })
    }

    /// Every definition, in registration order.
    pub fn defs(&self) -> &[BenchDef] {
        &self.defs
    }

    /// The definition with exactly this id.
    pub fn find(&self, id: &str) -> Option<&BenchDef> {
        self.defs.iter().find(|d| d.id == id)
    }

    /// Definitions whose id matches the glob (`*` any sequence, `?` one
    /// character; a literal id matches itself).
    pub fn filter(&self, glob: &str) -> Vec<&BenchDef> {
        self.defs
            .iter()
            .filter(|d| glob_match(glob, d.id))
            .collect()
    }

    /// Discovers every committed `BENCH_*.json` artifact directly in
    /// `dir` and pairs each with its definition by the artifact's
    /// `benchmark` id. Errors (all of them, collected) when a file does
    /// not parse, an artifact has no matching definition, two artifacts
    /// claim the same definition, or a definition has no committed
    /// artifact — the self-discovering CI gate's honesty rule: the set
    /// of committed artifacts and the set of registered benchmarks must
    /// match exactly.
    pub fn discover(&self, dir: &Path) -> Result<Vec<Discovered<'_>>, Vec<String>> {
        let mut errors = Vec::new();
        let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.is_file()
                        && p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                })
                .collect(),
            Err(e) => {
                return Err(vec![format!(
                    "cannot read directory {}: {e}",
                    dir.display()
                )])
            }
        };
        paths.sort();

        let mut found: Vec<Discovered<'_>> = Vec::new();
        for path in paths {
            let raw = match std::fs::read_to_string(&path) {
                Ok(raw) => raw,
                Err(e) => {
                    errors.push(format!("cannot read {}: {e}", path.display()));
                    continue;
                }
            };
            let artifact: BenchArtifact = match serde_json::from_str(&raw) {
                Ok(a) => a,
                Err(e) => {
                    errors.push(format!(
                        "{}: invalid benchmark artifact: {e}",
                        path.display()
                    ));
                    continue;
                }
            };
            let Some(def) = self.find(&artifact.benchmark) else {
                errors.push(format!(
                    "{}: no benchmark definition for id {:?} (known ids: {})",
                    path.display(),
                    artifact.benchmark,
                    self.ids().join(", ")
                ));
                continue;
            };
            if let Some(dup) = found.iter().find(|d| d.def.id == def.id) {
                errors.push(format!(
                    "{}: duplicate artifact for benchmark id {:?} (already committed as {})",
                    path.display(),
                    def.id,
                    dup.path.display()
                ));
                continue;
            }
            found.push(Discovered {
                path,
                artifact,
                def,
            });
        }
        for def in &self.defs {
            if !found.iter().any(|d| d.def.id == def.id) {
                errors.push(format!(
                    "benchmark {:?} has no committed artifact {} in {} (regenerate: {})",
                    def.id,
                    def.artifact,
                    dir.display(),
                    def.regen_command()
                ));
            }
        }
        if errors.is_empty() {
            Ok(found)
        } else {
            Err(errors)
        }
    }

    /// Every registered id, in registration order.
    pub fn ids(&self) -> Vec<&'static str> {
        self.defs.iter().map(|d| d.id).collect()
    }

    /// Renders the definition list (`headline --list`): one block per
    /// definition with its tracked labels, engines, anchors, and the
    /// regeneration command — the output that replaces README's
    /// hand-maintained artifact table.
    pub fn render_list(&self, glob: Option<&str>) -> String {
        let defs = match glob {
            Some(g) => self.filter(g),
            None => self.defs.iter().collect(),
        };
        let mut s = String::new();
        for def in defs {
            let _ = writeln!(s, "{} — {}", def.id, def.title);
            let _ = writeln!(s, "  artifact:   {}", def.artifact);
            let _ = writeln!(s, "  workload:   {}", def.workload);
            let _ = writeln!(s, "  space:      {}", def.space);
            let _ = writeln!(s, "  reports:    {}", def.labels.join(", "));
            let _ = writeln!(s, "  engines:    {}", def.engines.join(", "));
            let _ = writeln!(s, "  anchors:    {}", def.anchors.join(", "));
            let _ = writeln!(s, "  regenerate: {}", def.regen_command());
        }
        s
    }
}

/// One committed artifact paired with its registry definition.
#[derive(Debug)]
pub struct Discovered<'r> {
    /// Where the artifact was found.
    pub path: PathBuf,
    /// The parsed committed artifact.
    pub artifact: BenchArtifact,
    /// The definition its `benchmark` id names.
    pub def: &'r BenchDef,
}

/// Glob matching for benchmark ids: `*` matches any (possibly empty)
/// sequence, `?` exactly one character, everything else itself.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some((pi, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            // Backtrack: let the last `*` swallow one more character.
            pi = sp + 1;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    p[pi..].iter().all(|&c| c == '*')
}

/// The built-in definitions — the six tracked benchmarks.
fn builtin_defs() -> Vec<BenchDef> {
    vec![
        BenchDef {
            id: "rsp/explore",
            artifact: "BENCH_explore.json",
            title: "exploration engine vs serial reference",
            workload: "paper kernel suite (9 kernels), uniform weights, 8x8 base",
            space: "extended (48 candidates) + deep (480 candidates)",
            engines: &["serial-reference", "engine-1-thread"],
            anchors: &["feasible", "candidates_pruned", "explore/prune"],
            labels: &["extended", "deep"],
            measure: adapters::explore::measure,
        },
        BenchDef {
            id: "rsp/deep100",
            artifact: "BENCH_deep100.json",
            title: "exploration of the mixed 11,024-candidate space",
            workload: "paper kernel suite (9 kernels), uniform weights, 8x8 base",
            space: "deep100 (11,024 mixed Mult x Alu x Shifter candidates)",
            engines: &["serial-reference"],
            anchors: &[
                "candidates_seen=11024",
                "candidates_pruned",
                "clock_bound_cuts",
                "explore/prune",
            ],
            labels: &["deep100"],
            measure: adapters::deep100::measure,
        },
        BenchDef {
            id: "rsp/flow",
            artifact: "BENCH_flow.json",
            title: "end-to-end Fig. 7 flow with exact rearrangement",
            workload: "paper suite + generated matmul11 (overflows the 4x4 cache)",
            space: "flow-paper (12 candidates, 3 geometries) + flow-deep (480, 8x8)",
            engines: &["serial-reference"],
            anchors: &[
                "feasible",
                "selected_pe_count",
                "refill_segments",
                "refill_stall_cycles",
                "flow/rearrange",
                "rearrange/schedule",
            ],
            labels: &["flow-paper", "flow-deep"],
            measure: adapters::flow::measure,
        },
        BenchDef {
            id: "rsp/workload",
            artifact: "BENCH_workload.json",
            title: "Fig. 7 flow over the generated workload suite",
            workload: "generated suite (workloads/, incl. matmul16 + reduce8192x8x8)",
            space: "flow-workload (12 candidates, 3 geometries; suite selects the 8x8)",
            engines: &["serial-reference"],
            anchors: &[
                "feasible",
                "selected_pe_count=64",
                "refill_segments>0",
                "refill_stall_cycles>0",
                "rearrange/schedule",
            ],
            labels: &["flow-workload"],
            measure: adapters::workload::measure,
        },
        BenchDef {
            id: "rsp/soak",
            artifact: "BENCH_soak.json",
            title: "anytime layer: budget truncation, fault isolation, resume",
            workload: "paper kernel suite, single-threaded engine rows",
            space: "soak-deep (480 candidates)",
            engines: &[
                "serial-reference",
                "soak-1-thread-full",
                "soak-1-thread-budget-75",
                "soak-1-thread-budget-50",
                "soak-1-thread-budget-25",
                "soak-1-thread-faulted",
                "soak-1-thread-resume",
            ],
            anchors: &["feasible (exact truncation/fault/resume counts)"],
            labels: &["soak-deep"],
            measure: adapters::soak::measure,
        },
        BenchDef {
            id: "rsp/serve",
            artifact: "BENCH_serve.json",
            title: "flow requests through the rsp-serve wire path, warm vs cold",
            workload: "video app (fdct+sad+inner_product), 4 flow requests per row",
            space: "serve-flows (paper space, 12 candidates, 8x8 base)",
            engines: &[
                "serial-reference",
                "serve-cold-1-client",
                "serve-warm-1-client",
                "serve-warm-4-clients",
            ],
            anchors: &[
                "feasible",
                "selected_pe_count=64",
                "rearrange/schedule",
                "serve/request",
                "replies byte-identical to the in-process engine (asserted while measuring)",
                "warm rows add zero synthesis-cache misses (asserted while measuring)",
            ],
            labels: &["serve-flows"],
            measure: adapters::serve::measure,
        },
    ]
}

/// The process-wide registry of tracked benchmarks.
///
/// # Panics
///
/// Panics if the built-in definitions are malformed (duplicate ids —
/// impossible without a code change, and covered by tests).
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Registry::new(builtin_defs()).expect("built-in registry is well-formed"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_matching() {
        for (pattern, text, want) in [
            ("rsp/explore", "rsp/explore", true),
            ("rsp/explore", "rsp/flow", false),
            ("*", "rsp/anything", true),
            ("rsp/*", "rsp/flow", true),
            ("rsp/*", "other/flow", false),
            ("*flow*", "rsp/flow", true),
            ("*flow*", "rsp/workload", false),
            ("rsp/s?ak", "rsp/soak", true),
            ("rsp/s?ak", "rsp/sneak", false),
            ("*oad", "rsp/workload", true),
            ("", "", true),
            ("*", "", true),
            ("?", "", false),
            ("a*b*c", "axxbyyc", true),
            ("a*b*c", "axxbyy", false),
        ] {
            assert_eq!(
                glob_match(pattern, text),
                want,
                "glob_match({pattern:?}, {text:?})"
            );
        }
    }

    #[test]
    fn registry_finds_and_filters_by_id() {
        let reg = registry();
        assert_eq!(
            reg.ids(),
            vec![
                "rsp/explore",
                "rsp/deep100",
                "rsp/flow",
                "rsp/workload",
                "rsp/soak",
                "rsp/serve"
            ]
        );
        assert!(reg.find("rsp/soak").is_some());
        assert!(reg.find("rsp/serve").is_some());
        assert!(reg.find("rsp/deep100").is_some());
        assert!(reg.find("rsp/nope").is_none());
        assert_eq!(reg.filter("*").len(), 6);
        assert_eq!(reg.filter("rsp/*").len(), 6);
        let flows: Vec<&str> = reg.filter("rsp/flow").iter().map(|d| d.id).collect();
        assert_eq!(flows, vec!["rsp/flow"]);
        let w: Vec<&str> = reg.filter("*work*").iter().map(|d| d.id).collect();
        assert_eq!(w, vec!["rsp/workload"]);
        assert!(reg.filter("nomatch/*").is_empty());
    }

    #[test]
    fn duplicate_ids_and_artifacts_are_rejected() {
        let defs = builtin_defs();
        let mut dup_id = defs.clone();
        dup_id.push(BenchDef {
            artifact: "BENCH_other.json",
            ..defs[0].clone()
        });
        let err = Registry::new(dup_id).unwrap_err();
        assert!(err.contains("duplicate benchmark id"), "{err}");
        assert!(err.contains("rsp/explore"), "{err}");

        let mut dup_artifact = defs.clone();
        dup_artifact.push(BenchDef {
            id: "rsp/other",
            ..defs[0].clone()
        });
        let err = Registry::new(dup_artifact).unwrap_err();
        assert!(err.contains("both claim artifact"), "{err}");
    }

    #[test]
    fn list_renders_every_definition_with_regen_command() {
        let listing = registry().render_list(None);
        for def in registry().defs() {
            assert!(listing.contains(def.id), "missing {}", def.id);
            assert!(listing.contains(def.artifact), "missing {}", def.artifact);
            assert!(
                listing.contains(&def.regen_command()),
                "missing regen command for {}",
                def.id
            );
        }
        let filtered = registry().render_list(Some("rsp/soak"));
        assert!(filtered.contains("rsp/soak"));
        assert!(!filtered.contains("rsp/explore"));
    }

    #[test]
    fn discovery_pairs_artifacts_with_definitions_and_enforces_honesty() {
        let dir = std::env::temp_dir().join(format!("bench-registry-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, id: &str| {
            std::fs::write(
                dir.join(name),
                format!("{{\"benchmark\": {id:?}, \"reports\": []}}"),
            )
            .unwrap();
        };

        // Complete set: every definition paired, deterministic order.
        write("BENCH_explore.json", "rsp/explore");
        write("BENCH_deep100.json", "rsp/deep100");
        write("BENCH_flow.json", "rsp/flow");
        write("BENCH_workload.json", "rsp/workload");
        write("BENCH_soak.json", "rsp/soak");
        write("BENCH_serve.json", "rsp/serve");
        let found = registry().discover(&dir).unwrap();
        assert_eq!(found.len(), 6);
        let mut ids: Vec<&str> = found.iter().map(|d| d.def.id).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            vec![
                "rsp/deep100",
                "rsp/explore",
                "rsp/flow",
                "rsp/serve",
                "rsp/soak",
                "rsp/workload"
            ]
        );

        // An artifact with no matching definition is an error.
        write("BENCH_bogus.json", "rsp/bogus");
        let errors = registry().discover(&dir).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("no benchmark definition")
                && e.contains("rsp/bogus")
                && e.contains("known ids")),
            "{errors:?}"
        );
        std::fs::remove_file(dir.join("BENCH_bogus.json")).unwrap();

        // Two artifacts claiming one definition is an error.
        write("BENCH_copy.json", "rsp/explore");
        let errors = registry().discover(&dir).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("duplicate artifact") && e.contains("rsp/explore")),
            "{errors:?}"
        );
        std::fs::remove_file(dir.join("BENCH_copy.json")).unwrap();

        // A definition with no committed artifact is an error naming the
        // regeneration command.
        std::fs::remove_file(dir.join("BENCH_soak.json")).unwrap();
        let errors = registry().discover(&dir).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("no committed artifact")
                && e.contains("rsp/soak")
                && e.contains("--run rsp/soak")),
            "{errors:?}"
        );

        // Unparsable artifacts are reported, not panicked over.
        std::fs::write(dir.join("BENCH_soak.json"), "not json").unwrap();
        let errors = registry().discover(&dir).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("invalid benchmark artifact")),
            "{errors:?}"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}
