//! The one generic benchmark runner over the registry
//! ([`rsp_bench::registry`]): lists, runs and gates every tracked
//! benchmark (`BENCH_explore.json`, `BENCH_flow.json`, ...) from its
//! declarative definition.
//!
//! ```sh
//! cargo run --release -p rsp-bench --bin headline                    # claims + registry summary
//! cargo run --release -p rsp-bench --bin headline -- --list
//! cargo run --release -p rsp-bench --bin headline -- --list --filter 'rsp/f*'
//! cargo run --release -p rsp-bench --bin headline -- --run 'rsp/*'
//! cargo run --release -p rsp-bench --bin headline -- --run rsp/explore --json BENCH_explore.json
//! cargo run --release -p rsp-bench --bin headline -- --check BENCH_explore.json
//! cargo run --release -p rsp-bench --bin headline -- --check-all
//! cargo run --release -p rsp-bench --bin headline -- --deadline-ms 200 --resume soak.ckpt.json
//! ```
//!
//! `--list` prints every benchmark definition — workload, space,
//! engines, anchors, tracked labels, and the exact regeneration command
//! — optionally narrowed by `--filter <id-glob>` (`*`/`?` wildcards).
//!
//! `--run <id-glob>` runs every matching definition (all its tracked
//! labels, each row once) and prints, per row, its anchors and its
//! phase table: the count, delta sum and span time of every
//! `(target, name)` event the row recorded. The time is shown, never
//! stored. With `--json <path>` the glob must match exactly one
//! benchmark (each artifact holds one) and its artifact is written
//! there.
//!
//! `--check <artifact>` is the benchmark-regression gate for one
//! committed artifact; it may be repeated. The artifact's `benchmark`
//! id selects its registry definition — an id with no definition fails
//! the gate with the known ids listed. `--check-all` is the
//! self-discovering variant CI runs: it finds every `BENCH_*.json` in
//! the current directory, pairs each with its definition by id, and
//! *additionally* fails when an artifact has no definition or a
//! definition has no committed artifact — discovery errors abort before
//! any measurement. Both re-run every committed report through
//! [`rsp_bench::gate::check_with`] and exit non-zero when any field
//! differs, printing `committed → now` for each drift (rules in
//! `crates/bench/METHODOLOGY.md`).
//!
//! `--deadline-ms N` demonstrates the anytime layer live: one deep-space
//! exploration under a wall-clock deadline, reporting how far it got and
//! what it found. With `--resume <path>` the run starts from the
//! checkpoint at `<path>` when the file exists, and — whenever the run
//! is truncated — writes its checkpoint back there, so repeated
//! invocations ratchet the sweep to completion. `--resume` alone (no
//! deadline) finishes a checkpointed sweep in one go.
//!
//! I/O and JSON failures (missing artifact, malformed or schema-drifted
//! JSON, unwritable output) exit non-zero with a one-line diagnostic
//! naming the file — and, for schema drift, the offending field — never
//! a panic backtrace.

use rsp_bench::gate::BenchArtifact;
use rsp_bench::registry::{registry, BenchDef};
use std::path::Path;
use std::time::Duration;

/// One-line fatal diagnostic; exits non-zero without a backtrace.
fn fail(msg: String) -> ! {
    eprintln!("headline: {msg}");
    std::process::exit(1);
}

fn usage_error(msg: &str) -> ! {
    fail(format!("{msg} (see the module docs for usage)"))
}

/// The live anytime demo: one deep-space exploration under an optional
/// wall-clock deadline, optionally resumed from / checkpointed to
/// `resume_path`.
fn run_anytime(deadline_ms: Option<u64>, resume_path: Option<&str>) {
    use rsp_core::{
        explore_resume, explore_with, Completeness, DesignSpace, ExploreControl, Session,
    };

    // The session assembles options and memoizes the mapped contexts —
    // the same request layer the CLI and `rsp-serve` build on.
    let session = Session::builder().build();
    let base = session.base(8, 8);
    let kernels = rsp_kernel::suite::all();
    let contexts: Vec<_> = kernels
        .iter()
        .map(|k| (*session.map(&base, k).expect("suite maps")).clone())
        .collect();
    let weights = vec![1.0; kernels.len()];
    let space = DesignSpace::deep();
    let control = match deadline_ms {
        Some(ms) => ExploreControl::with_deadline(Duration::from_millis(ms)),
        None => ExploreControl::default(),
    };
    let options = session.explore_options(control);

    let checkpoint = match resume_path {
        Some(path) if Path::new(path).exists() => {
            let raw = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read checkpoint {path}: {e}")));
            let ckpt: rsp_core::ExploreCheckpoint = serde_json::from_str(&raw)
                .unwrap_or_else(|e| fail(format!("{path}: invalid checkpoint: {e}")));
            println!(
                "resuming from {path}: {}/{} candidates done",
                ckpt.cursor(),
                ckpt.candidates_total()
            );
            Some(ckpt)
        }
        _ => None,
    };

    let result = match &checkpoint {
        Some(ckpt) => explore_resume(&base, &kernels, &contexts, &weights, &space, &options, ckpt),
        None => explore_with(&base, &kernels, &contexts, &weights, &space, &options),
    }
    .unwrap_or_else(|e| fail(format!("anytime exploration failed: {e}")));

    match result.completeness {
        Completeness::Complete => {
            println!(
                "complete: {} candidates, {} feasible, {} on the frontier, best {}",
                result.stats.candidates_seen,
                result.feasible.len(),
                result.pareto.len(),
                result.best_point().arch.name()
            );
        }
        Completeness::Truncated {
            candidates_remaining,
            reason,
        } => {
            let best = result
                .try_best_point()
                .map(|p| p.arch.name().to_string())
                .unwrap_or_else(|| "none yet".into());
            println!(
                "truncated ({reason:?}): {} candidates done, {} remaining, {} feasible so far, best {best}",
                result.stats.candidates_seen,
                candidates_remaining,
                result.feasible.len(),
            );
            if let Some(path) = resume_path {
                let json = serde_json::to_string_pretty(&result.checkpoint())
                    .unwrap_or_else(|e| fail(format!("checkpoint does not serialize: {e}")));
                std::fs::write(path, json + "\n")
                    .unwrap_or_else(|e| fail(format!("cannot write checkpoint {path}: {e}")));
                println!("checkpoint written to {path} — rerun with --resume {path} to continue");
            }
        }
    }
}

/// Gates one committed artifact against its definition; prints the
/// status lines and every drift, and returns whether the gate passed.
fn check_one(def: &BenchDef, committed: &BenchArtifact) -> bool {
    let outcome = def.check(committed);
    for line in &outcome.lines {
        println!("  {line}");
    }
    if outcome.passed() {
        println!("  PASSED");
    } else {
        eprintln!("  FAILED:");
        for drift in &outcome.drifts {
            eprintln!("    {drift}");
        }
    }
    outcome.passed()
}

fn main() {
    let mut list = false;
    let mut filter: Option<String> = None;
    let mut run_glob: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut check_paths: Vec<String> = Vec::new();
    let mut check_all = false;
    let mut deadline_ms: Option<u64> = None;
    let mut resume_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    let next = |flag: &str, args: &mut dyn Iterator<Item = String>| -> String {
        args.next()
            .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--filter" => filter = Some(next("--filter", &mut args)),
            "--run" => run_glob = Some(next("--run", &mut args)),
            "--json" => json_path = Some(next("--json", &mut args)),
            "--check" => check_paths.push(next("--check", &mut args)),
            "--check-all" => check_all = true,
            "--resume" => resume_path = Some(next("--resume", &mut args)),
            "--deadline-ms" => {
                let raw = next("--deadline-ms", &mut args);
                let ms: u64 = raw
                    .parse()
                    .unwrap_or_else(|_| usage_error("--deadline-ms needs a millisecond count"));
                deadline_ms = Some(ms);
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let modes = [
        list,
        run_glob.is_some(),
        !check_paths.is_empty() || check_all,
        deadline_ms.is_some() || resume_path.is_some(),
    ];
    if modes.iter().filter(|m| **m).count() > 1 {
        usage_error("--list/--run/--check/--check-all/--deadline-ms are exclusive modes");
    }
    if filter.is_some() && !list {
        usage_error("--filter only applies to --list");
    }
    if json_path.is_some() && run_glob.is_none() {
        usage_error("--json only applies to --run");
    }

    if deadline_ms.is_some() || resume_path.is_some() {
        run_anytime(deadline_ms, resume_path.as_deref());
        return;
    }

    if list {
        print!("{}", registry().render_list(filter.as_deref()));
        return;
    }

    if !check_paths.is_empty() || check_all {
        let mut failed = false;

        // Pair every artifact with its definition up front: --check-all
        // discovery errors (and unknown --check ids) must abort before
        // any measurement is paid for.
        let mut jobs: Vec<(String, BenchArtifact, &BenchDef)> = Vec::new();
        for path in &check_paths {
            let raw = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read committed artifact {path}: {e}")));
            let committed: BenchArtifact = serde_json::from_str(&raw)
                .unwrap_or_else(|e| fail(format!("{path}: invalid benchmark artifact: {e}")));
            let Some(def) = registry().find(&committed.benchmark) else {
                eprintln!(
                    "headline: {path}: no check handler for benchmark id {:?} (known ids: {})",
                    committed.benchmark,
                    registry().ids().join(", ")
                );
                std::process::exit(1);
            };
            jobs.push((path.clone(), committed, def));
        }
        if check_all {
            match registry().discover(Path::new(".")) {
                Ok(found) => {
                    println!(
                        "discovered {} committed artifacts for {} registered benchmarks",
                        found.len(),
                        registry().defs().len()
                    );
                    for d in found {
                        jobs.push((d.path.display().to_string(), d.artifact, d.def));
                    }
                }
                Err(errors) => {
                    for e in &errors {
                        eprintln!("headline: {e}");
                    }
                    eprintln!("gate FAILED");
                    std::process::exit(1);
                }
            }
        }

        for (path, committed, def) in &jobs {
            println!("benchmark-regression gate: {path} [{}]", def.id);
            if !check_one(def, committed) {
                failed = true;
            }
        }
        if failed {
            eprintln!("gate FAILED");
            std::process::exit(1);
        }
        println!("gate PASSED");
        return;
    }

    if let Some(glob) = run_glob {
        let defs = registry().filter(&glob);
        if defs.is_empty() {
            fail(format!(
                "no benchmark matches {glob:?} (known ids: {})",
                registry().ids().join(", ")
            ));
        }
        if json_path.is_some() && defs.len() > 1 {
            let ids: Vec<&str> = defs.iter().map(|d| d.id).collect();
            usage_error(&format!(
                "--json needs --run to match exactly one benchmark (an artifact holds one), \
                 but {glob:?} matches {}",
                ids.join(", ")
            ));
        }
        for def in defs {
            let measured = def.run_all();
            println!("{} — {}", def.id, def.title);
            for m in &measured {
                print!("{}", m.render());
            }
            if let Some(path) = &json_path {
                let artifact = BenchArtifact {
                    benchmark: def.id.into(),
                    reports: measured.into_iter().map(|m| m.report).collect(),
                };
                let json = serde_json::to_string_pretty(&artifact)
                    .unwrap_or_else(|e| fail(format!("artifact does not serialize: {e}")));
                std::fs::write(path, json + "\n").unwrap_or_else(|e| {
                    fail(format!("cannot write benchmark artifact {path}: {e}"))
                });
                println!("wrote {path}");
            }
        }
        return;
    }

    // Bare invocation: the paper's headline claims plus the registry
    // summary (what `--list` details, one line each).
    print!("{}", rsp_bench::headline());
    println!();
    println!("tracked benchmarks (headline --list for details):");
    for def in registry().defs() {
        println!("  {:<14} {:<20} {}", def.id, def.artifact, def.title);
    }
}
