//! The one generic benchmark runner over the registry
//! ([`rsp_bench::registry`]): lists, runs, gates, and diffs every
//! tracked benchmark (`BENCH_explore.json`, `BENCH_flow.json`,
//! `BENCH_workload.json`, `BENCH_soak.json`) from its declarative
//! definition.
//!
//! ```sh
//! cargo run --release -p rsp-bench --bin headline                    # claims + registry summary
//! cargo run --release -p rsp-bench --bin headline -- --list
//! cargo run --release -p rsp-bench --bin headline -- --list --filter 'rsp/f*'
//! cargo run --release -p rsp-bench --bin headline -- --run 'rsp/*' --samples 5
//! cargo run --release -p rsp-bench --bin headline -- --run rsp/explore --samples 21 --json BENCH_explore.json
//! cargo run --release -p rsp-bench --bin headline -- --check BENCH_explore.json --tolerance 0.15
//! cargo run --release -p rsp-bench --bin headline -- --check-all --tolerance 0.15 --emit bench-regen
//! cargo run --release -p rsp-bench --bin headline -- --cmp BENCH_explore.json bench-regen/BENCH_explore.json
//! cargo run --release -p rsp-bench --bin headline -- --cmp . bench-regen
//! cargo run --release -p rsp-bench --bin headline -- --deadline-ms 200 --resume soak.ckpt.json
//! cargo run --release -p rsp-bench --bin headline -- --profile rsp/explore
//! ```
//!
//! `--list` prints every benchmark definition — workload, space,
//! engines, anchors, tracked labels, and the exact regeneration command
//! — optionally narrowed by `--filter <id-glob>` (`*`/`?` wildcards).
//!
//! `--run <id-glob>` measures every matching definition (all its
//! tracked labels) and prints the report tables; with `--json <path>`
//! the glob must match exactly one benchmark (each artifact holds one)
//! and its artifact is written there. `--samples` overrides the
//! per-definition default.
//!
//! `--check <artifact>` is the benchmark-regression gate for one
//! committed artifact; it may be repeated. The artifact's `benchmark`
//! id selects its registry definition — an id with no definition fails
//! the gate with the known ids listed. `--check-all` is the
//! self-discovering variant CI runs: it finds every `BENCH_*.json` in
//! the current directory, pairs each with its definition by id, and
//! *additionally* fails when an artifact has no definition or a
//! definition has no committed artifact — discovery errors abort before
//! any measurement. Both replay every committed report (same labels and
//! sample counts) through [`rsp_bench::gate::check_with`] and exit
//! non-zero when an engine's reference-normalized median **and**
//! best-of-N both regress beyond `--tolerance` (default 0.15), when a
//! correctness anchor drifts, or when a committed engine configuration
//! disappears — the full rules are in `crates/bench/METHODOLOGY.md`.
//! `--emit <dir>` writes each freshly re-run artifact to
//! `<dir>/<artifact filename>` so CI can upload and diff them.
//!
//! `--cmp <before> <after>` renders a rebar-style markdown diff of two
//! artifact files, or of two directories of `BENCH_*.json` artifacts
//! paired by filename ([`rsp_bench::cmp`]) — CI appends the
//! committed-vs-regenerated diff to the step summary on every run.
//! `--cmp` never exits non-zero on drift (the gate owns the verdict);
//! only unreadable inputs fail.
//!
//! `--profile <bench-id>` runs one registry benchmark (default 1 sample
//! per row, override with `--samples`) with an in-memory recorder
//! installed as the process-global `rsp_obs` recorder, then prints the
//! per-phase time breakdown — exploration's prepare/screen chunks, the
//! flow's profile/select/explore/exact phases,
//! prune and refill counters — aggregated across every event the run
//! emitted. Observational only: the benchmark's anchors still assert.
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

use rsp_bench::cmp;
use rsp_bench::gate::{self, BenchArtifact, CheckOutcome};
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

/// The per-phase time profile: installs a `RingRecorder` as the
/// process-global recorder, runs one registry benchmark under it, and
/// renders the aggregate `(target, phase)` breakdown the engine's spans
/// and counters recorded. Purely observational — the benchmark's own
/// anchors still run and still assert.
fn run_profile(id: &str, samples: u32) {
    use rsp_obs::RingRecorder;
    use std::sync::Arc;

    let Some(def) = registry().find(id) else {
        fail(format!(
            "no benchmark with id {id:?} (known ids: {})",
            registry().ids().join(", ")
        ));
    };
    // Installed before `run_all` so every option struct the adapters
    // build (they default their recorder from the global) records here.
    let ring = Arc::new(RingRecorder::new(65_536));
    let prev = rsp_obs::set_global(ring.clone());
    let artifact = def.run_all(samples);
    rsp_obs::set_global(prev);

    println!(
        "phase profile: {} — {} ({} report(s), {samples} sample(s) per row)",
        def.id,
        def.title,
        artifact.reports.len()
    );
    let summary = ring.summary();
    if summary.is_empty() {
        println!("  no events recorded — this benchmark exercises no instrumented phase");
        return;
    }
    let span_total: u64 = summary.iter().map(|(_, s)| s.total_ns).sum();
    println!(
        "  {:<9} {:<13} {:>10} {:>12} {:>12} {:>7} {:>10}",
        "target", "phase", "events", "total_ms", "mean_us", "%time", "delta"
    );
    for ((target, name), s) in &summary {
        let total_ms = s.total_ns as f64 / 1e6;
        let mean_us = s.total_ns as f64 / s.count.max(1) as f64 / 1e3;
        let pct = 100.0 * s.total_ns as f64 / span_total.max(1) as f64;
        println!(
            "  {target:<9} {name:<13} {:>10} {total_ms:>12.3} {mean_us:>12.2} {pct:>6.1}% {:>10}",
            s.count, s.total_delta
        );
    }
    println!(
        "  events retained {} / recorded {} (ring capacity 65536; totals above are wrap-proof)",
        ring.events().len(),
        ring.total()
    );
}

/// Gates one committed artifact against its definition; prints the
/// status lines, writes the fresh rerun under `emit_dir`, and returns
/// whether the gate passed.
fn check_one(
    def: &BenchDef,
    path: &str,
    committed: &BenchArtifact,
    tolerance: f64,
    emit_dir: Option<&str>,
) -> bool {
    let outcome: CheckOutcome = def.check(committed, tolerance);
    for line in &outcome.lines {
        println!("  {line}");
    }
    if let Some(dir) = emit_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| fail(format!("cannot create --emit directory {dir}: {e}")));
        let Some(name) = Path::new(path).file_name() else {
            fail(format!("--check path {path} has no file name"));
        };
        let out = Path::new(dir).join(name);
        let json = serde_json::to_string_pretty(&outcome.fresh)
            .unwrap_or_else(|e| fail(format!("artifact does not serialize: {e}")));
        std::fs::write(&out, json + "\n").unwrap_or_else(|e| {
            fail(format!(
                "cannot write regenerated artifact {}: {e}",
                out.display()
            ))
        });
        println!("  regenerated artifact written to {}", out.display());
    }
    if outcome.passed() {
        println!("  PASSED");
    } else {
        eprintln!("  FAILED:");
        for r in &outcome.regressions {
            eprintln!("    {r}");
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
    let mut cmp_paths: Option<(String, String)> = None;
    let mut emit_dir: Option<String> = None;
    let mut tolerance: Option<f64> = None;
    let mut samples: Option<u32> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut resume_path: Option<String> = None;
    let mut profile_id: Option<String> = None;
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
            "--cmp" => {
                let before = next("--cmp", &mut args);
                let after = args
                    .next()
                    .unwrap_or_else(|| usage_error("--cmp needs two paths (before and after)"));
                cmp_paths = Some((before, after));
            }
            "--emit" => emit_dir = Some(next("--emit", &mut args)),
            "--profile" => profile_id = Some(next("--profile", &mut args)),
            "--resume" => resume_path = Some(next("--resume", &mut args)),
            "--deadline-ms" => {
                let raw = next("--deadline-ms", &mut args);
                let ms: u64 = raw
                    .parse()
                    .unwrap_or_else(|_| usage_error("--deadline-ms needs a millisecond count"));
                deadline_ms = Some(ms);
            }
            "--tolerance" => {
                let raw = next("--tolerance", &mut args);
                let t: f64 = raw
                    .parse()
                    .unwrap_or_else(|_| usage_error("--tolerance needs a number"));
                if t < 0.0 {
                    usage_error("--tolerance must be non-negative");
                }
                tolerance = Some(t);
            }
            "--samples" => {
                let raw = next("--samples", &mut args);
                let n: u32 = raw
                    .parse()
                    .unwrap_or_else(|_| usage_error("--samples needs a number"));
                if n < 1 {
                    usage_error("--samples must be at least 1");
                }
                samples = Some(n);
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let modes = [
        list,
        run_glob.is_some(),
        !check_paths.is_empty() || check_all,
        cmp_paths.is_some(),
        deadline_ms.is_some() || resume_path.is_some(),
        profile_id.is_some(),
    ];
    if modes.iter().filter(|m| **m).count() > 1 {
        usage_error(
            "--list/--run/--check/--check-all/--cmp/--deadline-ms/--profile are exclusive modes",
        );
    }
    if filter.is_some() && !list {
        usage_error("--filter only applies to --list");
    }

    if let Some(id) = profile_id {
        if json_path.is_some() || tolerance.is_some() || emit_dir.is_some() {
            usage_error("--profile only takes --samples");
        }
        run_profile(&id, samples.unwrap_or(1));
        return;
    }

    if deadline_ms.is_some() || resume_path.is_some() {
        if json_path.is_some() || samples.is_some() || tolerance.is_some() || emit_dir.is_some() {
            usage_error("--deadline-ms/--resume run the anytime demo and take no other flags");
        }
        run_anytime(deadline_ms, resume_path.as_deref());
        return;
    }

    if list {
        print!("{}", registry().render_list(filter.as_deref()));
        return;
    }

    if let Some((before, after)) = cmp_paths {
        if json_path.is_some() || samples.is_some() || emit_dir.is_some() {
            usage_error("--cmp only takes --tolerance");
        }
        let diff = cmp::cmp_paths(
            Path::new(&before),
            Path::new(&after),
            tolerance.unwrap_or(cmp::DEFAULT_TOLERANCE),
        )
        .unwrap_or_else(|e| fail(e));
        print!("{diff}");
        return;
    }

    if !check_paths.is_empty() || check_all {
        // Checking replays the committed reports at their recorded
        // sample counts and writes no --json; flags that only make sense
        // for a measuring run are a usage error, not something to drop
        // silently.
        if json_path.is_some() || samples.is_some() {
            usage_error(
                "--check/--check-all are exclusive: they neither write --json nor take \
                 --samples (each committed artifact selects its own benchmark and sample counts)",
            );
        }
        let tolerance = tolerance.unwrap_or(0.15);
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
            println!(
                "benchmark-regression gate: {path} [{}] (tolerance {tolerance})",
                def.id
            );
            if !check_one(def, path, committed, tolerance, emit_dir.as_deref()) {
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

    if tolerance.is_some() || emit_dir.is_some() {
        usage_error("--tolerance/--emit only apply to --check/--check-all/--cmp modes");
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
            let artifact = def.run_all(samples.unwrap_or(def.default_samples));
            println!("{} — {}", def.id, def.title);
            print!("{}", gate::render_all(&artifact));
            if let Some(path) = &json_path {
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

    if json_path.is_some() || samples.is_some() {
        usage_error("--json/--samples only apply to --run mode");
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
