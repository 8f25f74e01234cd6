//! CLI contract for the `headline` binary: the registry subcommands
//! (`--list`, `--run`, `--check`, `--check-all`) behave as documented,
//! malformed / truncated / schema-drifted JSON inputs fail with a
//! one-line diagnostic naming the file (and, for schema drift, the
//! field) and a non-zero exit — never a panic backtrace — and the
//! anytime demo checkpoints and resumes end to end.
//!
//! Measurement-bearing assertions use artifacts over the cheap
//! 12-candidate `paper` space (or schema-valid empty-`reports`
//! artifacts, which gate vacuously) so the suite stays fast; the
//! committed artifacts themselves are gated by CI's release-mode
//! `--check-all`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn headline() -> Command {
    Command::new(env!("CARGO_BIN_EXE_headline"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("headline-cli-test-{}", std::process::id()))
        .join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tmp(name: &str) -> PathBuf {
    tmpdir("scratch").join(name)
}

fn write_artifact(dir: &Path, filename: &str, id: &str, reports_json: &str) {
    std::fs::write(
        dir.join(filename),
        format!("{{\"benchmark\": {id:?}, \"reports\": {reports_json}}}"),
    )
    .unwrap();
}

/// Asserts a failing invocation: non-zero exit, the expected fragment on
/// stderr, and no panic backtrace.
fn assert_fails_cleanly(out: Output, fragment: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "expected failure, got: {out:?}");
    assert!(
        stderr.contains(fragment),
        "missing {fragment:?} in {stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "diagnostic must not be a panic: {stderr}"
    );
}

#[test]
fn list_prints_definitions_and_filters_by_glob() {
    let out = headline().arg("--list").output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in ["rsp/explore", "rsp/flow", "rsp/workload", "rsp/soak"] {
        assert!(stdout.contains(id), "missing {id} in {stdout}");
    }
    // The listing is the regeneration table: one checked command per id.
    assert!(
        stdout.contains("--run rsp/explore --json BENCH_explore.json"),
        "{stdout}"
    );

    let out = headline()
        .args(["--list", "--filter", "rsp/f*"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rsp/flow"), "{stdout}");
    assert!(!stdout.contains("rsp/explore"), "{stdout}");

    // --filter outside --list is a usage error.
    let out = headline().args(["--filter", "x"]).output().unwrap();
    assert_fails_cleanly(out, "--filter only applies to --list");
}

#[test]
fn run_rejects_bad_globs_and_ambiguous_json() {
    let out = headline().args(["--run", "rsp/nope*"]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_fails_cleanly(out, "no benchmark matches");
    assert!(stderr.contains("known ids"), "{stderr}");

    // --json with a multi-match glob must fail before measuring.
    let out = headline()
        .args(["--run", "rsp/*", "--json", "/tmp/x.json"])
        .output()
        .unwrap();
    assert_fails_cleanly(out, "--json needs --run to match exactly one benchmark");
}

#[test]
fn check_rejects_bad_artifacts_with_one_line_diagnostics() {
    // Unreadable file.
    let out = headline()
        .args(["--check", "/nonexistent/nope.json"])
        .output()
        .unwrap();
    assert_fails_cleanly(out, "cannot read committed artifact /nonexistent/nope.json");

    // Schema drift: the diagnostic names the file and the missing field.
    let drifted = tmp("drifted.json");
    std::fs::write(&drifted, "{\"benchmark\": \"rsp/soak\"}").unwrap();
    let out = headline()
        .args(["--check", drifted.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_fails_cleanly(out, "invalid benchmark artifact");
    assert!(stderr.contains("drifted.json"), "{stderr}");
    assert!(stderr.contains("missing field `reports`"), "{stderr}");

    // Truncated and outright malformed JSON.
    for (name, content) in [
        (
            "truncated.json",
            "{\"benchmark\": \"rsp/soak\", \"reports\": ",
        ),
        ("malformed.json", "not json at all"),
    ] {
        let path = tmp(name);
        std::fs::write(&path, content).unwrap();
        let out = headline()
            .args(["--check", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert_fails_cleanly(out, "invalid benchmark artifact");
    }

    // An artifact whose benchmark id has no definition fails listing the
    // known ids.
    let unknown = tmp("unknown.json");
    std::fs::write(
        &unknown,
        "{\"benchmark\": \"rsp/unknown\", \"reports\": []}",
    )
    .unwrap();
    let out = headline()
        .args(["--check", unknown.to_str().unwrap()])
        .output()
        .unwrap();
    assert_fails_cleanly(out, "no check handler for benchmark id");

    // Unknown flags are a usage error, not a panic.
    let out = headline().args(["--frobnicate"]).output().unwrap();
    assert_fails_cleanly(out, "unknown argument");
}

#[test]
fn check_all_discovery_errors_abort_before_any_measurement() {
    // An artifact with no matching definition fails discovery.
    let dir = tmpdir("discover-unknown");
    write_artifact(&dir, "BENCH_explore.json", "rsp/explore", "[]");
    write_artifact(&dir, "BENCH_flow.json", "rsp/flow", "[]");
    write_artifact(&dir, "BENCH_workload.json", "rsp/workload", "[]");
    write_artifact(&dir, "BENCH_soak.json", "rsp/soak", "[]");
    write_artifact(&dir, "BENCH_orphan.json", "rsp/orphan", "[]");
    let out = headline()
        .arg("--check-all")
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_fails_cleanly(out, "no benchmark definition");
    assert!(stderr.contains("rsp/orphan"), "{stderr}");
    assert!(stderr.contains("gate FAILED"), "{stderr}");

    // A definition with no committed artifact fails discovery, naming
    // the regeneration command.
    let dir = tmpdir("discover-missing");
    write_artifact(&dir, "BENCH_explore.json", "rsp/explore", "[]");
    let out = headline()
        .arg("--check-all")
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_fails_cleanly(out, "no committed artifact");
    assert!(stderr.contains("rsp/soak"), "{stderr}");
    assert!(stderr.contains("--run rsp/soak"), "{stderr}");

    // Both error classes are collected in one invocation.
    write_artifact(&dir, "BENCH_orphan.json", "rsp/orphan", "[]");
    let out = headline()
        .arg("--check-all")
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("no benchmark definition"), "{stderr}");
    assert!(stderr.contains("no committed artifact"), "{stderr}");
}

#[test]
fn check_all_matches_the_per_artifact_gate_verdict() {
    // A complete artifact set: one real (cheap, paper-space) report for
    // rsp/explore, schema-valid empty artifacts for the rest — the gate
    // replays reports, so empty ones check vacuously and the explore one
    // proves --check-all measures through the same path as --check.
    let dir = tmpdir("check-all-pass");
    let report = rsp_bench::adapters::explore::measure("paper")
        .unwrap()
        .report;
    let artifact = rsp_bench::gate::BenchArtifact {
        benchmark: "rsp/explore".into(),
        reports: vec![report],
    };
    std::fs::write(
        dir.join("BENCH_explore.json"),
        serde_json::to_string_pretty(&artifact).unwrap(),
    )
    .unwrap();
    write_artifact(&dir, "BENCH_deep100.json", "rsp/deep100", "[]");
    write_artifact(&dir, "BENCH_flow.json", "rsp/flow", "[]");
    write_artifact(&dir, "BENCH_workload.json", "rsp/workload", "[]");
    write_artifact(&dir, "BENCH_soak.json", "rsp/soak", "[]");
    write_artifact(&dir, "BENCH_serve.json", "rsp/serve", "[]");

    // Per-artifact verdict.
    let per_artifact = headline()
        .args(["--check", "BENCH_explore.json"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(per_artifact.status.success(), "{per_artifact:?}");

    // Self-discovering verdict.
    let out = headline()
        .arg("--check-all")
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("discovered 6 committed artifacts for 6 registered benchmarks"),
        "{stdout}"
    );
    for id in [
        "rsp/explore",
        "rsp/deep100",
        "rsp/flow",
        "rsp/workload",
        "rsp/soak",
        "rsp/serve",
    ] {
        assert!(
            stdout.contains(&format!("[{id}]")),
            "missing {id}: {stdout}"
        );
    }
    assert!(stdout.contains("gate PASSED"), "{stdout}");

    // A drifted anchor flips both verdicts the same way, and each names
    // the field committed → now.
    let mut drifted = artifact.clone();
    let feasible = drifted.reports[0].engines[0].feasible;
    drifted.reports[0].engines[0].feasible += 1;
    std::fs::write(
        dir.join("BENCH_explore.json"),
        serde_json::to_string_pretty(&drifted).unwrap(),
    )
    .unwrap();
    let per_artifact = headline()
        .args(["--check", "BENCH_explore.json"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let all = headline()
        .arg("--check-all")
        .current_dir(&dir)
        .output()
        .unwrap();
    let drift = format!(
        "paper/serial-reference: feasible {} → {feasible}",
        feasible + 1
    );
    for out in [per_artifact, all] {
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_fails_cleanly(out, &drift);
        assert!(stderr.contains("gate FAILED"), "{stderr}");
    }
}

#[test]
fn resume_rejects_bad_checkpoints_with_one_line_diagnostics() {
    let bad = tmp("bad-ckpt.json");
    std::fs::write(&bad, "{\"version\": 1}").unwrap();
    let out = headline()
        .args(["--resume", bad.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_fails_cleanly(out, "invalid checkpoint");
    assert!(stderr.contains("bad-ckpt.json"), "{stderr}");
}

#[test]
fn anytime_demo_checkpoints_and_resumes_to_completion() {
    let ckpt = tmp("demo-ckpt.json");
    let _ = std::fs::remove_file(&ckpt);

    // Zero deadline: truncated immediately, checkpoint written.
    let out = headline()
        .args(["--deadline-ms", "0", "--resume", ckpt.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("truncated (Deadline)"), "{stdout}");
    assert!(stdout.contains("checkpoint written"), "{stdout}");
    assert!(ckpt.exists());

    // Resume without a deadline: picks the checkpoint up and completes.
    let out = headline()
        .args(["--resume", ckpt.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("resuming from"), "{stdout}");
    assert!(stdout.contains("complete:"), "{stdout}");
}

#[test]
fn exclusive_modes_are_rejected() {
    for args in [
        vec!["--list", "--run", "rsp/*"],
        vec!["--check-all", "--deadline-ms", "0"],
        vec!["--run", "rsp/*", "--deadline-ms", "0"],
        vec!["--list", "--check", "x.json"],
    ] {
        let out = headline().args(&args).output().unwrap();
        assert_fails_cleanly(out, "exclusive modes");
    }
    // Flag/mode mismatches fail before any measurement.
    let out = headline().args(["--json", "x.json"]).output().unwrap();
    assert_fails_cleanly(out, "--json only applies to --run");
    let out = headline()
        .args(["--check-all", "--json", "x.json"])
        .output()
        .unwrap();
    assert_fails_cleanly(out, "--json only applies to --run");
}
