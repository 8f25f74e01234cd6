//! The exact gate over freshly recorded rows. Every row here runs under
//! `rsp_bench::adapters::record`, whose lock keeps the tests of this
//! binary from recording into each other; nothing else in the binary
//! emits events, so the counts compared below are the rows' own.

use rsp_bench::adapters::explore;
use rsp_bench::gate::BenchArtifact;
use rsp_bench::registry::registry;

/// A one-report `rsp/explore` artifact over the cheap 12-candidate
/// `paper` space, freshly measured.
fn paper_artifact() -> BenchArtifact {
    BenchArtifact {
        benchmark: "rsp/explore".into(),
        reports: vec![explore::measure("paper").unwrap().report],
    }
}

#[test]
fn measuring_twice_gives_equal_reports_event_counts_included() {
    let first = paper_artifact();
    let second = paper_artifact();
    assert_eq!(first, second);
    // The engine row counts its work; the oracle row emits nothing.
    let rows = &first.reports[0].engines;
    assert!(rows[0].events.is_empty(), "{:?}", rows[0].events);
    assert_eq!(rows[1].events["explore/prepare"].count, 1);
    assert_eq!(rows[1].events["explore/screen"].count, 1);
}

#[test]
fn generic_check_matches_the_shared_gate_rules() {
    let def = registry().find("rsp/explore").unwrap();
    let artifact = paper_artifact();
    let outcome = def.check(&artifact);
    assert!(outcome.passed(), "drifts: {:?}", outcome.drifts);
    assert_eq!(outcome.lines.len(), 2, "one status line per row");

    // A feasible-count drift fails, reported committed → now.
    let mut drifted = artifact.clone();
    let feasible = drifted.reports[0].engines[1].feasible;
    drifted.reports[0].engines[1].feasible += 1;
    let outcome = def.check(&drifted);
    assert_eq!(
        outcome.drifts,
        [format!(
            "paper/engine-1-thread: feasible {} → {feasible}",
            feasible + 1
        )]
    );

    // A row the committed artifact lacks, or one it has that is no
    // longer measured, fails too.
    let mut missing = artifact.clone();
    missing.reports[0].engines.pop();
    assert!(!def.check(&missing).passed());
    let mut extra = artifact.clone();
    let mut ghost = extra.reports[0].engines[0].clone();
    ghost.name = "ghost".into();
    extra.reports[0].engines.push(ghost);
    assert!(!def.check(&extra).passed());

    // An unknown committed label is refused.
    let mut unknown = artifact;
    unknown.reports[0].space = "imaginary".into();
    assert!(!def.check(&unknown).passed());
}

#[test]
fn a_bumped_event_count_fails_naming_its_event() {
    let def = registry().find("rsp/explore").unwrap();
    let mut bumped = paper_artifact();
    let prepare = bumped.reports[0].engines[1]
        .events
        .get_mut("explore/prepare")
        .unwrap();
    prepare.count += 1;
    let committed = prepare.count;
    let outcome = def.check(&bumped);
    assert_eq!(
        outcome.drifts,
        [format!(
            "paper/engine-1-thread: explore/prepare count {committed} → {}",
            committed - 1
        )]
    );
}

#[test]
fn a_changed_frontier_entry_or_pick_fails_naming_its_row() {
    let def = registry().find("rsp/explore").unwrap();
    let artifact = paper_artifact();
    let row = &artifact.reports[0].engines[1];
    assert!(!row.frontier.is_empty() && !row.selected.is_empty());

    // An estimate that drifts while every count stays put still fails.
    let mut drifted = artifact.clone();
    let entry = &mut drifted.reports[0].engines[1].frontier[0];
    let now = entry.clone();
    entry.push('1');
    let committed = entry.clone();
    let outcome = def.check(&drifted);
    assert_eq!(
        outcome.drifts,
        [format!(
            "paper/engine-1-thread: frontier[0] {committed} → {now}"
        )]
    );

    // So does a different pick.
    let mut repicked = artifact;
    let now = repicked.reports[0].engines[0].selected.clone();
    repicked.reports[0].engines[0].selected = "RS(shr=9,shc=9,st=1)".into();
    let outcome = def.check(&repicked);
    assert_eq!(
        outcome.drifts,
        [format!(
            "paper/serial-reference: selected RS(shr=9,shc=9,st=1) → {now}"
        )]
    );
}
