//! `rearrange` reports its scheduler passes to the process-global
//! recorder. The tests of this binary are the only ones that install a
//! global recorder, and each runs whole while holding [`TURN`], so no
//! other test's rearrangements land in it.

use rsp_arch::presets;
use rsp_core::{rearrange, run_flow, AppProfile, Constraints, FlowConfig};
use rsp_kernel::suite;
use rsp_mapper::{map, MapOptions};
use rsp_obs::{EventKind, RingRecorder};
use rsp_workload::{registry, SUITE_MAX_SLOWDOWN};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Held by each test for its whole run.
static TURN: Mutex<()> = Mutex::new(());

fn take_turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` with `ring` installed as the global recorder.
fn recorded<T>(ring: &Arc<RingRecorder>, f: impl FnOnce() -> T) -> T {
    let previous = rsp_obs::set_global(ring.clone());
    let out = f();
    rsp_obs::set_global(previous);
    out
}

#[test]
fn one_rearrange_records_two_scheduler_spans_and_the_same_result() {
    let _turn = take_turn();
    let ctx = map(
        presets::base_8x8().base(),
        &suite::fdct(),
        &MapOptions::default(),
    )
    .unwrap();
    let arch = presets::rsp2();
    // The global recorder is the null one until installed.
    let quiet = rearrange(&ctx, &arch, &Default::default()).unwrap();

    let ring = Arc::new(RingRecorder::new(16));
    let observed = recorded(&ring, || rearrange(&ctx, &arch, &Default::default()));

    assert_eq!(observed.unwrap(), quiet);
    let spans = ring.named("rearrange", "schedule");
    assert_eq!(spans.len(), 2, "{spans:?}");
    assert_eq!(ring.total(), 2, "nothing else is recorded");
    // The latency-only pass, then the sharing pass.
    assert_eq!([spans[0].id, spans[1].id], [0, 1]);
    assert!(spans
        .iter()
        .all(|s| matches!(s.kind, EventKind::Span { .. })));
}

#[test]
fn the_exact_stage_stops_a_candidate_at_its_first_failing_kernel() {
    let _turn = take_turn();
    // The generated suite on the 8×8 under the paper's cap: two of the
    // three frontier candidates fail exact rearrangement.
    let apps = [AppProfile::new(
        "generated-suite",
        registry().into_iter().map(|k| (k, 1)).collect(),
    )];
    let ring = Arc::new(RingRecorder::new(1 << 12));
    let report = recorded(&ring, || {
        // Built here, so its recorder is the ring too.
        let config = FlowConfig {
            coverage: 1.0,
            geometries: vec![(4, 4), (6, 6), (8, 8)],
            constraints: Constraints {
                enforce_cost_bound: true,
                max_slowdown: SUITE_MAX_SLOWDOWN,
            },
            ..FlowConfig::default()
        };
        run_flow(&apps, &config)
    })
    .unwrap();
    assert_eq!(ring.dropped(), 0);

    // Scheduler spans per frontier candidate: each candidate's
    // `flow/rearrange` span closes after the spans of its kernels.
    let mut per_candidate = Vec::new();
    let mut spans = 0;
    for event in ring.events() {
        match (event.target, event.name) {
            ("rearrange", "schedule") => spans += 1,
            ("flow", "rearrange") => per_candidate.push(std::mem::take(&mut spans)),
            _ => {}
        }
    }
    assert_eq!(spans, 0, "every scheduler span belongs to a candidate");

    // Where each candidate's first failing kernel lies, replayed without
    // a recorder: two spans per kernel up to and including it, and none
    // after it.
    let kernels = report.contexts.len();
    let mut failed = 0;
    let points: Vec<_> = report.exploration.pareto_points().collect();
    assert_eq!(per_candidate.len(), points.len());
    for (point, recorded) in points.iter().zip(&per_candidate) {
        let first_failure = report
            .contexts
            .iter()
            .position(|ctx| rearrange(ctx, &point.arch, &Default::default()).is_err());
        let rearranged = first_failure.map_or(kernels, |k| k + 1);
        assert_eq!(*recorded, 2 * rearranged, "{}", point.arch.name());
        failed += usize::from(first_failure.is_some_and(|k| k + 1 < kernels));
    }
    assert_eq!(failed, report.stats.rearrangements_failed);
    assert!(failed > 0, "no candidate failed before its last kernel");
}
