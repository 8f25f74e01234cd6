//! Concurrency test for [`Session`] cache accounting: N threads
//! hammering one session must produce counters that *exactly* account
//! for every call — `hits + misses == calls`, never a lost update —
//! and the observability counters must agree with the snapshot.

use rsp_core::Session;
use rsp_kernel::suite;
use rsp_obs::RingRecorder;
use std::sync::Arc;

const THREADS: usize = 8;
const ITERS: usize = 25;

#[test]
fn mapped_context_counters_account_for_every_call_exactly() {
    let ring = Arc::new(RingRecorder::new(16));
    let session = Arc::new(Session::builder().recorder(ring.clone()).build());
    let base = session.base(8, 8);
    let kernels = [suite::sad(), suite::fdct(), suite::inner_product()];

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let session = Arc::clone(&session);
            let base = &base;
            let kernels = &kernels;
            s.spawn(move || {
                for i in 0..ITERS {
                    let kernel = &kernels[(t + i) % kernels.len()];
                    let ctx = session.map(base, kernel).expect("suite maps");
                    assert_eq!(ctx.kernel_name(), kernel.name());
                }
            });
        }
    });

    let stats = session.stats();
    let calls = (THREADS * ITERS) as u64;
    // The exact accounting invariant: every map call is either a hit or
    // a miss, no lost updates under contention. (Racing cold starts may
    // produce more than one miss per kernel — each such call still
    // counts as a miss — so only the *sum* is exact.)
    assert_eq!(
        stats.context_hits + stats.context_misses,
        calls,
        "hits {} + misses {} must equal {} calls",
        stats.context_hits,
        stats.context_misses,
        calls
    );
    // At least one miss per distinct kernel, and the memo holds exactly
    // the distinct kernels at the end.
    assert!(stats.context_misses >= kernels.len() as u64);
    assert_eq!(stats.mapped_contexts, kernels.len());
    assert!(stats.context_hits > 0, "warm calls must hit");

    // The observability counters saw the same traffic: summed deltas of
    // the session counter events equal the snapshot exactly. (Ring
    // capacity is far below the event count — the wrap-proof summary is
    // what makes this exact.)
    let summary = ring.summary();
    let total_of = |name: &str| {
        summary
            .iter()
            .find(|((target, n), _)| *target == "session" && *n == name)
            .map(|(_, s)| s.total_delta)
            .unwrap_or(0)
    };
    assert_eq!(total_of("context_hit"), stats.context_hits);
    assert_eq!(total_of("context_miss"), stats.context_misses);
}

#[test]
fn explore_requests_count_exactly_under_contention() {
    let session = Arc::new(Session::builder().build());
    let base = session.base(8, 8);
    let kernels = [suite::sad()];

    std::thread::scope(|s| {
        for _ in 0..4 {
            let session = Arc::clone(&session);
            let base = &base;
            let kernels = &kernels;
            s.spawn(move || {
                for _ in 0..3 {
                    session
                        .explore(
                            base,
                            kernels,
                            &[1.0],
                            &rsp_core::DesignSpace::paper(),
                            Default::default(),
                        )
                        .expect("explores");
                }
            });
        }
    });

    let stats = session.stats();
    // Each `explore` counts as one request and routes its single kernel
    // through `map`, which counts as another: 12 explores → 24 exactly,
    // with no lost updates under contention.
    assert_eq!(stats.requests, 24, "every request is counted exactly once");
    assert_eq!(
        stats.context_hits + stats.context_misses,
        12,
        "one mapped-context lookup per request: {stats:?}"
    );
}
