//! Serving adapter — the `rsp/serve` benchmark (`BENCH_serve.json`).
//!
//! Runs flow requests through the `rsp-serve` wire path (real sockets,
//! JSON line protocol, worker pool) next to the direct in-process
//! engine, cache-cold and cache-warm — the contrast the long-running
//! [`rsp_core::Session`] exists for. One label, `serve-flows`: every row
//! runs the same four Fig. 7 flow requests (the paper's video workload
//! over the 12-candidate paper space on the 8×8 base).
//!
//! * `serial-reference` — four cold [`rsp_core::run_flow`] calls, no
//!   server, no caches.
//! * `serve-cold-1-client` — a fresh server (empty session caches), one
//!   client, four sequential flow requests.
//! * `serve-warm-1-client` — a server over the shared, pre-warmed
//!   session, one client, four sequential requests.
//! * `serve-warm-4-clients` — a server over the same warm session, four
//!   **concurrent** clients each issuing one flow request.
//!
//! Every row spawns its server and shuts it down inside its recorded
//! run, so the server's last events (the reply write follows the reply
//! the client already holds) land before the row's recording closes.
//!
//! Honesty checks run inline: every served reply must be
//! **byte-identical** to the serialized in-process reference reply (the
//! wire format's float rendering is shortest-round-trip, so byte
//! equality is bit identity), and the warm rows must not add a single
//! synthesis-cache miss.

use super::{Measured, Rows};
use crate::gate::{EngineRow, Events};
use rsp_core::{run_flow, AppProfile, DesignSpace, FlowConfig, FlowReport, Session};
use rsp_kernel::suite;
use rsp_obs::{Event, Recorder};
use rsp_serve::proto::{FlowReply, FlowRequest, Request, Response, SpaceSpec, WorkloadApp};
use rsp_serve::{Client, ServeConfig, Server};
use std::sync::Arc;

/// Flow requests per row.
const FLOWS_PER_ROW: usize = 4;

/// Worker threads (= concurrent connections) the servers run.
const WORKERS: usize = 4;

/// The benchmark workload: the paper's video app (FDCT per macroblock,
/// SAD-dominated motion search) plus an inner-product tail.
fn kernels() -> Vec<(rsp_kernel::Kernel, u64)> {
    vec![
        (suite::fdct(), 99),
        (suite::sad(), 396),
        (suite::inner_product(), 64),
    ]
}

fn apps() -> Vec<AppProfile> {
    vec![AppProfile::new("video", kernels())]
}

/// The same workload as a wire request (kernels travel as textual DFG
/// source).
fn flow_request() -> Request {
    Request::Flow(FlowRequest {
        apps: vec![WorkloadApp {
            name: "video".into(),
            kernels: kernels()
                .into_iter()
                .map(|(k, runs)| (rsp_workload::print_kernel(&k), runs))
                .collect(),
        }],
        geometries: None,
        space: SpaceSpec::Paper,
        limits: rsp_serve::proto::Limits::none(),
    })
}

/// Serializes the reply the server would send for `report` — the byte
/// string every served reply is asserted against.
fn expected_reply(report: &FlowReport) -> String {
    serde_json::to_string(&Response::Flowed(FlowReply {
        base_pe_count: report.base.geometry().pe_count() as u64,
        chosen: report.chosen.name().to_string(),
        area_slices: report.area_slices,
        base_area_slices: report.base_area_slices,
        weighted_et_ns: report.weighted_et_ns(),
        feasible: report.exploration.feasible.len() as u64,
        critical_loops: report.critical_loops.len() as u64,
        refill_segments: report.stats.refill_segments as u64,
        refill_stall_cycles: report.stats.refill_stall_cycles,
        complete: report.completeness.is_complete(),
    }))
    .expect("reply serializes")
}

fn call_and_check(client: &mut Client, expected: &str) {
    let reply = client.call(flow_request()).expect("flow request");
    let got = serde_json::to_string(&reply).expect("reply serializes");
    assert_eq!(
        got, expected,
        "served flow differs from the in-process engine"
    );
}

/// Spawns a server over `session` whose own events go to the current
/// global recorder (the row's, when called inside a recorded run).
fn spawn(session: Arc<Session>) -> Server {
    let config = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    Server::with_session(config, session).expect("spawn server")
}

/// One client sends `flows` sequential requests to a fresh server over
/// `session`; the server is shut down (its threads joined) on return.
fn serve_sequentially(session: Arc<Session>, flows: usize, expected: &str) {
    let server = spawn(session);
    let mut client = Client::connect(server.addr()).expect("connect");
    for _ in 0..flows {
        call_and_check(&mut client, expected);
    }
    // Closing first lets the worker see end-of-stream instead of
    // waiting out its read poll.
    drop(client);
    server.shutdown();
}

/// Forwards each event to whichever recorder is process-global when it
/// is emitted. The warm session is built once but serves two rows; this
/// lets its flows report to each row's recorder in turn.
#[derive(Debug)]
struct CurrentGlobal;

impl Recorder for CurrentGlobal {
    fn enabled(&self) -> bool {
        rsp_obs::global().enabled()
    }

    fn record(&self, event: &Event<'_>) {
        rsp_obs::global().record(event);
    }
}

/// Measures the `serve-flows` label; `None` for an unknown label.
pub fn measure(label: &str) -> Option<Measured> {
    if label != "serve-flows" {
        return None;
    }
    let apps = apps();
    let reference = run_flow(&apps, &FlowConfig::default()).expect("reference flow runs");
    let expected = expected_reply(&reference);
    let row = |name: &'static str| {
        // Every row's replies are asserted byte-identical to
        // `reference`, so the result anchors are shared by construction.
        let reference = &reference;
        move |_: &(), events: Events| EngineRow::from_flow(name, reference, events)
    };
    let mut rows = Rows::default();

    // serial-reference: four cold in-process flows, fresh config each
    // time so nothing is memoized across them.
    rows.record(
        || {
            for _ in 0..FLOWS_PER_ROW {
                run_flow(&apps, &FlowConfig::default()).expect("flow runs");
            }
        },
        row("serial-reference"),
    );

    // serve-cold-1-client: a fresh session with empty caches.
    rows.record(
        || {
            let cold = Arc::new(Session::builder().build());
            serve_sequentially(cold, FLOWS_PER_ROW, &expected);
        },
        row("serve-cold-1-client"),
    );

    // One session for both warm rows, primed before either runs.
    let session = Arc::new(Session::builder().recorder(Arc::new(CurrentGlobal)).build());
    serve_sequentially(Arc::clone(&session), 1, &expected);
    let primed = session.stats();
    assert!(primed.model_reports > 0, "priming populated the caches");

    // serve-warm-1-client: sequential requests against warm caches.
    rows.record(
        || serve_sequentially(Arc::clone(&session), FLOWS_PER_ROW, &expected),
        row("serve-warm-1-client"),
    );

    // serve-warm-4-clients: concurrent clients, one flow each.
    rows.record(
        || {
            let server = spawn(Arc::clone(&session));
            let addr = server.addr();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..FLOWS_PER_ROW)
                    .map(|_| {
                        s.spawn(|| {
                            let mut client = Client::connect(addr).expect("connect");
                            call_and_check(&mut client, &expected);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("client thread");
                }
            });
            server.shutdown();
        },
        row("serve-warm-4-clients"),
    );

    // The warm-cache anchor: the warm rows must not have synthesized a
    // single new plan — every request hit the memo.
    let after = session.stats();
    assert_eq!(
        after.model_misses, primed.model_misses,
        "warm serving must not miss the synthesis cache"
    );
    assert!(
        after.model_hits > primed.model_hits,
        "warm serving must be answered from the synthesis cache"
    );

    Some(rows.measured(
        label,
        DesignSpace::paper().plans().count(),
        apps.iter().map(|a| a.kernels.len()).sum(),
        reference.base.geometry().pe_count(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_benchmark_measures_all_four_rows_bit_identically() {
        let report = measure("serve-flows").unwrap().report;
        assert_eq!(report.engines.len(), 4);
        assert_eq!(report.engines[0].name, "serial-reference");
        let names: Vec<&str> = report.engines.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "serial-reference",
                "serve-cold-1-client",
                "serve-warm-1-client",
                "serve-warm-4-clients"
            ]
        );
        // All rows carry the reference's anchors (replies were asserted
        // byte-identical while measuring).
        for row in &report.engines {
            assert_eq!(row.feasible, report.engines[0].feasible);
            assert_eq!(row.refill_segments, report.engines[0].refill_segments);
        }
        assert_eq!(report.selected_pe_count, 64);
        assert_eq!(report.kernels, 3);
        // Unknown labels are refused.
        assert!(measure("serve-imaginary").is_none());
    }
}
