//! Serving adapter — the `rsp/serve` benchmark (`BENCH_serve.json`).
//!
//! Measures sustained flow requests through the `rsp-serve` wire path
//! (real sockets, JSON line protocol, worker pool) against the direct
//! in-process engine, and the cache-warm vs cache-cold contrast the
//! long-running [`rsp_core::Session`] exists for. One label,
//! `serve-flows`: every row runs the same four Fig. 7 flow requests
//! (the paper's video workload over the 12-candidate paper space on the
//! 8×8 base) per sample; flows/second is `4 / (median_ns / 1e9)`.
//!
//! * `serial-reference` — four cold [`rsp_core::run_flow`] calls, no
//!   server, no caches: the normalization yardstick.
//! * `serve-cold-1-client` — a **fresh server per sample** (empty
//!   session caches), one client, four sequential flow requests: wire +
//!   dispatch + cold-cache cost.
//! * `serve-warm-1-client` — one long-lived server, one client, four
//!   sequential requests against warm caches: the steady-state serving
//!   cost (the warm-vs-cold anchor's fast side).
//! * `serve-warm-4-clients` — same warm server, four **concurrent**
//!   clients each issuing one flow request per sample: sustained
//!   throughput at the worker-pool width.
//!
//! Row names deliberately avoid the `1-thread` marker: served timings
//! depend on the host's core count, so the cross-host gate holds them
//! to anchors only (see `crates/bench/METHODOLOGY.md`).
//!
//! Honesty checks run inline while measuring: every served reply must
//! be **byte-identical** to the serialized in-process reference reply
//! (the wire format's float rendering is shortest-round-trip, so byte
//! equality is bit identity), and the warm rows must not add a single
//! synthesis-cache miss (asserted through the wire via
//! [`rsp_serve::proto::Request::Stats`]).

use crate::gate::{time_median, BenchReport, EngineRow};
use rsp_core::{run_flow, AppProfile, DesignSpace, FlowConfig, FlowReport};
use rsp_kernel::suite;
use rsp_serve::proto::{FlowReply, FlowRequest, Request, Response, SpaceSpec, WorkloadApp};
use rsp_serve::{Client, ServeConfig, Server};
use std::hint::black_box;
use std::net::SocketAddr;

/// Flow requests per measured sample — the unit behind the artifact's
/// flows/second reading.
const FLOWS_PER_SAMPLE: usize = 4;

/// Worker threads (= concurrent connections) the measured servers run.
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

fn stats_via(addr: SocketAddr) -> rsp_serve::proto::StatsReply {
    let mut client = Client::connect(addr).expect("connect for stats");
    match client.call(Request::Stats).expect("stats request") {
        Response::Stats(s) => s,
        other => panic!("expected Stats, got {other:?}"),
    }
}

fn row_from(
    name: &str,
    median: u64,
    min: u64,
    samples: u32,
    reference_median: u64,
    report: &FlowReport,
) -> EngineRow {
    // Every row's replies are asserted byte-identical to `report`'s, so
    // the correctness anchors are shared by construction.
    EngineRow {
        name: name.into(),
        median_ns: median,
        min_ns: min,
        samples,
        speedup_vs_reference: reference_median as f64 / median as f64,
        feasible: report.exploration.feasible.len(),
        candidates_seen: report.exploration.stats.candidates_seen,
        candidates_pruned: report.stats.candidates_pruned,
        clock_bound_cuts: report.stats.clock_bound_cuts,
        refill_segments: report.stats.refill_segments,
        refill_stall_cycles: report.stats.refill_stall_cycles,
    }
}

/// Measures the `serve-flows` label with `samples` measured repetitions
/// per row; `None` for an unknown label.
pub fn measure(label: &str, samples: u32) -> Option<BenchReport> {
    if label != "serve-flows" {
        return None;
    }
    let apps = apps();
    let config = FlowConfig::default(); // paper space, 8×8, no caches
    let reference = run_flow(&apps, &config).expect("reference flow runs");
    let expected = expected_reply(&reference);
    let mut rows: Vec<EngineRow> = Vec::new();

    // serial-reference: four cold in-process flows, fresh config each
    // time so nothing is memoized across them.
    let reference_median = {
        let (median, min) = time_median(samples, || {
            for _ in 0..FLOWS_PER_SAMPLE {
                let cold = FlowConfig::default();
                black_box(run_flow(black_box(&apps), &cold).expect("flow runs"));
            }
        });
        rows.push(row_from(
            "serial-reference",
            median,
            min,
            samples,
            median,
            &reference,
        ));
        median
    };

    // serve-cold-1-client: a fresh server (empty caches) per sample.
    // Shutdown joins worker threads at a 50 ms poll boundary, so the
    // spent servers are parked and dropped after timing instead.
    {
        let mut spent: Vec<Server> = Vec::new();
        let (median, min) = time_median(samples, || {
            let server = Server::spawn(ServeConfig {
                workers: WORKERS,
                ..ServeConfig::default()
            })
            .expect("spawn cold server");
            let mut client = Client::connect(server.addr()).expect("connect");
            for _ in 0..FLOWS_PER_SAMPLE {
                call_and_check(&mut client, &expected);
            }
            spent.push(server);
        });
        drop(spent);
        rows.push(row_from(
            "serve-cold-1-client",
            median,
            min,
            samples,
            reference_median,
            &reference,
        ));
    }

    // One long-lived server for both warm rows, primed before timing so
    // even the warmup invocation is warm.
    let server = Server::spawn(ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    })
    .expect("spawn warm server");
    let addr = server.addr();
    {
        let mut client = Client::connect(addr).expect("connect");
        call_and_check(&mut client, &expected);
    }
    let primed = stats_via(addr);
    assert!(primed.model_reports > 0, "priming populated the caches");

    // serve-warm-1-client: sequential requests against warm caches.
    {
        let mut client = Client::connect(addr).expect("connect");
        let (median, min) = time_median(samples, || {
            for _ in 0..FLOWS_PER_SAMPLE {
                call_and_check(&mut client, &expected);
            }
        });
        rows.push(row_from(
            "serve-warm-1-client",
            median,
            min,
            samples,
            reference_median,
            &reference,
        ));
    }

    // serve-warm-4-clients: concurrent clients, one flow each, fresh
    // connections per sample so the worker pool is exercised end to end.
    {
        let (median, min) = time_median(samples, || {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..FLOWS_PER_SAMPLE)
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
        });
        rows.push(row_from(
            "serve-warm-4-clients",
            median,
            min,
            samples,
            reference_median,
            &reference,
        ));
    }

    // The warm-cache anchor: the entire timed warm phase must not have
    // synthesized a single new plan — every request hit the memo.
    let after = stats_via(addr);
    assert_eq!(
        after.model_misses, primed.model_misses,
        "warm serving must not miss the synthesis cache"
    );
    assert!(
        after.model_hits > primed.model_hits,
        "warm serving must be answered from the synthesis cache"
    );
    server.shutdown();

    Some(BenchReport {
        space: label.into(),
        candidates: DesignSpace::paper().plans().count(),
        kernels: apps.iter().map(|a| a.kernels.len()).sum(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        samples,
        selected_pe_count: reference.base.geometry().pe_count(),
        engines: rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_benchmark_measures_all_four_rows_bit_identically() {
        let report = measure("serve-flows", 1).unwrap();
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
        assert!(measure("serve-imaginary", 1).is_none());
    }
}
