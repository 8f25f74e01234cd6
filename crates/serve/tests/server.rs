//! End-to-end server tests: concurrent requests over real sockets,
//! bit-identical to in-process engine runs, with observable
//! cross-request cache reuse and per-request panic isolation.

use rsp_core::{explore_with, DesignSpace, ExploreOptions, Session, SessionStats};
use rsp_kernel::suite;
use rsp_mapper::{map, MapOptions};
use rsp_serve::proto::{
    ExploreRequest, FlowRequest, Limits, MapRequest, Request, Response, SpaceSpec, WorkloadApp,
};
use rsp_serve::{Client, ServeConfig, Server};
use rsp_workload::print_kernel;

fn dfg(k: &rsp_kernel::Kernel) -> String {
    print_kernel(k)
}

fn explore_request() -> Request {
    Request::Explore(ExploreRequest {
        kernels: vec![dfg(&suite::fdct()), dfg(&suite::sad())],
        weights: None,
        rows: 8,
        cols: 8,
        space: SpaceSpec::Paper,
        limits: Limits::none(),
    })
}

/// The reference result computed in-process, serialized exactly like
/// the server serializes its reply — byte equality means bit identity
/// (the wire format's float rendering is shortest-round-trip).
fn reference_explore_reply() -> Response {
    let session = Session::builder().build();
    let base = session.base(8, 8);
    let kernels = [suite::fdct(), suite::sad()];
    let contexts: Vec<_> = kernels
        .iter()
        .map(|k| map(&base, k, &MapOptions::default()).unwrap())
        .collect();
    let result = explore_with(
        &base,
        &kernels,
        &contexts,
        &[1.0, 1.0],
        &DesignSpace::paper(),
        &ExploreOptions::default(),
    )
    .unwrap();
    Response::Explored(rsp_serve::proto::ExploreReply {
        feasible: result.feasible.len() as u64,
        frontier: result
            .pareto_points()
            .map(|p| rsp_serve::proto::FrontierPoint {
                name: p.arch.name().to_string(),
                area_slices: p.area_slices,
                est_et_ns: p.est_et_ns,
            })
            .collect(),
        best: Some(result.best_point().arch.name().to_string()),
        base_et_ns: result.base_et_ns,
        candidates_seen: result.stats.candidates_seen as u64,
        candidates_pruned: result.stats.candidates_pruned as u64,
        complete: true,
    })
}

fn stats_of(client: &mut Client) -> rsp_serve::proto::StatsReply {
    match client.call(Request::Stats).unwrap() {
        Response::Stats(s) => s,
        other => panic!("expected Stats, got {other:?}"),
    }
}

#[test]
fn concurrent_explores_are_bit_identical_and_share_the_cache() {
    let server = Server::spawn(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let reference = serde_json::to_string(&reference_explore_reply()).unwrap();

    // Four clients, each issuing the same overlapping explore twice,
    // all in flight at once.
    let replies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::connect(addr).unwrap();
                    (0..2)
                        .map(|_| {
                            let r = client.call(explore_request()).unwrap();
                            assert!(matches!(r, Response::Explored(_)), "got {r:?}");
                            serde_json::to_string(&r).unwrap()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(replies.len(), 8);
    for r in &replies {
        assert_eq!(r, &reference, "served result differs from in-process run");
    }

    // Cross-request reuse is observable: eight identical explores over
    // the paper space synthesized each plan once, everything else hit.
    let mut client = Client::connect(addr).unwrap();
    let stats = stats_of(&mut client);
    assert!(
        stats.model_hits > 0,
        "expected synthesis-memo hits, got {stats:?}"
    );
    // Misses are bounded by racing cold starts (4 workers × plans, and
    // the area fast path counts separately); hits come from the seven
    // warm requests sweeping every plan again, so reuse dominates.
    assert!(
        stats.model_hits > stats.model_misses,
        "reuse should dominate: {stats:?}"
    );
    assert_eq!(stats.mapped_contexts, 2);
    server.shutdown();
}

#[test]
fn serves_map_and_flow_and_survives_panicking_requests() {
    let server = Server::spawn(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Map round trip.
    match client
        .call(Request::Map(MapRequest {
            kernel: dfg(&suite::inner_product()),
            rows: 8,
            cols: 8,
        }))
        .unwrap()
    {
        Response::Mapped(m) => {
            assert!(m.cycles > 0);
            assert!(m.initiation_interval > 0);
        }
        other => panic!("expected Mapped, got {other:?}"),
    }

    // A poisoned request: mismatched weights length panics inside the
    // engine; the worker isolates it and answers an error...
    let poisoned = client
        .call(Request::Explore(ExploreRequest {
            kernels: vec![dfg(&suite::fdct())],
            weights: Some(vec![1.0, 2.0, 3.0]),
            rows: 8,
            cols: 8,
            space: SpaceSpec::Paper,
            limits: Limits::none(),
        }))
        .unwrap();
    match poisoned {
        Response::Error(msg) => assert!(
            msg.contains("panicked"),
            "expected isolation diagnostic, got: {msg}"
        ),
        other => panic!("expected Error, got {other:?}"),
    }

    // ...and the same connection keeps working afterwards.
    let flow = client
        .call(Request::Flow(FlowRequest {
            apps: vec![WorkloadApp {
                name: "video".into(),
                kernels: vec![(dfg(&suite::fdct()), 99), (dfg(&suite::sad()), 396)],
            }],
            geometries: None,
            space: SpaceSpec::Paper,
            limits: Limits::none(),
        }))
        .unwrap();
    match flow {
        Response::Flowed(f) => {
            assert_eq!(f.base_pe_count, 64);
            assert!(f.complete);
            assert!(f.area_slices > 0.0);
            assert!(f.weighted_et_ns > 0.0);
            assert_eq!(f.critical_loops, 2);
        }
        other => panic!("expected Flowed, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn a_flow_over_no_executed_work_answers_an_error() {
    let server = Server::spawn(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client
        .call(Request::Flow(FlowRequest {
            apps: vec![WorkloadApp {
                name: "idle".into(),
                kernels: vec![(dfg(&suite::fdct()), 0), (dfg(&suite::sad()), 0)],
            }],
            geometries: None,
            space: SpaceSpec::Paper,
            limits: Limits::none(),
        }))
        .unwrap();
    match reply {
        Response::Error(msg) => assert_eq!(msg, rsp_core::RspError::EmptyProfile.to_string()),
        other => panic!("expected Error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn an_exploration_over_no_kernels_answers_an_error() {
    let server = Server::spawn(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client
        .call(Request::Explore(ExploreRequest {
            kernels: vec![],
            weights: None,
            rows: 8,
            cols: 8,
            space: SpaceSpec::Paper,
            limits: Limits::none(),
        }))
        .unwrap();
    match reply {
        Response::Error(msg) => assert_eq!(msg, rsp_core::RspError::EmptyProfile.to_string()),
        other => panic!("expected Error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn served_flow_matches_in_process_session_flow() {
    let apps = vec![rsp_core::AppProfile::new(
        "video",
        vec![(suite::fdct(), 99), (suite::sad(), 396)],
    )];
    let session = Session::builder().build();
    let report = session
        .flow(
            &apps,
            DesignSpace::paper(),
            rsp_core::ExploreControl::default(),
        )
        .unwrap();

    let server = Server::spawn(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let served = client
        .call(Request::Flow(FlowRequest {
            apps: vec![WorkloadApp {
                name: "video".into(),
                kernels: vec![(dfg(&suite::fdct()), 99), (dfg(&suite::sad()), 396)],
            }],
            geometries: None,
            space: SpaceSpec::Paper,
            limits: Limits::none(),
        }))
        .unwrap();
    match served {
        Response::Flowed(f) => {
            assert_eq!(f.chosen, report.chosen.name());
            assert_eq!(f.area_slices.to_bits(), report.area_slices.to_bits());
            assert_eq!(
                f.weighted_et_ns.to_bits(),
                report.weighted_et_ns().to_bits()
            );
            assert_eq!(f.refill_segments as usize, report.stats.refill_segments);
        }
        other => panic!("expected Flowed, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn per_request_limits_truncate_only_that_request() {
    let server = Server::spawn(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // A zero candidate budget truncates the sweep before any candidate:
    // no feasible point, flagged incomplete.
    let truncated = client
        .call(Request::Explore(ExploreRequest {
            kernels: vec![dfg(&suite::fdct())],
            weights: None,
            rows: 8,
            cols: 8,
            space: SpaceSpec::Paper,
            limits: Limits {
                deadline_ms: None,
                candidate_budget: Some(0),
            },
        }))
        .unwrap();
    match truncated {
        Response::Explored(e) => {
            assert!(!e.complete);
            assert_eq!(e.feasible, 0);
            assert_eq!(e.best, None);
        }
        other => panic!("expected truncated Explored, got {other:?}"),
    }

    // The next, unlimited request on the same connection is complete —
    // limits are per-request state, not session state.
    match client.call(explore_request()).unwrap() {
        Response::Explored(e) => {
            assert!(e.complete);
            assert!(e.feasible > 0);
        }
        other => panic!("expected Explored, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn malformed_lines_get_diagnostics_not_disconnects() {
    use std::io::{BufRead, BufReader, Write};

    let server = Server::spawn(ServeConfig::default()).unwrap();
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut send = |line: &str| -> String {
        raw.write_all(line.as_bytes()).unwrap();
        raw.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    };

    // Version mismatch names the supported version, salvages the id.
    let reply = send(r#"{"v": 1, "id": 41, "body": "Ping"}"#);
    assert!(reply.contains("\"id\":41"), "{reply}");
    assert!(reply.contains("version"), "{reply}");

    // Schema error names the missing field.
    let reply = send(r#"{"v": 2, "id": 42, "body": {"Map": {"rows": 8, "cols": 8}}}"#);
    assert!(reply.contains("kernel"), "{reply}");

    // Unparseable JSON is still answered (id 0), not dropped.
    let reply = send("][ definitely not json");
    assert!(reply.contains("\"id\":0"), "{reply}");
    assert!(reply.contains("Error"), "{reply}");

    // And the connection still serves real requests afterwards.
    let reply = send(r#"{"v": 2, "id": 43, "body": "Ping"}"#);
    assert!(reply.contains("Pong"), "{reply}");
    server.shutdown();
}

#[test]
fn panics_and_rejections_surface_as_structured_events() {
    use rsp_obs::{EventKind, OwnedValue, RingRecorder};
    use std::io::Write;

    let ring = std::sync::Arc::new(RingRecorder::new(1024));
    let server = Server::spawn(ServeConfig {
        recorder: ring.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // A malformed raw line → a structured `serve/reject` event naming
    // the reason, with the envelope id salvaged.
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"{\"v\": 2, \"id\": 77, \"body\": \"Quack\"}\n")
        .unwrap();
    let mut buf = [0u8; 1024];
    let _ = std::io::Read::read(&mut raw, &mut buf).unwrap();

    // A panicking request (mismatched weights) → a `serve/panic` event
    // carrying the payload, correlated by the request id.
    let poisoned = client
        .call(Request::Explore(ExploreRequest {
            kernels: vec![dfg(&suite::fdct())],
            weights: Some(vec![1.0, 2.0, 3.0]),
            rows: 8,
            cols: 8,
            space: SpaceSpec::Paper,
            limits: Limits::none(),
        }))
        .unwrap();
    assert!(matches!(poisoned, Response::Error(_)));

    let rejects = ring.named("serve", "reject");
    assert_eq!(rejects.len(), 1, "one structured rejection: {rejects:?}");
    assert_eq!(rejects[0].id, 77, "reject event salvages the wire id");
    assert_eq!(
        rejects[0].field("reason"),
        Some(&OwnedValue::Str("schema".into())),
        "rejection names its stage"
    );

    let panics = ring.named("serve", "panic");
    assert_eq!(panics.len(), 1, "one isolated panic: {panics:?}");
    assert!(
        matches!(panics[0].field("what"), Some(OwnedValue::Str(_))),
        "panic event carries the payload"
    );

    // The full lifecycle is visible: accepts, queue waits, and one
    // `request` span per answered line with its outcome.
    assert_eq!(ring.named("serve", "accept").len(), 2, "two connections");
    assert_eq!(ring.named("serve", "queue_wait").len(), 2);
    let requests = ring.named("serve", "request");
    assert_eq!(requests.len(), 2, "two answered lines: {requests:?}");
    let outcome_of = |id: u64| {
        requests
            .iter()
            .find(|e| e.id == id)
            .and_then(|e| e.field("outcome"))
    };
    assert_eq!(outcome_of(77), Some(&OwnedValue::Str("rejected".into())));
    assert!(requests
        .iter()
        .all(|e| matches!(e.kind, EventKind::Span { .. })));

    // The same failures are visible in the wire Stats snapshot.
    let stats = stats_of(&mut client);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.faulted, 1);
    assert_eq!(stats.latency_count, stats.wire_requests);
    server.shutdown();
}

#[test]
fn prewarmed_session_is_visible_through_the_wire() {
    // A host can pre-warm the shared session before serving: the first
    // wire request then starts warm (the serve benchmark's warm rows
    // lean on exactly this).
    let session = std::sync::Arc::new(Session::builder().build());
    let base = session.base(8, 8);
    session
        .explore(
            &base,
            &[suite::fdct(), suite::sad()],
            &[1.0, 1.0],
            &DesignSpace::paper(),
            rsp_core::ExploreControl::default(),
        )
        .unwrap();
    let warm: SessionStats = session.stats();

    let server = Server::with_session(ServeConfig::default(), session).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let before = stats_of(&mut client);
    assert_eq!(before.model_reports as usize, warm.model_reports);

    let r = client.call(explore_request()).unwrap();
    assert!(matches!(r, Response::Explored(_)));
    let after = stats_of(&mut client);
    assert_eq!(
        after.model_misses, before.model_misses,
        "a pre-warmed request must not synthesize anything new"
    );
    assert!(after.model_hits > before.model_hits);
    server.shutdown();
}

#[test]
fn split_and_coalesced_writes_get_the_replies_of_whole_writes() {
    use rsp_serve::proto::{Envelope, PROTOCOL_VERSION};
    use std::io::{BufRead, BufReader, Write};

    let server = Server::spawn(ServeConfig::default()).unwrap();
    let line = |id, body| {
        let env = Envelope {
            v: PROTOCOL_VERSION,
            id,
            body,
        };
        serde_json::to_string(&env).unwrap() + "\n"
    };
    let explore = line(1, explore_request());
    let ping = line(2, Request::Ping);
    // Sends `writes` on a fresh connection, one write each, and reads
    // `replies` reply lines back.
    let exchange = |writes: &[&[u8]], replies: usize| -> Vec<String> {
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        raw.set_nodelay(true).unwrap();
        // A lost line fails the test instead of hanging it.
        raw.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        for bytes in writes {
            raw.write_all(bytes).unwrap();
        }
        let mut reader = BufReader::new(raw);
        (0..replies)
            .map(|_| {
                let mut reply = String::new();
                reader.read_line(&mut reply).unwrap();
                reply
            })
            .collect()
    };

    let whole = [
        exchange(&[explore.as_bytes()], 1),
        exchange(&[ping.as_bytes()], 1),
    ]
    .concat();
    assert!(whole[0].contains("Explored"), "{}", whole[0]);
    assert!(whole[1].contains("Pong"), "{}", whole[1]);

    // One byte per write: the line is reassembled across many reads.
    let bytes: Vec<&[u8]> = explore.as_bytes().chunks(1).collect();
    assert_eq!(exchange(&bytes, 1), whole[..1]);

    // Two requests in one write: both are answered, in order.
    let both = explore.clone() + &ping;
    assert_eq!(exchange(&[both.as_bytes()], 2), whole);
    server.shutdown();
}
