//! # rsp-serve — exploration as a long-running service
//!
//! A thread-pool `std::net` line-protocol server over one shared
//! [`rsp_core::Session`]: clients send JSON [`proto::Envelope`] lines
//! (kernels as `rsp_workload` textual DFG source) and get map / explore
//! / flow answers concurrently, all served from the session's
//! process-wide caches — synthesis reports keyed by `(geometry, plan)`,
//! mapped contexts keyed by `(base, kernel)` — so a stream of
//! overlapping requests synthesizes each plan and maps each kernel once
//! instead of once per request.
//!
//! Engine invariants carry over to the wire:
//!
//! * **Bit identity** — a served request returns the same bits as the
//!   single-shot CLI run (caches are pure memos; the serve tests compare
//!   serialized responses byte-for-byte against in-process runs).
//! * **Anytime limits** — [`proto::Limits`] maps onto
//!   [`rsp_core::ExploreControl`]: per-request deadlines and candidate
//!   budgets truncate that request only, returning best-so-far results
//!   flagged `complete: false`.
//! * **Panic isolation** — every request body runs under
//!   `catch_unwind`; a poisoned request answers
//!   [`proto::Response::Error`] and the worker (and the connection)
//!   keep serving.
//! * **Diagnostics, not disconnects** — malformed lines answer with a
//!   one-line error naming the field (the serde-stub error paths), and
//!   a version mismatch is rejected against
//!   [`proto::PROTOCOL_VERSION`] before the body is examined.
//!
//! # Observability
//!
//! The server is instrumented with `rsp_obs`: every stage of the
//! request lifecycle — accept, queue wait, parse, execute, reply write
//! — emits events under the `serve` target, correlated by the wire
//! envelope `id`, to the recorder in [`ServeConfig::recorder`]
//! (defaulting to the process-global recorder, a no-op unless
//! installed). Independent of any recorder, the server keeps live
//! counters and a request-latency histogram, snapshotted over the wire
//! by [`proto::Request::Stats`] as a [`proto::StatsReply`]. With the
//! default [`rsp_obs::NullRecorder`] the instrumentation is a handful
//! of relaxed atomic increments per request.
//!
//! # Examples
//!
//! ```
//! use rsp_serve::proto::{Request, Response};
//! use rsp_serve::{Client, ServeConfig, Server};
//!
//! let server = Server::spawn(ServeConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//! assert_eq!(client.call(Request::Ping)?, Response::Pong);
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod proto;

mod client;
mod metrics;
pub use client::Client;

use metrics::{hit_rate, ServerMetrics};
use proto::{
    Envelope, ExploreReply, ExploreRequest, FlowReply, FlowRequest, FrontierPoint, Limits,
    MapReply, MapRequest, Reply, Request, Response, SpaceSpec, StatsReply, PROTOCOL_VERSION,
    STATS_SCHEMA_VERSION,
};
use rsp_core::{AppProfile, DesignSpace, ExploreControl, Session};
use rsp_kernel::Kernel;
use rsp_obs::{Event, EventKind, Recorder, Span, Value as ObsValue};
use rsp_workload::parse_kernel;
use serde::Value;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a worker blocks in one read before re-checking the shutdown
/// flag (also bounds shutdown latency for idle connections).
const READ_POLL: Duration = Duration::from_millis(50);

/// Accept-loop poll interval (the listener is non-blocking so the
/// accept thread can observe shutdown).
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address. Port 0 picks a free port (read it back with
    /// [`Server::addr`]).
    pub addr: String,
    /// Worker threads — the number of connections served concurrently.
    pub workers: usize,
    /// Recorder for request-lifecycle events (`serve` target: accept,
    /// queue wait, parse, execute, reject, panic, request). Defaults to
    /// the process-global recorder — a no-op unless one is installed
    /// with `rsp_obs::set_global`.
    pub recorder: Arc<dyn Recorder>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            recorder: rsp_obs::global(),
        }
    }
}

/// Everything a worker needs to answer a line: the shared session, the
/// server's live metrics, and the event recorder.
#[derive(Debug)]
struct ServerCtx {
    session: Arc<Session>,
    metrics: ServerMetrics,
    obs: Arc<dyn Recorder>,
}

/// A running server: accept thread + worker pool over one shared
/// [`Session`]. Shut down explicitly with [`Server::shutdown`] (or
/// implicitly on drop).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    ctx: Arc<ServerCtx>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool, and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(config: ServeConfig) -> io::Result<Server> {
        Self::with_session(config, Arc::new(Session::builder().build()))
    }

    /// Like [`Server::spawn`] but serving an existing session — lets a
    /// host process pre-warm caches or observe [`Session::stats`]
    /// directly.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn with_session(config: ServeConfig, session: Arc<Session>) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let ctx = Arc::new(ServerCtx {
            session,
            metrics: ServerMetrics::new(),
            obs: Arc::clone(&config.recorder),
        });

        // The channel carries the accept timestamp so the dequeuing
        // worker can report the connection's queue wait.
        let (tx, rx): (Sender<QueuedConn>, Receiver<QueuedConn>) = channel();
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::with_capacity(config.workers + 1);
        for n in 0..config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let ctx = Arc::clone(&ctx);
            let stop = Arc::clone(&stop);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rsp-serve-worker-{n}"))
                    .spawn(move || worker_loop(&rx, &ctx, &stop))
                    .expect("spawn worker"),
            );
        }
        {
            let stop = Arc::clone(&stop);
            let ctx = Arc::clone(&ctx);
            threads.push(
                std::thread::Builder::new()
                    .name("rsp-serve-accept".into())
                    .spawn(move || accept_loop(&listener, &tx, &ctx, &stop))
                    .expect("spawn acceptor"),
            );
        }
        Ok(Server {
            addr,
            ctx,
            stop,
            threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session this server answers from.
    pub fn session(&self) -> Arc<Session> {
        Arc::clone(&self.ctx.session)
    }

    /// Stops accepting, drains workers, and joins every thread. Open
    /// connections are closed at the next read-poll boundary
    /// (≤ the 50 ms read poll plus the in-flight request's remaining work).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// An accepted connection plus its accept timestamp, so the dequeuing
/// worker can report how long the connection waited in the queue.
type QueuedConn = (TcpStream, Instant);

fn accept_loop(
    listener: &TcpListener,
    tx: &Sender<QueuedConn>,
    ctx: &ServerCtx,
    stop: &AtomicBool,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                ctx.metrics.queue_depth.inc();
                rsp_obs::point(&*ctx.obs, "serve", "accept", 0, &[]);
                // A send failure means every worker exited — stop too.
                if tx.send((stream, Instant::now())).is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<QueuedConn>>>, ctx: &ServerCtx, stop: &AtomicBool) {
    loop {
        // Poll the queue with a timeout so shutdown is observed even
        // when no connection ever arrives.
        let next = {
            let rx = rx.lock().unwrap();
            rx.recv_timeout(READ_POLL)
        };
        match next {
            Ok((stream, accepted)) => {
                ctx.metrics.queue_depth.dec();
                if ctx.obs.enabled() {
                    ctx.obs.record(&Event {
                        target: "serve",
                        name: "queue_wait",
                        id: 0,
                        kind: EventKind::Span {
                            elapsed_ns: accepted.elapsed().as_nanos() as u64,
                        },
                        fields: &[],
                    });
                }
                serve_connection(stream, ctx, stop);
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serves one connection until the peer closes it or shutdown is
/// requested. Frames by `\n` with a manual byte buffer (a blocking
/// `BufReader::read_line` could hold a partial line across the read
/// timeout and lose it). Each received byte is searched for the newline
/// once, so a line that arrives in many reads costs time linear in its
/// length.
fn serve_connection(mut stream: TcpStream, ctx: &ServerCtx, stop: &AtomicBool) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    // Replies are single small lines; don't let Nagle hold them back.
    let _ = stream.set_nodelay(true);
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                // Whatever is still buffered was searched on an earlier
                // read and holds no newline: search only the new bytes.
                let mut scanned = pending.len();
                pending.extend_from_slice(&chunk[..n]);
                // Bytes of the complete lines handled so far, drained
                // once per read.
                let mut consumed = 0;
                while let Some(offset) = pending[scanned..].iter().position(|&b| b == b'\n') {
                    let end = scanned + offset;
                    let line = String::from_utf8_lossy(&pending[consumed..end]);
                    (consumed, scanned) = (end + 1, end + 1);
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    let started = Instant::now();
                    let (reply, outcome) = handle_line(line, ctx);
                    let mut out = serde_json::to_string(&reply)
                        .unwrap_or_else(|e| format!(r#"{{"id":0,"body":{{"Error":"{e}"}}}}"#));
                    out.push('\n');
                    // Account *before* the write: a reply the peer has
                    // received is already visible in Stats and in the
                    // recorder.
                    account_line(ctx, &reply, outcome, started.elapsed());
                    let write_start = ctx.obs.enabled().then(Instant::now);
                    if stream.write_all(out.as_bytes()).is_err() {
                        return;
                    }
                    if let Some(start) = write_start {
                        ctx.obs.record(&Event {
                            target: "serve",
                            name: "write",
                            id: reply.id,
                            kind: EventKind::Span {
                                elapsed_ns: start.elapsed().as_nanos() as u64,
                            },
                            fields: &[],
                        });
                    }
                }
                pending.drain(..consumed);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// How one line fared — the pre-dispatch/dispatch distinction the reply
/// body alone cannot carry (all three failure shapes answer
/// [`Response::Error`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineOutcome {
    /// Decoded and dispatched (the reply may still be an engine error).
    Ok,
    /// Rejected before dispatch: bad JSON, version mismatch, schema.
    Rejected,
    /// The dispatched request panicked and was isolated.
    Faulted,
}

impl LineOutcome {
    fn label(self) -> &'static str {
        match self {
            LineOutcome::Ok => "ok",
            LineOutcome::Rejected => "rejected",
            LineOutcome::Faulted => "faulted",
        }
    }
}

/// Accounting for one answered line: outcome counters, the latency
/// histogram, and the per-request `serve/request` span. Runs after the
/// reply is serialized and before it is written, so a reply the peer
/// has received is already counted, and `requests` and `latency` are
/// updated together — a `Stats` snapshot taken at any instant sees
/// `latency_count == wire_requests`.
fn account_line(ctx: &ServerCtx, reply: &Reply, outcome: LineOutcome, elapsed: Duration) {
    let m = &ctx.metrics;
    m.requests.inc();
    m.latency.observe(elapsed.as_nanos() as u64);
    match outcome {
        LineOutcome::Rejected => m.rejected.inc(),
        LineOutcome::Faulted => m.faulted.inc(),
        LineOutcome::Ok => {}
    }
    match &reply.body {
        Response::Explored(e) => {
            if e.complete {
                m.completed.inc();
            } else {
                m.truncated.inc();
            }
        }
        Response::Flowed(f) => {
            m.flows.inc();
            if f.complete {
                m.completed.inc();
            } else {
                m.truncated.inc();
            }
        }
        _ => {}
    }
    if ctx.obs.enabled() {
        ctx.obs.record(&Event {
            target: "serve",
            name: "request",
            id: reply.id,
            kind: EventKind::Span {
                elapsed_ns: elapsed.as_nanos() as u64,
            },
            fields: &[("outcome", ObsValue::Str(outcome.label()))],
        });
    }
}

/// Decodes one request line and dispatches it. Never panics the caller:
/// decode failures answer with a field-naming diagnostic, dispatch runs
/// under `catch_unwind`, and a panicking request answers an error while
/// the worker lives on. Returns the reply plus how the line fared (for
/// the caller's outcome counters).
fn handle_line(line: &str, ctx: &ServerCtx) -> (Reply, LineOutcome) {
    let obs = &*ctx.obs;
    let reject = |id: u64, reason: &'static str, diagnostic: String| {
        rsp_obs::point(
            obs,
            "serve",
            "reject",
            id,
            &[("reason", ObsValue::Str(reason))],
        );
        (
            Reply {
                id,
                body: Response::Error(diagnostic),
            },
            LineOutcome::Rejected,
        )
    };
    // Stage 1: generic JSON, so the version check and the id salvage
    // work even when the body is malformed.
    let parse_start = obs.enabled().then(Instant::now);
    let value: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => return reject(0, "json", format!("{e}")),
    };
    let id = match value.get("id") {
        Some(Value::Int(i)) => u64::try_from(*i).unwrap_or(0),
        _ => 0,
    };
    match value.get("v") {
        Some(Value::Int(v)) if *v == i128::from(PROTOCOL_VERSION) => {}
        other => {
            return reject(
                id,
                "version",
                format!(
                    "unsupported protocol version {other:?} in field `v` (this server speaks {PROTOCOL_VERSION})"
                ),
            )
        }
    }
    // Stage 2: the typed envelope (field-naming diagnostics on error).
    let env: Envelope = match serde_json::from_value(value) {
        Ok(env) => env,
        Err(e) => return reject(id, "schema", format!("{e}")),
    };
    if let Some(start) = parse_start {
        obs.record(&Event {
            target: "serve",
            name: "parse",
            id: env.id,
            kind: EventKind::Span {
                elapsed_ns: start.elapsed().as_nanos() as u64,
            },
            fields: &[],
        });
    }
    // Stage 3: dispatch, panic-isolated per request.
    let execute_span = Span::enter(obs, "serve", "execute", env.id);
    let caught = catch_unwind(AssertUnwindSafe(|| dispatch(env.body, ctx)));
    drop(execute_span);
    let (body, outcome) = match caught {
        Ok(body) => (body, LineOutcome::Ok),
        Err(panic) => {
            let what = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            rsp_obs::point(
                obs,
                "serve",
                "panic",
                env.id,
                &[("what", ObsValue::Str(&what))],
            );
            (
                Response::Error(format!("request panicked (isolated): {what}")),
                LineOutcome::Faulted,
            )
        }
    };
    (Reply { id: env.id, body }, outcome)
}

fn space_of(spec: SpaceSpec) -> DesignSpace {
    match spec {
        SpaceSpec::Paper => DesignSpace::paper(),
        SpaceSpec::Extended => DesignSpace::extended(),
        SpaceSpec::Deep => DesignSpace::deep(),
    }
}

fn control_of(limits: &Limits) -> ExploreControl {
    ExploreControl {
        deadline: limits.deadline_ms.map(Duration::from_millis),
        candidate_budget: limits.candidate_budget.map(|b| b as usize),
        ..ExploreControl::default()
    }
}

// The Err variant is a ready-to-send wire `Response`; its size is the
// wire type's, not worth boxing on this cold error path.
#[allow(clippy::result_large_err)]
fn parse_dfg(source: &str) -> Result<Kernel, Response> {
    parse_kernel(source).map_err(|e| Response::Error(format!("kernel source: {e}")))
}

/// Builds the versioned [`StatsReply`] snapshot from the session's
/// cache counters and the server's live metrics.
fn stats_reply(ctx: &ServerCtx) -> StatsReply {
    let s = ctx.session.stats();
    let m = &ctx.metrics;
    StatsReply {
        schema: STATS_SCHEMA_VERSION,
        uptime_ms: m.uptime_ms(),
        model_reports: s.model_reports as u64,
        model_hits: s.model_hits,
        model_misses: s.model_misses,
        model_hit_rate: hit_rate(s.model_hits, s.model_misses),
        mapped_contexts: s.mapped_contexts as u64,
        context_hits: s.context_hits,
        context_misses: s.context_misses,
        context_hit_rate: hit_rate(s.context_hits, s.context_misses),
        requests: s.requests,
        wire_requests: m.requests.get(),
        rejected: m.rejected.get(),
        faulted: m.faulted.get(),
        truncated: m.truncated.get(),
        completed: m.completed.get(),
        flows: m.flows.get(),
        queue_depth: m.queue_depth.get(),
        latency_count: m.latency.count(),
        latency_p50_us: m.latency.quantile(0.50) / 1_000,
        latency_p90_us: m.latency.quantile(0.90) / 1_000,
        latency_p99_us: m.latency.quantile(0.99) / 1_000,
        latency_max_us: m.latency.max_ns() / 1_000,
    }
}

/// Executes one decoded request against the session. Engine errors
/// (infeasible designs, mapper rejections, interrupted flows) become
/// [`Response::Error`] lines; panics are the caller's `catch_unwind`'s
/// business.
fn dispatch(request: Request, ctx: &ServerCtx) -> Response {
    let session = &*ctx.session;
    match request {
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(stats_reply(ctx)),
        Request::Map(MapRequest { kernel, rows, cols }) => {
            let kernel = match parse_dfg(&kernel) {
                Ok(k) => k,
                Err(e) => return e,
            };
            let base = session.base(rows as usize, cols as usize);
            match session.map(&base, &kernel) {
                Ok(ctx) => Response::Mapped(MapReply {
                    kernel: ctx.kernel_name().to_string(),
                    cycles: u64::from(ctx.total_cycles()),
                    initiation_interval: u64::from(ctx.initiation_interval()),
                    instances: ctx.instances().len() as u64,
                }),
                Err(e) => Response::Error(format!("{e}")),
            }
        }
        Request::Explore(ExploreRequest {
            kernels,
            weights,
            rows,
            cols,
            space,
            limits,
        }) => {
            let mut parsed = Vec::with_capacity(kernels.len());
            for source in &kernels {
                match parse_dfg(source) {
                    Ok(k) => parsed.push(k),
                    Err(e) => return e,
                }
            }
            // Deliberately *not* length-checked here: a mismatched
            // weight vector exercises the engine's own invariants and
            // the panic-isolation path (tested in tests/server.rs).
            let weights = weights.unwrap_or_else(|| vec![1.0; parsed.len()]);
            let base = session.base(rows as usize, cols as usize);
            match session.explore(
                &base,
                &parsed,
                &weights,
                &space_of(space),
                control_of(&limits),
            ) {
                Ok(result) => Response::Explored(ExploreReply {
                    feasible: result.feasible.len() as u64,
                    frontier: result
                        .pareto_points()
                        .map(|p| FrontierPoint {
                            name: p.arch.name().to_string(),
                            area_slices: p.area_slices,
                            est_et_ns: p.est_et_ns,
                        })
                        .collect(),
                    best: result.try_best_point().map(|p| p.arch.name().to_string()),
                    base_et_ns: result.base_et_ns,
                    candidates_seen: result.stats.candidates_seen as u64,
                    candidates_pruned: result.stats.candidates_pruned as u64,
                    complete: result.completeness.is_complete(),
                }),
                Err(e) => Response::Error(format!("{e}")),
            }
        }
        Request::Flow(FlowRequest {
            apps,
            geometries,
            space,
            limits,
        }) => {
            let mut profiles = Vec::with_capacity(apps.len());
            for app in apps {
                let mut kernels = Vec::with_capacity(app.kernels.len());
                for (source, runs) in &app.kernels {
                    match parse_dfg(source) {
                        Ok(k) => kernels.push((k, *runs)),
                        Err(e) => return e,
                    }
                }
                profiles.push(AppProfile::new(&app.name, kernels));
            }
            let mut config = session.flow_config(space_of(space), control_of(&limits));
            if let Some(geometries) = geometries {
                config.geometries = geometries
                    .into_iter()
                    .map(|(r, c)| (r as usize, c as usize))
                    .collect();
            }
            match rsp_core::run_flow(&profiles, &config) {
                Ok(report) => Response::Flowed(FlowReply {
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
                }),
                Err(e) => Response::Error(format!("{e}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_obs::NullRecorder;

    fn test_ctx() -> ServerCtx {
        ServerCtx {
            session: Arc::new(Session::builder().build()),
            metrics: ServerMetrics::new(),
            obs: Arc::new(NullRecorder),
        }
    }

    #[test]
    fn handle_line_rejects_garbage_and_salvages_ids() {
        let ctx = test_ctx();
        // Not JSON at all.
        let (r, outcome) = handle_line("not json", &ctx);
        assert_eq!(r.id, 0);
        assert!(matches!(r.body, Response::Error(_)));
        assert_eq!(outcome, LineOutcome::Rejected);
        // Wrong version, id salvaged.
        let (r, outcome) = handle_line(r#"{"v": 99, "id": 7, "body": "Ping"}"#, &ctx);
        assert_eq!(r.id, 7);
        assert_eq!(outcome, LineOutcome::Rejected);
        match r.body {
            Response::Error(msg) => assert!(msg.contains('2') && msg.contains("version")),
            other => panic!("expected version error, got {other:?}"),
        }
        // Well-formed ping.
        let (r, outcome) = handle_line(r#"{"v": 2, "id": 8, "body": "Ping"}"#, &ctx);
        assert_eq!(r.id, 8);
        assert_eq!(r.body, Response::Pong);
        assert_eq!(outcome, LineOutcome::Ok);
    }

    #[test]
    fn dispatch_maps_a_dfg_kernel() {
        let ctx = test_ctx();
        let source = rsp_workload::print_kernel(&rsp_kernel::suite::sad());
        let reply = dispatch(
            Request::Map(MapRequest {
                kernel: source,
                rows: 8,
                cols: 8,
            }),
            &ctx,
        );
        match reply {
            Response::Mapped(m) => {
                assert_eq!(m.kernel, "SAD");
                assert!(m.cycles > 0);
                assert!(m.instances > 0);
            }
            other => panic!("expected Mapped, got {other:?}"),
        }
        // The mapped context landed in the session memo.
        assert_eq!(ctx.session.stats().mapped_contexts, 1);
    }

    #[test]
    fn dispatch_reports_parse_errors_with_positions() {
        let ctx = test_ctx();
        let reply = dispatch(
            Request::Map(MapRequest {
                kernel: "kernel \"x\" {\n  bogus 3\n}".into(),
                rows: 8,
                cols: 8,
            }),
            &ctx,
        );
        match reply {
            Response::Error(msg) => {
                assert!(msg.contains("2"), "diagnostic names the line: {msg}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn stats_snapshot_is_versioned_and_self_consistent() {
        let ctx = test_ctx();
        // Simulate two answered lines the way serve_connection accounts
        // them, then snapshot.
        let (ping, outcome) = handle_line(r#"{"v": 2, "id": 1, "body": "Ping"}"#, &ctx);
        account_line(&ctx, &ping, outcome, Duration::from_micros(120));
        let (bad, outcome) = handle_line("not json", &ctx);
        account_line(&ctx, &bad, outcome, Duration::from_micros(15));
        let s = stats_reply(&ctx);
        assert_eq!(s.schema, STATS_SCHEMA_VERSION);
        assert_eq!(s.wire_requests, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.latency_count, s.wire_requests);
        assert!(s.latency_p50_us <= s.latency_p99_us);
        assert!(s.latency_p99_us <= s.latency_max_us.max(s.latency_p99_us));
        assert_eq!(s.queue_depth, 0);
    }
}
