//! `serve-mixed`: a warm `rsp-serve` server answering the client session
//! the repository documents (`examples/serve_client.rs` and
//! `rsp-serve --self-test`) from four closed-loop clients over real
//! sockets. A session is three requests on an ordered pair of kernels
//! `(a, b)`: map `a` onto the 8×8 base; explore the paper space for `a`
//! and `b` under a 60 s deadline; run the flow on one video application
//! of `b` × 99 and `a` × 396 runs. The documented session is `a` = sad,
//! `b` = fdct; here every ordered pair of the paper's nine kernels makes
//! one session, walked in a seeded order from a seeded start per client,
//! so every kernel weighs the same. Set-up spawns the server and sends
//! every distinct request once, so the measured loop runs against filled
//! synthesis, profile and context caches; the wire, the worker pool,
//! estimation and exact rearrangement remain.
//!
//! Reference: a cold in-process [`Session`] answering the same requests;
//! every served reply must equal its in-process reply exactly.

use crate::inputs::{sources, Rng};
use crate::{closed_loop, timed_setups, Outcome};
use rsp::core::{AppProfile, DesignSpace, ExploreControl, Session};
use rsp::kernel::suite;
use rsp::obs::RingRecorder;
use rsp::serve::proto::{
    ExploreReply, ExploreRequest, FlowReply, FlowRequest, FrontierPoint, Limits, MapReply,
    MapRequest, Request, Response, SpaceSpec, WorkloadApp,
};
use rsp::serve::{Client, ServeConfig, Server};
use rsp::workload::parse_kernel;
use std::sync::Mutex;
use std::time::Duration;

const CLIENTS: usize = 4;
const ROWS: u64 = 8;
const COLS: u64 = 8;
/// The documented flow's execution counts of `b` and `a`.
const RUNS: [u64; 2] = [99, 396];
/// The documented explore's deadline; never reached here.
const DEADLINE_MS: u64 = 60_000;
/// Requests per session: map, explore, flow.
const SESSION: usize = 3;

/// The distinct requests of one run and the order clients send them in.
struct Traffic {
    /// One map per kernel, then each session's explore and flow.
    requests: Vec<Request>,
    /// Per session, the indices into `requests` of its three requests.
    sessions: Vec<[usize; SESSION]>,
    /// Per client, the session it starts at.
    starts: Vec<usize>,
}

impl Traffic {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let sources = sources(&suite::all());
        let mut requests: Vec<Request> = sources
            .iter()
            .map(|kernel| {
                Request::Map(MapRequest {
                    kernel: kernel.clone(),
                    rows: ROWS,
                    cols: COLS,
                })
            })
            .collect();
        let n = sources.len();
        let mut pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)))
            .collect();
        rng.shuffle(&mut pairs);
        let mut sessions = Vec::with_capacity(pairs.len());
        for (a, b) in pairs {
            requests.push(Request::Explore(ExploreRequest {
                kernels: vec![sources[a].clone(), sources[b].clone()],
                weights: None,
                rows: ROWS,
                cols: COLS,
                space: SpaceSpec::Paper,
                limits: Limits {
                    deadline_ms: Some(DEADLINE_MS),
                    candidate_budget: None,
                },
            }));
            requests.push(Request::Flow(FlowRequest {
                apps: vec![WorkloadApp {
                    name: "video".into(),
                    kernels: vec![(sources[b].clone(), RUNS[0]), (sources[a].clone(), RUNS[1])],
                }],
                geometries: None,
                space: SpaceSpec::Paper,
                limits: Limits::none(),
            }));
            sessions.push([a, requests.len() - 2, requests.len() - 1]);
        }
        let starts = (0..CLIENTS)
            .map(|_| rng.range(0, sessions.len() as u64 - 1) as usize)
            .collect();
        Traffic {
            requests,
            sessions,
            starts,
        }
    }

    /// Index into `requests` of request `n` of `client`: the client
    /// walks the sessions from its start, one request after another.
    fn pick(&self, client: usize, n: usize) -> usize {
        let session = (self.starts[client] + n / SESSION) % self.sessions.len();
        self.sessions[session][n % SESSION]
    }
}

fn space(spec: SpaceSpec) -> DesignSpace {
    match spec {
        SpaceSpec::Paper => DesignSpace::paper(),
        SpaceSpec::Extended => DesignSpace::extended(),
        SpaceSpec::Deep => DesignSpace::deep(),
    }
}

/// The engine control a request's limits ask for.
fn control(limits: &Limits) -> ExploreControl {
    ExploreControl {
        deadline: limits.deadline_ms.map(Duration::from_millis),
        candidate_budget: limits.candidate_budget.map(|b| b as usize),
        ..ExploreControl::default()
    }
}

fn parse(source: &str) -> Result<rsp::kernel::Kernel, String> {
    parse_kernel(source).map_err(|e| e.to_string())
}

/// The reply the server owes `request`, computed in process.
fn in_process(session: &Session, request: &Request) -> Result<Response, String> {
    let base = session.base(ROWS as usize, COLS as usize);
    Ok(match request {
        Request::Map(m) => {
            let ctx = session
                .map(&base, &parse(&m.kernel)?)
                .map_err(|e| e.to_string())?;
            Response::Mapped(MapReply {
                kernel: ctx.kernel_name().to_string(),
                cycles: u64::from(ctx.total_cycles()),
                initiation_interval: u64::from(ctx.initiation_interval()),
                instances: ctx.instances().len() as u64,
            })
        }
        Request::Explore(e) => {
            let kernels = e
                .kernels
                .iter()
                .map(|s| parse(s))
                .collect::<Result<Vec<_>, _>>()?;
            let weights = e
                .weights
                .clone()
                .unwrap_or_else(|| vec![1.0; kernels.len()]);
            let result = session
                .explore(
                    &base,
                    &kernels,
                    &weights,
                    &space(e.space),
                    control(&e.limits),
                )
                .map_err(|e| e.to_string())?;
            Response::Explored(ExploreReply {
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
            })
        }
        Request::Flow(f) => {
            let mut apps = Vec::new();
            for app in &f.apps {
                let kernels = app
                    .kernels
                    .iter()
                    .map(|(s, runs)| parse(s).map(|k| (k, *runs)))
                    .collect::<Result<Vec<_>, _>>()?;
                apps.push(AppProfile::new(&app.name, kernels));
            }
            let report = session
                .flow(&apps, space(f.space), control(&f.limits))
                .map_err(|e| e.to_string())?;
            Response::Flowed(FlowReply {
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
            })
        }
        Request::Ping | Request::Stats => return Err("not a workload request".into()),
    })
}

fn call(client: &mut Client, request: &Request) -> Result<String, String> {
    client
        .call(request.clone())
        .map(|reply| format!("{reply:?}"))
        .map_err(|e| e.to_string())
}

pub(crate) fn run(seed: u64, seconds: u64, ring: Option<&RingRecorder>) -> Result<Outcome, String> {
    let traffic = Traffic::new(seed);
    let session = Session::default();
    let expected = traffic
        .requests
        .iter()
        .map(|r| in_process(&session, r).map(|reply| format!("{reply:?}")))
        .collect::<Result<Vec<_>, _>>()?;
    drop(session);

    // Set-up: spawn the server and send every distinct request once.
    let mut verified = Ok(());
    let (server, setup_s) = timed_setups(|| {
        let server = Server::spawn(ServeConfig {
            workers: CLIENTS,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("spawn server: {e}"))?;
        let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        for (request, want) in traffic.requests.iter().zip(&expected) {
            if call(&mut client, request)? != *want && verified.is_ok() {
                verified = Err(format!("cold reply differs for {request:?}"));
            }
        }
        Ok(server)
    })?;

    let clients = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).map(Mutex::new))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    if let Some(ring) = ring {
        ring.clear();
    }
    let samples = closed_loop(
        CLIENTS,
        seconds,
        |c, n| {
            let mut client = clients[c].lock().unwrap_or_else(|e| e.into_inner());
            call(&mut client, &traffic.requests[traffic.pick(c, n)])
        },
        |c, n, digest| digest == expected[traffic.pick(c, n)],
    );
    drop(clients);
    server.shutdown();
    Ok(Outcome {
        samples,
        setup_s,
        verified,
    })
}
