//! The typed wire protocol: versioned request/response envelopes.
//!
//! One JSON object per line, both directions (the *line protocol*).
//! Kernels travel as the textual DFG format (`rsp_workload`) — the same
//! source text `workloads/*.dfg` files hold — so any workload the CLI
//! accepts is a valid wire payload. Requests are [`Envelope`]s carrying
//! a protocol version, a client-chosen correlation id, and a
//! [`Request`]; the server answers with a [`Reply`] echoing the id.
//!
//! Malformed input never panics the connection: parse/validation
//! failures come back as [`Response::Error`] with a one-line diagnostic
//! naming the offending field (the serde-stub error paths), and a
//! version mismatch is reported against [`PROTOCOL_VERSION`] before the
//! body is even examined.
//!
//! # Grammar
//!
//! ```text
//! request   = "{" '"v"' ":" version "," '"id"' ":" integer ","
//!             '"body"' ":" body "}" "\n"
//! body      = '"Ping"' | '"Stats"'
//!           | "{" '"Map"'     ":" map-req     "}"
//!           | "{" '"Explore"' ":" explore-req "}"
//!           | "{" '"Flow"'    ":" flow-req    "}"
//! reply     = "{" '"id"' ":" integer "," '"body"' ":" response "}" "\n"
//! ```
//!
//! with `map-req` / `explore-req` / `flow-req` the JSON forms of
//! [`MapRequest`] / [`ExploreRequest`] / [`FlowRequest`] (kernel fields
//! are DFG source strings) and `response` the externally tagged
//! [`Response`]. See the README's *serve* section for a worked session.

use serde::{Deserialize, Serialize};

/// Version both sides must speak. Bumped on any wire-visible change;
/// the server rejects other versions with a [`Response::Error`] naming
/// the expected version, so old clients fail with a diagnostic instead
/// of a decode mystery.
///
/// History: v1 — initial line protocol; v2 — [`StatsReply`] grew the
/// observability snapshot (uptime, request-latency quantiles, queue
/// depth, cache hit rates, outcome counters).
pub const PROTOCOL_VERSION: u32 = 2;

/// Schema version stamped into every [`StatsReply`] (its `schema`
/// field), so clients can detect snapshot-shape changes independently
/// of the envelope version.
///
/// History: v2 — the observability snapshot of protocol v2; v3 — the
/// four `profile_*` fields are gone, because the session no longer
/// memoizes kernel profiles (each exploration builds its own).
pub const STATS_SCHEMA_VERSION: u32 = 3;

/// One request line: version, client-chosen correlation id, body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub v: u32,
    /// Correlation id, echoed verbatim in the [`Reply`].
    pub id: u64,
    /// The request.
    pub body: Request,
}

/// One response line: the request's id plus the outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reply {
    /// The correlation id of the request this answers (0 when the
    /// request was too malformed to carry one).
    pub id: u64,
    /// The outcome.
    pub body: Response,
}

/// Per-request execution limits, mapped onto `rsp_core::ExploreControl`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Limits {
    /// Wall-clock deadline in milliseconds (`null` = none). A request
    /// over deadline returns its anytime best-so-far, flagged
    /// incomplete, or an `Error` if nothing usable was reached.
    pub deadline_ms: Option<u64>,
    /// Candidate budget (`null` = none) — the machine-independent,
    /// reproducible truncation knob.
    pub candidate_budget: Option<u64>,
}

impl Limits {
    /// No limits.
    pub fn none() -> Self {
        Limits {
            deadline_ms: None,
            candidate_budget: None,
        }
    }
}

/// Which RSP design space to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpaceSpec {
    /// The paper's 12-point space (`DesignSpace::paper`).
    Paper,
    /// The multi-kind extended space (`DesignSpace::extended`).
    Extended,
    /// The 480-candidate deep space (`DesignSpace::deep`).
    Deep,
}

/// Map one kernel onto a base array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapRequest {
    /// Kernel as textual DFG source.
    pub kernel: String,
    /// Base array rows.
    pub rows: u64,
    /// Base array columns.
    pub cols: u64,
}

/// Explore a design space for a set of kernels on one base geometry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExploreRequest {
    /// Kernels as textual DFG sources.
    pub kernels: Vec<String>,
    /// Execution weights, parallel to `kernels` (`null` = uniform).
    pub weights: Option<Vec<f64>>,
    /// Base array rows.
    pub rows: u64,
    /// Base array columns.
    pub cols: u64,
    /// The space to sweep.
    pub space: SpaceSpec,
    /// Per-request limits.
    pub limits: Limits,
}

/// One application in a flow request: named kernel sources with
/// execution counts (the profiling input).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadApp {
    /// Application name.
    pub name: String,
    /// `(DFG source, execution count)` pairs.
    pub kernels: Vec<(String, u64)>,
}

/// Run the full Fig. 7 flow for a workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowRequest {
    /// The applications to profile.
    pub apps: Vec<WorkloadApp>,
    /// Candidate base geometries (`null` = the session default).
    pub geometries: Option<Vec<(u64, u64)>>,
    /// The space to sweep.
    pub space: SpaceSpec,
    /// Per-request limits.
    pub limits: Limits,
}

/// Everything a client can ask.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Cache/request counters; answered with [`Response::Stats`].
    Stats,
    /// Map one kernel; answered with [`Response::Mapped`].
    Map(MapRequest),
    /// Design-space exploration; answered with [`Response::Explored`].
    Explore(ExploreRequest),
    /// Full flow; answered with [`Response::Flowed`].
    Flow(FlowRequest),
}

/// The versioned metrics snapshot: session cache counters (see
/// `rsp_core::SessionStats`) plus the server's own request-lifecycle
/// metrics (uptime, latency quantiles, queue depth, outcome counters).
///
/// Self-consistency invariants, asserted by `rsp-serve --self-test`
/// through the wire: `latency_count == wire_requests` (the latency
/// histogram records exactly one observation per answered line),
/// `wire_requests >= flows`, and `latency_p50_us <= latency_p90_us <=
/// latency_p99_us <= latency_max_us`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Snapshot shape version ([`STATS_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Milliseconds since the server spawned.
    pub uptime_ms: u64,
    /// Distinct plans holding synthesis reports: explorations' base
    /// plans and flows' exact-stage frontier plans (exploration
    /// candidates are synthesized without the memo).
    pub model_reports: u64,
    /// Synthesis-memo hits — cross-request reuse, observable.
    pub model_hits: u64,
    /// Synthesis-memo misses.
    pub model_misses: u64,
    /// Synthesis-memo hit rate (`0.0` before the first lookup).
    pub model_hit_rate: f64,
    /// Distinct mapped contexts cached.
    pub mapped_contexts: u64,
    /// Mapped-context memo hits.
    pub context_hits: u64,
    /// Mapped-context memo misses.
    pub context_misses: u64,
    /// Mapped-context memo hit rate (`0.0` before the first lookup).
    pub context_hit_rate: f64,
    /// Requests answered through the session so far.
    pub requests: u64,
    /// Wire request lines answered (any outcome). Counted before the
    /// reply is written, so a reply the client has received is already
    /// included.
    pub wire_requests: u64,
    /// Lines rejected before dispatch (bad JSON, version mismatch,
    /// schema errors).
    pub rejected: u64,
    /// Isolated per-request panics.
    pub faulted: u64,
    /// Explore/flow replies truncated by per-request [`Limits`].
    pub truncated: u64,
    /// Explore/flow replies that ran to completion.
    pub completed: u64,
    /// Flow requests answered.
    pub flows: u64,
    /// Connections accepted but not yet picked up by a worker.
    pub queue_depth: i64,
    /// Observations in the request-latency histogram.
    pub latency_count: u64,
    /// Median request latency, microseconds (≤ 2× relative error).
    pub latency_p50_us: u64,
    /// 90th-percentile request latency, microseconds.
    pub latency_p90_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub latency_p99_us: u64,
    /// Largest request latency, microseconds.
    pub latency_max_us: u64,
}

/// A mapped kernel's headline numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapReply {
    /// Kernel name (from the DFG source).
    pub kernel: String,
    /// Schedule depth in configuration-context cycles.
    pub cycles: u64,
    /// Initiation interval.
    pub initiation_interval: u64,
    /// Placed operation instances.
    pub instances: u64,
}

/// One Pareto-frontier point of an exploration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Architecture name (encodes the sharing plan).
    pub name: String,
    /// Synthesized area (slices).
    pub area_slices: f64,
    /// Weighted estimated execution time (ns).
    pub est_et_ns: f64,
}

/// An exploration's result surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExploreReply {
    /// Feasible candidate count.
    pub feasible: u64,
    /// The (area, time) Pareto frontier, smallest area first.
    pub frontier: Vec<FrontierPoint>,
    /// Selected optimum's name (`null` when a truncated run has none).
    pub best: Option<String>,
    /// Weighted base execution time (ns).
    pub base_et_ns: f64,
    /// Candidates enumerated.
    pub candidates_seen: u64,
    /// Candidates pruned.
    pub candidates_pruned: u64,
    /// Whether the whole candidate stream was processed (`false` = the
    /// request's [`Limits`] truncated it; results are best-so-far).
    pub complete: bool,
}

/// A flow's result surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowReply {
    /// PE count of the selected base geometry.
    pub base_pe_count: u64,
    /// Chosen RSP architecture name.
    pub chosen: String,
    /// Synthesized area of the chosen design (slices).
    pub area_slices: f64,
    /// Area of the base design (slices).
    pub base_area_slices: f64,
    /// Weighted exact execution time on the chosen design (ns).
    pub weighted_et_ns: f64,
    /// Feasible exploration candidates.
    pub feasible: u64,
    /// Selected critical loops.
    pub critical_loops: u64,
    /// Schedules split into cache-sized segments by the refill model.
    pub refill_segments: u64,
    /// Refill-stall cycles those splits charged.
    pub refill_stall_cycles: u64,
    /// Whether every phase ran to completion (`false` = truncated by
    /// the request's [`Limits`]; results are best-so-far).
    pub complete: bool,
}

/// Everything the server can answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// Counter snapshot.
    Stats(StatsReply),
    /// Mapping result.
    Mapped(MapReply),
    /// Exploration result.
    Explored(ExploreReply),
    /// Flow result.
    Flowed(FlowReply),
    /// Request-level failure: one line naming what was wrong (schema
    /// field, DFG parse position, version mismatch, engine error, or an
    /// isolated panic). The connection stays usable.
    Error(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // The vendored proptest stub implements `Arbitrary` for integers
    // and bool only, so strings/floats/options get explicit strategies.
    fn arb_name() -> impl Strategy<Value = String> {
        any::<u64>().prop_map(|n| match n % 4 {
            0 => String::new(),
            1 => "saxpy".into(),
            2 => format!("kernel \"k{}\" {{}}", n % 97),
            _ => format!("name with \"quotes\" and\nnewlines {n}"),
        })
    }

    fn arb_f64() -> impl Strategy<Value = f64> {
        // Finite, sign- and fraction-bearing; equality-safe (no NaN).
        any::<i64>().prop_map(|n| n as f64 / 3.0)
    }

    fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
        (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v))
    }

    fn arb_limits() -> impl Strategy<Value = Limits> {
        (arb_opt_u64(), arb_opt_u64()).prop_map(|(deadline_ms, candidate_budget)| Limits {
            deadline_ms,
            candidate_budget,
        })
    }

    fn arb_space() -> impl Strategy<Value = SpaceSpec> {
        prop_oneof![
            Just(SpaceSpec::Paper),
            Just(SpaceSpec::Extended),
            Just(SpaceSpec::Deep),
        ]
    }

    // The stub's `prop_oneof!` needs same-typed arms, so one selector
    // tuple drives all five request variants through a single map.
    fn arb_request() -> impl Strategy<Value = Request> {
        let scalars = (0..5u64, arb_name(), 1..16u64, 1..16u64);
        let explore_parts = (
            prop::collection::vec(arb_name(), 0..3),
            (any::<bool>(), prop::collection::vec(arb_f64(), 0..3)),
            arb_space(),
            arb_limits(),
        );
        let flow_parts = (
            prop::collection::vec(
                (
                    arb_name(),
                    prop::collection::vec((arb_name(), any::<u64>()), 0..3),
                ),
                0..2,
            ),
            (
                any::<bool>(),
                prop::collection::vec((1..16u64, 1..16u64), 0..3),
            ),
        );
        (scalars, explore_parts, flow_parts).prop_map(
            |(
                (sel, kernel, rows, cols),
                (kernels, (w_some, w), space, limits),
                (apps, (g_some, g)),
            )| match sel {
                0 => Request::Ping,
                1 => Request::Stats,
                2 => Request::Map(MapRequest { kernel, rows, cols }),
                3 => Request::Explore(ExploreRequest {
                    kernels,
                    weights: w_some.then_some(w),
                    rows,
                    cols,
                    space,
                    limits,
                }),
                _ => Request::Flow(FlowRequest {
                    apps: apps
                        .into_iter()
                        .map(|(name, kernels)| WorkloadApp { name, kernels })
                        .collect(),
                    geometries: g_some.then_some(g),
                    space,
                    limits,
                }),
            },
        )
    }

    proptest! {
        #[test]
        fn envelopes_round_trip_the_wire(body in arb_request(), id in any::<u64>()) {
            let env = Envelope { v: PROTOCOL_VERSION, id, body };
            let line = serde_json::to_string(&env).unwrap();
            let back: Envelope = serde_json::from_str(&line).unwrap();
            prop_assert_eq!(back, env);
        }

        #[test]
        fn replies_round_trip_the_wire(id in any::<u64>(), feasible in any::<u64>(),
                                       area in arb_f64(), et in arb_f64()) {
            // Floats round-trip bit-exactly (shortest-round-trip
            // formatting) — the property the bit-identity tests lean on.
            let reply = Reply {
                id,
                body: Response::Explored(ExploreReply {
                    feasible,
                    frontier: vec![FrontierPoint {
                        name: "RSP#2".into(),
                        area_slices: area,
                        est_et_ns: et,
                    }],
                    best: Some("RSP#2".into()),
                    base_et_ns: et,
                    candidates_seen: 12,
                    candidates_pruned: 3,
                    complete: true,
                }),
            };
            let line = serde_json::to_string(&reply).unwrap();
            let back: Reply = serde_json::from_str(&line).unwrap();
            match (&back.body, &reply.body) {
                (Response::Explored(b), Response::Explored(a)) => {
                    prop_assert_eq!(b.frontier[0].area_slices.to_bits(),
                                    a.frontier[0].area_slices.to_bits());
                    prop_assert_eq!(b.base_et_ns.to_bits(), a.base_et_ns.to_bits());
                }
                _ => prop_assert!(false, "variant changed in flight"),
            }
            prop_assert_eq!(back.id, reply.id);
        }
    }

    #[test]
    fn malformed_requests_name_the_field() {
        // Each case: broken line → the diagnostic names what is wrong.
        let cases: &[(&str, &str)] = &[
            (r#"{"id": 1, "body": "Ping"}"#, "v"),
            (r#"{"v": 2, "body": "Ping"}"#, "id"),
            (r#"{"v": 2, "id": 2}"#, "body"),
            (r#"{"v": 2, "id": 2, "body": "Quack"}"#, "Quack"),
            (
                r#"{"v": 2, "id": 2, "body": {"Map": {"rows": 8, "cols": 8}}}"#,
                "kernel",
            ),
            (
                r#"{"v": 2, "id": 2, "body": {"Explore": {"kernels": [], "weights": null, "rows": 8, "cols": 8, "space": "Paper"}}}"#,
                "limits",
            ),
        ];
        for (line, needle) in cases {
            let err = serde_json::from_str::<Envelope>(line).unwrap_err();
            let msg = format!("{err}");
            assert!(
                msg.contains(needle),
                "diagnostic for {line:?} should name {needle:?}, got: {msg}"
            );
            assert!(!msg.contains('\n'), "one-line diagnostic, got: {msg}");
        }
    }
}
