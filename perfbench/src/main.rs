//! End-to-end and per-layer benchmark of the RSP toolchain.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flow-deep|explore-deep100|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run builds its inputs from `--seed`, computes reference answers
//! with the repository's oracle paths, sets the workload up several
//! times (the median is `setup_s`), then runs operations in a closed
//! loop for `--seconds` and checks every output against its reference.
//! The last line of stdout is one JSON object: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer self times, read
//! from a `RingRecorder` installed as the process-global `rsp_obs`
//! recorder (so tracing never slows the `--trace 0` numbers).

mod explore_deep100;
mod flow_deep;
mod inputs;
mod serve_mixed;
mod trace;

use rsp::obs::RingRecorder;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run at least; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Set-up time per run at least: a cheap set-up repeats until this is
/// spent, so that its median rests on many samples.
const SETUP_BUDGET: Duration = Duration::from_millis(200);

/// Untimed warm-up operations of an in-process workload after its
/// set-up: they warm the process and add the memo entries that other
/// execution counts or weights need beyond the set-up's fill.
pub(crate) const WARM_UPS: usize = 8;

/// One reported number.
pub(crate) struct Metric {
    pub(crate) name: &'static str,
    pub(crate) value: f64,
    pub(crate) unit: &'static str,
}

/// What a workload's measured phase produced.
pub(crate) struct Samples {
    /// Latency of every operation run, in milliseconds.
    pub(crate) latencies_ms: Vec<f64>,
    pub(crate) failed: usize,
    /// Wall time from the first start to the last completion.
    pub(crate) wall: Duration,
    /// The first failure, for the diagnostic on stderr.
    pub(crate) first_error: Option<String>,
}

/// A workload's verdict plus its measured phase.
pub(crate) struct Outcome {
    pub(crate) samples: Samples,
    /// Median set-up time in seconds.
    pub(crate) setup_s: f64,
    /// Reference checks made outside the measured loop.
    pub(crate) verified: Result<(), String>,
}

/// Runs `setup` at least [`SETUP_REPEATS`] times and for at least
/// [`SETUP_BUDGET`], dropping each previous state untimed, and returns
/// the last state with the median set-up time.
pub(crate) fn timed_setups<S>(
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    let started = Instant::now();
    while times.len() < SETUP_REPEATS || started.elapsed() < SETUP_BUDGET {
        let start = Instant::now();
        let next = setup()?;
        times.push(start.elapsed().as_secs_f64());
        state = Some(next);
    }
    Ok((
        state.expect("at least one set-up ran"),
        quantile(&mut times, 0.5),
    ))
}

/// Closed loop: `clients` threads each run operation `n = 0, 1, …`
/// (`run(client, n)`) until `seconds` have passed, timing each call and
/// then checking its digest with `check(client, n, digest)`.
pub(crate) fn closed_loop<R, C>(clients: usize, seconds: u64, run: R, check: C) -> Samples
where
    R: Fn(usize, usize) -> Result<String, String> + Sync,
    C: Fn(usize, usize, &str) -> bool + Sync,
{
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let per_client: Vec<(Vec<f64>, usize, Option<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let (run, check) = (&run, &check);
                s.spawn(move || {
                    let mut latencies = Vec::new();
                    let mut failed = 0;
                    let mut first_error = None;
                    let mut n = 0;
                    while Instant::now() < deadline {
                        let started = Instant::now();
                        let result = run(client, n);
                        latencies.push(started.elapsed().as_secs_f64() * 1e3);
                        let error = match result {
                            Ok(digest) if check(client, n, &digest) => None,
                            Ok(digest) => Some(format!(
                                "op {n} of client {client}: unexpected output {digest}"
                            )),
                            Err(e) => Some(format!("op {n} of client {client}: {e}")),
                        };
                        if let Some(e) = error {
                            failed += 1;
                            first_error.get_or_insert(e);
                        }
                        n += 1;
                    }
                    (latencies, failed, first_error)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut samples = Samples {
        latencies_ms: Vec::new(),
        failed: 0,
        wall,
        first_error: None,
    };
    for (latencies, failed, first_error) in per_client {
        samples.failed += failed;
        samples.latencies_ms.extend(latencies);
        if samples.first_error.is_none() {
            samples.first_error = first_error;
        }
    }
    samples
}

/// Linearly interpolated quantile `q` of `values` (sorts in place).
pub(crate) fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn render(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The recorder must be global before any engine option struct is
    // built: they capture the global recorder at construction.
    let ring = args.trace.then(|| {
        let ring = Arc::new(RingRecorder::new(1));
        rsp::obs::set_global(ring.clone());
        ring
    });
    let outcome = match args.workload.as_str() {
        "flow-deep" => flow_deep::run(args.seed, args.seconds, ring.as_deref()),
        "explore-deep100" => explore_deep100::run(args.seed, args.seconds, ring.as_deref()),
        "serve-mixed" => serve_mixed::run(args.seed, args.seconds, ring.as_deref()),
        other => Err(format!(
            "unknown workload {other} (flow-deep, explore-deep100, serve-mixed)"
        )),
    };
    let Outcome {
        mut samples,
        setup_s,
        verified,
    } = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ops = samples.latencies_ms.len();
    if ops == 0 {
        eprintln!("perfbench: no operation completed");
        return ExitCode::FAILURE;
    }
    if let Some(e) = &samples.first_error {
        eprintln!(
            "perfbench: {} of {ops} operations failed; first: {e}",
            samples.failed
        );
    }
    if let Err(e) = &verified {
        eprintln!("perfbench: reference check failed: {e}");
    }
    let metrics = match &ring {
        Some(ring) => {
            let op_ms = samples.latencies_ms.iter().sum::<f64>() / ops as f64;
            trace::layers(ring, ops, op_ms)
        }
        None => vec![
            Metric {
                name: "latency_ms",
                value: quantile(&mut samples.latencies_ms, 0.5),
                unit: "ms",
            },
            Metric {
                name: "p95_ms",
                value: quantile(&mut samples.latencies_ms, 0.95),
                unit: "ms",
            },
            Metric {
                name: "throughput_per_s",
                value: ops as f64 / samples.wall.as_secs_f64(),
                unit: "1/s",
            },
            Metric {
                name: "setup_s",
                value: setup_s,
                unit: "s",
            },
        ],
    };
    let correct = verified.is_ok() && samples.failed == 0;
    println!("{}", render(correct, ops, samples.failed, &metrics));
    ExitCode::SUCCESS
}
