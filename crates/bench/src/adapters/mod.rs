//! Per-kind engine adapters behind the benchmark registry, and the
//! recording every row runs under.
//!
//! Each adapter exposes one entry point, `measure(label) ->
//! Option<Measured>`: given a tracked report label (the `space` field of
//! a committed [`crate::gate::BenchReport`]) it runs every engine
//! configuration of that benchmark kind once and returns the report, or
//! `None` for a label it does not know. The generic registry runner
//! ([`crate::registry::BenchDef::run_all`] /
//! [`crate::registry::BenchDef::check`]) is the only caller: running a
//! benchmark walks its definition's tracked labels, and checking replays
//! the committed reports' labels — so an adapter never decides *which*
//! reports exist, only *how* one label is measured.
//!
//! Every row runs once under [`record`]: a fresh [`RingRecorder`]
//! installed as the process-global recorder, so the row's anchors come
//! with an exact count of the work it did.
//!
//! The six kinds:
//!
//! * [`explore`] — exploration-engine rows over a named design space
//!   (`rsp/explore`).
//! * [`deep100`] — pruning efficacy on the mixed 11,024-candidate
//!   multi-kind space, with in-run frontier bit-identity asserts
//!   (`rsp/deep100`).
//! * [`flow`] — end-to-end Fig. 7 flow rows (`rsp/flow`); also owns the
//!   measurement scaffold the workload adapter reuses.
//! * [`workload`] — the flow over the generated workload suite
//!   (`rsp/workload`).
//! * [`soak`] — anytime-robustness rows: budget truncation, fault
//!   isolation, checkpoint/resume (`rsp/soak`).
//! * [`serve`] — flow requests through the `rsp-serve` wire path,
//!   cache-warm vs cache-cold, sequential vs concurrent clients
//!   (`rsp/serve`).

pub mod deep100;
pub mod explore;
pub mod flow;
pub mod serve;
pub mod soak;
pub mod workload;

use crate::gate::{BenchReport, EngineRow, EventCount, Events};
use rsp_obs::{PhaseSummary, RingRecorder};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};

/// What one row's run recorded: every `(target, name)` pair's totals,
/// span time included.
#[derive(Debug, Clone)]
pub struct Recording(Vec<((&'static str, &'static str), PhaseSummary)>);

impl Recording {
    /// The exact part a row keeps: count and delta sum per
    /// `target/name`.
    pub fn events(&self) -> Events {
        self.0
            .iter()
            .map(|((target, name), s)| {
                let count = EventCount {
                    count: s.count,
                    delta: s.total_delta,
                };
                (format!("{target}/{name}"), count)
            })
            .collect()
    }

    /// The phase table `--run` prints under a row: its counts plus the
    /// time its spans took. Spans nest (`flow/exact` holds every
    /// `flow/rearrange`), so the times do not add up to the run's.
    pub fn table(&self) -> String {
        if self.0.is_empty() {
            return "    (no events)\n".into();
        }
        let mut s = format!(
            "    {:<10} {:<14} {:>8} {:>8} {:>10}\n",
            "target", "name", "events", "delta", "total_ms"
        );
        for ((target, name), p) in &self.0 {
            let _ = writeln!(
                s,
                "    {target:<10} {name:<14} {:>8} {:>8} {:>10.3}",
                p.count,
                p.total_delta,
                p.total_ns as f64 / 1e6
            );
        }
        s
    }
}

/// Runs `run` once under a fresh [`RingRecorder`] installed as the
/// process-global recorder and returns its result with what it
/// recorded.
///
/// Everything the run does reports there: option structs built inside
/// `run` default their recorder from the global, and `rearrange` reads
/// it on every call. One lock, held across the run, keeps concurrent
/// recordings apart; any other thread of the process that emits while
/// a run is recorded lands in the same recorder, so exact event checks
/// belong in a test binary whose tests all record.
pub fn record<T>(run: impl FnOnce() -> T) -> (T, Recording) {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    // Only the per-pair totals are read: keep one event, not a history.
    let ring = Arc::new(RingRecorder::new(1));
    let previous = rsp_obs::set_global(ring.clone());
    let out = run();
    rsp_obs::set_global(previous);
    (out, Recording(ring.summary()))
}

/// A freshly measured report plus what each of its rows recorded
/// (parallel to `report.engines`).
#[derive(Debug, Clone)]
pub struct Measured {
    /// The report, exactly as an artifact stores it.
    pub report: BenchReport,
    /// Each row's recording, for [`Measured::render`].
    pub recordings: Vec<Recording>,
}

impl Measured {
    /// Renders the report: each row's anchors and its phase table.
    pub fn render(&self) -> String {
        let r = &self.report;
        let geometry = if r.selected_pe_count > 0 {
            format!(", selects {}-PE base", r.selected_pe_count)
        } else {
            String::new()
        };
        let mut s = format!(
            "{} ({} candidates x {} kernels{geometry}):\n",
            r.space, r.candidates, r.kernels
        );
        for (row, recording) in r.engines.iter().zip(&self.recordings) {
            let _ = writeln!(s, "  {:<24} {}", row.name, row.summary());
            s.push_str(&recording.table());
        }
        s
    }
}

/// The rows of one report, collected as they are recorded.
#[derive(Debug, Default)]
pub(crate) struct Rows {
    engines: Vec<EngineRow>,
    recordings: Vec<Recording>,
}

impl Rows {
    /// Runs one row under [`record`] and keeps the row `row` builds from
    /// its result and events; returns the result.
    pub(crate) fn record<T>(
        &mut self,
        run: impl FnOnce() -> T,
        row: impl FnOnce(&T, Events) -> EngineRow,
    ) -> T {
        let (out, recording) = record(run);
        self.engines.push(row(&out, recording.events()));
        self.recordings.push(recording);
        out
    }

    /// The finished report.
    pub(crate) fn measured(
        self,
        space: &str,
        candidates: usize,
        kernels: usize,
        selected_pe_count: usize,
    ) -> Measured {
        Measured {
            report: BenchReport {
                space: space.into(),
                candidates,
                kernels,
                selected_pe_count,
                engines: self.engines,
            },
            recordings: self.recordings,
        }
    }
}
