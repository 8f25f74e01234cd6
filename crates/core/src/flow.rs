//! The Fig. 7 design flow, end to end — pruned, on its caller's thread.
//!
//! ```text
//! applications ──> Profiling ──> critical loops
//!                      │
//!                      v
//!        Base Architecture Exploration ──> base architecture
//!                      │    (candidate geometries smallest first,
//!                      │     stopping at the first that holds every
//!                      │     critical loop)
//!                      v
//!              Pipeline Mapping ──> initial configuration contexts
//!                      │
//!                      v
//!               RSP Exploration ──> estimation Pareto frontier
//!                      │    (the admissible estimate cuts hopeless
//!                      │     candidates, some with the stage-floor
//!                      │     clock bound before delay synthesis)
//!                      v
//!                 RSP Mapping ──> RSP configuration contexts
//!                           (+ exact performance, Tables 4/5)
//!                      ^    exact rearrangement refines the frontier:
//!                      │    every kernel of every candidate, in
//!                      │    ascending-area order
//! ```
//!
//! A flow runs on the thread that calls [`run_flow`] and spawns none; a
//! server gets its parallelism by answering several requests at once.
//!
//! Profiling is modelled on synthetic application profiles: each
//! application lists its kernels with execution counts; a kernel's weight
//! is `count × operations` (equal kernels listed by several applications
//! add up; distinct kernels stay distinct loops even when they share a
//! name), and the flow keeps the hottest kernels until the requested
//! coverage of total weight is reached.
//!
//! # The exact stage
//!
//! The slack-aware estimate *lower*-bounds the exact rearranged elapsed
//! cycle count (see [`crate::estimate`]'s admissibility argument), so
//! the estimation-phase optimum is not necessarily the *exact* optimum.
//! The RSP-mapping stage therefore rearranges every estimation Pareto
//! candidate in ascending-area order and selects the best under the
//! flow objective from their **exact** weighted execution times. A
//! candidate replaces the champion only on a *strictly* smaller score,
//! so the earliest (smallest-area) candidate wins ties; a candidate
//! that turns out exactly infeasible sets no score and is reported only
//! when no candidate succeeds.

use crate::control::{Completeness, ControlClock, ExploreControl, TruncationReason};
use crate::error::RspError;
use crate::explore::{
    explore_with, Constraints, DesignSpace, Exploration, ExploreOptions, Objective,
};
use crate::perf::{perf_from_rearranged_with, KernelPerf};
use crate::rearrange::{rearrange, RearrangeOptions, Rearranged};
use rsp_arch::{ArrayGeometry, BaseArchitecture, BusSpec, PeDesign, RspArchitecture, SharingPlan};
use rsp_kernel::Kernel;
use rsp_mapper::{map, ConfigContext, MapOptions};
use rsp_obs::{Recorder, Span, Value};
use rsp_synth::{AreaModel, DelayModel, ModelCache};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One application of the target domain: named kernels with execution
/// counts (the profiling input).
#[derive(Debug, Clone)]
pub struct AppProfile {
    /// Application name (e.g. `"H.263 encoder"`).
    pub name: String,
    /// Kernels and how often the application executes them.
    pub kernels: Vec<(Kernel, u64)>,
}

impl AppProfile {
    /// Creates a profile.
    pub fn new(name: impl Into<String>, kernels: Vec<(Kernel, u64)>) -> Self {
        Self {
            name: name.into(),
            kernels,
        }
    }
}

/// Flow configuration.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Fraction of total profile weight the critical loops must cover
    /// (default 0.95).
    pub coverage: f64,
    /// Candidate array geometries for base-architecture exploration.
    pub geometries: Vec<(usize, usize)>,
    /// Per-PE configuration-cache depth.
    pub config_cache_depth: usize,
    /// RSP parameter space.
    pub space: DesignSpace,
    /// Constraints for RSP exploration.
    pub constraints: Constraints,
    /// Selection objective.
    pub objective: Objective,
    /// Mapper options.
    pub map_options: MapOptions,
    /// Ignored, like [`FlowConfig::profiles`]: every flow runs on its
    /// caller's thread. The field stays only because the benchmark
    /// package sets it; the next change to the benchmark removes it.
    pub parallelism: Option<usize>,
    /// Synthesis-report memo shared across flows (default `None` = one
    /// fresh cache per exploration, exactly as before). When set, both
    /// the exploration phase and the exact stage's delay queries are
    /// served from it — reports are pure, so outputs stay bit-identical;
    /// only re-synthesis is avoided. [`crate::Session`] wires this
    /// automatically.
    pub cache: Option<Arc<ModelCache>>,
    /// Ignored, like [`ExploreOptions::profiles`]: each exploration
    /// builds its own kernel profiles. The field stays only because the
    /// benchmark package sets it; the next change to the benchmark
    /// removes it.
    pub profiles: Option<Arc<crate::ProfileCache>>,
    /// Run budget and cooperative cancellation across the whole flow
    /// (default: unlimited). The deadline and cancel flag are checked in
    /// every phase; the candidate budget is shared by the exploration
    /// and exact-rearrangement phases (an exploration candidate and an
    /// exact frontier candidate each consume one unit), so a
    /// budget-truncated flow stops at the same candidate on every run
    /// and machine. A truncated flow reports best-so-far results tagged
    /// [`FlowReport::completeness`]; a flow stopped before any usable
    /// result fails with [`RspError::Interrupted`].
    pub control: ExploreControl,
    /// Recorder phase spans and refill splits are reported to (default
    /// [`rsp_obs::global`] at construction time). Purely observational —
    /// see [`ExploreOptions::recorder`].
    pub recorder: Arc<dyn Recorder>,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            coverage: 0.95,
            geometries: vec![(8, 8)],
            config_cache_depth: 256,
            space: DesignSpace::paper(),
            constraints: Constraints::default(),
            objective: Objective::AreaDelayProduct,
            map_options: MapOptions::default(),
            parallelism: None,
            cache: None,
            profiles: None,
            control: ExploreControl::default(),
            recorder: rsp_obs::global(),
        }
    }
}

/// A critical loop selected by profiling.
#[derive(Debug, Clone)]
pub struct CriticalLoop {
    /// The kernel.
    pub kernel: Kernel,
    /// Normalized execution weight (sums to ≤ 1 over selected loops).
    pub weight: f64,
}

/// Per-stage work counters of one flow run (see the module docs for the
/// stages). Counters describe *work performed*, not results: base
/// selection stops at the first feasible geometry, so
/// `geometries_explored` counts the geometries up to and including the
/// chosen one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Candidate geometries the configuration offered.
    pub geometries_considered: usize,
    /// Geometries whose pipeline mapping was actually attempted.
    pub geometries_explored: usize,
    /// Estimation Pareto candidates offered to the exact stage.
    pub frontier_candidates: usize,
    /// Frontier candidates whose exact rearrangement ran and succeeded.
    pub rearranged_candidates: usize,
    /// Frontier candidates whose exact rearrangement was attempted but
    /// failed (e.g. the rearranged schedule no longer fits the
    /// configuration cache). Unless the exact stage was truncated,
    /// `rearranged_candidates + rearrangements_failed ==
    /// frontier_candidates`.
    pub rearrangements_failed: usize,
    /// Candidates the exploration stage cut (`Exploration::stats`,
    /// repeated here for one-stop reporting).
    pub candidates_pruned: usize,
    /// Exploration candidates cut by the stage-floor clock bound before
    /// delay synthesis.
    pub clock_bound_cuts: usize,
    /// Configuration-cache refills across every exact rearrangement the
    /// flow performed (schedule segments beyond the first, summed over
    /// candidates × kernels). Nonzero means some rearranged schedule
    /// outgrew the cache and was split instead of rejected.
    pub refill_segments: usize,
    /// Refill-stall cycles across those rearrangements (the latency the
    /// refill model charged instead of declaring candidates infeasible).
    pub refill_stall_cycles: u64,
    /// Candidates whose evaluation panicked and was isolated — the
    /// exploration stage's [`crate::PruneStats::faulted`] plus frontier
    /// candidates that faulted during exact rearrangement.
    pub faulted: usize,
}

/// Everything the flow produces.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Selected critical loops, heaviest first.
    pub critical_loops: Vec<CriticalLoop>,
    /// The chosen base architecture.
    pub base: BaseArchitecture,
    /// Initial configuration contexts, parallel to `critical_loops`.
    pub contexts: Vec<ConfigContext>,
    /// The RSP exploration (estimation-driven).
    pub exploration: Exploration,
    /// The selected RSP architecture: the estimation Pareto candidate
    /// with the best **exact** objective score after the RSP-mapping
    /// stage refined the frontier.
    pub chosen: RspArchitecture,
    /// Final RSP configuration contexts of the chosen design, parallel
    /// to `critical_loops`.
    pub rsp_contexts: Vec<Rearranged>,
    /// Exact performance of each critical loop on the chosen design.
    pub perf: Vec<KernelPerf>,
    /// Synthesized area of the chosen design (slices).
    pub area_slices: f64,
    /// Area of the base design (slices).
    pub base_area_slices: f64,
    /// Per-stage pruning work counters.
    pub stats: FlowStats,
    /// Whether every phase processed its whole candidate stream, or the
    /// flow's [`ExploreControl`] stopped it early. A truncated flow's
    /// results are best-so-far: `chosen` is the best candidate among the
    /// frontier prefix the exact stage reached.
    pub completeness: Completeness,
}

impl FlowReport {
    /// Weighted exact execution time on the chosen design (ns).
    pub fn weighted_et_ns(&self) -> f64 {
        self.perf
            .iter()
            .zip(&self.critical_loops)
            .map(|(p, c)| p.et_ns * c.weight)
            .sum()
    }

    /// Weighted base execution time (ns).
    pub fn weighted_base_et_ns(&self) -> f64 {
        let base_clock = DelayModel::new()
            .report(&RspArchitecture::new("Base", self.base.clone(), SharingPlan::none()).unwrap())
            .clock_ns;
        self.contexts
            .iter()
            .zip(&self.critical_loops)
            .map(|(c, w)| c.total_cycles() as f64 * base_clock * w.weight)
            .sum()
    }
}

/// Attempts one candidate geometry: builds the base array and maps every
/// critical loop onto it. `None` when any loop fails to map (the
/// geometry is infeasible for this workload).
fn map_geometry(
    rows: usize,
    cols: usize,
    config: &FlowConfig,
    loops: &[CriticalLoop],
) -> Option<(BaseArchitecture, Vec<ConfigContext>)> {
    let base = BaseArchitecture::new(
        ArrayGeometry::new(rows, cols),
        PeDesign::full(),
        BusSpec::paper_default(),
        config.config_cache_depth,
    );
    let mapped: Result<Vec<_>, _> = loops
        .iter()
        .map(|cl| map(&base, &cl.kernel, &config.map_options))
        .collect();
    mapped.ok().map(|contexts| (base, contexts))
}

/// Base-architecture exploration: the smallest candidate geometry whose
/// mapped schedules fit the configuration cache. Geometries are mapped
/// in ascending-size order, stopping at the first feasible one. Returns
/// the choice plus how many geometries were attempted.
///
/// Checks `clock` before each geometry: a deadline/cancel/zero-budget
/// stop before a base is found fails with [`RspError::Interrupted`] — no
/// later phase can run without a base. The candidate budget is
/// otherwise not consumed here: it counts exploration and exact-stage
/// candidates only.
fn select_base(
    config: &FlowConfig,
    loops: &[CriticalLoop],
    clock: &ControlClock,
) -> Result<(BaseArchitecture, Vec<ConfigContext>, usize), RspError> {
    let mut geometries = config.geometries.clone();
    geometries.sort_by_key(|&(r, c)| r * c);
    for (attempted, &(r, c)) in geometries.iter().enumerate() {
        if let Some(reason) = clock.stop_reason(0) {
            return Err(RspError::Interrupted { reason });
        }
        if let Some((base, contexts)) = map_geometry(r, c, config, loops) {
            return Ok((base, contexts, attempted + 1));
        }
    }
    Err(RspError::NoFeasibleDesign)
}

/// Runs the complete Fig. 7 flow over a set of domain applications.
///
/// # Errors
///
/// * [`RspError::EmptyProfile`] when profiling selects no critical loop:
///   no application lists a kernel, none of the listed kernels executes
///   any operation (every execution count is 0), or
///   [`FlowConfig::coverage`] is not positive.
/// * Mapping, exploration, and rearrangement errors are propagated; when
///   every estimation Pareto candidate fails exact rearrangement, the
///   first failure (in ascending-area order) is returned.
/// * [`RspError::Interrupted`] when [`FlowConfig::control`] stopped the
///   flow before any candidate completed exact evaluation. A budget
///   that strikes *after* at least one candidate completed returns the
///   best-so-far report tagged [`FlowReport::completeness`] instead.
///
/// # Examples
///
/// ```
/// use rsp_core::{run_flow, AppProfile, FlowConfig};
/// use rsp_kernel::suite;
///
/// let apps = vec![AppProfile::new(
///     "H.263 encoder",
///     vec![(suite::fdct(), 99), (suite::sad(), 396)],
/// )];
/// let report = run_flow(&apps, &FlowConfig::default())?;
/// assert!(report.area_slices < report.base_area_slices);
/// # Ok::<(), rsp_core::RspError>(())
/// ```
pub fn run_flow(apps: &[AppProfile], config: &FlowConfig) -> Result<FlowReport, RspError> {
    let mut stats = FlowStats::default();
    // Observability: every phase below reports a span to the config's
    // recorder (gated, zero-cost under the default `NullRecorder`).
    let obs = &*config.recorder;

    // 1. Profiling: weight = executions x operations.
    let profile_span = Span::enter(obs, "flow", "profile", 0);
    let mut weights: Vec<(Kernel, f64)> = Vec::new();
    for app in apps {
        for (k, count) in &app.kernels {
            let w = *count as f64 * k.total_ops() as f64;
            if let Some(existing) = weights.iter_mut().find(|(e, _)| e == k) {
                existing.1 += w;
            } else {
                weights.push((k.clone(), w));
            }
        }
    }
    weights.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let total: f64 = weights.iter().map(|(_, w)| w).sum();
    let mut critical_loops = Vec::new();
    let mut covered = 0.0;
    for (k, w) in &weights {
        if covered >= config.coverage * total {
            break;
        }
        covered += w;
        critical_loops.push(CriticalLoop {
            kernel: k.clone(),
            weight: w / total,
        });
    }
    drop(profile_span);
    if critical_loops.is_empty() {
        return Err(RspError::EmptyProfile);
    }

    // One clock over the whole flow: the deadline spans every phase,
    // and the candidate budget is spent across exploration + exact
    // rearrangement.
    let clock = ControlClock::new(&config.control);

    // 2. Base architecture exploration: the smallest feasible geometry.
    stats.geometries_considered = config.geometries.len();
    let base_span = Span::enter(obs, "flow", "select_base", 0);
    let (base, contexts, geometries_explored) = select_base(config, &critical_loops, &clock)?;
    drop(base_span);
    stats.geometries_explored = geometries_explored;

    // 3. RSP exploration on the estimates, under the remainder of the
    //    flow's deadline and the (so far unspent) candidate budget. A
    //    truncated exploration is not an error: the exact stage refines
    //    whatever frontier prefix it produced.
    let kernels: Vec<Kernel> = critical_loops.iter().map(|c| c.kernel.clone()).collect();
    let kernel_weights: Vec<f64> = critical_loops.iter().map(|c| c.weight).collect();
    let explore_span = Span::enter(obs, "flow", "explore", 0);
    let exploration = explore_with(
        &base,
        &kernels,
        &contexts,
        &kernel_weights,
        &config.space,
        &ExploreOptions {
            constraints: config.constraints,
            objective: config.objective,
            cache: config.cache.clone(),
            control: ExploreControl {
                deadline: clock.remaining_deadline(),
                candidate_budget: config.control.candidate_budget,
                cancel: config.control.cancel_handle(),
            },
            recorder: Arc::clone(&config.recorder),
            ..ExploreOptions::default()
        },
    )?;
    drop(explore_span);
    stats.candidates_pruned = exploration.stats.candidates_pruned;
    stats.clock_bound_cuts = exploration.stats.clock_bound_cuts;
    stats.faulted = exploration.stats.faulted;
    // Budget units the exploration phase spent.
    let explored_candidates = exploration.stats.candidates_seen;

    // 4. RSP mapping: exact rearrangement refines the estimation Pareto
    //    frontier. Candidates are processed in ascending-area order, the
    //    order the budget and the tie rule are defined on.
    let delay = DelayModel::new();
    let score_of = |area: f64, et: f64| match config.objective {
        Objective::AreaDelayProduct => area * et,
        Objective::ExecutionTime => et,
        Objective::Area => area,
    };
    let pareto: Vec<_> = exploration.pareto_points().collect();
    stats.frontier_candidates = pareto.len();
    let mut best: Option<(usize, f64)> = None;
    let mut best_outputs: Option<(Vec<Rearranged>, Vec<KernelPerf>)> = None;
    let mut first_err: Option<RspError> = None;
    // Whatever candidate budget exploration left over is spent here, one
    // unit per frontier candidate, against the same deadline clock.
    let exact_budget = config
        .control
        .candidate_budget
        .map(|b| b.saturating_sub(explored_candidates));
    let mut exact_truncation: Option<TruncationReason> = None;
    let mut exact_processed = 0usize;
    let exact_span = Span::enter(obs, "flow", "exact", 0);
    for (ci, point) in pareto.iter().enumerate() {
        if let Some(reason) = clock.stop_reason_budgeted(exact_processed, exact_budget) {
            exact_truncation = Some(reason);
            break;
        }
        exact_processed += 1;
        // One delay synthesis per candidate, shared by every kernel —
        // served from the shared memo when the config carries one (the
        // exploration phase synthesized every frontier plan already).
        // Panic-isolated like every candidate evaluation: a faulted
        // candidate is counted and skipped, never aborts the flow.
        let _rearrange_span = Span::enter(obs, "flow", "rearrange", ci as u64);
        let Ok(delay_report) = catch_unwind(AssertUnwindSafe(|| match config.cache.as_deref() {
            Some(cache) => cache.reports(&point.arch).1,
            None => delay.report(&point.arch),
        })) else {
            stats.faulted += 1;
            stats.rearrangements_failed += 1;
            if first_err.is_none() {
                first_err = Some(RspError::CandidateFaulted {
                    name: point.arch.name().to_string(),
                });
            }
            continue;
        };
        // Every kernel is rearranged, even after one fails: the first
        // failure in kernel order decides the candidate, and the work
        // done (`rearrange/schedule` events) does not depend on where it
        // fell.
        let rearranged: Vec<Result<(Rearranged, KernelPerf), RspError>> = contexts
            .iter()
            .map(|ctx| {
                catch_unwind(AssertUnwindSafe(|| {
                    let r = rearrange(ctx, &point.arch, &RearrangeOptions::default())?;
                    let p = perf_from_rearranged_with(ctx, &point.arch, &delay_report, &r);
                    Ok((r, p))
                }))
                .unwrap_or_else(|_| {
                    Err(RspError::CandidateFaulted {
                        name: point.arch.name().to_string(),
                    })
                })
            })
            .collect();
        let mut rsp = Vec::with_capacity(contexts.len());
        let mut perf = Vec::with_capacity(contexts.len());
        let mut failure = None;
        for item in rearranged {
            match item {
                Ok((r, p)) => {
                    rsp.push(r);
                    perf.push(p);
                }
                Err(e) => {
                    if matches!(e, RspError::CandidateFaulted { .. }) {
                        stats.faulted += 1;
                    }
                    failure = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = failure {
            // Exactly infeasible candidate: it joins no frontier (a
            // failed design must never suppress a feasible one) and is
            // reported only if nothing succeeds.
            stats.rearrangements_failed += 1;
            if first_err.is_none() {
                first_err = Some(e);
            }
            continue;
        }
        stats.rearranged_candidates += 1;
        let mut refill_segments = 0u64;
        let mut refill_stalls = 0u64;
        for r in &rsp {
            stats.refill_segments += r.refill_count();
            stats.refill_stall_cycles += u64::from(r.refill_stalls());
            refill_segments += r.refill_count() as u64;
            refill_stalls += u64::from(r.refill_stalls());
        }
        if refill_segments > 0 {
            rsp_obs::point(
                obs,
                "flow",
                "refill_split",
                ci as u64,
                &[
                    ("segments", Value::U64(refill_segments)),
                    ("stall_cycles", Value::U64(refill_stalls)),
                ],
            );
        }
        let exact_et: f64 = perf
            .iter()
            .zip(&critical_loops)
            .map(|(p, c)| p.et_ns * c.weight)
            .sum();
        let score = score_of(point.area_slices, exact_et);
        if best.is_none_or(|(_, s)| score.total_cmp(&s).is_lt()) {
            best = Some((ci, score));
            best_outputs = Some((rsp, perf));
        }
    }
    drop(exact_span);
    // Flow-level completeness: remaining work is whatever exploration
    // left unseen plus the frontier tail the exact stage never reached.
    let completeness = {
        let exact_remaining = pareto.len() - exact_processed;
        match (exploration.completeness, exact_truncation) {
            (Completeness::Complete, None) => Completeness::Complete,
            (
                Completeness::Truncated {
                    candidates_remaining,
                    reason,
                },
                None,
            ) => Completeness::Truncated {
                candidates_remaining,
                reason,
            },
            (explore_done, Some(reason)) => Completeness::Truncated {
                candidates_remaining: exact_remaining
                    + match explore_done {
                        Completeness::Truncated {
                            candidates_remaining,
                            ..
                        } => candidates_remaining,
                        Completeness::Complete => 0,
                    },
                reason,
            },
        }
    };

    let Some((best_ci, _)) = best else {
        // Nothing usable: distinguish "the budget stopped us before any
        // candidate completed" from genuine infeasibility.
        if let Completeness::Truncated { reason, .. } = completeness {
            return Err(RspError::Interrupted { reason });
        }
        return Err(first_err.unwrap_or(RspError::NoFeasibleDesign));
    };
    let chosen = pareto[best_ci].arch.clone();
    let (rsp_contexts, perf) = best_outputs.expect("outputs accompany the best score");

    let area_model = AreaModel::new();
    let area = area_model.report(&chosen);

    Ok(FlowReport {
        critical_loops,
        base,
        contexts,
        exploration,
        chosen,
        rsp_contexts,
        perf,
        area_slices: area.synthesized_slices,
        base_area_slices: area.base_synthesized_slices,
        stats,
        completeness,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::perf_from_rearranged;
    use rsp_kernel::suite;

    fn domain_apps() -> Vec<AppProfile> {
        vec![
            AppProfile::new(
                "H.263 encoder",
                vec![(suite::fdct(), 99), (suite::sad(), 396)],
            ),
            AppProfile::new(
                "scientific",
                vec![
                    (suite::hydro(), 50),
                    (suite::inner_product(), 80),
                    (suite::mvm(), 40),
                ],
            ),
            AppProfile::new("fft", vec![(suite::fft_mult_loop(), 64)]),
        ]
    }

    #[test]
    fn flow_runs_end_to_end() {
        let report = run_flow(&domain_apps(), &FlowConfig::default()).unwrap();
        assert!(!report.critical_loops.is_empty());
        assert_eq!(report.contexts.len(), report.critical_loops.len());
        assert_eq!(report.perf.len(), report.critical_loops.len());
        // Domain-specific optimization: smaller and (weighted) faster or
        // comparable.
        assert!(report.area_slices < report.base_area_slices);
        assert!(report.weighted_et_ns() < report.weighted_base_et_ns() * 1.2);
        // The exact stage evaluated at least the chosen candidate and
        // reported its work.
        assert!(report.stats.rearranged_candidates >= 1);
        assert_eq!(
            report.stats.frontier_candidates,
            report.exploration.pareto.len()
        );
        // Untruncated, the exact stage settles every frontier candidate.
        assert_eq!(
            report.stats.rearranged_candidates + report.stats.rearrangements_failed,
            report.stats.frontier_candidates
        );
    }

    #[test]
    fn coverage_limits_loop_count() {
        let mut cfg = FlowConfig {
            coverage: 0.5,
            ..FlowConfig::default()
        };
        let narrow = run_flow(&domain_apps(), &cfg).unwrap();
        cfg.coverage = 1.0;
        let full = run_flow(&domain_apps(), &cfg).unwrap();
        assert!(narrow.critical_loops.len() <= full.critical_loops.len());
        // Heaviest first.
        let w: Vec<f64> = full.critical_loops.iter().map(|c| c.weight).collect();
        assert!(w.windows(2).all(|p| p[0] >= p[1]));
    }

    #[test]
    fn duplicate_kernels_across_apps_merge() {
        let apps = vec![
            AppProfile::new("a", vec![(suite::sad(), 10)]),
            AppProfile::new("b", vec![(suite::sad(), 20)]),
        ];
        let report = run_flow(&apps, &FlowConfig::default()).unwrap();
        assert_eq!(report.critical_loops.len(), 1);
        assert!((report.critical_loops[0].weight - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_kernels_sharing_a_name_stay_distinct_loops() {
        // A 4×4 matmul whose DFG carries FDCT's name is another kernel:
        // it becomes its own critical loop instead of lending FDCT its
        // weight.
        let json = serde_json::to_string(&suite::matmul(4)).unwrap();
        let impostor: Kernel =
            serde_json::from_str(&json.replacen("\"MatMul\"", "\"2D-FDCT\"", 1)).unwrap();
        assert_eq!(impostor.name(), suite::fdct().name());
        let apps = vec![AppProfile::new(
            "a",
            vec![(suite::fdct(), 10), (impostor.clone(), 1000)],
        )];
        let cfg = FlowConfig {
            coverage: 1.0,
            ..FlowConfig::default()
        };
        let report = run_flow(&apps, &cfg).unwrap();
        assert_eq!(report.critical_loops.len(), 2);
        assert_eq!(report.critical_loops[0].kernel, impostor, "heaviest first");
        assert_eq!(report.critical_loops[1].kernel, suite::fdct());
    }

    #[test]
    fn empty_profile_rejected() {
        let err = run_flow(&[], &FlowConfig::default()).unwrap_err();
        assert_eq!(err, RspError::EmptyProfile);
        // Listed but never executed: nothing to weigh, so no loop.
        let idle = vec![AppProfile::new(
            "idle",
            vec![(suite::fdct(), 0), (suite::sad(), 0)],
        )];
        let err = run_flow(&idle, &FlowConfig::default()).unwrap_err();
        assert_eq!(err, RspError::EmptyProfile);
    }

    #[test]
    fn geometry_exploration_prefers_smaller_feasible() {
        let cfg = FlowConfig {
            geometries: vec![(8, 8), (4, 4)],
            // SAD fits a 4x4 with a deep enough cache.
            config_cache_depth: 1024,
            ..FlowConfig::default()
        };
        let apps = vec![AppProfile::new("me", vec![(suite::sad(), 1)])];
        let report = run_flow(&apps, &cfg).unwrap();
        assert_eq!(report.base.geometry().pe_count(), 16);
        assert_eq!(report.stats.geometries_considered, 2);
    }

    #[test]
    fn base_selection_stops_at_the_first_feasible_geometry() {
        // Geometries are tried smallest first, whatever the listed order,
        // and the first that holds every loop ends the search.
        let cfg = FlowConfig {
            geometries: vec![(8, 8), (6, 6), (4, 4)],
            ..FlowConfig::default()
        };
        let report = run_flow(&domain_apps(), &cfg).unwrap();
        assert_eq!(report.base.geometry().pe_count(), 16);
        assert_eq!(report.stats.geometries_considered, 3);
        assert_eq!(report.stats.geometries_explored, 1);

        // A 11×11 matmul overflows the 4×4 cache: the search moves on to
        // the 6×6 and never maps the 8×8.
        let mut apps = domain_apps();
        apps.push(AppProfile::new(
            "matmul",
            vec![(rsp_workload::generators::matmul(11), 1)],
        ));
        let cfg = FlowConfig {
            coverage: 1.0,
            ..cfg
        };
        let report = run_flow(&apps, &cfg).unwrap();
        assert_eq!(report.base.geometry().pe_count(), 36);
        assert_eq!(report.stats.geometries_explored, 2);
    }

    #[test]
    fn exact_stage_chooses_best_exact_objective_on_frontier() {
        // The chosen design must carry the minimum exact objective score
        // among every frontier candidate that rearranges successfully.
        let report = run_flow(&domain_apps(), &FlowConfig::default()).unwrap();
        let exact_et = report.weighted_et_ns();
        let chosen_score = report.area_slices * exact_et;
        for p in report.exploration.pareto_points() {
            let delay = DelayModel::new();
            let mut et = 0.0;
            let mut ok = true;
            for (ctx, cl) in report.contexts.iter().zip(&report.critical_loops) {
                match rearrange(ctx, &p.arch, &RearrangeOptions::default()) {
                    Ok(r) => {
                        et += perf_from_rearranged(ctx, &p.arch, &delay, &r).et_ns * cl.weight;
                    }
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                assert!(
                    chosen_score <= p.area_slices * et + 1e-9,
                    "{} beats the chosen {}",
                    p.arch.name(),
                    report.chosen.name()
                );
            }
        }
    }

    #[test]
    fn flow_stopped_before_any_result_is_interrupted() {
        // Zero deadline: the geometry phase never starts.
        let cfg = FlowConfig {
            control: ExploreControl::with_deadline(std::time::Duration::ZERO),
            ..FlowConfig::default()
        };
        let err = run_flow(&domain_apps(), &cfg).unwrap_err();
        assert_eq!(
            err,
            RspError::Interrupted {
                reason: TruncationReason::Deadline
            }
        );

        // Zero candidate budget: same, via the reproducible knob.
        let cfg = FlowConfig {
            control: ExploreControl::with_budget(0),
            ..FlowConfig::default()
        };
        let err = run_flow(&domain_apps(), &cfg).unwrap_err();
        assert_eq!(
            err,
            RspError::Interrupted {
                reason: TruncationReason::CandidateBudget
            }
        );

        // Pre-raised cancel flag.
        let control = ExploreControl::default();
        control.request_cancel();
        let cfg = FlowConfig {
            control,
            ..FlowConfig::default()
        };
        let err = run_flow(&domain_apps(), &cfg).unwrap_err();
        assert_eq!(
            err,
            RspError::Interrupted {
                reason: TruncationReason::Cancelled
            }
        );
    }

    #[test]
    fn flow_budget_spent_entirely_on_exploration_is_interrupted() {
        // The budget covers exactly the exploration phase, leaving the
        // exact stage nothing: no candidate is ever rearranged, so there
        // is no usable result.
        let cfg = FlowConfig::default();
        let space_total = cfg.space.plans().count();
        let cfg = FlowConfig {
            control: ExploreControl::with_budget(space_total),
            ..cfg
        };
        let err = run_flow(&domain_apps(), &cfg).unwrap_err();
        assert_eq!(
            err,
            RspError::Interrupted {
                reason: TruncationReason::CandidateBudget
            }
        );
    }

    #[test]
    fn flow_budget_truncation_keeps_the_best_so_far() {
        // One unit past the exploration phase: the exact stage processes
        // exactly one frontier candidate. The truncated report is
        // best-so-far and tagged Truncated.
        let space_total = FlowConfig::default().space.plans().count();
        let cfg = FlowConfig {
            control: ExploreControl::with_budget(space_total + 1),
            ..FlowConfig::default()
        };
        let report = run_flow(&domain_apps(), &cfg).unwrap();
        assert!(
            matches!(
                report.completeness,
                Completeness::Truncated {
                    reason: TruncationReason::CandidateBudget,
                    ..
                }
            ),
            "{:?}",
            report.completeness
        );
        // The exploration itself completed; only the exact stage was cut
        // short, after the smallest-area frontier candidate.
        assert!(report.exploration.completeness.is_complete());
        assert_eq!(report.stats.rearranged_candidates, 1);
        let smallest = report.exploration.pareto_points().next().unwrap();
        assert_eq!(report.chosen.name(), smallest.arch.name());

        // An ample budget reproduces the unbudgeted flow.
        let ample = FlowConfig {
            control: ExploreControl::with_budget(10_000),
            ..FlowConfig::default()
        };
        let full = run_flow(&domain_apps(), &ample).unwrap();
        let unbudgeted = run_flow(&domain_apps(), &FlowConfig::default()).unwrap();
        assert!(full.completeness.is_complete());
        assert_eq!(full.chosen.name(), unbudgeted.chosen.name());
        assert_eq!(
            full.weighted_et_ns().to_bits(),
            unbudgeted.weighted_et_ns().to_bits()
        );
    }
}
