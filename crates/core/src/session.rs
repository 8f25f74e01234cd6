//! Session state, split from the engine — the unified request layer.
//!
//! A [`Session`] owns everything that outlives one query: the memoized
//! synthesis reports ([`ModelCache`], keyed by `(geometry, plan)`), the
//! mapped initial contexts, and the option defaults that every request
//! inherits. The engine entry points ([`explore_with`], [`run_flow`])
//! stay pure functions of their inputs; a session merely *assembles*
//! their option structs — one [`SessionBuilder`] replaces the
//! hand-built `ExploreOptions` + `FlowConfig` + [`ExploreControl`]
//! pattern at call sites — and threads its shared caches through them,
//! so repeated or concurrent requests never re-synthesize a plan or
//! re-map a kernel they have seen. Kernel demand profiles are not
//! memoized: each exploration builds its own, once per kernel, because
//! any key that reads the whole mapped context costs about as much as
//! the build.
//!
//! Results are unaffected: cached reports and contexts are pure
//! functions of their keys, so a session-backed query is bit-identical
//! to a cold one (property-tested below and in `crates/serve`). The CLI
//! issues one request per process; `rsp-serve` keeps one session for
//! the process lifetime and answers map/explore/flow requests from many
//! clients against it.
//!
//! # Examples
//!
//! ```
//! use rsp_core::{DesignSpace, ExploreControl, Session};
//! use rsp_kernel::suite;
//!
//! let session = Session::builder().build();
//! let base = session.base(8, 8);
//! let kernels = [suite::fdct(), suite::sad()];
//! let weights = [1.0, 1.0];
//!
//! // First request synthesizes; an overlapping second request reuses
//! // every report (`session.stats().model_hits` grows).
//! for _ in 0..2 {
//!     let result = session.explore(
//!         &base,
//!         &kernels,
//!         &weights,
//!         &DesignSpace::paper(),
//!         ExploreControl::default(),
//!     )?;
//!     assert!(result.best_point().arch.plan().has_pipelining());
//! }
//! assert!(session.stats().model_hits > 0);
//! # Ok::<(), rsp_core::RspError>(())
//! ```

use crate::control::ExploreControl;
use crate::error::RspError;
use crate::explore::{
    explore_with, Constraints, DesignSpace, Exploration, ExploreOptions, Objective,
};
use crate::flow::{run_flow, AppProfile, FlowConfig, FlowReport};
use rsp_arch::{ArrayGeometry, BaseArchitecture, BusSpec, PeDesign};
use rsp_kernel::Kernel;
use rsp_mapper::{map, ConfigContext, MapOptions};
use rsp_obs::Recorder;
use rsp_synth::ModelCache;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Hashes `Debug` output directly into a [`DefaultHasher`] without
/// materializing the string. `Debug` for the hashed types is derived
/// (and floats print shortest-round-trip), so equal values hash equal
/// and distinct values collide with probability ~2⁻⁶⁴ — the usual
/// memoization trade.
struct HashWriter<'a>(&'a mut DefaultHasher);

impl std::fmt::Write for HashWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

fn fingerprint(parts: std::fmt::Arguments<'_>) -> u64 {
    // `DefaultHasher::new()` is keyed deterministically (unlike
    // `RandomState`), so fingerprints are stable within a build.
    let mut h = DefaultHasher::new();
    let _ = HashWriter(&mut h).write_fmt(parts);
    h.finish()
}

/// Builder for a [`Session`]: every knob the old hand-assembled
/// `ExploreOptions` / [`FlowConfig`] pattern exposed, with the same
/// defaults, set once and inherited by every request.
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    constraints: Constraints,
    objective: Objective,
    coverage: f64,
    geometries: Vec<(usize, usize)>,
    config_cache_depth: usize,
    map_options: MapOptions,
    recorder: Arc<dyn Recorder>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        let flow = FlowConfig::default();
        Self {
            constraints: flow.constraints,
            objective: flow.objective,
            coverage: flow.coverage,
            geometries: flow.geometries,
            config_cache_depth: flow.config_cache_depth,
            map_options: flow.map_options,
            recorder: flow.recorder,
        }
    }
}

impl SessionBuilder {
    /// Starts from the engine defaults ([`FlowConfig::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Feasibility constraints.
    pub fn constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Selection objective.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Profiling coverage for flow requests ([`FlowConfig::coverage`]).
    pub fn coverage(mut self, coverage: f64) -> Self {
        self.coverage = coverage;
        self
    }

    /// Candidate base geometries for flow requests.
    pub fn geometries(mut self, geometries: Vec<(usize, usize)>) -> Self {
        self.geometries = geometries;
        self
    }

    /// Per-PE configuration-cache depth of session-built bases.
    pub fn config_cache_depth(mut self, depth: usize) -> Self {
        self.config_cache_depth = depth;
        self
    }

    /// Mapper options for session-built contexts.
    pub fn map_options(mut self, map_options: MapOptions) -> Self {
        self.map_options = map_options;
        self
    }

    /// Recorder every request of this session reports to (defaults to
    /// [`rsp_obs::global`]; purely observational — see `rsp_obs` docs).
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Builds the session with fresh (empty) caches.
    pub fn build(self) -> Session {
        Session {
            config: self,
            models: Arc::new(ModelCache::new()),
            contexts: Mutex::new(HashMap::new()),
            context_hits: AtomicU64::new(0),
            context_misses: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        }
    }
}

/// Cache observability snapshot ([`Session::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Distinct plans with full synthesis reports ([`ModelCache::len`]).
    pub model_reports: usize,
    /// Synthesis-memo hits ([`ModelCache::hits`]).
    pub model_hits: u64,
    /// Synthesis-memo misses ([`ModelCache::misses`]).
    pub model_misses: u64,
    /// Distinct mapped contexts cached by [`Session::map`].
    pub mapped_contexts: usize,
    /// Context-memo hits ([`Session::map`] answered from the memo).
    pub context_hits: u64,
    /// Context-memo misses ([`Session::map`] had to run the mapper).
    pub context_misses: u64,
    /// Requests answered through this session's typed entry points
    /// ([`Session::map`], [`Session::explore`], [`Session::flow`]).
    pub requests: u64,
}

/// Long-lived engine state shared by every request: option defaults
/// plus the synthesis and mapping caches. See the module docs
/// for the session/engine split; construct via [`Session::builder`].
///
/// `Session` is `Send + Sync`: concurrent requests share the caches and
/// observe bit-identical results to serial runs.
#[derive(Debug)]
pub struct Session {
    config: SessionBuilder,
    models: Arc<ModelCache>,
    contexts: Mutex<HashMap<u64, Arc<ConfigContext>>>,
    context_hits: AtomicU64,
    context_misses: AtomicU64,
    requests: AtomicU64,
}

impl Default for Session {
    fn default() -> Self {
        Session::builder().build()
    }
}

impl Session {
    /// Starts building a session from the engine defaults.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// The shared synthesis memo every request of this session uses.
    pub fn model_cache(&self) -> Arc<ModelCache> {
        Arc::clone(&self.models)
    }

    /// Cache counters — the observable proof of cross-request sharing.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            model_reports: self.models.len(),
            model_hits: self.models.hits(),
            model_misses: self.models.misses(),
            mapped_contexts: self.contexts.lock().unwrap().len(),
            context_hits: self.context_hits.load(Ordering::Relaxed),
            context_misses: self.context_misses.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
        }
    }

    /// The recorder this session's requests report to.
    pub fn recorder(&self) -> Arc<dyn Recorder> {
        Arc::clone(&self.config.recorder)
    }

    /// A base architecture with the session's configuration-cache depth
    /// (paper PE design and bus spec).
    pub fn base(&self, rows: usize, cols: usize) -> BaseArchitecture {
        BaseArchitecture::new(
            ArrayGeometry::new(rows, cols),
            PeDesign::full(),
            BusSpec::paper_default(),
            self.config_cache_depth(),
        )
    }

    /// The session's configuration-cache depth.
    pub fn config_cache_depth(&self) -> usize {
        self.config.config_cache_depth
    }

    /// [`ExploreOptions`] assembled from the session defaults with the
    /// shared synthesis memo attached — the unified replacement for
    /// hand-built option structs. `control` carries the per-request
    /// deadline / candidate budget / cancel flag.
    pub fn explore_options(&self, control: ExploreControl) -> ExploreOptions {
        ExploreOptions {
            constraints: self.config.constraints,
            objective: self.config.objective,
            cache: Some(Arc::clone(&self.models)),
            control,
            recorder: Arc::clone(&self.config.recorder),
            ..ExploreOptions::default()
        }
    }

    /// [`FlowConfig`] assembled from the session defaults with the
    /// shared synthesis memo attached; `control` is per-request.
    pub fn flow_config(&self, space: DesignSpace, control: ExploreControl) -> FlowConfig {
        FlowConfig {
            coverage: self.config.coverage,
            geometries: self.config.geometries.clone(),
            config_cache_depth: self.config.config_cache_depth,
            space,
            constraints: self.config.constraints,
            objective: self.config.objective,
            map_options: self.config.map_options,
            cache: Some(Arc::clone(&self.models)),
            control,
            recorder: Arc::clone(&self.config.recorder),
            ..FlowConfig::default()
        }
    }

    /// Maps `kernel` onto `base` with the session's mapper options,
    /// memoized: repeated requests for the same `(base, kernel)` reuse
    /// the context (mapping is deterministic, so reuse is exact).
    ///
    /// # Errors
    ///
    /// [`RspError::Map`] when the kernel does not fit the base array.
    pub fn map(
        &self,
        base: &BaseArchitecture,
        kernel: &Kernel,
    ) -> Result<Arc<ConfigContext>, RspError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let key = fingerprint(format_args!(
            "{base:?}\u{1}{kernel:?}\u{1}{:?}",
            self.config.map_options
        ));
        if let Some(hit) = self.contexts.lock().unwrap().get(&key) {
            self.context_hits.fetch_add(1, Ordering::Relaxed);
            rsp_obs::count(&*self.config.recorder, "session", "context_hit", 1);
            return Ok(Arc::clone(hit));
        }
        // A racing duplicate build counts as a miss too: hits + misses
        // always equals `map` calls exactly (see the concurrency test).
        self.context_misses.fetch_add(1, Ordering::Relaxed);
        rsp_obs::count(&*self.config.recorder, "session", "context_miss", 1);
        let ctx = Arc::new(map(base, kernel, &self.config.map_options).map_err(RspError::Map)?);
        self.contexts
            .lock()
            .unwrap()
            .entry(key)
            .or_insert_with(|| Arc::clone(&ctx));
        Ok(ctx)
    }

    /// Explores `space` for `kernels` (with weights) over `base`: maps
    /// each kernel through the session's context memo, then runs
    /// [`explore_with`] under [`Session::explore_options`]. Bit-identical
    /// to a cold [`explore_with`] call with default options.
    ///
    /// # Errors
    ///
    /// Mapping errors ([`RspError::Map`]) and exploration errors
    /// ([`RspError::NoFeasibleDesign`]) are propagated.
    pub fn explore(
        &self,
        base: &BaseArchitecture,
        kernels: &[Kernel],
        weights: &[f64],
        space: &DesignSpace,
        control: ExploreControl,
    ) -> Result<Exploration, RspError> {
        let contexts: Vec<ConfigContext> = kernels
            .iter()
            .map(|k| self.map(base, k).map(|ctx| (*ctx).clone()))
            .collect::<Result<_, _>>()?;
        self.requests.fetch_add(1, Ordering::Relaxed);
        explore_with(
            base,
            kernels,
            &contexts,
            weights,
            space,
            &self.explore_options(control),
        )
    }

    /// Runs the full Fig. 7 flow over `apps` under the session defaults
    /// and shared caches. Bit-identical to a cold [`run_flow`] call.
    ///
    /// # Errors
    ///
    /// Propagates [`run_flow`]'s errors.
    pub fn flow(
        &self,
        apps: &[AppProfile],
        space: DesignSpace,
        control: ExploreControl,
    ) -> Result<FlowReport, RspError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        run_flow(apps, &self.flow_config(space, control))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_kernel::suite;

    fn kernels_and_weights() -> (Vec<Kernel>, Vec<f64>) {
        let kernels = vec![suite::fdct(), suite::sad(), suite::inner_product()];
        let weights = vec![1.0; kernels.len()];
        (kernels, weights)
    }

    #[test]
    fn builder_defaults_mirror_engine_defaults() {
        let session = Session::builder().build();
        let opts = session.explore_options(ExploreControl::default());
        let defaults = ExploreOptions::default();
        assert_eq!(opts.constraints, defaults.constraints);
        assert_eq!(opts.objective, defaults.objective);
        // The one deliberate difference: the session's synthesis memo
        // rides along.
        assert!(opts.cache.is_some());

        let cfg = session.flow_config(DesignSpace::paper(), ExploreControl::default());
        let flow_defaults = FlowConfig::default();
        assert_eq!(cfg.coverage, flow_defaults.coverage);
        assert_eq!(cfg.geometries, flow_defaults.geometries);
        assert_eq!(cfg.config_cache_depth, flow_defaults.config_cache_depth);
    }

    #[test]
    fn session_explore_is_bit_identical_to_cold_engine() {
        let session = Session::builder().build();
        let base = session.base(8, 8);
        let (kernels, weights) = kernels_and_weights();
        let space = DesignSpace::paper();

        let cold_contexts: Vec<ConfigContext> = kernels
            .iter()
            .map(|k| map(&base, k, &MapOptions::default()).unwrap())
            .collect();
        let cold = explore_with(
            &base,
            &kernels,
            &cold_contexts,
            &weights,
            &space,
            &ExploreOptions::default(),
        )
        .unwrap();

        for _ in 0..2 {
            let warm = session
                .explore(&base, &kernels, &weights, &space, ExploreControl::default())
                .unwrap();
            assert_eq!(warm.feasible.len(), cold.feasible.len());
            assert_eq!(warm.pareto, cold.pareto);
            assert_eq!(warm.best, cold.best);
            for (a, b) in warm.feasible.iter().zip(&cold.feasible) {
                assert_eq!(a.arch.name(), b.arch.name());
                assert_eq!(a.area_slices.to_bits(), b.area_slices.to_bits());
                assert_eq!(a.est_et_ns.to_bits(), b.est_et_ns.to_bits());
            }
        }
    }

    #[test]
    fn repeated_requests_hit_every_cache() {
        let session = Session::builder().build();
        let base = session.base(8, 8);
        let (kernels, weights) = kernels_and_weights();
        let space = DesignSpace::paper();
        session
            .explore(&base, &kernels, &weights, &space, ExploreControl::default())
            .unwrap();
        let first = session.stats();
        assert!(first.model_reports > 0);
        assert_eq!(first.mapped_contexts, kernels.len());

        session
            .explore(&base, &kernels, &weights, &space, ExploreControl::default())
            .unwrap();
        let second = session.stats();
        // Nothing new was synthesized or mapped...
        assert_eq!(second.model_reports, first.model_reports);
        assert_eq!(second.model_misses, first.model_misses);
        assert_eq!(second.mapped_contexts, first.mapped_contexts);
        assert_eq!(second.context_misses, first.context_misses);
        // ...because the memos answered instead.
        assert_eq!(
            second.context_hits,
            first.context_hits + kernels.len() as u64
        );
        assert!(second.model_hits > first.model_hits);
        assert!(second.requests > first.requests);
    }

    #[test]
    fn session_flow_is_bit_identical_to_cold_flow() {
        let apps = vec![AppProfile::new(
            "session-test",
            vec![(suite::fdct(), 99), (suite::sad(), 396)],
        )];
        let cold = run_flow(&apps, &FlowConfig::default()).unwrap();
        let session = Session::builder().build();
        for _ in 0..2 {
            let warm = session
                .flow(&apps, DesignSpace::paper(), ExploreControl::default())
                .unwrap();
            assert_eq!(warm.chosen.name(), cold.chosen.name());
            assert_eq!(warm.area_slices.to_bits(), cold.area_slices.to_bits());
            assert_eq!(
                warm.weighted_et_ns().to_bits(),
                cold.weighted_et_ns().to_bits()
            );
        }
        assert!(session.stats().model_hits > 0);
    }

    #[test]
    fn each_explore_profiles_its_kernels_exactly_once() {
        // The work anchor of per-call profiling: whatever the number of
        // kernels, chunks or candidates, one exploration records one
        // `explore/base` and one `explore/profile` span. Profiles built
        // per chunk or per candidate change these counts.
        let ring = Arc::new(rsp_obs::RingRecorder::new(64));
        let session = Session::builder().recorder(ring.clone()).build();
        let base = session.base(8, 8);
        let (kernels, weights) = kernels_and_weights();
        let space = DesignSpace::deep();
        let explore = || {
            session
                .explore(&base, &kernels, &weights, &space, ExploreControl::default())
                .unwrap()
        };
        let spans = |name: &str| {
            ring.summary()
                .iter()
                .find(|((target, n), _)| *target == "explore" && *n == name)
                .map_or(0, |(_, s)| s.count)
        };

        let first = explore();
        assert_eq!((spans("base"), spans("profile")), (1, 1));
        assert!(spans("prepare") > 1, "the deep space spans several chunks");
        let second = explore();
        assert_eq!((spans("base"), spans("profile")), (2, 2));
        // Bit-identical results (`Debug` prints floats shortest
        // round-trip, so equal text is equal bits) and equal prune
        // counters: the second call's warm synthesis memo moves no cut.
        let result = |e: &Exploration| {
            format!(
                "{:?}",
                (
                    &e.feasible,
                    &e.pareto,
                    e.best,
                    e.base_et_ns,
                    &e.completeness
                )
            )
        };
        assert_eq!(result(&first), result(&second));
        assert_eq!(first.stats, second.stats);
        assert!(first.stats.candidates_pruned > 0, "{:?}", first.stats);
    }

    #[test]
    fn map_memo_reuses_contexts_per_base() {
        let session = Session::builder().build();
        let base8 = session.base(8, 8);
        let base4 = session.base(4, 4);
        let a = session.map(&base8, &suite::sad()).unwrap();
        let b = session.map(&base8, &suite::sad()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // A different base is a different key.
        let c = session.map(&base4, &suite::sad()).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(session.stats().mapped_contexts, 2);
        assert_eq!(session.stats().context_hits, 1);
        assert_eq!(session.stats().context_misses, 2);
    }
}
