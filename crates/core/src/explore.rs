//! RSP design-space exploration (§4).
//!
//! Enumerates RSP parameter combinations — shared resource types, pipeline
//! depths, `shr`, `shc`, heterogeneous mixes — over a base architecture;
//! estimates hardware cost with eq. (2) and performance with the
//! admissible slack-aware stall estimate (see [`crate::estimate`]);
//! rejects points violating the cost/performance constraints; keeps the
//! Pareto frontier; and selects an optimum under a configurable
//! objective.
//!
//! # Engine architecture
//!
//! [`explore_with`] is the engine, and it runs on its caller's thread;
//! [`explore`] is a thin compatibility wrapper over it, and [`explore_reference`] keeps the original textbook serial
//! implementation as the oracle the engine is property-tested against
//! (and the `serial-reference` row of the tracked `BENCH_explore.json`,
//! whose result anchors the engine row must match). The engine differs
//! from the reference in *mechanics only* — its results are
//! bit-identical:
//!
//! * **Shared base, no deep clones** — candidates hold the base array
//!   behind one `Arc` ([`rsp_arch::RspArchitecture::base_arc`]) instead
//!   of cloning geometry + PE + bus tables per plan.
//! * **One decomposition, walked** — the space is decomposed once into
//!   per-axis option lists (the grid's groups; each mix axis's
//!   "unshared" slot plus its valid groups), the same decomposition
//!   [`DesignSpace::plans`] walks. A candidate is a mixed-radix position
//!   in it: the count is closed-form, and a resumed run seeks straight
//!   to its cursor.
//! * **Tables, built once per exploration** — each kernel's demand for
//!   every shared kind in the space is profiled once (the
//!   `explore/profile` span) into a [`crate::ContextProfile`], and each
//!   kernel's slack floor is computed once per distinct
//!   `(kind, shr, shc)` of the space
//!   ([`ContextProfile::exec_floor`](crate::ContextProfile::exec_floor)),
//!   since it depends on neither the pipeline depth nor the other
//!   groups. Each option stores its floor row, its clock-floor term
//!   ([`rsp_synth::DelayModel::group_clock_floor_ns`]) and, in a mix,
//!   its name fragments. A candidate's name is its fragments joined, its
//!   estimate per kernel is `max(T, its floors)` plus the refill charge,
//!   and its clock floor the largest of its terms: table lookups, no
//!   suffix sweep. Profiles are not memoized across calls: a key would
//!   read the whole context and cost as much as the build.
//! * **Direct synthesis** — a candidate's area and clock come straight
//!   from the [`AreaModel`]/[`DelayModel`] of [`ExploreOptions::cache`]:
//!   both are closed-form, and a memo hit (a cloned plan key, a hash and
//!   a lock) costs more than either. The cache memoizes only the base
//!   plan, so an exploration makes one `ModelCache` query.
//! * **Two cuts, one candidate at a time** — the estimate is admissible
//!   (see [`crate::estimate`]), so a candidate is settled by a function
//!   of that candidate alone, in this order: build it and synthesize its
//!   area; reject it on eq. (2)'s cost bound; estimate its cycles;
//!   multiply them by the admissible stage-structure clock floor
//!   ([`DelayModel::clock_floor_ns`], read from the tables) and cut it
//!   when that floored time already violates `max_slowdown`, before its
//!   delay is ever synthesized ([`PruneStats::clock_bound_cuts`]);
//!   otherwise synthesize its clock and cut it when its estimated time
//!   violates `max_slowdown`. Both cuts count in
//!   [`PruneStats::candidates_pruned`], and neither changes a result:
//!   the floor never exceeds the clock, so term-wise under IEEE-754
//!   rounding a clock-cut candidate's estimated time violates the bound
//!   as well, and the reference rejects every cut candidate too.
//! * **One thread per request** — candidates are pulled in enumeration
//!   order in fixed-size chunks ([`CHUNK`]); each chunk is evaluated in
//!   order (the `explore/prepare` span) and then merged in order (the
//!   `explore/screen` span), so the feasible set, Pareto frontier, and
//!   selected optimum are the serial reference's. A candidate costs
//!   microseconds of closed-form work, so a thread fan-out per chunk
//!   costs more than it saves: the engine spawns no threads, and a
//!   server gets its parallelism by answering several requests at once.
//! * **Streaming frontier** — feasible points stream into a
//!   [`crate::ParetoFrontier`], which emits the final Pareto set
//!   incrementally. Its emission is proven (and property-tested)
//!   bit-identical to the batch [`pareto_indices`] sweep the reference
//!   performs — frontier *equality*, not merely equivalence — including
//!   the sweep's `1e-12` epsilon and NaN handling.
//! * **Anytime operation** — the sweep honours an
//!   [`ExploreControl`] (wall-clock deadline, candidate budget, external
//!   cancel flag), checked cooperatively before each candidate is pulled
//!   from the stream. A stopped run returns the prefix evaluated so far,
//!   tagged [`Exploration::completeness`]; see [`crate::control`] for
//!   the truncation-soundness argument. A truncated run can be
//!   serialized with [`Exploration::checkpoint`] and continued with
//!   [`explore_resume`] to the bit-identical complete result.
//! * **Panic isolation** — each candidate's evaluation runs under
//!   `catch_unwind`; a candidate whose synthesis or estimation panics is
//!   counted in [`PruneStats::faulted`] and skipped instead of poisoning
//!   the whole sweep. Surviving results are unaffected: a faulted
//!   candidate contributes nothing, exactly as if it had been rejected.
//!
//! The cuts are observable: [`Exploration::stats`] reports candidates
//! seen, pruned, clock-cut, and faulted ([`PruneStats`]).

use crate::control::{Completeness, ControlClock, ExploreControl, TruncationReason};
use crate::error::RspError;
use crate::estimate::{estimate_stalls_dense, refill_stall_estimate, ContextProfile};
use crate::frontier::{pareto_indices_of, ParetoFrontier};
use rsp_arch::{BaseArchitecture, FuKind, RspArchitecture, SharedGroup, SharingPlan};
use rsp_kernel::Kernel;
use rsp_mapper::ConfigContext;
use rsp_obs::{Recorder, Span, Value};
use rsp_synth::{AreaModel, DelayModel, ModelCache};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One kind's parameter ranges inside a heterogeneous sharing mix (see
/// [`DesignSpace::mixes`]): every `(stages, shr, shc)` combination of the
/// axis, plus the implicit "don't share this kind" option.
#[derive(Debug, Clone)]
pub struct MixAxis {
    /// The shared resource kind this axis varies.
    pub kind: FuKind,
    /// Candidate pipeline depths (1 = RS only; ≥2 = RSP).
    pub stages: Vec<u8>,
    /// Candidate `shr` values (shared resources per row).
    pub shr: Vec<usize>,
    /// Candidate `shc` values (shared resources per column).
    pub shc: Vec<usize>,
}

/// The RSP parameter ranges to enumerate.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    /// Candidate shared resource kinds (the paper shares the multiplier).
    /// Combined with `stages`/`shr`/`shc` into single-group plans.
    pub shared_kinds: Vec<FuKind>,
    /// Candidate pipeline depths (1 = RS only; ≥2 = RSP).
    pub stages: Vec<u8>,
    /// Candidate `shr` values (shared resources per row).
    pub shr: Vec<usize>,
    /// Candidate `shc` values (shared resources per column).
    pub shc: Vec<usize>,
    /// Heterogeneous mixes: each mix is a set of per-kind axes whose
    /// cross product (including each axis's "unshared" option, minus the
    /// all-unshared plan) is enumerated as multi-group plans on top of
    /// the single-kind grid above. Empty for the single-kind spaces.
    pub mixes: Vec<Vec<MixAxis>>,
}

impl DesignSpace {
    /// The paper's evaluated space: multiplier sharing with the four
    /// Fig. 8 configurations, combinational or 2-stage.
    pub fn paper() -> Self {
        Self {
            shared_kinds: vec![FuKind::Multiplier],
            stages: vec![1, 2],
            shr: vec![1, 2],
            shc: vec![0, 1, 2],
            mixes: vec![],
        }
    }

    /// A wider space for ablation studies.
    pub fn extended() -> Self {
        Self {
            shared_kinds: vec![FuKind::Multiplier],
            stages: vec![1, 2, 3, 4],
            shr: vec![1, 2, 3],
            shc: vec![0, 1, 2, 3],
            mixes: vec![],
        }
    }

    /// A deep space stressing the engine: every sharable kind, pipeline
    /// depths up to the template's maximum of 8, and wide bank ranges —
    /// the SHP-style deep-pipelining sweep the 12-point paper grid only
    /// hints at. Enumerated lazily.
    pub fn deep() -> Self {
        Self {
            shared_kinds: vec![FuKind::Multiplier, FuKind::Alu, FuKind::Shifter],
            stages: vec![1, 2, 3, 4, 5, 6, 7, 8],
            shr: vec![1, 2, 3, 4],
            shc: vec![0, 1, 2, 3, 4],
            mixes: vec![],
        }
    }

    /// The `deep × 100`-class space (ROADMAP item 2): one heterogeneous
    /// mix over all three sharable kinds, enumerating every combination
    /// of multiplier, ALU, and shifter sharing — including leaving any
    /// subset unshared — as multi-group plans. 11 024 candidates
    /// (49 × 25 × 9 − 1), ~23× [`deep`](Self::deep) and ~900× the
    /// 12-point paper grid. Built to stress the engine with
    /// heterogeneous plans at 10⁴ candidates; it is also where the
    /// stage-floor clock cut fires (combinational shared multipliers
    /// next to a single shared ALU per row).
    pub fn deep100() -> Self {
        Self {
            shared_kinds: vec![],
            stages: vec![],
            shr: vec![],
            shc: vec![],
            mixes: vec![vec![
                MixAxis {
                    kind: FuKind::Multiplier,
                    stages: vec![1, 2, 3, 4],
                    shr: vec![1, 2, 3, 4],
                    shc: vec![0, 1, 2],
                },
                MixAxis {
                    kind: FuKind::Alu,
                    stages: vec![1, 2],
                    shr: vec![1, 2, 3, 4],
                    shc: vec![0, 1, 2],
                },
                MixAxis {
                    kind: FuKind::Shifter,
                    stages: vec![1, 2],
                    shr: vec![1, 2],
                    shc: vec![0, 1],
                },
            ]],
        }
    }

    /// Every shared kind any plan of this space can contain: the
    /// single-kind grid's kinds plus every mix axis's kind, first-seen
    /// order, deduplicated. This is the kind set kernel profiles must
    /// cover so any enumerated plan can be bounded and estimated.
    pub fn kinds_used(&self) -> Vec<FuKind> {
        let mut kinds: Vec<FuKind> = Vec::new();
        let axis_kinds = self.mixes.iter().flatten().map(|a| a.kind);
        for kind in self.shared_kinds.iter().copied().chain(axis_kinds) {
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
        }
        kinds
    }

    /// Lazily enumerates every sharing plan in the space: the
    /// single-kind grid (one shared group per plan), then each mix's
    /// cross product as multi-group plans. Invalid parameter
    /// combinations (e.g. pipeline stages on a non-pipelinable kind, or
    /// a kind repeated within one mix) are skipped. This is the order
    /// the exploration engine visits candidates in.
    pub fn plans(&self) -> impl Iterator<Item = SharingPlan> + '_ {
        let axes = Axes::new(self);
        let mut walk = Walk::default();
        std::iter::from_fn(move || walk.next(&axes).map(|picks| axes.plan(picks)))
    }
}

/// A design space decomposed into per-axis option lists: the one
/// enumeration behind [`DesignSpace::plans`], the engine's candidate
/// walk and the closed-form candidate count.
///
/// Axis 0 is the single-kind grid; each of its groups is one candidate.
/// Every other axis is one kind of one mix, and a mix's candidates are
/// its mixed-radix product: each axis is either unshared (digit 0) or
/// shares its `digit − 1`-th group, the first axis varying fastest,
/// skipping the all-unshared base plan and any combination that shares
/// one kind twice.
#[derive(Debug, Clone)]
struct Axes {
    /// Each axis's valid groups, in enumeration order.
    options: Vec<Vec<SharedGroup>>,
    /// Each mix's axes (a range of `options`) and its mixed-radix size.
    mixes: Vec<(Range<usize>, usize)>,
}

/// A cursor into a space's candidate sequence (see [`Axes`]).
#[derive(Debug, Clone, Default)]
struct Walk {
    /// 0 for the grid, `1 + m` for mix `m`.
    segment: usize,
    /// The next grid option, or the next mixed-radix index of the mix.
    index: usize,
    /// The current candidate's `(axis, option)` picks.
    picks: Vec<(usize, usize)>,
}

impl Axes {
    fn new(space: &DesignSpace) -> Self {
        let groups = |kind: FuKind, stages: &[u8], shr: &[usize], shc: &[usize]| {
            let mut out = Vec::new();
            for &stages in stages {
                for &shr in shr {
                    for &shc in shc {
                        if let Ok(g) = SharedGroup::new(kind, shr, shc, stages) {
                            out.push(g);
                        }
                    }
                }
            }
            out
        };
        let grid = space
            .shared_kinds
            .iter()
            .flat_map(|&kind| groups(kind, &space.stages, &space.shr, &space.shc))
            .collect();
        let mut options = vec![grid];
        let mut mixes = Vec::with_capacity(space.mixes.len());
        for mix in &space.mixes {
            let first = options.len();
            for axis in mix {
                options.push(groups(axis.kind, &axis.stages, &axis.shr, &axis.shc));
            }
            let radix = options[first..].iter().map(|o| o.len() + 1).product();
            mixes.push((first..options.len(), radix));
        }
        Axes { options, mixes }
    }

    /// How many candidates the space holds, in closed form: the grid's
    /// groups, plus for each mix the product over its kinds of "unshared
    /// or one of this kind's groups" (a kind on several axes is shared by
    /// at most one of them), minus the all-unshared plan.
    fn count(&self) -> usize {
        let mut count = self.options[0].len();
        for (axes, _) in &self.mixes {
            let mut groups_per_kind: Vec<(FuKind, usize)> = Vec::new();
            for options in &self.options[axes.clone()] {
                let Some(kind) = options.first().map(SharedGroup::kind) else {
                    continue;
                };
                match groups_per_kind.iter_mut().find(|(k, _)| *k == kind) {
                    Some((_, n)) => *n += options.len(),
                    None => groups_per_kind.push((kind, options.len())),
                }
            }
            count += groups_per_kind
                .iter()
                .map(|(_, n)| n + 1)
                .product::<usize>()
                - 1;
        }
        count
    }

    /// A walk positioned before candidate `cursor`. Stepping past the
    /// first `cursor` candidates builds none of their plans.
    fn walk_from(&self, cursor: usize) -> Walk {
        let mut walk = Walk::default();
        for _ in 0..cursor {
            walk.next(self);
        }
        walk
    }

    /// The plan of one candidate's picks.
    fn plan(&self, picks: &[(usize, usize)]) -> SharingPlan {
        picks
            .iter()
            .fold(SharingPlan::none(), |plan, &(axis, option)| {
                plan.with_group(self.options[axis][option])
                    .expect("a walk never shares one kind twice")
            })
    }
}

impl Walk {
    /// Advances to the next candidate and returns its picks; `None` past
    /// the last one.
    fn next(&mut self, axes: &Axes) -> Option<&[(usize, usize)]> {
        loop {
            self.picks.clear();
            if self.segment == 0 {
                if self.index < axes.options[0].len() {
                    self.picks.push((0, self.index));
                    self.index += 1;
                    return Some(&self.picks);
                }
                (self.segment, self.index) = (1, 1);
            }
            let (range, radix) = axes.mixes.get(self.segment - 1)?;
            if self.index >= *radix {
                (self.segment, self.index) = (self.segment + 1, 1);
                continue;
            }
            let mut rest = self.index;
            self.index += 1;
            let mut repeats_a_kind = false;
            for axis in range.clone() {
                let options = &axes.options[axis];
                let digit = rest % (options.len() + 1);
                rest /= options.len() + 1;
                if digit > 0 {
                    let kind = options[digit - 1].kind();
                    repeats_a_kind |= self
                        .picks
                        .iter()
                        .any(|&(a, o)| axes.options[a][o].kind() == kind);
                    self.picks.push((axis, digit - 1));
                }
            }
            if !repeats_a_kind {
                return Some(&self.picks);
            }
        }
    }
}

/// Constraints applied before Pareto filtering.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Constraints {
    /// Require eq. (2): `HWcost < n·m·PE` (reject designs costlier than
    /// the base array).
    pub enforce_cost_bound: bool,
    /// Reject designs whose estimated weighted execution time exceeds
    /// `max_slowdown ×` the base architecture's (e.g. 1.5 = at most 50 %
    /// slower).
    pub max_slowdown: f64,
}

impl Default for Constraints {
    fn default() -> Self {
        Self {
            enforce_cost_bound: true,
            max_slowdown: 1.5,
        }
    }
}

/// Selection objective among Pareto points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize `area × weighted execution time` (the balanced choice).
    AreaDelayProduct,
    /// Minimize weighted execution time.
    ExecutionTime,
    /// Minimize area.
    Area,
}

/// Options for [`explore_with`].
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Ignored: every exploration runs on its caller's thread. The
    /// field stays only because the benchmark package sets it; the next
    /// change to the benchmark removes it, like
    /// [`profiles`](Self::profiles).
    pub parallelism: Option<usize>,
    /// Feasibility constraints.
    pub constraints: Constraints,
    /// Selection objective.
    pub objective: Objective,
    /// Synthesis models and report memo. The exploration synthesizes
    /// every candidate directly through the cache's
    /// [`area_model`](ModelCache::area_model) and
    /// [`delay_model`](ModelCache::delay_model), so a cache built with
    /// custom models ([`ModelCache::with_models`], a custom library or a
    /// fault hook) shapes every candidate. It memoizes only the base
    /// plan's reports: one query per exploration. `None` uses the
    /// paper's models through a run-local cache.
    pub cache: Option<Arc<ModelCache>>,
    /// Ignored: every exploration builds each kernel's profile once
    /// (see [`ProfileCache`]). The field stays only because the
    /// benchmark package sets it; the next change to the benchmark
    /// removes it, together with [`ProfileCache`] and
    /// [`RearrangeOptions`](crate::RearrangeOptions).
    pub profiles: Option<Arc<ProfileCache>>,
    /// Run budget and cooperative cancellation (default: unlimited).
    /// When a deadline, candidate budget, or external cancel stops the
    /// sweep early, the result is an anytime prefix tagged
    /// [`Exploration::completeness`]; see [`crate::control`].
    pub control: ExploreControl,
    /// Recorder phase spans and prune decisions are reported to.
    /// Defaults to [`rsp_obs::global`] **at construction time** (install
    /// a global before building options to observe this run). Purely
    /// observational: results are bit-identical whatever is attached,
    /// and the default [`rsp_obs::NullRecorder`] skips even clock reads.
    pub recorder: Arc<dyn Recorder>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        Self {
            parallelism: None,
            constraints: Constraints::default(),
            objective: Objective::AreaDelayProduct,
            cache: None,
            profiles: None,
            control: ExploreControl::default(),
            recorder: rsp_obs::global(),
        }
    }
}

/// Empty and unused: no kernel-profile memo exists.
///
/// A profile is a pure function of the mapped context and takes tens of
/// microseconds to build, while a memo key must read the whole context,
/// which costs as much or more. So every exploration builds each
/// kernel's profile once per call. The type stays only because the
/// benchmark package builds it into [`ExploreOptions::profiles`] and
/// [`FlowConfig::profiles`](crate::FlowConfig::profiles); the next
/// change to the benchmark removes it.
#[derive(Debug, Default)]
pub struct ProfileCache {}

impl ProfileCache {
    /// The (empty) value the benchmark package builds.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Pruning efficacy counters of one exploration (see
/// [`Exploration::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PruneStats {
    /// Candidate plans enumerated from the design space (including ones
    /// later rejected by constraints).
    pub candidates_seen: usize,
    /// Candidates cut because their admissible estimate violates
    /// `max_slowdown` — with the stage-structure clock floor before
    /// delay synthesis, or with the synthesized clock after it.
    pub candidates_pruned: usize,
    /// Subset of `candidates_pruned` cut by the stage-structure clock
    /// floor *before* delay synthesis — these candidates never reached
    /// the delay model at all.
    pub clock_bound_cuts: usize,
    /// Candidates whose evaluation panicked (isolated by
    /// `catch_unwind`) and were skipped instead of aborting the sweep.
    pub faulted: usize,
}

/// One evaluated candidate.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// The candidate architecture.
    pub arch: RspArchitecture,
    /// Synthesized area (slices).
    pub area_slices: f64,
    /// Clock period (ns).
    pub clock_ns: f64,
    /// Estimated cycles per kernel (the admissible slack-aware
    /// estimate; never exceeds the exact rearranged schedule's elapsed
    /// cycles), kernel order of the exploration input.
    pub est_cycles: Vec<u32>,
    /// Weighted estimated execution time (ns).
    pub est_et_ns: f64,
    /// Whether eq. (2)'s cost bound holds.
    pub cost_bound_ok: bool,
}

/// Exploration output.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Every candidate that passed the constraints.
    pub feasible: Vec<DesignPoint>,
    /// Indices into `feasible` forming the (area, time) Pareto frontier,
    /// sorted by area.
    pub pareto: Vec<usize>,
    /// Index into `feasible` of the selected optimum; `None` only when a
    /// truncated run has no feasible point yet.
    pub best: Option<usize>,
    /// Weighted estimated execution time of the base architecture (ns).
    pub base_et_ns: f64,
    /// Pruning efficacy counters.
    pub stats: PruneStats,
    /// Whether the whole candidate stream was processed, or the sweep
    /// stopped early under its [`ExploreControl`].
    pub completeness: Completeness,
    /// Fingerprint of the options/space this result was computed under,
    /// embedded in checkpoints and validated by [`explore_resume`].
    pub(crate) fingerprint: EngineFingerprint,
}

impl Exploration {
    /// The selected design point.
    ///
    /// # Panics
    ///
    /// When a truncated run found no feasible point yet (`best` is
    /// `None`); use [`try_best_point`](Self::try_best_point) then.
    pub fn best_point(&self) -> &DesignPoint {
        self.try_best_point()
            .expect("a truncated exploration found no feasible point to select")
    }

    /// The selected design point, or `None` when a truncated run has no
    /// feasible point yet.
    pub fn try_best_point(&self) -> Option<&DesignPoint> {
        self.best.map(|i| &self.feasible[i])
    }

    /// The Pareto-frontier points, smallest area first.
    pub fn pareto_points(&self) -> impl Iterator<Item = &DesignPoint> {
        self.pareto.iter().map(|&i| &self.feasible[i])
    }

    /// Serializes this result's resumable state: the evaluated feasible
    /// prefix (plans plus their estimates), the enumeration cursor, the
    /// pruning counters, and a fingerprint of the options/space. Feed it
    /// to [`explore_resume`] — with the same inputs and options — to
    /// continue a truncated run to the bit-identical complete result.
    ///
    /// All recorded floats are finite in practice and survive a
    /// `serde_json` round trip bit-exactly (shortest-round-trip float
    /// formatting).
    pub fn checkpoint(&self) -> ExploreCheckpoint {
        ExploreCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: self.fingerprint,
            cursor: self.stats.candidates_seen,
            base_et_ns: self.base_et_ns,
            candidates_pruned: self.stats.candidates_pruned,
            clock_bound_cuts: self.stats.clock_bound_cuts,
            faulted: self.stats.faulted,
            points: self
                .feasible
                .iter()
                .map(|p| CheckpointPoint {
                    name: p.arch.name().to_string(),
                    plan: p.arch.plan().clone(),
                    area_slices: p.area_slices,
                    clock_ns: p.clock_ns,
                    est_cycles: p.est_cycles.clone(),
                    est_et_ns: p.est_et_ns,
                    cost_bound_ok: p.cost_bound_ok,
                })
                .collect(),
        }
    }
}

/// Checkpoint schema version, bumped on incompatible layout changes.
const CHECKPOINT_VERSION: u32 = 2;

/// Fingerprint of everything that shapes candidate enumeration and
/// evaluation. A checkpoint embeds one; [`explore_resume`] refuses to
/// continue under options or a space that fingerprint differently.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct EngineFingerprint {
    pub(crate) objective: Objective,
    pub(crate) constraints: Constraints,
    pub(crate) candidates_total: usize,
}

/// One feasible point recorded in a checkpoint: the plan (the
/// architecture is rebuilt on resume) plus its evaluated estimates.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CheckpointPoint {
    name: String,
    plan: SharingPlan,
    area_slices: f64,
    clock_ns: f64,
    est_cycles: Vec<u32>,
    est_et_ns: f64,
    cost_bound_ok: bool,
}

/// A serializable snapshot of a (possibly truncated) exploration:
/// the feasible prefix, the enumeration cursor, and an options
/// fingerprint. Produced by [`Exploration::checkpoint`], consumed by
/// [`explore_resume`]. Serializes with serde like the BENCH artifacts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExploreCheckpoint {
    version: u32,
    fingerprint: EngineFingerprint,
    cursor: usize,
    base_et_ns: f64,
    candidates_pruned: usize,
    clock_bound_cuts: usize,
    faulted: usize,
    points: Vec<CheckpointPoint>,
}

impl ExploreCheckpoint {
    /// Candidates already processed (the enumeration cursor a resumed
    /// run continues from).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Total candidates in the recorded design space.
    pub fn candidates_total(&self) -> usize {
        self.fingerprint.candidates_total
    }

    /// Whether the recorded run had already processed every candidate
    /// (resuming is then a no-op that returns the complete result).
    pub fn is_complete(&self) -> bool {
        self.cursor >= self.fingerprint.candidates_total
    }
}

/// Explores `space` for the given kernels (with execution-frequency
/// weights) over `base`, using the engine with default options.
///
/// `contexts` must be the kernels' initial configuration contexts on
/// `base`, in the same order as `kernels`.
///
/// # Errors
///
/// [`RspError::EmptyProfile`] when there are no kernels or their weighted
/// base execution time is not positive (every weight 0).
/// [`RspError::NoFeasibleDesign`] when every candidate violates the
/// constraints.
///
/// # Examples
///
/// ```
/// use rsp_arch::presets;
/// use rsp_core::{explore, Constraints, DesignSpace, Objective};
/// use rsp_kernel::suite;
/// use rsp_mapper::{map, MapOptions};
///
/// let base = presets::base_8x8();
/// let kernels: Vec<_> = suite::all();
/// let contexts: Vec<_> = kernels
///     .iter()
///     .map(|k| map(base.base(), k, &MapOptions::default()).unwrap())
///     .collect();
/// let weights = vec![1.0; kernels.len()];
///
/// let result = explore(
///     base.base(),
///     &kernels,
///     &contexts,
///     &weights,
///     &DesignSpace::paper(),
///     &Constraints::default(),
///     Objective::AreaDelayProduct,
/// )?;
/// // The paper's conclusion: a pipelined (RSP) design wins.
/// assert!(result.best_point().arch.plan().has_pipelining());
/// # Ok::<(), rsp_core::RspError>(())
/// ```
#[allow(clippy::too_many_arguments)]
pub fn explore(
    base: &BaseArchitecture,
    kernels: &[Kernel],
    contexts: &[ConfigContext],
    weights: &[f64],
    space: &DesignSpace,
    constraints: &Constraints,
    objective: Objective,
) -> Result<Exploration, RspError> {
    explore_with(
        base,
        kernels,
        contexts,
        weights,
        space,
        &ExploreOptions {
            constraints: *constraints,
            objective,
            ..ExploreOptions::default()
        },
    )
}

/// Candidates per chunk. A chunk is assembled by pulling candidates one
/// at a time — checking the control before every pull — and then
/// evaluated in order, so a stop lands at an exact candidate boundary
/// and is noticed within one chunk's work.
/// Results never depend on the chunk size: no candidate's outcome
/// depends on another's.
const CHUNK: usize = 64;

/// What evaluation settled for one candidate.
enum Outcome {
    /// Passed every constraint; joins the feasible set.
    Feasible(DesignPoint),
    /// Its estimate times the stage-structure clock floor already
    /// violates `max_slowdown`; its delay was never synthesized.
    ClockCut,
    /// Its estimated execution time violates `max_slowdown`.
    SlowdownCut,
    /// Construction failed or the eq. (2) cost bound rejects it — the
    /// reference rejects it too.
    Reject,
    /// Its evaluation panicked; isolated by `catch_unwind` and counted
    /// in [`PruneStats::faulted`].
    Faulted,
}

/// The exploration engine. See the module docs for the guarantees;
/// [`explore`] forwards here.
///
/// # Errors
///
/// [`RspError::EmptyProfile`] when there are no kernels or their weighted
/// base execution time is not positive (every weight 0).
/// [`RspError::NoFeasibleDesign`] when every candidate violates the
/// constraints.
///
/// # Examples
///
/// ```
/// use rsp_arch::presets;
/// use rsp_core::{explore_with, DesignSpace, ExploreOptions};
/// use rsp_kernel::suite;
/// use rsp_mapper::{map, MapOptions};
///
/// let base = presets::base_8x8();
/// let kernels: Vec<_> = suite::all();
/// let contexts: Vec<_> = kernels
///     .iter()
///     .map(|k| map(base.base(), k, &MapOptions::default()).unwrap())
///     .collect();
/// let weights = vec![1.0; kernels.len()];
///
/// let result = explore_with(
///     base.base(),
///     &kernels,
///     &contexts,
///     &weights,
///     &DesignSpace::extended(),
///     &ExploreOptions::default(),
/// )?;
/// assert!(result.best_point().arch.plan().has_pipelining());
/// # Ok::<(), rsp_core::RspError>(())
/// ```
pub fn explore_with(
    base: &BaseArchitecture,
    kernels: &[Kernel],
    contexts: &[ConfigContext],
    weights: &[f64],
    space: &DesignSpace,
    options: &ExploreOptions,
) -> Result<Exploration, RspError> {
    explore_engine(base, kernels, contexts, weights, space, options, None)
}

/// Continues a checkpointed run: replays the recorded feasible prefix
/// and pruning state, skips the first [`cursor`](ExploreCheckpoint::cursor)
/// candidates, and processes the rest with the normal engine — under the
/// checkpoint's `options.control` budget, which is fresh for this call.
/// Resuming a truncated run with no further budget limits reaches the
/// result an uninterrupted [`explore_with`] call would have produced,
/// bit for bit (property-tested in `tests/anytime.rs`).
///
/// # Errors
///
/// [`RspError::CheckpointMismatch`] when `checkpoint` was recorded under
/// different options, a different design space, or a different base
/// architecture/kernel profile (detected via an options fingerprint and
/// the bit-exact base execution time).
/// [`RspError::NoFeasibleDesign`] when the completed run has no feasible
/// candidate.
/// [`RspError::EmptyProfile`] when there are no kernels or their weighted
/// base execution time is not positive (every weight 0).
#[allow(clippy::too_many_arguments)]
pub fn explore_resume(
    base: &BaseArchitecture,
    kernels: &[Kernel],
    contexts: &[ConfigContext],
    weights: &[f64],
    space: &DesignSpace,
    options: &ExploreOptions,
    checkpoint: &ExploreCheckpoint,
) -> Result<Exploration, RspError> {
    explore_engine(
        base,
        kernels,
        contexts,
        weights,
        space,
        options,
        Some(checkpoint),
    )
}

/// Shared engine behind [`explore_with`], [`explore_resume`] and
/// [`Session::explore`](crate::Session::explore), which hands over the
/// contexts its memo holds without copying them.
pub(crate) fn explore_engine<C: Borrow<ConfigContext>>(
    base: &BaseArchitecture,
    kernels: &[Kernel],
    contexts: &[C],
    weights: &[f64],
    space: &DesignSpace,
    options: &ExploreOptions,
    resume: Option<&ExploreCheckpoint>,
) -> Result<Exploration, RspError> {
    assert_eq!(kernels.len(), contexts.len());
    assert_eq!(kernels.len(), weights.len());
    // Observability: spans and prune decisions go to the caller's
    // recorder. Everything below is gated on `obs.enabled()` (directly
    // or inside `Span`/`point`), so the default `NullRecorder` costs
    // one branch per site and zero clock reads.
    let obs = &*options.recorder;
    let constraints = &options.constraints;
    let models = options
        .cache
        .clone()
        .unwrap_or_else(|| Arc::new(ModelCache::new()));
    let cache_depth = base.config_cache_depth() as u32;
    let base = Arc::new(base.clone());

    let base_span = Span::enter(obs, "explore", "base", 0);
    let base_arch = RspArchitecture::new("Base", Arc::clone(&base), SharingPlan::none())
        .expect("base plan is always valid");
    let base_clock = models.reports(&base_arch).1.clock_ns;
    let base_et: f64 = contexts
        .iter()
        .zip(weights)
        .map(|(c, w)| w * c.borrow().total_cycles() as f64 * base_clock)
        .sum();
    require_work(base_et)?;
    let et_bound = constraints.max_slowdown * base_et;

    let axes = Axes::new(space);
    let candidates_total = axes.count();
    let fingerprint = EngineFingerprint {
        objective: options.objective,
        constraints: *constraints,
        candidates_total,
    };
    if let Some(ckpt) = resume {
        validate_checkpoint(ckpt, &fingerprint, base_et)?;
    }
    drop(base_span);

    // One profile per kernel, covering every kind the space can share,
    // grid or mix, reduced at once into the tables every candidate
    // reads.
    let profile_span = Span::enter(obs, "explore", "profile", 0);
    let profile_kinds = space.kinds_used();
    let profiles: Vec<ContextProfile> = contexts
        .iter()
        .zip(kernels)
        .map(|(ctx, k)| ContextProfile::new(ctx.borrow(), k, &profile_kinds))
        .collect();
    let tables = Tables::new(&axes, &profiles, models.delay_model());
    drop(profile_span);

    // Settles one candidate from its own picks alone (see the module
    // docs). The estimate's weighted time is accumulated in the
    // reference's association order, `w · cycles · clock` per kernel,
    // once with the clock floor and once with the synthesized clock.
    let (area_model, delay_model) = (models.area_model(), models.delay_model());
    let evaluate = |picks: &[(usize, usize)]| -> Outcome {
        let name = tables.name(&axes, picks);
        let Ok(arch) = RspArchitecture::new(name, Arc::clone(&base), axes.plan(picks)) else {
            return Outcome::Reject;
        };
        let area = area_model.report(&arch);
        let cost_bound_ok = area.satisfies_cost_bound();
        if constraints.enforce_cost_bound && !cost_bound_ok {
            return Outcome::Reject;
        }
        let est_cycles = tables.est_cycles(picks, cache_depth);
        let weighted_et = |clock_ns: f64| {
            let mut et = 0.0;
            for (c, w) in est_cycles.iter().zip(weights) {
                et += w * *c as f64 * clock_ns;
            }
            et
        };
        if weighted_et(tables.clock_floor_ns(picks)) > et_bound {
            return Outcome::ClockCut;
        }
        let clock_ns = delay_model.report(&arch).clock_ns;
        let est_et_ns = weighted_et(clock_ns);
        if est_et_ns > et_bound {
            return Outcome::SlowdownCut;
        }
        Outcome::Feasible(DesignPoint {
            arch,
            area_slices: area.synthesized_slices,
            clock_ns,
            est_cycles,
            est_et_ns,
            cost_bound_ok,
        })
    };

    let mut feasible: Vec<DesignPoint> = Vec::new();
    let mut stats = PruneStats::default();
    // Streaming frontier: emits the final Pareto set, bit-identical to
    // the reference batch sweep.
    let mut frontier = ParetoFrontier::new();

    // Resume: replay the recorded prefix state — feasible points (their
    // architectures rebuilt from the recorded plans), the frontier
    // (re-inserting the same point sequence reproduces the exact
    // staircase), and the pruning counters — then continue the
    // candidate walk from the cursor.
    let start_cursor = resume.map_or(0, |c| c.cursor);
    if let Some(ckpt) = resume {
        for p in &ckpt.points {
            let arch = RspArchitecture::new(p.name.clone(), Arc::clone(&base), p.plan.clone())
                .map_err(|_| RspError::CheckpointMismatch {
                    what: format!("recorded plan of `{}` is invalid on this base", p.name),
                })?;
            frontier.insert(p.area_slices, p.est_et_ns, feasible.len());
            feasible.push(DesignPoint {
                arch,
                area_slices: p.area_slices,
                clock_ns: p.clock_ns,
                est_cycles: p.est_cycles.clone(),
                est_et_ns: p.est_et_ns,
                cost_bound_ok: p.cost_bound_ok,
            });
        }
        stats.candidates_seen = ckpt.cursor;
        stats.candidates_pruned = ckpt.candidates_pruned;
        stats.clock_bound_cuts = ckpt.clock_bound_cuts;
        stats.faulted = ckpt.faulted;
    }
    let mut walk = axes.walk_from(start_cursor);

    let clock = ControlClock::new(&options.control);
    // Candidates pulled by *this call* (a resumed call's budget is
    // fresh; the deadline is measured from this call's start).
    let mut consumed = 0usize;
    let mut truncation: Option<TruncationReason> = None;
    let mut chunk_index = 0u64;

    loop {
        // Size the next chunk, checking the control before each
        // candidate so truncation lands exactly at a candidate boundary.
        let remaining = candidates_total - stats.candidates_seen;
        let mut size = 0;
        while size < CHUNK.min(remaining) {
            if let Some(reason) = clock.stop_reason(consumed + size) {
                truncation = Some(reason);
                break;
            }
            size += 1;
        }
        if size == 0 {
            break;
        }
        consumed += size;
        let chunk_start = stats.candidates_seen;
        stats.candidates_seen += size;

        let prepare_span = Span::enter(obs, "explore", "prepare", chunk_index);
        // Panic isolation per candidate: a panic faults that candidate
        // only, never the sweep.
        let outcomes: Vec<Outcome> = (0..size)
            .map(|_| {
                let picks = walk.next(&axes).expect("the count covers every candidate");
                catch_unwind(AssertUnwindSafe(|| evaluate(picks))).unwrap_or(Outcome::Faulted)
            })
            .collect();
        drop(prepare_span);

        // Ordered merge: identical to what the serial reference pushes.
        let screen_span = Span::enter(obs, "explore", "screen", chunk_index);
        for (offset, outcome) in outcomes.into_iter().enumerate() {
            // Stream index of this candidate, stable across resumes —
            // the correlation id of its prune/fault events.
            let candidate = (chunk_start + offset) as u64;
            let reason = match outcome {
                Outcome::Feasible(point) => {
                    frontier.insert(point.area_slices, point.est_et_ns, feasible.len());
                    feasible.push(point);
                    continue;
                }
                Outcome::ClockCut => {
                    stats.clock_bound_cuts += 1;
                    "clock_floor"
                }
                Outcome::SlowdownCut => "lower_bound",
                Outcome::Reject => continue,
                Outcome::Faulted => {
                    stats.faulted += 1;
                    rsp_obs::point(obs, "explore", "faulted", candidate, &[]);
                    continue;
                }
            };
            stats.candidates_pruned += 1;
            rsp_obs::point(
                obs,
                "explore",
                "prune",
                candidate,
                &[("reason", Value::Str(reason))],
            );
        }
        drop(screen_span);

        chunk_index += 1;
        if truncation.is_some() {
            break;
        }
    }

    let completeness = match truncation {
        Some(reason) if stats.candidates_seen < candidates_total => Completeness::Truncated {
            candidates_remaining: candidates_total - stats.candidates_seen,
            reason,
        },
        // A budget that fired exactly at (or past) the last candidate
        // changed nothing: the result is the complete one.
        _ => Completeness::Complete,
    };

    if feasible.is_empty() && completeness.is_complete() {
        return Err(RspError::NoFeasibleDesign);
    }

    // The streaming frontier's emission is bit-identical to
    // `pareto_indices(&feasible)` (see `crate::frontier`'s module docs
    // and property tests), so no batch re-sweep is needed here.
    let pareto = frontier.indices();
    let best = select(&feasible, &pareto, options.objective);
    Ok(Exploration {
        feasible,
        pareto,
        best,
        base_et_ns: base_et,
        stats,
        completeness,
        fingerprint,
    })
}

/// What settling a candidate reads, tabulated once per exploration from
/// the space's [`Axes`]: per axis option, its floor row, clock-floor
/// term and name fragments; per distinct `(kind, shr, shc)`, each
/// kernel's slack floor. A candidate's estimate is then
/// `max(base cycles, its options' floors)` per kernel, and its clock
/// floor the largest of its options' terms.
struct Tables {
    /// Per axis, per option: the option's terms.
    options: Vec<Vec<OptionTerms>>,
    /// Each kernel's slack floor under each distinct `(kind, shr, shc)`,
    /// one row of `base_cycles.len()` entries per triple.
    floors: Vec<u32>,
    /// Each kernel's base-schedule length.
    base_cycles: Vec<u32>,
}

/// One axis option's terms (see [`Tables`]).
struct OptionTerms {
    /// The option's row of [`Tables::floors`].
    row: usize,
    /// [`DelayModel::group_clock_floor_ns`] of its group.
    clock_floor_ns: f64,
    /// Mix options: the group's [`group_name`], alone and tagged with its
    /// kind (see [`plan_name`]). Grid options leave both empty: each grid
    /// name is used once, so it is formatted per candidate instead.
    name: String,
    tagged: String,
}

impl Tables {
    fn new(axes: &Axes, profiles: &[ContextProfile], delay: &DelayModel) -> Self {
        let mut triples: Vec<(FuKind, usize, usize)> = Vec::new();
        let options = axes
            .options
            .iter()
            .enumerate()
            .map(|(axis, groups)| {
                groups
                    .iter()
                    .map(|g| {
                        let triple = (g.kind(), g.per_row(), g.per_col());
                        let row = triples
                            .iter()
                            .position(|t| *t == triple)
                            .unwrap_or_else(|| {
                                triples.push(triple);
                                triples.len() - 1
                            });
                        let (name, tagged) = if axis == 0 {
                            (String::new(), String::new())
                        } else {
                            let name = group_name(g);
                            let tagged = format!("{:?}:{name}", g.kind());
                            (name, tagged)
                        };
                        OptionTerms {
                            row,
                            clock_floor_ns: delay.group_clock_floor_ns(g),
                            name,
                            tagged,
                        }
                    })
                    .collect()
            })
            .collect();
        let floors = triples
            .iter()
            .flat_map(|&(kind, shr, shc)| {
                profiles.iter().map(move |p| p.exec_floor(kind, shr, shc))
            })
            .collect();
        Tables {
            options,
            floors,
            base_cycles: profiles.iter().map(ContextProfile::total_cycles).collect(),
        }
    }

    /// Each kernel's estimated cycles under the plan of `picks`: the
    /// larger of its base length and the picks' slack floors, plus the
    /// refill charge of a `cache_depth`-deep cache. This is
    /// [`ContextProfile::estimate`]'s `total_cycles`, read from the
    /// tables.
    fn est_cycles(&self, picks: &[(usize, usize)], cache_depth: u32) -> Vec<u32> {
        let kernels = self.base_cycles.len();
        let rows = || {
            picks
                .iter()
                .map(|&(axis, option)| self.options[axis][option].row)
        };
        (0..kernels)
            .map(|k| {
                let exec = rows().fold(self.base_cycles[k], |exec, row| {
                    exec.max(self.floors[row * kernels + k])
                });
                exec + refill_stall_estimate(exec, cache_depth)
            })
            .collect()
    }

    /// The plan of `picks`' clock floor: the largest of its groups'
    /// terms, which is [`DelayModel::clock_floor_ns`] read from the
    /// tables.
    fn clock_floor_ns(&self, picks: &[(usize, usize)]) -> f64 {
        picks.iter().fold(0.0, |floor: f64, &(axis, option)| {
            floor.max(self.options[axis][option].clock_floor_ns)
        })
    }

    /// The name [`plan_name`] gives the plan of `picks`.
    fn name(&self, axes: &Axes, picks: &[(usize, usize)]) -> String {
        let terms = |&(axis, option): &(usize, usize)| &self.options[axis][option];
        match picks {
            [(0, option)] => group_name(&axes.options[0][*option]),
            [pick] => terms(pick).name.clone(),
            _ => {
                let mut name =
                    String::with_capacity(picks.iter().map(|p| terms(p).tagged.len() + 1).sum());
                for (i, pick) in picks.iter().enumerate() {
                    if i > 0 {
                        name.push('+');
                    }
                    name.push_str(&terms(pick).tagged);
                }
                name
            }
        }
    }
}

/// Checks that a checkpoint was recorded under the same options, design
/// space, and base/kernel inputs it is being resumed under.
fn validate_checkpoint(
    ckpt: &ExploreCheckpoint,
    fingerprint: &EngineFingerprint,
    base_et: f64,
) -> Result<(), RspError> {
    if ckpt.version != CHECKPOINT_VERSION {
        return Err(RspError::CheckpointMismatch {
            what: format!(
                "checkpoint version {} (this build writes {CHECKPOINT_VERSION})",
                ckpt.version
            ),
        });
    }
    if ckpt.fingerprint != *fingerprint {
        return Err(RspError::CheckpointMismatch {
            what: format!(
                "options/space fingerprint differs (recorded {:?}, resuming under {:?})",
                ckpt.fingerprint, fingerprint
            ),
        });
    }
    if ckpt.base_et_ns.to_bits() != base_et.to_bits() {
        return Err(RspError::CheckpointMismatch {
            what: "base execution time differs — different base architecture, kernels, \
                   or weights"
                .to_string(),
        });
    }
    if ckpt.cursor > ckpt.fingerprint.candidates_total {
        return Err(RspError::CheckpointMismatch {
            what: format!(
                "cursor {} exceeds the space's {} candidates",
                ckpt.cursor, ckpt.fingerprint.candidates_total
            ),
        });
    }
    Ok(())
}

/// The original serial implementation from the paper reproduction, kept
/// as the oracle for property tests and the baseline for the tracked
/// benchmark: deep-clones the base per candidate, re-synthesizes every
/// report, and rebuilds a dense demand histogram per candidate through
/// the original dense estimator — which shares no code with the sparse
/// profile path, so an estimator regression in either implementation
/// surfaces as a divergence in the equivalence property tests.
///
/// # Errors
///
/// [`RspError::EmptyProfile`] when there are no kernels or their weighted
/// base execution time is not positive (every weight 0).
/// [`RspError::NoFeasibleDesign`] when every candidate violates the
/// constraints.
#[allow(clippy::too_many_arguments)]
pub fn explore_reference(
    base: &BaseArchitecture,
    kernels: &[Kernel],
    contexts: &[ConfigContext],
    weights: &[f64],
    space: &DesignSpace,
    constraints: &Constraints,
    objective: Objective,
) -> Result<Exploration, RspError> {
    explore_reference_with(
        base,
        kernels,
        contexts,
        weights,
        space,
        constraints,
        objective,
        &ExploreControl::default(),
    )
}

/// [`explore_reference`] under an [`ExploreControl`]: the serial oracle
/// with the same cooperative candidate-boundary stop checks as the
/// engine. A run truncated after `k` candidates is exactly the serial
/// sweep over the first `k` plans — the yardstick the cancellation-
/// determinism property tests compare the engine's truncated results
/// against.
///
/// # Errors
///
/// [`RspError::EmptyProfile`] when there are no kernels or their weighted
/// base execution time is not positive (every weight 0).
/// [`RspError::NoFeasibleDesign`] when a *complete* run has no feasible
/// candidate (a truncated run returns an empty anytime result instead).
#[allow(clippy::too_many_arguments)]
pub fn explore_reference_with(
    base: &BaseArchitecture,
    kernels: &[Kernel],
    contexts: &[ConfigContext],
    weights: &[f64],
    space: &DesignSpace,
    constraints: &Constraints,
    objective: Objective,
    control: &ExploreControl,
) -> Result<Exploration, RspError> {
    assert_eq!(kernels.len(), contexts.len());
    assert_eq!(kernels.len(), weights.len());
    let area_model = AreaModel::new();
    let delay_model = DelayModel::new();

    let base_arch = RspArchitecture::new("Base", base.clone(), SharingPlan::none())
        .expect("base plan is always valid");
    let base_clock = delay_model.report(&base_arch).clock_ns;
    let base_et: f64 = contexts
        .iter()
        .zip(weights)
        .map(|(c, w)| w * c.total_cycles() as f64 * base_clock)
        .sum();
    require_work(base_et)?;

    let candidates_total = space.plans().count();
    let clock = ControlClock::new(control);
    let mut truncation: Option<TruncationReason> = None;

    let mut feasible = Vec::new();
    let mut candidates_seen = 0usize;
    for plan in space.plans() {
        if let Some(reason) = clock.stop_reason(candidates_seen) {
            truncation = Some(reason);
            break;
        }
        candidates_seen += 1;
        let name = plan_name(&plan);
        let Ok(arch) = RspArchitecture::new(name, base.clone(), plan) else {
            continue;
        };
        let area = area_model.report(&arch);
        let delay = delay_model.report(&arch);

        let mut est_cycles = Vec::with_capacity(kernels.len());
        let mut est_et = 0.0;
        for ((k, ctx), w) in kernels.iter().zip(contexts).zip(weights) {
            let est = estimate_stalls_dense(ctx, k, &arch);
            est_cycles.push(est.total_cycles);
            est_et += w * est.total_cycles as f64 * delay.clock_ns;
        }

        let cost_ok = area.satisfies_cost_bound();
        if constraints.enforce_cost_bound && !cost_ok {
            continue;
        }
        if est_et > constraints.max_slowdown * base_et {
            continue;
        }
        feasible.push(DesignPoint {
            arch,
            area_slices: area.synthesized_slices,
            clock_ns: delay.clock_ns,
            est_cycles,
            est_et_ns: est_et,
            cost_bound_ok: cost_ok,
        });
    }

    let completeness = match truncation {
        Some(reason) if candidates_seen < candidates_total => Completeness::Truncated {
            candidates_remaining: candidates_total - candidates_seen,
            reason,
        },
        _ => Completeness::Complete,
    };

    if feasible.is_empty() && completeness.is_complete() {
        return Err(RspError::NoFeasibleDesign);
    }

    let pareto = pareto_indices(&feasible);
    let best = select(&feasible, &pareto, objective);
    Ok(Exploration {
        feasible,
        pareto,
        best,
        base_et_ns: base_et,
        stats: PruneStats {
            candidates_seen,
            ..PruneStats::default()
        },
        completeness,
        // The reference's feasible prefix is the engine's (the engine's
        // cuts are result-preserving), so a reference checkpoint resumes
        // through the engine; only its pruning counters start at zero.
        fingerprint: EngineFingerprint {
            objective,
            constraints: *constraints,
            candidates_total,
        },
    })
}

/// [`RspError::EmptyProfile`] unless the weighted base execution time is
/// positive: with no kernels, or only zero-weight ones, every design
/// ties at zero time and a pick would mean nothing.
fn require_work(base_et: f64) -> Result<(), RspError> {
    if base_et > 0.0 {
        Ok(())
    } else {
        Err(RspError::EmptyProfile)
    }
}

/// A shared group's name: `RS(shr=…,shc=…,st=…)`, or `RSP(…)` when it
/// is pipelined.
fn group_name(g: &SharedGroup) -> String {
    let tag = if g.is_pipelined() { "RSP" } else { "RS" };
    format!(
        "{tag}(shr={},shc={},st={})",
        g.per_row(),
        g.per_col(),
        g.stages()
    )
}

/// A candidate plan's name: its one group's [`group_name`], or every
/// group's name tagged with its kind, joined by `+`.
fn plan_name(plan: &SharingPlan) -> String {
    match plan.groups() {
        // Single-group plans keep the historic kind-less name the
        // tracked artifacts and checkpoints were recorded under.
        [g] => group_name(g),
        groups => groups
            .iter()
            .map(|g| format!("{:?}:{}", g.kind(), group_name(g)))
            .collect::<Vec<_>>()
            .join("+"),
    }
}

/// Indices of non-dominated points in (area, estimated time), sorted by
/// area ascending. NaN-safe: comparisons use `f64::total_cmp`, so a
/// degenerate candidate (NaN area or time) sorts last instead of
/// panicking, and can never displace a finite frontier point. This is
/// the batch sweep the reference uses; the engine's streaming
/// [`ParetoFrontier`] emits the identical result.
fn pareto_indices(points: &[DesignPoint]) -> Vec<usize> {
    let pairs: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.area_slices, p.est_et_ns))
        .collect();
    pareto_indices_of(&pairs)
}

/// The Pareto point minimizing `objective`; `None` only for an empty
/// frontier, which a truncated run can leave behind.
fn select(points: &[DesignPoint], pareto: &[usize], objective: Objective) -> Option<usize> {
    let score = |p: &DesignPoint| match objective {
        Objective::AreaDelayProduct => p.area_slices * p.est_et_ns,
        Objective::ExecutionTime => p.est_et_ns,
        Objective::Area => p.area_slices,
    };
    pareto
        .iter()
        .copied()
        .min_by(|&a, &b| score(&points[a]).total_cmp(&score(&points[b])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_arch::presets;
    use rsp_kernel::suite;
    use rsp_mapper::{map, MapOptions};

    fn setup() -> (BaseArchitecture, Vec<Kernel>, Vec<ConfigContext>, Vec<f64>) {
        let base = presets::base_8x8().base().clone();
        let kernels = suite::all();
        let contexts: Vec<_> = kernels
            .iter()
            .map(|k| map(&base, k, &MapOptions::default()).unwrap())
            .collect();
        let weights = vec![1.0; kernels.len()];
        (base, kernels, contexts, weights)
    }

    #[test]
    fn an_exploration_over_no_work_is_an_error() {
        let (base, kernels, contexts, weights) = setup();
        let space = DesignSpace::paper();
        let options = ExploreOptions::default();
        let checkpoint = explore_with(&base, &kernels, &contexts, &weights, &space, &options)
            .unwrap()
            .checkpoint();
        let zero = vec![0.0; kernels.len()];
        for (kernels, contexts, weights) in [
            (&[][..], &[][..], &[][..]),
            (&kernels[..], &contexts[..], &zero[..]),
        ] {
            let engine = explore_with(&base, kernels, contexts, weights, &space, &options);
            assert_eq!(engine.unwrap_err(), RspError::EmptyProfile);
            let resumed = explore_resume(
                &base,
                kernels,
                contexts,
                weights,
                &space,
                &options,
                &checkpoint,
            );
            assert_eq!(resumed.unwrap_err(), RspError::EmptyProfile);
            let reference = explore_reference(
                &base,
                kernels,
                contexts,
                weights,
                &space,
                &options.constraints,
                options.objective,
            );
            assert_eq!(reference.unwrap_err(), RspError::EmptyProfile);
        }
    }

    #[test]
    fn paper_space_enumerates_twelve_plans() {
        // 2 stages x 2 shr x 3 shc = 12 (shr=0 excluded by construction).
        assert_eq!(DesignSpace::paper().plans().count(), 12);
    }

    #[test]
    fn deep_space_is_lazy_and_larger() {
        // Lazy: taking a prefix never materializes the rest.
        let first: Vec<_> = DesignSpace::deep().plans().take(3).collect();
        assert_eq!(first.len(), 3);
        assert!(DesignSpace::deep().plans().count() > 100);
    }

    #[test]
    fn deep100_space_mixes_kinds_and_clears_ten_thousand() {
        let space = DesignSpace::deep100();
        assert_eq!(
            space.kinds_used(),
            vec![FuKind::Multiplier, FuKind::Alu, FuKind::Shifter]
        );
        // Lazy: a prefix never materializes the rest of the cross
        // product.
        let first: Vec<_> = space.plans().take(3).collect();
        assert_eq!(first.len(), 3);
        // 49 × 25 × 9 − 1 mixed-radix combinations (each axis's grid
        // plus its unshared slot, minus the all-unshared plan).
        assert_eq!(space.plans().count(), 11_024);
        // Heterogeneous plans exist, and every plan shares something.
        let multi = space
            .plans()
            .find(|p| p.groups().len() == 3)
            .expect("a three-kind mix");
        assert!(plan_name(&multi).contains('+'));
        assert!(space.plans().all(|p| !p.groups().is_empty()));
    }

    /// The nested-loop enumerator the axis walk replaced: the grid's
    /// kinds × stages × shr × shc, then each mix's mixed-radix product,
    /// skipping what fails validation. Kept as the walk's oracle.
    fn nested_plans(space: &DesignSpace) -> Vec<SharingPlan> {
        let mut plans = Vec::new();
        for &kind in &space.shared_kinds {
            for &stages in &space.stages {
                for &shr in &space.shr {
                    for &shc in &space.shc {
                        if let Ok(g) = SharedGroup::new(kind, shr, shc, stages) {
                            plans.push(SharingPlan::none().with_group(g).unwrap());
                        }
                    }
                }
            }
        }
        for mix in &space.mixes {
            let axes: Vec<Vec<Option<SharedGroup>>> = mix
                .iter()
                .map(|axis| {
                    let mut options = vec![None];
                    for &stages in &axis.stages {
                        for &shr in &axis.shr {
                            for &shc in &axis.shc {
                                if let Ok(g) = SharedGroup::new(axis.kind, shr, shc, stages) {
                                    options.push(Some(g));
                                }
                            }
                        }
                    }
                    options
                })
                .collect();
            let total: usize = axes.iter().map(Vec::len).product();
            'index: for index in 1..total {
                let mut plan = SharingPlan::none();
                let mut rest = index;
                for options in &axes {
                    if let Some(g) = options[rest % options.len()] {
                        match plan.with_group(g) {
                            Ok(p) => plan = p,
                            Err(_) => continue 'index,
                        }
                    }
                    rest /= options.len();
                }
                plans.push(plan);
            }
        }
        plans
    }

    fn axis(kind: FuKind, stages: &[u8], shr: &[usize], shc: &[usize]) -> MixAxis {
        MixAxis {
            kind,
            stages: stages.to_vec(),
            shr: shr.to_vec(),
            shc: shc.to_vec(),
        }
    }

    /// deep100's 49-candidate corner where the clock-floor cut fires.
    fn clock_cut_corner() -> DesignSpace {
        let mut space = DesignSpace::deep100();
        let [mult, alu, shifter] = &mut space.mixes[0][..] else {
            panic!("deep100 mixes three kinds");
        };
        (mult.stages, mult.shr, mult.shc) = (vec![1, 2], vec![2], vec![1, 2]);
        (alu.stages, alu.shr, alu.shc) = (vec![1, 2], vec![1, 2], vec![0]);
        (shifter.stages, shifter.shr, shifter.shc) = (vec![1], vec![1], vec![0]);
        space
    }

    /// Every space shape the walk must enumerate like the nested loops:
    /// the presets, the clock-cut corner, mixes that repeat a kind, and
    /// axes holding `shr = shc = 0`, stage counts out of range or an
    /// unsharable kind.
    fn walk_spaces() -> Vec<DesignSpace> {
        use FuKind::{Alu, Multiplier as Mult, Mux, Shifter};
        let repeats = DesignSpace {
            shared_kinds: vec![Alu],
            stages: vec![1],
            shr: vec![1],
            shc: vec![0],
            mixes: vec![
                vec![
                    axis(Mult, &[1, 2], &[1], &[0, 1]),
                    axis(Alu, &[2], &[1, 2], &[0]),
                    axis(Mult, &[3], &[2], &[0]),
                    axis(Shifter, &[1], &[1], &[1]),
                    axis(Alu, &[1], &[4], &[4]),
                ],
                vec![axis(Shifter, &[1, 2], &[1, 2], &[0])],
            ],
        };
        let invalid = DesignSpace {
            shared_kinds: vec![Mux, Mult, Shifter],
            stages: vec![0, 1, 9, 2],
            shr: vec![0, 1],
            shc: vec![0, 2],
            mixes: vec![
                vec![
                    axis(Alu, &[0, 9], &[1], &[1]),
                    axis(Mult, &[1, 8], &[0], &[0, 1]),
                    axis(Shifter, &[1], &[0], &[0]),
                    axis(Mux, &[1], &[1], &[1]),
                ],
                vec![axis(Alu, &[1], &[0], &[0])],
                vec![],
            ],
        };
        vec![
            DesignSpace::paper(),
            DesignSpace::extended(),
            DesignSpace::deep(),
            DesignSpace::deep100(),
            clock_cut_corner(),
            repeats,
            invalid,
        ]
    }

    #[test]
    fn the_axis_walk_enumerates_the_nested_loops_plans_names_and_count() {
        for space in walk_spaces() {
            let expected = nested_plans(&space);
            let axes = Axes::new(&space);
            assert_eq!(axes.count(), expected.len(), "{space:?}");
            assert_eq!(space.plans().collect::<Vec<_>>(), expected, "{space:?}");
            let tables = Tables::new(&axes, &[], &DelayModel::new());
            let n = expected.len();
            for cursor in [0, 1, n / 3, n / 2, n.saturating_sub(1), n] {
                let mut walk = axes.walk_from(cursor.min(n));
                for plan in &expected[cursor.min(n)..] {
                    let picks = walk.next(&axes).expect("the walk ends with the plans");
                    assert_eq!(&axes.plan(picks), plan, "from {cursor} in {space:?}");
                    assert_eq!(tables.name(&axes, picks), plan_name(plan));
                }
                assert!(walk.next(&axes).is_none(), "from {cursor} in {space:?}");
            }
        }
    }

    #[test]
    fn the_tables_reproduce_the_clock_floor_and_the_estimate_on_deep100() {
        let (base, kernels, contexts, _) = setup();
        let space = DesignSpace::deep100();
        let axes = Axes::new(&space);
        let profiles: Vec<ContextProfile> = contexts
            .iter()
            .zip(&kernels)
            .map(|(c, k)| ContextProfile::new(c, k, &space.kinds_used()))
            .collect();
        let delay = DelayModel::new();
        let tables = Tables::new(&axes, &profiles, &delay);
        // One slack sweep per kernel and distinct (kind, shr, shc):
        // 12 multiplier, 12 ALU and 4 shifter triples.
        assert_eq!(tables.floors.len(), 28 * kernels.len());
        let mut walk = axes.walk_from(0);
        let mut plans = 0;
        while let Some(picks) = walk.next(&axes) {
            let plan = axes.plan(picks);
            assert_eq!(
                tables.clock_floor_ns(picks).to_bits(),
                delay.clock_floor_ns(&plan).to_bits(),
                "{plan}"
            );
            // The base's cache holds every suite schedule; an 8-deep one
            // charges refill.
            for depth in [base.config_cache_depth() as u32, 8] {
                let estimates: Vec<u32> = profiles
                    .iter()
                    .map(|p| p.estimate(&plan, depth).total_cycles)
                    .collect();
                assert_eq!(tables.est_cycles(picks, depth), estimates, "{plan}");
            }
            plans += 1;
        }
        assert_eq!(plans, 11_024);
    }

    #[test]
    fn an_exploration_queries_the_model_cache_for_its_base_plan_only() {
        let (base, kernels, contexts, weights) = setup();
        let cache = Arc::new(ModelCache::new());
        let options = ExploreOptions {
            cache: Some(Arc::clone(&cache)),
            ..ExploreOptions::default()
        };
        for queries in 1..=2 {
            explore_with(
                &base,
                &kernels,
                &contexts,
                &weights,
                &DesignSpace::deep(),
                &options,
            )
            .unwrap();
            assert_eq!(
                (cache.len(), cache.misses(), cache.hits()),
                (1, 1, queries - 1)
            );
        }
    }

    #[test]
    fn exploration_selects_pipelined_design() {
        let (base, kernels, contexts, weights) = setup();
        let r = explore(
            &base,
            &kernels,
            &contexts,
            &weights,
            &DesignSpace::paper(),
            &Constraints::default(),
            Objective::AreaDelayProduct,
        )
        .unwrap();
        let best = r.best_point();
        assert!(
            best.arch.plan().has_pipelining(),
            "best = {}",
            best.arch.name()
        );
        // And it is genuinely better than base on the combined objective.
        assert!(best.est_et_ns < r.base_et_ns * 1.2);
    }

    #[test]
    fn pareto_frontier_is_non_dominated_and_sorted() {
        let (base, kernels, contexts, weights) = setup();
        let r = explore(
            &base,
            &kernels,
            &contexts,
            &weights,
            &DesignSpace::extended(),
            &Constraints::default(),
            Objective::ExecutionTime,
        )
        .unwrap();
        let pts: Vec<_> = r.pareto_points().collect();
        assert!(!pts.is_empty());
        for w in pts.windows(2) {
            assert!(w[0].area_slices < w[1].area_slices);
            assert!(w[0].est_et_ns > w[1].est_et_ns);
        }
        // No feasible point dominates a Pareto point.
        for p in &r.feasible {
            for q in r.pareto_points() {
                assert!(
                    !(p.area_slices < q.area_slices && p.est_et_ns < q.est_et_ns),
                    "{} dominates {}",
                    p.arch.name(),
                    q.arch.name()
                );
            }
        }
    }

    #[test]
    fn objectives_pick_extremes() {
        let (base, kernels, contexts, weights) = setup();
        let run = |o| {
            explore(
                &base,
                &kernels,
                &contexts,
                &weights,
                &DesignSpace::paper(),
                &Constraints::default(),
                o,
            )
            .unwrap()
        };
        let by_area = run(Objective::Area);
        let by_time = run(Objective::ExecutionTime);
        assert!(by_area.best_point().area_slices <= by_time.best_point().area_slices);
        assert!(by_time.best_point().est_et_ns <= by_area.best_point().est_et_ns);
    }

    #[test]
    fn impossible_constraints_yield_no_design() {
        let (base, kernels, contexts, weights) = setup();
        let err = explore(
            &base,
            &kernels,
            &contexts,
            &weights,
            &DesignSpace::paper(),
            &Constraints {
                enforce_cost_bound: true,
                max_slowdown: 0.01,
            },
            Objective::Area,
        )
        .unwrap_err();
        assert_eq!(err, RspError::NoFeasibleDesign);
    }

    #[test]
    fn alu_sharing_never_wins() {
        // Negative result: offering ALU sharing in the space must not
        // tempt the DSE — every kernel uses the ALU almost every cycle,
        // so sharing it starves the array (the paper shares only the
        // low-utilization, high-area multiplier).
        let (base, kernels, contexts, weights) = setup();
        let space = DesignSpace {
            shared_kinds: vec![rsp_arch::FuKind::Multiplier, rsp_arch::FuKind::Alu],
            stages: vec![1, 2],
            shr: vec![1, 2],
            shc: vec![0, 1],
            mixes: vec![],
        };
        let r = explore(
            &base,
            &kernels,
            &contexts,
            &weights,
            &space,
            &Constraints::default(),
            Objective::AreaDelayProduct,
        )
        .unwrap();
        let best = r.best_point();
        assert!(
            best.arch.plan().is_shared(rsp_arch::FuKind::Multiplier),
            "best design {} does not share the multiplier",
            best.arch.name()
        );
        assert!(!best.arch.plan().is_shared(rsp_arch::FuKind::Alu));
    }

    #[test]
    fn cost_bound_rejects_nothing_in_paper_space() {
        // All Fig. 8-style configs are cheaper than base (Table 2).
        let (base, kernels, contexts, weights) = setup();
        let r = explore(
            &base,
            &kernels,
            &contexts,
            &weights,
            &DesignSpace::paper(),
            &Constraints {
                enforce_cost_bound: true,
                max_slowdown: f64::INFINITY,
            },
            Objective::Area,
        )
        .unwrap();
        assert_eq!(r.feasible.len(), 12);
    }

    /// Asserts the engine is bit-identical to the serial reference on
    /// `space`; returns the engine run.
    fn assert_engine_matches_reference(space: &DesignSpace) -> Exploration {
        let (base, kernels, contexts, weights) = setup();
        let reference = explore_reference(
            &base,
            &kernels,
            &contexts,
            &weights,
            space,
            &Constraints::default(),
            Objective::AreaDelayProduct,
        )
        .unwrap();
        let engine = explore_with(
            &base,
            &kernels,
            &contexts,
            &weights,
            space,
            &ExploreOptions::default(),
        )
        .unwrap();
        assert_eq!(engine.feasible.len(), reference.feasible.len());
        for (e, r) in engine.feasible.iter().zip(&reference.feasible) {
            assert_eq!(e.arch.name(), r.arch.name());
            assert_eq!(e.area_slices.to_bits(), r.area_slices.to_bits());
            assert_eq!(e.clock_ns.to_bits(), r.clock_ns.to_bits());
            assert_eq!(e.est_cycles, r.est_cycles);
            assert_eq!(e.est_et_ns.to_bits(), r.est_et_ns.to_bits());
        }
        assert_eq!(engine.pareto, reference.pareto);
        assert_eq!(engine.best, reference.best);
        assert_eq!(engine.base_et_ns.to_bits(), reference.base_et_ns.to_bits());
        engine
    }

    #[test]
    fn engine_matches_reference_bitwise_on_paper_space() {
        assert_engine_matches_reference(&DesignSpace::paper());
    }

    #[test]
    fn clock_floor_cut_matches_reference_where_it_fires() {
        // A 49-candidate corner of deep100, small enough for the dense
        // oracle: a combinational shared multiplier plus one shared ALU
        // per row is where the stage-structure clock floor alone proves
        // candidates hopeless at the default 1.5× slowdown.
        let space = clock_cut_corner();
        assert_eq!(space.plans().count(), 49);

        let engine = assert_engine_matches_reference(&space);
        assert!(
            engine.stats.clock_bound_cuts > 0,
            "the stage-floor clock cut never fired"
        );
        assert!(engine.stats.clock_bound_cuts < engine.stats.candidates_pruned);
        assert!(!engine.feasible.is_empty());
    }

    #[test]
    fn lower_bound_pruning_skips_work_on_tight_slowdown() {
        let (base, kernels, contexts, weights) = setup();
        // A tight slowdown makes deep-pipeline candidates hopeless from
        // their lower bound alone.
        let r = explore_with(
            &base,
            &kernels,
            &contexts,
            &weights,
            &DesignSpace::extended(),
            &ExploreOptions {
                constraints: Constraints {
                    enforce_cost_bound: true,
                    max_slowdown: 1.05,
                },
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert!(r.stats.candidates_pruned > 0, "expected lower-bound prunes");
    }

    fn nan_point(name: &str, area: f64, et: f64) -> DesignPoint {
        let arch = RspArchitecture::new(
            name,
            presets::base_8x8().base().clone(),
            SharingPlan::none(),
        )
        .unwrap();
        DesignPoint {
            arch,
            area_slices: area,
            clock_ns: 1.0,
            est_cycles: vec![],
            est_et_ns: et,
            cost_bound_ok: true,
        }
    }

    #[test]
    fn pareto_and_select_survive_nan_candidates() {
        // Regression: partial_cmp().unwrap() panicked on NaN area/ET. A
        // degenerate candidate must sort last, never panic, and never
        // enter the frontier ahead of finite points.
        let points = vec![
            nan_point("nan-area", f64::NAN, 100.0),
            nan_point("ok-small", 10.0, 200.0),
            nan_point("nan-et", 20.0, f64::NAN),
            nan_point("ok-fast", 30.0, 50.0),
        ];
        let pareto = pareto_indices(&points);
        assert!(pareto.contains(&1), "finite small point on frontier");
        assert!(pareto.contains(&3), "finite fast point on frontier");
        assert!(
            !pareto.contains(&2),
            "NaN-et point must not enter the frontier"
        );
        let best = select(&points, &pareto, Objective::ExecutionTime).unwrap();
        assert_eq!(points[best].arch.name(), "ok-fast");
        let best = select(&points, &pareto, Objective::Area).unwrap();
        assert_eq!(points[best].arch.name(), "ok-small");
    }
}
