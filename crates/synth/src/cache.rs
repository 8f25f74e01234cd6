//! Memoized synthesis reports for design-space exploration.
//!
//! Area and clock reports depend only on the candidate's geometry and
//! [`SharingPlan`] — for the paper's single-group spaces that is the
//! `(kind, shr, shc, stages)` tuple — not on the kernels being explored.
//! Exploration engines therefore share one [`ModelCache`] across all
//! candidates (and across repeated explorations of the same base), so
//! each distinct plan is synthesized exactly once, even when concurrent
//! requests share the cache.

use crate::area::{AreaModel, AreaReport};
use crate::delay::{DelayModel, DelayReport};
use rsp_arch::{ArrayGeometry, RspArchitecture, SharingPlan};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Thread-safe memo of [`AreaModel`]/[`DelayModel`] reports keyed by
/// `(geometry, plan)`.
///
/// The cache assumes every queried architecture uses the same base PE
/// design and component library (true within one exploration); geometry
/// participates in the key so multi-geometry flows stay correct.
#[derive(Debug, Default)]
pub struct ModelCache {
    area: AreaModel,
    delay: DelayModel,
    #[allow(clippy::type_complexity)]
    memo: Mutex<HashMap<(ArrayGeometry, SharingPlan), (AreaReport, DelayReport)>>,
    /// Area-only memo for the fast path ([`ModelCache::area_report`]):
    /// the exploration engine reads a candidate's area before deciding
    /// whether its delay is worth synthesizing, so a candidate cut on the
    /// cost bound or the clock floor never pays for delay synthesis.
    area_memo: Mutex<HashMap<(ArrayGeometry, SharingPlan), AreaReport>>,
    /// Memo hits across [`ModelCache::reports`] and
    /// [`ModelCache::area_report`] — the observable proof that sharing
    /// one cache across explorations (or server requests) actually
    /// avoids re-synthesis.
    hits: AtomicU64,
    /// Queries those two paths answered by synthesizing (cache misses).
    misses: AtomicU64,
}

impl ModelCache {
    /// Cache over the paper's Table 1 models.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cache over custom models.
    pub fn with_models(area: AreaModel, delay: DelayModel) -> Self {
        Self {
            area,
            delay,
            memo: Mutex::new(HashMap::new()),
            area_memo: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The underlying area model.
    pub fn area_model(&self) -> &AreaModel {
        &self.area
    }

    /// The underlying delay model.
    pub fn delay_model(&self) -> &DelayModel {
        &self.delay
    }

    /// Both reports for `arch`, computed once per `(geometry, plan)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_arch::presets;
    /// use rsp_synth::ModelCache;
    ///
    /// let cache = ModelCache::new();
    /// let (area, delay) = cache.reports(&presets::rsp2());
    /// assert!(area.satisfies_cost_bound());
    /// assert!(delay.clock_ns < 26.0);
    /// // Identical plan: served from the memo.
    /// assert_eq!(cache.reports(&presets::rsp2()).0, area);
    /// ```
    pub fn reports(&self, arch: &RspArchitecture) -> (AreaReport, DelayReport) {
        let key = (arch.geometry(), arch.plan().clone());
        if let Some(hit) = self.memo.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Computed outside the lock: synthesis is the expensive part and
        // duplicate computation on a race is harmless (reports are pure).
        // An area already synthesized through the fast path is promoted
        // (removed, not copied) into the full memo — the full entry
        // shadows the area memo on every read path, so keeping both
        // would just duplicate the key for the cache's lifetime. The
        // insert+remove happens under the full-memo lock (nesting order
        // memo → area_memo, same as `area_report`'s publish) so a racing
        // fast-path publish cannot resurrect the area entry afterwards.
        let area_hit = self.area_memo.lock().unwrap().get(&key).copied();
        let area = area_hit.unwrap_or_else(|| self.area.report(arch));
        let reports = (area, self.delay.report(arch));
        {
            let mut memo = self.memo.lock().unwrap();
            let mut area_memo = self.area_memo.lock().unwrap();
            area_memo.remove(&key);
            memo.insert(key, reports);
        }
        reports
    }

    /// Area report only — the fast path for passes that need a
    /// candidate's area before (or without) its delay, such as the
    /// exploration engine's eq. (2) cost check. Memoized
    /// separately from [`ModelCache::reports`]; a later full query reuses
    /// the area instead of re-synthesizing it.
    pub fn area_report(&self, arch: &RspArchitecture) -> AreaReport {
        let key = (arch.geometry(), arch.plan().clone());
        if let Some(hit) = self.memo.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.0;
        }
        if let Some(hit) = self.area_memo.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let report = self.area.report(arch);
        // Publish under the same memo → area_memo nesting as `reports`'s
        // promotion: if the full report landed while we synthesized, the
        // area entry would only duplicate it, so skip the insert.
        let memo = self.memo.lock().unwrap();
        if !memo.contains_key(&key) {
            self.area_memo.lock().unwrap().insert(key, report);
        }
        report
    }

    /// Admissible lower bound on `arch`'s clock period — the clock-bound
    /// fast path: the structural [`DelayModel::clock_floor_ns`] floor,
    /// computed from the sharing plan alone, without delay synthesis.
    /// Exploration engines call this before [`ModelCache::reports`] so
    /// candidates whose clock floor already proves them infeasible never
    /// pay for synthesis. It reads no memo, so the answer (and which
    /// cut an exploration counts) depends on `arch` alone, never on
    /// what earlier queries left in the cache.
    pub fn clock_floor(&self, arch: &RspArchitecture) -> f64 {
        self.delay.clock_floor_ns(arch.plan())
    }

    /// Number of distinct plans with *full* (area + delay) reports so
    /// far. Plans touched only through the [`ModelCache::area_report`]
    /// fast path are not counted until a full query promotes them.
    pub fn len(&self) -> usize {
        self.memo.lock().unwrap().len()
    }

    /// Whether no full report has been computed yet (see
    /// [`ModelCache::len`] — area-only entries are not counted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memo hits so far across [`ModelCache::reports`] and
    /// [`ModelCache::area_report`]. A cache shared across repeated
    /// explorations (or concurrent server requests) shows hits growing
    /// while [`ModelCache::len`] stays at the number of distinct plans —
    /// the cross-request reuse proof the serve tests assert.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Queries answered by synthesizing (approximately one per distinct
    /// plan; a benign race may synthesize a plan twice).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_arch::presets;

    #[test]
    fn memoizes_by_plan() {
        let cache = ModelCache::new();
        for _ in 0..3 {
            cache.reports(&presets::rsp2());
            cache.reports(&presets::rs1());
        }
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reports_match_direct_models() {
        let cache = ModelCache::new();
        for arch in presets::table_architectures() {
            let (a, d) = cache.reports(&arch);
            assert_eq!(a, AreaModel::new().report(&arch));
            assert_eq!(d, DelayModel::new().report(&arch));
        }
    }

    #[test]
    fn area_fast_path_matches_full_reports() {
        let cache = ModelCache::new();
        for arch in presets::table_architectures() {
            // Fast path first, full query second: the area must agree and
            // be served from the area memo, never re-synthesized.
            let fast = cache.area_report(&arch);
            assert_eq!(fast, AreaModel::new().report(&arch));
            let (full, _) = cache.reports(&arch);
            assert_eq!(fast, full);
            // Once the full report exists, the fast path reads it.
            assert_eq!(cache.area_report(&arch), full);
        }
    }

    #[test]
    fn clock_floor_is_admissible_and_ignores_the_memo() {
        let cache = ModelCache::new();
        for arch in presets::table_architectures() {
            let floor = cache.clock_floor(&arch);
            let (_, delay) = cache.reports(&arch);
            assert!(
                floor <= delay.clock_ns,
                "{}: floor {} > clock {}",
                arch.name(),
                floor,
                delay.clock_ns
            );
            // A warm cache gives the same floor as a cold one.
            assert_eq!(cache.clock_floor(&arch).to_bits(), floor.to_bits());
        }
    }

    #[test]
    fn hit_and_miss_counters_track_reuse() {
        let cache = ModelCache::new();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        cache.reports(&presets::rsp2());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.reports(&presets::rsp2());
        cache.area_report(&presets::rsp2());
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        // The area fast path is one miss, and the full query it feeds is
        // counted as a miss too (delay still had to be synthesized).
        cache.area_report(&presets::rs1());
        cache.reports(&presets::rs1());
        assert_eq!((cache.hits(), cache.misses()), (2, 3));
    }

    #[test]
    fn geometry_participates_in_key() {
        let cache = ModelCache::new();
        cache.reports(&presets::base_8x8());
        cache.reports(&presets::fig1_4x4());
        assert_eq!(cache.len(), 2);
    }
}
