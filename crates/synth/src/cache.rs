//! Memoized synthesis reports.
//!
//! Area and clock reports depend only on the architecture's geometry
//! and [`SharingPlan`], not on the kernels being explored, so one
//! [`ModelCache`] shared across flows (and across concurrent server
//! requests) synthesizes each distinct plan it is asked about once.
//! It is asked about few plans: each exploration's base plan and the
//! frontier plans a flow's exact stage rearranges. An exploration's
//! candidates are synthesized directly through [`ModelCache::area_model`]
//! and [`ModelCache::delay_model`], because a memo hit there (a cloned
//! plan key, a hash and a lock) costs more than the closed-form models
//! it would save.

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
    /// Memo hits of [`ModelCache::reports`] — the observable proof that
    /// sharing one cache across flows (or server requests) actually
    /// avoids re-synthesis.
    hits: AtomicU64,
    /// Queries answered by synthesizing (cache misses).
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
        let reports = (self.area.report(arch), self.delay.report(arch));
        self.memo.lock().unwrap().insert(key, reports);
        reports
    }

    /// Number of distinct plans with reports so far.
    pub fn len(&self) -> usize {
        self.memo.lock().unwrap().len()
    }

    /// Whether no report has been computed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memo hits so far. A cache shared across repeated requests shows
    /// hits growing while [`ModelCache::len`] stays at the number of
    /// distinct plans — the cross-request reuse proof the serve tests
    /// assert.
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
    fn hit_and_miss_counters_track_reuse() {
        let cache = ModelCache::new();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        cache.reports(&presets::rsp2());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.reports(&presets::rsp2());
        cache.reports(&presets::rs1());
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn geometry_participates_in_key() {
        let cache = ModelCache::new();
        cache.reports(&presets::base_8x8());
        cache.reports(&presets::fig1_4x4());
        assert_eq!(cache.len(), 2);
    }
}
