//! Streaming Pareto frontier over `(area, execution-time)` points.
//!
//! [`ParetoFrontier`] ingests candidate points one at a time and can emit
//! the frontier at any moment — yet its final output is **bit-identical**
//! to the batch sweep ([`pareto_indices_of`]) the serial reference
//! exploration performs over the full feasible set, including the sweep's
//! `1e-12` epsilon and its NaN handling. This is what lets
//! [`crate::explore_with`] stream large candidate sets without buffering
//! every feasible point twice or re-sweeping them at the end.
//!
//! # Why the staircase store is exact
//!
//! The structure keeps a *strict staircase*: entries sorted by
//! `(area, et)` under `f64::total_cmp`, with strictly decreasing `et`. A
//! new point is dropped iff some stored predecessor `q` (in that total
//! order) has `et_q ≤ et_p`; stored successors with `et ≥ et_p` are
//! removed symmetrically. Dropping is permanently safe: in any future
//! batch sweep over any superset of the inserted points, the running
//! accepted-minimum before `p` is at most `et_q` (if `q` is accepted) or
//! at most `et_q + ε` (if `q` itself is ε-rejected — a rejection never
//! raises the minimum above its own `et + ε`), so `p` can never satisfy
//! the strict `et_p < best − ε` acceptance test. Removed entries keep a
//! surviving witness by induction. Points the sweep merely ε-rejects but
//! that no predecessor strictly dominates stay in the store, which is
//! exactly what preserves the batch sweep's corner cases (two points
//! within `1e-12` of each other, ties, NaN areas). `NaN` execution times
//! can never be accepted by the sweep (`NaN < x` is false) and cannot
//! influence the running minimum, so they are dropped on arrival.

/// The sweep epsilon: a point joins the emitted frontier only if its
/// execution time beats the running best by more than this.
pub(crate) const PARETO_EPSILON: f64 = 1e-12;

#[derive(Debug, Clone, Copy)]
struct Entry {
    area: f64,
    et: f64,
    index: usize,
}

/// An incrementally maintained `(area, et)` Pareto frontier whose final
/// emission is bit-identical to the batch epsilon sweep over every point
/// ever inserted.
///
/// # Examples
///
/// ```
/// use rsp_core::ParetoFrontier;
///
/// let mut f = ParetoFrontier::new();
/// assert!(f.insert(10.0, 200.0, 0)); // small & slow: frontier
/// assert!(f.insert(30.0, 50.0, 1)); // big & fast: frontier
/// assert!(!f.insert(40.0, 60.0, 2)); // dominated by #1
/// assert_eq!(f.indices(), vec![0, 1]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParetoFrontier {
    entries: Vec<Entry>,
    inserted: usize,
}

impl ParetoFrontier {
    /// An empty frontier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers a point to the frontier; `index` is the caller's handle
    /// (e.g. the position in its feasible vector) returned by
    /// [`ParetoFrontier::indices`]. Returns whether the point is on the
    /// current staircase — `false` means it is *permanently* dominated
    /// and can never appear in any future emission.
    pub fn insert(&mut self, area: f64, et: f64, index: usize) -> bool {
        self.inserted += 1;
        if et.is_nan() {
            // Never accepted by the sweep and never updates its running
            // minimum: storing it could not change any emission.
            return false;
        }
        let pos = self
            .entries
            .partition_point(|e| e.area.total_cmp(&area).then(e.et.total_cmp(&et)).is_le());
        // Staircase ets are strictly decreasing, so the tightest
        // predecessor is the last one.
        if pos > 0 && self.entries[pos - 1].et <= et {
            return false;
        }
        // Successors with et >= ours are now permanently dominated; they
        // form a contiguous run (ets decrease).
        let run = self.entries[pos..].partition_point(|e| e.et >= et);
        self.entries
            .splice(pos..pos + run, [Entry { area, et, index }]);
        true
    }

    /// Emits the frontier: the inserted `index` handles in ascending area
    /// order, bit-identical to the batch epsilon sweep
    /// (`pareto_indices_of`, the sweep behind [`crate::explore_reference`])
    /// over every point ever inserted. Callable at any time; each call
    /// sweeps only the staircase (O(frontier size)).
    pub fn indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.entries.len());
        let mut best = f64::INFINITY;
        for e in &self.entries {
            if e.et < best - PARETO_EPSILON {
                out.push(e.index);
                best = e.et;
            }
        }
        out
    }

    /// Current staircase as `(area, et, index)` triples, area ascending.
    /// A superset of what [`ParetoFrontier::indices`] emits (ε-rejected
    /// points stay on the staircase so future emissions remain exact).
    pub fn staircase(&self) -> impl Iterator<Item = (f64, f64, usize)> + '_ {
        self.entries.iter().map(|e| (e.area, e.et, e.index))
    }

    /// Points offered via [`ParetoFrontier::insert`] so far.
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Entries currently on the staircase.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the staircase is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The batch sweep the serial reference uses: indices of non-dominated
/// `(area, et)` points, area ascending. NaN-safe — comparisons use
/// `f64::total_cmp`, so a degenerate point (NaN area or time) sorts last
/// instead of panicking and can never displace a finite frontier point.
pub(crate) fn pareto_indices_of(points: &[(f64, f64)]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..points.len()).collect();
    idx.sort_by(|&a, &b| {
        points[a]
            .0
            .total_cmp(&points[b].0)
            .then(points[a].1.total_cmp(&points[b].1))
    });
    let mut out = Vec::new();
    let mut best_et = f64::INFINITY;
    for i in idx {
        if points[i].1 < best_et - PARETO_EPSILON {
            out.push(i);
            best_et = points[i].1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn streamed(points: &[(f64, f64)]) -> Vec<usize> {
        let mut f = ParetoFrontier::new();
        for (i, &(area, et)) in points.iter().enumerate() {
            f.insert(area, et, i);
        }
        f.indices()
    }

    #[test]
    fn empty_frontier_emits_nothing() {
        assert_eq!(ParetoFrontier::new().indices(), Vec::<usize>::new());
        assert!(ParetoFrontier::new().is_empty());
    }

    #[test]
    fn single_point_is_the_frontier() {
        let pts = [(5.0, 7.0)];
        assert_eq!(streamed(&pts), pareto_indices_of(&pts));
        assert_eq!(streamed(&pts), vec![0]);
    }

    #[test]
    fn duplicate_points_keep_first_index() {
        let pts = [(5.0, 7.0), (5.0, 7.0), (5.0, 7.0)];
        assert_eq!(streamed(&pts), pareto_indices_of(&pts));
        assert_eq!(streamed(&pts), vec![0]);
    }

    #[test]
    fn nan_points_match_batch_sweep() {
        let pts = [
            (f64::NAN, 100.0),
            (10.0, 200.0),
            (20.0, f64::NAN),
            (30.0, 50.0),
        ];
        assert_eq!(streamed(&pts), pareto_indices_of(&pts));
    }

    #[test]
    fn lone_nan_area_point_is_emitted() {
        // A NaN-area point sorts last but can still be accepted when its
        // et is the running best — the batch sweep does, so must we.
        let pts = [(f64::NAN, 100.0)];
        assert_eq!(streamed(&pts), pareto_indices_of(&pts));
        assert_eq!(streamed(&pts), vec![0]);
    }

    #[test]
    fn epsilon_close_points_match_batch_sweep() {
        // ets within 1e-12 of each other exercise the ε-rejected-but-
        // stored corner: these points stay on the staircase yet are not
        // emitted, exactly like the batch sweep.
        let e = PARETO_EPSILON;
        let pts = [
            (1.0, 10.0),
            (2.0, 10.0 - e / 2.0),
            (3.0, 10.0 - 2.0 * e),
            (4.0, 10.0 - 2.0 * e - e / 4.0),
        ];
        assert_eq!(streamed(&pts), pareto_indices_of(&pts));
    }

    #[test]
    fn insert_reports_staircase_membership() {
        let mut f = ParetoFrontier::new();
        assert!(f.insert(10.0, 100.0, 0));
        assert!(f.insert(5.0, 200.0, 1));
        assert!(!f.insert(11.0, 100.0, 2), "same et at larger area");
        assert!(!f.insert(10.0, 150.0, 3), "worse et at same area");
        assert!(f.insert(1.0, 50.0, 4), "dominates everything");
        // #4 displaced both prior staircase entries.
        assert_eq!(f.len(), 1);
        assert_eq!(f.inserted(), 5);
        assert_eq!(f.indices(), vec![4]);
    }

    /// f64 strategy mixing magnitudes where the 1e-12 epsilon is below
    /// one ULP (realistic ns-scale values) and magnitudes where it
    /// bites, plus exact ties and NaN.
    fn arb_coord() -> impl Strategy<Value = f64> {
        (0u32..6, 0u64..8).prop_map(|(kind, k)| match kind {
            0 => k as f64,                 // small ints: exact ties
            1 => 1e6 + (k as f64) * 0.5,   // ns-scale
            2 => 1.0 + (k as f64) * 1e-12, // epsilon-spaced
            3 => 1.0 + (k as f64) * 5e-13, // sub-epsilon-spaced
            4 => (k as f64) * 1e-14,       // near zero
            _ => {
                if k == 0 {
                    f64::NAN
                } else {
                    (k as f64) * 1e3
                }
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Streaming emission is bit-identical to the batch sweep for
        /// arbitrary point sets, in arbitrary insertion order, including
        /// ties, ε-spaced values, and NaNs.
        #[test]
        fn streaming_matches_batch_sweep(
            pts in prop::collection::vec((arb_coord(), arb_coord()), 0..40)
        ) {
            prop_assert_eq!(streamed(&pts), pareto_indices_of(&pts));
        }

        /// Emission is insensitive to *when* it happens: emitting midway
        /// never corrupts the final frontier, and every prefix emission
        /// equals the batch sweep of that prefix.
        #[test]
        fn prefix_emissions_match_prefix_sweeps(
            pts in prop::collection::vec((arb_coord(), arb_coord()), 0..24),
            cut in 0usize..25,
        ) {
            let cut = cut.min(pts.len());
            let mut f = ParetoFrontier::new();
            for (i, &(a, t)) in pts[..cut].iter().enumerate() {
                f.insert(a, t, i);
            }
            prop_assert_eq!(f.indices(), pareto_indices_of(&pts[..cut]));
            for (i, &(a, t)) in pts[cut..].iter().enumerate() {
                f.insert(a, t, cut + i);
            }
            prop_assert_eq!(f.indices(), pareto_indices_of(&pts));
        }

        /// A point reported permanently dominated on insert never shows
        /// up in the final emission.
        #[test]
        fn rejected_inserts_never_emit(
            pts in prop::collection::vec((arb_coord(), arb_coord()), 0..32)
        ) {
            let mut f = ParetoFrontier::new();
            let mut rejected = Vec::new();
            for (i, &(a, t)) in pts.iter().enumerate() {
                if !f.insert(a, t, i) {
                    rejected.push(i);
                }
            }
            let emitted = f.indices();
            for r in rejected {
                prop_assert!(!emitted.contains(&r));
            }
        }
    }
}
