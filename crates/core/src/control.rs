//! Run budgets, cooperative cancellation, and anytime-result tagging.
//!
//! # Anytime exploration
//!
//! Every sweep in this crate — [`explore_with`](crate::explore_with),
//! [`explore_reference`](crate::explore_reference_with), and both phases
//! of [`run_flow`](crate::run_flow) — accepts an [`ExploreControl`] and
//! checks it *cooperatively at candidate boundaries*: before pulling the
//! next candidate from the enumeration stream, never mid-evaluation. When
//! a deadline passes, a candidate budget is exhausted, or an external
//! [`cancel`](ExploreControl::cancel) flag is raised, the sweep stops at
//! the next boundary and returns an **anytime result**: everything
//! evaluated so far, tagged [`Completeness::Truncated`] with the number
//! of candidates left and the [`TruncationReason`].
//!
//! # Truncation soundness
//!
//! A truncated run is always a *prefix* of the complete run in
//! enumeration order. Because the engine settles each candidate from
//! that candidate alone, stopping after `k` candidates evaluates exactly
//! the candidates the complete run evaluates among its first `k` — so a
//! truncated `feasible` set is a prefix of the complete run's, the
//! truncated frontier is the exact staircase of that prefix, a budget
//! that is *not* hit yields a result bit-identical to `Complete`, and
//! the truncated result is bit-identical to the serial reference
//! truncated at the same `k`; these properties are tested in
//! `tests/anytime.rs`.
//!
//! # Checkpoint/resume
//!
//! A truncated [`Exploration`](crate::Exploration) can be serialized with
//! [`checkpoint()`](crate::Exploration::checkpoint) (frontier + the
//! enumeration cursor + an options fingerprint) and continued with
//! [`explore_resume`](crate::explore_resume), which replays the recorded
//! prefix state and processes only the remaining candidates. Resuming a
//! truncated run to the end reaches the bit-identical complete result.
//!
//! # Deciding to stop
//!
//! When several stop conditions hold at once, the reported reason is
//! deterministic: an exhausted [`candidate_budget`] wins over
//! [`cancel`], which wins over [`deadline`] — the budget check depends
//! only on the candidate index (reproducible), while the other two are
//! wall-clock or externally timed.
//!
//! [`candidate_budget`]: ExploreControl::candidate_budget
//! [`cancel`]: ExploreControl::cancel
//! [`deadline`]: ExploreControl::deadline

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative run budget for a sweep: any combination of a wall-clock
/// deadline, a candidate-count budget, and an external cancellation
/// flag. The default is unlimited (sweeps run to completion).
///
/// Cloning shares the `cancel` flag, so a clone handed to a worker can
/// be cancelled from the original (and vice versa).
///
/// # Examples
///
/// ```
/// use rsp_core::ExploreControl;
/// use std::time::Duration;
///
/// let control = ExploreControl::with_deadline(Duration::from_millis(50));
/// let handle = control.cancel_handle();
/// // ... hand `control` to explore_with, flip `handle` from elsewhere ...
/// handle.store(true, std::sync::atomic::Ordering::Relaxed);
/// assert!(control.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExploreControl {
    /// Wall-clock budget, measured from the moment the sweep is entered.
    /// The sweep stops at the first candidate boundary at or after the
    /// deadline.
    pub deadline: Option<Duration>,
    /// Maximum number of candidates this call may pull from the
    /// enumeration stream (a resumed call gets a fresh budget). Unlike
    /// the deadline this is machine-independent, so truncation points
    /// are reproducible.
    pub candidate_budget: Option<usize>,
    /// External cancellation flag, checked at every candidate boundary.
    /// Store `true` (any ordering) from another thread to stop the
    /// sweep.
    pub cancel: Arc<AtomicBool>,
}

impl ExploreControl {
    /// A control that only imposes a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// A control that only imposes a candidate-count budget.
    pub fn with_budget(candidates: usize) -> Self {
        Self {
            candidate_budget: Some(candidates),
            ..Self::default()
        }
    }

    /// The shared cancellation flag, for handing to another thread.
    pub fn cancel_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// Raises the cancellation flag.
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether the cancellation flag is raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

/// Why a sweep stopped before exhausting its candidate stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TruncationReason {
    /// [`ExploreControl::candidate_budget`] candidates were processed.
    CandidateBudget,
    /// [`ExploreControl::cancel`] was raised.
    Cancelled,
    /// [`ExploreControl::deadline`] passed.
    Deadline,
}

/// Whether a sweep processed its whole candidate stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Completeness {
    /// Every candidate was processed; the result is identical to an
    /// unbudgeted run.
    Complete,
    /// The sweep stopped early; the result covers a prefix of the
    /// candidate stream.
    Truncated {
        /// Candidates left unprocessed when the sweep stopped.
        candidates_remaining: usize,
        /// Which budget stopped the sweep.
        reason: TruncationReason,
    },
}

impl Completeness {
    /// Whether the whole stream was processed.
    pub fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }
}

/// A started clock over an [`ExploreControl`]: answers "should the sweep
/// stop before candidate `consumed`?" and "how much deadline is left?".
pub(crate) struct ControlClock {
    started: Instant,
    deadline: Option<Duration>,
    candidate_budget: Option<usize>,
    cancel: Arc<AtomicBool>,
}

impl ControlClock {
    pub(crate) fn new(control: &ExploreControl) -> Self {
        Self {
            started: Instant::now(),
            deadline: control.deadline,
            candidate_budget: control.candidate_budget,
            cancel: Arc::clone(&control.cancel),
        }
    }

    /// Reason to stop before processing one more candidate, given that
    /// `consumed` candidates have already been pulled in this call.
    /// `None` means keep going.
    pub(crate) fn stop_reason(&self, consumed: usize) -> Option<TruncationReason> {
        self.stop_reason_budgeted(consumed, self.candidate_budget)
    }

    /// [`stop_reason`](Self::stop_reason) with the candidate budget
    /// overridden — for a later phase spending the remainder of a shared
    /// budget against the same deadline clock.
    pub(crate) fn stop_reason_budgeted(
        &self,
        consumed: usize,
        budget: Option<usize>,
    ) -> Option<TruncationReason> {
        if let Some(budget) = budget {
            if consumed >= budget {
                return Some(TruncationReason::CandidateBudget);
            }
        }
        if self.cancel.load(Ordering::Relaxed) {
            return Some(TruncationReason::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if self.started.elapsed() >= deadline {
                return Some(TruncationReason::Deadline);
            }
        }
        None
    }

    /// The unspent part of the deadline (`None` when no deadline is
    /// set), for deriving a sub-sweep's control.
    pub(crate) fn remaining_deadline(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_sub(self.started.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_control_never_stops() {
        let clock = ControlClock::new(&ExploreControl::default());
        assert_eq!(clock.stop_reason(0), None);
        assert_eq!(clock.stop_reason(1_000_000), None);
    }

    #[test]
    fn budget_wins_over_cancel_wins_over_deadline() {
        let control = ExploreControl {
            deadline: Some(Duration::ZERO),
            candidate_budget: Some(3),
            cancel: Arc::new(AtomicBool::new(true)),
        };
        let clock = ControlClock::new(&control);
        // Budget not yet hit: cancel outranks the (elapsed) deadline.
        assert_eq!(clock.stop_reason(0), Some(TruncationReason::Cancelled));
        // Budget hit: it outranks both.
        assert_eq!(
            clock.stop_reason(3),
            Some(TruncationReason::CandidateBudget)
        );
    }

    #[test]
    fn zero_deadline_stops_immediately() {
        let clock = ControlClock::new(&ExploreControl::with_deadline(Duration::ZERO));
        assert_eq!(clock.stop_reason(0), Some(TruncationReason::Deadline));
    }

    #[test]
    fn clone_shares_the_cancel_flag() {
        let a = ExploreControl::default();
        let b = a.clone();
        b.request_cancel();
        assert!(a.is_cancelled());
    }
}
