//! Resource budgets for the MOSP dynamic programs.
//!
//! The exact Pareto enumeration is worst-case exponential, and even
//! Warburton's ε-approximation can blow up for high weight dimensions. A
//! [`Budget`] bounds a solve two ways — wall-clock deadline and total
//! label work — so a pathological instance degrades into a fast greedy
//! completion instead of hanging the pipeline. When a
//! budget trips, the solver keeps going in single-label (greedy min–max)
//! mode so the result is still a valid source→destination path set, and
//! the returned [`crate::ParetoSet`] carries a structured
//! [`Exhaustion`] reason.
//!
//! The work counter lives behind an [`AtomicU64`] shared by every clone
//! of the budget, so concurrent zone solves on a worker pool all draw
//! from one global cap instead of each getting a private allowance.

use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which resource ran out first during a budgeted solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Exhaustion {
    /// The wall-clock deadline passed mid-solve.
    DeadlineExpired,
    /// The total label-insertion work cap was reached.
    WorkCapReached,
}

impl std::fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DeadlineExpired => write!(f, "wall-clock deadline expired"),
            Self::WorkCapReached => write!(f, "label work cap reached"),
        }
    }
}

/// Resource limits for one solve: a wall-clock deadline and a total work
/// cap (label insertion attempts). The per-vertex label cap is a solver
/// argument, not a resource limit.
///
/// All limits are optional; [`Budget::unlimited`] (also the `Default`)
/// disables them. The deadline is an absolute [`Instant`], so one `Budget`
/// can be threaded through many solver calls and they all share the same
/// end time — that is exactly how the core pipeline propagates its
/// `--time-budget-ms` across zones and intervals. The work counter is a
/// shared atomic: clones of a budget draw from the *same* allowance, so
/// zone solves running concurrently on a worker pool are capped globally,
/// exactly like the sequential pipeline was.
#[derive(Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    work_cap: Option<u64>,
    work_done: Arc<AtomicU64>,
    /// One-shot fault-injection latch ([`Budget::inject_exhaustion`]).
    injected: Arc<AtomicBool>,
}

impl Clone for Budget {
    /// Clones share the work counter (and therefore the global cap).
    fn clone(&self) -> Self {
        Self {
            deadline: self.deadline,
            work_cap: self.work_cap,
            work_done: Arc::clone(&self.work_done),
            injected: Arc::clone(&self.injected),
        }
    }
}

/// Budgets compare by their limits; the live work counter is transient
/// state and deliberately excluded.
impl PartialEq for Budget {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.work_cap == other.work_cap
    }
}

impl Eq for Budget {}

impl Budget {
    /// No limits: the solver runs to completion.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget expiring `limit` from now.
    #[must_use]
    pub fn with_time_limit(limit: Duration) -> Self {
        Self::unlimited().and_deadline(Instant::now() + limit)
    }

    /// Sets an absolute deadline (keeps other limits).
    #[must_use]
    pub fn and_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps total label-insertion work (keeps other limits). Work is a
    /// deterministic machine-independent measure, handy for tests.
    #[must_use]
    pub fn and_work_cap(mut self, cap: u64) -> Self {
        self.work_cap = Some(cap);
        self
    }

    /// The absolute deadline, if any.
    #[must_use]
    pub const fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Total work charged so far across every solve (and thread) sharing
    /// this budget.
    #[must_use]
    pub fn work_done(&self) -> u64 {
        self.work_done.load(Ordering::Relaxed)
    }

    /// Time remaining until the deadline (`None` when no deadline is set;
    /// `Some(ZERO)` once expired).
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// `true` when the wall-clock deadline has passed.
    #[must_use]
    pub fn deadline_expired(&self) -> bool {
        matches!(self.deadline, Some(d) if Instant::now() >= d)
    }

    /// Arms a one-shot injected [`Exhaustion::WorkCapReached`]: the next
    /// [`Self::charge`] or [`Self::exhausted`] call on any clone reports
    /// exhaustion, then the latch clears. Deliberately a no-op on
    /// unlimited budgets — they are contractually immune to exhaustion
    /// (see `unlimited_never_exhausts`), so fault plans cannot perturb
    /// unbudgeted differential runs. This exists for deterministic fault
    /// injection; production code never arms it.
    pub fn inject_exhaustion(&self) {
        self.injected.store(true, Ordering::Relaxed);
    }

    /// Consumes the injection latch (only meaningful on limited budgets).
    #[inline]
    fn take_injected(&self) -> bool {
        self.injected.load(Ordering::Relaxed) && self.injected.swap(false, Ordering::Relaxed)
    }

    /// Charges `units` of label work against the shared counter and
    /// reports whether a cap tripped. The deadline is only polled when
    /// the counter crosses a 256-unit boundary, keeping clock reads off
    /// the hot path; unlimited budgets skip the atomic entirely.
    #[must_use]
    pub fn charge(&self, units: u64) -> Option<Exhaustion> {
        if self.work_cap.is_none() && self.deadline.is_none() {
            return None;
        }
        if self.take_injected() {
            return Some(Exhaustion::WorkCapReached);
        }
        let total = self.work_done.fetch_add(units, Ordering::Relaxed) + units;
        if let Some(cap) = self.work_cap {
            if total >= cap {
                return Some(Exhaustion::WorkCapReached);
            }
        }
        if total & 0xFF < units && self.deadline_expired() {
            return Some(Exhaustion::DeadlineExpired);
        }
        None
    }

    /// Checks the caps against the work already charged, without charging
    /// anything (used between vertices / solves). Unlike [`Self::charge`]
    /// this always polls the deadline.
    #[must_use]
    pub fn exhausted(&self) -> Option<Exhaustion> {
        if (self.work_cap.is_some() || self.deadline.is_some()) && self.take_injected() {
            return Some(Exhaustion::WorkCapReached);
        }
        if let Some(cap) = self.work_cap {
            if self.work_done() >= cap {
                return Some(Exhaustion::WorkCapReached);
            }
        }
        if self.deadline_expired() {
            return Some(Exhaustion::DeadlineExpired);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        for units in [0, 1, 1 << 40] {
            assert_eq!(b.charge(units), None);
        }
        assert_eq!(b.work_done(), 0, "unlimited budgets skip the counter");
        assert_eq!(b.remaining(), None);
        assert!(!b.deadline_expired());
        assert_eq!(b.exhausted(), None);
    }

    #[test]
    fn work_cap_trips_exactly() {
        let b = Budget::unlimited().and_work_cap(100);
        for _ in 0..99 {
            assert_eq!(b.charge(1), None);
        }
        assert_eq!(b.charge(1), Some(Exhaustion::WorkCapReached));
        assert_eq!(b.exhausted(), Some(Exhaustion::WorkCapReached));
        assert_eq!(b.work_done(), 100);
    }

    #[test]
    fn clones_share_the_counter() {
        let a = Budget::unlimited().and_work_cap(10);
        let b = a.clone();
        for _ in 0..5 {
            assert_eq!(a.charge(1), None);
        }
        for _ in 0..4 {
            assert_eq!(b.charge(1), None);
        }
        // The tenth unit trips regardless of which clone charges it.
        assert_eq!(a.charge(1), Some(Exhaustion::WorkCapReached));
        assert_eq!(b.work_done(), 10);
    }

    #[test]
    fn elapsed_deadline_trips() {
        let b = Budget::unlimited().and_deadline(Instant::now() - Duration::from_millis(1));
        assert!(b.deadline_expired());
        assert_eq!(b.exhausted(), Some(Exhaustion::DeadlineExpired));
        assert_eq!(b.remaining(), Some(Duration::ZERO));
        // charge polls the deadline on 256-unit boundaries.
        assert_eq!(b.charge(256), Some(Exhaustion::DeadlineExpired));
    }

    #[test]
    fn future_deadline_leaves_time() {
        let b = Budget::with_time_limit(Duration::from_secs(3600));
        assert!(!b.deadline_expired());
        assert!(b.remaining().expect("deadline set") > Duration::from_secs(3000));
    }

    #[test]
    fn limits_compose() {
        let b = Budget::with_time_limit(Duration::from_secs(3600)).and_work_cap(5);
        // Work cap trips first; the far-future deadline does not.
        assert_eq!(b.charge(4), None);
        assert_eq!(b.charge(1), Some(Exhaustion::WorkCapReached));
    }

    #[test]
    fn injected_exhaustion_is_one_shot_and_spares_unlimited() {
        // Unlimited budgets are immune: the latch arms but never fires.
        let u = Budget::unlimited();
        u.inject_exhaustion();
        assert_eq!(u.charge(1), None);
        assert_eq!(u.exhausted(), None);
        assert_eq!(u.work_done(), 0);

        // Limited budgets fire exactly once, across clones, without
        // charging any work for the injected trip.
        let a = Budget::unlimited().and_work_cap(1_000_000);
        let b = a.clone();
        b.inject_exhaustion();
        assert_eq!(a.charge(1), Some(Exhaustion::WorkCapReached));
        assert_eq!(a.charge(1), None, "latch cleared after one trip");
        assert_eq!(b.exhausted(), None);

        let c = Budget::with_time_limit(Duration::from_secs(3600));
        c.inject_exhaustion();
        assert_eq!(c.exhausted(), Some(Exhaustion::WorkCapReached));
        assert_eq!(c.exhausted(), None);
    }

    #[test]
    fn equality_ignores_the_live_counter() {
        let a = Budget::unlimited().and_work_cap(7);
        let b = Budget::unlimited().and_work_cap(7);
        assert_eq!(a.charge(3), None);
        assert_eq!(a, b, "limits match, counter state is transient");
        assert_ne!(a, Budget::unlimited());
    }
}
