//! Eventual linearizability (Definitions 3 and 4).
//!
//! A history is *eventually linearizable* when it is weakly consistent and
//! `t`-linearizable for some `t`.  For a finite history the second condition
//! always holds (take `t` to be the history length — see Section 3.2 of the
//! paper, which notes that being `t`-linearizable for some `t` is a liveness
//! property), so the interesting quantity reported here is the *minimal*
//! stabilization index.  Experiments over growing prefixes of long executions
//! use that index to decide whether an implementation's executions actually
//! stabilize or whether the index keeps chasing the end of the history (the
//! tell-tale of an implementation that is not eventually linearizable).
//!
//! Both halves run through the shared Wing–Gong kernel: the safety half is
//! the [`crate::weak_consistency::WeakOperation`] condition per completed
//! operation, the liveness half is [`StabilizesEventually`] — Definition 2
//! with `t = |H|`, stated through the same [`EventProblem`] as every other
//! `t` (the `t`-sweep of [`TLinearizability`] computes the minimal
//! stabilization index).  This module contains no search logic of its own.

use crate::kernel::ConsistencyCondition;
use crate::t_linearizability::{EventProblem, TLinearizability};
use crate::{t_linearizability, weak_consistency};
use evlin_history::{History, ObjectUniverse};

/// The liveness half of eventual linearizability as a kernel condition:
/// "`t`-linearizable for *some* `t`", which for a finite history is
/// `|H|`-linearizability — every completed operation must be arrangeable
/// into *some* legal sequential order, with all responses and the real-time
/// order forgiven.
///
/// The safety half (weak consistency) and the quantitative refinement (the
/// *minimal* such `t`) are obtained from the other kernel conditions; this
/// type exists so that all four of the paper's conditions are expressible as
/// [`ConsistencyCondition`] values over the same searcher.
#[derive(Debug, Clone, Copy, Default)]
pub struct StabilizesEventually;

impl ConsistencyCondition for StabilizesEventually {
    type Views<'h> = EventProblem<'h>;

    fn views<'h>(
        &self,
        history: &'h History,
        ops: &'h [(usize, Option<usize>)],
    ) -> EventProblem<'h> {
        TLinearizability::new(history.len()).views(history, ops)
    }
}

/// The outcome of the eventual-linearizability analysis of a (finite)
/// history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventualReport {
    /// Whether the history is weakly consistent (the safety half).
    pub weakly_consistent: bool,
    /// The smallest `t` for which the history is `t`-linearizable, if one was
    /// found within the search limits (the liveness half).
    pub min_stabilization: Option<usize>,
    /// Number of events in the analysed history.
    pub history_len: usize,
    /// Number of completed operations in the analysed history.
    pub completed_operations: usize,
}

impl EventualReport {
    /// Whether the history is eventually linearizable (finite-history
    /// reading: weakly consistent and `t`-linearizable for some `t`).
    pub fn is_eventually_linearizable(&self) -> bool {
        self.weakly_consistent && self.min_stabilization.is_some()
    }

    /// Whether the history is linearizable outright (stabilization index 0).
    pub fn is_linearizable(&self) -> bool {
        self.weakly_consistent && self.min_stabilization == Some(0)
    }
}

/// Analyses a history: weak consistency plus the minimal stabilization index.
pub fn analyze(history: &History, universe: &ObjectUniverse) -> EventualReport {
    EventualReport {
        weakly_consistent: weak_consistency::is_weakly_consistent(history, universe),
        min_stabilization: t_linearizability::min_stabilization(history, universe, None),
        history_len: history.len(),
        completed_operations: history.complete_operations().len(),
    }
}

/// Convenience predicate: weakly consistent and `t`-linearizable for some
/// `t ≤ history.len()`.
pub fn is_eventually_linearizable(history: &History, universe: &ObjectUniverse) -> bool {
    analyze(history, universe).is_eventually_linearizable()
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_history::{HistoryBuilder, OpId, ProcessId};
    use evlin_spec::{FetchIncrement, Register, Value};

    #[test]
    fn linearizable_history_report() {
        let mut u = ObjectUniverse::new();
        let x = u.add_object(FetchIncrement::new());
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .build();
        let r = analyze(&h, &u);
        assert!(r.is_linearizable());
        assert!(r.is_eventually_linearizable());
        assert_eq!(r.min_stabilization, Some(0));
        assert_eq!(r.completed_operations, 2);
        assert_eq!(r.history_len, 4);
    }

    #[test]
    fn stale_but_weakly_consistent_history_report() {
        let mut u = ObjectUniverse::new();
        let x = u.add_object(FetchIncrement::new());
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .build();
        let r = analyze(&h, &u);
        assert!(!r.is_linearizable());
        assert!(r.is_eventually_linearizable());
        assert_eq!(r.min_stabilization, Some(2));
    }

    #[test]
    fn weak_violation_is_diagnosed() {
        let mut u = ObjectUniverse::new();
        let reg = u.add_object(Register::new(Value::from(0i64)));
        let h = HistoryBuilder::new()
            .complete(ProcessId(0), reg, Register::read(), Value::from(42i64))
            .build();
        let r = analyze(&h, &u);
        assert!(!r.weakly_consistent);
        assert!(!r.is_eventually_linearizable());
        assert_eq!(weak_consistency::violations(&h, &u), vec![OpId(0)]);
        // The liveness half still holds for the finite history.
        assert!(r.min_stabilization.is_some());
    }

    #[test]
    fn empty_history_is_eventually_linearizable() {
        let u = ObjectUniverse::new();
        let r = analyze(&History::new(), &u);
        assert!(r.is_eventually_linearizable());
        assert!(r.is_linearizable());
    }

    #[test]
    fn liveness_condition_agrees_with_min_stabilization() {
        use crate::kernel::{self, SearchLimits};
        let mut u = ObjectUniverse::new();
        let x = u.add_object(FetchIncrement::new());
        // Stale duplicate zeros: stabilizes (t = 2), so the liveness-half
        // condition accepts even though the history is not linearizable.
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .build();
        let verdict = kernel::check(&StabilizesEventually, &h, &u, SearchLimits::default());
        assert!(verdict.is_yes());
        assert_eq!(
            t_linearizability::min_stabilization(&h, &u, None).is_some(),
            verdict.is_yes()
        );
    }
}
