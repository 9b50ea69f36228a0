//! Safety- and liveness-property test harnesses (Section 3.2).
//!
//! The paper classifies its conditions as follows:
//!
//! * weak consistency is a **safety** property (Lemma 10): non-empty,
//!   prefix-closed and limit-closed;
//! * `t`-linearizability for a *fixed* `t > 0` is **neither** a safety nor a
//!   liveness property (the fetch&increment counterexample of Section 3.2);
//! * being `t`-linearizable for *some* `t` is a **liveness** property.
//!
//! This helper makes those classifications empirically checkable over
//! concrete (finite) histories: prefix closure is checked exhaustively.

use evlin_history::History;

/// The result of checking prefix closure of a property on a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixClosure {
    /// The property held on the full history and on every prefix.
    Closed,
    /// The property did not hold on the full history, so prefix closure says
    /// nothing about it.
    NotApplicable,
    /// The property held on the full history but failed on the prefix of the
    /// given length — a witness that the property is not prefix-closed.
    ViolatedAt {
        /// Length of the offending prefix.
        prefix_len: usize,
    },
}

/// Checks whether `property` is prefix-closed on `history`: if the property
/// holds on `history`, it must hold on every prefix.
pub fn check_prefix_closure<F>(history: &History, mut property: F) -> PrefixClosure
where
    F: FnMut(&History) -> bool,
{
    if !property(history) {
        return PrefixClosure::NotApplicable;
    }
    for n in 0..history.len() {
        if !property(&history.prefix(n)) {
            return PrefixClosure::ViolatedAt { prefix_len: n };
        }
    }
    PrefixClosure::Closed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{t_linearizability, weak_consistency};
    use evlin_history::{HistoryBuilder, ObjectUniverse, ProcessId};
    use evlin_spec::{FetchIncrement, Value};

    fn fi_universe() -> (ObjectUniverse, evlin_history::ObjectId) {
        let mut u = ObjectUniverse::new();
        let x = u.add_object(FetchIncrement::new());
        (u, x)
    }

    /// The history from Section 3.2: p does one fetch&inc returning 0, then q
    /// does fetch&inc forever returning 0, 1, 2, …  (truncated at `extra`
    /// operations by q).
    fn section_3_2_history(extra: i64) -> (ObjectUniverse, History) {
        let (u, x) = fi_universe();
        let mut b = HistoryBuilder::new().complete(
            ProcessId(0),
            x,
            FetchIncrement::fetch_inc(),
            Value::from(0i64),
        );
        for k in 0..extra {
            b = b.complete(ProcessId(1), x, FetchIncrement::fetch_inc(), Value::from(k));
        }
        (u, b.build())
    }

    #[test]
    fn weak_consistency_is_prefix_closed_on_examples() {
        let (u, h) = section_3_2_history(5);
        assert_eq!(
            check_prefix_closure(&h, |p| weak_consistency::is_weakly_consistent(p, &u)),
            PrefixClosure::Closed
        );
    }

    #[test]
    fn t_linearizability_is_not_limit_closed() {
        // Every finite prefix of the Section 3.2 history is 2-linearizable,
        // but longer and longer prefixes eventually require the first
        // operation to be moved past an unbounded number of later operations;
        // the *infinite* history is not 2-linearizable.  In the finite
        // experiment this shows up as: every proper prefix is 2-linearizable
        // and so is the last element (the finite limit is still fine), but
        // the minimal stabilization of prefixes never drops below 2 — i.e.
        // `0`-linearizability fails at every length while 2-linearizability
        // holds at every length.  The genuinely non-safety behaviour
        // (limit-closure failure) only appears at infinity, which we document
        // by checking that 2-linearizability holds for all prefixes here and
        // deferring the infinite argument to the paper.
        let (u, h) = section_3_2_history(6);
        for n in (0..=h.len()).step_by(2) {
            assert!(t_linearizability::is_t_linearizable(&h.prefix(n), &u, 2));
        }
        // Prefix closure, however, *does* hold for this particular history
        // and t (Lemma 6 guarantees prefix closure of t-linearizability in
        // general).
        assert_eq!(
            check_prefix_closure(&h, |p| t_linearizability::is_t_linearizable(p, &u, 2)),
            PrefixClosure::Closed
        );
    }

    #[test]
    fn prefix_closure_not_applicable_when_property_fails_at_the_end() {
        let (u, x) = fi_universe();
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(5i64),
            )
            .build();
        assert_eq!(
            check_prefix_closure(&h, |p| weak_consistency::is_weakly_consistent(p, &u)),
            PrefixClosure::NotApplicable
        );
    }

    #[test]
    fn a_property_that_is_not_prefix_closed_is_caught() {
        let (_, h) = section_3_2_history(3);
        // "Has an even number of events" is obviously not prefix-closed.
        let result = check_prefix_closure(&h, |p| p.len() % 2 == 0);
        assert!(matches!(result, PrefixClosure::ViolatedAt { prefix_len } if prefix_len % 2 == 1));
    }
}
