//! Weak consistency (Definition 1).
//!
//! A history `H` is *weakly consistent* if for each operation `op` that has a
//! response in `H` there is a legal sequential history `S` that
//!
//! * contains only operations invoked in `H` before `op` terminates,
//! * contains all operations performed by the same process that precede `op`
//!   in `H`, and
//! * ends with the same response to `op` as in `H`.
//!
//! Only the *response of `op` itself* is constrained — the other operations
//! of `S` merely have to be arrangeable legally.  [`WeakOperation`] encodes
//! exactly that as a [`ConsistencyCondition`] for the shared Wing–Gong
//! kernel: the same-process predecessors are *required* candidates with free
//! responses, same-object operations invoked before `op` terminates are
//! *optional* candidates (restricting the optional pool to `op`'s object is
//! sound by Lemma 8 and keeps the search small), and `op` itself is required
//! with its response fixed and a precedence edge from every predecessor so
//! that the witness ends with it.  The kernel's interchangeability classes
//! subsume the old multiset grouping of identical optional invocations.
//!
//! Whole-history checks additionally exploit Lemma 8 (weak consistency is
//! local): [`is_weakly_consistent`] splits a multi-object history into
//! per-object projections and checks them independently, stopping at the
//! first projection that is not weakly consistent.

use crate::kernel::{self, ConsistencyCondition, ConstrainedOp, KernelScratch, SearchLimits};
use evlin_history::{History, ObjectUniverse, OpId};

/// The default node budget of one per-operation search: Definition 1
/// problems are much smaller than whole-history linearizations, so the
/// budget is a tenth of [`SearchLimits::default`].
pub(crate) fn default_limits() -> SearchLimits {
    SearchLimits { max_nodes: 200_000 }
}

/// Definition 1 for a single completed operation, as a kernel condition.
#[derive(Debug, Clone, Copy)]
pub struct WeakOperation {
    /// The completed operation whose response must be justified.
    pub op: OpId,
}

impl ConsistencyCondition for WeakOperation {
    fn name(&self) -> &'static str {
        "weak consistency (Definition 1, one operation)"
    }

    fn candidates(&self, history: &History) -> Vec<ConstrainedOp> {
        let ops = history.operations();
        let Some(op) = ops.iter().find(|o| o.id == self.op) else {
            return Vec::new();
        };
        let Some(respond_index) = op.respond_index else {
            // Definition 1 only constrains operations that have a response;
            // an empty problem is trivially satisfiable.
            return Vec::new();
        };
        let mut cops = Vec::new();
        // Operations by the same process that precede `op` in H (program
        // order): required, with unconstrained responses.
        for o in ops
            .iter()
            .filter(|o| o.process == op.process && o.invoke_index < op.invoke_index)
        {
            cops.push(ConstrainedOp {
                record: o.clone(),
                required: true,
                fixed_response: None,
            });
        }
        let must_len = cops.len();
        // Optional operations: invoked before `op` terminates.  Only
        // operations on the same object can influence the legality of `op`'s
        // response (Lemma 8), so restricting the optional pool to them is
        // sound and keeps the search small.
        for o in ops.iter().filter(|o| {
            o.id != op.id
                && !(o.process == op.process && o.invoke_index < op.invoke_index)
                && o.object == op.object
                && o.invoke_index < respond_index
        }) {
            cops.push(ConstrainedOp {
                record: o.clone(),
                required: false,
                fixed_response: None,
            });
        }
        debug_assert!(cops.len() >= must_len);
        // `op` itself, last: required, with its response fixed.
        cops.push(ConstrainedOp {
            record: op.clone(),
            required: true,
            fixed_response: op.response.clone(),
        });
        cops
    }

    fn precedence(&self, history: &History, candidates: &[ConstrainedOp]) -> Vec<(usize, usize)> {
        // S must *end* with `op`: every required predecessor is ordered
        // before it.  (Optional candidates need no edge — the search accepts
        // as soon as all required operations are linearized, so nothing is
        // ever placed after `op`.)
        let _ = history;
        let Some(last) = candidates.len().checked_sub(1) else {
            return Vec::new();
        };
        (0..last)
            .filter(|&i| candidates[i].required)
            .map(|i| (i, last))
            .collect()
    }
}

/// Decides whether the whole history is weakly consistent.
///
/// Multi-object histories are decomposed per object first (Lemma 8); the
/// projections are checked in object order, up to the first violating one.
pub fn is_weakly_consistent(history: &History, universe: &ObjectUniverse) -> bool {
    let objects = history.objects();
    if objects.len() > 1 {
        // Locality pre-pass: H is weakly consistent iff every H|o is.
        objects.iter().all(|&o| {
            let projection = history.project_object(o);
            violations_with_limits(&projection, universe, default_limits()).is_empty()
        })
    } else {
        violations_with_limits(history, universe, default_limits()).is_empty()
    }
}

/// Returns the identifiers of all completed operations that violate
/// Definition 1 (empty when the history is weakly consistent).
pub fn violations(history: &History, universe: &ObjectUniverse) -> Vec<OpId> {
    violations_with_limits(history, universe, default_limits())
}

/// [`violations`] with explicit search limits.  An operation whose search
/// exhausts the node budget is conservatively reported as a violation.
pub(crate) fn violations_with_limits(
    history: &History,
    universe: &ObjectUniverse,
    limits: SearchLimits,
) -> Vec<OpId> {
    // One search per completed operation, all sharing one scratch so the
    // visited cache and taken-set are allocated once per history.
    let mut scratch = KernelScratch::new();
    history
        .operations()
        .iter()
        .filter(|op| op.is_complete())
        .filter(|op| {
            !kernel::check_with_scratch(
                &WeakOperation { op: op.id },
                history,
                universe,
                limits,
                &mut scratch,
            )
            .0
            .is_yes()
        })
        .map(|op| op.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_history::{HistoryBuilder, ProcessId};
    use evlin_spec::{Consensus, FetchIncrement, Register, Value};

    #[test]
    fn reads_of_written_values_are_weakly_consistent() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        // The read of 1 overlaps the write of 1: allowed.
        let h = HistoryBuilder::new()
            .invoke(ProcessId(0), r, Register::write(Value::from(1i64)))
            .complete(ProcessId(1), r, Register::read(), Value::from(1i64))
            .respond(ProcessId(0), r, Value::Unit)
            .build();
        assert!(is_weakly_consistent(&h, &u));
    }

    #[test]
    fn out_of_left_field_read_is_a_violation() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        // 7 is never written by anyone, so no legal sequential history can
        // justify the read of 7.
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(ProcessId(1), r, Register::read(), Value::from(7i64))
            .build();
        assert!(!is_weakly_consistent(&h, &u));
        let v = violations(&h, &u);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0], OpId(1));
    }

    #[test]
    fn value_from_a_later_write_is_a_violation() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        // The read returns 5, but write(5) is invoked only after the read
        // terminated — Definition 1 only allows operations invoked before the
        // read terminates.
        let h = HistoryBuilder::new()
            .complete(ProcessId(1), r, Register::read(), Value::from(5i64))
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(5i64)),
                Value::Unit,
            )
            .build();
        assert!(!is_weakly_consistent(&h, &u));
    }

    #[test]
    fn own_writes_must_be_respected() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        // p0 writes 3 and then reads 0: the read ignores p0's own earlier
        // write, violating the "contains all operations performed by the same
        // process" clause (no legal history containing write(3) ends with a
        // read of 0 unless someone else wrote 0 — nobody did... note the
        // initial value is 0, but the mandatory write(3) would have to be
        // ordered after the read, which Definition 1 forbids since S must end
        // with op).
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(3i64)),
                Value::Unit,
            )
            .complete(ProcessId(0), r, Register::read(), Value::from(0i64))
            .build();
        assert!(!is_weakly_consistent(&h, &u));

        // Whereas another process may still read 0 (it need not have seen the
        // write).
        let h2 = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(3i64)),
                Value::Unit,
            )
            .complete(ProcessId(1), r, Register::read(), Value::from(0i64))
            .build();
        assert!(is_weakly_consistent(&h2, &u));
    }

    #[test]
    fn duplicate_fetch_inc_zeroes_are_weakly_consistent_but_not_linearizable() {
        // This is the key distinction the paper draws: returning a stale
        // counter value is weakly consistent (each response is justified by
        // *some* subset of operations) even though it is not linearizable.
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
        assert!(is_weakly_consistent(&h, &u));
        assert!(!crate::linearizability::is_linearizable(&h, &u));
    }

    #[test]
    fn repeated_stale_zero_by_same_process_is_rejected() {
        // A process that performs two fetch&inc operations cannot get 0 both
        // times: its second operation must account for its own first one.
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
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .build();
        assert!(!is_weakly_consistent(&h, &u));
    }

    #[test]
    fn consensus_must_return_some_invoked_proposal() {
        let mut u = ObjectUniverse::new();
        let c = u.add_object(Consensus::new());
        let ok = HistoryBuilder::new()
            .invoke(ProcessId(0), c, Consensus::propose(Value::from(4i64)))
            .complete(
                ProcessId(1),
                c,
                Consensus::propose(Value::from(9i64)),
                Value::from(4i64),
            )
            .respond(ProcessId(0), c, Value::from(4i64))
            .build();
        assert!(is_weakly_consistent(&ok, &u));

        let bad = HistoryBuilder::new()
            .complete(
                ProcessId(1),
                c,
                Consensus::propose(Value::from(9i64)),
                Value::from(4i64),
            )
            .build();
        // Nobody ever proposed 4 before this operation terminated.
        assert!(!is_weakly_consistent(&bad, &u));
    }

    #[test]
    fn pending_operations_are_not_checked() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let h = HistoryBuilder::new()
            .invoke(ProcessId(0), r, Register::write(Value::from(1i64)))
            .build();
        assert!(is_weakly_consistent(&h, &u));
    }

    #[test]
    fn empty_history_is_weakly_consistent() {
        let u = ObjectUniverse::new();
        assert!(is_weakly_consistent(&History::new(), &u));
    }

    #[test]
    fn multi_object_histories_use_the_locality_pre_pass() {
        // Cross-object verdicts must agree with the per-operation checks on
        // the unprojected history (Lemma 8).
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let x = u.add_object(FetchIncrement::new());
        let good = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(ProcessId(1), r, Register::read(), Value::from(0i64))
            .build();
        assert!(is_weakly_consistent(&good, &u));
        assert!(violations(&good, &u).is_empty());
        let bad = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(9i64),
            )
            .build();
        assert!(!is_weakly_consistent(&bad, &u));
        assert_eq!(violations(&bad, &u), vec![OpId(1)]);
    }

    #[test]
    fn prefix_closure_smoke_check() {
        // Lemma 10: weak consistency is a safety property, so every prefix of
        // a weakly consistent history is weakly consistent.
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
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .build();
        assert!(is_weakly_consistent(&h, &u));
        for n in 0..=h.len() {
            assert!(is_weakly_consistent(&h.prefix(n), &u));
        }
    }
}
