//! Legality of sequential histories.
//!
//! A sequential history is *legal* if, for each object `o`, the subsequence
//! `H|o` conforms to `o`'s sequential specification starting from its initial
//! state (paper, Section 3).  Because object types may have (finite)
//! non-determinism, legality is decided by tracking the *set* of states an
//! object could be in after each operation.

use crate::{History, ObjectId, ObjectUniverse, OperationRecord};
use evlin_spec::{Invocation, Value};
use std::collections::BTreeSet;

/// One step of a candidate sequential execution: an invocation on an object
/// together with the response it is supposed to return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SeqStep {
    /// The object the operation is applied to.
    pub object: ObjectId,
    /// The invocation.
    pub invocation: Invocation,
    /// The expected response.
    pub response: Value,
}

#[cfg(test)]
impl SeqStep {
    fn new(object: ObjectId, invocation: Invocation, response: Value) -> Self {
        SeqStep {
            object,
            invocation,
            response,
        }
    }
}

impl From<&OperationRecord> for SeqStep {
    /// Converts a completed operation record into a sequential step.
    ///
    /// # Panics
    ///
    /// Panics if the operation is pending (has no response).
    fn from(op: &OperationRecord) -> Self {
        SeqStep {
            object: op.object,
            invocation: op.invocation.clone(),
            response: op
                .response
                .clone()
                .expect("cannot build a sequential step from a pending operation"),
        }
    }
}

/// Checks whether a sequence of (invocation, response) steps is legal with
/// respect to the universe's sequential specifications.
///
/// Steps on different objects are independent; for each object the possible
/// state set starts at `{q0}` and each step keeps only the successor states
/// reachable with the step's response.  The sequence is legal iff no object's
/// possible state set ever becomes empty.
pub(crate) fn is_legal_step_sequence(steps: &[SeqStep], universe: &ObjectUniverse) -> bool {
    let mut states: Vec<Option<BTreeSet<Value>>> = vec![None; universe.len()];
    for step in steps {
        let idx = step.object.index();
        if idx >= universe.len() {
            return false;
        }
        let ty = universe.object_type(step.object);
        let possible = states[idx].get_or_insert_with(|| {
            let mut s = BTreeSet::new();
            s.insert(universe.initial_state(step.object).clone());
            s
        });
        let mut next: BTreeSet<Value> = BTreeSet::new();
        for q in possible.iter() {
            for q2 in ty.next_states_for_response(q, &step.invocation, &step.response) {
                next.insert(q2);
            }
        }
        if next.is_empty() {
            return false;
        }
        *possible = next;
    }
    true
}

/// Checks whether a *sequential* history is legal.
///
/// Returns `false` if the history is not sequential.  A trailing pending
/// invocation (allowed by the definition of a sequential history) is ignored
/// for legality purposes.
pub fn is_legal_sequential(history: &History, universe: &ObjectUniverse) -> bool {
    if !history.is_sequential() {
        return false;
    }
    let steps: Vec<SeqStep> = history
        .complete_operations()
        .iter()
        .map(SeqStep::from)
        .collect();
    is_legal_step_sequence(&steps, universe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HistoryBuilder, ProcessId};
    use evlin_spec::{Consensus, FetchIncrement, Register, Value};

    fn universe() -> (ObjectUniverse, ObjectId, ObjectId) {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let f = u.add_object(FetchIncrement::new());
        (u, r, f)
    }

    #[test]
    fn legal_register_sequence() {
        let (u, r, _) = universe();
        let steps = vec![
            SeqStep::new(r, Register::read(), Value::from(0i64)),
            SeqStep::new(r, Register::write(Value::from(4i64)), Value::Unit),
            SeqStep::new(r, Register::read(), Value::from(4i64)),
        ];
        assert!(is_legal_step_sequence(&steps, &u));
    }

    #[test]
    fn illegal_register_read() {
        let (u, r, _) = universe();
        let steps = vec![
            SeqStep::new(r, Register::write(Value::from(4i64)), Value::Unit),
            SeqStep::new(r, Register::read(), Value::from(0i64)), // stale
        ];
        assert!(!is_legal_step_sequence(&steps, &u));
    }

    #[test]
    fn fetch_inc_values_must_count_up() {
        let (u, _, f) = universe();
        let ok = vec![
            SeqStep::new(f, FetchIncrement::fetch_inc(), Value::from(0i64)),
            SeqStep::new(f, FetchIncrement::fetch_inc(), Value::from(1i64)),
        ];
        assert!(is_legal_step_sequence(&ok, &u));
        let dup = vec![
            SeqStep::new(f, FetchIncrement::fetch_inc(), Value::from(0i64)),
            SeqStep::new(f, FetchIncrement::fetch_inc(), Value::from(0i64)),
        ];
        assert!(!is_legal_step_sequence(&dup, &u));
    }

    #[test]
    fn sequential_history_legality() {
        let (u, r, f) = universe();
        let good = HistoryBuilder::new()
            .complete(ProcessId(0), r, Register::read(), Value::from(0i64))
            .complete(
                ProcessId(1),
                f,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(
                ProcessId(0),
                f,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .build();
        assert!(is_legal_sequential(&good, &u));

        let bad_resp = HistoryBuilder::new()
            .complete(ProcessId(0), r, Register::read(), Value::from(9i64))
            .build();
        assert!(!is_legal_sequential(&bad_resp, &u));

        // Not sequential at all.
        let concurrent = HistoryBuilder::new()
            .invoke(ProcessId(0), r, Register::read())
            .invoke(ProcessId(1), r, Register::read())
            .respond(ProcessId(0), r, Value::from(0i64))
            .respond(ProcessId(1), r, Value::from(0i64))
            .build();
        assert!(!is_legal_sequential(&concurrent, &u));
    }

    #[test]
    fn trailing_pending_invocation_is_tolerated() {
        let (u, r, _) = universe();
        let h = HistoryBuilder::new()
            .complete(ProcessId(0), r, Register::read(), Value::from(0i64))
            .invoke(ProcessId(0), r, Register::read())
            .build();
        assert!(h.is_sequential());
        assert!(is_legal_sequential(&h, &u));
    }

    #[test]
    fn consensus_legality_enforces_agreement_with_first() {
        let mut u = ObjectUniverse::new();
        let c = u.add_object(Consensus::new());
        let good = vec![
            SeqStep::new(c, Consensus::propose(Value::from(3i64)), Value::from(3i64)),
            SeqStep::new(c, Consensus::propose(Value::from(5i64)), Value::from(3i64)),
        ];
        assert!(is_legal_step_sequence(&good, &u));
        let bad = vec![
            SeqStep::new(c, Consensus::propose(Value::from(3i64)), Value::from(3i64)),
            SeqStep::new(c, Consensus::propose(Value::from(5i64)), Value::from(5i64)),
        ];
        assert!(!is_legal_step_sequence(&bad, &u));
    }

    #[test]
    fn out_of_range_object_is_illegal() {
        let (u, _, _) = universe();
        let steps = vec![SeqStep::new(
            ObjectId(99),
            Register::read(),
            Value::from(0i64),
        )];
        assert!(!is_legal_step_sequence(&steps, &u));
    }
}
