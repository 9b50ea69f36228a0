//! Classical linearizability (Herlihy & Wing), i.e. `0`-linearizability.
//!
//! "0-linearizability is equivalent to linearizability" (paper, Section 3.2),
//! so [`Linearizability`] is a thin [`ConsistencyCondition`] delegating to
//! [`crate::t_linearizability::TLinearizability`] with `t = 0`, plus helpers
//! for obtaining a witness linearization as a legal sequential [`History`].
//!
//! Linearizability is *local* (the Herlihy–Wing locality theorem), so the
//! kernel's pre-pass splits multi-object histories into independent
//! per-object subproblems — the single biggest algorithmic speedup available
//! to the checker — and composes the per-object witnesses back together.

use crate::kernel::{ConsistencyCondition, Locality, Witness};
use crate::t_linearizability::{self, EventProblem, TLinearizability};
use evlin_history::{History, ObjectUniverse};

/// Linearizability as a kernel condition: `t`-linearizability with `t = 0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Linearizability;

impl ConsistencyCondition for Linearizability {
    type Views<'h> = EventProblem<'h>;

    fn views<'h>(
        &self,
        history: &'h History,
        ops: &'h [(usize, Option<usize>)],
    ) -> EventProblem<'h> {
        TLinearizability::new(0).views(history, ops)
    }

    fn locality(&self) -> Locality {
        Locality::Exact
    }
}

/// Decides whether `history` is linearizable with respect to `universe`.
///
/// Pending operations may be completed (with any legal response) or dropped,
/// as in the standard definition.
pub fn is_linearizable(history: &History, universe: &ObjectUniverse) -> bool {
    t_linearizability::is_t_linearizable(history, universe, 0)
}

/// Returns a witness linearization if one exists.
pub fn linearization_witness(history: &History, universe: &ObjectUniverse) -> Option<Witness> {
    t_linearizability::t_linearization(history, universe, 0)
}

/// Renders a witness produced by [`linearization_witness`] (or by the
/// `t`-linearizability search) as a sequential [`History`].
#[cfg(test)]
pub(crate) fn witness_to_history(history: &History, witness: &Witness) -> History {
    let ops = history.operations();
    let mut out = History::new();
    for (k, &idx) in witness.order.iter().enumerate() {
        let op = &ops[idx];
        out.push_invoke(op.process, op.object, op.invocation.clone());
        out.push_respond(op.process, op.object, witness.responses[k].clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_history::{legal, HistoryBuilder, ProcessId};
    use evlin_spec::{Consensus, FetchIncrement, Queue, Register, Value};

    #[test]
    fn sequential_legal_histories_are_linearizable() {
        let mut u = ObjectUniverse::new();
        let q = u.add_object(Queue::new());
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                q,
                Queue::enqueue(Value::from(1i64)),
                Value::Unit,
            )
            .complete(
                ProcessId(1),
                q,
                Queue::enqueue(Value::from(2i64)),
                Value::Unit,
            )
            .complete(ProcessId(0), q, Queue::dequeue(), Value::from(1i64))
            .build();
        assert!(is_linearizable(&h, &u));
    }

    #[test]
    fn queue_fifo_violation_is_rejected() {
        let mut u = ObjectUniverse::new();
        let q = u.add_object(Queue::new());
        // enqueue(1) then enqueue(2) strictly before any dequeue, yet the
        // first dequeue returns 2.
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                q,
                Queue::enqueue(Value::from(1i64)),
                Value::Unit,
            )
            .complete(
                ProcessId(0),
                q,
                Queue::enqueue(Value::from(2i64)),
                Value::Unit,
            )
            .complete(ProcessId(1), q, Queue::dequeue(), Value::from(2i64))
            .build();
        assert!(!is_linearizable(&h, &u));
    }

    #[test]
    fn overlapping_fetch_inc_operations_may_commute() {
        let mut u = ObjectUniverse::new();
        let x = u.add_object(FetchIncrement::new());
        // Two overlapping operations returning 1 and 0 respectively: the
        // linearization order is the reverse of the invocation order, which
        // is allowed because they overlap.
        let h = HistoryBuilder::new()
            .invoke(ProcessId(0), x, FetchIncrement::fetch_inc())
            .invoke(ProcessId(1), x, FetchIncrement::fetch_inc())
            .respond(ProcessId(0), x, Value::from(1i64))
            .respond(ProcessId(1), x, Value::from(0i64))
            .build();
        assert!(is_linearizable(&h, &u));
    }

    #[test]
    fn consensus_disagreement_is_not_linearizable() {
        let mut u = ObjectUniverse::new();
        let c = u.add_object(Consensus::new());
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                c,
                Consensus::propose(Value::from(0i64)),
                Value::from(0i64),
            )
            .complete(
                ProcessId(1),
                c,
                Consensus::propose(Value::from(1i64)),
                Value::from(1i64),
            )
            .build();
        assert!(!is_linearizable(&h, &u));
    }

    #[test]
    fn witness_history_is_legal_and_sequential() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let h = HistoryBuilder::new()
            .invoke(ProcessId(0), r, Register::write(Value::from(3i64)))
            .complete(ProcessId(1), r, Register::read(), Value::from(3i64))
            .respond(ProcessId(0), r, Value::Unit)
            .build();
        let w = linearization_witness(&h, &u).expect("linearizable");
        let s = witness_to_history(&h, &w);
        assert!(s.is_sequential());
        assert!(legal::is_legal_sequential(&s, &u));
        // The write must be linearized before the read for the read of 3 to
        // be legal.
        assert_eq!(
            s.complete_operations()[0].invocation,
            Register::write(Value::from(3i64))
        );
    }

    #[test]
    fn multi_object_histories_compose() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let x = u.add_object(FetchIncrement::new());
        let h = HistoryBuilder::new()
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
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .complete(ProcessId(1), r, Register::read(), Value::from(1i64))
            .build();
        assert!(is_linearizable(&h, &u));
        // Break only the register part: the whole history becomes
        // non-linearizable (locality).
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
                Value::from(0i64),
            )
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .complete(ProcessId(1), r, Register::read(), Value::from(0i64))
            .build();
        assert!(!is_linearizable(&bad, &u));
    }

    #[test]
    fn generated_linearizable_histories_are_accepted() {
        use evlin_history::generator::{concurrentize, random_sequential_legal, WorkloadSpec};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut u = ObjectUniverse::new();
        u.add_object(Register::new(Value::from(0i64)));
        u.add_object(FetchIncrement::new());
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let spec = WorkloadSpec {
                processes: 3,
                operations: 10,
            };
            let seq = random_sequential_legal(&u, &spec, &mut rng);
            let conc = concurrentize(&seq, 2, &mut rng);
            assert!(
                is_linearizable(&conc, &u),
                "linearizable-by-construction history rejected (seed {seed})"
            );
        }
    }
}
