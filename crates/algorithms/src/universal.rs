//! A lock-free universal construction from consensus objects.
//!
//! The paper's closing question (Section 6) recalls Herlihy's result that
//! consensus objects are *universal* for linearizable objects and asks
//! whether an analogous universal construction exists for eventually
//! linearizable objects.  This module provides the classical side of that
//! comparison: a log-based universal construction that turns any
//! deterministic sequential specification into a linearizable shared object
//! using one consensus base object per log position.
//!
//! To perform an operation, a process proposes the (uniquely tagged)
//! operation for the first log slot it does not yet know to be decided and
//! keeps moving to the next slot until one of its proposals wins; it then
//! replays the decided prefix of the log against the sequential specification
//! to compute its response.  The construction is non-blocking (some proposal
//! wins every slot) and linearizable: the decided log *is* the linearization
//! order.
//!
//! Combined with Proposition 16 this makes the paradox sharp: consensus — the
//! engine of universality for *linearizable* objects — is trivial to obtain
//! in an eventually linearizable form, yet by Theorem 12 those eventually
//! linearizable consensus objects cannot drive any such construction for
//! non-trivial types.

use crate::encode::{decode_invocation, encode_invocation};
use evlin_history::ProcessId;
use evlin_sim::base::{objects, BaseObject};
use evlin_sim::program::{Implementation, ProcessLogic, TaskStep};
use evlin_spec::{Consensus, Invocation, ObjectType, Value};
use std::sync::Arc;

/// A lock-free universal construction of `ty` from consensus base objects.
///
/// The log is bounded by `log_capacity` slots (one consensus object each);
/// executions that would need more slots than that panic, which keeps the
/// model-checked workloads honest about the bound.
#[derive(Debug, Clone)]
pub struct UniversalConstruction {
    ty: Arc<dyn ObjectType>,
    processes: usize,
    log_capacity: usize,
}

impl UniversalConstruction {
    /// Creates the construction for `processes` processes with a log of
    /// `log_capacity` consensus objects.
    ///
    /// # Panics
    ///
    /// Panics if `log_capacity` is zero.
    pub fn new(ty: Arc<dyn ObjectType>, processes: usize, log_capacity: usize) -> Self {
        assert!(log_capacity > 0, "the log needs at least one slot");
        UniversalConstruction {
            ty,
            processes,
            log_capacity,
        }
    }

    /// The implemented object type.
    pub fn object_type(&self) -> &Arc<dyn ObjectType> {
        &self.ty
    }
}

impl Implementation for UniversalConstruction {
    fn name(&self) -> String {
        format!(
            "universal construction of {} from {} consensus objects",
            self.ty.name(),
            self.log_capacity
        )
    }

    fn processes(&self) -> usize {
        self.processes
    }

    fn initial_base_objects(&self) -> Vec<Box<dyn BaseObject>> {
        (0..self.log_capacity)
            .map(|_| objects::consensus())
            .collect()
    }

    fn new_process(&self, process: ProcessId) -> Box<dyn ProcessLogic> {
        Box::new(UniversalLogic {
            me: process,
            ty: self.ty.clone(),
            log_capacity: self.log_capacity,
            known_log: Vec::new(),
            next_seq: 0,
            current: None,
            current_tag: Value::Unit,
            proposing_slot: 0,
            awaiting: false,
        })
    }

    // Asymmetric: operations are tagged `(me, seq)` to deduplicate log
    // entries, so the process id is data the programme depends on.
    fn process_symmetric_hint(&self) -> Option<bool> {
        Some(false)
    }
}

/// Programme state for [`UniversalConstruction`].
#[derive(Debug, Clone)]
struct UniversalLogic {
    me: ProcessId,
    ty: Arc<dyn ObjectType>,
    log_capacity: usize,
    /// The decided log entries this process has observed so far.
    known_log: Vec<Value>,
    /// Sequence number used to tag this process's operations uniquely.
    next_seq: i64,
    current: Option<Invocation>,
    current_tag: Value,
    proposing_slot: usize,
    awaiting: bool,
}

impl UniversalLogic {
    fn tagged_current(&self) -> Value {
        Value::pair(
            self.current_tag.clone(),
            encode_invocation(self.current.as_ref().expect("operation in progress")),
        )
    }

    fn propose_next(&mut self) -> TaskStep {
        assert!(
            self.proposing_slot < self.log_capacity,
            "universal construction log capacity ({}) exhausted",
            self.log_capacity
        );
        self.awaiting = true;
        TaskStep::Access {
            object: self.proposing_slot,
            invocation: Consensus::propose(self.tagged_current()),
        }
    }

    /// Replays the known decided log against the sequential specification and
    /// returns the response of the entry at `upto` (which must be this
    /// process's own operation).
    fn replay_response(&self, upto: usize) -> Value {
        let mut state = self
            .ty
            .initial_states()
            .into_iter()
            .next()
            .expect("object types have an initial state");
        let mut response = Value::Unit;
        for entry in self.known_log.iter().take(upto + 1) {
            let (_tag, encoded) = entry.as_pair().expect("log entries are tagged pairs");
            let invocation =
                decode_invocation(encoded).expect("log entries hold encoded invocations");
            let (resp, next) = self
                .ty
                .apply_deterministic(&state, &invocation)
                .expect("the implemented type is total and deterministic");
            state = next;
            response = resp;
        }
        response
    }
}

impl ProcessLogic for UniversalLogic {
    fn begin(&mut self, invocation: Invocation) {
        self.current = Some(invocation);
        self.current_tag = Value::pair(Value::from(self.me.index()), Value::from(self.next_seq));
        self.next_seq += 1;
        self.proposing_slot = self.known_log.len();
        self.awaiting = false;
    }

    fn step(&mut self, previous_response: Option<Value>) -> TaskStep {
        if !self.awaiting {
            return self.propose_next();
        }
        let decided = previous_response.expect("consensus returns the decided value");
        // Record the decided entry for this slot (everyone agrees on it).
        if self.known_log.len() == self.proposing_slot {
            self.known_log.push(decided.clone());
        }
        let (winner_tag, _) = decided.as_pair().expect("log entries are tagged pairs");
        if *winner_tag == self.current_tag {
            // Our operation owns this slot: compute its response from the log.
            let response = self.replay_response(self.proposing_slot);
            self.current = None;
            self.awaiting = false;
            TaskStep::Complete(response)
        } else {
            // Someone else won this slot; try the next one.
            self.proposing_slot += 1;
            self.propose_next()
        }
    }

    fn clone_box(&self) -> Box<dyn ProcessLogic> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_checker::linearizability;
    use evlin_history::ObjectUniverse;
    use evlin_sim::explorer::{terminal_histories, ExploreOptions};
    use evlin_sim::prelude::*;
    use evlin_spec::{FetchIncrement, Queue, Register, TestAndSet};

    fn universe_for(ty: Arc<dyn ObjectType>) -> ObjectUniverse {
        let mut u = ObjectUniverse::new();
        let q0 = ty.initial_states()[0].clone();
        u.add_shared(ty, q0);
        u
    }

    #[test]
    fn implements_fetch_increment_linearizably_under_random_schedules() {
        let ty: Arc<dyn ObjectType> = Arc::new(FetchIncrement::new());
        let imp = UniversalConstruction::new(ty.clone(), 3, 32);
        let u = universe_for(ty);
        let w = Workload::uniform(3, FetchIncrement::fetch_inc(), 3);
        for seed in 0..10u64 {
            let mut s = RandomScheduler::seeded(seed);
            let out = run(&imp, &w, &mut s, 100_000);
            assert!(out.completed_all, "lock-freedom: seed {seed}");
            assert!(
                linearizability::is_linearizable(&out.history, &u),
                "seed {seed}:\n{}",
                out.history
            );
        }
    }

    #[test]
    fn implements_a_queue_linearizably() {
        let ty: Arc<dyn ObjectType> = Arc::new(Queue::new());
        let imp = UniversalConstruction::new(ty.clone(), 2, 16);
        let u = universe_for(ty);
        let w = Workload::new(vec![
            vec![Queue::enqueue(Value::from(1i64)), Queue::dequeue()],
            vec![Queue::enqueue(Value::from(2i64)), Queue::dequeue()],
        ]);
        for seed in 0..10u64 {
            let mut s = RandomScheduler::seeded(seed);
            let out = run(&imp, &w, &mut s, 100_000);
            assert!(out.completed_all);
            assert!(linearizability::is_linearizable(&out.history, &u));
        }
    }

    #[test]
    fn all_interleavings_of_a_small_workload_are_linearizable() {
        let ty: Arc<dyn ObjectType> = Arc::new(TestAndSet::new());
        let imp = UniversalConstruction::new(ty.clone(), 2, 8);
        let u = universe_for(ty);
        let w = Workload::uniform(2, TestAndSet::test_and_set(), 1);
        let histories = terminal_histories(
            &imp,
            &w,
            ExploreOptions {
                max_depth: 24,
                max_configs: 200_000,
            },
        );
        assert!(!histories.is_empty());
        for h in &histories {
            assert!(linearizability::is_linearizable(h, &u), "violation:\n{h}");
        }
    }

    #[test]
    fn register_reads_see_the_latest_decided_write() {
        let ty: Arc<dyn ObjectType> = Arc::new(Register::new(Value::from(0i64)));
        let imp = UniversalConstruction::new(ty.clone(), 2, 16);
        assert!(imp.name().contains("universal"));
        assert_eq!(imp.object_type().name(), "register");
        let u = universe_for(ty);
        let w = Workload::new(vec![
            vec![Register::write(Value::from(7i64)), Register::read()],
            vec![Register::read(), Register::write(Value::from(9i64))],
        ]);
        let mut s = RoundRobinScheduler::new();
        let out = run(&imp, &w, &mut s, 100_000);
        assert!(out.completed_all);
        assert!(linearizability::is_linearizable(&out.history, &u));
    }

    #[test]
    #[should_panic(expected = "log capacity")]
    fn exhausting_the_log_panics() {
        let ty: Arc<dyn ObjectType> = Arc::new(FetchIncrement::new());
        let imp = UniversalConstruction::new(ty, 2, 1);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 2);
        let mut s = RoundRobinScheduler::new();
        let _ = run(&imp, &w, &mut s, 100_000);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_is_rejected() {
        let ty: Arc<dyn ObjectType> = Arc::new(FetchIncrement::new());
        let _ = UniversalConstruction::new(ty, 2, 0);
    }
}
