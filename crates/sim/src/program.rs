//! Implementations of high-level objects as step state machines.
//!
//! An *implementation* of an object type (paper, Section 3) provides a
//! programme each process follows to perform each operation; the programme
//! repeatedly accesses shared base objects and eventually returns a response.
//! Here a programme is written as an explicit state machine so that the
//! simulator can execute it one atomic step at a time and so that whole
//! configurations (including the programme's control state) can be cloned for
//! exhaustive exploration.

use crate::base::BaseObject;
use evlin_history::ProcessId;
use evlin_spec::{Invocation, Value};
use std::fmt;

/// The next action of a process's programme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskStep {
    /// Access base object number `object` (an index into the implementation's
    /// base-object vector) with `invocation`.  The response will be passed to
    /// the next call of [`ProcessLogic::step`].
    Access {
        /// Index of the base object to access.
        object: usize,
        /// The invocation to apply to it.
        invocation: Invocation,
    },
    /// The current high-level operation is complete with the given response.
    Complete(Value),
}

/// The per-process programme state of an implementation: both the persistent
/// local variables the process keeps across operations and the control state
/// of the operation currently being executed.
///
/// Programme state is `Send` so that configurations can migrate between the
/// worker threads of the parallel explorer.
pub trait ProcessLogic: fmt::Debug + Send + Sync {
    /// Starts executing a new high-level operation.
    ///
    /// Called exactly once per operation, before the first [`ProcessLogic::step`]
    /// call for that operation.
    fn begin(&mut self, invocation: Invocation);

    /// Performs one atomic step of the current operation.
    ///
    /// `previous_response` is `None` on the first step of an operation and
    /// otherwise carries the response of the base-object access requested by
    /// the previous step.
    fn step(&mut self, previous_response: Option<Value>) -> TaskStep;

    /// Clones the programme state.
    fn clone_box(&self) -> Box<dyn ProcessLogic>;

    /// The number of distinct *transient-fault corruptions* of this
    /// programme state that the fault-injection layer ([`crate::fault`]) may
    /// apply — a deterministic function of the current state.  The default
    /// (0) marks the programme as uncorruptible.
    fn corruption_count(&self) -> usize {
        0
    }

    /// Corrupts the programme state to its `index`-th enumerable corruption.
    ///
    /// # Panics
    ///
    /// May panic when `index >= corruption_count()`; the default panics
    /// unconditionally (programmes declaring no corruptions are never asked).
    fn corrupt(&mut self, index: usize) {
        panic!("programme state declares no corruptions (corrupt({index}))");
    }
}

impl Clone for Box<dyn ProcessLogic> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// An implementation of a high-level object from base objects: a factory for
/// the shared base objects and for each process's programme.
///
/// Implementations are `Sync` so that the parallel explorer can share one
/// implementation by reference across its worker threads; the factory
/// methods take `&self` and all provided implementations are plain data.
pub trait Implementation: fmt::Debug + Sync {
    /// A short name of the implemented object / algorithm (diagnostics).
    fn name(&self) -> String;

    /// The number of processes the implementation is instantiated for.
    fn processes(&self) -> usize;

    /// Creates the shared base objects, in their initial states.
    fn initial_base_objects(&self) -> Vec<Box<dyn BaseObject>>;

    /// Creates the programme state for process `process`.
    fn new_process(&self, process: ProcessId) -> Box<dyn ProcessLogic>;

    /// Whether the implementation is *process-symmetric*: every process runs
    /// the same programme and no process id is embedded in programme state,
    /// so renaming processes maps executions to executions.
    ///
    /// Consulted by the symmetry reduction of [`crate::engine`]:
    /// `Some(false)` vetoes canonicalization outright (the right marker for
    /// algorithms whose programmes announce or scan by identity),
    /// `Some(true)` asserts symmetry even when the structural check is
    /// inconclusive (a soundness promise — the engine still requires every
    /// base object to declare its process-id dependence), and `None` (the
    /// default) lets the engine decide structurally by comparing the initial
    /// [`ProcessLogic`] states and workloads.
    fn process_symmetric_hint(&self) -> Option<bool> {
        None
    }
}

/// A trivial implementation useful in tests and as the degenerate case of the
/// Theorem 12 construction: it uses **no shared base objects** and implements
/// an object by running the sequential specification on a process-local copy.
///
/// For a trivial type (Definition 13) this is a correct linearizable
/// implementation; for a non-trivial type it is merely weakly consistent —
/// which is exactly the dichotomy Proposition 14 establishes.
#[derive(Debug, Clone)]
pub struct LocalSpecImplementation {
    ty: std::sync::Arc<dyn evlin_spec::ObjectType>,
    processes: usize,
}

impl LocalSpecImplementation {
    /// Creates the implementation for `processes` processes.
    pub fn new(ty: std::sync::Arc<dyn evlin_spec::ObjectType>, processes: usize) -> Self {
        LocalSpecImplementation { ty, processes }
    }
}

/// Programme state for [`LocalSpecImplementation`].
#[derive(Debug, Clone)]
pub(crate) struct LocalSpecLogic {
    ty: std::sync::Arc<dyn evlin_spec::ObjectType>,
    state: Value,
    current: Option<Invocation>,
}

impl Implementation for LocalSpecImplementation {
    fn name(&self) -> String {
        format!("local-copy {}", self.ty.name())
    }

    fn processes(&self) -> usize {
        self.processes
    }

    fn initial_base_objects(&self) -> Vec<Box<dyn BaseObject>> {
        Vec::new()
    }

    fn new_process(&self, _process: ProcessId) -> Box<dyn ProcessLogic> {
        let state = self
            .ty
            .initial_states()
            .into_iter()
            .next()
            .expect("object types must have at least one initial state");
        Box::new(LocalSpecLogic {
            ty: self.ty.clone(),
            state,
            current: None,
        })
    }
}

impl ProcessLogic for LocalSpecLogic {
    fn begin(&mut self, invocation: Invocation) {
        self.current = Some(invocation);
    }

    fn step(&mut self, _previous_response: Option<Value>) -> TaskStep {
        let inv = self
            .current
            .take()
            .expect("step called without a pending operation");
        let (resp, next) = self
            .ty
            .apply_deterministic(&self.state, &inv)
            .expect("local specification application failed");
        self.state = next;
        TaskStep::Complete(resp)
    }

    fn clone_box(&self) -> Box<dyn ProcessLogic> {
        Box::new(self.clone())
    }

    // A transient fault rewrites the process's *local copy* to any other
    // nearby reachable spec state — the programme-state analogue of
    // corrupting a shared [`crate::base::SpecObject`].
    fn corruption_count(&self) -> usize {
        self.corruption_states().len()
    }

    fn corrupt(&mut self, index: usize) {
        let states = self.corruption_states();
        self.state = states
            .get(index)
            .unwrap_or_else(|| {
                panic!(
                    "corrupt({index}) out of range for local {} ({} corruptions)",
                    self.ty.name(),
                    states.len()
                )
            })
            .clone();
    }
}

impl LocalSpecLogic {
    /// The states a transient fault may corrupt the local copy to (see
    /// [`crate::base::SpecObject`]'s identical enumeration).
    fn corruption_states(&self) -> Vec<Value> {
        let initial = self
            .ty
            .initial_states()
            .into_iter()
            .next()
            .expect("object types must have at least one initial state");
        self.ty
            .reachable_states(&initial, crate::fault::CORRUPTION_STATE_CAP)
            .into_iter()
            .filter(|s| s != &self.state)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_spec::{FetchIncrement, TestAndSet};
    use std::sync::Arc;

    #[test]
    fn local_spec_implementation_runs_without_shared_objects() {
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 2);
        assert_eq!(imp.processes(), 2);
        assert!(imp.initial_base_objects().is_empty());
        assert!(imp.name().contains("fetch&increment"));

        let mut p0 = imp.new_process(ProcessId(0));
        let mut p1 = imp.new_process(ProcessId(1));
        p0.begin(FetchIncrement::fetch_inc());
        assert_eq!(p0.step(None), TaskStep::Complete(Value::from(0i64)));
        p0.begin(FetchIncrement::fetch_inc());
        assert_eq!(p0.step(None), TaskStep::Complete(Value::from(1i64)));
        // p1 has its own copy: it also sees 0 first (no communication).
        p1.begin(FetchIncrement::fetch_inc());
        assert_eq!(p1.step(None), TaskStep::Complete(Value::from(0i64)));
    }

    #[test]
    fn cloning_programme_state_preserves_local_variables() {
        let imp = LocalSpecImplementation::new(Arc::new(TestAndSet::new()), 1);
        let mut p = imp.new_process(ProcessId(0));
        p.begin(TestAndSet::test_and_set());
        assert_eq!(p.step(None), TaskStep::Complete(Value::from(0i64)));
        let mut q = p.clone();
        p.begin(TestAndSet::test_and_set());
        q.begin(TestAndSet::test_and_set());
        assert_eq!(p.step(None), TaskStep::Complete(Value::from(1i64)));
        assert_eq!(q.step(None), TaskStep::Complete(Value::from(1i64)));
    }
}
