//! Eventually linearizable base objects.
//!
//! The negative results of the paper (Theorem 12, Proposition 15) quantify
//! over implementations built from *eventually linearizable* base objects,
//! i.e. objects that may misbehave — while staying weakly consistent — for an
//! arbitrary finite prefix of the execution and behave linearizably
//! afterwards.
//!
//! [`EventuallyLinearizable`] is an adversarial model of such an object:
//!
//! * **before stabilization** every process is served from its own local copy
//!   of the object (exactly the behaviour exploited in the proof of
//!   Theorem 12), which is weakly consistent by construction because each
//!   response is justified by the process's own earlier operations;
//! * **at stabilization** (decided by a [`StabilizationPolicy`]) the wrapper
//!   replays every operation logged so far — in an order consistent with each
//!   process's program order — onto a fresh copy of the object and adopts the
//!   resulting state;
//! * **after stabilization** the object behaves like a linearizable
//!   [`crate::base::SpecObject`].
//!
//! With `StabilizationPolicy::Never` the object is exactly the "local copies"
//! substitution used in the proof of Theorem 12.

use crate::base::{BaseObject, PidDependence};
use evlin_history::ProcessId;
use evlin_spec::{Invocation, ObjectType, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// When an [`EventuallyLinearizable`] object stops misbehaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StabilizationPolicy {
    /// The object never stabilizes within the (finite) execution.  This is
    /// the strongest adversary allowed by the definition for finite
    /// executions: every finite prefix of an eventually linearizable object's
    /// execution may still be pre-stabilization.
    Never,
    /// The object stabilizes after it has served the given number of
    /// accesses.
    AfterAccesses(usize),
}

/// An adversarially weak, eventually linearizable base object wrapping a
/// deterministic object type.
#[derive(Clone)]
pub struct EventuallyLinearizable {
    ty: Arc<dyn ObjectType>,
    initial: Value,
    policy: StabilizationPolicy,
    accesses: usize,
    /// Per-process local copies used before stabilization.
    local: BTreeMap<ProcessId, Value>,
    /// Log of all operations applied before stabilization, in arrival order
    /// (which respects each process's program order).
    log: Vec<(ProcessId, Invocation)>,
    /// The merged, authoritative state after stabilization.
    global: Option<Value>,
}

impl EventuallyLinearizable {
    /// Creates an eventually linearizable object of the given type, starting
    /// in the type's first initial state.
    pub fn new(ty: Arc<dyn ObjectType>, policy: StabilizationPolicy) -> Self {
        let initial = ty
            .initial_states()
            .into_iter()
            .next()
            .expect("object types must have at least one initial state");
        EventuallyLinearizable {
            ty,
            initial,
            policy,
            accesses: 0,
            local: BTreeMap::new(),
            log: Vec::new(),
            global: None,
        }
    }

    /// Whether the object has stabilized.
    #[cfg(test)]
    fn is_stabilized(&self) -> bool {
        self.global.is_some()
    }

    /// Number of accesses served so far.
    pub fn accesses(&self) -> usize {
        self.accesses
    }

    fn maybe_stabilize(&mut self) {
        if self.global.is_some() {
            return;
        }
        let due = match self.policy {
            StabilizationPolicy::Never => false,
            StabilizationPolicy::AfterAccesses(k) => self.accesses >= k,
        };
        if due {
            // Replay the log (arrival order respects per-process program
            // order) onto a fresh copy to obtain the merged state.
            let mut state = self.initial.clone();
            for (_, inv) in &self.log {
                if let Ok((_, next)) = self.ty.apply_deterministic(&state, inv) {
                    state = next;
                }
            }
            self.global = Some(state);
        }
    }
}

impl fmt::Debug for EventuallyLinearizable {
    // The full state (local copies, log, merged state) is printed because
    // `Config::fingerprint` folds base objects in via their Debug output;
    // omitting a field would make distinct configurations collide and let
    // deduplicating exploration unsoundly prune subtrees.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventuallyLinearizable")
            .field("type", &self.ty.name())
            .field("policy", &self.policy)
            .field("accesses", &self.accesses)
            .field("local", &self.local)
            .field("log", &self.log)
            .field("global", &self.global)
            .finish()
    }
}

impl BaseObject for EventuallyLinearizable {
    fn invoke(&mut self, process: ProcessId, invocation: &Invocation) -> Value {
        // Stabilization is decided by the number of accesses *already served*:
        // with `AfterAccesses(k)` the first `k` accesses are pre-stabilization
        // and every later access is served from the merged, linearizable state.
        self.maybe_stabilize();
        self.accesses += 1;
        if let Some(global) = &self.global {
            let (resp, next) = self
                .ty
                .apply_deterministic(global, invocation)
                .unwrap_or_else(|err| panic!("invalid access to {}: {err}", self.ty.name()));
            self.global = Some(next);
            resp
        } else {
            let state = self
                .local
                .entry(process)
                .or_insert_with(|| self.initial.clone());
            let (resp, next) = self
                .ty
                .apply_deterministic(state, invocation)
                .unwrap_or_else(|err| panic!("invalid access to {}: {err}", self.ty.name()));
            *state = next;
            self.log.push((process, invocation.clone()));
            resp
        }
    }

    fn clone_box(&self) -> Box<dyn BaseObject> {
        Box::new(self.clone())
    }

    fn state_value(&self) -> Value {
        match &self.global {
            Some(g) => g.clone(),
            None => Value::list(self.local.values().cloned()),
        }
    }

    fn type_name(&self) -> String {
        format!("eventually-linearizable {}", self.ty.name())
    }

    // The pre-stabilization state is keyed by process ids (local copies and
    // the replay log), but both are plain maps/sequences over `ProcessId`, so
    // a renaming reaches every occurrence.  The *values* are states of the
    // wrapped deterministic type and never mention processes.
    fn pid_dependence(&self) -> PidDependence {
        PidDependence::Permutable
    }

    fn permute_processes(&mut self, perm: &[usize]) {
        let local = std::mem::take(&mut self.local);
        self.local = local
            .into_iter()
            .map(|(p, v)| (ProcessId(perm[p.index()]), v))
            .collect();
        for (p, _) in &mut self.log {
            *p = ProcessId(perm[p.index()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_spec::{Counter, FetchIncrement, Register};

    #[test]
    fn debug_distinguishes_internal_state() {
        // Two objects with the same access count but different logged writes
        // must have different Debug output: `Config::fingerprint` relies on
        // Debug to expose the full state, and a collision here would let
        // deduplicating exploration unsoundly merge distinct configurations.
        let base = EventuallyLinearizable::new(
            Arc::new(Register::new(Value::from(0i64))),
            StabilizationPolicy::Never,
        );
        let mut wrote_seven = base.clone();
        wrote_seven.invoke(ProcessId(0), &Register::write(Value::from(7i64)));
        let mut wrote_eight = base.clone();
        wrote_eight.invoke(ProcessId(0), &Register::write(Value::from(8i64)));
        assert_eq!(wrote_seven.accesses(), wrote_eight.accesses());
        assert_ne!(format!("{wrote_seven:?}"), format!("{wrote_eight:?}"));
    }

    #[test]
    fn never_stabilizing_register_serves_local_copies() {
        let mut r = EventuallyLinearizable::new(
            Arc::new(Register::new(Value::from(0i64))),
            StabilizationPolicy::Never,
        );
        r.invoke(ProcessId(0), &Register::write(Value::from(7i64)));
        // Process 1 does not see process 0's write…
        assert_eq!(r.invoke(ProcessId(1), &Register::read()), Value::from(0i64));
        // …but process 0 sees its own write (weak consistency).
        assert_eq!(r.invoke(ProcessId(0), &Register::read()), Value::from(7i64));
        assert!(!r.is_stabilized());
        assert_eq!(r.accesses(), 3);
    }

    #[test]
    fn stabilization_merges_all_logged_operations() {
        let mut c = EventuallyLinearizable::new(
            Arc::new(Counter::new()),
            StabilizationPolicy::AfterAccesses(4),
        );
        c.invoke(ProcessId(0), &Counter::inc());
        c.invoke(ProcessId(1), &Counter::inc());
        c.invoke(ProcessId(1), &Counter::inc());
        // Before stabilization each process only sees its own increments.
        assert_eq!(c.invoke(ProcessId(0), &Counter::read()), Value::from(1i64));
        assert!(c.is_stabilized() || c.accesses() == 4);
        // The next access happens after stabilization: all four logged
        // operations (three incs and a read) have been merged.
        assert_eq!(c.invoke(ProcessId(2), &Counter::read()), Value::from(3i64));
        assert!(c.is_stabilized());
        // And from now on the object is shared and linearizable.
        c.invoke(ProcessId(0), &Counter::inc());
        assert_eq!(c.invoke(ProcessId(1), &Counter::read()), Value::from(4i64));
    }

    #[test]
    fn immediate_stabilization_behaves_linearizably() {
        let mut x = EventuallyLinearizable::new(
            Arc::new(FetchIncrement::new()),
            StabilizationPolicy::AfterAccesses(0),
        );
        assert_eq!(
            x.invoke(ProcessId(0), &FetchIncrement::fetch_inc()),
            Value::from(0i64)
        );
        assert_eq!(
            x.invoke(ProcessId(1), &FetchIncrement::fetch_inc()),
            Value::from(1i64)
        );
        assert!(x.is_stabilized());
    }

    #[test]
    fn fetch_inc_duplicates_before_stabilization() {
        let mut x = EventuallyLinearizable::new(
            Arc::new(FetchIncrement::new()),
            StabilizationPolicy::Never,
        );
        // Both processes get 0 — exactly the "temporarily inconsistent"
        // behaviour the introduction describes.
        assert_eq!(
            x.invoke(ProcessId(0), &FetchIncrement::fetch_inc()),
            Value::from(0i64)
        );
        assert_eq!(
            x.invoke(ProcessId(1), &FetchIncrement::fetch_inc()),
            Value::from(0i64)
        );
    }

    #[test]
    fn state_value_reports_local_or_global() {
        let mut x = EventuallyLinearizable::new(
            Arc::new(Counter::new()),
            StabilizationPolicy::AfterAccesses(2),
        );
        x.invoke(ProcessId(0), &Counter::inc());
        assert_eq!(x.state_value(), Value::list([Value::from(1i64)]));
        x.invoke(ProcessId(1), &Counter::inc());
        x.invoke(ProcessId(1), &Counter::read());
        assert_eq!(x.state_value(), Value::from(2i64));
        assert!(x.type_name().contains("counter"));
    }

    #[test]
    fn recorded_behaviour_matches_the_kernel_checkers() {
        // The adversarial object's pre-stabilization behaviour must be
        // weakly consistent but not linearizable, and must stabilize exactly
        // where the paper says (t = the pre-stabilization events) — verified
        // against the unified checker kernel rather than by construction.
        use evlin_checker::{is_linearizable, is_weakly_consistent, min_stabilization};
        use evlin_history::{HistoryBuilder, ObjectUniverse};

        let mut x = EventuallyLinearizable::new(
            Arc::new(FetchIncrement::new()),
            StabilizationPolicy::Never,
        );
        let mut universe = ObjectUniverse::new();
        let o = universe.add_object(FetchIncrement::new());
        let mut b = HistoryBuilder::new();
        for p in 0..2usize {
            let response = x.invoke(ProcessId(p), &FetchIncrement::fetch_inc());
            b = b.complete(ProcessId(p), o, FetchIncrement::fetch_inc(), response);
        }
        let h = b.build();
        assert!(is_weakly_consistent(&h, &universe));
        assert!(!is_linearizable(&h, &universe));
        // Both local copies answered 0; forgiving the first operation's two
        // events makes the remainder linearizable.
        assert_eq!(min_stabilization(&h, &universe, None), Some(2));
    }

    #[test]
    fn permute_processes_renames_local_copies_and_log() {
        use crate::base::{BaseObject as _, PidDependence};
        let mut r = EventuallyLinearizable::new(
            Arc::new(Register::new(Value::from(0i64))),
            StabilizationPolicy::Never,
        );
        assert_eq!(r.pid_dependence(), PidDependence::Permutable);
        r.invoke(ProcessId(0), &Register::write(Value::from(7i64)));
        let mut renamed = r.clone();
        renamed.permute_processes(&[1, 0]);
        // After the renaming, the local copy that held the write belongs to
        // process 1 — and the Debug form (which fingerprints fold in) moves
        // with it.
        assert_eq!(
            renamed.invoke(ProcessId(1), &Register::read()),
            Value::from(7i64)
        );
        assert_eq!(r.invoke(ProcessId(1), &Register::read()), Value::from(0i64));
        assert_ne!(format!("{r:?}"), format!("{renamed:?}"));
    }

    #[test]
    fn cloning_preserves_adversary_state() {
        let mut a = EventuallyLinearizable::new(
            Arc::new(Register::new(Value::from(0i64))),
            StabilizationPolicy::Never,
        );
        a.invoke(ProcessId(0), &Register::write(Value::from(1i64)));
        let mut b = a.clone();
        assert_eq!(b.invoke(ProcessId(0), &Register::read()), Value::from(1i64));
        // Divergence after the clone does not leak back.
        b.invoke(ProcessId(0), &Register::write(Value::from(2i64)));
        assert_eq!(a.invoke(ProcessId(0), &Register::read()), Value::from(1i64));
    }
}
