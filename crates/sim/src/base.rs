//! Base objects: the shared primitives implementations are built from.

use evlin_history::ProcessId;
use evlin_spec::{Invocation, ObjectType, Value};
use std::fmt;
use std::sync::Arc;

/// How a base object's state depends on process identities.
///
/// Consulted by the symmetry reduction of [`crate::engine`] before it merges
/// configurations that differ only by a renaming of the processes: every base
/// object in the configuration must be [`PidDependence::Independent`] or
/// [`PidDependence::Permutable`], otherwise canonicalization is disabled
/// (plain deduplication still applies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PidDependence {
    /// The state never records which process performed an access (for
    /// example a plain register): renaming processes leaves the object
    /// untouched.
    Independent,
    /// The state mentions process ids, and the object knows how to rename
    /// them ([`BaseObject::permute_processes`] is overridden consistently
    /// with its `Debug` output).
    Permutable,
    /// Unknown — the conservative default.  Symmetry reduction is disabled
    /// for configurations containing such an object.
    Opaque,
}

/// A shared base object accessed by atomic steps.
///
/// `invoke` performs one operation atomically and returns its response.  Base
/// objects must be cloneable (via [`BaseObject::clone_box`]) so that whole
/// configurations can be cloned during exhaustive exploration, and they must
/// expose their state (via [`BaseObject::state_value`]) so that the
/// Proposition 18 freezing machinery can re-initialize an implementation from
/// a captured configuration.
///
/// Base objects are also `Send`: configurations holding them migrate between
/// worker threads during parallel exploration ([`crate::engine::explore_shared`]).
pub trait BaseObject: fmt::Debug + Send + Sync {
    /// Atomically applies `invocation` on behalf of process `process` and
    /// returns the response.
    fn invoke(&mut self, process: ProcessId, invocation: &Invocation) -> Value;

    /// Clones the object into a new box.
    fn clone_box(&self) -> Box<dyn BaseObject>;

    /// A snapshot of the object's current abstract state.
    fn state_value(&self) -> Value;

    /// The name of the object's type (for diagnostics).
    fn type_name(&self) -> String;

    /// How the object's state depends on process identities (see
    /// [`PidDependence`]).  Defaults to the conservative
    /// [`PidDependence::Opaque`], which disables symmetry reduction.
    fn pid_dependence(&self) -> PidDependence {
        PidDependence::Opaque
    }

    /// Renames every process id recorded in the object's state: process `p`
    /// becomes `perm[p]`.  Must be overridden by objects declaring
    /// [`PidDependence::Permutable`]; the default no-op is only correct for
    /// [`PidDependence::Independent`] objects.
    fn permute_processes(&mut self, _perm: &[usize]) {}

    /// The number of distinct *transient-fault corruptions* of the object's
    /// current state that the fault-injection layer ([`crate::fault`]) may
    /// apply.  Each index in `0..corruption_count()` names one
    /// reachable-but-different state the object can be corrupted to; the
    /// enumeration must be a deterministic function of the current state.
    /// Objects that cannot enumerate such states (the conservative default)
    /// return 0 and are never corrupted.
    fn corruption_count(&self) -> usize {
        0
    }

    /// Corrupts the object's state to its `index`-th enumerable corruption.
    ///
    /// # Panics
    ///
    /// May panic when `index >= corruption_count()`; the default panics
    /// unconditionally (objects declaring no corruptions are never asked).
    fn corrupt(&mut self, index: usize) {
        panic!(
            "base object {} declares no corruptions (corrupt({index}))",
            self.type_name()
        );
    }
}

impl Clone for Box<dyn BaseObject> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A linearizable (atomic) base object of any deterministic
/// [`ObjectType`] — registers, compare&swap, fetch&increment, test&set,
/// queues, …  Every access is applied directly to the sequential
/// specification, so the object is trivially linearizable.
#[derive(Clone)]
pub struct SpecObject {
    ty: Arc<dyn ObjectType>,
    state: Value,
}

impl SpecObject {
    /// Creates an object of the given type in the type's first initial state.
    pub fn new(ty: Arc<dyn ObjectType>) -> Self {
        let state = ty
            .initial_states()
            .into_iter()
            .next()
            .expect("object types must have at least one initial state");
        SpecObject { ty, state }
    }

    /// Creates an object of the given type in an explicit state.
    pub(crate) fn with_state(ty: Arc<dyn ObjectType>, state: Value) -> Self {
        SpecObject { ty, state }
    }

    /// The states a transient fault may corrupt this object to: the first
    /// [`crate::fault::CORRUPTION_STATE_CAP`] states reachable from the
    /// type's first initial state (by sampled invocations, breadth-first),
    /// minus the current state.  Deterministic in the current state, which is
    /// what keeps fault enumeration stable under exploration and symmetry
    /// canonicalization (the spec state never mentions process ids).
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

impl fmt::Debug for SpecObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpecObject({} = {})", self.ty.name(), self.state)
    }
}

impl BaseObject for SpecObject {
    fn invoke(&mut self, _process: ProcessId, invocation: &Invocation) -> Value {
        match self.ty.apply_deterministic(&self.state, invocation) {
            Ok((response, next)) => {
                self.state = next;
                response
            }
            Err(err) => panic!(
                "invalid access to linearizable base object {}: {err}",
                self.ty.name()
            ),
        }
    }

    fn clone_box(&self) -> Box<dyn BaseObject> {
        Box::new(self.clone())
    }

    fn state_value(&self) -> Value {
        self.state.clone()
    }

    fn type_name(&self) -> String {
        self.ty.name().to_owned()
    }

    // The sequential specification ignores the caller's identity, so the
    // state can never depend on process ids.
    fn pid_dependence(&self) -> PidDependence {
        PidDependence::Independent
    }

    fn corruption_count(&self) -> usize {
        self.corruption_states().len()
    }

    fn corrupt(&mut self, index: usize) {
        let states = self.corruption_states();
        self.state = states
            .get(index)
            .unwrap_or_else(|| {
                panic!(
                    "corrupt({index}) out of range for {} ({} corruptions)",
                    self.ty.name(),
                    states.len()
                )
            })
            .clone();
    }
}

/// Convenience constructors for the base objects used by the algorithms.
pub mod objects {
    use super::*;
    use evlin_spec::{CompareAndSwap, Consensus, Register, TestAndSet};

    /// A linearizable read/write register initialized to `initial`.
    pub fn register(initial: Value) -> Box<dyn BaseObject> {
        Box::new(SpecObject::with_state(
            Arc::new(Register::new(initial.clone())),
            initial,
        ))
    }

    /// A linearizable register initialized to `⊥`.
    pub fn bottom_register() -> Box<dyn BaseObject> {
        register(Value::Bottom)
    }

    /// A linearizable compare&swap register initialized to `initial`.
    pub fn cas(initial: Value) -> Box<dyn BaseObject> {
        Box::new(SpecObject::with_state(
            Arc::new(CompareAndSwap::new(initial.clone())),
            initial,
        ))
    }

    /// A linearizable test&set object, initially unset.
    pub fn test_and_set() -> Box<dyn BaseObject> {
        Box::new(SpecObject::new(Arc::new(TestAndSet::new())))
    }

    /// A linearizable consensus object, initially undecided.
    pub fn consensus() -> Box<dyn BaseObject> {
        Box::new(SpecObject::new(Arc::new(Consensus::new())))
    }
}

/// An append-only, single-writer announce log: `append(v)` adds a value (only
/// the owning process is expected to call it) and `read_all()` returns the
/// list of values appended so far.
///
/// This is the register structure used by the Figure 1 wrapper (Proposition
/// 11): the paper uses an unbounded array `R_i[0, 1, 2, …]` of single-writer
/// registers per process; a single append-only log per process preserves the
/// algorithm's structure (announce before computing, scan all announcements)
/// while staying finite-state per configuration.
#[derive(Debug, Clone, Default)]
pub struct AnnounceLog {
    entries: Vec<Value>,
}

impl AnnounceLog {
    /// Creates an empty announce log.
    pub fn new() -> Self {
        AnnounceLog {
            entries: Vec::new(),
        }
    }

    /// The `append(v)` invocation.
    pub fn append(v: Value) -> Invocation {
        Invocation::unary("append", v)
    }

    /// The `read_all()` invocation.
    pub fn read_all() -> Invocation {
        Invocation::nullary("read_all")
    }
}

impl BaseObject for AnnounceLog {
    fn invoke(&mut self, _process: ProcessId, invocation: &Invocation) -> Value {
        match invocation.method() {
            "append" => {
                let v = invocation
                    .arg(0)
                    .cloned()
                    .expect("append requires an argument");
                self.entries.push(v);
                Value::Unit
            }
            "read_all" => Value::List(self.entries.clone()),
            other => panic!("invalid announce-log invocation: {other}"),
        }
    }

    fn clone_box(&self) -> Box<dyn BaseObject> {
        Box::new(self.clone())
    }

    fn state_value(&self) -> Value {
        Value::List(self.entries.clone())
    }

    fn type_name(&self) -> String {
        "announce-log".to_owned()
    }

    // Deliberately left `PidDependence::Opaque` (the default): the log itself
    // ignores the caller's identity, but the *values* appended by the Figure 1
    // wrapper embed process ids, which a renaming could not reach.

    // A transient fault on an announce log *loses one announcement* — the
    // channel-fault model of Dolev et al. transplanted to the paper's
    // announce-before-compute structure.  Variant `i` removes entry `i`.
    fn corruption_count(&self) -> usize {
        self.entries.len()
    }

    fn corrupt(&mut self, index: usize) {
        assert!(
            index < self.entries.len(),
            "corrupt({index}) out of range for announce-log ({} entries)",
            self.entries.len()
        );
        self.entries.remove(index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_spec::{CompareAndSwap, FetchIncrement, Register};

    #[test]
    fn spec_object_register_behaviour() {
        let mut r = objects::register(Value::from(0i64));
        assert_eq!(r.invoke(ProcessId(0), &Register::read()), Value::from(0i64));
        assert_eq!(
            r.invoke(ProcessId(1), &Register::write(Value::from(9i64))),
            Value::Unit
        );
        assert_eq!(r.invoke(ProcessId(0), &Register::read()), Value::from(9i64));
        assert_eq!(r.state_value(), Value::from(9i64));
        assert_eq!(r.type_name(), "register");
    }

    #[test]
    fn spec_object_cas_and_fetch_inc() {
        let mut c = objects::cas(Value::from(0i64));
        assert_eq!(
            c.invoke(
                ProcessId(0),
                &CompareAndSwap::cas(Value::from(0i64), Value::from(1i64))
            ),
            Value::Bool(true)
        );
        assert_eq!(
            c.invoke(
                ProcessId(1),
                &CompareAndSwap::cas(Value::from(0i64), Value::from(2i64))
            ),
            Value::Bool(false)
        );

        let mut x =
            SpecObject::with_state(Arc::new(FetchIncrement::starting_at(5)), Value::from(5i64));
        assert_eq!(
            x.invoke(ProcessId(0), &FetchIncrement::fetch_inc()),
            Value::from(5i64)
        );
        assert_eq!(
            x.invoke(ProcessId(0), &FetchIncrement::fetch_inc()),
            Value::from(6i64)
        );
    }

    #[test]
    fn cloning_is_deep() {
        let mut a = objects::register(Value::from(0i64));
        let mut b = a.clone();
        a.invoke(ProcessId(0), &Register::write(Value::from(1i64)));
        assert_eq!(a.state_value(), Value::from(1i64));
        assert_eq!(b.state_value(), Value::from(0i64));
        b.invoke(ProcessId(0), &Register::write(Value::from(2i64)));
        assert_eq!(a.state_value(), Value::from(1i64));
    }

    #[test]
    #[should_panic(expected = "invalid access")]
    fn invalid_invocation_panics() {
        let mut r = objects::register(Value::from(0i64));
        r.invoke(ProcessId(0), &Invocation::nullary("bogus"));
    }

    #[test]
    fn announce_log_appends_and_reads() {
        let mut log = AnnounceLog::new();
        assert_eq!(
            log.invoke(ProcessId(0), &AnnounceLog::read_all()),
            Value::list([])
        );
        log.invoke(ProcessId(0), &AnnounceLog::append(Value::from(3i64)));
        log.invoke(ProcessId(0), &AnnounceLog::append(Value::sym("x")));
        assert_eq!(
            log.invoke(ProcessId(1), &AnnounceLog::read_all()),
            Value::list([Value::from(3i64), Value::sym("x")])
        );
        assert_eq!(log.type_name(), "announce-log");
    }
}
