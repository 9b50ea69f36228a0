//! Definition 13: *trivial* deterministic types.
//!
//! "A deterministic type `T` is called trivial if and only if there is a
//! computable function `r` that maps each initial state `q0` and operation
//! `op` to a response `r(q0, op)` that is the correct response to `op` for
//! every state reachable from `q0`."
//!
//! Proposition 14 then shows that a deterministic type has a linearizable
//! obstruction-free implementation (for two processes) from eventually
//! linearizable objects **iff** it is trivial.  This module provides a
//! bounded decision procedure for triviality and, when a type is trivial,
//! returns the witnessing response function as an explicit table — that table
//! *is* the communication-free implementation promised by the proposition.

use crate::{Invocation, ObjectType, Value};
use std::collections::BTreeMap;

/// The result of the bounded triviality analysis of a deterministic type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Triviality {
    /// The type is trivial (up to the exploration bound): for every sampled
    /// operation there is a single response valid in every reachable state.
    /// The table maps each sampled invocation to that response.
    Trivial {
        /// The witnessing response function `op ↦ r(q0, op)` for the first
        /// initial state.
        responses: BTreeMap<Invocation, Value>,
    },
    /// The type is not trivial: a witness operation and two reachable states
    /// in which it must return different responses.
    NonTrivial {
        /// The operation whose correct response depends on the state.
        operation: Invocation,
        /// A reachable state where the operation returns `response_a`.
        state_a: Value,
        /// The response in `state_a`.
        response_a: Value,
        /// Another reachable state where the operation returns `response_b`.
        state_b: Value,
        /// The response in `state_b` (differs from `response_a`).
        response_b: Value,
    },
    /// The type is not deterministic, so Definition 13 does not apply.
    NotDeterministic,
}

impl Triviality {
    /// Returns `true` if the analysis concluded the type is trivial.
    pub fn is_trivial(&self) -> bool {
        matches!(self, Triviality::Trivial { .. })
    }
}

/// Analyses whether a deterministic type is trivial per Definition 13.
///
/// The analysis explores at most `state_limit` states reachable from each
/// initial state using the type's sampled invocations; triviality is decided
/// with respect to that reachable fragment.  For the finite-state types in
/// this workspace (registers over a finite sample domain, test&set,
/// consensus over a finite domain) the answer is exact; for unbounded types
/// (fetch&increment, counters, queues) a non-trivial verdict is exact while a
/// trivial verdict would only hold up to the bound (none of the bundled
/// unbounded types are trivial).
///
/// # Example
///
/// ```
/// use evlin_spec::{trivial, Register, FetchIncrement, Value};
///
/// assert!(!trivial::analyze(&Register::new(Value::from(0i64)), 64).is_trivial());
/// assert!(!trivial::analyze(&FetchIncrement::new(), 64).is_trivial());
/// ```
pub fn analyze<T: ObjectType + ?Sized>(ty: &T, state_limit: usize) -> Triviality {
    if !ty.is_deterministic() {
        return Triviality::NotDeterministic;
    }
    let invocations = ty.sample_invocations();
    let mut responses: BTreeMap<Invocation, Value> = BTreeMap::new();
    for q0 in ty.initial_states() {
        let reachable = ty.reachable_states(&q0, state_limit);
        for inv in &invocations {
            let mut seen: Option<(Value, Value)> = None; // (state, response)
            for state in &reachable {
                let outcome = match ty.apply_deterministic(state, inv) {
                    Ok((resp, _)) => resp,
                    Err(_) => continue, // operation not enabled in this state
                };
                match &seen {
                    None => {
                        seen = Some((state.clone(), outcome.clone()));
                        responses.entry(inv.clone()).or_insert(outcome);
                    }
                    Some((state_a, response_a)) => {
                        if *response_a != outcome {
                            return Triviality::NonTrivial {
                                operation: inv.clone(),
                                state_a: state_a.clone(),
                                response_a: response_a.clone(),
                                state_b: state.clone(),
                                response_b: outcome,
                            };
                        }
                    }
                }
            }
        }
    }
    Triviality::Trivial { responses }
}

/// A deliberately trivial deterministic type used in tests and in the E5
/// experiment catalogue: a "sticky gate" whose single operation `knock()`
/// always returns `ok` and never changes the (single) state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StickyGate;

impl StickyGate {
    /// Creates the gate.
    pub fn new() -> Self {
        StickyGate
    }

    /// The `knock()` invocation.
    pub fn knock() -> Invocation {
        Invocation::nullary("knock")
    }
}

impl ObjectType for StickyGate {
    fn name(&self) -> &str {
        "sticky-gate"
    }

    fn initial_states(&self) -> Vec<Value> {
        vec![Value::Unit]
    }

    fn for_each_transition(
        &self,
        state: &Value,
        invocation: &Invocation,
        visit: &mut dyn FnMut(Value, Value),
    ) {
        if invocation.method() == "knock" && state.is_unit() {
            visit(Value::sym("ok"), Value::Unit);
        }
    }

    fn sample_invocations(&self) -> Vec<Invocation> {
        vec![StickyGate::knock()]
    }
}

/// Another trivial type: a write-only "blind register" whose `write(v)`
/// returns `Unit` and whose value can never be read back.  Because no
/// response ever depends on the state, the type is trivial even though its
/// state changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlindRegister;

impl BlindRegister {
    /// Creates the blind register.
    pub fn new() -> Self {
        BlindRegister
    }

    /// The `write(v)` invocation.
    pub fn write(v: Value) -> Invocation {
        Invocation::unary("write", v)
    }
}

impl ObjectType for BlindRegister {
    fn name(&self) -> &str {
        "blind-register"
    }

    fn initial_states(&self) -> Vec<Value> {
        vec![Value::from(0i64)]
    }

    fn for_each_transition(
        &self,
        _state: &Value,
        invocation: &Invocation,
        visit: &mut dyn FnMut(Value, Value),
    ) {
        if let ("write", [v, ..]) = (invocation.method(), invocation.args()) {
            visit(Value::Unit, v.clone());
        }
    }

    fn sample_invocations(&self) -> Vec<Invocation> {
        vec![
            BlindRegister::write(Value::from(0i64)),
            BlindRegister::write(Value::from(1i64)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Consensus, Counter, FetchIncrement, MaxRegister, Queue, Register, TestAndSet};

    #[test]
    fn sticky_gate_is_trivial_with_response_table() {
        match analyze(&StickyGate::new(), 32) {
            Triviality::Trivial { responses } => {
                assert_eq!(responses.get(&StickyGate::knock()), Some(&Value::sym("ok")));
            }
            other => panic!("expected trivial, got {other:?}"),
        }
    }

    #[test]
    fn blind_register_is_trivial() {
        assert!(analyze(&BlindRegister::new(), 32).is_trivial());
    }

    #[test]
    fn register_is_not_trivial() {
        // Proposition 14's remark: "even weak objects like read/write
        // registers do not have linearizable implementations from any
        // collection of eventually linearizable objects" — because they are
        // not trivial.
        match analyze(&Register::new(Value::from(0i64)), 64) {
            Triviality::NonTrivial { operation, .. } => {
                assert_eq!(operation.method(), "read");
            }
            other => panic!("expected non-trivial, got {other:?}"),
        }
    }

    #[test]
    fn paper_types_are_not_trivial() {
        assert!(!analyze(&FetchIncrement::new(), 64).is_trivial());
        assert!(!analyze(&TestAndSet::new(), 64).is_trivial());
        assert!(!analyze(&Consensus::new(), 64).is_trivial());
        assert!(!analyze(&Counter::new(), 64).is_trivial());
        assert!(!analyze(&Queue::new(), 64).is_trivial());
        assert!(!analyze(&MaxRegister::new(), 64).is_trivial());
    }

    #[test]
    fn non_trivial_witness_is_consistent() {
        if let Triviality::NonTrivial {
            operation,
            state_a,
            response_a,
            state_b,
            response_b,
        } = analyze(&FetchIncrement::new(), 64)
        {
            let fi = FetchIncrement::new();
            assert_ne!(response_a, response_b);
            assert_eq!(
                fi.apply_deterministic(&state_a, &operation).unwrap().0,
                response_a
            );
            assert_eq!(
                fi.apply_deterministic(&state_b, &operation).unwrap().0,
                response_b
            );
        } else {
            panic!("fetch&increment should be non-trivial");
        }
    }
}
