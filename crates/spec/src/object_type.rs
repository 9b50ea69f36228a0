//! The [`ObjectType`] trait: sequential specifications as transition relations.

use crate::{Invocation, Value};
use std::any::Any;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// One entry of a transition relation: applying `invocation` in the source
/// state produced `response` and moved the object to `next_state`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// The response returned by the operation.
    pub response: Value,
    /// The state of the object after the operation.
    pub next_state: Value,
}

impl Transition {
    /// Convenience constructor.
    pub fn new(response: Value, next_state: Value) -> Self {
        Transition {
            response,
            next_state,
        }
    }
}

/// Errors produced when interrogating a sequential specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The invocation is not part of the type's `INV` set, or the supplied
    /// state is not a valid state for the type.
    InvalidInvocation {
        /// Name of the object type.
        type_name: String,
        /// The rejected invocation.
        invocation: Invocation,
    },
    /// `apply_deterministic` was called but the transition relation offers
    /// more than one outcome for this (state, invocation) pair.
    NotDeterministic {
        /// Name of the object type.
        type_name: String,
        /// Number of possible outcomes found.
        outcomes: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::InvalidInvocation {
                type_name,
                invocation,
            } => write!(
                f,
                "invocation {invocation} is not valid for type {type_name}"
            ),
            SpecError::NotDeterministic {
                type_name,
                outcomes,
            } => write!(
                f,
                "type {type_name} has {outcomes} outcomes where exactly one was expected"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// A sequential specification `(Q, Q0, INV, RES, δ)` of an object type
/// (paper, Section 3).
///
/// States are [`Value`]s; the transition relation is stated once, by
/// [`ObjectType::for_each_transition`], which hands every `(response,
/// next_state)` pair reachable by applying an invocation in a state to a
/// visitor.  Its contract is what the rest of the workspace relies on: for a
/// given state and invocation it makes finitely many calls, always the same
/// ones in the same order, so every type here has *finite non-determinism*
/// (an assumption several results of the paper require) and a search over it
/// visits transitions in a reproducible order.  [`ObjectType::transitions`]
/// collects that sequence into a vector and is not meant to be overridden; a
/// property test holds the two equal, order included, for every type.  A
/// type is *deterministic* when the visitor is always called exactly once.
///
/// Implementations must be `Send + Sync` so specifications can be shared by
/// the multi-threaded runtime harness.  They are also `Any`, so a checker
/// that specializes on one type (the monitor's fetch&increment fast path)
/// asks a `dyn ObjectType` what it *is* — `(ty as &dyn Any).is::<T>()` —
/// rather than trusting [`ObjectType::name`], which any type may claim.
pub trait ObjectType: Any + fmt::Debug + Send + Sync {
    /// A short human-readable name for the type, e.g. `"fetch&increment"`.
    fn name(&self) -> &str;

    /// The set `Q0` of initial states.  Must be non-empty.
    fn initial_states(&self) -> Vec<Value>;

    /// The transition relation restricted to `state` and `invocation`: calls
    /// `visit(response, next_state)` once per pair in `δ`, finitely often and
    /// in an order that depends on `state` and `invocation` alone.
    ///
    /// No call means the invocation is not enabled in that state (for total
    /// types this never happens).  Checkers call this on their hot path, so
    /// an implementation builds the pairs it hands over and nothing else.
    fn for_each_transition(
        &self,
        state: &Value,
        invocation: &Invocation,
        visit: &mut dyn FnMut(Value, Value),
    );

    /// The pairs [`ObjectType::for_each_transition`] visits, in its order.
    ///
    /// An empty vector means the invocation is not enabled in that state.
    fn transitions(&self, state: &Value, invocation: &Invocation) -> Vec<Transition> {
        let mut transitions = Vec::new();
        self.for_each_transition(state, invocation, &mut |response, next_state| {
            transitions.push(Transition::new(response, next_state));
        });
        transitions
    }

    /// A finite, representative sample of invocations used by state-space
    /// explorers, the triviality checker and random workload generators.
    ///
    /// For types whose invocation set is infinite (e.g. `write(v)` for every
    /// value `v`) this returns a small representative subset.
    fn sample_invocations(&self) -> Vec<Invocation>;

    /// Whether the type is deterministic: every (reachable state, sampled
    /// invocation) pair has exactly one outcome.
    ///
    /// The default implementation explores states reachable from the initial
    /// states via sampled invocations, up to `1024` states, and checks each.
    fn is_deterministic(&self) -> bool {
        let mut seen: BTreeSet<Value> = BTreeSet::new();
        let mut queue: VecDeque<Value> = self.initial_states().into();
        if self.initial_states().len() != 1 {
            // Multiple initial states are a (benign) form of non-determinism
            // about the starting point, but determinism of δ is what matters
            // here, so we still explore from each initial state.
        }
        while let Some(state) = queue.pop_front() {
            if !seen.insert(state.clone()) {
                continue;
            }
            if seen.len() > 1024 {
                break;
            }
            for inv in self.sample_invocations() {
                let outs = self.transitions(&state, &inv);
                if outs.len() != 1 {
                    return false;
                }
                queue.push_back(outs[0].next_state.clone());
            }
        }
        true
    }

    /// Applies `invocation` in `state` assuming the type is deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidInvocation`] if the invocation is not
    /// enabled, and [`SpecError::NotDeterministic`] if more than one outcome
    /// exists.
    fn apply_deterministic(
        &self,
        state: &Value,
        invocation: &Invocation,
    ) -> Result<(Value, Value), SpecError> {
        let (mut outcomes, mut first) = (0, None);
        self.for_each_transition(state, invocation, &mut |response, next_state| {
            outcomes += 1;
            first.get_or_insert((response, next_state));
        });
        match outcomes {
            0 => Err(SpecError::InvalidInvocation {
                type_name: self.name().to_owned(),
                invocation: invocation.clone(),
            }),
            1 => Ok(first.expect("one outcome visited")),
            n => Err(SpecError::NotDeterministic {
                type_name: self.name().to_owned(),
                outcomes: n,
            }),
        }
    }

    /// Whether `(state, invocation, response)` is allowed by `δ`, i.e. there
    /// is a transition with that response; if so, returns the possible next
    /// states.
    fn next_states_for_response(
        &self,
        state: &Value,
        invocation: &Invocation,
        response: &Value,
    ) -> Vec<Value> {
        let mut next_states = Vec::new();
        self.for_each_transition(state, invocation, &mut |answer, next_state| {
            if answer == *response {
                next_states.push(next_state);
            }
        });
        next_states
    }

    /// Enumerates the states reachable from `from` by applying sampled
    /// invocations, stopping after `limit` distinct states.
    ///
    /// Used by the triviality checker (Definition 13) and by explorers.
    fn reachable_states(&self, from: &Value, limit: usize) -> Vec<Value> {
        let mut seen: BTreeSet<Value> = BTreeSet::new();
        let mut order: Vec<Value> = Vec::new();
        let mut queue: VecDeque<Value> = VecDeque::new();
        queue.push_back(from.clone());
        while let Some(state) = queue.pop_front() {
            if !seen.insert(state.clone()) {
                continue;
            }
            order.push(state.clone());
            if order.len() >= limit {
                break;
            }
            for inv in self.sample_invocations() {
                for t in self.transitions(&state, &inv) {
                    if !seen.contains(&t.next_state) {
                        queue.push_back(t.next_state);
                    }
                }
            }
        }
        order
    }
}

/// Blanket helpers available on `dyn ObjectType` references via an extension
/// pattern are unnecessary: all helpers above are default trait methods so
/// they are directly available on trait objects.
#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic toy type used to exercise the default methods:
    /// a "mod-3 counter" with `inc() -> old value`.
    #[derive(Debug)]
    struct Mod3;

    impl ObjectType for Mod3 {
        fn name(&self) -> &str {
            "mod3"
        }
        fn initial_states(&self) -> Vec<Value> {
            vec![Value::from(0i64)]
        }
        fn for_each_transition(
            &self,
            state: &Value,
            invocation: &Invocation,
            visit: &mut dyn FnMut(Value, Value),
        ) {
            if let (Some(v), "inc") = (state.as_int(), invocation.method()) {
                visit(Value::from(v), Value::from((v + 1) % 3));
            }
        }
        fn sample_invocations(&self) -> Vec<Invocation> {
            vec![Invocation::nullary("inc")]
        }
    }

    /// A non-deterministic toy type: `flip()` may return either boolean.
    #[derive(Debug)]
    struct Coin;

    impl ObjectType for Coin {
        fn name(&self) -> &str {
            "coin"
        }
        fn initial_states(&self) -> Vec<Value> {
            vec![Value::Unit]
        }
        fn for_each_transition(
            &self,
            _state: &Value,
            invocation: &Invocation,
            visit: &mut dyn FnMut(Value, Value),
        ) {
            if invocation.method() == "flip" {
                visit(Value::Bool(false), Value::Unit);
                visit(Value::Bool(true), Value::Unit);
            }
        }
        fn sample_invocations(&self) -> Vec<Invocation> {
            vec![Invocation::nullary("flip")]
        }
    }

    #[test]
    fn deterministic_detection() {
        assert!(Mod3.is_deterministic());
        assert!(!Coin.is_deterministic());
    }

    #[test]
    fn apply_deterministic_ok_and_errors() {
        let (r, q) = Mod3
            .apply_deterministic(&Value::from(2i64), &Invocation::nullary("inc"))
            .unwrap();
        assert_eq!(r, Value::from(2i64));
        assert_eq!(q, Value::from(0i64));

        let err = Mod3
            .apply_deterministic(&Value::from(0i64), &Invocation::nullary("nope"))
            .unwrap_err();
        assert!(matches!(err, SpecError::InvalidInvocation { .. }));

        let err = Coin
            .apply_deterministic(&Value::Unit, &Invocation::nullary("flip"))
            .unwrap_err();
        assert!(matches!(
            err,
            SpecError::NotDeterministic { outcomes: 2, .. }
        ));
    }

    #[test]
    fn reachable_states_explores_cycle() {
        let states = Mod3.reachable_states(&Value::from(0i64), 10);
        assert_eq!(states.len(), 3);
    }

    #[test]
    fn next_states_for_response_filters() {
        let next = Coin.next_states_for_response(
            &Value::Unit,
            &Invocation::nullary("flip"),
            &Value::Bool(true),
        );
        assert_eq!(next, vec![Value::Unit]);
        let next = Mod3.next_states_for_response(
            &Value::from(1i64),
            &Invocation::nullary("inc"),
            &Value::from(0i64),
        );
        assert!(next.is_empty());
    }

    #[test]
    fn spec_error_display() {
        let e = SpecError::InvalidInvocation {
            type_name: "t".into(),
            invocation: Invocation::nullary("x"),
        };
        assert!(format!("{e}").contains("not valid"));
        let e = SpecError::NotDeterministic {
            type_name: "t".into(),
            outcomes: 3,
        };
        assert!(format!("{e}").contains("3 outcomes"));
    }
}
