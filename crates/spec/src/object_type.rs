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
/// States are [`Value`]s; the transition relation is exposed through
/// [`ObjectType::transitions`], which returns every `(response, next_state)`
/// pair reachable by applying an invocation in a state.  A type is
/// *deterministic* when that set always has exactly one element, and has
/// *finite non-determinism* when it is always finite — which is guaranteed by
/// the `Vec` return type, so every `ObjectType` in this workspace has finite
/// non-determinism (an assumption several results of the paper require).
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

    /// The transition relation restricted to `state` and `invocation`:
    /// all `(response, next_state)` pairs in `δ`.
    ///
    /// Returning an empty vector means the invocation is not enabled in that
    /// state (for total types this never happens).
    fn transitions(&self, state: &Value, invocation: &Invocation) -> Vec<Transition>;

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
        let outs = self.transitions(state, invocation);
        match outs.len() {
            0 => Err(SpecError::InvalidInvocation {
                type_name: self.name().to_owned(),
                invocation: invocation.clone(),
            }),
            1 => {
                let t = outs.into_iter().next().expect("len checked");
                Ok((t.response, t.next_state))
            }
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
        self.transitions(state, invocation)
            .into_iter()
            .filter(|t| &t.response == response)
            .map(|t| t.next_state)
            .collect()
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
        fn transitions(&self, state: &Value, invocation: &Invocation) -> Vec<Transition> {
            let v = match state.as_int() {
                Some(v) => v,
                None => return Vec::new(),
            };
            match invocation.method() {
                "inc" => vec![Transition::new(Value::from(v), Value::from((v + 1) % 3))],
                _ => Vec::new(),
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
        fn transitions(&self, _state: &Value, invocation: &Invocation) -> Vec<Transition> {
            match invocation.method() {
                "flip" => vec![
                    Transition::new(Value::Bool(false), Value::Unit),
                    Transition::new(Value::Bool(true), Value::Unit),
                ],
                _ => Vec::new(),
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
