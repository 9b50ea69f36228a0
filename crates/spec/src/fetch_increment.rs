//! The fetch&increment counter — the central object of the paper's Section 5.

use crate::invocation::name;
use crate::{Invocation, ObjectType, Value};

/// A fetch&increment object.
///
/// It "stores a natural number and provides a single operation, `fetch_inc`,
/// which adds one to the value stored and returns the old value" (paper,
/// Section 3.2).  The object is deterministic and requires synchronization
/// *forever* — which is exactly why its eventually linearizable
/// implementations turn out to be as powerful as linearizable ones
/// (Proposition 18).
///
/// # Example
///
/// ```
/// use evlin_spec::{FetchIncrement, ObjectType, Value};
///
/// let fi = FetchIncrement::new();
/// let (r, q) = fi
///     .apply_deterministic(&Value::from(41i64), &FetchIncrement::fetch_inc())
///     .unwrap();
/// assert_eq!(r, Value::from(41i64));
/// assert_eq!(q, Value::from(42i64));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FetchIncrement {
    initial: i64,
}

impl FetchIncrement {
    /// Creates a fetch&increment object initialized to `0`.
    pub fn new() -> Self {
        FetchIncrement { initial: 0 }
    }

    /// Creates a fetch&increment object with an arbitrary initial value —
    /// the Proposition 18 transformation produces implementations that start
    /// "from a different initial state of the counter".
    pub fn starting_at(initial: i64) -> Self {
        FetchIncrement { initial }
    }

    /// The `fetch_inc()` invocation.
    pub fn fetch_inc() -> Invocation {
        Invocation::nullary(name::FETCH_INC)
    }

    /// The initial counter value.
    pub fn initial(&self) -> i64 {
        self.initial
    }
}

impl ObjectType for FetchIncrement {
    fn name(&self) -> &str {
        "fetch&increment"
    }

    fn initial_states(&self) -> Vec<Value> {
        vec![Value::from(self.initial)]
    }

    fn for_each_transition(
        &self,
        state: &Value,
        invocation: &Invocation,
        visit: &mut dyn FnMut(Value, Value),
    ) {
        if let (Some(v), name::FETCH_INC, []) =
            (state.as_int(), invocation.method(), invocation.args())
        {
            visit(Value::from(v), Value::from(v + 1));
        }
    }

    fn sample_invocations(&self) -> Vec<Invocation> {
        vec![FetchIncrement::fetch_inc()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transition;

    #[test]
    fn fetch_inc_returns_old_value() {
        let fi = FetchIncrement::new();
        let ts = fi.transitions(&Value::from(0i64), &FetchIncrement::fetch_inc());
        assert_eq!(
            ts,
            vec![Transition::new(Value::from(0i64), Value::from(1i64))]
        );
    }

    #[test]
    fn custom_initial_state() {
        let fi = FetchIncrement::starting_at(10);
        assert_eq!(fi.initial_states(), vec![Value::from(10i64)]);
        assert_eq!(fi.initial(), 10);
    }

    #[test]
    fn is_deterministic() {
        assert!(FetchIncrement::new().is_deterministic());
    }

    #[test]
    fn rejects_bad_state_and_method() {
        let fi = FetchIncrement::new();
        assert!(fi
            .transitions(&Value::Unit, &FetchIncrement::fetch_inc())
            .is_empty());
        assert!(fi
            .transitions(&Value::from(0i64), &Invocation::nullary("read"))
            .is_empty());
    }

    #[test]
    fn sequence_of_increments_counts_up() {
        let fi = FetchIncrement::new();
        let mut state = Value::from(0i64);
        for expect in 0..10i64 {
            let (r, next) = fi
                .apply_deterministic(&state, &FetchIncrement::fetch_inc())
                .unwrap();
            assert_eq!(r, Value::from(expect));
            state = next;
        }
        assert_eq!(state, Value::from(10i64));
    }
}
