//! Plain counters (increment + read), weaker than fetch&increment.

use crate::invocation::name;
use crate::{Invocation, ObjectType, Value};

/// A counter with separate `inc()` and `read()` operations.
///
/// Unlike [`crate::FetchIncrement`], an increment does not observe the
/// counter value, so a counter is a strictly weaker synchronization object.
/// It is the natural specification for the introduction's reference-counting
/// scenario, where an eventually consistent implementation batches
/// increments locally and lets reads return temporarily stale values.
///
/// Operations:
/// * `inc()` → `Unit`, adds one to the state,
/// * `add(k)` → `Unit`, adds `k` (used by batched implementations),
/// * `read()` → the current value.
///
/// # Example
///
/// ```
/// use evlin_spec::{Counter, ObjectType, Value};
///
/// let c = Counter::new();
/// let (_, q) = c.apply_deterministic(&Value::from(0i64), &Counter::inc()).unwrap();
/// let (r, _) = c.apply_deterministic(&q, &Counter::read()).unwrap();
/// assert_eq!(r, Value::from(1i64));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter {
    initial: i64,
}

impl Counter {
    /// Creates a counter initialized to zero.
    pub fn new() -> Self {
        Counter { initial: 0 }
    }

    /// Creates a counter with an arbitrary initial value.
    pub fn starting_at(initial: i64) -> Self {
        Counter { initial }
    }

    /// The `inc()` invocation.
    pub fn inc() -> Invocation {
        Invocation::nullary(name::INC)
    }

    /// The `add(k)` invocation.
    pub fn add(k: i64) -> Invocation {
        Invocation::unary(name::ADD, Value::from(k))
    }

    /// The `read()` invocation.
    pub fn read() -> Invocation {
        Invocation::nullary(name::READ)
    }
}

impl ObjectType for Counter {
    fn name(&self) -> &str {
        "counter"
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
        let Some(v) = state.as_int() else {
            return;
        };
        match (invocation.method(), invocation.args()) {
            (name::INC, []) => visit(Value::Unit, Value::from(v + 1)),
            (name::ADD, [k, ..]) => {
                if let Some(k) = k.as_int() {
                    visit(Value::Unit, Value::from(v + k));
                }
            }
            (name::READ, []) => visit(Value::from(v), Value::from(v)),
            _ => {}
        }
    }

    fn sample_invocations(&self) -> Vec<Invocation> {
        vec![Counter::inc(), Counter::read(), Counter::add(2)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inc_read_and_add() {
        let c = Counter::new();
        let mut state = Value::from(0i64);
        for _ in 0..3 {
            let (r, next) = c.apply_deterministic(&state, &Counter::inc()).unwrap();
            assert_eq!(r, Value::Unit);
            state = next;
        }
        let (r, state) = c.apply_deterministic(&state, &Counter::add(4)).unwrap();
        assert_eq!(r, Value::Unit);
        let (r, _) = c.apply_deterministic(&state, &Counter::read()).unwrap();
        assert_eq!(r, Value::from(7i64));
    }

    #[test]
    fn is_deterministic() {
        assert!(Counter::new().is_deterministic());
    }

    #[test]
    fn starting_at_sets_initial_state() {
        assert_eq!(
            Counter::starting_at(-2).initial_states(),
            vec![Value::from(-2i64)]
        );
    }

    #[test]
    fn malformed_invocations_rejected() {
        let c = Counter::new();
        assert!(c.transitions(&Value::Unit, &Counter::inc()).is_empty());
        assert!(c
            .transitions(&Value::from(0i64), &Invocation::nullary("add"))
            .is_empty());
        assert!(c
            .transitions(&Value::from(0i64), &Invocation::nullary("decrement"))
            .is_empty());
    }
}
