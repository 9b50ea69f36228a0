//! Test&set objects.

use crate::invocation::name;
use crate::{Invocation, ObjectType, Value};

/// A test&set object.
///
/// `test_and_set()` returns `0` to the first operation linearized and `1` to
/// every later one.  The paper uses it as the canonical example of a
/// long-lived type whose behaviour is "interesting only in a finite prefix of
/// each execution", which is why it has a *trivial* eventually linearizable
/// implementation using no shared memory at all (Section 4).
///
/// The state is `Bool(false)` (unset) or `Bool(true)` (set).
///
/// # Example
///
/// ```
/// use evlin_spec::{TestAndSet, ObjectType, Value};
///
/// let ts = TestAndSet::new();
/// let (r, q) = ts
///     .apply_deterministic(&Value::Bool(false), &TestAndSet::test_and_set())
///     .unwrap();
/// assert_eq!(r, Value::from(0i64));
/// assert_eq!(q, Value::Bool(true));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TestAndSet;

impl TestAndSet {
    /// Creates a test&set object in the unset state.
    pub fn new() -> Self {
        TestAndSet
    }

    /// The `test_and_set()` invocation.
    pub fn test_and_set() -> Invocation {
        Invocation::nullary(name::TEST_AND_SET)
    }
}

impl ObjectType for TestAndSet {
    fn name(&self) -> &str {
        "test&set"
    }

    fn initial_states(&self) -> Vec<Value> {
        vec![Value::Bool(false)]
    }

    fn for_each_transition(
        &self,
        state: &Value,
        invocation: &Invocation,
        visit: &mut dyn FnMut(Value, Value),
    ) {
        if invocation.method() != name::TEST_AND_SET || !invocation.args().is_empty() {
            return;
        }
        match state.as_bool() {
            Some(false) => visit(Value::from(0i64), Value::Bool(true)),
            Some(true) => visit(Value::from(1i64), Value::Bool(true)),
            None => {}
        }
    }

    fn sample_invocations(&self) -> Vec<Invocation> {
        vec![TestAndSet::test_and_set()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn winner_gets_zero_then_everyone_gets_one() {
        let t = TestAndSet::new();
        let mut state = Value::Bool(false);
        let (r0, next) = t
            .apply_deterministic(&state, &TestAndSet::test_and_set())
            .unwrap();
        state = next;
        assert_eq!(r0, Value::from(0i64));
        for _ in 0..5 {
            let (r, next) = t
                .apply_deterministic(&state, &TestAndSet::test_and_set())
                .unwrap();
            assert_eq!(r, Value::from(1i64));
            state = next;
        }
    }

    #[test]
    fn is_deterministic() {
        assert!(TestAndSet::new().is_deterministic());
    }

    #[test]
    fn rejects_bad_state_and_method() {
        let t = TestAndSet::new();
        assert!(t
            .transitions(&Value::Unit, &TestAndSet::test_and_set())
            .is_empty());
        assert!(t
            .transitions(&Value::Bool(false), &Invocation::nullary("reset"))
            .is_empty());
    }
}
