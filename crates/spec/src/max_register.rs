//! Max-registers: a simple monotone type used in triviality experiments.

use crate::invocation::name;
use crate::{Invocation, ObjectType, Value};

/// A max-register.
///
/// Operations:
/// * `write_max(v)` → `Unit`, the state becomes `max(state, v)`,
/// * `read_max()` → the largest value written so far.
///
/// Max-registers sit strictly between read/write registers and
/// fetch&increment in terms of synchronization requirements; the experiment
/// catalogue (E5) classifies them as non-trivial.
///
/// # Example
///
/// ```
/// use evlin_spec::{MaxRegister, ObjectType, Value};
///
/// let m = MaxRegister::new();
/// let (_, s) = m.apply_deterministic(&Value::from(0i64), &MaxRegister::write_max(5)).unwrap();
/// let (_, s) = m.apply_deterministic(&s, &MaxRegister::write_max(3)).unwrap();
/// let (r, _) = m.apply_deterministic(&s, &MaxRegister::read_max()).unwrap();
/// assert_eq!(r, Value::from(5i64));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaxRegister {
    initial: i64,
}

impl MaxRegister {
    /// Creates a max-register initialized to `0`.
    pub fn new() -> Self {
        MaxRegister { initial: 0 }
    }

    /// Creates a max-register with an arbitrary initial value.
    pub fn starting_at(initial: i64) -> Self {
        MaxRegister { initial }
    }

    /// The `write_max(v)` invocation.
    pub fn write_max(v: i64) -> Invocation {
        Invocation::unary(name::WRITE_MAX, Value::from(v))
    }

    /// The `read_max()` invocation.
    pub fn read_max() -> Invocation {
        Invocation::nullary(name::READ_MAX)
    }
}

impl ObjectType for MaxRegister {
    fn name(&self) -> &str {
        "max-register"
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
        let Some(cur) = state.as_int() else {
            return;
        };
        match (invocation.method(), invocation.args()) {
            (name::WRITE_MAX, [v, ..]) => {
                if let Some(v) = v.as_int() {
                    visit(Value::Unit, Value::from(cur.max(v)));
                }
            }
            (name::READ_MAX, []) => visit(Value::from(cur), Value::from(cur)),
            _ => {}
        }
    }

    fn sample_invocations(&self) -> Vec<Invocation> {
        vec![
            MaxRegister::read_max(),
            MaxRegister::write_max(1),
            MaxRegister::write_max(2),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transition;

    #[test]
    fn keeps_the_maximum() {
        let m = MaxRegister::new();
        let (_, s) = m
            .apply_deterministic(&Value::from(4i64), &MaxRegister::write_max(2))
            .unwrap();
        assert_eq!(s, Value::from(4i64));
        let (_, s) = m
            .apply_deterministic(&s, &MaxRegister::write_max(9))
            .unwrap();
        assert_eq!(s, Value::from(9i64));
    }

    #[test]
    fn read_does_not_change_state() {
        let m = MaxRegister::new();
        let ts = m.transitions(&Value::from(6i64), &MaxRegister::read_max());
        assert_eq!(
            ts,
            vec![Transition::new(Value::from(6i64), Value::from(6i64))]
        );
    }

    #[test]
    fn is_deterministic() {
        assert!(MaxRegister::new().is_deterministic());
    }

    #[test]
    fn malformed_invocations_rejected() {
        let m = MaxRegister::new();
        assert!(m
            .transitions(&Value::Unit, &MaxRegister::read_max())
            .is_empty());
        assert!(m
            .transitions(&Value::from(0i64), &Invocation::nullary("write_max"))
            .is_empty());
    }
}
