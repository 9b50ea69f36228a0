//! Compare&swap registers — the hardware primitive the introduction talks about.

use crate::invocation::name;
use crate::{Invocation, ObjectType, Value};

/// A compare&swap register.
///
/// Operations:
/// * `read()` → current value,
/// * `write(v)` → `Unit`,
/// * `cas(expected, new)` → `Bool`: if the current value equals `expected`
///   the state becomes `new` and the response is `true`, otherwise the state
///   is unchanged and the response is `false`.
///
/// The introduction of the paper motivates eventual linearizability with a
/// fetch&increment counter "typically implemented in software using the
/// system's compare&swap objects"; this type is that base object.
///
/// # Example
///
/// ```
/// use evlin_spec::{CompareAndSwap, ObjectType, Value};
///
/// let cas = CompareAndSwap::new(Value::from(0i64));
/// let (ok, q) = cas
///     .apply_deterministic(&Value::from(0i64), &CompareAndSwap::cas(Value::from(0i64), Value::from(1i64)))
///     .unwrap();
/// assert_eq!(ok, Value::Bool(true));
/// assert_eq!(q, Value::from(1i64));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompareAndSwap {
    initial: Value,
    sample_domain: Vec<Value>,
}

impl CompareAndSwap {
    /// Creates a compare&swap register with the given initial value.
    pub fn new(initial: Value) -> Self {
        let mut sample_domain = vec![initial.clone(), Value::from(0i64), Value::from(1i64)];
        sample_domain.dedup();
        CompareAndSwap {
            initial,
            sample_domain,
        }
    }

    /// Replaces the sample domain used by [`ObjectType::sample_invocations`].
    pub fn with_sample_domain(mut self, domain: Vec<Value>) -> Self {
        self.sample_domain = domain;
        self
    }

    /// The `read()` invocation.
    pub fn read() -> Invocation {
        Invocation::nullary(name::READ)
    }

    /// The `write(v)` invocation.
    pub fn write(v: Value) -> Invocation {
        Invocation::unary(name::WRITE, v)
    }

    /// The `cas(expected, new)` invocation.
    pub fn cas(expected: Value, new: Value) -> Invocation {
        Invocation::binary(name::CAS, expected, new)
    }
}

impl Default for CompareAndSwap {
    fn default() -> Self {
        CompareAndSwap::new(Value::from(0i64))
    }
}

impl ObjectType for CompareAndSwap {
    fn name(&self) -> &str {
        "compare&swap"
    }

    fn initial_states(&self) -> Vec<Value> {
        vec![self.initial.clone()]
    }

    fn for_each_transition(
        &self,
        state: &Value,
        invocation: &Invocation,
        visit: &mut dyn FnMut(Value, Value),
    ) {
        match (invocation.method(), invocation.args()) {
            (name::READ, []) => visit(state.clone(), state.clone()),
            (name::WRITE, [v, ..]) => visit(Value::Unit, v.clone()),
            (name::CAS, [expected, new, ..]) => {
                if state == expected {
                    visit(Value::Bool(true), new.clone());
                } else {
                    visit(Value::Bool(false), state.clone());
                }
            }
            _ => {}
        }
    }

    fn sample_invocations(&self) -> Vec<Invocation> {
        let mut invs = vec![CompareAndSwap::read()];
        for v in &self.sample_domain {
            invs.push(CompareAndSwap::write(v.clone()));
            for w in &self.sample_domain {
                invs.push(CompareAndSwap::cas(v.clone(), w.clone()));
            }
        }
        invs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transition;

    #[test]
    fn successful_cas_swaps() {
        let c = CompareAndSwap::default();
        let ts = c.transitions(
            &Value::from(0i64),
            &CompareAndSwap::cas(Value::from(0i64), Value::from(7i64)),
        );
        assert_eq!(
            ts,
            vec![Transition::new(Value::Bool(true), Value::from(7i64))]
        );
    }

    #[test]
    fn failed_cas_leaves_state() {
        let c = CompareAndSwap::default();
        let ts = c.transitions(
            &Value::from(5i64),
            &CompareAndSwap::cas(Value::from(0i64), Value::from(7i64)),
        );
        assert_eq!(
            ts,
            vec![Transition::new(Value::Bool(false), Value::from(5i64))]
        );
    }

    #[test]
    fn read_and_write_behave_like_a_register() {
        let c = CompareAndSwap::default();
        assert_eq!(
            c.transitions(&Value::from(4i64), &CompareAndSwap::read()),
            vec![Transition::new(Value::from(4i64), Value::from(4i64))]
        );
        assert_eq!(
            c.transitions(
                &Value::from(4i64),
                &CompareAndSwap::write(Value::from(9i64))
            ),
            vec![Transition::new(Value::Unit, Value::from(9i64))]
        );
    }

    #[test]
    fn is_deterministic() {
        assert!(CompareAndSwap::default().is_deterministic());
    }

    #[test]
    fn malformed_invocations_rejected() {
        let c = CompareAndSwap::default();
        assert!(c
            .transitions(&Value::from(0i64), &Invocation::nullary("cas"))
            .is_empty());
        assert!(c
            .transitions(
                &Value::from(0i64),
                &Invocation::unary("cas", Value::from(0i64))
            )
            .is_empty());
        assert!(c
            .transitions(&Value::from(0i64), &Invocation::nullary("swap"))
            .is_empty());
    }
}
