//! Read/write registers.

use crate::invocation::name;
use crate::{Invocation, ObjectType, Value};

/// A multi-reader multi-writer read/write register.
///
/// Operations:
/// * `read()` → current value,
/// * `write(v)` → `Unit`, setting the state to `v`.
///
/// The register is deterministic.  Its state is the stored [`Value`].
/// The sampled invocations write the values of `sample_domain`, which
/// defaults to `{0, 1}` plus the initial value.
///
/// # Example
///
/// ```
/// use evlin_spec::{Register, ObjectType, Invocation, Value};
///
/// let reg = Register::new(Value::from(0i64));
/// let (resp, next) = reg
///     .apply_deterministic(&Value::from(0i64), &Invocation::unary("write", Value::from(9i64)))
///     .unwrap();
/// assert_eq!(resp, Value::Unit);
/// assert_eq!(next, Value::from(9i64));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Register {
    initial: Value,
    sample_domain: Vec<Value>,
}

impl Register {
    /// Creates a register with the given initial value and the default sample
    /// domain `{initial, 0, 1}`.
    pub fn new(initial: Value) -> Self {
        let mut sample_domain = vec![initial.clone(), Value::from(0i64), Value::from(1i64)];
        sample_domain.dedup();
        Register {
            initial,
            sample_domain,
        }
    }

    /// Creates a register initialized to `⊥`, as used for announce arrays and
    /// the Proposition 16 `Proposal` registers.
    pub fn new_bottom() -> Self {
        Register::new(Value::Bottom)
    }

    /// Replaces the sample domain used by [`ObjectType::sample_invocations`].
    pub fn with_sample_domain(mut self, domain: Vec<Value>) -> Self {
        self.sample_domain = domain;
        self
    }

    /// The initial value of the register.
    pub fn initial(&self) -> &Value {
        &self.initial
    }
}

impl Default for Register {
    fn default() -> Self {
        Register::new(Value::from(0i64))
    }
}

impl ObjectType for Register {
    fn name(&self) -> &str {
        "register"
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
            _ => {}
        }
    }

    fn sample_invocations(&self) -> Vec<Invocation> {
        let mut invs = vec![Invocation::nullary(name::READ)];
        for v in &self.sample_domain {
            invs.push(Invocation::unary(name::WRITE, v.clone()));
        }
        invs
    }
}

/// Convenience constructors for register invocations.
impl Register {
    /// The `read()` invocation.
    pub fn read() -> Invocation {
        Invocation::nullary(name::READ)
    }

    /// The `write(v)` invocation.
    pub fn write(v: Value) -> Invocation {
        Invocation::unary(name::WRITE, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transition;

    #[test]
    fn read_returns_state_and_preserves_it() {
        let r = Register::new(Value::from(5i64));
        let ts = r.transitions(&Value::from(5i64), &Register::read());
        assert_eq!(
            ts,
            vec![Transition::new(Value::from(5i64), Value::from(5i64))]
        );
    }

    #[test]
    fn write_updates_state() {
        let r = Register::default();
        let ts = r.transitions(&Value::from(0i64), &Register::write(Value::from(3i64)));
        assert_eq!(ts, vec![Transition::new(Value::Unit, Value::from(3i64))]);
    }

    #[test]
    fn unknown_method_and_missing_arg_are_rejected() {
        let r = Register::default();
        assert!(r
            .transitions(&Value::from(0i64), &Invocation::nullary("cas"))
            .is_empty());
        assert!(r
            .transitions(&Value::from(0i64), &Invocation::nullary("write"))
            .is_empty());
    }

    #[test]
    fn register_is_deterministic() {
        assert!(Register::default().is_deterministic());
        assert!(Register::new_bottom().is_deterministic());
    }

    #[test]
    fn bottom_register_starts_at_bottom() {
        assert_eq!(Register::new_bottom().initial_states(), vec![Value::Bottom]);
    }

    #[test]
    fn sample_invocations_include_reads_and_writes() {
        let invs = Register::default().sample_invocations();
        assert!(invs.contains(&Register::read()));
        assert!(invs.iter().any(|i| i.method() == "write"));
    }
}
