//! Consensus objects.

use crate::invocation::name;
use crate::{Invocation, ObjectType, Value};

/// A (long-lived) consensus object.
///
/// It "provides one operation `propose(v)` ... Each propose operation returns
/// the value used as the argument of the first propose operation to be
/// linearized" (paper, Section 4).
///
/// The state is either `⊥` (nothing decided yet) or the decided value.  The
/// object is deterministic and — despite being the hardest object to
/// implement linearizably — it has a trivial *eventually linearizable*
/// implementation from registers (Proposition 16).
///
/// # Example
///
/// ```
/// use evlin_spec::{Consensus, ObjectType, Value};
///
/// let c = Consensus::new();
/// let q0 = Value::Bottom;
/// let (r, q1) = c
///     .apply_deterministic(&q0, &Consensus::propose(Value::from(7i64)))
///     .unwrap();
/// assert_eq!(r, Value::from(7i64)); // first proposal wins
/// let (r, _) = c
///     .apply_deterministic(&q1, &Consensus::propose(Value::from(9i64)))
///     .unwrap();
/// assert_eq!(r, Value::from(7i64)); // later proposals see the decision
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Consensus {
    sample_domain: Vec<Value>,
}

impl Consensus {
    /// Creates a consensus object with the default sample domain `{0, 1}`.
    pub fn new() -> Self {
        Consensus {
            sample_domain: vec![Value::from(0i64), Value::from(1i64)],
        }
    }

    /// Replaces the sample domain used by [`ObjectType::sample_invocations`].
    pub fn with_sample_domain(mut self, domain: Vec<Value>) -> Self {
        self.sample_domain = domain;
        self
    }

    /// The `propose(v)` invocation.
    pub fn propose(v: Value) -> Invocation {
        Invocation::unary(name::PROPOSE, v)
    }
}

impl ObjectType for Consensus {
    fn name(&self) -> &str {
        "consensus"
    }

    fn initial_states(&self) -> Vec<Value> {
        vec![Value::Bottom]
    }

    fn for_each_transition(
        &self,
        state: &Value,
        invocation: &Invocation,
        visit: &mut dyn FnMut(Value, Value),
    ) {
        let (name::PROPOSE, Some(proposal)) = (invocation.method(), invocation.arg(0)) else {
            return;
        };
        if state.is_bottom() {
            // First proposal to be linearized wins and becomes the state.
            visit(proposal.clone(), proposal.clone());
        } else {
            // Decision already made: every later proposal returns it.
            visit(state.clone(), state.clone());
        }
    }

    fn sample_invocations(&self) -> Vec<Invocation> {
        self.sample_domain
            .iter()
            .map(|v| Consensus::propose(v.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transition;

    #[test]
    fn first_proposal_decides() {
        let c = Consensus::new();
        let ts = c.transitions(&Value::Bottom, &Consensus::propose(Value::from(3i64)));
        assert_eq!(
            ts,
            vec![Transition::new(Value::from(3i64), Value::from(3i64))]
        );
    }

    #[test]
    fn later_proposals_adopt_decision() {
        let c = Consensus::new();
        let ts = c.transitions(&Value::from(3i64), &Consensus::propose(Value::from(8i64)));
        assert_eq!(
            ts,
            vec![Transition::new(Value::from(3i64), Value::from(3i64))]
        );
    }

    #[test]
    fn is_deterministic() {
        assert!(Consensus::new().is_deterministic());
    }

    #[test]
    fn rejects_unknown_method_and_missing_argument() {
        let c = Consensus::new();
        assert!(c
            .transitions(&Value::Bottom, &Invocation::nullary("decide"))
            .is_empty());
        assert!(c
            .transitions(&Value::Bottom, &Invocation::nullary("propose"))
            .is_empty());
    }

    #[test]
    fn agreement_and_validity_along_any_sequence() {
        // Sequentially, every response equals the first proposal (validity +
        // agreement of the sequential specification).
        let c = Consensus::new();
        let proposals = [5i64, 2, 9, 7];
        let mut state = Value::Bottom;
        let mut responses = Vec::new();
        for p in proposals {
            let (r, next) = c
                .apply_deterministic(&state, &Consensus::propose(Value::from(p)))
                .unwrap();
            responses.push(r);
            state = next;
        }
        assert!(responses.iter().all(|r| *r == Value::from(5i64)));
    }
}
