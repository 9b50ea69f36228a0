//! FIFO queues — a classic non-trivial type used in tests of the checkers.

use crate::invocation::name;
use crate::{Invocation, ObjectType, Value};

/// A FIFO queue.
///
/// Operations:
/// * `enqueue(v)` → `Unit`,
/// * `dequeue()` → the oldest element, or `⊥` if the queue is empty.
///
/// The state is a [`Value::List`] holding the queued elements from oldest to
/// newest.  Queues are not used by the paper directly, but they are a
/// standard non-trivial, consensus-number-2 type; the checkers and the
/// Theorem 12 experiments use them as an additional data point.
///
/// # Example
///
/// ```
/// use evlin_spec::{Queue, ObjectType, Value};
///
/// let q = Queue::new();
/// let empty = Value::list([]);
/// let (_, s) = q.apply_deterministic(&empty, &Queue::enqueue(Value::from(1i64))).unwrap();
/// let (r, s) = q.apply_deterministic(&s, &Queue::dequeue()).unwrap();
/// assert_eq!(r, Value::from(1i64));
/// let (r, _) = q.apply_deterministic(&s, &Queue::dequeue()).unwrap();
/// assert_eq!(r, Value::Bottom);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Queue {
    sample_domain: Vec<Value>,
}

impl Queue {
    /// Creates an initially empty queue.
    pub fn new() -> Self {
        Queue {
            sample_domain: vec![Value::from(0i64), Value::from(1i64)],
        }
    }

    /// Replaces the sample domain used by [`ObjectType::sample_invocations`].
    pub fn with_sample_domain(mut self, domain: Vec<Value>) -> Self {
        self.sample_domain = domain;
        self
    }

    /// The `enqueue(v)` invocation.
    pub fn enqueue(v: Value) -> Invocation {
        Invocation::unary(name::ENQUEUE, v)
    }

    /// The `dequeue()` invocation.
    pub fn dequeue() -> Invocation {
        Invocation::nullary(name::DEQUEUE)
    }
}

impl ObjectType for Queue {
    fn name(&self) -> &str {
        "queue"
    }

    fn initial_states(&self) -> Vec<Value> {
        vec![Value::list([])]
    }

    fn for_each_transition(
        &self,
        state: &Value,
        invocation: &Invocation,
        visit: &mut dyn FnMut(Value, Value),
    ) {
        let Some(items) = state.as_list() else {
            return;
        };
        match (invocation.method(), invocation.args()) {
            (name::ENQUEUE, [v, ..]) => {
                let mut next = Vec::with_capacity(items.len() + 1);
                next.extend_from_slice(items);
                next.push(v.clone());
                visit(Value::Unit, Value::List(next));
            }
            (name::DEQUEUE, []) => match items.split_first() {
                None => visit(Value::Bottom, Value::list([])),
                Some((head, rest)) => visit(head.clone(), Value::List(rest.to_vec())),
            },
            _ => {}
        }
    }

    fn sample_invocations(&self) -> Vec<Invocation> {
        let mut invs = vec![Queue::dequeue()];
        for v in &self.sample_domain {
            invs.push(Queue::enqueue(v.clone()));
        }
        invs
    }

    fn is_deterministic(&self) -> bool {
        // The reachable state space of a queue is unbounded; the default
        // bounded exploration would report `true` anyway, but we can assert
        // determinism directly: both operations have exactly one outcome in
        // every state.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transition;

    #[test]
    fn fifo_order() {
        let q = Queue::new();
        let mut s = Value::list([]);
        for v in 1..=3i64 {
            let (_, next) = q
                .apply_deterministic(&s, &Queue::enqueue(Value::from(v)))
                .unwrap();
            s = next;
        }
        for v in 1..=3i64 {
            let (r, next) = q.apply_deterministic(&s, &Queue::dequeue()).unwrap();
            assert_eq!(r, Value::from(v));
            s = next;
        }
        let (r, _) = q.apply_deterministic(&s, &Queue::dequeue()).unwrap();
        assert_eq!(r, Value::Bottom);
    }

    #[test]
    fn dequeue_on_empty_returns_bottom_and_stays_empty() {
        let q = Queue::new();
        let ts = q.transitions(&Value::list([]), &Queue::dequeue());
        assert_eq!(ts, vec![Transition::new(Value::Bottom, Value::list([]))]);
    }

    #[test]
    fn malformed_invocations_rejected() {
        let q = Queue::new();
        assert!(q.transitions(&Value::Unit, &Queue::dequeue()).is_empty());
        assert!(q
            .transitions(&Value::list([]), &Invocation::nullary("enqueue"))
            .is_empty());
        assert!(q
            .transitions(&Value::list([]), &Invocation::nullary("peek"))
            .is_empty());
    }

    #[test]
    fn declared_deterministic() {
        assert!(Queue::new().is_deterministic());
    }
}
