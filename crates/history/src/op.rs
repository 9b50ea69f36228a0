//! Operations: a matched invocation/response pair within a history.

use crate::{ObjectId, ProcessId};
use evlin_spec::{Invocation, Value};
use std::fmt;

/// Identifies an operation within a history.
///
/// Operations are numbered by the position of their invocation event among
/// all invocation events of the history (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OpId(pub usize);

impl OpId {
    /// The numeric index of the operation.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// An operation extracted from a history: its invocation, its response (if it
/// terminated) and the positions of both events in the history.
///
/// "An operation consists of an invocation event and its matching response
/// event (if it exists)" (paper, Section 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperationRecord {
    /// The operation's identifier (position among invocations).
    pub id: OpId,
    /// The invoking process.
    pub process: ProcessId,
    /// The object the operation is applied to.
    pub object: ObjectId,
    /// The invocation (method + arguments).
    pub invocation: Invocation,
    /// The response value, or `None` if the operation is pending.
    pub response: Option<Value>,
    /// Index of the invocation event in the history.
    pub invoke_index: usize,
    /// Index of the response event in the history, if the operation completed.
    pub respond_index: Option<usize>,
}

impl OperationRecord {
    /// Returns `true` if the operation received its response in the history.
    pub fn is_complete(&self) -> bool {
        self.response.is_some()
    }

    /// Returns `true` if the operation is still pending at the end of the
    /// history.
    pub(crate) fn is_pending(&self) -> bool {
        self.response.is_none()
    }

    /// Returns `true` if this operation's response precedes `other`'s
    /// invocation, i.e. this operation *precedes* `other` in the real-time
    /// order of the history.
    pub fn precedes(&self, other: &OperationRecord) -> bool {
        match self.respond_index {
            Some(r) => r < other.invoke_index,
            None => false,
        }
    }
}

impl fmt::Display for OperationRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.response {
            Some(r) => write!(
                f,
                "{} {} {} on {} -> {}",
                self.id, self.process, self.invocation, self.object, r
            ),
            None => write!(
                f,
                "{} {} {} on {} (pending)",
                self.id, self.process, self.invocation, self.object
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(id: usize, invoke: usize, respond: Option<usize>) -> OperationRecord {
        OperationRecord {
            id: OpId(id),
            process: ProcessId(0),
            object: ObjectId(0),
            invocation: Invocation::nullary("read"),
            response: respond.map(|_| Value::Unit),
            invoke_index: invoke,
            respond_index: respond,
        }
    }

    #[test]
    fn completion_predicates() {
        assert!(op(0, 0, Some(1)).is_complete());
        assert!(op(0, 0, None).is_pending());
    }

    #[test]
    fn precedes_uses_real_time_order() {
        let a = op(0, 0, Some(1));
        let b = op(1, 2, Some(3));
        assert!(a.precedes(&b));
        assert!(!b.precedes(&a));
        // A pending operation precedes nothing.
        let pending = op(2, 0, None);
        assert!(!pending.precedes(&b));
        // Overlapping operations precede each other in neither direction.
        let c = op(3, 0, Some(3));
        let d = op(4, 1, Some(2));
        assert!(!c.precedes(&d));
        assert!(!d.precedes(&c));
    }

    #[test]
    fn display_is_informative() {
        assert!(format!("{}", op(0, 0, Some(1))).contains("->"));
        assert!(format!("{}", op(0, 0, None)).contains("pending"));
    }
}
