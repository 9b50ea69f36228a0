//! A fluent builder for writing histories in tests and examples.

use crate::{History, ObjectId, ProcessId};
use evlin_spec::{Invocation, Value};

/// Builds a [`History`] event by event.
///
/// The builder is non-consuming-friendly: every method takes and returns
/// `self` so one-liners chain nicely, and [`HistoryBuilder::build`] produces
/// the history.
///
/// # Example
///
/// The fetch&increment counterexample from Section 3.2 of the paper (first
/// four events):
///
/// ```
/// use evlin_history::{HistoryBuilder, ProcessId, ObjectId};
/// use evlin_spec::{FetchIncrement, Value};
///
/// let x = ObjectId(0);
/// let h = HistoryBuilder::new()
///     .complete(ProcessId(0), x, FetchIncrement::fetch_inc(), Value::from(0i64))
///     .complete(ProcessId(1), x, FetchIncrement::fetch_inc(), Value::from(0i64))
///     .build();
/// assert_eq!(h.len(), 4);
/// assert!(h.is_well_formed());
/// ```
#[derive(Debug, Clone, Default)]
pub struct HistoryBuilder {
    history: History,
}

impl HistoryBuilder {
    /// Creates a builder holding an empty history.
    pub fn new() -> Self {
        HistoryBuilder {
            history: History::new(),
        }
    }

    /// Appends an invocation event.
    pub fn invoke(mut self, process: ProcessId, object: ObjectId, invocation: Invocation) -> Self {
        self.history.push_invoke(process, object, invocation);
        self
    }

    /// Appends a response event.
    pub fn respond(mut self, process: ProcessId, object: ObjectId, value: Value) -> Self {
        self.history.push_respond(process, object, value);
        self
    }

    /// Appends an invocation immediately followed by its response — one
    /// complete operation with no concurrency.
    pub fn complete(
        self,
        process: ProcessId,
        object: ObjectId,
        invocation: Invocation,
        response: Value,
    ) -> Self {
        self.invoke(process, object, invocation)
            .respond(process, object, response)
    }

    /// Finishes building and returns the history.
    pub fn build(self) -> History {
        self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_spec::Register;

    #[test]
    fn builds_interleaved_history() {
        let h = HistoryBuilder::new()
            .invoke(
                ProcessId(0),
                ObjectId(0),
                Register::write(Value::from(1i64)),
            )
            .invoke(ProcessId(1), ObjectId(0), Register::read())
            .respond(ProcessId(1), ObjectId(0), Value::from(0i64))
            .respond(ProcessId(0), ObjectId(0), Value::Unit)
            .build();
        assert_eq!(h.len(), 4);
        assert!(h.is_well_formed());
        assert!(!h.is_sequential());
    }

    #[test]
    fn complete_adds_two_events() {
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                ObjectId(0),
                Register::read(),
                Value::from(0i64),
            )
            .build();
        assert_eq!(h.len(), 2);
        assert!(h.is_sequential());
    }
}
