//! Invocation and response events.

use crate::{ObjectId, ProcessId};
use evlin_spec::{Invocation, Value};
use std::fmt;

/// The payload of an event: either an operation invocation or a response.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// An operation invocation.
    Invoke(Invocation),
    /// An operation response carrying the returned value.
    Respond(Value),
}

impl EventKind {
    /// Returns `true` if this is an invocation event.
    pub(crate) fn is_invoke(&self) -> bool {
        matches!(self, EventKind::Invoke(_))
    }

    /// Returns `true` if this is a response event.
    pub(crate) fn is_respond(&self) -> bool {
        matches!(self, EventKind::Respond(_))
    }
}

/// A single event `⟨p, o, x⟩` of a history: process `p` either invokes an
/// operation on object `o` or receives a response from it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Event {
    /// The process performing the event.
    pub process: ProcessId,
    /// The object the event refers to.
    pub object: ObjectId,
    /// Invocation or response.
    pub kind: EventKind,
}

// The frame rings and the monitor's windows move events by value, one
// `(sequence, event)` pair per cache line: a payload that grows past this
// is a per-event cost on the whole event path.
const _: () = assert!(std::mem::size_of::<Event>() <= 56);

impl Event {
    /// Creates an invocation event.
    pub fn invoke(process: ProcessId, object: ObjectId, invocation: Invocation) -> Self {
        Event {
            process,
            object,
            kind: EventKind::Invoke(invocation),
        }
    }

    /// Creates a response event.
    pub fn respond(process: ProcessId, object: ObjectId, value: Value) -> Self {
        Event {
            process,
            object,
            kind: EventKind::Respond(value),
        }
    }

    /// Returns `true` if this is an invocation event.
    pub(crate) fn is_invoke(&self) -> bool {
        self.kind.is_invoke()
    }

    /// Returns `true` if this is a response event.
    pub(crate) fn is_respond(&self) -> bool {
        self.kind.is_respond()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            EventKind::Invoke(inv) => write!(f, "⟨{}, {}, {}⟩", self.process, self.object, inv),
            EventKind::Respond(v) => write!(f, "⟨{}, {}, ret {}⟩", self.process, self.object, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_predicates() {
        let inv = Event::invoke(ProcessId(0), ObjectId(1), Invocation::nullary("read"));
        assert!(inv.is_invoke());
        assert!(!inv.is_respond());

        let resp = Event::respond(ProcessId(0), ObjectId(1), Value::from(3i64));
        assert!(resp.is_respond());
        assert!(!resp.is_invoke());
    }

    #[test]
    fn display_matches_paper_notation() {
        let inv = Event::invoke(ProcessId(2), ObjectId(0), Invocation::nullary("fetch_inc"));
        assert_eq!(format!("{inv}"), "⟨p2, o0, fetch_inc()⟩");
        let resp = Event::respond(ProcessId(2), ObjectId(0), Value::from(5i64));
        assert_eq!(format!("{resp}"), "⟨p2, o0, ret 5⟩");
    }
}
