//! The [`History`] type: a sequence of events with the projections and
//! structural predicates used throughout the paper.

use crate::{Event, EventKind, ObjectId, OpId, OperationRecord, ProcessId};
use std::collections::BTreeSet;
use std::fmt;

/// A history: a finite sequence of invocation and response events describing
/// a computation of the distributed system (paper, Section 3).
///
/// Infinite histories are represented in this workspace by long finite
/// histories together with statements quantified over all their prefixes; the
/// structural helpers here ([`History::prefix`], [`History::events`], the
/// projections) are what the checkers in `evlin-checker` build on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct History {
    events: Vec<Event>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History { events: Vec::new() }
    }

    /// Creates a history from a vector of events.
    pub fn from_events(events: Vec<Event>) -> Self {
        History { events }
    }

    /// Appends an event.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Appends an invocation event.
    pub fn push_invoke(
        &mut self,
        process: ProcessId,
        object: ObjectId,
        invocation: evlin_spec::Invocation,
    ) {
        self.push(Event::invoke(process, object, invocation));
    }

    /// Appends a response event.
    pub fn push_respond(&mut self, process: ProcessId, object: ObjectId, value: evlin_spec::Value) {
        self.push(Event::respond(process, object, value));
    }

    /// The number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the history contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Iterates over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// The prefix consisting of the first `n` events (all events if `n`
    /// exceeds the length).
    pub fn prefix(&self, n: usize) -> History {
        History {
            events: self.events.iter().take(n).cloned().collect(),
        }
    }

    /// The suffix obtained by removing the first `t` events — the `H'` of
    /// Definition 2.
    pub fn suffix(&self, t: usize) -> History {
        History {
            events: self.events.iter().skip(t).cloned().collect(),
        }
    }

    /// Concatenates two histories.
    pub fn concat(&self, other: &History) -> History {
        let mut events = self.events.clone();
        events.extend(other.events.iter().cloned());
        History { events }
    }

    /// The projection `H|p`: the subsequence of events performed by `process`.
    pub fn project_process(&self, process: ProcessId) -> History {
        History {
            events: self
                .events
                .iter()
                .filter(|e| e.process == process)
                .cloned()
                .collect(),
        }
    }

    /// The projection `H|o`: the subsequence of events at `object`.
    pub fn project_object(&self, object: ObjectId) -> History {
        self.project_object_indexed(object).0
    }

    /// Like [`History::project_object`], but also returns, for each event of
    /// the projection, its index in the original history.  Lemma 7's proof
    /// ("choose `t` large enough so that the first `t` events of `H` include
    /// the first `t_o` events of `H|o`") needs exactly this mapping.
    pub fn project_object_indexed(&self, object: ObjectId) -> (History, Vec<usize>) {
        let mut events = Vec::new();
        let mut indices = Vec::new();
        for (i, e) in self.events.iter().enumerate() {
            if e.object == object {
                events.push(e.clone());
                indices.push(i);
            }
        }
        (History { events }, indices)
    }

    /// The set of processes that appear in the history.
    pub fn processes(&self) -> Vec<ProcessId> {
        let set: BTreeSet<ProcessId> = self.events.iter().map(|e| e.process).collect();
        set.into_iter().collect()
    }

    /// The set of objects that appear in the history.
    pub fn objects(&self) -> Vec<ObjectId> {
        let set: BTreeSet<ObjectId> = self.events.iter().map(|e| e.object).collect();
        set.into_iter().collect()
    }

    /// Matches invocations with their responses and returns one
    /// [`OperationRecord`] per invocation, ordered by invocation position
    /// (the matching rule is [`OperationMatcher`]'s).
    pub fn operations(&self) -> Vec<OperationRecord> {
        let mut ops: Vec<OperationRecord> = Vec::new();
        match_operations(&self.events, &mut Vec::new(), |i, e, answers| {
            match (&e.kind, answers) {
                (EventKind::Invoke(invocation), _) => ops.push(OperationRecord {
                    id: OpId(ops.len()),
                    process: e.process,
                    object: e.object,
                    invocation: invocation.clone(),
                    response: None,
                    invoke_index: i,
                    respond_index: None,
                }),
                (EventKind::Respond(value), Some(op)) => {
                    ops[op].response = Some(value.clone());
                    ops[op].respond_index = Some(i);
                }
                (EventKind::Respond(_), None) => {}
            }
        });
        ops
    }

    /// The operations that completed (received a response) in the history.
    pub fn complete_operations(&self) -> Vec<OperationRecord> {
        self.operations()
            .into_iter()
            .filter(|op| op.is_complete())
            .collect()
    }

    /// The operations that are still pending at the end of the history.
    pub fn pending_operations(&self) -> Vec<OperationRecord> {
        self.operations()
            .into_iter()
            .filter(|op| op.is_pending())
            .collect()
    }

    /// Whether the history is *well-formed*: for each process `p`, `H|p` is
    /// sequential — invocations and responses by `p` strictly alternate
    /// starting with an invocation, and each response is on the same object
    /// as the invocation it matches.
    pub fn is_well_formed(&self) -> bool {
        let mut pending: std::collections::BTreeMap<ProcessId, ObjectId> =
            std::collections::BTreeMap::new();
        for e in &self.events {
            match &e.kind {
                EventKind::Invoke(_) => {
                    if pending.contains_key(&e.process) {
                        return false; // invocation while another op is pending
                    }
                    pending.insert(e.process, e.object);
                }
                EventKind::Respond(_) => match pending.get(&e.process) {
                    Some(obj) if *obj == e.object => {
                        pending.remove(&e.process);
                    }
                    _ => return false, // response without matching invocation
                },
            }
        }
        true
    }

    /// Whether the history is *sequential*: it starts with an invocation and
    /// each invocation (except possibly the last) is immediately followed by
    /// its matching response.
    pub fn is_sequential(&self) -> bool {
        let mut i = 0;
        while i < self.events.len() {
            let e = &self.events[i];
            if !e.is_invoke() {
                return false;
            }
            if i + 1 == self.events.len() {
                return true; // trailing pending invocation is allowed
            }
            let r = &self.events[i + 1];
            if !r.is_respond() || r.process != e.process || r.object != e.object {
                return false;
            }
            i += 2;
        }
        true
    }

    /// Renames every process in place: process `p` becomes `map[p.index()]`.
    ///
    /// Used by the simulator's symmetry reduction, which rewrites whole
    /// configurations (including their recorded histories) under a process
    /// permutation before merging symmetric states.
    ///
    /// # Panics
    ///
    /// Panics if some event's process index is not covered by `map`.
    pub fn rename_processes(&mut self, map: &[ProcessId]) {
        for e in &mut self.events {
            e.process = map[e.process.index()];
        }
    }
}

/// The one statement of "which response answers which invocation".
///
/// Matching assumes the sequence is well-formed (each process's subsequence
/// is sequential), which is what the paper assumes of every history: the
/// response matching an invocation by process `p` is the next response event
/// by `p`.  A response with no pending invocation makes the sequence
/// ill-formed; it is ignored here and reported by [`History::is_well_formed`].
///
/// `sink(i, event, None)` announces the operation invoked at position `i`
/// (operations are numbered in the order they are announced) and
/// `sink(i, event, Some(op))` that the response at position `i` answers
/// operation number `op`.  `pending` is working storage: `(process, its
/// pending operation)` — a linear scan beats a map for the handful of
/// operations pending at once.
fn match_operations<'a>(
    events: impl IntoIterator<Item = &'a Event>,
    pending: &mut Vec<(ProcessId, usize)>,
    mut sink: impl FnMut(usize, &'a Event, Option<usize>),
) {
    pending.clear();
    let mut announced = 0;
    for (i, e) in events.into_iter().enumerate() {
        let at = pending.iter().position(|&(p, _)| p == e.process);
        match (&e.kind, at) {
            (EventKind::Invoke(_), at) => {
                match at {
                    Some(at) => pending[at].1 = announced,
                    None => pending.push((e.process, announced)),
                }
                announced += 1;
                sink(i, e, None);
            }
            (EventKind::Respond(_), Some(at)) => sink(i, e, Some(pending.swap_remove(at).1)),
            (EventKind::Respond(_), None) => {}
        }
    }
}

/// Invocation ↔ response matching over a borrowed event sequence, by the
/// rule [`History::operations`] uses, as positions instead of records: what
/// the in-place checkers read a projection through.
///
/// The matcher owns its buffers, so a caller that matches many short
/// sequences (the online monitor: one per object per segment) keeps one and
/// allocates nothing per sequence.
#[derive(Debug, Default)]
pub struct OperationMatcher {
    ops: Vec<(usize, Option<usize>)>,
    pending: Vec<(ProcessId, usize)>,
}

impl OperationMatcher {
    /// The operations of `events` as `(invoke, respond)` positions in that
    /// sequence, ordered by invocation position; `respond` is `None` for an
    /// operation still pending at the end.
    pub fn match_events<'a>(
        &mut self,
        events: impl IntoIterator<Item = &'a Event>,
    ) -> &[(usize, Option<usize>)] {
        let ops = &mut self.ops;
        ops.clear();
        match_operations(events, &mut self.pending, |i, _, answers| match answers {
            None => ops.push((i, None)),
            Some(op) => ops[op].1 = Some(i),
        });
        ops
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.events.iter().enumerate() {
            writeln!(f, "{i:4}: {e}")?;
        }
        Ok(())
    }
}

impl FromIterator<Event> for History {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        History {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<Event> for History {
    fn extend<I: IntoIterator<Item = Event>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}

impl<'a> IntoIterator for &'a History {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl IntoIterator for History {
    type Item = Event;
    type IntoIter = std::vec::IntoIter<Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_spec::{Invocation, Value};

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }
    fn o(i: usize) -> ObjectId {
        ObjectId(i)
    }

    fn sample() -> History {
        // p0: write(1) on o0          [0, 2]
        // p1: read()  on o0           [1, 3]
        // p0: read()  on o1 (pending) [4]
        History::from_events(vec![
            Event::invoke(p(0), o(0), Invocation::unary("write", Value::from(1i64))),
            Event::invoke(p(1), o(0), Invocation::nullary("read")),
            Event::respond(p(0), o(0), Value::Unit),
            Event::respond(p(1), o(0), Value::from(1i64)),
            Event::invoke(p(0), o(1), Invocation::nullary("read")),
        ])
    }

    #[test]
    fn lengths_prefix_suffix() {
        let h = sample();
        assert_eq!(h.len(), 5);
        assert!(!h.is_empty());
        assert_eq!(h.prefix(2).len(), 2);
        assert_eq!(h.prefix(99).len(), 5);
        assert_eq!(h.suffix(3).len(), 2);
        assert_eq!(h.prefix(3).events(), &h.events()[..3]);
        assert_eq!(h.suffix(3).events(), &h.events()[3..]);
    }

    #[test]
    fn projections() {
        let h = sample();
        assert_eq!(h.project_process(p(0)).len(), 3);
        assert_eq!(h.project_process(p(1)).len(), 2);
        assert_eq!(h.project_object(o(0)).len(), 4);
        assert_eq!(h.project_object(o(1)).len(), 1);
        let (proj, idx) = h.project_object_indexed(o(0));
        assert_eq!(proj.len(), 4);
        assert_eq!(idx, vec![0, 1, 2, 3]);
        assert_eq!(h.processes(), vec![p(0), p(1)]);
        assert_eq!(h.objects(), vec![o(0), o(1)]);
    }

    #[test]
    fn operations_matching() {
        let h = sample();
        let ops = h.operations();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].response, Some(Value::Unit));
        assert_eq!(ops[1].response, Some(Value::from(1i64)));
        assert!(ops[2].is_pending());
        assert_eq!(h.complete_operations().len(), 2);
        assert_eq!(h.pending_operations().len(), 1);
        assert!(ops[0].precedes(&ops[2]));
        assert!(!ops[0].precedes(&ops[1]));
    }

    #[test]
    fn matcher_reads_a_projection_in_place_and_is_reusable() {
        let h = sample();
        let mut matcher = OperationMatcher::default();
        assert_eq!(
            matcher.match_events(&h),
            [(0, Some(2)), (1, Some(3)), (4, None)]
        );
        // `H|o1` picked out of `H` by position: indices are positions in
        // the projection, and nothing of the previous sequence is left.
        let picked = [4usize];
        let projection = picked.iter().map(|&i| &h.events()[i]);
        assert_eq!(matcher.match_events(projection), [(0, None)]);
        // An orphan response is skipped; a second invocation by a process
        // with one pending takes over the next response.
        let odd = History::from_events(vec![
            Event::respond(p(0), o(0), Value::Unit),
            Event::invoke(p(0), o(0), Invocation::nullary("read")),
            Event::invoke(p(0), o(0), Invocation::nullary("read")),
            Event::respond(p(0), o(0), Value::Unit),
        ]);
        assert_eq!(matcher.match_events(&odd), [(1, None), (2, Some(3))]);
        assert_eq!(odd.operations()[1].respond_index, Some(3));
    }

    #[test]
    fn well_formedness() {
        assert!(sample().is_well_formed());

        // Response without invocation.
        let bad = History::from_events(vec![Event::respond(p(0), o(0), Value::Unit)]);
        assert!(!bad.is_well_formed());

        // Two invocations by the same process without a response in between.
        let bad = History::from_events(vec![
            Event::invoke(p(0), o(0), Invocation::nullary("read")),
            Event::invoke(p(0), o(1), Invocation::nullary("read")),
        ]);
        assert!(!bad.is_well_formed());

        // Response on a different object than the pending invocation.
        let bad = History::from_events(vec![
            Event::invoke(p(0), o(0), Invocation::nullary("read")),
            Event::respond(p(0), o(1), Value::Unit),
        ]);
        assert!(!bad.is_well_formed());
    }

    #[test]
    fn sequentiality() {
        let seq = History::from_events(vec![
            Event::invoke(p(0), o(0), Invocation::nullary("read")),
            Event::respond(p(0), o(0), Value::from(0i64)),
            Event::invoke(p(1), o(0), Invocation::nullary("read")),
        ]);
        assert!(seq.is_sequential());
        assert!(!sample().is_sequential());
        assert!(History::new().is_sequential());
    }

    #[test]
    fn concat_and_collect() {
        let h = sample();
        let doubled = h.concat(&h);
        assert_eq!(doubled.len(), 10);
        let collected: History = h.iter().cloned().collect();
        assert_eq!(collected, h);
        let mut extended = History::new();
        extended.extend(h.clone());
        assert_eq!(extended, h);
    }

    #[test]
    fn display_lists_events() {
        let text = format!("{}", sample());
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains("write"));
    }

    #[test]
    fn rename_processes_swaps_identities() {
        let mut h = sample();
        h.rename_processes(&[p(1), p(0)]);
        assert_eq!(h.project_process(p(1)).len(), 3);
        assert_eq!(h.project_process(p(0)).len(), 2);
        // Renaming twice with the same transposition restores the original.
        h.rename_processes(&[p(1), p(0)]);
        assert_eq!(h, sample());
    }
}
