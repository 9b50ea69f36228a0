//! Weak consistency (Definition 1).
//!
//! A history `H` is *weakly consistent* if for each operation `op` that has a
//! response in `H` there is a legal sequential history `S` that
//!
//! * contains only operations invoked in `H` before `op` terminates,
//! * contains all operations performed by the same process that precede `op`
//!   in `H`, and
//! * ends with the same response to `op` as in `H`.
//!
//! Only the *response of `op` itself* is constrained — the other operations
//! of `S` merely have to be arrangeable legally.  The module states that
//! question to the shared Wing–Gong kernel twice, in the same shape: the
//! same-process predecessors are *required* with free responses, same-object
//! operations invoked before `op` terminates are *optional* (restricting the
//! optional pool to `op`'s object is sound by Lemma 8 and keeps the search
//! small), and `op` itself is required with its response fixed and a
//! precedence edge from every predecessor so that the witness ends with it.
//!
//! * [`WeakOperation`] states it over a history's events ([`Justification`]
//!   views).  This is the offline reference: [`violations`] and
//!   [`is_weakly_consistent`] ask it.
//! * `weak_problem` states it over invocation counts (a `Counted` problem):
//!   a [`Tally`] of the operations invoked on the object and one of the
//!   process's predecessors, since the kernel reads nothing of them but their
//!   invocations.  The streaming monitor's weak-consistency drain asks it per
//!   response (and its stabilizes-eventually drain builds a `Counted` problem
//!   of its own), and Figure 1's line 13 asks it through [`justify`].  A
//!   differential test holds the two statements to the same verdicts.
//!
//! Whole-history checks additionally exploit Lemma 8 (weak consistency is
//! local): [`is_weakly_consistent`] splits a multi-object history into
//! per-object projections and checks them independently, stopping at the
//! first projection that is not weakly consistent.

use crate::kernel::{
    self, ConsistencyCondition, KernelScratch, OpView, Problem, SearchLimits, SearchResult,
    SearchStats,
};
use crate::t_linearizability::{EventProblem, TLinearizability};
use evlin_history::{History, ObjectId, ObjectUniverse, OpId, OperationMatcher};
use evlin_spec::{Invocation, Value};
use std::collections::BTreeMap;

/// The node budget of one per-operation search: Definition 1 problems are
/// much smaller than whole-history linearizations, so the budget is a tenth
/// of [`SearchLimits::default`].
const LIMITS: SearchLimits = SearchLimits { max_nodes: 200_000 };

/// Definition 1 for a single completed operation, as a kernel condition.
#[derive(Debug, Clone, Copy)]
pub struct WeakOperation {
    /// The completed operation whose response must be justified.
    pub op: OpId,
}

/// Definition 1's question about one operation of a history, over the
/// history's matched operations.
#[derive(Debug)]
pub struct Justification<'h> {
    /// The history's operations, each with the response it got.
    history: EventProblem<'h>,
    /// The operations of the search, as indices into the history's: the
    /// required predecessors, then the optional pool, then the operation
    /// itself.  Empty when the operation has no response — Definition 1 only
    /// constrains operations that have one, and an empty problem is
    /// trivially satisfiable.
    chosen: Vec<usize>,
    /// How many predecessors lead `chosen`.
    predecessors: usize,
}

impl Problem for Justification<'_> {
    fn op_count(&self) -> usize {
        self.chosen.len()
    }

    fn op(&self, i: usize) -> OpView<'_> {
        // Only the response of the operation itself is constrained.
        let itself = i + 1 == self.chosen.len();
        let view = self.history.op(self.chosen[i]);
        OpView {
            required: itself || i < self.predecessors,
            fixed_response: view.fixed_response.filter(|_| itself),
            ..view
        }
    }

    fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        // S must *end* with `op`: every required predecessor is ordered
        // before it.  (Optional operations need no edge — the search accepts
        // as soon as all required operations are linearized, so nothing is
        // ever placed after `op`.)
        let last = self.chosen.len().saturating_sub(1);
        (0..self.predecessors).map(move |i| (i, last))
    }
}

impl ConsistencyCondition for WeakOperation {
    type Views<'h> = Justification<'h>;

    fn views<'h>(
        &self,
        history: &'h History,
        ops: &'h [(usize, Option<usize>)],
    ) -> Justification<'h> {
        let events = history.events();
        let mut chosen = Vec::new();
        let mut predecessors = 0;
        if let Some(&(invoke, Some(respond))) = ops.get(self.op.0) {
            let (process, object) = (events[invoke].process, events[invoke].object);
            // Operations by the same process that precede `op` in H (program
            // order): required, with unconstrained responses.
            let precedes = |k: &usize| events[ops[*k].0].process == process && ops[*k].0 < invoke;
            chosen.extend((0..ops.len()).filter(precedes));
            predecessors = chosen.len();
            // Optional operations: invoked before `op` terminates.  Only
            // operations on the same object can influence the legality of
            // `op`'s response (Lemma 8), so restricting the optional pool to
            // them is sound and keeps the search small.
            chosen.extend((0..ops.len()).filter(|k| {
                let (at, _) = ops[*k];
                *k != self.op.0 && !precedes(k) && events[at].object == object && at < respond
            }));
            // `op` itself, last: required, with its response fixed.
            chosen.push(self.op.0);
        }
        Justification {
            history: TLinearizability::new(0).views(history, ops),
            chosen,
            predecessors,
        }
    }
}

/// An invocation multiset: how many operations carry each invocation.
pub type Tally = BTreeMap<Invocation, u64>;

/// `end - (the end of the group before it)` operations with one invocation
/// on one object, all required or all optional.
struct Group<'a> {
    object: ObjectId,
    invocation: &'a Invocation,
    /// One past the problem index of the group's last operation.
    end: usize,
    required: bool,
}

/// A problem over summarized operations: the groups' operations in order,
/// every response free — only their invocation multiset is known, and the
/// kernel reads nothing else — then, for Definition 1, the operation being
/// justified.
#[derive(Default)]
pub(crate) struct Counted<'a> {
    groups: Vec<Group<'a>>,
    /// `(object, invocation, response)` of a last, required operation whose
    /// response is fixed and which every required operation of the groups
    /// precedes.
    last: Option<(ObjectId, &'a Invocation, &'a Value)>,
}

impl<'a> Counted<'a> {
    /// Number of operations in the groups.
    fn grouped(&self) -> usize {
        self.groups.last().map_or(0, |group| group.end)
    }

    /// The group of operation `i < grouped()`.
    fn group_of(&self, i: usize) -> &Group<'a> {
        &self.groups[self.groups.partition_point(|group| group.end <= i)]
    }

    /// Appends a group of `count` operations.
    pub(crate) fn push(
        &mut self,
        object: ObjectId,
        invocation: &'a Invocation,
        count: u64,
        required: bool,
    ) {
        self.groups.push(Group {
            object,
            invocation,
            end: self.grouped() + count as usize,
            required,
        });
    }
}

impl Problem for Counted<'_> {
    fn op_count(&self) -> usize {
        self.grouped() + usize::from(self.last.is_some())
    }

    fn op(&self, i: usize) -> OpView<'_> {
        if let Some((object, invocation, response)) = self.last.filter(|_| i == self.grouped()) {
            return OpView {
                object,
                invocation,
                required: true,
                fixed_response: Some(response),
            };
        }
        let group = self.group_of(i);
        OpView {
            object: group.object,
            invocation: group.invocation,
            required: group.required,
            fixed_response: None,
        }
    }

    fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let last = self.grouped();
        let sources = (0..last).filter(|&i| self.last.is_some() && self.group_of(i).required);
        sources.map(move |i| (i, last))
    }
}

/// The Definition-1 problem for one completed operation, from invocation
/// counts: `invoked` counts every operation on `object` invoked before the
/// operation's response (itself and `preds` included), `preds` the same
/// process's operations on `object` that precede it.
pub(crate) fn weak_problem<'a>(
    invoked: Option<&'a Tally>,
    preds: Option<&'a Tally>,
    object: ObjectId,
    invocation: &'a Invocation,
    response: &'a Value,
) -> Counted<'a> {
    let mut problem = Counted::default();
    // Required same-process predecessors, with free responses.
    for (inv, &count) in preds.into_iter().flatten() {
        problem.push(object, inv, count, true);
    }
    // Optional pool: every other operation on the object invoked before this
    // one's response, minus the required predecessors and the operation
    // itself.
    for (inv, &count) in invoked.into_iter().flatten() {
        let mut optional = count - preds.and_then(|preds| preds.get(inv)).copied().unwrap_or(0);
        if inv == invocation {
            optional = optional.saturating_sub(1);
        }
        problem.push(object, inv, optional, false);
    }
    // The operation itself, last, with its response fixed; the witness must
    // end with it, so every required predecessor precedes it.
    problem.last = Some((object, invocation, response));
    problem
}

/// Definition 1's question over counts (`weak_problem`) on the calling
/// thread's kernel scratch, with the per-operation node budget: can some of
/// the operations `invoked` on `object`, all of `preds` among them, be
/// arranged legally so that `invocation`, last, returns `response`?
pub fn justify(
    universe: &ObjectUniverse,
    object: ObjectId,
    invoked: &Tally,
    preds: &Tally,
    invocation: &Invocation,
    response: &Value,
) -> (SearchResult, SearchStats) {
    let problem = weak_problem(Some(invoked), Some(preds), object, invocation, response);
    kernel::with_thread_scratch(|scratch| {
        kernel::solve_rooted(&problem, &[], universe, LIMITS, scratch)
    })
}

/// Decides whether the whole history is weakly consistent.
///
/// Multi-object histories are decomposed per object first (Lemma 8); the
/// projections are checked in object order, up to the first violating one.
pub fn is_weakly_consistent(history: &History, universe: &ObjectUniverse) -> bool {
    let objects = history.objects();
    if objects.len() > 1 {
        // Locality pre-pass: H is weakly consistent iff every H|o is.
        objects.iter().all(|&o| {
            let projection = history.project_object(o);
            violations(&projection, universe).is_empty()
        })
    } else {
        violations(history, universe).is_empty()
    }
}

/// Returns the identifiers of all completed operations that violate
/// Definition 1 (empty when the history is weakly consistent).
pub fn violations(history: &History, universe: &ObjectUniverse) -> Vec<OpId> {
    violations_with_stats(history, universe).0
}

/// [`violations`], with the searches' counters.  An operation whose search
/// exhausts the node budget is conservatively reported as a violation.
pub(crate) fn violations_with_stats(
    history: &History,
    universe: &ObjectUniverse,
) -> (Vec<OpId>, SearchStats) {
    // One search per completed operation, all sharing one matching of the
    // history and one scratch, so the visited cache and the per-class counts
    // are allocated once per history.
    let mut scratch = KernelScratch::new();
    let mut stats = SearchStats::default();
    let mut matcher = OperationMatcher::default();
    let ops = matcher.match_events(history.events());
    let completed = (0..ops.len()).map(OpId).filter(|op| ops[op.0].1.is_some());
    let violating = completed.filter(|&op| {
        let problem = WeakOperation { op }.views(history, ops);
        let (result, s) = kernel::solve_rooted(&problem, &[], universe, LIMITS, &mut scratch);
        stats.absorb(s);
        !result.is_yes()
    });
    (violating.collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_history::{HistoryBuilder, ProcessId};
    use evlin_spec::{Consensus, FetchIncrement, Register, Value};

    #[test]
    fn reads_of_written_values_are_weakly_consistent() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        // The read of 1 overlaps the write of 1: allowed.
        let h = HistoryBuilder::new()
            .invoke(ProcessId(0), r, Register::write(Value::from(1i64)))
            .complete(ProcessId(1), r, Register::read(), Value::from(1i64))
            .respond(ProcessId(0), r, Value::Unit)
            .build();
        assert!(is_weakly_consistent(&h, &u));
    }

    #[test]
    fn out_of_left_field_read_is_a_violation() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        // 7 is never written by anyone, so no legal sequential history can
        // justify the read of 7.
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(ProcessId(1), r, Register::read(), Value::from(7i64))
            .build();
        assert!(!is_weakly_consistent(&h, &u));
        let v = violations(&h, &u);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0], OpId(1));
    }

    #[test]
    fn value_from_a_later_write_is_a_violation() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        // The read returns 5, but write(5) is invoked only after the read
        // terminated — Definition 1 only allows operations invoked before the
        // read terminates.
        let h = HistoryBuilder::new()
            .complete(ProcessId(1), r, Register::read(), Value::from(5i64))
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(5i64)),
                Value::Unit,
            )
            .build();
        assert!(!is_weakly_consistent(&h, &u));
    }

    #[test]
    fn own_writes_must_be_respected() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        // p0 writes 3 and then reads 0: the read ignores p0's own earlier
        // write, violating the "contains all operations performed by the same
        // process" clause (no legal history containing write(3) ends with a
        // read of 0 unless someone else wrote 0 — nobody did... note the
        // initial value is 0, but the mandatory write(3) would have to be
        // ordered after the read, which Definition 1 forbids since S must end
        // with op).
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(3i64)),
                Value::Unit,
            )
            .complete(ProcessId(0), r, Register::read(), Value::from(0i64))
            .build();
        assert!(!is_weakly_consistent(&h, &u));

        // Whereas another process may still read 0 (it need not have seen the
        // write).
        let h2 = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(3i64)),
                Value::Unit,
            )
            .complete(ProcessId(1), r, Register::read(), Value::from(0i64))
            .build();
        assert!(is_weakly_consistent(&h2, &u));
    }

    #[test]
    fn duplicate_fetch_inc_zeroes_are_weakly_consistent_but_not_linearizable() {
        // This is the key distinction the paper draws: returning a stale
        // counter value is weakly consistent (each response is justified by
        // *some* subset of operations) even though it is not linearizable.
        let mut u = ObjectUniverse::new();
        let x = u.add_object(FetchIncrement::new());
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .build();
        assert!(is_weakly_consistent(&h, &u));
        assert!(!crate::linearizability::is_linearizable(&h, &u));
    }

    #[test]
    fn repeated_stale_zero_by_same_process_is_rejected() {
        // A process that performs two fetch&inc operations cannot get 0 both
        // times: its second operation must account for its own first one.
        let mut u = ObjectUniverse::new();
        let x = u.add_object(FetchIncrement::new());
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .build();
        assert!(!is_weakly_consistent(&h, &u));
    }

    #[test]
    fn consensus_must_return_some_invoked_proposal() {
        let mut u = ObjectUniverse::new();
        let c = u.add_object(Consensus::new());
        let ok = HistoryBuilder::new()
            .invoke(ProcessId(0), c, Consensus::propose(Value::from(4i64)))
            .complete(
                ProcessId(1),
                c,
                Consensus::propose(Value::from(9i64)),
                Value::from(4i64),
            )
            .respond(ProcessId(0), c, Value::from(4i64))
            .build();
        assert!(is_weakly_consistent(&ok, &u));

        let bad = HistoryBuilder::new()
            .complete(
                ProcessId(1),
                c,
                Consensus::propose(Value::from(9i64)),
                Value::from(4i64),
            )
            .build();
        // Nobody ever proposed 4 before this operation terminated.
        assert!(!is_weakly_consistent(&bad, &u));
    }

    #[test]
    fn pending_operations_are_not_checked() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let h = HistoryBuilder::new()
            .invoke(ProcessId(0), r, Register::write(Value::from(1i64)))
            .build();
        assert!(is_weakly_consistent(&h, &u));
    }

    #[test]
    fn empty_history_is_weakly_consistent() {
        let u = ObjectUniverse::new();
        assert!(is_weakly_consistent(&History::new(), &u));
    }

    #[test]
    fn multi_object_histories_use_the_locality_pre_pass() {
        // Cross-object verdicts must agree with the per-operation checks on
        // the unprojected history (Lemma 8).
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let x = u.add_object(FetchIncrement::new());
        let good = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(ProcessId(1), r, Register::read(), Value::from(0i64))
            .build();
        assert!(is_weakly_consistent(&good, &u));
        assert!(violations(&good, &u).is_empty());
        let bad = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(9i64),
            )
            .build();
        assert!(!is_weakly_consistent(&bad, &u));
        assert_eq!(violations(&bad, &u), vec![OpId(1)]);
    }

    #[test]
    fn prefix_closure_smoke_check() {
        // Lemma 10: weak consistency is a safety property, so every prefix of
        // a weakly consistent history is weakly consistent.
        let mut u = ObjectUniverse::new();
        let x = u.add_object(FetchIncrement::new());
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .build();
        assert!(is_weakly_consistent(&h, &u));
        for n in 0..=h.len() {
            assert!(is_weakly_consistent(&h.prefix(n), &u));
        }
    }
}
