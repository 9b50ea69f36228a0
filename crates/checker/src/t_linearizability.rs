//! `t`-linearizability (Definition 2) and the minimal stabilization index.
//!
//! A legal sequential history `S` is a *t-linearization* of `H` when, with
//! `H'` the suffix of `H` after its first `t` events:
//!
//! 1. every operation invoked in `S` is invoked in `H`;
//! 2. every operation completed in `H` is completed in `S`;
//! 3. if `op1`'s response precedes `op2`'s invocation, both events lie in
//!    `H'`, and `op2` appears in `S`, then `op1` precedes `op2` in `S`;
//! 4. every operation whose response lies in `H'` has the same response in
//!    `S`.
//!
//! Operations whose response falls inside the first `t` events therefore must
//! still appear in `S`, but their responses and their ordering are
//! unconstrained — that is how the definition forgives an arbitrarily bad
//! finite prefix.
//!
//! The decision procedure is the shared Wing–Gong kernel:
//! [`TLinearizability`] is a [`ConsistencyCondition`] whose question about a
//! history is an [`EventProblem`] — the four clauses above as per-operation
//! constraints and precedence edges, read off the events in place.
//! For `t = 0` the condition is exactly linearizability and admits the
//! per-object locality decomposition; for `t > 0` it must be checked on the
//! whole history (Lemma 7 only decomposes "`t`-linearizable for *some* `t`").

use crate::kernel::{
    self, ConsistencyCondition, KernelScratch, Locality, OpView, Problem, SearchLimits,
    SearchResult, SearchStats, Witness,
};
use evlin_history::{Event, EventKind, History, ObjectUniverse, OperationMatcher};

/// The `t`-linearizability condition (Definition 2) as a kernel condition.
#[derive(Debug, Clone, Copy)]
pub struct TLinearizability {
    /// The number of initial events forgiven.
    pub t: usize,
}

impl TLinearizability {
    /// The condition for a given stabilization index.
    pub fn new(t: usize) -> Self {
        TLinearizability { t }
    }
}

/// Definition 2 over a borrowed event sequence — the one place the
/// definition is spelled, whoever asks.
///
/// The sequence is `events`, or the subsequence of it at the ascending
/// positions `picked`; `ops` are its operations as matched by
/// [`evlin_history::OperationMatcher`].  So a caller that holds a projection
/// `H|o` as positions into a larger history (the online monitor does) lends
/// it to the kernel without materializing a `History`.  `t` is counted in
/// positions of the sequence.
#[derive(Debug, Clone, Copy)]
pub struct EventProblem<'a> {
    /// The number of initial positions forgiven.
    pub t: usize,
    /// The events the sequence is drawn from.
    pub events: &'a [Event],
    /// The sequence's positions in `events`; `None` when it is all of them.
    pub picked: Option<&'a [u32]>,
    /// `(invoke, respond)` positions in the sequence per operation, in
    /// invocation order.
    pub ops: &'a [(usize, Option<usize>)],
}

impl<'a> EventProblem<'a> {
    /// The event at position `k` of the sequence.
    fn event(&self, k: usize) -> &'a Event {
        &self.events[self.picked.map_or(k, |picked| picked[k] as usize)]
    }
}

impl Problem for EventProblem<'_> {
    fn op_count(&self) -> usize {
        self.ops.len()
    }

    fn op(&self, i: usize) -> OpView<'_> {
        let (invoke, respond) = self.ops[i];
        let invocation = self.event(invoke);
        let EventKind::Invoke(call) = &invocation.kind else {
            unreachable!("matched as an invocation");
        };
        // Clause 4: a response that lies in `H'` must be reproduced.
        let constrained = respond.filter(|&r| r >= self.t);
        OpView {
            object: invocation.object,
            invocation: call,
            required: respond.is_some(),
            fixed_response: constrained.map(|r| match &self.event(r).kind {
                EventKind::Respond(value) => value,
                EventKind::Invoke(_) => unreachable!("matched as a response"),
            }),
        }
    }

    fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        // Clause 3: the edge `(i, j)` for every `i` whose response precedes
        // `j`'s invocation with both events in `H'`, sources ascending.
        let (t, ops) = (self.t, self.ops);
        let sources = (0..ops.len()).filter_map(move |i| Some((i, ops[i].1.filter(|&r| r >= t)?)));
        sources.flat_map(move |(i, respond)| {
            let ordered = move |&j: &usize| j != i && ops[j].0 >= t && respond < ops[j].0;
            (0..ops.len()).filter(ordered).map(move |j| (i, j))
        })
    }
}

impl ConsistencyCondition for TLinearizability {
    type Views<'h> = EventProblem<'h>;

    fn views<'h>(
        &self,
        history: &'h History,
        ops: &'h [(usize, Option<usize>)],
    ) -> EventProblem<'h> {
        EventProblem {
            t: self.t,
            events: history.events(),
            picked: None,
            ops,
        }
    }

    fn locality(&self) -> Locality {
        if self.t == 0 {
            // 0-linearizability is linearizability, which is local
            // (Herlihy & Wing's locality theorem).
            Locality::Exact
        } else {
            // A fixed `t` is local too (see `locality::composed_stabilization`),
            // but each object `o` then needs its own `t_o`, the events of
            // `H|o` among the first `t` of `H`; `check_local` renumbers
            // positions when it projects a history and would apply `t` to
            // every projection as it stands.
            Locality::Global
        }
    }
}

/// Decides whether `history` is `t`-linearizable.
///
/// Uses the default [`SearchLimits`]; an exhausted node budget is reported as
/// *not* `t`-linearizable, which is the conservative answer for the
/// experiments (it can only under-report stabilization).
pub fn is_t_linearizable(history: &History, universe: &ObjectUniverse, t: usize) -> bool {
    t_linearization(history, universe, t).is_some()
}

/// Like [`is_t_linearizable`] but returns the witness `t`-linearization.
///
/// For `t = 0` the kernel's locality pre-pass decomposes multi-object
/// histories into per-object subproblems.
pub(crate) fn t_linearization(
    history: &History,
    universe: &ObjectUniverse,
    t: usize,
) -> Option<Witness> {
    kernel::check_local(
        &TLinearizability::new(t),
        history,
        universe,
        SearchLimits::default(),
    )
    .witness()
}

/// Like `t_linearization`, additionally returning the kernel's search
/// counters (used by the experiments to report search effort).
pub fn t_linearization_with_stats(
    history: &History,
    universe: &ObjectUniverse,
    t: usize,
) -> (Option<Witness>, SearchStats) {
    let (result, stats) = kernel::check_local_with_stats(
        &TLinearizability::new(t),
        history,
        universe,
        SearchLimits::default(),
    );
    (result.witness(), stats)
}

/// Finds the smallest `t` such that `history` is `t`-linearizable, searching
/// `t ∈ [0, limit]` (where `limit` defaults to the history length).
///
/// By Lemma 5 of the paper, `t`-linearizability is monotone in `t`, so a
/// binary search is sound.  Every probe runs through the shared kernel with
/// a reused [`KernelScratch`], so the visited cache and the per-class counts
/// are allocated once per history, not once per probe.  Returns `None` if the
/// history is not even `limit`-linearizable (which cannot happen for total
/// types when `limit` is the history length).
pub fn min_stabilization(
    history: &History,
    universe: &ObjectUniverse,
    limit: Option<usize>,
) -> Option<usize> {
    min_stabilization_with_stats(history, universe, limit).0
}

/// [`min_stabilization`], with the probes' search counters.
fn min_stabilization_with_stats(
    history: &History,
    universe: &ObjectUniverse,
    limit: Option<usize>,
) -> (Option<usize>, SearchStats) {
    let hi_bound = limit.unwrap_or(history.len());
    let mut scratch = KernelScratch::new();
    let limits = SearchLimits::default();
    let mut stats = SearchStats::default();
    let mut matcher = OperationMatcher::default();
    let ops = matcher.match_events(history.events());
    let mut probe = |t: usize| -> bool {
        let problem = TLinearizability::new(t).views(history, ops);
        let (result, s) = kernel::solve_rooted(&problem, &[], universe, limits, &mut scratch);
        stats.absorb(s);
        matches!(result, SearchResult::Yes(_))
    };
    if !probe(hi_bound) {
        return (None, stats);
    }
    let mut lo = 0usize; // candidate answer space: [lo, hi], hi known-good
    let mut hi = hi_bound;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if probe(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    (Some(lo), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_history::{HistoryBuilder, ProcessId};
    use evlin_spec::{FetchIncrement, Register, Value};

    fn fi_universe() -> (ObjectUniverse, evlin_history::ObjectId) {
        let mut u = ObjectUniverse::new();
        let x = u.add_object(FetchIncrement::new());
        (u, x)
    }

    #[test]
    fn duplicate_zero_returns_need_t_two() {
        let (u, x) = fi_universe();
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
        assert!(!is_t_linearizable(&h, &u, 0));
        assert!(!is_t_linearizable(&h, &u, 1));
        assert!(is_t_linearizable(&h, &u, 2));
        assert_eq!(min_stabilization(&h, &u, None), Some(2));
    }

    #[test]
    fn linearizable_history_has_stabilization_zero() {
        let (u, x) = fi_universe();
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
                Value::from(1i64),
            )
            .build();
        assert_eq!(min_stabilization(&h, &u, None), Some(0));
    }

    #[test]
    fn paper_section_3_2_history_prefixes() {
        // The infinite history from Section 3.2:
        //   p: fetch_inc -> 0, then q: fetch_inc -> 0, 1, 2, ...
        // Every finite prefix is 2-linearizable (t = response of the first
        // operation): the t-linearization moves the first operation to the
        // end.  We verify a few prefixes.
        let (u, x) = fi_universe();
        let mut b = HistoryBuilder::new().complete(
            ProcessId(0),
            x,
            FetchIncrement::fetch_inc(),
            Value::from(0i64),
        );
        for k in 0..4i64 {
            b = b.complete(ProcessId(1), x, FetchIncrement::fetch_inc(), Value::from(k));
        }
        let h = b.build();
        for n in (2..=h.len()).step_by(2) {
            let prefix = h.prefix(n);
            assert!(
                is_t_linearizable(&prefix, &u, 2),
                "prefix of {n} events should be 2-linearizable"
            );
        }
        // But the full prefix (which stands in for the infinite history) is
        // not 0- or 1-linearizable.
        assert!(!is_t_linearizable(&h, &u, 0));
        assert_eq!(min_stabilization(&h, &u, None), Some(2));
    }

    #[test]
    fn witness_reassigns_early_responses() {
        let (u, x) = fi_universe();
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(7i64),
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .build();
        // The nonsense response 7 lies in the first two events, so with t = 2
        // the witness may give that operation a different (legal) response.
        let w = t_linearization(&h, &u, 2).expect("2-linearizable");
        assert_eq!(w.order.len(), 2);
        let mut responses = w.responses.clone();
        responses.sort();
        assert_eq!(responses, vec![Value::from(0i64), Value::from(1i64)]);
        assert!(!is_t_linearizable(&h, &u, 0));
    }

    #[test]
    fn monotone_in_t_lemma_5() {
        let (u, x) = fi_universe();
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
            .build();
        let t0 = min_stabilization(&h, &u, None).unwrap();
        for t in t0..=h.len() {
            assert!(
                is_t_linearizable(&h, &u, t),
                "monotonicity violated at t={t}"
            );
        }
        for t in 0..t0 {
            assert!(!is_t_linearizable(&h, &u, t));
        }
    }

    #[test]
    fn register_history_with_early_garbage() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let h = HistoryBuilder::new()
            // Garbage read (99 was never written) in the prefix...
            .complete(ProcessId(0), r, Register::read(), Value::from(99i64))
            // ...then well-behaved operations.
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(ProcessId(1), r, Register::read(), Value::from(1i64))
            .build();
        assert!(!is_t_linearizable(&h, &u, 0));
        assert_eq!(min_stabilization(&h, &u, None), Some(2));
    }

    #[test]
    fn empty_history_is_zero_linearizable() {
        let (u, _) = fi_universe();
        let h = History::new();
        assert!(is_t_linearizable(&h, &u, 0));
        assert_eq!(min_stabilization(&h, &u, None), Some(0));
    }

    #[test]
    fn offline_search_counters_are_pinned() {
        // Three concurrent writes and a read of garbage, two later reads
        // that disagree on which write came last, then well-behaved
        // fetch&increment traffic.  The expected counters are
        // what the binary search's probes and the per-operation Definition-1
        // searches cost while each was stated as a materialized problem
        // (PR 23).
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let x = u.add_object(FetchIncrement::new());
        let (p0, p1, p2, p3) = (ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(3));
        let h = HistoryBuilder::new()
            .invoke(p0, r, Register::write(Value::from(1i64)))
            .invoke(p1, r, Register::write(Value::from(2i64)))
            .invoke(p3, r, Register::write(Value::from(5i64)))
            .invoke(p2, r, Register::read())
            .respond(p2, r, Value::from(9i64))
            .respond(p0, r, Value::Unit)
            .respond(p1, r, Value::Unit)
            .respond(p3, r, Value::Unit)
            .invoke(p0, r, Register::read())
            .invoke(p1, r, Register::write(Value::from(3i64)))
            .invoke(p3, r, Register::read())
            .respond(p0, r, Value::from(2i64))
            .respond(p1, r, Value::Unit)
            .respond(p3, r, Value::from(5i64))
            .complete(p2, r, Register::read(), Value::from(3i64))
            .invoke(p0, x, FetchIncrement::fetch_inc())
            .invoke(p1, x, FetchIncrement::fetch_inc())
            .respond(p0, x, Value::from(1i64))
            .respond(p1, x, Value::from(0i64))
            .complete(p2, x, FetchIncrement::fetch_inc(), Value::from(2i64))
            .invoke(p0, r, Register::write(Value::from(4i64)))
            .build();
        let (min, stats) = min_stabilization_with_stats(&h, &u, None);
        assert_eq!(min, Some(7));
        assert_eq!((stats.nodes, stats.memo_hits), (260, 87));
        let (violations, stats) = crate::weak_consistency::violations_with_stats(&h, &u);
        assert_eq!(violations, vec![evlin_history::OpId(3)]);
        assert_eq!((stats.nodes, stats.memo_hits), (134, 32));
    }

    #[test]
    fn stats_report_search_effort() {
        let (u, x) = fi_universe();
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
                Value::from(1i64),
            )
            .build();
        let (w, stats) = t_linearization_with_stats(&h, &u, 0);
        assert!(w.is_some());
        assert!(stats.nodes > 0);
    }
}
