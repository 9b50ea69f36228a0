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
//! [`TLinearizability`] is a [`ConsistencyCondition`] translating the four
//! clauses above into candidate-operation constraints and precedence edges.
//! For `t = 0` the condition is exactly linearizability and admits the
//! per-object locality decomposition; for `t > 0` it must be checked on the
//! whole history (Lemma 7 only decomposes "`t`-linearizable for *some* `t`").

use crate::kernel::{
    self, ConsistencyCondition, ConstrainedOp, KernelScratch, Locality, OpView, Problem,
    SearchLimits, SearchProblem, SearchResult, SearchStats, Witness,
};
use evlin_history::{Event, EventKind, History, ObjectUniverse};

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

    /// Clause 4: whether a response at `respond_index` lies in `H'`, so the
    /// witness must reproduce it.
    fn constrains_response(&self, respond_index: usize) -> bool {
        respond_index >= self.t
    }

    /// Clause 3 over `n` operations given by their `(invoke, respond)`
    /// indices: the edge `(i, j)` for every `i` whose response precedes
    /// `j`'s invocation with both events in `H'`, sources ascending.
    fn edges<'a>(
        self,
        n: usize,
        indices: impl Fn(usize) -> (usize, Option<usize>) + Copy + 'a,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        let t = self.t;
        let sources = (0..n).filter_map(move |i| Some((i, indices(i).1.filter(|&r| r >= t)?)));
        sources.flat_map(move |(i, respond)| {
            let ordered = move |&j: &usize| {
                let invoke = indices(j).0;
                j != i && invoke >= t && respond < invoke
            };
            (0..n).filter(ordered).map(move |j| (i, j))
        })
    }
}

/// Definition 2 over a borrowed event sequence: the problem
/// [`TLinearizability::problem`] builds from a [`History`], read in place.
///
/// `ops` are the sequence's operations as matched by
/// [`evlin_history::OperationMatcher`] and `event` maps a position of the
/// sequence to its event, so a caller that holds a projection `H|o` as
/// positions into a larger history (the online monitor does) lends it to the
/// kernel without materializing a `History` or a [`SearchProblem`].  `t` is
/// counted in positions of the sequence.
#[derive(Debug, Clone, Copy)]
pub struct EventProblem<'a, F> {
    /// The condition.
    pub condition: TLinearizability,
    /// Position in the sequence → event.
    pub event: F,
    /// `(invoke, respond)` positions per operation, in invocation order.
    pub ops: &'a [(usize, Option<usize>)],
}

impl<'a, F: Fn(usize) -> &'a Event> Problem for EventProblem<'a, F> {
    fn op_count(&self) -> usize {
        self.ops.len()
    }

    fn op(&self, i: usize) -> OpView<'_> {
        let (invoke, respond) = self.ops[i];
        let invocation = (self.event)(invoke);
        let EventKind::Invoke(call) = &invocation.kind else {
            unreachable!("matched as an invocation");
        };
        let constrained = respond.filter(|&r| self.condition.constrains_response(r));
        OpView {
            object: invocation.object,
            invocation: call,
            required: respond.is_some(),
            fixed_response: constrained.map(|r| match &(self.event)(r).kind {
                EventKind::Respond(value) => value,
                EventKind::Invoke(_) => unreachable!("matched as a response"),
            }),
        }
    }

    fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (condition, ops) = (self.condition, self.ops);
        condition.edges(ops.len(), move |i| ops[i])
    }
}

impl ConsistencyCondition for TLinearizability {
    fn name(&self) -> &'static str {
        "t-linearizability"
    }

    fn candidates(&self, history: &History) -> Vec<ConstrainedOp> {
        let ops = history.operations();
        let mut cops = Vec::with_capacity(ops.len());
        for op in ops {
            cops.push(ConstrainedOp {
                required: op.is_complete(),
                fixed_response: match op.respond_index {
                    Some(r) if self.constrains_response(r) => op.response.clone(),
                    _ => None,
                },
                record: op,
            });
        }
        cops
    }

    fn precedence(&self, _history: &History, candidates: &[ConstrainedOp]) -> Vec<(usize, usize)> {
        let indices = |i: usize| {
            let record = &candidates[i].record;
            (record.invoke_index, record.respond_index)
        };
        self.edges(candidates.len(), indices).collect()
    }

    fn locality(&self) -> Locality {
        if self.t == 0 {
            // 0-linearizability is linearizability, which is local
            // (Herlihy & Wing's locality theorem).
            Locality::Exact
        } else {
            Locality::Global
        }
    }
}

/// Builds the constrained-linearization problem corresponding to
/// `t`-linearizability of `history`.
pub fn problem_for(history: &History, t: usize) -> SearchProblem {
    TLinearizability::new(t).problem(history)
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
/// a reused [`KernelScratch`], so the visited cache and taken-set are
/// allocated once per history, not once per probe.  Returns `None` if the
/// history is not even `limit`-linearizable (which cannot happen for total
/// types when `limit` is the history length).
pub fn min_stabilization(
    history: &History,
    universe: &ObjectUniverse,
    limit: Option<usize>,
) -> Option<usize> {
    let hi_bound = limit.unwrap_or(history.len());
    let mut scratch = KernelScratch::new();
    let limits = SearchLimits::default();
    let mut probe = |t: usize| -> bool {
        let problem = problem_for(history, t);
        matches!(
            kernel::solve_with_scratch(&problem, universe, limits, &mut scratch).0,
            SearchResult::Yes(_)
        )
    };
    if !probe(hi_bound) {
        return None;
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
    Some(lo)
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
