//! Differential tests: the unified Wing–Gong kernel must agree with a
//! brute-force permutation checker on random small histories, for all four
//! consistency conditions (linearizability, `t`-linearizability, weak
//! consistency, eventual linearizability).
//!
//! The brute-force checker is a direct transcription of the
//! constrained-linearization question — enumerate every subset of the
//! optional operations, every permutation of the chosen operations, check
//! the precedence pairs, and replay the sequence against the (deterministic)
//! sequential specifications — with none of the kernel's machinery: no
//! memoization, no interning, no interchangeability classes, no locality
//! decomposition.  It reads a problem the way the kernel does, as
//! [`Problem`] views, and shares nothing else with it.  Seeded and
//! deterministic.

use evlin_checker::kernel::{self, ConsistencyCondition, Problem, SearchLimits};
use evlin_checker::t_linearizability::{EventProblem, TLinearizability};
use evlin_checker::weak_consistency::{self, Tally, WeakOperation};
use evlin_checker::{eventual, linearizability, t_linearizability};
use evlin_history::{
    EventKind, History, HistoryBuilder, ObjectId, ObjectUniverse, OpId, OperationMatcher, ProcessId,
};
use evlin_spec::{Counter, FetchIncrement, Invocation, Queue, Register, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Brute-force decision of `condition`'s question about `h`.
fn brute_force<C: ConsistencyCondition>(condition: &C, h: &History, u: &ObjectUniverse) -> bool {
    let mut matcher = OperationMatcher::default();
    let problem = condition.views(h, matcher.match_events(h.events()));
    some_arrangement_is_legal(&problem, u)
}

/// Brute-force decision of a [`Problem`] over deterministic object types:
/// try every subset of optional operations and every permutation of the
/// chosen operations.
fn some_arrangement_is_legal<P: Problem>(problem: &P, universe: &ObjectUniverse) -> bool {
    let n = problem.op_count();
    let optional: Vec<usize> = (0..n).filter(|&i| !problem.op(i).required).collect();
    let required: Vec<usize> = (0..n).filter(|&i| problem.op(i).required).collect();
    for mask in 0..(1usize << optional.len()) {
        let mut chosen = required.clone();
        for (bit, &op) in optional.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                chosen.push(op);
            }
        }
        if some_permutation_is_legal(&mut chosen, 0, problem, universe) {
            return true;
        }
    }
    false
}

/// Recursively enumerates every permutation of `chosen[at..]` (plain
/// swap-based enumeration) and checks each complete arrangement.
fn some_permutation_is_legal<P: Problem>(
    chosen: &mut Vec<usize>,
    at: usize,
    problem: &P,
    universe: &ObjectUniverse,
) -> bool {
    if at == chosen.len() {
        return arrangement_is_legal(chosen, problem, universe);
    }
    for swap in at..chosen.len() {
        chosen.swap(at, swap);
        if some_permutation_is_legal(chosen, at + 1, problem, universe) {
            chosen.swap(at, swap);
            return true;
        }
        chosen.swap(at, swap);
    }
    false
}

/// Checks one arrangement: every precedence pair with both ends present must
/// be ordered accordingly, and replaying the operations against the
/// deterministic specifications must produce every fixed response.
fn arrangement_is_legal<P: Problem>(
    arrangement: &[usize],
    problem: &P,
    universe: &ObjectUniverse,
) -> bool {
    let pos = |op: usize| arrangement.iter().position(|&x| x == op);
    for (i, j) in problem.edges() {
        if let (Some(pi), Some(pj)) = (pos(i), pos(j)) {
            if pi >= pj {
                return false;
            }
        }
    }
    let mut states = initial_states(universe);
    arrangement
        .iter()
        .all(|&op| step(problem, op, universe, &mut states))
}

/// The initial state of every object of the universe, by object index.
fn initial_states(universe: &ObjectUniverse) -> Vec<Value> {
    let ids = universe.object_ids();
    ids.iter()
        .map(|id| universe.initial_state(*id).clone())
        .collect()
}

/// Replays operation `op` of `problem` against `states` (one per object of
/// the universe); `false` if its fixed response is not the one it gets.
fn step<P: Problem>(
    problem: &P,
    op: usize,
    universe: &ObjectUniverse,
    states: &mut [Value],
) -> bool {
    let view = problem.op(op);
    // The brute-force replay assumes deterministic types: a second outcome
    // is an error here.
    let (response, next) = universe
        .object_type(view.object)
        .apply_deterministic(&states[view.object.index()], view.invocation)
        .expect("valid invocation on a deterministic type");
    states[view.object.index()] = next;
    view.fixed_response.is_none_or(|fixed| *fixed == response)
}

/// An accepting frontier: the final state of every object the problem names
/// (in order of first appearance), and the invocations of the tracked
/// operations that were placed, sorted — the kernel places interchangeable
/// operations in index order, so which of two identical pending operations a
/// frontier holds is not something it tells apart.
type Frontier = (States, Vec<Invocation>);

/// The state of every object a problem names.
type States = Vec<(ObjectId, Value)>;

/// The frontier with `states` in which `placed` says, per operation of
/// `tracked`, whether it was placed.
fn frontier_of<P: Problem>(
    problem: &P,
    states: impl Iterator<Item = (ObjectId, Value)>,
    tracked: &[usize],
    placed: impl Iterator<Item = bool>,
) -> Frontier {
    let held = tracked.iter().zip(placed).filter(|(_, placed)| *placed);
    let mut held: Vec<Invocation> = held
        .map(|(&op, _)| problem.op(op).invocation.clone())
        .collect();
    held.sort();
    (states.collect(), held)
}

/// Every accepting frontier of `problem` from `roots`, by brute force: grow
/// every arrangement one operation at a time — any operation not yet placed,
/// unless one it must precede already is — replaying as it grows, and note
/// where each arrangement that holds every required operation leaves the
/// objects.
fn brute_frontiers<P: Problem>(
    problem: &P,
    roots: &[(ObjectId, &Value)],
    universe: &ObjectUniverse,
    tracked: &[usize],
) -> BTreeSet<Frontier> {
    let mut states = initial_states(universe);
    for (object, state) in roots {
        states[object.index()] = (*state).clone();
    }
    let mut named: Vec<ObjectId> = Vec::new();
    for object in (0..problem.op_count()).map(|i| problem.op(i).object) {
        if !named.contains(&object) {
            named.push(object);
        }
    }
    let mut enumeration = Enumeration {
        problem,
        universe,
        tracked,
        named,
        required: (0..problem.op_count())
            .filter(|&i| problem.op(i).required)
            .fold(0, |set, i| set | 1 << i),
        edges: problem.edges().collect(),
        placed: 0,
        found: BTreeSet::new(),
    };
    enumeration.extend(&mut states);
    enumeration.found
}

struct Enumeration<'a, P> {
    problem: &'a P,
    universe: &'a ObjectUniverse,
    tracked: &'a [usize],
    /// The objects the problem names, in order of first appearance.
    named: Vec<ObjectId>,
    /// The required operations, as a bit set.
    required: u32,
    edges: Vec<(usize, usize)>,
    /// The operations of the arrangement so far, as a bit set.
    placed: u32,
    found: BTreeSet<Frontier>,
}

impl<P: Problem> Enumeration<'_, P> {
    /// Notes the frontier of the arrangement so far, which leaves the objects
    /// in `states`, if it is accepting, and tries every way to extend it.
    fn extend(&mut self, states: &mut [Value]) {
        if self.required & !self.placed == 0 {
            self.found.insert(frontier_of(
                self.problem,
                self.named.iter().map(|o| (*o, states[o.index()].clone())),
                self.tracked,
                self.tracked.iter().map(|op| self.placed & 1 << op != 0),
            ));
        }
        for op in 0..self.problem.op_count() {
            let too_late = |&(i, j): &(usize, usize)| i == op && self.placed & 1 << j != 0;
            if self.placed & 1 << op != 0 || self.edges.iter().any(too_late) {
                continue;
            }
            let object = self.problem.op(op).object.index();
            let before = states[object].clone();
            if step(self.problem, op, self.universe, states) {
                self.placed |= 1 << op;
                self.extend(states);
                self.placed &= !(1 << op);
            }
            states[object] = before;
        }
    }
}

/// Generates a random well-formed history over a register and a
/// fetch&increment object: random interleaving, noisy responses, possibly
/// pending operations.
fn random_history(seed: u64, max_ops: usize) -> History {
    let mut rng = StdRng::seed_from_u64(seed);
    let r = evlin_history::ObjectId(0);
    let x = evlin_history::ObjectId(1);
    let processes = rng.gen_range(2..4usize);
    let total_ops = rng.gen_range(2..=max_ops);
    // Plan per-process invocation lists.
    let mut plans: Vec<Vec<evlin_spec::Invocation>> = vec![Vec::new(); processes];
    for _ in 0..total_ops {
        let p = rng.gen_range(0..processes);
        let inv = match rng.gen_range(0..3u32) {
            0 => Register::write(Value::from(rng.gen_range(1..4i64))),
            1 => Register::read(),
            _ => FetchIncrement::fetch_inc(),
        };
        plans[p].push(inv);
    }
    // Interleave invocations and (noisy) responses at random; operations
    // still pending when the step budget runs out stay pending.
    let mut b = HistoryBuilder::new();
    let mut next_op: Vec<usize> = vec![0; processes];
    let mut pending: Vec<Option<evlin_spec::Invocation>> = vec![None; processes];
    let object_of = |inv: &evlin_spec::Invocation| if inv.method() == "fetch_inc" { x } else { r };
    for _ in 0..total_ops * 8 {
        let p = rng.gen_range(0..processes);
        if let Some(inv) = pending[p].clone() {
            if rng.gen_bool(0.7) {
                let response = if inv.method() == "write" {
                    Value::Unit
                } else {
                    Value::from(rng.gen_range(0..4i64))
                };
                b = b.respond(ProcessId(p), object_of(&inv), response);
                pending[p] = None;
            }
        } else if next_op[p] < plans[p].len() {
            let inv = plans[p][next_op[p]].clone();
            next_op[p] += 1;
            b = b.invoke(ProcessId(p), object_of(&inv), inv.clone());
            pending[p] = Some(inv);
        }
    }
    b.build()
}

fn differential_universe() -> ObjectUniverse {
    let mut u = ObjectUniverse::new();
    u.add_object(Register::new(Value::from(0i64)));
    u.add_object(FetchIncrement::new());
    u
}

const SEEDS: u64 = 40;
const MAX_OPS: usize = 6;

/// Number of cases for the `#[ignore]`d extended (nightly-fuzz) tests, from
/// `EVLIN_DIFF_CASES` (default 2000).
fn extended_cases() -> u64 {
    std::env::var("EVLIN_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000)
}

fn assert_linearizability_agrees(u: &ObjectUniverse, seed: u64) {
    let h = random_history(seed, MAX_OPS);
    let brute = brute_force(&linearizability::Linearizability, &h, u);
    let fast = linearizability::is_linearizable(&h, u);
    assert_eq!(fast, brute, "linearizability mismatch (seed {seed})\n{h}");
    // The locality pre-pass and the undecomposed kernel must agree too.
    let global = kernel::check(
        &linearizability::Linearizability,
        &h,
        u,
        SearchLimits::default(),
    );
    assert_eq!(
        global.is_yes(),
        brute,
        "global kernel mismatch (seed {seed})\n{h}"
    );
}

fn assert_t_linearizability_agrees(u: &ObjectUniverse, seed: u64) {
    let h = random_history(seed, MAX_OPS);
    for t in 0..=h.len() {
        let brute = brute_force(&TLinearizability::new(t), &h, u);
        let fast = t_linearizability::is_t_linearizable(&h, u, t);
        assert_eq!(
            fast, brute,
            "t-linearizability mismatch (seed {seed}, t {t})\n{h}"
        );
    }
}

fn assert_min_stabilization_agrees(u: &ObjectUniverse, seed: u64) {
    let h = random_history(seed, MAX_OPS);
    let brute_min = (0..=h.len()).find(|&t| brute_force(&TLinearizability::new(t), &h, u));
    let fast_min = t_linearizability::min_stabilization(&h, u, None);
    assert_eq!(
        fast_min, brute_min,
        "stabilization mismatch (seed {seed})\n{h}"
    );
}

fn assert_weak_consistency_agrees(u: &ObjectUniverse, seed: u64) {
    let h = random_history(seed, MAX_OPS);
    let mut brute_violations = Vec::new();
    for op in h.operations().iter().filter(|op| op.is_complete()) {
        if !brute_force(&WeakOperation { op: op.id }, &h, u) {
            brute_violations.push(op.id);
        }
    }
    let fast_violations = weak_consistency::violations(&h, u);
    assert_eq!(
        fast_violations, brute_violations,
        "weak-consistency mismatch (seed {seed})\n{h}"
    );
    assert_eq!(
        weak_consistency::is_weakly_consistent(&h, u),
        brute_violations.is_empty(),
        "locality pre-pass mismatch (seed {seed})\n{h}"
    );
}

fn assert_eventual_agrees(u: &ObjectUniverse, seed: u64) {
    let h = random_history(seed, MAX_OPS);
    let brute_weak = h
        .operations()
        .iter()
        .filter(|op| op.is_complete())
        .all(|op| brute_force(&WeakOperation { op: op.id }, &h, u));
    let brute_liveness = brute_force(&eventual::StabilizesEventually, &h, u);
    let report = eventual::analyze(&h, u);
    assert_eq!(
        report.is_eventually_linearizable(),
        brute_weak && brute_liveness,
        "eventual-linearizability mismatch (seed {seed})\n{h}"
    );
}

/// Scratch-reuse / incremental-key cross-check: solving a stream of seeded
/// problems through ONE reused [`kernel::KernelScratch`] must give exactly
/// the verdicts and node counters of fresh-scratch solves.  This is the
/// differential mode for the pooled-buffer and incremental visited-key
/// refactor — a stale pooled table or a drifting Zobrist key shows up as a
/// verdict or counter mismatch (and the kernel additionally re-derives the
/// key from scratch on every apply/retract under `debug_assertions`, which
/// this test therefore exercises on every visited state).
fn assert_scratch_reuse_agrees(u: &ObjectUniverse, seeds: impl Iterator<Item = u64>) {
    let mut reused = kernel::KernelScratch::new();
    let limits = SearchLimits::default();
    for seed in seeds {
        let h = random_history(seed, MAX_OPS);
        let mut matcher = OperationMatcher::default();
        let ops = matcher.match_events(h.events());
        for t in [0, h.len() / 2] {
            let problem = TLinearizability::new(t).views(&h, ops);
            let fresh = &mut kernel::KernelScratch::new();
            let (fresh_result, fresh_stats) = kernel::solve_rooted(&problem, &[], u, limits, fresh);
            let (reused_result, reused_stats) =
                kernel::solve_rooted(&problem, &[], u, limits, &mut reused);
            assert_eq!(
                fresh_result.is_yes(),
                reused_result.is_yes(),
                "scratch reuse changed the verdict (seed {seed}, t {t})\n{h}"
            );
            assert_eq!(
                (fresh_stats.nodes, fresh_stats.memo_hits),
                (reused_stats.nodes, reused_stats.memo_hits),
                "scratch reuse changed the search counters (seed {seed}, t {t})\n{h}"
            );
        }
    }
}

/// The object types of the in-place property.
#[derive(Clone, Copy)]
enum Kind {
    Register,
    Counter,
    Queue,
    FetchIncrement,
}

impl Kind {
    fn add_to(self, universe: &mut ObjectUniverse, state: Value) -> ObjectId {
        match self {
            Kind::Register => {
                universe.add_object_with_state(Register::new(Value::from(0i64)), state)
            }
            Kind::Counter => universe.add_object_with_state(Counter::new(), state),
            Kind::Queue => universe.add_object_with_state(Queue::new(), state),
            Kind::FetchIncrement => universe.add_object_with_state(FetchIncrement::new(), state),
        }
    }

    fn initial(self) -> Value {
        match self {
            Kind::Queue => Value::list([]),
            _ => Value::from(0i64),
        }
    }

    /// A state a verified prefix could have left the object in.
    fn some_state(self, rng: &mut StdRng) -> Value {
        match self {
            Kind::Queue => Value::list((0..rng.gen_range(0..3i64)).map(Value::from)),
            _ => Value::from(rng.gen_range(0..3i64)),
        }
    }

    fn some_invocation(self, rng: &mut StdRng) -> Invocation {
        let value = Value::from(rng.gen_range(0..3i64));
        match (self, rng.gen_bool(0.5)) {
            (Kind::Register, true) => Register::write(value),
            (Kind::Register, false) => Register::read(),
            (Kind::Counter, true) => Counter::inc(),
            (Kind::Counter, false) => Counter::read(),
            (Kind::Queue, true) => Queue::enqueue(value),
            (Kind::Queue, false) => Queue::dequeue(),
            (Kind::FetchIncrement, _) => FetchIncrement::fetch_inc(),
        }
    }
}

/// A random well-formed history over `kinds` (object `i` has type
/// `kinds[i]`): every effect takes place at its response, which is usually
/// the true one; operations still running when the steps run out stay
/// pending.
fn random_typed_history(rng: &mut StdRng, kinds: &[Kind]) -> History {
    let mut universe = ObjectUniverse::new();
    let mut state: Vec<Value> = kinds.iter().map(|k| k.initial()).collect();
    for (kind, initial) in kinds.iter().zip(&state) {
        kind.add_to(&mut universe, initial.clone());
    }
    let processes = rng.gen_range(2..5usize);
    let mut pending: Vec<Option<(ObjectId, Invocation)>> = vec![None; processes];
    let mut b = HistoryBuilder::new();
    for _ in 0..rng.gen_range(4..20usize) {
        let p = rng.gen_range(0..processes);
        match pending[p].take() {
            None => {
                let object = rng.gen_range(0..kinds.len());
                let invocation = kinds[object].some_invocation(rng);
                b = b.invoke(ProcessId(p), ObjectId(object), invocation.clone());
                pending[p] = Some((ObjectId(object), invocation));
            }
            Some((object, invocation)) => {
                let (mut response, next) = universe
                    .object_type(object)
                    .apply_deterministic(&state[object.0], &invocation)
                    .expect("total deterministic types");
                state[object.0] = next;
                if rng.gen_bool(0.1) {
                    response = Value::from(2i64);
                }
                b = b.respond(ProcessId(p), object, response);
            }
        }
    }
    b.build()
}

/// Longest projection the rooted property enumerates by brute force.
const MAX_ROOTED_OPS: usize = 7;

/// The kernel's rooted entries — `H|o` read through its positions in `H`,
/// operations matched into index pairs, the root state an argument — against
/// the brute force: [`kernel::visit_frontiers`] hands out exactly the
/// accepting frontiers there are (final states and which pending operations
/// were placed), no row twice, and the witness search (the stream tail's)
/// agrees on whether there is any.
fn assert_rooted_entries_agree(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let all = [
        Kind::Register,
        Kind::Counter,
        Kind::Queue,
        Kind::FetchIncrement,
    ];
    let kinds: Vec<Kind> = (0..rng.gen_range(1..4usize))
        .map(|_| all[rng.gen_range(0..all.len())])
        .collect();
    let h = random_typed_history(&mut rng, &kinds);
    let limits = SearchLimits::default();
    let mut universe = ObjectUniverse::new();
    for kind in &kinds {
        kind.add_to(&mut universe, kind.initial());
    }
    let mut matcher = OperationMatcher::default();
    let mut scratch = kernel::KernelScratch::new();
    for object in h.objects() {
        let kind = kinds[object.0];
        let (_, positions) = h.project_object_indexed(object);
        let picked: Vec<u32> = positions.iter().map(|&p| p as u32).collect();
        let ops = matcher.match_events(positions.iter().map(|&p| &h.events()[p]));
        if ops.len() > MAX_ROOTED_OPS {
            continue;
        }
        let problem = EventProblem {
            t: 0,
            events: h.events(),
            picked: Some(&picked),
            ops,
        };
        let tracked: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].1.is_none()).collect();
        let mut frontier = vec![kind.initial()];
        frontier.extend((0..rng.gen_range(0..3usize)).map(|_| kind.some_state(&mut rng)));
        for root in &frontier {
            let roots = [(object, root)];
            let expected = brute_frontiers(&problem, &roots, &universe, &tracked);
            let mut rows: Vec<(States, Vec<bool>)> = Vec::new();
            let (complete, _) = kernel::visit_frontiers(
                &problem,
                &roots,
                &universe,
                limits,
                &tracked,
                &mut scratch,
                |row| {
                    let states = row.states().map(|(o, v)| (o, v.clone()));
                    rows.push((states.collect(), row.placed().collect()))
                },
            );
            let context = format!("seed {seed}, {object} from {root}\n{h}");
            assert!(complete, "{context}");
            for (i, row) in rows.iter().enumerate() {
                assert!(!rows[..i].contains(row), "row {i} came twice ({context})");
            }
            let found: BTreeSet<Frontier> = rows
                .into_iter()
                .map(|(states, placed)| {
                    frontier_of(&problem, states.into_iter(), &tracked, placed.into_iter())
                })
                .collect();
            assert_eq!(found, expected, "frontiers ({context})");
            let (witness, _) =
                kernel::solve_rooted(&problem, &roots, &universe, limits, &mut scratch);
            assert_eq!(witness.is_yes(), !expected.is_empty(), "{context}");
        }
    }
}

/// Definition 1's two statements agree: for every completed operation of a
/// seeded single-object history (a register, counter, queue or
/// fetch&increment), the counted problem built from the invocation tallies
/// at its response ([`weak_consistency::justify`], what the monitor and
/// Figure 1 ask) gets the kernel verdict the history's views
/// ([`WeakOperation`], the offline reference) get, and the brute force's
/// verdict on those views where they are few enough to enumerate.
fn assert_counted_statement_agrees(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let kinds = [
        Kind::Register,
        Kind::Counter,
        Kind::Queue,
        Kind::FetchIncrement,
    ];
    let kind = kinds[rng.gen_range(0..kinds.len())];
    let h = random_typed_history(&mut rng, &[kind]);
    let mut u = ObjectUniverse::new();
    let object = kind.add_to(&mut u, kind.initial());
    let mut invoked = Tally::new();
    let mut preds: BTreeMap<ProcessId, Tally> = BTreeMap::new();
    let mut open: BTreeMap<ProcessId, (OpId, &Invocation)> = BTreeMap::new();
    let mut matcher = OperationMatcher::default();
    let ops = matcher.match_events(h.events());
    for event in h.events() {
        let response = match &event.kind {
            EventKind::Invoke(invocation) => {
                *invoked.entry(invocation.clone()).or_insert(0) += 1;
                let op = OpId(invoked.values().sum::<u64>() as usize - 1);
                open.insert(event.process, (op, invocation));
                continue;
            }
            EventKind::Respond(response) => response,
        };
        let (op, invocation) = open.remove(&event.process).expect("well-formed");
        let own = preds.entry(event.process).or_default();
        let (counted, _) =
            weak_consistency::justify(&u, object, &invoked, own, invocation, response);
        let stated = kernel::check(&WeakOperation { op }, &h, &u, SearchLimits::default());
        let context = format!("seed {seed}, {op}\n{h}");
        assert_eq!(
            counted.is_yes(),
            stated.is_yes(),
            "kernel verdicts ({context})"
        );
        let views = WeakOperation { op }.views(&h, ops);
        if views.op_count() <= MAX_ROOTED_OPS {
            let brute = some_arrangement_is_legal(&views, &u);
            assert_eq!(counted.is_yes(), brute, "brute force ({context})");
        }
        *own.entry(invocation.clone()).or_insert(0) += 1;
    }
}

#[test]
fn counted_and_history_statements_of_definition_1_agree() {
    for seed in 0..10 * SEEDS {
        assert_counted_statement_agrees(seed);
    }
}

/// Nightly-fuzz version of the two statements' agreement.
#[test]
#[ignore = "extended fuzz: run via the nightly CI job or with --ignored"]
fn extended_counted_statement_cross_check() {
    for i in 0..10 * extended_cases() {
        assert_counted_statement_agrees(13_000 + i.wrapping_mul(0x9e37_79b9));
    }
}

#[test]
fn rooted_entries_match_the_brute_force() {
    for seed in 0..10 * SEEDS {
        assert_rooted_entries_agree(seed);
    }
}

/// Nightly-fuzz version of the rooted property.
#[test]
#[ignore = "extended fuzz: run via the nightly CI job or with --ignored"]
fn extended_rooted_entries_cross_check() {
    for i in 0..10 * extended_cases() {
        assert_rooted_entries_agree(11_000 + i.wrapping_mul(0x9e37_79b9));
    }
}

#[test]
fn scratch_reuse_matches_fresh_scratch_verdicts() {
    let u = differential_universe();
    assert_scratch_reuse_agrees(&u, 0..SEEDS);
}

/// Nightly-fuzz version of the scratch-reuse cross-check.
#[test]
#[ignore = "extended fuzz: run via the nightly CI job or with --ignored"]
fn extended_scratch_reuse_cross_check() {
    let u = differential_universe();
    assert_scratch_reuse_agrees(
        &u,
        (0..extended_cases()).map(|i| 7_000 + i.wrapping_mul(0x9e37_79b9)),
    );
}

#[test]
fn kernel_agrees_with_brute_force_on_linearizability() {
    let u = differential_universe();
    for seed in 0..SEEDS {
        assert_linearizability_agrees(&u, seed);
    }
}

#[test]
fn kernel_agrees_with_brute_force_on_t_linearizability() {
    let u = differential_universe();
    for seed in 0..SEEDS {
        assert_t_linearizability_agrees(&u, seed);
    }
}

#[test]
fn kernel_agrees_with_brute_force_on_min_stabilization() {
    let u = differential_universe();
    for seed in 0..SEEDS {
        assert_min_stabilization_agrees(&u, seed);
    }
}

#[test]
fn kernel_agrees_with_brute_force_on_weak_consistency() {
    let u = differential_universe();
    for seed in 0..SEEDS {
        assert_weak_consistency_agrees(&u, seed);
    }
}

#[test]
fn kernel_agrees_with_brute_force_on_eventual_linearizability() {
    let u = differential_universe();
    for seed in 0..SEEDS {
        assert_eventual_agrees(&u, seed);
    }
}

/// The nightly-fuzz version: `EVLIN_DIFF_CASES` fresh seeds (disjoint from
/// the PR-build range) through every condition's brute-force comparison.
#[test]
#[ignore = "extended fuzz: run via the nightly CI job or with --ignored"]
fn extended_kernel_vs_brute_force_all_conditions() {
    let u = differential_universe();
    for i in 0..extended_cases() {
        let seed = SEEDS + i.wrapping_mul(0x9e37_79b9);
        assert_linearizability_agrees(&u, seed);
        assert_t_linearizability_agrees(&u, seed);
        assert_min_stabilization_agrees(&u, seed);
        assert_weak_consistency_agrees(&u, seed);
        assert_eventual_agrees(&u, seed);
    }
}
