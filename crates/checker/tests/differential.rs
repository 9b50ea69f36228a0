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
//! decomposition.  Seeded and deterministic.

use evlin_checker::kernel::{self, ConsistencyCondition, SearchLimits, SearchProblem};
use evlin_checker::t_linearizability::{EventProblem, TLinearizability};
use evlin_checker::weak_consistency::{self, WeakOperation};
use evlin_checker::{eventual, linearizability, t_linearizability};
use evlin_history::{
    History, HistoryBuilder, ObjectId, ObjectUniverse, OperationMatcher, ProcessId,
};
use evlin_spec::{Counter, FetchIncrement, Invocation, Queue, Register, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Brute-force decision of a [`SearchProblem`] over deterministic object
/// types: try every subset of optional operations and every permutation of
/// the chosen operations.
fn brute_force(problem: &SearchProblem, universe: &ObjectUniverse) -> bool {
    let n = problem.ops.len();
    let optional: Vec<usize> = (0..n).filter(|&i| !problem.ops[i].required).collect();
    let required: Vec<usize> = (0..n).filter(|&i| problem.ops[i].required).collect();
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
fn some_permutation_is_legal(
    chosen: &mut Vec<usize>,
    at: usize,
    problem: &SearchProblem,
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
fn arrangement_is_legal(
    arrangement: &[usize],
    problem: &SearchProblem,
    universe: &ObjectUniverse,
) -> bool {
    let pos = |op: usize| arrangement.iter().position(|&x| x == op);
    for &(i, j) in &problem.precedence {
        if let (Some(pi), Some(pj)) = (pos(i), pos(j)) {
            if pi >= pj {
                return false;
            }
        }
    }
    let mut states: Vec<Value> = universe
        .object_ids()
        .iter()
        .map(|id| universe.initial_state(*id).clone())
        .collect();
    for &op in arrangement {
        let cop = &problem.ops[op];
        let object = cop.record.object;
        let ty = universe.object_type(object);
        assert!(
            ty.is_deterministic(),
            "the brute-force replay assumes deterministic types"
        );
        let (response, next) = ty
            .apply_deterministic(&states[object.index()], &cop.record.invocation)
            .expect("valid invocation on a deterministic type");
        if let Some(fixed) = &cop.fixed_response {
            if &response != fixed {
                return false;
            }
        }
        states[object.index()] = next;
    }
    true
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
    let problem = linearizability::Linearizability.problem(&h);
    let brute = brute_force(&problem, u);
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
        let problem = t_linearizability::problem_for(&h, t);
        let brute = brute_force(&problem, u);
        let fast = t_linearizability::is_t_linearizable(&h, u, t);
        assert_eq!(
            fast, brute,
            "t-linearizability mismatch (seed {seed}, t {t})\n{h}"
        );
    }
}

fn assert_min_stabilization_agrees(u: &ObjectUniverse, seed: u64) {
    let h = random_history(seed, MAX_OPS);
    let brute_min = (0..=h.len()).find(|&t| brute_force(&t_linearizability::problem_for(&h, t), u));
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
        let problem = WeakOperation { op: op.id }.problem(&h);
        if !brute_force(&problem, u) {
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
        .all(|op| brute_force(&WeakOperation { op: op.id }.problem(&h), u));
    let brute_liveness = brute_force(&eventual::StabilizesEventually.problem(&h), u);
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
        for t in [0, h.len() / 2] {
            let problem = t_linearizability::problem_for(&h, t);
            let (fresh_result, fresh_stats) =
                kernel::solve_with_scratch(&problem, u, limits, &mut kernel::KernelScratch::new());
            let (reused_result, reused_stats) =
                kernel::solve_with_scratch(&problem, u, limits, &mut reused);
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

/// The in-place kernel entry — `H|o` read through its positions in `H`,
/// operations matched into index pairs, the root state an argument — must be
/// indistinguishable from the materialized route it replaced in the monitor:
/// project, build the `SearchProblem`, search a universe whose object starts
/// in the root state.  Same frontier states in the same order, same
/// counters, and the witness search (the stream tail's) agrees on
/// satisfiability.
fn assert_in_place_entry_agrees(seed: u64) {
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
    let condition = TLinearizability::new(0);
    let mut universe = ObjectUniverse::new();
    for kind in &kinds {
        kind.add_to(&mut universe, kind.initial());
    }
    let mut matcher = OperationMatcher::default();
    let mut scratch = kernel::KernelScratch::new();
    for object in h.objects() {
        let kind = kinds[object.0];
        let (projection, positions) = h.project_object_indexed(object);
        let reference_problem = condition.problem(&projection);
        let event = |k: usize| &h.events()[positions[k]];
        let problem = EventProblem {
            condition,
            event,
            ops: matcher.match_events((0..positions.len()).map(event)),
        };
        let mut frontier = vec![kind.initial()];
        frontier.extend((0..rng.gen_range(0..3usize)).map(|_| kind.some_state(&mut rng)));
        for root in &frontier {
            let mut rerooted = ObjectUniverse::new();
            for (i, kind) in kinds.iter().enumerate() {
                let state = if i == object.0 {
                    root.clone()
                } else {
                    kind.initial()
                };
                kind.add_to(&mut rerooted, state);
            }
            let (reference, reference_stats) = kernel::solve_frontiers(
                &reference_problem,
                &[],
                &rerooted,
                limits,
                &[],
                &mut kernel::KernelScratch::new(),
            );
            let mut states: Vec<Vec<(ObjectId, Value)>> = Vec::new();
            let roots = [(object, root)];
            let (complete, stats) = kernel::visit_frontiers(
                &problem,
                &roots,
                &universe,
                limits,
                &[],
                &mut scratch,
                |row| states.push(row.states().map(|(o, v)| (o, v.clone())).collect()),
            );
            let context = format!("seed {seed}, {object} from {root}\n{h}");
            let expected: Vec<_> = reference.entries.iter().map(|e| e.states.clone()).collect();
            assert_eq!(states, expected, "frontier states ({context})");
            assert_eq!(complete, reference.complete, "{context}");
            assert_eq!(
                (stats.nodes, stats.memo_hits),
                (reference_stats.nodes, reference_stats.memo_hits),
                "search counters ({context})"
            );
            let (witness, _) =
                kernel::solve_rooted(&problem, &roots, &universe, limits, &mut scratch);
            assert_eq!(witness.is_yes(), reference.is_satisfiable(), "{context}");
        }
    }
}

#[test]
fn in_place_entry_matches_the_materialized_route() {
    for seed in 0..10 * SEEDS {
        assert_in_place_entry_agrees(seed);
    }
}

/// Nightly-fuzz version of the in-place property.
#[test]
#[ignore = "extended fuzz: run via the nightly CI job or with --ignored"]
fn extended_in_place_entry_cross_check() {
    for i in 0..10 * extended_cases() {
        assert_in_place_entry_agrees(11_000 + i.wrapping_mul(0x9e37_79b9));
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
