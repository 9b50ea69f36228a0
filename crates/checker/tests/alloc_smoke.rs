//! Allocation-count smoke test for the kernel hot path.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! solve has sized the pooled [`KernelScratch`] buffers, repeating the same
//! search must perform no heap allocation at all — the test fails CI the
//! moment someone reintroduces a per-node `Vec`, a per-search hash map, or a
//! boxed visited key, instead of waiting for the bench gate to notice the
//! slowdown.
//!
//! The kernel — its searcher and its walk of small problems alike — reads a
//! spec's transitions through `ObjectType::for_each_transition`, which
//! builds nothing but the values it hands over (no allocation for the
//! register and counter states used here), so the kernel's budgets and the
//! monitor's check stage's, which searches only through it, are zero.  The
//! fetch&increment and ingest budgets below count their own working vectors.

use evlin_checker::kernel::{self, KernelScratch, SearchLimits};
use evlin_checker::monitor::{stages, MonitorConfig};
use evlin_checker::Linearizability;
use evlin_checker::{fi, kernel::ConsistencyCondition};
use evlin_history::{Event, HistoryBuilder, ObjectId, ObjectUniverse, OperationMatcher, ProcessId};
use evlin_spec::{Counter, FetchIncrement, Register, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation made through the global allocator, per thread.
struct CountingAllocator;

thread_local! {
    /// The calling thread's allocations.  Per thread, because the test
    /// harness's own threads (reporting a result, spawning the next test)
    /// allocate whenever they like: a process-global count put 102
    /// allocations of theirs and the frontier search's into a budget of 100.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards to `System` with the arguments it was given;
// the counting only touches a const-initialized thread-local, which neither
// allocates nor registers a destructor.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The allocations `f` makes on the calling thread.  Every measured path
/// runs on the thread that calls it, so nothing it allocates is missed, and
/// nothing another thread allocates meanwhile lands in its window.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let count = || ALLOCATIONS.with(Cell::get);
    let before = count();
    let result = f();
    (count() - before, result)
}

/// An unsatisfiable multi-write register history: refutation forces the
/// kernel to exhaust its whole search space (many nodes, many visited-cache
/// inserts), which is exactly where per-node allocations would multiply.
fn refutation_history() -> (ObjectUniverse, evlin_history::History) {
    let mut u = ObjectUniverse::new();
    let r = u.add_object(Register::new(Value::from(0i64)));
    let mut b = HistoryBuilder::new();
    for p in 0..4usize {
        b = b.invoke(ProcessId(p), r, Register::write(Value::from(p as i64 + 1)));
    }
    b = b.invoke(ProcessId(4), r, Register::read());
    for p in 0..4usize {
        b = b.respond(ProcessId(p), r, Value::Unit);
    }
    let h = b.respond(ProcessId(4), r, Value::from(99i64)).build();
    (u, h)
}

#[test]
fn warmed_up_kernel_solves_are_allocation_free() {
    let (u, h) = refutation_history();
    let mut matcher = OperationMatcher::default();
    let problem = Linearizability.views(&h, matcher.match_events(h.events()));
    let mut scratch = KernelScratch::new();
    let limits = SearchLimits::default();
    // Warm-up: sizes every pooled buffer.
    let (result, warm_stats) = kernel::solve_rooted(&problem, &[], &u, limits, &mut scratch);
    assert!(!result.is_yes());
    assert!(warm_stats.nodes > 20, "refutation must do real work");
    // Steady state: the same search through the warm scratch.
    let (allocs, (result, stats)) =
        allocations(|| kernel::solve_rooted(&problem, &[], &u, limits, &mut scratch));
    assert!(!result.is_yes());
    assert_eq!(stats.nodes, warm_stats.nodes);
    // The spec's transitions are visited, not collected: a memo miss
    // interns them through a pooled buffer.
    assert_eq!(
        allocs, 0,
        "a warmed-up kernel solve allocated {allocs} times for {} nodes",
        stats.nodes
    );
}

#[test]
fn warmed_up_fi_checks_stay_linear_in_allocations() {
    // The specialized fetch&increment checker is the monitor's throughput
    // path: its per-check allocation count must stay a small constant (its
    // own working vectors), not grow per operation.
    let x = evlin_history::ObjectId(0);
    let mut b = HistoryBuilder::new();
    for k in 0..1000i64 {
        b = b.complete(
            ProcessId((k % 4) as usize),
            x,
            FetchIncrement::fetch_inc(),
            Value::from(k),
        );
    }
    let h = b.build();
    assert_eq!(fi::is_linearizable(&h, 0), Ok(true)); // warm up allocator pools
    let (allocs, ok) = allocations(|| fi::is_linearizable(&h, 0));
    assert_eq!(ok, Ok(true));
    assert!(
        allocs <= 40,
        "fi::is_linearizable allocated {allocs} times for 1000 ops — \
         its working set must not grow per operation"
    );
    // Nor per value answered: one operation answering 2^40 has one slot,
    // and is refused without a buffer the size of the answer.
    let h = HistoryBuilder::new()
        .complete(
            ProcessId(0),
            x,
            FetchIncrement::fetch_inc(),
            Value::from(1i64 << 40),
        )
        .build();
    let (allocs, ok) = allocations(|| fi::is_linearizable(&h, 0));
    assert_eq!(ok, Ok(false));
    assert!(
        allocs <= 40,
        "fi::is_linearizable allocated {allocs} times for one answer of 2^40"
    );
}

#[test]
fn a_fresh_fi_check_allocates_as_often_at_any_length() {
    // A public `fi` entry point sizes its scratch for the history it is
    // given, reserving the operation and event lists once, so a 100-fold
    // longer history costs no more allocations.
    let x = evlin_history::ObjectId(0);
    let history = |ops: i64| {
        let mut b = HistoryBuilder::new();
        for k in 0..ops {
            let p = ProcessId((k % 4) as usize);
            b = b.complete(p, x, FetchIncrement::fetch_inc(), Value::from(k));
        }
        b.build()
    };
    let (short, long) = (history(1_000), history(100_000));
    let (short_allocs, ok) = allocations(|| fi::is_linearizable(&short, 0));
    assert_eq!(ok, Ok(true));
    let (long_allocs, ok) = allocations(|| fi::is_linearizable(&long, 0));
    assert_eq!(ok, Ok(true));
    assert_eq!(
        long_allocs, short_allocs,
        "fi::is_linearizable allocated {short_allocs} times for 1000 operations \
         and {long_allocs} for 100 000"
    );
}

#[test]
fn warmed_up_frontier_search_allocates_nothing() {
    // Six concurrent writes, a read of the initial value and three tracked
    // pending writes: 60 accepting frontiers, past the rows the linear scan
    // serves, so the row store's hashed lookup is on the measured path.
    let mut u = ObjectUniverse::new();
    let r = u.add_object(Register::new(Value::from(0i64)));
    let mut b = HistoryBuilder::new();
    for p in 0..9usize {
        b = b.invoke(ProcessId(p), r, Register::write(Value::from(p as i64 + 1)));
    }
    b = b.invoke(ProcessId(9), r, Register::read());
    for p in 0..6usize {
        b = b.respond(ProcessId(p), r, Value::Unit);
    }
    let h = b.respond(ProcessId(9), r, Value::from(0i64)).build();
    let mut matcher = OperationMatcher::default();
    let problem = Linearizability.views(&h, matcher.match_events(h.events()));
    let (mut scratch, limits, tracked) = (KernelScratch::new(), SearchLimits::default(), [6, 7, 8]);
    let search = |scratch: &mut KernelScratch| {
        let mut rows = 0;
        let (complete, _) =
            kernel::visit_frontiers(&problem, &[], &u, limits, &tracked, scratch, |_| rows += 1);
        assert!(complete);
        rows
    };
    assert_eq!(search(&mut scratch), 60);
    let (allocs, rows) = allocations(|| search(&mut scratch));
    assert_eq!(rows, 60);
    // Nothing per row (a boxed lookup key per row made this 151) and
    // nothing per distinct (invocation, state) pair the search expands.
    assert_eq!(allocs, 0, "{allocs} allocations for {rows} rows");

    // A small problem through the same scratch, walked without the
    // searcher's tables: three concurrent writes and a read that sees one.
    let mut b = HistoryBuilder::new();
    for p in 0..3usize {
        b = b.invoke(ProcessId(p), r, Register::write(Value::from(p as i64 + 1)));
    }
    b = b.invoke(ProcessId(3), r, Register::read());
    for p in 0..3usize {
        b = b.respond(ProcessId(p), r, Value::Unit);
    }
    let h = b.respond(ProcessId(3), r, Value::from(2i64)).build();
    let problem = Linearizability.views(&h, matcher.match_events(h.events()));
    let walk = |scratch: &mut KernelScratch| {
        let mut rows = 0;
        let (complete, stats) =
            kernel::visit_frontiers(&problem, &[], &u, limits, &[], scratch, |_| rows += 1);
        assert!(
            complete && stats.nodes > 8 && stats.arena_bytes == 0,
            "{stats:?}"
        );
        rows
    };
    assert_eq!(walk(&mut scratch), 3);
    let (allocs, rows) = allocations(|| walk(&mut scratch));
    assert_eq!(rows, 3);
    assert_eq!(allocs, 0, "{allocs} allocations for a small problem");
}

/// Two registers over `0..4` and two counters: the universe of the dense
/// rounds below.
fn dense_universe() -> ObjectUniverse {
    let mut u = ObjectUniverse::new();
    for _ in 0..2 {
        u.add_object(Register::new(Value::from(0i64)));
    }
    for _ in 0..2 {
        u.add_object(Counter::new());
    }
    u
}

/// `rounds` rounds of four mutually concurrent operations over
/// [`dense_universe`] — every process invokes, then every process responds,
/// so each round is one quiescent segment — with the effects taking place in
/// a seeded order: linearizable by construction, one small kernel problem
/// per (object, segment), no fast path.  Returns the events and the number of
/// (object, segment) links.
fn dense_rounds(state: &mut [i64; 4], seed: &mut u64, rounds: usize) -> (Vec<Event>, usize) {
    let mut next = |bound: u64| {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        (*seed % bound) as usize
    };
    let mut events = Vec::with_capacity(rounds * 8);
    let mut links = 0;
    for _ in 0..rounds {
        let calls: [(usize, bool, i64); 4] =
            std::array::from_fn(|_| (next(4), next(2) == 0, next(4) as i64));
        links += (0..4).filter(|&o| calls.iter().any(|c| c.0 == o)).count();
        for (p, &(object, read, value)) in calls.iter().enumerate() {
            let invocation = match (object < 2, read) {
                (true, true) => Register::read(),
                (true, false) => Register::write(Value::from(value)),
                (false, true) => Counter::read(),
                (false, false) => Counter::inc(),
            };
            events.push(Event::invoke(ProcessId(p), ObjectId(object), invocation));
        }
        let first = next(4);
        for p in (0..4).map(|i| (first + i) % 4) {
            let (object, read, value) = calls[p];
            let response = if read {
                Value::from(state[object])
            } else {
                state[object] = if object < 2 { value } else { state[object] + 1 };
                Value::Unit
            };
            events.push(Event::respond(ProcessId(p), ObjectId(object), response));
        }
    }
    (events, links)
}

#[test]
fn warmed_up_monitor_check_allocates_nothing() {
    // The check stage takes a link from the segment's events to its
    // outgoing frontier inside pooled buffers, whether the kernel walks a
    // link of up to four operations or searches a wider one, and orders a
    // batch's links into chains in pooled tables: once warm it allocates
    // nothing.  A materialized projection,
    // problem or frontier set per link would show up as a multiple of the
    // link count (12.8 per link before the in-place path, and one
    // `transitions()` vector per expanded (invocation, state) pair before
    // the spec was visited).
    let (mut ingest, mut check) = stages(dense_universe(), MonitorConfig::default());
    let (mut state, mut seed) = ([0i64; 4], 0x9e37_79b9_7f4a_7c15u64);
    let mut batch_of = |(events, links): (Vec<Event>, usize)| {
        for event in events {
            ingest.ingest(event).expect("well-formed");
        }
        (ingest.take_batch().expect("closed segments"), links)
    };
    let (warm_up, warm_links) = batch_of(dense_rounds(&mut state, &mut seed, 64));
    check.check_batch(warm_up);
    let (batch, links) = batch_of(dense_rounds(&mut state, &mut seed, 64));
    assert_eq!(batch.len(), 64);
    let (allocs, ()) = allocations(|| check.check_batch(batch));
    let (tail, summary) = ingest.finish();
    let report = check.finish(tail, summary);
    assert!(report.verdict.is_ok(), "{report:?}");
    assert_eq!(report.stats.fast_path_segments, 0);
    let nodes = report.stats.search.nodes;
    assert!(
        nodes > 2 * (warm_links + links),
        "every link is walked: {nodes} nodes"
    );
    assert_eq!(allocs, 0, "{allocs} allocations for {links} walked links");
}

/// `ops` operations over [`dense_universe`], each answered before the next
/// is invoked, so every quiescent segment, and so every link, is one
/// operation; its effect is applied to `state`.
fn sequential_ops(state: &mut [i64; 4], seed: &mut u64, ops: usize) -> Vec<Event> {
    let mut next = |bound: u64| {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        (*seed % bound) as usize
    };
    let mut events = Vec::with_capacity(ops * 2);
    for _ in 0..ops {
        let (p, object, read, value) = (ProcessId(next(4)), next(4), next(2) == 0, next(4));
        let (invocation, response) = match (object < 2, read) {
            (true, true) => (Register::read(), Value::from(state[object])),
            (true, false) => {
                state[object] = value as i64;
                (Register::write(Value::from(value as i64)), Value::Unit)
            }
            (false, true) => (Counter::read(), Value::from(state[object])),
            (false, false) => {
                state[object] += 1;
                (Counter::inc(), Value::Unit)
            }
        };
        events.push(Event::invoke(p, ObjectId(object), invocation));
        events.push(Event::respond(p, ObjectId(object), response));
    }
    events
}

#[test]
fn warmed_up_one_operation_links_allocate_nothing() {
    // The kernel decides a one-operation link from each frontier state
    // with one spec call, without a search's set-up or a walk's tables,
    // visiting the spec's transitions in place: it allocates nothing (one
    // `transitions()` vector per link and frontier state before).
    let (mut ingest, mut check) = stages(dense_universe(), MonitorConfig::default());
    let (mut state, mut seed) = ([0i64; 4], 0x6a09_e667_f3bc_c909u64);
    let links = 256;
    let mut batch_of = |events: Vec<Event>| {
        for event in events {
            ingest.ingest(event).expect("well-formed");
        }
        ingest.take_batch().expect("closed segments")
    };
    check.check_batch(batch_of(sequential_ops(&mut state, &mut seed, links)));
    let batch = batch_of(sequential_ops(&mut state, &mut seed, links));
    assert_eq!(batch.len(), links);
    let (allocs, ()) = allocations(|| check.check_batch(batch));
    let (tail, summary) = ingest.finish();
    let report = check.finish(tail, summary);
    assert!(report.verdict.is_ok(), "{report:?}");
    assert_eq!(report.stats.segments, 2 * links);
    assert_eq!(report.stats.fast_path_segments, 0);
    // A root and the one matching transition per link, as a search counts.
    assert_eq!(report.stats.search.nodes, 2 * 2 * links);
    assert_eq!(
        allocs, 0,
        "{allocs} allocations for {links} one-operation links"
    );
}

#[test]
fn warmed_up_ingest_allocates_once_per_segment() {
    let (mut ingest, _check) = stages(dense_universe(), MonitorConfig::default());
    let (mut state, mut seed) = ([0i64; 4], 0x2545_f491_4f6c_dd1du64);
    for event in dense_rounds(&mut state, &mut seed, 64).0 {
        ingest.ingest(event).expect("well-formed");
    }
    assert_eq!(ingest.take_batch().map(|batch| batch.len()), Some(64));
    let (events, _) = dense_rounds(&mut state, &mut seed, 64);
    let (allocs, batch) = allocations(|| {
        for event in events {
            ingest.ingest(event).expect("well-formed");
        }
        ingest.take_batch().expect("64 closed segments")
    });
    assert_eq!(batch.len(), 64);
    // One event vector per closed segment, sized by the segment before it,
    // and the next batch's segment vector.
    assert!(allocs <= 64 + 1, "{allocs} allocations for 64 segments");
}
