//! Allocation-count smoke test for the kernel hot path.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! solve has sized the pooled [`KernelScratch`] buffers, repeating the same
//! search must perform (almost) no heap allocations — the test fails CI the
//! moment someone reintroduces a per-node `Vec`, a per-search hash map, or a
//! boxed visited key, instead of waiting for the bench gate to notice the
//! slowdown.
//!
//! The budget below is deliberately not zero: the spec layer enumerates
//! transitions into a fresh vector, and a hash-set re-insert may
//! probe-rehash.  What the budget rules out is anything proportional to the
//! number of search nodes.

use evlin_checker::kernel::{self, KernelScratch, SearchLimits};
use evlin_checker::monitor::{stages, Monitor, MonitorConfig};
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
    // What remains is the spec layer's `transitions()` enumeration — one
    // short-lived `Vec<Transition>` per *distinct* `(invocation, state)`
    // pair, bounded by the memoized transition table, never by the node
    // count.  The two assertions keep both halves honest.
    assert!(
        allocs <= 32,
        "a warmed-up kernel solve must only allocate for the spec-layer \
         transition enumeration: {allocs} allocations for {} nodes",
        stats.nodes
    );
    assert!(
        allocs < stats.nodes,
        "allocations ({allocs}) must stay strictly below the node count ({})",
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
fn warmed_up_frontier_search_allocates_only_for_transitions() {
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
    // One spec-layer transition list per distinct (invocation, state) pair
    // — 10 invocations by 10 register states at most — and nothing per row
    // (a boxed lookup key per row made this 151).
    assert!(allocs <= 10 * 10, "{allocs} allocations for {rows} rows");
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
/// a seeded order: linearizable by construction, a real search per (object,
/// segment), no fast path.  Returns the events and the number of (object,
/// segment) links.
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
fn warmed_up_monitor_check_allocates_only_for_transitions() {
    // The check stage takes a link from the segment's events to its
    // outgoing frontier inside pooled buffers, whether a one-operation link
    // steps the spec or a wider one goes through a kernel search: what is
    // left to allocate is the spec layer's `transitions()` result, per
    // distinct (invocation, state) pair a search expands and per frontier
    // state a step leaves.  A materialized projection, problem or frontier
    // set per link would show up as a multiple of the link count (12.8 per
    // link before the in-place path).
    let config = MonitorConfig {
        segment_batch: usize::MAX, // checked by `pump` alone
        ..MonitorConfig::default()
    };
    let mut monitor = Monitor::new(dense_universe(), config);
    let (mut state, mut seed) = ([0i64; 4], 0x9e37_79b9_7f4a_7c15u64);
    let (warm_up, _) = dense_rounds(&mut state, &mut seed, 64);
    monitor.ingest_all(warm_up).expect("well-formed");
    assert!(monitor.pump().is_ok());
    let (events, links) = dense_rounds(&mut state, &mut seed, 64);
    monitor.ingest_all(events).expect("well-formed");
    let before = monitor.stats();
    let (allocs, verdict) = allocations(|| monitor.pump());
    assert!(verdict.is_ok());
    let after = monitor.stats();
    assert_eq!(after.segments - before.segments, 64);
    assert_eq!(after.fast_path_segments, 0);
    let nodes = after.search.nodes - before.search.nodes;
    assert!(
        nodes > 2 * links,
        "every link is stepped or searched: {nodes} nodes"
    );
    assert!(
        allocs <= nodes && allocs <= 3 * links,
        "{allocs} allocations for {links} stepped or searched links, {nodes} nodes"
    );
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
fn warmed_up_one_operation_links_allocate_only_their_transitions() {
    // A one-operation link is one step of the spec from each frontier
    // state, taken without a search: it allocates the spec layer's
    // `transitions()` result per (link, frontier state) and nothing else.
    // The types are deterministic and start in one state, so every
    // frontier here is one state and the bound is one per link.
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
    assert!(
        allocs <= links,
        "{allocs} allocations for {links} one-operation links of one frontier state each"
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
