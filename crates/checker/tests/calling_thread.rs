//! Within one problem the checker runs on the thread that called it.
//!
//! Locality lets a history be decided object by object, but that
//! decomposition is a loop, not a fan-out: threads are created only for a
//! batch of whole problems (`evlin_checker::parallel`).  The subject here is
//! a register whose `for_each_transition` records who called it and how
//! often, so the tests can tell which thread searched an object, and whether
//! it was searched at all.

use evlin_checker::kernel::{self, SearchLimits, SearchResult};
use evlin_checker::monitor::{stages, Monitor, MonitorCondition, MonitorConfig};
use evlin_checker::{locality, weak_consistency, Linearizability};
use evlin_history::{Event, History, HistoryBuilder, ObjectId, ObjectUniverse, ProcessId};
use evlin_spec::{Invocation, ObjectType, Register, Value};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

/// Who called one object's `for_each_transition`, and how many times.
#[derive(Debug, Default)]
struct CallLog {
    threads: Mutex<HashSet<ThreadId>>,
    calls: AtomicUsize,
}

impl CallLog {
    fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.threads.lock().unwrap().clear();
        self.calls.store(0, Ordering::Relaxed);
    }
}

/// A [`Register`] that logs every `for_each_transition` call.
#[derive(Debug)]
struct ProbedRegister {
    inner: Register,
    log: Arc<CallLog>,
}

impl ObjectType for ProbedRegister {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial_states(&self) -> Vec<Value> {
        self.inner.initial_states()
    }

    fn for_each_transition(
        &self,
        state: &Value,
        invocation: &Invocation,
        visit: &mut dyn FnMut(Value, Value),
    ) {
        let mut threads = self.log.threads.lock().unwrap();
        threads.insert(std::thread::current().id());
        self.log.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.for_each_transition(state, invocation, visit)
    }

    fn sample_invocations(&self) -> Vec<Invocation> {
        self.inner.sample_invocations()
    }
}

/// A universe of `objects` probed registers (initially 0) and their logs.
fn probed_universe(objects: usize) -> (ObjectUniverse, Vec<Arc<CallLog>>) {
    let mut universe = ObjectUniverse::new();
    let logs: Vec<Arc<CallLog>> = (0..objects).map(|_| Arc::default()).collect();
    for log in &logs {
        universe.add_object(ProbedRegister {
            inner: Register::new(Value::from(0i64)),
            log: Arc::clone(log),
        });
    }
    (universe, logs)
}

/// Asserts that every object was searched, and by this thread only.
fn assert_only_this_thread(logs: &[Arc<CallLog>], what: &str) {
    let me = std::thread::current().id();
    for (object, log) in logs.iter().enumerate() {
        assert!(
            log.calls() > 0,
            "{what}: object {object} was never searched"
        );
        let threads = log.threads.lock().unwrap();
        assert!(
            threads.len() == 1 && threads.contains(&me),
            "{what}: object {object} was searched off the calling thread"
        );
    }
}

/// Three rounds over every object in turn: a write overlapped by a read of
/// the written value.
fn wide_stream(objects: usize) -> Vec<Event> {
    let mut b = HistoryBuilder::new();
    for round in 1..=3i64 {
        for o in (0..objects).map(ObjectId) {
            b = b
                .invoke(ProcessId(0), o, Register::write(Value::from(round)))
                .invoke(ProcessId(1), o, Register::read())
                .respond(ProcessId(0), o, Value::Unit)
                .respond(ProcessId(1), o, Value::from(round));
        }
    }
    b.build().events().to_vec()
}

#[test]
fn the_monitor_searches_every_object_on_the_thread_that_feeds_it() {
    let conditions = [
        MonitorCondition::Linearizability,
        MonitorCondition::TLinearizability { t: 3 },
        MonitorCondition::WeakConsistency,
        MonitorCondition::StabilizesEventually,
    ];
    for condition in conditions {
        // A cut per round, so every segment names all 16 objects.
        let config = MonitorConfig {
            min_segment_events: 4 * 16,
            segment_batch: 2,
            ..MonitorConfig::for_condition(condition)
        };

        let (universe, logs) = probed_universe(16);
        let mut monitor = Monitor::new(universe, config);
        monitor.ingest_all(wide_stream(16)).unwrap();
        assert!(monitor.finish().verdict.is_ok(), "{condition:?}");
        assert_only_this_thread(&logs, &format!("Monitor, {condition:?}"));

        let (universe, logs) = probed_universe(16);
        let (mut ingest, mut check) = stages(universe, config);
        for event in wide_stream(16) {
            ingest.ingest(event).unwrap();
            if let Some(batch) = ingest.take_ready_batch() {
                check.check_batch(batch);
            }
        }
        let (tail, summary) = ingest.finish();
        assert!(check.finish(tail, summary).verdict.is_ok(), "{condition:?}");
        assert_only_this_thread(&logs, &format!("stages(), {condition:?}"));
    }
}

/// Every object carries three concurrent writes of distinct values and an
/// overlapping read of a value nobody wrote, and every operation overlaps
/// every other: each projection is refuted, and the whole-history search has
/// the product of the per-object spaces to exhaust — far past the greedy
/// probe's budget.
fn refuted_everywhere(objects: usize) -> History {
    let mut b = HistoryBuilder::new();
    let mut responses = Vec::new();
    for o in 0..objects {
        let first = 4 * o;
        b = b.invoke(ProcessId(first), ObjectId(o), Register::read());
        responses.push((first, o, Value::from(9i64)));
        for v in 1..=3 {
            b = b.invoke(
                ProcessId(first + v),
                ObjectId(o),
                Register::write(Value::from(v as i64)),
            );
            responses.push((first + v, o, Value::Unit));
        }
    }
    for (process, o, response) in responses {
        b = b.respond(ProcessId(process), ObjectId(o), response);
    }
    b.build()
}

#[test]
fn the_offline_decompositions_run_on_the_calling_thread() {
    let history = refuted_everywhere(3);
    let limits = SearchLimits::default();

    let (universe, logs) = probed_universe(3);
    let result = kernel::check_local(&Linearizability, &history, &universe, limits);
    assert!(matches!(result, SearchResult::No));
    assert_only_this_thread(&logs, "check_local");

    let (universe, logs) = probed_universe(3);
    let reports = locality::per_object_reports(&history, &universe);
    assert!(reports.iter().all(|r| !r.weakly_consistent));
    assert_only_this_thread(&logs, "per_object_reports");

    // The first projection is not weakly consistent, so the others are
    // never looked at.
    let (universe, logs) = probed_universe(3);
    assert!(!weak_consistency::is_weakly_consistent(&history, &universe));
    assert_only_this_thread(&logs[..1], "is_weakly_consistent");
    assert_eq!((logs[1].calls(), logs[2].calls()), (0, 0));
}

#[test]
fn check_local_stops_searching_at_the_first_refuted_object() {
    let history = refuted_everywhere(3);
    let limits = SearchLimits::default();
    let (universe, logs) = probed_universe(3);

    // What the greedy whole-history probe costs each object...
    let probe_limits = SearchLimits {
        max_nodes: 4 * history.operations().len() + 16,
    };
    let (probe, mut expected) =
        kernel::check_with_stats(&Linearizability, &history, &universe, probe_limits);
    assert!(
        matches!(probe, SearchResult::Unknown),
        "the probe must blow"
    );
    let probe_calls: Vec<usize> = logs.iter().map(|log| log.calls()).collect();
    // ...and what refuting object 0 alone adds to the counters.
    let (first, stats) = kernel::check_with_stats(
        &Linearizability,
        &history.project_object(ObjectId(0)),
        &universe,
        limits,
    );
    assert!(matches!(first, SearchResult::No));
    expected.absorb(stats);
    logs.iter().for_each(|log| log.reset());

    let (result, stats) =
        kernel::check_local_with_stats(&Linearizability, &history, &universe, limits);
    assert!(matches!(result, SearchResult::No));
    assert_eq!(stats, expected);
    assert!(logs[0].calls() > probe_calls[0]);
    assert_eq!(logs[1].calls(), probe_calls[1]);
    assert_eq!(logs[2].calls(), probe_calls[2]);
}
