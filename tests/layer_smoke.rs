//! One fast case per shipped layer, so the tier-1 command (`cargo test -q`
//! at the root) fails when *any* layer breaks — not just the facade the
//! other root suites exercise.  Depth lives in the per-crate differential
//! suites (`cargo test --workspace`); this file only proves each layer is
//! wired up and gives the right answer on one small input.

use evlin::checker::kernel::{self, SearchLimits, SearchResult};
use evlin::checker::monitor::{stages, Monitor, MonitorCondition, MonitorConfig};
use evlin::checker::t_linearizability::TLinearizability;
use evlin::history::{Event, History, HistoryBuilder, ObjectId, ObjectUniverse, ProcessId};
use evlin::runtime::{
    run_counter_workload_pipelined, FetchAddCounter, HarnessOptions, PipelineOptions,
};
use evlin::service::{
    ClientRecoveryConfig, MonitorService, RecoverableClient, RecoverableService, RecoveryConfig,
    ServiceConfig,
};
use evlin::sim::engine::{self, EngineOptions, Reduction, Visit};
use evlin::sim::program::LocalSpecImplementation;
use evlin::sim::workload::Workload;
use evlin::spec::{FetchIncrement, Value};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

fn counters(objects: usize) -> ObjectUniverse {
    let mut universe = ObjectUniverse::new();
    for _ in 0..objects {
        universe.add_object(FetchIncrement::new());
    }
    universe
}

/// Two sequential fetch&inc operations on object 0; the second returns
/// `second`.  Linearizable iff `second == 1`.
fn two_increments(second: i64) -> History {
    HistoryBuilder::new()
        .complete(
            ProcessId(0),
            ObjectId(0),
            FetchIncrement::fetch_inc(),
            Value::from(0i64),
        )
        .complete(
            ProcessId(1),
            ObjectId(0),
            FetchIncrement::fetch_inc(),
            Value::from(second),
        )
        .build()
}

fn linearizability() -> MonitorConfig {
    MonitorConfig::for_condition(MonitorCondition::Linearizability)
}

#[test]
fn kernel_decides_yes_and_no() {
    let universe = counters(1);
    let check = |history: &History| {
        kernel::check_local(
            &TLinearizability::new(0),
            history,
            &universe,
            SearchLimits::default(),
        )
    };
    assert!(check(&two_increments(1)).is_yes());
    assert_eq!(check(&two_increments(0)), SearchResult::No);
}

#[test]
fn engine_counts_the_tree_raw_and_reduced() {
    // Two processes, one local-copy fetch&inc each.
    let implementation = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 2);
    let workload = Workload::uniform(2, FetchIncrement::fetch_inc(), 1);
    let explore = |reduction| {
        engine::explore(
            &implementation,
            &workload,
            &EngineOptions {
                workers: Some(1),
                reduction,
                ..EngineOptions::default()
            },
            |_, _| Visit::Continue,
        )
    };
    // Root, two configurations after one step, two after both.
    let raw = explore(Reduction::None);
    assert_eq!((raw.visited, raw.terminals, raw.truncated), (5, 2, false));
    // The two processes are interchangeable and their steps commute: one
    // representative schedule survives.
    let reduced = explore(Reduction::SleepSetSymmetry);
    assert_eq!(
        (reduced.visited, reduced.terminals, reduced.truncated),
        (3, 1, false)
    );
}

#[test]
fn inline_monitor_and_staged_monitor_agree() {
    for second in [1, 0] {
        let events: Vec<Event> = two_increments(second).events().to_vec();
        let mut monitor = Monitor::new(counters(1), linearizability());
        let (mut ingest, mut check) = stages(counters(1), linearizability());
        for event in events {
            monitor.ingest(event.clone()).expect("well-formed stream");
            ingest.ingest(event).expect("well-formed stream");
            while let Some(batch) = ingest.take_ready_batch() {
                check.check_batch(batch);
            }
        }
        let inline = monitor.finish();
        let (tail, summary) = ingest.finish();
        let staged = check.finish(tail, summary);
        assert_eq!(inline.verdict, staged.verdict);
        assert_eq!(inline.verdict.is_ok(), second == 1);
        assert_eq!(inline.stats.checked_ops, staged.stats.checked_ops);
        assert_eq!(
            inline.stats.stream_fingerprint,
            staged.stats.stream_fingerprint
        );
    }
}

#[test]
fn pipelined_harness_verifies_a_linearizable_counter() {
    let out = run_counter_workload_pipelined(
        &FetchAddCounter::new(),
        HarnessOptions {
            threads: 2,
            ops_per_thread: 200,
            record_history: false,
        },
        MonitorConfig::default(),
        PipelineOptions {
            frame_capacity: 16,
            ring_frames: 4,
        },
        None,
    );
    assert!(out.report.verdict.is_ok(), "{:?}", out.report);
    assert_eq!(out.report.stats.checked_ops, 400);
    assert_eq!(out.merge.events, 800);
    assert_eq!(out.merge.fingerprint_mismatches, 0);
}

/// Records `ops` correct fetch&inc operations per client, spread over
/// `objects` counters, through `record(client, process, object, response)`
/// (`None` = the invocation).
fn record_counters(
    clients: usize,
    ops: usize,
    objects: usize,
    mut record: impl FnMut(usize, ProcessId, ObjectId, Option<Value>),
) {
    let mut next = vec![0i64; objects];
    for i in 0..ops {
        for c in 0..clients {
            let object = ObjectId((i + c) % objects);
            record(c, ProcessId(c), object, None);
            record(c, ProcessId(c), object, Some(Value::from(next[object.0])));
            next[object.0] += 1;
        }
    }
}

#[test]
fn in_process_service_round_trip() {
    let (clients, ops, objects, shards) = (2, 24, 4, 2);
    let config = ServiceConfig {
        shards,
        monitor: linearizability(),
        frame_capacity: 8,
        ..ServiceConfig::default()
    };
    let (mut handles, service) = MonitorService::in_process(&counters(objects), clients, config);
    record_counters(clients, ops, objects, |c, p, o, v| match v {
        None => handles[c].invoke(p, o, FetchIncrement::fetch_inc()),
        Some(v) => handles[c].respond(p, o, v),
    });
    let closed: Vec<_> = handles.into_iter().map(|c| c.finish()).collect();
    let report = service.finish();
    assert!(report.verdict.is_ok(), "{:?}", report.verdict);
    assert_eq!(report.events(), (2 * clients * ops) as u64);
    assert_eq!(report.shards.len(), shards);
    for conn in &report.connections {
        assert_eq!(
            (
                conn.frame_gaps,
                conn.corrupt_frames,
                conn.shutdown_mismatches
            ),
            (0, 0, 0)
        );
    }
    for closed in closed {
        let client = closed.collect_verdicts();
        assert_eq!(client.protocol_errors, 0);
        assert_eq!(client.final_summaries().len(), shards);
    }
}

#[test]
fn recoverable_service_streams_then_recovers_from_its_journals() {
    let (clients, ops, objects, shards) = (2, 12, 4, 2);
    let journals = std::env::temp_dir().join(format!("evlin-layer-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journals);
    let universe = counters(objects);
    let config = || {
        let mut config = RecoveryConfig::new(journals.clone(), clients);
        config.service = ServiceConfig {
            shards,
            monitor: linearizability(),
            ..ServiceConfig::default()
        };
        config
    };

    // First life: stream, finish the clients, finish the service.
    let (addr, service) = RecoverableService::bind(&universe, config()).expect("bind");
    let seq = Arc::new(AtomicU64::new(0));
    let mut handles: Vec<_> = (0..clients)
        .map(|c| {
            RecoverableClient::connect_tcp(
                addr,
                c as u32,
                0x5A0C + c as u64,
                Arc::clone(&seq),
                ClientRecoveryConfig {
                    frame_capacity: 4,
                    ..ClientRecoveryConfig::standard(c as u64)
                },
            )
            .expect("connect")
        })
        .collect();
    record_counters(clients, ops, objects, |c, p, o, v| match v {
        None => handles[c].invoke(p, o, FetchIncrement::fetch_inc()),
        Some(v) => handles[c].respond(p, o, v),
    });
    let closed: Vec<_> = handles
        .into_iter()
        .map(|c| c.finish().expect("retry budget holds without chaos"))
        .collect();
    let first = service.finish();
    assert!(first.verdict.is_ok(), "{:?}", first.verdict);
    assert_eq!(first.events(), (2 * clients * ops) as u64);
    assert_eq!((first.restarts, first.recovered_at_startup), (0, 0));
    for closed in closed {
        assert_eq!(closed.collect_verdicts().final_summaries().len(), shards);
    }

    // Second life: a fresh bind over the journals alone, no client at all.
    let (_, reborn) = RecoverableService::bind(&universe, config()).expect("bind over journals");
    let second = reborn.finish();
    assert_eq!(second.recovered_at_startup, clients);
    assert_eq!(second.replay_chain_mismatches, 0);
    assert_eq!(second.replayed_events, first.events());
    assert_eq!(second.events(), first.events());
    assert!(second.verdict.is_ok(), "{:?}", second.verdict);
    let _ = std::fs::remove_dir_all(&journals);
}
