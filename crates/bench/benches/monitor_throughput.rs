//! E11/E16 bench: sustained throughput of the online consistency monitor.
//!
//! Six complementary measurements:
//!
//! * `ingest` — the monitor alone, fed a pre-generated well-formed
//!   fetch&increment stream (no worker threads, no channel): the pure cost
//!   of quiescent-cut segmentation + per-segment checking, in events/s;
//! * `wide/{16,1024}` — the same, with the operations spread over that many
//!   counters and 4096-event segments (one service shard's view of E14's
//!   workload): a monitor whose per-segment work is linear in events costs
//!   about the same at both widths, one that re-reads the segment per object
//!   does not — the 1024-object baseline is held within 1.5× of the
//!   16-object one;
//! * `dense/4x4` — the monitor alone on the one shape that reaches the
//!   kernel: rounds of four mutually concurrent operations over two registers
//!   and two counters (no fetch&increment, so no fast path), one quiescent
//!   segment per round — the fixed cost per (object, segment) of taking a
//!   link from the segment's events to its outgoing frontier, by a kernel
//!   search or, for a link of one operation, one step of the spec;
//! * `tlin`, `weak`, `stab` — the monitor alone on the `ingest` stream under
//!   the paper's own conditions (`t`-linearizability with `t = 8`, weak
//!   consistency, "stabilizes eventually"): `tlin` searches the segment that
//!   holds the forgiven prefix and takes the fast path for the rest, the
//!   other two check by kernel searches over lent views throughout; sized to
//!   run in tens of milliseconds, which for the two summarized conditions
//!   means short streams (their searches are quadratic in the operations of
//!   one invocation class);
//! * `pipelined/p{N}` — the sharded, frame-batched, pipelined dataflow of
//!   E11 and E16 (real threads → N recorder shards → k-way merge +
//!   quiescent-cut ingest → check stage), in checked-ops/s, with the
//!   producer count as the axis;
//! * `pipelined/merge` — the transport + merge alone (shards → `recv_sorted`
//!   drain, no monitor), in events/s: the ceiling the transport imposes.
//!
//! The CI `bench-gate` job compares the `ingest`, `wide`, `dense`, `tlin`,
//! `weak`, `stab` and `pipelined` means against the baselines committed in
//! BENCH_checker.json.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use evlin_checker::monitor::{Monitor, MonitorCondition, MonitorConfig};
use evlin_history::{Event, ObjectId, ObjectUniverse, ProcessId};
use evlin_runtime::counter::FetchAddCounter;
use evlin_runtime::harness::{run_counter_workload_pipelined, HarnessOptions, PipelineOptions};
use evlin_runtime::sharded_recorder;
use evlin_spec::{Counter, FetchIncrement, Register, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fi_universe() -> ObjectUniverse {
    let mut universe = ObjectUniverse::new();
    universe.add_object(FetchIncrement::new());
    universe
}

/// A well-formed fetch&increment stream of `ops` operations by `processes`
/// overlapping processes over `objects` counters: rounds of concurrent
/// invocations followed by their responses, so quiescent cuts occur once per
/// round.  Each operation of a round hits the next counter in turn, so with
/// many counters a 4096-event segment names every one of them (up to 1024) a
/// few times.
fn overlapping_stream(ops: usize, processes: usize, objects: usize) -> Vec<Event> {
    let mut values = vec![0i64; objects];
    let mut events = Vec::with_capacity(2 * ops);
    let mut done = 0usize;
    while done < ops {
        let round = processes.min(ops - done);
        let object = |p: usize| ObjectId((done + p) % objects);
        for p in 0..round {
            events.push(Event::invoke(
                ProcessId(p),
                object(p),
                FetchIncrement::fetch_inc(),
            ));
        }
        for p in 0..round {
            let x = object(p);
            events.push(Event::respond(ProcessId(p), x, Value::from(values[x.0])));
            values[x.0] += 1;
        }
        done += round;
    }
    events
}

fn monitor_config() -> MonitorConfig {
    MonitorConfig {
        min_segment_events: 256,
        segment_batch: 8,
        ..MonitorConfig::default()
    }
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor/ingest");
    for &ops in &[100_000usize, 1_000_000] {
        let events = overlapping_stream(ops, 4, 1);
        group.throughput(Throughput::Elements(events.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(ops), &events, |b, events| {
            b.iter(|| {
                let mut monitor = Monitor::new(fi_universe(), monitor_config());
                monitor
                    .ingest_all(events.iter().cloned())
                    .expect("well-formed stream");
                let report = monitor.finish();
                assert!(report.verdict.is_ok());
                assert!(report.stats.peak_window_events < events.len() / 2);
                report
            });
        });
    }
    group.finish();
}

fn bench_wide(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor/wide");
    let ops = 100_000usize;
    for &objects in &[16usize, 1024] {
        let events = overlapping_stream(ops, 4, objects);
        let mut universe = ObjectUniverse::new();
        for _ in 0..objects {
            universe.add_object(FetchIncrement::new());
        }
        let config = MonitorConfig {
            min_segment_events: 4096,
            segment_batch: 8,
            ..MonitorConfig::default()
        };
        group.throughput(Throughput::Elements(events.len() as u64));
        group.bench_with_input(
            BenchmarkId::new(objects.to_string(), ops),
            &events,
            |b, events| {
                b.iter(|| {
                    let mut monitor = Monitor::new(universe.clone(), config);
                    monitor
                        .ingest_all(events.iter().cloned())
                        .expect("well-formed stream");
                    let report = monitor.finish();
                    assert!(report.verdict.is_ok());
                    assert_eq!(report.stats.checked_ops, ops);
                    report
                });
            },
        );
    }
    group.finish();
}

/// `ops` operations in rounds of four mutually concurrent ones over two
/// registers (values `0..4`) and two counters: every process invokes, then
/// every process responds, and the effects take place in a seeded order, so
/// the stream is linearizable by construction.  An (object, round) link of two
/// or more operations needs a kernel search; about 62 % of the links hold one
/// operation (four uniform picks of four objects), and those take one step
/// of the spec per frontier state instead.
fn dense_stream(ops: usize) -> (ObjectUniverse, Vec<Event>) {
    let mut universe = ObjectUniverse::new();
    for _ in 0..2 {
        universe.add_object(Register::new(Value::from(0i64)));
    }
    for _ in 0..2 {
        universe.add_object(Counter::new());
    }
    let mut rng = StdRng::seed_from_u64(7);
    let mut state = [0i64; 4];
    let mut events = Vec::with_capacity(2 * ops);
    for _ in 0..ops / 4 {
        let calls: [(usize, bool, i64); 4] =
            std::array::from_fn(|_| (rng.gen_range(0..4), rng.gen_bool(0.5), rng.gen_range(0..4)));
        for (p, &(object, read, value)) in calls.iter().enumerate() {
            let invocation = match (object < 2, read) {
                (true, true) => Register::read(),
                (true, false) => Register::write(Value::from(value)),
                (false, true) => Counter::read(),
                (false, false) => Counter::inc(),
            };
            events.push(Event::invoke(ProcessId(p), ObjectId(object), invocation));
        }
        let first = rng.gen_range(0..4usize);
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
    (universe, events)
}

fn bench_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor/dense");
    let ops = 100_000usize;
    let (universe, events) = dense_stream(ops);
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_with_input(BenchmarkId::new("4x4", ops), &events, |b, events| {
        b.iter(|| {
            let mut monitor = Monitor::new(universe.clone(), MonitorConfig::default());
            monitor
                .ingest_all(events.iter().cloned())
                .expect("well-formed stream");
            let report = monitor.finish();
            assert!(report.verdict.is_ok());
            assert_eq!(report.stats.checked_ops, ops);
            assert_eq!(report.stats.fast_path_segments, 0);
            report
        });
    });
    group.finish();
}

/// The paper's own conditions on the `ingest` stream (one counter, four
/// overlapping processes).  `tlin` threads the counter's `(state, floaters)`
/// frontier through 128-operation segments: the first segment's four
/// forgiven operations float, but its fixed responses place them all there,
/// so that one segment is a kernel search (129 nodes) and the other 62 take
/// the fetch&increment fast path.  `weak` solves one Definition-1 problem
/// per response over the counters of everything invoked so far, `stab` one
/// problem over the whole stream's multiset at the end, so every check of
/// theirs is a kernel search.  A search over `n` operations of one
/// invocation class costs `n²` today, so `weak` is cubic and `stab`
/// quadratic in the stream: 2000 and 100 000 operations took 2.4 s and 10 s.
fn bench_conditions(c: &mut Criterion) {
    // `(fast-path segments, kernel nodes)` where they are pinned.
    let rows = [
        (
            "monitor/tlin",
            MonitorCondition::TLinearizability { t: 8 },
            8_000,
            Some((62, 129)),
        ),
        ("monitor/weak", MonitorCondition::WeakConsistency, 400, None),
        (
            "monitor/stab",
            MonitorCondition::StabilizesEventually,
            5_000,
            None,
        ),
    ];
    for (name, condition, ops, pinned) in rows {
        let mut group = c.benchmark_group(name);
        let events = overlapping_stream(ops, 4, 1);
        let config = MonitorConfig {
            condition,
            ..monitor_config()
        };
        group.throughput(Throughput::Elements(events.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(ops), &events, |b, events| {
            b.iter(|| {
                let mut monitor = Monitor::new(fi_universe(), config);
                monitor
                    .ingest_all(events.iter().cloned())
                    .expect("well-formed stream");
                let report = monitor.finish();
                assert!(report.verdict.is_ok());
                assert_eq!(report.stats.checked_ops, ops);
                let stats = report.stats;
                match pinned {
                    Some(counts) => {
                        assert_eq!((stats.fast_path_segments, stats.search.nodes), counts)
                    }
                    None => assert!(stats.search.nodes >= ops),
                }
                report
            });
        });
        group.finish();
    }
}

fn bench_pipelined(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor/pipelined");
    let total = 200_000usize;
    for &producers in &[1usize, 2, 4] {
        // Elements = completed operations, so the printed rate is
        // checked-ops/s.
        group.throughput(Throughput::Elements(total as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("p{producers}"), total),
            &producers,
            |b, &producers| {
                b.iter(|| {
                    let counter = FetchAddCounter::new();
                    let out = run_counter_workload_pipelined(
                        &counter,
                        HarnessOptions {
                            threads: producers,
                            ops_per_thread: total / producers,
                            record_history: false,
                        },
                        monitor_config(),
                        PipelineOptions::default(),
                        None,
                    );
                    assert!(out.report.verdict.is_ok());
                    assert_eq!(out.report.stats.checked_ops, total);
                    out
                });
            },
        );
    }
    // Transport ceiling: shards → k-way merge, no monitor downstream.
    // Elements = events (2 per op), so the printed rate is events/s.
    let producers = 4usize;
    let events = 2 * total;
    group.throughput(Throughput::Elements(events as u64));
    group.bench_with_input(
        BenchmarkId::new("merge", events),
        &producers,
        |b, &producers| {
            let x = ObjectId(0);
            b.iter(|| {
                let (shards, mut merge) = sharded_recorder(producers, 512, 8, None);
                std::thread::scope(|s| {
                    for (t, mut shard) in shards.into_iter().enumerate() {
                        s.spawn(move || {
                            for k in 0..(total / producers) as i64 {
                                shard.invoke(ProcessId(t), x, FetchIncrement::fetch_inc());
                                shard.respond(ProcessId(t), x, Value::from(k));
                            }
                        });
                    }
                    let mut out = Vec::new();
                    let mut seen = 0usize;
                    loop {
                        out.clear();
                        let n = merge.recv_sorted(&mut out, 4096);
                        if n == 0 {
                            break;
                        }
                        seen += n;
                    }
                    assert_eq!(seen, events);
                });
                merge.stats()
            });
        },
    );
    group.finish();
}

criterion_group!(
    monitor_throughput,
    bench_ingest,
    bench_wide,
    bench_dense,
    bench_conditions,
    bench_pipelined
);
criterion_main!(monitor_throughput);
