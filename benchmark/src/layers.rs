//! The adapter between the benchmark and the program: the **only** file that
//! names `evlin_*` items, so a refactor of the crates breaks at most this file.
//!
//! It deliberately avoids everything the roadmap plans to delete
//! (`run_counter_workload*`, the monolithic `Monitor`, `decode_frame_limited`,
//! `LEGACY_VERSION`, the `sim::explorer` and `checker::search` facades) and
//! measures each layer from outside, by timing calls into public functions.

use crate::gen::{CounterPlan, DenseBody, DenseCall, DenseEvent, DenseValue, DENSE_DOMAIN};
use crate::gen::{DENSE_COUNTERS, DENSE_REGISTERS};
use crate::trace::Tracer;
use evlin_algorithms::CasFetchInc;
use evlin_checker::kernel::{self, SearchLimits, SearchResult};
use evlin_checker::monitor::{
    stages, IngestSummary, MonitorCondition, MonitorConfig, MonitorReport, MonitorVerdict,
    SegmentBatch, ShardRouter,
};
use evlin_checker::t_linearizability::TLinearizability;
use evlin_history::{Event, EventKind, History, ObjectId, ObjectUniverse, ProcessId};
use evlin_runtime::channel;
use evlin_runtime::{sharded_recorder, EventSink, RecorderShard};
use evlin_service::journal::{journal_file_name, Journal};
use evlin_service::transport::{duplex, loopback_listener, tcp_connect, tcp_pair};
use evlin_service::wire::{decode_frame_with, encode_frame, event_batch_fingerprint, WireFrame};
use evlin_service::{
    ClientRecoveryConfig, FrameRx, FrameTx, MonitorService, RecoverableClient, RecoverableService,
    RecoveryConfig, ServiceConfig, ShardReport,
};
use evlin_sim::config::Config;
use evlin_sim::engine::{self, EngineOptions, ExploreOptions, Reduction, Visit};
use evlin_sim::program::{Implementation, LocalSpecImplementation};
use evlin_sim::store::StoreConfig;
use evlin_sim::workload::Workload;
use evlin_spec::{Counter, FetchIncrement, Register, Value};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Named numbers handed back to the workload driver.
pub type Counts = Vec<(&'static str, f64)>;

// ---------------------------------------------------------------------------
// Event path: what one repetition returns
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Violation,
    Unknown,
}

impl From<&MonitorVerdict> for Verdict {
    fn from(verdict: &MonitorVerdict) -> Self {
        match verdict {
            MonitorVerdict::Ok => Verdict::Ok,
            MonitorVerdict::Violation(_) => Verdict::Violation,
            MonitorVerdict::Unknown => Verdict::Unknown,
        }
    }
}

/// One end-to-end repetition of an event-path workload.
#[derive(Debug, Clone)]
pub struct EventRep {
    /// First event recorded.
    pub start: Instant,
    /// The last producer's last event recorded.
    pub produced: Instant,
    /// Final (recomposed) verdict in hand.
    pub end: Instant,
    pub ops: u64,
    pub checked_ops: u64,
    pub events: u64,
    pub verdict: Verdict,
    /// The offline kernel's verdict on the streams the monitors accepted,
    /// when the repetition was asked to capture them.
    pub kernel_verdict: Option<Verdict>,
    /// Counters that must all be zero on a clean run (gaps, corrupt frames,
    /// rejected or dropped events, chain mismatches, …).
    pub anomalies: Counts,
    /// Per-layer counts read off the public report structs.
    pub counts: Counts,
}

impl EventRep {
    pub fn wall(&self) -> Duration {
        self.end - self.start
    }

    pub fn lag(&self) -> Duration {
        self.end - self.produced
    }
}

fn counter_universe(objects: usize) -> ObjectUniverse {
    let mut universe = ObjectUniverse::new();
    for _ in 0..objects {
        universe.add_object(FetchIncrement::new());
    }
    universe
}

fn linearizability(min_segment_events: usize, segment_batch: usize) -> MonitorConfig {
    MonitorConfig {
        condition: MonitorCondition::Linearizability,
        min_segment_events,
        segment_batch,
        ..MonitorConfig::default()
    }
}

/// The offline kernel's verdict on every accepted stream, recomposed the way
/// the service recomposes its shards.
fn kernel_verdict(streams: &[Vec<Event>], universe: &ObjectUniverse) -> Verdict {
    let mut out = Verdict::Ok;
    for stream in streams {
        let history = History::from_events(stream.clone());
        match kernel::check_local(
            &TLinearizability::new(0),
            &history,
            universe,
            SearchLimits::default(),
        ) {
            SearchResult::Yes(_) => {}
            SearchResult::No => return Verdict::Violation,
            SearchResult::Unknown => out = Verdict::Unknown,
        }
    }
    out
}

/// How far off the negative control's perturbed response is.
const WRONG_BY: i64 = 1_000_003;

/// What one producer thread brings back.
struct Produced<T> {
    start: Instant,
    end: Instant,
    handle: T,
}

impl<T> Produced<T> {
    /// Closes the handle (outside the producer's own clock).
    fn then<U>(self, close: impl FnOnce(T) -> U) -> Produced<U> {
        Produced {
            start: self.start,
            end: self.end,
            handle: close(self.handle),
        }
    }
}

/// Drives one producer's share of a counter plan through `record`: invoke,
/// take the application's true value off the shared atomic, respond.  Waits
/// on `barrier` first so all producers (and the clock) start together.
fn produce<T>(
    plan: &CounterPlan,
    producer: usize,
    counters: &[AtomicI64],
    barrier: &Barrier,
    mut handle: T,
    mut record: impl FnMut(&mut T, ProcessId, ObjectId, Option<Value>),
) -> Produced<T> {
    let process = ProcessId(producer);
    let wrong = plan
        .perturb
        .and_then(|(p, op)| (p == producer).then_some(op));
    barrier.wait();
    let start = Instant::now();
    for (i, &object) in plan.per_producer[producer].iter().enumerate() {
        let object = ObjectId(object as usize);
        record(&mut handle, process, object, None);
        let mut value = counters[object.0].fetch_add(1, Ordering::SeqCst);
        if wrong == Some(i) {
            value += WRONG_BY;
        }
        record(&mut handle, process, object, Some(Value::Int(value)));
    }
    Produced {
        start,
        end: Instant::now(),
        handle,
    }
}

fn atomics(n: usize) -> Vec<AtomicI64> {
    (0..n).map(|_| AtomicI64::new(0)).collect()
}

fn span_of<T>(produced: &[Produced<T>]) -> (Instant, Instant) {
    let start = produced.iter().map(|p| p.start).min().expect("a producer");
    let end = produced.iter().map(|p| p.end).max().expect("a producer");
    (start, end)
}

fn shard_counts(shards: &[ShardReport], counts: &mut Counts, anomalies: &mut Counts) {
    let sum = |f: &dyn Fn(&ShardReport) -> usize| shards.iter().map(f).sum::<usize>() as f64;
    let events: Vec<f64> = shards
        .iter()
        .map(|s| s.report.stats.events as f64)
        .collect();
    let mean = events.iter().sum::<f64>() / events.len() as f64;
    counts.extend([
        ("channel.frames", sum(&|s| s.merge.frames)),
        ("monitor.segments", sum(&|s| s.report.stats.segments)),
        (
            "monitor.fast_path_checks",
            sum(&|s| s.report.stats.fast_path_segments),
        ),
        (
            "monitor.peak_window_events",
            shards
                .iter()
                .map(|s| s.report.stats.peak_window_events)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "monitor.kernel_nodes",
            sum(&|s| s.report.stats.search.nodes),
        ),
        (
            "monitor.memo_hits",
            sum(&|s| s.report.stats.search.memo_hits),
        ),
        ("replica.verdict_rounds", sum(&|s| s.rounds as usize)),
        (
            "replica.shard_skew",
            events.iter().copied().fold(0.0, f64::max) / mean.max(1.0),
        ),
    ]);
    anomalies.extend([
        (
            "channel.misordered_frames",
            sum(&|s| s.merge.misordered_frames),
        ),
        (
            "channel.fingerprint_mismatches",
            sum(&|s| s.merge.fingerprint_mismatches),
        ),
        (
            "replica.rejected_events",
            sum(&|s| s.rejected_events as usize),
        ),
    ]);
}

// ---------------------------------------------------------------------------
// svc_wide: the in-process sharded service
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub struct ServiceShape {
    pub clients: usize,
    pub objects: usize,
    pub shards: usize,
    pub frame_events: usize,
    /// In-flight frames per connection and shard inside the replica.
    pub ring_frames: usize,
    pub min_segment_events: usize,
}

impl ServiceShape {
    fn config(&self, capture: bool) -> ServiceConfig {
        ServiceConfig {
            shards: self.shards,
            monitor: linearizability(self.min_segment_events, 8),
            frame_capacity: self.frame_events,
            ring_frames: self.ring_frames,
            capture_streams: capture,
            ..ServiceConfig::default()
        }
    }
}

/// `plan` through `MonitorService::in_process`: one `ServiceClient` per
/// producer thread over duplex links, verdicts recomposed by the service.
pub fn run_service(plan: &CounterPlan, shape: &ServiceShape, capture: bool) -> EventRep {
    let universe = counter_universe(shape.objects);
    let (clients, service) =
        MonitorService::in_process(&universe, shape.clients, shape.config(capture));
    let counters = atomics(shape.objects);
    let barrier = Barrier::new(shape.clients);
    let produced: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let (counters, barrier) = (&counters, &barrier);
                s.spawn(move || {
                    produce(plan, c, counters, barrier, client, |cl, p, o, v| match v {
                        None => cl.invoke(p, o, FetchIncrement::fetch_inc()),
                        Some(v) => cl.respond(p, o, v),
                    })
                    .then(|client| client.finish())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("producer thread"))
            .collect()
    });
    let report = service.finish();
    let end = Instant::now();
    let (start, produced_at) = span_of(&produced);
    let clients: Vec<_> = produced
        .into_iter()
        .map(|p| p.handle.collect_verdicts())
        .collect();

    let conn = |f: &dyn Fn(&evlin_service::ConnStats) -> u64| {
        report.connections.iter().map(f).sum::<u64>() as f64
    };
    let client =
        |f: &dyn Fn(&evlin_service::ClientReport) -> u64| clients.iter().map(f).sum::<u64>() as f64;
    let mut counts = vec![
        ("replica.frames", conn(&|c| c.frames)),
        (
            "channel.partial_frames",
            client(&|c| c.stats.partial_frames),
        ),
        // Mid-run verdict rounds are best-effort by design; shedding one is
        // load information, not a correctness anomaly.
        ("replica.verdicts_dropped", report.verdicts_dropped as f64),
    ];
    let missing_finals = clients
        .iter()
        .filter(|c| c.final_summaries().len() != report.shards.len())
        .count();
    let mut anomalies = vec![
        (
            "recorder.dropped_malformed",
            client(&|c| c.stats.dropped_malformed),
        ),
        ("replica.frame_gaps", conn(&|c| c.frame_gaps)),
        ("replica.corrupt_frames", conn(&|c| c.corrupt_frames)),
        ("client.send_failures", client(&|c| c.stats.send_failures)),
        ("client.protocol_errors", client(&|c| c.protocol_errors)),
        ("client.missing_finals", missing_finals as f64),
        (
            "replica.audit_failures",
            conn(&|c| c.misordered_frames + c.shutdown_mismatches + c.protocol_errors),
        ),
    ];
    shard_counts(&report.shards, &mut counts, &mut anomalies);
    EventRep {
        start,
        produced: produced_at,
        end,
        ops: plan.ops() as u64,
        checked_ops: report.checked_ops(),
        events: report.events(),
        verdict: (&report.verdict).into(),
        kernel_verdict: report
            .accepted_streams
            .as_ref()
            .map(|streams| kernel_verdict(streams, &universe)),
        anomalies,
        counts,
    }
}

// ---------------------------------------------------------------------------
// svc_durable / svc_recover: the crash-recoverable service over loopback TCP
// ---------------------------------------------------------------------------

fn recovery_config(shape: &ServiceShape, journals: &Path, capture: bool) -> RecoveryConfig {
    let mut config = RecoveryConfig::new(journals.to_path_buf(), shape.clients);
    config.service = shape.config(capture);
    config
}

/// `plan` through `RecoverableService::bind` on loopback TCP (port 0), one
/// `RecoverableClient` per producer thread, fsynced journals under
/// `journals`, no chaos.  Binding and connecting happen before the clock
/// starts; the journals are left in place for [`run_recovery`].
pub fn run_durable(
    plan: &CounterPlan,
    shape: &ServiceShape,
    journals: &Path,
    capture: bool,
) -> EventRep {
    let universe = counter_universe(shape.objects);
    let (addr, service) =
        RecoverableService::bind(&universe, recovery_config(shape, journals, capture))
            .expect("bind the recoverable service");
    let seq = Arc::new(AtomicU64::new(0));
    let counters = atomics(shape.objects);
    let barrier = Barrier::new(shape.clients);
    let produced: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..shape.clients)
            .map(|c| {
                let (counters, barrier, seq) = (&counters, &barrier, Arc::clone(&seq));
                s.spawn(move || {
                    let client = RecoverableClient::connect_tcp(
                        addr,
                        c as u32,
                        0xBE7C_0000 + c as u64 + 1,
                        seq,
                        ClientRecoveryConfig {
                            frame_capacity: shape.frame_events,
                            ..ClientRecoveryConfig::standard(c as u64)
                        },
                    )
                    .expect("connect to the loopback endpoint");
                    produce(plan, c, counters, barrier, client, |cl, p, o, v| match v {
                        None => cl.invoke(p, o, FetchIncrement::fetch_inc()),
                        Some(v) => cl.respond(p, o, v),
                    })
                    .then(|client| client.finish().expect("retry budget holds without chaos"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("producer thread"))
            .collect()
    });
    let report = service.finish();
    let end = Instant::now();
    let (start, produced_at) = span_of(&produced);
    let clients: Vec<_> = produced
        .into_iter()
        .map(|p| p.handle.collect_verdicts())
        .collect();

    let client = |f: &dyn Fn(&evlin_service::RecoverableClientStats) -> u64| {
        clients.iter().map(|c| f(&c.stats)).sum::<u64>() as f64
    };
    let session = |f: &dyn Fn(&evlin_service::SessionStats) -> u64| {
        report.sessions.iter().map(f).sum::<u64>() as f64
    };
    let frames = client(&|c| c.frames);
    let mut counts = vec![
        ("replica.frames", session(&|s| s.accepted_frames)),
        ("session.acks", client(&|c| c.acks)),
        (
            "session.frame_period_us",
            (end - start).as_secs_f64() * 1e6 / (frames / shape.clients as f64).max(1.0),
        ),
        ("replica.verdicts_dropped", report.verdicts_dropped as f64),
        // Lossless by protocol (a shed or resent frame is deduplicated and
        // the event counts below still have to be exact): load information.
        (
            "session.retransmitted_frames",
            client(&|c| c.retransmitted_frames),
        ),
        ("session.overloads", client(&|c| c.overloads)),
        ("session.reconnects", client(&|c| c.reconnects)),
        ("session.duplicate_frames", session(&|s| s.duplicate_frames)),
    ];
    let missing_finals = clients
        .iter()
        .filter(|c| c.final_summaries().len() != report.shards.len())
        .count();
    let mut anomalies = vec![
        (
            "recorder.dropped_malformed",
            client(&|c| c.dropped_malformed),
        ),
        ("replica.frame_gaps", session(&|s| s.gap_frames)),
        ("replica.corrupt_frames", session(&|s| s.corrupt_frames)),
        ("supervisor.replayed_frames", report.replayed_frames as f64),
        (
            "supervisor.replay_chain_mismatches",
            report.replay_chain_mismatches as f64,
        ),
        (
            "client.failures",
            client(&|c| c.send_failures + c.dropped_after_death + c.protocol_errors),
        ),
        ("client.missing_finals", missing_finals as f64),
        (
            "session.audit_failures",
            session(&|s| {
                s.resume_rejections + s.protocol_errors + s.shutdown_mismatches + s.journal_failures
            }) + report.restarts as f64
                + report.orphan_connections as f64,
        ),
    ];
    shard_counts(&report.shards, &mut counts, &mut anomalies);
    EventRep {
        start,
        produced: produced_at,
        end,
        ops: plan.ops() as u64,
        checked_ops: report
            .shards
            .iter()
            .map(|s| s.report.stats.checked_ops as u64)
            .sum(),
        events: report.events(),
        verdict: (&report.verdict).into(),
        kernel_verdict: report
            .accepted_streams
            .as_ref()
            .map(|streams| kernel_verdict(streams, &universe)),
        anomalies,
        counts,
    }
}

/// The process-crash path: a fresh `RecoverableService::bind` over the
/// journals a finished [`run_durable`] left behind, with no client at all.
/// The clock runs from `bind` to the rebuilt pool's final verdict.
pub fn run_recovery(shape: &ServiceShape, journals: &Path, ops: u64, capture: bool) -> EventRep {
    let universe = counter_universe(shape.objects);
    let start = Instant::now();
    let (_, service) =
        RecoverableService::bind(&universe, recovery_config(shape, journals, capture))
            .expect("bind over the journal directory");
    let report = service.finish();
    let end = Instant::now();
    let mut counts = vec![
        ("supervisor.replayed_frames", report.replayed_frames as f64),
        ("replica.frames", report.replayed_frames as f64),
    ];
    let mut anomalies = vec![
        (
            "supervisor.replay_chain_mismatches",
            report.replay_chain_mismatches as f64,
        ),
        (
            "supervisor.unrecovered_sessions",
            shape.clients.abs_diff(report.recovered_at_startup) as f64,
        ),
        (
            "supervisor.unreplayed_events",
            report.events().abs_diff(report.replayed_events) as f64,
        ),
    ];
    shard_counts(&report.shards, &mut counts, &mut anomalies);
    EventRep {
        start,
        produced: start,
        end,
        ops,
        checked_ops: report
            .shards
            .iter()
            .map(|s| s.report.stats.checked_ops as u64)
            .sum(),
        events: report.events(),
        verdict: (&report.verdict).into(),
        kernel_verdict: report
            .accepted_streams
            .as_ref()
            .map(|streams| kernel_verdict(streams, &universe)),
        anomalies,
        counts,
    }
}

/// Writes the journals a replica would hold after every client of `plan`
/// finished cleanly — one `EVJL` file per client, one fsynced record per
/// `frame_events` events, the shutdown audit last — straight through
/// `Journal`, with no service or thread involved: the input of the recovery
/// workload is then a function of the seed alone.
pub fn write_journals(plan: &CounterPlan, shape: &ServiceShape, journals: &Path) {
    // A journal is never reopened for writing from the top: start empty.
    let _ = std::fs::remove_dir_all(journals);
    std::fs::create_dir_all(journals).expect("create the journal directory");
    struct Session {
        journal: Journal,
        buf: Vec<(u64, Event)>,
        events: u64,
    }
    let mut sessions: Vec<Session> = (0..plan.per_producer.len())
        .map(|c| {
            let session = 0xBE7C_0000 + c as u64 + 1;
            let path = journals.join(journal_file_name(c as u32, session));
            Session {
                journal: Journal::create(&path, c as u32, session).expect("create the journal"),
                buf: Vec::with_capacity(shape.frame_events),
                events: 0,
            }
        })
        .collect();
    fn ship(client: usize, s: &mut Session) {
        if s.buf.is_empty() {
            return;
        }
        let events = std::mem::take(&mut s.buf);
        let fingerprint = event_batch_fingerprint(client as u32, &events);
        let count = events.len() as u64;
        let frame = WireFrame::Events {
            client: client as u32,
            frame_seq: s.journal.cursor().frames,
            events,
            fingerprint,
        };
        s.journal
            .append_events(&encode_frame(&frame), count, fingerprint)
            .expect("append + fsync");
        s.events += count;
    }
    walk(plan, |client, seq, event| {
        let s = &mut sessions[client];
        s.buf.push((seq, event));
        if s.buf.len() >= shape.frame_events {
            ship(client, s);
        }
        true
    });
    for (client, s) in sessions.iter_mut().enumerate() {
        ship(client, s);
        let chain = s.journal.cursor().chain;
        s.journal
            .append_shutdown(s.events, chain)
            .expect("append the shutdown audit");
    }
}

// ---------------------------------------------------------------------------
// pipe_hot: recorder → rings → merge → ingest ∥ check, assembled from the seams
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub struct PipeShape {
    pub producers: usize,
    pub objects: usize,
    pub frame_events: usize,
    pub ring_frames: usize,
    pub stage_queue: usize,
    pub min_segment_events: usize,
}

enum StageMsg {
    Batch(SegmentBatch),
    Final(SegmentBatch, IngestSummary),
}

fn monitor_counts(report: &MonitorReport, counts: &mut Counts) {
    let stats = &report.stats;
    counts.extend([
        ("monitor.segments", stats.segments as f64),
        ("monitor.fast_path_checks", stats.fast_path_segments as f64),
        (
            "monitor.peak_window_events",
            stats.peak_window_events as f64,
        ),
        ("monitor.kernel_nodes", stats.search.nodes as f64),
        ("monitor.memo_hits", stats.search.memo_hits as f64),
    ]);
}

/// `plan` through the in-process pipeline: `sharded_recorder` shards on the
/// producer threads, `FrameMerge::recv_sorted` + `MonitorIngest` on a merge
/// thread, `MonitorCheck` on a check thread behind a bounded stage queue.
pub fn run_pipeline(plan: &CounterPlan, shape: &PipeShape, capture: bool) -> EventRep {
    let universe = counter_universe(shape.objects);
    let config = linearizability(
        shape.min_segment_events,
        MonitorConfig::default().segment_batch,
    );
    let (ingest, check) = stages(universe.clone(), config);
    let (shards, merge) =
        sharded_recorder(shape.producers, shape.frame_events, shape.ring_frames, None);
    let (batch_tx, batch_rx) = channel::bounded::<StageMsg>(shape.stage_queue);
    let counters = atomics(shape.objects);
    let barrier = Barrier::new(shape.producers);

    let (produced, merged, report, end) = std::thread::scope(|s| {
        let check_stage = s.spawn(move || {
            let mut check = check;
            loop {
                match batch_rx.recv() {
                    Some(StageMsg::Batch(batch)) => check.check_batch(batch),
                    Some(StageMsg::Final(tail, summary)) => return check.finish(tail, summary),
                    None => panic!("the merge stage hung up without a final batch"),
                }
            }
        });
        let merge_stage = s.spawn(move || {
            let (mut merge, mut ingest) = (merge, ingest);
            let mut buf: Vec<(u64, Event)> = Vec::with_capacity(4096);
            let mut accepted = capture.then(Vec::new);
            let mut rejected = 0u64;
            while merge.recv_sorted(&mut buf, 4096) > 0 {
                for (_, event) in buf.drain(..) {
                    let copy = accepted.is_some().then(|| event.clone());
                    match (ingest.ingest(event), &mut accepted, copy) {
                        (Ok(()), Some(kept), Some(copy)) => kept.push(copy),
                        (Ok(()), _, _) => {}
                        (Err(_), _, _) => rejected += 1,
                    }
                }
                while let Some(batch) = ingest.take_ready_batch() {
                    if batch_tx.send(StageMsg::Batch(batch)).is_err() {
                        break;
                    }
                }
            }
            let stats = merge.stats();
            let (tail, summary) = ingest.finish();
            let _ = batch_tx.send(StageMsg::Final(tail, summary));
            (stats, rejected, accepted)
        });
        let producers: Vec<_> = shards
            .into_iter()
            .enumerate()
            .map(|(t, shard)| {
                let (counters, barrier) = (&counters, &barrier);
                s.spawn(move || {
                    produce(plan, t, counters, barrier, shard, |sh, p, o, v| match v {
                        None => sh.invoke(p, o, FetchIncrement::fetch_inc()),
                        Some(v) => sh.respond(p, o, v),
                    })
                    .then(|shard| shard.finish())
                })
            })
            .collect();
        let produced: Vec<_> = producers
            .into_iter()
            .map(|h| h.join().expect("producer thread"))
            .collect();
        let merged = merge_stage.join().expect("merge + ingest stage");
        let report = check_stage.join().expect("check stage");
        (produced, merged, report, Instant::now())
    });
    let (start, produced_at) = span_of(&produced);
    let (merge_stats, rejected, accepted) = merged;
    let sink = |f: &dyn Fn(&evlin_runtime::SinkStats) -> usize| {
        produced.iter().map(|p| f(&p.handle)).sum::<usize>() as f64
    };
    let mut counts = vec![
        ("channel.frames", merge_stats.frames as f64),
        (
            "channel.partial_frames",
            sink(&|s| s.flushed_partial_frames),
        ),
    ];
    monitor_counts(&report, &mut counts);
    let anomalies = vec![
        ("recorder.dropped_malformed", sink(&|s| s.dropped_malformed)),
        (
            "recorder.dropped_disconnected",
            sink(&|s| s.dropped_disconnected),
        ),
        (
            "channel.misordered_frames",
            merge_stats.misordered_frames as f64,
        ),
        (
            "channel.fingerprint_mismatches",
            merge_stats.fingerprint_mismatches as f64,
        ),
        ("monitor.rejected_events", rejected as f64),
    ];
    EventRep {
        start,
        produced: produced_at,
        end,
        ops: plan.ops() as u64,
        checked_ops: report.stats.checked_ops as u64,
        events: report.stats.events as u64,
        verdict: (&report.verdict).into(),
        kernel_verdict: accepted.map(|stream| kernel_verdict(&[stream], &universe)),
        anomalies,
        counts,
    }
}

// ---------------------------------------------------------------------------
// check_dense: the staged monitor fed inline, no transport at all
// ---------------------------------------------------------------------------

/// The dense stream in the program's event type, with its universe.
pub struct DenseInput {
    universe: ObjectUniverse,
    events: Vec<Event>,
}

pub fn dense_input(events: &[DenseEvent]) -> DenseInput {
    let mut universe = ObjectUniverse::new();
    for _ in 0..DENSE_REGISTERS {
        let domain = (0..DENSE_DOMAIN).map(Value::Int).collect();
        universe.add_object(Register::new(Value::Int(0)).with_sample_domain(domain));
    }
    for _ in 0..DENSE_COUNTERS {
        universe.add_object(Counter::new());
    }
    let events = events
        .iter()
        .map(|e| {
            let (process, object) = (ProcessId(e.process as usize), ObjectId(e.object as usize));
            match e.body {
                DenseBody::Invoke(call) => Event::invoke(
                    process,
                    object,
                    match call {
                        DenseCall::Read if e.object < DENSE_REGISTERS => Register::read(),
                        DenseCall::Read => Counter::read(),
                        DenseCall::Write(v) => Register::write(Value::Int(v)),
                        DenseCall::Inc => Counter::inc(),
                    },
                ),
                DenseBody::Respond(DenseValue::Unit) => {
                    Event::respond(process, object, Value::Unit)
                }
                DenseBody::Respond(DenseValue::Int(v)) => {
                    Event::respond(process, object, Value::Int(v))
                }
            }
        })
        .collect();
    DenseInput { universe, events }
}

/// Keeps the checker's per-object fan-out on the calling thread
/// (`RAYON_NUM_THREADS=1`, the knob the repository documents), for the whole
/// process.  The fan-out goes through the `rayon` shim, which spawns scoped
/// threads per batch: on dense four-operation segments that makes the check
/// 1.8× slower in wall time and 2.7× in CPU on two cores, and the wall time
/// then follows whichever core the neighbours leave alone.  `check_dense` is
/// there to price the kernel and per-segment set-up, so it opts out.
pub fn check_on_the_calling_thread() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
}

/// The dense stream through `stages()` on the calling thread: ingest an
/// event, check whatever batch became ready, repeat.
pub fn run_inline(input: &DenseInput, capture: bool) -> EventRep {
    let events = input.events.clone();
    let ops = (events.len() / 2) as u64;
    let (mut ingest, mut check) = stages(input.universe.clone(), MonitorConfig::default());
    let mut rejected = 0u64;
    let start = Instant::now();
    for event in events {
        if ingest.ingest(event).is_err() {
            rejected += 1;
        }
        while let Some(batch) = ingest.take_ready_batch() {
            check.check_batch(batch);
        }
    }
    let produced = Instant::now();
    let (tail, summary) = ingest.finish();
    let report = check.finish(tail, summary);
    let end = Instant::now();
    let mut counts = Counts::new();
    monitor_counts(&report, &mut counts);
    EventRep {
        start,
        produced,
        end,
        ops,
        checked_ops: report.stats.checked_ops as u64,
        events: report.stats.events as u64,
        verdict: (&report.verdict).into(),
        kernel_verdict: capture
            .then(|| kernel_verdict(std::slice::from_ref(&input.events), &input.universe)),
        anomalies: vec![("monitor.rejected_events", rejected as f64)],
        counts,
    }
}

// ---------------------------------------------------------------------------
// Event path: stage isolation (one layer's public functions at a time)
// ---------------------------------------------------------------------------

/// Walks a counter plan as the sequential stream one correct execution
/// records — producers take turns, every response is the counter's true value
/// (but for the plan's perturbed one) — until `sink` returns `false`.
fn walk(plan: &CounterPlan, mut sink: impl FnMut(usize, u64, Event) -> bool) {
    let mut next = vec![0i64; plan.objects];
    let mut seq = 0u64;
    let longest = plan.per_producer.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (producer, objects) in plan.per_producer.iter().enumerate() {
            let Some(&object) = objects.get(i) else {
                continue;
            };
            let (process, object) = (ProcessId(producer), ObjectId(object as usize));
            let mut value = next[object.0];
            next[object.0] += 1;
            if plan.perturb == Some((producer, i)) {
                value += WRONG_BY;
            }
            let invoke = Event::invoke(process, object, FetchIncrement::fetch_inc());
            let respond = Event::respond(process, object, Value::Int(value));
            if !(sink(producer, seq, invoke) && sink(producer, seq + 1, respond)) {
                return;
            }
            seq += 2;
        }
    }
}

/// The first `max_events` events of [`walk`], sequence-stamped.
fn materialize(plan: &CounterPlan, max_events: usize) -> Vec<(u64, Event)> {
    let mut stream = Vec::new();
    walk(plan, |_, seq, event| {
        stream.push((seq, event));
        stream.len() < max_events
    });
    stream.truncate(max_events - max_events % 2);
    stream
}

/// An [`EventSink`] that drops everything: isolates the recorder's own work.
struct NullSink(u64);

impl EventSink for NullSink {
    fn accept(&mut self, seq: u64, _event: Event) {
        self.0 = self.0.wrapping_add(seq);
    }

    fn flush(&mut self) {}
}

fn per(duration: Duration, n: usize) -> f64 {
    duration.as_nanos() as f64 / n.max(1) as f64
}

/// The shape of the stages on a counter workload's path.  Recorder, rings and
/// monitor are on every one; the wire (and the journal behind it) only on the
/// service workloads, whose off-path stages report 0 elsewhere.
#[derive(Debug, Clone, Copy)]
pub struct EventStages {
    pub channel: PipeShape,
    pub wire_frame_events: Option<usize>,
    pub journal: bool,
    pub shards: usize,
    pub min_segment_events: usize,
    pub segment_batch: usize,
}

/// Replays up to `max_events` of the plan's stream through one layer at a
/// time, each inside its own span, and returns the per-stage costs.
pub fn isolate_counter_path(
    plan: &CounterPlan,
    stages_on: &EventStages,
    max_events: usize,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Counts {
    let stream = materialize(plan, max_events);
    let n = stream.len();
    let mut out = Counts::new();

    let cost = tracer.span("recorder.record", |_| {
        let mut shard = RecorderShard::over(Arc::new(AtomicU64::new(0)), NullSink(0));
        let start = Instant::now();
        for (_, event) in &stream {
            match &event.kind {
                EventKind::Invoke(_) => {
                    shard.invoke(event.process, event.object, FetchIncrement::fetch_inc())
                }
                EventKind::Respond(v) => shard.respond(event.process, event.object, v.clone()),
            }
        }
        let elapsed = start.elapsed();
        black_box(shard.into_sink().0 .0);
        elapsed
    });
    out.push(("recorder.ns_per_event", per(cost, n)));

    // Generated on the fly, so five times what was materialized costs no
    // memory and reads the CPU clock over a longer stretch.
    let channel_events = 5 * n;
    let cpu = tracer.span("channel.rings_and_merge", |_| {
        channel_cpu(plan, &stages_on.channel, channel_events)
    });
    out.push(("channel.ns_per_event", per(cpu, channel_events)));

    if let Some(frame_events) = stages_on.wire_frame_events {
        let frames = isolate_wire(&stream, frame_events, tracer, &mut out);
        isolate_transport(&frames, tracer, &mut out);
        if stages_on.journal {
            isolate_journal(&frames, frame_events, n, scratch, tracer, &mut out);
        }
    }

    let universe = counter_universe(plan.objects);
    let config = linearizability(stages_on.min_segment_events, stages_on.segment_batch);
    let events: Vec<Event> = stream.into_iter().map(|(_, e)| e).collect();
    isolate_kernel(&events, &universe, 4_000, tracer, &mut out);
    isolate_monitor(
        events,
        &universe,
        config,
        stages_on.shards,
        tracer,
        &mut out,
    );
    out
}

/// Process CPU per event of record → ring → `recv_sorted` with no monitor
/// behind the merge.  The merge blocks on empty open rings, so this stage
/// needs its producer threads; CPU time (not wall) keeps it comparable with
/// the single-threaded stages.  It includes the recorder's own cost.
fn channel_cpu(plan: &CounterPlan, pipe: &PipeShape, events: usize) -> Duration {
    let (shards, mut merge) =
        sharded_recorder(pipe.producers, pipe.frame_events, pipe.ring_frames, None);
    let ops_each = events / 2 / pipe.producers.max(1);
    let before = crate::proc::process_cpu();
    std::thread::scope(|s| {
        for (t, mut shard) in shards.into_iter().enumerate() {
            let objects = &plan.per_producer[t % plan.per_producer.len()];
            s.spawn(move || {
                for (i, &object) in objects.iter().cycle().take(ops_each).enumerate() {
                    let object = ObjectId(object as usize);
                    shard.invoke(ProcessId(t), object, FetchIncrement::fetch_inc());
                    shard.respond(ProcessId(t), object, Value::Int(i as i64));
                }
                shard.finish()
            });
        }
        let mut buf = Vec::with_capacity(4096);
        while merge.recv_sorted(&mut buf, 4096) > 0 {
            black_box(buf.len());
            buf.clear();
        }
    });
    crate::proc::process_cpu().saturating_sub(before)
}

/// Encode, fingerprint and decode every frame of the stream; returns the
/// encoded frames for the transport and journal stages.
fn isolate_wire(
    stream: &[(u64, Event)],
    frame_events: usize,
    tracer: &mut Tracer,
    out: &mut Counts,
) -> Vec<Vec<u8>> {
    let n = stream.len();
    let batches: Vec<Vec<(u64, Event)>> = stream.chunks(frame_events).map(<[_]>::to_vec).collect();
    let fingerprint_cost = tracer.span("wire.fingerprint", |_| {
        let start = Instant::now();
        for batch in &batches {
            black_box(event_batch_fingerprint(0, batch));
        }
        start.elapsed()
    });
    let frames: Vec<WireFrame> = batches
        .into_iter()
        .enumerate()
        .map(|(i, events)| WireFrame::Events {
            client: 0,
            frame_seq: i as u64,
            fingerprint: event_batch_fingerprint(0, &events),
            events,
        })
        .collect();
    let (encode_cost, encoded) = tracer.span("wire.encode", |_| {
        let start = Instant::now();
        let encoded: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
        (start.elapsed(), encoded)
    });
    drop(frames);
    let decode_cost = tracer.span("wire.decode", |_| {
        let mut interner = Vec::new();
        let start = Instant::now();
        for bytes in &encoded {
            black_box(decode_frame_with(bytes, &mut interner).expect("own frame decodes"));
        }
        start.elapsed()
    });
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    out.extend([
        ("wire.fingerprint_ns_per_event", per(fingerprint_cost, n)),
        ("wire.encode_ns_per_event", per(encode_cost, n)),
        // Decoding re-verifies the batch fingerprint, as on every receive.
        ("wire.decode_ns_per_event", per(decode_cost, n)),
        ("wire.bytes_per_event", bytes as f64 / n.max(1) as f64),
    ]);
    encoded
}

/// Moves the encoded frames across each transport, sender and receiver on
/// their own threads (both links are bounded), timing wall per frame.
fn isolate_transport(frames: &[Vec<u8>], tracer: &mut Tracer, out: &mut Counts) {
    fn pump(mut tx: impl FrameTx, mut rx: impl FrameRx, frames: &[Vec<u8>]) -> Duration {
        let copies: Vec<Vec<u8>> = frames.to_vec();
        let start = Instant::now();
        std::thread::scope(|s| {
            s.spawn(move || {
                for frame in copies {
                    tx.send(frame).expect("link accepts the frame");
                }
                tx.close();
            });
            let mut received = 0usize;
            while let Some(frame) = rx.recv().expect("link delivers the frame") {
                received += black_box(frame).len().min(1);
            }
            assert_eq!(received, frames.len(), "every frame crosses the link");
        });
        start.elapsed()
    }
    let duplex_cost = tracer.span("transport.duplex", |_| {
        let (tx, rx) = duplex(64, None);
        pump(tx, rx, frames)
    });
    let tcp_cost = tracer.span("transport.tcp", |_| {
        let listener = loopback_listener().expect("bind port 0 on loopback");
        let addr = listener.local_addr().expect("listener address");
        let (tx, _) = tcp_connect(addr).expect("connect to the listener");
        let (stream, _) = listener.accept().expect("accept the connection");
        let (_, rx) = tcp_pair(stream).expect("split the accepted socket");
        pump(tx, rx, frames)
    });
    out.extend([
        (
            "transport.duplex_ns_per_frame",
            per(duplex_cost, frames.len()),
        ),
        ("transport.tcp_ns_per_frame", per(tcp_cost, frames.len())),
        (
            "transport.tcp_bytes",
            frames.iter().map(Vec::len).sum::<usize>() as f64,
        ),
    ]);
}

/// Appends (fsync per frame, as before every durability ack) and recovers
/// (full validation, as on resume and restart) one journal of the frames.
fn isolate_journal(
    frames: &[Vec<u8>],
    frame_events: usize,
    events: usize,
    scratch: &Path,
    tracer: &mut Tracer,
    out: &mut Counts,
) {
    let path = scratch.join("isolate.evjl");
    let _ = std::fs::remove_file(&path);
    let mut interner = Vec::new();
    let fingerprints: Vec<(u64, u64)> = frames
        .iter()
        .map(|bytes| match decode_frame_with(bytes, &mut interner) {
            Ok(WireFrame::Events {
                events,
                fingerprint,
                ..
            }) => (events.len() as u64, fingerprint),
            other => panic!("isolation frames are event frames, got {other:?}"),
        })
        .collect();
    // A few hundred fsyncs price the append; recovery reads the same file.
    let appended = frames.len().min(256);
    let append_cost = tracer.span("journal.append", |_| {
        let mut journal = Journal::create(&path, 0, 1).expect("create the journal");
        let start = Instant::now();
        for (bytes, (count, fingerprint)) in frames.iter().zip(&fingerprints).take(appended) {
            journal
                .append_events(bytes, *count, *fingerprint)
                .expect("append + fsync");
        }
        start.elapsed()
    });
    let file_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let recover_cost = tracer.span("journal.recover", |_| {
        let start = Instant::now();
        let (_, recovered) = Journal::recover(&path).expect("recover the journal");
        assert_eq!(
            recovered.cursor.frames, appended as u64,
            "every frame recovered"
        );
        assert_eq!(recovered.torn_bytes, 0, "no torn tail");
        start.elapsed()
    });
    let _ = std::fs::remove_file(&path);
    let journaled_events = (appended * frame_events).min(events);
    out.extend([
        (
            "journal.append_us_per_frame",
            per(append_cost, appended) / 1e3,
        ),
        (
            "journal.recover_ns_per_event",
            per(recover_cost, journaled_events),
        ),
        (
            "journal.bytes_per_event",
            file_bytes as f64 / journaled_events.max(1) as f64,
        ),
    ]);
}

/// The offline kernel alone on the first `max_ops` operations of the stream.
fn isolate_kernel(
    events: &[Event],
    universe: &ObjectUniverse,
    max_ops: usize,
    tracer: &mut Tracer,
    out: &mut Counts,
) {
    let prefix = History::from_events(events[..events.len().min(2 * max_ops)].to_vec());
    let ops = prefix.len() / 2;
    let (cost, nodes) = tracer.span("kernel.check_local", |_| {
        let start = Instant::now();
        let (result, stats) = kernel::check_local_with_stats(
            &TLinearizability::new(0),
            &prefix,
            universe,
            SearchLimits::default(),
        );
        assert!(result.is_yes(), "the generated stream is linearizable");
        (start.elapsed(), stats.nodes)
    });
    out.extend([
        ("kernel.ns_per_op", per(cost, ops)),
        ("kernel.nodes_per_op", nodes as f64 / ops.max(1) as f64),
    ]);
}

/// Route, ingest and check in isolation: the stream is split by the shard
/// router, each shard's substream is ingested with no checker attached, and
/// the collected batches are then checked with no ingest running.
fn isolate_monitor(
    events: Vec<Event>,
    universe: &ObjectUniverse,
    config: MonitorConfig,
    shards: usize,
    tracer: &mut Tracer,
    out: &mut Counts,
) {
    let n = events.len();
    let router = ShardRouter::new(config.condition, shards);
    let mut routed: Vec<Vec<Event>> = vec![Vec::new(); router.effective_shards()];
    let route_cost = tracer.span("monitor.route", |_| {
        let start = Instant::now();
        for event in &events {
            black_box(router.route(event.object));
        }
        start.elapsed()
    });
    for event in events {
        routed[router.route(event.object)].push(event);
    }
    let mut ingest_cost = Duration::ZERO;
    let mut check_cost = Duration::ZERO;
    for substream in routed {
        let (mut ingest, mut check) = stages(universe.clone(), config);
        let mut batches = Vec::new();
        ingest_cost += tracer.span("monitor.ingest", |_| {
            let start = Instant::now();
            for event in substream {
                ingest
                    .ingest(event)
                    .expect("the generated stream is well-formed");
                while let Some(batch) = ingest.take_ready_batch() {
                    batches.push(batch);
                }
            }
            start.elapsed()
        });
        check_cost += tracer.span("monitor.check", |_| {
            let start = Instant::now();
            for batch in batches {
                check.check_batch(batch);
            }
            let (tail, summary) = ingest.finish();
            let report = check.finish(tail, summary);
            assert!(report.verdict.is_ok(), "the generated stream verifies");
            start.elapsed()
        });
    }
    out.extend([
        ("monitor.route_ns_per_event", per(route_cost, n)),
        ("monitor.ingest_ns_per_event", per(ingest_cost, n)),
        ("monitor.check_ns_per_event", per(check_cost, n)),
    ]);
}

/// Stage isolation for the dense workload: no transport, monitor and kernel only.
pub fn isolate_dense_path(input: &DenseInput, max_events: usize, tracer: &mut Tracer) -> Counts {
    let events = input.events[..input.events.len().min(max_events)].to_vec();
    let mut out = Counts::new();
    // The kernel is superlinear in concurrent operations per object: a
    // shorter prefix than the counter streams get keeps this stage sub-second.
    isolate_kernel(&events, &input.universe, 800, tracer, &mut out);
    isolate_monitor(
        events,
        &input.universe,
        MonitorConfig::default(),
        1,
        tracer,
        &mut out,
    );
    out
}

// ---------------------------------------------------------------------------
// Exploration path
// ---------------------------------------------------------------------------

/// The implementations explored (deterministic trees; no seed involved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tree {
    /// `CasFetchInc` over `processes` processes, `ops` operations each, cut
    /// at `max_depth` steps (configurations at the bound count as terminals):
    /// a deep tree with a tiny symmetry group, sized by the bound.
    CasFetchInc {
        processes: usize,
        ops: usize,
        max_depth: usize,
    },
    /// Process-local fetch&increment copies: a shallow tree whose `n!`
    /// renamings make canonicalization the whole cost.
    LocalCopies { processes: usize, ops: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Mem,
    Spill {
        shards_log2: u32,
        shard_budget: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreShape {
    pub tree: Tree,
    pub backend: Backend,
}

/// The exact, repeating counts of one exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeCounts {
    pub visited: usize,
    pub terminals: usize,
    pub pruned: usize,
}

#[derive(Debug, Clone)]
pub struct ExploreRep {
    pub wall: Duration,
    pub counts: TreeCounts,
    pub truncated: bool,
    pub resident_bytes: usize,
    pub spilled_bytes: usize,
    pub filter_bytes: usize,
    pub runs: usize,
}

impl Tree {
    fn build(&self) -> (Box<dyn Implementation>, Workload) {
        let (implementation, processes, ops): (Box<dyn Implementation>, _, _) = match *self {
            Tree::CasFetchInc { processes, ops, .. } => {
                (Box::new(CasFetchInc::new(processes)), processes, ops)
            }
            Tree::LocalCopies { processes, ops } => {
                let ty = Arc::new(FetchIncrement::new());
                (
                    Box::new(LocalSpecImplementation::new(ty, processes)),
                    processes,
                    ops,
                )
            }
        };
        let workload = Workload::uniform(processes, FetchIncrement::fetch_inc(), ops);
        (implementation, workload)
    }
}

fn engine_options(tree: Tree, reduction: Reduction, store: StoreConfig) -> EngineOptions {
    let max_depth = match tree {
        Tree::CasFetchInc { max_depth, .. } => max_depth,
        Tree::LocalCopies { .. } => 256,
    };
    EngineOptions {
        limits: ExploreOptions {
            max_depth,
            max_configs: 50_000_000,
        },
        workers: Some(1),
        reduction,
        dedup: true,
        store,
        ..EngineOptions::default()
    }
}

fn store_config(backend: Backend) -> StoreConfig {
    match backend {
        Backend::Mem => StoreConfig::Mem,
        Backend::Spill {
            shards_log2,
            shard_budget,
        } => StoreConfig::Spill {
            shards_log2,
            shard_budget,
        },
    }
}

/// One complete exploration under `SleepSetSymmetry` on one worker.  A spill
/// store writes its runs under `std::env::temp_dir()`, which `main` points
/// at the scratch directory.
pub fn run_exploration(shape: &ExploreShape) -> ExploreRep {
    let (implementation, workload) = shape.tree.build();
    let options = engine_options(
        shape.tree,
        Reduction::SleepSetSymmetry,
        store_config(shape.backend),
    );
    let start = Instant::now();
    let stats = engine::explore(implementation.as_ref(), &workload, &options, |_, _| {
        Visit::Continue
    });
    ExploreRep {
        wall: start.elapsed(),
        counts: TreeCounts {
            visited: stats.visited,
            terminals: stats.terminals,
            pruned: stats.pruned,
        },
        truncated: stats.truncated,
        resident_bytes: stats.store_bytes.resident,
        spilled_bytes: stats.store_bytes.spilled,
        filter_bytes: stats.store_bytes.filter,
        runs: stats.store_runs,
    }
}

/// The set of kernel verdicts over the terminal histories of `tree` under
/// `reduction` — `(some linearizable, some not)`.  Reductions must preserve it.
fn terminal_verdicts(tree: Tree, reduction: Reduction) -> (bool, bool) {
    let (implementation, workload) = tree.build();
    let mut universe = ObjectUniverse::new();
    universe.add_object(FetchIncrement::new());
    let mut seen = BTreeSet::new();
    engine::explore(
        implementation.as_ref(),
        &workload,
        &engine_options(tree, reduction, StoreConfig::Mem),
        |config, _| {
            if config.is_quiescent() {
                let verdict = kernel::check_local(
                    &TLinearizability::new(0),
                    config.history(),
                    &universe,
                    SearchLimits::default(),
                );
                seen.insert(verdict.is_yes());
            }
            Visit::Continue
        },
    );
    (seen.contains(&true), seen.contains(&false))
}

/// Reference check on a reduced tree: the reduction the workloads run under
/// yields the same terminal-history verdicts as no reduction at all.
pub fn reduction_preserves_verdicts(reduced: Tree) -> Result<(), String> {
    let full = terminal_verdicts(reduced, Reduction::None);
    let cut = terminal_verdicts(reduced, Reduction::SleepSetSymmetry);
    if full == cut && (full.0 || full.1) {
        Ok(())
    } else {
        Err(format!(
            "terminal verdicts differ on {reduced:?}: unreduced {full:?}, reduced {cut:?}"
        ))
    }
}

/// Per-call costs of the configuration layer along one replayed schedule and
/// of the store backend alone on the visitor-captured key stream.
pub fn isolate_exploration(shape: &ExploreShape, tracer: &mut Tracer) -> Counts {
    let (implementation, workload) = shape.tree.build();
    let options = engine_options(shape.tree, Reduction::SleepSetSymmetry, StoreConfig::Mem);
    let mut out = Counts::new();

    // The configurations along a round-robin schedule from the root, with
    // the fingerprint tracking the deduplicating engine switches on.
    let path = |tracking: bool| {
        let mut config = Config::initial(implementation.as_ref(), &workload);
        config.set_fingerprint_tracking(tracking, tracking);
        let mut configs = Vec::new();
        let mut turn = 0usize;
        while !config.is_quiescent() && configs.len() < options.limits.max_depth {
            let enabled = config.enabled_processes();
            let p = enabled[turn % enabled.len()];
            configs.push((config.clone(), p));
            config.step(p);
            turn += 1;
        }
        configs
    };
    let tracked = path(true);
    let untracked = path(false);
    let rounds = (200_000 / tracked.len().max(1)).max(1);
    let calls = rounds * tracked.len();
    let step_loop = |configs: &[(Config, ProcessId)]| {
        let start = Instant::now();
        for _ in 0..rounds {
            for (config, p) in configs {
                let mut child = config.clone();
                black_box(child.step(*p));
            }
        }
        start.elapsed()
    };
    let step_cost = tracer.span("config.step", |_| step_loop(&tracked));
    let bare_cost = tracer.span("config.step_untracked", |_| step_loop(&untracked));
    let mut shapes = 0usize;
    let shape_cost = tracer.span("config.peek_step_shape", |_| {
        let start = Instant::now();
        for _ in 0..rounds {
            for (config, _) in &tracked {
                for p in config.enabled_processes() {
                    black_box(config.peek_step_shape(p));
                    shapes += 1;
                }
            }
        }
        start.elapsed()
    });
    let perms = engine::permutations(workload.processes());
    let canonical_rounds = (calls / perms.len()).clamp(1, rounds);
    let canonical_cost = tracer.span("config.canonical_permutation", |_| {
        let start = Instant::now();
        for _ in 0..canonical_rounds {
            for (config, _) in &tracked {
                black_box(config.canonical_permutation(&perms));
            }
        }
        start.elapsed()
    });
    out.extend([
        // Clone + step, which is what expanding one child costs the engine.
        ("config.step_ns", per(step_cost, calls)),
        ("config.shape_ns", per(shape_cost, shapes)),
        // What keeping the fingerprint current adds to every step.
        (
            "config.fingerprint_ns",
            per(step_cost.saturating_sub(bare_cost), calls),
        ),
        (
            "config.canonical_ns",
            per(canonical_cost, canonical_rounds * tracked.len()),
        ),
        ("config.enabled_per_state", shapes as f64 / calls as f64),
    ]);

    // The key stream the engine's store sees, captured through the visitor
    // and replayed into a fresh backend with no engine around it.
    let mut keys: Vec<(u64, usize)> = Vec::new();
    tracer.span("store.capture_keys", |_| {
        engine::explore(
            implementation.as_ref(),
            &workload,
            &options,
            |config, depth| {
                keys.push((config.fingerprint(), depth));
                Visit::Continue
            },
        )
    });
    let (insert_cost, fresh) = tracer.span("store.insert", |_| {
        let store = store_config(shape.backend)
            .build(1)
            .expect("build the visited store");
        let start = Instant::now();
        let fresh = keys.iter().filter(|&&(k, d)| store.insert(k, d)).count();
        (start.elapsed(), fresh)
    });
    out.extend([
        ("store.insert_ns_per_key", per(insert_cost, keys.len())),
        ("store.fresh_frac", fresh as f64 / keys.len().max(1) as f64),
    ]);
    out
}
