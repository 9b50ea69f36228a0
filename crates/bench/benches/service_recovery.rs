//! Recovery-path bench: what durability costs, and what recovery costs.
//!
//! Four entries, all sized to one session's worth of the E14 saturation
//! workload shape (64-event frames):
//!
//! * `service/recovery/journal` — the write path one frame at a time:
//!   append + fsync 32 accepted `EVENTS` frames to a fresh `EVJL` journal
//!   (`Journal::append_events`, a commit batch of one).  This is the
//!   fsync-per-frame reference; the CI gate pins it at about a ninth of
//!   the `service/saturation/s4` pipeline mean (3.1 ms against 28 ms for
//!   40 k ops), so journaling stays a tax rather than quietly becoming the
//!   bottleneck.
//! * `service/recovery/journal_batch` — the same 32 frames as one commit
//!   batch: 32 `Journal::append_unsynced`, one `Journal::sync`.  What a
//!   replica connection pays for frames that arrived together; the
//!   distance to `journal` is the fsyncs a batch saves.
//! * `service/recovery/resume` — the read path: [`Journal::recover`] over
//!   a 128-frame journal, re-validating every record (structure,
//!   wire codec, chained fingerprint) the way both session resumption and
//!   replica restart do.
//! * `service/recovery/durable` — the whole durable session path end to
//!   end: `RecoverableService::bind`, two `RecoverableClient`s streaming 64
//!   frames each over loopback TCP (attach handshake, pipelined window,
//!   group commit, batched acks, shutdown audit), `finish`.  It waits for
//!   the disk and nothing else: a timer anywhere on the ack path shows here
//!   as milliseconds per frame.
//!
//! The CI `bench-gate` job compares the means against BENCH_checker.json.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use evlin_checker::monitor::{MonitorCondition, MonitorConfig};
use evlin_history::{Event, ObjectId, ObjectUniverse, ProcessId};
use evlin_service::wire::{encode_frame, event_batch_fingerprint, WireFrame};
use evlin_service::{
    ClientRecoveryConfig, Journal, RecoverableClient, RecoverableService, RecoveryConfig,
    ServiceConfig,
};
use evlin_spec::{FetchIncrement, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Frames per journal-append iteration: sized so the fsync-dominated write
/// path stays near a tenth of the `service/saturation/s4` pipeline mean —
/// the gate that keeps durability a tax, not the bottleneck.
const JOURNAL_FRAMES: u64 = 32;
/// Frames per recovery iteration (validation scales linearly; a longer
/// journal makes the per-record cost visible above the file-open noise).
const RESUME_FRAMES: u64 = 128;
const EVENTS_PER_FRAME: usize = 64;
/// Clients and frames per client of the end-to-end durable run.
const DURABLE_CLIENTS: usize = 2;
const DURABLE_FRAMES: usize = 64;

/// One encoded `EVENTS` frame plus its batch fingerprint, the shape a
/// replica journals: alternating invoke/respond fetch&inc events.
fn frame(client: u32, frame_seq: u64) -> (Vec<u8>, u64) {
    let base = frame_seq * EVENTS_PER_FRAME as u64;
    let events: Vec<(u64, Event)> = (0..EVENTS_PER_FRAME as u64)
        .map(|i| {
            let object = ObjectId((i % 16) as usize);
            let event = if i % 2 == 0 {
                Event::invoke(ProcessId(0), object, FetchIncrement::fetch_inc())
            } else {
                Event::respond(ProcessId(0), object, Value::Int(i as i64))
            };
            (base + i, event)
        })
        .collect();
    let fingerprint = event_batch_fingerprint(client, &events);
    let encoded = encode_frame(&WireFrame::Events {
        client,
        frame_seq,
        events,
        fingerprint,
    });
    (encoded, fingerprint)
}

fn bench_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("evjl-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("service/recovery");
    let dir = bench_dir();
    let frames: Vec<(Vec<u8>, u64)> = (0..RESUME_FRAMES).map(|seq| frame(7, seq)).collect();

    // Write path: every iteration journals one session's stream, fsyncing
    // per frame — the durability cost the acks are built on.
    group.throughput(Throughput::Elements(
        JOURNAL_FRAMES * EVENTS_PER_FRAME as u64,
    ));
    group.sample_size(10);
    let append_path = dir.join("append.evjl");
    group.bench_with_input(
        BenchmarkId::new("journal", JOURNAL_FRAMES),
        &frames,
        |b, frames| {
            b.iter(|| {
                let _ = std::fs::remove_file(&append_path);
                let mut journal = Journal::create(&append_path, 7, 1).expect("create");
                for (payload, fingerprint) in &frames[..JOURNAL_FRAMES as usize] {
                    journal
                        .append_events(payload, EVENTS_PER_FRAME as u64, *fingerprint)
                        .expect("append");
                }
                journal.cursor()
            });
        },
    );

    // The same frames as one commit batch: one fsync for all of them.
    let batch_path = dir.join("batch.evjl");
    group.bench_with_input(
        BenchmarkId::new("journal_batch", JOURNAL_FRAMES),
        &frames,
        |b, frames| {
            b.iter(|| {
                let _ = std::fs::remove_file(&batch_path);
                let mut journal = Journal::create(&batch_path, 7, 1).expect("create");
                for (payload, fingerprint) in &frames[..JOURNAL_FRAMES as usize] {
                    journal
                        .append_unsynced(payload, EVENTS_PER_FRAME as u64, *fingerprint)
                        .expect("append");
                }
                journal.sync().expect("sync")
            });
        },
    );

    // Read path: recover the same journal — full validation of every
    // record, as on session resume and replica restart.
    let resume_path = dir.join("resume.evjl");
    {
        let _ = std::fs::remove_file(&resume_path);
        let mut journal = Journal::create(&resume_path, 7, 1).expect("create");
        for (payload, fingerprint) in &frames {
            journal
                .append_events(payload, EVENTS_PER_FRAME as u64, *fingerprint)
                .expect("append");
        }
    }
    group.throughput(Throughput::Elements(
        RESUME_FRAMES * EVENTS_PER_FRAME as u64,
    ));
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("resume", RESUME_FRAMES), &(), |b, ()| {
        b.iter(|| {
            let (journal, recovered) = Journal::recover(&resume_path).expect("recover");
            assert_eq!(recovered.cursor.frames, RESUME_FRAMES);
            assert_eq!(recovered.torn_bytes, 0);
            drop(journal);
            recovered.cursor
        });
    });

    // End to end: bind, stream over loopback TCP, finish.
    let durable_events = (DURABLE_CLIENTS * DURABLE_FRAMES * EVENTS_PER_FRAME) as u64;
    group.throughput(Throughput::Elements(durable_events / 2));
    group.sample_size(10);
    let journals = dir.join("durable");
    group.bench_with_input(
        BenchmarkId::new("durable", format!("{DURABLE_CLIENTS}x{DURABLE_FRAMES}")),
        &(),
        |b, ()| {
            b.iter(|| {
                let events = durable_run(&journals);
                assert_eq!(events, durable_events);
                events
            });
        },
    );
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One durable service run over fresh journals: every client records
/// fetch&increments on an object of its own (so the history is linearizable
/// by construction), 64 events to the frame.  Returns the events checked.
fn durable_run(journals: &Path) -> u64 {
    let _ = std::fs::remove_dir_all(journals);
    let mut universe = ObjectUniverse::new();
    for _ in 0..DURABLE_CLIENTS {
        universe.add_object(FetchIncrement::new());
    }
    let mut config = RecoveryConfig::new(journals.to_path_buf(), DURABLE_CLIENTS);
    config.service = ServiceConfig {
        monitor: MonitorConfig::for_condition(MonitorCondition::Linearizability),
        ..ServiceConfig::default()
    };
    let (addr, service) = RecoverableService::bind(&universe, config).expect("bind");
    let seq = Arc::new(AtomicU64::new(0));
    let producers: Vec<_> = (0..DURABLE_CLIENTS)
        .map(|c| {
            let seq = Arc::clone(&seq);
            std::thread::spawn(move || {
                let mut client = RecoverableClient::connect_tcp(
                    addr,
                    c as u32,
                    0xD0_0000 + c as u64 + 1,
                    seq,
                    ClientRecoveryConfig {
                        frame_capacity: EVENTS_PER_FRAME,
                        ..ClientRecoveryConfig::standard(c as u64)
                    },
                )
                .expect("connect");
                let (process, object) = (ProcessId(c), ObjectId(c));
                for i in 0..(DURABLE_FRAMES * EVENTS_PER_FRAME / 2) as i64 {
                    client.invoke(process, object, FetchIncrement::fetch_inc());
                    client.respond(process, object, Value::Int(i));
                }
                client.finish().expect("retry budget holds without chaos")
            })
        })
        .collect();
    let closed: Vec<_> = producers
        .into_iter()
        .map(|p| p.join().expect("producer thread"))
        .collect();
    let report = service.finish();
    for client in closed {
        let _ = client.collect_verdicts();
    }
    assert!(report.verdict.is_ok(), "{:?}", report.verdict);
    report.events()
}

criterion_group!(service_recovery, bench_recovery);
criterion_main!(service_recovery);
