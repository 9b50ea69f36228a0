//! Recovery-path bench: what durability costs, and what recovery costs.
//!
//! Two entries, both sized to one session's worth of the E14 saturation
//! workload shape (64-event frames):
//!
//! * `service/recovery/journal` — the write path: append + fsync 32
//!   accepted `EVENTS` frames to a fresh `EVJL` journal, exactly what a
//!   replica connection pays before each durability ack.  The CI gate pins
//!   this at about a ninth of the `service/saturation/s4` pipeline mean
//!   (3.1 ms against 28 ms for 40 k ops; it was sized at a tenth of the
//!   52 ms that pipeline took before the monitor's check stage became
//!   linear in events), so journaling stays a tax rather than quietly
//!   becoming the bottleneck.
//! * `service/recovery/resume` — the read path: [`Journal::recover`] over
//!   a 128-frame journal, re-validating every record (structure,
//!   wire codec, chained fingerprint) the way both session resumption and
//!   replica restart do.
//!
//! The CI `bench-gate` job compares both means against BENCH_checker.json.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use evlin_history::{Event, ObjectId, ProcessId};
use evlin_service::wire::{encode_frame, event_batch_fingerprint, WireFrame};
use evlin_service::Journal;
use evlin_spec::{FetchIncrement, Value};
use std::path::PathBuf;

/// Frames per journal-append iteration: sized so the fsync-dominated write
/// path stays near a tenth of the `service/saturation/s4` pipeline mean —
/// the gate that keeps durability a tax, not the bottleneck.
const JOURNAL_FRAMES: u64 = 32;
/// Frames per recovery iteration (validation scales linearly; a longer
/// journal makes the per-record cost visible above the file-open noise).
const RESUME_FRAMES: u64 = 128;
const EVENTS_PER_FRAME: usize = 64;

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
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(service_recovery, bench_recovery);
criterion_main!(service_recovery);
