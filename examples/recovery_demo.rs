//! Crash-recoverable monitoring service driver: survive `kill -9` mid-run.
//!
//! `run` streams a racy (but linearizable-by-construction) fetch&increment
//! history from two producer clients over loopback TCP into a recoverable
//! service.  Every accepted frame is journaled and fsynced under `--dir`
//! before it is acked, connection chaos kills the client links every few
//! frames, and the replica pool is deliberately crash-restarted twice
//! mid-stream — so a clean completion already demonstrates in-run recovery
//! (session resumption + journal replay) and prints `RECOVERED OK`.
//!
//! `resume` is the *process*-crash path: it binds a fresh service over the
//! same journal directory, replays every session journal found there
//! through a new replica pool (re-folding each chained fingerprint as an
//! audit), and prints `RECOVERED OK` if the rebuild was bit-faithful.
//!
//! ```text
//! cargo run --release --example recovery_demo -- run --dir /tmp/rj --throttle-us 500 &
//! sleep 2; kill -9 $!
//! cargo run --release --example recovery_demo -- resume --dir /tmp/rj
//! ```
//!
//! The CI chaos-smoke step drives exactly this sequence.  After a `kill -9`
//! the journals hold per-client *prefixes* of the stream, so `resume`
//! verifies recovery fidelity (every journaled frame replayed, zero chain
//! mismatches), not the verdict: a truncated history may legitimately
//! violate linearizability when one client's surviving counter values
//! reflect another client's lost increments.
//!
//! See `docs/PROTOCOL.md` for the frame formats and the recovery argument.

use evlin::checker::monitor::{MonitorCondition, MonitorConfig};
use evlin::history::{ObjectId, ObjectUniverse, ProcessId};
use evlin::service::{
    ClientRecoveryConfig, ReconnectChaos, RecoverableClient, RecoverableService, RecoveryConfig,
    ServiceConfig,
};
use evlin::spec::{FetchIncrement, Value};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const OBJECTS: usize = 8;
const CLIENTS: usize = 2;
const SHARDS: usize = 2;

fn usage() -> ! {
    eprintln!(
        "usage: recovery_demo run --dir DIR [--ops N] [--throttle-us N]\n\
         \x20      recovery_demo resume --dir DIR"
    );
    exit(2);
}

fn universe() -> ObjectUniverse {
    let mut u = ObjectUniverse::new();
    for _ in 0..OBJECTS {
        u.add_object(FetchIncrement::new());
    }
    u
}

fn config(dir: &Path) -> RecoveryConfig {
    let mut config = RecoveryConfig::new(dir.to_path_buf(), CLIENTS);
    config.service = ServiceConfig {
        shards: SHARDS,
        monitor: MonitorConfig::for_condition(MonitorCondition::Linearizability),
        ..ServiceConfig::default()
    };
    config.heartbeat = Duration::from_millis(500);
    config
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("");
    let mut dir: Option<PathBuf> = None;
    let mut ops: usize = 2_000;
    let mut throttle_us: u64 = 0;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--dir" if i + 1 < args.len() => {
                dir = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--ops" if i + 1 < args.len() => {
                ops = args[i + 1].parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--throttle-us" if i + 1 < args.len() => {
                throttle_us = args[i + 1].parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            _ => usage(),
        }
    }
    let dir = dir.unwrap_or_else(|| usage());

    match mode {
        "run" => run(dir, ops, throttle_us),
        "resume" => resume(dir),
        _ => usage(),
    }
}

fn run(dir: PathBuf, ops: usize, throttle_us: u64) {
    // A session id is never reused for a different stream: `run` needs a
    // directory with no journals in it (`resume` is the call for those).
    if let Ok(entries) = std::fs::read_dir(&dir) {
        let stale = entries
            .flatten()
            .any(|e| e.path().extension().and_then(|x| x.to_str()) == Some("evjl"));
        if stale {
            eprintln!(
                "{} already holds session journals; run `resume --dir` or pick a fresh dir",
                dir.display()
            );
            exit(2);
        }
    }
    let u = universe();
    let (addr, service) = RecoverableService::bind(&u, config(&dir)).expect("bind service");
    println!(
        "recoverable service on {addr}: {OBJECTS} objects, {SHARDS} shards, journals in {}",
        dir.display()
    );

    // Linearizable ground truth: one atomic counter per object, fetch-added
    // under a real race; the shared sequence counter orders the stream.
    let seq = Arc::new(AtomicU64::new(0));
    let counters: Arc<Vec<AtomicI64>> = Arc::new((0..OBJECTS).map(|_| AtomicI64::new(0)).collect());
    let producers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let seq = Arc::clone(&seq);
            let counters = Arc::clone(&counters);
            std::thread::spawn(move || {
                let mut client = RecoverableClient::connect_tcp(
                    addr,
                    c as u32,
                    0xD301 + c as u64, // fixed nonzero session ids, one per slot
                    seq,
                    ClientRecoveryConfig {
                        frame_capacity: 32,
                        chaos: Some(ReconnectChaos {
                            seed: 0xC0FFEE ^ c as u64,
                            split_per_mille: 200,
                            kill_after_min: 8,
                            kill_after_span: 24,
                        }),
                        ..ClientRecoveryConfig::standard(c as u64)
                    },
                )
                .expect("connect to service");
                let process = ProcessId(c);
                for i in 0..ops {
                    let object = ObjectId((c + i) % OBJECTS);
                    client.invoke(process, object, FetchIncrement::fetch_inc());
                    let old = counters[object.0].fetch_add(1, Ordering::SeqCst);
                    client.respond(process, object, Value::Int(old));
                    if throttle_us > 0 {
                        std::thread::sleep(Duration::from_micros(throttle_us));
                    }
                }
                client.finish().expect("client retry budget held")
            })
        })
        .collect();

    // Crash the replica pool twice while the producers stream — once a
    // third and once two thirds of the events are recorded, by the count,
    // not by a timer the stream may outrun: the supervisor rebuilds the pool
    // from the journals both times.
    for third in 1..=2 {
        let recorded = (CLIENTS * ops * 2 * third / 3) as u64;
        while seq.load(Ordering::SeqCst) < recorded {
            std::thread::sleep(Duration::from_micros(100));
        }
        service.kill_and_restart().expect("pool restart");
    }

    let closed: Vec<_> = producers
        .into_iter()
        .map(|p| p.join().expect("producer thread"))
        .collect();
    let report = service.finish();
    let client_reports: Vec<_> = closed.into_iter().map(|c| c.collect_verdicts()).collect();

    let expected = (CLIENTS * ops * 2) as u64;
    println!(
        "verdict: {:?} — {} events checked (recorded {expected}), {} pool restarts, \
         {} frames replayed, {} chain mismatches",
        report.verdict,
        report.events(),
        report.restarts,
        report.replayed_frames,
        report.replay_chain_mismatches,
    );
    for (c, (stats, session)) in client_reports
        .iter()
        .map(|r| &r.stats)
        .zip(&report.sessions)
        .enumerate()
    {
        println!(
            "  client {c}: {} frames ({} retransmitted), {} reconnects, {} overload rejections; \
             server resumed {} times, deduped {} frames",
            stats.frames,
            stats.retransmitted_frames,
            stats.reconnects,
            session.overloaded_rejections,
            session.resumes,
            session.duplicate_frames,
        );
    }
    assert!(report.verdict.is_ok(), "demo history is linearizable");
    assert_eq!(report.events(), expected, "exactly-once violated");
    assert_eq!(report.replay_chain_mismatches, 0, "replay diverged");
    println!(
        "RECOVERED OK: exactly-once through chaos and {} restarts",
        report.restarts
    );
}

fn resume(dir: PathBuf) {
    let u = universe();
    let (_, service) = RecoverableService::bind(&u, config(&dir)).expect("bind over journals");
    let report = service.finish();
    println!(
        "recovered {} sessions from {}: {} frames / {} events replayed, \
         {} chain mismatches, verdict on the surviving prefix: {:?}",
        report.recovered_at_startup,
        dir.display(),
        report.replayed_frames,
        report.replayed_events,
        report.replay_chain_mismatches,
        report.verdict,
    );
    assert!(
        report.recovered_at_startup > 0,
        "no session journals found in {}",
        dir.display()
    );
    assert!(report.replayed_frames > 0, "nothing survived to replay");
    assert_eq!(report.replay_chain_mismatches, 0, "replay diverged");
    assert_eq!(
        report.events(),
        report.replayed_events,
        "replayed events must all reach the monitor"
    );
    println!(
        "RECOVERED OK: {} frames replayed bit-faithfully",
        report.replayed_frames
    );
}
