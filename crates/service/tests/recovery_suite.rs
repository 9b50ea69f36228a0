//! Integration tests for the crash-recoverable service: session resumption,
//! journaled replica replay, heartbeats, overload shedding and typed retry
//! exhaustion — every path exercised over real loopback TCP sockets.
//!
//! The organizing claim is *exactly-once despite everything*: connections
//! die mid-frame, replica pools are killed and rebuilt from journals, whole
//! processes "crash" (a new [`RecoverableService`] binds over the old
//! journal directory) — and the monitor still checks precisely the recorded
//! history, once, with a verdict equal to the offline kernel's.

use evlin_checker::monitor::{MonitorCondition, MonitorConfig};
use evlin_history::{EventKind, History, HistoryBuilder, ObjectUniverse, ProcessId};
use evlin_service::transport::{loopback_listener, tcp_connect, tcp_pair};
use evlin_service::wire::{decode_frame, encode_frame, event_batch_fingerprint};
use evlin_service::{
    ClientRecoveryConfig, FrameRx, FrameTx, ReconnectChaos, RecoverableClient, RecoverableService,
    RecoveryConfig, RecoveryReport, ResumeCursor, WireFrame, VERSION,
};
use evlin_spec::{FetchIncrement, Register, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

fn universe() -> ObjectUniverse {
    let mut u = ObjectUniverse::new();
    u.add_object(Register::new(Value::from(0i64)));
    u.add_object(FetchIncrement::new());
    u.add_object(Register::new(Value::from(0i64)));
    u.add_object(FetchIncrement::new());
    u
}

/// Random well-formed history — same generator shape as the service
/// differential, so verdict coverage includes both outcomes.
fn random_history(seed: u64, max_ops: usize) -> History {
    let mut rng = StdRng::seed_from_u64(seed);
    let objects = universe().object_ids();
    let processes = rng.gen_range(2..4usize);
    let total_ops = rng.gen_range(2..=max_ops);
    let mut plans: Vec<Vec<(evlin_history::ObjectId, evlin_spec::Invocation)>> =
        vec![Vec::new(); processes];
    for _ in 0..total_ops {
        let p = rng.gen_range(0..processes);
        let o = objects[rng.gen_range(0..objects.len())];
        let inv = if o.0 % 2 == 1 {
            FetchIncrement::fetch_inc()
        } else if rng.gen_bool(0.5) {
            Register::write(Value::from(rng.gen_range(1..4i64)))
        } else {
            Register::read()
        };
        plans[p].push((o, inv));
    }
    let mut b = HistoryBuilder::new();
    let mut next_op: Vec<usize> = vec![0; processes];
    let mut pending: Vec<Option<(evlin_history::ObjectId, evlin_spec::Invocation)>> =
        vec![None; processes];
    for _ in 0..total_ops * 8 {
        let p = rng.gen_range(0..processes);
        if let Some((o, inv)) = pending[p].clone() {
            if rng.gen_bool(0.7) {
                let response = if inv.method() == "write" {
                    Value::Unit
                } else {
                    Value::from(rng.gen_range(0..4i64))
                };
                b = b.respond(ProcessId(p), o, response);
                pending[p] = None;
            }
        } else if next_op[p] < plans[p].len() {
            let (o, inv) = plans[p][next_op[p]].clone();
            next_op[p] += 1;
            b = b.invoke(ProcessId(p), o, inv.clone());
            pending[p] = Some((o, inv));
        }
    }
    b.build()
}

fn linearizability_offline(h: &History, u: &ObjectUniverse) -> bool {
    evlin_checker::linearizability::is_linearizable(h, u)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "evjl-suite-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A recovery config tuned for fast tests: small frames, quick heartbeat.
fn test_config(journal_dir: PathBuf, slots: usize, shards: usize) -> RecoveryConfig {
    let mut config = RecoveryConfig::new(journal_dir, slots);
    config.service = evlin_service::ServiceConfig {
        shards,
        monitor: MonitorConfig::for_condition(MonitorCondition::Linearizability),
        capture_streams: true,
        ..evlin_service::ServiceConfig::default()
    };
    config.heartbeat = Duration::from_millis(100);
    config
}

/// Drives `history` through `clients` recoverable clients against `addr`,
/// calling `between(i)` after event `i` (the restart/crash injection hook).
/// Returns the closed clients — callers collect verdicts *after*
/// [`RecoverableService::finish`] hangs up the verdict plane.
fn drive(
    addr: std::net::SocketAddr,
    clients: usize,
    history: &History,
    client_config: impl Fn(u32) -> ClientRecoveryConfig,
    mut between: impl FnMut(usize),
) -> Vec<evlin_service::ClosedRecoverableClient> {
    let seq = Arc::new(AtomicU64::new(0));
    let mut handles: Vec<_> = (0..clients)
        .map(|c| {
            RecoverableClient::connect_tcp(
                addr,
                c as u32,
                0x5E55_0000 + c as u64 + 1,
                Arc::clone(&seq),
                client_config(c as u32),
            )
            .expect("initial connect")
        })
        .collect();
    for (i, event) in history.events().iter().enumerate() {
        let client = &mut handles[event.process.0 % clients];
        match &event.kind {
            EventKind::Invoke(inv) => client.invoke(event.process, event.object, inv.clone()),
            EventKind::Respond(v) => client.respond(event.process, event.object, v.clone()),
        }
        between(i);
    }
    handles
        .into_iter()
        .map(|c| c.finish().expect("client retry budget held"))
        .collect()
}

/// The exactness claim, shared by every test below: the service checked the
/// whole history exactly once, every replay re-folded to the journal's
/// chain, and the recomposed verdict equals the offline kernel's.
fn assert_exact(report: &RecoveryReport, history: &History, seed: u64) {
    assert_eq!(
        report.events(),
        history.len() as u64,
        "exactly-once violated (seed {seed}): {} events checked, {} recorded",
        report.events(),
        history.len()
    );
    assert_eq!(report.replay_chain_mismatches, 0, "replay diverged");
    let offline = linearizability_offline(history, &universe());
    assert_eq!(
        report.verdict.is_ok(),
        offline,
        "verdict diverged from offline (seed {seed})\n{history}"
    );
    // The same claim per shard, on the shard's accepted substream.
    let streams = report.accepted_streams.as_ref().expect("streams captured");
    for (shard, stream) in report.shards.iter().zip(streams) {
        let accepted = History::from_events(stream.clone());
        assert_eq!(
            shard.report.verdict.is_ok(),
            linearizability_offline(&accepted, &universe()),
            "shard {} diverged from offline (seed {seed})",
            shard.summary.shard
        );
    }
}

/// An event the wire cannot carry is refused before it is sequence-stamped
/// and counted with the recorder's own drops; the rest arrives exactly once.
#[test]
fn events_the_wire_cannot_carry_are_refused_not_truncated() {
    let dir = temp_dir("refused");
    let u = universe();
    let (addr, service) = RecoverableService::bind(&u, test_config(dir.clone(), 1, 1)).unwrap();
    let seq = Arc::new(AtomicU64::new(0));
    let config = ClientRecoveryConfig::standard(37);
    let mut client = RecoverableClient::connect_tcp(addr, 0, 1, seq, config).unwrap();
    let (p, x) = (ProcessId(0), evlin_history::ObjectId(1));
    client.invoke(p, x, FetchIncrement::fetch_inc());
    // At the parent's encoder this process id became process 0 on the wire.
    let far = ProcessId(u32::MAX as usize + 1);
    client.invoke(far, x, FetchIncrement::fetch_inc());
    client.respond(far, x, Value::from(0i64));
    client.respond(p, x, Value::from(0i64));
    // The recorder's own drop: a response with nothing pending.
    client.respond(p, x, Value::from(1i64));
    let closed = client.finish().unwrap();
    let report = service.finish();
    let client = closed.collect_verdicts();
    assert_eq!(client.stats.dropped_malformed, 3);
    assert_eq!(client.stats.events, 2);
    assert_eq!(report.events(), 2);
    assert!(report.verdict.is_ok(), "{:?}", report.verdict);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_run_is_exactly_once_with_durable_acks() {
    for seed in [3u64, 17, 40] {
        let h = random_history(seed, 12);
        let dir = temp_dir("clean");
        let u = universe();
        let clients = 2;
        let (addr, service) =
            RecoverableService::bind(&u, test_config(dir.clone(), clients, 2)).unwrap();
        let closed = drive(
            addr,
            clients,
            &h,
            |c| ClientRecoveryConfig {
                frame_capacity: 3,
                ..ClientRecoveryConfig::standard(seed ^ c as u64)
            },
            |_| {},
        );
        let report = service.finish();
        let reports: Vec<_> = closed.into_iter().map(|c| c.collect_verdicts()).collect();
        assert_exact(&report, &h, seed);
        assert_eq!(report.restarts, 0);
        assert_eq!(report.recovered_at_startup, 0);
        // Every staged frame was covered by a durability ack before the
        // client shut down, first try.  Acks are positions, one per commit
        // batch, so their number says nothing; what the replica accepted
        // does.
        for (client, session) in reports.iter().zip(&report.sessions) {
            assert_eq!(session.accepted_frames, client.stats.frames);
            assert!(session.commits <= session.accepted_frames);
            assert!(client.stats.acks >= 1, "the attach ack at least");
            assert_eq!(client.stats.reconnects, 0);
            assert_eq!(client.stats.retransmitted_frames, 0);
            assert_eq!(client.stats.protocol_errors, 0);
            assert_eq!(
                client.final_summaries().len(),
                report.shards.len(),
                "missing reliable finals"
            );
        }
        // Sessions saw no anomalies on a clean transport.
        for s in &report.sessions {
            assert_eq!(s.resume_rejections, 0);
            assert_eq!(s.corrupt_frames, 0);
            assert_eq!(s.shutdown_mismatches, 0);
            assert_eq!(s.shutdowns, 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn killed_pool_is_rebuilt_from_journals_mid_run() {
    for seed in [7u64, 23] {
        let h = random_history(seed, 14);
        let dir = temp_dir("restart");
        let u = universe();
        let clients = 2;
        let (addr, service) =
            RecoverableService::bind(&u, test_config(dir.clone(), clients, 2)).unwrap();
        // Kill the pool twice, a third and two-thirds of the way in.
        let kills = [h.len() / 3, 2 * h.len() / 3];
        let closed = drive(
            addr,
            clients,
            &h,
            |c| ClientRecoveryConfig {
                frame_capacity: 2,
                ..ClientRecoveryConfig::standard(seed ^ c as u64)
            },
            |i| {
                if kills.contains(&i) {
                    service.kill_and_restart().expect("restart");
                }
            },
        );
        let report = service.finish();
        let reports: Vec<_> = closed.into_iter().map(|c| c.collect_verdicts()).collect();
        assert!(report.restarts >= 2, "both kills must restart the pool");
        assert_exact(&report, &h, seed);
        for client in &reports {
            assert_eq!(client.stats.protocol_errors, 0);
            assert_eq!(client.final_summaries().len(), report.shards.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn process_crash_recovers_from_the_journal_directory_alone() {
    let seed = 11u64;
    let h = random_history(seed, 12);
    let dir = temp_dir("crash");
    let u = universe();
    let clients = 2;

    // First life: stream everything, finish the clients (acks make the
    // journals complete), then drop the service.
    let (addr, service) =
        RecoverableService::bind(&u, test_config(dir.clone(), clients, 2)).unwrap();
    let closed = drive(
        addr,
        clients,
        &h,
        |c| ClientRecoveryConfig {
            frame_capacity: 3,
            ..ClientRecoveryConfig::standard(seed ^ c as u64)
        },
        |_| {},
    );
    let first = service.finish();
    drop(closed);
    assert_exact(&first, &h, seed);

    // Second life: a fresh bind over the same directory must rebuild the
    // full monitor state from disk alone — no clients connect at all.
    let (_, reborn) = RecoverableService::bind(&u, test_config(dir.clone(), clients, 2)).unwrap();
    let report = reborn.finish();
    assert_eq!(report.recovered_at_startup, clients);
    assert!(report.replayed_frames > 0, "startup replay must run");
    assert_exact(&report, &h, seed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connection_chaos_never_loses_or_duplicates_events() {
    for seed in [5u64, 29] {
        let h = random_history(seed, 14);
        let dir = temp_dir("chaos");
        let u = universe();
        let clients = 2;
        let (addr, service) =
            RecoverableService::bind(&u, test_config(dir.clone(), clients, 2)).unwrap();
        let closed = drive(
            addr,
            clients,
            &h,
            |c| ClientRecoveryConfig {
                frame_capacity: 1,
                chaos: Some(ReconnectChaos {
                    seed: seed ^ c as u64,
                    split_per_mille: 300,
                    kill_after_min: 2,
                    kill_after_span: 3,
                }),
                ..ClientRecoveryConfig::standard(seed ^ c as u64)
            },
            |_| {},
        );
        let report = service.finish();
        let reports: Vec<_> = closed.into_iter().map(|c| c.collect_verdicts()).collect();
        assert_exact(&report, &h, seed);
        let reconnects: u64 = reports.iter().map(|r| r.stats.reconnects).sum();
        assert!(reconnects > 0, "chaos must actually kill connections");
        let resumes: u64 = report.sessions.iter().map(|s| s.resumes).sum();
        assert!(resumes > 0, "reconnects must resume the session");
        for s in &report.sessions {
            assert_eq!(s.resume_rejections, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn overload_shedding_is_typed_and_lossless() {
    let seed = 13u64;
    let h = random_history(seed, 16);
    let dir = temp_dir("overload");
    let u = universe();
    // A tiny backlog bound forces the handler down the shedding path; the
    // client honors `retry_after` and retransmits, so nothing is lost.
    let mut config = test_config(dir.clone(), 1, 2);
    config.overload_backlog = 1;
    let (addr, service) = RecoverableService::bind(&u, config).unwrap();
    let closed = drive(
        addr,
        1,
        &h,
        |c| ClientRecoveryConfig {
            frame_capacity: 1,
            ..ClientRecoveryConfig::standard(seed ^ c as u64)
        },
        |_| {},
    );
    let report = service.finish();
    let reports: Vec<_> = closed.into_iter().map(|c| c.collect_verdicts()).collect();
    assert_exact(&report, &h, seed);
    assert_eq!(reports[0].stats.protocol_errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_endpoint_exhausts_the_retry_budget_typed() {
    // An address nothing listens on: bind, learn the port, drop.
    let addr = {
        let l = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        l.local_addr().unwrap()
    };
    let mut config = ClientRecoveryConfig::standard(1);
    config.backoff =
        evlin_service::Backoff::new(1, Duration::from_millis(1), Duration::from_millis(4), 3);
    let seq = Arc::new(AtomicU64::new(0));
    let err = RecoverableClient::connect_tcp(addr, 0, 1, seq, config)
        .err()
        .expect("no listener: the budget must exhaust");
    assert_eq!(err.attempts, 3);
}

#[test]
fn resumed_session_survives_a_server_side_idle_timeout() {
    // A client that pauses longer than the heartbeat gets its *connection*
    // reaped, not its session: the next event reconnects and resumes.
    let dir = temp_dir("idle");
    let u = universe();
    let mut config = test_config(dir.clone(), 1, 1);
    config.heartbeat = Duration::from_millis(30);
    let (addr, service) = RecoverableService::bind(&u, config).unwrap();
    let seq = Arc::new(AtomicU64::new(0));
    let mut client = RecoverableClient::connect_tcp(
        addr,
        0,
        0xA11CE,
        seq,
        ClientRecoveryConfig {
            frame_capacity: 1,
            ..ClientRecoveryConfig::standard(3)
        },
    )
    .unwrap();
    let object = u.object_ids()[1];
    client.invoke(ProcessId(0), object, FetchIncrement::fetch_inc());
    client.respond(ProcessId(0), object, Value::from(0i64));
    client.flush();
    std::thread::sleep(Duration::from_millis(200));
    client.invoke(ProcessId(0), object, FetchIncrement::fetch_inc());
    client.respond(ProcessId(0), object, Value::from(1i64));
    let closed = client.finish().expect("session survives the idle reap");
    let report = service.finish();
    assert_eq!(report.events(), 4);
    assert!(report.verdict.is_ok());
    let _ = closed.collect_verdicts();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A session that has finished must not hold its peers back: its rings close
/// with its shutdown, so the merges advance past it while another client is
/// still streaming.  (Left open until service shutdown, slot 0's empty rings
/// stall every shard's merge, client 1's rings fill after `ring_frames`
/// frames and everything after is shed `OVERLOADED` for ever.)
#[test]
fn finished_session_does_not_wedge_a_streaming_peer() {
    let dir = temp_dir("wedge");
    let u = universe();
    let mut config = test_config(dir.clone(), 2, 2);
    config.service.ring_frames = 2;
    config.overload_backlog = 8;
    let (addr, service) = RecoverableService::bind(&u, config).unwrap();
    let seq = Arc::new(AtomicU64::new(0));
    let object = u.object_ids()[1];
    let connect = |c: u32, seq: Arc<AtomicU64>| {
        RecoverableClient::connect_tcp(
            addr,
            c,
            0xD0E0 + c as u64,
            seq,
            ClientRecoveryConfig {
                frame_capacity: 2,
                ..ClientRecoveryConfig::standard(c as u64)
            },
        )
        .expect("initial connect")
    };
    // Client 0 records one operation and finishes at once.
    let mut first = connect(0, Arc::clone(&seq));
    first.invoke(ProcessId(0), object, FetchIncrement::fetch_inc());
    first.respond(ProcessId(0), object, Value::from(0i64));
    let first = first.finish().expect("client 0 finishes");
    // Client 1 then streams 60 one-operation frames, on its own thread so a
    // wedge fails the test instead of hanging it.
    let frames = 60i64;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let mut second = connect(1, Arc::clone(&seq));
    std::thread::spawn(move || {
        for i in 0..frames {
            second.invoke(ProcessId(1), object, FetchIncrement::fetch_inc());
            second.respond(ProcessId(1), object, Value::from(i + 1));
        }
        let _ = done_tx.send(second.finish());
    });
    let second = done_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("a finished session wedged its streaming peer")
        .expect("client 1 finishes inside its retry budget");
    // Every session has finished, so the pool has drained by itself; give
    // the watchdog a few ticks to (wrongly) call that a crash.
    std::thread::sleep(Duration::from_millis(200));
    let report = service.finish();
    assert!(report.verdict.is_ok(), "{:?}", report.verdict);
    assert_eq!(report.events(), 2 * (frames as u64 + 1));
    assert_eq!(report.restarts, 0, "a drained pool is not a crashed pool");
    assert_eq!(report.replayed_frames, 0);
    assert_eq!(report.replay_chain_mismatches, 0);
    for s in &report.sessions {
        assert_eq!(s.shutdowns, 1);
        assert_eq!(s.protocol_errors, 0);
    }
    assert_eq!(report.sessions[1].accepted_frames, frames as u64);
    for closed in [first, second] {
        let client = closed.collect_verdicts();
        assert_eq!(client.stats.protocol_errors, 0);
        assert_eq!(
            client.final_summaries().len(),
            report.shards.len(),
            "each shard's final exactly once"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The harshest kill plan a connection can carry and still make progress:
/// hello, one whole frame, and the next send dies mid-frame.  Resuming from
/// the attach ack means every such connection moves the journal forward,
/// whatever the timing: no sleep here, and none needed.  (Resuming from the
/// last ack the client happened to have *read*, it only got anywhere when a
/// timer gave an ack the time to arrive.)
#[test]
fn resume_makes_progress_under_the_harshest_kill_plan() {
    let dir = temp_dir("harsh");
    let u = universe();
    let (addr, service) = RecoverableService::bind(&u, test_config(dir.clone(), 1, 1)).unwrap();
    let object = u.object_ids()[1];
    let ops = 24i64;
    // On its own thread, so that a resume that stopped making progress
    // fails the test instead of hanging it.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut client = RecoverableClient::connect_tcp(
            addr,
            0,
            0xBAD_1DEA,
            Arc::new(AtomicU64::new(0)),
            ClientRecoveryConfig {
                frame_capacity: 1,
                chaos: Some(ReconnectChaos {
                    seed: 7,
                    split_per_mille: 0,
                    kill_after_min: 2,
                    kill_after_span: 1,
                }),
                ..ClientRecoveryConfig::standard(7)
            },
        )
        .expect("initial connect");
        for i in 0..ops {
            client.invoke(ProcessId(0), object, FetchIncrement::fetch_inc());
            client.respond(ProcessId(0), object, Value::from(i));
        }
        let _ = done_tx.send(client.finish());
    });
    let closed = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the resume stopped making progress")
        .expect("every connection acks, so the retry budget never runs out");
    let report = service.finish();
    let client = closed.collect_verdicts();
    let frames = 2 * ops as u64;
    assert_eq!(client.stats.frames, frames);
    assert!(report.verdict.is_ok(), "{:?}", report.verdict);
    assert_eq!(report.events(), frames, "exactly once");
    assert_eq!(report.sessions[0].accepted_frames, frames);
    assert_eq!(report.sessions[0].resume_rejections, 0);
    // A connection carries one new frame — or a duplicate of the previous
    // connection's, when that one was still in flight at the attach.
    let reconnects = client.stats.reconnects;
    assert!(reconnects >= frames - 1, "every second send is a kill");
    assert!(
        reconnects <= 4 * frames,
        "{reconnects} reconnects for {frames} frames"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One fetch&increment operation per frame, `frames` of them, as the bytes a
/// client would send after its hello.
fn one_op_frames(client: u32, object: evlin_history::ObjectId, frames: u64) -> Vec<Vec<u8>> {
    (0..frames)
        .map(|i| {
            let events = vec![
                (
                    2 * i,
                    evlin_history::Event::invoke(ProcessId(0), object, FetchIncrement::fetch_inc()),
                ),
                (
                    2 * i + 1,
                    evlin_history::Event::respond(ProcessId(0), object, Value::from(i as i64)),
                ),
            ];
            let fingerprint = event_batch_fingerprint(client, &events);
            encode_frame(&WireFrame::Events {
                client,
                frame_seq: i,
                events,
                fingerprint,
            })
        })
        .collect()
}

fn hello(client: u32, session: u64) -> Vec<u8> {
    encode_frame(&WireFrame::Hello {
        client,
        version: VERSION,
        session,
        resume: None,
    })
}

/// Frames that reach the handler together are committed together: one
/// fsync, one ack — and a restart snapshot reads back the whole batch.
#[test]
fn frames_pipelined_in_one_segment_are_committed_as_one_batch() {
    let dir = temp_dir("batch");
    let u = universe();
    let (addr, service) = RecoverableService::bind(&u, test_config(dir.clone(), 1, 1)).unwrap();
    let frames = 8u64;
    let (mut tx, mut rx) = tcp_connect(addr).unwrap();
    // Hello and eight small frames in one write: one segment, one read.
    let mut bytes = hello(0, 0xB47C);
    bytes.extend(one_op_frames(0, u.object_ids()[1], frames).concat());
    tx.send(bytes).unwrap();
    let mut acks = 0u64;
    loop {
        let frame = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("the replica acks")
            .expect("the connection stays up");
        if let WireFrame::Ack { cursor, .. } = decode_frame(&frame).unwrap() {
            acks += 1;
            if cursor.frames == frames {
                assert_eq!(cursor.events, 2 * frames);
                break;
            }
        }
    }
    assert!(acks < frames, "{acks} acks for {frames} frames");
    // A pool restart replays what `read_back` returns under the slot lock:
    // all of the batch, re-folding to the journal's chain.
    service.kill_and_restart().expect("restart");
    drop((tx, rx));
    let report = service.finish();
    assert_eq!(report.sessions[0].accepted_frames, frames);
    assert!(report.sessions[0].commits < frames);
    assert_eq!(report.replayed_frames, frames);
    assert_eq!(report.replay_chain_mismatches, 0);
    assert_eq!(report.events(), 2 * frames);
    assert!(report.verdict.is_ok(), "{:?}", report.verdict);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reconnects must not pin memory until `finish()`: the acceptor reaps the
/// handlers that have returned.  A thousand connections come and go on one
/// slot, then the session streams as if nothing had happened.
#[test]
fn a_thousand_hang_ups_leave_the_slot_serviceable() {
    let dir = temp_dir("reap");
    let u = universe();
    let (addr, service) = RecoverableService::bind(&u, test_config(dir.clone(), 1, 1)).unwrap();
    let session = 0x4EA9;
    let cycles = 1_000u64;
    for _ in 0..cycles {
        let (mut tx, mut rx) = tcp_connect(addr).unwrap();
        tx.send(hello(0, session)).unwrap();
        // The attach ack: this hello has been counted.  Then hang up.
        let ack = rx.recv().unwrap().expect("attach ack");
        assert!(matches!(decode_frame(&ack), Ok(WireFrame::Ack { .. })));
    }
    let mut client = RecoverableClient::connect_tcp(
        addr,
        0,
        session,
        Arc::new(AtomicU64::new(0)),
        ClientRecoveryConfig::standard(1),
    )
    .expect("the slot still attaches");
    let object = u.object_ids()[1];
    for i in 0..100i64 {
        client.invoke(ProcessId(0), object, FetchIncrement::fetch_inc());
        client.respond(ProcessId(0), object, Value::from(i));
    }
    let closed = client.finish().expect("clean session");
    let report = service.finish();
    // Under load the client may take an ack for late and reconnect, which
    // is a connection the acceptor rightly counts: every hello counted,
    // none twice.
    let reconnects = closed.collect_verdicts().stats.reconnects;
    assert_eq!(report.sessions[0].connections, cycles + 1 + reconnects);
    assert_eq!(report.events(), 200);
    assert!(report.verdict.is_ok(), "{:?}", report.verdict);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A frame naming an object outside the universe is journaled and acked
/// like any other, so every replay delivers it again.  The monitor rejects
/// its events instead of dying on them: an explicit restart replays it once,
/// no watchdog restart follows, and a well-behaved peer's verdict is Ok.
#[test]
fn a_frame_naming_an_unknown_object_is_rejected_on_every_replay() {
    let dir = temp_dir("unknown-object");
    let u = universe();
    let (addr, service) = RecoverableService::bind(&u, test_config(dir.clone(), 2, 1)).unwrap();
    let (mut tx, mut rx) = tcp_connect(addr).unwrap();
    let mut bytes = hello(1, 0x0B1E);
    bytes.extend(one_op_frames(1, evlin_history::ObjectId(u.len()), 1).concat());
    tx.send(bytes).unwrap();
    // Journaled once the ack that covers the frame arrives.
    loop {
        let frame = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("the replica acks")
            .expect("the connection stays up");
        if matches!(decode_frame(&frame), Ok(WireFrame::Ack { cursor, .. }) if cursor.frames == 1) {
            break;
        }
    }
    drop((tx, rx));
    // The raw peer's events took sequence numbers 0 and 1.
    let mut client = RecoverableClient::connect_tcp(
        addr,
        0,
        0x600D,
        Arc::new(AtomicU64::new(2)),
        ClientRecoveryConfig {
            frame_capacity: 2,
            ..ClientRecoveryConfig::standard(5)
        },
    )
    .expect("initial connect");
    let object = u.object_ids()[1];
    let ops = 8i64;
    for i in 0..ops {
        if i == ops / 2 {
            service.kill_and_restart().expect("restart");
        }
        client.invoke(ProcessId(1), object, FetchIncrement::fetch_inc());
        client.respond(ProcessId(1), object, Value::from(i));
    }
    let closed = client.finish().expect("clean session");
    let report = service.finish();
    assert_eq!(report.restarts, 1, "only the explicit restart");
    assert_eq!(report.shards[0].rejected_events, 2);
    assert!(report.replayed_frames >= 1 && report.replayed_events >= 2);
    assert_eq!(report.replay_chain_mismatches, 0);
    assert_eq!(report.events(), 2 * ops as u64);
    assert!(report.verdict.is_ok(), "{:?}", report.verdict);
    let client = closed.collect_verdicts();
    let finals = client.final_summaries();
    assert_eq!(finals.len(), 1);
    assert!(finals[0].verdict.is_ok(), "{:?}", finals[0].verdict);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The recoverable service is the one door a foreign peer can reach.  A
/// hello in a protocol version it does not speak orphans the connection
/// before any session exists: no journal is created, no slot counts the
/// connection, and the events frame behind the hello reaches no monitor.
#[test]
fn a_hello_in_a_foreign_version_orphans_the_connection() {
    let dir = temp_dir("foreign-version");
    let u = universe();
    let (addr, service) = RecoverableService::bind(&u, test_config(dir.clone(), 1, 1)).unwrap();
    let (mut tx, mut rx) = tcp_connect(addr).unwrap();
    let mut bytes = hello(0, 0xF0E1);
    // The version field sits after the length prefix, tag and magic.
    bytes[9..11].copy_from_slice(&99u16.to_le_bytes());
    bytes.extend(one_op_frames(0, u.object_ids()[1], 1).concat());
    tx.send(bytes).unwrap();
    // The replica hangs up without a word: a clean close, or a reset when
    // the events frame was still unread.
    assert!(!matches!(rx.recv(), Ok(Some(_))), "the replica replied");
    let report = service.finish();
    assert_eq!(report.orphan_connections, 1);
    assert_eq!(report.sessions[0].connections, 0);
    assert_eq!(report.events(), 0);
    let journals = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|entry| {
            let path = entry.as_ref().unwrap().path();
            path.extension().is_some_and(|ext| ext == "evjl")
        })
        .count();
    assert_eq!(journals, 0, "a refused hello opened a journal");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The frame that answers a ping is dispatched like any other.  A scripted
/// replica attaches the client, stays silent past the client's ack timeout,
/// and answers its ping with the ack that covers the window (later pings get
/// a pong).  That ack prunes the window, so the client closes its stream on
/// the one connection, having counted every ack the replica sent.
#[test]
fn the_ack_that_answers_a_ping_prunes_the_window() {
    let listener = loopback_listener().unwrap();
    let addr = listener.local_addr().unwrap();
    let replica = std::thread::spawn(move || {
        let mut acks_sent = 0u64;
        let mut held = ResumeCursor::default();
        for stream in listener.incoming() {
            let (mut tx, mut rx) = tcp_pair(stream.unwrap()).unwrap();
            let mut ack = |tx: &mut dyn FrameTx, cursor| {
                acks_sent += 1;
                let frame = WireFrame::Ack {
                    client: 0,
                    session: 0x9196,
                    cursor,
                };
                tx.send(encode_frame(&frame)).unwrap();
            };
            let mut pinged = false;
            // Until the client hangs up; then serve its next connection.
            while let Some(bytes) = rx.recv_timeout(Duration::from_secs(20)).unwrap() {
                match decode_frame(&bytes).unwrap() {
                    WireFrame::Hello { .. } => ack(&mut tx, held),
                    WireFrame::Events { events, .. } => {
                        held.frames += 1;
                        held.events += events.len() as u64;
                    }
                    WireFrame::Ping { .. } if !pinged => {
                        pinged = true;
                        ack(&mut tx, held);
                    }
                    WireFrame::Ping { token } => {
                        tx.send(encode_frame(&WireFrame::Pong { token })).unwrap();
                    }
                    WireFrame::Shutdown { .. } => return acks_sent,
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        unreachable!("the listener never closes")
    });
    let mut client = RecoverableClient::connect_tcp(
        addr,
        0,
        0x9196,
        Arc::new(AtomicU64::new(0)),
        ClientRecoveryConfig::standard(11),
    )
    .expect("the scripted replica attaches");
    let object = universe().object_ids()[1];
    client.invoke(ProcessId(0), object, FetchIncrement::fetch_inc());
    client.respond(ProcessId(0), object, Value::from(0i64));
    let closed = client.finish().expect("the window empties");
    let acks_sent = replica.join().unwrap();
    let stats = closed.collect_verdicts().stats;
    assert_eq!((stats.frames, stats.events), (1, 2));
    assert_eq!(stats.acks, acks_sent, "an ack went unread");
    assert_eq!(stats.reconnects, 0, "the client reconnected for nothing");
}
