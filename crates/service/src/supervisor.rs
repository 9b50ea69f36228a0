//! Crash-recoverable monitoring service: the drivers of the session
//! machines, journaled replica replay, heartbeats and backoff.
//!
//! [`crate::replica::MonitorService`] assumes every connection lives for the
//! whole run and every replica thread survives it.  This module drops both
//! assumptions.  The protocol that does it — attach, group commit, ack,
//! shed, ping, reconnect, shutdown — is two machines in [`crate::session`]
//! that do no I/O; this module is what touches the world, one driver loop
//! per side:
//!
//! * **The replica handler** receives a frame (waiting `heartbeat` at
//!   most), takes every whole frame already buffered behind it, and under
//!   the slot lock feeds them to the slot's `session::ReplicaSession` with a
//!   drain that carries the rings' probed backlog; it does what the machine
//!   asks of the journal and the rings, then sends the acks.
//! * **The client sink** connects when its `session::ClientSession` is
//!   idle, polls the ack plane with a receive that cannot wait
//!   ([`FrameRx::try_recv`]), and blocks, until the machine's timer, only
//!   while the window is full.
//! * **Replica restarts.**  A supervisor watchdog detects dead shard
//!   threads (and [`RecoverableService::kill_and_restart`] simulates the
//!   crash deliberately): the dying pool's verdict broadcasts are
//!   suppressed, every journal is replayed through a *fresh* staged
//!   pipeline, and because the k-way merge re-sorts by global sequence, the
//!   rebuilt monitor state is bit-identical to what an uninterrupted run
//!   would hold.  One walk per journal validates each record (its batch
//!   fingerprint and chain link), decodes it and routes its events; a
//!   replay that does not fold to the session's durable cursor is counted
//!   as a chain mismatch.
//! * **Process restarts.**  [`RecoverableService::bind`] reads the journal
//!   headers, spawns the pool, and walks each journal into it on its own
//!   replay thread; it starts accepting connections once every journal is
//!   validated, its torn tail cut and its session reopened.
//! * **Graceful degradation.**  A handler probes its rings with a
//!   non-blocking flush before each batch; past `overload_backlog` the
//!   machine sheds with a typed `OVERLOADED` (a shed frame was never acked,
//!   so the client's window replays it).  Mid-run verdict rounds are shed on
//!   saturated links as before; finals stay reliable via reserved seats.
//!
//! # Liveness
//!
//! The merge advances past a slot's ring only once that slot has produced
//! (or the ring closed), so mid-run checking proceeds at the pace of the
//! slowest *configured* slot — the same contract as the plain service, now
//! including slots whose client is between connections.  Everything the
//! handler does under a slot lock is non-blocking by construction
//! (`push_buffered` + `try_flush`; the journal's append and fsync wait for
//! the disk, not for a peer), so a stalled merge can delay verdicts but can
//! never deadlock ingestion, restarts or shutdown.  A replay walks its
//! journal into the rings the same way, so `bind` never waits on a merge
//! (one may wait on a slot whose client has not attached yet); a journaled
//! slot's frames are shed `OVERLOADED` until its replay has routed
//! everything.  Client-side, a
//! connection that carries its hello and one whole frame advances the
//! journal by at least one frame whatever the link's timing, because the
//! replay starts at the cursor the replica just reported.

use crate::client::{drain_verdicts, final_summaries, FrameSealer, WireRecorder};
use crate::journal::{journal_file_name, replay_records, Journal, JournalError, Opened};
use crate::pool::{route_buffered, Fanout, ReplicaPool};
use crate::replica::{ServiceConfig, ShardReport};
use crate::session::{
    Backoff, ClientSession, Input, Output, ReplicaSession, RetriesExhausted, SessionError,
};
use crate::transport::{tcp_connect, tcp_pair, ChaosPlan, FrameRx, FrameTx, TcpRx, TcpTx};
use crate::wire::{decode_frame, encode_frame, VerdictSummary, WireError, WireFrame};
use evlin_checker::monitor::{MonitorVerdict, ShardRouter};
use evlin_history::{Event, ObjectId, ObjectUniverse, ProcessId};
use evlin_runtime::channel::sharded::FrameSender;
use evlin_runtime::fault::xorshift64;
use evlin_runtime::EventSink;
use evlin_spec::{Invocation, Value};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Tuning knobs for a crash-recoverable service run.  The retransmission
/// delay `OVERLOADED` rejections suggest is fixed at 5 ms.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// The underlying pool configuration (shards, monitor, ring sizes).
    /// `fault` and `conn_frames` are duplex-transport knobs and are ignored
    /// here — the recoverable service is TCP-only.
    pub service: ServiceConfig,
    /// Where session journals live.  Created if absent; scanned on
    /// [`RecoverableService::bind`], which is the process-crash recovery
    /// path: every journal found is validated and its session reopened
    /// before new traffic is taken, and replayed into the pool.
    pub journal_dir: PathBuf,
    /// Producer slots (= the maximum client id + 1).  Fixed up front because
    /// the sequence-ordered merge cannot grow its producer set mid-run.
    pub slots: usize,
    /// Read deadline on every server-side receive.  A connection silent for
    /// this long is closed (the *session* survives); it also bounds how long
    /// shutdown can wait on a handler.
    pub heartbeat: Duration,
    /// Events a slot may hold in not-yet-shipped ring buffers before its
    /// handler sheds incoming frames, and the most events one commit batch
    /// gathers (a lone frame may be larger).  Bounds per-connection memory:
    /// ingest can never grow past `overload_backlog` + one batch per slot.
    pub overload_backlog: usize,
}

impl RecoveryConfig {
    /// A config with sane defaults for everything but the journal directory
    /// and slot count.
    pub fn new(journal_dir: PathBuf, slots: usize) -> RecoveryConfig {
        RecoveryConfig {
            service: ServiceConfig::default(),
            journal_dir,
            slots,
            heartbeat: Duration::from_secs(1),
            overload_backlog: 4096,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-session statistics and the final report
// ---------------------------------------------------------------------------

/// Counters for one slot's session, accumulated across every connection
/// that served it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Connections that reached the hello exchange for this slot.
    pub connections: u64,
    /// Hellos that resumed durable history (claimed frames > 0).
    pub resumes: u64,
    /// Hellos refused: cursor mismatch, client mismatch, or a session id
    /// disagreeing with the slot's open journal.
    pub resume_rejections: u64,
    /// Frames accepted (journaled, fsynced, delivered, acked).
    pub accepted_frames: u64,
    /// Commit batches that accepted at least one frame — one journal fsync
    /// each, so `accepted_frames ÷ commits` is the mean frames per fsync.
    pub commits: u64,
    /// Events inside accepted frames.
    pub accepted_events: u64,
    /// Window replays of already-durable frames (dropped, re-acked).
    pub duplicate_frames: u64,
    /// Frames ahead of the durable cursor (dropped, cursor re-acked so the
    /// client rewinds).
    pub gap_frames: u64,
    /// Frames shed with a typed `OVERLOADED` rejection.
    pub overloaded_rejections: u64,
    /// Frames the codec (or the transport mid-frame) rejected.
    pub corrupt_frames: u64,
    /// Structurally valid frames that were illegal here.
    pub protocol_errors: u64,
    /// Connections closed by the server-side read deadline.
    pub idle_timeouts: u64,
    /// Shutdown frames whose totals matched the durable cursor.
    pub shutdowns: u64,
    /// Shutdown frames whose totals disagreed with the durable cursor.
    pub shutdown_mismatches: u64,
    /// Journal I/O failures (the connection is dropped; the session and its
    /// durable prefix survive).
    pub journal_failures: u64,
}

/// What one recoverable service run produced.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The recomposed verdict over all shards of the *final* pool.
    pub verdict: MonitorVerdict,
    /// Per-shard reports from the final pool (earlier pools died with their
    /// crashes; their journals were replayed into this one).
    pub shards: Vec<ShardReport>,
    /// Per-slot session counters.
    pub sessions: Vec<SessionStats>,
    /// Pool restarts performed (watchdog-triggered plus explicit
    /// [`RecoverableService::kill_and_restart`] calls).
    pub restarts: u64,
    /// Sessions reopened from on-disk journals at bind time.
    pub recovered_at_startup: usize,
    /// Journal frames replayed through fresh pools (bind-time recovery and
    /// restarts; superseded replays count too).
    pub replayed_frames: u64,
    /// Events inside those frames.
    pub replayed_events: u64,
    /// Restart replays that did not fold to the session's durable cursor (a
    /// record below it failed validation) — 0 means every rebuild was
    /// bit-faithful.
    pub replay_chain_mismatches: u64,
    /// Mid-run verdict rounds dropped on saturated client links.
    pub verdicts_dropped: u64,
    /// Connections dropped before a valid hello (bad version, zero session,
    /// out-of-range client, codec garbage).
    pub orphan_connections: u64,
    /// Each shard's accepted event stream, when
    /// [`ServiceConfig::capture_streams`] was set — what the chaos
    /// differential pins against the offline kernel.
    pub accepted_streams: Option<Vec<Vec<Event>>>,
}

impl RecoveryReport {
    /// Total events checked across all shards of the final pool.
    pub fn events(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.report.stats.events as u64)
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Shared service state
// ---------------------------------------------------------------------------

struct SlotState {
    /// The slot's session machine: what the journal holds, as cursors.
    session: ReplicaSession,
    /// The slot's journal, once a client created (or bind recovered) it.
    journal: Option<Journal>,
    /// The slot's per-shard senders into the *current* pool.  `None` while a
    /// restart replay owns them — handlers shed with `OVERLOADED` meanwhile
    /// — and for good once the session has finished: dropping a sender
    /// closes its ring, which is what lets that shard's merge advance past
    /// a slot that will never produce again.
    senders: Option<Vec<FrameSender<Event>>>,
    /// Bumped by every restart; a finishing replay installs its senders only
    /// if its epoch still matches.
    epoch: u64,
}

impl SlotState {
    /// Hands the slot its senders into the current pool — unless the session
    /// has finished, in which case they drop here and their rings close.
    fn install(&mut self, senders: Vec<FrameSender<Event>>) {
        if !self.session.finished() {
            self.senders = Some(senders);
        }
    }

    /// Ships what the rings will take of a finished slot's buffered tail,
    /// without blocking, and drops every sender that emptied.  Returns
    /// whether the slot still holds senders.
    fn release(&mut self) -> bool {
        if let Some(senders) = &mut self.senders {
            senders.retain_mut(|sender| !sender.try_flush());
            if senders.is_empty() {
                self.senders = None;
            }
        }
        self.senders.is_some()
    }

    /// Drops the slot's senders without touching a possibly stalled ring:
    /// what they buffered is journaled, so discarding it loses nothing.
    fn discard(&mut self) {
        if let Some(mut senders) = self.senders.take() {
            senders.iter_mut().for_each(FrameSender::discard_buffered);
        }
    }

    /// Ships what the rings will take right now, never blocking; returns the
    /// events still buffered behind full rings (`None`: a restart replay
    /// owns them).
    fn backlog(&mut self) -> Option<usize> {
        self.senders.as_mut().map(|senders| try_flush_all(senders))
    }

    /// Runs `input` through the session machine and does what it asks of the
    /// journal and the rings, answering each sync; frames to send queue in
    /// `sends`.  Returns whether the machine closed the connection.  A
    /// failed append or sync drops what the machine asked after it.
    fn feed(&mut self, shared: &Shared, input: Input, sends: &mut Vec<WireFrame>) -> bool {
        let (mut next, mut close, mut out) = (Some(input), false, Vec::new());
        while let Some(input) = next.take() {
            // After a sync the buffer is still drained: the machine goes on
            // with the backlog that batch's deliveries left.
            let resume = matches!(input, Input::Synced);
            self.session.on(input, &mut out);
            for output in out.drain(..) {
                let journal = &mut self.journal;
                let ok = match output {
                    Output::Append {
                        bytes,
                        events,
                        fingerprint,
                    } => journal
                        .as_mut()
                        .is_some_and(|j| j.append_unsynced(&bytes, events, fingerprint).is_ok()),
                    Output::AppendShutdown { events, chain } => journal
                        .as_mut()
                        .is_some_and(|j| j.append_shutdown(events, chain).is_ok()),
                    Output::Sync => {
                        next = Some(Input::Synced);
                        match journal {
                            Some(journal) => journal.sync().is_ok(),
                            None => {
                                let (client, session) =
                                    (self.session.client(), self.session.session());
                                let name = journal_file_name(client, session);
                                let path = shared.config.journal_dir.join(name);
                                Journal::create(&path, client, session)
                                    .map(|created| *journal = Some(created))
                                    .is_ok()
                            }
                        }
                    }
                    Output::Deliver(events) => {
                        if let Some(senders) = &mut self.senders {
                            route_buffered(shared.router, senders, events);
                            try_flush_all(senders);
                        }
                        true
                    }
                    Output::Send(frame) => {
                        sends.push(frame);
                        true
                    }
                    Output::Close => {
                        close = true;
                        true
                    }
                    Output::SendWindow(_) | Output::Arm(_) => true,
                };
                if !ok {
                    next = Some(Input::SyncFailed);
                    break;
                }
            }
            if resume && next.is_none() {
                next = Some(Input::Drained(self.backlog()));
            }
        }
        close
    }
}

/// Ships whatever the rings will take right now, never blocking; returns the
/// events still buffered behind full rings.
fn try_flush_all(senders: &mut [FrameSender<Event>]) -> usize {
    senders
        .iter_mut()
        .map(|sender| {
            sender.try_flush();
            sender.buffered_len()
        })
        .sum()
}

struct Ctl {
    pool: Option<ReplicaPool>,
    replays: Vec<JoinHandle<()>>,
    restarts: u64,
    recovered_at_startup: usize,
}

struct Shared {
    config: RecoveryConfig,
    universe: ObjectUniverse,
    router: ShardRouter,
    fanout: Arc<Fanout>,
    slots: Vec<Mutex<SlotState>>,
    shutting_down: AtomicBool,
    ctl: Mutex<Ctl>,
    orphan_errors: AtomicU64,
    /// Journal frames (and the events inside them) replayed through fresh
    /// pools, and replays that did not fold to their journal's cursor.
    replayed_frames: AtomicU64,
    replayed_events: AtomicU64,
    chain_mismatches: AtomicU64,
}

/// Where a replay reads one slot's journal from.
enum Source {
    /// Startup: a journal whose header alone has been read.  The replay
    /// recovers it, reopens the slot's session from its cursors, and reports
    /// to `bind` on the sender.
    Startup(Opened, Sender<Result<(), JournalError>>),
    /// A restart: the durable records `read_back` returned under the slot
    /// lock.
    Restart(Vec<u8>),
}

/// What a replay rebuilds one slot's monitor state from: the slot's epoch
/// when the replay was set up, and its journal.
struct Replay {
    epoch: u64,
    source: Source,
}

/// Walks one journal straight into a fresh pool — the walk that validates
/// each record decodes the frame this routes — then hands the senders to the
/// slot, unless another restart (or shutdown) got there first, or the
/// session has finished, in which case they drop and close the slot's rings.
///
/// The walk never waits on the pool (`route_buffered` + `try_flush`): `bind`
/// waits for every startup walk, and a merge may be waiting on a slot whose
/// client has not attached yet.  Only after its report does a replay block
/// on its rings.
fn spawn_replay(
    shared: Arc<Shared>,
    index: usize,
    replay: Replay,
    mut senders: Vec<FrameSender<Event>>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("evlin-rsvc-replay-{index}"))
        .spawn(move || {
            let router = shared.router;
            let route = |events: Vec<(u64, Event)>| {
                shared.replayed_frames.fetch_add(1, Ordering::Relaxed);
                shared
                    .replayed_events
                    .fetch_add(events.len() as u64, Ordering::Relaxed);
                route_buffered(router, &mut senders, events);
                try_flush_all(&mut senders);
            };
            match replay.source {
                Source::Startup(journal, report) => {
                    let reopened = journal.recover(route).map(|(journal, recovered)| {
                        let finished = journal.shutdown().is_some();
                        let mut slot = shared.slots[index].lock().expect("slot lock");
                        slot.session = ReplicaSession::reopened(
                            journal.client(),
                            shared.config.overload_backlog,
                            journal.session(),
                            recovered.cursors,
                            finished,
                        );
                        slot.journal = Some(journal);
                    });
                    let failed = reopened.is_err();
                    let _ = report.send(reopened);
                    if failed {
                        // `bind` tears the pool down: dropping these must not
                        // wait on a ring.
                        senders.iter_mut().for_each(FrameSender::discard_buffered);
                        return;
                    }
                }
                Source::Restart(records) => {
                    let cursor = replay_records(&records, index as u32, route);
                    // Nothing is admitted while a replay owns the senders, so
                    // the journal's durable cursor is still the one its records
                    // fold to, unless one below it fails validation.
                    let slot = shared.slots[index].lock().expect("slot lock");
                    if slot.journal.as_ref().map(Journal::cursor) != Some(cursor) {
                        shared.chain_mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            for sender in &mut senders {
                sender.flush();
            }
            let mut slot = shared.slots[index].lock().expect("slot lock");
            if !shared.shutting_down.load(Ordering::SeqCst) && slot.epoch == replay.epoch {
                slot.install(senders);
            }
        })
        .expect("spawn replay thread")
}

/// Spawns a fresh pool and refills it from the journals: a slot with a
/// replay gets its senders only after the replay has rebuilt the monitor
/// state; every other slot gets them at once.  Caller holds the `ctl` lock.
fn spawn_pool(shared: &Arc<Shared>, ctl: &mut Ctl, replays: Vec<Option<Replay>>) {
    let (per_slot, pool) = ReplicaPool::spawn(
        &shared.universe,
        shared.router,
        shared.slots.len(),
        &shared.config.service,
        &shared.fanout,
    );
    ctl.pool = Some(pool);
    for (index, (senders, replay)) in per_slot.into_iter().zip(replays).enumerate() {
        match replay {
            Some(replay) => {
                let replay = spawn_replay(Arc::clone(shared), index, replay, senders);
                ctl.replays.push(replay);
            }
            None => shared.slots[index]
                .lock()
                .expect("slot lock")
                .install(senders),
        }
    }
}

/// Lets the outstanding replays drain (the pool still consumes their rings;
/// every slot's own senders must be gone by now), then tears the pool down:
/// it drains to end-of-stream and its threads return, its outputs dying
/// with it.  Caller holds the `ctl` lock.
fn abandon_pool(ctl: &mut Ctl) {
    for join in std::mem::take(&mut ctl.replays) {
        let _ = join.join();
    }
    if let Some(pool) = ctl.pool.take() {
        pool.abandon();
    }
}

/// Tears the current pool down as if it crashed and rebuilds it from the
/// journals.  Caller holds the `ctl` lock, which serializes restarts against
/// each other and against shutdown.
fn restart_pool(shared: &Arc<Shared>, ctl: &mut Ctl) -> Result<(), SessionError> {
    // 1. The dying pool must not leak verdicts from partial state.
    if let Some(pool) = &ctl.pool {
        pool.silence();
    }
    // 2. Invalidate every slot: bump the epoch, discard buffered (journaled,
    //    so safe) items and drop the senders — which closes the dying pool's
    //    rings without ever touching a possibly-stalled ring — and read
    //    the journal's durable records back for replay.
    let mut replays = Vec::with_capacity(shared.slots.len());
    for slot in &shared.slots {
        let mut slot = slot.lock().expect("slot lock");
        slot.epoch += 1;
        slot.discard();
        let epoch = slot.epoch;
        replays.push(match &mut slot.journal {
            Some(journal) if journal.cursor().frames > 0 => Some(Replay {
                epoch,
                source: Source::Restart(journal.read_back()?),
            }),
            _ => None,
        });
    }
    // 3. Outstanding replays of the previous epoch drain, see their epoch
    //    mismatch, and drop their senders; then every ring of the old pool
    //    is closed and it drains (broadcasts suppressed).  Its outputs die
    //    here — that is the crash being simulated.
    abandon_pool(ctl);
    // 4. Fresh pool, refilled from the journals.
    spawn_pool(shared, ctl, replays);
    ctl.restarts += 1;
    Ok(())
}

// ---------------------------------------------------------------------------
// Connection handler
// ---------------------------------------------------------------------------

/// One connection's driver: receive, take what is buffered behind it, and
/// feed it all with one drain to the slot's machine under the slot lock.
fn run_session_handler(shared: Arc<Shared>, mut rx: TcpRx, tx: TcpTx) {
    // The slot's verdict link once the machine sends its attach ack.
    let mut link = Some(tx);
    let mut index = None;
    let mut sends = Vec::new();
    loop {
        let input = received(rx.recv_timeout(shared.config.heartbeat));
        let arrived = matches!(input, Input::Frame(_));
        // The first frame must be a hello in the spoken version (the decoder
        // refuses every other) naming a valid slot and a nonzero session;
        // anything else orphans the connection.
        let slot_index = match (index, &input) {
            (Some(slot_index), _) => slot_index,
            (None, Input::Frame(bytes)) => match decode_frame(bytes) {
                Ok(WireFrame::Hello {
                    client, session, ..
                }) if session != 0 && (client as usize) < shared.slots.len() => client as usize,
                _ => return orphan(&shared),
            },
            (None, _) => return orphan(&shared),
        };
        index = Some(slot_index);
        let (close, finished) = {
            let mut slot = shared.slots[slot_index].lock().expect("slot lock");
            let mut close = slot.feed(&shared, input, &mut sends);
            if arrived {
                while let Ok(Some(bytes)) = rx.take_buffered() {
                    slot.feed(&shared, Input::Frame(bytes), &mut sends);
                }
                let backlog = slot.backlog();
                close |= slot.feed(&shared, Input::Drained(backlog), &mut sends);
            }
            (close, slot.session.finished())
        };
        for frame in sends.drain(..) {
            if let Some(tx) = link.take() {
                shared.fanout.register(slot_index, Box::new(tx));
            }
            shared.fanout.unicast(slot_index, &frame);
        }
        if close || !arrived {
            return; // the session survives; the client reconnects
        }
        // A finished session's rings must close now, not at service
        // shutdown: a merge waits on every open ring, so a slot that will
        // never produce again would stall its still-streaming peers behind
        // full rings for ever.  A tail stuck behind a full ring is retried
        // until it ships, a restart takes the senders, or `finish` takes over
        // the draining.
        while finished
            && shared.slots[slot_index]
                .lock()
                .expect("slot lock")
                .release()
        {
            if shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

fn orphan(shared: &Shared) {
    shared.orphan_errors.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// The recoverable service
// ---------------------------------------------------------------------------

/// A crash-recoverable monitoring service on a loopback TCP endpoint.
///
/// Built with [`RecoverableService::bind`], which also *recovers*: any
/// session journals already in [`RecoveryConfig::journal_dir`] are reopened
/// before new traffic lands and replayed through the fresh pool — the
/// process-crash path.  While running, a watchdog restarts the pool if a
/// shard thread dies; [`RecoverableService::kill_and_restart`] forces the
/// same path deliberately (the chaos tests' crash lever).  Call
/// [`RecoverableService::finish`] after every client finished.
pub struct RecoverableService {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: JoinHandle<Vec<JoinHandle<()>>>,
    watchdog: JoinHandle<()>,
}

impl RecoverableService {
    /// Binds an ephemeral loopback endpoint, recovers every journal found
    /// in the configured directory, and starts accepting connections.
    /// Returns once every journal is validated and its torn tail cut; its
    /// frames may still be on their way into the pool.
    pub fn bind(
        universe: &ObjectUniverse,
        config: RecoveryConfig,
    ) -> Result<(SocketAddr, RecoverableService), SessionError> {
        std::fs::create_dir_all(&config.journal_dir).map_err(JournalError::Io)?;
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(JournalError::Io)?;
        let addr = listener.local_addr().map_err(JournalError::Io)?;
        let router = ShardRouter::new(config.service.monitor.condition, config.service.shards);
        let shards = router.effective_shards();
        let slots = config.slots.max(1);
        // Read every journal's header: a bad one, or a journal naming a
        // client out of range or one that already has a journal, fails the
        // bind before anything runs.
        let mut journals: Vec<Option<Opened>> = (0..slots).map(|_| None).collect();
        for entry in std::fs::read_dir(&config.journal_dir).map_err(JournalError::Io)? {
            let path = entry.map_err(JournalError::Io)?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("evjl") {
                continue;
            }
            let journal = Journal::open(&path)?;
            let client = journal.client();
            let index = client as usize;
            if index >= slots || journals[index].is_some() {
                return Err(SessionError::Journal(JournalError::BadHeader(format!(
                    "journal {} names client {} (have {} slots, duplicate or out of range)",
                    path.display(),
                    client,
                    slots
                ))));
            }
            journals[index] = Some(journal);
        }
        let recovered_count = journals.iter().flatten().count();
        let limit = config.overload_backlog;
        let shared = Arc::new(Shared {
            universe: universe.clone(),
            router,
            fanout: Arc::new(Fanout::new(slots, shards)),
            slots: (0..slots)
                .map(|index| {
                    Mutex::new(SlotState {
                        session: ReplicaSession::new(index as u32, limit),
                        journal: None,
                        senders: None,
                        epoch: 0,
                    })
                })
                .collect(),
            shutting_down: AtomicBool::new(false),
            ctl: Mutex::new(Ctl {
                pool: None,
                replays: Vec::new(),
                restarts: 0,
                recovered_at_startup: recovered_count,
            }),
            orphan_errors: AtomicU64::new(0),
            replayed_frames: AtomicU64::new(0),
            replayed_events: AtomicU64::new(0),
            chain_mismatches: AtomicU64::new(0),
            config,
        });
        // Initial pool + startup replay: each journal's own thread walks it
        // into the pool, reopens its session and reports back.  Connections
        // are accepted once every report is in; routing goes on behind them.
        let (report, reports) = mpsc::channel();
        let replays = journals
            .into_iter()
            .map(|journal| {
                let source = Source::Startup(journal?, report.clone());
                Some(Replay { epoch: 0, source })
            })
            .collect();
        drop(report);
        spawn_pool(&shared, &mut shared.ctl.lock().expect("ctl lock"), replays);
        let failure = (0..recovered_count).find_map(|_| match reports.recv() {
            Ok(reopened) => reopened.err(),
            Err(_) => Some(JournalError::Io(std::io::Error::other(
                "a startup replay died",
            ))),
        });
        if let Some(error) = failure {
            shared.shutting_down.store(true, Ordering::SeqCst);
            let mut ctl = shared.ctl.lock().expect("ctl lock");
            if let Some(pool) = &ctl.pool {
                pool.silence();
            }
            for slot in &shared.slots {
                slot.lock().expect("slot lock").discard();
            }
            abandon_pool(&mut ctl);
            return Err(error.into());
        }
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("evlin-rsvc-accept".into())
            .spawn(move || {
                let mut joins: Vec<JoinHandle<()>> = Vec::new();
                loop {
                    let Ok((stream, _)) = listener.accept() else {
                        break;
                    };
                    if acceptor_shared.shutting_down.load(Ordering::SeqCst) {
                        break;
                    }
                    // Reap the handlers that have returned: a finished thread
                    // keeps its stack mapped until it is joined, and a client
                    // under connection chaos reconnects without bound.
                    let mut i = 0;
                    while i < joins.len() {
                        if joins[i].is_finished() {
                            let _ = joins.swap_remove(i).join();
                        } else {
                            i += 1;
                        }
                    }
                    let _ = stream.set_nodelay(true);
                    let Ok((tx, rx)) = tcp_pair(stream) else {
                        continue;
                    };
                    let shared = Arc::clone(&acceptor_shared);
                    joins.push(
                        std::thread::Builder::new()
                            .name("evlin-rsvc-conn".into())
                            .spawn(move || run_session_handler(shared, rx, tx))
                            .expect("spawn handler thread"),
                    );
                }
                joins
            })
            .expect("spawn acceptor thread");
        // Watchdog: a pool thread finishing while the service is live means
        // a crashed shard — restart from the journals.
        let watchdog_shared = Arc::clone(&shared);
        let watchdog = std::thread::Builder::new()
            .name("evlin-rsvc-watchdog".into())
            .spawn(move || {
                let tick = watchdog_shared
                    .config
                    .heartbeat
                    .min(Duration::from_millis(50))
                    .max(Duration::from_millis(2));
                while !watchdog_shared.shutting_down.load(Ordering::SeqCst) {
                    // `finish` unparks: shutdown does not wait out a tick.
                    std::thread::park_timeout(tick);
                    if watchdog_shared.shutting_down.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut ctl) = watchdog_shared.ctl.try_lock() else {
                        continue; // a restart is already in progress
                    };
                    if ctl.pool.as_ref().is_some_and(ReplicaPool::is_crashed) {
                        let _ = restart_pool(&watchdog_shared, &mut ctl);
                    }
                }
            })
            .expect("spawn watchdog thread");
        Ok((
            addr,
            RecoverableService {
                shared,
                addr,
                acceptor,
                watchdog,
            },
        ))
    }

    /// Kills the replica pool as if it crashed — its in-flight state is
    /// discarded and its verdict broadcasts suppressed — then rebuilds it by
    /// replaying every session journal through a fresh staged pipeline.
    /// Returns once the new pool is up (replays complete in the background;
    /// handlers shed with `OVERLOADED` until their slot's replay installs
    /// the new senders).
    pub fn kill_and_restart(&self) -> Result<(), SessionError> {
        let mut ctl = self.shared.ctl.lock().expect("ctl lock");
        restart_pool(&self.shared, &mut ctl)
    }

    /// Winds the service down and reports.  Call after every client
    /// finished: handlers are joined (bounded by the heartbeat deadline),
    /// buffered tails are flushed, outstanding replays complete, the final
    /// pool drains and broadcasts its reliable finals, and the verdict plane
    /// closes.
    pub fn finish(self) -> RecoveryReport {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Wake the watchdog out of its tick and the acceptor out of `accept`.
        self.watchdog.thread().unpark();
        let _ = TcpStream::connect(self.addr);
        for join in self.acceptor.join().expect("acceptor thread") {
            let _ = join.join();
        }
        let _ = self.watchdog.join();
        let mut ctl = self.shared.ctl.lock().expect("ctl lock");
        // Drain the slots' buffered tails without ever blocking on a
        // stalled ring: every round flushes what fits in *every* slot and
        // drops each sender the moment it empties (closing its ring lets the
        // merge advance past it).  Terminates because every open ring either
        // has data or belongs to a sender in this loop.
        while self.shared.slots.iter().fold(false, |stuck, slot| {
            slot.lock().expect("slot lock").release() | stuck
        }) {
            std::thread::yield_now();
        }
        // Outstanding replays feed live rings; they finish, see the
        // shutdown flag, and drop their senders.
        for join in std::mem::take(&mut ctl.replays) {
            let _ = join.join();
        }
        // The final pool drains to end-of-stream; it was never silenced, so
        // the per-shard finals broadcast reliably before the plane closes.
        let out = ctl.pool.take().expect("pool present at shutdown").finish();
        self.shared.fanout.close_all();
        RecoveryReport {
            verdict: out.verdict,
            shards: out.shards,
            sessions: self
                .shared
                .slots
                .iter()
                .map(|slot| slot.lock().expect("slot lock").session.stats)
                .collect(),
            restarts: ctl.restarts,
            recovered_at_startup: ctl.recovered_at_startup,
            replayed_frames: self.shared.replayed_frames.load(Ordering::Relaxed),
            replayed_events: self.shared.replayed_events.load(Ordering::Relaxed),
            replay_chain_mismatches: self.shared.chain_mismatches.load(Ordering::Relaxed),
            verdicts_dropped: self.shared.fanout.dropped(),
            orphan_connections: self.shared.orphan_errors.load(Ordering::Relaxed),
            accepted_streams: out.accepted_streams,
        }
    }
}

// ---------------------------------------------------------------------------
// The recoverable client
// ---------------------------------------------------------------------------

/// Deterministic connection chaos for [`RecoverableClient`]: every
/// connection attempt gets its own seed-derived `ChaosPlan`, so a chaos
/// schedule of partial writes and mid-frame kills replays exactly from the
/// top-level seed.
#[derive(Debug, Clone, Copy)]
pub struct ReconnectChaos {
    /// Top-level seed; attempt *i* derives its plan from `seed` and *i*.
    pub seed: u64,
    /// Per-mille probability that a send is split into two writes.
    pub split_per_mille: u16,
    /// Minimum frames a connection survives before its kill fires.
    pub kill_after_min: u64,
    /// Width of the kill window: the kill lands uniformly in
    /// `[kill_after_min, kill_after_min + kill_after_span)`.
    pub kill_after_span: u64,
}

impl ReconnectChaos {
    /// The plan armed on connection attempt `attempt`.
    pub(crate) fn plan_for(&self, attempt: u64) -> ChaosPlan {
        let mut state = (self.seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
        let x = xorshift64(&mut state);
        let span = self.kill_after_span.max(1);
        ChaosPlan::new(x)
            .split_writes(self.split_per_mille)
            .kill_at(self.kill_after_min + (x >> 7) % span)
    }
}

/// Unacked frames a client's window may hold before it blocks on (and if
/// necessary forces) ack progress.
const WINDOW_LIMIT: usize = 32;

/// Client-side knobs for session recovery.  The ack timeout (200 ms) and the
/// unacked-frame window (32 frames) are fixed.
#[derive(Debug, Clone)]
pub struct ClientRecoveryConfig {
    /// Events per wire frame.
    pub frame_capacity: usize,
    /// Reconnect pacing; exhaustion turns the client terminally dead with a
    /// typed [`RetriesExhausted`].  The budget re-arms on every ack, so only
    /// *consecutive* fruitless attempts count.
    pub backoff: Backoff,
    /// Deterministic connection-level fault injection, if any.
    pub chaos: Option<ReconnectChaos>,
}

impl ClientRecoveryConfig {
    /// Defaults sized for tests and demos.
    pub fn standard(seed: u64) -> ClientRecoveryConfig {
        ClientRecoveryConfig {
            frame_capacity: 64,
            backoff: Backoff::standard(seed),
            chaos: None,
        }
    }
}

/// Wire counters for one recoverable client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverableClientStats {
    /// Event frames staged into the session window.
    pub frames: u64,
    /// Events inside those frames.
    pub events: u64,
    /// Events dropped before the wire: by the well-formedness filter, or
    /// refused because the wire cannot carry them.
    pub dropped_malformed: u64,
    /// Durability acks received.
    pub acks: u64,
    /// Successful reconnects after the first connection.
    pub reconnects: u64,
    /// Typed `OVERLOADED` rejections honored (window rewound, retried).
    pub overloads: u64,
    /// Frames sent again on a later connection (window replays).
    pub retransmitted_frames: u64,
    /// Sends the transport refused (each costs the connection).
    pub send_failures: u64,
    /// Events recorded after the client turned terminally dead (dropped;
    /// [`RecoverableClient::finish`] surfaces the death as an error).
    pub dropped_after_death: u64,
    /// Frames on the ack/verdict plane that were not decodable or legal.
    pub protocol_errors: u64,
}

/// The [`EventSink`] behind a [`RecoverableClient`]: batches events into
/// `EVENTS` frames and drives the session machine over TCP — connecting when
/// it is idle, polling and waiting on the ack plane, sending what it asks.
struct SessionSink {
    addr: SocketAddr,
    sealer: FrameSealer,
    chaos: Option<ReconnectChaos>,
    session: ClientSession,
    conn: Option<(TcpTx, TcpRx)>,
    /// When the machine's timer fires.
    deadline: Instant,
    attempts: u64,
    out: Vec<Output>,
}

impl SessionSink {
    /// Feeds the machine one input and does what it asks.  A send that
    /// fails costs the connection, which the machine then hears of.
    fn feed(&mut self, input: Input) {
        let mut next = Some(input);
        while let Some(input) = next.take() {
            self.session.on(input, &mut self.out);
            for output in self.out.drain(..) {
                let sent = match (output, &mut self.conn) {
                    (Output::Send(frame), Some((tx, _))) => tx.send_slice(&encode_frame(&frame)),
                    (Output::SendWindow(i), Some((tx, _))) => tx.send_slice(self.session.frame(i)),
                    (Output::Arm(wait), _) => {
                        self.deadline = Instant::now() + wait;
                        Ok(())
                    }
                    (Output::Close, conn) => {
                        *conn = None;
                        Ok(())
                    }
                    _ => Ok(()),
                };
                if sent.is_err() {
                    self.session.stats.send_failures += 1;
                    self.conn = None;
                    next = Some(Input::Lost { clean: false });
                    break;
                }
            }
        }
    }

    /// Drives the session until the machine is settled — its window at most
    /// the limit, or empty when `flush` — or the client dies.
    fn pump(&mut self, flush: bool) {
        loop {
            if self.session.idle() {
                let attempt = self.attempts;
                self.attempts += 1;
                let input = match tcp_connect(self.addr) {
                    Ok((mut tx, rx)) => {
                        if let Some(chaos) = &self.chaos {
                            tx.set_chaos(chaos.plan_for(attempt));
                        }
                        self.conn = Some((tx, rx));
                        Input::Opened
                    }
                    Err(_) => Input::Lost { clean: false },
                };
                self.feed(input);
                continue;
            }
            let wait = self.deadline.saturating_duration_since(Instant::now());
            let input = match &mut self.conn {
                // The ack poll never waits; on silence the pump returns if
                // it may, and otherwise waits for the machine's timer.
                Some((_, rx)) => match rx.try_recv() {
                    Err(WireError::PeerTimeout) if self.session.settled(flush) => return,
                    Err(WireError::PeerTimeout) => received(rx.recv_timeout(wait)),
                    got => received(got),
                },
                None if self.session.settled(flush) => return,
                None => {
                    std::thread::sleep(wait); // backing off
                    Input::Timer
                }
            };
            self.feed(input);
        }
    }

    /// Seals the current batch into a frame, stages it in the window, and
    /// pumps until the window is back under its limit.
    fn ship(&mut self) {
        let Some((bytes, events)) = self.sealer.seal() else {
            return;
        };
        self.session.stats.frames += 1;
        self.session.stats.events += events;
        self.feed(Input::Stage(bytes));
        self.pump(false);
    }
}

/// What a receive means to a session machine.
fn received(got: Result<Option<Vec<u8>>, WireError>) -> Input {
    match got {
        Ok(Some(bytes)) => Input::Frame(bytes),
        Ok(None) => Input::Lost { clean: true },
        Err(WireError::PeerTimeout) => Input::Timer,
        Err(_) => Input::Lost { clean: false },
    }
}

impl EventSink for SessionSink {
    fn accept(&mut self, seq: u64, event: Event) {
        // Death strikes inside `ship` (the pump spends the retry budget),
        // right after a seal emptied the batch: nothing is ever stranded in
        // the sealer, and everything recorded later is dropped here.
        if self.session.dead.is_some() {
            self.session.stats.dropped_after_death += 1;
        } else if self.sealer.push(seq, event) {
            self.ship();
        }
    }

    fn flush(&mut self) {
        self.ship();
    }
}

/// A producer client that survives connection loss and replica restarts.
///
/// The recoverable twin of [`crate::ServiceClient`]: the same recording
/// core ([`evlin_runtime::RecorderShard`] behind the wire's limits), but over
/// a session-windowed sink that
/// journals durability with the replica.  Every recorded event is delivered
/// to the monitor **exactly once** as long as the retry budget holds;
/// if it dies, [`RecoverableClient::finish`] returns the typed
/// [`RetriesExhausted`] instead of a report.
pub struct RecoverableClient {
    shard: WireRecorder<SessionSink>,
}

impl RecoverableClient {
    /// Connects to a [`RecoverableService`] endpoint under `session` (must
    /// be nonzero and never reused for a different stream).
    ///
    /// `seq` is the shared global sequence source; every client of one run
    /// must clone the same counter, so that the replicas can merge streams
    /// back into the recorded real-time order.
    pub fn connect_tcp(
        addr: SocketAddr,
        client: u32,
        session: u64,
        seq: Arc<AtomicU64>,
        config: ClientRecoveryConfig,
    ) -> Result<RecoverableClient, RetriesExhausted> {
        let mut sink = SessionSink {
            addr,
            sealer: FrameSealer::new(client, config.frame_capacity),
            chaos: config.chaos,
            session: ClientSession::new(client, session.max(1), WINDOW_LIMIT, config.backoff),
            conn: None,
            deadline: Instant::now(),
            attempts: 0,
            out: Vec::new(),
        };
        sink.pump(true);
        match sink.session.dead {
            Some(e) => Err(e),
            None => Ok(RecoverableClient {
                shard: WireRecorder::over(seq, sink),
            }),
        }
    }

    /// Records an invocation event by `process` on `object`.
    pub fn invoke(&mut self, process: ProcessId, object: ObjectId, invocation: Invocation) {
        self.shard.invoke(process, object, invocation);
    }

    /// Records a response event by `process` on `object`.
    pub fn respond(&mut self, process: ProcessId, object: ObjectId, value: Value) {
        self.shard.respond(process, object, value);
    }

    /// Ships the current partial frame now.
    pub fn flush(&mut self) {
        self.shard.flush();
    }

    /// Ends the stream: flushes the tail, pumps until *every* frame is
    /// acked durable, sends the shutdown audit (totals + chained
    /// fingerprint) and half-closes.  [`Err`] is the typed terminal state —
    /// the retry budget died with frames still unacked.
    pub fn finish(self) -> Result<ClosedRecoverableClient, RetriesExhausted> {
        let (mut sink, dropped_malformed) = self.shard.into_sink();
        sink.session.stats.dropped_malformed = dropped_malformed;
        // Close over a clean connection: a chaos-armed link could die
        // *after* the shutdown handshake, severing the verdict plane the
        // finals arrive on.  Connection chaos stresses the streaming path
        // (journals, resume, dedup); the closing connection is the
        // measurement channel and reconnects un-armed.
        if sink.chaos.take().is_some() && sink.conn.take().is_some() {
            sink.feed(Input::Lost { clean: true });
        }
        let shutdown = sink.sealer.shutdown();
        loop {
            sink.pump(true);
            if let Some(e) = sink.session.dead {
                return Err(e);
            }
            let (tx, _) = sink.conn.as_mut().expect("a settled session is attached");
            if tx.send_slice(&shutdown).is_ok() {
                break;
            }
            sink.session.stats.send_failures += 1;
            sink.conn = None;
            sink.feed(Input::Lost { clean: false });
        }
        let (mut tx, rx) = sink.conn.take().expect("attached above");
        tx.close();
        drop(tx);
        Ok(ClosedRecoverableClient {
            rx,
            stats: sink.session.stats,
            summaries: sink.session.summaries,
        })
    }
}

/// A finished recoverable client still listening on the verdict plane.
pub struct ClosedRecoverableClient {
    rx: TcpRx,
    stats: RecoverableClientStats,
    summaries: Vec<VerdictSummary>,
}

impl ClosedRecoverableClient {
    /// Drains verdict frames until the service hangs up.  Verdicts received
    /// mid-run (interleaved with acks) are included.
    pub fn collect_verdicts(mut self) -> RecoverableClientReport {
        let mut summaries = self.summaries;
        let mut stats = self.stats;
        stats.protocol_errors += drain_verdicts(&mut self.rx, &mut summaries);
        RecoverableClientReport { summaries, stats }
    }
}

/// What a recoverable client saw over one run.
#[derive(Debug, Clone)]
pub struct RecoverableClientReport {
    /// Verdict rounds received, in arrival order.
    pub summaries: Vec<VerdictSummary>,
    /// The client's wire counters.
    pub stats: RecoverableClientStats,
}

impl RecoverableClientReport {
    /// The final summaries (one per shard that reported), in shard order.
    pub fn final_summaries(&self) -> Vec<&VerdictSummary> {
        final_summaries(&self.summaries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconnect_chaos_plans_are_deterministic_per_attempt() {
        let chaos = ReconnectChaos {
            seed: 99,
            split_per_mille: 250,
            kill_after_min: 3,
            kill_after_span: 5,
        };
        // Same seed and attempt: identical plans (compare via Debug — the
        // plan's state is its identity).
        assert_eq!(
            format!("{:?}", chaos.plan_for(0)),
            format!("{:?}", chaos.plan_for(0))
        );
        // Different attempts draw different plans.
        assert_ne!(
            format!("{:?}", chaos.plan_for(0)),
            format!("{:?}", chaos.plan_for(1))
        );
    }
}
