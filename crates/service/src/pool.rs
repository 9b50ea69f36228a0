//! The replica core both service front doors run on: the shard pool, the
//! frame router and the verdict plane.
//!
//! [`ReplicaPool::spawn`] builds, per shard, one ring per producer slot
//! ([`evlin_runtime::channel::sharded`]), a merge+ingest thread running the
//! runtime's [`pump`] and a check thread broadcasting verdict rounds through
//! the [`Fanout`]; it returns each slot's sender set, one [`FrameSender`] per
//! shard, and a connection handler [`route_frame`]s every decoded `EVENTS`
//! frame into its slot's set.  [`crate::replica::MonitorService`] spawns one
//! pool for its whole life; [`crate::supervisor::RecoverableService`] also
//! watches it ([`ReplicaPool::is_crashed`]), declares it dead
//! ([`ReplicaPool::silence`], [`ReplicaPool::abandon`]) and refills a
//! successor from the session journals.  Either way the run ends in
//! [`ReplicaPool::finish`], the one place shard reports are assembled and
//! verdicts recomposed.

use crate::replica::{ServiceConfig, ShardReport};
use crate::transport::FrameTx;
use crate::wire::{encode_frame, VerdictSummary, WireFrame};
use evlin_checker::fold_words;
use evlin_checker::monitor::{
    recompose_verdicts, stages, MonitorCheck, MonitorVerdict, ShardRouter,
};
use evlin_history::{Event, ObjectUniverse};
use evlin_runtime::channel::sharded::{self, FrameSender};
use evlin_runtime::channel::{self, Receiver};
use evlin_runtime::pump::{pump, PumpOut, StageMsg};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

// ---------------------------------------------------------------------------
// Verdict fanout
// ---------------------------------------------------------------------------

/// The replica→client plane: one writer per producer slot.
///
/// Every checked batch produces a [`VerdictSummary`] round, broadcast to all
/// registered writers *best-effort* (a saturated link drops the round —
/// round numbers expose the gap).  Each shard's final summary is delivered
/// *reliably*: mid-run sends leave `reserve` (= shards) slots of every
/// bounded link unused ([`FrameTx::has_room`]), so the final blocking sends
/// always find room and the wind-down cannot deadlock on a slow client.
pub(crate) struct Fanout {
    writers: Mutex<Vec<Option<Box<dyn FrameTx>>>>,
    /// Slots every bounded link keeps free for final summaries.
    reserve: usize,
    dropped: AtomicU64,
}

impl Fanout {
    pub(crate) fn new(conns: usize, reserve: usize) -> Self {
        let mut writers = Vec::with_capacity(conns);
        writers.resize_with(conns, || None);
        Fanout {
            writers: Mutex::new(writers),
            reserve,
            dropped: AtomicU64::new(0),
        }
    }

    pub(crate) fn register(&self, conn: usize, tx: Box<dyn FrameTx>) {
        self.writers.lock().expect("fanout lock")[conn] = Some(tx);
    }

    fn broadcast(&self, summary: &VerdictSummary, reliable: bool) {
        let bytes = encode_frame(&WireFrame::Verdict(summary.clone()));
        let mut writers = self.writers.lock().expect("fanout lock");
        for writer in writers.iter_mut().flatten() {
            if reliable {
                // Non-blocking by construction: best-effort sends always
                // left `reserve` (= shards) slots free, and this lock is the
                // only producer of the link.
                let _ = writer.send(bytes.clone());
            } else if writer.has_room(self.reserve) {
                if !writer.try_send(bytes.clone()).unwrap_or(true) {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Sends one frame to one connection's writer (acks, pongs, overload
    /// rejections).  Uses the reserve-aware best-effort path: a reply must
    /// never block a verdict round, and a lost one just looks like a slow
    /// peer.
    pub(crate) fn unicast(&self, conn: usize, frame: &WireFrame) {
        let bytes = encode_frame(frame);
        let mut writers = self.writers.lock().expect("fanout lock");
        if let Some(writer) = writers.get_mut(conn).and_then(|w| w.as_mut()) {
            if writer.has_room(self.reserve) {
                let _ = writer.try_send(bytes);
            }
        }
    }

    /// Verdict rounds dropped on saturated links so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub(crate) fn close_all(&self) {
        let mut writers = self.writers.lock().expect("fanout lock");
        for slot in writers.iter_mut() {
            if let Some(mut tx) = slot.take() {
                tx.close();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// Buffers each event on its shard's sender — by [`ShardRouter`], a pure
/// function of the [`evlin_history::ObjectId`] — without shipping anything:
/// the caller decides how the buffered frames enter the rings (blocking
/// [`FrameSender::flush`], or the never-block [`FrameSender::try_flush`] of
/// a handler that sheds load instead of waiting).
pub(crate) fn route_buffered(
    router: ShardRouter,
    senders: &mut [FrameSender<Event>],
    events: Vec<(u64, Event)>,
) {
    for (seq, event) in events {
        senders[router.route(event.object)].push_buffered(seq, event);
    }
}

/// Routes one wire frame's events to their shards' senders, then flushes
/// every sender.
///
/// Shipping per wire frame matters: a sender's own batching would otherwise
/// sit on a trickling client's events until its stream ends, starving the
/// sequence-ordered merge (which cannot emit past a claimed ring it has
/// heard nothing from).  One wire frame in, at most one ring frame out per
/// shard.
pub(crate) fn route_frame(
    router: ShardRouter,
    senders: &mut [FrameSender<Event>],
    events: Vec<(u64, Event)>,
) {
    route_buffered(router, senders, events);
    for sender in senders.iter_mut() {
        sender.flush();
    }
}

// ---------------------------------------------------------------------------
// The check stage
// ---------------------------------------------------------------------------

struct CheckOut {
    report: evlin_checker::monitor::MonitorReport,
    rounds: u64,
    summary: VerdictSummary,
}

/// Runs a shard's check stage.  Every broadcast — mid-run *and* final — is
/// suppressed once `alive` drops: a supervisor declaring the pool dead flips
/// it so the dying pool cannot leak verdicts while its successor is rebuilt.
fn run_check(
    shard: u32,
    mut check: MonitorCheck,
    rx: Receiver<StageMsg>,
    fanout: Arc<Fanout>,
    alive: Arc<AtomicBool>,
) -> CheckOut {
    let mut round = 0u64;
    let mut events_cum = 0u64;
    let mut keys: Vec<u64> = Vec::new();
    while let Some(msg) = rx.recv() {
        match msg {
            StageMsg::Batch(batch) => {
                round += 1;
                events_cum += batch.events() as u64;
                keys.clear();
                keys.extend(batch.segment_keys());
                check.check_batch(batch);
                if alive.load(Ordering::Relaxed) {
                    fanout.broadcast(
                        &VerdictSummary {
                            shard,
                            round,
                            events: events_cum,
                            checked_ops: 0,
                            fingerprint: fold_words(shard as u64, &keys),
                            last: false,
                            verdict: check.verdict_so_far(),
                        },
                        false,
                    );
                }
            }
            StageMsg::Final(tail, summary) => {
                round += 1;
                let report = check.finish(tail, summary);
                let final_summary = VerdictSummary {
                    shard,
                    round,
                    events: report.stats.events as u64,
                    checked_ops: report.stats.checked_ops as u64,
                    fingerprint: report.stats.stream_fingerprint,
                    last: true,
                    verdict: report.verdict.clone(),
                };
                if alive.load(Ordering::Relaxed) {
                    fanout.broadcast(&final_summary, true);
                }
                return CheckOut {
                    report,
                    rounds: round,
                    summary: final_summary,
                };
            }
        }
    }
    unreachable!("the pump always sends a final batch before closing")
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// Spawns one shard thread that counts itself in `returned` on its way out —
/// what lets [`ReplicaPool::is_crashed`] tell a clean exit from a panic.
fn spawn_stage<T: Send + 'static>(
    name: String,
    returned: &Arc<AtomicUsize>,
    stage: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    let returned = Arc::clone(returned);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let out = stage();
            returned.fetch_add(1, Ordering::SeqCst);
            out
        })
        .expect("spawn shard thread")
}

/// One generation of replica shards: per shard, a merge+ingest thread and a
/// check thread behind one ring per producer slot.
pub(crate) struct ReplicaPool {
    alive: Arc<AtomicBool>,
    /// Shard threads that ran to end-of-stream and returned; a thread that
    /// finished without counting itself here panicked.
    returned: Arc<AtomicUsize>,
    pumps: Vec<JoinHandle<PumpOut>>,
    checks: Vec<JoinHandle<CheckOut>>,
}

/// What a pool that drained to end-of-stream produced: the recomposed
/// verdict, the per-shard reports, and each shard's accepted stream when
/// [`ServiceConfig::capture_streams`] was set.
pub(crate) struct PoolOut {
    pub(crate) verdict: MonitorVerdict,
    pub(crate) shards: Vec<ShardReport>,
    pub(crate) accepted_streams: Option<Vec<Vec<Event>>>,
}

impl ReplicaPool {
    /// Spawns `router.effective_shards()` replica shards, each merging
    /// `producers` rings, and returns every producer slot's sender set
    /// (indexed by shard) alongside the pool.
    pub(crate) fn spawn(
        universe: &ObjectUniverse,
        router: ShardRouter,
        producers: usize,
        config: &ServiceConfig,
        fanout: &Arc<Fanout>,
    ) -> (Vec<Vec<FrameSender<Event>>>, ReplicaPool) {
        let shards = router.effective_shards();
        let alive = Arc::new(AtomicBool::new(true));
        let returned = Arc::new(AtomicUsize::new(0));
        let mut per_producer: Vec<Vec<FrameSender<Event>>> =
            (0..producers).map(|_| Vec::with_capacity(shards)).collect();
        let mut pumps = Vec::with_capacity(shards);
        let mut checks = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (senders, merge) = sharded::sharded::<Event>(
                producers.max(1),
                config.ring_frames,
                config.frame_capacity,
                None,
            );
            for (set, sender) in per_producer.iter_mut().zip(senders) {
                set.push(sender);
            }
            let (ingest, check) = stages(universe.clone(), config.monitor);
            let (stage_tx, stage_rx) = channel::bounded(config.stage_queue.max(1));
            let capture = config.capture_streams;
            pumps.push(spawn_stage(
                format!("evlin-svc-ingest-{shard}"),
                &returned,
                move || pump(merge, ingest, stage_tx, capture),
            ));
            let (fanout, alive) = (Arc::clone(fanout), Arc::clone(&alive));
            checks.push(spawn_stage(
                format!("evlin-svc-check-{shard}"),
                &returned,
                move || run_check(shard as u32, check, stage_rx, fanout, alive),
            ));
        }
        (
            per_producer,
            ReplicaPool {
                alive,
                returned,
                pumps,
                checks,
            },
        )
    }

    /// Whether a shard thread died: it has finished, yet never got to count
    /// itself as returned.  A pool that drained to end-of-stream by itself —
    /// every session finished and closed its rings before the service was
    /// told to — is complete, not crashed.
    pub(crate) fn is_crashed(&self) -> bool {
        // Finished first, returned second: a thread counts itself before it
        // exits, so every clean exit seen by the first read is in the second.
        let finished = self.pumps.iter().filter(|j| j.is_finished()).count()
            + self.checks.iter().filter(|j| j.is_finished()).count();
        finished > self.returned.load(Ordering::SeqCst)
    }

    /// Declares the pool dead: from here on its check stages broadcast
    /// nothing, so closing its rings cannot leak verdicts from partial state.
    pub(crate) fn silence(&self) {
        self.alive.store(false, Ordering::SeqCst);
    }

    /// Joins a silenced pool and discards whatever it produced.  Call once
    /// every ring is closed; the threads then drain to end-of-stream (or
    /// already panicked — that is the crash being recovered from).
    pub(crate) fn abandon(self) {
        self.silence();
        for join in self.pumps {
            let _ = join.join();
        }
        for join in self.checks {
            let _ = join.join();
        }
    }

    /// Joins the pool once every ring is closed and assembles its reports.
    /// The per-shard finals were broadcast reliably on the way out.
    pub(crate) fn finish(self) -> PoolOut {
        let mut accepted_streams = Some(Vec::with_capacity(self.pumps.len()));
        let shards: Vec<ShardReport> = self
            .pumps
            .into_iter()
            .zip(self.checks)
            .map(|(pump, check)| {
                let pump = pump.join().expect("ingest thread");
                let check = check.join().expect("check thread");
                match (&mut accepted_streams, pump.accepted) {
                    (Some(streams), Some(stream)) => streams.push(stream),
                    _ => accepted_streams = None,
                }
                ShardReport {
                    report: check.report,
                    merge: pump.merge,
                    rejected_events: pump.rejected,
                    rounds: check.rounds,
                    summary: check.summary,
                }
            })
            .collect();
        PoolOut {
            verdict: recompose_verdicts(shards.iter().map(|s| s.report.verdict.clone())),
            shards,
            accepted_streams,
        }
    }
}
