//! The replica side of the plain service: in-process connection handlers
//! that *detect* loss, in front of the shared replica core (the
//! crate-private `pool` module).
//!
//! ## Topology
//!
//! ```text
//!  conn 0 ──▶ handler 0 ─┐                 ┌─▶ merge+ingest 0 ──▶ check 0 ─┐
//!  conn 1 ──▶ handler 1 ─┼─ ShardRouter ──┤        …                …      ├─▶ verdicts
//!  conn … ──▶ handler … ─┘                 └─▶ merge+ingest M ──▶ check M ─┘
//! ```
//!
//! Connection `c` is a pair of duplex links, and handler `c` owns slot `c`'s
//! per-shard rings from the moment it is spawned.  It decodes wire frames
//! (rejecting corruption at the codec layer), audits frame sequence numbers
//! and routes each event — by [`ShardRouter`], a pure function of the
//! [`evlin_history::ObjectId`] — into those rings.  Each **replica shard**
//! then runs the staged pipeline as its inner loop: a k-way merge restores
//! global sequence order across clients, quiescent-cut ingest runs on the
//! merge thread, and kernel checking runs on its own thread.  Per-object
//! routing is sound exactly when the condition is object-local
//! ([`evlin_checker::monitor::MonitorCondition::is_object_local`]); the
//! router collapses to one shard otherwise, so a non-local condition can
//! never be silently mis-sharded.
//!
//! ## Delivery contract: loss *detection*
//!
//! This handler never refuses an event frame it could decode: gaps and
//! regressions in the per-client frame sequence are *counted*
//! ([`ConnStats`]), the events still delivered, and the shutdown frame's
//! totals and chained fingerprint audit the whole stream.  Only the
//! fault-injected duplex link loses, duplicates or reorders frames; over TCP
//! the only loss is a dead connection, which the exactly-once front door,
//! [`crate::supervisor`], repairs (journal, dedup, ack).  Verdict rounds go
//! back best-effort mid-run and reliably at the end (the `pool` module's
//! fanout); the same final summaries come back in the [`ServiceReport`].

use crate::client::ServiceClient;
use crate::pool::{route_frame, Fanout, ReplicaPool};
use crate::transport::{duplex, DuplexRx, DuplexTx, FrameRx};
use crate::wire::{chain_fingerprint, decode_frame_with, VerdictSummary, WireFrame};
use evlin_checker::monitor::{MonitorConfig, MonitorReport, MonitorVerdict, ShardRouter};
use evlin_history::{Event, ObjectUniverse};
use evlin_runtime::channel::sharded::{FrameSender, MergeStats};
use evlin_runtime::FaultPlan;
use evlin_spec::Invocation;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Tuning knobs for one service run.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Requested monitor replica shards (collapsed to 1 for conditions that
    /// are not object-local).
    pub shards: usize,
    /// The monitor configuration every replica shard runs.
    pub monitor: MonitorConfig,
    /// Events per wire frame (clients) and per in-replica ring frame.
    pub frame_capacity: usize,
    /// In-flight frames per producer ring inside each replica shard.
    pub ring_frames: usize,
    /// Frames in flight per connection direction (duplex transport).
    pub conn_frames: usize,
    /// Segment batches in flight between a shard's ingest and check stages.
    pub stage_queue: usize,
    /// Frame-granularity fault plan injected under the client→replica
    /// direction of the in-process transport (per-connection seeds derived
    /// via [`FaultPlan::for_shard`]).  Ignored by the TCP door,
    /// [`crate::supervisor::RecoverableService`].
    pub fault: Option<FaultPlan>,
    /// Retain each shard's post-filter accepted event stream in the report
    /// — the hook the differential tests pin the offline kernel against.
    pub capture_streams: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 1,
            monitor: MonitorConfig::default(),
            frame_capacity: 512,
            ring_frames: 8,
            conn_frames: 64,
            stage_queue: 8,
            fault: None,
            capture_streams: false,
        }
    }
}

/// Wire-level counters for one client connection, as seen by its handler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Event frames accepted (decoded and fingerprint-verified).
    pub frames: u64,
    /// Events delivered to the shard router.
    pub events: u64,
    /// Frames dropped whole: codec rejections, including event-batch
    /// fingerprint mismatches.
    pub corrupt_frames: u64,
    /// Forward jumps in the per-client frame sequence (lost frames).
    pub frame_gaps: u64,
    /// Frame-sequence regressions (duplicated or reordered frames).
    pub misordered_frames: u64,
    /// Hello frames seen.
    pub hellos: u64,
    /// Shutdown frames seen.
    pub shutdowns: u64,
    /// Shutdown audits that failed: the client's announced event total or
    /// chained stream fingerprint disagreed with what this handler accepted
    /// (expected under a lossy transport — it is the loss *detector*).
    pub shutdown_mismatches: u64,
    /// Frames that were structurally valid but illegal in this direction or
    /// connection state.
    pub protocol_errors: u64,
}

/// One replica shard's contribution to the [`ServiceReport`].
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The staged monitor's report for this shard's substream.
    pub report: MonitorReport,
    /// k-way merge counters (frames, events, misordered frames…).
    pub merge: MergeStats,
    /// Events the monitor's well-formedness filter rejected (orphan
    /// responses and double invocations produced by transport faults).
    pub rejected_events: u64,
    /// Verdict rounds the shard emitted (including the final one).
    pub rounds: u64,
    /// The shard's final verdict summary, as sent on the wire.
    pub summary: VerdictSummary,
}

/// What one service run produced.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// The recomposed verdict over all shards
    /// ([`evlin_checker::monitor::recompose_verdicts`]).
    pub verdict: MonitorVerdict,
    /// Per-shard reports, indexed by shard.
    pub shards: Vec<ShardReport>,
    /// Per-connection wire counters, indexed by connection order.
    pub connections: Vec<ConnStats>,
    /// Mid-run verdict rounds dropped on saturated client links.
    pub verdicts_dropped: u64,
    /// Each shard's accepted (post-filter) event stream, present when
    /// [`ServiceConfig::capture_streams`] was set.
    pub accepted_streams: Option<Vec<Vec<Event>>>,
}

impl ServiceReport {
    /// Total events checked across all shards.
    pub fn events(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.report.stats.events as u64)
            .sum()
    }

    /// Total completed operations decided across all shards.
    pub fn checked_ops(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.report.stats.checked_ops as u64)
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Connection handler
// ---------------------------------------------------------------------------

/// Serves connection `conn` until its client hangs up, routing every event
/// frame into `senders`, the connection's own slot of per-shard rings.
fn run_handler(
    conn: usize,
    mut rx: DuplexRx,
    tx: DuplexTx,
    mut senders: Vec<FrameSender<Event>>,
    fanout: &Fanout,
    router: ShardRouter,
) -> ConnStats {
    fanout.register(conn, Box::new(tx));
    let mut stats = ConnStats::default();
    let mut interner: Vec<Invocation> = Vec::new();
    let mut next_frame_seq: u64 = 0;
    // The client's sealer seeds its chain with its id, which is `conn`: the
    // shutdown audit holds even when a fault plan lost the hello.
    let mut chain = conn as u64;
    // A duplex receive ends only in a clean close: the client hung up.
    while let Ok(Some(bytes)) = rx.recv() {
        let Ok(frame) = decode_frame_with(&bytes, &mut interner) else {
            // Fault-tolerance contract: a frame the codec rejects —
            // truncation, bad tags, fingerprint mismatch — is dropped whole
            // and counted; the stream continues.
            stats.corrupt_frames += 1;
            continue;
        };
        match frame {
            // Resume cursors are the recoverable service's concern
            // (`service::supervisor`); here a hello only opens the stream.
            WireFrame::Hello { .. } => stats.hellos += 1,
            WireFrame::Events {
                frame_seq,
                events,
                fingerprint,
                ..
            } => {
                // Sequence audit: gaps are loss, regressions are
                // duplication/reordering.  Either way the events are still
                // delivered — the monitor's well-formedness filter decides
                // what survives — so counting is observability, not policy.
                if frame_seq > next_frame_seq {
                    stats.frame_gaps += 1;
                    next_frame_seq = frame_seq + 1;
                } else if frame_seq < next_frame_seq {
                    stats.misordered_frames += 1;
                } else {
                    next_frame_seq = frame_seq + 1;
                }
                chain = chain_fingerprint(chain, fingerprint);
                stats.frames += 1;
                stats.events += events.len() as u64;
                route_frame(router, &mut senders, events);
            }
            WireFrame::Shutdown {
                events_sent,
                stream_fingerprint,
                ..
            } => {
                stats.shutdowns += 1;
                if events_sent != stats.events || stream_fingerprint != chain {
                    stats.shutdown_mismatches += 1;
                }
            }
            WireFrame::Ping { token } => {
                // Liveness: echo the token so a client-side watchdog sees a
                // breathing replica even between verdict rounds.
                fanout.unicast(conn, &WireFrame::Pong { token });
            }
            WireFrame::Pong { .. } => {}
            WireFrame::Verdict(_) | WireFrame::Ack { .. } | WireFrame::Overloaded { .. } => {
                // These flow replica→client only.
                stats.protocol_errors += 1;
            }
        }
    }
    stats
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// A running pool of monitor replicas behind a shard router, fed over
/// in-process duplex links.
///
/// Built with [`MonitorService::in_process`].  Threads: one handler per
/// connection, plus a merge+ingest and a check thread per replica shard.
/// [`MonitorService::finish`] joins everything — call it after every client
/// has finished — and returns the [`ServiceReport`].  Clients that connect
/// over TCP use the exactly-once door, [`crate::supervisor::RecoverableService`].
///
/// # Liveness
///
/// Replicas reassemble the *global* sequence order, so a shard's merge can
/// only advance past a client's ring once that client has sent something
/// (or closed).  Mid-run checking therefore proceeds at the pace of the
/// slowest producer, and clients are expected to run on independent
/// threads: a single thread driving several clients against small
/// `conn_frames`/`ring_frames` budgets can deadlock itself through the
/// back-pressure cycle.  Give each client its own thread (the intended
/// shape), or size the buffers above the in-flight event count.
pub struct MonitorService {
    handlers: Vec<JoinHandle<ConnStats>>,
    pool: ReplicaPool,
    fanout: Arc<Fanout>,
}

impl MonitorService {
    /// Spawns a service over in-process duplex links and returns its
    /// connected clients.
    ///
    /// With [`ServiceConfig::fault`], every client→replica link runs behind
    /// its own seed-derived frame-level fault injector; the replica→client
    /// verdict plane stays clean.
    pub fn in_process(
        universe: &ObjectUniverse,
        clients: usize,
        config: ServiceConfig,
    ) -> (Vec<ServiceClient>, MonitorService) {
        let router = ShardRouter::new(config.monitor.condition, config.shards);
        let fanout = Arc::new(Fanout::new(clients, router.effective_shards()));
        let (per_conn, pool) = ReplicaPool::spawn(universe, router, clients, &config, &fanout);
        let conn_frames = config.conn_frames.max(1);
        // The verdict plane reserves one slot per shard for final
        // summaries; size the replica→client direction so a reserve exists.
        let verdict_frames = conn_frames.max(router.effective_shards() + 1);
        let seq = Arc::new(AtomicU64::new(0));
        let mut service_clients = Vec::with_capacity(clients);
        let mut handlers = Vec::with_capacity(clients);
        for (conn, senders) in per_conn.into_iter().enumerate() {
            let plan = config.fault.map(|p| p.for_shard(conn));
            let (client_tx, server_rx) = duplex(conn_frames, plan);
            let (server_tx, client_rx) = duplex(verdict_frames, None);
            service_clients.push(ServiceClient::connect(
                client_tx,
                client_rx,
                conn as u32,
                Arc::clone(&seq),
                config.frame_capacity,
            ));
            let fanout = Arc::clone(&fanout);
            handlers.push(
                std::thread::Builder::new()
                    .name(format!("evlin-svc-conn-{conn}"))
                    .spawn(move || {
                        run_handler(conn, server_rx, server_tx, senders, &fanout, router)
                    })
                    .expect("spawn handler thread"),
            );
        }
        (
            service_clients,
            MonitorService {
                handlers,
                pool,
                fanout,
            },
        )
    }

    /// Winds the service down and returns its report.
    ///
    /// Call after every client finished its stream: handlers are joined
    /// first (they exit when their client hangs up, dropping their rings),
    /// the replica shards drain and report, and finally the verdict plane is
    /// closed so [`crate::client::ClosedClient`] readers see end-of-stream.
    pub fn finish(self) -> ServiceReport {
        let connections: Vec<ConnStats> = self
            .handlers
            .into_iter()
            .map(|j| j.join().expect("handler thread"))
            .collect();
        let out = self.pool.finish();
        self.fanout.close_all();
        ServiceReport {
            verdict: out.verdict,
            shards: out.shards,
            connections,
            verdicts_dropped: self.fanout.dropped(),
            accepted_streams: out.accepted_streams,
        }
    }
}
