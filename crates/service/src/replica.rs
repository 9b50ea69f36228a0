//! The replica side of the plain service: connection handlers that *detect*
//! loss, in front of the shared replica core (the crate-private `pool` module).
//!
//! ## Topology
//!
//! ```text
//!  conn 0 ──▶ handler 0 ─┐                 ┌─▶ merge+ingest 0 ──▶ check 0 ─┐
//!  conn 1 ──▶ handler 1 ─┼─ ShardRouter ──┤        …                …      ├─▶ verdicts
//!  conn … ──▶ handler … ─┘                 └─▶ merge+ingest M ──▶ check M ─┘
//! ```
//!
//! One **handler** thread per client connection decodes wire frames
//! (rejecting corruption at the codec layer), audits frame sequence numbers
//! and routes each event — by [`ShardRouter`], a pure function of the
//! [`evlin_history::ObjectId`] — into per-shard, per-producer frame rings.  Each **replica
//! shard** then runs the PR-7 staged pipeline as its inner loop: a k-way
//! merge restores global sequence order across clients, quiescent-cut
//! ingest runs on the merge thread, and kernel checking runs on its own
//! thread.  Per-object routing is sound exactly when the condition is
//! object-local ([`evlin_checker::monitor::MonitorCondition::is_object_local`]); the router
//! collapses to one shard otherwise, so a non-local condition can never be
//! silently mis-sharded.
//!
//! ## Delivery contract: loss *detection*
//!
//! This handler never refuses an event frame it could decode: gaps and
//! regressions in the per-client frame sequence are *counted*
//! ([`ConnStats`]), the events still delivered, and the shutdown frame's
//! totals and chained fingerprint audit the whole stream.  Exactly-once
//! admission (journal, dedup, ack) is the other front door,
//! [`crate::supervisor`].  Verdict rounds go back best-effort mid-run and
//! reliably at the end (the `pool` module's fanout); the same final
//! summaries come back in the [`ServiceReport`].

use crate::client::ServiceClient;
use crate::pool::{route_frame, Fanout, ReplicaPool};
use crate::transport::{duplex, tcp_pair, FrameRx, FrameTx};
use crate::wire::{chain_fingerprint, decode_frame_with, VerdictSummary, WireError, WireFrame};
use evlin_checker::monitor::{MonitorConfig, MonitorReport, MonitorVerdict, ShardRouter};
use evlin_history::{Event, ObjectUniverse};
use evlin_runtime::channel::sharded::{FrameSender, MergeStats};
use evlin_runtime::FaultPlan;
use evlin_spec::Invocation;
use std::net::SocketAddr;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
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
    /// via [`FaultPlan::for_shard`]).  Ignored by the TCP transport.
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
    /// Hello frames announcing an unsupported protocol version; the
    /// connection stops routing events after one.
    pub bad_hellos: u64,
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
// Slot claims: connection → per-shard senders
// ---------------------------------------------------------------------------

struct ClaimTable {
    slots: Mutex<Vec<Option<Vec<FrameSender<Event>>>>>,
}

impl ClaimTable {
    fn new(slots: Vec<Vec<FrameSender<Event>>>) -> Self {
        ClaimTable {
            slots: Mutex::new(slots.into_iter().map(Some).collect()),
        }
    }

    /// Claims the sender set for `client`, falling back to any free slot
    /// when the announced id is out of range or already taken (each slot
    /// feeds an equivalent ring set, so the fallback only affects
    /// attribution, never correctness).
    fn claim(&self, client: u32) -> Option<Vec<FrameSender<Event>>> {
        let mut slots = self.slots.lock().expect("claim lock");
        let preferred = client as usize;
        if let Some(set @ Some(_)) = slots.get_mut(preferred) {
            return set.take();
        }
        slots.iter_mut().find_map(|s| s.take())
    }

    /// Drops every unclaimed sender set so the merges see end-of-stream
    /// even for connections that never sent an identifiable frame.
    fn drain(&self) {
        self.slots.lock().expect("claim lock").clear();
    }
}

// ---------------------------------------------------------------------------
// Connection handler
// ---------------------------------------------------------------------------

/// What every connection handler of one service shares.
#[derive(Clone)]
struct HandlerCtx {
    claims: Arc<ClaimTable>,
    fanout: Arc<Fanout>,
    router: ShardRouter,
}

impl HandlerCtx {
    fn spawn(
        &self,
        conn: usize,
        rx: Box<dyn FrameRx>,
        tx: Box<dyn FrameTx>,
    ) -> JoinHandle<ConnStats> {
        let ctx = self.clone();
        std::thread::Builder::new()
            .name(format!("evlin-svc-conn-{conn}"))
            .spawn(move || run_handler(conn, rx, tx, &ctx))
            .expect("spawn handler thread")
    }
}

fn run_handler(
    conn: usize,
    mut rx: Box<dyn FrameRx>,
    writer: Box<dyn FrameTx>,
    ctx: &HandlerCtx,
) -> ConnStats {
    ctx.fanout.register(conn, writer);
    let mut stats = ConnStats::default();
    let mut interner: Vec<Invocation> = Vec::new();
    let mut senders: Option<Vec<FrameSender<Event>>> = None;
    let mut next_frame_seq: u64 = 0;
    let mut chain: u64 = 0;
    let mut delivered: u64 = 0;
    let mut version_rejected = false;
    loop {
        let bytes = match rx.recv() {
            Ok(Some(bytes)) => bytes,
            // A clean close and a transport failure both end the
            // connection; the failure additionally counts as corruption.
            Ok(None) => break,
            Err(_) => {
                stats.corrupt_frames += 1;
                break;
            }
        };
        let frame = match decode_frame_with(&bytes, &mut interner) {
            Ok(frame) => frame,
            Err(WireError::UnsupportedVersion(_)) => {
                // Only a hello carries a version.  The peer speaks a
                // protocol this replica does not, so nothing it sends after
                // can be trusted to mean what this decoder reads into it.
                stats.hellos += 1;
                stats.bad_hellos += 1;
                version_rejected = true;
                continue;
            }
            Err(_) => {
                // Fault-tolerance contract: a frame the codec rejects —
                // truncation, bad tags, fingerprint mismatch — is dropped
                // whole and counted; the stream continues.
                stats.corrupt_frames += 1;
                continue;
            }
        };
        match frame {
            WireFrame::Hello { client, .. } => {
                stats.hellos += 1;
                // Resume cursors are the recoverable service's concern
                // (`service::supervisor`); a plain pool treats every hello
                // as a fresh stream.
                if senders.is_none() && !version_rejected {
                    chain = client as u64;
                    senders = ctx.claims.claim(client);
                }
            }
            WireFrame::Events {
                client,
                frame_seq,
                events,
                fingerprint,
            } => {
                if version_rejected {
                    stats.protocol_errors += 1;
                    continue;
                }
                if senders.is_none() {
                    // The hello was lost (or never sent); event frames are
                    // self-describing, so adopt the id they carry.
                    chain = client as u64;
                    senders = ctx.claims.claim(client);
                }
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
                delivered += events.len() as u64;
                if let Some(senders) = &mut senders {
                    route_frame(ctx.router, senders, events);
                }
            }
            WireFrame::Shutdown {
                client: _,
                events_sent,
                stream_fingerprint,
            } => {
                stats.shutdowns += 1;
                if events_sent != delivered || stream_fingerprint != chain {
                    stats.shutdown_mismatches += 1;
                }
            }
            WireFrame::Ping { token } => {
                // Liveness: echo the token so a client-side watchdog sees a
                // breathing replica even between verdict rounds.
                ctx.fanout.unicast(conn, &WireFrame::Pong { token });
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

/// A running pool of monitor replicas behind a shard router.
///
/// Built with [`MonitorService::in_process`] (duplex channels, optionally
/// faulted) or [`MonitorService::loopback_tcp`] (real sockets).  Threads:
/// one handler per connection, plus a merge+ingest and a check thread per
/// replica shard.  [`MonitorService::finish`] joins everything — call it
/// after every client has finished — and returns the [`ServiceReport`].
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
    /// Handlers spawned directly (in-process transport)…
    handlers: Vec<JoinHandle<ConnStats>>,
    /// …and the thread accepting sockets and spawning theirs (TCP).
    acceptor: Option<JoinHandle<Vec<JoinHandle<ConnStats>>>>,
    pool: ReplicaPool,
    ctx: HandlerCtx,
}

/// Spawns the replica pool for `conns` connections and the context their
/// handlers share.
fn start(
    universe: &ObjectUniverse,
    conns: usize,
    config: &ServiceConfig,
) -> (HandlerCtx, ReplicaPool) {
    let router = ShardRouter::new(config.monitor.condition, config.shards);
    let fanout = Arc::new(Fanout::new(conns, router.effective_shards()));
    let (per_conn, pool) = ReplicaPool::spawn(universe, router, conns, config, &fanout);
    let ctx = HandlerCtx {
        claims: Arc::new(ClaimTable::new(per_conn)),
        fanout,
        router,
    };
    (ctx, pool)
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
        let (ctx, pool) = start(universe, clients, &config);
        let conn_frames = config.conn_frames.max(1);
        // The verdict plane reserves one slot per shard for final
        // summaries; size the replica→client direction so a reserve exists.
        let verdict_frames = conn_frames.max(ctx.router.effective_shards() + 1);
        let seq = Arc::new(AtomicU64::new(0));
        let mut service_clients = Vec::with_capacity(clients);
        let mut handler_joins = Vec::with_capacity(clients);
        for conn in 0..clients {
            let plan = config.fault.map(|p| p.for_shard(conn));
            let (client_tx, server_rx) = duplex(conn_frames, plan);
            let (server_tx, client_rx) = duplex(verdict_frames, None);
            let client = ServiceClient::connect(
                Box::new(client_tx),
                Box::new(client_rx),
                conn as u32,
                Arc::clone(&seq),
                config.frame_capacity,
            )
            .expect("duplex hello cannot fail: the ring is empty and open");
            service_clients.push(client);
            handler_joins.push(ctx.spawn(conn, Box::new(server_rx), Box::new(server_tx)));
        }
        (
            service_clients,
            MonitorService {
                handlers: handler_joins,
                acceptor: None,
                pool,
                ctx,
            },
        )
    }

    /// Spawns a service listening on an ephemeral loopback TCP port,
    /// expecting exactly `clients` connections
    /// (via [`ServiceClient::connect_tcp`]).
    ///
    /// Returns the address to connect to.  [`ServiceConfig::fault`] is
    /// ignored: fault injection is a property of the in-process shim; TCP
    /// delivers frames reliably or not at all.
    pub fn loopback_tcp(
        universe: &ObjectUniverse,
        clients: usize,
        config: ServiceConfig,
    ) -> std::io::Result<(SocketAddr, MonitorService)> {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let (ctx, pool) = start(universe, clients, &config);
        let acceptor_ctx = ctx.clone();
        let acceptor = std::thread::Builder::new()
            .name("evlin-svc-accept".into())
            .spawn(move || {
                let mut joins = Vec::with_capacity(clients);
                for conn in 0..clients {
                    let Ok((stream, _)) = listener.accept() else {
                        break;
                    };
                    let _ = stream.set_nodelay(true);
                    let Ok((tx, rx)) = tcp_pair(stream) else {
                        continue;
                    };
                    joins.push(acceptor_ctx.spawn(conn, Box::new(rx), Box::new(tx)));
                }
                joins
            })
            .expect("spawn acceptor thread");
        Ok((
            addr,
            MonitorService {
                handlers: Vec::new(),
                acceptor: Some(acceptor),
                pool,
                ctx,
            },
        ))
    }

    /// Winds the service down and returns its report.
    ///
    /// Call after every client finished its stream: handlers are joined
    /// first (they exit on connection end-of-stream), unclaimed rings are
    /// released, the replica shards drain and report, and finally the
    /// verdict plane is closed so [`crate::client::ClosedClient`] readers
    /// see end-of-stream.
    pub fn finish(self) -> ServiceReport {
        let mut handlers = self.handlers;
        if let Some(acceptor) = self.acceptor {
            handlers.extend(acceptor.join().expect("acceptor thread"));
        }
        let connections: Vec<ConnStats> = handlers
            .into_iter()
            .map(|j| j.join().expect("handler thread"))
            .collect();
        // Connections that never identified themselves still hold ring
        // slots; release them so the merges can reach end-of-stream.
        self.ctx.claims.drain();
        let out = self.pool.finish();
        self.ctx.fanout.close_all();
        ServiceReport {
            verdict: out.verdict,
            shards: out.shards,
            connections,
            verdicts_dropped: self.ctx.fanout.dropped(),
            accepted_streams: out.accepted_streams,
        }
    }
}
