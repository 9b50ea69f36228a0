//! Sharded online-monitoring **service**: the client/replica split of the
//! `evlin` monitor, with a documented wire protocol.
//!
//! The in-process pipeline (PR 7) put the recorder and the staged monitor in
//! one address space.  This crate promotes that dataflow into a service: *N*
//! producer clients encode their recorded events into compact binary frames
//! and stream them over a transport to a pool of monitor **replicas**, one
//! per object shard.  Sharding by object is sound precisely for the
//! object-local conditions of Guerraoui & Ruppert — linearizability is
//! local (Herlihy & Wing), so per-object verdicts recompose into the global
//! verdict; the non-local conditions collapse to a single replica rather
//! than risk an unsound split.
//!
//! ## One core, two front doors
//!
//! [`MonitorService`] and [`RecoverableService`] are two front doors onto one
//! replica core, each part of which exists once: the **pool** (`pool`,
//! crate-private: per-shard rings, merge+ingest and check threads, the frame
//! router, the verdict fanout, report assembly), the **pump**
//! ([`evlin_runtime::pump`], the merge → ingest loop the in-process pipeline
//! runs too) and the **framer** (in [`client`]: one frame sealer under both
//! client types, one verdict-plane drain behind both closed clients).  The
//! two connection-handler loops stay separate on purpose — they implement
//! different **delivery contracts** over the same frames of the one spoken
//! protocol version: [`replica`]'s is a loss *detector* (sequence gaps
//! counted, events still delivered, shutdown totals audited), [`supervisor`]'s
//! an exactly-once *admitter* (journal, one fsync per batch of frames, dedup by
//! sequence, ack), whose rules live in [`session`]'s two I/O-free machines.  Each door has one transport: [`MonitorService`] in-process
//! duplex links, whose fault injector is what the loss detector is for, and
//! [`RecoverableService`] TCP, where a dead connection is repaired, not counted.
//!
//! ## Module map
//!
//! | module | role |
//! |---|---|
//! | [`wire`] | frame codec: byte layouts, fingerprints, the single spoken version (see `docs/PROTOCOL.md`) |
//! | [`transport`] | how frames move: in-process duplex (optionally faulted), loopback TCP, bounded and non-waiting receives, `transport::ChaosPlan` |
//! | [`client`] | producer side: the shared frame sealer and verdict drain; [`ServiceClient`], a recorder shard over a wire-frame sink |
//! | `pool` | the shared replica core: shard pool lifecycle, frame router, verdict fanout |
//! | [`replica`] | loss-detecting front door, in-process only: connection handlers that own their slot's rings, [`MonitorService`] |
//! | [`journal`] | `EVJL` per-session fsynced frame journal: append, sync per batch, roll back a failed one, torn-tail recovery |
//! | [`session`] | the exactly-once protocol as two machines that do no I/O: the replica's admit/group-commit/ack/shed state and the client's window, attach, ping and reconnect; seeded backoff; a model test over every schedule at small scope |
//! | [`supervisor`] | exactly-once front door: one driver loop per side (sockets, clock, slot locks, journal files), journal-replay restart, watchdog, [`RecoverableClient`] |
//!
//! ## Example
//!
//! An in-process service run, two clients, four replica shards:
//!
//! ```
//! use evlin_checker::monitor::{MonitorCondition, MonitorConfig};
//! use evlin_history::{ObjectId, ObjectUniverse, ProcessId};
//! use evlin_service::{MonitorService, ServiceConfig};
//! use evlin_spec::{FetchIncrement, Value};
//!
//! let mut universe = ObjectUniverse::new();
//! for _ in 0..8 {
//!     universe.add_object(FetchIncrement::new());
//! }
//! let config = ServiceConfig {
//!     shards: 4,
//!     monitor: MonitorConfig::for_condition(MonitorCondition::Linearizability),
//!     ..ServiceConfig::default()
//! };
//! let (mut clients, service) = MonitorService::in_process(&universe, 2, config);
//!
//! // Each client records complete operations on its own process; every
//! // response reports the object's true sequential counter value, so the
//! // recorded history is linearizable by construction.
//! let mut next = vec![0i64; 8];
//! for (c, client) in clients.iter_mut().enumerate() {
//!     let process = ProcessId(c);
//!     for i in 0..16usize {
//!         let object = ObjectId(i % 8);
//!         client.invoke(process, object, FetchIncrement::fetch_inc());
//!         client.respond(process, object, Value::Int(next[i % 8]));
//!         next[i % 8] += 1;
//!     }
//! }
//!
//! // Wind down: clients first, then the service.
//! let closed: Vec<_> = clients.into_iter().map(|c| c.finish()).collect();
//! let report = service.finish();
//! assert!(report.verdict.is_ok());
//! assert_eq!(report.events(), 64);
//!
//! // Every client received each shard's reliable final verdict.
//! for closed in closed {
//!     let report = closed.collect_verdicts();
//!     assert_eq!(report.final_summaries().len(), 4);
//! }
//! ```
//!
//! Over TCP the front door is [`RecoverableService`], with one
//! [`RecoverableClient`] per connection; see `examples/recovery_demo.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod journal;
mod pool;
pub mod replica;
pub mod session;
pub mod supervisor;
pub mod transport;
pub mod wire;

pub use client::{ClientReport, ClientStats, ClosedClient, ServiceClient};
pub use journal::{Journal, JournalError};
pub use replica::{ConnStats, MonitorService, ServiceConfig, ServiceReport, ShardReport};
pub use session::{Backoff, RetriesExhausted, SessionError};
pub use supervisor::{
    ClientRecoveryConfig, ClosedRecoverableClient, ReconnectChaos, RecoverableClient,
    RecoverableClientReport, RecoverableClientStats, RecoverableService, RecoveryConfig,
    RecoveryReport, SessionStats,
};
pub use transport::{FrameRx, FrameTx};
pub use wire::{ResumeCursor, VerdictSummary, WireError, WireFrame, VERSION};
