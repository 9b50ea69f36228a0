//! # evlin-runtime
//!
//! Real multi-threaded shared objects with history recording.
//!
//! The simulator in `evlin-sim` is what makes the paper's *proofs*
//! executable; this crate is what makes the paper's *motivation* measurable.
//! The introduction argues that a fetch&increment counter used for reference
//! counting is typically built from compare&swap and that, under contention,
//! it can be acceptable to return a temporarily stale value as long as all
//! increments are eventually counted.  The experiments of EXPERIMENTS.md
//! (E8) compare, on real threads:
//!
//! * [`counter::CasCounter`] — the linearizable compare&swap retry loop;
//! * [`counter::FetchAddCounter`] — the linearizable hardware `fetch_add`;
//! * [`counter::ShardedCounter`] — an eventually consistent counter that
//!   batches increments in per-thread shards and refreshes its view of other
//!   shards only periodically, trading staleness for throughput.
//!
//! A [`recorder::RecorderShard`] per thread stamps invocation and response
//! events with a shared atomic sequence number, so the histories produced by
//! real threads can be checked *offline* with `evlin-checker` (the
//! specialized fetch&increment checker handles hundreds of thousands of
//! operations; [`harness::run_counter_workload`] spawns the threads and
//! collects the history and throughput statistics) — or *online*, by the
//! incremental monitor (`evlin_checker::monitor`), which verifies the run
//! *while it executes* with memory bounded by the concurrency window
//! ([`harness::run_counter_workload_pipelined`], used by experiments E11 and
//! E16 and the `monitor_throughput` bench).  Both record through the same
//! shards, sequence counter and well-formedness filter; only the
//! [`recorder::EventSink`] under the shard differs.
//!
//! ## The pipelined path
//!
//! * each worker thread records into its own [`recorder::RecorderShard`],
//!   which batches sequence-stamped events into pooled frames and ships
//!   them over a per-producer bounded ring ([`channel::sharded`]) — one
//!   lock round and one condvar notification per *frame*, not per event;
//! * a k-way [`channel::sharded::FrameMerge`] restores global sequence
//!   order at O(k) per run of consecutive items;
//! * the monitor is split into overlapping stages
//!   (`evlin_checker::monitor::stages`): the merge thread cuts quiescent
//!   segments ([`pump::pump`], the loop the service's replica shards run
//!   too) while a check thread runs the kernel over closed segments.
//!
//! [`harness::run_counter_workload_pipelined`] wires the three stages up;
//! its verdicts are the offline kernel's — `tests/pipeline_differential.rs`
//! proves that for 1/2/8 producers, with and without frame faults.
//!
//! For the fault-injection experiments, [`fault::FaultySender`] turns every
//! shard's ring into a seeded lossy/duplicating/reordering link (the `fault`
//! argument of [`harness::run_counter_workload_pipelined`]), so the online
//! checker's reaction to transient *transport* faults can be measured
//! alongside the simulator's transient *state* faults.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod channel;
pub mod consensus;
pub mod counter;
pub mod fault;
pub mod harness;
pub mod pump;
pub mod recorder;

pub use channel::sharded::{Frame, FrameMerge, FrameSender, MergeStats};
pub use channel::{ChannelStats, TrySendError};
pub use counter::{CasCounter, ConcurrentCounter, FetchAddCounter, ShardedCounter};
pub use fault::{ChannelFaultStats, FaultPlan, FaultySender};
pub use harness::{
    run_counter_workload, run_counter_workload_pipelined, CounterRun, HarnessOptions,
    PipelineOptions, PipelinedRun,
};
pub use recorder::{sharded_recorder, EventSink, RecorderShard, SinkStats};
