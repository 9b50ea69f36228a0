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
//! [`recorder::Recorder`] timestamps invocation and response events with a
//! global atomic sequence number so that the histories produced by real
//! threads can be checked offline with `evlin-checker` (the specialized
//! fetch&increment checker handles hundreds of thousands of operations) —
//! or *online*: a streaming recorder ([`Recorder::with_sink`]) feeds the
//! events, in sequence order, through a bounded SPSC [`channel`] into the
//! incremental monitor (`evlin_checker::monitor`), which verifies the run
//! *while it executes* with memory bounded by the concurrency window.
//! [`harness`] ties it together: spawn threads, run a workload, collect the
//! history and throughput statistics ([`harness::run_counter_workload`]), or
//! check the stream live ([`harness::run_counter_workload_monitored`], used
//! by experiment E11 and the `monitor_throughput` bench).
//!
//! For the fault-injection experiments, [`fault::FaultySender`] turns the
//! monitor feed into a seeded lossy/duplicating/reordering link
//! ([`Recorder::with_faulty_sink`], the `fault` argument of
//! [`harness::run_counter_workload_monitored`]), so the online
//! checker's reaction to transient *transport* faults can be measured
//! alongside the simulator's transient *state* faults.
//!
//! ## The pipelined path
//!
//! The single channel pays one lock round and one condvar notification per
//! event, which caps end-to-end checked throughput far below what the
//! monitor kernel can sustain.  The *sharded, frame-batched, pipelined*
//! dataflow removes that cap:
//!
//! * each worker thread records into its own [`recorder::RecorderShard`],
//!   which batches sequence-stamped events into pooled frames and ships
//!   them over a per-producer bounded ring ([`channel::sharded`]);
//! * a k-way [`channel::sharded::FrameMerge`] restores global sequence
//!   order at O(k) per run of consecutive items, replacing the per-event
//!   reorder buffer;
//! * the monitor is split into overlapping stages
//!   (`evlin_checker::monitor::stages`): the merge thread cuts quiescent
//!   segments ([`pump::pump`], the loop the service's replica shards run
//!   too) while a check thread runs the kernel over closed segments.
//!
//! [`harness::run_counter_workload_pipelined`] (clean, or frame-faulted via
//! its `fault` argument) wires the three stages up; its verdicts are
//! bit-identical to the single-channel path's —
//! `tests/pipeline_differential.rs` proves that against the offline kernel
//! for 1/2/8 producers, with and without frame faults.

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
    run_counter_workload, run_counter_workload_monitored, run_counter_workload_pipelined,
    CounterRun, HarnessOptions, MonitoredRun, PipelineOptions, PipelinedRun,
};
pub use recorder::{sharded_recorder, EventSink, Recorder, RecorderShard, SinkStats};
