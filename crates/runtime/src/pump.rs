//! The merge→ingest pump: the one stage between the per-producer frame rings
//! and a monitor's check stage.
//!
//! Both the in-process pipeline ([`crate::harness::run_counter_workload_pipelined`])
//! and every replica shard of `evlin-service` run this loop on their merge
//! thread: pull the next globally sequence-sorted run out of the k-way
//! [`FrameMerge`], feed it to the quiescent-cut [`MonitorIngest`], and hand
//! every closed [`SegmentBatch`] to the check stage over a bounded channel
//! whose back-pressure keeps the pipeline's memory bounded when checking
//! falls behind ingestion.

use crate::channel::sharded::{FrameMerge, MergeStats};
use crate::channel::Sender;
use evlin_checker::monitor::{IngestSummary, MonitorIngest, SegmentBatch};
use evlin_history::Event;

/// Events pulled out of the merge per round.
const RUN: usize = 1024;

/// What the pump hands the check stage.
pub enum StageMsg {
    /// Closed segments, ready to check.
    Batch(SegmentBatch),
    /// The stream ended: the tail segments and the ingest stage's summary.
    /// Always the last message.
    Final(SegmentBatch, IngestSummary),
}

/// What the pump saw by the time every producer had hung up.
#[derive(Debug)]
pub struct PumpOut {
    /// The k-way merge's counters.
    pub merge: MergeStats,
    /// Events the ingest stage's well-formedness filter rejected.  Always 0
    /// on a clean transport (the recorders filter first); under frame faults
    /// a lost frame orphans responses, which is the fault surfacing, not a
    /// pipeline bug.
    pub rejected: u64,
    /// The accepted (post-filter) event stream, when `capture` was set.
    pub accepted: Option<Vec<Event>>,
}

/// Drains `merge` into `ingest` until every producer has hung up, sending
/// closed batches (then the final one) to `tx`.  A send error means the
/// check stage died; the pump still drains the rings so producers never
/// block on a dead pipeline, and the caller's join propagates the panic.
pub fn pump(
    mut merge: FrameMerge<Event>,
    mut ingest: MonitorIngest,
    tx: Sender<StageMsg>,
    capture: bool,
) -> PumpOut {
    let mut buf: Vec<(u64, Event)> = Vec::with_capacity(RUN);
    let mut rejected = 0u64;
    let mut accepted = capture.then(Vec::new);
    while merge.recv_sorted(&mut buf, RUN) > 0 {
        for (_seq, event) in buf.drain(..) {
            let copy = accepted.as_ref().map(|_| event.clone());
            if ingest.ingest(event).is_err() {
                rejected += 1;
            } else if let (Some(kept), Some(copy)) = (&mut accepted, copy) {
                kept.push(copy);
            }
        }
        while let Some(batch) = ingest.take_ready_batch() {
            if tx.send(StageMsg::Batch(batch)).is_err() {
                break;
            }
        }
    }
    let (tail, summary) = ingest.finish();
    let _ = tx.send(StageMsg::Final(tail, summary));
    PumpOut {
        merge: merge.stats(),
        rejected,
        accepted,
    }
}
