//! Recording histories from real threads.
//!
//! Every recording thread owns one [`RecorderShard`]: it filters the
//! thread's events for well-formedness, stamps the survivors with a sequence
//! number from a counter shared by all shards — that counter *is* the
//! recorded real-time order — and hands them to an [`EventSink`].  The sink
//! decides what a recording is for: a `Vec` keeps the events for an offline
//! [`History`] ([`crate::harness::run_counter_workload`]), a
//! [`FrameSender`] streams them to a live monitor ([`sharded_recorder`]),
//! and `evlin-service`'s client sink encodes them onto the wire.

use crate::channel::sharded::{self, FrameMerge, FrameSender};
use crate::fault::{ChannelFaultStats, FaultPlan};
use evlin_history::{Event, EventKind, History, ObjectId, ProcessId};
use evlin_spec::{Invocation, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters describing what a streaming shard delivered to its sink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Events delivered to the sink.
    pub emitted: usize,
    /// Events dropped because emitting them would have made the stream
    /// ill-formed (orphan responses, double invocations by a misbehaving
    /// caller).
    pub dropped_malformed: usize,
    /// Whether the sink hung up before the stream ended.
    pub disconnected: bool,
    /// Events swallowed because the sink had already hung up.  A hang-up can
    /// race the drop-time flush, so delivery failures there are *counted*
    /// rather than panicking inside `Drop`.
    pub dropped_disconnected: usize,
    /// Frames shipped below capacity: the stream tail (and explicit flushes)
    /// must reach the sink *before* the disconnect-swallowing path runs, and
    /// this counter proves the partial flush happened instead of a silent
    /// truncation.
    pub flushed_partial_frames: usize,
}

/// A destination for sequence-stamped events — the seam between recording
/// and transport.
///
/// The frame-batched [`FrameSender`] is the in-process streaming
/// implementation and a plain `Vec` the retaining one; the monitoring
/// *service* (`evlin-service`) implements the same trait over its wire
/// codec, so a [`RecorderShard`] can stream straight into a remote monitor
/// replica without the recording side knowing which transport sits
/// underneath.  Implementations receive events already well-formed and in
/// the producer's local order; `seq` values come from the shared global
/// counter and are strictly increasing per producer.
pub trait EventSink {
    /// Accepts one sequence-stamped event.
    fn accept(&mut self, seq: u64, event: Event);
    /// Pushes any buffered events toward the consumer now.
    fn flush(&mut self);
}

impl EventSink for FrameSender<Event> {
    fn accept(&mut self, seq: u64, event: Event) {
        self.push(seq, event);
    }

    fn flush(&mut self) {
        FrameSender::flush(self);
    }
}

/// Retains the events for an offline [`History`] (see `history_of`).
impl EventSink for Vec<(u64, Event)> {
    fn accept(&mut self, seq: u64, event: Event) {
        self.push((seq, event));
    }

    fn flush(&mut self) {}
}

/// The history a set of retaining shards recorded: their events, ordered by
/// the shared sequence counter.
pub(crate) fn history_of(sinks: impl IntoIterator<Item = Vec<(u64, Event)>>) -> History {
    let mut events: Vec<(u64, Event)> = sinks.into_iter().flatten().collect();
    events.sort_unstable_by_key(|(seq, _)| *seq);
    History::from_events(events.into_iter().map(|(_, e)| e).collect())
}

/// One recording thread's handle of a sharded recorder (see
/// [`sharded_recorder`] and [`RecorderShard::over`]).
///
/// A shard is owned by exactly one recording thread: threads call
/// [`RecorderShard::invoke`] right before starting an operation and
/// [`RecorderShard::respond`] right after obtaining its response.
/// Recording is a shared atomic sequence fetch plus a local vector push, and
/// a streaming sink's channel is touched once per *frame*.  Sequence numbers
/// are globally unique and increasing, so ordering events by them gives a
/// real-time order consistent with what each thread observed.  The shard
/// runs a well-formedness filter and filters *before* allocating a sequence
/// number, so a clean shard stream has no gaps and the merge's output needs
/// no gap-skipping pass.
///
/// The shard is generic over its [`EventSink`] (defaulting to the in-process
/// [`FrameSender`]); `evlin-service` plugs its wire-encoding client sink in
/// here, which is how one recording path serves both the in-process pipeline
/// and the networked service.
///
/// Contract: all events of a given process must go through the same shard
/// (the harness maps one worker thread to one shard); the per-shard pending
/// filter is exactly the global one under that mapping.
pub struct RecorderShard<S: EventSink = FrameSender<Event>> {
    seq: Arc<AtomicU64>,
    sender: S,
    /// Pending `(process, object)` pairs on this shard — a couple of
    /// entries, so a linear scan beats any map.
    pending: Vec<(ProcessId, ObjectId)>,
    dropped_malformed: usize,
}

impl<S: EventSink> RecorderShard<S> {
    /// Builds a shard that filters, sequence-stamps (from the shared
    /// counter) and forwards into `sink` — the recorder→client adapter used
    /// by the monitoring service, and over a `Vec` the offline recorder.
    pub fn over(seq: Arc<AtomicU64>, sink: S) -> Self {
        RecorderShard {
            seq,
            sender: sink,
            pending: Vec::new(),
            dropped_malformed: 0,
        }
    }

    /// Records an invocation event by `process` on `object`.
    pub fn invoke(&mut self, process: ProcessId, object: ObjectId, invocation: Invocation) {
        self.record(Event::invoke(process, object, invocation));
    }

    /// Records a response event by `process` on `object`.
    pub fn respond(&mut self, process: ProcessId, object: ObjectId, value: Value) {
        self.record(Event::respond(process, object, value));
    }

    fn record(&mut self, event: Event) {
        match &event.kind {
            EventKind::Invoke(_) => {
                if self.pending.iter().any(|(p, _)| *p == event.process) {
                    self.dropped_malformed += 1;
                    return;
                }
                self.pending.push((event.process, event.object));
            }
            EventKind::Respond(_) => {
                match self
                    .pending
                    .iter()
                    .position(|(p, o)| *p == event.process && *o == event.object)
                {
                    Some(i) => {
                        self.pending.swap_remove(i);
                    }
                    None => {
                        self.dropped_malformed += 1;
                        return;
                    }
                }
            }
        }
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.sender.accept(seq, event);
    }

    /// Ships buffered events now instead of waiting for a frame to fill.
    pub fn flush(&mut self) {
        self.sender.flush();
    }

    /// Events dropped by the well-formedness filter so far.
    pub fn dropped_malformed(&self) -> usize {
        self.dropped_malformed
    }

    /// Closes the shard, flushing buffered events, and hands the sink back
    /// together with the filter's drop count.
    pub fn into_sink(mut self) -> (S, usize) {
        self.sender.flush();
        (self.sender, self.dropped_malformed)
    }
}

impl RecorderShard<FrameSender<Event>> {
    /// Frame-granularity fault counters, if this shard streams through a
    /// faulty link.
    pub(crate) fn fault_stats(&self) -> Option<ChannelFaultStats> {
        self.sender.fault_stats()
    }

    /// Closes the shard: the partially-filled tail frame is flushed (and
    /// counted) *before* the sender hangs up — the frame-path ordering that
    /// keeps a shutdown from silently truncating the tail — and the sink
    /// counters come back in [`SinkStats`] form.
    pub fn finish(mut self) -> SinkStats {
        self.sender.flush();
        let s = self.sender.stats();
        SinkStats {
            emitted: s.events_sent,
            dropped_malformed: self.dropped_malformed,
            disconnected: s.disconnected,
            dropped_disconnected: s.dropped_disconnected,
            flushed_partial_frames: s.partial_frames,
        }
    }
}

/// Builds a sharded, frame-batched recording pipeline: one [`RecorderShard`]
/// per producer thread, a shared global sequence counter, and the k-way
/// [`FrameMerge`] whose `recv_sorted` output is the sequence-ordered event
/// stream, at a per-frame synchronization cost.  With a `plan`,
/// every shard streams through its own seed-derived frame-level fault
/// injector ([`FaultPlan::for_shard`]).
pub fn sharded_recorder(
    producers: usize,
    frame_capacity: usize,
    ring_frames: usize,
    plan: Option<FaultPlan>,
) -> (Vec<RecorderShard>, FrameMerge<Event>) {
    let (senders, merge) = sharded::sharded(producers, ring_frames, frame_capacity, plan);
    let seq = Arc::new(AtomicU64::new(0));
    let shards = senders
        .into_iter()
        .map(|sender| RecorderShard::over(Arc::clone(&seq), sender))
        .collect();
    (shards, merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_spec::FetchIncrement;

    /// `n` retaining shards over one sequence counter.
    fn vec_shards(n: usize) -> Vec<RecorderShard<Vec<(u64, Event)>>> {
        let seq = Arc::new(AtomicU64::new(0));
        (0..n)
            .map(|_| RecorderShard::over(Arc::clone(&seq), Vec::new()))
            .collect()
    }

    #[test]
    fn records_in_sequence_order() {
        assert!(history_of([]).is_empty());
        let mut shards = vec_shards(2);
        let o = ObjectId(0);
        // Two threads' worth of events, interleaved across the shards: the
        // history follows the shared counter, not the shard boundaries.
        shards[0].invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
        shards[1].invoke(ProcessId(1), o, FetchIncrement::fetch_inc());
        shards[1].respond(ProcessId(1), o, Value::from(0i64));
        shards[0].respond(ProcessId(0), o, Value::from(1i64));
        let h = history_of(shards.into_iter().map(|s| s.into_sink().0));
        assert!(h.is_well_formed());
        assert_eq!(h.len(), 4);
        assert_eq!(h.complete_operations().len(), 2);
        let processes: Vec<usize> = h.events().iter().map(|e| e.process.0).collect();
        assert_eq!(processes, [0, 1, 1, 0]);
    }

    #[test]
    fn concurrent_recording_produces_well_formed_histories() {
        let o = ObjectId(0);
        let sinks: Vec<Vec<(u64, Event)>> = std::thread::scope(|s| {
            let workers: Vec<_> = vec_shards(4)
                .into_iter()
                .enumerate()
                .map(|(t, mut shard)| {
                    s.spawn(move || {
                        for k in 0..50i64 {
                            shard.invoke(ProcessId(t), o, FetchIncrement::fetch_inc());
                            shard.respond(ProcessId(t), o, Value::from(k));
                        }
                        shard.into_sink().0
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker"))
                .collect()
        });
        let mut seqs: Vec<u64> = sinks.iter().flatten().map(|(seq, _)| *seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..400).collect::<Vec<u64>>(), "unique and gapless");
        let h = history_of(sinks);
        assert_eq!(h.len(), 4 * 50 * 2);
        assert!(h.is_well_formed());
    }

    #[test]
    fn retaining_shard_drops_malformed_events_without_a_sequence_gap() {
        let mut shard = vec_shards(1).pop().unwrap();
        let o = ObjectId(0);
        shard.invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
        shard.invoke(ProcessId(0), o, FetchIncrement::fetch_inc()); // double invoke
        shard.respond(ProcessId(1), o, Value::from(9i64)); // orphan response
        shard.respond(ProcessId(0), o, Value::from(0i64));
        assert_eq!(shard.dropped_malformed(), 2);
        let (sink, dropped) = shard.into_sink();
        assert_eq!(dropped, 2);
        let seqs: Vec<u64> = sink.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, [0, 1], "filtered events burn no sequence number");
        let h = history_of([sink]);
        assert!(h.is_well_formed());
        assert_eq!(h.complete_operations().len(), 1);
    }

    #[test]
    fn sharded_recorder_streams_the_same_well_formed_order() {
        let (shards, mut merge) = sharded_recorder(4, 8, 16, None);
        let o = ObjectId(0);
        let (events, stats): (Vec<Event>, Vec<SinkStats>) = std::thread::scope(|s| {
            let workers: Vec<_> = shards
                .into_iter()
                .enumerate()
                .map(|(t, mut shard)| {
                    s.spawn(move || {
                        for k in 0..25i64 {
                            shard.invoke(ProcessId(t), o, FetchIncrement::fetch_inc());
                            shard.respond(ProcessId(t), o, Value::from(k));
                        }
                        shard.finish()
                    })
                })
                .collect();
            let mut out = Vec::new();
            while merge.recv_sorted(&mut out, 256) > 0 {}
            (
                out.into_iter().map(|(_, e)| e).collect(),
                workers
                    .into_iter()
                    .map(|w| w.join().expect("worker"))
                    .collect(),
            )
        });
        let h = History::from_events(events);
        assert_eq!(h.len(), 200);
        assert!(h.is_well_formed());
        assert_eq!(stats.iter().map(|s| s.emitted).sum::<usize>(), 200);
        assert_eq!(stats.iter().map(|s| s.dropped_malformed).sum::<usize>(), 0);
        // 25 ops = 50 events per shard at capacity 8: a partial tail each.
        assert!(stats.iter().all(|s| s.flushed_partial_frames >= 1));
        assert_eq!(merge.stats().fingerprint_mismatches, 0);
        assert_eq!(merge.stats().misordered_frames, 0);
    }

    #[test]
    fn shard_finish_flushes_the_partial_tail_before_hanging_up() {
        // The satellite fix, pinned: a tail frame below capacity must reach
        // a live sink (counted as a flushed-partial frame), and only a sink
        // that *already* hung up may swallow it (counted, never panicking).
        let (mut shards, mut merge) = sharded_recorder(1, 64, 4, None);
        let shard = {
            let mut shard = shards.pop().unwrap();
            let o = ObjectId(0);
            shard.invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
            shard.respond(ProcessId(0), o, Value::from(0i64));
            shard
        };
        // Live sink: finish ships the 2-event partial frame.
        let stats = shard.finish();
        assert_eq!(stats.emitted, 2);
        assert_eq!(stats.flushed_partial_frames, 1);
        assert!(!stats.disconnected);
        let mut out = Vec::new();
        assert_eq!(merge.recv_sorted(&mut out, 16), 2);
        // Dead sink: the flush is swallowed and counted, not truncated away
        // silently and not a panic.
        let (mut shards, merge) = sharded_recorder(1, 64, 4, None);
        let mut shard = shards.pop().unwrap();
        let o = ObjectId(0);
        shard.invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
        drop(merge);
        let stats = shard.finish();
        assert_eq!(stats.emitted, 0);
        assert_eq!(stats.flushed_partial_frames, 0, "swallowed, not shipped");
        assert!(stats.disconnected);
        assert_eq!(stats.dropped_disconnected, 1);
    }

    #[test]
    fn shard_filters_malformed_events_before_numbering() {
        let (mut shards, mut merge) = sharded_recorder(1, 4, 16, None);
        let mut shard = shards.pop().unwrap();
        let o = ObjectId(0);
        shard.invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
        // Double invoke and an orphan response: dropped *before* a sequence
        // number is burned, so the emitted stream is gapless and well-formed.
        shard.invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
        shard.respond(ProcessId(1), o, Value::from(9i64));
        shard.respond(ProcessId(0), o, Value::from(0i64));
        let stats = shard.finish();
        assert_eq!(stats.dropped_malformed, 2);
        assert_eq!(stats.emitted, 2);
        let mut out = Vec::new();
        assert_eq!(merge.recv_sorted(&mut out, 16), 2);
        let seqs: Vec<u64> = out.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1], "no gaps from filtered events");
        assert!(History::from_events(out.into_iter().map(|(_, e)| e).collect()).is_well_formed());
    }
}
