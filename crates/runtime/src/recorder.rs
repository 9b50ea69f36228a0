//! Recording histories from real threads.

use crate::channel::sharded::{self, FrameMerge, FrameSender};
use crate::channel::{SendError, Sender};
use crate::fault::{ChannelFaultStats, FaultPlan, FaultySender};
use evlin_history::{Event, EventKind, History, ObjectId, ProcessId};
use evlin_spec::{Invocation, Value};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A concurrent event recorder.
///
/// Threads call [`Recorder::invoke`] right before starting an operation and
/// [`Recorder::respond`] right after obtaining its response.  Events receive
/// globally unique, monotonically increasing sequence numbers from an atomic
/// counter, and the final history orders events by that sequence number, so
/// the recorded real-time order is consistent with what each thread observed.
///
/// Recording costs one atomic increment plus one short critical section per
/// event; the experiments that measure raw throughput therefore also support
/// running with recording disabled.
///
/// ## Streaming
///
/// A recorder built with [`Recorder::with_sink`] additionally *streams* the
/// events, in sequence order, into a bounded [`crate::channel`] — the feed of
/// the online monitor (`evlin_checker::monitor`).  Because a thread obtains
/// its sequence number before it appends the event, events can reach the
/// recorder slightly out of order; a small reorder buffer holds back events
/// until their predecessors have arrived, so the consumer always sees the
/// true sequence order.
///
/// On early shutdown (drop, or [`Recorder::into_history`] while operations
/// are still in flight) the reorder buffer is flushed: held-back events are
/// emitted in sequence order, skipping unfillable gaps, and filtered so the
/// emitted stream stays *well-formed* — an operation whose response never
/// arrived appears as a pending invocation that the checkers treat as
/// pending, rather than being silently truncated or leaving an orphan
/// response behind.
pub struct Recorder {
    next: AtomicUsize,
    inner: Mutex<Inner>,
}

struct Inner {
    /// `(seq, event)` pairs kept for [`Recorder::into_history`] /
    /// [`Recorder::snapshot`]; disabled for pure streaming so memory stays
    /// bounded on arbitrarily long runs.
    retained: Vec<(usize, Event)>,
    retain: bool,
    stream: Option<StreamState>,
}

/// Counters describing what a streaming recorder delivered to its sink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Events delivered to the sink.
    pub emitted: usize,
    /// Events dropped because emitting them would have made the stream
    /// ill-formed (orphan responses after a lost invocation, double
    /// invocations by a misbehaving caller).
    pub dropped_malformed: usize,
    /// Events flushed past an unfillable sequence gap on shutdown, plus
    /// events that arrived only after a flush had already walked past their
    /// sequence number (emitted late rather than stranded).
    pub flushed_past_gap: usize,
    /// Whether the sink hung up before the stream ended.
    pub disconnected: bool,
    /// Events swallowed because the sink had already hung up.  A hang-up can
    /// race the drop-time flush, so delivery failures there are *counted*
    /// rather than panicking inside `Drop`.
    pub dropped_disconnected: usize,
    /// Frames shipped below capacity by the frame-batched path
    /// ([`RecorderShard`]): the stream tail (and explicit flushes) must
    /// reach the sink *before* the disconnect-swallowing path runs, and this
    /// counter proves the partial flush happened instead of a silent
    /// truncation.  Always 0 on the per-event path.
    pub flushed_partial_frames: usize,
}

/// The recorder's downstream link: the bounded channel sender, either bare
/// or behind the transient-fault injector of [`crate::fault`].
enum Sink {
    Clean(Sender<Event>),
    Faulty(FaultySender<Event>),
}

impl Sink {
    fn send(&mut self, event: Event) -> Result<(), SendError<Event>> {
        match self {
            Sink::Clean(sender) => sender.send(event),
            Sink::Faulty(faulty) => faulty.send(event),
        }
    }

    /// Pushes a held-back (reordered) event through; a no-op for clean links.
    fn flush(&mut self) {
        if let Sink::Faulty(faulty) = self {
            let _ = faulty.flush();
        }
    }

    fn fault_stats(&self) -> Option<ChannelFaultStats> {
        match self {
            Sink::Clean(_) => None,
            Sink::Faulty(faulty) => Some(faulty.stats()),
        }
    }
}

struct StreamState {
    sender: Option<Sink>,
    /// The next sequence number to emit.
    next_emit: usize,
    /// Events that arrived ahead of a missing predecessor.
    reorder: BTreeMap<usize, Event>,
    /// Per-process pending-operation tracking, to keep the emitted stream
    /// well-formed across flushes.
    pending: BTreeMap<ProcessId, ObjectId>,
    stats: SinkStats,
}

impl StreamState {
    fn new(sender: Sink) -> Self {
        StreamState {
            sender: Some(sender),
            next_emit: 0,
            reorder: BTreeMap::new(),
            pending: BTreeMap::new(),
            stats: SinkStats::default(),
        }
    }

    /// Offers one event; emits it (and any events it unblocks) if the stream
    /// has caught up to its sequence number.
    fn offer(&mut self, seq: usize, event: Event) {
        if seq < self.next_emit {
            // A flush already walked past this sequence number (the
            // recording thread was descheduled between reserving the number
            // and appending the event).  Emit it late through the
            // well-formedness filter rather than stranding it in the
            // reorder buffer forever.
            self.stats.flushed_past_gap += 1;
            self.emit(event);
            return;
        }
        self.reorder.insert(seq, event);
        while let Some(event) = self.reorder.remove(&self.next_emit) {
            self.next_emit += 1;
            self.emit(event);
        }
    }

    /// Emits one event through the well-formedness filter.
    fn emit(&mut self, event: Event) {
        match &event.kind {
            EventKind::Invoke(_) => {
                if self.pending.contains_key(&event.process) {
                    self.stats.dropped_malformed += 1;
                    return;
                }
                self.pending.insert(event.process, event.object);
            }
            EventKind::Respond(_) => match self.pending.get(&event.process) {
                Some(object) if *object == event.object => {
                    self.pending.remove(&event.process);
                }
                _ => {
                    self.stats.dropped_malformed += 1;
                    return;
                }
            },
        }
        if let Some(sender) = &mut self.sender {
            if sender.send(event).is_ok() {
                self.stats.emitted += 1;
            } else {
                self.stats.disconnected = true;
                self.stats.dropped_disconnected += 1;
                self.sender = None;
            }
        } else {
            // The sink hung up earlier; later events (including the
            // drop-time flush of the reorder buffer) are swallowed and
            // counted, never panicked on.
            self.stats.dropped_disconnected += 1;
        }
    }

    /// Emits everything still held back, in sequence order, skipping gaps
    /// that can no longer be filled.  Open operations come out as pending
    /// invocations; responses orphaned by a gap are dropped by the
    /// well-formedness filter.
    fn flush(&mut self) {
        let held = std::mem::take(&mut self.reorder);
        for (seq, event) in held {
            if seq >= self.next_emit {
                if seq > self.next_emit {
                    self.stats.flushed_past_gap += 1;
                }
                self.next_emit = seq + 1;
                self.emit(event);
            }
        }
        if let Some(sender) = &mut self.sender {
            sender.flush();
        }
    }
}

impl Drop for StreamState {
    fn drop(&mut self) {
        // Dropping the recorder mid-run must still hand the tail to the
        // sink (and then hang up by dropping the sender).
        self.flush();
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Recorder")
            .field("events", &inner.retained.len())
            .field("streaming", &inner.stream.is_some())
            .finish()
    }
}

impl Recorder {
    /// Creates an empty recorder that retains every event for
    /// [`Recorder::into_history`].
    pub fn new() -> Self {
        Recorder {
            next: AtomicUsize::new(0),
            inner: Mutex::new(Inner {
                retained: Vec::new(),
                retain: true,
                stream: None,
            }),
        }
    }

    /// Creates a recorder that streams events, in sequence order, into
    /// `sink`.  With `retain_events` set the events are additionally kept
    /// for [`Recorder::into_history`]; without it, memory stays bounded by
    /// the reorder window no matter how long the run is.
    pub fn with_sink(sink: Sender<Event>, retain_events: bool) -> Self {
        Recorder {
            next: AtomicUsize::new(0),
            inner: Mutex::new(Inner {
                retained: Vec::new(),
                retain: retain_events,
                stream: Some(StreamState::new(Sink::Clean(sink))),
            }),
        }
    }

    /// Like [`Recorder::with_sink`], but streaming through a transient-fault
    /// channel ([`crate::fault::FaultySender`]) that loses, duplicates or
    /// reorders events per the seeded `plan` — the feed of the
    /// fault-injection experiments, where the online monitor must flag a
    /// corrupted stream and forgive a corrupted-but-quiesced prefix.
    pub fn with_faulty_sink(sink: Sender<Event>, plan: FaultPlan, retain_events: bool) -> Self {
        Recorder {
            next: AtomicUsize::new(0),
            inner: Mutex::new(Inner {
                retained: Vec::new(),
                retain: retain_events,
                stream: Some(StreamState::new(Sink::Faulty(FaultySender::new(
                    sink, plan,
                )))),
            }),
        }
    }

    /// Counters of the faults the sink's channel injected, if this recorder
    /// streams through a faulty sink ([`Recorder::with_faulty_sink`]).
    pub fn channel_fault_stats(&self) -> Option<ChannelFaultStats> {
        self.inner
            .lock()
            .stream
            .as_ref()
            .and_then(|s| s.sender.as_ref())
            .and_then(|sink| sink.fault_stats())
    }

    fn record(&self, event: Event) {
        let seq = self.next.fetch_add(1, Ordering::SeqCst);
        let mut inner = self.inner.lock();
        if inner.retain {
            inner.retained.push((seq, event.clone()));
        }
        if let Some(stream) = &mut inner.stream {
            stream.offer(seq, event);
        }
    }

    /// Records an invocation event by `process` on `object`.
    pub fn invoke(&self, process: ProcessId, object: ObjectId, invocation: Invocation) {
        self.record(Event::invoke(process, object, invocation));
    }

    /// Records a response event by `process` on `object`.
    pub fn respond(&self, process: ProcessId, object: ObjectId, value: Value) {
        self.record(Event::respond(process, object, value));
    }

    /// Number of events recorded so far (sequence numbers handed out).
    pub fn len(&self) -> usize {
        self.next.load(Ordering::SeqCst)
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flushes the streaming sink: held-back events are emitted in sequence
    /// order past any unfillable gap, keeping the emitted stream well-formed.
    /// A no-op for non-streaming recorders.
    pub fn flush_sink(&self) {
        if let Some(stream) = &mut self.inner.lock().stream {
            stream.flush();
        }
    }

    /// Counters of the streaming sink, if this recorder has one.
    pub fn sink_stats(&self) -> Option<SinkStats> {
        self.inner.lock().stream.as_ref().map(|s| s.stats)
    }

    /// Extracts the recorded history, ordered by sequence number.
    ///
    /// For a streaming recorder this also flushes the sink and hangs up
    /// (open operations reach the sink as pending invocations first).  A
    /// streaming recorder built without `retain_events` returns an empty
    /// history — the events went to the sink instead.
    pub fn into_history(self) -> History {
        let inner = self.inner.into_inner();
        // Dropping the stream state flushes the tail into the sink and then
        // drops the sender, closing the channel.
        drop(inner.stream);
        let mut events = inner.retained;
        events.sort_by_key(|(seq, _)| *seq);
        History::from_events(events.into_iter().map(|(_, e)| e).collect())
    }

    /// Clones the recorded history without consuming the recorder.
    pub fn snapshot(&self) -> History {
        let mut events = self.inner.lock().retained.clone();
        events.sort_by_key(|(seq, _)| *seq);
        History::from_events(events.into_iter().map(|(_, e)| e).collect())
    }
}

/// A destination for sequence-stamped events — the seam between recording
/// and transport.
///
/// The frame-batched [`FrameSender`] is the in-process implementation; the
/// monitoring *service* (`evlin-service`) implements the same trait over its
/// wire codec, so a [`RecorderShard`] can stream straight into a remote
/// monitor replica without the recording side knowing which transport sits
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

/// One producer's handle of a sharded, frame-batched recorder
/// (see [`sharded_recorder`]).
///
/// Where [`Recorder`] funnels every event through one mutex and one
/// per-event channel send, a shard is owned by exactly one recording thread:
/// recording is a shared atomic sequence fetch plus a local vector push, and
/// the channel is touched once per *frame*.  The shard runs its own
/// well-formedness filter (the same rules as the streaming recorder's) and
/// filters *before* allocating a sequence number, so a clean shard stream
/// has no gaps and the merge's output needs no gap-skipping pass.
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
    /// by the monitoring service.
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
    pub fn fault_stats(&self) -> Option<ChannelFaultStats> {
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
            flushed_past_gap: 0,
            disconnected: s.disconnected,
            dropped_disconnected: s.dropped_disconnected,
            flushed_partial_frames: s.partial_frames,
        }
    }
}

/// Builds a sharded, frame-batched recording pipeline: one [`RecorderShard`]
/// per producer thread, a shared global sequence counter, and the k-way
/// [`FrameMerge`] whose `recv_sorted` output is the same
/// sequence-ordered event stream the single-channel [`Recorder`] delivers —
/// at a per-frame instead of per-event synchronization cost.  With a `plan`,
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
        .map(|sender| RecorderShard {
            seq: Arc::clone(&seq),
            sender,
            pending: Vec::new(),
            dropped_malformed: 0,
        })
        .collect();
    (shards, merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel;
    use evlin_spec::FetchIncrement;
    use std::sync::Arc;

    #[test]
    fn records_in_sequence_order() {
        let r = Recorder::new();
        let o = ObjectId(0);
        r.invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
        r.respond(ProcessId(0), o, Value::from(0i64));
        r.invoke(ProcessId(1), o, FetchIncrement::fetch_inc());
        r.respond(ProcessId(1), o, Value::from(1i64));
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        let h = r.into_history();
        assert!(h.is_well_formed());
        assert_eq!(h.complete_operations().len(), 2);
    }

    #[test]
    fn concurrent_recording_produces_well_formed_histories() {
        let r = Arc::new(Recorder::new());
        let o = ObjectId(0);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    for k in 0..50i64 {
                        r.invoke(ProcessId(t), o, FetchIncrement::fetch_inc());
                        r.respond(ProcessId(t), o, Value::from(k));
                    }
                });
            }
        });
        let h = Arc::try_unwrap(r)
            .expect("all threads joined")
            .into_history();
        assert_eq!(h.len(), 4 * 50 * 2);
        assert!(h.is_well_formed());
    }

    #[test]
    fn snapshot_does_not_consume() {
        let r = Recorder::new();
        let o = ObjectId(0);
        r.invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        r.respond(ProcessId(0), o, Value::from(0i64));
        assert_eq!(r.snapshot().len(), 2);
        assert!(r.snapshot().is_well_formed());
    }

    #[test]
    fn empty_recorder_yields_empty_history() {
        let r = Recorder::new();
        assert!(r.is_empty());
        assert!(r.into_history().is_empty());
    }

    #[test]
    fn streaming_delivers_events_in_sequence_order() {
        let (tx, rx) = channel::bounded(8);
        let o = ObjectId(0);
        let consumer = std::thread::spawn(move || {
            let mut events = Vec::new();
            while let Some(e) = rx.recv() {
                events.push(e);
            }
            events
        });
        {
            let r = Arc::new(Recorder::with_sink(tx, true));
            std::thread::scope(|s| {
                for t in 0..4usize {
                    let r = Arc::clone(&r);
                    s.spawn(move || {
                        for k in 0..25i64 {
                            r.invoke(ProcessId(t), o, FetchIncrement::fetch_inc());
                            r.respond(ProcessId(t), o, Value::from(k));
                        }
                    });
                }
            });
            let retained = Arc::try_unwrap(r).expect("joined").into_history();
            assert_eq!(retained.len(), 200);
        }
        let streamed = History::from_events(consumer.join().expect("consumer"));
        assert_eq!(streamed.len(), 200);
        assert!(streamed.is_well_formed());
    }

    #[test]
    fn drop_flushes_pending_tail_as_well_formed_open_operations() {
        let (tx, rx) = channel::bounded(8);
        let o = ObjectId(0);
        let r = Recorder::with_sink(tx, false);
        r.invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
        r.respond(ProcessId(0), o, Value::from(0i64));
        // An operation still in flight when the recorder dies...
        r.invoke(ProcessId(1), o, FetchIncrement::fetch_inc());
        let stats = r.sink_stats().expect("streaming");
        drop(r); // early shutdown: flush + hang up
        let streamed: Vec<Event> = std::iter::from_fn(|| rx.recv()).collect();
        let h = History::from_events(streamed);
        // ...reaches the sink as a *pending* invocation, not a truncation.
        assert!(h.is_well_formed());
        assert_eq!(h.len(), 3);
        assert_eq!(h.pending_operations().len(), 1);
        assert_eq!(stats.dropped_malformed, 0);
    }

    #[test]
    fn flush_skips_gaps_but_never_emits_orphan_responses() {
        let (tx, rx) = channel::bounded(16);
        let o = ObjectId(0);
        let r = Recorder::with_sink(tx, false);
        // Simulate a lost event: burn sequence number 0 so every real event
        // is held back behind the gap...
        r.next.fetch_add(1, Ordering::SeqCst);
        r.invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
        r.respond(ProcessId(0), o, Value::from(0i64));
        assert_eq!(r.sink_stats().expect("streaming").emitted, 0);
        // ...until the flush walks past it and emits the well-formed tail.
        r.flush_sink();
        let stats = r.sink_stats().expect("streaming");
        assert_eq!(stats.emitted, 2);
        assert!(stats.flushed_past_gap > 0);
        drop(r);
        let h = History::from_events(std::iter::from_fn(|| rx.recv()).collect());
        assert!(h.is_well_formed());
        assert_eq!(h.complete_operations().len(), 1);
    }

    #[test]
    fn late_event_after_flush_is_emitted_not_stranded() {
        let (tx, rx) = channel::bounded(8);
        let o = ObjectId(0);
        let r = Recorder::with_sink(tx, false);
        // Sequence number 0 is reserved but its event is delayed (the
        // recording thread was descheduled mid-`record`)...
        r.next.fetch_add(1, Ordering::SeqCst);
        // ...a complete operation queues up behind the gap and a flush walks
        // past it...
        r.invoke(ProcessId(1), o, FetchIncrement::fetch_inc());
        r.respond(ProcessId(1), o, Value::from(1i64));
        r.flush_sink();
        assert_eq!(r.sink_stats().unwrap().emitted, 2);
        // ...and when the delayed event finally lands it is emitted late
        // (well-formedness preserved), not silently discarded.
        r.inner.lock().stream.as_mut().unwrap().offer(
            0,
            Event::invoke(ProcessId(0), o, FetchIncrement::fetch_inc()),
        );
        let stats = r.sink_stats().unwrap();
        assert_eq!(stats.emitted, 3);
        assert_eq!(stats.dropped_malformed, 0);
        drop(r);
        let h = History::from_events(std::iter::from_fn(|| rx.recv()).collect());
        assert!(h.is_well_formed());
        assert_eq!(h.complete_operations().len(), 1);
        assert_eq!(h.pending_operations().len(), 1);
    }

    #[test]
    fn orphan_response_after_lost_invoke_is_dropped() {
        let (tx, rx) = bounded_pair();
        let o = ObjectId(0);
        let r = Recorder::with_sink(tx, false);
        // The invocation's sequence number is burned (thread died between
        // reserving the number and appending the event)...
        r.next.fetch_add(1, Ordering::SeqCst);
        // ...but its response still arrives.
        r.respond(ProcessId(0), o, Value::from(0i64));
        drop(r);
        let streamed: Vec<Event> = std::iter::from_fn(|| rx.recv()).collect();
        assert!(streamed.is_empty(), "orphan response must be dropped");
    }

    fn bounded_pair() -> (Sender<Event>, crate::channel::Receiver<Event>) {
        channel::bounded(8)
    }

    #[test]
    fn hung_up_sink_is_swallowed_and_counted_not_panicked() {
        let (tx, rx) = channel::bounded(8);
        let o = ObjectId(0);
        let r = Recorder::with_sink(tx, false);
        r.invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
        r.respond(ProcessId(0), o, Value::from(0i64));
        drop(rx); // the monitor died mid-run
                  // The next emit observes the hang-up...
        r.invoke(ProcessId(1), o, FetchIncrement::fetch_inc());
        // ...and an event held back behind a sequence gap is flushed into
        // the dead sink without panicking, counted in the stats.
        r.next.fetch_add(1, Ordering::SeqCst);
        r.invoke(ProcessId(2), o, FetchIncrement::fetch_inc());
        r.flush_sink();
        let stats = r.sink_stats().expect("streaming");
        assert_eq!(stats.emitted, 2);
        assert!(stats.disconnected);
        assert_eq!(stats.dropped_disconnected, 2);
        drop(r); // the drop-time flush on a dead sink is a quiet no-op
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

    #[test]
    fn streaming_without_retention_keeps_into_history_empty() {
        let (tx, rx) = channel::bounded(8);
        let o = ObjectId(0);
        let r = Recorder::with_sink(tx, false);
        r.invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
        r.respond(ProcessId(0), o, Value::from(0i64));
        assert_eq!(r.len(), 2);
        assert!(r.into_history().is_empty());
        assert_eq!(std::iter::from_fn(|| rx.recv()).count(), 2);
    }
}
