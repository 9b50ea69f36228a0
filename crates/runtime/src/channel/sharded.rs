//! Per-producer, frame-batched rings with a k-way sequence merge.
//!
//! A [`crate::channel`] send costs one lock round and one condvar
//! notification; paid *per event*, at millions of events per second, that
//! traffic (see [`super::ChannelStats`]) would dominate the monitored
//! runtime.  This module is the sharded transport of the pipelined ingest
//! path, which pays it per frame:
//!
//! * every producer owns a [`FrameSender`] writing into its **own** bounded
//!   ring, so producers never contend with each other — only with the
//!   consumer draining their ring;
//! * events are shipped in fixed-capacity [`Frame`]s whose buffers are
//!   recycled through a shared `FramePool`, so the steady state allocates
//!   nothing and pays one channel round trip per *frame*.  Per *event*
//!   the rings cost a push, a move and a comparison; the rest of what a
//!   transported item costs is building it on the producer's thread and
//!   dropping it on the consumer's, so `T` should be plain data — as an
//!   `evlin_history::Event` recording a nullary spec-vocabulary call is
//!   (56 bytes, no allocation, no reference count);
//! * each item carries the producer-assigned global sequence number, and a
//!   [`FrameMerge`] on the consumer side k-way-merges the per-shard streams
//!   back into global sequence order at an O(k) head comparison per *run*
//!   of consecutive items, read through a cursor over the arrived buffer
//!   (nothing is reversed or shifted);
//! * every frame carries a fingerprint of its sequence run
//!   ([`evlin_checker::fold_words`], folded straight from the items on
//!   both sides), verified on arrival, so transport
//!   bugs surface as counted mismatches instead of silent misorderings —
//!   the same discipline as the stabilizing data-link constructions for
//!   non-FIFO channels, where sequence tags are what let the receiver
//!   reconstruct the sender's order.
//!
//! Deadlock-freedom: a producer blocks only on its **own** full ring, and
//! the merge blocks only on an **empty open** ring; draining one ring never
//! requires a different producer to make progress, so as long as every
//! producer eventually flushes or hangs up, the merge terminates.
//!
//! Transient faults compose at *frame* granularity: pass a
//! [`FaultPlan`] and each shard's ring runs behind
//! its own seeded [`FaultySender`]`<Frame<T>>` that loses, duplicates or
//! adjacently reorders whole frames, with the usual conservation-checked
//! stats (`delivered + lost == frames + duplicated`, in frames).  The merge
//! tolerates the resulting per-shard disorder — misordered frames are
//! counted and emitted by head sequence anyway — and the monitor's
//! well-formedness filter downstream decides what survives.

use crate::channel::{self, Receiver, SendError, Sender, TrySendError};
use crate::fault::{ChannelFaultStats, FaultPlan, FaultySender};
use evlin_checker::fold_word_iter;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Upper bound on buffers parked in a [`FramePool`]; beyond it, spent
/// buffers are simply dropped (the pool is an allocation damper, not a leak).
const POOL_LIMIT: usize = 64;

/// One batch of sequence-stamped items from a single producer.
///
/// `fingerprint` covers the sequence run (seeded with the producer index) so
/// the receiving side can verify the frame arrived intact and attributable.
pub struct Frame<T> {
    /// Index of the producing shard.
    pub producer: usize,
    /// The `(global sequence number, item)` run, in send order.
    pub items: Vec<(u64, T)>,
    /// `fold_words(producer, sequence numbers)` at send time.
    pub fingerprint: u64,
}

impl<T: Clone> Clone for Frame<T> {
    fn clone(&self) -> Self {
        Frame {
            producer: self.producer,
            items: self.items.clone(),
            fingerprint: self.fingerprint,
        }
    }
}

/// The fingerprint a frame should carry: `fold_words(producer, sequence
/// numbers of items)`, folded straight from the items.
fn sequence_fingerprint<T>(producer: usize, items: &[(u64, T)]) -> u64 {
    fold_word_iter(producer as u64, items.iter().map(|(seq, _)| *seq))
}

/// A shared pool of spent frame buffers, so the steady-state path reuses
/// allocations: the merge returns drained buffers here and every
/// [`FrameSender`] draws its next buffer from the same pool.
pub(crate) struct FramePool<T> {
    bufs: Arc<Mutex<Vec<FrameBuf<T>>>>,
}

/// One frame's backing storage: `(sequence, item)` pairs in push order.
type FrameBuf<T> = Vec<(u64, T)>;

impl<T> Clone for FramePool<T> {
    fn clone(&self) -> Self {
        FramePool {
            bufs: Arc::clone(&self.bufs),
        }
    }
}

impl<T> Default for FramePool<T> {
    fn default() -> Self {
        FramePool {
            bufs: Arc::new(Mutex::new(Vec::new())),
        }
    }
}

impl<T> FramePool<T> {
    /// Locks the pool.  Producers share it with a merge thread the crash
    /// tests kill on purpose, so a poisoned lock is recovered rather than
    /// propagated: every update is one `push` or `pop` of a cleared buffer,
    /// which leaves the vector valid at every step.
    fn lock(&self) -> MutexGuard<'_, Vec<FrameBuf<T>>> {
        self.bufs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a cleared buffer from the pool, or allocates one.
    fn get(&self, capacity: usize) -> Vec<(u64, T)> {
        self.lock()
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(capacity))
    }

    /// Returns a spent buffer (cleared here) for reuse.
    fn put(&self, mut buf: Vec<(u64, T)>) {
        buf.clear();
        let mut bufs = self.lock();
        if bufs.len() < POOL_LIMIT {
            bufs.push(buf);
        }
    }
}

/// Counters for one [`FrameSender`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameSenderStats {
    /// Frames handed to the link (including frames the fault plan then lost).
    pub frames_sent: usize,
    /// Items inside those frames.
    pub events_sent: usize,
    /// Frames flushed below capacity (the stream tail, or explicit flushes).
    pub partial_frames: usize,
    /// Items swallowed because the ring's receiver had already hung up.
    pub dropped_disconnected: usize,
    /// Whether the ring's receiver hung up before the stream ended.
    pub disconnected: bool,
}

/// The per-shard link: the ring's sender, bare or behind the frame-level
/// fault injector.
enum FrameSink<T: Clone> {
    Clean(Sender<Frame<T>>),
    Faulty(FaultySender<Frame<T>>),
}

impl<T: Clone> FrameSink<T> {
    /// Hands one frame to the link, waiting for ring space if `wait`.  The
    /// fault-injected link always waits (it has no non-blocking mode).
    fn send(&mut self, frame: Frame<T>, wait: bool) -> Result<(), TrySendError<Frame<T>>> {
        let disconnected = |SendError::Disconnected(frame)| TrySendError::Disconnected(frame);
        match self {
            FrameSink::Clean(sender) if wait => sender.send(frame).map_err(disconnected),
            FrameSink::Clean(sender) => sender.try_send(frame),
            FrameSink::Faulty(faulty) => faulty.send(frame).map_err(disconnected),
        }
    }
}

/// The producer half of one shard: accumulates sequence-stamped items into a
/// pooled frame and ships the frame when full (or on [`FrameSender::flush`]
/// / drop).  Not `Sync` by design — one producer thread per shard is the
/// whole point.
pub struct FrameSender<T: Clone> {
    sink: FrameSink<T>,
    pool: FramePool<T>,
    producer: usize,
    frame_capacity: usize,
    buf: Vec<(u64, T)>,
    stats: FrameSenderStats,
}

impl<T: Clone> FrameSender<T> {
    /// Appends one sequence-stamped item, shipping the frame if it is full.
    /// Blocks (back-pressure) only while this shard's own ring is full.
    pub fn push(&mut self, seq: u64, item: T) {
        self.buf.push((seq, item));
        if self.buf.len() >= self.frame_capacity {
            self.flush();
        }
    }

    /// Ships the current frame even if partially filled.  A partial frame is
    /// counted in [`FrameSenderStats::partial_frames`]; a hung-up ring
    /// swallows (and counts) the items instead of panicking, so flushing
    /// from `Drop` is always safe — and the flush happens *before* the
    /// disconnect-swallowing path, so a live receiver always gets the tail.
    pub fn flush(&mut self) {
        self.ship(true);
    }

    /// Seals the buffered items into a frame, hands it to the link (waiting
    /// for ring space or not) and accounts for the outcome: a frame counts
    /// as sent, and as partial, only once the link took it; a full ring
    /// gives the items back as the buffer.  Returns whether the buffer is
    /// empty afterwards.
    fn ship(&mut self, wait: bool) -> bool {
        if self.buf.is_empty() {
            return true;
        }
        // A frame the ring cannot take now is not sealed: its fingerprint
        // would be folded, and a fresh buffer drawn, for nothing.
        if !wait && matches!(&self.sink, FrameSink::Clean(sender) if sender.is_full()) {
            return false;
        }
        let items = std::mem::replace(&mut self.buf, self.pool.get(self.frame_capacity));
        let events = items.len();
        let frame = Frame {
            producer: self.producer,
            fingerprint: sequence_fingerprint(self.producer, &items),
            items,
        };
        match self.sink.send(frame, wait) {
            Ok(()) => {
                self.stats.frames_sent += 1;
                self.stats.events_sent += events;
                if events < self.frame_capacity {
                    self.stats.partial_frames += 1;
                }
                true
            }
            Err(TrySendError::Full(frame)) => {
                let spent = std::mem::replace(&mut self.buf, frame.items);
                self.pool.put(spent);
                false
            }
            Err(TrySendError::Disconnected(frame)) => {
                self.stats.disconnected = true;
                self.stats.dropped_disconnected += frame.items.len();
                self.pool.put(frame.items);
                true
            }
        }
    }

    /// Items buffered locally, not yet shipped into the ring.  Together with
    /// [`FrameSender::try_flush`] this is the back-pressure *probe*: a
    /// caller that must never block (a service connection handler shedding
    /// load) tries a non-blocking flush and measures what stayed behind.
    pub fn buffered_len(&self) -> usize {
        self.buf.len()
    }

    /// Ships the buffered frame only if the ring can take it right now.
    /// Returns `true` when the buffer is empty afterwards (shipped, or
    /// nothing to ship); `false` means the ring was full and the items
    /// remain buffered — nothing blocks, nothing is lost.  Only the clean
    /// sink supports this; a fault-injected link reports `false` rather
    /// than bypass its schedule.
    pub fn try_flush(&mut self) -> bool {
        match self.sink {
            FrameSink::Clean(_) => self.ship(false),
            FrameSink::Faulty(_) => self.buf.is_empty(),
        }
    }

    /// Appends one sequence-stamped item *without* ever shipping, even past
    /// `frame_capacity` — the frame rings accept frames of any size.  The
    /// never-block companion to [`FrameSender::try_flush`]: a caller that
    /// bounds `buffered_len` itself (shedding load above a threshold) can
    /// buffer-then-try-flush and provably never wait on the ring.
    pub fn push_buffered(&mut self, seq: u64, item: T) {
        self.buf.push((seq, item));
    }

    /// Drops the locally buffered items without shipping them.  For callers
    /// whose items are durable elsewhere (a journal) and who must tear a
    /// sender down without touching a possibly-stalled ring: after this,
    /// dropping the sender cannot block (the `Drop` flush sees an empty
    /// buffer).
    pub fn discard_buffered(&mut self) {
        let spent = std::mem::take(&mut self.buf);
        self.pool.put(spent);
    }

    /// This sender's counters so far.
    pub fn stats(&self) -> FrameSenderStats {
        self.stats
    }

    /// Frame-granularity fault counters, if this shard runs a faulty link.
    pub(crate) fn fault_stats(&self) -> Option<ChannelFaultStats> {
        match &self.sink {
            FrameSink::Clean(_) => None,
            FrameSink::Faulty(faulty) => Some(faulty.stats()),
        }
    }
}

impl<T: Clone> Drop for FrameSender<T> {
    fn drop(&mut self) {
        // Partial tail first, then the sink drops and the ring sees EOF.
        self.flush();
    }
}

/// Counters for a [`FrameMerge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Frames received across all shards.
    pub frames: usize,
    /// Items inside those frames.
    pub events: usize,
    /// Frames whose first sequence number did not follow the shard's
    /// previous frame (fault-injected reordering/duplication; always 0 on a
    /// clean transport).
    pub misordered_frames: usize,
    /// Frames whose fingerprint did not match their contents (transport
    /// corruption; always 0 even under the frame-granularity fault plans,
    /// which move whole frames but never rewrite them).
    pub fingerprint_mismatches: usize,
}

struct ShardSource<T> {
    rx: Receiver<Frame<T>>,
    /// The arrived frame's items in send order, consumed from the front:
    /// the deque's head is the read cursor, so emission moves nothing but
    /// the emitted item and the buffer goes back to the pool intact.
    buf: VecDeque<(u64, T)>,
    open: bool,
    last_seq: Option<u64>,
}

/// The consumer half: k-way-merges the per-shard frame streams back into
/// global sequence order.
pub struct FrameMerge<T> {
    shards: Vec<ShardSource<T>>,
    pool: FramePool<T>,
    stats: MergeStats,
}

impl<T> FrameMerge<T> {
    /// Appends the next run of globally sequence-sorted items to `out`, up
    /// to `max`, blocking while an open shard's head is unknown (strict
    /// order requires it; see the module notes on deadlock-freedom).
    /// Returns how many items were appended; `0` means every shard hung up
    /// and drained.
    ///
    /// On a clean transport the emitted sequence is exactly the producers'
    /// global numbering.  Under frame faults the per-shard streams may be
    /// disordered; the merge still emits by smallest buffered head, which
    /// bounds the disorder to what the faults injected.
    pub fn recv_sorted(&mut self, out: &mut Vec<(u64, T)>, max: usize) -> usize {
        let max = max.max(1);
        let start = out.len();
        while out.len() - start < max {
            // Make every open shard's head known (blocking on its ring).
            for shard in self.shards.iter_mut() {
                while shard.open && shard.buf.is_empty() {
                    match shard.rx.recv() {
                        Some(frame) => install(shard, frame, &mut self.stats),
                        None => shard.open = false,
                    }
                }
            }
            // Find the smallest and second-smallest heads.
            let mut min_shard: Option<usize> = None;
            let mut min_seq = u64::MAX;
            let mut second_seq = u64::MAX;
            for (i, shard) in self.shards.iter().enumerate() {
                if let Some((seq, _)) = shard.buf.front() {
                    if *seq < min_seq {
                        second_seq = min_seq;
                        min_seq = *seq;
                        min_shard = Some(i);
                    } else if *seq < second_seq {
                        second_seq = *seq;
                    }
                }
            }
            let Some(i) = min_shard else {
                break; // every shard closed and drained
            };
            // Emit the whole run that stays below every other head — one
            // comparison per item, no re-scans of the shard set.
            let shard = &mut self.shards[i];
            while out.len() - start < max
                && shard.buf.front().is_some_and(|(seq, _)| *seq <= second_seq)
            {
                out.extend(shard.buf.pop_front());
            }
            if shard.buf.is_empty() {
                self.pool.put(std::mem::take(&mut shard.buf).into());
            }
        }
        out.len() - start
    }

    /// The merge-side counters so far.
    pub fn stats(&self) -> MergeStats {
        self.stats
    }
}

/// Buffers one arrived frame into its (drained) shard, verifying the
/// fingerprint and the shard-local ordering.
fn install<T>(shard: &mut ShardSource<T>, frame: Frame<T>, stats: &mut MergeStats) {
    stats.frames += 1;
    stats.events += frame.items.len();
    if sequence_fingerprint(frame.producer, &frame.items) != frame.fingerprint {
        stats.fingerprint_mismatches += 1;
    }
    if let (Some(last), Some((first, _))) = (shard.last_seq, frame.items.first()) {
        if *first <= last {
            stats.misordered_frames += 1;
        }
    }
    if let Some((seq, _)) = frame.items.last() {
        shard.last_seq = Some(*seq);
    }
    // `recv_sorted` handed the drained buffer back to the pool already, so
    // what this replaces holds no allocation.
    shard.buf = frame.items.into();
}

/// Builds a sharded frame transport: one [`FrameSender`] per producer, each
/// over its own ring holding up to `ring_frames` in-flight frames of
/// `frame_capacity` items, all fanned into one [`FrameMerge`].  With a
/// `plan`, every shard's ring runs behind its own seed-derived
/// ([`FaultPlan::for_shard`]) frame-granularity fault injector.
pub fn sharded<T: Clone>(
    producers: usize,
    ring_frames: usize,
    frame_capacity: usize,
    plan: Option<FaultPlan>,
) -> (Vec<FrameSender<T>>, FrameMerge<T>) {
    let producers = producers.max(1);
    let pool = FramePool::default();
    let mut senders = Vec::with_capacity(producers);
    let mut shards = Vec::with_capacity(producers);
    for producer in 0..producers {
        let (tx, rx) = channel::bounded(ring_frames.max(1));
        let sink = match plan {
            Some(plan) => FrameSink::Faulty(FaultySender::new(tx, plan.for_shard(producer))),
            None => FrameSink::Clean(tx),
        };
        senders.push(FrameSender {
            sink,
            pool: pool.clone(),
            producer,
            frame_capacity: frame_capacity.max(1),
            buf: pool.get(frame_capacity.max(1)),
            stats: FrameSenderStats::default(),
        });
        shards.push(ShardSource {
            rx,
            buf: VecDeque::new(),
            open: true,
            last_seq: None,
        });
    }
    (
        senders,
        FrameMerge {
            shards,
            pool,
            stats: MergeStats::default(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T: Clone>(merge: &mut FrameMerge<T>) -> Vec<(u64, T)> {
        let mut out = Vec::new();
        while merge.recv_sorted(&mut out, 1024) > 0 {}
        out
    }

    #[test]
    fn pool_outlives_a_thread_that_panicked_holding_its_lock() {
        let pool = FramePool::<u8>::default();
        pool.put(Vec::with_capacity(4));
        let poisoner = pool.clone();
        std::thread::spawn(move || {
            let _guard = poisoner.bufs.lock().expect("first holder");
            panic!("a merge thread killed mid-run");
        })
        .join()
        .expect_err("the holder panicked");
        assert!(pool.bufs.is_poisoned());
        assert_eq!(pool.get(8).capacity(), 4, "hands the parked buffer out");
        pool.put(vec![(0, 1)]);
        assert!(pool.get(8).is_empty(), "takes buffers back, cleared");
    }

    #[test]
    fn single_shard_round_trips_in_order() {
        let (mut senders, mut merge) = sharded::<usize>(1, 16, 8, None);
        let mut tx = senders.pop().unwrap();
        for seq in 0..100u64 {
            tx.push(seq, seq as usize);
        }
        let stats = tx.stats();
        assert_eq!(stats.frames_sent, 12, "100 items at capacity 8");
        drop(tx); // flushes the 4-item tail as a partial frame
        let out = drain(&mut merge);
        assert_eq!(
            out.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            (0..100).collect::<Vec<_>>()
        );
        let m = merge.stats();
        assert_eq!(m.frames, 13);
        assert_eq!(m.events, 100);
        assert_eq!(m.fingerprint_mismatches, 0);
        assert_eq!(m.misordered_frames, 0);
    }

    #[test]
    fn frame_fingerprint_is_fold_words_over_the_sequence_run() {
        let items: Vec<(u64, &str)> = vec![(3, "a"), (4, "b"), (9, "c"), (u64::MAX, "d")];
        let seqs: Vec<u64> = items.iter().map(|(seq, _)| *seq).collect();
        for producer in [0usize, 1, 7] {
            for cut in 0..=items.len() {
                assert_eq!(
                    sequence_fingerprint(producer, &items[..cut]),
                    evlin_checker::fold_words(producer as u64, &seqs[..cut])
                );
            }
        }
    }

    #[test]
    fn partial_tail_is_flushed_and_counted() {
        let (mut senders, mut merge) = sharded::<u8>(1, 4, 16, None);
        let mut tx = senders.pop().unwrap();
        for seq in 0..5u64 {
            tx.push(seq, 0);
        }
        assert_eq!(
            tx.stats().frames_sent,
            0,
            "below capacity: nothing sent yet"
        );
        tx.flush();
        let stats = tx.stats();
        assert_eq!(stats.frames_sent, 1);
        assert_eq!(stats.partial_frames, 1);
        assert_eq!(stats.events_sent, 5);
        drop(tx);
        assert_eq!(drain(&mut merge).len(), 5);
    }

    #[test]
    fn merge_restores_global_order_across_shards() {
        // Interleave a global numbering round-robin across 3 shards; the
        // merge must put it back together exactly.
        let (mut senders, mut merge) = sharded::<usize>(3, 32, 4, None);
        for seq in 0..99u64 {
            senders[(seq % 3) as usize].push(seq, seq as usize);
        }
        drop(senders);
        let out = drain(&mut merge);
        assert_eq!(
            out.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            (0..99).collect::<Vec<_>>()
        );
        assert_eq!(merge.stats().misordered_frames, 0);
        assert_eq!(merge.stats().fingerprint_mismatches, 0);
    }

    #[test]
    fn threaded_producers_with_tiny_rings_do_not_deadlock() {
        // Producers block only on their own full rings, the merge blocks
        // only on empty open rings: saturating 1-frame rings from 4 threads
        // must still terminate with the full sorted stream.
        let (senders, mut merge) = sharded::<usize>(4, 1, 4, None);
        std::thread::scope(|s| {
            for (t, mut tx) in senders.into_iter().enumerate() {
                s.spawn(move || {
                    for k in 0..250u64 {
                        tx.push((t as u64) * 250 + k, t);
                    }
                });
            }
            let out = drain(&mut merge);
            assert_eq!(out.len(), 1000);
            assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "globally sorted");
        });
    }

    #[test]
    fn frame_faults_conserve_frames() {
        let (mut senders, mut merge) = sharded::<usize>(
            2,
            64,
            4,
            Some(FaultPlan {
                seed: 42,
                lose: 128,
                duplicate: 128,
                reorder: 128,
            }),
        );
        for seq in 0..400u64 {
            senders[(seq % 2) as usize].push(seq, seq as usize);
        }
        let mut emitted_frames = 0usize;
        let mut faults = ChannelFaultStats::default();
        for tx in &mut senders {
            tx.flush();
            emitted_frames += tx.stats().frames_sent;
            let f = tx.fault_stats().expect("faulty plan");
            faults.delivered += f.delivered;
            faults.lost += f.lost;
            faults.duplicated += f.duplicated;
            faults.reordered += f.reordered;
        }
        drop(senders);
        let out = drain(&mut merge);
        // Conservation, in frames: every emitted frame was delivered, lost,
        // or delivered twice.  (Drop-time flush of a held frame is part of
        // `delivered`; re-read the totals only after the senders are gone —
        // so assert against the merge side, which saw the final stream.)
        let m = merge.stats();
        assert!(faults.lost > 0 && faults.duplicated > 0 && faults.reordered > 0);
        assert!(m.frames >= emitted_frames - faults.lost);
        assert_eq!(out.len(), m.events);
        assert_eq!(
            m.fingerprint_mismatches, 0,
            "faults move frames, never corrupt them"
        );
        assert!(
            m.misordered_frames > 0,
            "reordering must be visible to the merge"
        );
    }

    #[test]
    fn faults_at_frame_granularity_are_seed_deterministic() {
        let run = |seed: u64| {
            let (mut senders, mut merge) = sharded::<usize>(
                2,
                64,
                4,
                Some(FaultPlan {
                    seed,
                    lose: 128,
                    duplicate: 128,
                    reorder: 128,
                }),
            );
            for seq in 0..200u64 {
                senders[(seq % 2) as usize].push(seq, 0);
            }
            drop(senders);
            let out: Vec<u64> = drain(&mut merge).into_iter().map(|(s, _)| s).collect();
            (out, merge.stats())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn try_flush_never_blocks_and_retains_items_on_a_full_ring() {
        let (mut senders, mut merge) = sharded::<usize>(1, 1, 2, None);
        let mut tx = senders.pop().unwrap();
        // Fill the 1-frame ring...
        tx.push(0, 0);
        tx.push(1, 1);
        assert_eq!(tx.stats().frames_sent, 1);
        // ...then a non-blocking flush of the next batch must fail softly.
        tx.push(2, 2);
        assert!(!tx.try_flush(), "ring is full");
        assert!(!tx.try_flush(), "still full");
        assert_eq!(tx.buffered_len(), 1, "items retained, not dropped");
        // Checked once the ring is drained: a failed assertion unwinds
        // through the sender's drop, whose flush waits on a full ring.
        let drew_a_buffer = !tx.pool.lock().is_empty();
        assert_eq!(
            tx.stats().partial_frames,
            0,
            "refused attempts ship nothing"
        );
        // Drain the ring and the retry succeeds.
        let mut out = Vec::new();
        assert_eq!(merge.recv_sorted(&mut out, 2), 2);
        assert!(tx.try_flush());
        assert_eq!(tx.buffered_len(), 0);
        assert_eq!(tx.stats().partial_frames, 1, "counted once, when shipped");
        drop(tx);
        assert_eq!(merge.recv_sorted(&mut out, 16), 1);
        assert_eq!(out.iter().map(|(s, _)| *s).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(
            !drew_a_buffer,
            "a refused attempt seals no frame, so it draws no buffer"
        );
    }

    #[test]
    fn hung_up_ring_swallows_and_counts_instead_of_panicking() {
        let (mut senders, merge) = sharded::<usize>(1, 4, 4, None);
        let mut tx = senders.pop().unwrap();
        tx.push(0, 0);
        drop(merge); // the consumer died mid-run
        tx.push(1, 1);
        tx.push(2, 2);
        tx.push(3, 3); // frame full: ships into the dead ring
        let stats = tx.stats();
        assert!(stats.disconnected);
        assert_eq!(stats.dropped_disconnected, 4);
        tx.push(4, 4);
        drop(tx); // drop-time flush of the partial tail: quiet, counted
    }
}
