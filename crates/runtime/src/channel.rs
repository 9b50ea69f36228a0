//! A small bounded SPSC channel: the ring under every hand-off of the
//! live-monitoring pipeline.
//!
//! Each link has a single producer and a single consumer: a recording
//! thread's [`sharded::FrameSender`] feeding the merge one *frame* at a
//! time, the merge stage feeding the check stage one segment batch at a
//! time ([`crate::pump`]), the service's duplex transport and verdict plane.
//! The channel is *bounded*: when the consumer falls behind, `send` blocks,
//! which back-pressures the recording threads instead of letting the queue
//! grow without bound — the whole point of the online monitor is that memory
//! stays independent of history length.
//!
//! Built on `std::sync::{Mutex, Condvar}` only (the workspace has no external
//! concurrency dependencies).  The implementation is safe for any number of
//! senders/receivers; "SPSC" describes the intended and tested usage, not an
//! unsafe fast path.
//!
//! Every channel keeps [`ChannelStats`] — items sent, times a caller parked,
//! condvar notifications issued — so benchmarks can attribute exactly where
//! a path spends its lock and wake traffic (the per-producer frame transport
//! in [`sharded`] pays all three per frame, not per event).

pub mod sharded;

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

/// Error returned by [`Sender::send`]: the item could not be delivered and is
/// handed back to the caller.
///
/// Shutdown must be a *value*, not a panic or a hang: the monitor thread may
/// exit (dropping its [`Receiver`]) while recording threads are blocked in
/// `send` on a full channel, and those threads must wake up and observe the
/// disconnect deterministically.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum SendError<T> {
    /// Every receiver hung up; the unsent item is returned.
    Disconnected(T),
}

impl<T> SendError<T> {
    /// Recovers the item that could not be sent.
    pub fn into_inner(self) -> T {
        match self {
            SendError::Disconnected(item) => item,
        }
    }
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError::Disconnected(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a channel whose receivers all hung up")
    }
}

/// Error returned by [`Receiver::try_recv`], distinguishing "nothing yet"
/// from "nothing ever again".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty but senders are still alive.
    Empty,
    /// The channel is empty and every sender hung up.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`]: the deadline-bounded twin
/// of [`TryRecvError`], where `Timeout` means the channel stayed empty (with
/// live senders) for the whole wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No item arrived before the deadline; senders are still alive.
    Timeout,
    /// The channel is empty and every sender hung up.
    Disconnected,
}

/// Error returned by [`Sender::try_send`]: the non-blocking twin of
/// [`SendError`], additionally distinguishing a full channel.  Disconnection
/// wins over fullness, matching [`Sender::send`]'s check order.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is full; the undelivered item is returned.
    Full(T),
    /// Every receiver hung up; the undelivered item is returned.
    Disconnected(T),
}

impl<T> TrySendError<T> {
    /// Recovers the item that could not be sent.
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(item) | TrySendError::Disconnected(item) => item,
        }
    }
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("TrySendError::Full(..)"),
            TrySendError::Disconnected(_) => f.write_str("TrySendError::Disconnected(..)"),
        }
    }
}

/// Contention counters for one channel, shared by both halves.
///
/// The counters quantify exactly the per-event costs the frame transport
/// ([`sharded`]) amortizes: `sends` is lock acquisitions that enqueued
/// something, `blocked_waits` is how often a caller parked on a condvar
/// (sender on full, receiver on empty), and `wakeups` is how many condvar
/// notifications were issued.  A healthy batched pipeline shows `sends` and
/// `wakeups` growing per *frame* while the event count grows per *event*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Items successfully enqueued.
    pub sends: u64,
    /// Times a sender or receiver parked on a condvar.
    pub blocked_waits: u64,
    /// Condvar notifications issued (by sends and receives).
    pub wakeups: u64,
}

struct Shared<T> {
    queue: Mutex<Inner<T>>,
    /// Signalled when the queue gains an item or the sender hangs up.
    not_empty: Condvar,
    /// Signalled when the queue loses an item or the receiver hangs up.
    not_full: Condvar,
}

struct Inner<T> {
    items: VecDeque<T>,
    capacity: usize,
    senders: usize,
    receivers: usize,
    stats: ChannelStats,
}

/// The sending half of a bounded channel (see [`bounded`]).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a bounded channel (see [`bounded`]).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded channel with room for `capacity` in-flight items
/// (`capacity` is clamped to at least 1).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(Inner {
            items: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            senders: 1,
            receivers: 1,
            stats: ChannelStats::default(),
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Sends an item, blocking while the channel is full.
    ///
    /// Returns [`SendError::Disconnected`] (carrying the item back) as soon
    /// as every receiver has hung up — including when the hang-up happens
    /// *while this call is blocked* on a full channel: [`Receiver::drop`]
    /// signals `not_full`, so a blocked sender wakes, re-checks receiver
    /// liveness and returns the error instead of sleeping forever.
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        let mut inner = self.shared.queue.lock().expect("channel mutex");
        loop {
            if inner.receivers == 0 {
                return Err(SendError::Disconnected(item));
            }
            if inner.items.len() < inner.capacity {
                inner.items.push_back(item);
                inner.stats.sends += 1;
                inner.stats.wakeups += 1;
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            inner.stats.blocked_waits += 1;
            inner = self.shared.not_full.wait(inner).expect("channel mutex");
        }
    }

    /// Sends without blocking: [`TrySendError::Full`] hands the item back on
    /// a full channel; disconnection is checked first and reported exactly
    /// like [`Sender::send`].
    pub fn try_send(&self, item: T) -> Result<(), TrySendError<T>> {
        let mut inner = self.shared.queue.lock().expect("channel mutex");
        if inner.receivers == 0 {
            return Err(TrySendError::Disconnected(item));
        }
        if inner.items.len() < inner.capacity {
            inner.items.push_back(item);
            inner.stats.sends += 1;
            inner.stats.wakeups += 1;
            self.shared.not_empty.notify_one();
            Ok(())
        } else {
            Err(TrySendError::Full(item))
        }
    }

    /// This channel's contention counters so far.
    pub fn stats(&self) -> ChannelStats {
        self.shared.queue.lock().expect("channel mutex").stats
    }

    /// Items currently queued (a racy snapshot — only the sender-side can
    /// make it grow, so a single producer may use it to keep a reserve of
    /// free slots, the way the service's verdict plane holds seats for its
    /// final summaries).
    pub fn queued(&self) -> usize {
        self.shared.queue.lock().expect("channel mutex").items.len()
    }

    /// The channel's capacity.
    pub fn capacity(&self) -> usize {
        self.shared.queue.lock().expect("channel mutex").capacity
    }

    /// Whether a [`Sender::try_send`] now would hand its item back as
    /// [`TrySendError::Full`] (a racy snapshot: only receives can change
    /// it to `false`).
    pub(crate) fn is_full(&self) -> bool {
        let inner = self.shared.queue.lock().expect("channel mutex");
        inner.receivers > 0 && inner.items.len() >= inner.capacity
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.queue.lock().expect("channel mutex").senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.queue.lock().expect("channel mutex");
        inner.senders -= 1;
        if inner.senders == 0 {
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Receives the next item, blocking while the channel is empty.  Returns
    /// `None` once every sender has hung up and the queue is drained.
    pub fn recv(&self) -> Option<T> {
        let mut inner = self.shared.queue.lock().expect("channel mutex");
        loop {
            if let Some(item) = inner.items.pop_front() {
                inner.stats.wakeups += 1;
                self.shared.not_full.notify_one();
                return Some(item);
            }
            if inner.senders == 0 {
                return None;
            }
            inner.stats.blocked_waits += 1;
            inner = self.shared.not_empty.wait(inner).expect("channel mutex");
        }
    }

    /// Receives with a deadline: blocks at most `timeout` while the channel
    /// is empty and open.  Liveness watchdogs (the service's heartbeat
    /// loops) are the intended caller — a silent peer must yield
    /// [`RecvTimeoutError::Timeout`], never an indefinite park.  Queued
    /// items are still delivered before a disconnect is reported.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.shared.queue.lock().expect("channel mutex");
        loop {
            if let Some(item) = inner.items.pop_front() {
                inner.stats.wakeups += 1;
                self.shared.not_full.notify_one();
                return Ok(item);
            }
            if inner.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = std::time::Instant::now();
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return Err(RecvTimeoutError::Timeout);
            };
            inner.stats.blocked_waits += 1;
            let (guard, wait) = self
                .shared
                .not_empty
                .wait_timeout(inner, remaining)
                .expect("channel mutex");
            inner = guard;
            if wait.timed_out() && inner.items.is_empty() && inner.senders > 0 {
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }

    /// This channel's contention counters so far.
    pub fn stats(&self) -> ChannelStats {
        self.shared.queue.lock().expect("channel mutex").stats
    }

    /// Receives without blocking, distinguishing an empty channel
    /// ([`TryRecvError::Empty`]) from one whose senders all hung up
    /// ([`TryRecvError::Disconnected`]) — the same drain-then-close order
    /// as [`Receiver::recv`]: queued items are always delivered first.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut inner = self.shared.queue.lock().expect("channel mutex");
        match inner.items.pop_front() {
            Some(item) => {
                inner.stats.wakeups += 1;
                self.shared.not_full.notify_one();
                Ok(item)
            }
            None if inner.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.queue.lock().expect("channel mutex");
        inner.receivers -= 1;
        if inner.receivers == 0 {
            self.shared.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_arrive_in_order() {
        let (tx, rx) = bounded(4);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..100usize {
                    tx.send(i).expect("receiver alive");
                }
            });
            for i in 0..100usize {
                assert_eq!(rx.recv(), Some(i));
            }
            assert_eq!(rx.recv(), None);
        });
    }

    #[test]
    fn bounded_capacity_backpressures_without_deadlock() {
        let (tx, rx) = bounded(1);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..1000usize {
                    tx.send(i).expect("receiver alive");
                }
            });
            let mut received = 0usize;
            while rx.recv().is_some() {
                received += 1;
            }
            assert_eq!(received, 1000);
        });
    }

    #[test]
    fn send_fails_after_receiver_drops() {
        let (tx, rx) = bounded(2);
        drop(rx);
        let err = tx.send(7usize).expect_err("receiver is gone");
        assert_eq!(err, SendError::Disconnected(7));
        assert_eq!(err.into_inner(), 7);
    }

    #[test]
    fn try_recv_distinguishes_empty_from_disconnected() {
        let (tx, rx) = bounded(2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(1usize).unwrap();
        tx.send(2usize).unwrap();
        drop(tx);
        // Drain-then-close: queued items always come out before the
        // disconnect is reported.
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn recv_drains_queued_items_after_all_senders_drop() {
        let (tx, rx) = bounded(4);
        tx.send(1usize).unwrap();
        tx.send(2usize).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
        assert_eq!(rx.recv(), None, "closed stays closed");
    }

    #[test]
    fn receiver_drop_wakes_a_blocked_sender() {
        // Loom-style interleaving sweep of the shutdown race: a sender
        // saturating a capacity-1 channel is blocked in `send` (or about to
        // block) when the receiver hangs up after a varying number of
        // receives.  Every interleaving must end with the sender *returning*
        // `Disconnected` — never panicking, never sleeping forever on the
        // `not_full` condvar.
        for received_before_drop in 0..8usize {
            let (tx, rx) = bounded(1);
            let sender = std::thread::spawn(move || {
                let mut next = 0usize;
                loop {
                    match tx.send(next) {
                        Ok(()) => next += 1,
                        Err(SendError::Disconnected(item)) => return (next, item),
                    }
                }
            });
            for expect in 0..received_before_drop {
                assert_eq!(rx.recv(), Some(expect));
            }
            drop(rx);
            let (sent, returned) = sender.join().expect("sender must not panic");
            // The rejected item is exactly the one that failed to send.
            assert_eq!(returned, sent);
            assert!(sent >= received_before_drop);
        }
    }

    #[test]
    fn recv_timeout_times_out_then_delivers_then_disconnects() {
        use std::time::Duration;
        let (tx, rx) = bounded(2);
        // Empty + live senders: a timeout, reported as such.
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(5usize).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(5));
        // An item arriving mid-wait wakes the receiver before the deadline.
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                tx.send(6usize).unwrap();
            });
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(6));
        });
        drop(tx);
        // Drain-then-close still holds under the deadline API.
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn try_send_distinguishes_full_from_disconnected() {
        let (tx, rx) = bounded(2);
        tx.try_send(1usize).unwrap();
        tx.try_send(2usize).unwrap();
        let err = tx.try_send(3usize).expect_err("channel is full");
        assert!(matches!(err, TrySendError::Full(3)));
        assert_eq!(err.into_inner(), 3);
        drop(rx);
        let err = tx.try_send(4usize).expect_err("receiver is gone");
        assert!(matches!(err, TrySendError::Disconnected(4)));
    }

    #[test]
    fn stats_count_a_send_and_a_wakeup_per_item() {
        let (tx, rx) = bounded(64);
        for i in 0..32usize {
            tx.send(i).unwrap();
        }
        let stats = tx.stats();
        assert_eq!(stats.sends, 32);
        assert_eq!(stats.wakeups, 32, "per-item sends wake per item");
        assert_eq!(stats.blocked_waits, 0);
        assert_eq!(rx.recv(), Some(0));
        assert_eq!(rx.stats().wakeups, 33, "one more for the receive");
    }
}
