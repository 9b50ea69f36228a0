//! Session resumption: exactly-once frame ingestion across reconnects.
//!
//! A *session* is a client's logical stream, decoupled from any one
//! connection.  The client names it in its hello (a nonzero session id) and
//! keeps an **unacked window** (`SessionTx`) of every `EVENTS` frame not
//! yet covered by a durability ack; the replica keeps the session's
//! **journal-backed acceptance state** (`SessionRx`), admitting frames in
//! exact sequence order:
//!
//! * `frame_seq == next` — fresh: journal it; once the batch it arrived in
//!   is fsynced, deliver and ack the new cursor.
//! * `frame_seq < next` — duplicate (a replay of something already
//!   journaled): drop, re-ack the cursor so the client prunes its window.
//! * `frame_seq > next` — gap (frames died with a connection): reject and
//!   ack the *current* cursor, which tells the client exactly where to
//!   rewind its window.
//!
//! Admission is two steps, `SessionRx::admit` per frame and one
//! `SessionRx::commit` per batch of frames: the commit is the fsync, and
//! the cursor it returns is the only one a caller may ack.  A connection
//! that delivered sixteen frames while the previous fsync ran pays for one
//! more, not sixteen; a batch of one frame is the same two calls.
//!
//! Together the two sides absorb duplication and reordering and turn loss
//! into retransmission — the journal admits each frame exactly once, in
//! order, no matter how many times the connection dies.  On reconnect the
//! client's resume hello carries the cursor it last saw acked; the replica
//! cross-checks the cursor's *chained fingerprint* against what its journal
//! folds to at that frame count, so a client resuming against the wrong
//! journal (or a corrupted one) is refused with a typed error instead of
//! silently forking the stream.
//!
//! [`Backoff`] is the client's reconnect pacing: seeded, jittered,
//! exponential, bounded — the same seed always yields the same retry
//! schedule (chaos tests replay it), and exhaustion is a typed
//! [`RetriesExhausted`], never a hang.

use crate::journal::{Journal, JournalError, Recovered};
use crate::wire::ResumeCursor;
use evlin_runtime::fault::xorshift64;
use std::collections::VecDeque;
use std::fmt;
use std::path::Path;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Server side: journal-backed acceptance
// ---------------------------------------------------------------------------

/// What [`SessionRx::admit`] decided about one incoming `EVENTS` frame.
/// Whatever it decided, the cursor to ack is the one the batch's
/// [`SessionRx::commit`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Fresh and now journaled, not yet durable: deliver the events once
    /// the commit has returned, not before.
    Accept,
    /// Already journaled (a window replay): drop it; the re-ack lets the
    /// client prune its window.
    Duplicate,
    /// Sequence gap — frames before this one never arrived.  Drop it; the
    /// acked cursor tells the client where to rewind its window.
    Gap,
}

/// Resumption failures, distinct from journal I/O failures because they mean
/// the *protocol* state disagrees, not that the disk failed.
#[derive(Debug)]
pub enum SessionError {
    /// The client's resume cursor does not match the journal: either it
    /// claims more durable frames than the journal holds, or the chained
    /// fingerprint at the claimed frame count disagrees — a forked or
    /// corrupted stream, refused before any event is ingested.
    CursorMismatch {
        /// What the client claimed.
        claimed: ResumeCursor,
        /// What the journal actually folds to at that position (frames
        /// capped to the journal's own count).
        durable: ResumeCursor,
    },
    /// The hello named a different client than the journal records.
    ClientMismatch {
        /// Client id in the hello.
        hello: u32,
        /// Client id in the journal header.
        journal: u32,
    },
    /// The underlying journal failed.
    Journal(JournalError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::CursorMismatch { claimed, durable } => write!(
                f,
                "resume cursor mismatch: client claims {} frames (chain {:#018x}), \
                 journal has {} frames (chain {:#018x})",
                claimed.frames, claimed.chain, durable.frames, durable.chain
            ),
            SessionError::ClientMismatch { hello, journal } => write!(
                f,
                "resume hello names client {hello} but the journal belongs to {journal}"
            ),
            SessionError::Journal(e) => write!(f, "session journal: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<JournalError> for SessionError {
    fn from(e: JournalError) -> Self {
        SessionError::Journal(e)
    }
}

/// The replica side of one session: the journal plus the durable cursor
/// after every accepted frame (what makes resume cursors checkable at *any*
/// position, not just the tip).
pub(crate) struct SessionRx {
    journal: Journal,
    /// `cursors[i]` = the durable cursor after `i + 1` accepted frames.
    cursors: Vec<ResumeCursor>,
}

impl SessionRx {
    /// Opens a fresh session: a new journal at `path`.
    pub(crate) fn create(
        path: &Path,
        client: u32,
        session: u64,
    ) -> Result<SessionRx, SessionError> {
        let journal = Journal::create(path, client, session)?;
        Ok(SessionRx {
            journal,
            cursors: Vec::new(),
        })
    }

    /// Reopens a session from its journal on disk — the supervisor's startup
    /// path, before any client has claimed anything.  Returns the session
    /// plus the recovered journal contents (the frames a rebuilt monitor is
    /// fed).
    pub(crate) fn reopen(path: &Path) -> Result<(SessionRx, Recovered), SessionError> {
        let (journal, recovered) = Journal::recover(path)?;
        let cursors = recovered.cursors.clone();
        Ok((SessionRx { journal, cursors }, recovered))
    }

    /// Validates a resume hello against this (already open) session.
    ///
    /// The claim is valid iff `claimed.frames ≤ durable.frames` (acks may
    /// have been lost, so the client may lag, never lead) **and** the
    /// journal's chain and event total at `claimed.frames` equal the
    /// claim's — the two sides accepted the same frame prefix.
    pub(crate) fn check_resume(
        &self,
        hello_client: u32,
        claimed: Option<ResumeCursor>,
    ) -> Result<(), SessionError> {
        if self.journal.client() != hello_client {
            return Err(SessionError::ClientMismatch {
                hello: hello_client,
                journal: self.journal.client(),
            });
        }
        let Some(claimed) = claimed else {
            return Ok(());
        };
        let durable = self.journal.cursor();
        let cursor_at = |frames: u64| match frames {
            0 => ResumeCursor {
                frames: 0,
                events: 0,
                chain: self.journal.client() as u64,
            },
            n => self.cursors[(n - 1) as usize],
        };
        if claimed.frames > durable.frames || claimed != cursor_at(claimed.frames) {
            return Err(SessionError::CursorMismatch {
                claimed,
                durable: ResumeCursor {
                    frames: durable.frames,
                    ..cursor_at(claimed.frames.min(durable.frames))
                },
            });
        }
        Ok(())
    }

    /// The `frame_seq` a fresh frame must carry now: the durable frame count
    /// plus the frames admitted since the last [`SessionRx::commit`].
    pub(crate) fn next_frame_seq(&self) -> u64 {
        self.cursors.len() as u64
    }

    /// Admits one decoded `EVENTS` frame (`bytes` is its full wire
    /// encoding).  Only [`Admit::Accept`] journals — without syncing: the
    /// frame is neither durable nor deliverable until [`SessionRx::commit`]
    /// has returned.  An error means the journal write failed and every
    /// frame admitted since the last commit is forgotten, on disk and here.
    pub(crate) fn admit(
        &mut self,
        bytes: &[u8],
        frame_seq: u64,
        events: u64,
        batch_fingerprint: u64,
    ) -> Result<Admit, SessionError> {
        let next = self.next_frame_seq();
        if frame_seq < next {
            return Ok(Admit::Duplicate);
        }
        if frame_seq > next {
            return Ok(Admit::Gap);
        }
        match self
            .journal
            .append_unsynced(bytes, events, batch_fingerprint)
        {
            Ok(written) => {
                self.cursors.push(written);
                Ok(Admit::Accept)
            }
            Err(e) => Err(self.forget_unsynced(e)),
        }
    }

    /// Makes every frame admitted since the last commit durable with one
    /// fsync (none when nothing was accepted) and returns the durable
    /// cursor: what to ack for the whole batch, whatever its frames were.
    /// An error means the sync failed and the batch is forgotten, on disk
    /// and here: ack nothing, deliver nothing, drop the connection.
    pub(crate) fn commit(&mut self) -> Result<ResumeCursor, SessionError> {
        if self.next_frame_seq() > self.journal.cursor().frames {
            if let Err(e) = self.journal.sync() {
                return Err(self.forget_unsynced(e));
            }
        }
        Ok(self.journal.cursor())
    }

    /// A failed append or sync has rolled the journal back to its durable
    /// cursor; the positions of the forgotten frames go with it.
    fn forget_unsynced(&mut self, e: JournalError) -> SessionError {
        self.cursors.truncate(self.journal.cursor().frames as usize);
        e.into()
    }

    /// Whether the shutdown audit is journaled: the stream is complete and
    /// no further frame of it can be admitted.
    pub(crate) fn finished(&self) -> bool {
        self.journal.shutdown().is_some()
    }

    /// Records the client's shutdown totals.
    pub(crate) fn record_shutdown(&mut self, events: u64, chain: u64) -> Result<(), SessionError> {
        self.journal.append_shutdown(events, chain)?;
        Ok(())
    }

    /// The durable cursor (everything at or below it is fsynced).
    pub(crate) fn cursor(&self) -> ResumeCursor {
        self.journal.cursor()
    }

    /// The underlying journal (for audits).
    pub(crate) fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Mutable journal access — the supervisor uses this to snapshot the
    /// frames for restart replay ([`Journal::read_back`]) while holding the
    /// session's slot lock.
    pub(crate) fn journal_mut(&mut self) -> &mut Journal {
        &mut self.journal
    }
}

// ---------------------------------------------------------------------------
// Client side: the unacked window
// ---------------------------------------------------------------------------

/// The client side of one session: the encoded `EVENTS` frames sent but not
/// yet covered by a durability ack, retained for replay.
///
/// The window is also what makes [`crate::WireFrame::Overloaded`] free to honor: a
/// shed frame was never acked, so it is still in the window, and the next
/// replay retransmits it — rejection and loss are the same recovery path.
pub(crate) struct SessionTx {
    session: u64,
    /// `(frame_seq, full wire encoding)`, oldest first, seqs dense.
    window: VecDeque<(u64, Vec<u8>)>,
    /// The highest cursor the replica has acked.
    acked: ResumeCursor,
    /// Next fresh `frame_seq` to assign.
    next_seq: u64,
}

impl SessionTx {
    /// A fresh session window.  `client` seeds the ack cursor's chain, so a
    /// zero-frame ack cross-checks too.
    pub(crate) fn new(client: u32, session: u64) -> SessionTx {
        SessionTx {
            session,
            window: VecDeque::new(),
            acked: ResumeCursor {
                frames: 0,
                events: 0,
                chain: client as u64,
            },
            next_seq: 0,
        }
    }

    /// The session id carried in hellos.
    pub(crate) fn session(&self) -> u64 {
        self.session
    }

    /// The cursor to put in a resume hello: the last acked position.
    pub(crate) fn resume_cursor(&self) -> ResumeCursor {
        self.acked
    }

    /// Retains `bytes` (a frame's full wire encoding) in the window under
    /// the next `frame_seq` — frames must be staged in the order they were
    /// sealed, which numbers them identically.  Call before sending.
    pub(crate) fn stage(&mut self, bytes: Vec<u8>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.window.push_back((seq, bytes));
        seq
    }

    /// Applies a durability ack: prunes the window through `cursor.frames`.
    /// Returns how many frames were pruned.  An ack below a previous ack is
    /// stale (reordered verdict plane) and ignored.
    pub(crate) fn on_ack(&mut self, cursor: ResumeCursor) -> usize {
        if cursor.frames < self.acked.frames {
            return 0;
        }
        self.acked = cursor;
        let before = self.window.len();
        while let Some((seq, _)) = self.window.front() {
            if *seq < cursor.frames {
                self.window.pop_front();
            } else {
                break;
            }
        }
        before - self.window.len()
    }

    /// The unacked frames, oldest first — what a reconnect replays after
    /// its resume hello.  Duplicates are harmless (the replica re-acks
    /// them), so replaying conservatively is always sound.
    pub(crate) fn unacked(&self) -> impl Iterator<Item = &[u8]> {
        self.window.iter().map(|(_, bytes)| bytes.as_slice())
    }

    /// Frames currently in the window.
    pub(crate) fn window_len(&self) -> usize {
        self.window.len()
    }
}

// ---------------------------------------------------------------------------
// Reconnect backoff
// ---------------------------------------------------------------------------

/// Typed terminal error of a bounded reconnect loop: every retry was spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetriesExhausted {
    /// How many connection attempts were made before giving up.
    pub attempts: u32,
}

impl fmt::Display for RetriesExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reconnect retries exhausted after {} attempts",
            self.attempts
        )
    }
}

impl std::error::Error for RetriesExhausted {}

/// Seeded, jittered, exponential reconnect backoff.
///
/// Attempt *k* (0-based) sleeps `base · 2ᵏ` scaled by a jitter factor drawn
/// uniformly from `[½, 1½)`, capped at `cap` — the classic
/// thundering-herd-free schedule, but *deterministic*: the jitter comes
/// from a seeded xorshift, so the same seed replays the same schedule
/// (which is what lets the chaos differential pin timings).  After
/// `max_attempts` draws, every further draw is [`RetriesExhausted`].
#[derive(Debug, Clone)]
pub struct Backoff {
    state: u64,
    base: Duration,
    cap: Duration,
    max_attempts: u32,
    attempt: u32,
}

impl Backoff {
    /// A schedule of `max_attempts` delays starting at `base`, capped at
    /// `cap`, jittered by `seed`.
    pub fn new(seed: u64, base: Duration, cap: Duration, max_attempts: u32) -> Backoff {
        // Scramble the seed (splitmix64 finalizer) before seeding xorshift:
        // a bare `seed | 1` would collapse adjacent even/odd seeds into the
        // same schedule.  xorshift needs a nonzero state, hence the `| 1`.
        Backoff {
            state: evlin_checker::mix(seed) | 1,
            base,
            cap,
            max_attempts,
            attempt: 0,
        }
    }

    /// A reasonable default for tests and demos: 8 attempts from 10ms up,
    /// capped at 1s.
    pub fn standard(seed: u64) -> Backoff {
        Backoff::new(seed, Duration::from_millis(10), Duration::from_secs(1), 8)
    }

    /// Draws the next delay, or reports exhaustion carrying the attempt
    /// count.
    pub(crate) fn next_delay(&mut self) -> Result<Duration, RetriesExhausted> {
        if self.attempt >= self.max_attempts {
            return Err(RetriesExhausted {
                attempts: self.attempt,
            });
        }
        let exp = self.attempt.min(32);
        self.attempt += 1;
        let nominal = self
            .base
            .saturating_mul(1u32.checked_shl(exp).unwrap_or(u32::MAX))
            .min(self.cap);
        // Jitter factor in [1/2, 3/2): nominal/2 + nominal·r where r ∈ [0,1).
        let r = (xorshift64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64;
        let jittered = nominal.mul_f64(0.5 + r);
        Ok(jittered.min(self.cap))
    }

    /// Resets the schedule after a successful connection (state advances,
    /// so the next outage draws fresh jitter deterministically).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_frame, event_batch_fingerprint, WireFrame};
    use evlin_history::{Event, ObjectId, ProcessId};
    use evlin_spec::FetchIncrement;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("evlin-session-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!(
            "{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn events_frame(client: u32, frame_seq: u64, n: usize) -> (Vec<u8>, u64, u64) {
        let events: Vec<(u64, Event)> = (0..n as u64)
            .map(|i| {
                (
                    frame_seq * 100 + i,
                    Event::invoke(ProcessId(0), ObjectId(0), FetchIncrement::fetch_inc()),
                )
            })
            .collect();
        let fingerprint = event_batch_fingerprint(client, &events);
        let frame = WireFrame::Events {
            client,
            frame_seq,
            events,
            fingerprint,
        };
        (encode_frame(&frame), n as u64, fingerprint)
    }

    #[test]
    fn admit_accepts_in_order_dedups_replays_and_rejects_gaps() {
        let path = temp_path("admit.evjl");
        let _ = std::fs::remove_file(&path);
        let mut rx = SessionRx::create(&path, 4, 1).unwrap();
        let (p0, n0, f0) = events_frame(4, 0, 2);
        let (p1, n1, f1) = events_frame(4, 1, 3);
        let (p3, n3, f3) = events_frame(4, 3, 1);

        assert_eq!(rx.admit(&p0, 0, n0, f0).unwrap(), Admit::Accept);
        let c0 = rx.commit().unwrap();
        assert_eq!((c0.frames, c0.events), (1, 2));
        // Replay of frame 0: duplicate, cursor unchanged.
        assert_eq!(rx.admit(&p0, 0, n0, f0).unwrap(), Admit::Duplicate);
        assert_eq!(rx.commit().unwrap(), c0);
        // Frame 3 before frames 1–2: a gap; cursor says where to rewind.
        assert_eq!(rx.admit(&p3, 3, n3, f3).unwrap(), Admit::Gap);
        assert_eq!(rx.commit().unwrap(), c0);
        // In-order frame 1 is accepted and the chain advances.
        assert_eq!(rx.admit(&p1, 1, n1, f1).unwrap(), Admit::Accept);
        let c1 = rx.commit().unwrap();
        assert_eq!(c1.frames, 2);
        assert_eq!(c1.events, 5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_batch_is_durable_and_ackable_only_once_committed() {
        let path = temp_path("batch.evjl");
        let _ = std::fs::remove_file(&path);
        let mut rx = SessionRx::create(&path, 4, 1).unwrap();
        let start = rx.cursor();
        let frames: Vec<_> = (0..4u64).map(|seq| events_frame(4, seq, 2)).collect();
        // [fresh, fresh, duplicate, gap, fresh]: three records, one sync.
        let batch = [0usize, 1, 0, 3, 2];
        let outcomes: Vec<Admit> = batch
            .iter()
            .map(|&seq| {
                let (bytes, n, fp) = &frames[seq];
                rx.admit(bytes, seq as u64, *n, *fp).unwrap()
            })
            .collect();
        assert_eq!(
            outcomes,
            [
                Admit::Accept,
                Admit::Accept,
                Admit::Duplicate,
                Admit::Gap,
                Admit::Accept
            ]
        );
        // Nothing of it is durable, and so nothing ackable, before the sync.
        assert_eq!(rx.cursor(), start);
        assert_eq!(rx.next_frame_seq(), 3);
        let committed = rx.commit().unwrap();
        assert_eq!((committed.frames, committed.events), (3, 6));
        assert_eq!(rx.cursor(), committed);
        // A resume claim checks at every position inside the batch, and the
        // file recovers to the same three cursors.
        let live = rx.cursors.clone();
        for claim in &live {
            rx.check_resume(4, Some(*claim)).unwrap();
        }
        drop(rx);
        let (rx, recovered) = SessionRx::reopen(&path).unwrap();
        assert_eq!(recovered.cursors, live);
        assert_eq!(recovered.frames.len(), 3);
        assert_eq!(rx.cursor(), committed);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_cross_checks_the_claimed_cursor() {
        let path = temp_path("resume.evjl");
        let _ = std::fs::remove_file(&path);
        let mut rx = SessionRx::create(&path, 2, 5).unwrap();
        let (p0, n0, f0) = events_frame(2, 0, 2);
        let (p1, n1, f1) = events_frame(2, 1, 2);
        assert_eq!(rx.admit(&p0, 0, n0, f0).unwrap(), Admit::Accept);
        let c0 = rx.commit().unwrap();
        assert_eq!(rx.admit(&p1, 1, n1, f1).unwrap(), Admit::Accept);
        let c1 = rx.commit().unwrap();
        drop(rx);

        // Claiming the tip, an earlier ack, or nothing at all: all valid.
        let (rx, recovered) = SessionRx::reopen(&path).unwrap();
        assert_eq!(rx.cursor(), c1);
        assert_eq!(recovered.frames.len(), 2);
        for claim in [Some(c1), Some(c0), None] {
            rx.check_resume(2, claim).unwrap();
        }
        // Claiming more frames than durable: refused.
        let ahead = ResumeCursor {
            frames: 3,
            events: 99,
            chain: 0,
        };
        assert!(matches!(
            rx.check_resume(2, Some(ahead)),
            Err(SessionError::CursorMismatch { .. })
        ));
        // Claiming the right count with the wrong chain: refused.
        let forged = ResumeCursor {
            chain: c1.chain ^ 1,
            ..c1
        };
        assert!(matches!(
            rx.check_resume(2, Some(forged)),
            Err(SessionError::CursorMismatch { .. })
        ));
        // A different client id: refused.
        assert!(matches!(
            rx.check_resume(9, Some(c1)),
            Err(SessionError::ClientMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn window_prunes_on_ack_and_replays_the_rest() {
        let mut tx = SessionTx::new(7, 1);
        let frames: Vec<Vec<u8>> = (0..4u64).map(|seq| events_frame(7, seq, 1).0).collect();
        for bytes in &frames {
            tx.stage(bytes.clone());
        }
        assert_eq!(tx.window_len(), 4);
        // Ack through frame 1 (two frames durable).
        let pruned = tx.on_ack(ResumeCursor {
            frames: 2,
            events: 2,
            chain: 0xBEEF,
        });
        assert_eq!(pruned, 2);
        let replay: Vec<&[u8]> = tx.unacked().collect();
        assert_eq!(replay, vec![frames[2].as_slice(), frames[3].as_slice()]);
        // A stale (lower) ack is ignored.
        assert_eq!(
            tx.on_ack(ResumeCursor {
                frames: 1,
                events: 1,
                chain: 0
            }),
            0
        );
        assert_eq!(tx.window_len(), 2);
        assert_eq!(tx.resume_cursor().frames, 2);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_exhausts_typed() {
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(seed, Duration::from_millis(10), Duration::from_secs(1), 6);
            std::iter::from_fn(|| b.next_delay().ok()).collect()
        };
        // Same seed ⇒ identical schedule; different seed ⇒ (almost surely)
        // different jitter.
        assert_eq!(schedule(42), schedule(42));
        assert_ne!(schedule(42), schedule(43));
        // Jitter bounds: attempt k nominal is base·2^k (capped); the draw
        // lies in [nominal/2, min(cap, nominal·3/2)].
        let delays = schedule(42);
        assert_eq!(delays.len(), 6);
        for (k, d) in delays.iter().enumerate() {
            let nominal = Duration::from_millis(10 * (1 << k)).min(Duration::from_secs(1));
            assert!(*d >= nominal.mul_f64(0.5), "attempt {k}: {d:?}");
            assert!(*d <= Duration::from_secs(1), "attempt {k}: {d:?}");
            assert!(*d <= nominal.mul_f64(1.5), "attempt {k}: {d:?}");
        }
        // Exhaustion is typed and carries the attempt count.
        let mut b = Backoff::new(7, Duration::from_millis(1), Duration::from_millis(8), 3);
        for _ in 0..3 {
            b.next_delay().unwrap();
        }
        assert_eq!(b.next_delay(), Err(RetriesExhausted { attempts: 3 }));
        // Reset re-arms the budget.
        b.reset();
        assert!(b.next_delay().is_ok());
    }
}
