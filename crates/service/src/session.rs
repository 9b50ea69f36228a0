//! Session resumption: exactly-once frame ingestion across reconnects, as
//! two machines that do no I/O and read no clock.
//!
//! A *session* is a client's logical stream, decoupled from any one
//! connection.  The client names it in its hello (a nonzero session id) and
//! keeps an **unacked window** (`ClientSession`) of every `EVENTS` frame
//! not yet covered by a durability ack; the replica keeps the session's
//! **acceptance state** (`ReplicaSession`): the cursor after every
//! journaled frame, admitting frames in exact sequence order — a frame at
//! the append position is journaled, one below it is a duplicate (dropped,
//! re-acked), one above it a gap (dropped; the ack says where to rewind).
//!
//! Each machine is one `on(input, out)`: a driver feeds it what happened
//! (a frame arrived, the receive buffer drained, the timer fired, a
//! connection opened or died, the journal's sync returned or failed) and
//! carries out what it asks (send a frame — a window frame by index, not a
//! copy — arm the timer, append, sync, deliver to the router, close).  The
//! drivers in [`crate::supervisor`] own the sockets, the clock, the slot
//! lock, the journal file and the rings; the model test at the bottom of
//! this file owns an in-memory network and journal instead, and searches
//! every schedule of one session at small scope.  Sessions share no protocol
//! state — a replica slot serves one client's session, a client one — so
//! one session is the whole protocol.
//!
//! The replica commits in groups: `EVENTS` frames are admitted as they come
//! off the inbox and one `Sync` covers the batch, which ends at the buffer's
//! drain, at the first frame of another kind, or before `limit` events.
//! Nothing is delivered and nothing acked before that sync has answered.
//! On reconnect the client's resume hello carries the cursor it last saw
//! acked; the replica cross-checks the cursor's *chained fingerprint*
//! against its cursor at that frame count, so a client resuming against the
//! wrong journal (or a corrupted one) is refused instead of silently forking
//! the stream.
//!
//! [`Backoff`] is the client's reconnect pacing: seeded, jittered,
//! exponential, bounded — the same seed always yields the same retry
//! schedule (chaos tests replay it), and exhaustion is a typed
//! [`RetriesExhausted`], never a hang.

use crate::journal::JournalError;
use crate::supervisor::{RecoverableClientStats, SessionStats};
use crate::wire::{
    chain_fingerprint, decode_frame, decode_frame_with, ResumeCursor, VerdictSummary, WireError,
    WireFrame, VERSION,
};
use evlin_history::Event;
use evlin_runtime::fault::xorshift64;
use evlin_spec::Invocation;
use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

/// How long a client waits on the ack plane: for the attach ack, and for ack
/// progress before it probes the replica with a ping.
const ACK_TIMEOUT: Duration = Duration::from_millis(200);

/// Ack timeouts in a row without progress after which a live replica that
/// does not ack is given up on (e.g. a lost `OVERLOADED`): the resume path
/// retransmits from the acked cursor.
const STALL_LIMIT: u32 = 4;

/// The retransmission delay `OVERLOADED` rejections suggest, in ms.
const RETRY_AFTER_MS: u32 = 5;

/// What a driver feeds a session machine.
pub(crate) enum Input {
    /// Client: a connection is open and nothing has been sent on it.
    Opened,
    /// Client: a sealed `EVENTS` frame (its wire encoding) for the window,
    /// staged in sealing order.
    Stage(Vec<u8>),
    /// A whole frame arrived (its wire encoding).
    Frame(Vec<u8>),
    /// Replica: no further whole frame is buffered.  Carries the events the
    /// slot's rings hold unshipped, `None` while a restart replay owns them,
    /// probed now: it is fed again after every `Synced`, so each batch is
    /// admitted against the backlog its deliveries left.
    Drained(Option<usize>),
    /// The armed timer fired (the replica's is its read deadline).
    Timer,
    /// The connection died, on a frame boundary if `clean`.
    Lost { clean: bool },
    /// The `Sync` returned.  The replica settles the batch and waits for
    /// the next `Drained` to go on.
    Synced,
    /// An `Append` or the `Sync` failed; the journal is back at its durable
    /// position.
    SyncFailed,
}

/// What a session machine asks its driver to do, in order.
#[derive(Debug)]
pub(crate) enum Output {
    /// Send this frame on the connection.
    Send(WireFrame),
    /// Send the client's window frame at this index (0 is the oldest).
    SendWindow(usize),
    /// (Re)arm the one timer to fire after this long.
    Arm(Duration),
    /// Journal this `EVENTS` frame, unsynced.
    Append {
        bytes: Vec<u8>,
        events: u64,
        fingerprint: u64,
    },
    /// Journal the client's shutdown totals.
    AppendShutdown { events: u64, chain: u64 },
    /// Make every append durable — creating the journal if the session has
    /// none yet — and answer with `Synced` or `SyncFailed`.
    Sync,
    /// Hand these (now durable) events to the router.
    Deliver(Vec<(u64, Event)>),
    /// Close the connection.
    Close,
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

/// The cursor before any frame.  The chain is seeded with the client id, so
/// a zero-frame claim cross-checks too.
fn start(client: u32) -> ResumeCursor {
    ResumeCursor {
        frames: 0,
        events: 0,
        chain: client as u64,
    }
}

// ---------------------------------------------------------------------------
// Replica side: journal-backed acceptance
// ---------------------------------------------------------------------------

/// The frames a commit batch decided on and what it owes once synced.
#[derive(Clone, Default)]
struct Batch {
    frames: usize,
    events: usize,
    /// The durable cursor is owed (a frame was admitted, or a hello).
    ack: bool,
    /// An `OVERLOADED` is owed.
    shed: bool,
    /// The shutdown record is in the sync.
    shutdown: bool,
    /// Accepted frames' events, delivered once the sync has returned.
    accepted: Vec<Vec<(u64, Event)>>,
}

/// The replica side of one slot's session: what its journal holds, plus the
/// connection traffic not yet decided on.
#[derive(Clone, Default)]
pub(crate) struct ReplicaSession {
    client: u32,
    /// 0 until a hello opens the session.
    session: u64,
    /// The journal exists: a sync has answered since the session opened.
    opened: bool,
    /// `cursors[i]` is the cursor after `i + 1` journaled frames; the first
    /// `durable` of them are synced.
    cursors: Vec<ResumeCursor>,
    durable: usize,
    /// The shutdown record is durable: no further frame can be admitted.
    finished: bool,
    /// Events one batch may gather, and the ring backlog past which a fresh
    /// frame is shed.
    limit: usize,
    inbox: VecDeque<(Vec<u8>, Result<WireFrame, WireError>)>,
    batch: Batch,
    /// A `Sync` is out: the inbox waits for its answer.
    syncing: bool,
    /// Unshipped ring events, as last probed.
    backlog: Option<usize>,
    interner: Vec<Invocation>,
    pub(crate) stats: SessionStats,
}

impl ReplicaSession {
    /// A slot whose client has not opened a session yet.
    pub(crate) fn new(client: u32, limit: usize) -> ReplicaSession {
        ReplicaSession {
            client,
            limit,
            ..ReplicaSession::default()
        }
    }

    /// A session reopened from its journal: the cursor after each frame, and
    /// whether the shutdown record is there.
    pub(crate) fn reopened(
        client: u32,
        limit: usize,
        session: u64,
        cursors: Vec<ResumeCursor>,
        finished: bool,
    ) -> ReplicaSession {
        ReplicaSession {
            session,
            opened: true,
            durable: cursors.len(),
            cursors,
            finished,
            ..ReplicaSession::new(client, limit)
        }
    }

    pub(crate) fn client(&self) -> u32 {
        self.client
    }

    pub(crate) fn session(&self) -> u64 {
        self.session
    }

    pub(crate) fn finished(&self) -> bool {
        self.finished
    }

    fn cursor_at(&self, frames: usize) -> ResumeCursor {
        frames
            .checked_sub(1)
            .map_or(start(self.client), |last| self.cursors[last])
    }

    /// The durable cursor: what an ack may carry.
    pub(crate) fn cursor(&self) -> ResumeCursor {
        self.cursor_at(self.durable)
    }

    /// A resume claim is valid iff `claimed.frames ≤ durable.frames` (acks
    /// may have been lost, so the client may lag, never lead) **and** the
    /// cursor at `claimed.frames` equals the claim — the two sides accepted
    /// the same frame prefix.
    fn check_resume(&self, client: u32, claimed: Option<ResumeCursor>) -> Result<(), SessionError> {
        if client != self.client {
            let journal = self.client;
            return Err(SessionError::ClientMismatch {
                hello: client,
                journal,
            });
        }
        let Some(claimed) = claimed else {
            return Ok(());
        };
        let durable = self.cursor();
        let at = claimed.frames.min(durable.frames) as usize;
        if claimed.frames > durable.frames || claimed != self.cursor_at(at) {
            let durable = ResumeCursor {
                frames: durable.frames,
                ..self.cursor_at(at)
            };
            return Err(SessionError::CursorMismatch { claimed, durable });
        }
        Ok(())
    }

    pub(crate) fn on(&mut self, input: Input, out: &mut Vec<Output>) {
        match input {
            Input::Frame(bytes) => {
                let frame = decode_frame_with(&bytes, &mut self.interner);
                self.inbox.push_back((bytes, frame));
            }
            Input::Drained(backlog) => {
                self.backlog = backlog;
                self.run(out);
            }
            Input::Synced => {
                self.syncing = false;
                self.opened = true;
                self.settle(out);
            }
            Input::SyncFailed => {
                // The batch is forgotten, on disk and here: ack nothing,
                // deliver nothing, drop the connection.
                self.stats.journal_failures += 1;
                self.cursors.truncate(self.durable);
                if !self.opened {
                    self.session = 0;
                }
                self.syncing = false;
                self.batch = Batch::default();
                self.close(out);
            }
            Input::Timer => {
                // Silent peer: close the connection, keep the session.
                self.stats.idle_timeouts += 1;
                self.close(out);
            }
            Input::Lost { clean } => {
                self.stats.corrupt_frames += u64::from(!clean);
                self.inbox.clear();
            }
            Input::Opened | Input::Stage(_) => {}
        }
    }

    fn close(&mut self, out: &mut Vec<Output>) {
        self.inbox.clear();
        out.push(Output::Close);
    }

    /// Decides on the inbox in order until it is empty or a sync is out.
    fn run(&mut self, out: &mut Vec<Output>) {
        while !self.syncing {
            let Some((bytes, frame)) = self.inbox.pop_front() else {
                return self.commit(out);
            };
            let open = self.batch.frames > 0;
            match frame {
                Ok(WireFrame::Events {
                    client,
                    frame_seq,
                    events,
                    fingerprint,
                }) if client == self.client
                    && (!open || self.batch.events + events.len() <= self.limit) =>
                {
                    self.admit(bytes, frame_seq, events, fingerprint, out)
                }
                // Anything else ends the open batch first: it waits for the
                // batch's sync.
                frame if open => {
                    self.inbox.push_front((bytes, frame));
                    self.commit(out);
                }
                frame => self.handle(frame, out),
            }
        }
    }

    /// Admits one `EVENTS` frame of the batch.
    fn admit(
        &mut self,
        bytes: Vec<u8>,
        frame_seq: u64,
        events: Vec<(u64, Event)>,
        fingerprint: u64,
        out: &mut Vec<Output>,
    ) {
        let (batch, events_in) = (&mut self.batch, events.len());
        batch.frames += 1;
        batch.events += events_in;
        let next = self.cursors.len() as u64;
        if self.finished {
            // The stream already ended: re-ack where it ended.
            self.stats.protocol_errors += 1;
            batch.ack = true;
            return;
        }
        let shed = match self.backlog {
            // A restart replay owns the rings: shed the whole batch.
            None => true,
            Some(backlog) => backlog > self.limit && frame_seq == next,
        };
        if shed {
            // Never journaled, never acked: the client's window still holds
            // it, and replays it after `retry_after`.
            self.stats.overloaded_rejections += 1;
            batch.shed = true;
            return;
        }
        batch.ack = true;
        if frame_seq < next {
            self.stats.duplicate_frames += 1;
            return;
        }
        if frame_seq > next {
            self.stats.gap_frames += 1;
            return;
        }
        batch.accepted.push(events);
        let (last, events) = (self.cursor_at(next as usize), events_in as u64);
        self.cursors.push(ResumeCursor {
            frames: next + 1,
            events: last.events + events,
            chain: chain_fingerprint(last.chain, fingerprint),
        });
        out.push(Output::Append {
            bytes,
            events,
            fingerprint,
        });
    }

    /// Ends the batch: one sync if it journaled anything, else its answer.
    fn commit(&mut self, out: &mut Vec<Output>) {
        if self.batch.accepted.is_empty() {
            self.settle(out);
        } else {
            out.push(Output::Sync);
            self.syncing = true;
        }
    }

    /// What a batch owes once durable: deliveries, then one ack.
    fn settle(&mut self, out: &mut Vec<Output>) {
        let batch = std::mem::take(&mut self.batch);
        self.durable = self.cursors.len();
        self.finished |= batch.shutdown;
        self.stats.commits += u64::from(!batch.accepted.is_empty());
        for events in batch.accepted {
            self.stats.accepted_frames += 1;
            self.stats.accepted_events += events.len() as u64;
            out.push(Output::Deliver(events));
        }
        // Ack first, so that a shed client rewinds to the freshest cursor.
        if batch.ack {
            out.push(Output::Send(WireFrame::Ack {
                client: self.client,
                session: self.session,
                cursor: self.cursor(),
            }));
        }
        if batch.shed {
            out.push(Output::Send(WireFrame::Overloaded {
                client: self.client,
                retry_after_ms: RETRY_AFTER_MS,
            }));
        }
    }

    /// A frame outside any batch.
    fn handle(&mut self, frame: Result<WireFrame, WireError>, out: &mut Vec<Output>) {
        match frame {
            Ok(WireFrame::Hello {
                client,
                session,
                resume,
                ..
            }) => self.attach(client, session, resume, out),
            Ok(WireFrame::Shutdown {
                events_sent,
                stream_fingerprint,
                ..
            }) => {
                let cursor = self.cursor();
                if (cursor.events, cursor.chain) != (events_sent, stream_fingerprint) {
                    self.stats.shutdown_mismatches += 1;
                    return;
                }
                self.stats.shutdowns += 1;
                if !self.finished {
                    out.push(Output::AppendShutdown {
                        events: events_sent,
                        chain: stream_fingerprint,
                    });
                    out.push(Output::Sync);
                    self.batch.shutdown = true;
                    self.syncing = true;
                }
            }
            Ok(WireFrame::Ping { token }) => out.push(Output::Send(WireFrame::Pong { token })),
            Ok(WireFrame::Pong { .. }) => {}
            Ok(_) => self.stats.protocol_errors += 1,
            Err(_) => self.stats.corrupt_frames += 1,
        }
    }

    /// A hello: attach to the slot's session (opening it if there is none)
    /// and answer with the durable cursor, or refuse by closing.
    fn attach(
        &mut self,
        client: u32,
        session: u64,
        resume: Option<ResumeCursor>,
        out: &mut Vec<Output>,
    ) {
        self.stats.connections += 1;
        if self.session != 0 && self.session != session {
            self.stats.protocol_errors += 1;
            return self.close(out);
        }
        if self.check_resume(client, resume).is_err() {
            // A fresh session refuses any claim of durable history, before
            // a journal exists: the refusal burns nothing.
            self.stats.resume_rejections += 1;
            return self.close(out);
        }
        if resume.is_some_and(|c| c.frames > 0) {
            self.stats.resumes += 1;
        }
        self.batch.ack = true;
        if self.session == 0 {
            self.session = session;
            out.push(Output::Sync);
            self.syncing = true;
        } else {
            self.settle(out);
        }
    }
}

// ---------------------------------------------------------------------------
// Client side: the unacked window
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
enum Phase {
    /// No connection: the driver opens one now.
    Idle,
    /// A connection attempt failed: the timer says when to try again.
    BackingOff,
    /// The hello is out; nothing else is sent before the attach ack.
    Attaching,
    /// Attached: the window streams.
    Streaming,
}

/// The client side of one session: the encoded `EVENTS` frames sent but not
/// yet covered by a durability ack, retained for replay, and the connection
/// lifecycle around them.
///
/// The window is also what makes [`WireFrame::Overloaded`] free to honor: a
/// shed frame was never acked, so it is still in the window, and the next
/// replay retransmits it — rejection and loss are the same recovery path.
#[derive(Clone)]
pub(crate) struct ClientSession {
    client: u32,
    session: u64,
    /// Unacked frames past which the driver waits for acks.
    limit: usize,
    /// Oldest first: `window[i]` is frame `acked.frames + i`.
    window: VecDeque<Vec<u8>>,
    /// The highest cursor the replica has acked.
    acked: ResumeCursor,
    /// Frames below this went out on the current connection.
    sent: u64,
    /// Frames below this went out on some connection: what tells a
    /// retransmission from a first send.
    high_water: u64,
    phase: Phase,
    /// Ack timeouts in a row without window progress.
    stalls: u32,
    /// A ping is out and nothing has arrived since.
    probing: bool,
    /// An `OVERLOADED` holds sending until the timer fires.
    held: bool,
    connected_once: bool,
    backoff: Backoff,
    pub(crate) dead: Option<RetriesExhausted>,
    pub(crate) stats: RecoverableClientStats,
    pub(crate) summaries: Vec<VerdictSummary>,
}

impl ClientSession {
    /// A fresh session window holding at most `limit` frames between
    /// waits, reconnecting under `backoff`.
    pub(crate) fn new(client: u32, session: u64, limit: usize, backoff: Backoff) -> ClientSession {
        ClientSession {
            client,
            session,
            limit,
            window: VecDeque::new(),
            acked: start(client),
            sent: 0,
            high_water: 0,
            phase: Phase::Idle,
            stalls: 0,
            probing: false,
            held: false,
            connected_once: false,
            backoff,
            dead: None,
            stats: RecoverableClientStats::default(),
            summaries: Vec::new(),
        }
    }

    /// The driver should open a connection now.
    pub(crate) fn idle(&self) -> bool {
        self.dead.is_none() && self.phase == Phase::Idle
    }

    /// Nothing to wait for: the client is dead, or attached with at most
    /// `limit` frames unacked (none, when `flush`).
    pub(crate) fn settled(&self, flush: bool) -> bool {
        let room = if flush { 0 } else { self.limit };
        self.dead.is_some() || (self.phase == Phase::Streaming && self.window.len() <= room)
    }

    /// The window frame a [`Output::SendWindow`] names.
    pub(crate) fn frame(&self, index: usize) -> &[u8] {
        &self.window[index]
    }

    pub(crate) fn on(&mut self, input: Input, out: &mut Vec<Output>) {
        match input {
            Input::Opened => {
                // The hello always carries the resume cursor: against a
                // fresh session it claims zero frames, which validates.
                out.push(Output::Send(WireFrame::Hello {
                    client: self.client,
                    version: VERSION,
                    session: self.session,
                    resume: Some(self.acked),
                }));
                out.push(Output::Arm(ACK_TIMEOUT));
                self.phase = Phase::Attaching;
            }
            Input::Stage(bytes) => {
                self.window.push_back(bytes);
                self.send_unsent(out);
            }
            Input::Frame(bytes) => self.receive(&bytes, out),
            Input::Timer => self.timer(out),
            Input::Lost { .. } => self.lost(out),
            Input::Drained(_) | Input::Synced | Input::SyncFailed => {}
        }
    }

    fn timer(&mut self, out: &mut Vec<Output>) {
        match self.phase {
            Phase::BackingOff => self.phase = Phase::Idle,
            // No attach ack in time: give the connection up and back off.
            Phase::Attaching => {
                out.push(Output::Close);
                self.lost(out);
            }
            Phase::Streaming if self.held => {
                self.held = false;
                self.send_unsent(out);
            }
            Phase::Streaming if !self.window.is_empty() => {
                self.stalls += 1;
                if self.probing || self.stalls >= STALL_LIMIT {
                    // A dead or wedged peer, or one alive but not acking:
                    // reconnect and replay.
                    out.push(Output::Close);
                    return self.lost(out);
                }
                // The token is opaque: any frame ends the probe.
                let token = u64::from(self.stalls);
                self.probing = true;
                out.push(Output::Send(WireFrame::Ping { token }));
                out.push(Output::Arm(ACK_TIMEOUT));
            }
            Phase::Streaming | Phase::Idle => {}
        }
    }

    /// The connection is gone.  One that attached is resumed at once; an
    /// attempt that never did spends retry budget.
    fn lost(&mut self, out: &mut Vec<Output>) {
        (self.stalls, self.probing, self.held) = (0, false, false);
        if self.phase == Phase::Streaming {
            self.phase = Phase::Idle;
            return;
        }
        match self.backoff.next_delay() {
            Ok(delay) => {
                self.phase = Phase::BackingOff;
                out.push(Output::Arm(delay));
            }
            Err(e) => self.dead = Some(e),
        }
    }

    /// One frame from the replica, whatever the client was waiting for.
    fn receive(&mut self, bytes: &[u8], out: &mut Vec<Output>) {
        self.probing = false;
        match decode_frame(bytes) {
            Ok(WireFrame::Ack { cursor, .. }) if self.covers(cursor) => {
                self.stats.acks += 1;
                // An ack proves a live, cooperating replica: re-arm the
                // retry budget.
                self.backoff.reset();
                let before = self.window.len();
                if cursor.frames >= self.acked.frames {
                    self.window
                        .drain(..(cursor.frames - self.acked.frames) as usize);
                    self.acked = cursor;
                }
                if self.phase == Phase::Attaching {
                    // The replay starts at the replica's durable cursor, not
                    // at whatever ack the last connection delivered.
                    self.stats.reconnects += u64::from(self.connected_once);
                    self.connected_once = true;
                    self.phase = Phase::Streaming;
                    self.sent = self.acked.frames;
                    self.send_unsent(out);
                } else if self.window.len() < before {
                    self.stalls = 0;
                    if !self.window.is_empty() && !self.held {
                        out.push(Output::Arm(ACK_TIMEOUT));
                    }
                }
            }
            Ok(WireFrame::Overloaded { retry_after_ms, .. }) => {
                self.stats.overloads += 1;
                if self.phase == Phase::Streaming {
                    // The shed frame (and everything after it) goes again
                    // after the advertised delay; the replica dedups overlap.
                    self.sent = self.acked.frames;
                    self.held = true;
                    let delay = u64::from(retry_after_ms.min(1000));
                    out.push(Output::Arm(Duration::from_millis(delay)));
                }
            }
            Ok(WireFrame::Verdict(summary)) => self.summaries.push(summary),
            Ok(WireFrame::Pong { .. }) => {}
            Ok(_) | Err(_) => self.stats.protocol_errors += 1,
        }
    }

    /// An ack names at most the frames this client staged.  One below an
    /// earlier ack is stale (reordered) and prunes nothing.
    fn covers(&self, cursor: ResumeCursor) -> bool {
        cursor.frames <= self.acked.frames + self.window.len() as u64
    }

    /// Sends every window frame the current connection has not carried.
    fn send_unsent(&mut self, out: &mut Vec<Output>) {
        if self.phase != Phase::Streaming || self.held {
            return;
        }
        let base = self.acked.frames;
        let (first, end) = (self.sent.max(base), base + self.window.len() as u64);
        for seq in first..end {
            out.push(Output::SendWindow((seq - base) as usize));
            self.stats.retransmitted_frames += u64::from(seq < self.high_water);
        }
        if first < end {
            self.high_water = self.high_water.max(end);
            self.sent = end;
            out.push(Output::Arm(ACK_TIMEOUT));
        }
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
    use crate::client::FrameSealer;
    use crate::wire::encode_frame;
    use evlin_history::{ObjectId, ProcessId};
    use evlin_spec::FetchIncrement;

    /// `n` sealed one-event frames of `client`'s stream, with the cursor
    /// after each.
    fn sealed(client: u32, n: usize) -> (Vec<Vec<u8>>, Vec<ResumeCursor>) {
        let mut sealer = FrameSealer::new(client, 1);
        let mut cursor = start(client);
        (0..n)
            .map(|i| {
                let event = Event::invoke(ProcessId(0), ObjectId(0), FetchIncrement::fetch_inc());
                sealer.push(i as u64, event);
                let (bytes, events) = sealer.seal().expect("one event sealed");
                let Ok(WireFrame::Events { fingerprint, .. }) = decode_frame(&bytes) else {
                    unreachable!("a sealed frame decodes");
                };
                cursor = ResumeCursor {
                    frames: cursor.frames + 1,
                    events: cursor.events + events,
                    chain: chain_fingerprint(cursor.chain, fingerprint),
                };
                (bytes, cursor)
            })
            .unzip()
    }

    fn hello(client: u32, session: u64, resume: Option<ResumeCursor>) -> Vec<u8> {
        encode_frame(&WireFrame::Hello {
            client,
            version: VERSION,
            session,
            resume,
        })
    }

    /// Feeds `frames` and a drain, answering every sync at once.
    fn deliver(rx: &mut ReplicaSession, frames: &[&[u8]], backlog: Option<usize>) -> Vec<Output> {
        let mut out = Vec::new();
        for bytes in frames {
            rx.on(Input::Frame(bytes.to_vec()), &mut out);
        }
        rx.on(Input::Drained(backlog), &mut out);
        while matches!(out.last(), Some(Output::Sync)) {
            rx.on(Input::Synced, &mut out);
            rx.on(Input::Drained(backlog), &mut out);
        }
        out
    }

    fn acks(out: &[Output]) -> Vec<u64> {
        out.iter()
            .filter_map(|o| match o {
                Output::Send(WireFrame::Ack { cursor, .. }) => Some(cursor.frames),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_batch_admits_in_order_dedups_replays_rejects_gaps_and_acks_after_its_sync() {
        let (frames, cursors) = sealed(4, 4);
        let mut rx = ReplicaSession::new(4, 64);
        let out = deliver(&mut rx, &[&hello(4, 1, None)], Some(0));
        assert_eq!(acks(&out), [0]);
        // [fresh, fresh, duplicate, gap, fresh]: three appends, one sync.
        let batch = [0usize, 1, 0, 3, 2].map(|i| frames[i].as_slice());
        let mut out = Vec::new();
        for bytes in batch {
            rx.on(Input::Frame(bytes.to_vec()), &mut out);
        }
        rx.on(Input::Drained(Some(0)), &mut out);
        let appended = out
            .iter()
            .filter(|o| matches!(o, Output::Append { .. }))
            .count();
        assert_eq!(appended, 3);
        assert!(matches!(out.last(), Some(Output::Sync)));
        // Nothing is durable, delivered or acked before the sync answers.
        assert_eq!(rx.cursor().frames, 0);
        assert!(acks(&out).is_empty());
        out.clear();
        rx.on(Input::Synced, &mut out);
        let delivered = out
            .iter()
            .filter(|o| matches!(o, Output::Deliver(_)))
            .count();
        assert_eq!((delivered, acks(&out)), (3, vec![3]));
        assert_eq!(rx.cursor(), cursors[2]);
        let s = rx.stats;
        assert_eq!((s.accepted_frames, s.commits), (3, 1));
        assert_eq!((s.duplicate_frames, s.gap_frames), (1, 1));
    }

    /// One receive that carries more than `limit` events is committed as
    /// several batches, each admitted against the backlog probed after the
    /// one before it delivered, never against a running sum.
    #[test]
    fn each_batch_of_a_receive_is_admitted_against_a_fresh_probe() {
        let (frames, _) = sealed(1, 6);
        let mut rx = ReplicaSession::new(1, 2);
        deliver(&mut rx, &[&hello(1, 3, None)], Some(0));
        let mut out = Vec::new();
        for bytes in &frames {
            rx.on(Input::Frame(bytes.clone()), &mut out);
        }
        rx.on(Input::Drained(Some(0)), &mut out);
        rx.on(Input::Synced, &mut out);
        // The first batch is settled and nothing more admitted: the rest
        // waits for the backlog its deliveries left.
        assert!(matches!(
            out.last(),
            Some(Output::Send(WireFrame::Ack { .. }))
        ));
        let out = deliver(&mut rx, &[], Some(0));
        assert_eq!(acks(&out), [4, 6]);
        let s = rx.stats;
        assert_eq!((s.commits, s.accepted_frames), (3, 6));
        assert_eq!((s.overloaded_rejections, s.gap_frames), (0, 0));
    }

    #[test]
    fn a_failed_sync_forgets_the_batch_and_closes() {
        let (frames, _) = sealed(2, 2);
        let mut rx = ReplicaSession::new(2, 64);
        deliver(&mut rx, &[&hello(2, 5, None)], Some(0));
        let mut out = Vec::new();
        rx.on(Input::Frame(frames[0].clone()), &mut out);
        rx.on(Input::Drained(Some(0)), &mut out);
        out.clear();
        rx.on(Input::SyncFailed, &mut out);
        assert!(matches!(out[..], [Output::Close]));
        assert_eq!(rx.stats.journal_failures, 1);
        // The retransmission lands where the failed attempt was.
        let out = deliver(&mut rx, &[&frames[0]], Some(0));
        assert_eq!(acks(&out), [1]);
    }

    #[test]
    fn resume_cross_checks_the_claimed_cursor() {
        let (_, cursors) = sealed(2, 2);
        let reopened = || ReplicaSession::reopened(2, 64, 5, cursors.clone(), false);
        // Claiming the tip, an earlier ack, or nothing at all: all valid.
        for claim in [Some(cursors[1]), Some(cursors[0]), None] {
            let out = deliver(&mut reopened(), &[&hello(2, 5, claim)], Some(0));
            assert_eq!(acks(&out), [2], "{claim:?}");
        }
        let ahead = ResumeCursor {
            frames: 3,
            ..cursors[1]
        };
        let forged = ResumeCursor {
            chain: cursors[1].chain ^ 1,
            ..cursors[1]
        };
        for (client, session, claim) in [(2, 5, ahead), (2, 5, forged), (9, 5, cursors[1])] {
            let mut rx = reopened();
            assert!(rx.check_resume(client, Some(claim)).is_err());
            let out = deliver(&mut rx, &[&hello(client, session, Some(claim))], Some(0));
            assert!(matches!(out[..], [Output::Close]), "{out:?}");
            assert_eq!(rx.stats.resume_rejections, 1);
        }
        // A hello naming another session of the slot is refused too.
        let out = deliver(&mut reopened(), &[&hello(2, 6, None)], Some(0));
        assert!(matches!(out[..], [Output::Close]));
    }

    #[test]
    fn the_window_prunes_on_ack_and_replays_the_rest_from_the_attach_cursor() {
        let (frames, cursors) = sealed(7, 4);
        let ack = |cursor| {
            encode_frame(&WireFrame::Ack {
                client: 7,
                session: 1,
                cursor,
            })
        };
        let mut tx = ClientSession::new(7, 1, 32, Backoff::standard(1));
        let mut out = Vec::new();
        tx.on(Input::Opened, &mut out);
        tx.on(Input::Frame(ack(start(7))), &mut out);
        for bytes in &frames {
            tx.on(Input::Stage(bytes.clone()), &mut out);
        }
        let sent = |out: &[Output]| -> Vec<usize> {
            out.iter()
                .filter_map(|o| match o {
                    Output::SendWindow(i) => Some(*i),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(sent(&out), [0, 1, 2, 3], "each sent as it is staged");
        // Ack through frame 1; a stale ack after it prunes nothing.
        tx.on(Input::Frame(ack(cursors[1])), &mut out);
        tx.on(Input::Frame(ack(cursors[0])), &mut out);
        assert_eq!(tx.window.len(), 2);
        assert_eq!(tx.frame(0), frames[2].as_slice());
        // The connection dies; the next attach ack says frame 2 is durable
        // too, so the replay is frame 3 alone, a retransmission.
        out.clear();
        tx.on(Input::Lost { clean: true }, &mut out);
        assert!(tx.idle());
        tx.on(Input::Opened, &mut out);
        tx.on(Input::Frame(ack(cursors[2])), &mut out);
        assert_eq!(sent(&out), [0]);
        assert_eq!(tx.frame(0), frames[3].as_slice());
        assert_eq!((tx.stats.reconnects, tx.stats.retransmitted_frames), (1, 1));
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

/// Both machines over an in-memory network and journal, every schedule at
/// small scope: one session of [`FRAMES`] frames, a window of [`WINDOW`],
/// at most [`FAULTS`] network faults (drop, duplicate, reorder, disconnect)
/// and one replica crash, which loses the journal's unsynced suffix.  A
/// breadth-first search with fingerprint dedup checks every state it
/// reaches:
///
/// * safety — the journal is a prefix of the client's frames, each once and
///   in order; no ack exceeds the synced prefix; nothing is delivered before
///   its sync, and what is delivered is the synced prefix, in order;
/// * refusal — a resume whose chain does not match is refused;
/// * liveness — with no further fault, the timely schedule ends with every
///   frame journaled, delivered and acked, and the window empty.
///
/// Timers fire only while nothing is in flight: a timeout means silence.
#[cfg(test)]
mod model {
    use super::*;
    use crate::client::FrameSealer;
    use crate::wire::encode_frame;
    use evlin_history::{ObjectId, ProcessId};
    use evlin_spec::FetchIncrement;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{HashMap, HashSet};
    use std::hash::{Hash, Hasher};

    const FRAMES: usize = 3;
    const WINDOW: usize = 2;
    const FAULTS: u8 = 2;
    const CLIENT: u32 = 3;
    const SESSION: u64 = 0x5E55;

    /// The client's stream: each frame's wire encoding, events and the
    /// cursor after it.
    struct Stream {
        frames: Vec<Vec<u8>>,
        events: Vec<Vec<(u64, Event)>>,
        cursors: Vec<ResumeCursor>,
    }

    fn stream() -> Stream {
        let mut sealer = FrameSealer::new(CLIENT, 1);
        let mut stream = Stream {
            frames: Vec::new(),
            events: Vec::new(),
            cursors: Vec::new(),
        };
        let mut cursor = start(CLIENT);
        for seq in 0..FRAMES as u64 {
            let event = Event::invoke(ProcessId(0), ObjectId(0), FetchIncrement::fetch_inc());
            sealer.push(seq, event);
            let (bytes, _) = sealer.seal().expect("one event sealed");
            let Ok(WireFrame::Events {
                events,
                fingerprint,
                ..
            }) = decode_frame(&bytes)
            else {
                unreachable!("a sealed frame decodes");
            };
            cursor = ResumeCursor {
                frames: seq + 1,
                events: cursor.events + events.len() as u64,
                chain: chain_fingerprint(cursor.chain, fingerprint),
            };
            stream.frames.push(bytes);
            stream.events.push(events);
            stream.cursors.push(cursor);
        }
        stream
    }

    #[derive(Clone)]
    struct World {
        client: ClientSession,
        replica: ReplicaSession,
        staged: usize,
        /// The open connection's two directions, oldest first.
        up: VecDeque<Vec<u8>>,
        down: VecDeque<Vec<u8>>,
        connected: bool,
        /// The replica has taken this connection's first frame.
        greeted: bool,
        armed: bool,
        /// Every record appended; the first `synced` are durable.
        journal: Vec<Vec<u8>>,
        synced: usize,
        delivered: usize,
        faults: u8,
        crashed: bool,
    }

    type Step = Result<(), String>;

    impl World {
        fn new() -> World {
            World {
                client: ClientSession::new(CLIENT, SESSION, WINDOW, Backoff::standard(1)),
                replica: ReplicaSession::new(CLIENT, 64),
                staged: 0,
                up: VecDeque::new(),
                down: VecDeque::new(),
                connected: false,
                greeted: false,
                armed: false,
                journal: Vec::new(),
                synced: 0,
                delivered: 0,
                faults: 0,
                crashed: false,
            }
        }

        fn done(&self) -> bool {
            self.staged == FRAMES
                && self.synced == FRAMES
                && self.delivered == FRAMES
                && self.client.dead.is_none()
                && self.client.settled(true)
                && self.client.acked.frames == FRAMES as u64
        }

        fn fingerprint(&self) -> u64 {
            let mut h = DefaultHasher::new();
            let c = &self.client;
            (c.window.len(), c.acked.frames, c.sent, c.phase, c.stalls).hash(&mut h);
            (c.probing, c.held, c.dead.is_some(), c.backoff.attempt).hash(&mut h);
            let r = &self.replica;
            (r.session, r.opened, r.cursors.len(), r.durable, r.finished).hash(&mut h);
            for queue in [&self.up, &self.down] {
                queue.len().hash(&mut h);
                for bytes in queue {
                    // Ping tokens count up; the protocol never reads them.
                    match decode_frame(bytes) {
                        Ok(WireFrame::Ping { .. }) => 1u8.hash(&mut h),
                        Ok(WireFrame::Pong { .. }) => 2u8.hash(&mut h),
                        _ => bytes.hash(&mut h),
                    }
                }
            }
            (self.staged, self.connected, self.greeted, self.armed).hash(&mut h);
            (self.journal.len(), self.synced, self.delivered).hash(&mut h);
            (self.faults, self.crashed).hash(&mut h);
            h.finish()
        }

        fn feed_client(&mut self, input: Input) {
            let mut out = Vec::new();
            self.client.on(input, &mut out);
            for output in out {
                match output {
                    Output::Send(frame) if self.connected => {
                        self.up.push_back(encode_frame(&frame))
                    }
                    Output::SendWindow(i) if self.connected => {
                        self.up.push_back(self.client.frame(i).to_vec())
                    }
                    Output::Arm(_) => self.armed = true,
                    Output::Close => self.hang_up(false),
                    _ => {}
                }
            }
        }

        fn feed_replica(&mut self, s: &Stream, input: Input) -> Step {
            let mut next = Some(input);
            while let Some(input) = next.take() {
                // The buffer is still drained after a sync: go on.
                let resume = matches!(input, Input::Synced).then_some(Input::Drained(Some(0)));
                let mut out = Vec::new();
                self.replica.on(input, &mut out);
                for output in out {
                    match output {
                        Output::Append { bytes, .. } => {
                            let at = self.journal.len();
                            if s.frames.get(at) != Some(&bytes) {
                                return Err(format!("journal record {at} is not frame {at}"));
                            }
                            self.journal.push(bytes);
                        }
                        Output::Sync => {
                            self.synced = self.journal.len();
                            next = Some(Input::Synced);
                        }
                        Output::Deliver(events) => {
                            let at = self.delivered;
                            if at >= self.synced {
                                return Err(format!("frame {at} delivered before its sync"));
                            }
                            if events != s.events[at] {
                                return Err(format!("delivery {at} is not frame {at}"));
                            }
                            self.delivered += 1;
                        }
                        Output::Send(frame) => {
                            if let WireFrame::Ack { cursor, .. } = &frame {
                                if cursor.frames > self.synced as u64 {
                                    let synced = self.synced;
                                    return Err(format!("ack of {cursor:?} past {synced} synced"));
                                }
                            }
                            if self.connected {
                                self.down.push_back(encode_frame(&frame));
                            }
                        }
                        Output::Close => self.hang_up(true),
                        _ => {}
                    }
                }
                next = next.or(resume);
            }
            Ok(())
        }

        /// The connection ends; the client hears of it unless it hung up.
        fn hang_up(&mut self, tell_client: bool) {
            if !self.connected {
                return;
            }
            (self.connected, self.greeted) = (false, false);
            self.up.clear();
            self.down.clear();
            let mut out = Vec::new();
            self.replica.on(Input::Lost { clean: true }, &mut out);
            if tell_client {
                self.feed_client(Input::Lost { clean: true });
            }
        }

        /// The replica's handler takes the first `k` frames off the wire,
        /// then finds its buffer drained.
        fn take(&mut self, s: &Stream, k: usize) -> Step {
            for _ in 0..k {
                let Some(bytes) = self.up.pop_front() else {
                    break;
                };
                if !self.greeted {
                    // The first frame must be a hello: anything else orphans
                    // the connection.
                    if !matches!(decode_frame(&bytes), Ok(WireFrame::Hello { .. })) {
                        self.hang_up(true);
                        return Ok(());
                    }
                    self.greeted = true;
                }
                self.feed_replica(s, Input::Frame(bytes))?;
            }
            self.feed_replica(s, Input::Drained(Some(0)))
        }

        fn timer_due(&self) -> bool {
            self.armed
                && self.up.is_empty()
                && self.down.is_empty()
                && !self.client.settled(self.staged == FRAMES)
        }

        /// Every step of the timely, fault-free schedule, most urgent first.
        fn timely(&mut self, s: &Stream) -> Option<Step> {
            if !self.up.is_empty() {
                let k = self.up.len();
                return Some(self.take(s, k));
            }
            if let Some(bytes) = self.down.pop_front() {
                self.feed_client(Input::Frame(bytes));
            } else if self.client.idle() {
                self.connect();
            } else if self.staged < FRAMES && self.client.settled(false) {
                self.stage(s);
            } else if self.timer_due() {
                self.armed = false;
                self.feed_client(Input::Timer);
            } else {
                return None;
            }
            Some(Ok(()))
        }

        fn queue(&mut self, up: bool) -> &mut VecDeque<Vec<u8>> {
            if up {
                &mut self.up
            } else {
                &mut self.down
            }
        }

        fn connect(&mut self) {
            (self.connected, self.greeted) = (true, false);
            self.feed_client(Input::Opened);
        }

        fn stage(&mut self, s: &Stream) {
            self.staged += 1;
            self.feed_client(Input::Stage(s.frames[self.staged - 1].clone()));
        }

        /// The replica process dies: the unsynced suffix and every
        /// connection with it; a fresh one reopens the journal and replays
        /// it to the rebuilt monitor.
        fn crash(&mut self, s: &Stream) {
            self.hang_up(true);
            self.journal.truncate(self.synced);
            self.delivered = self.synced;
            self.replica = match self.replica.opened {
                false => ReplicaSession::new(CLIENT, 64),
                true => {
                    let cursors = s.cursors[..self.synced].to_vec();
                    ReplicaSession::reopened(CLIENT, 64, SESSION, cursors, false)
                }
            };
            self.crashed = true;
        }

        /// Every successor, labelled.
        fn successors(&self, s: &Stream) -> Vec<(String, Result<World, String>)> {
            let mut next: Vec<(String, Result<World, String>)> = Vec::new();
            let mut step = |label: String, f: &dyn Fn(&mut World) -> Step| {
                let mut w = self.clone();
                next.push((label, f(&mut w).map(|()| w)));
            };
            for k in 1..=self.up.len() {
                step(format!("replica takes {k}"), &|w| w.take(s, k));
            }
            if !self.down.is_empty() {
                step("client takes 1".into(), &|w| {
                    let bytes = w.down.pop_front().expect("nonempty");
                    w.feed_client(Input::Frame(bytes));
                    Ok(())
                });
            }
            if self.client.idle() {
                step("client connects".into(), &|w| {
                    w.connect();
                    Ok(())
                });
            }
            if self.staged < FRAMES && self.client.settled(false) {
                step("client stages".into(), &|w| {
                    w.stage(s);
                    Ok(())
                });
            }
            if self.timer_due() {
                step("client timer".into(), &|w| {
                    w.armed = false;
                    w.feed_client(Input::Timer);
                    Ok(())
                });
            }
            if !self.crashed {
                step("replica crashes".into(), &|w| {
                    w.crash(s);
                    Ok(())
                });
            }
            if self.faults == FAULTS {
                return next;
            }
            let mut fault = |label: String, f: &dyn Fn(&mut World)| {
                step(label, &|w| {
                    w.faults += 1;
                    f(w);
                    Ok(())
                });
            };
            if self.connected {
                fault("disconnect".into(), &|w| w.hang_up(true));
            }
            for (up, len) in [(true, self.up.len()), (false, self.down.len())] {
                let name = if up { "up" } else { "down" };
                for i in 0..len {
                    fault(format!("drop {name}[{i}]"), &|w| {
                        w.queue(up).remove(i);
                    });
                    fault(format!("duplicate {name}[{i}]"), &|w| {
                        let copy = w.queue(up)[i].clone();
                        w.queue(up).insert(i, copy);
                    });
                    if i + 1 < len {
                        fault(format!("swap {name}[{i}]"), &|w| w.queue(up).swap(i, i + 1));
                    }
                }
            }
            next
        }

        /// The invariants every state must hold, the transition checks
        /// aside.
        fn check(&self) -> Step {
            if self.delivered > self.synced || self.synced > self.journal.len() {
                return Err("delivered past synced past journaled".into());
            }
            // A resume at the durable frame count with a wrong chain, and
            // one claiming a frame more than is durable, are refused.
            let durable = self.replica.cursor();
            let claims = [
                ResumeCursor {
                    chain: durable.chain ^ 1,
                    ..durable
                },
                ResumeCursor {
                    frames: durable.frames + 1,
                    ..durable
                },
            ];
            for claim in claims {
                let mut replica = self.replica.clone();
                let mut out = Vec::new();
                let hello = WireFrame::Hello {
                    client: CLIENT,
                    version: VERSION,
                    session: SESSION,
                    resume: Some(claim),
                };
                replica.on(Input::Frame(encode_frame(&hello)), &mut out);
                replica.on(Input::Drained(Some(0)), &mut out);
                if !matches!(out[..], [Output::Close]) {
                    return Err(format!(
                        "the resume claim {claim:?} was not refused: {out:?}"
                    ));
                }
            }
            Ok(())
        }
    }

    /// The path from the initial state to state `at`.
    fn trace(parents: &[(usize, String)], mut at: usize) -> String {
        let mut steps = Vec::new();
        while at != 0 {
            steps.push(parents[at].1.clone());
            at = parents[at].0;
        }
        steps.reverse();
        steps.join(" → ")
    }

    #[test]
    fn every_schedule_of_one_session_is_exactly_once_and_live() {
        let s = stream();
        let root = World::new();
        let mut seen: HashSet<u64> = HashSet::from([root.fingerprint()]);
        let mut states = vec![root];
        let mut parents: Vec<(usize, String)> = vec![(0, String::new())];
        let mut depth = vec![0usize];
        let mut at = 0;
        while at < states.len() {
            if let Err(why) = states[at].check() {
                let seen = (depth[at], states.len());
                panic!(
                    "{why} (depth, states: {seen:?})\nafter: {}",
                    trace(&parents, at)
                );
            }
            for (label, next) in states[at].successors(&s) {
                let world = match next {
                    Ok(world) => world,
                    Err(why) => {
                        let seen = (depth[at] + 1, states.len());
                        let path = trace(&parents, at);
                        panic!("{why} on `{label}` (depth, states: {seen:?})\nafter: {path}")
                    }
                };
                if seen.insert(world.fingerprint()) {
                    parents.push((at, label));
                    depth.push(depth[at] + 1);
                    states.push(world);
                }
            }
            at += 1;
        }
        // Liveness: the timely schedule from every state finishes.  It is
        // deterministic, so a state it passes through inherits the verdict.
        let mut good: HashMap<u64, bool> = HashMap::new();
        for (index, state) in states.iter().enumerate() {
            let mut world = state.clone();
            let mut path = Vec::new();
            let finished = loop {
                let fingerprint = world.fingerprint();
                if let Some(&known) = good.get(&fingerprint) {
                    break known;
                }
                path.push(fingerprint);
                if world.done() {
                    break true;
                }
                match world.timely(&s) {
                    Some(Ok(())) if path.len() < 1_000 => {}
                    Some(Err(why)) => panic!("{why}\nafter: {}", trace(&parents, index)),
                    _ => break false,
                }
            };
            assert!(
                finished,
                "stuck: the timely schedule does not finish after: {}",
                trace(&parents, index)
            );
            good.extend(path.into_iter().map(|f| (f, true)));
        }
        let deepest = depth.iter().max().copied().unwrap_or(0);
        eprintln!("model: {} states, depth {deepest}", states.len());
    }
}
