//! Frame transports: how encoded frames move between clients and replicas.
//!
//! The service is written against two one-direction traits — [`FrameTx`]
//! (send whole encoded frames) and [`FrameRx`] (receive whole encoded
//! frames) — with two shims behind them:
//!
//! * **In-process duplex** ([`duplex`]): a pair of bounded
//!   [`evlin_runtime::channel`]s carrying frame byte vectors.  The
//!   client→replica direction can run behind a
//!   [`evlin_runtime::FaultySender`], which loses, duplicates and reorders
//!   *whole frames* with the same seeded [`FaultPlan`] machinery the
//!   in-process pipeline uses — that is how the differential tests subject
//!   the wire protocol to transport faults deterministically.
//! * **Loopback TCP** ([`tcp_pair`] over `std::net`): real sockets, built
//!   offline with the standard library only.  The frame length prefix is
//!   the stream framing: a reader takes four length bytes, then the body.
//!
//! Both shims deliver *whole frames or nothing* — TCP by buffering raw bytes
//! and carving frames at length-prefix boundaries ([`split_frame`]), the
//! duplex channel by construction — so the codec layer never sees a split
//! frame and every corruption mode is frame-granular, matching the
//! fault-tolerance contract in `docs/PROTOCOL.md`.  A receiver can wait for
//! ever ([`FrameRx::recv`]), for a bounded time ([`FrameRx::recv_timeout`] →
//! [`WireError::PeerTimeout`], so a silently dead peer can never park a
//! thread forever) or not at all ([`FrameRx::try_recv`], the poll a sender
//! drains its ack plane with between two frames: a read timeout is rounded
//! up to the kernel's timer tick, so "wait 1 ms" costs 4–10 ms where it is
//! paid once per frame), and TCP senders can be armed with a `ChaosPlan`
//! injecting partial writes and mid-frame connection kills for the chaos
//! differential suite.

use crate::wire::{split_frame, WireError};
use evlin_runtime::channel::{
    self, Receiver, RecvTimeoutError, Sender, TryRecvError, TrySendError,
};
use evlin_runtime::fault::xorshift64;
use evlin_runtime::{FaultPlan, FaultySender};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The sending half of a frame transport.
///
/// `send` must deliver the frame or report why it could not; `try_send` is
/// the best-effort variant used by the lossy mid-run verdict plane — it
/// returns `Ok(false)` when the frame was dropped because the link was
/// saturated (only the duplex shim ever does; TCP just blocks briefly).
pub trait FrameTx: Send {
    /// Sends one encoded frame, blocking until the link accepts it.
    fn send(&mut self, frame: Vec<u8>) -> Result<(), WireError>;

    /// Sends one encoded frame without blocking; `Ok(false)` means the
    /// frame was dropped on a saturated link.
    fn try_send(&mut self, frame: Vec<u8>) -> Result<bool, WireError> {
        self.send(frame).map(|()| true)
    }

    /// Signals end of stream to the peer's receiver.
    ///
    /// The duplex shim ends the stream when the sender drops, so its `close`
    /// is a no-op; TCP must half-close explicitly, because the receiving
    /// half holds a duplicated descriptor that keeps the socket open.
    fn close(&mut self) {}

    /// Whether a send now would still leave `reserve` slots free.
    ///
    /// The verdict plane calls this before best-effort sends so the
    /// bounded duplex link always has seats left for the final, reliable
    /// per-shard summaries — the reservation that makes those sends
    /// non-blocking.  Links without admission control (TCP, whose kernel
    /// buffers absorb small frames) report `true`.
    fn has_room(&self, _reserve: usize) -> bool {
        true
    }
}

/// The receiving half of a frame transport.
pub trait FrameRx: Send {
    /// Receives the next whole frame; `None` is a clean end of stream.
    fn recv(&mut self) -> Result<Option<Vec<u8>>, WireError>;

    /// Receives with a deadline: blocks at most `timeout`, then surfaces
    /// [`WireError::PeerTimeout`] if the peer stayed silent.  Partial frame
    /// bytes already read are retained across timeouts — a slow peer is not
    /// a corrupt peer — so a later call resumes mid-frame.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, WireError>;

    /// Receives without waiting: a whole frame if one is already here, else
    /// [`WireError::PeerTimeout`] ("nothing yet") at once — no timer is
    /// armed, so the call costs the same whether or not the peer has sent
    /// anything.  A partial frame is kept for the next call, a clean close
    /// is `Ok(None)` and a close inside a frame a
    /// [`WireError::Transport`], exactly as for the waiting receives.
    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, WireError>;
}

// ---------------------------------------------------------------------------
// Chaos: mid-frame kills and partial writes
// ---------------------------------------------------------------------------

/// Seeded byte-level fault plan for a transport's *send* side, extending the
/// whole-frame [`FaultPlan`] faults (loss, duplication, reordering) with the
/// two failure shapes only a byte stream has: **partial writes** (a frame
/// split across multiple syscalls, exercising the reader's reassembly
/// buffer) and **mid-frame kills** (the connection torn down with a strict
/// prefix of a frame written — what a crashed client or an RST mid-`write`
/// leaves on the wire).
///
/// A plan is armed only on a [`TcpTx`], through `TcpTx::set_chaos`, which
/// the recoverable client calls once per connection attempt with the plan
/// its `ReconnectChaos` derives; the in-process duplex link has no byte
/// stream and takes no plan (its faults are [`FaultPlan`]'s whole-frame
/// ones).  Determinism: the same seed and call sequence produce the same
/// cut points.
#[derive(Debug, Clone)]
pub(crate) struct ChaosPlan {
    state: u64,
    /// Per-mille probability that a send is split into two writes.
    split_per_mille: u16,
    /// 0-based send index at which the connection is killed mid-frame.
    kill_at_frame: Option<u64>,
    sent: u64,
}

impl ChaosPlan {
    /// A no-fault plan with the given seed; compose with the builders.
    pub(crate) fn new(seed: u64) -> Self {
        ChaosPlan {
            // Xorshift needs a nonzero state.
            state: seed | 1,
            split_per_mille: 0,
            kill_at_frame: None,
            sent: 0,
        }
    }

    /// Splits roughly `per_mille`‰ of sends into two partial writes.
    pub(crate) fn split_writes(mut self, per_mille: u16) -> Self {
        self.split_per_mille = per_mille.min(1000);
        self
    }

    /// Kills the connection mid-frame on the `frame`-th send (0-based).
    pub(crate) fn kill_at(mut self, frame: u64) -> Self {
        self.kill_at_frame = Some(frame);
        self
    }

    /// Decides this send's fate: `Kill(cut)` writes only `frame[..cut]` and
    /// tears the link down; `Split(cut)` writes in two halves; `Pass` sends
    /// normally.  `cut` is always a strict, nonzero prefix length.
    fn judge(&mut self, frame_len: usize) -> ChaosVerdict {
        let idx = self.sent;
        self.sent += 1;
        let cut = |r: u64| 1 + (r as usize % frame_len.saturating_sub(1).max(1));
        if self.kill_at_frame == Some(idx) {
            let r = xorshift64(&mut self.state);
            return ChaosVerdict::Kill(cut(r));
        }
        if self.split_per_mille > 0 && frame_len > 1 {
            let roll = xorshift64(&mut self.state) % 1000;
            if roll < self.split_per_mille as u64 {
                let r = xorshift64(&mut self.state);
                return ChaosVerdict::Split(cut(r));
            }
        }
        ChaosVerdict::Pass
    }
}

enum ChaosVerdict {
    Pass,
    Split(usize),
    Kill(usize),
}

// ---------------------------------------------------------------------------
// In-process duplex
// ---------------------------------------------------------------------------

enum DuplexSink {
    Clean(Sender<Vec<u8>>),
    Faulty(FaultySender<Vec<u8>>),
}

/// Sending half of an in-process duplex link (see [`duplex`]).
pub struct DuplexTx {
    sink: DuplexSink,
}

/// Receiving half of an in-process duplex link (see [`duplex`]).
pub struct DuplexRx {
    rx: Receiver<Vec<u8>>,
}

/// Builds one direction of an in-process link: a bounded channel of whole
/// frames, optionally behind a frame-granularity fault injector.
///
/// A hung-up receiver turns `send` into an error, never a hang — the
/// shutdown discipline inherited from the runtime channel.
pub fn duplex(capacity: usize, plan: Option<FaultPlan>) -> (DuplexTx, DuplexRx) {
    let (tx, rx) = channel::bounded(capacity);
    let sink = match plan {
        Some(plan) => DuplexSink::Faulty(FaultySender::new(tx, plan)),
        None => DuplexSink::Clean(tx),
    };
    (DuplexTx { sink }, DuplexRx { rx })
}

impl FrameTx for DuplexTx {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), WireError> {
        let result = match &mut self.sink {
            DuplexSink::Clean(tx) => tx.send(frame),
            DuplexSink::Faulty(tx) => tx.send(frame),
        };
        result.map_err(|_| WireError::Transport("peer hung up".into()))
    }

    fn try_send(&mut self, frame: Vec<u8>) -> Result<bool, WireError> {
        match &mut self.sink {
            DuplexSink::Clean(tx) => match tx.try_send(frame) {
                Ok(()) => Ok(true),
                Err(TrySendError::Full(_)) => Ok(false),
                Err(TrySendError::Disconnected(_)) => {
                    Err(WireError::Transport("peer hung up".into()))
                }
            },
            // The faulty sink buffers for reordering; best-effort sends go
            // through the same lossy path as everything else.
            DuplexSink::Faulty(tx) => tx
                .send(frame)
                .map(|()| true)
                .map_err(|_| WireError::Transport("peer hung up".into())),
        }
    }

    fn has_room(&self, reserve: usize) -> bool {
        match &self.sink {
            DuplexSink::Clean(tx) => tx.queued() + reserve < tx.capacity(),
            DuplexSink::Faulty(_) => true,
        }
    }
}

impl FrameRx for DuplexRx {
    fn recv(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        Ok(self.rx.recv())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, WireError> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Disconnected) => Ok(None),
            Err(RecvTimeoutError::Timeout) => Err(WireError::PeerTimeout),
        }
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        match self.rx.try_recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(TryRecvError::Disconnected) => Ok(None),
            Err(TryRecvError::Empty) => Err(WireError::PeerTimeout),
        }
    }
}

// ---------------------------------------------------------------------------
// Loopback TCP
// ---------------------------------------------------------------------------

/// Sending half of a TCP link.  Cloneable: the replica's verdict plane and
/// its connection handler share one socket through the inner lock.
#[derive(Clone)]
pub struct TcpTx {
    stream: Arc<Mutex<TcpStream>>,
    chaos: Option<ChaosPlan>,
}

/// Receiving half of a TCP link.
///
/// Reads are *buffered*: each `read` lands in the spare room of one
/// reassembly buffer (at least 256 KiB of it, `READ_RESERVE`, so whatever the
/// peer pipelined while this side was busy arrives in one syscall) and frames
/// are carved out of it by [`split_frame`].  A read deadline that fires
/// mid-frame keeps the partial bytes — a slow peer resumes where it left off;
/// only silence is reported ([`WireError::PeerTimeout`]).
pub struct TcpRx {
    stream: TcpStream,
    /// The reassembly buffer, kept zero-filled to its full length so a read
    /// needs no initialisation: `buf[head..tail]` is what has arrived and
    /// not been carved yet, `buf[tail..]` the room the next read fills.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    /// The read timeout last installed on the socket (`None`: reads block),
    /// so a receive that wants the same one again is a single `read`.
    timeout: Option<Duration>,
}

/// Room every socket read is offered: a full window of pipelined `EVENTS`
/// frames (32 × 256 events is ≈ 200 KiB) fits one read.
const READ_RESERVE: usize = 256 * 1024;

fn io_err(e: std::io::Error) -> WireError {
    WireError::Transport(e.to_string())
}

/// Splits a connected socket into frame halves.
pub fn tcp_pair(stream: TcpStream) -> Result<(TcpTx, TcpRx), WireError> {
    let reader = stream.try_clone().map_err(io_err)?;
    Ok((
        TcpTx {
            stream: Arc::new(Mutex::new(stream)),
            chaos: None,
        },
        TcpRx {
            stream: reader,
            buf: Vec::new(),
            head: 0,
            tail: 0,
            timeout: None,
        },
    ))
}

/// Connects to a listening service endpoint and returns the frame halves.
pub fn tcp_connect(addr: SocketAddr) -> Result<(TcpTx, TcpRx), WireError> {
    let stream = TcpStream::connect(addr).map_err(io_err)?;
    stream.set_nodelay(true).map_err(io_err)?;
    tcp_pair(stream)
}

/// Binds a loopback listener on an ephemeral port.
pub fn loopback_listener() -> Result<TcpListener, WireError> {
    TcpListener::bind(("127.0.0.1", 0)).map_err(io_err)
}

impl TcpTx {
    /// Half-closes the write side so the peer's reader sees end of stream.
    pub(crate) fn shutdown_write(&self) {
        if let Ok(stream) = self.stream.lock() {
            let _ = stream.shutdown(std::net::Shutdown::Write);
        }
    }

    /// Arms a [`ChaosPlan`] on this sender: partial writes and mid-frame
    /// kills on the real socket.
    pub(crate) fn set_chaos(&mut self, plan: ChaosPlan) {
        self.chaos = Some(plan);
    }

    /// [`FrameTx::send`] from a borrowed frame: a client's window keeps
    /// its frames for replay and sends them without a copy.
    pub(crate) fn send_slice(&mut self, frame: &[u8]) -> Result<(), WireError> {
        let verdict = match &mut self.chaos {
            Some(plan) => plan.judge(frame.len()),
            None => ChaosVerdict::Pass,
        };
        let mut stream = self
            .stream
            .lock()
            .map_err(|_| WireError::Transport("socket lock poisoned".into()))?;
        match verdict {
            ChaosVerdict::Pass => stream.write_all(frame).map_err(io_err),
            ChaosVerdict::Split(cut) => {
                // Two syscalls with a flush between: the bytes all arrive,
                // but never as one read on the peer — reassembly territory.
                stream.write_all(&frame[..cut]).map_err(io_err)?;
                stream.flush().map_err(io_err)?;
                std::thread::yield_now();
                stream.write_all(&frame[cut..]).map_err(io_err)
            }
            ChaosVerdict::Kill(cut) => {
                // A crash mid-write: a strict prefix reaches the wire, then
                // the socket dies in both directions.
                let _ = stream.write_all(&frame[..cut]);
                let _ = stream.flush();
                let _ = stream.shutdown(std::net::Shutdown::Both);
                Err(WireError::Transport(
                    "chaos: connection killed mid-frame".into(),
                ))
            }
        }
    }
}

impl FrameTx for TcpTx {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), WireError> {
        self.send_slice(&frame)
    }

    fn close(&mut self) {
        self.shutdown_write();
    }
}

impl TcpRx {
    /// Carves the next whole frame out of what has already arrived, without
    /// touching the socket; `None` when the buffer holds no whole frame.
    /// After a [`FrameRx::recv`] this is how a handler finds the frames the
    /// peer pipelined behind the one just returned.
    pub(crate) fn take_buffered(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        Ok(
            split_frame(&self.buf[self.head..self.tail])?.map(|(frame, _)| {
                self.head += frame.len();
                frame.to_vec()
            }),
        )
    }

    /// One `read` into the buffer's spare room.  `Ok(true)`: bytes arrived;
    /// `Ok(false)`: the peer closed on a frame boundary.  A close inside a
    /// frame (a mid-frame kill) is a transport error, a read that would have
    /// to wait — past the installed timeout, or at all on a non-blocking
    /// socket — is [`WireError::PeerTimeout`].
    fn fill(&mut self) -> Result<bool, WireError> {
        // Compact once per read: carving only advances `head`, so whatever
        // frames one read delivered cost one move of the partial tail, not
        // one move of everything behind them each.
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        if self.buf.len() < self.tail + READ_RESERVE {
            self.buf.resize(self.tail + READ_RESERVE, 0);
        }
        loop {
            match self.stream.read(&mut self.buf[self.tail..]) {
                Ok(0) if self.tail == 0 => return Ok(false),
                Ok(0) => {
                    return Err(WireError::Transport(format!(
                        "connection closed mid-frame ({} bytes buffered)",
                        self.tail
                    )))
                }
                Ok(n) => {
                    self.tail += n;
                    return Ok(true);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(WireError::PeerTimeout);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io_err(e)),
            }
        }
    }

    /// Receives the next whole frame, waiting at most `timeout` (`None`: for
    /// ever) for the bytes that complete it.
    fn recv_within(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, WireError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut wait = timeout;
        loop {
            if let Some(frame) = self.take_buffered()? {
                return Ok(Some(frame));
            }
            if wait.is_some_and(|w| w.is_zero()) {
                return Err(WireError::PeerTimeout);
            }
            if self.timeout != wait {
                self.stream.set_read_timeout(wait).map_err(io_err)?;
                self.timeout = wait;
            }
            if !self.fill()? {
                return Ok(None);
            }
            // Part of a frame arrived: what is left of the deadline bounds
            // the wait for the rest.
            wait = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        }
    }
}

impl FrameRx for TcpRx {
    fn recv(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        self.recv_within(None)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, WireError> {
        self.recv_within(Some(timeout))
    }

    /// One non-blocking `read` at most.  `O_NONBLOCK` belongs to the open
    /// file description, which this half shares with its [`TcpTx`]: the flag
    /// is cleared again before returning, and the call is sound only where
    /// one thread owns both halves — a client's session sink.  A replica
    /// handler must not poll this way: its sending half is written from the
    /// verdict plane's threads, and a write that found the flag set would
    /// fail with `WouldBlock` instead of waiting.
    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if let Some(frame) = self.take_buffered()? {
            return Ok(Some(frame));
        }
        self.stream.set_nonblocking(true).map_err(io_err)?;
        let filled = self.fill();
        self.stream.set_nonblocking(false).map_err(io_err)?;
        if !filled? {
            return Ok(None);
        }
        self.take_buffered()?
            .map(Some)
            .ok_or(WireError::PeerTimeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_frame, encode_frame, WireFrame, VERSION};

    #[test]
    fn duplex_delivers_frames_in_order() {
        let (mut tx, mut rx) = duplex(4, None);
        for client in 0..3 {
            tx.send(encode_frame(&WireFrame::Hello {
                client,
                version: VERSION,
                session: 0,
                resume: None,
            }))
            .unwrap();
        }
        drop(tx);
        for client in 0..3 {
            let bytes = rx.recv().unwrap().unwrap();
            assert_eq!(
                decode_frame(&bytes).unwrap(),
                WireFrame::Hello {
                    client,
                    version: VERSION,
                    session: 0,
                    resume: None,
                }
            );
        }
        assert_eq!(rx.recv().unwrap(), None);
    }

    #[test]
    fn duplex_send_errors_after_peer_hangup() {
        let (mut tx, rx) = duplex(1, None);
        drop(rx);
        assert!(tx.send(vec![0; 5]).is_err());
    }

    #[test]
    fn tcp_round_trips_frames_and_closes_cleanly() {
        let listener = loopback_listener().unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let (_tx, mut rx) = tcp_pair(stream).unwrap();
            let mut seen = Vec::new();
            while let Some(frame) = rx.recv().unwrap() {
                seen.push(decode_frame(&frame).unwrap());
            }
            seen
        });
        let (mut tx, _rx) = tcp_connect(addr).unwrap();
        let frame = WireFrame::Shutdown {
            client: 1,
            events_sent: 42,
            stream_fingerprint: 7,
        };
        tx.send(encode_frame(&frame)).unwrap();
        tx.shutdown_write();
        assert_eq!(server.join().unwrap(), vec![frame]);
    }

    #[test]
    fn frozen_tcp_peer_surfaces_peer_timeout_not_a_hang() {
        use std::time::Duration;
        let listener = loopback_listener().unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let (mut tx, _rx) = tcp_connect(addr).unwrap();
            // Send one whole frame plus a *partial* second frame, then
            // freeze (keep the socket open, write nothing more).
            let whole = encode_frame(&WireFrame::Ping { token: 7 });
            tx.send(whole).unwrap();
            let partial = encode_frame(&WireFrame::Ping { token: 8 });
            tx.send(partial[..partial.len() - 3].to_vec()).unwrap();
            // Hold the connection open until the server is done probing.
            std::thread::sleep(Duration::from_millis(400));
        });
        let (stream, _) = listener.accept().unwrap();
        let (_tx, mut rx) = tcp_pair(stream).unwrap();
        let deadline = Duration::from_millis(50);
        // The whole frame arrives fine.
        let bytes = rx.recv_timeout(deadline).unwrap().unwrap();
        assert_eq!(decode_frame(&bytes).unwrap(), WireFrame::Ping { token: 7 });
        // The partial frame: every recv reports the silence as a typed
        // timeout — not a hang, not a corruption — and the buffered prefix
        // survives each one.
        for _ in 0..2 {
            assert_eq!(rx.recv_timeout(deadline), Err(WireError::PeerTimeout));
        }
        client.join().unwrap();
    }

    #[test]
    fn tcp_partial_frame_resumes_after_timeout() {
        use std::time::Duration;
        let listener = loopback_listener().unwrap();
        let addr = listener.local_addr().unwrap();
        let frame = encode_frame(&WireFrame::Shutdown {
            client: 2,
            events_sent: 9,
            stream_fingerprint: 11,
        });
        let expected = frame.clone();
        let client = std::thread::spawn(move || {
            let (mut tx, _rx) = tcp_connect(addr).unwrap();
            let (head, tail) = frame.split_at(frame.len() - 5);
            tx.send(head.to_vec()).unwrap();
            // Stall past the reader's deadline, then finish the frame.
            std::thread::sleep(Duration::from_millis(120));
            tx.send(tail.to_vec()).unwrap();
            std::thread::sleep(Duration::from_millis(50));
        });
        let (stream, _) = listener.accept().unwrap();
        let (_tx, mut rx) = tcp_pair(stream).unwrap();
        // First attempt times out mid-frame; the retry completes it — the
        // buffered prefix was kept, so a slow peer loses nothing.
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(40)),
            Err(WireError::PeerTimeout)
        );
        let bytes = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(bytes, expected);
        client.join().unwrap();
    }

    /// A connected loopback pair: the peer's sending half and this side's
    /// receiving half.
    fn loopback_pair() -> (TcpTx, TcpRx) {
        let listener = loopback_listener().unwrap();
        let (peer_tx, _) = tcp_connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let (_, rx) = tcp_pair(stream).unwrap();
        (peer_tx, rx)
    }

    /// Polls until the socket has something to say: the test's stand-in for
    /// "the peer's bytes have crossed the loopback".
    fn poll(rx: &mut TcpRx) -> Result<Option<Vec<u8>>, WireError> {
        let patience = Instant::now() + Duration::from_secs(10);
        loop {
            match rx.try_recv() {
                Err(WireError::PeerTimeout) if Instant::now() < patience => {
                    std::thread::yield_now()
                }
                other => return other,
            }
        }
    }

    #[test]
    fn frames_written_together_are_taken_from_the_buffer_not_the_socket() {
        let (mut peer, mut rx) = loopback_pair();
        let pings: Vec<Vec<u8>> = (0..4)
            .map(|token| encode_frame(&WireFrame::Ping { token }))
            .collect();
        // Three frames in one write: one read brings all of them in.
        peer.send(pings[..3].concat()).unwrap();
        assert_eq!(rx.recv().unwrap().as_ref(), Some(&pings[0]));
        assert_eq!(rx.take_buffered().unwrap().as_ref(), Some(&pings[1]));
        assert_eq!(rx.take_buffered().unwrap().as_ref(), Some(&pings[2]));
        // A fourth frame is on the wire, but a take reads no socket: it sees
        // an empty buffer until a receive goes and gets the bytes.
        peer.send(pings[3].clone()).unwrap();
        assert_eq!(rx.take_buffered().unwrap(), None);
        assert_eq!(rx.recv().unwrap().as_ref(), Some(&pings[3]));
        assert_eq!(rx.take_buffered().unwrap(), None);
    }

    #[test]
    fn try_recv_never_waits_and_keeps_a_partial_frame() {
        let (mut peer, mut rx) = loopback_pair();
        // A silent peer: "nothing yet", however often it is asked.
        for _ in 0..3 {
            assert_eq!(rx.try_recv(), Err(WireError::PeerTimeout));
        }
        // A frame split across two writes: the first half alone is still
        // "nothing yet", and it is kept — the second half completes it.
        let frame = encode_frame(&WireFrame::Ping { token: 9 });
        let (head, tail) = frame.split_at(frame.len() / 2);
        peer.send(head.to_vec()).unwrap();
        for _ in 0..3 {
            assert_eq!(rx.try_recv(), Err(WireError::PeerTimeout));
        }
        peer.send(tail.to_vec()).unwrap();
        assert_eq!(poll(&mut rx).unwrap(), Some(frame));
        // The poll left the socket blocking: a receive on silence waits (for
        // the peer, who only sends once this side is about to block; had
        // `O_NONBLOCK` stayed set, the read would fail at once instead).
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(50)),
            Err(WireError::PeerTimeout)
        );
        let (about_to_block, go) = std::sync::mpsc::channel();
        let sender = std::thread::spawn(move || {
            go.recv().unwrap();
            peer.send(encode_frame(&WireFrame::Ping { token: 10 }))
                .unwrap();
            peer
        });
        about_to_block.send(()).unwrap();
        let bytes = rx.recv().unwrap().unwrap();
        assert_eq!(decode_frame(&bytes).unwrap(), WireFrame::Ping { token: 10 });
        // A close on a frame boundary is a clean end of stream.
        let peer = sender.join().unwrap();
        peer.shutdown_write();
        assert_eq!(poll(&mut rx).unwrap(), None);
    }

    #[test]
    fn a_frame_larger_than_one_read_reassembles_behind_a_small_one() {
        let (mut peer, mut rx) = loopback_pair();
        // The transport frames by length prefix alone: any body will do.
        let small = encode_frame(&WireFrame::Ping { token: 3 });
        let body = 3 * READ_RESERVE + 17;
        let mut large = (body as u32).to_le_bytes().to_vec();
        large.extend((0..body).map(|i| i as u8));
        let sent = [small.clone(), large.clone(), small.clone()];
        let writer = std::thread::spawn(move || peer.send(sent.concat()).map(|()| peer));
        assert_eq!(rx.recv().unwrap(), Some(small.clone()));
        assert_eq!(rx.recv().unwrap(), Some(large));
        assert_eq!(rx.recv().unwrap(), Some(small));
        writer.join().unwrap().unwrap();
    }

    #[test]
    fn try_recv_reports_a_close_inside_a_frame_as_a_transport_error() {
        let (mut peer, mut rx) = loopback_pair();
        let frame = encode_frame(&WireFrame::Ping { token: 1 });
        peer.send(frame[..frame.len() - 2].to_vec()).unwrap();
        peer.shutdown_write();
        assert!(matches!(poll(&mut rx), Err(WireError::Transport(_))));
    }

    #[test]
    fn chaos_split_writes_still_deliver_whole_frames() {
        let listener = loopback_listener().unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let (_tx, mut rx) = tcp_pair(stream).unwrap();
            let mut seen = Vec::new();
            while let Some(frame) = rx.recv().unwrap() {
                seen.push(decode_frame(&frame).unwrap());
            }
            seen
        });
        let (mut tx, _rx) = tcp_connect(addr).unwrap();
        // Split every send in two; the reader's buffer must reassemble.
        tx.set_chaos(ChaosPlan::new(42).split_writes(1000));
        let frames: Vec<WireFrame> = (0..20).map(|i| WireFrame::Ping { token: i }).collect();
        for frame in &frames {
            tx.send(encode_frame(frame)).unwrap();
        }
        tx.shutdown_write();
        assert_eq!(server.join().unwrap(), frames);
    }

    #[test]
    fn chaos_kill_tears_the_connection_mid_frame() {
        let listener = loopback_listener().unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let (_tx, mut rx) = tcp_pair(stream).unwrap();
            let mut whole = 0usize;
            loop {
                match rx.recv() {
                    Ok(Some(frame)) => {
                        decode_frame(&frame).unwrap();
                        whole += 1;
                    }
                    // Clean EOF or a torn tail both end the stream.
                    Ok(None) | Err(_) => return whole,
                }
            }
        });
        let (mut tx, _rx) = tcp_connect(addr).unwrap();
        tx.set_chaos(ChaosPlan::new(7).kill_at(3));
        let mut sent_ok = 0usize;
        for i in 0..10u64 {
            match tx.send(encode_frame(&WireFrame::Ping { token: i })) {
                Ok(()) => sent_ok += 1,
                Err(_) => break,
            }
        }
        assert_eq!(sent_ok, 3, "the 4th send is the kill");
        // The reader saw exactly the whole frames — the torn prefix of the
        // 4th never decodes.
        assert_eq!(server.join().unwrap(), 3);
    }

    #[test]
    fn duplex_deadline_reports_silence_as_peer_timeout() {
        use std::time::Duration;
        let (mut tx, mut rx) = duplex(4, None);
        let deadline = Duration::from_millis(20);
        assert_eq!(rx.recv_timeout(deadline), Err(WireError::PeerTimeout));
        assert_eq!(rx.try_recv(), Err(WireError::PeerTimeout));
        tx.send(encode_frame(&WireFrame::Ping { token: 1 }))
            .unwrap();
        assert!(rx.recv_timeout(deadline).unwrap().is_some());
        tx.send(encode_frame(&WireFrame::Ping { token: 2 }))
            .unwrap();
        assert!(rx.try_recv().unwrap().is_some());
        drop(tx);
        // Hang-up still reads as a clean close, not a timeout.
        assert_eq!(rx.recv_timeout(deadline).unwrap(), None);
        assert_eq!(rx.try_recv().unwrap(), None);
    }
}
