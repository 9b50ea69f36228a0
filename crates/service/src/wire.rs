//! The binary wire format — the codec side of `docs/PROTOCOL.md`.
//!
//! Every frame is length-prefixed and self-describing: a little-endian
//! `u32` body length, a one-byte frame tag, then the tag's body.  Event
//! frames are sequence-stamped per event and carry a
//! [`evlin_checker::fold_words`] fingerprint over the interleaved
//! `(seq, event_word)` words, so a replica detects payload corruption — not
//! just truncation — before any event reaches a monitor.  That is stronger
//! than the in-process frame transport's check (`evlin_runtime::Frame`),
//! which folds sequence numbers only: its frames never leave the process.
//! The clients fold the fingerprint in the pass that encodes a frame, and
//! the decoder in the pass that parses one.
//!
//! [`encode_frame`] and [`decode_frame`] are pure (`decode ∘ encode = id` is
//! proptested) and read and write through the workspace's one byte codec,
//! [`evlin_checker::codec`]: this module orders fields, bounds what a peer can
//! make a decoder do (`MAX_FRAME_BYTES`, `MAX_VALUE_DEPTH`) and maps reader
//! errors onto [`WireError`].  `docs/PROTOCOL.md` has the layout tables; the
//! constants and field orders here are the normative implementation.
//!
//! ```
//! use evlin_history::{Event, ObjectId, ProcessId};
//! use evlin_service::wire::{decode_frame, encode_frame, event_batch_fingerprint, WireFrame};
//! use evlin_spec::FetchIncrement;
//!
//! let events = vec![(7u64, Event::invoke(ProcessId(0), ObjectId(3), FetchIncrement::fetch_inc()))];
//! let frame = WireFrame::Events {
//!     client: 2,
//!     frame_seq: 0,
//!     fingerprint: event_batch_fingerprint(2, &events),
//!     events,
//! };
//! let bytes = encode_frame(&frame);
//! assert_eq!(decode_frame(&bytes).unwrap(), frame);
//! ```

use evlin_checker::codec::{CodecError, Encode, Fault, Reader};
use evlin_checker::monitor::{event_word, MonitorVerdict, MonitorViolation};
use evlin_checker::{fold_word_iter, fold_words};
use evlin_history::{Event, ObjectId, ProcessId};
use evlin_spec::{Invocation, Value, VOCABULARY};
use std::fmt;
use std::sync::LazyLock;

/// Protocol magic, the ASCII bytes `EVLN` read as a little-endian `u32`.
pub(crate) const MAGIC: u32 = u32::from_le_bytes(*b"EVLN");

/// The one protocol version this codec speaks, carried in every
/// [`WireFrame::Hello`].  A hello announcing any other version is refused at
/// decode with a typed [`WireError::UnsupportedVersion`]; frames themselves
/// are not version-stamped (the handshake pins the connection).
pub const VERSION: u16 = 2;

/// Upper bound on a frame body, guarding length-prefix corruption: a flipped
/// length bit must produce a decode error, not a multi-gigabyte allocation.
pub(crate) const MAX_FRAME_BYTES: usize = 1 << 26;

/// Deepest nesting of `Pair` / `List` values a decoder accepts, bounding its
/// recursion as [`MAX_FRAME_BYTES`] bounds its allocation.  No spec value
/// comes near it (`encode_invocation` nests two deep).
pub(crate) const MAX_VALUE_DEPTH: usize = 64;

/// Most distinct out-of-vocabulary method names a decoder's interner keeps
/// (see [`decode_frame_with`]); later ones decode un-interned.
const INTERNER_CAP: usize = 32;

/// The nullary invocation of each [`VOCABULARY`] name, by index: the decoder
/// matches a name's bytes against the vocabulary and clones the entry, so
/// it resolves the name once.
static NULLARY: LazyLock<[Invocation; VOCABULARY.len()]> =
    LazyLock::new(|| VOCABULARY.map(Invocation::nullary));

/// Frame tag bytes (the byte after the length prefix).
pub(crate) mod tag {
    /// [`super::WireFrame::Hello`].
    pub const HELLO: u8 = 1;
    /// [`super::WireFrame::Events`].
    pub const EVENTS: u8 = 2;
    /// [`super::WireFrame::Verdict`].
    pub const VERDICT: u8 = 3;
    /// [`super::WireFrame::Shutdown`].
    pub const SHUTDOWN: u8 = 4;
    /// [`super::WireFrame::Ack`].
    pub const ACK: u8 = 5;
    /// [`super::WireFrame::Ping`].
    pub const PING: u8 = 6;
    /// [`super::WireFrame::Pong`].
    pub const PONG: u8 = 7;
    /// [`super::WireFrame::Overloaded`].
    pub const OVERLOADED: u8 = 8;
}

/// A client's durable position in its session stream, as carried by resume
/// hellos and [`WireFrame::Ack`] frames.
///
/// `frames` counts whole accepted `EVENTS` frames (equivalently: the next
/// expected `frame_seq`), `events` the events inside them, and `chain` the
/// `chain_fingerprint` folded over exactly those frames.  Two endpoints
/// agree on a cursor iff they accepted the same frame sequence — which is
/// what makes the cursor both a resume point and a corruption detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResumeCursor {
    /// Accepted `EVENTS` frames (= the next expected `frame_seq`).
    pub frames: u64,
    /// Events inside those frames.
    pub events: u64,
    /// The chained stream fingerprint over those frames.
    pub chain: u64,
}

/// Everything that can appear on the wire, in decoded form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFrame {
    /// Connection handshake, sent once by the client before anything else.
    ///
    /// Besides the client id and the spoken version, a hello names the
    /// client's session and, when reconnecting, the durable cursor it
    /// believes the replica has journaled — the replica cross-checks that
    /// cursor against its journal before resuming the session.
    Hello {
        /// The producer's client id (its slot in the replica pool).
        client: u32,
        /// The protocol version the client speaks; always [`VERSION`] in a
        /// decoded hello (the decoder refuses every other).
        version: u16,
        /// The client's session id (0 when the client does not ask for a
        /// resumable session): stable across reconnects, it is what lets a
        /// replica re-attach a dropped connection to its journal.
        session: u64,
        /// Present on reconnect: the durable cursor the client last saw
        /// acknowledged.  `None` opens a fresh session.
        resume: Option<ResumeCursor>,
    },
    /// A batch of sequence-stamped events.
    Events {
        /// The sending client.
        client: u32,
        /// Per-client frame counter (0, 1, 2, …) — gaps and regressions in
        /// this number are how a replica counts lost and reordered frames.
        frame_seq: u64,
        /// `(global sequence number, event)` pairs in send order.
        events: Vec<(u64, Event)>,
        /// [`event_batch_fingerprint`] over `client` and `events`; verified
        /// during decode.
        fingerprint: u64,
    },
    /// A verdict round from one monitor replica shard.
    Verdict(VerdictSummary),
    /// End of a client's stream, carrying totals the replica can audit.
    Shutdown {
        /// The sending client.
        client: u32,
        /// Events the client pushed onto the wire over the connection.
        events_sent: u64,
        /// The client's chained stream fingerprint (see
        /// `chain_fingerprint`) over every event frame it sent.
        stream_fingerprint: u64,
    },
    /// Durability acknowledgement, replica→client: everything
    /// up to `cursor` has been journaled and fsynced.  The client prunes its
    /// unacked replay window up to the cursor; on a gap rejection the cursor
    /// tells the client exactly where to rewind.
    Ack {
        /// The acknowledged client.
        client: u32,
        /// The session being acknowledged.
        session: u64,
        /// The replica's durable cursor for the session.
        cursor: ResumeCursor,
    },
    /// Liveness probe, either direction.  The receiver echoes
    /// the token back in a [`WireFrame::Pong`].
    Ping {
        /// Opaque token echoed by the pong.
        token: u64,
    },
    /// Liveness probe response.
    Pong {
        /// The token of the ping being answered.
        token: u64,
    },
    /// Typed load-shedding rejection, replica→client: the
    /// frame that provoked it was **not** accepted (not journaled, not
    /// routed) and remains the client's to retransmit after `retry_after_ms`
    /// — the bounded-ingest alternative to buffering without bound.
    Overloaded {
        /// The rejected client.
        client: u32,
        /// Suggested delay before retransmitting, in milliseconds.
        retry_after_ms: u32,
    },
}

/// One round of a replica shard's verdict plane.
///
/// Rounds are numbered per shard (1, 2, …); because mid-run rounds ride a
/// lossy best-effort path (see `docs/PROTOCOL.md`), the number is what lets
/// a client detect that it missed one.  The final round of a shard has
/// [`VerdictSummary::last`] set and is delivered reliably.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictSummary {
    /// The reporting shard.
    pub shard: u32,
    /// Round number within the shard, starting at 1.
    pub round: u64,
    /// Events the shard's monitor has checked through this round.
    pub events: u64,
    /// Completed operations decided (populated on the final round).
    pub checked_ops: u64,
    /// Mid-run rounds: `fold_words` over the round's segment keys, seeded by
    /// the shard id.  Final round: the monitor's canonical stream
    /// fingerprint.
    pub fingerprint: u64,
    /// Whether this is the shard's final summary.
    pub last: bool,
    /// The verdict as of this round.
    pub verdict: MonitorVerdict,
}

/// Decode failures, each naming the layer that rejected the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the announced structure does.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes it had.
        have: usize,
    },
    /// The length prefix disagrees with the buffer length.
    LengthMismatch {
        /// Length the prefix announced (body bytes).
        announced: usize,
        /// Body bytes actually present.
        have: usize,
    },
    /// A frame body larger than `MAX_FRAME_BYTES` was announced.
    FrameTooLarge(usize),
    /// An unknown frame tag.
    BadTag(u8),
    /// A hello frame without the protocol magic.
    BadMagic(u32),
    /// An unknown [`Value`] tag inside an event payload.
    BadValueTag(u8),
    /// A `Pair` or `List` at byte `at` nests deeper than the decoder
    /// accepts (64 levels; see `docs/PROTOCOL.md` § Value encoding).
    TooDeep {
        /// Offset of the value's tag byte.
        at: usize,
    },
    /// An unknown event-kind or verdict-status byte.
    BadKind(u8),
    /// A method name or detail string that is not UTF-8.
    BadUtf8,
    /// Bytes left over after the frame's structure ended.
    TrailingBytes(usize),
    /// The event batch fingerprint did not match the payload.
    FingerprintMismatch {
        /// Fingerprint carried by the frame.
        announced: u64,
        /// Fingerprint folded while decoding the events.
        computed: u64,
    },
    /// A hello announcing a protocol version other than [`VERSION`], carrying
    /// the announced number.  Deliberately a *clean, typed* rejection, raised
    /// before anything past the version field is read: a peer from another
    /// protocol generation is told so, not mis-decoded.
    UnsupportedVersion(u16),
    /// A read exceeded its deadline while the peer stayed silent — or, from
    /// a receive that does not wait at all ([`crate::FrameRx::try_recv`]),
    /// "nothing yet".
    ///
    /// Surfaced by [`crate::FrameRx::recv_timeout`]; the caller decides
    /// whether a silent peer is idle (send a ping) or dead (close).
    PeerTimeout,
    /// The underlying transport failed (connection reset, poisoned lock…).
    Transport(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            WireError::LengthMismatch { announced, have } => {
                write!(
                    f,
                    "length prefix announced {announced} body bytes, have {have}"
                )
            }
            WireError::FrameTooLarge(n) => write!(f, "frame body of {n} bytes exceeds the cap"),
            WireError::BadTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            WireError::BadMagic(m) => write!(f, "bad protocol magic {m:#010x}"),
            WireError::BadValueTag(t) => write!(f, "unknown value tag {t:#04x}"),
            WireError::TooDeep { at } => {
                write!(f, "value at byte {at} nests deeper than {MAX_VALUE_DEPTH}")
            }
            WireError::BadKind(k) => write!(f, "unknown kind/status byte {k:#04x}"),
            WireError::BadUtf8 => write!(f, "non-UTF-8 string field"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame body"),
            WireError::FingerprintMismatch {
                announced,
                computed,
            } => write!(
                f,
                "event batch fingerprint mismatch: frame says {announced:#018x}, \
                 payload folds to {computed:#018x}"
            ),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v}")
            }
            WireError::PeerTimeout => write!(f, "peer silent past the read deadline"),
            WireError::Transport(msg) => write!(f, "transport error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The fingerprint an event frame must carry: `fold_words` seeded by the
/// client id over the interleaved `(seq, event_word)` words of the batch.
///
/// Covering the packed [`event_word`] alongside each sequence number means a
/// corrupted payload byte (not just a missing or reordered event) flips the
/// fingerprint — the in-process frame transport, whose frames never leave
/// the process, folds sequence numbers only — and seeding by client id
/// keeps identical batches from different clients distinguishable.  The
/// clients and the decoder fold the same words in the pass that writes or
/// reads the frame; this is the reference they are tested against.
pub fn event_batch_fingerprint(client: u32, events: &[(u64, Event)]) -> u64 {
    fold_word_iter(client.into(), events.iter().flat_map(event_words))
}

/// The two words one `(seq, event)` pair adds to its batch fingerprint.
#[inline]
fn event_words((seq, event): &(u64, Event)) -> [u64; 2] {
    [*seq, event_word(event)]
}

/// One link of a client's *chained* stream fingerprint: the previous chain
/// value seeds a fold over the new frame's batch fingerprint.
///
/// `fold_words` finalizes with the word count, so folds do not concatenate;
/// chaining frame-by-frame (`chain₀ = client id`,
/// `chainₖ₊₁ = fold_words(chainₖ, [frame fingerprintₖ])`) gives both sides
/// an O(1)-memory running fingerprint that is order- and loss-sensitive.
/// The final value rides the shutdown frame; a replica that accepted a
/// different frame sequence (loss, duplication, reordering) computes a
/// different chain, which is the end-of-stream loss audit.
pub(crate) fn chain_fingerprint(chain: u64, frame_fingerprint: u64) -> u64 {
    fold_words(chain, &[frame_fingerprint])
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Unit => 0u8.put(out),
        Value::Bottom => 1u8.put(out),
        Value::Bool(b) => {
            2u8.put(out);
            (*b as u8).put(out);
        }
        Value::Int(i) => {
            3u8.put(out);
            i.put(out);
        }
        Value::Sym(s) => {
            4u8.put(out);
            s.as_str().put(out);
        }
        Value::Pair(a, b) => {
            5u8.put(out);
            put_value(out, a);
            put_value(out, b);
        }
        Value::List(items) => {
            6u8.put(out);
            (items.len() as u32).put(out);
            for item in items {
                put_value(out, item);
            }
        }
    }
}

/// Writes one `(seq, event)` pair.  The clients refuse an event whose
/// fields exceed the wire's limits ([`carries_invocation`],
/// [`carries_response`]) before it is sequence-stamped.
fn put_event(out: &mut Vec<u8>, seq: u64, event: &Event) {
    seq.put(out);
    (event.process.0 as u32).put(out);
    (event.object.0 as u32).put(out);
    match &event.kind {
        evlin_history::EventKind::Invoke(inv) => {
            0u8.put(out);
            inv.method().put(out);
            (inv.args().len().min(u8::MAX as usize) as u8).put(out);
            for arg in inv.args() {
                put_value(out, arg);
            }
        }
        evlin_history::EventKind::Respond(value) => {
            1u8.put(out);
            put_value(out, value);
        }
    }
}

fn put_verdict(out: &mut Vec<u8>, verdict: &MonitorVerdict) {
    match verdict {
        MonitorVerdict::Ok => 0u8.put(out),
        MonitorVerdict::Unknown => 2u8.put(out),
        MonitorVerdict::Violation(v) => {
            1u8.put(out);
            (v.segment_start as u64).put(out);
            (v.segment_len as u64).put(out);
            (v.object.is_some() as u8).put(out);
            if let Some(object) = v.object {
                (object.0 as u32).put(out);
            }
            (v.op.is_some() as u8).put(out);
            if let Some(op) = v.op {
                (op.0 as u64).put(out);
            }
            v.detail.as_str().put(out);
        }
    }
}

fn put_cursor(out: &mut Vec<u8>, cursor: &ResumeCursor) {
    cursor.frames.put(out);
    cursor.events.put(out);
    cursor.chain.put(out);
}

/// Encodes a frame into its full wire bytes (length prefix included).
pub fn encode_frame(frame: &WireFrame) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(64);
    let out = &mut bytes;
    0u32.put(out); // length prefix, patched below
    match frame {
        WireFrame::Hello {
            client,
            version,
            session,
            resume,
        } => {
            tag::HELLO.put(out);
            MAGIC.put(out);
            version.put(out);
            client.put(out);
            session.put(out);
            (resume.is_some() as u8).put(out);
            if let Some(cursor) = resume {
                put_cursor(out, cursor);
            }
        }
        WireFrame::Events {
            client,
            frame_seq,
            events,
            fingerprint,
        } => {
            put_events_head(out, *client, *frame_seq, events.len());
            for (seq, event) in events {
                put_event(out, *seq, event);
            }
            fingerprint.put(out);
        }
        WireFrame::Verdict(summary) => {
            tag::VERDICT.put(out);
            summary.shard.put(out);
            summary.round.put(out);
            summary.events.put(out);
            summary.checked_ops.put(out);
            summary.fingerprint.put(out);
            (summary.last as u8).put(out);
            put_verdict(out, &summary.verdict);
        }
        WireFrame::Shutdown {
            client,
            events_sent,
            stream_fingerprint,
        } => {
            tag::SHUTDOWN.put(out);
            client.put(out);
            events_sent.put(out);
            stream_fingerprint.put(out);
        }
        WireFrame::Ack {
            client,
            session,
            cursor,
        } => {
            tag::ACK.put(out);
            client.put(out);
            session.put(out);
            put_cursor(out, cursor);
        }
        WireFrame::Ping { token } => {
            tag::PING.put(out);
            token.put(out);
        }
        WireFrame::Pong { token } => {
            tag::PONG.put(out);
            token.put(out);
        }
        WireFrame::Overloaded {
            client,
            retry_after_ms,
        } => {
            tag::OVERLOADED.put(out);
            client.put(out);
            retry_after_ms.put(out);
        }
    }
    patch_length(out);
    bytes
}

/// Writes an `EVENTS` frame's fields from its tag through its event count.
fn put_events_head(out: &mut Vec<u8>, client: u32, frame_seq: u64, count: usize) {
    tag::EVENTS.put(out);
    client.put(out);
    frame_seq.put(out);
    (count as u32).put(out);
}

/// Fills in the length prefix of the frame `out` holds.
fn patch_length(out: &mut [u8]) {
    let body_len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&body_len.to_le_bytes());
}

/// The bytes a sealed `EVENTS` frame is allocated with per event: a
/// `fetch_inc()` invocation takes 29, an integer response 26.
const SEALED_EVENT_BYTES: usize = 32;

/// The clients' `EVENTS` encoder: the frame of `events` and its batch
/// fingerprint, folded in the one pass that writes the bytes.
///
/// Byte for byte what [`encode_frame`] writes for the frame carrying
/// [`event_batch_fingerprint`]`(client, events)`, which is that value.
pub(crate) fn seal_events(client: u32, frame_seq: u64, events: &[(u64, Event)]) -> (Vec<u8>, u64) {
    let mut bytes = Vec::with_capacity(4 + 17 + events.len() * SEALED_EVENT_BYTES + 8);
    let out = &mut bytes;
    0u32.put(out); // length prefix, patched below
    put_events_head(out, client, frame_seq, events.len());
    let fingerprint = fold_word_iter(
        client.into(),
        events.iter().flat_map(|pair| {
            put_event(out, pair.0, &pair.1);
            event_words(pair)
        }),
    );
    fingerprint.put(out);
    patch_length(out);
    (bytes, fingerprint)
}

/// Whether the wire can carry `value` at nesting `depth` unchanged: a `Sym`
/// of at most 65 535 bytes, a `List` of at most `u32::MAX` items, and no
/// `Pair` or `List` deeper than the decoder accepts.
fn value_fits(value: &Value, depth: usize) -> bool {
    match value {
        Value::Sym(s) => s.len() <= u16::MAX as usize,
        Value::Pair(..) | Value::List(_) if depth == MAX_VALUE_DEPTH => false,
        Value::Pair(a, b) => value_fits(a, depth + 1) && value_fits(b, depth + 1),
        Value::List(items) => {
            u32::try_from(items.len()).is_ok() && items.iter().all(|v| value_fits(v, depth + 1))
        }
        Value::Unit | Value::Bottom | Value::Bool(_) | Value::Int(_) => true,
    }
}

/// Whether the wire's `u32` id fields carry `process` and `object`.
fn ids_fit(process: ProcessId, object: ObjectId) -> bool {
    u32::try_from(process.0).is_ok() && u32::try_from(object.0).is_ok()
}

/// Whether the wire carries an invocation event unchanged: ids that fit
/// `u32`, a method name of at most 65 535 bytes, at most 255 arguments, and
/// arguments that fit.  The encoder would clip any of these, so a client
/// refuses such an event instead of shipping a frame its own decoder
/// rejects (or, for an id, reads as another process's).
pub(crate) fn carries_invocation(process: ProcessId, object: ObjectId, inv: &Invocation) -> bool {
    ids_fit(process, object)
        && inv.method().len() <= u16::MAX as usize
        && inv.args().len() <= u8::MAX as usize
        && inv.args().iter().all(|arg| value_fits(arg, 0))
}

/// [`carries_invocation`] for a response event.
pub(crate) fn carries_response(process: ProcessId, object: ObjectId, value: &Value) -> bool {
    ids_fit(process, object) && value_fits(value, 0)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// The wire reads no varint and no file header, so a truncation and a
/// non-UTF-8 string are the only reader errors it can meet.
impl From<CodecError> for WireError {
    fn from(err: CodecError) -> WireError {
        match err.fault {
            Fault::Truncated { needed, have } => WireError::Truncated { needed, have },
            _ => WireError::BadUtf8,
        }
    }
}

/// The least bytes one `(seq, event)` pair takes: seq, ids, kind, a value.
const MIN_EVENT_BYTES: usize = 8 + 4 + 4 + 1 + 1;

fn get_value(r: &mut Reader<'_>, depth: usize) -> Result<Value, WireError> {
    match r.get::<u8>()? {
        0 => Ok(Value::Unit),
        1 => Ok(Value::Bottom),
        2 => Ok(Value::Bool(r.get::<u8>()? != 0)),
        3 => Ok(Value::Int(r.get()?)),
        4 => Ok(Value::Sym(r.get::<&str>()?.to_string())),
        5 | 6 if depth == MAX_VALUE_DEPTH => Err(WireError::TooDeep { at: r.at() - 1 }),
        5 => {
            let a = get_value(r, depth + 1)?;
            let b = get_value(r, depth + 1)?;
            Ok(Value::Pair(Box::new(a), Box::new(b)))
        }
        6 => {
            let n = r.get::<u32>()?;
            let mut items = Vec::with_capacity(r.capacity(n.into(), 1));
            for _ in 0..n {
                items.push(get_value(r, depth + 1)?);
            }
            Ok(Value::List(items))
        }
        t => Err(WireError::BadValueTag(t)),
    }
}

/// A method name's bytes, validated.
fn utf8(bytes: &[u8]) -> Result<&str, WireError> {
    std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)
}

fn get_event(r: &mut Reader<'_>, interner: &mut Vec<Invocation>) -> Result<Event, WireError> {
    let process = ProcessId(r.get::<u32>()? as usize);
    let object = ObjectId(r.get::<u32>()? as usize);
    match r.get::<u8>()? {
        0 => {
            let len = r.get::<u16>()?;
            let name = r.take(len.into())?;
            let argc = r.get::<u8>()?;
            if argc == 0 {
                // Zero-argument invocations dominate real streams
                // (`fetch_inc`, `read`).  A vocabulary name is matched on its
                // bytes (they are UTF-8 if they match) and its invocation
                // copied from the table; any other one is interned, so
                // decode is a refcount bump instead of an allocation — for
                // the first `INTERNER_CAP` distinct names a peer sends, so
                // that it cannot grow the table (or the scan) at will.
                if let Some(index) = VOCABULARY.iter().position(|k| k.as_bytes() == name) {
                    return Ok(Event::invoke(process, object, NULLARY[index].clone()));
                }
                let method = utf8(name)?;
                if let Some(known) = interner.iter().find(|i| i.method() == method) {
                    return Ok(Event::invoke(process, object, known.clone()));
                }
                let inv = Invocation::nullary(method);
                if interner.len() < INTERNER_CAP {
                    interner.push(inv.clone());
                }
                return Ok(Event::invoke(process, object, inv));
            }
            let method = utf8(name)?;
            let mut args = Vec::with_capacity(r.capacity(argc.into(), 1));
            for _ in 0..argc {
                args.push(get_value(r, 0)?);
            }
            Ok(Event::invoke(
                process,
                object,
                Invocation::new(method, args),
            ))
        }
        1 => Ok(Event::respond(process, object, get_value(r, 0)?)),
        k => Err(WireError::BadKind(k)),
    }
}

/// One `(seq, event)` pair of an `EVENTS` frame.
fn get_pair(r: &mut Reader<'_>, interner: &mut Vec<Invocation>) -> Result<(u64, Event), WireError> {
    let seq = r.get()?;
    Ok((seq, get_event(r, interner)?))
}

fn get_cursor(r: &mut Reader<'_>) -> Result<ResumeCursor, WireError> {
    Ok(ResumeCursor {
        frames: r.get()?,
        events: r.get()?,
        chain: r.get()?,
    })
}

/// The body length a frame's prefix announces, refused above
/// `MAX_FRAME_BYTES` — the one corruption a streaming reader must reject
/// *before* buffering the body.  `bytes` holds at least the prefix.
fn announced_body(bytes: &[u8]) -> Result<usize, WireError> {
    let body = Reader::new(bytes).get::<u32>()? as usize;
    if body > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge(body));
    }
    Ok(body)
}

/// A whole frame's bytes and the remainder of the stream, from
/// [`split_frame`] — `None` while the first frame is still partial.
pub(crate) type SplitFrame<'a> = Option<(&'a [u8], &'a [u8])>;

/// Splits `bytes` (the read position of a byte stream) into the first whole
/// frame and the rest, or returns `None` while the frame is still partial.
///
/// Errors only on a length prefix that exceeds `MAX_FRAME_BYTES`.
pub fn split_frame(bytes: &[u8]) -> Result<SplitFrame<'_>, WireError> {
    if bytes.len() < 4 {
        return Ok(None);
    }
    let body = announced_body(bytes)?;
    if bytes.len() < 4 + body {
        return Ok(None);
    }
    Ok(Some(bytes.split_at(4 + body)))
}

/// Decodes one whole frame (length prefix included), verifying structure,
/// length and — for event frames — the batch fingerprint.
pub fn decode_frame(bytes: &[u8]) -> Result<WireFrame, WireError> {
    decode_frame_with(bytes, &mut Vec::new())
}

/// [`decode_frame`] with a caller-held invocation interner, so a long-lived
/// decoder (a replica connection handler) reuses one `Invocation` allocation
/// per distinct zero-argument method outside the spec [`VOCABULARY`] instead
/// of allocating per event.  The interner is bounded (a peer cannot grow it
/// past a few dozen entries) and purely local: nothing about it shows on the
/// wire or in the decoded events.
pub fn decode_frame_with(
    bytes: &[u8],
    interner: &mut Vec<Invocation>,
) -> Result<WireFrame, WireError> {
    if bytes.len() < 5 {
        return Err(WireError::Truncated {
            needed: 5,
            have: bytes.len(),
        });
    }
    let announced = announced_body(bytes)?;
    if announced != bytes.len() - 4 {
        return Err(WireError::LengthMismatch {
            announced,
            have: bytes.len() - 4,
        });
    }
    let mut r = Reader::new(bytes);
    r.take(4)?;
    let frame = match r.get::<u8>()? {
        tag::HELLO => {
            let magic = r.get::<u32>()?;
            if magic != MAGIC {
                return Err(WireError::BadMagic(magic));
            }
            let version = r.get::<u16>()?;
            if version != VERSION {
                return Err(WireError::UnsupportedVersion(version));
            }
            WireFrame::Hello {
                client: r.get()?,
                version,
                session: r.get()?,
                resume: match r.get::<u8>()? {
                    0 => None,
                    _ => Some(get_cursor(&mut r)?),
                },
            }
        }
        tag::EVENTS => {
            let client: u32 = r.get()?;
            let frame_seq = r.get()?;
            let count = r.get::<u32>()?;
            let mut events = Vec::with_capacity(r.capacity(count.into(), MIN_EVENT_BYTES));
            // The batch fingerprint is folded in the pass that parses: each
            // event's words as it is read.  A read that fails ends the fold,
            // and the error is returned instead of its value.
            let mut fault = None;
            let computed = fold_word_iter(
                client.into(),
                (0..count)
                    .map_while(|_| match get_pair(&mut r, interner) {
                        Ok(pair) => {
                            let words = event_words(&pair);
                            events.push(pair);
                            Some(words)
                        }
                        Err(e) => {
                            fault = Some(e);
                            None
                        }
                    })
                    .flatten(),
            );
            if let Some(e) = fault {
                return Err(e);
            }
            let fingerprint = r.get()?;
            if computed != fingerprint {
                return Err(WireError::FingerprintMismatch {
                    announced: fingerprint,
                    computed,
                });
            }
            WireFrame::Events {
                client,
                frame_seq,
                events,
                fingerprint,
            }
        }
        tag::VERDICT => WireFrame::Verdict(VerdictSummary {
            shard: r.get()?,
            round: r.get()?,
            events: r.get()?,
            checked_ops: r.get()?,
            fingerprint: r.get()?,
            last: r.get::<u8>()? != 0,
            verdict: match r.get::<u8>()? {
                0 => MonitorVerdict::Ok,
                2 => MonitorVerdict::Unknown,
                1 => MonitorVerdict::Violation(MonitorViolation {
                    segment_start: r.get::<u64>()? as usize,
                    segment_len: r.get::<u64>()? as usize,
                    object: match r.get::<u8>()? {
                        0 => None,
                        _ => Some(ObjectId(r.get::<u32>()? as usize)),
                    },
                    op: match r.get::<u8>()? {
                        0 => None,
                        _ => Some(evlin_history::OpId(r.get::<u64>()? as usize)),
                    },
                    detail: r.get::<&str>()?.to_string(),
                }),
                k => return Err(WireError::BadKind(k)),
            },
        }),
        tag::SHUTDOWN => WireFrame::Shutdown {
            client: r.get()?,
            events_sent: r.get()?,
            stream_fingerprint: r.get()?,
        },
        tag::ACK => WireFrame::Ack {
            client: r.get()?,
            session: r.get()?,
            cursor: get_cursor(&mut r)?,
        },
        tag::PING => WireFrame::Ping { token: r.get()? },
        tag::PONG => WireFrame::Pong { token: r.get()? },
        tag::OVERLOADED => WireFrame::Overloaded {
            client: r.get()?,
            retry_after_ms: r.get()?,
        },
        t => return Err(WireError::BadTag(t)),
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::FrameSealer;
    use evlin_spec::FetchIncrement;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_events() -> Vec<(u64, Event)> {
        vec![
            (
                3,
                Event::invoke(ProcessId(1), ObjectId(0), FetchIncrement::fetch_inc()),
            ),
            (
                5,
                Event::respond(ProcessId(1), ObjectId(0), Value::from(4i64)),
            ),
        ]
    }

    /// A value of any tag, nesting at most `depth` more levels.
    fn random_value(rng: &mut StdRng, depth: usize) -> Value {
        match rng.gen_range(0..if depth == 0 { 5 } else { 7u8 }) {
            0 => Value::Unit,
            1 => Value::Bottom,
            2 => Value::Bool(rng.gen_bool(0.5)),
            3 => Value::Int(rng.gen_range(-1_000..1_000i64)),
            4 => Value::sym(format!("s{}", rng.gen_range(0..100u32))),
            5 => Value::Pair(
                Box::new(random_value(rng, depth - 1)),
                Box::new(random_value(rng, depth - 1)),
            ),
            _ => Value::List(
                (0..rng.gen_range(0..4))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
        }
    }

    /// An event of any shape: vocabulary and other names, nullary or not,
    /// responses of any value.
    fn random_event(rng: &mut StdRng, names: &[String]) -> Event {
        let process = ProcessId(rng.gen_range(0..5));
        let object = ObjectId(rng.gen_range(0..1_000));
        if rng.gen_bool(0.5) {
            return Event::respond(process, object, random_value(rng, 3));
        }
        let method = if rng.gen_bool(0.5) {
            VOCABULARY[rng.gen_range(0..VOCABULARY.len())]
        } else {
            &names[rng.gen_range(0..names.len())]
        };
        let args = (0..rng.gen_range(0..3))
            .map(|_| random_value(rng, 3))
            .collect();
        Event::invoke(process, object, Invocation::new(method, args))
    }

    #[test]
    fn sealed_frames_are_encode_frame_under_the_batch_fingerprint() {
        let mut rng = StdRng::seed_from_u64(0x5ea1);
        // More distinct out-of-vocabulary names than a decoder interns.
        let names: Vec<String> = (0..2 * INTERNER_CAP).map(|i| format!("op{i}")).collect();
        let mut interner = Vec::new();
        for client in [0, 1, u32::MAX] {
            let mut sealer = FrameSealer::new(client, 16);
            let (mut chain, mut sent) = (client as u64, 0);
            assert_eq!(sealer.seal(), None);
            for frame_seq in 0..60 {
                let n = rng.gen_range(1..=16);
                let events: Vec<(u64, Event)> = (0..n)
                    .map(|_| (rng.gen(), random_event(&mut rng, &names)))
                    .collect();
                for (seq, event) in events.iter().cloned() {
                    sealer.push(seq, event);
                }
                let (bytes, count) = sealer.seal().expect("a batch is buffered");
                let fingerprint = event_batch_fingerprint(client, &events);
                let frame = WireFrame::Events {
                    client,
                    frame_seq,
                    events,
                    fingerprint,
                };
                assert_eq!(bytes, encode_frame(&frame), "frame {frame_seq}");
                assert_eq!(count, n);
                assert_eq!(decode_frame_with(&bytes, &mut interner), Ok(frame));
                chain = chain_fingerprint(chain, fingerprint);
                sent += n;
            }
            let shutdown = WireFrame::Shutdown {
                client,
                events_sent: sent,
                stream_fingerprint: chain,
            };
            assert_eq!(sealer.shutdown(), encode_frame(&shutdown));
        }
        assert_eq!(interner.len(), INTERNER_CAP);
    }

    /// One event at each side of every limit of [`carries_invocation`] and
    /// [`carries_response`]: what they pass, the codec carries unchanged.
    #[test]
    fn wire_limits_hold_at_the_boundary_and_refuse_one_past() {
        let long = |n: usize| "x".repeat(n);
        let nest = |levels: usize| {
            (0..levels).fold(Value::Unit, |inner, _| {
                Value::Pair(Box::new(inner), Box::new(Value::Unit))
            })
        };
        let (p, o) = (ProcessId(0), ObjectId(0));
        let max_id = u32::MAX as usize;
        let invocations = [
            (p, o, Invocation::new("op", vec![Value::Unit; 255]), true),
            (p, o, Invocation::new("op", vec![Value::Unit; 256]), false),
            (p, o, Invocation::nullary(long(65_535)), true),
            (p, o, Invocation::nullary(long(65_536)), false),
            (p, o, Invocation::new(long(65_535), vec![Value::Unit]), true),
            (
                p,
                o,
                Invocation::new(long(65_536), vec![Value::Unit]),
                false,
            ),
            (
                p,
                o,
                Invocation::unary("op", Value::sym(long(65_535))),
                true,
            ),
            (
                p,
                o,
                Invocation::unary("op", Value::sym(long(65_536))),
                false,
            ),
            (p, o, Invocation::unary("op", nest(MAX_VALUE_DEPTH)), true),
            (
                p,
                o,
                Invocation::unary("op", nest(MAX_VALUE_DEPTH + 1)),
                false,
            ),
            (ProcessId(max_id), o, FetchIncrement::fetch_inc(), true),
            (ProcessId(max_id + 1), o, FetchIncrement::fetch_inc(), false),
            (p, ObjectId(max_id), FetchIncrement::fetch_inc(), true),
            (p, ObjectId(max_id + 1), FetchIncrement::fetch_inc(), false),
        ];
        let nested_list = Value::List(vec![nest(MAX_VALUE_DEPTH - 1)]);
        let responses = [
            (p, o, Value::sym(long(65_535)), true),
            (p, o, Value::sym(long(65_536)), false),
            (p, o, Value::List(vec![Value::sym(long(65_536))]), false),
            (p, o, nested_list.clone(), true),
            (
                p,
                o,
                Value::Pair(Box::new(nested_list), Box::new(Value::Unit)),
                false,
            ),
            (ProcessId(max_id), o, Value::Unit, true),
            (ProcessId(max_id + 1), o, Value::Unit, false),
            (p, ObjectId(max_id), Value::Unit, true),
            (p, ObjectId(max_id + 1), Value::Unit, false),
        ];
        let mut carried = Vec::new();
        for (process, object, invocation, fits) in invocations {
            assert_eq!(
                carries_invocation(process, object, &invocation),
                fits,
                "{invocation}"
            );
            if fits {
                carried.push(Event::invoke(process, object, invocation));
            }
        }
        for (process, object, value, fits) in responses {
            assert_eq!(carries_response(process, object, &value), fits, "{value:?}");
            if fits {
                carried.push(Event::respond(process, object, value));
            }
        }
        for (seq, event) in carried.into_iter().enumerate() {
            let events = vec![(seq as u64, event)];
            let (bytes, fingerprint) = seal_events(7, 0, &events);
            let frame = WireFrame::Events {
                client: 7,
                frame_seq: 0,
                events,
                fingerprint,
            };
            assert_eq!(decode_frame(&bytes), Ok(frame));
        }
    }

    #[test]
    fn all_frame_kinds_round_trip() {
        let events = sample_events();
        let frames = [
            WireFrame::Hello {
                client: 9,
                version: VERSION,
                session: 0xfeed_f00d,
                resume: None,
            },
            WireFrame::Hello {
                client: 9,
                version: VERSION,
                session: 0xfeed_f00d,
                resume: Some(ResumeCursor {
                    frames: 12,
                    events: 384,
                    chain: 0xabcd,
                }),
            },
            WireFrame::Events {
                client: 9,
                frame_seq: 2,
                fingerprint: event_batch_fingerprint(9, &events),
                events,
            },
            WireFrame::Verdict(VerdictSummary {
                shard: 3,
                round: 7,
                events: 4_000,
                checked_ops: 2_000,
                fingerprint: 0xdead_beef,
                last: true,
                verdict: MonitorVerdict::Ok,
            }),
            WireFrame::Shutdown {
                client: 9,
                events_sent: 123,
                stream_fingerprint: 0x1234,
            },
            WireFrame::Ack {
                client: 9,
                session: 0xfeed_f00d,
                cursor: ResumeCursor {
                    frames: 13,
                    events: 416,
                    chain: 0x9999,
                },
            },
            WireFrame::Ping { token: 0x0102_0304 },
            WireFrame::Pong { token: 0x0102_0304 },
            WireFrame::Overloaded {
                client: 9,
                retry_after_ms: 250,
            },
        ];
        for frame in frames {
            let bytes = encode_frame(&frame);
            assert_eq!(decode_frame(&bytes).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn fingerprint_rejects_payload_corruption() {
        // Every field kind an event has, and no `Bool` (any nonzero byte
        // reads as `true`, so flipping one need not change the event).
        let mut events = sample_events();
        events.extend([
            (
                8,
                Event::invoke(ProcessId(2), ObjectId(9), Invocation::nullary("knock")),
            ),
            (
                9,
                Event::invoke(
                    ProcessId(3),
                    ObjectId(1),
                    Invocation::binary("cas", Value::Int(-1), Value::sym("a")),
                ),
            ),
            (
                13,
                Event::respond(
                    ProcessId(3),
                    ObjectId(1),
                    Value::List(vec![Value::Unit, Value::Bottom]),
                ),
            ),
            (
                21,
                Event::respond(
                    ProcessId(2),
                    ObjectId(9),
                    Value::Pair(Box::new(Value::sym("ok")), Box::new(Value::Int(1))),
                ),
            ),
        ]);
        let frame = WireFrame::Events {
            client: 1,
            frame_seq: 0,
            fingerprint: event_batch_fingerprint(1, &events),
            events,
        };
        let bytes = encode_frame(&frame);
        // The payload: after the length prefix, tag, client, frame sequence
        // and event count, before the trailing fingerprint.
        let payload = 4 + 1 + 4 + 8 + 4..bytes.len() - 8;
        for at in payload {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[at] ^= 1 << bit;
                assert!(
                    decode_frame(&corrupt).is_err(),
                    "a flip of bit {bit} at byte {at} was accepted"
                );
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = encode_frame(&WireFrame::Hello {
            client: 0,
            version: VERSION,
            session: 0,
            resume: None,
        });
        bytes[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::FrameTooLarge(_))
        ));
        assert!(matches!(
            split_frame(&bytes),
            Err(WireError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn split_frame_finds_boundaries() {
        let a = encode_frame(&WireFrame::Hello {
            client: 0,
            version: VERSION,
            session: 0,
            resume: None,
        });
        let b = encode_frame(&WireFrame::Shutdown {
            client: 0,
            events_sent: 1,
            stream_fingerprint: 2,
        });
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let (first, rest) = split_frame(&stream).unwrap().unwrap();
        assert_eq!(first, &a[..]);
        assert_eq!(rest, &b[..]);
        assert!(split_frame(&stream[..3]).unwrap().is_none());
        assert!(split_frame(&stream[..a.len() + 2]).unwrap().is_some());
    }

    #[test]
    fn hello_from_the_future_is_rejected() {
        let mut bytes = encode_frame(&WireFrame::Hello {
            client: 0,
            version: VERSION,
            session: 0,
            resume: None,
        });
        // Patch the version field (body offset 5 = tag + magic, +4 prefix).
        bytes[9..11].copy_from_slice(&99u16.to_le_bytes());
        assert_eq!(decode_frame(&bytes), Err(WireError::UnsupportedVersion(99)),);
        // The retired 11-byte version-1 hello is refused by its number too,
        // before the decoder looks for fields it never had.
        let mut legacy = vec![11, 0, 0, 0, tag::HELLO];
        legacy.extend_from_slice(&MAGIC.to_le_bytes());
        legacy.extend_from_slice(&1u16.to_le_bytes());
        legacy.extend_from_slice(&3u32.to_le_bytes());
        assert_eq!(decode_frame(&legacy), Err(WireError::UnsupportedVersion(1)));
    }
}
