//! `EVJL` — the per-session event journal behind durability acks.
//!
//! A replica connection appends every *accepted* `EVENTS` frame to its
//! session's journal and fsyncs before acknowledging ([`crate::wire::WireFrame::Ack`]),
//! so an acked frame survives a replica crash by construction.  Appending and
//! syncing are two steps ([`Journal::append_unsynced`], [`Journal::sync`]) so
//! that one `sync_data` can cover every frame a connection delivered while the
//! previous one ran; [`Journal::cursor`] only ever names the synced position,
//! and a failed write or sync cuts the file back to it, so an unacked record
//! never sits in front of its own retransmission.  The file is what makes two
//! recoveries exact:
//!
//! * **Session resumption** — after a reconnect, [`Journal::recover`] yields
//!   the durable [`ResumeCursor`] the replica cross-checks against the
//!   client's resume hello (`service::session`).
//! * **Replica restart** — the supervisor replays the journaled frames
//!   through a fresh staged pipeline to bit-identical monitor state
//!   (`service::supervisor`).
//!
//! ## Format (see `docs/PROTOCOL.md` for the normative tables)
//!
//! An 18-byte header — magic `b"EVJL"`, format version `u16`, client `u32`,
//! session `u64` — then records, each starting with a kind byte:
//!
//! * `1` (events): `frame_seq u64 | payload_len u32 | payload | chain_after
//!   u64`, where `payload` is the frame's full wire encoding (length prefix
//!   included) and `chain_after` the chained stream fingerprint *after*
//!   folding this frame in.  The payload carries its own batch fingerprint,
//!   so corruption inside a record is detected by the wire codec; the chain
//!   links records to each other, so a record that decodes but belongs to a
//!   different history is detected too.
//! * `2` (shutdown): `events u64 | chain u64`, the client's end-of-stream
//!   totals, recorded so a restart after a completed stream still knows the
//!   stream completed.
//!
//! ## Torn-tail recovery
//!
//! A crash mid-append leaves a partial record at the tail.  [`Journal::recover`]
//! scans from the header, validates each record (structure, codec, chain
//! linkage) and truncates the file at the first bad byte — exactly the
//! checkpoint discipline of `sim::checkpoint`, but record-granular: every
//! fully-synced record survives, the torn tail vanishes, and the recovered
//! cursor equals what was last acked (acks happen only after fsync).

use crate::wire::{chain_fingerprint, decode_frame_with, ResumeCursor, WireFrame};
use evlin_spec::Invocation;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Journal-file magic: `b"EVJL"`.
pub(crate) const JOURNAL_MAGIC: [u8; 4] = *b"EVJL";
/// Current journal-format version.
pub(crate) const JOURNAL_VERSION: u16 = 1;
/// Header size in bytes (magic, version, client, session).
pub(crate) const JOURNAL_HEADER_BYTES: usize = 18;

/// Record kind byte: an accepted `EVENTS` frame.
pub(crate) const RECORD_EVENTS: u8 = 1;
/// Record kind byte: the client's shutdown totals.
pub(crate) const RECORD_SHUTDOWN: u8 = 2;

/// Journal failures; torn tails are *not* errors (recovery truncates them).
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file I/O failed.
    Io(std::io::Error),
    /// The header is not an EVJL header (wrong file entirely).
    BadHeader(String),
    /// A version this code does not speak.
    UnsupportedVersion(u16),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O: {e}"),
            JournalError::BadHeader(why) => write!(f, "bad journal header: {why}"),
            JournalError::UnsupportedVersion(v) => {
                write!(f, "unsupported journal version {v}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What a journal held when it was recovered.
#[derive(Debug)]
pub struct Recovered {
    /// The durable cursor after the last intact record.
    pub cursor: ResumeCursor,
    /// The durable cursor after each intact `EVENTS` frame, in order — what
    /// makes a resume claim checkable at *any* position, not just the tip.
    pub cursors: Vec<ResumeCursor>,
    /// The full wire encoding of every intact `EVENTS` frame, in order.
    pub frames: Vec<Vec<u8>>,
    /// Bytes of torn tail that were truncated away (0 for a clean file).
    pub torn_bytes: u64,
}

/// A place between two records: the cursor the records before it fold to
/// and the file length that holds exactly those records.
#[derive(Clone, Copy)]
struct Position {
    cursor: ResumeCursor,
    len: u64,
}

/// An open, append-positioned session journal.
pub struct Journal {
    file: File,
    path: PathBuf,
    client: u32,
    session: u64,
    /// The durable position: every record at or below it is fsynced.
    durable: Position,
    /// The append position: `durable` plus the records written since the
    /// last sync.  The two differ only inside a commit batch.
    written: Position,
    /// A failed append could not be cut back out of the file: nothing more
    /// may be written behind it.
    poisoned: bool,
    shutdown: Option<(u64, u64)>,
    /// Reused append buffer: one `write_all` per record.
    scratch: Vec<u8>,
}

/// The canonical file name for a session's journal.
pub fn journal_file_name(client: u32, session: u64) -> String {
    format!("client-{client}-session-{session:016x}.evjl")
}

impl Journal {
    /// Creates a fresh journal at `path`, writing and syncing the header.
    /// Fails if the file already exists — a session id is never reused, so
    /// an existing file means [`Journal::recover`] was the right call.
    pub fn create(path: &Path, client: u32, session: u64) -> Result<Journal, JournalError> {
        let mut file = OpenOptions::new()
            .write(true)
            .read(true)
            .create_new(true)
            .open(path)?;
        let mut header = [0u8; JOURNAL_HEADER_BYTES];
        header[0..4].copy_from_slice(&JOURNAL_MAGIC);
        header[4..6].copy_from_slice(&JOURNAL_VERSION.to_le_bytes());
        header[6..10].copy_from_slice(&client.to_le_bytes());
        header[10..18].copy_from_slice(&session.to_le_bytes());
        file.write_all(&header)?;
        file.sync_data()?;
        // The chain is seeded with the client id (as on the wire), so
        // journals for different clients never chain-collide.
        let cursor = ResumeCursor {
            frames: 0,
            events: 0,
            chain: client as u64,
        };
        let at = Position {
            cursor,
            len: JOURNAL_HEADER_BYTES as u64,
        };
        Ok(Journal::positioned(file, path, client, session, at, None))
    }

    /// A journal whose handle sits at `at`, the end of its last intact (and
    /// synced) record.
    fn positioned(
        file: File,
        path: &Path,
        client: u32,
        session: u64,
        at: Position,
        shutdown: Option<(u64, u64)>,
    ) -> Journal {
        Journal {
            file,
            path: path.to_path_buf(),
            client,
            session,
            durable: at,
            written: at,
            poisoned: false,
            shutdown,
            scratch: Vec::new(),
        }
    }

    /// Opens an existing journal, validates every record, truncates any torn
    /// tail, and returns the journal (append-positioned) with everything it
    /// held.
    pub fn recover(path: &Path) -> Result<(Journal, Recovered), JournalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.len() < JOURNAL_HEADER_BYTES {
            return Err(JournalError::BadHeader(format!(
                "{} bytes is smaller than the header",
                bytes.len()
            )));
        }
        if bytes[0..4] != JOURNAL_MAGIC {
            return Err(JournalError::BadHeader("wrong magic".into()));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != JOURNAL_VERSION {
            return Err(JournalError::UnsupportedVersion(version));
        }
        let client = u32::from_le_bytes(bytes[6..10].try_into().unwrap());
        let session = u64::from_le_bytes(bytes[10..18].try_into().unwrap());

        let mut cursor = ResumeCursor {
            frames: 0,
            events: 0,
            chain: client as u64,
        };
        let mut frames = Vec::new();
        let mut cursors = Vec::new();
        let mut shutdown = None;
        let mut interner: Vec<Invocation> = Vec::new();
        let mut at = JOURNAL_HEADER_BYTES;
        // `good` tracks the end of the last record that validated whole;
        // everything past it is torn tail.
        let mut good = at;
        while let Some(record) = read_record(&bytes, &mut at, &mut interner, &cursor) {
            match record {
                Record::Events {
                    payload,
                    events,
                    chain_after,
                } => {
                    cursor.frames += 1;
                    cursor.events += events;
                    cursor.chain = chain_after;
                    cursors.push(cursor);
                    frames.push(payload);
                }
                Record::Shutdown { events, chain } => {
                    shutdown = Some((events, chain));
                }
            }
            good = at;
        }
        let torn_bytes = (bytes.len() - good) as u64;
        if torn_bytes > 0 {
            file.set_len(good as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        let at = Position {
            cursor,
            len: good as u64,
        };
        let journal = Journal::positioned(file, path, client, session, at, shutdown);
        let recovered = Recovered {
            cursor,
            cursors,
            frames,
            torn_bytes,
        };
        Ok((journal, recovered))
    }

    /// Appends one accepted `EVENTS` frame (its full wire encoding) and
    /// fsyncs, returning the new durable cursor — the value the replica may
    /// now ack.  `events` and `batch_fingerprint` come from the frame the
    /// caller already decoded.  This is a commit batch of one:
    /// [`Journal::append_unsynced`], then [`Journal::sync`].
    pub fn append_events(
        &mut self,
        payload: &[u8],
        events: u64,
        batch_fingerprint: u64,
    ) -> Result<ResumeCursor, JournalError> {
        self.append_unsynced(payload, events, batch_fingerprint)?;
        self.sync()
    }

    /// Appends one accepted `EVENTS` frame **without** syncing and returns
    /// the position it was written at — which is not durable, must not be
    /// acked and does not move [`Journal::cursor`] until [`Journal::sync`]
    /// returns.  If the write fails, every record appended since the last
    /// sync is cut back out of the file.
    pub fn append_unsynced(
        &mut self,
        payload: &[u8],
        events: u64,
        batch_fingerprint: u64,
    ) -> Result<ResumeCursor, JournalError> {
        let chain_after = chain_fingerprint(self.written.cursor.chain, batch_fingerprint);
        self.scratch.clear();
        self.scratch.push(RECORD_EVENTS);
        self.scratch
            .extend_from_slice(&self.written.cursor.frames.to_le_bytes());
        self.scratch
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.scratch.extend_from_slice(payload);
        self.scratch.extend_from_slice(&chain_after.to_le_bytes());
        self.write_scratch()?;
        let written = &mut self.written.cursor;
        written.frames += 1;
        written.events += events;
        written.chain = chain_after;
        Ok(*written)
    }

    /// One `sync_data` over everything appended since the last one; returns
    /// the new durable cursor.  If the sync fails, the unsynced records are
    /// cut back out of the file: the caller drops the connection, the peer
    /// retransmits, and the retransmission lands where the failed attempt
    /// was, not behind it.
    pub fn sync(&mut self) -> Result<ResumeCursor, JournalError> {
        if let Err(e) = self.file.sync_data() {
            return Err(self.undo(e));
        }
        self.durable = self.written;
        Ok(self.durable.cursor)
    }

    /// Records the client's shutdown totals and fsyncs.
    pub fn append_shutdown(&mut self, events: u64, chain: u64) -> Result<(), JournalError> {
        self.scratch.clear();
        self.scratch.push(RECORD_SHUTDOWN);
        self.scratch.extend_from_slice(&events.to_le_bytes());
        self.scratch.extend_from_slice(&chain.to_le_bytes());
        self.write_scratch()?;
        self.sync()?;
        self.shutdown = Some((events, chain));
        Ok(())
    }

    /// Writes the record in `scratch` at the append position.
    fn write_scratch(&mut self) -> Result<(), JournalError> {
        if self.poisoned {
            return Err(JournalError::Io(std::io::Error::other(
                "a failed append could not be rolled back",
            )));
        }
        if let Err(e) = self.file.write_all(&self.scratch) {
            return Err(self.undo(e));
        }
        self.written.len += self.scratch.len() as u64;
        Ok(())
    }

    /// Forgets every record appended since the last sync: the file is cut
    /// back to its durable length and the handle repositioned there.
    pub(crate) fn rollback(&mut self) -> Result<(), JournalError> {
        self.written = self.durable;
        self.file.set_len(self.durable.len)?;
        self.file.seek(SeekFrom::Start(self.durable.len))?;
        Ok(())
    }

    /// The failure path of a write or sync: roll back, and if even that
    /// fails refuse every later append — a record of unknown fate must not
    /// end up in front of new ones.
    fn undo(&mut self, cause: std::io::Error) -> JournalError {
        self.poisoned = self.rollback().is_err();
        JournalError::Io(cause)
    }

    /// Re-reads every journaled `EVENTS` payload through this journal's own
    /// handle, leaving the handle append-positioned again.
    ///
    /// This is the supervisor's replay source: restart snapshots the frames
    /// *while holding the session's slot lock*, so the read never races an
    /// append (a second handle on the same path could).  The records below
    /// the cursor were validated at recovery/append time; this pass only
    /// re-parses structure and stops at the cursor's frame count.
    pub(crate) fn read_back(&mut self) -> Result<Vec<Vec<u8>>, JournalError> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        self.file.read_to_end(&mut bytes)?;
        self.file.seek(SeekFrom::End(0))?;
        let mut frames = Vec::with_capacity(self.durable.cursor.frames as usize);
        let mut at = JOURNAL_HEADER_BYTES;
        while (frames.len() as u64) < self.durable.cursor.frames {
            match *bytes
                .get(at)
                .ok_or_else(|| JournalError::BadHeader("journal shrank below its cursor".into()))?
            {
                RECORD_EVENTS => {
                    let payload_len = read_u32(&bytes, at + 9)
                        .ok_or_else(|| JournalError::BadHeader("truncated record".into()))?
                        as usize;
                    let payload = bytes
                        .get(at + 13..at + 13 + payload_len)
                        .ok_or_else(|| JournalError::BadHeader("truncated payload".into()))?;
                    frames.push(payload.to_vec());
                    at += 13 + payload_len + 8;
                }
                RECORD_SHUTDOWN => at += 17,
                k => {
                    return Err(JournalError::BadHeader(format!(
                        "unknown record kind {k} below the cursor"
                    )))
                }
            }
        }
        Ok(frames)
    }

    /// The durable cursor: everything at or below it is fsynced.
    pub fn cursor(&self) -> ResumeCursor {
        self.durable.cursor
    }

    /// The client this journal belongs to.
    pub fn client(&self) -> u32 {
        self.client
    }

    /// The session this journal belongs to.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The shutdown totals, if the stream has completed.
    pub fn shutdown(&self) -> Option<(u64, u64)> {
        self.shutdown
    }

    /// The journal's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

enum Record {
    Events {
        payload: Vec<u8>,
        events: u64,
        chain_after: u64,
    },
    Shutdown {
        events: u64,
        chain: u64,
    },
}

/// Reads and validates one record at `*at`, advancing it past the record.
/// `None` means the bytes from `*at` on are torn tail (truncated, corrupt,
/// mis-chained or unknown) — recovery stops here.
fn read_record(
    bytes: &[u8],
    at: &mut usize,
    interner: &mut Vec<Invocation>,
    cursor: &ResumeCursor,
) -> Option<Record> {
    let kind = *bytes.get(*at)?;
    match kind {
        RECORD_EVENTS => {
            let frame_seq = read_u64(bytes, *at + 1)?;
            let payload_len = read_u32(bytes, *at + 9)? as usize;
            let payload_start = *at + 13;
            let payload = bytes.get(payload_start..payload_start + payload_len)?;
            let chain_after = read_u64(bytes, payload_start + payload_len)?;
            // A record is only as good as its payload: decode through the
            // wire codec (structure + batch fingerprint)…
            let frame = decode_frame_with(payload, interner).ok()?;
            let WireFrame::Events {
                events,
                fingerprint,
                ..
            } = frame
            else {
                return None;
            };
            // …require the journal's own bookkeeping to agree (records are
            // appended in acceptance order, so seqs are dense)…
            if frame_seq != cursor.frames {
                return None;
            }
            // …and require the stored chain to link to the running one.
            if chain_fingerprint(cursor.chain, fingerprint) != chain_after {
                return None;
            }
            *at = payload_start + payload_len + 8;
            Some(Record::Events {
                payload: payload.to_vec(),
                events: events.len() as u64,
                chain_after,
            })
        }
        RECORD_SHUTDOWN => {
            let events = read_u64(bytes, *at + 1)?;
            let chain = read_u64(bytes, *at + 9)?;
            *at += 17;
            Some(Record::Shutdown { events, chain })
        }
        _ => None,
    }
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_frame, event_batch_fingerprint};
    use evlin_history::{Event, ObjectId, ProcessId};
    use evlin_spec::FetchIncrement;

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

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("evjl-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let unique = format!(
            "{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        );
        dir.join(unique)
    }

    #[test]
    fn append_then_recover_round_trips_cursor_and_frames() {
        let path = temp_path("roundtrip.evjl");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::create(&path, 3, 0xAA).unwrap();
        let mut expected_frames = Vec::new();
        let mut chain = 3u64;
        for seq in 0..5u64 {
            let (payload, n, fp) = events_frame(3, seq, 4);
            let cursor = journal.append_events(&payload, n, fp).unwrap();
            chain = chain_fingerprint(chain, fp);
            assert_eq!(cursor.frames, seq + 1);
            assert_eq!(cursor.events, (seq + 1) * 4);
            assert_eq!(cursor.chain, chain);
            expected_frames.push(payload);
        }
        journal.append_shutdown(20, chain).unwrap();
        let saved_cursor = journal.cursor();
        drop(journal);

        let (journal, recovered) = Journal::recover(&path).unwrap();
        assert_eq!(journal.client(), 3);
        assert_eq!(journal.session(), 0xAA);
        assert_eq!(recovered.cursor, saved_cursor);
        assert_eq!(recovered.frames, expected_frames);
        assert_eq!(journal.shutdown(), Some((20, chain)));
        assert_eq!(recovered.torn_bytes, 0);
        assert_eq!(journal.cursor(), saved_cursor);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_intact_prefix_survives() {
        let path = temp_path("torn.evjl");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::create(&path, 1, 7).unwrap();
        let (p0, n0, f0) = events_frame(1, 0, 3);
        let (p1, n1, f1) = events_frame(1, 1, 2);
        journal.append_events(&p0, n0, f0).unwrap();
        let full_cursor = journal.append_events(&p1, n1, f1).unwrap();
        drop(journal);
        // Tear the tail: chop bytes off the last record, simulating a crash
        // mid-append.  Every cut length must recover to the 1-frame prefix.
        let clean = std::fs::read(&path).unwrap();
        let second_record_len = clean.len() - (JOURNAL_HEADER_BYTES + 13 + p0.len() + 8);
        for cut in 1..second_record_len {
            std::fs::write(&path, &clean[..clean.len() - cut]).unwrap();
            let (journal, recovered) = Journal::recover(&path).unwrap();
            assert_eq!(recovered.cursor.frames, 1, "cut {cut}");
            assert_eq!(recovered.cursor.events, 3);
            assert_eq!(recovered.frames, vec![p0.clone()]);
            assert!(journal.shutdown().is_none());
            drop(journal);
            // Recovery truncated: a second recovery sees a clean file.
            let (_, again) = Journal::recover(&path).unwrap();
            assert_eq!(again.torn_bytes, 0);
            assert_eq!(again.cursor, recovered.cursor);
        }
        // The untorn file still recovers whole.
        std::fs::write(&path, &clean).unwrap();
        let (_, recovered) = Journal::recover(&path).unwrap();
        assert_eq!(recovered.cursor, full_cursor);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appends_continue_after_recovery() {
        let path = temp_path("continue.evjl");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::create(&path, 2, 9).unwrap();
        let (p0, n0, f0) = events_frame(2, 0, 2);
        journal.append_events(&p0, n0, f0).unwrap();
        drop(journal);
        let (mut journal, _) = Journal::recover(&path).unwrap();
        let (p1, n1, f1) = events_frame(2, 1, 2);
        let cursor = journal.append_events(&p1, n1, f1).unwrap();
        assert_eq!(cursor.frames, 2);
        drop(journal);
        let (_, recovered) = Journal::recover(&path).unwrap();
        assert_eq!(recovered.cursor, cursor);
        assert_eq!(recovered.frames.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unsynced_appends_move_the_cursor_only_at_the_sync() {
        let path = temp_path("batch.evjl");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::create(&path, 3, 1).unwrap();
        let start = journal.cursor();
        let mut written = Vec::new();
        for seq in 0..3u64 {
            let (payload, n, fp) = events_frame(3, seq, 2);
            written.push(journal.append_unsynced(&payload, n, fp).unwrap());
            assert_eq!(journal.cursor(), start, "durable before its sync");
        }
        assert_eq!(journal.sync().unwrap(), written[2]);
        assert_eq!(journal.cursor(), written[2]);
        assert_eq!(journal.read_back().unwrap().len(), 3);
        drop(journal);
        // The records are the ones three synced appends would have written.
        let (_, recovered) = Journal::recover(&path).unwrap();
        assert_eq!(recovered.cursors, written);
        assert_eq!(recovered.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_rolled_back_batch_leaves_only_the_durable_prefix() {
        let path = temp_path("rollback.evjl");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::create(&path, 3, 1).unwrap();
        let (p0, n0, f0) = events_frame(3, 0, 2);
        let (p1, n1, f1) = events_frame(3, 1, 4);
        let (p2, n2, f2) = events_frame(3, 2, 1);
        let durable = journal.append_events(&p0, n0, f0).unwrap();
        // What a failed sync does: two records written, none kept.
        journal.append_unsynced(&p1, n1, f1).unwrap();
        journal.append_unsynced(&p2, n2, f2).unwrap();
        journal.rollback().unwrap();
        assert_eq!(journal.cursor(), durable);
        let on_disk = std::fs::metadata(&path).unwrap().len();
        assert_eq!(
            on_disk as usize,
            JOURNAL_HEADER_BYTES + 13 + p0.len() + 8,
            "the unsynced records are cut out of the file"
        );
        // The retransmission of frame 1 lands where the failed one was.
        let again = journal.append_events(&p1, n1, f1).unwrap();
        assert_eq!(again.frames, 2);
        // Rolled back and then dropped: recovery finds the durable prefix
        // and no torn tail, and frame 2 appends cleanly behind it.
        journal.append_unsynced(&p2, n2, f2).unwrap();
        journal.rollback().unwrap();
        drop(journal);
        let (mut journal, recovered) = Journal::recover(&path).unwrap();
        assert_eq!(recovered.cursors, vec![durable, again]);
        assert_eq!(recovered.frames, vec![p0, p1]);
        assert_eq!(recovered.torn_bytes, 0);
        assert_eq!(journal.append_events(&p2, n2, f2).unwrap().frames, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_back_returns_every_payload_and_stays_appendable() {
        let path = temp_path("readback.evjl");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::create(&path, 6, 2).unwrap();
        let (p0, n0, f0) = events_frame(6, 0, 2);
        let (p1, n1, f1) = events_frame(6, 1, 4);
        journal.append_events(&p0, n0, f0).unwrap();
        journal.append_shutdown(2, journal.cursor().chain).unwrap();
        // A shutdown record in the middle is skipped by the replay read.
        journal.append_events(&p1, n1, f1).unwrap();
        assert_eq!(journal.read_back().unwrap(), vec![p0.clone(), p1.clone()]);
        // The handle is back at the end: appending still works.
        let (p2, n2, f2) = events_frame(6, 2, 1);
        let cursor = journal.append_events(&p2, n2, f2).unwrap();
        assert_eq!(cursor.frames, 3);
        assert_eq!(journal.read_back().unwrap().len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_payload_byte_ends_recovery_at_the_previous_record() {
        let path = temp_path("corrupt.evjl");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::create(&path, 5, 11).unwrap();
        let (p0, n0, f0) = events_frame(5, 0, 3);
        let (p1, n1, f1) = events_frame(5, 1, 3);
        journal.append_events(&p0, n0, f0).unwrap();
        journal.append_events(&p1, n1, f1).unwrap();
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the *second* record's payload.
        let idx = JOURNAL_HEADER_BYTES + 13 + p0.len() + 8 + 13 + p1.len() / 2;
        bytes[idx] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (_, recovered) = Journal::recover(&path).unwrap();
        assert_eq!(recovered.cursor.frames, 1);
        assert_eq!(recovered.frames, vec![p0]);
        assert!(recovered.torn_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_refuses_an_existing_file_and_recover_refuses_non_journals() {
        let path = temp_path("exists.evjl");
        let _ = std::fs::remove_file(&path);
        Journal::create(&path, 0, 1).unwrap();
        assert!(matches!(
            Journal::create(&path, 0, 1),
            Err(JournalError::Io(_))
        ));
        std::fs::write(&path, b"not a journal at all").unwrap();
        assert!(matches!(
            Journal::recover(&path),
            Err(JournalError::BadHeader(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
