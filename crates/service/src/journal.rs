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
//!   (`service::supervisor`), routing the events the walk below decoded.
//!
//! ## Format and torn-tail recovery
//!
//! An 18-byte header (magic `EVJL`, version, client, session), then records:
//! kind 1 is an accepted frame's full wire encoding between its `frame_seq`
//! and the chain fingerprint after it, kind 2 the client's shutdown totals
//! (`docs/PROTOCOL.md` § Session journals).  Bytes go through
//! [`evlin_checker::codec`]; one record walker serves recovery and replay.
//! It validates each record — structure, the payload's own batch
//! fingerprint, the chain linking it to the records before — hands each
//! intact frame's decoded events to a sink, and stops at the first record
//! that fails; recovery cuts the file there: a crash mid-append leaves a
//! torn tail, every synced record survives, and the recovered cursor is the
//! last acked one (acks follow the fsync).

use crate::wire::{chain_fingerprint, decode_frame_with, ResumeCursor, WireFrame};
use evlin_checker::codec::{sync_dir, CodecError, Encode, Fault, Reader};
use evlin_history::Event;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

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

/// Reader errors reach the caller from the header only: past it, a record
/// that does not read is a torn tail.
impl From<CodecError> for JournalError {
    fn from(err: CodecError) -> Self {
        match err.fault {
            Fault::UnsupportedVersion(version) => JournalError::UnsupportedVersion(version),
            _ => JournalError::BadHeader(format!("{err:?}")),
        }
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

impl Position {
    /// Just past the header.  The chain is seeded with the client id (as on
    /// the wire), so journals for different clients never chain-collide.
    fn start(client: u32) -> Position {
        Position {
            cursor: ResumeCursor {
                chain: client as u64,
                ..ResumeCursor::default()
            },
            len: JOURNAL_HEADER_BYTES as u64,
        }
    }
}

/// An open, append-positioned session journal.
pub struct Journal {
    file: File,
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
        let mut header = JOURNAL_MAGIC.to_vec();
        JOURNAL_VERSION.put(&mut header);
        client.put(&mut header);
        session.put(&mut header);
        file.write_all(&header)?;
        file.sync_data()?;
        // The file's name is a directory entry: without this a journal can
        // vanish after its first ack.
        let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
        sync_dir(dir.unwrap_or(Path::new(".")))?;
        let at = Position::start(client);
        Ok(Journal::positioned(file, client, session, at, None))
    }

    /// A journal whose handle sits at `at`, the end of its last intact (and
    /// synced) record.
    fn positioned(
        file: File,
        client: u32,
        session: u64,
        at: Position,
        shutdown: Option<(u64, u64)>,
    ) -> Journal {
        Journal {
            file,
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
    /// tail, and returns the journal (append-positioned) with its cursors.
    pub fn recover(path: &Path) -> Result<(Journal, Recovered), JournalError> {
        Journal::open(path)?.recover(|_| {})
    }

    /// Opens an existing journal and reads its header alone: what a caller
    /// needs to know whose journal it is before it walks the records
    /// ([`Opened::recover`]).
    pub(crate) fn open(path: &Path) -> Result<Opened, JournalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut header = Vec::with_capacity(JOURNAL_HEADER_BYTES);
        (&mut file)
            .take(JOURNAL_HEADER_BYTES as u64)
            .read_to_end(&mut header)?;
        let mut fields = Reader::new(&header);
        fields.header(&JOURNAL_MAGIC, JOURNAL_VERSION)?;
        let (client, session) = (fields.get()?, fields.get()?);
        Ok(Opened {
            file,
            client,
            session,
        })
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
        RECORD_EVENTS.put(&mut self.scratch);
        self.written.cursor.frames.put(&mut self.scratch);
        (payload.len() as u32).put(&mut self.scratch);
        self.scratch.extend_from_slice(payload);
        chain_after.put(&mut self.scratch);
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
        RECORD_SHUTDOWN.put(&mut self.scratch);
        events.put(&mut self.scratch);
        chain.put(&mut self.scratch);
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

    /// Re-reads the durable records (the header left out) through this
    /// journal's own handle, leaving the handle append-positioned again.
    ///
    /// This is the supervisor's replay source: restart reads the records
    /// *while holding the session's slot lock*, so the read never races an
    /// append (a second handle on the same path could), and hands the one
    /// buffer to [`replay_records`].
    pub(crate) fn read_back(&mut self) -> Result<Vec<u8>, JournalError> {
        let header = JOURNAL_HEADER_BYTES as u64;
        self.file.seek(SeekFrom::Start(header))?;
        let mut records = Vec::with_capacity((self.durable.len - header) as usize);
        (&mut self.file)
            .take(self.durable.len - header)
            .read_to_end(&mut records)?;
        self.file.seek(SeekFrom::End(0))?;
        Ok(records)
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
}

/// A journal whose header has been read and checked, its records not yet.
pub(crate) struct Opened {
    file: File,
    client: u32,
    session: u64,
}

impl Opened {
    /// The client this journal belongs to.
    pub(crate) fn client(&self) -> u32 {
        self.client
    }

    /// Walks every record ([`walk`]), handing each intact frame's events to
    /// `sink`, truncates any torn tail, and returns the journal
    /// (append-positioned) with its cursors.
    pub(crate) fn recover(
        mut self,
        sink: impl FnMut(Vec<(u64, Event)>),
    ) -> Result<(Journal, Recovered), JournalError> {
        let mut records = Vec::new();
        self.file.read_to_end(&mut records)?;
        let walked = walk(&records, self.client, sink);
        let at = walked.at;
        let torn_bytes = (JOURNAL_HEADER_BYTES + records.len()) as u64 - at.len;
        drop(records);
        if torn_bytes > 0 {
            self.file.set_len(at.len)?;
            self.file.sync_data()?;
        }
        self.file.seek(SeekFrom::End(0))?;
        let (client, session, shutdown) = (self.client, self.session, walked.shutdown);
        let journal = Journal::positioned(self.file, client, session, at, shutdown);
        let recovered = Recovered {
            cursor: at.cursor,
            cursors: walked.cursors,
            torn_bytes,
        };
        Ok((journal, recovered))
    }
}

/// Walks the records [`Journal::read_back`] returned, handing each intact
/// frame's events to `sink`, and returns the cursor they fold to: the
/// journal's durable cursor unless a record below it fails validation.
pub(crate) fn replay_records(
    records: &[u8],
    client: u32,
    sink: impl FnMut(Vec<(u64, Event)>),
) -> ResumeCursor {
    walk(records, client, sink).at.cursor
}

/// What a [`walk`] found.
struct Walked {
    /// The end of the last record that validated whole.
    at: Position,
    /// The cursor after each intact `EVENTS` record, in order.
    cursors: Vec<ResumeCursor>,
    /// The last shutdown record's totals, if any.
    shutdown: Option<(u64, u64)>,
}

/// The one record walker under recovery and replay: validates each record
/// of `records` (the bytes after the header) in order and hands each intact
/// frame's decoded events to `sink`, stopping at the first record that fails
/// — the start of a torn tail.
fn walk(records: &[u8], client: u32, mut sink: impl FnMut(Vec<(u64, Event)>)) -> Walked {
    let mut reader = Reader::new(records);
    let mut walked = Walked {
        at: Position::start(client),
        cursors: Vec::new(),
        shutdown: None,
    };
    let mut interner = Vec::new();
    while let Some(record) = next_record(&mut reader) {
        match record {
            Record::Events {
                frame_seq,
                payload,
                chain_after,
            } => {
                // A record is only as good as its payload: it must decode
                // through the wire codec (structure + batch fingerprint),
                // agree with the journal's own bookkeeping (records are
                // appended in acceptance order, so seqs are dense) and link
                // to the running chain.
                let Ok(WireFrame::Events {
                    events,
                    fingerprint,
                    ..
                }) = decode_frame_with(payload, &mut interner)
                else {
                    break;
                };
                let cursor = &mut walked.at.cursor;
                if frame_seq != cursor.frames
                    || chain_fingerprint(cursor.chain, fingerprint) != chain_after
                {
                    break;
                }
                cursor.frames += 1;
                cursor.events += events.len() as u64;
                cursor.chain = chain_after;
                walked.cursors.push(*cursor);
                sink(events);
            }
            Record::Shutdown { events, chain } => {
                walked.shutdown = Some((events, chain));
            }
        }
        walked.at.len = (JOURNAL_HEADER_BYTES + reader.at()) as u64;
    }
    walked
}

/// One record as laid out on disk, before anything but its structure is
/// checked.
enum Record<'a> {
    Events {
        frame_seq: u64,
        payload: &'a [u8],
        chain_after: u64,
    },
    Shutdown {
        events: u64,
        chain: u64,
    },
}

/// The record at the reader's position, which it then moves past, with
/// nothing but its structure checked.  `None` means the bytes from there on
/// are not a whole record of a known kind — a torn tail to recovery.
fn next_record<'a>(reader: &mut Reader<'a>) -> Option<Record<'a>> {
    match reader.get::<u8>().ok()? {
        RECORD_EVENTS => {
            let frame_seq = reader.get().ok()?;
            let len = reader.get::<u32>().ok()?;
            Some(Record::Events {
                frame_seq,
                payload: reader.take(len as usize).ok()?,
                chain_after: reader.get().ok()?,
            })
        }
        RECORD_SHUTDOWN => Some(Record::Shutdown {
            events: reader.get().ok()?,
            chain: reader.get().ok()?,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_frame, event_batch_fingerprint};
    use evlin_history::{ObjectId, ProcessId};
    use evlin_spec::FetchIncrement;
    use std::path::PathBuf;

    /// The `n` events of frame `frame_seq`.
    fn batch(frame_seq: u64, n: usize) -> Vec<(u64, Event)> {
        (0..n as u64)
            .map(|i| {
                (
                    frame_seq * 100 + i,
                    Event::invoke(ProcessId(0), ObjectId(0), FetchIncrement::fetch_inc()),
                )
            })
            .collect()
    }

    fn events_frame(client: u32, frame_seq: u64, n: usize) -> (Vec<u8>, u64, u64) {
        let events = batch(frame_seq, n);
        let fingerprint = event_batch_fingerprint(client, &events);
        let frame = WireFrame::Events {
            client,
            frame_seq,
            events,
            fingerprint,
        };
        (encode_frame(&frame), n as u64, fingerprint)
    }

    /// Recovers `path`, keeping the events each intact frame handed the sink.
    fn recover_events(path: &Path) -> (Journal, Recovered, Vec<Vec<(u64, Event)>>) {
        let mut frames = Vec::new();
        let opened = Journal::open(path).unwrap();
        let (journal, recovered) = opened.recover(|events| frames.push(events)).unwrap();
        (journal, recovered, frames)
    }

    /// Replays what `read_back` returns, keeping each frame's events.
    fn read_back_events(journal: &mut Journal) -> (ResumeCursor, Vec<Vec<(u64, Event)>>) {
        let mut frames = Vec::new();
        let records = journal.read_back().unwrap();
        let cursor = replay_records(&records, journal.client(), |events| frames.push(events));
        (cursor, frames)
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
            expected_frames.push(batch(seq, 4));
        }
        journal.append_shutdown(20, chain).unwrap();
        let saved_cursor = journal.cursor();
        drop(journal);

        let (journal, recovered, frames) = recover_events(&path);
        assert_eq!(journal.client(), 3);
        assert_eq!(journal.session(), 0xAA);
        assert_eq!(recovered.cursor, saved_cursor);
        assert_eq!(frames, expected_frames);
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
            let (journal, recovered, frames) = recover_events(&path);
            assert_eq!(recovered.cursor.frames, 1, "cut {cut}");
            assert_eq!(recovered.cursor.events, 3);
            assert_eq!(frames, vec![batch(0, 3)]);
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
        let (_, recovered, frames) = recover_events(&path);
        assert_eq!(recovered.cursor, cursor);
        assert_eq!(frames, vec![batch(0, 2), batch(1, 2)]);
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
        assert_eq!(
            read_back_events(&mut journal),
            (written[2], vec![batch(0, 2), batch(1, 2), batch(2, 2)])
        );
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
        let (mut journal, recovered, frames) = recover_events(&path);
        assert_eq!(recovered.cursors, vec![durable, again]);
        assert_eq!(frames, vec![batch(0, 2), batch(1, 4)]);
        assert_eq!(recovered.torn_bytes, 0);
        assert_eq!(journal.append_events(&p2, n2, f2).unwrap().frames, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_back_replays_every_frame_and_stays_appendable() {
        let path = temp_path("readback.evjl");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::create(&path, 6, 2).unwrap();
        let (p0, n0, f0) = events_frame(6, 0, 2);
        let (p1, n1, f1) = events_frame(6, 1, 4);
        journal.append_events(&p0, n0, f0).unwrap();
        journal.append_shutdown(2, journal.cursor().chain).unwrap();
        // A shutdown record in the middle is skipped by the replay read.
        journal.append_events(&p1, n1, f1).unwrap();
        let durable = journal.cursor();
        assert_eq!(
            read_back_events(&mut journal),
            (durable, vec![batch(0, 2), batch(1, 4)])
        );
        // The handle is back at the end: appending still works.
        let (p2, n2, f2) = events_frame(6, 2, 1);
        let cursor = journal.append_events(&p2, n2, f2).unwrap();
        assert_eq!(cursor.frames, 3);
        assert_eq!(read_back_events(&mut journal).1.len(), 3);
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
        let (_, recovered, frames) = recover_events(&path);
        assert_eq!(recovered.cursor.frames, 1);
        assert_eq!(frames, vec![batch(0, 3)]);
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
