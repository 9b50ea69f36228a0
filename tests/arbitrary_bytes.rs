//! One arbitrary-bytes suite for the workspace's four decoders — wire frames
//! (`decode_frame_with`), `EVJL` journals (`Journal::recover` on a written
//! file) and `EVCK` checkpoints with the `EVRN` runs they name (a checkpoint
//! resume) — all of which read through `evlin_checker::codec`.
//!
//! Inputs: random bytes, every truncation of a valid encoding, single-byte
//! flips, and *resealed* mutations (the frame's length prefix or the
//! checkpoint's trailer checksum recomputed, so the mutation reaches the
//! structure behind the seal).  Properties, for every input:
//!
//! * no panic and no abort — the test process survives;
//! * a typed error: a [`WireError`] other than the transport's, a
//!   [`JournalError`] or an `io::Error` of kind `InvalidData` / `NotFound`;
//! * peak heap allocation during the decode at most
//!   [`ALLOC_PER_INPUT_BYTE`] × the input's length — plus, for the two that
//!   open files, a fixed floor for what they allocate whatever the input
//!   (a path, an error message; the engine a resumed checkpoint continues
//!   in);
//! * a journal recovers to a prefix of what was written, never to more.
//!
//! The bound also holds one stage further on: a decoded frame's events go
//! through the monitor's ingest stage, whose tables no id from the wire may
//! size.
//!
//! Frames come from `wire_roundtrip`'s generators and resealed checkpoints
//! from `store_differential`'s `reseal`, both included from their crates'
//! `tests/support/`, so this suite keeps no copy of either.  The quick tests
//! run fixed seed ranges on every `cargo test` (well under 2 s in debug);
//! `arbitrary_bytes_extended` honours `EVLIN_DIFF_CASES` and runs in the
//! nightly CI fuzz job.

#[path = "../crates/sim/tests/support/evck.rs"]
mod evck;
#[path = "../crates/service/tests/support/frames.rs"]
mod frames;

use evck::reseal;
use evlin::algorithms::CasFetchInc;
use evlin::checker::codec::Encode;
use evlin::checker::monitor::{stages, MonitorConfig};
use evlin::history::{Event, ObjectId, ObjectUniverse, ProcessId};
use evlin::service::journal::{Journal, JournalError};
use evlin::service::wire::{
    decode_frame, decode_frame_with, encode_frame, event_batch_fingerprint, ResumeCursor,
    WireError, WireFrame,
};
use evlin::sim::checkpoint::{explore_checkpointed, CheckpointOptions};
use evlin::sim::engine::{EngineOptions, ExploreOptions, Reduction, Visit};
use evlin::sim::store::StoreConfig;
use evlin::sim::workload::Workload;
use evlin::spec::{FetchIncrement, Value};
use frames::{random_events_frame, random_frame};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Counting allocator: live and peak bytes, per thread
// ---------------------------------------------------------------------------

/// The densest valid encoding sets this: a `List` of units turns each input
/// byte into a 32-byte `Value`, so a decoder may allocate twice that per
/// byte — allocator rounding and the batch fingerprint's word buffer
/// included — and a count that sizes a buffer before its bytes are there
/// (a `u32::MAX` shard count asked for 378 GB) is far above it.
const ALLOC_PER_INPUT_BYTE: usize = 64;

/// What a journal recovery allocates whatever the input: the file's path
/// and the error it may report.  (A wire decode gets no floor.)
const ALLOC_FLOOR: usize = 4 << 10;

/// What a checkpoint resume allocates whatever the input: the root
/// configuration, the walk, the store's shards and the one visit it makes.
const RESUME_FLOOR: usize = 256 << 10;

struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrank(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

// SAFETY: every method forwards to `System` with the arguments it was given;
// the counting only touches const-initialized thread-locals, which neither
// allocate nor register destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size);
        shrank(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the most bytes it held at once on
/// this thread.
fn peak_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let result = f();
    (result, PEAK.with(Cell::get) - base)
}

fn assert_allocation_bounded(what: &str, input: usize, floor: usize, peak: usize) {
    assert!(
        peak <= ALLOC_PER_INPUT_BYTE * input + floor,
        "{what}: {peak} bytes allocated for {input} bytes of input"
    );
}

// ---------------------------------------------------------------------------
// Wire frames
// ---------------------------------------------------------------------------

/// Decodes `bytes` under the suite's properties and returns the outcome.
fn decode_checked(bytes: &[u8]) -> Result<WireFrame, WireError> {
    let mut interner = Vec::new();
    let (result, peak) = peak_allocation(|| decode_frame_with(bytes, &mut interner));
    assert_allocation_bounded("wire", bytes.len(), 0, peak);
    assert!(
        !matches!(
            result,
            Err(WireError::Transport(_) | WireError::PeerTimeout)
        ),
        "a pure decode reported a transport error: {result:?}"
    );
    result
}

/// Writes `body`'s length in front of it: the wire's one seal.
fn sealed(body: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(4 + body.len());
    (body.len() as u32).put(&mut bytes);
    bytes.extend_from_slice(body);
    bytes
}

fn wire_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let frame = random_frame(&mut rng);
    let bytes = encode_frame(&frame);
    assert_eq!(decode_checked(&bytes).as_ref(), Ok(&frame), "seed {seed}");
    // Every strict prefix is rejected: fewer than 5 bytes is a truncation,
    // anything longer contradicts its own length prefix.
    let announced = bytes.len() - 4;
    for cut in 0..bytes.len() {
        match decode_checked(&bytes[..cut]) {
            Err(WireError::Truncated { needed: 5, have }) => assert!(cut < 5 && have == cut),
            Err(WireError::LengthMismatch { announced: a, have }) => {
                assert!(cut >= 5 && a == announced && have == cut - 4)
            }
            other => panic!("seed {seed}: cut {cut} of {} gave {other:?}", bytes.len()),
        }
    }
    // A single-byte flip of an event frame never delivers altered event
    // content as a valid event frame: the decoder rejects it (structure or
    // fingerprint), or the flip hit a byte with no meaning (a boolean's
    // nonzero value), or it re-parsed as another frame kind, which a
    // replica's direction and state checks reject.
    let events_frame = random_events_frame(&mut rng);
    let WireFrame::Events { events, .. } = &events_frame else {
        unreachable!()
    };
    let events_bytes = encode_frame(&events_frame);
    for _ in 0..16 {
        let mut flipped = events_bytes.clone();
        let at = rng.gen_range(4..flipped.len());
        flipped[at] ^= rng.gen_range(1..=255u8);
        if let Ok(WireFrame::Events {
            events: decoded, ..
        }) = decode_checked(&flipped)
        {
            assert_eq!(
                &decoded, events,
                "seed {seed}: flip at {at} slipped through"
            );
        }
    }
    // Resealed mutations: overwrite, insert or delete a body byte, then
    // recompute the length prefix so the mutation reaches the body's
    // structure.
    for _ in 0..16 {
        let mut body = bytes[4..].to_vec();
        let at = rng.gen_range(0..body.len());
        match rng.gen_range(0..3u32) {
            0 => body[at] = rng.gen_range(0..=255u8),
            1 => body.insert(at, rng.gen_range(0..=255u8)),
            _ => {
                body.remove(at);
            }
        }
        let _ = decode_checked(&sealed(&body));
    }
    // Random bodies, sealed and not.
    for _ in 0..8 {
        let body: Vec<u8> = (0..rng.gen_range(0..48usize))
            .map(|_| rng.gen_range(0..=255u8))
            .collect();
        let _ = decode_checked(&body);
        let _ = decode_checked(&sealed(&body));
    }
}

/// An `EVENTS` frame whose one response value is `depth` nested `Pair` tags
/// and nothing after them.
fn nested_pairs_frame(depth: usize) -> Vec<u8> {
    let mut body = Vec::new();
    2u8.put(&mut body); // EVENTS
    0u32.put(&mut body); // client
    0u64.put(&mut body); // frame_seq
    1u32.put(&mut body); // one event
    0u64.put(&mut body); // its seq
    0u32.put(&mut body); // process
    0u32.put(&mut body); // object
    1u8.put(&mut body); // a response
    body.resize(body.len() + depth, 5); // Pair, Pair, …
    sealed(&body)
}

/// 256 seeds, as many as each of the two `wire_roundtrip` properties this
/// replaced ran: every frame kind and verdict gets all its truncations, and
/// 256 event frames 16 flips each.
#[test]
fn wire_decoder_survives_arbitrary_bytes() {
    for seed in 0..256 {
        wire_case(seed);
    }
}

/// The allocation constant is met, and nearly reached, by the densest valid
/// encoding.
#[test]
fn a_list_of_units_sets_the_allocation_constant() {
    let events = vec![(
        0,
        Event::respond(
            ProcessId(0),
            ObjectId(0),
            Value::List(vec![Value::Unit; 4096]),
        ),
    )];
    let bytes = encode_frame(&WireFrame::Events {
        client: 0,
        frame_seq: 0,
        fingerprint: event_batch_fingerprint(0, &events),
        events,
    });
    let mut interner = Vec::new();
    let (decoded, peak) = peak_allocation(|| decode_frame_with(&bytes, &mut interner));
    assert!(decoded.is_ok());
    assert!(peak >= 32 * 4096, "{peak}");
    assert_allocation_bounded("list of units", bytes.len(), 0, peak);
}

/// A frame of ten thousand nested `Pair` tags — 10 038 bytes, reachable from
/// any peer's first frame — decodes to a typed error on a thread with the
/// default stack, where it used to overflow it and abort the process.
#[test]
fn ten_thousand_nested_pairs_are_an_error_not_a_stack_overflow() {
    let bytes = nested_pairs_frame(10_000);
    assert_eq!(bytes.len(), 10_038);
    let result = std::thread::spawn(move || decode_frame(&bytes))
        .join()
        .expect("the decoding thread returns");
    assert!(
        matches!(result, Err(WireError::TooDeep { .. })),
        "{result:?}"
    );
    // 64 levels are still a value.
    let mut value = Value::Unit;
    for _ in 0..64 {
        value = Value::Pair(Box::new(value), Box::new(Value::Unit));
    }
    let events = vec![(0, Event::respond(ProcessId(0), ObjectId(0), value))];
    let frame = WireFrame::Events {
        client: 0,
        frame_seq: 0,
        fingerprint: event_batch_fingerprint(0, &events),
        events,
    };
    assert_eq!(decode_frame(&encode_frame(&frame)), Ok(frame));
}

/// A process id is four bytes on the wire whatever its value: an invocation
/// by process 2^24 goes through decode and the monitor's ingest stage within
/// the wire's bound.  (Ingest used to index its pending operations by
/// process, which asked for 256 MiB here and 64 GiB for `u32::MAX`.)
#[test]
fn a_huge_process_id_is_ingested_within_the_bound() {
    let mut universe = ObjectUniverse::new();
    let object = universe.add_object(FetchIncrement::new());
    let events = vec![(
        0,
        Event::invoke(ProcessId(1 << 24), object, FetchIncrement::fetch_inc()),
    )];
    let bytes = encode_frame(&WireFrame::Events {
        client: 0,
        frame_seq: 0,
        fingerprint: event_batch_fingerprint(0, &events),
        events,
    });
    let (mut ingest, _check) = stages(universe, MonitorConfig::default());
    let mut interner = Vec::new();
    let (ingested, peak) = peak_allocation(|| {
        let Ok(WireFrame::Events { events, .. }) = decode_frame_with(&bytes, &mut interner) else {
            panic!("the frame decodes");
        };
        events
            .into_iter()
            .map(|(_, event)| ingest.ingest(event))
            .collect::<Vec<_>>()
    });
    assert_eq!(ingested, [Ok(())]);
    assert_allocation_bounded("decode + ingest", bytes.len(), 0, peak);
}

// ---------------------------------------------------------------------------
// Journals
// ---------------------------------------------------------------------------

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "evlin-arbitrary-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn fetch_inc_frame(client: u32, frame_seq: u64) -> (Vec<u8>, u64, u64) {
    let events: Vec<(u64, Event)> = (0..2)
        .map(|i| {
            let inv = FetchIncrement::fetch_inc();
            (
                frame_seq * 2 + i,
                Event::invoke(ProcessId(i as usize), ObjectId(0), inv),
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
    (encode_frame(&frame), 2, fingerprint)
}

/// A journal of three `EVENTS` records and a shutdown record, and the
/// cursor after each record.
fn journal_fixture(dir: &Path) -> (Vec<u8>, Vec<ResumeCursor>) {
    let path = dir.join("fixture.evjl");
    let mut journal = Journal::create(&path, 1, 7).expect("create");
    let cursors = (0..3)
        .map(|seq| {
            let (payload, events, fingerprint) = fetch_inc_frame(1, seq);
            journal
                .append_events(&payload, events, fingerprint)
                .expect("append")
        })
        .collect();
    journal
        .append_shutdown(6, journal.cursor().chain)
        .expect("shutdown");
    drop(journal);
    let bytes = std::fs::read(&path).expect("read the fixture");
    std::fs::remove_file(&path).expect("remove the fixture");
    (bytes, cursors)
}

/// Recovers a journal file holding `bytes` under the suite's properties:
/// it either refuses the header or recovers a prefix of `written`.
fn recover_checked(dir: &Path, bytes: &[u8], written: &[ResumeCursor]) {
    let path = dir.join("case.evjl");
    std::fs::write(&path, bytes).expect("write the case");
    let (result, peak) = peak_allocation(|| Journal::recover(&path).map(|(_, r)| r));
    assert_allocation_bounded("journal", bytes.len(), ALLOC_FLOOR, peak);
    match result {
        Ok(recovered) => assert!(
            written.starts_with(&recovered.cursors),
            "recovered {:?}, not a prefix of {written:?}",
            recovered.cursors
        ),
        Err(JournalError::BadHeader(_) | JournalError::UnsupportedVersion(_)) => {}
        Err(other) => panic!("journal recovery failed with {other}"),
    }
}

fn journal_case(seed: u64, dir: &Path, fixture: &(Vec<u8>, Vec<ResumeCursor>)) {
    let (bytes, written) = fixture;
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..4 {
        let mut flipped = bytes.clone();
        let at = rng.gen_range(0..flipped.len());
        flipped[at] ^= rng.gen_range(1..=255u8);
        recover_checked(dir, &flipped, written);
    }
    let mut random = bytes[..18].to_vec();
    random.extend((0..rng.gen_range(0..64usize)).map(|_| rng.gen_range(0..=255u8)));
    recover_checked(dir, &random, written);
    random.drain(..18);
    recover_checked(dir, &random, written);
}

#[test]
fn journal_recovery_survives_arbitrary_bytes() {
    let dir = temp_dir("journal");
    let fixture = journal_fixture(&dir);
    // Every truncation is a torn tail (or a torn header).
    for cut in 0..=fixture.0.len() {
        recover_checked(&dir, &fixture.0[..cut], &fixture.1);
    }
    for seed in 0..32 {
        journal_case(seed, &dir, &fixture);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A record carrying the ten-thousand-deep frame is a torn tail like any
/// other corrupt record: the journal recovers to the record before it.
#[test]
fn a_journal_whose_second_record_nests_too_deep_recovers_to_the_first() {
    let dir = temp_dir("nested");
    let path = dir.join("nested.evjl");
    let mut journal = Journal::create(&path, 1, 7).expect("create");
    let (payload, events, fingerprint) = fetch_inc_frame(1, 0);
    let first = journal
        .append_events(&payload, events, fingerprint)
        .expect("append");
    journal
        .append_events(&nested_pairs_frame(10_000), 1, 0)
        .expect("append the hostile record");
    drop(journal);
    let recovered = std::thread::spawn(move || Journal::recover(&path).map(|(_, r)| r))
        .join()
        .expect("the recovering thread returns")
        .expect("recover");
    assert_eq!(recovered.cursors, [first]);
    assert!(recovered.torn_bytes > 10_000);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Checkpoints and the runs they name
// ---------------------------------------------------------------------------

struct CheckpointFixture {
    dir: PathBuf,
    options: EngineOptions,
    checkpoint: Vec<u8>,
    runs: Vec<(String, Vec<u8>)>,
}

/// A killed spill exploration of a CAS fetch&increment: a checkpoint whose
/// manifest names runs in every shard and whose frontier is not empty.
fn checkpoint_fixture() -> CheckpointFixture {
    let dir = temp_dir("checkpoint");
    let options = EngineOptions {
        limits: ExploreOptions {
            max_depth: 10,
            max_configs: 100_000,
        },
        reduction: Reduction::None,
        store: StoreConfig::Spill {
            shards_log2: 1,
            shard_budget: 64,
        },
        ..EngineOptions::default()
    };
    let killed = resume(&dir, &options, Some(150)).expect("the killed run");
    assert!(!killed.completed && killed.stats.store_runs > 0);
    let checkpoint = std::fs::read(dir.join("checkpoint.bin")).expect("read checkpoint.bin");
    let mut runs = Vec::new();
    for entry in std::fs::read_dir(dir.join("store")).expect("list store/") {
        let path = entry.expect("store entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        runs.push((name, std::fs::read(&path).expect("read a run")));
    }
    CheckpointFixture {
        dir,
        options,
        checkpoint,
        runs,
    }
}

fn resume(
    dir: &Path,
    options: &EngineOptions,
    abort_after_visits: Option<usize>,
) -> io::Result<evlin::sim::checkpoint::CheckpointRun> {
    let ck = CheckpointOptions {
        dir: dir.to_path_buf(),
        interval_visits: 50,
        abort_after_visits,
    };
    explore_checkpointed(
        &CasFetchInc::new(2),
        &Workload::uniform(2, FetchIncrement::fetch_inc(), 2),
        options,
        &ck,
        |_, _| Visit::Continue,
    )
}

impl CheckpointFixture {
    /// Resumes from `checkpoint` over the fixture's runs (restored first:
    /// a resume deletes the runs its manifest does not name) under the
    /// suite's properties.
    fn resume_checked(&self, checkpoint: &[u8]) {
        let store = self.dir.join("store");
        std::fs::remove_dir_all(&store).expect("clear store/");
        std::fs::create_dir_all(&store).expect("recreate store/");
        let mut input = checkpoint.len();
        for (name, bytes) in &self.runs {
            std::fs::write(store.join(name), bytes).expect("restore a run");
            input += bytes.len();
        }
        std::fs::write(self.dir.join("checkpoint.bin"), checkpoint).expect("write the case");
        let (result, peak) = peak_allocation(|| resume(&self.dir, &self.options, Some(1)));
        assert_allocation_bounded("checkpoint", input, RESUME_FLOOR, peak);
        if let Err(err) = result {
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::NotFound
                ),
                "resume failed with {:?}: {err}",
                err.kind()
            );
        }
    }
}

fn checkpoint_case(seed: u64, fixture: &CheckpointFixture) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pristine = &fixture.checkpoint;
    // Resealed: overwrite, insert or delete a body byte, or set a whole
    // count-sized field to ones, then make the trailer vouch for it.
    for _ in 0..4 {
        let mut bytes = pristine.clone();
        let at = rng.gen_range(8..bytes.len() - 8);
        match rng.gen_range(0..4u32) {
            0 => bytes[at] ^= rng.gen_range(1..=255u8),
            1 => bytes.insert(at, rng.gen_range(0..=255u8)),
            2 => {
                bytes.remove(at);
            }
            _ => {
                let end = (at + 8).min(bytes.len() - 8);
                bytes[at..end].fill(0xff);
            }
        }
        reseal(&mut bytes);
        fixture.resume_checked(&bytes);
    }
    // Unsealed: a flip the trailer catches, and random bytes.
    let mut flipped = pristine.clone();
    let at = rng.gen_range(0..flipped.len());
    flipped[at] ^= rng.gen_range(1..=255u8);
    fixture.resume_checked(&flipped);
    let mut random: Vec<u8> = (0..rng.gen_range(8..96usize))
        .map(|_| rng.gen_range(0..=255u8))
        .collect();
    fixture.resume_checked(&random);
    reseal(&mut random);
    fixture.resume_checked(&random);
}

#[test]
fn checkpoint_resume_survives_arbitrary_bytes() {
    let fixture = checkpoint_fixture();
    fixture.resume_checked(&fixture.checkpoint);
    // Every truncation fails the trailer; a few are enough to say so.
    for cut in (0..fixture.checkpoint.len()).step_by(97) {
        fixture.resume_checked(&fixture.checkpoint[..cut]);
    }
    for seed in 0..32 {
        checkpoint_case(seed, &fixture);
    }
    std::fs::remove_dir_all(&fixture.dir).ok();
}

/// Extended nightly run: `EVLIN_DIFF_CASES` seeds (default 2000) through
/// every decoder.
#[test]
#[ignore = "long-running; exercised by the nightly fuzz job"]
fn arbitrary_bytes_extended() {
    let cases: u64 = std::env::var("EVLIN_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000);
    let journal_dir = temp_dir("journal-extended");
    let journal = journal_fixture(&journal_dir);
    let checkpoint = checkpoint_fixture();
    for seed in 10_000..10_000 + cases {
        wire_case(seed);
        journal_case(seed, &journal_dir, &journal);
        if seed % 8 == 0 {
            checkpoint_case(seed, &checkpoint);
        }
    }
    std::fs::remove_dir_all(&journal_dir).ok();
    std::fs::remove_dir_all(&checkpoint.dir).ok();
}
