//! Property tests for the wire codec: `decode ∘ encode = id` over every
//! frame kind, payload corruption caught by the fingerprint, hello versions
//! refused by number, the streaming splitter reassembling frame boundaries,
//! the interner's bounds, and the wire and `EVJL` bytes pinned.  What any
//! decoder owes arbitrary bytes — truncations, flips, resealed mutations —
//! is the facade's `tests/arbitrary_bytes.rs`.
//!
//! Inputs are seed-driven (the workspace proptest shim has no combinators):
//! each case derives a `StdRng` and builds arbitrary frames from it with the
//! generators in `support/frames.rs`, which `tests/arbitrary_bytes.rs` shares,
//! so a failure reproduces from the printed seed alone.

#[path = "support/frames.rs"]
mod frames;

use evlin_checker::codec::fold_bytes;
use evlin_checker::monitor::{MonitorVerdict, MonitorViolation};
use evlin_history::{Event, ObjectId, OpId, ProcessId};
use evlin_service::journal::{journal_file_name, Journal};
use evlin_service::wire::{
    decode_frame, decode_frame_with, encode_frame, event_batch_fingerprint, split_frame,
    ResumeCursor, VerdictSummary, WireError, WireFrame, VERSION,
};
use evlin_spec::{Invocation, Value};
use frames::{random_cursor, random_event, random_frame};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `decode(encode(f)) = f` for every frame kind, both through the
    /// one-shot decoder and through a shared long-lived interner.
    #[test]
    fn encode_decode_round_trips_every_frame_kind(seed in 0u64..u64::MAX / 2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut interner = Vec::new();
        for _ in 0..8 {
            let frame = random_frame(&mut rng);
            let bytes = encode_frame(&frame);
            prop_assert_eq!(decode_frame(&bytes).as_ref(), Ok(&frame));
            prop_assert_eq!(decode_frame_with(&bytes, &mut interner), Ok(frame));
        }
    }

    /// Corrupting a byte the fingerprint covers (a sequence number or event
    /// payload) is rejected as exactly a fingerprint mismatch.
    #[test]
    fn payload_corruption_is_a_fingerprint_mismatch(seed in 0u64..u64::MAX / 2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let client = rng.gen_range(0..8u32);
        let events = vec![(rng.gen::<u64>(), random_event(&mut rng))];
        let frame = WireFrame::Events {
            client,
            frame_seq: rng.gen(),
            fingerprint: event_batch_fingerprint(client, &events),
            events,
        };
        let mut bytes = encode_frame(&frame);
        // The first event's sequence number starts after the 4-byte length
        // prefix and the 17-byte events header (tag, client, frame_seq,
        // count); its raw little-endian bytes always re-parse, so the only
        // guard that can fire is the fingerprint.
        let idx = 4 + 17 + rng.gen_range(0..8usize);
        bytes[idx] ^= rng.gen_range(1..=255u8);
        prop_assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::FingerprintMismatch { .. })
        ));
    }

    /// A byte stream of concatenated frames splits back into exactly those
    /// frames, and partial tails are reported as incomplete, not as errors.
    #[test]
    fn split_frame_reassembles_concatenated_streams(seed in 0u64..u64::MAX / 2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frames: Vec<WireFrame> = (0..rng.gen_range(1..5usize))
            .map(|_| random_frame(&mut rng))
            .collect();
        let mut stream = Vec::new();
        for frame in &frames {
            stream.extend_from_slice(&encode_frame(frame));
        }
        // A strict prefix of the final frame must read as incomplete.
        let cut = rng.gen_range(0..stream.len());
        let mut reassembled = Vec::new();
        let mut rest: &[u8] = &stream;
        while let Some((head, tail)) = split_frame(rest).unwrap() {
            reassembled.push(decode_frame(head).unwrap());
            rest = tail;
        }
        prop_assert_eq!(reassembled, frames.clone());
        prop_assert!(rest.is_empty());
        let mut partial: &[u8] = &stream[..cut];
        while let Some((head, tail)) = split_frame(partial).unwrap() {
            decode_frame(head).unwrap();
            partial = tail;
        }
        prop_assert!(partial.len() < stream.len());
    }

    /// A single spoken version: a hello announcing any other number — the
    /// retired version 1 and 0 included — is rejected by exactly that
    /// number, whatever follows the version field.
    #[test]
    fn unspoken_hello_versions_are_rejected_by_number(seed in 0u64..u64::MAX / 2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hello = WireFrame::Hello {
            client: rng.gen(),
            version: VERSION,
            session: rng.gen(),
            resume: rng.gen_bool(0.5).then(|| random_cursor(&mut rng)),
        };
        let mut bytes = encode_frame(&hello);
        prop_assert_eq!(decode_frame(&bytes).as_ref(), Ok(&hello));
        let other: u16 = match rng.gen_range(0..4u32) {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(3..=u16::MAX),
        };
        // The version field sits after the length prefix, tag and magic.
        bytes[9..11].copy_from_slice(&other.to_le_bytes());
        prop_assert_eq!(
            decode_frame(&bytes),
            Err(WireError::UnsupportedVersion(other))
        );
    }
}

fn nullary_invoke(seq: u64, method: &str) -> (u64, Event) {
    (
        seq,
        Event::invoke(ProcessId(0), ObjectId(0), Invocation::nullary(method)),
    )
}

fn events_frame_bytes(events: Vec<(u64, Event)>) -> Vec<u8> {
    let fingerprint = event_batch_fingerprint(1, &events);
    encode_frame(&WireFrame::Events {
        client: 1,
        frame_seq: 0,
        events,
        fingerprint,
    })
}

fn decoded_events(frame: WireFrame) -> Vec<(u64, Event)> {
    match frame {
        WireFrame::Events { events, .. } => events,
        other => panic!("not an event frame: {other:?}"),
    }
}

/// The interner only ever canonicalizes zero-argument invocations of
/// methods outside the spec vocabulary (those cost nothing to build) — two
/// frames with the same such method decode to `Invocation`s sharing one
/// allocation, and the sharing is invisible to equality.
#[test]
fn interner_reuses_nullary_invocations_across_frames() {
    let mut interner = Vec::new();
    for method in evlin_spec::VOCABULARY {
        let bytes = events_frame_bytes(vec![nullary_invoke(0, method)]);
        let events = decoded_events(decode_frame_with(&bytes, &mut interner).unwrap());
        assert_eq!(events, [nullary_invoke(0, method)]);
    }
    assert!(interner.is_empty(), "vocabulary names need no interning");
    let a = decode_frame_with(
        &events_frame_bytes(vec![nullary_invoke(0, "knock")]),
        &mut interner,
    );
    let b = decode_frame_with(
        &events_frame_bytes(vec![nullary_invoke(1, "knock")]),
        &mut interner,
    );
    assert_eq!(interner.len(), 1);
    assert_eq!(
        decoded_events(a.unwrap())[0].1,
        decoded_events(b.unwrap())[0].1
    );
}

/// A peer choosing its method names cannot grow a decoder's interner (and
/// with it the per-event scan): past a few dozen distinct names the rest
/// decode un-interned, so 10 000 of them cost 10 000 bounded steps — and
/// every one still round-trips bit-exactly, interned or not.
#[test]
fn interner_is_bounded_under_many_distinct_method_names() {
    let mut interner = Vec::new();
    let mut seq = 0u64;
    for frame in 0..10 {
        let events: Vec<(u64, Event)> = (0..1000)
            .map(|k| {
                seq += 1;
                nullary_invoke(seq, &format!("hostile_{frame}_{k}"))
            })
            .collect();
        let bytes = events_frame_bytes(events.clone());
        let decoded = decode_frame_with(&bytes, &mut interner).unwrap();
        assert!(interner.len() <= 32, "interner grew to {}", interner.len());
        assert_eq!(encode_frame(&decoded), bytes);
        assert_eq!(decoded_events(decoded), events);
    }
    // A full interner still serves the names it holds.
    let held = interner[0].method().to_owned();
    let bytes = events_frame_bytes(vec![nullary_invoke(0, &held)]);
    let decoded = decode_frame_with(&bytes, &mut interner).unwrap();
    assert_eq!(decoded_events(decoded), [nullary_invoke(0, &held)]);
    assert!(interner.len() <= 32);
}

/// `fold_bytes(0, …)` of [`pinned_frames`]' encodings and of the fixed journal
/// of `journal_bytes_are_pinned`, recorded at the commit before the codec
/// (with a test-local copy of `fold_bytes`, which did not exist yet).
const GOLDEN_WIRE: u64 = 0x0dab_2990_8e3c_64d8;
const GOLDEN_JOURNAL: u64 = 0xa8b7_c9b6_fdb6_6b69;

/// One frame of every kind, every `Value` tag, both option states and all
/// three verdicts: the fixed input of `wire_bytes_are_pinned`.
fn pinned_frames() -> Vec<WireFrame> {
    let nested = Value::Pair(
        Box::new(Value::List(vec![
            Value::Unit,
            Value::Bottom,
            Value::Bool(true),
            Value::Int(-7),
        ])),
        Box::new(Value::Sym("leaf".into())),
    );
    let events = vec![
        nullary_invoke(1, "fetch_inc"),
        nullary_invoke(2, "knock"),
        (
            3,
            Event::invoke(
                ProcessId(4),
                ObjectId(9),
                Invocation::new("cas", vec![Value::Int(1), nested.clone()]),
            ),
        ),
        (4, Event::respond(ProcessId(4), ObjectId(9), nested)),
        (
            5,
            Event::respond(ProcessId(0), ObjectId(0), Value::Int(i64::MIN)),
        ),
    ];
    let cursor = ResumeCursor {
        frames: 12,
        events: 384,
        chain: 0xabcd_ef01_2345_6789,
    };
    let verdict = |verdict| {
        WireFrame::Verdict(VerdictSummary {
            shard: 3,
            round: 7,
            events: 4_000,
            checked_ops: 2_000,
            fingerprint: 0xdead_beef,
            last: true,
            verdict,
        })
    };
    vec![
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
            resume: Some(cursor),
        },
        WireFrame::Events {
            client: 1,
            frame_seq: 0,
            fingerprint: event_batch_fingerprint(1, &events),
            events,
        },
        verdict(MonitorVerdict::Ok),
        verdict(MonitorVerdict::Unknown),
        verdict(MonitorVerdict::Violation(MonitorViolation {
            segment_start: 100,
            segment_len: 12,
            object: Some(ObjectId(2)),
            op: None,
            detail: "no linearization".into(),
        })),
        verdict(MonitorVerdict::Violation(MonitorViolation {
            segment_start: 0,
            segment_len: 1,
            object: None,
            op: Some(OpId(5)),
            detail: String::new(),
        })),
        WireFrame::Shutdown {
            client: 9,
            events_sent: 123,
            stream_fingerprint: 0x1234,
        },
        WireFrame::Ack {
            client: 9,
            session: 0xfeed_f00d,
            cursor,
        },
        WireFrame::Ping { token: 0x0102_0304 },
        WireFrame::Pong { token: 0x0102_0304 },
        WireFrame::Overloaded {
            client: 9,
            retry_after_ms: 250,
        },
    ]
}

/// The wire bytes of every frame kind, pinned as one fold recorded before
/// the wire codec moved onto `evlin_checker::codec`: "no byte changed" is a
/// test, not a claim.
#[test]
fn wire_bytes_are_pinned() {
    let mut stream = Vec::new();
    for frame in pinned_frames() {
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes), Ok(frame));
        stream.extend_from_slice(&bytes);
    }
    assert_eq!(
        (stream.len(), fold_bytes(0, &stream)),
        (627, GOLDEN_WIRE),
        "the wire encoding moved"
    );
}

/// A fixed journal — created, three `EVENTS` records, a shutdown record —
/// pinned byte for byte, recorded before `journal.rs` moved onto the codec.
#[test]
fn journal_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("evjl-pinned-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(journal_file_name(3, 0xAA));
    let _ = std::fs::remove_file(&path);
    let mut journal = Journal::create(&path, 3, 0xAA).unwrap();
    for frame_seq in 0..3u64 {
        let events: Vec<(u64, Event)> = (0..=frame_seq)
            .map(|i| nullary_invoke(frame_seq * 10 + i, "fetch_inc"))
            .collect();
        let fingerprint = event_batch_fingerprint(3, &events);
        let count = events.len() as u64;
        let payload = encode_frame(&WireFrame::Events {
            client: 3,
            frame_seq,
            events,
            fingerprint,
        });
        journal.append_events(&payload, count, fingerprint).unwrap();
    }
    journal.append_shutdown(6, journal.cursor().chain).unwrap();
    drop(journal);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(
        (bytes.len(), fold_bytes(0, &bytes)),
        (359, GOLDEN_JOURNAL),
        "the EVJL encoding moved"
    );
}
