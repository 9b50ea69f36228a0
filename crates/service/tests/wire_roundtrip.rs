//! Property tests for the wire codec: `decode ∘ encode = id` over every
//! frame kind, truncation and corruption rejected with the documented
//! errors, and the streaming splitter reassembling frame boundaries.
//!
//! Inputs are seed-driven (the workspace proptest shim has no combinators):
//! each case derives a `StdRng` and builds arbitrary frames — nested values,
//! multi-argument invocations, violation verdicts — from it, so a failure
//! reproduces from the printed seed alone.

use evlin_checker::monitor::{MonitorVerdict, MonitorViolation};
use evlin_history::{Event, ObjectId, OpId, ProcessId};
use evlin_service::wire::{
    decode_frame, decode_frame_with, encode_frame, event_batch_fingerprint, split_frame,
    ResumeCursor, VerdictSummary, WireError, WireFrame, VERSION,
};
use evlin_spec::{Invocation, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_string(rng: &mut StdRng, max: usize) -> String {
    let len = rng.gen_range(0..=max);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0..26u8)))
        .collect()
}

fn random_value(rng: &mut StdRng, depth: usize) -> Value {
    let top = if depth == 0 { 5 } else { 7 };
    match rng.gen_range(0..top) {
        0 => Value::Unit,
        1 => Value::Bottom,
        2 => Value::Bool(rng.gen()),
        3 => Value::Int(rng.gen::<u64>() as i64),
        4 => Value::Sym(random_string(rng, 8)),
        5 => Value::Pair(
            Box::new(random_value(rng, depth - 1)),
            Box::new(random_value(rng, depth - 1)),
        ),
        _ => {
            let n = rng.gen_range(0..3usize);
            Value::List((0..n).map(|_| random_value(rng, depth - 1)).collect())
        }
    }
}

fn random_event(rng: &mut StdRng) -> Event {
    let process = ProcessId(rng.gen_range(0..50usize));
    let object = ObjectId(rng.gen_range(0..50usize));
    if rng.gen_bool(0.5) {
        let method = format!("m{}", random_string(rng, 6));
        let argc = rng.gen_range(0..3usize);
        let args = (0..argc).map(|_| random_value(rng, 2)).collect();
        Event::invoke(process, object, Invocation::new(method, args))
    } else {
        Event::respond(process, object, random_value(rng, 2))
    }
}

fn random_events_frame(rng: &mut StdRng) -> WireFrame {
    let client = rng.gen_range(0..8u32);
    let n = rng.gen_range(0..6usize);
    let events: Vec<(u64, Event)> = (0..n)
        .map(|_| (rng.gen::<u64>(), random_event(rng)))
        .collect();
    WireFrame::Events {
        client,
        frame_seq: rng.gen(),
        fingerprint: event_batch_fingerprint(client, &events),
        events,
    }
}

fn random_verdict(rng: &mut StdRng) -> MonitorVerdict {
    match rng.gen_range(0..3u32) {
        0 => MonitorVerdict::Ok,
        1 => MonitorVerdict::Unknown,
        _ => MonitorVerdict::Violation(MonitorViolation {
            segment_start: rng.gen_range(0..1_000_000usize),
            segment_len: rng.gen_range(0..10_000usize),
            object: rng
                .gen_bool(0.5)
                .then(|| ObjectId(rng.gen_range(0..100usize))),
            op: rng.gen_bool(0.5).then(|| OpId(rng.gen_range(0..100usize))),
            detail: random_string(rng, 40),
        }),
    }
}

fn random_cursor(rng: &mut StdRng) -> ResumeCursor {
    ResumeCursor {
        frames: rng.gen(),
        events: rng.gen(),
        chain: rng.gen(),
    }
}

fn random_frame(rng: &mut StdRng) -> WireFrame {
    match rng.gen_range(0..10u32) {
        // Only the spoken version round-trips; every other is rejected at
        // decode (covered by `unspoken_hello_versions_are_rejected_by_number`).
        0 => WireFrame::Hello {
            client: rng.gen(),
            version: VERSION,
            session: rng.gen(),
            resume: rng.gen_bool(0.5).then(|| random_cursor(rng)),
        },
        1 => WireFrame::Ack {
            client: rng.gen(),
            session: rng.gen(),
            cursor: random_cursor(rng),
        },
        2 => WireFrame::Ping { token: rng.gen() },
        3 => WireFrame::Pong { token: rng.gen() },
        4 => WireFrame::Overloaded {
            client: rng.gen(),
            retry_after_ms: rng.gen(),
        },
        5 => WireFrame::Verdict(VerdictSummary {
            shard: rng.gen(),
            round: rng.gen(),
            events: rng.gen(),
            checked_ops: rng.gen(),
            fingerprint: rng.gen(),
            last: rng.gen(),
            verdict: random_verdict(rng),
        }),
        6 => WireFrame::Shutdown {
            client: rng.gen(),
            events_sent: rng.gen(),
            stream_fingerprint: rng.gen(),
        },
        // Event frames carry the interesting payloads; weight them.
        _ => random_events_frame(rng),
    }
}

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

    /// Every strict prefix of a frame is rejected: fewer than 5 bytes is a
    /// truncation, anything longer contradicts its own length prefix.
    #[test]
    fn truncation_is_rejected_with_the_right_error(seed in 0u64..u64::MAX / 2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = random_frame(&mut rng);
        let bytes = encode_frame(&frame);
        let announced = bytes.len() - 4;
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(WireError::Truncated { needed: 5, have }) => {
                    prop_assert!(cut < 5 && have == cut);
                }
                Err(WireError::LengthMismatch { announced: a, have }) => {
                    prop_assert!(cut >= 5 && a == announced && have == cut - 4);
                }
                other => panic!("cut {cut} of {} gave {other:?}", bytes.len()),
            }
        }
    }

    /// Single-byte corruption of an event frame can never deliver altered
    /// event content as a valid event frame: either the decoder rejects the
    /// bytes (structure or fingerprint), or the decoded events are identical
    /// (the flip hit a non-semantic byte such as a boolean's nonzero byte).
    #[test]
    fn corruption_never_alters_decoded_event_content(seed in 0u64..u64::MAX / 2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = random_events_frame(&mut rng);
        let WireFrame::Events { events: ref original, .. } = frame else { unreachable!() };
        let bytes = encode_frame(&frame);
        for _ in 0..16 {
            let mut corrupted = bytes.clone();
            let idx = rng.gen_range(4..corrupted.len());
            corrupted[idx] ^= rng.gen_range(1..=255u8);
            match decode_frame(&corrupted) {
                Err(_) => {}
                Ok(WireFrame::Events { events, .. }) => {
                    prop_assert_eq!(&events, original, "corrupt byte {} slipped through", idx);
                }
                // Tag corruption may legally re-parse as another frame kind;
                // the replica's direction/state checks reject those.
                Ok(_) => {}
            }
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
