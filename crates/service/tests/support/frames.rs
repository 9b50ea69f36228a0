//! Seed-driven generators of arbitrary wire frames — nested values,
//! multi-argument invocations, every verdict — shared by `wire_roundtrip`
//! (round trips, the splitter) and the facade's `tests/arbitrary_bytes.rs`
//! (truncations and flips), so both draw from the same frames.

use evlin_checker::monitor::{MonitorVerdict, MonitorViolation};
use evlin_history::{Event, ObjectId, OpId, ProcessId};
use evlin_service::wire::{
    event_batch_fingerprint, ResumeCursor, VerdictSummary, WireFrame, VERSION,
};
use evlin_spec::{Invocation, Value};
use rand::rngs::StdRng;
use rand::Rng;

pub fn random_string(rng: &mut StdRng, max: usize) -> String {
    let len = rng.gen_range(0..=max);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0..26u8)))
        .collect()
}

pub fn random_value(rng: &mut StdRng, depth: usize) -> Value {
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

pub fn random_event(rng: &mut StdRng) -> Event {
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

pub fn random_events_frame(rng: &mut StdRng) -> WireFrame {
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

pub fn random_verdict(rng: &mut StdRng) -> MonitorVerdict {
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

pub fn random_cursor(rng: &mut StdRng) -> ResumeCursor {
    ResumeCursor {
        frames: rng.gen(),
        events: rng.gen(),
        chain: rng.gen(),
    }
}

pub fn random_frame(rng: &mut StdRng) -> WireFrame {
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
