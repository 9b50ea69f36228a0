//! Differential tests: the streaming monitor's verdict must equal the
//! offline kernel's verdict on the concatenated history, for all four
//! consistency conditions — no matter how adversarially the stream is
//! chopped.
//!
//! Each property draws a seeded random history over a register and a
//! fetch&increment object (noisy responses, overlap, pending tails; the
//! extended `t`-linearizability fuzz adds a second register), then
//! feeds it to a [`Monitor`] in chunks whose boundaries are *not* aligned
//! with quiescent cuts — chunk sizes, forced [`Monitor::pump`] calls,
//! `min_segment_events` and `segment_batch` all vary with the seed — and
//! asserts the final report equals the offline answer.
//!
//! A second family ([`check_wide`]) covers what two objects cannot: up to 48
//! objects of mixed type, so that objects skip segments, batches hold
//! several wide segments, and the check stage's per-segment grouping, the
//! in-place fetch&increment fast path and the kernel path all run — against
//! [`kernel::check_local`] on the same history, clean and with one response
//! perturbed.
//!
//! The PR-sized runs use the default case count; the nightly fuzz job runs
//! the `#[ignore]`d extended tests with `EVLIN_DIFF_CASES` (default 2000)
//! seeds for deep coverage.

use evlin_checker::kernel::{self, SearchLimits};
use evlin_checker::linearizability::Linearizability;
use evlin_checker::monitor::{
    stages, Monitor, MonitorCondition, MonitorConfig, MonitorReport, MonitorVerdict,
};
use evlin_checker::{eventual, linearizability, t_linearizability, weak_consistency};
use evlin_history::{
    Event, EventKind, History, HistoryBuilder, ObjectId, ObjectUniverse, ProcessId,
};
use evlin_spec::{Counter, FetchIncrement, Register, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `objects - 1` registers, then a fetch&increment object.
fn universe(objects: usize) -> ObjectUniverse {
    let mut u = ObjectUniverse::new();
    for _ in 1..objects {
        u.add_object(Register::new(Value::from(0i64)));
    }
    u.add_object(FetchIncrement::new());
    u
}

/// Random well-formed history over [`universe`]`(objects)`: same shape as
/// the kernel-vs-brute-force suite's generator (random interleaving, noisy
/// responses, pendings).
fn random_history(seed: u64, max_ops: usize, objects: usize) -> History {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = ObjectId(objects - 1);
    let processes = rng.gen_range(2..4usize);
    let total_ops = rng.gen_range(2..=max_ops);
    let mut plans: Vec<Vec<(ObjectId, evlin_spec::Invocation)>> = vec![Vec::new(); processes];
    for _ in 0..total_ops {
        let p = rng.gen_range(0..processes);
        let kind = rng.gen_range(0..3u32);
        if kind == 2 {
            plans[p].push((x, FetchIncrement::fetch_inc()));
            continue;
        }
        // One register draws nothing: two objects give the histories these
        // seeds always gave.
        let r = ObjectId(if objects > 2 {
            rng.gen_range(0..objects - 1)
        } else {
            0
        });
        plans[p].push(match kind {
            0 => (r, Register::write(Value::from(rng.gen_range(1..4i64)))),
            _ => (r, Register::read()),
        });
    }
    let mut b = HistoryBuilder::new();
    let mut next_op: Vec<usize> = vec![0; processes];
    let mut pending: Vec<Option<(ObjectId, evlin_spec::Invocation)>> = vec![None; processes];
    for _ in 0..total_ops * 8 {
        let p = rng.gen_range(0..processes);
        if let Some((object, inv)) = pending[p].clone() {
            if rng.gen_bool(0.7) {
                let response = if inv.method() == "write" {
                    Value::Unit
                } else {
                    Value::from(rng.gen_range(0..4i64))
                };
                b = b.respond(ProcessId(p), object, response);
                pending[p] = None;
            }
        } else if next_op[p] < plans[p].len() {
            let (object, inv) = plans[p][next_op[p]].clone();
            next_op[p] += 1;
            b = b.invoke(ProcessId(p), object, inv.clone());
            pending[p] = Some((object, inv));
        }
    }
    b.build()
}

/// Feeds `history` to a fresh monitor in seed-dependent adversarial chunks
/// (pumping at every chunk boundary, i.e. at non-quiescent points too) and
/// returns the final verdict.
fn monitor_verdict(
    universe: &ObjectUniverse,
    history: &History,
    condition: MonitorCondition,
    seed: u64,
) -> MonitorVerdict {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_cafe);
    let config = MonitorConfig {
        condition,
        min_segment_events: rng.gen_range(1..5usize),
        segment_batch: rng.gen_range(1..4usize),
        ..MonitorConfig::default()
    };
    let mut monitor = Monitor::new(universe.clone(), config);
    let mut fed = 0usize;
    while fed < history.len() {
        let chunk = rng.gen_range(1..=4usize).min(history.len() - fed);
        monitor
            .ingest_all(history.events()[fed..fed + chunk].iter().cloned())
            .expect("generated streams are well-formed");
        fed += chunk;
        if rng.gen_bool(0.5) {
            monitor.pump();
        }
    }
    let report = monitor.finish();
    assert_ne!(
        report.verdict,
        MonitorVerdict::Unknown,
        "budgets must not be exhausted at test sizes\n{history}"
    );
    report.verdict
}

/// Drives the same stream through the *split* pipeline stages
/// ([`stages`]) with seed-dependent batch-pull timing — the two-thread
/// runtime driver collapsed onto one thread, batch boundaries and all — and
/// returns the final verdict.
fn staged_verdict(
    universe: &ObjectUniverse,
    history: &History,
    condition: MonitorCondition,
    seed: u64,
) -> MonitorVerdict {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57a6_ed00);
    let config = MonitorConfig {
        condition,
        min_segment_events: rng.gen_range(1..5usize),
        segment_batch: rng.gen_range(1..4usize),
        ..MonitorConfig::default()
    };
    let (mut ingest, mut check) = stages(universe.clone(), config);
    for event in history.events().iter().cloned() {
        ingest
            .ingest(event)
            .expect("generated streams are well-formed");
        // Pull eagerly, lazily, or at the configured cadence — the check
        // stage must be insensitive to all of it.
        let batch = if rng.gen_bool(0.3) {
            ingest.take_batch()
        } else {
            ingest.take_ready_batch()
        };
        if let Some(batch) = batch {
            check.check_batch(batch);
        }
    }
    let (tail, summary) = ingest.finish();
    let report = check.finish(tail, summary);
    assert_ne!(
        report.verdict,
        MonitorVerdict::Unknown,
        "budgets must not be exhausted at test sizes\n{history}"
    );
    report.verdict
}

/// The staged pipeline against the offline kernel, all four conditions.
fn check_staged_all_conditions(seed: u64, max_ops: usize) {
    let h = random_history(seed, max_ops, 2);
    let u = universe(2);
    let lin = staged_verdict(&u, &h, MonitorCondition::Linearizability, seed);
    assert_eq!(
        lin.is_ok(),
        linearizability::is_linearizable(&h, &u),
        "staged linearizability mismatch (seed {seed})\n{h}"
    );
    for t in [0, 1, h.len() / 2, h.len()] {
        let tlin = staged_verdict(&u, &h, MonitorCondition::TLinearizability { t }, seed);
        assert_eq!(
            tlin.is_ok(),
            t_linearizability::is_t_linearizable(&h, &u, t),
            "staged t-linearizability mismatch (seed {seed}, t {t})\n{h}"
        );
    }
    let offline_weak = weak_consistency::violations(&h, &u);
    match staged_verdict(&u, &h, MonitorCondition::WeakConsistency, seed) {
        MonitorVerdict::Ok => assert!(
            offline_weak.is_empty(),
            "staged monitor missed violations {offline_weak:?} (seed {seed})\n{h}"
        ),
        MonitorVerdict::Violation(v) => assert_eq!(
            v.op,
            offline_weak.first().copied(),
            "staged monitor flagged the wrong operation (seed {seed})\n{h}"
        ),
        MonitorVerdict::Unknown => unreachable!(),
    }
    let stab = staged_verdict(&u, &h, MonitorCondition::StabilizesEventually, seed);
    let offline_stab = kernel::check(
        &eventual::StabilizesEventually,
        &h,
        &u,
        SearchLimits::default(),
    )
    .is_yes();
    assert_eq!(
        stab.is_ok(),
        offline_stab,
        "staged stabilizes-eventually mismatch (seed {seed})\n{h}"
    );
}

fn check_linearizability(seed: u64, max_ops: usize) {
    let (h, u) = (random_history(seed, max_ops, 2), universe(2));
    let offline = linearizability::is_linearizable(&h, &u);
    let online = monitor_verdict(&u, &h, MonitorCondition::Linearizability, seed);
    assert_eq!(
        online.is_ok(),
        offline,
        "linearizability mismatch (seed {seed})\n{h}"
    );
}

fn check_t_linearizability(seed: u64, max_ops: usize, objects: usize) {
    let (h, u) = (random_history(seed, max_ops, objects), universe(objects));
    for t in 0..=h.len() {
        let offline = t_linearizability::is_t_linearizable(&h, &u, t);
        let online = monitor_verdict(&u, &h, MonitorCondition::TLinearizability { t }, seed);
        assert_eq!(
            online.is_ok(),
            offline,
            "t-linearizability mismatch (seed {seed}, t {t}, {objects} objects)\n{h}"
        );
    }
}

fn check_weak_consistency(seed: u64, max_ops: usize) {
    let (h, u) = (random_history(seed, max_ops, 2), universe(2));
    let offline = weak_consistency::violations(&h, &u);
    let online = monitor_verdict(&u, &h, MonitorCondition::WeakConsistency, seed);
    match online {
        MonitorVerdict::Ok => {
            assert!(
                offline.is_empty(),
                "monitor missed violations {offline:?} (seed {seed})\n{h}"
            );
        }
        MonitorVerdict::Violation(v) => {
            assert_eq!(
                v.op,
                offline.first().copied(),
                "monitor flagged the wrong operation (seed {seed})\n{h}"
            );
        }
        MonitorVerdict::Unknown => unreachable!(),
    }
}

fn check_stabilizes_eventually(seed: u64, max_ops: usize) {
    let (h, u) = (random_history(seed, max_ops, 2), universe(2));
    let offline = kernel::check(
        &eventual::StabilizesEventually,
        &h,
        &u,
        SearchLimits::default(),
    )
    .is_yes();
    let online = monitor_verdict(&u, &h, MonitorCondition::StabilizesEventually, seed);
    assert_eq!(
        online.is_ok(),
        offline,
        "stabilizes-eventually mismatch (seed {seed})\n{h}"
    );
}

/// A universe of 1..=48 objects, each a register or a counter by the seed,
/// and a linearizable history over it: up to four processes overlap freely,
/// every operation takes effect at its response, and some operations may be
/// left pending at the end.
fn wide_case(seed: u64) -> (ObjectUniverse, Vec<Event>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x71de_0b1e);
    let objects = rng.gen_range(1..=48usize);
    let mut universe = ObjectUniverse::new();
    let mut is_counter = Vec::with_capacity(objects);
    for _ in 0..objects {
        is_counter.push(rng.gen_bool(0.5));
        if is_counter[is_counter.len() - 1] {
            universe.add_object(FetchIncrement::new());
        } else {
            universe.add_object(Register::new(Value::from(0i64)));
        }
    }
    let processes = rng.gen_range(2..=4usize);
    let ops = rng.gen_range(20..=200usize);
    let mut state = vec![0i64; objects];
    let mut pending: Vec<Option<(usize, evlin_spec::Invocation)>> = vec![None; processes];
    let mut events = Vec::new();
    let mut invoked = 0;
    for _ in 0..ops * 6 {
        let p = rng.gen_range(0..processes);
        match pending[p].take() {
            Some((o, invocation)) if rng.gen_bool(0.6) => {
                let response = match invocation.method() {
                    "fetch_inc" => {
                        state[o] += 1;
                        Value::from(state[o] - 1)
                    }
                    "write" => {
                        state[o] = invocation.args()[0].as_int().expect("integer writes");
                        Value::Unit
                    }
                    _ => Value::from(state[o]),
                };
                events.push(Event::respond(ProcessId(p), ObjectId(o), response));
            }
            still_pending @ Some(_) => pending[p] = still_pending,
            None if invoked < ops => {
                invoked += 1;
                let o = rng.gen_range(0..objects);
                let invocation = if is_counter[o] {
                    FetchIncrement::fetch_inc()
                } else if rng.gen_bool(0.4) {
                    Register::write(Value::from(rng.gen_range(1..6i64)))
                } else {
                    Register::read()
                };
                events.push(Event::invoke(ProcessId(p), ObjectId(o), invocation.clone()));
                pending[p] = Some((o, invocation));
            }
            None => {}
        }
    }
    (universe, events)
}

/// The inline monitor fed in ragged chunks with forced pumps.
fn wide_inline(
    universe: &ObjectUniverse,
    events: &[Event],
    config: MonitorConfig,
) -> MonitorReport {
    let mut monitor = Monitor::new(universe.clone(), config);
    for (i, chunk) in events.chunks(7).enumerate() {
        monitor
            .ingest_all(chunk.iter().cloned())
            .expect("generated streams are well-formed");
        if i % 5 == 0 {
            monitor.pump();
        }
    }
    monitor.finish()
}

/// The split stages, batches pulled at the configured cadence.
fn wide_staged(
    universe: &ObjectUniverse,
    events: &[Event],
    config: MonitorConfig,
) -> MonitorReport {
    let (mut ingest, mut check) = stages(universe.clone(), config);
    for event in events.iter().cloned() {
        ingest
            .ingest(event)
            .expect("generated streams are well-formed");
        if let Some(batch) = ingest.take_ready_batch() {
            check.check_batch(batch);
        }
    }
    let (tail, summary) = ingest.finish();
    check.finish(tail, summary)
}

/// Many objects: the inline monitor and the split stages against
/// [`kernel::check_local`], over a grid of segment and batch sizes (one
/// operation per segment up to the whole stream in one), on a clean history
/// and on the same history with one response perturbed.
fn check_wide(seed: u64) {
    let (universe, clean) = wide_case(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbad_5eed);
    let responses: Vec<usize> = (0..clean.len())
        .filter(|&i| matches!(&clean[i].kind, EventKind::Respond(v) if v.as_int().is_some()))
        .collect();
    let mut perturbed = clean.clone();
    let victim = responses
        .get(rng.gen_range(0..responses.len().max(1)))
        .copied();
    if let Some(at) = victim {
        let EventKind::Respond(value) = &mut perturbed[at].kind else {
            unreachable!("filtered to responses");
        };
        *value = Value::from(value.as_int().expect("filtered to integers") + 100);
    }
    for events in [clean, perturbed] {
        let history = History::from_events(events.clone());
        let offline = kernel::check_local(
            &Linearizability,
            &history,
            &universe,
            SearchLimits::default(),
        );
        assert!(
            !matches!(offline, kernel::SearchResult::Unknown),
            "budgets must not be exhausted at test sizes (seed {seed})"
        );
        for min_segment_events in [1, 64, 4096] {
            for segment_batch in [1, 4, 64] {
                let config = MonitorConfig {
                    min_segment_events,
                    segment_batch,
                    ..MonitorConfig::default()
                };
                let context = format!(
                    "seed {seed}, min_segment_events {min_segment_events}, \
                     segment_batch {segment_batch}"
                );
                let inline = wide_inline(&universe, &events, config);
                assert_eq!(
                    inline.verdict.is_ok(),
                    offline.is_yes(),
                    "inline monitor vs check_local ({context})\n{history}"
                );
                if let MonitorVerdict::Violation(v) = &inline.verdict {
                    let at = victim.expect("only a perturbed history violates");
                    assert_eq!(v.object, Some(events[at].object), "{context}");
                    assert!(
                        (v.segment_start..v.segment_start + v.segment_len).contains(&at),
                        "violation localized away from event {at}: {v} ({context})"
                    );
                }
                // Same cuts, so the same verdict down to the attribution;
                // and on a clean stream the same counters, except residency,
                // which depends on when batches are pulled.
                let mut staged = wide_staged(&universe, &events, config);
                assert_eq!(staged.verdict, inline.verdict, "{context}");
                if inline.verdict.is_ok() {
                    staged.stats.peak_window_events = inline.stats.peak_window_events;
                    assert_eq!(staged.stats, inline.stats, "{context}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn monitor_matches_offline_linearizability(seed in 0u64..u64::MAX / 2) {
        check_linearizability(seed, 7);
    }

    #[test]
    fn monitor_matches_offline_t_linearizability(seed in 0u64..u64::MAX / 2) {
        check_t_linearizability(seed, 6, 2);
    }

    #[test]
    fn monitor_matches_offline_weak_consistency(seed in 0u64..u64::MAX / 2) {
        check_weak_consistency(seed, 7);
    }

    #[test]
    fn monitor_matches_offline_stabilizes_eventually(seed in 0u64..u64::MAX / 2) {
        check_stabilizes_eventually(seed, 7);
    }

    #[test]
    fn staged_pipeline_matches_offline_all_conditions(seed in 0u64..u64::MAX / 2) {
        check_staged_all_conditions(seed, 6);
    }
}

proptest! {
    // Nine configurations × two histories × two drivers per case.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn wide_monitor_matches_offline_linearizability(seed in 0u64..u64::MAX / 2) {
        check_wide(seed);
    }
}

/// Number of cases for the `#[ignore]`d extended (nightly-fuzz) tests.
fn extended_cases() -> u64 {
    std::env::var("EVLIN_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000)
}

#[test]
#[ignore = "extended fuzz: run via the nightly CI job or with --ignored"]
fn extended_monitor_vs_offline_linearizability() {
    for seed in 0..extended_cases() {
        check_linearizability(seed.wrapping_mul(0x9e37_79b9), 8);
    }
}

#[test]
#[ignore = "extended fuzz: run via the nightly CI job or with --ignored"]
fn extended_monitor_vs_offline_t_linearizability() {
    for seed in 0..extended_cases() / 4 {
        check_t_linearizability(seed.wrapping_mul(0x9e37_79b9), 6, 2);
    }
}

#[test]
#[ignore = "extended fuzz: run via the nightly CI job or with --ignored"]
fn extended_monitor_vs_offline_t_linearizability_over_three_objects() {
    // Two registers and a fetch&increment: each object's chain carries its
    // own floaters, and the offline reference decides the whole history.
    for seed in 0..extended_cases() / 4 {
        check_t_linearizability(seed.wrapping_mul(0x9e37_79b9), 10, 3);
    }
}

#[test]
#[ignore = "extended fuzz: run via the nightly CI job or with --ignored"]
fn extended_monitor_vs_offline_weak_consistency() {
    for seed in 0..extended_cases() {
        check_weak_consistency(seed.wrapping_mul(0x9e37_79b9), 8);
    }
}

#[test]
#[ignore = "extended fuzz: run via the nightly CI job or with --ignored"]
fn extended_monitor_vs_offline_stabilizes_eventually() {
    for seed in 0..extended_cases() {
        check_stabilizes_eventually(seed.wrapping_mul(0x9e37_79b9), 8);
    }
}

#[test]
#[ignore = "extended fuzz: run via the nightly CI job or with --ignored"]
fn extended_staged_pipeline_vs_offline_all_conditions() {
    for seed in 0..extended_cases() / 4 {
        check_staged_all_conditions(seed.wrapping_mul(0x9e37_79b9), 7);
    }
}

#[test]
#[ignore = "extended fuzz: run via the nightly CI job or with --ignored"]
fn extended_wide_monitor_vs_offline_linearizability() {
    for seed in 0..extended_cases() / 8 {
        check_wide(seed.wrapping_mul(0x9e37_79b9));
    }
}

#[test]
#[ignore = "a 70 000-member class: run via the nightly CI job or with --ignored, in release"]
fn a_class_past_u16_members_stabilizes_like_the_offline_kernel() {
    // 70 000 completed increments on one counter reach the kernel as one
    // interchangeability class, whose taken count passes `u16::MAX`.  The
    // offline reference is `StabilizesEventually` itself: the rest of
    // `eventual::analyze` runs one weak-consistency search per operation.
    let mut u = ObjectUniverse::new();
    let c = u.add_object(Counter::new());
    let mut b = HistoryBuilder::new();
    for k in 0..70_000 {
        b = b.complete(ProcessId(k % 3), c, Counter::inc(), Value::Unit);
    }
    let history = b.build();
    let (offline, offline_stats) = kernel::check_with_stats(
        &eventual::StabilizesEventually,
        &history,
        &u,
        SearchLimits::default(),
    );
    assert!(offline.is_yes(), "{offline:?}");
    assert_eq!(offline_stats.nodes, 70_000);
    let config = MonitorConfig::for_condition(MonitorCondition::StabilizesEventually);
    let mut monitor = Monitor::new(u, config);
    monitor
        .ingest_all(history.events().iter().cloned())
        .expect("a sequential stream is well-formed");
    let report = monitor.finish();
    assert!(report.verdict.is_ok(), "{report:?}");
    assert_eq!(report.stats.search.nodes, 70_000);
}
