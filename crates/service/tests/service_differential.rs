//! Differential tests for the whole service: N producer clients streaming a
//! recorded history over the wire to M monitor replicas must yield exactly
//! the offline kernel's verdict — for all four consistency conditions, any
//! client count, any shard count, clean and under frame-level transport
//! faults.
//!
//! **Clean transport.**  The recomposed service verdict must equal the
//! offline kernel's verdict on the original history (for object-local
//! conditions this exercises the locality theorem end to end: per-shard
//! verdicts over disjoint object sets recompose into the global verdict),
//! and additionally every shard's own verdict must equal the offline kernel
//! run on that shard's accepted substream.
//!
//! **Faulted transport.**  A lossy link changes which events reach a shard,
//! so the exactness claim moves to the post-fault streams: each shard's
//! verdict must equal the offline kernel on the events that shard's ingest
//! *accepted* (captured via [`ServiceConfig::capture_streams`]).  Corruption
//! changes the stream, never the checking.
//!
//! The nightly fuzz job runs the `#[ignore]`d extended tests with
//! `EVLIN_DIFF_CASES` seeds for deep coverage.

use evlin_checker::kernel::{self, SearchLimits};
use evlin_checker::monitor::{MonitorCondition, MonitorConfig, MonitorVerdict};
use evlin_checker::{eventual, linearizability, t_linearizability, weak_consistency};
use evlin_history::{EventKind, History, HistoryBuilder, ObjectUniverse, ProcessId};
use evlin_runtime::FaultPlan;
use evlin_service::{MonitorService, ServiceConfig, ServiceReport};
use evlin_spec::{FetchIncrement, Register, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn universe() -> ObjectUniverse {
    let mut u = ObjectUniverse::new();
    u.add_object(Register::new(Value::from(0i64)));
    u.add_object(FetchIncrement::new());
    u.add_object(Register::new(Value::from(0i64)));
    u.add_object(FetchIncrement::new());
    u
}

/// Random well-formed history over two registers and two fetch&inc objects
/// — the same shape as the pipeline differential's generator, widened to
/// four objects so multi-shard routing actually splits the stream.
fn random_history(seed: u64, max_ops: usize) -> History {
    let mut rng = StdRng::seed_from_u64(seed);
    let objects = universe().object_ids();
    let processes = rng.gen_range(2..4usize);
    let total_ops = rng.gen_range(2..=max_ops);
    let mut plans: Vec<Vec<(evlin_history::ObjectId, evlin_spec::Invocation)>> =
        vec![Vec::new(); processes];
    for _ in 0..total_ops {
        let p = rng.gen_range(0..processes);
        let o = objects[rng.gen_range(0..objects.len())];
        let inv = if o.0 % 2 == 1 {
            FetchIncrement::fetch_inc()
        } else if rng.gen_bool(0.5) {
            Register::write(Value::from(rng.gen_range(1..4i64)))
        } else {
            Register::read()
        };
        plans[p].push((o, inv));
    }
    let mut b = HistoryBuilder::new();
    let mut next_op: Vec<usize> = vec![0; processes];
    let mut pending: Vec<Option<(evlin_history::ObjectId, evlin_spec::Invocation)>> =
        vec![None; processes];
    for _ in 0..total_ops * 8 {
        let p = rng.gen_range(0..processes);
        if let Some((o, inv)) = pending[p].clone() {
            if rng.gen_bool(0.7) {
                let response = if inv.method() == "write" {
                    Value::Unit
                } else {
                    Value::from(rng.gen_range(0..4i64))
                };
                b = b.respond(ProcessId(p), o, response);
                pending[p] = None;
            }
        } else if next_op[p] < plans[p].len() {
            let (o, inv) = plans[p][next_op[p]].clone();
            next_op[p] += 1;
            b = b.invoke(ProcessId(p), o, inv.clone());
            pending[p] = Some((o, inv));
        }
    }
    b.build()
}

/// Runs `history` through an in-process service — `clients` producers,
/// `shards` requested replicas — and returns the report.  Events of a
/// process always go through the same client (the recorder-shard contract);
/// frame capacity and monitor batching are seed-dependent.
fn service_run(
    history: &History,
    clients: usize,
    shards: usize,
    condition: MonitorCondition,
    seed: u64,
    plan: Option<FaultPlan>,
) -> ServiceReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e41_1ce0);
    // Buffers sized so the single-threaded drive never blocks: the k-way
    // merge inside a shard cannot emit past a claimed ring it has heard
    // nothing from, so a blocking send anywhere would cycle back through
    // this thread (which serves every client) into a deadlock.  Real
    // deployments run one thread per client and need no such sizing; a
    // duplicating fault plan at most doubles the frames in flight.
    let slack = 2 * history.len() + 8;
    let config = ServiceConfig {
        shards,
        monitor: MonitorConfig {
            condition,
            min_segment_events: rng.gen_range(1..5usize),
            segment_batch: rng.gen_range(1..4usize),
            ..MonitorConfig::default()
        },
        frame_capacity: rng.gen_range(1..5usize),
        ring_frames: slack,
        conn_frames: slack,
        stage_queue: rng.gen_range(1..3usize),
        fault: plan,
        capture_streams: true,
    };
    let u = universe();
    let (mut handles, service) = MonitorService::in_process(&u, clients, config);
    for event in history.events() {
        let client = &mut handles[event.process.0 % clients];
        match &event.kind {
            EventKind::Invoke(inv) => client.invoke(event.process, event.object, inv.clone()),
            EventKind::Respond(v) => client.respond(event.process, event.object, v.clone()),
        }
    }
    let closed: Vec<_> = handles.into_iter().map(|c| c.finish()).collect();
    let report = service.finish();
    // Every client must have received each shard's reliable final summary,
    // and those summaries must agree with the server-side report.
    for closed in closed {
        let client_report = closed.collect_verdicts();
        assert_eq!(client_report.protocol_errors, 0);
        let finals = client_report.final_summaries();
        assert_eq!(finals.len(), report.shards.len(), "missing final verdicts");
        for (summary, shard) in finals.iter().zip(&report.shards) {
            assert_eq!(**summary, shard.summary);
        }
    }
    report
}

/// `verdict.is_ok()` of the offline kernel for `condition` on `history`.
fn offline_ok(history: &History, condition: MonitorCondition) -> bool {
    let u = universe();
    match condition {
        MonitorCondition::Linearizability => linearizability::is_linearizable(history, &u),
        MonitorCondition::TLinearizability { t } => {
            t_linearizability::is_t_linearizable(history, &u, t)
        }
        MonitorCondition::WeakConsistency => weak_consistency::violations(history, &u).is_empty(),
        MonitorCondition::StabilizesEventually => kernel::check(
            &eventual::StabilizesEventually,
            history,
            &u,
            SearchLimits::default(),
        )
        .is_yes(),
    }
}

/// The per-shard claim: each shard's verdict equals the offline kernel run
/// on the substream its ingest accepted.  Holds on clean *and* faulted
/// transports — faults change the accepted stream, never the checking.
fn assert_shards_match_offline(report: &ServiceReport, condition: MonitorCondition, seed: u64) {
    let streams = report
        .accepted_streams
        .as_ref()
        .expect("capture_streams was set");
    for (shard, stream) in report.shards.iter().zip(streams) {
        assert_ne!(
            shard.report.verdict,
            MonitorVerdict::Unknown,
            "budgets must not be exhausted at test sizes (seed {seed})"
        );
        let accepted = History::from_events(stream.clone());
        assert_eq!(
            shard.report.verdict.is_ok(),
            offline_ok(&accepted, condition),
            "shard {} verdict diverged from offline (seed {seed}, {condition:?})\n{accepted}",
            shard.summary.shard,
        );
    }
}

/// The full claim for one seed.
fn check_service_all_conditions(seed: u64, clients: usize, max_ops: usize, faulty: bool) {
    let h = random_history(seed, max_ops);
    let plan = faulty.then_some(FaultPlan {
        seed: seed ^ 0xfa17,
        lose: 200,
        duplicate: 200,
        reorder: 200,
    });

    // Linearizability is object-local: any shard count is sound, and on a
    // clean transport the recomposed verdict must be the global one.
    for shards in [1, 2, 4] {
        let report = service_run(
            &h,
            clients,
            shards,
            MonitorCondition::Linearizability,
            seed,
            plan,
        );
        assert_eq!(report.shards.len(), shards, "linearizability shards freely");
        assert_shards_match_offline(&report, MonitorCondition::Linearizability, seed);
        if !faulty {
            assert_eq!(
                report.events(),
                h.len() as u64,
                "clean transport lost events"
            );
            assert_eq!(
                report.verdict.is_ok(),
                offline_ok(&h, MonitorCondition::Linearizability),
                "recomposed service verdict diverged (seed {seed}, {shards} shards)\n{h}"
            );
        }
    }

    // The non-local conditions must collapse to one replica regardless of
    // the requested shard count — and then match offline exactly.
    let non_local = [
        MonitorCondition::TLinearizability { t: 1 },
        MonitorCondition::WeakConsistency,
        MonitorCondition::StabilizesEventually,
    ];
    for condition in non_local {
        let report = service_run(&h, clients, 4, condition, seed, plan);
        assert_eq!(
            report.shards.len(),
            1,
            "{condition:?} is not object-local; the router must not split it"
        );
        assert_shards_match_offline(&report, condition, seed);
        if !faulty {
            assert_eq!(
                report.verdict.is_ok(),
                offline_ok(&h, condition),
                "service verdict diverged (seed {seed}, {condition:?})\n{h}"
            );
        }
    }

    // t = 0 degenerates to linearizability and is therefore local again.
    let report = service_run(
        &h,
        clients,
        2,
        MonitorCondition::TLinearizability { t: 0 },
        seed,
        plan,
    );
    assert_eq!(report.shards.len(), 2);
    assert_shards_match_offline(&report, MonitorCondition::TLinearizability { t: 0 }, seed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn clean_service_matches_offline_for_1_and_3_clients(seed in 0u64..u64::MAX / 2) {
        for clients in [1, 3] {
            check_service_all_conditions(seed, clients, 6, false);
        }
    }

    #[test]
    fn faulty_service_matches_offline_on_the_surviving_streams(seed in 0u64..u64::MAX / 2) {
        for clients in [1, 3] {
            check_service_all_conditions(seed, clients, 6, true);
        }
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
fn extended_clean_service_vs_offline() {
    for seed in 0..extended_cases() / 16 {
        for clients in [1, 3] {
            check_service_all_conditions(seed.wrapping_mul(0x9e37_79b9), clients, 7, false);
        }
    }
}

#[test]
#[ignore = "extended fuzz: run via the nightly CI job or with --ignored"]
fn extended_faulty_service_vs_offline() {
    for seed in 0..extended_cases() / 16 {
        for clients in [1, 3] {
            check_service_all_conditions(seed.wrapping_mul(0x9e37_79b9), clients, 7, true);
        }
    }
}
