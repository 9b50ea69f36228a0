//! Integration tests: one test per claim of the paper, exercised through the
//! public API of the `evlin` facade crate.

use evlin::checker::{eventual, fi, linearizability, t_linearizability, weak_consistency};
use evlin::prelude::*;
use evlin::sim::explorer::{terminal_histories, ExploreOptions};
use evlin::sim::stability::{stable_to_linearizable, StabilityOptions};
use evlin::sim::valency::{bivalence_walk, check_consensus, WalkEnd};
use evlin::spec::trivial;

fn fi_universe() -> (ObjectUniverse, ObjectId) {
    let mut u = ObjectUniverse::new();
    let x = u.add_object(FetchIncrement::new());
    (u, x)
}

/// Lemma 5: `t`-linearizability is monotone in `t`.
#[test]
fn lemma_5_monotonicity() {
    let (u, x) = fi_universe();
    let h = HistoryBuilder::new()
        .complete(
            ProcessId(0),
            x,
            FetchIncrement::fetch_inc(),
            Value::from(0i64),
        )
        .complete(
            ProcessId(1),
            x,
            FetchIncrement::fetch_inc(),
            Value::from(0i64),
        )
        .complete(
            ProcessId(0),
            x,
            FetchIncrement::fetch_inc(),
            Value::from(1i64),
        )
        .build();
    let t0 = t_linearizability::min_stabilization(&h, &u, None).unwrap();
    for t in 0..=h.len() {
        assert_eq!(t_linearizability::is_t_linearizable(&h, &u, t), t >= t0);
    }
}

/// Lemma 6: every prefix of a `t`-linearizable history is `t`-linearizable.
#[test]
fn lemma_6_prefix_closure() {
    let (u, x) = fi_universe();
    let mut b = HistoryBuilder::new();
    for k in 0..5i64 {
        b = b
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(2 * k),
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(2 * k + 1),
            );
    }
    let h = b.build();
    let t = 4;
    assert!(t_linearizability::is_t_linearizable(&h, &u, t));
    for n in 0..h.len() {
        assert!(t_linearizability::is_t_linearizable(&h.prefix(n), &u, t));
    }
}

/// Lemmas 7–9: locality of stabilization and weak consistency for finitely
/// many objects.
#[test]
fn lemmas_7_to_9_locality() {
    let mut u = ObjectUniverse::new();
    let r = u.add_object(Register::new(Value::from(0i64)));
    let x = u.add_object(FetchIncrement::new());
    let h = HistoryBuilder::new()
        .complete(
            ProcessId(0),
            r,
            Register::write(Value::from(1i64)),
            Value::Unit,
        )
        .complete(ProcessId(1), r, Register::read(), Value::from(0i64))
        .complete(
            ProcessId(0),
            x,
            FetchIncrement::fetch_inc(),
            Value::from(0i64),
        )
        .complete(
            ProcessId(1),
            x,
            FetchIncrement::fetch_inc(),
            Value::from(1i64),
        )
        .build();
    // Weak consistency is local (Lemma 8 / Proposition 9).
    assert_eq!(
        weak_consistency::is_weakly_consistent(&h, &u),
        evlin::checker::locality::per_object_reports(&h, &u)
            .iter()
            .all(|r| r.weakly_consistent)
    );
    // The composed per-object stabilization bound really stabilizes the
    // global history (Lemma 7).
    let composed = evlin::checker::locality::composed_stabilization(&h, &u).unwrap();
    assert!(t_linearizability::is_t_linearizable(&h, &u, composed));
}

/// Lemma 10: weak consistency is prefix-closed (the finite part of being a
/// safety property).
#[test]
fn lemma_10_weak_consistency_prefix_closed() {
    let (u, x) = fi_universe();
    let mut b = HistoryBuilder::new();
    for k in 0..4i64 {
        b = b
            .complete(ProcessId(0), x, FetchIncrement::fetch_inc(), Value::from(k))
            .complete(ProcessId(1), x, FetchIncrement::fetch_inc(), Value::from(k));
    }
    let h = b.build();
    assert!(weak_consistency::is_weakly_consistent(&h, &u));
    for n in 0..=h.len() {
        assert!(weak_consistency::is_weakly_consistent(&h.prefix(n), &u));
    }
}

/// Proposition 11: the Figure 1 wrapper adds weak consistency to a
/// liveness-only implementation (smoke version; E9 covers it in detail).
#[test]
fn proposition_11_wrapper() {
    use evlin::algorithms::fig1::Fig1Wrapper;
    use std::sync::Arc;
    let (u, _) = fi_universe();
    let wrapped = Fig1Wrapper::new(CasFetchInc::new(2), Arc::new(FetchIncrement::new()), 2);
    let mut s = RandomScheduler::seeded(11);
    let out = run(
        &wrapped,
        &Workload::uniform(2, FetchIncrement::fetch_inc(), 3),
        &mut s,
        100_000,
    );
    assert!(out.completed_all);
    assert!(weak_consistency::is_weakly_consistent(&out.history, &u));
    assert!(linearizability::is_linearizable(&out.history, &u));
}

/// Theorem 12 / Proposition 14: the local-copy transformation preserves
/// linearizability exactly for trivial types.
#[test]
fn theorem_12_and_proposition_14() {
    use evlin::sim::program::LocalSpecImplementation;
    use std::sync::Arc;

    // Non-trivial type: fetch&increment loses linearizability.
    let (u, _) = fi_universe();
    let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 2);
    let histories = terminal_histories(
        &imp,
        &Workload::uniform(2, FetchIncrement::fetch_inc(), 1),
        ExploreOptions::default(),
    );
    assert!(histories
        .iter()
        .any(|h| !linearizability::is_linearizable(h, &u)));
    assert!(histories
        .iter()
        .all(|h| weak_consistency::is_weakly_consistent(h, &u)));
    assert!(!trivial::analyze(&FetchIncrement::new(), 64).is_trivial());

    // Trivial type: the sticky gate stays linearizable with no communication.
    let gate = trivial::StickyGate::new();
    assert!(trivial::analyze(&gate, 64).is_trivial());
    let mut gate_universe = ObjectUniverse::new();
    gate_universe.add_object(trivial::StickyGate::new());
    let imp = LocalSpecImplementation::new(Arc::new(trivial::StickyGate::new()), 2);
    let histories = terminal_histories(
        &imp,
        &Workload::uniform(2, trivial::StickyGate::knock(), 2),
        ExploreOptions::default(),
    );
    assert!(histories
        .iter()
        .all(|h| linearizability::is_linearizable(h, &gate_universe)));
}

/// Proposition 15: a consensus-power base object lets the bivalence walk end
/// at a critical configuration; exhaustive checks confirm agreement.
#[test]
fn proposition_15_valency() {
    let cas = CasConsensusSim::new(2);
    let proposals = [Value::from(0i64), Value::from(1i64)];
    let check = check_consensus(&cas, &proposals, ExploreOptions::default());
    assert!(check.is_correct());
    let walk = bivalence_walk(&cas, &proposals, 20, 60_000, 16);
    assert_eq!(walk.ended, WalkEnd::CriticalConfiguration);

    // The register-only Prop 16 algorithm is *not* a correct consensus
    // object (it is only eventually linearizable): exhaustive checking finds
    // an agreement violation.
    let registers = Prop16Consensus::new(2);
    let check = check_consensus(&registers, &proposals, ExploreOptions::default());
    assert!(check.agreement_violation.is_some());
}

/// Proposition 16: consensus from registers is wait-free and eventually
/// linearizable under every explored schedule.
#[test]
fn proposition_16_consensus() {
    let mut u = ObjectUniverse::new();
    u.add_object(Consensus::new());
    let imp = Prop16Consensus::new(3);
    let w = Workload::one_shot(vec![
        Consensus::propose(Value::from(1i64)),
        Consensus::propose(Value::from(2i64)),
        Consensus::propose(Value::from(3i64)),
    ]);
    for seed in 0..15u64 {
        let mut s = RandomScheduler::seeded(seed);
        let out = run(&imp, &w, &mut s, 100_000);
        assert!(out.completed_all);
        assert!(eventual::is_eventually_linearizable(&out.history, &u));
    }
}

/// Section 4: the trivial eventually linearizable test&set.
#[test]
fn section_4_test_and_set() {
    let mut u = ObjectUniverse::new();
    u.add_object(TestAndSet::new());
    let imp = TestAndSetEv::new(3);
    let histories = terminal_histories(
        &imp,
        &Workload::uniform(3, TestAndSet::test_and_set(), 1),
        ExploreOptions::default(),
    );
    assert!(!histories.is_empty());
    assert!(histories
        .iter()
        .all(|h| eventual::is_eventually_linearizable(h, &u)));
    assert!(histories
        .iter()
        .any(|h| !linearizability::is_linearizable(h, &u)));
}

/// Lemma 17 + Proposition 18: freezing an eventually linearizable
/// fetch&increment yields a linearizable one.
#[test]
fn proposition_18_freeze() {
    let imp = NoisyPrefixFetchInc::new(2, 3);
    let freeze = stable_to_linearizable(&imp, 2, 3, 0, &StabilityOptions::default())
        .expect("stable configuration exists after the warm-up");
    assert!(freeze.offset >= 1);
    for seed in 0..10u64 {
        let mut s = RandomScheduler::seeded(seed);
        let out = run(
            &freeze.implementation,
            &Workload::uniform(2, FetchIncrement::fetch_inc(), 8),
            &mut s,
            1_000_000,
        );
        assert!(out.completed_all);
        assert_eq!(
            fi::is_linearizable(&out.history, 0),
            Ok(true),
            "seed {seed}"
        );
    }
}

/// Corollary 19: the register-only fetch&increment never stabilizes — its
/// minimal stabilization index keeps up with the history length.
#[test]
fn corollary_19_gossip_never_stabilizes() {
    let imp = GossipFetchInc::new(2);
    let mut last_ratio = 0.0f64;
    for ops in [4usize, 8, 16] {
        let mut s = RoundRobinScheduler::new();
        let out = run(
            &imp,
            &Workload::uniform(2, FetchIncrement::fetch_inc(), ops),
            &mut s,
            1_000_000,
        );
        let t = fi::min_stabilization(&out.history, 0).unwrap();
        let ratio = t as f64 / out.history.len() as f64;
        assert!(
            ratio > 0.4,
            "stabilization must chase the end of the history"
        );
        last_ratio = ratio;
    }
    assert!(last_ratio > 0.4);
}
