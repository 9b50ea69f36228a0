//! Differential test for the explorer's transition memo: twin configurations
//! walk the same random schedule, one through the plain [`Config::step`] /
//! [`Config::peek_step_shape`], the other through
//! [`Config::step_memoized`] / [`Config::peek_step_shape_memoized`] with one
//! [`StepMemo`] that stays warm across schedules.  Every step must return
//! the same outcome, every pending step must classify the same, and the
//! memoized twin's maintained fingerprint must equal both the plain twin's
//! and a from-scratch rehash — after process steps, transient faults and
//! (where the subject is process-symmetric) physical renamings alike.
//!
//! The subjects are every implementation in `evlin-algorithms` — the
//! Figure 1 wrapper brings `AnnounceLog`, the base object whose responses
//! and state depend on the process id that invokes it — plus the simulator's
//! own local-copy implementation.  (This lives here rather than among
//! `config.rs`'s unit tests because `evlin-algorithms` implements the
//! *library's* `Implementation` trait, which a unit-test build of the crate
//! cannot name.)

use evlin_algorithms::{
    CasConsensusSim, CasFetchInc, Fig1Wrapper, GossipFetchInc, LocalCopy, NoisyPrefixFetchInc,
    Prop16Consensus, TestAndSetEv, UniversalConstruction,
};
use evlin_history::ProcessId;
use evlin_sim::config::{Config, StepMemo};
use evlin_sim::engine::{self, SymmetryReduction};
use evlin_sim::program::{Implementation, LocalSpecImplementation};
use evlin_sim::workload::Workload;
use evlin_spec::{Consensus, FetchIncrement, ObjectType, TestAndSet, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const FAMILIES: usize = 10;

fn subject(family: usize, n: usize) -> (Box<dyn Implementation>, Workload) {
    let fi: Arc<dyn ObjectType> = Arc::new(FetchIncrement::new());
    let counter = |ops| Workload::uniform(n, FetchIncrement::fetch_inc(), ops);
    let proposals = Workload::one_shot(
        (0..n)
            .map(|i| Consensus::propose(Value::from(i as i64)))
            .collect(),
    );
    match family {
        0 => (Box::new(LocalSpecImplementation::new(fi, n)), counter(3)),
        1 => (Box::new(CasFetchInc::new(n)), counter(3)),
        2 => (Box::new(GossipFetchInc::new(n)), counter(2)),
        3 => (Box::new(NoisyPrefixFetchInc::new(n, 2)), counter(3)),
        4 => (Box::new(CasConsensusSim::new(n)), proposals),
        5 => (Box::new(Prop16Consensus::new(n)), proposals),
        6 => (
            Box::new(TestAndSetEv::new(n)),
            Workload::uniform(n, TestAndSet::test_and_set(), 2),
        ),
        7 => (Box::new(UniversalConstruction::new(fi, n, 16)), counter(2)),
        8 => (
            Box::new(Fig1Wrapper::new(CasFetchInc::new(n), fi, n)),
            counter(2),
        ),
        _ => (Box::new(LocalCopy::new(CasFetchInc::new(n))), counter(3)),
    }
}

/// Walks one random schedule on both twins and compares them after every
/// move.  Returns how many process steps it took.
fn walk_twins(
    implementation: &dyn Implementation,
    workload: &Workload,
    fault_budget: usize,
    tracked: bool,
    memo: &mut StepMemo,
    rng: &mut StdRng,
) -> usize {
    let n = workload.processes();
    let mut plain = Config::initial(implementation, workload);
    let symmetric =
        SymmetryReduction::detect(&plain, implementation.process_symmetric_hint()).is_applicable();
    plain.set_fingerprint_tracking(tracked, symmetric);
    plain.set_fault_budget(fault_budget);
    let mut memoized = plain.clone();
    let perms = engine::permutations(n);
    let mut steps = 0;
    for _ in 0..400 {
        for p in (0..n).map(ProcessId) {
            assert_eq!(
                memoized.peek_step_shape_memoized(p, memo),
                plain.peek_step_shape(p),
                "{}: pending step of {p:?} after {steps} steps",
                implementation.name()
            );
        }
        let enabled = plain.enabled_processes();
        if enabled.is_empty() {
            break;
        }
        let mut faults = Vec::new();
        plain.for_each_fault(|f| faults.push(f));
        match rng.gen_range(0..12u32) {
            0 if !faults.is_empty() => {
                let fault = faults[rng.gen_range(0..faults.len())];
                assert!(plain.apply_fault(&fault) && memoized.apply_fault(&fault));
            }
            1 if symmetric => {
                let perm = &perms[rng.gen_range(0..perms.len())];
                plain.apply_permutation(perm);
                memoized.apply_permutation(perm);
            }
            _ => {
                let p = enabled[rng.gen_range(0..enabled.len())];
                assert_eq!(
                    memoized.step_memoized(p, memo),
                    plain.step(p),
                    "{}: step {steps} by {p:?}",
                    implementation.name()
                );
                steps += 1;
            }
        }
        assert_eq!(memoized.fingerprint(), plain.fingerprint());
        assert!(memoized.fingerprint_consistent());
        assert_eq!(memoized.history(), plain.history());
        assert_eq!(memoized.base_states(), plain.base_states());
    }
    steps
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 80 })]

    #[test]
    fn memoized_twin_matches_the_plain_twin(
        family in 0..FAMILIES,
        processes in 2..4usize,
        fault_budget in 0..3usize,
        // One walk in four keeps no fingerprint: no content hashes to key
        // on, so the memoized entry points must simply be the plain ones.
        tracking in 0..4usize,
        seed in any::<u64>(),
    ) {
        let (implementation, workload) = subject(family, processes);
        // The programmes of the register consensus and of the universal
        // construction assert invariants that a corrupted register breaks
        // (they panic on the plain path just the same): no faults for them.
        let fault_budget = if matches!(family, 5 | 7) { 0 } else { fault_budget };
        let mut rng = StdRng::seed_from_u64(seed);
        // One memo across schedules, as one walker keeps one across a whole
        // exploration: the later schedules run mostly on hits.
        let mut memo = StepMemo::default();
        let mut steps = 0;
        for _ in 0..6 {
            steps += walk_twins(
                implementation.as_ref(),
                &workload,
                fault_budget,
                tracking > 0,
                &mut memo,
                &mut rng,
            );
        }
        prop_assert!(steps > 0);
    }
}
