//! Property test: engine determinism.
//!
//! Same configuration + same reduction strategy ⇒ identical [`ExploreStats`]
//! (visited, terminals, pruned, truncated) across worker counts and across
//! runs.  [`EngineOptions::workers`] is the number of threads that run, so
//! the `workers: Some(4)` cases below really explore on four threads,
//! whatever the machine.

use evlin_algorithms::{CasFetchInc, GossipFetchInc};
use evlin_sim::engine::{self, EngineOptions, ExploreOptions, Reduction, Visit};
use evlin_sim::program::{Implementation, LocalSpecImplementation};
use evlin_sim::workload::Workload;
use evlin_spec::{FetchIncrement, TestAndSet};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

fn subject(family: usize, processes: usize) -> (Box<dyn Implementation>, Workload) {
    match family {
        0 => (
            Box::new(LocalSpecImplementation::new(
                Arc::new(FetchIncrement::new()),
                processes,
            )),
            Workload::uniform(processes, FetchIncrement::fetch_inc(), 2),
        ),
        1 => (
            Box::new(LocalSpecImplementation::new(
                Arc::new(TestAndSet::new()),
                processes,
            )),
            Workload::uniform(processes, TestAndSet::test_and_set(), 2),
        ),
        2 => (
            Box::new(CasFetchInc::new(processes)),
            Workload::uniform(processes, FetchIncrement::fetch_inc(), 1),
        ),
        _ => (
            Box::new(GossipFetchInc::new(processes)),
            Workload::uniform(processes, FetchIncrement::fetch_inc(), 1),
        ),
    }
}

fn reduction(code: usize) -> Reduction {
    match code {
        0 => Reduction::None,
        1 => Reduction::SleepSet,
        2 => Reduction::Symmetry,
        _ => Reduction::SleepSetSymmetry,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn stats_identical_across_workers_and_runs(
        family in 0..4usize,
        processes in 2..4usize,
        code in 0..4usize,
        dedup_code in 0..2usize,
    ) {
        let (implementation, workload) = subject(family, processes);
        let strategy = reduction(code);
        let dedup = dedup_code == 1;
        let base = EngineOptions {
            limits: ExploreOptions {
                max_depth: 14,
                max_configs: 400_000,
            },
            dedup,
            reduction: strategy,
            ..EngineOptions::default()
        };
        let sequential = engine::explore(
            implementation.as_ref(),
            &workload,
            &EngineOptions { workers: Some(1), ..base },
            |_, _| Visit::Continue,
        );
        prop_assert!(!sequential.truncated, "budget too small for {strategy:?}");
        // Across runs: the sequential walk is reproducible.
        let again = engine::explore(
            implementation.as_ref(),
            &workload,
            &EngineOptions { workers: Some(1), ..base },
            |_, _| Visit::Continue,
        );
        prop_assert_eq!(again, sequential);
        // Across worker counts: identical stats.
        let caller = std::thread::current().id();
        for workers in [1usize, 4] {
            for _run in 0..2 {
                let visitors = Mutex::new(HashSet::new());
                let parallel = engine::explore_shared(
                    implementation.as_ref(),
                    &workload,
                    &EngineOptions {
                        workers: Some(workers),
                        ..base
                    },
                    |_, _| {
                        visitors.lock().unwrap().insert(std::thread::current().id());
                        Visit::Continue
                    },
                );
                // The worker count is threads, the caller's included: one
                // worker visits everything on the calling thread.
                let visitors = visitors.into_inner().unwrap();
                prop_assert!(visitors.contains(&caller));
                prop_assert!(
                    visitors.len() <= workers,
                    "{} threads visited with {} workers",
                    visitors.len(),
                    workers
                );
                prop_assert_eq!(
                    parallel,
                    sequential,
                    "family {} / {:?} / dedup {} diverged at {} workers",
                    family,
                    strategy,
                    dedup,
                    workers
                );
            }
        }
    }
}
