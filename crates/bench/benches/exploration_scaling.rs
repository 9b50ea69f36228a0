//! E12 bench: exhaustive-exploration scaling under the reduction engine.
//!
//! Measures the `sim::engine` strategies (none / sleep-set /
//! sleep-set+symmetry) on the two symmetric families of experiment E12, by
//! process count:
//!
//! * the one-step local-copy fetch&increment (symmetry carries the
//!   reduction — the raw tree grows with the multinomial of the schedule,
//!   the reduced one with the partition count); `explore/local/sleepsym/6`
//!   is the 6-process shape, where canonicalization weighs `6!` renamings
//!   per visited state;
//! * the compare&swap fetch&increment (multi-step, one shared object,
//!   commuting read/failed-cas steps); `explore/cas/sleepsym/2x4` is the
//!   deep shape — 2 processes × 4 operations to depth 24, 359 924 states —
//!   that BENCHMARK.json's `explore_deep` workload measures;
//! * the two per-transition stages of that deep walk in isolation
//!   (`explore/stage/{step,shape}/{plain,memo}`): expanding a child and
//!   classifying a pending step through `Config`'s plain entry points and
//!   through the memoized ones the engine calls, along one schedule;
//! * the fault-bounded tree (`explore/faults/k{0,1,2}`): the local-copy
//!   family under `SleepSetSymmetry` with a transient-fault budget.  The
//!   `k0` entry is gated at ±5% (per-entry tolerance in BENCH_checker.json):
//!   a zero budget must keep the fault machinery out of the hot path.
//!
//! The `explore/…` means recorded in BENCH_checker.json's `gate` object are
//! enforced by CI's bench-gate job: a regression here means the engine (or a
//! strategy) got slower.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use evlin_algorithms::CasFetchInc;
use evlin_history::ProcessId;
use evlin_sim::checkpoint;
use evlin_sim::config::{Config, StepMemo};
use evlin_sim::engine::{self, EngineOptions, ExploreOptions, Reduction, Visit};
use evlin_sim::program::{Implementation, LocalSpecImplementation};
use evlin_sim::store::StoreConfig;
use evlin_sim::workload::Workload;
use evlin_spec::FetchIncrement;
use std::sync::Arc;

fn explore_once(
    implementation: &dyn Implementation,
    workload: &Workload,
    limits: ExploreOptions,
    reduction: Reduction,
) -> usize {
    explore_faulty(implementation, workload, limits, reduction, 0)
}

fn explore_faulty(
    implementation: &dyn Implementation,
    workload: &Workload,
    limits: ExploreOptions,
    reduction: Reduction,
    fault_budget: usize,
) -> usize {
    let stats = engine::explore(
        implementation,
        workload,
        &EngineOptions {
            limits,
            workers: Some(1),
            reduction,
            fault_budget,
            ..EngineOptions::default()
        },
        |_, _| Visit::Continue,
    );
    assert!(!stats.truncated);
    stats.visited
}

const STRATEGIES: [(&str, Reduction); 3] = [
    ("none", Reduction::None),
    ("sleep", Reduction::SleepSet),
    ("sleepsym", Reduction::SleepSetSymmetry),
];

/// Local-copy fetch&increment, 2 ops per process, by process count.
fn bench_local_copy(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore/local");
    for &n in &[3usize, 4, 6] {
        let implementation = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), n);
        let workload = Workload::uniform(n, FetchIncrement::fetch_inc(), 2);
        let limits = ExploreOptions {
            max_depth: 2 * n,
            max_configs: 4_000_000,
        };
        for (label, reduction) in STRATEGIES {
            // 6 processes (720 renamings per state, the largest group the
            // reduction takes) only under the combined strategy: the raw
            // tree has 12!/2⁶ ≈ 7.5 M schedules.
            if n == 6 && reduction != Reduction::SleepSetSymmetry {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| explore_once(&implementation, &workload, limits, reduction));
            });
        }
    }
    group.finish();
}

/// Compare&swap fetch&increment, one op per process, by process count.
fn bench_cas(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore/cas");
    group.sample_size(10);
    for &n in &[2usize, 3] {
        let implementation = CasFetchInc::new(n);
        let workload = Workload::uniform(n, FetchIncrement::fetch_inc(), 1);
        let limits = ExploreOptions {
            max_depth: 4 + 4 * n,
            max_configs: 4_000_000,
        };
        for (label, reduction) in STRATEGIES {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| explore_once(&implementation, &workload, limits, reduction));
            });
        }
    }
    let (implementation, workload, limits) = deep_cas();
    group.bench_function(BenchmarkId::new("sleepsym", "2x4"), |b| {
        b.iter(|| {
            explore_once(
                &implementation,
                &workload,
                limits,
                Reduction::SleepSetSymmetry,
            )
        });
    });
    group.finish();
}

/// The deep compare&swap tree: 2 processes × 4 operations cut at depth 24.
fn deep_cas() -> (CasFetchInc, Workload, ExploreOptions) {
    (
        CasFetchInc::new(2),
        Workload::uniform(2, FetchIncrement::fetch_inc(), 4),
        ExploreOptions {
            max_depth: 24,
            max_configs: 4_000_000,
        },
    )
}

/// The two per-transition stages of the deep compare&swap walk, along the
/// round-robin schedule from its root to quiescence, with the fingerprint
/// tracking a `SleepSetSymmetry` walk switches on.  `step/*` is clone + step
/// — what expanding one child costs the engine — and `shape/*` classifies
/// the pending step of every process at every configuration of the
/// schedule.  `plain` is `Config::step` / `Config::peek_step_shape`; `memo`
/// is the pair the engine calls, over a memo in which every pending step of
/// the schedule has been taken once.
fn bench_stages(c: &mut Criterion) {
    let (implementation, workload, _) = deep_cas();
    let mut config = Config::initial(&implementation, &workload);
    config.set_fingerprint_tracking(true, true);
    let mut schedule: Vec<(Config, ProcessId)> = Vec::new();
    while !config.is_quiescent() {
        let enabled = config.enabled_processes();
        let p = enabled[schedule.len() % enabled.len()];
        schedule.push((config.clone(), p));
        config.step(p);
    }
    let processes: Vec<ProcessId> = (0..workload.processes()).map(ProcessId).collect();
    let mut memo = StepMemo::default();
    for (config, _) in &schedule {
        for &q in &processes {
            config.clone().step_memoized(q, &mut memo);
        }
    }

    let mut group = c.benchmark_group("explore/stage");
    group.throughput(Throughput::Elements(schedule.len() as u64));
    group.bench_function("step/plain", |b| {
        b.iter(|| {
            for (config, p) in &schedule {
                black_box(config.clone().step(*p));
            }
        });
    });
    group.bench_function("step/memo", |b| {
        b.iter(|| {
            for (config, p) in &schedule {
                black_box(config.clone().step_memoized(*p, &mut memo));
            }
        });
    });
    group.throughput(Throughput::Elements(
        (schedule.len() * processes.len()) as u64,
    ));
    group.bench_function("shape/plain", |b| {
        b.iter(|| {
            for (config, _) in &schedule {
                for &q in &processes {
                    black_box(config.peek_step_shape(q));
                }
            }
        });
    });
    group.bench_function("shape/memo", |b| {
        b.iter(|| {
            for (config, _) in &schedule {
                for &q in &processes {
                    black_box(config.peek_step_shape_memoized(q, &memo));
                }
            }
        });
    });
    group.finish();
}

/// Local-copy fetch&increment, 3 processes × 2 ops, by transient-fault
/// budget under the combined strategy (the E15 configuration).  `k0` is the
/// ≤5%-overhead gate: with a zero budget the engine must not pay for the
/// fault layer at all.
fn bench_faults(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore/faults");
    let n = 3usize;
    let implementation = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), n);
    let workload = Workload::uniform(n, FetchIncrement::fetch_inc(), 2);
    for k in [0usize, 1, 2] {
        let limits = ExploreOptions {
            max_depth: 2 * n + k,
            max_configs: 4_000_000,
        };
        group.bench_with_input(
            BenchmarkId::new(format!("k{k}"), n),
            &k,
            |b, &fault_budget| {
                b.iter(|| {
                    explore_faulty(
                        &implementation,
                        &workload,
                        limits,
                        Reduction::SleepSetSymmetry,
                        fault_budget,
                    )
                });
            },
        );
    }
    group.finish();
}

/// The visited store beyond the resident walk, on the 4-process local-copy
/// SleepSetSymmetry tree (the `explore/local/sleepsym/4` configuration with
/// deduplication explicit — that row *is* the resident store's).  `spill`
/// prices the out-of-core path (every iteration builds a fresh temp-dir
/// store, flushes runs and probes them, then deletes the directory on
/// drop); `partitioned` prices the fingerprint-range partitioner (2
/// partitions, resident stores, cross-partition edges exported and
/// replayed).
fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore/store");
    let n = 4usize;
    let implementation = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), n);
    let workload = Workload::uniform(n, FetchIncrement::fetch_inc(), 2);
    let limits = ExploreOptions {
        max_depth: 2 * n,
        max_configs: 4_000_000,
    };
    let options = |store: StoreConfig| EngineOptions {
        limits,
        workers: Some(1),
        reduction: Reduction::SleepSetSymmetry,
        dedup: true,
        store,
        ..EngineOptions::default()
    };
    let spill = StoreConfig::Spill {
        shards_log2: 3,
        shard_budget: 512,
    };
    group.bench_with_input(BenchmarkId::new("spill", n), &n, |b, _| {
        b.iter(|| {
            let stats = engine::explore(&implementation, &workload, &options(spill), |_, _| {
                Visit::Continue
            });
            assert!(!stats.truncated);
            stats.visited
        });
    });
    group.bench_with_input(BenchmarkId::new("partitioned", n), &n, |b, _| {
        b.iter(|| {
            let run = checkpoint::explore_partitioned(
                &implementation,
                &workload,
                &options(StoreConfig::Mem),
                1,
                |_, _| Visit::Continue,
            )
            .expect("partitioned exploration");
            run.total.visited
        });
    });
    group.finish();
}

criterion_group!(
    exploration_scaling,
    bench_local_copy,
    bench_cas,
    bench_stages,
    bench_faults,
    bench_store
);
criterion_main!(exploration_scaling);
