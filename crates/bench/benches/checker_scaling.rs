//! E10 bench: checker scalability.
//!
//! * generic kernel (constrained-linearization search) vs history length;
//! * specialized fetch&increment checker vs history length (much larger);
//! * batched sequential vs parallel checking;
//! * the kernel's locality pre-pass vs the whole-history search on
//!   multi-object histories (the algorithmic payoff of the Herlihy–Wing
//!   locality theorem — per-object subproblems are exponentially smaller).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use evlin_bench::histories;
use evlin_checker::kernel::{self, SearchLimits};
use evlin_checker::{fi, linearizability, parallel, Linearizability};
use evlin_history::generator::{concurrentize, random_sequential_legal, WorkloadSpec};
use evlin_history::{History, HistoryBuilder, ObjectUniverse, ProcessId};
use evlin_spec::{FetchIncrement, Register, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_generic(c: &mut Criterion) {
    let mut group = c.benchmark_group("checker/generic_linearizability");
    for &ops in &[8usize, 12, 16, 20] {
        let mut universe = ObjectUniverse::new();
        universe.add_object(Register::new(Value::from(0i64)));
        universe.add_object(FetchIncrement::new());
        let mut rng = StdRng::seed_from_u64(ops as u64);
        let seq = random_sequential_legal(
            &universe,
            &WorkloadSpec {
                processes: 3,
                operations: ops,
            },
            &mut rng,
        );
        let conc = concurrentize(&seq, 3, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(ops), &conc, |b, h| {
            b.iter(|| assert!(linearizability::is_linearizable(h, &universe)));
        });
    }
    group.finish();
}

fn bench_specialized(c: &mut Criterion) {
    let mut group = c.benchmark_group("checker/fi_linearizability");
    for &ops in &[1_000usize, 10_000, 100_000] {
        // Build a linearizable fetch&increment history directly.
        let x = evlin_history::ObjectId(0);
        let mut b = HistoryBuilder::new();
        for k in 0..ops {
            b = b.complete(
                ProcessId(k % 4),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(k as i64),
            );
        }
        let history = b.build();
        group.throughput(Throughput::Elements(ops as u64));
        group.bench_with_input(BenchmarkId::from_parameter(ops), &history, |b, h| {
            b.iter(|| assert_eq!(fi::is_linearizable(h, 0), Ok(true)));
        });
    }
    group.finish();
}

/// Generic kernel on the queue/max-register family: structured (list-valued)
/// object states and non-interchangeable operations, so the hot path is
/// gated on a non-counter object type — neither the fetch&increment fast
/// path nor interchangeability-class merging can carry the search.
fn bench_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("checker/queue_linearizability");
    let universe = histories::queue_universe();
    for &ops in &[8usize, 12, 16, 20] {
        let conc = histories::random_queue_linearizable(&universe, ops, ops as u64);
        group.bench_with_input(BenchmarkId::from_parameter(ops), &conc, |b, h| {
            b.iter(|| assert!(linearizability::is_linearizable(h, &universe)));
        });
    }
    group.finish();
}

/// Sequential vs parallel batched checking of many independent histories:
/// the speedup of `batch_par` over `batch_seq` at equal batch size is the
/// multi-core scaling headroom (≈ the core count on a quiet machine; the
/// worker count is `parallel::available_workers()`).
fn bench_batch(c: &mut Criterion) {
    let mut universe = ObjectUniverse::new();
    universe.add_object(Register::new(Value::from(0i64)));
    universe.add_object(FetchIncrement::new());
    let batch: Vec<History> = (0..64)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let seq = random_sequential_legal(
                &universe,
                &WorkloadSpec {
                    processes: 3,
                    operations: 14,
                },
                &mut rng,
            );
            concurrentize(&seq, 3, &mut rng)
        })
        .collect();
    let mut group = c.benchmark_group("checker/batch");
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.bench_with_input(BenchmarkId::new("seq", batch.len()), &batch, |b, hs| {
        b.iter(|| {
            let verdicts = parallel::check_histories(hs, &universe);
            assert!(verdicts.iter().all(|&ok| ok));
        });
    });
    group.bench_with_input(BenchmarkId::new("par", batch.len()), &batch, |b, hs| {
        b.iter(|| {
            let verdicts = parallel::check_histories_par(hs, &universe);
            assert!(verdicts.iter().all(|&ok| ok));
        });
    });
    group.finish();
}

/// Whole-history kernel search vs the locality pre-pass on the same
/// multi-object histories: `local` splits each history into per-object
/// subproblems (checked in turn and recomposed), `global` feeds the
/// kernel the undecomposed problem.  The `easy` family (random linearizable)
/// bounds the pre-pass overhead; the `hard` family (every projection
/// refuted) shows the product-vs-sum blowup the decomposition removes.
fn bench_locality(c: &mut Criterion) {
    let mut group = c.benchmark_group("checker/locality");
    let limits = SearchLimits::default();
    for &objects in &[2usize, 4] {
        let universe = histories::mixed_universe(objects);
        let conc = histories::random_linearizable(&universe, 5 * objects, objects as u64);
        group.bench_with_input(BenchmarkId::new("easy-global", objects), &conc, |b, h| {
            b.iter(|| assert!(kernel::check(&Linearizability, h, &universe, limits).is_yes()));
        });
        group.bench_with_input(BenchmarkId::new("easy-local", objects), &conc, |b, h| {
            b.iter(
                || assert!(kernel::check_local(&Linearizability, h, &universe, limits).is_yes()),
            );
        });
    }
    for &objects in &[2usize, 3, 4] {
        let (universe, conc) = histories::broken_per_object(objects, 3);
        group.bench_with_input(BenchmarkId::new("hard-global", objects), &conc, |b, h| {
            b.iter(|| assert!(!kernel::check(&Linearizability, h, &universe, limits).is_yes()));
        });
        group.bench_with_input(BenchmarkId::new("hard-local", objects), &conc, |b, h| {
            b.iter(|| {
                assert!(!kernel::check_local(&Linearizability, h, &universe, limits).is_yes())
            });
        });
    }
    group.finish();
}

criterion_group!(
    checker_scaling,
    bench_generic,
    bench_queue,
    bench_specialized,
    bench_batch,
    bench_locality
);
criterion_main!(checker_scaling);
