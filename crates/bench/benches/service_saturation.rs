//! E14 bench: checked throughput of the sharded monitoring service.
//!
//! Reuses the E14 driver (`e14_service_saturation::run_service_saturation`):
//! four producer clients stream a 1024-object fetch&add workload over the
//! in-process transport into a replica pool of 1 or 4 shards.  Elements =
//! completed operations, so the printed rate is checked-ops/s — directly
//! comparable with `monitor/live` and `monitor/pipelined`.  A monitor's
//! check work per event does not depend on how many objects it is
//! responsible for, so 1 and 4 shards do the same total work and differ only
//! by how much of it runs in parallel (see the module docs of
//! `e14_service_saturation`); `monitor/wide/*` in `monitor_throughput` gates
//! the single-monitor half of that statement.
//!
//! The CI `bench-gate` job compares both means against the baselines in
//! BENCH_checker.json (threaded-bench tolerance).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use evlin_bench::experiments::e14_service_saturation::run_service_saturation;

fn bench_saturation(c: &mut Criterion) {
    let mut group = c.benchmark_group("service/saturation");
    let clients = 4usize;
    let objects = 1024usize;
    let total_ops = 40_000usize;
    for &shards in &[1usize, 4] {
        group.throughput(Throughput::Elements(total_ops as u64));
        group.sample_size(10);
        group.bench_with_input(
            BenchmarkId::new(format!("s{shards}"), total_ops),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let run = run_service_saturation(clients, objects, total_ops, shards, None);
                    assert!(run.report.verdict.is_ok());
                    assert_eq!(run.report.checked_ops(), total_ops as u64);
                    run.report
                });
            },
        );
    }
    group.finish();
}

criterion_group!(service_saturation, bench_saturation);
criterion_main!(service_saturation);
