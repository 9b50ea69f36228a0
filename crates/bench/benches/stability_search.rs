//! E7 bench: the cost of the Proposition 18 stable-configuration search and
//! freeze, as a function of the warm-up length of the eventually linearizable
//! fetch&increment implementation.
//!
//! The stability check verdicts each terminal extension history in place with
//! `evlin_checker::fi::is_t_linearizable` (numbers are recorded in
//! `BENCH_checker.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use evlin_algorithms::NoisyPrefixFetchInc;
use evlin_sim::stability::{stable_to_linearizable, StabilityOptions};

fn bench_stability(c: &mut Criterion) {
    let mut group = c.benchmark_group("prop18/stable_to_linearizable");
    group.sample_size(10);
    for &warmup in &[0i64, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(warmup),
            &warmup,
            |b, &warmup| {
                let imp = NoisyPrefixFetchInc::new(2, warmup);
                let options = StabilityOptions {
                    extension_ops_per_process: 2,
                    extension_depth: 24,
                    max_configs: 100_000,
                    solo_step_budget: 10_000,
                    ..StabilityOptions::default()
                };
                b.iter(|| {
                    let freeze =
                        stable_to_linearizable(&imp, 2, warmup.max(1) as usize, 0, &options)
                            .expect("a stable configuration exists");
                    freeze.offset
                });
            },
        );
    }
    group.finish();
}

criterion_group!(stability_search, bench_stability);
criterion_main!(stability_search);
