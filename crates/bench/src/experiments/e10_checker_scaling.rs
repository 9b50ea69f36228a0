//! E10 — checker scalability (methodological experiment).
//!
//! The executable-theory claims of this repository are only as good as the
//! decision procedures backing them.  This experiment measures the generic
//! constrained-linearization search against history length and concurrency,
//! and the specialized fetch&increment checker against much larger histories,
//! and cross-checks that the two agree wherever both are applicable.

use crate::Table;
use evlin_checker::kernel::{self, SearchLimits};
use evlin_checker::{fi, linearizability, parallel, t_linearizability, Linearizability};
use evlin_history::generator::{concurrentize, random_sequential_legal, WorkloadSpec};
use evlin_history::ObjectUniverse;
use evlin_runtime::counter::{CasCounter, ShardedCounter};
use evlin_runtime::harness::{run_counter_workload, HarnessOptions};
use evlin_spec::{FetchIncrement, Register, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Runs experiment E10 and returns its tables.
pub fn run(quick: bool) -> Vec<Table> {
    let mut generic = Table::new(
        "E10 — generic linearizability checker on random linearizable histories",
        &[
            "operations",
            "processes",
            "histories",
            "all accepted",
            "mean check time (µs)",
            "peak arena KiB",
        ],
    );
    let sizes: Vec<usize> = if quick {
        vec![6, 10, 14]
    } else {
        vec![6, 10, 14, 18, 22]
    };
    let histories_per_size = if quick { 5 } else { 20 };
    for &ops in &sizes {
        let mut universe = ObjectUniverse::new();
        universe.add_object(Register::new(Value::from(0i64)));
        universe.add_object(FetchIncrement::new());
        let mut all_ok = true;
        let mut total = std::time::Duration::ZERO;
        let mut peak_arena = 0usize;
        for seed in 0..histories_per_size {
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let seq = random_sequential_legal(
                &universe,
                &WorkloadSpec {
                    processes: 3,
                    operations: ops,
                },
                &mut rng,
            );
            let conc = concurrentize(&seq, 2, &mut rng);
            let start = Instant::now();
            let (result, stats) = evlin_checker::kernel::check_local_with_stats(
                &linearizability::Linearizability,
                &conc,
                &universe,
                evlin_checker::kernel::SearchLimits::default(),
            );
            total += start.elapsed();
            all_ok &= result.is_yes();
            peak_arena = peak_arena.max(stats.arena_bytes);
        }
        generic.push_row([
            ops.to_string(),
            "3".to_string(),
            histories_per_size.to_string(),
            all_ok.to_string(),
            format!(
                "{:.1}",
                total.as_micros() as f64 / histories_per_size as f64
            ),
            format!("{:.1}", peak_arena as f64 / 1024.0),
        ]);
    }

    let mut specialized = Table::new(
        "E10b — specialized fetch&increment checker on recorded multi-threaded histories",
        &[
            "counter",
            "operations",
            "check",
            "verdict / min t",
            "time (ms)",
        ],
    );
    let record_ops = if quick { 1_000 } else { 20_000 };
    {
        let counter = CasCounter::new();
        let run = run_counter_workload(
            &counter,
            HarnessOptions {
                threads: 4,
                ops_per_thread: record_ops,
                record_history: true,
            },
        );
        let history = run.history.expect("recording enabled");
        let start = Instant::now();
        let lin = fi::is_linearizable(&history, 0).unwrap();
        let elapsed = start.elapsed();
        specialized.push_row([
            "cas-loop".to_string(),
            run.total_ops.to_string(),
            "linearizability".to_string(),
            lin.to_string(),
            format!("{:.2}", elapsed.as_secs_f64() * 1e3),
        ]);
    }
    {
        let counter = ShardedCounter::new(4, 64);
        let run = run_counter_workload(
            &counter,
            HarnessOptions {
                threads: 4,
                ops_per_thread: record_ops,
                record_history: true,
            },
        );
        let history = run.history.expect("recording enabled");
        let start = Instant::now();
        let t = fi::min_stabilization(&history, 0).unwrap();
        let elapsed = start.elapsed();
        specialized.push_row([
            "sharded-eventual".to_string(),
            run.total_ops.to_string(),
            "min stabilization".to_string(),
            t.to_string(),
            format!("{:.2}", elapsed.as_secs_f64() * 1e3),
        ]);
    }

    // Agreement between the two checkers on small fetch&increment histories.
    let mut agreement = Table::new(
        "E10c — generic vs specialized checker agreement on small fetch&inc histories",
        &[
            "histories",
            "linearizability agreements",
            "stabilization agreements",
        ],
    );
    {
        let mut universe = ObjectUniverse::new();
        universe.add_object(FetchIncrement::new());
        let count = if quick { 20 } else { 100 };
        let mut lin_agree = 0usize;
        let mut stab_agree = 0usize;
        for seed in 0..count {
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let seq = random_sequential_legal(
                &universe,
                &WorkloadSpec {
                    processes: 2,
                    operations: 6,
                },
                &mut rng,
            );
            let conc = concurrentize(&seq, 2, &mut rng);
            let a = linearizability::is_linearizable(&conc, &universe);
            let b = fi::is_linearizable(&conc, 0).unwrap();
            if a == b {
                lin_agree += 1;
            }
            let ta = t_linearizability::min_stabilization(&conc, &universe, None);
            let tb = fi::min_stabilization(&conc, 0).ok();
            if ta == tb {
                stab_agree += 1;
            }
        }
        agreement.push_row([
            count.to_string(),
            lin_agree.to_string(),
            stab_agree.to_string(),
        ]);
    }

    // Batched checking: one core vs all cores on the same batch.  Identical
    // verdicts are asserted; the speedup column is the point of the table.
    let mut batched = Table::new(
        "E10d — batched linearizability checking, sequential vs all cores",
        &[
            "batch size",
            "ops/history",
            "threads",
            "seq (ms)",
            "par (ms)",
            "speedup",
            "verdicts agree",
        ],
    );
    {
        let mut universe = ObjectUniverse::new();
        universe.add_object(Register::new(Value::from(0i64)));
        universe.add_object(FetchIncrement::new());
        let (batch_size, ops) = if quick { (16, 10) } else { (64, 14) };
        let batch: Vec<evlin_history::History> = (0..batch_size)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed as u64);
                let seq = random_sequential_legal(
                    &universe,
                    &WorkloadSpec {
                        processes: 3,
                        operations: ops,
                    },
                    &mut rng,
                );
                concurrentize(&seq, 3, &mut rng)
            })
            .collect();
        let start = Instant::now();
        let sequential = parallel::check_histories(&batch, &universe);
        let seq_elapsed = start.elapsed();
        let start = Instant::now();
        let parallel_verdicts = parallel::check_histories_par(&batch, &universe);
        let par_elapsed = start.elapsed();
        batched.push_row([
            batch_size.to_string(),
            ops.to_string(),
            parallel::available_workers().to_string(),
            format!("{:.2}", seq_elapsed.as_secs_f64() * 1e3),
            format!("{:.2}", par_elapsed.as_secs_f64() * 1e3),
            format!(
                "{:.2}×",
                seq_elapsed.as_secs_f64() / par_elapsed.as_secs_f64().max(f64::EPSILON)
            ),
            (sequential == parallel_verdicts).to_string(),
        ]);
    }

    // Locality pre-pass: the same multi-object histories checked whole vs
    // decomposed per object.  Two families: "easy" random linearizable
    // histories (a greedy witness exists, so the pre-pass can only add
    // overhead) and "hard" histories whose every projection is refuted (the
    // whole-history search must exhaust the *product* of the per-object
    // subset spaces, the decomposed one only the first object's, where it
    // stops — the algorithmic payoff of the Herlihy–Wing locality theorem).
    let mut locality = Table::new(
        "E10e — kernel locality pre-pass vs whole-history search on multi-object histories",
        &[
            "family",
            "objects",
            "ops/history",
            "histories",
            "global (ms)",
            "local (ms)",
            "speedup",
            "verdicts agree",
        ],
    );
    {
        let limits = SearchLimits::default();
        let mut push_family = |name: &str,
                               objects: usize,
                               universe: &ObjectUniverse,
                               batch: &[evlin_history::History]| {
            let start = Instant::now();
            let global: Vec<bool> = batch
                .iter()
                .map(|h| kernel::check(&Linearizability, h, universe, limits).is_yes())
                .collect();
            let global_elapsed = start.elapsed();
            let start = Instant::now();
            let local: Vec<bool> = batch
                .iter()
                .map(|h| kernel::check_local(&Linearizability, h, universe, limits).is_yes())
                .collect();
            let local_elapsed = start.elapsed();
            locality.push_row([
                name.to_string(),
                objects.to_string(),
                batch.first().map(|h| h.len() / 2).unwrap_or(0).to_string(),
                batch.len().to_string(),
                format!("{:.2}", global_elapsed.as_secs_f64() * 1e3),
                format!("{:.2}", local_elapsed.as_secs_f64() * 1e3),
                format!(
                    "{:.2}x",
                    global_elapsed.as_secs_f64() / local_elapsed.as_secs_f64().max(f64::EPSILON)
                ),
                (global == local).to_string(),
            ]);
        };
        let object_counts: Vec<usize> = if quick { vec![2, 4] } else { vec![2, 4, 6] };
        let histories_per = if quick { 6 } else { 20 };
        for &objects in &object_counts {
            let universe = crate::histories::mixed_universe(objects);
            let batch: Vec<evlin_history::History> = (0..histories_per)
                .map(|seed| {
                    crate::histories::random_linearizable(&universe, 5 * objects, seed as u64)
                })
                .collect();
            push_family("easy (random linearizable)", objects, &universe, &batch);
        }
        let broken_counts: Vec<usize> = if quick { vec![2, 3] } else { vec![2, 3, 4] };
        for &objects in &broken_counts {
            let (universe, history) = crate::histories::broken_per_object(objects, 3);
            push_family(
                "hard (every object refuted)",
                objects,
                &universe,
                &[history],
            );
        }
    }

    // Reduced exploration feeding the batched checker: the engine's
    // sleep-set + symmetry strategies shrink the terminal-history batch the
    // checker has to grind through, with identical batch verdicts — the
    // exploration-side counterpart of the locality decomposition above.
    let mut reduced = Table::new(
        "E10f — reduction engine feeding the batched checker (cas fetch&inc, 2 processes)",
        &[
            "strategy",
            "states visited",
            "distinct terminal histories",
            "check time (ms)",
            "all linearizable",
        ],
    );
    {
        use evlin_algorithms::CasFetchInc;
        use evlin_sim::engine::{self, EngineOptions, ExploreOptions, Reduction};
        use evlin_sim::workload::Workload;

        let mut universe = ObjectUniverse::new();
        universe.add_object(FetchIncrement::new());
        let implementation = CasFetchInc::new(2);
        let ops = if quick { 2 } else { 3 };
        let workload = Workload::uniform(2, FetchIncrement::fetch_inc(), ops);
        let mut verdicts: Vec<bool> = Vec::new();
        for (label, reduction) in [
            ("none", Reduction::None),
            ("sleep-set", Reduction::SleepSet),
            ("sleep-set+symmetry", Reduction::SleepSetSymmetry),
        ] {
            let options = EngineOptions {
                limits: ExploreOptions {
                    max_depth: 6 * ops,
                    max_configs: 4_000_000,
                },
                reduction,
                ..EngineOptions::default()
            };
            let mut batch: Vec<evlin_history::History> = Vec::new();
            let mut seen = std::collections::BTreeSet::new();
            let max_depth = options.limits.max_depth;
            let stats = engine::explore(&implementation, &workload, &options, |c, d| {
                if c.enabled_processes().is_empty() || d >= max_depth {
                    let h = c.history().clone();
                    if seen.insert(format!("{h:?}")) {
                        batch.push(h);
                    }
                }
                evlin_sim::engine::Visit::Continue
            });
            // Truncated explorations are shape-sensitive and must never be
            // compared across strategies.
            assert!(!stats.truncated, "E10f exploration truncated ({label})");
            let start = Instant::now();
            let all_lin = parallel::check_histories_par(&batch, &universe)
                .into_iter()
                .all(|ok| ok);
            let elapsed = start.elapsed();
            verdicts.push(all_lin);
            reduced.push_row([
                label.to_string(),
                stats.visited.to_string(),
                batch.len().to_string(),
                format!("{:.2}", elapsed.as_secs_f64() * 1e3),
                all_lin.to_string(),
            ]);
        }
        assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "reduction changed a batch verdict"
        );
    }

    vec![generic, specialized, agreement, batched, locality, reduced]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkers_accept_linearizable_inputs_and_agree() {
        let tables = run(true);
        for row in &tables[0].rows {
            assert_eq!(
                row[3], "true",
                "generated linearizable histories must be accepted"
            );
        }
        // The CAS counter's recorded history is linearizable.
        assert_eq!(tables[1].rows[0][3], "true");
        // Full agreement between the generic and specialized checkers.
        let row = &tables[2].rows[0];
        assert_eq!(row[1], row[0]);
        assert_eq!(row[2], row[0]);
        // Sequential and parallel batch verdicts agree.
        assert_eq!(tables[3].rows[0][6], "true");
        // Locality decomposition never changes a verdict.
        for row in &tables[4].rows {
            assert_eq!(row[7], "true", "locality verdicts must agree: {row:?}");
        }
        // The reduction engine shrinks the batch without changing verdicts.
        let reduced = &tables[5];
        assert_eq!(reduced.rows.len(), 3);
        for row in &reduced.rows {
            assert_eq!(row[4], "true", "cas fetch&inc stays linearizable: {row:?}");
        }
        let raw: usize = reduced.rows[0][1].parse().unwrap();
        let combined: usize = reduced.rows[2][1].parse().unwrap();
        assert!(combined < raw, "reduction must shrink the exploration");
    }
}
