//! E17 — out-of-core exploration: the visited store under a spill budget and
//! the fingerprint-range partitioner.
//!
//! The engine's deduplication set is the memory ceiling of every exhaustive
//! result in this repository: each visited `(key, depth)` record is 8
//! resident bytes forever.  This experiment runs the 5-process local-copy
//! fetch&increment (the largest E12 symmetric family) under
//! `SleepSetSymmetry` with the visited store's resident budget set *below*
//! the visited-set size, and reports what bounded residency costs:
//! states and verdict-relevant counts must not move at all (the dedup
//! verdict is a set property; the `store_differential` suite fuzzes this),
//! while wall time pays for Bloom-filtered, fence-indexed membership probes
//! into compressed sorted runs.  A second table splits the same exploration
//! across 2 fingerprint-range partitions (`checkpoint::explore_partitioned`)
//! and shows the per-partition stats recomposing the single-run totals
//! exactly — the basis for distributing an exploration across processes.

use crate::Table;
use evlin_sim::checkpoint;
use evlin_sim::engine::{self, EngineOptions, ExploreOptions, ExploreStats, Reduction, Visit};
use evlin_sim::program::LocalSpecImplementation;
use evlin_sim::store::StoreConfig;
use evlin_sim::workload::Workload;
use evlin_spec::FetchIncrement;
use std::sync::Arc;
use std::time::Instant;

fn options(limits: ExploreOptions, store: StoreConfig) -> EngineOptions {
    EngineOptions {
        limits,
        workers: Some(1),
        reduction: Reduction::SleepSetSymmetry,
        dedup: true,
        store,
        ..EngineOptions::default()
    }
}

fn counts(stats: &ExploreStats) -> (usize, usize, usize, bool) {
    (
        stats.visited,
        stats.terminals,
        stats.pruned,
        stats.truncated,
    )
}

/// Runs experiment E17 and returns its tables.
pub fn run(quick: bool) -> Vec<Table> {
    let n = if quick { 4 } else { 5 };
    let implementation = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), n);
    let workload = Workload::uniform(n, FetchIncrement::fetch_inc(), 2);
    let limits = ExploreOptions {
        max_depth: 2 * n,
        max_configs: 10_000_000,
    };
    let explore = |store: StoreConfig| {
        let start = Instant::now();
        let stats = engine::explore(
            &implementation,
            &workload,
            &options(limits, store),
            |_, _| Visit::Continue,
        );
        (stats, start.elapsed())
    };

    let (mem_stats, mem_wall) = explore(StoreConfig::Mem);

    let title = format!(
        "E17 — the visited store, resident and spilling, on the local-copy \
             fetch&inc ({n}p × 2 ops, SleepSetSymmetry, {} states)",
        mem_stats.visited
    );
    let mut stores = Table::new(
        &title,
        &[
            "store",
            "visited",
            "pruned",
            "spill runs",
            "resident B",
            "spilled B",
            "filter B",
            "wall ms",
            "counts == mem",
        ],
    );
    let push = |table: &mut Table, label: String, stats: &ExploreStats, wall_ms: f64| {
        table.push_row([
            label,
            stats.visited.to_string(),
            stats.pruned.to_string(),
            stats.store_runs.to_string(),
            stats.store_bytes.resident.to_string(),
            stats.store_bytes.spilled.to_string(),
            stats.store_bytes.filter.to_string(),
            format!("{wall_ms:.2}"),
            (counts(stats) == counts(&mem_stats)).to_string(),
        ]);
    };
    push(
        &mut stores,
        "mem (unbounded)".to_string(),
        &mem_stats,
        mem_wall.as_secs_f64() * 1e3,
    );
    // Budgets below the visited-set size (8 bytes per state): every full
    // shard is flushed as a sorted run, so the post-insert resident total
    // stays under shards × budget while membership answers stay exact.
    for shard_budget in [2048usize, 512, 256] {
        let store = StoreConfig::Spill {
            shards_log2: 3,
            shard_budget,
        };
        let (stats, wall) = explore(store);
        assert_eq!(
            counts(&stats),
            counts(&mem_stats),
            "a spill budget changed exploration counts"
        );
        assert!(
            stats.store_bytes.resident <= 8 * shard_budget,
            "resident {}B exceeds the 8×{shard_budget}B budget",
            stats.store_bytes.resident
        );
        push(
            &mut stores,
            format!("spill 8×{shard_budget}B"),
            &stats,
            wall.as_secs_f64() * 1e3,
        );
    }

    let mut partitioned = Table::new(
        "E17 — fingerprint-range partitioning (2 partitions, spill 8×512B \
         each): exact recomposition of the single-run totals",
        &[
            "slice",
            "visited",
            "terminals",
            "pruned",
            "spill runs",
            "wall ms",
            "matches single run",
        ],
    );
    let store = StoreConfig::Spill {
        shards_log2: 3,
        shard_budget: 512,
    };
    let (single_stats, single_wall) = explore(store);
    let start = Instant::now();
    let parts = checkpoint::explore_partitioned(
        &implementation,
        &workload,
        &options(limits, store),
        1,
        |_, _| Visit::Continue,
    )
    .expect("partitioned exploration");
    let parts_wall = start.elapsed();
    for (i, stats) in parts.per_partition.iter().enumerate() {
        partitioned.push_row([
            format!("partition {i}"),
            stats.visited.to_string(),
            stats.terminals.to_string(),
            stats.pruned.to_string(),
            stats.store_runs.to_string(),
            "—".to_string(),
            "—".to_string(),
        ]);
    }
    assert_eq!(
        counts(&parts.total),
        counts(&single_stats),
        "partitioned totals must recompose the single run"
    );
    partitioned.push_row([
        format!(
            "total ({} exported edges, {} rounds)",
            parts.exported, parts.rounds
        ),
        parts.total.visited.to_string(),
        parts.total.terminals.to_string(),
        parts.total.pruned.to_string(),
        parts.total.store_runs.to_string(),
        format!("{:.2}", parts_wall.as_secs_f64() * 1e3),
        (counts(&parts.total) == counts(&single_stats)).to_string(),
    ]);
    partitioned.push_row([
        "single run (reference)".to_string(),
        single_stats.visited.to_string(),
        single_stats.terminals.to_string(),
        single_stats.pruned.to_string(),
        single_stats.store_runs.to_string(),
        format!("{:.2}", single_wall.as_secs_f64() * 1e3),
        "—".to_string(),
    ]);

    vec![stores, partitioned]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_budgets_do_not_change_counts_and_partitions_recompose() {
        // The `run` body asserts count equality and budget compliance for
        // every row; reaching the tables is the test.
        let tables = run(true);
        assert_eq!(tables.len(), 2);
        // Every spill row agreed with mem.
        for row in &tables[0].rows {
            assert_ne!(row[8], "false", "store diverged: {row:?}");
        }
        // The recomposition row agreed with the single run.
        let total = &tables[1].rows[tables[1].rows.len() - 2];
        assert_eq!(total[6], "true", "recomposition failed: {total:?}");
    }
}
