//! E7 — Lemma 17 / Proposition 18: turning an eventually linearizable
//! fetch&increment into a linearizable one.
//!
//! The stable-configuration search and freeze of `evlin-sim::stability` is
//! applied to fetch&increment implementations whose executions stabilize
//! after a warm-up; the frozen implementation `A′` is then model-checked
//! (bounded exhaustive exploration + random long runs) to confirm it is
//! linearizable, and the offset `v0` is reported.  The register-only gossip
//! implementation, by contrast, never yields a certifiably stable
//! configuration — consistent with Corollary 19.

use crate::Table;
use evlin_algorithms::{CasFetchInc, GossipFetchInc, NoisyPrefixFetchInc};
use evlin_checker::{fi, parallel};
use evlin_sim::explorer::{terminal_histories, ExploreOptions};
use evlin_sim::prelude::*;
use evlin_sim::program::Implementation;
use evlin_sim::stability::{stable_to_linearizable, StabilityOptions};
use evlin_spec::FetchIncrement;

fn verify_frozen(implementation: &dyn Implementation, quick: bool) -> (bool, usize) {
    // Bounded exhaustive exploration of small workloads…
    let explore = ExploreOptions {
        max_depth: if quick { 20 } else { 28 },
        max_configs: if quick { 60_000 } else { 300_000 },
    };
    let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 2);
    let histories = terminal_histories(implementation, &w, explore);
    let mut checked = histories.len();
    // Batched, multi-core verdict over all terminal interleavings.
    let mut all_linearizable = parallel::fi_all_t_linearizable_par(&histories, 0, 0);
    // …plus longer random runs.
    let long_ops = if quick { 10 } else { 50 };
    for seed in 0..if quick { 5 } else { 20 } {
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), long_ops);
        let mut s = RandomScheduler::seeded(seed);
        let out = evlin_sim::runner::run(implementation, &w, &mut s, 1_000_000);
        checked += 1;
        all_linearizable &= out.completed_all && fi::is_linearizable(&out.history, 0) == Ok(true);
    }
    (all_linearizable, checked)
}

/// Runs experiment E7 and returns its tables.
pub fn run(quick: bool) -> Vec<Table> {
    let options = StabilityOptions {
        extension_ops_per_process: 2,
        extension_depth: if quick { 24 } else { 32 },
        max_configs: if quick { 80_000 } else { 400_000 },
        solo_step_budget: 10_000,
        // Sleep sets shrink the extension trees without touching verdicts —
        // the compare&swap protocol's read steps commute across processes.
        reduction: Reduction::SleepSet,
        fault_budget: 0,
    };

    let mut table = Table::new(
        "E7 — Proposition 18: stable-configuration search and freeze (2 processes)",
        &[
            "implementation",
            "stable configuration found",
            "stabilization index |αC|",
            "offset v0",
            "frozen impl linearizable (all checks)",
            "histories/runs checked",
        ],
    );

    let warmups: Vec<i64> = if quick { vec![0, 3] } else { vec![0, 2, 4, 8] };
    for &warmup in &warmups {
        let imp = NoisyPrefixFetchInc::new(2, warmup);
        match stable_to_linearizable(&imp, 2, (warmup.max(1)) as usize, 0, &options) {
            Some(freeze) => {
                let (ok, checked) = verify_frozen(&freeze.implementation, quick);
                table.push_row([
                    format!("noisy-prefix (warm-up {warmup})"),
                    "true".to_string(),
                    freeze.stabilization_index.to_string(),
                    freeze.offset.to_string(),
                    ok.to_string(),
                    checked.to_string(),
                ]);
            }
            None => table.push_row([
                format!("noisy-prefix (warm-up {warmup})"),
                "false".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "0".to_string(),
            ]),
        }
    }
    {
        let imp = CasFetchInc::new(2);
        match stable_to_linearizable(&imp, 2, 1, 0, &options) {
            Some(freeze) => {
                let (ok, checked) = verify_frozen(&freeze.implementation, quick);
                table.push_row([
                    "cas loop (already linearizable)".to_string(),
                    "true".to_string(),
                    freeze.stabilization_index.to_string(),
                    freeze.offset.to_string(),
                    ok.to_string(),
                    checked.to_string(),
                ]);
            }
            None => table.push_row([
                "cas loop (already linearizable)".to_string(),
                "false".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "0".to_string(),
            ]),
        }
    }
    {
        // Corollary 19 contrast: no stable configuration exists for the
        // register-only gossip implementation.
        let imp = GossipFetchInc::new(2);
        let found = stable_to_linearizable(&imp, 2, 2, 0, &options).is_some();
        table.push_row([
            "gossip (registers only)".to_string(),
            found.to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "0".to_string(),
        ]);
    }

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freezing_works_for_stabilizing_implementations_only() {
        let tables = run(true);
        let rows = &tables[0].rows;
        // Noisy-prefix and CAS rows: stable configuration found and the
        // frozen implementation verified linearizable.
        for row in rows.iter().take(rows.len() - 1) {
            assert_eq!(row[1], "true", "stable configuration expected: {row:?}");
            assert_eq!(
                row[4], "true",
                "frozen implementation must be linearizable: {row:?}"
            );
        }
        // The gossip implementation never certifies a stable configuration.
        let last = rows.last().unwrap();
        assert_eq!(last[1], "false");
    }

    #[test]
    fn the_stability_search_bench_inputs_freeze_where_they_always_did() {
        // The `stability_search` bench's implementations and bounds.
        let options = StabilityOptions {
            extension_ops_per_process: 2,
            extension_depth: 24,
            max_configs: 100_000,
            solo_step_budget: 10_000,
            ..StabilityOptions::default()
        };
        for (warmup, index, offset) in [(0, 4, 3), (2, 8, 5), (4, 16, 9)] {
            let imp = NoisyPrefixFetchInc::new(2, warmup);
            let ops = warmup.max(1) as usize;
            let freeze = stable_to_linearizable(&imp, 2, ops, 0, &options)
                .expect("a stable configuration exists");
            assert_eq!((freeze.stabilization_index, freeze.offset), (index, offset));
        }
    }
}
