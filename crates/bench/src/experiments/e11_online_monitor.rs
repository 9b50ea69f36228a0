//! E11 — online consistency monitoring of real-thread counters.
//!
//! E8 measured the counters and then checked their recorded histories
//! *offline*, which caps the experiment at whatever fits in one post-hoc
//! batch.  This experiment closes the loop the paper's motivation implies:
//! eventual linearizability is a property you observe *while* the contended
//! fetch&increment counter runs.  Every worker thread records into its own
//! frame-batched recorder shard, a k-way merge restores the global sequence
//! order, and the staged monitor (`evlin_checker::monitor::stages`)
//! partitions the stream at quiescent cuts, checks each closed segment
//! (fetch&increment segments take the linear-time `fi` fast path) and
//! garbage-collects verified prefixes — so a million-operation run is
//! checked with a resident event window bounded by the spacing of its
//! quiescent cuts, at a sustained checked-ops/sec rate reported in the table
//! (and tracked by the `monitor_throughput` bench + CI `bench-gate`; E16
//! sweeps the dataflow's producer count and frame size).

use crate::Table;
use evlin_checker::monitor::{MonitorConfig, MonitorVerdict};
use evlin_runtime::counter::{CasCounter, ConcurrentCounter, FetchAddCounter, ShardedCounter};
use evlin_runtime::harness::{run_counter_workload_pipelined, HarnessOptions, PipelineOptions};

fn counters(threads: usize) -> Vec<Box<dyn ConcurrentCounter>> {
    vec![
        Box::new(CasCounter::new()),
        Box::new(FetchAddCounter::new()),
        Box::new(ShardedCounter::new(threads, 64)),
    ]
}

fn verdict_label(verdict: &MonitorVerdict) -> String {
    match verdict {
        MonitorVerdict::Ok => "linearizable".to_string(),
        MonitorVerdict::Violation(v) => format!(
            "violation @ events [{}, {})",
            v.segment_start,
            v.segment_start + v.segment_len
        ),
        MonitorVerdict::Unknown => "unknown".to_string(),
    }
}

/// Runs experiment E11 and returns its tables.
pub fn run(quick: bool) -> Vec<Table> {
    let threads = if quick { 2 } else { 4 };
    let ops_per_thread = if quick { 2_000 } else { 250_000 };
    let mut table = Table::new(
        "E11 — online monitoring of real-thread fetch&increment counters \
         (recorder shards → frame rings → k-way merge → staged quiescent-cut monitor)",
        &[
            "counter",
            "ops",
            "events",
            "verdict",
            "checked ops/s",
            "peak window (events)",
            "window / history",
            "segments",
            "fast-path segments",
        ],
    );
    let config = MonitorConfig {
        // Amortize per-segment setup without growing the window much.
        min_segment_events: 256,
        segment_batch: 8,
        ..MonitorConfig::default()
    };
    for counter in counters(threads) {
        let out = run_counter_workload_pipelined(
            counter.as_ref(),
            HarnessOptions {
                threads,
                ops_per_thread,
                record_history: false,
            },
            config,
            PipelineOptions::default(),
            None,
        );
        let stats = &out.report.stats;
        table.push_row([
            counter.name().to_string(),
            out.run.total_ops.to_string(),
            stats.events.to_string(),
            verdict_label(&out.report.verdict),
            format!("{:.0}", out.checked_ops_per_sec()),
            stats.peak_window_events.to_string(),
            format!(
                "{:.4}",
                stats.peak_window_events as f64 / stats.events.max(1) as f64
            ),
            stats.segments.to_string(),
            stats.fast_path_segments.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linearizable_counters_verify_online_and_nothing_is_unknown() {
        let tables = run(true);
        let rows = &tables[0].rows;
        assert_eq!(rows.len(), 3);
        for row in rows {
            assert_ne!(row[3], "unknown", "{row:?}");
            if row[0].starts_with("cas-loop") || row[0].starts_with("fetch-add") {
                assert_eq!(row[3], "linearizable", "{row:?}");
            }
        }
    }

    #[test]
    fn window_is_bounded_by_cut_spacing_not_history_length() {
        // Real-thread runs have workload-dependent quiescence, so the window
        // bound is asserted on a deterministic synthetic stream: rounds of 4
        // overlapping fetch&inc operations, one quiescent cut per round.
        use evlin_checker::monitor::{Monitor, MonitorConfig};
        use evlin_history::{HistoryBuilder, ObjectUniverse, ProcessId};
        use evlin_spec::{FetchIncrement, Value};
        let x = evlin_history::ObjectId(0);
        let mut b = HistoryBuilder::new();
        let mut value = 0i64;
        for _ in 0..1000 {
            for p in 0..4usize {
                b = b.invoke(ProcessId(p), x, FetchIncrement::fetch_inc());
            }
            for p in 0..4usize {
                b = b.respond(ProcessId(p), x, Value::from(value));
                value += 1;
            }
        }
        let mut universe = ObjectUniverse::new();
        universe.add_object(FetchIncrement::new());
        let mut monitor = Monitor::new(
            universe,
            MonitorConfig {
                min_segment_events: 64,
                segment_batch: 4,
                ..MonitorConfig::default()
            },
        );
        monitor.ingest_all(b.build()).expect("well-formed");
        let report = monitor.finish();
        assert!(report.verdict.is_ok(), "{report:?}");
        assert_eq!(report.stats.events, 8000);
        // Segments close every ~72 events and at most 4 queue before a
        // drain: the peak resident window is a small constant, not 8000.
        assert!(
            report.stats.peak_window_events <= 1024,
            "window must be bounded by cut spacing: {report:?}"
        );
    }
}
