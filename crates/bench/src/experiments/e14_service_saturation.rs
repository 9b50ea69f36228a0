//! E14 — service saturation: checked throughput of the client/replica
//! monitoring service as the replica pool grows.
//!
//! Four producer clients stream a many-object fetch&add workload through the
//! in-process service transport to 1/2/4/8 monitor replicas.  Linearizability
//! is object-local (Herlihy & Wing), so the shard router splits the
//! 1024-object stream by object and the per-shard verdicts recompose exactly
//! (the differential suite in `crates/service/tests/` proves equality with
//! the offline kernel).
//!
//! **What the replicas buy.**  A monitor's check stage groups each
//! segment's events by object in one pass, so its work per event does not
//! depend on how many objects a segment spans, and the same projections get
//! decided however the stream is split: sharding divides the check work
//! among `M` replicas without reducing it.  What `M` replicas can buy is
//! therefore parallelism — `M` ingest ∥ check pipelines running side by
//! side — and only on a machine with cores left over once the producer
//! clients are running; on a small box the row-to-row differences below are
//! scheduling, not algorithm.  (Until the check stage was made linear it
//! re-read every segment once per object present, and this experiment
//! reported 2.7× at 4 replicas *on one core*: that was the quadratic pass
//! being divided by `M`, not locality paying off.)  `min_segment_events`
//! keeps segments spanning every object, the worst case for a monitor whose
//! cost depended on that.
//!
//! The frame-faulted rows run every client→replica link behind the seeded
//! frame-level fault injector (loss, duplication, reordering at ~6% each).
//! Faults surface as frame-sequence gaps and shutdown audit mismatches at
//! the wire layer and as rejected events at ingest; the verdict then applies
//! to the surviving stream, which for a lossy fetch&add history is typically
//! a violation (a lost response punches a hole in the counter sequence) —
//! detecting exactly that is the service's fault-tolerance contract.  A
//! violation freezes the shard's decided-operation counter (further batches
//! are discarded unchecked), so faulted rows report checked ops/s at or
//! near zero by design; their events/s column still shows wire throughput.

use crate::Table;
use evlin_checker::monitor::{MonitorCondition, MonitorConfig, MonitorVerdict};
use evlin_history::{ObjectId, ObjectUniverse, ProcessId};
use evlin_runtime::FaultPlan;
use evlin_service::{MonitorService, ServiceConfig, ServiceReport};
use evlin_spec::{FetchIncrement, Value};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one saturation run produced (driver shared with the
/// `service_saturation` criterion bench).
pub struct SaturationRun {
    /// The service report.
    pub report: ServiceReport,
    /// Wall time from first record to the joined service report.
    pub elapsed: Duration,
    /// Operations the clients recorded.
    pub total_ops: usize,
}

impl SaturationRun {
    /// Completed operations decided per wall-clock second.
    pub fn checked_ops_per_sec(&self) -> f64 {
        self.report.checked_ops() as f64 / self.elapsed.as_secs_f64().max(f64::EPSILON)
    }

    /// Events checked per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.report.events() as f64 / self.elapsed.as_secs_f64().max(f64::EPSILON)
    }
}

/// Streams `total_ops` fetch&add operations from `clients` producer threads
/// over `objects` counter objects into a service with `shards` requested
/// replicas, and waits for the full verdict.
///
/// Responses report a per-object atomic's true fetch-add values, so the
/// recorded history is linearizable by construction; under a fault plan the
/// *surviving* stream usually is not, which is the point of those rows.
pub fn run_service_saturation(
    clients: usize,
    objects: usize,
    total_ops: usize,
    shards: usize,
    fault: Option<FaultPlan>,
) -> SaturationRun {
    let mut universe = ObjectUniverse::new();
    for _ in 0..objects {
        universe.add_object(FetchIncrement::new());
    }
    let config = ServiceConfig {
        shards,
        monitor: MonitorConfig {
            condition: MonitorCondition::Linearizability,
            // Multi-object segments: every segment spans all the objects a
            // replica is responsible for.
            min_segment_events: 4096,
            segment_batch: 8,
            ..MonitorConfig::default()
        },
        frame_capacity: 256,
        fault,
        ..ServiceConfig::default()
    };
    let ops_per_client = total_ops / clients;
    let start = Instant::now();
    let (handles, service) = MonitorService::in_process(&universe, clients, config);
    let seq_ground_truth: Arc<Vec<AtomicI64>> =
        Arc::new((0..objects).map(|_| AtomicI64::new(0)).collect());
    let producers: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(c, mut client)| {
            let counters = Arc::clone(&seq_ground_truth);
            std::thread::spawn(move || {
                let process = ProcessId(c);
                for i in 0..ops_per_client {
                    let object = ObjectId((c + i) % counters.len());
                    client.invoke(process, object, FetchIncrement::fetch_inc());
                    let old = counters[object.0].fetch_add(1, Ordering::SeqCst);
                    client.respond(process, object, Value::Int(old));
                }
                client.finish()
            })
        })
        .collect();
    let closed: Vec<_> = producers
        .into_iter()
        .map(|p| p.join().expect("producer thread"))
        .collect();
    let report = service.finish();
    let elapsed = start.elapsed();
    drop(closed); // verdict plane drained by drop; rounds are in the report
    SaturationRun {
        report,
        elapsed,
        total_ops: ops_per_client * clients,
    }
}

fn verdict_label(verdict: &MonitorVerdict) -> &'static str {
    match verdict {
        MonitorVerdict::Ok => "linearizable",
        MonitorVerdict::Violation(_) => "violation",
        MonitorVerdict::Unknown => "unknown",
    }
}

/// Runs experiment E14 and returns its tables.
pub fn run(quick: bool) -> Vec<Table> {
    let total_ops = if quick { 4_000 } else { 120_000 };
    let objects = if quick { 16 } else { 1024 };
    let shard_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let clients = 4;
    let mut table = Table::new(
        "E14 — service saturation: checked ops/s by replica shard count \
         (4 clients, fetch&add counters over 4096-event segments, in-process \
         transport; a monitor's work per event is independent of the shard \
         count, so any scaling is parallelism across replicas)",
        &[
            "transport",
            "shards",
            "objects",
            "ops",
            "verdict",
            "checked ops/s",
            "events/s",
            "verdict rounds",
            "frame gaps",
            "rejected events",
            "vs 1 shard",
        ],
    );
    for faulty in [false, true] {
        let plan = faulty.then_some(FaultPlan {
            seed: 0xe14,
            lose: 64,
            duplicate: 64,
            reorder: 64,
        });
        let mut base_rate = None;
        for &shards in shard_counts {
            let run = run_service_saturation(clients, objects, total_ops, shards, plan);
            let rate = run.checked_ops_per_sec();
            let base = *base_rate.get_or_insert(rate);
            let gaps: u64 = run.report.connections.iter().map(|c| c.frame_gaps).sum();
            let rejected: u64 = run.report.shards.iter().map(|s| s.rejected_events).sum();
            table.push_row([
                if faulty { "frame-faulted" } else { "clean" }.to_string(),
                run.report.shards.len().to_string(),
                objects.to_string(),
                run.total_ops.to_string(),
                verdict_label(&run.report.verdict).to_string(),
                format!("{rate:.0}"),
                format!("{:.0}", run.events_per_sec()),
                run.report
                    .shards
                    .iter()
                    .map(|s| s.rounds)
                    .sum::<u64>()
                    .to_string(),
                gaps.to_string(),
                rejected.to_string(),
                format!("{:.2}x", rate / base.max(f64::EPSILON)),
            ]);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_rows_verify_and_faulted_rows_account_for_losses() {
        let tables = run(true);
        let rows = &tables[0].rows;
        assert_eq!(rows.len(), 2 * 2); // 2 transports × 2 shard counts
        for row in rows {
            assert_eq!(row[3], "4000", "{row:?}");
        }
        for row in &rows[..2] {
            assert_eq!(row[0], "clean");
            assert_eq!(row[4], "linearizable", "{row:?}");
            assert_eq!(row[8], "0", "clean transport must show no gaps: {row:?}");
            assert_eq!(row[9], "0", "clean transport must reject nothing: {row:?}");
        }
        for row in &rows[2..] {
            assert_eq!(row[0], "frame-faulted");
        }
    }

    #[test]
    fn sharding_splits_the_checking_work() {
        // Structural, not timed: every replica gets a share of the stream
        // and the shares add up to all of it.
        let run = run_service_saturation(2, 16, 2_000, 4, None);
        assert_eq!(run.report.shards.len(), 4);
        assert!(run.report.verdict.is_ok());
        assert_eq!(run.report.events(), 4_000);
        for shard in &run.report.shards {
            assert!(shard.report.stats.events > 0, "empty shard");
        }
    }
}
