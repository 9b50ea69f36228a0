//! Spawning threads, running workloads, collecting histories and statistics.

use crate::channel;
use crate::channel::sharded::MergeStats;
use crate::counter::ConcurrentCounter;
use crate::fault::{ChannelFaultStats, FaultPlan};
use crate::pump::{pump, StageMsg};
use crate::recorder::{history_of, sharded_recorder, EventSink, RecorderShard, SinkStats};
use evlin_checker::monitor::{self, MonitorConfig, MonitorReport};
use evlin_history::{History, ObjectId, ObjectUniverse, ProcessId};
use evlin_spec::{FetchIncrement, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options for [`run_counter_workload`].
#[derive(Debug, Clone, Copy)]
pub struct HarnessOptions {
    /// Number of threads.
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: usize,
    /// Whether to record a history (adds overhead; switch off for raw
    /// throughput measurements).
    pub record_history: bool,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            threads: 2,
            ops_per_thread: 1_000,
            record_history: true,
        }
    }
}

/// The outcome of one counter workload run.
#[derive(Debug)]
pub struct CounterRun {
    /// The recorded history (if recording was enabled).
    pub history: Option<History>,
    /// Wall-clock duration of the measured section.
    pub elapsed: Duration,
    /// Total operations performed.
    pub total_ops: usize,
    /// Operations per second.
    pub throughput: f64,
    /// The counter's exact total after quiescence.
    pub final_total: i64,
    /// Number of operations whose returned value was stale, i.e. already
    /// returned by an earlier-completing operation (0 for linearizable
    /// counters).
    pub duplicate_responses: usize,
    /// The largest observed staleness: `exact-at-response − returned value`,
    /// approximated as the difference between the operation's slot in
    /// completion order and its returned value.  0 for linearizable counters.
    pub max_staleness: i64,
}

impl CounterRun {
    /// Convenience: whether every response was distinct (a cheap necessary
    /// condition for linearizability of a fetch&increment history).
    pub fn responses_distinct(&self) -> bool {
        self.duplicate_responses == 0
    }
}

/// The object every harness run records on.
const OBJECT: ObjectId = ObjectId(0);

/// Runs `options.threads` threads (at least one) each performing
/// `options.ops_per_thread` fetch&inc operations on `counter`.  With
/// `options.record_history` every thread records into its own retaining
/// [`RecorderShard`] — the shards, the sequence counter and the
/// well-formedness filter of the pipelined path, over a `Vec` — and the run
/// returns the events as a [`History`] in sequence order.
pub fn run_counter_workload(
    counter: &dyn ConcurrentCounter,
    options: HarnessOptions,
) -> CounterRun {
    let seq = Arc::new(AtomicU64::new(0));
    let shards = (0..options.threads.max(1))
        .map(|_| {
            options
                .record_history
                .then(|| RecorderShard::over(Arc::clone(&seq), Vec::new()))
        })
        .collect();
    let (responses, sinks, elapsed) =
        run_workers(counter, options.ops_per_thread, shards, |shard| {
            shard.into_sink().0
        });
    let history = options.record_history.then(|| history_of(sinks));
    counter_run(counter, history, &responses, elapsed)
}

/// Tuning knobs of the sharded, frame-batched, pipelined monitoring path
/// ([`run_counter_workload_pipelined`]).
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Events per frame shipped from a worker's [`crate::RecorderShard`] to
    /// the merge stage.  Larger frames amortize more synchronization per
    /// event; smaller frames shorten the pipeline's latency tail.
    pub frame_capacity: usize,
    /// In-flight frames each producer ring holds before the producer blocks
    /// (back-pressure, in frames).
    pub ring_frames: usize,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            frame_capacity: 512,
            ring_frames: 8,
        }
    }
}

/// The outcome of one pipelined, sharded, live-monitored counter workload
/// run ([`run_counter_workload_pipelined`]).
#[derive(Debug)]
pub struct PipelinedRun {
    /// The workload-side statistics (history is `None`: events streamed).
    pub run: CounterRun,
    /// The pipelined monitor's verdict and counters — identical to what the
    /// inline [`monitor::Monitor`] reports on the same stream.
    pub report: MonitorReport,
    /// Sink counters summed over every worker shard.
    pub sink: SinkStats,
    /// What the k-way merge saw: frames, events, and the transport-integrity
    /// counters (fingerprint mismatches, misordered frames).
    pub merge: MergeStats,
    /// Frame-granularity faults summed over the shards' injectors, when the
    /// run was given a fault plan; `None` on clean runs.  Units are
    /// *frames*, not events.
    pub channel_faults: Option<ChannelFaultStats>,
    /// Wall-clock time from workload start until the check stage finished
    /// the last segment (≥ `run.elapsed`; the basis for checked-ops/s).
    pub total_elapsed: Duration,
}

impl PipelinedRun {
    /// Completed operations verified per second, end to end (workload,
    /// merge, ingest and kernel checking all overlap).
    pub fn checked_ops_per_sec(&self) -> f64 {
        self.report.stats.checked_ops as f64 / self.total_elapsed.as_secs_f64().max(f64::EPSILON)
    }

    /// Events carried through the full pipeline per second (an invocation
    /// and a response per operation, so ~2× the checked-op rate).
    pub fn events_per_sec(&self) -> f64 {
        self.report.stats.events as f64 / self.total_elapsed.as_secs_f64().max(f64::EPSILON)
    }
}

/// Runs a counter workload under the *pipelined* online monitor: each worker
/// thread records into its own [`crate::RecorderShard`] (frame-batched,
/// per-producer ring), a merge stage k-way-merges the shard streams back
/// into global sequence order and cuts quiescent segments
/// ([`crate::pump::pump`]), and a check stage runs the kernel over closed
/// segments ([`monitor::MonitorCheck`]) — three overlapping stages.  The
/// verdict is the inline [`monitor::Monitor`]'s on the same stream.
///
/// With a `fault` plan every shard streams its frames through a seed-derived
/// transient-fault injector ([`FaultPlan::for_shard`]) that loses, duplicates
/// or adjacently reorders whole *frames* before they reach the merge.  This
/// is the runtime half of the fault-injection experiments: the monitor sees
/// a corrupted stream, so its verdict reflects the *corruption*, not the
/// counter — a lost or reordered frame shows up as a violation (flagged) or
/// as ill-formed events the monitor rejects, while conditions with
/// forgiveness (`t`-linearizability, stabilizes-eventually) absorb a
/// corrupted prefix.
///
/// `options.record_history` is ignored (events always stream).
pub fn run_counter_workload_pipelined(
    counter: &dyn ConcurrentCounter,
    options: HarnessOptions,
    monitor_config: MonitorConfig,
    pipeline: PipelineOptions,
    fault: Option<FaultPlan>,
) -> PipelinedRun {
    let mut universe = ObjectUniverse::new();
    let object = universe.add_object(FetchIncrement::new());
    debug_assert_eq!(object, OBJECT);
    let (ingest, check) = monitor::stages(universe, monitor_config);
    let (shards, merge) = sharded_recorder(
        options.threads.max(1),
        pipeline.frame_capacity,
        pipeline.ring_frames,
        fault,
    );
    // Closed segments flow to the check stage through their own small ring;
    // its back-pressure is what keeps the pipeline's memory bounded when
    // checking falls behind ingestion.
    let (batch_tx, batch_rx) = channel::bounded::<StageMsg>(8);

    let started = Instant::now();
    let (responses, closed, elapsed, merge_stats, report) = std::thread::scope(|s| {
        let check_stage = s.spawn(move || {
            let mut check = check;
            loop {
                match batch_rx.recv() {
                    Some(StageMsg::Batch(batch)) => check.check_batch(batch),
                    Some(StageMsg::Final(tail, summary)) => return check.finish(tail, summary),
                    None => panic!("the merge stage hung up without a final batch"),
                }
            }
        });
        let merge_stage = s.spawn(move || pump(merge, ingest, batch_tx, false));
        let shards = shards.into_iter().map(Some).collect();
        let (responses, closed, elapsed) =
            run_workers(counter, options.ops_per_thread, shards, |mut shard| {
                // Ship the partial tail while the fault injector is still
                // observable, then read its counters and close.
                shard.flush();
                let faults = shard.fault_stats();
                (shard.finish(), faults)
            });
        let merge_stats = merge_stage.join().expect("merge+ingest stage").merge;
        let report = check_stage.join().expect("check stage");
        (responses, closed, elapsed, merge_stats, report)
    });
    let total_elapsed = started.elapsed();

    let mut sink = SinkStats::default();
    let mut channel_faults: Option<ChannelFaultStats> = None;
    for (stats, faults) in closed {
        sink.emitted += stats.emitted;
        sink.dropped_malformed += stats.dropped_malformed;
        sink.dropped_disconnected += stats.dropped_disconnected;
        sink.flushed_partial_frames += stats.flushed_partial_frames;
        sink.disconnected |= stats.disconnected;
        if let Some(f) = faults {
            let sum = channel_faults.get_or_insert_with(ChannelFaultStats::default);
            sum.delivered += f.delivered;
            sum.lost += f.lost;
            sum.duplicated += f.duplicated;
            sum.reordered += f.reordered;
        }
    }
    PipelinedRun {
        run: counter_run(counter, None, &responses, elapsed),
        report,
        sink,
        merge: merge_stats,
        channel_faults,
        total_elapsed,
    }
}

/// The worker loop of every harness run: one thread per entry of `shards`,
/// each performing `ops_per_thread` fetch&inc operations on `counter` and
/// recording them into its shard, if it has one.  Returns every response,
/// what `close` made of each shard, and the wall-clock time of the measured
/// section.
fn run_workers<S: EventSink + Send, R: Send>(
    counter: &dyn ConcurrentCounter,
    ops_per_thread: usize,
    shards: Vec<Option<RecorderShard<S>>>,
    close: impl Fn(RecorderShard<S>) -> R + Sync,
) -> (Vec<i64>, Vec<R>, Duration) {
    let start_flag = AtomicBool::new(false);
    let started = Instant::now();
    // Scoped threads: panics in workers propagate when they are joined.
    let (responses, closed) = std::thread::scope(|s| {
        let workers: Vec<_> = shards
            .into_iter()
            .enumerate()
            .map(|(t, mut shard)| {
                let (start_flag, close) = (&start_flag, &close);
                s.spawn(move || {
                    // Spin until every thread is ready so the measured
                    // section is genuinely concurrent.
                    while !start_flag.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    let mut local = Vec::with_capacity(ops_per_thread);
                    for _ in 0..ops_per_thread {
                        if let Some(shard) = &mut shard {
                            shard.invoke(ProcessId(t), OBJECT, FetchIncrement::fetch_inc());
                        }
                        let v = counter.fetch_inc(t);
                        if let Some(shard) = &mut shard {
                            shard.respond(ProcessId(t), OBJECT, Value::from(v));
                        }
                        local.push(v);
                    }
                    (local, shard.map(close))
                })
            })
            .collect();
        start_flag.store(true, Ordering::Release);
        let mut responses = Vec::new();
        let mut closed = Vec::new();
        for worker in workers {
            let (local, shard) = worker.join().expect("worker thread");
            responses.extend(local);
            closed.extend(shard);
        }
        (responses, closed)
    });
    (responses, closed, started.elapsed())
}

/// The workload-side statistics of a run that returned `responses`.
fn counter_run(
    counter: &dyn ConcurrentCounter,
    history: Option<History>,
    responses: &[i64],
    elapsed: Duration,
) -> CounterRun {
    let mut sorted = responses.to_vec();
    sorted.sort_unstable();
    let duplicate_responses = sorted.windows(2).filter(|w| w[0] == w[1]).count();
    // Staleness proxy: after sorting, a linearizable counter returns exactly
    // 0..total_ops-1; the gap between the expected slot and the returned
    // value bounds how far behind the stale responses were.
    let max_staleness = sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| i as i64 - v)
        .max()
        .unwrap_or(0)
        .max(0);
    CounterRun {
        history,
        elapsed,
        total_ops: responses.len(),
        throughput: responses.len() as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
        final_total: counter.exact_total(),
        duplicate_responses,
        max_staleness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{CasCounter, FetchAddCounter, ShardedCounter};
    use evlin_checker::fi;

    fn options(threads: usize, ops: usize, record: bool) -> HarnessOptions {
        HarnessOptions {
            threads,
            ops_per_thread: ops,
            record_history: record,
        }
    }

    #[test]
    fn cas_counter_histories_are_linearizable() {
        let counter = CasCounter::new();
        let run = run_counter_workload(&counter, options(4, 200, true));
        assert_eq!(run.total_ops, 800);
        assert_eq!(run.final_total, 800);
        assert!(run.responses_distinct());
        assert_eq!(run.max_staleness, 0);
        let history = run.history.expect("recording was enabled");
        assert!(history.is_well_formed());
        assert_eq!(fi::is_linearizable(&history, 0), Ok(true));
    }

    #[test]
    fn fetch_add_counter_histories_are_linearizable() {
        let counter = FetchAddCounter::new();
        let run = run_counter_workload(&counter, options(4, 200, true));
        assert!(run.responses_distinct());
        let history = run.history.expect("recording was enabled");
        assert_eq!(fi::is_linearizable(&history, 0), Ok(true));
    }

    #[test]
    fn sharded_counter_converges_but_is_stale() {
        let counter = ShardedCounter::new(4, 64);
        let run = run_counter_workload(&counter, options(4, 500, true));
        // No increment is lost…
        assert_eq!(run.final_total, 2000);
        // …but responses repeat under contention (staleness).  This is
        // overwhelmingly likely with 4 threads and a refresh interval of 64;
        // if the scheduler serialized the threads perfectly the run would be
        // exact, so do not assert duplicates unconditionally — assert the
        // weaker invariant that staleness never exceeds what the refresh
        // interval allows.
        assert!(run.max_staleness <= 64 * 4);
        let history = run.history.expect("recording was enabled");
        assert!(history.is_well_formed());
        // The history is weakly consistent in the fetch&increment sense used
        // by the experiments: every returned value is at most the true count
        // at response time.  (Full weak-consistency checking on histories of
        // this size is done with the specialized checker in the experiments.)
        let t = fi::min_stabilization(&history, 0).expect("pure fetch&inc history");
        assert!(t <= history.len());
    }

    #[test]
    fn recording_can_be_disabled() {
        let counter = FetchAddCounter::new();
        let run = run_counter_workload(&counter, options(2, 100, false));
        assert!(run.history.is_none());
        assert_eq!(run.total_ops, 200);
        assert!(run.throughput > 0.0);
        // A zero-thread run is a one-thread run, on the offline path as on
        // the pipelined one.
        let counter = FetchAddCounter::new();
        let run = run_counter_workload(&counter, options(0, 100, true));
        assert_eq!(run.total_ops, 100);
        assert_eq!(run.final_total, 100);
        assert_eq!(run.history.expect("recording was enabled").len(), 200);
        let counter = FetchAddCounter::new();
        let out = run_counter_workload_pipelined(
            &counter,
            options(0, 100, false),
            evlin_checker::monitor::MonitorConfig::default(),
            PipelineOptions::default(),
            None,
        );
        assert_eq!(out.run.total_ops, 100);
        assert_eq!(out.report.stats.checked_ops, 100);
    }

    #[test]
    fn pipelined_monitor_verifies_linearizable_counters() {
        use evlin_checker::monitor::MonitorConfig;
        for counter in [
            Box::new(CasCounter::new()) as Box<dyn crate::counter::ConcurrentCounter>,
            Box::new(FetchAddCounter::new()),
        ] {
            let out = run_counter_workload_pipelined(
                counter.as_ref(),
                options(4, 300, false),
                MonitorConfig::default(),
                // Small frames so the run exercises many frame round trips
                // and a partial tail per shard.
                PipelineOptions {
                    frame_capacity: 32,
                    ring_frames: 4,
                },
                None,
            );
            assert!(
                out.report.verdict.is_ok(),
                "{}: {:?}",
                counter.name(),
                out.report
            );
            assert_eq!(out.report.stats.checked_ops, 1200);
            assert_eq!(out.report.stats.events, 2400);
            assert_eq!(out.sink.emitted, 2400);
            assert_eq!(out.sink.dropped_malformed, 0);
            assert!(!out.sink.disconnected);
            assert_eq!(out.merge.events, 2400);
            assert_eq!(out.merge.fingerprint_mismatches, 0);
            assert_eq!(out.merge.misordered_frames, 0);
            assert!(out.channel_faults.is_none());
            assert!(out.run.history.is_none(), "events stream, not buffer");
            assert!(out.checked_ops_per_sec() > 0.0);
            assert!(out.events_per_sec() > out.checked_ops_per_sec());
            // Sharded recording lets the workers interleave densely, so a
            // run may exhibit no mid-stream quiescent point at all — the
            // window can legitimately reach the full stream length, never
            // beyond.
            assert!(out.report.stats.peak_window_events <= 2400);
        }
    }

    #[test]
    fn pipelined_faulty_run_completes_and_reports_frame_faults() {
        use evlin_checker::monitor::MonitorConfig;
        let counter = FetchAddCounter::new();
        let out = run_counter_workload_pipelined(
            &counter,
            options(2, 400, false),
            MonitorConfig::default(),
            // Tiny frames: many frames in flight, so the per-frame fault
            // rates actually fire.
            PipelineOptions {
                frame_capacity: 4,
                ring_frames: 8,
            },
            Some(FaultPlan {
                seed: 2014,
                lose: 128,
                duplicate: 128,
                reorder: 128,
            }),
        );
        // The pipeline must terminate whatever the verdict — a corrupted
        // frame stream may be flagged, rejected event by event, or forgiven.
        let faults = out.channel_faults.expect("a faulty run reports faults");
        assert!(
            faults.lost + faults.duplicated + faults.reordered > 0,
            "the seeded plan injects something over ~400 frames: {faults:?}"
        );
        // The workload side is untouched by transport faults.
        assert_eq!(out.run.total_ops, 800);
        assert_eq!(out.run.final_total, 800);
        assert!(out.run.responses_distinct());
        // Fault injection moves whole frames but never rewrites them.
        assert_eq!(out.merge.fingerprint_mismatches, 0);
        assert!(out.merge.events <= out.sink.emitted + 4 * faults.duplicated);
    }

    #[test]
    fn transparent_pipelined_faults_match_the_clean_pipelined_path() {
        use evlin_checker::monitor::MonitorConfig;
        let counter = CasCounter::new();
        let out = run_counter_workload_pipelined(
            &counter,
            options(2, 150, false),
            MonitorConfig::default(),
            PipelineOptions::default(),
            Some(FaultPlan::transparent(1)),
        );
        assert!(out.report.verdict.is_ok(), "{:?}", out.report);
        assert_eq!(out.report.stats.checked_ops, 300);
        let faults = out.channel_faults.expect("still a faulty-sink run");
        assert_eq!(faults.lost + faults.duplicated + faults.reordered, 0);
        assert_eq!(out.merge.events, 600);
    }

    #[test]
    fn pipelined_monitor_flags_the_stale_sharded_counter_or_verifies_it() {
        use evlin_checker::monitor::{MonitorConfig, MonitorVerdict};
        // Under contention the sharded counter repeats responses, which the
        // online monitor must flag; a perfectly serialized run (possible on
        // a quiet machine) is genuinely linearizable, so accept both — what
        // is *not* acceptable is an Unknown.
        let counter = ShardedCounter::new(4, 16);
        let out = run_counter_workload_pipelined(
            &counter,
            options(4, 500, false),
            MonitorConfig::default(),
            PipelineOptions {
                frame_capacity: 64,
                ring_frames: 4,
            },
            None,
        );
        let duplicates = out.run.duplicate_responses;
        match out.report.verdict {
            MonitorVerdict::Ok => assert_eq!(duplicates, 0, "stale run must be flagged"),
            MonitorVerdict::Violation(_) => assert!(duplicates > 0),
            MonitorVerdict::Unknown => panic!("monitor gave up: {:?}", out.report),
        }
    }
}
