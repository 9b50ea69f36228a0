//! The workloads and the loop that measures one of them.
//!
//! Method, for every workload: closed-loop load from this one process (the
//! recorder blocks the monitored application, so back-pressure is the real
//! semantics) with at most `nproc` producer threads; set-up is run
//! [`SETUP_REPS`] times, each ending in one discarded warm-up repetition;
//! then repetitions of a fixed amount of work are timed until `--seconds`
//! have passed, and every end-to-end figure is the median over them, each
//! reading first divided by how slow the machine was at that moment
//! ([`proc::SpeedProbe`]).

use crate::gen::{self, CounterPlan};
use crate::layers::{
    self, Backend, Counts, DenseInput, EventRep, EventStages, ExploreShape, PipeShape,
    ServiceShape, Tree, TreeCounts, Verdict,
};
use crate::proc;
use crate::stats::{median, summary};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up runs per process; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed repetitions are never fewer than this, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Events replayed through each isolated stage (bounds memory and time).
const ISOLATION_EVENTS: usize = 200_000;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1/50 of the work, one set-up: the smoke mode.
    pub quick: bool,
    pub scratch: PathBuf,
    pub trace_dir: PathBuf,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines (sample counts, quartiles, problems found).
    pub notes: Vec<String>,
}

/// One timed repetition, whichever path it exercised.
struct Rep {
    wall: Duration,
    lag: Duration,
    /// Filled in by [`measure`]: CPU and machine speed over the whole call
    /// (binding and joining included), and the peak RSS it left.
    pace: Pace,
    peak_rss_mib: f64,
    attempted: u64,
    failed: u64,
    counts: Counts,
    problems: Vec<String>,
}

trait Bench: Sized {
    /// Inputs, universes and reference checks; problems found are returned,
    /// not fatal, so a broken program still gets its numbers reported.
    fn prepare(name: &str, options: &Options, problems: &mut Vec<String>) -> Self;
    /// How the load is offered, for the log (printed beside `nproc`).
    fn load(&self) -> String;
    fn rep(&mut self, index: usize, tracer: &mut Tracer) -> Rep;
    /// The stage-isolation pass of the traced run.
    fn isolate(&mut self, tracer: &mut Tracer) -> Counts;
    /// Reference checks that must not disturb the measurement (they would
    /// raise the process's resident set), run after the last figure is taken.
    fn verify(&mut self) -> Vec<String> {
        Vec::new()
    }
    /// Derived per-layer figures from the untraced medians and the counts.
    fn derive(&self, wall_s: f64, cpu_s: f64, lag_s: f64, layer: &mut BTreeMap<&'static str, f64>);
}

pub fn run(options: &Options) -> Result<Outcome, String> {
    match options.workload.as_str() {
        "svc_wide" | "svc_durable" | "svc_recover" | "pipe_hot" | "check_dense" => {
            Ok(measure::<EventBench>(options))
        }
        "explore_deep" | "explore_spill" | "explore_sym" => Ok(measure::<ExploreBench>(options)),
        other => {
            let known: Vec<_> = crate::catalog::WORKLOADS.iter().map(|w| w.name).collect();
            Err(format!(
                "unknown workload `{other}` (known: {})",
                known.join(", ")
            ))
        }
    }
}

/// How one measured interval went: what the process spent, and how slow the
/// machine was meanwhile (1 = the reference box undisturbed; see
/// [`proc::SpeedProbe`]).
#[derive(Debug, Clone, Copy)]
struct Pace {
    wall: Duration,
    cpu: Duration,
    slowness: f64,
}

impl Pace {
    const UNSCALED: Pace = Pace {
        wall: Duration::ZERO,
        cpu: Duration::ZERO,
        slowness: 1.0,
    };

    /// `wall` (this interval's, or a window inside it) as it would read on
    /// the reference box: the share of the interval the process was on a CPU
    /// follows the machine's speed, the share it waited (fsync, acks, timers)
    /// does not.  Without this split `svc_durable`, which waits 90 % of the
    /// time, inherits the probe's noise and gains nothing.
    fn scale_wall(&self, wall: Duration) -> f64 {
        let busy = (self.cpu.as_secs_f64() / self.wall.as_secs_f64().max(1e-9)).min(1.0);
        wall.as_secs_f64() * ((1.0 - busy) + busy / self.slowness)
    }
}

/// The speed probe and its latest reading.
struct Pacer {
    probe: proc::SpeedProbe,
    last: Duration,
}

/// Runs `work` between two probe readings and reports how it went.  The
/// reading taken just after is kept as the next interval's "just before", so
/// back-to-back intervals share their readings; `None` (the smoke mode) takes
/// none and scales nothing.
fn paced<T>(pacer: &mut Option<Pacer>, work: impl FnOnce() -> T) -> (T, Pace) {
    let (started, cpu_before) = (Instant::now(), proc::process_cpu());
    let out = work();
    let mut pace = Pace {
        wall: started.elapsed(),
        cpu: proc::process_cpu().saturating_sub(cpu_before),
        slowness: 1.0,
    };
    if let Some(pacer) = pacer {
        let earlier = std::mem::replace(&mut pacer.last, pacer.probe.read());
        let mean = (earlier + pacer.last).as_secs_f64() / 2.0;
        pace.slowness = mean / proc::PROBE_REFERENCE.as_secs_f64();
    }
    (out, pace)
}

fn measure<B: Bench>(options: &Options) -> Outcome {
    let mut notes = Vec::new();
    let mut problems = Vec::new();
    let mut tracer = Tracer::new(options.trace);
    let mut probe = (!options.quick).then(|| {
        let mut probe = proc::SpeedProbe::new();
        let last = probe.read();
        Pacer { probe, last }
    });

    // Set-up, several times: each is everything a fresh process pays before
    // its first timed repetition, warm-up included.
    let mut setups = Vec::new();
    let mut bench = None;
    for _ in 0..if options.quick { 1 } else { SETUP_REPS } {
        drop(bench.take());
        let (prepared, pace) = paced(&mut probe, || {
            tracer.span("setup", |_| {
                let mut b = B::prepare(&options.workload, options, &mut problems);
                let warm = b.rep(0, &mut Tracer::new(false));
                problems.extend(warm.problems.into_iter().map(|p| format!("warm-up: {p}")));
                b
            })
        });
        setups.push(pace.scale_wall(pace.wall));
        bench = Some(prepared);
    }
    let mut bench = bench.expect("at least one set-up ran");
    notes.push(format!(
        "load              {} | nproc {}",
        bench.load(),
        proc::nproc()
    ));

    // Timed repetitions.  With tracing, a third of the time measures untraced
    // (the baseline the overhead is taken against), a third traced.
    let budget = Duration::from_secs_f64(options.seconds / if options.trace { 3.0 } else { 1.0 });
    let mut timed = |tracer: &mut Tracer, first_index: usize| {
        let mut reps: Vec<Rep> = Vec::new();
        let started = Instant::now();
        while reps.len() < MIN_REPS || started.elapsed() < budget {
            let index = first_index + reps.len();
            tracer.set_rep(index);
            // The peak restarts at what the process holds between
            // repetitions, so each one reports its own high-water mark.
            proc::reset_peak_rss();
            let (mut rep, pace) = paced(&mut probe, || tracer.span("rep", |t| bench.rep(index, t)));
            rep.peak_rss_mib = proc::peak_rss_mib();
            rep.pace = pace;
            reps.push(rep);
        }
        reps
    };
    let reps = timed(&mut Tracer::new(false), 1);
    let column = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let walls = column(|r| r.wall.as_secs_f64());
    let lags = column(|r| r.lag.as_secs_f64());
    let cpus = column(|r| r.pace.cpu.as_secs_f64());
    let peaks = column(|r| r.peak_rss_mib);
    let slowness = column(|r| r.pace.slowness);
    let scaled_walls = column(|r| r.pace.scale_wall(r.wall));
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = reps.iter().map(|r| r.failed).sum();
    for (i, rep) in reps.iter().enumerate() {
        problems.extend(rep.problems.iter().map(|p| format!("rep {}: {p}", i + 1)));
    }
    notes.push(format!("setup s (scaled)  {}", summary(&setups)));
    notes.push(format!("machine slowness  {}", summary(&slowness)));
    notes.push(format!("rep wall s        {}", summary(&walls)));
    notes.push(format!("rep wall (scaled) {}", summary(&scaled_walls)));
    notes.push(format!("rep cpu s         {}", summary(&cpus)));
    notes.push(format!("rep lag s         {}", summary(&lags)));
    notes.push(format!("rep peak MiB      {}", summary(&peaks)));

    let mut metrics = BTreeMap::new();
    if !options.trace {
        metrics.insert("setup_s", median(&setups));
        metrics.insert("rep_wall_ms", median(&scaled_walls) * 1e3);
    } else {
        let traced = timed(&mut tracer, 1 + reps.len());
        let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall.as_secs_f64()).collect();
        for (i, rep) in traced.iter().enumerate() {
            problems.extend(
                rep.problems
                    .iter()
                    .map(|p| format!("traced rep {}: {p}", i + 1)),
            );
        }
        notes.push(format!("traced wall s     {}", summary(&traced_walls)));
        for spec in crate::catalog::PER_LAYER {
            metrics.insert(spec.name, 0.0);
        }
        let mut put = |counts: Counts| {
            for (name, value) in counts {
                // Counts outside the catalog (anomaly detail) stay in the notes.
                if let Some(slot) = metrics.get_mut(name) {
                    *slot = value;
                }
            }
        };
        put(traced.last().expect("MIN_REPS ≥ 1").counts.clone());
        put(tracer.span("isolate", |t| bench.isolate(t)));
        // Per-layer figures are raw readings: the stages of one traced run
        // are measured minutes apart at most, and must add up unscaled.
        metrics.insert("e2e.reps", reps.len() as f64);
        metrics.insert("e2e.raw_wall_ms", median(&walls) * 1e3);
        metrics.insert("e2e.raw_cpu_ms", median(&cpus) * 1e3);
        metrics.insert("e2e.machine_slowness", median(&slowness));
        metrics.insert("e2e.peak_rss_mb", median(&peaks));
        metrics.insert(
            "trace.overhead_frac",
            median(&traced_walls) / median(&walls) - 1.0,
        );
        bench.derive(median(&walls), median(&cpus), median(&lags), &mut metrics);
        let path = options
            .trace_dir
            .join(format!("trace-{}.json", options.workload));
        match std::fs::create_dir_all(&options.trace_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(&options.workload).to_string()))
        {
            Ok(()) => notes.push(format!(
                "trace             {} spans → {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => problems.push(format!("cannot write {}: {e}", path.display())),
        }
    }
    let late = bench.verify();
    if !late.is_empty() {
        // The reference disowns what every repetition agreed on.
        failed = attempted;
        problems.extend(late);
    }
    notes.extend(problems.iter().map(|p| format!("PROBLEM           {p}")));
    Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}

// ---------------------------------------------------------------------------
// Event-path workloads
// ---------------------------------------------------------------------------

enum EventKind {
    Service(ServiceShape),
    Durable(ServiceShape),
    Recover(ServiceShape),
    Pipeline(PipeShape),
    Dense,
}

struct EventBench {
    kind: EventKind,
    plan: CounterPlan,
    dense: Option<DenseInput>,
    scratch: PathBuf,
    /// Events behind `rep_wall_ms`, for the per-event residual.
    events_per_rep: f64,
}

const WIDE: ServiceShape = ServiceShape {
    clients: 2,
    objects: 1024,
    shards: 4,
    frame_events: 256,
    ring_frames: 8,
    min_segment_events: 4096,
};
/// The recoverable service keeps a finished client's rings open until
/// `finish()` (the session may resume), and every shard's merge waits on
/// them: a client still streaming then fills its own rings, is shed with
/// OVERLOADED and retries for ever.  The rings here hold a client's whole
/// stream (24 k events in 256-event frames), so neither client can wedge the
/// other however far ahead it finishes.
const DURABLE: ServiceShape = ServiceShape {
    clients: 2,
    objects: 64,
    shards: 4,
    frame_events: 256,
    ring_frames: 128,
    min_segment_events: 4096,
};
/// Recovery replays whatever frames the journals hold; nothing streams, so
/// the default rings do.  Larger frames than `svc_durable` writes only make
/// writing the journals (set-up: one fsync per frame) four times cheaper.
const RECOVER: ServiceShape = ServiceShape {
    frame_events: 1024,
    ring_frames: 8,
    ..DURABLE
};
const HOT: PipeShape = PipeShape {
    producers: 2,
    objects: 1,
    frame_events: 512,
    ring_frames: 8,
    stage_queue: 8,
    min_segment_events: 256,
};

fn full_ops(name: &str) -> usize {
    match name {
        "svc_wide" => 400_000,
        "svc_durable" => 24_000,
        "svc_recover" => 400_000,
        "pipe_hot" => 2_000_000,
        "check_dense" => 300_000,
        other => unreachable!("`{other}` is not an event-path workload"),
    }
}

/// Operations in the set-up differential against the offline kernel, which is
/// far slower than the monitors it referees and superlinear in the operations
/// per object: the fewer objects a workload spreads over, the fewer it gets.
fn differential_ops(name: &str) -> usize {
    match name {
        "pipe_hot" => 1_000,
        "check_dense" => 800,
        _ => 4_000,
    }
}

impl EventBench {
    /// The isolation pass replays at most one repetition's worth of events.
    fn isolation_events(&self) -> usize {
        ISOLATION_EVENTS.min(self.events_per_rep as usize)
    }

    fn journals(&self, tag: &str) -> PathBuf {
        self.scratch.join(format!("journals-{tag}"))
    }

    fn execute(&self, plan: &CounterPlan, tag: &str, capture: bool) -> EventRep {
        match &self.kind {
            EventKind::Service(shape) => layers::run_service(plan, shape, capture),
            EventKind::Durable(shape) => {
                let dir = self.journals(tag);
                let _ = std::fs::remove_dir_all(&dir);
                layers::run_durable(plan, shape, &dir, capture)
            }
            EventKind::Recover(shape) => {
                let dir = self.journals(tag);
                layers::write_journals(plan, shape, &dir);
                layers::run_recovery(shape, &dir, plan.ops() as u64, capture)
            }
            EventKind::Pipeline(shape) => layers::run_pipeline(plan, shape, capture),
            EventKind::Dense => unreachable!("the dense workload has no counter plan"),
        }
    }
}

/// Everything a clean repetition must satisfy; returns what it does not.
fn audit(rep: &EventRep, expect: Verdict) -> Vec<String> {
    let mut problems = Vec::new();
    if rep.verdict != expect {
        problems.push(format!("verdict {:?}, expected {expect:?}", rep.verdict));
    }
    if let Some(kernel) = rep.kernel_verdict {
        if kernel != rep.verdict {
            problems.push(format!(
                "offline kernel says {kernel:?}, the monitors say {:?}",
                rep.verdict
            ));
        }
    }
    if rep.events != 2 * rep.ops {
        problems.push(format!(
            "exactly-once violated: {} events checked, {} recorded",
            rep.events,
            2 * rep.ops
        ));
    }
    // A violation freezes the decided-operation count by design.
    if expect == Verdict::Ok && rep.checked_ops != rep.ops {
        problems.push(format!("{} of {} ops decided", rep.checked_ops, rep.ops));
    }
    problems.extend(
        rep.anomalies
            .iter()
            .filter(|(_, v)| *v != 0.0)
            .map(|(name, v)| format!("{name} = {v}")),
    );
    problems
}

impl Bench for EventBench {
    fn prepare(name: &str, options: &Options, problems: &mut Vec<String>) -> Self {
        let scale = if options.quick { 50 } else { 1 };
        let ops = full_ops(name) / scale;
        let kind = match name {
            "svc_wide" => EventKind::Service(WIDE),
            "svc_durable" => EventKind::Durable(DURABLE),
            "svc_recover" => EventKind::Recover(RECOVER),
            "pipe_hot" => EventKind::Pipeline(HOT),
            _ => EventKind::Dense,
        };
        let mut bench = EventBench {
            kind,
            plan: gen::counter_plan(options.seed, 1, 1, 0),
            dense: None,
            scratch: options.scratch.clone(),
            events_per_rep: 2.0 * ops as f64,
        };
        let mut check = |what: &str, found: Vec<String>| {
            problems.extend(found.into_iter().map(|p| format!("{what}: {p}")));
        };
        if let EventKind::Dense = bench.kind {
            layers::check_on_the_calling_thread();
            let width = gen::DENSE_WIDTH;
            // Differential and negative control on a reduced stream: the
            // staged monitor against the offline kernel, both must agree,
            // and both must catch one perturbed response.
            let small = differential_ops(name) / width;
            let reference = layers::dense_input(&gen::dense_rounds(options.seed, small, None));
            check(
                "differential",
                audit(&layers::run_inline(&reference, true), Verdict::Ok),
            );
            let broken =
                layers::dense_input(&gen::dense_rounds(options.seed, small, Some(small / 2)));
            check(
                "negative control",
                audit(&layers::run_inline(&broken, true), Verdict::Violation),
            );
            let rounds = gen::dense_rounds(options.seed, ops / width, None);
            bench.dense = Some(layers::dense_input(&rounds));
            return bench;
        }
        let (producers, objects) = match &bench.kind {
            EventKind::Service(s) | EventKind::Durable(s) | EventKind::Recover(s) => {
                (s.clients, s.objects)
            }
            EventKind::Pipeline(p) => (p.producers, p.objects),
            EventKind::Dense => unreachable!(),
        };
        let small = gen::counter_plan(options.seed, producers, objects, differential_ops(name));
        let reference = bench.execute(&small, "differential", true);
        check("differential", audit(&reference, Verdict::Ok));
        if let EventKind::Durable(shape) = &bench.kind {
            // The journals of the differential run must rebuild the same state.
            let dir = bench.journals("differential");
            let recovered = layers::run_recovery(shape, &dir, small.ops() as u64, true);
            check("differential recovery", audit(&recovered, Verdict::Ok));
        }
        let broken = bench.execute(&gen::perturbed(small, options.seed), "negative", true);
        check("negative control", audit(&broken, Verdict::Violation));
        for tag in ["differential", "negative"] {
            let _ = std::fs::remove_dir_all(bench.journals(tag));
        }
        bench.plan = gen::counter_plan(options.seed, producers, objects, ops);
        if let EventKind::Recover(shape) = &bench.kind {
            // The journals every repetition recovers are written once here.
            layers::write_journals(&bench.plan, shape, &bench.journals("recover"));
        }
        bench
    }

    fn load(&self) -> String {
        let producers = match &self.kind {
            EventKind::Service(s) | EventKind::Durable(s) => s.clients,
            EventKind::Pipeline(p) => p.producers,
            EventKind::Recover(_) => 0,
            EventKind::Dense => 1,
        };
        format!("closed loop, {producers} producer thread(s) / connection(s)")
    }

    fn rep(&mut self, index: usize, tracer: &mut Tracer) -> Rep {
        let rep = match &self.kind {
            EventKind::Dense => layers::run_inline(self.dense.as_ref().expect("prepared"), false),
            EventKind::Recover(shape) => {
                let dir = self.journals("recover");
                layers::run_recovery(shape, &dir, self.plan.ops() as u64, false)
            }
            _ => {
                let tag = format!("rep-{index}");
                let rep = self.execute(&self.plan, &tag, false);
                let _ = std::fs::remove_dir_all(self.journals(&tag));
                rep
            }
        };
        let phase = if let EventKind::Recover(_) = self.kind {
            "recover"
        } else {
            tracer.record("produce", rep.start, rep.produced);
            "drain"
        };
        tracer.record(phase, rep.produced, rep.end);
        let problems = audit(&rep, Verdict::Ok);
        let mut counts = rep.counts.clone();
        counts.extend(rep.anomalies.iter().copied());
        Rep {
            wall: rep.wall(),
            lag: rep.lag(),
            pace: Pace::UNSCALED,
            peak_rss_mib: 0.0,
            attempted: rep.ops,
            // A repetition that fails any check fails all its operations.
            failed: if problems.is_empty() { 0 } else { rep.ops },
            counts,
            problems,
        }
    }

    fn isolate(&mut self, tracer: &mut Tracer) -> Counts {
        let service = |shape: &ServiceShape, journal: bool| EventStages {
            // Inside a replica, every connection feeds one ring per shard.
            channel: PipeShape {
                producers: shape.clients,
                objects: shape.objects,
                frame_events: shape.frame_events,
                ring_frames: shape.ring_frames,
                stage_queue: 8,
                min_segment_events: shape.min_segment_events,
            },
            wire_frame_events: Some(shape.frame_events),
            journal,
            shards: shape.shards,
            min_segment_events: shape.min_segment_events,
            segment_batch: 8,
        };
        let stages = match &self.kind {
            EventKind::Dense => {
                let input = self.dense.as_ref().expect("prepared");
                return layers::isolate_dense_path(input, self.isolation_events(), tracer);
            }
            EventKind::Service(shape) => service(shape, false),
            EventKind::Durable(shape) | EventKind::Recover(shape) => service(shape, true),
            EventKind::Pipeline(shape) => EventStages {
                channel: *shape,
                wire_frame_events: None,
                journal: false,
                shards: 1,
                min_segment_events: shape.min_segment_events,
                segment_batch: 64,
            },
        };
        let events = self.isolation_events();
        layers::isolate_counter_path(&self.plan, &stages, events, &self.scratch, tracer)
    }

    fn derive(&self, wall_s: f64, cpu_s: f64, lag_s: f64, layer: &mut BTreeMap<&'static str, f64>) {
        let ops = self.events_per_rep / 2.0;
        if let EventKind::Recover(_) = self.kind {
            layer.insert("e2e.recovery_s", wall_s);
        } else {
            layer.insert("e2e.checked_ops_per_s", ops / wall_s);
            layer.insert("e2e.verdict_lag_ms", lag_s * 1e3);
        }
        let cpu_ns_per_op = cpu_s * 1e9 / ops;
        layer.insert("e2e.cpu_ns_per_op", cpu_ns_per_op);
        let at = |name: &str| layer[name];
        // Σ of the isolated stage costs, per event.  `channel` was measured
        // with the recorder in front of it, so only its excess is added.
        let frame_events = match &self.kind {
            EventKind::Service(s) | EventKind::Durable(s) | EventKind::Recover(s) => {
                s.frame_events as f64
            }
            _ => 1.0,
        };
        let transport = match &self.kind {
            EventKind::Service(_) => at("transport.duplex_ns_per_frame"),
            EventKind::Durable(_) => at("transport.tcp_ns_per_frame"),
            _ => 0.0,
        } / frame_events;
        let recorder = at("recorder.ns_per_event");
        // Recovery records and sends nothing: it reads, decodes and replays.
        let upstream = if let EventKind::Recover(_) = self.kind {
            at("journal.recover_ns_per_event")
        } else {
            recorder
                + at("wire.fingerprint_ns_per_event")
                + at("wire.encode_ns_per_event")
                + transport
        };
        let staged = upstream
            + (at("channel.ns_per_event") - recorder).max(0.0)
            + at("wire.decode_ns_per_event")
            + at("monitor.route_ns_per_event")
            + at("monitor.ingest_ns_per_event")
            + at("monitor.check_ns_per_event");
        layer.insert("residual.cpu_ns_per_event", cpu_ns_per_op / 2.0 - staged);
    }
}

// ---------------------------------------------------------------------------
// Exploration workloads (deterministic trees: the seed is ignored)
// ---------------------------------------------------------------------------

struct ExploreBench {
    shape: ExploreShape,
    /// The first repetition's counts, which every later one must reproduce
    /// and which [`Bench::verify`] holds against the in-memory reference.
    counts: Option<TreeCounts>,
}

fn explore_shape(name: &str, quick: bool) -> ExploreShape {
    // The full 2 × 4 tree has 1.2 M states (1.8 s a pass); the depth bound
    // keeps a third of it, so that ten seconds hold enough repetitions.
    let deep = Tree::CasFetchInc {
        processes: 2,
        ops: 4,
        max_depth: if quick { 16 } else { 24 },
    };
    match name {
        "explore_deep" => ExploreShape {
            tree: deep,
            backend: Backend::Mem,
        },
        "explore_spill" => ExploreShape {
            tree: deep,
            backend: Backend::Spill {
                shards_log2: 3,
                shard_budget: if quick { 4096 } else { 65536 },
            },
        },
        _ => ExploreShape {
            tree: Tree::LocalCopies {
                processes: if quick { 4 } else { 6 },
                ops: 2,
            },
            backend: Backend::Mem,
        },
    }
}

impl Bench for ExploreBench {
    fn prepare(name: &str, options: &Options, problems: &mut Vec<String>) -> Self {
        let shape = explore_shape(name, options.quick);
        // Reduced tree: the reduction must not change any terminal verdict.
        let reduced = match shape.tree {
            Tree::CasFetchInc { processes, .. } => Tree::CasFetchInc {
                processes,
                ops: 2,
                max_depth: 256,
            },
            Tree::LocalCopies { ops, .. } => Tree::LocalCopies { processes: 3, ops },
        };
        if let Err(e) = layers::reduction_preserves_verdicts(reduced) {
            problems.push(e);
        }
        ExploreBench {
            shape,
            counts: None,
        }
    }

    /// The in-memory exploration of the same tree is the reference for every
    /// backend (the visited set is a property of the tree, so `explore_spill`
    /// must equal `explore_deep` exactly).  It runs last: its visited set
    /// would otherwise sit in the spill workload's peak RSS.
    fn verify(&mut self) -> Vec<String> {
        let reference = layers::run_exploration(&ExploreShape {
            backend: Backend::Mem,
            ..self.shape
        });
        let mut problems = Vec::new();
        if reference.truncated {
            problems.push("the reference exploration was truncated".into());
        }
        if Some(reference.counts) != self.counts {
            problems.push(format!(
                "counts {:?} differ from the in-memory reference {:?}",
                self.counts, reference.counts
            ));
        }
        problems
    }

    fn load(&self) -> String {
        "one engine worker; deterministic tree, the seed is ignored".into()
    }

    fn rep(&mut self, _index: usize, tracer: &mut Tracer) -> Rep {
        let rep = tracer.span("explore", |_| layers::run_exploration(&self.shape));
        let mut problems = Vec::new();
        let first = *self.counts.get_or_insert(rep.counts);
        if rep.counts != first {
            problems.push(format!(
                "counts {:?} differ from the first repetition's {first:?}",
                rep.counts
            ));
        }
        if rep.truncated {
            problems.push("exploration truncated".into());
        }
        if matches!(self.shape.backend, Backend::Spill { .. }) && rep.spilled_bytes == 0 {
            problems.push("the spill backend spilled nothing".into());
        }
        let c = rep.counts;
        let counts = vec![
            ("engine.visited", c.visited as f64),
            ("engine.terminals", c.terminals as f64),
            ("engine.pruned", c.pruned as f64),
            (
                "engine.pruned_frac",
                c.pruned as f64 / (c.visited + c.pruned).max(1) as f64,
            ),
            ("store.resident_bytes", rep.resident_bytes as f64),
            ("store.spilled_bytes", rep.spilled_bytes as f64),
            ("store.filter_bytes", rep.filter_bytes as f64),
            ("store.runs", rep.runs as f64),
        ];
        Rep {
            wall: rep.wall,
            lag: Duration::ZERO,
            pace: Pace::UNSCALED,
            peak_rss_mib: 0.0,
            attempted: 1,
            failed: u64::from(!problems.is_empty()),
            counts,
            problems,
        }
    }

    fn isolate(&mut self, tracer: &mut Tracer) -> Counts {
        layers::isolate_exploration(&self.shape, tracer)
    }

    fn derive(&self, wall_s: f64, _cpu: f64, _lag: f64, layer: &mut BTreeMap<&'static str, f64>) {
        let visited = self.counts.map_or(1, |c| c.visited) as f64;
        layer.insert("e2e.explore_s", wall_s);
        layer.insert("engine.states_per_s", visited / wall_s);
        // Every visited state was stepped to, canonicalized and probed at
        // least once, and had its enabled steps classified; children pruned
        // by the store after being stepped are part of the residual.
        let attributed = layer["config.step_ns"]
            + layer["config.canonical_ns"]
            + layer["store.insert_ns_per_key"]
            + layer["config.shape_ns"] * layer["config.enabled_per_state"];
        layer.insert("residual.ns_per_state", wall_s * 1e9 / visited - attributed);
    }
}
