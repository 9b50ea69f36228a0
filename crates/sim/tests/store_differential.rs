//! Differential tests for the visited store: on seeded random small
//! configurations, the two [`StoreConfig`]s — resident and spilling — must be
//! *observationally identical* — same distinct terminal-history sets, same
//! checker verdicts, same visited/terminal/pruned counts — under every
//! reduction, because the dedup verdict for a `(key, depth)` pair is a set
//! property, not a layout property.  On top of the store, the resumable
//! drivers are checked end-to-end:
//!
//! * an uninterrupted [`explore_checkpointed`] run equals the plain engine
//!   bit-for-bit (including the byte accounting);
//! * a run killed at random points (simulated SIGKILL via
//!   `abort_after_visits`, which leaves only the last durable checkpoint)
//!   and resumed until completion reproduces the uninterrupted final stats
//!   exactly;
//! * [`explore_partitioned`] totals recompose the single-run stats exactly;
//! * a checkpoint written under different exploration parameters, or one
//!   that names a retired store tag or run kind, is rejected instead of
//!   silently diverging, and one resealed with absurd counts is rejected
//!   without allocating for them.
//!
//! The quick tests run fixed seed ranges on every `cargo test`; the
//! `#[ignore]`d extended variants honour `EVLIN_DIFF_CASES` and run in the
//! nightly CI fuzz job.

#[path = "support/evck.rs"]
mod evck;

use evck::reseal;
use evlin_algorithms::{CasFetchInc, GossipFetchInc, NoisyPrefixFetchInc};
use evlin_checker::codec::Reader;
use evlin_checker::{linearizability, weak_consistency};
use evlin_history::{History, ObjectUniverse};
use evlin_sim::checkpoint::{self, CheckpointOptions};
use evlin_sim::engine::{self, EngineOptions, ExploreOptions, Reduction, Visit};
use evlin_sim::program::{Implementation, LocalSpecImplementation};
use evlin_sim::store::StoreConfig;
use evlin_sim::workload::Workload;
use evlin_sim::zobrist;
use evlin_spec::{FetchIncrement, ObjectType, Register, TestAndSet, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

const STRATEGIES: [Reduction; 4] = [
    Reduction::None,
    Reduction::SleepSet,
    Reduction::Symmetry,
    Reduction::SleepSetSymmetry,
];

/// The non-default configuration, sized so the store really spills on these
/// trees (budget 256 bytes = 32 records per shard).
const ALT_BACKENDS: [StoreConfig; 1] = [StoreConfig::Spill {
    shards_log2: 2,
    shard_budget: 256,
}];

/// Folds of the pinned `checkpoint.bin` (see
/// `sequential_checkpoint_bytes_are_pinned`).  `GOLDEN_MEM` was re-recorded
/// (from 0x254b_7417_6400_411e) when the resident store became the spilling
/// one without a budget: its sidecar is now a run of 8-byte records, kind 0,
/// where it was a run of `(key, depth)` pairs, kind 1, so the manifest entry
/// — kind, key range, checksum, byte count — moved and nothing else did.
const GOLDEN_MEM: u64 = 0xd0a2_9425_82cd_c3c9;
const GOLDEN_SPILL: u64 = 0x351e_0fcd_df07_7e51;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "evlin-store-diff-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// One random subject: an implementation, a workload for it, bounds, and the
/// universe its histories are checked against (same construction as
/// `reduction_differential.rs`).
struct Case {
    name: String,
    implementation: Box<dyn Implementation>,
    workload: Workload,
    limits: ExploreOptions,
    universe: ObjectUniverse,
}

fn random_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let processes = rng.gen_range(2..4usize);
    let family = rng.gen_range(0..6u32);
    let ops = if family >= 3 && processes > 2 {
        1
    } else {
        rng.gen_range(1..3usize)
    };
    let mut universe = ObjectUniverse::new();
    let (name, implementation, workload): (String, Box<dyn Implementation>, Workload) = match family
    {
        0 => {
            let ty: Arc<dyn ObjectType> = Arc::new(FetchIncrement::new());
            universe.add_object(FetchIncrement::new());
            (
                format!("local-copy fi ({processes}p×{ops})"),
                Box::new(LocalSpecImplementation::new(ty, processes)),
                Workload::uniform(processes, FetchIncrement::fetch_inc(), ops),
            )
        }
        1 => {
            let ty: Arc<dyn ObjectType> = Arc::new(TestAndSet::new());
            universe.add_object(TestAndSet::new());
            (
                format!("local-copy tas ({processes}p×{ops})"),
                Box::new(LocalSpecImplementation::new(ty, processes)),
                Workload::uniform(processes, TestAndSet::test_and_set(), ops),
            )
        }
        2 => {
            let ty: Arc<dyn ObjectType> = Arc::new(Register::new(Value::from(0i64)));
            universe.add_object(Register::new(Value::from(0i64)));
            let mut invocations = Vec::new();
            for k in 0..ops {
                invocations.push(if k % 2 == 0 {
                    Register::write(Value::from(1i64))
                } else {
                    Register::read()
                });
            }
            (
                format!("local-copy register ({processes}p×{ops})"),
                Box::new(LocalSpecImplementation::new(ty, processes)),
                Workload::new(vec![invocations; processes]),
            )
        }
        3 => {
            universe.add_object(FetchIncrement::new());
            (
                format!("cas fetch&inc ({processes}p×{ops})"),
                Box::new(CasFetchInc::new(processes)),
                Workload::uniform(processes, FetchIncrement::fetch_inc(), ops),
            )
        }
        4 => {
            universe.add_object(FetchIncrement::new());
            (
                format!("noisy-prefix fetch&inc ({processes}p×{ops})"),
                Box::new(NoisyPrefixFetchInc::new(processes, rng.gen_range(0..4i64))),
                Workload::uniform(processes, FetchIncrement::fetch_inc(), ops),
            )
        }
        _ => {
            universe.add_object(FetchIncrement::new());
            (
                format!("gossip fetch&inc ({processes}p×{ops})"),
                Box::new(GossipFetchInc::new(processes)),
                Workload::uniform(processes, FetchIncrement::fetch_inc(), 1.min(ops)),
            )
        }
    };
    Case {
        name,
        implementation,
        workload,
        limits: ExploreOptions {
            max_depth: rng.gen_range(9..12usize),
            max_configs: 2_000_000,
        },
        universe,
    }
}

/// Engine options with deduplication forced on (the store seam is only
/// exercised by deduplicating explorations) and the given backend.
fn options(case: &Case, reduction: Reduction, store: StoreConfig) -> EngineOptions {
    EngineOptions {
        limits: case.limits,
        workers: Some(1),
        reduction,
        dedup: true,
        store,
        ..EngineOptions::default()
    }
}

/// Explores with the given backend, collecting distinct terminal histories.
fn run_with_store(
    case: &Case,
    reduction: Reduction,
    store: StoreConfig,
) -> (engine::ExploreStats, Vec<History>) {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    let max_depth = case.limits.max_depth;
    let stats = engine::explore(
        case.implementation.as_ref(),
        &case.workload,
        &options(case, reduction, store),
        |config, depth| {
            if config.enabled_processes().is_empty() || depth >= max_depth {
                let h = config.history().clone();
                if seen.insert(format!("{h:?}")) {
                    out.push(h);
                }
            }
            Visit::Continue
        },
    );
    assert!(
        !stats.truncated,
        "{}: {reduction:?}/{} truncated — shrink the case",
        case.name,
        store.label()
    );
    (stats, out)
}

fn verdict_set(histories: &[History], universe: &ObjectUniverse) -> BTreeSet<(bool, bool)> {
    histories
        .iter()
        .map(|h| {
            (
                weak_consistency::is_weakly_consistent(h, universe),
                linearizability::is_linearizable(h, universe),
            )
        })
        .collect()
}

fn debug_set(histories: &[History]) -> BTreeSet<String> {
    histories.iter().map(|h| format!("{h:?}")).collect()
}

fn check_backends_seed(seed: u64) {
    let case = random_case(seed);
    for reduction in STRATEGIES {
        let (base_stats, base_terms) = run_with_store(&case, reduction, StoreConfig::Mem);
        assert!(
            !base_terms.is_empty(),
            "seed {seed} ({}): no terminals",
            case.name
        );
        let base_set = debug_set(&base_terms);
        let base_verdicts = verdict_set(&base_terms, &case.universe);
        for backend in ALT_BACKENDS {
            let (stats, terms) = run_with_store(&case, reduction, backend);
            assert_eq!(
                (
                    stats.visited,
                    stats.terminals,
                    stats.pruned,
                    stats.truncated
                ),
                (
                    base_stats.visited,
                    base_stats.terminals,
                    base_stats.pruned,
                    base_stats.truncated
                ),
                "seed {seed} ({}): {reduction:?}/{} changed the engine counts",
                case.name,
                backend.label()
            );
            assert_eq!(
                base_set,
                debug_set(&terms),
                "seed {seed} ({}): {reduction:?}/{} changed the terminal set",
                case.name,
                backend.label()
            );
            assert_eq!(
                base_verdicts,
                verdict_set(&terms, &case.universe),
                "seed {seed} ({}): {reduction:?}/{} changed the verdict set",
                case.name,
                backend.label()
            );
            // The byte accounting responds to the configuration (resident
            // only without a budget, spilled + filter when runs exist) but
            // always totals into `bytes_allocated`.
            assert_eq!(stats.bytes_allocated, stats.store_bytes.total());
            if let StoreConfig::Spill { .. } = backend {
                assert!(
                    stats.store_bytes.spilled > 0 || stats.visited < 128,
                    "seed {seed} ({}): spill backend never spilled {} visited states",
                    case.name,
                    stats.visited
                );
            }
        }
    }
}

fn check_resume_seed(seed: u64) {
    let mut case = random_case(seed);
    // Keep the kill/resume loop cheap: each simulated kill redoes up to one
    // checkpoint interval of work.
    case.limits.max_depth = case.limits.max_depth.min(10);
    let reduction = STRATEGIES[(seed % 4) as usize];
    let backend = if seed.is_multiple_of(2) {
        StoreConfig::Spill {
            shards_log2: 2,
            shard_budget: 256,
        }
    } else {
        StoreConfig::Mem
    };
    let engine_options = options(&case, reduction, backend);

    // Reference 1: the plain engine.
    let (plain_stats, plain_terms) = run_with_store(&case, reduction, backend);

    // Reference 2: an uninterrupted checkpointed run — must equal the plain
    // engine bit-for-bit, byte accounting included.
    let dir_ref = temp_dir("ref");
    let ck_ref = CheckpointOptions {
        interval_visits: 25,
        ..CheckpointOptions::new(&dir_ref)
    };
    let mut seen = BTreeSet::new();
    let reference = checkpoint::explore_checkpointed(
        case.implementation.as_ref(),
        &case.workload,
        &engine_options,
        &ck_ref,
        |config, depth| {
            if config.enabled_processes().is_empty() || depth >= case.limits.max_depth {
                seen.insert(format!("{:?}", config.history()));
            }
            Visit::Continue
        },
    )
    .expect("uninterrupted checkpointed run");
    assert!(reference.completed && !reference.resumed);
    assert_eq!(
        reference.stats, plain_stats,
        "seed {seed} ({}): checkpointed run diverged from the plain engine",
        case.name
    );
    assert_eq!(seen, debug_set(&plain_terms));

    // Kill at random points until done; every process run resumes from the
    // last durable checkpoint and the final stats must match exactly.
    let dir_kill = temp_dir("kill");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
    let mut runs = 0usize;
    let final_stats = loop {
        runs += 1;
        assert!(runs < 10_000, "kill/resume loop made no progress");
        let ck = CheckpointOptions {
            dir: dir_kill.clone(),
            interval_visits: 25,
            // Strictly more than one interval, so every run durably
            // checkpoints before it "crashes".
            abort_after_visits: Some(rng.gen_range(26..90)),
        };
        let run = checkpoint::explore_checkpointed(
            case.implementation.as_ref(),
            &case.workload,
            &engine_options,
            &ck,
            |_, _| Visit::Continue,
        )
        .expect("killed/resumed run");
        assert_eq!(run.resumed, runs > 1);
        if run.completed {
            break run.stats;
        }
    };
    assert_eq!(
        final_stats, reference.stats,
        "seed {seed} ({}): kill/resume diverged from the uninterrupted run after {runs} kills",
        case.name
    );

    // A further invocation hits the done-marker and returns the same stats
    // without re-exploring.
    let ck_done = CheckpointOptions {
        interval_visits: 25,
        ..CheckpointOptions::new(&dir_kill)
    };
    let replay = checkpoint::explore_checkpointed(
        case.implementation.as_ref(),
        &case.workload,
        &engine_options,
        &ck_done,
        |_, _| panic!("a completed checkpoint must not re-visit anything"),
    )
    .expect("done-marker replay");
    assert!(replay.completed && replay.resumed);
    assert_eq!(replay.stats, reference.stats);

    std::fs::remove_dir_all(&dir_ref).ok();
    std::fs::remove_dir_all(&dir_kill).ok();
}

fn check_partitioned_seed(seed: u64) {
    let case = random_case(seed);
    let reduction = STRATEGIES[(seed % 4) as usize];
    let parts_log2 = 1 + (seed % 2) as u32;
    for backend in [
        StoreConfig::Mem,
        StoreConfig::Spill {
            shards_log2: 2,
            shard_budget: 256,
        },
    ] {
        let (single_stats, single_terms) = run_with_store(&case, reduction, backend);
        let mut seen = BTreeSet::new();
        let run = checkpoint::explore_partitioned(
            case.implementation.as_ref(),
            &case.workload,
            &options(&case, reduction, backend),
            parts_log2,
            |config, depth| {
                if config.enabled_processes().is_empty() || depth >= case.limits.max_depth {
                    seen.insert(format!("{:?}", config.history()));
                }
                Visit::Continue
            },
        )
        .expect("partitioned exploration");
        assert_eq!(run.per_partition.len(), 1 << parts_log2);
        assert_eq!(
            (
                run.total.visited,
                run.total.terminals,
                run.total.pruned,
                run.total.truncated
            ),
            (
                single_stats.visited,
                single_stats.terminals,
                single_stats.pruned,
                single_stats.truncated
            ),
            "seed {seed} ({}): {reduction:?}/{} partitioned totals diverged",
            case.name,
            backend.label()
        );
        assert_eq!(
            seen,
            debug_set(&single_terms),
            "seed {seed} ({}): partitioned terminal set diverged",
            case.name
        );
        let partition_sum: usize = run.per_partition.iter().map(|s| s.visited).sum();
        assert_eq!(partition_sum, run.total.visited);
        if backend == StoreConfig::Mem {
            // In-memory bytes are a pure set function, so even the byte
            // accounting recomposes exactly.
            assert_eq!(run.total.store_bytes, single_stats.store_bytes);
        }
        if run.total.visited > 1 && parts_log2 > 0 {
            assert!(
                run.exported > 0,
                "seed {seed} ({}): avalanched keys must cross partitions",
                case.name
            );
        }
    }
}

fn check_parallel_checkpoint_seed(seed: u64) {
    let mut case = random_case(seed);
    case.limits.max_depth = case.limits.max_depth.min(10);
    let reduction = STRATEGIES[(seed % 4) as usize];
    let backend = StoreConfig::Mem;
    let (plain_stats, _) = run_with_store(&case, reduction, backend);
    let dir = temp_dir("par");
    let ck = CheckpointOptions {
        interval_visits: 50,
        ..CheckpointOptions::new(&dir)
    };
    let run = checkpoint::explore_checkpointed_par(
        case.implementation.as_ref(),
        &case.workload,
        &options(&case, reduction, backend),
        &ck,
        |_, _| Visit::Continue,
    )
    .expect("parallel checkpointed run");
    assert!(run.completed);
    // Counts (and in-memory bytes) are worker-order independent set
    // functions; only spill run *boundaries* may differ in parallel.
    assert_eq!(
        (
            run.stats.visited,
            run.stats.terminals,
            run.stats.pruned,
            run.stats.bytes_allocated
        ),
        (
            plain_stats.visited,
            plain_stats.terminals,
            plain_stats.pruned,
            plain_stats.bytes_allocated
        ),
        "seed {seed} ({}): parallel checkpointed counts diverged",
        case.name
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The fixed subject of the golden-bytes and parallel-kill tests: the CAS
/// fetch&increment, 2 processes × 3 operations — under
/// [`Reduction::SleepSetSymmetry`] 3 256 states to depth 14 and 26 060 to
/// depth 20.
fn deep_cas_case(max_depth: usize) -> Case {
    let mut universe = ObjectUniverse::new();
    universe.add_object(FetchIncrement::new());
    Case {
        name: "cas fetch&inc (2p×3)".into(),
        implementation: Box::new(CasFetchInc::new(2)),
        workload: Workload::uniform(2, FetchIncrement::fetch_inc(), 3),
        limits: ExploreOptions {
            max_depth,
            max_configs: 2_000_000,
        },
        universe,
    }
}

/// `checkpoint.bin` as one word: its little-endian words (the tail
/// zero-padded) folded from its byte length.  This spelling predates
/// `codec::fold_bytes` and stays, because the two goldens were recorded with
/// it.
fn fold_checkpoint_file(dir: &std::path::Path) -> u64 {
    let bytes = std::fs::read(dir.join("checkpoint.bin")).expect("read checkpoint.bin");
    let words = bytes.chunks(8).map(|chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(word)
    });
    zobrist::fold_word_iter(bytes.len() as u64, words)
}

/// The sequential driver's checkpoint after 1234 visits (the 24th, written
/// at visit 1200) is pinned byte for byte: stats, store manifest — under
/// the spill backend that is every run file's name, count, key range and
/// checksum — and the frontier in stack order.  The two words were recorded
/// at the commit before the drivers were rebuilt over the engine's one inner
/// loop, so "the EVCK bytes did not move" is a test, not a claim.
#[test]
fn sequential_checkpoint_bytes_are_pinned() {
    let case = deep_cas_case(20);
    for (backend, golden) in [
        (StoreConfig::Mem, GOLDEN_MEM),
        (ALT_BACKENDS[0], GOLDEN_SPILL),
    ] {
        let dir = temp_dir("golden");
        let killed = checkpoint::explore_checkpointed(
            case.implementation.as_ref(),
            &case.workload,
            &options(&case, Reduction::SleepSetSymmetry, backend),
            &CheckpointOptions {
                dir: dir.clone(),
                interval_visits: 50,
                abort_after_visits: Some(1234),
            },
            |_, _| Visit::Continue,
        )
        .expect("killed sequential run");
        assert!(!killed.completed);
        assert_eq!(
            (killed.stats.visited, killed.checkpoints_written),
            (1234, 24)
        );
        assert_eq!(
            fold_checkpoint_file(&dir),
            golden,
            "{}: checkpoint.bin moved",
            backend.label()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// [`CheckpointOptions::interval_visits`] bounds the work a crash loses under
/// the parallel driver too, at every worker count: a run killed mid-flight
/// and resumed re-visits at most one interval of configurations, and the two
/// halves checkpoint exactly as often as the sequential driver does.
#[test]
fn parallel_checkpoints_keep_the_interval_and_a_kill_loses_at_most_one() {
    const INTERVAL: usize = 50;
    // Every checkpoint snapshots the whole visited set, so the shallower
    // tree: 65 full intervals.
    let case = deep_cas_case(14);
    let reduction = Reduction::SleepSetSymmetry;
    let (plain, _) = run_with_store(&case, reduction, StoreConfig::Mem);
    let dir = temp_dir("seq-interval");
    let sequential = checkpoint::explore_checkpointed(
        case.implementation.as_ref(),
        &case.workload,
        &options(&case, reduction, StoreConfig::Mem),
        &CheckpointOptions {
            interval_visits: INTERVAL,
            ..CheckpointOptions::new(&dir)
        },
        |_, _| Visit::Continue,
    )
    .expect("sequential checkpointed run");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(sequential.stats, plain);
    // One per full interval, plus the done marker.
    assert_eq!(
        sequential.checkpoints_written as usize,
        plain.visited / INTERVAL + 1
    );
    for workers in [1, 2, 4] {
        let engine_options = EngineOptions {
            workers: Some(workers),
            ..options(&case, reduction, StoreConfig::Mem)
        };
        let dir = temp_dir("par-kill");
        let calls = AtomicUsize::new(0);
        let count = |_: &evlin_sim::config::Config, _: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            Visit::Continue
        };
        let killed = checkpoint::explore_checkpointed_par(
            case.implementation.as_ref(),
            &case.workload,
            &engine_options,
            &CheckpointOptions {
                dir: dir.clone(),
                interval_visits: INTERVAL,
                abort_after_visits: Some(1234),
            },
            count,
        )
        .expect("killed parallel run");
        assert!(!killed.completed && killed.stats.visited >= 1234);
        let resumed = checkpoint::explore_checkpointed_par(
            case.implementation.as_ref(),
            &case.workload,
            &engine_options,
            &CheckpointOptions {
                interval_visits: INTERVAL,
                ..CheckpointOptions::new(&dir)
            },
            count,
        )
        .expect("resumed parallel run");
        std::fs::remove_dir_all(&dir).ok();
        assert!(resumed.completed && resumed.resumed);
        assert_eq!(resumed.stats, plain, "{workers} workers");
        assert_eq!(
            killed.checkpoints_written + resumed.checkpoints_written,
            sequential.checkpoints_written,
            "{workers} workers checkpointed at another rate than the sequential driver"
        );
        let revisited = calls.load(Ordering::Relaxed) - plain.visited;
        assert!(
            revisited <= INTERVAL,
            "{workers} workers: the kill cost {revisited} re-visits, over the interval of {INTERVAL}"
        );
    }
}

#[test]
fn store_backends_are_observationally_identical() {
    for seed in 0..8 {
        check_backends_seed(seed);
    }
}

#[test]
fn kill_and_resume_reproduces_uninterrupted_stats() {
    for seed in 0..6 {
        check_resume_seed(seed);
    }
}

#[test]
fn partitioned_exploration_recomposes_single_run_totals() {
    for seed in 0..6 {
        check_partitioned_seed(seed);
    }
}

#[test]
fn parallel_checkpointed_run_matches_sequential_counts() {
    for seed in 0..4 {
        check_parallel_checkpoint_seed(seed);
    }
}

#[test]
fn checkpoint_rejects_mismatched_parameters() {
    let case = random_case(1);
    let dir = temp_dir("mismatch");
    let ck = CheckpointOptions::new(&dir);
    checkpoint::explore_checkpointed(
        case.implementation.as_ref(),
        &case.workload,
        &options(&case, Reduction::SleepSet, StoreConfig::Mem),
        &ck,
        |_, _| Visit::Continue,
    )
    .expect("first run");
    // Same directory, different reduction: the config hash must reject it.
    let err = checkpoint::explore_checkpointed(
        case.implementation.as_ref(),
        &case.workload,
        &options(&case, Reduction::Symmetry, StoreConfig::Mem),
        &ck,
        |_, _| Visit::Continue,
    )
    .expect_err("mismatched parameters must not resume");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    std::fs::remove_dir_all(&dir).ok();
}

/// Offset of the store-config tag in `checkpoint.bin`: magic, version, flags,
/// config hash, sequence, three counts and the truncation flag come first
/// (docs/CHECKPOINT.md).
const STORE_TAG_AT: usize = 4 + 2 + 2 + 8 + 8 + 3 * 8 + 1;

/// A spill checkpoint of [`deep_cas_case`] killed at visit 1234, so its
/// manifest names runs and its frontier is not empty; returns the directory
/// and a resume of it.
fn killed_spill_checkpoint(
    tag: &str,
) -> (
    PathBuf,
    impl Fn(&CheckpointOptions) -> std::io::Result<checkpoint::CheckpointRun>,
) {
    let case = deep_cas_case(14);
    let engine_options = options(&case, Reduction::SleepSetSymmetry, ALT_BACKENDS[0]);
    let run = move |ck: &CheckpointOptions| {
        checkpoint::explore_checkpointed(
            case.implementation.as_ref(),
            &case.workload,
            &engine_options,
            ck,
            |_, _| Visit::Continue,
        )
    };
    let dir = temp_dir(tag);
    let killed = run(&CheckpointOptions {
        dir: dir.clone(),
        interval_visits: 50,
        abort_after_visits: Some(1234),
    })
    .expect("killed run");
    assert!(!killed.completed && killed.stats.store_runs > 0);
    (dir, run)
}

/// Store tag 1 (the resident prefix-sharded backend) and run kind 1 (the
/// `(key, depth)` pair sidecars of the old in-memory backend) are retired: a
/// checkpoint that carries either — resealed, so its trailer checksum is
/// good — is refused by name, never read as something else.
#[test]
fn checkpoint_rejects_retired_store_tag_and_run_kind() {
    let (dir, run) = killed_spill_checkpoint("retired");
    let path = dir.join("checkpoint.bin");
    let pristine = std::fs::read(&path).expect("read checkpoint.bin");
    assert_eq!(pristine[STORE_TAG_AT], 2, "a spill store is tag 2");
    // The first run-meta entry: its file name, then its 16-bit kind.
    let kind_at = pristine
        .windows(4)
        .position(|w| w == b".evr")
        .expect("the manifest names a run file")
        + 4;
    assert_eq!(pristine[kind_at..kind_at + 2], [0, 0], "runs are kind 0");
    for (at, needle) in [
        (STORE_TAG_AT, "store config tag 1"),
        (kind_at, "record kind 1"),
    ] {
        let mut bytes = pristine.clone();
        bytes[at] = 1;
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).expect("write the doctored checkpoint");
        let err = run(&CheckpointOptions::new(&dir)).expect_err("a retired code must not resume");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(needle), "{err}");
    }
    // The same file, undoctored, resumes.
    std::fs::write(&path, &pristine).expect("restore the checkpoint");
    assert!(
        run(&CheckpointOptions::new(&dir))
            .expect("resume")
            .completed
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A count read out of a checkpoint sizes nothing before the bytes behind it
/// are there: resealed with shard count `u32::MAX`, frame count `u64::MAX` or
/// a first path length of `u32::MAX`, the checkpoint resumes to
/// `InvalidData` — where each used to abort on its preallocation.
#[test]
fn checkpoint_counts_cannot_size_allocations() {
    let (dir, run) = killed_spill_checkpoint("counts");
    let path = dir.join("checkpoint.bin");
    let pristine = std::fs::read(&path).expect("read checkpoint.bin");
    // Walk the manifest to the frontier (docs/CHECKPOINT.md § EVCK).
    let mut r = Reader::new(&pristine[..pristine.len() - 8]);
    let skip_run_meta = |r: &mut Reader<'_>| {
        r.get::<&str>().expect("run file name");
        r.take(2 + 5 * 8).expect("run meta");
    };
    r.take(STORE_TAG_AT + 13 + 8).expect("fixed fields");
    let shard_count_at = r.at();
    for _ in 0..r.get::<u32>().expect("shard count") {
        for _ in 0..r.get::<u32>().expect("run count") {
            skip_run_meta(&mut r);
        }
        if r.get::<u8>().expect("sidecar option") == 1 {
            skip_run_meta(&mut r);
        }
    }
    let frame_count_at = r.at();
    assert!(r.get::<u64>().expect("frame count") > 0);
    r.get::<u64>().expect("first frame's mask");
    let path_len_at = r.at();
    for (at, width) in [(shard_count_at, 4), (frame_count_at, 8), (path_len_at, 4)] {
        let mut bytes = pristine.clone();
        bytes[at..at + width].fill(0xff);
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).expect("write the doctored checkpoint");
        let err = run(&CheckpointOptions::new(&dir)).expect_err("a doctored count must not resume");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Extended nightly run: `EVLIN_DIFF_CASES` seeds (default 200).
#[test]
#[ignore = "long-running; exercised by the nightly fuzz job"]
fn store_backends_agree_extended() {
    let cases: u64 = std::env::var("EVLIN_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    for seed in 3_000..3_000 + cases {
        check_backends_seed(seed);
    }
}

/// Extended nightly kill/resume + partitioning sweep: `EVLIN_DIFF_CASES`
/// seeds (default 100 — each seed runs a full kill/resume loop).
#[test]
#[ignore = "long-running; exercised by the nightly fuzz job"]
fn resumable_and_partitioned_agree_extended() {
    let cases: u64 = std::env::var("EVLIN_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(|n: u64| n / 2)
        .unwrap_or(100);
    for seed in 4_000..4_000 + cases {
        check_resume_seed(seed);
        check_partitioned_seed(seed);
    }
}
