//! Resumable and partitionable exploration on top of the visited store.
//!
//! Two capabilities live here, both exploiting the fact that the engine's
//! dedup key ([`crate::engine`]'s `dedup_key`) is a single avalanched word:
//!
//! * **Checkpointing** ([`explore_checkpointed`] /
//!   [`explore_checkpointed_par`]): every `interval_visits` visits, the
//!   driver atomically writes `checkpoint.bin` — the engine stats so far, a
//!   manifest (`StoreManifest`) of the visited store and the serialized
//!   frontier (each pending node as its *path of [`ChildStep`]s from the
//!   root* plus its sleep mask) — into the checkpoint directory.  Invoking
//!   the same function on a directory that already holds a checkpoint
//!   resumes: the store is rebuilt from its run files, the frontier is
//!   replayed step-by-step from an identically-initialized root, and the
//!   remaining `max_configs` budget is recomputed, so the continued run's
//!   final [`ExploreStats`] equal the uninterrupted run's — even after a
//!   hard kill (SIGKILL), because snapshots never mutate the live store and
//!   orphaned post-checkpoint run files are garbage-collected on resume.
//!   The file format is specified in `docs/CHECKPOINT.md` and read and
//!   written through the workspace's one byte codec, `evlin_checker::codec`.
//!
//! * **Partitioning** ([`explore_partitioned`]): the dedup-key space is
//!   split into `2^parts_log2` contiguous ranges by top bits — the *same*
//!   routing as the visited store's shards (`crate::zobrist::prefix_shard`)
//!   — and each partition owns the visited set for its range.  A
//!   partition explores its own frontier and *exports* any generated
//!   child whose key belongs elsewhere as a
//!   replayable `(path, mask, key)` record; the owner probes the key
//!   against its store and replays the path only if fresh.  Every generated
//!   edge is therefore probed exactly once, at its key's owner, so the
//!   per-partition visited/terminal/pruned counts sum to the single-run
//!   totals exactly ([`PartitionRun::total`]).  Only paths, masks and keys
//!   cross partition boundaries — all plain words — which is what makes the
//!   same protocol runnable across OS processes.

use crate::config::{Config, StepOutcome};
use crate::engine::{
    self, ChildStep, EngineOptions, ExploreStats, Reducer, SleepMask, Visit, Walk, WalkScratch,
};
use crate::fault::{FaultStep, FaultTarget};
use crate::program::Implementation;
use crate::store::{
    self, annotate, invalid, RunMeta, ShardManifest, StoreConfig, StoreManifest, VisitedStore,
    RUN_KIND_KEYS,
};
use crate::workload::Workload;
use crate::zobrist;
use evlin_checker::codec::{fold_bytes, sync_dir, Encode, Reader};
use evlin_history::ProcessId;
use std::collections::{HashSet, VecDeque};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicUsize;

/// Checkpoint-file magic: `b"EVCK"`.
pub(crate) const CHECKPOINT_MAGIC: [u8; 4] = *b"EVCK";
/// Current checkpoint-format version.
pub(crate) const CHECKPOINT_VERSION: u16 = 1;
/// The checkpoint file name inside the checkpoint directory.
pub(crate) const CHECKPOINT_FILE: &str = "checkpoint.bin";
/// The subdirectory holding the visited store's run files.
pub(crate) const STORE_SUBDIR: &str = "store";

/// Where and how often to checkpoint an exploration.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Checkpoint directory: holds `checkpoint.bin` plus a `store/`
    /// subdirectory of sorted-run files.  Created if missing; a directory
    /// with an existing checkpoint resumes instead of starting fresh.
    pub dir: PathBuf,
    /// Visits between checkpoints (per process run).  The frontier is only
    /// snapshotted at these boundaries, so work since the last checkpoint —
    /// at most this many visits, under either driver and whatever the
    /// worker count — is redone after a crash.
    pub interval_visits: usize,
    /// Test hook simulating a hard kill: stop abruptly after this many
    /// visits *in this process run*, without writing a final checkpoint
    /// (exactly what SIGKILL leaves behind).  `None` in production.
    pub abort_after_visits: Option<usize>,
}

impl CheckpointOptions {
    /// Checkpoint into `dir` every 100k visits.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointOptions {
            dir: dir.into(),
            interval_visits: 100_000,
            abort_after_visits: None,
        }
    }
}

/// The outcome of one (possibly partial) checkpointed process run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointRun {
    /// Engine statistics accumulated across *all* process runs so far
    /// (resumed counts included).  When `completed`, these equal the
    /// uninterrupted run's final stats bit-for-bit.
    pub stats: ExploreStats,
    /// Whether the exploration finished (frontier drained or stopped), as
    /// opposed to being aborted by [`CheckpointOptions::abort_after_visits`].
    pub completed: bool,
    /// Whether this run resumed from an existing checkpoint.
    pub resumed: bool,
    /// Checkpoints written during this process run (including the final
    /// done-marker when `completed`).
    pub checkpoints_written: u64,
}

/// One in-memory frontier node: the materialized configuration plus the
/// replayable edge path that reaches it from the root.
type Frame = engine::Frame<Vec<ChildStep>>;

/// A frontier node as serialized: the path is enough to rebuild the
/// configuration deterministically (`depth == path.len()`).
struct SavedFrame {
    mask: SleepMask,
    path: Vec<ChildStep>,
}

struct SavedCheckpoint {
    stats: ExploreStats,
    seq: u64,
    manifest: StoreManifest,
    frames: Vec<SavedFrame>,
}

/// Explores sequentially with periodic atomic checkpoints, resuming from
/// `ck.dir` if it already holds one.  Deduplication is forced on (the
/// visited store *is* the resumable state); otherwise semantics match
/// [`crate::engine::explore`] with `options` — and for an uninterrupted run
/// the final stats are identical to it.
pub fn explore_checkpointed<F>(
    implementation: &dyn Implementation,
    workload: &Workload,
    options: &EngineOptions,
    ck: &CheckpointOptions,
    mut visitor: F,
) -> io::Result<CheckpointRun>
where
    F: FnMut(&Config, usize) -> Visit,
{
    let (mut session, walk, mut stack) = Session::open(implementation, workload, options, ck, 1)?;
    let mut scratch = WalkScratch::default();
    // The engine's inner loop, an interval at a time (less when the simulated
    // kill comes first): the stack it leaves is the frontier it would have
    // continued from, so a checkpoint between two calls changes nothing of
    // the walk.
    loop {
        let visits = session.visits_before_kill().min(ck.interval_visits).max(1);
        walk.descend(
            &mut stack,
            &AtomicUsize::new(visits),
            &mut visitor,
            &mut session.stats,
            &mut scratch,
        );
        if session.visits_before_kill() == 0 {
            return Ok(session.killed(&walk));
        }
        if stack.is_empty() || walk.halted() {
            return session.finish(&walk);
        }
        session.checkpoint(&walk, &stack)?;
    }
}

/// Parallel [`explore_checkpointed`]: waves of subtree-stealing workers
/// (the visitor is shared, hence `Fn + Sync`; each wave is one
/// [`evlin_checker::parallel::map_ordered`] over [`EngineOptions::workers`]
/// threads) with checkpoints written at wave boundaries.  A wave's workers
/// draw their visits from what is left of the interval, so a checkpoint
/// falls due exactly as often as under the sequential driver.
/// Visited/terminal/pruned counts are worker-count independent exactly as in
/// [`crate::engine::explore_shared`]; for a spilling store, run
/// *boundaries* (and hence the spilled/filter byte split) depend on insert
/// order and may differ across worker counts, while entry counts and
/// verdicts never do.
pub fn explore_checkpointed_par<F>(
    implementation: &dyn Implementation,
    workload: &Workload,
    options: &EngineOptions,
    ck: &CheckpointOptions,
    visitor: F,
) -> io::Result<CheckpointRun>
where
    F: Fn(&Config, usize) -> Visit + Sync,
{
    let workers = options.effective_workers();
    let (mut session, walk, frames) =
        Session::open(implementation, workload, options, ck, (workers * 4).max(16))?;
    let mut frontier = VecDeque::from(frames);
    let interval = ck.interval_visits.max(1);
    let mut since_checkpoint = 0usize;
    loop {
        since_checkpoint += walk.wave(
            &mut frontier,
            workers,
            Some(interval - since_checkpoint),
            &visitor,
            &mut session.stats,
        );
        if session.visits_before_kill() == 0 {
            return Ok(session.killed(&walk));
        }
        if frontier.is_empty() || walk.halted() {
            return session.finish(&walk);
        }
        if since_checkpoint >= interval {
            session.checkpoint(&walk, frontier.make_contiguous())?;
            since_checkpoint = 0;
        }
    }
}

/// Everything both checkpointed drivers share besides the walk itself: fresh
/// start vs resume (store construction/restoration and frontier replay, in
/// [`Session::open`]), the running stats and the checkpoint sequence.
struct Session<'a> {
    ck: &'a CheckpointOptions,
    store_dir: PathBuf,
    hash: u64,
    seq: u64,
    resumed: bool,
    checkpoints_written: u64,
    /// `stats.visited` when this process run began.
    visited_at_start: usize,
    stats: ExploreStats,
}

impl<'a> Session<'a> {
    fn open(
        implementation: &dyn Implementation,
        workload: &Workload,
        options: &EngineOptions,
        ck: &'a CheckpointOptions,
        mem_shards: usize,
    ) -> io::Result<(Session<'a>, Walk, Vec<Frame>)> {
        // The visited store *is* the resumable state, so dedup is forced on.
        let (reducer, root, _) = engine::set_up_root(
            Config::initial(implementation, workload),
            implementation.process_symmetric_hint(),
            options,
            true,
        );
        let hash = config_hash(implementation, workload, options);
        let store_dir = ck.dir.join(STORE_SUBDIR);
        fs::create_dir_all(&store_dir)?;
        let checkpoint_path = ck.dir.join(CHECKPOINT_FILE);
        let resumed = checkpoint_path.exists();
        let (store, stats, seq, frames) = if resumed {
            let saved = read_checkpoint(&checkpoint_path, hash, options.store)?;
            let store = store::restore_store(&saved.manifest, &store_dir, mem_shards)?;
            // Run files written after the checkpoint (the kill window) are
            // unreferenced; remove them before the resumed store reuses
            // their sequence numbers.
            gc_unreferenced(&store_dir, &saved.manifest)?;
            let frames = saved
                .frames
                .iter()
                .map(|f| replay_frame(&root.config, &reducer, f))
                .collect::<io::Result<Vec<Frame>>>()?;
            (store, saved.stats, saved.seq, frames)
        } else {
            let store = options.store.build_in(mem_shards, &store_dir)?;
            let frames = engine::first_frames(root, Some(&store));
            (store, ExploreStats::default(), 0, frames)
        };
        let session = Session {
            ck,
            store_dir,
            hash,
            seq,
            resumed,
            checkpoints_written: 0,
            visited_at_start: stats.visited,
            stats,
        };
        let walk = Walk::new(reducer, options.limits, &session.stats, Some(store));
        Ok((session, walk, frames))
    }

    /// Visits this process run may still make before
    /// [`CheckpointOptions::abort_after_visits`] kills it.
    fn visits_before_kill(&self) -> usize {
        self.ck.abort_after_visits.map_or(usize::MAX, |n| {
            n.saturating_sub(self.stats.visited - self.visited_at_start)
        })
    }

    fn checkpoint(&mut self, walk: &Walk, frames: &[Frame]) -> io::Result<()> {
        let store = walk.store().expect("a checkpointed walk has a store");
        self.seq += 1;
        write_checkpoint(self, store, frames)?;
        self.checkpoints_written += 1;
        Ok(())
    }

    fn run(&self, completed: bool) -> CheckpointRun {
        CheckpointRun {
            stats: self.stats,
            completed,
            resumed: self.resumed,
            checkpoints_written: self.checkpoints_written,
        }
    }

    /// Simulated SIGKILL: walk away mid-flight, leaving only the last
    /// durable checkpoint (and whatever run files the store wrote since) on
    /// disk.
    fn killed(mut self, walk: &Walk) -> CheckpointRun {
        walk.finish_stats(&mut self.stats);
        self.run(false)
    }

    /// The drivers loop until the frontier drains or the walk halts, and
    /// either way nothing is left to resume.  Done marker: an empty-frontier
    /// checkpoint, so a later invocation returns these stats without
    /// re-exploring.
    fn finish(mut self, walk: &Walk) -> io::Result<CheckpointRun> {
        walk.finish_stats(&mut self.stats);
        self.checkpoint(walk, &[])?;
        Ok(self.run(true))
    }
}

/// Rebuilds a frontier configuration by replaying its edge path from the
/// prepared root, normalizing after every step exactly as the engine did
/// when the frame was first produced.
fn replay_frame(root: &Config, reducer: &Reducer, saved: &SavedFrame) -> io::Result<Frame> {
    let mut config = root.clone();
    for step in &saved.path {
        // A step the configuration does not offer — an absent or idle
        // process, a fault that is not enabled — means the checkpoint belongs
        // to another implementation or workload, or was doctored.
        let applied = match *step {
            ChildStep::Exec(p) => {
                p.index() < config.processes() && !matches!(config.step(p), StepOutcome::Idle)
            }
            ChildStep::Fault(f) => {
                let mut offered = false;
                config.for_each_fault(|g| offered |= g == f);
                offered && config.apply_fault(&f)
            }
        };
        if !applied {
            return Err(invalid(format!(
                "frontier path step {step:?} does not apply — checkpoint does not match \
                 this implementation/workload"
            )));
        }
        let mut scratch_mask: SleepMask = 0;
        reducer.normalize(&mut config, &mut scratch_mask);
    }
    Ok(Frame {
        config,
        depth: saved.path.len(),
        mask: saved.mask,
        path: saved.path.clone(),
    })
}

/// The word that pins a checkpoint to its exploration parameters: resuming
/// under a different implementation, workload, reduction, bound or store
/// configuration is rejected with `InvalidData` instead of silently
/// diverging.
fn config_hash(
    implementation: &dyn Implementation,
    workload: &Workload,
    options: &EngineOptions,
) -> u64 {
    let (store_tag, shards_log2, shard_budget) = store_config_words(options.store);
    zobrist::fold_words(
        u64::from_le_bytes(*b"EVCKconf"),
        &[
            zobrist::hash_of(&implementation.name()),
            zobrist::hash_debug(workload),
            zobrist::hash_of(options.reduction.label()),
            options.limits.max_depth as u64,
            options.limits.max_configs as u64,
            options.fault_budget as u64,
            store_tag as u64,
            shards_log2 as u64,
            shard_budget,
        ],
    )
}

// ---------------------------------------------------------------------------
// Checkpoint file, through `evlin_checker::codec` (spec: docs/CHECKPOINT.md)
// ---------------------------------------------------------------------------

/// The seed of the trailer checksum, `fold_bytes("EVCKsumm", body)`.
const CHECKSUM_SEED: u64 = u64::from_le_bytes(*b"EVCKsumm");

/// The least bytes a shard manifest (run count, sidecar option), a run meta
/// (empty name, kind, five words), a frontier frame (mask, path length) and
/// a step take: what [`Reader::capacity`] divides the rest of the file by.
const MIN_SHARD_BYTES: usize = 4 + 1;
const MIN_RUN_META_BYTES: usize = 2 + 2 + 5 * 8;
const MIN_FRAME_BYTES: usize = 8 + 4;
const STEP_BYTES: usize = 1 + 4 + 4;

/// A store configuration as its `(tag, shards_log2, shard_budget)` words, in
/// the checkpoint file and in [`config_hash`].  Tag 1 was the resident
/// prefix-sharded backend, which [`StoreConfig::Mem`] now is; it is retired,
/// not reused.
fn store_config_words(config: StoreConfig) -> (u8, u32, u64) {
    match config {
        StoreConfig::Mem => (0, 0, 0),
        StoreConfig::Spill {
            shards_log2,
            shard_budget,
        } => (2, shards_log2, shard_budget as u64),
    }
}

fn put_run_meta(out: &mut Vec<u8>, meta: &RunMeta) {
    meta.file.as_str().put(out);
    RUN_KIND_KEYS.put(out);
    for word in [meta.count, meta.min, meta.max, meta.checksum, meta.bytes] {
        word.put(out);
    }
}

fn get_run_meta(r: &mut Reader<'_>) -> io::Result<RunMeta> {
    let file = r.get::<&str>()?.to_string();
    let kind = r.get::<u16>()?;
    if kind != RUN_KIND_KEYS {
        return Err(invalid(format!("unknown run record kind {kind}")));
    }
    Ok(RunMeta {
        file,
        count: r.get()?,
        min: r.get()?,
        max: r.get()?,
        checksum: r.get()?,
        bytes: r.get()?,
    })
}

fn put_step(out: &mut Vec<u8>, step: ChildStep) {
    let (tag, index, variant) = match step {
        ChildStep::Exec(p) => (0u8, p.index(), 0),
        ChildStep::Fault(FaultStep { target, variant }) => match target {
            FaultTarget::Object(i) => (1, i, variant),
            FaultTarget::Process(i) => (2, i, variant),
        },
    };
    tag.put(out);
    (index as u32).put(out);
    (variant as u32).put(out);
}

fn get_step(r: &mut Reader<'_>) -> io::Result<ChildStep> {
    let tag = r.get::<u8>()?;
    let index = r.get::<u32>()? as usize;
    let variant = r.get::<u32>()? as usize;
    let target = match tag {
        0 => return Ok(ChildStep::Exec(ProcessId(index))),
        1 => FaultTarget::Object(index),
        2 => FaultTarget::Process(index),
        other => return Err(invalid(format!("unknown frontier step tag {other}"))),
    };
    Ok(ChildStep::Fault(FaultStep { target, variant }))
}

/// Snapshots the store and atomically replaces `checkpoint.bin`
/// (write-to-temp, fsync, fsync `store/`, rename, fsync the directory), then
/// garbage-collects `.evr` files the new manifest no longer references
/// (previous checkpoints' sidecars).
fn write_checkpoint(
    session: &Session<'_>,
    store: &VisitedStore,
    frames: &[Frame],
) -> io::Result<()> {
    let Session {
        ck,
        store_dir,
        hash,
        seq,
        stats,
        ..
    } = session;
    let manifest = store.snapshot(store_dir, *seq)?;
    let mut body = CHECKPOINT_MAGIC.to_vec();
    let out = &mut body;
    CHECKPOINT_VERSION.put(out);
    0u16.put(out); // flags
    let counts = [stats.visited, stats.terminals, stats.pruned].map(|n| n as u64);
    for word in [*hash, *seq].into_iter().chain(counts) {
        word.put(out);
    }
    (stats.truncated as u8).put(out);
    let (tag, shards_log2, shard_budget) = store_config_words(manifest.config);
    tag.put(out);
    shards_log2.put(out);
    shard_budget.put(out);
    manifest.next_seq.put(out);
    let len = |n: usize| u32::try_from(n).expect("shard, run and path counts fit u32");
    len(manifest.shards.len()).put(out);
    for shard in &manifest.shards {
        len(shard.runs.len()).put(out);
        for run in &shard.runs {
            put_run_meta(out, run);
        }
        (shard.active.is_some() as u8).put(out);
        if let Some(meta) = &shard.active {
            put_run_meta(out, meta);
        }
    }
    (frames.len() as u64).put(out);
    for frame in frames {
        frame.mask.put(out);
        len(frame.path.len()).put(out);
        for &step in &frame.path {
            put_step(out, step);
        }
    }
    fold_bytes(CHECKSUM_SEED, out).put(out);
    let tmp = ck.dir.join("checkpoint.tmp");
    let mut file = File::create(&tmp).map_err(|e| annotate(e, &tmp))?;
    file.write_all(&body)?;
    file.sync_all()?;
    drop(file);
    // The sidecars the new manifest names must outlive a power loss as
    // names, not only as contents; and so must the rename, before GC
    // deletes what the old checkpoint named.
    sync_dir(store_dir).map_err(|e| annotate(e, store_dir))?;
    fs::rename(&tmp, ck.dir.join(CHECKPOINT_FILE)).map_err(|e| annotate(e, &tmp))?;
    sync_dir(&ck.dir).map_err(|e| annotate(e, &ck.dir))?;
    gc_unreferenced(store_dir, &manifest)?;
    Ok(())
}

/// Reads a checkpoint written under the parameters `hash` binds, among them
/// `store`, which the manifest must then describe.
fn read_checkpoint(path: &Path, hash: u64, store: StoreConfig) -> io::Result<SavedCheckpoint> {
    let bytes = fs::read(path).map_err(|e| annotate(e, path))?;
    let (body, trailer) = bytes.split_at(bytes.len().saturating_sub(8));
    if Reader::new(trailer).get::<u64>()? != fold_bytes(CHECKSUM_SEED, body) {
        return Err(invalid("checkpoint checksum mismatch".to_string()));
    }
    let mut r = Reader::new(body);
    r.header(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
    let _flags = r.get::<u16>()?;
    if r.get::<u64>()? != hash {
        return Err(invalid(
            "checkpoint was written for different exploration parameters".to_string(),
        ));
    }
    let seq = r.get()?;
    let stats = ExploreStats {
        visited: r.get::<u64>()? as usize,
        terminals: r.get::<u64>()? as usize,
        pruned: r.get::<u64>()? as usize,
        truncated: r.get::<u8>()? != 0,
        ..ExploreStats::default()
    };
    let config_words = (r.get::<u8>()?, r.get()?, r.get()?);
    if config_words != store_config_words(store) {
        let tag = config_words.0;
        return Err(invalid(format!(
            "store config tag {tag} is not this run's store"
        )));
    }
    let next_seq = r.get()?;
    let shard_count = r.get::<u32>()?;
    let mut shards = Vec::with_capacity(r.capacity(shard_count.into(), MIN_SHARD_BYTES));
    for _ in 0..shard_count {
        let run_count = r.get::<u32>()?;
        let mut runs = Vec::with_capacity(r.capacity(run_count.into(), MIN_RUN_META_BYTES));
        for _ in 0..run_count {
            runs.push(get_run_meta(&mut r)?);
        }
        let active = match r.get::<u8>()? {
            0 => None,
            1 => Some(get_run_meta(&mut r)?),
            other => return Err(invalid(format!("bad active-sidecar marker {other}"))),
        };
        shards.push(ShardManifest { runs, active });
    }
    let frame_count = r.get::<u64>()?;
    let mut frames = Vec::with_capacity(r.capacity(frame_count, MIN_FRAME_BYTES));
    for _ in 0..frame_count {
        let mask = r.get()?;
        let path_len = r.get::<u32>()?;
        let mut path = Vec::with_capacity(r.capacity(path_len.into(), STEP_BYTES));
        for _ in 0..path_len {
            path.push(get_step(&mut r)?);
        }
        frames.push(SavedFrame { mask, path });
    }
    if r.remaining() != 0 {
        let at = r.at();
        return Err(invalid(format!("trailing checkpoint bytes at byte {at}")));
    }
    Ok(SavedCheckpoint {
        stats,
        seq,
        manifest: StoreManifest {
            config: store,
            next_seq,
            shards,
        },
        frames,
    })
}

/// Removes `.evr` files in `store_dir` that `manifest` does not reference:
/// sidecars from older checkpoints, and runs written between the last
/// durable checkpoint and a crash (whose sequence numbers the resumed store
/// will reuse).
fn gc_unreferenced(store_dir: &Path, manifest: &StoreManifest) -> io::Result<()> {
    let referenced: HashSet<&str> = manifest.referenced_files().collect();
    for entry in fs::read_dir(store_dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".evr") && !referenced.contains(name) {
            fs::remove_file(entry.path()).map_err(|e| annotate(e, &entry.path()))?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Fingerprint-range partitioning
// ---------------------------------------------------------------------------

/// The recomposed result of a partitioned exploration.
#[derive(Debug, Clone)]
pub struct PartitionRun {
    /// Per-partition engine stats (store bytes are each partition's own).
    pub per_partition: Vec<ExploreStats>,
    /// The exact recomposition: field-wise sum of the partitions.  For a
    /// non-truncated run, `visited`/`terminals`/`pruned` equal a single
    /// dedup-on exploration with the same options; with the default
    /// resident store the byte totals match too.
    pub total: ExploreStats,
    /// Export/import delivery rounds until all frontiers drained.
    pub rounds: usize,
    /// Generated edges whose dedup key belonged to another partition
    /// (each crossed the boundary as a replayable `(path, mask, key)`
    /// record).
    pub exported: usize,
}

/// One cross-partition edge: everything the owning partition needs to probe
/// and (if fresh) replay the child — plain words only, so the identical
/// protocol works across OS processes.
struct Export {
    key: u64,
    depth: usize,
    mask: SleepMask,
    path: Vec<ChildStep>,
}

/// Explores with the dedup-key space split across `2^parts_log2`
/// partitions, each owning the visited store for its key range (configured
/// by `options.store`), scheduled round-robin in this process.  A child
/// generated in the wrong partition is exported to its key's owner, which
/// probes its own store and replays the child's edge path from the root
/// only when fresh — so every generated edge is probed exactly once and the
/// summed stats recompose the single-run totals exactly.  Deduplication is
/// forced on.  The visitor sees every visited configuration (partition
/// order is round-robin deterministic).
pub fn explore_partitioned<F>(
    implementation: &dyn Implementation,
    workload: &Workload,
    options: &EngineOptions,
    parts_log2: u32,
    mut visitor: F,
) -> io::Result<PartitionRun>
where
    F: FnMut(&Config, usize) -> Visit,
{
    let parts = 1usize << parts_log2;
    let (reducer, root, _) = engine::set_up_root(
        Config::initial(implementation, workload),
        implementation.process_symmetric_hint(),
        options,
        true,
    );
    let stores: Vec<VisitedStore> = (0..parts)
        .map(|_| options.store.build(1))
        .collect::<io::Result<_>>()?;
    // No store of its own: every child comes back through `emit`, which
    // routes it to its key's owner.
    let walk = Walk::new(reducer, options.limits, &ExploreStats::default(), None);
    let mut per_partition = vec![ExploreStats::default(); parts];
    let mut stacks: Vec<Vec<Frame>> = (0..parts).map(|_| Vec::new()).collect();
    let mut outboxes: Vec<Vec<Export>> = (0..parts).map(|_| Vec::new()).collect();
    let root_config = root.config.clone();
    let root_owner = zobrist::prefix_shard(engine::dedup_key(&root.config, root.mask), parts_log2);
    stacks[root_owner] = engine::first_frames(root, Some(&stores[root_owner]));
    let mut rounds = 0usize;
    let mut exported = 0usize;
    let mut scratch = WalkScratch::default();
    loop {
        for part in 0..parts {
            let mut pruned_here = 0usize;
            while !walk.halted() {
                let Some(frame) = stacks[part].pop() else {
                    break;
                };
                let stack = &mut stacks[part];
                let outboxes = &mut outboxes;
                let store = &stores[part];
                walk.visit_one(
                    frame,
                    &mut visitor,
                    &mut per_partition[part],
                    &mut scratch,
                    |child| {
                        let key = engine::dedup_key(&child.config, child.mask);
                        let owner = zobrist::prefix_shard(key, parts_log2);
                        if owner != part {
                            exported += 1;
                            outboxes[owner].push(Export {
                                key,
                                depth: child.depth,
                                mask: child.mask,
                                path: child.path,
                            });
                        } else if store.insert(key, child.depth) {
                            stack.push(child);
                        } else {
                            pruned_here += 1;
                        }
                    },
                );
            }
            per_partition[part].pruned += pruned_here;
        }
        if walk.halted() {
            break;
        }
        // Deliver cross-partition edges: the owner probes each key against
        // its store and replays only fresh ones.
        let mut delivered = false;
        for owner in 0..parts {
            let exports: Vec<Export> = outboxes[owner].drain(..).collect();
            for export in exports {
                if stores[owner].insert(export.key, export.depth) {
                    let frame = replay_frame(
                        &root_config,
                        &walk.reducer,
                        &SavedFrame {
                            mask: export.mask,
                            path: export.path,
                        },
                    )?;
                    stacks[owner].push(frame);
                    delivered = true;
                } else {
                    per_partition[owner].pruned += 1;
                }
            }
        }
        if !delivered && stacks.iter().all(|s| s.is_empty()) {
            break;
        }
        rounds += 1;
    }
    // The walk has no store of its own, so this only latches truncation.
    let mut total = ExploreStats::default();
    walk.finish_stats(&mut total);
    for (stats, store) in per_partition.iter_mut().zip(&stores) {
        let report = store.report();
        stats.store_bytes = report.bytes;
        stats.bytes_allocated = report.bytes.total();
        stats.store_runs = report.runs_written;
        stats.truncated = total.truncated;
        total.visited += stats.visited;
        total.terminals += stats.terminals;
        total.pruned += stats.pruned;
        total.store_runs += report.runs_written;
        total.store_bytes.resident += report.bytes.resident;
        total.store_bytes.spilled += report.bytes.spilled;
        total.store_bytes.filter += report.bytes.filter;
    }
    total.bytes_allocated = total.store_bytes.total();
    Ok(PartitionRun {
        per_partition,
        total,
        rounds,
        exported,
    })
}
