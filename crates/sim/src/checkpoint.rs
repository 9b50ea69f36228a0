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
//!   The byte-level file format is specified in `docs/CHECKPOINT.md`.
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
    self, annotate, RunMeta, ShardManifest, StoreConfig, StoreManifest, VisitedStore, RUN_KIND_KEYS,
};
use crate::workload::Workload;
use crate::zobrist;
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
            let saved = read_checkpoint(&checkpoint_path, hash)?;
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
        match *step {
            ChildStep::Exec(p) => {
                if matches!(config.step(p), StepOutcome::Idle) {
                    return Err(invalid(
                        "frontier path steps an idle process — checkpoint does not match \
                         this implementation/workload"
                            .to_string(),
                    ));
                }
            }
            ChildStep::Fault(f) => {
                if !config.apply_fault(&f) {
                    return Err(invalid(
                        "frontier path applies an inapplicable fault — checkpoint does \
                         not match this implementation/workload"
                            .to_string(),
                    ));
                }
            }
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
// Checkpoint file codec (byte-level spec in docs/CHECKPOINT.md)
// ---------------------------------------------------------------------------

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Folds a byte buffer into the checkpoint trailer checksum: little-endian
/// words (zero-padded tail) plus the byte length, through
/// [`zobrist::fold_words`].
fn checksum_bytes(bytes: &[u8]) -> u64 {
    let mut words: Vec<u64> = bytes
        .chunks(8)
        .map(|chunk| {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(word)
        })
        .collect();
    words.push(bytes.len() as u64);
    zobrist::fold_words(u64::from_le_bytes(*b"EVCKsumm"), &words)
}

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.u16(u16::try_from(bytes.len()).expect("run file names are short"));
        self.buf.extend_from_slice(bytes);
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| invalid("truncated checkpoint".to_string()))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }
    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn str(&mut self) -> io::Result<String> {
        let len = self.u16()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| invalid("run file name is not UTF-8".to_string()))
    }
}

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

fn encode_store_config(enc: &mut Enc, config: StoreConfig) {
    let (tag, shards_log2, shard_budget) = store_config_words(config);
    enc.u8(tag);
    enc.u32(shards_log2);
    enc.u64(shard_budget);
}

fn decode_store_config(dec: &mut Dec<'_>) -> io::Result<StoreConfig> {
    let tag = dec.u8()?;
    let shards_log2 = dec.u32()?;
    let shard_budget = dec.u64()? as usize;
    match tag {
        0 => Ok(StoreConfig::Mem),
        2 => Ok(StoreConfig::Spill {
            shards_log2,
            shard_budget,
        }),
        other => Err(invalid(format!("unknown store config tag {other}"))),
    }
}

fn encode_run_meta(enc: &mut Enc, meta: &RunMeta) {
    enc.str(&meta.file);
    enc.u16(RUN_KIND_KEYS);
    enc.u64(meta.count);
    enc.u64(meta.min);
    enc.u64(meta.max);
    enc.u64(meta.checksum);
    enc.u64(meta.bytes);
}

fn decode_run_meta(dec: &mut Dec<'_>) -> io::Result<RunMeta> {
    let file = dec.str()?;
    let kind = dec.u16()?;
    if kind != RUN_KIND_KEYS {
        return Err(invalid(format!("unknown run record kind {kind}")));
    }
    Ok(RunMeta {
        file,
        count: dec.u64()?,
        min: dec.u64()?,
        max: dec.u64()?,
        checksum: dec.u64()?,
        bytes: dec.u64()?,
    })
}

fn encode_step(enc: &mut Enc, step: ChildStep) {
    match step {
        ChildStep::Exec(p) => {
            enc.u8(0);
            enc.u32(p.index() as u32);
            enc.u32(0);
        }
        ChildStep::Fault(FaultStep { target, variant }) => {
            let (tag, index) = match target {
                FaultTarget::Object(i) => (1u8, i),
                FaultTarget::Process(i) => (2u8, i),
            };
            enc.u8(tag);
            enc.u32(index as u32);
            enc.u32(variant as u32);
        }
    }
}

fn decode_step(dec: &mut Dec<'_>) -> io::Result<ChildStep> {
    let tag = dec.u8()?;
    let index = dec.u32()? as usize;
    let variant = dec.u32()? as usize;
    match tag {
        0 => Ok(ChildStep::Exec(ProcessId(index))),
        1 => Ok(ChildStep::Fault(FaultStep {
            target: FaultTarget::Object(index),
            variant,
        })),
        2 => Ok(ChildStep::Fault(FaultStep {
            target: FaultTarget::Process(index),
            variant,
        })),
        other => Err(invalid(format!("unknown frontier step tag {other}"))),
    }
}

/// Snapshots the store and atomically replaces `checkpoint.bin`
/// (write-to-temp, fsync, rename), then garbage-collects `.evr` files the
/// new manifest no longer references (previous checkpoints' sidecars).
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
    let mut enc = Enc { buf: Vec::new() };
    enc.buf.extend_from_slice(&CHECKPOINT_MAGIC);
    enc.u16(CHECKPOINT_VERSION);
    enc.u16(0); // flags
    enc.u64(0); // config hash patched below
    enc.u64(*seq);
    enc.u64(stats.visited as u64);
    enc.u64(stats.terminals as u64);
    enc.u64(stats.pruned as u64);
    enc.u8(stats.truncated as u8);
    encode_store_config(&mut enc, manifest.config);
    enc.u64(manifest.next_seq);
    enc.u32(u32::try_from(manifest.shards.len()).expect("shard count fits u32"));
    for shard in &manifest.shards {
        enc.u32(u32::try_from(shard.runs.len()).expect("run count fits u32"));
        for run in &shard.runs {
            encode_run_meta(&mut enc, run);
        }
        match &shard.active {
            None => enc.u8(0),
            Some(meta) => {
                enc.u8(1);
                encode_run_meta(&mut enc, meta);
            }
        }
    }
    enc.u64(frames.len() as u64);
    for frame in frames {
        enc.u64(frame.mask);
        enc.u32(u32::try_from(frame.path.len()).expect("path length fits u32"));
        for &step in &frame.path {
            encode_step(&mut enc, step);
        }
    }
    let mut body = enc.buf;
    body[8..16].copy_from_slice(&hash.to_le_bytes());
    let checksum = checksum_bytes(&body);
    body.extend_from_slice(&checksum.to_le_bytes());
    let tmp = ck.dir.join("checkpoint.tmp");
    let mut file = File::create(&tmp).map_err(|e| annotate(e, &tmp))?;
    file.write_all(&body)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, ck.dir.join(CHECKPOINT_FILE)).map_err(|e| annotate(e, &tmp))?;
    gc_unreferenced(store_dir, &manifest)?;
    Ok(())
}

fn read_checkpoint(path: &Path, expected_hash: u64) -> io::Result<SavedCheckpoint> {
    let bytes = fs::read(path).map_err(|e| annotate(e, path))?;
    if bytes.len() < 8 {
        return Err(invalid("checkpoint shorter than its checksum".to_string()));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let checksum = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    if checksum_bytes(body) != checksum {
        return Err(invalid("checkpoint checksum mismatch".to_string()));
    }
    let mut dec = Dec { buf: body, pos: 0 };
    if dec.take(4)? != CHECKPOINT_MAGIC {
        return Err(invalid("bad checkpoint magic".to_string()));
    }
    let version = dec.u16()?;
    if version != CHECKPOINT_VERSION {
        return Err(invalid(format!(
            "checkpoint version {version} (supported: {CHECKPOINT_VERSION})"
        )));
    }
    let _flags = dec.u16()?;
    let hash = dec.u64()?;
    if hash != expected_hash {
        return Err(invalid(
            "checkpoint was written for different exploration parameters".to_string(),
        ));
    }
    let seq = dec.u64()?;
    let stats = ExploreStats {
        visited: dec.u64()? as usize,
        terminals: dec.u64()? as usize,
        pruned: dec.u64()? as usize,
        truncated: dec.u8()? != 0,
        ..ExploreStats::default()
    };
    let config = decode_store_config(&mut dec)?;
    let next_seq = dec.u64()?;
    let shard_count = dec.u32()? as usize;
    let mut shards = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let run_count = dec.u32()? as usize;
        let mut runs = Vec::with_capacity(run_count);
        for _ in 0..run_count {
            runs.push(decode_run_meta(&mut dec)?);
        }
        let active = match dec.u8()? {
            0 => None,
            1 => Some(decode_run_meta(&mut dec)?),
            other => return Err(invalid(format!("bad active-sidecar marker {other}"))),
        };
        shards.push(ShardManifest { runs, active });
    }
    let frame_count = dec.u64()? as usize;
    let mut frames = Vec::with_capacity(frame_count);
    for _ in 0..frame_count {
        let mask = dec.u64()?;
        let path_len = dec.u32()? as usize;
        let mut path = Vec::with_capacity(path_len);
        for _ in 0..path_len {
            path.push(decode_step(&mut dec)?);
        }
        frames.push(SavedFrame { mask, path });
    }
    if dec.pos != body.len() {
        return Err(invalid(
            "trailing bytes after checkpoint frontier".to_string(),
        ));
    }
    Ok(SavedCheckpoint {
        stats,
        seq,
        manifest: StoreManifest {
            config,
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
