//! The visited set of the exploration engine.
//!
//! The engine's deduplication set is the state ceiling of every exhaustive
//! run: the reductions cut the *number* of visited states by orders of
//! magnitude and the dedup key is a single incrementally-maintained Zobrist
//! field read, but the key *set* itself has to live somewhere.  It lives in
//! one type, [`VisitedStore`]: each `(key, depth)` pair is folded to a single
//! 64-bit *record* and routed to one of `2^shards_log2` lock shards by its
//! top bits (`crate::zobrist::prefix_shard`, the same routing the
//! partitioner uses), and each shard is a hash set of records that *may
//! spill*.  [`StoreConfig`] says whether it does:
//!
//! * [`StoreConfig::Mem`] — no budget: every record stays resident, 8 bytes
//!   each.  The shard count only spreads lock contention (one shard for a
//!   sequential walk).  The default.
//! * [`StoreConfig::Spill`] — a per-shard resident budget: when a shard's
//!   active set reaches it, the set is flushed to disk as a compressed sorted
//!   *run* (delta-varint encoding with restart points through
//!   `evlin_checker::codec`, see `docs/CHECKPOINT.md`), and membership checks
//!   consult an in-memory Bloom filter + fence index per run before touching
//!   the file, so the hot path stays a couple of word mixes for fresh keys.
//!
//! Either way the store reports itself as a [`StoreReport`] (entry count,
//! runs written, and a resident / spilled / filter byte breakdown) and can
//! `snapshot` itself into a directory as part of a checkpoint
//! ([`crate::checkpoint`]), from which `restore_store` rebuilds an equivalent
//! store after a process restart — including a hard kill.
//!
//! ## Exactness
//!
//! A record is `mix2(key, depth)` — one avalanched 64-bit word per pair — so
//! two distinct pairs collide with probability `2^-64`, the same collision
//! class already accepted for the Zobrist fingerprints that feed `key`.
//! Bloom filters only ever produce false *positives*, which the subsequent
//! run probe resolves exactly against the stored records; a record absent
//! from every filter is definitively fresh.  The unit tests here compare
//! every insert verdict of both configurations with a plain
//! `HashSet<(u64, usize)>`, and `crates/sim/tests/store_differential.rs`
//! checks the two against each other on seeded random configurations.

use crate::zobrist;
use evlin_checker::codec::{Encode, Reader, Varint};
use std::collections::HashSet;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Byte accounting of a visited store, split by residence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreBytes {
    /// Bytes held in RAM by the active (unspilled) record sets.
    pub resident: usize,
    /// Bytes written to disk as sorted runs (headers + payload).
    pub spilled: usize,
    /// Bytes held in RAM by the per-run Bloom filters.
    pub filter: usize,
}

impl StoreBytes {
    /// Total footprint across residences.
    pub fn total(&self) -> usize {
        self.resident + self.spilled + self.filter
    }
}

/// A point-in-time summary of a visited store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreReport {
    /// Distinct records stored (active + spilled).
    pub entries: usize,
    /// Sorted runs flushed to disk so far (0 for a resident store).
    pub runs_written: usize,
    /// Byte breakdown (see [`StoreBytes`]).
    pub bytes: StoreBytes,
}

/// Sizes the visited store and says whether it spills.  `Copy` so it can
/// ride inside [`crate::engine::EngineOptions`]; directory choices are made
/// at build time ([`StoreConfig::build`] / `StoreConfig::build_in`), not
/// carried here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreConfig {
    /// Fully resident (default): no budget, and as many lock shards as the
    /// walk asks for.
    #[default]
    Mem,
    /// Spill-to-disk: a shard whose active set reaches `shard_budget` bytes
    /// is flushed as a sorted run.
    Spill {
        /// log2 of the shard count (`0` = one shard).
        shards_log2: u32,
        /// Hard per-shard resident budget in bytes (8 per record); the
        /// post-insert resident size of every shard stays below it.
        shard_budget: usize,
    },
}

/// Monotonic counter distinguishing spill directories created by one
/// process (combined with the pid for cross-process uniqueness).
static SPILL_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

impl StoreConfig {
    /// The configuration's display name for tables, bench ids and logs.
    pub fn label(&self) -> &'static str {
        match self {
            StoreConfig::Mem => "mem",
            StoreConfig::Spill { .. } => "spill",
        }
    }

    /// Builds the store.  `mem_shards` sizes [`Mem`](StoreConfig::Mem)'s
    /// lock sharding, rounded up to a power of two (the engine passes 1
    /// sequentially and a multiple of the worker count in parallel; the
    /// record *set* is the same either way).  A [`Spill`](StoreConfig::Spill)
    /// store gets a fresh private directory under the system temp dir,
    /// removed when the store is dropped; `build_in` keeps runs in a
    /// caller-owned directory (checkpointing does).
    pub fn build(&self, mem_shards: usize) -> io::Result<VisitedStore> {
        let dir = matches!(self, StoreConfig::Spill { .. }).then(|| {
            std::env::temp_dir().join(format!(
                "evlin-spill-{}-{}",
                std::process::id(),
                SPILL_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
            ))
        });
        VisitedStore::new(*self, mem_shards, dir, true)
    }

    /// Like [`build`](StoreConfig::build), but a spill store writes its runs
    /// into `dir` (created if missing) and leaves them on disk when dropped —
    /// the checkpointing mode, where the run files outlive the process.
    pub(crate) fn build_in(&self, mem_shards: usize, dir: &Path) -> io::Result<VisitedStore> {
        let dir = matches!(self, StoreConfig::Spill { .. }).then(|| dir.to_path_buf());
        VisitedStore::new(*self, mem_shards, dir, false)
    }
}

/// A hash set of records.  They come out of [`zobrist::mix2`] already
/// avalanched, so the table hashes them with the crate's word mixer instead
/// of SipHash.
type KeySet = HashSet<u64, zobrist::FxBuildHasher>;

/// Folds a `(key, depth)` dedup pair into the single 64-bit *record* the
/// store keeps and routes on.  Avalanched, so its top bits are a uniform
/// shard/partition prefix.
#[inline]
pub(crate) fn record_of(key: u64, depth: usize) -> u64 {
    zobrist::mix2(key, depth as u64)
}

/// Number of records between restart points in a sorted run (each restart
/// stores its full key and anchors one fence), bounding both the decode
/// work of a single membership probe and the fence index size.
pub(crate) const RUN_RESTART_INTERVAL: usize = 256;

/// The visited set of one exploration: records routed by their top
/// `shards_log2` bits, one active `HashSet<u64>` per shard, spilling full
/// shards to disk as sorted runs when it has a budget
/// ([`StoreConfig::Spill`]).
///
/// It is shared by every worker of the exploration, and insertions are
/// linearizable per record: for each distinct `(key, depth)` pair exactly
/// one caller across all threads observes `true`.  Stats determinism across
/// worker counts follows — the *set* of first-visits is a function of the
/// reachable keys, not of interleaving.
///
/// A spilling store that hits an I/O error during [`insert`] (which cannot
/// return one) panics with the failing path: a half-written visited set
/// would silently unprune states, so dying loudly is the only sound response
/// mid-exploration.
///
/// [`insert`]: VisitedStore::insert
pub struct VisitedStore {
    config: StoreConfig,
    shards_log2: u32,
    /// Per-shard resident budget in bytes: a shard whose active set reaches
    /// it is flushed.  `None` for a resident store, which never flushes.
    shard_budget: Option<usize>,
    dir: Option<PathBuf>,
    delete_on_drop: bool,
    next_seq: AtomicU64,
    shards: Vec<Mutex<Shard>>,
}

struct Shard {
    active: KeySet,
    runs: Vec<Run>,
    /// Reused encode/flush buffer.
    scratch: Vec<u8>,
    /// Reused probe block buffer.
    block: Vec<u8>,
    /// Reused sort buffer for flushes.
    sorted: Vec<u64>,
}

/// A poisoned shard is still a consistent set (a panicking inserter dies
/// between, not inside, its updates), so the lock is taken regardless.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One immutable sorted run on disk plus its in-memory probe accelerators.
struct Run {
    meta: RunMeta,
    file: File,
    bloom: Bloom,
    fences: Vec<Fence>,
}

/// A restart-point index entry: the first (full) key of a block and its
/// byte offset within the run payload.
#[derive(Debug, Clone, Copy)]
struct Fence {
    first_key: u64,
    offset: u64,
}

/// A blocked Bloom-style filter over one run's records: power-of-two bit
/// count (≥ 64, ~8 bits per record), 3 probes derived from two `mix`
/// rounds.  No false negatives by construction.
struct Bloom {
    words: Vec<u64>,
    mask: u64,
}

impl Bloom {
    fn build(records: &[u64]) -> Bloom {
        let bits = (records.len() as u64 * 8).next_power_of_two().max(64);
        let mut bloom = Bloom {
            words: vec![0u64; (bits / 64) as usize],
            mask: bits - 1,
        };
        for &r in records {
            for idx in bloom.indices(r) {
                bloom.words[(idx / 64) as usize] |= 1 << (idx % 64);
            }
        }
        bloom
    }

    #[inline]
    fn indices(&self, record: u64) -> [u64; 3] {
        let h1 = zobrist::mix(record);
        // Odd stride so the probe sequence walks the whole power-of-two
        // table.
        let h2 = zobrist::mix(h1) | 1;
        [
            h1 & self.mask,
            h1.wrapping_add(h2) & self.mask,
            h1.wrapping_add(h2.wrapping_mul(2)) & self.mask,
        ]
    }

    #[inline]
    fn may_contain(&self, record: u64) -> bool {
        self.indices(record)
            .iter()
            .all(|&idx| self.words[(idx / 64) as usize] & (1 << (idx % 64)) != 0)
    }

    fn bytes(&self) -> usize {
        self.words.len() * 8
    }
}

impl VisitedStore {
    fn new(
        config: StoreConfig,
        mem_shards: usize,
        dir: Option<PathBuf>,
        delete_on_drop: bool,
    ) -> io::Result<Self> {
        let (shards_log2, shard_budget) = match config {
            StoreConfig::Mem => (mem_shards.max(1).next_power_of_two().trailing_zeros(), None),
            StoreConfig::Spill {
                shards_log2,
                shard_budget,
            } => (shards_log2, Some(shard_budget.max(8))),
        };
        assert!(shards_log2 < 24, "2^{shards_log2} shards is unreasonable");
        if let Some(dir) = &dir {
            std::fs::create_dir_all(dir)?;
        }
        // A budgeted shard never holds more than its budget: size it once.
        let capacity = shard_budget.map_or(0, |budget| (budget / 8).min(1 << 20));
        Ok(VisitedStore {
            config,
            shards_log2,
            shard_budget,
            dir,
            delete_on_drop,
            next_seq: AtomicU64::new(0),
            shards: (0..1usize << shards_log2)
                .map(|_| {
                    Mutex::new(Shard {
                        active: KeySet::with_capacity_and_hasher(capacity, Default::default()),
                        runs: Vec::new(),
                        scratch: Vec::new(),
                        block: Vec::new(),
                        sorted: Vec::new(),
                    })
                })
                .collect(),
        })
    }

    /// Records `(key, depth)`; returns whether it was absent before (the
    /// caller should expand the child iff `true`).
    pub fn insert(&self, key: u64, depth: usize) -> bool {
        let record = record_of(key, depth);
        let shard_index = zobrist::prefix_shard(record, self.shards_log2);
        self.insert_record(shard_index, &mut lock(&self.shards[shard_index]), record)
    }

    /// Batched [`insert`](VisitedStore::insert): pushes one freshness flag
    /// per pair onto `fresh`, in order, exactly as the obvious loop would —
    /// duplicate pairs inside one batch included.  The engine probes all
    /// children of a node in one call, and a one-shard store (the sequential
    /// walk's) takes its lock once per node instead of once per child.
    pub(crate) fn insert_batch(&self, pairs: &[(u64, usize)], fresh: &mut Vec<bool>) {
        if let [shard] = &self.shards[..] {
            let mut shard = lock(shard);
            fresh.extend(
                pairs
                    .iter()
                    .map(|&(k, d)| self.insert_record(0, &mut shard, record_of(k, d))),
            );
        } else {
            fresh.extend(pairs.iter().map(|&(k, d)| self.insert(k, d)));
        }
    }

    /// Inserts `record` into its (locked) shard.
    fn insert_record(&self, shard_index: usize, shard: &mut Shard, record: u64) -> bool {
        if shard.runs.is_empty() {
            // Nothing spilled (a resident store always): one hash probe.
            if !shard.active.insert(record) {
                return false;
            }
        } else {
            if shard.active.contains(&record) {
                return false;
            }
            // Newest runs first: recently spilled records are the likeliest
            // repeats in a depth-first walk.
            for ri in (0..shard.runs.len()).rev() {
                if run_contains(&mut shard.runs[ri], record, &mut shard.block)
                    .unwrap_or_else(|e| panic!("visited-store run probe failed: {e}"))
                {
                    return false;
                }
            }
            shard.active.insert(record);
        }
        if self
            .shard_budget
            .is_some_and(|budget| shard.active.len() * 8 >= budget)
        {
            self.flush_shard(shard_index, shard)
                .unwrap_or_else(|e| panic!("visited-store spill failed: {e}"));
        }
        true
    }

    /// Flushes `shard`'s active set as one sorted run file and clears it.
    fn flush_shard(&self, shard_index: usize, shard: &mut Shard) -> io::Result<()> {
        let dir = self
            .dir
            .as_ref()
            .expect("spill stores always have a directory");
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        shard.sorted.clear();
        shard.sorted.extend(shard.active.iter().copied());
        shard.sorted.sort_unstable();
        let name = format!("run-{shard_index}-{seq}.evr");
        let path = dir.join(&name);
        let (meta, fences) = write_keys_run(&path, name, &shard.sorted, &mut shard.scratch)?;
        shard.runs.push(Run {
            meta,
            file: File::open(&path).map_err(|e| annotate(e, &path))?,
            bloom: Bloom::build(&shard.sorted),
            fences,
        });
        shard.active.clear();
        Ok(())
    }

    /// Current entry count and byte breakdown.
    pub fn report(&self) -> StoreReport {
        let mut report = StoreReport::default();
        for shard in &self.shards {
            let shard = lock(shard);
            report.entries += shard.active.len();
            report.bytes.resident += shard.active.len() * 8;
            for run in &shard.runs {
                report.entries += run.meta.count as usize;
                report.runs_written += 1;
                report.bytes.spilled += run.meta.bytes as usize;
                report.bytes.filter += run.bloom.bytes();
            }
        }
        report
    }

    /// Writes the store's in-memory state into `dir` as sorted-run sidecar
    /// files (named with checkpoint sequence `seq`) and returns the manifest
    /// describing every file needed to rebuild the store.  Does *not* mutate
    /// the store: the active sets are dumped, not flushed, so a resumed
    /// exploration's future run boundaries — and with them the final
    /// [`StoreReport`] — match the uninterrupted run's exactly.
    pub(crate) fn snapshot(&self, dir: &Path, seq: u64) -> io::Result<StoreManifest> {
        std::fs::create_dir_all(dir)?;
        // The manifest references run files by name inside `dir`; a spill
        // store built elsewhere cannot be snapshotted into a different
        // directory without copying runs, which checkpointing never needs
        // (it builds the store with `build_in`).
        if let Some(own) = self.dir.as_ref().filter(|own| *own != dir) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "spill store writes runs under {} but was asked to snapshot into {}",
                    own.display(),
                    dir.display()
                ),
            ));
        }
        let mut shards = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let mut guard = lock(shard);
            let shard = &mut *guard;
            shard.sorted.clear();
            shard.sorted.extend(shard.active.iter().copied());
            shard.sorted.sort_unstable();
            let active = if shard.sorted.is_empty() {
                None
            } else {
                let name = format!("active-{i}-{seq}.evr");
                Some(write_keys_run(&dir.join(&name), name, &shard.sorted, &mut shard.scratch)?.0)
            };
            shards.push(ShardManifest {
                runs: shard.runs.iter().map(|r| r.meta.clone()).collect(),
                active,
            });
        }
        Ok(StoreManifest {
            config: self.config,
            next_seq: self.next_seq.load(Ordering::Relaxed),
            shards,
        })
    }
}

impl Drop for VisitedStore {
    fn drop(&mut self) {
        if self.delete_on_drop {
            if let Some(dir) = &self.dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Manifests and restore
// ---------------------------------------------------------------------------

/// Metadata of one sorted-run file, as referenced by a [`StoreManifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RunMeta {
    /// File name (relative to the checkpoint/store directory).
    pub(crate) file: String,
    /// Number of records.
    pub(crate) count: u64,
    /// Smallest record.
    pub(crate) min: u64,
    /// Largest record.
    pub(crate) max: u64,
    /// `fold_words` checksum over the decoded records.
    pub(crate) checksum: u64,
    /// Total file size in bytes (header + payload).
    pub(crate) bytes: u64,
}

/// Per-shard slice of a [`StoreManifest`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ShardManifest {
    /// Spilled runs, oldest first (probe order is newest first).
    pub(crate) runs: Vec<RunMeta>,
    /// Sidecar dump of the active set at snapshot time, if non-empty.
    pub(crate) active: Option<RunMeta>,
}

/// Everything needed to rebuild a [`VisitedStore`] from a directory of run
/// files: its configuration, the run-naming sequence counter and one
/// [`ShardManifest`] per shard.  Serialized into the checkpoint file by
/// [`crate::checkpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StoreManifest {
    /// The configuration of the store this manifest describes.
    pub(crate) config: StoreConfig,
    /// Next run sequence number (so a resumed store never reuses a name).
    pub(crate) next_seq: u64,
    /// Per-shard run lists and active-set sidecars.
    pub(crate) shards: Vec<ShardManifest>,
}

impl StoreManifest {
    /// Every file name the manifest references (runs + sidecars), used by
    /// the checkpointer to garbage-collect orphaned `.evr` files.
    pub(crate) fn referenced_files(&self) -> impl Iterator<Item = &str> {
        self.shards.iter().flat_map(|s| {
            s.runs
                .iter()
                .map(|r| r.file.as_str())
                .chain(s.active.iter().map(|r| r.file.as_str()))
        })
    }
}

/// Rebuilds the store a [`StoreManifest`] describes from the run files in
/// `dir`, verifying every checksum.  Spilled runs are reopened in their
/// shard; sidecar records are re-inserted by prefix, so a resident store may
/// come back with another lock-shard count (`mem_shards`) than it was
/// snapshotted with.
pub(crate) fn restore_store(
    manifest: &StoreManifest,
    dir: &Path,
    mem_shards: usize,
) -> io::Result<VisitedStore> {
    let store = manifest.config.build_in(mem_shards, dir)?;
    let spills = store.shard_budget.is_some();
    if spills && manifest.shards.len() != store.shards.len() {
        return Err(invalid(format!(
            "manifest has {} shards but the config declares {}",
            manifest.shards.len(),
            store.shards.len()
        )));
    }
    store.next_seq.store(manifest.next_seq, Ordering::Relaxed);
    for (i, shard_manifest) in manifest.shards.iter().enumerate() {
        for meta in &shard_manifest.runs {
            if !spills {
                return Err(invalid(
                    "resident store manifest references spilled runs".to_string(),
                ));
            }
            let run = open_keys_run(&dir.join(&meta.file), meta)?;
            lock(&store.shards[i]).runs.push(run);
        }
        if let Some(meta) = &shard_manifest.active {
            for record in read_keys_run(&dir.join(&meta.file), meta)?.0 {
                let owner = zobrist::prefix_shard(record, store.shards_log2);
                lock(&store.shards[owner]).active.insert(record);
            }
        }
    }
    Ok(store)
}

// ---------------------------------------------------------------------------
// Sorted runs, through `evlin_checker::codec` (byte-level spec: docs/CHECKPOINT.md)
// ---------------------------------------------------------------------------

/// Run-file magic: `b"EVRN"`.
pub(crate) const RUN_MAGIC: [u8; 4] = *b"EVRN";
/// Current run-format version.
pub(crate) const RUN_VERSION: u16 = 1;
/// Run header size in bytes.
pub(crate) const RUN_HEADER_BYTES: usize = 40;
/// The one record layout a run holds: pre-folded 64-bit records.  It is the
/// header's `kind` field and the seed of the run checksum; kind 1 (verbatim
/// `(key, depth)` pairs) is retired and refused.
pub(crate) const RUN_KIND_KEYS: u16 = 0;

pub(crate) fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Encodes sorted `records` into `buf` (cleared) with a restart point every
/// [`RUN_RESTART_INTERVAL`] records, returning the fence index.
fn encode_keys(records: &[u64], buf: &mut Vec<u8>) -> Vec<Fence> {
    buf.clear();
    let mut fences = Vec::with_capacity(records.len() / RUN_RESTART_INTERVAL + 1);
    let mut previous = 0u64;
    for (i, &record) in records.iter().enumerate() {
        if i % RUN_RESTART_INTERVAL == 0 {
            fences.push(Fence {
                first_key: record,
                offset: buf.len() as u64,
            });
            Varint(record).put(buf);
        } else {
            Varint(record - previous).put(buf);
        }
        previous = record;
    }
    fences
}

/// Attaches the offending path to an I/O error (std leaves it off, which
/// makes store failures undiagnosable from the message alone).
pub(crate) fn annotate(err: io::Error, path: &Path) -> io::Error {
    io::Error::new(err.kind(), format!("{}: {err}", path.display()))
}

/// Writes sorted `records` as a run at `path` and returns its metadata and
/// fence index.
fn write_keys_run(
    path: &Path,
    name: String,
    records: &[u64],
    scratch: &mut Vec<u8>,
) -> io::Result<(RunMeta, Vec<Fence>)> {
    debug_assert!(
        records.windows(2).all(|w| w[0] < w[1]),
        "records sorted+unique"
    );
    let fences = encode_keys(records, scratch);
    let meta = RunMeta {
        file: name,
        count: records.len() as u64,
        min: records.first().copied().unwrap_or(0),
        max: records.last().copied().unwrap_or(0),
        checksum: zobrist::fold_words(RUN_KIND_KEYS as u64, records),
        bytes: (RUN_HEADER_BYTES + scratch.len()) as u64,
    };
    let mut header = RUN_MAGIC.to_vec();
    RUN_VERSION.put(&mut header);
    RUN_KIND_KEYS.put(&mut header);
    for word in [meta.count, meta.min, meta.max, meta.checksum] {
        word.put(&mut header);
    }
    let mut writer = File::create(path).map_err(|e| annotate(e, path))?;
    writer.write_all(&header)?;
    writer.write_all(scratch)?;
    writer.sync_all()?;
    Ok((meta, fences))
}

/// Fully decodes a run, verifying its header against `meta` and its
/// checksum, and returns the records and the fence index — the offsets
/// where the restart points actually are, so even a varint written longer
/// than it needs misplaces no fence.
fn read_keys_run(path: &Path, meta: &RunMeta) -> io::Result<(Vec<u64>, Vec<Fence>)> {
    let bytes = std::fs::read(path).map_err(|e| annotate(e, path))?;
    decode_keys_run(&bytes, meta).map_err(|e| annotate(e, path))
}

fn decode_keys_run(bytes: &[u8], meta: &RunMeta) -> io::Result<(Vec<u64>, Vec<Fence>)> {
    let mut reader = Reader::new(bytes);
    reader.header(&RUN_MAGIC, RUN_VERSION)?;
    let kind = reader.get::<u16>()?;
    if kind != RUN_KIND_KEYS {
        return Err(invalid(format!("unknown run record kind {kind}")));
    }
    let count = reader.get::<u64>()?;
    if [count, reader.get()?, reader.get()?, reader.get()?]
        != [meta.count, meta.min, meta.max, meta.checksum]
        || bytes.len() as u64 != meta.bytes
    {
        return Err(invalid("run header disagrees with the manifest".into()));
    }
    // Every record takes at least one payload byte.
    let mut records = Vec::with_capacity(reader.capacity(count, 1));
    let mut fences = Vec::with_capacity(records.capacity() / RUN_RESTART_INTERVAL + 1);
    let mut previous = 0u64;
    for i in 0..count {
        let at = reader.at();
        let Varint(value) = reader.get()?;
        let record = if i % RUN_RESTART_INTERVAL as u64 == 0 {
            fences.push(Fence {
                first_key: value,
                offset: (at - RUN_HEADER_BYTES) as u64,
            });
            value
        } else {
            previous
                .checked_add(value)
                .ok_or_else(|| invalid(format!("key delta overflow at byte {at}")))?
        };
        records.push(record);
        previous = record;
    }
    if reader.remaining() != 0 {
        return Err(invalid(format!("trailing bytes at byte {}", reader.at())));
    }
    if zobrist::fold_words(RUN_KIND_KEYS as u64, &records) != meta.checksum {
        return Err(invalid("run checksum mismatch".to_string()));
    }
    Ok((records, fences))
}

/// Reopens a run for probing: full decode once (which verifies the
/// checksum) to rebuild the Bloom filter and fence index, then the records
/// are dropped — membership probes go through the file.
fn open_keys_run(path: &Path, meta: &RunMeta) -> io::Result<Run> {
    let (records, fences) = read_keys_run(path, meta)?;
    Ok(Run {
        meta: meta.clone(),
        file: File::open(path).map_err(|e| annotate(e, path))?,
        bloom: Bloom::build(&records),
        fences,
    })
}

/// Membership probe against one run: range check, Bloom filter, fence
/// binary search, then a single block read (≤ [`RUN_RESTART_INTERVAL`]
/// records decoded) from the file.
fn run_contains(run: &mut Run, record: u64, block: &mut Vec<u8>) -> io::Result<bool> {
    if record < run.meta.min || record > run.meta.max || !run.bloom.may_contain(record) {
        return Ok(false);
    }
    // Last fence whose first key is <= record.
    let idx = match run.fences.partition_point(|f| f.first_key <= record) {
        0 => return Ok(false),
        n => n - 1,
    };
    if run.fences[idx].first_key == record {
        return Ok(true);
    }
    let start = run.fences[idx].offset;
    let end = run
        .fences
        .get(idx + 1)
        .map_or(run.meta.bytes - RUN_HEADER_BYTES as u64, |f| f.offset);
    block.resize((end - start) as usize, 0);
    run.file
        .seek(SeekFrom::Start(RUN_HEADER_BYTES as u64 + start))?;
    run.file.read_exact(block)?;
    let mut reader = Reader::new(block);
    let Varint(mut key) = reader.get()?;
    while key < record && reader.remaining() > 0 {
        let Varint(delta) = reader.get()?;
        key = key
            .checked_add(delta)
            .ok_or_else(|| invalid("key delta overflow in run block".to_string()))?;
    }
    Ok(key == record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "evlin-store-test-{tag}-{}-{}",
            std::process::id(),
            SPILL_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    /// A spill configuration small enough that a few hundred records write
    /// several runs per shard.
    const SPILL: StoreConfig = StoreConfig::Spill {
        shards_log2: 2,
        shard_budget: 128,
    };

    /// Deterministic pseudo-random records for codec tests.
    fn sample_records(count: usize, seed: u64) -> Vec<u64> {
        let mut records: Vec<u64> = (0..count as u64).map(|i| zobrist::mix2(seed, i)).collect();
        records.sort_unstable();
        records.dedup();
        records
    }

    #[test]
    fn keys_run_roundtrips_across_restart_boundaries() {
        let dir = temp_dir("roundtrip");
        let records = sample_records(1000, 7);
        assert!(records.len() > RUN_RESTART_INTERVAL * 3);
        let mut scratch = Vec::new();
        let (meta, fences) =
            write_keys_run(&dir.join("r.evr"), "r.evr".into(), &records, &mut scratch).unwrap();
        assert_eq!(meta.count as usize, records.len());
        assert_eq!(fences.len(), records.len().div_ceil(RUN_RESTART_INTERVAL));
        let (decoded, fences) = read_keys_run(&dir.join("r.evr"), &meta).unwrap();
        assert_eq!(fences.len(), records.len().div_ceil(RUN_RESTART_INTERVAL));
        assert_eq!(decoded, records);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A varint spelled longer than it needs (`… 80 00`) decodes to the same
    /// record; the fences are where the restart points are, so every later
    /// probe still lands on its block.
    #[test]
    fn an_overlong_varint_misplaces_no_fence() {
        let dir = temp_dir("overlong");
        let records = sample_records(600, 5);
        let mut scratch = Vec::new();
        let path = dir.join("r.evr");
        let (mut meta, _) = write_keys_run(&path, "r.evr".into(), &records, &mut scratch).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The second record is a delta: re-spell its last byte overlong.
        let mut at = RUN_HEADER_BYTES;
        while bytes[at] & 0x80 != 0 {
            at += 1;
        }
        at += 1;
        while bytes[at] & 0x80 != 0 {
            at += 1;
        }
        bytes[at] |= 0x80;
        bytes.insert(at + 1, 0);
        std::fs::write(&path, &bytes).unwrap();
        meta.bytes += 1;
        let mut run = open_keys_run(&path, &meta).unwrap();
        let mut block = Vec::new();
        for &r in &records {
            assert!(
                run_contains(&mut run, r, &mut block).unwrap(),
                "lost {r:#x}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_probe_finds_every_present_and_no_absent_record() {
        let dir = temp_dir("probe");
        let records = sample_records(700, 11);
        let mut scratch = Vec::new();
        let (meta, _) =
            write_keys_run(&dir.join("r.evr"), "r.evr".into(), &records, &mut scratch).unwrap();
        let mut run = open_keys_run(&dir.join("r.evr"), &meta).unwrap();
        let mut block = Vec::new();
        for &r in &records {
            assert!(
                run_contains(&mut run, r, &mut block).unwrap(),
                "lost {r:#x}"
            );
        }
        let present: HashSet<u64> = records.iter().copied().collect();
        for i in 0..2000u64 {
            let absent = zobrist::mix2(999, i);
            if !present.contains(&absent) {
                assert!(!run_contains(&mut run, absent, &mut block).unwrap());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let records = sample_records(500, 3);
        let bloom = Bloom::build(&records);
        for &r in &records {
            assert!(bloom.may_contain(r));
        }
    }

    /// A seeded stream of `(key, depth)` pairs in which about half the
    /// inserts repeat an earlier pair, some of them back to back.  Keys are
    /// salted away from `mix(small)`: with `key == mix(depth)` the folded
    /// record degenerates to `mix(0)` for every depth (the 2⁻⁶⁴ collision
    /// class hit on purpose), which is not what these tests are about.
    fn key_stream(len: usize, seed: u64) -> Vec<(u64, usize)> {
        let mut state = zobrist::mix(seed);
        let mut next = move || {
            state = zobrist::mix(state);
            state
        };
        let mut stream: Vec<(u64, usize)> = Vec::with_capacity(len);
        while stream.len() < len {
            let pair = match next() % 4 {
                0 if !stream.is_empty() => stream[next() as usize % stream.len()],
                1 if !stream.is_empty() => stream[stream.len() - 1],
                // Same key, another depth: a different pair.
                2 if !stream.is_empty() => (stream[stream.len() - 1].0, (next() % 7) as usize),
                _ => (zobrist::mix(0x5eed ^ next()), (next() % 7) as usize),
            };
            stream.push(pair);
        }
        stream
    }

    /// The store is a set of `(key, depth)` pairs: whatever its sharding and
    /// whether or not it spills, every verdict — one at a time and batched —
    /// is the exact model's.
    #[test]
    fn store_has_set_semantics_and_exact_byte_accounting() {
        for (config, mem_shards) in [(StoreConfig::Mem, 1), (StoreConfig::Mem, 5), (SPILL, 1)] {
            let store = config.build(mem_shards).unwrap();
            let mut model: HashSet<(u64, usize)> = HashSet::new();
            let stream = key_stream(3000, 0xabcd ^ mem_shards as u64);
            let (singles, batches) = stream.split_at(1500);
            for (i, &(k, d)) in singles.iter().enumerate() {
                assert_eq!(
                    store.insert(k, d),
                    model.insert((k, d)),
                    "{}/{mem_shards}: insert {i} disagrees with the model",
                    config.label()
                );
            }
            let mut fresh = Vec::new();
            for (i, batch) in batches.chunks(4).enumerate() {
                fresh.clear();
                store.insert_batch(batch, &mut fresh);
                let expected: Vec<bool> = batch.iter().map(|&pair| model.insert(pair)).collect();
                assert_eq!(
                    fresh,
                    expected,
                    "{}/{mem_shards}: batch {i} disagrees with the model",
                    config.label()
                );
            }
            assert!(model.len() > 1000 && model.len() < 2500, "repeats and news");
            let report = store.report();
            assert_eq!(report.entries, model.len());
            if config == StoreConfig::Mem {
                assert_eq!(store.shards.len(), mem_shards.next_power_of_two());
                assert_eq!(report.runs_written, 0);
                assert_eq!(report.bytes.resident, 8 * model.len());
                assert_eq!(report.bytes.spilled + report.bytes.filter, 0);
            } else {
                assert!(report.runs_written > 8, "budget 128 must force spills");
                assert!(report.bytes.spilled > 0 && report.bytes.filter > 0);
            }
        }
    }

    #[test]
    fn spill_store_flushes_runs_and_respects_resident_budget() {
        let config = StoreConfig::Spill {
            shards_log2: 2,
            shard_budget: 256,
        };
        let store = config.build(1).unwrap();
        let mut inserted = Vec::new();
        for i in 0..4000u64 {
            let key = zobrist::mix(i);
            assert!(store.insert(key, 3), "fresh key {i} rejected");
            inserted.push(key);
            // The satellite invariant: post-insert resident bytes never
            // exceed shards × budget (each shard flushes at its line).
            let report = store.report();
            assert!(
                report.bytes.resident <= 4 * 256,
                "resident {} exceeds the configured budget after insert {i}",
                report.bytes.resident
            );
        }
        let report = store.report();
        assert_eq!(report.entries, 4000);
        assert!(report.runs_written > 0, "budget 256 must force spills");
        assert!(report.bytes.spilled > 0 && report.bytes.filter > 0);
        // Every record stays a duplicate across flush boundaries…
        for &key in &inserted {
            assert!(!store.insert(key, 3), "spilled key resurfaced as fresh");
        }
        // …and fresh records stay fresh (different depth salts the record).
        assert!(store.insert(inserted[0], 4));
        assert_eq!(store.report().entries, 4001);
    }

    #[test]
    fn resident_store_routes_by_top_bits_and_never_spills() {
        let store = StoreConfig::Mem.build(8).unwrap();
        for i in 0..500u64 {
            assert!(store.insert(zobrist::mix(i), 0));
        }
        let report = store.report();
        assert_eq!((report.entries, report.runs_written), (500, 0));
        assert_eq!(report.bytes.resident, 500 * 8);
        // Routing agrees with the shared prefix function.
        let record = record_of(zobrist::mix(1), 0);
        let expected = zobrist::prefix_shard(record, 3);
        let occupied: Vec<usize> = (0..8)
            .filter(|&i| !store.shards[i].lock().unwrap().active.is_empty())
            .collect();
        assert!(occupied.contains(&expected));
        assert!(occupied.len() > 1, "500 mixed records must span shards");
    }

    #[test]
    fn snapshot_restore_roundtrips_membership_and_bytes() {
        // A resident store comes back under any lock-shard count (the
        // sequential driver writes with 1, the parallel one resumes with 16).
        for (config, shards_before, shards_after) in [
            (StoreConfig::Mem, 1, 16),
            (StoreConfig::Mem, 16, 1),
            (SPILL, 2, 2),
        ] {
            let dir = temp_dir(config.label());
            let store = config.build_in(shards_before, &dir).unwrap();
            let mut pairs = key_stream(600, 42);
            pairs.sort_unstable();
            pairs.dedup();
            for (i, &(k, d)) in pairs.iter().enumerate() {
                assert!(
                    store.insert(k, d),
                    "{}: fresh pair {i} rejected",
                    config.label()
                );
            }
            let before = store.report();
            let manifest = store.snapshot(&dir, 42).unwrap();
            assert_eq!(manifest.config, config);
            // Snapshot must not mutate: the live store still reports the
            // same breakdown and still rejects duplicates.
            assert_eq!(store.report(), before);
            assert!(!store.insert(pairs[0].0, pairs[0].1));
            drop(store);

            let restored = restore_store(&manifest, &dir, shards_after).unwrap();
            assert_eq!(restored.report(), before, "{}", config.label());
            for &(k, d) in &pairs {
                assert!(!restored.insert(k, d), "{}: lost a record", config.label());
            }
            assert!(restored.insert(zobrist::mix(9999), 1));
            let after = restored.report();
            assert_eq!(after.entries, before.entries + 1, "{}", config.label());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A spill store of one shard with 200 records in it, snapshotted.
    fn snapshotted_spill_store(tag: &str) -> (PathBuf, StoreManifest) {
        let dir = temp_dir(tag);
        let config = StoreConfig::Spill {
            shards_log2: 0,
            shard_budget: 64,
        };
        let store = config.build_in(1, &dir).unwrap();
        for i in 0..200u64 {
            store.insert(zobrist::mix(i), 0);
        }
        let manifest = store.snapshot(&dir, 0).unwrap();
        (dir, manifest)
    }

    fn restore_error(manifest: &StoreManifest, dir: &Path) -> io::Error {
        match restore_store(manifest, dir, 1) {
            Ok(_) => panic!("restore accepted a damaged store"),
            Err(err) => err,
        }
    }

    #[test]
    fn restore_rejects_corrupted_runs() {
        let (dir, manifest) = snapshotted_spill_store("corrupt");
        // Flip one payload byte of the first referenced file.
        let victim = dir.join(manifest.referenced_files().next().unwrap());
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        std::fs::write(&victim, &bytes).unwrap();
        let err = restore_error(&manifest, &dir);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Record kind 1 was the verbatim `(key, depth)` pair layout of the
    /// retired in-memory backend's sidecars: a run that claims it is refused,
    /// not decoded as records.
    #[test]
    fn restore_rejects_a_run_of_the_retired_pair_kind() {
        let (dir, manifest) = snapshotted_spill_store("kind");
        let victim = dir.join(manifest.referenced_files().next().unwrap());
        let mut bytes = std::fs::read(&victim).unwrap();
        assert_eq!(bytes[6..8], [0, 0], "runs are written with kind 0");
        bytes[6] = 1;
        std::fs::write(&victim, &bytes).unwrap();
        let err = restore_error(&manifest, &dir);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("record kind 1"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restore_rejects_a_resident_manifest_with_spilled_runs() {
        let (dir, mut manifest) = snapshotted_spill_store("resident-runs");
        manifest.config = StoreConfig::Mem;
        let err = restore_error(&manifest, &dir);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_temp_directory_is_removed_on_drop() {
        let config = StoreConfig::Spill {
            shards_log2: 0,
            shard_budget: 64,
        };
        let store = config.build(1).unwrap();
        for i in 0..100u64 {
            store.insert(zobrist::mix(i), 0);
        }
        assert!(store.report().runs_written > 0);
        let dir = store.dir.clone().expect("a spill store has a directory");
        assert!(dir.is_dir());
        drop(store);
        assert!(
            !dir.exists(),
            "the private spill directory outlived its store"
        );
    }
}
