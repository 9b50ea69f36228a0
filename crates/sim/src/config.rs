//! Configurations of the simulated system.
//!
//! A configuration bundles the state of every shared base object, the
//! programme state of every process, each process's remaining workload, and
//! the high-level history recorded so far.  Configurations are cheap to clone
//! (everything is an owned value), which is what the execution-tree explorer,
//! the valency analysis and the stable-configuration search rely on.

use crate::base::{BaseObject, PidDependence};
use crate::engine::SymmetryReduction;
use crate::fault::{FaultStep, FaultTarget};
use crate::program::{Implementation, ProcessLogic, TaskStep};
use crate::workload::Workload;
use crate::zobrist::{self, TAG_EVENT, TAG_OBJECT, TAG_PROCESS};
use evlin_history::{Event, History, ObjectId, ProcessId};
use evlin_spec::Value;
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};

/// What happened when a process was given one step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// The process performed an internal or base-object step of its current
    /// operation; the operation is still running.
    Progressed,
    /// The process completed its current high-level operation with the given
    /// response.
    Completed(Value),
    /// The process has no operation to run (its workload is exhausted).
    Idle,
}

/// The *shape* of the next atomic step of a process, as seen by the
/// step-independence oracle of [`crate::engine`]: whether the step records a
/// history event and, for mid-operation base-object accesses, which object
/// it touches and whether it changes that object's state.
///
/// Two steps *commute* (executing them in either order reaches the same
/// configuration) iff both are [`StepShape::Access`]es to disjoint base
/// objects, or to the same object with neither writing.  Operation starts and
/// completions append to the recorded history, whose event order is part of
/// the configuration, so they never commute with anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepShape {
    /// The step starts a new high-level operation (records an invocation
    /// event).
    Start,
    /// A mid-operation access to a base object (records nothing).
    Access {
        /// Index of the base object the step accesses.
        object: usize,
        /// Whether the access changes the object's state (observed on its
        /// `Debug` rendering, which for the state machines in this workspace
        /// prints every field).
        writes: bool,
    },
    /// The step completes the current operation (records a response event).
    Complete,
}

#[derive(Clone, Debug)]
struct ProcessState {
    logic: Box<dyn ProcessLogic>,
    /// Remaining high-level operations to perform.
    remaining: VecDeque<evlin_spec::Invocation>,
    /// Whether an operation is currently being executed, and the response of
    /// the last base-object access to feed into the next step.
    running: bool,
    last_response: Option<Value>,
    completed: usize,
}

/// Largest process count for which the per-(process, rename-target) history
/// components are maintained (the symmetry reduction needs them for up to
/// [`crate::engine::SymmetryReduction::MAX_PROCESSES`] = 6 processes; beyond
/// this bound permuted fingerprints fall back to a physical rename).
const MAX_TRACKED_PROCESSES: usize = 16;

/// The incrementally maintained Zobrist fingerprint of a configuration (see
/// [`crate::zobrist`]): one XOR-folded [`zobrist::component`] per base
/// object, per process state and per recorded history event.
///
/// Every mutation of the configuration updates exactly the components it
/// touches — a step rehashes one process state and at most one base object,
/// an event append folds in one event key per rename target — so
/// [`Config::fingerprint`] is a field read instead of a full-state
/// serialization.
#[derive(Clone, Default)]
struct Fingerprint {
    /// Content hash of each base object's state (its `Debug` rendering).
    obj_raw: Vec<u64>,
    /// Content hash of each process state.
    proc_raw: Vec<u64>,
    /// XOR of all object components (`component(TAG_OBJECT, i, obj_raw[i])`).
    obj_fold: u64,
    /// XOR of all process components.
    proc_fold: u64,
    /// XOR of all identity event components (`ev(k, p, body)` for the event
    /// at position `k` by process `p`).
    hist_id: u64,
    /// `hist[p * n + q]`: XOR of the event components of process `p`'s events
    /// *as if* `p` were renamed to `q` — what lets a permuted fingerprint
    /// fold `n` precomputed words instead of rehashing the history.  Empty
    /// when the configuration has more than [`MAX_TRACKED_PROCESSES`]
    /// processes.
    hist: Vec<u64>,
}

/// The key of the event at position `k` by (renamed) process `q` with
/// content hash `body`.
#[inline]
fn ev_key(k: usize, q: usize, body: u64) -> u64 {
    zobrist::component(TAG_EVENT, zobrist::mix2(k as u64, q as u64), body)
}

impl Fingerprint {
    /// The combined fingerprint.
    #[inline]
    fn current(&self) -> u64 {
        self.obj_fold ^ self.proc_fold ^ self.hist_id
    }

    fn tracks_renames(&self, n: usize) -> bool {
        self.hist.len() == n * n
    }

    /// Folds the event at position `k` by process `p` into the history
    /// components.
    fn push_event(&mut self, n: usize, k: usize, p: usize, body: u64) {
        self.hist_id ^= ev_key(k, p, body);
        if self.tracks_renames(n) {
            for q in 0..n {
                self.hist[p * n + q] ^= ev_key(k, q, body);
            }
        }
    }

    /// What renaming process `i` to `target` contributes to the fingerprint:
    /// its state component in the new slot plus its events' components under
    /// the new name.  Needs the rename rows.
    #[inline]
    fn rename_cost(&self, n: usize, i: usize, target: usize) -> u64 {
        zobrist::component(TAG_PROCESS, target as u64, self.proc_raw[i]) ^ self.hist[i * n + target]
    }

    /// Replaces the content hash of base object `i`.
    fn set_obj(&mut self, i: usize, raw: u64) {
        self.obj_fold ^= zobrist::component(TAG_OBJECT, i as u64, self.obj_raw[i])
            ^ zobrist::component(TAG_OBJECT, i as u64, raw);
        self.obj_raw[i] = raw;
    }

    /// Replaces the content hash of process `i`'s state.
    fn set_proc(&mut self, i: usize, raw: u64) {
        self.proc_fold ^= zobrist::component(TAG_PROCESS, i as u64, self.proc_raw[i])
            ^ zobrist::component(TAG_PROCESS, i as u64, raw);
        self.proc_raw[i] = raw;
    }
}

/// The content hash of one process state (programme state by `Debug`,
/// progress flags, in-flight response, remaining workload) — the same fields
/// the pre-incremental fingerprint serialized.
fn proc_content(state: &ProcessState) -> u64 {
    let mut hasher = zobrist::FxHasher::default();
    zobrist::hash_debug(&state.logic).hash(&mut hasher);
    state.running.hash(&mut hasher);
    state.last_response.hash(&mut hasher);
    state.completed.hash(&mut hasher);
    state.remaining.hash(&mut hasher);
    hasher.finish()
}

/// The content hash of one history event's body (object and kind; the
/// process id is folded separately so renamings can be applied per process).
fn event_body(event: &Event) -> u64 {
    let mut hasher = zobrist::FxHasher::default();
    event.object.hash(&mut hasher);
    event.kind.hash(&mut hasher);
    hasher.finish()
}

/// The index of the first least key (0 when there are none): the strict `<`
/// keeps the first index on ties, as [`split_walk`] does for the keys it
/// forms with one XOR each.
fn first_min(keys: impl Iterator<Item = u64>) -> usize {
    let mut best = (u64::MAX, 0);
    for (i, key) in keys.enumerate() {
        if key < best.0 {
            best = (key, i);
        }
    }
    best.1
}

/// The largest group [`Config::canonical_permutation`] walks through tables.
const MAX_GROUP: usize = SymmetryReduction::MAX_PROCESSES;

/// `SUFFIX_ORDERS[s]`: the `s!` orders of a suffix of `s ≤ 3` targets, in
/// lexicographic order, as positions in the suffix's sorted target set.
const SUFFIX_ORDERS: [&[[usize; 3]]; 4] = [
    &[],
    &[[0, 0, 0]],
    &[[0, 1, 0], [1, 0, 0]],
    &[
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ],
];

/// `SUBSET_RANK[set]`: the rank of a target set (a bit mask) among the sets
/// of as many targets, in increasing mask order — the row of
/// [`split_walk`]'s suffix table that the set owns.
const SUBSET_RANK: [u8; 1 << MAX_GROUP] = {
    let mut rank = [0; 1 << MAX_GROUP];
    let mut next = [0; MAX_GROUP + 1];
    let mut set = 0;
    while set < rank.len() {
        let size = (set as u32).count_ones() as usize;
        rank[set] = next[size];
        next[size] += 1;
        set += 1;
    }
    rank
};

/// `SUFFIX_SETS[s][rank]`: the targets, in increasing order, of the set of
/// `s ≤ 3` targets with that [`SUBSET_RANK`] (at most `C(6, 3) = 20` of
/// them).  The sets of `s` targets below `n` are the first `C(n, s)`.
const SUFFIX_SETS: [[[u8; 3]; 20]; 4] = {
    let mut sets = [[[0; 3]; 20]; 4];
    let mut set = 0;
    while set < SUBSET_RANK.len() {
        let size = (set as u32).count_ones() as usize;
        if size <= 3 {
            let (mut bits, mut k) = (set, 0);
            while bits != 0 {
                sets[size][SUBSET_RANK[set] as usize][k] = bits.trailing_zeros() as u8;
                bits &= bits - 1;
                k += 1;
            }
        }
        set += 1;
    }
    sets
};

/// [`Config::canonical_permutation`] for a group of `2 ≤ n ≤ MAX_GROUP`
/// processes: the first index of the lexicographic group minimizing
/// `obj(index) ^ XOR_i cost[i][perm[i]]`.
fn split_first_min(
    n: usize,
    cost: &[[u64; MAX_GROUP]; MAX_GROUP],
    obj: impl Fn(usize) -> u64,
) -> usize {
    // `<N, C(N, s), s!>` with `s = min(3, N − 1)`: the suffix table's shape,
    // so a small group pays no set-up sized for a large one.
    match n {
        2 => split_walk::<2, 2, 1>(cost, obj),
        3 => split_walk::<3, 3, 2>(cost, obj),
        4 => split_walk::<4, 4, 6>(cost, obj),
        5 => split_walk::<5, 10, 6>(cost, obj),
        _ => split_walk::<6, 20, 6>(cost, obj),
    }
}

/// [`split_first_min`] for `N` processes.
///
/// In lexicographic order a renaming's index is `prefix_rank · s! +
/// suffix_rank`: the prefix is its first `N − s` targets, the suffix its
/// last `s = min(3, N − 1)`, ranked among the targets the prefix left.  So
/// the suffixes' cost words are XORed once per call into `ROWS` rows (one
/// per `s`-set of targets, in [`SUBSET_RANK`] order) of `ORDERS = s!`
/// words, the prefixes are walked in lexicographic order keeping each one's
/// XOR, and each candidate is one XOR of its prefix's word with a row word
/// (and of `obj(index)`, which is 0 unless a base object is pid-dependent).
fn split_walk<const N: usize, const ROWS: usize, const ORDERS: usize>(
    cost: &[[u64; MAX_GROUP]; MAX_GROUP],
    obj: impl Fn(usize) -> u64,
) -> usize {
    let s = 3.min(N - 1);
    let m = N - s;
    let full: usize = (1 << N) - 1;
    let sets_below = (0..=full).filter(|set| set.count_ones() as usize == s);
    debug_assert_eq!((sets_below.count(), SUFFIX_ORDERS[s].len()), (ROWS, ORDERS));
    let mut rows = [[0u64; ORDERS]; ROWS];
    for (row, set) in rows.iter_mut().zip(&SUFFIX_SETS[s]) {
        for (word, order) in row.iter_mut().zip(SUFFIX_ORDERS[s]) {
            *word = (0..s).fold(0, |w, k| w ^ cost[m + k][usize::from(set[order[k]])]);
        }
    }
    let mut best = (u64::MAX, 0);
    let mut index = 0;
    let mut leaf = |prefix: u64, used: usize| {
        for (j, word) in rows[usize::from(SUBSET_RANK[full ^ used])]
            .iter()
            .enumerate()
        {
            let key = obj(index + j) ^ prefix ^ word;
            if key < best.0 {
                best = (key, index + j);
            }
        }
        index += ORDERS;
    };
    let free = |used: usize| (0..N).filter(move |t| used >> t & 1 == 0);
    for a in 0..N {
        let (key, used) = (cost[0][a], 1 << a);
        if m == 1 {
            leaf(key, used);
            continue;
        }
        for b in free(used) {
            let (key, used) = (key ^ cost[1][b], used | 1 << b);
            if m == 2 {
                leaf(key, used);
                continue;
            }
            for c in free(used) {
                leaf(key ^ cost[2][c], used | 1 << c);
            }
        }
    }
    best.1
}

/// What one transition does to the content hashes a [`Config`] maintains —
/// everything [`Config::step`] would otherwise re-derive from `Debug` text —
/// and how [`Config::peek_step_shape`] classifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StepEffect {
    /// The stepping process's content hash afterwards.
    proc_raw: u64,
    /// The accessed base object's content hash afterwards (0 for a step that
    /// accesses none).
    obj_raw: u64,
    /// Content hash of the invocation event the step records (0 unless it
    /// starts an operation).
    invoke_body: u64,
    /// Content hash of the response event the step records (0 unless it
    /// completes the operation).
    respond_body: u64,
    shape: StepShape,
}

/// A walker's memo of the transitions it has taken.
///
/// An exploration takes the same few hundred transitions hundreds of
/// thousands of times.  What a step does to the fingerprint is a function of
/// the stepping process's content (programme state, flags, in-flight
/// response, remaining workload), the content of the one base object it
/// accesses, and the process id the object sees — exactly the content hashes
/// a tracking [`Config`] already maintains.  The memo maps that key to the
/// transition's effect on those hashes, so [`Config::step_memoized`] and
/// [`Config::peek_step_shape_memoized`] read hashes and shapes from a table
/// instead of rendering programmes and objects through `Debug`.
///
/// A memo belongs to one walk over one implementation (the engine keeps one
/// per walker, see `engine::WalkScratch`) and is dropped with it: content
/// hashes identify a state only among the states of one implementation, so a
/// memo must never be shared between explorations.
pub struct StepMemo {
    /// `(proc_raw[p], p)` → the base object the pending mid-operation step of
    /// `p` accesses (`None`: the step completes the operation), which is what
    /// a classification needs to find the effect without running the
    /// programme.
    targets: HashMap<(u64, usize), Option<usize>, zobrist::FxBuildHasher>,
    /// `(proc_raw[p], obj_raw[target], p)` → the transition's effect (the
    /// object word is 0 for a step that accesses none).
    effects: HashMap<(u64, u64, usize), StepEffect, zobrist::FxBuildHasher>,
    /// Recorded transitions past which nothing more is recorded.
    cap: usize,
}

impl StepMemo {
    /// The number of transitions a memo records before it stops recording
    /// (further ones are derived the plain way every time): ≈7 MB of table
    /// at worst, two orders of magnitude above the 278 transitions of the
    /// deepest tree this workspace benchmarks.
    pub(crate) const MAX_ENTRIES: usize = 1 << 15;

    /// A memo that records at most `cap` transitions.
    pub(crate) fn with_cap(cap: usize) -> Self {
        StepMemo {
            targets: HashMap::default(),
            effects: HashMap::default(),
            cap,
        }
    }

    fn record(&mut self, key: (u64, u64, usize), target: Option<usize>, effect: StepEffect) {
        if self.effects.len() >= self.cap {
            return;
        }
        // Operation starts are classified without a lookup.
        if effect.shape != StepShape::Start {
            self.targets.insert((key.0, key.2), target);
        }
        self.effects.insert(key, effect);
    }

    /// The recorded shape of the pending step of running process `idx`, whose
    /// content hash is `proc_raw`, against base objects with content hashes
    /// `obj_raw`.
    fn shape(&self, proc_raw: u64, obj_raw: &[u64], idx: usize) -> Option<StepShape> {
        match *self.targets.get(&(proc_raw, idx))? {
            None => Some(StepShape::Complete),
            Some(object) => self
                .effects
                .get(&(proc_raw, obj_raw[object], idx))
                .map(|effect| effect.shape),
        }
    }
}

impl Default for StepMemo {
    fn default() -> Self {
        StepMemo::with_cap(Self::MAX_ENTRIES)
    }
}

/// A configuration of the simulated system.
#[derive(Clone)]
pub struct Config {
    base: Vec<Box<dyn BaseObject>>,
    processes: Vec<ProcessState>,
    history: History,
    steps: usize,
    /// The single high-level object id used in the recorded history.
    object_id: ObjectId,
    /// The maintained structural fingerprint.
    fp: Fingerprint,
    /// Whether `fp` is being maintained.  Off by default: only deduplicating
    /// exploration reads fingerprints, and maintaining them costs one
    /// state-content rehash per step, which pure tree walks and the long
    /// scheduler runs of `crate::runner` should not pay.  The engine flips
    /// this on (see [`Config::set_fingerprint_tracking`]) exactly when a
    /// dedup set exists.
    fp_live: bool,
    /// Remaining transient-fault budget: how many more [`FaultStep`]s this
    /// configuration's futures may inject (see [`crate::fault`]).  0 — the
    /// default — disables fault enumeration entirely.
    fault_budget: usize,
}

impl Config {
    /// Builds the initial configuration of `implementation` running
    /// `workload`.
    ///
    /// # Panics
    ///
    /// Panics if the workload has more processes than the implementation was
    /// instantiated for.
    pub fn initial(implementation: &dyn Implementation, workload: &Workload) -> Self {
        assert!(
            workload.processes() <= implementation.processes(),
            "workload has {} processes but the implementation supports {}",
            workload.processes(),
            implementation.processes()
        );
        let base = implementation.initial_base_objects();
        let processes = (0..workload.processes())
            .map(|i| ProcessState {
                logic: implementation.new_process(ProcessId(i)),
                remaining: workload.operations(i).iter().cloned().collect(),
                running: false,
                last_response: None,
                completed: 0,
            })
            .collect();
        Config {
            base,
            processes,
            history: History::new(),
            steps: 0,
            object_id: ObjectId(0),
            fp: Fingerprint::default(),
            fp_live: false,
            fault_budget: 0,
        }
    }

    /// Switches incremental fingerprint maintenance on or off.
    ///
    /// Turning it on rebuilds the components once (O(|state| + |history|));
    /// every subsequent [`Config::step`] then updates them incrementally.
    /// `renames` additionally maintains the per-(process, rename-target)
    /// history rows that [`Config::canonical_permutation`] folds — only the
    /// symmetry-canonicalizing strategies read them, and they cost `n` extra
    /// event-key folds per recorded event plus an `n²`-word copy per clone,
    /// so plain deduplicating walks should pass `false`.  Turning tracking
    /// off drops the components, which also makes clones of this
    /// configuration slightly cheaper.  The exploration engine enables
    /// tracking on the root exactly when deduplication (or symmetry
    /// canonicalization) will read fingerprints.
    pub fn set_fingerprint_tracking(&mut self, on: bool, renames: bool) {
        if on && (!self.fp_live || self.fp.tracks_renames(self.processes.len()) != renames) {
            self.fp = self.rebuild_fingerprint_with(renames);
        } else if !on {
            self.fp = Fingerprint::default();
        }
        self.fp_live = on;
    }

    /// Rebuilds the fingerprint components from scratch, with rename rows
    /// matching the current tracking mode (the debug cross-check; every
    /// steady-state update is incremental).
    fn rebuild_fingerprint(&self) -> Fingerprint {
        self.rebuild_fingerprint_with(self.fp.tracks_renames(self.processes.len()))
    }

    /// Rebuilds the fingerprint components from scratch, building the
    /// per-(process, rename-target) history rows only when `renames` asks
    /// for them.
    fn rebuild_fingerprint_with(&self, renames: bool) -> Fingerprint {
        let n = self.processes.len();
        let obj_raw: Vec<u64> = self.base.iter().map(|b| zobrist::hash_debug(b)).collect();
        let proc_raw: Vec<u64> = self.processes.iter().map(proc_content).collect();
        let obj_fold = obj_raw.iter().enumerate().fold(0, |acc, (i, &raw)| {
            acc ^ zobrist::component(TAG_OBJECT, i as u64, raw)
        });
        let proc_fold = proc_raw.iter().enumerate().fold(0, |acc, (i, &raw)| {
            acc ^ zobrist::component(TAG_PROCESS, i as u64, raw)
        });
        let mut fp = Fingerprint {
            obj_raw,
            proc_raw,
            obj_fold,
            proc_fold,
            hist_id: 0,
            hist: if renames && n <= MAX_TRACKED_PROCESSES {
                vec![0; n * n]
            } else {
                Vec::new()
            },
        };
        for (k, event) in self.history.events().iter().enumerate() {
            fp.push_event(n, k, event.process.index(), event_body(event));
        }
        fp
    }

    /// Whether the incrementally maintained fingerprint agrees with a full
    /// rebuild — the cross-check the differential suite runs on every visited
    /// state of its seeded cases.  Vacuously true while tracking is off.
    pub fn fingerprint_consistent(&self) -> bool {
        if !self.fp_live {
            return true;
        }
        let fresh = self.rebuild_fingerprint();
        fresh.obj_raw == self.fp.obj_raw
            && fresh.proc_raw == self.fp.proc_raw
            && fresh.obj_fold == self.fp.obj_fold
            && fresh.proc_fold == self.fp.proc_fold
            && fresh.hist_id == self.fp.hist_id
            && fresh.hist == self.fp.hist
    }

    /// The number of processes.
    pub fn processes(&self) -> usize {
        self.processes.len()
    }

    /// The high-level history recorded so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Total number of steps taken so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Number of high-level operations completed by process `p`.
    pub fn completed(&self, p: ProcessId) -> usize {
        self.processes[p.index()].completed
    }

    /// Number of high-level operations completed by all processes.
    pub(crate) fn total_completed(&self) -> usize {
        self.processes.iter().map(|p| p.completed).sum()
    }

    /// Whether process `p` can take a step (it has an operation in progress
    /// or more workload to start).
    pub(crate) fn is_enabled(&self, p: ProcessId) -> bool {
        let st = &self.processes[p.index()];
        st.running || !st.remaining.is_empty()
    }

    /// Whether every process has exhausted its workload and has no operation
    /// in progress.
    pub fn is_quiescent(&self) -> bool {
        self.processes
            .iter()
            .all(|p| !p.running && p.remaining.is_empty())
    }

    /// The processes that can currently take a step.
    pub fn enabled_processes(&self) -> Vec<ProcessId> {
        let mut out = Vec::new();
        self.enabled_into(&mut out);
        out
    }

    /// Collects the enabled processes into a caller-provided buffer (cleared
    /// first) — the allocation-free variant the exploration engine uses once
    /// per visited configuration.
    pub(crate) fn enabled_into(&self, out: &mut Vec<ProcessId>) {
        out.clear();
        out.extend(
            (0..self.processes.len())
                .map(ProcessId)
                .filter(|&p| self.is_enabled(p)),
        );
    }

    /// Appends an extra high-level operation to process `p`'s workload.
    pub(crate) fn push_operation(&mut self, p: ProcessId, invocation: evlin_spec::Invocation) {
        self.processes[p.index()].remaining.push_back(invocation);
        self.refresh_proc_fingerprint(p.index());
    }

    /// Rehashes process `i`'s state into the maintained fingerprint (called
    /// after any mutation of that process's fields; no-op while tracking is
    /// off).
    fn refresh_proc_fingerprint(&mut self, i: usize) {
        if self.fp_live {
            let raw = proc_content(&self.processes[i]);
            self.fp.set_proc(i, raw);
        }
    }

    /// The current states of the base objects (used by the Proposition 18
    /// freezing machinery and by diagnostics).
    pub fn base_states(&self) -> Vec<Value> {
        self.base.iter().map(|b| b.state_value()).collect()
    }

    /// Clones the base objects (used to freeze a configuration into a new
    /// implementation).
    pub(crate) fn clone_base_objects(&self) -> Vec<Box<dyn BaseObject>> {
        self.base.clone()
    }

    /// Clones process `p`'s programme state (used to freeze a configuration).
    pub(crate) fn clone_process_logic(&self, p: ProcessId) -> Box<dyn ProcessLogic> {
        self.processes[p.index()].logic.clone()
    }

    /// A structural fingerprint of the configuration, used by deduplicating
    /// exploration ([`crate::engine::EngineOptions::dedup`]).
    ///
    /// Two configurations with equal fingerprints have (with overwhelming
    /// probability) identical base-object states, programme states, remaining
    /// workloads, in-flight responses *and recorded histories*.  Keeping the
    /// history in the key means only interleavings that differ in unrecorded
    /// internal base-object steps ever merge — a deliberate choice so that
    /// visitors which collect histories stay exact under deduplication.  The
    /// step counter is excluded: configurations agreeing on everything else
    /// have necessarily taken the same number of (non-idle) steps, so hashing
    /// it would add nothing.
    ///
    /// The fingerprint is a Zobrist-style XOR fold maintained incrementally
    /// by [`Config::step`] (see [`crate::zobrist`]), so with tracking enabled
    /// ([`Config::set_fingerprint_tracking`], as the deduplicating engine
    /// does) this is a field read — O(1) instead of O(|state|) per visited
    /// configuration.  Without tracking it falls back to a full rebuild.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        if self.fp_live {
            self.fp.current()
        } else {
            self.rebuild_fingerprint().current()
        }
    }

    /// The fingerprint of the configuration *as if* its processes had been
    /// renamed by `perm` (process `i` becomes `perm[i]`), without mutating
    /// anything.
    ///
    /// This is what the symmetry reduction minimizes over all permutations to
    /// pick a canonical representative; it agrees with
    /// [`Config::fingerprint`] after [`Config::apply_permutation`] with the
    /// same permutation.  The key is `obj(perm) ^ XOR_i cost(i, perm[i])`:
    /// `n` key mixes whatever the history length, plus a rehash of each
    /// pid-dependent base object.  Sound only when process programmes do not
    /// embed their own identity and every base object declares its
    /// process-id dependence (see [`crate::engine::SymmetryReduction`]).
    pub fn fingerprint_permuted(&self, perm: &[usize]) -> u64 {
        let n = self.processes.len();
        if n > MAX_TRACKED_PROCESSES {
            // Beyond the tracked bound: rename physically (cold path, never
            // taken by the symmetry reduction, which caps at 6 processes).
            let mut renamed = self.clone();
            renamed.apply_permutation(perm);
            return renamed.fingerprint();
        }
        let fp = self.rename_rows();
        perm.iter()
            .enumerate()
            .fold(self.permutable_components(&fp, perm), |key, (i, &t)| {
                key ^ fp.rename_cost(n, i, t)
            })
    }

    /// The maintained components if they carry the rename rows, else (tracking
    /// off, or a non-canonicalizing walk) a one-off rebuild that does.
    fn rename_rows(&self) -> Cow<'_, Fingerprint> {
        if self.fp_live && self.fp.tracks_renames(self.processes.len()) {
            Cow::Borrowed(&self.fp)
        } else {
            Cow::Owned(self.rebuild_fingerprint_with(true))
        }
    }

    /// The object components of the configuration under `perm`: only
    /// pid-dependent objects change (their state mentions process ids), so
    /// everything else reuses the maintained component fold.
    fn permutable_components(&self, fp: &Fingerprint, perm: &[usize]) -> u64 {
        let mut fold = fp.obj_fold;
        for (i, b) in self.base.iter().enumerate() {
            if b.pid_dependence() == PidDependence::Permutable {
                let mut renamed = b.clone();
                renamed.permute_processes(perm);
                fold ^= zobrist::component(TAG_OBJECT, i as u64, fp.obj_raw[i])
                    ^ zobrist::component(TAG_OBJECT, i as u64, zobrist::hash_debug(&renamed));
            }
        }
        fold
    }

    /// Picks the permutation (an index into `perms`) whose renaming of this
    /// configuration has the least canonical key — the argmin the symmetry
    /// reduction rewrites configurations with.  Renamings of one another
    /// select the same representative (up to hash collision), because the
    /// key is a function of the renamed configuration alone (it equals
    /// [`Config::fingerprint_permuted`] of that renaming).
    ///
    /// Only `n²` distinct (process, rename target) pairs exist, so their
    /// costs are mixed once per call into an `n × n` table on the stack: no
    /// key is mixed twice and the history is never rehashed.  The
    /// candidates are then walked as prefix × suffix: a renaming's
    /// lexicographic index is `prefix_rank · s! + suffix_rank` for a suffix
    /// of its last `s = min(3, n − 1)` targets, so the suffixes' words are
    /// XORed into a table of `C(n, s) · s!` words once per call, and each of
    /// the `n!` candidates is **one XOR** of its prefix's word with a table
    /// word, and one compare.  Pid-dependent base objects are looked for
    /// once per call and, only if one exists, rehashed per candidate.
    ///
    /// Ties go to the **first** index attaining the minimum, and ties are
    /// routine (processes that have recorded no event yet have equal rows).
    /// That order is load-bearing: the identity wins whenever it is minimal
    /// (canonicalization is idempotent), and the chosen renaming's history
    /// is what visitors, checkpointed frontiers and spilled runs see.
    ///
    /// # Panics
    ///
    /// For `n ≤ 6` processes (the symmetry reduction's bound) `perms` must
    /// be [`crate::engine::permutations`]`(n)`, the whole group in
    /// lexicographic order: the walk never reads it (except to rename
    /// pid-dependent objects), and the answer indexes that order.  A list
    /// of the wrong length panics; a wrong list of the right length is
    /// caught in debug builds.  Past that bound there is no table, and
    /// `perms` may be any list of renamings.
    pub fn canonical_permutation(&self, perms: &[Vec<usize>]) -> usize {
        let n = self.processes.len();
        if n > MAX_GROUP {
            // Wider than any group the reduction builds: no table (and past
            // the tracked bound, a physical rename per candidate).
            return first_min(perms.iter().map(|perm| self.fingerprint_permuted(perm)));
        }
        assert_eq!(
            perms.len(),
            [1, 1, 2, 6, 24, 120, 720][n],
            "perms must be the whole group of {n} processes"
        );
        debug_assert!(
            perms == crate::engine::permutations(n),
            "perms must be in lexicographic order"
        );
        if n < 2 {
            return 0;
        }
        let fp = self.rename_rows();
        let mut cost = [[0u64; MAX_GROUP]; MAX_GROUP];
        for (i, row) in cost.iter_mut().enumerate().take(n) {
            for (t, word) in row.iter_mut().enumerate().take(n) {
                *word = fp.rename_cost(n, i, t);
            }
        }
        let permutable = self
            .base
            .iter()
            .any(|b| b.pid_dependence() == PidDependence::Permutable);
        if permutable {
            split_first_min(n, &cost, |index| {
                self.permutable_components(&fp, &perms[index])
            })
        } else {
            // Every renaming takes exactly one word of row 0, so the object
            // fold rides there and a candidate stays one XOR.
            for word in &mut cost[0][..n] {
                *word ^= fp.obj_fold;
            }
            split_first_min(n, &cost, |_| 0)
        }
    }

    /// Physically renames the processes: process `i` becomes `perm[i]`,
    /// permuting the per-process states, renaming every process id recorded
    /// by pid-dependent base objects, and renaming the history's events.
    ///
    /// Used by the symmetry reduction to rewrite a configuration into its
    /// canonical representative.  Sound only under the conditions checked by
    /// [`crate::engine::SymmetryReduction::detect`].
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of the process indices.
    pub fn apply_permutation(&mut self, perm: &[usize]) {
        let n = self.processes.len();
        assert_eq!(perm.len(), n, "permutation arity");
        assert!(
            (0..n).all(|t| perm.contains(&t)),
            "perm must be a bijection"
        );
        // Process `p`'s state, content hash and history row (`hist[p][·]`:
        // its events under every rename target) move to slot `perm[p]`, in
        // place: each cycle is walked once, from its least slot `s`, and
        // swapping `s` with the cycle's other slots in turn puts every
        // element where `perm` sends it.
        let renames = self.fp_live && self.fp.tracks_renames(n);
        for s in 0..n {
            let mut j = perm[s];
            while j > s {
                j = perm[j];
            }
            if j < s {
                continue; // already walked from a lesser slot
            }
            j = perm[s];
            while j != s {
                self.processes.swap(s, j);
                if renames {
                    self.fp.proc_raw.swap(s, j);
                    for q in 0..n {
                        self.fp.hist.swap(s * n + q, j * n + q);
                    }
                }
                j = perm[j];
            }
        }
        let fp_live = self.fp_live;
        for (i, b) in self.base.iter_mut().enumerate() {
            if b.pid_dependence() == PidDependence::Permutable {
                b.permute_processes(perm);
                if fp_live {
                    let raw = zobrist::hash_debug(b);
                    self.fp.set_obj(i, raw);
                }
            }
        }
        let map: Vec<ProcessId> = perm.iter().map(|&i| ProcessId(i)).collect();
        self.history.rename_processes(&map);
        if renames {
            // Every process component sits in a new slot, and the identity
            // fold of the renamed history is the diagonal of the moved rows.
            let fp = &mut self.fp;
            fp.proc_fold = 0;
            fp.hist_id = 0;
            for t in 0..n {
                fp.proc_fold ^= zobrist::component(TAG_PROCESS, t as u64, fp.proc_raw[t]);
                fp.hist_id ^= fp.hist[t * n + t];
            }
        } else if fp_live {
            self.fp = self.rebuild_fingerprint();
        }
        debug_assert!(
            self.fingerprint_consistent(),
            "permuted fingerprint drifted"
        );
    }

    /// Whether every per-process state is structurally identical: same
    /// programme state (by `Debug`), same progress flags and same remaining
    /// workload.  On the initial configuration of a uniform workload this is
    /// the structural evidence that the implementation is process-symmetric
    /// (programmes that embed their own id print differently).
    pub(crate) fn processes_structurally_symmetric(&self) -> bool {
        if self.processes.len() < 2 {
            return false;
        }
        let sig = |p: &ProcessState| {
            (
                format!("{:?}", p.logic),
                p.running,
                p.completed,
                p.last_response.clone(),
            )
        };
        let first = sig(&self.processes[0]);
        self.processes
            .iter()
            .skip(1)
            .all(|p| sig(p) == first && p.remaining == self.processes[0].remaining)
    }

    /// Whether every base object declares how its state depends on process
    /// ids (no [`PidDependence::Opaque`] object) — a precondition for
    /// symmetry canonicalization.
    pub(crate) fn base_objects_permutable(&self) -> bool {
        self.base
            .iter()
            .all(|b| b.pid_dependence() != PidDependence::Opaque)
    }

    /// The shape of the next atomic step process `p` would take, without
    /// taking it — the step-independence oracle behind the sleep-set
    /// reduction of [`crate::engine`].  Returns `None` if `p` is not enabled.
    ///
    /// Determining whether a base-object access *writes* costs one clone of
    /// the target object plus a probe invocation; operation starts and
    /// completions are classified from the programme state alone.
    pub fn peek_step_shape(&self, p: ProcessId) -> Option<StepShape> {
        let state = &self.processes[p.index()];
        if !state.running {
            return if state.remaining.is_empty() {
                None
            } else {
                Some(StepShape::Start)
            };
        }
        let mut logic = state.logic.clone();
        match logic.step(state.last_response.clone()) {
            TaskStep::Access { object, invocation } => {
                // Write detection compares streamed content hashes of the
                // probed object's debug rendering — no string allocations on
                // this path, which runs once per enabled process per node
                // under sleep-set reduction.  (A 2⁻⁶⁴ hash collision would
                // misclassify a write as a read — the same vanishing risk the
                // fingerprint-based deduplication already accepts.)
                let mut probe = self.base[object].clone();
                let before = zobrist::hash_debug(&probe);
                let _ = probe.invoke(p, &invocation);
                let writes = zobrist::hash_debug(&probe) != before;
                Some(StepShape::Access { object, writes })
            }
            TaskStep::Complete(_) => Some(StepShape::Complete),
        }
    }

    /// [`Config::peek_step_shape`] answered from `memo` when the pending
    /// transition is on record: no programme clone, no object probe.  The
    /// cheap classifications (idle, operation start) and walks without
    /// fingerprint tracking — which have no content hashes to key on — go
    /// straight to the plain oracle, and so does a transition not on record
    /// yet: only taking it ([`Config::step_memoized`]) records it, which the
    /// engine does right after classifying, for every process not asleep.
    ///
    /// The key is the *content* of the stepping process and of the object
    /// it is about to access, so nothing ever needs invalidating: a fault
    /// that corrupts either one changes the key, and the classification
    /// recorded for the uncorrupted state cannot be served for the
    /// corrupted one.
    pub fn peek_step_shape_memoized(&self, p: ProcessId, memo: &StepMemo) -> Option<StepShape> {
        let idx = p.index();
        if self.fp_live && self.processes[idx].running {
            if let Some(shape) = memo.shape(self.fp.proc_raw[idx], &self.fp.obj_raw, idx) {
                debug_assert_eq!(
                    Some(shape),
                    self.peek_step_shape(p),
                    "memoized step shape drifted from the plain oracle"
                );
                return Some(shape);
            }
        }
        self.peek_step_shape(p)
    }

    /// Gives one atomic step to process `p`.
    ///
    /// If `p` has no operation in progress and workload remains, the next
    /// operation is started (its invocation event is recorded) and its first
    /// programme step is executed; otherwise the programme of the operation
    /// in progress advances by one step.  A step is either one base-object
    /// access or the completion of the operation (whose response event is
    /// recorded).
    pub fn step(&mut self, p: ProcessId) -> StepOutcome {
        self.step_via(p, None)
    }

    /// [`Config::step`] with the content hashes of the transition taken from
    /// `memo` when it is on record there, and recorded there when it is not.
    /// The programme and the base object still execute for real — states,
    /// responses and the outcome are never cached — so the two differ only
    /// in where the fingerprint's words come from, and every fingerprint is
    /// the one [`Config::step`] would have maintained.  Without fingerprint
    /// tracking there is nothing to look up and this *is* `step`.
    pub fn step_memoized(&mut self, p: ProcessId, memo: &mut StepMemo) -> StepOutcome {
        self.step_via(p, Some(memo))
    }

    fn step_via(&mut self, p: ProcessId, memo: Option<&mut StepMemo>) -> StepOutcome {
        let idx = p.index();
        if !self.is_enabled(p) {
            return StepOutcome::Idle;
        }
        self.steps += 1;
        let state = &mut self.processes[idx];
        let invoked_at = if state.running {
            None
        } else {
            let inv = state
                .remaining
                .pop_front()
                .expect("enabled non-running process must have workload");
            let position = self.history.len();
            self.history.push_invoke(p, self.object_id, inv.clone());
            state.logic.begin(inv);
            state.running = true;
            state.last_response = None;
            Some(position)
        };
        let prev = state.last_response.take();
        let (outcome, target) = match state.logic.step(prev) {
            TaskStep::Access { object, invocation } => {
                state.last_response = Some(self.base[object].invoke(p, &invocation));
                (StepOutcome::Progressed, Some(object))
            }
            TaskStep::Complete(value) => {
                self.history.push_respond(p, self.object_id, value.clone());
                state.running = false;
                state.completed += 1;
                (StepOutcome::Completed(value), None)
            }
        };
        if self.fp_live {
            self.fold_step(idx, invoked_at, target, memo);
        }
        outcome
    }

    /// Folds the step process `idx` has just taken into the maintained
    /// fingerprint.  The state is already the successor's; the components
    /// are still the predecessor's, and it is their content hashes that key
    /// the transition in `memo`.  The step recorded an invocation event at
    /// `invoked_at` if it started an operation, then either accessed base
    /// object `target` or (`None`) completed the operation and recorded the
    /// response as the last event.
    fn fold_step(
        &mut self,
        idx: usize,
        invoked_at: Option<usize>,
        target: Option<usize>,
        memo: Option<&mut StepMemo>,
    ) {
        let key = (
            self.fp.proc_raw[idx],
            target.map_or(0, |t| self.fp.obj_raw[t]),
            idx,
        );
        let effect = match memo.as_deref().and_then(|m| m.effects.get(&key)) {
            Some(&known) => {
                debug_assert_eq!(
                    known,
                    self.derive_effect(idx, invoked_at, target),
                    "memoized transition drifted from the plain derivation"
                );
                known
            }
            None => {
                let derived = self.derive_effect(idx, invoked_at, target);
                if let Some(memo) = memo {
                    memo.record(key, target, derived);
                }
                derived
            }
        };
        let n = self.processes.len();
        if let Some(position) = invoked_at {
            self.fp.push_event(n, position, idx, effect.invoke_body);
        }
        match target {
            Some(object) => self.fp.set_obj(object, effect.obj_raw),
            None => {
                let position = self.history.len() - 1;
                self.fp.push_event(n, position, idx, effect.respond_body);
            }
        }
        self.fp.set_proc(idx, effect.proc_raw);
    }

    /// The content hashes of the step described to [`Config::fold_step`],
    /// derived the plain way: from the `Debug` rendering of the stepped
    /// programme and the accessed object and from the recorded events.
    fn derive_effect(
        &self,
        idx: usize,
        invoked_at: Option<usize>,
        target: Option<usize>,
    ) -> StepEffect {
        let events = self.history.events();
        let obj_raw = target.map_or(0, |t| zobrist::hash_debug(&self.base[t]));
        StepEffect {
            proc_raw: proc_content(&self.processes[idx]),
            obj_raw,
            invoke_body: invoked_at.map_or(0, |k| event_body(&events[k])),
            respond_body: match target {
                Some(_) => 0,
                None => event_body(events.last().expect("a completion records its response")),
            },
            shape: match (invoked_at, target) {
                (Some(_), _) => StepShape::Start,
                (None, Some(object)) => StepShape::Access {
                    object,
                    writes: obj_raw != self.fp.obj_raw[object],
                },
                (None, None) => StepShape::Complete,
            },
        }
    }

    /// Runs process `p` alone until it completes its current operation (or
    /// its next one, if it is idle but has workload), up to `max_steps`
    /// steps.  Returns the response if the operation completed.
    ///
    /// This is the "run solo" primitive used throughout the paper's proofs
    /// (obstruction-freedom, the idle configuration of Proposition 18).
    pub(crate) fn run_solo_until_complete(
        &mut self,
        p: ProcessId,
        max_steps: usize,
    ) -> Option<Value> {
        for _ in 0..max_steps {
            match self.step(p) {
                StepOutcome::Completed(v) => return Some(v),
                StepOutcome::Progressed => continue,
                StepOutcome::Idle => return None,
            }
        }
        None
    }

    /// The remaining transient-fault budget (see [`crate::fault`]).
    #[inline]
    pub fn fault_budget(&self) -> usize {
        self.fault_budget
    }

    /// Sets the transient-fault budget: at most `k` faults along any schedule
    /// continuing from this configuration.  The engine sets this on the root
    /// from [`crate::engine::EngineOptions::fault_budget`].
    pub fn set_fault_budget(&mut self, k: usize) {
        self.fault_budget = k;
    }

    /// Enumerates every fault injectable at this configuration, in
    /// deterministic order (objects by index, then processes by index, each
    /// by corruption variant).  Does nothing when the budget is exhausted —
    /// in particular, budget 0 (the default) costs one branch.
    pub fn for_each_fault(&self, mut f: impl FnMut(FaultStep)) {
        if self.fault_budget == 0 {
            return;
        }
        for (i, b) in self.base.iter().enumerate() {
            for variant in 0..b.corruption_count() {
                f(FaultStep {
                    target: FaultTarget::Object(i),
                    variant,
                });
            }
        }
        for (i, p) in self.processes.iter().enumerate() {
            for variant in 0..p.logic.corruption_count() {
                f(FaultStep {
                    target: FaultTarget::Process(i),
                    variant,
                });
            }
        }
    }

    /// Applies one transient fault: spends one budget unit and corrupts the
    /// target component, maintaining the incremental fingerprint exactly.  No
    /// history event is recorded — faults are environmental, not
    /// operations.  Returns `false` (and does nothing) when the budget is
    /// exhausted.
    pub fn apply_fault(&mut self, fault: &FaultStep) -> bool {
        if self.fault_budget == 0 {
            return false;
        }
        self.fault_budget -= 1;
        match fault.target {
            FaultTarget::Object(i) => {
                self.base[i].corrupt(fault.variant);
                if self.fp_live {
                    let raw = zobrist::hash_debug(&self.base[i]);
                    self.fp.set_obj(i, raw);
                }
            }
            FaultTarget::Process(i) => {
                self.processes[i].logic.corrupt(fault.variant);
                self.refresh_proc_fingerprint(i);
            }
        }
        debug_assert!(
            self.fingerprint_consistent(),
            "fault mutation drifted the incremental fingerprint"
        );
        true
    }
}

impl fmt::Debug for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Config")
            .field("steps", &self.steps)
            .field("base", &self.base)
            .field("completed", &self.total_completed())
            .field("history_len", &self.history.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::LocalSpecImplementation;
    use evlin_spec::{FetchIncrement, Invocation};
    use std::sync::Arc;

    fn fi_local(processes: usize) -> LocalSpecImplementation {
        LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), processes)
    }

    #[test]
    fn initial_configuration_is_idle_when_workload_empty() {
        let imp = fi_local(2);
        let w = Workload::new(vec![Vec::new(), Vec::new()]);
        let mut c = Config::initial(&imp, &w);
        assert!(c.is_quiescent());
        assert_eq!(c.step(ProcessId(0)), StepOutcome::Idle);
        assert_eq!(c.steps(), 0);
        assert!(c.enabled_processes().is_empty());
    }

    #[test]
    fn stepping_runs_operations_and_records_history() {
        let imp = fi_local(2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 2);
        let mut c = Config::initial(&imp, &w);
        assert!(!c.is_quiescent());
        assert_eq!(c.enabled_processes().len(), 2);
        // The local-copy implementation completes each operation in one step.
        assert_eq!(
            c.step(ProcessId(0)),
            StepOutcome::Completed(Value::from(0i64))
        );
        assert_eq!(
            c.step(ProcessId(1)),
            StepOutcome::Completed(Value::from(0i64))
        );
        assert_eq!(
            c.step(ProcessId(0)),
            StepOutcome::Completed(Value::from(1i64))
        );
        assert_eq!(
            c.step(ProcessId(1)),
            StepOutcome::Completed(Value::from(1i64))
        );
        assert!(c.is_quiescent());
        assert_eq!(c.total_completed(), 4);
        assert_eq!(c.completed(ProcessId(0)), 2);
        let h = c.history();
        assert_eq!(h.len(), 8);
        assert!(h.is_well_formed());
    }

    #[test]
    fn run_solo_and_push_operation() {
        let imp = fi_local(1);
        let w = Workload::new(vec![Vec::new()]);
        let mut c = Config::initial(&imp, &w);
        assert_eq!(c.run_solo_until_complete(ProcessId(0), 10), None);
        c.push_operation(ProcessId(0), FetchIncrement::fetch_inc());
        assert_eq!(
            c.run_solo_until_complete(ProcessId(0), 10),
            Some(Value::from(0i64))
        );
    }

    #[test]
    fn cloning_forks_the_execution() {
        let imp = fi_local(1);
        let w = Workload::uniform(1, FetchIncrement::fetch_inc(), 2);
        let mut a = Config::initial(&imp, &w);
        a.step(ProcessId(0));
        let mut b = a.clone();
        a.step(ProcessId(0));
        assert_eq!(a.total_completed(), 2);
        assert_eq!(b.total_completed(), 1);
        b.step(ProcessId(0));
        assert_eq!(b.total_completed(), 2);
        assert_eq!(a.history().len(), 4);
    }

    #[test]
    fn permuted_fingerprint_matches_physical_permutation() {
        let imp = fi_local(2);
        // Asymmetric workload, so renaming the processes genuinely changes
        // the configuration.
        let w = Workload::new(vec![
            vec![FetchIncrement::fetch_inc(); 2],
            vec![FetchIncrement::fetch_inc()],
        ]);
        let mut c = Config::initial(&imp, &w);
        c.step(ProcessId(0));
        let perm = [1usize, 0];
        let expected = c.fingerprint_permuted(&perm);
        assert_ne!(expected, c.fingerprint());
        let mut renamed = c.clone();
        renamed.apply_permutation(&perm);
        assert_eq!(renamed.fingerprint(), expected);
        // The identity permutation is a no-op.
        assert_eq!(c.fingerprint_permuted(&[0, 1]), c.fingerprint());
    }

    #[test]
    fn canonicalization_is_idempotent_at_six_processes() {
        let imp = fi_local(6);
        let w = Workload::uniform(6, FetchIncrement::fetch_inc(), 2);
        let perms = crate::engine::permutations(6);
        let mut c = Config::initial(&imp, &w);
        c.set_fingerprint_tracking(true, true);
        // All six start identical: every renaming ties and the identity wins.
        assert_eq!(c.canonical_permutation(&perms), 0);
        let mut moved = 0;
        for p in [5, 3, 5, 1, 4, 3, 0, 2] {
            c.step(ProcessId(p));
            let best = c.canonical_permutation(&perms);
            moved += usize::from(best != 0);
            c.apply_permutation(&perms[best]);
            assert_eq!(c.canonical_permutation(&perms), 0, "after stepping {p}");
            assert_eq!(c.fingerprint(), c.fingerprint_permuted(&perms[0]));
        }
        assert!(moved > 0, "no step left the canonical representative");
    }

    #[test]
    #[should_panic(expected = "perm must be a bijection")]
    fn apply_permutation_rejects_a_non_bijection() {
        let imp = fi_local(2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 1);
        Config::initial(&imp, &w).apply_permutation(&[1, 1]);
    }

    #[test]
    #[should_panic(expected = "perms must be the whole group")]
    fn canonical_permutation_rejects_a_truncated_group() {
        let imp = fi_local(4);
        let w = Workload::uniform(4, FetchIncrement::fetch_inc(), 1);
        let mut perms = crate::engine::permutations(4);
        perms.pop();
        Config::initial(&imp, &w).canonical_permutation(&perms);
    }

    #[test]
    fn canonical_permutation_wider_than_the_table_falls_back() {
        // 7 processes overflow the cost table; 17 have no rename rows at all,
        // so every candidate is a physical rename.
        for n in [
            SymmetryReduction::MAX_PROCESSES + 1,
            MAX_TRACKED_PROCESSES + 1,
        ] {
            let imp = fi_local(n);
            let w = Workload::uniform(n, FetchIncrement::fetch_inc(), 1);
            let mut c = Config::initial(&imp, &w);
            c.set_fingerprint_tracking(true, true);
            c.step(ProcessId(n - 1));
            let identity: Vec<usize> = (0..n).collect();
            let mut swap = identity.clone();
            swap.swap(0, n - 1);
            let perms = [identity, swap];
            let keys: Vec<u64> = perms.iter().map(|p| c.fingerprint_permuted(p)).collect();
            assert_ne!(keys[0], keys[1]);
            let expected = usize::from(keys[1] < keys[0]);
            assert_eq!(c.canonical_permutation(&perms), expected, "{n} processes");
        }
    }

    #[test]
    fn structural_symmetry_detection() {
        let imp = fi_local(2);
        let uniform = Config::initial(&imp, &Workload::uniform(2, FetchIncrement::fetch_inc(), 2));
        assert!(uniform.processes_structurally_symmetric());
        assert!(uniform.base_objects_permutable()); // vacuously: no base objects
        let skewed = Config::initial(
            &imp,
            &Workload::new(vec![vec![FetchIncrement::fetch_inc()], Vec::new()]),
        );
        assert!(!skewed.processes_structurally_symmetric());
        let solo = Config::initial(
            &fi_local(1),
            &Workload::uniform(1, FetchIncrement::fetch_inc(), 1),
        );
        assert!(!solo.processes_structurally_symmetric());
    }

    #[test]
    fn peek_step_shape_classifies_starts_and_idles() {
        let imp = fi_local(2);
        let w = Workload::new(vec![vec![FetchIncrement::fetch_inc()], Vec::new()]);
        let c = Config::initial(&imp, &w);
        assert_eq!(c.peek_step_shape(ProcessId(0)), Some(StepShape::Start));
        assert_eq!(c.peek_step_shape(ProcessId(1)), None);
        // Peeking takes no step and records nothing.
        assert_eq!(c.steps(), 0);
        assert!(c.history().is_empty());
    }

    #[test]
    #[should_panic(expected = "workload has")]
    fn workload_larger_than_implementation_panics() {
        let imp = fi_local(1);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 1);
        let _ = Config::initial(&imp, &w);
    }

    /// A one-shot programme over a cas base object: one dummy register read,
    /// then `cas(0 → 1)`, then complete — the pending cas is exactly the step
    /// whose *writes* classification flips when a fault corrupts the target.
    #[derive(Debug, Clone)]
    struct CasOnce;

    #[derive(Debug, Clone)]
    struct CasOnceLogic {
        at: usize,
    }

    impl Implementation for CasOnce {
        fn name(&self) -> String {
            "cas once".into()
        }
        fn processes(&self) -> usize {
            1
        }
        fn initial_base_objects(&self) -> Vec<Box<dyn BaseObject>> {
            vec![
                crate::base::objects::cas(Value::from(0i64)),
                crate::base::objects::register(Value::from(0i64)),
            ]
        }
        fn new_process(&self, _p: ProcessId) -> Box<dyn ProcessLogic> {
            Box::new(CasOnceLogic { at: 0 })
        }
    }

    impl ProcessLogic for CasOnceLogic {
        fn begin(&mut self, _invocation: evlin_spec::Invocation) {
            self.at = 0;
        }
        fn step(&mut self, _previous: Option<Value>) -> TaskStep {
            self.at += 1;
            match self.at {
                1 => TaskStep::Access {
                    object: 1,
                    invocation: evlin_spec::Register::read(),
                },
                2 => TaskStep::Access {
                    object: 0,
                    invocation: evlin_spec::CompareAndSwap::cas(
                        Value::from(0i64),
                        Value::from(1i64),
                    ),
                },
                _ => TaskStep::Complete(Value::Unit),
            }
        }
        fn clone_box(&self) -> Box<dyn ProcessLogic> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn fault_application_spends_budget_and_keeps_fingerprint() {
        let imp = fi_local(2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 1);
        let mut c = Config::initial(&imp, &w);
        c.set_fingerprint_tracking(true, false);
        c.set_fault_budget(2);
        let mut faults = Vec::new();
        c.for_each_fault(|f| faults.push(f));
        // Each local-copy programme state offers at least one corruption.
        assert!(faults.len() >= 2, "expected process faults, got {faults:?}");
        let before = c.fingerprint();
        assert!(c.apply_fault(&faults[0]));
        assert_eq!(c.fault_budget(), 1);
        assert_ne!(c.fingerprint(), before, "corruption must change the state");
        assert!(c.fingerprint_consistent());
        // Faults record no history events and advance no step counter.
        assert!(c.history().is_empty());
        assert_eq!(c.steps(), 0);
        assert!(c.apply_fault(&faults[0]));
        assert_eq!(c.fault_budget(), 0);
        // Budget exhausted: enumeration is empty and application refuses.
        let mut rest = Vec::new();
        c.for_each_fault(|f| rest.push(f));
        assert!(rest.is_empty());
        assert!(!c.apply_fault(&faults[0]));
    }

    #[test]
    fn a_fault_changes_the_key_so_the_stale_shape_cannot_be_served() {
        let imp = CasOnce;
        let w = Workload::uniform(1, Invocation::nullary("op"), 1);
        let mut c = Config::initial(&imp, &w);
        c.set_fingerprint_tracking(true, false);
        let mut memo = StepMemo::default();
        let p = ProcessId(0);
        let on_record =
            |c: &Config, memo: &StepMemo| memo.shape(c.fp.proc_raw[0], &c.fp.obj_raw, 0);
        let writes = |writes| Some(StepShape::Access { object: 0, writes });
        // Start the operation and take the dummy read: the pending step is
        // now `cas(0 → 1)` against a cas object holding 0.
        assert_eq!(c.step_memoized(p, &mut memo), StepOutcome::Progressed);
        // Classifying records nothing; taking the step (here on a copy, as
        // the engine steps a child) does, and then the memo answers.
        assert_eq!(c.peek_step_shape_memoized(p, &memo), writes(true));
        assert_eq!(on_record(&c, &memo), None);
        c.clone().step_memoized(p, &mut memo);
        assert_eq!(on_record(&c, &memo), writes(true));
        assert_eq!(c.peek_step_shape_memoized(p, &memo), writes(true));
        // Corrupt the cas object (its only corruption state is 1): the
        // pending cas now fails, so the step no longer writes.  The
        // corruption changed the object's content hash and with it the key,
        // so the recorded `writes: true` is not what the lookup finds.
        c.set_fault_budget(1);
        let mut faults = Vec::new();
        c.for_each_fault(|f| faults.push(f));
        let on_cas: Vec<_> = faults
            .iter()
            .filter(|f| f.target == crate::fault::FaultTarget::Object(0))
            .collect();
        assert_eq!(on_cas.len(), 1, "cas(0) has exactly one corruption");
        assert!(c.apply_fault(on_cas[0]));
        assert_eq!(on_record(&c, &memo), None);
        assert_eq!(c.peek_step_shape_memoized(p, &memo), writes(false));
        assert_eq!(c.peek_step_shape(p), writes(false));
        // The failing cas goes on record under its own key, next to the
        // succeeding one.
        let recorded = memo.effects.len();
        let before = c.clone();
        assert_eq!(c.step_memoized(p, &mut memo), StepOutcome::Progressed);
        assert_eq!(memo.effects.len(), recorded + 1);
        assert_eq!(on_record(&before, &memo), writes(false));
        assert!(c.fingerprint_consistent());
    }

    #[test]
    fn a_full_memo_stops_recording_and_untracked_walks_never_record() {
        let imp = CasOnce;
        let w = Workload::uniform(1, Invocation::nullary("op"), 1);
        let p = ProcessId(0);
        let run = |tracking: bool, memo: &mut StepMemo| {
            let mut c = Config::initial(&imp, &w);
            c.set_fingerprint_tracking(tracking, false);
            let mut shapes = Vec::new();
            while let Some(shape) = c.peek_step_shape_memoized(p, &*memo) {
                assert_eq!(Some(shape), c.peek_step_shape(p));
                shapes.push(shape);
                c.step_memoized(p, memo);
                assert!(c.fingerprint_consistent());
            }
            (shapes, c.fingerprint())
        };
        let mut roomy = StepMemo::default();
        let reference = run(true, &mut roomy);
        assert_eq!(reference.0.len(), 3);
        assert_eq!(roomy.effects.len(), 3);
        // Warm, capped at one transition, capped at none, and without content
        // hashes to key on: the same walk every time.
        assert_eq!(run(true, &mut roomy), reference);
        for cap in [1, 0] {
            let mut capped = StepMemo::with_cap(cap);
            assert_eq!(run(true, &mut capped), reference);
            assert_eq!(capped.effects.len(), cap);
        }
        let mut untracked = StepMemo::default();
        assert_eq!(run(false, &mut untracked), reference);
        assert!(untracked.effects.is_empty() && untracked.targets.is_empty());
    }
}
