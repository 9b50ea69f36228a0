//! The unified Wing–Gong check kernel.
//!
//! Every consistency condition of the paper reduces to the same question:
//! *is there a legal sequential arrangement of a set of operations that
//! (a) includes every required operation, (b) assigns each operation a legal
//! response, matching the fixed response where one is imposed, and
//! (c) respects a given precedence relation between operations?*
//!
//! This module is the single decision procedure behind all of them:
//!
//! * [`Problem`] — the one shape the question is stated in: operation views
//!   ([`OpView`]: object, invocation, whether the operation is required,
//!   the response it must get if one is imposed) produced on demand, plus
//!   the precedence edges.  Whoever holds the operations lends them; nothing
//!   is copied into a problem object first;
//! * [`ConsistencyCondition`] — how a condition states its question about a
//!   [`History`] as such views ([`ConsistencyCondition::views`]), and
//!   whether it decomposes per object.  `linearizability`,
//!   `t_linearizability` and `eventual` lend Definition 2's views of the
//!   history's events, `weak_consistency` Definition 1's;
//! * the searcher — one iterative (non-recursive) Wing–Gong search over
//!   partial linearizations, accepting once every required operation is
//!   linearized.  Objects, object states and responses, invocations and
//!   interchangeability classes are interned to dense `u32` ids, and
//!   transition lists are memoized per `(invocation, state)` pair into a
//!   span arena — all through one small-table type (`Table`: a linear scan
//!   up to 32 keys, a hash index past that).  Classes are counted, not
//!   enumerated: the search takes a class's members in ascending order, so
//!   its count of taken members is the only record of what is linearized.
//!   The visited `(linearized-multiset, object-states)` cache keys on an
//!   *incrementally maintained* Zobrist fold — one linearization step
//!   updates the key with four word mixes instead of serializing the pair.
//!   The fold identifies states up to a 64-bit hash: a key collision
//!   (probability ~nodes²/2⁶⁵ per search) could prune a genuinely new
//!   subtree, the same vanishing risk the simulator's fingerprint
//!   deduplication documents and accepts — the debug cross-check guards
//!   against maintenance drift, and the brute-force differential suite
//!   fuzzes the end-to-end verdicts;
//! * the walk — the same search over a small problem, picked by
//!   [`visit_frontiers`] before it touches a `Table`, the row store or the
//!   searcher: nothing tracked, one object, one to four operations, each
//!   required with a fixed response.  `u8` taken masks stand for the class
//!   counts and `(state, mask)` words for the visited cache; nodes, memo hits
//!   and budget count as the searcher's (a unit test holds the two equal),
//!   and `arena_bytes` gets nothing.  Four covers the monitor's links of short
//!   rounds and fits the masks in a `u8`; the walk's linear visited list
//!   stays ahead of a hashed one up to about eight (ROADMAP);
//! * [`check_local`] — the locality pre-pass: for conditions whose
//!   decomposition is [`Locality::Exact`] (the Herlihy–Wing locality theorem
//!   for linearizability, Lemma 8 for weak consistency), a multi-object
//!   history is split into independent per-object subproblems, checked one
//!   after the other on the calling thread, and the per-object witnesses are
//!   composed back into a global one;
//! * [`KernelScratch`] — every table of the searcher, which borrows it for
//!   one search, so that e.g. the binary search of `min_stabilization`, the
//!   weak-consistency per-operation loop and the monitor's per-segment
//!   chains run allocation-free after their first search.
//!
//! A problem reaches the searcher through exactly one interning routine,
//! which reads the views once.  The states the objects start in are an
//! argument ([`solve_rooted`], [`visit_frontiers`]; an object the caller
//! does not list starts in the universe's initial state), so checking a
//! segment from the state a verified prefix left behind never clones or
//! mutates an [`ObjectUniverse`].  [`visit_frontiers`] is the exhaustive mode
//! of the same search loop: the distinct accepting frontiers are flat `u32`
//! rows in the scratch, handed to the caller in place ([`FrontierRow`]).
//! One *retention rule* (see [`KernelScratch`]) empties every hash table a
//! search filled, so one unusually large search slows no later one.

use crate::util::{self, FxHashMap};
use evlin_history::{History, ObjectId, ObjectUniverse, OperationMatcher};
use evlin_spec::{Invocation, ObjectType, Value};
use std::hash::Hash;

// ---------------------------------------------------------------------------
// Problem statement types
// ---------------------------------------------------------------------------

/// One operation of a problem, lent by the problem's owner for the length of
/// the interning pass.
#[derive(Debug, Clone, Copy)]
pub struct OpView<'a> {
    /// The object the operation is applied to.
    pub object: ObjectId,
    /// The invocation (method + arguments).
    pub invocation: &'a Invocation,
    /// Whether the operation must appear in the sequential witness.
    /// Operations that completed in the history are required; pending
    /// operations are optional.
    pub required: bool,
    /// The response the witness must assign, or `None` if any legal response
    /// is acceptable (pending operations, and operations whose response fell
    /// in the unconstrained prefix for `t`-linearizability).
    pub fixed_response: Option<&'a Value>,
}

/// A constrained-linearization problem: operation views produced on demand,
/// plus the precedence edges.  The only way a problem is stated — the offline
/// conditions lend views of a [`History`]'s events
/// ([`ConsistencyCondition::views`]), the online monitor of a stream
/// segment's events and of its invocation counters — and all of them are
/// interned by the same routine.
pub trait Problem {
    /// Number of operations.
    fn op_count(&self) -> usize;
    /// The `i`-th operation, `i < op_count()`.
    fn op(&self, i: usize) -> OpView<'_>;
    /// Precedence edges `(i, j)`: if both operations appear in the witness,
    /// operation `i` must be placed before operation `j`.
    ///
    /// All reductions in this crate only create edges whose source is a
    /// *required* operation, which lets the search treat an edge as "source
    /// must already be linearized before the target can be taken".
    fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_;
}

/// A successful search outcome: a witness linearization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Indices (into the [`Problem`]'s operations) of the operations included
    /// in the witness, in linearization order.
    pub order: Vec<usize>,
    /// The response assigned to each included operation, in the same order.
    pub responses: Vec<Value>,
}

/// Limits placed on the search to keep worst-case behaviour under control.
#[derive(Debug, Clone, Copy)]
pub struct SearchLimits {
    /// Maximum number of search nodes to expand before giving up.
    pub max_nodes: usize,
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits {
            max_nodes: 2_000_000,
        }
    }
}

/// The verdict of a search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchResult {
    /// A witness linearization exists.
    Yes(Witness),
    /// No witness linearization exists.
    No,
    /// The search gave up after expanding [`SearchLimits::max_nodes`] nodes.
    Unknown,
}

impl SearchResult {
    /// `true` iff the result is [`SearchResult::Yes`].
    pub fn is_yes(&self) -> bool {
        matches!(self, SearchResult::Yes(_))
    }

    /// Extracts the witness, if any.
    pub fn witness(self) -> Option<Witness> {
        match self {
            SearchResult::Yes(w) => Some(w),
            _ => None,
        }
    }
}

/// Counters describing one search run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Search nodes expanded (summed over subproblems when the locality
    /// pre-pass decomposed the history).
    pub nodes: usize,
    /// Nodes cut off because their `(linearized-multiset, object-states)`
    /// key had already been visited — the Wing–Gong memoization at work.
    pub memo_hits: usize,
    /// Peak bytes of live kernel bookkeeping (visited cache, interners,
    /// transition arena, per-op tables) across this run and every absorbed
    /// one — a function of the explored key sets and problem sizes, so it is
    /// deterministic across thread counts.  Because [`KernelScratch`] pools
    /// these buffers, repeated searches reuse rather than re-grow them; the
    /// monitor's per-segment accounting test pins that down.
    pub arena_bytes: usize,
}

impl SearchStats {
    /// Accumulates another run's counters into this one (used when a check
    /// is split into subproblems — per object, per segment, per probe).
    /// Node counters add; the memory high-water mark takes the maximum.
    pub fn absorb(&mut self, other: SearchStats) {
        self.nodes += other.nodes;
        self.memo_hits += other.memo_hits;
        self.arena_bytes = self.arena_bytes.max(other.arena_bytes);
    }
}

// ---------------------------------------------------------------------------
// The condition trait
// ---------------------------------------------------------------------------

/// How a condition decomposes across objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locality {
    /// The condition holds of a history iff it holds of every per-object
    /// projection, *and* [`ConsistencyCondition::views`] states exactly one
    /// operation per operation of the history, in invocation order (needed
    /// to map per-object witnesses back to global operation indices).
    /// Linearizability is the canonical example (the Herlihy–Wing locality
    /// theorem).
    Exact,
    /// No sound per-object decomposition; the history must be checked whole.
    /// `t`-linearizability for a fixed `t > 0` is the canonical example:
    /// Lemma 7 only decomposes "`t`-linearizable for *some* `t`", and the
    /// composed index is not tight.
    Global,
}

/// A consistency condition: which constrained-linearization question it asks
/// about a history, and whether that question decomposes per object.  A
/// history satisfies the condition iff the question has a witness — an
/// arrangement in which every required operation is linearized.
pub trait ConsistencyCondition: Sync {
    /// The condition's question about a history, as views of its events.
    type Views<'h>: Problem;

    /// States the question about `history`, whose operations — as
    /// `(invoke, respond)` event indices in invocation order, matched by
    /// [`OperationMatcher`] — are `ops`.
    fn views<'h>(&self, history: &'h History, ops: &'h [(usize, Option<usize>)])
        -> Self::Views<'h>;

    /// Whether the condition admits the exact per-object decomposition used
    /// by [`check_local`].
    fn locality(&self) -> Locality {
        Locality::Global
    }
}

// ---------------------------------------------------------------------------
// The small table
// ---------------------------------------------------------------------------

/// Linear-scan bound: a [`Table`] holding at most this many keys (the
/// overwhelmingly common case — unit-test histories, bench histories up to
/// ~20 operations, per-object monitor segments) never hashes.
const LINEAR_INTERN_MAX: usize = 32;

/// Hash tables up to this capacity are always kept: clearing one costs less
/// than growing it again.
const RETAIN_CAPACITY_FLOOR: usize = 2048;

/// The kernel's one small-table policy: keys in a dense `Vec`, ids in
/// insertion order.  A lookup scans the keys while there are at most
/// [`LINEAR_INTERN_MAX`] of them and past that probes an index from a key's
/// hash to the newest id with that hash, each id linking to the next older
/// one with the same hash — so no key is stored twice or cloned to be looked
/// up.  [`Table::clear`] empties the index under the retention rule
/// ([`shed`]).
struct Table<K> {
    keys: Vec<K>,
    index: FxHashMap<u64, u32>,
    /// Per indexed id, the next older id with the same hash, or `INVALID`.
    older: Vec<u32>,
}

impl<K> Default for Table<K> {
    fn default() -> Self {
        let (keys, index, older) = Default::default();
        Table { keys, index, older }
    }
}

impl<K: Hash> Table<K> {
    /// The id of the key `matches` accepts (given its id and the key), if
    /// any; `probe` must hash like that key.
    fn find<Q: Hash + ?Sized>(
        &self,
        probe: &Q,
        matches: impl Fn(usize, &K) -> bool,
    ) -> Option<u32> {
        if self.keys.len() <= LINEAR_INTERN_MAX {
            let found = self
                .keys
                .iter()
                .enumerate()
                .position(|(id, k)| matches(id, k));
            return found.map(|id| id as u32);
        }
        let mut id = self.index.get(&util::hash_of(probe)).copied();
        while let Some(at) = id.filter(|&at| !matches(at as usize, &self.keys[at as usize])) {
            id = Some(self.older[at as usize]).filter(|&older| older != INVALID);
        }
        id
    }

    /// Appends `key`, which no key of the table equals, and returns its id.
    fn push(&mut self, key: K) -> u32 {
        let id = self.keys.len() as u32;
        self.keys.push(key);
        if self.keys.len() > LINEAR_INTERN_MAX {
            // Index every key not indexed yet: all of them the first time.
            for at in self.older.len()..self.keys.len() {
                let newer = self.index.insert(util::hash_of(&self.keys[at]), at as u32);
                self.older.push(newer.unwrap_or(INVALID));
            }
        }
        id
    }

    /// The id of `key`, interning a copy of it if it is new.
    fn id(&mut self, key: &K) -> u32
    where
        K: Eq + Clone,
    {
        let found = self.find(key, |_, k| k == key);
        found.unwrap_or_else(|| self.push(key.clone()))
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Empties the table for the next search.
    fn clear(&mut self) {
        self.keys.clear();
        self.older.clear();
        shed(&mut self.index);
    }

    /// Live bytes, by length, so the figure is a function of the search.
    fn bytes(&self) -> usize {
        self.keys.len() * size_of::<K>()
            + self.older.len() * size_of::<u32>()
            + self.index.len() * size_of::<(u64, u32)>()
    }
}

/// The retention rule of [`KernelScratch`]: empties `map`, dropping it instead
/// when its capacity is past the floor *and* sixteen times what the search
/// that just ended put in it.
fn shed<K, V>(map: &mut FxHashMap<K, V>) {
    if map.capacity() > RETAIN_CAPACITY_FLOOR && map.capacity() > 16 * map.len() {
        *map = FxHashMap::default();
    } else {
        map.clear();
    }
}

// ---------------------------------------------------------------------------
// Reusable scratch state
// ---------------------------------------------------------------------------

/// Reusable search state: every table of the searcher — the interners, the
/// per-operation tables, the transition memo, the DFS frame stack, the
/// visited cache, the per-class taken counts and the accepting-frontier row
/// store.
///
/// Every allocation of a search survives into the next one, so repeated
/// probes — the binary search of `min_stabilization`, the per-operation loop
/// of the weak-consistency checker, the monitor's per-segment chains — run
/// allocation-free after warm-up (the allocation-count smoke test in
/// `tests/alloc_smoke.rs` enforces this).  For the same reason
/// variable-length per-item lists (precedence predecessors, memoized
/// transition lists) are spans into shared arenas, not nested `Vec`s.
///
/// **Retention rule.**  Every table is emptied when a search ends, and
/// emptying a hash table costs time proportional to its *capacity*: one
/// unusually large search would tax every later small one through the same
/// scratch for as long as the scratch lives (measured: 6.5× on a 3-operation
/// solve after a 745 k-node refutation).  So a hash table — the visited cache
/// or the index of any `Table` — left with a capacity beyond a floor of a
/// couple of thousand entries *and* beyond sixteen times what the search that
/// just finished put in it is dropped, not cleared (`shed`): repeated large
/// probes keep their tables, and a large-then-small sequence sheds them at
/// the first small search.  The rule runs at the end of every search,
/// whoever owns the scratch.
#[derive(Default)]
pub struct KernelScratch {
    /// Active objects, in first-appearance order: the slots.
    slots: Table<ObjectId>,
    /// Interned object states and responses.
    values: Table<Value>,
    /// Interned `(slot, invocation)` pairs.
    invs: Table<(u32, Invocation)>,
    /// Interchangeability classes, keyed `(inv, required, fixed)`.
    classes: Table<(u32, bool, u32)>,
    // --- per-operation tables ---
    op_inv: Vec<u32>,
    op_slot: Vec<u32>,
    op_required: Vec<bool>,
    /// Fixed-response value id, or `INVALID` for a free response.
    op_fixed: Vec<u32>,
    incident: Vec<bool>,
    /// The precedence edges, copied out of the problem once.
    edges: Vec<(u32, u32)>,
    /// CSR of the classes of required predecessors:
    /// `pred_data[pred_offsets[j]..pred_offsets[j+1]]`.
    pred_offsets: Vec<u32>,
    pred_data: Vec<u32>,
    class_of: Vec<u32>,
    /// Each operation's position among its class's members, in ascending
    /// operation order.
    rank: Vec<u32>,
    /// Reused counting cursor: the per-class tally behind `rank`, then the
    /// predecessor CSR's counting sort.
    cursor: Vec<u32>,
    // --- mutable search state ---
    /// Taken members per class: operation `i` is linearized iff
    /// `rank[i] < class_counts[class_of[i]]`.
    class_counts: Vec<u32>,
    states: Vec<u32>,
    order: Vec<u32>,
    responses: Vec<u32>,
    frames: Vec<Frame>,
    /// Keys of the visited `(linearized-multiset, object-states)` pairs: a
    /// set, which needs no ids, so not a [`Table`].
    visited: FxHashMap<u64, ()>,
    // --- memoized transitions ---
    /// `(inv << 32 | state)` keys; an id indexes `trans_spans`.
    trans: Table<u64>,
    /// `(start, len)` spans into `trans_data`.
    trans_spans: Vec<(u32, u32)>,
    trans_data: Vec<(u32, u32)>,
    /// The `(response, next state)` pairs of the memo miss being read,
    /// before they are interned (empty between misses).
    fresh: Vec<(Value, Value)>,
    // --- accepting frontiers ---
    /// Distinct accepting frontiers of the last frontier search, as flat
    /// rows: per row the interned state of every slot, then one `0`/`1` flag
    /// per tracked operation.
    frontier_rows: Vec<u32>,
    /// Each row's hash; ids are row numbers (a row may be zero words wide).
    frontiers: Table<u64>,
    /// The tables of the small-problem walk, which touches no other.
    walk: WalkScratch,
}

impl KernelScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        KernelScratch::default()
    }

    /// Empties every table once a search is over, under the retention rule.
    fn clear(&mut self) {
        self.slots.clear();
        self.values.clear();
        self.invs.clear();
        self.classes.clear();
        self.trans.clear();
        self.frontiers.clear();
        shed(&mut self.visited);
        for words in [
            &mut self.op_inv,
            &mut self.op_slot,
            &mut self.op_fixed,
            &mut self.pred_offsets,
            &mut self.pred_data,
            &mut self.class_of,
            &mut self.rank,
            &mut self.cursor,
            &mut self.class_counts,
            &mut self.states,
            &mut self.order,
            &mut self.responses,
            &mut self.frontier_rows,
        ] {
            words.clear();
        }
        self.op_required.clear();
        self.incident.clear();
        self.edges.clear();
        self.frames.clear();
        self.trans_spans.clear();
        self.trans_data.clear();
    }

    /// Bytes of live bookkeeping (by current lengths, not capacities, so the
    /// figure is a deterministic function of the search itself).  The
    /// frontier rows count too: without them a frontier-dominated monitor
    /// segment would under-report its peak.
    fn live_bytes(&self) -> usize {
        let words = [
            &self.op_inv,
            &self.op_slot,
            &self.op_fixed,
            &self.pred_offsets,
            &self.pred_data,
            &self.class_of,
            &self.rank,
            &self.class_counts,
            &self.states,
            &self.order,
            &self.responses,
            &self.frontier_rows,
        ];
        self.slots.bytes()
            + self.values.bytes()
            + self.invs.bytes()
            + self.classes.bytes()
            + self.trans.bytes()
            + self.frontiers.bytes()
            + words.iter().map(|w| w.len()).sum::<usize>() * size_of::<u32>()
            + self.op_required.len()
            + (self.trans_spans.len() + self.trans_data.len()) * size_of::<(u32, u32)>()
            + self.visited.len() * size_of::<u64>()
    }
}

/// Retention cap for the thread-local scratch: a pool one unusually large
/// search grew past this many live bytes is dropped after the call instead
/// of pinning peak-sized buffers to the thread for the process lifetime.
const THREAD_SCRATCH_RETAIN_BYTES: usize = 1 << 20;

/// Runs `f` with a thread-local [`KernelScratch`], so entry points without a
/// caller-provided scratch ([`check`], the `is_linearizable` facades) still
/// reuse one warm buffer pool per thread instead of reallocating per call.
/// Falls back to a fresh scratch on re-entrant use.
pub(crate) fn with_thread_scratch<R>(
    f: impl FnOnce(&mut KernelScratch) -> (R, SearchStats),
) -> (R, SearchStats) {
    use std::cell::RefCell;
    thread_local! {
        static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::new());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => {
            let (result, stats) = f(&mut scratch);
            if stats.arena_bytes > THREAD_SCRATCH_RETAIN_BYTES {
                *scratch = KernelScratch::new();
            }
            (result, stats)
        }
        Err(_) => f(&mut KernelScratch::new()),
    })
}

/// Domain tag of class-count components of the incremental visited key.
const TAG_CLASS: u64 = 0x636c_6173_7300_0001;
/// Domain tag of object-state components of the incremental visited key.
const TAG_STATE: u64 = 0x7374_6174_6500_0002;

// ---------------------------------------------------------------------------
// The iterative searcher
// ---------------------------------------------------------------------------

const INVALID: u32 = u32::MAX;

/// One level of the explicit DFS stack: which candidate operation is being
/// explored and which of its transitions comes next, plus the undo record of
/// the step that produced this level.
struct Frame {
    /// Candidate operation currently being enumerated at this level.
    i: usize,
    /// Next transition index for operation `i`.
    k: u32,
    /// Index into the transition-span arena of operation `i`'s transitions at
    /// this level's entry state, or `INVALID` before it is computed.
    trans: u32,
    /// How this level's node was produced (`None` only for the root).
    undo: Option<Undo>,
}

/// Everything needed to retract one linearization step.
struct Undo {
    class: usize,
    slot: usize,
    prev_state: u32,
    required: bool,
}

/// The iterative Wing–Gong searcher over one interned problem.
///
/// Its tables live in the caller's [`KernelScratch`], which it borrows for
/// the search, so a warm scratch makes both construction and the search
/// itself allocation-free.  The visited cache keys on an *incrementally
/// maintained* Zobrist fold of the `(per-class taken counts, object states)`
/// pair ([`Searcher::vkey`]): one linearization step XORs out and in at most
/// four [`crate::util::zkey`] components instead of serializing a fresh
/// boxed key per node.
struct Searcher<'a> {
    universe: &'a ObjectUniverse,
    limits: SearchLimits,
    n: usize,
    required_count: usize,
    /// The borrowed scratch holding every table of the search.
    s: &'a mut KernelScratch,
    /// The incremental visited-cache key of the current search state.
    vkey: u64,
    // --- mutable search state ---
    required_taken: usize,
    nodes: usize,
    memo_hits: usize,
    exhausted: bool,
}

impl<'a> Searcher<'a> {
    /// Interns `problem` into the (empty) tables of `s` — the one place a
    /// problem is read.  `roots` overrides the state an object starts the
    /// search in; an object it does not list starts in the universe's
    /// initial state.
    fn new<P: Problem + ?Sized>(
        problem: &P,
        roots: &[(ObjectId, &Value)],
        universe: &'a ObjectUniverse,
        limits: SearchLimits,
        s: &'a mut KernelScratch,
    ) -> Self {
        let n = problem.op_count();
        debug_assert!(s.visited.is_empty() && s.values.len() == 0 && s.frontiers.len() == 0);

        // Active objects -> slots, and per-op interned invocations and fixed
        // responses.
        for i in 0..n {
            let op = problem.op(i);
            let slot = s.slots.id(&op.object);
            let matches = |_, (at, inv): &(u32, Invocation)| *at == slot && inv == op.invocation;
            let found = s.invs.find(&(slot, op.invocation), matches);
            let inv = found.unwrap_or_else(|| s.invs.push((slot, op.invocation.clone())));
            s.op_slot.push(slot);
            s.op_inv.push(inv);
            s.op_required.push(op.required);
            s.op_fixed
                .push(op.fixed_response.map_or(INVALID, |v| s.values.id(v)));
        }

        // The precedence edges, and the operations they touch.
        s.edges
            .extend(problem.edges().map(|(i, j)| (i as u32, j as u32)));
        s.incident.resize(n, false);
        for &(i, j) in &s.edges {
            s.incident[i as usize] = true;
            s.incident[j as usize] = true;
        }

        // Interchangeability classes: operations with the same interned
        // invocation, the same constraints and no incident precedence edge
        // are indistinguishable, so the search only ever takes the first
        // untaken member of a class and the visited cache keys on per-class
        // counts instead of exact subsets.  The taken members are therefore
        // the class's lowest ranks, and its count says which.  An operation
        // with an incident edge is a class of its own, under a key no
        // invocation id makes.
        s.cursor.resize(n, 0);
        for i in 0..n {
            let class = if s.incident[i] {
                s.classes.push((INVALID, false, i as u32))
            } else {
                s.classes
                    .id(&(s.op_inv[i], s.op_required[i], s.op_fixed[i]))
            };
            s.class_of.push(class);
            s.rank.push(s.cursor[class as usize]);
            s.cursor[class as usize] += 1;
        }
        s.class_counts.resize(s.classes.len(), 0);

        // The classes of required predecessors as a CSR (edges with optional
        // sources impose nothing, matching the reductions in this crate, which
        // only create edges with required sources).  A predecessor is a class
        // of its own, so it is taken once that class's count is non-zero.
        s.cursor.fill(0);
        for &(i, j) in &s.edges {
            if s.op_required[i as usize] {
                s.cursor[j as usize] += 1;
            }
        }
        s.pred_offsets.reserve(n + 1);
        let mut acc = 0u32;
        for j in 0..n {
            s.pred_offsets.push(acc);
            acc += s.cursor[j];
        }
        s.pred_offsets.push(acc);
        s.pred_data.resize(acc as usize, 0);
        s.cursor.copy_from_slice(&s.pred_offsets[..n]);
        for &(i, j) in &s.edges {
            if s.op_required[i as usize] {
                s.pred_data[s.cursor[j as usize] as usize] = s.class_of[i as usize];
                s.cursor[j as usize] += 1;
            }
        }

        // Root object states and the initial visited key.
        for &object in &s.slots.keys {
            let root = roots.iter().find(|(o, _)| *o == object);
            let state = root.map_or_else(|| universe.initial_state(object), |(_, v)| *v);
            s.states.push(s.values.id(state));
        }
        let mut vkey = 0u64;
        for (slot, &state) in s.states.iter().enumerate() {
            vkey ^= util::zkey(TAG_STATE, slot as u64, state as u64);
        }

        let required_count = s.op_required.iter().filter(|&&r| r).count();
        Searcher {
            universe,
            limits,
            n,
            required_count,
            s,
            vkey,
            required_taken: 0,
            nodes: 0,
            memo_hits: 0,
            exhausted: false,
        }
    }

    fn stats(&self) -> SearchStats {
        SearchStats {
            nodes: self.nodes,
            memo_hits: self.memo_hits,
            arena_bytes: self.s.live_bytes(),
        }
    }

    /// The transitions of invocation `inv` in state `state`, memoized as a
    /// span into the pooled transition arena.
    fn transitions(&mut self, inv: u32, state: u32) -> u32 {
        let s = &mut *self.s;
        let key = ((inv as u64) << 32) | state as u64;
        if let Some(idx) = s.trans.find(&key, |_, &k| k == key) {
            return idx;
        }
        let (slot, invocation) = &s.invs.keys[inv as usize];
        let object = s.slots.keys[*slot as usize];
        let fresh = &mut s.fresh;
        self.universe.object_type(object).for_each_transition(
            &s.values.keys[state as usize],
            invocation,
            &mut |response, next| fresh.push((response, next)),
        );
        let start = s.trans_data.len() as u32;
        for (response, next) in s.fresh.drain(..) {
            let r = s.values.id(&response);
            let next = s.values.id(&next);
            s.trans_data.push((r, next));
        }
        s.trans_spans
            .push((start, s.trans_data.len() as u32 - start));
        s.trans.push(key)
    }

    /// Whether `i` is the first untaken member of its class (the canonical
    /// representative tried by the search).
    fn canonical(&self, i: usize) -> bool {
        let s = &*self.s;
        s.rank[i] == s.class_counts[s.class_of[i] as usize]
    }

    fn preds_taken(&self, i: usize) -> bool {
        let s = &*self.s;
        let preds = &s.pred_data[s.pred_offsets[i] as usize..s.pred_offsets[i + 1] as usize];
        preds.iter().all(|&p| s.class_counts[p as usize] != 0)
    }

    /// Recomputes the visited key from scratch — the debug cross-check for
    /// the incrementally maintained [`Searcher::vkey`] (run on every
    /// apply/retract under `debug_assertions`, i.e. by the whole test suite
    /// including the nightly differential fuzz job; compiled out of release
    /// builds).
    fn recomputed_vkey(&self) -> u64 {
        let mut key = 0u64;
        for (c, &count) in self.s.class_counts.iter().enumerate() {
            if count > 0 {
                key ^= util::zkey(TAG_CLASS, c as u64, count as u64);
            }
        }
        for (slot, &state) in self.s.states.iter().enumerate() {
            key ^= util::zkey(TAG_STATE, slot as u64, state as u64);
        }
        key
    }

    /// Whether the current partial linearization is a witness: every
    /// required operation is linearized.
    fn accepting(&self) -> bool {
        self.required_taken == self.required_count
    }

    fn apply(&mut self, i: usize, resp: u32, next_state: u32) -> Undo {
        let s = &mut *self.s;
        let slot = s.op_slot[i] as usize;
        let class = s.class_of[i] as usize;
        let undo = Undo {
            class,
            slot,
            prev_state: s.states[slot],
            required: s.op_required[i],
        };
        let count = s.class_counts[class];
        if count > 0 {
            self.vkey ^= util::zkey(TAG_CLASS, class as u64, count as u64);
        }
        self.vkey ^= util::zkey(TAG_CLASS, class as u64, (count + 1) as u64);
        s.class_counts[class] = count + 1;
        self.vkey ^= util::zkey(TAG_STATE, slot as u64, undo.prev_state as u64)
            ^ util::zkey(TAG_STATE, slot as u64, next_state as u64);
        s.states[slot] = next_state;
        s.order.push(i as u32);
        s.responses.push(resp);
        if undo.required {
            self.required_taken += 1;
        }
        debug_assert_eq!(self.vkey, self.recomputed_vkey(), "visited key drifted");
        undo
    }

    fn retract(&mut self, undo: Undo) {
        let s = &mut *self.s;
        let count = s.class_counts[undo.class];
        self.vkey ^= util::zkey(TAG_CLASS, undo.class as u64, count as u64);
        if count > 1 {
            self.vkey ^= util::zkey(TAG_CLASS, undo.class as u64, (count - 1) as u64);
        }
        s.class_counts[undo.class] = count - 1;
        self.vkey ^= util::zkey(TAG_STATE, undo.slot as u64, s.states[undo.slot] as u64)
            ^ util::zkey(TAG_STATE, undo.slot as u64, undo.prev_state as u64);
        s.states[undo.slot] = undo.prev_state;
        s.order.pop();
        s.responses.pop();
        if undo.required {
            self.required_taken -= 1;
        }
        debug_assert_eq!(self.vkey, self.recomputed_vkey(), "visited key drifted");
    }

    fn witness(&self) -> Witness {
        let s = &*self.s;
        Witness {
            order: s.order.iter().map(|&i| i as usize).collect(),
            responses: s
                .responses
                .iter()
                .map(|&r| s.values.keys[r as usize].clone())
                .collect(),
        }
    }

    /// The iterative Wing–Gong search, in one of two modes.
    ///
    /// With `tracked: None` it stops at the first accepting node and answers
    /// `Yes` with the witness.  With `Some(tracked)` it is exhaustive:
    /// acceptance is not a stopping condition, because deeper nodes (more
    /// optional operations linearized) reach *different* frontiers; every
    /// distinct accepting frontier goes to the scratch's row store in
    /// discovery order (see [`Searcher::record_frontier`]) and the answer is
    /// `No` once the (memoized) space is covered.  `Unknown` means the node
    /// budget ran out: rows may be missing, but every row is reachable.
    fn run(&mut self, tracked: Option<&[usize]>) -> SearchResult {
        if tracked.is_none() && self.accepting() {
            return SearchResult::Yes(self.witness());
        }
        self.nodes += 1;
        if tracked.is_none() && self.nodes > self.limits.max_nodes {
            return SearchResult::Unknown;
        }
        self.s.visited.insert(self.vkey, ());
        self.s.frames.push(Frame {
            i: 0,
            k: 0,
            trans: INVALID,
            undo: None,
        });
        if let Some(tracked) = tracked.filter(|_| self.accepting()) {
            self.record_frontier(tracked);
        }

        'outer: loop {
            let Some(mut f) = self.s.frames.pop() else {
                break if self.exhausted {
                    SearchResult::Unknown
                } else {
                    SearchResult::No
                };
            };
            loop {
                if f.i >= self.n {
                    // This level is exhausted: retract the step that
                    // produced it and resume the parent.
                    if let Some(undo) = f.undo.take() {
                        self.retract(undo);
                    }
                    continue 'outer;
                }
                let i = f.i;
                if !self.canonical(i) || !self.preds_taken(i) {
                    f.i += 1;
                    f.k = 0;
                    f.trans = INVALID;
                    continue;
                }
                if f.trans == INVALID {
                    let state = self.s.states[self.s.op_slot[i] as usize];
                    f.trans = self.transitions(self.s.op_inv[i], state);
                    f.k = 0;
                }
                let (start, len) = self.s.trans_spans[f.trans as usize];
                while f.k < len {
                    let (resp, next_state) = self.s.trans_data[(start + f.k) as usize];
                    f.k += 1;
                    let fixed = self.s.op_fixed[i];
                    if fixed != INVALID && resp != fixed {
                        continue;
                    }
                    let undo = self.apply(i, resp, next_state);
                    if tracked.is_none() && self.accepting() {
                        break 'outer SearchResult::Yes(self.witness());
                    }
                    self.nodes += 1;
                    if self.nodes > self.limits.max_nodes {
                        self.exhausted = true;
                        self.retract(undo);
                        continue;
                    }
                    if self.s.visited.insert(self.vkey, ()).is_some() {
                        self.memo_hits += 1;
                        self.retract(undo);
                        continue;
                    }
                    if let Some(tracked) = tracked.filter(|_| self.accepting()) {
                        self.record_frontier(tracked);
                    }
                    self.s.frames.push(f);
                    self.s.frames.push(Frame {
                        i: 0,
                        k: 0,
                        trans: INVALID,
                        undo: Some(undo),
                    });
                    continue 'outer;
                }
                f.i += 1;
                f.k = 0;
                f.trans = INVALID;
            }
        }
    }

    /// Records the current (accepting) node's frontier — the interned object
    /// states, then which of the `tracked` operations are linearized — as a
    /// row of the scratch's store, unless an equal row is already there.  (A
    /// node reached twice is pruned by the visited cache before this runs
    /// again, so the lookup only guards against distinct accepting nodes
    /// that share a frontier.)
    fn record_frontier(&mut self, tracked: &[usize]) {
        let s = &mut *self.s;
        let start = s.frontier_rows.len();
        s.frontier_rows.extend_from_slice(&s.states);
        let taken = |op: usize| s.rank[op] < s.class_counts[s.class_of[op] as usize];
        s.frontier_rows
            .extend(tracked.iter().map(|&op| taken(op) as u32));
        let (old, row) = s.frontier_rows.split_at(start);
        let (hash, width) = (util::hash_of(row), row.len());
        let matches = |r: usize, &h: &u64| h == hash && old[r * width..][..width] == *row;
        if s.frontiers.find(&hash, matches).is_some() {
            s.frontier_rows.truncate(start);
        } else {
            s.frontiers.push(hash);
        }
    }
}

// ---------------------------------------------------------------------------
// The small-problem walk
// ---------------------------------------------------------------------------

/// The most operations a frontier problem may hold to be walked ([`Walk`])
/// rather than searched (see the module doc).
pub(crate) const SMALL_OPS: usize = 4;

// A walk's `u8` masks hold a bit per operation and the mask of all of them.
const _: () = assert!(SMALL_OPS < u8::BITS as usize);

/// The pooled tables of [`Walk`]: its distinct states (an id is an index),
/// its memo of `(invocation id, state id, span)` over `(operations answered,
/// next state id)` transitions, its visited `(state id, taken mask)` words,
/// and a memo miss's transitions before their states are interned.
#[derive(Default)]
struct WalkScratch {
    states: Vec<Value>,
    expanded: Vec<(u8, u32, (u32, u32))>,
    transitions: Vec<(u8, u32)>,
    visited: Vec<u64>,
    fresh: Vec<(u8, Value)>,
}

/// The exhaustive search of [`visit_frontiers`] over a small problem, without
/// the searcher's set-up.  Depth first, it takes operations by ascending
/// index, transitions in the spec's order, and only the first untaken member
/// of an interchangeability class (equal invocation and response; alone if a
/// precedence edge touches it) whose predecessors are taken: the taken mask
/// stands for the searcher's class counts, and nodes, memo hits and budget
/// count as the searcher's.
struct Walk<'a> {
    spec: &'a dyn ObjectType,
    object: ObjectId,
    root: &'a Value,
    max_nodes: usize,
    n: usize,
    /// Per operation: its invocation and its fixed response.
    invocations: [&'a Invocation; SMALL_OPS],
    responses: [&'a Value; SMALL_OPS],
    /// Per operation: its invocation's id (the least operation making it),
    /// its predecessors and the lesser members of its class.
    inv: [u8; SMALL_OPS],
    preds: [u8; SMALL_OPS],
    peers: [u8; SMALL_OPS],
    stats: SearchStats,
    complete: bool,
    s: &'a mut WalkScratch,
}

impl<'a> Walk<'a> {
    /// Reads `problem` through its views; `None` unless it has one object
    /// and one to [`SMALL_OPS`] operations, each required with a fixed
    /// response.
    fn new<P: Problem + ?Sized>(
        problem: &'a P,
        roots: &[(ObjectId, &'a Value)],
        universe: &'a ObjectUniverse,
        limits: SearchLimits,
        s: &'a mut WalkScratch,
    ) -> Option<Self> {
        let n = problem.op_count();
        if n == 0 || n > SMALL_OPS {
            return None;
        }
        let first = problem.op(0);
        let object = first.object;
        let value = first.fixed_response.filter(|_| first.required)?;
        let (mut invocations, mut responses) = ([first.invocation; SMALL_OPS], [value; SMALL_OPS]);
        let (mut inv, mut preds, mut peers, mut alone) =
            ([0; SMALL_OPS], [0; SMALL_OPS], [0; SMALL_OPS], 0u8);
        for (i, j) in problem.edges() {
            preds[j] |= 1 << i;
            alone |= 1 << i | 1 << j;
        }
        for i in 1..n {
            let op = problem.op(i);
            if op.object != object || !op.required {
                return None;
            }
            (invocations[i], responses[i]) = (op.invocation, op.fixed_response?);
            let same_call = |j: &usize| invocations[*j] == invocations[i];
            inv[i] = (0..i).find(same_call).unwrap_or(i) as u8;
            let same = |j: usize| inv[j] == inv[i] && responses[j] == responses[i];
            let lesser = (0..i).filter(|&j| (alone >> i | alone >> j) & 1 == 0 && same(j));
            peers[i] = lesser.fold(0, |m, j| m | 1 << j);
        }
        let root = roots.iter().find(|(o, _)| *o == object);
        Some(Walk {
            spec: &**universe.object_type(object),
            object,
            root: root.map_or_else(|| universe.initial_state(object), |(_, v)| *v),
            max_nodes: limits.max_nodes,
            n,
            invocations,
            responses,
            inv,
            preds,
            peers,
            stats: SearchStats::default(),
            complete: true,
            s,
        })
    }

    /// Walks the problem from its root and hands every distinct accepting
    /// frontier to `each` in discovery order, as [`visit_frontiers`] does.
    fn visit(mut self, mut each: impl FnMut(FrontierRow<'_>)) -> (bool, SearchStats) {
        self.s.visited.clear();
        self.s.expanded.clear();
        self.s.transitions.clear();
        self.s.states.clear();
        self.s.states.push(self.root.clone());
        self.stats.nodes = 1; // the root
        self.walk(0, 0);
        // The accepting states are the visited pairs that took every
        // operation, in discovery order.
        let all = u64::from((1u8 << self.n) - 1);
        let s = &*self.s;
        for &key in s.visited.iter().filter(|&&key| key & 0xff == all) {
            each(FrontierRow {
                slots: std::slice::from_ref(&self.object),
                values: &s.states,
                row: std::slice::from_ref(&((key >> 8) as u32)),
            });
        }
        (self.complete, self.stats)
    }

    /// Expands the node that has taken `taken` and reached state `state`.
    fn walk(&mut self, taken: u8, state: u32) {
        let all = (1u8 << self.n) - 1;
        for i in 0..self.n {
            let (bit, preds, peers) = (1u8 << i, self.preds[i], self.peers[i]);
            if taken & bit != 0 || taken & preds != preds || taken & peers != peers {
                continue;
            }
            let (start, end) = self.expand(self.inv[i], state);
            for k in start..end {
                let (answers, next) = self.s.transitions[k as usize];
                if answers & bit == 0 {
                    continue;
                }
                self.stats.nodes += 1;
                if self.stats.nodes > self.max_nodes {
                    self.complete = false;
                    continue;
                }
                let (child, key) = (taken | bit, u64::from(next) << 8 | u64::from(taken | bit));
                if self.s.visited.contains(&key) {
                    self.stats.memo_hits += 1;
                    continue;
                }
                self.s.visited.push(key);
                if child != all {
                    self.walk(child, next);
                }
            }
        }
    }

    /// The span of invocation `inv`'s transitions from state `state`, asked
    /// of the spec once per problem.
    fn expand(&mut self, inv: u8, state: u32) -> (u32, u32) {
        let memo = self.s.expanded.iter().find(|e| (e.0, e.1) == (inv, state));
        if let Some(&(_, _, span)) = memo {
            return span;
        }
        let (n, ids, responses, spec) = (self.n, &self.inv, &self.responses, self.spec);
        let (s, call) = (&mut *self.s, self.invocations[inv as usize]);
        let fresh = &mut s.fresh;
        spec.for_each_transition(&s.states[state as usize], call, &mut |answer, next| {
            let asked = (0..n).filter(|&j| ids[j] == inv);
            let answers = asked.fold(0, |m, j| m | u8::from(*responses[j] == answer) << j);
            fresh.push((answers, next));
        });
        let start = s.transitions.len() as u32;
        for (answers, next) in s.fresh.drain(..) {
            let id = s.states.iter().position(|q| *q == next).unwrap_or_else(|| {
                s.states.push(next);
                s.states.len() - 1
            });
            s.transitions.push((answers, id as u32));
        }
        let span = (start, s.transitions.len() as u32);
        s.expanded.push((inv, state, span));
        span
    }
}

/// [`visit_frontiers`] of a problem with nothing tracked, by the walk, or
/// `each` back if the problem is not the walk's shape.  A lone operation
/// needs no tables: every node below the root accepts, so the visited set is
/// the states reached, which one spec call lists.
fn walk_frontiers<P: Problem + ?Sized, F: FnMut(FrontierRow<'_>)>(
    problem: &P,
    roots: &[(ObjectId, &Value)],
    universe: &ObjectUniverse,
    limits: SearchLimits,
    s: &mut WalkScratch,
    mut each: F,
) -> Result<(bool, SearchStats), F> {
    if problem.op_count() != 1 || problem.edges().next().is_some() {
        return match Walk::new(problem, roots, universe, limits, s) {
            Some(walk) => Ok(walk.visit(each)),
            None => Err(each),
        };
    }
    let op = problem.op(0);
    let Some(response) = op.fixed_response.filter(|_| op.required) else {
        return Err(each);
    };
    let root = roots.iter().find(|(o, _)| *o == op.object);
    let root = root.map_or_else(|| universe.initial_state(op.object), |(_, v)| *v);
    let (mut complete, mut stats, states) = (true, SearchStats::default(), &mut s.states);
    stats.nodes = 1; // the root
    states.clear();
    let visit = &mut |answer: Value, next| {
        if answer != *response {
            return;
        }
        stats.nodes += 1;
        if stats.nodes > limits.max_nodes {
            complete = false;
        } else if states.contains(&next) {
            stats.memo_hits += 1;
        } else {
            states.push(next);
        }
    };
    let spec = universe.object_type(op.object);
    spec.for_each_transition(root, op.invocation, visit);
    for id in 0..states.len() as u32 {
        each(FrontierRow {
            slots: std::slice::from_ref(&op.object),
            values: states,
            row: std::slice::from_ref(&id),
        });
    }
    Ok((complete, stats))
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Interns `problem` into the scratch's tables, hands the searcher to
/// `search` and returns its result beside the search counters; the one way
/// in for every entry point below, and where the scratch's retention rule
/// runs.
fn with_searcher<P: Problem + ?Sized, R>(
    problem: &P,
    roots: &[(ObjectId, &Value)],
    universe: &ObjectUniverse,
    limits: SearchLimits,
    scratch: &mut KernelScratch,
    search: impl FnOnce(&mut Searcher<'_>) -> R,
) -> (R, SearchStats) {
    let mut searcher = Searcher::new(problem, roots, universe, limits, scratch);
    let result = search(&mut searcher);
    let stats = searcher.stats();
    scratch.clear();
    (result, stats)
}

/// Searches for a witness of `problem` — an arrangement that linearizes every
/// required operation — through a caller-provided [`KernelScratch`], so
/// repeated solves share their allocations.  The objects listed in `roots`
/// start from the given state instead of the universe's initial one:
/// checking a stream segment from the state an already-verified prefix left
/// behind is exactly checking the whole stream from the initial state.
pub fn solve_rooted<P: Problem + ?Sized>(
    problem: &P,
    roots: &[(ObjectId, &Value)],
    universe: &ObjectUniverse,
    limits: SearchLimits,
    scratch: &mut KernelScratch,
) -> (SearchResult, SearchStats) {
    with_searcher(problem, roots, universe, limits, scratch, |searcher| {
        searcher.run(None)
    })
}

/// One distinct *accepting frontier* of a search problem, read in place from
/// the scratch (the searcher's row store or the walk's states): the final
/// state of every active object under some accepting linearization, together
/// with which of the caller's tracked operations that linearization included.
///
/// The online monitor ([`crate::monitor`]) threads these through a stream of
/// quiescent-cut segments, one chain per object: the frontiers of an
/// object's link in segment `k` become the candidate initial states of its
/// next link, and the tracked operations are the "floaters" of
/// `t`-linearizability — forgiven-prefix operations that may be linearized
/// in a later link of their object.
#[derive(Debug, Clone, Copy)]
pub struct FrontierRow<'s> {
    slots: &'s [ObjectId],
    values: &'s [Value],
    row: &'s [u32],
}

impl<'s> FrontierRow<'s> {
    /// Final state of each object that appears in the problem.
    pub fn states(&self) -> impl Iterator<Item = (ObjectId, &'s Value)> + '_ {
        let states = self.slots.iter().zip(self.row);
        states.map(|(&object, &id)| (object, &self.values[id as usize]))
    }

    /// For each tracked operation (in the caller's order), whether it was
    /// linearized by the accepting linearization reaching this frontier.
    pub fn placed(&self) -> impl Iterator<Item = bool> + '_ {
        self.row[self.slots.len()..].iter().map(|&flag| flag != 0)
    }
}

/// Exhaustively solves a constrained-linearization problem from the given
/// `roots` (see [`solve_rooted`]), handing every distinct accepting frontier
/// to `each` in discovery order instead of stopping at the first witness.
/// Returns `false` when the node budget was exhausted before the search
/// space was covered: every frontier handed out is reachable, but some may
/// be missing.
///
/// `tracked` lists problem operation indices whose inclusion the caller wants
/// reported per frontier (see [`FrontierRow::placed`]); pass `&[]` when only
/// the final states matter.  Unlike [`solve_rooted`], acceptance does not
/// stop the search: nodes below an accepting node are still explored, because
/// linearizing further optional operations reaches different frontiers.  An
/// empty problem has exactly one (empty) frontier.
pub fn visit_frontiers<P: Problem + ?Sized>(
    problem: &P,
    roots: &[(ObjectId, &Value)],
    universe: &ObjectUniverse,
    limits: SearchLimits,
    tracked: &[usize],
    scratch: &mut KernelScratch,
    each: impl FnMut(FrontierRow<'_>),
) -> (bool, SearchStats) {
    let each = match tracked {
        [] => match walk_frontiers(problem, roots, universe, limits, &mut scratch.walk, each) {
            Ok(walked) => return walked,
            Err(each) => each,
        },
        _ => each,
    };
    search_frontiers(problem, roots, universe, limits, tracked, scratch, each)
}

/// [`visit_frontiers`] through the searcher, whatever the problem's size.
fn search_frontiers<P: Problem + ?Sized>(
    problem: &P,
    roots: &[(ObjectId, &Value)],
    universe: &ObjectUniverse,
    limits: SearchLimits,
    tracked: &[usize],
    scratch: &mut KernelScratch,
    mut each: impl FnMut(FrontierRow<'_>),
) -> (bool, SearchStats) {
    with_searcher(problem, roots, universe, limits, scratch, |searcher| {
        let complete = !matches!(searcher.run(Some(tracked)), SearchResult::Unknown);
        let s = &*searcher.s;
        let width = s.slots.len() + tracked.len();
        for r in 0..s.frontiers.len() {
            each(FrontierRow {
                slots: &s.slots.keys,
                values: &s.values.keys,
                row: &s.frontier_rows[r * width..][..width],
            });
        }
        complete
    })
}

/// Checks `condition` on the whole history (no locality decomposition).
pub fn check<C: ConsistencyCondition>(
    condition: &C,
    history: &History,
    universe: &ObjectUniverse,
    limits: SearchLimits,
) -> SearchResult {
    check_with_stats(condition, history, universe, limits).0
}

/// Like [`check`], additionally returning the search counters.
pub fn check_with_stats<C: ConsistencyCondition>(
    condition: &C,
    history: &History,
    universe: &ObjectUniverse,
    limits: SearchLimits,
) -> (SearchResult, SearchStats) {
    let mut matcher = OperationMatcher::default();
    let ops = matcher.match_events(history.events());
    check_matched(condition, history, ops, universe, limits)
}

/// [`check_with_stats`] of a history whose operations are already matched.
fn check_matched<C: ConsistencyCondition>(
    condition: &C,
    history: &History,
    ops: &[(usize, Option<usize>)],
    universe: &ObjectUniverse,
    limits: SearchLimits,
) -> (SearchResult, SearchStats) {
    let problem = condition.views(history, ops);
    with_thread_scratch(|scratch| solve_rooted(&problem, &[], universe, limits, scratch))
}

/// Checks `condition` with the locality pre-pass: a multi-object history is
/// split into per-object projections, each checked independently (one after
/// the other on the calling thread, stopping at the first refuted one), and —
/// when every subproblem has a witness — the per-object witnesses are
/// composed into a global one.
///
/// For conditions whose [`ConsistencyCondition::locality`] is
/// [`Locality::Global`], and for histories touching at most one object, this
/// is exactly [`check`].
pub fn check_local<C: ConsistencyCondition>(
    condition: &C,
    history: &History,
    universe: &ObjectUniverse,
    limits: SearchLimits,
) -> SearchResult {
    check_local_with_stats(condition, history, universe, limits).0
}

/// Like [`check_local`], additionally returning the search counters (summed
/// over the per-object subproblems when the history was decomposed).
pub fn check_local_with_stats<C: ConsistencyCondition>(
    condition: &C,
    history: &History,
    universe: &ObjectUniverse,
    limits: SearchLimits,
) -> (SearchResult, SearchStats) {
    let objects = history.objects();
    if condition.locality() != Locality::Exact || objects.len() <= 1 {
        return check_with_stats(condition, history, universe, limits);
    }
    let mut matcher = OperationMatcher::default();
    let ops = matcher.match_events(history.events());
    // Greedy probe: most histories produced by generators and recorders are
    // satisfiable and the depth-first searcher resolves them in roughly one
    // descent, where projecting and recomposing would only add overhead.
    // Give the whole-history search a budget linear in the operation count;
    // any definitive answer within it is final, and only a blown budget —
    // the signature of a combinatorial (product-space) search — pays for the
    // per-object decomposition.
    let probe_limits = SearchLimits {
        max_nodes: (4 * ops.len() + 16).min(limits.max_nodes),
    };
    let (probe_result, mut stats) = check_matched(condition, history, ops, universe, probe_limits);
    if !matches!(probe_result, SearchResult::Unknown) {
        return (probe_result, stats);
    }
    // Per-object subproblems, in object order.  The first refuted projection
    // refutes the history, so the objects after it are never searched.
    let mut sub: Vec<(ObjectId, Witness)> = Vec::with_capacity(objects.len());
    let mut unknown = false;
    for &object in &objects {
        let projection = history.project_object(object);
        let (result, s) = check_with_stats(condition, &projection, universe, limits);
        stats.absorb(s);
        match result {
            SearchResult::No => return (SearchResult::No, stats),
            SearchResult::Unknown => unknown = true,
            SearchResult::Yes(witness) => sub.push((object, witness)),
        }
    }
    if unknown {
        return (SearchResult::Unknown, stats);
    }
    match compose_witnesses(history, ops, &sub) {
        Some(witness) => (SearchResult::Yes(witness), stats),
        None => {
            // Composition found a cycle, which the locality theorem rules
            // out for Locality::Exact conditions; fall back to the global
            // search rather than give a wrong answer.
            let (result, global_stats) = check_matched(condition, history, ops, universe, limits);
            stats.absorb(global_stats);
            (result, stats)
        }
    }
}

/// Composes per-object witnesses into a global witness: the union of the
/// per-object linearization orders and the real-time precedence between the
/// included operations is acyclic (Herlihy–Wing locality), so a topological
/// sort interleaves them.  Ties are broken by smallest operation index, which
/// makes the composed witness deterministic.  `ops` are the matched
/// operations of `history`, which a [`Locality::Exact`] condition's views
/// follow one for one.
fn compose_witnesses(
    history: &History,
    ops: &[(usize, Option<usize>)],
    sub: &[(ObjectId, Witness)],
) -> Option<Witness> {
    let object_of = |i: usize| history.events()[ops[i].0].object;
    let precedes = |a: usize, b: usize| ops[a].1.is_some_and(|respond| respond < ops[b].0);
    // Global operation indices of each object's operations, in order — the
    // j-th operation of the projection is the j-th operation on that object.
    let mut included: Vec<(usize, Value)> = Vec::new();
    let mut chains: Vec<Vec<usize>> = Vec::new();
    for (object, w) in sub {
        let on_object: Vec<usize> = (0..ops.len())
            .filter(|&i| object_of(i) == *object)
            .collect();
        let mut chain = Vec::with_capacity(w.order.len());
        for (j, &local) in w.order.iter().enumerate() {
            let global = *on_object.get(local)?;
            chain.push(global);
            included.push((global, w.responses[j].clone()));
        }
        chains.push(chain);
    }
    // Edges: consecutive pairs of each per-object chain, plus real-time
    // precedence between included operations.
    let mut position: FxHashMap<usize, usize> = FxHashMap::default();
    for (pos, (global, _)) in included.iter().enumerate() {
        position.insert(*global, pos);
    }
    let m = included.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut indegree = vec![0usize; m];
    let add_edge = |a: usize, b: usize, succs: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>| {
        succs[a].push(b);
        indeg[b] += 1;
    };
    for chain in &chains {
        for w in chain.windows(2) {
            add_edge(position[&w[0]], position[&w[1]], &mut succs, &mut indegree);
        }
    }
    for (pa, &(a, _)) in included.iter().enumerate() {
        for (pb, &(b, _)) in included.iter().enumerate() {
            if a != b && object_of(a) != object_of(b) && precedes(a, b) {
                add_edge(pa, pb, &mut succs, &mut indegree);
            }
        }
    }
    // Kahn's algorithm with smallest-global-index tie-break.
    let mut order = Vec::with_capacity(m);
    let mut responses = Vec::with_capacity(m);
    let mut done = vec![false; m];
    for _ in 0..m {
        let next = (0..m)
            .filter(|&p| !done[p] && indegree[p] == 0)
            .min_by_key(|&p| included[p].0)?;
        done[next] = true;
        order.push(included[next].0);
        responses.push(included[next].1.clone());
        for &s in &succs[next] {
            indegree[s] -= 1;
        }
    }
    Some(Witness { order, responses })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::linearizability::Linearizability;
    use crate::t_linearizability::{EventProblem, TLinearizability};
    use evlin_history::{Event, HistoryBuilder, ProcessId};
    use evlin_spec::{FetchIncrement, Register, Value};
    use std::sync::Arc;

    /// Searches for a witness of `condition`'s question about `h`.
    fn solve<C: ConsistencyCondition>(
        condition: &C,
        h: &History,
        u: &ObjectUniverse,
        limits: SearchLimits,
        scratch: &mut KernelScratch,
    ) -> (SearchResult, SearchStats) {
        let mut matcher = OperationMatcher::default();
        let problem = condition.views(h, matcher.match_events(h.events()));
        solve_rooted(&problem, &[], u, limits, scratch)
    }

    /// Linearizability of `h`, decided in a fresh scratch.
    fn solve_lin(h: &History, u: &ObjectUniverse) -> (SearchResult, SearchStats) {
        let limits = SearchLimits::default();
        solve(&Linearizability, h, u, limits, &mut KernelScratch::new())
    }

    /// An accepting frontier, copied out of the scratch.
    #[derive(Debug, PartialEq)]
    struct Frontier {
        states: Vec<(ObjectId, Value)>,
        placed: Vec<bool>,
    }

    /// The accepting frontiers of linearizability of `h` in discovery order,
    /// whether the search covered its space, and its counters.
    fn frontiers(
        h: &History,
        u: &ObjectUniverse,
        tracked: &[usize],
        scratch: &mut KernelScratch,
    ) -> (Vec<Frontier>, bool, SearchStats) {
        let mut matcher = OperationMatcher::default();
        let problem = Linearizability.views(h, matcher.match_events(h.events()));
        let mut entries = Vec::new();
        let each = |row: FrontierRow<'_>| {
            entries.push(Frontier {
                states: row.states().map(|(o, v)| (o, v.clone())).collect(),
                placed: row.placed().collect(),
            })
        };
        let limits = SearchLimits::default();
        let (complete, stats) = visit_frontiers(&problem, &[], u, limits, tracked, scratch, each);
        (entries, complete, stats)
    }

    fn two_object_history() -> (ObjectUniverse, History) {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let x = u.add_object(FetchIncrement::new());
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(ProcessId(0), r, Register::read(), Value::from(1i64))
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .build();
        (u, h)
    }

    #[test]
    fn local_and_global_checks_agree() {
        let (u, h) = two_object_history();
        let limits = SearchLimits::default();
        let global = check(&Linearizability, &h, &u, limits);
        let local = check_local(&Linearizability, &h, &u, limits);
        assert!(global.is_yes());
        assert!(local.is_yes());
    }

    #[test]
    fn composed_witness_respects_real_time_and_legality() {
        let (u, h) = two_object_history();
        let w = check_local(&Linearizability, &h, &u, SearchLimits::default())
            .witness()
            .expect("linearizable");
        assert_eq!(w.order.len(), 4);
        // Real-time precedence between the included operations must hold in
        // the composed order.
        let ops = h.operations();
        let pos = |i: usize| w.order.iter().position(|&x| x == i).unwrap();
        for a in 0..ops.len() {
            for b in 0..ops.len() {
                if a != b && ops[a].precedes(&ops[b]) {
                    assert!(pos(a) < pos(b), "edge ({a},{b}) violated in {:?}", w.order);
                }
            }
        }
        // And the rendered sequential history is legal.
        let s = crate::linearizability::witness_to_history(&h, &w);
        assert!(s.is_sequential());
        assert!(evlin_history::legal::is_legal_sequential(&s, &u));
    }

    #[test]
    fn locality_rejects_when_one_object_is_broken() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let x = u.add_object(FetchIncrement::new());
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            // Stale read strictly after the write: the register projection is
            // not linearizable.
            .complete(ProcessId(0), r, Register::read(), Value::from(0i64))
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .build();
        assert_eq!(
            check_local(&Linearizability, &h, &u, SearchLimits::default()),
            SearchResult::No
        );
    }

    #[test]
    fn scratch_reuse_is_sound_across_outcomes() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let good = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(ProcessId(1), r, Register::read(), Value::from(1i64))
            .build();
        let bad = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(ProcessId(1), r, Register::read(), Value::from(7i64))
            .build();
        let mut scratch = KernelScratch::new();
        let limits = SearchLimits::default();
        for _ in 0..3 {
            let (result, _) = solve(&Linearizability, &good, &u, limits, &mut scratch);
            assert!(result.is_yes());
            let (result, _) = solve(&Linearizability, &bad, &u, limits, &mut scratch);
            assert_eq!(result, SearchResult::No);
        }
    }

    #[test]
    fn interchangeable_operations_are_merged_not_permuted() {
        // n identical concurrent reads: the canonical-representative rule
        // explores each multiset once, so the node count stays linear in n
        // instead of exponential (and far below n!).
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let n = 7usize;
        // The impossible read overlaps all the others, so there are no
        // precedence edges and the identical reads share one class.
        let mut b = HistoryBuilder::new().invoke(ProcessId(n), r, Register::read());
        for p in 0..n {
            b = b.invoke(ProcessId(p), r, Register::read());
        }
        for p in 0..n {
            b = b.respond(ProcessId(p), r, Value::from(0i64));
        }
        let h = b.respond(ProcessId(n), r, Value::from(7i64)).build();
        let (result, stats) = solve_lin(&h, &u);
        assert_eq!(result, SearchResult::No);
        assert!(
            stats.nodes <= 2 * (n + 1),
            "interchangeable reads must collapse into one chain: {stats:?}"
        );
    }

    #[test]
    fn pending_write_can_justify_a_read() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        // p0's write(5) never completes, but p1 reads 5: linearizable by
        // including the pending write.
        let h = HistoryBuilder::new()
            .invoke(ProcessId(0), r, Register::write(Value::from(5i64)))
            .complete(ProcessId(1), r, Register::read(), Value::from(5i64))
            .build();
        let w = solve_lin(&h, &u)
            .0
            .witness()
            .expect("linearizable with pending write");
        assert_eq!(w.order.len(), 2); // the pending write was included
    }

    #[test]
    fn unfixed_responses_relax_the_problem() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(ProcessId(1), r, Register::read(), Value::from(99i64))
            .build();
        // With fixed responses the read of 99 is illegal...
        assert_eq!(solve_lin(&h, &u).0, SearchResult::No);
        // ...but if responses are left free (every one of them lies in the
        // forgiven prefix) the operations can be arranged.
        let free = TLinearizability::new(h.len());
        let (limits, mut scratch) = (SearchLimits::default(), KernelScratch::new());
        assert!(solve(&free, &h, &u, limits, &mut scratch).0.is_yes());
    }

    #[test]
    fn node_budget_reports_unknown() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let mut b = HistoryBuilder::new();
        for i in 0..6 {
            b = b
                .invoke(ProcessId(i), r, Register::write(Value::from(i as i64)))
                .invoke(ProcessId(i + 6), r, Register::read());
        }
        for i in 0..6 {
            b = b.respond(ProcessId(i), r, Value::Unit).respond(
                ProcessId(i + 6),
                r,
                Value::from(((i + 1) % 6) as i64),
            );
        }
        let (limits, mut scratch) = (SearchLimits { max_nodes: 3 }, KernelScratch::new());
        let (result, _) = solve(&Linearizability, &b.build(), &u, limits, &mut scratch);
        assert_eq!(result, SearchResult::Unknown);
    }

    #[test]
    fn memoization_hits_on_revisited_set_and_states() {
        // Three concurrent writes on three *distinct* registers, plus an
        // unsatisfiable fixed response (a read of 7 that nothing wrote): the
        // search must explore every subset of the writes, and different
        // interleavings of distinct operations reach the same
        // (linearized-multiset, object-states) key — every arrival after the
        // first must be answered by the Wing–Gong cache.  (Identical
        // operations produce no cache hits: the kernel merges them into one
        // interchangeability class up front.)
        let mut u = ObjectUniverse::new();
        let regs: Vec<_> = (0..3)
            .map(|_| u.add_object(Register::new(Value::from(0i64))))
            .collect();
        let bad = u.add_object(Register::new(Value::from(0i64)));
        let mut b = HistoryBuilder::new();
        for (p, &r) in regs.iter().enumerate() {
            b = b.invoke(ProcessId(p), r, Register::write(Value::from(1i64)));
        }
        for (p, &r) in regs.iter().enumerate() {
            b = b.respond(ProcessId(p), r, Value::Unit);
        }
        let h = b
            .complete(ProcessId(3), bad, Register::read(), Value::from(7i64))
            .build();
        let (result, stats) = solve_lin(&h, &u);
        assert_eq!(result, SearchResult::No);
        assert!(stats.nodes > 0);
        // 2^3 subsets of the writes, reachable along 3! orders: the cache
        // must absorb the difference (3 * 2^2 - (2^3 - 1) = 5 hits).
        assert!(
            stats.memo_hits >= 4,
            "revisited (multiset, states) keys must hit the cache: {stats:?}"
        );
    }

    #[test]
    fn empty_problem_is_trivially_satisfiable() {
        let (h, u) = (History::new(), ObjectUniverse::new());
        assert!(solve_lin(&h, &u).0.is_yes());
        // ...and has exactly one accepting frontier, the empty one (a row
        // zero words wide).
        let (entries, complete, stats) = frontiers(&h, &u, &[], &mut KernelScratch::new());
        let empty = Frontier {
            states: Vec::new(),
            placed: Vec::new(),
        };
        assert!(complete);
        assert_eq!(entries, vec![empty]);
        assert_eq!(stats.nodes, 1);
    }

    /// `writes` mutually concurrent completed writes of `1..=writes`, a
    /// concurrent read answering `read`, and `pending` pending writes of
    /// further distinct values, all on one register.
    fn concurrent_writes(writes: usize, read: i64, pending: usize) -> (ObjectUniverse, History) {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let mut b = HistoryBuilder::new();
        for p in 0..writes + pending {
            b = b.invoke(ProcessId(p), r, Register::write(Value::from(p as i64 + 1)));
        }
        b = b.invoke(ProcessId(writes + pending), r, Register::read());
        for p in 0..writes {
            b = b.respond(ProcessId(p), r, Value::Unit);
        }
        let h = b.respond(ProcessId(writes + pending), r, Value::from(read));
        (u, h.build())
    }

    #[test]
    fn many_frontiers_come_back_distinct_and_in_discovery_order() {
        // Six concurrent writes, a read of the initial value and three
        // tracked pending writes: more distinct accepting frontiers than the
        // linear row scan serves, so the hashed lookup engages mid-search.
        // Count, order and content are those of the boxed-key collection
        // this row store replaced (fingerprint taken at the parent commit).
        let (u, h) = concurrent_writes(6, 0, 3);
        let pending = h.operations().into_iter().filter(|op| !op.is_complete());
        let tracked: Vec<usize> = pending.map(|op| op.id.0).collect();
        assert_eq!(tracked, vec![6, 7, 8]);
        let mut scratch = KernelScratch::new();
        let (entries, complete, stats) = frontiers(&h, &u, &tracked, &mut scratch);
        assert!(complete);
        assert!(entries.len() > LINEAR_INTERN_MAX);
        for (i, a) in entries.iter().enumerate() {
            assert!(!entries[..i].contains(a), "entry {i} is a duplicate");
        }
        let rendered = format!("{entries:?}");
        assert_eq!(
            (entries.len(), util::hash_of(&rendered)),
            (60, 9_921_872_250_642_940_469)
        );
        assert_eq!((stats.nodes, stats.memo_hits), (18_452, 13_842));
        // The same search through the warm scratch finds the same rows.
        let (again, _, _) = frontiers(&h, &u, &tracked, &mut scratch);
        assert_eq!(again, entries);
    }

    /// The index capacity of each table of `scratch`, in field order.
    fn index_capacities(s: &KernelScratch) -> [usize; 6] {
        let (slots, values, invs) = (&s.slots.index, &s.values.index, &s.invs.index);
        let (classes, trans, frontiers) = (&s.classes.index, &s.trans.index, &s.frontiers.index);
        [slots, values, invs, classes, trans, frontiers].map(|index| index.capacity())
    }

    /// Entries the hash tables of `scratch` could hold without growing: what
    /// the retention rule bounds.
    fn retained_table_capacity(scratch: &KernelScratch) -> usize {
        scratch.visited.capacity() + index_capacities(scratch).iter().sum::<usize>()
    }

    #[test]
    fn one_large_search_does_not_tax_the_scratch_for_good() {
        // A refutation over ten concurrent writes visits thousands of
        // states.  Back to back, such searches keep their tables...
        let (u, large) = concurrent_writes(10, 99, 0);
        let (_, small) = concurrent_writes(2, 1, 0);
        let limits = SearchLimits::default();
        let mut scratch = KernelScratch::new();
        let (result, stats) = solve(&Linearizability, &large, &u, limits, &mut scratch);
        assert_eq!(result, SearchResult::No);
        assert!(stats.nodes > 2 * RETAIN_CAPACITY_FLOOR, "{stats:?}");
        let grown = retained_table_capacity(&scratch);
        assert!(grown > RETAIN_CAPACITY_FLOOR);
        solve(&Linearizability, &large, &u, limits, &mut scratch);
        assert_eq!(retained_table_capacity(&scratch), grown);
        // ...and the first small search sheds them, so the ones after it do
        // not pay for clearing a table a thousand times their size.
        let (result, small_stats) = solve(&Linearizability, &small, &u, limits, &mut scratch);
        assert!(result.is_yes());
        assert!(retained_table_capacity(&scratch) <= 2 * RETAIN_CAPACITY_FLOOR);
        // Shedding is invisible to the search: a fresh scratch counts the same.
        assert_eq!(small_stats, solve_lin(&small, &u).1);
        // A sequential history writing more distinct values than the floor
        // fills the interners too, and the next small search sheds them.
        let (mut wide_u, mut b) = (ObjectUniverse::new(), HistoryBuilder::new());
        let w = wide_u.add_object(Register::new(Value::from(0i64)));
        for v in 1..=RETAIN_CAPACITY_FLOOR as i64 + 64 {
            b = b.complete(
                ProcessId(0),
                w,
                Register::write(Value::from(v)),
                Value::Unit,
            );
        }
        let wide = b.build();
        let free = TLinearizability::new(wide.len());
        assert!(solve(&free, &wide, &wide_u, limits, &mut scratch)
            .0
            .is_yes());
        assert!(index_capacities(&scratch)[1] > RETAIN_CAPACITY_FLOOR);
        assert!(solve(&Linearizability, &small, &u, limits, &mut scratch)
            .0
            .is_yes());
        assert!(retained_table_capacity(&scratch) <= 2 * RETAIN_CAPACITY_FLOOR);
    }

    #[test]
    fn a_problem_past_the_linear_bound_in_every_table_searches_as_before() {
        // 33 mutually concurrent fetch&increments on one counter, forced
        // into one order by their responses (33 classes); inside their window
        // one process writes 33 further registers in turn (35 objects, 38
        // invocations, 68 values); and four pending writes to one register,
        // concurrent with everything, give 4 * 2^3 + 1 = 33 frontiers.
        let mut u = ObjectUniverse::new();
        let counter = u.add_object(FetchIncrement::new());
        let r = u.add_object(Register::new(Value::from(0i64)));
        let mut b = HistoryBuilder::new();
        for p in 0..33 {
            b = b.invoke(ProcessId(p), counter, FetchIncrement::fetch_inc());
        }
        for p in 0..4 {
            b = b.invoke(
                ProcessId(40 + p),
                r,
                Register::write(Value::from(-1 - p as i64)),
            );
        }
        for v in 100..133 {
            let reg = u.add_object(Register::new(Value::from(0i64)));
            b = b.complete(
                ProcessId(50),
                reg,
                Register::write(Value::from(v)),
                Value::Unit,
            );
        }
        for p in 0..33 {
            b = b.respond(ProcessId(p), counter, Value::from(p as i64));
        }
        let h = b.build();
        // Pinned verdict, counters and rows: the hashed lookups must search
        // node for node as the linear scans do.
        let mut scratch = KernelScratch::new();
        let limits = SearchLimits::default();
        let (result, stats) = solve(&Linearizability, &h, &u, limits, &mut scratch);
        let rendered = format!("{result:?}");
        assert!(result.is_yes());
        let solved = (stats.nodes, stats.memo_hits, util::hash_of(&rendered));
        assert_eq!(solved, (70, 0, 12_255_800_355_483_845_582));
        let (entries, complete, stats) = frontiers(&h, &u, &[33, 34, 35, 36], &mut scratch);
        assert!(complete);
        let rendered = format!("{entries:?}");
        let visited = (
            entries.len(),
            stats.nodes,
            stats.memo_hits,
            util::hash_of(&rendered),
        );
        assert_eq!(visited, (33, 134_165, 96_017, 13_715_318_929_318_352_956));
        // Every table went past the linear bound and engaged its index.
        let capacities = index_capacities(&scratch);
        assert!(capacities.iter().all(|&c| c > 0), "{capacities:?}");
    }

    /// A gate that must be opened before anyone passes: `pass()` is enabled
    /// only once `open()` has taken effect, so the type is partial.
    #[derive(Debug)]
    pub(crate) struct Turnstile;

    impl evlin_spec::ObjectType for Turnstile {
        fn name(&self) -> &str {
            "turnstile"
        }

        fn initial_states(&self) -> Vec<Value> {
            vec![Value::Bool(false)]
        }

        fn for_each_transition(
            &self,
            state: &Value,
            invocation: &Invocation,
            visit: &mut dyn FnMut(Value, Value),
        ) {
            if let ("open", _) | ("pass", Value::Bool(true)) = (invocation.method(), state) {
                visit(Value::Unit, Value::Bool(true));
            }
        }

        fn sample_invocations(&self) -> Vec<Invocation> {
            vec![Invocation::nullary("open"), Invocation::nullary("pass")]
        }
    }

    /// A die whose `roll()` shows 1 and lands on `a` or on `b`, lists the
    /// `(1, a)` outcome twice, and shows 2 and lands on `c`, from any face:
    /// two transitions share a response, and one is a duplicate.
    #[derive(Debug)]
    struct LoadedDie;

    impl evlin_spec::ObjectType for LoadedDie {
        fn name(&self) -> &str {
            "loaded-die"
        }

        fn initial_states(&self) -> Vec<Value> {
            vec![Value::sym("a")]
        }

        fn for_each_transition(
            &self,
            _: &Value,
            invocation: &Invocation,
            visit: &mut dyn FnMut(Value, Value),
        ) {
            if invocation.method() == "roll" {
                for (shown, face) in [(1i64, "a"), (1, "b"), (1, "a"), (2, "c")] {
                    visit(Value::from(shown), Value::sym(face));
                }
            }
        }

        fn sample_invocations(&self) -> Vec<Invocation> {
            vec![Invocation::nullary("roll")]
        }
    }

    /// What a small problem — the Definition-2 question about `events` —
    /// leaves from `frontier`, decided from each state by the walk (`walk`)
    /// or by the searcher: the outgoing states (sorted, distinct), the nodes,
    /// the memo hits, whether the budget let the search cover its space, and
    /// whether some class of the walk has more than one member.
    fn small_link(
        u: &ObjectUniverse,
        events: &[Event],
        frontier: &[Value],
        limits: SearchLimits,
        walk: bool,
    ) -> (Vec<Value>, usize, usize, bool, bool) {
        let object = events[0].object;
        let mut matcher = OperationMatcher::default();
        let problem = EventProblem {
            t: 0,
            events,
            picked: None,
            ops: matcher.match_events(events),
        };
        let mut scratch = KernelScratch::new();
        let peers = Walk::new(&problem, &[], u, limits, &mut scratch.walk).map(|w| w.peers);
        let merged = peers.is_some_and(|peers| peers.iter().any(|&m| m != 0));
        let (mut outgoing, mut stats, mut complete) = (Vec::new(), SearchStats::default(), true);
        for state in frontier {
            let roots = [(object, state)];
            let each = |row: FrontierRow<'_>| outgoing.extend(row.states().map(|(_, v)| v.clone()));
            let (covered, search) = if walk {
                let walked = walk_frontiers(&problem, &roots, u, limits, &mut scratch.walk, each);
                walked.unwrap_or_else(|_| panic!("one to four complete operations"))
            } else {
                search_frontiers(&problem, &roots, u, limits, &[], &mut scratch, each)
            };
            assert_eq!(search.arena_bytes == 0, walk, "the walk adds nothing");
            stats.absorb(search);
            complete &= covered;
        }
        outgoing.sort();
        outgoing.dedup();
        (outgoing, stats.nodes, stats.memo_hits, complete, merged)
    }

    #[test]
    fn a_small_problem_walk_is_the_searchers_search() {
        // Every built-in type's sampled invocations, answered with responses
        // the spec gives from some reachable state and with one it never
        // gives, as problems of one to `SMALL_OPS` operations in every
        // real-time shape (an uppercase letter invokes an operation, its
        // lowercase responds), from frontiers of one to three reachable
        // states, under four node budgets: the walk and the searcher on the
        // same problem agree on the outgoing states, the counters and
        // completeness.  Problems of two or more operations are drawn from a
        // seeded generator that repeats the previous operation's pair half
        // the time, so classes merge.
        let shapes = [
            "Aa", "ABab", "AaBb", "ABCabc", "AaBbCc", "ABabCc", "ABaCbc", "ABCDabcd", "AaBbCcDd",
            "ABabCcDd", "ABCabcDd", "ABabCDcd", "ABaCbDcd",
        ];
        assert!(shapes.iter().all(|shape| shape.len() <= 2 * SMALL_OPS));
        let types: Vec<Arc<dyn evlin_spec::ObjectType>> = vec![
            Arc::new(Register::new(Value::from(0i64))),
            Arc::new(evlin_spec::CompareAndSwap::new(Value::from(0i64))),
            Arc::new(evlin_spec::MaxRegister::new()),
            Arc::new(FetchIncrement::new()),
            Arc::new(evlin_spec::Queue::new()),
            Arc::new(evlin_spec::TestAndSet::new()),
            Arc::new(evlin_spec::Consensus::new()),
            Arc::new(evlin_spec::Counter::new()),
            Arc::new(evlin_spec::trivial::StickyGate::new()),
            Arc::new(evlin_spec::trivial::BlindRegister::new()),
            Arc::new(Turnstile),
            Arc::new(LoadedDie),
        ];
        // A budget of `usize::MAX` must not overflow a walk's node count.
        let budgets = [1, 2, SearchLimits::default().max_nodes, usize::MAX];
        let mut seed = 0x2f6b_3c1e_9d4a_8857u64;
        let mut next = |bound: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % bound as u64) as usize
        };
        let (mut memo_hits, mut cut_short, mut refuted, mut merged) = (0, 0, 0, 0);
        for ty in types {
            let initial = ty.initial_states()[0].clone();
            let mut u = ObjectUniverse::new();
            let object = u.add_shared(ty.clone(), initial.clone());
            let states = ty.reachable_states(&initial, 3);
            // The `(invocation, response)` pairs a link's operations draw.
            let mut pairs = Vec::new();
            for invocation in ty.sample_invocations() {
                let transitions = states.iter().flat_map(|q| ty.transitions(q, &invocation));
                let mut responses: Vec<Value> = transitions.map(|t| t.response).collect();
                responses.sort();
                responses.dedup();
                responses.push(Value::sym("never"));
                pairs.extend(responses.into_iter().map(|r| (invocation.clone(), r)));
            }
            for shape in shapes {
                let n = shape.len() / 2;
                // Every pair alone; six draws per wider shape.
                let draws = if n == 1 { pairs.len() } else { 6 };
                for draw in 0..draws {
                    let mut ops = vec![if n == 1 { draw } else { next(pairs.len()) }];
                    while ops.len() < n {
                        let repeat = next(2) == 0;
                        let op = if repeat {
                            ops[ops.len() - 1]
                        } else {
                            next(pairs.len())
                        };
                        ops.push(op);
                    }
                    let events: Vec<Event> = shape
                        .chars()
                        .map(|c| {
                            let k = (c.to_ascii_lowercase() as u8 - b'a') as usize;
                            let (invocation, response) = &pairs[ops[k]];
                            if c.is_ascii_uppercase() {
                                Event::invoke(ProcessId(k), object, invocation.clone())
                            } else {
                                Event::respond(ProcessId(k), object, response.clone())
                            }
                        })
                        .collect();
                    for (width, max_nodes) in
                        (1..=states.len()).flat_map(|w| budgets.map(|b| (w, b)))
                    {
                        let (frontier, limits) = (&states[..width], SearchLimits { max_nodes });
                        let searched = small_link(&u, &events, frontier, limits, false);
                        let walked = small_link(&u, &events, frontier, limits, true);
                        let case = format!("{} {shape} {events:?} from {frontier:?}", ty.name());
                        let counted =
                            |(states, nodes, hits, complete, _)| (states, nodes, hits, complete);
                        assert_eq!(counted(walked.clone()), counted(searched), "{case}");
                        memo_hits += walked.2;
                        cut_short += usize::from(!walked.3);
                        refuted += usize::from(walked.0.is_empty());
                        merged += usize::from(walked.4);
                    }
                }
            }
        }
        assert!(memo_hits > 0 && cut_short > 0 && refuted > 0 && merged > 0);
    }

    #[test]
    fn only_the_walks_shape_is_walked() {
        // The walk reports no arena bytes and the searcher always some, so
        // the counters say which path `visit_frontiers` took.
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let x = u.add_object(FetchIncrement::new());
        let write = |v: i64| Register::write(Value::from(v));
        let unit = Value::Unit;
        fn walked<P: Problem>(u: &ObjectUniverse, problem: &P, tracked: &[usize]) -> bool {
            let (limits, mut scratch) = (SearchLimits::default(), KernelScratch::new());
            let (complete, stats) =
                visit_frontiers(problem, &[], u, limits, tracked, &mut scratch, |_| {});
            assert!(complete && stats.nodes > 1);
            stats.arena_bytes == 0
        }
        let stated = |h: &History, t: usize, tracked: &[usize]| {
            let mut matcher = OperationMatcher::default();
            let problem = TLinearizability { t }.views(h, matcher.match_events(h.events()));
            walked(&u, &problem, tracked)
        };
        let one = HistoryBuilder::new().complete(ProcessId(0), r, write(1), unit.clone());
        let two = one
            .clone()
            .complete(ProcessId(1), r, Register::read(), Value::from(1i64));
        let four = (0..4).fold(HistoryBuilder::new(), |b, k| {
            b.complete(ProcessId(k), r, write(k as i64), unit.clone())
        });
        // Walked: one to four required operations with fixed responses on
        // one object, nothing tracked.
        assert!(stated(&one.clone().build(), 0, &[]));
        assert!(stated(&two.clone().build(), 0, &[]));
        assert!(stated(&four.clone().build(), 0, &[]));
        // Refused: an optional (pending) operation, a free response (the
        // first operation's, inside the forgiven prefix), two objects, five
        // operations, and a tracked operation.
        let pending = one.clone().invoke(ProcessId(1), r, write(2)).build();
        assert!(!stated(&pending, 0, &[]));
        assert!(!stated(&two.clone().build(), 2, &[]));
        let inc = FetchIncrement::fetch_inc();
        let objects = one
            .clone()
            .complete(ProcessId(1), x, inc, Value::from(0i64));
        assert!(!stated(&objects.build(), 0, &[]));
        let five = four.complete(ProcessId(4), r, Register::read(), Value::from(3i64));
        assert!(!stated(&five.build(), 0, &[]));
        assert!(!stated(&two.clone().build(), 0, &[0]));
        // Refused too: an optional operation whose response is fixed, a
        // shape no condition here states but the kernel accepts, first or
        // not, alone or not.
        for (h, optional) in [(one.build(), 0), (two.clone().build(), 0), (two.build(), 1)] {
            let mut matcher = OperationMatcher::default();
            let problem = Linearizability.views(&h, matcher.match_events(h.events()));
            assert!(!walked(&u, &Optional(problem, optional), &[]), "{h}");
        }
    }

    /// `problem` with operation `.1` no longer required, its response still
    /// fixed.
    struct Optional<P>(P, usize);

    impl<P: Problem> Problem for Optional<P> {
        fn op_count(&self) -> usize {
            self.0.op_count()
        }

        fn op(&self, i: usize) -> OpView<'_> {
            let view = self.0.op(i);
            OpView {
                required: i != self.1,
                ..view
            }
        }

        fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
            self.0.edges()
        }
    }
}
