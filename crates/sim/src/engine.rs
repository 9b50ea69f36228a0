//! The unified exhaustive-exploration engine: one walker, four reductions.
//!
//! Every exhaustive quantifier in this workspace ("every history of this
//! implementation is linearizable", "some reachable configuration is
//! stable", …) is discharged by walking the tree of interleavings of process
//! steps.  This module is the single walker behind all of them — the
//! [`crate::explorer`] functions, the valency analysis, the stability search
//! and the [`crate::checkpoint`] drivers are thin facades over it.  The
//! walker is one function that visits a configuration (`Walk::visit_one`),
//! one depth-first loop around it (`Walk::descend`: pop a frame, visit it,
//! push its children, for at most an allowance of visits) and one parallel
//! wave of such loops (`Walk::wave`); every entry point sets its root up the
//! same way (`set_up_root`) and differs only in how often it calls the loop
//! and what it does between calls.  It fights the combinatorial explosion
//! with two classical reductions, selected by a [`Reduction`] value that is
//! resolved against the root into the walk's one `Reducer`:
//!
//! * **Sleep sets** (Godefroid-style dynamic partial-order reduction): after
//!   exploring a step of process `p`, sibling branches carry `p` in their
//!   *sleep set* for as long as `p`'s pending step commutes with theirs, so
//!   only one order of each commuting pair is expanded.  Commutation is decided by the step-independence oracle
//!   [`crate::config::Config::peek_step_shape`]: two steps commute iff both
//!   are mid-operation base-object accesses touching disjoint objects (or the
//!   same object without writing) — steps that record history events never
//!   commute, which is exactly what keeps every history-collecting visitor
//!   exact: pruned schedules produce histories *identical* to retained ones.
//! * **Process-symmetry canonicalization** ([`SymmetryReduction`]): for
//!   symmetric programs (detected structurally from the initial
//!   [`crate::program::ProcessLogic`] states, vetoable/assertable through
//!   [`crate::program::Implementation::process_symmetric_hint`]), every
//!   configuration is physically rewritten into the least representative of
//!   its orbit under process renaming before deduplication, merging the `n!`
//!   renamed copies of each reachable state.  Sound for process-symmetric
//!   verdicts (linearizability, weak consistency, …, which never mention
//!   identities); the histories the visitor sees are canonical renamings.
//!
//! Both reductions preserve the *set of distinct terminal histories* (exactly
//! for sleep sets, up to process renaming for symmetry), hence every verdict
//! computed from them; `crates/sim/tests/reduction_differential.rs` checks
//! this against the unreduced engine on seeded random configurations, and the
//! determinism suite checks that [`ExploreStats`] are identical across worker
//! counts and runs.
//!
//! ## The transition memo
//!
//! A walk takes the same few hundred transitions hundreds of thousands of
//! times, and what a transition does to the fingerprint a deduplicating walk
//! maintains depends only on the content of the stepping process and of the
//! one base object it accesses.  Every walker therefore owns a
//! [`StepMemo`] (inside its `WalkScratch`: one per sequential exploration,
//! per parallel subtree, per checkpointed wave task, per partitioned run)
//! keyed on those content hashes.  Children are stepped through
//! [`Config::step_memoized`], which executes the programme and the object
//! for real and reads the successor's content hashes from the memo, and
//! sleep sets classify through [`Config::peek_step_shape_memoized`], which on
//! a hit clones and probes nothing.  A miss is the plain [`Config::step`] /
//! [`Config::peek_step_shape`] — the reference the memo is checked against
//! (on every hit in debug builds, and by
//! `crates/sim/tests/memo_differential.rs`) — so fingerprints, canonical
//! representatives, [`ExploreStats`] and checkpoint bytes are those of the
//! unmemoized walk.  A memo is created and dropped with its walk; nothing is
//! shared between walkers or explorations, and walks without deduplication
//! keep no content hashes and so never consult it.

use crate::config::{Config, StepMemo, StepOutcome, StepShape};
use crate::fault::{self, FaultStep};
use crate::program::Implementation;
use crate::store::{StoreBytes, StoreConfig, VisitedStore};
use crate::workload::Workload;
use crate::zobrist;
use evlin_checker::parallel;
use evlin_history::{History, ProcessId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maximum number of steps along any path / configurations visited.
#[derive(Debug, Clone, Copy)]
pub struct ExploreOptions {
    /// Maximum number of steps along any single execution path.
    pub max_depth: usize,
    /// Maximum total number of configurations to visit (safety valve).
    pub max_configs: usize,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_depth: 64,
            max_configs: 500_000,
        }
    }
}

/// Statistics about an exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Number of configurations visited (including the initial one).
    pub visited: usize,
    /// Number of terminal configurations reached (quiescent or at depth
    /// bound).
    pub terminals: usize,
    /// Number of child configurations *not* expanded because the reduction
    /// slept them or deduplication had already seen them.
    pub pruned: usize,
    /// Total bytes held by the engine's visited store at the end of the run
    /// (resident + spilled + filter — see [`ExploreStats::store_bytes`]; 0
    /// when deduplication is off).  For the default resident store this is
    /// entries × 8 bytes, a function of the visited key *set*, so it is
    /// identical across worker counts — the engine's peak-memory accounting
    /// for the E12 tables.
    pub bytes_allocated: usize,
    /// Byte breakdown of the visited store by residence (all zero when
    /// deduplication is off).  `bytes_allocated == store_bytes.total()`.
    pub store_bytes: StoreBytes,
    /// Sorted runs written by a spilling visited store (0 for a resident
    /// one).
    pub store_runs: usize,
    /// Whether the exploration was truncated by `max_configs`.
    pub truncated: bool,
}

/// What the visitor can tell the engine after seeing a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visit {
    /// Keep exploring from this configuration.
    Continue,
    /// Do not explore successors of this configuration (but keep exploring
    /// its siblings).
    Prune,
    /// Abort the entire exploration (e.g. a counterexample was found).
    Stop,
}

/// Bitmask of sleeping processes: bit `i` set means process `i` is asleep
/// (its pending step is covered by an already-explored sibling order).
pub(crate) type SleepMask = u64;

/// One child edge of an exploration node: either a process takes its next
/// atomic step, or the environment injects one transient fault (see
/// [`crate::fault`]).  Fault children only exist while the configuration's
/// fault budget is positive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildStep {
    /// Process `p` takes its next atomic step.
    Exec(ProcessId),
    /// A transient fault corrupts one component of the configuration.
    Fault(FaultStep),
}

/// The reduction applied by the engine, as a plain selectable value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reduction {
    /// No reduction: today's raw-tree semantics.
    #[default]
    None,
    /// Sleep-set dynamic partial-order reduction.
    SleepSet,
    /// Process-symmetry canonicalization (forces deduplication on).
    Symmetry,
    /// Both: sleep sets over canonicalized configurations.
    SleepSetSymmetry,
}

impl Reduction {
    /// The reduction's display name — the single source of truth for
    /// experiment tables, logs and the checkpoint parameter hash.
    pub fn label(self) -> &'static str {
        match self {
            Reduction::None => "none",
            Reduction::SleepSet => "sleep-set",
            Reduction::Symmetry => "symmetry",
            Reduction::SleepSetSymmetry => "sleep-set+symmetry",
        }
    }

    /// Resolves the reduction for exploring from `root`.  `hint` is the
    /// implementation's symmetry marker
    /// ([`Implementation::process_symmetric_hint`]); pass `None` to decide
    /// structurally (the right thing when exploring from a mid-execution
    /// configuration).
    ///
    /// # Panics
    ///
    /// Panics if a sleep-set variant is asked for a `root` with more
    /// processes than a [`SleepMask`] has bits: the shift that sets a
    /// process's bit would wrap in a release build and alias process 64 onto
    /// process 0, sleeping steps that do not commute.
    pub(crate) fn resolve(self, root: &Config, hint: Option<bool>) -> Reducer {
        let sleep = matches!(self, Reduction::SleepSet | Reduction::SleepSetSymmetry);
        assert!(
            !sleep || root.processes() <= SleepMask::BITS as usize,
            "sleep-set reduction holds at most {} processes in its mask; the configuration has {}",
            SleepMask::BITS,
            root.processes()
        );
        let symmetry = matches!(self, Reduction::Symmetry | Reduction::SleepSetSymmetry)
            .then(|| SymmetryReduction::detect(root, hint));
        Reducer { sleep, symmetry }
    }
}

/// A [`Reduction`] resolved against the root of one walk.
///
/// The walker drives the traversal (budgets, deduplication, parallel
/// subtrees); the reducer only decides *which* children of a node to expand
/// ([`Reducer::expand`]) and how to rewrite a freshly produced configuration
/// into a canonical representative ([`Reducer::normalize`]).  Both are
/// deterministic functions of their arguments — that is what makes
/// [`ExploreStats`] identical across worker counts and runs.
#[derive(Debug)]
pub(crate) struct Reducer {
    /// Expand through sleep sets; otherwise every enabled process.  In the
    /// combined reduction the sleep sets run in canonical coordinates, so
    /// sibling orders are well-defined per orbit and the merged state graph
    /// stays deterministic.
    sleep: bool,
    /// The canonicalization half of the two symmetry variants, detected
    /// against the root; `None` under the other two.
    symmetry: Option<SymmetryReduction>,
}

impl Reducer {
    /// Whether the reduction only prunes through the deduplication set (the
    /// engine force-enables dedup then): canonicalization merges renamed
    /// configurations this way, and degrades to plain deduplication where
    /// the root is not symmetric.
    fn requires_dedup(&self) -> bool {
        self.symmetry.is_some()
    }

    /// Whether *permuted* fingerprints are folded
    /// ([`Config::canonical_permutation`]): only then does the engine ask
    /// configurations to maintain the per-(process, rename-target) history
    /// rows, which plain deduplication never reads.
    fn uses_rename_components(&self) -> bool {
        self.symmetry
            .as_ref()
            .is_some_and(SymmetryReduction::is_applicable)
    }

    /// Rewrites `config` into its canonical representative, renaming the
    /// sleep mask along; as-is without an applicable symmetry.
    pub(crate) fn normalize(&self, config: &mut Config, mask: &mut SleepMask) {
        if let Some(symmetry) = &self.symmetry {
            symmetry.canonicalize(config, mask);
        }
    }

    /// Appends the children of `config` to expand — each a [`ChildStep`]
    /// (an enabled process, or an injectable transient fault while the
    /// configuration's budget lasts) together with the child's sleep mask —
    /// to `out` (cleared by the walker, and reused across nodes, which keeps
    /// expansion allocation-free), in deterministic order.  `enabled` is the
    /// precomputed list of enabled processes; the ones left out are counted
    /// as pruned by the walker.  `memo` is the walker's transition memo,
    /// through which sleep sets classify pending steps
    /// ([`Config::peek_step_shape_memoized`]).
    ///
    /// At a node with sleep set `S`, only processes outside `S` are
    /// expanded; the `i`-th expanded process `p` hands its child the sleep
    /// set `{ q ∈ S ∪ {earlier siblings} : step(q) commutes with step(p)
    /// here }`.  Every pruned schedule is a commutation of a retained one,
    /// so the set of reachable terminal configurations — and with it every
    /// terminal history — is preserved exactly.
    fn expand(
        &self,
        config: &Config,
        enabled: &[ProcessId],
        sleep: SleepMask,
        memo: &StepMemo,
        out: &mut Vec<(ChildStep, SleepMask)>,
    ) {
        if !self.sleep || enabled.len() <= 1 {
            out.extend(enabled.iter().map(|&p| (ChildStep::Exec(p), 0)));
        } else {
            // Shapes live on the stack (one slot per possible mask bit), so
            // expansion allocates nothing beyond the reused output buffer;
            // each enabled process is classified exactly once per expansion.
            let mut shapes = [None::<StepShape>; SleepMask::BITS as usize];
            for &p in enabled {
                shapes[p.index()] = config.peek_step_shape_memoized(p, memo);
            }
            let mut slept = sleep;
            for &p in enabled {
                if sleep & (1 << p.index()) != 0 {
                    continue;
                }
                let shape = shapes[p.index()].expect("enabled process has a next step");
                let mut child_mask: SleepMask = 0;
                let mut bits = slept;
                while bits != 0 {
                    let q = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // A sleeping process that somehow lost its step (it
                    // cannot, but stay conservative) is simply woken.
                    if shapes[q].is_some_and(|sq| independent(shape, sq)) {
                        child_mask |= 1 << q;
                    }
                }
                out.push((ChildStep::Exec(p), child_mask));
                slept |= 1 << p.index();
            }
        }
        // The fault children, under every reduction alike and each with an
        // *empty* sleep mask: a corruption can change any component, so it
        // is dependent with every pending step — it must never be slept (it
        // is not a process, so it cannot be), and after it fires every
        // sleeping process wakes.  That is what keeps fault-bounded reduced
        // exploration verdict-identical to the unreduced engine (checked by
        // `crates/sim/tests/fault_differential.rs`).  None at budget 0.
        config.for_each_fault(|f| out.push((ChildStep::Fault(f), 0)));
    }
}

/// Whether the pending steps with shapes `a` and `b` commute at the current
/// configuration (see [`StepShape`]).
fn independent(a: StepShape, b: StepShape) -> bool {
    match (a, b) {
        (
            StepShape::Access {
                object: oa,
                writes: wa,
            },
            StepShape::Access {
                object: ob,
                writes: wb,
            },
        ) => oa != ob || (!wa && !wb),
        _ => false,
    }
}

/// Process-symmetry canonicalization.
///
/// Applicable when the program is process-symmetric: every process starts
/// with the same programme state and workload (checked structurally on the
/// root, or asserted/vetoed by
/// [`Implementation::process_symmetric_hint`]) and every base object declares
/// its process-id dependence ([`crate::base::PidDependence`]).  Each
/// configuration is then rewritten into the least fingerprint of its orbit
/// under the `n!` process renamings (one XOR each, see
/// [`Config::canonical_permutation`]), so deduplication merges all symmetric
/// copies; when inapplicable the reduction degrades to plain deduplication.
///
/// The visitor sees canonical renamings of real executions — correct for any
/// process-symmetric verdict, and exactly why the differential suite compares
/// *canonicalized* history sets for the symmetry reductions.
#[derive(Debug)]
pub struct SymmetryReduction {
    /// All permutations of the process ids in lexicographic order (identity
    /// first), the order [`Config::canonical_permutation`] indexes; empty
    /// when the reduction is inapplicable.
    perms: Vec<Vec<usize>>,
}

impl SymmetryReduction {
    /// Largest process count for which canonicalization is attempted.  Each
    /// visited configuration mixes `n²` rename costs into a table once,
    /// folds the last positions' costs into a table of suffix words, walks
    /// the prefixes, and pays **one XOR** and one compare for each of the
    /// `n!` renamings
    /// ([`Config::canonical_permutation`]): the factorial term is one word
    /// operation, not hashing, but it still grows as `n!` — 720 candidates
    /// at 6, 5040 at 7.  The bound also sizes those tables.
    pub(crate) const MAX_PROCESSES: usize = 6;

    /// Decides applicability against `root` (see the type docs) and builds
    /// the permutation table.
    pub fn detect(root: &Config, hint: Option<bool>) -> Self {
        let n = root.processes();
        let applicable = (2..=Self::MAX_PROCESSES).contains(&n)
            && root.base_objects_permutable()
            && match hint {
                Some(false) => false,
                Some(true) => true,
                None => root.processes_structurally_symmetric(),
            };
        SymmetryReduction {
            perms: if applicable {
                permutations(n)
            } else {
                Vec::new()
            },
        }
    }

    /// Whether canonicalization is active (false = plain dedup fallback).
    pub fn is_applicable(&self) -> bool {
        !self.perms.is_empty()
    }

    fn canonicalize(&self, config: &mut Config, mask: &mut SleepMask) {
        if self.perms.is_empty() {
            return;
        }
        // `perms[0]` is the identity; `canonical_permutation` picks the
        // first index achieving the minimal key, which keeps
        // canonicalization idempotent.
        let best = config.canonical_permutation(&self.perms);
        if best != 0 {
            let perm = &self.perms[best];
            config.apply_permutation(perm);
            *mask = permute_mask(*mask, perm);
        }
    }
}

/// All permutations of `0..n` in lexicographic order (identity first) — the
/// renaming table [`SymmetryReduction`] canonicalizes with, exposed so that
/// differential tests can canonicalize histories with the *same* orbit
/// enumeration the engine uses for configurations.
pub fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current: Vec<usize> = (0..n).collect();
    loop {
        out.push(current.clone());
        // Standard next-permutation: find the rightmost ascent, swap with the
        // smallest larger element to its right, reverse the tail.
        let Some(i) = (0..n.saturating_sub(1))
            .rev()
            .find(|&i| current[i] < current[i + 1])
        else {
            return out;
        };
        let j = (i + 1..n)
            .rev()
            .find(|&j| current[j] > current[i])
            .expect("an ascent guarantees a larger element");
        current.swap(i, j);
        current[i + 1..].reverse();
    }
}

/// Applies a process renaming to a sleep mask.
fn permute_mask(mask: SleepMask, perm: &[usize]) -> SleepMask {
    let mut out = 0;
    let mut bits = mask;
    while bits != 0 {
        let i = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        out |= 1 << perm[i];
    }
    out
}

/// How many independent subtrees a parallel wave hands out per worker: the
/// grain at which workers that finish early find more work.
const SUBTREES_PER_WORKER: usize = 8;

/// Options of one engine run.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Depth and size bounds.
    pub limits: ExploreOptions,
    /// How many threads run the exploration, the caller's included: `1` runs
    /// strictly sequentially, in [`explore`]'s visit order; `None` is one per
    /// core ([`parallel::available_workers`]).  The parallel path also sizes
    /// its stealable subtree frontier and its store's shard count from it.
    ///
    /// Read by the entry points that can run on several threads —
    /// [`explore_shared`], [`terminal_histories`],
    /// [`find_history_violation`] and
    /// [`crate::checkpoint::explore_checkpointed_par`] — and by nothing
    /// else: [`explore`], [`crate::checkpoint::explore_checkpointed`],
    /// [`crate::checkpoint::explore_partitioned`] and the valency and
    /// stability analyses take a `FnMut` visitor, walk on the calling thread
    /// and never look at it.
    pub workers: Option<usize>,
    /// Merge configurations reached at the same depth with identical state,
    /// recorded history *and sleep mask*.  Forced on by the canonicalizing
    /// reductions.
    pub dedup: bool,
    /// The reduction to apply.
    pub reduction: Reduction,
    /// Transient-fault budget installed on the root: at most this many
    /// [`FaultStep`]s along any explored schedule (see [`crate::fault`]).
    /// 0 (the default) keeps exploration bit-identical to the fault-free
    /// engine.  When exploring from an explicit root that already carries a
    /// positive budget, 0 here leaves that budget untouched.
    pub fault_budget: usize,
    /// Whether the visited store holding the dedup set stays resident (the
    /// default) or spills to disk under a budget, which bounds resident
    /// memory (see [`crate::store`]).  Ignored while deduplication is off.
    pub store: StoreConfig,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            limits: ExploreOptions::default(),
            workers: None,
            dedup: false,
            reduction: Reduction::None,
            fault_budget: 0,
            store: StoreConfig::Mem,
        }
    }
}

impl EngineOptions {
    /// The worker count (resolving `None` against the machine's cores).
    pub(crate) fn effective_workers(&self) -> usize {
        self.workers
            .unwrap_or_else(parallel::available_workers)
            .max(1)
    }
}

/// The `(fingerprint, sleep-mask, fault-budget)` dedup key of a
/// configuration: a couple of word mixes over the maintained Zobrist
/// fingerprint (a field read since the incremental-fingerprint refactor).
/// [`fault::budget_salt`] is 0 for budget 0, so fault-free keys are
/// unchanged; configurations differing only in remaining budget have
/// different futures and must not merge.  The checkpoint partitioner routes
/// on this same key, which is what makes per-partition visited sets line up
/// with the key ranges exactly.
#[inline]
pub(crate) fn dedup_key(config: &Config, mask: SleepMask) -> u64 {
    zobrist::mix2(
        config.fingerprint(),
        mask ^ fault::budget_salt(config.fault_budget()),
    )
}

/// What a frame remembers of how it was reached: nothing on the plain walks
/// (`()`), the replayable edge list from the root on the checkpointed and
/// partitioned ones (`Vec<ChildStep>`), which serialize frontiers as paths.
pub(crate) trait Path: Default {
    /// The path of the child reached from here over `step`.
    fn extended(&self, step: ChildStep) -> Self;
}

impl Path for () {
    fn extended(&self, _step: ChildStep) {}
}

impl Path for Vec<ChildStep> {
    fn extended(&self, step: ChildStep) -> Self {
        let mut path = self.clone();
        path.push(step);
        path
    }
}

/// One node awaiting its visit.
pub(crate) struct Frame<P> {
    pub(crate) config: Config,
    pub(crate) depth: usize,
    pub(crate) mask: SleepMask,
    pub(crate) path: P,
}

/// The one root set-up, shared by every entry point here and in
/// [`crate::checkpoint`]: resolves the reduction against `root`, switches on
/// what the walk will read (fingerprints only with deduplication — pure tree
/// walks don't pay for maintaining them — and rename rows only under an
/// applicable symmetry), installs the fault budget and normalizes.  Returns
/// the reducer, the root frame and whether the walk deduplicates (`dedup`
/// forces it: the resumable drivers' visited store *is* their state).
pub(crate) fn set_up_root<P: Path>(
    mut root: Config,
    hint: Option<bool>,
    options: &EngineOptions,
    dedup: bool,
) -> (Reducer, Frame<P>, bool) {
    let reducer = options.reduction.resolve(&root, hint);
    let dedup = dedup || options.dedup || reducer.requires_dedup();
    root.set_fingerprint_tracking(dedup, reducer.uses_rename_components());
    if options.fault_budget > 0 {
        root.set_fault_budget(options.fault_budget);
    }
    let mut mask: SleepMask = 0;
    reducer.normalize(&mut root, &mut mask);
    let frame = Frame {
        config: root,
        depth: 0,
        mask,
        path: P::default(),
    };
    (reducer, frame, dedup)
}

/// The first probe: `root` is where the walk starts unless `store` has seen
/// it.  Children are probed in one batched call per node instead (see
/// [`Walk::visit_one`]).
pub(crate) fn first_frames<P>(root: Frame<P>, store: Option<&VisitedStore>) -> Vec<Frame<P>> {
    match store {
        Some(store) if !store.insert(dedup_key(&root.config, root.mask), 0) => Vec::new(),
        _ => vec![root],
    }
}

/// Takes one from `counter` unless it has run out.
fn claim(counter: &AtomicUsize) -> bool {
    counter
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

/// The context of one exploration: its reducer, its bounds, and the state
/// every walker of it shares (used by the sequential path too, with trivial
/// contention).
pub(crate) struct Walk {
    pub(crate) reducer: Reducer,
    max_depth: usize,
    /// Configurations the whole exploration may still visit (`max_configs`
    /// budget).  Decremented per visit; exhaustion marks truncation.
    budget: AtomicUsize,
    /// Set by `Visit::Stop` (and by budget exhaustion) to halt all workers.
    stopped: AtomicBool,
    /// Whether the budget ran out anywhere.
    truncated: AtomicBool,
    /// The visited store; `None` when deduplication is off.
    store: Option<VisitedStore>,
}

impl Walk {
    /// A walk under `limits` of which `done` has already happened (all zero
    /// on a fresh start; a resumed run continues its budget and keeps its
    /// truncation flag).
    pub(crate) fn new(
        reducer: Reducer,
        limits: ExploreOptions,
        done: &ExploreStats,
        store: Option<VisitedStore>,
    ) -> Self {
        Walk {
            reducer,
            max_depth: limits.max_depth,
            budget: AtomicUsize::new(limits.max_configs.saturating_sub(done.visited)),
            stopped: AtomicBool::new(false),
            truncated: AtomicBool::new(done.truncated),
            store,
        }
    }

    /// The engine's own way in: [`set_up_root`], a visited store of
    /// `mem_shards` shards when the walk deduplicates, and [`first_frames`].
    fn start(
        root: Config,
        hint: Option<bool>,
        options: &EngineOptions,
        mem_shards: usize,
    ) -> (Walk, Vec<Frame<()>>) {
        let (reducer, root, dedup) = set_up_root(root, hint, options, false);
        let store = dedup.then(|| {
            options
                .store
                .build(mem_shards)
                .expect("failed to build the visited store")
        });
        let walk = Walk::new(reducer, options.limits, &ExploreStats::default(), store);
        let frames = first_frames(root, walk.store());
        (walk, frames)
    }

    pub(crate) fn store(&self) -> Option<&VisitedStore> {
        self.store.as_ref()
    }

    /// Whether the exploration is over for every walker: the visitor said
    /// `Visit::Stop` or the `max_configs` budget ran out.
    pub(crate) fn halted(&self) -> bool {
        self.stopped.load(Ordering::Relaxed)
    }

    /// Folds the store's final byte accounting into `stats` (the
    /// deterministic peak-memory figures) and latches the truncation flag.
    pub(crate) fn finish_stats(&self, stats: &mut ExploreStats) {
        if let Some(store) = &self.store {
            let report = store.report();
            stats.store_bytes = report.bytes;
            stats.bytes_allocated = report.bytes.total();
            stats.store_runs = report.runs_written;
        }
        stats.truncated = self.truncated.load(Ordering::Relaxed);
    }

    /// Visits one configuration: claims budget, invokes the visitor,
    /// classifies terminals, expands children through the reducer and hands
    /// the surviving ones to `emit`, each with its path extended by the
    /// [`ChildStep`] edge that produced it (what the checkpointer records as
    /// the frontier).  Halts the walk (see [`Walk::halted`]) when the budget
    /// is exhausted or the visitor says `Visit::Stop`.
    ///
    /// The frame is passed *by value* so the last expanded child can be
    /// stepped in place instead of cloned — one whole-configuration clone
    /// saved per interior node, on top of the reused `scratch` buffers.
    ///
    /// All of a node's children are probed against the visited store in
    /// *one* `VisitedStore::insert_batch` call, which a one-shard store
    /// answers under one lock.
    /// Insert order within the batch equals the sequential per-child order,
    /// and stepping a child never reads the store, so batching is
    /// observationally identical to per-child probing — the
    /// bit-identical-stats tests pin this.
    pub(crate) fn visit_one<P, V, E>(
        &self,
        frame: Frame<P>,
        visitor: &mut V,
        stats: &mut ExploreStats,
        scratch: &mut WalkScratch,
        mut emit: E,
    ) where
        P: Path,
        V: FnMut(&Config, usize) -> Visit,
        E: FnMut(Frame<P>),
    {
        let Frame {
            config,
            depth,
            mask,
            path,
        } = frame;
        if !claim(&self.budget) {
            self.truncated.store(true, Ordering::Relaxed);
            self.stopped.store(true, Ordering::Relaxed);
            return;
        }
        stats.visited += 1;
        match visitor(&config, depth) {
            Visit::Stop => {
                self.stopped.store(true, Ordering::Relaxed);
                return;
            }
            Visit::Prune => return,
            Visit::Continue => {}
        }
        config.enabled_into(&mut scratch.enabled);
        if scratch.enabled.is_empty() || depth >= self.max_depth {
            stats.terminals += 1;
            return;
        }
        scratch.children.clear();
        self.reducer.expand(
            &config,
            &scratch.enabled,
            mask,
            &scratch.memo,
            &mut scratch.children,
        );
        // Only *process* children count against the enabled set: fault
        // children are extras on top of it, never replacements for a pruned
        // process.
        let exec_children = scratch
            .children
            .iter()
            .filter(|(c, _)| matches!(c, ChildStep::Exec(_)))
            .count();
        stats.pruned += scratch.enabled.len() - exec_children;
        let count = scratch.children.len();
        let mut parent = Some(config);
        scratch.pending.clear();
        for ci in 0..count {
            let (child_step, child_mask) = scratch.children[ci];
            let mut child = if ci + 1 == count {
                parent.take().expect("parent is moved out only once")
            } else {
                parent
                    .as_ref()
                    .expect("parent alive before last child")
                    .clone()
            };
            match child_step {
                ChildStep::Exec(p) => {
                    if matches!(child.step_memoized(p, &mut scratch.memo), StepOutcome::Idle) {
                        continue;
                    }
                }
                ChildStep::Fault(f) => {
                    if !child.apply_fault(&f) {
                        continue;
                    }
                }
            }
            let mut mask = child_mask;
            self.reducer.normalize(&mut child, &mut mask);
            scratch.pending.push((child, mask, child_step));
        }
        scratch.fresh.clear();
        match &self.store {
            None => scratch.fresh.resize(scratch.pending.len(), true),
            Some(store) => {
                scratch.keys.clear();
                scratch.keys.extend(
                    scratch
                        .pending
                        .iter()
                        .map(|(child, mask, _)| (dedup_key(child, *mask), depth + 1)),
                );
                store.insert_batch(&scratch.keys, &mut scratch.fresh);
            }
        }
        for (i, (config, mask, step)) in scratch.pending.drain(..).enumerate() {
            if scratch.fresh[i] {
                emit(Frame {
                    config,
                    depth: depth + 1,
                    mask,
                    path: path.extended(step),
                });
            } else {
                stats.pruned += 1;
            }
        }
    }

    /// The one inner loop: pops a frame, visits it, pushes its children —
    /// depth-first from the top of `stack` — for as long as there are
    /// frames, the walk is not halted and `allowance` has visits left.  The
    /// sequential walk calls it once with an allowance it cannot exhaust,
    /// the checkpointed one once per interval, a parallel wave once per
    /// subtree with one allowance between them; what is left of `stack`
    /// afterwards is, in order, what the same loop would have visited next.
    pub(crate) fn descend<P, V>(
        &self,
        stack: &mut Vec<Frame<P>>,
        allowance: &AtomicUsize,
        visitor: &mut V,
        stats: &mut ExploreStats,
        scratch: &mut WalkScratch,
    ) where
        P: Path,
        V: FnMut(&Config, usize) -> Visit,
    {
        while !self.halted() && !stack.is_empty() && claim(allowance) {
            let frame = stack.pop().expect("checked to be non-empty");
            self.visit_one(frame, visitor, stats, scratch, |child| stack.push(child));
        }
    }

    /// One parallel wave: `workers` threads (the caller's among them,
    /// [`parallel::map_ordered`]) pull subtree roots off the front of
    /// `frontier` and explore each depth-first, all sharing the visitor, the
    /// visit budget, the merged dedup set and — under `Some(allowance)` — a
    /// number of visits the wave as a whole may make, after which the
    /// workers' unfinished stacks go to the back of `frontier`.  Such a wave
    /// takes [`SUBTREES_PER_WORKER`] subtrees per worker; a wave that
    /// nothing cuts short (`None`) takes the whole frontier, since nothing
    /// would be left to run after it.  Returns the visits it made, which are
    /// also added to `stats`.
    pub(crate) fn wave<P, V>(
        &self,
        frontier: &mut VecDeque<Frame<P>>,
        workers: usize,
        allowance: Option<usize>,
        visitor: &V,
        stats: &mut ExploreStats,
    ) -> usize
    where
        P: Path + Send,
        V: Fn(&Config, usize) -> Visit + Sync,
    {
        let subtrees = match allowance {
            None => frontier.len(),
            Some(_) => frontier.len().min(workers * SUBTREES_PER_WORKER),
        };
        let allowance = AtomicUsize::new(allowance.unwrap_or(usize::MAX));
        let results = parallel::map_ordered(workers, frontier.drain(..subtrees), |root| {
            let mut local = ExploreStats::default();
            let mut stack = vec![root];
            self.descend(
                &mut stack,
                &allowance,
                &mut |c: &Config, d: usize| visitor(c, d),
                &mut local,
                &mut WalkScratch::default(),
            );
            (local, stack)
        });
        let mut visits = 0;
        for (local, unfinished) in results {
            visits += local.visited;
            stats.terminals += local.terminals;
            stats.pruned += local.pruned;
            frontier.extend(unfinished);
        }
        stats.visited += visits;
        visits
    }
}

/// Reusable per-walker state: the enabled-process list, the expansion output
/// and the batched child-probe staging, cleared and refilled once per visited
/// node so the hot loop allocates nothing after warm-up, and the walker's
/// transition memo, which lives exactly as long as the walk.
#[derive(Default)]
pub(crate) struct WalkScratch {
    /// The transitions this walker has taken (see [`StepMemo`]): created
    /// with the walk, never shared with another one.
    memo: StepMemo,
    enabled: Vec<ProcessId>,
    children: Vec<(ChildStep, SleepMask)>,
    /// Stepped-and-normalized children awaiting their store verdict.
    pending: Vec<(Config, SleepMask, ChildStep)>,
    /// Their dedup keys, probed in one batched store call per node.
    keys: Vec<(u64, usize)>,
    /// The store's per-child freshness verdicts.
    fresh: Vec<bool>,
}

/// Explores all executions of `implementation` on `workload` sequentially,
/// calling `visitor` on every visited configuration with its depth.
pub fn explore<F>(
    implementation: &dyn Implementation,
    workload: &Workload,
    options: &EngineOptions,
    visitor: F,
) -> ExploreStats
where
    F: FnMut(&Config, usize) -> Visit,
{
    explore_config(
        Config::initial(implementation, workload),
        implementation.process_symmetric_hint(),
        options,
        visitor,
    )
}

/// Like [`explore`], but from an explicit root configuration (the valency
/// and stability analyses start mid-execution, and pass no `hint`: symmetry
/// applicability is then decided structurally against the given root).
pub(crate) fn explore_config<F>(
    root: Config,
    hint: Option<bool>,
    options: &EngineOptions,
    mut visitor: F,
) -> ExploreStats
where
    F: FnMut(&Config, usize) -> Visit,
{
    let (walk, mut stack) = Walk::start(root, hint, options, 1);
    let mut stats = ExploreStats::default();
    walk.descend(
        &mut stack,
        &AtomicUsize::new(usize::MAX),
        &mut visitor,
        &mut stats,
        &mut WalkScratch::default(),
    );
    walk.finish_stats(&mut stats);
    stats
}

/// Explores all executions of `implementation` on `workload` with
/// subtree-stealing workers (semantics of [`explore`]; the visitor is shared,
/// hence `Fn + Sync`).  [`EngineOptions::workers`] threads run, the calling
/// one among them; they exist for the duration of the call.  One worker has
/// nobody to share subtrees with, so its frontier is the root and it visits
/// exactly what [`explore`] visits, in the same order.
///
/// Determinism: visited/terminal/pruned counts equal the sequential path's
/// exactly, for any worker count — without dedup because the reduced tree's
/// node count is traversal-order independent, with dedup because expansion is
/// a function of the `(state, history, sleep-mask, depth)` key, so the set of
/// reachable keys is too.  Only `Visit::Stop` and `max_configs` truncation
/// are inherently order-sensitive.
pub fn explore_shared<F>(
    implementation: &dyn Implementation,
    workload: &Workload,
    options: &EngineOptions,
    visitor: F,
) -> ExploreStats
where
    F: Fn(&Config, usize) -> Visit + Sync,
{
    let workers = options.effective_workers();
    let (walk, frames) = Walk::start(
        Config::initial(implementation, workload),
        implementation.process_symmetric_hint(),
        options,
        (workers * 4).max(16),
    );
    let mut frontier = VecDeque::from(frames);
    let mut stats = ExploreStats::default();

    // Phase 1: breadth-first expansion of the root region on this thread —
    // the inner loop, one visit at a time, children to the back — until
    // enough independent subtree roots exist to keep every worker busy.
    let wanted = if workers == 1 {
        1
    } else {
        workers * SUBTREES_PER_WORKER
    };
    let mut scratch = WalkScratch::default();
    let mut stack = Vec::new();
    while frontier.len() < wanted && !walk.halted() {
        let Some(oldest) = frontier.pop_front() else {
            break;
        };
        stack.push(oldest);
        walk.descend(
            &mut stack,
            &AtomicUsize::new(1),
            &mut |c: &Config, d: usize| visitor(c, d),
            &mut stats,
            &mut scratch,
        );
        frontier.extend(stack.drain(..));
    }

    // Phase 2: one wave over all of them, run to the end.
    walk.wave(&mut frontier, workers, None, &visitor, &mut stats);
    walk.finish_stats(&mut stats);
    stats
}

/// Collects the history of every terminal configuration (quiescent or at the
/// depth bound) on [`EngineOptions::workers`] threads
/// ([`crate::explorer::terminal_histories`] is the one-worker, unreduced
/// shorthand).  The result is sorted deterministically (by debug encoding)
/// for every worker count.
pub fn terminal_histories(
    implementation: &dyn Implementation,
    workload: &Workload,
    options: &EngineOptions,
) -> Vec<History> {
    let max_depth = options.limits.max_depth;
    let out = Mutex::new(Vec::new());
    explore_shared(implementation, workload, options, |config, depth| {
        if config.is_quiescent() || depth >= max_depth {
            out.lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .push(config.history().clone());
        }
        Visit::Continue
    });
    let mut histories = out.into_inner().unwrap_or_else(|p| p.into_inner());
    histories.sort_by_cached_key(|h| format!("{h:?}"));
    histories
}

/// Checks `predicate` against the history of every reachable configuration
/// and returns a violating history if one exists
/// ([`crate::explorer::find_history_violation`] is the one-worker, unreduced
/// shorthand).  With one worker the *first* violation in DFS order is
/// returned ([`explore_shared`] then visits in [`explore`]'s order and stops
/// at it); with several, *a* violation (there is no meaningful "first" under
/// concurrency).
pub fn find_history_violation<F>(
    implementation: &dyn Implementation,
    workload: &Workload,
    options: &EngineOptions,
    predicate: F,
) -> Option<History>
where
    F: Fn(&History) -> bool + Sync,
{
    let violation = Mutex::new(None);
    explore_shared(implementation, workload, options, |config, _| {
        if predicate(config.history()) {
            return Visit::Continue;
        }
        *violation
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(config.history().clone());
        Visit::Stop
    });
    violation.into_inner().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::{objects, BaseObject};
    use crate::program::{LocalSpecImplementation, ProcessLogic, TaskStep};
    use evlin_spec::{FetchIncrement, Invocation, Register, TestAndSet, Value};
    use std::fmt;
    use std::sync::Arc;

    /// A two-phase fetch&increment over one shared register per process:
    /// write your own slot, then read the others — plenty of commuting
    /// accesses for the sleep sets to prune, and a process id baked into the
    /// programme state (so symmetry must detect asymmetry structurally).
    #[derive(Debug, Clone)]
    struct ScanCounter {
        processes: usize,
    }

    #[derive(Debug, Clone)]
    struct ScanLogic {
        me: usize,
        n: usize,
        count: i64,
        at: usize,
        sum: i64,
        running: bool,
    }

    impl Implementation for ScanCounter {
        fn name(&self) -> String {
            "scan counter".into()
        }
        fn processes(&self) -> usize {
            self.processes
        }
        fn initial_base_objects(&self) -> Vec<Box<dyn BaseObject>> {
            (0..self.processes)
                .map(|_| objects::register(Value::from(0i64)))
                .collect()
        }
        fn new_process(&self, p: ProcessId) -> Box<dyn ProcessLogic> {
            Box::new(ScanLogic {
                me: p.index(),
                n: self.processes,
                count: 0,
                at: 0,
                sum: 0,
                running: false,
            })
        }
        fn process_symmetric_hint(&self) -> Option<bool> {
            Some(false)
        }
    }

    impl ProcessLogic for ScanLogic {
        fn begin(&mut self, _invocation: Invocation) {
            self.running = true;
            self.at = 0;
            self.sum = 0;
            self.count += 1;
        }
        fn step(&mut self, previous: Option<Value>) -> TaskStep {
            if self.at == 0 {
                self.at = 1;
                return TaskStep::Access {
                    object: self.me,
                    invocation: Register::write(Value::from(self.count)),
                };
            }
            if self.at > 1 {
                self.sum += previous.and_then(|v| v.as_int()).unwrap_or(0);
            }
            // Scan the other processes' registers in index order.
            let k = (0..self.n).filter(|&k| k != self.me).nth(self.at - 1);
            match k {
                Some(object) => {
                    self.at += 1;
                    TaskStep::Access {
                        object,
                        invocation: Register::read(),
                    }
                }
                None => {
                    self.running = false;
                    TaskStep::Complete(Value::from(self.sum + self.count - 1))
                }
            }
        }
        fn clone_box(&self) -> Box<dyn ProcessLogic> {
            Box::new(self.clone())
        }
    }

    fn fi_local(n: usize) -> LocalSpecImplementation {
        LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), n)
    }

    fn options(reduction: Reduction) -> EngineOptions {
        EngineOptions {
            reduction,
            workers: Some(1),
            ..EngineOptions::default()
        }
    }

    #[test]
    fn no_reduction_matches_raw_tree_counts() {
        let imp = fi_local(2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 1);
        let stats = explore(&imp, &w, &options(Reduction::None), |_, _| Visit::Continue);
        assert_eq!((stats.visited, stats.terminals, stats.pruned), (5, 2, 0));
    }

    #[test]
    fn sleep_sets_prune_commuting_register_scans() {
        let imp = ScanCounter { processes: 3 };
        let w = Workload::uniform(3, Invocation::nullary("fetch_inc"), 1);
        let raw = explore(&imp, &w, &options(Reduction::None), |_, _| Visit::Continue);
        let reduced = explore(&imp, &w, &options(Reduction::SleepSet), |_, _| {
            Visit::Continue
        });
        assert!(!raw.truncated && !reduced.truncated);
        assert!(
            reduced.visited < raw.visited,
            "sleep sets must prune: raw {raw:?}, reduced {reduced:?}"
        );
        assert!(reduced.pruned > 0);
        // Every distinct terminal history is preserved exactly.
        let collect = |r: Reduction| {
            let mut hs = Vec::new();
            explore(&imp, &w, &options(r), |c, d| {
                if c.is_quiescent() || d >= 64 {
                    hs.push(format!("{:?}", c.history()));
                }
                Visit::Continue
            });
            hs.sort();
            hs.dedup();
            hs
        };
        assert_eq!(collect(Reduction::None), collect(Reduction::SleepSet));
    }

    #[test]
    fn symmetry_canonicalization_merges_renamed_configs() {
        let imp = fi_local(3);
        let w = Workload::uniform(3, FetchIncrement::fetch_inc(), 2);
        let raw = explore(&imp, &w, &options(Reduction::None), |_, _| Visit::Continue);
        let reduced = explore(&imp, &w, &options(Reduction::Symmetry), |_, _| {
            Visit::Continue
        });
        assert!(!raw.truncated && !reduced.truncated);
        assert!(
            reduced.visited * 2 < raw.visited,
            "symmetry must merge orbits: raw {raw:?}, reduced {reduced:?}"
        );
    }

    #[test]
    fn symmetry_detection_vetoes_and_degrades() {
        // Hint veto: the scan counter embeds process ids.
        let scan = ScanCounter { processes: 2 };
        let root = Config::initial(
            &scan,
            &Workload::uniform(2, Invocation::nullary("fetch_inc"), 1),
        );
        let canonicalizes = |root: &Config, hint: Option<bool>| {
            let reducer = Reduction::Symmetry.resolve(root, hint);
            // Vetoed or not, the symmetry variants merge through the dedup set.
            assert!(reducer.requires_dedup());
            reducer.uses_rename_components()
        };
        assert!(!canonicalizes(&root, scan.process_symmetric_hint()));
        // Structural veto: asymmetric workload.
        let imp = fi_local(2);
        let skew = Config::initial(
            &imp,
            &Workload::new(vec![vec![FetchIncrement::fetch_inc()], Vec::new()]),
        );
        assert!(!canonicalizes(&skew, None));
        // Applicable: uniform workload over identical programmes.
        let fair = Config::initial(&imp, &Workload::uniform(2, FetchIncrement::fetch_inc(), 1));
        assert!(canonicalizes(&fair, None));
        assert!(Reduction::SleepSetSymmetry
            .resolve(&fair, None)
            .uses_rename_components());
        // The other two neither canonicalize nor force deduplication.
        for plain in [Reduction::None, Reduction::SleepSet] {
            let reducer = plain.resolve(&fair, None);
            assert!(!reducer.requires_dedup() && !reducer.uses_rename_components());
        }
    }

    #[test]
    fn combined_reduction_beats_either_alone_and_keeps_verdicts() {
        let imp = fi_local(4);
        let w = Workload::uniform(4, FetchIncrement::fetch_inc(), 2);
        let run = |r: Reduction| explore(&imp, &w, &options(r), |_, _| Visit::Continue);
        let raw = run(Reduction::None);
        let combined = run(Reduction::SleepSetSymmetry);
        assert!(!raw.truncated && !combined.truncated);
        assert!(
            combined.visited * 5 <= raw.visited,
            "raw {raw:?} vs {combined:?}"
        );
        // The local-copy fetch&inc duplicates responses in some interleaving;
        // the reduced engines must still find that violation.
        for r in [
            Reduction::None,
            Reduction::SleepSet,
            Reduction::Symmetry,
            Reduction::SleepSetSymmetry,
        ] {
            let violation = find_history_violation(
                &imp,
                &w,
                &EngineOptions {
                    reduction: r,
                    workers: Some(1),
                    ..EngineOptions::default()
                },
                |h| {
                    h.complete_operations()
                        .iter()
                        .filter(|o| o.response == Some(Value::from(0i64)))
                        .count()
                        < 2
                },
            );
            assert!(violation.is_some(), "strategy {r:?} lost the violation");
        }
    }

    #[test]
    fn stats_identical_across_worker_counts() {
        let imp = fi_local(3);
        let w = Workload::uniform(3, FetchIncrement::fetch_inc(), 2);
        for reduction in [
            Reduction::None,
            Reduction::SleepSet,
            Reduction::Symmetry,
            Reduction::SleepSetSymmetry,
        ] {
            let reference = explore(&imp, &w, &options(reduction), |_, _| Visit::Continue);
            for workers in [1, 2, 4, 8] {
                let parallel = explore_shared(
                    &imp,
                    &w,
                    &EngineOptions {
                        reduction,
                        workers: Some(workers),
                        ..EngineOptions::default()
                    },
                    |_, _| Visit::Continue,
                );
                assert_eq!(
                    parallel, reference,
                    "{reduction:?} diverged at {workers} workers"
                );
            }
        }
    }

    /// What lets `terminal_histories` and `find_history_violation` run on
    /// `explore_shared` alone and still answer "first in DFS order" with one
    /// worker.
    #[test]
    fn one_worker_shared_walk_visits_in_the_sequential_order() {
        let scan = ScanCounter { processes: 3 };
        let scan_w = Workload::uniform(3, Invocation::nullary("fetch_inc"), 1);
        let local = fi_local(3);
        let local_w = Workload::uniform(3, FetchIncrement::fetch_inc(), 2);
        let subjects: [(&dyn Implementation, &Workload); 2] =
            [(&scan, &scan_w), (&local, &local_w)];
        for (imp, workload) in subjects {
            for reduction in [
                Reduction::None,
                Reduction::SleepSet,
                Reduction::Symmetry,
                Reduction::SleepSetSymmetry,
            ] {
                for (dedup, fault_budget) in [(false, 0), (true, 0), (true, 1)] {
                    let options = EngineOptions {
                        dedup,
                        fault_budget,
                        ..options(reduction)
                    };
                    let render = |c: &Config, d: usize| format!("{d} {:?}", c.history());
                    let mut sequential = Vec::new();
                    let stats = explore(imp, workload, &options, |c, d| {
                        sequential.push(render(c, d));
                        Visit::Continue
                    });
                    let shared = Mutex::new(Vec::new());
                    let shared_stats = explore_shared(imp, workload, &options, |c, d| {
                        shared.lock().unwrap().push(render(c, d));
                        Visit::Continue
                    });
                    assert!(sequential.len() > 10 && !stats.truncated);
                    assert_eq!(shared_stats, stats);
                    assert_eq!(
                        shared.into_inner().unwrap(),
                        sequential,
                        "{} under {reduction:?}, dedup {dedup}, {fault_budget} faults",
                        imp.name()
                    );
                }
            }
        }
    }

    #[test]
    fn fault_budget_multiplies_the_tree_and_every_strategy_keeps_verdicts() {
        let imp = fi_local(2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 1);
        let fault_options = |r: Reduction| EngineOptions {
            reduction: r,
            workers: Some(1),
            fault_budget: 1,
            ..EngineOptions::default()
        };
        let clean = explore(&imp, &w, &options(Reduction::None), |_, _| Visit::Continue);
        let faulty = explore(&imp, &w, &fault_options(Reduction::None), |_, _| {
            Visit::Continue
        });
        assert!(!clean.truncated && !faulty.truncated);
        assert!(
            faulty.visited > clean.visited,
            "fault children must widen the tree: clean {clean:?}, faulty {faulty:?}"
        );
        // Terminal-history sets are identical across strategies (symmetry
        // canonicalizes, but fi_local histories of a uniform workload are
        // closed under renaming only as a *set*, so compare canonical forms
        // through sorting the debug encodings of all renamings' minima — for
        // this 2-process uniform case plain sleep-set equality suffices).
        let collect = |o: &EngineOptions| {
            let mut hs = Vec::new();
            explore(&imp, &w, o, |c, d| {
                if c.is_quiescent() || d >= 64 {
                    hs.push(format!("{:?}", c.history()));
                }
                Visit::Continue
            });
            hs.sort();
            hs.dedup();
            hs
        };
        assert_eq!(
            collect(&fault_options(Reduction::None)),
            collect(&fault_options(Reduction::SleepSet)),
        );
    }

    #[test]
    fn zero_budget_exploration_is_bit_identical_to_fault_free() {
        // The k=0 path must not perturb stats, keys or dedup behaviour.
        let imp = fi_local(3);
        let w = Workload::uniform(3, FetchIncrement::fetch_inc(), 2);
        for reduction in [
            Reduction::None,
            Reduction::SleepSet,
            Reduction::Symmetry,
            Reduction::SleepSetSymmetry,
        ] {
            let base = explore(&imp, &w, &options(reduction), |_, _| Visit::Continue);
            let zero = explore(
                &imp,
                &w,
                &EngineOptions {
                    reduction,
                    workers: Some(1),
                    fault_budget: 0,
                    ..EngineOptions::default()
                },
                |_, _| Visit::Continue,
            );
            assert_eq!(base, zero, "{reduction:?} diverged at budget 0");
        }
    }

    #[test]
    fn fault_stats_identical_across_worker_counts() {
        let imp = fi_local(2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 1);
        for reduction in [
            Reduction::None,
            Reduction::SleepSet,
            Reduction::SleepSetSymmetry,
        ] {
            let reference = explore(
                &imp,
                &w,
                &EngineOptions {
                    reduction,
                    workers: Some(1),
                    fault_budget: 1,
                    ..EngineOptions::default()
                },
                |_, _| Visit::Continue,
            );
            for workers in [2, 4] {
                let parallel = explore_shared(
                    &imp,
                    &w,
                    &EngineOptions {
                        reduction,
                        workers: Some(workers),
                        fault_budget: 1,
                        ..EngineOptions::default()
                    },
                    |_, _| Visit::Continue,
                );
                assert_eq!(
                    parallel, reference,
                    "{reduction:?} diverged at {workers} workers with faults"
                );
            }
        }
    }

    /// Read the shared register, write back what was read plus `bump`,
    /// return the sum.  `bump` is deliberately left out of the programme's
    /// `Debug` rendering: two twins with different bumps pass through states
    /// that *print* identically — equal content hashes, equal memo keys —
    /// and behave differently.
    #[derive(Debug, Clone)]
    struct Twin {
        bump: i64,
    }

    #[derive(Clone)]
    struct TwinLogic {
        bump: i64,
        at: usize,
        seen: i64,
    }

    impl fmt::Debug for TwinLogic {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "TwinLogic {{ at: {}, seen: {} }}", self.at, self.seen)
        }
    }

    impl Implementation for Twin {
        fn name(&self) -> String {
            "twin".into()
        }
        fn processes(&self) -> usize {
            2
        }
        fn initial_base_objects(&self) -> Vec<Box<dyn BaseObject>> {
            vec![objects::register(Value::from(0i64))]
        }
        fn new_process(&self, _p: ProcessId) -> Box<dyn ProcessLogic> {
            Box::new(TwinLogic {
                bump: self.bump,
                at: 0,
                seen: 0,
            })
        }
    }

    impl ProcessLogic for TwinLogic {
        fn begin(&mut self, _invocation: Invocation) {
            self.at = 0;
        }
        fn step(&mut self, previous: Option<Value>) -> TaskStep {
            self.at += 1;
            match self.at {
                1 => TaskStep::Access {
                    object: 0,
                    invocation: Register::read(),
                },
                2 => {
                    self.seen = previous.and_then(|v| v.as_int()).unwrap_or(0);
                    TaskStep::Access {
                        object: 0,
                        invocation: Register::write(Value::from(self.seen + self.bump)),
                    }
                }
                _ => TaskStep::Complete(Value::from(self.seen + self.bump)),
            }
        }
        fn clone_box(&self) -> Box<dyn ProcessLogic> {
            Box::new(self.clone())
        }
    }

    /// One sequential deduplicating walk — `explore_config`'s body, over the
    /// caller's walker state: its stats, everything the visitor
    /// saw in order, and the distinct terminal histories.
    fn walk(
        imp: &dyn Implementation,
        workload: &Workload,
        reduction: Reduction,
        mut scratch: WalkScratch,
    ) -> (ExploreStats, Vec<String>, Vec<String>) {
        let options = EngineOptions {
            dedup: true,
            ..options(reduction)
        };
        let (walk, mut stack) = Walk::start(
            Config::initial(imp, workload),
            imp.process_symmetric_hint(),
            &options,
            1,
        );
        assert!(walk.store().is_some());
        let mut stats = ExploreStats::default();
        let (mut seen, mut terminals) = (Vec::new(), Vec::new());
        walk.descend(
            &mut stack,
            &AtomicUsize::new(usize::MAX),
            &mut |c: &Config, d: usize| {
                assert!(c.fingerprint_consistent());
                seen.push(format!("{d} {:016x} {:?}", c.fingerprint(), c.history()));
                if c.is_quiescent() {
                    terminals.push(format!("{:?}", c.history()));
                }
                Visit::Continue
            },
            &mut stats,
            &mut scratch,
        );
        walk.finish_stats(&mut stats);
        assert!(!stats.truncated);
        terminals.sort();
        terminals.dedup();
        (stats, seen, terminals)
    }

    fn unmemoized() -> WalkScratch {
        WalkScratch {
            memo: StepMemo::with_cap(0),
            ..WalkScratch::default()
        }
    }

    #[test]
    fn a_memo_that_records_nothing_walks_the_same_walk() {
        let scan = ScanCounter { processes: 3 };
        let scan_w = Workload::uniform(3, Invocation::nullary("fetch_inc"), 1);
        let local = fi_local(3);
        let local_w = Workload::uniform(3, FetchIncrement::fetch_inc(), 2);
        let subjects: [(&dyn Implementation, &Workload); 2] =
            [(&scan, &scan_w), (&local, &local_w)];
        for (imp, workload) in subjects {
            for reduction in [
                Reduction::None,
                Reduction::SleepSet,
                Reduction::Symmetry,
                Reduction::SleepSetSymmetry,
            ] {
                let memoized = walk(imp, workload, reduction, WalkScratch::default());
                let plain = walk(imp, workload, reduction, unmemoized());
                assert!(memoized.0.visited > 10);
                assert_eq!(memoized, plain, "{} under {reduction:?}", imp.name());
            }
        }
    }

    #[test]
    fn back_to_back_explorations_do_not_share_a_memo() {
        let workload = Workload::uniform(2, Invocation::nullary("op"), 2);
        let mut terminal_sets = Vec::new();
        for bump in [1, 2] {
            let twin = Twin { bump };
            let memoized = walk(
                &twin,
                &workload,
                Reduction::SleepSet,
                WalkScratch::default(),
            );
            let plain = walk(&twin, &workload, Reduction::SleepSet, unmemoized());
            assert_eq!(memoized, plain, "twin with bump {bump}");
            terminal_sets.push(memoized.2);
        }
        // The twins really are different programmes behind one rendering, so
        // an effect recorded for the first would have been wrong for the
        // second.
        assert_ne!(terminal_sets[0], terminal_sets[1]);
    }

    #[test]
    #[should_panic(expected = "at most 64 processes")]
    fn sleep_sets_refuse_more_processes_than_the_mask_has_bits() {
        let root = |n: usize| {
            Config::initial(
                &fi_local(n),
                &Workload::uniform(n, FetchIncrement::fetch_inc(), 1),
            )
        };
        let _ = Reduction::SleepSet.resolve(&root(64), None);
        // Process 64's bit would wrap onto process 0's in a release build.
        let _ = Reduction::SleepSetSymmetry.resolve(&root(65), None);
    }

    #[test]
    fn permutation_table_is_lexicographic_with_identity_first() {
        let perms = permutations(3);
        assert_eq!(perms.len(), 6);
        assert_eq!(perms[0], vec![0, 1, 2]);
        assert_eq!(perms[5], vec![2, 1, 0]);
        assert_eq!(permute_mask(0b101, &[2, 1, 0]), 0b101);
        assert_eq!(permute_mask(0b011, &[1, 2, 0]), 0b110);
    }

    #[test]
    fn terminal_histories_sorted_and_worker_independent() {
        let imp = fi_local(2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 2);
        let seq = terminal_histories(&imp, &w, &options(Reduction::None));
        let par = terminal_histories(
            &imp,
            &w,
            &EngineOptions {
                workers: Some(4),
                ..EngineOptions::default()
            },
        );
        assert_eq!(seq, par);
        assert!(!seq.is_empty());
    }

    #[test]
    fn parallel_find_violation_finds_a_counterexample() {
        let imp = LocalSpecImplementation::new(Arc::new(TestAndSet::new()), 2);
        let w = Workload::uniform(2, TestAndSet::test_and_set(), 1);
        let parallel = EngineOptions {
            workers: Some(4),
            ..EngineOptions::default()
        };
        // "No two operations both return 0" — violated by the local-copy
        // implementation of test&set once both processes have completed.
        let violation = find_history_violation(&imp, &w, &parallel, |h| {
            h.complete_operations()
                .iter()
                .filter(|o| o.response == Some(evlin_spec::Value::from(0i64)))
                .count()
                < 2
        });
        assert!(violation.is_some());
        // And no violation is reported for a property that always holds.
        let none = find_history_violation(&imp, &w, &parallel, |h| h.len() < usize::MAX);
        assert!(none.is_none());
    }

    #[test]
    fn parallel_max_configs_truncates() {
        let imp = fi_local(3);
        let w = Workload::uniform(3, FetchIncrement::fetch_inc(), 3);
        let stats = explore_shared(
            &imp,
            &w,
            &EngineOptions {
                limits: ExploreOptions {
                    max_depth: 64,
                    max_configs: 10,
                },
                workers: Some(4),
                ..EngineOptions::default()
            },
            |_, _| Visit::Continue,
        );
        assert!(stats.truncated);
        assert!(stats.visited <= 10);
    }
}
