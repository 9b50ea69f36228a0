//! The streaming online consistency monitor.
//!
//! Every checker in this crate so far is *offline*: it needs the whole
//! history in hand before the kernel sees a single operation.  This module
//! checks a history *while it is being produced* — events are ingested one at
//! a time, verified prefixes are garbage-collected, and resident memory is
//! bounded by the width of the concurrency window (plus the per-object state
//! frontier), not by the length of the history.
//!
//! ## Quiescent-cut segmentation
//!
//! The stream is partitioned at *quiescent cut points*: moments at which no
//! operation is pending.  A cut at event index `c` has two properties that
//! make the segments on either side independently checkable:
//!
//! 1. every operation invoked before `c` also responds before `c`, and every
//!    operation of the later segment is invoked after `c`, so the real-time
//!    order forces **all** earlier-segment operations before **all**
//!    later-segment operations in any witness linearization;
//! 2. consequently a witness for the whole history is exactly a chain of
//!    per-segment witnesses, where segment `k + 1` is checked against the
//!    object states *left behind* by segment `k`'s witness.
//!
//! Different witnesses of a segment can leave different final states (two
//! concurrent writes can be ordered either way), so the monitor threads a
//! *frontier set* — every final state vector reachable by some accepting
//! linearization, computed exhaustively by [`kernel::visit_frontiers`] — and
//! a segment is consistent iff it is satisfiable from at least one incoming
//! frontier state.  This is an exact decision procedure, not an
//! approximation: the verdict equals the offline kernel's verdict on the
//! concatenated history (the differential proptests in
//! `tests/monitor_differential.rs` pit one against the other event for
//! event).
//!
//! ## Pipelined stages
//!
//! The monitor is built as two decoupled stages so the runtime's sharded
//! ingest path can overlap checking with ingestion:
//!
//! * [`MonitorIngest`] — the per-event half: well-formedness filtering,
//!   window maintenance and quiescent-cut detection.  It is deliberately
//!   allocation-light (a short list of the open operations' `(process,
//!   object)` pairs, scanned linearly, and one fingerprint word per event)
//!   so the hot path costs a few dozen nanoseconds per event, however many
//!   objects the stream names.  Closed segments accumulate into opaque
//!   [`SegmentBatch`]es.
//! * [`MonitorCheck`] — the per-segment half: frontier threading, kernel
//!   searches, the small-link walk and the fetch&increment fast path.
//!   Batches are `Send`, so a pipelined caller ships them to a dedicated
//!   checker thread and keeps ingesting while earlier segments are
//!   verified.
//!
//! [`Monitor`] glues the two stages back together behind the original
//! single-threaded API; [`stages`] hands them out separately.  Exactness is
//! unaffected by the split: batches are checked in FIFO order, so frontier
//! threading, t-lin floaters and the deterministic earliest-violation merge
//! behave exactly as in the inline monitor (the differential suites assert
//! verdict equality for both drivers).
//!
//! As segments close, the ingest stage also folds every event into a running
//! *stream fingerprint* ([`event_word`] packed per event, folded with the
//! word-at-a-time batch fold [`crate::fold_words`]); the
//! fingerprint is reported in [`MonitorStats`] and gives the runtime's
//! frame-batched transport a cheap end-to-end integrity check.
//!
//! ## Locality
//!
//! Within a segment the monitor exploits the same Herlihy–Wing locality the
//! offline [`kernel::check_local`] pre-pass uses, but one step earlier: for
//! linearizability, and for `t`-linearizability with a fixed `t`, the
//! per-object *frontiers* are independent (witness composition never couples
//! the states of distinct objects), so the monitor
//! keeps one frontier set per object and checks the per-object projections of
//! each segment independently — one object after the other, on the thread
//! that runs the check stage (a caller with cores to spare splits the stream
//! by object with a [`ShardRouter`] and runs one monitor per shard).
//! Locality says each `H|o` may be decided on its own, not that the segment
//! should be re-read once per object to find it: the check stage groups
//! every segment's event positions by object in one counting pass
//! (`Grouping::add_segment`), buckets the batch's links by object in another
//! (`Grouping::order_chains`, which sorts only the distinct objects) and
//! hands each object a chain of `(segment, positions)` links, so a batch
//! costs `O(events)` plus a sort of its objects, whatever their number, and
//! an object never visits a segment it is absent from.
//! The projections of an object whose type *is* [`FetchIncrement`] (asked
//! of the type, not of its [`ObjectType::name`], which any type may claim)
//! take the [`crate::fi`] fast path instead of the kernel — loaded once per
//! link and checked once per frontier state, each check linear in the
//! link's events, and a response outside `[state, state + operations)`
//! refused at once — which is what lets the monitor keep up with millions
//! of real-thread counter operations (experiment E11, the
//! `monitor_throughput` bench).  A segment whose events all name one object
//! is its own projection and is read whole.
//!
//! No path materializes a projection.  A link's events are read in
//! place through its positions; on the kernel path its invocations and
//! responses are matched into pooled index pairs
//! ([`evlin_history::OperationMatcher`], the rule behind
//! [`History::operations`]) and lent to the kernel as operation views
//! ([`EventProblem`], the one stating of Definition 2 the offline
//! [`crate::t_linearizability::TLinearizability`] uses too), once per incoming
//! frontier state with that state as the search's root argument; the
//! accepting frontiers come back as
//! rows of the pooled [`KernelScratch`], the object's states are appended to
//! a pooled buffer, sorted and deduplicated, and swapped with the incoming
//! frontier, which is the object's entry of the frontier map updated in
//! place.  The stream tail takes the same views through the witness search.
//!
//! A mid-stream link of at most four complete operations (most links of a
//! stream of short rounds) has only their real-time order to choose: a walk
//! over the object's spec (`Walk`) repeats the kernel's exhaustive search
//! from each frontier state without its set-up, node for node (a unit test
//! holds the two equal), adds nothing to `arena_bytes`, and feeds the same
//! pooled buffer, sort, deduplication, cap and swap.
//!
//! A link of one operation is decided before any walk is built, through
//! the walk's one spec call per frontier state.  The walk, the one-operation
//! step and the kernel read a spec's transitions through
//! [`ObjectType::for_each_transition`], interning what it hands over into
//! pooled tables, so a warmed-up batch allocates only what the spec builds
//! for the values it hands over (nothing for integer or boolean states) and
//! the pooled buffers' growth to a new widest link or frontier
//! (`tests/alloc_smoke.rs` pins zero for register and counter streams).
//!
//! ## The four conditions, three drains
//!
//! Each drain has its own state and borrows what they all share (universe,
//! limits, scratches, counters, verdict).  A frontier past a fixed cap of
//! 4096 entries makes the verdict [`MonitorVerdict::Unknown`].
//!
//! * [`MonitorCondition::Linearizability`] and
//!   [`MonitorCondition::TLinearizability`] — Definition 2 with a fixed `t`,
//!   linearizability being `t = 0`: one drain, per-object frontier threading
//!   as above.  Operations whose response falls inside the forgiven prefix
//!   (the first `t` events) have no precedence constraints at all, so they
//!   may be linearized in *any* later link of their object; the monitor
//!   carries these "floaters" across cuts in their own object's frontier
//!   (optional in every link, mandatory by the end, in an empty tail link if
//!   the object has no events there), whose entries then pair a state with
//!   the floaters it leaves unplaced.  Each link takes its share of the
//!   prefix, its events before global index `t`; the ingest stage defers the
//!   first cut until the stream has passed event `t`, so only a first
//!   segment has any and all floaters are discovered there.  A link with no
//!   floaters to place or carry takes the paths linearizability takes.
//! * [`MonitorCondition::WeakConsistency`] — Definition 1 is checked per
//!   completed operation, and its justification may reach arbitrarily far
//!   back in the history; but it only sees past operations through their
//!   *invocation multiset* (identities never matter to the kernel), so the
//!   monitor summarizes the past as bounded per-object and per-process
//!   invocation counters and states each operation's search problem over
//!   the counters — exact, with O(distinct invocations) resident memory.
//!   That counted problem (`weak_problem`, a `Counted` problem) lives
//!   beside the history-view statement of Definition 1, in
//!   [`crate::weak_consistency`]; Figure 1's line 13 asks it too.
//! * [`MonitorCondition::StabilizesEventually`] — the liveness half of
//!   eventual linearizability (`t`-linearizable for *some* `t`, i.e. all
//!   responses and real-time order forgiven) likewise only depends on the
//!   multiset of invocations; the monitor accumulates counters and decides at
//!   [`Monitor::finish`], one `Counted` problem per object.  Weak
//!   consistency and this mode replay a segment's invoke/respond pairs
//!   through one loop, and the operations still pending at the end of the
//!   stream are what that loop leaves open in the stream's tail: each was
//!   invoked after the last quiescent cut.
//!
//! ## Example
//!
//! ```
//! use evlin_checker::monitor::{Monitor, MonitorConfig, MonitorVerdict};
//! use evlin_history::{ObjectUniverse, ObjectId, ProcessId};
//! use evlin_spec::{FetchIncrement, Value};
//!
//! let mut universe = ObjectUniverse::new();
//! let x = universe.add_object(FetchIncrement::new());
//! let mut monitor = Monitor::new(universe, MonitorConfig::default());
//!
//! // Feed a live stream of events; the monitor checks closed segments as it
//! // goes and drops them afterwards.
//! monitor.invoke(ProcessId(0), x, FetchIncrement::fetch_inc()).unwrap();
//! monitor.respond(ProcessId(0), x, Value::from(0i64)).unwrap();
//! monitor.invoke(ProcessId(1), x, FetchIncrement::fetch_inc()).unwrap();
//! monitor.respond(ProcessId(1), x, Value::from(1i64)).unwrap();
//!
//! let report = monitor.finish();
//! assert!(matches!(report.verdict, MonitorVerdict::Ok));
//! ```
//!
//! Pipelined drivers split the stages instead:
//!
//! ```
//! use evlin_checker::monitor::{stages, MonitorConfig};
//! use evlin_history::{Event, ObjectUniverse, ProcessId};
//! use evlin_spec::{FetchIncrement, Value};
//!
//! let mut universe = ObjectUniverse::new();
//! let x = universe.add_object(FetchIncrement::new());
//! let (mut ingest, mut check) = stages(universe, MonitorConfig::default());
//! for k in 0..10i64 {
//!     let p = ProcessId(0);
//!     ingest.ingest(Event::invoke(p, x, FetchIncrement::fetch_inc())).unwrap();
//!     ingest.ingest(Event::respond(p, x, Value::from(k))).unwrap();
//!     if let Some(batch) = ingest.take_ready_batch() {
//!         check.check_batch(batch); // in a pipeline: on another thread
//!     }
//! }
//! let (tail, summary) = ingest.finish();
//! let report = check.finish(tail, summary);
//! assert!(report.verdict.is_ok());
//! ```

use crate::fi::FiScratch;
use crate::kernel::{
    self, KernelScratch, OpView, Problem, SearchLimits, SearchResult, SearchStats,
};
use crate::t_linearizability::EventProblem;
use crate::util::{fold_words, hash_of, mix};
use crate::weak_consistency::{weak_problem, Counted, Tally};
use evlin_history::{
    Event, EventKind, History, ObjectId, ObjectUniverse, OpId, OperationMatcher, ProcessId,
};
use evlin_spec::{FetchIncrement, Invocation, ObjectType, Value, VOCABULARY};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::LazyLock;

// ---------------------------------------------------------------------------
// Configuration and reporting types
// ---------------------------------------------------------------------------

/// Which consistency condition the monitor enforces on the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorCondition {
    /// Classical linearizability (`t = 0`), with per-object frontier
    /// threading and the fetch&increment fast path.
    Linearizability,
    /// `t`-linearizability (Definition 2) for a fixed `t`, checked through
    /// the same per-object chains as linearizability, each object carrying
    /// its own forgiven operations.
    TLinearizability {
        /// The number of initial events forgiven.
        t: usize,
    },
    /// Weak consistency (Definition 1), one check per completed operation.
    WeakConsistency,
    /// The liveness half of eventual linearizability: `t`-linearizable for
    /// some `t` (decided at [`Monitor::finish`]).
    StabilizesEventually,
}

/// Tuning knobs for a [`Monitor`].  The frontier cap is not one of them: a
/// frontier of more than 4096 entries makes the verdict
/// [`MonitorVerdict::Unknown`] instead of exhausting memory.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// The condition to enforce.
    pub condition: MonitorCondition,
    /// Node budget per kernel search.
    pub limits: SearchLimits,
    /// Do not cut before the open window holds at least this many events
    /// (delaying a cut is always sound; larger segments amortize per-segment
    /// overhead at the price of a larger resident window).
    pub min_segment_events: usize,
    /// Check-and-GC automatically once this many closed segments queue up.
    pub segment_batch: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            condition: MonitorCondition::Linearizability,
            limits: SearchLimits::default(),
            min_segment_events: 1,
            segment_batch: 64,
        }
    }
}

/// Upper bound on tracked frontier entries (see [`MonitorConfig`]).
const MAX_FRONTIERS: usize = 4096;

impl MonitorConfig {
    /// A default configuration for the given condition.
    pub fn for_condition(condition: MonitorCondition) -> Self {
        MonitorConfig {
            condition,
            ..MonitorConfig::default()
        }
    }
}

/// A consistency violation detected by the monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorViolation {
    /// Global index of the first event of the offending segment.
    pub segment_start: usize,
    /// Number of events in the offending segment.
    pub segment_len: usize,
    /// The object on which the violation was localized, if the check was
    /// per-object.
    pub object: Option<ObjectId>,
    /// The violating operation (weak-consistency mode), numbered by global
    /// invocation order exactly like [`History::operations`].
    pub op: Option<OpId>,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for MonitorViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "violation in events [{}, {}): {}",
            self.segment_start,
            self.segment_start + self.segment_len,
            self.detail
        )
    }
}

/// The monitor's verdict over everything ingested so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorVerdict {
    /// Every closed segment (and, after [`Monitor::finish`], the whole
    /// stream) satisfies the condition.
    Ok,
    /// A definite violation was found.
    Violation(MonitorViolation),
    /// A search exhausted its node budget or the frontier cap was hit; the
    /// stream could not be fully verified.
    Unknown,
}

impl MonitorVerdict {
    /// `true` iff the verdict is [`MonitorVerdict::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, MonitorVerdict::Ok)
    }
}

/// Counters describing a monitoring run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Events ingested.
    pub events: usize,
    /// Completed operations whose verdict has been established.
    pub checked_ops: usize,
    /// Segments closed at quiescent cut points (including the final one).
    pub segments: usize,
    /// Largest number of events resident at once (open window plus queued
    /// closed segments) — the monitor's memory high-water mark, which stays
    /// bounded by the concurrency window rather than the history length.
    pub peak_window_events: usize,
    /// Segments decided by the linear-time fetch&increment fast path.
    pub fast_path_segments: usize,
    /// Running fingerprint of the ingested stream: every event is packed
    /// into one word ([`event_word`]) and segments are folded in order with
    /// the batch fold [`crate::fold_words`].  Two
    /// monitors with the same configuration agree on this value iff they saw
    /// the same event sequence — the end-to-end integrity check of the
    /// frame-batched transport.
    pub stream_fingerprint: u64,
    /// Kernel search counters summed over all segment checks.
    pub search: SearchStats,
}

/// The final report of a monitoring run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorReport {
    /// The verdict.
    pub verdict: MonitorVerdict,
    /// The counters.
    pub stats: MonitorStats,
}

/// An ill-formed input stream (the online analogue of
/// [`History::is_well_formed`] failing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorError {
    /// A process invoked an operation while it already had one pending.
    InvokeWhilePending {
        /// The offending process.
        process: ProcessId,
        /// Global index of the offending event.
        global_index: usize,
    },
    /// A response arrived with no matching pending invocation (or on a
    /// different object than the pending invocation).
    OrphanResponse {
        /// The offending process.
        process: ProcessId,
        /// Global index of the offending event.
        global_index: usize,
    },
    /// An event named an object outside the monitor's universe.
    UnknownObject {
        /// The object named.
        object: ObjectId,
        /// Global index of the offending event.
        global_index: usize,
    },
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::InvokeWhilePending {
                process,
                global_index,
            } => write!(
                f,
                "event {global_index}: {process} invoked while an operation was pending"
            ),
            MonitorError::OrphanResponse {
                process,
                global_index,
            } => write!(
                f,
                "event {global_index}: response by {process} matches no pending invocation"
            ),
            MonitorError::UnknownObject {
                object,
                global_index,
            } => write!(f, "event {global_index}: {object} is not in the universe"),
        }
    }
}

impl std::error::Error for MonitorError {}

// ---------------------------------------------------------------------------
// Stream fingerprinting
// ---------------------------------------------------------------------------

/// Domain-separation word for invocation events in [`event_word`].
const TAG_WORD_INVOKE: u64 = 0x6576_7431_0000_0011;
/// Domain-separation word for response events in [`event_word`].
const TAG_WORD_RESPOND: u64 = 0x6576_7432_0000_0012;

/// The Fx content hashes of the nullary [`VOCABULARY`] invocations, by
/// index: what [`event_word`] takes for the invocations almost every stream
/// is made of, computed once instead of a byte at a time per event.
static NULLARY_HASHES: LazyLock<[u64; VOCABULARY.len()]> =
    LazyLock::new(|| VOCABULARY.map(|name| hash_of(&Invocation::nullary(name))));

/// Packs one event into a single fingerprint word.
///
/// The word is a pure function of `(kind, process, object, payload)`, so the
/// fold of a stream's words identifies the stream (up to hash collisions).
/// Integer responses — the overwhelming majority on the counter workloads —
/// use the value directly as the payload; a nullary [`VOCABULARY`]
/// invocation takes its content hash from a table; everything else goes
/// through the checker's Fx content hash.  The monitor's segment keys fold
/// these words, and so do the service's wire batch fingerprints, which is
/// what lets a corrupted payload byte show at the replica.
pub fn event_word(event: &Event) -> u64 {
    let (tag, payload) = match &event.kind {
        EventKind::Invoke(invocation) => (
            TAG_WORD_INVOKE,
            match invocation.vocabulary_index() {
                Some(index) if invocation.args().is_empty() => NULLARY_HASHES[index],
                _ => hash_of(invocation),
            },
        ),
        EventKind::Respond(value) => (
            TAG_WORD_RESPOND,
            match value.as_int() {
                Some(i) => i as u64,
                None => hash_of(value),
            },
        ),
    };
    let slot = ((event.process.0 as u64) << 32) ^ (event.object.0 as u64);
    mix(tag ^ mix(slot ^ mix(payload)))
}

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

/// A closed segment awaiting its check.
struct Segment {
    /// Global index of the segment's first event.
    start: usize,
    /// The events.
    history: History,
    /// Number of completed operations (= response events), tracked at
    /// ingest; replaces per-check `complete_operations()` materialization.
    completed: usize,
    /// Stream fingerprint folded up to and including this segment.
    key: u64,
    /// Whether this is the stream's tail, the last segment of the batch
    /// [`MonitorIngest::finish`] returns (possibly non-quiescent, possibly
    /// empty).
    is_tail: bool,
}

/// An opaque batch of closed segments in flight from [`MonitorIngest`] to
/// [`MonitorCheck`].  Batches are `Send`: a pipelined driver ships them over
/// a channel to a dedicated checker thread, in FIFO order.
pub struct SegmentBatch {
    segments: Vec<Segment>,
}

impl SegmentBatch {
    /// Number of segments in the batch.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the batch holds no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total number of events across the batch's segments.
    pub fn events(&self) -> usize {
        self.segments.iter().map(|s| s.history.len()).sum()
    }

    /// The segments' keys: the stream fingerprint folded up to and including
    /// each segment (see [`MonitorStats::stream_fingerprint`]).  The last key
    /// of the final batch *is* the stream fingerprint; transports that frame
    /// the stream can spot-check their reassembly against these mid-stream.
    pub fn segment_keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.segments.iter().map(|s| s.key)
    }
}

/// End-of-stream accounting handed from [`MonitorIngest::finish`] to
/// [`MonitorCheck::finish`], so the final report carries the ingest-side
/// counters.  (The operations still pending when the stream ended are in the
/// final batch's tail segment, where every condition that reads them looks.)
pub struct IngestSummary {
    events: usize,
    peak_window_events: usize,
    stream_fingerprint: u64,
}

impl IngestSummary {
    /// Events ingested over the whole stream.
    pub fn events(&self) -> usize {
        self.events
    }

    /// The final stream fingerprint (see [`MonitorStats::stream_fingerprint`]).
    pub fn stream_fingerprint(&self) -> u64 {
        self.stream_fingerprint
    }
}

/// One object's frontier: every state an accepting chain of its links'
/// witnesses leaves it in, with the floaters that chain has not placed yet.
struct Frontier {
    /// Ascending; distinct unless `unplaced` tells equal states apart.
    states: Vec<Value>,
    /// Per entry of `states`, the invocations of the floaters it leaves
    /// unplaced (a sorted multiset); empty when no entry leaves one.
    unplaced: Vec<Vec<Invocation>>,
}

/// Per-condition incremental state.
enum ModeState {
    Lin {
        /// The forgiven prefix: 0 under linearizability.
        t: usize,
        /// Per-object frontiers (absent object ⇒ still at its initial
        /// state).
        frontiers: BTreeMap<ObjectId, Frontier>,
    },
    Weak(WeakCounters),
    Stab {
        /// Per object: invocation multiset of completed operations.
        completed: BTreeMap<ObjectId, Tally>,
    },
}

/// Weak consistency's summary of the past.
#[derive(Default)]
struct WeakCounters {
    /// Per object: how many operations with each invocation have been
    /// *invoked* so far (the optional pool of Definition 1).
    invoked: BTreeMap<ObjectId, Tally>,
    /// Per (process, object): how many operations with each invocation have
    /// *completed* (the required same-process predecessors).
    preds: BTreeMap<(ProcessId, ObjectId), Tally>,
    /// Global operation counter (invocation order), so reported [`OpId`]s
    /// match [`History::operations`] numbering.
    next_op: usize,
}

/// Counts one more operation with `invocation`.
fn bump(tally: &mut Tally, invocation: &Invocation) {
    *tally.entry(invocation.clone()).or_insert(0) += 1;
}

// ---------------------------------------------------------------------------
// Stage 1: ingest (well-formedness, windowing, quiescent cuts)
// ---------------------------------------------------------------------------

/// The per-event half of the monitor: well-formedness filtering, window
/// maintenance, quiescent-cut detection and stream fingerprinting.  Produces
/// [`SegmentBatch`]es for a [`MonitorCheck`] (see [`stages`]).
///
/// The hot path is allocation-free in the steady state and does the same
/// work per event whatever the number of objects: pending operations live in
/// one list of `(process, object)` pairs, as long as the stream's concurrency
/// and sized by no id the stream names, and the per-segment
/// completed-operation count is tallied as events arrive.  Which objects a segment names is the check
/// stage's business (only linearizability asks); that each lies inside the
/// universe is checked here, so no event reaches the check stage that it
/// could not look up.
pub struct MonitorIngest {
    /// Objects in the universe: an event naming `ObjectId(objects)` or above
    /// is rejected.
    objects: usize,
    min_segment_events: usize,
    segment_batch: usize,
    /// `t`-linearizability defers the first cut until the stream has passed
    /// this global index (0 in every other mode).
    cut_floor: usize,
    /// The open window: events since the last cut.
    window: Vec<Event>,
    /// Global index of the first window event.
    window_start: usize,
    /// One packed fingerprint word per window event.
    word_buf: Vec<u64>,
    /// Response events in the open window.
    window_completed: usize,
    /// Pending `(process, object)` pairs, one per open operation: a
    /// handful, so a linear scan beats hashing the process id.
    pending: Vec<(ProcessId, ObjectId)>,
    /// Closed segments awaiting [`MonitorIngest::take_batch`].
    closed: Vec<Segment>,
    /// Total events in `closed`.
    queued_events: usize,
    events: usize,
    peak_window_events: usize,
    /// Fingerprint folded over every closed segment so far.
    stream_fp: u64,
}

impl fmt::Debug for MonitorIngest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorIngest")
            .field("window", &self.window.len())
            .field("window_start", &self.window_start)
            .field("pending", &self.pending.len())
            .field("queued_segments", &self.closed.len())
            .field("events", &self.events)
            .finish()
    }
}

/// Longest window [`MonitorIngest::close_window`] pre-sizes its successor for.
const WINDOW_PRESIZE_MAX: usize = 256;

impl MonitorIngest {
    fn new(objects: usize, config: &MonitorConfig) -> Self {
        MonitorIngest {
            objects,
            min_segment_events: config.min_segment_events.max(1),
            segment_batch: config.segment_batch.max(1),
            cut_floor: match config.condition {
                MonitorCondition::TLinearizability { t } => t,
                _ => 0,
            },
            window: Vec::new(),
            window_start: 0,
            word_buf: Vec::new(),
            window_completed: 0,
            pending: Vec::new(),
            closed: Vec::new(),
            queued_events: 0,
            events: 0,
            peak_window_events: 0,
            stream_fp: 0,
        }
    }

    /// Ingests one event, closing the window at quiescent cut points.
    ///
    /// # Errors
    ///
    /// Returns a [`MonitorError`] if the event makes the stream ill-formed
    /// (the event is not ingested; the stage remains usable).
    pub fn ingest(&mut self, event: Event) -> Result<(), MonitorError> {
        let global_index = self.window_start + self.window.len();
        if event.object.0 >= self.objects {
            return Err(MonitorError::UnknownObject {
                object: event.object,
                global_index,
            });
        }
        let open = self.pending.iter().position(|(p, _)| *p == event.process);
        match (&event.kind, open) {
            (EventKind::Invoke(_), None) => self.pending.push((event.process, event.object)),
            (EventKind::Invoke(_), Some(_)) => {
                return Err(MonitorError::InvokeWhilePending {
                    process: event.process,
                    global_index,
                });
            }
            (EventKind::Respond(_), Some(i)) if self.pending[i].1 == event.object => {
                self.pending.swap_remove(i);
                self.window_completed += 1;
            }
            (EventKind::Respond(_), _) => {
                return Err(MonitorError::OrphanResponse {
                    process: event.process,
                    global_index,
                });
            }
        }
        self.word_buf.push(event_word(&event));
        self.window.push(event);
        self.events += 1;
        let resident = self.window.len() + self.queued_events;
        if resident > self.peak_window_events {
            self.peak_window_events = resident;
        }
        if self.pending.is_empty()
            && self.window.len() >= self.min_segment_events
            && self.window_start + self.window.len() >= self.cut_floor
        {
            self.close_window();
        }
        Ok(())
    }

    /// Takes the queued segments as a batch once at least
    /// [`MonitorConfig::segment_batch`] of them have closed; `None` below
    /// the threshold.  This is the pipelined analogue of the inline
    /// monitor's automatic pump.
    pub fn take_ready_batch(&mut self) -> Option<SegmentBatch> {
        if self.closed.len() >= self.segment_batch {
            self.take_batch()
        } else {
            None
        }
    }

    /// Takes whatever segments have closed so far as a batch (`None` when
    /// none have) — the pipelined analogue of [`Monitor::pump`].
    pub fn take_batch(&mut self) -> Option<SegmentBatch> {
        if self.closed.is_empty() {
            return None;
        }
        self.queued_events = 0;
        // As in `close_window`: the next batch gets this one's room up front.
        let room = Vec::with_capacity(self.closed.len());
        let segments = std::mem::replace(&mut self.closed, room);
        Some(SegmentBatch { segments })
    }

    /// Closes the stream: the remaining window becomes the final (possibly
    /// non-quiescent, possibly empty) tail segment of the returned batch,
    /// and the summary carries the ingest-side counters for
    /// [`MonitorCheck::finish`].
    pub fn finish(mut self) -> (SegmentBatch, IngestSummary) {
        let window = std::mem::take(&mut self.window);
        let tail = self.seal(window, true);
        let mut segments = std::mem::take(&mut self.closed);
        segments.push(tail);
        let summary = IngestSummary {
            events: self.events,
            peak_window_events: self.peak_window_events,
            stream_fingerprint: self.stream_fp,
        };
        (SegmentBatch { segments }, summary)
    }

    fn close_window(&mut self) {
        // The next window starts with room for as many events as this one
        // held, so a steady stream of short segments allocates once per
        // segment, not once per doubling.  Past the bound growth by doubling
        // costs next to nothing per event, and a quarter-megabyte vector
        // taken in one piece per 4096-event segment measured slower.
        let room = Vec::with_capacity(self.window.len().min(WINDOW_PRESIZE_MAX));
        let events = std::mem::replace(&mut self.window, room);
        self.queued_events += events.len();
        let segment = self.seal(events, false);
        self.closed.push(segment);
    }

    /// Seals `events`, the window just taken, into a segment, folding its
    /// words into the stream fingerprint.
    fn seal(&mut self, events: Vec<Event>, is_tail: bool) -> Segment {
        let start = self.window_start;
        self.window_start = start + events.len();
        self.stream_fp = fold_words(self.stream_fp, &self.word_buf);
        self.word_buf.clear();
        Segment {
            start,
            history: History::from_events(events),
            completed: std::mem::take(&mut self.window_completed),
            key: self.stream_fp,
            is_tail,
        }
    }
}

// ---------------------------------------------------------------------------
// Stage 2: check (frontier threading, kernel searches)
// ---------------------------------------------------------------------------

/// The per-segment half of the monitor: consumes [`SegmentBatch`]es in FIFO
/// order, threads frontiers across segments and renders verdicts.  See
/// [`stages`].
pub struct MonitorCheck {
    /// What every condition shares.
    cx: CheckContext,
    /// The condition's own state, lent to its drain beside `cx`.
    mode: ModeState,
}

/// The check stage's machinery that every condition shares.
struct CheckContext {
    universe: ObjectUniverse,
    limits: SearchLimits,
    violation: Option<MonitorViolation>,
    /// Some search was cut off; a subsequent "no" cannot be trusted.
    incomplete: bool,
    /// `events`, `peak_window_events` and `stream_fingerprint` belong to the
    /// ingest stage and are merged in at [`MonitorCheck::finish`] (or by
    /// [`Monitor::stats`]); everything else is authored here.
    stats: MonitorStats,
    /// The pooled fast-path buffers: the `fi` check of a projection allocates
    /// nothing once the widest one has been seen.
    fi_scratch: FiScratch,
    /// The pooled per-batch tables of [`CheckContext::drain_lin`] (see
    /// [`Grouping`]) and the kernel path's per-link ones: no batch, chain or
    /// link allocates once the widest has been seen.
    grouping: Grouping,
    /// The operations of the link being checked (positions in the link).
    matcher: OperationMatcher,
    /// The pooled tables of the small-link walk.
    walk: WalkScratch,
    /// The states the link being checked leaves behind.
    outgoing: Vec<Value>,
    /// The `(state, unplaced floaters)` entries a link with floaters leaves
    /// behind.
    rows: Vec<(Value, Vec<Invocation>)>,
    /// The floaters of the link being checked, as problem indices: its
    /// demoted operations, then the carried ones.
    tracked: Vec<usize>,
    /// The pooled kernel scratch every search of this stage runs in.  A
    /// scratch is reset per search and [`SearchStats`] are a function of the
    /// search alone, so one serves every object and every condition; its
    /// visited cache and arenas are reused across segments and batches — the
    /// per-segment memory high-water mark stays flat as the stream grows
    /// (asserted by the `arena_reuse_keeps_peak_bytes_flat` test).
    scratch: KernelScratch,
}

impl fmt::Debug for MonitorCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorCheck")
            .field("stats", &self.cx.stats)
            .field("violation", &self.cx.violation)
            .finish()
    }
}

impl MonitorCheck {
    fn new(universe: ObjectUniverse, config: &MonitorConfig) -> Self {
        let lin = |t| ModeState::Lin {
            t,
            frontiers: BTreeMap::new(),
        };
        let mode = match config.condition {
            MonitorCondition::Linearizability => lin(0),
            MonitorCondition::TLinearizability { t } => lin(t),
            MonitorCondition::WeakConsistency => ModeState::Weak(WeakCounters::default()),
            MonitorCondition::StabilizesEventually => ModeState::Stab {
                completed: BTreeMap::new(),
            },
        };
        let cx = CheckContext {
            grouping: Grouping {
                slots: vec![NO_SLOT; universe.len()],
                ..Grouping::default()
            },
            matcher: OperationMatcher::default(),
            walk: WalkScratch::default(),
            outgoing: Vec::new(),
            rows: Vec::new(),
            tracked: Vec::new(),
            universe,
            limits: config.limits,
            violation: None,
            incomplete: false,
            stats: MonitorStats::default(),
            fi_scratch: FiScratch::default(),
            scratch: KernelScratch::new(),
        };
        MonitorCheck { cx, mode }
    }

    /// The verdict over everything checked so far.
    pub fn verdict_so_far(&self) -> MonitorVerdict {
        match &self.cx.violation {
            Some(v) => MonitorVerdict::Violation(v.clone()),
            None if self.cx.incomplete => MonitorVerdict::Unknown,
            None => MonitorVerdict::Ok,
        }
    }

    /// Checks one (non-final) batch of closed segments and reclaims their
    /// memory.  Batches must arrive in the order the ingest stage produced
    /// them; after a violation, further batches are discarded unchecked.
    pub fn check_batch(&mut self, batch: SegmentBatch) {
        debug_assert!(
            batch.segments.iter().all(|s| !s.is_tail),
            "final batches go through finish()"
        );
        self.drain_batch(&batch.segments);
    }

    /// Consumes the final batch from [`MonitorIngest::finish`] and renders
    /// the report.  The verdict equals the corresponding offline checker's
    /// verdict on the concatenation of every ingested event.
    pub fn finish(mut self, tail: SegmentBatch, summary: IngestSummary) -> MonitorReport {
        debug_assert!(
            tail.segments.last().is_some_and(|s| s.is_tail),
            "finish() requires the ingest stage's final batch"
        );
        self.drain_batch(&tail.segments);
        let mut stats = self.cx.stats;
        stats.events = summary.events;
        stats.peak_window_events = summary.peak_window_events;
        stats.stream_fingerprint = summary.stream_fingerprint;
        MonitorReport {
            verdict: self.verdict_so_far(),
            stats,
        }
    }

    /// Hands one batch to the condition's drain, lending it the condition's
    /// state.
    fn drain_batch(&mut self, segments: &[Segment]) {
        let cx = &mut self.cx;
        if cx.violation.is_some() {
            return;
        }
        let nonempty = segments.iter().filter(|s| !s.history.is_empty()).count();
        if nonempty == 0 && !segments.last().is_some_and(|s| s.is_tail) {
            return;
        }
        cx.stats.segments += nonempty;
        match &mut self.mode {
            ModeState::Lin { t, frontiers } => cx.drain_lin(*t, frontiers, segments),
            ModeState::Weak(counters) => cx.drain_weak(counters, segments),
            ModeState::Stab { completed } => cx.drain_stab(completed, segments),
        }
    }
}

impl CheckContext {
    // -- linearizability and t-linearizability -----------------------------

    /// Checks a batch of segments under Definition 2 with a fixed `t` (0 for
    /// linearizability): per-object frontier threading, one object's chain
    /// after the other, with the fetch&increment fast path and the
    /// small-link walk per projection.
    fn drain_lin(
        &mut self,
        t: usize,
        frontiers: &mut BTreeMap<ObjectId, Frontier>,
        segments: &[Segment],
    ) {
        // One grouping pass per segment, then the links ordered by object
        // and segment: each object's chain is a run of the ordered list, and
        // the runs come in ascending object order.
        let mut grouping = std::mem::take(&mut self.grouping);
        grouping.positions.clear();
        grouping.links.clear();
        for (index, segment) in segments.iter().enumerate() {
            grouping.add_segment(index, segment.history.events());
        }
        // An object whose chain may owe floaters at the end of the stream
        // (it owes some already, or has events in the forgiven prefix)
        // places them there: in its tail link, or in an empty one.
        let last = segments.len().checked_sub(1);
        if let Some(tail) = last.filter(|&last| segments[last].is_tail) {
            let links = &grouping.links;
            let forgiving = links.iter().filter(|l| segments[l.segment].start < t);
            let carrying = frontiers.iter().filter(|(_, f)| !f.unplaced.is_empty());
            let carrying = carrying.map(|(&object, _)| object);
            let mut owing: Vec<_> = forgiving.map(|l| l.object).chain(carrying).collect();
            owing.sort_unstable();
            owing.dedup();
            let in_tail = links.iter().rev().take_while(|l| l.segment == tail);
            owing.retain(|&object| !in_tail.clone().any(|l| l.object == object));
            let end = Some((grouping.positions.len(), grouping.positions.len()));
            grouping.links.extend(owing.into_iter().map(|object| Link {
                object,
                segment: tail,
                positions: end,
            }));
        }
        grouping.order_chains();
        // Every chain runs to its end, whatever the others found (the
        // counters absorb them all); the earliest violating segment wins,
        // then the least object.
        let mut best: Option<(usize, ObjectId, String)> = None;
        let mut start = 0;
        for &(object, end) in &grouping.runs {
            let chain = &grouping.ordered[start..end];
            start = end;
            let frontier = frontiers.entry(object).or_insert_with(|| Frontier {
                states: vec![self.universe.initial_state(object).clone()],
                unplaced: Vec::new(),
            });
            let violation =
                self.chase_object_chain(t, object, frontier, segments, chain, &grouping.positions);
            if let Some((segment_index, detail)) = violation {
                if best.as_ref().is_none_or(|(s, _, _)| segment_index < *s) {
                    best = Some((segment_index, object, detail));
                }
            }
        }
        self.grouping = grouping;
        if let Some((segment_index, object, detail)) = best {
            if self.incomplete {
                // The refutation may have relied on a truncated frontier.
                return;
            }
            // Segments before the violating one were verified.
            for segment in &segments[..segment_index] {
                self.stats.checked_ops += segment.completed;
            }
            let segment = &segments[segment_index];
            self.violation = Some(MonitorViolation {
                segment_start: segment.start,
                segment_len: segment.history.len(),
                object: Some(object),
                op: None,
                detail,
            });
            return;
        }
        for segment in segments {
            self.stats.checked_ops += segment.completed;
        }
    }

    /// Threads one object's frontier — its entry of the mode's map, updated
    /// in place — through its links of a segment batch, folding the
    /// searches' counters into the stage's.  If a link has no linearization
    /// from any frontier entry, the frontier stays where that link found it
    /// and `(index into the segment batch, detail)` is returned.
    fn chase_object_chain(
        &mut self,
        t: usize,
        object: ObjectId,
        frontier: &mut Frontier,
        segments: &[Segment],
        links: &[Link],
        positions: &[u32],
    ) -> Option<(usize, String)> {
        let (universe, limits) = (&self.universe, self.limits);
        let spec: &dyn ObjectType = &**universe.object_type(object);
        let fast_eligible = (spec as &dyn Any).is::<FetchIncrement>();
        let (outgoing, rows, tracked) = (&mut self.outgoing, &mut self.rows, &mut self.tracked);
        for link in links {
            let segment = &segments[link.segment];
            let events = segment.history.events();
            // The link's events, read in place: the `k`-th is the segment's
            // `picked[k]`-th, or its `k`-th when the link is the segment.
            let picked = link.positions.map(|(start, end)| &positions[start..end]);
            let len = picked.map_or(events.len(), <[u32]>::len);
            let event = |k: usize| &events[picked.map_or(k, |picked| picked[k] as usize)];
            let final_segment = segment.is_tail;
            // The link's share of the forgiven prefix: its events before
            // global index `t`.  Only a first segment has any, as the ingest
            // stage cuts no earlier than `t`.
            let link_t = match picked {
                Some(picked) => picked.partition_point(|&k| segment.start + (k as usize) < t),
                None => t.saturating_sub(segment.start).min(len),
            };
            // Forgiven operations ("floaters") may be linearized in any later
            // link of the object; a link that has or carries any takes the
            // kernel path.
            let floats = link_t > 0 || !frontier.unplaced.is_empty();
            if len == 0 && !floats {
                break; // an empty tail link, and nothing left to place
            }
            let states = &frontier.states;
            // Fast path: a `FetchIncrement` object's projection from an
            // integer state has a unique outgoing state (initial + operation
            // count), so the linear-time specialized checker replaces the
            // kernel search.
            let fast = !floats
                && fast_eligible
                && fi_step(
                    (0..len).map(event),
                    states,
                    final_segment,
                    &mut self.fi_scratch,
                    outgoing,
                );
            if fast {
                self.stats.fast_path_segments += 1;
                if outgoing.is_empty() {
                    let detail = format!(
                        "{object}: fetch&increment projection is not linearizable \
                         from any frontier state"
                    );
                    return Some((link.segment, detail));
                }
                // Copied, not swapped, here and below: each frontier keeps
                // a buffer of its own width and `outgoing` one of the
                // widest link's, so a warm link allocates nothing.
                frontier.states.clone_from(outgoing);
                continue;
            }
            outgoing.clear();
            // A mid-stream link of a few complete operations has only their
            // real-time order to choose: it is walked over the spec from
            // each frontier state, counted as the kernel's search; a lone
            // invocation and its response need none of the walk's tables.
            let kinds = (len == 2).then(|| (&event(0).kind, &event(1).kind));
            let walked = match kinds {
                _ if floats || final_segment => None,
                Some((EventKind::Invoke(call), EventKind::Respond(answer))) => {
                    Some(walk_one(spec, limits, (call, answer), states, outgoing))
                }
                _ => Walk::new(spec, limits, len, event, &mut self.matcher, &mut self.walk).map(
                    |mut walk| {
                        states.iter().for_each(|state| walk.from(state, outgoing));
                        (walk.stats, walk.complete)
                    },
                ),
            };
            let mut any_yes = false;
            if let Some((stats, complete)) = walked {
                self.stats.search.absorb(stats);
                self.incomplete |= !complete;
                any_yes = !outgoing.is_empty();
            } else {
                // Kernel path: Definition 2 with the link's share of the
                // forgiven prefix over the link's operations, lent to the
                // kernel as views; one search per frontier entry, rooted at
                // its state and carrying its floaters.
                let ops = self.matcher.match_events((0..len).map(event));
                let stated = EventProblem {
                    t: link_t,
                    events,
                    picked,
                    ops,
                };
                // The link's own floaters are optional but tracked, unless
                // this is the tail (nothing to defer to).
                tracked.clear();
                if !final_segment {
                    let forgiven = |&i: &usize| ops[i].1.is_some_and(|r| r < link_t);
                    tracked.extend((0..ops.len()).filter(forgiven));
                }
                let demoted = tracked.len();
                rows.clear();
                for (entry, state) in states.iter().enumerate() {
                    let carried = frontier.unplaced.get(entry).map_or(&[][..], Vec::as_slice);
                    tracked.truncate(demoted);
                    tracked.extend(ops.len()..ops.len() + carried.len());
                    let problem = Floating {
                        stated,
                        demoted: &tracked[..demoted],
                        object,
                        carried,
                        // Carried floaters must be placed by the tail; before
                        // it they may keep floating.
                        carried_required: final_segment,
                    };
                    let roots = [(object, state)];
                    if final_segment {
                        // Nothing consumes the outgoing frontier: a plain
                        // witness search decides the tail (pending
                        // operations included).
                        let (result, stats) = kernel::solve_rooted(
                            &problem,
                            &roots,
                            universe,
                            limits,
                            &mut self.scratch,
                        );
                        self.stats.search.absorb(stats);
                        match result {
                            SearchResult::Yes(_) => {
                                any_yes = true;
                                break;
                            }
                            SearchResult::Unknown => self.incomplete = true,
                            SearchResult::No => {}
                        }
                    } else {
                        let each = |row: kernel::FrontierRow<'_>| {
                            any_yes = true;
                            let reached = row.states().find(|(o, _)| *o == object);
                            let next = reached.map_or(state, |(_, v)| v).clone();
                            if !floats {
                                return outgoing.push(next);
                            }
                            let placed = tracked.iter().zip(row.placed());
                            let unplaced = placed.filter(|(_, placed)| !placed);
                            let mut unplaced: Vec<Invocation> = unplaced
                                .map(|(&i, _)| problem.op(i).invocation.clone())
                                .collect();
                            unplaced.sort_unstable();
                            rows.push((next, unplaced));
                        };
                        let (complete, stats) = kernel::visit_frontiers(
                            &problem,
                            &roots,
                            universe,
                            limits,
                            tracked,
                            &mut self.scratch,
                            each,
                        );
                        self.stats.search.absorb(stats);
                        if !complete {
                            self.incomplete = true;
                        }
                    }
                }
            }
            if !any_yes {
                let detail =
                    format!("{object}: segment has no linearization from any frontier state");
                return Some((link.segment, detail));
            }
            if final_segment {
                break;
            }
            // Ascending and distinct: the order the next link's searches
            // (and so the counters) run in.
            let entries = if floats {
                rows.sort_unstable();
                rows.dedup();
                rows.len()
            } else {
                outgoing.sort_unstable();
                outgoing.dedup();
                outgoing.len()
            };
            if entries > MAX_FRONTIERS {
                self.incomplete = true;
                return None;
            }
            if floats {
                // Floaters stay listed while some entry still owes one.
                let owed = rows.iter().any(|(_, unplaced)| !unplaced.is_empty());
                frontier.unplaced.clear();
                for (state, unplaced) in rows.drain(..) {
                    outgoing.push(state);
                    if owed {
                        frontier.unplaced.push(unplaced);
                    }
                }
            }
            frontier.states.clone_from(outgoing);
        }
        None
    }

    // -- weak consistency --------------------------------------------------

    /// Checks a batch of segments under weak consistency: replay the events
    /// against the invocation counters and solve one search problem per
    /// completed operation, as its response is replayed.
    fn drain_weak(&mut self, counters: &mut WeakCounters, segments: &[Segment]) {
        let WeakCounters {
            invoked,
            preds,
            next_op,
        } = counters;
        // The least violating operation and the index of its segment.
        let mut first: Option<(OpId, usize)> = None;
        for (segment_index, segment) in segments.iter().enumerate() {
            let base = *next_op;
            replay_operations(segment, |event, invocation, response| {
                let (object, process) = (event.object, event.process);
                let Some((value, ordinal)) = response else {
                    *next_op += 1;
                    return bump(invoked.entry(object).or_default(), invocation);
                };
                let problem = weak_problem(
                    invoked.get(&object),
                    preds.get(&(process, object)),
                    object,
                    invocation,
                    value,
                );
                let (result, stats) = kernel::solve_rooted(
                    &problem,
                    &[],
                    &self.universe,
                    self.limits,
                    &mut self.scratch,
                );
                self.stats.checked_ops += 1;
                self.stats.search.absorb(stats);
                let id = OpId(base + ordinal);
                match result {
                    SearchResult::Yes(_) => {}
                    SearchResult::Unknown => self.incomplete = true,
                    SearchResult::No if first.is_none_or(|(op, _)| id < op) => {
                        first = Some((id, segment_index));
                    }
                    SearchResult::No => {}
                }
                bump(preds.entry((process, object)).or_default(), invocation);
            });
        }
        if let Some((op, segment_index)) = first {
            let segment = &segments[segment_index];
            self.violation = Some(MonitorViolation {
                segment_start: segment.start,
                segment_len: segment.history.len(),
                object: None,
                op: Some(op),
                detail: format!("{op} has no Definition-1 justification"),
            });
        }
    }

    // -- eventual stabilization (liveness half) ----------------------------

    /// Accumulates the invocation multisets of completed operations and, at
    /// the stream's tail, decides "stabilizes eventually": with every
    /// response and the whole real-time order forgiven, is there a legal
    /// arrangement of all completed operations (plus any subset of the
    /// pending ones)?  There are no cross-object constraints, so the objects
    /// are decided independently, in ascending order.
    fn drain_stab(&mut self, completed: &mut BTreeMap<ObjectId, Tally>, segments: &[Segment]) {
        let mut open = BTreeMap::new();
        for segment in segments {
            open = replay_operations(segment, |event, invocation, response| {
                if response.is_some() {
                    bump(completed.entry(event.object).or_default(), invocation);
                    self.stats.checked_ops += 1;
                }
            });
        }
        let Some(tail) = segments.last().filter(|s| s.is_tail) else {
            return;
        };
        // Every operation pending at the end of the stream was invoked after
        // the last cut, so the tail left all of them open; the witness may
        // complete any.  Sorted, an object's come together, equal
        // invocations side by side.
        let mut pending: Vec<_> = open.into_values().collect();
        pending.sort();
        let mut objects: BTreeSet<ObjectId> = completed.keys().copied().collect();
        objects.extend(pending.iter().map(|(object, _, _)| *object));
        for object in objects {
            let mut problem = Counted::default();
            for (invocation, &count) in completed.get(&object).into_iter().flatten() {
                problem.push(object, invocation, count, true);
            }
            for (_, invocation, _) in pending.iter().filter(|(o, _, _)| *o == object) {
                problem.push(object, invocation, 1, false);
            }
            let (result, stats) = kernel::solve_rooted(
                &problem,
                &[],
                &self.universe,
                self.limits,
                &mut self.scratch,
            );
            self.stats.search.absorb(stats);
            match result {
                SearchResult::Yes(_) => {}
                SearchResult::Unknown => self.incomplete = true,
                SearchResult::No => {
                    if self.violation.is_none() {
                        self.violation = Some(MonitorViolation {
                            segment_start: 0,
                            // The tail ends where the stream does.
                            segment_len: tail.start + tail.history.len(),
                            object: Some(object),
                            op: None,
                            detail: format!(
                                "no legal arrangement of the completed operations on {object} \
                                 exists even with all responses forgiven"
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Replays a segment's invoke/respond pairs, the one loop of the summarized
/// conditions: `each(event, invocation, None)` per invocation and
/// `each(event, invocation, Some((response, ordinal)))` per response, where
/// `ordinal` numbers the operation among the segment's invocations.  Returns
/// the operations left open, `(object, invocation, ordinal)` by process.
fn replay_operations<'s>(
    segment: &'s Segment,
    mut each: impl FnMut(&'s Event, &Invocation, Option<(&'s Value, usize)>),
) -> BTreeMap<ProcessId, (ObjectId, Invocation, usize)> {
    let (mut open, mut next) = (BTreeMap::new(), 0);
    for event in segment.history.events() {
        match &event.kind {
            EventKind::Invoke(invocation) => {
                open.insert(event.process, (event.object, invocation.clone(), next));
                next += 1;
                each(event, invocation, None);
            }
            EventKind::Respond(value) => {
                // Well-formedness was enforced at ingest.
                if let Some((_, invocation, ordinal)) = open.remove(&event.process) {
                    each(event, &invocation, Some((value, ordinal)));
                }
            }
        }
    }
    open
}

/// Builds the two pipeline stages of a monitor over `universe`: the
/// per-event [`MonitorIngest`] and the per-segment [`MonitorCheck`].  The
/// pair is exactly a [`Monitor`] taken apart — feeding every batch from one
/// into the other in FIFO order reproduces the inline monitor's verdict and
/// counters bit for bit, but the two halves may now run on different
/// threads.
pub fn stages(universe: ObjectUniverse, config: MonitorConfig) -> (MonitorIngest, MonitorCheck) {
    (
        MonitorIngest::new(universe.len(), &config),
        MonitorCheck::new(universe, &config),
    )
}

// ---------------------------------------------------------------------------
// The glued-together monitor
// ---------------------------------------------------------------------------

/// The streaming online consistency monitor: a [`MonitorIngest`] and a
/// [`MonitorCheck`] glued together behind a single-threaded API.  See the
/// module documentation for the segmentation argument and the per-condition
/// strategies, and [`stages`] for the pipelined two-thread form.
pub struct Monitor {
    ingest: MonitorIngest,
    check: MonitorCheck,
}

impl fmt::Debug for Monitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Monitor")
            .field("ingest", &self.ingest)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Monitor {
    /// Creates a monitor over `universe` with the given configuration.
    pub fn new(universe: ObjectUniverse, config: MonitorConfig) -> Self {
        let (ingest, check) = stages(universe, config);
        Monitor { ingest, check }
    }

    /// Counters so far (ingest- and check-side merged).
    pub fn stats(&self) -> MonitorStats {
        let mut stats = self.check.cx.stats;
        stats.events = self.ingest.events;
        stats.peak_window_events = self.ingest.peak_window_events;
        stats.stream_fingerprint = self.ingest.stream_fp;
        stats
    }

    /// The verdict over everything *checked* so far (closed segments only;
    /// call [`Monitor::finish`] for the verdict over the whole stream).
    pub fn verdict_so_far(&self) -> MonitorVerdict {
        self.check.verdict_so_far()
    }

    /// Ingests an invocation event.
    ///
    /// # Errors
    ///
    /// Returns a [`MonitorError`] if the event makes the stream ill-formed.
    pub fn invoke(
        &mut self,
        process: ProcessId,
        object: ObjectId,
        invocation: Invocation,
    ) -> Result<(), MonitorError> {
        self.ingest(Event::invoke(process, object, invocation))
    }

    /// Ingests a response event.
    ///
    /// # Errors
    ///
    /// Returns a [`MonitorError`] if the event makes the stream ill-formed.
    pub fn respond(
        &mut self,
        process: ProcessId,
        object: ObjectId,
        value: Value,
    ) -> Result<(), MonitorError> {
        self.ingest(Event::respond(process, object, value))
    }

    /// Ingests one event.  Closed segments are checked (and their memory
    /// reclaimed) automatically every [`MonitorConfig::segment_batch`] cuts;
    /// call [`Monitor::pump`] to force a check earlier.
    ///
    /// # Errors
    ///
    /// Returns a [`MonitorError`] if the event makes the stream ill-formed
    /// (the event is not ingested; the monitor remains usable).
    pub fn ingest(&mut self, event: Event) -> Result<(), MonitorError> {
        self.ingest.ingest(event)?;
        if let Some(batch) = self.ingest.take_ready_batch() {
            self.check.check_batch(batch);
        }
        Ok(())
    }

    /// Ingests a batch of events (stopping at the first error).
    ///
    /// # Errors
    ///
    /// Returns the first [`MonitorError`] encountered, if any.
    pub fn ingest_all<I: IntoIterator<Item = Event>>(
        &mut self,
        events: I,
    ) -> Result<(), MonitorError> {
        for event in events {
            self.ingest(event)?;
        }
        Ok(())
    }

    /// Checks every closed segment queued so far and reclaims its memory.
    /// Returns the verdict over everything checked.
    pub fn pump(&mut self) -> MonitorVerdict {
        if let Some(batch) = self.ingest.take_batch() {
            self.check.check_batch(batch);
        }
        self.check.verdict_so_far()
    }

    /// Closes the remaining tail (which may contain pending operations),
    /// checks everything still queued and returns the final report.
    ///
    /// The verdict equals the corresponding offline checker's verdict on the
    /// concatenation of every ingested event.
    pub fn finish(self) -> MonitorReport {
        let (tail, summary) = self.ingest.finish();
        self.check.finish(tail, summary)
    }
}

// ---------------------------------------------------------------------------
// Per-object linearizability chains
// ---------------------------------------------------------------------------

/// One object's share of one segment of a batch.
#[derive(Clone, Copy)]
struct Link {
    object: ObjectId,
    /// Index of the segment in the batch.
    segment: usize,
    /// The range of [`Grouping::positions`] holding the ascending positions
    /// of the object's events in the segment; `None` when every event of the
    /// segment names the object, so the segment is the projection.
    positions: Option<(usize, usize)>,
}

/// A batch's event positions grouped by (segment, object): the tables of
/// [`CheckContext::drain_lin`], pooled across batches.
#[derive(Default)]
struct Grouping {
    /// One slot per object of the universe, all [`NO_SLOT`] between segments.
    slots: Vec<u32>,
    /// `(object, end of its run in positions)` per distinct object of the
    /// segment being added, in order of first appearance; once the batch is
    /// grouped, `(object, end of its chain in ordered)` per distinct object
    /// of the batch, ascending.
    runs: Vec<(ObjectId, usize)>,
    /// The positions of every multi-object segment's events, reordered so
    /// that each object's are contiguous and ascending.
    positions: Vec<u32>,
    /// One link per object of every segment, by ascending segment.
    links: Vec<Link>,
    /// The links by object, then segment: the objects' chains.
    ordered: Vec<Link>,
}

/// [`Grouping::slots`] entry of an object not seen in the segment being
/// grouped.
const NO_SLOT: u32 = u32::MAX;

impl Grouping {
    /// Groups the positions of `events`, segment number `segment` of the
    /// batch, by object with one counting sort, and appends one link per
    /// object.
    fn add_segment(&mut self, segment: usize, events: &[Event]) {
        assert!(
            u32::try_from(events.len()).is_ok(),
            "a segment holds fewer than 2^32 events"
        );
        let Some(first) = events.first() else {
            return;
        };
        if events.iter().all(|e| e.object == first.object) {
            self.links.push(Link {
                object: first.object,
                segment,
                positions: None,
            });
            return;
        }
        // Count per object...
        self.runs.clear();
        for event in events {
            let slot = &mut self.slots[event.object.0];
            if *slot == NO_SLOT {
                *slot = self.runs.len() as u32;
                self.runs.push((event.object, 0));
            }
            self.runs[*slot as usize].1 += 1;
        }
        // ...turn the counts into each run's start...
        let mut start = self.positions.len();
        let mut next = start;
        for (_, count) in &mut self.runs {
            next += std::mem::replace(count, next);
        }
        // ...and place: every placement advances its run's cursor, so the
        // starts end up as the ends.
        self.positions.resize(next, 0);
        for (position, event) in events.iter().enumerate() {
            let cursor = &mut self.runs[self.slots[event.object.0] as usize].1;
            self.positions[*cursor] = position as u32;
            *cursor += 1;
        }
        for &(object, end) in &self.runs {
            self.slots[object.0] = NO_SLOT;
            self.links.push(Link {
                object,
                segment,
                positions: Some((start, end)),
            });
            start = end;
        }
    }

    /// Orders the links into the objects' chains with one stable counting
    /// pass: links are added by ascending segment, so each object's bucket
    /// keeps its segment order, and only the batch's distinct objects are
    /// sorted.  Leaves each chain's end in [`Grouping::runs`].
    fn order_chains(&mut self) {
        self.runs.clear();
        for link in &self.links {
            let slot = &mut self.slots[link.object.0];
            if *slot == NO_SLOT {
                *slot = self.runs.len() as u32;
                self.runs.push((link.object, 0));
            }
            self.runs[*slot as usize].1 += 1;
        }
        self.runs.sort_unstable_by_key(|&(object, _)| object);
        let mut next = 0;
        for (slot, (object, count)) in self.runs.iter_mut().enumerate() {
            self.slots[object.0] = slot as u32;
            next += std::mem::replace(count, next);
        }
        self.ordered.clone_from(&self.links);
        for link in &self.links {
            let cursor = &mut self.runs[self.slots[link.object.0] as usize].1;
            self.ordered[*cursor] = *link;
            *cursor += 1;
        }
        for &(object, _) in &self.runs {
            self.slots[object.0] = NO_SLOT;
        }
    }
}

/// The most operations a mid-stream link may hold to be walked ([`Walk`])
/// rather than searched (ROADMAP, *Settled by measurement*).
const SMALL_LINK_OPS: usize = 4;

/// The pooled tables of [`Walk`]: per link, its distinct states (a state's
/// id is its index), its memo of the spec's transitions as `(invocation id,
/// state id, span)` and the spans' `(operations answered, next state id)`;
/// per frontier state, the visited `(taken mask, state id)` pairs as words;
/// per memo miss, the `(operations answered, next state)` pairs the spec
/// handed over, before they are interned.
#[derive(Default)]
struct WalkScratch {
    states: Vec<Value>,
    expanded: Vec<(u8, u32, (u32, u32))>,
    transitions: Vec<(u8, u32)>,
    visited: Vec<u64>,
    fresh: Vec<(u8, Value)>,
}

/// The kernel's exhaustive frontier search ([`kernel::visit_frontiers`]) of
/// a mid-stream link of at most [`SMALL_LINK_OPS`] complete operations,
/// without its set-up.  Depth first, it takes operations by ascending index,
/// transitions in the spec's order, and only the first untaken member of an
/// interchangeability class (equal invocation and response; alone if a
/// real-time edge touches it) whose predecessors are taken: the taken mask
/// stands for the kernel's class counts, and nodes, memo hits and budget
/// count as the kernel's.  A link of one operation is walked by
/// [`walk_one`] instead, without these tables.
struct Walk<'a> {
    spec: &'a dyn ObjectType,
    /// The budget per frontier state, and the node count past it.
    max_nodes: usize,
    budget: usize,
    n: usize,
    /// Per operation: its invocation and its recorded response.
    invocations: [&'a Invocation; SMALL_LINK_OPS],
    responses: [&'a Value; SMALL_LINK_OPS],
    /// Per operation: its invocation's id (the least operation making it),
    /// its real-time predecessors and the lesser members of its class.
    inv: [u8; SMALL_LINK_OPS],
    preds: [u8; SMALL_LINK_OPS],
    peers: [u8; SMALL_LINK_OPS],
    stats: SearchStats,
    complete: bool,
    s: &'a mut WalkScratch,
}

impl<'a> Walk<'a> {
    /// Reads the operations of the link's `len` events, the `k`-th being
    /// `event(k)`; `None` unless they are one to [`SMALL_LINK_OPS`] complete
    /// operations (no more fit in `2 * SMALL_LINK_OPS` events).
    fn new(
        spec: &'a dyn ObjectType,
        limits: SearchLimits,
        len: usize,
        event: impl Fn(usize) -> &'a Event,
        matcher: &mut OperationMatcher,
        s: &'a mut WalkScratch,
    ) -> Option<Self> {
        if len > 2 * SMALL_LINK_OPS {
            return None;
        }
        let ops = matcher.match_events((0..len).map(&event));
        let n = ops.len();
        let operation = |&(invoke, respond): &(usize, Option<usize>)| match (
            &event(invoke).kind,
            &event(respond?).kind,
        ) {
            (EventKind::Invoke(call), EventKind::Respond(value)) => Some((call, value)),
            _ => None,
        };
        let (call, value) = operation(ops.first()?)?;
        let mut walk = Walk {
            spec,
            max_nodes: limits.max_nodes,
            n,
            invocations: [call; SMALL_LINK_OPS],
            responses: [value; SMALL_LINK_OPS],
            inv: [0; SMALL_LINK_OPS],
            preds: [0; SMALL_LINK_OPS],
            peers: [0; SMALL_LINK_OPS],
            budget: 0,
            stats: SearchStats::default(),
            complete: true,
            s,
        };
        let edge = |j: usize, i: usize| ops[j].1 < Some(ops[i].0);
        for (i, op) in ops.iter().enumerate() {
            (walk.invocations[i], walk.responses[i]) = operation(op)?;
            walk.preds[i] = (0..i).filter(|&j| edge(j, i)).fold(0, |m, j| m | 1 << j);
        }
        let alone = |i: usize| (0..n).any(|j| edge(j, i) || edge(i, j));
        for i in 0..n {
            let same_call = |j: &usize| walk.invocations[*j] == walk.invocations[i];
            walk.inv[i] = (0..i).find(same_call).unwrap_or(i) as u8;
            let same =
                |j: &usize| walk.inv[*j] == walk.inv[i] && walk.responses[*j] == walk.responses[i];
            let peers = (0..i).filter(|&j| !alone(i) && !alone(j) && same(&j));
            walk.peers[i] = peers.fold(0, |m, j| m | 1 << j);
        }
        walk.s.states.clear();
        walk.s.expanded.clear();
        walk.s.transitions.clear();
        Some(walk)
    }

    /// Walks the link from `root`, appending the states it accepts in to
    /// `outgoing`.
    fn from(&mut self, root: &Value, outgoing: &mut Vec<Value>) {
        self.budget = self.stats.nodes.saturating_add(self.max_nodes);
        self.stats.nodes += 1;
        self.s.visited.clear();
        let root = intern(&mut self.s.states, root.clone());
        self.visit(0, root, outgoing);
    }

    /// Expands the node that has taken `taken` and reached state `state`.
    fn visit(&mut self, taken: u8, state: u32, outgoing: &mut Vec<Value>) {
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
                if self.stats.nodes > self.budget {
                    self.complete = false;
                    continue;
                }
                let (child, key) = (taken | bit, u64::from(next) << 8 | u64::from(taken | bit));
                if self.s.visited.contains(&key) {
                    self.stats.memo_hits += 1;
                    continue;
                }
                self.s.visited.push(key);
                if child == all {
                    outgoing.push(self.s.states[next as usize].clone());
                } else {
                    self.visit(child, next, outgoing);
                }
            }
        }
    }

    /// The span of invocation `inv`'s transitions from state `state`, asked
    /// of the spec once per link.
    fn expand(&mut self, inv: u8, state: u32) -> (u32, u32) {
        let memo = self.s.expanded.iter().find(|e| (e.0, e.1) == (inv, state));
        if let Some(&(_, _, span)) = memo {
            return span;
        }
        let (n, ids, responses) = (self.n, &self.inv, &self.responses);
        let s = &mut *self.s;
        let fresh = &mut s.fresh;
        let source = &s.states[state as usize];
        spec_transitions(
            self.spec,
            source,
            self.invocations[inv as usize],
            &mut |response, next| {
                let mut answers = 0;
                for j in (0..n).filter(|&j| ids[j] == inv) {
                    answers |= u8::from(*responses[j] == response) << j;
                }
                fresh.push((answers, next));
            },
        );
        let start = s.transitions.len() as u32;
        for (answers, next) in s.fresh.drain(..) {
            s.transitions.push((answers, intern(&mut s.states, next)));
        }
        let span = (start, s.transitions.len() as u32);
        s.expanded.push((inv, state, span));
        span
    }
}

/// Walks a link of one operation, `invocation` answered `response`, from
/// each of `roots`, appending the states it accepts to `outgoing`: the
/// walk's search without its tables, since every node below a root
/// accepts, and so the visited pairs are the states reached from that root.
/// Returns the counters and whether every root's budget sufficed.
fn walk_one(
    spec: &dyn ObjectType,
    limits: SearchLimits,
    (invocation, response): (&Invocation, &Value),
    roots: &[Value],
    outgoing: &mut Vec<Value>,
) -> (SearchStats, bool) {
    let (mut stats, mut complete) = (SearchStats::default(), true);
    for root in roots {
        let budget = stats.nodes.saturating_add(limits.max_nodes);
        stats.nodes += 1;
        let reached = outgoing.len();
        spec_transitions(spec, root, invocation, &mut |answer, next| {
            if answer != *response {
                return;
            }
            stats.nodes += 1;
            if stats.nodes > budget {
                complete = false;
            } else if outgoing[reached..].contains(&next) {
                stats.memo_hits += 1;
            } else {
                outgoing.push(next);
            }
        });
    }
    (stats, complete)
}

/// The one place the monitor asks a spec for transitions.
fn spec_transitions(
    spec: &dyn ObjectType,
    state: &Value,
    invocation: &Invocation,
    visit: &mut dyn FnMut(Value, Value),
) {
    spec.for_each_transition(state, invocation, visit);
}

/// The id of `state` among a link's `states`, added if new.
fn intern(states: &mut Vec<Value>, state: Value) -> u32 {
    states.iter().position(|q| *q == state).unwrap_or_else(|| {
        states.push(state);
        states.len() - 1
    }) as u32
}

/// Fast-path step: decides a pure fetch&increment projection (`events`)
/// from every frontier state with [`crate::fi`] — loaded once, checked once
/// per state — and leaves the outgoing frontier in `outgoing`: a singleton
/// dummy for the final segment, whose outgoing frontier nobody reads.
///
/// `false` means "not eligible — use the kernel" (and `outgoing` holds
/// nothing of use): a non-integer frontier state, or events [`crate::fi`]
/// rejects (another method, a non-integer response).
fn fi_step<'a>(
    events: impl ExactSizeIterator<Item = &'a Event>,
    frontier: &[Value],
    is_final: bool,
    scratch: &mut FiScratch,
    outgoing: &mut Vec<Value>,
) -> bool {
    let len = events.len();
    debug_assert!(
        is_final || len.is_multiple_of(2),
        "mid-stream cuts are quiescent"
    );
    outgoing.clear();
    if scratch.load(events).is_err() {
        return false;
    }
    for state in frontier {
        let Some(initial) = state.as_int() else {
            return false;
        };
        if !scratch.check(initial, 0) {
            continue;
        }
        if is_final {
            outgoing.push(Value::from(initial));
            break;
        }
        // Mid-stream segments are quiescent, so the projection is `len / 2`
        // complete operations and every witness linearizes them all: the
        // outgoing state is unique per incoming state.
        outgoing.push(Value::from(initial + (len / 2) as i64));
    }
    true
}

/// A link's Definition-2 problem with its floaters: the link's operations,
/// some of them demoted to optional, then the floaters a frontier entry
/// carries on the link's object — no response to reproduce, no real-time
/// order.
struct Floating<'a> {
    stated: EventProblem<'a>,
    /// The link's operations that may be linearized in a later link of the
    /// object instead (ascending).
    demoted: &'a [usize],
    object: ObjectId,
    carried: &'a [Invocation],
    carried_required: bool,
}

impl Problem for Floating<'_> {
    fn op_count(&self) -> usize {
        self.stated.op_count() + self.carried.len()
    }

    fn op(&self, i: usize) -> OpView<'_> {
        match i.checked_sub(self.stated.op_count()) {
            None => {
                let view = self.stated.op(i);
                OpView {
                    required: view.required && self.demoted.binary_search(&i).is_err(),
                    ..view
                }
            }
            Some(j) => OpView {
                object: self.object,
                invocation: &self.carried[j],
                required: self.carried_required,
                fixed_response: None,
            },
        }
    }

    fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.stated.edges()
    }
}

// ---------------------------------------------------------------------------
// Per-object shard routing
// ---------------------------------------------------------------------------

impl MonitorCondition {
    /// Whether the condition decomposes exactly into per-object checks.
    ///
    /// This mirrors [`crate::kernel::Locality::Exact`] as declared by the
    /// offline conditions: classical linearizability is local (the
    /// Herlihy–Wing locality theorem, the basis of the kernel's
    /// [`crate::kernel::check_local`] pre-pass), and `t = 0`
    /// `t`-linearizability *is* linearizability.  For `t > 0` the monitor
    /// does decompose the check per object, but each object's share of the
    /// forgiven prefix is its events among the stream's first `t`: a shard
    /// sees only its own substream and counts positions there, so a router
    /// must not split the stream.  Nor may it split weak consistency's or
    /// stabilization's, whose multiset summaries are not declared local.
    pub fn is_object_local(&self) -> bool {
        match self {
            MonitorCondition::Linearizability => true,
            MonitorCondition::TLinearizability { t } => *t == 0,
            MonitorCondition::WeakConsistency | MonitorCondition::StabilizesEventually => false,
        }
    }
}

/// Routes events to monitor shards by object, honouring condition locality.
///
/// A pool of monitor replicas can check a stream in per-object slices only
/// when the condition decomposes exactly over objects
/// ([`MonitorCondition::is_object_local`]); the router therefore collapses to
/// a single shard for non-local conditions instead of silently computing a
/// wrong verdict.  Routing is a pure function of the [`ObjectId`], so every
/// event of one object — and hence every invoke/respond pair — lands on the
/// same shard, which keeps each shard's substream well-formed whenever the
/// input stream is.
///
/// ```
/// use evlin_checker::monitor::{MonitorCondition, ShardRouter};
/// use evlin_history::ObjectId;
///
/// let router = ShardRouter::new(MonitorCondition::Linearizability, 4);
/// assert_eq!(router.effective_shards(), 4);
/// assert_eq!(router.route(ObjectId(6)), 2);
///
/// // A non-local condition refuses to split.
/// let router = ShardRouter::new(MonitorCondition::TLinearizability { t: 3 }, 4);
/// assert_eq!(router.effective_shards(), 1);
/// assert_eq!(router.route(ObjectId(6)), 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// Builds a router over `shards` monitor replicas for `condition`,
    /// collapsing to one shard when the condition is not object-local.
    pub fn new(condition: MonitorCondition, shards: usize) -> Self {
        let shards = if condition.is_object_local() {
            shards.max(1)
        } else {
            1
        };
        ShardRouter { shards }
    }

    /// How many shards actually receive traffic.
    pub fn effective_shards(&self) -> usize {
        self.shards
    }

    /// The shard that checks `object`.
    pub fn route(&self, object: ObjectId) -> usize {
        object.0 % self.shards
    }
}

/// Recomposes per-shard verdicts into the verdict on the whole stream.
///
/// For an object-local condition this is the Herlihy–Wing composition
/// direction: the stream is correct iff every per-object projection is, so
/// the first shard violation (in shard order) decides, an `Unknown` from any
/// shard (an exhausted budget) taints the composition, and otherwise the
/// verdict is `Ok`.
pub fn recompose_verdicts<I>(verdicts: I) -> MonitorVerdict
where
    I: IntoIterator<Item = MonitorVerdict>,
{
    let mut out = MonitorVerdict::Ok;
    for verdict in verdicts {
        match verdict {
            MonitorVerdict::Violation(v) => return MonitorVerdict::Violation(v),
            MonitorVerdict::Unknown => out = MonitorVerdict::Unknown,
            MonitorVerdict::Ok => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eventual, linearizability, t_linearizability, weak_consistency};
    use evlin_history::HistoryBuilder;
    use evlin_spec::{FetchIncrement, Register};
    use std::sync::Arc;

    fn fi_universe() -> (ObjectUniverse, ObjectId) {
        let mut u = ObjectUniverse::new();
        let x = u.add_object(FetchIncrement::new());
        (u, x)
    }

    fn run_monitor(
        universe: &ObjectUniverse,
        history: &History,
        condition: MonitorCondition,
    ) -> MonitorReport {
        let mut m = Monitor::new(universe.clone(), MonitorConfig::for_condition(condition));
        m.ingest_all(history.iter().cloned()).expect("well-formed");
        m.finish()
    }

    /// Drives the same stream through the split stages, pulling batches at
    /// the given cadence (0 = only at the end), and returns the report.
    fn run_staged(
        universe: &ObjectUniverse,
        history: &History,
        condition: MonitorCondition,
        pull_every: usize,
    ) -> MonitorReport {
        let (mut ingest, mut check) =
            stages(universe.clone(), MonitorConfig::for_condition(condition));
        for (i, event) in history.iter().cloned().enumerate() {
            ingest.ingest(event).expect("well-formed");
            if pull_every > 0 && i % pull_every == 0 {
                if let Some(batch) = ingest.take_batch() {
                    check.check_batch(batch);
                }
            } else if let Some(batch) = ingest.take_ready_batch() {
                check.check_batch(batch);
            }
        }
        let (tail, summary) = ingest.finish();
        check.finish(tail, summary)
    }

    #[test]
    fn sequential_counting_is_ok_and_gcs_the_window() {
        let (u, x) = fi_universe();
        let mut b = HistoryBuilder::new();
        for k in 0..50i64 {
            b = b.complete(
                ProcessId((k % 3) as usize),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(k),
            );
        }
        let h = b.build();
        let report = run_monitor(&u, &h, MonitorCondition::Linearizability);
        assert!(report.verdict.is_ok(), "{report:?}");
        assert_eq!(report.stats.events, 100);
        assert_eq!(report.stats.checked_ops, 50);
        // Each op closes its own segment: the resident window never exceeds
        // one batch of tiny segments.
        assert!(report.stats.peak_window_events <= 2 * 64);
        assert!(report.stats.fast_path_segments > 0);
    }

    #[test]
    fn duplicate_zero_is_flagged_online() {
        let (u, x) = fi_universe();
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .build();
        let report = run_monitor(&u, &h, MonitorCondition::Linearizability);
        assert!(matches!(report.verdict, MonitorVerdict::Violation(_)));
        // ...but the duplicate is forgiven with t = 2 and weakly consistent.
        let report = run_monitor(&u, &h, MonitorCondition::TLinearizability { t: 2 });
        assert!(report.verdict.is_ok(), "{report:?}");
        let report = run_monitor(&u, &h, MonitorCondition::WeakConsistency);
        assert!(report.verdict.is_ok(), "{report:?}");
    }

    #[test]
    fn an_answer_far_past_the_operation_count_is_one_violation() {
        // The fast path refuses an answer outside `[state, state + ops)` as
        // soon as it reads it: no work or memory in proportion to its size.
        let (u, x) = fi_universe();
        for answer in [1i64 << 40, i64::MAX, i64::MIN] {
            let h = HistoryBuilder::new()
                .complete(
                    ProcessId(0),
                    x,
                    FetchIncrement::fetch_inc(),
                    Value::from(0i64),
                )
                .complete(
                    ProcessId(1),
                    x,
                    FetchIncrement::fetch_inc(),
                    Value::from(answer),
                )
                .build();
            let report = run_monitor(&u, &h, MonitorCondition::Linearizability);
            let MonitorVerdict::Violation(v) = &report.verdict else {
                panic!("answer {answer}: {report:?}");
            };
            assert_eq!(v.object, Some(x), "answer {answer}");
            assert_eq!(v.segment_start, 2, "answer {answer}");
            assert!(report.stats.fast_path_segments > 0, "answer {answer}");
        }
    }

    #[test]
    fn floaters_cross_segment_boundaries() {
        // op0 returns 0 and completes; a quiescent cut follows; then op1 also
        // returns 0.  With t = 2 the offline witness linearizes op0 *after*
        // op1 — the monitor must let op0 float across the cut.
        let (u, x) = fi_universe();
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .build();
        assert!(t_linearizability::is_t_linearizable(&h, &u, 2));
        let report = run_monitor(&u, &h, MonitorCondition::TLinearizability { t: 2 });
        assert!(report.verdict.is_ok(), "{report:?}");
        assert!(!t_linearizability::is_t_linearizable(&h, &u, 1));
        let report = run_monitor(&u, &h, MonitorCondition::TLinearizability { t: 1 });
        assert!(matches!(report.verdict, MonitorVerdict::Violation(_)));
    }

    #[test]
    fn register_frontiers_keep_both_write_orders() {
        // Two concurrent writes can be ordered either way; a later read of
        // either value must be accepted, a read of a third value rejected.
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        for (read_value, ok) in [(1i64, true), (2i64, true), (7i64, false)] {
            let h = HistoryBuilder::new()
                .invoke(ProcessId(0), r, Register::write(Value::from(1i64)))
                .invoke(ProcessId(1), r, Register::write(Value::from(2i64)))
                .respond(ProcessId(0), r, Value::Unit)
                .respond(ProcessId(1), r, Value::Unit)
                .complete(ProcessId(0), r, Register::read(), Value::from(read_value))
                .build();
            assert_eq!(linearizability::is_linearizable(&h, &u), ok);
            let report = run_monitor(&u, &h, MonitorCondition::Linearizability);
            assert_eq!(report.verdict.is_ok(), ok, "read {read_value}: {report:?}");
        }
    }

    #[test]
    fn pending_tail_is_treated_like_offline() {
        let (u, x) = fi_universe();
        // A pending fetch&inc justifies the gap at 0.
        let h = HistoryBuilder::new()
            .invoke(ProcessId(0), x, FetchIncrement::fetch_inc())
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .build();
        assert!(linearizability::is_linearizable(&h, &u));
        let report = run_monitor(&u, &h, MonitorCondition::Linearizability);
        assert!(report.verdict.is_ok(), "{report:?}");
    }

    #[test]
    fn weak_mode_matches_offline_on_the_key_distinction() {
        let (u, x) = fi_universe();
        // Same process returning 0 twice: weakly inconsistent.
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .build();
        assert!(!weak_consistency::is_weakly_consistent(&h, &u));
        let report = run_monitor(&u, &h, MonitorCondition::WeakConsistency);
        let MonitorVerdict::Violation(v) = &report.verdict else {
            panic!("expected violation: {report:?}");
        };
        assert_eq!(v.op, Some(OpId(1)));
    }

    #[test]
    fn stabilizes_eventually_matches_offline() {
        let (u, x) = fi_universe();
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(41i64),
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(7i64),
            )
            .build();
        // Nonsense responses are forgiven by the liveness half.
        assert!(eventual::analyze(&h, &u).min_stabilization.is_some());
        let report = run_monitor(&u, &h, MonitorCondition::StabilizesEventually);
        assert!(report.verdict.is_ok(), "{report:?}");
    }

    #[test]
    fn ill_formed_streams_are_rejected() {
        let (_, x) = fi_universe();
        let mut m = Monitor::new(fi_universe().0, MonitorConfig::default());
        m.invoke(ProcessId(0), x, FetchIncrement::fetch_inc())
            .unwrap();
        assert!(matches!(
            m.invoke(ProcessId(0), x, FetchIncrement::fetch_inc()),
            Err(MonitorError::InvokeWhilePending { .. })
        ));
        assert!(matches!(
            m.respond(ProcessId(1), x, Value::from(0i64)),
            Err(MonitorError::OrphanResponse { .. })
        ));
        // The rejected events were not ingested; the stream stays usable.
        m.respond(ProcessId(0), x, Value::from(0i64)).unwrap();
        assert!(m.finish().verdict.is_ok());
    }

    /// An object outside the universe is refused at ingest, like an orphan
    /// response, so no check stage is handed an object it cannot look up
    /// (each used to panic on the first one).
    #[test]
    fn events_on_objects_outside_the_universe_are_rejected() {
        let (u, x) = fi_universe();
        let stranger = ObjectId(u.len());
        for condition in [
            MonitorCondition::Linearizability,
            MonitorCondition::TLinearizability { t: 1 },
            MonitorCondition::WeakConsistency,
            MonitorCondition::StabilizesEventually,
        ] {
            let mut m = Monitor::new(u.clone(), MonitorConfig::for_condition(condition));
            m.invoke(ProcessId(0), x, FetchIncrement::fetch_inc())
                .unwrap();
            assert_eq!(
                m.invoke(ProcessId(1), stranger, FetchIncrement::fetch_inc()),
                Err(MonitorError::UnknownObject {
                    object: stranger,
                    global_index: 1,
                })
            );
            assert!(matches!(
                m.respond(ProcessId(1), stranger, Value::from(0i64)),
                Err(MonitorError::UnknownObject { .. })
            ));
            m.respond(ProcessId(0), x, Value::from(0i64)).unwrap();
            let report = m.finish();
            assert!(report.verdict.is_ok(), "{condition:?}: {report:?}");
            assert_eq!(report.stats.events, 2, "{condition:?}");
        }
    }

    #[test]
    fn chunked_feeding_matches_offline_regardless_of_boundaries() {
        // The monitor's verdict may not depend on how the caller batches its
        // ingest calls — quiescent cuts are found by the monitor itself.
        let (u, x) = fi_universe();
        let h = HistoryBuilder::new()
            .invoke(ProcessId(0), x, FetchIncrement::fetch_inc())
            .invoke(ProcessId(1), x, FetchIncrement::fetch_inc())
            .respond(ProcessId(0), x, Value::from(0i64))
            .respond(ProcessId(1), x, Value::from(1i64))
            .complete(
                ProcessId(2),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(2i64),
            )
            .build();
        for chunk in 1..=h.len() {
            let mut m = Monitor::new(u.clone(), MonitorConfig::default());
            for events in h.events().chunks(chunk) {
                m.ingest_all(events.iter().cloned()).unwrap();
                m.pump();
            }
            assert!(m.finish().verdict.is_ok(), "chunk size {chunk}");
        }
    }

    #[test]
    fn staged_pipeline_matches_the_inline_monitor() {
        // The split stages, driven at any batch-pull cadence, must reproduce
        // the inline monitor's verdict, counters and stream fingerprint for
        // every condition.
        let (u, x) = fi_universe();
        let mut b = HistoryBuilder::new();
        for k in 0..12i64 {
            b = b
                .invoke(ProcessId(0), x, FetchIncrement::fetch_inc())
                .invoke(ProcessId(1), x, FetchIncrement::fetch_inc())
                .respond(ProcessId(0), x, Value::from(2 * k))
                .respond(ProcessId(1), x, Value::from(2 * k + 1));
        }
        let h = b.build();
        for condition in [
            MonitorCondition::Linearizability,
            MonitorCondition::TLinearizability { t: 3 },
            MonitorCondition::WeakConsistency,
            MonitorCondition::StabilizesEventually,
        ] {
            let inline = run_monitor(&u, &h, condition);
            for pull_every in [0, 1, 3, 7] {
                let staged = run_staged(&u, &h, condition, pull_every);
                assert_eq!(staged.verdict, inline.verdict, "{condition:?}/{pull_every}");
                // Residency legitimately depends on how eagerly batches are
                // pulled; everything else must match exactly.
                let mut a = staged.stats;
                let mut b = inline.stats;
                a.peak_window_events = 0;
                b.peak_window_events = 0;
                assert_eq!(a, b, "{condition:?}/{pull_every}");
            }
        }
    }

    #[test]
    fn stream_fingerprint_identifies_the_event_sequence() {
        // Same stream, same config => same fingerprint, regardless of pump
        // timing; a reordered stream fingerprints differently.
        let (u, x) = fi_universe();
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .build();
        let fp = |history: &History, pump: bool| {
            let mut m = Monitor::new(u.clone(), MonitorConfig::default());
            for e in history.iter().cloned() {
                m.ingest(e).unwrap();
                if pump {
                    m.pump();
                }
            }
            m.finish().stats.stream_fingerprint
        };
        assert_eq!(fp(&h, false), fp(&h, true));
        // The same two operations completed in the opposite process order is
        // a different (well-formed) stream: different fingerprint.
        let swapped = HistoryBuilder::new()
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .build();
        assert_ne!(fp(&h, false), fp(&swapped, false));
        // The per-event words the fold consumes separate kinds and slots.
        let e = &h.events()[0];
        assert_ne!(event_word(e), event_word(&h.events()[1]));
        assert_eq!(event_word(e), event_word(&e.clone()));
    }

    #[test]
    fn event_word_table_path_equals_the_content_hash() {
        // What every invocation's word is, by definition.
        let by_content = |event: &Event, invocation: &Invocation| {
            let slot = ((event.process.0 as u64) << 32) ^ (event.object.0 as u64);
            mix(TAG_WORD_INVOKE ^ mix(slot ^ mix(hash_of(invocation))))
        };
        let mut invocations: Vec<Invocation> = VOCABULARY.iter().map(Invocation::nullary).collect();
        for (index, invocation) in invocations.iter().enumerate() {
            assert_eq!(invocation.vocabulary_index(), Some(index));
            assert_eq!(NULLARY_HASHES[index], hash_of(invocation));
        }
        // Off the table: names outside the vocabulary, and vocabulary names
        // with arguments.
        invocations.extend(["knock", "fetch_inc_", "Read", ""].map(Invocation::nullary));
        for name in VOCABULARY {
            invocations.push(Invocation::unary(name, Value::from(7i64)));
            invocations.push(Invocation::binary(name, Value::Unit, Value::sym(name)));
        }
        for (i, invocation) in invocations.into_iter().enumerate() {
            let event = Event::invoke(ProcessId(i % 3), ObjectId(i), invocation.clone());
            assert_eq!(
                event_word(&event),
                by_content(&event, &invocation),
                "{invocation}"
            );
        }
    }

    #[test]
    fn arena_reuse_keeps_peak_bytes_flat_across_segments() {
        // Identical register segments, checked through the kernel (registers
        // have no fast path): after the first batch has sized the pooled
        // kernel scratch, further batches must reuse it — the memory
        // high-water mark reported in `stats.search.arena_bytes` stays
        // exactly flat no matter how many more segments stream through.
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let mut m = Monitor::new(
            u,
            MonitorConfig {
                segment_batch: 4,
                ..MonitorConfig::default()
            },
        );
        // Rounds of one write and `SMALL_LINK_OPS` reads, all concurrent:
        // too wide a link to walk.
        let feed_batch = |m: &mut Monitor| {
            for _ in 0..8 {
                m.invoke(ProcessId(0), r, Register::write(Value::from(1i64)))
                    .unwrap();
                for p in 1..=SMALL_LINK_OPS {
                    m.invoke(ProcessId(p), r, Register::read()).unwrap();
                }
                m.respond(ProcessId(0), r, Value::Unit).unwrap();
                for p in 1..=SMALL_LINK_OPS {
                    m.respond(ProcessId(p), r, Value::from(1i64)).unwrap();
                }
            }
            m.pump();
        };
        feed_batch(&mut m);
        let after_first = m.stats().search.arena_bytes;
        assert!(after_first > 0, "kernel searches must report arena bytes");
        for _ in 0..10 {
            feed_batch(&mut m);
        }
        assert!(m.verdict_so_far().is_ok());
        assert_eq!(
            m.stats().search.arena_bytes,
            after_first,
            "per-segment arena reuse must keep the peak flat across batches"
        );
    }

    #[test]
    fn min_segment_events_delays_cuts_but_not_verdicts() {
        let (u, x) = fi_universe();
        let mut b = HistoryBuilder::new();
        for k in 0..40i64 {
            b = b.complete(
                ProcessId((k % 2) as usize),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(k),
            );
        }
        let h = b.build();
        let config = MonitorConfig {
            min_segment_events: 16,
            ..MonitorConfig::default()
        };
        let mut m = Monitor::new(u.clone(), config);
        m.ingest_all(h.iter().cloned()).unwrap();
        let report = m.finish();
        assert!(report.verdict.is_ok());
        assert!(report.stats.segments < 40, "{report:?}");
    }

    /// Three counters and a monitor whose cuts fall every `min_segment_events`.
    fn three_counters(min_segment_events: usize) -> Monitor {
        let mut u = ObjectUniverse::new();
        for _ in 0..3 {
            u.add_object(FetchIncrement::new());
        }
        Monitor::new(
            u,
            MonitorConfig {
                min_segment_events,
                ..MonitorConfig::default()
            },
        )
    }

    fn bad_fetch_inc(m: &mut Monitor, object: usize) {
        let p = ProcessId(object);
        m.invoke(p, ObjectId(object), FetchIncrement::fetch_inc())
            .unwrap();
        m.respond(p, ObjectId(object), Value::from(9i64)).unwrap();
    }

    #[test]
    fn same_segment_violations_report_the_lesser_object() {
        // Objects 2 and 1 both violate inside the one four-event segment,
        // the greater id first in the stream.
        let mut m = three_counters(4);
        bad_fetch_inc(&mut m, 2);
        bad_fetch_inc(&mut m, 1);
        let MonitorVerdict::Violation(v) = m.finish().verdict else {
            panic!("expected a violation");
        };
        assert_eq!((v.segment_start, v.segment_len), (0, 4));
        assert_eq!(v.object, Some(ObjectId(1)));
    }

    #[test]
    fn an_earlier_segment_beats_a_lesser_object() {
        // Object 2 violates in segment 0, object 0 in segment 1; both
        // segments are checked in one batch.
        let mut m = three_counters(2);
        bad_fetch_inc(&mut m, 2);
        bad_fetch_inc(&mut m, 0);
        let MonitorVerdict::Violation(v) = m.finish().verdict else {
            panic!("expected a violation");
        };
        assert_eq!((v.segment_start, v.segment_len), (0, 2));
        assert_eq!(v.object, Some(ObjectId(2)));
    }

    /// 64 objects (even ids registers, odd ids counters), 300 rounds of four
    /// mutually concurrent operations on objects strided through the
    /// universe, every effect taking place at its response, cut every 48
    /// events or later and checked four segments at a time.
    fn wide_stream() -> (ObjectUniverse, Vec<Event>, MonitorConfig) {
        let mut u = ObjectUniverse::new();
        for i in 0..64 {
            if i % 2 == 0 {
                u.add_object(Register::new(Value::from(0i64)));
            } else {
                u.add_object(FetchIncrement::new());
            }
        }
        let config = MonitorConfig {
            min_segment_events: 48,
            segment_batch: 4,
            ..MonitorConfig::default()
        };
        let mut events = Vec::with_capacity(2400);
        let mut state = [0i64; 64];
        for round in 0..300usize {
            let object = |p: usize| match (p, round % 2) {
                (3, 0) => (round * 7) % 64, // shares process 0's object
                _ => (round * 7 + p * 13) % 64,
            };
            let is_write = |p: usize| object(p) % 2 == 0 && (round + p).is_multiple_of(3);
            for p in 0..4 {
                let invocation = if object(p) % 2 == 1 {
                    FetchIncrement::fetch_inc()
                } else if is_write(p) {
                    Register::write(Value::from(round as i64))
                } else {
                    Register::read()
                };
                events.push(Event::invoke(ProcessId(p), ObjectId(object(p)), invocation));
            }
            for p in 0..4 {
                let o = object(p);
                let response = if o % 2 == 1 {
                    state[o] += 1;
                    Value::from(state[o] - 1)
                } else if is_write(p) {
                    state[o] = round as i64;
                    Value::Unit
                } else {
                    Value::from(state[o])
                };
                events.push(Event::respond(ProcessId(p), ObjectId(o), response));
            }
        }
        (u, events, config)
    }

    #[test]
    fn wide_stream_counters_are_pinned() {
        // Objects skip segments, batches hold several segments, and both the
        // fast and the kernel path run.  The expected values are what the
        // monitor produced on this stream while it still rescanned each
        // segment once per object: grouping must not move a count.
        let (u, events, config) = wide_stream();
        let mut m = Monitor::new(u, config);
        m.ingest_all(events).unwrap();
        let report = m.finish();
        assert!(report.verdict.is_ok(), "{report:?}");
        let stats = report.stats;
        assert_eq!(stats.events, 2400);
        assert_eq!(stats.checked_ops, 1200);
        assert_eq!(stats.segments, 50);
        assert_eq!(stats.fast_path_segments, 450);
        assert_eq!(stats.stream_fingerprint, 0x91e5_216e_98e6_d6fb);
        assert_eq!((stats.search.nodes, stats.search.memo_hits), (1350, 0));
    }

    /// `rounds` rounds of three mutually concurrent operations over a
    /// register (values `0..3`) and, with `counter`, a counter: every
    /// process invokes, then every process responds, so each round is one
    /// quiescent segment.  Every effect takes place at its response; a read
    /// answered at a position in `garbled` answers 7, which nothing writes.
    fn seeded_rounds(
        seed: &mut u64,
        rounds: usize,
        counter: bool,
        garbled: std::ops::Range<usize>,
    ) -> Vec<Event> {
        let mut next = |bound: u64| {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            (*seed % bound) as usize
        };
        let mut state = [0i64; 2];
        let mut events = Vec::with_capacity(rounds * 6);
        for _ in 0..rounds {
            let calls: [(usize, bool, i64); 3] = std::array::from_fn(|_| {
                let object = if counter { next(2) } else { 0 };
                (object, next(2) == 0, next(3) as i64)
            });
            for (p, &(object, read, value)) in calls.iter().enumerate() {
                let invocation = match (object, read) {
                    (0, true) => Register::read(),
                    (0, false) => Register::write(Value::from(value)),
                    (_, true) => evlin_spec::Counter::read(),
                    (_, false) => evlin_spec::Counter::inc(),
                };
                events.push(Event::invoke(ProcessId(p), ObjectId(object), invocation));
            }
            let first = next(3);
            for p in (0..3).map(|i| (first + i) % 3) {
                let (object, read, value) = calls[p];
                let response = if read && garbled.contains(&events.len()) {
                    Value::from(7i64)
                } else if read {
                    Value::from(state[object])
                } else {
                    state[object] = if object == 0 {
                        value
                    } else {
                        state[object] + 1
                    };
                    Value::Unit
                };
                events.push(Event::respond(ProcessId(p), ObjectId(object), response));
            }
        }
        events
    }

    fn register_and_counter() -> ObjectUniverse {
        let mut u = ObjectUniverse::new();
        u.add_object(Register::new(Value::from(0i64)));
        u.add_object(evlin_spec::Counter::new());
        u
    }

    /// The counters a change to how problems are stated must not move.
    fn golden(stats: &MonitorStats) -> [usize; 5] {
        [
            stats.segments,
            stats.checked_ops,
            stats.fast_path_segments,
            stats.search.nodes,
            stats.search.memo_hits,
        ]
    }

    // The expected values of the three tests below are what the monitor
    // produced while `TLinearizability`, `WeakConsistency` and
    // `StabilizesEventually` still reached the kernel through a materialized
    // problem per search: lending views must be node for node the same
    // search.  `TLinearizability`'s were restated when its floaters moved
    // into their own object's chain (see that test).

    #[test]
    fn t_linearizability_stream_counters_are_pinned() {
        // Garbage reads inside the forgiven prefix (two segments of it), then
        // ten well-behaved rounds: the forgiven operations float across every
        // later cut, in batches of four segments.
        let t = 12;
        let config = MonitorConfig {
            segment_batch: 4,
            ..MonitorConfig::for_condition(MonitorCondition::TLinearizability { t })
        };
        let mut m = Monitor::new(register_and_counter(), config);
        let events = seeded_rounds(&mut 0x9e37_79b9_7f4a_7c15, 12, true, 0..t);
        let garbage = events[..t]
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::Respond(v) if *v == Value::from(7i64)));
        assert!(garbage.count() >= 2);
        let mut carried_over = 0;
        for round in events.chunks(6) {
            m.ingest_all(round.iter().cloned()).unwrap();
            let ModeState::Lin { frontiers, .. } = &m.check.mode else {
                unreachable!();
            };
            if frontiers.values().any(|fr| !fr.unplaced.is_empty()) {
                carried_over += 1;
            }
        }
        assert!(carried_over >= 4, "floaters cross batches: {carried_over}");
        let report = m.finish();
        assert!(report.verdict.is_ok(), "{report:?}");
        // Each object threads its own `(state, floaters)` entries: a search
        // covers one object's link from one entry, where a frontier over
        // both objects' states and floaters at once searched whole segments
        // from each of its entries (71 035 nodes, 44 755 memo hits).
        assert_eq!(golden(&report.stats), [11, 36, 0, 1_637, 524]);
    }

    #[test]
    fn weak_consistency_stream_counters_are_pinned() {
        // 240 operations on one register, every read answering the latest
        // write to have responded.
        let config = MonitorConfig {
            segment_batch: 16,
            ..MonitorConfig::for_condition(MonitorCondition::WeakConsistency)
        };
        let mut m = Monitor::new(register_and_counter(), config);
        let events = seeded_rounds(&mut 0x2545_f491_4f6c_dd1d, 80, false, 0..0);
        m.ingest_all(events).unwrap();
        let report = m.finish();
        assert!(report.verdict.is_ok(), "{report:?}");
        assert_eq!(golden(&report.stats), [80, 240, 0, 63_810, 16_796]);
    }

    #[test]
    fn stabilizes_eventually_stream_counters_are_pinned() {
        // 60 completed operations over both objects, every read garbled, and
        // two operations still pending when the stream ends.
        let config = MonitorConfig::for_condition(MonitorCondition::StabilizesEventually);
        let mut m = Monitor::new(register_and_counter(), config);
        let events = seeded_rounds(&mut 0x1234_5678_9abc_def1, 20, true, 0..120);
        m.ingest_all(events).unwrap();
        m.invoke(
            ProcessId(0),
            ObjectId(0),
            Register::write(Value::from(2i64)),
        )
        .unwrap();
        m.invoke(ProcessId(1), ObjectId(1), evlin_spec::Counter::inc())
            .unwrap();
        let report = m.finish();
        assert!(report.verdict.is_ok(), "{report:?}");
        assert_eq!(golden(&report.stats), [21, 60, 0, 60, 0]);
    }

    #[test]
    fn a_stabilizes_eventually_violation_spans_the_whole_stream() {
        // Three fetch&incs and a `read()`, which fetch&increment does not
        // offer: no arrangement is legal, whatever the responses, and the
        // window reported is the stream's 8 events, inline and staged.
        let (u, x) = fi_universe();
        let mut b = HistoryBuilder::new();
        for k in 0..3i64 {
            b = b.complete(ProcessId(0), x, FetchIncrement::fetch_inc(), Value::from(k));
        }
        let read = Invocation::nullary("read");
        let h = b.complete(ProcessId(1), x, read, Value::from(3i64)).build();
        assert_eq!(h.len(), 8);
        let condition = MonitorCondition::StabilizesEventually;
        for pull_every in [0, 1] {
            for report in [
                run_monitor(&u, &h, condition),
                run_staged(&u, &h, condition, pull_every),
            ] {
                let MonitorVerdict::Violation(v) = &report.verdict else {
                    panic!("expected a violation: {report:?}");
                };
                assert_eq!((v.segment_start, v.segment_len), (0, 8));
                let shown = v.to_string();
                assert!(
                    shown.starts_with("violation in events [0, 8): no legal"),
                    "{shown}"
                );
            }
        }
    }

    /// A gate that must be opened before anyone passes: `pass()` is enabled
    /// only once `open()` has taken effect, so the type is partial.
    #[derive(Debug)]
    struct Turnstile;

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

    #[test]
    fn stabilizes_eventually_completes_the_operations_pending_in_the_tail() {
        // A completed `pass()` is legal only after an `open()`.  With one
        // still pending at the end of the stream the witness may complete
        // it first; without, nothing makes the pass legal.
        let mut u = ObjectUniverse::new();
        let g = u.add_object(Turnstile);
        let passed = HistoryBuilder::new().complete(
            ProcessId(1),
            g,
            Invocation::nullary("pass"),
            Value::Unit,
        );
        let with_open = passed
            .clone()
            .invoke(ProcessId(0), g, Invocation::nullary("open"))
            .build();
        let without = passed.build();
        assert_eq!(eventual::analyze(&with_open, &u).min_stabilization, Some(2));
        assert_eq!(eventual::analyze(&without, &u).min_stabilization, None);
        let condition = MonitorCondition::StabilizesEventually;
        for (history, ok) in [(&with_open, true), (&without, false)] {
            // Inline, the pass's segment and the tail reach the check stage
            // in one batch; pulled every event, the tail is a batch alone.
            for report in [
                run_monitor(&u, history, condition),
                run_staged(&u, history, condition, 1),
            ] {
                match (&report.verdict, ok) {
                    (MonitorVerdict::Ok, true) | (MonitorVerdict::Violation(_), false) => {}
                    _ => panic!("expected ok = {ok}: {report:?}"),
                }
            }
        }
    }

    #[test]
    fn floaters_are_placed_by_the_end_even_where_their_object_is_silent() {
        // A `pass()` answered inside the forgiven prefix floats, but the
        // witness must still place it where the gate is open.  The stream
        // then moves to a counter, so the gate has no event in the tail:
        // its floater is placed in an empty tail link, which refutes it
        // unless an `open()` came in between.
        let mut u = ObjectUniverse::new();
        let g = u.add_object(Turnstile);
        let x = u.add_object(FetchIncrement::new());
        let inc = FetchIncrement::fetch_inc();
        let passed = HistoryBuilder::new().complete(
            ProcessId(0),
            g,
            Invocation::nullary("pass"),
            Value::Unit,
        );
        let opened =
            passed
                .clone()
                .complete(ProcessId(1), g, Invocation::nullary("open"), Value::Unit);
        for (history, ok) in [(passed, false), (opened, true)] {
            let h = history
                .complete(ProcessId(1), x, inc.clone(), Value::from(0i64))
                .build();
            assert_eq!(t_linearizability::is_t_linearizable(&h, &u, 2), ok);
            let condition = MonitorCondition::TLinearizability { t: 2 };
            for report in [
                run_monitor(&u, &h, condition),
                run_staged(&u, &h, condition, 1),
            ] {
                match (&report.verdict, ok) {
                    (MonitorVerdict::Ok, true) => {}
                    (MonitorVerdict::Violation(v), false) => assert_eq!(v.object, Some(g)),
                    _ => panic!("expected ok = {ok}: {report:?}"),
                }
            }
        }
    }

    /// A counter that calls itself fetch&increment but wraps after 2: its
    /// name claims the fast path, its transitions say otherwise.
    #[derive(Debug)]
    struct WrappingCounter;

    impl evlin_spec::ObjectType for WrappingCounter {
        fn name(&self) -> &str {
            "fetch&increment"
        }

        fn initial_states(&self) -> Vec<Value> {
            vec![Value::from(0i64)]
        }

        fn for_each_transition(
            &self,
            state: &Value,
            invocation: &Invocation,
            visit: &mut dyn FnMut(Value, Value),
        ) {
            match state.as_int() {
                Some(v) if *invocation == FetchIncrement::fetch_inc() => {
                    visit(Value::from(v), Value::from((v + 1) % 3));
                }
                _ => {}
            }
        }

        fn sample_invocations(&self) -> Vec<Invocation> {
            vec![FetchIncrement::fetch_inc()]
        }
    }

    #[test]
    fn the_fast_path_is_chosen_by_type_not_by_name() {
        // Sequential fetch&incs answered `responses`, on an object added
        // either way the universe offers: the verdict is the offline
        // kernel's, and only a `FetchIncrement` takes the fast path.
        let sequential = |responses: [i64; 4]| {
            let mut b = HistoryBuilder::new();
            for (k, response) in responses.into_iter().enumerate() {
                let (p, inc) = (ProcessId(k % 2), FetchIncrement::fetch_inc());
                b = b.complete(p, ObjectId(0), inc, Value::from(response));
            }
            b.build()
        };
        let types: [(Arc<dyn evlin_spec::ObjectType>, bool); 2] = [
            (Arc::new(FetchIncrement::new()), true),
            (Arc::new(WrappingCounter), false),
        ];
        for (ty, fast) in types {
            let by_value = |u: &mut ObjectUniverse| match fast {
                true => u.add_object(FetchIncrement::new()),
                false => u.add_object(WrappingCounter),
            };
            let shared = |u: &mut ObjectUniverse| u.add_shared(ty.clone(), Value::from(0i64));
            let adds: [&dyn Fn(&mut ObjectUniverse) -> ObjectId; 2] = [&by_value, &shared];
            for add in adds {
                let mut u = ObjectUniverse::new();
                assert_eq!(add(&mut u), ObjectId(0));
                for responses in [[0, 1, 2, 3], [0, 1, 2, 0]] {
                    let h = sequential(responses);
                    let offline = linearizability::is_linearizable(&h, &u);
                    assert_eq!(offline, (responses[3] == 3) == fast);
                    let condition = MonitorCondition::Linearizability;
                    for report in [
                        run_monitor(&u, &h, condition),
                        run_staged(&u, &h, condition, 1),
                    ] {
                        let online = match &report.verdict {
                            MonitorVerdict::Ok => true,
                            MonitorVerdict::Violation(_) => false,
                            MonitorVerdict::Unknown => panic!("{report:?}"),
                        };
                        assert_eq!(online, offline, "{responses:?}: {report:?}");
                        let taken = report.stats.fast_path_segments;
                        assert_eq!(taken > 0, fast, "{responses:?}: {report:?}");
                    }
                }
            }
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

    /// What a small link leaves from `frontier`, decided by the kernel's
    /// exhaustive search from each state, or by [`Walk`] with `walk`: the
    /// outgoing states (sorted, distinct), the nodes, the memo hits, whether
    /// the budget let the search cover its space, and whether some class of
    /// the walk has more than one member.
    fn small_link(
        u: &ObjectUniverse,
        events: &[Event],
        frontier: &[Value],
        limits: SearchLimits,
        walk: bool,
    ) -> (Vec<Value>, usize, usize, bool, bool) {
        let object = events[0].object;
        let mut matcher = OperationMatcher::default();
        let (mut outgoing, mut stats, mut complete) = (Vec::new(), SearchStats::default(), true);
        let mut merged = false;
        let spec = &**u.object_type(object);
        if let (true, [invoke, respond]) = (walk, events) {
            // One operation is walked without a `Walk`, as the monitor does.
            let (EventKind::Invoke(call), EventKind::Respond(answer)) =
                (&invoke.kind, &respond.kind)
            else {
                panic!("a complete operation");
            };
            (stats, complete) = walk_one(spec, limits, (call, answer), frontier, &mut outgoing);
        } else if walk {
            let (mut scratch, len) = (WalkScratch::default(), events.len());
            let walk = Walk::new(
                spec,
                limits,
                len,
                |k| &events[k],
                &mut matcher,
                &mut scratch,
            );
            let mut walk = walk.expect("one to four complete operations");
            merged = walk.peers.iter().any(|&peers| peers != 0);
            for state in frontier {
                walk.from(state, &mut outgoing);
            }
            (stats, complete) = (walk.stats, walk.complete);
        } else {
            let problem = EventProblem {
                t: 0,
                events,
                picked: None,
                ops: matcher.match_events(events),
            };
            let mut scratch = KernelScratch::new();
            for state in frontier {
                let each = |row: kernel::FrontierRow<'_>| {
                    outgoing.extend(row.states().map(|(_, v)| v.clone()));
                };
                let roots = [(object, state)];
                let (covered, search) =
                    kernel::visit_frontiers(&problem, &roots, u, limits, &[], &mut scratch, each);
                stats.absorb(search);
                complete &= covered;
            }
        }
        outgoing.sort();
        outgoing.dedup();
        (outgoing, stats.nodes, stats.memo_hits, complete, merged)
    }

    #[test]
    fn a_small_link_walk_is_the_kernels_search() {
        // Every built-in type's sampled invocations, answered with responses
        // the spec gives from some reachable state and with one it never
        // gives, as links of one to `SMALL_LINK_OPS` operations in every
        // real-time shape (an uppercase letter invokes an operation, its
        // lowercase responds), from frontiers of one to three reachable
        // states, under four node budgets: the walk and the kernel's search
        // on the same link agree on the outgoing states, the counters and
        // completeness.  Links of two or more operations are drawn from a
        // seeded generator that repeats the previous operation's pair half
        // the time, so classes merge.
        let shapes = [
            "Aa", "ABab", "AaBb", "ABCabc", "AaBbCc", "ABabCc", "ABaCbc", "ABCDabcd", "AaBbCcDd",
            "ABabCcDd", "ABCabcDd", "ABabCDcd", "ABaCbDcd",
        ];
        assert!(shapes.iter().all(|shape| shape.len() <= 2 * SMALL_LINK_OPS));
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

    /// A sequential stream over a register (values `0..3`) and a queue: each
    /// round is one register operation, then one queue operation, both by
    /// process `round % 3`.
    fn one_operation_stream() -> (ObjectUniverse, History) {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let q = u.add_object(evlin_spec::Queue::new());
        let (mut register, mut queue) = (0i64, std::collections::VecDeque::new());
        let mut b = HistoryBuilder::new();
        let mut seed = 0x853c_49e6_748f_ea9bu64;
        for round in 0..300usize {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let p = ProcessId(round % 3);
            b = if seed.is_multiple_of(2) {
                register = (seed % 3) as i64;
                b.complete(p, r, Register::write(Value::from(register)), Value::Unit)
            } else {
                b.complete(p, r, Register::read(), Value::from(register))
            };
            b = if seed % 5 < 3 {
                queue.push_back(round as i64);
                let enqueue = evlin_spec::Queue::enqueue(Value::from(round as i64));
                b.complete(p, q, enqueue, Value::Unit)
            } else {
                let head = queue.pop_front().map_or(Value::Bottom, Value::from);
                b.complete(p, q, evlin_spec::Queue::dequeue(), head)
            };
        }
        (u, b.build())
    }

    #[test]
    fn one_operation_links_are_pinned() {
        // Cut at every quiescent point, a link is a whole segment; cut every
        // four events, it is one of the segment's two objects.  Either way
        // every link holds one operation.  The expected values are what the
        // monitor produced while every link still went through a kernel
        // search.
        let (u, h) = one_operation_stream();
        assert!(linearizability::is_linearizable(&h, &u));
        let condition = MonitorCondition::Linearizability;
        let staged = run_staged(&u, &h, condition, 0);
        assert!(staged.verdict.is_ok(), "{staged:?}");
        assert_eq!(golden(&staged.stats), [600, 600, 0, 1200, 0]);
        for (min_segment_events, expected) in
            [(1, [600, 600, 0, 1200, 0]), (4, [300, 600, 0, 1200, 0])]
        {
            let config = MonitorConfig {
                min_segment_events,
                ..MonitorConfig::default()
            };
            let mut m = Monitor::new(u.clone(), config);
            m.ingest_all(h.iter().cloned()).expect("well-formed");
            let report = m.finish();
            assert!(report.verdict.is_ok(), "{report:?}");
            assert_eq!(golden(&report.stats), expected);
        }
    }

    /// Two concurrent writes on each of eight registers, all sixteen
    /// invoked before any responds: one quiescent 32-event segment.
    fn eight_registers_written_twice() -> (ObjectUniverse, History) {
        let mut u = ObjectUniverse::new();
        let registers: Vec<ObjectId> = (0..8)
            .map(|_| u.add_object(Register::new(Value::from(0i64))))
            .collect();
        let mut b = HistoryBuilder::new();
        for p in 0..16 {
            let write = Register::write(Value::from(p as i64 % 2 + 1));
            b = b.invoke(ProcessId(p), registers[p / 2], write);
        }
        for p in 0..16 {
            b = b.respond(ProcessId(p), registers[p / 2], Value::Unit);
        }
        (u, b.build())
    }

    #[test]
    fn a_wide_segment_is_decided_object_by_object() {
        // Each register's chain decides its own two writes; a frontier over
        // every register's states at once would range over their product
        // and exhaust the node budget.
        let (u, h) = eight_registers_written_twice();
        let lin = run_monitor(&u, &h, MonitorCondition::Linearizability);
        assert!(lin.verdict.is_ok(), "{lin:?}");
        for t in [0, 1] {
            let report = run_monitor(&u, &h, MonitorCondition::TLinearizability { t });
            assert!(t_linearizability::is_t_linearizable(&h, &u, t));
            assert!(report.verdict.is_ok(), "t = {t}: {report:?}");
            assert!(report.stats.search.nodes < 100, "t = {t}: {report:?}");
            if t == 0 {
                assert_eq!(report, lin);
            }
        }
    }

    #[test]
    fn t_zero_is_linearizability_on_the_golden_streams() {
        // Definition 2 with nothing forgiven is linearizability, and the
        // monitor runs it through the same chains: the same verdict and the
        // same counters, node for node, on every stream pinned above (the
        // garbled ones included, whose violation must match too).
        let (wide, wide_events, wide_config) = wide_stream();
        let (one_operation, sequential) = one_operation_stream();
        let batches = |segment_batch| MonitorConfig {
            segment_batch,
            ..MonitorConfig::default()
        };
        let rounds = |mut seed, rounds, counter, garbled| {
            let events = seeded_rounds(&mut seed, rounds, counter, garbled);
            (register_and_counter(), events)
        };
        let streams = [
            ((wide, wide_events), wide_config),
            (
                (one_operation.clone(), sequential.events().to_vec()),
                batches(64),
            ),
            (
                (one_operation, sequential.events().to_vec()),
                MonitorConfig {
                    min_segment_events: 4,
                    ..MonitorConfig::default()
                },
            ),
            (rounds(0x9e37_79b9_7f4a_7c15, 12, true, 0..12), batches(4)),
            (rounds(0x2545_f491_4f6c_dd1d, 80, false, 0..0), batches(16)),
            (rounds(0x1234_5678_9abc_def1, 20, true, 0..120), batches(64)),
        ];
        let mut violations = 0;
        for ((universe, events), config) in streams {
            let report = |condition| {
                let mut m = Monitor::new(
                    universe.clone(),
                    MonitorConfig {
                        condition,
                        ..config
                    },
                );
                m.ingest_all(events.iter().cloned()).expect("well-formed");
                m.finish()
            };
            let lin = report(MonitorCondition::Linearizability);
            assert_eq!(report(MonitorCondition::TLinearizability { t: 0 }), lin);
            violations += usize::from(matches!(lin.verdict, MonitorVerdict::Violation(_)));
        }
        assert!(violations >= 2, "{violations}");
    }
}
