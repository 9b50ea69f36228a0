//! Specialized checkers for fetch&increment histories.
//!
//! The generic constrained-linearization search of [`crate::kernel`] is
//! exponential in the worst case, which is fine for the small histories used
//! in unit tests and bounded exploration but not for the hundreds of
//! thousands of operations produced by the runtime experiments (E7/E8).  For
//! a history consisting solely of `fetch_inc()` operations on a single object
//! there is a near-linear-time decision procedure, closely mirroring the
//! slot-assignment argument in the proof of Lemma 17:
//!
//! * each completed operation whose response lies after the first `t` events
//!   must occupy slot `response` of the linearization (the `k`-th linearized
//!   operation returns `initial + k`);
//! * the precedence constraints of Definition 2 translate into "an operation
//!   must return a value larger than every operation that completed (after
//!   event `t`) before it was invoked (after event `t`)";
//! * the remaining slots ("gaps") must be filled by operations that completed
//!   within the first `t` events or by pending operations, subject to the
//!   same precedence thresholds — a greedy matching decides feasibility.

use evlin_history::{Event, EventKind, History, ObjectId, ProcessId};
use std::fmt;

/// Errors returned when a history is not a pure single-object
/// fetch&increment history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FiError {
    /// The history mentions more than one object.
    MultipleObjects,
    /// An invocation other than `fetch_inc()` appears in the history.
    NotFetchInc {
        /// The offending method name.
        method: String,
    },
    /// A completed operation returned a non-integer response.
    NonIntegerResponse,
    /// The history is not well-formed.
    IllFormed,
}

impl fmt::Display for FiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FiError::MultipleObjects => write!(f, "history uses more than one object"),
            FiError::NotFetchInc { method } => {
                write!(f, "history contains a non-fetch_inc invocation: {method}")
            }
            FiError::NonIntegerResponse => write!(f, "fetch_inc returned a non-integer response"),
            FiError::IllFormed => write!(f, "history is not well-formed"),
        }
    }
}

impl std::error::Error for FiError {}

/// One fetch&increment operation extracted from a history.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FiOp {
    invoke_index: usize,
    respond_index: Option<usize>,
    response: Option<i64>,
}

/// A point of the precedence sweep in [`check`].
#[derive(Debug, Clone, Copy)]
enum Ev {
    LateResponse(i64),
    Invoke(usize), // index into `ops`
}

/// The working buffers of one check, reusable across checks: a caller that
/// decides many small projections (the online monitor, sixteen events at a
/// time) keeps one of these and allocates nothing per projection.
#[derive(Debug, Default)]
pub(crate) struct FiScratch {
    /// The operations of the events last extracted.
    ops: Vec<FiOp>,
    /// Pending operation per process: `(process, index into ops)`.  A linear
    /// scan is faster than a map for the handful of processes real histories
    /// have.
    pending: Vec<(ProcessId, usize)>,
    late: Vec<usize>,
    fillers: Vec<usize>,
    responses: Vec<i64>,
    timeline: Vec<(usize, Ev)>,
    thresholds: Vec<i64>,
    gaps: Vec<i64>,
    filler_thresholds: Vec<i64>,
}

/// Collects the operations of `events` into `scratch.ops`.
fn extract<'a>(
    events: impl IntoIterator<Item = &'a Event>,
    scratch: &mut FiScratch,
) -> Result<(), FiError> {
    // One fused sweep over the events checks well-formedness, the
    // single-object and fetch_inc-only constraints, and collects the
    // operations — the histories this fast path exists for have hundreds of
    // thousands of events, so the separate `is_well_formed` / `objects()` /
    // `operations()` passes (and their per-operation record clones) matter.
    // Indices are positions in `events`, whatever larger history the caller
    // picked them from.
    let FiScratch { ops, pending, .. } = scratch;
    ops.clear();
    pending.clear();
    let mut object: Option<ObjectId> = None;
    for (i, e) in events.into_iter().enumerate() {
        match object {
            Some(o) if o != e.object => return Err(FiError::MultipleObjects),
            Some(_) => {}
            None => object = Some(e.object),
        }
        match &e.kind {
            EventKind::Invoke(invocation) => {
                if pending.iter().any(|&(p, _)| p == e.process) {
                    return Err(FiError::IllFormed);
                }
                if invocation.method() != "fetch_inc" {
                    return Err(FiError::NotFetchInc {
                        method: invocation.method().to_owned(),
                    });
                }
                pending.push((e.process, ops.len()));
                ops.push(FiOp {
                    invoke_index: i,
                    respond_index: None,
                    response: None,
                });
            }
            EventKind::Respond(value) => {
                let Some(at) = pending.iter().position(|&(p, _)| p == e.process) else {
                    return Err(FiError::IllFormed);
                };
                let (_, op) = pending.swap_remove(at);
                ops[op].respond_index = Some(i);
                ops[op].response = Some(value.as_int().ok_or(FiError::NonIntegerResponse)?);
            }
        }
    }
    Ok(())
}

/// Decides `t`-linearizability of a pure fetch&increment history in
/// `O(n log n)` time.
///
/// # Errors
///
/// Returns an [`FiError`] if the history is not a well-formed single-object
/// fetch&increment history.
pub fn is_t_linearizable(history: &History, initial: i64, t: usize) -> Result<bool, FiError> {
    is_t_linearizable_events(history.events(), initial, t)
}

/// [`is_t_linearizable`] over a borrowed event sequence, with `t` counted in
/// positions of that sequence.  A caller that holds a projection `H|o` as
/// positions into a larger history (the online monitor does) checks it in
/// place, without materializing a [`History`].
///
/// # Errors
///
/// Returns an [`FiError`] if the events are not a well-formed single-object
/// fetch&increment history.
pub(crate) fn is_t_linearizable_events<'a>(
    events: impl IntoIterator<Item = &'a Event>,
    initial: i64,
    t: usize,
) -> Result<bool, FiError> {
    is_t_linearizable_events_in(events, initial, t, &mut FiScratch::default())
}

/// [`is_t_linearizable_events`] working in the caller's `scratch`.
pub(crate) fn is_t_linearizable_events_in<'a>(
    events: impl IntoIterator<Item = &'a Event>,
    initial: i64,
    t: usize,
    scratch: &mut FiScratch,
) -> Result<bool, FiError> {
    extract(events, scratch)?;
    Ok(check(scratch, initial, t))
}

/// Decides linearizability (`t = 0`) of a pure fetch&increment history.
///
/// # Errors
///
/// Returns an [`FiError`] if the history is not a well-formed single-object
/// fetch&increment history.
pub fn is_linearizable(history: &History, initial: i64) -> Result<bool, FiError> {
    is_t_linearizable(history, initial, 0)
}

/// Finds the minimal stabilization index of a pure fetch&increment history by
/// binary search (sound by Lemma 5).
///
/// # Errors
///
/// Returns an [`FiError`] if the history is not a well-formed single-object
/// fetch&increment history.
pub fn min_stabilization(history: &History, initial: i64) -> Result<usize, FiError> {
    let mut scratch = FiScratch::default();
    extract(history.events(), &mut scratch)?;
    let len = history.len();
    let mut lo = 0usize;
    let mut hi = len;
    debug_assert!(
        check(&mut scratch, initial, len),
        "t = |H| must always work"
    );
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if check(&mut scratch, initial, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(lo)
}

/// Core feasibility check of `scratch.ops` for a given `t`.
fn check(scratch: &mut FiScratch, initial: i64, t: usize) -> bool {
    let FiScratch {
        ops,
        late,
        fillers,
        responses,
        timeline,
        thresholds,
        gaps,
        filler_thresholds,
        ..
    } = scratch;
    // Partition the operations (by index into `ops`): completed with the
    // response at index >= t (fixed slot), or early-completed or pending
    // (free slot).
    late.clear();
    fillers.clear();
    for (i, op) in ops.iter().enumerate() {
        match op.respond_index {
            Some(r) if r >= t => late.push(i),
            _ => fillers.push(i),
        }
    }

    // Condition 1: late responses are distinct and >= initial.
    responses.clear();
    responses.extend(
        late.iter()
            .map(|&i| ops[i].response.expect("late is completed")),
    );
    responses.sort_unstable();
    if responses.iter().any(|&v| v < initial) {
        return false;
    }
    if responses.windows(2).any(|w| w[0] == w[1]) {
        return false;
    }

    // Precedence thresholds.  For an operation x invoked at index >= t, the
    // threshold is the largest response among late operations that responded
    // (at index >= t) before x was invoked; x must be assigned a slot greater
    // than its threshold.  Operations invoked before event t have no
    // precedence constraints.
    //
    // Sweep over "timestamps": process response events of late ops and
    // invocation events in global order.
    timeline.clear();
    for &i in late.iter() {
        let r = ops[i].respond_index.expect("late");
        timeline.push((r, Ev::LateResponse(ops[i].response.expect("late"))));
    }
    for (i, op) in ops.iter().enumerate() {
        if op.invoke_index >= t {
            timeline.push((op.invoke_index, Ev::Invoke(i)));
        }
    }
    timeline.sort_by_key(|(idx, _)| *idx);
    thresholds.clear();
    thresholds.resize(ops.len(), i64::MIN);
    let mut max_late_resp_so_far = i64::MIN;
    for &(_, ev) in timeline.iter() {
        match ev {
            Ev::LateResponse(v) => max_late_resp_so_far = max_late_resp_so_far.max(v),
            Ev::Invoke(i) => thresholds[i] = max_late_resp_so_far,
        }
    }

    // Condition 2: every late operation's response exceeds its threshold.
    for &i in late.iter() {
        if ops[i].response.expect("late") <= thresholds[i] && thresholds[i] != i64::MIN {
            return false;
        }
    }

    // Condition 3: every gap slot below the maximum late response can be
    // filled by a distinct filler whose threshold is below the slot.  (No
    // late operations: nothing is constrained.)
    gaps.clear();
    let mut next = initial;
    for &r in responses.iter() {
        while next < r {
            gaps.push(next);
            next += 1;
        }
        next = r + 1;
    }
    if gaps.is_empty() {
        return true;
    }
    filler_thresholds.clear();
    filler_thresholds.extend(fillers.iter().map(|&i| thresholds[i]));
    filler_thresholds.sort_unstable();
    // Greedy: gaps ascending, fillers by threshold ascending; a filler with
    // threshold < slot is usable for that slot and for every later slot.
    let mut available = 0usize;
    let mut fi = 0usize;
    for &slot in gaps.iter() {
        while fi < filler_thresholds.len() && filler_thresholds[fi] < slot {
            available += 1;
            fi += 1;
        }
        if available == 0 {
            return false;
        }
        available -= 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{linearizability, t_linearizability};
    use evlin_history::{HistoryBuilder, ObjectUniverse, ProcessId};
    use evlin_spec::{FetchIncrement, Register, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fi_universe() -> (ObjectUniverse, evlin_history::ObjectId) {
        let mut u = ObjectUniverse::new();
        let x = u.add_object(FetchIncrement::new());
        (u, x)
    }

    #[test]
    fn accepts_sequential_counting() {
        let (_, x) = fi_universe();
        let mut b = HistoryBuilder::new();
        for k in 0..20i64 {
            b = b.complete(
                ProcessId((k % 3) as usize),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(k),
            );
        }
        let h = b.build();
        assert_eq!(is_linearizable(&h, 0), Ok(true));
        assert_eq!(min_stabilization(&h, 0), Ok(0));
    }

    #[test]
    fn rejects_duplicates_and_finds_stabilization() {
        let (_, x) = fi_universe();
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
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .build();
        assert_eq!(is_linearizable(&h, 0), Ok(false));
        assert_eq!(min_stabilization(&h, 0), Ok(2));
    }

    #[test]
    fn pending_operations_fill_gaps() {
        let (_, x) = fi_universe();
        // A pending fetch_inc accounts for the missing value 0.
        let h = HistoryBuilder::new()
            .invoke(ProcessId(0), x, FetchIncrement::fetch_inc())
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .build();
        assert_eq!(is_linearizable(&h, 0), Ok(true));
        // Without any pending operation the gap cannot be filled.
        let h2 = HistoryBuilder::new()
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .build();
        assert_eq!(is_linearizable(&h2, 0), Ok(false));
    }

    #[test]
    fn gap_filler_must_start_before_needed() {
        let (_, x) = fi_universe();
        // op A returns 1 and completes; only afterwards does a pending
        // operation begin.  The pending operation cannot be linearized before
        // A (A precedes it), so the gap at 0 cannot be filled.
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .invoke(ProcessId(0), x, FetchIncrement::fetch_inc())
            .build();
        assert_eq!(is_linearizable(&h, 0), Ok(false));
    }

    #[test]
    fn respects_real_time_order() {
        let (_, x) = fi_universe();
        // First operation returns 1, the second (strictly later) returns 0.
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .invoke(ProcessId(2), x, FetchIncrement::fetch_inc())
            .build();
        assert_eq!(is_linearizable(&h, 0), Ok(false));
        // Dropping the first two events (t = 2) removes the constraint.
        assert_eq!(is_t_linearizable(&h, 0, 2), Ok(true));
        assert_eq!(min_stabilization(&h, 0), Ok(2));
    }

    #[test]
    fn nonzero_initial_value() {
        let (_, x) = fi_universe();
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(10i64),
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(11i64),
            )
            .build();
        assert_eq!(is_linearizable(&h, 10), Ok(true));
        assert_eq!(is_linearizable(&h, 0), Ok(false)); // gaps 0..9 unfillable
    }

    #[test]
    fn error_cases() {
        let mut u = ObjectUniverse::new();
        let x = u.add_object(FetchIncrement::new());
        let r = u.add_object(Register::new(Value::from(0i64)));
        let multi = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(ProcessId(0), r, Register::read(), Value::from(0i64))
            .build();
        assert_eq!(is_linearizable(&multi, 0), Err(FiError::MultipleObjects));

        let wrong_method = HistoryBuilder::new()
            .complete(ProcessId(0), x, Register::read(), Value::from(0i64))
            .build();
        assert!(matches!(
            is_linearizable(&wrong_method, 0),
            Err(FiError::NotFetchInc { .. })
        ));

        let bad_resp = HistoryBuilder::new()
            .complete(ProcessId(0), x, FetchIncrement::fetch_inc(), Value::Unit)
            .build();
        assert_eq!(
            is_linearizable(&bad_resp, 0),
            Err(FiError::NonIntegerResponse)
        );

        let ill_formed = HistoryBuilder::new()
            .respond(ProcessId(0), x, Value::from(0i64))
            .build();
        assert_eq!(is_linearizable(&ill_formed, 0), Err(FiError::IllFormed));
    }

    #[test]
    fn events_entry_point_reads_a_projection_in_place() {
        // Two interleaved counters: picking one's events out of the shared
        // history, by position, decides exactly what its projection does.
        let mut u = ObjectUniverse::new();
        let x = u.add_object(FetchIncrement::new());
        let y = u.add_object(FetchIncrement::new());
        let h = HistoryBuilder::new()
            .invoke(ProcessId(0), x, FetchIncrement::fetch_inc())
            .invoke(ProcessId(1), y, FetchIncrement::fetch_inc())
            .respond(ProcessId(1), y, Value::from(5i64))
            .respond(ProcessId(0), x, Value::from(0i64))
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .build();
        assert_eq!(is_linearizable(&h, 0), Err(FiError::MultipleObjects));
        for (object, initial) in [(x, 0), (y, 0), (y, 5)] {
            let in_place = h.events().iter().filter(|e| e.object == object);
            assert_eq!(
                is_t_linearizable_events(in_place, initial, 0),
                is_linearizable(&h.project_object(object), initial),
            );
        }
    }

    /// Differential test against the generic checker on random small
    /// histories: the specialized checker must agree with the general search
    /// both for linearizability and for the minimal stabilization index.
    #[test]
    fn agrees_with_generic_checker_on_random_histories() {
        let (u, x) = fi_universe();
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_ops = rng.gen_range(2..7usize);
            let mut b = HistoryBuilder::new();
            // Random (possibly ill-behaved) responses and overlap pattern,
            // one op per process to allow arbitrary overlap.
            let mut pending: Vec<(usize, i64)> = Vec::new();
            let mut next_val = 0i64;
            for p in 0..n_ops {
                b = b.invoke(ProcessId(p), x, FetchIncrement::fetch_inc());
                pending.push((p, next_val));
                // Bias responses toward plausible values with occasional noise.
                if rng.gen_bool(0.8) {
                    next_val += 1;
                }
                // Randomly complete some pending operations.
                while !pending.is_empty() && rng.gen_bool(0.6) {
                    let k = rng.gen_range(0..pending.len());
                    let (proc, val) = pending.remove(k);
                    let noise = if rng.gen_bool(0.2) {
                        rng.gen_range(0..3)
                    } else {
                        0
                    };
                    b = b.respond(ProcessId(proc), x, Value::from(val + noise));
                }
            }
            for (proc, val) in pending {
                if rng.gen_bool(0.5) {
                    b = b.respond(ProcessId(proc), x, Value::from(val));
                }
            }
            let h = b.build();
            let fast = is_linearizable(&h, 0).unwrap();
            let slow = linearizability::is_linearizable(&h, &u);
            assert_eq!(fast, slow, "linearizability mismatch (seed {seed})\n{h}");
            let fast_t = min_stabilization(&h, 0).unwrap();
            let slow_t = t_linearizability::min_stabilization(&h, &u, None).unwrap();
            assert_eq!(fast_t, slow_t, "stabilization mismatch (seed {seed})\n{h}");
        }
    }
}
