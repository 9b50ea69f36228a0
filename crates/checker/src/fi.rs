//! Specialized checkers for fetch&increment histories.
//!
//! The generic constrained-linearization search of [`crate::kernel`] is
//! exponential in the worst case, which is fine for the small histories used
//! in unit tests and bounded exploration but not for the hundreds of
//! thousands of operations produced by the runtime experiments (E7/E8).  For
//! a history consisting solely of `fetch_inc()` operations on a single object
//! there is a decision procedure linear in time and memory, the
//! slot-assignment argument in the proof of Lemma 17:
//!
//! * the `k`-th linearized operation returns `initial + k`, so a history of
//!   `n` operations has `n` slots, and each completed operation whose
//!   response lies after the first `t` events is fixed to slot
//!   `response − initial`; a response outside `[initial, initial + n)`
//!   refuses the history at once, whatever its magnitude;
//! * the precedence constraints of Definition 2 give every operation a
//!   *floor*: it must take a slot above every fixed slot whose operation
//!   completed (after event `t`) before it was invoked (after event `t`);
//! * the free slots below the highest fixed slot must be taken by distinct
//!   operations that completed within the first `t` events or are pending,
//!   each at or above its floor — counted per floor and filled in ascending
//!   slot order.
//!
//! One pass over the events extracts the operations; each check is one more
//! pass over them (setting floors; a response before event `t` fixes
//! nothing) and one over at most `n` slots.

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
#[derive(Debug, Clone, Copy)]
struct FiOp {
    /// The position of the response event, or `None` while the operation
    /// is pending.
    responded: Option<usize>,
    /// The lowest slot the operation may take, set by each check.
    floor: usize,
}

/// The operations of one history and the working buffers of its checks,
/// reusable across histories: a caller that decides many small projections
/// (the online monitor, sixteen events at a time) keeps one of these and
/// allocates nothing per projection.
#[derive(Debug, Default)]
pub(crate) struct FiScratch {
    /// The operations of the events last loaded.
    ops: Vec<FiOp>,
    /// Pending operation per process: `(process, index into ops)`.  A linear
    /// scan is faster than a map for the handful of processes real histories
    /// have.
    pending: Vec<(ProcessId, usize)>,
    /// Per event, in order: its operation (index into `ops`) and, for a
    /// response, the value returned.
    order: Vec<(usize, Option<i64>)>,
    /// Per slot, during a check: its balance (see [`FiScratch::check`]).
    slots: Vec<isize>,
}

impl FiScratch {
    /// A fresh scratch sized for `history`'s events: its operation and
    /// event lists are reserved once, not grown by doubling.
    fn sized_for(history: &History) -> Self {
        let events = history.len();
        let mut scratch = FiScratch::default();
        scratch.ops.reserve(events.div_ceil(2));
        scratch.order.reserve(events);
        scratch
    }

    /// Loads the operations of `events`, whose positions count from 0
    /// whatever larger history the caller picked them from.  A caller that
    /// holds a projection `H|o` as positions into a larger history (the
    /// online monitor does) checks it in place, without materializing a
    /// [`History`].
    ///
    /// # Errors
    ///
    /// Returns an [`FiError`] if the events are not a well-formed
    /// single-object fetch&increment history.
    pub(crate) fn load<'a>(
        &mut self,
        events: impl IntoIterator<Item = &'a Event>,
    ) -> Result<(), FiError> {
        // One fused sweep checks well-formedness, the single-object and
        // fetch_inc-only constraints, and collects the operations — the
        // histories this fast path exists for have hundreds of thousands of
        // events, so separate passes (and per-operation record clones)
        // matter.
        let FiScratch {
            ops,
            pending,
            order,
            ..
        } = self;
        ops.clear();
        pending.clear();
        order.clear();
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
                    order.push((ops.len(), None));
                    ops.push(FiOp {
                        responded: None,
                        floor: 0,
                    });
                }
                EventKind::Respond(value) => {
                    let Some(at) = pending.iter().position(|&(p, _)| p == e.process) else {
                        return Err(FiError::IllFormed);
                    };
                    let (_, op) = pending.swap_remove(at);
                    let value = value.as_int().ok_or(FiError::NonIntegerResponse)?;
                    ops[op].responded = Some(i);
                    order.push((op, Some(value)));
                }
            }
        }
        Ok(())
    }

    /// Decides `t`-linearizability of the loaded operations from `initial`.
    pub(crate) fn check(&mut self, initial: i64, t: usize) -> bool {
        let FiScratch {
            ops, order, slots, ..
        } = self;
        let n = ops.len();
        // A slot's balance: the free operations whose floor it is, less one
        // while no fixed response has taken it.  Every slot starts free.
        slots.clear();
        slots.resize(n, -1);
        // One past the highest fixed slot seen so far: the floor of an
        // operation invoked now.  Operations invoked before event `t` have
        // no precedence constraints, and no fixed response comes before `t`.
        let mut top = 0;
        for (i, &(op, response)) in order.iter().enumerate() {
            let op = &mut ops[op];
            let Some(response) = response else {
                op.floor = top;
                continue;
            };
            if i < t {
                continue;
            }
            let slot = match response.checked_sub(initial).map(usize::try_from) {
                Some(Ok(slot)) if slot < n => slot,
                _ => return false,
            };
            if slot < op.floor || slots[slot] == 0 {
                return false;
            }
            slots[slot] = 0;
            top = top.max(slot + 1);
        }
        // Count each free operation (pending, or answered before `t`) under
        // its floor; one whose floor is `top` fits no free slot.
        for op in ops.iter() {
            let fixed = op.responded.is_some_and(|at| at >= t);
            if !fixed && op.floor < top {
                slots[op.floor] += 1;
            }
        }
        // Greedy in ascending slot order: a free operation usable for a slot
        // is usable for every later one, so the slots below `top` can all be
        // filled iff no running balance goes negative.
        let mut spare = 0;
        slots[..top].iter().all(|&balance| {
            spare += balance;
            spare >= 0
        })
    }
}

/// Decides `t`-linearizability of a pure fetch&increment history in `O(n)`
/// time and memory.
///
/// # Errors
///
/// Returns an [`FiError`] if the history is not a well-formed single-object
/// fetch&increment history.
pub fn is_t_linearizable(history: &History, initial: i64, t: usize) -> Result<bool, FiError> {
    let mut scratch = FiScratch::sized_for(history);
    scratch.load(history.events())?;
    Ok(scratch.check(initial, t))
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
    let mut scratch = FiScratch::sized_for(history);
    scratch.load(history.events())?;
    let len = history.len();
    let mut lo = 0usize;
    let mut hi = len;
    debug_assert!(scratch.check(initial, len), "t = |H| must always work");
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if scratch.check(initial, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(lo)
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

    /// The monitor's in-place path: load a borrowed event sequence, check it.
    fn is_t_linearizable_events<'a>(
        events: impl IntoIterator<Item = &'a Event>,
        initial: i64,
        t: usize,
    ) -> Result<bool, FiError> {
        let mut scratch = FiScratch::default();
        scratch.load(events)?;
        Ok(scratch.check(initial, t))
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
    fn an_answer_far_past_the_operation_count_is_refused_at_once() {
        // One operation has one slot: an answer of `initial + 2^40` or an
        // `i64` extreme is refused when it is read, without a slot (or a
        // gap) per value below it.  Forgiving its response event (t = 2)
        // leaves nothing fixed.
        let (_, x) = fi_universe();
        for initial in [0i64, 3, -1] {
            for answer in [initial + (1 << 40), i64::MAX, i64::MIN] {
                let h = HistoryBuilder::new()
                    .complete(
                        ProcessId(0),
                        x,
                        FetchIncrement::fetch_inc(),
                        Value::from(answer),
                    )
                    .build();
                assert_eq!(is_linearizable(&h, initial), Ok(false), "{answer}");
                assert_eq!(is_t_linearizable(&h, initial, 1), Ok(false), "{answer}");
                assert_eq!(min_stabilization(&h, initial), Ok(2), "{answer}");
                // Behind a correct operation, it is the fourth event.
                let h = HistoryBuilder::new()
                    .complete(
                        ProcessId(1),
                        x,
                        FetchIncrement::fetch_inc(),
                        Value::from(initial),
                    )
                    .complete(
                        ProcessId(0),
                        x,
                        FetchIncrement::fetch_inc(),
                        Value::from(answer),
                    )
                    .build();
                assert_eq!(is_linearizable(&h, initial), Ok(false), "{answer}");
                assert_eq!(min_stabilization(&h, initial), Ok(4), "{answer}");
            }
        }
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
    /// for linearizability, for `t`-linearizability at every `t`, and for the
    /// minimal stabilization index.  After sixty histories of one operation
    /// per process from 0, histories start from initial states other than
    /// 0, give processes several operations, leave some pending, and answer
    /// below the initial state, twice, past the operation count and at the
    /// `i64` extremes.
    #[test]
    fn agrees_with_generic_checker_on_random_histories() {
        let (u, x) = fi_universe();
        let universes: Vec<(i64, ObjectUniverse)> = (-2..=2)
            .map(|initial| {
                let mut u = ObjectUniverse::new();
                assert_eq!(u.add_object(FetchIncrement::starting_at(initial)), x);
                (initial, u)
            })
            .collect();
        for seed in 0..2_060u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (initial, u, h) = if seed < 60 {
                (0, &u, one_operation_per_process(&mut rng, x))
            } else {
                let (initial, u) = &universes[rng.gen_range(0..universes.len())];
                (*initial, u, random_history(&mut rng, x, *initial))
            };
            let fast = is_linearizable(&h, initial).unwrap();
            let slow = linearizability::is_linearizable(&h, u);
            assert_eq!(fast, slow, "linearizability mismatch (seed {seed})\n{h}");
            for t in 0..=h.len() {
                assert_eq!(
                    is_t_linearizable(&h, initial, t).unwrap(),
                    t_linearizability::is_t_linearizable(&h, u, t),
                    "{t}-linearizability mismatch (seed {seed})\n{h}"
                );
            }
            let fast_t = min_stabilization(&h, initial).unwrap();
            let slow_t = t_linearizability::min_stabilization(&h, u, None).unwrap();
            assert_eq!(fast_t, slow_t, "stabilization mismatch (seed {seed})\n{h}");
        }
    }

    /// Two to six `fetch_inc()` operations from 0, one per process to allow
    /// arbitrary overlap, with random (possibly ill-behaved) responses.
    fn one_operation_per_process(rng: &mut StdRng, x: evlin_history::ObjectId) -> History {
        let n_ops = rng.gen_range(2..7usize);
        let mut b = HistoryBuilder::new();
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
        b.build()
    }

    /// Up to six `fetch_inc()` operations over up to four processes, each
    /// process invoking again once answered; operations still open at the
    /// end stay pending.  Most answers are the next plausible value.
    fn random_history(rng: &mut StdRng, x: evlin_history::ObjectId, initial: i64) -> History {
        let n_ops = rng.gen_range(1..7usize);
        let n_procs = rng.gen_range(1..5usize);
        let mut b = HistoryBuilder::new();
        let mut open: Vec<usize> = Vec::new();
        let (mut invoked, mut next, mut answers) = (0, initial, Vec::new());
        while invoked < n_ops || (!open.is_empty() && rng.gen_bool(0.7)) {
            let idle = (0..n_procs).find(|p| !open.contains(p));
            match idle {
                Some(p) if invoked < n_ops && (open.is_empty() || rng.gen_bool(0.5)) => {
                    b = b.invoke(ProcessId(p), x, FetchIncrement::fetch_inc());
                    open.push(p);
                    invoked += 1;
                }
                _ if open.is_empty() => break,
                _ => {
                    let p = open.swap_remove(rng.gen_range(0..open.len()));
                    let answer = match rng.gen_range(0..16) {
                        0 => initial - rng.gen_range(1..3i64),
                        1 if !answers.is_empty() => answers[rng.gen_range(0..answers.len())],
                        2 => initial + n_ops as i64 + rng.gen_range(0..3i64),
                        3 => i64::MAX,
                        4 => i64::MIN,
                        5 => initial + rng.gen_range(0..n_ops as i64),
                        _ => {
                            next += 1;
                            next - 1
                        }
                    };
                    answers.push(answer);
                    b = b.respond(ProcessId(p), x, Value::from(answer));
                }
            }
        }
        b.build()
    }
}
