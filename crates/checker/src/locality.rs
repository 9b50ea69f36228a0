//! Locality of the consistency conditions (Lemmas 7–9, Proposition 9).
//!
//! * Lemma 7: a history `H` over finitely many objects is `t`-linearizable
//!   for some `t` iff each projection `H|o` is `t_o`-linearizable for some
//!   `t_o`.
//! * Lemma 8: `H` is weakly consistent iff each `H|o` is weakly consistent.
//! * Proposition 9: eventual linearizability is local for histories over
//!   finitely many objects — and the paper exhibits an infinite-object
//!   counterexample, reproduced (in truncated form) by experiment E3.
//!
//! The functions here compute per-object stabilization indices and compose
//! them into a global index exactly the way the proof of Lemma 7 does: choose
//! `t` large enough that the first `t` events of `H` contain the first `t_o`
//! events of `H|o` for every `o`.  That composition is exact, not only an
//! upper bound: for a fixed `t`, `t`-linearizability is itself local (see
//! [`composed_stabilization`]).
//!
//! These are the *diagnostic* faces of locality — per-object reports and the
//! composed index.  The *decision* faces live elsewhere:
//! [`crate::kernel::check_local`] decomposes linearizability checks per
//! object, [`crate::weak_consistency::is_weakly_consistent`] splits
//! multi-object histories by Lemma 8, and the streaming monitor
//! ([`crate::monitor`]) threads fixed-`t` checks through one chain per
//! object.

use crate::{t_linearizability, weak_consistency};
use evlin_history::{History, ObjectId, ObjectUniverse};

/// Per-object analysis of a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectReport {
    /// The object.
    pub object: ObjectId,
    /// Number of events of `H|o`.
    pub events: usize,
    /// Whether `H|o` is weakly consistent.
    pub weakly_consistent: bool,
    /// Minimal `t_o` (counted in events of `H|o`) such that `H|o` is
    /// `t_o`-linearizable, if found.
    pub min_stabilization: Option<usize>,
    /// The index (in `H`) of the last event of the `t_o`-prefix of `H|o`,
    /// i.e. the smallest global prefix length containing those events.
    /// `Some(0)` when `t_o = 0`.
    pub global_prefix_needed: Option<usize>,
}

/// Analyses every object of the universe separately (Lemmas 7 and 8).  The
/// report order follows the universe's object order.
pub fn per_object_reports(history: &History, universe: &ObjectUniverse) -> Vec<ObjectReport> {
    universe
        .object_ids()
        .into_iter()
        .map(|object| {
            let (projection, indices) = history.project_object_indexed(object);
            let min_stab = t_linearizability::min_stabilization(&projection, universe, None);
            let global_prefix_needed =
                min_stab.map(|t| if t == 0 { 0 } else { indices[t - 1] + 1 });
            ObjectReport {
                object,
                events: projection.len(),
                weakly_consistent: weak_consistency::is_weakly_consistent(&projection, universe),
                min_stabilization: min_stab,
                global_prefix_needed,
            }
        })
        .collect()
}

/// Composes per-object stabilization indices into a global stabilization
/// index, following the proof of Lemma 7: the global `t` must be large enough
/// that the first `t` events of `H` include the first `t_o` events of `H|o`
/// for every object `o`.  Returns `None` if some object failed to stabilize.
pub fn compose_stabilization(reports: &[ObjectReport]) -> Option<usize> {
    let mut t = 0usize;
    for r in reports {
        match r.global_prefix_needed {
            Some(g) => t = t.max(g),
            None => return None,
        }
    }
    Some(t)
}

/// Convenience: per-object analysis followed by composition.  The result is
/// the minimal global stabilization index, and `None` iff some projection
/// fails to stabilize (within the searches' node budget).
///
/// The composition is exact because, for a fixed `t`, `t`-linearizability is
/// local: every operation's constraints are decided by global positions
/// alone (a response before `t` is free and orders nothing, an invocation
/// before `t` is ordered after nothing), so the precedence left is an
/// interval order and Herlihy and Wing's locality argument applies, each
/// object `o` taking its `t_o` events among the first `t`.  As `t_o` is
/// monotone in `t` and so is `t`-linearizability (Lemma 5), the least `t`
/// whose prefix covers every object's minimal `t_o` is the least global one.
pub fn composed_stabilization(history: &History, universe: &ObjectUniverse) -> Option<usize> {
    compose_stabilization(&per_object_reports(history, universe))
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_history::{HistoryBuilder, ProcessId};
    use evlin_spec::{FetchIncrement, Register, Value};

    /// A two-object history whose register part needs stabilization but whose
    /// counter part is clean.
    fn mixed_history() -> (ObjectUniverse, History) {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let x = u.add_object(FetchIncrement::new());
        let h = HistoryBuilder::new()
            // Garbage-free counter operations.
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            // A read that ignores the earlier write (needs t > 0).
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(ProcessId(1), r, Register::read(), Value::from(0i64))
            .complete(ProcessId(1), r, Register::read(), Value::from(1i64))
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
    fn per_object_reports_cover_all_objects() {
        let (u, h) = mixed_history();
        let reports = per_object_reports(&h, &u);
        assert_eq!(reports.len(), 2);
        let reg = &reports[0];
        let counter = &reports[1];
        assert_eq!(reg.events, 6);
        assert_eq!(counter.events, 4);
        assert!(reg.weakly_consistent);
        assert!(counter.weakly_consistent);
        assert_eq!(counter.min_stabilization, Some(0));
        assert!(reg.min_stabilization.unwrap() > 0);
    }

    #[test]
    fn composition_bounds_global_stabilization() {
        let (u, h) = mixed_history();
        let composed = composed_stabilization(&h, &u).unwrap();
        let direct = t_linearizability::min_stabilization(&h, &u, None).unwrap();
        assert!(
            composed >= direct,
            "composition ({composed}) must upper-bound the direct answer ({direct})"
        );
        // And the composed index really does make the history t-linearizable.
        assert!(t_linearizability::is_t_linearizable(&h, &u, composed));
    }

    #[test]
    fn composition_is_the_minimal_global_stabilization() {
        // Seeded histories over two registers and a fetch&increment:
        // overlapping operations, some responses garbled.
        use evlin_history::generator::{
            concurrentize, perturb_responses, random_sequential_legal, WorkloadSpec,
        };
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut u = ObjectUniverse::new();
        u.add_object(Register::new(Value::from(0i64)));
        u.add_object(Register::new(Value::from(0i64)));
        u.add_object(FetchIncrement::new());
        let mut stabilizing = 0;
        for seed in 0..500u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let spec = WorkloadSpec {
                processes: rng.gen_range(2..=4),
                operations: rng.gen_range(2..=10),
            };
            let sequential = random_sequential_legal(&u, &spec, &mut rng);
            let concurrent = concurrentize(&sequential, 2, &mut rng);
            let garbled = rng.gen_range(0..3);
            let (h, _) = perturb_responses(&concurrent, garbled, &mut rng);
            let direct = t_linearizability::min_stabilization(&h, &u, None);
            assert_eq!(composed_stabilization(&h, &u), direct, "seed {seed}\n{h}");
            stabilizing += usize::from(direct.is_some_and(|t| t > 0));
        }
        assert!(stabilizing >= 100, "{stabilizing}");
    }

    #[test]
    fn truncated_infinite_object_counterexample_shape() {
        // The paper's counterexample to locality with infinitely many objects
        // (Section 3.2): for registers R1, R2, …, process p writes 1 to Ri
        // and q then reads 0 from Ri.  Each projection stabilizes after its
        // own 4 events, but the global index needed grows linearly with the
        // number of registers — with infinitely many registers there is no
        // single t.  We verify the growth on a truncated version.
        let k = 5usize;
        let mut u = ObjectUniverse::new();
        let regs: Vec<_> = (0..k)
            .map(|_| u.add_object(Register::new(Value::from(0i64))))
            .collect();
        let mut b = HistoryBuilder::new();
        for &reg in &regs {
            b = b
                .complete(
                    ProcessId(0),
                    reg,
                    Register::write(Value::from(1i64)),
                    Value::Unit,
                )
                .complete(ProcessId(1), reg, Register::read(), Value::from(0i64));
        }
        let h = b.build();
        let reports = per_object_reports(&h, &u);
        // Every projection needs a positive t_o (the stale read) but each is
        // small and constant…
        for r in &reports {
            assert!(r.min_stabilization.unwrap() > 0);
            assert!(r.min_stabilization.unwrap() <= 4);
        }
        // …while the composed global index grows with the object count: the
        // last register's stale read forces the prefix to cover almost the
        // whole history.
        let composed = compose_stabilization(&reports).unwrap();
        assert!(composed >= 4 * (k - 1));
    }

    #[test]
    fn composition_fails_if_any_object_fails() {
        let reports = vec![
            ObjectReport {
                object: ObjectId(0),
                events: 2,
                weakly_consistent: true,
                min_stabilization: Some(0),
                global_prefix_needed: Some(0),
            },
            ObjectReport {
                object: ObjectId(1),
                events: 2,
                weakly_consistent: true,
                min_stabilization: None,
                global_prefix_needed: None,
            },
        ];
        assert_eq!(compose_stabilization(&reports), None);
    }
}
