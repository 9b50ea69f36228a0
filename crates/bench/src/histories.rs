//! Shared history families for the checker-scaling experiment (E10) and the
//! `checker_scaling` bench.

use evlin_history::generator::{concurrentize, random_sequential_legal, WorkloadSpec};
use evlin_history::{History, HistoryBuilder, ObjectUniverse, ProcessId};
use evlin_spec::{FetchIncrement, MaxRegister, Queue, Register, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A universe with `objects` shared objects, alternating registers and
/// fetch&increment counters.
pub fn mixed_universe(objects: usize) -> ObjectUniverse {
    let mut universe = ObjectUniverse::new();
    for k in 0..objects {
        if k % 2 == 0 {
            universe.add_object(Register::new(Value::from(0i64)));
        } else {
            universe.add_object(FetchIncrement::new());
        }
    }
    universe
}

/// A random linearizable-by-construction history spreading `ops` operations
/// over every object of `universe` — the *easy* multi-object family: a
/// witness exists and greedy search finds it quickly, so this family
/// measures the locality pre-pass's overhead, not its payoff.
pub fn random_linearizable(universe: &ObjectUniverse, ops: usize, seed: u64) -> History {
    let mut rng = StdRng::seed_from_u64(seed);
    let seq = random_sequential_legal(
        universe,
        &WorkloadSpec {
            processes: 3,
            operations: ops,
        },
        &mut rng,
    );
    concurrentize(&seq, 3, &mut rng)
}

/// A universe with one FIFO queue and one max-register — the non-counter
/// family that keeps the kernel hot path gated on objects with structured
/// (list-valued) states and non-interchangeable operations, where neither
/// the fetch&increment fast path nor a trivial response pattern applies.
pub fn queue_universe() -> ObjectUniverse {
    let mut universe = ObjectUniverse::new();
    universe.add_object(Queue::new());
    universe.add_object(MaxRegister::new());
    universe
}

/// A random linearizable-by-construction queue/max-register history with
/// `ops` operations (the `checker/queue_linearizability` bench family and
/// its gate baselines).
pub fn random_queue_linearizable(universe: &ObjectUniverse, ops: usize, seed: u64) -> History {
    random_linearizable(universe, ops, seed)
}

/// The *hard* multi-object family: every object carries `writes` concurrent
/// writes of distinct values plus one overlapping read of a value nobody
/// wrote.  Each projection is unsatisfiable, but a whole-history search can
/// only conclude that after exhausting the *product* of the per-object
/// subset spaces, while the locality pre-pass exhausts one object's subspace
/// — the first refuted projection refutes the history.  This is the worst
/// case the Herlihy–Wing locality decomposition is for: refutation-heavy,
/// multi-object checking (exactly what exhaustive exploration of buggy
/// implementations produces).
pub fn broken_per_object(objects: usize, writes: usize) -> (ObjectUniverse, History) {
    let mut universe = ObjectUniverse::new();
    let regs: Vec<_> = (0..objects)
        .map(|_| universe.add_object(Register::new(Value::from(0i64))))
        .collect();
    // Every operation overlaps every other (all invocations, then all
    // responses), so no precedence edges constrain the search.
    let mut b = HistoryBuilder::new();
    let mut process = 0usize;
    let mut responders: Vec<(usize, evlin_history::ObjectId, Value)> = Vec::new();
    for &r in &regs {
        b = b.invoke(ProcessId(process), r, Register::read());
        responders.push((process, r, Value::from((writes + 1) as i64)));
        process += 1;
        for v in 1..=writes {
            b = b.invoke(
                ProcessId(process),
                r,
                Register::write(Value::from(v as i64)),
            );
            responders.push((process, r, Value::Unit));
            process += 1;
        }
    }
    for (p, r, response) in responders {
        b = b.respond(ProcessId(p), r, response);
    }
    (universe, b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_checker::{is_linearizable, linearization_witness};

    #[test]
    fn easy_family_is_linearizable() {
        let u = mixed_universe(4);
        for seed in 0..3 {
            let h = random_linearizable(&u, 12, seed);
            assert!(is_linearizable(&h, &u));
            assert!(linearization_witness(&h, &u).is_some());
        }
    }

    #[test]
    fn queue_family_is_linearizable() {
        let u = queue_universe();
        for seed in 0..3 {
            let h = random_queue_linearizable(&u, 12, seed);
            assert!(!h.is_empty());
            assert!(is_linearizable(&h, &u));
        }
    }

    #[test]
    fn hard_family_is_unsatisfiable_per_object() {
        let (u, h) = broken_per_object(3, 3);
        assert_eq!(h.objects().len(), 3);
        assert!(!is_linearizable(&h, &u));
        // Every projection alone is already non-linearizable.
        for o in h.objects() {
            assert!(!is_linearizable(&h.project_object(o), &u));
        }
    }
}
