//! Multi-threaded consensus objects: linearizable and eventually linearizable.
//!
//! Two implementations, mirroring the paper's contrast:
//!
//! * [`CasConsensus`] — linearizable: the first compare&swap on the decision
//!   word wins (consensus *requires* such a primitive, by Proposition 15 /
//!   the classical hierarchy);
//! * [`RegisterConsensus`] — the Proposition 16 algorithm on plain atomic
//!   registers: announce your proposal in your own slot, then return the
//!   leftmost announced value.  It is wait-free and eventually linearizable
//!   but *not* linearizable: two threads that miss each other's announcements
//!   can return different values.

use std::sync::atomic::{AtomicI64, Ordering};

/// A shared one-shot consensus object over `i64` proposals.
pub trait ConcurrentConsensus: Send + Sync {
    /// Proposes `value` on behalf of `thread` and returns the value this
    /// thread adopts.
    fn propose(&self, thread: usize, value: i64) -> i64;

    /// A short human-readable name.
    fn name(&self) -> &'static str;
}

const UNSET: i64 = i64::MIN;

/// Linearizable consensus: first successful compare&swap wins.
#[derive(Debug)]
pub struct CasConsensus {
    decision: AtomicI64,
}

impl CasConsensus {
    /// Creates an undecided consensus object.
    pub fn new() -> Self {
        CasConsensus {
            decision: AtomicI64::new(UNSET),
        }
    }

    /// The decided value, if any.
    pub fn decided(&self) -> Option<i64> {
        match self.decision.load(Ordering::SeqCst) {
            UNSET => None,
            v => Some(v),
        }
    }
}

impl Default for CasConsensus {
    fn default() -> Self {
        CasConsensus::new()
    }
}

impl ConcurrentConsensus for CasConsensus {
    fn propose(&self, _thread: usize, value: i64) -> i64 {
        assert_ne!(value, UNSET, "the sentinel value cannot be proposed");
        match self
            .decision
            .compare_exchange(UNSET, value, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => value,
            Err(winner) => winner,
        }
    }

    fn name(&self) -> &'static str {
        "cas-consensus"
    }
}

/// The Proposition 16 algorithm on real atomic registers: eventually
/// linearizable, wait-free, but not linearizable.
#[derive(Debug)]
pub struct RegisterConsensus {
    proposals: Vec<AtomicI64>,
}

impl RegisterConsensus {
    /// Creates the object for `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "at least one thread is required");
        RegisterConsensus {
            proposals: (0..threads).map(|_| AtomicI64::new(UNSET)).collect(),
        }
    }

    /// The number of proposal slots.
    pub fn slots(&self) -> usize {
        self.proposals.len()
    }
}

impl ConcurrentConsensus for RegisterConsensus {
    fn propose(&self, thread: usize, value: i64) -> i64 {
        assert_ne!(value, UNSET, "the sentinel value cannot be proposed");
        // line 2: if Proposal[i] = ⊥ then Proposal[i] := v
        if self.proposals[thread].load(Ordering::Acquire) == UNSET {
            self.proposals[thread].store(value, Ordering::Release);
        }
        // line 3: read Proposal[1..n] and return leftmost non-⊥ value
        for slot in &self.proposals {
            let v = slot.load(Ordering::Acquire);
            if v != UNSET {
                return v;
            }
        }
        unreachable!("our own slot is non-⊥ by the time we scan")
    }

    fn name(&self) -> &'static str {
        "register-consensus (Prop 16)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    fn run_threads(c: &dyn ConcurrentConsensus, proposals: &[i64]) -> Vec<i64> {
        let results: Vec<Mutex<i64>> = proposals.iter().map(|_| Mutex::new(UNSET)).collect();
        std::thread::scope(|s| {
            for (t, &p) in proposals.iter().enumerate() {
                let results = &results;
                s.spawn(move || {
                    *results[t].lock().expect("result slot") = c.propose(t, p);
                });
            }
        });
        results
            .into_iter()
            .map(|m| m.into_inner().expect("result slot"))
            .collect()
    }

    #[test]
    fn cas_consensus_agrees_and_is_valid() {
        for _ in 0..50 {
            let c = CasConsensus::new();
            let proposals = [10, 20, 30, 40];
            let decisions = run_threads(&c, &proposals);
            let distinct: BTreeSet<_> = decisions.iter().copied().collect();
            assert_eq!(distinct.len(), 1, "agreement violated: {decisions:?}");
            let d = *distinct.iter().next().unwrap();
            assert!(proposals.contains(&d), "validity violated: {d}");
            assert_eq!(c.decided(), Some(d));
        }
    }

    #[test]
    fn cas_consensus_sequential_proposals_adopt_first() {
        let c = CasConsensus::new();
        assert_eq!(c.decided(), None);
        assert_eq!(c.propose(0, 7), 7);
        assert_eq!(c.propose(1, 9), 7);
        assert_eq!(c.decided(), Some(7));
        assert_eq!(c.name(), "cas-consensus");
    }

    #[test]
    fn register_consensus_is_valid_but_may_disagree() {
        // Validity always holds; agreement may fail under concurrency (that
        // is what makes it only *eventually* linearizable).  We only assert
        // validity here; the disagreement statistics are an experiment (E1).
        let c = RegisterConsensus::new(4);
        assert_eq!(c.slots(), 4);
        let proposals = [10, 20, 30, 40];
        let decisions = run_threads(&c, &proposals);
        for d in &decisions {
            assert!(proposals.contains(d), "validity violated: {d}");
        }
    }

    #[test]
    fn register_consensus_sequential_behaviour_matches_prop16() {
        let c = RegisterConsensus::new(3);
        // Thread 1 proposes first and, scanning left to right, adopts its own
        // value (slot 0 is still unset).
        assert_eq!(c.propose(1, 20), 20);
        // Thread 0 then proposes; the leftmost non-⊥ slot is its own.
        assert_eq!(c.propose(0, 10), 10);
        // Thread 2 sees slot 0 first.
        assert_eq!(c.propose(2, 30), 10);
        assert!(c.name().contains("Prop 16"));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = RegisterConsensus::new(0);
    }
}
