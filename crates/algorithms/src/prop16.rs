//! Proposition 16: wait-free eventually linearizable consensus from
//! (eventually linearizable) registers.
//!
//! The algorithm, verbatim from the paper, for process `p_i`:
//!
//! ```text
//! Propose(v)
//!   if Proposal[i] = ⊥ then Proposal[i] := v
//!   read Proposal[1..n] and return leftmost non-⊥ value
//! end Propose
//! ```
//!
//! `Proposal[1..n]` is an array of single-writer multi-reader registers, each
//! initially `⊥`.  The implementation is wait-free (each operation takes at
//! most `n + 2` register accesses) and every history it produces is weakly
//! consistent and `t`-linearizable for some `t`, even when the base registers
//! are only eventually linearizable — that is what the experiments verify.

use crate::prop16::phase::Phase;
use evlin_history::ProcessId;
use evlin_sim::base::{objects, BaseObject};
use evlin_sim::eventually::{EventuallyLinearizable, StabilizationPolicy};
use evlin_sim::program::{Implementation, ProcessLogic, TaskStep};
use evlin_spec::{Invocation, Register, Value};
use std::sync::Arc;

/// Which kind of base registers the algorithm is instantiated over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegisterKind {
    /// Linearizable (atomic) registers.
    Linearizable,
    /// Eventually linearizable registers with the given stabilization policy.
    EventuallyLinearizable(StabilizationPolicy),
}

/// The Proposition 16 consensus implementation.
#[derive(Debug, Clone)]
pub struct Prop16Consensus {
    processes: usize,
    registers: RegisterKind,
}

impl Prop16Consensus {
    /// Creates the implementation for `processes` processes over linearizable
    /// registers.
    pub fn new(processes: usize) -> Self {
        Prop16Consensus {
            processes,
            registers: RegisterKind::Linearizable,
        }
    }

    /// Creates the implementation over *eventually linearizable* registers —
    /// the stronger statement actually proved by Proposition 16.
    pub fn with_eventually_linearizable_registers(
        processes: usize,
        policy: StabilizationPolicy,
    ) -> Self {
        Prop16Consensus {
            processes,
            registers: RegisterKind::EventuallyLinearizable(policy),
        }
    }
}

impl Implementation for Prop16Consensus {
    fn name(&self) -> String {
        match self.registers {
            RegisterKind::Linearizable => "Prop16 consensus (linearizable registers)".into(),
            RegisterKind::EventuallyLinearizable(_) => {
                "Prop16 consensus (eventually linearizable registers)".into()
            }
        }
    }

    fn processes(&self) -> usize {
        self.processes
    }

    fn initial_base_objects(&self) -> Vec<Box<dyn BaseObject>> {
        (0..self.processes)
            .map(|_| match self.registers {
                RegisterKind::Linearizable => objects::bottom_register(),
                RegisterKind::EventuallyLinearizable(policy) => Box::new(
                    EventuallyLinearizable::new(Arc::new(Register::new_bottom()), policy),
                )
                    as Box<dyn BaseObject>,
            })
            .collect()
    }

    fn new_process(&self, process: ProcessId) -> Box<dyn ProcessLogic> {
        Box::new(Prop16Logic {
            me: process,
            n: self.processes,
            proposal: Value::Bottom,
            phase: Phase::Idle,
            seen: Vec::new(),
        })
    }

    // Asymmetric: single-writer registers indexed by process id, and the
    // deterministic tie-break scans them in id order.
    fn process_symmetric_hint(&self) -> Option<bool> {
        Some(false)
    }
}

mod phase {
    /// Control state of one `Propose` execution.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(super) enum Phase {
        /// No operation in progress.
        Idle,
        /// About to read `Proposal[i]` (line 2, the test).
        ReadOwn,
        /// Waiting for the response of the read of `Proposal[i]`.
        AwaitOwn,
        /// Waiting for the acknowledgement of the write to `Proposal[i]`.
        AwaitWrite,
        /// Scanning `Proposal[k]` (line 3); the payload is the next index to
        /// read.
        Scan(usize),
    }
}

/// Programme state for [`Prop16Consensus`].
#[derive(Debug, Clone)]
struct Prop16Logic {
    me: ProcessId,
    n: usize,
    proposal: Value,
    phase: Phase,
    seen: Vec<Value>,
}

impl ProcessLogic for Prop16Logic {
    fn begin(&mut self, invocation: Invocation) {
        assert_eq!(
            invocation.method(),
            "propose",
            "Prop16 consensus only implements propose(v)"
        );
        self.proposal = invocation.arg(0).cloned().expect("propose carries a value");
        self.phase = Phase::ReadOwn;
        self.seen.clear();
    }

    fn step(&mut self, previous_response: Option<Value>) -> TaskStep {
        match self.phase.clone() {
            Phase::Idle => panic!("step called with no operation in progress"),
            Phase::ReadOwn => {
                self.phase = Phase::AwaitOwn;
                TaskStep::Access {
                    object: self.me.index(),
                    invocation: Register::read(),
                }
            }
            Phase::AwaitOwn => {
                let own = previous_response.expect("response of the read of Proposal[i]");
                if own.is_bottom() {
                    // line 2: Proposal[i] := v
                    self.phase = Phase::AwaitWrite;
                    TaskStep::Access {
                        object: self.me.index(),
                        invocation: Register::write(self.proposal.clone()),
                    }
                } else {
                    // Our own register is already set (a later propose by the
                    // same process); go straight to the scan.
                    self.begin_scan()
                }
            }
            Phase::AwaitWrite => {
                let _ack = previous_response.expect("write acknowledgement");
                self.begin_scan()
            }
            Phase::Scan(k) => {
                let value = previous_response.expect("response of the read of Proposal[k]");
                self.seen.push(value);
                self.continue_scan(k + 1)
            }
        }
    }

    fn clone_box(&self) -> Box<dyn ProcessLogic> {
        Box::new(self.clone())
    }
}

impl Prop16Logic {
    fn begin_scan(&mut self) -> TaskStep {
        self.seen.clear();
        self.continue_scan(0)
    }

    fn continue_scan(&mut self, next: usize) -> TaskStep {
        if next < self.n {
            self.phase = Phase::Scan(next);
            TaskStep::Access {
                object: next,
                invocation: Register::read(),
            }
        } else {
            self.phase = Phase::Idle;
            let decision = self
                .seen
                .iter()
                .find(|v| !v.is_bottom())
                .cloned()
                .expect("own proposal guarantees a non-⊥ value is visible");
            TaskStep::Complete(decision)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_checker::{eventual, weak_consistency};
    use evlin_history::ObjectUniverse;
    use evlin_sim::explorer::{terminal_histories, ExploreOptions};
    use evlin_sim::prelude::*;
    use evlin_spec::Consensus;

    fn consensus_universe() -> ObjectUniverse {
        let mut u = ObjectUniverse::new();
        u.add_object(Consensus::new());
        u
    }

    fn proposals(n: usize) -> Workload {
        Workload::one_shot(
            (0..n)
                .map(|i| Consensus::propose(Value::from(i as i64 * 10)))
                .collect(),
        )
    }

    #[test]
    fn round_robin_run_decides_and_is_weakly_consistent() {
        let imp = Prop16Consensus::new(3);
        let mut s = RoundRobinScheduler::new();
        let out = run(&imp, &proposals(3), &mut s, 10_000);
        assert!(out.completed_all);
        let u = consensus_universe();
        assert!(weak_consistency::is_weakly_consistent(&out.history, &u));
        let report = eventual::analyze(&out.history, &u);
        assert!(report.is_eventually_linearizable());
    }

    #[test]
    fn wait_freedom_bounded_steps_per_operation() {
        // Each propose takes at most n + 2 base accesses + 1 completion step.
        let n = 4;
        let imp = Prop16Consensus::new(n);
        let mut s = SoloBurstScheduler::new(1);
        let out = run(&imp, &proposals(n), &mut s, 10_000);
        assert!(out.completed_all);
        assert!(out.steps <= n * (n + 3));
    }

    #[test]
    fn all_interleavings_are_eventually_linearizable_two_processes() {
        // The exhaustive version of Proposition 16's correctness argument for
        // n = 2: every interleaving yields a weakly consistent history.
        let imp = Prop16Consensus::new(2);
        let u = consensus_universe();
        let histories = terminal_histories(
            &imp,
            &proposals(2),
            ExploreOptions {
                max_depth: 32,
                max_configs: 200_000,
            },
        );
        assert!(!histories.is_empty());
        for h in &histories {
            assert!(h.is_well_formed());
            assert!(
                weak_consistency::is_weakly_consistent(h, &u),
                "weak consistency violated:\n{h}"
            );
            assert!(eventual::is_eventually_linearizable(h, &u));
        }
    }

    #[test]
    fn disagreement_is_possible_but_stabilizes() {
        // Under an adversarial schedule two processes may return different
        // values (so the implementation is NOT linearizable), yet the history
        // is still eventually linearizable.  Run p0's operation to just
        // before its scan finishes, then let p1 run completely, etc.  We look
        // for a disagreement among all interleavings.
        let imp = Prop16Consensus::new(2);
        let u = consensus_universe();
        let histories = terminal_histories(
            &imp,
            &proposals(2),
            ExploreOptions {
                max_depth: 32,
                max_configs: 200_000,
            },
        );
        let mut saw_disagreement = false;
        for h in &histories {
            let decided: std::collections::BTreeSet<_> = h
                .complete_operations()
                .iter()
                .filter_map(|op| op.response.clone())
                .collect();
            if decided.len() > 1 {
                saw_disagreement = true;
                let report = eventual::analyze(h, &u);
                assert!(report.is_eventually_linearizable());
                assert!(!report.is_linearizable());
            }
        }
        assert!(
            saw_disagreement,
            "some interleaving must let both processes miss each other"
        );
    }

    #[test]
    fn works_over_eventually_linearizable_registers() {
        let imp = Prop16Consensus::with_eventually_linearizable_registers(
            3,
            StabilizationPolicy::AfterAccesses(6),
        );
        let u = consensus_universe();
        for seed in 0..10u64 {
            let mut s = RandomScheduler::seeded(seed);
            let out = run(&imp, &proposals(3), &mut s, 10_000);
            assert!(out.completed_all);
            assert!(
                weak_consistency::is_weakly_consistent(&out.history, &u),
                "seed {seed}:\n{}",
                out.history
            );
            assert!(eventual::is_eventually_linearizable(&out.history, &u));
        }
    }

    #[test]
    fn repeated_proposes_by_the_same_process_write_only_once() {
        let imp = Prop16Consensus::new(2);
        let w = Workload::new(vec![
            vec![
                Consensus::propose(Value::from(1i64)),
                Consensus::propose(Value::from(2i64)),
            ],
            vec![Consensus::propose(Value::from(3i64))],
        ]);
        let mut s = RoundRobinScheduler::new();
        let out = run(&imp, &w, &mut s, 10_000);
        assert!(out.completed_all);
        // p0's second propose returns the same decision as its first: its own
        // register still holds 1 and registers are scanned left to right.
        let ops = out.history.complete_operations();
        let p0_ops: Vec<_> = ops.iter().filter(|o| o.process == ProcessId(0)).collect();
        assert_eq!(p0_ops.len(), 2);
        assert_eq!(p0_ops[0].response, p0_ops[1].response);
    }
}
