//! Valency analysis for consensus implementations (Proposition 15).
//!
//! The proof of Proposition 15 is a classical valency argument: the initial
//! configuration of a putative two-process consensus algorithm is
//! multivalent, every multivalent configuration has a multivalent child
//! unless it is *critical*, and a critical configuration whose pending steps
//! act on registers (or on eventually linearizable objects) yields a
//! contradiction.  This module makes the pieces of that argument executable:
//!
//! * `valency_of` classifies a configuration as univalent, bivalent or
//!   undetermined by bounded exhaustive exploration of its descendants;
//! * [`bivalence_walk`] follows a bivalence-preserving schedule for as long
//!   as possible — for implementations from registers only this walk keeps
//!   going (the executable face of the impossibility), whereas for
//!   implementations using consensus-power primitives it quickly reaches a
//!   critical configuration;
//! * [`check_consensus`] exhaustively checks agreement and validity over all
//!   interleavings of a one-shot consensus workload.

use crate::config::Config;
use crate::engine::{self, EngineOptions};
use crate::explorer::{ExploreOptions, Visit};
use crate::program::Implementation;
use crate::workload::Workload;
use evlin_history::History;
use evlin_spec::{Consensus, Value};
use std::collections::BTreeSet;

/// The valency of a configuration, as determined by bounded exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValencyClass {
    /// Every decision reachable within the bound is this single value, and
    /// the exploration was exhaustive (no path hit the depth bound).
    Univalent(Value),
    /// At least two different decision values are reachable.
    Bivalent(BTreeSet<Value>),
    /// No decision (or only some decisions) could be established before the
    /// exploration bound was hit.
    Undetermined,
}

impl ValencyClass {
    /// Whether the configuration is definitely bivalent.
    pub(crate) fn is_bivalent(&self) -> bool {
        matches!(self, ValencyClass::Bivalent(_))
    }
}

/// Collects every decision value reachable from `config` under `options`.
/// Returns the set of decisions and whether the exploration hit a bound
/// anywhere (in which case the set may be incomplete).
fn reachable_decisions(config: &Config, options: &EngineOptions) -> (BTreeSet<Value>, bool) {
    let mut decisions = BTreeSet::new();
    let mut partial = false;
    let depth = options.limits.max_depth;
    let stats = engine::explore_config(config.clone(), None, options, |c, d| {
        // Record decisions from completed propose operations.
        for op in c.history().complete_operations() {
            if let Some(v) = &op.response {
                decisions.insert(v.clone());
            }
        }
        if decisions.len() >= 2 {
            // Already bivalent; no need to keep exploring.
            return Visit::Stop;
        }
        if d >= depth && !c.is_quiescent() {
            partial = true;
        }
        Visit::Continue
    });
    if stats.truncated {
        partial = true;
    }
    (decisions, partial)
}

/// Classifies the valency of a configuration by bounded, unreduced
/// exploration of its descendants.
pub(crate) fn valency_of(config: &Config, depth: usize, max_configs: usize) -> ValencyClass {
    valency_under(
        config,
        &EngineOptions {
            limits: ExploreOptions {
                max_depth: depth,
                max_configs,
            },
            ..EngineOptions::default()
        },
    )
}

/// [`valency_of`] under any engine options.  The classification does not
/// depend on the [`Reduction`](crate::engine::Reduction) — decision values
/// persist in the recorded history, terminal configurations are preserved by
/// sleep sets, and symmetry canonicalization renames processes without
/// touching response values — nor on the visited store's configuration.
pub(crate) fn valency_under(config: &Config, options: &EngineOptions) -> ValencyClass {
    let (decisions, partial) = reachable_decisions(config, options);
    if decisions.len() >= 2 {
        ValencyClass::Bivalent(decisions)
    } else if decisions.len() == 1 && !partial {
        ValencyClass::Univalent(decisions.into_iter().next().expect("len 1"))
    } else {
        ValencyClass::Undetermined
    }
}

/// The outcome of a bivalence-preserving walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BivalenceWalk {
    /// Number of steps taken while staying in (definitely) bivalent
    /// configurations.
    pub bivalent_steps: usize,
    /// Why the walk ended.
    pub ended: WalkEnd,
    /// The valencies of the children of the last bivalent configuration
    /// reached, for reporting critical configurations.
    pub final_children: Vec<ValencyClass>,
}

/// Why a [`bivalence_walk`] ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalkEnd {
    /// The step limit was reached while the configuration was still
    /// bivalent — evidence of an adversarial schedule that postpones
    /// agreement indefinitely (the executable face of FLP/Proposition 15).
    StillBivalentAtLimit,
    /// A critical configuration was reached: the configuration is bivalent
    /// but every child is univalent (or no child is bivalent within the
    /// lookahead).
    CriticalConfiguration,
    /// The initial configuration was not bivalent in the first place.
    InitiallyUnivalent,
}

/// Follows a bivalence-preserving schedule from the initial configuration of
/// a one-shot consensus workload (process `i` proposes `proposals[i]`).
///
/// At each step every enabled process's successor is classified with
/// lookahead `lookahead`; the walk moves to a bivalent successor if one
/// exists.  `max_walk` bounds the number of steps.
pub fn bivalence_walk(
    implementation: &dyn Implementation,
    proposals: &[Value],
    lookahead: usize,
    max_configs: usize,
    max_walk: usize,
) -> BivalenceWalk {
    let workload = Workload::one_shot(
        proposals
            .iter()
            .map(|v| Consensus::propose(v.clone()))
            .collect(),
    );
    let mut config = Config::initial(implementation, &workload);
    if !valency_of(&config, lookahead, max_configs).is_bivalent() {
        return BivalenceWalk {
            bivalent_steps: 0,
            ended: WalkEnd::InitiallyUnivalent,
            final_children: Vec::new(),
        };
    }
    let mut steps = 0usize;
    loop {
        if steps >= max_walk {
            return BivalenceWalk {
                bivalent_steps: steps,
                ended: WalkEnd::StillBivalentAtLimit,
                final_children: Vec::new(),
            };
        }
        let mut children: Vec<(Config, ValencyClass)> = Vec::new();
        for p in config.enabled_processes() {
            let mut child = config.clone();
            child.step(p);
            let class = valency_of(&child, lookahead, max_configs);
            children.push((child, class));
        }
        if children.is_empty() {
            return BivalenceWalk {
                bivalent_steps: steps,
                ended: WalkEnd::CriticalConfiguration,
                final_children: Vec::new(),
            };
        }
        match children.iter().position(|(_, class)| class.is_bivalent()) {
            Some(idx) => {
                config = children.swap_remove(idx).0;
                steps += 1;
            }
            None => {
                return BivalenceWalk {
                    bivalent_steps: steps,
                    ended: WalkEnd::CriticalConfiguration,
                    final_children: children.into_iter().map(|(_, c)| c).collect(),
                };
            }
        }
    }
}

/// The result of an exhaustive agreement/validity check of a consensus
/// implementation on a one-shot workload.
#[derive(Debug, Clone)]
pub struct ConsensusCheck {
    /// A history in which two completed propose operations returned different
    /// values, if one was found.
    pub agreement_violation: Option<History>,
    /// A history in which some propose operation returned a value nobody
    /// proposed, if one was found.
    pub validity_violation: Option<History>,
    /// Whether every explored execution completed all operations within the
    /// depth bound.
    pub all_terminated: bool,
    /// Number of terminal configurations examined.
    pub terminals: usize,
}

impl ConsensusCheck {
    /// Whether no violation was found.
    pub fn is_correct(&self) -> bool {
        self.agreement_violation.is_none() && self.validity_violation.is_none()
    }
}

/// Exhaustively checks agreement and validity of `implementation` when
/// process `i` proposes `proposals[i]`, over all interleavings up to
/// `options.max_depth` steps.
pub fn check_consensus(
    implementation: &dyn Implementation,
    proposals: &[Value],
    options: ExploreOptions,
) -> ConsensusCheck {
    check_consensus_under(
        implementation,
        proposals,
        &EngineOptions {
            limits: options,
            ..EngineOptions::default()
        },
    )
}

/// [`check_consensus`] under any engine options.
///
/// Agreement/validity violations persist in the history once recorded and
/// both properties are process-symmetric, so every
/// [`Reduction`](crate::engine::Reduction) returns the same verdicts (the
/// `terminals` count shrinks with the reduction), as does every
/// visited-store configuration.
///
/// A positive [`EngineOptions::fault_budget`] additionally enumerates that
/// many transient-fault corruption steps ([`crate::fault`]) along every
/// schedule.  Agreement under transient faults is a self-stabilization
/// question, and consensus is the canonical *non*-self-stabilizing task: one
/// corruption of a decided base object flips the decision other processes
/// later read, so even implementations that are correct fault-free fail this
/// check at budget 1.
pub(crate) fn check_consensus_under(
    implementation: &dyn Implementation,
    proposals: &[Value],
    options: &EngineOptions,
) -> ConsensusCheck {
    let workload = Workload::one_shot(
        proposals
            .iter()
            .map(|v| Consensus::propose(v.clone()))
            .collect(),
    );
    let proposed: BTreeSet<Value> = proposals.iter().cloned().collect();
    let mut check = ConsensusCheck {
        agreement_violation: None,
        validity_violation: None,
        all_terminated: true,
        terminals: 0,
    };
    let total_ops = workload.total_operations();
    engine::explore(implementation, &workload, options, |config, depth| {
        let complete = config.history().complete_operations();
        let decided: BTreeSet<Value> = complete
            .iter()
            .filter_map(|op| op.response.clone())
            .collect();
        if decided.len() > 1 && check.agreement_violation.is_none() {
            check.agreement_violation = Some(config.history().clone());
        }
        if decided.iter().any(|v| !proposed.contains(v)) && check.validity_violation.is_none() {
            check.validity_violation = Some(config.history().clone());
        }
        let terminal = config.is_quiescent() || depth >= options.limits.max_depth;
        if terminal {
            check.terminals += 1;
            if complete.len() < total_ops {
                check.all_terminated = false;
            }
        }
        Visit::Continue
    });
    check
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::{objects, BaseObject};
    use crate::engine::Reduction;
    use crate::program::{ProcessLogic, TaskStep};
    use evlin_history::ProcessId;
    use evlin_spec::Invocation;

    /// A correct (linearizable) consensus implementation that simply defers
    /// to a linearizable consensus base object — used to validate the
    /// analysis tooling itself.
    #[derive(Debug, Clone)]
    struct DirectConsensus {
        processes: usize,
    }

    #[derive(Debug, Clone)]
    struct DirectLogic {
        pending: Option<Invocation>,
        accessed: bool,
    }

    impl Implementation for DirectConsensus {
        fn name(&self) -> String {
            "direct consensus".into()
        }
        fn processes(&self) -> usize {
            self.processes
        }
        fn initial_base_objects(&self) -> Vec<Box<dyn BaseObject>> {
            vec![objects::consensus()]
        }
        fn new_process(&self, _p: ProcessId) -> Box<dyn ProcessLogic> {
            Box::new(DirectLogic {
                pending: None,
                accessed: false,
            })
        }
    }

    impl ProcessLogic for DirectLogic {
        fn begin(&mut self, invocation: Invocation) {
            self.pending = Some(invocation);
            self.accessed = false;
        }
        fn step(&mut self, previous_response: Option<Value>) -> TaskStep {
            if !self.accessed {
                self.accessed = true;
                TaskStep::Access {
                    object: 0,
                    invocation: self.pending.clone().expect("begin was called"),
                }
            } else {
                TaskStep::Complete(previous_response.expect("response from base object"))
            }
        }
        fn clone_box(&self) -> Box<dyn ProcessLogic> {
            Box::new(self.clone())
        }
    }

    /// A deliberately broken "consensus" where each process just returns its
    /// own proposal (no communication) — agreement fails.
    #[derive(Debug, Clone)]
    struct SelfishConsensus {
        processes: usize,
    }

    #[derive(Debug, Clone)]
    struct SelfishLogic {
        pending: Option<Invocation>,
    }

    impl Implementation for SelfishConsensus {
        fn name(&self) -> String {
            "selfish consensus".into()
        }
        fn processes(&self) -> usize {
            self.processes
        }
        fn initial_base_objects(&self) -> Vec<Box<dyn BaseObject>> {
            Vec::new()
        }
        fn new_process(&self, _p: ProcessId) -> Box<dyn ProcessLogic> {
            Box::new(SelfishLogic { pending: None })
        }
    }

    impl ProcessLogic for SelfishLogic {
        fn begin(&mut self, invocation: Invocation) {
            self.pending = Some(invocation);
        }
        fn step(&mut self, _previous: Option<Value>) -> TaskStep {
            let inv = self.pending.clone().expect("begin was called");
            TaskStep::Complete(inv.arg(0).cloned().expect("propose has an argument"))
        }
        fn clone_box(&self) -> Box<dyn ProcessLogic> {
            Box::new(self.clone())
        }
    }

    fn proposals() -> Vec<Value> {
        vec![Value::from(0i64), Value::from(1i64)]
    }

    #[test]
    fn direct_consensus_passes_exhaustive_check() {
        let imp = DirectConsensus { processes: 2 };
        let check = check_consensus(&imp, &proposals(), ExploreOptions::default());
        assert!(check.is_correct());
        assert!(check.all_terminated);
        assert!(check.terminals >= 2);
    }

    #[test]
    fn selfish_consensus_fails_agreement() {
        let imp = SelfishConsensus { processes: 2 };
        let check = check_consensus(&imp, &proposals(), ExploreOptions::default());
        assert!(check.agreement_violation.is_some());
        assert!(check.validity_violation.is_none());
    }

    #[test]
    fn initial_configuration_of_direct_consensus_is_bivalent() {
        let imp = DirectConsensus { processes: 2 };
        let workload = Workload::one_shot(vec![
            Consensus::propose(Value::from(0i64)),
            Consensus::propose(Value::from(1i64)),
        ]);
        let config = Config::initial(&imp, &workload);
        let v = valency_of(&config, 16, 10_000);
        assert!(v.is_bivalent(), "got {v:?}");
    }

    #[test]
    fn direct_consensus_walk_reaches_critical_configuration_quickly() {
        let imp = DirectConsensus { processes: 2 };
        let walk = bivalence_walk(&imp, &proposals(), 16, 10_000, 32);
        assert_eq!(walk.ended, WalkEnd::CriticalConfiguration);
        // The step on the linearizable consensus base object decides the
        // outcome, so bivalence ends after at most one access per process.
        assert!(walk.bivalent_steps <= 2, "walk = {walk:?}");
        // At the critical configuration every child is univalent.
        assert!(walk
            .final_children
            .iter()
            .all(|c| matches!(c, ValencyClass::Univalent(_))));
    }

    #[test]
    fn univalent_when_both_propose_the_same_value() {
        let imp = DirectConsensus { processes: 2 };
        let workload = Workload::one_shot(vec![
            Consensus::propose(Value::from(1i64)),
            Consensus::propose(Value::from(1i64)),
        ]);
        let config = Config::initial(&imp, &workload);
        assert_eq!(
            valency_of(&config, 16, 10_000),
            ValencyClass::Univalent(Value::from(1i64))
        );
        let walk = bivalence_walk(
            &imp,
            &[Value::from(1i64), Value::from(1i64)],
            16,
            10_000,
            32,
        );
        assert_eq!(walk.ended, WalkEnd::InitiallyUnivalent);
    }

    #[test]
    fn reduced_checks_agree_with_unreduced() {
        let strategies = [
            Reduction::SleepSet,
            Reduction::Symmetry,
            Reduction::SleepSetSymmetry,
        ];
        let selfish = SelfishConsensus { processes: 2 };
        let direct = DirectConsensus { processes: 2 };
        for r in strategies {
            let reduced = EngineOptions {
                reduction: r,
                ..EngineOptions::default()
            };
            let broken = check_consensus_under(&selfish, &proposals(), &reduced);
            assert!(broken.agreement_violation.is_some(), "{r:?}");
            assert!(broken.validity_violation.is_none(), "{r:?}");
            let sound = check_consensus_under(&direct, &proposals(), &reduced);
            assert!(sound.is_correct(), "{r:?}");
            assert!(sound.all_terminated, "{r:?}");
        }
        // Valency classification is reduction-independent too.
        let workload = Workload::one_shot(vec![
            Consensus::propose(Value::from(0i64)),
            Consensus::propose(Value::from(1i64)),
        ]);
        let config = Config::initial(&direct, &workload);
        for r in strategies {
            let reduced = EngineOptions {
                limits: ExploreOptions {
                    max_depth: 16,
                    max_configs: 10_000,
                },
                reduction: r,
                ..EngineOptions::default()
            };
            assert!(valency_under(&config, &reduced).is_bivalent(), "{r:?}");
        }
    }

    #[test]
    fn transient_fault_breaks_consensus_agreement() {
        // Fault-free the direct implementation is correct, but consensus is
        // not self-stabilizing: a single corruption of the decided base
        // object flips the value later proposers read.
        let imp = DirectConsensus { processes: 2 };
        for r in [
            Reduction::None,
            Reduction::SleepSet,
            Reduction::SleepSetSymmetry,
        ] {
            let faulty = check_consensus_under(
                &imp,
                &proposals(),
                &EngineOptions {
                    reduction: r,
                    fault_budget: 1,
                    ..EngineOptions::default()
                },
            );
            assert!(faulty.agreement_violation.is_some(), "{r:?}");
            // Corruptions stay within reachable (hence proposed) values, so
            // validity survives even under faults.
            assert!(faulty.validity_violation.is_none(), "{r:?}");
        }
    }

    #[test]
    fn undetermined_when_lookahead_is_too_small() {
        let imp = DirectConsensus { processes: 2 };
        let workload = Workload::one_shot(vec![
            Consensus::propose(Value::from(0i64)),
            Consensus::propose(Value::from(1i64)),
        ]);
        let config = Config::initial(&imp, &workload);
        assert_eq!(valency_of(&config, 0, 10_000), ValencyClass::Undetermined);
    }
}
