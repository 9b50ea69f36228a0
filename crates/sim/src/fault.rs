//! Transient-fault injection for exhaustive exploration.
//!
//! A *transient fault* (in the self-stabilization tradition of Dubois,
//! Masuzawa and Tixeuil) corrupts one component of a configuration — one
//! shared base object or one process's programme state — to an arbitrary
//! other reachable value of its type, without recording any history event.
//! The paper's eventually-linearizable objects are exactly the specs whose
//! value shows up under such faults: the interesting claim is not that clean
//! runs are consistent but that corrupted runs *re-converge*, which
//! experiment E15 quantifies as a stabilization bound per fault count.
//!
//! The injection surface is deliberately small:
//!
//! * [`FaultStep`] names one injectable corruption — a [`FaultTarget`] plus a
//!   variant index into that component's deterministic corruption enumeration
//!   ([`crate::base::BaseObject::corruption_count`] /
//!   [`crate::program::ProcessLogic::corruption_count`]).
//! * [`crate::config::Config`] carries a *fault budget* (≤ k faults per
//!   schedule); [`crate::config::Config::for_each_fault`] enumerates the
//!   injectable faults while budget remains and
//!   [`crate::config::Config::apply_fault`] spends one budget unit to apply
//!   one, maintaining the incremental Zobrist fingerprint exactly.
//! * [`crate::engine`] appends the fault children to every node's
//!   expansion, under every [`crate::engine::Reduction`] alike: faults are
//!   dependent-with-everything for the sleep-set reduction (they are never
//!   slept and wake every sleeper), and they are applied *before* symmetry
//!   canonicalization, so renaming permutes fault-corrupted state like any
//!   other state.  Deduplication keys are salted with `budget_salt` so
//!   configurations differing only in remaining budget never merge — and the
//!   salt is `0` when the budget is `0`, which keeps every fault-free
//!   exploration bit-identical to the pre-fault engine.

use crate::zobrist;

/// Domain-separation tag for the [`budget_salt`] mix.
const TAG_FAULT: u64 = 0x6661_756c_7400_0004;

/// Cap on the reachable-state enumeration behind the provided corruption
/// implementations ([`crate::base::SpecObject`],
/// [`crate::program::LocalSpecLogic`]): each corruptible component offers at
/// most this many (minus the current state) corruption variants, keeping the
/// fault fan-out per node bounded.
pub(crate) const CORRUPTION_STATE_CAP: usize = 6;

/// Which component of a configuration a transient fault corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// The shared base object at this index of the configuration's
    /// base-object vector.
    Object(usize),
    /// The programme state of the process with this index.
    Process(usize),
}

/// One injectable transient fault: corrupt `target` to its `variant`-th
/// enumerable corruption (an index into the component's
/// `corruption_count()`-sized, deterministic corruption list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultStep {
    /// The component to corrupt.
    pub target: FaultTarget,
    /// Index into the target's corruption enumeration.
    pub variant: usize,
}

/// The word folded into the engine's deduplication keys alongside the sleep
/// mask: a mix of the configuration's *remaining* fault budget.
///
/// Two configurations with identical state but different remaining budgets
/// have different futures (one can still inject faults the other cannot), so
/// they must not merge.  The salt is `0` when the budget is `0`: fault-free
/// exploration produces exactly the keys it produced before fault injection
/// existed, which is what holds the k=0 overhead gate at zero drift.
#[inline]
pub(crate) fn budget_salt(remaining: usize) -> u64 {
    if remaining == 0 {
        0
    } else {
        zobrist::mix(TAG_FAULT ^ remaining as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_budget_has_zero_salt() {
        assert_eq!(budget_salt(0), 0);
        assert_ne!(budget_salt(1), 0);
        assert_ne!(budget_salt(1), budget_salt(2));
        assert_ne!(budget_salt(2), budget_salt(3));
    }

    #[test]
    fn fault_steps_are_plain_comparable_data() {
        let a = FaultStep {
            target: FaultTarget::Object(0),
            variant: 1,
        };
        let b = FaultStep {
            target: FaultTarget::Process(0),
            variant: 1,
        };
        assert_ne!(a, b);
        assert_eq!(a, a);
    }
}
