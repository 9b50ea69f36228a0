//! # evlin-checker
//!
//! Decision procedures for the consistency conditions of Guerraoui & Ruppert
//! (PODC 2014), Section 3 — all driven by **one** pluggable Wing–Gong search
//! kernel.
//!
//! ## Architecture: conditions over a shared kernel
//!
//! Every condition reduces to a *constrained-linearization* question: is
//! there a legal sequential arrangement of a set of candidate operations
//! that includes every required one, assigns legal (possibly fixed)
//! responses, and respects a precedence relation?  The [`kernel`] module
//! owns the one searcher that answers it; each condition is a thin
//! [`kernel::ConsistencyCondition`] implementation that only says *which*
//! question to ask, as [`kernel::Problem`] views of the history's events:
//!
//! ```text
//!            ConsistencyCondition (views of a history + locality)
//!    ┌───────────────┬────────────────────┬─────────────────────────┐
//!    │ Linearizability│ TLinearizability  │ WeakOperation           │
//!    │ (t = 0, local) │ (Definition 2)    │ (Definition 1, per op)  │
//!    └───────┬───────┴─────────┬──────────┴──────────┬──────────────┘
//!            │   StabilizesEventually (liveness half, Definition 3/4)
//!            ▼                 ▼                     ▼
//!    kernel::check_local ──► locality pre-pass ──► kernel::solve_rooted
//!    (per-object split,      (Herlihy–Wing /       (iterative Wing–Gong,
//!     in turn, witness        Lemma 8, exact        interned states,
//!     composition)            conditions only)      compact visited cache)
//! ```
//!
//! The kernel interns object states and responses to dense integers, merges
//! interchangeable operations into classes whose taken members it counts,
//! memoizes transition lookups, and keys its visited cache on compact
//! `(linearized-multiset, object-states)` slices; [`kernel::KernelScratch`]
//! lets repeated probes (the binary search for the minimal stabilization
//! index, the per-operation weak-consistency loop) reuse the cache and the
//! per-class count allocations.
//!
//! ## Modules
//!
//! * [`kernel`] — the condition trait, the iterative searcher, the locality
//!   pre-pass and witness composition;
//! * [`linearizability`] — classical linearizability (= 0-linearizability),
//!   decomposed per object by the locality theorem;
//! * [`t_linearizability`] — Definition 2: linearizability "after the first
//!   `t` events", including [`t_linearizability::min_stabilization`] which
//!   finds the smallest such `t`;
//! * [`weak_consistency`] — Definition 1: responses are never "out of left
//!   field" even before stabilization (split per object by Lemma 8);
//! * [`eventual`] — Definition 3/4: weak consistency plus `t`-linearizability
//!   for some `t`;
//! * [`safety`] — the prefix-closure test harness used to reproduce
//!   the paper's observations about which conditions are safety properties;
//! * [`locality`] — the per-object diagnostic decompositions of Lemmas 7–9
//!   and Proposition 9;
//! * [`fi`] — specialized, linear-time checkers for fetch&increment
//!   histories, used by the large-scale experiments (the generic search is
//!   exponential in the worst case);
//! * [`parallel`] — the one place threads are created: a batch of whole
//!   problems ([`parallel::check_histories_par`] and friends, the explorer's
//!   subtrees) is spread over cores by [`parallel::map_ordered`]; the pieces
//!   of one problem — the kernel's per-object pre-pass, the monitor's
//!   per-object chains — run as loops on the calling thread;
//! * [`codec`] — not a checker: the one byte codec (bounded [`codec::Reader`],
//!   [`codec::Encode::put`], header check, `fold_bytes`, `sync_dir`) under the
//!   service's wire frames and journals and the explorer's runs and
//!   checkpoints, kept here beside [`fold_words`] because this is the crate
//!   `evlin-sim` and `evlin-service` both already depend on.
//!
//! ## Example
//!
//! ```
//! use evlin_checker::{linearizability, t_linearizability};
//! use evlin_history::{HistoryBuilder, ObjectUniverse, ProcessId};
//! use evlin_spec::{FetchIncrement, Value};
//!
//! let mut universe = ObjectUniverse::new();
//! let x = universe.add_object(FetchIncrement::new());
//!
//! // Two concurrent fetch&inc operations that both return 0: not
//! // linearizable, but 2-linearizable (drop the first two events).
//! let h = HistoryBuilder::new()
//!     .complete(ProcessId(0), x, FetchIncrement::fetch_inc(), Value::from(0i64))
//!     .complete(ProcessId(1), x, FetchIncrement::fetch_inc(), Value::from(0i64))
//!     .build();
//!
//! assert!(!linearizability::is_linearizable(&h, &universe));
//! assert_eq!(t_linearizability::min_stabilization(&h, &universe, None), Some(2));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod eventual;
pub mod fi;
pub mod kernel;
pub mod linearizability;
pub mod locality;
pub mod monitor;
pub mod parallel;
pub mod safety;
pub mod t_linearizability;
mod util;
pub mod weak_consistency;

pub use eventual::{is_eventually_linearizable, EventualReport, StabilizesEventually};
pub use kernel::{
    ConsistencyCondition, KernelScratch, Locality, SearchLimits, SearchResult, SearchStats,
};
pub use linearizability::{is_linearizable, linearization_witness, Linearizability};
pub use monitor::{
    stages, Monitor, MonitorCondition, MonitorConfig, MonitorIngest, MonitorReport, MonitorVerdict,
};
pub use parallel::{check_histories_par, min_stabilizations_par};
pub use t_linearizability::{is_t_linearizable, min_stabilization, TLinearizability};
pub use util::{fold_word_iter, fold_words, mix, TAG_FOLD};
pub use weak_consistency::{is_weakly_consistent, WeakOperation};
