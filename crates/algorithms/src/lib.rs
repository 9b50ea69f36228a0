//! # evlin-algorithms
//!
//! Executable versions of the constructions in Guerraoui & Ruppert
//! (PODC 2014), written against the `evlin-sim` substrate:
//!
//! * [`prop16`] — Proposition 16: a wait-free, eventually linearizable
//!   consensus implementation from single-writer registers (which may
//!   themselves be only eventually linearizable);
//! * [`fig1`] — Proposition 11 / Figure 1: the announce-and-verify wrapper
//!   that upgrades any implementation satisfying the liveness half of
//!   eventual linearizability ("`t`-linearizable for some `t`") into one that
//!   also satisfies the safety half (weak consistency), using linearizable
//!   registers;
//! * [`TestAndSetEv`] — the trivial eventually linearizable test&set of
//!   Section 4 (no shared objects at all);
//! * [`fetch_inc`] — fetch&increment implementations: the linearizable
//!   compare&swap loop from the introduction, a batching / noisy-prefix
//!   variant whose executions stabilize only after a warm-up (the subject of
//!   the Proposition 18 experiments), and a register-only gossip attempt that
//!   can never stabilize (Corollary 19);
//! * [`LocalCopy`] — the Theorem 12 transformation `I ↦ I′` that replaces
//!   every shared base object with process-local copies.
//!
//! Every implementation here is a [`evlin_sim::program::Implementation`], so
//! it can be run under any scheduler, explored exhaustively, model-checked
//! with `evlin-checker`, frozen by the Proposition 18 machinery, and
//! benchmarked.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cas_consensus;
mod encode;
pub mod fetch_inc;
pub mod fig1;
mod local_copy;
pub mod prop16;
mod test_and_set_ev;
pub mod universal;

pub use cas_consensus::CasConsensusSim;
pub use fetch_inc::{CasFetchInc, GossipFetchInc, NoisyPrefixFetchInc};
pub use fig1::Fig1Wrapper;
pub use local_copy::LocalCopy;
pub use prop16::Prop16Consensus;
pub use test_and_set_ev::TestAndSetEv;
pub use universal::UniversalConstruction;
