//! # evlin-spec
//!
//! Sequential specifications of shared-memory object types, following the
//! model of Guerraoui & Ruppert, *"A Paradox of Eventual Linearizability in
//! Shared Memory"* (PODC 2014), Section 3.
//!
//! A type is described by `(Q, Q0, INV, RES, δ)`: a set of states, a set of
//! initial states, sets of invocations and responses, and a transition
//! relation.  In this crate a type is a value implementing [`ObjectType`];
//! states, invocation arguments and responses are all represented by the
//! dynamic [`Value`] type so that histories and checkers can be written
//! generically over any object type.
//!
//! The concrete types used throughout the paper are provided:
//! read/write registers ([`Register`]), fetch&increment counters
//! ([`FetchIncrement`]), consensus objects ([`Consensus`]), test&set objects
//! ([`TestAndSet`]), compare&swap registers ([`CompareAndSwap`]), plain
//! counters ([`Counter`]), FIFO queues ([`Queue`]) and max-registers
//! ([`MaxRegister`]).
//!
//! The paper's Definition 13 (*trivial* deterministic types — those
//! implementable without inter-process communication) is made executable in
//! the [`trivial`] module.
//!
//! ## Example
//!
//! ```
//! use evlin_spec::{FetchIncrement, ObjectType, Invocation, Value};
//!
//! let ty = FetchIncrement::new();
//! let q0 = ty.initial_states()[0].clone();
//! let (resp, q1) = ty.apply_deterministic(&q0, &Invocation::nullary("fetch_inc")).unwrap();
//! assert_eq!(resp, Value::from(0i64));
//! assert_eq!(q1, Value::from(1i64));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod compare_and_swap;
mod consensus;
mod counter;
mod fetch_increment;
mod invocation;
mod max_register;
mod object_type;
mod queue;
mod register;
mod test_and_set;
pub mod trivial;
mod value;

pub use compare_and_swap::CompareAndSwap;
pub use consensus::Consensus;
pub use counter::Counter;
pub use fetch_increment::FetchIncrement;
pub use invocation::{Invocation, VOCABULARY};
pub use max_register::MaxRegister;
pub use object_type::{ObjectType, SpecError, Transition};
pub use queue::Queue;
pub use register::Register;
pub use test_and_set::TestAndSet;
pub use value::Value;

/// Commonly used items re-exported for glob import in downstream crates.
pub mod prelude {
    pub use crate::{
        CompareAndSwap, Consensus, Counter, FetchIncrement, Invocation, MaxRegister, ObjectType,
        Queue, Register, TestAndSet, Value,
    };
}
