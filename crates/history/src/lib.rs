//! # evlin-history
//!
//! Events, operations and histories of concurrent executions, following
//! Section 3 of Guerraoui & Ruppert (PODC 2014).
//!
//! A *history* is a sequence of invocation and response [`Event`]s, each
//! performed by a process on an object.  This crate provides:
//!
//! * [`History`] — the event sequence, with the projections `H|p`
//!   ([`History::project_process`]) and `H|o` ([`History::project_object`])
//!   used throughout the paper, well-formedness and sequentiality checks,
//!   prefix/suffix slicing, and operation matching;
//! * [`ObjectUniverse`] — the finite set of objects (type + initial state) a
//!   history talks about, needed to decide legality;
//! * [`legal`] — legality of sequential histories with respect to the
//!   objects' sequential specifications;
//! * [`HistoryBuilder`] — an ergonomic way to write histories in tests;
//! * [`generator`] — random legal sequential histories, linearizable-by-
//!   construction concurrent histories, and perturbations used to produce
//!   negative test cases for the checkers.
//!
//! ## Example
//!
//! ```
//! use evlin_history::{HistoryBuilder, ObjectUniverse, ProcessId};
//! use evlin_spec::{Register, Value};
//!
//! let mut universe = ObjectUniverse::new();
//! let reg = universe.add_object(Register::new(Value::from(0i64)));
//!
//! let history = HistoryBuilder::new()
//!     .invoke(ProcessId(0), reg, Register::write(Value::from(1i64)))
//!     .invoke(ProcessId(1), reg, Register::read())
//!     .respond(ProcessId(0), reg, Value::Unit)
//!     .respond(ProcessId(1), reg, Value::from(1i64))
//!     .build();
//!
//! assert!(history.is_well_formed());
//! assert_eq!(history.operations().len(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod event;
pub mod generator;
mod history;
mod ids;
pub mod legal;
mod op;
mod universe;

pub use builder::HistoryBuilder;
pub use event::{Event, EventKind};
pub use history::{History, OperationMatcher};
pub use ids::{ObjectId, ProcessId};
pub use op::{OpId, OperationRecord};
pub use universe::ObjectUniverse;

/// Commonly used items re-exported for glob import in downstream crates.
pub mod prelude {
    pub use crate::{
        Event, EventKind, History, HistoryBuilder, ObjectId, ObjectUniverse, OpId, OperationRecord,
        ProcessId,
    };
}
