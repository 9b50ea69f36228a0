//! Proposition 11 / Figure 1: guaranteeing weak consistency with registers.
//!
//! Proposition 11: if linearizable registers are available, an object type
//! with finite non-determinism has an eventually linearizable non-blocking
//! implementation **iff** it has a non-blocking implementation whose every
//! history is `t`-linearizable for some `t` — i.e. registers let us add the
//! missing safety half (weak consistency) to any implementation that already
//! has the liveness half.
//!
//! The algorithm (Figure 1 of the paper), executed by process `p_i` to
//! perform `op`:
//!
//! 1. announce `op` by writing it to `R_i[c_i]`, increment `c_i`;
//! 2. compute `⟨q_i, r_private⟩`: the response `op` would get if applied to
//!    the state reached by `p_i`'s own operations alone;
//! 3. run `op` in the underlying implementation `A`, obtaining `r_shared`;
//! 4. read all announced operations of all processes;
//! 5. if some permutation of a subset of the announced operations (containing
//!    all of `p_i`'s own announcements) forms a legal sequential execution in
//!    which `op` returns `r_shared`, return `r_shared`; otherwise return
//!    `r_private`.
//!
//! Step 5 (line 13 of the figure) is Definition 1's question about one
//! response, so it is asked as [`weak_consistency::justify`], the counted
//! statement the streaming monitor uses too: the scan's announcements are the
//! invoked operations, `p_i`'s earlier announcements the required
//! predecessors.  A search the node budget cuts off answers `r_private`,
//! which `p_i`'s own operations always justify.  Step 2 (line 4) still
//! `expect`s an answer from [`ObjectType::apply_deterministic`], so the
//! wrapped type must be deterministic, whatever finite non-determinism
//! Proposition 11 allows.
//!
//! The unbounded per-process register array `R_i[0, 1, 2, …]` is modelled by
//! one append-only single-writer announce log per process
//! ([`evlin_sim::base::AnnounceLog`]), which preserves the structure of the
//! algorithm (announce before computing, scan all announcements before
//! answering); see DESIGN.md for the substitution note.

use crate::encode::{decode_invocation, encode_invocation};
use evlin_checker::weak_consistency::{self, Tally};
use evlin_history::{ObjectId, ObjectUniverse, ProcessId};
use evlin_sim::base::{AnnounceLog, BaseObject};
use evlin_sim::program::{Implementation, ProcessLogic, TaskStep};
use evlin_spec::{Invocation, ObjectType, Value};
use std::sync::Arc;

/// The implemented object, the only one of the wrapper's universe.
const OBJECT: ObjectId = ObjectId(0);

/// The Figure 1 wrapper around an inner implementation.
///
/// Base objects `0 .. inner.len()` are the inner implementation's objects;
/// base objects `inner.len() .. inner.len() + n` are the announce logs of
/// processes `0 .. n`.
#[derive(Debug)]
pub struct Fig1Wrapper<I> {
    inner: I,
    /// The implemented type at its first initial state, as line 13's search
    /// reads it.
    universe: Arc<ObjectUniverse>,
    processes: usize,
}

impl<I: Implementation> Fig1Wrapper<I> {
    /// Wraps `inner`, an implementation of the object type `ty`, for
    /// `processes` processes.
    pub fn new(inner: I, ty: Arc<dyn ObjectType>, processes: usize) -> Self {
        let initial = ty
            .initial_states()
            .into_iter()
            .next()
            .expect("object types must have at least one initial state");
        let mut universe = ObjectUniverse::new();
        universe.add_shared(ty, initial);
        Fig1Wrapper {
            inner,
            universe: Arc::new(universe),
            processes,
        }
    }

    /// The wrapped implementation.
    pub fn inner(&self) -> &I {
        &self.inner
    }
}

impl<I: Implementation> Implementation for Fig1Wrapper<I> {
    fn name(&self) -> String {
        format!("Figure-1 wrapper around [{}]", self.inner.name())
    }

    fn processes(&self) -> usize {
        self.processes
    }

    fn initial_base_objects(&self) -> Vec<Box<dyn BaseObject>> {
        let mut objects = self.inner.initial_base_objects();
        for _ in 0..self.processes {
            objects.push(Box::new(AnnounceLog::new()) as Box<dyn BaseObject>);
        }
        objects
    }

    fn new_process(&self, process: ProcessId) -> Box<dyn ProcessLogic> {
        Box::new(Fig1Logic {
            me: process,
            n: self.processes,
            inner_objects: self.inner.initial_base_objects().len(),
            inner: self.inner.new_process(process),
            private_state: self.universe.initial_state(OBJECT).clone(),
            universe: self.universe.clone(),
            preds: Tally::new(),
            phase: Phase::Idle,
            current: None,
            r_private: Value::Unit,
            r_shared: Value::Unit,
            announced: Tally::new(),
        })
    }

    // Asymmetric: the wrapper announces through per-process logs and the
    // programme state carries its own id (`me`), so the engine's symmetry
    // reduction must not merge process renamings.
    fn process_symmetric_hint(&self) -> Option<bool> {
        Some(false)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    Idle,
    /// About to announce the operation (line 2 of Figure 1).
    Announce,
    /// Waiting for the announce acknowledgement; next we run the inner
    /// implementation.
    StartInner,
    /// Running the inner implementation (line 5).
    Inner,
    /// Scanning announce log `k` (lines 6–12).
    Scan(usize),
}

/// Programme state for the Figure 1 wrapper.
#[derive(Debug, Clone)]
struct Fig1Logic {
    me: ProcessId,
    n: usize,
    inner_objects: usize,
    inner: Box<dyn ProcessLogic>,
    universe: Arc<ObjectUniverse>,
    /// `q_i`: the state reached by this process's own operations alone.
    private_state: Value,
    /// This process's earlier operations: line 13's required predecessors.
    preds: Tally,
    phase: Phase,
    current: Option<Invocation>,
    r_private: Value,
    r_shared: Value,
    /// Announced operations of all processes gathered during the scan.
    announced: Tally,
}

impl ProcessLogic for Fig1Logic {
    fn begin(&mut self, invocation: Invocation) {
        self.current = Some(invocation);
        self.phase = Phase::Announce;
        self.announced.clear();
    }

    fn step(&mut self, previous_response: Option<Value>) -> TaskStep {
        match self.phase.clone() {
            Phase::Idle => panic!("step called with no operation in progress"),
            Phase::Announce => {
                let op = self.current.clone().expect("begin was called");
                self.phase = Phase::StartInner;
                TaskStep::Access {
                    object: self.inner_objects + self.me.index(),
                    invocation: AnnounceLog::append(encode_invocation(&op)),
                }
            }
            Phase::StartInner => {
                // Line 4: compute ⟨q_i, r_private⟩ from the private state.
                let op = self.current.clone().expect("begin was called");
                let (r_private, next_private) = self
                    .universe
                    .object_type(OBJECT)
                    .apply_deterministic(&self.private_state, &op)
                    .expect("the implemented type must be total and deterministic");
                self.r_private = r_private;
                self.private_state = next_private;
                // Line 5: run op in the inner implementation.
                self.inner.begin(op);
                self.phase = Phase::Inner;
                self.drive_inner(None)
            }
            Phase::Inner => self.drive_inner(previous_response),
            Phase::Scan(k) => {
                let announced = previous_response.expect("read_all response");
                for entry in announced.as_list().unwrap_or(&[]) {
                    if let Some(inv) = decode_invocation(entry) {
                        *self.announced.entry(inv).or_insert(0) += 1;
                    }
                }
                self.continue_scan(k + 1)
            }
        }
    }

    fn clone_box(&self) -> Box<dyn ProcessLogic> {
        Box::new(self.clone())
    }
}

impl Fig1Logic {
    fn drive_inner(&mut self, previous: Option<Value>) -> TaskStep {
        match self.inner.step(previous) {
            TaskStep::Access { object, invocation } => TaskStep::Access { object, invocation },
            TaskStep::Complete(r_shared) => {
                self.r_shared = r_shared;
                // Lines 6–12: read every process's announce log.
                self.continue_scan(0)
            }
        }
    }

    fn continue_scan(&mut self, next: usize) -> TaskStep {
        if next < self.n {
            self.phase = Phase::Scan(next);
            return TaskStep::Access {
                object: self.inner_objects + next,
                invocation: AnnounceLog::read_all(),
            };
        }
        // Line 13: Definition 1's question about r_shared, over the scanned
        // announcements with this process's earlier operations required.  A
        // search cut off by the node budget is no justification.
        self.phase = Phase::Idle;
        let op = self.current.take().expect("begin was called");
        let (verdict, _) = weak_consistency::justify(
            &self.universe,
            OBJECT,
            &self.announced,
            &self.preds,
            &op,
            &self.r_shared,
        );
        *self.preds.entry(op).or_insert(0) += 1;
        if verdict.is_yes() {
            TaskStep::Complete(self.r_shared.clone())
        } else {
            TaskStep::Complete(self.r_private.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch_inc::CasFetchInc;
    use evlin_checker::kernel::SearchResult;
    use evlin_checker::{eventual, fi};
    use evlin_sim::prelude::*;
    use evlin_spec::{FetchIncrement, Register};
    use std::collections::BTreeSet;

    /// An inner implementation that satisfies the liveness half of eventual
    /// linearizability (its histories are t-linearizable for some t) but not
    /// weak consistency: the first `garbage` operations globally return the
    /// out-of-left-field value 999.
    #[derive(Debug)]
    struct GarbagePrefixFetchInc {
        inner: CasFetchInc,
        garbage: i64,
    }

    #[derive(Debug)]
    struct GarbageLogic {
        inner: Box<dyn ProcessLogic>,
        garbage: i64,
    }

    impl Implementation for GarbagePrefixFetchInc {
        fn name(&self) -> String {
            "garbage-prefix fetch&increment".into()
        }
        fn processes(&self) -> usize {
            self.inner.processes()
        }
        fn initial_base_objects(&self) -> Vec<Box<dyn BaseObject>> {
            self.inner.initial_base_objects()
        }
        fn new_process(&self, p: ProcessId) -> Box<dyn ProcessLogic> {
            Box::new(GarbageLogic {
                inner: self.inner.new_process(p),
                garbage: self.garbage,
            })
        }
    }

    impl ProcessLogic for GarbageLogic {
        fn begin(&mut self, invocation: Invocation) {
            self.inner.begin(invocation);
        }
        fn step(&mut self, previous_response: Option<Value>) -> TaskStep {
            match self.inner.step(previous_response) {
                TaskStep::Complete(v) => {
                    let slot = v.as_int().expect("integer response");
                    if slot < self.garbage {
                        TaskStep::Complete(Value::from(999i64))
                    } else {
                        TaskStep::Complete(v)
                    }
                }
                access => access,
            }
        }
        fn clone_box(&self) -> Box<dyn ProcessLogic> {
            Box::new(GarbageLogic {
                inner: self.inner.clone(),
                garbage: self.garbage,
            })
        }
    }

    fn fi_universe() -> ObjectUniverse {
        let mut u = ObjectUniverse::new();
        u.add_object(FetchIncrement::new());
        u
    }

    #[test]
    fn raw_garbage_implementation_violates_weak_consistency() {
        let imp = GarbagePrefixFetchInc {
            inner: CasFetchInc::new(2),
            garbage: 2,
        };
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 3);
        let mut s = RoundRobinScheduler::new();
        let out = run(&imp, &w, &mut s, 100_000);
        assert!(out.completed_all);
        let u = fi_universe();
        assert!(!weak_consistency::is_weakly_consistent(&out.history, &u));
    }

    #[test]
    fn wrapper_restores_weak_consistency() {
        let inner = GarbagePrefixFetchInc {
            inner: CasFetchInc::new(2),
            garbage: 2,
        };
        let imp = Fig1Wrapper::new(inner, Arc::new(FetchIncrement::new()), 2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 3);
        let u = fi_universe();
        for seed in 0..10u64 {
            let mut s = RandomScheduler::seeded(seed);
            let out = run(&imp, &w, &mut s, 100_000);
            assert!(out.completed_all, "seed {seed}");
            assert!(
                weak_consistency::is_weakly_consistent(&out.history, &u),
                "seed {seed}: wrapper failed to restore weak consistency\n{}",
                out.history
            );
            assert!(eventual::is_eventually_linearizable(&out.history, &u));
        }
    }

    #[test]
    fn wrapper_preserves_good_responses_of_a_linearizable_inner() {
        // Wrapping an already linearizable implementation must keep it
        // linearizable: the verification test accepts every r_shared.
        let imp = Fig1Wrapper::new(CasFetchInc::new(2), Arc::new(FetchIncrement::new()), 2);
        assert!(imp.inner().processes() == 2);
        assert!(imp.name().contains("Figure-1"));
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 3);
        let u = fi_universe();
        for seed in 0..10u64 {
            let mut s = RandomScheduler::seeded(seed);
            let out = run(&imp, &w, &mut s, 100_000);
            assert!(out.completed_all);
            let report = eventual::analyze(&out.history, &u);
            assert!(report.is_linearizable(), "seed {seed}:\n{}", out.history);
        }
    }

    #[test]
    fn wrapper_works_for_registers_too() {
        // Wrap a register implementation (the inner one simply reads/writes a
        // linearizable register, so it is already correct) to exercise the
        // wrapper with a different object type, including write operations.
        #[derive(Debug)]
        struct DirectRegister {
            processes: usize,
        }
        #[derive(Debug, Clone)]
        struct DirectLogic {
            pending: Option<Invocation>,
            accessed: bool,
        }
        impl Implementation for DirectRegister {
            fn name(&self) -> String {
                "direct register".into()
            }
            fn processes(&self) -> usize {
                self.processes
            }
            fn initial_base_objects(&self) -> Vec<Box<dyn BaseObject>> {
                vec![evlin_sim::base::objects::register(Value::from(0i64))]
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
                        invocation: self.pending.clone().expect("begin"),
                    }
                } else {
                    TaskStep::Complete(previous_response.expect("register response"))
                }
            }
            fn clone_box(&self) -> Box<dyn ProcessLogic> {
                Box::new(self.clone())
            }
        }

        let imp = Fig1Wrapper::new(
            DirectRegister { processes: 2 },
            Arc::new(Register::new(Value::from(0i64))),
            2,
        );
        let w = Workload::new(vec![
            vec![Register::write(Value::from(5i64)), Register::read()],
            vec![Register::read(), Register::write(Value::from(6i64))],
        ]);
        let mut u = ObjectUniverse::new();
        u.add_object(Register::new(Value::from(0i64)));
        for seed in 0..10u64 {
            let mut s = RandomScheduler::seeded(seed);
            let out = run(&imp, &w, &mut s, 100_000);
            assert!(out.completed_all);
            let report = eventual::analyze(&out.history, &u);
            assert!(report.is_linearizable(), "seed {seed}:\n{}", out.history);
        }
    }

    #[test]
    fn wrapper_runs_past_64_earlier_operations() {
        // Line 13 once kept a process's earlier operations in a 64-bit mask.
        let imp = Fig1Wrapper::new(CasFetchInc::new(2), Arc::new(FetchIncrement::new()), 2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 100);
        let out = run(&imp, &w, &mut RoundRobinScheduler::new(), 1_000_000);
        assert!(out.completed_all);
        let responses: BTreeSet<Value> = out
            .history
            .operations()
            .into_iter()
            .filter_map(|op| op.response)
            .collect();
        assert_eq!(responses.len(), 200);
        assert_eq!(fi::is_linearizable(&out.history, 0), Ok(true));
    }

    #[test]
    fn a_search_cut_off_by_the_budget_answers_r_private() {
        // Every inner response is 999, which no arrangement justifies: line
        // 13 searches every subset of the process's earlier operations, so
        // its last operations exhaust the node budget.
        let per_process = 16;
        let inner = GarbagePrefixFetchInc {
            inner: CasFetchInc::new(2),
            garbage: 2 * per_process as i64,
        };
        let imp = Fig1Wrapper::new(inner, Arc::new(FetchIncrement::new()), 2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), per_process);
        let out = run(&imp, &w, &mut RoundRobinScheduler::new(), 1_000_000);
        assert!(out.completed_all);
        let ops = out.history.operations();
        for p in 0..2 {
            let own = ops.iter().filter(|op| op.process == ProcessId(p));
            for (k, op) in own.enumerate() {
                // r_private: the count of the process's own earlier operations.
                assert_eq!(op.response, Some(Value::from(k as i64)), "{}", out.history);
            }
        }
        assert!(weak_consistency::is_weakly_consistent(
            &out.history,
            &imp.universe
        ));
        // Process 0's last operation, over everything invoked before its
        // response: the search gives up rather than answering no.
        let last = ops.iter().rfind(|op| op.process == ProcessId(0)).unwrap();
        let respond = last.respond_index.unwrap();
        let before = ops.iter().filter(|op| op.invoke_index < respond).count();
        let fetch_inc = FetchIncrement::fetch_inc();
        let invoked = Tally::from([(fetch_inc.clone(), before as u64)]);
        let preds = Tally::from([(fetch_inc.clone(), per_process as u64 - 1)]);
        let (verdict, stats) = weak_consistency::justify(
            &imp.universe,
            OBJECT,
            &invoked,
            &preds,
            &fetch_inc,
            &Value::from(999i64),
        );
        assert_eq!(verdict, SearchResult::Unknown);
        assert!(stats.nodes > 200_000, "{stats:?}");
    }
}
