//! Stable configurations and the Proposition 18 transformation.
//!
//! Proposition 18: if there is an `n`-process eventually linearizable,
//! non-blocking implementation `A` of a fetch&increment object from
//! linearizable base objects, then there is a linearizable one `A′` from the
//! same base objects.  The proof
//!
//! 1. shows that some configuration `C` of `A` is *stable* — every execution
//!    passing through `C` is `|αC|`-linearizable, where `αC` is the path from
//!    the initial configuration to `C`;
//! 2. runs every process to completion from `C` (reaching an idle
//!    configuration), then lets one process run solo until some operation
//!    `op0` returns a value equal to the number of fetch&inc operations
//!    invoked before it; the configuration at the end of `op0` is `C0` and
//!    that count is `v0`;
//! 3. defines `A′` as `A` started from the (base-object and local) state of
//!    `C0`, subtracting `v0` from every response.
//!
//! This module implements each step with bounded checks: stability is tested
//! against all extensions up to a configurable depth, and the resulting
//! [`FrozenImplementation`] (wrapped in an [`OffsetFetchInc`]) can be executed
//! and model-checked like any other implementation.

use crate::base::BaseObject;
use crate::config::Config;
use crate::engine::{self, EngineOptions, Reduction, Visit};
use crate::explorer::ExploreOptions;
use crate::program::{Implementation, ProcessLogic, TaskStep};
use crate::workload::Workload;
use evlin_checker::fi;
use evlin_history::ProcessId;
use evlin_spec::{FetchIncrement, Invocation, Value};

/// Options for the bounded stability check and stable-configuration search.
#[derive(Debug, Clone, Copy)]
pub struct StabilityOptions {
    /// How many additional fetch&inc operations each process is given when
    /// exploring extensions of a candidate configuration.
    pub extension_ops_per_process: usize,
    /// Depth bound (in steps) of the extension exploration.
    pub extension_depth: usize,
    /// Maximum number of configurations explored per stability check.
    pub max_configs: usize,
    /// Maximum solo steps allowed when completing an operation.
    pub solo_step_budget: usize,
    /// The state-space reduction applied while exploring extensions.  Sound
    /// for every strategy: sleep sets preserve the terminal-history set
    /// exactly, and `t`-linearizability is process-symmetric, so symmetry
    /// canonicalization preserves every verdict.  `Reduction::None` keeps
    /// the seed semantics.
    pub reduction: Reduction,
    /// Transient-fault budget for the extension exploration (see
    /// [`crate::fault`]): with a positive budget, stability is required to
    /// survive up to this many corruption steps in every extension — a
    /// *fault-tolerant* (self-stabilizing) strengthening of Proposition 18's
    /// stability.  0 (the default) keeps the fault-free semantics.
    pub fault_budget: usize,
}

impl Default for StabilityOptions {
    fn default() -> Self {
        StabilityOptions {
            extension_ops_per_process: 2,
            extension_depth: 48,
            max_configs: 200_000,
            solo_step_budget: 10_000,
            reduction: Reduction::None,
            fault_budget: 0,
        }
    }
}

/// Checks (up to the bounds in `options`) whether `config` is *stable*:
/// every extension of its execution is `t`-linearizable for `t` equal to the
/// length of the history so far.
///
/// The check enumerates all interleavings in which each process performs up
/// to `extension_ops_per_process` further fetch&inc operations and verifies
/// `t`-linearizability of every terminal history with the specialized
/// fetch&increment checker, in place as the walk reaches it.  The
/// exploration runs through [`crate::engine`] and honours
/// [`StabilityOptions::reduction`], which shrinks the extension tree without
/// changing the verdict.  A `true` answer is therefore "stable up to the
/// bound"; a `false` answer is definitive (a violating extension was found).
pub(crate) fn is_stable(config: &Config, initial_value: i64, options: &StabilityOptions) -> bool {
    let t = config.history().len();
    // Give every process extra fetch&inc operations to perform.
    let mut extended = config.clone();
    for i in 0..extended.processes() {
        for _ in 0..options.extension_ops_per_process {
            extended.push_operation(ProcessId(i), FetchIncrement::fetch_inc());
        }
    }
    // Engine exploration over interleavings (with the configured reduction);
    // check t-linearizability at terminal nodes (prefix closure, Lemma 6,
    // makes checking interior nodes redundant).
    let engine_options = EngineOptions {
        limits: ExploreOptions {
            max_depth: options.extension_depth,
            max_configs: options.max_configs,
        },
        reduction: options.reduction,
        fault_budget: options.fault_budget,
        ..EngineOptions::default()
    };
    let mut ok = true;
    let stats = engine::explore_config(extended, None, &engine_options, |c, depth| {
        if (c.is_quiescent() || depth >= options.extension_depth)
            && !fi::is_t_linearizable(c.history(), initial_value, t).unwrap_or(false)
        {
            ok = false;
            return Visit::Stop;
        }
        Visit::Continue
    });
    if stats.truncated {
        // Budget exhausted: treat as unstable so callers keep searching
        // rather than freeze a configuration we could not verify.
        return false;
    }
    ok
}

/// The result of a successful stable-configuration search and freeze.
#[derive(Debug)]
pub struct StableFreeze {
    /// The linearizable fetch&increment implementation `A′`.
    pub implementation: OffsetFetchInc,
    /// The offset `v0` subtracted from every response (the number of
    /// fetch&inc operations invoked before `op0`).
    pub offset: i64,
    /// The length `t = |αC|` of the history at the stable configuration.
    pub stabilization_index: usize,
    /// Number of steps of the original implementation taken before freezing.
    pub steps_before_freeze: usize,
}

/// Searches for a stable configuration of `implementation` along a
/// round-robin execution in which every process performs `warmup_ops`
/// fetch&inc operations, then freezes it into a linearizable implementation
/// per Proposition 18.
///
/// Returns `None` if no stable configuration was certified within the bounds
/// (e.g. the implementation never stabilizes, or the budget is too small).
pub fn stable_to_linearizable(
    implementation: &dyn Implementation,
    processes: usize,
    warmup_ops: usize,
    initial_value: i64,
    options: &StabilityOptions,
) -> Option<StableFreeze> {
    // Run a round-robin warm-up execution, checking candidate configurations
    // for stability at operation boundaries.
    let workload = Workload::uniform(processes, FetchIncrement::fetch_inc(), warmup_ops);
    let mut config = Config::initial(implementation, &workload);
    let mut scheduler = crate::scheduler::RoundRobinScheduler::new();
    let mut candidate: Option<Config> = None;
    loop {
        // A candidate is only meaningful at a quiescent point of the current
        // workload prefix (the paper quiesces before freezing anyway).
        if config.is_quiescent() {
            if is_stable(&config, initial_value, options) {
                candidate = Some(config.clone());
            }
            break;
        }
        use crate::scheduler::Scheduler;
        let Some(p) = scheduler.next(&config) else {
            break;
        };
        config.step(p);
    }
    // If the fully-quiesced warm-up configuration is not certifiably stable,
    // also try the initial configuration (for implementations that are
    // linearizable from the start, t = 0 works).
    let stable = match candidate {
        Some(c) => c,
        None => {
            let c0 = Config::initial(implementation, &Workload::new(vec![Vec::new(); processes]));
            if is_stable(&c0, initial_value, options) {
                c0
            } else {
                return None;
            }
        }
    };
    freeze(implementation, stable, initial_value, options)
}

/// Performs steps 2–3 of the Proposition 18 proof starting from a stable,
/// quiescent configuration.
fn freeze(
    _implementation: &dyn Implementation,
    stable: Config,
    initial_value: i64,
    options: &StabilityOptions,
) -> Option<StableFreeze> {
    let t = stable.history().len();
    let mut config = stable;
    // Let process 0 run fetch&inc operations repeatedly until some operation
    // op0 returns exactly the number of fetch&inc operations invoked before
    // it (counting from the initial value).
    let p = ProcessId(0);
    let mut v0 = None;
    for _ in 0..options.solo_step_budget {
        let invoked_before = config.history().operations().len() as i64;
        config.push_operation(p, FetchIncrement::fetch_inc());
        let response = config.run_solo_until_complete(p, options.solo_step_budget)?;
        let value = response.as_int()?;
        if value == initial_value + invoked_before {
            v0 = Some(invoked_before + 1);
            break;
        }
    }
    let v0 = v0?;
    let steps_before_freeze = config.steps();
    // Freeze: capture base-object states and per-process local variables.
    let frozen = FrozenImplementation {
        name: "frozen fetch&increment (Proposition 18)".to_owned(),
        base: config.clone_base_objects(),
        logics: (0..config.processes())
            .map(|i| config.clone_process_logic(ProcessId(i)))
            .collect(),
    };
    Some(StableFreeze {
        implementation: OffsetFetchInc::new(frozen, v0),
        offset: v0,
        stabilization_index: t,
        steps_before_freeze,
    })
}

/// An implementation whose initial state is a captured configuration of
/// another implementation: the base objects and each process's local
/// variables start exactly as they were at the freeze point.
#[derive(Debug)]
pub struct FrozenImplementation {
    name: String,
    base: Vec<Box<dyn BaseObject>>,
    logics: Vec<Box<dyn ProcessLogic>>,
}

impl Implementation for FrozenImplementation {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn processes(&self) -> usize {
        self.logics.len()
    }

    fn initial_base_objects(&self) -> Vec<Box<dyn BaseObject>> {
        self.base.clone()
    }

    fn new_process(&self, process: ProcessId) -> Box<dyn ProcessLogic> {
        self.logics[process.index()].clone()
    }
}

/// Wraps a fetch&increment implementation and subtracts a constant offset
/// from every response — the "return `v − v0`" step of Proposition 18.
#[derive(Debug)]
pub struct OffsetFetchInc {
    inner: FrozenImplementation,
    offset: i64,
}

impl OffsetFetchInc {
    /// Creates the offset wrapper.
    pub fn new(inner: FrozenImplementation, offset: i64) -> Self {
        OffsetFetchInc { inner, offset }
    }

    /// The offset subtracted from every response.
    pub fn offset(&self) -> i64 {
        self.offset
    }
}

impl Implementation for OffsetFetchInc {
    fn name(&self) -> String {
        format!("{} − {}", self.inner.name(), self.offset)
    }

    fn processes(&self) -> usize {
        self.inner.processes()
    }

    fn initial_base_objects(&self) -> Vec<Box<dyn BaseObject>> {
        self.inner.initial_base_objects()
    }

    fn new_process(&self, process: ProcessId) -> Box<dyn ProcessLogic> {
        Box::new(OffsetLogic {
            inner: self.inner.new_process(process),
            offset: self.offset,
        })
    }
}

/// Programme wrapper that subtracts the offset from completed responses.
#[derive(Debug)]
struct OffsetLogic {
    inner: Box<dyn ProcessLogic>,
    offset: i64,
}

impl ProcessLogic for OffsetLogic {
    fn begin(&mut self, invocation: Invocation) {
        self.inner.begin(invocation);
    }

    fn step(&mut self, previous_response: Option<Value>) -> TaskStep {
        match self.inner.step(previous_response) {
            TaskStep::Complete(v) => {
                let adjusted = v
                    .as_int()
                    .map(|i| Value::from(i - self.offset))
                    .unwrap_or(v);
                TaskStep::Complete(adjusted)
            }
            access => access,
        }
    }

    fn clone_box(&self) -> Box<dyn ProcessLogic> {
        Box::new(OffsetLogic {
            inner: self.inner.clone(),
            offset: self.offset,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::SpecObject;
    use crate::explorer::{terminal_histories, ExploreOptions};
    use crate::program::LocalSpecImplementation;
    use evlin_checker::fi;
    use std::sync::Arc;

    /// A linearizable fetch&increment implementation that defers to a
    /// linearizable fetch&increment base object (one access per operation).
    #[derive(Debug, Clone)]
    struct DirectFetchInc {
        processes: usize,
    }

    #[derive(Debug, Clone)]
    struct DirectLogic {
        accessed: bool,
    }

    impl Implementation for DirectFetchInc {
        fn name(&self) -> String {
            "direct fetch&increment".into()
        }
        fn processes(&self) -> usize {
            self.processes
        }
        fn initial_base_objects(&self) -> Vec<Box<dyn BaseObject>> {
            vec![Box::new(SpecObject::new(Arc::new(FetchIncrement::new())))]
        }
        fn new_process(&self, _p: ProcessId) -> Box<dyn ProcessLogic> {
            Box::new(DirectLogic { accessed: false })
        }
    }

    impl ProcessLogic for DirectLogic {
        fn begin(&mut self, _invocation: Invocation) {
            self.accessed = false;
        }
        fn step(&mut self, previous_response: Option<Value>) -> TaskStep {
            if !self.accessed {
                self.accessed = true;
                TaskStep::Access {
                    object: 0,
                    invocation: FetchIncrement::fetch_inc(),
                }
            } else {
                TaskStep::Complete(previous_response.expect("base object response"))
            }
        }
        fn clone_box(&self) -> Box<dyn ProcessLogic> {
            Box::new(self.clone())
        }
    }

    fn small_options() -> StabilityOptions {
        StabilityOptions {
            extension_ops_per_process: 2,
            extension_depth: 24,
            max_configs: 100_000,
            solo_step_budget: 1_000,
            reduction: Reduction::None,
            fault_budget: 0,
        }
    }

    #[test]
    fn linearizable_implementation_is_stable_at_the_start() {
        let imp = DirectFetchInc { processes: 2 };
        let config = Config::initial(&imp, &Workload::new(vec![Vec::new(), Vec::new()]));
        assert!(is_stable(&config, 0, &small_options()));
    }

    #[test]
    fn reduced_stability_checks_agree_with_unreduced() {
        let direct = DirectFetchInc { processes: 2 };
        let stable = Config::initial(&direct, &Workload::new(vec![Vec::new(), Vec::new()]));
        let local = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 2);
        let unstable = Config::initial(&local, &Workload::new(vec![Vec::new(), Vec::new()]));
        for reduction in [
            Reduction::SleepSet,
            Reduction::Symmetry,
            Reduction::SleepSetSymmetry,
        ] {
            let options = StabilityOptions {
                reduction,
                ..small_options()
            };
            assert!(is_stable(&stable, 0, &options), "{reduction:?}");
            assert!(!is_stable(&unstable, 0, &options), "{reduction:?}");
        }
    }

    #[test]
    fn stability_does_not_survive_a_transient_fault_budget() {
        // Fault-free the direct implementation is stable immediately, but a
        // single corruption of the shared counter skips responses, so no
        // configuration is *fault-tolerantly* stable at budget 1.
        let imp = DirectFetchInc { processes: 2 };
        let config = Config::initial(&imp, &Workload::new(vec![Vec::new(), Vec::new()]));
        assert!(is_stable(&config, 0, &small_options()));
        let faulty = StabilityOptions {
            fault_budget: 1,
            ..small_options()
        };
        assert!(!is_stable(&config, 0, &faulty));
    }

    #[test]
    fn local_copy_implementation_is_never_stable() {
        // The no-communication fetch&increment is weakly consistent but its
        // executions produce duplicate responses forever, so no configuration
        // is stable.
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 2);
        let config = Config::initial(&imp, &Workload::new(vec![Vec::new(), Vec::new()]));
        assert!(!is_stable(&config, 0, &small_options()));
    }

    #[test]
    fn freezing_a_direct_implementation_yields_a_linearizable_one() {
        let imp = DirectFetchInc { processes: 2 };
        let freeze = stable_to_linearizable(&imp, 2, 1, 0, &small_options())
            .expect("a stable configuration must exist");
        // The warm-up performed 2 operations, plus op0 = 3 invocations.
        assert!(freeze.offset >= 1);
        // Every execution of the frozen implementation is linearizable with
        // initial value 0 (responses are offset back to 0, 1, 2, …).
        let histories = terminal_histories(
            &freeze.implementation,
            &Workload::uniform(2, FetchIncrement::fetch_inc(), 2),
            ExploreOptions {
                max_depth: 24,
                max_configs: 100_000,
            },
        );
        assert!(!histories.is_empty());
        for h in histories {
            assert_eq!(fi::is_linearizable(&h, 0), Ok(true));
        }
    }

    #[test]
    fn offset_wrapper_subtracts_from_responses() {
        let imp = DirectFetchInc { processes: 1 };
        let config = Config::initial(&imp, &Workload::new(vec![Vec::new()]));
        let frozen = FrozenImplementation {
            name: "frozen".into(),
            base: config.clone_base_objects(),
            logics: vec![config.clone_process_logic(ProcessId(0))],
        };
        let offset_imp = OffsetFetchInc::new(frozen, 5);
        assert_eq!(offset_imp.offset(), 5);
        assert!(offset_imp.name().contains("5"));
        let mut c = Config::initial(
            &offset_imp,
            &Workload::uniform(1, FetchIncrement::fetch_inc(), 1),
        );
        c.run_solo_until_complete(ProcessId(0), 100);
        let ops = c.history().complete_operations();
        assert_eq!(ops[0].response, Some(Value::from(-5i64)));
    }
}
