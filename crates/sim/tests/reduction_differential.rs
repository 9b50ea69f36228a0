//! Differential tests for the reduction engine: on seeded random small
//! configurations, every [`Reduction`] strategy must agree with the
//! unreduced engine on
//!
//! * the set of **distinct terminal histories** — exactly for sleep sets,
//!   up to process renaming (canonicalized comparison) for the symmetry
//!   strategies;
//! * the **verdict set** of those histories (weakly consistent /
//!   linearizable, decided by the checker kernel);
//! * **violation findings**: `find_history_violation` with a
//!   process-symmetric predicate reports a violation under a reduction iff
//!   the unreduced engine does.
//!
//! Two cross-check modes pin the fingerprint machinery the canonicalizing
//! strategies stand on: the maintained fingerprint against a full rehash and
//! a physical renaming ([`check_fingerprint_seed`]), and the table-driven
//! `canonical_permutation` against the first-minimum argmin of
//! `fingerprint_permuted` over every renaming ([`check_argmin_seed`]).
//!
//! The quick tests run fixed seed ranges on every `cargo test`; the
//! `#[ignore]`d extended tests honour the `EVLIN_DIFF_CASES` environment
//! variable and are exercised by the nightly CI fuzz job.

use evlin_algorithms::{CasFetchInc, GossipFetchInc, NoisyPrefixFetchInc};
use evlin_checker::{linearizability, weak_consistency};
use evlin_history::{History, ObjectUniverse, ProcessId};
use evlin_sim::base::BaseObject;
use evlin_sim::config::Config;
use evlin_sim::engine::{self, EngineOptions, ExploreOptions, Reduction, Visit};
use evlin_sim::eventually::{EventuallyLinearizable, StabilizationPolicy};
use evlin_sim::program::{Implementation, LocalSpecImplementation, ProcessLogic, TaskStep};
use evlin_sim::workload::Workload;
use evlin_spec::{FetchIncrement, Invocation, ObjectType, Register, TestAndSet, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const STRATEGIES: [Reduction; 4] = [
    Reduction::None,
    Reduction::SleepSet,
    Reduction::Symmetry,
    Reduction::SleepSetSymmetry,
];

/// One random subject: an implementation, a workload for it, bounds, and the
/// universe its histories are checked against.
struct Case {
    name: String,
    implementation: Box<dyn Implementation>,
    workload: Workload,
    limits: ExploreOptions,
    universe: ObjectUniverse,
}

fn random_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let processes = rng.gen_range(2..4usize);
    let family = rng.gen_range(0..6u32);
    // Multi-step implementations (CAS retry loops, register scans) grow much
    // deeper trees per operation than the one-step local-copy families; keep
    // their workloads small enough that the *unreduced* engine never hits the
    // visit budget (truncation is shape-sensitive by design, so a truncated
    // baseline would compare junk).
    let ops = if family >= 3 && processes > 2 {
        1
    } else {
        rng.gen_range(1..3usize)
    };
    let mut universe = ObjectUniverse::new();
    let (name, implementation, workload): (String, Box<dyn Implementation>, Workload) = match family
    {
        0 => {
            let ty: Arc<dyn ObjectType> = Arc::new(FetchIncrement::new());
            universe.add_object(FetchIncrement::new());
            (
                format!("local-copy fi ({processes}p×{ops})"),
                Box::new(LocalSpecImplementation::new(ty, processes)),
                Workload::uniform(processes, FetchIncrement::fetch_inc(), ops),
            )
        }
        1 => {
            let ty: Arc<dyn ObjectType> = Arc::new(TestAndSet::new());
            universe.add_object(TestAndSet::new());
            (
                format!("local-copy tas ({processes}p×{ops})"),
                Box::new(LocalSpecImplementation::new(ty, processes)),
                Workload::uniform(processes, TestAndSet::test_and_set(), ops),
            )
        }
        2 => {
            let ty: Arc<dyn ObjectType> = Arc::new(Register::new(Value::from(0i64)));
            universe.add_object(Register::new(Value::from(0i64)));
            // Mixed reads and writes, still uniform across processes.
            let mut invocations = Vec::new();
            for k in 0..ops {
                invocations.push(if k % 2 == 0 {
                    Register::write(Value::from(1i64))
                } else {
                    Register::read()
                });
            }
            (
                format!("local-copy register ({processes}p×{ops})"),
                Box::new(LocalSpecImplementation::new(ty, processes)),
                Workload::new(vec![invocations; processes]),
            )
        }
        3 => {
            universe.add_object(FetchIncrement::new());
            (
                format!("cas fetch&inc ({processes}p×{ops})"),
                Box::new(CasFetchInc::new(processes)),
                Workload::uniform(processes, FetchIncrement::fetch_inc(), ops),
            )
        }
        4 => {
            universe.add_object(FetchIncrement::new());
            (
                format!("noisy-prefix fetch&inc ({processes}p×{ops})"),
                Box::new(NoisyPrefixFetchInc::new(processes, rng.gen_range(0..4i64))),
                Workload::uniform(processes, FetchIncrement::fetch_inc(), ops),
            )
        }
        _ => {
            universe.add_object(FetchIncrement::new());
            // Gossip is register-heavy: many commuting accesses, and an
            // asymmetric programme the symmetry detection must veto.
            (
                format!("gossip fetch&inc ({processes}p×{ops})"),
                Box::new(GossipFetchInc::new(processes)),
                Workload::uniform(processes, FetchIncrement::fetch_inc(), 1.min(ops)),
            )
        }
    };
    Case {
        name,
        implementation,
        workload,
        limits: ExploreOptions {
            max_depth: rng.gen_range(10..14usize),
            max_configs: 2_000_000,
        },
        universe,
    }
}

fn options(case: &Case, reduction: Reduction) -> EngineOptions {
    EngineOptions {
        limits: case.limits,
        workers: Some(1),
        reduction,
        ..EngineOptions::default()
    }
}

/// Distinct terminal histories under `reduction` (panics on truncation — a
/// truncated exploration is shape-sensitive and must not be compared).
fn distinct_terminals(case: &Case, reduction: Reduction) -> Vec<History> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    let max_depth = case.limits.max_depth;
    let stats = engine::explore(
        case.implementation.as_ref(),
        &case.workload,
        &options(case, reduction),
        |config, depth| {
            if config.enabled_processes().is_empty() || depth >= max_depth {
                let h = config.history().clone();
                if seen.insert(format!("{h:?}")) {
                    out.push(h);
                }
            }
            Visit::Continue
        },
    );
    assert!(
        !stats.truncated,
        "{}: {reduction:?} exploration truncated — shrink the case",
        case.name
    );
    out
}

/// The least debug string of a history's orbit under process renaming — the
/// canonical form the symmetry strategies are compared in, enumerating the
/// orbit with the same [`engine::permutations`] table the engine
/// canonicalizes configurations with.
fn canonical_form(history: &History, processes: usize) -> String {
    engine::permutations(processes)
        .iter()
        .map(|perm| {
            let mut renamed = history.clone();
            let map: Vec<ProcessId> = perm.iter().map(|&i| ProcessId(i)).collect();
            renamed.rename_processes(&map);
            format!("{renamed:?}")
        })
        .min()
        .expect("at least the identity renaming")
}

fn canonical_set(histories: &[History], processes: usize) -> BTreeSet<String> {
    histories
        .iter()
        .map(|h| canonical_form(h, processes))
        .collect()
}

/// Process-symmetric verdicts of a history under the checker kernel.
fn verdict(history: &History, universe: &ObjectUniverse) -> (bool, bool) {
    (
        weak_consistency::is_weakly_consistent(history, universe),
        linearizability::is_linearizable(history, universe),
    )
}

fn check_seed(seed: u64) {
    let case = random_case(seed);
    let processes = case.workload.processes();
    let baseline = distinct_terminals(&case, Reduction::None);
    assert!(
        !baseline.is_empty(),
        "seed {seed} ({}) explored no terminals",
        case.name
    );
    let baseline_canonical = canonical_set(&baseline, processes);
    let baseline_verdicts: BTreeSet<(bool, bool)> = baseline
        .iter()
        .map(|h| verdict(h, &case.universe))
        .collect();
    // A process-symmetric safety predicate: no two completed operations of
    // the same invocation return the same response... for idempotent reads
    // that is expected, so use the coarser "some response is duplicated
    // across processes" signal only for counting-style objects; the
    // universally valid differential signal is the verdict itself.
    let violates = |h: &History| !weak_consistency::is_weakly_consistent(h, &case.universe);
    let baseline_violation = engine::find_history_violation(
        case.implementation.as_ref(),
        &case.workload,
        &options(&case, Reduction::None),
        |h| !violates(h),
    )
    .is_some();

    for reduction in STRATEGIES {
        if reduction == Reduction::None {
            continue; // the baseline itself
        }
        let reduced = distinct_terminals(&case, reduction);
        match reduction {
            Reduction::None => {}
            Reduction::SleepSet => {
                // Exact preservation of the distinct terminal-history set.
                let lhs: BTreeSet<String> = baseline.iter().map(|h| format!("{h:?}")).collect();
                let rhs: BTreeSet<String> = reduced.iter().map(|h| format!("{h:?}")).collect();
                assert_eq!(
                    lhs, rhs,
                    "seed {seed} ({}): sleep sets changed the terminal set",
                    case.name
                );
            }
            Reduction::Symmetry | Reduction::SleepSetSymmetry => {
                assert_eq!(
                    baseline_canonical,
                    canonical_set(&reduced, processes),
                    "seed {seed} ({}): {reduction:?} changed the canonical terminal set",
                    case.name
                );
            }
        }
        let verdicts: BTreeSet<(bool, bool)> =
            reduced.iter().map(|h| verdict(h, &case.universe)).collect();
        assert_eq!(
            baseline_verdicts, verdicts,
            "seed {seed} ({}): {reduction:?} changed the verdict set",
            case.name
        );
        let violation = engine::find_history_violation(
            case.implementation.as_ref(),
            &case.workload,
            &options(&case, reduction),
            |h| !violates(h),
        )
        .is_some();
        assert_eq!(
            baseline_violation, violation,
            "seed {seed} ({}): {reduction:?} changed the violation finding",
            case.name
        );
    }
}

/// Fingerprint cross-check mode: on every configuration visited by a
/// deduplicating exploration, the *incrementally maintained* Zobrist
/// fingerprint must agree with a full from-scratch rebuild
/// ([`evlin_sim::config::Config::fingerprint_consistent`]), and the
/// decomposed permuted fingerprint must agree with physically renaming the
/// configuration and reading its fingerprint.
fn check_fingerprint_seed(seed: u64) {
    let case = random_case(seed);
    let processes = case.workload.processes();
    let perms = engine::permutations(processes);
    for reduction in STRATEGIES {
        let options = EngineOptions {
            limits: case.limits,
            workers: Some(1),
            reduction,
            dedup: true, // forces fingerprint tracking on
            ..EngineOptions::default()
        };
        let mut checked = 0usize;
        engine::explore(
            case.implementation.as_ref(),
            &case.workload,
            &options,
            |config, _| {
                assert!(
                    config.fingerprint_consistent(),
                    "seed {seed} ({}): {reduction:?} drifted from the full rehash",
                    case.name
                );
                // Spot-check the permuted fold against a physical renaming on
                // a deterministic subsample (every 7th state keeps the quick
                // suite fast; the nightly run covers many more seeds).
                if checked.is_multiple_of(7) {
                    for perm in &perms {
                        let folded = config.fingerprint_permuted(perm);
                        let mut renamed = config.clone();
                        renamed.apply_permutation(perm);
                        assert_eq!(
                            folded,
                            renamed.fingerprint(),
                            "seed {seed} ({}): permuted fold diverged for {perm:?}",
                            case.name
                        );
                    }
                }
                checked += 1;
                Visit::Continue
            },
        );
        assert!(checked > 0, "seed {seed}: nothing visited");
    }
}

/// Fetch&increment read straight off one *eventually linearizable* base
/// object: every operation is a single access whose response it returns.
/// The programme embeds no process id, while the object's local copies and
/// replay log are keyed by one (`PidDependence::Permutable`) — the one shape
/// whose object components differ from renaming to renaming.
#[derive(Debug)]
struct EvFetchInc {
    processes: usize,
    policy: StabilizationPolicy,
}

#[derive(Debug, Clone)]
struct EvFetchIncLogic {
    invocation: Option<Invocation>,
}

impl Implementation for EvFetchInc {
    fn name(&self) -> String {
        "fetch&inc off an eventually linearizable object".into()
    }

    fn processes(&self) -> usize {
        self.processes
    }

    fn initial_base_objects(&self) -> Vec<Box<dyn BaseObject>> {
        vec![Box::new(EventuallyLinearizable::new(
            Arc::new(FetchIncrement::new()),
            self.policy,
        ))]
    }

    fn new_process(&self, _process: ProcessId) -> Box<dyn ProcessLogic> {
        Box::new(EvFetchIncLogic { invocation: None })
    }
}

impl ProcessLogic for EvFetchIncLogic {
    fn begin(&mut self, invocation: Invocation) {
        self.invocation = Some(invocation);
    }

    fn step(&mut self, previous_response: Option<Value>) -> TaskStep {
        match previous_response {
            Some(response) => TaskStep::Complete(response),
            None => TaskStep::Access {
                object: 0,
                invocation: self.invocation.clone().expect("operation begun"),
            },
        }
    }

    fn clone_box(&self) -> Box<dyn ProcessLogic> {
        Box::new(self.clone())
    }
}

/// What the argmin cases exercised, so the quick test can insist that the
/// seed range met every situation the check exists for.  The table walk
/// splits a renaming into a prefix and a suffix whose lengths depend on the
/// group size, so ties and pid-dependent objects are counted per size.
#[derive(Debug, Default)]
struct ArgminSeen {
    /// Per group size: states whose least key is shared by several
    /// renamings *and* first attained off the identity — where the index,
    /// not just the key, is what is being compared.
    tied_off_identity: BTreeMap<usize, usize>,
    /// Per group size: states checked with a pid-dependent base object.
    permutable: BTreeMap<usize, usize>,
    /// States checked with a positive fault budget.
    faulty: usize,
}

/// `canonical_permutation` against its definition: the first index of
/// `perms` minimizing `fingerprint_permuted`.
fn check_argmin(config: &Config, perms: &[Vec<usize>], context: &str) -> bool {
    let keys: Vec<u64> = perms
        .iter()
        .map(|perm| config.fingerprint_permuted(perm))
        .collect();
    let least = *keys.iter().min().expect("at least the identity");
    let first = keys.iter().position(|&key| key == least).expect("present");
    assert_eq!(
        config.canonical_permutation(perms),
        first,
        "{context}: not the first least renaming"
    );
    first != 0 && keys.iter().filter(|&&key| key == least).count() > 1
}

/// Argmin cross-check mode: the configurations the engine hands to
/// `canonical_permutation` are the *children* of canonical representatives,
/// before normalization, with rename rows maintained step by step — so those
/// are what gets sampled, under the strategy that canonicalizes.  One child
/// per sampled state is also checked with tracking off (the rebuild path).
fn check_argmin_seed(seed: u64, seen: &mut ArgminSeen) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Fifteen consecutive seeds cover every (group size, family) pair.
    let processes = 2 + (seed % 5) as usize;
    let family = (seed / 5) % 3;
    let ops = rng.gen_range(1..3usize);
    let fault_budget = rng.gen_range(0..2usize);
    let implementation: Box<dyn Implementation> = match family {
        // Untouched local copies are identical, so renamings tie all the way.
        0 => Box::new(LocalSpecImplementation::new(
            Arc::new(FetchIncrement::new()),
            processes,
        )),
        1 => Box::new(CasFetchInc::new(processes)),
        _ => Box::new(EvFetchInc {
            processes,
            policy: StabilizationPolicy::AfterAccesses(rng.gen_range(1..6usize)),
        }),
    };
    let name = format!(
        "seed {seed} ({}, {processes}p×{ops}, k={fault_budget})",
        implementation.name()
    );
    let workload = Workload::uniform(processes, FetchIncrement::fetch_inc(), ops);
    let perms = engine::permutations(processes);
    let options = EngineOptions {
        limits: ExploreOptions {
            max_depth: 14,
            max_configs: 5_000,
        },
        workers: Some(1),
        reduction: Reduction::SleepSetSymmetry,
        fault_budget,
        ..EngineOptions::default()
    };
    let mut visited = 0usize;
    let mut checked = 0usize;
    engine::explore(implementation.as_ref(), &workload, &options, |config, _| {
        visited += 1;
        if visited % 11 != 1 {
            return Visit::Continue;
        }
        for (k, p) in config.enabled_processes().into_iter().enumerate() {
            let mut child = config.clone();
            child.step(p);
            let tied = check_argmin(&child, &perms, &name);
            if k == 0 {
                child.set_fingerprint_tracking(false, false);
                check_argmin(&child, &perms, &name);
            }
            checked += 1;
            *seen.tied_off_identity.entry(processes).or_default() += usize::from(tied);
            *seen.permutable.entry(processes).or_default() += usize::from(family == 2);
            seen.faulty += usize::from(fault_budget > 0);
        }
        // The reference side costs `n!` renamed fingerprints per state.
        if checked * perms.len() > 6_000 {
            Visit::Stop
        } else {
            Visit::Continue
        }
    });
    assert!(checked > 0, "{name}: nothing checked");
}

#[test]
fn reductions_agree_with_unreduced_engine_on_random_configs() {
    for seed in 0..12 {
        check_seed(seed);
    }
}

#[test]
fn fingerprints_match_full_rehash_on_visited_states() {
    for seed in 0..8 {
        check_fingerprint_seed(seed);
    }
}

#[test]
fn canonical_permutation_is_the_first_least_renaming() {
    let mut seen = ArgminSeen::default();
    for seed in 0..15 {
        check_argmin_seed(seed, &mut seen);
    }
    // Two renamings can only tie with the identity, so ties off it start at 3.
    for n in 2..=6 {
        assert!(
            (n == 2 || seen.tied_off_identity.get(&n) > Some(&0))
                && seen.permutable.get(&n) > Some(&0),
            "the seed range missed a tie or a pid-dependent object at {n} processes: {seen:?}"
        );
    }
    assert!(
        seen.faulty > 0,
        "the seed range missed a fault budget: {seen:?}"
    );
}

/// Extended nightly argmin cross-check: `EVLIN_DIFF_CASES` seeds.
#[test]
#[ignore = "long-running; exercised by the nightly fuzz job"]
fn canonical_permutation_is_the_first_least_renaming_extended() {
    let cases: u64 = std::env::var("EVLIN_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    let mut seen = ArgminSeen::default();
    for seed in 3_000..3_000 + cases {
        check_argmin_seed(seed, &mut seen);
    }
}

/// Extended nightly fingerprint cross-check: `EVLIN_DIFF_CASES` seeds.
#[test]
#[ignore = "long-running; exercised by the nightly fuzz job"]
fn fingerprints_match_full_rehash_extended() {
    let cases: u64 = std::env::var("EVLIN_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    for seed in 2_000..2_000 + cases {
        check_fingerprint_seed(seed);
    }
}

/// Extended nightly run: `EVLIN_DIFF_CASES` seeds (default 300).
#[test]
#[ignore = "long-running; exercised by the nightly fuzz job"]
fn reductions_agree_extended() {
    let cases: u64 = std::env::var("EVLIN_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    for seed in 1_000..1_000 + cases {
        check_seed(seed);
    }
}
