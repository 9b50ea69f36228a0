//! Driving a configuration under a scheduler.

use crate::config::{Config, StepOutcome};
use crate::program::Implementation;
use crate::scheduler::Scheduler;
use crate::workload::Workload;
use evlin_history::History;

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The recorded high-level history.
    pub history: History,
    /// The final configuration.
    pub config: Config,
    /// Number of steps taken.
    pub steps: usize,
    /// Whether every workload operation completed.
    pub completed_all: bool,
}

/// Runs `implementation` on `workload` under `scheduler`, for at most
/// `max_steps` atomic steps.
///
/// The run stops when the scheduler returns `None`, when the configuration is
/// quiescent, or when the step budget is exhausted — whichever happens first.
pub fn run(
    implementation: &dyn Implementation,
    workload: &Workload,
    scheduler: &mut dyn Scheduler,
    max_steps: usize,
) -> RunOutcome {
    let config = Config::initial(implementation, workload);
    run_from(config, workload, scheduler, max_steps)
}

/// Like [`run`], but continues from an existing configuration (used by the
/// Proposition 18 experiments, which resume from a frozen configuration).
pub fn run_from(
    mut config: Config,
    workload: &Workload,
    scheduler: &mut dyn Scheduler,
    max_steps: usize,
) -> RunOutcome {
    let mut steps = 0usize;
    while steps < max_steps && !config.is_quiescent() {
        let Some(p) = scheduler.next(&config) else {
            break;
        };
        match config.step(p) {
            StepOutcome::Idle => {
                // The scheduler picked a process with nothing to do; if no
                // process is enabled we are done, otherwise just continue.
                if config.is_quiescent() {
                    break;
                }
            }
            StepOutcome::Progressed | StepOutcome::Completed(_) => {}
        }
        steps += 1;
    }
    let completed_all = config.total_completed() == workload.total_operations();
    RunOutcome {
        history: config.history().clone(),
        steps,
        completed_all,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::LocalSpecImplementation;
    use crate::scheduler::{RandomScheduler, RoundRobinScheduler};
    use evlin_spec::FetchIncrement;
    use std::sync::Arc;

    #[test]
    fn run_completes_workload_and_records_history() {
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 3);
        let w = Workload::uniform(3, FetchIncrement::fetch_inc(), 4);
        let mut s = RoundRobinScheduler::new();
        let out = run(&imp, &w, &mut s, 10_000);
        assert!(out.completed_all);
        assert_eq!(out.history.complete_operations().len(), 12);
        assert!(out.history.is_well_formed());
        assert_eq!(out.steps, 12); // local-copy implementation: one step per op
        assert!(out.config.is_quiescent());
    }

    #[test]
    fn step_budget_truncates_the_run() {
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 10);
        let mut s = RandomScheduler::seeded(1);
        let out = run(&imp, &w, &mut s, 5);
        assert!(!out.completed_all);
        assert_eq!(out.steps, 5);
        assert_eq!(out.history.complete_operations().len(), 5);
    }

    #[test]
    fn empty_workload_is_a_no_op() {
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 2);
        let w = Workload::new(vec![Vec::new(), Vec::new()]);
        let mut s = RoundRobinScheduler::new();
        let out = run(&imp, &w, &mut s, 100);
        assert!(out.completed_all);
        assert!(out.history.is_empty());
        assert_eq!(out.steps, 0);
    }
}
