//! The one place this workspace's checker and explorer create threads, and
//! the batch entry points built on it.
//!
//! The rule: **a batch of whole problems, never a piece of one.**  What the
//! locality lemmas give the checker is algorithmic — a history is decided
//! object by object, a segment chain by chain — and every such
//! within-one-problem decomposition ([`crate::kernel::check_local`],
//! [`crate::weak_consistency::is_weakly_consistent`], the monitor's drains)
//! is a plain loop on the calling thread.  Threads exist at coarser grain
//! only: the runtime's stages and the service's shards own theirs, and
//! [`map_ordered`] serves the callers that hold a batch of independent whole
//! problems — a batch of histories (the `_par` functions below, used by
//! experiments E4, E5, E7, E10 and E15) or a batch of exploration subtrees
//! (the engine's one parallel wave, under `evlin_sim::engine::explore_shared`
//! and `evlin_sim::checkpoint::explore_checkpointed_par`).
//!
//! Results never depend on the worker count: [`map_ordered`] returns them in
//! input order, so each `_par` function returns exactly what the sequential
//! loop would.  [`check_histories`] is that loop, kept so the
//! `checker_scaling` bench and experiment E10d can price the speedup.

use crate::{fi, linearizability, t_linearizability};
use evlin_history::{History, ObjectUniverse};
use std::panic::resume_unwind;
use std::sync::Mutex;

/// The machine's core count as the standard library reports it (1 when it
/// cannot tell): what a worker count of `None` resolves to.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on up to `workers` threads — the caller's plus
/// scoped ones, each pulling the next item from a shared cursor — and
/// returns the results in input order.  With `workers <= 1` or at most one
/// item nothing is spawned and `f` runs inline on the caller.  A panic in
/// `f` resumes on the caller with its payload.
pub fn map_ordered<I, R>(workers: usize, items: I, f: impl Fn(I::Item) -> R + Sync) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
{
    let items = items.into_iter();
    let threads = workers.min(items.len());
    if threads <= 1 {
        return items.map(f).collect();
    }
    let cursor = Mutex::new(items.enumerate());
    let pull = || {
        let mut mine = Vec::new();
        loop {
            // Taken per item and released before `f` runs, so a panic in
            // `f` cannot poison it.
            let next = cursor.lock().expect("no panic holds the cursor").next();
            let Some((index, item)) = next else {
                return mine;
            };
            mine.push((index, f(item)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(pull)).collect();
        let mut done = pull();
        for handle in spawned {
            match handle.join() {
                Ok(theirs) => done.extend(theirs),
                Err(payload) => resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Sequential baseline of [`check_histories_par`].
pub fn check_histories(histories: &[History], universe: &ObjectUniverse) -> Vec<bool> {
    histories
        .iter()
        .map(|h| linearizability::is_linearizable(h, universe))
        .collect()
}

/// Decides linearizability for every history in the batch, on all cores.
///
/// The result is index-aligned with `histories` and identical to
/// [`check_histories`] on the same input — parallelism never changes a
/// verdict, only wall-clock time.
pub fn check_histories_par(histories: &[History], universe: &ObjectUniverse) -> Vec<bool> {
    map_ordered(available_workers(), histories, |h| {
        linearizability::is_linearizable(h, universe)
    })
}

/// Computes the minimal stabilization index of every history in the batch,
/// on all cores (index-aligned with the input).
pub fn min_stabilizations_par(
    histories: &[History],
    universe: &ObjectUniverse,
    limit: Option<usize>,
) -> Vec<Option<usize>> {
    map_ordered(available_workers(), histories, |h| {
        t_linearizability::min_stabilization(h, universe, limit)
    })
}

/// Decides whether *every* history in the batch is `t`-linearizable
/// according to the specialized fetch&increment checker, on all cores.
///
/// A history the specialized checker cannot handle (see
/// [`crate::fi::FiError`]) counts as *not* `t`-linearizable, matching the
/// conservative treatment used by the stability search in `evlin-sim`.
pub fn fi_all_t_linearizable_par(histories: &[History], initial: i64, t: usize) -> bool {
    map_ordered(available_workers(), histories, |h| {
        fi::is_t_linearizable(h, initial, t).unwrap_or(false)
    })
    .into_iter()
    .all(|ok| ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_history::generator::{concurrentize, random_sequential_legal, WorkloadSpec};
    use evlin_spec::{FetchIncrement, Register, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn universe() -> ObjectUniverse {
        let mut u = ObjectUniverse::new();
        u.add_object(Register::new(Value::from(0i64)));
        u.add_object(FetchIncrement::new());
        u
    }

    fn batch(u: &ObjectUniverse, n: usize) -> Vec<History> {
        (0..n)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed as u64);
                let seq = random_sequential_legal(
                    u,
                    &WorkloadSpec {
                        processes: 3,
                        operations: 8,
                    },
                    &mut rng,
                );
                concurrentize(&seq, 2, &mut rng)
            })
            .collect()
    }

    #[test]
    fn map_ordered_keeps_input_order_for_any_worker_count() {
        let items: Vec<usize> = (0..5).collect();
        for workers in [0, 1, 2, 7] {
            let doubled = map_ordered(workers, &items, |&x| 2 * x);
            assert_eq!(doubled, [0, 2, 4, 6, 8], "workers = {workers}");
            // Owned items are moved into `f`.
            let owned: Vec<String> = items.iter().map(|x| x.to_string()).collect();
            let echoed = map_ordered(workers, owned.clone(), |s| s);
            assert_eq!(echoed, owned, "workers = {workers}");
        }
        assert!(map_ordered(4, Vec::<u8>::new(), |x| x).is_empty());
    }

    #[test]
    fn one_worker_or_one_item_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let here = |_: &u8| std::thread::current().id();
        assert_eq!(map_ordered(1, &[0u8; 9], here), [caller; 9]);
        assert_eq!(map_ordered(8, &[0u8; 1], here), [caller]);
    }

    #[test]
    fn the_worker_count_is_real_threads() {
        // Four items that each wait for the other three: this returns only
        // if four threads run `f` at once, the caller's among them.
        let caller = std::thread::current().id();
        let barrier = std::sync::Barrier::new(4);
        let ids = map_ordered(4, 0..4, |_| {
            barrier.wait();
            std::thread::current().id()
        });
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 4);
        assert!(ids.contains(&caller));
    }

    #[test]
    fn a_panic_in_f_arrives_with_its_message() {
        for culprit in 0..4 {
            let caught = std::panic::catch_unwind(|| {
                map_ordered(2, 0..4, |x| assert!(x != culprit, "item {x} is bad"))
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(*message, format!("item {culprit} is bad"));
        }
    }

    #[test]
    fn parallel_verdicts_match_sequential() {
        let u = universe();
        let histories = batch(&u, 24);
        let sequential = check_histories(&histories, &u);
        let parallel = check_histories_par(&histories, &u);
        assert_eq!(sequential, parallel);
        // Generated-by-construction histories are all linearizable.
        assert!(sequential.iter().all(|&ok| ok));
    }

    #[test]
    fn parallel_stabilizations_match_sequential() {
        let u = universe();
        let histories = batch(&u, 16);
        let sequential: Vec<Option<usize>> = histories
            .iter()
            .map(|h| t_linearizability::min_stabilization(h, &u, None))
            .collect();
        let parallel = min_stabilizations_par(&histories, &u, None);
        assert_eq!(sequential, parallel);
        assert!(sequential.iter().all(|t| *t == Some(0)));
    }

    #[test]
    fn empty_batch_is_fine() {
        let u = universe();
        assert!(check_histories_par(&[], &u).is_empty());
        assert!(min_stabilizations_par(&[], &u, None).is_empty());
        assert!(fi_all_t_linearizable_par(&[], 0, 0));
    }

    #[test]
    fn fi_batch_matches_per_history_verdicts() {
        use evlin_history::{HistoryBuilder, ProcessId};
        let x = evlin_history::ObjectId(0);
        let good: Vec<History> = (0..4)
            .map(|_| {
                let mut b = HistoryBuilder::new();
                for k in 0..6i64 {
                    b = b.complete(
                        ProcessId((k % 2) as usize),
                        x,
                        FetchIncrement::fetch_inc(),
                        Value::from(k),
                    );
                }
                b.build()
            })
            .collect();
        assert!(fi_all_t_linearizable_par(&good, 0, 0));
        let mut with_bad = good.clone();
        with_bad.push(
            HistoryBuilder::new()
                .complete(
                    ProcessId(0),
                    x,
                    FetchIncrement::fetch_inc(),
                    Value::from(0i64),
                )
                .complete(
                    ProcessId(1),
                    x,
                    FetchIncrement::fetch_inc(),
                    Value::from(0i64),
                )
                .build(),
        );
        assert!(!fi_all_t_linearizable_par(&with_bad, 0, 0));
        // …but the duplicate zeros are forgiven at t = 2.
        assert!(fi_all_t_linearizable_par(&with_bad, 0, 2));
    }
}
