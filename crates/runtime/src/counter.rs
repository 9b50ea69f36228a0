//! Multi-threaded counters: linearizable and eventually consistent.

use std::sync::atomic::{AtomicI64, Ordering};

/// A shared counter usable from many threads.
///
/// `fetch_inc` is the operation the paper's introduction discusses: add one
/// and learn a value of the counter.  For the linearizable implementations
/// the returned value is exact; for the eventually consistent one it may be
/// temporarily stale (lower than the true count), but every increment is
/// eventually reflected in [`ConcurrentCounter::exact_total`].
pub trait ConcurrentCounter: Send + Sync {
    /// Adds one to the counter on behalf of `thread` and returns a value of
    /// the counter before the increment (exact for linearizable
    /// implementations, possibly stale otherwise).
    fn fetch_inc(&self, thread: usize) -> i64;

    /// The exact number of increments applied so far, computed with full
    /// synchronization (used to verify convergence after quiescence).
    fn exact_total(&self) -> i64;

    /// A short human-readable name.
    fn name(&self) -> &'static str;
}

/// The introduction's baseline: a lock-free fetch&increment built from a
/// compare&swap retry loop.
#[derive(Debug, Default)]
pub struct CasCounter {
    value: AtomicI64,
}

impl CasCounter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        CasCounter {
            value: AtomicI64::new(0),
        }
    }
}

impl ConcurrentCounter for CasCounter {
    fn fetch_inc(&self, _thread: usize) -> i64 {
        let mut current = self.value.load(Ordering::Acquire);
        loop {
            match self.value.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return current,
                Err(actual) => current = actual,
            }
        }
    }

    fn exact_total(&self) -> i64 {
        self.value.load(Ordering::SeqCst)
    }

    fn name(&self) -> &'static str {
        "cas-loop"
    }
}

/// The hardware primitive: `fetch_add` (linearizable, no retry loop).
#[derive(Debug, Default)]
pub struct FetchAddCounter {
    value: AtomicI64,
}

impl FetchAddCounter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        FetchAddCounter {
            value: AtomicI64::new(0),
        }
    }
}

impl ConcurrentCounter for FetchAddCounter {
    fn fetch_inc(&self, _thread: usize) -> i64 {
        self.value.fetch_add(1, Ordering::AcqRel)
    }

    fn exact_total(&self) -> i64 {
        self.value.load(Ordering::SeqCst)
    }

    fn name(&self) -> &'static str {
        "fetch-add"
    }
}

/// An eventually consistent sharded counter.
///
/// Each thread owns a shard and increments it without any cross-thread
/// synchronization beyond the shard's own atomic.  A `fetch_inc` returns the
/// thread's *cached* view of the other shards plus its own exact count; the
/// cache is refreshed only every `refresh_interval` operations, so returned
/// values can be stale (lower than the true count) in between — exactly the
/// "temporarily inconsistent but eventually counted" counter the paper's
/// introduction motivates.  After quiescence, [`ShardedCounter::exact_total`]
/// returns the true total, i.e. no increment is ever lost.
#[derive(Debug)]
pub struct ShardedCounter {
    shards: Vec<CachePadded>,
    refresh_interval: u64,
}

/// One shard plus the owning thread's cached view, padded to reduce false
/// sharing.
#[derive(Debug, Default)]
struct CachePadded {
    own: AtomicI64,
    cached_others: AtomicI64,
    ops_since_refresh: AtomicI64,
    _pad: [u64; 12],
}

impl ShardedCounter {
    /// Creates a sharded counter for `threads` threads that refreshes each
    /// thread's view of the other shards every `refresh_interval` operations.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or `refresh_interval` is zero.
    pub fn new(threads: usize, refresh_interval: u64) -> Self {
        assert!(threads > 0, "at least one thread is required");
        assert!(refresh_interval > 0, "refresh interval must be positive");
        ShardedCounter {
            shards: (0..threads).map(|_| CachePadded::default()).collect(),
            refresh_interval: refresh_interval as i64 as u64,
        }
    }

    fn sum_others(&self, thread: usize) -> i64 {
        self.shards
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != thread)
            .map(|(_, s)| s.own.load(Ordering::Acquire))
            .sum()
    }

    /// The number of threads (shards).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }
}

impl ConcurrentCounter for ShardedCounter {
    fn fetch_inc(&self, thread: usize) -> i64 {
        let shard = &self.shards[thread];
        let own_before = shard.own.fetch_add(1, Ordering::AcqRel);
        let ops = shard.ops_since_refresh.fetch_add(1, Ordering::Relaxed);
        if ops % self.refresh_interval as i64 == 0 {
            // Periodic refresh: read the other shards and cache the sum.
            let others = self.sum_others(thread);
            shard.cached_others.store(others, Ordering::Release);
        }
        shard.cached_others.load(Ordering::Acquire) + own_before
    }

    fn exact_total(&self) -> i64 {
        self.shards
            .iter()
            .map(|s| s.own.load(Ordering::SeqCst))
            .sum()
    }

    fn name(&self) -> &'static str {
        "sharded-eventual"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    fn hammer(counter: &dyn ConcurrentCounter, threads: usize, ops: usize) -> Vec<i64> {
        let results: Vec<Mutex<Vec<i64>>> = (0..threads).map(|_| Mutex::new(Vec::new())).collect();
        std::thread::scope(|s| {
            for t in 0..threads {
                let results = &results;
                s.spawn(move || {
                    let mut local = Vec::with_capacity(ops);
                    for _ in 0..ops {
                        local.push(counter.fetch_inc(t));
                    }
                    *results[t].lock().expect("result slot") = local;
                });
            }
        });
        results
            .into_iter()
            .flat_map(|m| m.into_inner().expect("result slot"))
            .collect()
    }

    #[test]
    fn cas_counter_returns_distinct_values() {
        let c = CasCounter::new();
        let mut values = hammer(&c, 4, 500);
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 2000, "every fetch_inc must get a unique slot");
        assert_eq!(c.exact_total(), 2000);
        assert_eq!(c.name(), "cas-loop");
    }

    #[test]
    fn fetch_add_counter_returns_distinct_values() {
        let c = FetchAddCounter::new();
        let mut values = hammer(&c, 4, 500);
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 2000);
        assert_eq!(c.exact_total(), 2000);
        assert_eq!(c.name(), "fetch-add");
    }

    #[test]
    fn sharded_counter_never_loses_increments() {
        let c = ShardedCounter::new(4, 16);
        let values = hammer(&c, 4, 500);
        // Every increment is eventually counted…
        assert_eq!(c.exact_total(), 2000);
        // …but the returned values may repeat (staleness).
        let mut sorted = values.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.len() <= values.len());
        assert_eq!(c.shards(), 4);
        assert_eq!(c.name(), "sharded-eventual");
    }

    #[test]
    fn sharded_counter_single_thread_is_exact() {
        let c = ShardedCounter::new(1, 8);
        for expect in 0..100i64 {
            assert_eq!(c.fetch_inc(0), expect);
        }
        assert_eq!(c.exact_total(), 100);
    }

    #[test]
    fn sharded_counter_staleness_is_bounded_by_refresh() {
        // With a refresh interval of 1 the cached view is refreshed on every
        // operation, so the returned value can lag only by increments that
        // raced with the read.
        let c = Arc::new(ShardedCounter::new(2, 1));
        let v0 = c.fetch_inc(0);
        let v1 = c.fetch_inc(1);
        assert_eq!(v0, 0);
        assert_eq!(v1, 1); // thread 1 refreshed and saw thread 0's increment
        assert_eq!(c.exact_total(), 2);
    }

    #[test]
    #[should_panic(expected = "refresh interval")]
    fn zero_refresh_interval_is_rejected() {
        let _ = ShardedCounter::new(2, 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_is_rejected() {
        let _ = ShardedCounter::new(0, 8);
    }
}
