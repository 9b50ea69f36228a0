//! Allocation-count smoke test for the recording path.
//!
//! A counting global allocator wraps the system allocator.  Once the frame
//! rings have their buffers, recording `fetch_inc` operations on one thread
//! and merging and dropping the events on another must not allocate at all:
//! the invocation is a plain value and the frame buffers cycle through the
//! pool.  The test fails the moment a per-event `String`, `Arc` or `Vec`
//! comes back (it was ~2 allocations per operation once), instead of waiting
//! for the bench gate to notice the slowdown.

use evlin_history::{Event, ObjectId, ProcessId};
use evlin_runtime::sharded_recorder;
use evlin_spec::{FetchIncrement, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

/// Counts every allocation made through the global allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const FRAME_EVENTS: usize = 256;
const RING_FRAMES: usize = 8;
const WARM_UP_OPS: usize = 10_000;
const MEASURED_OPS: usize = 100_000;

#[test]
fn recording_and_merging_fetch_inc_operations_is_allocation_free() {
    let (mut shards, mut merge) = sharded_recorder(1, FRAME_EVENTS, RING_FRAMES, None);
    let mut shard = shards.pop().expect("one shard");
    // Both threads stop here twice, so the measured window opens only after
    // the warm-up has been produced *and* consumed, and nothing is produced
    // before the window's opening count is read.
    let barrier = Barrier::new(2);
    let (process, object) = (ProcessId(0), ObjectId(0));
    let record = |shard: &mut evlin_runtime::RecorderShard, ops: std::ops::Range<usize>| {
        for k in ops {
            shard.invoke(process, object, FetchIncrement::fetch_inc());
            shard.respond(process, object, Value::from(k as i64));
        }
        shard.flush();
    };
    let mut out: Vec<(u64, Event)> = Vec::with_capacity(4096);
    let (allocations, merged) = std::thread::scope(|s| {
        let barrier = &barrier;
        s.spawn(move || {
            record(&mut shard, 0..WARM_UP_OPS);
            barrier.wait();
            barrier.wait();
            record(&mut shard, WARM_UP_OPS..WARM_UP_OPS + MEASURED_OPS);
            shard.finish()
        });
        let mut warm = 0;
        while warm < 2 * WARM_UP_OPS {
            warm += merge.recv_sorted(&mut out, (2 * WARM_UP_OPS - warm).min(4096));
            out.clear();
        }
        barrier.wait();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        barrier.wait();
        let mut merged = 0;
        loop {
            let n = merge.recv_sorted(&mut out, 4096);
            if n == 0 {
                break;
            }
            merged += n;
            out.clear(); // drops the events on this, the consuming, thread
        }
        (ALLOCATIONS.load(Ordering::Relaxed) - before, merged)
    });
    assert_eq!(merged, 2 * MEASURED_OPS);
    // The only allocations left are frame buffers the warm-up did not need
    // yet: at most a full ring plus the one being filled and the one being
    // drained, ever — never one per event, or even per frame.
    assert!(
        allocations <= RING_FRAMES + 2,
        "{allocations} allocations while recording and merging {MEASURED_OPS} operations"
    );
}
