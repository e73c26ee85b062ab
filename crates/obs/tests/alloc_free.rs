//! Proof that the disabled recorder is free on the hot path.
//!
//! The recovery pipeline carries a [`bba_obs::Recorder`] through its
//! innermost loops (stage-1 phases, session pumps, the parallel
//! substrate); the contract that makes that acceptable is that a
//! *disabled* recorder never touches the heap — same counting-global-
//! allocator pattern as `crates/signal/tests/alloc_free.rs`, in its own
//! integration binary so no other test's allocations pollute the counter.

use bba_obs::Recorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn disabled_recorder_hot_path_allocates_nothing() {
    let obs = Recorder::disabled();
    let clone = obs.clone(); // handles are passed around by clone

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for k in 0..1000u64 {
        obs.incr("recover.calls");
        obs.add("link.datagrams_sent", k);
        obs.gauge("serve.queue_depth", k as f64);
        obs.observe("link.reassembly_ms", k as f64 * 0.1);
        obs.record_span_ms("stage1/mim", 1.0);
        let outer = clone.span("recover");
        let inner = clone.span("stage1");
        drop(inner);
        drop(outer);
        assert!(!obs.is_enabled());
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "a disabled recorder must never allocate");
}
