//! What a receiver allocates for a hostile 26-byte header that declares a
//! 2048² raster: the engine's geometry-checked decode rejects the foreign
//! geometry before allocating it. This is its own integration binary, with
//! one test, so the counting global allocator sees no other test's
//! allocations.

use bb_align::{decode_frame, BbAlign, BbAlignConfig, DecodeError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

/// Bytes requested since the process started.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Bytes allocated while `f` runs, and its result.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATED.load(Ordering::Relaxed) - before, out)
}

#[test]
fn an_engine_rejects_a_foreign_2048_side_header_before_allocating_its_raster() {
    // Range 1024 m at 1 m: side 2048, the free decoder's cap. No cells, no
    // boxes.
    let mut header = b"BBA1".to_vec();
    header.extend_from_slice(&1024.0f64.to_le_bytes());
    header.extend_from_slice(&1.0f64.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    header.extend_from_slice(&0u16.to_le_bytes());
    assert_eq!(header.len(), 26);

    let engine = BbAlign::new(BbAlignConfig::default());
    let (bytes, decoded) = allocated_by(|| engine.decode_frame(&header));
    assert_eq!(decoded.unwrap_err(), DecodeError::ForeignGeometry);
    assert!(bytes < 1024, "the engine's decode allocated {bytes} B");

    // The free decoder does not know the receiver's geometry: it allocates
    // the declared raster, 2048² f64 cells (32 MiB).
    let (bytes, decoded) = allocated_by(|| decode_frame(&header));
    assert_eq!(decoded.unwrap().bev().size(), 2048);
    assert!(bytes >= 2048 * 2048 * 8, "the free decode allocated {bytes} B");
}
