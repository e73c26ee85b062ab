//! Proofs about the Log-Gabor bank's heap use, under a counting global
//! allocator that wraps the system allocator and tracks calls, live bytes
//! and their high-water mark.
//!
//! * After a warm-up frame has sized the [`FftWorkspace`], further
//!   `orientation_amplitudes_into` / `mim_fused_into` calls must perform
//!   **zero** allocations.
//! * [`LogGaborBank::new`] keeps only the mirror-pair rows of its packed
//!   grids, and its build scratch stays bounded.
//!
//! This is its own integration binary (tests serialised on a mutex) so no
//! other allocations pollute the counters.

use bba_signal::{FftWorkspace, Grid, LogGaborBank};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Serialises the counting windows: the test harness runs `#[test]`s on
/// worker threads, and a concurrent test's allocations would land in this
/// one's counter.
static SERIAL: Mutex<()> = Mutex::new(());

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`] since it was last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn bank_keeps_half_its_rows_and_builds_in_bounded_scratch() {
    let _guard = SERIAL.lock().unwrap();
    const MIB: usize = 1 << 20;
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let bank = LogGaborBank::new(256, 256);
    let retained = LIVE.load(Ordering::Relaxed) - base;
    let transient = PEAK.load(Ordering::Relaxed) - base - retained;
    // 12 orientations × 2 packed scale pairs, each 129 of 256 rows of 256
    // complexes: 12.09 MiB, plus the grids' own vectors.
    let half_bank = 24 * 129 * 256 * 16;
    assert!(
        (half_bank..=half_bank + 16 * 1024).contains(&retained),
        "bank retains {retained} B, expected {half_bank} B plus small overhead"
    );
    // Per-bin sin θ and cos θ (1 MiB), the radial factors of 4 scales
    // (2 MiB), then either the radii they came from (0.5 MiB) or the
    // stored cells' bin pairs and one orientation's angular factors
    // (0.5 MiB each): 4 MiB at 256².
    assert!(
        transient <= 4 * MIB + MIB / 2,
        "bank build peaks {transient} B above what it keeps, expected at most 4.5 MiB"
    );
    assert_eq!(bank.width(), 256);
}

#[test]
fn steady_state_mim_fft_path_allocates_nothing() {
    let _guard = SERIAL.lock().unwrap();
    let size = 64;
    let bank = LogGaborBank::new(size, size);
    let images: Vec<Grid<f64>> = (0..3)
        .map(|k| Grid::from_fn(size, size, |u, v| ((u * 5 + v * 3 + k * 11) % 7) as f64))
        .collect();
    let mut ws = FftWorkspace::new();
    // Warm-up: sizes the workspace and populates the plan cache.
    bank.orientation_amplitudes_into(&images[0], &mut ws).unwrap();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for img in &images {
        bank.orientation_amplitudes_into(img, &mut ws).unwrap();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "steady-state orientation_amplitudes_into must not allocate");

    // Sanity: the warm runs actually computed something.
    assert!(ws.amplitude(0).max_value() > 0.0);
}

#[test]
fn steady_state_fused_mim_allocates_nothing() {
    let _guard = SERIAL.lock().unwrap();
    // The fused streaming reduction with caller-provided output grids must
    // be end-to-end heap-free once its single lane is sized: spectrum →
    // filter product → inverse FFT → amplitude → running argmax, with no
    // per-orientation amplitude grids at all.
    let size = 64;
    let bank = LogGaborBank::new(size, size);
    let images: Vec<Grid<f64>> = (0..3)
        .map(|k| Grid::from_fn(size, size, |u, v| ((u * 3 + v * 7 + k * 13) % 5) as f64))
        .collect();
    let mut ws = FftWorkspace::new();
    let mut index = Grid::new(size, size, 0u8);
    let mut amplitude = Grid::new(size, size, 0.0f64);
    // Warm-up: sizes the fused lane and populates the plan cache.
    bank.mim_fused_into(&images[0], &mut ws, &mut index, &mut amplitude).unwrap();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for img in &images {
        bank.mim_fused_into(img, &mut ws, &mut index, &mut amplitude).unwrap();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "steady-state mim_fused_into must not allocate");

    // Sanity: the warm runs actually computed something.
    assert!(amplitude.max_value() > 0.0);
}
