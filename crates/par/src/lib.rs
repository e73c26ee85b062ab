//! Deterministic data-parallel substrate for the BB-Align workspace.
//!
//! The parallel grain is a whole unit of work: the pairs of a
//! `bba-serve` batch, the scenarios of a bench harness run and the
//! entries of a place-index query. One pose recovery runs serially on its caller's
//! thread; DESIGN.md ("Parallel execution model") records why.
//!
//! No external thread-pool crates are available offline, so this crate
//! hand-rolls one on [`std::thread::scope`]. The design constraint that
//! shapes everything here is **bit-exactness**: every helper collects
//! results *by index*, never by completion order, so the output of a
//! parallel run is identical — to the last bit — to the serial run. That is
//! what lets the batch suites (`bba-serve`'s width tests, the workspace's
//! `tests/fleet_pose_graph.rs` and `tests/warm_start.rs`) demand identical
//! outcomes at every thread count.
//!
//! # Thread budget
//!
//! The number of worker threads is a per-thread *budget*, resolved as:
//!
//! 1. a scoped override installed by [`with_threads`] (how tests and the
//!    bench binaries pin a count),
//! 2. else the `BBA_THREADS` environment variable,
//! 3. else [`std::thread::available_parallelism`].
//!
//! A budget of 1 short-circuits every helper to a plain serial loop on the
//! calling thread — no threads are spawned, no locks taken. Nested calls
//! split the budget instead of multiplying it: each `par_map` worker
//! inherits the budget divided by the number of workers, so a batch as
//! wide as its budget runs its inner calls serially (its share is 1). The
//! total number of live workers therefore never exceeds the top-level
//! budget.
//!
//! # Panics
//!
//! A panic inside a worker closure propagates to the caller when the scope
//! joins ([`std::thread::scope`] re-raises it), so a parallel map panics
//! exactly like the serial loop would — callers need no extra handling.
//!
//! # Example
//!
//! ```
//! let squares = bba_par::par_map(&[1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! // Bit-identical at any thread count:
//! let serial = bba_par::with_threads(1, || bba_par::par_map(&[1u64, 2, 3], |x| x * x));
//! let wide = bba_par::with_threads(8, || bba_par::par_map(&[1u64, 2, 3], |x| x * x));
//! assert_eq!(serial, wide);
//! ```

#![warn(missing_docs)]

use bba_obs::Recorder;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The process-wide recorder for pool occupancy metrics. Unset by default:
/// the gate is a single atomic load, so uninstrumented users (and the
/// allocation-free hot-path tests, which never install one) pay nothing.
static OBS: OnceLock<Recorder> = OnceLock::new();

/// Installs a process-wide observability recorder for the parallel
/// substrate. From then on every chunked run records worker occupancy
/// (`par.workers` gauge), chunk counts (`par.chunks`), and how often the
/// serial fast path short-circuits (`par.serial_ops` vs `par.parallel_ops`).
///
/// Returns `false` when a recorder was already installed (the install is
/// once-per-process; the original recorder stays in place).
pub fn install_recorder(recorder: Recorder) -> bool {
    OBS.set(recorder).is_ok()
}

/// The installed recorder, if any and enabled.
fn obs() -> Option<&'static Recorder> {
    OBS.get().filter(|r| r.is_enabled())
}

thread_local! {
    /// The calling thread's remaining thread budget (`None` = unresolved,
    /// fall back to the process default).
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Parses a `BBA_THREADS` value; `None` for absent or malformed input.
fn parse_threads(value: Option<&str>) -> Option<usize> {
    value.and_then(|v| v.trim().parse::<usize>().ok()).map(|n| n.max(1))
}

/// The process-wide default thread count: `BBA_THREADS` when set (clamped to
/// at least 1), else the machine's available parallelism. Resolved once and
/// cached.
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        parse_threads(std::env::var("BBA_THREADS").ok().as_deref())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The thread budget in effect on the calling thread (see the crate docs
/// for the resolution order).
pub fn current_threads() -> usize {
    BUDGET.with(|b| b.get()).unwrap_or_else(default_threads)
}

/// Runs `f` with the calling thread's budget set to `threads` (clamped to
/// at least 1), restoring the previous budget afterwards — also on panic.
///
/// This is the scoped, race-free alternative to mutating `BBA_THREADS`:
/// the equivalence tests run the same pipeline under `with_threads(1)` and
/// `with_threads(k)` and assert bit-identical results.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let prev = BUDGET.with(|b| b.replace(Some(threads.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Core chunk runner: evaluates `eval(lo, hi)` over `n` items split into
/// `chunk_size`-sized half-open ranges, concatenating the per-chunk outputs
/// **in chunk order**. Workers pull chunk indices from an atomic counter
/// (dynamic load balance) but the reduction sorts by index, so the result
/// is independent of scheduling.
fn run_chunks<U: Send>(
    n: usize,
    chunk_size: usize,
    eval: impl Fn(usize, usize) -> Vec<U> + Sync,
) -> Vec<U> {
    let chunk = chunk_size.max(1);
    let n_chunks = n.div_ceil(chunk);
    let threads = current_threads();
    let workers = threads.min(n_chunks);
    if workers <= 1 {
        // Serial fast path: one pass on the calling thread.
        if let Some(r) = obs() {
            r.incr("par.serial_ops");
        }
        return eval(0, n);
    }
    if let Some(r) = obs() {
        r.incr("par.parallel_ops");
        r.add("par.chunks", n_chunks as u64);
        r.gauge("par.workers", workers as f64);
    }
    let inner = (threads / workers).max(1);
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<U>)>> = Mutex::new(Vec::with_capacity(n_chunks));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                BUDGET.with(|b| b.set(Some(inner)));
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let lo = c * chunk;
                    let out = eval(lo, (lo + chunk).min(n));
                    done.lock().expect("no worker poisoned the result lock").push((c, out));
                }
            });
        }
    });
    let mut parts = done.into_inner().expect("all workers joined cleanly");
    parts.sort_unstable_by_key(|&(c, _)| c);
    let mut out = Vec::with_capacity(n);
    for (_, part) in parts {
        out.extend(part);
    }
    out
}

/// A chunk size splitting `n` items into ~4 chunks per worker — enough
/// slack for dynamic balance without drowning in scheduling overhead.
fn auto_chunk(n: usize) -> usize {
    n.div_ceil(current_threads().max(1) * 4).max(1)
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Bit-identical to `items.iter().map(f).collect()` at every thread count.
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    par_map_chunked(items, auto_chunk(items.len()), f)
}

/// [`par_map`] with an explicit chunk size (items per work unit). Chunk
/// sizes larger than the input degenerate to the serial fast path.
fn par_map_chunked<T: Sync, U: Send>(
    items: &[T],
    chunk_size: usize,
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    run_chunks(items.len(), chunk_size, |lo, hi| items[lo..hi].iter().map(&f).collect())
}

/// Maps `f` over the index range `0..n` in parallel, returning results in
/// index order — the slice-free sibling of [`par_map`] for loops like
/// "for every image column".
pub fn par_map_indices<U: Send>(n: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    run_chunks(n, auto_chunk(n), |lo, hi| (lo..hi).map(&f).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_handles_env_forms() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("nope")), None);
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("0")), Some(1), "zero clamps to one");
    }

    #[test]
    fn par_map_preserves_order_at_every_width() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in 1..=8 {
            let got = with_threads(threads, || par_map(&items, |x| x * x + 1));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let empty: [u32; 0] = [];
        assert!(with_threads(8, || par_map(&empty, |x| *x)).is_empty());
        assert!(with_threads(8, || par_map_indices(0, |i| i)).is_empty());
    }

    #[test]
    fn chunk_size_larger_than_input_is_serial() {
        let items = [1, 2, 3];
        let main_id = std::thread::current().id();
        let got = with_threads(8, || {
            par_map_chunked(&items, 1000, |x| (x * 10, std::thread::current().id()))
        });
        assert_eq!(got.iter().map(|&(v, _)| v).collect::<Vec<_>>(), vec![10, 20, 30]);
        // One chunk ⇒ one worker ⇒ the serial fast path on the caller.
        assert!(got.iter().all(|&(_, id)| id == main_id));
    }

    #[test]
    fn budget_one_takes_serial_fast_path() {
        let main_id = std::thread::current().id();
        let ids = with_threads(1, || par_map(&[1, 2, 3, 4], |_| std::thread::current().id()));
        assert!(ids.iter().all(|&id| id == main_id), "budget 1 must not spawn");
        assert_eq!(with_threads(1, current_threads), 1);
    }

    #[test]
    fn nested_par_map_splits_the_budget() {
        // 8 items under a budget of 8 → 8 single-chunk workers, each left
        // with a budget of 8/8 = 1: the inner call must run serially (and
        // correctly) rather than oversubscribe.
        let items: Vec<usize> = (0..8).collect();
        let expected: Vec<Vec<usize>> =
            items.iter().map(|&i| (0..10).map(|j| i * 100 + j).collect()).collect();
        let got = with_threads(8, || {
            par_map(&items, |&i| {
                assert_eq!(current_threads(), 1);
                par_map_indices(10, |j| i * 100 + j)
            })
        });
        assert_eq!(got, expected);

        // 4 items under a budget of 8 → 4 workers sharing the surplus:
        // each inherits 8/4 = 2 for its own nested parallelism.
        let inner: Vec<usize> = with_threads(8, || par_map(&[(); 4], |_| current_threads()));
        assert_eq!(inner, vec![2; 4]);
    }

    #[test]
    fn with_threads_restores_budget_after_nesting() {
        with_threads(6, || {
            assert_eq!(current_threads(), 6);
            with_threads(2, || assert_eq!(current_threads(), 2));
            assert_eq!(current_threads(), 6);
        });
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates_from_par_map() {
        let items: Vec<u32> = (0..64).collect();
        let _ = with_threads(4, || {
            par_map(&items, |&x| {
                if x == 33 {
                    panic!("worker closure failed");
                }
                x
            })
        });
    }

    #[test]
    fn installed_recorder_sees_pool_occupancy() {
        // Installation is once-per-process, so this test owns the global
        // recorder for this test binary; other tests in the same process
        // may add to the counters, which is why the assertions are ≥.
        let r = Recorder::enabled();
        assert!(install_recorder(r.clone()));
        assert!(!install_recorder(Recorder::enabled()), "second install must be refused");
        let items: Vec<u64> = (0..64).collect();
        with_threads(4, || par_map(&items, |x| x + 1));
        with_threads(1, || par_map(&items, |x| x + 1));
        let snap = r.snapshot();
        assert!(snap.counter("par.parallel_ops").unwrap_or(0) >= 1);
        assert!(snap.counter("par.serial_ops").unwrap_or(0) >= 1);
        assert!(snap.counter("par.chunks").unwrap_or(0) >= 1);
        assert!(snap.gauge("par.workers").is_some());
    }

    #[test]
    fn results_are_bit_identical_across_widths() {
        // Floating-point per-item work: same input ⇒ same bits, any width.
        let items: Vec<f64> = (0..500).map(|i| i as f64 * 0.37).collect();
        let reference = with_threads(1, || par_map(&items, |x| (x.sin() * x.exp()).to_bits()));
        for threads in 2..=8 {
            let got = with_threads(threads, || par_map(&items, |x| (x.sin() * x.exp()).to_bits()));
            assert_eq!(got, reference, "threads={threads}");
        }
    }
}
