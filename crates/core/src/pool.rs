//! Bounded scratch-buffer pools shared across recoveries.
//!
//! The engine recycles [`bba_signal::FftWorkspace`] and stage-1 describe
//! scratch so the steady-state pipeline allocates nothing per frame. The
//! original pools were plain `Mutex<Vec<T>>` with unbounded growth: under
//! N concurrent callers the high-water mark is N live buffers, and every
//! one of them is retained forever even if the service later settles at a
//! much lower concurrency. A fleet-scale service multiplexing hundreds of
//! sessions over one shared engine needs the opposite guarantee — a fixed
//! ceiling on retained scratch, with overflow buffers simply dropped back
//! to the allocator.
//!
//! [`BoundedPool`] provides that: `take` pops a recycled buffer (a *hit*)
//! or builds a fresh default (a *miss*); `put` returns a buffer unless the
//! pool is already at capacity, in which case the buffer is dropped and
//! counted. All three outcomes are exposed through `bba-obs` counters
//! (`<prefix>.hits` / `<prefix>.misses` / `<prefix>.dropped`), so a
//! metrics snapshot shows exactly how well the scratch set covers the
//! offered concurrency.

use bba_obs::Recorder;
use std::sync::Mutex;

/// A mutex-guarded object pool with a hard retention ceiling.
///
/// Misses are unbounded by design — `take` never blocks and never fails;
/// it is the *retained* memory that is capped. `capacity` therefore bounds
/// steady-state memory while transient concurrency spikes degrade to
/// allocation, not to queueing.
#[derive(Debug)]
pub(crate) struct BoundedPool<T> {
    items: Mutex<Vec<T>>,
    capacity: usize,
    /// Static metric prefix (e.g. `"pool.workspace"`); kept `'static` so
    /// counter recording never allocates a name.
    hits_metric: &'static str,
    misses_metric: &'static str,
    dropped_metric: &'static str,
}

impl<T: Default> BoundedPool<T> {
    /// An empty pool retaining at most `capacity` items. The metric names
    /// are fixed per pool so hot-path recording is a static-str counter
    /// bump.
    pub(crate) const fn new(
        capacity: usize,
        hits_metric: &'static str,
        misses_metric: &'static str,
        dropped_metric: &'static str,
    ) -> Self {
        BoundedPool {
            items: Mutex::new(Vec::new()),
            capacity,
            hits_metric,
            misses_metric,
            dropped_metric,
        }
    }

    /// Pops a recycled item, or builds `T::default()` when the pool is
    /// empty. Never blocks beyond the (short) mutex critical section.
    pub(crate) fn take(&self, obs: &Recorder) -> T {
        let popped = self.items.lock().expect("pool lock").pop();
        match popped {
            Some(item) => {
                obs.incr(self.hits_metric);
                item
            }
            None => {
                obs.incr(self.misses_metric);
                T::default()
            }
        }
    }

    /// Returns an item to the pool; at capacity the item is dropped (and
    /// the drop counted) instead of growing the pool.
    pub(crate) fn put(&self, item: T, obs: &Recorder) {
        let mut items = self.items.lock().expect("pool lock");
        if items.len() < self.capacity {
            items.push(item);
        } else {
            drop(items);
            obs.incr(self.dropped_metric);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_pool(capacity: usize) -> BoundedPool<Vec<u8>> {
        BoundedPool::new(capacity, "pool.test.hits", "pool.test.misses", "pool.test.dropped")
    }

    /// Idle items the pool currently retains.
    fn retained<T>(pool: &BoundedPool<T>) -> usize {
        pool.items.lock().expect("pool lock").len()
    }

    #[test]
    fn take_from_empty_pool_is_a_miss() {
        let pool = test_pool(2);
        let obs = Recorder::enabled();
        let item = pool.take(&obs);
        assert!(item.is_empty());
        let snap = obs.snapshot();
        assert_eq!(snap.counter("pool.test.misses"), Some(1));
        assert_eq!(snap.counter("pool.test.hits"), None);
    }

    #[test]
    fn put_then_take_is_a_hit_and_recycles_the_item() {
        let pool = test_pool(2);
        let obs = Recorder::enabled();
        pool.put(vec![1, 2, 3], &obs);
        assert_eq!(retained(&pool), 1);
        let item = pool.take(&obs);
        assert_eq!(item, vec![1, 2, 3]);
        assert_eq!(retained(&pool), 0);
        assert_eq!(obs.snapshot().counter("pool.test.hits"), Some(1));
    }

    #[test]
    fn pool_never_retains_more_than_capacity() {
        let pool = test_pool(3);
        let obs = Recorder::enabled();
        for i in 0..10 {
            pool.put(vec![i], &obs);
        }
        assert_eq!(retained(&pool), 3);
        assert_eq!(obs.snapshot().counter("pool.test.dropped"), Some(7));
    }

    #[test]
    fn zero_capacity_pool_drops_everything() {
        let pool = test_pool(0);
        let obs = Recorder::enabled();
        pool.put(vec![1], &obs);
        assert_eq!(retained(&pool), 0);
        assert_eq!(obs.snapshot().counter("pool.test.dropped"), Some(1));
        // Every take is a miss but still succeeds.
        let _ = pool.take(&obs);
        assert_eq!(obs.snapshot().counter("pool.test.misses"), Some(1));
    }

    #[test]
    fn concurrent_callers_stay_bounded() {
        use std::sync::Arc;
        let pool = Arc::new(test_pool(4));
        let obs = Recorder::enabled();
        std::thread::scope(|s| {
            for _ in 0..16 {
                let pool = Arc::clone(&pool);
                let obs = obs.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        let item = pool.take(&obs);
                        pool.put(item, &obs);
                    }
                });
            }
        });
        assert!(retained(&pool) <= 4, "retained {} > capacity 4", retained(&pool));
        let snap = obs.snapshot();
        let hits = snap.counter("pool.test.hits").unwrap_or(0);
        let misses = snap.counter("pool.test.misses").unwrap_or(0);
        assert_eq!(hits + misses, 16 * 50, "every take is a hit or a miss");
    }

    #[test]
    fn disabled_recorder_costs_nothing_and_changes_nothing() {
        let pool = test_pool(1);
        let obs = Recorder::disabled();
        pool.put(vec![9], &obs);
        assert_eq!(pool.take(&obs), vec![9]);
        assert!(obs.snapshot().is_empty());
    }
}
