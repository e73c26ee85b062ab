//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! A span records its name, start, end, parent span and the request it
//! served. Spans are kept in memory and written out when the run ends. A
//! disabled tracer reads no clock and stores nothing, so untraced runs pay
//! one branch per call site.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The request a span served: `(pair, seq)`. What `pair` and `seq` number
/// is workload-specific (see each workload's module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId {
    /// Pair (or vehicle) index.
    pub pair: u32,
    /// Sequence number within the pair.
    pub seq: u64,
}

impl RequestId {
    /// Creates a request id.
    pub fn new(pair: u32, seq: u64) -> Self {
        RequestId { pair, seq }
    }
}

/// Identifier of a recorded span, for parenting children.
pub type SpanId = u64;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id.
    pub id: SpanId,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Layer-qualified name, e.g. `bev.raster`.
    pub name: &'static str,
    /// The request it served.
    pub request: RequestId,
    /// Start (ns).
    pub start_ns: u64,
    /// End (ns).
    pub end_ns: u64,
}

impl SpanRecord {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Collects spans; thread-safe so workers of the parallel pool can record.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Self {
        Tracer { origin: Some(Instant::now()), next_id: AtomicU64::new(1), spans: Mutex::default() }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer { origin: None, next_id: AtomicU64::new(1), spans: Mutex::default() }
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's id
    /// for parenting its children (`None` when disabled).
    pub fn time<R>(
        &self,
        name: &'static str,
        request: RequestId,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let Some(origin) = self.origin else { return f(None) };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = origin.elapsed().as_nanos() as u64;
        let out = f(Some(id));
        let end_ns = origin.elapsed().as_nanos() as u64;
        let record = SpanRecord { id, parent, name, request, start_ns, end_ns };
        self.spans.lock().expect("a span recorder panicked").push(record);
        out
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }
}

/// Self time of each span (ms): its duration minus the part of its
/// interval that its children cover. Children of one parent may overlap
/// (parallel workers), so their intervals are merged before subtracting.
pub fn self_times(spans: &[SpanRecord]) -> Vec<(SpanId, f64)> {
    let mut children: std::collections::HashMap<SpanId, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let (mut lo, mut hi) = (0u64, 0u64);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    if a > hi {
                        covered += hi - lo;
                        (lo, hi) = (a, b);
                    } else {
                        hi = hi.max(b);
                    }
                }
                covered += hi - lo;
            }
            (s.id, (s.end_ns - s.start_ns - covered) as f64 / 1e6)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord { id, parent, name: "t", request: RequestId::new(0, 0), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, None, 0, 10_000_000),
            span(2, Some(1), 1_000_000, 4_000_000),
            span(3, Some(1), 3_000_000, 6_000_000),
            span(4, Some(1), 8_000_000, 9_000_000),
        ];
        let own: Vec<f64> = self_times(&spans).into_iter().map(|(_, ms)| ms).collect();
        assert_eq!(own, vec![4.0, 3.0, 3.0, 1.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        let v = t.time("x", RequestId::new(1, 2), None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
