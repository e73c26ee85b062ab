//! **bba-obs**: a zero-dependency structured-observability substrate for
//! the BB-Align pipeline.
//!
//! The paper sells BB-Align as *lightweight and dependable* under degraded
//! conditions; dependability in a deployed stack means the per-stage
//! latencies, inlier health, and link behaviour are visible at runtime,
//! not only in offline bench binaries. This crate provides that layer as
//! three primitives behind one [`Recorder`] handle:
//!
//! * **hierarchical timed spans** ([`Recorder::span`]) — RAII guards that
//!   time a region and file it under a `/`-separated path built from the
//!   spans enclosing it on the same thread (`recover/stage1/mim`).
//!   Pre-measured durations slot into the same hierarchy via
//!   [`Recorder::record_span_ms`];
//! * **monotonic counters** ([`Recorder::incr`] / [`Recorder::add`]) and
//!   **gauges** ([`Recorder::gauge`], last-value-wins);
//! * **fixed-bucket histograms** ([`Recorder::observe`]) for value
//!   distributions (inlier counts, reassembly latencies). Span durations
//!   land in the same histogram shape.
//!
//! # Zero cost when disabled
//!
//! A [`Recorder`] is either *enabled* (backed by shared state) or
//! *disabled* (a `None`). Every recording method on a disabled recorder
//! returns before touching a lock, a clock, or the heap — the hot paths of
//! the recovery pipeline carry a disabled recorder by default and the
//! counting-allocator test in `tests/alloc_free.rs` pins that the whole
//! API surface performs **zero allocations** in that state.
//!
//! # Export
//!
//! [`Recorder::snapshot`] freezes everything into a [`MetricsSnapshot`];
//! [`MetricsSnapshot::to_json`] renders it as JSON (hand-rolled — this
//! crate stays dependency-free) and [`MetricsSnapshot::write_json`] puts
//! it on disk, which is how the bench binaries produce the
//! `results/metrics_*.json` health artifacts CI uploads.
//!
//! # Example
//!
//! ```
//! let obs = bba_obs::Recorder::enabled();
//! {
//!     let _outer = obs.span("recover");
//!     let _inner = obs.span("stage1");
//!     obs.incr("recover.calls");
//!     obs.gauge("stage1.inliers_bv", 31.0);
//!     obs.observe("link.reassembly_ms", 2.4);
//! }
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("recover.calls"), Some(1));
//! assert!(snap.span("recover/stage1").is_some());
//! assert!(snap.to_json().contains("\"recover/stage1\""));
//! ```

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default histogram bucket upper bounds, shared by spans (milliseconds)
/// and value observations. Log-spaced from 50 µs to 2.5 s; an implicit
/// final bucket catches everything above the last bound.
pub const DEFAULT_BUCKET_BOUNDS: [f64; 15] =
    [0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0];

thread_local! {
    /// The calling thread's current span path ("a/b/c"). Guards append on
    /// entry and truncate back on drop, so the string is only ever grown
    /// and shrunk at the tail.
    static SPAN_PATH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// A fixed-bucket histogram with running count/sum/min/max.
#[derive(Debug, Clone)]
struct Hist {
    counts: [u64; DEFAULT_BUCKET_BOUNDS.len() + 1],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Hist {
    fn new(first: f64) -> Self {
        let mut h = Hist {
            counts: [0; DEFAULT_BUCKET_BOUNDS.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        };
        h.record(first);
        h
    }

    fn record(&mut self, v: f64) {
        let idx = DEFAULT_BUCKET_BOUNDS.iter().position(|&b| v <= b);
        self.counts[idx.unwrap_or(DEFAULT_BUCKET_BOUNDS.len())] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// The recorder's shared state. All maps are `BTreeMap` so snapshots and
/// JSON output come out in a stable, diff-friendly order.
#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    values: Mutex<BTreeMap<String, Hist>>,
    spans: Mutex<BTreeMap<String, Hist>>,
}

impl Inner {
    fn record_span(&self, path: &str, ms: f64) {
        let mut spans = self.spans.lock().expect("span map lock");
        match spans.get_mut(path) {
            Some(h) => h.record(ms),
            None => {
                spans.insert(path.to_string(), Hist::new(ms));
            }
        }
    }
}

/// A cloneable handle onto shared metric state — or a no-op.
///
/// Cloning is cheap (an `Arc` bump) and every clone feeds the same state,
/// so one enabled recorder can be handed to the aligner, both link
/// endpoints, and the parallel substrate, then snapshotted once at the
/// end. [`Recorder::default`] is the disabled recorder.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A recorder backed by fresh shared state.
    pub fn enabled() -> Self {
        Recorder { inner: Some(Arc::new(Inner::default())) }
    }

    /// The no-op recorder: every recording method returns immediately
    /// without locking, timing, or allocating.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Increments the counter `name` by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increments the counter `name` by `n`.
    pub fn add(&self, name: &str, n: u64) {
        let Some(inner) = &self.inner else { return };
        let mut counters = inner.counters.lock().expect("counter map lock");
        match counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                counters.insert(name.to_string(), n);
            }
        }
    }

    /// Sets the gauge `name` (last value wins).
    pub fn gauge(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        let mut gauges = inner.gauges.lock().expect("gauge map lock");
        match gauges.get_mut(name) {
            Some(g) => *g = value,
            None => {
                gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Records `value` into the value histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        let mut values = inner.values.lock().expect("value map lock");
        match values.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                values.insert(name.to_string(), Hist::new(value));
            }
        }
    }

    /// Opens a timed span. The returned guard times until drop and files
    /// the elapsed milliseconds under the `/`-joined path of every span
    /// currently open on this thread — `span("a")` inside `span("b")`
    /// records as `"b/a"`. On a disabled recorder this is a no-op guard
    /// (no clock read, no allocation).
    ///
    /// The guard is thread-local by construction (`!Send`): spans opened
    /// on one thread cannot close another thread's path.
    pub fn span(&self, name: &str) -> Span {
        let Some(inner) = &self.inner else {
            return Span { state: None, _not_send: PhantomData };
        };
        let prev_len = SPAN_PATH.with(|p| {
            let mut p = p.borrow_mut();
            let prev = p.len();
            if !p.is_empty() {
                p.push('/');
            }
            p.push_str(name);
            prev
        });
        Span {
            state: Some(SpanState {
                inner: Arc::clone(inner),
                prev_len,
                start: Instant::now(),
                earlier_ms: 0.0,
            }),
            _not_send: PhantomData,
        }
    }

    /// Files a pre-measured duration (milliseconds) as a span named `name`
    /// under the thread's current span path, without opening a guard. This
    /// is how phases that already self-time (e.g. the stage-1 per-phase
    /// breakdown) join the hierarchy.
    pub fn record_span_ms(&self, name: &str, ms: f64) {
        let Some(inner) = &self.inner else { return };
        SPAN_PATH.with(|p| {
            let p = p.borrow();
            if p.is_empty() {
                inner.record_span(name, ms);
            } else {
                let mut full = String::with_capacity(p.len() + 1 + name.len());
                full.push_str(&p);
                full.push('/');
                full.push_str(name);
                inner.record_span(&full, ms);
            }
        });
    }

    /// Freezes the current state into an immutable snapshot. A disabled
    /// recorder yields an empty snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot {
                counters: Vec::new(),
                gauges: Vec::new(),
                spans: Vec::new(),
                values: Vec::new(),
            };
        };
        let summarise = |m: &Mutex<BTreeMap<String, Hist>>| -> Vec<HistSummary> {
            m.lock()
                .expect("histogram map lock")
                .iter()
                .map(|(name, h)| HistSummary {
                    name: name.clone(),
                    count: h.count,
                    sum: h.sum,
                    min: h.min,
                    max: h.max,
                    buckets: DEFAULT_BUCKET_BOUNDS
                        .iter()
                        .copied()
                        .chain(std::iter::once(f64::INFINITY))
                        .zip(h.counts.iter().copied())
                        .collect(),
                })
                .collect()
        };
        MetricsSnapshot {
            counters: inner
                .counters
                .lock()
                .expect("counter map lock")
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            gauges: inner
                .gauges
                .lock()
                .expect("gauge map lock")
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            spans: summarise(&inner.spans),
            values: summarise(&inner.values),
        }
    }
}

struct SpanState {
    inner: Arc<Inner>,
    prev_len: usize,
    start: Instant,
    /// Pre-measured work filed with the span (see [`Span::add_ms`]).
    earlier_ms: f64,
}

/// RAII guard for a timed span (see [`Recorder::span`]).
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct Span {
    state: Option<SpanState>,
    /// Spans manipulate a thread-local path stack; moving the guard to
    /// another thread would corrupt both threads' hierarchies.
    _not_send: PhantomData<*const ()>,
}

impl Span {
    /// Adds `ms` of pre-measured work to the duration the guard files on
    /// drop: work done for this span before it opened, such as a
    /// recovery's share of a stage 1 it ran in lockstep with others. A
    /// no-op on a disabled recorder's guard.
    pub fn add_ms(&mut self, ms: f64) {
        if let Some(state) = &mut self.state {
            state.earlier_ms += ms;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else { return };
        let ms = state.earlier_ms + state.start.elapsed().as_secs_f64() * 1e3;
        SPAN_PATH.with(|p| {
            let mut p = p.borrow_mut();
            state.inner.record_span(&p, ms);
            p.truncate(state.prev_len);
        });
    }
}

/// Frozen statistics of one histogram (a span path or a value series).
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Metric name (for spans: the full `/`-joined path).
    pub name: String,
    /// Number of recordings.
    pub count: u64,
    /// Sum of all recorded values (for spans: total milliseconds).
    pub sum: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
    /// `(upper_bound, count)` per bucket; the final bound is
    /// `f64::INFINITY` (rendered as `null` in JSON).
    pub buckets: Vec<(f64, u64)>,
}

impl HistSummary {
    /// Mean of the recorded values (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// Approximate `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the bucket that holds the target rank.
    ///
    /// Each bucket's mass is assumed uniformly spread between its lower
    /// and upper bound; the overflow bucket and any bound beyond the
    /// observed range are clamped to `[min, max]`, so the result always
    /// lies inside the recorded range. With the log-spaced
    /// [`DEFAULT_BUCKET_BOUNDS`] the relative error is bounded by the
    /// bucket width (≤ 2.5× between adjacent bounds). Returns `None` when
    /// the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        // Accumulate the rank as an integer: summing bucket counts in
        // floating point drifts for count-heavy histograms, and a `cum`
        // that lands below `target` in the final occupied bucket used to
        // fall through to `max` — making quantiles non-monotonic near
        // q = 1. Integer `cum` reaches exactly `self.count`, and
        // `target <= count as f64` by construction, so the last occupied
        // bucket always satisfies the comparison.
        let mut cum: u64 = 0;
        let mut lower = self.min;
        for &(bound, n) in &self.buckets {
            let upper = if bound.is_finite() { bound.min(self.max) } else { self.max };
            if n > 0 {
                let next = cum + n;
                if next as f64 >= target {
                    let frac = ((target - cum as f64) / n as f64).clamp(0.0, 1.0);
                    let lo = lower.clamp(self.min, self.max);
                    let hi = upper.max(lo);
                    return Some(lo + (hi - lo) * frac);
                }
                cum = next;
            }
            lower = upper.max(lower);
        }
        Some(self.max)
    }

    /// Approximate median — `quantile(0.5)`.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Approximate 90th percentile — `quantile(0.9)`.
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.9)
    }

    /// Approximate 99th percentile — `quantile(0.99)`.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// An immutable, exportable freeze of a [`Recorder`]'s state.
///
/// All collections are sorted by name, so two snapshots of the same run
/// compare and diff cleanly.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Span statistics, sorted by path; all durations in milliseconds.
    pub spans: Vec<HistSummary>,
    /// Value-histogram statistics, sorted by name.
    pub values: Vec<HistSummary>,
}

impl MetricsSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.spans.is_empty()
            && self.values.is_empty()
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Looks up a span by full path (e.g. `"recover/stage1/mim"`).
    pub fn span(&self, path: &str) -> Option<&HistSummary> {
        self.spans.iter().find(|h| h.name == path)
    }

    /// Looks up a value histogram by name.
    pub fn value(&self, name: &str) -> Option<&HistSummary> {
        self.values.iter().find(|h| h.name == name)
    }

    /// Renders the snapshot as a JSON object with `counters`, `gauges`,
    /// `spans`, and `values` members. Spans and values serialise as
    /// `{count, total, mean, min, max, buckets: [[bound, n], ...]}` where
    /// span units are milliseconds and the final (overflow) bucket bound
    /// is `null`. Non-finite floats render as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            push_sep(&mut out, i, "    ");
            push_str_json(&mut out, k);
            let _ = write!(out, ": {v}");
        }
        push_close(&mut out, self.counters.is_empty(), "  ");
        out.push_str(",\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            push_sep(&mut out, i, "    ");
            push_str_json(&mut out, k);
            out.push_str(": ");
            push_f64(&mut out, *v);
        }
        push_close(&mut out, self.gauges.is_empty(), "  ");
        for (member, series) in [("spans", &self.spans), ("values", &self.values)] {
            let _ = write!(out, ",\n  \"{member}\": {{");
            for (i, h) in series.iter().enumerate() {
                push_sep(&mut out, i, "    ");
                push_str_json(&mut out, &h.name);
                let _ = write!(out, ": {{\"count\": {}, \"total\": ", h.count);
                push_f64(&mut out, h.sum);
                out.push_str(", \"mean\": ");
                push_f64(&mut out, h.mean());
                out.push_str(", \"min\": ");
                push_f64(&mut out, h.min);
                out.push_str(", \"max\": ");
                push_f64(&mut out, h.max);
                out.push_str(", \"buckets\": [");
                for (j, &(bound, n)) in h.buckets.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push('[');
                    push_f64(&mut out, bound);
                    let _ = write!(out, ", {n}]");
                }
                out.push_str("]}");
            }
            push_close(&mut out, series.is_empty(), "  ");
        }
        out.push_str("\n}\n");
        out
    }

    /// Writes [`MetricsSnapshot::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Opens the `i`-th entry of a JSON object: `,` between entries, then a
/// newline and indentation.
fn push_sep(out: &mut String, i: usize, indent: &str) {
    if i > 0 {
        out.push(',');
    }
    out.push('\n');
    out.push_str(indent);
}

/// Closes a JSON object opened with `{`: empty objects close inline.
fn push_close(out: &mut String, empty: bool, indent: &str) {
    if !empty {
        out.push('\n');
        out.push_str(indent);
    }
    out.push('}');
}

/// Appends `v` as a JSON number (`null` for non-finite values, which JSON
/// cannot represent).
fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    // `{}` prints integral floats without a decimal point; keep the value
    // unambiguously a float for downstream parsers.
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Appends `s` as a JSON string literal.
fn push_str_json(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let obs = Recorder::disabled();
        assert!(!obs.is_enabled());
        obs.incr("a");
        obs.add("a", 5);
        obs.gauge("g", 1.0);
        obs.observe("v", 2.0);
        obs.record_span_ms("s", 3.0);
        drop(obs.span("t"));
        let snap = obs.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.counter("a"), None);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Recorder::default().is_enabled());
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let obs = Recorder::enabled();
        obs.incr("calls");
        obs.add("calls", 2);
        obs.gauge("inliers", 10.0);
        obs.gauge("inliers", 31.0); // last value wins
        let snap = obs.snapshot();
        assert_eq!(snap.counter("calls"), Some(3));
        assert_eq!(snap.gauge("inliers"), Some(31.0));
    }

    #[test]
    fn clones_share_state() {
        let obs = Recorder::enabled();
        let clone = obs.clone();
        clone.incr("shared");
        assert_eq!(obs.snapshot().counter("shared"), Some(1));
    }

    #[test]
    fn histograms_track_count_sum_min_max_and_buckets() {
        let obs = Recorder::enabled();
        for v in [0.04, 0.2, 7.0, 9999.0] {
            obs.observe("lat", v);
        }
        let snap = obs.snapshot();
        let h = snap.value("lat").expect("histogram exists");
        assert_eq!(h.count, 4);
        assert!((h.sum - 10_006.24).abs() < 1e-9);
        assert_eq!(h.min, 0.04);
        assert_eq!(h.max, 9999.0);
        assert!((h.mean() - 10_006.24 / 4.0).abs() < 1e-9);
        // 0.04 ≤ 0.05 (bucket 0), 0.2 ≤ 0.25 (bucket 2), 7.0 ≤ 10 (bucket
        // 7), 9999 overflows into the final (infinite) bucket.
        assert_eq!(h.buckets[0], (0.05, 1));
        assert_eq!(h.buckets[2], (0.25, 1));
        assert_eq!(h.buckets[7], (10.0, 1));
        let (bound, n) = *h.buckets.last().unwrap();
        assert!(bound.is_infinite());
        assert_eq!(n, 1);
        assert_eq!(h.buckets.iter().map(|&(_, n)| n).sum::<u64>(), h.count);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let obs = Recorder::enabled();
        // 100 values uniformly 1..=100 ms: p50 ≈ 50, p99 ≈ 99.
        for v in 1..=100 {
            obs.observe("lat", v as f64);
        }
        let snap = obs.snapshot();
        let h = snap.value("lat").expect("histogram exists");
        let p50 = h.p50().expect("non-empty");
        let p90 = h.p90().expect("non-empty");
        let p99 = h.p99().expect("non-empty");
        // Bucket interpolation over log-spaced bounds is coarse; accept
        // the bucket-width error but require the right neighbourhood and
        // monotonic ordering.
        assert!((25.0..=75.0).contains(&p50), "p50={p50}");
        assert!((75.0..=100.0).contains(&p90), "p90={p90}");
        assert!((90.0..=100.0).contains(&p99), "p99={p99}");
        assert!(p50 <= p90 && p90 <= p99, "quantiles must be monotonic");
        // Extremes pin to the observed range.
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
    }

    #[test]
    fn quantiles_of_single_value_collapse_to_it() {
        let obs = Recorder::enabled();
        obs.observe("one", 3.2);
        let snap = obs.snapshot();
        let h = snap.value("one").unwrap();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).expect("non-empty");
            assert!((v - 3.2).abs() < 1e-12, "q={q} gave {v}");
        }
    }

    #[test]
    fn quantiles_stay_inside_observed_range_with_overflow_bucket() {
        let obs = Recorder::enabled();
        // Everything lands in the overflow bucket (bound = inf); quantiles
        // must still be finite and clamped to [min, max].
        for v in [3000.0, 4000.0, 5000.0] {
            obs.observe("big", v);
        }
        let snap = obs.snapshot();
        let h = snap.value("big").unwrap();
        for q in [0.1, 0.5, 0.99] {
            let v = h.quantile(q).expect("non-empty");
            assert!(v.is_finite());
            assert!((3000.0..=5000.0).contains(&v), "q={q} gave {v}");
        }
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = HistSummary {
            name: "empty".into(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Vec::new(),
        };
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p99(), None);
    }

    #[test]
    fn spans_nest_into_slash_paths() {
        let obs = Recorder::enabled();
        {
            let _a = obs.span("recover");
            obs.record_span_ms("stage1/mim", 4.5);
            {
                let _b = obs.span("stage2");
            }
        }
        {
            let _c = obs.span("fusion");
        }
        let snap = obs.snapshot();
        assert!(snap.span("recover").is_some());
        assert!(snap.span("recover/stage2").is_some());
        assert!(snap.span("fusion").is_some());
        let mim = snap.span("recover/stage1/mim").expect("pre-measured span nested");
        assert_eq!(mim.count, 1);
        assert_eq!(mim.sum, 4.5);
        // The path stack fully unwound: a fresh top-level span is flat.
        {
            let _d = obs.span("after");
        }
        assert!(obs.snapshot().span("after").is_some());
    }

    #[test]
    fn added_ms_join_the_guard_record() {
        let obs = Recorder::enabled();
        {
            let mut span = obs.span("recover");
            span.add_ms(1000.0);
            span.add_ms(500.0);
        }
        let recover = obs.snapshot().span("recover").cloned().expect("recorded");
        assert_eq!(recover.count, 1);
        assert!((1500.0..1600.0).contains(&recover.sum), "{}", recover.sum);
        // A disabled recorder's guard ignores it.
        Recorder::disabled().span("recover").add_ms(1.0);
    }

    #[test]
    fn record_span_ms_at_top_level_is_flat() {
        let obs = Recorder::enabled();
        obs.record_span_ms("solo", 1.25);
        let snap = obs.snapshot();
        assert_eq!(snap.span("solo").map(|h| h.sum), Some(1.25));
    }

    #[test]
    fn json_renders_all_sections() {
        let obs = Recorder::enabled();
        obs.incr("n");
        obs.gauge("g", 2.5);
        obs.observe("v", 1.0);
        obs.record_span_ms("s", 3.0);
        let json = obs.snapshot().to_json();
        for needle in
            ["\"counters\"", "\"gauges\"", "\"spans\"", "\"values\"", "\"n\": 1", "\"g\": 2.5"]
        {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // The overflow bucket bound must be null, not Infinity.
        assert!(json.contains("[null, 0]"), "overflow bound should render as null:\n{json}");
        assert!(!json.contains("inf"), "JSON cannot carry Infinity:\n{json}");
    }

    #[test]
    fn json_parses_with_the_workspace_parser() {
        let obs = Recorder::enabled();
        obs.incr("link.messages_delivered");
        obs.gauge("stage1.inliers_bv", 25.0);
        obs.observe("link.reassembly_ms", 0.8);
        {
            let _s = obs.span("recover");
        }
        let json = obs.snapshot().to_json();
        let v: serde_json::Value = serde_json::from_str(&json).expect("snapshot JSON must parse");
        let serde_json::Value::Map(members) = v else { panic!("top level must be an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["counters", "gauges", "spans", "values"]);
    }

    #[test]
    fn empty_snapshot_renders_empty_objects() {
        let json = Recorder::enabled().snapshot().to_json();
        let v: serde_json::Value = serde_json::from_str(&json).expect("empty snapshot parses");
        let serde_json::Value::Map(members) = v else { panic!("top level must be an object") };
        assert_eq!(members.len(), 4);
        for (k, m) in members {
            assert_eq!(m, serde_json::Value::Map(Vec::new()), "member {k} should be empty");
        }
    }

    #[test]
    fn string_escaping_survives_hostile_names() {
        let obs = Recorder::enabled();
        obs.incr("weird\"name\\with\nnewline");
        let json = obs.snapshot().to_json();
        let v: serde_json::Value = serde_json::from_str(&json).expect("escaped JSON parses");
        let serde_json::Value::Map(members) = v else { panic!("object") };
        let serde_json::Value::Map(counters) = &members[0].1 else { panic!("counters object") };
        assert_eq!(counters[0].0, "weird\"name\\with\nnewline");
    }
}
