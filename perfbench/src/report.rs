//! Metrics, output checks and printing of one run.

use crate::run::{Phase, Run};
use crate::stats::{self, median, tail};
use crate::trace::{self_times, SpanRecord};
use crate::{
    engine_config, failure_cause, host, Answer, Episode, Fate, LinkCounts, PlaceCounts, Refusal,
    Workload, ON_TIME_MS,
};
use bb_align::RecoveryPath;
use bba_obs::MetricsSnapshot;
use bba_serve::ServiceStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed as JSON by an untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("recoveries_per_s", "1/s"),
    ("cpu_ms_per_recovery", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("success_rate", "share"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload measures, printed as JSON by a traced
/// run: name and unit. Layer metrics only some workloads exercise are
/// printed in the layer table but kept out of the JSON.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("bev.raster_ms_p50", "ms"),
    ("signal.mim_ms_per_stage1", "ms"),
    ("signal.mim_per_frame", "mim/frame"),
    ("features.detect_ms_per_stage1", "ms"),
    ("features.describe_ms_per_stage1", "ms"),
    ("features.match_ms_per_stage1", "ms"),
    ("features.ransac_ms_per_stage1", "ms"),
    ("core.cold_ms_p50", "ms"),
    ("core.cold_ms_tail", "ms"),
    ("core.stage2_ms_per_recovery", "ms"),
    ("core.lazy_init_s", "s"),
    ("core.recoveries", "count"),
    ("core.failures.no_keypoints", "count"),
    ("core.failures.no_matches", "count"),
    ("core.failures.no_consensus", "count"),
    ("core.failures.unverified", "count"),
    ("par.parallel_ops_per_recovery", "ops"),
    ("par.budget2_slowdown", "x"),
    ("obs.tracing_overhead_share", "share"),
    ("e2e.false_accept_rate", "share"),
    ("e2e.accept_precision", "share"),
    ("e2e.pose_error_p50_m", "m"),
    ("e2e.on_time_pose_rate", "share"),
];

/// One reported number, or why it could not be measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value, or the reason it is unmeasured.
    pub value: Result<f64, String>,
    /// How it was taken, when that needs saying (e.g. the tail percentile).
    pub note: String,
}

fn metric(name: &str, unit: &'static str, value: Option<f64>, missing: &str) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value: value.filter(|v| v.is_finite()).ok_or_else(|| missing.to_string()),
        note: String::new(),
    }
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

fn answers(episode: &Episode) -> impl Iterator<Item = &Answer> {
    episode.requests.iter().filter_map(|r| match &r.fate {
        Fate::Answered(a) => Some(a),
        _ => None,
    })
}

fn count(episode: &Episode, f: impl Fn(&Fate) -> bool) -> usize {
    episode.requests.iter().filter(|r| f(&r.fate)).count()
}

/// The tail metric with its percentile and sample count in the note; the
/// percentile is the one `per_pass` samples support (see [`tail`]).
fn tail_metric(
    name: &str,
    unit: &'static str,
    values: &[f64],
    per_pass: usize,
    missing: &str,
) -> Metric {
    match tail(values, per_pass) {
        Some(t) => Metric {
            note: format!("p{} of {} samples, {} beyond", t.percentile, t.samples, t.beyond),
            ..metric(name, unit, Some(t.value), missing)
        },
        None => metric(name, unit, None, &format!("{missing}: {} samples", values.len())),
    }
}

/// Share of requests with a successful pose ready within one frame.
fn on_time_rate(episode: &Episode) -> Option<f64> {
    let on_time = answers(episode).filter(|a| a.success().is_some() && a.latency_ms <= ON_TIME_MS);
    ratio(on_time.count() as f64, episode.requests.len() as f64)
}

fn false_accept_rate(episode: &Episode) -> Option<f64> {
    let false_accepts =
        answers(episode).filter_map(Answer::success).filter(|p| p.is_false_accept());
    ratio(false_accepts.count() as f64, episode.requests.len() as f64)
}

/// End-to-end metrics of the untraced phase, plus the pose-quality figures
/// reported per layer instead: the false-accept and on-time rates read
/// zero on some workloads, and accept precision and the error median vary
/// too much from one seed's scenes to the next to carry a bound. Timings
/// cover every unit run, repeats included; quality figures cover the first
/// pass, which holds every request of the pool exactly once.
pub fn end_to_end(run: &Run) -> (Vec<Metric>, Vec<Metric>) {
    let episode = &run.timed.first_pass();
    let total = episode.requests.len() as f64;
    let answered: Vec<&Answer> = answers(episode).collect();
    let successes: Vec<_> = answered.iter().filter_map(|a| a.success()).collect();
    let timed: Vec<&Answer> = run.timed.episodes().flat_map(answers).collect();
    let latencies: Vec<f64> = timed.iter().map(|a| a.latency_ms).collect();
    let correct = successes.iter().filter(|p| !p.is_false_accept()).count();
    let errors: Vec<f64> = successes.iter().map(|p| p.error_m).collect();
    let setups: Vec<f64> = run.setups.iter().map(|s| s.total_s).collect();
    let n = timed.len() as f64;
    let passes = run.timed.runs.len() as f64 / run.timed.units as f64;
    let main = vec![
        Metric {
            note: format!("median of set-ups {setups:.3?}"),
            ..metric("setup_s", "s", median(&setups), "no set-up")
        },
        Metric {
            note: format!("{n} recoveries in {:.3} s, {passes:.2} passes", run.timed.wall_s),
            ..metric("recoveries_per_s", "1/s", ratio(n, run.timed.wall_s), "no recovery")
        },
        metric(
            "cpu_ms_per_recovery",
            "ms",
            run.timed.cpu_s.and_then(|c| ratio(c * 1e3, n)),
            "no CPU clock",
        ),
        metric("latency_p50_ms", "ms", median(&latencies), "no answer"),
        tail_metric("latency_tail_ms", "ms", &latencies, answered.len(), "too few answers"),
        metric("success_rate", "share", ratio(successes.len() as f64, total), "no request"),
        metric("peak_rss_mb", "MiB", run.peak_rss_mib, "no /proc/self/status"),
    ];
    let extra = vec![
        metric("e2e.false_accept_rate", "share", false_accept_rate(episode), "no request"),
        metric(
            "e2e.accept_precision",
            "share",
            ratio(correct as f64, successes.len() as f64),
            "no successful answer",
        ),
        metric("e2e.pose_error_p50_m", "m", median(&errors), "no successful answer"),
        metric("e2e.on_time_pose_rate", "share", on_time_rate(episode), "no request"),
    ];
    (main, extra)
}

/// Recorder activity between two snapshots.
struct Delta<'a> {
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
}

impl Delta<'_> {
    fn counter(&self, name: &str) -> Option<u64> {
        let after = self.after.counter(name)?;
        Some(after - self.before.counter(name).unwrap_or(0))
    }

    /// `(count, total ms)` of every span whose path ends in `suffix`.
    fn spans(&self, suffix: &str) -> Option<(u64, f64)> {
        let matches = |name: &str| name == suffix || name.ends_with(&format!("/{suffix}"));
        let fold = |s: &MetricsSnapshot| {
            s.spans.iter().filter(|h| matches(&h.name)).fold(None, |acc: Option<(u64, f64)>, h| {
                let (c, t) = acc.unwrap_or_default();
                Some((c + h.count, t + h.sum))
            })
        };
        let (count, total) = fold(self.after)?;
        let (c0, t0) = fold(self.before).unwrap_or_default();
        Some((count - c0, total - t0))
    }
}

fn span_ms(spans: &[SpanRecord], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(SpanRecord::ms).collect()
}

/// Median duration of the benchmark spans named `name`, times `scale`.
fn span_p50(spans: &[SpanRecord], name: &str, scale: f64) -> Option<f64> {
    median(&span_ms(spans, name)).map(|v| v * scale)
}

fn bypassed(name: &str) -> String {
    format!("no {name} span: this workload bypasses the layer")
}

/// Per-layer metrics of the traced episode: the ones every workload
/// measures, then the workload-specific ones.
pub fn per_layer(run: &Run) -> (Vec<Metric>, Vec<Metric>) {
    let traced = run.traced.as_ref().expect("per-layer metrics need a traced run");
    let episode = &traced.phase.first_pass();
    let spans = &traced.spans;
    let delta = Delta { before: &traced.before, after: &traced.after };
    let answered: Vec<&Answer> = answers(episode).collect();
    let recoveries = answered.len() as f64;
    // The engine records the stage-1 phase spans only when stage 1
    // completes, so they are averaged over their own count.
    let per_stage1 = |name: &str, suffix: &str| {
        let spans = delta.spans(suffix).filter(|&(count, _)| count > 0);
        Metric {
            note: spans.map_or(String::new(), |(count, _)| format!("{count} completed stage 1s")),
            ..metric(
                name,
                "ms",
                spans.and_then(|(count, ms)| ratio(ms, count as f64)),
                &format!("no recorder span ending in {suffix}: no stage 1 completed"),
            )
        }
    };
    let cold: Vec<f64> = answered
        .iter()
        .filter(|a| a.path != RecoveryPath::WarmStart)
        .map(|a| a.recovery_ms)
        .collect();
    let failures = |cause: &str| {
        answered
            .iter()
            .filter(|a| a.result.as_ref().is_err_and(|e| failure_cause(e) == cause))
            .count()
    };
    let unverified =
        answered.iter().filter(|a| a.result.as_ref().is_ok_and(|p| !p.success)).count();
    let mims = delta.counter("pool.workspace.hits").zip(delta.counter("pool.workspace.misses"));
    let lazy: Vec<f64> = run.setups.iter().map(|s| s.lazy_init_s).collect();
    let overhead = ratio(traced.phase.wall_s, run.timed.wall_s).map(|r| r - 1.0);
    let (_, rates) = end_to_end(run);

    let mut common = vec![
        metric(
            "bev.raster_ms_p50",
            "ms",
            span_p50(spans, "bev.raster", 1.0),
            &bypassed("bev.raster"),
        ),
        per_stage1("signal.mim_ms_per_stage1", "stage1/mim"),
        metric(
            "signal.mim_per_frame",
            "mim/frame",
            mims.and_then(|(h, m)| ratio((h + m) as f64, episode.mim_frames as f64)),
            "no pool.workspace counters",
        ),
    ];
    for phase in ["detect", "describe", "match", "ransac"] {
        common.push(per_stage1(
            &format!("features.{phase}_ms_per_stage1"),
            &format!("stage1/{phase}"),
        ));
    }
    common.extend([
        metric("core.cold_ms_p50", "ms", median(&cold), "no cold recovery"),
        tail_metric("core.cold_ms_tail", "ms", &cold, cold.len(), "too few cold recoveries"),
        metric(
            "core.stage2_ms_per_recovery",
            "ms",
            delta.spans("stage2").and_then(|(_, ms)| ratio(ms, recoveries)),
            "no recorder span ending in stage2",
        ),
        Metric {
            note: "first warm-up minus an identical repeat, median of set-ups".into(),
            ..metric("core.lazy_init_s", "s", median(&lazy), "no set-up")
        },
        metric("core.recoveries", "count", Some(recoveries), ""),
        metric("core.failures.no_keypoints", "count", Some(failures("no_keypoints") as f64), ""),
        metric("core.failures.no_matches", "count", Some(failures("no_matches") as f64), ""),
        metric("core.failures.no_consensus", "count", Some(failures("no_consensus") as f64), ""),
        metric("core.failures.unverified", "count", Some(unverified as f64), ""),
    ]);
    match &traced.replay {
        Ok(r) => common.extend([
            Metric {
                note: format!("budget-2 replay of {} cold recoveries", r.recoveries),
                ..metric(
                    "par.parallel_ops_per_recovery",
                    "ops",
                    ratio(r.budget2_parallel_ops as f64, r.recoveries as f64),
                    "no replayed recovery",
                )
            },
            Metric {
                note: format!(
                    "{:.1} ms at budget 2 / {:.1} ms at budget 1",
                    r.budget2_ms, r.budget1_ms
                ),
                ..metric("par.budget2_slowdown", "x", ratio(r.budget2_ms, r.budget1_ms), "")
            },
        ]),
        Err(why) => common.extend([
            metric("par.parallel_ops_per_recovery", "ops", None, why),
            metric("par.budget2_slowdown", "x", None, why),
        ]),
    }
    common.push(Metric {
        note: "traced over untraced pass wall time, minus 1".into(),
        ..metric("obs.tracing_overhead_share", "share", overhead, "no episode")
    });
    common.extend(rates);
    let other = failures("other");
    if other > 0 {
        common.push(metric("core.failures.other", "count", Some(other as f64), ""));
    }
    (common, workload_layers(run, episode, &delta, &answered))
}

/// Layer metrics that only some workloads exercise, from the traced
/// `episode`.
fn workload_layers(
    run: &Run,
    episode: &Episode,
    delta: &Delta<'_>,
    answered: &[&Answer],
) -> Vec<Metric> {
    let spans = &run.traced.as_ref().expect("traced run").spans;
    let p50 = |name: &str, scale: f64| span_p50(spans, name, scale);
    let n = answered.len() as f64;
    let paths = |p: RecoveryPath| answered.iter().filter(|a| a.path == p).count() as f64;
    let warm_on = run.options.workload == Workload::LinkStream;
    let warm_off = "warm start is off on this workload";
    let warm_ms: Vec<f64> = answered
        .iter()
        .filter(|a| a.path == RecoveryPath::WarmStart)
        .map(|a| a.recovery_ms)
        .collect();
    let wire: Vec<f64> = episode.wire_bytes.iter().map(|&b| b as f64).collect();
    let link = episode.link.as_ref();
    let per_frame =
        |f: fn(&LinkCounts) -> usize| link.and_then(|l| ratio(f(l) as f64, l.frames as f64));
    let transit = link.map_or(&[][..], |l| &l.transit_ms);
    let no_link = "no link: frames are handed over in process";
    let place = episode.place.as_ref();
    let place_share = |num: fn(&PlaceCounts) -> usize, den: fn(&PlaceCounts) -> usize| {
        place.and_then(|p| ratio(num(p) as f64, den(p) as f64))
    };
    let no_place = "no place gating on this workload";
    let serve = episode.serve.as_ref();
    let threads = run.options.workload.threads();
    let shed = |f: fn(&ServiceStats) -> u64| {
        serve.and_then(|s| ratio(f(&s.stats) as f64, s.stats.submitted as f64))
    };
    let no_serve = "no service: this workload bypasses bba-serve";
    let warm_verify = delta.spans("warmstart.verify").and_then(|(c, ms)| ratio(ms, c as f64));
    let gated = count(episode, |f| matches!(f, Fate::Refused(Refusal::Gated))) as f64;

    vec![
        metric(
            "core.wire_bytes_per_frame",
            "bytes",
            stats::mean(&wire),
            "no wire: frames are handed over in process",
        ),
        metric("core.wire_encode_ms_p50", "ms", p50("wire.encode", 1.0), &bypassed("wire.encode")),
        metric("core.wire_decode_ms_p50", "ms", p50("wire.decode", 1.0), &bypassed("wire.decode")),
        metric("link.transit_ms_p50", "ms", median(transit), no_link),
        tail_metric("link.transit_ms_tail", "ms", transit, transit.len(), no_link),
        metric("link.datagrams_per_frame", "count", per_frame(|l| l.datagrams), no_link),
        metric("link.retransmits_per_frame", "count", per_frame(|l| l.retransmits), no_link),
        metric("link.delivered_share", "share", per_frame(|l| l.delivered), no_link),
        metric("link.send_us_p50", "us", p50("link.send", 1e3), &bypassed("link.send")),
        metric("link.pump_us_p50", "us", p50("link.pump", 1e3), &bypassed("link.pump")),
        metric(
            "core.warm_hit_share",
            "share",
            warm_on.then(|| ratio(paths(RecoveryPath::WarmStart), n)).flatten(),
            warm_off,
        ),
        metric(
            "core.warm_fallback_share",
            "share",
            warm_on.then(|| ratio(paths(RecoveryPath::ColdFallback), n)).flatten(),
            warm_off,
        ),
        metric(
            "core.warm_hit_ms_p50",
            "ms",
            median(&warm_ms),
            if warm_on { "no warm hit" } else { warm_off },
        ),
        metric("core.warm_verify_ms_mean", "ms", warm_verify, "no warmstart.verify span"),
        metric("place.extract_ms_p50", "ms", p50("place.extract", 1.0), &bypassed("place.extract")),
        metric(
            "place.gated_share",
            "share",
            place.and_then(|_| ratio(gated, episode.requests.len() as f64)),
            no_place,
        ),
        metric(
            "place.overlap_recall",
            "share",
            place_share(|p| p.overlapping_admitted, |p| p.overlapping),
            no_place,
        ),
        metric(
            "place.disjoint_admit_share",
            "share",
            place_share(|p| p.disjoint_admitted, |p| p.disjoint),
            no_place,
        ),
        metric("serve.submit_us_p50", "us", p50("serve.submit", 1e3), no_serve),
        metric("serve.batch_ms_p50", "ms", p50("serve.batch", 1.0), no_serve),
        metric(
            "serve.items_per_batch",
            "count",
            serve.and_then(|s| ratio(s.stats.processed as f64, s.batches as f64)),
            no_serve,
        ),
        Metric {
            note: format!("item recovery time / ({threads} threads x batch wall time)"),
            ..metric(
                "serve.worker_busy_share",
                "share",
                serve.and_then(|s| ratio(s.item_ms, threads as f64 * s.batch_ms)),
                no_serve,
            )
        },
        metric("serve.shed_share.gated", "share", shed(|s| s.shed_gated), no_serve),
        metric("serve.shed_share.stale", "share", shed(|s| s.shed_stale), no_serve),
        metric("serve.shed_share.duplicate", "share", shed(|s| s.shed_duplicate), no_serve),
        metric("serve.shed_share.superseded", "share", shed(|s| s.shed_superseded), no_serve),
        metric("serve.shed_share.overflow", "share", shed(|s| s.shed_overflow), no_serve),
        metric("fusion.late_ms_p50", "ms", p50("fusion.late", 1.0), &bypassed("fusion.late")),
    ]
}

/// Output checks of one episode; every entry is a violation.
fn episode_checks(e: &Episode) -> Vec<String> {
    let mut out = e.violations.clone();
    let answered = e.answered();
    let refused = count(e, |f| matches!(f, Fate::Refused(_)));
    let undelivered = count(e, |f| *f == Fate::Undelivered);
    if e.requests.len() != answered + refused + undelivered {
        out.push(format!(
            "{} requests != {answered} answered + {refused} refused + {undelivered} undelivered",
            e.requests.len()
        ));
    }
    for r in &e.requests {
        if let Fate::Failed(why) = &r.fate {
            out.push(format!("request {:?} failed: {why}", r.id));
        }
    }
    if let Some(s) = &e.serve {
        if s.stats.processed != answered as u64 || s.stats.shed_total() != refused as u64 {
            out.push(format!(
                "service processed {} / shed {} but {answered} answered / {refused} refused",
                s.stats.processed,
                s.stats.shed_total()
            ));
        }
    }
    if let Some(l) = &e.link {
        if undelivered + l.delivered != l.frames {
            out.push(format!(
                "{undelivered} undelivered + {} delivered != {} sent",
                l.delivered, l.frames
            ));
        }
    }
    out
}

/// Output checks of every unit a phase ran, and of every repeated unit
/// against its first run.
fn phase_checks(phase: &Phase, label: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, (unit, e)) in phase.runs.iter().enumerate() {
        out.extend(episode_checks(e).into_iter().map(|v| format!("{label} unit {unit}: {v}")));
        let first = &phase.runs[*unit].1;
        if i >= phase.units && e.digest() != first.digest() {
            out.push(format!(
                "{label} unit {unit}: repeat {i} recovered other poses than its first run"
            ));
        }
    }
    out
}

/// Output checks over the whole run; every entry is a violation.
pub fn checks(run: &Run) -> Vec<String> {
    let mut out = phase_checks(&run.timed, "untraced");
    let Some(t) = &run.traced else { return out };
    out.extend(phase_checks(&t.phase, "traced"));
    if t.phase.first_pass().digest() != run.timed.first_pass().digest() {
        out.push("traced pose digest differs from the untraced one".into());
    }
    let delta = Delta { before: &t.before, after: &t.after };
    if run.options.workload == Workload::LinkStream {
        let warm = delta.counter("warmstart.hit").unwrap_or(0)
            + delta.counter("warmstart.miss").unwrap_or(0);
        let processed = delta.counter("serve.processed").unwrap_or(0);
        if warm != processed {
            out.push(format!(
                "warmstart.hit + warmstart.miss = {warm} != serve.processed = {processed}"
            ));
        }
    }
    if let Ok(r) = &t.replay {
        if !r.identical {
            out.push("budget-2 replay recovered different poses than budget 1".into());
        }
    }
    out
}

/// Total and failed requests over every unit the run measured.
pub fn attempted_failed(run: &Run) -> (usize, usize) {
    let phases = std::iter::once(&run.timed).chain(run.traced.as_ref().map(|t| &t.phase));
    phases.flat_map(Phase::episodes).fold((0, 0), |(attempted, failed), e| {
        (attempted + e.requests.len(), failed + count(e, |f| matches!(f, Fate::Failed(_))))
    })
}

/// Host and configuration stamp.
pub fn stamp(run: &Run) -> String {
    let o = &run.options;
    let bev = engine_config().bev;
    let size = bev.image_size();
    let requests: usize =
        run.timed.runs[..run.timed.units].iter().map(|(_, e)| e.requests.len()).sum();
    format!(
        "workload={} seed={} trace={} available_parallelism={} threads={} simd={} bev={size}x{size}@{}m units={} requests_per_pass={requests} units_run={}",
        o.workload.name(),
        o.seed,
        u8::from(o.trace),
        host::available_parallelism(),
        o.workload.threads(),
        bba_simd::name(),
        bev.resolution,
        run.timed.units,
        run.timed.runs.len(),
    )
}

fn value_text(m: &Metric) -> String {
    match &m.value {
        Ok(v) => format!("{v:.6}"),
        Err(why) => format!("unmeasured ({why})"),
    }
}

/// Plain-text table of metrics.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    for m in metrics {
        let note = if m.note.is_empty() { String::new() } else { format!("  [{}]", m.note) };
        let _ = writeln!(out, "  {:<36} {:>16} {:<9}{note}", m.name, value_text(m), m.unit);
    }
    out
}

/// Self time by span name: `(name, spans, total ms, self ms)`.
pub fn self_time_table(spans: &[SpanRecord]) -> String {
    let own: BTreeMap<u64, f64> = self_times(spans).into_iter().collect();
    let mut by_name: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.ms();
        e.2 += own[&s.id];
    }
    let mut out = String::from("span self time (benchmark spans)\n");
    let _ = writeln!(out, "  {:<16} {:>8} {:>12} {:>12}", "span", "count", "total ms", "self ms");
    for (name, (count, total, own)) in by_name {
        let _ = writeln!(out, "  {name:<16} {count:>8} {total:>12.3} {own:>12.3}");
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and, in `declared`
/// order, every declared metric that has a value. Metrics not declared
/// (such as `core.failures.other`) stay in the tables.
pub fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    declared: &[(&str, &str)],
    metrics: &[Metric],
) -> String {
    let mut body = String::new();
    for (name, unit) in declared {
        let Some(Ok(v)) = metrics.iter().find(|m| m.name == *name).map(|m| &m.value) else {
            continue;
        };
        if !body.is_empty() {
            body.push_str(", ");
        }
        let _ = write!(body, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The trace file: stamp, every metric and every span.
pub fn trace_json(stamp: &str, metrics: &[Metric], spans: &[SpanRecord]) -> String {
    let mut out = format!("{{\"stamp\": {}, \"metrics\": [", json_str(stamp));
    for (i, m) in metrics.iter().enumerate() {
        let value = match &m.value {
            Ok(v) => format!("{v:?}"),
            Err(why) => format!("null, \"unmeasured\": {}", json_str(why)),
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{{\"name\": {}, \"unit\": {}, \"value\": {value}}}",
            json_str(&m.name),
            json_str(m.unit)
        );
    }
    out.push_str("], \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}{{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"pair\": {}, \"seq\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            json_str(s.name),
            s.request.pair,
            s.request.seq,
            s.start_ns,
            s.end_ns
        );
    }
    out.push_str("]}\n");
    out
}
