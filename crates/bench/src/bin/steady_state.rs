//! **Extension experiment** — steady-state cost of tracking-gated warm
//! starts.
//!
//! The cold pipeline prices a *first contact*: MIM, keypoints,
//! descriptors, a 24-hypothesis sweep, RANSAC. But a fleet runs pose
//! recovery *continuously* at sensor rate, and consecutive frames of the
//! same pair are nearly redundant. This experiment measures what
//! continuous operation actually costs once the per-pair tracker is
//! allowed to skip stage 1: 10 Hz frame sequences with real relative
//! motion stream through a [`bba_serve::PoseService`] with
//! `warm_start` on, and we report the amortized per-frame cost, the
//! warm-hit rate, and warm-vs-cold latency medians per sweep point.
//!
//! Artifacts: `results/steady_state.txt` (stdout, captured by redirect),
//! `results/steady_state.json` (sweep summary) and
//! `results/metrics_steady_state.json` (shared engine + service
//! recorder: `warmstart.*` counters, `serve.recovery_{warm,cold}_ms`
//! histograms). One recorder spans the engine and every service in the
//! sweep, so the ledger `warmstart.hit + warmstart.miss ==
//! serve.processed` holds over the whole artifact — CI asserts it.

use bb_align::{BbAlign, BbAlignConfig, PerceptionFrame, RecoveryPath};
use bba_bench::cli;
use bba_bench::report::{banner, opt, pct, render_table, write_metrics_json, write_results_json};
use bba_bench::stats::percentile;
use bba_dataset::{Dataset, DatasetConfig};
use bba_obs::Recorder;
use bba_serve::{FrameSubmission, PairId, PoseService, ServiceConfig, SessionConfig};
use std::sync::Arc;
use std::time::Instant;

/// Steady-state frame interval (s): 10 Hz, the rate the paper's
/// continuous-operation pitch implies.
const FRAME_INTERVAL: f64 = 0.1;

/// The link-harness fast engine: 128² BV raster (unless `--bev`
/// overrides), reduced descriptor patch, lowered stage-1 threshold.
fn engine_config(bev_override: Option<usize>) -> BbAlignConfig {
    let mut cfg = BbAlignConfig::default();
    let size = bev_override.unwrap_or(128);
    cfg.bev.range = 102.4;
    cfg.bev.resolution = 2.0 * cfg.bev.range / size as f64;
    cfg.min_inliers_bv = 10;
    cfg.descriptor.patch_size = 24.min(size / 4);
    cfg.descriptor.grid_size = 4;
    cfg
}

/// One pair's pre-built 10 Hz sequence (frame construction priced out of
/// the timed loop: this experiment measures recovery, not rasterisation).
struct PairSequence {
    pair: PairId,
    frames: Vec<(f64, Arc<PerceptionFrame>, Arc<PerceptionFrame>)>,
}

fn build_sequences(engine: &BbAlign, pairs: usize, frames: usize, seed: u64) -> Vec<PairSequence> {
    (0..pairs)
        .map(|p| {
            let cfg = DatasetConfig::test_small().at_frame_interval(FRAME_INTERVAL);
            let mut ds = Dataset::new(cfg, seed.wrapping_add(p as u64));
            let frames = (0..frames)
                .map(|_| {
                    let fp = ds.next_pair().expect("dataset streams indefinitely");
                    let build = |agent: &bba_dataset::AgentFrame| {
                        Arc::new(engine.frame_from_parts(
                            agent.scan.points().iter().map(|pt| pt.position),
                            agent.detections.iter().map(|d| (d.box3, d.confidence)),
                        ))
                    };
                    (fp.time, build(&fp.ego), build(&fp.other))
                })
                .collect();
            PairSequence { pair: PairId::new(p as u32, 100 + p as u32), frames }
        })
        .collect()
}

struct SweepRow {
    pairs: usize,
    processed: u64,
    warm_hits: u64,
    amortized_ms: f64,
    warm_p50: Option<f64>,
    cold_p50: Option<f64>,
}

impl SweepRow {
    fn hit_rate(&self) -> f64 {
        if self.processed == 0 {
            return 0.0;
        }
        self.warm_hits as f64 / self.processed as f64
    }

    fn speedup(&self) -> Option<f64> {
        let cold = self.cold_p50?;
        (self.amortized_ms > 0.0).then(|| cold / self.amortized_ms)
    }
}

fn main() {
    let opts = cli::parse(40, "steady_state — amortized cost of tracking-gated warm starts");
    if opts.json.is_some() {
        eprintln!("note: this experiment reports aggregates; --json is ignored");
    }
    let threads = opts.threads();

    let max_pairs = opts.pairs.unwrap_or(8);
    let mut sweep: Vec<usize> =
        [1usize, 4, 8].iter().copied().filter(|&p| p <= max_pairs).collect();
    if sweep.last() != Some(&max_pairs) {
        sweep.push(max_pairs);
    }

    banner(
        "Extension: steady-state warm-start cost",
        &format!(
            "{} frames per pair at 10 Hz, sweep {:?} concurrent pairs, {threads} threads",
            opts.frames, sweep
        ),
    );

    // ONE recorder across the engine and every sweep service: the
    // warmstart.{hit,miss} counters are incremented by the engine, the
    // serve.* ledger by the services, and CI checks them against each
    // other on this single artifact.
    let recorder = Recorder::enabled();
    let engine = Arc::new(BbAlign::new(engine_config(opts.bev)).with_recorder(recorder.clone()));
    let sequences = build_sequences(&engine, *sweep.last().unwrap(), opts.frames, opts.seed);

    let mut rows = vec![vec![
        "pairs".to_string(),
        "frames".to_string(),
        "warm hits".to_string(),
        "hit rate".to_string(),
        "amortized (ms/frame)".to_string(),
        "warm p50 (ms)".to_string(),
        "cold p50 (ms)".to_string(),
        "speedup vs cold".to_string(),
    ]];
    let mut sweep_rows: Vec<SweepRow> = Vec::new();

    for &pairs in &sweep {
        let service = PoseService::new(
            Arc::clone(&engine),
            ServiceConfig {
                session: SessionConfig { queue_capacity: 2, staleness: 0.5 },
                shards: 16,
                max_batch_per_session: 1,
                seed: opts.seed,
                ..Default::default()
            },
        )
        .with_recorder(recorder.clone());

        let mut warm_lat: Vec<f64> = Vec::new();
        let mut cold_lat: Vec<f64> = Vec::new();
        let mut warm_hits = 0u64;
        let started = Instant::now();
        bba_par::with_threads(threads, || {
            for round in 0..opts.frames {
                let mut now = 0.0;
                for seq in sequences.iter().take(pairs) {
                    let (time, ego, other) = &seq.frames[round];
                    now = *time;
                    service.submit(
                        seq.pair,
                        FrameSubmission {
                            seq: round as u64,
                            timestamp: *time,
                            ego: Arc::clone(ego),
                            other: Arc::clone(other),
                        },
                        *time,
                    );
                }
                for outcome in service.process_batch(now) {
                    if outcome.path == RecoveryPath::WarmStart {
                        warm_hits += 1;
                        warm_lat.push(outcome.latency_ms);
                    } else {
                        cold_lat.push(outcome.latency_ms);
                    }
                }
            }
        });
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

        let stats = service.stats();
        assert!(stats.is_conserved(), "serving ledger violated: {stats:?}");
        let processed = stats.processed;
        let row = SweepRow {
            pairs,
            processed,
            warm_hits,
            amortized_ms: elapsed_ms / processed.max(1) as f64,
            warm_p50: percentile(&warm_lat, 50.0),
            cold_p50: percentile(&cold_lat, 50.0),
        };
        rows.push(vec![
            pairs.to_string(),
            processed.to_string(),
            row.warm_hits.to_string(),
            pct(row.hit_rate()),
            format!("{:.2}", row.amortized_ms),
            opt(row.warm_p50, 2),
            opt(row.cold_p50, 2),
            row.speedup().map_or("n/a".to_string(), |s| format!("{s:.1}x")),
        ]);
        sweep_rows.push(row);
    }

    let table = render_table(&rows);
    print!("{table}");

    // The ledger CI asserts: every frame the services processed went
    // through exactly one of the warm-start counters.
    let snapshot = recorder.snapshot();
    let hits = snapshot.counter("warmstart.hit").unwrap_or(0);
    let misses = snapshot.counter("warmstart.miss").unwrap_or(0);
    let processed = snapshot.counter("serve.processed").unwrap_or(0);
    assert_eq!(
        hits + misses,
        processed,
        "warm-start ledger violated: {hits} hits + {misses} misses != {processed} processed"
    );
    println!(
        "ledger: {hits} warm hits + {misses} misses == {processed} frames processed ({} guided fallbacks)",
        snapshot.counter("warmstart.fallback").unwrap_or(0),
    );

    use serde_json::Value;
    let float = |v: Option<f64>| v.map_or(Value::Null, Value::Float);
    let metrics = write_metrics_json("steady_state", &snapshot);
    write_results_json(
        "steady_state",
        &Value::Map(vec![
            ("bench".into(), Value::Str("steady_state".into())),
            ("frames_per_pair".into(), Value::UInt(opts.frames as u64)),
            ("frame_interval_s".into(), Value::Float(FRAME_INTERVAL)),
            ("seed".into(), Value::UInt(opts.seed)),
            ("threads".into(), Value::UInt(threads as u64)),
            (
                "sweep".into(),
                Value::Seq(
                    sweep_rows
                        .iter()
                        .map(|r| {
                            Value::Map(vec![
                                ("pairs".into(), Value::UInt(r.pairs as u64)),
                                ("processed".into(), Value::UInt(r.processed)),
                                ("warm_hits".into(), Value::UInt(r.warm_hits)),
                                ("warm_hit_rate".into(), Value::Float(r.hit_rate())),
                                ("amortized_ms_per_frame".into(), Value::Float(r.amortized_ms)),
                                ("warm_p50_ms".into(), float(r.warm_p50)),
                                ("cold_p50_ms".into(), float(r.cold_p50)),
                                ("speedup_vs_cold".into(), float(r.speedup())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("warmstart_hits".into(), Value::UInt(hits)),
            ("warmstart_misses".into(), Value::UInt(misses)),
            (
                "warmstart_fallbacks".into(),
                Value::UInt(snapshot.counter("warmstart.fallback").unwrap_or(0)),
            ),
            ("frames_processed".into(), Value::UInt(processed)),
            ("metrics".into(), metrics),
        ]),
    );
}
