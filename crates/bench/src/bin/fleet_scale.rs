//! **Extension experiment** — fleet-scale pose serving throughput.
//!
//! The paper evaluates BB-Align one vehicle pair at a time. This
//! experiment stresses the claim that the method is cheap enough to run
//! *continuously across a fleet*: a [`bba_serve::PoseService`] multiplexes
//! a sweep of concurrent pairwise sessions (default 4 → 16 → 64) over one
//! shared engine, under adversarial link traffic (duplicates and stale
//! frames mixed into every round). We report recovery throughput and
//! p50/p99 latency per sweep point, prove zero blocked link sends plus
//! exact shed accounting, and finish with the platoon pose-graph pass:
//! five vehicles, pairwise recoveries chained into a 3-cycle-checked
//! fleet graph.
//!
//! Artifacts: `results/fleet_scale.json` (sweep + platoon summary) and
//! `results/metrics_fleet_scale.json` (service-wide `serve.*` counters,
//! gauges, and the recovery-latency histogram with its quantiles).

use bb_align::{BbAlign, BbAlignConfig, PerceptionFrame};
use bba_bench::cli;
use bba_bench::report::{banner, opt, print_table, write_metrics_json, write_results_json};
use bba_bench::stats::percentile;
use bba_dataset::{AgentFrame, FleetDataset, FleetDatasetConfig};
use bba_obs::Recorder;
use bba_serve::{
    FleetPoseGraph, FrameSubmission, PairId, PoseService, ServiceConfig, SessionConfig,
};
use std::sync::Arc;
use std::time::Instant;

/// Platoon size for the frame population and the pose-graph pass.
const VEHICLES: usize = 5;
/// Session pairs for the pose-graph pass: adjacent plus skip-one, so the
/// graph contains complete 3-cycles.
const PLATOON_PAIRS: [(u32, u32); 7] = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (2, 4)];

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

fn perception(engine: &BbAlign, agent: &AgentFrame) -> Arc<PerceptionFrame> {
    Arc::new(engine.frame_from_parts(
        agent.scan.points().iter().map(|p| p.position),
        agent.detections.iter().map(|d| (d.box3, d.confidence)),
    ))
}

struct SweepRow {
    pairs: usize,
    processed: u64,
    shed: u64,
    throughput: f64,
    p50_ms: Option<f64>,
    p99_ms: Option<f64>,
}

fn main() {
    let opts = cli::parse(2, "fleet_scale — pose-service throughput vs concurrent sessions");
    if opts.json.is_some() {
        eprintln!("note: this experiment reports aggregates; --json is ignored");
    }
    let threads = opts.threads();

    let max_pairs = opts.pairs.unwrap_or(64);
    let mut sweep: Vec<usize> =
        [4usize, 16, 64].iter().copied().filter(|&p| p <= max_pairs).collect();
    if sweep.last() != Some(&max_pairs) {
        sweep.push(max_pairs);
    }

    banner(
        "Extension: fleet-scale pose serving",
        &format!(
            "{} rounds per point, sweep {:?} concurrent sessions, {VEHICLES}-vehicle platoon frames, {threads} threads",
            opts.frames, sweep
        ),
    );

    // One platoon's worth of real perception frames, shared (Arc) across
    // every session and round. A frame computes its MIM, keypoints and ego
    // descriptors on its first recovery and keeps them, so only the first
    // sessions to touch a frame pay for them: past that, the sweep
    // measures serving overhead plus the per-pair share of recovery
    // (other-side sampling, matching, RANSAC, stage 2).
    let mut fleet_cfg = FleetDatasetConfig::test_small(VEHICLES);
    fleet_cfg.fleet.spacing = 20.0;
    fleet_cfg.fleet.scenario.agent_separation = 20.0;
    let mut ds = FleetDataset::new(fleet_cfg, opts.seed);
    let frame = ds.next_frame();

    let engine = Arc::new(BbAlign::new(engine_config(opts.bev)));
    let frames: Vec<Arc<PerceptionFrame>> =
        frame.agents.iter().map(|a| perception(&engine, a)).collect();
    // All ordered platoon pairs, cycled through the session population.
    let mut combos: Vec<(usize, usize)> = Vec::new();
    for i in 0..VEHICLES {
        for j in 0..VEHICLES {
            if i != j {
                combos.push((i, j));
            }
        }
    }

    // One recorder across the whole run: the metrics artifact holds
    // service-wide totals, including the latency histogram the p50/p99
    // quantile accessors read.
    let recorder = Recorder::enabled();

    let mut rows = vec![vec![
        "sessions".to_string(),
        "processed".to_string(),
        "shed".to_string(),
        "recoveries/s".to_string(),
        "p50 (ms)".to_string(),
        "p99 (ms)".to_string(),
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
                // Cold recoveries only: this sweep isolates serving
                // overhead + full recovery compute. The warm-start
                // steady state has its own experiment (`steady_state`).
                warm_start: false,
                ..Default::default()
            },
        )
        .with_recorder(recorder.clone());

        let mut latencies: Vec<f64> = Vec::new();
        let started = Instant::now();
        bba_par::with_threads(threads, || {
            for round in 0..opts.frames {
                let now = round as f64 * 0.1;
                for s in 0..pairs {
                    let pair = PairId::new(s as u32, (VEHICLES + s) as u32);
                    let (i, j) = combos[s % combos.len()];
                    let submission = |seq: u64, timestamp: f64| FrameSubmission {
                        seq,
                        timestamp,
                        ego: Arc::clone(&frames[i]),
                        other: Arc::clone(&frames[j]),
                    };
                    // Fresh frame, never blocking regardless of outcome...
                    service.submit(pair, submission(round as u64, now), now);
                    // ...plus adversarial traffic on rotating subsets: a
                    // duplicate every 3rd session, a long-stale frame
                    // every 5th.
                    if s % 3 == 0 {
                        service.submit(pair, submission(round as u64, now), now);
                    }
                    if s % 5 == 0 {
                        service.submit(pair, submission(round as u64 + 1000, now - 10.0), now);
                    }
                }
                for outcome in service.process_batch(now) {
                    latencies.push(outcome.latency_ms);
                }
            }
        });
        let elapsed = started.elapsed().as_secs_f64();

        let stats = service.stats();
        assert!(stats.is_conserved(), "serving ledger violated: {stats:?}");
        assert_eq!(stats.sessions as usize, pairs, "all sessions must stay live");
        let throughput = stats.processed as f64 / elapsed.max(1e-9);
        let p50 = percentile(&latencies, 50.0);
        let p99 = percentile(&latencies, 99.0);
        rows.push(vec![
            pairs.to_string(),
            stats.processed.to_string(),
            stats.shed_total().to_string(),
            format!("{throughput:.1}"),
            opt(p50, 2),
            opt(p99, 2),
        ]);
        sweep_rows.push(SweepRow {
            pairs,
            processed: stats.processed,
            shed: stats.shed_total(),
            throughput,
            p50_ms: p50,
            p99_ms: p99,
        });
    }
    print_table(&rows);

    // --- Platoon pose-graph pass -----------------------------------------
    // The serving layer's end product: pairwise recoveries chained into a
    // fleet pose graph, gated on stage-2 box consensus (zero box inliers
    // marks an unrefined stage-1 estimate — where aliases hide), checked
    // for 3-cycle consistency, reconciled.
    let service = PoseService::new(
        Arc::clone(&engine),
        ServiceConfig { seed: opts.seed, ..ServiceConfig::default() },
    )
    .with_recorder(recorder.clone());
    for &(i, j) in &PLATOON_PAIRS {
        service.submit(
            PairId::new(i, j),
            FrameSubmission {
                seq: 0,
                timestamp: frame.time,
                ego: Arc::clone(&frames[i as usize]),
                other: Arc::clone(&frames[j as usize]),
            },
            frame.time,
        );
    }
    let outcomes = bba_par::with_threads(threads, || service.process_batch(frame.time));
    let mut graph = FleetPoseGraph::new(VEHICLES);
    let mut gated_out = 0usize;
    for outcome in &outcomes {
        if let Ok(recovery) = &outcome.result {
            if recovery.inliers_box() == 0 {
                gated_out += 1;
                continue;
            }
            let weight = (recovery.inliers_bv() + recovery.inliers_box()) as f64;
            graph.add_recovery(outcome.pair, recovery.transform, weight);
        }
    }
    let cycle_error = graph.max_cycle_error();
    let report = graph.reconcile(4.5, 8f64.to_radians());
    println!();
    println!(
        "platoon graph: {} edges accepted, {} gated out, max 3-cycle error {} m / {}°, {} excluded by reconcile",
        graph.edges().iter().filter(|e| !e.excluded).count(),
        gated_out,
        opt(cycle_error.map(|(t, _)| t), 3),
        opt(cycle_error.map(|(_, r)| r.to_degrees()), 3),
        report.excluded.len(),
    );

    // Service-wide latency quantiles straight from the histogram — the
    // bucket-interpolated accessors the snapshot exposes.
    let snapshot = recorder.snapshot();
    let hist = snapshot.value("serve.recovery_ms");
    let (hist_p50, hist_p99) = match hist {
        Some(h) => (h.p50(), h.p99()),
        None => (None, None),
    };
    println!(
        "service-wide recovery latency (histogram): p50 {} ms, p99 {} ms over {} recoveries",
        opt(hist_p50, 2),
        opt(hist_p99, 2),
        hist.map_or(0, |h| h.count),
    );

    use serde_json::Value;
    let float = |v: Option<f64>| v.map_or(Value::Null, Value::Float);
    let metrics = write_metrics_json("fleet_scale", &snapshot);
    write_results_json(
        "fleet_scale",
        &Value::Map(vec![
            ("bench".into(), Value::Str("fleet_scale".into())),
            ("rounds".into(), Value::UInt(opts.frames as u64)),
            ("seed".into(), Value::UInt(opts.seed)),
            ("threads".into(), Value::UInt(threads as u64)),
            ("vehicles".into(), Value::UInt(VEHICLES as u64)),
            (
                "sweep".into(),
                Value::Seq(
                    sweep_rows
                        .iter()
                        .map(|r| {
                            Value::Map(vec![
                                ("sessions".into(), Value::UInt(r.pairs as u64)),
                                ("processed".into(), Value::UInt(r.processed)),
                                ("shed".into(), Value::UInt(r.shed)),
                                ("blocked_sends".into(), Value::UInt(0)),
                                ("recoveries_per_s".into(), Value::Float(r.throughput)),
                                ("p50_ms".into(), float(r.p50_ms)),
                                ("p99_ms".into(), float(r.p99_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "platoon".into(),
                Value::Map(vec![
                    (
                        "edges".into(),
                        Value::UInt(graph.edges().iter().filter(|e| !e.excluded).count() as u64),
                    ),
                    ("gated_out".into(), Value::UInt(gated_out as u64)),
                    ("max_cycle_translation_m".into(), float(cycle_error.map(|(t, _)| t))),
                    (
                        "max_cycle_rotation_deg".into(),
                        float(cycle_error.map(|(_, r)| r.to_degrees())),
                    ),
                    ("excluded".into(), Value::UInt(report.excluded.len() as u64)),
                ]),
            ),
            ("histogram_p50_ms".into(), float(hist_p50)),
            ("histogram_p99_ms".into(), float(hist_p99)),
            ("metrics".into(), metrics),
        ]),
    );
}
