//! Per-frame stage-1 features through the service: when one frame per
//! vehicle is submitted to every peer's session, each frame computes its
//! MIM and keypoints once, each sending frame is swept once per batch, and
//! every pair recovers exactly what it recovers from frames of its own.
//! The batch workers also record every per-recovery figure as a
//! distribution, the same at any thread budget. Every run also keeps the
//! service's conservation law and, with warm start, the warm-start ledger:
//! each processed frame counts exactly one `warmstart.hit` or
//! `warmstart.miss`, and each miss exactly one `warmstart.miss.<cause>`.

use bb_align::{BbAlign, BbAlignConfig, PerceptionFrame, RecoverError, Recovery, RecoveryRequest};
use bba_dataset::{AgentFrame, FleetDataset, FleetDatasetConfig, FleetFrame};
use bba_obs::{MetricsSnapshot, Recorder};
use bba_serve::{FrameSubmission, PairId, PoseService, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const VEHICLES: usize = 4;

/// The engine's per-recovery figures. Batch workers record them
/// concurrently, so each must be a distribution, never a last-writer-wins
/// gauge.
const PER_RECOVERY: [&str; 10] = [
    "stage1.keypoints_ego",
    "stage1.keypoints_other",
    "stage1.matches",
    "stage1.inliers_bv",
    "stage2.box_pairs",
    "stage2.inliers_box",
    "stage2.residual_t_m",
    "stage2.residual_r_rad",
    "warmstart.inliers_bv",
    "warmstart.alignment",
];

/// Every `warmstart.miss.<cause>` the engine counts.
const MISS_CAUSES: [&str; 7] =
    ["no_prediction", "geometry", "no_stage2", "occupancy", "boxes", "refine", "sharpness"];

/// 128² rasters at 1.6 m/px with a reduced descriptor patch: recovers
/// platoon pairs reliably at a fraction of the production cost.
fn engine_config() -> BbAlignConfig {
    let mut config = BbAlignConfig { min_inliers_bv: 10, ..BbAlignConfig::default() };
    config.bev.resolution = 1.6;
    config.descriptor.patch_size = 24;
    config.descriptor.grid_size = 4;
    config
}

/// `ticks` consecutive 10 Hz frames of a `VEHICLES`-car platoon.
fn platoon(ticks: usize) -> Vec<FleetFrame> {
    let mut config = FleetDatasetConfig::test_small(VEHICLES);
    config.fleet.spacing = 20.0;
    config.fleet.scenario.agent_separation = 20.0;
    config.base = config.base.at_frame_interval(0.1);
    let mut dataset = FleetDataset::new(config, 3);
    (0..ticks).map(|_| dataset.next_frame()).collect()
}

fn perception(engine: &BbAlign, agent: &AgentFrame) -> Arc<PerceptionFrame> {
    Arc::new(engine.frame_from_parts(
        agent.scan.points().iter().map(|p| p.position),
        agent.detections.iter().map(|d| (d.box3, d.confidence)),
    ))
}

type Outcome = (PairId, u64, Result<Recovery, RecoverError>);

/// What one fleet run recovered, with its feature accounting.
struct Served {
    outcomes: Vec<Outcome>,
    /// Distinct frames the run submitted.
    frames: u64,
    /// The engine's `features.computed` count.
    computed: u64,
    /// The recorder shared by engine and service, after the run.
    metrics: MetricsSnapshot,
}

/// Serves every ordered pair of every tick at `threads`, one batch per
/// tick. With `share`, each vehicle rasterises once per tick and that one
/// `Arc` frame goes to all of its peers' sessions; without, every
/// submission rasterises its own ego and other frame. Asserts the
/// conservation law and, with `warm_start`, the warm-start ledger and its
/// miss causes.
fn serve(ticks: &[FleetFrame], threads: usize, warm_start: bool, share: bool) -> Served {
    let recorder = Recorder::enabled();
    let engine = Arc::new(BbAlign::new(engine_config()).with_recorder(recorder.clone()));
    let config = ServiceConfig { seed: 5, warm_start, ..ServiceConfig::default() };
    let service = PoseService::new(Arc::clone(&engine), config).with_recorder(recorder.clone());
    let mut recovered = Vec::new();
    let mut frames = 0;
    for (seq, tick) in ticks.iter().enumerate() {
        let frame = |v: usize| perception(&engine, &tick.agents[v]);
        let shared: Vec<_> = if share { (0..VEHICLES).map(frame).collect() } else { Vec::new() };
        for (i, j) in (0..VEHICLES).flat_map(|i| (0..VEHICLES).map(move |j| (i, j))) {
            if i == j {
                continue;
            }
            let (ego, other) = if share {
                (Arc::clone(&shared[i]), Arc::clone(&shared[j]))
            } else {
                frames += 2;
                (frame(i), frame(j))
            };
            let submission = FrameSubmission { seq: seq as u64, timestamp: tick.time, ego, other };
            service.submit(PairId::new(i as u32, j as u32), submission, tick.time);
        }
        frames += shared.len() as u64;
        let outcomes = bba_par::with_threads(threads, || service.process_batch(tick.time));
        recovered.extend(outcomes.into_iter().map(|o| (o.pair, o.seq, o.result)));
    }
    let stats = service.stats();
    assert!(stats.is_conserved(), "serving ledger violated: {stats:?}");
    let metrics = recorder.snapshot();
    if warm_start {
        let count = |name| metrics.counter(name).unwrap_or(0);
        let (hits, misses) = (count("warmstart.hit"), count("warmstart.miss"));
        let processed = count("serve.processed");
        assert_eq!(hits + misses, processed, "warm-start ledger: {hits} hits + {misses} misses");
        let causes: Vec<(&str, u64)> = metrics
            .counters
            .iter()
            .filter_map(|(name, n)| Some((name.strip_prefix("warmstart.miss.")?, *n)))
            .collect();
        let sum = |keep: fn(&str) -> bool| -> u64 {
            causes.iter().filter(|(cause, _)| keep(cause)).map(|&(_, n)| n).sum()
        };
        assert!(causes.iter().all(|(cause, _)| MISS_CAUSES.contains(cause)), "{causes:?}");
        assert_eq!(sum(|_| true), misses, "miss causes {causes:?}");
        let fallbacks = count("warmstart.fallback");
        assert_eq!(sum(|c| c != "no_prediction"), fallbacks, "miss causes {causes:?}");
    }
    let computed = metrics.counter("features.computed").unwrap_or(0);
    Served { outcomes: recovered, frames, computed, metrics }
}

/// An outcome's bits: every transform component of the recovery and of
/// its two stages by `to_bits`, and both inlier counts.
type Bits = (PairId, u64, Result<(Vec<u64>, usize, usize), RecoverError>);

fn bits(outcomes: &[Outcome]) -> Vec<Bits> {
    outcomes
        .iter()
        .map(|(pair, seq, result)| {
            (*pair, *seq, result.as_ref().map(recovery_bits).map_err(Clone::clone))
        })
        .collect()
}

fn recovery_bits(r: &Recovery) -> (Vec<u64>, usize, usize) {
    let mut transforms = vec![r.transform, r.bv.transform, r.bv.transform_pixels];
    transforms.extend(r.box_alignment.as_ref().map(|b| b.transform));
    let components = transforms
        .iter()
        .flat_map(|t| [t.yaw(), t.translation().x, t.translation().y])
        .map(f64::to_bits)
        .collect();
    (components, r.inliers_bv(), r.inliers_box())
}

#[test]
fn shared_frames_recover_like_per_pair_frames_and_compute_features_once() {
    let ticks = platoon(1);
    let reference = serve(&ticks, 1, false, false);
    let pairs = VEHICLES * (VEHICLES - 1);
    assert_eq!(reference.outcomes.len(), pairs);
    assert!(
        reference.outcomes.iter().any(|(_, _, r)| r.as_ref().is_ok_and(Recovery::is_success)),
        "the platoon should recover at least one pair"
    );
    assert_eq!(reference.computed, reference.frames, "unshared frames compute their own");
    assert_eq!(reference.metrics.counter("stage1.sweeps"), Some(pairs as u64));
    for threads in [1, 4] {
        let shared = serve(&ticks, threads, false, true);
        assert_eq!(shared.outcomes, reference.outcomes, "diverged at {threads} threads");
        assert_eq!(shared.frames, VEHICLES as u64);
        assert_eq!(shared.computed, shared.frames, "one computation per frame at {threads}");
        let sweeps = shared.metrics.counter("stage1.sweeps");
        assert_eq!(sweeps, Some(VEHICLES as u64), "one sweep per sending frame at {threads}");
    }
}

#[test]
fn grouped_sweeps_keep_every_bit_of_per_pair_recoveries() {
    let ticks = platoon(3);
    for warm_start in [false, true] {
        let reference = bits(&serve(&ticks, 1, warm_start, false).outcomes);
        assert_eq!(reference.len(), ticks.len() * VEHICLES * (VEHICLES - 1));
        for threads in [1, 4] {
            let shared = bits(&serve(&ticks, threads, warm_start, true).outcomes);
            assert_eq!(shared, reference, "warm start {warm_start}, {threads} threads");
        }
    }
}

#[test]
fn a_group_with_a_failing_and_a_strong_lane_answers_each_as_alone() {
    let engine = BbAlign::new(engine_config());
    let tick = &platoon(1)[0];
    let frames: Vec<_> = (0..VEHICLES).map(|v| perception(&engine, &tick.agents[v])).collect();
    let featureless = Arc::new(engine.frame_from_parts(std::iter::empty(), std::iter::empty()));
    // Sender 1's frame to receiver 0, to a featureless receiver, to itself
    // (every top match is exact, so the `strong` exit fires) and to
    // receiver 2.
    let other = &frames[1];
    let egos = [&frames[0], &featureless, &frames[1], &frames[2]];
    let fresh = |f: &PerceptionFrame| PerceptionFrame::new(f.bev().clone(), f.boxes().to_vec());
    let seed = |k: usize| StdRng::seed_from_u64(100 + k as u64);

    let recorder = Recorder::enabled();
    let grouped_engine = BbAlign::new(engine_config()).with_recorder(recorder.clone());
    let mut rngs: Vec<StdRng> = (0..egos.len()).map(seed).collect();
    let mut requests: Vec<_> = egos
        .iter()
        .zip(&mut rngs)
        .map(|(ego, rng)| RecoveryRequest { ego, predicted: None, rng })
        .collect();
    let grouped = grouped_engine.recover_group(other, &mut requests, false);
    assert_eq!(recorder.snapshot().counter("stage1.sweeps"), Some(1));

    for (k, (ego, result)) in egos.iter().zip(grouped).enumerate() {
        let lone_recorder = Recorder::enabled();
        let lone_engine = BbAlign::new(engine_config()).with_recorder(lone_recorder.clone());
        let mut rng = seed(k);
        let lone = lone_engine.recover(&fresh(ego), &fresh(other), &mut rng);
        let result = result.map(|w| w.recovery);
        assert_eq!(
            result.as_ref().map(recovery_bits),
            lone.as_ref().map(recovery_bits),
            "lane {k}"
        );
        assert_eq!(result, lone, "lane {k}");
        assert_eq!(rngs[k].random::<u64>(), rng.random::<u64>(), "lane {k}'s RNG stream");
        let swept = lone_recorder.snapshot().counter("stage1.hypotheses");
        match k {
            1 => assert_eq!(lone, Err(RecoverError::NoKeypoints { side: "ego" })),
            2 => assert!(swept.is_some_and(|h| h < 24), "no strong exit: {swept:?} swept"),
            _ => assert!(lone.is_ok(), "lane {k}: {lone:?}"),
        }
    }
}

#[test]
fn warm_start_never_computes_more_features_than_frames() {
    let ticks = platoon(3);
    let mut counts = Vec::new();
    for threads in [1, 4] {
        let served = serve(&ticks, threads, true, true);
        assert_eq!(served.outcomes.len(), ticks.len() * VEHICLES * (VEHICLES - 1));
        assert!(
            served.computed <= served.frames,
            "{} feature computations for {} frames at {threads} threads",
            served.computed,
            served.frames
        );
        let per_recovery: Vec<(&str, u64)> = PER_RECOVERY
            .iter()
            .map(|&name| {
                assert!(served.metrics.gauge(name).is_none(), "{name} is a gauge at {threads}");
                (name, served.metrics.value(name).map_or(0, |h| h.count))
            })
            .collect();
        assert!(per_recovery.iter().all(|&(_, n)| n > 0), "unrecorded: {per_recovery:?}");
        counts.push(per_recovery);
    }
    assert_eq!(counts[0], counts[1], "per-recovery histogram counts differ between budgets");
}
