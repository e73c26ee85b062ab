//! Temporal warm-start contract tests.
//!
//! The warm path's load-bearing promise is *safety*: whatever the tracker
//! predicts, a warm miss must fall back to a recovery bit-identical to
//! the cold pipeline — same pose bits, same inlier sets, same RNG stream
//! — at any `bba-par` thread width, and a stale prediction must never be
//! returned as a verified recovery. A failed prediction is not read by
//! the cold pipeline at all, so the fallback is `recover` itself.

use bb_align::tracking::{MAX_PREDICTION_SIGMA, PROCESS_NOISE};
use bb_align::{BbAlign, BbAlignConfig, PerceptionFrame, PoseTracker, RecoveryPath};
use bba_bev::BevConfig;
use bba_dataset::{Dataset, DatasetConfig};
use bba_geometry::{Iso2, Vec2};
use bba_serve::{FrameSubmission, PairId, PoseService, ServiceConfig, SessionConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

/// The link-harness fast engine (128² BV raster): real pipeline, fast
/// enough for property-test repetition.
fn fast_engine() -> BbAlignConfig {
    let mut engine = BbAlignConfig {
        bev: BevConfig { range: 102.4, resolution: 1.6 },
        min_inliers_bv: 10,
        ..BbAlignConfig::default()
    };
    engine.descriptor.patch_size = 24;
    engine.descriptor.grid_size = 4;
    engine
}

fn frames_of(aligner: &BbAlign, agent: &bba_dataset::AgentFrame) -> PerceptionFrame {
    aligner.frame_from_parts(
        agent.scan.points().iter().map(|p| p.position),
        agent.detections.iter().map(|d| (d.box3, d.confidence)),
    )
}

/// A copy of `frame` with an empty feature slot, so a recovery on it
/// computes the MIM, keypoints and descriptors itself (a clone would read
/// the original's).
fn cold_copy(frame: &PerceptionFrame) -> PerceptionFrame {
    PerceptionFrame::new(frame.bev().clone(), frame.boxes().to_vec())
}

/// One urban frame pair plus its engine, built once for every property
/// case (frame construction dominates; recovery is what we test).
fn shared_pair() -> &'static (BbAlign, PerceptionFrame, PerceptionFrame, Iso2) {
    static PAIR: OnceLock<(BbAlign, PerceptionFrame, PerceptionFrame, Iso2)> = OnceLock::new();
    PAIR.get_or_init(|| {
        let aligner = BbAlign::new(fast_engine());
        let mut ds = Dataset::new(DatasetConfig::test_small(), 0);
        let pair = ds.next_pair().expect("dataset streams indefinitely");
        let ego = frames_of(&aligner, &pair.ego);
        let other = frames_of(&aligner, &pair.other);
        (aligner, ego, other, pair.true_relative)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A warm miss — here a hopeless prediction that can't pass the
    /// coarse screen — must produce the exact cold recovery: equal pose
    /// bits, equal inlier counts, and an identically-positioned RNG
    /// stream, at every thread width.
    #[test]
    fn warm_miss_fallback_is_bit_identical_across_widths(
        seed in 0u64..1_000,
        width in 1usize..9,
        yaw in -3.0f64..3.0,
    ) {
        let (aligner, ego, other, _) = shared_pair();
        let bad = Iso2::new(yaw, Vec2::new(200.0, 150.0));

        let mut rng_cold = StdRng::seed_from_u64(seed);
        let cold = bba_par::with_threads(1, || aligner.recover(ego, other, &mut rng_cold));

        // The warm side recovers cold copies, so its stage-1 features are
        // computed at `width` rather than read from the cold run.
        let mut rng_warm = StdRng::seed_from_u64(seed);
        let (ego_copy, other_copy) = (cold_copy(ego), cold_copy(other));
        let warm = bba_par::with_threads(width, || {
            aligner.recover_warm(&ego_copy, &other_copy, Some(&bad), &mut rng_warm)
        });

        match (warm, cold) {
            (Ok(w), Ok(c)) => {
                prop_assert_eq!(w.path, RecoveryPath::ColdFallback);
                prop_assert_eq!(
                    w.recovery.transform.yaw().to_bits(),
                    c.transform.yaw().to_bits()
                );
                prop_assert_eq!(
                    w.recovery.transform.translation().x.to_bits(),
                    c.transform.translation().x.to_bits()
                );
                prop_assert_eq!(
                    w.recovery.transform.translation().y.to_bits(),
                    c.transform.translation().y.to_bits()
                );
                prop_assert_eq!(&w.recovery, &c);
            }
            (Err(_), Err(_)) => {}
            (w, c) => prop_assert!(false, "paths diverged: warm {:?} vs cold {:?}", w, c),
        }
        // Both streams must sit at the same position afterwards.
        prop_assert_eq!(
            rng_warm.random_range(0..u64::MAX),
            rng_cold.random_range(0..u64::MAX)
        );
    }
}

/// A lane-change-style track break: the tracker's prediction points where
/// the vehicle *would* have been, far from where it is. The warm path
/// must reject the stale prediction (never report it as a recovery) and
/// fall back to the cold pipeline's answer.
#[test]
fn lane_change_prediction_is_rejected_not_returned() {
    let (aligner, ego, other, truth) = shared_pair();
    // A stale track: ~8 m lateral plus 10° of yaw off the true pose —
    // the maneuver the constant-velocity model cannot have seen coming.
    let stale =
        Iso2::new(truth.yaw() + 10f64.to_radians(), truth.translation() + Vec2::new(-3.0, 8.0));
    let mut rng = StdRng::seed_from_u64(9);
    let w = aligner.recover_warm(ego, other, Some(&stale), &mut rng).expect("pair recovers");
    assert_ne!(w.path, RecoveryPath::WarmStart, "stale prediction must not verify");
    let (dt, _) = w.recovery.transform.error_to(truth);
    let (stale_dt, _) = stale.error_to(truth);
    assert!(dt < stale_dt, "fallback ({dt:.2} m) must beat the stale prediction ({stale_dt:.2} m)");
    // And it is exactly the cold answer.
    let mut rng_cold = StdRng::seed_from_u64(9);
    let cold = aligner.recover(ego, other, &mut rng_cold).expect("pair recovers");
    assert_eq!(w.recovery, cold);
}

/// A link dropout ages the track out: after a long gap the confidence
/// gate must refuse to predict at all, while a one-frame gap stays warm.
#[test]
fn dropout_gap_ages_the_track_out() {
    let mut tracker = PoseTracker::new();
    for k in 0..5 {
        let t = k as f64 * 0.1;
        tracker.update_pose(t, &Iso2::new(0.01 * t, Vec2::new(10.0 + t, 2.0)), 40);
    }
    assert!(
        tracker.warm_prediction(0.5).is_some(),
        "one 10 Hz frame after the last update must stay warm"
    );
    assert!(
        tracker.warm_prediction(0.4 + 60.0).is_none(),
        "a long dropout must age the track past the confidence gate"
    );
    // Boundary from the tracker's constants: sigma grows by PROCESS_NOISE
    // per second, so the gate closes once it crosses MAX_PREDICTION_SIGMA.
    let sigma_now = tracker.position_sigma().expect("track is initialised");
    let closes_after = (MAX_PREDICTION_SIGMA - sigma_now) / PROCESS_NOISE;
    assert!(tracker.warm_prediction(0.4 + closes_after + 0.1).is_none());
    assert!(tracker.warm_prediction(0.4 + closes_after - 0.1).is_some());
}

/// The serving layer's warm path must preserve the batch determinism
/// contract: identical outcome streams (poses to the bit, paths, and
/// warm-hit pattern) at every thread width, with trackers enabled and
/// really firing.
#[test]
fn warm_batches_are_bit_identical_across_thread_widths() {
    const PAIRS: usize = 2;
    const ROUNDS: usize = 4;

    type Sequence = Vec<(f64, Arc<PerceptionFrame>, Arc<PerceptionFrame>)>;

    // Per-pair 10 Hz sequences, rasterised once; every width recovers
    // cold copies, so each computes its own stage-1 features.
    let engine = Arc::new(BbAlign::new(fast_engine()));
    let sequences: Vec<Sequence> = (0..PAIRS)
        .map(|p| {
            let cfg = DatasetConfig::test_small().at_frame_interval(0.1);
            let mut ds = Dataset::new(cfg, 40 + p as u64);
            (0..ROUNDS)
                .map(|_| {
                    let fp = ds.next_pair().unwrap();
                    (
                        fp.time,
                        Arc::new(frames_of(&engine, &fp.ego)),
                        Arc::new(frames_of(&engine, &fp.other)),
                    )
                })
                .collect()
        })
        .collect();

    let run = |threads: usize| {
        let service = PoseService::new(
            Arc::clone(&engine),
            ServiceConfig {
                session: SessionConfig { queue_capacity: 2, staleness: 0.5 },
                seed: 11,
                ..Default::default()
            },
        );
        let mut log = Vec::new();
        bba_par::with_threads(threads, || {
            for round in 0..ROUNDS {
                let mut now = 0.0;
                for (p, seq) in sequences.iter().enumerate() {
                    let (time, ego, other) = &seq[round];
                    now = *time;
                    service.submit(
                        PairId::new(p as u32, 100),
                        FrameSubmission {
                            seq: round as u64,
                            timestamp: *time,
                            ego: Arc::new(cold_copy(ego)),
                            other: Arc::new(cold_copy(other)),
                        },
                        *time,
                    );
                }
                for o in service.process_batch(now) {
                    let pose = o.result.as_ref().ok().map(|r| {
                        let t = r.transform;
                        (
                            t.yaw().to_bits(),
                            t.translation().x.to_bits(),
                            t.translation().y.to_bits(),
                            r.inliers_bv(),
                            r.inliers_box(),
                        )
                    });
                    log.push((o.pair, o.seq, o.path, pose));
                }
            }
        });
        log
    };

    let baseline = run(1);
    assert_eq!(baseline.len(), PAIRS * ROUNDS, "every submission must be processed");
    let hits = baseline.iter().filter(|(_, _, path, _)| *path == RecoveryPath::WarmStart).count();
    assert!(hits >= 1, "the steady-state sequence should produce at least one warm hit");
    for width in [2usize, 4, 8] {
        assert_eq!(run(width), baseline, "warm batches diverged at {width} threads");
    }
}
