//! Failure-injection tests: the system must degrade loudly and safely, not
//! silently, when sensors or scenes break.

use bb_align::{BbAlign, BbAlignConfig, RecoverError};
use bba_dataset::{Dataset, DatasetConfig};
use bba_detect::{Detector, DetectorModel};
use bba_features::{ransac_rigid, ransac_rigid_naive, RansacConfig, RansacError};
use bba_geometry::Vec2;
use bba_lidar::{LidarConfig, Scanner};
use bba_scene::{Scenario, ScenarioConfig, ScenarioPreset, Trajectory, World};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engine() -> BbAlign {
    BbAlign::new(BbAlignConfig::default())
}

#[test]
fn total_sensor_outage_reports_no_keypoints() {
    // A sensor with 100 % dropout returns an empty scan; recovery must
    // fail with a diagnosable error, not panic or hallucinate a pose.
    let mut cfg = LidarConfig::test_coarse();
    cfg.dropout_prob = 1.0;
    let scenario = Scenario::generate(&ScenarioConfig::preset(ScenarioPreset::Urban), 1);
    let mut rng = StdRng::seed_from_u64(1);
    let scan = Scanner::new(cfg).scan(
        scenario.world(),
        scenario.ego_trajectory(),
        0.0,
        scenario.ego_id(),
        &mut rng,
    );
    assert!(scan.is_empty());

    let aligner = engine();
    let dead =
        aligner.frame_from_parts(scan.points().iter().map(|p| p.position), std::iter::empty());
    let err = aligner.recover(&dead, &dead, &mut rng).unwrap_err();
    assert!(matches!(err, RecoverError::NoKeypoints { .. }), "got {err}");
}

#[test]
fn empty_world_scan_produces_only_ground() {
    // Nothing but ground plane: detector returns at most false positives,
    // and the BV height map is empty (ground rasterises to zero).
    let world = World::default();
    let traj = Trajectory::straight(Vec2::ZERO, 0.0, 10.0);
    let scanner = Scanner::new(LidarConfig::test_coarse());
    let mut rng = StdRng::seed_from_u64(2);
    let scan = scanner.scan(&world, &traj, 0.0, bba_scene::ObstacleId(0), &mut rng);
    assert!(scan.points().iter().all(|p| p.target.is_none()));

    let aligner = engine();
    let frame =
        aligner.frame_from_parts(scan.points().iter().map(|p| p.position), std::iter::empty());
    assert_eq!(frame.bev().occupancy(), 0.0, "ground must not rasterise");
}

#[test]
fn extreme_range_noise_degrades_but_does_not_crash() {
    let mut lidar = LidarConfig::test_coarse();
    lidar.range_noise_sigma = 2.0; // 2 m range noise: hopeless data
    let mut dcfg = DatasetConfig::test_small();
    dcfg.ego_lidar = lidar.clone();
    dcfg.other_lidar = lidar;
    let mut ds = Dataset::new(dcfg, 3);
    let pair = ds.next_pair().unwrap();
    let aligner = engine();
    let ego = aligner.frame_from_parts(
        pair.ego.scan.points().iter().map(|p| p.position),
        pair.ego.detections.iter().map(|d| (d.box3, d.confidence)),
    );
    let other = aligner.frame_from_parts(
        pair.other.scan.points().iter().map(|p| p.position),
        pair.other.detections.iter().map(|d| (d.box3, d.confidence)),
    );
    let mut rng = StdRng::seed_from_u64(3);
    // Whatever happens, a *confident* answer must not be grossly wrong.
    if let Ok(r) = aligner.recover(&ego, &other, &mut rng) {
        let (dt, _) = r.transform.error_to(&pair.true_relative);
        assert!(
            !r.is_success() || dt < 10.0,
            "confident recovery with {dt:.1} m error under 2 m range noise"
        );
    }
}

#[test]
fn detector_on_empty_scan_yields_only_false_positives() {
    let world = World::default();
    let traj = Trajectory::stationary(Vec2::ZERO, 0.0);
    let scanner = Scanner::new(LidarConfig::test_coarse());
    let mut rng = StdRng::seed_from_u64(4);
    let scan = scanner.scan(&world, &traj, 0.0, bba_scene::ObstacleId(0), &mut rng);
    let dets = Detector::new(DetectorModel::CoBevt).detect(
        &scan,
        &world,
        &traj,
        bba_scene::ObstacleId(0),
        &mut rng,
    );
    assert!(dets.iter().all(|d| d.truth.is_none()), "phantom true positives");
}

#[test]
fn stage2_with_zero_boxes_falls_back_to_stage1() {
    let mut ds = Dataset::new(DatasetConfig::test_small(), 5);
    let pair = ds.next_pair().unwrap();
    let aligner = engine();
    // Strip every detection: stage 2 cannot run.
    let ego = aligner
        .frame_from_parts(pair.ego.scan.points().iter().map(|p| p.position), std::iter::empty());
    let other = aligner
        .frame_from_parts(pair.other.scan.points().iter().map(|p| p.position), std::iter::empty());
    let mut rng = StdRng::seed_from_u64(5);
    if let Ok(r) = aligner.recover(&ego, &other, &mut rng) {
        assert!(r.box_alignment.is_none());
        assert_eq!(r.inliers_box(), 0);
        assert!(!r.is_success(), "success criterion requires stage-2 inliers");
        assert_eq!(r.transform, r.bv.transform, "must fall back to stage 1");
    }
}

/// Runs both RANSAC implementations on the same degenerate input and
/// requires identical outcomes — the fast path must fail exactly like the
/// naive scan, never panic, and terminate within the iteration budget.
fn assert_ransac_failure_parity(
    src: &[Vec2],
    dst: &[Vec2],
    cfg: &RansacConfig,
    label: &str,
) -> Result<bba_features::RansacResult, RansacError> {
    let naive = {
        let mut rng = StdRng::seed_from_u64(99);
        ransac_rigid_naive(src, dst, cfg, &mut rng)
    };
    let fast = ransac_rigid(src, dst, 0, cfg, &mut StdRng::seed_from_u64(99));
    assert_eq!(naive, fast, "{label}: fast path diverged");
    naive
}

#[test]
fn ransac_under_three_correspondences_fails_identically() {
    let cfg = RansacConfig::default();
    let p = Vec2::new(3.0, 4.0);
    for pts in [vec![], vec![p], vec![p, Vec2::new(8.0, -2.0)]] {
        let r = assert_ransac_failure_parity(&pts, &pts, &cfg, "tiny input");
        match pts.len() {
            0 | 1 => assert!(
                matches!(r, Err(RansacError::TooFewCorrespondences { .. })),
                "{} point(s): got {r:?}",
                pts.len()
            ),
            // Two distinct identity-mapped points fit a model with two
            // inliers — still below the default min_inliers of six.
            _ => assert!(matches!(r, Err(RansacError::NoConsensus { best: 2, .. })), "got {r:?}"),
        }
    }
}

#[test]
fn ransac_all_collinear_points_behave_identically() {
    // Collinear but distinct points still pin a rigid transform (two
    // distinct points fix rotation + translation); the contract under test
    // is only that both implementations agree bit-for-bit on the outcome.
    let cfg = RansacConfig { min_inliers: 4, ..Default::default() };
    let src: Vec<Vec2> = (0..12).map(|i| Vec2::new(i as f64, 2.0 * i as f64)).collect();
    let dst: Vec<Vec2> = src.iter().map(|p| Vec2::new(-p.y + 1.0, p.x - 3.0)).collect();
    let r = assert_ransac_failure_parity(&src, &dst, &cfg, "collinear");
    let r = r.expect("distinct collinear correspondences are solvable");
    assert_eq!(r.num_inliers, 12);
}

#[test]
fn ransac_all_outliers_reports_no_consensus_identically() {
    // Index-incoherent scatter: no rigid model explains more than a couple
    // of correspondences, so the scan must exhaust its budget and fail.
    let cfg = RansacConfig { max_iterations: 500, ..Default::default() };
    let src: Vec<Vec2> = (0..20).map(|i| Vec2::new(i as f64, (i * i % 13) as f64)).collect();
    let dst: Vec<Vec2> =
        (0..20).map(|i| Vec2::new(200.0 - 17.0 * i as f64, ((i * i * i) % 101) as f64)).collect();
    let r = assert_ransac_failure_parity(&src, &dst, &cfg, "all outliers");
    assert!(matches!(r, Err(RansacError::NoConsensus { .. })), "got {r:?}");
}

#[test]
fn ransac_all_duplicate_points_fail_identically_without_spinning() {
    // Every sample pair is coincident, so every 2-point fit is degenerate:
    // no model is ever scored, and both paths must report zero consensus
    // after the full budget instead of looping or panicking.
    let cfg = RansacConfig::default();
    let p = Vec2::new(7.0, -1.0);
    let src = vec![p; 15];
    let dst = vec![Vec2::new(2.0, 2.0); 15];
    let r = assert_ransac_failure_parity(&src, &dst, &cfg, "all duplicates");
    assert!(matches!(r, Err(RansacError::NoConsensus { best: 0, .. })), "got {r:?}");
}

#[test]
fn mismatched_wire_payload_is_rejected_cleanly() {
    let mut ds = Dataset::new(DatasetConfig::test_small(), 6);
    let pair = ds.next_pair().unwrap();
    let aligner = engine();
    let other = aligner.frame_from_parts(
        pair.other.scan.points().iter().map(|p| p.position),
        pair.other.detections.iter().map(|d| (d.box3, d.confidence)),
    );
    let mut bytes = bb_align::encode_frame(&other);
    // Corrupt the cell count upward: decode must not panic or over-read.
    bytes[20] = 0xFF;
    bytes[21] = 0xFF;
    assert!(bb_align::decode_frame(&bytes).is_err());
}
