//! Property-based tests for the BB-Align core: pixel/world transform
//! conversion, wire accounting and the pose tracker.

use bb_align::{BbAlign, BbAlignConfig, PoseTracker};
use bba_geometry::{Box3, Iso2, Vec2, Vec3};
use proptest::prelude::*;

fn any_iso2() -> impl Strategy<Value = Iso2> {
    (-3.0..3.0f64, -40.0..40.0f64, -40.0..40.0f64)
        .prop_map(|(a, x, y)| Iso2::new(a, Vec2::new(x, y)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn frame_wire_size_scales_with_content(
        pts in proptest::collection::vec(
            (-20.0..20.0f64, -20.0..20.0f64, 0.5..10.0f64).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
            0..100,
        ),
        n_boxes in 0usize..10,
    ) {
        let aligner = BbAlign::new(BbAlignConfig::test_small());
        let boxes: Vec<(Box3, f64)> = (0..n_boxes)
            .map(|i| {
                (
                    Box3::new(
                        Vec3::new(i as f64 * 3.0 - 10.0, 5.0, 0.8),
                        Vec3::new(4.5, 1.9, 1.6),
                        0.1,
                    ),
                    0.9,
                )
            })
            .collect();
        let frame = aligner.frame_from_parts(pts.iter().copied(), boxes.iter().copied());
        // Wire size: 24 bytes per box plus ≤5 bytes per point (sparse cells).
        prop_assert!(frame.wire_size_bytes() <= pts.len() * 5 + n_boxes * 24);
        prop_assert!(frame.wire_size_bytes() >= n_boxes * 24);
        prop_assert_eq!(frame.boxes().len(), n_boxes);
    }

    #[test]
    fn tracker_converges_to_constant_measurement(pose in any_iso2()) {
        let mut tracker = PoseTracker::new();
        for k in 0..12 {
            tracker.update_pose(k as f64 * 0.5, &pose, 40);
        }
        let p = tracker.predict(5.5).unwrap();
        let (dt, dr) = p.error_to(&pose);
        prop_assert!(dt < 0.2, "tracker did not converge: {dt}");
        prop_assert!(dr < 0.05);
    }

    #[test]
    fn tracker_prediction_is_continuous(pose in any_iso2(), v in -5.0..5.0f64) {
        let mut tracker = PoseTracker::new();
        for k in 0..8 {
            let t = k as f64 * 0.5;
            let moved = Iso2::new(pose.yaw(), pose.translation() + Vec2::new(v, 0.0) * t);
            tracker.update_pose(t, &moved, 40);
        }
        // Predictions at nearby times stay close (no jumps).
        let a = tracker.predict(4.0).unwrap();
        let b = tracker.predict(4.05).unwrap();
        let (dt, dr) = a.error_to(&b);
        prop_assert!(dt < 0.5 && dr < 0.05);
    }

    /// Shuffled (non-monotonic) timestamps must never blow up the velocity
    /// estimate. The truth is an exactly linear ~3 m/s trajectory, so with
    /// out-of-order measurements rejected the learned velocity stays
    /// physical; the old `dt = max(dt, 1e-6)` clamp instead divided
    /// metre-scale displacements by microseconds and sent the EMA to
    /// ~10⁴ m/s.
    #[test]
    fn tracker_velocity_stays_bounded_under_shuffled_timestamps(
        order in prop::collection::vec(0usize..24, 8..24),
        v in -3.0..3.0f64,
    ) {
        let mut tracker = PoseTracker::new();
        for &k in &order {
            let t = k as f64 * 0.5;
            let truth = Vec2::new(40.0 + v * t, 0.0);
            tracker.update_pose(t, &Iso2::new(0.0, truth), 40);
        }
        if let Some(vel) = tracker.relative_velocity() {
            prop_assert!(
                vel.norm() <= 50.0,
                "shuffled timestamps produced an unphysical velocity: {:?}",
                vel
            );
        }
    }

    #[test]
    fn tracker_never_accepts_gross_jumps(pose in any_iso2(), jump in 20.0..200.0f64) {
        let mut tracker = PoseTracker::new();
        for k in 0..6 {
            tracker.update_pose(k as f64 * 0.5, &pose, 40);
        }
        let hijack = Iso2::new(pose.yaw(), pose.translation() + Vec2::new(jump, 0.0));
        tracker.update_pose(3.0, &hijack, 100);
        let p = tracker.predict(3.0).unwrap();
        let (dt, _) = p.error_to(&pose);
        prop_assert!(dt < 2.0, "single outlier moved the track by {dt}");
    }
}
