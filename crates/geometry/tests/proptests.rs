//! Property-based tests for the geometry crate's core invariants.

use bba_geometry::{
    angle_diff, fit_rigid_2d, normalize_angle, obb_iou, BevBox, Iso2, Iso3, Vec2, Vec3,
};
use proptest::prelude::*;
use std::f64::consts::PI;

fn small_coord() -> impl Strategy<Value = f64> {
    -100.0..100.0f64
}

fn any_angle() -> impl Strategy<Value = f64> {
    -10.0..10.0f64
}

fn any_iso2() -> impl Strategy<Value = Iso2> {
    (any_angle(), small_coord(), small_coord()).prop_map(|(a, x, y)| Iso2::new(a, Vec2::new(x, y)))
}

fn any_vec2() -> impl Strategy<Value = Vec2> {
    (small_coord(), small_coord()).prop_map(|(x, y)| Vec2::new(x, y))
}

fn any_box() -> impl Strategy<Value = BevBox> {
    (small_coord(), small_coord(), 0.5..8.0f64, 0.5..4.0f64, any_angle())
        .prop_map(|(x, y, l, w, yaw)| BevBox::new(Vec2::new(x, y), Vec2::new(l, w), yaw))
}

proptest! {
    #[test]
    fn normalize_angle_is_idempotent(a in any_angle()) {
        let n = normalize_angle(a);
        prop_assert!((normalize_angle(n) - n).abs() < 1e-12);
        prop_assert!(n > -PI - 1e-12 && n <= PI + 1e-12);
    }

    #[test]
    fn angle_diff_bounded(a in any_angle(), b in any_angle()) {
        let d = angle_diff(a, b);
        prop_assert!(d.abs() <= PI + 1e-12);
    }

    #[test]
    fn iso2_inverse_roundtrip(t in any_iso2(), p in any_vec2()) {
        let q = t.inverse().apply(t.apply(p));
        prop_assert!((q - p).norm() < 1e-9);
    }

    #[test]
    fn iso2_compose_associative(a in any_iso2(), b in any_iso2(), c in any_iso2(), p in any_vec2()) {
        let lhs = a.compose(&b).compose(&c).apply(p);
        let rhs = a.compose(&b.compose(&c)).apply(p);
        prop_assert!((lhs - rhs).norm() < 1e-8);
    }

    #[test]
    fn iso2_preserves_distances(t in any_iso2(), p in any_vec2(), q in any_vec2()) {
        let d0 = p.distance(q);
        let d1 = t.apply(p).distance(t.apply(q));
        prop_assert!((d0 - d1).abs() < 1e-9);
    }

    #[test]
    fn iso3_lift_consistent(t in any_iso2(), p in any_vec2(), z in -5.0..5.0f64) {
        let t3 = Iso3::from_iso2(&t, 0.0);
        let q = t3.apply(Vec3::from_xy(p, z));
        prop_assert!((q.xy() - t.apply(p)).norm() < 1e-9);
        prop_assert!((q.z - z).abs() < 1e-9);
    }

    #[test]
    fn iou_symmetric_and_bounded(a in any_box(), b in any_box()) {
        let ab = obb_iou(&a, &b);
        let ba = obb_iou(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-7);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&ab));
    }

    #[test]
    fn iou_self_is_one(a in any_box()) {
        prop_assert!((obb_iou(&a, &a) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn box_transform_preserves_iou(a in any_box(), b in any_box(), t in any_iso2()) {
        let before = obb_iou(&a, &b);
        let after = obb_iou(&a.transformed(&t), &b.transformed(&t));
        prop_assert!((before - after).abs() < 1e-6);
    }

    #[test]
    fn canonical_corners_flip_invariant(a in any_box()) {
        let flipped = BevBox::new(a.center, a.extents, a.yaw + PI);
        let ca = a.canonical_corners();
        let cb = flipped.canonical_corners();
        for (p, q) in ca.iter().zip(cb.iter()) {
            prop_assert!((*p - *q).norm() < 1e-9);
        }
    }

    #[test]
    fn rigid_fit_recovers_exact_transform(
        t in any_iso2(),
        pts in proptest::collection::vec(any_vec2(), 3..20),
    ) {
        // Require a non-degenerate spread.
        let spread: f64 = {
            let mean = pts.iter().fold(Vec2::ZERO, |a, &b| a + b) / pts.len() as f64;
            pts.iter().map(|p| (*p - mean).norm_sq()).sum()
        };
        prop_assume!(spread > 1e-6);
        let dst: Vec<Vec2> = pts.iter().map(|&p| t.apply(p)).collect();
        let fit = fit_rigid_2d(&pts, &dst).unwrap();
        prop_assert!(fit.approx_eq(&t, 1e-6, 1e-6));
    }
}
