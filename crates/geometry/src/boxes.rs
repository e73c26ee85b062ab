//! Oriented bounding boxes: 3-D object boxes and their BEV projections.
//!
//! Stage 2 of BB-Align matches *corresponding corners* of overlapping boxes
//! detected by the two cars. The paper notes that corners are "stored as a
//! sequence of points, consistently ordered in accordance with the 3-D
//! Cartesian world coordinate system" so that corner pairing is unambiguous.
//! [`BevBox::canonical_corners`] implements that contract: the box yaw is
//! first canonicalised into `[-π/2, π/2)` (a rectangle is invariant under
//! 180° flips) and corners are then emitted in a fixed box-frame order, which
//! makes the ordering agree between two detections of the same physical
//! object regardless of the side it was observed from.

use crate::angle::normalize_angle;
use crate::iso::Iso2;
use crate::vec::{Vec2, Vec3};
use serde::{Deserialize, Serialize};
use std::f64::consts::{FRAC_PI_2, PI};

/// An oriented rectangle on the ground plane (a bird's-eye-view box).
///
/// # Example
///
/// ```
/// use bba_geometry::{BevBox, Vec2};
/// let b = BevBox::new(Vec2::new(10.0, 5.0), Vec2::new(4.6, 1.9), 0.0);
/// assert!((b.area() - 4.6 * 1.9).abs() < 1e-12);
/// assert!(b.contains(Vec2::new(11.0, 5.5)));
/// assert!(!b.contains(Vec2::new(20.0, 5.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BevBox {
    /// Centre of the rectangle (metres).
    pub center: Vec2,
    /// Full extents: `(length, width)` along the box's local x/y axes.
    pub extents: Vec2,
    /// Heading of the local x axis, radians in `(-π, π]`.
    pub yaw: f64,
}

impl BevBox {
    /// Creates a box from centre, full `(length, width)` extents and yaw.
    ///
    /// # Panics
    ///
    /// Panics if either extent is not strictly positive and finite.
    pub fn new(center: Vec2, extents: Vec2, yaw: f64) -> Self {
        assert!(
            extents.x > 0.0 && extents.y > 0.0 && extents.is_finite(),
            "box extents must be positive and finite, got {extents:?}"
        );
        BevBox { center, extents, yaw: normalize_angle(yaw) }
    }

    /// Rectangle area in m².
    #[inline]
    pub fn area(&self) -> f64 {
        self.extents.x * self.extents.y
    }

    /// Half-diagonal length — radius of the circumscribed circle.
    #[inline]
    pub fn circumradius(&self) -> f64 {
        0.5 * self.extents.norm()
    }

    /// The four corners in counter-clockwise order starting at the box-frame
    /// `(+x, +y)` corner, **without** yaw canonicalisation.
    pub fn corners(&self) -> [Vec2; 4] {
        self.corners_for_yaw(self.yaw)
    }

    /// The four corners in the *canonical* consistent ordering used for
    /// stage-2 corner pairing (see module docs).
    ///
    /// Two noise-free detections of the same physical rectangle always yield
    /// the same point sequence from this method, regardless of whether the
    /// detectors reported headings that differ by 180°.
    pub fn canonical_corners(&self) -> [Vec2; 4] {
        self.corners_for_yaw(canonical_yaw(self.yaw))
    }

    fn corners_for_yaw(&self, yaw: f64) -> [Vec2; 4] {
        let hx = 0.5 * self.extents.x;
        let hy = 0.5 * self.extents.y;
        let local =
            [Vec2::new(hx, hy), Vec2::new(-hx, hy), Vec2::new(-hx, -hy), Vec2::new(hx, -hy)];
        let t = Iso2::new(yaw, self.center);
        [t.apply(local[0]), t.apply(local[1]), t.apply(local[2]), t.apply(local[3])]
    }

    /// True when the point lies inside (or on the boundary of) the box.
    pub fn contains(&self, p: Vec2) -> bool {
        let local = (p - self.center).rotated(-self.yaw);
        local.x.abs() <= 0.5 * self.extents.x + 1e-12
            && local.y.abs() <= 0.5 * self.extents.y + 1e-12
    }

    /// The box transformed rigidly by `t`.
    pub fn transformed(&self, t: &Iso2) -> BevBox {
        BevBox {
            center: t.apply(self.center),
            extents: self.extents,
            yaw: normalize_angle(self.yaw + t.yaw()),
        }
    }

    /// Intersection-over-union with another box (see [`crate::polygon`]).
    pub fn iou(&self, other: &BevBox) -> f64 {
        crate::polygon::obb_iou(self, other)
    }
}

/// Canonicalises a rectangle yaw into `[-π/2, π/2)` (mod π).
pub fn canonical_yaw(yaw: f64) -> f64 {
    let mut y = normalize_angle(yaw);
    if y >= FRAC_PI_2 {
        y -= PI;
    } else if y < -FRAC_PI_2 {
        y += PI;
    }
    y
}

/// A 3-D oriented box: a BEV footprint plus a vertical slab.
///
/// Object detectors in this reproduction output `Box3`es; stage 2 of
/// BB-Align only needs the projected [`BevBox`], per the paper's
/// simplification "projecting these bounding boxes as the bird's-eye view
/// 2-D rectangles".
///
/// # Example
///
/// ```
/// use bba_geometry::{Box3, Vec2, Vec3};
/// let car = Box3::new(Vec3::new(4.0, 2.0, 0.8), Vec3::new(4.5, 1.9, 1.6), 0.1);
/// let bev = car.to_bev();
/// assert_eq!(bev.center, Vec2::new(4.0, 2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Box3 {
    /// Centre of the box (metres); `center.z` is the mid-height.
    pub center: Vec3,
    /// Full extents `(length, width, height)`.
    pub extents: Vec3,
    /// Heading about the z axis, radians.
    pub yaw: f64,
}

impl Box3 {
    /// Creates a 3-D box.
    ///
    /// # Panics
    ///
    /// Panics if any extent is not strictly positive and finite.
    pub fn new(center: Vec3, extents: Vec3, yaw: f64) -> Self {
        assert!(
            extents.x > 0.0 && extents.y > 0.0 && extents.z > 0.0 && extents.is_finite(),
            "box extents must be positive and finite, got {extents:?}"
        );
        Box3 { center, extents, yaw: normalize_angle(yaw) }
    }

    /// Ground-plane projection.
    pub fn to_bev(&self) -> BevBox {
        BevBox::new(self.center.xy(), Vec2::new(self.extents.x, self.extents.y), self.yaw)
    }

    /// Bottom and top z of the slab.
    pub fn z_range(&self) -> (f64, f64) {
        let h = 0.5 * self.extents.z;
        (self.center.z - h, self.center.z + h)
    }

    /// True when the 3-D point is inside the box.
    pub fn contains(&self, p: Vec3) -> bool {
        let (z0, z1) = self.z_range();
        p.z >= z0 - 1e-12 && p.z <= z1 + 1e-12 && self.to_bev().contains(p.xy())
    }

    /// The box transformed rigidly by the ground-plane transform `t`
    /// (z is unchanged — the V2V ground-vehicle assumption).
    pub fn transformed(&self, t: &Iso2) -> Box3 {
        let c2 = t.apply(self.center.xy());
        Box3 {
            center: Vec3::from_xy(c2, self.center.z),
            extents: self.extents,
            yaw: normalize_angle(self.yaw + t.yaw()),
        }
    }

    /// BEV intersection-over-union with another 3-D box (ignores z overlap,
    /// matching the BEV AP evaluation protocol used in the paper's Table I).
    pub fn bev_iou(&self, other: &Box3) -> f64 {
        self.to_bev().iou(&other.to_bev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: Vec2, b: Vec2) -> bool {
        (a - b).norm() < 1e-9
    }

    #[test]
    fn corners_are_ccw_and_centered() {
        let b = BevBox::new(Vec2::new(1.0, 2.0), Vec2::new(4.0, 2.0), 0.0);
        let cs = b.corners();
        assert!(approx(cs[0], Vec2::new(3.0, 3.0)));
        assert!(approx(cs[1], Vec2::new(-1.0, 3.0)));
        assert!(approx(cs[2], Vec2::new(-1.0, 1.0)));
        assert!(approx(cs[3], Vec2::new(3.0, 1.0)));
        // Centroid equals centre.
        let centroid = (cs[0] + cs[1] + cs[2] + cs[3]) / 4.0;
        assert!(approx(centroid, b.center));
        // CCW: positive signed area.
        let area2: f64 = (0..4).map(|i| cs[i].cross(cs[(i + 1) % 4])).sum();
        assert!(area2 > 0.0);
    }

    #[test]
    fn canonical_corners_invariant_under_flip() {
        let a = BevBox::new(Vec2::new(5.0, -3.0), Vec2::new(4.6, 1.9), 0.4);
        let flipped = BevBox::new(a.center, a.extents, a.yaw + PI);
        let ca = a.canonical_corners();
        let cb = flipped.canonical_corners();
        for (p, q) in ca.iter().zip(cb.iter()) {
            assert!(approx(*p, *q), "{p:?} vs {q:?}");
        }
    }

    #[test]
    fn canonical_yaw_range() {
        for k in -8..8 {
            let y = canonical_yaw(k as f64 * 0.7);
            assert!((-FRAC_PI_2..FRAC_PI_2).contains(&y), "{y}");
        }
        // A canonical yaw differs from the input by a multiple of π.
        let y = 2.5;
        let c = canonical_yaw(y);
        let d = (y - c) / PI;
        assert!((d - d.round()).abs() < 1e-12);
    }

    #[test]
    fn contains_respects_rotation() {
        let b = BevBox::new(Vec2::ZERO, Vec2::new(4.0, 2.0), FRAC_PI_2);
        // After a 90° rotation the long axis is along y.
        assert!(b.contains(Vec2::new(0.0, 1.9)));
        assert!(!b.contains(Vec2::new(1.9, 0.0)));
    }

    #[test]
    fn transform_then_corners_commutes() {
        let b = BevBox::new(Vec2::new(2.0, 1.0), Vec2::new(4.0, 2.0), 0.3);
        let t = Iso2::new(1.2, Vec2::new(-5.0, 7.0));
        let via_box = b.transformed(&t).corners();
        let via_pts = b.corners().map(|c| t.apply(c));
        for (p, q) in via_box.iter().zip(via_pts.iter()) {
            assert!(approx(*p, *q));
        }
    }

    #[test]
    #[should_panic(expected = "extents must be positive")]
    fn zero_extent_panics() {
        let _ = BevBox::new(Vec2::ZERO, Vec2::new(0.0, 1.0), 0.0);
    }

    #[test]
    fn box3_projection_and_contains() {
        let b = Box3::new(Vec3::new(0.0, 0.0, 1.0), Vec3::new(4.0, 2.0, 2.0), 0.0);
        assert!(b.contains(Vec3::new(1.0, 0.5, 1.5)));
        assert!(!b.contains(Vec3::new(1.0, 0.5, 2.5)));
        assert_eq!(b.z_range(), (0.0, 2.0));
    }

    #[test]
    fn box3_transform_preserves_z() {
        let b = Box3::new(Vec3::new(1.0, 2.0, 0.9), Vec3::new(4.0, 2.0, 1.8), 0.0);
        let t = Iso2::new(0.5, Vec2::new(10.0, -10.0));
        let tb = b.transformed(&t);
        assert_eq!(tb.center.z, 0.9);
        assert!(approx(tb.center.xy(), t.apply(b.center.xy())));
    }

    #[test]
    fn identical_boxes_have_unit_iou() {
        let b = BevBox::new(Vec2::new(3.0, 3.0), Vec2::new(4.5, 1.8), 0.3);
        assert!((b.iou(&b) - 1.0).abs() < 1e-9);
    }
}
