//! Plain 2-D and 3-D Cartesian vectors.
//!
//! These are deliberately minimal value types (no SIMD, no generics): the
//! simulator and the matching pipeline only need a handful of operations and
//! the explicit field access keeps the numeric code readable.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2-D vector / point on the ground (bird's-eye-view) plane.
///
/// # Example
///
/// ```
/// use bba_geometry::Vec2;
/// let v = Vec2::new(3.0, 4.0);
/// assert_eq!(v.norm(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// Cartesian x (forward in the ego frame, metres).
    pub x: f64,
    /// Cartesian y (left in the ego frame, metres).
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Unit vector at `angle` radians from the +x axis.
    ///
    /// ```
    /// use bba_geometry::Vec2;
    /// let v = Vec2::from_angle(std::f64::consts::FRAC_PI_2);
    /// assert!((v - Vec2::new(0.0, 1.0)).norm() < 1e-12);
    /// ```
    #[inline]
    pub fn from_angle(angle: f64) -> Self {
        Vec2::new(angle.cos(), angle.sin())
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec2) -> f64 {
        self.x * rhs.x + self.y * rhs.y
    }

    /// 2-D cross product (the z component of the 3-D cross product).
    #[inline]
    pub fn cross(self, rhs: Vec2) -> f64 {
        self.x * rhs.y - self.y * rhs.x
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean norm (cheaper than [`Vec2::norm`]).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, rhs: Vec2) -> f64 {
        (self - rhs).norm()
    }

    /// The angle of the vector from the +x axis, in `(-π, π]`.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Returns the vector scaled to unit length, or `None` for (near-)zero
    /// vectors.
    pub fn normalized(self) -> Option<Vec2> {
        let n = self.norm();
        if n < 1e-300 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Rotates the vector by `angle` radians counter-clockwise.
    #[inline]
    pub fn rotated(self, angle: f64) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x.min(rhs.x), self.y.min(rhs.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x.max(rhs.x), self.y.max(rhs.y))
    }

    /// Linear interpolation: `self` at `t = 0`, `rhs` at `t = 1`.
    #[inline]
    pub fn lerp(self, rhs: Vec2, t: f64) -> Vec2 {
        self + (rhs - self) * t
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl From<(f64, f64)> for Vec2 {
    fn from((x, y): (f64, f64)) -> Self {
        Vec2::new(x, y)
    }
}

impl From<Vec2> for (f64, f64) {
    fn from(v: Vec2) -> Self {
        (v.x, v.y)
    }
}

/// A 3-D vector / point (metres).
///
/// # Example
///
/// ```
/// use bba_geometry::Vec3;
/// let p = Vec3::new(1.0, 2.0, 3.0);
/// assert_eq!(p.xy().x, 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// Cartesian x (metres).
    pub x: f64,
    /// Cartesian y (metres).
    pub y: f64,
    /// Cartesian z / height (metres).
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Ground-plane projection, dropping z.
    #[inline]
    pub fn xy(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }

    /// Lifts a ground-plane point to 3-D at height `z`.
    #[inline]
    pub fn from_xy(v: Vec2, z: f64) -> Vec3 {
        Vec3::new(v.x, v.y, z)
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, rhs: Vec3) -> f64 {
        (self - rhs).norm()
    }

    /// Returns the vector scaled to unit length, or `None` for (near-)zero
    /// vectors.
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-300 {
            None
        } else {
            Some(self / n)
        }
    }

    /// True when all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl From<(f64, f64, f64)> for Vec3 {
    fn from((x, y, z): (f64, f64, f64)) -> Self {
        Vec3::new(x, y, z)
    }
}

impl From<Vec3> for (f64, f64, f64) {
    fn from(v: Vec3) -> Self {
        (v.x, v.y, v.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn vec2_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Vec2::new(1.5, -0.5));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn vec2_dot_cross() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
    }

    #[test]
    fn vec2_rotation_quarter_turn() {
        let v = Vec2::new(1.0, 0.0).rotated(FRAC_PI_2);
        assert!((v - Vec2::new(0.0, 1.0)).norm() < 1e-12);
        let w = Vec2::new(1.0, 0.0).rotated(PI);
        assert!((w - Vec2::new(-1.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn vec2_angle_roundtrip() {
        for k in -6..=6 {
            let a = k as f64 * 0.5;
            let wrapped = Vec2::from_angle(a).angle();
            let diff = (wrapped - a).rem_euclid(2.0 * PI);
            let diff = diff.min(2.0 * PI - diff);
            assert!(diff < 1e-12, "angle {a} wrapped to {wrapped}");
        }
    }

    #[test]
    fn vec2_normalized_zero_is_none() {
        assert!(Vec2::ZERO.normalized().is_none());
        let n = Vec2::new(3.0, 4.0).normalized().unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vec2_lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(1.0, 2.0));
    }

    #[test]
    fn vec3_cross_right_handed() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(x.cross(y), Vec3::new(0.0, 0.0, 1.0));
    }

    #[test]
    fn vec3_projection_and_lift() {
        let p = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(p.xy(), Vec2::new(1.0, 2.0));
        assert_eq!(Vec3::from_xy(p.xy(), 5.0), Vec3::new(1.0, 2.0, 5.0));
    }

    #[test]
    fn vec3_norm_pythagoras() {
        assert!((Vec3::new(2.0, 3.0, 6.0).norm() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn tuple_conversions() {
        let v: Vec2 = (1.0, 2.0).into();
        let t: (f64, f64) = v.into();
        assert_eq!(t, (1.0, 2.0));
        let w: Vec3 = (1.0, 2.0, 3.0).into();
        let u: (f64, f64, f64) = w.into();
        assert_eq!(u, (1.0, 2.0, 3.0));
    }
}
