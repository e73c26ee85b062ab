//! Rigid transforms: SE(2) on the ground plane and the paper's 3-D lift.
//!
//! BB-Align estimates a 3-degree-of-freedom transform `(α, t_x, t_y)` — an
//! [`Iso2`] — and lifts it to the 4×4 homogeneous matrix of the paper's
//! Eq. (1) with pitch, roll and `t_z` held at pre-defined constants
//! ([`Iso3::from_iso2`]).

use crate::angle::normalize_angle;
use crate::vec::{Vec2, Vec3};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A rigid transform on the ground plane: rotation by `yaw` followed by
/// `translation`.
///
/// This is the `(α, t_x, t_y)` triple of the paper. `apply` maps a point from
/// the *source* frame (the other car) into the *destination* frame (the ego
/// car).
///
/// # Example
///
/// ```
/// use bba_geometry::{Iso2, Vec2};
/// let t = Iso2::new(0.3, Vec2::new(1.0, 2.0));
/// let p = Vec2::new(5.0, -1.0);
/// let roundtrip = t.inverse().apply(t.apply(p));
/// assert!((roundtrip - p).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Iso2 {
    /// Rotation angle `α` in radians, wrapped to `(-π, π]`.
    yaw: f64,
    /// Translation `(t_x, t_y)` in metres.
    translation: Vec2,
}

impl Iso2 {
    /// The identity transform.
    pub const IDENTITY: Iso2 = Iso2 { yaw: 0.0, translation: Vec2::ZERO };

    /// Creates a transform from rotation `yaw` (radians) and `translation`.
    pub fn new(yaw: f64, translation: Vec2) -> Self {
        Iso2 { yaw: normalize_angle(yaw), translation }
    }

    /// Creates a pure translation.
    pub fn from_translation(translation: Vec2) -> Self {
        Iso2 { yaw: 0.0, translation }
    }

    /// A vehicle pose: position + heading. Identical representation, reads
    /// better at call sites that deal in world poses.
    pub fn from_pose(position: Vec2, heading: f64) -> Self {
        Iso2::new(heading, position)
    }

    /// Rotation angle `α` in radians, in `(-π, π]`.
    #[inline]
    pub fn yaw(&self) -> f64 {
        self.yaw
    }

    /// Translation `(t_x, t_y)` in metres.
    #[inline]
    pub fn translation(&self) -> Vec2 {
        self.translation
    }

    /// Applies the transform to a point: `R(yaw)·p + t`.
    #[inline]
    pub fn apply(&self, p: Vec2) -> Vec2 {
        p.rotated(self.yaw) + self.translation
    }

    /// Composition: `self ∘ rhs` (apply `rhs` first, then `self`).
    ///
    /// This is the paper's `T_2D = T_box × T_bv` (Algorithm 1, line 15).
    pub fn compose(&self, rhs: &Iso2) -> Iso2 {
        Iso2::new(self.yaw + rhs.yaw, self.apply(rhs.translation))
    }

    /// The inverse transform.
    pub fn inverse(&self) -> Iso2 {
        let inv_yaw = -self.yaw;
        Iso2::new(inv_yaw, (-self.translation).rotated(inv_yaw))
    }

    /// The relative transform mapping points in the `other` frame to this
    /// ("ego") frame, when both are poses expressed in a common world frame.
    ///
    /// This is the ground truth the estimators are compared against:
    /// `T_other→ego = T_ego⁻¹ ∘ T_other`.
    pub fn relative_from(&self, other: &Iso2) -> Iso2 {
        self.inverse().compose(other)
    }

    /// Translation error (Euclidean, metres) and rotation error (absolute
    /// radians) of `self` w.r.t. a ground-truth transform.
    pub fn error_to(&self, truth: &Iso2) -> (f64, f64) {
        let dt = (self.translation - truth.translation).norm();
        let dr = crate::angle::angle_diff(self.yaw, truth.yaw).abs();
        (dt, dr)
    }

    /// True when the transform is close to `rhs` within the given tolerances.
    pub fn approx_eq(&self, rhs: &Iso2, trans_tol: f64, rot_tol: f64) -> bool {
        let (dt, dr) = self.error_to(rhs);
        dt <= trans_tol && dr <= rot_tol
    }
}

impl Default for Iso2 {
    fn default() -> Self {
        Iso2::IDENTITY
    }
}

impl fmt::Display for Iso2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Iso2(α={:.3}°, t=({:.3}, {:.3}) m)",
            self.yaw.to_degrees(),
            self.translation.x,
            self.translation.y
        )
    }
}

/// The 3-D homogeneous rigid transform of the paper's Eq. (1)–(2).
///
/// Stored as a full 4×4 row-major matrix so Eq. (3) — transforming received
/// perception points into the ego view — is a direct matrix product.
///
/// # Example
///
/// ```
/// use bba_geometry::{Iso2, Iso3, Vec2, Vec3};
/// let t2 = Iso2::new(0.5, Vec2::new(3.0, -2.0));
/// let t3 = Iso3::from_iso2(&t2, 0.0);
/// let p = Vec3::new(1.0, 1.0, 0.7);
/// // The ground-plane part agrees with the 2-D transform; z is preserved.
/// let q = t3.apply(p);
/// assert!((q.xy() - t2.apply(p.xy())).norm() < 1e-12);
/// assert!((q.z - 0.7).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Iso3 {
    m: [[f64; 4]; 4],
}

impl Iso3 {
    /// The identity transform.
    pub const IDENTITY: Iso3 = Iso3 {
        m: [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
    };

    /// Builds the full Euler-angle transform of Eq. (1)–(2) with yaw `α`,
    /// pitch `β`, roll `γ` and translation `(t_x, t_y, t_z)`.
    pub fn from_euler(alpha: f64, beta: f64, gamma: f64, t: Vec3) -> Iso3 {
        let (sa, ca) = alpha.sin_cos();
        let (sb, cb) = beta.sin_cos();
        let (sg, cg) = gamma.sin_cos();
        // Rotation matrix of the paper's Eq. (2): R_z(α)·R_y(β)·R_x(γ).
        let m = [
            [ca * cb, ca * sb * sg - sa * cg, sa * sg + ca * sb * cg, t.x],
            [sa * cb, sa * sb * sg + ca * cg, cg * sa * sb - ca * sg, t.y],
            [-sb, cb * sg, cb * cg, t.z],
            [0.0, 0.0, 0.0, 1.0],
        ];
        Iso3 { m }
    }

    /// Lifts a 2-D recovered transform to 3-D with pitch = roll = 0 and the
    /// supplied constant `t_z` (the paper's "pre-defined constant values").
    pub fn from_iso2(t: &Iso2, t_z: f64) -> Iso3 {
        Iso3::from_euler(t.yaw(), 0.0, 0.0, Vec3::from_xy(t.translation(), t_z))
    }

    /// The row-major 4×4 matrix.
    pub fn matrix(&self) -> &[[f64; 4]; 4] {
        &self.m
    }

    /// Applies the transform to a point — the paper's Eq. (3).
    #[inline]
    pub fn apply(&self, p: Vec3) -> Vec3 {
        let m = &self.m;
        Vec3::new(
            m[0][0] * p.x + m[0][1] * p.y + m[0][2] * p.z + m[0][3],
            m[1][0] * p.x + m[1][1] * p.y + m[1][2] * p.z + m[1][3],
            m[2][0] * p.x + m[2][1] * p.y + m[2][2] * p.z + m[2][3],
        )
    }

    /// Composition: `self ∘ rhs` (apply `rhs` first).
    pub fn compose(&self, rhs: &Iso3) -> Iso3 {
        let mut out = [[0.0; 4]; 4];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (0..4).map(|k| self.m[i][k] * rhs.m[k][j]).sum();
            }
        }
        Iso3 { m: out }
    }

    /// The inverse of a rigid transform (transpose of the rotation block).
    pub fn inverse(&self) -> Iso3 {
        let r = &self.m;
        let mut out = [[0.0; 4]; 4];
        // Rᵀ
        for i in 0..3 {
            for j in 0..3 {
                out[i][j] = r[j][i];
            }
        }
        // -Rᵀ·t
        for i in 0..3 {
            out[i][3] = -(0..3).map(|k| r[k][i] * r[k][3]).sum::<f64>();
        }
        out[3][3] = 1.0;
        Iso3 { m: out }
    }
}

impl Default for Iso3 {
    fn default() -> Self {
        Iso3::IDENTITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn identity_is_noop() {
        let p = Vec2::new(3.0, -4.0);
        assert_eq!(Iso2::IDENTITY.apply(p), p);
    }

    #[test]
    fn apply_rotates_then_translates() {
        let t = Iso2::new(FRAC_PI_2, Vec2::new(10.0, 0.0));
        let q = t.apply(Vec2::new(1.0, 0.0));
        assert!((q - Vec2::new(10.0, 1.0)).norm() < 1e-12);
    }

    #[test]
    fn compose_matches_sequential_apply() {
        let a = Iso2::new(0.4, Vec2::new(1.0, 2.0));
        let b = Iso2::new(-1.1, Vec2::new(-3.0, 0.5));
        let p = Vec2::new(0.7, -0.2);
        let lhs = a.compose(&b).apply(p);
        let rhs = a.apply(b.apply(p));
        assert!((lhs - rhs).norm() < 1e-12);
    }

    #[test]
    fn inverse_roundtrip() {
        let t = Iso2::new(2.3, Vec2::new(-7.0, 4.2));
        let id = t.compose(&t.inverse());
        assert!(id.approx_eq(&Iso2::IDENTITY, 1e-12, 1e-12));
    }

    #[test]
    fn relative_from_recovers_other_pose() {
        let ego = Iso2::from_pose(Vec2::new(100.0, 50.0), 0.3);
        let other = Iso2::from_pose(Vec2::new(130.0, 55.0), -0.2);
        let rel = ego.relative_from(&other);
        // A point expressed in the other car's frame maps to the same world
        // point whether we go other→world or other→ego→world.
        let p = Vec2::new(5.0, 1.0);
        let via_world = other.apply(p);
        let via_ego = ego.apply(rel.apply(p));
        assert!((via_world - via_ego).norm() < 1e-12);
    }

    #[test]
    fn error_metrics() {
        let truth = Iso2::new(0.0, Vec2::ZERO);
        let est = Iso2::new(0.1, Vec2::new(3.0, 4.0));
        let (dt, dr) = est.error_to(&truth);
        assert!((dt - 5.0).abs() < 1e-12);
        assert!((dr - 0.1).abs() < 1e-12);
    }

    #[test]
    fn error_wraps_at_pi() {
        let truth = Iso2::new(PI - 0.01, Vec2::ZERO);
        let est = Iso2::new(-(PI - 0.01), Vec2::ZERO);
        let (_, dr) = est.error_to(&truth);
        assert!(dr < 0.03, "rotation error should wrap, got {dr}");
    }

    #[test]
    fn iso3_matches_iso2_on_ground_plane() {
        let t2 = Iso2::new(1.1, Vec2::new(4.0, -6.0));
        let t3 = Iso3::from_iso2(&t2, 0.0);
        let p = Vec3::new(2.0, 3.0, 1.5);
        let q = t3.apply(p);
        assert!((q.xy() - t2.apply(p.xy())).norm() < 1e-12);
        assert!((q.z - p.z).abs() < 1e-12);
    }

    #[test]
    fn iso3_inverse_roundtrip() {
        let t = Iso3::from_euler(0.7, 0.1, -0.2, Vec3::new(1.0, 2.0, 3.0));
        let p = Vec3::new(-4.0, 0.5, 2.0);
        let q = t.inverse().apply(t.apply(p));
        assert!((q - p).norm() < 1e-10);
    }

    #[test]
    fn iso3_compose_matches_apply() {
        let a = Iso3::from_euler(0.2, 0.0, 0.0, Vec3::new(1.0, 0.0, 0.0));
        let b = Iso3::from_euler(-0.5, 0.0, 0.0, Vec3::new(0.0, 2.0, 0.0));
        let p = Vec3::new(1.0, 1.0, 1.0);
        let lhs = a.compose(&b).apply(p);
        let rhs = a.apply(b.apply(p));
        assert!((lhs - rhs).norm() < 1e-12);
    }

    #[test]
    fn euler_rotation_matrix_matches_paper_eq2() {
        // Spot-check Eq. (2) against independent axis rotations.
        let alpha = 0.3;
        let beta = 0.2;
        let gamma = -0.4;
        let t = Iso3::from_euler(alpha, beta, gamma, Vec3::ZERO);
        // R_z(α)·R_y(β)·R_x(γ) applied step by step.
        let rx = |p: Vec3| {
            let (s, c) = gamma.sin_cos();
            Vec3::new(p.x, c * p.y - s * p.z, s * p.y + c * p.z)
        };
        let ry = |p: Vec3| {
            let (s, c) = beta.sin_cos();
            Vec3::new(c * p.x + s * p.z, p.y, -s * p.x + c * p.z)
        };
        let rz = |p: Vec3| {
            let (s, c) = alpha.sin_cos();
            Vec3::new(c * p.x - s * p.y, s * p.x + c * p.y, p.z)
        };
        let p = Vec3::new(0.3, -1.2, 2.2);
        let expect = rz(ry(rx(p)));
        let got = t.apply(p);
        assert!((got - expect).norm() < 1e-12, "{got:?} vs {expect:?}");
    }
}
