//! Temporal pose tracking across frames — the deployment layer above
//! per-frame recovery.
//!
//! The paper recovers the relative pose independently per frame and lists
//! time efficiency as future work. In a deployed V2V stack, consecutive
//! frames are strongly correlated: the relative pose evolves smoothly with
//! the two cars' motion. [`PoseTracker`] exploits that with a
//! constant-velocity α–β filter on `(x, y, yaw)`:
//!
//! * per-frame recoveries are blended in with a gain that grows with their
//!   inlier confidence;
//! * measurements wildly inconsistent with the prediction are *gated out*
//!   (a single aliased stage-1 match cannot hijack the track), but
//!   repeated consistent outliers force a reset (the track, not the
//!   measurement, was wrong — e.g. after a lane change of either car);
//! * between measurements the tracker extrapolates, so fusion can run at
//!   sensor rate while recovery runs at a lower duty cycle — directly
//!   addressing the paper's future-work point;
//! * alongside the pose it carries a scalar positional uncertainty `σ`
//!   that shrinks when confident measurements fuse and grows with
//!   extrapolation age, so callers can ask for a *warm* prediction
//!   ([`PoseTracker::warm_prediction`]) that is only returned while the
//!   track is still trustworthy — the gate behind
//!   `BbAlign::recover_warm`'s skip-stage-1 fast path.

use crate::recover::Recovery;
use bba_geometry::{angle_diff, normalize_angle, Iso2, Vec2};
use serde::{Deserialize, Serialize};

/// Blend gain of a barely-confident measurement.
const MIN_GAIN: f64 = 0.25;
/// Blend gain at or above [`SATURATE_INLIERS`].
const MAX_GAIN: f64 = 0.85;
/// Inlier count (stage 1 + 2 × stage 2) at which the gain saturates.
const SATURATE_INLIERS: usize = 50;
/// Innovation gate: measurements farther than this from the prediction
/// (m) are gated out as outliers.
const GATE_TRANSLATION: f64 = 4.0;
/// Innovation gate on rotation disagreement (radians).
const GATE_ROTATION: f64 = 8f64.to_radians();
/// After this many consecutive gated measurements the track resets onto
/// the latest measurement.
const RESET_AFTER: usize = 3;
/// Velocity smoothing factor (0 = frozen velocity, 1 = instantaneous).
const VELOCITY_GAIN: f64 = 0.3;
/// Positional 1-σ uncertainty (m) right after initialisation or a reset,
/// before any further measurement has confirmed the state.
const INIT_SIGMA: f64 = 1.0;
/// Positional 1-σ (m) of a fully-confident measurement (at or above
/// [`SATURATE_INLIERS`]); weaker measurements count proportionally less.
const MEASUREMENT_SIGMA: f64 = 0.5;
/// Uncertainty growth rate while extrapolating (m of σ per second):
/// prediction quality decays with extrapolation age.
pub const PROCESS_NOISE: f64 = 0.8;
/// Warm-start gate: [`PoseTracker::warm_prediction`] returns `None` once
/// the predicted σ exceeds this (m) — a stale track must fall back to cold
/// recovery instead of proposing its pose.
pub const MAX_PREDICTION_SIGMA: f64 = 2.5;

const fn is_fraction(x: f64) -> bool {
    0.0 <= x && x <= 1.0
}

const fn is_positive(x: f64) -> bool {
    x > 0.0 && x.is_finite()
}

// What the arithmetic below relies on, checked when the crate compiles:
// gains are blend fractions in order, and every gate, count, σ and noise
// rate is positive and finite (a zero `SATURATE_INLIERS` would divide by
// zero, a zero σ would make the fusion 0/0).
const _: () = assert!(is_fraction(MIN_GAIN) && is_fraction(MAX_GAIN) && MIN_GAIN <= MAX_GAIN);
const _: () = assert!(is_fraction(VELOCITY_GAIN));
const _: () = assert!(SATURATE_INLIERS > 0 && RESET_AFTER > 0);
const _: () = assert!(is_positive(GATE_TRANSLATION) && is_positive(GATE_ROTATION));
const _: () = assert!(is_positive(INIT_SIGMA) && is_positive(MEASUREMENT_SIGMA));
const _: () = assert!(is_positive(PROCESS_NOISE) && is_positive(MAX_PREDICTION_SIGMA));

/// Outcome of feeding one measurement to the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrackUpdate {
    /// First measurement: the track was initialised.
    Initialized,
    /// Measurement blended into the track.
    Fused,
    /// Measurement rejected by the innovation gate.
    Gated,
    /// Too many consecutive rejections: track reset onto the measurement.
    Reset,
    /// Measurement timestamp not after the newest state: rejected outright
    /// (a backwards `dt` cannot update a forward-time motion model).
    OutOfOrder,
}

/// A constant-velocity α–β tracker over the relative pose.
///
/// # Example
///
/// ```
/// use bb_align::tracking::PoseTracker;
/// use bba_geometry::{Iso2, Vec2};
///
/// let mut tracker = PoseTracker::new();
/// // The other car pulls ahead at 2 m/s.
/// for k in 0..8 {
///     let t = k as f64 * 0.5;
///     tracker.update_pose(t, &Iso2::new(0.0, Vec2::new(40.0 + 2.0 * t, 0.0)), 30);
/// }
/// // Predict half a second past the last measurement.
/// let p = tracker.predict(4.0).unwrap();
/// assert!((p.translation().x - 48.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PoseTracker {
    state: Option<TrackState>,
    gated_streak: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct TrackState {
    time: f64,
    translation: Vec2,
    yaw: f64,
    velocity: Vec2,
    yaw_rate: f64,
    /// Positional 1-σ uncertainty (m) of the state at `time`.
    sigma: f64,
}

impl PoseTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds a full per-frame [`Recovery`] (gain derives from its inlier
    /// counts).
    pub fn update(&mut self, time: f64, recovery: &Recovery) -> TrackUpdate {
        let confidence = recovery.inliers_bv() + 2 * recovery.inliers_box();
        self.update_pose(time, &recovery.transform, confidence)
    }

    /// Feeds a raw pose measurement with an explicit confidence (total
    /// inlier count).
    pub fn update_pose(&mut self, time: f64, measured: &Iso2, confidence: usize) -> TrackUpdate {
        let Some(prev) = self.state else {
            self.state = Some(TrackState {
                time,
                translation: measured.translation(),
                yaw: measured.yaw(),
                velocity: Vec2::ZERO,
                yaw_rate: 0.0,
                sigma: INIT_SIGMA,
            });
            self.gated_streak = 0;
            return TrackUpdate::Initialized;
        };

        // Non-monotonic timestamps are rejected, not clamped: dividing the
        // displacement by a floor like 1e-6 s would turn centimetres into
        // ~10⁴ m/s in `vel_meas` below and poison the velocity EMA. The
        // state (including the gated streak — an out-of-order stamp says
        // nothing about the world) is left untouched.
        if time <= prev.time {
            return TrackUpdate::OutOfOrder;
        }
        let dt = time - prev.time;
        let predicted_t = prev.translation + prev.velocity * dt;
        let predicted_yaw = prev.yaw + prev.yaw_rate * dt;
        // Uncertainty grows with the time advanced, whatever happens next.
        let sigma_pred = prev.sigma + PROCESS_NOISE * dt;

        // Innovation gate.
        let innov_t = measured.translation() - predicted_t;
        let innov_r = angle_diff(measured.yaw(), predicted_yaw);
        if innov_t.norm() > GATE_TRANSLATION || innov_r.abs() > GATE_ROTATION {
            self.gated_streak += 1;
            if self.gated_streak >= RESET_AFTER {
                self.state = Some(TrackState {
                    time,
                    translation: measured.translation(),
                    yaw: measured.yaw(),
                    velocity: Vec2::ZERO,
                    yaw_rate: 0.0,
                    sigma: INIT_SIGMA,
                });
                self.gated_streak = 0;
                return TrackUpdate::Reset;
            }
            // Keep coasting on the prediction; the gated measurement adds
            // no information, so only σ advances.
            self.state = Some(TrackState {
                time,
                translation: predicted_t,
                yaw: normalize_angle(predicted_yaw),
                sigma: sigma_pred,
                ..prev
            });
            return TrackUpdate::Gated;
        }
        self.gated_streak = 0;

        // Confidence-weighted blend.
        let frac = (confidence as f64 / SATURATE_INLIERS as f64).min(1.0);
        let gain = MIN_GAIN + (MAX_GAIN - MIN_GAIN) * frac;
        let new_t = predicted_t + innov_t * gain;
        let new_yaw = normalize_angle(predicted_yaw + innov_r * gain);

        // Velocity update from the *filtered* displacement.
        let vel_meas = (new_t - prev.translation) / dt;
        let yawrate_meas = angle_diff(new_yaw, prev.yaw) / dt;
        let velocity = prev.velocity.lerp(vel_meas, VELOCITY_GAIN);
        let yaw_rate = prev.yaw_rate + (yawrate_meas - prev.yaw_rate) * VELOCITY_GAIN;

        // Information-style fusion of the predicted σ with the measurement
        // σ (confident measurements count as tighter): the posterior
        // variance is the harmonic combination, so it always shrinks.
        let meas_sigma = MEASUREMENT_SIGMA * (2.0 - frac);
        let (vp, vm) = (sigma_pred * sigma_pred, meas_sigma * meas_sigma);
        let sigma = (vp * vm / (vp + vm)).sqrt();

        self.state =
            Some(TrackState { time, translation: new_t, yaw: new_yaw, velocity, yaw_rate, sigma });
        TrackUpdate::Fused
    }

    /// The filtered relative pose extrapolated to `time`, or `None` before
    /// initialisation. It never gates: callers that need a trustworthy
    /// track ask [`PoseTracker::warm_prediction`].
    pub fn predict(&self, time: f64) -> Option<Iso2> {
        let s = self.state?;
        let dt = time - s.time;
        Some(Iso2::new(s.yaw + s.yaw_rate * dt, s.translation + s.velocity * dt))
    }

    /// The extrapolated pose *when the track is still trustworthy enough
    /// to warm-start recovery*: `None` before initialisation, for
    /// backwards query times, and once the predicted σ (the state's σ plus
    /// [`PROCESS_NOISE`] per second of extrapolation) exceeds
    /// [`MAX_PREDICTION_SIGMA`] (a blown or long-extrapolated track must
    /// never propose a stale pose).
    pub fn warm_prediction(&self, time: f64) -> Option<Iso2> {
        let s = self.state?;
        let age = time - s.time;
        if age >= 0.0 && s.sigma + PROCESS_NOISE * age <= MAX_PREDICTION_SIGMA {
            self.predict(time)
        } else {
            None
        }
    }

    /// The estimated relative velocity (m/s) of the other car in the ego
    /// frame, or `None` before initialisation.
    pub fn relative_velocity(&self) -> Option<Vec2> {
        self.state.map(|s| s.velocity)
    }

    /// The positional 1-σ uncertainty (m) of the current state, or `None`
    /// before initialisation.
    pub fn position_sigma(&self) -> Option<f64> {
        self.state.map(|s| s.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_linear(
        tracker: &mut PoseTracker,
        n: usize,
        dt: f64,
        start: Vec2,
        velocity: Vec2,
        noise: impl Fn(usize) -> Vec2,
    ) {
        for k in 0..n {
            let t = k as f64 * dt;
            let truth = start + velocity * t;
            let measured = Iso2::new(0.0, truth + noise(k));
            tracker.update_pose(t, &measured, 40);
        }
    }

    #[test]
    fn smooths_noisy_measurements() {
        let mut tracker = PoseTracker::new();
        // Alternating ±0.5 m noise around a constant-velocity truth.
        feed_linear(&mut tracker, 20, 0.5, Vec2::new(40.0, 0.0), Vec2::new(2.0, 0.0), |k| {
            Vec2::new(0.5 * if k % 2 == 0 { 1.0 } else { -1.0 }, 0.0)
        });
        let t_end = 19.0 * 0.5;
        let truth = Vec2::new(40.0, 0.0) + Vec2::new(2.0, 0.0) * t_end;
        let filtered = tracker.predict(t_end).unwrap();
        let err = (filtered.translation() - truth).norm();
        assert!(err < 0.45, "filtered error {err} should beat the 0.5 m noise");
        // Velocity learned.
        let v = tracker.relative_velocity().unwrap();
        assert!((v.x - 2.0).abs() < 0.7, "velocity {v:?}");
    }

    #[test]
    fn extrapolates_between_measurements() {
        let mut tracker = PoseTracker::new();
        feed_linear(&mut tracker, 12, 0.5, Vec2::ZERO, Vec2::new(3.0, 1.0), |_| Vec2::ZERO);
        // Predict 1 s past the last measurement.
        let p = tracker.predict(5.5 + 1.0).unwrap();
        let truth = Vec2::new(3.0, 1.0) * 6.5;
        assert!((p.translation() - truth).norm() < 0.8, "{p}");
    }

    #[test]
    fn gates_single_outlier() {
        let mut tracker = PoseTracker::new();
        feed_linear(&mut tracker, 8, 0.5, Vec2::new(30.0, 0.0), Vec2::ZERO, |_| Vec2::ZERO);
        // One aliased recovery 40 m off.
        let verdict = tracker.update_pose(4.0, &Iso2::new(0.0, Vec2::new(70.0, 0.0)), 40);
        assert_eq!(verdict, TrackUpdate::Gated);
        let p = tracker.predict(4.0).unwrap();
        assert!((p.translation() - Vec2::new(30.0, 0.0)).norm() < 1.0, "track hijacked: {p}");
    }

    #[test]
    fn repeated_consistent_outliers_force_reset() {
        let mut tracker = PoseTracker::new();
        feed_linear(&mut tracker, 5, 0.5, Vec2::new(30.0, 0.0), Vec2::ZERO, |_| Vec2::ZERO);
        // The world changed: measurements now consistently at 50 m.
        let mut last = TrackUpdate::Fused;
        for k in 0..3 {
            last = tracker.update_pose(
                2.5 + k as f64 * 0.5,
                &Iso2::new(0.0, Vec2::new(50.0, 0.0)),
                40,
            );
        }
        assert_eq!(last, TrackUpdate::Reset);
        let p = tracker.predict(4.0).unwrap();
        assert!((p.translation() - Vec2::new(50.0, 0.0)).norm() < 1.0);
    }

    #[test]
    fn confidence_controls_gain() {
        let run = |confidence: usize| {
            let mut tracker = PoseTracker::new();
            tracker.update_pose(0.0, &Iso2::new(0.0, Vec2::new(10.0, 0.0)), 40);
            tracker.update_pose(0.5, &Iso2::new(0.0, Vec2::new(12.0, 0.0)), confidence);
            tracker.predict(0.5).unwrap().translation().x
        };
        let weak = run(1);
        let strong = run(100);
        // A strong measurement pulls the state closer to 12.
        assert!(strong > weak, "strong {strong} vs weak {weak}");
        assert!(strong > 11.5 && weak < 11.5);
    }

    #[test]
    fn yaw_wraps_correctly_at_pi() {
        let mut tracker = PoseTracker::new();
        let near_pi = std::f64::consts::PI - 0.01;
        tracker.update_pose(0.0, &Iso2::new(near_pi, Vec2::new(20.0, 0.0)), 40);
        tracker.update_pose(0.5, &Iso2::new(-near_pi, Vec2::new(20.0, 0.0)), 40);
        let p = tracker.predict(0.5).unwrap();
        // Filtered yaw stays near ±π, not near 0.
        assert!(p.yaw().abs() > 3.0, "yaw blended across the seam: {}", p.yaw());
    }

    /// Regression: a backwards timestamp used to be clamped to `dt = 1e-6`,
    /// turning a 5 cm displacement into a ~5·10⁴ m/s velocity measurement
    /// that the EMA then blended into the track.
    #[test]
    fn backwards_timestamp_is_rejected_not_clamped() {
        let mut tracker = PoseTracker::new();
        tracker.update_pose(0.0, &Iso2::new(0.0, Vec2::new(10.0, 0.0)), 40);
        tracker.update_pose(1.0, &Iso2::new(0.0, Vec2::new(10.5, 0.0)), 40);
        let v_before = tracker.relative_velocity().unwrap();
        let p_before = tracker.predict(2.0).unwrap();

        // 5 cm of displacement, half a second *backwards*.
        let verdict = tracker.update_pose(0.5, &Iso2::new(0.0, Vec2::new(10.55, 0.0)), 40);
        assert_eq!(verdict, TrackUpdate::OutOfOrder);
        // The track is untouched: same velocity, same prediction.
        assert_eq!(tracker.relative_velocity().unwrap(), v_before);
        assert_eq!(tracker.predict(2.0).unwrap(), p_before);
        assert!(v_before.norm() < 1.0, "sanity: the track itself is slow");
    }

    #[test]
    fn repeated_timestamp_is_rejected() {
        let mut tracker = PoseTracker::new();
        tracker.update_pose(0.0, &Iso2::new(0.0, Vec2::new(10.0, 0.0)), 40);
        tracker.update_pose(1.0, &Iso2::new(0.0, Vec2::new(12.0, 0.0)), 40);
        let verdict = tracker.update_pose(1.0, &Iso2::new(0.0, Vec2::new(12.1, 0.0)), 40);
        assert_eq!(verdict, TrackUpdate::OutOfOrder);
        let v = tracker.relative_velocity().unwrap();
        assert!(v.norm() < 3.0, "zero-dt update must not fabricate velocity: {v:?}");
    }

    #[test]
    fn out_of_order_does_not_advance_the_gated_streak() {
        let mut tracker = PoseTracker::new();
        feed_linear(&mut tracker, 5, 0.5, Vec2::new(30.0, 0.0), Vec2::ZERO, |_| Vec2::ZERO);
        // RESET_AFTER - 1 gated outliers, separated by out-of-order noise:
        // the stale stamps must not tip the streak into a reset.
        for k in 0..RESET_AFTER - 1 {
            let t = 2.5 + k as f64 * 0.5;
            assert_eq!(
                tracker.update_pose(t, &Iso2::new(0.0, Vec2::new(60.0, 0.0)), 40),
                TrackUpdate::Gated
            );
            assert_eq!(
                tracker.update_pose(t - 10.0, &Iso2::new(0.0, Vec2::new(60.0, 0.0)), 40),
                TrackUpdate::OutOfOrder
            );
        }
        let p = tracker.predict(4.0).unwrap();
        assert!((p.translation() - Vec2::new(30.0, 0.0)).norm() < 1.0, "track hijacked: {p}");
    }

    #[test]
    fn uninitialized_tracker_has_no_prediction() {
        let tracker = PoseTracker::new();
        assert!(tracker.predict(0.0).is_none());
        assert!(tracker.warm_prediction(0.0).is_none());
        assert!(tracker.relative_velocity().is_none());
        assert!(tracker.position_sigma().is_none());
    }

    #[test]
    fn sigma_shrinks_with_fused_measurements_and_grows_while_coasting() {
        let mut tracker = PoseTracker::new();
        tracker.update_pose(0.0, &Iso2::new(0.0, Vec2::new(30.0, 0.0)), 50);
        assert_eq!(tracker.position_sigma().unwrap(), INIT_SIGMA);
        for k in 1..6 {
            tracker.update_pose(k as f64 * 0.1, &Iso2::new(0.0, Vec2::new(30.0, 0.0)), 50);
        }
        let settled = tracker.position_sigma().unwrap();
        assert!(settled < MEASUREMENT_SIGMA * 1.05, "σ should settle near meas σ: {settled}");
        // A gated outlier coasts: σ grows by PROCESS_NOISE · dt.
        let before = tracker.position_sigma().unwrap();
        tracker.update_pose(1.0, &Iso2::new(0.0, Vec2::new(80.0, 0.0)), 50);
        let after = tracker.position_sigma().unwrap();
        assert!((after - (before + PROCESS_NOISE * 0.5)).abs() < 1e-12, "{before} -> {after}");
    }

    #[test]
    fn warm_prediction_gates_out_stale_tracks() {
        let mut tracker = PoseTracker::new();
        for k in 0..6 {
            tracker.update_pose(k as f64 * 0.1, &Iso2::new(0.0, Vec2::new(30.0, 0.0)), 50);
        }
        // Fresh track: warm prediction available just after the last fuse.
        assert!(tracker.warm_prediction(0.6).is_some());
        // Backwards query times never warm-start.
        assert!(tracker.warm_prediction(0.3).is_none());
        // A dropout gap ages the track past the σ gate while the raw
        // prediction stays available for display-layer extrapolation.
        let sigma_now = tracker.position_sigma().unwrap();
        let gap = (MAX_PREDICTION_SIGMA - sigma_now) / PROCESS_NOISE + 0.1;
        let stale_t = 0.5 + gap;
        assert!(tracker.warm_prediction(stale_t).is_none(), "stale track must not warm-start");
        assert!(tracker.predict(stale_t).is_some());
    }

    #[test]
    fn reset_restores_init_sigma() {
        let mut tracker = PoseTracker::new();
        feed_linear(&mut tracker, 5, 0.5, Vec2::new(30.0, 0.0), Vec2::ZERO, |_| Vec2::ZERO);
        assert!(tracker.position_sigma().unwrap() < INIT_SIGMA);
        for k in 0..RESET_AFTER {
            tracker.update_pose(2.5 + k as f64 * 0.5, &Iso2::new(0.0, Vec2::new(60.0, 0.0)), 40);
        }
        assert_eq!(tracker.position_sigma().unwrap(), INIT_SIGMA);
    }
}
