//! **BB-Align**: training-free two-stage pose recovery for V2V cooperative
//! perception (Song et al., ICDCS 2024).
//!
//! When two vehicles share perception data, the receiver must transform the
//! sender's data into its own frame using the relative pose — which GPS
//! failures, measurement noise or transmission errors can corrupt
//! arbitrarily. BB-Align recovers the 3-DoF relative pose `(α, t_x, t_y)`
//! from the shared data itself, with no learned model and no prior pose:
//!
//! 1. **Stage 1 — BV image matching** ([`BbAlign::match_bv`]): both cars
//!    rasterise their LiDAR scans into bird's-eye-view height maps
//!    (`bba-bev`); a Log-Gabor Maximum Index Map (`bba-signal`) makes the
//!    sparse images matchable; FAST keypoints + BVFT descriptors +
//!    RANSAC (`bba-features`) produce a coarse alignment `T_bv` with an
//!    inlier count `Inliers_bv`.
//! 2. **Stage 2 — bounding-box alignment** ([`BbAlign::align_boxes`]): the
//!    sender's detected boxes, transformed by `T_bv`, are paired with the
//!    receiver's overlapping boxes; corresponding canonical corners feed a
//!    second RANSAC producing the refinement `T_box` (with `Inliers_box`)
//!    that cancels self-motion-distortion residuals.
//!
//! The recovered transform is `T_2D = T_box × T_bv` (Algorithm 1), lifted
//! to the paper's 4×4 homogeneous matrix via [`bba_geometry::Iso3`].
//!
//! The paper's empirical success criterion — `Inliers_bv > 25` and
//! `Inliers_box > 6` — is exposed as [`Recovery::is_success`].
//!
//! # Example
//!
//! ```no_run
//! use bb_align::{BbAlign, BbAlignConfig, PerceptionFrame};
//! use bba_dataset::{Dataset, DatasetConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut dataset = Dataset::new(DatasetConfig::standard(), 7);
//! let pair = dataset.next_pair().unwrap();
//!
//! let aligner = BbAlign::new(BbAlignConfig::default());
//! // Each car builds its transmissible frame: a BV image + BEV boxes.
//! // The framework is detector-agnostic: it takes raw points and
//! // (box, confidence) pairs from whatever detector the car runs.
//! let ego = aligner.frame_from_parts(
//!     pair.ego.scan.points().iter().map(|p| p.position),
//!     pair.ego.detections.iter().map(|d| (d.box3, d.confidence)),
//! );
//! let other = aligner.frame_from_parts(
//!     pair.other.scan.points().iter().map(|p| p.position),
//!     pair.other.detections.iter().map(|d| (d.box3, d.confidence)),
//! );
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let recovery = aligner.recover(&ego, &other, &mut rng)?;
//! let (t_err, r_err) = recovery.transform.error_to(&pair.true_relative);
//! println!("translation error {t_err:.2} m, rotation error {:.2}°", r_err.to_degrees());
//! # Ok::<(), bb_align::RecoverError>(())
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod frame;
mod pool;
pub mod recover;
pub mod tracking;
pub mod wire;

pub use config::{BbAlignConfig, BoxPairing, KeypointSource};
pub use frame::PerceptionFrame;
pub use recover::{
    BbAlign, BoxAlignment, BvMatch, RecoverError, Recovery, RecoveryPath, RecoveryRequest,
    WarmRecovery,
};
pub use tracking::PoseTracker;
pub use wire::{decode_frame, encode_frame, DecodeError, WireReport};
