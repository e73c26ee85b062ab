//! Feature detection, description, matching and robust 2-D registration —
//! the computer-vision toolbox behind BB-Align's stage 1 (and the RANSAC
//! shared by stage 2).
//!
//! The pipeline follows the paper's §IV-A:
//!
//! 1. [`detect_keypoints`] — a FAST-style segment-test corner detector with
//!    non-maximum suppression, run on the BV image.
//! 2. [`describe_keypoints`] — BVFT-style descriptors on the Maximum Index
//!    Map: a `J×J` patch around the keypoint is rotated to its dominant
//!    orientation (ORB-style rotation normalisation), subdivided into `l×l`
//!    grids, and each grid contributes an `N_o`-bin orientation histogram
//!    (`l·l·N_o` dimensions total).
//! 3. [`match_descriptors`] — brute-force nearest-neighbour matching with
//!    Lowe ratio test and optional mutual-consistency check. The production
//!    rotation-hypothesis sweep uses the [`sweep`] fast path instead:
//!    sample each patch once ([`PatchSamples`]), re-bin it per group of
//!    [`REBIN_GROUP`] hypotheses into flat [`DescriptorSet`]s, and match
//!    with the blocked dot-product kernel [`match_sets`] — bit-identical
//!    to the naive pipeline.
//! 4. [`ransac_rigid`] — RANSAC over 2-point samples fitting a rigid 2-D
//!    transform; the inlier count it returns is the paper's `Inliers_bv` /
//!    `Inliers_box` confidence signal.
//!
//! # Example
//!
//! ```
//! use bba_features::{ransac_rigid, RansacConfig};
//! use bba_geometry::{Iso2, Vec2};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let truth = Iso2::new(0.4, Vec2::new(2.0, -1.0));
//! let src: Vec<Vec2> = (0..30).map(|i| Vec2::new(i as f64, (i * 7 % 13) as f64)).collect();
//! let mut dst: Vec<Vec2> = src.iter().map(|&p| truth.apply(p)).collect();
//! dst[5] = Vec2::new(500.0, 500.0); // an outlier
//! let mut rng = StdRng::seed_from_u64(1);
//! let result = ransac_rigid(&src, &dst, &RansacConfig::default(), &mut rng).unwrap();
//! assert!(result.transform.approx_eq(&truth, 1e-6, 1e-6));
//! assert_eq!(result.num_inliers, 29);
//! ```

#![warn(missing_docs)]

pub mod descriptor;
pub mod keypoints;
pub mod matcher;
pub mod ransac;
pub mod sweep;

pub use descriptor::{
    describe_keypoints, describe_keypoints_rotated, Descriptor, DescriptorConfig, SampleWeighting,
};
pub use keypoints::{detect_keypoints, Keypoint, KeypointConfig};
pub use matcher::{match_descriptors, match_sets, Match, MatcherConfig};
pub use ransac::{
    ransac_rigid, ransac_rigid_guided, ransac_rigid_hinted, ransac_rigid_naive, RansacConfig,
    RansacError, RansacResult,
};
pub use sweep::{DescriptorSet, PatchSamples, RotationSweep, REBIN_GROUP};
