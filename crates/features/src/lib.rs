//! Feature detection, description, matching and robust 2-D registration —
//! the computer-vision toolbox behind BB-Align's stage 1 (and the RANSAC
//! shared by stage 2).
//!
//! The pipeline follows the paper's §IV-A, one production entry point per
//! step:
//!
//! 1. [`detect_keypoints`] — a FAST-style segment-test corner detector with
//!    non-maximum suppression, run on the BV image.
//! 2. BVFT-style descriptors on the Maximum Index Map under a sweep of
//!    global rotation hypotheses: a `J×J` patch around each keypoint is
//!    subdivided into `l×l` grids, each contributing an `N_o`-bin
//!    orientation histogram (`l·l·N_o` dimensions total). The [`sweep`]
//!    fast path samples each patch once ([`PatchSamples`]) and re-bins it
//!    per group of [`REBIN_GROUP`] hypotheses into flat
//!    [`DescriptorSet`]s.
//! 3. [`match_sets`] — nearest-neighbour matching by Euclidean distance
//!    with the blocked dot-product kernel against a destination set packed
//!    once ([`MatchPool`]): up to `keep_top_k` candidates per keypoint
//!    within `max_distance`.
//! 4. [`ransac_rigid`] — RANSAC over 2-point samples fitting a rigid 2-D
//!    transform; the inlier count it returns is the paper's `Inliers_bv` /
//!    `Inliers_box` confidence signal.
//!
//! Three naive references stay public only as test oracles, for the
//! equivalence proptests of this and other crates and for the Criterion
//! benches: [`describe_keypoints_rotated`] (re-samples every patch per
//! angle), `matcher::match_sets_naive` (full sort) and
//! [`ransac_rigid_naive`] (unlayered scan). Each fast path is bit-identical
//! to its reference.
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
//! let result = ransac_rigid(&src, &dst, 0, &RansacConfig::default(), &mut rng).unwrap();
//! assert!(result.transform.approx_eq(&truth, 1e-6, 1e-6));
//! assert_eq!(result.num_inliers, 29);
//! ```

#![warn(missing_docs)]

pub mod descriptor;
pub mod keypoints;
pub mod matcher;
pub mod ransac;
pub mod sweep;

pub use descriptor::{describe_keypoints_rotated, DescriptorConfig};
pub use keypoints::{detect_keypoints, Keypoint, KeypointConfig};
pub use matcher::{match_sets, Match, MatchPool, MatcherConfig};
pub use ransac::{ransac_rigid, ransac_rigid_naive, RansacConfig, RansacError, RansacResult};
pub use sweep::{DescriptorSet, PatchSamples, RotationSweep, REBIN_GROUP};
