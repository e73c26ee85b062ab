//! BB-Align configuration: every tunable of the two-stage pipeline.

use bba_bev::{BevConfig, BevMode};
use bba_features::{DescriptorConfig, KeypointConfig, MatcherConfig, RansacConfig};
use serde::{Deserialize, Serialize};

/// Where stage 1 detects its keypoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum KeypointSource {
    /// On the Log-Gabor amplitude map (normalised to max 1). The amplitude
    /// map is a smooth band-pass response, so FAST corners on it are far
    /// more repeatable under rotation than corners on the aliased raw
    /// raster. Default.
    #[default]
    MimAmplitude,
    /// Directly on the raw BV image (the literal reading of the paper;
    /// kept for the ablation bench).
    BvImage,
}

/// How stage 2 builds correspondences from paired boxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum BoxPairing {
    /// Four canonical corners per box pair (the paper's design): corners
    /// carry orientation information, so even two boxes constrain rotation.
    #[default]
    Corners,
    /// Box centres only (ablation baseline): needs ≥2 boxes for any
    /// rotation signal and is blind to per-box yaw.
    Centers,
}

/// Full parameter set of the framework.
///
/// Defaults follow the paper's model setup (§V "Model Setup"): grid size
/// `l = 6`, success thresholds `Inliers_bv > 25` ∧ `Inliers_box > 6`; its
/// Log-Gabor bank (`N_s = 4` scales, `N_o = 12` orientations) is fixed in
/// [`bba_signal::loggabor`], not configured here. The default
/// raster is [`BevConfig::wide`] (256² at 0.8 m/px), on which the
/// descriptor patch `J = 48` px spans 38.4 m (the paper's `J = 96` at its
/// finer raster covers a similar metric footprint).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BbAlignConfig {
    /// BV rasterisation geometry.
    pub bev: BevConfig,
    /// Rasterisation mode (height map by default; density map for the
    /// ablation).
    pub bev_mode: BevMode,
    /// Which image stage 1 detects keypoints on.
    pub keypoint_source: KeypointSource,
    /// FAST keypoint detection parameters. With
    /// [`KeypointSource::MimAmplitude`] the threshold applies to the
    /// amplitude map normalised to a maximum of 1; with
    /// [`KeypointSource::BvImage`] it applies to raw heights (metres).
    pub keypoints: KeypointConfig,
    /// BVFT descriptor computation on the MIM.
    pub descriptor: DescriptorConfig,
    /// Number of global rotation hypotheses swept during matching. Each
    /// hypothesis rotates the other car's patches by `k·2π/N` before
    /// matching against the ego car's unrotated patches; the hypothesis
    /// with the strongest RANSAC consensus wins. `2·N_o` (24 at the default
    /// 12 orientations, i.e. 15° steps) gives exact MIM index shifts and
    /// covers all relative headings. Set to 1 to assume near-zero relative
    /// yaw (fast path; breaks oncoming-traffic geometry).
    pub rotation_hypotheses: usize,
    /// Descriptor matching.
    pub matcher: MatcherConfig,
    /// Stage-1 RANSAC (units: **pixels**).
    pub ransac_bv: RansacConfig,
    /// Stage-2 RANSAC on box corners (units: **metres**).
    pub ransac_box: RansacConfig,
    /// Run the stage-2 box alignment (disable for the Fig. 14 ablation).
    pub box_alignment: bool,
    /// Boxes pair up when, after the stage-1 transform, their centres are
    /// within this distance (m). The paper observes stage-1 residuals of
    /// "2 or 3 meters".
    pub box_pair_max_distance: f64,
    /// Minimum detection confidence for a box to participate in stage 2.
    pub box_min_confidence: f64,
    /// Stage 2 estimates a full rigid refinement only with at least this
    /// many box pairs; below it the refinement is translation-only (the
    /// paper's Fig. 14 observes box alignment "predominantly contributes
    /// to correcting translation errors", and two noisy boxes constrain
    /// rotation poorly).
    pub box_min_pairs_for_rotation: usize,
    /// Reject a stage-2 correction larger than this translation (m) —
    /// self-motion distortion is physically bounded by speed × sweep time,
    /// so a huge "refinement" means the boxes mismatched.
    pub box_max_correction_t: f64,
    /// Reject a stage-2 correction larger than this rotation (radians).
    pub box_max_correction_r: f64,
    /// Correspondence construction for stage 2 (corner pairing per the
    /// paper, or centre pairing for the ablation).
    pub box_pairing: BoxPairing,
    /// Success threshold on stage-1 inliers (paper: 25).
    pub min_inliers_bv: usize,
    /// Success threshold on stage-2 inliers (paper: 6).
    pub min_inliers_box: usize,
}

impl Default for BbAlignConfig {
    fn default() -> Self {
        BbAlignConfig {
            bev: BevConfig::wide(),
            bev_mode: BevMode::Height,
            keypoint_source: KeypointSource::default(),
            keypoints: KeypointConfig { threshold: 0.05, ..Default::default() },
            descriptor: DescriptorConfig::default(),
            rotation_hypotheses: 24,
            // Tuned for recall (two candidates per keypoint): RANSAC
            // rejects the outliers itself.
            matcher: MatcherConfig::default(),
            ransac_bv: RansacConfig {
                max_iterations: 3000,
                inlier_threshold: 2.0, // pixels = 1.6 m at 0.8 m/px
                min_inliers: 6,
                early_exit_fraction: 0.7,
            },
            ransac_box: RansacConfig {
                max_iterations: 300,
                inlier_threshold: 0.8, // metres
                min_inliers: 4,
                early_exit_fraction: 0.9,
            },
            box_alignment: true,
            box_pair_max_distance: 3.5,
            box_min_confidence: 0.3,
            box_min_pairs_for_rotation: 3,
            box_max_correction_t: 3.0,
            box_max_correction_r: 3f64.to_radians(),
            box_pairing: BoxPairing::default(),
            min_inliers_bv: 25,
            min_inliers_box: 6,
        }
    }
}

impl BbAlignConfig {
    /// A reduced-resolution configuration for fast tests (128² BV images).
    pub fn test_small() -> Self {
        BbAlignConfig {
            bev: BevConfig::test_small(),
            descriptor: DescriptorConfig { patch_size: 32, grid_size: 4, ..Default::default() },
            min_inliers_bv: 10,
            ..Default::default()
        }
    }

    /// The Fig. 14 ablation: stage 1 only.
    pub fn without_box_alignment(mut self) -> Self {
        self.box_alignment = false;
        self
    }

    /// Validates cross-parameter consistency.
    ///
    /// # Panics
    ///
    /// Panics when the descriptor patch cannot fit the BV image or the BEV
    /// raster is invalid.
    pub fn validate(&self) {
        self.bev.validate();
        assert!(
            self.descriptor.patch_size * 2 < self.bev.image_size(),
            "descriptor patch {} too large for BV image {}",
            self.descriptor.patch_size,
            self.bev.image_size()
        );
        assert!(self.box_pair_max_distance > 0.0, "box pairing gate must be positive");
        assert!(
            (0.0..=1.0).contains(&self.box_min_confidence),
            "confidence threshold must be a probability"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = BbAlignConfig::default();
        assert_eq!(c.descriptor.grid_size, 6);
        assert_eq!(c.min_inliers_bv, 25);
        assert_eq!(c.min_inliers_box, 6);
        assert!(c.box_alignment);
        c.validate();
    }

    #[test]
    fn test_small_is_valid() {
        BbAlignConfig::test_small().validate();
    }

    #[test]
    fn ablation_disables_stage2() {
        let c = BbAlignConfig::default().without_box_alignment();
        assert!(!c.box_alignment);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_patch_panics() {
        let mut c = BbAlignConfig::test_small();
        c.descriptor.patch_size = 100;
        c.validate();
    }
}
