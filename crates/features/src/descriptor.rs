//! BVFT-style descriptors on the Maximum Index Map.
//!
//! For each keypoint a `J×J` patch of the MIM is summarised as `l×l`
//! orientation histograms with `N_o` bins each (paper §IV-A, "Detecting
//! Keypoints & Computing Descriptors"). Because MIM values are orientation
//! *indices*, rotating the image rotates both the patch content **and** the
//! index values; the descriptor therefore (1) estimates the patch's
//! dominant orientation, (2) assigns every pixel to a grid cell of the
//! rotated patch frame, and (3) shifts every sampled index by the dominant
//! orientation — the BVFT/ORB-style normalisation the paper adopts from
//! \[27\]/\[34\].
//!
//! # Sampling convention
//!
//! A rotated patch is sampled by *inverse mapping*: the descriptor visits
//! every image pixel inside the patch's reach window once, rotates the
//! pixel's offset back into the patch frame, and bins it into the grid cell
//! it lands in (pixels falling outside the rotated `J×J` square are
//! skipped). Compared to forward-sampling a rotated grid this reads each
//! pixel at most once and — crucially — makes the *sample set per keypoint
//! independent of the rotation*: only the cell assignment and the
//! orientation-index shift depend on the angle. That is what the sweep fast
//! path ([`crate::sweep`]) exploits to sample each patch once and re-bin it
//! per rotation hypothesis.

use crate::keypoints::Keypoint;
use bba_signal::MaxIndexMap;
use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// How each MIM sample contributes to its histogram bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SampleWeighting {
    /// Weight by Log-Gabor amplitude (raw evidence strength).
    Amplitude,
    /// Weight by √amplitude — compresses the near/far asymmetry between
    /// two viewpoints of the same structure. Default.
    #[default]
    SqrtAmplitude,
    /// Count samples equally (pure occupancy of orientations).
    Binary,
}

/// Descriptor parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DescriptorConfig {
    /// Patch side length `J` in pixels (paper default 96 at 0.2 m/px; scale
    /// with resolution).
    pub patch_size: usize,
    /// Grid subdivision `l` (paper default 6).
    pub grid_size: usize,
    /// Normalise patches to their dominant orientation (rotation
    /// invariance). Disable only for the ablation study.
    pub rotation_invariant: bool,
    /// Ignore samples whose MIM amplitude falls below this fraction of the
    /// patch's maximum amplitude.
    pub amplitude_gate: f64,
    /// Histogram contribution of each sample.
    pub weighting: SampleWeighting,
}

impl Default for DescriptorConfig {
    fn default() -> Self {
        DescriptorConfig {
            patch_size: 48,
            grid_size: 6,
            rotation_invariant: true,
            amplitude_gate: 0.05,
            weighting: SampleWeighting::default(),
        }
    }
}

/// A descriptor vector plus the keypoint it belongs to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Descriptor {
    /// The keypoint this descriptor was computed at.
    pub keypoint: Keypoint,
    /// L2-normalised feature vector of length `l·l·N_o`.
    pub vector: Vec<f32>,
}

impl Descriptor {
    /// Squared Euclidean distance between two descriptor vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths (descriptors from
    /// differently-configured pipelines are not comparable).
    pub fn distance_sq(&self, other: &Descriptor) -> f64 {
        assert_eq!(self.vector.len(), other.vector.len(), "descriptor dimensionality mismatch");
        self.vector
            .iter()
            .zip(&other.vector)
            .map(|(a, b)| {
                let d = (*a - *b) as f64;
                d * d
            })
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Shared primitives. The naive per-angle path below and the sample-once
// sweep fast path (`crate::sweep`) both call these exact functions, so the
// two implementations are bit-identical by construction — the equivalence
// proptests then verify the claim rather than a tolerance.
// ---------------------------------------------------------------------------

/// Half the patch diagonal, rounded up: a keypoint must be at least this far
/// from every image border for the patch to stay in bounds under *any*
/// rotation.
pub(crate) fn patch_reach(patch_size: usize) -> isize {
    (patch_size as f64 / 2.0 * std::f64::consts::SQRT_2).ceil() as isize
}

/// The continuous orientation-index shift matching a patch rotation.
pub(crate) fn bin_shift_of(rotation: f64, n_o: usize) -> f64 {
    rotation / (PI / n_o as f64)
}

/// Maps an integer pixel offset `(du, dv)` from the patch centre to the
/// grid cell it lands in after rotating the patch frame by the angle whose
/// sine/cosine are `(rs, rc)`. Returns `None` when the offset falls outside
/// the rotated `J×J` square. `half = J/2`, `cell_px = J/l`.
pub(crate) fn grid_cell(
    du: isize,
    dv: isize,
    rs: f64,
    rc: f64,
    half: f64,
    cell_px: f64,
    l: usize,
) -> Option<usize> {
    // Inverse rotation: image offset → patch coordinates.
    let x = rc * du as f64 + rs * dv as f64;
    let y = -rs * du as f64 + rc * dv as f64;
    let fx = x + half;
    let fy = y + half;
    if fx < 0.0 || fy < 0.0 || fx >= 2.0 * half || fy >= 2.0 * half {
        return None;
    }
    let gu = ((fx / cell_px) as usize).min(l - 1);
    let gv = ((fy / cell_px) as usize).min(l - 1);
    Some(gv * l + gu)
}

/// The histogram contribution of a sample with amplitude `amp`.
pub(crate) fn sample_weight(amp: f64, weighting: SampleWeighting) -> f64 {
    match weighting {
        SampleWeighting::Amplitude => amp,
        SampleWeighting::SqrtAmplitude => amp.sqrt(),
        SampleWeighting::Binary => 1.0,
    }
}

/// The split of one raw orientation index under a continuous `bin_shift`:
/// `(lo, hi, frac)`, with weight fraction `1 − frac` going to bin `lo` and
/// `frac` to bin `hi`. Factored out of [`soft_bin`] so the sweep's
/// per-hypothesis orientation tables ([`crate::sweep::RotationSweep`]) are
/// built from the exact arithmetic applied per sample — the table-driven
/// re-bin kernel is then bit-identical to the naive path by construction.
pub(crate) fn soft_bin_split(raw_index: u8, bin_shift: f64, n_o: usize) -> (usize, usize, f64) {
    let shifted = (raw_index as f64 - bin_shift).rem_euclid(n_o as f64);
    let lo = (shifted.floor() as usize) % n_o;
    let hi = (lo + 1) % n_o;
    let frac = shifted - shifted.floor();
    (lo, hi, frac)
}

/// Soft-bins one sample: the orientation index is shifted by the continuous
/// `bin_shift` and the weight split linearly between the two adjacent bins —
/// hard binning would reintroduce the quantisation the continuous dominant-
/// orientation estimate removed.
pub(crate) fn soft_bin(
    vector: &mut [f32],
    cell_base: usize,
    raw_index: u8,
    bin_shift: f64,
    n_o: usize,
    weight: f64,
) {
    let (lo, hi, frac) = soft_bin_split(raw_index, bin_shift, n_o);
    vector[cell_base + lo] += (weight * (1.0 - frac)) as f32;
    vector[cell_base + hi] += (weight * frac) as f32;
}

/// L2-normalises a descriptor vector in place. Returns `false` (vector
/// untouched, necessarily all zero) when there is nothing to normalise.
pub(crate) fn l2_normalize(vector: &mut [f32]) -> bool {
    let norm: f32 = vector.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm <= 0.0 {
        return false;
    }
    for x in vector {
        *x /= norm;
    }
    true
}

/// Computes descriptors for all keypoints far enough from the border to fit
/// a full patch. Keypoints whose patch contains no significant MIM samples
/// are dropped.
///
/// With [`DescriptorConfig::rotation_invariant`] set, each patch is
/// normalised to its own dominant orientation (ORB-style). The alternative
/// — and the default strategy of the BB-Align pipeline — is
/// [`describe_keypoints_rotated`], which applies one *global* rotation
/// hypothesis to every patch and lets the caller sweep hypotheses (RIFT's
/// approach): per-patch angle estimation is unstable across real viewpoint
/// changes, while a global hypothesis keeps descriptors raw and
/// discriminative.
pub fn describe_keypoints(
    mim: &MaxIndexMap,
    keypoints: &[Keypoint],
    config: &DescriptorConfig,
) -> Vec<Descriptor> {
    describe_all(mim, keypoints, config, None)
}

/// Shared driver: one independent patch per keypoint, kept in keypoint
/// order.
fn describe_all(
    mim: &MaxIndexMap,
    keypoints: &[Keypoint],
    config: &DescriptorConfig,
    rotation_override: Option<f64>,
) -> Vec<Descriptor> {
    keypoints.iter().filter_map(|kp| describe_one(mim, *kp, config, rotation_override)).collect()
}

/// Computes descriptors with a fixed global patch rotation of `angle`
/// radians (per-patch orientation estimation disabled).
///
/// Matching a set described at angle `δ` against a set described at angle
/// `0` finds correspondences between images that differ by a rotation of
/// `δ`; sweeping `δ` over multiples of `π / N_o` gives exact MIM index
/// shifts and covers all relative headings.
///
/// This is the naive reference implementation: it re-scans the patch per
/// angle. The production sweep path samples each patch once and re-bins it
/// per group of hypotheses ([`crate::sweep::PatchSamples`]), producing
/// bit-identical descriptors — the `sweep_rebin_equals_naive_describe`
/// proptest holds the two together.
pub fn describe_keypoints_rotated(
    mim: &MaxIndexMap,
    keypoints: &[Keypoint],
    config: &DescriptorConfig,
    angle: f64,
) -> Vec<Descriptor> {
    describe_all(mim, keypoints, config, Some(angle))
}

/// First pass over the axis-aligned `J×J` window: the gating maximum
/// amplitude, plus (only when a dominant orientation is needed) the
/// circular-mean trig sums and the amplitude centroid.
pub(crate) struct PatchStats {
    pub max_amp: f64,
    pub sin2: f64,
    pub cos2: f64,
    pub centroid_x: f64,
    pub centroid_y: f64,
}

pub(crate) fn patch_stats(
    mim: &MaxIndexMap,
    cu: isize,
    cv: isize,
    half: isize,
    with_orientation: bool,
) -> PatchStats {
    let n_o = mim.num_orientations;
    let mut s = PatchStats { max_amp: 0.0, sin2: 0.0, cos2: 0.0, centroid_x: 0.0, centroid_y: 0.0 };
    for dv in -half..half {
        for du in -half..half {
            let (u, v) = ((cu + du) as usize, (cv + dv) as usize);
            let amp = mim.amplitude[(u, v)];
            if amp > 0.0 {
                if with_orientation {
                    // Orientations are π-periodic, so the circular mean is
                    // taken on doubled angles.
                    let theta = (mim.index[(u, v)] as f64 + 0.5) * PI / n_o as f64;
                    s.sin2 += amp * (2.0 * theta).sin();
                    s.cos2 += amp * (2.0 * theta).cos();
                    s.centroid_x += amp * du as f64;
                    s.centroid_y += amp * dv as f64;
                }
                s.max_amp = s.max_amp.max(amp);
            }
        }
    }
    s
}

fn describe_one(
    mim: &MaxIndexMap,
    kp: Keypoint,
    config: &DescriptorConfig,
    rotation_override: Option<f64>,
) -> Option<Descriptor> {
    let j = config.patch_size;
    let l = config.grid_size;
    let n_o = mim.num_orientations;
    let half = j as f64 / 2.0;
    let w = mim.width() as isize;
    let h = mim.height() as isize;

    // Reject patches that would leave the image even after rotation
    // (diagonal half-extent).
    let reach = patch_reach(j);
    let (cu, cv) = (kp.u as isize, kp.v as isize);
    if cu - reach < 0 || cv - reach < 0 || cu + reach >= w || cv + reach >= h {
        return None;
    }

    // Pass 1: gating maximum, and — only when this patch normalises to its
    // own orientation — the dominant-orientation estimate. A *continuous*
    // estimate (rather than the strongest bin) is essential: bin-quantised
    // normalisation leaves up to half a bin (7.5° at N_o = 12) of
    // uncompensated rotation, which destroys matches between views rotated
    // by odd angles.
    let needs_orientation = rotation_override.is_none() && config.rotation_invariant;
    let stats = patch_stats(mim, cu, cv, half as isize, needs_orientation);
    if stats.max_amp <= 0.0 {
        return None; // empty patch: nothing to describe
    }
    let gate = stats.max_amp * config.amplitude_gate;

    let rotation = if let Some(angle) = rotation_override {
        angle
    } else if needs_orientation && (stats.sin2 != 0.0 || stats.cos2 != 0.0) {
        // Orientations are π-periodic, so the circular mean fixes the
        // canonical frame only modulo π. The amplitude centroid (ORB's
        // intensity-centroid idea) supplies the missing polarity bit: pick
        // the half-turn that points along the centroid direction, which
        // rotates with the content and is therefore consistent across
        // views rotated by ~180°.
        let base = (0.5 * stats.sin2.atan2(stats.cos2)).rem_euclid(PI);
        let psi = stats.centroid_y.atan2(stats.centroid_x);
        if (base - psi).cos() < 0.0 {
            base + PI
        } else {
            base
        }
    } else {
        0.0
    };
    let bin_shift = bin_shift_of(rotation, n_o);
    let (rs, rc) = rotation.sin_cos();

    // Pass 2 (inverse mapping): every pixel of the reach window whose
    // offset lands inside the rotated patch square contributes to the grid
    // cell it falls in, with its orientation index shifted into the patch's
    // own frame.
    let mut vector = vec![0.0f32; l * l * n_o];
    let cell_px = j as f64 / l as f64;
    for dv in -reach..=reach {
        for du in -reach..=reach {
            let (u, v) = ((cu + du) as usize, (cv + dv) as usize);
            let amp = mim.amplitude[(u, v)];
            if amp <= gate {
                continue;
            }
            let Some(cell) = grid_cell(du, dv, rs, rc, half, cell_px, l) else {
                continue;
            };
            let weight = sample_weight(amp, config.weighting);
            soft_bin(&mut vector, cell * n_o, mim.index[(u, v)], bin_shift, n_o, weight);
        }
    }

    if !l2_normalize(&mut vector) {
        return None;
    }
    Some(Descriptor { keypoint: kp, vector })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bba_signal::{Grid, LogGaborConfig, MaxIndexMap};

    /// An L-shaped structure: two orthogonal bright lines.
    fn l_shape_image(size: usize, angle_deg: f64) -> Grid<f64> {
        let mut img = Grid::new(size, size, 0.0);
        let c = size as f64 / 2.0;
        let a = angle_deg.to_radians();
        for leg in [a, a + std::f64::consts::FRAC_PI_2] {
            let (s, co) = leg.sin_cos();
            for k in 0..(size as i32 / 3) {
                let t = k as f64;
                let u = (c + t * co).round() as isize;
                let v = (c + t * s).round() as isize;
                if u >= 0 && v >= 0 && (u as usize) < size && (v as usize) < size {
                    img[(u as usize, v as usize)] = 8.0;
                }
            }
        }
        img
    }

    fn mim_of(img: &Grid<f64>) -> MaxIndexMap {
        MaxIndexMap::compute(img, &LogGaborConfig::default())
    }

    fn center_kp(size: usize) -> Keypoint {
        Keypoint { u: size / 2, v: size / 2, score: 1.0 }
    }

    fn small_cfg() -> DescriptorConfig {
        DescriptorConfig { patch_size: 24, grid_size: 4, ..Default::default() }
    }

    #[test]
    fn descriptor_has_expected_dimension_and_norm() {
        let img = l_shape_image(128, 0.0);
        let mim = mim_of(&img);
        let desc = describe_keypoints(&mim, &[center_kp(128)], &small_cfg());
        assert_eq!(desc.len(), 1);
        assert_eq!(desc[0].vector.len(), 4 * 4 * 12);
        let norm: f32 = desc[0].vector.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn border_keypoints_are_dropped() {
        let img = l_shape_image(128, 0.0);
        let mim = mim_of(&img);
        let kp = Keypoint { u: 2, v: 2, score: 1.0 };
        assert!(describe_keypoints(&mim, &[kp], &small_cfg()).is_empty());
    }

    #[test]
    fn empty_patch_is_dropped() {
        let img = Grid::new(128, 128, 0.0);
        let mim = mim_of(&img);
        assert!(describe_keypoints(&mim, &[center_kp(128)], &small_cfg()).is_empty());
    }

    #[test]
    fn rotation_invariance_brings_rotated_structures_close() {
        // The same L-shape at 0° and rotated 45°: with rotation
        // normalisation the descriptors should be much closer than two
        // different structures.
        let cfg = small_cfg();
        let d0 = describe_keypoints(&mim_of(&l_shape_image(128, 0.0)), &[center_kp(128)], &cfg);
        let d45 = describe_keypoints(&mim_of(&l_shape_image(128, 45.0)), &[center_kp(128)], &cfg);
        // A different structure: single line only.
        let mut other = Grid::new(128, 128, 0.0);
        for u in 40..90 {
            other[(u, 64)] = 8.0;
            other[(u, 70)] = 8.0;
        }
        let d_other = describe_keypoints(&mim_of(&other), &[center_kp(128)], &cfg);
        assert_eq!(d0.len(), 1);
        assert_eq!(d45.len(), 1);
        assert_eq!(d_other.len(), 1);
        let same = d0[0].distance_sq(&d45[0]);
        let diff = d0[0].distance_sq(&d_other[0]);
        assert!(
            same < diff,
            "rotated same-structure distance {same} should beat different-structure {diff}"
        );
    }

    #[test]
    fn non_invariant_mode_differs_under_rotation() {
        let mut cfg = small_cfg();
        cfg.rotation_invariant = false;
        let d0 = describe_keypoints(&mim_of(&l_shape_image(128, 0.0)), &[center_kp(128)], &cfg);
        let d45 = describe_keypoints(&mim_of(&l_shape_image(128, 45.0)), &[center_kp(128)], &cfg);
        let dist = d0[0].distance_sq(&d45[0]);
        assert!(dist > 0.1, "raw descriptors should diverge under rotation, got {dist}");
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn mismatched_descriptor_lengths_panic() {
        let a = Descriptor { keypoint: center_kp(10), vector: vec![0.0; 8] };
        let b = Descriptor { keypoint: center_kp(10), vector: vec![0.0; 16] };
        let _ = a.distance_sq(&b);
    }

    #[test]
    fn identical_patches_have_zero_distance() {
        let img = l_shape_image(128, 20.0);
        let mim = mim_of(&img);
        let d = describe_keypoints(&mim, &[center_kp(128)], &small_cfg());
        assert_eq!(d[0].distance_sq(&d[0]), 0.0);
    }

    #[test]
    fn grid_cell_covers_unrotated_patch_exactly() {
        // At angle 0 the in-patch offsets are exactly the axis-aligned J×J
        // square [-J/2, J/2), and the corner cells are assigned correctly.
        let (j, l) = (24usize, 4usize);
        let half = j as f64 / 2.0;
        let cell_px = j as f64 / l as f64;
        assert_eq!(grid_cell(-12, -12, 0.0, 1.0, half, cell_px, l), Some(0));
        assert_eq!(grid_cell(11, 11, 0.0, 1.0, half, cell_px, l), Some(l * l - 1));
        assert_eq!(grid_cell(12, 0, 0.0, 1.0, half, cell_px, l), None);
        assert_eq!(grid_cell(0, -13, 0.0, 1.0, half, cell_px, l), None);
    }
}
