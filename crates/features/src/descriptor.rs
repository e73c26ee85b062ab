//! BVFT-style descriptors on the Maximum Index Map.
//!
//! For each keypoint a `J×J` patch of the MIM is summarised as `l×l`
//! orientation histograms with `N_o` bins each (paper §IV-A, "Detecting
//! Keypoints & Computing Descriptors"). Because MIM values are orientation
//! *indices*, rotating the image rotates both the patch content **and** the
//! index values; a descriptor taken under a global rotation hypothesis
//! therefore (1) assigns every pixel to a grid cell of the rotated patch
//! frame and (2) shifts every sampled index by the hypothesis angle. The
//! caller sweeps the hypotheses (RIFT's approach) instead of estimating a
//! per-patch dominant orientation, which is unstable across real viewpoint
//! changes (DESIGN.md, deviation 2).
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
//!
//! Each sample weighs `√amplitude`, which compresses the near/far
//! asymmetry between two viewpoints of the same structure.

use crate::keypoints::Keypoint;
use crate::sweep::DescriptorSet;
use bba_signal::loggabor::NUM_ORIENTATIONS as N_O;
use bba_signal::MaxIndexMap;
use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// Descriptor parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DescriptorConfig {
    /// Patch side length `J` in pixels (paper default 96 at 0.2 m/px; scale
    /// with resolution).
    pub patch_size: usize,
    /// Grid subdivision `l` (paper default 6).
    pub grid_size: usize,
    /// Ignore samples whose MIM amplitude falls below this fraction of the
    /// patch's maximum amplitude.
    pub amplitude_gate: f64,
}

impl Default for DescriptorConfig {
    fn default() -> Self {
        DescriptorConfig { patch_size: 48, grid_size: 6, amplitude_gate: 0.05 }
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
pub(crate) fn bin_shift_of(rotation: f64) -> f64 {
    rotation / (PI / N_O as f64)
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

/// The split of one raw orientation index under a continuous `bin_shift`:
/// `(lo, hi, frac)`, with weight fraction `1 − frac` going to bin `lo` and
/// `frac` to bin `hi`. Factored out of [`soft_bin`] so the sweep's
/// per-hypothesis orientation tables ([`crate::sweep::RotationSweep`]) are
/// built from the exact arithmetic applied per sample — the table-driven
/// re-bin kernel is then bit-identical to the naive path by construction.
pub(crate) fn soft_bin_split(raw_index: u8, bin_shift: f64) -> (usize, usize, f64) {
    let shifted = (raw_index as f64 - bin_shift).rem_euclid(N_O as f64);
    let lo = (shifted.floor() as usize) % N_O;
    let hi = (lo + 1) % N_O;
    let frac = shifted - shifted.floor();
    (lo, hi, frac)
}

/// Soft-bins one sample: the orientation index is shifted by the continuous
/// `bin_shift` and the weight split linearly between the two adjacent bins,
/// so an angle off the `π / N_o` grid is split between bins, not rounded.
pub(crate) fn soft_bin(
    vector: &mut [f32],
    cell_base: usize,
    raw_index: u8,
    bin_shift: f64,
    weight: f64,
) {
    let (lo, hi, frac) = soft_bin_split(raw_index, bin_shift);
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

/// Computes descriptors with a fixed global patch rotation of `angle`
/// radians, for every keypoint far enough from the border to fit a patch
/// at any rotation. Keypoints whose patch contains no significant MIM
/// sample inside the rotated square are dropped.
///
/// Matching a set described at angle `δ` against a set described at angle
/// `0` finds correspondences between images that differ by a rotation of
/// `δ`; sweeping `δ` over multiples of `π / N_o` gives exact MIM index
/// shifts and covers all relative headings.
///
/// This is the naive reference implementation, kept as the test oracle of
/// the sweep: it re-scans the patch per angle. Production samples each
/// patch once and re-bins it per group of hypotheses
/// ([`crate::sweep::PatchSamples`]), producing bit-identical descriptors —
/// the `sweep_rebin_equals_naive_describe` proptest holds the two together.
pub fn describe_keypoints_rotated(
    mim: &MaxIndexMap,
    keypoints: &[Keypoint],
    config: &DescriptorConfig,
    angle: f64,
) -> DescriptorSet {
    let mut set = DescriptorSet::new(config.grid_size * config.grid_size * N_O);
    for kp in keypoints {
        if let Some(vector) = describe_one(mim, *kp, config, angle) {
            set.push(*kp, &vector);
        }
    }
    set
}

/// The gating maximum: the largest positive amplitude in the axis-aligned
/// `J×J` window around `(cu, cv)` (`0.0` for an empty window).
pub(crate) fn patch_max_amplitude(mim: &MaxIndexMap, cu: isize, cv: isize, half: isize) -> f64 {
    let mut max_amp = 0.0f64;
    for dv in -half..half {
        for du in -half..half {
            let amp = mim.amplitude[((cu + du) as usize, (cv + dv) as usize)];
            if amp > 0.0 {
                max_amp = max_amp.max(amp);
            }
        }
    }
    max_amp
}

fn describe_one(
    mim: &MaxIndexMap,
    kp: Keypoint,
    config: &DescriptorConfig,
    rotation: f64,
) -> Option<Vec<f32>> {
    let j = config.patch_size;
    let l = config.grid_size;
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

    // Pass 1: the gating maximum.
    let max_amp = patch_max_amplitude(mim, cu, cv, half as isize);
    if max_amp <= 0.0 {
        return None; // empty patch: nothing to describe
    }
    let gate = max_amp * config.amplitude_gate;
    let bin_shift = bin_shift_of(rotation);
    let (rs, rc) = rotation.sin_cos();

    // Pass 2 (inverse mapping): every pixel of the reach window whose
    // offset lands inside the rotated patch square contributes to the grid
    // cell it falls in, with its orientation index shifted into the patch's
    // own frame.
    let mut vector = vec![0.0f32; l * l * N_O];
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
            soft_bin(&mut vector, cell * N_O, mim.index[(u, v)], bin_shift, amp.sqrt());
        }
    }

    l2_normalize(&mut vector).then_some(vector)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bba_signal::{Grid, MaxIndexMap};

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
        MaxIndexMap::compute(img)
    }

    fn center_kp(size: usize) -> Keypoint {
        Keypoint { u: size / 2, v: size / 2, score: 1.0 }
    }

    fn small_cfg() -> DescriptorConfig {
        DescriptorConfig { patch_size: 24, grid_size: 4, ..Default::default() }
    }

    /// Descriptors of `kps` at hypothesis 0 (no rotation).
    fn describe(mim: &MaxIndexMap, kps: &[Keypoint], cfg: &DescriptorConfig) -> DescriptorSet {
        describe_keypoints_rotated(mim, kps, cfg, 0.0)
    }

    fn distance_sq(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(x, y)| ((x - y) as f64).powi(2)).sum()
    }

    #[test]
    fn descriptor_has_expected_dimension_and_norm() {
        let img = l_shape_image(128, 0.0);
        let mim = mim_of(&img);
        let desc = describe(&mim, &[center_kp(128)], &small_cfg());
        assert_eq!(desc.len(), 1);
        assert_eq!(desc.row(0).len(), 4 * 4 * 12);
        let norm: f32 = desc.row(0).iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn border_keypoints_are_dropped() {
        let img = l_shape_image(128, 0.0);
        let mim = mim_of(&img);
        let kp = Keypoint { u: 2, v: 2, score: 1.0 };
        assert!(describe(&mim, &[kp], &small_cfg()).is_empty());
    }

    #[test]
    fn empty_patch_is_dropped() {
        let img = Grid::new(128, 128, 0.0);
        let mim = mim_of(&img);
        assert!(describe(&mim, &[center_kp(128)], &small_cfg()).is_empty());
    }

    #[test]
    fn rotation_invariance_brings_rotated_structures_close() {
        // The same L-shape at 0° and rotated 45°: described under the
        // matching global hypothesis (45°), the rotated structure should
        // be much closer to the original than a different structure is.
        let cfg = small_cfg();
        let kp = [center_kp(128)];
        let d0 = describe(&mim_of(&l_shape_image(128, 0.0)), &kp, &cfg);
        let d45 = describe_keypoints_rotated(
            &mim_of(&l_shape_image(128, 45.0)),
            &kp,
            &cfg,
            45f64.to_radians(),
        );
        // A different structure: single line only.
        let mut other = Grid::new(128, 128, 0.0);
        for u in 40..90 {
            other[(u, 64)] = 8.0;
            other[(u, 70)] = 8.0;
        }
        let d_other = describe(&mim_of(&other), &kp, &cfg);
        assert_eq!(d0.len(), 1);
        assert_eq!(d45.len(), 1);
        assert_eq!(d_other.len(), 1);
        let same = distance_sq(d0.row(0), d45.row(0));
        let diff = distance_sq(d0.row(0), d_other.row(0));
        assert!(
            same < diff,
            "rotated same-structure distance {same} should beat different-structure {diff}"
        );
    }

    #[test]
    fn non_invariant_mode_differs_under_rotation() {
        // One fixed hypothesis is not rotation invariant: that is why the
        // pipeline sweeps hypotheses.
        let cfg = small_cfg();
        let d0 = describe(&mim_of(&l_shape_image(128, 0.0)), &[center_kp(128)], &cfg);
        let d45 = describe(&mim_of(&l_shape_image(128, 45.0)), &[center_kp(128)], &cfg);
        let dist = distance_sq(d0.row(0), d45.row(0));
        assert!(dist > 0.1, "raw descriptors should diverge under rotation, got {dist}");
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn mismatched_descriptor_lengths_panic() {
        let mut set = DescriptorSet::new(8);
        set.push(center_kp(10), &[0.0; 16]);
    }

    #[test]
    fn identical_patches_have_zero_distance() {
        let img = l_shape_image(128, 20.0);
        let mim = mim_of(&img);
        let d = describe(&mim, &[center_kp(128), center_kp(128)], &small_cfg());
        assert_eq!(d.len(), 2);
        assert_eq!(distance_sq(d.row(0), d.row(1)), 0.0);
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
