//! Sample-once rotation sweep: the stage-1 describe fast path.
//!
//! The BB-Align rotation-hypothesis sweep describes the *same* keypoints at
//! many global patch rotations. Under the inverse-mapping convention of
//! [`crate::descriptor`], everything expensive about a patch is
//! hypothesis-invariant: which pixels pass the amplitude gate, their MIM
//! orientation indices, and their histogram weights. Only two things depend
//! on the hypothesis angle: *which grid cell* each pixel offset lands in,
//! and the continuous orientation-index shift.
//!
//! This module therefore splits describing into
//!
//! 1. a **sample pass** ([`PatchSamples::sample`]) that reads the MIM once
//!    per keypoint and caches `(weight, window-offset, mim-index)` triples
//!    for every significant pixel, and
//! 2. a **re-bin pass** ([`PatchSamples::rebin_into`]) that, per hypothesis,
//!    looks the cached window offset up in a precomputed offset→cell table
//!    ([`RotationSweep`]) and soft-bins the cached weight — no MIM reads,
//!    no trig, no gating.
//!
//! Both passes call the same helpers as the naive
//! [`describe_keypoints_rotated`](crate::descriptor::describe_keypoints_rotated)
//! path (`patch_stats`, `grid_cell`, `sample_weight`, `soft_bin`,
//! `l2_normalize`), in the same order, so the produced descriptors are
//! **bit-identical** to the naive reference — the `sweep_matches_naive_*`
//! proptests pin that claim.
//!
//! Descriptors land in a flat row-major [`DescriptorSet`] (structure of
//! arrays, no per-descriptor `Vec`), which is what the blocked dot-product
//! matcher kernel ([`crate::matcher::match_sets`]) runs on.

use crate::descriptor::{
    bin_shift_of, grid_cell, l2_normalize, patch_reach, patch_stats, sample_weight, soft_bin_split,
    Descriptor, DescriptorConfig,
};
use crate::keypoints::Keypoint;
use bba_signal::MaxIndexMap;
use bba_simd::SoftBinLut;

/// Sentinel in the [`RotationSweep`] offset→cell tables for window offsets
/// that fall outside the rotated patch square.
const OUT_OF_PATCH: u8 = u8::MAX;

/// A set of descriptors in flat row-major storage: row `i` is the
/// `dim`-length L2-normalised vector of `keypoints[i]`.
///
/// Compared to `Vec<Descriptor>` this keeps all vectors contiguous (one
/// allocation, reusable across the hypothesis sweep) and lets the matcher
/// kernel stream rows without pointer chasing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DescriptorSet {
    dim: usize,
    keypoints: Vec<Keypoint>,
    data: Vec<f32>,
}

impl DescriptorSet {
    /// An empty set of `dim`-dimensional descriptors.
    pub fn new(dim: usize) -> Self {
        DescriptorSet { dim, keypoints: Vec::new(), data: Vec::new() }
    }

    /// Vector length of every descriptor in the set.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of descriptors.
    pub fn len(&self) -> usize {
        self.keypoints.len()
    }

    /// Whether the set holds no descriptors.
    pub fn is_empty(&self) -> bool {
        self.keypoints.is_empty()
    }

    /// The keypoint behind row `i`.
    pub fn keypoint(&self, i: usize) -> &Keypoint {
        &self.keypoints[i]
    }

    /// All keypoints, row order.
    pub fn keypoints(&self) -> &[Keypoint] {
        &self.keypoints
    }

    /// Descriptor vector of row `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// All rows as one row-major block.
    pub(crate) fn data(&self) -> &[f32] {
        &self.data
    }

    /// Appends one descriptor row.
    ///
    /// # Panics
    ///
    /// Panics if `vector` does not have length [`DescriptorSet::dim`].
    pub fn push(&mut self, keypoint: Keypoint, vector: &[f32]) {
        assert_eq!(vector.len(), self.dim, "descriptor dimensionality mismatch");
        self.keypoints.push(keypoint);
        self.data.extend_from_slice(vector);
    }

    /// Drops all rows, keeping the allocations (and switching the set to
    /// `dim`-dimensional rows).
    pub fn reset(&mut self, dim: usize) {
        self.dim = dim;
        self.keypoints.clear();
        self.data.clear();
    }

    /// Converts to the AoS `Descriptor` representation (copies).
    pub fn to_descriptors(&self) -> Vec<Descriptor> {
        (0..self.len())
            .map(|i| Descriptor { keypoint: self.keypoints[i], vector: self.row(i).to_vec() })
            .collect()
    }

    /// Builds a set from AoS descriptors.
    ///
    /// # Panics
    ///
    /// Panics if the descriptors do not all share one vector length.
    pub fn from_descriptors(descriptors: &[Descriptor]) -> Self {
        let dim = descriptors.first().map_or(0, |d| d.vector.len());
        let mut set = DescriptorSet {
            dim,
            keypoints: Vec::with_capacity(descriptors.len()),
            data: Vec::with_capacity(descriptors.len() * dim),
        };
        for d in descriptors {
            set.push(d.keypoint, &d.vector);
        }
        set
    }
}

/// Precomputed per-hypothesis binning tables for a fixed descriptor
/// geometry: for each hypothesis angle, the orientation-index shift and an
/// offset→grid-cell lookup covering the `(2·reach+1)²` pixel window.
///
/// Built once per `BbAlign` (the tables depend only on the configuration,
/// not the images) via the same `grid_cell` helper used by the naive path,
/// so a table lookup is bit-for-bit the naive path's per-sample trig.
#[derive(Debug, Clone)]
pub struct RotationSweep {
    angles: Vec<f64>,
    /// Per hypothesis, the soft-bin split of every raw orientation index
    /// under that hypothesis's shift — built with the exact `soft_bin`
    /// arithmetic ([`soft_bin_split`]), so the LUT-driven re-bin kernel
    /// reproduces the naive path bit for bit while replacing the per-sample
    /// `rem_euclid`/`floor` with a gather.
    luts: Vec<SoftBinLut>,
    /// `angles.len()` consecutive tables of `window²` cells each;
    /// `OUT_OF_PATCH` marks offsets outside the rotated square.
    cells: Vec<u8>,
    window: usize,
    patch_size: usize,
    grid_size: usize,
    num_orientations: usize,
}

impl RotationSweep {
    /// Precomputes binning tables for every `angle` (radians).
    ///
    /// # Panics
    ///
    /// Panics if the grid has ≥ 255 cells (the cell table stores `u8`
    /// indices with one sentinel value; the paper's grids are ≤ 8×8).
    pub fn new(config: &DescriptorConfig, num_orientations: usize, angles: &[f64]) -> Self {
        let l = config.grid_size;
        assert!(l * l < OUT_OF_PATCH as usize, "grid_size² must stay below 255");
        let j = config.patch_size;
        let half = j as f64 / 2.0;
        let cell_px = j as f64 / l as f64;
        let reach = patch_reach(j);
        let window = (2 * reach + 1) as usize;

        let mut cells = vec![OUT_OF_PATCH; angles.len() * window * window];
        let mut luts = Vec::with_capacity(angles.len());
        for (k, &angle) in angles.iter().enumerate() {
            let bin_shift = bin_shift_of(angle, num_orientations);
            let mut lut = SoftBinLut::new();
            for raw in 0..num_orientations {
                let (lo, hi, frac) = soft_bin_split(raw as u8, bin_shift, num_orientations);
                lut.push(lo, hi, frac);
            }
            luts.push(lut);
            let (rs, rc) = angle.sin_cos();
            let table = &mut cells[k * window * window..(k + 1) * window * window];
            for dv in -reach..=reach {
                for du in -reach..=reach {
                    if let Some(cell) = grid_cell(du, dv, rs, rc, half, cell_px, l) {
                        table[(dv + reach) as usize * window + (du + reach) as usize] = cell as u8;
                    }
                }
            }
        }
        RotationSweep {
            angles: angles.to_vec(),
            luts,
            cells,
            window,
            patch_size: j,
            grid_size: l,
            num_orientations,
        }
    }

    /// Number of hypothesis angles.
    pub fn hypotheses(&self) -> usize {
        self.angles.len()
    }

    /// The `k`-th hypothesis angle in radians.
    pub fn angle(&self, k: usize) -> f64 {
        self.angles[k]
    }

    /// Descriptor vector length produced by this sweep.
    pub fn dim(&self) -> usize {
        self.grid_size * self.grid_size * self.num_orientations
    }

    fn table(&self, k: usize) -> &[u8] {
        let n = self.window * self.window;
        &self.cells[k * n..(k + 1) * n]
    }
}

/// The hypothesis-invariant samples of a keypoint set: everything stage 1
/// needs to describe the keypoints at *any* rotation, extracted with
/// exactly one MIM read per pixel.
///
/// Samples are stored as parallel arrays (`weights`/`offsets`/`indices`) so
/// the re-bin kernel ([`bba_simd::rebin_row`]) streams each field with
/// contiguous vector loads instead of strided struct fields.
///
/// Reusable scratch: [`PatchSamples::sample`] clears and refills, keeping
/// allocations, so `BbAlign` pools these alongside its FFT workspaces.
#[derive(Debug, Clone, Default)]
pub struct PatchSamples {
    /// Keypoints that survived the border check, in input order.
    keypoints: Vec<Keypoint>,
    /// Per surviving keypoint: `[start, end)` range into the sample arrays.
    spans: Vec<(u32, u32)>,
    /// Histogram weight per sample. Kept at `f64` deliberately: the naive
    /// path computes the weight in `f64` and converts to `f32` only after
    /// the soft-bin split, so caching a narrowed value would change bits.
    weights: Vec<f64>,
    /// Row-major reach-window offset per sample.
    offsets: Vec<u32>,
    /// Raw MIM orientation index per sample.
    indices: Vec<u8>,
    patch_size: usize,
    grid_size: usize,
    num_orientations: usize,
}

impl PatchSamples {
    /// Empty scratch, ready for [`PatchSamples::sample`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keypoints that survived the border check.
    pub fn len(&self) -> usize {
        self.keypoints.len()
    }

    /// Whether no keypoints survived the border check.
    pub fn is_empty(&self) -> bool {
        self.keypoints.is_empty()
    }

    /// Extracts the gated samples of every in-bounds keypoint patch (the
    /// sample-once pass). Replaces previous contents, reusing allocations.
    ///
    /// Border rejection, amplitude gating and sample order are identical to
    /// the naive describe path; per-patch dominant-orientation estimation
    /// does not apply (the sweep is the global-hypothesis strategy, which
    /// always overrides patch orientation).
    pub fn sample(&mut self, mim: &MaxIndexMap, keypoints: &[Keypoint], config: &DescriptorConfig) {
        self.keypoints.clear();
        self.spans.clear();
        self.weights.clear();
        self.offsets.clear();
        self.indices.clear();
        self.patch_size = config.patch_size;
        self.grid_size = config.grid_size;
        self.num_orientations = mim.num_orientations;

        let j = config.patch_size;
        let half = (j as f64 / 2.0) as isize;
        let reach = patch_reach(j);
        let window = (2 * reach + 1) as usize;
        let (w, h) = (mim.width() as isize, mim.height() as isize);

        for kp in keypoints {
            let (cu, cv) = (kp.u as isize, kp.v as isize);
            if cu - reach < 0 || cv - reach < 0 || cu + reach >= w || cv + reach >= h {
                continue;
            }
            let stats = patch_stats(mim, cu, cv, half, false);
            if stats.max_amp <= 0.0 {
                continue;
            }
            let gate = stats.max_amp * config.amplitude_gate;
            let start = self.weights.len() as u32;
            for dv in -reach..=reach {
                for du in -reach..=reach {
                    let (u, v) = ((cu + du) as usize, (cv + dv) as usize);
                    let amp = mim.amplitude[(u, v)];
                    if amp <= gate {
                        continue;
                    }
                    self.weights.push(sample_weight(amp, config.weighting));
                    self.offsets
                        .push(((dv + reach) as usize * window + (du + reach) as usize) as u32);
                    self.indices.push(mim.index[(u, v)]);
                }
            }
            self.keypoints.push(*kp);
            self.spans.push((start, self.weights.len() as u32));
        }
    }

    /// Describes the sampled keypoints under hypothesis `k` of `sweep`
    /// into `out` (cleared first, allocations reused): the re-bin pass.
    ///
    /// Keypoints whose patch ends up with no in-square significant samples
    /// are dropped, exactly as the naive path drops zero-norm descriptors.
    ///
    /// # Panics
    ///
    /// Panics if `sweep` was built for a different descriptor geometry than
    /// the one this buffer was sampled with.
    pub fn rebin_into(&self, sweep: &RotationSweep, k: usize, out: &mut DescriptorSet) {
        assert!(
            sweep.patch_size == self.patch_size
                && sweep.grid_size == self.grid_size
                && sweep.num_orientations == self.num_orientations,
            "RotationSweep geometry does not match the sampled patches"
        );
        let dim = sweep.dim();
        let n = self.keypoints.len();
        out.reset(dim);
        out.data.resize(n * dim, 0.0);

        let table = sweep.table(k);
        let lut = &sweep.luts[k];
        let n_o = sweep.num_orientations;

        // One output row per keypoint; a row stays all-zero iff the naive
        // path would have dropped the descriptor (its L2 norm is zero),
        // which the compaction below detects. The per-sample soft-bin split
        // is precomputed in the hypothesis's LUT; the scatter stays scalar
        // in sample order (colliding bins make the f32 accumulation order
        // observable).
        for (row, &(start, end)) in out.data.chunks_mut(dim).zip(&self.spans) {
            let (start, end) = (start as usize, end as usize);
            bba_simd::rebin_row(
                row,
                &self.weights[start..end],
                &self.offsets[start..end],
                &self.indices[start..end],
                table,
                OUT_OF_PATCH,
                n_o,
                lut,
            );
            l2_normalize(row);
        }

        // In-order compaction: drop zero rows, keep the rest in keypoint
        // order.
        let mut kept = 0usize;
        for i in 0..n {
            if self.row_is_zero(&out.data, i, dim) {
                continue;
            }
            if kept != i {
                out.data.copy_within(i * dim..(i + 1) * dim, kept * dim);
            }
            out.keypoints.push(self.keypoints[i]);
            kept += 1;
        }
        out.data.truncate(kept * dim);
    }

    fn row_is_zero(&self, data: &[f32], i: usize, dim: usize) -> bool {
        data[i * dim..(i + 1) * dim].iter().all(|x| *x == 0.0)
    }

    /// Convenience wrapper around [`PatchSamples::rebin_into`] returning a
    /// fresh set.
    pub fn rebin(&self, sweep: &RotationSweep, k: usize) -> DescriptorSet {
        let mut out = DescriptorSet::new(sweep.dim());
        self.rebin_into(sweep, k, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::describe_keypoints_rotated;
    use bba_signal::{Grid, LogGaborConfig, MaxIndexMap};

    fn test_mim(size: usize) -> MaxIndexMap {
        let mut img = Grid::new(size, size, 0.0);
        for t in 0..(size / 2) {
            img[(size / 4 + t / 2, size / 4 + t / 3)] = 5.0 + (t % 7) as f64;
            img[(size / 2, size / 4 + t / 2)] = 3.0;
        }
        MaxIndexMap::compute(&img, &LogGaborConfig::default())
    }

    fn cfg() -> DescriptorConfig {
        DescriptorConfig { patch_size: 24, grid_size: 4, ..Default::default() }
    }

    fn kps(size: usize) -> Vec<Keypoint> {
        vec![
            Keypoint { u: size / 2, v: size / 2, score: 1.0 },
            Keypoint { u: size / 3, v: size / 2, score: 1.0 },
            Keypoint { u: 1, v: 1, score: 1.0 }, // border-rejected
            Keypoint { u: size / 2 + 5, v: size / 3, score: 1.0 },
        ]
    }

    #[test]
    fn rebin_matches_naive_describe_bitwise() {
        let mim = test_mim(128);
        let cfg = cfg();
        let kps = kps(128);
        let angles: Vec<f64> = (0..8).map(|k| k as f64 * std::f64::consts::TAU / 8.0).collect();
        let sweep = RotationSweep::new(&cfg, mim.num_orientations, &angles);
        let mut samples = PatchSamples::new();
        samples.sample(&mim, &kps, &cfg);
        for (k, &angle) in angles.iter().enumerate() {
            let fast = samples.rebin(&sweep, k);
            let naive = describe_keypoints_rotated(&mim, &kps, &cfg, angle);
            assert_eq!(fast.to_descriptors(), naive, "hypothesis {k}");
        }
    }

    #[test]
    fn rebin_into_reuses_buffers() {
        let mim = test_mim(128);
        let cfg = cfg();
        let sweep = RotationSweep::new(&cfg, mim.num_orientations, &[0.0, 1.0]);
        let mut samples = PatchSamples::new();
        samples.sample(&mim, &kps(128), &cfg);
        let mut out = DescriptorSet::new(0);
        samples.rebin_into(&sweep, 1, &mut out);
        let fresh = samples.rebin(&sweep, 1);
        assert_eq!(out, fresh);
        // Re-sampling and re-binning into the same buffers is stable.
        samples.sample(&mim, &kps(128), &cfg);
        samples.rebin_into(&sweep, 1, &mut out);
        assert_eq!(out, fresh);
    }

    #[test]
    fn descriptor_set_round_trips() {
        let mim = test_mim(128);
        let cfg = cfg();
        let naive = describe_keypoints_rotated(&mim, &kps(128), &cfg, 0.7);
        let set = DescriptorSet::from_descriptors(&naive);
        assert_eq!(set.len(), naive.len());
        assert_eq!(set.to_descriptors(), naive);
        for (i, d) in naive.iter().enumerate() {
            assert_eq!(set.row(i), &d.vector[..]);
            assert_eq!(set.keypoint(i), &d.keypoint);
        }
    }

    #[test]
    #[should_panic(expected = "geometry does not match")]
    fn mismatched_sweep_geometry_panics() {
        let mim = test_mim(128);
        let mut samples = PatchSamples::new();
        samples.sample(&mim, &kps(128), &cfg());
        let other_cfg = DescriptorConfig { patch_size: 32, grid_size: 4, ..Default::default() };
        let sweep = RotationSweep::new(&other_cfg, mim.num_orientations, &[0.0]);
        let _ = samples.rebin(&sweep, 0);
    }
}
