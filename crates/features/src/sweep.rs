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
//!    for every significant pixel inside the rotated patch at one
//!    hypothesis at least, and
//! 2. a **re-bin pass** ([`PatchSamples::rebin_group`]) that loads each
//!    cached sample once per group of [`REBIN_GROUP`] consecutive
//!    hypotheses and scatters it into every hypothesis's row through
//!    precomputed offset→cell and orientation-shift tables
//!    ([`RotationSweep`]) — no MIM reads, no trig, no gating.
//!
//! Both passes keep the arithmetic of the naive
//! [`describe_keypoints_rotated`](crate::descriptor::describe_keypoints_rotated)
//! path (`patch_max_amplitude`, `grid_cell`, the `√amplitude` weight,
//! `soft_bin_split`, the sequential L2 norm) and the order in which every bin receives its
//! adds, so the produced descriptors are **bit-identical** to the naive
//! reference — the `sweep_rebin_equals_naive_describe` proptest pins that
//! claim, and DESIGN.md (*Stage-1 matching fast path*) gives the argument
//! for each shortcut.
//!
//! Descriptors land in a flat row-major [`DescriptorSet`] (structure of
//! arrays, no per-descriptor `Vec`), which is what the blocked dot-product
//! matcher kernel ([`crate::matcher::match_sets`]) runs on.

use crate::descriptor::{
    bin_shift_of, grid_cell, patch_max_amplitude, patch_reach, soft_bin_split, DescriptorConfig,
};
use crate::keypoints::Keypoint;
use bba_signal::loggabor::NUM_ORIENTATIONS as N_O;
use bba_signal::MaxIndexMap;

/// Hypotheses re-binned per pass over the cached samples. Each sample is
/// loaded once per group and added to one row per hypothesis, so the rows'
/// read-modify-write chains overlap instead of each add waiting on the
/// store before it.
pub const REBIN_GROUP: usize = 4;

/// A set of descriptors in flat row-major storage: row `i` is the
/// `dim`-length L2-normalised vector of `keypoints[i]`.
///
/// All vectors are contiguous (one allocation, reusable across the
/// hypothesis sweep), so the matcher kernel streams rows without pointer
/// chasing.
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
}

/// The binning tables of one rotation hypothesis.
#[derive(Debug, Clone)]
struct HypothesisBins {
    /// Per window offset, the row position of its grid cell's first
    /// orientation bin (`cell·N_o`). Offsets outside the rotated patch
    /// square point at the trash slot `dim`, just past the row, so the
    /// scatter needs no branch.
    base: Vec<u16>,
    /// Per raw orientation index, the `(lo, hi, frac)` split of
    /// [`soft_bin_split`] under this hypothesis's shift, with
    /// `omf = 1 − frac`: the naive path's per-sample arithmetic, done once
    /// per raw index. One entry per `u8` value, so a lookup by MIM index
    /// needs no bounds check; entries from `N_o` on are never read.
    lo: [u16; 256],
    hi: [u16; 256],
    omf: [f64; 256],
    frac: [f64; 256],
    /// Every `frac` is exactly 0: the shift is a whole number of bins, so
    /// a sample's weight goes whole to bin `lo` (`w·1.0 == w`) and its
    /// `(w·0.0) as f32 == ±0.0` add to bin `hi` changes no bin.
    hard: bool,
}

/// Precomputed per-hypothesis binning tables for a fixed descriptor
/// configuration: for each hypothesis angle, an offset→grid-cell table
/// covering the `(2·reach+1)²` pixel window and the split of every raw
/// orientation index under the angle's bin shift.
///
/// Built once per `BbAlign` (the tables depend only on the configuration,
/// not the images) via the same `grid_cell` and `soft_bin_split` helpers
/// the naive path calls per sample, so a table lookup is bit for bit the
/// naive path's per-sample trig and `rem_euclid`.
#[derive(Debug, Clone)]
pub struct RotationSweep {
    angles: Vec<f64>,
    bins: Vec<HypothesisBins>,
    /// `(window offset, du, dv)` of every offset inside the rotated patch
    /// square at one hypothesis at least, in row-major order: the only
    /// offsets the sample pass reads. The corners of the window beyond
    /// the patch's half-diagonal are dropped.
    live: Vec<(u32, i16, i16)>,
    config: DescriptorConfig,
}

impl RotationSweep {
    /// Precomputes binning tables for every `angle` (radians).
    ///
    /// # Panics
    ///
    /// Panics if the descriptor dimension `grid_size²·N_o` exceeds
    /// `u16::MAX` (the cell tables store `u16` row positions; the paper's
    /// 6×6×12 is 432), or if the patch's reach window is wider than
    /// `i16::MAX` pixels.
    pub fn new(config: &DescriptorConfig, angles: &[f64]) -> Self {
        let (j, l) = (config.patch_size, config.grid_size);
        let dim = l * l * N_O;
        assert!(dim <= u16::MAX as usize, "descriptor dimension {dim} must fit u16 cell tables");
        let half = j as f64 / 2.0;
        let cell_px = j as f64 / l as f64;
        let reach = patch_reach(j);
        let window = (2 * reach + 1) as usize;
        assert!(window <= i16::MAX as usize, "patch size {j} is too large for the window tables");

        let mut live = vec![false; window * window];
        let bins = angles
            .iter()
            .map(|&angle| {
                let shift = bin_shift_of(angle);
                let mut hyp = HypothesisBins {
                    base: vec![dim as u16; window * window],
                    lo: [0; 256],
                    hi: [0; 256],
                    omf: [0.0; 256],
                    frac: [0.0; 256],
                    hard: true,
                };
                for r in 0..N_O {
                    let (lo, hi, frac) = soft_bin_split(r as u8, shift);
                    (hyp.lo[r], hyp.hi[r]) = (lo as u16, hi as u16);
                    (hyp.omf[r], hyp.frac[r]) = (1.0 - frac, frac);
                    hyp.hard &= frac == 0.0;
                }
                let (rs, rc) = angle.sin_cos();
                for dv in -reach..=reach {
                    for du in -reach..=reach {
                        if let Some(cell) = grid_cell(du, dv, rs, rc, half, cell_px, l) {
                            let at = (dv + reach) as usize * window + (du + reach) as usize;
                            hyp.base[at] = (cell * N_O) as u16;
                            live[at] = true;
                        }
                    }
                }
                hyp
            })
            .collect();
        let live = (0..window * window)
            .filter(|&at| live[at])
            .map(|at| {
                let (du, dv) = ((at % window) as isize - reach, (at / window) as isize - reach);
                (at as u32, du as i16, dv as i16)
            })
            .collect();
        RotationSweep { angles: angles.to_vec(), bins, live, config: config.clone() }
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
        self.config.grid_size * self.config.grid_size * N_O
    }
}

/// The hypothesis-invariant samples of a keypoint set: everything stage 1
/// needs to describe the keypoints at *any* rotation of its
/// [`RotationSweep`], extracted with exactly one MIM read per pixel.
///
/// Samples are stored as parallel arrays (`weights`/`offsets`/`indices`)
/// in keypoint order, each keypoint's in row-major window order.
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
    /// Every weight is finite. A hard hypothesis skips the `(w·0.0) as f32`
    /// add, which is a zero only for finite `w` (it is NaN for the weight
    /// of an infinite or NaN amplitude), so a set with a non-finite weight
    /// re-bins every hypothesis with the two-bin split.
    finite: bool,
    patch_size: usize,
    grid_size: usize,
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

    /// Extracts the gated samples of every in-bounds keypoint patch under
    /// `sweep`'s descriptor configuration (the sample-once pass). Replaces
    /// previous contents, reusing allocations.
    ///
    /// Border rejection, amplitude gating and sample order are identical to
    /// the naive describe path; pixels outside the rotated patch at every
    /// hypothesis of `sweep` are not read, since no hypothesis bins them.
    pub fn sample(&mut self, mim: &MaxIndexMap, keypoints: &[Keypoint], sweep: &RotationSweep) {
        self.keypoints.clear();
        self.spans.clear();
        self.weights.clear();
        self.offsets.clear();
        self.indices.clear();
        self.finite = true;
        let config = &sweep.config;
        self.patch_size = config.patch_size;
        self.grid_size = config.grid_size;

        let j = config.patch_size;
        let half = (j as f64 / 2.0) as isize;
        let reach = patch_reach(j);
        let (w, h) = (mim.width() as isize, mim.height() as isize);

        for kp in keypoints {
            let (cu, cv) = (kp.u as isize, kp.v as isize);
            if cu - reach < 0 || cv - reach < 0 || cu + reach >= w || cv + reach >= h {
                continue;
            }
            let max_amp = patch_max_amplitude(mim, cu, cv, half);
            if max_amp <= 0.0 {
                continue;
            }
            let gate = max_amp * config.amplitude_gate;
            let start = self.weights.len() as u32;
            for &(at, du, dv) in &sweep.live {
                let (u, v) = ((cu + du as isize) as usize, (cv + dv as isize) as usize);
                let amp = mim.amplitude[(u, v)];
                if amp <= gate {
                    continue;
                }
                let weight = amp.sqrt();
                self.finite &= weight.is_finite();
                self.weights.push(weight);
                self.offsets.push(at);
                self.indices.push(mim.index[(u, v)]);
            }
            self.keypoints.push(*kp);
            self.spans.push((start, self.weights.len() as u32));
        }
    }

    /// Describes the sampled keypoints under hypotheses
    /// `first..first + out.len()` of `sweep`, hypothesis `first + g` into
    /// `out[g]` (each cleared first, allocations reused): the re-bin pass.
    ///
    /// Each cached sample is loaded once for the whole group. Keypoints
    /// whose patch has no significant sample inside the rotated square are
    /// dropped from that hypothesis's set, exactly as the naive path drops
    /// zero-norm descriptors.
    ///
    /// # Panics
    ///
    /// Panics if `out` holds no set or more than [`REBIN_GROUP`], if the
    /// hypotheses run past the end of `sweep`, or if `sweep` was built for
    /// a different descriptor geometry than the one these samples were
    /// taken with.
    pub fn rebin_group(&self, sweep: &RotationSweep, first: usize, out: &mut [DescriptorSet]) {
        assert!(
            sweep.config.patch_size == self.patch_size && sweep.config.grid_size == self.grid_size,
            "RotationSweep geometry does not match the sampled patches"
        );
        match out {
            [a] => self.rebin(sweep, first, [a]),
            [a, b] => self.rebin(sweep, first, [a, b]),
            [a, b, c] => self.rebin(sweep, first, [a, b, c]),
            [a, b, c, d] => self.rebin(sweep, first, [a, b, c, d]),
            _ => panic!("a re-bin group holds 1 to {REBIN_GROUP} sets, got {}", out.len()),
        }
    }

    /// [`PatchSamples::rebin_group`] for a group of `G` hypotheses.
    ///
    /// Per keypoint, every set's next row is zeroed together with the
    /// `N_o`-bin trash slot behind it (the head of the row after, cleared
    /// again before that row is scattered). Each sample is then added to
    /// all `G` rows, a hard hypothesis adding `w as f32` to one bin and a
    /// soft one `(w·(1 − frac)) as f32` and `(w·frac) as f32` to two, so
    /// every bin still receives its adds in sample order. The `G` rows are
    /// normalised together, each by the same sequential sum of squares
    /// `l2_normalize` takes; a row is kept, and its set's row count
    /// advanced, unless its norm is `≤ 0`.
    fn rebin<const G: usize>(
        &self,
        sweep: &RotationSweep,
        first: usize,
        mut out: [&mut DescriptorSet; G],
    ) {
        let dim = sweep.dim();
        let stride = dim + N_O;
        let hyps: [&HypothesisBins; G] = std::array::from_fn(|g| &sweep.bins[first + g]);
        let hard = hyps.map(|h| h.hard && self.finite);
        // Every cell table covers the window; one check per sample then
        // bounds all `G` lookups.
        let n_offsets = hyps[0].base.len();
        let bases = hyps.map(|h| &h.base[..n_offsets]);
        for set in out.iter_mut() {
            set.reset(dim);
        }

        for (kp, &(start, end)) in self.keypoints.iter().zip(&self.spans) {
            let span = start as usize..end as usize;
            let samples = self.weights[span.clone()]
                .iter()
                .zip(&self.offsets[span.clone()])
                .zip(&self.indices[span]);
            let keep = {
                let mut sets = out.iter_mut();
                let mut rows: [&mut [f32]; G] = std::array::from_fn(|_| {
                    let set = sets.next().expect("one set per hypothesis");
                    let at = set.keypoints.len() * dim;
                    set.data.truncate(at);
                    set.data.resize(at + stride, 0.0);
                    &mut set.data[at..]
                });
                for ((&w, &at), &r) in samples {
                    let (at, r, w32) = (at as usize, r as usize, w as f32);
                    assert!(
                        at < n_offsets,
                        "sample offset {at} outside the {n_offsets}-offset window"
                    );
                    for (((row, h), base), &hard) in
                        rows.iter_mut().zip(&hyps).zip(&bases).zip(&hard)
                    {
                        let base = base[at] as usize;
                        if hard {
                            row[base + h.lo[r] as usize] += w32;
                        } else {
                            row[base + h.lo[r] as usize] += (w * h.omf[r]) as f32;
                            row[base + h.hi[r] as usize] += (w * h.frac[r]) as f32;
                        }
                    }
                }
                let mut sums = [0.0f32; G];
                for i in 0..dim {
                    for (sum, row) in sums.iter_mut().zip(&rows) {
                        *sum += row[i] * row[i];
                    }
                }
                let norms = sums.map(f32::sqrt);
                let keep = norms.map(|norm| norm > 0.0 || norm.is_nan());
                for ((row, &norm), &keep) in rows.iter_mut().zip(&norms).zip(&keep) {
                    if keep {
                        for x in &mut row[..dim] {
                            *x /= norm;
                        }
                    }
                }
                keep
            };
            for (set, keep) in out.iter_mut().zip(keep) {
                if keep {
                    set.keypoints.push(*kp);
                }
            }
        }
        for set in out {
            set.data.truncate(set.keypoints.len() * dim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::describe_keypoints_rotated;
    use bba_signal::{Grid, MaxIndexMap};
    use std::f64::consts::TAU;

    fn test_mim(size: usize) -> MaxIndexMap {
        let mut img = Grid::new(size, size, 0.0);
        for t in 0..(size / 2) {
            img[(size / 4 + t / 2, size / 4 + t / 3)] = 5.0 + (t % 7) as f64;
            img[(size / 2, size / 4 + t / 2)] = 3.0;
        }
        MaxIndexMap::compute(&img)
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

    /// The production hypothesis grid: `k·2π/n`, computed as `BbAlign`
    /// computes it.
    fn grid_angles(n: usize) -> Vec<f64> {
        (0..n).map(|k| k as f64 * TAU / n as f64).collect()
    }

    /// Every hypothesis of `sweep`, re-binned in groups of `group`.
    fn rebin_all(
        samples: &PatchSamples,
        sweep: &RotationSweep,
        group: usize,
    ) -> Vec<DescriptorSet> {
        let mut sets = vec![DescriptorSet::default(); sweep.hypotheses()];
        for (g, chunk) in sets.chunks_mut(group).enumerate() {
            samples.rebin_group(sweep, g * group, chunk);
        }
        sets
    }

    /// Every row's keypoint and vector bits (the derived `==` would let
    /// `-0.0` stand in for `0.0`).
    fn bits(set: &DescriptorSet) -> Vec<(Keypoint, Vec<u32>)> {
        (0..set.len())
            .map(|i| (*set.keypoint(i), set.row(i).iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    #[test]
    fn rebin_matches_naive_describe_bitwise() {
        let mim = test_mim(128);
        let cfg = cfg();
        let kps = kps(128);
        let angles = grid_angles(24);
        let sweep = RotationSweep::new(&cfg, &angles);
        let mut samples = PatchSamples::new();
        samples.sample(&mim, &kps, &sweep);
        for group in 1..=REBIN_GROUP {
            for (k, set) in rebin_all(&samples, &sweep, group).iter().enumerate() {
                let naive = describe_keypoints_rotated(&mim, &kps, &cfg, angles[k]);
                assert_eq!(bits(set), bits(&naive), "group {group}, hyp {k}");
            }
        }
    }

    #[test]
    fn integer_shifts_of_the_production_grid_are_hard() {
        // `bin_shift_of` divides k·2π/24 by π/12; the quotient lands one
        // ulp above the integer at k = 5, 10, 13, 17 and 20, so those
        // hypotheses keep the two-bin split (≈1e-15 of every weight goes
        // to the neighbouring bin).
        let sweep = RotationSweep::new(&cfg(), &grid_angles(24));
        let soft: Vec<usize> = (0..24).filter(|&k| !sweep.bins[k].hard).collect();
        assert_eq!(soft, [5, 10, 13, 17, 20]);
        // Hardness is read off the split arithmetic, not the angle: a shift
        // of ≈4e-301 bins rounds away in `raw − shift` for every raw index.
        let odd = RotationSweep::new(&cfg(), &[0.1, -TAU / 24.0, 1e-300]);
        assert_eq!(odd.bins.iter().map(|b| b.hard).collect::<Vec<_>>(), [false, true, true]);
    }

    #[test]
    fn rows_without_in_patch_samples_are_dropped() {
        // One significant pixel at the corner of the axis-aligned patch:
        // inside the square at 0°, outside it at 45°.
        let mut mim = test_mim(64);
        mim.amplitude.fill(0.0);
        mim.amplitude[(32 - 12, 32 - 12)] = 2.0;
        let cfg = cfg();
        let kps = [Keypoint { u: 32, v: 32, score: 1.0 }];
        let angles = [0.0, TAU / 8.0];
        let sweep = RotationSweep::new(&cfg, &angles);
        let mut samples = PatchSamples::new();
        samples.sample(&mim, &kps, &sweep);
        let sets = rebin_all(&samples, &sweep, 2);
        assert_eq!((sets[0].len(), sets[1].len()), (1, 0));
        for (set, &angle) in sets.iter().zip(&angles) {
            assert_eq!(bits(set), bits(&describe_keypoints_rotated(&mim, &kps, &cfg, angle)));
        }
    }

    #[test]
    fn non_finite_weights_keep_the_two_bin_split() {
        // An infinite amplitude outside the axis-aligned patch (so the gate
        // stays finite) but inside it at 45°: its weight `√∞ = ∞` makes the
        // naive path add `∞·0.0 = NaN` to the upper bin there, which a hard
        // hypothesis would skip.
        let mut mim = test_mim(128);
        mim.amplitude[(64, 64 + 15)] = f64::INFINITY;
        let cfg = cfg();
        let kps = [Keypoint { u: 64, v: 64, score: 1.0 }];
        let angles = grid_angles(8);
        let sweep = RotationSweep::new(&cfg, &angles);
        let mut samples = PatchSamples::new();
        samples.sample(&mim, &kps, &sweep);
        assert!(!samples.finite);
        for (k, set) in rebin_all(&samples, &sweep, REBIN_GROUP).iter().enumerate() {
            let naive = describe_keypoints_rotated(&mim, &kps, &cfg, angles[k]);
            assert_eq!(bits(set), bits(&naive), "hyp {k}");
        }
    }

    #[test]
    fn rebin_group_reuses_buffers() {
        let mim = test_mim(128);
        let cfg = cfg();
        let sweep = RotationSweep::new(&cfg, &grid_angles(6));
        let mut samples = PatchSamples::new();
        samples.sample(&mim, &kps(128), &sweep);
        let fresh = rebin_all(&samples, &sweep, 3);
        // Re-binning into used sets (other hypotheses, then a larger
        // group) and re-sampling into the same buffers is stable.
        let mut sets = rebin_all(&samples, &sweep, 2);
        sets.rotate_left(1);
        samples.sample(&mim, &kps(128), &sweep);
        for (g, chunk) in sets.chunks_mut(3).enumerate() {
            samples.rebin_group(&sweep, g * 3, chunk);
        }
        assert_eq!(sets, fresh);
    }

    #[test]
    fn descriptor_set_round_trips() {
        let mim = test_mim(128);
        let naive = describe_keypoints_rotated(&mim, &kps(128), &cfg(), 0.7);
        let mut set = DescriptorSet::new(naive.dim());
        for i in 0..naive.len() {
            set.push(*naive.keypoint(i), naive.row(i));
        }
        assert_eq!(set.len(), naive.len());
        assert_eq!(bits(&set), bits(&naive));
        assert_eq!(set.keypoints(), naive.keypoints());
    }

    #[test]
    #[should_panic(expected = "geometry does not match")]
    fn mismatched_sweep_geometry_panics() {
        let mim = test_mim(128);
        let mut samples = PatchSamples::new();
        samples.sample(&mim, &kps(128), &RotationSweep::new(&cfg(), &[0.0]));
        let other_cfg = DescriptorConfig { patch_size: 32, grid_size: 4, ..Default::default() };
        let sweep = RotationSweep::new(&other_cfg, &[0.0]);
        samples.rebin_group(&sweep, 0, &mut [DescriptorSet::default()]);
    }

    #[test]
    #[should_panic(expected = "a re-bin group holds 1 to 4 sets, got 5")]
    fn oversized_group_panics() {
        let mim = test_mim(128);
        let sweep = RotationSweep::new(&cfg(), &grid_angles(8));
        let mut samples = PatchSamples::new();
        samples.sample(&mim, &kps(128), &sweep);
        samples.rebin_group(&sweep, 0, &mut vec![DescriptorSet::default(); 5]);
    }
}
