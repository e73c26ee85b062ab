//! The Maximum Index Map (MIM) of the paper's Eq. (10).
//!
//! `MIM(u, v) = argmax_o A(u, v, o)`: per pixel, the index of the
//! orientation with the strongest summed Log-Gabor amplitude. The MIM turns
//! a sparse BV image into a dense orientation field in which "disconnected
//! lines" (building edges) and "isolated blobs" (tree tops) become stable,
//! matchable texture.

use crate::grid::Grid;
use crate::loggabor::{LogGaborBank, LogGaborConfig};
use crate::workspace::FftWorkspace;
use serde::{Deserialize, Serialize};

/// A computed Maximum Index Map plus the amplitude evidence behind it.
///
/// `index[(u,v)]` is the winning orientation (`0..N_o`);
/// `amplitude[(u,v)]` is the winning amplitude, used to mask out pixels with
/// no signal (in an all-zero region every orientation ties at amplitude 0 and
/// the argmax is meaningless).
///
/// # Example
///
/// ```
/// use bba_signal::{Grid, LogGaborConfig, MaxIndexMap};
/// let mut img = Grid::new(32, 32, 0.0);
/// img[(10, 10)] = 4.0;
/// let mim = MaxIndexMap::compute(&img, &LogGaborConfig::default());
/// assert!(mim.amplitude[(10, 10)] > mim.amplitude[(31, 31)]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaxIndexMap {
    /// Winning orientation index per pixel, in `0..num_orientations`.
    pub index: Grid<u8>,
    /// Amplitude of the winning orientation per pixel.
    pub amplitude: Grid<f64>,
    /// Number of orientations `N_o` the map was computed with.
    pub num_orientations: usize,
}

impl MaxIndexMap {
    /// Computes the MIM of `img` with a freshly built filter bank and
    /// workspace: the one-shot entry point.
    ///
    /// Build the bank once with [`LogGaborBank::new`] and use
    /// [`MaxIndexMap::compute_with_workspace`] when processing many images
    /// of the same size.
    ///
    /// # Panics
    ///
    /// Panics if the image dimensions are not powers of two (the BV
    /// rasteriser always produces power-of-two images).
    pub fn compute(img: &Grid<f64>, config: &LogGaborConfig) -> MaxIndexMap {
        let bank = LogGaborBank::new(img.width(), img.height(), config.clone());
        Self::compute_with_workspace(img, &bank, &mut FftWorkspace::new())
    }

    /// Computes the MIM using a pre-built filter bank and a reusable
    /// [`FftWorkspace`] — the production path: once the workspace has seen
    /// this image size, the Log-Gabor filtering performs zero heap
    /// allocation per frame (only the output grids are allocated).
    ///
    /// This is the **fused streaming reduction**: per-orientation amplitude
    /// grids are never materialised — each filtered scale pair streams from
    /// the packed inverse FFT through amplitude into the running
    /// `(amplitude, index)` argmax held in the output grids (see
    /// [`LogGaborBank::orientation_amplitudes_into`] for the full-amplitude
    /// sibling). Bit-identical to [`MaxIndexMap::compute_via_amplitudes`].
    ///
    /// # Panics
    ///
    /// Panics if the image shape differs from the bank's, or the dimensions
    /// are not powers of two.
    pub fn compute_with_workspace(
        img: &Grid<f64>,
        bank: &LogGaborBank,
        ws: &mut FftWorkspace,
    ) -> MaxIndexMap {
        let w = img.width();
        let h = img.height();
        let mut index = Grid::new(w, h, 0u8);
        let mut amplitude = Grid::new(w, h, 0.0f64);
        bank.mim_fused_into(img, ws, &mut index, &mut amplitude)
            .expect("BV images are power-of-two sized");
        MaxIndexMap { index, amplitude, num_orientations: bank.config().num_orientations }
    }

    /// Reference two-pass MIM, the test oracle of the fused path: it
    /// materialises every per-orientation amplitude grid via
    /// [`LogGaborBank::orientation_amplitudes_into`], then scans the
    /// per-pixel argmax. Kept as the readable specification the fused path
    /// ([`MaxIndexMap::compute_with_workspace`]) is equivalence-tested
    /// against; it leaves the full amplitude grids in the workspace
    /// ([`FftWorkspace::amplitudes`]).
    ///
    /// # Panics
    ///
    /// Panics if the image shape differs from the bank's, or the dimensions
    /// are not powers of two.
    pub fn compute_via_amplitudes(
        img: &Grid<f64>,
        bank: &LogGaborBank,
        ws: &mut FftWorkspace,
    ) -> MaxIndexMap {
        bank.orientation_amplitudes_into(img, ws).expect("BV images are power-of-two sized");
        let amps: Vec<&Grid<f64>> = ws.amplitudes().collect();
        let w = img.width();
        let h = img.height();
        let mut index = Grid::new(w, h, 0u8);
        let mut amplitude = Grid::new(w, h, 0.0f64);
        for (i, (cell, amp_out)) in
            index.as_mut_slice().iter_mut().zip(amplitude.as_mut_slice()).enumerate()
        {
            let mut best_o = 0u8;
            let mut best_a = f64::NEG_INFINITY;
            for (o, amp) in amps.iter().enumerate() {
                let a = amp.as_slice()[i];
                if a > best_a {
                    best_a = a;
                    best_o = o as u8;
                }
            }
            *cell = best_o;
            *amp_out = amps[usize::from(best_o)].as_slice()[i];
        }
        MaxIndexMap { index, amplitude, num_orientations: bank.config().num_orientations }
    }

    /// Width of the map.
    pub fn width(&self) -> usize {
        self.index.width()
    }

    /// Height of the map.
    pub fn height(&self) -> usize {
        self.index.height()
    }

    /// An amplitude threshold separating "signal" from "empty" pixels:
    /// a fraction of the maximum amplitude.
    pub fn significance_threshold(&self, fraction: f64) -> f64 {
        self.amplitude.max_value() * fraction.clamp(0.0, 1.0)
    }

    /// The circular difference between two orientation indices, in index
    /// units, accounting for the π-periodicity of orientations
    /// (`N_o` indices cover half a turn).
    pub fn index_distance(&self, a: u8, b: u8) -> u8 {
        let n = self.num_orientations as i32;
        let d = (a as i32 - b as i32).rem_euclid(n);
        d.min(n - d) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loggabor::LogGaborConfig;

    fn line_image(size: usize, angle_deg: f64) -> Grid<f64> {
        // A bright line through the centre at the given angle.
        let mut img = Grid::new(size, size, 0.0);
        let c = size as f64 / 2.0;
        let (s, co) = angle_deg.to_radians().sin_cos();
        let half = size as f64 * 0.35;
        let steps = (half * 4.0) as i32;
        for k in -steps..=steps {
            let t = k as f64 / steps as f64 * half;
            let u = (c + t * co).round() as isize;
            let v = (c + t * s).round() as isize;
            if u >= 0 && v >= 0 && (u as usize) < size && (v as usize) < size {
                img[(u as usize, v as usize)] = 8.0;
            }
        }
        img
    }

    #[test]
    fn empty_image_has_zero_amplitude() {
        let mim = MaxIndexMap::compute(&Grid::new(16, 16, 0.0), &LogGaborConfig::default());
        assert!(mim.amplitude.max_value() < 1e-12);
        assert_eq!(mim.num_orientations, 12);
    }

    #[test]
    fn rotating_line_rotates_mim_value() {
        // The dominant orientation on the line should track the line angle.
        let cfg = LogGaborConfig::default();
        let mim0 = MaxIndexMap::compute(&line_image(64, 0.0), &cfg);
        let mim60 = MaxIndexMap::compute(&line_image(64, 60.0), &cfg);
        let center = (32usize, 32usize);
        let i0 = mim0.index[center];
        let i60 = mim60.index[center];
        // 60° = 4 orientation steps of 15°; allow ±1 step of slack.
        let d = mim0.index_distance(i0, i60);
        assert!(
            (3..=5).contains(&d),
            "expected ~4 index steps between 0° and 60° lines, got {d} (i0={i0}, i60={i60})"
        );
    }

    #[test]
    fn index_distance_is_circular() {
        let mim = MaxIndexMap::compute(&Grid::new(16, 16, 0.0), &LogGaborConfig::default());
        assert_eq!(mim.index_distance(0, 11), 1);
        assert_eq!(mim.index_distance(0, 6), 6);
        assert_eq!(mim.index_distance(3, 3), 0);
    }

    #[test]
    fn significance_threshold_scales_with_amplitude() {
        let mut img = Grid::new(32, 32, 0.0);
        img[(16, 16)] = 10.0;
        let mim = MaxIndexMap::compute(&img, &LogGaborConfig::default());
        let t = mim.significance_threshold(0.1);
        assert!(t > 0.0);
        assert!(t <= mim.amplitude.max_value());
        assert_eq!(mim.significance_threshold(2.0), mim.amplitude.max_value());
    }

    #[test]
    fn fused_matches_reference_bitwise_at_every_scale_count() {
        // The fused streaming reduction must reproduce the two-pass
        // reference bit-for-bit: same winning index, same winning amplitude
        // bits, at every scale-pair parity (odd scale counts exercise the
        // half-packed final pair; num_scales=1 and 2 exercise the
        // no-partial fold).
        let img = line_image(32, 40.0);
        for num_scales in [1, 2, 3, 4] {
            let cfg = LogGaborConfig { num_scales, ..LogGaborConfig::default() };
            let bank = crate::loggabor::LogGaborBank::new(32, 32, cfg);
            let reference =
                MaxIndexMap::compute_via_amplitudes(&img, &bank, &mut FftWorkspace::new());
            let fused = MaxIndexMap::compute_with_workspace(&img, &bank, &mut FftWorkspace::new());
            assert_eq!(fused.index, reference.index, "index diverged (scales={num_scales})");
            for (i, (a, b)) in
                fused.amplitude.as_slice().iter().zip(reference.amplitude.as_slice()).enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "amplitude bits diverged at pixel {i} (scales={num_scales})"
                );
            }
        }
    }

    #[test]
    fn reusing_bank_matches_fresh_computation() {
        let cfg = LogGaborConfig::default();
        let img = line_image(32, 30.0);
        let fresh = MaxIndexMap::compute(&img, &cfg);
        let bank = crate::loggabor::LogGaborBank::new(32, 32, cfg);
        let mut ws = FftWorkspace::new();
        let reused = MaxIndexMap::compute_with_workspace(&img, &bank, &mut ws);
        assert_eq!(fresh, reused);
    }
}
