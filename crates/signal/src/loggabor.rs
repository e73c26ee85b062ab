//! The 2-D Log-Gabor filter bank of the paper's Eq. (6)–(7).
//!
//! A Log-Gabor filter is defined in the *frequency* domain on polar
//! coordinates `(ρ, θ)` (the paper's Eq. (5) conversion): a log-Gaussian
//! radial profile selecting a scale, multiplied by a Gaussian angular
//! profile selecting an orientation:
//!
//! ```text
//! L(ρ, θ; s, o) = exp(−(log(ρ/ρ_s))² / (2·σ_ρ²)) · exp(−(θ − θ_o)² / (2·σ_θ²))
//! ```
//!
//! Scales follow the geometric progression of Kovesi's reference
//! implementation (paper footnote 2 / reference \[32\]): the centre wavelength
//! of scale `s` is `min_wavelength · mult^(s−1)` pixels, i.e. centre
//! frequency `ρ_s = 1 / wavelength_s` cycles/pixel. The radial bandwidth is
//! expressed through `sigma_on_f` (σ/f ratio, ~0.55 ≈ two octaves) and the
//! angular bandwidth through `d_theta_on_sigma`.
//!
//! Applying the bank (Eq. (8)) is a frequency-domain product followed by an
//! inverse FFT; the complex magnitude of the result is the amplitude
//! `A(ρ, θ, s, o)` used in Eq. (9)–(10). The bank and the image spectrum
//! are both held in 2-D bit-reversed order, the input order of the
//! decimation-in-time inverse, so no inverse transform reorders anything.
//!
//! The build shares every factor the transfer functions have in common:
//! radius and angle once per frequency bin, the radial log-Gaussian once
//! per (bin, scale) and the angular Gaussian once per (bin, orientation).
//! Every transfer function is even-symmetric, so in the bit-reversed
//! layout each packed grid repeats itself under [`bitrev_mirror`] on both
//! axes; the bank keeps only the `H/2 + 1` rows that map to themselves or
//! forward, and the product reads the other rows backwards through
//! [`bba_simd::cmul_mirrored`].

use crate::complex::{as_floats, as_floats_mut, Complex};
use crate::fft::{bitrev_permute, ifft2d_bitrev_unscaled_into, rfft2d_into, FftError};
use crate::grid::Grid;
use crate::plan::bitrev_order;
use crate::workspace::FftWorkspace;
use bba_simd::bitrev_mirror;
use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// Configuration of the Log-Gabor filter bank.
///
/// Defaults mirror the paper's evaluation setup (`N_s = 4`, `N_o = 12`) with
/// Kovesi-style bandwidth constants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogGaborConfig {
    /// Number of scales `N_s`.
    pub num_scales: usize,
    /// Number of orientations `N_o`.
    pub num_orientations: usize,
    /// Wavelength (pixels) of the smallest-scale filter.
    pub min_wavelength: f64,
    /// Scale multiplier between successive filters.
    pub mult: f64,
    /// Ratio σ_ρ/ρ_0 of the radial log-Gaussian (≈0.55 → ~2 octaves).
    pub sigma_on_f: f64,
    /// Ratio of angular interval to angular σ (≈1.2).
    pub d_theta_on_sigma: f64,
}

impl Default for LogGaborConfig {
    fn default() -> Self {
        LogGaborConfig {
            num_scales: 4,
            num_orientations: 12,
            min_wavelength: 3.0,
            mult: 2.1,
            sigma_on_f: 0.55,
            d_theta_on_sigma: 1.2,
        }
    }
}

impl LogGaborConfig {
    /// Orientation angle `θ_o = (o−1)·π/N_o` of orientation index `o`
    /// (0-based here), per the paper's definition of the array `O`.
    pub fn orientation_angle(&self, o: usize) -> f64 {
        o as f64 * PI / self.num_orientations as f64
    }

    /// Centre frequency (cycles/pixel) of scale index `s` (0-based).
    pub fn center_frequency(&self, s: usize) -> f64 {
        1.0 / (self.min_wavelength * self.mult.powi(s as i32))
    }

    /// Validates the configuration, panicking with a descriptive message on
    /// nonsensical values. Called by [`LogGaborBank::new`].
    fn validate(&self) {
        assert!(self.num_scales >= 1, "need at least one scale");
        assert!(self.num_orientations >= 2, "need at least two orientations");
        assert!(self.min_wavelength >= 2.0, "min wavelength below Nyquist (2 px)");
        assert!(self.mult > 1.0, "scale multiplier must exceed 1");
        assert!(self.sigma_on_f > 0.0 && self.sigma_on_f < 1.0, "sigma_on_f must be in (0, 1)");
        assert!(self.d_theta_on_sigma > 0.0, "d_theta_on_sigma must be positive");
    }
}

/// A pre-computed Log-Gabor filter bank for one image size.
///
/// Construction takes `O((1 + N_s + N_o) · H · W)` transcendental calls
/// and `O(N_s · N_o · H · W)` multiplications; the bank can be reused
/// across every image of the same size. It stores only the packed
/// complex form of the transfer functions (`N_o · ⌈N_s/2⌉` grids of
/// `H/2 + 1` rows, 12.09 MiB at 256² with the default 4 scales × 12
/// orientations), in 2-D bit-reversed order; [`LogGaborBank::filter`]
/// unpacks a single real-valued transfer function in natural order on
/// demand.
///
/// # Example
///
/// ```
/// use bba_signal::{Grid, LogGaborBank, LogGaborConfig};
/// use bba_signal::FftWorkspace;
/// let bank = LogGaborBank::new(64, 64, LogGaborConfig::default());
/// let img = Grid::new(64, 64, 0.0);
/// let mut ws = FftWorkspace::new();
/// bank.orientation_amplitudes_into(&img, &mut ws)?;
/// assert_eq!(ws.amplitudes().count(), 12);
/// # Ok::<(), bba_signal::FftError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LogGaborBank {
    config: LogGaborConfig,
    width: usize,
    height: usize,
    /// `packed[o][p]` — scales `2p` and `2p+1` of orientation `o` packed as
    /// `L_{2p} + i·L_{2p+1}` (imaginary part zero for a trailing odd scale).
    /// Because both transfer functions are real and even-symmetric, one
    /// inverse FFT of `F·packed` yields both spatial responses at once:
    /// scale `2p` in the real part, `2p+1` in the imaginary part. In 2-D
    /// bit-reversed order cell `(u, v)` holds frequency bin
    /// `(rev_W(u), rev_H(v))` and equals cell `(m(u), m(v))` bit for bit,
    /// `m` being [`bitrev_mirror`]; each grid keeps only the rows `v` with
    /// `m(v) ≥ v`, in ascending order (see [`packed_row`]).
    packed: Vec<Vec<Grid<Complex>>>,
}

/// Frequency of FFT bin `k` of an `n`-point axis: `k/n` for `k ≤ n/2`,
/// `(k − n)/n` above.
fn freq_axis(n: usize, k: usize) -> f64 {
    let k = k as isize;
    let n = n as isize;
    let signed = if k <= n / 2 { k } else { k - n };
    signed as f64 / n as f64
}

/// Row `v` of a packed grid in bit-reversed order: its stored row, or —
/// flagged `true` — the stored row of its mirror `m(v) < v`, whose cell
/// `m(u)` holds cell `u` of row `v`. The stored rows are 0, 1 and the
/// first half of each octave block `[2^j, 2^(j+1))`, so stored row `v ≥ 2`
/// sits at position `v + 1 − 2^(j−1)`.
fn packed_row(pair: &Grid<Complex>, v: usize) -> (&[Complex], bool) {
    let stored = v.min(bitrev_mirror(v));
    let at = if stored < 2 { stored } else { stored + 1 - (1 << stored.ilog2()) / 2 };
    let w = pair.width();
    (&pair.as_slice()[at * w..(at + 1) * w], stored < v)
}

/// `dst = spectrum · packed`, cell by cell in bit-reversed order: a
/// stored row multiplies straight, any other row reads its mirror row
/// through [`bba_simd::cmul_mirrored`]. Each product has the operands and
/// rounding of a product with the full grid.
fn filter_product(dst: &mut [Complex], spectrum: &[Complex], pair: &Grid<Complex>) {
    let w = pair.width();
    for (v, (d, s)) in dst.chunks_exact_mut(w).zip(spectrum.chunks_exact(w)).enumerate() {
        let (row, mirrored) = packed_row(pair, v);
        let product = if mirrored { bba_simd::cmul_mirrored } else { bba_simd::cmul };
        product(as_floats_mut(d), as_floats(s), as_floats(row));
    }
}

impl LogGaborBank {
    /// Builds the bank for `width × height` images, serially: per bin the
    /// radius and the angle's sine and cosine, per (bin, scale) the radial
    /// log-Gaussian, per (bin, orientation) the angular Gaussian. Each
    /// transfer value is `radial · angular`, averaged with its mirror
    /// bin's, and packed straight into the stored rows.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`LogGaborConfig`]) or if
    /// either dimension is not a power of two.
    pub fn new(width: usize, height: usize, config: LogGaborConfig) -> Self {
        config.validate();
        assert!(
            width.is_power_of_two() && height.is_power_of_two(),
            "image sides must be powers of two, got {width}x{height}"
        );
        let theta_sigma = PI / config.num_orientations as f64 / config.d_theta_on_sigma;
        let log_sigma = config.sigma_on_f.ln().abs();

        // Per bin, in natural order: the radius, then sin θ and cos θ of
        // the frequency vector's angle.
        let bins = width * height;
        let (mut radius, mut sin_t, mut cos_t) =
            (Vec::with_capacity(bins), Vec::with_capacity(bins), Vec::with_capacity(bins));
        for v in 0..height {
            let fy = freq_axis(height, v);
            for u in 0..width {
                let fx = freq_axis(width, u);
                radius.push((fx * fx + fy * fy).sqrt());
                let theta = fy.atan2(fx);
                sin_t.push(theta.sin());
                cos_t.push(theta.cos());
            }
        }
        // Per scale and bin: the radial log-Gaussian, zero at DC.
        let radial: Vec<Vec<f64>> = (0..config.num_scales)
            .map(|s| {
                let f0 = config.center_frequency(s);
                radius
                    .iter()
                    .map(|&r| {
                        if r < 1e-12 {
                            return 0.0;
                        }
                        let lr = (r / f0).ln();
                        (-lr * lr / (2.0 * log_sigma * log_sigma)).exp()
                    })
                    .collect()
            })
            .collect();
        drop(radius);

        // Each stored cell's bin and mirror bin, as natural-order indices.
        let (rev_w, rev_h) = (bitrev_order(width), bitrev_order(height));
        let mirror_bin = |n: usize, k: u32| (n - k as usize) % n;
        let mut cells = Vec::with_capacity(width * (height / 2 + 1));
        for v in (0..height).filter(|&v| bitrev_mirror(v) >= v) {
            let bv = rev_h[v];
            cells.extend(rev_w.iter().map(|&bu| {
                let bin = bv as usize * width + bu as usize;
                (bin, mirror_bin(height, bv) * width + mirror_bin(width, bu))
            }));
        }

        let mut angular = vec![0.0; bins];
        let packed = (0..config.num_orientations)
            .map(|o| {
                // Angular Gaussian on the folded orientation difference
                // (filters are π-periodic for real images; cover both
                // half-planes).
                let (sin0, cos0) = config.orientation_angle(o).sin_cos();
                for ((a, &st), &ct) in angular.iter_mut().zip(&sin_t).zip(&cos_t) {
                    let ds = st * cos0 - ct * sin0;
                    let dc = ct * cos0 + st * sin0;
                    let dtheta = ds.atan2(dc).abs();
                    let dtheta = dtheta.min(PI - dtheta); // fold to [0, π/2]
                    *a = (-dtheta * dtheta / (2.0 * theta_sigma * theta_sigma)).exp();
                }
                // Even-symmetrise: the Nyquist row/column are their own
                // conjugate mirrors, but the +0.5 frequency convention
                // assigns them a single alias angle, leaving `L[k] ≠ L[−k]`
                // there. Averaging each bin with its mirror (exact for
                // already-equal bins: 0.5·(a+a) = a) restores `L[k] = L[−k]`
                // everywhere, so every spatial response is exactly real —
                // the property the packed-inverse-pair fast path rests on.
                // It is also the more faithful filter: a Nyquist bin
                // represents both ±0.5 aliases.
                let transfer = |s: usize, (bin, mirror): (usize, usize)| {
                    let r = &radial[s];
                    0.5 * (r[bin] * angular[bin] + r[mirror] * angular[mirror])
                };
                (0..config.num_scales)
                    .step_by(2)
                    .map(|s| {
                        let data: Vec<Complex> = cells
                            .iter()
                            .map(|&cell| {
                                let im = if s + 1 < config.num_scales {
                                    transfer(s + 1, cell)
                                } else {
                                    0.0
                                };
                                Complex::new(transfer(s, cell), im)
                            })
                            .collect();
                        Grid::from_vec(width, cells.len() / width, data)
                    })
                    .collect()
            })
            .collect();
        LogGaborBank { config, width, height, packed }
    }

    /// The configuration used to build the bank.
    pub fn config(&self) -> &LogGaborConfig {
        &self.config
    }

    /// Image width the bank was built for.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height the bank was built for.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The frequency-domain transfer function of filter `(s, o)` in
    /// natural bin order: the real (even `s`) or imaginary (odd `s`) half
    /// of its packed grid, exactly the values the fast path multiplies by.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `o` is out of range.
    pub fn filter(&self, s: usize, o: usize) -> Grid<f64> {
        assert!(s < self.config.num_scales, "scale {s} out of range");
        let pair = &self.packed[o][s / 2];
        let (rev_w, rev_h) = (bitrev_order(self.width), bitrev_order(self.height));
        Grid::from_fn(self.width, self.height, |u, v| {
            let (cu, cv) = (rev_w[u] as usize, rev_h[v] as usize);
            let (row, mirrored) = packed_row(pair, cv);
            let z = row[if mirrored { bitrev_mirror(cu) } else { cu }];
            if s.is_multiple_of(2) {
                z.re
            } else {
                z.im
            }
        })
    }

    /// Amplitude response per orientation, summed over scales — the paper's
    /// Eq. (8)–(9): `A(ρ,θ,o) = Σ_s ‖B * L(·,·,s,o)‖`.
    ///
    /// Allocation-free: fills the workspace's `N_o` per-orientation
    /// accumulators (read them back via [`FftWorkspace::amplitude`] /
    /// [`FftWorkspace::amplitudes`]) without touching the heap once `ws`
    /// has seen this image size. Production never materialises the
    /// amplitudes (see [`LogGaborBank::mim_fused_into`]); this is the
    /// first pass of the reference MIM
    /// ([`MaxIndexMap::compute_via_amplitudes`](crate::MaxIndexMap::compute_via_amplitudes)).
    ///
    /// This is the frequency-domain fast path: one real forward transform
    /// ([`rfft2d`](crate::rfft2d) packing), permuted once in place into the
    /// bank's 2-D bit-reversed order, then per orientation `⌈N_s/2⌉` packed
    /// inverse transforms — scales `2p` and `2p+1` share one inverse FFT
    /// because their filter responses are real (even-symmetric transfer
    /// functions), landing in the real and imaginary parts respectively.
    /// Each orientation owns a workspace lane, scales accumulate in
    /// ascending order, and the `1/(W·H)` inverse normalisation is fused
    /// into the accumulation.
    ///
    /// # Errors
    ///
    /// Returns [`FftError`] if the image dimensions are not powers of two.
    ///
    /// # Panics
    ///
    /// Panics if the image shape differs from the bank's.
    pub fn orientation_amplitudes_into(
        &self,
        img: &Grid<f64>,
        ws: &mut FftWorkspace,
    ) -> Result<(), FftError> {
        assert_eq!(
            (img.width(), img.height()),
            (self.width, self.height),
            "image shape does not match filter bank"
        );
        ws.ensure(self.width, self.height, self.config.num_orientations)?;
        let FftWorkspace { plans, spectrum, pack, lanes, .. } = ws;
        let (plan_w, plan_h) = plans.as_ref().expect("ensure always sets plans");
        rfft2d_into(img, plan_w, plan_h, spectrum, pack);
        bitrev_permute(spectrum.as_mut_slice(), plan_w, plan_h);
        let num_scales = self.config.num_scales;
        let scale = 1.0 / (self.width * self.height) as f64;
        for (lane, pairs) in lanes.iter_mut().zip(&self.packed) {
            for (p, pair) in pairs.iter().enumerate() {
                // Frequency-domain product F·(L_a + i·L_b) = F_a + i·F_b,
                // vectorised with scalar-identical rounding.
                filter_product(&mut lane.filtered, spectrum.as_slice(), pair);
                ifft2d_bitrev_unscaled_into(&mut lane.filtered, plan_w, plan_h);
                // Split the packed pair and accumulate, fusing the 1/(W·H)
                // normalisation. The responses are mathematically real, so
                // amplitude ‖·‖ reduces to |re| (and |im| for the partner).
                let both = 2 * p + 1 < num_scales;
                bba_simd::amp_accumulate(
                    lane.acc.as_mut_slice(),
                    as_floats(&lane.filtered),
                    scale,
                    both,
                    p == 0,
                );
            }
        }
        Ok(())
    }

    /// Fused streaming MIM reduction — the Eq. (9)–(10) argmax without ever
    /// materialising the per-orientation amplitude grids.
    ///
    /// The output grids carry the running argmax. Per orientation, in
    /// ascending order, the non-final packed scale pairs accumulate into
    /// one workspace lane's running sum exactly as on the full path; the
    /// final pair folds the completed amplitude straight into
    /// `(amplitude, index)` with strict `>` (first orientation wins ties).
    /// That is one serial argmax pass over all orientations, so results are
    /// bit-identical to
    /// [`MaxIndexMap::compute_via_amplitudes`](crate::MaxIndexMap::compute_via_amplitudes).
    ///
    /// With caller-provided output grids this is the fully allocation-free
    /// MIM entry point: once `ws` has seen the image size, steady-state
    /// calls never touch the heap (proved by
    /// `crates/signal/tests/alloc_free.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`FftError`] if the image dimensions are not powers of two.
    ///
    /// # Panics
    ///
    /// Panics if the image or output shapes differ from the bank's.
    pub fn mim_fused_into(
        &self,
        img: &Grid<f64>,
        ws: &mut FftWorkspace,
        index: &mut Grid<u8>,
        amplitude: &mut Grid<f64>,
    ) -> Result<(), FftError> {
        assert_eq!(
            (img.width(), img.height()),
            (self.width, self.height),
            "image shape does not match filter bank"
        );
        assert_eq!((index.width(), index.height()), (self.width, self.height));
        assert_eq!((amplitude.width(), amplitude.height()), (self.width, self.height));
        ws.ensure(self.width, self.height, 1)?;
        let FftWorkspace { plans, spectrum, pack, lanes, .. } = ws;
        let (plan_w, plan_h) = plans.as_ref().expect("ensure always sets plans");
        rfft2d_into(img, plan_w, plan_h, spectrum, pack);
        bitrev_permute(spectrum.as_mut_slice(), plan_w, plan_h);
        let num_scales = self.config.num_scales;
        let n_pairs = num_scales.div_ceil(2);
        let scale = 1.0 / (self.width * self.height) as f64;
        let lane = &mut lanes[0];
        let max_amp = amplitude.as_mut_slice();
        let max_idx = index.as_mut_slice();
        max_amp.fill(f64::NEG_INFINITY);
        max_idx.fill(0);
        for (o, pairs) in self.packed.iter().enumerate() {
            for (p, pair) in pairs.iter().enumerate() {
                filter_product(&mut lane.filtered, spectrum.as_slice(), pair);
                ifft2d_bitrev_unscaled_into(&mut lane.filtered, plan_w, plan_h);
                let both = 2 * p + 1 < num_scales;
                if p + 1 < n_pairs {
                    bba_simd::amp_accumulate(
                        lane.acc.as_mut_slice(),
                        as_floats(&lane.filtered),
                        scale,
                        both,
                        p == 0,
                    );
                } else {
                    // Final pair: complete the amplitude in-register and
                    // fold it into the running argmax.
                    let partial = (p > 0).then_some(lane.acc.as_slice());
                    bba_simd::amp_max_fold(
                        max_amp,
                        max_idx,
                        as_floats(&lane.filtered),
                        scale,
                        both,
                        partial,
                        o as u8,
                    );
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-filter build the factored one replaced, kept as its oracle:
    /// the real-valued, even-symmetrised transfer function of `(o, s)` in
    /// natural bin order, every factor evaluated afresh for every bin.
    fn transfer(
        config: &LogGaborConfig,
        width: usize,
        height: usize,
        o: usize,
        s: usize,
    ) -> Grid<f64> {
        let theta_sigma = PI / config.num_orientations as f64 / config.d_theta_on_sigma;
        let log_sigma = config.sigma_on_f.ln().abs();
        let theta0 = config.orientation_angle(o);
        let (sin0, cos0) = theta0.sin_cos();
        let f0 = config.center_frequency(s);
        let mut filt = Grid::new(width, height, 0.0);
        for v in 0..height {
            let fy = freq_axis(height, v);
            for u in 0..width {
                let fx = freq_axis(width, u);
                let radius = (fx * fx + fy * fy).sqrt();
                if radius < 1e-12 {
                    continue; // zero DC response
                }
                let lr = (radius / f0).ln();
                let radial = (-lr * lr / (2.0 * log_sigma * log_sigma)).exp();
                let theta = fy.atan2(fx);
                let ds = theta.sin() * cos0 - theta.cos() * sin0;
                let dc = theta.cos() * cos0 + theta.sin() * sin0;
                let dtheta = ds.atan2(dc).abs();
                let dtheta = dtheta.min(PI - dtheta);
                let angular = (-dtheta * dtheta / (2.0 * theta_sigma * theta_sigma)).exp();
                filt[(u, v)] = radial * angular;
            }
        }
        Grid::from_fn(width, height, |u, v| {
            let m = filt[((width - u) % width, (height - v) % height)];
            0.5 * (filt[(u, v)] + m)
        })
    }

    #[test]
    fn factored_half_bank_matches_the_per_filter_oracle_bit_for_bit() {
        // `filter` reads every stored cell once straight and once through
        // the mirror map, so this pins every packed value and the mirror
        // identity of every full grid, down to 1- and 2-row grids. Three
        // scales leave a trailing odd scale, packed with a zero imaginary
        // half.
        let odd = LogGaborConfig { num_scales: 3, ..Default::default() };
        let default = LogGaborConfig::default();
        for (cfg, w, h) in [
            (&default, 256, 256),
            (&default, 64, 32),
            (&default, 32, 16),
            (&default, 16, 16),
            (&default, 8, 2),
            (&default, 4, 1),
            (&odd, 32, 16),
        ] {
            let bank = LogGaborBank::new(w, h, cfg.clone());
            for pairs in &bank.packed {
                assert!(pairs.iter().all(|g| (g.width(), g.height()) == (w, h / 2 + 1)));
                if cfg.num_scales % 2 == 1 {
                    let last = pairs.last().unwrap().as_slice();
                    assert!(last.iter().all(|z| z.im.to_bits() == 0), "{w}x{h}: odd scale");
                }
            }
            for o in 0..cfg.num_orientations {
                for s in 0..cfg.num_scales {
                    let (want, got) = (transfer(cfg, w, h, o, s), bank.filter(s, o));
                    for (i, (a, b)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "{w}x{h} s={s} o={o} bin {i}");
                    }
                }
            }
        }
    }

    /// Per-orientation amplitudes of `img`, copied out of a fresh workspace.
    fn amplitudes(bank: &LogGaborBank, img: &Grid<f64>) -> Vec<Grid<f64>> {
        let mut ws = FftWorkspace::new();
        bank.orientation_amplitudes_into(img, &mut ws).unwrap();
        ws.amplitudes().cloned().collect()
    }

    #[test]
    fn default_config_matches_paper() {
        let c = LogGaborConfig::default();
        assert_eq!(c.num_scales, 4);
        assert_eq!(c.num_orientations, 12);
    }

    #[test]
    fn orientation_angles_span_half_circle() {
        let c = LogGaborConfig::default();
        assert_eq!(c.orientation_angle(0), 0.0);
        let last = c.orientation_angle(c.num_orientations - 1);
        assert!(last < PI);
        assert!((c.orientation_angle(6) - PI / 2.0).abs() < 1e-12);
    }

    #[test]
    fn center_frequencies_decrease_geometrically() {
        let c = LogGaborConfig::default();
        let f0 = c.center_frequency(0);
        let f1 = c.center_frequency(1);
        assert!((f0 / f1 - c.mult).abs() < 1e-12);
        assert!(f0 <= 0.5, "centre frequency above Nyquist");
    }

    #[test]
    fn filters_have_zero_dc() {
        let bank = LogGaborBank::new(32, 32, LogGaborConfig::default());
        for o in 0..12 {
            for s in 0..4 {
                assert_eq!(bank.filter(s, o)[(0, 0)], 0.0);
            }
        }
    }

    #[test]
    fn filters_are_bounded_unit() {
        let bank = LogGaborBank::new(32, 32, LogGaborConfig::default());
        for o in 0..12 {
            for s in 0..4 {
                for &x in bank.filter(s, o).as_slice() {
                    assert!((0.0..=1.0 + 1e-12).contains(&x));
                }
            }
        }
    }

    #[test]
    fn filters_are_even_symmetric_in_natural_order() {
        // `L[k] = L[−k]` on a non-square bank: the property the packed
        // inverse pairs rest on, and one that a bin order mixed up on
        // either axis would break.
        let (w, h) = (32, 16);
        let bank = LogGaborBank::new(w, h, LogGaborConfig::default());
        for o in 0..12 {
            for s in 0..4 {
                let f = bank.filter(s, o);
                for (u, v, &x) in f.iter_cells() {
                    let m = f[((w - u) % w, (h - v) % h)];
                    assert_eq!(x.to_bits(), m.to_bits(), "s={s} o={o} ({u},{v})");
                }
            }
        }
        // Orientation 0 selects the horizontal frequency axis: the scale-0
        // peak sits at `v = 0`, `|u| ≈ f₀·W = 32/3`.
        let f = bank.filter(0, 0);
        let (u, v, _) = f.iter_cells().max_by(|a, b| a.2.total_cmp(b.2)).unwrap();
        assert_eq!(v, 0);
        assert!([10, 11].contains(&u.min(w - u)), "peak at u={u}");
    }

    #[test]
    fn zero_image_gives_zero_amplitude() {
        let bank = LogGaborBank::new(16, 16, LogGaborConfig::default());
        let img = Grid::new(16, 16, 0.0);
        let amps = amplitudes(&bank, &img);
        assert_eq!(amps.len(), 12);
        for a in amps {
            assert!(a.max_value() < 1e-12);
        }
    }

    #[test]
    fn oriented_edge_excites_matching_orientation() {
        // A strong vertical line (edge along the y / v direction).
        let mut img = Grid::new(64, 64, 0.0);
        for v in 0..64 {
            img[(32, v)] = 10.0;
        }
        let cfg = LogGaborConfig::default();
        let bank = LogGaborBank::new(64, 64, cfg.clone());
        let amps = amplitudes(&bank, &img);
        // Response at the line centre, per orientation.
        let responses: Vec<f64> = amps.iter().map(|a| a[(32, 32)]).collect();
        let best = responses.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        // A line along v varies along u (the x direction): its frequency
        // content lies on the horizontal frequency axis, i.e. θ≈0.
        let angle = cfg.orientation_angle(best);
        let folded = angle.min(PI - angle);
        assert!(
            folded < PI / 6.0,
            "expected near-0 orientation, got {}° (responses {responses:?})",
            angle.to_degrees()
        );
    }

    #[test]
    fn amplitude_scales_linearly_with_contrast() {
        let mut img = Grid::new(32, 32, 0.0);
        for v in 8..24 {
            img[(16, v)] = 2.0;
        }
        let img2 = img.map(|&x| x * 3.0);
        let bank = LogGaborBank::new(32, 32, LogGaborConfig::default());
        let a1 = amplitudes(&bank, &img);
        let a2 = amplitudes(&bank, &img2);
        for (g1, g2) in a1.iter().zip(&a2) {
            for (x, y) in g1.as_slice().iter().zip(g2.as_slice()) {
                assert!((y - 3.0 * x).abs() < 1e-9 * (1.0 + x.abs()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match filter bank")]
    fn shape_mismatch_panics() {
        let bank = LogGaborBank::new(16, 16, LogGaborConfig::default());
        let img = Grid::new(32, 32, 0.0);
        let _ = bank.orientation_amplitudes_into(&img, &mut FftWorkspace::new());
    }

    #[test]
    #[should_panic(expected = "image sides must be powers of two")]
    fn non_power_of_two_side_panics() {
        let _ = LogGaborBank::new(24, 16, LogGaborConfig::default());
    }

    #[test]
    #[should_panic(expected = "at least two orientations")]
    fn invalid_config_panics() {
        let cfg = LogGaborConfig { num_orientations: 1, ..Default::default() };
        let _ = LogGaborBank::new(16, 16, cfg);
    }
}
