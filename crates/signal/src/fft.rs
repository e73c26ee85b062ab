//! Fast Fourier transforms, 1-D and 2-D, over planned radix-2 kernels.
//!
//! The Log-Gabor filtering of BB-Align's stage 1 applies 48 filters
//! (`N_s = 4` scales × `N_o = 12` orientations) to every BV image. Doing
//! that as spatial convolution would be `O(H²·K²)` per filter; in the
//! frequency domain it is one forward 2-D FFT of the image, a per-filter
//! complex multiply, and one inverse 2-D FFT per filter. This module
//! provides exactly that machinery, hand-rolled (no external FFT crates are
//! available offline), on top of the precomputed tables in [`crate::plan`].
//!
//! Two structural facts of the pipeline are exploited (see DESIGN.md,
//! "Frequency-domain fast path"): the BV image is **real**, so the forward
//! transform packs two rows per complex FFT and mirrors the Hermitian half
//! of the column spectrum ([`rfft2d`]); and every folded Log-Gabor transfer
//! function is even-symmetric, so each filter response is real and two
//! responses ride one inverse transform (see
//! [`crate::LogGaborBank::orientation_amplitudes_into`]). Those inverse
//! transforms run on a spectrum held in 2-D bit-reversed order, so they
//! reorder nothing and sweep their columns as whole rows.

use crate::complex::Complex;
use crate::grid::Grid;
use crate::plan::{shared_plan, Direction, FftPlan};
use std::error::Error;
use std::fmt;

/// Error returned for invalid FFT input sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FftError {
    /// The length is not a power of two.
    NotPowerOfTwo {
        /// The offending length.
        len: usize,
    },
}

impl fmt::Display for FftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FftError::NotPowerOfTwo { len } => {
                write!(f, "FFT length must be a power of two, got {len}")
            }
        }
    }
}

impl Error for FftError {}

/// In-place forward FFT of a power-of-two-length buffer.
///
/// Uses the unnormalised convention: `X[k] = Σ_n x[n]·e^{-2πi·kn/N}`.
/// Fetches the length's plan from the process-wide cache; hot loops that
/// already hold an [`FftPlan`] should call it directly.
///
/// # Errors
///
/// Returns [`FftError::NotPowerOfTwo`] for invalid lengths.
///
/// # Example
///
/// ```
/// use bba_signal::{fft_inplace, Complex};
/// // The FFT of an impulse is flat.
/// let mut x = vec![Complex::ZERO; 8];
/// x[0] = Complex::ONE;
/// fft_inplace(&mut x)?;
/// assert!(x.iter().all(|z| (z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12));
/// # Ok::<(), bba_signal::FftError>(())
/// ```
pub fn fft_inplace(x: &mut [Complex]) -> Result<(), FftError> {
    shared_plan(x.len())?.forward(x);
    Ok(())
}

/// In-place inverse FFT (normalised by `1/N`), so
/// `ifft(fft(x)) == x` up to floating-point error.
///
/// # Errors
///
/// Returns [`FftError::NotPowerOfTwo`] for invalid lengths.
pub fn ifft_inplace(x: &mut [Complex]) -> Result<(), FftError> {
    shared_plan(x.len())?.inverse(x);
    Ok(())
}

/// Forward 2-D FFT of a real-valued grid, returning the complex spectrum.
///
/// Both dimensions must be powers of two (BB-Align BV images are generated
/// at power-of-two resolutions, e.g. 256² or 512²). For real input, [`rfft2d`] computes the same
/// spectrum in roughly half the work.
///
/// # Errors
///
/// Returns [`FftError::NotPowerOfTwo`] if either dimension is invalid.
pub fn fft2d(img: &Grid<f64>) -> Result<Grid<Complex>, FftError> {
    let mut spec = img.map(|&x| Complex::from_real(x));
    fft2d_passes(&mut spec, false)?;
    Ok(spec)
}

/// Row pass then column pass of a 2-D FFT: columns are transposed into a
/// scratch grid, transformed there as rows, and scattered back.
fn fft2d_passes(spec: &mut Grid<Complex>, inverse: bool) -> Result<(), FftError> {
    let w = spec.width();
    let h = spec.height();
    let plan_w = shared_plan(w)?;
    let plan_h = shared_plan(h)?;
    let run = |plan: &FftPlan, buf: &mut [Complex]| {
        if inverse {
            plan.inverse_unscaled(buf);
        } else {
            plan.forward(buf);
        }
    };
    for row in spec.as_mut_slice().chunks_mut(w) {
        run(&plan_w, row);
    }
    // Transposed scratch: row `u` of `t` is column `u` of `spec`.
    let mut t = Grid::new(h, w, Complex::ZERO);
    for (u, trow) in t.as_mut_slice().chunks_mut(h).enumerate() {
        for (v, z) in trow.iter_mut().enumerate() {
            *z = spec[(u, v)];
        }
        run(&plan_h, trow);
    }
    for (v, row) in spec.as_mut_slice().chunks_mut(w).enumerate() {
        for (u, z) in row.iter_mut().enumerate() {
            *z = t[(v, u)];
        }
    }
    Ok(())
}

/// Inverse 2-D FFT, returning the complex spatial-domain result.
///
/// Normalised by `1/(W·H)`, so `fft2d_inverse(fft2d(img))` recovers `img`
/// up to floating-point error.
///
/// # Errors
///
/// Returns [`FftError::NotPowerOfTwo`] if either dimension is invalid.
pub fn fft2d_inverse(spec: &Grid<Complex>) -> Result<Grid<Complex>, FftError> {
    let w = spec.width();
    let h = spec.height();
    let mut out = spec.clone();
    fft2d_passes(&mut out, true)?;
    let scale = 1.0 / (w * h) as f64;
    for z in out.as_mut_slice() {
        *z = z.scale(scale);
    }
    Ok(out)
}

/// Forward 2-D FFT of a real-valued grid via the real-input fast path:
/// identical spectrum to [`fft2d`] (up to rounding) in roughly half the
/// work.
///
/// Two real rows are packed into one complex FFT and unpacked through the
/// Hermitian symmetry of real-signal spectra, halving the row pass; the
/// column pass transforms only bins `0..=W/2` and mirrors the rest from
/// `F(u,v) = conj(F(W−u, H−v))`, halving the column pass.
///
/// # Errors
///
/// Returns [`FftError::NotPowerOfTwo`] if either dimension is invalid.
pub fn rfft2d(img: &Grid<f64>) -> Result<Grid<Complex>, FftError> {
    let w = img.width();
    let h = img.height();
    let plan_w = shared_plan(w)?;
    let plan_h = shared_plan(h)?;
    let mut spec = Grid::new(w, h, Complex::ZERO);
    let mut pack = vec![Complex::ZERO; w];
    rfft2d_into(img, &plan_w, &plan_h, &mut spec, &mut pack);
    Ok(spec)
}

/// Allocation-free core of [`rfft2d`]: writes the full complex spectrum of
/// `img` into `spec` using the caller's row-pack scratch (`pack`, length
/// `W`).
///
/// # Panics
///
/// Panics (in the underlying plan) if the plans or buffers do not match the
/// image dimensions.
pub(crate) fn rfft2d_into(
    img: &Grid<f64>,
    plan_w: &FftPlan,
    plan_h: &FftPlan,
    spec: &mut Grid<Complex>,
    pack: &mut [Complex],
) {
    let w = img.width();
    let h = img.height();
    debug_assert_eq!((spec.width(), spec.height()), (w, h));
    // Row pass: two real rows per complex transform. With Z the transform
    // of `row_a + i·row_b`, Hermitian symmetry separates the pair:
    // `F_a[k] = (Z[k] + conj(Z[W−k]))/2`, `F_b[k] = (Z[k] − conj(Z[W−k]))/(2i)`.
    if h == 1 {
        for (z, &x) in spec.as_mut_slice().iter_mut().zip(img.as_slice()) {
            *z = Complex::from_real(x);
        }
        plan_w.forward(spec.as_mut_slice());
        return;
    }
    for vp in 0..h / 2 {
        let (v0, v1) = (2 * vp, 2 * vp + 1);
        let row0 = img.row(v0);
        let row1 = img.row(v1);
        for (u, z) in pack.iter_mut().enumerate() {
            *z = Complex::new(row0[u], row1[u]);
        }
        plan_w.forward(pack);
        for k in 0..w {
            let z = pack[k];
            let zc = pack[(w - k) & (w - 1)].conj();
            spec[(k, v0)] = (z + zc).scale(0.5);
            let d = (z - zc).scale(0.5); // = i·F_b[k]
            spec[(k, v1)] = Complex::new(d.im, -d.re);
        }
    }
    // Column pass on bins 0..=W/2, run as whole-row butterflies over the
    // row prefixes once those are swapped into bit-reversed row order; the
    // upper half follows from the Hermitian symmetry of the full
    // real-input 2-D spectrum.
    let prefix = w / 2 + 1;
    let data = spec.as_mut_slice();
    for (v, &r) in plan_h.bitrev().iter().enumerate() {
        let r = r as usize;
        if v < r {
            let (head, tail) = data.split_at_mut(r * w);
            head[v * w..v * w + prefix].swap_with_slice(&mut tail[..prefix]);
        }
    }
    plan_h.columns_bitrev(data, w, prefix, Direction::Forward);
    for v in 0..h {
        let mirror = (h - v) & (h - 1);
        for u in prefix..w {
            spec[(u, v)] = spec[(w - u, mirror)].conj();
        }
    }
}

/// Moves the `W × H` row-major grid `data` in place into 2-D bit-reversed
/// order: the element at `(u, v)` trades places with the one at
/// `(rev_W(u), rev_H(v))`. Bit reversal is its own inverse on each axis,
/// so the 2-D permutation is an involution — every element has exactly
/// one partner (possibly itself), one sweep of pair swaps applies it, and
/// a second application restores natural order.
pub(crate) fn bitrev_permute(data: &mut [Complex], plan_w: &FftPlan, plan_h: &FftPlan) {
    let (w, rev_w) = (plan_w.size(), plan_w.bitrev());
    debug_assert_eq!(data.len(), w * plan_h.size());
    for (v, &r) in plan_h.bitrev().iter().enumerate() {
        let r = r as usize;
        if v < r {
            let (head, tail) = data.split_at_mut(r * w);
            let (row_v, row_r) = (&mut head[v * w..(v + 1) * w], &mut tail[..w]);
            for (z, &ru) in row_v.iter_mut().zip(rev_w) {
                std::mem::swap(z, &mut row_r[ru as usize]);
            }
        } else if v == r {
            let row = &mut data[v * w..(v + 1) * w];
            for (u, &ru) in rev_w.iter().enumerate() {
                if u < ru as usize {
                    row.swap(u, ru as usize);
                }
            }
        }
    }
}

/// Unnormalised inverse 2-D FFT of a `W × H` spectrum held in 2-D
/// bit-reversed order ([`bitrev_permute`]), in place; the result is the
/// spatial grid in natural order. Decimation-in-time butterflies take
/// bit-reversed input to natural-order output, so neither pass reorders
/// anything: the row pass runs its levels straight over all rows, and the
/// column pass butterflies whole rows. Every element goes through the
/// operations of the natural-layout inverse (bit reversal, then the same
/// levels with the same twiddles), so the result is bit-identical to it.
/// The caller applies the `1/(W·H)` normalisation, typically fused into
/// whatever pass consumes the result.
pub(crate) fn ifft2d_bitrev_unscaled_into(
    data: &mut [Complex],
    plan_w: &FftPlan,
    plan_h: &FftPlan,
) {
    let w = plan_w.size();
    debug_assert_eq!(data.len(), w * plan_h.size());
    plan_w.rows_bitrev(data, Direction::Inverse);
    plan_h.columns_bitrev(data, w, w, Direction::Inverse);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Complex, b: Complex, tol: f64) {
        assert!((a - b).abs() < tol, "{a:?} vs {b:?}");
    }

    #[test]
    fn rejects_non_pow2() {
        let mut x = vec![Complex::ZERO; 6];
        assert_eq!(fft_inplace(&mut x).unwrap_err(), FftError::NotPowerOfTwo { len: 6 });
        assert!(!FftError::NotPowerOfTwo { len: 6 }.to_string().is_empty());
        assert!(rfft2d(&Grid::new(6, 4, 0.0)).is_err());
    }

    #[test]
    fn dc_signal_concentrates_at_zero() {
        let mut x = vec![Complex::ONE; 8];
        fft_inplace(&mut x).unwrap();
        assert_close(x[0], Complex::from_real(8.0), 1e-12);
        for &z in &x[1..] {
            assert!(z.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_on_its_bin() {
        let n = 32;
        let k0 = 5;
        let mut x: Vec<Complex> = (0..n)
            .map(|n_i| Complex::cis(2.0 * std::f64::consts::PI * k0 as f64 * n_i as f64 / n as f64))
            .collect();
        fft_inplace(&mut x).unwrap();
        for (k, &z) in x.iter().enumerate() {
            if k == k0 {
                assert_close(z, Complex::from_real(n as f64), 1e-9);
            } else {
                assert!(z.abs() < 1e-9, "leak at bin {k}: {z:?}");
            }
        }
    }

    #[test]
    fn roundtrip_1d() {
        let x: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut y = x.clone();
        fft_inplace(&mut y).unwrap();
        ifft_inplace(&mut y).unwrap();
        for (a, b) in x.iter().zip(y.iter()) {
            assert_close(*a, *b, 1e-10);
        }
    }

    #[test]
    fn ifft_applies_1_over_n_scaling() {
        // A flat spectrum of ones is the transform of a unit impulse: the
        // inverse must produce exactly δ[0] = 1 (not N).
        let mut x = vec![Complex::ONE; 16];
        ifft_inplace(&mut x).unwrap();
        assert_close(x[0], Complex::ONE, 1e-12);
        for &z in &x[1..] {
            assert!(z.abs() < 1e-12);
        }
    }

    #[test]
    fn linearity() {
        let a: Vec<Complex> = (0..16).map(|i| Complex::from_real(i as f64)).collect();
        let b: Vec<Complex> = (0..16).map(|i| Complex::from_real((i * i % 7) as f64)).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum.clone();
        fft_inplace(&mut fa).unwrap();
        fft_inplace(&mut fb).unwrap();
        fft_inplace(&mut fs).unwrap();
        for i in 0..16 {
            assert_close(fs[i], fa[i] + fb[i], 1e-9);
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let x: Vec<Complex> = (0..128).map(|i| Complex::new((i as f64).sin(), 0.0)).collect();
        let time_energy: f64 = x.iter().map(|z| z.norm_sq()).sum();
        let mut f = x.clone();
        fft_inplace(&mut f).unwrap();
        let freq_energy: f64 = f.iter().map(|z| z.norm_sq()).sum::<f64>() / 128.0;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    fn roundtrip_2d() {
        let img = Grid::from_fn(16, 8, |u, v| ((u * 3 + v * 7) % 11) as f64);
        let spec = fft2d(&img).unwrap();
        let back = fft2d_inverse(&spec).unwrap();
        for (u, v, &x) in img.iter_cells() {
            let z = back[(u, v)];
            assert!((z.re - x).abs() < 1e-9 && z.im.abs() < 1e-9);
        }
    }

    #[test]
    fn fft2d_inverse_applies_1_over_wh_scaling() {
        // Flat 2-D spectrum ⇒ unit impulse at the origin, amplitude exactly
        // 1 only when the inverse divides by W·H once (not per pass).
        let spec = Grid::new(8, 4, Complex::ONE);
        let back = fft2d_inverse(&spec).unwrap();
        assert_close(back[(0, 0)], Complex::ONE, 1e-12);
        for (u, v, &z) in back.iter_cells() {
            if (u, v) != (0, 0) {
                assert!(z.abs() < 1e-12, "nonzero at ({u},{v}): {z:?}");
            }
        }
    }

    #[test]
    fn dc_2d_is_image_sum() {
        let img = Grid::from_fn(8, 8, |u, v| (u + v) as f64);
        let spec = fft2d(&img).unwrap();
        let total: f64 = img.as_slice().iter().sum();
        assert_close(spec[(0, 0)], Complex::from_real(total), 1e-9);
    }

    #[test]
    fn real_input_has_hermitian_spectrum() {
        let img = Grid::from_fn(8, 8, |u, v| ((u * 5 + v * 3) % 4) as f64);
        let spec = fft2d(&img).unwrap();
        for v in 0..8 {
            for u in 0..8 {
                let conj_u = (8 - u) % 8;
                let conj_v = (8 - v) % 8;
                assert_close(spec[(u, v)], spec[(conj_u, conj_v)].conj(), 1e-9);
            }
        }
    }

    /// A deterministic complex grid with mixed signs and magnitudes.
    fn complex_grid(w: usize, h: usize) -> Grid<Complex> {
        Grid::from_fn(w, h, |u, v| {
            let t = (u * 131 + v * 71) as f64;
            Complex::new((t * 0.37).sin() * 3.0, ((t * 0.11).cos() - 0.2) * 0.5)
        })
    }

    #[test]
    fn bitrev_permute_is_an_involution() {
        for (w, h) in [(1, 8), (8, 1), (2, 2), (16, 4), (4, 16)] {
            let (plan_w, plan_h) = (shared_plan(w).unwrap(), shared_plan(h).unwrap());
            let grid = complex_grid(w, h);
            let mut data = grid.as_slice().to_vec();
            bitrev_permute(&mut data, &plan_w, &plan_h);
            for (u, v, &z) in grid.iter_cells() {
                let (ru, rv) = (plan_w.bitrev()[u] as usize, plan_h.bitrev()[v] as usize);
                assert_eq!(data[rv * w + ru], z, "{w}x{h} ({u},{v})");
            }
            bitrev_permute(&mut data, &plan_w, &plan_h);
            assert_eq!(data, grid.as_slice(), "{w}x{h}: twice must restore the order");
        }
    }

    #[test]
    fn bitrev_inverse_matches_reference_inverse_bitwise() {
        // The production inverse (permute, then DIT rows and whole-row
        // columns) against the natural-layout reference, which bit-reverses
        // every 1-D transform itself and runs columns through a transposed
        // scratch grid.
        for (w, h) in [(1, 8), (8, 1), (2, 2), (16, 4), (4, 16), (64, 32), (256, 256)] {
            let (plan_w, plan_h) = (shared_plan(w).unwrap(), shared_plan(h).unwrap());
            let spec = complex_grid(w, h);
            let reference = fft2d_inverse(&spec).unwrap();
            let mut data = spec.as_slice().to_vec();
            bitrev_permute(&mut data, &plan_w, &plan_h);
            ifft2d_bitrev_unscaled_into(&mut data, &plan_w, &plan_h);
            let scale = 1.0 / (w * h) as f64;
            for (i, (z, r)) in data.iter().zip(reference.as_slice()).enumerate() {
                let z = z.scale(scale);
                assert_eq!(z.re.to_bits(), r.re.to_bits(), "{w}x{h} re at {i}");
                assert_eq!(z.im.to_bits(), r.im.to_bits(), "{w}x{h} im at {i}");
            }
        }
    }

    #[test]
    fn rfft2d_matches_fft2d() {
        for (w, h) in [(16, 16), (8, 32), (32, 1), (1, 8), (2, 2)] {
            let img = Grid::from_fn(w, h, |u, v| ((u * 13 + v * 7) % 9) as f64 - 3.0);
            let full = fft2d(&img).unwrap();
            let real = rfft2d(&img).unwrap();
            for i in 0..full.len() {
                let (a, b) = (full.as_slice()[i], real.as_slice()[i]);
                assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "{w}x{h} bin {i}: {a:?} vs {b:?}");
            }
        }
    }
}
