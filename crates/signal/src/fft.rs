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
//! [`crate::LogGaborBank::orientation_amplitudes_into`]).

use crate::complex::Complex;
use crate::grid::Grid;
use crate::plan::{shared_plan, FftPlan};
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
    let mut col = vec![Complex::ZERO; 4 * h];
    rfft2d_into(img, &plan_w, &plan_h, &mut spec, &mut pack, &mut col);
    Ok(spec)
}

/// Allocation-free core of [`rfft2d`]: writes the full complex spectrum of
/// `img` into `spec` using caller-provided scratch (`pack` of length `W`,
/// `col` of length at least `H`; `2·H` unlocks the paired-column fast
/// path).
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
    col: &mut [Complex],
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
    // Column pass on bins 0..=W/2; the upper half follows from the
    // Hermitian symmetry of the full real-input 2-D spectrum. When the
    // scratch has room for two interleaved columns, adjacent bins ride one
    // two-stream transform ([`FftPlan::forward_pair`]) so the butterflies
    // see contiguous vector lanes; each stream is bit-identical to its
    // single-column transform.
    let top = w / 2;
    let mut u = 0;
    if col.len() >= 2 * h {
        let pair = &mut col[..2 * h];
        while u < top {
            for v in 0..h {
                pair[2 * v] = spec[(u, v)];
                pair[2 * v + 1] = spec[(u + 1, v)];
            }
            plan_h.forward_pair(pair);
            for v in 0..h {
                spec[(u, v)] = pair[2 * v];
                spec[(u + 1, v)] = pair[2 * v + 1];
            }
            u += 2;
        }
    }
    while u <= top {
        let single = &mut col[..h];
        for (v, z) in single.iter_mut().enumerate() {
            *z = spec[(u, v)];
        }
        plan_h.forward(single);
        for (v, &z) in single.iter().enumerate() {
            spec[(u, v)] = z;
        }
        u += 1;
    }
    for u in w / 2 + 1..w {
        for v in 0..h {
            spec[(u, v)] = spec[(w - u, (h - v) & (h - 1))].conj();
        }
    }
}

/// Serial in-place unnormalised inverse 2-D FFT over a row-major buffer,
/// using caller-provided column scratch (`col` of length at least `H`;
/// `2·H` unlocks the paired-column fast path, `4·H` the quad-column gather). The caller applies the
/// `1/(W·H)` normalisation, typically fused into whatever pass consumes
/// the result.
pub(crate) fn ifft2d_unscaled_into(
    data: &mut [Complex],
    w: usize,
    h: usize,
    plan_w: &FftPlan,
    plan_h: &FftPlan,
    col: &mut [Complex],
) {
    debug_assert_eq!(data.len(), w * h);
    // Row pass, all rows in one batched transform: each butterfly level is
    // a single kernel call over the whole buffer (bit-identical per row to
    // transforming it alone).
    plan_w.inverse_unscaled_many(data);
    // Column pass: four columns per sweep when the scratch allows (one
    // 64-byte line holds four complexes, so the strided gather/scatter
    // touches each line once for all four), as two independent paired
    // transforms — bit-identical per column to transforming it alone.
    let mut u = 0;
    if col.len() >= 4 * h {
        let quad = &mut col[..4 * h];
        while u + 4 <= w {
            for v in 0..h {
                let base = v * w + u;
                quad[2 * v] = data[base];
                quad[2 * v + 1] = data[base + 1];
                quad[2 * h + 2 * v] = data[base + 2];
                quad[2 * h + 2 * v + 1] = data[base + 3];
            }
            let (p0, p1) = quad.split_at_mut(2 * h);
            plan_h.inverse_unscaled_pair(p0);
            plan_h.inverse_unscaled_pair(p1);
            for v in 0..h {
                let base = v * w + u;
                data[base] = p0[2 * v];
                data[base + 1] = p0[2 * v + 1];
                data[base + 2] = p1[2 * v];
                data[base + 3] = p1[2 * v + 1];
            }
            u += 4;
        }
    }
    if col.len() >= 2 * h {
        let pair = &mut col[..2 * h];
        while u + 2 <= w {
            for v in 0..h {
                pair[2 * v] = data[v * w + u];
                pair[2 * v + 1] = data[v * w + u + 1];
            }
            plan_h.inverse_unscaled_pair(pair);
            for v in 0..h {
                data[v * w + u] = pair[2 * v];
                data[v * w + u + 1] = pair[2 * v + 1];
            }
            u += 2;
        }
    }
    while u < w {
        let single = &mut col[..h];
        for (v, z) in single.iter_mut().enumerate() {
            *z = data[v * w + u];
        }
        plan_h.inverse_unscaled(single);
        for (v, &z) in single.iter().enumerate() {
            data[v * w + u] = z;
        }
        u += 1;
    }
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
