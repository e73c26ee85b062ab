//! Correctness anchors for the frequency-domain fast path.
//!
//! The planned FFT, the real-input 2-D transform and the packed inverse
//! pairs are all verified against mathematics rather than against the old
//! implementation: a naive `O(N²)` reference DFT, the defining scaling
//! identities, and the pair-packing algebra. The production MIM is also
//! pinned bit for bit to the natural-layout reference transforms.

use bba_signal::{
    fft2d, fft2d_inverse, fft_inplace, ifft_inplace, rfft2d, shared_plan, Complex, FftPlan,
    FftWorkspace, Grid, LogGaborBank, LogGaborConfig, MaxIndexMap,
};
use proptest::prelude::*;
use std::f64::consts::PI;

/// Naive `O(N²)` reference DFT: `X[k] = Σ_n x[n]·e^{-2πi·kn/N}` evaluated
/// term by term — slow, obviously correct, and implementation-independent.
fn reference_dft(x: &[Complex]) -> Vec<Complex> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut sum = Complex::ZERO;
            for (j, &z) in x.iter().enumerate() {
                sum += z * Complex::cis(-2.0 * PI * (k * j % n) as f64 / n as f64);
            }
            sum
        })
        .collect()
}

/// Naive 2-D reference: row DFTs then column DFTs.
fn reference_dft2d(img: &Grid<f64>) -> Grid<Complex> {
    let (w, h) = (img.width(), img.height());
    let mut rows = Grid::new(w, h, Complex::ZERO);
    for v in 0..h {
        let row: Vec<Complex> = img.row(v).iter().map(|&x| Complex::from_real(x)).collect();
        for (u, z) in reference_dft(&row).into_iter().enumerate() {
            rows[(u, v)] = z;
        }
    }
    let mut out = Grid::new(w, h, Complex::ZERO);
    for u in 0..w {
        let col: Vec<Complex> = (0..h).map(|v| rows[(u, v)]).collect();
        for (v, z) in reference_dft(&col).into_iter().enumerate() {
            out[(u, v)] = z;
        }
    }
    out
}

fn rel_close(a: Complex, b: Complex, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The planned FFT matches the reference DFT at ≤1e-9 relative
    /// tolerance for every power-of-two length and arbitrary input.
    #[test]
    fn planned_fft_matches_reference_dft(
        log_n in 0usize..8,
        seed in any::<u64>(),
    ) {
        let n = 1usize << log_n;
        let x: Vec<Complex> = (0..n)
            .map(|i| {
                let t = (seed.wrapping_mul(i as u64 + 1) % 1000) as f64 / 500.0 - 1.0;
                Complex::new(t, (t * 3.7).sin())
            })
            .collect();
        let expected = reference_dft(&x);
        let mut got = x.clone();
        fft_inplace(&mut got).unwrap();
        for (k, (&e, &g)) in expected.iter().zip(&got).enumerate() {
            prop_assert!(rel_close(e, g, 1e-9), "bin {k}: {e:?} vs {g:?}");
        }
    }

    /// `ifft` undoes the reference DFT (checks the 1/N convention against
    /// mathematics, not against `fft_inplace`).
    #[test]
    fn inverse_undoes_reference_dft(
        log_n in 0usize..7,
        seed in any::<u64>(),
    ) {
        let n = 1usize << log_n;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new(((seed >> (i % 48)) & 0xff) as f64 / 64.0, (i as f64).cos()))
            .collect();
        let mut back = reference_dft(&x);
        ifft_inplace(&mut back).unwrap();
        for (i, (&orig, &b)) in x.iter().zip(&back).enumerate() {
            prop_assert!(rel_close(orig, b, 1e-9), "sample {i}: {orig:?} vs {b:?}");
        }
    }

    /// `fft2d` and `rfft2d` both match the 2-D reference DFT, including on
    /// non-square grids.
    #[test]
    fn fft2d_and_rfft2d_match_reference(
        log_w in 0usize..5,
        log_h in 0usize..5,
        seed in any::<u64>(),
    ) {
        let (w, h) = (1usize << log_w, 1usize << log_h);
        let img = Grid::from_fn(w, h, |u, v| {
            (seed.wrapping_mul((u * h + v + 1) as u64) % 2000) as f64 / 1000.0 - 1.0
        });
        let expected = reference_dft2d(&img);
        let full = fft2d(&img).unwrap();
        let real = rfft2d(&img).unwrap();
        for i in 0..expected.len() {
            let e = expected.as_slice()[i];
            prop_assert!(rel_close(e, full.as_slice()[i], 1e-9), "fft2d bin {i}");
            prop_assert!(rel_close(e, real.as_slice()[i], 1e-9), "rfft2d bin {i}");
        }
    }

    /// Packing two real signals as `a + i·b` through one FFT recovers both
    /// spectra: the core identity behind the packed inverse pairs. Run
    /// forward here (the inverse direction is the same algebra conjugated):
    /// one transform of the packed signal must agree with two transforms of
    /// the singles.
    #[test]
    fn packed_pair_equals_two_single_transforms(
        log_n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let n = 1usize << log_n;
        let a: Vec<f64> = (0..n).map(|i| ((seed ^ i as u64) % 100) as f64 / 50.0 - 1.0).collect();
        let b: Vec<f64> = (0..n).map(|i| ((seed >> 7) ^ (3 * i) as u64) as f64 % 10.0).collect();
        // Two single transforms.
        let fa = reference_dft(&a.iter().map(|&x| Complex::from_real(x)).collect::<Vec<_>>());
        let fb = reference_dft(&b.iter().map(|&x| Complex::from_real(x)).collect::<Vec<_>>());
        // One packed transform, split by Hermitian symmetry.
        let mut packed: Vec<Complex> =
            a.iter().zip(&b).map(|(&x, &y)| Complex::new(x, y)).collect();
        fft_inplace(&mut packed).unwrap();
        for k in 0..n {
            let z = packed[k];
            let zc = packed[(n - k) % n].conj();
            let got_a = (z + zc).scale(0.5);
            let d = (z - zc).scale(0.5);
            let got_b = Complex::new(d.im, -d.re);
            prop_assert!(rel_close(fa[k], got_a, 1e-9), "A bin {k}: {:?} vs {got_a:?}", fa[k]);
            prop_assert!(rel_close(fb[k], got_b, 1e-9), "B bin {k}: {:?} vs {got_b:?}", fb[k]);
        }
    }
}

/// The packed-pair trick as actually deployed: the Log-Gabor amplitudes of
/// the fast path (24 packed inverse transforms) must match running each of
/// the 48 filters through its own single inverse transform.
#[test]
fn packed_inverse_pairs_match_single_inverses() {
    let cfg = LogGaborConfig::default();
    let bank = LogGaborBank::new(32, 32, cfg.clone());
    let img =
        Grid::from_fn(32, 32, |u, v| if (u * 7 + v * 3) % 11 < 2 { (u + v) as f64 } else { 0.0 });
    // Fast path.
    let mut ws = FftWorkspace::new();
    bank.orientation_amplitudes_into(&img, &mut ws).unwrap();
    let fast: Vec<&Grid<f64>> = ws.amplitudes().collect();
    // Reference path: per-filter single inverse transforms.
    let spectrum = fft2d(&img).unwrap();
    let scale_fix = 1.0; // fft2d_inverse already applies 1/(W·H)
    for (o, fast_amp) in fast.iter().enumerate() {
        let mut acc = Grid::new(32, 32, 0.0);
        for s in 0..cfg.num_scales {
            let filt = bank.filter(s, o);
            let mut filtered = Grid::new(32, 32, Complex::ZERO);
            for (i, z) in filtered.as_mut_slice().iter_mut().enumerate() {
                *z = spectrum.as_slice()[i].scale(filt.as_slice()[i]);
            }
            let spatial = fft2d_inverse(&filtered).unwrap();
            for (i, a) in acc.as_mut_slice().iter_mut().enumerate() {
                // The response is mathematically real; its amplitude is the
                // magnitude of the (real) spatial sample.
                *a += spatial.as_slice()[i].abs() * scale_fix;
            }
        }
        for i in 0..acc.len() {
            let (e, g) = (acc.as_slice()[i], fast_amp.as_slice()[i]);
            assert!(
                (e - g).abs() <= 1e-9 * (1.0 + e.abs()),
                "orientation {o} pixel {i}: {e} vs {g}"
            );
        }
    }
}

/// The production MIM — spectrum and bank in 2-D bit-reversed order,
/// inverse transforms on that layout, fused amplitude argmax — against the
/// same quantities built on the natural layout from public references:
/// `rfft2d`, each packed product `F·(L_{2p} + i·L_{2p+1})` from
/// `LogGaborBank::filter`, `fft2d_inverse` (which bit-reverses every 1-D
/// transform itself), then the scale sums and the strict-`>` argmax in the
/// fused kernels' order. Index and amplitude must agree to the bit.
#[test]
fn fused_mim_matches_argmax_over_reference_inverses_bitwise() {
    let cfg = LogGaborConfig::default();
    for (w, h) in [(32usize, 32usize), (64, 32), (256, 256)] {
        let img = Grid::from_fn(w, h, |u, v| {
            if (u * 7 + v * 3) % 11 < 3 {
                ((u * 5 + v * 13) % 17) as f64
            } else {
                0.0
            }
        });
        let bank = LogGaborBank::new(w, h, cfg.clone());
        let mim = MaxIndexMap::compute_with_workspace(&img, &bank, &mut FftWorkspace::new());

        let spectrum = rfft2d(&img).unwrap();
        let mut best = vec![(f64::NEG_INFINITY, 0u8); w * h];
        for o in 0..cfg.num_orientations {
            let mut amp = vec![0.0f64; w * h];
            for p in 0..cfg.num_scales.div_ceil(2) {
                let re = bank.filter(2 * p, o);
                let im = (2 * p + 1 < cfg.num_scales).then(|| bank.filter(2 * p + 1, o));
                let product = Grid::from_fn(w, h, |u, v| {
                    let pair = Complex::new(re[(u, v)], im.as_ref().map_or(0.0, |f| f[(u, v)]));
                    spectrum[(u, v)] * pair
                });
                let response = fft2d_inverse(&product).unwrap();
                for (a, z) in amp.iter_mut().zip(response.as_slice()) {
                    let sum = if p == 0 { z.re.abs() } else { *a + z.re.abs() };
                    *a = if im.is_some() { sum + z.im.abs() } else { sum };
                }
            }
            for (b, &a) in best.iter_mut().zip(&amp) {
                if a > b.0 {
                    *b = (a, o as u8);
                }
            }
        }
        for (i, &(a, o)) in best.iter().enumerate() {
            assert_eq!(mim.index.as_slice()[i], o, "{w}x{h} index at {i}");
            assert_eq!(mim.amplitude.as_slice()[i].to_bits(), a.to_bits(), "{w}x{h} amp at {i}");
        }
    }
}

/// A workspace reused across different images (and sizes) produces the same
/// results as a fresh one — buffer recycling carries no state between
/// frames.
#[test]
fn workspace_reuse_matches_fresh_workspace() {
    let cfg = LogGaborConfig::default();
    let mut ws = FftWorkspace::new();
    for size in [16usize, 32, 16] {
        let bank = LogGaborBank::new(size, size, cfg.clone());
        for seed in 0..3u64 {
            let img = Grid::from_fn(size, size, |u, v| {
                ((u as u64 * 31 + v as u64 * 17 + seed * 7) % 13) as f64
            });
            let reused = MaxIndexMap::compute_with_workspace(&img, &bank, &mut ws);
            let fresh = MaxIndexMap::compute_with_workspace(&img, &bank, &mut FftWorkspace::new());
            assert_eq!(reused, fresh, "size {size} seed {seed}");
        }
    }
}

/// Plan reuse across lengths: transforms through a cached plan equal
/// transforms through a freshly built plan.
#[test]
fn shared_plan_matches_fresh_plan() {
    for n in [2usize, 16, 128] {
        let x: Vec<Complex> =
            (0..n).map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos())).collect();
        let mut via_cache = x.clone();
        shared_plan(n).unwrap().forward(&mut via_cache);
        let mut via_fresh = x.clone();
        FftPlan::new(n).unwrap().forward(&mut via_fresh);
        assert_eq!(via_cache, via_fresh, "n = {n}");
    }
}
