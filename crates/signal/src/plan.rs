//! Planned FFTs: precomputed bit-reversal and twiddle tables per length.
//!
//! The seed implementation recomputed its twiddle factors inside every
//! butterfly pass with the recurrence `w *= w_step` — one extra complex
//! multiply per butterfly *and* a serial dependency chain that both costs
//! instruction-level parallelism and accumulates rounding drift across a
//! pass. An [`FftPlan`] instead tabulates, once per transform length:
//!
//! * the bit-reversal permutation, and
//! * the unit-circle twiddles `e^{∓2πi·j/N}`, each evaluated directly with
//!   [`Complex::cis`] at its own index (no recurrence, so every twiddle is
//!   correctly rounded).
//!
//! Plans depend only on the length, so one plan serves every row of a 2-D
//! transform and every filter of the Log-Gabor bank; [`shared_plan`] caches
//! them process-wide behind an `Arc`. Stage 1 of BB-Align runs hundreds of
//! same-length 1-D transforms per frame, which is exactly the workload
//! planning (FFTW-style) exists for.
//!
//! Every transform is radix-2 decimation in time (DIT): its butterfly
//! levels take input in bit-reversed order to output in natural order. A
//! 1-D transform swaps its input into that order first; the 2-D passes of
//! the Log-Gabor path receive data already stored bit-reversed and skip
//! the swaps, and their column pass butterflies whole rows.

use crate::complex::Complex;
use crate::fft::FftError;
use std::collections::HashMap;
use std::f64::consts::PI;
use std::sync::{Arc, Mutex, OnceLock};

/// A reusable plan for power-of-two FFTs of one fixed length.
///
/// Construction is `O(N)`; every transform through the plan is the classic
/// iterative Cooley–Tukey `O(N log N)` with all trigonometry precomputed.
///
/// # Example
///
/// ```
/// use bba_signal::{Complex, FftPlan};
/// let plan = FftPlan::new(8)?;
/// let mut x = vec![Complex::ZERO; 8];
/// x[0] = Complex::ONE;
/// plan.forward(&mut x);
/// assert!(x.iter().all(|z| (z.re - 1.0).abs() < 1e-12));
/// plan.inverse(&mut x);
/// assert!((x[0].re - 1.0).abs() < 1e-12 && x[1].abs() < 1e-12);
/// # Ok::<(), bba_signal::FftError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// `bitrev[i]` is the bit-reversed index of `i` (swap partner).
    bitrev: Vec<u32>,
    /// Forward twiddles, laid out per butterfly level: the level with half
    /// size `h` occupies `fwd[h-1..2h-1]` and holds `e^{-2πi·j/(2h)}` for
    /// `j` in `0..h` — the stride-`N/(2h)` subsample of the classic
    /// `e^{-2πi·j/N}` table, stored contiguously so the butterfly kernels
    /// load twiddles with unit stride at every level.
    fwd: Vec<Complex>,
    /// Inverse twiddles, same per-level layout, conjugated.
    inv: Vec<Complex>,
}

/// Transform direction of a planned pass: which twiddle table it reads.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Direction {
    /// `e^{-2πi·j/N}` twiddles.
    Forward,
    /// Conjugated twiddles, unnormalised.
    Inverse,
}

/// The bit-reversal permutation of `0..n`: index `i` maps to `i` with its
/// `log₂ n` bits reversed. Reversing twice restores `i`, so the
/// permutation is its own inverse. A length no FFT takes (not a power of
/// two) gets the identity.
pub(crate) fn bitrev_order(n: usize) -> Vec<u32> {
    if n < 2 || !n.is_power_of_two() {
        return (0..n as u32).collect();
    }
    let shift = usize::BITS - n.trailing_zeros();
    (0..n).map(|i| (i.reverse_bits() >> shift) as u32).collect()
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::NotPowerOfTwo`] unless `n` is a power of two.
    pub fn new(n: usize) -> Result<Self, FftError> {
        if n == 0 || !n.is_power_of_two() {
            return Err(FftError::NotPowerOfTwo { len: n });
        }
        // Each twiddle is evaluated directly at its own angle — no
        // recurrence, so the table is correctly rounded entry by entry.
        let dense: Vec<Complex> =
            (0..n / 2).map(|j| Complex::cis(-2.0 * PI * j as f64 / n as f64)).collect();
        // Re-lay the dense table out per butterfly level (copies, so every
        // entry is bit-identical to the classic strided access).
        let mut fwd = Vec::with_capacity(n.saturating_sub(1));
        let mut half = 1usize;
        while half < n {
            let stride = n / (2 * half);
            fwd.extend((0..half).map(|j| dense[j * stride]));
            half *= 2;
        }
        let inv = fwd.iter().map(|w| w.conj()).collect();
        Ok(FftPlan { n, bitrev: bitrev_order(n), fwd, inv })
    }

    /// The transform length this plan was built for.
    pub fn size(&self) -> usize {
        self.n
    }

    /// The bit-reversal permutation of `0..N` (see [`bitrev_order`]).
    pub(crate) fn bitrev(&self) -> &[u32] {
        &self.bitrev
    }

    /// In-place forward FFT (unnormalised: `X[k] = Σ_n x[n]·e^{-2πi·kn/N}`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan's length.
    pub fn forward(&self, x: &mut [Complex]) {
        self.butterflies(x, Direction::Forward);
    }

    /// In-place inverse FFT, normalised by `1/N` so that
    /// `plan.inverse` undoes `plan.forward` up to floating-point error.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan's length.
    pub fn inverse(&self, x: &mut [Complex]) {
        self.butterflies(x, Direction::Inverse);
        let scale = 1.0 / self.n as f64;
        for z in x.iter_mut() {
            *z = z.scale(scale);
        }
    }

    /// In-place inverse FFT *without* the `1/N` normalisation.
    ///
    /// Multi-dimensional transforms use this to defer all scaling to one
    /// fused final pass (`1/(W·H)` for 2-D) instead of scaling after every
    /// 1-D pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan's length.
    pub fn inverse_unscaled(&self, x: &mut [Complex]) {
        self.butterflies(x, Direction::Inverse);
    }

    /// Natural-order 1-D transform: the bit-reversal swaps, then the
    /// decimation-in-time levels of [`FftPlan::dit`].
    fn butterflies(&self, x: &mut [Complex], dir: Direction) {
        assert_eq!(x.len(), self.n, "buffer length does not match plan length");
        for (i, &j) in self.bitrev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                x.swap(i, j);
            }
        }
        self.dit(x, dir);
    }

    /// The twiddles of the level with half size `half`, as interleaved
    /// floats: `e^{∓2πi·j/(2·half)}` for `j` in `0..half`.
    fn level(&self, half: usize, dir: Direction) -> &[f64] {
        let table = match dir {
            Direction::Forward => &self.fwd,
            Direction::Inverse => &self.inv,
        };
        crate::complex::as_floats(&table[half - 1..2 * half - 1])
    }

    /// The radix-2 decimation-in-time levels `half = 1, 2, …, N/2` over
    /// every contiguous length-`N` chunk of `x`, whose chunks must already
    /// be in bit-reversed order; each chunk comes out as the transform in
    /// natural order. An odd level count runs `half = 1` alone
    /// ([`bba_simd::fft_pass`]); every other level pair shares one sweep
    /// ([`bba_simd::fft_pass2`]). Blocks of `2·half` elements tile every
    /// chunk, so each element sees the butterflies of transforming its
    /// chunk alone, in the same order — grouping and fusing change
    /// neither the arithmetic nor its order.
    fn dit(&self, x: &mut [Complex], dir: Direction) {
        let n = self.n;
        if n <= 1 {
            return;
        }
        let xf = crate::complex::as_floats_mut(x);
        let mut half = 1;
        if n.trailing_zeros() % 2 == 1 {
            bba_simd::fft_pass(xf, self.level(1, dir), 1);
            half = 2;
        }
        while half < n {
            bba_simd::fft_pass2(xf, self.level(half, dir), self.level(2 * half, dir), half);
            half *= 4;
        }
    }

    /// Transforms every contiguous length-`N` row of `data`, whose rows
    /// are already in bit-reversed order (no swaps run), leaving natural
    /// order. Rows go through [`FftPlan::dit`] in ~32 KiB groups, so every
    /// level sweep of a group stays in L1.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of the plan's length.
    pub(crate) fn rows_bitrev(&self, data: &mut [Complex], dir: Direction) {
        let n = self.n;
        assert_eq!(data.len() % n, 0, "buffer length must be a multiple of the plan length");
        for slab in data.chunks_mut((2048 / n).max(1) * n) {
            self.dit(slab, dir);
        }
    }

    /// Transforms the first `width` columns of the `N`-row grid `data`
    /// (rows `stride` complexes apart) along its columns, with its rows
    /// already in bit-reversed order; the output rows are in natural order.
    ///
    /// The columns are butterflied as whole rows: level `half` pairs row
    /// `r` with row `r + half` and applies the level's twiddle for
    /// `r mod half` to every column ([`bba_simd::row_butterfly2`], two levels per sweep;
    /// [`bba_simd::row_butterfly`] for the first level of an odd count).
    /// Each column sees the butterflies of its own 1-D transform, in the
    /// same order, with no gather, scatter or column scratch.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != N · stride` or `width > stride`.
    pub(crate) fn columns_bitrev(
        &self,
        data: &mut [Complex],
        stride: usize,
        width: usize,
        dir: Direction,
    ) {
        let n = self.n;
        assert_eq!(data.len(), n * stride, "grid does not have the plan's row count");
        assert!(width <= stride, "column range exceeds the row stride");
        if n <= 1 {
            return;
        }
        let twiddle = |tw: &[f64], j: usize| [tw[2 * j], tw[2 * j + 1]];
        let mut half = 1;
        if n.trailing_zeros() % 2 == 1 {
            let w = twiddle(self.level(1, dir), 0);
            for pair in data.chunks_exact_mut(2 * stride) {
                let (r0, r1) = pair.split_at_mut(stride);
                bba_simd::row_butterfly(row_prefix(r0, width), row_prefix(r1, width), w);
            }
            half = 2;
        }
        while half < n {
            let (tw_lo, tw_hi) = (self.level(half, dir), self.level(2 * half, dir));
            for block in data.chunks_exact_mut(4 * half * stride) {
                let (q01, q23) = block.split_at_mut(2 * half * stride);
                let (q0, q1) = q01.split_at_mut(half * stride);
                let (q2, q3) = q23.split_at_mut(half * stride);
                let rows = q0
                    .chunks_exact_mut(stride)
                    .zip(q1.chunks_exact_mut(stride))
                    .zip(q2.chunks_exact_mut(stride).zip(q3.chunks_exact_mut(stride)));
                for (j, ((r0, r1), (r2, r3))) in rows.enumerate() {
                    bba_simd::row_butterfly2(
                        row_prefix(r0, width),
                        row_prefix(r1, width),
                        row_prefix(r2, width),
                        row_prefix(r3, width),
                        twiddle(tw_lo, j),
                        [twiddle(tw_hi, j), twiddle(tw_hi, j + half)],
                    );
                }
            }
            half *= 4;
        }
    }
}

/// The first `width` complexes of `row`, as interleaved floats.
fn row_prefix(row: &mut [Complex], width: usize) -> &mut [f64] {
    crate::complex::as_floats_mut(&mut row[..width])
}

/// The process-wide plan cache: one [`FftPlan`] per length, built on first
/// request and shared by every caller (rows, columns, all 48 Log-Gabor
/// filter applications, and every thread — [`FftPlan`] is immutable after
/// construction, so sharing is free).
///
/// # Errors
///
/// Returns [`FftError::NotPowerOfTwo`] unless `n` is a power of two.
pub fn shared_plan(n: usize) -> Result<Arc<FftPlan>, FftError> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<FftPlan>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("plan cache lock is never poisoned");
    if let Some(plan) = map.get(&n) {
        return Ok(plan.clone());
    }
    let plan = Arc::new(FftPlan::new(n)?);
    map.insert(n, plan.clone());
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_lengths() {
        assert_eq!(FftPlan::new(0).unwrap_err(), FftError::NotPowerOfTwo { len: 0 });
        assert_eq!(FftPlan::new(12).unwrap_err(), FftError::NotPowerOfTwo { len: 12 });
        assert!(shared_plan(7).is_err());
    }

    #[test]
    fn unit_length_is_identity() {
        let plan = FftPlan::new(1).unwrap();
        let mut x = [Complex::new(3.0, -2.0)];
        plan.forward(&mut x);
        assert_eq!(x[0], Complex::new(3.0, -2.0));
        plan.inverse(&mut x);
        assert_eq!(x[0], Complex::new(3.0, -2.0));
    }

    #[test]
    fn forward_matches_single_tone() {
        let n = 16;
        let k0 = 3;
        let plan = FftPlan::new(n).unwrap();
        let mut x: Vec<Complex> =
            (0..n).map(|i| Complex::cis(2.0 * PI * k0 as f64 * i as f64 / n as f64)).collect();
        plan.forward(&mut x);
        for (k, z) in x.iter().enumerate() {
            if k == k0 {
                assert!((z.re - n as f64).abs() < 1e-9 && z.im.abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-9, "leak at bin {k}: {z:?}");
            }
        }
    }

    #[test]
    fn inverse_scales_and_roundtrips() {
        let plan = FftPlan::new(32).unwrap();
        let x: Vec<Complex> =
            (0..32).map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos())).collect();
        let mut y = x.clone();
        plan.forward(&mut y);
        let mut unscaled = y.clone();
        plan.inverse(&mut y);
        plan.inverse_unscaled(&mut unscaled);
        for i in 0..32 {
            assert!((y[i] - x[i]).abs() < 1e-10);
            assert!((unscaled[i] - x[i].scale(32.0)).abs() < 1e-8, "unscaled differs by N");
        }
    }

    #[test]
    #[should_panic(expected = "does not match plan length")]
    fn wrong_buffer_length_panics() {
        let plan = FftPlan::new(8).unwrap();
        let mut x = vec![Complex::ZERO; 4];
        plan.forward(&mut x);
    }

    fn assert_bits(a: Complex, b: Complex, what: &str) {
        assert_eq!(a.re.to_bits(), b.re.to_bits(), "{what}");
        assert_eq!(a.im.to_bits(), b.im.to_bits(), "{what}");
    }

    /// Swaps the `len`-element units of `x` into bit-reversed order.
    fn bitrev_units(x: &mut [Complex], plan: &FftPlan, len: usize) {
        for (i, &j) in plan.bitrev().iter().enumerate() {
            let j = j as usize;
            if i < j {
                let (head, tail) = x.split_at_mut(j * len);
                head[i * len..(i + 1) * len].swap_with_slice(&mut tail[..len]);
            }
        }
    }

    #[test]
    fn bitrev_order_is_an_involution() {
        for n in [1usize, 2, 8, 64] {
            let rev = bitrev_order(n);
            for (i, &j) in rev.iter().enumerate() {
                assert_eq!(rev[j as usize] as usize, i, "n={n}");
            }
        }
        assert_eq!(bitrev_order(8), [0, 4, 2, 6, 1, 5, 3, 7]);
        assert_eq!(bitrev_order(6), [0, 1, 2, 3, 4, 5], "no FFT length: identity");
    }

    #[test]
    fn column_pass_matches_per_column_transforms_bitwise() {
        // Rows of `stride` complexes, of which the first `width` columns
        // are transformed; odd and even level counts.
        let (stride, width) = (5usize, 3usize);
        for n in [1usize, 2, 8, 32, 64] {
            let plan = FftPlan::new(n).unwrap();
            let data: Vec<Complex> = (0..n * stride)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut grid = data.clone();
                bitrev_units(&mut grid, &plan, stride);
                plan.columns_bitrev(&mut grid, stride, width, dir);
                for u in 0..stride {
                    let mut col: Vec<Complex> = (0..n).map(|v| data[v * stride + u]).collect();
                    if u < width {
                        match dir {
                            Direction::Forward => plan.forward(&mut col),
                            Direction::Inverse => plan.inverse_unscaled(&mut col),
                        }
                    } else {
                        // Columns past `width` stay where the row swap put them.
                        bitrev_units(&mut col, &plan, 1);
                    }
                    for v in 0..n {
                        assert_bits(
                            grid[v * stride + u],
                            col[v],
                            &format!("n={n} {dir:?} ({u},{v})"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn many_matches_per_chunk_transforms_bitwise() {
        for n in [1usize, 2, 8, 32] {
            let plan = FftPlan::new(n).unwrap();
            let chunks = 5;
            let data: Vec<Complex> = (0..n * chunks)
                .map(|i| Complex::new((i as f64 * 0.31).sin(), (i as f64 * 0.17).cos()))
                .collect();
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut many = data.clone();
                for chunk in many.chunks_exact_mut(n) {
                    bitrev_units(chunk, &plan, 1);
                }
                plan.rows_bitrev(&mut many, dir);
                for c in 0..chunks {
                    let mut one = data[c * n..(c + 1) * n].to_vec();
                    match dir {
                        Direction::Forward => plan.forward(&mut one),
                        Direction::Inverse => plan.inverse_unscaled(&mut one),
                    }
                    for k in 0..n {
                        assert_bits(many[c * n + k], one[k], &format!("n={n} {dir:?} chunk={c}"));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple of the plan length")]
    fn many_rejects_partial_chunks() {
        let plan = FftPlan::new(8).unwrap();
        let mut x = vec![Complex::ZERO; 12];
        plan.rows_bitrev(&mut x, Direction::Forward);
    }

    #[test]
    fn shared_plan_is_cached() {
        let a = shared_plan(64).unwrap();
        let b = shared_plan(64).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same length must hit the cache");
        assert_eq!(a.size(), 64);
    }
}
