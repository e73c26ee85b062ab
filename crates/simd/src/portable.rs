//! Portable scalar kernels — the bit-exact reference implementations.
//!
//! Each function here is the plain scalar loop the AVX2 kernels must
//! reproduce bit-for-bit; the bodies mirror the original call-site loops in
//! `bba-signal` / `bba-features` verbatim (same expressions, same add
//! order). They are `pub` so the equivalence proptests (and any non-x86_64
//! host) can run them directly.

use crate::PackedRows;

/// Scalar [`cmul`](crate::cmul).
pub fn cmul(dst: &mut [f64], a: &[f64], b: &[f64]) {
    for i in 0..dst.len() / 2 {
        let (ar, ai) = (a[2 * i], a[2 * i + 1]);
        let (br, bi) = (b[2 * i], b[2 * i + 1]);
        dst[2 * i] = ar * br - ai * bi;
        dst[2 * i + 1] = ar * bi + ai * br;
    }
}

/// Scalar [`cmul_mirrored`](crate::cmul_mirrored): [`cmul`] with `b`
/// indexed through [`bitrev_mirror`](crate::bitrev_mirror).
pub fn cmul_mirrored(dst: &mut [f64], a: &[f64], b: &[f64]) {
    for i in 0..dst.len() / 2 {
        let j = crate::bitrev_mirror(i);
        let (ar, ai) = (a[2 * i], a[2 * i + 1]);
        let (br, bi) = (b[2 * j], b[2 * j + 1]);
        dst[2 * i] = ar * br - ai * bi;
        dst[2 * i + 1] = ar * bi + ai * br;
    }
}

/// Scalar [`butterfly`](crate::butterfly).
pub fn butterfly(lo: &mut [f64], hi: &mut [f64], twiddles: &[f64]) {
    for k in 0..lo.len() / 2 {
        butterfly_one(lo, hi, 2 * k, twiddles[2 * k], twiddles[2 * k + 1]);
    }
}

/// One scalar butterfly at interleaved offset `at`, matching the planned
/// FFT's `b = hi·w; lo' = lo + b; hi' = lo − b` with `Complex::mul`
/// rounding.
#[inline]
fn butterfly_one(lo: &mut [f64], hi: &mut [f64], at: usize, wr: f64, wi: f64) {
    let (hr, hi_) = (hi[at], hi[at + 1]);
    let br = hr * wr - hi_ * wi;
    let bi = hr * wi + hi_ * wr;
    let (ar, ai) = (lo[at], lo[at + 1]);
    lo[at] = ar + br;
    lo[at + 1] = ai + bi;
    hi[at] = ar - br;
    hi[at + 1] = ai - bi;
}

/// Scalar [`fft_pass`](crate::fft_pass): the per-block loop of one whole
/// butterfly level, each block through the scalar [`butterfly`].
pub fn fft_pass(x: &mut [f64], twiddles: &[f64], half: usize) {
    for block in x.chunks_exact_mut(4 * half) {
        let (lo, hi) = block.split_at_mut(2 * half);
        butterfly(lo, hi, twiddles);
    }
}

/// Scalar [`fft_pass2`](crate::fft_pass2): its definition, two
/// [`fft_pass`] sweeps.
pub fn fft_pass2(x: &mut [f64], tw_lo: &[f64], tw_hi: &[f64], half: usize) {
    fft_pass(x, tw_lo, half);
    fft_pass(x, tw_hi, 2 * half);
}

/// Scalar [`row_butterfly`](crate::row_butterfly): [`butterfly`] with one
/// twiddle for every element.
pub fn row_butterfly(lo: &mut [f64], hi: &mut [f64], w: [f64; 2]) {
    for k in 0..lo.len() / 2 {
        butterfly_one(lo, hi, 2 * k, w[0], w[1]);
    }
}

/// Scalar [`row_butterfly2`](crate::row_butterfly2): its definition, four
/// [`row_butterfly`] sweeps.
pub fn row_butterfly2(
    r0: &mut [f64],
    r1: &mut [f64],
    r2: &mut [f64],
    r3: &mut [f64],
    w_lo: [f64; 2],
    w_hi: [[f64; 2]; 2],
) {
    row_butterfly(r0, r1, w_lo);
    row_butterfly(r2, r3, w_lo);
    row_butterfly(r0, r2, w_hi[0]);
    row_butterfly(r1, r3, w_hi[1]);
}

/// Scalar [`amp_accumulate`](crate::amp_accumulate).
pub fn amp_accumulate(acc: &mut [f64], z: &[f64], scale: f64, init: bool) {
    if init {
        for (i, a) in acc.iter_mut().enumerate() {
            *a = (z[2 * i] * scale).abs() + (z[2 * i + 1] * scale).abs();
        }
    } else {
        for (i, a) in acc.iter_mut().enumerate() {
            *a = (*a + (z[2 * i] * scale).abs()) + (z[2 * i + 1] * scale).abs();
        }
    }
}

/// Scalar [`amp_max_fold`](crate::amp_max_fold).
pub fn amp_max_fold(
    max_amp: &mut [f64],
    max_idx: &mut [u8],
    z: &[f64],
    scale: f64,
    partial: &[f64],
    o: u8,
) {
    for i in 0..max_amp.len() {
        let a = (partial[i] + (z[2 * i] * scale).abs()) + (z[2 * i + 1] * scale).abs();
        if a > max_amp[i] {
            max_amp[i] = a;
            max_idx[i] = o;
        }
    }
}

/// Scalar [`dot_f32`](crate::dot_f32) — the matcher's original 4-lane
/// blocked kernel, verbatim.
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    let n4 = a.len() & !3;
    let (a4, ar) = a.split_at(n4);
    let (b4, br) = b.split_at(n4);
    let mut acc = [0.0f32; 4];
    for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in ar.iter().zip(br) {
        s += x * y;
    }
    s
}

/// Scalar [`dot_f32_rows`](crate::dot_f32_rows): [`dot_f32`]'s lane
/// sums and tail, read from the packed layout one row at a time.
pub fn dot_f32_rows(a: &[f32], rows: &PackedRows, lo: usize, out: &mut [f32]) {
    for (k, o) in out.iter_mut().enumerate() {
        *o = dot_packed_row(a, rows, lo + k);
    }
}

/// Scalar [`compat_degrees`](crate::compat_degrees): every pair `i < j`
/// tested once, counted for both ends.
pub fn compat_degrees(
    sx: &[f64],
    sy: &[f64],
    dx: &[f64],
    dy: &[f64],
    reach: f64,
    degrees: &mut [u32],
) {
    degrees.fill(0);
    for i in 0..degrees.len() {
        for j in i + 1..degrees.len() {
            if compatible(sx, sy, dx, dy, reach, i, j) {
                degrees[i] += 1;
                degrees[j] += 1;
            }
        }
    }
}

/// The pair test of [`compat_degrees`] for `i < j`, written as the k-core
/// bound in `bba-features` writes it.
#[inline]
pub(crate) fn compatible(
    sx: &[f64],
    sy: &[f64],
    dx: &[f64],
    dy: &[f64],
    reach: f64,
    i: usize,
    j: usize,
) -> bool {
    let dist = |ax: f64, ay: f64, bx: f64, by: f64| {
        let (ex, ey) = (ax - bx, ay - by);
        (ex * ex + ey * ey).sqrt()
    };
    (dist(dx[i], dy[i], dx[j], dy[j]) - dist(sx[i], sy[i], sx[j], sy[j])).abs() <= reach
}

/// [`dot_f32`] of `a` and packed row `r`: the same four lane sums over the
/// same chunks, combined and tailed in the same order.
pub(crate) fn dot_packed_row(a: &[f32], rows: &PackedRows, r: usize) -> f32 {
    let dim = rows.dim();
    let n4 = dim & !3;
    let (pair, half) = (&rows.data()[r / 2 * 2 * dim..(r / 2 + 1) * 2 * dim], r % 2);
    let mut acc = [0.0f32; 4];
    for (ca, cb) in a[..n4].chunks_exact(4).zip(pair.chunks_exact(8)) {
        let cb = &cb[4 * half..4 * half + 4];
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let tail = dim - n4;
    for (x, y) in a[n4..].iter().zip(&pair[2 * n4 + half * tail..2 * n4 + (half + 1) * tail]) {
        s += x * y;
    }
    s
}
