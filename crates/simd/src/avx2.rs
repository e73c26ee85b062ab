//! AVX2 kernels (x86_64). Bit-identical to [`crate::portable`] by
//! construction: every multiply and add is a separate, individually
//! rounded instruction (no FMA), elementwise ops preserve per-element
//! order, and the reductions ([`dot_f32`], [`dot_f32_rows`]) keep the
//! scalar 4-lane association by giving each row one 128-bit accumulator.
//!
//! All functions are `unsafe` because they require AVX2; the dispatcher in
//! the crate root only calls them after `is_x86_feature_detected!("avx2")`.
//!
//! Complex data is interleaved `[re, im, re, im, …]`, so one 256-bit lane
//! holds two complexes. The complex product `a·b` is computed as
//!
//! ```text
//! t1 = a         · dup_even(b)   = [ar·br, ai·br]
//! t2 = swap(a)   · dup_odd(b)    = [ai·bi, ar·bi]
//! a·b = addsub(t1, t2)           = [ar·br − ai·bi, ai·br + ar·bi]
//! ```
//!
//! which rounds each of the four products and the final add/sub exactly
//! like the scalar `Complex::mul` (the imaginary part's two addends are
//! the same rounded values, added in commuted order — IEEE addition is
//! commutative, so the bits agree).

#![allow(clippy::missing_safety_doc)] // one shared contract, documented below
#![allow(clippy::too_many_arguments)]

use crate::PackedRows;
use core::arch::x86_64::*;

// Shared safety contract for every function in this module:
// the caller must ensure the CPU supports AVX2 (the crate-root dispatcher
// checks `is_x86_feature_detected!("avx2")`). Slice-length preconditions
// are asserted by the crate-root wrappers before dispatch.

/// Clears the sign bit of all four lanes (`|x|`, bitwise like `f64::abs`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn abs_pd(x: __m256d) -> __m256d {
    _mm256_and_pd(x, _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFF_FFFF_FFFF_FFFF)))
}

/// Complex product of two interleaved-pair vectors (see module docs).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn cmul_pd(a: __m256d, b: __m256d) -> __m256d {
    let t1 = _mm256_mul_pd(a, _mm256_movedup_pd(b));
    let t2 = _mm256_mul_pd(_mm256_permute_pd(a, 0x5), _mm256_permute_pd(b, 0xF));
    _mm256_addsub_pd(t1, t2)
}

/// AVX2 [`cmul`](crate::cmul): two complexes per vector, scalar tail.
#[target_feature(enable = "avx2")]
pub unsafe fn cmul(dst: &mut [f64], a: &[f64], b: &[f64]) {
    let n = dst.len();
    let mut i = 0;
    while i + 4 <= n {
        let va = _mm256_loadu_pd(a.as_ptr().add(i));
        let vb = _mm256_loadu_pd(b.as_ptr().add(i));
        _mm256_storeu_pd(dst.as_mut_ptr().add(i), cmul_pd(va, vb));
        i += 4;
    }
    crate::portable::cmul(&mut dst[i..], &a[i..], &b[i..]);
}

/// AVX2 [`cmul_mirrored`](crate::cmul_mirrored). Cells 0 and 1 are their
/// own mirrors: one straight product. In the octave block `[lo, 2·lo)`
/// cell `c` reads `b[3·lo − 1 − c]`, so the pair `(c, c + 1)` is the pair
/// loaded at `3·lo − 2 − c` with its two complexes swapped. A single
/// complex goes through the portable twin.
#[target_feature(enable = "avx2")]
pub unsafe fn cmul_mirrored(dst: &mut [f64], a: &[f64], b: &[f64]) {
    let n = dst.len() / 2;
    if n < 2 {
        return crate::portable::cmul_mirrored(dst, a, b);
    }
    let (pa, pb, pd) = (a.as_ptr(), b.as_ptr(), dst.as_mut_ptr());
    _mm256_storeu_pd(pd, cmul_pd(_mm256_loadu_pd(pa), _mm256_loadu_pd(pb)));
    let mut lo = 2;
    while lo < n {
        for c in (lo..2 * lo).step_by(2) {
            let vb = _mm256_loadu_pd(pb.add(2 * (3 * lo - 2 - c)));
            let vb = _mm256_permute2f128_pd::<0x01>(vb, vb);
            _mm256_storeu_pd(pd.add(2 * c), cmul_pd(_mm256_loadu_pd(pa.add(2 * c)), vb));
        }
        lo *= 2;
    }
}

/// Radix-2 butterfly on two-complex vectors: `b = hi·w`, `(lo + b, lo − b)`
/// — per lane the scalar butterfly of [`crate::portable`].
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn bfly_pd(lo: __m256d, hi: __m256d, w: __m256d) -> (__m256d, __m256d) {
    let b = cmul_pd(hi, w);
    (_mm256_add_pd(lo, b), _mm256_sub_pd(lo, b))
}

/// One complex `[re, im]` broadcast to both halves of a vector.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn splat_c(w: [f64; 2]) -> __m256d {
    _mm256_setr_pd(w[0], w[1], w[0], w[1])
}

/// AVX2 [`butterfly`](crate::butterfly): two butterflies per vector, the
/// odd remainder (only the `half == 1` level) through the portable twin.
#[inline]
#[target_feature(enable = "avx2")]
pub unsafe fn butterfly(lo: &mut [f64], hi: &mut [f64], twiddles: &[f64]) {
    let n = lo.len();
    let mut i = 0;
    while i + 4 <= n {
        let w = _mm256_loadu_pd(twiddles.as_ptr().add(i));
        let h = _mm256_loadu_pd(hi.as_ptr().add(i));
        let l = _mm256_loadu_pd(lo.as_ptr().add(i));
        let (l, h) = bfly_pd(l, h, w);
        _mm256_storeu_pd(lo.as_mut_ptr().add(i), l);
        _mm256_storeu_pd(hi.as_mut_ptr().add(i), h);
        i += 4;
    }
    if i < n {
        crate::portable::butterfly(&mut lo[i..], &mut hi[i..], &twiddles[i..]);
    }
}

/// AVX2 [`fft_pass`](crate::fft_pass): one whole butterfly level per call,
/// block loop inside the kernel. The `half == 1` level — whose one-complex
/// halves the generic two-butterfly kernel would leave entirely to its
/// scalar remainder — gets a dedicated path: two adjacent `[lo, hi]` blocks
/// are shuffled into one `[lo0, lo1]` / `[hi0, hi1]` vector butterfly
/// sharing the level's single twiddle (per element, exactly the scalar op
/// sequence).
#[target_feature(enable = "avx2")]
pub unsafe fn fft_pass(x: &mut [f64], twiddles: &[f64], half: usize) {
    if half == 1 {
        let w = splat_c([twiddles[0], twiddles[1]]);
        let n = x.len();
        let mut i = 0;
        while i + 8 <= n {
            let v0 = _mm256_loadu_pd(x.as_ptr().add(i)); // [lo0, hi0]
            let v1 = _mm256_loadu_pd(x.as_ptr().add(i + 4)); // [lo1, hi1]
            let lo = _mm256_permute2f128_pd::<0x20>(v0, v1);
            let hi = _mm256_permute2f128_pd::<0x31>(v0, v1);
            let (nlo, nhi) = bfly_pd(lo, hi, w);
            _mm256_storeu_pd(x.as_mut_ptr().add(i), _mm256_permute2f128_pd::<0x20>(nlo, nhi));
            _mm256_storeu_pd(x.as_mut_ptr().add(i + 4), _mm256_permute2f128_pd::<0x31>(nlo, nhi));
            i += 8;
        }
        if i < n {
            let (lo, hi) = x[i..].split_at_mut(2);
            crate::portable::butterfly(lo, hi, twiddles);
        }
        return;
    }
    for block in x.chunks_exact_mut(4 * half) {
        let (lo, hi) = block.split_at_mut(2 * half);
        butterfly(lo, hi, twiddles);
    }
}

/// AVX2 [`fft_pass2`](crate::fft_pass2): two levels per sweep, with the
/// four quarters of a block held in registers between them. For
/// `half ≥ 2` each vector holds two consecutive `j`; the `half == 1` level
/// pair works on one four-complex block at a time, shuffling `[a0, a1]`,
/// `[a2, a3]` into `[a0, a2]` / `[a1, a3]` for the first level and back
/// for the second. Per element, the scalar op sequence either way.
#[target_feature(enable = "avx2")]
pub unsafe fn fft_pass2(x: &mut [f64], tw_lo: &[f64], tw_hi: &[f64], half: usize) {
    if half == 1 {
        let w_lo = splat_c([tw_lo[0], tw_lo[1]]);
        let w_hi = _mm256_loadu_pd(tw_hi.as_ptr());
        for block in x.chunks_exact_mut(8) {
            let p = block.as_mut_ptr();
            let v0 = _mm256_loadu_pd(p); // [a0, a1]
            let v1 = _mm256_loadu_pd(p.add(4)); // [a2, a3]
            let (l, h) = bfly_pd(
                _mm256_permute2f128_pd::<0x20>(v0, v1),
                _mm256_permute2f128_pd::<0x31>(v0, v1),
                w_lo,
            ); // l = [a0, a2], h = [a1, a3]
            let (l, h) = bfly_pd(
                _mm256_permute2f128_pd::<0x20>(l, h),
                _mm256_permute2f128_pd::<0x31>(l, h),
                w_hi,
            ); // l = [a0, a1], h = [a2, a3]
            _mm256_storeu_pd(p, l);
            _mm256_storeu_pd(p.add(4), h);
        }
        return;
    }
    let q = 2 * half; // floats per quarter block
    for block in x.chunks_exact_mut(4 * q) {
        let p = block.as_mut_ptr();
        let mut i = 0;
        while i < q {
            let w_lo = _mm256_loadu_pd(tw_lo.as_ptr().add(i));
            let w_hi0 = _mm256_loadu_pd(tw_hi.as_ptr().add(i));
            let w_hi1 = _mm256_loadu_pd(tw_hi.as_ptr().add(q + i));
            let a0 = _mm256_loadu_pd(p.add(i));
            let a1 = _mm256_loadu_pd(p.add(q + i));
            let a2 = _mm256_loadu_pd(p.add(2 * q + i));
            let a3 = _mm256_loadu_pd(p.add(3 * q + i));
            let (a0, a1) = bfly_pd(a0, a1, w_lo);
            let (a2, a3) = bfly_pd(a2, a3, w_lo);
            let (a0, a2) = bfly_pd(a0, a2, w_hi0);
            let (a1, a3) = bfly_pd(a1, a3, w_hi1);
            _mm256_storeu_pd(p.add(i), a0);
            _mm256_storeu_pd(p.add(q + i), a1);
            _mm256_storeu_pd(p.add(2 * q + i), a2);
            _mm256_storeu_pd(p.add(3 * q + i), a3);
            i += 4;
        }
    }
}

/// AVX2 [`row_butterfly`](crate::row_butterfly): two butterflies per
/// vector under the broadcast twiddle, an odd last complex through the
/// portable twin.
#[target_feature(enable = "avx2")]
pub unsafe fn row_butterfly(lo: &mut [f64], hi: &mut [f64], w: [f64; 2]) {
    let n = lo.len();
    let wv = splat_c(w);
    let mut i = 0;
    while i + 4 <= n {
        let l = _mm256_loadu_pd(lo.as_ptr().add(i));
        let h = _mm256_loadu_pd(hi.as_ptr().add(i));
        let (l, h) = bfly_pd(l, h, wv);
        _mm256_storeu_pd(lo.as_mut_ptr().add(i), l);
        _mm256_storeu_pd(hi.as_mut_ptr().add(i), h);
        i += 4;
    }
    if i < n {
        crate::portable::row_butterfly(&mut lo[i..], &mut hi[i..], w);
    }
}

/// AVX2 [`row_butterfly2`](crate::row_butterfly2): both levels on two
/// complexes of each of the four rows per iteration, an odd last complex
/// through the portable twin.
#[target_feature(enable = "avx2")]
pub unsafe fn row_butterfly2(
    r0: &mut [f64],
    r1: &mut [f64],
    r2: &mut [f64],
    r3: &mut [f64],
    w_lo: [f64; 2],
    w_hi: [[f64; 2]; 2],
) {
    let n = r0.len();
    let (wl, wh0, wh1) = (splat_c(w_lo), splat_c(w_hi[0]), splat_c(w_hi[1]));
    let mut i = 0;
    while i + 4 <= n {
        let a0 = _mm256_loadu_pd(r0.as_ptr().add(i));
        let a1 = _mm256_loadu_pd(r1.as_ptr().add(i));
        let a2 = _mm256_loadu_pd(r2.as_ptr().add(i));
        let a3 = _mm256_loadu_pd(r3.as_ptr().add(i));
        let (a0, a1) = bfly_pd(a0, a1, wl);
        let (a2, a3) = bfly_pd(a2, a3, wl);
        let (a0, a2) = bfly_pd(a0, a2, wh0);
        let (a1, a3) = bfly_pd(a1, a3, wh1);
        _mm256_storeu_pd(r0.as_mut_ptr().add(i), a0);
        _mm256_storeu_pd(r1.as_mut_ptr().add(i), a1);
        _mm256_storeu_pd(r2.as_mut_ptr().add(i), a2);
        _mm256_storeu_pd(r3.as_mut_ptr().add(i), a3);
        i += 4;
    }
    if i < n {
        crate::portable::row_butterfly2(
            &mut r0[i..],
            &mut r1[i..],
            &mut r2[i..],
            &mut r3[i..],
            w_lo,
            w_hi,
        );
    }
}

/// Deinterleaves two packed-complex vectors (pixels 0..4) into natural-order
/// `(|re·scale|, |im·scale|)` vectors.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn amp_parts(z: *const f64, scale: __m256d) -> (__m256d, __m256d) {
    let t01 = abs_pd(_mm256_mul_pd(_mm256_loadu_pd(z), scale));
    let t23 = abs_pd(_mm256_mul_pd(_mm256_loadu_pd(z.add(4)), scale));
    // unpacklo → [p0, p2, p1, p3]; permute4x64(0xD8) restores [p0, p1, p2, p3].
    let re = _mm256_permute4x64_pd(_mm256_unpacklo_pd(t01, t23), 0xD8);
    let im = _mm256_permute4x64_pd(_mm256_unpackhi_pd(t01, t23), 0xD8);
    (re, im)
}

/// AVX2 [`amp_accumulate`](crate::amp_accumulate): four pixels per
/// iteration, same add order per pixel as the scalar arms.
#[target_feature(enable = "avx2")]
pub unsafe fn amp_accumulate(acc: &mut [f64], z: &[f64], scale: f64, init: bool) {
    let n = acc.len();
    let s = _mm256_set1_pd(scale);
    let mut i = 0;
    while i + 4 <= n {
        let (re, im) = amp_parts(z.as_ptr().add(2 * i), s);
        let out = if init {
            _mm256_add_pd(re, im)
        } else {
            _mm256_add_pd(_mm256_add_pd(_mm256_loadu_pd(acc.as_ptr().add(i)), re), im)
        };
        _mm256_storeu_pd(acc.as_mut_ptr().add(i), out);
        i += 4;
    }
    crate::portable::amp_accumulate(&mut acc[i..], &z[2 * i..], scale, init);
}

/// AVX2 [`amp_max_fold`](crate::amp_max_fold): four pixels per iteration;
/// the strict-`>` compare mask updates amplitudes by blend and indices by
/// per-bit scalar stores (indices are `u8`, too narrow to blend usefully).
#[target_feature(enable = "avx2")]
pub unsafe fn amp_max_fold(
    max_amp: &mut [f64],
    max_idx: &mut [u8],
    z: &[f64],
    scale: f64,
    partial: &[f64],
    o: u8,
) {
    let n = max_amp.len();
    let s = _mm256_set1_pd(scale);
    let mut i = 0;
    while i + 4 <= n {
        let (re, im) = amp_parts(z.as_ptr().add(2 * i), s);
        let a = _mm256_add_pd(_mm256_add_pd(_mm256_loadu_pd(partial.as_ptr().add(i)), re), im);
        let m = _mm256_loadu_pd(max_amp.as_ptr().add(i));
        let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(a, m);
        _mm256_storeu_pd(max_amp.as_mut_ptr().add(i), _mm256_blendv_pd(m, a, gt));
        let mask = _mm256_movemask_pd(gt);
        if mask != 0 {
            for j in 0..4 {
                if mask & (1 << j) != 0 {
                    max_idx[i + j] = o;
                }
            }
        }
        i += 4;
    }
    crate::portable::amp_max_fold(
        &mut max_amp[i..],
        &mut max_idx[i..],
        &z[2 * i..],
        scale,
        &partial[i..],
        o,
    );
}

/// SIMD [`dot_f32`](crate::dot_f32): a single 128-bit `f32x4` accumulator
/// performs the scalar kernel's four per-lane running sums (`acc[j] +=
/// a·b`, one rounded multiply + one rounded add each), combined in the same
/// `(acc0 + acc1) + (acc2 + acc3)` order — wider accumulators would change
/// the association and the bits.
#[target_feature(enable = "avx2")]
pub unsafe fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    let n4 = a.len() & !3;
    let mut acc = _mm_setzero_ps();
    let mut i = 0;
    while i < n4 {
        let va = _mm_loadu_ps(a.as_ptr().add(i));
        let vb = _mm_loadu_ps(b.as_ptr().add(i));
        acc = _mm_add_ps(acc, _mm_mul_ps(va, vb));
        i += 4;
    }
    let mut lanes = [0.0f32; 4];
    _mm_storeu_ps(lanes.as_mut_ptr(), acc);
    let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for j in n4..a.len() {
        s += a[j] * b[j];
    }
    s
}

/// AVX2 [`dot_f32_rows`](crate::dot_f32_rows): eight rows (four packed
/// pairs) per pass in four 256-bit accumulators, pair `p`'s rows in the
/// low and high 128-bit halves of accumulator `p`. The query's four lanes
/// are broadcast to both halves, so each half performs exactly
/// [`dot_f32`]'s per-lane running sums for its row, reduced and tailed in
/// the same order. A leading odd row and the rows after the last whole
/// pass go through the portable per-row path. Beyond AVX2, the caller
/// must guarantee `a.len() == rows.dim()` and
/// `lo + out.len() <= rows.len()` (the crate-root wrapper asserts both).
#[target_feature(enable = "avx2")]
pub unsafe fn dot_f32_rows(a: &[f32], rows: &PackedRows, lo: usize, out: &mut [f32]) {
    let dim = rows.dim();
    let n4 = dim & !3;
    let hi = lo + out.len();
    let mut r = lo;
    if r % 2 == 1 && r < hi {
        out[0] = crate::portable::dot_packed_row(a, rows, r);
        r += 1;
    }
    while r + 8 <= hi {
        let base = rows.data().as_ptr().add(r * dim);
        let mut acc = [_mm256_setzero_ps(); 4];
        let mut i = 0;
        while i < n4 {
            let q = _mm_loadu_ps(a.as_ptr().add(i));
            let va = _mm256_set_m128(q, q);
            for (p, acc) in acc.iter_mut().enumerate() {
                let vb = _mm256_loadu_ps(base.add(2 * p * dim + 2 * i));
                *acc = _mm256_add_ps(*acc, _mm256_mul_ps(va, vb));
            }
            i += 4;
        }
        for (p, acc) in acc.iter().enumerate() {
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), *acc);
            let pair = &rows.data()[(r + 2 * p) * dim..(r + 2 * p + 2) * dim];
            for (half, l) in lanes.chunks_exact(4).enumerate() {
                let tail = dim - n4;
                let mut s = (l[0] + l[1]) + (l[2] + l[3]);
                for (x, y) in a[n4..].iter().zip(&pair[2 * n4 + half * tail..]) {
                    s += x * y;
                }
                out[r + 2 * p + half - lo] = s;
            }
        }
        r += 8;
    }
    for (k, o) in out.iter_mut().enumerate().skip(r - lo) {
        *o = crate::portable::dot_packed_row(a, rows, lo + k);
    }
}

/// `‖a − b‖` of four points `b` against one broadcast point `a`, rounded
/// as the scalar `√(ex·ex + ey·ey)`: separate multiplies and adds, and a
/// correctly rounded square root.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn dist_pd(ax: __m256d, ay: __m256d, bx: *const f64, by: *const f64) -> __m256d {
    let ex = _mm256_sub_pd(ax, _mm256_loadu_pd(bx));
    let ey = _mm256_sub_pd(ay, _mm256_loadu_pd(by));
    _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(ex, ex), _mm256_mul_pd(ey, ey)))
}

/// AVX2 [`compat_degrees`](crate::compat_degrees): row `i` tests four
/// partners `j > i` per pass with the scalar test's operations in the
/// same order (`_CMP_LE_OQ` is false on NaN, like `<=`). A passing
/// lane's all-ones mask, read as −1, is subtracted from row `i`'s
/// four-lane count and from the column counts of partners `j..j + 4`;
/// the partners after the last whole pass take the scalar test. Row `i`'s
/// column count is complete when the row starts, since only rows above it
/// add to it. Beyond AVX2, the caller must guarantee that all five slices
/// have one length (the crate-root wrapper asserts it).
#[target_feature(enable = "avx2")]
pub unsafe fn compat_degrees(
    sx: &[f64],
    sy: &[f64],
    dx: &[f64],
    dy: &[f64],
    reach: f64,
    degrees: &mut [u32],
) {
    let n = degrees.len();
    let mut cols = vec![0i64; n];
    let vreach = _mm256_set1_pd(reach);
    for i in 0..n {
        let (six, siy) = (_mm256_set1_pd(sx[i]), _mm256_set1_pd(sy[i]));
        let (dix, diy) = (_mm256_set1_pd(dx[i]), _mm256_set1_pd(dy[i]));
        let mut row = _mm256_setzero_si256();
        let mut j = i + 1;
        while j + 4 <= n {
            let dd = dist_pd(dix, diy, dx.as_ptr().add(j), dy.as_ptr().add(j));
            let ds = dist_pd(six, siy, sx.as_ptr().add(j), sy.as_ptr().add(j));
            let diff = abs_pd(_mm256_sub_pd(dd, ds));
            let pass = _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_LE_OQ>(diff, vreach));
            row = _mm256_sub_epi64(row, pass);
            let col = cols.as_mut_ptr().add(j).cast::<__m256i>();
            _mm256_storeu_si256(col, _mm256_sub_epi64(_mm256_loadu_si256(col), pass));
            j += 4;
        }
        let mut lanes = [0i64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), row);
        let mut count = lanes.iter().sum::<i64>() + cols[i];
        for (j, col) in cols.iter_mut().enumerate().skip(j) {
            if crate::portable::compatible(sx, sy, dx, dy, reach, i, j) {
                count += 1;
                *col += 1;
            }
        }
        degrees[i] = count as u32;
    }
}
