//! Runtime-dispatched SIMD kernels for BB-Align's stage-1 hot path.
//!
//! Every kernel exists twice: a **portable** scalar implementation
//! ([`portable`]) that is the bit-exact reference, and an **AVX2**
//! implementation ([`avx2`], `x86_64` only) selected at runtime behind
//! `is_x86_feature_detected!`. The public free functions dispatch once per
//! call on a cached [`Dispatch`] value, so callers never need `cfg` or
//! `unsafe`.
//!
//! # Bit-identity contract
//!
//! The repo-wide discipline (see DESIGN.md) is that serial, parallel and
//! vectorised runs produce **bit-identical** results. The AVX2 kernels
//! uphold it by construction:
//!
//! * **No FMA.** A fused multiply-add rounds once where the scalar code
//!   rounds twice; every vector multiply and add here is a separate,
//!   individually rounded instruction, exactly like the scalar source.
//! * **Elementwise ops are order-preserving.** Complex multiply, `|x|`,
//!   compare-and-blend max and the butterfly update touch each element
//!   independently, so lane width cannot change any intermediate value.
//! * **Reductions keep the scalar association.** [`dot_f32`] reuses the
//!   matcher's fixed 4-lane blocking: a 128-bit `f32x4` accumulator
//!   performs *the same* four running sums as the scalar `acc[0..4]`
//!   pattern, combined in the same `(acc0+acc1)+(acc2+acc3)` order.
//!   (A 256-bit 8-lane accumulator would *not* be bit-identical, which is
//!   why the dot kernel deliberately stays at 128 bits per row;
//!   [`dot_f32_rows`] fills 256-bit registers with two rows' 128-bit
//!   accumulators, over rows packed pairwise by [`PackedRows`], instead
//!   of one row's eight lanes.)
//!
//! The `equivalence` proptests compare every AVX2 kernel against its
//! portable twin at the `to_bits` level on randomised inputs.
//!
//! # Dispatch override
//!
//! Set `BBA_SIMD=portable` to force the scalar path (useful to measure
//! vector speedup or to reproduce portable behaviour on an AVX2 host), or
//! `BBA_SIMD=avx2` to insist on AVX2 (falls back to portable with no error
//! if the CPU lacks it). The choice is made once per process and surfaced
//! via [`active`] / [`name`] so benches and metrics can record it.

#![warn(missing_docs)]

pub mod portable;

#[cfg(target_arch = "x86_64")]
pub mod avx2;

use std::sync::OnceLock;

/// Which kernel family the process is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// 256-bit AVX2 kernels (x86_64, detected at runtime).
    Avx2,
    /// Portable scalar kernels — the bit-exact reference.
    Portable,
}

impl Dispatch {
    /// Stable lowercase label (`"avx2"` / `"portable"`) for logs, bench
    /// headers and metrics.
    pub const fn name(self) -> &'static str {
        match self {
            Dispatch::Avx2 => "avx2",
            Dispatch::Portable => "portable",
        }
    }
}

/// Whether the CPU supports AVX2 (independent of any `BBA_SIMD` override).
pub fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The dispatch decision for this process: AVX2 when detected, unless
/// overridden via the `BBA_SIMD` environment variable (read once).
pub fn active() -> Dispatch {
    static ACTIVE: OnceLock<Dispatch> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let detected = avx2_detected();
        match std::env::var("BBA_SIMD").as_deref() {
            Ok("portable") => Dispatch::Portable,
            Ok("avx2") if detected => Dispatch::Avx2,
            Ok("avx2") => Dispatch::Portable, // requested but unavailable
            _ if detected => Dispatch::Avx2,
            _ => Dispatch::Portable,
        }
    })
}

/// Label of the active dispatch (`"avx2"` / `"portable"`).
pub fn name() -> &'static str {
    active().name()
}

#[cfg(target_arch = "x86_64")]
macro_rules! dispatch {
    ($name:ident($($arg:expr),*)) => {
        match active() {
            // SAFETY: `active()` returns `Avx2` only when
            // `is_x86_feature_detected!("avx2")` reported support.
            Dispatch::Avx2 => unsafe { avx2::$name($($arg),*) },
            Dispatch::Portable => portable::$name($($arg),*),
        }
    };
}

#[cfg(not(target_arch = "x86_64"))]
macro_rules! dispatch {
    ($name:ident($($arg:expr),*)) => {{
        let _ = active();
        portable::$name($($arg),*)
    }};
}

/// Elementwise complex multiply over interleaved `[re, im, re, im, …]`
/// buffers: `dst[k] = a[k] * b[k]` with the textbook
/// `(ar·br − ai·bi, ai·br + ar·bi)` rounding (no FMA).
///
/// # Panics
///
/// Panics if the three slices differ in length or the length is odd.
pub fn cmul(dst: &mut [f64], a: &[f64], b: &[f64]) {
    assert!(dst.len() == a.len() && dst.len() == b.len(), "cmul length mismatch");
    assert_eq!(dst.len() % 2, 0, "cmul needs interleaved complex data");
    dispatch!(cmul(dst, a, b))
}

/// The mirror map of a bit-reversed axis: in an axis of any power-of-two
/// length `N > c` whose cell `c` holds frequency bin `rev(c)`, the cell
/// that holds the mirror bin `−rev(c) mod N`. It fixes cells 0 and 1
/// (bins 0 and `N/2`) and reverses each octave block `[2^j, 2^(j+1))`:
/// `m(c) = 3·2^j − 1 − c`. A cell of block `j` holds a bin whose lowest
/// set bit is bit `log₂N − 1 − j`, and negating a bin keeps that bit and
/// complements the bits above it, so `m` stays inside the block and is an
/// involution.
pub const fn bitrev_mirror(c: usize) -> usize {
    if c < 2 {
        c
    } else {
        3 * (1 << c.ilog2()) - 1 - c
    }
}

/// [`cmul`] with `b` read through [`bitrev_mirror`]: over interleaved
/// complex buffers of `n` complexes, `dst[k] = a[k] · b[bitrev_mirror(k)]`
/// with [`cmul`]'s textbook rounding. The AVX2 path reads each octave
/// block of `b` backwards, one 256-bit load per two complexes with its
/// halves swapped.
///
/// # Panics
///
/// Panics if the three slices differ in length or `n` is not a power of
/// two.
pub fn cmul_mirrored(dst: &mut [f64], a: &[f64], b: &[f64]) {
    assert!(dst.len() == a.len() && dst.len() == b.len(), "cmul_mirrored length mismatch");
    assert!(
        dst.len().is_multiple_of(2) && (dst.len() / 2).is_power_of_two(),
        "cmul_mirrored needs a power-of-two count of interleaved complexes"
    );
    dispatch!(cmul_mirrored(dst, a, b))
}

/// One radix-2 butterfly pass over a split block: for `k` in
/// `0..lo.len()/2` (complex elements), with `w = twiddles[k]`,
///
/// ```text
/// b     = hi[k] · w
/// lo[k] = lo[k] + b
/// hi[k] = lo[k] − b      (original lo[k])
/// ```
///
/// All slices are interleaved complex.
///
/// # Panics
///
/// Panics if `lo`/`hi` differ in length, the length is odd, or `twiddles`
/// is shorter than `lo`.
pub fn butterfly(lo: &mut [f64], hi: &mut [f64], twiddles: &[f64]) {
    assert_eq!(lo.len(), hi.len(), "butterfly half length mismatch");
    assert_eq!(lo.len() % 2, 0, "butterfly needs interleaved complex data");
    assert!(twiddles.len() >= lo.len(), "twiddle table too short");
    dispatch!(butterfly(lo, hi, twiddles))
}

/// One whole radix-2 butterfly level over contiguous transform blocks:
/// `x` (interleaved complex) tiles into blocks of `2·half` complexes, and
/// each block's halves get the [`butterfly`] update with the same twiddle
/// table. Hoisting the block loop into the kernel makes one 1-D transform
/// cost `log₂ N` dispatched calls instead of one per block — at the early
/// levels (hundreds of one-complex blocks) the per-call overhead would
/// otherwise dominate the arithmetic. Since blocks tile any multiple of the
/// transform length, a batch of same-length transforms over a contiguous
/// buffer (e.g. every row of a 2-D pass) is also one call per level.
///
/// # Panics
///
/// Panics if `half == 0`, `x.len()` is not a multiple of `4·half`, or
/// `twiddles` holds fewer than `half` complexes.
pub fn fft_pass(x: &mut [f64], twiddles: &[f64], half: usize) {
    assert!(half >= 1, "fft_pass needs half >= 1");
    assert_eq!(x.len() % (4 * half), 0, "fft_pass buffer must tile into blocks");
    assert!(twiddles.len() >= 2 * half, "twiddle table too short");
    dispatch!(fft_pass(x, twiddles, half))
}

/// Two consecutive butterfly levels in one sweep: bit for bit
/// `fft_pass(x, tw_lo, half)` followed by `fft_pass(x, tw_hi, 2·half)`.
/// `x` tiles into blocks of `4·half` complexes; for each `j < half` the
/// block's elements `j`, `j + half`, `j + 2·half`, `j + 3·half` get the
/// level-`half` butterflies (twiddle `tw_lo[j]`) and then the
/// level-`2·half` ones (`tw_hi[j]` and `tw_hi[j + half]`) while they sit
/// in registers, halving the passes over the buffer.
///
/// # Panics
///
/// Panics if `half == 0`, `x.len()` is not a multiple of `8·half`, or a
/// twiddle table is too short (`half` and `2·half` complexes).
pub fn fft_pass2(x: &mut [f64], tw_lo: &[f64], tw_hi: &[f64], half: usize) {
    assert!(half >= 1, "fft_pass2 needs half >= 1");
    assert_eq!(x.len() % (8 * half), 0, "fft_pass2 buffer must tile into blocks");
    assert!(tw_lo.len() >= 2 * half && tw_hi.len() >= 4 * half, "twiddle table too short");
    dispatch!(fft_pass2(x, tw_lo, tw_hi, half))
}

/// Whole-row butterfly: [`butterfly`] with one twiddle `w = [re, im]` for
/// every element. This is one level of a column transform run across
/// whole rows — rows `r` and `r + half` of a row-major grid pair up
/// column by column under a single twiddle, so the columns need no gather,
/// scatter or scratch.
///
/// # Panics
///
/// Panics if `lo`/`hi` differ in length or the length is odd.
pub fn row_butterfly(lo: &mut [f64], hi: &mut [f64], w: [f64; 2]) {
    assert_eq!(lo.len(), hi.len(), "row_butterfly row length mismatch");
    assert_eq!(lo.len() % 2, 0, "row_butterfly needs interleaved complex data");
    dispatch!(row_butterfly(lo, hi, w))
}

/// Two whole-row levels in one sweep: bit for bit
/// `row_butterfly(r0, r1, w_lo)`, `row_butterfly(r2, r3, w_lo)`, then
/// `row_butterfly(r0, r2, w_hi[0])`, `row_butterfly(r1, r3, w_hi[1])`.
/// For a column transform these are rows `j`, `j + half`, `j + 2·half`
/// and `j + 3·half` of one block, through levels `half` and `2·half`.
///
/// # Panics
///
/// Panics if the rows differ in length or the length is odd.
pub fn row_butterfly2(
    r0: &mut [f64],
    r1: &mut [f64],
    r2: &mut [f64],
    r3: &mut [f64],
    w_lo: [f64; 2],
    w_hi: [[f64; 2]; 2],
) {
    let n = r0.len();
    assert!(r1.len() == n && r2.len() == n && r3.len() == n, "row_butterfly2 row length mismatch");
    assert_eq!(n % 2, 0, "row_butterfly2 needs interleaved complex data");
    dispatch!(row_butterfly2(r0, r1, r2, r3, w_lo, w_hi))
}

/// Scale-pair amplitude accumulation, the Log-Gabor per-orientation inner
/// loop: per pixel `i` with packed response `z[i]` (interleaved complex),
///
/// * `init` → `acc[i] = |re·scale| + |im·scale|`
/// * `!init` → `acc[i] = (acc[i] + |re·scale|) + |im·scale|`
///
/// exactly the two arms (and add order) of the scalar accumulation in
/// `bba-signal`.
///
/// # Panics
///
/// Panics if `z.len() != 2 * acc.len()`.
pub fn amp_accumulate(acc: &mut [f64], z: &[f64], scale: f64, init: bool) {
    assert_eq!(z.len(), 2 * acc.len(), "amp_accumulate length mismatch");
    dispatch!(amp_accumulate(acc, z, scale, init))
}

/// Fused final-pair amplitude + running argmax update (the fused-MIM
/// kernel): per pixel `i`, the orientation amplitude
/// `a = (partial[i] + |re·scale|) + |im·scale|` is completed from the
/// earlier scale pair's sum and the packed response `z[i]` (the add order
/// of [`amp_accumulate`]), then folded into the running maximum with
/// strict `>`, so earlier orientations win ties:
///
/// ```text
/// if a > max_amp[i] { max_amp[i] = a; max_idx[i] = o; }
/// ```
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub fn amp_max_fold(
    max_amp: &mut [f64],
    max_idx: &mut [u8],
    z: &[f64],
    scale: f64,
    partial: &[f64],
    o: u8,
) {
    assert_eq!(z.len(), 2 * max_amp.len(), "amp_max_fold length mismatch");
    assert_eq!(max_amp.len(), max_idx.len(), "amp_max_fold index length mismatch");
    assert_eq!(partial.len(), max_amp.len(), "amp_max_fold partial length mismatch");
    dispatch!(amp_max_fold(max_amp, max_idx, z, scale, partial, o))
}

/// Dot product of two `f32` descriptor rows with the matcher's fixed
/// 4-lane blocking: four running sums over strided elements, combined as
/// `(acc0 + acc1) + (acc2 + acc3)`, then a scalar tail. The AVX2 path uses
/// a single 128-bit `f32x4` accumulator, which performs the identical
/// per-lane sums.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_f32 length mismatch");
    dispatch!(dot_f32(a, b))
}

/// A block of `dim`-length `f32` rows re-laid for [`dot_f32_rows`]: rows
/// `2p` and `2p + 1` form pair `p`, stored as `2·dim` floats — their
/// four-float chunks interleaved (`row 2p [4c..4c+4]`, then
/// `row 2p+1 [4c..4c+4]`, for every whole chunk `c`), then the two rows'
/// `dim mod 4` tail elements, `2p`'s first. An odd last row is paired
/// with a zero row. One 256-bit load then fetches the same chunk of two
/// rows, which is what lets the AVX2 kernel keep two rows' 128-bit
/// accumulators in one register without shuffling.
#[derive(Debug, Clone)]
pub struct PackedRows {
    dim: usize,
    len: usize,
    data: Vec<f32>,
}

impl PackedRows {
    /// Packs the row-major block `rows` of `len` rows of length `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != len * dim`.
    pub fn new(rows: &[f32], len: usize, dim: usize) -> Self {
        assert_eq!(rows.len(), len * dim, "PackedRows: block is not {len} rows of {dim}");
        let n4 = dim & !3;
        let mut data = vec![0.0f32; len.div_ceil(2) * 2 * dim];
        for (r, row) in rows.chunks_exact(dim.max(1)).enumerate() {
            let (pair, half) = (&mut data[r / 2 * 2 * dim..(r / 2 + 1) * 2 * dim], r % 2);
            for (c, chunk) in row[..n4].chunks_exact(4).enumerate() {
                pair[8 * c + 4 * half..8 * c + 4 * half + 4].copy_from_slice(chunk);
            }
            let tail = dim - n4;
            pair[2 * n4 + half * tail..2 * n4 + (half + 1) * tail].copy_from_slice(&row[n4..]);
        }
        PackedRows { dim, len, data }
    }

    /// Length of every row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed floats (see the type docs for the layout).
    pub(crate) fn data(&self) -> &[f32] {
        &self.data
    }
}

/// [`dot_f32`] of one query row against consecutive packed rows:
/// `out[k] = dot_f32(a, row lo + k)` for every `k`, bit for bit. The AVX2
/// path computes eight rows per pass, two per 256-bit accumulator: each
/// 128-bit half runs one row's four running sums exactly as [`dot_f32`]
/// does, so the eight rows are independent dependency chains instead of
/// one latency-bound chain per call.
///
/// # Panics
///
/// Panics if `a.len() != rows.dim()` or `lo + out.len() > rows.len()`.
pub fn dot_f32_rows(a: &[f32], rows: &PackedRows, lo: usize, out: &mut [f32]) {
    assert_eq!(a.len(), rows.dim(), "dot_f32_rows dimensionality mismatch");
    assert!(lo + out.len() <= rows.len(), "dot_f32_rows reads past the last row");
    dispatch!(dot_f32_rows(a, rows, lo, out))
}

/// Compatible-partner counts of a correspondence set, the sweep-pruning
/// certificate's input: `degrees[i]` becomes the number of `j ≠ i` with
///
/// ```text
/// |‖d_i − d_j‖ − ‖s_i − s_j‖| ≤ reach
/// ```
///
/// for sources `s = (sx, sy)` and destinations `d = (dx, dy)`, each
/// distance computed as `√(ex·ex + ey·ey)` of the coordinate differences
/// (lower index minus higher), the same rounded operations as the k-core
/// bound's edge test in `bba-features`. A pair with a NaN anywhere in the
/// test is not compatible. The AVX2 path tests four partners per pass
/// with IEEE-exact square roots and no FMA, so every pair's verdict is
/// the scalar one.
///
/// # Panics
///
/// Panics if the five slices differ in length.
pub fn compat_degrees(
    sx: &[f64],
    sy: &[f64],
    dx: &[f64],
    dy: &[f64],
    reach: f64,
    degrees: &mut [u32],
) {
    let n = degrees.len();
    assert!(
        sx.len() == n && sy.len() == n && dx.len() == n && dy.len() == n,
        "compat_degrees length mismatch"
    );
    dispatch!(compat_degrees(sx, sy, dx, dy, reach, degrees))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_name_is_stable() {
        assert_eq!(Dispatch::Avx2.name(), "avx2");
        assert_eq!(Dispatch::Portable.name(), "portable");
        assert!(matches!(active(), Dispatch::Avx2 | Dispatch::Portable));
        assert_eq!(name(), active().name());
    }

    #[test]
    fn cmul_matches_hand_computation() {
        // (1+2i)(3+4i) = -5+10i ; (0.5-1i)(-2+0.25i) = -0.75+2.125i
        let a = [1.0, 2.0, 0.5, -1.0];
        let b = [3.0, 4.0, -2.0, 0.25];
        let mut dst = [0.0; 4];
        cmul(&mut dst, &a, &b);
        assert_eq!(dst, [-5.0, 10.0, -0.75, 2.125]);
    }

    #[test]
    fn bitrev_mirror_is_the_involution_of_bin_negation() {
        for bits in 0..=12u32 {
            let n = 1usize << bits;
            let rev =
                |c: usize| if bits == 0 { c } else { c.reverse_bits() >> (usize::BITS - bits) };
            for c in 0..n {
                let m = bitrev_mirror(c);
                assert!(m < n, "n={n}: m({c}) = {m} leaves the axis");
                assert_eq!(m, rev((n - rev(c)) % n), "n={n}: m({c}) is not the mirror bin's cell");
                assert_eq!(bitrev_mirror(m), c, "n={n}: m(m({c})) != {c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two count")]
    fn cmul_mirrored_rejects_a_length_that_is_not_a_power_of_two() {
        cmul_mirrored(&mut [0.0; 6], &[0.0; 6], &[0.0; 6]);
    }

    #[test]
    fn dot_matches_scalar_blocking() {
        let a: Vec<f32> = (0..11).map(|i| (i as f32) * 0.25 - 1.0).collect();
        let b: Vec<f32> = (0..11).map(|i| 0.5 - (i as f32) * 0.125).collect();
        assert_eq!(dot_f32(&a, &b).to_bits(), portable::dot_f32(&a, &b).to_bits());
    }

    #[test]
    fn dot_rows_match_per_row_dot_at_descriptor_sizes() {
        // Production (432) and test (192) descriptor dimensions plus
        // tails; row counts and offsets around the eight-row pass.
        for dim in [0, 1, 3, 5, 192, 431, 432] {
            let a: Vec<f32> = (0..dim).map(|i| ((i * 7) % 13) as f32 * 0.125 - 0.7).collect();
            for n_rows in [0, 1, 7, 8, 9, 17, 24] {
                let rows: Vec<f32> =
                    (0..n_rows * dim).map(|i| ((i * 5) % 11) as f32 * 0.0625 - 0.3).collect();
                let packed = PackedRows::new(&rows, n_rows, dim);
                assert_eq!(packed.len(), n_rows);
                for lo in 0..packed.len() {
                    let mut out = vec![f32::NAN; packed.len() - lo];
                    dot_f32_rows(&a, &packed, lo, &mut out);
                    for (k, o) in out.iter().enumerate() {
                        let r = lo + k;
                        let want = portable::dot_f32(&a, &rows[r * dim..(r + 1) * dim]);
                        assert_eq!(o.to_bits(), want.to_bits(), "dim {dim}, row {r} of {n_rows}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "dot_f32_rows reads past the last row")]
    fn dot_rows_reject_reads_past_the_block() {
        let packed = PackedRows::new(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        dot_f32_rows(&[1.0, 2.0], &packed, 1, &mut [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "block is not 2 rows of 2")]
    fn packing_rejects_a_ragged_block() {
        PackedRows::new(&[1.0, 2.0, 3.0], 2, 2);
    }

    #[test]
    fn amp_max_fold_ties_keep_first_orientation() {
        let mut max_amp = vec![f64::NEG_INFINITY; 2];
        let mut max_idx = vec![0u8; 2];
        let z = [2.0, 0.0, -1.0, 0.0];
        amp_max_fold(&mut max_amp, &mut max_idx, &z, 1.0, &[0.0; 2], 3);
        amp_max_fold(&mut max_amp, &mut max_idx, &z, 1.0, &[0.0; 2], 5); // tie
        assert_eq!(max_amp, vec![2.0, 1.0]);
        assert_eq!(max_idx, vec![3, 3], "strict > must keep the earlier orientation");
    }
}
