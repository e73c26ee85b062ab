//! `to_bits`-level equivalence of the AVX2 kernels against the portable
//! scalar references, on randomised inputs. On hosts without AVX2 the
//! vector half of each test is skipped (the dispatcher would never pick
//! AVX2 there) and the dispatched wrapper is still exercised against the
//! portable reference.

use proptest::prelude::*;

fn finite64() -> impl Strategy<Value = f64> {
    prop_oneof![-1e6f64..1e6, -1.0f64..1.0, Just(0.0), Just(-0.0)]
}

fn finite32() -> impl Strategy<Value = f32> {
    -100.0f32..100.0
}

/// Runs `avx2` only when the host supports it; always checks the
/// dispatched wrapper too (whatever path it picked) so portable-only hosts
/// still execute every assertion against the reference.
fn bits64(label: &str, reference: &[f64], candidate: &[f64]) {
    assert_eq!(reference.len(), candidate.len(), "{label}: length");
    for (i, (a, b)) in reference.iter().zip(candidate).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: bit mismatch at {i}: {a} vs {b}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cmul_bitwise(data in proptest::collection::vec((finite64(), finite64()), 0..40)) {
        let a: Vec<f64> = data.iter().flat_map(|&(x, y)| [x, y]).collect();
        let b: Vec<f64> = data.iter().flat_map(|&(x, y)| [y, 0.5 * x - y]).collect();
        let mut want = vec![0.0; a.len()];
        bba_simd::portable::cmul(&mut want, &a, &b);
        let mut got = vec![0.0; a.len()];
        bba_simd::cmul(&mut got, &a, &b);
        bits64("cmul dispatched", &want, &got);
        #[cfg(target_arch = "x86_64")]
        if bba_simd::avx2_detected() {
            let mut got = vec![0.0; a.len()];
            unsafe { bba_simd::avx2::cmul(&mut got, &a, &b) };
            bits64("cmul avx2", &want, &got);
        }
    }

    #[test]
    fn butterfly_bitwise(
        vals in proptest::collection::vec(finite64(), 0..32),
        tw in proptest::collection::vec(finite64(), 64..128),
        stride in 1usize..5,
    ) {
        let half = vals.len() / 2 * 2; // even f64 count per half
        let lo0: Vec<f64> = vals[..half].to_vec();
        let hi0: Vec<f64> = vals[..half].iter().map(|x| x * 0.75 - 1.0).collect();
        // Keep the strided accesses in range.
        let need = if half == 0 { 0 } else { (half / 2 - 1) * stride * 2 + 2 };
        prop_assume!(need <= tw.len());

        let (mut lo_a, mut hi_a) = (lo0.clone(), hi0.clone());
        bba_simd::portable::butterfly(&mut lo_a, &mut hi_a, &tw, stride);
        let (mut lo_b, mut hi_b) = (lo0.clone(), hi0.clone());
        bba_simd::butterfly(&mut lo_b, &mut hi_b, &tw, stride);
        bits64("butterfly lo", &lo_a, &lo_b);
        bits64("butterfly hi", &hi_a, &hi_b);
        #[cfg(target_arch = "x86_64")]
        if bba_simd::avx2_detected() {
            let (mut lo_c, mut hi_c) = (lo0.clone(), hi0.clone());
            unsafe { bba_simd::avx2::butterfly(&mut lo_c, &mut hi_c, &tw, stride) };
            bits64("butterfly avx2 lo", &lo_a, &lo_c);
            bits64("butterfly avx2 hi", &hi_a, &hi_c);
        }
    }

    #[test]
    fn butterfly_x2_matches_two_single_streams(
        vals in proptest::collection::vec(finite64(), 0..32),
        tw in proptest::collection::vec(finite64(), 64..128),
        stride in 1usize..5,
    ) {
        // Build two streams, interleave them pairwise, and check the paired
        // kernel against running the single-stream kernel on each.
        let n = vals.len() / 2; // complexes per stream half
        let s0: Vec<f64> = vals[..2 * n].to_vec();
        let s1: Vec<f64> = s0.iter().map(|x| 1.0 - x).collect();
        let hi_of = |s: &[f64]| -> Vec<f64> { s.iter().map(|x| x * 0.5 + 2.0).collect() };
        let need = if n == 0 { 0 } else { (n - 1) * stride * 2 + 2 };
        prop_assume!(need <= tw.len());

        let interleave = |a: &[f64], b: &[f64]| -> Vec<f64> {
            let mut out = Vec::with_capacity(a.len() * 2);
            for k in 0..a.len() / 2 {
                out.extend_from_slice(&a[2 * k..2 * k + 2]);
                out.extend_from_slice(&b[2 * k..2 * k + 2]);
            }
            out
        };
        let mut lo2 = interleave(&s0, &s1);
        let mut hi2 = interleave(&hi_of(&s0), &hi_of(&s1));
        bba_simd::butterfly_x2(&mut lo2, &mut hi2, &tw, stride);

        let (mut lo_s0, mut hi_s0) = (s0.clone(), hi_of(&s0));
        bba_simd::portable::butterfly(&mut lo_s0, &mut hi_s0, &tw, stride);
        let (mut lo_s1, mut hi_s1) = (s1.clone(), hi_of(&s1));
        bba_simd::portable::butterfly(&mut lo_s1, &mut hi_s1, &tw, stride);

        bits64("x2 lo", &interleave(&lo_s0, &lo_s1), &lo2);
        bits64("x2 hi", &interleave(&hi_s0, &hi_s1), &hi2);
        #[cfg(target_arch = "x86_64")]
        if bba_simd::avx2_detected() {
            let mut lo_c = interleave(&s0, &s1);
            let mut hi_c = interleave(&hi_of(&s0), &hi_of(&s1));
            unsafe { bba_simd::avx2::butterfly_x2(&mut lo_c, &mut hi_c, &tw, stride) };
            bits64("x2 avx2 lo", &interleave(&lo_s0, &lo_s1), &lo_c);
            bits64("x2 avx2 hi", &interleave(&hi_s0, &hi_s1), &hi_c);
        }
    }

    #[test]
    fn fft_pass_matches_per_block_butterflies(
        vals in proptest::collection::vec(finite64(), 1..48),
        tw in proptest::collection::vec(finite64(), 64..128),
        half_pow in 0u32..4,
        stride in 1usize..5,
        blocks in 0usize..5,
    ) {
        let half = 1usize << half_pow; // complexes per block half
        let need = (half - 1) * stride * 2 + 2;
        prop_assume!(need <= tw.len());
        // Tile `blocks` blocks of 2·half complexes from the value pool.
        let step = 4 * half;
        let mut x0 = Vec::with_capacity(blocks * step);
        for i in 0..blocks * step {
            x0.push(vals[i % vals.len()] * (1.0 + 0.01 * i as f64));
        }

        // Reference: the per-block scalar butterfly loop.
        let mut want = x0.clone();
        for block in want.chunks_exact_mut(step) {
            let (lo, hi) = block.split_at_mut(2 * half);
            bba_simd::portable::butterfly(lo, hi, &tw, stride);
        }
        let mut got = x0.clone();
        bba_simd::fft_pass(&mut got, &tw, half, stride);
        bits64("fft_pass dispatched", &want, &got);
        let mut got = x0.clone();
        bba_simd::portable::fft_pass(&mut got, &tw, half, stride);
        bits64("fft_pass portable", &want, &got);
        #[cfg(target_arch = "x86_64")]
        if bba_simd::avx2_detected() {
            let mut got = x0.clone();
            unsafe { bba_simd::avx2::fft_pass(&mut got, &tw, half, stride) };
            bits64("fft_pass avx2", &want, &got);
        }
    }

    #[test]
    fn fft_pass_x2_matches_per_block_butterflies(
        vals in proptest::collection::vec(finite64(), 1..48),
        tw in proptest::collection::vec(finite64(), 64..128),
        half_pow in 0u32..3,
        stride in 1usize..5,
        blocks in 0usize..4,
    ) {
        let half = 1usize << half_pow; // stream-pair elements per block half
        let need = (half - 1) * stride * 2 + 2;
        prop_assume!(need <= tw.len());
        let step = 8 * half;
        let mut x0 = Vec::with_capacity(blocks * step);
        for i in 0..blocks * step {
            x0.push(vals[i % vals.len()] * (1.0 - 0.01 * i as f64));
        }

        let mut want = x0.clone();
        for block in want.chunks_exact_mut(step) {
            let (lo, hi) = block.split_at_mut(4 * half);
            bba_simd::portable::butterfly_x2(lo, hi, &tw, stride);
        }
        let mut got = x0.clone();
        bba_simd::fft_pass_x2(&mut got, &tw, half, stride);
        bits64("fft_pass_x2 dispatched", &want, &got);
        #[cfg(target_arch = "x86_64")]
        if bba_simd::avx2_detected() {
            let mut got = x0.clone();
            unsafe { bba_simd::avx2::fft_pass_x2(&mut got, &tw, half, stride) };
            bits64("fft_pass_x2 avx2", &want, &got);
        }
    }

    #[test]
    fn amp_accumulate_bitwise(
        z in proptest::collection::vec(finite64(), 0..40),
        acc0 in proptest::collection::vec(finite64(), 0..20),
        scale in 1e-6f64..2.0,
        both in any::<bool>(),
        init in any::<bool>(),
    ) {
        let n = (z.len() / 2).min(acc0.len());
        let z = &z[..2 * n];
        let mut want = acc0[..n].to_vec();
        bba_simd::portable::amp_accumulate(&mut want, z, scale, both, init);
        let mut got = acc0[..n].to_vec();
        bba_simd::amp_accumulate(&mut got, z, scale, both, init);
        bits64("amp_accumulate dispatched", &want, &got);
        #[cfg(target_arch = "x86_64")]
        if bba_simd::avx2_detected() {
            let mut got = acc0[..n].to_vec();
            unsafe { bba_simd::avx2::amp_accumulate(&mut got, z, scale, both, init) };
            bits64("amp_accumulate avx2", &want, &got);
        }
    }

    #[test]
    fn amp_max_fold_and_merge_bitwise(
        z in proptest::collection::vec(finite64(), 0..40),
        partial in proptest::collection::vec(finite64(), 0..20),
        seeds in proptest::collection::vec((finite64(), 0u8..12), 0..20),
        scale in 1e-6f64..2.0,
        both in any::<bool>(),
        with_partial in any::<bool>(),
        o in 0u8..12,
    ) {
        let n = (z.len() / 2).min(partial.len()).min(seeds.len());
        let z = &z[..2 * n];
        let p = with_partial.then(|| &partial[..n]);
        let amp0: Vec<f64> = seeds[..n].iter().map(|s| s.0).collect();
        let idx0: Vec<u8> = seeds[..n].iter().map(|s| s.1).collect();

        let (mut amp_a, mut idx_a) = (amp0.clone(), idx0.clone());
        bba_simd::portable::amp_max_fold(&mut amp_a, &mut idx_a, z, scale, both, p, o);
        let (mut amp_b, mut idx_b) = (amp0.clone(), idx0.clone());
        bba_simd::amp_max_fold(&mut amp_b, &mut idx_b, z, scale, both, p, o);
        bits64("amp_max_fold amp", &amp_a, &amp_b);
        prop_assert_eq!(&idx_a, &idx_b, "amp_max_fold idx");
        #[cfg(target_arch = "x86_64")]
        if bba_simd::avx2_detected() {
            let (mut amp_c, mut idx_c) = (amp0.clone(), idx0.clone());
            unsafe { bba_simd::avx2::amp_max_fold(&mut amp_c, &mut idx_c, z, scale, both, p, o) };
            bits64("amp_max_fold avx2 amp", &amp_a, &amp_c);
            prop_assert_eq!(&idx_a, &idx_c, "amp_max_fold avx2 idx");
        }
    }

    #[test]
    fn dot_f32_bitwise(pairs in proptest::collection::vec((finite32(), finite32()), 0..70)) {
        let a: Vec<f32> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f32> = pairs.iter().map(|p| p.1).collect();
        let want = bba_simd::portable::dot_f32(&a, &b);
        prop_assert_eq!(want.to_bits(), bba_simd::dot_f32(&a, &b).to_bits(), "dot dispatched");
        #[cfg(target_arch = "x86_64")]
        if bba_simd::avx2_detected() {
            let got = unsafe { bba_simd::avx2::dot_f32(&a, &b) };
            prop_assert_eq!(want.to_bits(), got.to_bits(), "dot avx2");
        }
    }

    #[test]
    fn dot_f32_rows_equals_per_row_dot(
        dim in 0usize..40,
        n_rows in 0usize..20,
        lo_seed in 0usize..20,
        vals in proptest::collection::vec(finite32(), 1..97),
    ) {
        // Dimensions not divisible by 4 exercise the scalar tail, row
        // counts and offsets not divisible by 8 the per-row remainder.
        let at = |k: usize| vals[k % vals.len()];
        let a: Vec<f32> = (0..dim).map(at).collect();
        let rows: Vec<f32> = (0..n_rows * dim).map(|k| at(k + 3 * dim + 1)).collect();
        let packed = bba_simd::PackedRows::new(&rows, n_rows, dim);
        let lo = lo_seed.min(n_rows);
        let want: Vec<u32> = (lo..n_rows)
            .map(|r| bba_simd::portable::dot_f32(&a, &rows[r * dim..(r + 1) * dim]).to_bits())
            .collect();
        let bits = |o: &[f32]| o.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut got = vec![f32::NAN; n_rows - lo];
        bba_simd::dot_f32_rows(&a, &packed, lo, &mut got);
        prop_assert_eq!(&want, &bits(&got), "dot rows dispatched");
        let mut got = vec![f32::NAN; n_rows - lo];
        bba_simd::portable::dot_f32_rows(&a, &packed, lo, &mut got);
        prop_assert_eq!(&want, &bits(&got), "dot rows portable");
        #[cfg(target_arch = "x86_64")]
        if bba_simd::avx2_detected() {
            let mut got = vec![f32::NAN; n_rows - lo];
            unsafe { bba_simd::avx2::dot_f32_rows(&a, &packed, lo, &mut got) };
            prop_assert_eq!(&want, &bits(&got), "dot rows avx2");
        }
    }
}
