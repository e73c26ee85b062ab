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

/// Finite values, or NaN and ±∞.
fn special64() -> impl Strategy<Value = f64> {
    prop_oneof![finite64(), Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)]
}

/// [`bits64`] where every NaN equals every NaN: Rust leaves the payload
/// of an arithmetic NaN unspecified.
fn same64(label: &str, reference: &[f64], candidate: &[f64]) {
    assert_eq!(reference.len(), candidate.len(), "{label}: length");
    for (i, (a, b)) in reference.iter().zip(candidate).enumerate() {
        let same = a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        assert!(same, "{label}: bit mismatch at {i}: {a} vs {b}");
    }
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

/// `len` values cycled from `pool`, each nudged by its position so no two
/// elements of a block coincide.
fn tile(pool: &[f64], len: usize, nudge: f64) -> Vec<f64> {
    (0..len).map(|i| pool[i % pool.len()] * (1.0 + nudge * i as f64)).collect()
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
    fn cmul_mirrored_is_cmul_on_the_mirrored_operand(
        pool_a in proptest::collection::vec(special64(), 1..24),
        pool_b in proptest::collection::vec(special64(), 1..24),
    ) {
        for bits in 0..=9 {
            let n = 1usize << bits; // complexes
            let (a, b) = (tile(&pool_a, 2 * n, 0.01), tile(&pool_b, 2 * n, -0.003));
            let mirrored: Vec<f64> = (0..n)
                .flat_map(|k| {
                    let j = bba_simd::bitrev_mirror(k);
                    [b[2 * j], b[2 * j + 1]]
                })
                .collect();
            let mut want = vec![0.0; 2 * n];
            bba_simd::portable::cmul(&mut want, &a, &mirrored);
            let mut got = vec![0.0; 2 * n];
            bba_simd::portable::cmul_mirrored(&mut got, &a, &b);
            same64(&format!("cmul_mirrored portable, n={n}"), &want, &got);
            bba_simd::cmul(&mut want, &a, &mirrored);
            bba_simd::cmul_mirrored(&mut got, &a, &b);
            same64(&format!("cmul_mirrored dispatched, n={n}"), &want, &got);
            #[cfg(target_arch = "x86_64")]
            if bba_simd::avx2_detected() {
                unsafe { bba_simd::avx2::cmul(&mut want, &a, &mirrored) };
                unsafe { bba_simd::avx2::cmul_mirrored(&mut got, &a, &b) };
                same64(&format!("cmul_mirrored avx2, n={n}"), &want, &got);
            }
        }
    }

    #[test]
    fn butterfly_bitwise(
        vals in proptest::collection::vec(finite64(), 0..32),
        tw in proptest::collection::vec(finite64(), 32..64),
    ) {
        let half = vals.len() / 2 * 2; // even f64 count per half
        let lo0: Vec<f64> = vals[..half].to_vec();
        let hi0: Vec<f64> = vals[..half].iter().map(|x| x * 0.75 - 1.0).collect();

        let (mut lo_a, mut hi_a) = (lo0.clone(), hi0.clone());
        bba_simd::portable::butterfly(&mut lo_a, &mut hi_a, &tw);
        let (mut lo_b, mut hi_b) = (lo0.clone(), hi0.clone());
        bba_simd::butterfly(&mut lo_b, &mut hi_b, &tw);
        bits64("butterfly lo", &lo_a, &lo_b);
        bits64("butterfly hi", &hi_a, &hi_b);
        #[cfg(target_arch = "x86_64")]
        if bba_simd::avx2_detected() {
            let (mut lo_c, mut hi_c) = (lo0.clone(), hi0.clone());
            unsafe { bba_simd::avx2::butterfly(&mut lo_c, &mut hi_c, &tw) };
            bits64("butterfly avx2 lo", &lo_a, &lo_c);
            bits64("butterfly avx2 hi", &hi_a, &hi_c);
        }
    }

    #[test]
    fn fft_pass_matches_per_block_butterflies(
        vals in proptest::collection::vec(finite64(), 1..48),
        tw in proptest::collection::vec(finite64(), 16..32),
        half_pow in 0u32..4,
        blocks in 0usize..5,
    ) {
        let half = 1usize << half_pow; // complexes per block half
        // Tile `blocks` blocks of 2·half complexes from the value pool.
        let step = 4 * half;
        let x0 = tile(&vals, blocks * step, 0.01);

        // Reference: the per-block scalar butterfly loop.
        let mut want = x0.clone();
        for block in want.chunks_exact_mut(step) {
            let (lo, hi) = block.split_at_mut(2 * half);
            bba_simd::portable::butterfly(lo, hi, &tw);
        }
        let mut got = x0.clone();
        bba_simd::fft_pass(&mut got, &tw, half);
        bits64("fft_pass dispatched", &want, &got);
        let mut got = x0.clone();
        bba_simd::portable::fft_pass(&mut got, &tw, half);
        bits64("fft_pass portable", &want, &got);
        #[cfg(target_arch = "x86_64")]
        if bba_simd::avx2_detected() {
            let mut got = x0.clone();
            unsafe { bba_simd::avx2::fft_pass(&mut got, &tw, half) };
            bits64("fft_pass avx2", &want, &got);
        }
    }

    #[test]
    fn fft_pass2_matches_two_single_level_passes(
        vals in proptest::collection::vec(finite64(), 1..48),
        tw in proptest::collection::vec(finite64(), 48..64),
        half_pow in 0u32..4,
        blocks in 0usize..5,
    ) {
        let half = 1usize << half_pow;
        let (tw_lo, tw_hi) = tw.split_at(2 * half); // half, then 2·half complexes
        let x0 = tile(&vals, blocks * 8 * half, -0.01);

        let mut want = x0.clone();
        bba_simd::portable::fft_pass(&mut want, tw_lo, half);
        bba_simd::portable::fft_pass(&mut want, tw_hi, 2 * half);
        let mut got = x0.clone();
        bba_simd::fft_pass2(&mut got, tw_lo, tw_hi, half);
        bits64("fft_pass2 dispatched", &want, &got);
        let mut got = x0.clone();
        bba_simd::portable::fft_pass2(&mut got, tw_lo, tw_hi, half);
        bits64("fft_pass2 portable", &want, &got);
        #[cfg(target_arch = "x86_64")]
        if bba_simd::avx2_detected() {
            let mut got = x0.clone();
            unsafe { bba_simd::avx2::fft_pass2(&mut got, tw_lo, tw_hi, half) };
            bits64("fft_pass2 avx2", &want, &got);
        }
    }

    #[test]
    fn row_butterfly_is_butterfly_with_one_twiddle(
        vals in proptest::collection::vec(finite64(), 2..68),
        len in 1usize..34,
        w in (finite64(), finite64()),
    ) {
        // Rows of 1–33 complexes cover the vector body and the odd tail.
        let lo0 = tile(&vals, 2 * len, 0.02);
        let hi0 = tile(&vals[1..], 2 * len, -0.03);
        let w = [w.0, w.1];
        let repeated: Vec<f64> = (0..len).flat_map(|_| w).collect();

        let (mut lo_a, mut hi_a) = (lo0.clone(), hi0.clone());
        bba_simd::portable::butterfly(&mut lo_a, &mut hi_a, &repeated);
        let (mut lo_b, mut hi_b) = (lo0.clone(), hi0.clone());
        bba_simd::row_butterfly(&mut lo_b, &mut hi_b, w);
        bits64("row_butterfly dispatched lo", &lo_a, &lo_b);
        bits64("row_butterfly dispatched hi", &hi_a, &hi_b);
        let (mut lo_b, mut hi_b) = (lo0.clone(), hi0.clone());
        bba_simd::portable::row_butterfly(&mut lo_b, &mut hi_b, w);
        bits64("row_butterfly portable lo", &lo_a, &lo_b);
        bits64("row_butterfly portable hi", &hi_a, &hi_b);
        #[cfg(target_arch = "x86_64")]
        if bba_simd::avx2_detected() {
            let (mut lo_c, mut hi_c) = (lo0.clone(), hi0.clone());
            unsafe { bba_simd::avx2::row_butterfly(&mut lo_c, &mut hi_c, w) };
            bits64("row_butterfly avx2 lo", &lo_a, &lo_c);
            bits64("row_butterfly avx2 hi", &hi_a, &hi_c);
        }
    }

    #[test]
    fn row_butterfly2_matches_two_single_level_sweeps(
        vals in proptest::collection::vec(finite64(), 4..68),
        len in 1usize..34,
        w in proptest::collection::vec((finite64(), finite64()), 3),
    ) {
        let rows0: Vec<Vec<f64>> =
            (0..4).map(|r| tile(&vals[r..], 2 * len, 0.01 * (r as f64 - 1.5))).collect();
        let (w_lo, w_hi) = ([w[0].0, w[0].1], [[w[1].0, w[1].1], [w[2].0, w[2].1]]);
        let check = |label: &str, got: &[Vec<f64>], want: &[Vec<f64>]| {
            for (r, (a, b)) in want.iter().zip(got).enumerate() {
                bits64(&format!("{label} row {r}"), a, b);
            }
        };

        let mut want = rows0.clone();
        let [r0, r1, r2, r3] = &mut want[..] else { unreachable!() };
        bba_simd::portable::row_butterfly(r0, r1, w_lo);
        bba_simd::portable::row_butterfly(r2, r3, w_lo);
        bba_simd::portable::row_butterfly(r0, r2, w_hi[0]);
        bba_simd::portable::row_butterfly(r1, r3, w_hi[1]);
        let mut got = rows0.clone();
        let [r0, r1, r2, r3] = &mut got[..] else { unreachable!() };
        bba_simd::row_butterfly2(r0, r1, r2, r3, w_lo, w_hi);
        check("row_butterfly2 dispatched", &got, &want);
        let mut got = rows0.clone();
        let [r0, r1, r2, r3] = &mut got[..] else { unreachable!() };
        bba_simd::portable::row_butterfly2(r0, r1, r2, r3, w_lo, w_hi);
        check("row_butterfly2 portable", &got, &want);
        #[cfg(target_arch = "x86_64")]
        if bba_simd::avx2_detected() {
            let mut got = rows0.clone();
            let [r0, r1, r2, r3] = &mut got[..] else { unreachable!() };
            unsafe { bba_simd::avx2::row_butterfly2(r0, r1, r2, r3, w_lo, w_hi) };
            check("row_butterfly2 avx2", &got, &want);
        }
    }

    #[test]
    fn amp_accumulate_bitwise(
        z in proptest::collection::vec(finite64(), 0..40),
        acc0 in proptest::collection::vec(finite64(), 0..20),
        scale in 1e-6f64..2.0,
        init in any::<bool>(),
    ) {
        let n = (z.len() / 2).min(acc0.len());
        let z = &z[..2 * n];
        let mut want = acc0[..n].to_vec();
        bba_simd::portable::amp_accumulate(&mut want, z, scale, init);
        let mut got = acc0[..n].to_vec();
        bba_simd::amp_accumulate(&mut got, z, scale, init);
        bits64("amp_accumulate dispatched", &want, &got);
        #[cfg(target_arch = "x86_64")]
        if bba_simd::avx2_detected() {
            let mut got = acc0[..n].to_vec();
            unsafe { bba_simd::avx2::amp_accumulate(&mut got, z, scale, init) };
            bits64("amp_accumulate avx2", &want, &got);
        }
    }

    #[test]
    fn amp_max_fold_and_merge_bitwise(
        z in proptest::collection::vec(finite64(), 0..40),
        partial in proptest::collection::vec(finite64(), 0..20),
        seeds in proptest::collection::vec((finite64(), 0u8..12), 0..20),
        shift in 0usize..4,
        scale in 1e-6f64..2.0,
        o in 0u8..12,
    ) {
        let n = (z.len() / 2).min(partial.len()).min(seeds.len());
        let (z, p) = (&z[..2 * n], &partial[..n]);
        // Every run of four lanes, and so every 4-lane vector, holds a
        // running max equal to the folded amplitude bit for bit, one an ulp
        // below it (the fold wins), one an ulp above it (the fold loses)
        // and one random.
        let folded = |i: usize| (p[i] + (z[2 * i] * scale).abs()) + (z[2 * i + 1] * scale).abs();
        let amp0: Vec<f64> = (0..n)
            .map(|i| match (i + shift) % 4 {
                0 => folded(i),
                1 => folded(i).next_down(),
                2 => folded(i).next_up(),
                _ => seeds[i].0,
            })
            .collect();
        let idx0: Vec<u8> = seeds[..n].iter().map(|s| s.1).collect();

        let (mut amp_a, mut idx_a) = (amp0.clone(), idx0.clone());
        bba_simd::portable::amp_max_fold(&mut amp_a, &mut idx_a, z, scale, p, o);
        for i in 0..n {
            // Strict `>`: a tie keeps the earlier orientation's index.
            let (amp, idx) = if folded(i) > amp0[i] { (folded(i), o) } else { (amp0[i], idx0[i]) };
            prop_assert_eq!(amp_a[i].to_bits(), amp.to_bits(), "lane {} amplitude", i);
            prop_assert_eq!(idx_a[i], idx, "lane {} index", i);
        }
        let (mut amp_b, mut idx_b) = (amp0.clone(), idx0.clone());
        bba_simd::amp_max_fold(&mut amp_b, &mut idx_b, z, scale, p, o);
        bits64("amp_max_fold amp", &amp_a, &amp_b);
        prop_assert_eq!(&idx_a, &idx_b, "amp_max_fold idx");
        #[cfg(target_arch = "x86_64")]
        if bba_simd::avx2_detected() {
            let (mut amp_c, mut idx_c) = (amp0.clone(), idx0.clone());
            unsafe { bba_simd::avx2::amp_max_fold(&mut amp_c, &mut idx_c, z, scale, p, o) };
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

    #[test]
    fn compat_degrees_match_the_scalar_predicate(
        points in proptest::collection::vec((finite64(), finite64(), -3.0f64..3.0, -3.0f64..3.0, 0u8..12), 0..41),
        reach in prop_oneof![Just(0.0), Just(2.0), 0.0f64..8.0],
    ) {
        // Destinations near a rigid image of the sources, so both verdicts
        // occur; kinds 10 and 11 put a NaN in a source or a destination.
        let nan = |k: u8, at: u8, v: f64| if k == at { f64::NAN } else { v };
        let sx: Vec<f64> = points.iter().map(|p| nan(p.4, 10, p.0)).collect();
        let sy: Vec<f64> = points.iter().map(|p| p.1).collect();
        let dx: Vec<f64> = points.iter().map(|p| -p.1 + p.2).collect();
        let dy: Vec<f64> = points.iter().map(|p| nan(p.4, 11, p.0 + p.3)).collect();
        assert_degrees(&sx, &sy, &dx, &dy, reach)?;
    }

    #[test]
    fn compat_degrees_keep_pairs_at_the_two_threshold_edge(
        lattice in proptest::collection::vec((0u32..64, 0u8..3), 0..41),
        threshold in prop_oneof![Just(0.5f64), Just(1.0), Just(0.25)],
    ) {
        // Integer sources on a line, destinations shifted along it by 0,
        // t or 2t: every distance is exact, and pairs whose shifts differ
        // by 2t sit exactly on the edge `reach = 2t` and must pass.
        let sx: Vec<f64> = lattice.iter().map(|&(x, _)| f64::from(x)).collect();
        let sy = vec![0.0; lattice.len()];
        let dx: Vec<f64> =
            lattice.iter().map(|&(x, s)| f64::from(x) + f64::from(s) * threshold).collect();
        let dy = vec![3.0; lattice.len()];
        assert_degrees(&sx, &sy, &dx, &dy, 2.0 * threshold)?;
    }
}

/// The partner count of every correspondence, from the pair test written
/// out over all ordered pairs, independently of the kernels' half-matrix
/// walk.
fn scalar_degrees(sx: &[f64], sy: &[f64], dx: &[f64], dy: &[f64], reach: f64) -> Vec<u32> {
    let n = sx.len();
    let dist = |x: &[f64], y: &[f64], a: usize, b: usize| {
        let (ex, ey) = (x[a] - x[b], y[a] - y[b]);
        (ex * ex + ey * ey).sqrt()
    };
    (0..n)
        .map(|i| {
            let partners = (0..n).filter(|&j| {
                let (a, b) = (i.min(j), i.max(j));
                j != i && (dist(dx, dy, a, b) - dist(sx, sy, a, b)).abs() <= reach
            });
            partners.count() as u32
        })
        .collect()
}

/// Dispatched, portable and (where the host has it) AVX2 partner counts
/// all equal [`scalar_degrees`].
fn assert_degrees(
    sx: &[f64],
    sy: &[f64],
    dx: &[f64],
    dy: &[f64],
    reach: f64,
) -> Result<(), proptest::TestCaseError> {
    let want = scalar_degrees(sx, sy, dx, dy, reach);
    let mut got = vec![u32::MAX; sx.len()];
    bba_simd::compat_degrees(sx, sy, dx, dy, reach, &mut got);
    prop_assert_eq!(&want, &got, "compat degrees dispatched");
    let mut got = vec![u32::MAX; sx.len()];
    bba_simd::portable::compat_degrees(sx, sy, dx, dy, reach, &mut got);
    prop_assert_eq!(&want, &got, "compat degrees portable");
    #[cfg(target_arch = "x86_64")]
    if bba_simd::avx2_detected() {
        let mut got = vec![u32::MAX; sx.len()];
        unsafe { bba_simd::avx2::compat_degrees(sx, sy, dx, dy, reach, &mut got) };
        prop_assert_eq!(&want, &got, "compat degrees avx2");
    }
    Ok(())
}
