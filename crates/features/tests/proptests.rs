//! Property-based tests for keypoints, matching and RANSAC — including the
//! equivalence properties pinning the stage-1 fast paths to their naive
//! references (sample-once/grouped re-bin describe, dot-product kernel
//! matcher).

use bba_features::matcher::match_sets_naive;
use bba_features::{
    describe_keypoints_rotated, detect_keypoints, match_sets, ransac_rigid, ransac_rigid_naive,
    DescriptorConfig, DescriptorSet, Keypoint, KeypointConfig, MatchPool, MatcherConfig,
    PatchSamples, RansacConfig, RotationSweep, REBIN_GROUP,
};
use bba_geometry::{Iso2, Vec2};
use bba_signal::{Grid, MaxIndexMap};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::TAU;

/// A set of the L2-normalised `vecs`, row `i` at keypoint `(i, i)`.
fn unit_rows(vecs: &[Vec<f32>]) -> DescriptorSet {
    let mut set = DescriptorSet::new(vecs.first().map_or(0, Vec::len));
    for (i, v) in vecs.iter().enumerate() {
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
        let unit: Vec<f32> = v.iter().map(|x| x / norm).collect();
        set.push(Keypoint { u: i, v: i, score: 1.0 }, &unit);
    }
    set
}

/// Random L2-normalised descriptor sets for the matcher properties.
fn descriptor_set(max: usize) -> impl Strategy<Value = DescriptorSet> {
    proptest::collection::vec(proptest::collection::vec(-1.0f32..1.0, 12), 1..max)
        .prop_map(|vecs| unit_rows(&vecs))
}

/// Every row's keypoint and vector bits (the derived `==` would let
/// `-0.0` stand in for `0.0`).
fn bits(set: &DescriptorSet) -> Vec<(Keypoint, Vec<u32>)> {
    (0..set.len())
        .map(|i| (*set.keypoint(i), set.row(i).iter().map(|x| x.to_bits()).collect()))
        .collect()
}

fn any_iso2() -> impl Strategy<Value = Iso2> {
    (-3.0..3.0f64, -50.0..50.0f64, -50.0..50.0f64)
        .prop_map(|(a, x, y)| Iso2::new(a, Vec2::new(x, y)))
}

fn spread_points(n: usize) -> impl Strategy<Value = Vec<Vec2>> {
    proptest::collection::vec(
        (-80.0..80.0f64, -80.0..80.0f64).prop_map(|(x, y)| Vec2::new(x, y)),
        n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ransac_recovers_under_outliers(
        t in any_iso2(),
        pts in spread_points(30),
        outlier_mask in proptest::collection::vec(any::<bool>(), 30),
        seed in 0u64..1000,
    ) {
        // Require enough inliers with spatial spread.
        let inlier_pts: Vec<Vec2> = pts
            .iter()
            .zip(&outlier_mask)
            .filter(|(_, &o)| !o)
            .map(|(&p, _)| p)
            .collect();
        prop_assume!(inlier_pts.len() >= 12);
        let mean = inlier_pts.iter().fold(Vec2::ZERO, |a, &b| a + b) / inlier_pts.len() as f64;
        let spread: f64 = inlier_pts.iter().map(|p| (*p - mean).norm_sq()).sum();
        prop_assume!(spread > 100.0);

        // Outliers get per-index incoherent displacements: a shared offset
        // would itself be a valid rigid model competing with the truth.
        let dst: Vec<Vec2> = pts
            .iter()
            .zip(&outlier_mask)
            .enumerate()
            .map(|(i, (&p, &o))| {
                if o {
                    p + Vec2::new(300.0 + 37.0 * i as f64, -200.0 + ((i * i * 53) % 97) as f64)
                } else {
                    t.apply(p)
                }
            })
            .collect();
        let cfg = RansacConfig { inlier_threshold: 0.5, min_inliers: 8, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(seed);
        let r = ransac_rigid(&pts, &dst, 0, &cfg, &mut rng).unwrap();
        prop_assert!(r.transform.approx_eq(&t, 1e-5, 1e-5), "got {} want {}", r.transform, t);
        prop_assert_eq!(r.num_inliers, inlier_pts.len());
    }

    #[test]
    fn keypoints_never_exceed_cap_and_stay_in_bounds(
        cells in proptest::collection::vec(0.0..10.0f64, 32 * 32),
        cap in 1usize..50,
    ) {
        let img = Grid::from_vec(32, 32, cells);
        let cfg = KeypointConfig { max_keypoints: cap, ..Default::default() };
        let kps = detect_keypoints(&img, &cfg);
        prop_assert!(kps.len() <= cap);
        for kp in &kps {
            prop_assert!(kp.u >= cfg.border && kp.u < 32 - cfg.border);
            prop_assert!(kp.v >= cfg.border && kp.v < 32 - cfg.border);
            prop_assert!(kp.score > 0.0);
        }
    }

    #[test]
    fn matcher_respects_one_best_per_source(
        vecs in proptest::collection::vec(proptest::collection::vec(0.0f32..1.0, 8), 2..12),
    ) {
        let descs = unit_rows(&vecs);
        let cfg = MatcherConfig { max_distance: 10.0, keep_top_k: 1 };
        let matches = match_sets(&descs, &MatchPool::new(&descs), &cfg);
        // k = 1: at most one match per source index.
        let mut seen = std::collections::HashSet::new();
        for m in &matches {
            prop_assert!(seen.insert(m.src), "duplicate source {}", m.src);
            prop_assert!(m.distance >= 0.0);
        }
    }

    #[test]
    fn top_k_is_superset_of_top_1(
        vecs in proptest::collection::vec(proptest::collection::vec(0.0f32..1.0, 6), 3..10),
    ) {
        let descs = unit_rows(&vecs);
        let base = MatcherConfig { max_distance: 10.0, keep_top_k: 1 };
        let wide = MatcherConfig { keep_top_k: 3, ..base.clone() };
        let pool = MatchPool::new(&descs);
        let m1 = match_sets(&descs, &pool, &base);
        let m3 = match_sets(&descs, &pool, &wide);
        for m in &m1 {
            prop_assert!(
                m3.iter().any(|x| x.src == m.src && x.dst == m.dst),
                "top-1 match lost at k=3"
            );
        }
    }

    /// Sample-once + grouped re-bin descriptors are *bit-identical* to the
    /// naive per-angle `describe_keypoints_rotated` — every row's keypoint
    /// and `to_bits`, every hypothesis of every group — for random images and
    /// descriptor configurations, group sizes 1–4 (with a partial last
    /// group), and angles drawn both from the production `k·2π/24` grid
    /// (where most hypotheses are hard, whole-bin shifts) and at random
    /// (soft, two-bin splits). A sparse MIM leaves some patches with no
    /// in-patch sample at some hypotheses, so dropped rows are covered.
    #[test]
    fn sweep_rebin_equals_naive_describe(
        spikes in proptest::collection::vec((0usize..64, 0usize..64, 0.5..10.0f64), 5..50),
        sparse in any::<bool>(),
        kps_uv in proptest::collection::vec((0usize..64, 0usize..64), 1..8),
        angles in proptest::collection::vec(
            prop_oneof![(0usize..24).prop_map(|k| k as f64 * TAU / 24.0), -7.0..7.0f64],
            1..10,
        ),
        group in 1usize..REBIN_GROUP + 1,
        patch_size in prop_oneof![Just(12usize), Just(16usize), Just(24usize)],
        grid_size in 2usize..5,
        amplitude_gate in 0.0..0.3f64,
    ) {
        let mim = if sparse {
            // The spikes themselves as the MIM: zero amplitude elsewhere.
            let mut mim = MaxIndexMap {
                index: Grid::new(64, 64, 0u8),
                amplitude: Grid::new(64, 64, 0.0),
            };
            for &(u, v, z) in &spikes {
                mim.amplitude[(u, v)] = z;
                mim.index[(u, v)] = (z * 7.0) as u8 % 12;
            }
            mim
        } else {
            let mut img = Grid::new(64, 64, 0.0);
            for &(u, v, z) in &spikes {
                img[(u, v)] = z;
            }
            MaxIndexMap::compute(&img)
        };
        let cfg = DescriptorConfig { patch_size, grid_size, amplitude_gate };
        // Random keypoints — some will fail the border check, exercising
        // the drop paths — plus the centre, which always fits.
        let mut kps: Vec<Keypoint> =
            kps_uv.iter().map(|&(u, v)| Keypoint { u, v, score: 1.0 }).collect();
        kps.push(Keypoint { u: 32, v: 32, score: 1.0 });

        let sweep = RotationSweep::new(&cfg, &angles);
        let mut samples = PatchSamples::new();
        samples.sample(&mim, &kps, &sweep);
        let mut sets = vec![DescriptorSet::default(); angles.len()];
        for (g, chunk) in sets.chunks_mut(group).enumerate() {
            samples.rebin_group(&sweep, g * group, chunk);
        }
        for (k, (set, &angle)) in sets.iter().zip(&angles).enumerate() {
            let naive = describe_keypoints_rotated(&mim, &kps, &cfg, angle);
            prop_assert_eq!(
                bits(set),
                bits(&naive),
                "hypothesis {} (angle {}, group {})",
                k,
                angle,
                group
            );
        }
    }

    /// The layered RANSAC fast path returns the exact `Result` of the naive
    /// reference scan — same pose bits, inlier set, iteration count and
    /// error variant — for random correspondence sets (outliers, exact
    /// duplicates, tiny inputs) and random configurations.
    #[test]
    fn ransac_fast_path_equals_naive_bit_for_bit(
        pts in prop::collection::vec((-60.0..60.0f64, -60.0..60.0f64, 0..5u8), 0..40),
        angle in -3.0..3.0f64,
        tx in -15.0..15.0f64,
        ty in -15.0..15.0f64,
        max_iterations in 1usize..400,
        inlier_threshold in 0.2..3.0f64,
        min_inliers in 2usize..10,
        early_exit_fraction in prop_oneof![0.3..1.0f64, Just(2.0)],
        seed in any::<u64>(),
    ) {
        let truth = Iso2::new(angle, Vec2::new(tx, ty));
        let mut src: Vec<Vec2> = Vec::new();
        let mut dst: Vec<Vec2> = Vec::new();
        for &(x, y, flag) in &pts {
            match flag {
                // Exact duplicate of the previous correspondence: stresses
                // the degenerate 2-point fits and duplicate-sample memo.
                4 if !src.is_empty() => {
                    src.push(*src.last().unwrap());
                    dst.push(*dst.last().unwrap());
                }
                // Gross outlier with an index-incoherent displacement.
                0 => {
                    src.push(Vec2::new(x, y));
                    dst.push(truth.apply(Vec2::new(x, y)) + Vec2::new(120.0 + x, -90.0 + y));
                }
                _ => {
                    src.push(Vec2::new(x, y));
                    dst.push(truth.apply(Vec2::new(x, y)));
                }
            }
        }
        let cfg = RansacConfig { max_iterations, inlier_threshold, min_inliers, early_exit_fraction };
        let naive = ransac_rigid_naive(&src, &dst, &cfg, &mut StdRng::seed_from_u64(seed));
        let fast = ransac_rigid(&src, &dst, 0, &cfg, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(&naive, &fast);
    }

    /// The blocked dot-product kernel returns exactly the match set of the
    /// naive full-sort reference across random max_distance / keep_top_k
    /// configurations.
    #[test]
    fn kernel_matcher_equals_naive(
        src in descriptor_set(40),
        dst in descriptor_set(40),
        max_distance in 0.5..2.5f64,
        keep_top_k in 1usize..4,
    ) {
        let cfg = MatcherConfig { max_distance, keep_top_k };
        let kernel = match_sets(&src, &MatchPool::new(&dst), &cfg);
        let naive = match_sets_naive(&src, &dst, &cfg);
        prop_assert_eq!(&kernel, &naive);
    }
}
