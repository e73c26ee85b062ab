//! Serial ≡ parallel equivalence suite for the `bba-par` substrate.
//!
//! Every parallel injection point in the stage-1 pipeline promises
//! *bit-identical* results at any thread count (see DESIGN.md, "Parallel
//! execution model"). These properties drive each stage with random inputs
//! under a scoped 1-thread budget and again under a random 2–8-thread
//! budget, and require exact equality — not tolerance — between the two.

use bb_align::{BbAlign, BbAlignConfig};
use bba_dataset::{Dataset, DatasetConfig};
use bba_features::{
    describe_keypoints, detect_keypoints, match_descriptors, ransac_rigid, ransac_rigid_guided,
    ransac_rigid_naive, DescriptorConfig, KeypointConfig, MatcherConfig, RansacConfig,
};
use bba_geometry::{Iso2, Vec2};
use bba_signal::{FftWorkspace, Grid, LogGaborBank, LogGaborConfig, MaxIndexMap};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIZE: usize = 32;

/// A sparse synthetic BV image: a handful of bright spikes on an empty
/// raster (the structure real rasterised point clouds have).
fn image_from_spikes(spikes: &[(usize, usize, f64)]) -> Grid<f64> {
    let mut img = Grid::new(SIZE, SIZE, 0.0);
    for &(u, v, z) in spikes {
        img[(u % SIZE, v % SIZE)] = z;
    }
    img
}

/// Strategy for the spike list.
fn spikes() -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    prop::collection::vec((0..SIZE, 0..SIZE, 0.5..8.0f64), 5..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mim_pixels_bit_identical_across_thread_counts(
        sp in spikes(),
        threads in 2usize..9,
    ) {
        let img = image_from_spikes(&sp);
        let cfg = LogGaborConfig::default();
        let serial = bba_par::with_threads(1, || MaxIndexMap::compute(&img, &cfg));
        let wide = bba_par::with_threads(threads, || MaxIndexMap::compute(&img, &cfg));
        prop_assert_eq!(serial, wide);
    }

    /// The workspace fast path (planned real FFT, packed inverse pairs,
    /// per-orientation lanes) at every width 1–8 against the serial
    /// fresh-workspace run — and workspace reuse must not change bits
    /// either.
    #[test]
    fn workspace_mim_bit_identical_across_thread_counts(
        sp in spikes(),
    ) {
        let img = image_from_spikes(&sp);
        let bank = LogGaborBank::new(SIZE, SIZE, LogGaborConfig::default());
        let serial = bba_par::with_threads(1, || {
            MaxIndexMap::compute_with_workspace(&img, &bank, &mut FftWorkspace::new())
        });
        let mut ws = FftWorkspace::new();
        for threads in 1usize..=8 {
            let wide = bba_par::with_threads(threads, || {
                MaxIndexMap::compute_with_workspace(&img, &bank, &mut ws)
            });
            prop_assert_eq!(&serial, &wide, "diverged at {} threads", threads);
        }
    }

    #[test]
    fn descriptors_bit_identical_across_thread_counts(
        sp in spikes(),
        threads in 2usize..9,
    ) {
        let img = image_from_spikes(&sp);
        let mim_cfg = LogGaborConfig::default();
        let kp_cfg = KeypointConfig::default();
        let desc_cfg = DescriptorConfig { patch_size: 16, grid_size: 4, ..Default::default() };
        let run = || {
            let mim = MaxIndexMap::compute(&img, &mim_cfg);
            let kps = detect_keypoints(&img, &kp_cfg);
            describe_keypoints(&mim, &kps, &desc_cfg)
        };
        let serial = bba_par::with_threads(1, run);
        let wide = bba_par::with_threads(threads, run);
        prop_assert_eq!(serial, wide);
    }

    #[test]
    fn match_sets_bit_identical_across_thread_counts(
        sp_a in spikes(),
        sp_b in spikes(),
        threads in 2usize..9,
    ) {
        let desc_cfg = DescriptorConfig { patch_size: 16, grid_size: 4, ..Default::default() };
        let describe = |sp: &[(usize, usize, f64)]| {
            let img = image_from_spikes(sp);
            let mim = MaxIndexMap::compute(&img, &LogGaborConfig::default());
            let kps = detect_keypoints(&img, &KeypointConfig::default());
            describe_keypoints(&mim, &kps, &desc_cfg)
        };
        let (a, b) = (describe(&sp_a), describe(&sp_b));
        // A lax matcher config emits multi-candidate lists, exercising the
        // ordered flatten + stable sort path.
        let m_cfg = MatcherConfig { ratio: 1.0, mutual: true, max_distance: 2.0, keep_top_k: 2 };
        let serial = bba_par::with_threads(1, || match_descriptors(&a, &b, &m_cfg));
        let wide = bba_par::with_threads(threads, || match_descriptors(&a, &b, &m_cfg));
        prop_assert_eq!(serial, wide);
    }

    #[test]
    fn ransac_results_bit_identical_across_thread_counts(
        pts in prop::collection::vec((-20.0..20.0f64, -20.0..20.0f64, 0..4u8), 10..40),
        angle in -3.0..3.0f64,
        tx in -10.0..10.0f64,
        ty in -10.0..10.0f64,
        seed in 0..u64::MAX,
        threads in 2usize..9,
    ) {
        let truth = Iso2::new(angle, Vec2::new(tx, ty));
        let src: Vec<Vec2> = pts.iter().map(|&(x, y, _)| Vec2::new(x, y)).collect();
        // flag == 0 marks an outlier (expected rate 1/4): its destination
        // is displaced far outside the inlier threshold.
        let dst: Vec<Vec2> = pts
            .iter()
            .map(|&(x, y, flag)| {
                let p = truth.apply(Vec2::new(x, y));
                if flag == 0 { p + Vec2::new(100.0 + x, -80.0 + y) } else { p }
            })
            .collect();
        let cfg = RansacConfig::default();
        let run = |budget: usize| {
            bba_par::with_threads(budget, || {
                let mut rng = StdRng::seed_from_u64(seed);
                ransac_rigid(&src, &dst, &cfg, &mut rng)
            })
        };
        // RansacError is PartialEq too, so compare success AND failure.
        prop_assert_eq!(run(1), run(threads));
    }

    /// The guided fast path under its production config: a mostly-clean
    /// correspondence set makes the 70% early exit fire within the first
    /// few hypotheses, so the chunked scan breaks mid-stream — the exit
    /// index, winner and pose bits must match the naive scan and stay
    /// bit-identical at every thread width.
    #[test]
    fn guided_ransac_early_exit_bit_identical_across_thread_counts(
        pts in prop::collection::vec((-20.0..20.0f64, -20.0..20.0f64, 0..8u8), 12..48),
        angle in -3.0..3.0f64,
        tx in -10.0..10.0f64,
        ty in -10.0..10.0f64,
        seed in 0..u64::MAX,
    ) {
        let truth = Iso2::new(angle, Vec2::new(tx, ty));
        let src: Vec<Vec2> = pts.iter().map(|&(x, y, _)| Vec2::new(x, y)).collect();
        // flag == 0 marks a rare outlier (expected rate 1/8), keeping the
        // inlier fraction comfortably above the 0.7 exit threshold.
        let dst: Vec<Vec2> = pts
            .iter()
            .map(|&(x, y, flag)| {
                let p = truth.apply(Vec2::new(x, y));
                if flag == 0 { p + Vec2::new(100.0 + x, -80.0 + y) } else { p }
            })
            .collect();
        // The matcher-style quality channel: outliers rank last.
        let quality: Vec<f64> =
            pts.iter().map(|&(_, _, flag)| if flag == 0 { 9.0 } else { 0.5 }).collect();
        let cfg = RansacConfig::default();
        let naive = bba_par::with_threads(1, || {
            let mut rng = StdRng::seed_from_u64(seed);
            ransac_rigid_naive(&src, &dst, &cfg, &mut rng)
        });
        for threads in 1usize..=8 {
            let fast = bba_par::with_threads(threads, || {
                let mut rng = StdRng::seed_from_u64(seed);
                ransac_rigid_guided(&src, &dst, Some(&quality), &cfg, &mut rng)
            });
            prop_assert_eq!(&naive, &fast, "diverged at {} threads", threads);
        }
    }
}

/// The composed guarantee: a full stage-1 + stage-2 recovery on simulated
/// frames is bit-identical at every thread width, including the recovered
/// `(α, t_x, t_y)` floats and all inlier diagnostics.
#[test]
fn recovered_pose_bit_identical_across_thread_counts() {
    let aligner = BbAlign::new(BbAlignConfig::default());
    let mut ds = Dataset::new(DatasetConfig::test_small(), 11);
    let pair = ds.next_pair().unwrap();
    // Frames keep the stage-1 features they compute, so every budget
    // builds its own: each width then computes the MIM, keypoints and
    // descriptors itself instead of reading the first width's.
    let recover = |budget: usize| {
        bba_par::with_threads(budget, || {
            let ego = aligner.frame_from_parts(
                pair.ego.scan.points().iter().map(|p| p.position),
                pair.ego.detections.iter().map(|d| (d.box3, d.confidence)),
            );
            let other = aligner.frame_from_parts(
                pair.other.scan.points().iter().map(|p| p.position),
                pair.other.detections.iter().map(|d| (d.box3, d.confidence)),
            );
            let mut rng = StdRng::seed_from_u64(42);
            aligner.recover(&ego, &other, &mut rng).expect("reference pair must recover")
        })
    };
    let reference = recover(1);
    for threads in [2, 3, 5, 8] {
        let wide = recover(threads);
        assert_eq!(reference, wide, "recovery diverged between 1 and {threads} threads");
    }
}
