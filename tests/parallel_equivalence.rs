//! Bit-identity suite: a whole recovery is identical at every `bba-par`
//! thread budget (see DESIGN.md, "Parallel execution model"), and the MIM
//! workspace and quality-guided RANSAC fast paths match their references
//! exactly — not within a tolerance.

use bb_align::{BbAlign, BbAlignConfig};
use bba_dataset::{Dataset, DatasetConfig};
use bba_features::{ransac_rigid, ransac_rigid_naive, RansacConfig};
use bba_geometry::{Iso2, Vec2};
use bba_signal::{FftWorkspace, Grid, LogGaborBank, MaxIndexMap};
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

    /// The workspace fast path (planned real FFT, packed inverse pairs,
    /// one fused lane) against a fresh-workspace run: reusing a workspace,
    /// including one last sized for the full-amplitude path, must not
    /// change bits.
    #[test]
    fn reused_workspace_mim_bit_identical_to_fresh_workspace(
        sp in spikes(),
    ) {
        let img = image_from_spikes(&sp);
        let bank = LogGaborBank::new(SIZE, SIZE);
        let fresh = MaxIndexMap::compute_with_workspace(&img, &bank, &mut FftWorkspace::new());
        let mut ws = FftWorkspace::new();
        for _ in 0..2 {
            let reused = MaxIndexMap::compute_with_workspace(&img, &bank, &mut ws);
            prop_assert_eq!(&fresh, &reused);
            MaxIndexMap::compute_via_amplitudes(&img, &bank, &mut ws);
        }
    }

    /// The quality-guided fast path under its production config: a mostly-clean
    /// correspondence set makes the 70% early exit fire within the first
    /// few hypotheses, so the scan breaks mid-stream — the exit index,
    /// winner and pose bits must match the naive scan.
    #[test]
    fn guided_ransac_early_exit_bit_identical_to_naive_scan(
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
        let naive = ransac_rigid_naive(&src, &dst, &cfg, &mut StdRng::seed_from_u64(seed));
        let fast = ransac_rigid(
            &src,
            &dst,
            Some(&quality),
            None,
            0,
            &cfg,
            &mut StdRng::seed_from_u64(seed),
        );
        prop_assert_eq!(&naive, &fast);
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
