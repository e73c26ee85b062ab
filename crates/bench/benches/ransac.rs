//! Micro-benchmarks of the RANSAC fast path against the naive reference
//! scorer, at 100 and 400 correspondences with a stage-1-like outlier mix.
//!
//! Two regimes per size:
//!
//! * **early exit reachable** — the production `early_exit_fraction`
//!   (clean majority of inliers, the scan stops as soon as a strong model
//!   appears), and
//! * **no early exit** — `early_exit_fraction` above 1.0 forces the full
//!   iteration budget, isolating the per-hypothesis savings (SoA counting
//!   kernel, max-consensus bail, duplicate memoisation).
//!
//! The fast↔naive bit-identity is proven by the proptests in
//! `crates/features/tests/proptests.rs`; this bench measures the speed
//! side. Pass `--quick` for the CI smoke run.

use bba_features::{ransac_rigid, ransac_rigid_naive, RansacConfig};
use bba_geometry::{Iso2, Vec2};
use criterion::{black_box, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Correspondences with ~1/3 gross outliers — the shape the matcher hands
/// RANSAC.
fn fixture(n: usize, seed: u64) -> (Vec<Vec2>, Vec<Vec2>) {
    let truth = Iso2::new(0.45, Vec2::new(12.0, -7.0));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = Vec::with_capacity(n);
    let mut dst = Vec::with_capacity(n);
    for k in 0..n {
        let p = Vec2::new(rng.random_range(0.0..256.0), rng.random_range(0.0..256.0));
        src.push(p);
        if k % 3 == 0 {
            // Gross outlier: unrelated destination.
            dst.push(Vec2::new(rng.random_range(0.0..256.0), rng.random_range(0.0..256.0)));
        } else {
            // Inlier with sub-threshold jitter.
            let jitter = Vec2::new(rng.random_range(-0.5..0.5), rng.random_range(-0.5..0.5));
            dst.push(truth.apply(p) + jitter);
        }
    }
    (src, dst)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut c = Criterion::default().sample_size(if quick { 2 } else { 20 });

    // The stage-1 production configuration (see `BbAlignConfig::default`):
    // 3000 iterations, 2 px threshold, exit at 70% inliers.
    let exit_cfg = RansacConfig {
        max_iterations: 3000,
        inlier_threshold: 2.0,
        min_inliers: 6,
        early_exit_fraction: 0.7,
    };
    // Unreachable exit fraction: every hypothesis in the budget is scanned.
    let full_cfg = RansacConfig { early_exit_fraction: 2.0, ..exit_cfg.clone() };

    for n in [100usize, 400] {
        let (src, dst) = fixture(n, 42);
        for (regime, cfg) in [("exit", &exit_cfg), ("noexit", &full_cfg)] {
            c.bench_function(&format!("ransac_naive_{n}pts_{regime}"), |b| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(7);
                    black_box(ransac_rigid_naive(&src, &dst, cfg, &mut rng))
                })
            });
            c.bench_function(&format!("ransac_fast_{n}pts_{regime}"), |b| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(7);
                    black_box(ransac_rigid(&src, &dst, 0, cfg, &mut rng))
                })
            });
        }
    }
}
