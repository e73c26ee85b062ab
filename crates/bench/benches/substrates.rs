//! Criterion micro-benchmarks of the substrate layers: FFT, Log-Gabor/MIM,
//! BEV rasterisation, keypoints + descriptors, RANSAC, LiDAR simulation.
//!
//! These quantify the per-phase cost behind the paper's "lightweight"
//! claim and its future-work note on BV-matching time.

use bba_bev::{BevConfig, BevImage};
use bba_features::{
    describe_keypoints_rotated, detect_keypoints, ransac_rigid, DescriptorConfig, KeypointConfig,
    RansacConfig,
};
use bba_geometry::{Iso2, Vec2};
use bba_lidar::{LidarConfig, Scanner};
use bba_scene::{Scenario, ScenarioConfig, ScenarioPreset};
use bba_signal::{
    fft2d, rfft2d, shared_plan, Complex, FftWorkspace, Grid, LogGaborBank, MaxIndexMap,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn sample_scan_points() -> Vec<bba_geometry::Vec3> {
    let scenario = Scenario::generate(&ScenarioConfig::preset(ScenarioPreset::Suburban), 7);
    let scanner = Scanner::new(LidarConfig::mid_res_32());
    let mut rng = StdRng::seed_from_u64(1);
    let scan =
        scanner.scan(scenario.world(), scenario.ego_trajectory(), 0.0, scenario.ego_id(), &mut rng);
    scan.points().iter().map(|p| p.position).collect()
}

fn bench_fft(c: &mut Criterion) {
    // Complex vs real forward 2-D transform at the pipeline-relevant sizes.
    // Plans are built (and cached process-wide) before the timed region, so
    // these measure transform throughput, not planning.
    for size in [128usize, 256, 512] {
        let img = Grid::from_fn(size, size, |u, v| ((u * 7 + v * 13) % 17) as f64);
        shared_plan(size).unwrap();
        c.bench_function(&format!("fft2d_{size}"), |b| b.iter(|| fft2d(black_box(&img)).unwrap()));
        c.bench_function(&format!("rfft2d_{size}"), |b| {
            b.iter(|| rfft2d(black_box(&img)).unwrap())
        });
        // Planned 1-D kernel alone (one row-length transform), the unit the
        // 2-D passes are built from.
        let plan = shared_plan(size).unwrap();
        let row: Vec<Complex> =
            (0..size).map(|i| Complex::new((i as f64 * 0.37).sin(), 0.0)).collect();
        c.bench_function(&format!("planned_fft1d_{size}"), |b| {
            b.iter_batched(
                || row.clone(),
                |mut buf| plan.forward(black_box(&mut buf)),
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_bev(c: &mut Criterion) {
    let points = sample_scan_points();
    let cfg = BevConfig::wide();
    c.bench_function("bev_height_map_256", |b| {
        b.iter(|| BevImage::height_map(black_box(points.iter().copied()), &cfg))
    });
}

fn bench_mim(c: &mut Criterion) {
    let points = sample_scan_points();
    let cfg = BevConfig::wide();
    let img = BevImage::height_map(points, &cfg);
    let bank = LogGaborBank::new(256, 256);
    c.bench_function("mim_256_4scales_12orient", |b| {
        b.iter(|| {
            MaxIndexMap::compute_with_workspace(
                black_box(img.grid()),
                &bank,
                &mut FftWorkspace::new(),
            )
        })
    });
    // Steady-state variant: the workspace is warm, so the Log-Gabor
    // filtering allocates nothing per iteration.
    let mut ws = FftWorkspace::new();
    MaxIndexMap::compute_with_workspace(img.grid(), &bank, &mut ws);
    c.bench_function("mim_256_warm_workspace", |b| {
        b.iter(|| MaxIndexMap::compute_with_workspace(black_box(img.grid()), &bank, &mut ws))
    });
}

fn bench_features(c: &mut Criterion) {
    let points = sample_scan_points();
    let cfg = BevConfig::wide();
    let img = BevImage::height_map(points, &cfg);
    let bank = LogGaborBank::new(256, 256);
    let mim = MaxIndexMap::compute_with_workspace(img.grid(), &bank, &mut FftWorkspace::new());
    let max = mim.amplitude.max_value();
    let norm = mim.amplitude.map(|&a| a / max);
    let kp_cfg = KeypointConfig { threshold: 0.05, ..Default::default() };

    c.bench_function("fast_keypoints_256", |b| {
        b.iter(|| detect_keypoints(black_box(&norm), &kp_cfg))
    });

    let kps = detect_keypoints(&norm, &kp_cfg);
    let d_cfg = DescriptorConfig::default();
    c.bench_function("bvft_descriptors", |b| {
        b.iter(|| describe_keypoints_rotated(black_box(&mim), &kps, &d_cfg, 0.0))
    });
}

fn bench_ransac(c: &mut Criterion) {
    let truth = Iso2::new(0.3, Vec2::new(5.0, -2.0));
    let src: Vec<Vec2> =
        (0..120).map(|i| Vec2::new((i * 17 % 97) as f64, (i * 31 % 89) as f64)).collect();
    let dst: Vec<Vec2> = src
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            if i % 3 == 0 {
                Vec2::new(500.0 + i as f64, -300.0) // outliers
            } else {
                truth.apply(p)
            }
        })
        .collect();
    let cfg = RansacConfig::default();
    c.bench_function("ransac_rigid_120pts_33pct_outliers", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(5),
            |mut rng| ransac_rigid(black_box(&src), &dst, None, None, 0, &cfg, &mut rng).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_lidar(c: &mut Criterion) {
    let scenario = Scenario::generate(&ScenarioConfig::preset(ScenarioPreset::Suburban), 7);
    let scanner = Scanner::new(LidarConfig::mid_res_32());
    c.bench_function("lidar_scan_32ch", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(2),
            |mut rng| {
                scanner.scan(
                    scenario.world(),
                    scenario.ego_trajectory(),
                    0.0,
                    scenario.ego_id(),
                    &mut rng,
                )
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fft, bench_bev, bench_mim, bench_features, bench_ransac, bench_lidar
}
criterion_main!(benches);
