//! Criterion benchmarks of the end-to-end pipelines: full BB-Align
//! recovery, stage 1 alone, the VIPS baseline and 2-D ICP.
//!
//! The recovery latency is the quantity behind the paper's future-work
//! note ("enhancing the time efficiency of BV image matching").

use bb_align::{BbAlign, BbAlignConfig, PerceptionFrame};
use bba_baselines::icp::{icp_2d, IcpConfig};
use bba_baselines::vips::{vips_match, VipsConfig};
use bba_dataset::{Dataset, DatasetConfig, FramePair};
use bba_geometry::{Iso2, Vec2};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn pair_and_frames(aligner: &BbAlign) -> (FramePair, PerceptionFrame, PerceptionFrame) {
    let mut ds = Dataset::new(DatasetConfig::standard(), 7);
    let pair = ds.next_pair().unwrap();
    let ego = aligner.frame_from_parts(
        pair.ego.scan.points().iter().map(|p| p.position),
        pair.ego.detections.iter().map(|d| (d.box3, d.confidence)),
    );
    let other = aligner.frame_from_parts(
        pair.other.scan.points().iter().map(|p| p.position),
        pair.other.detections.iter().map(|d| (d.box3, d.confidence)),
    );
    (pair, ego, other)
}

/// A copy of `frame` with an empty feature slot: recovering it pays for
/// its MIM, keypoints and ego descriptors again, as a newly received frame
/// would. (A `clone` would share the slot.)
fn cold(frame: &PerceptionFrame) -> PerceptionFrame {
    PerceptionFrame::new(frame.bev().clone(), frame.boxes().to_vec())
}

fn bench_recovery(c: &mut Criterion) {
    let aligner = BbAlign::new(BbAlignConfig::default());
    let (_, ego, other) = pair_and_frames(&aligner);
    // Warm the filter-bank cache so the bench measures recovery only. This
    // also fills `ego`'s and `other`'s feature slots, which the
    // features-reused case below reads.
    let mut warm = StdRng::seed_from_u64(0);
    let _ = aligner.recover(&ego, &other, &mut warm);

    // Cold cases get fresh frames from the untimed set-up, so every
    // iteration computes both frames' features.
    c.bench_function("bb_align_full_recovery", |b| {
        b.iter_batched(
            || (cold(&ego), cold(&other), StdRng::seed_from_u64(3)),
            |(ego, other, mut rng)| aligner.recover(black_box(&ego), &other, &mut rng).unwrap(),
            BatchSize::SmallInput,
        )
    });

    c.bench_function("bb_align_stage1_only", |b| {
        b.iter_batched(
            || (cold(&ego), cold(&other), StdRng::seed_from_u64(3)),
            |(ego, other, mut rng)| aligner.match_bv(black_box(&ego), &other, &mut rng).unwrap(),
            BatchSize::SmallInput,
        )
    });

    // The same pair again: MIM, keypoints and the ego descriptors are read
    // from the frames, leaving the other side's sampling, the sweep and
    // stage 2 — the cost of each further pair a frame enters.
    c.bench_function("bb_align_recovery_features_reused", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(3),
            |mut rng| aligner.recover(black_box(&ego), &other, &mut rng).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_baselines(c: &mut Criterion) {
    let aligner = BbAlign::new(BbAlignConfig::default());
    let (pair, _, _) = pair_and_frames(&aligner);
    let centers = |dets: &[bba_detect::Detection]| -> Vec<Vec2> {
        dets.iter().map(|d| d.box3.center.xy()).collect()
    };
    let src = centers(&pair.other.detections);
    let dst = centers(&pair.ego.detections);
    let cfg = VipsConfig::default();
    c.bench_function("vips_graph_matching", |b| {
        b.iter(|| {
            let _ = vips_match(black_box(&src), &dst, &cfg);
        })
    });

    // ICP over the raw ground-plane points (downsampled), from the true
    // pose plus a small offset — its favourable regime.
    let take_every = 20;
    let src_pts: Vec<Vec2> =
        pair.other.scan.points().iter().step_by(take_every).map(|p| p.position.xy()).collect();
    let dst_pts: Vec<Vec2> =
        pair.ego.scan.points().iter().step_by(take_every).map(|p| p.position.xy()).collect();
    let init = Iso2::new(
        pair.true_relative.yaw() + 0.01,
        pair.true_relative.translation() + Vec2::new(0.4, -0.2),
    );
    let icp_cfg = IcpConfig::default();
    c.bench_function("icp_2d_downsampled", |b| {
        b.iter(|| {
            let _ = icp_2d(black_box(&src_pts), &dst_pts, init, &icp_cfg);
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_recovery, bench_baselines
}
criterion_main!(benches);
