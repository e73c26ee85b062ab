//! Micro-benchmarks of the stage-1 fast paths against their naive
//! references, on descriptors extracted from a real simulated frame:
//!
//! * **detect** — FAST with its compass pre-test (`detect_keypoints`) on
//!   the fixture's normalised MIM amplitude, the production keypoint image.
//! * **describe** — the sample-once + grouped re-bin sweep
//!   (`PatchSamples::rebin_group`, as `match_bv` runs it) vs the full
//!   per-angle re-sample (`describe_keypoints_rotated`), over the
//!   production rotation-hypothesis count.
//! * **match** — the blocked dot-product kernel (`match_sets`) vs the
//!   naive full-sort reference (`match_sets_naive`), at ~100 and ~400
//!   keypoints.
//!
//! The describe and match pairs are proven bit-identical by the proptests
//! in `crates/features/tests/proptests.rs`, and the detector by the
//! reference proptest in `crates/features/src/keypoints.rs`; this bench
//! measures the speed side of those equivalences. Pass `--quick` for the
//! CI smoke run (fewer iterations, same workloads).

use bb_align::{BbAlign, BbAlignConfig};
use bba_dataset::{Dataset, DatasetConfig};
use bba_features::matcher::match_sets_naive;
use bba_features::{
    describe_keypoints_rotated, detect_keypoints, match_sets, DescriptorSet, Keypoint,
    KeypointConfig, MatchPool, PatchSamples, RotationSweep, REBIN_GROUP,
};
use bba_signal::{Grid, MaxIndexMap};
use criterion::{black_box, Criterion};
use std::f64::consts::TAU;

/// One simulated frame's MIM, its normalised amplitude (the detector's
/// image) and up to `max_keypoints` keypoints detected on it — the same
/// inputs `match_bv` feeds the detect/describe/match hot path.
fn fixture(
    engine: &BbAlignConfig,
    seed: u64,
    max_keypoints: usize,
) -> (MaxIndexMap, Grid<f64>, Vec<Keypoint>) {
    let aligner = BbAlign::new(engine.clone());
    let mut ds = Dataset::new(DatasetConfig::standard(), seed);
    let pair = ds.next_pair().unwrap();
    let other = aligner.frame_from_parts(
        pair.other.scan.points().iter().map(|p| p.position),
        pair.other.detections.iter().map(|d| (d.box3, d.confidence)),
    );
    let mim = MaxIndexMap::compute(other.bev().grid());
    // Production keypoint source: FAST corners on the normalised amplitude.
    let max = mim.amplitude.max_value();
    let normalised = mim.amplitude.map(|&a| a / max.max(f64::MIN_POSITIVE));
    let kp_cfg = KeypointConfig { max_keypoints, ..engine.keypoints.clone() };
    let kps = detect_keypoints(&normalised, &kp_cfg);
    (mim, normalised, kps)
}

/// A `DescriptorSet` truncated to its first `n` rows.
fn truncated(set: &DescriptorSet, n: usize) -> DescriptorSet {
    let mut out = DescriptorSet::new(set.dim());
    for i in 0..n.min(set.len()) {
        out.push(*set.keypoint(i), set.row(i));
    }
    out
}

/// Share of exactly nonzero entries in one frame's descriptor sets over
/// every rotation hypothesis: what a matcher that skips zero entries
/// would still multiply.
fn nonzero_share(mim: &MaxIndexMap, kps: &[Keypoint], sweep: &RotationSweep) -> f64 {
    let mut samples = PatchSamples::new();
    samples.sample(mim, kps, sweep);
    let (mut nonzero, mut total) = (0usize, 0usize);
    let hypotheses = sweep.hypotheses();
    for first in (0..hypotheses).step_by(REBIN_GROUP) {
        let mut group: [DescriptorSet; REBIN_GROUP] = Default::default();
        let sets = &mut group[..REBIN_GROUP.min(hypotheses - first)];
        samples.rebin_group(sweep, first, sets);
        for set in sets.iter() {
            for i in 0..set.len() {
                nonzero += set.row(i).iter().filter(|&&x| x != 0.0).count();
                total += set.dim();
            }
        }
    }
    nonzero as f64 / total.max(1) as f64
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let engine = BbAlignConfig::default();
    let angles: Vec<f64> = (0..engine.rotation_hypotheses)
        .map(|k| k as f64 * TAU / engine.rotation_hypotheses as f64)
        .collect();

    let (mim, normalised, kps) = fixture(&engine, 7, 400);
    let dcfg = &engine.descriptor;
    let sweep = RotationSweep::new(dcfg, &angles);
    println!(
        "stage1 fast-path benches: {} keypoints, {} rotation hypotheses, \
         {:.1}% nonzero descriptor entries{}",
        kps.len(),
        angles.len(),
        100.0 * nonzero_share(&mim, &kps, &sweep),
        if quick { " (quick)" } else { "" }
    );

    let mut c = Criterion::default().sample_size(if quick { 2 } else { 15 });

    let kp_cfg = KeypointConfig { max_keypoints: 400, ..engine.keypoints.clone() };
    c.bench_function("detect_keypoints_normalised_amplitude", |b| {
        b.iter(|| black_box(detect_keypoints(black_box(&normalised), &kp_cfg)))
    });

    // Describe: one full sweep of every hypothesis, both ways.
    c.bench_function("describe_full_resample_sweep", |b| {
        b.iter(|| {
            for &angle in &angles {
                black_box(describe_keypoints_rotated(&mim, &kps, dcfg, angle));
            }
        })
    });
    let mut samples = PatchSamples::new();
    let mut group: [DescriptorSet; REBIN_GROUP] = Default::default();
    c.bench_function("describe_sample_once_rebin_sweep", |b| {
        b.iter(|| {
            samples.sample(&mim, &kps, &sweep);
            for first in (0..angles.len()).step_by(REBIN_GROUP) {
                let sets = &mut group[..REBIN_GROUP.min(angles.len() - first)];
                samples.rebin_group(&sweep, first, sets);
                black_box(sets[0].len());
            }
        })
    });

    // Match: real descriptors (hypothesis 0) against the same patches
    // re-binned one hypothesis step away — the exact shape of one sweep
    // iteration. A single frame yields ~100 keypoints; descriptors are
    // pooled across further dataset seeds so the 400-row case measures a
    // realistically dense scene, not synthetic vectors.
    let mut dst = DescriptorSet::new(sweep.dim());
    let mut src = DescriptorSet::new(sweep.dim());
    let mut first_frame = Some((mim, kps));
    for seed in 7.. {
        let (mim, kps) = first_frame.take().unwrap_or_else(|| {
            let (mim, _, kps) = fixture(&engine, seed, 400);
            (mim, kps)
        });
        let mut smp = PatchSamples::new();
        smp.sample(&mim, &kps, &sweep);
        for (hyp, pool) in [(0, &mut dst), (1 % angles.len(), &mut src)] {
            let mut set = DescriptorSet::default();
            smp.rebin_group(&sweep, hyp, std::slice::from_mut(&mut set));
            for i in 0..set.len() {
                pool.push(*set.keypoint(i), set.row(i));
            }
        }
        if dst.len() >= 400 && src.len() >= 400 {
            break;
        }
    }
    let mcfg = &engine.matcher;
    let mut benched = std::collections::HashSet::new();
    for n in [100, 400] {
        let (s, d) = (truncated(&src, n), truncated(&dst, n));
        let label_n = s.len().min(d.len());
        if label_n == 0 || !benched.insert(label_n) {
            continue;
        }
        let pool = MatchPool::new(&d);
        c.bench_function(&format!("match_kernel_{label_n}kp"), |b| {
            b.iter(|| black_box(match_sets(&s, &pool, mcfg)))
        });
        c.bench_function(&format!("match_naive_{label_n}kp"), |b| {
            b.iter(|| black_box(match_sets_naive(&s, &d, mcfg)))
        });
    }
}
