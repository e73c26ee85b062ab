//! Cross-crate integration tests: the full simulate → transmit → recover
//! loop, run at reduced resolution so the suite stays fast.

use bb_align::{BbAlign, BbAlignConfig};
use bba_bev::BevConfig;
use bba_dataset::{Dataset, DatasetConfig, PoseNoise};
use bba_link::{ChannelConfig, HarnessConfig, V2vHarness};
use bba_obs::Recorder;
use bba_scene::{AgentHeading, ScenarioConfig, ScenarioPreset};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The production engine configuration (256² BV images at 0.8 m/px): the
/// integration suite exercises the real pipeline; coarser rasters fall
/// below the method's working resolution and alias.
fn fast_engine() -> BbAlignConfig {
    BbAlignConfig::default()
}

fn recover_pair(
    dataset_cfg: DatasetConfig,
    dataset_seed: u64,
    rng_seed: u64,
) -> Option<(f64, f64, bb_align::Recovery, bba_dataset::FramePair)> {
    let aligner = BbAlign::new(fast_engine());
    let mut ds = Dataset::new(dataset_cfg, dataset_seed);
    let pair = ds.next_pair()?;
    let ego = aligner.frame_from_parts(
        pair.ego.scan.points().iter().map(|p| p.position),
        pair.ego.detections.iter().map(|d| (d.box3, d.confidence)),
    );
    let other = aligner.frame_from_parts(
        pair.other.scan.points().iter().map(|p| p.position),
        pair.other.detections.iter().map(|d| (d.box3, d.confidence)),
    );
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let recovery = aligner.recover(&ego, &other, &mut rng).ok()?;
    let (dt, dr) = recovery.transform.error_to(&pair.true_relative);
    Some((dt, dr, recovery, pair))
}

#[test]
fn recovers_pose_on_urban_frames() {
    let mut solved = 0;
    let mut tight = 0;
    for seed in 0..3u64 {
        if let Some((dt, dr, _, _)) = recover_pair(DatasetConfig::test_small(), seed, seed + 100) {
            solved += 1;
            if dt < 3.0 && dr.to_degrees() < 5.0 {
                tight += 1;
            }
        }
    }
    assert!(solved >= 2, "only {solved}/3 urban pairs solved");
    assert!(tight >= 2, "only {tight}/3 urban pairs accurate");
}

/// Exact-float regression pin for one full recovery: the recovered
/// `(α, t_x, t_y)` and both inlier counts on a fixed dataset/rng seed.
///
/// Every stage is deterministic and `bba-par` guarantees bit-identical
/// results at any thread count, so these constants hold on every machine
/// and at every `BBA_THREADS` setting. If they move, a numeric change
/// occurred somewhere in the stage-1/stage-2 pipeline — that may be
/// intentional (re-pin from the assertion message), but it must never be
/// an accident of parallel scheduling.
#[test]
fn golden_recovered_pose_snapshot() {
    let (_, _, recovery, _) = recover_pair(DatasetConfig::test_small(), 0, 100)
        .expect("the golden pair must keep recovering");
    let t = recovery.transform;
    assert_eq!(
        (t.yaw(), t.translation().x, t.translation().y),
        // Re-pinned in PR 4: the stage-1 fast path switched descriptor
        // sampling to inverse mapping and the matcher to the dot-product
        // identity, which rounds match distances differently in the last
        // ulps. A couple of near-tie matches reshuffled (Inliers_bv
        // 27 → 25) but the consensus fits the same correspondence set:
        // the pose moved by ~2 ulps per component and stage 2 is
        // untouched.
        (0.0008404159903196567, 34.87762347965544, 0.18592732154053115),
        "recovered pose drifted from the golden snapshot"
    );
    assert_eq!(
        (recovery.inliers_bv(), recovery.inliers_box()),
        (25, 24),
        "inlier diagnostics drifted from the golden snapshot"
    );
}

#[test]
fn recovery_beats_corrupted_gps_on_average() {
    let noise = PoseNoise::table1();
    let mut rng = StdRng::seed_from_u64(55);
    let mut rec_total = 0.0;
    let mut gps_total = 0.0;
    let mut n = 0;
    for seed in 0..3u64 {
        if let Some((dt, _, recovery, pair)) =
            recover_pair(DatasetConfig::test_small(), seed, 7 + seed)
        {
            // Deployment semantics: only confident recoveries replace the
            // GPS pose (low-confidence ones keep it, so they tie, not lose).
            if !recovery.is_success() {
                continue;
            }
            let corrupted = noise.corrupt(&pair.true_relative, &mut rng);
            let (gdt, _) = corrupted.error_to(&pair.true_relative);
            rec_total += dt;
            gps_total += gdt;
            n += 1;
        }
    }
    assert!(n >= 2, "not enough confident recoveries, got {n}");
    assert!(
        rec_total < gps_total,
        "recovered errors ({rec_total:.2}) should beat σ=2 m GPS noise ({gps_total:.2}) over {n} pairs"
    );
}

#[test]
fn oncoming_traffic_geometry_is_recovered() {
    // Opposite heading: relative yaw ≈ 180°, exercising the rotation
    // hypothesis sweep end-to-end.
    let mut cfg = DatasetConfig::test_small();
    cfg.scenario = ScenarioConfig::preset(ScenarioPreset::Urban);
    cfg.scenario.agent_heading = AgentHeading::Opposite;
    cfg.scenario.agent_separation = 30.0;

    let mut solved = 0;
    for seed in 0..3u64 {
        if let Some((dt, dr, _, pair)) = recover_pair(cfg.clone(), seed, 31 + seed) {
            assert!(
                (pair.true_relative.yaw().abs() - std::f64::consts::PI).abs() < 0.1,
                "scenario should be oncoming"
            );
            if dt < 4.0 && dr.to_degrees() < 8.0 {
                solved += 1;
            }
        }
    }
    assert!(solved >= 1, "no oncoming pair recovered accurately");
}

#[test]
fn open_rural_scenes_mostly_fail_gracefully() {
    // The paper's failure regime: featureless open areas. Failures must be
    // *reported*, not silently wrong: any recovery marked success=true
    // must actually be accurate-ish.
    let mut cfg = DatasetConfig::test_small();
    cfg.scenario = ScenarioConfig::preset(ScenarioPreset::OpenRural);
    cfg.scenario.traffic_count = 0;
    let mut confident_but_wrong = 0;
    for seed in 0..3u64 {
        if let Some((dt, _, recovery, _)) = recover_pair(cfg.clone(), seed, 77 + seed) {
            if recovery.is_success() && dt > 10.0 {
                confident_but_wrong += 1;
            }
        }
    }
    assert_eq!(
        confident_but_wrong, 0,
        "success criterion passed on grossly wrong open-rural recoveries"
    );
}

#[test]
fn transmitted_payload_is_much_smaller_than_raw_cloud() {
    let aligner = BbAlign::new(fast_engine());
    let mut ds = Dataset::new(DatasetConfig::test_small(), 3);
    let pair = ds.next_pair().unwrap();
    let other = aligner.frame_from_parts(
        pair.other.scan.points().iter().map(|p| p.position),
        pair.other.detections.iter().map(|d| (d.box3, d.confidence)),
    );
    let raw = pair.other.scan.wire_size_bytes();
    let payload = other.wire_size_bytes();
    assert!(
        payload * 4 < raw,
        "BB-Align payload ({payload} B) should be well under raw cloud ({raw} B)"
    );
}

/// One observability recorder across the whole cooperative loop: an
/// obs-enabled end-to-end run must emit the full health record — stage-1
/// phase spans nested under the recovery span, the stage-2 span, inlier
/// distributions, link/fusion/harness counters — and the snapshot's JSON export
/// must be strict enough for the workspace parser to read back.
#[test]
fn observed_link_run_emits_full_metrics_snapshot() {
    // A fast engine for 128² BV images (mirrors the link crate's own test
    // pool: coarser cells, softer inlier floor, smaller descriptors).
    let mut engine = BbAlignConfig {
        bev: BevConfig { range: 102.4, resolution: 1.6 },
        min_inliers_bv: 10,
        ..BbAlignConfig::default()
    };
    engine.descriptor.patch_size = 24;
    engine.descriptor.grid_size = 4;

    let recorder = Recorder::enabled();
    let cfg = HarnessConfig {
        frames: 3,
        seed: 41,
        dataset: DatasetConfig::test_small(),
        engine,
        channel: ChannelConfig::ideal(),
        recorder: recorder.clone(),
        ..HarnessConfig::default()
    };
    let report = V2vHarness::new(cfg).run();
    assert!((report.delivered_rate() - 1.0).abs() < 1e-12, "ideal channel must deliver");
    assert!(report.recovered_rate() > 0.5, "most frames should recover");

    let snap = recorder.snapshot();
    for path in [
        "recover",
        "recover/stage1",
        "recover/stage1/mim",
        "recover/stage1/detect",
        "recover/stage1/describe",
        "recover/stage1/match",
        "recover/stage1/ransac",
        "recover/stage2",
        "fusion",
    ] {
        assert!(snap.span(path).is_some(), "missing span {path}");
    }
    // Per-recovery figures are distributions, not last-writer-wins gauges.
    for name in ["stage1.inliers_bv", "stage1.matches", "harness.pose_error_t_m"] {
        assert!(snap.value(name).is_some(), "missing {name} histogram");
        assert!(snap.gauge(name).is_none(), "{name} must not be a gauge");
    }
    assert!(snap.counter("recover.calls").unwrap_or(0) >= 1);
    // Sweep counters: hypotheses re-binned and matched, and the share of
    // them whose RANSAC the consensus bound skipped.
    let hypotheses = snap.counter("stage1.hypotheses").expect("missing hypothesis counter");
    let pruned = snap.counter("stage1.hypotheses_pruned").expect("missing pruned counter");
    assert!(hypotheses >= 1 && pruned < hypotheses, "{pruned} of {hypotheses} pruned");
    assert!(snap.counter("link.messages_sent").unwrap_or(0) >= 3);
    assert!(snap.counter("link.messages_delivered").unwrap_or(0) >= 3);
    assert_eq!(snap.counter("harness.ticks"), Some(3));
    assert_eq!(snap.counter("fusion.frames"), Some(3));

    let parsed: serde_json::Value =
        serde_json::from_str(&snap.to_json()).expect("snapshot JSON must parse");
    let serde_json::Value::Map(sections) = parsed else {
        panic!("snapshot JSON should be an object");
    };
    let keys: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["counters", "gauges", "spans", "values"]);
}

#[test]
fn dataset_selection_statistics_are_plausible() {
    // The paper keeps ~60% of frames (≥2 common cars). Urban scenes should
    // be selected nearly always, rural rarely.
    let count_selected = |preset: ScenarioPreset| -> usize {
        let mut cfg = DatasetConfig::test_small();
        cfg.scenario = ScenarioConfig::preset(preset);
        let mut selected = 0;
        for seed in 0..3u64 {
            let mut ds = Dataset::new(cfg.clone(), seed);
            if ds.next_pair().unwrap().is_selected() {
                selected += 1;
            }
        }
        selected
    };
    let urban = count_selected(ScenarioPreset::Urban);
    let rural = count_selected(ScenarioPreset::OpenRural);
    assert!(urban >= 2, "urban selection too low: {urban}/3");
    assert!(rural <= urban, "rural should not out-select urban");
}
