//! Integration tests across the substrate crates: scene → lidar → bev →
//! signal → features, plus serialization round-trips of the data types
//! that cross crate boundaries.

use bba_bev::{BevConfig, BevImage};
use bba_dataset::{Dataset, DatasetConfig};
use bba_geometry::{Iso2, Vec2};
use bba_lidar::{LidarConfig, Scanner};
use bba_scene::{Scenario, ScenarioConfig, ScenarioPreset};
use bba_signal::MaxIndexMap;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scan_scenario(preset: ScenarioPreset, seed: u64) -> (Scenario, bba_lidar::Scan) {
    let scenario = Scenario::generate(&ScenarioConfig::preset(preset), seed);
    let scanner = Scanner::new(LidarConfig::test_coarse());
    let mut rng = StdRng::seed_from_u64(seed);
    let scan =
        scanner.scan(scenario.world(), scenario.ego_trajectory(), 0.0, scenario.ego_id(), &mut rng);
    (scenario, scan)
}

#[test]
fn scan_points_stay_within_sensor_range() {
    let (_, scan) = scan_scenario(ScenarioPreset::Suburban, 1);
    let max_range = scan.config().max_range;
    for p in scan.points() {
        // Range noise can push a return slightly beyond the nominal limit.
        assert!(p.position.xy().norm() <= max_range + 1.0);
        assert!(p.position.z >= -0.5, "returns below ground: {:?}", p.position);
        assert!((0.0..1.0).contains(&p.sweep_frac));
    }
}

#[test]
fn taller_obstacles_make_taller_bev_pixels() {
    let (scenario, scan) = scan_scenario(ScenarioPreset::Urban, 2);
    let cfg = BevConfig { range: 102.4, resolution: 0.8 };
    let bev = BevImage::height_map(scan.points().iter().map(|p| p.position), &cfg);
    // Building hits should produce pixels well above car height somewhere.
    assert!(
        bev.grid().max_value() > 3.0,
        "urban scene should rasterise tall structure, max {}",
        bev.grid().max_value()
    );
    // The image is sparse — the defining property stage 1 must cope with.
    assert!(bev.occupancy() < 0.25, "BV image unexpectedly dense: {}", bev.occupancy());
    let _ = scenario;
}

#[test]
fn mim_marks_structure_not_emptiness() {
    let (_, scan) = scan_scenario(ScenarioPreset::Urban, 3);
    let cfg = BevConfig { range: 102.4, resolution: 1.6 }; // 128² for speed
    let bev = BevImage::height_map(scan.points().iter().map(|p| p.position), &cfg);
    let mim = MaxIndexMap::compute(bev.grid());
    // Amplitude concentrates around occupied pixels: mean amplitude at
    // occupied cells far exceeds the global mean.
    let mut occ_amp = 0.0;
    let mut occ_n = 0usize;
    for (u, v, &h) in bev.grid().iter_cells() {
        if h > 1e-9 {
            occ_amp += mim.amplitude[(u, v)];
            occ_n += 1;
        }
    }
    let occ_mean = occ_amp / occ_n.max(1) as f64;
    let global_mean = mim.amplitude.mean();
    assert!(
        occ_mean > 2.0 * global_mean,
        "MIM amplitude should localise structure ({occ_mean} vs {global_mean})"
    );
}

#[test]
fn both_cars_rasterise_consistent_world_structure() {
    // Transform the other car's BV-occupied cells into the ego frame with
    // ground truth: a healthy fraction must land on ego-occupied cells
    // (this is the physical basis for BV image matching).
    let mut ds = Dataset::new(DatasetConfig::test_small(), 4);
    let pair = ds.next_pair().unwrap();
    let cfg = BevConfig { range: 102.4, resolution: 1.6 };
    let ego = BevImage::height_map(pair.ego.scan.points().iter().map(|p| p.position), &cfg);
    let other = BevImage::height_map(pair.other.scan.points().iter().map(|p| p.position), &cfg);

    let mut occupied = 0usize;
    let mut shared = 0usize;
    for (u, v, &h) in other.grid().iter_cells() {
        if h <= 1e-9 {
            continue;
        }
        occupied += 1;
        let world = pair.true_relative.apply(cfg.pixel_center(u, v));
        if let Some((eu, ev)) = cfg.world_to_pixel(world) {
            let hit = (-1i64..=1).any(|du| {
                (-1i64..=1).any(|dv| {
                    ego.grid()
                        .get((eu as i64 + du).max(0) as usize, (ev as i64 + dv).max(0) as usize)
                        .is_some_and(|&x| x > 1e-9)
                })
            });
            if hit {
                shared += 1;
            }
        }
    }
    let frac = shared as f64 / occupied.max(1) as f64;
    assert!(frac > 0.2, "too little co-visible BV structure: {frac:.2}");
}

#[test]
fn detections_follow_scan_evidence() {
    let mut ds = Dataset::new(DatasetConfig::test_small(), 5);
    let pair = ds.next_pair().unwrap();
    // Every true-positive detection corresponds to an object the scan hit.
    for det in &pair.ego.detections {
        if let Some(id) = det.truth {
            assert!(pair.ego.scan.hits_on(id) >= 3, "detection of {id} without scan evidence");
        }
    }
}

#[test]
fn frame_pair_serializes_roundtrip() {
    let mut ds = Dataset::new(DatasetConfig::test_small(), 6);
    let pair = ds.next_pair().unwrap();
    let json = serde_json::to_string(&pair).expect("serialize");
    let back: bba_dataset::FramePair = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(pair, back);
}

#[test]
fn transforms_serialize_roundtrip() {
    let t = Iso2::new(0.7, Vec2::new(-3.0, 9.5));
    let json = serde_json::to_string(&t).unwrap();
    let back: Iso2 = serde_json::from_str(&json).unwrap();
    assert!(back.approx_eq(&t, 1e-12, 1e-12));
}

#[test]
fn heterogeneous_sensors_see_the_same_objects() {
    // A 64-channel and a 16-channel sensor at the same pose must agree on
    // *which* nearby objects exist, even though point counts differ a lot.
    let scenario = Scenario::generate(&ScenarioConfig::preset(ScenarioPreset::Urban), 7);
    let mut rng = StdRng::seed_from_u64(7);
    let hi = Scanner::new(LidarConfig::high_res_64()).scan(
        scenario.world(),
        scenario.ego_trajectory(),
        0.0,
        scenario.ego_id(),
        &mut rng,
    );
    let mut rng = StdRng::seed_from_u64(7);
    let lo = Scanner::new(LidarConfig::low_res_16()).scan(
        scenario.world(),
        scenario.ego_trajectory(),
        0.0,
        scenario.ego_id(),
        &mut rng,
    );
    assert!(hi.len() > 2 * lo.len(), "64ch should return far more points");
    // Objects solidly observed by the low-res sensor are also seen hi-res.
    for (id, _) in scenario.world().vehicles_at(0.0, Some(scenario.ego_id())) {
        if lo.hits_on(id) >= 10 {
            assert!(hi.hits_on(id) >= 10, "{id} visible lo-res but not hi-res");
        }
    }
}
