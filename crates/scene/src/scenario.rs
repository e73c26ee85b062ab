//! Scenario generation: seeded worlds plus the two cooperating cars.
//!
//! A scenario plays the role of one V2V4Real driving segment: a stretch of
//! road with landmarks and traffic, and two agent vehicles whose relative
//! pose is the ground truth that BB-Align must recover. Presets span the
//! traffic/landmark conditions the paper's evaluation sweeps:
//!
//! * [`ScenarioPreset::Urban`] — dense buildings and traffic (many common
//!   cars, Fig. 8/12 upper range).
//! * [`ScenarioPreset::Suburban`] — the default mixed condition.
//! * [`ScenarioPreset::Highway`] — barriers and poles, sparse buildings.
//! * [`ScenarioPreset::OpenRural`] — few landmarks; the regime where the
//!   paper reports unsuccessful recoveries (§V-A "vast open areas").

use crate::objects::{car_box, ObjectKind, Obstacle, ObstacleId, Shape};
use crate::trajectory::Trajectory;
use crate::world::{DynamicVehicle, World};
use bba_geometry::{Box3, Vec2, Vec3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Built-in scenario families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScenarioPreset {
    /// Dense downtown: many buildings, heavy traffic.
    Urban,
    /// Residential: moderate buildings, trees, light-to-medium traffic.
    Suburban,
    /// Highway: barriers, poles, no adjacent buildings.
    Highway,
    /// Open countryside: almost no landmarks (recovery-failure regime).
    OpenRural,
    /// A commercial strip with parking lots: rows of parked cars dominate —
    /// box-anchor-rich for stage 2, building-sparse for stage 1.
    ParkingLot,
}

/// Direction of the other agent car relative to the ego car.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AgentHeading {
    /// Both cars drive the same way (following scenario; V2V4Real's most
    /// common configuration).
    #[default]
    Same,
    /// The other car approaches in the opposite lane.
    Opposite,
}

/// Full parameter set for scenario generation.
///
/// Use [`ScenarioConfig::preset`] and tweak the fields that an experiment
/// sweeps (e.g. [`agent_separation`](Self::agent_separation) for the
/// distance study, [`traffic_count`](Self::traffic_count) for the common-car
/// study).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Length of the simulated road segment (m).
    pub road_length: f64,
    /// Buildings per 100 m of road, per side.
    pub building_density: f64,
    /// Trees per 100 m of road, per side.
    pub tree_density: f64,
    /// Poles per 100 m of road, per side.
    pub pole_density: f64,
    /// Highway-style barrier lines along both road edges.
    pub barriers: bool,
    /// Parked cars per 100 m of road, per side.
    pub parked_density: f64,
    /// Number of moving traffic vehicles.
    pub traffic_count: usize,
    /// Fraction of traffic placed inside the two agents' common viewing
    /// region (between the cars ±30 m) so both cars observe it.
    pub common_traffic_bias: f64,
    /// Along-road distance between the two agent cars (m).
    pub agent_separation: f64,
    /// Relative driving direction of the other car.
    pub agent_heading: AgentHeading,
    /// Ego speed (m/s).
    pub ego_speed: f64,
    /// Other-car speed (m/s); a speed *difference* drives self-motion
    /// distortion mismatch between the two scans.
    pub other_speed: f64,
    /// Signed road curvature κ (1/m); 0 = straight (the default). On a
    /// bend the relative yaw between the cars is nonzero and drifts with
    /// time, exercising the rotation estimation end to end.
    pub road_curvature: f64,
    /// Number of parking-lot areas (each a grid of parked cars beside the
    /// road).
    pub parking_lots: usize,
}

impl ScenarioConfig {
    /// The parameter set of a preset.
    pub fn preset(preset: ScenarioPreset) -> Self {
        match preset {
            ScenarioPreset::Urban => ScenarioConfig {
                road_length: 280.0,
                building_density: 7.0,
                tree_density: 2.0,
                pole_density: 3.0,
                barriers: false,
                parked_density: 3.0,
                traffic_count: 12,
                common_traffic_bias: 0.7,
                agent_separation: 35.0,
                agent_heading: AgentHeading::Same,
                ego_speed: 8.0,
                other_speed: 11.0,
                road_curvature: 0.0,
                parking_lots: 0,
            },
            ScenarioPreset::Suburban => ScenarioConfig {
                road_length: 280.0,
                building_density: 3.5,
                tree_density: 4.0,
                pole_density: 2.0,
                barriers: false,
                parked_density: 1.5,
                traffic_count: 6,
                common_traffic_bias: 0.6,
                agent_separation: 40.0,
                agent_heading: AgentHeading::Same,
                ego_speed: 10.0,
                other_speed: 13.0,
                road_curvature: 0.0,
                parking_lots: 0,
            },
            ScenarioPreset::Highway => ScenarioConfig {
                road_length: 400.0,
                building_density: 0.4,
                tree_density: 1.0,
                pole_density: 3.0,
                barriers: true,
                parked_density: 0.0,
                traffic_count: 8,
                common_traffic_bias: 0.5,
                agent_separation: 50.0,
                agent_heading: AgentHeading::Same,
                ego_speed: 24.0,
                other_speed: 27.0,
                road_curvature: 0.0,
                parking_lots: 0,
            },
            ScenarioPreset::OpenRural => ScenarioConfig {
                road_length: 300.0,
                building_density: 0.15,
                tree_density: 0.6,
                pole_density: 0.3,
                barriers: false,
                parked_density: 0.0,
                traffic_count: 2,
                common_traffic_bias: 0.5,
                agent_separation: 45.0,
                agent_heading: AgentHeading::Same,
                ego_speed: 15.0,
                other_speed: 17.0,
                road_curvature: 0.0,
                parking_lots: 0,
            },
            ScenarioPreset::ParkingLot => ScenarioConfig {
                road_length: 260.0,
                building_density: 1.2,
                tree_density: 1.0,
                pole_density: 2.0,
                barriers: false,
                parked_density: 1.0,
                traffic_count: 5,
                common_traffic_bias: 0.6,
                agent_separation: 30.0,
                agent_heading: AgentHeading::Same,
                ego_speed: 6.0,
                other_speed: 8.0,
                road_curvature: 0.0,
                parking_lots: 3,
            },
        }
    }

    /// Returns the config with a different agent separation (m).
    pub fn with_separation(mut self, separation: f64) -> Self {
        self.agent_separation = separation;
        self
    }

    /// Returns the config with a different traffic count.
    pub fn with_traffic(mut self, count: usize) -> Self {
        self.traffic_count = count;
        self
    }

    /// Returns the config with a road curvature (1/m; 0 = straight).
    pub fn with_curvature(mut self, curvature: f64) -> Self {
        self.road_curvature = curvature;
        self
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig::preset(ScenarioPreset::Suburban)
    }
}

/// A generated scenario: the world plus the two cooperating cars.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    config: ScenarioConfig,
    world: World,
    ego_id: ObstacleId,
    other_id: ObstacleId,
    ego_trajectory: Trajectory,
    other_trajectory: Trajectory,
}

// Road geometry constants (metres).
// Lane centre distance from road centreline; shared with the fleet
// generator so platoon cars line up in the agents' lane.
pub(crate) const LANE_HALF_OFFSET: f64 = 1.75;
/// Fraction of the road length where the ego car starts its arc; shared
/// with the fleet generator so extra platoon cars are placed relative to
/// the same anchor.
pub(crate) const EGO_ARC_FRACTION: f64 = 0.35;
const CURB_OFFSET: f64 = 5.4; // parked-car row
const POLE_OFFSET: f64 = 6.5;
const TREE_OFFSET_MIN: f64 = 7.0;
const TREE_OFFSET_MAX: f64 = 14.0;
const BUILDING_OFFSET_MIN: f64 = 10.0;
const BUILDING_OFFSET_MAX: f64 = 24.0;
const BARRIER_OFFSET: f64 = 4.6;

impl Scenario {
    /// Generates a scenario deterministically from `seed`.
    pub fn generate(config: &ScenarioConfig, seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut world = World::default();
        let mut next_id = 0u32;
        let mut id = || {
            let i = ObstacleId(next_id);
            next_id += 1;
            i
        };
        let len = config.road_length;
        let road = crate::road::RoadFrame::new(config.road_curvature);

        // Buildings on both sides. Real streetscapes are *irregular* —
        // mixed orientations, L-shaped compounds, attached annexes — and
        // that irregularity is what makes BV images matchable (a perfectly
        // repetitive facade row aliases under translation). The generator
        // deliberately injects that variety.
        let per_side = |density: f64| (density * len / 100.0).round() as usize;
        // Block structure: density and building style vary along the road
        // in 30–60 m blocks. Without it the corridor is statistically
        // translation-invariant and BV matching aliases onto shifted
        // look-alike facades — real streets never are.
        let mut blocks: Vec<(f64, f64, f64)> = Vec::new(); // (start, end, density multiplier)
        {
            let mut x = 0.0;
            while x < len {
                let block_len = rng.random_range(30.0..60.0);
                let mult = match rng.random_range(0..4u32) {
                    0 => 0.0, // empty block (parking lot / park)
                    1 => 0.6,
                    2 => 1.2,
                    _ => 2.0, // dense block
                };
                blocks.push((x, (x + block_len).min(len), mult));
                x += block_len;
            }
        }
        let sample_block_x = |rng: &mut StdRng, blocks: &[(f64, f64, f64)]| -> Option<f64> {
            let total: f64 = blocks.iter().map(|b| (b.1 - b.0) * b.2).sum();
            if total <= 0.0 {
                return None;
            }
            let mut r = rng.random_range(0.0..total);
            for &(s, e, m) in blocks {
                let w = (e - s) * m;
                if r < w {
                    return Some(s + r / m.max(1e-9));
                }
                r -= w;
            }
            blocks.last().map(|b| b.1)
        };
        for side in [-1.0, 1.0] {
            for _ in 0..per_side(config.building_density) {
                let Some(x) = sample_block_x(&mut rng, &blocks) else { break };
                let depth = rng.random_range(5.0..20.0);
                let width = rng.random_range(6.0..28.0);
                let height = rng.random_range(3.0..28.0);
                let offset = rng.random_range(BUILDING_OFFSET_MIN..BUILDING_OFFSET_MAX);
                let d = side * (offset + depth / 2.0);
                let base = road.to_world(x, d);
                let yaw = road.heading_at(x) + rng.random_range(-0.35..0.35);
                world.push_static(Obstacle::new(
                    id(),
                    ObjectKind::Building,
                    Shape::Box(Box3::new(
                        Vec3::from_xy(base, height / 2.0),
                        Vec3::new(width, depth, height),
                        yaw,
                    )),
                ));
                // Facade detail: protrusions (bays, pillars, stair towers)
                // along the building perimeter. Two plain rectangles are
                // indistinguishable at BV resolution; real facades never
                // are, and this per-building "fingerprint" is what lets
                // descriptors tell look-alike buildings apart.
                let n_details = rng.random_range(2..7);
                for _ in 0..n_details {
                    let along = rng.random_range(-0.5..0.5) * width;
                    let front = if rng.random::<f64>() < 0.7 { -1.0 } else { 1.0 };
                    let local = Vec2::new(along, front * side * (depth / 2.0 + 0.6));
                    let wpos = base + local.rotated(yaw);
                    let d_size = rng.random_range(0.6..2.4);
                    let d_height = rng.random_range(1.5..(height + 2.0));
                    world.push_static(Obstacle::new(
                        id(),
                        ObjectKind::Building,
                        Shape::Box(Box3::new(
                            Vec3::from_xy(wpos, d_height / 2.0),
                            Vec3::new(d_size, d_size, d_height),
                            yaw + rng.random_range(-0.4..0.4),
                        )),
                    ));
                }
                // Roughly a third of buildings get an attached annex at a
                // different height/orientation (L-shaped compounds).
                if rng.random::<f64>() < 0.35 {
                    let a_depth = rng.random_range(4.0..10.0);
                    let a_width = rng.random_range(4.0..12.0);
                    let a_height = (height * rng.random_range(0.4..0.9)).max(2.5);
                    world.push_static(Obstacle::new(
                        id(),
                        ObjectKind::Building,
                        Shape::Box(Box3::new(
                            Vec3::from_xy(
                                base + Vec2::new(
                                    rng.random_range(-0.6..0.6) * width,
                                    side * rng.random_range(-4.0..4.0),
                                )
                                .rotated(road.heading_at(x)),
                                a_height / 2.0,
                            ),
                            Vec3::new(a_width, a_depth, a_height),
                            yaw + rng.random_range(-0.8..0.8),
                        )),
                    ));
                }
            }
            // Distinctive tall landmarks (water towers, masts): one per
            // ~120 m per side, unique enough to anchor the matcher.
            for _ in 0..((len / 120.0 * config.building_density.clamp(0.2, 2.0)).round() as usize) {
                let x = rng.random_range(0.0..len);
                let offset = rng.random_range(8.0..20.0);
                world.push_static(Obstacle::new(
                    id(),
                    ObjectKind::Pole,
                    Shape::Cylinder {
                        center: road.to_world(x, side * offset),
                        radius: rng.random_range(0.8..2.2),
                        z0: 0.0,
                        z1: rng.random_range(9.0..18.0),
                    },
                ));
            }
            // Trees: trunk + canopy, two obstacles sharing a position.
            for _ in 0..per_side(config.tree_density) {
                let x = rng.random_range(0.0..len);
                let offset = rng.random_range(TREE_OFFSET_MIN..TREE_OFFSET_MAX);
                let pos = road.to_world(x, side * offset);
                let trunk_h = rng.random_range(2.5..5.0);
                let canopy_r = rng.random_range(1.4..3.2);
                world.push_static(Obstacle::new(
                    id(),
                    ObjectKind::Tree,
                    Shape::Cylinder {
                        center: pos,
                        radius: rng.random_range(0.15..0.4),
                        z0: 0.0,
                        z1: trunk_h,
                    },
                ));
                world.push_static(Obstacle::new(
                    id(),
                    ObjectKind::Tree,
                    Shape::Sphere {
                        center: Vec3::from_xy(pos, trunk_h + canopy_r * 0.6),
                        radius: canopy_r,
                    },
                ));
            }
            // Poles.
            for _ in 0..per_side(config.pole_density) {
                let x = rng.random_range(0.0..len);
                world.push_static(Obstacle::new(
                    id(),
                    ObjectKind::Pole,
                    Shape::Cylinder {
                        center: road.to_world(x, side * POLE_OFFSET),
                        radius: 0.12,
                        z0: 0.0,
                        z1: rng.random_range(5.0..8.5),
                    },
                ));
            }
            // Parked cars along the curb.
            for _ in 0..per_side(config.parked_density) {
                let x = rng.random_range(0.0..len);
                let yaw = road.heading_at(x) + rng.random_range(-0.05..0.05);
                world.push_static(Obstacle::new(
                    id(),
                    ObjectKind::ParkedVehicle,
                    Shape::Box(car_box(road.to_world(x, side * CURB_OFFSET), yaw)),
                ));
            }
            // Parking lots: a grid of parked cars beside the road. Rows
            // run parallel to the road with realistic stall spacing.
            for _ in 0..config.parking_lots.div_ceil(2) {
                let lot_s = rng.random_range(0.2 * len..0.8 * len);
                let lot_d0 = side * rng.random_range(9.0..14.0);
                let rows = rng.random_range(2..4u32);
                let cols = rng.random_range(4..9u32);
                for r in 0..rows {
                    for c in 0..cols {
                        if rng.random::<f64>() < 0.25 {
                            continue; // empty stall
                        }
                        let s_pos = lot_s + c as f64 * 2.9 + rng.random_range(-0.2..0.2);
                        let d_pos = lot_d0 + side * r as f64 * 5.5;
                        // Cars park perpendicular to the road.
                        let yaw = road.heading_at(s_pos)
                            + std::f64::consts::FRAC_PI_2
                            + rng.random_range(-0.06..0.06);
                        world.push_static(Obstacle::new(
                            id(),
                            ObjectKind::ParkedVehicle,
                            Shape::Box(car_box(road.to_world(s_pos, d_pos), yaw)),
                        ));
                    }
                }
            }
            // Highway barriers: a row of low, long boxes.
            if config.barriers {
                let seg_len = 12.0;
                let mut x = 0.0;
                while x < len {
                    let mid = x + seg_len / 2.0;
                    world.push_static(Obstacle::new(
                        id(),
                        ObjectKind::Barrier,
                        Shape::Box(Box3::new(
                            Vec3::from_xy(road.to_world(mid, side * BARRIER_OFFSET), 0.5),
                            Vec3::new(seg_len - 0.5, 0.4, 1.0),
                            road.heading_at(mid),
                        )),
                    ));
                    x += seg_len;
                }
            }
        }

        // Agent trajectories: ego in the right lane along the road; the
        // other car `agent_separation` metres of arc ahead, same or
        // opposite direction.
        let ego_s = len * EGO_ARC_FRACTION;
        let other_s = ego_s + config.agent_separation;
        let ego_trajectory = road.trajectory(ego_s, -LANE_HALF_OFFSET, config.ego_speed, true);
        let other_trajectory = match config.agent_heading {
            AgentHeading::Same => {
                road.trajectory(other_s, -LANE_HALF_OFFSET, config.other_speed, true)
            }
            AgentHeading::Opposite => {
                road.trajectory(other_s, LANE_HALF_OFFSET, config.other_speed, false)
            }
        };

        let ego_id = id();
        world.push_dynamic(DynamicVehicle {
            id: ego_id,
            kind: ObjectKind::AgentVehicle,
            trajectory: ego_trajectory.clone(),
        });
        let other_id = id();
        world.push_dynamic(DynamicVehicle {
            id: other_id,
            kind: ObjectKind::AgentVehicle,
            trajectory: other_trajectory.clone(),
        });

        // Traffic: a biased fraction in the common viewing region so both
        // agents observe them; the rest anywhere on the road.
        let common_lo = ego_s.min(other_s) - 25.0;
        let common_hi = ego_s.max(other_s) + 25.0;
        for k in 0..config.traffic_count {
            let in_common = rng.random::<f64>() < config.common_traffic_bias;
            let x = if in_common {
                rng.random_range(common_lo..common_hi)
            } else {
                rng.random_range(0.0..len)
            };
            // Cycle four lanes (two per direction) so traffic is spread
            // laterally; collinear single-lane queues would occlude each
            // other and starve the common-observation experiments.
            let (lane_d, forward) = match k % 4 {
                0 => (-LANE_HALF_OFFSET, true),
                1 => (LANE_HALF_OFFSET, false),
                2 => (-LANE_HALF_OFFSET - 3.5, true),
                _ => (LANE_HALF_OFFSET + 3.5, false),
            };
            // Lateral jitter keeps cars from perfectly collinear layouts
            // (which would be degenerate for graph matching).
            let d = lane_d + rng.random_range(-0.8..0.8);
            let speed = rng.random_range(6.0..16.0);
            world.push_dynamic(DynamicVehicle {
                id: id(),
                kind: ObjectKind::TrafficVehicle,
                trajectory: road.trajectory(x, d, speed, forward),
            });
        }

        Scenario {
            config: config.clone(),
            world,
            ego_id,
            other_id,
            ego_trajectory,
            other_trajectory,
        }
    }

    /// The generation parameters.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Obstacle id of the ego agent car.
    pub fn ego_id(&self) -> ObstacleId {
        self.ego_id
    }

    /// Obstacle id of the other agent car.
    pub fn other_id(&self) -> ObstacleId {
        self.other_id
    }

    /// Trajectory of the ego car.
    pub fn ego_trajectory(&self) -> &Trajectory {
        &self.ego_trajectory
    }

    /// Trajectory of the other car.
    pub fn other_trajectory(&self) -> &Trajectory {
        &self.other_trajectory
    }

    /// Ground-truth relative transform mapping the other car's frame into
    /// the ego frame at time `t` — the quantity BB-Align estimates.
    pub fn true_relative_pose(&self, t: f64) -> bba_geometry::Iso2 {
        let ego = self.ego_trajectory.pose_at(t);
        let other = self.other_trajectory.pose_at(t);
        ego.relative_from(&other)
    }

    /// Inter-vehicle distance at time `t` (m).
    pub fn agent_distance(&self, t: f64) -> f64 {
        let e = self.ego_trajectory.pose_at(t).translation();
        let o = self.other_trajectory.pose_at(t).translation();
        e.distance(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = ScenarioConfig::preset(ScenarioPreset::Urban);
        let a = Scenario::generate(&cfg, 5);
        let b = Scenario::generate(&cfg, 5);
        assert_eq!(a, b);
        let c = Scenario::generate(&cfg, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn urban_is_denser_than_rural() {
        let urban = Scenario::generate(&ScenarioConfig::preset(ScenarioPreset::Urban), 1);
        let rural = Scenario::generate(&ScenarioConfig::preset(ScenarioPreset::OpenRural), 1);
        let landmark_count = |s: &Scenario| {
            s.world().static_obstacles().iter().filter(|o| o.kind.is_landmark()).count()
        };
        assert!(landmark_count(&urban) > 3 * landmark_count(&rural).max(1));
    }

    #[test]
    fn highway_has_barriers() {
        let hw = Scenario::generate(&ScenarioConfig::preset(ScenarioPreset::Highway), 2);
        assert!(hw.world().static_obstacles().iter().any(|o| o.kind == ObjectKind::Barrier));
    }

    #[test]
    fn agent_separation_respected() {
        for sep in [10.0, 40.0, 80.0] {
            let cfg = ScenarioConfig::default().with_separation(sep);
            let s = Scenario::generate(&cfg, 3);
            let d = s.agent_distance(0.0);
            // Same-lane following: distance ≈ separation.
            assert!((d - sep).abs() < 1.0, "sep {sep}: distance {d}");
        }
    }

    #[test]
    fn relative_pose_consistent_with_world_points() {
        let s = Scenario::generate(&ScenarioConfig::default(), 11);
        let t = 2.0;
        let rel = s.true_relative_pose(t);
        let ego = s.ego_trajectory().pose_at(t);
        let other = s.other_trajectory().pose_at(t);
        // A point 5 m ahead of the other car, via both paths.
        let p_other = Vec2::new(5.0, 0.0);
        let world_pt = other.apply(p_other);
        let ego_pt = rel.apply(p_other);
        assert!((ego.apply(ego_pt) - world_pt).norm() < 1e-9);
    }

    #[test]
    fn opposite_heading_flips_yaw() {
        let cfg =
            ScenarioConfig { agent_heading: AgentHeading::Opposite, ..ScenarioConfig::default() };
        let s = Scenario::generate(&cfg, 4);
        let rel = s.true_relative_pose(0.0);
        assert!((rel.yaw().abs() - std::f64::consts::PI).abs() < 1e-6);
    }

    #[test]
    fn traffic_count_matches_config() {
        let cfg = ScenarioConfig::default().with_traffic(9);
        let s = Scenario::generate(&cfg, 8);
        let traffic = s
            .world()
            .dynamic_vehicles()
            .iter()
            .filter(|d| d.kind == ObjectKind::TrafficVehicle)
            .count();
        assert_eq!(traffic, 9);
        // Plus the two agents.
        assert_eq!(s.world().dynamic_vehicles().len(), 11);
    }

    #[test]
    fn parking_lot_preset_is_rich_in_parked_cars() {
        let s = Scenario::generate(&ScenarioConfig::preset(ScenarioPreset::ParkingLot), 6);
        let parked = s
            .world()
            .static_obstacles()
            .iter()
            .filter(|o| o.kind == ObjectKind::ParkedVehicle)
            .count();
        assert!(parked >= 10, "parking lots should add many parked cars, got {parked}");
        // Perpendicular parking: most parked cars face roughly ±90°.
        let perpendicular = s
            .world()
            .static_obstacles()
            .iter()
            .filter(|o| o.kind == ObjectKind::ParkedVehicle)
            .filter(|o| match o.shape {
                Shape::Box(b) => {
                    let fold = bba_geometry::boxes::canonical_yaw(b.yaw).abs();
                    (fold - std::f64::consts::FRAC_PI_2).abs() < 0.2
                }
                _ => false,
            })
            .count();
        assert!(perpendicular * 2 > parked, "{perpendicular}/{parked} perpendicular");
    }

    #[test]
    fn agents_have_unique_ids() {
        let s = Scenario::generate(&ScenarioConfig::default(), 10);
        assert_ne!(s.ego_id(), s.other_id());
        let mut ids: Vec<u32> = s
            .world()
            .static_obstacles()
            .iter()
            .map(|o| o.id.0)
            .chain(s.world().dynamic_vehicles().iter().map(|d| d.id.0))
            .collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate obstacle ids");
    }
}
