//! Seeded input generation. Scene, LiDAR and detector simulation all run
//! here, before any clock starts; the workloads only ever see the
//! generated point clouds and boxes.

use bb_align::{BbAlign, PerceptionFrame};
use bba_dataset::{
    AgentFrame, Dataset, DatasetConfig, FleetDataset, FleetDatasetConfig, FramePair,
};
use bba_geometry::{Box3, Iso2, Vec3};
use bba_lidar::Scan;
use bba_scene::{FleetConfig, ScenarioConfig, ScenarioPreset};

use crate::host;

/// Frame interval of every streamed workload (s): 10 Hz.
pub const FRAME_INTERVAL: f64 = 0.1;

/// Splitmix64 finaliser over `(seed, stream, index)`: every generated
/// scene draws its own unrelated seed from the benchmark seed.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed streams, one per input family, so no two families share scenes.
pub mod stream {
    /// `fleet_fanout` fleets.
    pub const FLEET: u64 = 2;
    /// `link_stream` sequences.
    pub const LINK: u64 = 3;
    /// Warm-up inputs (never measured).
    pub const WARMUP: u64 = 4;
    /// Recovery and channel RNG seeds.
    pub const RNG: u64 = 5;
    /// Service RNG seeds, one per unit.
    pub const SERVICE: u64 = 6;
    /// Late-fusion RNG seeds, one per unit.
    pub const FUSION: u64 = 7;
}

/// One vehicle's sensor output at one instant: raw LiDAR points and the
/// detector's `(box, confidence)` list — what a car has before BB-Align.
#[derive(Debug, Clone)]
pub struct SensorFrame {
    /// Scan points in the sensor frame, in single precision as LiDAR
    /// hardware reports them (and at half the memory of the simulator's
    /// doubles, which lets a run hold many more scenes).
    pub points: Vec<[f32; 3]>,
    /// Detected 3-D boxes with confidences.
    pub boxes: Vec<(Box3, f64)>,
}

impl SensorFrame {
    /// Keeps what the pipeline consumes from a simulated agent frame.
    pub fn from_agent(agent: &AgentFrame) -> Self {
        SensorFrame {
            points: agent
                .scan
                .points()
                .iter()
                .map(|p| [p.position.x as f32, p.position.y as f32, p.position.z as f32])
                .collect(),
            boxes: agent.detections.iter().map(|d| (d.box3, d.confidence)).collect(),
        }
    }

    /// Rasterises this scan into a transmissible frame.
    pub fn rasterize(&self, engine: &BbAlign) -> PerceptionFrame {
        let points = self.points.iter().map(|&[x, y, z]| Vec3::new(x.into(), y.into(), z.into()));
        engine.frame_from_parts(points, self.boxes.iter().copied())
    }
}

/// A receiver/sender pair at one instant with its ground truth.
#[derive(Debug, Clone)]
pub struct PairInput {
    /// The recovering (ego) vehicle.
    pub receiver: SensorFrame,
    /// The transmitting vehicle.
    pub sender: SensorFrame,
    /// True sender→receiver transform.
    pub truth: Iso2,
}

impl PairInput {
    fn from_frame_pair(pair: &FramePair) -> Self {
        PairInput {
            receiver: SensorFrame::from_agent(&pair.ego),
            sender: SensorFrame::from_agent(&pair.other),
            truth: pair.true_relative,
        }
    }
}

/// `n` items `make(0..n)`, generated on up to `available_parallelism`
/// threads before any clock starts. Each item depends on its index alone,
/// so the result does not depend on the thread count.
fn generate<T: Send>(n: usize, make: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = host::available_parallelism().clamp(1, n.max(1));
    let chunk = n.div_ceil(workers).max(1);
    let indices: Vec<usize> = (0..n).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = indices
            .chunks(chunk)
            .map(|part| s.spawn(|| part.iter().map(|&i| make(i)).collect::<Vec<T>>()))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("input generation panicked")).collect()
    })
}

fn urban_dataset(seed: u64) -> Dataset {
    let scenario = ScenarioConfig::preset(ScenarioPreset::Urban);
    let config = DatasetConfig { scenario, ..DatasetConfig::standard() };
    Dataset::new(config.at_frame_interval(FRAME_INTERVAL), seed)
}

/// The warm-up pair: it fills the engine's lazy caches and is never part
/// of a measured unit. It is the same for every seed, so set-up time does
/// not vary with the seed.
pub fn warmup_pair() -> PairInput {
    let mut ds = urban_dataset(mix(0, stream::WARMUP, 0));
    PairInput::from_frame_pair(&ds.next_pair().expect("datasets stream indefinitely"))
}

/// One 10 Hz frame of a streamed pair.
#[derive(Debug, Clone)]
pub struct StreamFrame {
    /// Capture time (s, scenario clock).
    pub time: f64,
    /// Both cars' sensor output and the true pose.
    pub pair: PairInput,
    /// The frame pair late fusion reads (boxes and ground truth); its
    /// scans are emptied because fusion never reads them.
    pub fusion: FramePair,
}

/// `pairs` sender→receiver sequences of `frames` frames at 10 Hz, each on
/// its own seeded urban scenario with both cars heading the same way.
///
/// Only following traffic streams: a stream stays cold on every frame
/// until its first recovery succeeds, and that first success is seed
/// luck on suburban, highway and oncoming pairs (stage 1 fails on a share
/// of them at the default raster). Each such stream swings the run's cost
/// by several cold recoveries instead of measuring the steady state.
pub fn link_streams(seed: u64, pairs: usize, frames: usize) -> Vec<Vec<StreamFrame>> {
    generate(pairs, |p| {
        let mut ds = urban_dataset(mix(seed, stream::LINK, p as u64));
        (0..frames)
            .map(|_| {
                let pair = ds.next_pair().expect("datasets stream indefinitely");
                StreamFrame {
                    time: pair.time,
                    pair: PairInput::from_frame_pair(&pair),
                    fusion: strip_scans(pair),
                }
            })
            .collect()
    })
}

fn strip_scans(mut pair: FramePair) -> FramePair {
    for agent in [&mut pair.ego, &mut pair.other] {
        let scan = &agent.scan;
        agent.scan =
            Scan::new(Vec::new(), scan.sensor_pose(), scan.config().clone(), scan.timestamp());
    }
    pair
}

/// Vehicles in the `fleet_fanout` fleet: the base pair plus two clusters
/// of three.
pub const FLEET_VEHICLES: usize = 8;
/// Cars per cluster.
const CLUSTER_SIZE: usize = 3;
/// Arc distance (m) between cluster anchors: the `place_recognition`
/// layout (160 m at a 51.2 m raster radius) scaled to the default 102.4 m
/// radius, so clusters again sit beyond twice the radius of each other and
/// of the base pair and cross-cluster pairs share no BEV area.
const CLUSTER_GAP: f64 = 320.0;
/// In-cluster spacing (m): heavy mutual overlap.
const IN_CLUSTER_SPACING: f64 = 10.0;
/// Road length (m): the ego sits at 35% of it, and both clusters trail
/// the ego on generated road.
const FLEET_ROAD_LENGTH: f64 = 2200.0;

/// One synchronised fleet frame.
#[derive(Debug, Clone)]
pub struct FleetTick {
    /// Capture time (s, scenario clock).
    pub time: f64,
    /// One sensor frame per vehicle.
    pub vehicles: Vec<SensorFrame>,
    /// True transform of vehicle `j` into vehicle `i`, at `i * n + j`.
    pub truth: Vec<Iso2>,
    /// Whether vehicles `i` and `j` share BEV area, at `i * n + j`.
    pub overlap: Vec<bool>,
}

/// The first 10 Hz frame of each of `fleets` clustered suburban fleets,
/// each on its own seeded scenario; ground truth is evaluated at the
/// engine's BEV radius `range`.
pub fn fleet_ticks(seed: u64, fleets: usize, range: f64) -> Vec<FleetTick> {
    let mut scenario = ScenarioConfig::preset(ScenarioPreset::Suburban);
    scenario.road_length = FLEET_ROAD_LENGTH;
    let mut fleet = FleetConfig::clusters(scenario, FLEET_VEHICLES, CLUSTER_SIZE, CLUSTER_GAP);
    fleet.spacing = IN_CLUSTER_SPACING;
    let config = FleetDatasetConfig {
        fleet,
        base: DatasetConfig::standard().at_frame_interval(FRAME_INTERVAL),
    };
    generate(fleets, |f| {
        let mut ds = FleetDataset::new(config.clone(), mix(seed, stream::FLEET, f as u64));
        fleet_tick(&mut ds, range)
    })
}

fn fleet_tick(ds: &mut FleetDataset, range: f64) -> FleetTick {
    let frame = ds.next_frame();
    let n = frame.agents.len();
    let scenario = ds.fleet();
    let pairs = (0..n).flat_map(|i| (0..n).map(move |j| (i, j)));
    FleetTick {
        time: frame.time,
        truth: pairs.clone().map(|(i, j)| scenario.relative_pose(i, j, frame.time)).collect(),
        overlap: pairs
            .map(|(i, j)| scenario.bev_overlap_fraction(i, j, frame.time, range) > 0.0)
            .collect(),
        vehicles: frame.agents.iter().map(SensorFrame::from_agent).collect(),
    }
}
