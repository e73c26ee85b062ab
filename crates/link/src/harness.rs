//! The cooperative perception loop over the simulated link.
//!
//! [`V2vHarness`] runs two simulated vehicles end to end: each tick the
//! transmitting car serialises its [`bb_align::PerceptionFrame`]
//! ([`bb_align::wire::encode_frame`]) and ships it through a lossy
//! [`SimChannel`] via a [`LinkEndpoint`] session; the receiving car
//! reassembles, decodes the payload for its engine
//! ([`BbAlign::decode_frame`]), recovers the relative pose, feeds it to the
//! temporal tracker, and fuses cooperatively (`bba-fusion`). When the
//! link fails to deliver a fresh frame the loop *degrades instead of
//! stalling*: the pose comes from the tracker's constant-velocity
//! extrapolation ([`bb_align::tracking`]) and perception falls back to
//! the ego car's own detections ([`FusionExperiment::ego_only`]).
//!
//! Every random stream is seeded from the harness seed, and per-frame
//! recovery RNGs are derived independently of link outcomes
//! ([`recovery_rng`]), so over a lossless channel the loop reproduces the
//! direct-call pipeline bit for bit — the property the integration tests
//! pin.

use crate::channel::{ChannelConfig, ChannelStats, SimChannel};
use crate::session::{LinkEndpoint, PeerState, SessionConfig, SessionStats};
use bb_align::tracking::PoseTracker;
use bb_align::{wire, BbAlign, BbAlignConfig, PerceptionFrame};
use bba_dataset::{AgentFrame, Dataset, DatasetConfig, FramePair};
use bba_fusion::{FusionExperiment, FusionMethod};
use bba_geometry::Iso2;
use bba_obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Harness parameters.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Frame pairs (ticks) to run.
    pub frames: usize,
    /// Master seed: dataset, channels, and recovery streams derive from it.
    pub seed: u64,
    /// World/sensor generation (its `frame_interval` sets the tick length).
    pub dataset: DatasetConfig,
    /// Pose-recovery engine configuration.
    pub engine: BbAlignConfig,
    /// Cooperative fusion method for delivered frames.
    pub fusion: FusionMethod,
    /// Link impairments, applied to both directions (data and acks).
    pub channel: ChannelConfig,
    /// Session (framing/retransmit/staleness) parameters.
    pub session: SessionConfig,
    /// Link pump sub-steps per tick: how often the endpoints look at the
    /// channel between frames (retransmissions need the opportunities).
    pub substeps: usize,
    /// Observability sink shared by the recovery engine, both link
    /// endpoints, and the fusion step. Disabled (and free) by default;
    /// pass [`Recorder::enabled`] and snapshot it after
    /// [`V2vHarness::run`] for a per-run health record.
    pub recorder: Recorder,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            frames: 10,
            seed: 2024,
            dataset: DatasetConfig::standard(),
            engine: BbAlignConfig::default(),
            fusion: FusionMethod::Late,
            channel: ChannelConfig::urban(),
            session: SessionConfig::default(),
            substeps: 5,
            recorder: Recorder::disabled(),
        }
    }
}

/// Where this tick's relative-pose estimate came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoseSource {
    /// A fresh frame arrived and per-frame recovery succeeded.
    Recovered,
    /// Recovery was unavailable this tick; the tracker extrapolated.
    Extrapolated,
    /// No frame and no initialised track: the receiver has no estimate.
    Unavailable,
}

/// What happened on one tick of the cooperative loop.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameOutcome {
    /// Tick index.
    pub index: usize,
    /// Virtual frame timestamp (s).
    pub time: f64,
    /// Receiver's view of peer health at the end of the tick.
    pub link_state: PeerState,
    /// A fresh perception frame completed reassembly this tick.
    pub delivered: bool,
    /// End-to-end frame latency (s) when delivered.
    pub link_latency: Option<f64>,
    /// Provenance of the pose estimate.
    pub pose_source: PoseSource,
    /// The pose estimate used (None only when [`PoseSource::Unavailable`]).
    pub pose: Option<Iso2>,
    /// `(translation m, rotation rad)` error of the estimate vs. ground
    /// truth.
    pub pose_error: Option<(f64, f64)>,
    /// Fused cooperatively (true) or degraded to ego-only (false).
    pub cooperative: bool,
    /// Detections produced this tick (cooperative or ego-only).
    pub detections: usize,
}

/// The full run record.
#[derive(Debug, Clone)]
pub struct HarnessReport {
    /// One outcome per tick.
    pub outcomes: Vec<FrameOutcome>,
    /// Data-direction (other → ego) channel counters.
    pub forward: ChannelStats,
    /// Ack-direction (ego → other) channel counters.
    pub reverse: ChannelStats,
    /// Receiver session counters.
    pub receiver: SessionStats,
    /// Transmitter session counters.
    pub transmitter: SessionStats,
}

impl HarnessReport {
    /// Fraction of ticks with a fresh frame delivered.
    pub fn delivered_rate(&self) -> f64 {
        self.rate(|o| o.delivered)
    }

    /// Fraction of ticks whose pose came from a successful recovery.
    pub fn recovered_rate(&self) -> f64 {
        self.rate(|o| o.pose_source == PoseSource::Recovered)
    }

    fn rate(&self, f: impl Fn(&FrameOutcome) -> bool) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| f(o)).count() as f64 / self.outcomes.len() as f64
    }
}

/// The per-frame recovery RNG, derived from `(seed, tick index)` only.
///
/// Deriving it from the tick index — not from a shared stream whose phase
/// would shift with link outcomes — is what makes the lossless run
/// reproduce the direct-call pipeline exactly, and lossy runs recover
/// identically on whichever frames they do receive.
pub fn recovery_rng(seed: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Builds one car's transmissible frame from its dataset view.
pub fn perception_frame(aligner: &BbAlign, agent: &AgentFrame) -> PerceptionFrame {
    aligner.frame_from_parts(
        agent.scan.points().iter().map(|p| p.position),
        agent.detections.iter().map(|d| (d.box3, d.confidence)),
    )
}

/// The two-vehicle cooperative loop (see the [module docs](self)).
#[derive(Debug)]
pub struct V2vHarness {
    config: HarnessConfig,
}

impl V2vHarness {
    /// Creates a harness.
    pub fn new(config: HarnessConfig) -> Self {
        V2vHarness { config }
    }

    /// The configuration.
    pub fn config(&self) -> &HarnessConfig {
        &self.config
    }

    /// Runs the loop for the configured number of ticks.
    pub fn run(&self) -> HarnessReport {
        let cfg = &self.config;
        let dt = cfg.dataset.frame_interval;
        let substeps = cfg.substeps.max(1);
        let aligner = BbAlign::new(cfg.engine.clone()).with_recorder(cfg.recorder.clone());
        let fusion = FusionExperiment::new(cfg.fusion);
        let mut dataset = Dataset::new(cfg.dataset.clone(), cfg.seed);
        let mut tracker = PoseTracker::new();
        let mut forward = SimChannel::new(cfg.channel, cfg.seed.wrapping_add(0x5E_EDF0));
        let mut reverse = SimChannel::new(cfg.channel, cfg.seed.wrapping_add(0x5E_EDF1));
        let mut receiver = LinkEndpoint::new(cfg.session);
        receiver.set_recorder(cfg.recorder.clone());
        let mut transmitter = LinkEndpoint::new(cfg.session);
        transmitter.set_recorder(cfg.recorder.clone());
        let mut fusion_rng =
            StdRng::seed_from_u64(cfg.seed.wrapping_mul(0xA24B_AED4_963E_E407).wrapping_add(1));

        let mut outcomes = Vec::with_capacity(cfg.frames);
        for index in 0..cfg.frames {
            let pair = dataset.next_pair().expect("dataset streams indefinitely");
            let t = pair.time;
            let ego_frame = perception_frame(&aligner, &pair.ego);
            let other_frame = perception_frame(&aligner, &pair.other);

            // The transmitting car ships its frame at the tick timestamp.
            // Perception frames are far below the wire's chunk-count
            // ceiling at any valid MTU, so an encode failure here is a
            // programming error, not a runtime condition.
            transmitter
                .send_message(t, &wire::encode_frame(&other_frame), &mut forward)
                .expect("perception frame exceeds wire capacity");

            // Pump both endpoints through the tick so acks and
            // retransmissions get their chance before the next frame.
            let mut latest = None;
            let mut end = t;
            for s in 1..=substeps {
                end = t + dt * s as f64 / (substeps + 1) as f64;
                for msg in receiver.pump(end, &mut forward, &mut reverse) {
                    latest = Some(msg);
                }
                transmitter.pump(end, &mut reverse, &mut forward);
            }

            let received = latest.and_then(|msg| {
                // Checksummed chunks make corruption here unreachable, but
                // a defensive decode keeps the loop alive regardless. The
                // engine's decode also rejects a raster geometry other
                // than its own before allocating it.
                aligner.decode_frame(&msg.payload).ok().map(|frame| (frame, msg.latency))
            });
            let outcome = self.evaluate_tick(TickInputs {
                index,
                pair: &pair,
                ego_frame: &ego_frame,
                received,
                link_state: receiver.peer_state(end),
                aligner: &aligner,
                fusion: &fusion,
                tracker: &mut tracker,
                fusion_rng: &mut fusion_rng,
            });
            outcomes.push(outcome);
        }

        HarnessReport {
            outcomes,
            forward: *forward.stats(),
            reverse: *reverse.stats(),
            receiver: *receiver.stats(),
            transmitter: *transmitter.stats(),
        }
    }

    fn evaluate_tick(&self, inputs: TickInputs<'_>) -> FrameOutcome {
        let TickInputs {
            index,
            pair,
            ego_frame,
            received,
            link_state,
            aligner,
            fusion,
            tracker,
            fusion_rng,
        } = inputs;
        let t = pair.time;
        let delivered = received.is_some();
        let link_latency = received.as_ref().map(|(_, latency)| *latency);

        // Pose: recovery from a fresh frame, else the tracker's
        // extrapolation (also the fallback when recovery itself fails on a
        // delivered frame).
        let recovery = received.as_ref().and_then(|(frame, _)| {
            aligner.recover(ego_frame, frame, &mut recovery_rng(self.config.seed, index)).ok()
        });
        let (pose, pose_source) = match &recovery {
            Some(recovery) => {
                tracker.update(t, recovery);
                (Some(recovery.transform), PoseSource::Recovered)
            }
            None => match tracker.predict(t) {
                Some(p) => (Some(p), PoseSource::Extrapolated),
                None => (None, PoseSource::Unavailable),
            },
        };
        let pose_error = pose.map(|p| p.error_to(&pair.true_relative));

        let obs = &self.config.recorder;
        obs.incr("harness.ticks");
        match pose_source {
            PoseSource::Recovered => obs.incr("harness.pose_recovered"),
            PoseSource::Extrapolated => obs.incr("harness.pose_extrapolated"),
            PoseSource::Unavailable => obs.incr("harness.pose_unavailable"),
        }
        if let Some((dt_err, _)) = pose_error {
            obs.observe("harness.pose_error_t_m", dt_err);
        }

        // Perception: cooperative fusion needs both a delivered frame and
        // a pose to place it with; anything less is ego-only.
        let link_pose = if delivered { pose } else { None };
        let (detections, _) =
            fusion.run_frame_link_observed(pair, link_pose.as_ref(), fusion_rng, obs);

        FrameOutcome {
            index,
            time: t,
            link_state,
            delivered,
            link_latency,
            pose_source,
            pose,
            pose_error,
            cooperative: link_pose.is_some(),
            detections: detections.len(),
        }
    }
}

struct TickInputs<'a> {
    index: usize,
    pair: &'a FramePair,
    ego_frame: &'a PerceptionFrame,
    received: Option<(PerceptionFrame, f64)>,
    link_state: PeerState,
    aligner: &'a BbAlign,
    fusion: &'a FusionExperiment,
    tracker: &'a mut PoseTracker,
    fusion_rng: &'a mut StdRng,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bba_bev::BevConfig;

    /// A fast configuration mirroring the bench crate's test pool.
    pub fn test_config(frames: usize, seed: u64) -> HarnessConfig {
        let mut engine = BbAlignConfig {
            bev: BevConfig { range: 102.4, resolution: 1.6 }, // 128²
            min_inliers_bv: 10,
            ..BbAlignConfig::default()
        };
        engine.descriptor.patch_size = 24;
        engine.descriptor.grid_size = 4;
        HarnessConfig {
            frames,
            seed,
            dataset: DatasetConfig::test_small(),
            engine,
            ..HarnessConfig::default()
        }
    }

    #[test]
    fn lossless_loop_recovers_every_frame() {
        let mut cfg = test_config(3, 41);
        cfg.channel = ChannelConfig::ideal();
        let report = V2vHarness::new(cfg).run();
        assert_eq!(report.outcomes.len(), 3);
        assert!((report.delivered_rate() - 1.0).abs() < 1e-12);
        for o in &report.outcomes {
            assert!(o.delivered);
            assert!(o.cooperative);
            assert_eq!(o.link_latency, Some(0.0));
        }
        assert!(report.recovered_rate() > 0.5, "urban frames should mostly recover");
    }

    #[test]
    fn dead_link_degrades_to_ego_only() {
        let mut cfg = test_config(3, 42);
        cfg.channel = ChannelConfig { loss: 1.0, ..ChannelConfig::urban() };
        let report = V2vHarness::new(cfg).run();
        assert_eq!(report.outcomes.len(), 3);
        for o in &report.outcomes {
            assert!(!o.delivered);
            assert!(!o.cooperative, "nothing arrived, nothing to fuse");
            assert_eq!(o.pose_source, PoseSource::Unavailable);
            assert_eq!(o.link_state, PeerState::Discovering);
        }
        assert_eq!(report.receiver.messages_delivered, 0);
        assert!(report.transmitter.messages_abandoned > 0, "retry budget must give up");
    }

    #[test]
    fn run_is_deterministic_for_a_seed() {
        let cfg = || {
            let mut c = test_config(4, 43);
            c.channel = ChannelConfig::urban().with_loss(0.25);
            c
        };
        let a = V2vHarness::new(cfg()).run();
        let b = V2vHarness::new(cfg()).run();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.forward, b.forward);
        assert_eq!(a.receiver, b.receiver);
    }
}
