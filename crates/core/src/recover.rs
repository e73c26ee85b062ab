//! The two-stage recovery algorithm (paper Algorithm 1).

use crate::config::BbAlignConfig;
use crate::frame::{FrameBox, FrameFeatures, PerceptionFrame};
use crate::wire::DecodeError;
use bba_bev::{BevConfig, BevImage};
use bba_features::{
    detect_keypoints, match_sets, ransac_rigid, DescriptorSet, Keypoint, MatchPool, PatchSamples,
    RansacError, RansacResult, RotationSweep, REBIN_GROUP,
};
use bba_geometry::{BevBox, Box3, Iso2, Iso3, Vec2, Vec3};
use bba_obs::Recorder;
use bba_signal::{FftWorkspace, LogGaborBank, MaxIndexMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

/// Stage-1 result: the BV image-matching alignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BvMatch {
    /// Coarse alignment `T_bv` in metres (other → ego).
    pub transform: Iso2,
    /// The same transform in pixel coordinates (diagnostics).
    pub transform_pixels: Iso2,
    /// RANSAC inlier count — the paper's `Inliers_bv`.
    pub inliers: usize,
    /// Number of descriptor matches fed to RANSAC.
    pub matches: usize,
    /// Keypoints detected on the ego / other BV image.
    pub keypoints: (usize, usize),
}

/// Stage-2 result: the box-corner refinement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoxAlignment {
    /// Refinement `T_box` in metres (applied after `T_bv`).
    pub transform: Iso2,
    /// RANSAC inlier count over corner correspondences — `Inliers_box`.
    pub inliers: usize,
    /// Number of overlapping box pairs used.
    pub box_pairs: usize,
}

/// The full recovery output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recovery {
    /// The recovered relative pose `T_2D = T_box × T_bv` (other → ego).
    pub transform: Iso2,
    /// The 3-D homogeneous lift of the paper's Eq. (1) (`t_z = 0`).
    pub transform_3d: Iso3,
    /// Stage-1 diagnostics.
    pub bv: BvMatch,
    /// Stage-2 diagnostics (`None` when disabled or when
    /// [`BbAlign::align_boxes`] found no refinement — the recovery then
    /// falls back to stage 1 alone).
    pub box_alignment: Option<BoxAlignment>,
    /// The success thresholds this recovery was judged against.
    thresholds: (usize, usize),
}

impl Recovery {
    /// The paper's empirical success criterion:
    /// `Inliers_bv > 25 ∧ Inliers_box > 6` (configurable thresholds).
    pub fn is_success(&self) -> bool {
        self.bv.inliers > self.thresholds.0
            && self.box_alignment.as_ref().is_some_and(|b| b.inliers > self.thresholds.1)
    }

    /// Stage-1 inlier count (`Inliers_bv`).
    pub fn inliers_bv(&self) -> usize {
        self.bv.inliers
    }

    /// Stage-2 inlier count (`Inliers_box`; 0 when stage 2 did not run).
    pub fn inliers_box(&self) -> usize {
        self.box_alignment.as_ref().map_or(0, |b| b.inliers)
    }
}

/// Which path produced a [`WarmRecovery`] — see [`BbAlign::recover_warm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryPath {
    /// The tracker-predicted transform passed direct verification; stage 1
    /// (MIM / detect / describe / match / RANSAC) was skipped entirely.
    WarmStart,
    /// A prediction existed but failed verification: the plain cold
    /// pipeline ran, bit-identical to [`BbAlign::recover`].
    ColdFallback,
    /// No usable prediction: the plain cold pipeline ran, bit-identical
    /// to [`BbAlign::recover`].
    Cold,
}

/// A [`Recovery`] annotated with the path that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmRecovery {
    /// The recovery result (same invariants as [`BbAlign::recover`]'s).
    pub recovery: Recovery,
    /// Which path produced it.
    pub path: RecoveryPath,
}

/// Fixed seed for the stage-2 residual check inside warm verification: the
/// check runs on its own RNG so the caller's stream is untouched and the
/// cold fallback stays bit-identical to [`BbAlign::recover`].
const WARM_VERIFY_SEED: u64 = 0xBBA1_16D0_57A2_7EED;

/// Absolute floor on the coarse-to-fine BEV alignment score (a fraction
/// of the other image's mapped cells) that a tracker-predicted transform
/// must clear, both as proposed and after stage-2 refinement, for
/// [`BbAlign::recover_warm`] to consider it. The floor only rules out
/// hopeless predictions; the discriminating check is the peak-sharpness
/// gate ([`WARM_SHARPNESS`]), because the absolute score a true pose
/// reaches varies with scene density and raster resolution.
const WARM_MIN_ALIGNMENT: f64 = 0.25;

/// Peak-sharpness factor for warm verification: the refined transform's
/// alignment score must exceed every ±[`WARM_DECOY_OFFSET_M`] decoy score
/// by this ratio. The absolute score a true transform can reach varies
/// with scene density and raster resolution (≈0.40 on dense urban scenes,
/// ≈0.55 on sparse ones — visibility asymmetry caps it), but a true pose
/// is always a *sharp peak* of the score field (measured ≥1.2× its
/// neighbours) while a stale or aliased pose sits on the plateau (≈1.0×),
/// so the ratio separates where no absolute bar can.
const WARM_SHARPNESS: f64 = 1.1;

/// Minimum translation offset (m) of the four decoy transforms probed by
/// the warm sharpness check. The effective offset is
/// `max(WARM_DECOY_OFFSET_M, WARM_DECOY_OFFSET_CELLS × resolution)`: it
/// must clear the scorer's one-cell dilation by the same margin at every
/// raster, or coarse rasters would leave the decoys inside the true
/// peak's own support and fail sharp poses.
const WARM_DECOY_OFFSET_M: f64 = 3.0;

/// Decoy offset in BEV cells (see [`WARM_DECOY_OFFSET_M`]): one cell of
/// dilation plus three cells of clearance.
const WARM_DECOY_OFFSET_CELLS: f64 = 4.0;

/// Maximum number of idle scratch buffers (FFT workspaces, stage-1
/// describe scratch) the engine retains between recoveries. `take` beyond
/// the retained set allocates fresh scratch (a counted *miss*) and
/// returning scratch to a full pool drops it (a counted *drop*), so this
/// caps steady-state memory without ever blocking a caller — the property
/// a service multiplexing many concurrent sessions over one shared engine
/// relies on. 16 is at least the engine's in-flight scratch at the
/// default thread budgets.
const POOL_CAPACITY: usize = 16;

/// Failure modes of the recovery pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoverError {
    /// A BV image yielded no keypoints (e.g. a featureless open area).
    NoKeypoints {
        /// Which side was featureless: `"ego"` or `"other"`.
        side: &'static str,
    },
    /// No rotation hypothesis gave two descriptor matches within the
    /// matcher's distance cap.
    NoMatches,
    /// Stage-1 RANSAC found no consensus.
    NoConsensus(RansacError),
    /// A frame was rasterised at a BV geometry other than the engine's
    /// ([`BbAlignConfig::bev`]).
    GeometryMismatch,
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::NoKeypoints { side } => {
                write!(f, "no keypoints detected on the {side} BV image")
            }
            RecoverError::NoMatches => write!(f, "no descriptor matches between BV images"),
            RecoverError::NoConsensus(e) => write!(f, "stage-1 registration failed: {e}"),
            RecoverError::GeometryMismatch => {
                write!(f, "perception frame uses a BV geometry other than the engine's")
            }
        }
    }
}

impl Error for RecoverError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RecoverError::NoConsensus(e) => Some(e),
            _ => None,
        }
    }
}

/// The BB-Align pose-recovery engine.
///
/// Construction is cheap; the Log-Gabor filter bank is built lazily on
/// first use and cached (it depends only on the BV image size).
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct BbAlign {
    config: BbAlignConfig,
    bank: OnceLock<LogGaborBank>,
    /// Precomputed rotation-hypothesis binning tables (angle → offset→cell
    /// lookup); configuration-only, so built once and shared.
    sweep: OnceLock<RotationSweep>,
    /// Pool of FFT scratch workspaces, recycled across frames so the
    /// steady-state MIM computation allocates nothing per frame. Exactly
    /// one is taken per MIM computed (a frame's features on first use), so
    /// the `pool.workspace.*` hit + miss count is the number of MIMs.
    /// Retention is bounded by [`POOL_CAPACITY`]; overflow buffers are
    /// dropped, and hit/miss/drop counts surface through the recorder as
    /// `pool.workspace.*` counters.
    workspaces: crate::pool::BoundedPool<FftWorkspace>,
    /// Pool of stage-1 describe scratch (a patch-sample buffer + one
    /// re-bin group of descriptor sets), recycled for the same reason; one
    /// is in flight per lockstep stage 1, whatever its number of lanes.
    /// Bounded like the workspace pool, with `pool.stage1.*` counters.
    stage1_scratch: crate::pool::BoundedPool<Stage1Scratch>,
    /// Observability sink (disabled by default — and then free). Records
    /// per-phase spans, per-recovery distributions (keypoints, matches,
    /// inliers, stage-2 residuals) and success/failure counters; it
    /// never influences results, only observes them.
    obs: Recorder,
}

/// Reusable stage-1 buffers, one set per lockstep stage 1 in flight: the
/// hypothesis-invariant patch samples of the sending frame and the
/// descriptor sets one re-bin group fills. The ego side's descriptors are
/// a per-frame product kept by the frame; its samples pass through
/// `samples` once, when they are first computed.
#[derive(Debug, Default)]
struct Stage1Scratch {
    samples: PatchSamples,
    group: [DescriptorSet; REBIN_GROUP],
}

/// Milliseconds elapsed since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One request of a [`BbAlign::recover_group`] call: a receiving
/// vehicle's frame, its tracker's prediction, and the RNG its recovery
/// draws from, as the lone [`BbAlign::recover_warm`] call would take them.
#[derive(Debug)]
pub struct RecoveryRequest<'a, R: ?Sized> {
    /// The receiving vehicle's own frame, the pair's ego side.
    pub ego: &'a PerceptionFrame,
    /// The predicted other → ego transform, read only under `warm_start`.
    pub predicted: Option<&'a Iso2>,
    /// The recovery's RNG stream.
    pub rng: &'a mut R,
}

/// Milliseconds one stage 1 spent by phase, its share of the work shared
/// with the other lanes of its group included, and in all (`total`); a
/// phase counts only work done, so features read from a frame's slot
/// cost 0 ms.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseTimes {
    mim: f64,
    detect: f64,
    describe: f64,
    matching: f64,
    ransac: f64,
    total: f64,
}

impl PhaseTimes {
    /// The five phases' sum.
    fn phases(&self) -> f64 {
        self.mim + self.detect + self.describe + self.matching + self.ransac
    }
}

/// Splits `ms` of shared work evenly over the lanes `on` selects, adding
/// each share to the phase `phase` picks.
fn share(times: &mut [PhaseTimes], on: &[bool], ms: f64, phase: fn(&mut PhaseTimes) -> &mut f64) {
    let n = on.iter().filter(|&&x| x).count();
    for (t, _) in times.iter_mut().zip(on).filter(|(_, &x)| x) {
        *phase(t) += ms / n as f64;
    }
}

/// One lane's rotation sweep: what a lone stage 1 keeps from hypothesis to
/// hypothesis.
struct LaneSweep<'s> {
    ego_set: &'s DescriptorSet,
    /// `ego_set` packed for the matcher, once for the whole sweep.
    pool: MatchPool,
    /// Keypoints detected on the ego / sending frame.
    keypoints: (usize, usize),
    /// The best RANSAC result so far and its match count.
    best: Option<(RansacResult, usize)>,
    swept: usize,
    pruned: usize,
    any_descriptors: bool,
    any_matches: bool,
    last_ransac_err: Option<RansacError>,
    /// The `strong` exit fired: later hypotheses are skipped.
    done: bool,
}

impl<'s> LaneSweep<'s> {
    fn new(ego_set: &'s DescriptorSet, pool: MatchPool, keypoints: (usize, usize)) -> Self {
        LaneSweep {
            ego_set,
            pool,
            keypoints,
            best: None,
            swept: 0,
            pruned: 0,
            any_descriptors: false,
            any_matches: false,
            last_ransac_err: None,
            done: false,
        }
    }

    /// Hypothesis `k`, whose sending-frame descriptors are `other_set`:
    /// match, RANSAC and keep the best.
    ///
    /// The sweep keeps the best RANSAC result so far; a later hypothesis
    /// replaces it on a tie, as a last-maximum pick over all of them would.
    /// A hypothesis whose consensus bound (the most inliers any rigid
    /// transform could reach on its matches) is below both the best count
    /// so far and the smallest count that fires the `strong` exit can
    /// neither win nor end the sweep, so its RANSAC is skipped; the skipped
    /// call still advances `rng` exactly as the full one would, so every
    /// later draw — later hypotheses, stage 2 — is unchanged (DESIGN.md →
    /// *Sweep pruning*).
    fn step<R: Rng + ?Sized>(
        &mut self,
        k: usize,
        other_set: &DescriptorSet,
        cfg: &BbAlignConfig,
        rng: &mut R,
        t: &mut PhaseTimes,
    ) {
        self.swept = k + 1;
        if other_set.is_empty() {
            return;
        }
        self.any_descriptors = true;
        let t0 = Instant::now();
        let matches = match_sets(other_set, &self.pool, &cfg.matcher);
        t.matching += ms_since(t0);
        if matches.len() < 2 {
            return;
        }
        self.any_matches = true;
        let pix = |kp: &Keypoint| Vec2::new(kp.u as f64 + 0.5, kp.v as f64 + 0.5);
        let src: Vec<Vec2> = matches.iter().map(|m| pix(other_set.keypoint(m.src))).collect();
        let dst: Vec<Vec2> = matches.iter().map(|m| pix(self.ego_set.keypoint(m.dst))).collect();
        // `strong`: the consensus clears the success threshold AND explains
        // at least half the matches. With two candidates per keypoint (the
        // default `keep_top_k = 2`) usually at most half the matches can be
        // true, so this rarely fires and the sweep usually visits every
        // hypothesis.
        let strong_min = (cfg.min_inliers_bv + 1).max(matches.len().div_ceil(2));
        let floor = self.best.as_ref().map_or(0, |(b, _)| b.num_inliers.min(strong_min));

        let t0 = Instant::now();
        let outcome = ransac_rigid(&src, &dst, floor, &cfg.ransac_bv, rng);
        t.ransac += ms_since(t0);
        match outcome {
            Ok(result) => {
                self.done = result.num_inliers >= strong_min;
                if self.best.as_ref().is_none_or(|(b, _)| result.num_inliers >= b.num_inliers) {
                    self.best = Some((result, matches.len()));
                }
            }
            Err(RansacError::Pruned { .. }) => self.pruned += 1,
            Err(e) => self.last_ransac_err = Some(e),
        }
    }

    /// The sweep's best result and its match count, or why there is none.
    fn best(self) -> Result<(RansacResult, usize), RecoverError> {
        self.best.ok_or_else(|| {
            if !self.any_descriptors {
                RecoverError::NoKeypoints { side: "other" }
            } else if !self.any_matches {
                RecoverError::NoMatches
            } else {
                RecoverError::NoConsensus(
                    self.last_ransac_err
                        .unwrap_or(RansacError::NoConsensus { best: 0, required: 2 }),
                )
            }
        })
    }
}

impl BbAlign {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`BbAlignConfig::validate`]).
    pub fn new(config: BbAlignConfig) -> Self {
        config.validate();
        BbAlign {
            config,
            bank: OnceLock::new(),
            sweep: OnceLock::new(),
            workspaces: crate::pool::BoundedPool::new(
                POOL_CAPACITY,
                "pool.workspace.hits",
                "pool.workspace.misses",
                "pool.workspace.dropped",
            ),
            stage1_scratch: crate::pool::BoundedPool::new(
                POOL_CAPACITY,
                "pool.stage1.hits",
                "pool.stage1.misses",
                "pool.stage1.dropped",
            ),
            obs: Recorder::disabled(),
        }
    }

    /// Installs an observability recorder (builder style). With an enabled
    /// recorder every recovery emits hierarchical timing spans
    /// (`recover/stage1/mim` … `recover/stage2`), per-recovery
    /// distributions (keypoints, matches, inliers, stage-2 residuals) and
    /// success/failure counters; with the default disabled recorder the
    /// instrumentation short-circuits and the hot path stays
    /// allocation-free. Recorded timings never feed back into the
    /// algorithm, so results are bit-identical either way.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.obs = recorder;
        // Pin the active SIMD dispatch into every metrics snapshot (1 =
        // AVX2, 0 = portable) so perf artifacts recorded on different
        // hosts stay comparable.
        self.obs.gauge(
            "simd.dispatch_avx2",
            match bba_simd::active() {
                bba_simd::Dispatch::Avx2 => 1.0,
                bba_simd::Dispatch::Portable => 0.0,
            },
        );
        self
    }

    /// The engine's observability recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// The engine configuration.
    pub fn config(&self) -> &BbAlignConfig {
        &self.config
    }

    fn bank(&self) -> &LogGaborBank {
        self.bank.get_or_init(|| {
            let h = self.config.bev.image_size();
            LogGaborBank::new(h, h)
        })
    }

    fn sweep(&self) -> &RotationSweep {
        self.sweep.get_or_init(|| {
            let hypotheses = self.config.rotation_hypotheses.max(1);
            let angles: Vec<f64> = (0..hypotheses)
                .map(|k| k as f64 * std::f64::consts::TAU / hypotheses as f64)
                .collect();
            RotationSweep::new(&self.config.descriptor, &angles)
        })
    }

    /// Builds a transmissible [`PerceptionFrame`] from raw sensor-frame
    /// points and detected 3-D boxes with confidences. Detector-agnostic:
    /// any source of `(Box3, confidence)` works.
    pub fn frame_from_parts(
        &self,
        points: impl IntoIterator<Item = Vec3>,
        boxes: impl IntoIterator<Item = (Box3, f64)>,
    ) -> PerceptionFrame {
        let bev = BevImage::rasterize(points, &self.config.bev, self.config.bev_mode);
        let boxes = boxes
            .into_iter()
            .map(|(b, confidence)| FrameBox { bev: b.to_bev(), confidence })
            .collect();
        PerceptionFrame::new(bev, boxes)
    }

    /// Decodes a peer's payload ([`wire::encode_frame`](crate::wire::encode_frame))
    /// for this engine: the header checks of
    /// [`wire::decode_frame`](crate::wire::decode_frame), then
    /// [`DecodeError::ForeignGeometry`] when the declared raster geometry
    /// differs from [`BbAlignConfig::bev`], before anything is allocated
    /// for the raster. A frame it returns never fails recovery with
    /// [`RecoverError::GeometryMismatch`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on a payload the free decoder rejects, or
    /// on a foreign raster geometry.
    pub fn decode_frame(&self, bytes: &[u8]) -> Result<PerceptionFrame, DecodeError> {
        crate::wire::decode(bytes, Some(&self.config.bev))
    }

    /// Extracts a global place descriptor for `frame` (see `bba-place`)
    /// from the frame's stage-1 MIM. The MIM and keypoints are computed on
    /// first use and kept by the frame, so a frame whose descriptor is
    /// extracted before recovery pays for its MIM once, not once more per
    /// pair.
    ///
    /// # Panics
    ///
    /// Panics if `frame` was rasterised at a BV geometry other than the
    /// engine's ([`BbAlignConfig::bev`]).
    pub fn place_descriptor(
        &self,
        frame: &PerceptionFrame,
        config: &bba_place::PlaceConfig,
    ) -> bba_place::PlaceDescriptor {
        let _span = self.obs.span("place.extract");
        let features = self
            .features(frame, &mut PhaseTimes::default())
            .expect("place descriptors need a frame rasterised at the engine's BV geometry");
        bba_place::PlaceDescriptor::from_mim(&features.mim, config)
    }

    /// The stage-1 features of `frame` under this engine's configuration:
    /// read from the frame's slot, or computed and stored there on first
    /// use. A slot already filled under another configuration is left as
    /// it is; this engine then computes its own features and does not
    /// keep them. Counts `features.computed` or `features.reused`.
    ///
    /// The geometry check lives here, where features are computed: the
    /// filter bank and the pixel-to-metre conversion are built for the
    /// engine's raster, so a frame rasterised at any other geometry is
    /// rejected even when both frames of a pair agree with each other.
    fn features<'f>(
        &self,
        frame: &'f PerceptionFrame,
        cost: &mut PhaseTimes,
    ) -> Result<Cow<'f, FrameFeatures>, RecoverError> {
        if frame.bev().config() != &self.config.bev {
            return Err(RecoverError::GeometryMismatch);
        }
        let mut computed = false;
        let features = frame.features().get_or_init(|| {
            computed = true;
            self.compute_features(frame, cost)
        });
        if computed || features.config == self.config {
            self.obs.incr(if computed { "features.computed" } else { "features.reused" });
            return Ok(Cow::Borrowed(features));
        }
        self.obs.incr("features.computed");
        Ok(Cow::Owned(self.compute_features(frame, cost)))
    }

    /// Computes `frame`'s MIM (on one pooled workspace) and keypoints.
    fn compute_features(&self, frame: &PerceptionFrame, cost: &mut PhaseTimes) -> FrameFeatures {
        let cfg = &self.config;
        let bank = self.bank();
        let t = Instant::now();
        let mut ws = self.workspaces.take(&self.obs);
        let mim = MaxIndexMap::compute_with_workspace(frame.bev().grid(), bank, &mut ws);
        self.workspaces.put(ws, &self.obs);
        cost.mim += ms_since(t);

        let t = Instant::now();
        let keypoints = match cfg.keypoint_source {
            crate::config::KeypointSource::BvImage => {
                detect_keypoints(frame.bev().grid(), &cfg.keypoints)
            }
            crate::config::KeypointSource::MimAmplitude => {
                let max = mim.amplitude.max_value();
                if max <= 0.0 {
                    Vec::new()
                } else {
                    detect_keypoints(&mim.amplitude.map(|&a| a / max), &cfg.keypoints)
                }
            }
        };
        cost.detect += ms_since(t);
        FrameFeatures { config: cfg.clone(), mim, keypoints, ego_set: OnceLock::new() }
    }

    /// `features`' descriptors at rotation hypothesis 0 — how the ego side
    /// is matched — computed through `samples` on the frame's first use as
    /// ego.
    fn ego_set<'a>(
        &self,
        features: &'a FrameFeatures,
        samples: &mut PatchSamples,
    ) -> &'a DescriptorSet {
        features.ego_set.get_or_init(|| {
            samples.sample(&features.mim, &features.keypoints, self.sweep());
            let mut set = DescriptorSet::default();
            samples.rebin_group(self.sweep(), 0, std::slice::from_mut(&mut set));
            set
        })
    }

    /// Stage 1: BV image matching (Algorithm 1, lines 5–11).
    ///
    /// Returns the coarse other→ego alignment: a lockstep stage 1 of one
    /// (see [`BbAlign::recover_group`]), with its `stage1` spans filed
    /// under the caller's open span.
    ///
    /// # Errors
    ///
    /// Returns [`RecoverError`] when keypoints, matches or RANSAC consensus
    /// are missing — the paper's "insufficient landmarks" failure regime —
    /// and [`RecoverError::GeometryMismatch`] when either frame was
    /// rasterised at a BV geometry other than the engine's.
    pub fn match_bv<R: Rng + ?Sized>(
        &self,
        ego: &PerceptionFrame,
        other: &PerceptionFrame,
        rng: &mut R,
    ) -> Result<BvMatch, RecoverError> {
        let mut request = RecoveryRequest { ego, predicted: None, rng };
        let (bv, times) =
            self.stage1_group(other, &mut [&mut request]).pop().expect("one result per lane");
        self.file_stage1(&times, bv.is_ok());
        bv
    }

    /// The one stage-1 body: the cold stage 1 of every lane, each lane's
    /// ego frame against the one sending frame `other`, swept in lockstep.
    /// A lane is a request's ego frame and RNG; its prediction is not read.
    ///
    /// The sending frame is sampled once and each group of
    /// [`REBIN_GROUP`] rotation hypotheses is re-binned once, ahead of
    /// every lane's matching at those hypotheses. Everything else is the
    /// lane's own: its ego set and the pool packed from it once, its
    /// matches, RANSAC calls and RNG draws, its pruning floor, its best
    /// result and its `strong` exit. A lane sees exactly the inputs and
    /// draws it would see alone, in the same order, so its result is bit
    /// for bit its lone stage 1's (DESIGN.md → *One sweep per sending
    /// frame*).
    ///
    /// Returns each lane's result and phase times. A lane's times are its
    /// own work plus an even share of the shared work among the lanes it
    /// served: the sending frame's features among the lanes that needed
    /// them, its sample pass among the lanes that swept, each re-bin group
    /// among the lanes still sweeping, the unattributed rest among all
    /// lanes. So the times of a group sum to its work. Counts
    /// `stage1.failures`, `stage1.sweeps` and
    /// `stage1.ego_sets_from_sweep` and, per completed lane, the sweep
    /// counters and per-recovery figures.
    fn stage1_group<R: Rng + ?Sized>(
        &self,
        other: &PerceptionFrame,
        lanes: &mut [&mut RecoveryRequest<'_, R>],
    ) -> Vec<(Result<BvMatch, RecoverError>, PhaseTimes)> {
        let start = Instant::now();
        let cfg = &self.config;
        let sweep = self.sweep();
        let mut times = vec![PhaseTimes::default(); lanes.len()];
        let mut scratch = self.stage1_scratch.take(&self.obs);
        let Stage1Scratch { samples, group } = &mut scratch;

        // Per-frame features: the MIM (needed for descriptors, and by
        // default also as the keypoint-detection image) and the keypoints,
        // computed on a frame's first use and read from its slot after;
        // each ego's, then the sending frame's once for the lanes whose
        // ego has them.
        let egos: Vec<_> =
            lanes.iter().zip(&mut times).map(|(lane, t)| self.features(lane.ego, t)).collect();
        let needing: Vec<bool> = egos.iter().map(Result::is_ok).collect();
        let mut cost = PhaseTimes::default();
        let other_features = needing.contains(&true).then(|| self.features(other, &mut cost));
        share(&mut times, &needing, cost.mim, |t| &mut t.mim);
        share(&mut times, &needing, cost.detect, |t| &mut t.detect);

        // Each lane's checks in a lone stage 1's order, then its ego set
        // (binned once at hypothesis 0 and kept by the frame) and the pool
        // packed from it. Ego sets are sampled through `samples` before the
        // sending frame's samples take it over.
        let mut sweeps: Vec<Result<LaneSweep<'_>, RecoverError>> = egos
            .iter()
            .zip(&mut times)
            .map(|(ego, t)| {
                let ego = ego.as_ref().map_err(Clone::clone)?;
                let other = other_features
                    .as_ref()
                    .expect("computed for every lane with ego features")
                    .as_ref()
                    .map_err(Clone::clone)?;
                if ego.keypoints.is_empty() {
                    return Err(RecoverError::NoKeypoints { side: "ego" });
                }
                if other.keypoints.is_empty() {
                    return Err(RecoverError::NoKeypoints { side: "other" });
                }
                let t0 = Instant::now();
                let ego_set = self.ego_set(ego, samples);
                t.describe += ms_since(t0);
                if ego_set.is_empty() {
                    return Err(RecoverError::NoKeypoints { side: "ego" });
                }
                let t0 = Instant::now();
                let pool = MatchPool::new(ego_set);
                t.matching += ms_since(t0);
                let keypoints = (ego.keypoints.len(), other.keypoints.len());
                Ok(LaneSweep::new(ego_set, pool, keypoints))
            })
            .collect();

        // Descriptors under a global rotation hypothesis (RIFT-style) rather
        // than a per-patch orientation, which view-dependent samples make
        // unstable. The sending frame is *sampled* once for the whole
        // group; per hypothesis group there is one cheap re-bin of the
        // cached samples, ahead of every lane's matching. Re-bins are pure,
        // so binning ahead changes nothing, and a lane's `strong` exit only
        // skips its own later hypotheses.
        let swept_by: Vec<bool> = sweeps.iter().map(Result::is_ok).collect();
        if let Some(Ok(other)) = other_features.as_ref().filter(|_| swept_by.contains(&true)) {
            self.obs.incr("stage1.sweeps");
            let t0 = Instant::now();
            samples.sample(&other.mim, &other.keypoints, sweep);
            share(&mut times, &swept_by, ms_since(t0), |t| &mut t.describe);
            for first in (0..sweep.hypotheses()).step_by(REBIN_GROUP) {
                let sweeping: Vec<bool> =
                    sweeps.iter().map(|s| s.as_ref().is_ok_and(|s| !s.done)).collect();
                if !sweeping.contains(&true) {
                    break;
                }
                let t0 = Instant::now();
                let sets = &mut group[..REBIN_GROUP.min(sweep.hypotheses() - first)];
                samples.rebin_group(sweep, first, sets);
                // Only the frame's own slot keeps the set; features this
                // engine computed for a slot of another configuration are
                // dropped after the call.
                if let (0, Cow::Borrowed(slot)) = (first, other) {
                    self.keep_ego_set(slot, &sets[0]);
                }
                share(&mut times, &sweeping, ms_since(t0), |t| &mut t.describe);
                // Lane by lane through the group's hypotheses, so a lane's
                // packed pool stays in cache across its matches.
                for ((lane, state), t) in lanes.iter_mut().zip(&mut sweeps).zip(&mut times) {
                    let Ok(state) = state else { continue };
                    for (k, other_set) in (first..).zip(sets.iter()) {
                        if !state.done {
                            state.step(k, other_set, cfg, &mut *lane.rng, t);
                        }
                    }
                }
            }
        }
        self.stage1_scratch.put(scratch, &self.obs);

        let results: Vec<Result<BvMatch, RecoverError>> = sweeps
            .into_iter()
            .map(|state| {
                let bv = state.and_then(|state| {
                    let (swept, pruned, keypoints) = (state.swept, state.pruned, state.keypoints);
                    let (result, matches) = state.best()?;
                    self.obs.add("stage1.hypotheses", swept as u64);
                    self.obs.add("stage1.hypotheses_pruned", pruned as u64);
                    Ok(BvMatch {
                        transform: self.pixel_to_world_transform(&result.transform),
                        transform_pixels: result.transform,
                        inliers: result.num_inliers,
                        matches,
                        keypoints,
                    })
                });
                match &bv {
                    Ok(bv) if self.obs.is_enabled() => {
                        self.obs.observe("stage1.keypoints_ego", bv.keypoints.0 as f64);
                        self.obs.observe("stage1.keypoints_other", bv.keypoints.1 as f64);
                        self.obs.observe("stage1.matches", bv.matches as f64);
                        self.obs.observe("stage1.inliers_bv", bv.inliers as f64);
                    }
                    Ok(_) => {}
                    Err(_) => self.obs.incr("stage1.failures"),
                }
                bv
            })
            .collect();
        let unattributed = ms_since(start) - times.iter().map(PhaseTimes::phases).sum::<f64>();
        let rest = unattributed.max(0.0) / times.len().max(1) as f64;
        for t in &mut times {
            t.total = t.phases() + rest;
        }
        results.into_iter().zip(times).collect()
    }

    /// Stores the sending frame's hypothesis-0 descriptors, `set`, as the
    /// ego set of its feature slot `features` when the slot has none yet:
    /// binned from the same samples under the same hypothesis, `set` is
    /// bit for bit what the frame's first use as ego would compute (the
    /// re-bin proofs cover groups of 1 to [`REBIN_GROUP`] sets). Counts
    /// `stage1.ego_sets_from_sweep`.
    fn keep_ego_set(&self, features: &FrameFeatures, set: &DescriptorSet) {
        if features.ego_set.get().is_none() && features.ego_set.set(set.clone()).is_ok() {
            self.obs.incr("stage1.ego_sets_from_sweep");
        }
    }

    /// Files one stage 1's times under the current span path: a `stage1`
    /// record always and, when it completed, one `stage1/<phase>` record
    /// per phase — one per completed stage 1, the count perfbench divides
    /// the phase totals by. A phase reads 0 ms when its work was done
    /// before (features read from a frame's slot).
    fn file_stage1(&self, t: &PhaseTimes, completed: bool) {
        if !self.obs.is_enabled() {
            return;
        }
        self.obs.record_span_ms("stage1", t.total);
        if completed {
            self.obs.record_span_ms("stage1/mim", t.mim);
            self.obs.record_span_ms("stage1/detect", t.detect);
            self.obs.record_span_ms("stage1/describe", t.describe);
            self.obs.record_span_ms("stage1/match", t.matching);
            self.obs.record_span_ms("stage1/ransac", t.ransac);
        }
    }

    /// Converts a rigid transform expressed in continuous pixel coordinates
    /// into the same transform in metres. Rotation carries over directly
    /// (the raster is a uniform similarity); the translation follows from
    /// tracking the world origin through pixel space.
    fn pixel_to_world_transform(&self, t_pix: &Iso2) -> Iso2 {
        let bev = &self.config.bev;
        let origin_pix = bev.world_to_pixel_f(Vec2::ZERO);
        let moved = bev.pixel_to_world_f(t_pix.apply(origin_pix));
        Iso2::new(t_pix.yaw(), moved)
    }

    /// Inverse of [`BbAlign::pixel_to_world_transform`]: expresses a rigid
    /// transform given in metres in continuous pixel coordinates, by
    /// tracking the pixel origin's world point through the transform.
    fn world_to_pixel_transform(&self, t_world: &Iso2) -> Iso2 {
        let bev = &self.config.bev;
        let origin_world = bev.pixel_to_world_f(Vec2::ZERO);
        let moved = bev.world_to_pixel_f(t_world.apply(origin_world));
        Iso2::new(t_world.yaw(), moved)
    }

    /// Stage 2: bounding-box corner alignment (Algorithm 1, lines 12–14).
    ///
    /// `coarse` is the stage-1 transform. Returns `None` (stage 2 is then
    /// skipped, per the fallback in [`BbAlign::recover`]) when either frame
    /// has no box of at least `box_min_confidence`, when fewer than two box
    /// pairs overlap, when stage-2 RANSAC finds no consensus, or when the
    /// correction exceeds `box_max_correction_t` or
    /// `box_max_correction_r`.
    pub fn align_boxes<R: Rng + ?Sized>(
        &self,
        ego: &PerceptionFrame,
        other: &PerceptionFrame,
        coarse: &Iso2,
        rng: &mut R,
    ) -> Option<BoxAlignment> {
        let _span = self.obs.span("stage2");
        let out = self.align_boxes_inner(ego, other, coarse, rng);
        if self.obs.is_enabled() {
            match &out {
                Some(b) => {
                    self.obs.observe("stage2.box_pairs", b.box_pairs as f64);
                    self.obs.observe("stage2.inliers_box", b.inliers as f64);
                    // The refinement magnitude is itself the stage-2
                    // residual: how far stage 1 was from the box geometry.
                    let (dt, dr) = b.transform.error_to(&Iso2::IDENTITY);
                    self.obs.observe("stage2.residual_t_m", dt);
                    self.obs.observe("stage2.residual_r_rad", dr);
                }
                None => self.obs.incr("stage2.skipped"),
            }
        }
        out
    }

    fn align_boxes_inner<R: Rng + ?Sized>(
        &self,
        ego: &PerceptionFrame,
        other: &PerceptionFrame,
        coarse: &Iso2,
        rng: &mut R,
    ) -> Option<BoxAlignment> {
        let cfg = &self.config;
        let ego_boxes: Vec<&FrameBox> = ego.confident_boxes(cfg.box_min_confidence).collect();
        let other_boxes: Vec<BevBox> = other
            .confident_boxes(cfg.box_min_confidence)
            .map(|b| b.bev.transformed(coarse))
            .collect();
        if ego_boxes.is_empty() || other_boxes.is_empty() {
            return None;
        }

        // Greedy one-to-one pairing by centre distance under the gate.
        let mut candidates: Vec<(usize, usize, f64)> = Vec::new();
        for (i, ob) in other_boxes.iter().enumerate() {
            for (j, eb) in ego_boxes.iter().enumerate() {
                let d = ob.center.distance(eb.bev.center);
                if d <= cfg.box_pair_max_distance {
                    candidates.push((i, j, d));
                }
            }
        }
        candidates.sort_by(|a, b| a.2.total_cmp(&b.2));
        let mut used_other = vec![false; other_boxes.len()];
        let mut used_ego = vec![false; ego_boxes.len()];
        let mut src = Vec::new();
        let mut dst = Vec::new();
        let mut pairs = 0usize;
        for (i, j, _) in candidates {
            if used_other[i] || used_ego[j] {
                continue;
            }
            used_other[i] = true;
            used_ego[j] = true;
            pairs += 1;
            match cfg.box_pairing {
                crate::config::BoxPairing::Corners => {
                    // Corresponding canonical corners (consistent ordering —
                    // see `bba_geometry::BevBox::canonical_corners`).
                    let co = other_boxes[i].canonical_corners();
                    let ce = ego_boxes[j].bev.canonical_corners();
                    src.extend_from_slice(&co);
                    dst.extend_from_slice(&ce);
                }
                crate::config::BoxPairing::Centers => {
                    src.push(other_boxes[i].center);
                    dst.push(ego_boxes[j].bev.center);
                }
            }
        }
        if pairs < 2 {
            return None;
        }

        let result = ransac_rigid(&src, &dst, 0, &cfg.ransac_box, rng).ok()?;
        // With few box pairs the rotation is poorly constrained by noisy
        // corners; restrict the refinement to translation (the dominant
        // self-motion-distortion component per the paper's Fig. 14).
        let transform = if pairs < cfg.box_min_pairs_for_rotation {
            let mean = result.inliers.iter().fold(Vec2::ZERO, |acc, &k| acc + (dst[k] - src[k]))
                / result.inliers.len().max(1) as f64;
            Iso2::from_translation(mean)
        } else {
            result.transform
        };
        // Physical sanity: stage 2 corrects metres-scale residuals; a
        // larger "correction" means the boxes paired up wrong.
        let (dt, dr) = transform.error_to(&Iso2::IDENTITY);
        if dt > cfg.box_max_correction_t || dr > cfg.box_max_correction_r {
            return None;
        }
        Some(BoxAlignment { transform, inliers: result.num_inliers, box_pairs: pairs })
    }

    /// Runs the full two-stage recovery (Algorithm 1): a group of one
    /// cold request (see [`BbAlign::recover_group`]).
    ///
    /// Stage-2 failure (see [`BbAlign::align_boxes`]) degrades gracefully
    /// to the stage-1 transform; such recoveries report `Inliers_box = 0`
    /// and fail [`Recovery::is_success`].
    ///
    /// # Errors
    ///
    /// Returns [`RecoverError`] when stage 1 cannot align the BV images at
    /// all.
    pub fn recover<R: Rng + ?Sized>(
        &self,
        ego: &PerceptionFrame,
        other: &PerceptionFrame,
        rng: &mut R,
    ) -> Result<Recovery, RecoverError> {
        let mut request = [RecoveryRequest { ego, predicted: None, rng }];
        let result = self.recover_group(other, &mut request, false).pop();
        result.expect("one result per request").map(|w| w.recovery)
    }

    /// Recovers every request's pose of the one sending frame `other`:
    /// the engine's entry point, of which [`BbAlign::recover`] and
    /// [`BbAlign::recover_warm`] are groups of one.
    ///
    /// With `warm_start`, each request is first what
    /// [`BbAlign::recover_warm`] makes of its prediction: a verified one
    /// answers the request without stage 1, a failed or missing one leaves
    /// the request to the cold pipeline, and every request counts one
    /// `warmstart.hit` or `warmstart.miss`. Without `warm_start`,
    /// predictions are ignored and every request recovers cold, as
    /// [`BbAlign::recover`].
    ///
    /// The cold requests share one stage 1 that samples `other` once and
    /// re-bins each group of rotation hypotheses once for all of them (see
    /// `stage1_group`), then run stage 2 in order, each on its own RNG.
    /// Every result, and every request's RNG stream, is bit for bit what
    /// the lone call for that request gives. The `recover` span of a cold
    /// request carries its share of the shared stage 1 plus its own stage
    /// 2.
    ///
    /// # Errors
    ///
    /// Each request fails on its own, as its lone call would.
    pub fn recover_group<R: Rng + ?Sized>(
        &self,
        other: &PerceptionFrame,
        requests: &mut [RecoveryRequest<'_, R>],
        warm_start: bool,
    ) -> Vec<Result<WarmRecovery, RecoverError>> {
        let mut out: Vec<Option<Result<WarmRecovery, RecoverError>>> = vec![None; requests.len()];
        if warm_start {
            for (slot, request) in out.iter_mut().zip(requests.iter()) {
                let Some(predicted) = request.predicted else {
                    self.obs.incr("warmstart.miss");
                    self.obs.incr("warmstart.miss.no_prediction");
                    continue;
                };
                if let Some(recovery) = self.warm_start(request.ego, other, predicted) {
                    *slot = Some(Ok(WarmRecovery { recovery, path: RecoveryPath::WarmStart }));
                }
            }
        }
        let (slots, mut lanes): (Vec<usize>, Vec<&mut RecoveryRequest<'_, R>>) =
            requests.iter_mut().enumerate().filter(|(i, _)| out[*i].is_none()).unzip();
        let paths: Vec<RecoveryPath> = lanes
            .iter()
            .map(|r| match r.predicted {
                Some(_) if warm_start => RecoveryPath::ColdFallback,
                _ => RecoveryPath::Cold,
            })
            .collect();
        let cold = self.recover_cold(other, &mut lanes);
        for ((slot, path), result) in slots.into_iter().zip(paths).zip(cold) {
            out[slot] = Some(result.map(|recovery| WarmRecovery { recovery, path }));
        }
        out.into_iter().map(|r| r.expect("every request answered")).collect()
    }

    /// The cold pipeline of a lockstep group: the shared stage 1, then
    /// each lane's stage 2 on its own RNG, under one `recover` span per
    /// lane. A lane's prediction is not read, so each result, and the RNG
    /// stream it leaves, is the lone [`BbAlign::recover`]'s.
    fn recover_cold<R: Rng + ?Sized>(
        &self,
        other: &PerceptionFrame,
        lanes: &mut [&mut RecoveryRequest<'_, R>],
    ) -> Vec<Result<Recovery, RecoverError>> {
        let stage1 = self.stage1_group(other, lanes);
        lanes
            .iter_mut()
            .zip(stage1)
            .map(|(lane, (bv, times))| {
                let mut span = self.obs.span("recover");
                span.add_ms(times.total);
                self.obs.incr("recover.calls");
                self.file_stage1(&times, bv.is_ok());
                let bv = bv.inspect_err(|_| self.obs.incr("recover.failures"))?;
                let box_alignment = if self.config.box_alignment {
                    self.align_boxes(lane.ego, other, &bv.transform, &mut *lane.rng)
                } else {
                    None
                };
                let transform = match &box_alignment {
                    Some(b) => b.transform.compose(&bv.transform),
                    None => bv.transform,
                };
                let recovery = Recovery {
                    transform,
                    transform_3d: Iso3::from_iso2(&transform, 0.0),
                    bv,
                    box_alignment,
                    thresholds: (self.config.min_inliers_bv, self.config.min_inliers_box),
                };
                if recovery.is_success() {
                    self.obs.incr("recover.success");
                }
                Ok(recovery)
            })
            .collect()
    }

    /// Temporal warm start: recovery seeded by a tracker-predicted
    /// transform (see `PoseTracker::warm_prediction`); a group of one
    /// request under `warm_start` (see [`BbAlign::recover_group`]).
    ///
    /// With a usable prediction the engine first *verifies it directly* —
    /// a coarse-to-fine occupancy screen against a fixed alignment-score
    /// floor, then the stage-2 box-alignment residual check, then the
    /// screen again on the refined transform plus a peak-sharpness test
    /// (the refined pose must beat four ±3 m decoy transforms — true poses
    /// are sharp maxima of the score field, stale and aliased poses sit on
    /// its plateau). On pass, the call returns a successful
    /// [`RecoveryPath::WarmStart`] recovery having skipped MIM / detect /
    /// describe / match / RANSAC entirely. On fail, the plain cold
    /// pipeline runs ([`RecoveryPath::ColdFallback`]), as it does without a
    /// prediction ([`RecoveryPath::Cold`]). Both fallbacks are
    /// bit-identical to [`BbAlign::recover`]: warm verification runs on a
    /// fixed-seed internal RNG, so the caller's stream reaches the cold
    /// path untouched.
    ///
    /// Every call increments exactly one of the `warmstart.hit` /
    /// `warmstart.miss` counters (so their sum counts calls);
    /// `warmstart.fallback` counts the subset of misses that had a
    /// prediction. Each miss also counts one `warmstart.miss.<cause>`:
    /// `no_prediction`, or the check the prediction failed — `geometry`
    /// (a frame at a raster other than the engine's), `no_stage2` (box
    /// alignment disabled), `occupancy` (the prediction's alignment score
    /// below the floor), `boxes` (no stage-2 refinement with more than
    /// `min_inliers_box` inliers), `refine` (the refined transform's score
    /// or cell hits too low) or `sharpness` (a decoy scored too close).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`BbAlign::recover`] (the warm path itself
    /// never fails — it falls back).
    pub fn recover_warm<R: Rng + ?Sized>(
        &self,
        ego: &PerceptionFrame,
        other: &PerceptionFrame,
        predicted: Option<&Iso2>,
        rng: &mut R,
    ) -> Result<WarmRecovery, RecoverError> {
        let mut request = [RecoveryRequest { ego, predicted, rng }];
        self.recover_group(other, &mut request, true).pop().expect("one result per request")
    }

    /// One request's warm start: its prediction verified directly, under
    /// the `warmstart.verify` span, when both frames are at the engine's
    /// geometry. Counts `warmstart.hit`, or `warmstart.miss`,
    /// `warmstart.fallback` and the miss's `warmstart.miss.<cause>` when
    /// the request falls back to the cold path.
    fn warm_start(
        &self,
        ego: &PerceptionFrame,
        other: &PerceptionFrame,
        predicted: &Iso2,
    ) -> Option<Recovery> {
        let native = |f: &PerceptionFrame| f.bev().config() == &self.config.bev;
        let verified = if native(ego) && native(other) {
            let _span = self.obs.span("warmstart.verify");
            self.verify_predicted(ego, other, predicted)
        } else {
            Err("warmstart.miss.geometry")
        };
        match verified {
            Ok(recovery) => {
                self.obs.incr("warmstart.hit");
                self.obs.observe("warmstart.inliers_bv", recovery.bv.inliers as f64);
                Some(recovery)
            }
            Err(cause) => {
                self.obs.incr("warmstart.miss");
                self.obs.incr("warmstart.fallback");
                self.obs.incr(cause);
                None
            }
        }
    }

    /// Direct verification of a predicted transform, without stage 1.
    ///
    /// Returns a fully-successful [`Recovery`] (it would pass
    /// [`Recovery::is_success`]), or the `warmstart.miss.<cause>` counter
    /// of the first check that failed. The stage-2 residual check runs on
    /// a fixed-seed RNG so the caller's stream is preserved for the cold
    /// fallback.
    fn verify_predicted(
        &self,
        ego: &PerceptionFrame,
        other: &PerceptionFrame,
        predicted: &Iso2,
    ) -> Result<Recovery, &'static str> {
        let cfg = &self.config;
        // A warm recovery must clear the same success criterion as a cold
        // one, and Inliers_box > min requires stage 2.
        if !cfg.box_alignment {
            return Err("warmstart.miss.no_stage2");
        }
        let scorer = AlignmentScorer::new(ego.bev());
        let cells = scorer.collect_occupied(other.bev());
        let check = scorer.score_cells_detail(&cells, predicted);
        self.obs.observe("warmstart.alignment", check.score);
        // Absolute floor on the raw prediction: rules out hopeless
        // predictions (a gross alias or a blown track scores well under
        // this at every raster) before paying for box alignment.
        if check.score < WARM_MIN_ALIGNMENT {
            return Err("warmstart.miss.occupancy");
        }
        // Box-alignment residual check: the boxes must agree with (and
        // refine) the prediction just as they would a stage-1 transform.
        let mut verify_rng = StdRng::seed_from_u64(WARM_VERIFY_SEED);
        let b = self
            .align_boxes(ego, other, predicted, &mut verify_rng)
            .filter(|b| b.inliers > cfg.min_inliers_box)
            .ok_or("warmstart.miss.boxes")?;
        let transform = b.transform.compose(predicted);
        let refined = scorer.score_cells_detail(&cells, &transform);
        if refined.score < WARM_MIN_ALIGNMENT || refined.hits <= cfg.min_inliers_bv {
            return Err("warmstart.miss.refine");
        }
        // Peak-sharpness gate: a true pose is a sharp local maximum of the
        // alignment-score field, while stale tracks and aliases sit on the
        // surrounding plateau. The refined transform must beat four
        // translation decoys by [`WARM_SHARPNESS`]; the absolute score a
        // true pose reaches is scene-dependent, the sharpness is not.
        let off = WARM_DECOY_OFFSET_M.max(WARM_DECOY_OFFSET_CELLS * cfg.bev.resolution);
        let sharp = [(off, 0.0), (-off, 0.0), (0.0, off), (0.0, -off)].iter().all(|&(dx, dy)| {
            let decoy = Iso2::new(transform.yaw(), transform.translation() + Vec2::new(dx, dy));
            scorer.score_cells_detail(&cells, &decoy).score * WARM_SHARPNESS < refined.score
        });
        if !sharp {
            return Err("warmstart.miss.sharpness");
        }
        let bv = BvMatch {
            transform: *predicted,
            transform_pixels: self.world_to_pixel_transform(predicted),
            // Warm recoveries carry cell-level consensus: the occupied
            // cells the verified transform lands on the dilated ego mask.
            inliers: refined.hits,
            matches: 0,
            keypoints: (0, 0),
        };
        let recovery = Recovery {
            transform,
            transform_3d: Iso3::from_iso2(&transform, 0.0),
            bv,
            box_alignment: Some(b),
            thresholds: (cfg.min_inliers_bv, cfg.min_inliers_box),
        };
        debug_assert!(recovery.is_success());
        Ok(recovery)
    }
}

/// Global BEV occupancy alignment scoring with a precomputed, shared ego
/// mask.
///
/// Keypoint inlier counts measure *local* agreement around matched
/// features; the alignment score measures *global* agreement of everything
/// both cars rasterised — the quantity that separates the true transform
/// from a locally self-similar alias.
///
/// Construction dilates the ego image's occupancy by one cell (3×3) once;
/// every subsequent score is then a single mask probe per mapped cell
/// instead of a 3×3 occupancy re-scan, which is what makes scoring many
/// candidate transforms against one ego image cheap.
///
/// Collect the other image's occupied cells once with
/// [`AlignmentScorer::collect_occupied`] and score each candidate through
/// [`AlignmentScorer::score_cells_detail`]: the full-raster sweep and the
/// `pixel_center` math are paid once instead of per candidate, and a
/// coarse 4×-downsampled block-OR of the dilated mask screens each probe
/// before touching the full-resolution mask (a coarse miss is a guaranteed
/// fine miss, so the screen cannot change the score; a test pins the score
/// to a plain raster sweep bit for bit).
#[derive(Debug, Clone)]
struct AlignmentScorer {
    bev: BevConfig,
    /// Row-major: cell `(u, v)` is true iff any ego cell within the 3×3
    /// window around it is occupied.
    dilated: Vec<bool>,
    size: usize,
    /// Block-OR of `dilated` over `COARSE`×`COARSE` tiles: a coarse cell is
    /// true iff *any* fine cell in its tile is. Superset by construction,
    /// so probing it first is an exact screen.
    coarse: Vec<bool>,
    coarse_w: usize,
}

/// Downsampling factor of the coarse screening mask.
const COARSE: usize = 4;

/// One BEV image's occupied cells as SoA world coordinates (cell centres),
/// collected once by [`AlignmentScorer::collect_occupied`] and shared
/// across every candidate transform scored against the same ego image.
#[derive(Debug, Clone)]
struct OccupiedCells {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

/// Outcome of one coarse-to-fine alignment screen
/// ([`AlignmentScorer::score_cells_detail`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct AlignmentCheck {
    /// The alignment score: the share of the other image's cells mapped
    /// inside the ego raster that land on the dilated ego occupancy, or
    /// `0.0` below the 30-cell co-visibility cutoff.
    score: f64,
    /// Mapped cells landing on the dilated ego occupancy.
    hits: usize,
}

impl AlignmentScorer {
    /// Precomputes the dilated occupancy mask of the ego image.
    fn new(ego: &BevImage) -> Self {
        let grid = ego.grid();
        let size = grid.width();
        let h = size as isize;
        let mut dilated = vec![false; size * grid.height()];
        for (v, row) in dilated.chunks_mut(size).enumerate() {
            for (u, out) in row.iter_mut().enumerate() {
                'win: for du in -1..=1isize {
                    for dv in -1..=1isize {
                        let (a, b) = (u as isize + du, v as isize + dv);
                        if a >= 0
                            && b >= 0
                            && a < h
                            && b < h
                            && grid[(a as usize, b as usize)] > 1e-9
                        {
                            *out = true;
                            break 'win;
                        }
                    }
                }
            }
        }
        let height = dilated.len().checked_div(size).unwrap_or(0);
        let coarse_w = size.div_ceil(COARSE).max(1);
        let coarse_h = height.div_ceil(COARSE).max(1);
        let mut coarse = vec![false; coarse_w * coarse_h];
        for v in 0..height {
            let row = &dilated[v * size..(v + 1) * size];
            let crow = (v / COARSE) * coarse_w;
            for (u, &d) in row.iter().enumerate() {
                if d {
                    coarse[crow + u / COARSE] = true;
                }
            }
        }
        AlignmentScorer { bev: *ego.config(), dilated, size, coarse, coarse_w }
    }

    /// Collects the world-frame centres of `other`'s occupied cells once,
    /// in raster order, for repeated scoring via
    /// [`AlignmentScorer::score_cells_detail`].
    fn collect_occupied(&self, other: &BevImage) -> OccupiedCells {
        let bev = &self.bev;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (u, v, &x) in other.grid().iter_cells() {
            if x <= 1e-9 {
                continue;
            }
            let p = bev.pixel_center(u, v);
            xs.push(p.x);
            ys.push(p.y);
        }
        OccupiedCells { xs, ys }
    }

    /// The fraction of the other image's occupied cells that land within
    /// one cell of an occupied ego cell after `transform` (cells mapping
    /// outside the ego raster are excluded from the denominator), plus the
    /// raw hit count — the warm-start verifier reads the hit count
    /// as the recovery's cell-level consensus. Evaluated over a
    /// precollected occupied-cell list with the transform's `sin_cos`
    /// hoisted out of the loop and the coarse mask screening each probe.
    fn score_cells_detail(&self, cells: &OccupiedCells, transform: &Iso2) -> AlignmentCheck {
        let bev = &self.bev;
        let h = self.size as isize;
        let (sin, cos) = transform.yaw().sin_cos();
        let t = transform.translation();
        let mut mapped = 0usize;
        let mut hits = 0usize;
        for k in 0..cells.xs.len() {
            let (x, y) = (cells.xs[k], cells.ys[k]);
            // Exactly `transform.apply(pixel_center)` with sin_cos hoisted.
            let world = Vec2::new((cos * x - sin * y) + t.x, (sin * x + cos * y) + t.y);
            let p = bev.world_to_pixel_f(world);
            let (eu, ev) = (p.x.floor() as isize, p.y.floor() as isize);
            if eu < 0 || ev < 0 || eu >= h || ev >= h {
                continue;
            }
            mapped += 1;
            let (u, v) = (eu as usize, ev as usize);
            if self.coarse[(v / COARSE) * self.coarse_w + u / COARSE]
                && self.dilated[v * self.size + u]
            {
                hits += 1;
            }
        }
        // Below 30 mapped cells there is too little co-visible content for
        // the score to mean anything.
        let score = if mapped < 30 { 0.0 } else { hits as f64 / mapped as f64 };
        AlignmentCheck { score, hits }
    }

    /// Reference for [`AlignmentScorer::score_cells_detail`]'s score: the
    /// plain raster sweep, with no cell list and no coarse screen.
    #[cfg(test)]
    fn score(&self, other: &BevImage, transform: &Iso2) -> f64 {
        let bev = &self.bev;
        let h = self.size as isize;
        let mut mapped = 0usize;
        let mut hits = 0usize;
        for (u, v, &x) in other.grid().iter_cells() {
            if x <= 1e-9 {
                continue;
            }
            let world = transform.apply(bev.pixel_center(u, v));
            let p = bev.world_to_pixel_f(world);
            let (eu, ev) = (p.x.floor() as isize, p.y.floor() as isize);
            if eu < 0 || ev < 0 || eu >= h || ev >= h {
                continue;
            }
            mapped += 1;
            if self.dilated[ev as usize * self.size + eu as usize] {
                hits += 1;
            }
        }
        if mapped < 30 {
            // Too little co-visible content for the score to mean anything.
            return 0.0;
        }
        hits as f64 / mapped as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BbAlignConfig;
    use bba_features::describe_keypoints_rotated;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthetic world landmarks: vertical structures with distinctive
    /// corners, expressed in the ego frame.
    fn landmark_points() -> Vec<Vec3> {
        let mut pts = Vec::new();
        // Three "building walls" at different heights and orientations.
        let walls: [(Vec2, Vec2, f64); 4] = [
            (Vec2::new(-12.0, 8.0), Vec2::new(-2.0, 8.0), 6.0),
            (Vec2::new(-2.0, 8.0), Vec2::new(-2.0, 15.0), 6.0),
            (Vec2::new(5.0, -10.0), Vec2::new(14.0, -6.0), 9.0),
            (Vec2::new(-14.0, -8.0), Vec2::new(-8.0, -14.0), 4.0),
        ];
        for (a, b, height) in walls {
            let n = 60;
            for k in 0..=n {
                let p = a.lerp(b, k as f64 / n as f64);
                for h in 0..6 {
                    pts.push(Vec3::from_xy(p, height * (0.5 + h as f64 / 10.0)));
                }
            }
        }
        // A few isolated "tree tops".
        for (x, y, z) in [(9.0, 9.0, 5.0), (-9.0, 1.0, 7.0), (2.0, -13.0, 6.0)] {
            for du in -1..=1 {
                for dv in -1..=1 {
                    pts.push(Vec3::new(x + du as f64 * 0.4, y + dv as f64 * 0.4, z));
                }
            }
        }
        pts
    }

    fn car_boxes() -> Vec<(Box3, f64)> {
        [
            (Vec2::new(6.0, 2.0), 0.2),
            (Vec2::new(-4.0, -5.0), -0.1),
            (Vec2::new(0.0, 10.0), 1.4),
            (Vec2::new(-10.0, 5.0), 0.05),
        ]
        .iter()
        .map(|&(c, yaw)| (Box3::new(Vec3::from_xy(c, 0.8), Vec3::new(4.5, 1.9, 1.6), yaw), 0.9))
        .collect()
    }

    /// Builds the two frames for a known relative pose `truth` (other→ego):
    /// the other car observes the same world through `truth⁻¹`.
    fn frame_pair(aligner: &BbAlign, truth: &Iso2) -> (PerceptionFrame, PerceptionFrame) {
        let inv = truth.inverse();
        let pts = landmark_points();
        let boxes = car_boxes();
        let ego = aligner.frame_from_parts(pts.iter().copied(), boxes.iter().copied());
        let other = aligner.frame_from_parts(
            pts.iter().map(|p| Vec3::from_xy(inv.apply(p.xy()), p.z)),
            boxes.iter().map(|(b, c)| (b.transformed(&inv), *c)),
        );
        (ego, other)
    }

    #[test]
    fn recovers_identity() {
        let aligner = BbAlign::new(BbAlignConfig::test_small());
        let truth = Iso2::IDENTITY;
        let (ego, other) = frame_pair(&aligner, &truth);
        let mut rng = StdRng::seed_from_u64(1);
        let r = aligner.recover(&ego, &other, &mut rng).unwrap();
        let (dt, dr) = r.transform.error_to(&truth);
        assert!(dt < 0.5, "translation error {dt}");
        assert!(dr < 0.05, "rotation error {dr}");
    }

    #[test]
    fn recovers_translation_and_rotation() {
        let aligner = BbAlign::new(BbAlignConfig::test_small());
        let truth = Iso2::new(0.35, Vec2::new(6.0, -3.0));
        let (ego, other) = frame_pair(&aligner, &truth);
        let mut rng = StdRng::seed_from_u64(2);
        let r = aligner.recover(&ego, &other, &mut rng).unwrap();
        let (dt, dr) = r.transform.error_to(&truth);
        assert!(dt < 0.8, "translation error {dt} (recovered {})", r.transform);
        assert!(dr < 0.06, "rotation error {dr}");
        assert!(r.inliers_bv() >= 6);
    }

    #[test]
    fn stage2_refines_stage1() {
        // Perturb the other car's *points* with a small rigid offset that
        // its *boxes* do not share (a self-motion-distortion surrogate):
        // stage 1 locks onto the distorted landmarks, stage 2 pulls the
        // estimate back toward the box geometry.
        let aligner = BbAlign::new(BbAlignConfig::test_small());
        let truth = Iso2::new(0.1, Vec2::new(4.0, 2.0));
        let inv = truth.inverse();
        let drift = Iso2::new(0.004, Vec2::new(0.45, -0.3)); // distortion
        let pts = landmark_points();
        let boxes = car_boxes();
        let ego = aligner.frame_from_parts(pts.iter().copied(), boxes.iter().copied());
        let other = aligner.frame_from_parts(
            pts.iter().map(|p| Vec3::from_xy(drift.apply(inv.apply(p.xy())), p.z)),
            boxes.iter().map(|(b, c)| (b.transformed(&inv), *c)),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let full = aligner.recover(&ego, &other, &mut rng).unwrap();
        assert!(full.box_alignment.is_some(), "stage 2 should engage");
        let (dt_full, _) = full.transform.error_to(&truth);
        let (dt_bv, _) = full.bv.transform.error_to(&truth);
        assert!(
            dt_full < dt_bv + 1e-9,
            "stage 2 should not hurt: full {dt_full} vs stage1 {dt_bv}"
        );
        assert!(dt_full < 0.4, "refined error {dt_full}");
    }

    #[test]
    fn ablation_config_skips_stage2() {
        let aligner = BbAlign::new(BbAlignConfig::test_small().without_box_alignment());
        let truth = Iso2::new(0.2, Vec2::new(3.0, 1.0));
        let (ego, other) = frame_pair(&aligner, &truth);
        let mut rng = StdRng::seed_from_u64(4);
        let r = aligner.recover(&ego, &other, &mut rng).unwrap();
        assert!(r.box_alignment.is_none());
        assert_eq!(r.inliers_box(), 0);
        assert!(!r.is_success(), "stage-1-only recovery cannot meet the success criterion");
    }

    #[test]
    fn empty_world_fails_cleanly() {
        let aligner = BbAlign::new(BbAlignConfig::test_small());
        let empty = aligner.frame_from_parts(std::iter::empty(), std::iter::empty());
        let mut rng = StdRng::seed_from_u64(5);
        let e = aligner.recover(&empty, &empty, &mut rng).unwrap_err();
        assert!(matches!(e, RecoverError::NoKeypoints { .. }), "{e}");
    }

    /// perfbench's `*_ms_per_stage1` divides each `stage1/<phase>` span
    /// total by its record count: one record per phase per *completed*
    /// stage 1, also when the frames' features were already computed.
    #[test]
    fn stage1_phase_spans_count_completed_stage1s() {
        let recorder = bba_obs::Recorder::enabled();
        let aligner = BbAlign::new(BbAlignConfig::test_small()).with_recorder(recorder.clone());
        let (ego, other) = frame_pair(&aligner, &Iso2::new(0.1, Vec2::new(4.0, 2.0)));
        let mut rng = StdRng::seed_from_u64(3);
        aligner.recover(&ego, &other, &mut rng).unwrap();
        // The second call reads the frames' stored features.
        aligner.recover(&ego, &other, &mut rng).unwrap();
        let empty = aligner.frame_from_parts(std::iter::empty(), std::iter::empty());
        let e = aligner.recover(&empty, &empty, &mut rng).unwrap_err();
        assert_eq!(e, RecoverError::NoKeypoints { side: "ego" });

        let snap = recorder.snapshot();
        let count = |path: &str| snap.span(path).map(|s| s.count);
        for phase in ["mim", "detect", "describe", "match", "ransac"] {
            assert_eq!(count(&format!("recover/stage1/{phase}")), Some(2), "{phase}");
        }
        assert_eq!(count("recover/stage1"), Some(3));
        assert_eq!(snap.counter("stage1.failures"), Some(1));
        for phase in ["mim", "detect"] {
            let span = snap.span(&format!("recover/stage1/{phase}")).unwrap();
            assert_eq!(span.min, 0.0, "the second {phase} read stored features");
        }
    }

    #[test]
    fn mismatched_geometry_is_rejected() {
        let small = BbAlign::new(BbAlignConfig::test_small());
        let big = BbAlign::new(BbAlignConfig::default());
        let f_small = small.frame_from_parts(landmark_points(), car_boxes());
        let f_big = big.frame_from_parts(landmark_points(), car_boxes());
        let mut rng = StdRng::seed_from_u64(6);
        let e = small.recover(&f_small, &f_big, &mut rng).unwrap_err();
        assert_eq!(e, RecoverError::GeometryMismatch);
    }

    #[test]
    fn pixel_world_transform_conversion() {
        let aligner = BbAlign::new(BbAlignConfig::test_small());
        let bev = &aligner.config().bev;
        // A known world transform, expressed in pixel space, converts back.
        let t_world = Iso2::new(0.3, Vec2::new(2.0, -1.5));
        // Build the pixel-space equivalent by conjugation with the raster
        // map: pix' = w2p(T(p2w(pix))).
        let p0 = Vec2::new(10.0, 20.0);
        let p1 = Vec2::new(100.0, 47.0);
        let map = |p: Vec2| bev.world_to_pixel_f(t_world.apply(bev.pixel_to_world_f(p)));
        let t_pix = bba_geometry::fit_rigid_2d(&[p0, p1], &[map(p0), map(p1)]).unwrap();
        let back = aligner.pixel_to_world_transform(&t_pix);
        assert!(back.approx_eq(&t_world, 1e-9, 1e-9), "{back} vs {t_world}");
    }

    #[test]
    fn world_pixel_transform_roundtrip() {
        let aligner = BbAlign::new(BbAlignConfig::test_small());
        for t in [
            Iso2::IDENTITY,
            Iso2::new(0.3, Vec2::new(2.0, -1.5)),
            Iso2::new(-1.2, Vec2::new(-40.0, 17.5)),
        ] {
            let pix = aligner.world_to_pixel_transform(&t);
            let back = aligner.pixel_to_world_transform(&pix);
            assert!(back.approx_eq(&t, 1e-9, 1e-9), "{back} vs {t}");
        }
    }

    #[test]
    fn warm_start_verifies_a_good_prediction_without_stage1() {
        let recorder = bba_obs::Recorder::enabled();
        let aligner = BbAlign::new(BbAlignConfig::test_small()).with_recorder(recorder.clone());
        let truth = Iso2::new(0.35, Vec2::new(6.0, -3.0));
        let (ego, other) = frame_pair(&aligner, &truth);
        let mut rng = StdRng::seed_from_u64(11);
        let untouched = rng.clone();
        let w = aligner.recover_warm(&ego, &other, Some(&truth), &mut rng).unwrap();
        assert_eq!(w.path, RecoveryPath::WarmStart);
        assert!(w.recovery.is_success(), "warm recoveries must clear the success criterion");
        let (dt, dr) = w.recovery.transform.error_to(&truth);
        assert!(dt < 0.8, "translation error {dt}");
        assert!(dr < 0.06, "rotation error {dr}");
        // Stage 1 never ran and the caller's RNG was never touched.
        assert_eq!(w.recovery.bv.matches, 0);
        assert_eq!(w.recovery.bv.keypoints, (0, 0));
        assert_eq!(rng, untouched);
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("warmstart.hit"), Some(1));
        assert_eq!(snap.counter("warmstart.miss"), None);
        assert_eq!(snap.counter("recover.calls"), None, "cold pipeline must not have run");
    }

    #[test]
    fn warm_miss_falls_back_bit_identically_to_cold() {
        let recorder = bba_obs::Recorder::enabled();
        let aligner = BbAlign::new(BbAlignConfig::test_small()).with_recorder(recorder.clone());
        let truth = Iso2::new(0.35, Vec2::new(6.0, -3.0));
        let (ego, other) = frame_pair(&aligner, &truth);
        // A prediction mapping everything off-raster: the screen scores 0.
        let bad = Iso2::new(0.35, Vec2::new(400.0, 400.0));
        let mut rng_warm = StdRng::seed_from_u64(21);
        let mut rng_cold = StdRng::seed_from_u64(21);
        let warm = aligner.recover_warm(&ego, &other, Some(&bad), &mut rng_warm).unwrap();
        let cold = aligner.recover(&ego, &other, &mut rng_cold).unwrap();
        assert_eq!(warm.path, RecoveryPath::ColdFallback);
        assert_eq!(warm.recovery, cold, "fallback must be bit-identical to recover");
        assert_eq!(warm.recovery.transform.yaw().to_bits(), cold.transform.yaw().to_bits());
        assert_eq!(rng_warm, rng_cold, "fallback must consume the same RNG stream");
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("warmstart.miss"), Some(1));
        assert_eq!(snap.counter("warmstart.fallback"), Some(1));
        assert_eq!(snap.counter("warmstart.miss.occupancy"), Some(1));
    }

    #[test]
    fn warm_without_prediction_is_plain_cold() {
        let recorder = bba_obs::Recorder::enabled();
        let aligner = BbAlign::new(BbAlignConfig::test_small()).with_recorder(recorder.clone());
        let truth = Iso2::new(0.2, Vec2::new(3.0, 1.0));
        let (ego, other) = frame_pair(&aligner, &truth);
        let mut rng_warm = StdRng::seed_from_u64(31);
        let mut rng_cold = StdRng::seed_from_u64(31);
        let warm = aligner.recover_warm(&ego, &other, None, &mut rng_warm).unwrap();
        let cold = aligner.recover(&ego, &other, &mut rng_cold).unwrap();
        assert_eq!(warm.path, RecoveryPath::Cold);
        assert_eq!(warm.recovery, cold);
        assert_eq!(rng_warm, rng_cold);
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("warmstart.miss"), Some(1));
        assert_eq!(snap.counter("warmstart.fallback"), None);
        assert_eq!(snap.counter("warmstart.miss.no_prediction"), Some(1));
    }

    #[test]
    fn warm_start_requires_stage2_to_be_enabled() {
        let recorder = bba_obs::Recorder::enabled();
        let aligner = BbAlign::new(BbAlignConfig::test_small().without_box_alignment())
            .with_recorder(recorder.clone());
        let truth = Iso2::new(0.2, Vec2::new(3.0, 1.0));
        let (ego, other) = frame_pair(&aligner, &truth);
        let mut rng = StdRng::seed_from_u64(41);
        let w = aligner.recover_warm(&ego, &other, Some(&truth), &mut rng).unwrap();
        // Without stage 2 a warm recovery could never clear Inliers_box,
        // so the warm path must decline and fall back.
        assert_eq!(w.path, RecoveryPath::ColdFallback);
        assert_eq!(recorder.snapshot().counter("warmstart.miss.no_stage2"), Some(1));
        // The prediction is the true pose, yet stage 1 runs as if there
        // were none: the fallback is `recover` bit for bit and leaves the
        // RNG where `recover` leaves it.
        let mut rng_cold = StdRng::seed_from_u64(41);
        let cold = aligner.recover(&ego, &other, &mut rng_cold).unwrap();
        assert_same_bits(&w.recovery, &cold);
        assert_eq!(w.recovery.bv.transform_pixels, cold.bv.transform_pixels);
        assert_eq!(rng, rng_cold, "the fallback must consume the same RNG stream");
    }

    /// The warm checks that only real traffic fails often — boxes, refine
    /// and sharpness — each count their own cause, one per miss. The other
    /// causes are pinned beside the tests of their paths.
    #[test]
    fn each_failed_warm_check_counts_its_own_miss_cause() {
        let truth = Iso2::new(0.35, Vec2::new(6.0, -3.0));
        let turned = Iso2::new(truth.yaw() + 0.1, truth.translation());
        let unreachable = BbAlignConfig { min_inliers_bv: 1 << 20, ..BbAlignConfig::test_small() };
        // Fully occupied rasters: every decoy scores what the pose does.
        let dense = |aligner: &BbAlign| {
            let (r, step) = (aligner.config().bev.range, 0.2);
            let n = (2.0 * r / step) as usize;
            let pts: Vec<Vec3> = (0..n * n)
                .map(|k| Vec3::new(step * (k / n) as f64 - r, step * (k % n) as f64 - r, 2.0))
                .collect();
            let inv = truth.inverse();
            let ego = aligner.frame_from_parts(pts.iter().copied(), car_boxes());
            let other_boxes = car_boxes().into_iter().map(|(b, c)| (b.transformed(&inv), c));
            (ego, aligner.frame_from_parts(pts, other_boxes))
        };
        let cases: [(BbAlignConfig, bool, Iso2, &str); 3] = [
            (BbAlignConfig::test_small(), false, turned, "boxes"),
            (unreachable, false, truth, "refine"),
            (BbAlignConfig::test_small(), true, truth, "sharpness"),
        ];
        for (config, dense_frames, predicted, cause) in cases {
            let recorder = bba_obs::Recorder::enabled();
            let aligner = BbAlign::new(config).with_recorder(recorder.clone());
            let (ego, other) =
                if dense_frames { dense(&aligner) } else { frame_pair(&aligner, &truth) };
            let mut rng = StdRng::seed_from_u64(42);
            // The cold fallback may fail on the dense frames; only the
            // warm ledger matters here.
            let _ = aligner.recover_warm(&ego, &other, Some(&predicted), &mut rng);
            let snap = recorder.snapshot();
            let causes: Vec<_> =
                snap.counters.iter().filter(|(n, _)| n.starts_with("warmstart.miss.")).collect();
            assert_eq!(causes, [&(format!("warmstart.miss.{cause}"), 1)], "{cause}");
            assert_eq!(snap.counter("warmstart.miss"), Some(1), "{cause}");
            assert_eq!(snap.counter("warmstart.fallback"), Some(1), "{cause}");
        }
    }

    #[test]
    fn errors_are_displayable() {
        for e in [
            RecoverError::NoKeypoints { side: "ego" },
            RecoverError::NoMatches,
            RecoverError::GeometryMismatch,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    /// A copy of `frame` with an empty feature slot.
    fn cold_copy(frame: &PerceptionFrame) -> PerceptionFrame {
        PerceptionFrame::new(frame.bev().clone(), frame.boxes().to_vec())
    }

    fn assert_same_bits(a: &Recovery, b: &Recovery) {
        assert_eq!(a, b);
        assert_eq!(a.transform.yaw().to_bits(), b.transform.yaw().to_bits());
        assert_eq!(a.transform.translation().x.to_bits(), b.transform.translation().x.to_bits());
        assert_eq!(a.transform.translation().y.to_bits(), b.transform.translation().y.to_bits());
    }

    #[test]
    fn frames_prefilled_by_place_extraction_recover_like_fresh_frames() {
        let aligner = BbAlign::new(BbAlignConfig::test_small());
        let truth = Iso2::new(0.35, Vec2::new(6.0, -3.0));
        let (ego, other) = frame_pair(&aligner, &truth);
        let place = bba_place::PlaceConfig::default();
        let recover = |e: &PerceptionFrame, o: &PerceptionFrame| {
            aligner.recover(e, o, &mut StdRng::seed_from_u64(12)).unwrap()
        };
        let fresh = recover(&cold_copy(&ego), &cold_copy(&other));

        // Place extraction first fills the slot; recovery then reads it,
        // with the frame on either side of the pair.
        let descriptors =
            [aligner.place_descriptor(&ego, &place), aligner.place_descriptor(&other, &place)];
        assert_same_bits(&recover(&ego, &cold_copy(&other)), &fresh);
        assert_same_bits(&recover(&cold_copy(&ego), &other), &fresh);
        assert_same_bits(&recover(&ego, &other), &fresh);
        // Swapped roles: `other` is now ego for the first time.
        let swapped = recover(&cold_copy(&other), &cold_copy(&ego));
        assert_same_bits(&recover(&other, &ego), &swapped);

        // And the descriptors a filled frame yields are the fresh ones:
        // place descriptors, and the ego set bit for bit.
        for (frame, descriptor) in [&ego, &other].into_iter().zip(&descriptors) {
            assert_eq!(&aligner.place_descriptor(frame, &place), descriptor);
            assert_eq!(&aligner.place_descriptor(&cold_copy(frame), &place), descriptor);
        }
        let fresh_ego = cold_copy(&ego);
        recover(&fresh_ego, &cold_copy(&other));
        assert_eq!(ego_set_bits(&ego), ego_set_bits(&fresh_ego));
    }

    /// The keypoints and row bits of `frame`'s stored ego set.
    fn ego_set_bits(frame: &PerceptionFrame) -> (Vec<Keypoint>, Vec<u32>) {
        let set = frame.features().get().and_then(|x| x.ego_set.get()).expect("an ego set");
        let bits = (0..set.len()).flat_map(|i| set.row(i).iter().map(|x| x.to_bits()));
        (set.keypoints().to_vec(), bits.collect())
    }

    #[test]
    fn the_sweep_keeps_the_sending_frames_ego_set() {
        let recorder = bba_obs::Recorder::enabled();
        let aligner = BbAlign::new(BbAlignConfig::test_small()).with_recorder(recorder.clone());
        let (ego, other) = frame_pair(&aligner, &Iso2::new(0.2, Vec2::new(3.0, 1.0)));
        aligner.recover(&ego, &other, &mut StdRng::seed_from_u64(17)).unwrap();
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("stage1.sweeps"), Some(1));
        assert_eq!(snap.counter("stage1.ego_sets_from_sweep"), Some(1));
        // The kept set is the one the frame's first use as ego computes
        // (this call keeps the fresh sending frame's set too: two kept).
        let fresh = cold_copy(&other);
        aligner.recover(&fresh, &cold_copy(&ego), &mut StdRng::seed_from_u64(17)).unwrap();
        assert_eq!(ego_set_bits(&other), ego_set_bits(&fresh));
        // A sending frame already holding its ego set keeps it.
        aligner.recover(&cold_copy(&ego), &other, &mut StdRng::seed_from_u64(17)).unwrap();
        assert_eq!(recorder.snapshot().counter("stage1.ego_sets_from_sweep"), Some(2));
    }

    #[test]
    fn engines_with_other_configs_compute_their_own_features() {
        let base = BbAlign::new(BbAlignConfig::test_small());
        let truth = Iso2::new(0.2, Vec2::new(3.0, 1.0));
        let (ego, other) = frame_pair(&base, &truth);
        let run = |engine: &BbAlign, e: &PerceptionFrame, o: &PerceptionFrame| {
            let recovery = engine.recover(e, o, &mut StdRng::seed_from_u64(13));
            (recovery, engine.place_descriptor(e, &bba_place::PlaceConfig::default()))
        };
        // `base` fills the shared frames' slots first.
        let base_fresh = run(&base, &cold_copy(&ego), &cold_copy(&other));
        assert_eq!(run(&base, &ego, &other), base_fresh);

        let mut descriptor = BbAlignConfig::test_small();
        descriptor.descriptor.amplitude_gate = 0.2;
        let mut keypoints = BbAlignConfig::test_small();
        keypoints.keypoints.threshold = 0.1;
        for config in [descriptor, keypoints] {
            let fresh = run(&BbAlign::new(config.clone()), &cold_copy(&ego), &cold_copy(&other));
            assert_ne!(fresh, base_fresh, "the config change must change the features");
            let recorder = bba_obs::Recorder::enabled();
            let engine = BbAlign::new(config).with_recorder(recorder.clone());
            // Twice: the engine neither uses nor replaces `base`'s features.
            assert_eq!(run(&engine, &ego, &other), fresh);
            assert_eq!(run(&engine, &ego, &other), fresh);
            let snap = recorder.snapshot();
            assert_eq!(snap.counter("features.computed"), Some(2 * 3));
            assert_eq!(snap.counter("features.reused"), None);
        }
        assert_eq!(run(&base, &ego, &other), base_fresh);
    }

    #[test]
    fn slot_is_invisible_to_equality_serialisation_and_wire() {
        let recorder = bba_obs::Recorder::enabled();
        let aligner = BbAlign::new(BbAlignConfig::test_small()).with_recorder(recorder.clone());
        let (ego, other) = frame_pair(&aligner, &Iso2::new(0.1, Vec2::new(2.0, 1.0)));
        let before = (serde_json::to_string(&ego).unwrap(), crate::wire::encode_frame(&ego));
        let clone = ego.clone();
        aligner.recover(&ego, &other, &mut StdRng::seed_from_u64(14)).unwrap();
        assert_eq!(ego, cold_copy(&ego));
        assert_eq!(clone, ego);
        assert_eq!(serde_json::to_string(&ego).unwrap(), before.0);
        assert_eq!(crate::wire::encode_frame(&ego), before.1);
        let back: PerceptionFrame = serde_json::from_str(&before.0).unwrap();
        assert_eq!(back, ego);
        // The clone shares the slot: its place extraction reuses the MIM.
        aligner.place_descriptor(&clone, &bba_place::PlaceConfig::default());
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("features.computed"), Some(2));
        assert_eq!(snap.counter("features.reused"), Some(1));
        assert_eq!(
            snap.counter("pool.workspace.hits").unwrap_or(0)
                + snap.counter("pool.workspace.misses").unwrap_or(0),
            2,
            "one pooled workspace per MIM"
        );
    }

    /// An engine at `bev` with the test descriptor geometry.
    fn engine_at(bev: BevConfig) -> BbAlign {
        BbAlign::new(BbAlignConfig { bev, ..BbAlignConfig::test_small() })
    }

    /// Asserts that the `test_small` engine rejects, cold and warm, a pair
    /// whose frames agree with each other but were rasterised at `bev`.
    fn assert_foreign_pair_rejected(
        bev: BevConfig,
        truth: &Iso2,
    ) -> (PerceptionFrame, PerceptionFrame) {
        let aligner = BbAlign::new(BbAlignConfig::test_small());
        let (ego, other) = frame_pair(&engine_at(bev), truth);
        let mut rng = StdRng::seed_from_u64(15);
        assert_eq!(aligner.recover(&ego, &other, &mut rng), Err(RecoverError::GeometryMismatch));
        let recorder = bba_obs::Recorder::enabled();
        let aligner = aligner.with_recorder(recorder.clone());
        let warm = aligner.recover_warm(&ego, &other, Some(truth), &mut rng);
        assert_eq!(warm, Err(RecoverError::GeometryMismatch));
        assert_eq!(recorder.snapshot().counter("warmstart.miss.geometry"), Some(1));
        (ego, other)
    }

    #[test]
    fn frames_at_another_image_size_are_rejected_not_filtered() {
        // The engine's 128² filter bank cannot filter 256² rasters.
        let bev = BevConfig { range: 51.2, resolution: 0.4 };
        assert_foreign_pair_rejected(bev, &Iso2::new(0.2, Vec2::new(3.0, 1.0)));
    }

    #[test]
    fn frames_at_another_resolution_are_rejected_not_misscaled() {
        // Same 128² image size at twice the cell size: filtering would
        // work, but the engine would convert the pixel transform to metres
        // at its own 0.4 m/px and halve the translation.
        let bev = BevConfig { range: 51.2, resolution: 0.8 };
        assert_eq!(bev.image_size(), BbAlignConfig::test_small().bev.image_size());
        let truth = Iso2::new(0.2, Vec2::new(6.0, 2.0));
        let (ego, other) = assert_foreign_pair_rejected(bev, &truth);
        // The frames' own engine recovers them.
        let r = engine_at(bev).recover(&ego, &other, &mut StdRng::seed_from_u64(16)).unwrap();
        assert!(r.transform.error_to(&truth).0 < 1.6, "recovered {}", r.transform);
    }

    #[test]
    #[should_panic(expected = "engine's BV geometry")]
    fn place_extraction_refuses_foreign_geometry() {
        let aligner = BbAlign::new(BbAlignConfig::test_small());
        let foreign = engine_at(BevConfig { range: 51.2, resolution: 0.8 });
        let frame = foreign.frame_from_parts(landmark_points(), car_boxes());
        aligner.place_descriptor(&frame, &bba_place::PlaceConfig::default());
    }

    /// Reference for the pruned, grouped sweep: stage 1 as it ran before
    /// pruning — descriptors from the naive per-angle path, RANSAC on every
    /// swept hypothesis, the last maximum over all their results — then
    /// stage 2 on the same RNG, as in `recover_cold`.
    fn unpruned_recover(
        aligner: &BbAlign,
        ego: &PerceptionFrame,
        other: &PerceptionFrame,
        rng: &mut StdRng,
    ) -> Recovery {
        let cfg = aligner.config();
        let ego_features = aligner.features(ego, &mut PhaseTimes::default()).unwrap();
        let other_features = aligner.features(other, &mut PhaseTimes::default()).unwrap();
        let describe = |features: &FrameFeatures, k: usize| {
            let angle = aligner.sweep().angle(k);
            describe_keypoints_rotated(&features.mim, &features.keypoints, &cfg.descriptor, angle)
        };
        let ego_set = describe(&ego_features, 0);
        let pix = |kp: &Keypoint| Vec2::new(kp.u as f64 + 0.5, kp.v as f64 + 0.5);
        let mut candidates = Vec::new();
        for k in 0..aligner.sweep().hypotheses() {
            let other_set = describe(&other_features, k);
            if other_set.is_empty() {
                continue;
            }
            let matches = match_sets(&other_set, &MatchPool::new(&ego_set), &cfg.matcher);
            if matches.len() < 2 {
                continue;
            }
            let src: Vec<Vec2> = matches.iter().map(|m| pix(other_set.keypoint(m.src))).collect();
            let dst: Vec<Vec2> = matches.iter().map(|m| pix(ego_set.keypoint(m.dst))).collect();
            if let Ok(r) = ransac_rigid(&src, &dst, 0, &cfg.ransac_bv, rng) {
                let strong =
                    r.num_inliers > cfg.min_inliers_bv && 2 * r.num_inliers >= matches.len();
                candidates.push((r, matches.len()));
                if strong {
                    break;
                }
            }
        }
        let (result, matches) = candidates.into_iter().max_by_key(|(r, _)| r.num_inliers).unwrap();
        let bv = BvMatch {
            transform: aligner.pixel_to_world_transform(&result.transform),
            transform_pixels: result.transform,
            inliers: result.num_inliers,
            matches,
            keypoints: (ego_features.keypoints.len(), other_features.keypoints.len()),
        };
        let box_alignment = aligner.align_boxes(ego, other, &bv.transform, rng);
        let transform =
            box_alignment.as_ref().map_or(bv.transform, |b| b.transform.compose(&bv.transform));
        Recovery {
            transform,
            transform_3d: Iso3::from_iso2(&transform, 0.0),
            bv,
            box_alignment,
            thresholds: (cfg.min_inliers_bv, cfg.min_inliers_box),
        }
    }

    /// Recovers `truth`'s frame pair with and without pruning, asserting
    /// the same bits and the same next RNG draw; returns the hypotheses
    /// swept and pruned by the pruned call.
    fn assert_pruned_sweep_is_unpruned_sweep(truth: &Iso2, seed: u64) -> (u64, u64) {
        let recorder = bba_obs::Recorder::enabled();
        let aligner = BbAlign::new(BbAlignConfig::test_small()).with_recorder(recorder.clone());
        let (ego, other) = frame_pair(&aligner, truth);
        let mut rng_pruned = StdRng::seed_from_u64(seed);
        let mut rng_full = StdRng::seed_from_u64(seed);
        let pruned = aligner.recover(&ego, &other, &mut rng_pruned).unwrap();
        let full = unpruned_recover(&aligner, &ego, &other, &mut rng_full);
        assert_same_bits(&pruned, &full);
        assert_eq!(rng_pruned.random::<u64>(), rng_full.random::<u64>());
        let snap = recorder.snapshot();
        (
            snap.counter("stage1.hypotheses").unwrap(),
            snap.counter("stage1.hypotheses_pruned").unwrap(),
        )
    }

    #[test]
    fn pruned_sweep_equals_unpruned_sweep_on_same_direction_pairs() {
        for truth in [Iso2::new(0.1, Vec2::new(4.0, 2.0)), Iso2::new(0.2, Vec2::new(10.0, -4.0))] {
            let (swept, pruned) = assert_pruned_sweep_is_unpruned_sweep(&truth, 40);
            assert!(pruned > 0, "nothing pruned: the test would not exercise pruning");
            assert!(pruned < swept);
        }
    }

    #[test]
    fn pruned_sweep_equals_unpruned_sweep_on_oncoming_pairs() {
        // Headings ~180° apart: the winner sits near hypothesis 12, so
        // hypotheses before it are pruned against a weaker best.
        for truth in [Iso2::new(3.05, Vec2::new(8.0, -2.0)), Iso2::new(-3.1, Vec2::new(10.0, -4.0))]
        {
            let (_, pruned) = assert_pruned_sweep_is_unpruned_sweep(&truth, 50);
            assert!(pruned > 0, "nothing pruned: the test would not exercise pruning");
        }
    }

    #[test]
    fn coarse_to_fine_alignment_score_is_bit_identical() {
        let aligner = BbAlign::new(BbAlignConfig::test_small());
        let truth = Iso2::new(0.35, Vec2::new(6.0, -3.0));
        let (ego, other) = frame_pair(&aligner, &truth);
        let scorer = AlignmentScorer::new(ego.bev());
        let cells = scorer.collect_occupied(other.bev());
        assert!(!cells.xs.is_empty());
        // True transform, identity, aliases, off-raster and large-angle
        // candidates: naive raster sweep and coarse-to-fine cells path must
        // return the exact same bits, including the mapped<30 cutoff.
        let candidates = [
            truth,
            Iso2::IDENTITY,
            Iso2::new(-0.35, Vec2::new(-6.0, 3.0)),
            Iso2::new(3.0, Vec2::new(0.5, 0.5)),
            Iso2::new(0.35, Vec2::new(400.0, 400.0)), // maps almost everything off-raster
            Iso2::new(1.7, Vec2::new(-12.0, 9.0)),
        ];
        for t in &candidates {
            let naive = scorer.score(other.bev(), t);
            let fast = scorer.score_cells_detail(&cells, t).score;
            assert_eq!(naive.to_bits(), fast.to_bits(), "transform {t}");
        }
    }
}
