//! The two-stage recovery algorithm (paper Algorithm 1).

use crate::config::BbAlignConfig;
use crate::frame::{FrameBox, FrameFeatures, PerceptionFrame};
use bba_bev::{BevConfig, BevImage};
use bba_features::{
    detect_keypoints, match_sets, ransac_rigid, DescriptorSet, Keypoint, PatchSamples, RansacError,
    RansacResult, RotationSweep, REBIN_GROUP,
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
    /// Stage-2 diagnostics (`None` when disabled or when too few boxes
    /// overlapped — the recovery then falls back to stage 1 alone).
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
    /// A prediction existed but failed verification: the full cold
    /// pipeline ran, with the prediction offered to stage-1 RANSAC as
    /// hypothesis zero. Whenever that hint does not win outright, the
    /// result is bit-identical to [`BbAlign::recover`].
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
    /// Retention is bounded by [`BbAlignConfig::pool_capacity`]; overflow
    /// buffers are dropped, and hit/miss/drop counts surface through the
    /// recorder as `pool.workspace.*` counters.
    workspaces: crate::pool::BoundedPool<FftWorkspace>,
    /// Pool of stage-1 describe scratch (a patch-sample buffer + one
    /// re-bin group of descriptor sets), recycled for the same reason; one
    /// is in flight per `match_bv` call. Bounded like the workspace pool,
    /// with `pool.stage1.*` counters.
    stage1_scratch: crate::pool::BoundedPool<Stage1Scratch>,
    /// Observability sink (disabled by default — and then free). Records
    /// per-phase spans, per-recovery distributions (keypoints, matches,
    /// inliers, stage-2 residuals) and success/failure counters; it
    /// never influences results, only observes them.
    obs: Recorder,
}

/// Reusable stage-1 buffers: the hypothesis-invariant patch samples of the
/// other image and the descriptor sets one re-bin group fills. The ego
/// side's descriptors are a per-frame product kept by the frame; its
/// samples pass through `samples` once, when they are first computed.
#[derive(Debug, Default)]
struct Stage1Scratch {
    samples: PatchSamples,
    group: [DescriptorSet; REBIN_GROUP],
}

/// Time (ms) one call spent computing per-frame features; zero for
/// features read from a frame's slot.
#[derive(Debug, Default)]
struct FeatureCost {
    mim_ms: f64,
    detect_ms: f64,
}

/// Milliseconds elapsed since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
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
        let capacity = config.pool_capacity;
        BbAlign {
            config,
            bank: OnceLock::new(),
            sweep: OnceLock::new(),
            workspaces: crate::pool::BoundedPool::new(
                capacity,
                "pool.workspace.hits",
                "pool.workspace.misses",
                "pool.workspace.dropped",
            ),
            stage1_scratch: crate::pool::BoundedPool::new(
                capacity,
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
            LogGaborBank::new(h, h, self.config.log_gabor.clone())
        })
    }

    fn sweep(&self) -> &RotationSweep {
        self.sweep.get_or_init(|| {
            let hypotheses = self.config.rotation_hypotheses.max(1);
            let angles: Vec<f64> = (0..hypotheses)
                .map(|k| k as f64 * std::f64::consts::TAU / hypotheses as f64)
                .collect();
            RotationSweep::new(
                &self.config.descriptor,
                self.config.log_gabor.num_orientations,
                &angles,
            )
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
            .features(frame, &mut FeatureCost::default())
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
        cost: &mut FeatureCost,
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
    fn compute_features(&self, frame: &PerceptionFrame, cost: &mut FeatureCost) -> FrameFeatures {
        let cfg = &self.config;
        let bank = self.bank();
        let t = Instant::now();
        let mut ws = self.workspaces.take(&self.obs);
        let mim = MaxIndexMap::compute_with_workspace(frame.bev().grid(), bank, &mut ws);
        self.workspaces.put(ws, &self.obs);
        cost.mim_ms += ms_since(t);

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
        cost.detect_ms += ms_since(t);
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
    /// Returns the coarse other→ego alignment.
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
        self.stage1(ego, other, None, rng)
    }

    /// Stage 1 under the `stage1` span, with an optional pixel-space warm
    /// hint offered to RANSAC as hypothesis zero (the cold path's entry;
    /// with `None` it is [`BbAlign::match_bv`]). Takes and returns the
    /// pooled describe scratch and counts `stage1.failures`.
    fn stage1<R: Rng + ?Sized>(
        &self,
        ego: &PerceptionFrame,
        other: &PerceptionFrame,
        hint_pix: Option<&Iso2>,
        rng: &mut R,
    ) -> Result<BvMatch, RecoverError> {
        let _span = self.obs.span("stage1");
        let mut scratch = self.stage1_scratch.take(&self.obs);
        let out = self.stage1_body(ego, other, hint_pix, rng, &mut scratch);
        self.stage1_scratch.put(scratch, &self.obs);
        if out.is_err() {
            self.obs.incr("stage1.failures");
        }
        out
    }

    /// The one stage-1 body. Times its phases as it goes and, when stage 1
    /// completes, files them as `mim` / `detect` / `describe` / `match` /
    /// `ransac` spans under the open `stage1` span: one record per phase
    /// per completed stage 1, summed over every hypothesis swept. Pure
    /// instrumentation — the results do not depend on it.
    ///
    /// The MIM, the keypoints and the ego descriptor set are per-frame
    /// products, computed once and kept by the frame (see
    /// [`PerceptionFrame`]). Each phase counts only work this call did, so
    /// a call whose frames were already used records 0 ms for MIM and
    /// detection.
    fn stage1_body<R: Rng + ?Sized>(
        &self,
        ego: &PerceptionFrame,
        other: &PerceptionFrame,
        hint_pix: Option<&Iso2>,
        rng: &mut R,
        scratch: &mut Stage1Scratch,
    ) -> Result<BvMatch, RecoverError> {
        let cfg = &self.config;

        // Per-frame features: the MIM (needed for descriptors, and by
        // default also as the keypoint-detection image) and the keypoints,
        // computed on a frame's first use and read from its slot after.
        let mut cost = FeatureCost::default();
        let ego_features = self.features(ego, &mut cost)?;
        let other_features = self.features(other, &mut cost)?;
        let (kp_ego, kp_other) = (&ego_features.keypoints, &other_features.keypoints);
        if kp_ego.is_empty() {
            return Err(RecoverError::NoKeypoints { side: "ego" });
        }
        if kp_other.is_empty() {
            return Err(RecoverError::NoKeypoints { side: "other" });
        }

        // Descriptors under a global rotation hypothesis (RIFT-style,
        // swept below) rather than a per-patch orientation, which view-
        // dependent samples make unstable. Each image is *sampled* exactly
        // once — the per-hypothesis work is only the cheap re-binning of
        // the cached samples. The ego side is binned once at hypothesis 0
        // (angle 0) and kept by the frame; the other side is sampled per
        // pair and re-binned a group of hypotheses at a time, each group
        // ahead of its matching. The describe time covers the ego set when
        // this call computed it, the sample pass and every re-bin.
        let sweep = self.sweep();
        let Stage1Scratch { samples, group } = scratch;
        let t = Instant::now();
        let ego_set = self.ego_set(&ego_features, samples);
        if ego_set.is_empty() {
            return Err(RecoverError::NoKeypoints { side: "ego" });
        }
        samples.sample(&other_features.mim, kp_other, sweep);
        let mut describe_ms = ms_since(t);
        let (mut match_ms, mut ransac_ms) = (0.0, 0.0);
        let pix = |kp: &Keypoint| Vec2::new(kp.u as f64 + 0.5, kp.v as f64 + 0.5);

        // The sweep keeps the best RANSAC result so far; a later hypothesis
        // replaces it on a tie, as a last-maximum pick over all of them
        // would. A hypothesis whose consensus bound (the most inliers any
        // rigid transform could reach on its matches) is below both the
        // best count so far and the smallest count that fires the `strong`
        // exit can neither win nor end the sweep, so its RANSAC is skipped;
        // the skipped call still advances `rng` exactly as the full one
        // would, so every later draw — later hypotheses, stage 2 — is
        // unchanged (DESIGN.md → *Sweep pruning*). Re-bins are pure, so
        // binning a group ahead of its matches changes nothing, and a
        // `strong` exit inside a group only discards the re-bins after it.
        let mut best: Option<(RansacResult, usize)> = None;
        let (mut swept, mut pruned) = (0usize, 0usize);
        let mut any_descriptors = false;
        let mut any_matches = false;
        let mut last_ransac_err = None;
        for k in 0..sweep.hypotheses() {
            swept = k + 1;
            if k % REBIN_GROUP == 0 {
                let t = Instant::now();
                let sets = &mut group[..REBIN_GROUP.min(sweep.hypotheses() - k)];
                samples.rebin_group(sweep, k, sets);
                describe_ms += ms_since(t);
            }
            let other_set = &group[k % REBIN_GROUP];
            if other_set.is_empty() {
                continue;
            }
            any_descriptors = true;
            let t = Instant::now();
            let matches = match_sets(other_set, ego_set, &cfg.matcher);
            match_ms += ms_since(t);
            if matches.len() < 2 {
                continue;
            }
            any_matches = true;
            let src: Vec<Vec2> = matches.iter().map(|m| pix(other_set.keypoint(m.src))).collect();
            let dst: Vec<Vec2> = matches.iter().map(|m| pix(ego_set.keypoint(m.dst))).collect();
            // Descriptor distances rank the correspondences for RANSAC's
            // PROSAC-style preview; they schedule work only and cannot
            // change the result.
            let qual: Vec<f64> = matches.iter().map(|m| m.distance).collect();
            // `strong`: the consensus clears the success threshold AND
            // explains at least half the matches. With two candidates per
            // keypoint (the default `keep_top_k = 2`) usually at most half
            // the matches can be true, so this rarely fires and the sweep
            // usually visits every hypothesis.
            let strong_min = (cfg.min_inliers_bv + 1).max(matches.len().div_ceil(2));
            let floor = best.as_ref().map_or(0, |(b, _)| b.num_inliers.min(strong_min));

            let t = Instant::now();
            let outcome =
                ransac_rigid(&src, &dst, Some(&qual), hint_pix, floor, &cfg.ransac_bv, rng);
            ransac_ms += ms_since(t);
            match outcome {
                Ok(result) => {
                    let strong = result.num_inliers >= strong_min;
                    if best.as_ref().is_none_or(|(b, _)| result.num_inliers >= b.num_inliers) {
                        best = Some((result, matches.len()));
                    }
                    if strong {
                        break;
                    }
                }
                Err(RansacError::Pruned { .. }) => pruned += 1,
                Err(e) => last_ransac_err = Some(e),
            }
        }

        let Some((result, matches)) = best else {
            if !any_descriptors {
                return Err(RecoverError::NoKeypoints { side: "other" });
            }
            if !any_matches {
                return Err(RecoverError::NoMatches);
            }
            return Err(RecoverError::NoConsensus(
                last_ransac_err.unwrap_or(RansacError::NoConsensus { best: 0, required: 2 }),
            ));
        };

        let bv = BvMatch {
            transform: self.pixel_to_world_transform(&result.transform),
            transform_pixels: result.transform,
            inliers: result.num_inliers,
            matches,
            keypoints: (kp_ego.len(), kp_other.len()),
        };
        if self.obs.is_enabled() {
            self.obs.record_span_ms("mim", cost.mim_ms);
            self.obs.record_span_ms("detect", cost.detect_ms);
            self.obs.record_span_ms("describe", describe_ms);
            self.obs.record_span_ms("match", match_ms);
            self.obs.record_span_ms("ransac", ransac_ms);
            self.obs.add("stage1.hypotheses", swept as u64);
            self.obs.add("stage1.hypotheses_pruned", pruned as u64);
            self.obs.observe("stage1.keypoints_ego", bv.keypoints.0 as f64);
            self.obs.observe("stage1.keypoints_other", bv.keypoints.1 as f64);
            self.obs.observe("stage1.matches", bv.matches as f64);
            self.obs.observe("stage1.inliers_bv", bv.inliers as f64);
        }
        Ok(bv)
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
    /// `coarse` is the stage-1 transform. Returns `None` when fewer than
    /// two box pairs overlap (stage 2 is then skipped, per the fallback in
    /// [`BbAlign::recover`]).
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

        let result = ransac_rigid(&src, &dst, None, None, 0, &cfg.ransac_box, rng).ok()?;
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

    /// Runs the full two-stage recovery (Algorithm 1).
    ///
    /// Stage-2 failure (too few overlapping boxes) degrades gracefully to
    /// the stage-1 transform; such recoveries report `Inliers_box = 0` and
    /// fail [`Recovery::is_success`].
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
        self.recover_with_hint(ego, other, None, rng)
    }

    /// The cold pipeline, optionally seeding stage-1 RANSAC with a
    /// world-frame warm hint as hypothesis zero. With `None` (or whenever
    /// the hint does not win a RANSAC call outright) this is bit-identical
    /// to the plain [`BbAlign::recover`]: same RNG consumption, same
    /// result.
    fn recover_with_hint<R: Rng + ?Sized>(
        &self,
        ego: &PerceptionFrame,
        other: &PerceptionFrame,
        warm_hint: Option<&Iso2>,
        rng: &mut R,
    ) -> Result<Recovery, RecoverError> {
        let _span = self.obs.span("recover");
        self.obs.incr("recover.calls");
        // The stage-1 sweep matches keypoints in pixel coordinates, so the
        // hint is converted once here. Keypoint positions are unrotated
        // across rotation hypotheses (only descriptor binning rotates), so
        // one pixel-space hint is valid for every hypothesis.
        let hint_pix = warm_hint.map(|t| self.world_to_pixel_transform(t));
        let bv = match self.stage1(ego, other, hint_pix.as_ref(), rng) {
            Ok(bv) => bv,
            Err(e) => {
                self.obs.incr("recover.failures");
                return Err(e);
            }
        };
        let box_alignment = if self.config.box_alignment {
            self.align_boxes(ego, other, &bv.transform, rng)
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
    }

    /// Temporal warm start: recovery seeded by a tracker-predicted
    /// transform (see `PoseTracker::warm_prediction`).
    ///
    /// With a usable prediction the engine first *verifies it directly* —
    /// the [`AlignmentScorer`] coarse-to-fine occupancy screen against the
    /// [`BbAlignConfig::warm_min_alignment`] floor, then the stage-2
    /// box-alignment residual check, then the screen again on the refined
    /// transform plus a peak-sharpness test (the refined pose must beat
    /// four ±3 m decoy transforms — true poses are sharp maxima of the
    /// score field, stale and aliased poses sit on its plateau). On pass,
    /// the call returns a successful
    /// [`RecoveryPath::WarmStart`] recovery having skipped MIM / detect /
    /// describe / match / RANSAC entirely. On fail, the full cold pipeline
    /// runs with the prediction offered to stage-1 RANSAC as hypothesis
    /// zero ([`RecoveryPath::ColdFallback`]); without a prediction the
    /// plain cold pipeline runs ([`RecoveryPath::Cold`]). Both fallbacks
    /// are bit-identical to [`BbAlign::recover`] whenever the
    /// hypothesis-zero hint does not win a RANSAC call outright — warm
    /// verification runs on a fixed-seed internal RNG, so the caller's
    /// stream reaches the cold path untouched.
    ///
    /// Every call increments exactly one of the `warmstart.hit` /
    /// `warmstart.miss` counters (so their sum counts calls);
    /// `warmstart.fallback` counts the subset of misses that had a
    /// prediction.
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
        let Some(predicted) = predicted else {
            self.obs.incr("warmstart.miss");
            let recovery = self.recover(ego, other, rng)?;
            return Ok(WarmRecovery { recovery, path: RecoveryPath::Cold });
        };
        let native = |f: &PerceptionFrame| f.bev().config() == &self.config.bev;
        if native(ego) && native(other) {
            let span = self.obs.span("warmstart.verify");
            let verified = self.verify_predicted(ego, other, predicted);
            drop(span);
            if let Some(recovery) = verified {
                self.obs.incr("warmstart.hit");
                self.obs.observe("warmstart.inliers_bv", recovery.bv.inliers as f64);
                return Ok(WarmRecovery { recovery, path: RecoveryPath::WarmStart });
            }
        }
        self.obs.incr("warmstart.miss");
        self.obs.incr("warmstart.fallback");
        let recovery = self.recover_with_hint(ego, other, Some(predicted), rng)?;
        Ok(WarmRecovery { recovery, path: RecoveryPath::ColdFallback })
    }

    /// Direct verification of a predicted transform, without stage 1.
    ///
    /// Returns a fully-successful [`Recovery`] (it would pass
    /// [`Recovery::is_success`]) or `None` when any check fails. The
    /// stage-2 residual check runs on a fixed-seed RNG so the caller's
    /// stream is preserved for the cold fallback.
    fn verify_predicted(
        &self,
        ego: &PerceptionFrame,
        other: &PerceptionFrame,
        predicted: &Iso2,
    ) -> Option<Recovery> {
        let cfg = &self.config;
        // A warm recovery must clear the same success criterion as a cold
        // one, and Inliers_box > min requires stage 2.
        if !cfg.box_alignment {
            return None;
        }
        let scorer = AlignmentScorer::new(ego.bev());
        let cells = scorer.collect_occupied(other.bev());
        let check = scorer.score_cells_detail(&cells, predicted);
        self.obs.observe("warmstart.alignment", check.score);
        // Absolute floor on the raw prediction: rules out hopeless
        // predictions (a gross alias or a blown track scores well under
        // this at every raster) before paying for box alignment.
        if check.score < cfg.warm_min_alignment {
            return None;
        }
        // Box-alignment residual check: the boxes must agree with (and
        // refine) the prediction just as they would a stage-1 transform.
        let mut verify_rng = StdRng::seed_from_u64(WARM_VERIFY_SEED);
        let b = self.align_boxes(ego, other, predicted, &mut verify_rng)?;
        if b.inliers <= cfg.min_inliers_box {
            return None;
        }
        let transform = b.transform.compose(predicted);
        let refined = scorer.score_cells_detail(&cells, &transform);
        if refined.score < cfg.warm_min_alignment || refined.hits <= cfg.min_inliers_bv {
            return None;
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
            return None;
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
        Some(recovery)
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
pub struct AlignmentScorer {
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
pub struct OccupiedCells {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

/// Outcome of one coarse-to-fine alignment screen
/// ([`AlignmentScorer::score_cells_detail`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignmentCheck {
    /// The alignment score: `hits / mapped`, or `0.0` below the 30-cell
    /// co-visibility cutoff.
    pub score: f64,
    /// Occupied cells that mapped inside the ego raster.
    pub mapped: usize,
    /// Mapped cells landing on the dilated ego occupancy.
    pub hits: usize,
}

impl OccupiedCells {
    /// Number of occupied cells collected.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the source image had no occupied cells at all.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

impl AlignmentScorer {
    /// Precomputes the dilated occupancy mask of the ego image.
    pub fn new(ego: &BevImage) -> Self {
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
    pub fn collect_occupied(&self, other: &BevImage) -> OccupiedCells {
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
    /// raw mapped/hit counts — the warm-start verifier reads the hit count
    /// as the recovery's cell-level consensus. Evaluated over a
    /// precollected occupied-cell list with the transform's `sin_cos`
    /// hoisted out of the loop and the coarse mask screening each probe.
    pub fn score_cells_detail(&self, cells: &OccupiedCells, transform: &Iso2) -> AlignmentCheck {
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
        AlignmentCheck { score, mapped, hits }
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
        // A prediction mapping everything off-raster: the screen scores 0
        // and the pixel-space hint can never win a RANSAC call.
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
    }

    #[test]
    fn warm_start_requires_stage2_to_be_enabled() {
        let aligner = BbAlign::new(BbAlignConfig::test_small().without_box_alignment());
        let truth = Iso2::new(0.2, Vec2::new(3.0, 1.0));
        let (ego, other) = frame_pair(&aligner, &truth);
        let mut rng = StdRng::seed_from_u64(41);
        let w = aligner.recover_warm(&ego, &other, Some(&truth), &mut rng).unwrap();
        // Without stage 2 a warm recovery could never clear Inliers_box,
        // so the warm path must decline and fall back.
        assert_eq!(w.path, RecoveryPath::ColdFallback);
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
        let ego_set_bits = |f: &PerceptionFrame| {
            let set = f.features().get().and_then(|x| x.ego_set.get()).expect("used as ego");
            let bits = (0..set.len()).flat_map(|i| set.row(i).iter().map(|x| x.to_bits()));
            (set.keypoints().to_vec(), bits.collect::<Vec<u32>>())
        };
        let fresh_ego = cold_copy(&ego);
        recover(&fresh_ego, &cold_copy(&other));
        assert_eq!(ego_set_bits(&ego), ego_set_bits(&fresh_ego));
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

        let mut gabor = BbAlignConfig::test_small();
        gabor.log_gabor.min_wavelength = 4.0;
        let mut keypoints = BbAlignConfig::test_small();
        keypoints.keypoints.threshold = 0.1;
        for config in [gabor, keypoints] {
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
        let warm = aligner.recover_warm(&ego, &other, Some(truth), &mut rng);
        assert_eq!(warm, Err(RecoverError::GeometryMismatch));
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
    /// stage 2 on the same RNG, as in `recover_with_hint`.
    fn unpruned_recover(
        aligner: &BbAlign,
        ego: &PerceptionFrame,
        other: &PerceptionFrame,
        hint: Option<&Iso2>,
        rng: &mut StdRng,
    ) -> Recovery {
        let cfg = aligner.config();
        let ego_features = aligner.features(ego, &mut FeatureCost::default()).unwrap();
        let other_features = aligner.features(other, &mut FeatureCost::default()).unwrap();
        let describe = |features: &FrameFeatures, k: usize| {
            let angle = aligner.sweep().angle(k);
            describe_keypoints_rotated(&features.mim, &features.keypoints, &cfg.descriptor, angle)
        };
        let ego_set = describe(&ego_features, 0);
        let hint_pix = hint.map(|t| aligner.world_to_pixel_transform(t));
        let pix = |kp: &Keypoint| Vec2::new(kp.u as f64 + 0.5, kp.v as f64 + 0.5);
        let mut candidates = Vec::new();
        for k in 0..aligner.sweep().hypotheses() {
            let other_set = describe(&other_features, k);
            if other_set.is_empty() {
                continue;
            }
            let matches = match_sets(&other_set, &ego_set, &cfg.matcher);
            if matches.len() < 2 {
                continue;
            }
            let src: Vec<Vec2> = matches.iter().map(|m| pix(other_set.keypoint(m.src))).collect();
            let dst: Vec<Vec2> = matches.iter().map(|m| pix(ego_set.keypoint(m.dst))).collect();
            let qual: Vec<f64> = matches.iter().map(|m| m.distance).collect();
            let hint = hint_pix.as_ref();
            if let Ok(r) = ransac_rigid(&src, &dst, Some(&qual), hint, 0, &cfg.ransac_bv, rng) {
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

    /// Recovers `truth`'s frame pair with and without pruning (and with and
    /// without a warm hint), asserting the same bits and the same next RNG
    /// draw; returns the hypotheses swept and pruned by the plain call.
    fn assert_pruned_sweep_is_unpruned_sweep(truth: &Iso2, seed: u64) -> (u64, u64) {
        let recorder = bba_obs::Recorder::enabled();
        let aligner = BbAlign::new(BbAlignConfig::test_small()).with_recorder(recorder.clone());
        let (ego, other) = frame_pair(&aligner, truth);
        for hint in [None, Some(truth)] {
            let mut rng_pruned = StdRng::seed_from_u64(seed);
            let mut rng_full = StdRng::seed_from_u64(seed);
            let pruned = aligner.recover_with_hint(&ego, &other, hint, &mut rng_pruned).unwrap();
            let full = unpruned_recover(&aligner, &ego, &other, hint, &mut rng_full);
            assert_same_bits(&pruned, &full);
            assert_eq!(rng_pruned.random::<u64>(), rng_full.random::<u64>(), "hint {hint:?}");
        }
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
        assert!(!cells.is_empty());
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
