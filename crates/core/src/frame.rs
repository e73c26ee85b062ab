//! The transmissible perception frame: BV image + BEV boxes.
//!
//! This is precisely what the other car sends the ego car in the paper's
//! protocol (§III "Pose Recovery"): its BV image `B_other` and its detected
//! object bounding boxes projected to BEV rectangles `B_other` — not the
//! raw point cloud, which is the bandwidth argument for the whole design.
//!
//! A frame also owns a private, lazily filled slot for its stage-1
//! features (`FrameFeatures`): stage 1 is a per-image computation, so a
//! frame that enters several pairs, or feeds place recognition as well,
//! pays for its MIM and keypoints once. The slot is not part of the
//! frame's value: clones share it, and equality, serialisation and the
//! wire form ignore it.

use crate::config::BbAlignConfig;
use bba_bev::BevImage;
use bba_features::{DescriptorSet, Keypoint};
use bba_geometry::BevBox;
use bba_signal::MaxIndexMap;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A detected BEV box with its confidence, as transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameBox {
    /// The BEV rectangle (sensor frame).
    pub bev: BevBox,
    /// Detector confidence in `[0, 1]`.
    pub confidence: f64,
}

/// One car's transmissible perception payload.
///
/// The frame keeps the stage-1 features a recovery engine computes for it
/// (MIM, keypoints, ego descriptors), so each is computed once however
/// many pairs the frame enters. Clones share them; `==`, serialisation and
/// the wire form ignore them. [`PerceptionFrame::new`] starts without
/// them.
#[derive(Debug, Clone)]
pub struct PerceptionFrame {
    bev: BevImage,
    boxes: Vec<FrameBox>,
    /// Stage-1 features, filled by the first engine that needs them and
    /// shared by every clone of this frame.
    features: Arc<OnceLock<FrameFeatures>>,
}

/// The stage-1 products of one frame under one engine configuration: the
/// Log-Gabor MIM, the keypoints detected on it, and — once the frame has
/// been used as ego — its hypothesis-0 descriptor set.
///
/// Every field is a pure function of the frame's BV image and `config`,
/// so an engine reuses them only when its own configuration equals
/// `config`.
#[derive(Clone)]
pub(crate) struct FrameFeatures {
    /// The engine configuration the features were computed under.
    pub(crate) config: BbAlignConfig,
    /// The frame's Maximum Index Map.
    pub(crate) mim: MaxIndexMap,
    /// Stage-1 keypoints (on the MIM amplitude or the raw raster, per
    /// `config.keypoint_source`).
    pub(crate) keypoints: Vec<Keypoint>,
    /// Descriptors at rotation hypothesis 0, the form the ego side is
    /// matched in.
    pub(crate) ego_set: OnceLock<DescriptorSet>,
}

impl fmt::Debug for FrameFeatures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameFeatures")
            .field("keypoints", &self.keypoints.len())
            .field("ego_set", &self.ego_set.get().map(DescriptorSet::len))
            .finish_non_exhaustive()
    }
}

impl PerceptionFrame {
    /// Assembles a frame from a rasterised BV image and BEV boxes.
    pub fn new(bev: BevImage, boxes: Vec<FrameBox>) -> Self {
        PerceptionFrame { bev, boxes, features: Arc::default() }
    }

    /// The BV image.
    pub fn bev(&self) -> &BevImage {
        &self.bev
    }

    /// The detected boxes.
    pub fn boxes(&self) -> &[FrameBox] {
        &self.boxes
    }

    /// Boxes with confidence at least `min_confidence`.
    pub fn confident_boxes(&self, min_confidence: f64) -> impl Iterator<Item = &FrameBox> {
        self.boxes.iter().filter(move |b| b.confidence >= min_confidence)
    }

    /// Approximate transmitted size in bytes: sparse BV image plus
    /// 24 bytes per box (2×f32 centre, 2×f32 extents, f32 yaw, f32
    /// confidence).
    pub fn wire_size_bytes(&self) -> usize {
        self.bev.wire_size_bytes() + self.boxes.len() * 24
    }

    /// The frame's feature slot.
    pub(crate) fn features(&self) -> &OnceLock<FrameFeatures> {
        &self.features
    }
}

impl PartialEq for PerceptionFrame {
    fn eq(&self, other: &Self) -> bool {
        self.bev == other.bev && self.boxes == other.boxes
    }
}

impl Serialize for PerceptionFrame {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("bev".to_string(), self.bev.to_value()),
            ("boxes".to_string(), self.boxes.to_value()),
        ])
    }
}

impl Deserialize for PerceptionFrame {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(PerceptionFrame::new(
            Deserialize::from_value(serde::map_get(v, "bev")?)?,
            Deserialize::from_value(serde::map_get(v, "boxes")?)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bba_bev::BevConfig;
    use bba_geometry::{Vec2, Vec3};

    fn sample_frame() -> PerceptionFrame {
        let cfg = BevConfig::test_small();
        let bev =
            BevImage::height_map(vec![Vec3::new(1.0, 2.0, 5.0), Vec3::new(-4.0, 3.0, 2.0)], &cfg);
        let boxes = vec![
            FrameBox {
                bev: BevBox::new(Vec2::new(10.0, 0.0), Vec2::new(4.5, 1.9), 0.1),
                confidence: 0.9,
            },
            FrameBox {
                bev: BevBox::new(Vec2::new(-5.0, 8.0), Vec2::new(4.2, 1.8), -0.4),
                confidence: 0.2,
            },
        ];
        PerceptionFrame::new(bev, boxes)
    }

    #[test]
    fn accessors_and_filtering() {
        let f = sample_frame();
        assert_eq!(f.boxes().len(), 2);
        assert_eq!(f.confident_boxes(0.5).count(), 1);
        assert_eq!(f.confident_boxes(0.0).count(), 2);
    }

    #[test]
    fn wire_size_combines_image_and_boxes() {
        let f = sample_frame();
        assert_eq!(f.wire_size_bytes(), f.bev().wire_size_bytes() + 2 * 24);
        // Two occupied cells → 10 bytes of image payload.
        assert_eq!(f.bev().wire_size_bytes(), 10);
    }
}
