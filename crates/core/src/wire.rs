//! Bandwidth accounting: the paper's communication-cost argument.
//!
//! §III: "Due to the highly compressed nature of BV images, the
//! communication cost associated with transmitting this information is
//! significantly lower compared to transmitting raw Lidar data or even
//! processed feature maps." This module quantifies that comparison for a
//! given frame.

use crate::frame::{FrameBox, PerceptionFrame};
use bba_bev::{BevConfig, BevImage, BevMode};
use bba_geometry::{BevBox, Vec2};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Per-frame wire-size comparison between transmission strategies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WireReport {
    /// Raw point cloud (3 × f32 per point) — early fusion's payload.
    pub raw_cloud_bytes: usize,
    /// Dense intermediate feature map (the paper's "processed feature
    /// maps"): modelled as `C` channels of f16 over the BEV grid.
    pub feature_map_bytes: usize,
    /// BB-Align's payload: sparse BV image + boxes.
    pub bb_align_bytes: usize,
    /// Late fusion's payload: boxes only.
    pub boxes_only_bytes: usize,
}

impl WireReport {
    /// Number of feature channels assumed for the intermediate-fusion
    /// estimate (typical PointPillars-style BEV backbones use 64–384).
    pub const FEATURE_CHANNELS: usize = 64;

    /// Builds the report for one frame.
    ///
    /// `num_points` is the raw scan size the frame was built from.
    pub fn for_frame(frame: &PerceptionFrame, num_points: usize) -> WireReport {
        let h = frame.bev().size();
        WireReport {
            raw_cloud_bytes: num_points * 12,
            feature_map_bytes: h * h * Self::FEATURE_CHANNELS * 2,
            bb_align_bytes: frame.wire_size_bytes(),
            boxes_only_bytes: frame.boxes().len() * box_wire_bytes(),
        }
    }

    /// Compression factor of the BB-Align payload vs. the raw cloud.
    pub fn saving_vs_raw(&self) -> f64 {
        self.raw_cloud_bytes as f64 / self.bb_align_bytes.max(1) as f64
    }

    /// Compression factor vs. an intermediate feature map.
    pub fn saving_vs_features(&self) -> f64 {
        self.feature_map_bytes as f64 / self.bb_align_bytes.max(1) as f64
    }
}

/// Error returned when a wire payload cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the declared content.
    Truncated,
    /// The header magic or version did not match, or the declared raster
    /// geometry is unusable: a non-finite or non-positive range or
    /// resolution, or an image side that is not a power of two or is
    /// above 2048 px.
    BadHeader,
    /// A cell index lay outside the declared raster.
    CellOutOfRange,
    /// A box field (centre, extent, yaw or confidence) was NaN or ±∞.
    NonFiniteBox,
    /// The declared raster geometry (range and resolution) differs from
    /// the receiving engine's; see
    /// [`BbAlign::decode_frame`](crate::BbAlign::decode_frame).
    ForeignGeometry,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::BadHeader => {
                write!(f, "bad magic, unsupported version or unusable raster geometry")
            }
            DecodeError::CellOutOfRange => write!(f, "cell index outside raster"),
            DecodeError::NonFiniteBox => write!(f, "box field is NaN or infinite"),
            DecodeError::ForeignGeometry => {
                write!(f, "raster geometry differs from the receiving engine's")
            }
        }
    }
}

impl Error for DecodeError {}

const MAGIC: &[u8; 4] = b"BBA1";
/// Largest raster side (pixels) [`decode_frame`] accepts. The peer's
/// header declares the side, and decoding allocates a dense side² grid
/// for it, so an unchecked header could ask for terabytes. 2048 is four
/// times the largest preset ([`BevConfig::fine`], 512²) and bounds the
/// grid at 32 MiB.
const MAX_DECODED_SIDE: usize = 2048;
/// Height quantisation step (m per intensity unit): u8 spans 0–25.5 m,
/// covering every landmark the generator produces.
const HEIGHT_QUANT: f64 = 0.1;

/// Encodes a perception frame into the compact V2V payload:
///
/// ```text
/// magic "BBA1" | range f64 | resolution f64 | n_cells u32 | n_boxes u16
/// cells:  (u u16, v u16, height u8) × n_cells        — sparse BV image
/// boxes:  (cx f32, cy f32, ex f32, ey f32, yaw f32, conf f32) × n_boxes
/// ```
///
/// Heights are quantised to 0.1 m — far below the 0.8 m raster's
/// geometric error, so recovery quality is unaffected (see the round-trip
/// tests). This is the byte stream the paper's bandwidth argument is
/// about; [`PerceptionFrame::wire_size_bytes`] estimates its size without
/// building it.
pub fn encode_frame(frame: &PerceptionFrame) -> Vec<u8> {
    let bev = frame.bev();
    let cells: Vec<(u16, u16, u8)> = bev
        .grid()
        .iter_cells()
        .filter(|(_, _, &h)| h > 1e-9)
        .map(|(u, v, &h)| {
            (u as u16, v as u16, ((h / HEIGHT_QUANT).round() as u64).clamp(1, 255) as u8)
        })
        .collect();
    let mut out = Vec::with_capacity(26 + cells.len() * 5 + frame.boxes().len() * 24);
    out.extend_from_slice(MAGIC);
    // Raster geometry at full precision: the receiver's pixel↔world
    // mapping must match the sender's bit for bit.
    out.extend_from_slice(&bev.config().range.to_le_bytes());
    out.extend_from_slice(&bev.config().resolution.to_le_bytes());
    out.extend_from_slice(&(cells.len() as u32).to_le_bytes());
    out.extend_from_slice(&(frame.boxes().len() as u16).to_le_bytes());
    for (u, v, q) in cells {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
        out.push(q);
    }
    for b in frame.boxes() {
        encode_box(b, &mut out);
    }
    out
}

/// Serialises one box in the frame payload's box record format.
fn encode_box(b: &FrameBox, out: &mut Vec<u8>) {
    for value in
        [b.bev.center.x, b.bev.center.y, b.bev.extents.x, b.bev.extents.y, b.bev.yaw, b.confidence]
    {
        out.extend_from_slice(&(value as f32).to_le_bytes());
    }
}

/// Wire size of one serialised box record, derived from the serialiser
/// itself so size accounting ([`WireReport`]) cannot drift from the
/// actual encoding.
pub fn box_wire_bytes() -> usize {
    let mut buf = Vec::new();
    encode_box(
        &FrameBox { bev: BevBox::new(Vec2::ZERO, Vec2::new(1.0, 1.0), 0.0), confidence: 1.0 },
        &mut buf,
    );
    buf.len()
}

/// Decodes a payload produced by [`encode_frame`].
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation, bad header (including a raster
/// side that is not a power of two or exceeds 2048 px, both rejected
/// before anything is allocated), out-of-raster cell indices, or a box
/// field that is NaN or infinite.
pub fn decode_frame(bytes: &[u8]) -> Result<PerceptionFrame, DecodeError> {
    decode(bytes, None)
}

/// [`decode_frame`], and with `expected` set, [`DecodeError::ForeignGeometry`]
/// for a header that passes its checks but declares another raster
/// geometry, before the raster is allocated.
pub(crate) fn decode(
    bytes: &[u8],
    expected: Option<&BevConfig>,
) -> Result<PerceptionFrame, DecodeError> {
    let mut cursor = 0usize;
    let take = |cursor: &mut usize, n: usize| -> Result<&[u8], DecodeError> {
        let s = bytes.get(*cursor..*cursor + n).ok_or(DecodeError::Truncated)?;
        *cursor += n;
        Ok(s)
    };
    if take(&mut cursor, 4)? != MAGIC {
        return Err(DecodeError::BadHeader);
    }
    let f32_at = |s: &[u8]| f32::from_le_bytes(s.try_into().expect("4 bytes"));
    let f64_at = |s: &[u8]| f64::from_le_bytes(s.try_into().expect("8 bytes"));
    let range = f64_at(take(&mut cursor, 8)?);
    let resolution = f64_at(take(&mut cursor, 8)?);
    // NaN-safe: the header floats must be finite and positive.
    if !(range.is_finite() && range > 0.0 && resolution.is_finite() && resolution > 0.0) {
        return Err(DecodeError::BadHeader);
    }
    // The side comes from the peer: check it before sizing the grid by it.
    let config = BevConfig { range, resolution };
    let h = config.image_size();
    if !config.is_pow2() || h > MAX_DECODED_SIDE {
        return Err(DecodeError::BadHeader);
    }
    if expected.is_some_and(|bev| *bev != config) {
        return Err(DecodeError::ForeignGeometry);
    }
    let n_cells = u32::from_le_bytes(take(&mut cursor, 4)?.try_into().expect("4 bytes")) as usize;
    let n_boxes = u16::from_le_bytes(take(&mut cursor, 2)?.try_into().expect("2 bytes")) as usize;

    let mut grid = bba_signal::Grid::new(h, h, 0.0f64);
    for _ in 0..n_cells {
        let u = u16::from_le_bytes(take(&mut cursor, 2)?.try_into().expect("2 bytes")) as usize;
        let v = u16::from_le_bytes(take(&mut cursor, 2)?.try_into().expect("2 bytes")) as usize;
        let q = take(&mut cursor, 1)?[0];
        if u >= h || v >= h {
            return Err(DecodeError::CellOutOfRange);
        }
        grid[(u, v)] = q as f64 * HEIGHT_QUANT;
    }
    let mut boxes = Vec::with_capacity(n_boxes);
    for _ in 0..n_boxes {
        let mut vals = [0.0f64; 6];
        for v in &mut vals {
            *v = f32_at(take(&mut cursor, 4)?) as f64;
            if !v.is_finite() {
                return Err(DecodeError::NonFiniteBox);
            }
        }
        boxes.push(FrameBox {
            bev: BevBox::new(
                Vec2::new(vals[0], vals[1]),
                Vec2::new(vals[2].max(0.1), vals[3].max(0.1)),
                vals[4],
            ),
            confidence: vals[5].clamp(0.0, 1.0),
        });
    }
    Ok(PerceptionFrame::new(BevImage::from_grid(grid, config, BevMode::Height), boxes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBox;
    use bba_bev::{BevConfig, BevImage};
    use bba_geometry::{BevBox, Vec2, Vec3};

    fn frame_with_occupancy(cells: usize) -> PerceptionFrame {
        let cfg = BevConfig::test_small();
        let pts: Vec<Vec3> = (0..cells)
            .map(|i| Vec3::new((i % 50) as f64 * 0.45 - 11.0, (i / 50) as f64 * 0.45 - 11.0, 3.0))
            .collect();
        let bev = BevImage::height_map(pts, &cfg);
        let boxes = vec![FrameBox {
            bev: BevBox::new(Vec2::new(5.0, 0.0), Vec2::new(4.5, 1.9), 0.0),
            confidence: 0.8,
        }];
        PerceptionFrame::new(bev, boxes)
    }

    #[test]
    fn bb_align_payload_is_much_smaller_than_raw() {
        let frame = frame_with_occupancy(1000);
        let report = WireReport::for_frame(&frame, 20_000);
        assert_eq!(report.raw_cloud_bytes, 240_000);
        assert!(report.bb_align_bytes < 10_000);
        assert!(report.saving_vs_raw() > 20.0);
    }

    #[test]
    fn feature_maps_are_the_largest() {
        let frame = frame_with_occupancy(100);
        let report = WireReport::for_frame(&frame, 20_000);
        assert!(report.feature_map_bytes > report.raw_cloud_bytes);
        assert!(report.saving_vs_features() > report.saving_vs_raw());
    }

    #[test]
    fn late_fusion_is_smallest() {
        let frame = frame_with_occupancy(100);
        let report = WireReport::for_frame(&frame, 20_000);
        assert!(report.boxes_only_bytes < report.bb_align_bytes);
        assert_eq!(report.boxes_only_bytes, 24);
    }

    #[test]
    fn box_wire_bytes_matches_encoder() {
        // 6 × f32 per box record.
        assert_eq!(box_wire_bytes(), 24);
        // Adding one box to a frame grows the payload by exactly the
        // derived per-box size — WireReport accounting cannot drift from
        // the encoder.
        let frame = frame_with_occupancy(100);
        let mut boxes = frame.boxes().to_vec();
        boxes.push(FrameBox {
            bev: BevBox::new(Vec2::new(-3.0, 7.0), Vec2::new(4.2, 1.8), 0.4),
            confidence: 0.5,
        });
        let bigger = PerceptionFrame::new(frame.bev().clone(), boxes);
        assert_eq!(encode_frame(&bigger).len() - encode_frame(&frame).len(), box_wire_bytes());
        let report = WireReport::for_frame(&bigger, 1000);
        assert_eq!(report.boxes_only_bytes, 2 * box_wire_bytes());
    }

    #[test]
    fn encode_decode_roundtrip_preserves_structure() {
        let frame = frame_with_occupancy(400);
        let bytes = encode_frame(&frame);
        let back = decode_frame(&bytes).unwrap();
        assert_eq!(back.bev().config(), frame.bev().config());
        assert_eq!(back.boxes().len(), frame.boxes().len());
        // Occupancy pattern identical; heights within quantisation error.
        let mut max_err = 0.0f64;
        for (u, v, &h) in frame.bev().grid().iter_cells() {
            let hb = back.bev().grid()[(u, v)];
            assert_eq!(h > 1e-9, hb > 1e-9, "occupancy changed at ({u},{v})");
            if h > 1e-9 {
                max_err = max_err.max((h - hb).abs());
            }
        }
        assert!(max_err <= HEIGHT_QUANT / 2.0 + 1e-9, "height error {max_err}");
        // Box geometry within f32 precision.
        for (a, b) in frame.boxes().iter().zip(back.boxes()) {
            assert!((a.bev.center - b.bev.center).norm() < 1e-4);
            assert!((a.bev.yaw - b.bev.yaw).abs() < 1e-4);
            assert!((a.confidence - b.confidence).abs() < 1e-4);
        }
    }

    #[test]
    fn encoded_size_matches_estimate() {
        let frame = frame_with_occupancy(250);
        let bytes = encode_frame(&frame);
        // Header is 26 bytes; the estimate counts cells and boxes only.
        assert_eq!(bytes.len(), 26 + frame.wire_size_bytes());
        assert!(bytes.len() <= frame.wire_size_bytes() + 64);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode_frame(b"no").unwrap_err(), DecodeError::Truncated);
        assert_eq!(decode_frame(b"nope").unwrap_err(), DecodeError::BadHeader);
        assert_eq!(decode_frame(b"XXXX____________________").unwrap_err(), DecodeError::BadHeader);
        // Truncated mid-cells.
        let frame = frame_with_occupancy(50);
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes[..bytes.len() - 3]).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn decode_rejects_non_finite_box_fields() {
        let bytes = encode_frame(&frame_with_occupancy(50));
        // The frame's one box record closes the payload: cx, cy, ex, ey,
        // yaw, confidence.
        let record = bytes.len() - box_wire_bytes();
        assert!(decode_frame(&bytes).is_ok());
        for field in 0..6 {
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut corrupt = bytes.clone();
                let at = record + 4 * field;
                corrupt[at..at + 4].copy_from_slice(&bad.to_le_bytes());
                assert_eq!(
                    decode_frame(&corrupt).unwrap_err(),
                    DecodeError::NonFiniteBox,
                    "field {field} = {bad}"
                );
            }
        }
    }

    /// A 26-byte payload declaring the given raster geometry, no cells and
    /// no boxes.
    fn header(range: f64, resolution: f64) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&range.to_le_bytes());
        bytes.extend_from_slice(&resolution.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes
    }

    #[test]
    fn decode_rejects_hostile_raster_geometry_before_allocating() {
        for (range, resolution, side) in [
            // Would allocate a 32 TB grid.
            (1e4, 0.01, "2,000,000"),
            // Would panic in `BevConfig::validate`.
            (10.0, 1.0, "20"),
            // Would panic sizing the grid: the side saturates `usize`.
            (1.0, 1e-300, "2e300"),
            // A power of two, so only the side cap rejects it.
            (10485.76, 0.01, "2^21"),
        ] {
            let bytes = header(range, resolution);
            assert_eq!(bytes.len(), 26);
            assert_eq!(decode_frame(&bytes).unwrap_err(), DecodeError::BadHeader, "side {side}");
        }
        // The cap itself is accepted, its double is not.
        let cap = MAX_DECODED_SIDE as f64;
        assert_eq!(decode_frame(&header(cap / 2.0, 1.0)).unwrap().bev().size(), MAX_DECODED_SIDE);
        assert_eq!(decode_frame(&header(cap, 1.0)).unwrap_err(), DecodeError::BadHeader);
    }

    #[test]
    fn an_engine_rejects_a_foreign_raster_geometry() {
        use crate::config::BbAlignConfig;
        use crate::recover::BbAlign;
        let engine = BbAlign::new(BbAlignConfig::default());
        // Side 2048: the free decoder accepts it and allocates its raster.
        let big = header(1024.0, 1.0);
        assert_eq!(decode_frame(&big).unwrap().bev().size(), 2048);
        assert_eq!(engine.decode_frame(&big).unwrap_err(), DecodeError::ForeignGeometry);
        // Header checks come first.
        assert_eq!(engine.decode_frame(&header(10.0, 1.0)).unwrap_err(), DecodeError::BadHeader);
        // A real frame at another preset: it used to decode and then fail
        // recovery with `GeometryMismatch`.
        let small = encode_frame(&frame_with_occupancy(400));
        assert!(decode_frame(&small).is_ok());
        assert_eq!(engine.decode_frame(&small).unwrap_err(), DecodeError::ForeignGeometry);
        // At the engine's own geometry it decodes as the free decoder does.
        let small_engine = BbAlign::new(BbAlignConfig::test_small());
        assert_eq!(small_engine.decode_frame(&small).unwrap(), decode_frame(&small).unwrap());
    }

    /// Header geometry: arbitrary bit patterns for range and resolution,
    /// or a power-of-two side 2^k with k in 0..=24, which draws sides on
    /// both sides of [`MAX_DECODED_SIDE`].
    fn raster_geometry() -> impl proptest::strategy::Strategy<Value = (f64, f64)> {
        use proptest::prelude::{any, Strategy};
        proptest::prop_oneof![
            (any::<u64>(), any::<u64>()).prop_map(|(r, c)| (f64::from_bits(r), f64::from_bits(c))),
            (0..25u32, 1e-3..10.0f64).prop_map(|(k, c)| ((1u64 << k) as f64 * c / 2.0, c)),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// An arbitrary header followed by arbitrary bytes never panics,
        /// and whatever decodes has a capped power-of-two raster and only
        /// finite boxes.
        #[test]
        fn arbitrary_header_and_payload_decode_only_finite_boxes(
            (range, resolution) in raster_geometry(),
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
        ) {
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&range.to_le_bytes());
            bytes.extend_from_slice(&resolution.to_le_bytes());
            bytes.extend_from_slice(&tail);
            if let Ok(frame) = decode_frame(&bytes) {
                let side = frame.bev().size();
                proptest::prop_assert!(side.is_power_of_two() && side <= MAX_DECODED_SIDE);
                for b in frame.boxes() {
                    let fields = [
                        b.bev.center.x,
                        b.bev.center.y,
                        b.bev.extents.x,
                        b.bev.extents.y,
                        b.bev.yaw,
                        b.confidence,
                    ];
                    proptest::prop_assert!(fields.iter().all(|v| v.is_finite()), "{:?}", b);
                }
            }
        }
    }

    #[test]
    fn recovery_works_on_decoded_frames() {
        // The payload carries everything recovery needs: quantisation must
        // not break matching.
        use crate::config::BbAlignConfig;
        use crate::recover::BbAlign;
        use rand::SeedableRng;
        let aligner = BbAlign::new(BbAlignConfig::test_small());
        // A structured synthetic scene (walls + blobs) as in recover tests.
        let mut pts = Vec::new();
        for k in 0..=60 {
            let t = k as f64 / 60.0;
            pts.push(Vec3::new(-12.0 + 10.0 * t, 8.0, 6.0));
            pts.push(Vec3::new(5.0 + 9.0 * t, -10.0 + 4.0 * t, 8.0));
            pts.push(Vec3::new(-2.0, 8.0 + 7.0 * t, 5.0));
        }
        let truth = bba_geometry::Iso2::new(0.2, Vec2::new(4.0, -2.0));
        let inv = truth.inverse();
        let ego = aligner.frame_from_parts(pts.iter().copied(), std::iter::empty());
        let other_raw = aligner.frame_from_parts(
            pts.iter().map(|p| Vec3::from_xy(inv.apply(p.xy()), p.z)),
            std::iter::empty(),
        );
        // Ship the other frame through the wire.
        let other = decode_frame(&encode_frame(&other_raw)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let r = aligner.match_bv(&ego, &other, &mut rng).unwrap();
        let (dt, dr) = r.transform.error_to(&truth);
        assert!(dt < 1.0, "translation error {dt} after wire round-trip");
        assert!(dr < 0.1, "rotation error {dr}");
    }
}
