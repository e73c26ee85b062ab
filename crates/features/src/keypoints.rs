//! FAST-style corner detection with non-maximum suppression.
//!
//! The paper uses FAST \[33\] on BV images. The classic detector tests a
//! Bresenham circle of 16 pixels at radius 3: a pixel is a corner when at
//! least `arc_length` *contiguous* circle pixels are all brighter than
//! `center + threshold` or all darker than `center − threshold`. On sparse
//! height maps the bright arcs dominate (building edges against empty
//! ground), which is exactly the structure stage 1 keys on.

use bba_signal::Grid;
use serde::{Deserialize, Serialize};

/// The 16-pixel Bresenham circle of radius 3 used by FAST.
const CIRCLE: [(i32, i32); 16] = [
    (0, -3),
    (1, -3),
    (2, -2),
    (3, -1),
    (3, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 3),
    (-1, 3),
    (-2, 2),
    (-3, 1),
    (-3, 0),
    (-3, -1),
    (-2, -2),
    (-1, -3),
];

/// A detected keypoint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Keypoint {
    /// Column (pixel).
    pub u: usize,
    /// Row (pixel).
    pub v: usize,
    /// Corner score (sum of absolute contrast over the arc) — used for
    /// non-maximum suppression and capping.
    pub score: f64,
}

/// Detector parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeypointConfig {
    /// Intensity contrast threshold `t`.
    pub threshold: f64,
    /// Minimum contiguous arc length (classic FAST-9 uses 9).
    pub arc_length: usize,
    /// Non-maximum-suppression radius (pixels); 0 disables NMS.
    pub nms_radius: usize,
    /// Keep at most this many keypoints (highest score first).
    pub max_keypoints: usize,
    /// Ignore a border this many pixels wide.
    pub border: usize,
}

impl Default for KeypointConfig {
    fn default() -> Self {
        KeypointConfig {
            threshold: 0.8,
            arc_length: 9,
            nms_radius: 2,
            max_keypoints: 1500,
            border: 4,
        }
    }
}

/// Detects FAST corners in `img`.
///
/// Returns keypoints sorted by descending score, capped at
/// [`KeypointConfig::max_keypoints`].
///
/// Every run of `n` contiguous circle pixels covers at least `⌊n/4⌋` of the
/// four compass pixels (circle indices 0, 4, 8 and 12). A pixel with fewer
/// than `⌊arc_length/4⌋` compass pixels brighter than `center + threshold`
/// and fewer than that many darker than `center − threshold` — the
/// classifier's own comparisons — therefore has no qualifying arc, and is
/// skipped before the 16-pixel classification. The pre-test rejects no
/// corner, so positions, order and scores are those of classifying every
/// pixel; below an arc length of 4 it rejects nothing.
pub fn detect_keypoints(img: &Grid<f64>, config: &KeypointConfig) -> Vec<Keypoint> {
    let need = config.arc_length / 4;
    let t = config.threshold;
    let w = img.width() as i32;
    let h = img.height() as i32;
    let border = (config.border.max(3)) as i32;
    let mut raw: Vec<Keypoint> = Vec::new();

    for v in border..h - border {
        let (up, row, down) =
            (img.row((v - 3) as usize), img.row(v as usize), img.row((v + 3) as usize));
        for u in border..w - border {
            let x = u as usize;
            let center = row[x];
            let compass = [up[x], row[x + 3], down[x], row[x - 3]];
            let bright = compass.iter().filter(|&&p| p - center > t).count();
            let dark = compass.iter().filter(|&&p| p - center < -t).count();
            if bright < need && dark < need {
                continue;
            }
            if let Some(score) = corner_score(img, u, v, config) {
                raw.push(Keypoint { u: x, v: v as usize, score });
            }
        }
    }
    suppress(raw, config)
}

/// Classifies the 16 circle pixels around `(u, v)` — brighter than
/// `center + threshold`, darker than `center − threshold`, or neither —
/// and returns the corner score when an arc of at least
/// [`KeypointConfig::arc_length`] qualifies.
fn corner_score(img: &Grid<f64>, u: i32, v: i32, config: &KeypointConfig) -> Option<f64> {
    let center = img[(u as usize, v as usize)];
    let t = config.threshold;
    let mut states = [0i8; 16];
    let mut diffs = [0.0f64; 16];
    for (k, &(dx, dy)) in CIRCLE.iter().enumerate() {
        let p = img[((u + dx) as usize, (v + dy) as usize)];
        let d = p - center;
        diffs[k] = d;
        states[k] = if d > t {
            1
        } else if d < -t {
            -1
        } else {
            0
        };
    }
    // Longest contiguous run (circular) of all-bright or all-dark.
    longest_run_score(&states, &diffs, config.arc_length)
}

/// Sorts corners by descending score (stable), suppresses every corner
/// within [`KeypointConfig::nms_radius`] of a stronger kept one, and caps
/// the result at [`KeypointConfig::max_keypoints`].
fn suppress(mut raw: Vec<Keypoint>, config: &KeypointConfig) -> Vec<Keypoint> {
    // Non-maximum suppression on a coarse occupancy grid.
    raw.sort_by(|a, b| b.score.total_cmp(&a.score));
    let mut kept: Vec<Keypoint> = Vec::new();
    if config.nms_radius == 0 {
        kept = raw;
    } else {
        let r = config.nms_radius as i64;
        let mut occupied: Vec<(i64, i64)> = Vec::new();
        for kp in raw {
            let pu = kp.u as i64;
            let pv = kp.v as i64;
            let clash =
                occupied.iter().any(|&(ou, ov)| (ou - pu).abs() <= r && (ov - pv).abs() <= r);
            if !clash {
                occupied.push((pu, pv));
                kept.push(kp);
                if kept.len() >= config.max_keypoints {
                    break;
                }
            }
        }
    }
    kept.truncate(config.max_keypoints);
    kept
}

/// The detector without the compass pre-test: every pixel classified.
#[cfg(test)]
fn detect_keypoints_reference(img: &Grid<f64>, config: &KeypointConfig) -> Vec<Keypoint> {
    let w = img.width() as i32;
    let h = img.height() as i32;
    let border = (config.border.max(3)) as i32;
    let mut raw: Vec<Keypoint> = Vec::new();
    for v in border..h - border {
        for u in border..w - border {
            if let Some(score) = corner_score(img, u, v, config) {
                raw.push(Keypoint { u: u as usize, v: v as usize, score });
            }
        }
    }
    suppress(raw, config)
}

/// Returns the corner score when a contiguous run of at least `min_len`
/// same-sign states exists, else `None`. The score is the summed absolute
/// contrast over the best run.
fn longest_run_score(states: &[i8; 16], diffs: &[f64; 16], min_len: usize) -> Option<f64> {
    let mut best: Option<f64> = None;
    for sign in [1i8, -1i8] {
        // Walk the doubled circle to handle wraparound.
        let mut run = 0usize;
        let mut run_score = 0.0;
        let mut best_for_sign: Option<f64> = None;
        for k in 0..32 {
            let i = k % 16;
            if states[i] == sign {
                run += 1;
                run_score += diffs[i].abs();
                if run >= min_len {
                    let capped = if run > 16 { run_score * 16.0 / run as f64 } else { run_score };
                    best_for_sign = Some(best_for_sign.map_or(capped, |b: f64| b.max(capped)));
                }
            } else {
                run = 0;
                run_score = 0.0;
            }
            if run >= 16 {
                break; // full circle
            }
        }
        if let Some(s) = best_for_sign {
            best = Some(best.map_or(s, |b: f64| b.max(s)));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A bright square on dark background: corners at the square's corners.
    fn square_image(size: usize, lo: usize, hi: usize) -> Grid<f64> {
        Grid::from_fn(size, size, |u, v| {
            if (lo..=hi).contains(&u) && (lo..=hi).contains(&v) {
                10.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn detects_square_corners() {
        let img = square_image(40, 12, 26);
        let kps = detect_keypoints(&img, &KeypointConfig::default());
        assert!(!kps.is_empty());
        // Every detected keypoint should be near the square's boundary.
        for kp in &kps {
            let on_boundary_u = (kp.u as i32 - 12).abs() <= 3 || (kp.u as i32 - 26).abs() <= 3;
            let on_boundary_v = (kp.v as i32 - 12).abs() <= 3 || (kp.v as i32 - 26).abs() <= 3;
            assert!(on_boundary_u || on_boundary_v, "stray keypoint at ({}, {})", kp.u, kp.v);
        }
        // At least the 4 corners are found.
        for corner in [(12, 12), (12, 26), (26, 12), (26, 26)] {
            let found = kps
                .iter()
                .any(|k| (k.u as i32 - corner.0).abs() <= 2 && (k.v as i32 - corner.1).abs() <= 2);
            assert!(found, "missing corner {corner:?}");
        }
    }

    #[test]
    fn flat_image_has_no_keypoints() {
        let img = Grid::new(32, 32, 5.0);
        assert!(detect_keypoints(&img, &KeypointConfig::default()).is_empty());
    }

    #[test]
    fn isolated_bright_pixel_is_a_dark_ring_corner() {
        // A lone bright pixel: the circle around it is uniformly darker.
        let mut img = Grid::new(32, 32, 0.0);
        img[(16, 16)] = 10.0;
        let kps = detect_keypoints(&img, &KeypointConfig::default());
        assert!(kps.iter().any(|k| k.u == 16 && k.v == 16));
    }

    #[test]
    fn threshold_gates_weak_corners() {
        let img = square_image(40, 12, 26).map(|&x| x * 0.05); // contrast 0.5
        let strict = KeypointConfig { threshold: 0.8, ..Default::default() };
        assert!(detect_keypoints(&img, &strict).is_empty());
        let lax = KeypointConfig { threshold: 0.1, ..Default::default() };
        assert!(!detect_keypoints(&img, &lax).is_empty());
    }

    #[test]
    fn nms_separates_keypoints() {
        let img = square_image(40, 12, 26);
        let cfg = KeypointConfig { nms_radius: 3, ..Default::default() };
        let kps = detect_keypoints(&img, &cfg);
        for (i, a) in kps.iter().enumerate() {
            for b in kps.iter().skip(i + 1) {
                let du = (a.u as i64 - b.u as i64).abs();
                let dv = (a.v as i64 - b.v as i64).abs();
                assert!(du > 3 || dv > 3, "keypoints too close: {a:?} {b:?}");
            }
        }
    }

    #[test]
    fn max_keypoints_caps_output() {
        let img = Grid::from_fn(64, 64, |u, v| if (u + v) % 7 == 0 { 10.0 } else { 0.0 });
        let cfg = KeypointConfig { max_keypoints: 10, nms_radius: 0, ..Default::default() };
        let kps = detect_keypoints(&img, &cfg);
        assert!(kps.len() <= 10);
        // Sorted by descending score.
        for pair in kps.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn border_is_respected() {
        let mut img = Grid::new(32, 32, 0.0);
        img[(1, 1)] = 10.0; // inside the border margin
        let kps = detect_keypoints(&img, &KeypointConfig::default());
        assert!(kps.is_empty());
    }

    /// A pixel code: background 0, a value on the `0.25` lattice (so
    /// differences to the centre land exactly on `± threshold` for the
    /// lattice thresholds), or NaN.
    fn pixel(code: u8, m: i32) -> f64 {
        match code {
            0..=8 => 0.0,
            9..=18 => m as f64 * 0.25,
            _ => f64::NAN,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The compass pre-test only skips pixels the full classification
        /// rejects: the detector returns the reference's keypoints — order,
        /// position and score bits — for every arc length 0–17 (below 4
        /// the pre-test rejects nothing), lattice, zero and negative
        /// thresholds, NaN pixels, NMS on and off and small caps.
        #[test]
        fn compass_pretest_keeps_every_corner(
            pixels in proptest::collection::vec((0u8..20, -8i32..9), 576..577),
            width in 7usize..25,
            height in 7usize..25,
            block in 1usize..4,
            threshold in prop_oneof![
                Just(-0.5f64), Just(-0.25), Just(0.0), Just(0.25), Just(0.5), Just(0.75),
                -1.0..2.0f64,
            ],
            arc_length in 0usize..18,
            nms_radius in 0usize..4,
            max_keypoints in prop_oneof![1usize..6, Just(1500usize)],
            border in 0usize..6,
        ) {
            // Blocks of `block²` equal pixels give long bright and dark arcs
            // at their corners; single pixels give short ones.
            let img = Grid::from_fn(width, height, |u, v| {
                let (code, m) = pixels[(v / block) * 24 + u / block];
                pixel(code, m)
            });
            let cfg = KeypointConfig { threshold, arc_length, nms_radius, max_keypoints, border };
            let key = |kps: Vec<Keypoint>| -> Vec<(usize, usize, u64)> {
                kps.iter().map(|k| (k.u, k.v, k.score.to_bits())).collect()
            };
            prop_assert_eq!(
                key(detect_keypoints(&img, &cfg)),
                key(detect_keypoints_reference(&img, &cfg))
            );
        }
    }
}
