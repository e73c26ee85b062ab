//! Property tests for the place descriptor and index: rotation
//! tolerance, scene separation, and thread-width determinism.

use bba_place::{PlaceConfig, PlaceDescriptor, PlaceIndex};
use bba_signal::{Grid, MaxIndexMap};
use proptest::prelude::*;

const SIZE: usize = 64;

/// A deterministic synthetic scene: scattered line segments of bright
/// structure, the same shape of content a BV image carries.
fn scene(seed: u64) -> Grid<f64> {
    let mut img = Grid::new(SIZE, SIZE, 0.0);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    for _ in 0..50 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let u = (state as usize >> 3) % SIZE;
        let v = (state as usize >> 23) % SIZE;
        let horizontal = state & 1 == 0;
        for d in 0..8 {
            let (uu, vv) = if horizontal { (u + d, v) } else { (u, v + d) };
            if uu < SIZE && vv < SIZE {
                img[(uu, vv)] = 4.0 + (state >> 40 & 0x3) as f64;
            }
        }
    }
    img
}

/// Rotate the image 90° counter-clockwise about the pixel-centre axis —
/// exactly the transform the descriptor is designed to absorb.
fn rot90(img: &Grid<f64>) -> Grid<f64> {
    let mut out = Grid::new(SIZE, SIZE, 0.0);
    for u in 0..SIZE {
        for v in 0..SIZE {
            out[(SIZE - 1 - v, u)] = img[(u, v)];
        }
    }
    out
}

fn descriptor_of(img: &Grid<f64>) -> PlaceDescriptor {
    let mim = MaxIndexMap::compute(img);
    PlaceDescriptor::from_mim(&mim, &PlaceConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A rotated view of the same scene must stay close in descriptor
    /// space: pair distances, orientation differences, and baseline-
    /// relative orientations are all preserved by rotation, so only the
    /// non-rotating NMS tiling (which may swap a few block winners)
    /// perturbs the constellation.
    #[test]
    fn rotation_changes_the_descriptor_only_slightly(seed in 1u64..5_000) {
        let img = scene(seed);
        let base = descriptor_of(&img);
        prop_assume!(!base.is_empty());
        let mut rotated = img;
        for _ in 0..3 {
            rotated = rot90(&rotated);
            let turned = descriptor_of(&rotated);
            let sim = base.similarity(&turned);
            prop_assert!(
                sim > 0.7,
                "rotated view of the same scene scored {sim}, expected > 0.7"
            );
        }
    }

    /// Two views of the same scene (rotated) must score higher than two
    /// different scenes: the separation the serve gate relies on.
    #[test]
    fn same_scene_beats_different_scene(seed in 1u64..5_000) {
        let img = scene(seed);
        let base = descriptor_of(&img);
        let rotated = descriptor_of(&rot90(&img));
        let other = descriptor_of(&scene(seed ^ 0xDEAD_BEEF));
        prop_assume!(!base.is_empty() && !other.is_empty());
        let same = base.similarity(&rotated);
        let cross = base.similarity(&other);
        prop_assert!(
            same > cross,
            "same-scene similarity {same} should exceed cross-scene {cross}"
        );
    }
}

/// Top-k ranking must be bit-identical at every thread width: scores are
/// independent dot products and the sort is a total order.
#[test]
fn top_k_is_identical_across_thread_widths() {
    let mut index = PlaceIndex::new();
    for id in 0..24u32 {
        index.update(id, descriptor_of(&scene(id as u64 + 1)));
    }
    let query = descriptor_of(&scene(7));
    let baseline = bba_par::with_threads(1, || index.top_k(&query, 10, Some(6)));
    assert_eq!(baseline.len(), 10);
    for width in 2..=8usize {
        let ranked = bba_par::with_threads(width, || index.top_k(&query, 10, Some(6)));
        assert_eq!(ranked, baseline, "ranking diverged at {width} threads");
    }
}
