//! Brute-force descriptor matching with ratio test.
//!
//! Paper §IV-A: "we match these keypoints based on the similarity of their
//! descriptors ... measured by the Euclidean distance". The classic Lowe
//! ratio test rejects ambiguous matches (best ≈ second best), and an
//! optional mutual-consistency check keeps only pairs that are each other's
//! nearest neighbours.
//!
//! # Dot-product kernel
//!
//! Descriptors are L2-normalised, so Euclidean distance reduces to an
//! inner product: `‖a − b‖² = 2 − 2·⟨a, b⟩`, and because `√` is monotone,
//! ranking by ascending distance is ranking by *descending dot product*.
//! The production matcher ([`match_sets`]) exploits this on the flat
//! [`DescriptorSet`] layout: blocked row×row dot-product loops (one pool
//! block stays cache-hot across a block of query rows, and each query row
//! takes a whole block's dot products in one multi-row kernel call), a
//! top-(k+1) insertion select instead of sorting the full distance row,
//! and the distance materialised only for the surviving candidates. A
//! naive reference ([`match_sets_naive`]) computes the same candidates
//! with one-row dots and a full sort; the multi-row kernel returns the
//! one-row dot's bits for every row and both share the selection logic, so
//! their outputs are bit-identical (pinned by the
//! `kernel_matcher_equals_naive` proptest).
//!
//! Numerics: dot products accumulate in `f32` (that is the kernel's speed),
//! so a distance near zero carries absolute noise of order `√(dim)·ε_f32` —
//! irrelevant against matching thresholds, but exact zeros are not
//! preserved the way the old subtract-and-square distance did.

use crate::descriptor::Descriptor;
use crate::sweep::DescriptorSet;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// A correspondence between descriptor indices of two sets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Match {
    /// Index into the source (other car) descriptor set.
    pub src: usize,
    /// Index into the destination (ego car) descriptor set.
    pub dst: usize,
    /// Euclidean distance between the matched descriptors.
    pub distance: f64,
}

/// Matching parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatcherConfig {
    /// Lowe ratio: accept only when `best / second_best < ratio`.
    /// Set to 1.0 to disable.
    pub ratio: f64,
    /// Require the match to be mutual (src's best is dst AND dst's best is
    /// src).
    pub mutual: bool,
    /// Absolute distance cap; matches farther than this are rejected.
    pub max_distance: f64,
    /// Emit up to this many nearest candidates per source descriptor
    /// (k > 1 trades precision for recall; RANSAC downstream rejects the
    /// extra outliers). The ratio test compares candidate `k` against
    /// candidate `k+1`; the mutual check applies only to `k = 0`.
    pub keep_top_k: usize,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig { ratio: 0.85, mutual: true, max_distance: 1.2, keep_top_k: 1 }
    }
}

/// Query rows processed per pool-block pass.
const QUERY_BLOCK: usize = 16;

/// Pool rows per cache block: sized so a block of vectors (~32 KiB) stays
/// resident while it is streamed against a whole query block, and rounded
/// down to a multiple of the eight rows [`bba_simd::dot_f32_rows`] computes
/// per pass.
fn pool_block_rows(dim: usize) -> usize {
    (32 * 1024 / (dim.max(1) * std::mem::size_of::<f32>())).clamp(8, 64) & !7
}

/// Four-lane blocked dot product ([`bba_simd::dot_f32`]). The naive
/// reference calls it per row; the blocked kernel calls
/// [`bba_simd::dot_f32_rows`], which returns the same bits for every row,
/// so their dot products — and hence candidate rankings — agree
/// bit-for-bit; the SIMD paths keep the same four-lane accumulator
/// blocking, so vectorisation does not move bits either.
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    bba_simd::dot_f32(a, b)
}

/// Distance from a dot product of unit vectors: `√(2 − 2·⟨a,b⟩)`, clamped
/// against rounding pushing the radicand negative.
#[inline]
fn dot_distance(d: f32) -> f64 {
    (2.0 - 2.0 * d as f64).max(0.0).sqrt()
}

/// Inserts `(j, dot)` into a best-first candidate list of capacity `cap`.
///
/// Ordering is descending dot with ties broken towards the earlier pool
/// index — identical to a stable sort by descending dot when candidates
/// arrive in ascending `j`, which both callers guarantee.
#[inline]
fn push_candidate(cands: &mut Vec<(u32, f32)>, cap: usize, j: u32, d: f32) {
    if cands.len() == cap {
        match cands.last() {
            Some(&(_, worst)) if d.total_cmp(&worst) == Ordering::Greater => {}
            _ => return,
        }
    }
    let mut pos = cands.len();
    while pos > 0 && d.total_cmp(&cands[pos - 1].1) == Ordering::Greater {
        pos -= 1;
    }
    cands.insert(pos, (j, d));
    if cands.len() > cap {
        cands.pop();
    }
}

/// For every `q` row, its `cap` best pool rows as `(pool_index, dot)`,
/// best-first. Blocked: the pool (packed once per call) is streamed in
/// cache-sized tiles reused across all query rows of a block; each query
/// row takes a whole tile's dot products in one multi-row kernel call,
/// then offers them in ascending pool order.
fn blocked_topk(q: &DescriptorSet, pool: &DescriptorSet, cap: usize) -> Vec<Vec<(u32, f32)>> {
    let n = q.len();
    let tile = pool_block_rows(q.dim());
    let packed = bba_simd::PackedRows::new(pool.data(), pool.len(), pool.dim());
    let mut tops: Vec<Vec<(u32, f32)>> = vec![Vec::with_capacity(cap + 1); n];
    let mut dots = vec![0.0f32; tile];
    for lo in (0..n).step_by(QUERY_BLOCK) {
        let hi = (lo + QUERY_BLOCK).min(n);
        let mut jlo = 0;
        while jlo < pool.len() {
            let jhi = (jlo + tile).min(pool.len());
            let dots = &mut dots[..jhi - jlo];
            for (top, i) in tops[lo..hi].iter_mut().zip(lo..hi) {
                bba_simd::dot_f32_rows(q.row(i), &packed, jlo, dots);
                for (j, &d) in (jlo..).zip(dots.iter()) {
                    push_candidate(top, cap, j as u32, d);
                }
            }
            jlo = jhi;
        }
    }
    tops
}

/// Applies cap / ratio / mutual selection to one query row's best-first
/// candidates. Shared verbatim between the kernel and the naive reference.
fn select_matches(
    i: usize,
    cands: &[(u32, f32)],
    k: usize,
    config: &MatcherConfig,
    dst_best: Option<&[u32]>,
    out: &mut Vec<Match>,
) {
    for rank in 0..k.min(cands.len()) {
        let (j, d) = cands[rank];
        let d1 = dot_distance(d);
        if d1 > config.max_distance {
            break; // candidates are best-first; the rest are farther
        }
        if config.ratio < 1.0 {
            if let Some(&(_, d_next)) = cands.get(rank + 1) {
                if d1 >= config.ratio * dot_distance(d_next) {
                    break;
                }
            }
        }
        if rank == 0 {
            if let Some(best) = dst_best {
                if best[j as usize] != i as u32 {
                    break;
                }
            }
        }
        out.push(Match { src: i, dst: j as usize, distance: d1 });
    }
}

/// Matches `src` descriptors against `dst` descriptors on the flat
/// [`DescriptorSet`] layout (the stage-1 production path).
///
/// Returns matches sorted by ascending distance.
///
/// # Panics
///
/// Panics if the two non-empty sets have different descriptor dimensions.
pub fn match_sets(src: &DescriptorSet, dst: &DescriptorSet, config: &MatcherConfig) -> Vec<Match> {
    if src.is_empty() || dst.is_empty() {
        return Vec::new();
    }
    assert_eq!(src.dim(), dst.dim(), "descriptor dimensionality mismatch");
    let k = config.keep_top_k.max(1);

    // dst→src best indices for the mutual check (top-1 with the same
    // kernel, directions swapped).
    let dst_best: Option<Vec<u32>> =
        config.mutual.then(|| blocked_topk(dst, src, 1).into_iter().map(|c| c[0].0).collect());

    let per_src = blocked_topk(src, dst, k + 1);
    let mut out = Vec::new();
    for (i, cands) in per_src.iter().enumerate() {
        select_matches(i, cands, k, config, dst_best.as_deref(), &mut out);
    }
    // Stable sort on a total order: ties keep query order, and NaN
    // distances (impossible for finite descriptors, but no longer a panic)
    // sort last instead of aborting the recovery.
    out.sort_by(|a, b| a.distance.total_cmp(&b.distance));
    out
}

/// Serial reference matcher: full dot-product rows and a stable sort in
/// place of the blocked top-k select. Same `dot`, same selection logic,
/// same output bits as [`match_sets`] — kept public (but hidden) so the
/// equivalence proptests and the `stage1` bench can pit the kernel against
/// it from outside the crate.
#[doc(hidden)]
pub fn match_sets_naive(
    src: &DescriptorSet,
    dst: &DescriptorSet,
    config: &MatcherConfig,
) -> Vec<Match> {
    if src.is_empty() || dst.is_empty() {
        return Vec::new();
    }
    assert_eq!(src.dim(), dst.dim(), "descriptor dimensionality mismatch");
    let k = config.keep_top_k.max(1);

    let topk = |q: &DescriptorSet, pool: &DescriptorSet, cap: usize| -> Vec<Vec<(u32, f32)>> {
        (0..q.len())
            .map(|i| {
                let mut all: Vec<(u32, f32)> =
                    (0..pool.len()).map(|j| (j as u32, dot(q.row(i), pool.row(j)))).collect();
                all.sort_by(|a, b| b.1.total_cmp(&a.1));
                all.truncate(cap);
                all
            })
            .collect()
    };

    let dst_best: Option<Vec<u32>> =
        config.mutual.then(|| topk(dst, src, 1).into_iter().map(|c| c[0].0).collect());
    let per_src = topk(src, dst, k + 1);
    let mut out = Vec::new();
    for (i, cands) in per_src.iter().enumerate() {
        select_matches(i, cands, k, config, dst_best.as_deref(), &mut out);
    }
    out.sort_by(|a, b| a.distance.total_cmp(&b.distance));
    out
}

/// Matches `src` descriptors against `dst` descriptors (AoS convenience
/// wrapper over [`match_sets`]).
///
/// Returns matches sorted by ascending distance.
pub fn match_descriptors(
    src: &[Descriptor],
    dst: &[Descriptor],
    config: &MatcherConfig,
) -> Vec<Match> {
    if src.is_empty() || dst.is_empty() {
        return Vec::new();
    }
    match_sets(&DescriptorSet::from_descriptors(src), &DescriptorSet::from_descriptors(dst), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keypoints::Keypoint;

    fn desc(at: usize, v: &[f32]) -> Descriptor {
        // L2-normalise to mirror real descriptors.
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        Descriptor {
            keypoint: Keypoint { u: at, v: at, score: 1.0 },
            vector: v.iter().map(|x| x / norm.max(1e-12)).collect(),
        }
    }

    #[test]
    fn empty_inputs_give_no_matches() {
        let a = [desc(0, &[1.0, 0.0])];
        assert!(match_descriptors(&[], &a, &MatcherConfig::default()).is_empty());
        assert!(match_descriptors(&a, &[], &MatcherConfig::default()).is_empty());
    }

    #[test]
    fn identical_sets_match_one_to_one() {
        let set: Vec<Descriptor> = vec![
            desc(0, &[1.0, 0.0, 0.0, 0.0]),
            desc(1, &[0.0, 1.0, 0.0, 0.0]),
            desc(2, &[0.0, 0.0, 1.0, 0.0]),
        ];
        let matches = match_descriptors(&set, &set, &MatcherConfig::default());
        assert_eq!(matches.len(), 3);
        for m in matches {
            assert_eq!(m.src, m.dst);
            // The dot identity leaves √(ε_f32)-order noise on exact-match
            // distances; 1e-3 is far below any matching threshold.
            assert!(m.distance < 1e-3);
        }
    }

    #[test]
    fn ratio_test_rejects_ambiguous() {
        // dst contains two near-identical candidates: ambiguous for src[0].
        let src = [desc(0, &[1.0, 0.05, 0.0, 0.0])];
        let dst = [desc(0, &[1.0, 0.0, 0.0, 0.0]), desc(1, &[1.0, 0.1, 0.0, 0.0])];
        let strict = MatcherConfig { ratio: 0.5, mutual: false, max_distance: 10.0, keep_top_k: 1 };
        assert!(match_descriptors(&src, &dst, &strict).is_empty());
        let lax = MatcherConfig { ratio: 1.0, mutual: false, max_distance: 10.0, keep_top_k: 1 };
        assert_eq!(match_descriptors(&src, &dst, &lax).len(), 1);
    }

    #[test]
    fn mutual_check_rejects_one_sided() {
        // src[1] is closer to dst[0] than src[0] is, so src[0]→dst[0] is
        // not mutual.
        let src = [desc(0, &[1.0, 0.3, 0.0, 0.0]), desc(1, &[1.0, 0.05, 0.0, 0.0])];
        let dst = [desc(0, &[1.0, 0.0, 0.0, 0.0])];
        let cfg = MatcherConfig { ratio: 1.0, mutual: true, max_distance: 10.0, keep_top_k: 1 };
        let matches = match_descriptors(&src, &dst, &cfg);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].src, 1);
    }

    #[test]
    fn max_distance_caps_matches() {
        let src = [desc(0, &[1.0, 0.0, 0.0, 0.0])];
        let dst = [desc(0, &[0.0, 1.0, 0.0, 0.0])]; // distance √2
        let cfg = MatcherConfig { ratio: 1.0, mutual: false, max_distance: 1.0, keep_top_k: 1 };
        assert!(match_descriptors(&src, &dst, &cfg).is_empty());
    }

    #[test]
    fn output_sorted_by_distance() {
        let src = [
            desc(0, &[1.0, 0.0, 0.0, 0.0]),
            desc(1, &[0.0, 1.0, 0.02, 0.0]),
            desc(2, &[0.0, 0.0, 1.0, 0.1]),
        ];
        let dst = [
            desc(0, &[1.0, 0.01, 0.0, 0.0]),
            desc(1, &[0.0, 1.0, 0.0, 0.0]),
            desc(2, &[0.0, 0.0, 1.0, 0.0]),
        ];
        let cfg = MatcherConfig { ratio: 1.0, mutual: false, max_distance: 10.0, keep_top_k: 1 };
        let matches = match_descriptors(&src, &dst, &cfg);
        assert_eq!(matches.len(), 3);
        for pair in matches.windows(2) {
            assert!(pair[0].distance <= pair[1].distance);
        }
    }

    #[test]
    fn kernel_agrees_with_naive_reference() {
        // Pseudo-random unit vectors, enough rows to cross several pool
        // tiles and query blocks.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u32 << 24) as f32
        };
        let make = |n: usize, dim: usize, next: &mut dyn FnMut() -> f32| -> Vec<Descriptor> {
            (0..n).map(|i| desc(i, &(0..dim).map(|_| next() - 0.5).collect::<Vec<_>>())).collect()
        };
        let src = DescriptorSet::from_descriptors(&make(70, 24, &mut next));
        let dst = DescriptorSet::from_descriptors(&make(90, 24, &mut next));
        for cfg in [
            MatcherConfig::default(),
            MatcherConfig { ratio: 1.0, mutual: false, max_distance: 1.5, keep_top_k: 2 },
            MatcherConfig { ratio: 0.97, mutual: true, max_distance: 2.0, keep_top_k: 3 },
        ] {
            assert_eq!(match_sets(&src, &dst, &cfg), match_sets_naive(&src, &dst, &cfg));
        }
    }

    #[test]
    fn push_candidate_mirrors_stable_sort() {
        let items: Vec<(u32, f32)> =
            vec![(0, 0.5), (1, 0.9), (2, 0.9), (3, 0.1), (4, 1.0), (5, 0.9)];
        for cap in 1..=6 {
            let mut fast = Vec::new();
            for &(j, d) in &items {
                push_candidate(&mut fast, cap, j, d);
            }
            let mut sorted = items.clone();
            sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
            sorted.truncate(cap);
            assert_eq!(fast, sorted, "cap {cap}");
        }
    }
}
