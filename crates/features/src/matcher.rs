//! Brute-force descriptor matching by Euclidean distance.
//!
//! Paper §IV-A: "we match these keypoints based on the similarity of their
//! descriptors ... measured by the Euclidean distance". Each source
//! descriptor keeps its `keep_top_k` nearest destination descriptors within
//! `max_distance`. Stage 1 feeds RANSAC, which rejects outliers itself, so
//! no ratio test or mutual check thins the candidates: between viewpoints
//! tens of metres apart the true correspondences are scarce, and strict
//! matching starves RANSAC of them.
//!
//! # Dot-product kernel
//!
//! Descriptors are L2-normalised, so Euclidean distance reduces to an
//! inner product: `‖a − b‖² = 2 − 2·⟨a, b⟩`, and because `√` is monotone,
//! ranking by ascending distance is ranking by *descending dot product*.
//! The production matcher ([`match_sets`]) exploits this on the flat
//! [`DescriptorSet`] layout against a destination packed once
//! ([`MatchPool`]): blocked row×row dot-product loops (one pool block
//! stays cache-hot across a block of query rows, and each query row takes
//! a whole block's dot products in one multi-row kernel call), a
//! top-k insertion select instead of sorting the full distance row,
//! and the distance materialised only for the surviving candidates. A
//! naive reference ([`match_sets_naive`], the test oracle) computes the
//! same candidates with one-row dots and a full sort; the multi-row kernel
//! returns the one-row dot's bits for every row and both share the
//! selection logic, so their outputs are bit-identical (pinned by the
//! `kernel_matcher_equals_naive` proptest).
//!
//! Numerics: dot products accumulate in `f32` (that is the kernel's speed),
//! so a distance near zero carries absolute noise of order `√(dim)·ε_f32` —
//! irrelevant against matching thresholds, but exact zeros are not
//! preserved the way the old subtract-and-square distance did.

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
    /// Absolute distance cap; matches farther than this are rejected.
    pub max_distance: f64,
    /// Emit up to this many nearest candidates per source descriptor
    /// (k > 1 trades precision for recall; RANSAC downstream rejects the
    /// extra outliers).
    pub keep_top_k: usize,
}

impl Default for MatcherConfig {
    /// The stage-1 engine's matching: two candidates per keypoint within a
    /// distance of 1.5 (unit descriptors lie at most 2 apart).
    fn default() -> Self {
        MatcherConfig { max_distance: 1.5, keep_top_k: 2 }
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

/// A destination descriptor set packed once for [`match_sets`]: its rows
/// in the [`bba_simd::PackedRows`] layout the multi-row dot kernel reads.
/// Stage 1 packs each ego set once and matches every rotation
/// hypothesis's set against it. Row `j` of the pool is row `j` of the set
/// it was built from, which is what [`Match::dst`] indexes.
#[derive(Debug, Clone)]
pub struct MatchPool {
    rows: bba_simd::PackedRows,
}

impl MatchPool {
    /// Packs `set`'s rows.
    pub fn new(set: &DescriptorSet) -> Self {
        MatchPool { rows: bba_simd::PackedRows::new(set.data(), set.len(), set.dim()) }
    }

    /// Number of descriptors.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the pool holds no descriptors.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Vector length of every descriptor.
    pub fn dim(&self) -> usize {
        self.rows.dim()
    }
}

/// For every `q` row, its `cap` best pool rows as `(pool_index, dot)`,
/// best-first. Blocked: the packed pool is streamed in cache-sized tiles
/// reused across all query rows of a block; each query row takes a whole
/// tile's dot products in one multi-row kernel call, then offers them in
/// ascending pool order.
fn blocked_topk(q: &DescriptorSet, pool: &MatchPool, cap: usize) -> Vec<Vec<(u32, f32)>> {
    let n = q.len();
    let tile = pool_block_rows(q.dim());
    let packed = &pool.rows;
    let mut tops: Vec<Vec<(u32, f32)>> = vec![Vec::with_capacity(cap + 1); n];
    let mut dots = vec![0.0f32; tile];
    for lo in (0..n).step_by(QUERY_BLOCK) {
        let hi = (lo + QUERY_BLOCK).min(n);
        let mut jlo = 0;
        while jlo < pool.len() {
            let jhi = (jlo + tile).min(pool.len());
            let dots = &mut dots[..jhi - jlo];
            for (top, i) in tops[lo..hi].iter_mut().zip(lo..hi) {
                bba_simd::dot_f32_rows(q.row(i), packed, jlo, dots);
                for (j, &d) in (jlo..).zip(dots.iter()) {
                    push_candidate(top, cap, j as u32, d);
                }
            }
            jlo = jhi;
        }
    }
    tops
}

/// Emits every query row's best-first candidates up to the distance cap,
/// then sorts the matches by distance. Shared verbatim between the kernel
/// and the naive reference.
fn select_matches(per_src: &[Vec<(u32, f32)>], config: &MatcherConfig) -> Vec<Match> {
    let mut out = Vec::new();
    for (i, cands) in per_src.iter().enumerate() {
        for &(j, d) in cands {
            let distance = dot_distance(d);
            if distance > config.max_distance {
                break; // candidates are best-first; the rest are farther
            }
            out.push(Match { src: i, dst: j as usize, distance });
        }
    }
    // Stable sort on a total order: ties keep query order, and NaN
    // distances (impossible for finite descriptors, but no longer a panic)
    // sort last instead of aborting the recovery.
    out.sort_by(|a, b| a.distance.total_cmp(&b.distance));
    out
}

/// Matches `src` descriptors against the packed `dst` descriptors (the
/// stage-1 production path).
///
/// Returns matches sorted by ascending distance.
///
/// # Panics
///
/// Panics if the two non-empty sets have different descriptor dimensions.
pub fn match_sets(src: &DescriptorSet, dst: &MatchPool, config: &MatcherConfig) -> Vec<Match> {
    if src.is_empty() || dst.is_empty() {
        return Vec::new();
    }
    assert_eq!(src.dim(), dst.dim(), "descriptor dimensionality mismatch");
    select_matches(&blocked_topk(src, dst, config.keep_top_k.max(1)), config)
}

/// Serial reference matcher, the test oracle of [`match_sets`]: full
/// dot-product rows and a stable sort in place of the blocked top-k
/// select. Same `dot`, same selection logic, same output bits — kept
/// public (but hidden) so the equivalence proptests and the `stage1` bench
/// can pit the kernel against it from outside the crate.
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
    let per_src: Vec<Vec<(u32, f32)>> = (0..src.len())
        .map(|i| {
            let mut all: Vec<(u32, f32)> =
                (0..dst.len()).map(|j| (j as u32, dot(src.row(i), dst.row(j)))).collect();
            all.sort_by(|a, b| b.1.total_cmp(&a.1));
            all.truncate(config.keep_top_k.max(1));
            all
        })
        .collect();
    select_matches(&per_src, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keypoints::Keypoint;

    /// A set of L2-normalised rows (mirroring real descriptors), row `i`
    /// at keypoint `(i, i)`.
    fn set(rows: &[&[f32]]) -> DescriptorSet {
        let mut set = DescriptorSet::new(rows.first().map_or(0, |r| r.len()));
        for (i, v) in rows.iter().enumerate() {
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            let unit: Vec<f32> = v.iter().map(|x| x / norm.max(1e-12)).collect();
            set.push(Keypoint { u: i, v: i, score: 1.0 }, &unit);
        }
        set
    }

    /// One candidate per source, uncapped distance.
    fn top1() -> MatcherConfig {
        MatcherConfig { max_distance: 10.0, keep_top_k: 1 }
    }

    #[test]
    fn empty_inputs_give_no_matches() {
        let a = set(&[&[1.0, 0.0]]);
        let empty = DescriptorSet::new(2);
        assert!(match_sets(&empty, &MatchPool::new(&a), &MatcherConfig::default()).is_empty());
        assert!(match_sets(&a, &MatchPool::new(&empty), &MatcherConfig::default()).is_empty());
    }

    #[test]
    fn identical_sets_match_one_to_one() {
        let set = set(&[&[1.0, 0.0, 0.0, 0.0], &[0.0, 1.0, 0.0, 0.0], &[0.0, 0.0, 1.0, 0.0]]);
        let matches = match_sets(&set, &MatchPool::new(&set), &top1());
        assert_eq!(matches.len(), 3);
        for m in matches {
            assert_eq!(m.src, m.dst);
            // The dot identity leaves √(ε_f32)-order noise on exact-match
            // distances; 1e-3 is far below any matching threshold.
            assert!(m.distance < 1e-3);
        }
    }

    #[test]
    fn max_distance_caps_matches() {
        let src = set(&[&[1.0, 0.0, 0.0, 0.0]]);
        let dst = set(&[&[0.0, 1.0, 0.0, 0.0]]); // distance √2
        let cfg = MatcherConfig { max_distance: 1.0, keep_top_k: 1 };
        assert!(match_sets(&src, &MatchPool::new(&dst), &cfg).is_empty());
    }

    #[test]
    fn output_sorted_by_distance() {
        let src = set(&[&[1.0, 0.0, 0.0, 0.0], &[0.0, 1.0, 0.02, 0.0], &[0.0, 0.0, 1.0, 0.1]]);
        let dst = set(&[&[1.0, 0.01, 0.0, 0.0], &[0.0, 1.0, 0.0, 0.0], &[0.0, 0.0, 1.0, 0.0]]);
        let matches = match_sets(&src, &MatchPool::new(&dst), &top1());
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
        let mut make = |n: usize, dim: usize| -> DescriptorSet {
            let rows: Vec<Vec<f32>> =
                (0..n).map(|_| (0..dim).map(|_| next() - 0.5).collect()).collect();
            set(&rows.iter().map(Vec::as_slice).collect::<Vec<_>>())
        };
        let src = make(70, 24);
        let dst = make(90, 24);
        for cfg in [
            MatcherConfig::default(),
            top1(),
            MatcherConfig { max_distance: 1.2, keep_top_k: 1 },
            MatcherConfig { max_distance: 2.0, keep_top_k: 3 },
        ] {
            let pool = MatchPool::new(&dst);
            assert_eq!(match_sets(&src, &pool, &cfg), match_sets_naive(&src, &dst, &cfg));
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
