//! RANSAC estimation of a rigid 2-D transform from point correspondences.
//!
//! Both stages of BB-Align end in this primitive (Algorithm 1, lines 11 and
//! 14). The returned inlier count is the paper's confidence signal: §V-A
//! declares a recovery successful when `Inliers_bv > 25` and
//! `Inliers_box > 6`.
//!
//! Two implementations share one contract:
//!
//! * [`ransac_rigid_naive`] — the reference scan and test oracle: fit every
//!   pre-drawn minimal sample, score it against all `n` correspondences,
//!   keep the strict running best, stop at the adaptive early-exit
//!   fraction.
//! * [`ransac_rigid`] — the layered fast path both stages run:
//!   SoA transform-and-count kernel with a hoisted `sin_cos`, max-consensus
//!   bail (a hypothesis is abandoned the moment the unscored remainder
//!   cannot lift it above the running best — the SPRT-flavoured
//!   sequential test) and duplicate-sample memoisation. The fast path
//!   returns the **bit-identical** `RansacResult` (same inlier set, same
//!   pose bits, same iteration count) and the same errors as the naive
//!   scan for every input and seed; `DESIGN.md` → *RANSAC fast path*
//!   carries the determinism argument and the proptests in this crate pin
//!   it.
//!
//! [`ransac_rigid`] can also skip the scan altogether: given the
//! smallest inlier count its caller can use, it first computes an exact
//! upper bound on the inliers any rigid transform can reach on the
//! correspondences and, when the bound falls short, returns
//! [`RansacError::Pruned`] after advancing the RNG exactly as the scan
//! would have (`DESIGN.md` → *Sweep pruning*).

use bba_geometry::{fit_rigid_2d, fit_rigid_2pt, Iso2, Vec2};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// RANSAC parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RansacConfig {
    /// Maximum sampling iterations.
    pub max_iterations: usize,
    /// A correspondence is an inlier when the transformed source point lies
    /// within this distance of its destination (same unit as the points —
    /// pixels for stage 1, metres for stage 2).
    pub inlier_threshold: f64,
    /// Reject results with fewer inliers than this.
    pub min_inliers: usize,
    /// Stop early once this inlier *fraction* is reached (adaptive exit).
    pub early_exit_fraction: f64,
}

impl Default for RansacConfig {
    fn default() -> Self {
        RansacConfig {
            max_iterations: 400,
            inlier_threshold: 2.0,
            min_inliers: 4,
            early_exit_fraction: 0.8,
        }
    }
}

/// RANSAC output: the refit transform plus its consensus set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RansacResult {
    /// The rigid transform refit on all inliers.
    pub transform: Iso2,
    /// Indices of the inlier correspondences.
    pub inliers: Vec<usize>,
    /// `inliers.len()` — the paper's `Inliers_bv` / `Inliers_box`.
    pub num_inliers: usize,
    /// Number of iterations actually executed.
    pub iterations: usize,
}

/// Failure modes of RANSAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RansacError {
    /// Fewer than two correspondences supplied.
    TooFewCorrespondences {
        /// How many were supplied.
        got: usize,
    },
    /// Source/destination lengths differ.
    LengthMismatch {
        /// Source length.
        src: usize,
        /// Destination length.
        dst: usize,
    },
    /// No model reached [`RansacConfig::min_inliers`].
    NoConsensus {
        /// Best inlier count observed.
        best: usize,
        /// The configured minimum.
        required: usize,
    },
    /// No rigid transform can reach the caller's `floor` on these
    /// correspondences, so the scan was skipped (see [`ransac_rigid`]).
    Pruned {
        /// Proven upper bound on any transform's inlier count.
        bound: usize,
        /// The inlier count the caller asked for.
        floor: usize,
    },
}

impl fmt::Display for RansacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RansacError::TooFewCorrespondences { got } => {
                write!(f, "RANSAC needs at least 2 correspondences, got {got}")
            }
            RansacError::LengthMismatch { src, dst } => {
                write!(f, "source has {src} points, destination {dst}")
            }
            RansacError::NoConsensus { best, required } => {
                write!(f, "no consensus: best model had {best} inliers, {required} required")
            }
            RansacError::Pruned { bound, floor } => {
                write!(f, "pruned: at most {bound} inliers possible, {floor} asked for")
            }
        }
    }
}

impl Error for RansacError {}

/// One minimal sample: two distinct correspondence indices below `n`.
#[inline]
fn draw_sample<R: Rng + ?Sized>(n: usize, rng: &mut R) -> (usize, usize) {
    let i = rng.random_range(0..n);
    let mut j = rng.random_range(0..n);
    while j == i {
        j = rng.random_range(0..n);
    }
    (i, j)
}

/// Draws the minimal samples (two distinct correspondences each) up front,
/// so the rng advances by the same `iterations` draws wherever the scan
/// stops; fitting and scoring each hypothesis is then a pure function of
/// its sample. Both the naive and the fast scan consume exactly this
/// sequence.
fn draw_samples<R: Rng + ?Sized>(n: usize, iterations: usize, rng: &mut R) -> Vec<(usize, usize)> {
    (0..iterations).map(|_| draw_sample(n, rng)).collect()
}

/// Advances `rng` exactly as [`draw_samples`] would, without keeping the
/// samples: what a pruned call consumes, so the caller's later draws see
/// the stream an unpruned call would have left.
fn skip_samples<R: Rng + ?Sized>(n: usize, iterations: usize, rng: &mut R) {
    for _ in 0..iterations {
        draw_sample(n, rng);
    }
}

/// Upper bound on the inlier count any rigid transform reaches on these
/// correspondences under `threshold`: one plus the degeneracy of their
/// compatibility graph.
///
/// Two inliers `i`, `j` of one rigid transform keep their pairwise
/// distance to within twice the threshold (`‖d_i − d_j‖` and
/// `‖s_i − s_j‖` differ by at most `2·threshold`), so an inlier set of
/// size `c` is a clique of the graph joining such pairs, and a clique of
/// size `c` lies in the graph's `(c − 1)`-core. The bound is the largest
/// `c` whose `(c − 1)`-core is non-empty. The edge test carries a slack of
/// `1e-9 · (scale + threshold)` for the rounding of the inlier predicate
/// and of the distances (DESIGN.md → *Sweep pruning*); coordinates beyond
/// `1e100` in magnitude or a non-finite threshold give the trivial bound
/// `n`. Points with a NaN coordinate are never inliers and join no edge.
fn consensus_bound(src: &[Vec2], dst: &[Vec2], threshold: f64) -> usize {
    let n = src.len();
    let Some(reach) = edge_reach(src, dst, threshold).filter(|_| n >= 2) else {
        return n;
    };
    let dist = |a: Vec2, b: Vec2| {
        let (ex, ey) = (a.x - b.x, a.y - b.y);
        (ex * ex + ey * ey).sqrt()
    };
    // Bit-packed adjacency rows and alive-neighbour counts.
    let words = n.div_ceil(64);
    let mut adjacency = vec![0u64; n * words];
    let mut degree = vec![0u32; n];
    for i in 0..n {
        for j in i + 1..n {
            if (dist(dst[i], dst[j]) - dist(src[i], src[j])).abs() <= reach {
                adjacency[i * words + j / 64] |= 1 << (j % 64);
                adjacency[j * words + i / 64] |= 1 << (i % 64);
                degree[i] += 1;
                degree[j] += 1;
            }
        }
    }
    // Peel the graph level by level: at `level`, every vertex with at most
    // `level` alive neighbours lies outside the `(level + 1)`-core. The
    // level at which nothing is left is the degeneracy.
    let mut removed = vec![false; n];
    let mut alive = n;
    let mut stack = Vec::new();
    let mut level = 0u32;
    loop {
        stack.extend((0..n).filter(|&v| !removed[v] && degree[v] <= level));
        while let Some(v) = stack.pop() {
            if removed[v] {
                continue;
            }
            removed[v] = true;
            alive -= 1;
            for (w, &word) in adjacency[v * words..(v + 1) * words].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let u = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if !removed[u] {
                        degree[u] -= 1;
                        if degree[u] == level {
                            stack.push(u);
                        }
                    }
                }
            }
        }
        if alive == 0 {
            return level as usize + 1;
        }
        level += 1;
    }
}

/// The compatibility graph's edge test allowance `2·threshold` plus the
/// rounding slack `1e-9 · (scale + threshold)`, where `scale` is the
/// largest coordinate magnitude; `None` when a coordinate exceeds `1e100`
/// in magnitude or the threshold is not finite, where only the trivial
/// bound holds.
fn edge_reach(src: &[Vec2], dst: &[Vec2], threshold: f64) -> Option<f64> {
    let thr = threshold.abs();
    let scale = src.iter().chain(dst).fold(0.0f64, |m, p| m.max(p.x.abs()).max(p.y.abs()));
    (scale <= 1e100 && thr <= 1e100).then_some(2.0 * thr + 1e-9 * (scale + thr))
}

/// The degree-count certificate: the largest `c` such that at least `c`
/// correspondences have `c − 1` or more compatible partners, under
/// [`consensus_bound`]'s edge test with allowance `reach`.
///
/// A clique of size `c` needs `c` members with `c − 1` partners each, so
/// this bounds every transform's inlier count. It is never below
/// [`consensus_bound`] either: a non-empty `(c − 1)`-core has at least
/// `c` vertices of degree `c − 1` or more. Counting partners
/// ([`bba_simd::compat_degrees`]) tests the same pairs as building the
/// graph but keeps no adjacency and peels nothing, so it is the cheap
/// first test: when it already falls below the caller's floor, the k-core
/// would prune too.
fn degree_bound(src: &[Vec2], dst: &[Vec2], reach: f64) -> usize {
    let n = src.len();
    let lanes = |pts: &[Vec2], f: fn(&Vec2) -> f64| pts.iter().map(f).collect::<Vec<f64>>();
    let (sx, sy) = (lanes(src, |p| p.x), lanes(src, |p| p.y));
    let (dx, dy) = (lanes(dst, |p| p.x), lanes(dst, |p| p.y));
    let mut degrees = vec![0u32; n];
    bba_simd::compat_degrees(&sx, &sy, &dx, &dy, reach, &mut degrees);
    // with_degree[d]: correspondences with exactly `d ≤ n − 1` partners.
    let mut with_degree = vec![0usize; n];
    for &d in &degrees {
        with_degree[d as usize] += 1;
    }
    // Walking `c` down from `n`, `at_least` counts the correspondences
    // with `c − 1` or more partners.
    let mut at_least = 0;
    for c in (1..=n).rev() {
        at_least += with_degree[c - 1];
        if at_least >= c {
            return c;
        }
    }
    0
}

/// Shared tail of both scans: consensus check, refit on the winning set,
/// then one expand/re-fit pass (a single guided re-estimation markedly
/// stabilises the estimate).
fn refit_and_expand(
    src: &[Vec2],
    dst: &[Vec2],
    mut best_inliers: Vec<usize>,
    iterations: usize,
    config: &RansacConfig,
    thresh_sq: f64,
) -> Result<RansacResult, RansacError> {
    let n = src.len();
    if best_inliers.len() < config.min_inliers.max(2) {
        return Err(RansacError::NoConsensus {
            best: best_inliers.len(),
            required: config.min_inliers.max(2),
        });
    }
    let refit = |idx: &[usize]| {
        let s: Vec<Vec2> = idx.iter().map(|&k| src[k]).collect();
        let d: Vec<Vec2> = idx.iter().map(|&k| dst[k]).collect();
        fit_rigid_2d(&s, &d)
    };
    let mut transform = refit(&best_inliers).map_err(|_| RansacError::NoConsensus {
        best: best_inliers.len(),
        required: config.min_inliers.max(2),
    })?;
    let expanded: Vec<usize> =
        (0..n).filter(|&k| (transform.apply(src[k]) - dst[k]).norm_sq() <= thresh_sq).collect();
    if expanded.len() >= best_inliers.len() {
        if let Ok(t2) = refit(&expanded) {
            transform = t2;
            best_inliers = expanded;
        }
    }

    Ok(RansacResult {
        transform,
        num_inliers: best_inliers.len(),
        inliers: best_inliers,
        iterations,
    })
}

/// The reference scorer: fits and fully scores every drawn sample in order.
///
/// This is the bit-exactness oracle for [`ransac_rigid`], kept only to be
/// tested against: it stays public so the equivalence proptests of other
/// crates and the `ransac` Criterion bench have the naive semantics to
/// compare against.
///
/// # Errors
///
/// Returns [`RansacError`] on malformed input or when no model reaches
/// `min_inliers`.
pub fn ransac_rigid_naive<R: Rng + ?Sized>(
    src: &[Vec2],
    dst: &[Vec2],
    config: &RansacConfig,
    rng: &mut R,
) -> Result<RansacResult, RansacError> {
    if src.len() != dst.len() {
        return Err(RansacError::LengthMismatch { src: src.len(), dst: dst.len() });
    }
    let n = src.len();
    if n < 2 {
        return Err(RansacError::TooFewCorrespondences { got: n });
    }

    let thresh_sq = config.inlier_threshold * config.inlier_threshold;
    let samples = draw_samples(n, config.max_iterations, rng);
    let score = |&(i, j): &(usize, usize)| -> Option<Vec<usize>> {
        // Degenerate (coincident) samples cannot define a rotation.
        if (src[i] - src[j]).norm_sq() < 1e-12 {
            return None;
        }
        let model = fit_rigid_2d(&[src[i], src[j]], &[dst[i], dst[j]]).ok()?;
        Some((0..n).filter(|&k| (model.apply(src[k]) - dst[k]).norm_sq() <= thresh_sq).collect())
    };

    let mut best_inliers: Vec<usize> = Vec::new();
    let mut iterations = 0usize;
    for (k, sample) in samples.iter().enumerate() {
        iterations = k + 1;
        let Some(inliers) = score(sample) else { continue };
        if inliers.len() > best_inliers.len() {
            best_inliers = inliers;
            if best_inliers.len() as f64 >= config.early_exit_fraction * n as f64 {
                break;
            }
        }
    }

    refit_and_expand(src, dst, best_inliers, iterations, config, thresh_sq)
}

/// Estimates the rigid transform mapping `src[i]` near `dst[i]` in the
/// presence of outliers.
///
/// Runs the layered fast path (see the module docs). The result is
/// **bit-identical** to [`ransac_rigid_naive`] on the same inputs and
/// seed — same inlier set, pose bits, iteration count, errors and RNG
/// consumption — unless the call is pruned.
///
/// `floor` is the smallest inlier count the caller can use; stage 2
/// passes 0. With `floor > 0`, the call first bounds the inliers any rigid
/// transform can reach on the correspondences (a clique bound on their
/// pairwise distances: a degree-count certificate, then the k-core bound
/// when the certificate does not already fall below `floor`; DESIGN.md →
/// *Sweep pruning*). Below `floor`, it returns [`RansacError::Pruned`]
/// without scanning, and advances `rng` by the whole sample draw, exactly
/// as the unpruned call would have. Every result the unpruned call could
/// have returned has at most that many inliers, so a caller that discards
/// results below `floor` sees the same outcome and the same RNG stream
/// either way. `floor == 0` never prunes.
///
/// # Errors
///
/// Returns [`RansacError`] on malformed input, when no model reaches
/// `min_inliers`, or when the call was pruned.
pub fn ransac_rigid<R: Rng + ?Sized>(
    src: &[Vec2],
    dst: &[Vec2],
    floor: usize,
    config: &RansacConfig,
    rng: &mut R,
) -> Result<RansacResult, RansacError> {
    if src.len() != dst.len() {
        return Err(RansacError::LengthMismatch { src: src.len(), dst: dst.len() });
    }
    let n = src.len();
    if n < 2 {
        return Err(RansacError::TooFewCorrespondences { got: n });
    }
    if floor > 0 {
        let bound = match edge_reach(src, dst, config.inlier_threshold) {
            Some(reach) => match degree_bound(src, dst, reach) {
                certified if certified < floor => certified,
                _ => consensus_bound(src, dst, config.inlier_threshold),
            },
            None => n,
        };
        if bound < floor {
            skip_samples(n, config.max_iterations, rng);
            return Err(RansacError::Pruned { bound, floor });
        }
    }
    scan(src, dst, config, rng)
}

/// The sampling scan of [`ransac_rigid`] on validated input (`n ≥ 2`
/// correspondences of equal length): the naive scan's draws, winner and
/// iteration count, reached through the fast-path layers.
fn scan<R: Rng + ?Sized>(
    src: &[Vec2],
    dst: &[Vec2],
    config: &RansacConfig,
    rng: &mut R,
) -> Result<RansacResult, RansacError> {
    let n = src.len();
    let thresh_sq = config.inlier_threshold * config.inlier_threshold;
    let samples = draw_samples(n, config.max_iterations, rng);
    let n_samples = samples.len();

    // SoA lanes of the correspondences keep the counting kernel's loads
    // unit-stride and autovectorisable.
    let sx: Vec<f64> = src.iter().map(|p| p.x).collect();
    let sy: Vec<f64> = src.iter().map(|p| p.y).collect();
    let dx: Vec<f64> = dst.iter().map(|p| p.x).collect();
    let dy: Vec<f64> = dst.iter().map(|p| p.y).collect();

    let sample_model = |(i, j): (usize, usize)| -> Option<Iso2> {
        // Degenerate (coincident) samples cannot define a rotation.
        if (src[i] - src[j]).norm_sq() < 1e-12 {
            return None;
        }
        fit_rigid_2pt(src[i], src[j], dst[i], dst[j]).ok()
    };

    // Duplicate-sample table: (i, j) and (j, i) produce bit-identical
    // models (two-term IEEE sums commute), so a repeated unordered pair
    // reuses its first occurrence's resolution instead of rescoring. With
    // `max_iterations` far above the number of distinct pairs — stage 1
    // draws 3000 samples from often < 1000 pairs — this alone removes most
    // of the work.
    let mut first_seen: HashMap<u64, u32> = HashMap::with_capacity(n_samples);
    let mut dup_of: Vec<u32> = vec![u32::MAX; n_samples];
    for (k, &(i, j)) in samples.iter().enumerate() {
        let key = ((i.min(j) as u64) << 32) | (i.max(j) as u64);
        match first_seen.entry(key) {
            Entry::Occupied(e) => dup_of[k] = *e.get(),
            Entry::Vacant(e) => {
                e.insert(k as u32);
            }
        }
    }

    // The scan, in draw order with the naive loop's strict running best
    // and early exit. A hypothesis is bailed once it provably cannot beat
    // the running best: it is then neither a new best nor, since the naive
    // loop tests its exit only on a new best, the exit trigger.
    // resolved[k] is sample k's exact count, or `None` when it was
    // degenerate or bailed — what a later duplicate of it inherits: the
    // two-point fit is bit-commutative in its pair order, and the running
    // best only grows, so the duplicate would bail too.
    let exit_f = config.early_exit_fraction * n as f64;
    let mut resolved: Vec<Option<u32>> = vec![None; n_samples];
    let mut best_count = 0usize;
    let mut best_idx: Option<usize> = None;
    let mut iterations = 0usize;
    for k in 0..n_samples {
        iterations = k + 1;
        let twin = dup_of[k];
        resolved[k] = if twin != u32::MAX {
            resolved[twin as usize]
        } else {
            sample_model(samples[k]).and_then(|model| {
                let (sin, cos) = model.yaw().sin_cos();
                let t = model.translation();
                count_inliers_bailing(&sx, &sy, &dx, &dy, cos, sin, t.x, t.y, thresh_sq, best_count)
                    .map(|count| count as u32)
            })
        };
        let Some(count) = resolved[k].map(|c| c as usize) else { continue };
        if count > best_count {
            best_count = count;
            best_idx = Some(k);
            if count as f64 >= exit_f {
                break;
            }
        }
    }

    let required = config.min_inliers.max(2);
    let Some(winner) = best_idx.filter(|_| best_count >= required) else {
        return Err(RansacError::NoConsensus { best: best_count, required });
    };
    // Materialise the winning consensus set once, with the exact predicate
    // the naive scorer uses.
    let model = sample_model(samples[winner])
        .expect("the winning sample was scored, so its model fit succeeded");
    let best_inliers: Vec<usize> =
        (0..n).filter(|&k| (model.apply(src[k]) - dst[k]).norm_sq() <= thresh_sq).collect();
    debug_assert_eq!(best_inliers.len(), best_count);
    refit_and_expand(src, dst, best_inliers, iterations, config, thresh_sq)
}

/// Counts correspondences the model maps within `sqrt(thresh_sq)` of their
/// destination, abandoning the hypothesis as soon as the unscored remainder
/// cannot lift the count strictly above `bound` (returns `None`; the exact
/// count is then provably `<= bound`).
///
/// The per-point arithmetic reproduces
/// `(model.apply(src[k]) - dst[k]).norm_sq() <= thresh_sq` operation for
/// operation, with the model's `sin_cos` hoisted out of the loop — the
/// hoist is bit-safe because `Vec2::rotated` computes the same `sin_cos`
/// of the same yaw on every call.
#[inline]
#[allow(clippy::too_many_arguments)] // flat scalar lanes keep the kernel SIMD-friendly
fn count_inliers_bailing(
    sx: &[f64],
    sy: &[f64],
    dx: &[f64],
    dy: &[f64],
    cos: f64,
    sin: f64,
    tx: f64,
    ty: f64,
    thresh_sq: f64,
    bound: usize,
) -> Option<usize> {
    const BLOCK: usize = 64;
    let n = sx.len();
    let mut count = 0usize;
    let mut k = 0usize;
    while k < n {
        let end = (k + BLOCK).min(n);
        for idx in k..end {
            let px = (cos * sx[idx] - sin * sy[idx]) + tx;
            let py = (sin * sx[idx] + cos * sy[idx]) + ty;
            let ex = px - dx[idx];
            let ey = py - dy[idx];
            count += usize::from(ex * ex + ey * ey <= thresh_sq);
        }
        k = end;
        if count + (n - k) <= bound {
            return None;
        }
    }
    Some(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn truth() -> Iso2 {
        Iso2::new(0.6, Vec2::new(5.0, -3.0))
    }

    fn clean_pairs(n: usize) -> (Vec<Vec2>, Vec<Vec2>) {
        let t = truth();
        let src: Vec<Vec2> =
            (0..n).map(|i| Vec2::new((i * 13 % 29) as f64, (i * 7 % 31) as f64)).collect();
        let dst = src.iter().map(|&p| t.apply(p)).collect();
        (src, dst)
    }

    /// Asserts the fast path and the naive reference agree exactly —
    /// including errors — for the given inputs and seed.
    fn assert_fast_matches_naive(src: &[Vec2], dst: &[Vec2], cfg: &RansacConfig, seed: u64) {
        let naive = ransac_rigid_naive(src, dst, cfg, &mut StdRng::seed_from_u64(seed));
        let fast = ransac_rigid(src, dst, 0, cfg, &mut StdRng::seed_from_u64(seed));
        assert_eq!(naive, fast);
    }

    #[test]
    fn recovers_exact_transform_without_outliers() {
        let (src, dst) = clean_pairs(25);
        let mut rng = StdRng::seed_from_u64(1);
        let r = ransac_rigid(&src, &dst, 0, &RansacConfig::default(), &mut rng).unwrap();
        assert!(r.transform.approx_eq(&truth(), 1e-9, 1e-9));
        assert_eq!(r.num_inliers, 25);
    }

    #[test]
    fn unhinted_call_matches_naive_including_rng_stream() {
        let (src, mut dst) = clean_pairs(40);
        for k in 0..12 {
            dst[3 * k] = Vec2::new(900.0 + k as f64 * 11.0, -700.0);
        }
        let cfg = RansacConfig::default();
        for seed in [0u64, 7, 91] {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let a = ransac_rigid(&src, &dst, 0, &cfg, &mut rng_a);
            let b = ransac_rigid_naive(&src, &dst, &cfg, &mut rng_b);
            assert_eq!(a, b);
            assert_eq!(rng_a.random_range(0..u32::MAX), rng_b.random_range(0..u32::MAX));
        }
    }

    #[test]
    fn validation_errors_precede_pruning() {
        let mut rng = StdRng::seed_from_u64(0);
        let untouched = rng.clone();
        let cfg = RansacConfig::default();
        let e = ransac_rigid(&[Vec2::ZERO], &[], usize::MAX, &cfg, &mut rng).unwrap_err();
        assert_eq!(e, RansacError::LengthMismatch { src: 1, dst: 0 });
        let e = ransac_rigid(&[Vec2::ZERO], &[Vec2::ZERO], usize::MAX, &cfg, &mut rng).unwrap_err();
        assert_eq!(e, RansacError::TooFewCorrespondences { got: 1 });
        assert_eq!(rng, untouched, "a rejected input draws nothing");
    }

    #[test]
    fn survives_half_outliers() {
        let (src, mut dst) = clean_pairs(40);
        for k in 0..20 {
            dst[2 * k] = Vec2::new(1000.0 + k as f64 * 17.0, -500.0 - k as f64 * 3.0);
        }
        let mut rng = StdRng::seed_from_u64(2);
        let r = ransac_rigid(&src, &dst, 0, &RansacConfig::default(), &mut rng).unwrap();
        assert!(r.transform.approx_eq(&truth(), 1e-6, 1e-6));
        assert_eq!(r.num_inliers, 20);
        // Inlier list contains exactly the odd indices.
        assert!(r.inliers.iter().all(|&i| i % 2 == 1));
    }

    #[test]
    fn noisy_inliers_average_out() {
        let (src, dst) = clean_pairs(60);
        // ±0.3 deterministic perturbation.
        let dst: Vec<Vec2> = dst
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                p + Vec2::new(0.3 * ((i % 3) as f64 - 1.0), 0.3 * ((i % 5) as f64 - 2.0) / 2.0)
            })
            .collect();
        let cfg = RansacConfig { inlier_threshold: 1.0, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(3);
        let r = ransac_rigid(&src, &dst, 0, &cfg, &mut rng).unwrap();
        let (dt, dr) = r.transform.error_to(&truth());
        assert!(dt < 0.2, "translation error {dt}");
        assert!(dr < 0.02, "rotation error {dr}");
    }

    #[test]
    fn too_few_points_error() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = ransac_rigid(&[Vec2::ZERO], &[Vec2::ZERO], 0, &RansacConfig::default(), &mut rng)
            .unwrap_err();
        assert_eq!(e, RansacError::TooFewCorrespondences { got: 1 });
    }

    #[test]
    fn length_mismatch_error() {
        let mut rng = StdRng::seed_from_u64(0);
        let e =
            ransac_rigid(&[Vec2::ZERO], &[], 0, &RansacConfig::default(), &mut rng).unwrap_err();
        assert_eq!(e, RansacError::LengthMismatch { src: 1, dst: 0 });
    }

    #[test]
    fn pure_noise_yields_no_consensus() {
        let src: Vec<Vec2> =
            (0..30).map(|i| Vec2::new(i as f64 * 3.1, (i * i) as f64 % 17.0)).collect();
        let dst: Vec<Vec2> =
            (0..30).map(|i| Vec2::new((i * i * 7) as f64 % 97.0, -(i as f64) * 5.3)).collect();
        let cfg = RansacConfig { inlier_threshold: 0.05, min_inliers: 10, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(4);
        match ransac_rigid(&src, &dst, 0, &cfg, &mut rng) {
            Err(RansacError::NoConsensus { best, required }) => {
                assert!(best < required);
            }
            other => panic!("expected NoConsensus, got {other:?}"),
        }
    }

    #[test]
    fn early_exit_stops_iterating() {
        let (src, dst) = clean_pairs(50);
        let cfg =
            RansacConfig { max_iterations: 1000, early_exit_fraction: 0.5, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(5);
        let r = ransac_rigid(&src, &dst, 0, &cfg, &mut rng).unwrap();
        assert!(r.iterations < 1000, "clean data should exit early, took {}", r.iterations);
    }

    #[test]
    fn errors_are_displayable() {
        for e in [
            RansacError::TooFewCorrespondences { got: 0 },
            RansacError::LengthMismatch { src: 1, dst: 2 },
            RansacError::NoConsensus { best: 1, required: 4 },
            RansacError::Pruned { bound: 3, floor: 9 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn fast_matches_naive_on_the_standard_scenarios() {
        // Clean data (early exit fires), half outliers, pure noise
        // (NoConsensus), duplicates-heavy tiny input.
        let (src, dst) = clean_pairs(50);
        for seed in 0..20 {
            assert_fast_matches_naive(&src, &dst, &RansacConfig::default(), seed);
        }

        let (src, mut dst) = clean_pairs(40);
        for k in 0..20 {
            dst[2 * k] = Vec2::new(1000.0 + k as f64 * 17.0, -500.0 - k as f64 * 3.0);
        }
        let cfg = RansacConfig { max_iterations: 700, ..Default::default() };
        for seed in 0..20 {
            assert_fast_matches_naive(&src, &dst, &cfg, seed);
        }

        let noise_src: Vec<Vec2> =
            (0..30).map(|i| Vec2::new(i as f64 * 3.1, (i * i) as f64 % 17.0)).collect();
        let noise_dst: Vec<Vec2> =
            (0..30).map(|i| Vec2::new((i * i * 7) as f64 % 97.0, -(i as f64) * 5.3)).collect();
        let cfg = RansacConfig { inlier_threshold: 0.05, min_inliers: 10, ..Default::default() };
        for seed in 0..20 {
            assert_fast_matches_naive(&noise_src, &noise_dst, &cfg, seed);
        }
    }

    #[test]
    fn fast_matches_naive_when_exit_fraction_is_unreachable() {
        // early_exit_fraction > 1 makes the exit unreachable: the scan must
        // walk the full iteration budget in both implementations.
        let (src, mut dst) = clean_pairs(30);
        for k in 0..10 {
            dst[3 * k] = Vec2::new(500.0 + k as f64, 500.0 - k as f64);
        }
        let cfg =
            RansacConfig { max_iterations: 300, early_exit_fraction: 2.0, ..Default::default() };
        for seed in 0..12 {
            assert_fast_matches_naive(&src, &dst, &cfg, seed);
        }
        let r = ransac_rigid(&src, &dst, 0, &cfg, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(r.iterations, 300);
    }

    #[test]
    fn fast_matches_naive_on_duplicate_points() {
        // Many coincident correspondences: most samples are degenerate.
        let mut src = vec![Vec2::new(1.0, 1.0); 8];
        let mut dst = vec![Vec2::new(2.0, 2.0); 8];
        src.extend([Vec2::new(5.0, 0.0), Vec2::new(0.0, 5.0), Vec2::new(-4.0, 2.0)]);
        dst.extend([Vec2::new(6.0, 1.0), Vec2::new(1.0, 6.0), Vec2::new(-3.0, 3.0)]);
        let cfg = RansacConfig { min_inliers: 2, ..Default::default() };
        for seed in 0..20 {
            assert_fast_matches_naive(&src, &dst, &cfg, seed);
        }
    }

    #[test]
    fn fast_matches_naive_on_a_large_outlier_mix() {
        let (src, mut dst) = clean_pairs(60);
        for k in 0..25 {
            dst[2 * k] = Vec2::new(300.0 + k as f64 * 7.0, -200.0 + k as f64 * 13.0);
        }
        let cfg = RansacConfig { max_iterations: 600, ..Default::default() };
        assert_fast_matches_naive(&src, &dst, &cfg, 11);
    }

    #[test]
    fn consensus_bound_of_fewer_than_two_correspondences_is_their_count() {
        assert_eq!(consensus_bound(&[], &[], 2.0), 0);
        assert_eq!(consensus_bound(&[Vec2::new(1.0, 2.0)], &[Vec2::new(-3.0, 9.0)], 2.0), 1);
    }

    #[test]
    fn consensus_bound_of_all_duplicates_is_their_count() {
        // One correspondence repeated: any transform mapping it is an
        // inlier of all copies, so nothing smaller is a valid bound.
        let src = vec![Vec2::new(4.0, -1.0); 9];
        let dst = vec![Vec2::new(40.0, 7.0); 9];
        assert_eq!(consensus_bound(&src, &dst, 2.0), 9);
        let cfg = RansacConfig { min_inliers: 2, ..Default::default() };
        let r = ransac_rigid(&src, &dst, 0, &cfg, &mut StdRng::seed_from_u64(1));
        assert_eq!(r, Err(RansacError::NoConsensus { best: 0, required: 2 }));
    }

    #[test]
    fn consensus_bound_separates_a_rigid_set_from_scattered_outliers() {
        let (src, mut dst) = clean_pairs(30);
        assert_eq!(consensus_bound(&src, &dst, 1.0), 30);
        // Scatter 20 destinations on a wide, irregular spiral: the 10
        // untouched correspondences still form a clique, the bound stays
        // well below 30.
        for (k, d) in dst.iter_mut().take(20).enumerate() {
            let a = k as f64 * 2.39996;
            *d = Vec2::new(a.cos(), a.sin()) * (500.0 + 97.0 * k as f64);
        }
        let bound = consensus_bound(&src, &dst, 1.0);
        assert!((10..30).contains(&bound), "bound {bound}");
    }

    #[test]
    fn consensus_bound_joins_inliers_on_opposite_edges_of_the_threshold() {
        // Two inliers of the identity, displaced by the threshold in
        // opposite directions along their baseline: their distances
        // differ by exactly 2t in real arithmetic and by a little more
        // once rounded, so only the slack keeps the pair joined.
        let (x, t) = (1.3151, 0.3513);
        let src = [Vec2::new(0.0, 0.0), Vec2::new(x, 0.0)];
        let dst = [Vec2::new(-t, 0.0), Vec2::new(x + t, 0.0)];
        let inlier = |k: usize| (Iso2::IDENTITY.apply(src[k]) - dst[k]).norm_sq() <= t * t;
        assert!(inlier(0) && inlier(1));
        let dist =
            |a: Vec2, b: Vec2| ((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y)).sqrt();
        assert!((dist(dst[0], dst[1]) - dist(src[0], src[1])).abs() > 2.0 * t);
        assert_eq!(consensus_bound(&src, &dst, t), 2);
    }

    #[test]
    fn consensus_bound_is_trivial_for_unbounded_input() {
        let src = [Vec2::new(0.0, 0.0), Vec2::new(1e200, 0.0), Vec2::new(5.0, 5.0)];
        let dst = [Vec2::new(0.0, 0.0), Vec2::new(1e200, 0.0), Vec2::new(90.0, 5.0)];
        assert_eq!(consensus_bound(&src, &dst, 1.0), 3);
        let near = [Vec2::new(0.0, 0.0), Vec2::new(3.0, 0.0), Vec2::new(90.0, 5.0)];
        assert_eq!(consensus_bound(&src, &near, f64::INFINITY), 3);
        // NaN coordinates can never be inliers: the pair without them is
        // the largest clique.
        let with_nan = [Vec2::new(0.0, 0.0), Vec2::new(f64::NAN, 0.0), Vec2::new(5.0, 5.0)];
        let dst = [Vec2::new(1.0, 1.0), Vec2::new(0.0, 0.0), Vec2::new(6.0, 6.0)];
        assert_eq!(consensus_bound(&with_nan, &dst, 1.0), 2);
    }

    #[test]
    fn pruned_call_without_hint_consumes_the_rng_like_the_scan() {
        // A pruned call (`floor = usize::MAX`) leaves the RNG where the
        // full call leaves it and reports a bound at least the full call's
        // inlier count, on 40 correspondences of which 12 are gross
        // outliers.
        let (src, mut dst) = clean_pairs(40);
        for k in 0..12 {
            dst[3 * k] = Vec2::new(900.0 + k as f64 * 11.0, -700.0);
        }
        let cfg = RansacConfig::default();
        for seed in [0u64, 7, 91] {
            let mut rng_full = StdRng::seed_from_u64(seed);
            let mut rng_pruned = StdRng::seed_from_u64(seed);
            let full = ransac_rigid(&src, &dst, 0, &cfg, &mut rng_full).unwrap();
            let pruned = ransac_rigid(&src, &dst, usize::MAX, &cfg, &mut rng_pruned);
            let Err(RansacError::Pruned { bound, floor }) = pruned else {
                panic!("expected a pruned call, got {pruned:?}");
            };
            assert_eq!(floor, usize::MAX);
            assert!(full.iterations > 0);
            assert!(bound >= full.num_inliers);
            assert_eq!(rng_full, rng_pruned, "seed {seed}");
            assert_eq!(
                rng_full.random_range(0..u32::MAX),
                rng_pruned.random_range(0..u32::MAX),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn floor_at_or_below_the_bound_runs_the_full_call() {
        let (src, mut dst) = clean_pairs(40);
        for k in 0..12 {
            dst[3 * k] = Vec2::new(900.0 + k as f64 * 11.0, -700.0);
        }
        let cfg = RansacConfig::default();
        let bound = consensus_bound(&src, &dst, cfg.inlier_threshold);
        let full = ransac_rigid(&src, &dst, 0, &cfg, &mut StdRng::seed_from_u64(4));
        let at_bound = ransac_rigid(&src, &dst, bound, &cfg, &mut StdRng::seed_from_u64(4));
        assert_eq!(full, at_bound);
        assert_eq!(full.unwrap().num_inliers, 28);
    }

    /// Correspondences of `truth` from `(x, y, flag)` triples: by flag, a
    /// gross outlier (0), an inlier displaced by exactly the threshold
    /// along an axis (1–3; pairs of them sit at the `2·threshold` edge of
    /// the compatibility test), an exact duplicate of the previous one
    /// (4), an inlier displaced inside the threshold (5) or an exact
    /// inlier.
    fn mixed_correspondences(
        pts: &[(f64, f64, u8)],
        truth: &Iso2,
        threshold: f64,
    ) -> (Vec<Vec2>, Vec<Vec2>) {
        let mut src: Vec<Vec2> = Vec::new();
        let mut dst: Vec<Vec2> = Vec::new();
        for &(x, y, flag) in pts {
            let p = Vec2::new(x, y);
            let q = truth.apply(p);
            let d = match flag {
                4 if !src.is_empty() => {
                    src.push(*src.last().unwrap());
                    dst.push(*dst.last().unwrap());
                    continue;
                }
                0 => Vec2::new(300.0 - y, x * 0.7 - 40.0),
                1 => q + Vec2::new(threshold, 0.0),
                2 => q - Vec2::new(threshold, 0.0),
                3 => q + Vec2::new(0.0, threshold),
                5 => q + Vec2::new(0.6 * threshold * (x / 256.0), -0.7 * threshold * (y / 256.0)),
                _ => q,
            };
            src.push(p);
            dst.push(d);
        }
        (src, dst)
    }

    #[test]
    fn degree_certificate_of_a_rigid_set_is_its_size() {
        // Every pair of an exact rigid set is compatible: each of the 40
        // correspondences has 39 partners.
        let (src, dst) = clean_pairs(40);
        let reach = edge_reach(&src, &dst, 2.0).unwrap();
        assert_eq!(degree_bound(&src, &dst, reach), 40);
        assert_eq!(consensus_bound(&src, &dst, 2.0), 40);
    }

    #[test]
    fn degree_certificate_prunes_scattered_outliers_without_the_k_core() {
        // 30 of 40 destinations scattered: the 10 untouched ones form the
        // largest clique, and few correspondences keep many partners.
        let (src, mut dst) = clean_pairs(40);
        for (k, d) in dst.iter_mut().take(30).enumerate() {
            let a = k as f64 * 2.39996;
            *d = Vec2::new(a.cos(), a.sin()) * (500.0 + 97.0 * k as f64);
        }
        let reach = edge_reach(&src, &dst, 1.0).unwrap();
        let certified = degree_bound(&src, &dst, reach);
        assert!((consensus_bound(&src, &dst, 1.0)..20).contains(&certified), "{certified}");
        let cfg = RansacConfig { inlier_threshold: 1.0, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(8);
        let e = ransac_rigid(&src, &dst, 20, &cfg, &mut rng);
        assert_eq!(e, Err(RansacError::Pruned { bound: certified, floor: 20 }));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The degree-count certificate is never below the k-core bound,
        /// so it never prunes a call the k-core bound would run: with any
        /// floor up to the k-core bound, `ransac_rigid` returns what the
        /// unpruned call returns and leaves the RNG where it does.
        #[test]
        fn degree_certificate_never_prunes_at_or_below_the_k_core_bound(
            pts in proptest::collection::vec((0.0..256.0f64, 0.0..256.0f64, 0u8..8), 2..48),
            truth in (-3.2..3.2f64, -80.0..80.0f64, -80.0..80.0f64),
            threshold in proptest::prop_oneof![
                proptest::strategy::Just(2.0),
                proptest::strategy::Just(0.5),
                0.1..3.0f64,
            ],
            floor_seed in 1usize..64,
            seed in proptest::any::<u64>(),
        ) {
            let truth = Iso2::new(truth.0, Vec2::new(truth.1, truth.2));
            let (src, dst) = mixed_correspondences(&pts, &truth, threshold);
            let bound = consensus_bound(&src, &dst, threshold);
            let certified = degree_bound(&src, &dst, edge_reach(&src, &dst, threshold).unwrap());
            proptest::prop_assert!(
                (bound..=src.len()).contains(&certified),
                "certificate {} outside [{}, {}]", certified, bound, src.len()
            );
            let floor = 1 + floor_seed % bound.max(1);
            let cfg = RansacConfig { max_iterations: 150, inlier_threshold: threshold, ..Default::default() };
            let mut rng_full = StdRng::seed_from_u64(seed);
            let mut rng_floor = StdRng::seed_from_u64(seed);
            let full = ransac_rigid(&src, &dst, 0, &cfg, &mut rng_full);
            let floored = ransac_rigid(&src, &dst, floor, &cfg, &mut rng_floor);
            proptest::prop_assert_eq!(full, floored);
            proptest::prop_assert_eq!(rng_full, rng_floor);
        }

        /// The consensus bound is at least the inlier count of every
        /// result `ransac_rigid` returns and of the true transform's own
        /// inlier set, over mixes of exact inliers, inliers displaced by exactly the threshold along an
        /// axis (pairs of them sit at the `2·threshold` edge of the
        /// compatibility test), inliers displaced inside the threshold,
        /// gross outliers and exact duplicates.
        #[test]
        fn consensus_bound_covers_every_result(
            pts in proptest::collection::vec((0.0..256.0f64, 0.0..256.0f64, 0u8..8), 0..48),
            truth in (-3.2..3.2f64, -80.0..80.0f64, -80.0..80.0f64),
            threshold in proptest::prop_oneof![
                proptest::strategy::Just(2.0),
                proptest::strategy::Just(0.5),
                0.1..3.0f64,
            ],
            min_inliers in 2usize..8,
            early_exit_fraction in 0.3..1.0f64,
            seed in proptest::any::<u64>(),
        ) {
            let truth = Iso2::new(truth.0, Vec2::new(truth.1, truth.2));
            let (src, dst) = mixed_correspondences(&pts, &truth, threshold);
            let cfg = RansacConfig {
                max_iterations: 150,
                inlier_threshold: threshold,
                min_inliers,
                early_exit_fraction,
            };
            let bound = consensus_bound(&src, &dst, threshold);
            proptest::prop_assert!(bound <= src.len());
            let mut rng = StdRng::seed_from_u64(seed);
            if let Ok(r) = ransac_rigid(&src, &dst, 0, &cfg, &mut rng) {
                proptest::prop_assert!(
                    r.num_inliers <= bound,
                    "{} inliers above the bound {}", r.num_inliers, bound
                );
            }
            // The true transform's own inlier set obeys the bound too.
            let exact = (0..src.len())
                .filter(|&k| (truth.apply(src[k]) - dst[k]).norm_sq() <= threshold * threshold)
                .count();
            proptest::prop_assert!(exact <= bound, "truth has {} inliers, bound {}", exact, bound);
        }
    }

    #[test]
    fn count_kernel_bails_only_below_bound() {
        let (src, dst) = clean_pairs(32);
        let sx: Vec<f64> = src.iter().map(|p| p.x).collect();
        let sy: Vec<f64> = src.iter().map(|p| p.y).collect();
        let dx: Vec<f64> = dst.iter().map(|p| p.x).collect();
        let dy: Vec<f64> = dst.iter().map(|p| p.y).collect();
        let t = truth();
        let (sin, cos) = t.yaw().sin_cos();
        let tr = t.translation();
        // Perfect transform: all 32 are inliers at any sane threshold.
        let full = count_inliers_bailing(&sx, &sy, &dx, &dy, cos, sin, tr.x, tr.y, 4.0, 0);
        assert_eq!(full, Some(32));
        // A bound at or above the true count forces a bail...
        assert_eq!(count_inliers_bailing(&sx, &sy, &dx, &dy, cos, sin, tr.x, tr.y, 4.0, 32), None);
        // ...while any bound below it must still return the exact count.
        assert_eq!(
            count_inliers_bailing(&sx, &sy, &dx, &dy, cos, sin, tr.x, tr.y, 4.0, 31),
            Some(32)
        );
        // Identity transform on rotated data: zero inliers, bound 0 bails.
        assert_eq!(count_inliers_bailing(&sx, &sy, &dx, &dy, 1.0, 0.0, 0.0, 0.0, 1e-6, 0), None);
    }
}
