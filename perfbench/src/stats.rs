//! Order statistics and the output digest.

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Minimum number of samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Candidate tail percentiles in per-mille, highest first.
const TAIL_LADDER: [u64; 9] = [999, 995, 990, 980, 950, 900, 800, 750, 500];

/// A tail latency: the highest ladder percentile with at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. 90.0).
    pub percentile: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples it was taken over.
    pub samples: usize,
    /// Samples above its rank.
    pub beyond: usize,
}

/// The highest ladder percentile (per mille) that leaves at least
/// [`TAIL_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median leaves fewer.
pub fn tail_percentile(n: usize) -> Option<u64> {
    TAIL_LADDER.iter().copied().find(|&pm| n.saturating_sub(rank(pm, n)) >= TAIL_BEYOND)
}

/// Nearest rank (1-based) of percentile `pm` (per mille) among `n` samples.
fn rank(pm: u64, n: usize) -> usize {
    (pm as usize * n).div_ceil(1000).max(1)
}

/// The tail of `values` at the percentile [`tail_percentile`] picks for
/// `per_pass` samples. A run that repeats its inputs holds several passes'
/// samples, and taking the percentile one pass supports keeps the tail
/// the same statistic however many passes a run completes.
pub fn tail(values: &[f64], per_pass: usize) -> Option<Tail> {
    let pm = tail_percentile(per_pass.min(values.len()))?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = rank(pm, n);
    Some(Tail { percentile: pm as f64 / 10.0, value: v[rank - 1], samples: n, beyond: n - rank })
}

/// FNV-1a over the bit patterns fed to it: equal digests mean equal bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds in one word.
    pub fn u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Folds in a float's exact bits.
    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, v.len()).expect("100 samples support a tail");
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        let t = tail(&v[..30], 30).expect("30 samples support a tail");
        assert_eq!((t.percentile, t.beyond), (50.0, 15));
        assert!(tail(&v[..19], 19).is_none());
    }

    #[test]
    fn tail_percentile_follows_one_pass_not_the_repeats() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        let t = tail(&v, 100).expect("a 100-sample pass supports a tail");
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 360.0, 40));
    }

    #[test]
    fn median_of_even_count_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
