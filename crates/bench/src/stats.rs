//! Percentiles, CDFs and bucketing for experiment reports.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) by linear interpolation.
///
/// Returns `None` for an empty slice.
///
/// ```
/// use bba_bench::stats::percentile;
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&xs, 50.0), Some(2.5));
/// assert_eq!(percentile(&xs, 0.0), Some(1.0));
/// assert_eq!(percentile(&xs, 100.0), Some(4.0));
/// ```
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let p = p.clamp(0.0, 100.0) / 100.0;
    let idx = p * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    let frac = idx - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Fraction of values strictly below `threshold`, in `[0, 1]`.
///
/// ```
/// use bba_bench::stats::fraction_below;
/// assert_eq!(fraction_below(&[0.5, 1.5, 2.5, 0.9], 1.0), 0.5);
/// ```
pub fn fraction_below(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v < threshold).count() as f64 / values.len() as f64
}

/// The five-number summary the paper's box plots use:
/// 10th/25th/50th/75th/90th percentiles.
pub fn box_plot_summary(values: &[f64]) -> Option<[f64; 5]> {
    Some([
        percentile(values, 10.0)?,
        percentile(values, 25.0)?,
        percentile(values, 50.0)?,
        percentile(values, 75.0)?,
        percentile(values, 90.0)?,
    ])
}

/// Mean of a slice (`None` if empty).
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_handles_single_value() {
        assert_eq!(percentile(&[7.0], 10.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
    }

    #[test]
    fn percentile_empty_is_none() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(box_plot_summary(&[]), None);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0, 9.0];
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            let v = percentile(&xs, p).unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn summary_orders_quantiles() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = box_plot_summary(&xs).unwrap();
        for pair in s.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
        assert!((s[2] - 49.5).abs() < 1.0);
    }

    #[test]
    fn mean_matches_hand_computation() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
