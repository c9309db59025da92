//! Exact statistics over raw samples: the percentile rule, medians, span
//! self time and guarded ratios. Nothing here buckets: every value is
//! computed from the exact durations the benchmark recorded.

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (1-based) of quantile `q` in `n` samples: the
/// smallest rank whose share of samples at or below it reaches `q`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples support quantile `q`: at least [`MIN_BEYOND`]
/// samples lie beyond its nearest rank.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// Nearest-rank quantile of ascending `sorted` samples (`q` in `(0, 1]`).
/// Failed requests enter as `f64::INFINITY`, so they sort last and count
/// as infinitely slow.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// The samples sorted ascending (total order; infinities last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of raw samples (mean of the two middle values for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Self time of a span: its duration minus the durations of its children.
/// Child spans are the layer calls attributed to it, each timed in
/// isolation, so they need not lie inside the parent's interval.
pub fn self_time(span: f64, children: &[f64]) -> f64 {
    span - children.iter().sum::<f64>()
}

/// `num / den`, or 0 when nothing was counted (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Relative change of `new` against `base` (`new / base - 1`).
pub fn relative_delta(new: f64, base: f64) -> f64 {
    ratio(new - base, base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert!(!supports(199, 0.95));
        assert!(supports(200, 0.95));
        assert!(supports(20, 0.50));
        assert!(!supports(19, 0.50));
        assert!(!supports(0, 0.50));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.50), 100.0);
        assert_eq!(quantile(&v, 0.95), 190.0);
        assert_eq!(quantile(&v, 1.0), 200.0);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn failures_sort_last_and_count_as_infinitely_slow() {
        let mut raw: Vec<f64> = (1..=200).map(f64::from).collect();
        raw[0] = f64::INFINITY;
        let v = sorted(&raw);
        assert_eq!(v[199], f64::INFINITY);
        assert_eq!(quantile(&v, 0.50), 101.0);
        // Eleven failures push p95 (rank 190) into the failed tail.
        for x in raw.iter_mut().take(11) {
            *x = f64::INFINITY;
        }
        assert_eq!(quantile(&sorted(&raw), 0.95), f64::INFINITY);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_time(10.0, &[]), 10.0);
        assert_eq!(self_time(10.0, &[2.5, 4.0]), 3.5);
        // Isolated children can outlast a noisy parent: reported as is.
        assert_eq!(self_time(1.0, &[1.5]), -0.5);
    }

    #[test]
    fn ratios_guard_an_empty_base() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(relative_delta(90.0, 100.0), -0.1);
        assert_eq!(relative_delta(5.0, 0.0), 0.0);
    }
}
