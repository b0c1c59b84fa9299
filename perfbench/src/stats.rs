//! Order statistics over latency samples.

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`, which need not
/// be sorted. Returns 0 for an empty slice.
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of floating-point values (mean of the middle two for an even
/// count). Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest of the percentiles `candidates` (in percent, descending)
/// that leaves at least ten of `n` samples beyond it; the median when none
/// does.
pub fn tail_percentile(n: usize, candidates: &[f64]) -> f64 {
    candidates
        .iter()
        .copied()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.5), 500);
        assert_eq!(quantile(&v, 0.99), 990);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000, &[99.0, 90.0]), 99.0);
        assert_eq!(tail_percentile(999, &[99.0, 90.0]), 90.0);
        assert_eq!(tail_percentile(100, &[99.0, 90.0]), 90.0);
        assert_eq!(tail_percentile(12, &[99.0, 90.0]), 50.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
