//! Small statistics helpers shared by every workload.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of integer samples (sorted in place); 0 for an
/// empty slice. Matches the serving crates' `LatencySummary` ranks.
pub fn quantile_u64(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let n = samples.len();
    let idx = ((n as f64 * q).ceil() as usize).clamp(1, n) - 1;
    samples[idx]
}

/// `num / den`, or 0.0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nanoseconds to seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile_u64(&mut s, 0.5), 50);
        assert_eq!(quantile_u64(&mut s, 0.99), 99);
        assert_eq!(quantile_u64(&mut s, 1.0), 100);
        assert_eq!(quantile_u64(&mut [], 0.5), 0);
    }
}
