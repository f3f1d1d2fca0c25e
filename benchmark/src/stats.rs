//! Order statistics for latency samples.
//!
//! One rule decides which percentile a sample supports: the highest
//! percentile that still has at least [`MIN_BEYOND`] samples beyond it.
//! Everything the benchmark prints as "pNN" goes through [`percentile`]
//! (nearest rank on the whole sorted sample), every `*_p99` metric
//! through [`tail`], and each is printed with its sample count.

/// Samples that must lie beyond a percentile for it to be reported as
/// supported.
pub const MIN_BEYOND: usize = 10;

/// Percentile ladder, highest first.
const LADDER: [(f64, &str); 5] =
    [(99.0, "p99"), (95.0, "p95"), (90.0, "p90"), (75.0, "p75"), (50.0, "p50")];

/// 1-based nearest rank of percentile `p` among `n >= 1` samples. The
/// epsilon keeps `99.9% of 10000` at rank 9990 despite float rounding.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice; `p` in `(0, 100]`.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Number of samples strictly beyond the nearest-rank position of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The tail of an ascending sample, and what it is: p99 when at least
/// [`MIN_BEYOND`] samples lie beyond it, else the highest ladder
/// percentile that has as many beyond it, else the maximum.
pub fn tail(sorted: &[f64]) -> (f64, &'static str) {
    match LADDER.iter().find(|(p, _)| beyond(sorted.len(), *p) >= MIN_BEYOND) {
        Some(&(p, label)) => (percentile(sorted, p), label),
        None => (sorted.last().copied().unwrap_or(0.0), "the maximum (no percentile is supported)"),
    }
}

/// Sorts in place (total order; NaN never occurs in our samples).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.total_cmp(b));
}

/// Median of an unsorted sample (mean of the middle two for even `n`).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    sort(&mut s);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// First and third quartile by the exclusive method, matching Python's
/// `statistics.quantiles(values, n=4)` (the driver's spread rule).
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    sort(&mut s);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |k: usize| {
        // position k*(n+1)/4, 1-based, linearly interpolated, clamped
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples sits at rank 990: exactly 10 beyond.
        assert_eq!(beyond(1000, 99.0), 10);
        let ramp = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<f64>>();
        assert_eq!(tail(&ramp(1000)), (990.0, "p99"));
        assert_eq!(tail(&ramp(999)), (950.0, "p95"));
        // More samples never push the tail past p99.
        assert_eq!(tail(&ramp(100_000)), (99_000.0, "p99"));
        // 40 samples: p75 sits at rank 30, 10 beyond.
        assert_eq!(tail(&ramp(40)), (30.0, "p75"));
        assert_eq!(tail(&ramp(20)), (10.0, "p50"));
        assert_eq!(tail(&ramp(19)).0, 19.0);
        assert_eq!(tail(&[]).0, 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
    }
}
