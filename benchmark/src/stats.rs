//! Order statistics the ledger reports: percentiles over the steps of
//! one repetition, medians over repetitions, and the quartile spread
//! the acceptance rule is written in.

/// Sorted copy (timings are finite by construction; a NaN would be a
/// harness bug and sorts last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Linear-interpolated percentile `p` in `[0, 100]` (the "inclusive"
/// method: p=0 is the minimum, p=100 the maximum). 0.0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median (p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) gives them — the acceptance rule is stated in those terms,
/// so `compare` must agree with it digit for digit.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        // Position (n + 1) * i / 4 in 1-based ranks, clamped to the
        // data; same integer arithmetic as CPython's implementation.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1) - j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Inter-quartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// The highest percentile that still has at least ten samples beyond
/// it, from the ladder p99.9 / p99 / p95 / p90 / p75; `None` when even
/// p75 has fewer (under 40 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // (percentile, per-mille of samples beyond it): integers, so that
    // "exactly ten beyond" does not hinge on a float rounding.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)]
        .into_iter()
        .find(|(_, beyond)| n * beyond >= 10 * 1000)
        .map(|(p, _)| p)
}

/// `(percentile chosen, its value)`; falls back to the maximum (p100)
/// when the run is too short for any ladder rung.
pub fn tail(values: &[f64]) -> (f64, f64) {
    match tail_percentile(values.len()) {
        Some(p) => (p, percentile(values, p)),
        None => (100.0, percentile(values, 100.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 25.0), 1.75);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 30, 20], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 30.0, 20.0]), (10.0, 30.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&v), (100.0, 19.0));
    }

    #[test]
    fn median_of_repetitions_ignores_one_outlier() {
        assert_eq!(median(&[101.0, 250.0, 99.0]), 101.0);
    }
}
