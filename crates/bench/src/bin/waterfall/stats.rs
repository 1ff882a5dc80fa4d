//! Order statistics: guarded percentiles, Python-compatible quartiles,
//! and quantiles read from `psi-obs` log₂ histograms.

use psi_obs::LogHistogram;

/// A percentile is printed only when at least this many samples lie
/// beyond it; with fewer, one outlier more or less moves it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of ascending `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = rank_of(sorted.len(), q)?;
    (sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// [`percentile`] without the sample-count guard, for per-layer
/// numbers that are never gated (still `None` when empty).
pub fn percentile_unguarded(sorted: &[f64], q: f64) -> Option<f64> {
    rank_of(sorted.len(), q).map(|rank| sorted[rank - 1])
}

fn rank_of(n: usize, q: f64) -> Option<usize> {
    (n > 0).then(|| ((q * n as f64).ceil() as usize).clamp(1, n))
}

/// Sort ascending; infinities (failed requests) sort last.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median as Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values.to_vec());
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let n = 4;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median (the spread the
/// benchmark's bounds are checked against).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The `q`-quantile of a log₂ histogram: the midpoint of the bucket
/// that holds the nearest-rank observation. A bucket spans a whole
/// doubling, so its floor would understate the quantile by up to half;
/// the midpoint is the estimator `NetServer` reads its own queue-wait
/// median with, so the two agree.
pub fn hist_quantile(hist: &[u64], q: f64) -> Option<f64> {
    let total: u64 = hist.iter().sum();
    let rank = rank_of(total as usize, q)? as u64;
    let mut seen = 0u64;
    for (i, &n) in hist.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return Some(LogHistogram::bucket_midpoint(i) as f64);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_obs::HIST_BUCKETS;

    #[test]
    fn percentile_guard_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 samples is rank 190: exactly 10 lie beyond it.
        assert_eq!(percentile(&v, 0.95), Some(190.0));
        // One sample fewer leaves only 9 beyond the p95.
        assert_eq!(percentile(&v[..199], 0.95), None);
        // The median of 20 has 10 beyond it; of 19 only 9.
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile_unguarded(&v[..19], 0.5), Some(10.0));
    }

    #[test]
    fn failed_requests_sort_last_and_poison_the_tail() {
        let mut v: Vec<f64> = (1..=40).map(f64::from).collect();
        v.push(f64::INFINITY);
        let s = sorted(v);
        assert_eq!(s.last(), Some(&f64::INFINITY));
        assert_eq!(percentile(&s, 0.5), Some(21.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn queue_wait_is_read_at_bucket_midpoints() {
        // Three waits in bucket 21 ([2^20, 2^21) ns) and one in 23.
        let mut hist = [0u64; HIST_BUCKETS];
        hist[21] = 3;
        hist[23] = 1;
        let mid = |i: usize| LogHistogram::bucket_midpoint(i) as f64;
        // Ranks 1–3 fall in bucket 21, rank 4 in bucket 23.
        let p50 = hist_quantile(&hist, 0.5).unwrap();
        assert_eq!(p50, mid(21));
        assert_eq!(hist_quantile(&hist, 0.25).unwrap(), mid(21));
        assert_eq!(hist_quantile(&hist, 0.75).unwrap(), mid(21));
        assert_eq!(hist_quantile(&hist, 0.76).unwrap(), mid(23));
        assert_eq!(hist_quantile(&hist, 1.0).unwrap(), mid(23));
        // Not the floor: about 1.5 × 2^20 ns, halfway through the doubling.
        let (lo, hi) = (
            LogHistogram::bucket_floor(21),
            LogHistogram::bucket_ceil(21),
        );
        assert!(p50 > lo as f64 && p50 < hi as f64);
        assert!((p50 / lo as f64 - 1.5).abs() < 1e-6);
        assert_eq!(hist_quantile(&[0u64; HIST_BUCKETS], 0.5), None);
    }
}
