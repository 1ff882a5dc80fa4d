//! Zipf-distributed sampling for skewed label assignment.
//!
//! Label frequencies in real labeled graphs are highly skewed (a few
//! dominant categories, a long tail). `rand` does not ship a Zipf
//! distribution, so we implement inverse-CDF sampling over a
//! precomputed table — exact, O(log k) per draw.

use rand::Rng;

/// Samples `0..k` with probability `P(i) ∝ (i + 1)^-s`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Cumulative distribution; `cdf[i]` = P(value ≤ i).
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build a sampler over `k` values with exponent `s ≥ 0`.
    /// `s = 0` is the uniform distribution; larger `s` is more skewed.
    ///
    /// # Panics
    /// Panics if `k == 0` or `s` is negative/non-finite.
    pub fn new(k: usize, s: f64) -> Self {
        assert!(k > 0, "ZipfSampler needs at least one value");
        assert!(s.is_finite() && s >= 0.0, "exponent must be finite and >= 0");
        let mut cdf = Vec::with_capacity(k);
        let mut acc = 0.0f64;
        for i in 0..k {
            acc += ((i + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// Number of values.
    pub fn k(&self) -> usize {
        self.cdf.len()
    }

    /// Draw one value in `0..k`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the first index with cdf[i] >= u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Exact probability of value `i`.
    pub fn probability(&self, i: usize) -> f64 {
        if i >= self.cdf.len() {
            return 0.0;
        }
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn probabilities_sum_to_one() {
        let z = ZipfSampler::new(10, 1.1);
        let total: f64 = (0..10).map(|i| z.probability(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_when_s_zero() {
        let z = ZipfSampler::new(4, 0.0);
        for i in 0..4 {
            assert!((z.probability(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn skew_orders_probabilities() {
        let z = ZipfSampler::new(5, 1.5);
        for i in 1..5 {
            assert!(z.probability(i) < z.probability(i - 1));
        }
    }

    #[test]
    fn samples_match_distribution() {
        let z = ZipfSampler::new(3, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        let n = 60_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let freq = count as f64 / n as f64;
            assert!(
                (freq - z.probability(i)).abs() < 0.01,
                "value {i}: freq {freq} vs p {}",
                z.probability(i)
            );
        }
    }

    #[test]
    fn single_value_always_zero() {
        let z = ZipfSampler::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn out_of_range_probability_is_zero() {
        let z = ZipfSampler::new(3, 1.0);
        assert_eq!(z.probability(99), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn zero_values_rejected() {
        ZipfSampler::new(0, 1.0);
    }
}
