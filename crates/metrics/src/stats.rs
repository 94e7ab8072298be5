//! Streaming (single-pass) summary statistics.

/// Numerically stable streaming mean / variance / maximum (Welford's
/// algorithm). Used for message latencies, hop counts and queue occupancies.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    max: f64,
}

impl StreamingStats {
    /// Creates an empty accumulator.
    pub(crate) fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub(crate) fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    #[cfg(test)]
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (0 if empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance of the observations (0 with fewer than 2 samples).
    pub(crate) fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation — the square root of
    /// [`StreamingStats::variance`], i.e. `sqrt(m2 / n)`.
    ///
    /// The *population* convention (divide by `n`, not `n - 1`) is used
    /// deliberately and consistently: simulation runs measure the entire
    /// delivered-message population of the run, not a sample from a larger
    /// one, and the derived standard error / confidence intervals inherit the
    /// same convention. Pinned by `std_dev_uses_population_convention`.
    pub(crate) fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub(crate) fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Largest observation (`None` if empty).
    pub(crate) fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Half-width of the ~95 % normal-approximation confidence interval of the
    /// mean.
    pub(crate) fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = StreamingStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.max(), None);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn known_values() {
        let mut s = StreamingStats::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn std_dev_uses_population_convention() {
        // Pin the documented convention: std_dev = sqrt(m2 / n), NOT the
        // Bessel-corrected sample formula sqrt(m2 / (n - 1)).
        let values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut s = StreamingStats::new();
        for v in values {
            s.record(v);
        }
        let n = values.len() as f64;
        let mean: f64 = values.iter().sum::<f64>() / n;
        let m2: f64 = values.iter().map(|v| (v - mean) * (v - mean)).sum();
        let population = (m2 / n).sqrt();
        let sample = (m2 / (n - 1.0)).sqrt();
        assert!((s.std_dev() - population).abs() < 1e-12);
        assert!(
            (s.std_dev() - sample).abs() > 1e-3,
            "must not be the sample convention"
        );
        assert!((s.std_error() - population / n.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_observation() {
        let mut s = StreamingStats::new();
        s.record(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.max(), Some(42.0));
    }

    #[test]
    fn confidence_interval_shrinks_with_samples() {
        let mut small = StreamingStats::new();
        let mut large = StreamingStats::new();
        for i in 0..10 {
            small.record(i as f64);
        }
        for i in 0..10_000 {
            large.record((i % 10) as f64);
        }
        assert!(large.ci95_half_width() < small.ci95_half_width());
    }
}
