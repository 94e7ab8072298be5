//! Fixed-bin-width histogram for latency distributions.

/// A histogram over non-negative values with uniform bin width and an overflow
/// bucket. Latencies in the simulator are cycle counts, so integer-valued bins
/// (width 1 or a small multiple) capture the distribution exactly.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Histogram {
    bin_width: f64,
    bins: Vec<u64>,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `num_bins` bins of width `bin_width`; values
    /// at or beyond `num_bins * bin_width` land in the overflow bucket.
    pub(crate) fn new(bin_width: f64, num_bins: usize) -> Self {
        assert!(bin_width > 0.0, "bin width must be positive");
        assert!(num_bins > 0, "need at least one bin");
        Histogram {
            bin_width,
            bins: vec![0; num_bins],
            count: 0,
        }
    }

    /// Histogram sized for message latencies: 1-cycle bins up to `max_cycles`.
    pub(crate) fn for_latencies(max_cycles: usize) -> Self {
        Histogram::new(1.0, max_cycles.max(1))
    }

    /// Records one observation (negative values clamp to zero).
    pub(crate) fn record(&mut self, value: f64) {
        let v = value.max(0.0);
        let idx = (v / self.bin_width) as usize;
        if let Some(bin) = self.bins.get_mut(idx) {
            *bin += 1;
        }
        self.count += 1;
    }

    /// Total number of observations.
    #[cfg(test)]
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Approximate p-quantile (0 ≤ p ≤ 1) from the binned data: returns the
    /// upper edge of the bin containing the quantile, or `None` if the
    /// histogram is empty or the quantile falls into the overflow bucket.
    pub(crate) fn quantile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some((i as f64 + 1.0) * self.bin_width);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_into_bins() {
        let mut h = Histogram::new(10.0, 10);
        for v in [5.0, 15.0, 25.0, 35.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile(0.25), Some(10.0));
        assert_eq!(h.quantile(0.5), Some(20.0));
        assert_eq!(h.quantile(1.0), Some(40.0));
    }

    #[test]
    fn overflow_bucket() {
        let mut h = Histogram::new(1.0, 5);
        h.record(4.5);
        h.record(5.0);
        h.record(100.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.3), Some(5.0));
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn quantiles() {
        let mut h = Histogram::for_latencies(1000);
        for v in 1..=100 {
            h.record(v as f64);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((median - 51.0).abs() <= 1.0);
        let p99 = h.quantile(0.99).unwrap();
        assert!((99.0..=101.0).contains(&p99));
        assert!(h.quantile(0.0).is_some());
        assert_eq!(Histogram::new(1.0, 4).quantile(0.5), None);
    }

    #[test]
    fn quantile_in_overflow_is_none() {
        let mut h = Histogram::new(1.0, 2);
        h.record(10.0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn negative_values_clamp_to_zero() {
        let mut h = Histogram::new(1.0, 4);
        h.record(-3.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(1.0), Some(1.0));
    }
}
