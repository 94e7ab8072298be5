//! Fixed-bin-width histogram for latency distributions.

/// A histogram over non-negative values with uniform bin width and an overflow
/// bucket. Latencies in the simulator are cycle counts, so integer-valued bins
/// (width 1 or a small multiple) capture the distribution exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    bin_width: f64,
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// Creates a histogram with `num_bins` bins of width `bin_width`; values
    /// at or beyond `num_bins * bin_width` land in the overflow bucket.
    pub fn new(bin_width: f64, num_bins: usize) -> Self {
        assert!(bin_width > 0.0, "bin width must be positive");
        assert!(num_bins > 0, "need at least one bin");
        Histogram {
            bin_width,
            bins: vec![0; num_bins],
            overflow: 0,
            count: 0,
            sum: 0.0,
        }
    }

    /// Histogram sized for message latencies: 1-cycle bins up to `max_cycles`.
    pub fn for_latencies(max_cycles: usize) -> Self {
        Histogram::new(1.0, max_cycles.max(1))
    }

    /// Records one observation (negative values clamp to zero).
    pub fn record(&mut self, value: f64) {
        let v = value.max(0.0);
        let idx = (v / self.bin_width) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.sum += v;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of observations beyond the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Mean of all recorded observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate p-quantile (0 ≤ p ≤ 1) from the binned data: returns the
    /// upper edge of the bin containing the quantile, or `None` if the
    /// histogram is empty or the quantile falls into the overflow bucket.
    pub fn quantile(&self, p: f64) -> Option<f64> {
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

    /// Bin counts (excluding overflow).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Merges another histogram with identical binning.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bin_width, other.bin_width, "bin widths must match");
        assert_eq!(self.bins.len(), other.bins.len(), "bin counts must match");
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_mean() {
        let mut h = Histogram::new(10.0, 10);
        for v in [5.0, 15.0, 25.0, 35.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), 20.0);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[1], 1);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn overflow_bucket() {
        let mut h = Histogram::new(1.0, 5);
        h.record(4.5);
        h.record(5.0);
        h.record(100.0);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
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
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(2.0, 4);
        let mut b = Histogram::new(2.0, 4);
        a.record(1.0);
        b.record(3.0);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.bins()[0], 1);
        assert_eq!(a.bins()[1], 1);
    }

    #[test]
    #[should_panic(expected = "bin widths must match")]
    fn merge_rejects_mismatched_bins() {
        let mut a = Histogram::new(1.0, 4);
        let b = Histogram::new(2.0, 4);
        a.merge(&b);
    }
}
