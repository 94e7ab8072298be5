//! Order statistics over small sample vectors.

/// The `p`-quantile (`0.0..=1.0`) of `values` by linear interpolation between
/// the two closest ranks (rank `p * (n - 1)` of the sorted samples). Returns
/// `0.0` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values` (mean of the two middle samples when `n` is even).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Median, extremes and sample count of one metric's repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; all-zero for an empty slice.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                median: 0.0,
                min: 0.0,
                max: 0.0,
                n: 0,
            };
        }
        let (min, max) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        Summary {
            median: median(values),
            min,
            max,
            n: values.len(),
        }
    }

    /// A metric with a single, exact value (simulated statistics, counts).
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            min: value,
            max: value,
            n: 1,
        }
    }
}
