//! Message arrival processes.
//!
//! The paper assumes a Poisson arrival process with mean rate λ
//! messages/node/cycle (assumption (a)). In a cycle-driven simulator a Poisson
//! process is realised by sampling exponential inter-arrival times.

use rand::Rng;

/// Poisson arrivals with mean rate λ messages/cycle, realised by sampling
/// exponential inter-arrival gaps (so several messages may arrive in one cycle
/// when λ is large).
#[derive(Clone, Debug)]
pub struct PoissonArrivals {
    lambda: f64,
    /// Absolute time of the next arrival, in (fractional) cycles.
    next_arrival: f64,
    initialized: bool,
}

impl PoissonArrivals {
    /// Creates a Poisson arrival process with rate `lambda` messages/cycle.
    ///
    /// A rate of zero produces no arrivals at all.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda >= 0.0 && lambda.is_finite(),
            "rate must be finite and non-negative"
        );
        PoissonArrivals {
            lambda,
            next_arrival: 0.0,
            initialized: false,
        }
    }

    fn sample_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse-CDF sampling of Exp(lambda); guard against ln(0).
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        -u.ln() / self.lambda
    }

    /// Earliest cycle at which this process can produce its next arrival, or
    /// `None` when it never fires again (zero rate).
    ///
    /// Polling [`PoissonArrivals::arrivals_in_cycle`] for any cycle before the
    /// returned one is guaranteed to generate nothing *and to draw nothing
    /// from the RNG*, so an event-driven scheduler may skip those cycles
    /// without perturbing the random stream. An uninitialised process (never
    /// polled) reports cycle 0: its first poll draws the initial gap.
    pub fn next_due_cycle(&self) -> Option<u64> {
        if self.lambda <= 0.0 {
            return None;
        }
        if !self.initialized {
            return Some(0);
        }
        // `as u64` truncates toward zero (floor for the non-negative arrival
        // time) and saturates at u64::MAX if the arrival time overflowed.
        Some(self.next_arrival as u64)
    }

    /// Number of messages generated in `cycle`.
    pub fn arrivals_in_cycle<R: Rng + ?Sized>(&mut self, cycle: u64, rng: &mut R) -> u32 {
        if self.lambda <= 0.0 {
            return 0;
        }
        if !self.initialized {
            self.next_arrival = cycle as f64 + self.sample_gap(rng);
            self.initialized = true;
        }
        let end = cycle as f64 + 1.0;
        let mut count = 0;
        while self.next_arrival < end {
            count += 1;
            let gap = self.sample_gap(rng);
            self.next_arrival += gap;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_rate_matches_lambda() {
        let mut rng = StdRng::seed_from_u64(123);
        for &lambda in &[0.002, 0.01, 0.1, 0.5] {
            let mut p = PoissonArrivals::new(lambda);
            let cycles = 200_000u64;
            let total: u64 = (0..cycles)
                .map(|c| p.arrivals_in_cycle(c, &mut rng) as u64)
                .sum();
            let measured = total as f64 / cycles as f64;
            let rel_err = (measured - lambda).abs() / lambda;
            // The count over the window is Poisson(lambda * cycles), whose
            // relative standard deviation is 1/sqrt(expected); a fixed 5%
            // band is only ~1 sigma at lambda = 0.002 (400 expected events),
            // so bound the error at 4.5 sigma instead.
            let tolerance = 4.5 / (lambda * cycles as f64).sqrt();
            assert!(
                rel_err < tolerance,
                "lambda={lambda}, measured={measured}, rel_err={rel_err}, tolerance={tolerance}"
            );
        }
    }

    #[test]
    fn poisson_next_due_cycle_skips_are_draw_free() {
        // Skipping every cycle before `next_due_cycle` must leave the RNG
        // stream identical to polling each cycle in turn.
        let mut rng_poll = StdRng::seed_from_u64(42);
        let mut rng_skip = StdRng::seed_from_u64(42);
        let mut polled = PoissonArrivals::new(0.01);
        let mut skipped = PoissonArrivals::new(0.01);
        let mut polled_counts = Vec::new();
        let mut skipped_counts = Vec::new();
        for cycle in 0..20_000u64 {
            let n = polled.arrivals_in_cycle(cycle, &mut rng_poll);
            if n > 0 {
                polled_counts.push((cycle, n));
            }
        }
        let mut cycle = 0u64;
        while cycle < 20_000 {
            let due = skipped.next_due_cycle().expect("positive rate");
            cycle = cycle.max(due);
            if cycle >= 20_000 {
                break;
            }
            let n = skipped.arrivals_in_cycle(cycle, &mut rng_skip);
            if n > 0 {
                skipped_counts.push((cycle, n));
            }
            cycle += 1;
        }
        assert_eq!(polled_counts, skipped_counts);
        assert!(!polled_counts.is_empty());
        // Both RNGs must be in the same state afterwards.
        assert_eq!(
            rng_poll.gen_range(0..u64::MAX),
            rng_skip.gen_range(0..u64::MAX)
        );
    }

    #[test]
    fn poisson_next_due_cycle_edges() {
        assert_eq!(PoissonArrivals::new(0.0).next_due_cycle(), None);
        let mut p = PoissonArrivals::new(0.5);
        assert_eq!(
            p.next_due_cycle(),
            Some(0),
            "uninitialised process is due immediately"
        );
        let mut rng = StdRng::seed_from_u64(1);
        p.arrivals_in_cycle(0, &mut rng);
        let due = p.next_due_cycle().unwrap();
        assert!(
            due >= 1,
            "after polling cycle 0 the next due cycle is in the future"
        );
    }

    #[test]
    fn poisson_zero_rate_never_fires() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut p = PoissonArrivals::new(0.0);
        assert!((0..10_000).all(|c| p.arrivals_in_cycle(c, &mut rng) == 0));
    }

    #[test]
    fn poisson_interarrival_variability() {
        // A Poisson process occasionally produces more than one arrival per
        // cycle at high rate.
        let mut rng = StdRng::seed_from_u64(77);
        let mut p = PoissonArrivals::new(1.5);
        let counts: Vec<u32> = (0..1000)
            .map(|c| p.arrivals_in_cycle(c, &mut rng))
            .collect();
        assert!(counts.iter().any(|&c| c >= 2));
        assert!(counts.contains(&0));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn poisson_rejects_negative_rate() {
        PoissonArrivals::new(-0.1);
    }
}
