//! Saturation-rate estimation.
//!
//! The paper's latency figures are all organised around the *saturation
//! point* — the offered load beyond which the mean latency diverges — and its
//! qualitative claims are about how that point moves with the number of
//! virtual channels, the message length, the routing flavour and the number of
//! faults. This module estimates the saturation rate of a configuration
//! directly, by doubling the offered load until the network saturates and then
//! bisecting, so those claims can be checked (and tabulated by the
//! `saturation` binary in `torus-bench`) without reading the crossover off a
//! latency curve by eye.
//!
//! # Trustworthy brackets
//!
//! Every rate stored in a [`SaturationEstimate`] was **actually probed**:
//! `stable_rate` was probed and found stable, `saturated_rate` probed and
//! found saturated. When the probe budget runs out before both ends of the
//! bracket exist, the missing end is `None` instead of a fabricated value —
//! two degenerate shapes the previous implementation mis-reported:
//!
//! * **budget exhausted during doubling** — the search never observed a
//!   saturated point; `saturated_rate` is `None` and `stable_rate` is a
//!   probed *lower bound* on the saturation rate (the old code reported the
//!   never-probed next doubling rate as `saturated_rate`, so
//!   [`SaturationEstimate::rate`] was the midpoint of a fictitious bracket);
//! * **even the base rate saturates** — no stable point exists at or above
//!   `base_rate`; `stable_rate` and `latency_at_stable` are `None` (the old
//!   code reported `stable_rate: 0.0` with `latency_at_stable` measured at
//!   the *saturated* base point, handing callers a latency from an unstable
//!   operating point).
//!
//! [`SaturationEstimate::rate`] returns the bracket midpoint only when the
//! bracket is real ([`SaturationEstimate::bracketed`]); callers that need a
//! headline number for an unbracketed search must decide explicitly how to
//! present a bound.

use crate::experiment::{ExperimentConfig, ExperimentError};

/// Result of a saturation search. Every rate was actually probed.
#[derive(Clone, Debug, PartialEq)]
pub struct SaturationEstimate {
    /// Highest probed offered load (messages/node/cycle) at which the network
    /// was still stable, or `None` when even the base rate saturated.
    pub stable_rate: Option<f64>,
    /// Lowest probed offered load at which the network was saturated, or
    /// `None` when the probe budget was exhausted before any probe saturated
    /// (unbracketed search: `stable_rate` is then a lower bound).
    pub saturated_rate: Option<f64>,
    /// Mean latency measured at `stable_rate` (`None` iff `stable_rate` is).
    pub latency_at_stable: Option<f64>,
    /// Mean latency measured at the low-load reference point. When the base
    /// probe itself saturated this latency belongs to an *unstable* operating
    /// point — check `stable_rate` before treating it as an unloaded latency.
    pub base_latency: f64,
    /// Number of simulations executed by the search.
    pub simulations: usize,
}

impl SaturationEstimate {
    /// True when both ends of the bracket were probed: `stable_rate` is
    /// stable, `saturated_rate` saturated, and the midpoint is meaningful.
    pub fn bracketed(&self) -> bool {
        self.stable_rate.is_some() && self.saturated_rate.is_some()
    }

    /// Midpoint of the bracket — the reported saturation rate. `None` unless
    /// the search actually bracketed the saturation point
    /// ([`SaturationEstimate::bracketed`]).
    pub fn rate(&self) -> Option<f64> {
        match (self.stable_rate, self.saturated_rate) {
            (Some(stable), Some(saturated)) => Some((stable + saturated) / 2.0),
            _ => None,
        }
    }

    /// Compact human-readable form for result tables: the bracket midpoint
    /// when bracketed, an explicit bound otherwise. Total over every field
    /// combination — [`estimate_saturation_rate`] never produces the
    /// both-`None` shape, but a hand-built or deserialized value may.
    pub fn display_rate(&self) -> String {
        match (self.stable_rate, self.saturated_rate) {
            (Some(stable), Some(saturated)) => format!("{:.5}", (stable + saturated) / 2.0),
            (Some(stable), None) => format!(">={stable:.5} (unbracketed)"),
            (None, Some(saturated)) => format!("<{saturated:.5} (saturated at base)"),
            (None, None) => "(no probes)".to_string(),
        }
    }
}

/// Options controlling the saturation search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SaturationSearch {
    /// Low-load reference rate used to measure the unloaded latency.
    pub base_rate: f64,
    /// A point counts as saturated when its mean latency exceeds
    /// `latency_factor ×` the unloaded latency, or when the simulation hits
    /// its cycle cap before delivering the message budget.
    pub latency_factor: f64,
    /// Bisection stops when the bracket is narrower than this (relative to the
    /// saturated end).
    pub relative_tolerance: f64,
    /// Hard cap on the number of simulations.
    pub max_simulations: usize,
}

impl Default for SaturationSearch {
    fn default() -> Self {
        SaturationSearch {
            base_rate: 0.001,
            latency_factor: 8.0,
            relative_tolerance: 0.1,
            max_simulations: 16,
        }
    }
}

/// Estimates the saturation rate of `base` (its `rate` field is ignored).
///
/// The search runs the configuration at the low-load reference rate, doubles
/// the offered load until it finds a saturated point, and then bisects the
/// bracket. Every probe uses the same seed, fault placement and measurement
/// budget as `base`. Rates are only ever recorded in the estimate when the
/// corresponding probe actually ran (see the module docs for the two
/// degenerate shapes).
pub fn estimate_saturation_rate(
    base: &ExperimentConfig,
    search: SaturationSearch,
) -> Result<SaturationEstimate, ExperimentError> {
    let simulations = std::cell::Cell::new(0usize);
    let probe = |rate: f64| -> Result<(f64, bool), ExperimentError> {
        simulations.set(simulations.get() + 1);
        let outcome = base.clone().with_rate(rate).run()?;
        Ok((outcome.report.mean_latency, outcome.hit_max_cycles))
    };

    let (base_latency, base_saturated) = probe(search.base_rate)?;
    let threshold = base_latency * search.latency_factor;
    if base_saturated {
        // Even the reference load saturates: there is no stable point to
        // report, and no latency measured at a stable point.
        return Ok(SaturationEstimate {
            stable_rate: None,
            saturated_rate: Some(search.base_rate),
            latency_at_stable: None,
            base_latency,
            simulations: simulations.get(),
        });
    }

    // Exponential growth until a probe saturates (or the budget runs out
    // without one — the unbracketed case).
    let mut stable_rate = search.base_rate;
    let mut latency_at_stable = base_latency;
    let mut rate = search.base_rate * 2.0;
    let mut saturated_rate: Option<f64> = None;
    while simulations.get() < search.max_simulations {
        let (latency, capped) = probe(rate)?;
        if capped || latency > threshold {
            saturated_rate = Some(rate);
            break;
        }
        stable_rate = rate;
        latency_at_stable = latency;
        rate *= 2.0;
    }

    // Bisection of the bracket [stable_rate, saturated_rate], when one exists.
    if let Some(saturated) = &mut saturated_rate {
        while simulations.get() < search.max_simulations
            && (*saturated - stable_rate) / *saturated > search.relative_tolerance
        {
            let mid = (stable_rate + *saturated) / 2.0;
            let (latency, capped) = probe(mid)?;
            if capped || latency > threshold {
                *saturated = mid;
            } else {
                stable_rate = mid;
                latency_at_stable = latency;
            }
        }
    }

    Ok(SaturationEstimate {
        stable_rate: Some(stable_rate),
        saturated_rate,
        latency_at_stable: Some(latency_at_stable),
        base_latency,
        simulations: simulations.get(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::RoutingChoice;
    use torus_faults::FaultScenario;
    use torus_topology::TopologySpec;

    /// A deliberately tiny configuration so the search stays fast in debug
    /// builds.
    fn tiny(routing: RoutingChoice, v: usize) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_point(4, 2, v, 8, 0.001)
            .with_routing(routing)
            .quick(400, 100);
        // Large enough that the low-load reference probe can generate its whole
        // message budget; saturated probes still terminate at the cap.
        cfg.max_cycles = 150_000;
        cfg
    }

    #[test]
    fn finds_a_finite_bracket() {
        let est = estimate_saturation_rate(
            &tiny(RoutingChoice::Deterministic, 4),
            SaturationSearch {
                max_simulations: 10,
                ..SaturationSearch::default()
            },
        )
        .unwrap();
        assert!(est.bracketed());
        let stable = est.stable_rate.unwrap();
        let saturated = est.saturated_rate.unwrap();
        let rate = est.rate().unwrap();
        assert!(stable > 0.0);
        assert!(saturated > stable);
        assert!(rate > stable && rate < saturated);
        assert!(est.base_latency >= 8.0);
        assert!(est.latency_at_stable.unwrap() >= est.base_latency);
        assert!(est.simulations <= 10);
        // A 4-ary 2-cube with 8-flit messages saturates somewhere between a
        // fraction of a percent and ~20 % injection rate.
        assert!(rate > 0.002 && rate < 0.25, "rate {rate}");
        assert_eq!(est.display_rate(), format!("{rate:.5}"));
    }

    #[test]
    fn budget_exhausted_during_doubling_reports_no_saturated_rate() {
        // Regression for the fictitious-bracket bug: with a budget small
        // enough to exhaust during doubling, the old implementation stored
        // the *next, never-probed* doubling rate as `saturated_rate` and
        // `rate()` reported the midpoint of that fictitious bracket. Now the
        // saturated end is explicitly absent.
        let est = estimate_saturation_rate(
            &tiny(RoutingChoice::Deterministic, 4),
            SaturationSearch {
                max_simulations: 2,
                ..SaturationSearch::default()
            },
        )
        .unwrap();
        assert_eq!(est.simulations, 2);
        assert!(!est.bracketed());
        assert_eq!(est.saturated_rate, None, "no saturated probe ever ran");
        assert_eq!(est.rate(), None, "no bracket, no midpoint");
        // The stable end is real: base 0.001 plus one stable doubling probe.
        assert_eq!(est.stable_rate, Some(0.002));
        assert!(est.latency_at_stable.unwrap() > 0.0);
        assert!(est.display_rate().contains("unbracketed"));
    }

    #[test]
    fn budget_of_one_keeps_the_probed_base_as_the_stable_bound() {
        // Even harsher: only the base probe fits in the budget. The doubling
        // loop never runs, and the estimate must fall back to the probed base
        // rate — not to any rate the search merely intended to probe.
        let est = estimate_saturation_rate(
            &tiny(RoutingChoice::Deterministic, 4),
            SaturationSearch {
                max_simulations: 1,
                ..SaturationSearch::default()
            },
        )
        .unwrap();
        assert_eq!(est.simulations, 1);
        assert_eq!(est.stable_rate, Some(0.001));
        assert_eq!(est.saturated_rate, None);
        assert_eq!(est.rate(), None);
    }

    #[test]
    fn degenerate_saturation_at_base_rate_is_explicit() {
        // Regression for the degenerate-bracket bug: when even `base_rate`
        // saturates, the old estimate reported `stable_rate: 0.0` with
        // `latency_at_stable` measured at the *saturated* base point. Now
        // both are explicitly absent.
        let mut cfg = tiny(RoutingChoice::Deterministic, 4);
        // A cycle cap far below what the message budget needs at the base
        // rate forces the base probe itself to saturate.
        cfg.max_cycles = 300;
        let est = estimate_saturation_rate(
            &cfg,
            SaturationSearch {
                base_rate: 0.9,
                max_simulations: 8,
                ..SaturationSearch::default()
            },
        )
        .unwrap();
        assert_eq!(est.simulations, 1, "the search stops at the base probe");
        assert_eq!(est.stable_rate, None, "no stable point exists");
        assert_eq!(
            est.latency_at_stable, None,
            "must not report a latency measured at an unstable point"
        );
        assert_eq!(est.saturated_rate, Some(0.9), "the base probe did run");
        assert!(!est.bracketed());
        assert_eq!(est.rate(), None);
        assert!(est.display_rate().contains("saturated at base"));
    }

    #[test]
    fn adaptive_saturates_no_earlier_than_deterministic() {
        // 12 probes genuinely bracket on this config (the old 9-probe budget
        // only "worked" because the fictitious-bracket bug padded it).
        let search = SaturationSearch {
            max_simulations: 12,
            relative_tolerance: 0.2,
            ..SaturationSearch::default()
        };
        let det = estimate_saturation_rate(&tiny(RoutingChoice::Deterministic, 4), search).unwrap();
        let ada = estimate_saturation_rate(&tiny(RoutingChoice::Adaptive, 4), search).unwrap();
        // Adaptive routing exploits all minimal paths, so its saturation point
        // is at least as high (allow a small tolerance for bracketing noise).
        let (det_rate, ada_rate) = (det.rate().unwrap(), ada.rate().unwrap());
        assert!(
            ada_rate >= det_rate * 0.8,
            "adaptive {ada_rate} vs deterministic {det_rate}"
        );
    }

    #[test]
    fn faults_do_not_raise_the_saturation_point() {
        let search = SaturationSearch {
            max_simulations: 12,
            relative_tolerance: 0.25,
            ..SaturationSearch::default()
        };
        let clean =
            estimate_saturation_rate(&tiny(RoutingChoice::Deterministic, 4), search).unwrap();
        let faulty = estimate_saturation_rate(
            &tiny(RoutingChoice::Deterministic, 4)
                .with_faults(FaultScenario::RandomNodes { count: 2 }),
            search,
        )
        .unwrap();
        let (clean_rate, faulty_rate) = (clean.rate().unwrap(), faulty.rate().unwrap());
        assert!(
            faulty_rate <= clean_rate * 1.2,
            "faulty {faulty_rate} vs clean {clean_rate}"
        );
    }

    #[test]
    fn turn_model_saturation_is_comparable_to_duato_on_meshes() {
        // The comparison the tentpole exists for: on the same mesh, the
        // negative-first turn model brackets a saturation point in the same
        // regime as Duato-over-e-cube (both fully adaptive, different escape
        // substrates).
        let search = SaturationSearch {
            max_simulations: 12,
            relative_tolerance: 0.25,
            ..SaturationSearch::default()
        };
        let base =
            ExperimentConfig::topology_point(TopologySpec::mesh(4, 2), 2, 8, 0.001).quick(400, 100);
        let duato =
            estimate_saturation_rate(&base.clone().with_routing(RoutingChoice::Adaptive), search)
                .unwrap();
        let turn =
            estimate_saturation_rate(&base.with_routing(RoutingChoice::TurnModel), search).unwrap();
        assert!(duato.bracketed() && turn.bracketed());
        let (d, t) = (duato.rate().unwrap(), turn.rate().unwrap());
        assert!(
            t > d * 0.3 && t < d * 3.0,
            "turn-model {t} vs Duato {d} should be the same order of magnitude"
        );
    }
}
