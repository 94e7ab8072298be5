//! Cross-check between the flit-level simulator and the first-order
//! analytical latency model (`torus-analytic`). The model is deliberately
//! coarse, so the assertions are qualitative: same low-load offset, same
//! ordering with message length / virtual channels / faults, and agreement
//! within a generous factor at light load.

use swbft::analytic::{AnalyticConfig, AnalyticModel};
use swbft::prelude::*;

fn simulate(v: usize, m: u32, nf: usize, rate: f64) -> SimulationReport {
    ExperimentConfig::paper_point(8, 2, v, m, rate)
        .with_routing(RoutingChoice::Deterministic)
        .with_faults(FaultScenario::random_nodes(nf))
        .with_seed(3111)
        .quick(1_500, 300)
        .run()
        .expect("simulation runs")
        .report
}

fn predict(v: usize, m: u32, nf: usize, rate: f64) -> f64 {
    AnalyticModel::new(AnalyticConfig::paper(8, 2, v, m, nf))
        .expect("valid model")
        .mean_latency(rate)
        .expect("below saturation")
}

#[test]
fn low_load_agreement_within_a_factor_of_two() {
    // At a very light load both the simulator and the model are dominated by
    // the distance + serialisation term, so they must agree closely.
    let sim = simulate(6, 32, 0, 0.001).mean_latency;
    let model = predict(6, 32, 0, 0.001);
    let ratio = sim / model;
    assert!(
        (0.5..2.0).contains(&ratio),
        "simulated {sim:.1} vs analytic {model:.1} (ratio {ratio:.2})"
    );
}

#[test]
fn both_predict_longer_messages_cost_proportionally_more() {
    let sim_ratio = simulate(6, 64, 0, 0.002).mean_latency / simulate(6, 32, 0, 0.002).mean_latency;
    let model_ratio = predict(6, 64, 0, 0.002) / predict(6, 32, 0, 0.002);
    // Doubling the message length roughly doubles the low-load latency in both
    // views (the paper's observation that latency is proportional to length).
    assert!(
        sim_ratio > 1.5 && sim_ratio < 3.5,
        "simulated ratio {sim_ratio}"
    );
    assert!(
        model_ratio > 1.5 && model_ratio < 2.5,
        "analytic ratio {model_ratio}"
    );
}

#[test]
fn both_predict_fault_latency_penalty() {
    let sim_penalty =
        simulate(6, 32, 5, 0.004).mean_latency - simulate(6, 32, 0, 0.004).mean_latency;
    let model_penalty = predict(6, 32, 5, 0.004) - predict(6, 32, 0, 0.004);
    assert!(sim_penalty > 0.0, "simulated penalty {sim_penalty}");
    assert!(model_penalty > 0.0, "analytic penalty {model_penalty}");
}

#[test]
fn model_saturation_estimate_brackets_simulated_saturation() {
    // The analytic saturation rate (which ignores protocol overheads) must be
    // an upper bound on the load the simulator can actually sustain, and the
    // simulator must still be stable at half that estimate.
    let model = AnalyticModel::new(AnalyticConfig::paper(8, 2, 6, 32, 0)).unwrap();
    let sat = model.saturation_rate();
    assert!(sat > 0.02 && sat < 0.05, "saturation estimate {sat}");
    let half = simulate(6, 32, 0, sat / 2.0);
    assert!(
        half.mean_latency < 1_000.0,
        "half-saturation latency {}",
        half.mean_latency
    );
}
