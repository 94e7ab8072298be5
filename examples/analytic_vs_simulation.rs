//! Cross-check the flit-level simulator against the first-order analytical
//! latency model (the "analytical modeling approach" the paper names as future
//! work): sweep the traffic rate in a fault-free and a faulty 8-ary 2-cube and
//! print the two predictions side by side.
//!
//! ```text
//! cargo run --release --example analytic_vs_simulation
//! ```

use swbft::analytic::{AnalyticConfig, AnalyticModel};
use swbft::prelude::*;

fn main() {
    let (k, n, v, m) = (8u16, 2u32, 6usize, 32u32);
    for nf in [0usize, 5] {
        let model =
            AnalyticModel::new(AnalyticConfig::paper(k, n, v, m, nf)).expect("valid topology");
        println!(
            "\n8-ary 2-cube, V={v}, M={m}, nf={nf}   (analytic saturation estimate: {:.4} msg/node/cycle)",
            model.saturation_rate()
        );
        println!(
            "{:>10} | {:>18} | {:>18} | {:>8}",
            "rate", "simulated latency", "analytic latency", "ratio"
        );
        println!("{}", "-".repeat(64));
        for rate in [0.002, 0.004, 0.006, 0.008] {
            let sim = ExperimentConfig::paper_point(k, n, v, m, rate)
                .with_routing(RoutingChoice::Deterministic)
                .with_faults(FaultScenario::random_nodes(nf))
                .quick(3_000, 500)
                .run()
                .expect("simulation runs");
            let analytic = model.mean_latency(rate);
            match analytic {
                Some(a) => println!(
                    "{:>10.4} | {:>14.1} cyc | {:>14.1} cyc | {:>8.2}",
                    rate,
                    sim.report.mean_latency,
                    a,
                    sim.report.mean_latency / a
                ),
                None => println!(
                    "{:>10.4} | {:>14.1} cyc | {:>18} |",
                    rate, sim.report.mean_latency, "saturated"
                ),
            }
        }
    }
    println!();
    println!("the analytical model captures the low-load offset (distance + serialisation)");
    println!("and the divergence towards saturation; the simulator adds the protocol effects");
    println!("(virtual-channel allocation, wormhole blocking chains, software re-injection)");
    println!("that the first-order model ignores, so its latency sits above the model's.");
}
