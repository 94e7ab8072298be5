//! Adaptive vs deterministic Software-Based routing under an increasing
//! number of random node faults (the comparison behind Figs. 6 and 7 of the
//! paper): adaptive routing absorbs far fewer messages and keeps latency and
//! throughput closer to the fault-free baseline.
//!
//! On the matching mesh a third column joins the comparison: negative-first
//! **turn-model** routing, the escape-substrate alternative that only exists
//! on open topologies (wrapped dimensions reject it with a typed error). It
//! runs here at the same V as the others even though both adaptive schemes
//! would be content with V=2 on the mesh. Columns are limited to the routings
//! each shape accepts, so the up*/down* schemes (fat-tree only) never appear.
//!
//! ```text
//! cargo run --release --example adaptive_vs_deterministic
//! ```

use swbft::core::supported_routings;
use swbft::prelude::*;

fn run_row(topology: TopologySpec, routings: &[RoutingChoice], nf: usize, rate: f64) -> String {
    let mut row = format!("{nf:>4} |");
    for &routing in routings {
        let cfg = ExperimentConfig::topology_point(topology.clone(), 6, 32, rate)
            .with_routing(routing)
            .with_faults(if nf == 0 {
                FaultScenario::None
            } else {
                FaultScenario::RandomNodes { count: nf }
            })
            .with_seed(40 + nf as u64)
            .quick(4_000, 500);
        let out = cfg.run().expect("experiment runs");
        row.push_str(&format!(
            " {:>9.1} cyc {:>10} msg |",
            out.report.mean_latency, out.report.messages_queued
        ));
    }
    row.trim_end_matches('|').to_string()
}

fn header(routings: &[RoutingChoice]) {
    let mut top = format!("{:>4} |", "nf");
    let mut sub = format!("{:>4} |", "");
    for &routing in routings {
        top.push_str(&format!(" {:>28} |", routing.label()));
        sub.push_str(&format!(" {:>13} {:>14} |", "latency", "queued"));
    }
    println!("{}", top.trim_end_matches('|'));
    println!("{}", sub.trim_end_matches('|'));
    println!("{}", "-".repeat(top.len().saturating_sub(1)));
}

fn main() {
    let fault_counts = [0usize, 2, 4, 6, 8];
    let rate = 0.006;

    println!("8-ary 2-cube (torus), M=32, V=6, lambda={rate} messages/node/cycle, 4,000 measured messages per point\n");
    header(&RoutingChoice::BOTH);
    for &nf in &fault_counts {
        println!(
            "{}",
            run_row(TopologySpec::torus(8, 2), &RoutingChoice::BOTH, nf, rate)
        );
    }

    let mesh_rate = 0.004; // meshes saturate earlier: no wrap-around shortcuts
    let mesh = TopologySpec::mesh(8, 2);
    // Every routing the mesh accepts, in `RoutingChoice::ALL` order: the
    // up*/down* columns only appear on a fat-tree.
    let mesh_routings = supported_routings(&mesh, &RoutingChoice::ALL);
    println!("\n8-ary 2-mesh, M=32, V=6, lambda={mesh_rate} messages/node/cycle, 4,000 measured messages per point\n");
    header(&mesh_routings);
    for &nf in &fault_counts {
        println!("{}", run_row(mesh.clone(), &mesh_routings, nf, mesh_rate));
    }

    println!();
    println!("deterministic routing absorbs every message whose e-cube output is faulty,");
    println!("while the adaptive schemes only absorb a message when *all* productive outputs");
    println!("are faulty — hence their much lower \"messages queued\" count and latency");
    println!("penalty. On the mesh the turn model replaces Duato's e-cube escape with the");
    println!("negative-first turn rule (both need 2 VCs there; Duato's 3-VC budget is a");
    println!("torus requirement), at the cost of a phase-restricted adaptive set.");
}
