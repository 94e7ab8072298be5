//! Fault regions (paper Fig. 1 and Fig. 5): render the convex and concave
//! fault-region shapes, classify them, and compare the latency penalty of a
//! convex (rectangular) region against a concave (U-shaped) region — plus the
//! per-dimension fault-density knob: the same number of faults spread
//! uniformly vs clustered into a slab of planes along one axis.
//!
//! ```text
//! cargo run --release --example fault_regions
//!     [-- --topology mesh:8x2] [-- --routing turnmodel]
//! ```

use std::process::ExitCode;
use swbft::core::check_routings;
use swbft::faults::{classify_region, RegionClass, RegionShape};
use swbft::prelude::*;
use swbft::topology::TopologySpec;
use torus_bench::{CliError, Command};

const REGIONS: Command = Command {
    usage: "usage: fault_regions [--topology <spec>] [--routing <choice>]",
    values: &["--topology", "--routing"],
    switches: &[],
    operands: 0,
};

fn main() -> ExitCode {
    REGIONS.main(|args| {
        let opts = args.figure_options()?;
        let topology = opts.topology.unwrap_or_else(|| TopologySpec::torus(8, 2));
        let routing = opts.routings.map_or(RoutingChoice::Deterministic, |r| r[0]);
        compare(&topology, routing)
    })
}

fn compare(topology: &TopologySpec, routing: RoutingChoice) -> Result<(), CliError> {
    println!("Fault-region shapes used in the paper (Fig. 1 / Fig. 5):\n");
    let shapes: Vec<(RegionShape, &str)> = vec![
        (RegionShape::Bar { length: 5 }, "| (bar)"),
        (RegionShape::DoubleBar { length: 4 }, "|| (double bar)"),
        (RegionShape::paper_rect_20(), "rect (block)"),
        (RegionShape::paper_l_9(), "L"),
        (RegionShape::paper_u_8(), "U"),
        (RegionShape::paper_t_10(), "T"),
        (RegionShape::paper_plus_16(), "+"),
        (
            RegionShape::HShape {
                width: 5,
                height: 5,
            },
            "H",
        ),
    ];
    for (shape, label) in &shapes {
        let class = match classify_region(shape) {
            RegionClass::Convex => "convex",
            RegionClass::Concave => "concave",
        };
        println!("{label}  —  {} faulty nodes, {class}", shape.node_count());
        for line in shape.render_ascii().lines() {
            println!("    {line}");
        }
        println!();
    }

    let net = check_routings(topology, &[routing])?;
    let Some(grid) = net.grid() else {
        println!(
            "fault regions are defined by grid coordinates; {} has none, \
             so the region comparison is skipped",
            topology.label()
        );
        return Ok(());
    };

    // Latency comparison: convex vs concave region of similar size, identical
    // traffic. A region that does not fit the requested topology reports its
    // placement error instead of aborting the example.
    println!(
        "latency penalty, {} routing, {}, M=32, V=10, lambda=0.006:\n",
        routing.label(),
        topology.label()
    );
    for (shape, label) in [
        (
            RegionShape::Rect {
                width: 3,
                height: 3,
            },
            "convex 3x3 block (9 nodes)",
        ),
        (RegionShape::paper_l_9(), "concave L-shape (9 nodes)"),
    ] {
        let cfg = ExperimentConfig::topology_point(topology.clone(), 10, 32, 0.006)
            .with_routing(routing)
            .with_faults(FaultScenario::centered_region(grid, shape))
            .quick(3_000, 500);
        match cfg.run() {
            Ok(out) => println!(
                "  {label:<30} mean latency {:>7.1} cycles, messages queued {:>5}",
                out.report.mean_latency, out.report.messages_queued
            ),
            Err(e) => println!("  {label:<30} error: {e}"),
        }
    }
    println!("\nconcave regions are harder to enter and exit, so their latency (and absorption count) is higher — the paper's Fig. 5 observation.");

    // Per-dimension fault density: the same fault count spread uniformly over
    // the whole network vs clustered into a 2-plane slab along dimension 0 —
    // the knob for studying how each routing scheme reacts when faults
    // concentrate along one axis instead of spreading evenly.
    println!("\nuniform vs axis-clustered random faults, nf=8, same workload:\n");
    let scenarios = [
        (
            FaultScenario::RandomNodes { count: 8 },
            "uniform over the network",
        ),
        (
            FaultScenario::ClusteredNodes {
                count: 8,
                dim: 0,
                plane: 2,
                width: 2,
            },
            "clustered: dim 0, planes 2-3",
        ),
    ];
    for (faults, label) in scenarios {
        let cfg = ExperimentConfig::topology_point(topology.clone(), 10, 32, 0.006)
            .with_routing(routing)
            .with_faults(faults)
            .with_seed(0xC1A5)
            .quick(3_000, 500);
        match cfg.run() {
            Ok(out) => println!(
                "  {label:<30} mean latency {:>7.1} cycles, messages queued {:>5}",
                out.report.mean_latency, out.report.messages_queued
            ),
            Err(e) => println!("  {label:<30} error: {e}"),
        }
    }
    Ok(())
}
