//! The multidimensional network layer at work, along two axes:
//!
//! 1. **Dimensionality** — run the same Software-Based routing algorithm on
//!    2-, 3- and 4-dimensional tori (the paper's contribution is precisely
//!    this extension beyond 2-D);
//! 2. **Topology family** — run the *same* experiment (same fault region,
//!    same workload) on a torus, the matching mesh and a hypercube of equal
//!    node count, and compare latency and the saturation estimate. Wrap-around
//!    links halve the average distance, so the torus sustains a higher load
//!    before saturating; the mesh needs fewer virtual channels because no
//!    dateline class exists.
//!
//! `--topology <spec>` replaces the default torus/mesh/hypercube trio with a
//! single shape of your choice, and `--routing <choice>` swaps the adaptive
//! Software-Based algorithm for another one (shapes the algorithm rejects are
//! reported with the typed error instead of crashing).
//!
//! The saturation column comes from the simulation-based doubling+bisection
//! search at a deliberately small probe budget. Small budgets are safe now
//! that the search reports honest brackets: a budget exhausted before
//! bracketing shows up as an explicit `>=` bound instead of the midpoint of a
//! fictitious bracket (this example previously fell back to the analytic
//! model for exactly that reason).
//!
//! ```text
//! cargo run --release --example dimensionality_sweep
//!     [-- --topology 8x8x4o] [-- --routing turnmodel]
//! ```

use std::process::ExitCode;
use swbft::core::{check_routings, estimate_saturation_rate, FigureError, SaturationSearch};
use swbft::prelude::*;
use swbft::topology::TopologySpec;
use torus_bench::Command;

const SWEEP: Command = Command {
    usage: "usage: dimensionality_sweep [--topology <spec>] [--routing <choice>]",
    values: &["--topology", "--routing"],
    switches: &[],
    operands: 0,
};

fn main() -> ExitCode {
    SWEEP.main(|args| {
        let opts = args.figure_options()?;
        let routing = opts.routings.map_or(RoutingChoice::Adaptive, |r| r[0]);
        sweep(routing, opts.topology);
        Ok(())
    })
}

fn sweep(routing: RoutingChoice, custom: Option<TopologySpec>) {
    // ---- axis 1: dimensionality (tori of comparable size) ----
    // Skipped when the chosen routing cannot run on tori (the turn models).
    let networks: [(u16, u32); 3] = [(8, 2), (4, 3), (4, 4)];
    let rate = 0.004;
    if check_routings(&TopologySpec::torus(8, 2), &[routing]).is_ok() {
        println!(
            "Software-Based {} routing, M=32, V=6, lambda={rate}, 3 random node faults\n",
            routing.label()
        );
        println!(
            "{:>12} {:>7} {:>12} {:>12} {:>10} {:>14}",
            "network", "nodes", "latency", "mean hops", "queued", "saturated?"
        );
        for (k, n) in networks {
            let cfg = ExperimentConfig::paper_point(k, n, 6, 32, rate)
                .with_routing(routing)
                .with_faults(FaultScenario::RandomNodes { count: 3 })
                .with_seed(7_000 + n as u64)
                .quick(3_000, 500);
            match cfg.run() {
                Ok(out) => println!(
                    "{:>9}-ary {:>1}-cube{:>4} {:>9.1} cyc {:>9.2} hops {:>8} {:>12}",
                    k,
                    n,
                    out.config.num_nodes(),
                    out.report.mean_latency,
                    out.report.mean_hops,
                    out.report.messages_queued,
                    out.hit_max_cycles,
                ),
                Err(e) => println!("{k:>9}-ary {n:>1}-cube  error: {e}"),
            }
        }
    } else {
        println!(
            "(skipping the torus dimensionality table: routing '{}' only runs on open topologies)",
            routing.label()
        );
    }

    // ---- axis 2: topology family under the same fault region ----
    // A centred 2x2 block fault region (Fig. 5 style, sized to fit even the
    // radix-2 hypercube dimensions) applied identically to a 64-node torus,
    // mesh and hypercube — or to the single shape given with `--topology`.
    // V=4 everywhere: legal on all defaults (the torus needs >= 3 for Duato,
    // the meshes only >= 2).
    println!(
        "\ntopology family — same 2x2 block fault region, {} routing, M=16, V=4\n",
        routing.label()
    );
    println!(
        "{:>16} {:>7} {:>12} {:>12} {:>10} {:>22} {:>7}",
        "topology", "nodes", "latency", "mean hops", "queued", "sat. (simulated)", "probes"
    );
    let specs: Vec<TopologySpec> = match custom {
        Some(spec) => vec![spec],
        None => vec![
            TopologySpec::torus(8, 2),
            TopologySpec::mesh(8, 2),
            TopologySpec::hypercube(6),
        ],
    };
    // A small-budget search: 10 probes of 1,000 measured messages each.
    let search = SaturationSearch {
        max_simulations: 10,
        relative_tolerance: 0.2,
        ..SaturationSearch::default()
    };
    for spec in specs {
        let net = match check_routings(&spec, &[routing]) {
            Ok(n) => n,
            Err(FigureError::UnsupportedRouting { error, .. }) => {
                println!(
                    "{:>16} routing '{}' rejected: {error}",
                    spec.label(),
                    routing.label()
                );
                continue;
            }
            Err(FigureError::Topology(e)) => {
                println!("{:>16} error: {e}", spec.label());
                continue;
            }
            Err(e) => unreachable!("check_routings only builds and checks routings: {e}"),
        };
        let Some(grid) = net.grid() else {
            println!("{:>16} fault regions are grid-only; skipped", spec.label());
            continue;
        };
        let region = RegionShape::Rect {
            width: 2,
            height: 2,
        };
        let faults = FaultScenario::centered_region(grid, region);
        let cfg = ExperimentConfig::topology_point(spec.clone(), 4, 16, 0.004)
            .with_routing(routing)
            .with_faults(faults)
            .with_seed(2026)
            .quick(2_000, 400);
        let out = match cfg.run() {
            Ok(out) => out,
            Err(e) => {
                println!("{:>16} error: {e}", spec.label());
                continue;
            }
        };
        match estimate_saturation_rate(&cfg.clone().quick(1_000, 200), search) {
            Ok(est) => println!(
                "{:>16} {:>7} {:>9.1} cyc {:>9.2} hops {:>8} {:>22} {:>7}",
                spec.label(),
                out.config.num_nodes(),
                out.report.mean_latency,
                out.report.mean_hops,
                out.report.messages_queued,
                est.display_rate(),
                est.simulations,
            ),
            Err(e) => println!("{:>16} saturation search error: {e}", spec.label()),
        }
    }
    println!();
    println!("the same SW-Based-nD algorithm (Fig. 2 of the paper) handles every shape: the");
    println!("torus's wrap-around links buy shorter routes and a later saturation point, the");
    println!("mesh trades that for a dateline-free VC budget (1 deterministic / 2 adaptive),");
    println!("and the hypercube is simply the radix-2 mesh instance of the same code path.");
}
