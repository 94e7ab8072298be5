//! Ablation study over the simulator parameters the paper fixes or leaves
//! unreported: flit-buffer depth, the software re-injection overhead Δ and
//! the number of virtual channels V. The paper fixes Δ = 0 and does not
//! report a buffer depth; this binary quantifies how sensitive the headline
//! latency results are to those choices. The paper also fixes the router
//! decision time Td = 0, which is `SimConfig`'s default and is not varied
//! here.
//!
//! By default the ablations run on the paper's 8-ary 2-cube comparing the two
//! Software-Based flavours; `--topology`/`--routing` re-run them on any shape
//! or routing algorithm (e.g. the turn model on a mesh).
//!
//! ```text
//! cargo run -p torus-bench --release --bin ablation
//!     [-- --topology mesh:8x2] [-- --routing turnmodel] [-- --jobs 8]
//! ```
//!
//! `--jobs` fans the ablation variants over N worker threads (default: all
//! cores); every variant owns its seed, so output is identical for any value.

use std::process::ExitCode;
use swbft_core::check_routings;
use swbft_core::prelude::*;
use torus_bench::Command;
use torus_topology::TopologySpec;

const ABLATION: Command = Command {
    usage: "usage: ablation [--topology <spec>] \
            [--routing det|adaptive|turnmodel|turnmodel-det] [--jobs N|auto]",
    values: &["--topology", "--routing", "--jobs"],
    switches: &[],
    operands: 0,
};

/// Fixed operating point for the ablations: M = 32, five random node faults,
/// a mid-load traffic rate.
fn base(topology: &TopologySpec, routing: RoutingChoice) -> ExperimentConfig {
    ExperimentConfig::topology_point(topology.clone(), 6, 32, 0.006)
        .with_routing(routing)
        .with_faults(FaultScenario::RandomNodes { count: 5 })
        .with_seed(0xAB1A)
        .quick(3_000, 500)
}

struct Row {
    label: String,
    /// (latency, queued, throughput), or the rendered experiment error.
    result: Result<(f64, u64, f64), String>,
}

impl Row {
    fn from_outcome(
        label: &str,
        outcome: Result<ExperimentOutcome, swbft_core::ExperimentError>,
    ) -> Row {
        Row {
            label: label.to_string(),
            result: outcome
                .map(|out| {
                    (
                        out.report.mean_latency,
                        out.report.messages_queued,
                        out.report.throughput,
                    )
                })
                .map_err(|e| e.to_string()),
        }
    }
}

fn run_variants(
    title: &str,
    variants: Vec<(String, ExperimentConfig)>,
    jobs: Jobs,
) -> (String, Vec<Row>) {
    let rows = run_pool(variants, jobs, |(label, cfg)| {
        Row::from_outcome(label, cfg.run())
    });
    (title.to_string(), rows)
}

fn print_section(title: &str, rows: &[Row]) {
    println!("\n== {title} ==");
    println!(
        "{:>34} | {:>14} | {:>10} | {:>12}",
        "variant", "latency (cyc)", "queued", "throughput"
    );
    println!("{}", "-".repeat(80));
    for r in rows {
        match &r.result {
            Ok((latency, queued, throughput)) => println!(
                "{:>34} | {:>14.1} | {:>10} | {:>12.5}",
                r.label, latency, queued, throughput
            ),
            Err(e) => println!("{:>34} | error: {e}", r.label),
        }
    }
}

fn main() -> ExitCode {
    ABLATION.main(|args| {
        let opts = args.figure_options()?;
        let topology = opts.topology.unwrap_or_else(|| TopologySpec::torus(8, 2));
        let routings = opts
            .routings
            .unwrap_or_else(|| RoutingChoice::BOTH.to_vec());
        // Reject routing/topology mismatches once, up front, instead of
        // printing one identical error per ablation row.
        check_routings(&topology, &routings)?;
        run(&topology, &routings, opts.jobs);
        Ok(())
    })
}

fn run(topology: &TopologySpec, routings: &[RoutingChoice], jobs: Jobs) {
    println!(
        "Ablation study — {}, M=32, V=6, nf=5, lambda=0.006, 3,000 measured messages per point",
        topology.label()
    );

    // 1. Flit-buffer depth.
    let mut variants = Vec::new();
    for &routing in routings {
        for depth in [1usize, 2, 4, 8] {
            let mut cfg = base(topology, routing);
            cfg.buffer_depth = depth;
            variants.push((format!("{}, buffer depth {}", routing.label(), depth), cfg));
        }
    }
    let (title, rows) = run_variants("flit-buffer depth per virtual channel", variants, jobs);
    print_section(&title, &rows);

    // 2. Software re-injection overhead Δ. `ExperimentConfig` has no Δ field
    // (the paper fixes it to 0), so these points set it on the simulator
    // configuration.
    let mut variants: Vec<(String, u32, ExperimentConfig)> = Vec::new();
    for &routing in routings {
        for delta in [0u32, 10, 50, 200] {
            variants.push((
                format!("{}, reinjection delay {} cycles", routing.label(), delta),
                delta,
                base(topology, routing),
            ));
        }
    }
    let rows = run_pool(variants, jobs, |(label, delta, cfg)| {
        let mut sim_cfg = cfg.sim_config();
        sim_cfg.reinjection_delay = *delta;
        Row::from_outcome(label, cfg.run_sim(sim_cfg))
    });
    print_section("software re-injection overhead Δ", &rows);

    // 3. Number of virtual channels.
    let mut variants = Vec::new();
    for &routing in routings {
        for v in [3usize, 4, 6, 10] {
            let mut cfg = base(topology, routing);
            cfg.virtual_channels = v;
            variants.push((format!("{}, V={}", routing.label(), v), cfg));
        }
    }
    let (title, rows) = run_variants("virtual channels per physical channel", variants, jobs);
    print_section(&title, &rows);

    println!("\nNotes:");
    println!("  * buffer depth 1 halves the effective per-hop bandwidth (credit round trip),");
    println!("    which is why the paper-style configuration uses depth >= 2;");
    println!("  * the re-injection overhead Δ only affects messages that encounter faults, so");
    println!("    its impact stays small at these fault densities (the paper sets Δ = 0);");
    println!("  * more virtual channels push saturation to higher loads for both flavours.");
}
