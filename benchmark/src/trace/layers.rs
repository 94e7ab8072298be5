//! Micro loops over single layers' public functions: topology, faults,
//! workloads, metrics and the pool. They do not depend on the workload, so
//! every traced run reports them.

use super::LayerMetrics;
use crate::workloads::{mix_seed, pool_jobs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use swbft_core::{run_pool, Jobs};
use swbft_verify::matrix::{matrix_schedule_cases, MatrixKind};
use torus_faults::{FaultScenario, FaultSet, RegionShape};
use torus_metrics::{MetricsCollector, WarmupPolicy};
use torus_topology::{AnyTopology, Direction, NodeId, TopologySpec};
use torus_workloads::TrafficSpec;

/// Host time each micro loop runs for at least.
const MIN_LOOP_S: f64 = 0.02;

/// Mean ns per call of `op`, repeated until [`MIN_LOOP_S`] have passed (at
/// least eight times).
fn ns_per_call<R>(mut op: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 8 || start.elapsed().as_secs_f64() < MIN_LOOP_S {
        black_box(op());
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

fn build(spec: &str) -> Result<AnyTopology, String> {
    TopologySpec::parse(spec)?
        .build()
        .map_err(|e| e.to_string())
}

/// Runs every micro loop and fills the `topology.*`, `faults.*`,
/// `workloads.*`, `metrics.*` metrics and `core.pool_overhead_us_per_item`.
pub fn measure(seed: u64, out: &mut LayerMetrics) -> Result<(), String> {
    // The timed loops draw a host-dependent number of values, so the loop
    // whose count must repeat exactly (`traffic`) gets a stream of its own.
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 3));
    topology("grid", "torus:8x3", &mut rng, out)?;
    topology("fattree", "ft:4,3", &mut rng, out)?;
    faults(&mut rng, out)?;
    traffic(&mut StdRng::seed_from_u64(mix_seed(seed, 4)), out)?;
    collector(out);
    let items: Vec<u32> = (0..10_000).collect();
    let jobs = Jobs::count(pool_jobs());
    let ns = ns_per_call(|| run_pool(items.clone(), jobs, |&i| i));
    out.set(
        "core.pool_overhead_us_per_item",
        ns / 1e3 / items.len() as f64,
    );
    Ok(())
}

fn topology(
    family: &str,
    spec: &str,
    rng: &mut StdRng,
    out: &mut LayerMetrics,
) -> Result<(), String> {
    let parsed = TopologySpec::parse(spec)?;
    out.set(
        &format!("topology.{family}.build_us"),
        ns_per_call(|| parsed.build()) / 1e3,
    );
    let net = build(spec)?;
    let ports = net.nodes().count() * net.dims() * 2;
    let sweep = ns_per_call(|| {
        for node in net.nodes() {
            for dim in 0..net.dims() {
                black_box(net.neighbor(node, dim, Direction::Plus));
                black_box(net.neighbor(node, dim, Direction::Minus));
            }
        }
    });
    out.set(
        &format!("topology.{family}.neighbor_ns"),
        sweep / ports as f64,
    );
    let endpoints = net.num_endpoints() as u32;
    let pairs: Vec<(NodeId, NodeId)> = (0..100_000)
        .map(|_| {
            (
                NodeId(rng.gen_range(0..endpoints)),
                NodeId(rng.gen_range(0..endpoints)),
            )
        })
        .collect();
    let sweep = ns_per_call(|| {
        pairs
            .iter()
            .map(|&(a, b)| u64::from(net.distance(a, b)))
            .sum::<u64>()
    });
    out.set(
        &format!("topology.{family}.distance_ns"),
        sweep / pairs.len() as f64,
    );
    Ok(())
}

fn faults(rng: &mut StdRng, out: &mut LayerMetrics) -> Result<(), String> {
    let small = build("torus:8x2")?;
    let random = FaultScenario::RandomNodes { count: 5 };
    out.set(
        "faults.realize_random_us",
        ns_per_call(|| random.realize(&small, rng)) / 1e3,
    );
    let grid = small.grid().ok_or("torus:8x2 is a grid")?;
    let region = FaultScenario::centered_region(grid, RegionShape::paper_u_8());
    out.set(
        "faults.realize_region_us",
        ns_per_call(|| region.realize(&small, rng)) / 1e3,
    );
    let region_set: FaultSet = region.realize(&small, rng).map_err(|e| e.to_string())?;
    let sweep = ns_per_call(|| {
        small
            .nodes()
            .filter(|&n| region_set.is_node_faulty(n))
            .count()
    });
    out.set("faults.is_node_faulty_ns", sweep / small.num_nodes() as f64);

    let large = build("torus:8x3")?;
    let twelve = FaultScenario::RandomNodes { count: 12 }
        .realize(&large, rng)
        .map_err(|e| e.to_string())?;
    out.set(
        "faults.connectivity_us",
        ns_per_call(|| twelve.preserves_connectivity(&large)) / 1e3,
    );

    let (_, schedule) = matrix_schedule_cases(&small, MatrixKind::Full)
        .into_iter()
        .next()
        .ok_or("no schedule case on torus:8x2")?;
    out.set(
        "faults.schedule_epochs_us",
        ns_per_call(|| schedule.epochs(&small)) / 1e3,
    );
    Ok(())
}

/// `TrafficSource::generate` polled the way the engine's arrival calendar
/// polls it (only at due cycles), at the lowest and the highest offered load
/// of the sim workloads.
fn traffic(rng: &mut StdRng, out: &mut LayerMetrics) -> Result<(), String> {
    const POLLS: u32 = 20_000;
    let net = build("torus:8x2")?;
    let no_faults = FaultSet::new();
    let (mut ns, mut messages) = (0u128, 0u64);
    for rate in [0.001, 0.024] {
        let mut source = TrafficSpec::paper(rate, 32).source_for(NodeId(0));
        let mut cycle = 0u64;
        let start = Instant::now();
        for _ in 0..POLLS {
            messages += source.generate(&net, &no_faults, cycle, rng).len() as u64;
            cycle = source
                .next_due_cycle()
                .ok_or("a positive rate is always due again")?
                .max(cycle + 1);
        }
        ns += start.elapsed().as_nanos();
    }
    out.set("workloads.generated_msgs", messages as f64);
    out.set(
        "workloads.generate_ns_per_msg",
        ns as f64 / messages.max(1) as f64,
    );
    Ok(())
}

fn collector(out: &mut LayerMetrics) {
    const RECORDS: u64 = 100_000;
    let mut collector = MetricsCollector::new(64, WarmupPolicy::Messages(2_000));
    let start = Instant::now();
    for i in 0..RECORDS {
        let measured = collector.on_generated(i);
        collector.on_delivered(i, i + 1, i + 40 + i % 7, 32, 5, measured);
    }
    out.set(
        "metrics.record_ns_per_msg",
        start.elapsed().as_nanos() as f64 / RECORDS as f64,
    );
    out.set(
        "metrics.report_us",
        ns_per_call(|| collector.report(RECORDS, 0)) / 1e3,
    );
}
