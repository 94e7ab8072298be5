//! The benchmark's metric tables: names, units, directions and bounds.
//!
//! `BENCHMARK.json` at the repository root repeats these tables for the
//! driver; `tests/contract.rs` keeps the two in step.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the reference median by which the metric may worsen before
    /// it counts as a regression.
    pub bound: f64,
    /// Absolute slack added to the bound by `compare` (a 2 ms set-up cannot
    /// be held to a relative bound alone).
    pub slack: f64,
}

/// The end-to-end metrics, all host-side, printed by every workload. The
/// bounds are three times the widest seed-to-seed quartile spread seen in the
/// A/A sets on the growth container (7.8 % on `wall_s`, 4.5 % on
/// `peak_rss_mb`), capped at the driver's 0.25: they describe that host's
/// noise floor, not what matters (see README, "A/A procedure"). What
/// one unit of `work_per_s` is depends on the workload: a simulated cycle on
/// `sim_*` (the `sim_cycles_per_s` of BENCH_cycles.json), a figure point on
/// `figure_sweep`, a verified case on `verify_matrix`.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        slack: 0.02,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        slack: 0.0,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        slack: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        slack: 0.5,
    },
];

/// The simulated (model-side) statistics of `sim_*` and `figure_sweep`, with
/// units. They are an exact function of the seed, so they cannot be held to
/// a bound across seeds the way the driver holds end-to-end metrics: result
/// files carry them beside the end-to-end metrics, `compare` requires them
/// bit-for-bit equal on equal seeds, and traced runs repeat them as
/// `sim.latency_cycles` / `sim.delivered_frac`.
pub const SIMULATED: [(&str, &str); 2] = [
    ("sim_latency_cycles", "cycles"),
    ("sim_delivered_frac", "ratio"),
];

/// One per-layer metric, printed by a traced run.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// A count that must repeat bit-for-bit on a fixed seed.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics, layer = crate. A workload that never enters a layer
/// reports 0 for that layer's metrics.
pub const PER_LAYER: [PerLayer; 69] = [
    // topology: micro loops on torus:8x3 and ft:4,3.
    layer("topology.grid.build_us", "us", Lower, false),
    layer("topology.fattree.build_us", "us", Lower, false),
    layer("topology.grid.neighbor_ns", "ns", Lower, false),
    layer("topology.fattree.neighbor_ns", "ns", Lower, false),
    layer("topology.grid.distance_ns", "ns", Lower, false),
    layer("topology.fattree.distance_ns", "ns", Lower, false),
    // routing: the delegating `Traced` wrapper.
    layer("routing.route_calls", "count", Lower, true),
    layer("routing.route_ns_per_call", "ns", Lower, false),
    layer("routing.route_share", "ratio", Lower, false),
    layer("routing.route_calls_per_hop", "ratio", Lower, true),
    layer("routing.absorb_per_msg", "ratio", Lower, true),
    layer("routing.reroute_calls", "count", Lower, true),
    layer("routing.reroute_ns_per_call", "ns", Lower, false),
    layer("routing.reroute_ns_max", "ns", Lower, false),
    layer("routing.reroute_share", "ratio", Lower, false),
    layer("routing.note_hop_ns_per_call", "ns", Lower, false),
    layer("routing.make_header_ns_per_call", "ns", Lower, false),
    layer("routing.share", "ratio", Lower, false),
    // faults: micro loops.
    layer("faults.realize_random_us", "us", Lower, false),
    layer("faults.realize_region_us", "us", Lower, false),
    layer("faults.connectivity_us", "us", Lower, false),
    layer("faults.is_node_faulty_ns", "ns", Lower, false),
    layer("faults.schedule_epochs_us", "us", Lower, false),
    // workloads: micro loop over `TrafficSource::generate`.
    layer("workloads.generate_ns_per_msg", "ns", Lower, false),
    layer("workloads.generated_msgs", "count", Higher, true),
    // metrics: micro loops over `MetricsCollector`.
    layer("metrics.record_ns_per_msg", "ns", Lower, false),
    layer("metrics.report_us", "us", Lower, false),
    // sim: timing `Simulation::new`, windows of `step`, the reference replay.
    layer("sim.construct_ms", "ms", Lower, false),
    layer("sim.warmup_s", "s", Lower, false),
    layer("sim.window_ms_p50", "ms", Lower, false),
    layer("sim.window_ms_p95", "ms", Lower, false),
    layer("sim.flit_hops", "count", Higher, true),
    layer("sim.ns_per_flit_hop", "ns", Lower, false),
    layer("sim.self_share", "ratio", Lower, false),
    layer("sim.reference_cycles_per_s", "1/s", Higher, false),
    layer("sim.active_over_reference", "ratio", Higher, false),
    layer("sim.message_table_peak", "count", Lower, true),
    layer("sim.in_flight_end", "count", Lower, true),
    layer("sim.absorptions", "count", Lower, true),
    layer("sim.forced_absorptions", "count", Lower, true),
    layer("sim.mean_hops", "count", Lower, true),
    layer("sim.latency_cycles", "cycles", Lower, true),
    layer("sim.delivered_frac", "ratio", Higher, true),
    // core: the figure plan, each point inside the pool, the pool itself.
    layer("core.plan_ms", "ms", Lower, false),
    layer("core.point_ms_p50", "ms", Lower, false),
    layer("core.point_ms_p90", "ms", Lower, false),
    layer("core.point_ms_max", "ms", Lower, false),
    layer("core.slowest_point_share", "ratio", Lower, false),
    layer("core.serial_wall_s", "s", Lower, false),
    layer("core.pool_speedup", "ratio", Higher, false),
    layer("core.pool_efficiency", "ratio", Higher, false),
    layer("core.pool_overhead_us_per_item", "us", Lower, false),
    layer("core.points_hit_cap", "count", Lower, true),
    layer("core.point_setup_share", "ratio", Lower, false),
    // verify: the re-assembled `verify_case` loop.
    layer("verify.walk_s", "s", Lower, false),
    layer("verify.cdg_fold_s", "s", Lower, false),
    layer("verify.reach_s", "s", Lower, false),
    layer("verify.find_cycle_s", "s", Lower, false),
    layer("verify.schedule_s", "s", Lower, false),
    layer("verify.states", "count", Lower, true),
    layer("verify.pairs", "count", Higher, true),
    layer("verify.ns_per_state", "ns", Lower, false),
    layer("verify.rewalked_frac", "ratio", Lower, true),
    layer("verify.routing_share", "ratio", Lower, false),
    layer("verify.route_calls_per_state", "ratio", Lower, true),
    layer("verify.case_ms_p50", "ms", Lower, false),
    layer("verify.case_ms_p95", "ms", Lower, false),
    layer("verify.pool_speedup", "ratio", Higher, false),
    // the benchmark itself: traced wall / untraced wall - 1.
    layer("trace.overhead_frac", "ratio", Lower, false),
];
