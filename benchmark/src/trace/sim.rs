//! Traced repetitions of the `sim_*` workloads: the [`Traced`] wrapper inside
//! `Simulation`, window timers around `Simulation::step`.

use super::{ns_since, Counters, Gates, LayerMetrics, Snapshot, Span, Traced, Traces};
use crate::stats::{median, percentile};
use crate::workloads::{
    sim_algorithm, sim_inputs, sim_outcome, Outcome, SimSpec, WorkloadResult, MIN_REPS,
};
use std::time::Instant;
use torus_sim::Simulation;

/// Cycles per timed window: the issue's 500-cycle windows scaled with the
/// workloads (1/4), so that a traced run still pools >= 200 of them.
pub const WINDOW_CYCLES: u64 = 125;

struct TracedRep {
    construct_ns: u64,
    warmup_ns: u64,
    timed_ns: u64,
    window_ns: Vec<u64>,
    work: Snapshot,
}

/// Repeats the simulated statistics of the untraced half as per-layer
/// metrics, so that a traced run shows them too.
pub fn set_simulated(outcome: &Outcome, layers: &mut LayerMetrics) {
    if let Some(simulated) = &outcome.simulated {
        layers.set("sim.latency_cycles", simulated.latency_cycles);
        layers.set("sim.delivered_frac", simulated.delivered_frac);
    }
}

/// Runs traced repetitions for `seconds`, fills the `routing.*` and `sim.*`
/// metrics and returns the span tree with the pooled sample counts.
pub fn trace(
    spec: &SimSpec,
    seed: u64,
    seconds: f64,
    divisor: u64,
    untraced: &WorkloadResult,
    layers: &mut LayerMetrics,
    gates: &mut Gates,
) -> Result<Traces, String> {
    let warmup_cycles = spec.warmup_cycles / divisor;
    let timed_cycles = spec.timed_cycles / divisor;
    let run_start = Instant::now();
    let mut root = Span::parent(spec.name, 0, Vec::new());
    let mut reps: Vec<TracedRep> = Vec::new();
    let mut end_state = None;
    while reps.len() < MIN_REPS || run_start.elapsed().as_secs_f64() < seconds {
        let counters = Counters::new();
        let (config, faults) = sim_inputs(spec, seed)?;
        let algo = Traced::new(sim_algorithm(spec)?, counters.clone());
        let start = Instant::now();
        let mut sim = Simulation::new(config, faults, algo).map_err(|e| e.to_string())?;
        let construct_ns = ns_since(start);
        let start = Instant::now();
        for _ in 0..warmup_cycles {
            sim.step();
        }
        let warmup_ns = ns_since(start);

        let before = counters.snapshot();
        let mut window_ns = Vec::new();
        let mut at_window_start = before;
        let mut done = 0;
        while done < timed_cycles {
            let window = WINDOW_CYCLES.min(timed_cycles - done);
            let start = Instant::now();
            for _ in 0..window {
                sim.step();
            }
            let ns = ns_since(start);
            done += window;
            let now = counters.snapshot();
            root.children.push(Span::parent(
                "window",
                ns,
                now.since(&at_window_start).spans(),
            ));
            at_window_start = now;
            window_ns.push(ns);
        }
        let work = at_window_start.since(&before);

        // Wrapper transparency: the traced engine computed exactly what the
        // untraced one did, and every traced repetition made the same calls.
        let outcome = sim_outcome(&sim.report(), sim.dropped_messages(), timed_cycles);
        gates.check(outcome.digest == untraced.outcome.digest, || {
            format!(
                "{}: traced and untraced runs give different reports",
                spec.name
            )
        });
        if let Some(first) = reps.first() {
            gates.check(first.work.counts() == work.counts(), || {
                format!(
                    "{}: traced repetitions made different routing calls",
                    spec.name
                )
            });
        }
        end_state = Some((
            sim.report(),
            sim.message_table_peak(),
            sim.forced_absorptions(),
        ));
        reps.push(TracedRep {
            construct_ns,
            warmup_ns,
            timed_ns: window_ns.iter().sum(),
            window_ns,
            work,
        });
    }
    let count = reps.len() as u64;
    root.children.push(Span::leaf(
        "sim.construct",
        count,
        reps.iter().map(|r| r.construct_ns).sum(),
    ));
    root.children.push(Span::leaf(
        "sim.warmup",
        count,
        reps.iter().map(|r| r.warmup_ns).sum(),
    ));
    root.busy_ns = root.children.iter().map(|c| c.busy_ns).sum();

    // Counts come from one repetition (they are equal in all); times pool
    // every traced repetition.
    let per_rep = |f: fn(&TracedRep) -> u64| reps.iter().map(|r| f(r) as f64).collect::<Vec<_>>();
    let traced_wall_ns = median(&per_rep(|r| r.timed_ns));
    let untraced_wall_ns = median(&untraced.wall_s) * 1e9;
    let pooled = reps
        .iter()
        .skip(1)
        .fold(reps[0].work, |acc, rep| acc.plus(&rep.work));
    let total_traced_ns: f64 = per_rep(|r| r.timed_ns).iter().sum();
    pooled.routing_metrics(total_traced_ns, layers);
    let first = &reps[0].work;
    layers.set("routing.route_calls", first.route.calls as f64);
    layers.set("routing.reroute_calls", first.reroute.calls as f64);

    let windows_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| &r.window_ns)
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let flit_hops = first.note_hop.calls * u64::from(spec.message_length);
    let (report, table_peak, forced) = end_state.ok_or("no traced repetition ran")?;
    layers.set(
        "sim.construct_ms",
        median(&per_rep(|r| r.construct_ns)) / 1e6,
    );
    layers.set("sim.warmup_s", median(&per_rep(|r| r.warmup_ns)) / 1e9);
    layers.set("sim.window_ms_p50", percentile(&windows_ms, 0.50));
    layers.set("sim.window_ms_p95", percentile(&windows_ms, 0.95));
    layers.set("sim.flit_hops", flit_hops as f64);
    layers.set(
        "sim.ns_per_flit_hop",
        untraced_wall_ns / flit_hops.max(1) as f64,
    );
    layers.set("sim.self_share", 1.0 - layers.get("routing.share"));
    if let Some(replay) = &untraced.replay {
        layers.set(
            "sim.reference_cycles_per_s",
            replay.cycles as f64 / replay.reference_s,
        );
        layers.set(
            "sim.active_over_reference",
            replay.reference_s / replay.active_s,
        );
    }
    layers.set("sim.message_table_peak", table_peak as f64);
    layers.set("sim.in_flight_end", report.in_flight_messages as f64);
    layers.set("sim.absorptions", report.messages_queued as f64);
    layers.set("sim.forced_absorptions", forced as f64);
    layers.set("sim.mean_hops", report.mean_hops);
    set_simulated(&untraced.outcome, layers);
    layers.set(
        "trace.overhead_frac",
        traced_wall_ns / untraced_wall_ns - 1.0,
    );
    Ok((
        root,
        vec![
            ("sim.window_ms", windows_ms.len()),
            ("traced_reps", reps.len()),
        ],
    ))
}
