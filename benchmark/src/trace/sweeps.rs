//! Traced passes of the two sweep workloads: `figure_sweep` (each point timed
//! inside the pool closure, one extra `jobs = 1` pass, per-point set-up) and
//! `verify_matrix` (a serial pass that rebuilds `verify_case`'s loop from
//! `walk_pair -> accumulate_cdg -> record_pair -> find_cycle` around the
//! [`Traced`] wrapper).

use super::{ns_since, Counters, Gates, LayerMetrics, Span, Traced, Traces};
use crate::stats::{median, percentile};
use crate::workloads::{
    figure_inputs, figure_outcome, pool_jobs, run_verify_case, schedule_outcome, static_failure,
    sweep_jobs, verify_inputs, verify_outcome, CaseOutcome, VerifyCase, VerifyInputs, VerifyKind,
    WorkloadResult,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;
use swbft_core::{run_pool, ExperimentConfig, Figure, FigureOptions, Jobs, Scale};
use swbft_verify::exact::{accumulate_cdg, resource_count, Granularity};
use swbft_verify::matrix::STATE_BUDGET;
use swbft_verify::reach::record_pair;
use swbft_verify::{verify_schedule, walk_pair, ReachReport};
use torus_routing::DependencyGraph;
use torus_sim::Simulation;
use torus_topology::AnyTopology;

fn ms(values: &[u64]) -> Vec<f64> {
    values.iter().map(|&ns| ns as f64 / 1e6).collect()
}

/// The traced passes of `figure_sweep`; fills the `core.*` metrics.
pub fn trace_figure(
    seed: u64,
    divisor: u64,
    untraced: &WorkloadResult,
    layers: &mut LayerMetrics,
    gates: &mut Gates,
) -> Result<Traces, String> {
    let options = FigureOptions::new(Scale::Smoke);
    let plan_ns: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            black_box(Figure::Fig3.point_configs(&options)).map(|_| ns_since(start) as f64)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let configs = figure_inputs(seed, divisor)?;

    // One pass per pool width of interest, each point timed inside the pool
    // closure: serial, the end-to-end runs' width, the full width.
    let mut passes: BTreeMap<usize, FigurePass> = BTreeMap::new();
    for jobs in [1, sweep_jobs(), pool_jobs()] {
        if passes.contains_key(&jobs) {
            continue;
        }
        let start = Instant::now();
        let (results, point_ns): (Vec<_>, Vec<u64>) =
            run_pool(configs.clone(), Jobs::count(jobs), |config| {
                let start = Instant::now();
                let result = config.run();
                (result, ns_since(start))
            })
            .into_iter()
            .unzip();
        let wall_ns = ns_since(start);
        gates.check(
            figure_outcome(&results).digest == untraced.outcome.digest,
            || format!("figure_sweep: the traced pass at jobs={jobs} computed different CSV rows"),
        );
        let hit_cap = results
            .iter()
            .flatten()
            .filter(|point| point.hit_max_cycles)
            .count();
        passes.insert(
            jobs,
            FigurePass {
                wall_ns,
                point_ns,
                hit_cap,
            },
        );
    }
    let (serial, pooled) = (&passes[&1], &passes[&pool_jobs()]);

    let mut setup_ns = 0;
    for config in &configs {
        setup_ns += point_setup_ns(config)?;
    }
    let speedup = serial.wall_ns as f64 / pooled.wall_ns.max(1) as f64;
    let point_ms = ms(&pooled.point_ns);
    let slowest = pooled.point_ns.iter().copied().max().unwrap_or(0);
    layers.set("core.plan_ms", median(&plan_ns) / 1e6);
    layers.set("core.point_ms_p50", percentile(&point_ms, 0.50));
    layers.set("core.point_ms_p90", percentile(&point_ms, 0.90));
    layers.set("core.point_ms_max", slowest as f64 / 1e6);
    layers.set(
        "core.slowest_point_share",
        slowest as f64 / pooled.wall_ns.max(1) as f64,
    );
    layers.set("core.serial_wall_s", serial.wall_ns as f64 / 1e9);
    layers.set("core.pool_speedup", speedup);
    layers.set("core.pool_efficiency", speedup / pool_jobs() as f64);
    layers.set("core.points_hit_cap", serial.hit_cap as f64);
    layers.set(
        "core.point_setup_share",
        setup_ns as f64 / serial.point_ns.iter().sum::<u64>().max(1) as f64,
    );
    // Like against like: the traced pass at the end-to-end runs' width.
    layers.set(
        "trace.overhead_frac",
        passes[&sweep_jobs()].wall_ns as f64 / (median(&untraced.wall_s) * 1e9) - 1.0,
    );
    super::sim::set_simulated(&untraced.outcome, layers);

    // The span tree comes from the serial pass, where the points' busy times
    // add up to no more than their parent's.
    let points = serial
        .point_ns
        .iter()
        .map(|&ns| Span::leaf("point", 1, ns))
        .collect();
    Ok((
        Span::parent("figure_sweep", serial.wall_ns, points),
        vec![("core.point_ms", point_ms.len())],
    ))
}

/// One timed pass of the sweep at one pool width.
struct FigurePass {
    wall_ns: u64,
    point_ns: Vec<u64>,
    hit_cap: usize,
}

/// What `ExperimentConfig::run` does before its first cycle: build the
/// topology, realise the faults, construct the engine.
fn point_setup_ns(config: &ExperimentConfig) -> Result<u64, String> {
    let start = Instant::now();
    let net = config.topology.build().map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(config.fault_seed.unwrap_or(config.seed));
    let faults = config
        .faults
        .realize(&net, &mut rng)
        .map_err(|e| e.to_string())?;
    let sim = Simulation::new(config.sim_config(), faults, config.routing.algorithm())
        .map_err(|e| e.to_string())?;
    black_box(&sim);
    Ok(ns_since(start))
}

/// Host ns per phase of the re-assembled verify loop, and what it walked.
#[derive(Debug, Default)]
struct Phases {
    walk_ns: u64,
    fold_ns: u64,
    reach_ns: u64,
    find_cycle_ns: u64,
    schedule_ns: u64,
    pairs_walked: u64,
    rewalked: u64,
    reused: u64,
}

/// The traced passes of `verify_matrix`; fills the `verify.*` and
/// `routing.*` metrics.
pub fn trace_verify(
    divisor: u64,
    untraced: &WorkloadResult,
    layers: &mut LayerMetrics,
    gates: &mut Gates,
) -> Result<Traces, String> {
    let VerifyInputs { nets, cases } = verify_inputs(divisor)?;

    // One serial pass, each case run untraced and then traced back to back,
    // so that host drift between two long passes cannot pose as tracing
    // overhead (or hide it).
    let counters = Counters::new();
    let mut phases = Phases::default();
    let mut root = Span::parent("verify_matrix", 0, Vec::new());
    let (mut plain, mut case_ns) = (Vec::new(), Vec::new());
    let (mut serial_ns, mut traced_ns) = (0u64, 0u64);
    for case in &cases {
        let start = Instant::now();
        let expected = run_verify_case(&nets, case);
        let ns = ns_since(start);
        serial_ns += ns;
        case_ns.push(ns);

        let start = Instant::now();
        let (outcome, children) = traced_case(&nets[case.net], case, &counters, &mut phases)?;
        let ns = ns_since(start);
        traced_ns += ns;
        root.children.push(Span::parent("case", ns, children));
        // The re-assembled loop and the wrapper change nothing: same states,
        // pairs, edge count and verdict as `verify_case`.
        gates.check(outcome == expected, || {
            format!("{}: traced and untraced verification differ", case.label)
        });
        plain.push(expected);
    }
    root.busy_ns = traced_ns;
    // The pool at full width, for the speed-up over the serial pass.
    let start = Instant::now();
    let pooled = run_pool(cases.clone(), Jobs::count(pool_jobs()), |case| {
        run_verify_case(&nets, case)
    });
    let pooled_ns = ns_since(start);
    gates.check(pooled == plain, || {
        format!(
            "verify_matrix: jobs=1 and jobs={} computed different verdicts",
            pool_jobs()
        )
    });
    gates.check(
        verify_outcome(&cases, &plain).digest == untraced.outcome.digest,
        || {
            "verify_matrix: this pass and the end-to-end runs computed different verdicts"
                .to_string()
        },
    );

    let work = counters.snapshot();
    work.routing_metrics(traced_ns as f64, layers);
    let states: u64 = plain.iter().map(|c| c.states).sum();
    let case_ms = ms(&case_ns);
    layers.set("verify.walk_s", phases.walk_ns as f64 / 1e9);
    layers.set("verify.cdg_fold_s", phases.fold_ns as f64 / 1e9);
    layers.set("verify.reach_s", phases.reach_ns as f64 / 1e9);
    layers.set("verify.find_cycle_s", phases.find_cycle_ns as f64 / 1e9);
    layers.set("verify.schedule_s", phases.schedule_ns as f64 / 1e9);
    layers.set("verify.states", states as f64);
    layers.set(
        "verify.pairs",
        (phases.pairs_walked + phases.rewalked) as f64,
    );
    layers.set(
        "verify.ns_per_state",
        serial_ns as f64 / states.max(1) as f64,
    );
    layers.set(
        "verify.rewalked_frac",
        phases.rewalked as f64 / (phases.rewalked + phases.reused).max(1) as f64,
    );
    layers.set("verify.routing_share", layers.get("routing.share"));
    layers.set(
        "verify.route_calls_per_state",
        work.route.calls as f64 / states.max(1) as f64,
    );
    layers.set("verify.case_ms_p50", percentile(&case_ms, 0.50));
    layers.set("verify.case_ms_p95", percentile(&case_ms, 0.95));
    layers.set(
        "verify.pool_speedup",
        serial_ns as f64 / pooled_ns.max(1) as f64,
    );
    layers.set(
        "trace.overhead_frac",
        traced_ns as f64 / serial_ns.max(1) as f64 - 1.0,
    );
    Ok((root, vec![("verify.case_ms", case_ms.len())]))
}

/// One case through the re-assembled loop, with the wrapper's calls during
/// it aggregated under the phase that made them.
fn traced_case(
    net: &AnyTopology,
    case: &VerifyCase,
    counters: &Rc<Counters>,
    phases: &mut Phases,
) -> Result<(CaseOutcome, Vec<Span>), String> {
    let algo = Traced::new(case.algo, counters.clone());
    let before = counters.snapshot();
    match &case.kind {
        VerifyKind::Static(faults) => {
            let granularity = Granularity::PerVc;
            let mut graph = DependencyGraph::new(resource_count(net, case.v, granularity));
            let mut reach = ReachReport::default();
            let (mut states, mut walk_ns, mut fold_ns, mut reach_ns) = (0u64, 0u64, 0u64, 0u64);
            for src in net.endpoints().filter(|&n| !faults.is_node_faulty(n)) {
                for dest in net
                    .endpoints()
                    .filter(|&n| n != src && !faults.is_node_faulty(n))
                {
                    let start = Instant::now();
                    let walk = walk_pair(net, &algo, faults, case.v, src, dest, STATE_BUDGET)
                        .map_err(|e| format!("{}: {e}", case.label))?;
                    let walked = Instant::now();
                    accumulate_cdg(net, &walk, case.v, granularity, &mut graph);
                    let folded = Instant::now();
                    record_pair(&mut reach, &walk, src, dest);
                    reach_ns += ns_since(folded);
                    fold_ns += (folded - walked).as_nanos() as u64;
                    walk_ns += (walked - start).as_nanos() as u64;
                    states += walk.len() as u64;
                }
            }
            let start = Instant::now();
            let cyclic = graph.find_cycle().is_some();
            let find_cycle_ns = ns_since(start);
            phases.walk_ns += walk_ns;
            phases.fold_ns += fold_ns;
            phases.reach_ns += reach_ns;
            phases.find_cycle_ns += find_cycle_ns;
            phases.pairs_walked += reach.pairs as u64;
            let pairs = reach.pairs as u64;
            let mut walk = Span::leaf("verify.walk", pairs, walk_ns);
            walk.children = counters.snapshot().since(&before).spans();
            let outcome = CaseOutcome {
                failure: static_failure(cyclic, &reach),
                states,
                pairs,
                delivered: reach.delivered as u64,
                cdg_edges: graph.num_edges() as u64,
            };
            let spans = vec![
                walk,
                Span::leaf("verify.cdg_fold", pairs, fold_ns),
                Span::leaf("verify.reach", pairs, reach_ns),
                Span::leaf("verify.find_cycle", 1, find_cycle_ns),
            ];
            Ok((outcome, spans))
        }
        VerifyKind::Schedule(schedule) => {
            let start = Instant::now();
            let outcome = verify_schedule(net, &algo, schedule, case.v, STATE_BUDGET, false)
                .map_err(|e| format!("{}: {e}", case.label))?;
            let ns = ns_since(start);
            let (rewalked, reused) = outcome.rewalk_totals();
            phases.schedule_ns += ns;
            phases.rewalked += rewalked as u64;
            phases.reused += reused as u64;
            let mut span = Span::leaf("verify.schedule", 1, ns);
            span.children = counters.snapshot().since(&before).spans();
            Ok((schedule_outcome(&outcome), vec![span]))
        }
    }
}
