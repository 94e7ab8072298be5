//! The six workloads — the end-to-end half.
//!
//! Everything here binds to a deliberately small part of the crates' public
//! API (`TopologySpec::parse`/`build`, `SimConfig::paper_topology` and its
//! public fields, `Simulation::{new, step, report, dropped_messages}`,
//! `ReferenceSimulation::{new, step, report}`,
//! `RoutingChoice::parse(..).algorithm()`,
//! `FaultScenario::{centered_region, realize}`, `Figure::point_configs`,
//! `FigureOptions`, `run_pool`/`Jobs`, `ExperimentConfig::{with_seed, run}`,
//! the `matrix_*` enumerators, `verify_case`, `verify_schedule`), so that an
//! engine change which reshapes `RoutingAlgorithm::route` or the candidate
//! list can still build and run this half unedited. The traced half
//! (`crate::trace`, cargo feature `trace`) is where the wider bindings live.
//!
//! Every workload is **fixed work**: one repetition does the same work on
//! every commit (simulated traffic inside it is open-loop Poisson at the
//! stated rate). A run repeats the repetition until `--seconds` is used up
//! and reports medians, so the measuring time is the same on both sides of a
//! comparison while the simulated statistics stay an exact function of the
//! seed.

use crate::stats::Summary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use swbft_core::{
    run_pool, ExperimentConfig, ExperimentError, ExperimentOutcome, Figure, FigureOptions, Jobs,
    RoutingChoice, Scale,
};
use swbft_verify::matrix::{
    matrix_fault_cases, matrix_routings, matrix_schedule_cases, verify_case, MatrixKind,
    STATE_BUDGET,
};
use swbft_verify::{verify_schedule, ReachReport, ScheduleOutcome};
use torus_faults::{FaultScenario, FaultSchedule, FaultSet, RegionShape};
use torus_metrics::SimulationReport;
use torus_routing::{AnyRouting, RoutingAlgorithm};
use torus_sim::{ReferenceSimulation, SimConfig, Simulation};
use torus_topology::{AnyTopology, TopologySpec};

/// Workload names with the one-line reason each is in the benchmark.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "sim_lowload",
        "512-router torus far below the knee: scheduling, arrival calendar and traffic generation dominate, routing is ~1 % of wall",
    ),
    (
        "sim_oversat",
        "64-router torus past the knee: blocked heads re-route every cycle, VC allocation and arbitration dominate, source queues grow",
    ),
    (
        "sim_faulted",
        "concave U-8 fault region under deterministic routing: absorb, drain, reroute_on_fault and re-injection do most of the work",
    ),
    (
        "sim_fattree",
        "the other topology backend and routing family (ft:4,3, up*/down*): a grid-only specialisation that taxes fat-trees shows here",
    ),
    (
        "figure_sweep",
        "many short Fig. 3 points through the pool: per-point set-up and the pool carry weight the long sim workloads hide",
    ),
    (
        "verify_matrix",
        "the routing layer driven exhaustively by the static verifier with no engine around it; seed-independent enumeration",
    ),
];

/// `--smoke` divides every workload's length by this.
pub const SMOKE_DIVISOR: u64 = 20;

/// Repetitions every run makes at least, however short `--seconds` is.
pub const MIN_REPS: usize = 3;

/// Cycles of every `sim_*` workload replayed on the reference engine, and the
/// stride at which the two engines' reports are compared.
pub const REPLAY_CYCLES: u64 = 2_000;
const REPLAY_CHECK_EVERY: u64 = 500;

/// Every `FIGURE_STRIDE`-th point of the 108-point smoke-scale Fig. 3 grid.
/// Coprime with the grid's inner axes (3 rates, 3 fault counts, 2 lengths),
/// so the kept points cycle through all of them.
pub const FIGURE_STRIDE: usize = 7;

/// Every `VERIFY_STRIDE`-th case of the enumerated verify matrix slice.
pub const VERIFY_STRIDE: usize = 6;

/// Set-up rounds per repetition of the two sweeps (their set-up is a plan or
/// an enumeration: ~50 us and ~1 ms).
const FIGURE_SETUP_ROUNDS: u32 = 64;
const VERIFY_SETUP_ROUNDS: u32 = 8;

/// Topologies of the `verify_matrix` slice.
pub const VERIFY_TOPOLOGIES: [&str; 4] = ["torus:8x2", "mesh:8x2", "hypercube:5", "ft:4,2"];

/// One flit-level simulation workload.
#[derive(Clone, Copy, Debug)]
pub struct SimSpec {
    /// Workload name.
    pub name: &'static str,
    /// Topology spec string.
    pub topology: &'static str,
    /// Routing name, as `RoutingChoice::parse` takes it.
    pub routing: &'static str,
    /// Virtual channels per physical channel.
    pub virtual_channels: usize,
    /// Message length in flits.
    pub message_length: u32,
    /// Offered load, messages/node/cycle.
    pub rate: f64,
    /// Whether the centred U-8 fault region of Fig. 5 is applied.
    pub faulted: bool,
    /// Warm-up cycles (part of set-up).
    pub warmup_cycles: u64,
    /// Timed cycles.
    pub timed_cycles: u64,
}

/// The four `sim_*` workloads. The issue's sizes (5 000 warm-up + 60 000 /
/// 60 000 / 200 000 / 120 000 timed cycles) scaled by one factor, 1/4, so that
/// a repetition takes 1.5-2 s and a 10 s run holds five or more of them.
pub const SIM_SPECS: [SimSpec; 4] = [
    SimSpec {
        name: "sim_lowload",
        topology: "torus:8x3",
        routing: "adaptive",
        virtual_channels: 4,
        message_length: 32,
        rate: 0.001,
        faulted: false,
        warmup_cycles: 1_250,
        timed_cycles: 15_000,
    },
    SimSpec {
        name: "sim_oversat",
        topology: "torus:8x2",
        routing: "adaptive",
        virtual_channels: 4,
        message_length: 32,
        rate: 0.024,
        faulted: false,
        warmup_cycles: 1_250,
        timed_cycles: 15_000,
    },
    SimSpec {
        name: "sim_faulted",
        topology: "torus:8x2",
        routing: "det",
        virtual_channels: 4,
        message_length: 32,
        rate: 0.006,
        faulted: true,
        warmup_cycles: 1_250,
        timed_cycles: 50_000,
    },
    SimSpec {
        name: "sim_fattree",
        topology: "ft:4,3",
        routing: "updown",
        virtual_channels: 2,
        message_length: 32,
        rate: 0.005,
        faulted: false,
        warmup_cycles: 1_250,
        timed_cycles: 30_000,
    },
];

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// One of the four `sim_*` workloads.
    Sim(&'static SimSpec),
    /// `figure_sweep`.
    FigureSweep,
    /// `verify_matrix`.
    VerifyMatrix,
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        match name {
            "figure_sweep" => Some(Workload::FigureSweep),
            "verify_matrix" => Some(Workload::VerifyMatrix),
            _ => SIM_SPECS.iter().find(|s| s.name == name).map(Workload::Sim),
        }
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Sim(spec) => spec.name,
            Workload::FigureSweep => "figure_sweep",
            Workload::VerifyMatrix => "verify_matrix",
        }
    }

    /// Worker threads the workload runs on: the sim workloads are
    /// single-threaded, the two sweeps use [`sweep_jobs`].
    pub fn jobs(&self) -> usize {
        match self {
            Workload::Sim(_) => 1,
            _ => sweep_jobs(),
        }
    }

    /// The sizes one repetition runs at, for the result stamp.
    pub fn sizes(&self, divisor: u64) -> Vec<(&'static str, u64)> {
        match self {
            Workload::Sim(spec) => vec![
                ("warmup_cycles", spec.warmup_cycles / divisor),
                ("timed_cycles", spec.timed_cycles / divisor),
                ("replay_cycles", REPLAY_CYCLES / divisor),
            ],
            Workload::FigureSweep => vec![("point_stride", stride(FIGURE_STRIDE, divisor) as u64)],
            Workload::VerifyMatrix => vec![("case_stride", stride(VERIFY_STRIDE, divisor) as u64)],
        }
    }

    /// One untraced repetition: set-up, then the timed region.
    pub fn rep(&self, seed: u64, divisor: u64) -> Result<Rep, String> {
        match self {
            Workload::Sim(spec) => sim_rep(spec, seed, divisor),
            Workload::FigureSweep => figure_rep(seed, divisor),
            Workload::VerifyMatrix => verify_rep(divisor),
        }
    }
}

/// Worker threads of the pool at full width: `min(nproc, 4)`. The traced
/// passes measure the pool at this width.
pub fn pool_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// Worker threads of the two sweeps in the end-to-end runs: one less than
/// [`pool_jobs`] (at least one), so that one core is left to whatever else
/// the host runs. With every core taken, a second busy thread anywhere in the
/// 2-core growth container moved the sweeps' wall by up to 50 % for minutes
/// (two of three A/A sets), while the single-threaded sim workloads, which
/// leave a core free, stayed within 2-6 %.
pub fn sweep_jobs() -> usize {
    pool_jobs().saturating_sub(1).max(1)
}

fn stride(base: usize, divisor: u64) -> usize {
    base * divisor as usize
}

/// SplitMix64 finaliser: derives per-workload and per-point seeds from
/// `--seed` so that neighbouring seeds give unrelated streams.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string, folded onto `state` (start from
/// [`FNV_OFFSET`]) — the digest family the figure pinning tests use.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What one repetition computed. A deterministic function of the seed, so
/// every repetition of a run must produce an equal value.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Operations attempted: generated messages (`sim_*`), points
    /// (`figure_sweep`), cases (`verify_matrix`).
    pub attempted: u64,
    /// Operations that failed: dropped or unaccounted messages, points that
    /// returned `Err`, cases that were not proved.
    pub failed: u64,
    /// Units of work in the timed region: simulated cycles, points, cases.
    pub work_units: u64,
    /// The simulated statistics (`None` on `verify_matrix`, which simulates
    /// nothing).
    pub simulated: Option<Simulated>,
    /// FNV-1a digest of everything the repetition computed.
    pub digest: u64,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl Outcome {
    /// The empty outcome of a sweep over `items` points or cases, one
    /// operation each, to be folded into.
    fn of_items(items: usize) -> Outcome {
        Outcome {
            attempted: items as u64,
            failed: 0,
            work_units: items as u64,
            simulated: None,
            digest: FNV_OFFSET,
            errors: Vec::new(),
        }
    }
}

/// Simulated (model-side) statistics: exact functions of the seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Simulated {
    /// Mean message latency in cycles, `SimulationReport.mean_latency`
    /// (on `figure_sweep` the mean over points).
    pub latency_cycles: f64,
    /// Delivered / generated messages at the last timed cycle.
    pub delivered_frac: f64,
}

impl Simulated {
    /// The values in [`crate::metrics::SIMULATED`] order.
    pub fn values(&self) -> [f64; 2] {
        [self.latency_cycles, self.delivered_frac]
    }
}

/// One repetition: two host times and what was computed.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Everything before the timed region.
    pub setup_s: f64,
    /// The timed region.
    pub wall_s: f64,
    /// What the repetition computed.
    pub outcome: Outcome,
}

/// Repeats `rep` until `seconds` of wall clock are used up (at least
/// [`MIN_REPS`] times). The last repetition is started only if no more than
/// half of it is expected to overshoot the budget.
pub fn repeat(
    seconds: f64,
    mut rep: impl FnMut() -> Result<Rep, String>,
) -> Result<Vec<Rep>, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let rep_start = Instant::now();
        reps.push(rep()?);
        let last = rep_start.elapsed().as_secs_f64();
        if reps.len() >= MIN_REPS && start.elapsed().as_secs_f64() + last / 2.0 >= seconds {
            return Ok(reps);
        }
    }
}

/// Times a set-up that takes far less than a millisecond: runs it `rounds`
/// times back to back and returns the last value with the mean seconds per
/// round, so that one sample is milliseconds of work, not one timer tick.
fn timed_setup<T>(
    rounds: u32,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let start = Instant::now();
    for _ in 1..rounds {
        std::hint::black_box(setup()?);
    }
    let value = setup()?;
    Ok((value, start.elapsed().as_secs_f64() / f64::from(rounds)))
}

// ------------------------------------------------------------------ sim_*

/// The generated inputs of a `sim_*` workload: configuration (every field
/// but the seed at `SimConfig::paper_topology` defaults) and fault set.
pub fn sim_inputs(spec: &SimSpec, seed: u64) -> Result<(SimConfig, FaultSet), String> {
    let topology = TopologySpec::parse(spec.topology)?;
    let faults = if spec.faulted {
        // Fixed geometry (the Fig. 5 concave region, centred), so the seed
        // varies the traffic only.
        let net = topology.build().map_err(|e| e.to_string())?;
        let grid = net.grid().ok_or("fault regions need a grid topology")?;
        FaultScenario::centered_region(grid, RegionShape::paper_u_8())
            .realize(&net, &mut StdRng::seed_from_u64(seed))
            .map_err(|e| e.to_string())?
    } else {
        FaultSet::new()
    };
    let mut config = SimConfig::paper_topology(
        topology,
        spec.virtual_channels,
        spec.message_length,
        spec.rate,
    );
    config.seed = mix_seed(seed, 1);
    Ok((config, faults))
}

/// The routing algorithm of a `sim_*` workload.
pub fn sim_algorithm(spec: &SimSpec) -> Result<AnyRouting, String> {
    Ok(RoutingChoice::parse(spec.routing)?.algorithm())
}

/// Folds a simulation's end state into an [`Outcome`], checking the message
/// ledger: `generated = delivered + in_flight + dropped` and nothing dropped.
pub fn sim_outcome(report: &SimulationReport, dropped: u64, timed_cycles: u64) -> Outcome {
    let accounted = report.delivered_messages + report.in_flight_messages + dropped;
    let unaccounted = report.generated_messages.abs_diff(accounted);
    let mut errors = Vec::new();
    if dropped > 0 {
        errors.push(format!("{dropped} messages dropped"));
    }
    if unaccounted > 0 {
        errors.push(format!(
            "{unaccounted} messages unaccounted for (generated {} != delivered {} + in flight {} + dropped {dropped})",
            report.generated_messages, report.delivered_messages, report.in_flight_messages
        ));
    }
    Outcome {
        attempted: report.generated_messages,
        failed: dropped + unaccounted,
        work_units: timed_cycles,
        simulated: Some(Simulated {
            latency_cycles: report.mean_latency,
            delivered_frac: report.delivered_messages as f64
                / report.generated_messages.max(1) as f64,
        }),
        digest: fnv1a(FNV_OFFSET, format!("{report:?}").as_bytes()),
        errors,
    }
}

fn sim_rep(spec: &SimSpec, seed: u64, divisor: u64) -> Result<Rep, String> {
    let setup = Instant::now();
    let (config, faults) = sim_inputs(spec, seed)?;
    let mut sim =
        Simulation::new(config, faults, sim_algorithm(spec)?).map_err(|e| e.to_string())?;
    for _ in 0..spec.warmup_cycles / divisor {
        sim.step();
    }
    let setup_s = setup.elapsed().as_secs_f64();
    let timed_cycles = spec.timed_cycles / divisor;
    let timed = Instant::now();
    for _ in 0..timed_cycles {
        sim.step();
    }
    let wall_s = timed.elapsed().as_secs_f64();
    Ok(Rep {
        setup_s,
        wall_s,
        outcome: sim_outcome(&sim.report(), sim.dropped_messages(), timed_cycles),
    })
}

/// Host time both engines took over the replayed prefix.
#[derive(Clone, Copy, Debug)]
pub struct Replay {
    /// Cycles replayed.
    pub cycles: u64,
    /// Host seconds the active-set engine took.
    pub active_s: f64,
    /// Host seconds the full-scan reference engine took.
    pub reference_s: f64,
}

/// The reference-engine gate: replays the workload's first cycles on
/// `ReferenceSimulation` and on `Simulation` and requires equal reports at
/// every checkpoint.
pub fn sim_replay(spec: &SimSpec, seed: u64, divisor: u64) -> Result<Replay, String> {
    let (config, faults) = sim_inputs(spec, seed)?;
    let algo = sim_algorithm(spec)?;
    let mut active =
        Simulation::new(config.clone(), faults.clone(), algo).map_err(|e| e.to_string())?;
    let mut reference =
        ReferenceSimulation::new(config, faults, algo).map_err(|e| e.to_string())?;
    let cycles = REPLAY_CYCLES / divisor;
    let (mut active_s, mut reference_s) = (0.0, 0.0);
    let mut done = 0;
    while done < cycles {
        let window = REPLAY_CHECK_EVERY.min(cycles - done);
        let t = Instant::now();
        for _ in 0..window {
            active.step();
        }
        active_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for _ in 0..window {
            reference.step();
        }
        reference_s += t.elapsed().as_secs_f64();
        done += window;
        if active.report() != reference.report() {
            return Err(format!(
                "{}: Simulation and ReferenceSimulation reports differ at cycle {done}",
                spec.name
            ));
        }
    }
    Ok(Replay {
        cycles,
        active_s,
        reference_s,
    })
}

// ----------------------------------------------------------- figure_sweep

/// The generated inputs of `figure_sweep`: every `stride`-th point of the
/// smoke-scale Fig. 3 grid (det/adaptive x V x M x nf x rate), each re-seeded
/// from `--seed` and its grid index.
pub fn figure_inputs(seed: u64, divisor: u64) -> Result<Vec<ExperimentConfig>, String> {
    let grid = Figure::Fig3
        .point_configs(&FigureOptions::new(Scale::Smoke))
        .map_err(|e| e.to_string())?;
    Ok(grid
        .into_iter()
        .enumerate()
        .step_by(stride(FIGURE_STRIDE, divisor))
        .map(|(index, config)| config.with_seed(mix_seed(seed, 2 + index as u64)))
        .collect())
}

/// Folds the sweep's point results into an [`Outcome`] (one operation per
/// point, failed = `Err`), digesting every point's CSV row.
pub fn figure_outcome(results: &[Result<ExperimentOutcome, ExperimentError>]) -> Outcome {
    let mut outcome = Outcome::of_items(results.len());
    let (mut latency_sum, mut generated, mut delivered) = (0.0, 0u64, 0u64);
    for (index, result) in results.iter().enumerate() {
        match result {
            Ok(point) => {
                latency_sum += point.report.mean_latency;
                generated += point.report.generated_messages;
                delivered += point.report.delivered_messages;
                outcome.digest = fnv1a(outcome.digest, point.report.csv_row().as_bytes());
                outcome.digest = fnv1a(outcome.digest, &[u8::from(point.hit_max_cycles), b'\n']);
            }
            Err(e) => {
                outcome.failed += 1;
                outcome.errors.push(format!("point {index}: {e}"));
            }
        }
    }
    let ok = (results.len() as u64 - outcome.failed).max(1);
    outcome.simulated = Some(Simulated {
        latency_cycles: latency_sum / ok as f64,
        delivered_frac: delivered as f64 / generated.max(1) as f64,
    });
    outcome
}

fn figure_rep(seed: u64, divisor: u64) -> Result<Rep, String> {
    let (configs, setup_s) = timed_setup(FIGURE_SETUP_ROUNDS, || figure_inputs(seed, divisor))?;
    let timed = Instant::now();
    let results = run_pool(configs, Jobs::count(sweep_jobs()), ExperimentConfig::run);
    let wall_s = timed.elapsed().as_secs_f64();
    Ok(Rep {
        setup_s,
        wall_s,
        outcome: figure_outcome(&results),
    })
}

// ---------------------------------------------------------- verify_matrix

/// What a verify case checks.
#[derive(Clone, Debug)]
pub enum VerifyKind {
    /// A frozen fault set: exact CDG acyclicity plus per-pair reachability.
    Static(FaultSet),
    /// A fault schedule, verified epoch by epoch (non-paranoid).
    Schedule(FaultSchedule),
}

/// One enumerated (topology, routing, VCs, faults) case.
#[derive(Clone, Debug)]
pub struct VerifyCase {
    /// Index into [`VerifyInputs::nets`].
    pub net: usize,
    /// `topology/routing/V/faults`, for failure messages.
    pub label: String,
    /// The routing algorithm.
    pub algo: AnyRouting,
    /// Virtual channels (the algorithm's minimum on the topology).
    pub v: usize,
    /// Static fault set or schedule.
    pub kind: VerifyKind,
}

/// The enumerated inputs of `verify_matrix`.
#[derive(Clone, Debug)]
pub struct VerifyInputs {
    /// The built topologies.
    pub nets: Vec<AnyTopology>,
    /// The cases, in enumeration order.
    pub cases: Vec<VerifyCase>,
}

/// Enumerates every `matrix_routings()` entry supported on each of
/// [`VERIFY_TOPOLOGIES`] at its minimum VC count against the full matrix's
/// fault cases and schedule cases, and keeps every `stride`-th case. The seed
/// does not enter: these inputs are enumerations, not samples.
pub fn verify_inputs(divisor: u64) -> Result<VerifyInputs, String> {
    let mut nets = Vec::new();
    let mut cases = Vec::new();
    for spec in VERIFY_TOPOLOGIES {
        let net = TopologySpec::parse(spec)?
            .build()
            .map_err(|e| e.to_string())?;
        let fault_cases = matrix_fault_cases(&net, MatrixKind::Full);
        let schedule_cases = matrix_schedule_cases(&net, MatrixKind::Full);
        for (routing, algo) in matrix_routings() {
            if algo.supported_on(&net).is_err() {
                continue;
            }
            let v = algo.min_virtual_channels(&net);
            let label = |faults: &str| format!("{spec}/{routing}/v{v}/{faults}");
            for (name, faults) in &fault_cases {
                cases.push(VerifyCase {
                    net: nets.len(),
                    label: label(name),
                    algo,
                    v,
                    kind: VerifyKind::Static(faults.clone()),
                });
            }
            for (name, schedule) in &schedule_cases {
                cases.push(VerifyCase {
                    net: nets.len(),
                    label: label(name),
                    algo,
                    v,
                    kind: VerifyKind::Schedule(schedule.clone()),
                });
            }
        }
        nets.push(net);
    }
    let cases = cases
        .into_iter()
        .step_by(stride(VERIFY_STRIDE, divisor))
        .collect();
    Ok(VerifyInputs { nets, cases })
}

/// The verdict of one verify case and the counts its digest is folded from.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CaseOutcome {
    /// Why the case is not proved (cyclic CDG, undelivered pair, failed
    /// epoch, blown state budget), if it is not.
    pub failure: Option<String>,
    /// Relation states explored.
    pub states: u64,
    /// Ordered healthy endpoint pairs (of the last epoch, for schedules).
    pub pairs: u64,
    /// Pairs proved deliverable.
    pub delivered: u64,
    /// Edges of the exact channel dependency graph (last epoch).
    pub cdg_edges: u64,
}

impl CaseOutcome {
    /// A case that could not be verified at all (blown state budget,
    /// invalid schedule).
    fn unverified(error: impl ToString) -> CaseOutcome {
        CaseOutcome {
            failure: Some(error.to_string()),
            ..CaseOutcome::default()
        }
    }
}

/// Why a static case is not proved, if it is not.
pub fn static_failure(cyclic: bool, reach: &ReachReport) -> Option<String> {
    if cyclic {
        Some("cyclic channel dependency graph".to_string())
    } else if reach.delivered != reach.pairs {
        Some(format!(
            "{} of {} pairs undelivered",
            reach.pairs - reach.delivered,
            reach.pairs
        ))
    } else {
        None
    }
}

/// The verdict and counts of a verified schedule (pairs, delivered and CDG
/// edges are the last epoch's).
pub fn schedule_outcome(outcome: &ScheduleOutcome) -> CaseOutcome {
    let last = outcome.epochs.last();
    CaseOutcome {
        failure: outcome.failed().then(|| outcome.summary()),
        states: outcome.total_states() as u64,
        pairs: last.map_or(0, |e| e.pairs as u64),
        delivered: last.map_or(0, |e| (e.routable + e.rerouted) as u64),
        cdg_edges: last.map_or(0, |e| e.cdg_edges as u64),
    }
}

/// Runs one case through `verify_case` + `find_cycle`, or `verify_schedule`.
pub fn run_verify_case(nets: &[AnyTopology], case: &VerifyCase) -> CaseOutcome {
    let net = &nets[case.net];
    match &case.kind {
        VerifyKind::Static(faults) => match verify_case(net, &case.algo, faults, case.v) {
            Ok((cdg, reach)) => CaseOutcome {
                failure: static_failure(cdg.graph.find_cycle().is_some(), &reach),
                states: cdg.states_explored as u64,
                pairs: reach.pairs as u64,
                delivered: reach.delivered as u64,
                cdg_edges: cdg.graph.num_edges() as u64,
            },
            Err(e) => CaseOutcome::unverified(e),
        },
        VerifyKind::Schedule(schedule) => {
            match verify_schedule(net, &case.algo, schedule, case.v, STATE_BUDGET, false) {
                Ok(outcome) => schedule_outcome(&outcome),
                Err(e) => CaseOutcome::unverified(e),
            }
        }
    }
}

/// Folds the case outcomes into an [`Outcome`] (one operation per case).
pub fn verify_outcome(cases: &[VerifyCase], results: &[CaseOutcome]) -> Outcome {
    let mut outcome = Outcome::of_items(results.len());
    for (case, result) in cases.iter().zip(results) {
        if let Some(failure) = &result.failure {
            outcome.failed += 1;
            outcome.errors.push(format!("{}: {failure}", case.label));
        }
        let line = format!(
            "{} {} {} {} {}\n",
            case.label, result.states, result.pairs, result.delivered, result.cdg_edges
        );
        outcome.digest = fnv1a(outcome.digest, line.as_bytes());
    }
    outcome
}

fn verify_rep(divisor: u64) -> Result<Rep, String> {
    let (VerifyInputs { nets, cases }, setup_s) =
        timed_setup(VERIFY_SETUP_ROUNDS, || verify_inputs(divisor))?;
    let pool_input = cases.clone();
    let timed = Instant::now();
    let results = run_pool(pool_input, Jobs::count(sweep_jobs()), |case| {
        run_verify_case(&nets, case)
    });
    let wall_s = timed.elapsed().as_secs_f64();
    Ok(Rep {
        setup_s,
        wall_s,
        outcome: verify_outcome(&cases, &results),
    })
}

// ------------------------------------------------------------- the runner

/// Everything one end-to-end run of one workload measured.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// What every repetition computed, with the gates' failures folded in.
    pub outcome: Outcome,
    /// Set-up time of each repetition.
    pub setup_s: Vec<f64>,
    /// Timed region of each repetition.
    pub wall_s: Vec<f64>,
    /// `VmHWM` of this process after its first repetition, MB.
    pub peak_rss_mb: f64,
    /// The reference-engine replay (`sim_*` only).
    pub replay: Option<Replay>,
}

impl WorkloadResult {
    /// True when no operation and no gate failed.
    pub fn correct(&self) -> bool {
        self.outcome.failed == 0 && self.outcome.errors.is_empty()
    }

    /// The end-to-end metrics, in [`crate::metrics::END_TO_END`] order:
    /// `setup_s`, `wall_s`, `work_per_s`, `peak_rss_mb`.
    pub fn end_to_end(&self) -> [Summary; 4] {
        let units = self.outcome.work_units as f64;
        let rates: Vec<f64> = self.wall_s.iter().map(|w| units / w).collect();
        [
            Summary::of(&self.setup_s),
            Summary::of(&self.wall_s),
            Summary::of(&rates),
            Summary::exact(self.peak_rss_mb),
        ]
    }
}

/// `VmHWM` (peak resident set) of this process in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Runs one workload end to end, untraced: repetitions for `seconds`, then
/// the correctness gates (every repetition computed the same outcome; on
/// `sim_*` the reference-engine replay). Each gate is one more attempted
/// operation.
///
/// Peak memory is read after the first repetition: what one repetition needs
/// in a fresh process. Read later it also counts what the allocator kept from
/// earlier repetitions, which made `sim_oversat` jump between 6.5 and 9.4 MB
/// from seed to seed.
pub fn run_end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    divisor: u64,
) -> Result<WorkloadResult, String> {
    let mut first_rep_peak = None;
    let reps = repeat(seconds, || {
        let rep = workload.rep(seed, divisor)?;
        if first_rep_peak.is_none() {
            first_rep_peak = Some(peak_rss_mb()?);
        }
        Ok(rep)
    })?;
    let peak_rss_mb = first_rep_peak.ok_or("no repetition ran")?;
    let mut outcome = reps[0].outcome.clone();
    for (index, rep) in reps.iter().enumerate().skip(1) {
        outcome.attempted += 1;
        if rep.outcome != reps[0].outcome {
            outcome.failed += 1;
            outcome
                .errors
                .push(format!("repetition {index} computed a different outcome"));
        }
    }
    let mut replay = None;
    if let Workload::Sim(spec) = workload {
        outcome.attempted += 1;
        match sim_replay(spec, seed, divisor) {
            Ok(r) => replay = Some(r),
            Err(e) => {
                outcome.failed += 1;
                outcome.errors.push(e);
            }
        }
    }
    Ok(WorkloadResult {
        workload,
        outcome,
        setup_s: reps.iter().map(|r| r.setup_s).collect(),
        wall_s: reps.iter().map(|r| r.wall_s).collect(),
        peak_rss_mb,
        replay,
    })
}
