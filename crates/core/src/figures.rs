//! The exact experiment grids of Figs. 3–7 of the paper, parameterised over
//! topology and routing.
//!
//! Every figure is a set of independent simulation points; [`Figure::run`]
//! executes them in parallel (deterministically, each point owns its seed) and
//! returns a [`FigureResult`] whose text rendering reproduces the series the
//! paper plots. By default each figure runs on its paper topology (a k-ary
//! n-cube torus) comparing deterministic against adaptive Software-Based
//! routing; [`Figure::run_with`] regenerates the same grid on any
//! [`TopologySpec`] (meshes, hypercubes, mixed-radix shapes) and any set of
//! [`RoutingChoice`]s — the scenario-diversity axis of the evaluation.
//!
//! Individual points that cannot run (for example a fault region that does
//! not fit the requested shape) are reported as typed failures on the result
//! instead of aborting the figure.
//!
//! Three scales are provided:
//!
//! * [`Scale::Smoke`] — a tiny grid for CI smoke runs and tests (seconds);
//! * [`Scale::Quick`] — a reduced message budget and coarser rate grid, meant
//!   for laptops and CI (minutes);
//! * [`Scale::Paper`] — the paper's methodology (100,000 messages per point,
//!   of which the first 10,000 are discarded) and a denser grid.

use crate::experiment::{ExperimentConfig, ExperimentOutcome, RoutingChoice};
use crate::pool::{run_pool, Jobs};
use crate::results::{CurveResult, FigureResult, Metric, PanelResult, PointFailure, PointResult};
use std::collections::HashMap;
use std::fmt;
use torus_faults::{FaultRegion, FaultScenario, RegionShape};
use torus_routing::RoutingAlgorithm;
use torus_topology::{AnyTopology, Network, TopologySpec};

/// Measurement scale of a figure run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny budget and grid: figure smoke tests finish in seconds.
    Smoke,
    /// Reduced budget: quick to run, qualitatively identical curves.
    Quick,
    /// The paper's full budget (10,000 warm-up + 90,000 measured messages per
    /// point) and denser sweeps.
    Paper,
}

impl Scale {
    fn warmup(self) -> u64 {
        match self {
            Scale::Smoke => 100,
            Scale::Quick => 1_000,
            Scale::Paper => 10_000,
        }
    }

    fn measured(self) -> u64 {
        match self {
            Scale::Smoke => 500,
            Scale::Quick => 5_000,
            Scale::Paper => 90_000,
        }
    }

    fn max_cycles(self, num_nodes: usize) -> u64 {
        match self {
            Scale::Smoke => 15_000,
            // Large enough to reach steady state well past saturation, small
            // enough that saturated points terminate promptly.
            Scale::Quick => {
                if num_nodes > 256 {
                    40_000
                } else {
                    60_000
                }
            }
            Scale::Paper => 1_000_000,
        }
    }

    fn rate_points(self) -> usize {
        match self {
            Scale::Smoke => 3,
            Scale::Quick => 5,
            Scale::Paper => 8,
        }
    }

    fn fault_step(self) -> usize {
        match self {
            Scale::Smoke => 4,
            Scale::Quick => 2,
            Scale::Paper => 1,
        }
    }

    /// Random fault placements averaged per Fig. 6 cell.
    fn fig6_reps(self) -> u64 {
        match self {
            Scale::Smoke => 1,
            Scale::Quick => 2,
            Scale::Paper => 5,
        }
    }

    /// Identifier ("smoke" / "quick" / "paper").
    pub fn id(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }

    /// Parses an identifier.
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "smoke" => Ok(Scale::Smoke),
            "quick" => Ok(Scale::Quick),
            "paper" => Ok(Scale::Paper),
            other => Err(format!("unknown scale '{other}' (use smoke|quick|paper)")),
        }
    }
}

/// How to run a figure: the scale plus optional topology and routing
/// overrides and the worker-thread count. The default options reproduce the
/// paper bit-identically; `jobs` never changes results, only wall clock
/// (every point owns its seed and the pool reassembles results into grid
/// order).
#[derive(Clone, Debug, PartialEq)]
pub struct FigureOptions {
    /// Measurement scale.
    pub scale: Scale,
    /// Topology override (`None` = the figure's paper topology).
    pub topology: Option<TopologySpec>,
    /// Routing comparison set override (`None` = deterministic vs adaptive
    /// Software-Based routing, the paper's comparison).
    pub routings: Option<Vec<RoutingChoice>>,
    /// Worker threads the figure's points are fanned out over (default:
    /// available parallelism).
    pub jobs: Jobs,
}

impl FigureOptions {
    /// Paper-default options at the given scale.
    pub fn new(scale: Scale) -> Self {
        FigureOptions {
            scale,
            topology: None,
            routings: None,
            jobs: Jobs::Auto,
        }
    }

    /// Overrides the topology the figure is measured on.
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Restricts the figure to a single routing algorithm.
    pub fn with_routing(mut self, routing: RoutingChoice) -> Self {
        self.routings = Some(vec![routing]);
        self
    }

    /// Sets the worker-thread count the figure's points run on.
    pub fn with_jobs(mut self, jobs: Jobs) -> Self {
        self.jobs = jobs;
        self
    }
}

/// Errors that prevent a figure from running at all (individual point
/// failures are reported on the [`FigureResult`] instead).
#[derive(Clone, Debug)]
pub enum FigureError {
    /// The requested topology could not be built.
    Topology(torus_topology::NetworkError),
    /// A requested routing algorithm cannot run on the requested topology
    /// (for example the turn model on a wrapped dimension).
    UnsupportedRouting {
        /// The rejected routing choice.
        routing: RoutingChoice,
        /// The topology it was requested on.
        topology: TopologySpec,
        /// The typed rejection from the routing subsystem.
        error: torus_routing::RoutingTopologyError,
    },
    /// The routing comparison set was empty.
    NoRoutings,
    /// The figure places clustered fault regions, which are coordinate-plane
    /// concepts of direct grids; an indirect topology cannot host them.
    RegionsNeedGrid {
        /// The non-grid topology the figure was requested on.
        topology: TopologySpec,
    },
}

impl fmt::Display for FigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FigureError::Topology(e) => write!(f, "topology error: {e}"),
            FigureError::UnsupportedRouting {
                routing,
                topology,
                error,
            } => write!(
                f,
                "routing '{}' cannot run on {}: {error}",
                routing.label(),
                topology.label()
            ),
            FigureError::NoRoutings => write!(f, "the routing comparison set is empty"),
            FigureError::RegionsNeedGrid { topology } => write!(
                f,
                "fault regions are coordinate-plane concepts of direct grids; \
                 {} is an indirect topology",
                topology.label()
            ),
        }
    }
}

impl std::error::Error for FigureError {}

/// Builds `topology` and checks that every one of `routings` can run on it:
/// the check [`Figure::run_with`] makes before it simulates anything, for
/// every caller that takes a topology and a routing from its user.
pub fn check_routings(
    topology: &TopologySpec,
    routings: &[RoutingChoice],
) -> Result<AnyTopology, FigureError> {
    let net = topology.build().map_err(FigureError::Topology)?;
    for &routing in routings {
        routing.algorithm().supported_on(&net).map_err(|error| {
            FigureError::UnsupportedRouting {
                routing,
                topology: topology.clone(),
                error,
            }
        })?;
    }
    Ok(net)
}

/// The routings among `routings` that [`check_routings`] accepts on
/// `topology`, in order.
pub fn supported_routings(
    topology: &TopologySpec,
    routings: &[RoutingChoice],
) -> Vec<RoutingChoice> {
    routings
        .iter()
        .copied()
        .filter(|&r| check_routings(topology, &[r]).is_ok())
        .collect()
}

/// The figures of the paper's evaluation section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Figure {
    /// Fig. 3 — mean latency vs traffic rate, 8-ary 2-cube, deterministic and
    /// adaptive routing, M = 32/64, V = 4/6/10, nf = 0/3/5 random node faults.
    Fig3,
    /// Fig. 4 — mean latency vs traffic rate, 8-ary 3-cube, M = 32/64,
    /// V = 4/6/10, nf = 0/12 random node faults.
    Fig4,
    /// Fig. 5 — mean latency vs traffic rate for convex and concave fault
    /// regions, 8-ary 2-cube, M = 32, V = 10.
    Fig5,
    /// Fig. 6 — throughput vs number of random node faults, 16-ary 2-cube,
    /// M = 32, V = 6.
    Fig6,
    /// Fig. 7 — number of messages queued (absorbed) vs number of random node
    /// faults, 8-ary 3-cube, M = 32, V = 10, generation rates "70" and "100".
    Fig7,
}

impl Figure {
    /// All figures, in paper order.
    pub const ALL: [Figure; 5] = [
        Figure::Fig3,
        Figure::Fig4,
        Figure::Fig5,
        Figure::Fig6,
        Figure::Fig7,
    ];

    /// Identifier ("fig3" ... "fig7").
    pub fn id(&self) -> &'static str {
        match self {
            Figure::Fig3 => "fig3",
            Figure::Fig4 => "fig4",
            Figure::Fig5 => "fig5",
            Figure::Fig6 => "fig6",
            Figure::Fig7 => "fig7",
        }
    }

    /// Parses an identifier.
    pub fn from_id(id: &str) -> Option<Figure> {
        Figure::ALL.into_iter().find(|f| f.id() == id)
    }

    /// Title mirroring the paper's caption.
    pub fn title(&self) -> &'static str {
        match self {
            Figure::Fig3 => {
                "Mean message latency vs traffic rate, 8-ary 2-cube, deterministic/adaptive, M=32/64, V=4/6/10, nf=0/3/5"
            }
            Figure::Fig4 => {
                "Mean message latency vs traffic rate, 8-ary 3-cube, deterministic/adaptive, M=32/64, V=4/6/10, nf=0/12"
            }
            Figure::Fig5 => {
                "Mean message latency vs traffic rate for convex/concave fault regions, 8-ary 2-cube, M=32, V=10"
            }
            Figure::Fig6 => {
                "Throughput vs number of random faulty nodes, 16-ary 2-cube, M=32, V=6"
            }
            Figure::Fig7 => {
                "Messages queued vs number of random faulty nodes, 8-ary 3-cube, M=32, V=10, generation rates 70/100"
            }
        }
    }

    /// The topology the paper measures this figure on.
    pub fn default_topology(&self) -> TopologySpec {
        match self {
            Figure::Fig3 | Figure::Fig5 => TopologySpec::torus(8, 2),
            Figure::Fig4 | Figure::Fig7 => TopologySpec::torus(8, 3),
            Figure::Fig6 => TopologySpec::torus(16, 2),
        }
    }

    /// Runs the whole figure at the given scale on its paper topology.
    pub fn run(&self, scale: Scale) -> Result<FigureResult, FigureError> {
        self.run_with(&FigureOptions::new(scale))
    }

    /// Runs the figure with topology/routing overrides, fanning the grid's
    /// points over `opts.jobs` worker threads.
    pub fn run_with(&self, opts: &FigureOptions) -> Result<FigureResult, FigureError> {
        Ok(self.plan(opts)?.execute(opts.jobs))
    }

    /// The experiment configurations the figure would run, in execution
    /// order. Exposed so pinning tests (and external tooling) can check the
    /// exact parameter grid without paying for the simulations.
    pub fn point_configs(
        &self,
        opts: &FigureOptions,
    ) -> Result<Vec<ExperimentConfig>, FigureError> {
        Ok(self
            .plan(opts)?
            .tagged
            .into_iter()
            .map(|(_, _, _, cfg)| cfg)
            .collect())
    }

    /// Panel titles and curve labels of the figure grid for the given
    /// options, without running any simulation. Together with
    /// [`Figure::point_configs`] this exposes the whole figure grid, which
    /// pinning tests digest to guarantee the default (paper) grids never
    /// drift.
    pub fn grid_labels(
        &self,
        opts: &FigureOptions,
    ) -> Result<Vec<(String, Vec<String>)>, FigureError> {
        Ok(self.plan(opts)?.panels_meta)
    }

    /// Builds the figure's full point grid for the given options.
    fn plan(&self, opts: &FigureOptions) -> Result<FigurePlan, FigureError> {
        let topology = opts
            .topology
            .clone()
            .unwrap_or_else(|| self.default_topology());
        let routings = opts
            .routings
            .clone()
            .unwrap_or_else(|| RoutingChoice::BOTH.to_vec());
        // Reject routing/topology mismatches up front with one typed error
        // instead of one identical failure per point.
        let net = check_routings(&topology, &routings)?;
        if routings.is_empty() {
            return Err(FigureError::NoRoutings);
        }
        Ok(match self {
            Figure::Fig3 => latency_figure(
                opts.scale,
                "fig3",
                self.title(),
                &topology,
                &routings,
                &[0, 3, 5],
            ),
            Figure::Fig4 => latency_figure(
                opts.scale,
                "fig4",
                self.title(),
                &topology,
                &routings,
                &[0, 12],
            ),
            Figure::Fig5 => {
                let Some(grid) = net.grid() else {
                    return Err(FigureError::RegionsNeedGrid { topology });
                };
                fig5(opts.scale, &topology, grid, &routings)
            }
            Figure::Fig6 => fig6(opts.scale, &topology, &routings),
            Figure::Fig7 => fig7(opts.scale, &topology, &routings),
        })
    }
}

/// A fully built figure grid: every experiment configuration tagged with its
/// (panel, curve, x) coordinates, plus the panel/curve metadata needed to
/// assemble the result. Executing the plan is the only part that simulates.
struct FigurePlan {
    id: String,
    title: String,
    metric: Metric,
    x_label: String,
    /// (panel index, curve index, x value, configuration). Several entries
    /// may share one (panel, curve, x) cell; their reports are averaged
    /// (Fig. 6 uses this to average over random fault placements).
    tagged: Vec<(usize, usize, f64, ExperimentConfig)>,
    /// Per panel: title and curve labels.
    panels_meta: Vec<(String, Vec<String>)>,
}

impl FigurePlan {
    /// Runs every point on the shared-cursor pool and assembles the figure,
    /// collecting failed points instead of aborting. The pool reassembles
    /// per-point results into grid-enumeration order, so the assembled
    /// figure — failed points included — is bit-identical at any `jobs`
    /// value.
    fn execute(self, jobs: Jobs) -> FigureResult {
        let outcomes = run_pool(self.tagged, jobs, |(panel, curve, x, cfg)| {
            (*panel, *curve, *x, cfg.run())
        });
        let mut panels: Vec<PanelResult> = self
            .panels_meta
            .into_iter()
            .map(|(ptitle, curve_labels)| PanelResult {
                title: ptitle,
                x_label: self.x_label.clone(),
                metric: self.metric,
                curves: curve_labels
                    .into_iter()
                    .map(|label| CurveResult {
                        label,
                        points: Vec::new(),
                    })
                    .collect(),
            })
            .collect();
        // Group outcomes into (panel, curve, x) cells, averaging repetitions.
        // Failures carry their grid-enumeration index and are sorted by it
        // before assembly: the pool already returns outcomes in input order,
        // but the ordering of the failure list is part of the determinism
        // guarantee (rendered text and CSV are digest-pinned across `--jobs`
        // values), so it must not silently depend on collection order.
        let mut order: Vec<(usize, usize, f64)> = Vec::new();
        let mut cells: HashMap<(usize, usize, u64), Vec<ExperimentOutcome>> = HashMap::new();
        let mut failures: Vec<(usize, PointFailure)> = Vec::new();
        for (grid_idx, (panel, curve, x, outcome)) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(o) => {
                    let key = (panel, curve, x.to_bits());
                    if !cells.contains_key(&key) {
                        order.push((panel, curve, x));
                    }
                    cells.entry(key).or_default().push(o);
                }
                Err(e) => failures.push((
                    grid_idx,
                    PointFailure {
                        panel: panels[panel].title.clone(),
                        curve: panels[panel].curves[curve].label.clone(),
                        x,
                        error: e.to_string(),
                    },
                )),
            }
        }
        failures.sort_by_key(|(grid_idx, _)| *grid_idx);
        let failures: Vec<PointFailure> = failures.into_iter().map(|(_, f)| f).collect();
        for (panel, curve, x) in order {
            let cell = &cells[&(panel, curve, x.to_bits())];
            let reports: Vec<torus_metrics::SimulationReport> =
                cell.iter().map(|o| o.report.clone()).collect();
            panels[panel].curves[curve].points.push(PointResult {
                x,
                report: average_reports(&reports),
                saturated: cell.iter().all(|o| o.hit_max_cycles),
            });
        }
        for panel in &mut panels {
            for curve in &mut panel.curves {
                curve.points.sort_by(|a, b| a.x.total_cmp(&b.x));
            }
        }
        FigureResult {
            id: self.id,
            title: self.title,
            panels,
            failures,
        }
    }
}

/// Cycle cap for one experiment point: the scale's base cap, extended so that
/// a lightly loaded (far-from-saturation) point always has enough cycles to
/// generate and deliver its whole message budget — otherwise the lowest-rate
/// points would be mislabelled as saturated simply because the cycle budget
/// expired before the message budget.
fn budgeted_max_cycles(scale: Scale, cfg: &ExperimentConfig) -> u64 {
    let generation_cycles =
        (cfg.warmup_messages + cfg.measured_messages) as f64 / (cfg.rate * cfg.num_nodes() as f64);
    scale
        .max_cycles(cfg.num_nodes())
        .max((4.0 * generation_cycles).ceil() as u64)
}

/// Per-(routing, V) saturation-aware maximum traffic rate of the sweep grids,
/// chosen to bracket the saturation points visible in the paper's figures.
/// The deterministic turn model shares the e-cube ranges and the adaptive
/// turn model the Duato ranges (mesh saturation sits a little lower, which
/// only makes the top of the grid saturate visibly — exactly what the figure
/// is meant to show).
fn max_rate(routing: RoutingChoice, v: usize) -> f64 {
    use RoutingChoice as R;
    match (routing, v) {
        (R::Deterministic | R::TurnModelDeterministic | R::UpDownDeterministic, 4) => 0.013,
        (R::Deterministic | R::TurnModelDeterministic | R::UpDownDeterministic, 6) => 0.016,
        (R::Deterministic | R::TurnModelDeterministic | R::UpDownDeterministic, _) => 0.019,
        (R::Adaptive | R::TurnModel | R::UpDownAdaptive, 4) => 0.016,
        (R::Adaptive | R::TurnModel | R::UpDownAdaptive, 6) => 0.020,
        (R::Adaptive | R::TurnModel | R::UpDownAdaptive, _) => 0.023,
    }
}

/// Evenly spaced traffic grid from a low load up to `max`.
fn rate_grid(max: f64, points: usize) -> Vec<f64> {
    let start = 0.002;
    (0..points)
        .map(|i| start + (max - start) * i as f64 / (points.saturating_sub(1).max(1)) as f64)
        .collect()
}

/// Deterministic per-point seed derived from the figure id and the point's
/// coordinates, so every figure is reproducible and the two routing flavours
/// of a comparison see the same fault placements (the fault RNG stream is
/// derived from the seed inside `ExperimentConfig::run`, independently of the
/// routing flavour).
fn point_seed(fig: &str, panel: usize, curve: usize, point: usize) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in fig.bytes().chain([panel as u8, curve as u8, point as u8]) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The paper's phrasing for a topology in panel titles: tori keep the
/// "k-ary n-cube" wording of the captions, every other shape uses its label.
fn shape_phrase(spec: &TopologySpec) -> String {
    match spec {
        TopologySpec::Torus { radix, dims } => format!("{radix}-ary {dims}-cube"),
        other => other.label(),
    }
}

/// Shared grid for Figs. 3 and 4: mean latency vs traffic rate over panels
/// (routing × V), curves (M × nf).
fn latency_figure(
    scale: Scale,
    id: &str,
    title: &str,
    topology: &TopologySpec,
    routings: &[RoutingChoice],
    fault_counts: &[usize],
) -> FigurePlan {
    let vs = [4usize, 6, 10];
    let ms = [32u32, 64];
    let mut tagged: Vec<(usize, usize, f64, ExperimentConfig)> = Vec::new();
    let mut panels_meta: Vec<(String, Vec<String>)> = Vec::new();
    let mut panel_idx = 0;
    for &routing in routings {
        for &v in &vs {
            let rates = rate_grid(max_rate(routing, v), scale.rate_points());
            let mut curve_labels = Vec::new();
            let mut curve_idx = 0;
            for &m in &ms {
                for &nf in fault_counts {
                    curve_labels.push(format!("M={m}, nf={nf}"));
                    for (pi, &rate) in rates.iter().enumerate() {
                        let faults = if nf == 0 {
                            FaultScenario::None
                        } else {
                            FaultScenario::RandomNodes { count: nf }
                        };
                        let cfg = ExperimentConfig::topology_point(topology.clone(), v, m, rate)
                            .with_routing(routing)
                            .with_faults(faults)
                            .with_seed(point_seed(id, panel_idx, curve_idx, pi))
                            // One fault placement per curve (the paper sweeps
                            // the traffic rate against a fixed set of faults).
                            .with_fault_seed(point_seed(id, panel_idx, curve_idx, 255))
                            .quick(scale.measured(), scale.warmup());
                        let cfg = ExperimentConfig {
                            max_cycles: budgeted_max_cycles(scale, &cfg),
                            ..cfg
                        };
                        tagged.push((panel_idx, curve_idx, rate, cfg));
                    }
                    curve_idx += 1;
                }
            }
            panels_meta.push((
                format!(
                    "{} routing, {}, V={}",
                    capitalise(routing.label()),
                    shape_phrase(topology),
                    v
                ),
                curve_labels,
            ));
            panel_idx += 1;
        }
    }
    FigurePlan {
        id: id.to_string(),
        title: title.to_string(),
        metric: Metric::MeanLatency,
        x_label: "Traffic rate".to_string(),
        tagged,
        panels_meta,
    }
}

/// Picks the Fig. 5 region actually simulated on `net`: the paper's shape
/// unchanged when its centred placement validates, a kind-preserving
/// scaled-down instance when the shape exceeds the network's extents (open
/// dimensions cap the region at radix − 1, so a scaled region never spans a
/// whole mesh edge; wrapped dimensions allow the full ring), or the
/// original shape when no structurally meaningful instance fits — the point
/// then records its placement failure exactly as before. Returns the shape
/// and whether it was scaled.
fn fig5_shape(net: &Network, shape: RegionShape) -> (RegionShape, bool) {
    let centred_fits = |s: RegionShape| {
        let (w, h) = s.bounding_box();
        let mut anchor = vec![0u16; net.dims()];
        anchor[0] = net.radix(0).saturating_sub(w) / 2;
        anchor[1] = net.radix(1).saturating_sub(h) / 2;
        FaultRegion::in_default_plane(net, s, &anchor).is_ok()
    };
    if centred_fits(shape) {
        return (shape, false);
    }
    let cap = |dim: usize| {
        let k = net.radix(dim);
        if net.wraps(dim) {
            k
        } else {
            k.saturating_sub(1)
        }
    };
    match shape.scaled_to_fit(cap(0), cap(1)) {
        Some(scaled) if centred_fits(scaled) => (scaled, true),
        _ => (shape, false),
    }
}

/// Fig. 5: latency vs traffic rate for the five fault-region shapes, both
/// routing flavours, M = 32, V = 10.
fn fig5(
    scale: Scale,
    topology: &TopologySpec,
    net: &Network,
    routings: &[RoutingChoice],
) -> FigurePlan {
    let v = 10;
    let m = 32;
    let mut tagged = Vec::new();
    let mut curve_labels = Vec::new();
    let mut curve_idx = 0;
    for &routing in routings {
        for (paper_shape, shape_label) in RegionShape::paper_fig5_regions() {
            let (shape, scaled) = fig5_shape(net, paper_shape);
            curve_labels.push(format!(
                "{}, nf={}, {}{}",
                capitalise(routing.label()),
                shape.node_count(),
                shape_label,
                if scaled { " (scaled)" } else { "" }
            ));
            let rates = rate_grid(max_rate(routing, v), scale.rate_points());
            for (pi, &rate) in rates.iter().enumerate() {
                let cfg = ExperimentConfig::topology_point(topology.clone(), v, m, rate)
                    .with_routing(routing)
                    .with_faults(FaultScenario::centered_region(net, shape))
                    .with_seed(point_seed("fig5", 0, curve_idx, pi))
                    .quick(scale.measured(), scale.warmup());
                let cfg = ExperimentConfig {
                    max_cycles: budgeted_max_cycles(scale, &cfg),
                    ..cfg
                };
                tagged.push((0usize, curve_idx, rate, cfg));
            }
            curve_idx += 1;
        }
    }
    let panels_meta = vec![(
        format!(
            "{}, M={m}, V={v}, convex and concave fault regions",
            shape_phrase(topology)
        ),
        curve_labels,
    )];
    FigurePlan {
        id: "fig5".to_string(),
        title: Figure::Fig5.title().to_string(),
        metric: Metric::MeanLatency,
        x_label: "Traffic rate".to_string(),
        tagged,
        panels_meta,
    }
}

/// Fig. 6: throughput vs number of random faulty nodes, M = 32, V = 6,
/// measured at a fixed offered load above the deterministic saturation point,
/// averaged over several random placements per fault count.
fn fig6(scale: Scale, topology: &TopologySpec, routings: &[RoutingChoice]) -> FigurePlan {
    let v = 6;
    let m = 32;
    let offered = 0.012;
    let reps = scale.fig6_reps();
    let fault_counts: Vec<usize> = (0..=10).step_by(scale.fault_step()).collect();
    let mut tagged: Vec<(usize, usize, f64, ExperimentConfig)> = Vec::new();
    let mut curve_labels = Vec::new();
    for (curve_idx, &routing) in routings.iter().enumerate() {
        curve_labels.push(routing.label().to_string());
        for (pi, &nf) in fault_counts.iter().enumerate() {
            for rep in 0..reps {
                let faults = if nf == 0 {
                    FaultScenario::None
                } else {
                    FaultScenario::RandomNodes { count: nf }
                };
                let cfg = ExperimentConfig::topology_point(topology.clone(), v, m, offered)
                    .with_routing(routing)
                    .with_faults(faults)
                    .with_seed(point_seed("fig6", rep as usize, curve_idx, pi))
                    .quick(scale.measured(), scale.warmup());
                let cfg = ExperimentConfig {
                    max_cycles: budgeted_max_cycles(scale, &cfg),
                    ..cfg
                };
                tagged.push((0usize, curve_idx, nf as f64, cfg));
            }
        }
    }
    let panels_meta = vec![(
        format!(
            "{}, M={m}, V={v}, offered load {offered}",
            shape_phrase(topology)
        ),
        curve_labels,
    )];
    FigurePlan {
        id: "fig6".to_string(),
        title: Figure::Fig6.title().to_string(),
        metric: Metric::Throughput,
        x_label: "Number of faulty nodes".to_string(),
        tagged,
        panels_meta,
    }
}

/// Fig. 7: messages queued (absorption events) vs number of random faulty
/// nodes, M = 32, V = 10, for the two generation rates the paper labels "70"
/// and "100" (interpreted as mean inter-arrival times in cycles, i.e.
/// λ = 1/70 and 1/100 messages/node/cycle).
fn fig7(scale: Scale, topology: &TopologySpec, routings: &[RoutingChoice]) -> FigurePlan {
    let v = 10;
    let m = 32;
    let rates = [(70u32, 1.0 / 70.0), (100u32, 1.0 / 100.0)];
    let fault_counts: Vec<usize> = (0..=12).step_by(scale.fault_step()).collect();
    let mut tagged = Vec::new();
    let mut curve_labels = Vec::new();
    let mut curve_idx = 0;
    for &routing in routings {
        for &(label, rate) in &rates {
            curve_labels.push(format!(
                "{}, generation rate={}",
                capitalise(routing.label()),
                label
            ));
            for (pi, &nf) in fault_counts.iter().enumerate() {
                let faults = if nf == 0 {
                    FaultScenario::None
                } else {
                    FaultScenario::RandomNodes { count: nf }
                };
                let cfg = ExperimentConfig::topology_point(topology.clone(), v, m, rate)
                    .with_routing(routing)
                    .with_faults(faults)
                    .with_seed(point_seed("fig7", 0, curve_idx, pi))
                    // The same placement of `nf` faults is shared by all four
                    // curves so they are directly comparable at each x.
                    .with_fault_seed(point_seed("fig7-faults", 0, 0, pi))
                    .quick(scale.measured(), scale.warmup());
                let cfg = ExperimentConfig {
                    max_cycles: budgeted_max_cycles(scale, &cfg),
                    ..cfg
                };
                tagged.push((0usize, curve_idx, nf as f64, cfg));
            }
            curve_idx += 1;
        }
    }
    let panels_meta = vec![(
        format!("{}, M={m}, V={v}", shape_phrase(topology)),
        curve_labels,
    )];
    FigurePlan {
        id: "fig7".to_string(),
        title: Figure::Fig7.title().to_string(),
        metric: Metric::MessagesQueued,
        x_label: "Number of faulty nodes".to_string(),
        tagged,
        panels_meta,
    }
}

/// Field-wise average of several simulation reports (used by Fig. 6 to average
/// over independent random fault placements; averaging a single report
/// reproduces it bit-identically).
pub fn average_reports(
    reports: &[torus_metrics::SimulationReport],
) -> torus_metrics::SimulationReport {
    assert!(!reports.is_empty(), "cannot average zero reports");
    let n = reports.len() as f64;
    let mut avg = reports[0].clone();
    let sum_f =
        |f: fn(&torus_metrics::SimulationReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
    avg.mean_latency = sum_f(|r| r.mean_latency);
    avg.latency_std_dev = sum_f(|r| r.latency_std_dev);
    avg.latency_ci95 = sum_f(|r| r.latency_ci95);
    avg.mean_network_latency = sum_f(|r| r.mean_network_latency);
    avg.mean_hops = sum_f(|r| r.mean_hops);
    avg.throughput = sum_f(|r| r.throughput);
    avg.flit_throughput = sum_f(|r| r.flit_throughput);
    avg.acceptance_ratio = sum_f(|r| r.acceptance_ratio);
    avg.p50_latency = sum_f(|r| r.p50_latency);
    avg.p99_latency = sum_f(|r| r.p99_latency);
    avg.max_latency = reports.iter().map(|r| r.max_latency).fold(0.0, f64::max);
    avg.cycles = (reports.iter().map(|r| r.cycles).sum::<u64>() as f64 / n) as u64;
    avg.generated_messages =
        (reports.iter().map(|r| r.generated_messages).sum::<u64>() as f64 / n) as u64;
    avg.measured_messages =
        (reports.iter().map(|r| r.measured_messages).sum::<u64>() as f64 / n) as u64;
    avg.delivered_messages =
        (reports.iter().map(|r| r.delivered_messages).sum::<u64>() as f64 / n) as u64;
    avg.in_flight_messages =
        (reports.iter().map(|r| r.in_flight_messages).sum::<u64>() as f64 / n) as u64;
    avg.messages_queued =
        (reports.iter().map(|r| r.messages_queued).sum::<u64>() as f64 / n) as u64;
    avg.messages_queued_measured = (reports
        .iter()
        .map(|r| r.messages_queued_measured)
        .sum::<u64>() as f64
        / n) as u64;
    avg.reinjection_queue_peak = reports
        .iter()
        .map(|r| r.reinjection_queue_peak)
        .max()
        .unwrap_or(0);
    avg
}

fn capitalise(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(first) => first.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_regions_scale_to_small_open_meshes() {
        // The 10-node T (5×6 bounding box) exceeds a 5-extent open mesh and
        // is scaled down, keeping its kind within the radix − 1 caps.
        let net = Network::mesh(5, 2).unwrap();
        let (shape, scaled) = fig5_shape(&net, RegionShape::paper_t_10());
        assert!(scaled);
        assert!(matches!(shape, RegionShape::TShape { .. }));
        let (w, h) = shape.bounding_box();
        assert!(w <= 4 && h <= 4, "scaled T is {w}x{h}");
        // The 20-node rect (4×5) fits the same mesh unchanged.
        let (shape, scaled) = fig5_shape(&net, RegionShape::paper_rect_20());
        assert!(!scaled);
        assert_eq!(shape, RegionShape::paper_rect_20());
        // On a hypercube (radix-2 open dims) no instance of any Fig. 5 kind
        // fits; the paper shape is kept so the point records its placement
        // failure exactly as before.
        let hc = Network::hypercube(4).unwrap();
        for (paper, _) in RegionShape::paper_fig5_regions() {
            let (shape, scaled) = fig5_shape(&hc, paper);
            assert!(!scaled);
            assert_eq!(shape, paper);
        }
    }

    #[test]
    fn figure_identifiers() {
        assert_eq!(Figure::Fig3.id(), "fig3");
        assert_eq!(Figure::from_id("fig6"), Some(Figure::Fig6));
        assert_eq!(Figure::from_id("nope"), None);
        assert_eq!(Figure::ALL.len(), 5);
        // Every id is the `fig` binary's operand for its figure.
        for f in Figure::ALL {
            assert_eq!(Figure::from_id(f.id()), Some(f));
            assert!(!f.title().is_empty());
        }
    }

    #[test]
    fn scales() {
        assert!(Scale::Paper.measured() > Scale::Quick.measured());
        assert!(Scale::Quick.measured() > Scale::Smoke.measured());
        assert!(Scale::Paper.warmup() > Scale::Quick.warmup());
        assert!(Scale::Paper.rate_points() > Scale::Quick.rate_points());
        assert!(Scale::Quick.max_cycles(512) <= Scale::Quick.max_cycles(64));
        assert!(Scale::Smoke.max_cycles(64) < Scale::Quick.max_cycles(64));
        assert_eq!(Scale::Paper.fault_step(), 1);
        assert_eq!(Scale::Smoke.fig6_reps(), 1);
        for s in [Scale::Smoke, Scale::Quick, Scale::Paper] {
            assert_eq!(Scale::parse(s.id()), Ok(s));
        }
        assert!(Scale::parse("huge").is_err());
    }

    #[test]
    fn rate_grid_shape() {
        let g = rate_grid(0.012, 5);
        assert_eq!(g.len(), 5);
        assert!((g[0] - 0.002).abs() < 1e-12);
        assert!((g[4] - 0.012).abs() < 1e-12);
        assert!(g.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn max_rates_ordered_by_adaptivity_and_vcs() {
        for v in [4, 6, 10] {
            assert!(
                max_rate(RoutingChoice::Adaptive, v) > max_rate(RoutingChoice::Deterministic, v)
            );
            assert_eq!(
                max_rate(RoutingChoice::TurnModel, v),
                max_rate(RoutingChoice::Adaptive, v)
            );
            assert_eq!(
                max_rate(RoutingChoice::TurnModelDeterministic, v),
                max_rate(RoutingChoice::Deterministic, v)
            );
            assert_eq!(
                max_rate(RoutingChoice::UpDownDeterministic, v),
                max_rate(RoutingChoice::Deterministic, v)
            );
            assert_eq!(
                max_rate(RoutingChoice::UpDownAdaptive, v),
                max_rate(RoutingChoice::Adaptive, v)
            );
        }
        assert!(
            max_rate(RoutingChoice::Deterministic, 10) > max_rate(RoutingChoice::Deterministic, 4)
        );
    }

    #[test]
    fn point_seeds_are_distinct() {
        let mut seeds = std::collections::HashSet::new();
        for panel in 0..6 {
            for curve in 0..6 {
                for point in 0..8 {
                    seeds.insert(point_seed("fig3", panel, curve, point));
                }
            }
        }
        assert_eq!(seeds.len(), 6 * 6 * 8);
        assert_ne!(point_seed("fig3", 0, 0, 0), point_seed("fig4", 0, 0, 0));
    }

    #[test]
    fn default_topologies_are_the_papers() {
        assert_eq!(Figure::Fig3.default_topology(), TopologySpec::torus(8, 2));
        assert_eq!(Figure::Fig4.default_topology(), TopologySpec::torus(8, 3));
        assert_eq!(Figure::Fig5.default_topology(), TopologySpec::torus(8, 2));
        assert_eq!(Figure::Fig6.default_topology(), TopologySpec::torus(16, 2));
        assert_eq!(Figure::Fig7.default_topology(), TopologySpec::torus(8, 3));
    }

    #[test]
    fn shape_phrase_keeps_the_papers_cube_wording() {
        assert_eq!(shape_phrase(&TopologySpec::torus(8, 2)), "8-ary 2-cube");
        assert_eq!(shape_phrase(&TopologySpec::mesh(8, 2)), "8-ary 2-mesh");
        assert_eq!(shape_phrase(&TopologySpec::hypercube(6)), "6-hypercube");
    }

    #[test]
    fn unsupported_routing_is_a_figure_level_error() {
        // The turn model on the default (torus) topology is rejected before
        // any simulation runs.
        let opts = FigureOptions::new(Scale::Smoke).with_routing(RoutingChoice::TurnModel);
        let err = Figure::Fig3.plan(&opts).err().expect("must be rejected");
        assert!(matches!(err, FigureError::UnsupportedRouting { .. }));
        assert!(format!("{err}").contains("turn-model"));
        // And an empty routing set is rejected too.
        let mut opts = FigureOptions::new(Scale::Smoke);
        opts.routings = Some(Vec::new());
        assert!(matches!(
            Figure::Fig3.plan(&opts),
            Err(FigureError::NoRoutings)
        ));
        // A nonsense topology fails to build.
        let opts = FigureOptions::new(Scale::Smoke).with_topology(TopologySpec::torus(1, 2));
        assert!(matches!(
            Figure::Fig3.plan(&opts),
            Err(FigureError::Topology(_))
        ));
    }

    #[test]
    fn default_point_configs_are_torus_points() {
        let cfgs = Figure::Fig3
            .point_configs(&FigureOptions::new(Scale::Quick))
            .unwrap();
        // 2 routings × 3 V panels × (2 M × 3 nf) curves × 5 rate points.
        assert_eq!(cfgs.len(), 2 * 3 * 6 * 5);
        assert!(cfgs.iter().all(|c| c.topology == TopologySpec::torus(8, 2)));
        // A topology override rewrites every point, keeping the grid shape.
        let mesh = Figure::Fig3
            .point_configs(
                &FigureOptions::new(Scale::Quick).with_topology(TopologySpec::mesh(8, 2)),
            )
            .unwrap();
        assert_eq!(mesh.len(), cfgs.len());
        assert!(mesh.iter().all(|c| c.topology == TopologySpec::mesh(8, 2)));
        // Seeds are untouched by the override, so fault placements (drawn
        // from per-curve fault seeds) stay comparable across shapes.
        for (a, b) in cfgs.iter().zip(&mesh) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.fault_seed, b.fault_seed);
        }
    }

    #[test]
    fn fig5_regions_that_do_not_fit_surface_as_point_failures() {
        // The paper's Fig. 5 regions cannot fit a radix-2 hypercube: every
        // point fails with a typed region-placement error, but the figure
        // still assembles instead of panicking.
        let res = Figure::Fig5
            .run_with(
                &FigureOptions::new(Scale::Smoke)
                    .with_topology(TopologySpec::hypercube(4))
                    .with_routing(RoutingChoice::Adaptive),
            )
            .unwrap();
        assert_eq!(res.num_points(), 0);
        assert!(!res.failures.is_empty());
        assert!(res.failures.iter().all(|f| f.error.contains("fault")));
        assert!(res.render_text().contains("failed to run"));
    }

    #[test]
    fn fat_tree_figure_grid_builds_and_fig5_is_rejected() {
        // Fig. 3 on a fat-tree with up/down routing plans a full grid.
        let opts = FigureOptions::new(Scale::Smoke)
            .with_topology(TopologySpec::fat_tree(4, 2))
            .with_routing(RoutingChoice::UpDownDeterministic);
        let cfgs = Figure::Fig3.point_configs(&opts).unwrap();
        assert!(!cfgs.is_empty());
        assert!(cfgs
            .iter()
            .all(|c| c.topology == TopologySpec::fat_tree(4, 2)));
        // Grid-only routings are rejected on the fat-tree up front.
        let opts = FigureOptions::new(Scale::Smoke)
            .with_topology(TopologySpec::fat_tree(4, 2))
            .with_routing(RoutingChoice::Deterministic);
        assert!(matches!(
            Figure::Fig3.plan(&opts),
            Err(FigureError::UnsupportedRouting { .. })
        ));
        // Fig. 5's fault regions are grid concepts: typed rejection.
        let opts = FigureOptions::new(Scale::Smoke)
            .with_topology(TopologySpec::fat_tree(4, 2))
            .with_routing(RoutingChoice::UpDownAdaptive);
        let err = Figure::Fig5.plan(&opts).err().expect("must be rejected");
        assert!(matches!(err, FigureError::RegionsNeedGrid { .. }));
        assert!(format!("{err}").contains("indirect"));
    }

    #[test]
    fn supported_routings_keep_the_accepted_ones_in_order() {
        use RoutingChoice::*;
        assert_eq!(
            supported_routings(&TopologySpec::torus(8, 2), &RoutingChoice::ALL),
            [Deterministic, Adaptive]
        );
        assert_eq!(
            supported_routings(
                &TopologySpec::mesh(8, 2),
                &[TurnModel, Adaptive, UpDownAdaptive]
            ),
            [TurnModel, Adaptive]
        );
        assert_eq!(
            supported_routings(&TopologySpec::fat_tree(4, 2), &RoutingChoice::ALL),
            [UpDownDeterministic, UpDownAdaptive]
        );
    }

    #[test]
    fn average_reports_mean() {
        use torus_metrics::{MetricsCollector, WarmupPolicy};
        let make = |latency: u64| {
            let mut c = MetricsCollector::new(4, WarmupPolicy::None);
            let m = c.on_generated(0);
            c.on_delivered(0, 0, latency, 8, 2, m);
            c.report(100, 0)
        };
        let avg = average_reports(&[make(10), make(30)]);
        assert!((avg.mean_latency - 20.0).abs() < 1e-9);
        assert_eq!(avg.delivered_messages, 1);
        // Averaging a single report is the identity.
        let one = make(17);
        let same = average_reports(std::slice::from_ref(&one));
        assert_eq!(same.mean_latency.to_bits(), one.mean_latency.to_bits());
        assert_eq!(same.cycles, one.cycles);
    }

    #[test]
    #[should_panic(expected = "cannot average zero reports")]
    fn average_of_nothing_panics() {
        average_reports(&[]);
    }

    #[test]
    fn capitalise_labels() {
        assert_eq!(capitalise("deterministic"), "Deterministic");
        assert_eq!(capitalise(""), "");
    }
}
