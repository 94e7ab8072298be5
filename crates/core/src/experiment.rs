//! Single experiment points: configuration and execution.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use torus_faults::{FaultScenario, FaultScenarioError};
use torus_metrics::SimulationReport;
use torus_routing::{AnyRouting, Substrate, TurnRule};
use torus_sim::{SimConfig, SimConfigError, Simulation, StopCondition};
use torus_topology::TopologySpec;

/// Which routing algorithm an experiment uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RoutingChoice {
    /// Deterministic Software-Based routing (e-cube in the fault-free case).
    Deterministic,
    /// Adaptive Software-Based routing (Duato's Protocol in the fault-free
    /// case).
    Adaptive,
    /// Negative-first turn-model routing (phase-adaptive with a
    /// negative-first escape channel). Only valid on open (non-wrap)
    /// topologies: running it on a wrapped dimension yields
    /// [`ExperimentError::Sim`] with
    /// [`torus_sim::SimConfigError::UnsupportedRouting`].
    TurnModel,
    /// Deterministic negative-first turn-model routing: the canonical
    /// negative-first order over the whole VC pool (1 VC suffices). The 1-VC
    /// counterpart to [`RoutingChoice::Deterministic`]'s e-cube on meshes;
    /// rejected on wrapped dimensions like [`RoutingChoice::TurnModel`].
    TurnModelDeterministic,
    /// Deterministic up*/down* routing on fat-trees: destination-aligned
    /// ascent, unique descent, one VC. Rejected with a typed error on every
    /// direct (grid) topology.
    UpDownDeterministic,
    /// Adaptive up*/down* routing on fat-trees: any live parent on the way
    /// up, deterministic escape on VC 0. Rejected on grids like
    /// [`RoutingChoice::UpDownDeterministic`].
    UpDownAdaptive,
}

impl RoutingChoice {
    /// The routing algorithm object for this choice.
    pub fn algorithm(&self) -> AnyRouting {
        match self {
            RoutingChoice::Deterministic => AnyRouting::deterministic(Substrate::DimensionOrder),
            RoutingChoice::Adaptive => AnyRouting::adaptive(Substrate::DimensionOrder),
            RoutingChoice::TurnModel => {
                AnyRouting::adaptive(Substrate::Turn(TurnRule::NegativeFirst))
            }
            RoutingChoice::TurnModelDeterministic => {
                AnyRouting::deterministic(Substrate::Turn(TurnRule::NegativeFirst))
            }
            RoutingChoice::UpDownDeterministic => AnyRouting::deterministic(Substrate::UpDown),
            RoutingChoice::UpDownAdaptive => AnyRouting::adaptive(Substrate::UpDown),
        }
    }

    /// Label used in tables ("deterministic" / "adaptive" / "turn-model" /
    /// "turn-model-det" / "updown-det" / "updown").
    pub fn label(&self) -> &'static str {
        match self {
            RoutingChoice::Deterministic => "deterministic",
            RoutingChoice::Adaptive => "adaptive",
            RoutingChoice::TurnModel => "turn-model",
            RoutingChoice::TurnModelDeterministic => "turn-model-det",
            RoutingChoice::UpDownDeterministic => "updown-det",
            RoutingChoice::UpDownAdaptive => "updown",
        }
    }

    /// Parses a CLI routing name. Accepts the labels plus short aliases:
    /// `det`, `adaptive`, `turnmodel`, `turnmodel-det`, `updown`, `updown-det`.
    pub fn parse(s: &str) -> Result<RoutingChoice, String> {
        match s {
            "det" | "deterministic" | "ecube" => Ok(RoutingChoice::Deterministic),
            "adaptive" | "duato" => Ok(RoutingChoice::Adaptive),
            "turnmodel" | "turn-model" => Ok(RoutingChoice::TurnModel),
            "turnmodel-det" | "turn-model-det" => Ok(RoutingChoice::TurnModelDeterministic),
            "updown-det" | "up-down-det" | "updown-deterministic" => {
                Ok(RoutingChoice::UpDownDeterministic)
            }
            "updown" | "up-down" | "updown-adaptive" => Ok(RoutingChoice::UpDownAdaptive),
            other => Err(format!(
                "unknown routing '{other}' (use det|adaptive|turnmodel|turnmodel-det|updown|updown-det)"
            )),
        }
    }

    /// Both Software-Based flavours, deterministic first (the order used by
    /// the paper's figures; the torus baselines never include the turn model,
    /// which wrapped dimensions reject).
    pub const BOTH: [RoutingChoice; 2] = [RoutingChoice::Deterministic, RoutingChoice::Adaptive];

    /// Every routing choice, in comparison-table order. No single topology
    /// accepts all of them — the turn models are rejected on wrapped
    /// dimensions, the up/down schemes everywhere but fat-trees.
    pub const ALL: [RoutingChoice; 6] = [
        RoutingChoice::Deterministic,
        RoutingChoice::Adaptive,
        RoutingChoice::TurnModel,
        RoutingChoice::TurnModelDeterministic,
        RoutingChoice::UpDownDeterministic,
        RoutingChoice::UpDownAdaptive,
    ];
}

/// Errors produced while setting up or running an experiment.
#[derive(Clone, Debug)]
pub enum ExperimentError {
    /// The fault scenario could not be realised.
    Faults(FaultScenarioError),
    /// The simulation configuration was invalid.
    Sim(SimConfigError),
    /// The topology parameters were invalid.
    Topology(torus_topology::NetworkError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Faults(e) => write!(f, "fault scenario error: {e}"),
            ExperimentError::Sim(e) => write!(f, "simulation configuration error: {e}"),
            ExperimentError::Topology(e) => write!(f, "topology error: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<FaultScenarioError> for ExperimentError {
    fn from(e: FaultScenarioError) -> Self {
        ExperimentError::Faults(e)
    }
}

impl From<SimConfigError> for ExperimentError {
    fn from(e: SimConfigError) -> Self {
        ExperimentError::Sim(e)
    }
}

/// One fully described simulation point.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentConfig {
    /// The network topology (torus / mesh / hypercube / mixed-radix shape).
    pub topology: TopologySpec,
    /// Virtual channels per physical channel (`V`).
    pub virtual_channels: usize,
    /// Message length `M` in flits.
    pub message_length: u32,
    /// Traffic generation rate λ in messages/node/cycle.
    pub rate: f64,
    /// Routing flavour.
    pub routing: RoutingChoice,
    /// Fault scenario.
    pub faults: FaultScenario,
    /// RNG seed (drives traffic and, unless [`ExperimentConfig::fault_seed`]
    /// is set, fault placement).
    pub seed: u64,
    /// Optional dedicated seed for the fault placement. Figures 3 and 4 use
    /// this to keep the same random fault placement for every traffic-rate
    /// point of a curve (the paper's methodology), while still giving every
    /// point its own traffic seed.
    pub fault_seed: Option<u64>,
    /// Messages discarded as warm-up.
    pub warmup_messages: u64,
    /// Measured messages after which the run stops.
    pub measured_messages: u64,
    /// Hard cycle cap (protects saturated points).
    pub max_cycles: u64,
    /// Flit-buffer depth per virtual channel.
    pub buffer_depth: usize,
}

impl ExperimentConfig {
    /// A paper-style experiment point on a k-ary n-cube with the given
    /// virtual channels, message length and traffic rate: deterministic
    /// routing, no faults, the reduced "quick" measurement budget.
    pub fn paper_point(radix: u16, dims: u32, v: usize, message_length: u32, rate: f64) -> Self {
        Self::topology_point(TopologySpec::torus(radix, dims), v, message_length, rate)
    }

    /// A paper-style experiment point on a k-ary n-mesh.
    pub fn mesh_point(radix: u16, dims: u32, v: usize, message_length: u32, rate: f64) -> Self {
        Self::topology_point(TopologySpec::mesh(radix, dims), v, message_length, rate)
    }

    /// A paper-style experiment point on a binary n-cube (hypercube).
    pub fn hypercube_point(dims: u32, v: usize, message_length: u32, rate: f64) -> Self {
        Self::topology_point(TopologySpec::hypercube(dims), v, message_length, rate)
    }

    /// A paper-style experiment point on an arbitrary topology spec.
    pub fn topology_point(
        topology: TopologySpec,
        v: usize,
        message_length: u32,
        rate: f64,
    ) -> Self {
        ExperimentConfig {
            topology,
            virtual_channels: v,
            message_length,
            rate,
            routing: RoutingChoice::Deterministic,
            faults: FaultScenario::None,
            seed: 0x5afae1,
            fault_seed: None,
            warmup_messages: 1_000,
            measured_messages: 9_000,
            max_cycles: 150_000,
            buffer_depth: 2,
        }
    }

    /// Sets the routing flavour.
    pub fn with_routing(mut self, routing: RoutingChoice) -> Self {
        self.routing = routing;
        self
    }

    /// Replaces the topology spec (keeping every other parameter).
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the fault scenario.
    pub fn with_faults(mut self, faults: FaultScenario) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pins the fault placement to a dedicated seed, independent of the
    /// traffic seed (used to keep one placement for a whole curve).
    pub fn with_fault_seed(mut self, fault_seed: u64) -> Self {
        self.fault_seed = Some(fault_seed);
        self
    }

    /// Sets the traffic rate.
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Shrinks the measurement budget (used by tests and smoke runs).
    pub fn quick(mut self, measured: u64, warmup: u64) -> Self {
        self.measured_messages = measured;
        self.warmup_messages = warmup;
        self
    }

    /// Number of nodes of the configured topology.
    pub fn num_nodes(&self) -> usize {
        self.topology.num_nodes()
    }

    /// The low-level simulator configuration for this experiment.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper_topology(
            self.topology.clone(),
            self.virtual_channels,
            self.message_length,
            self.rate,
        );
        cfg.buffer_depth = self.buffer_depth;
        cfg.warmup_messages = self.warmup_messages;
        cfg.stop = StopCondition::MeasuredMessages(self.measured_messages);
        cfg.max_cycles = self.max_cycles;
        cfg.seed = self.seed;
        cfg
    }

    /// Runs the experiment and returns its outcome.
    pub fn run(&self) -> Result<ExperimentOutcome, ExperimentError> {
        self.run_sim(self.sim_config())
    }

    /// Runs the experiment on a simulator configuration derived from
    /// [`ExperimentConfig::sim_config`] with knobs this type does not carry
    /// (the re-injection overhead Δ, say). Faults, routing and the outcome's
    /// recorded configuration come from `self`.
    pub fn run_sim(&self, sim_config: SimConfig) -> Result<ExperimentOutcome, ExperimentError> {
        let net = self.topology.build().map_err(ExperimentError::Topology)?;
        // Fault placement uses a dedicated RNG stream (derived from the fault
        // seed if pinned, otherwise from the run seed) so the same faults are
        // applied to both routing flavours of a comparison.
        let mut fault_rng =
            StdRng::seed_from_u64(self.fault_seed.unwrap_or(self.seed) ^ 0xFA17_5EED);
        let faults = self.faults.realize(&net, &mut fault_rng)?;
        let fault_count = faults.num_faulty_nodes();
        let mut sim = Simulation::new(sim_config, faults, self.routing.algorithm())?;
        let outcome = sim.run();
        Ok(ExperimentOutcome {
            config: self.clone(),
            fault_count,
            report: outcome.report,
            hit_max_cycles: outcome.hit_max_cycles,
            forced_absorptions: outcome.forced_absorptions,
            dropped_messages: outcome.dropped_messages,
            message_table_peak: outcome.message_table_peak,
        })
    }
}

/// Result of one experiment point.
#[derive(Clone, Debug)]
pub struct ExperimentOutcome {
    /// The configuration that produced this outcome.
    pub config: ExperimentConfig,
    /// Number of faulty nodes actually applied.
    pub fault_count: usize,
    /// Metrics report of the run.
    pub report: SimulationReport,
    /// True if the run stopped at the cycle cap (saturated point).
    pub hit_max_cycles: bool,
    /// Watchdog absorptions (expected 0).
    pub forced_absorptions: u64,
    /// Dropped messages (expected 0).
    pub dropped_messages: u64,
    /// Peak number of messages the simulator held at once, as message-table
    /// entries or source-queue records: the peak in-flight population (the
    /// table reclaims delivered entries), so long saturation searches do not
    /// grow memory with delivered traffic.
    pub message_table_peak: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let cfg = ExperimentConfig::paper_point(8, 2, 6, 32, 0.004)
            .with_routing(RoutingChoice::Adaptive)
            .with_faults(FaultScenario::RandomNodes { count: 3 })
            .with_seed(7)
            .with_rate(0.006)
            .quick(500, 100);
        assert_eq!(cfg.routing, RoutingChoice::Adaptive);
        assert_eq!(cfg.rate, 0.006);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.measured_messages, 500);
        assert_eq!(cfg.num_nodes(), 64);
        let sim_cfg = cfg.sim_config();
        assert_eq!(sim_cfg.stop, StopCondition::MeasuredMessages(500));
        assert_eq!(sim_cfg.virtual_channels, 6);
    }

    #[test]
    fn run_fault_free_point() {
        let cfg = ExperimentConfig::paper_point(4, 2, 4, 8, 0.01).quick(400, 100);
        let out = cfg.run().unwrap();
        assert_eq!(out.fault_count, 0);
        assert!(!out.hit_max_cycles);
        assert!(out.report.mean_latency >= 8.0);
        assert_eq!(out.report.messages_queued, 0);
        assert!(out.message_table_peak > 0);
        assert!(
            out.message_table_peak < out.report.generated_messages,
            "reclaiming table: peak {} must stay below the generated total {}",
            out.message_table_peak,
            out.report.generated_messages
        );
    }

    #[test]
    fn run_faulty_point_with_both_flavors() {
        for routing in RoutingChoice::BOTH {
            let cfg = ExperimentConfig::paper_point(8, 2, 4, 16, 0.003)
                .with_routing(routing)
                .with_faults(FaultScenario::RandomNodes { count: 5 })
                .quick(300, 100);
            let out = cfg.run().unwrap();
            assert_eq!(out.fault_count, 5);
            assert_eq!(out.dropped_messages, 0);
            assert_eq!(out.forced_absorptions, 0);
        }
    }

    #[test]
    fn pinned_fault_seed_gives_identical_placements_across_traffic_seeds() {
        let base = ExperimentConfig::paper_point(8, 2, 4, 16, 0.003)
            .with_faults(FaultScenario::RandomNodes { count: 5 })
            .with_fault_seed(123)
            .quick(150, 50);
        let a = base.clone().with_seed(1).run().unwrap();
        let b = base.with_seed(2).run().unwrap();
        assert_eq!(a.fault_count, b.fault_count);
        // Different traffic seeds must still change the measured latency.
        assert_ne!(a.report.mean_latency, b.report.mean_latency);
    }

    #[test]
    fn same_seed_same_faults_across_flavors() {
        let base = ExperimentConfig::paper_point(8, 2, 6, 16, 0.003)
            .with_faults(FaultScenario::RandomNodes { count: 4 })
            .quick(200, 50);
        let det = base
            .clone()
            .with_routing(RoutingChoice::Deterministic)
            .run()
            .unwrap();
        let ada = base.with_routing(RoutingChoice::Adaptive).run().unwrap();
        assert_eq!(det.fault_count, ada.fault_count);
    }

    #[test]
    fn invalid_configuration_reports_error() {
        let cfg = ExperimentConfig::paper_point(1, 2, 4, 8, 0.01);
        assert!(matches!(cfg.run(), Err(ExperimentError::Topology(_))));
        let cfg = ExperimentConfig::paper_point(8, 2, 4, 8, 0.01)
            .with_faults(FaultScenario::RandomNodes { count: 64 });
        assert!(matches!(cfg.run(), Err(ExperimentError::Faults(_))));
        let mut cfg =
            ExperimentConfig::paper_point(8, 2, 4, 8, 0.01).with_routing(RoutingChoice::Adaptive);
        cfg.virtual_channels = 2;
        assert!(matches!(cfg.run(), Err(ExperimentError::Sim(_))));
    }

    #[test]
    fn mesh_and_hypercube_points_run_end_to_end() {
        let mesh = ExperimentConfig::mesh_point(4, 2, 2, 8, 0.008).quick(300, 100);
        assert_eq!(mesh.topology, TopologySpec::mesh(4, 2));
        let out = mesh.run().unwrap();
        assert!(!out.hit_max_cycles);
        assert_eq!(out.dropped_messages, 0);
        assert!(out.report.mean_latency >= 8.0);

        let cube = ExperimentConfig::hypercube_point(5, 2, 8, 0.006)
            .with_routing(RoutingChoice::Adaptive)
            .quick(300, 100);
        assert_eq!(cube.num_nodes(), 32);
        let out = cube.run().unwrap();
        assert!(!out.hit_max_cycles);
        assert_eq!(out.dropped_messages, 0);
    }

    #[test]
    fn turn_model_runs_on_meshes_and_is_rejected_on_tori() {
        let mesh = ExperimentConfig::mesh_point(8, 2, 2, 16, 0.003)
            .with_routing(RoutingChoice::TurnModel)
            .with_faults(FaultScenario::RandomNodes { count: 3 })
            .quick(400, 100);
        let out = mesh.run().unwrap();
        assert_eq!(out.fault_count, 3);
        assert_eq!(out.dropped_messages, 0);
        assert_eq!(out.forced_absorptions, 0);
        assert!(!out.hit_max_cycles);

        let cube = ExperimentConfig::hypercube_point(5, 2, 8, 0.005)
            .with_routing(RoutingChoice::TurnModel)
            .quick(300, 100);
        assert!(cube.run().is_ok());

        // Wrapped dimensions reject the choice with a typed error, so torus
        // baselines can never silently run the wrong algorithm.
        let torus = ExperimentConfig::paper_point(8, 2, 4, 16, 0.003)
            .with_routing(RoutingChoice::TurnModel)
            .quick(300, 100);
        assert!(matches!(
            torus.run(),
            Err(ExperimentError::Sim(
                torus_sim::SimConfigError::UnsupportedRouting { .. }
            ))
        ));
    }

    #[test]
    fn bad_traffic_rate_is_reported_as_a_sim_error() {
        let point = ExperimentConfig::paper_point(4, 2, 4, 8, f64::NAN).quick(300, 100);
        assert!(matches!(
            point.run(),
            Err(ExperimentError::Sim(
                torus_sim::SimConfigError::InvalidTrafficRate { .. }
            ))
        ));
    }

    #[test]
    fn values_past_the_router_widths_are_sim_errors() {
        use torus_sim::SimConfigError;
        let point = ExperimentConfig::paper_point(4, 2, 4, 8, 0.01).quick(300, 100);
        let mut long = point.clone();
        long.max_cycles = 1 << 32;
        assert!(matches!(
            long.run(),
            Err(ExperimentError::Sim(SimConfigError::TooManyCycles { .. }))
        ));
        if let Ok(depth) = usize::try_from(1u64 << 32) {
            let mut deep = point;
            deep.buffer_depth = depth;
            assert!(matches!(
                deep.run(),
                Err(ExperimentError::Sim(SimConfigError::BufferTooDeep { .. }))
            ));
        }
        // 2 * 16 384 ports of 2 VCs, the injection port's included: 65 538
        // input VCs per router.
        let wide = ExperimentConfig::topology_point(TopologySpec::fat_tree(16_384, 1), 2, 8, 0.01)
            .with_routing(RoutingChoice::UpDownAdaptive)
            .quick(300, 100);
        assert!(matches!(
            wide.run(),
            Err(ExperimentError::Sim(SimConfigError::TooManySlots { .. }))
        ));
    }

    #[test]
    fn routing_choice_all_covers_every_variant() {
        assert_eq!(RoutingChoice::ALL.len(), 6);
        assert_eq!(RoutingChoice::TurnModel.label(), "turn-model");
        assert_eq!(RoutingChoice::UpDownDeterministic.label(), "updown-det");
        assert_eq!(RoutingChoice::UpDownAdaptive.label(), "updown");
        assert_eq!(
            RoutingChoice::UpDownDeterministic.algorithm(),
            AnyRouting::deterministic(Substrate::UpDown)
        );
        assert_eq!(
            RoutingChoice::TurnModelDeterministic.label(),
            "turn-model-det"
        );
        assert_eq!(
            RoutingChoice::TurnModel.algorithm(),
            AnyRouting::adaptive(Substrate::Turn(TurnRule::NegativeFirst))
        );
        assert_eq!(
            RoutingChoice::TurnModelDeterministic.algorithm(),
            AnyRouting::deterministic(Substrate::Turn(TurnRule::NegativeFirst))
        );
    }

    #[test]
    fn routing_choice_parse_accepts_labels_and_aliases() {
        for choice in RoutingChoice::ALL {
            assert_eq!(RoutingChoice::parse(choice.label()), Ok(choice));
        }
        assert_eq!(
            RoutingChoice::parse("det"),
            Ok(RoutingChoice::Deterministic)
        );
        assert_eq!(RoutingChoice::parse("duato"), Ok(RoutingChoice::Adaptive));
        assert_eq!(
            RoutingChoice::parse("turnmodel"),
            Ok(RoutingChoice::TurnModel)
        );
        assert_eq!(
            RoutingChoice::parse("turnmodel-det"),
            Ok(RoutingChoice::TurnModelDeterministic)
        );
        assert_eq!(
            RoutingChoice::parse("up-down"),
            Ok(RoutingChoice::UpDownAdaptive)
        );
        assert_eq!(
            RoutingChoice::parse("up-down-det"),
            Ok(RoutingChoice::UpDownDeterministic)
        );
        assert!(RoutingChoice::parse("magic").is_err());
    }

    #[test]
    fn updown_runs_on_fat_trees_and_is_rejected_on_grids() {
        for (routing, v) in [
            (RoutingChoice::UpDownDeterministic, 1),
            (RoutingChoice::UpDownAdaptive, 2),
        ] {
            let cfg = ExperimentConfig::topology_point(TopologySpec::fat_tree(4, 2), v, 8, 0.01)
                .with_routing(routing)
                .quick(300, 100);
            let out = cfg.run().unwrap();
            assert!(!out.hit_max_cycles);
            assert_eq!(out.dropped_messages, 0);
            assert_eq!(out.forced_absorptions, 0);
            assert!(out.report.mean_latency >= 8.0);
        }

        let torus = ExperimentConfig::paper_point(8, 2, 4, 16, 0.003)
            .with_routing(RoutingChoice::UpDownDeterministic)
            .quick(200, 50);
        assert!(matches!(
            torus.run(),
            Err(ExperimentError::Sim(
                torus_sim::SimConfigError::UnsupportedRouting { .. }
            ))
        ));
    }

    #[test]
    fn faulted_fat_tree_point_routes_around_the_failure() {
        for routing in [
            RoutingChoice::UpDownDeterministic,
            RoutingChoice::UpDownAdaptive,
        ] {
            let cfg = ExperimentConfig::topology_point(TopologySpec::fat_tree(4, 2), 2, 8, 0.008)
                .with_routing(routing)
                .with_faults(FaultScenario::RandomNodes { count: 1 })
                .quick(250, 50);
            let out = cfg.run().unwrap();
            assert_eq!(out.fault_count, 1);
            assert_eq!(out.dropped_messages, 0);
        }
    }

    #[test]
    fn deterministic_turn_model_runs_at_one_vc_on_meshes() {
        let cfg = ExperimentConfig::mesh_point(8, 2, 1, 16, 0.003)
            .with_routing(RoutingChoice::TurnModelDeterministic)
            .with_faults(FaultScenario::RandomNodes { count: 3 })
            .quick(300, 100);
        let out = cfg.run().unwrap();
        assert_eq!(out.fault_count, 3);
        assert_eq!(out.dropped_messages, 0);

        // Rejected on wrapped dimensions exactly like the adaptive flavour.
        let torus = ExperimentConfig::paper_point(8, 2, 4, 16, 0.003)
            .with_routing(RoutingChoice::TurnModelDeterministic)
            .quick(200, 50);
        assert!(matches!(
            torus.run(),
            Err(ExperimentError::Sim(
                torus_sim::SimConfigError::UnsupportedRouting { .. }
            ))
        ));
    }

    #[test]
    fn with_topology_switches_the_shape() {
        let cfg = ExperimentConfig::paper_point(8, 2, 4, 16, 0.004)
            .with_topology(TopologySpec::mixed(vec![4, 4, 3], vec![true, true, false]));
        assert_eq!(cfg.num_nodes(), 48);
        assert_eq!(cfg.topology.kind(), "mixed");
        assert_eq!(cfg.sim_config().topology, cfg.topology);
    }

    #[test]
    fn topology_spec_round_trips_through_its_string_form() {
        // The spec string is the serialised form of a topology: CLI
        // arguments and result tables carry it.
        for cfg in [
            ExperimentConfig::paper_point(8, 2, 4, 16, 0.004),
            ExperimentConfig::mesh_point(4, 3, 2, 8, 0.002),
            ExperimentConfig::hypercube_point(6, 2, 8, 0.002),
            ExperimentConfig::paper_point(8, 2, 4, 16, 0.004)
                .with_topology(TopologySpec::mixed(vec![8, 8, 4], vec![true, true, false])),
        ] {
            let s = cfg.topology.to_spec_string();
            let parsed = TopologySpec::parse(&s).unwrap();
            assert_eq!(parsed, cfg.topology, "{s}");
            assert_eq!(cfg.clone().with_topology(parsed), cfg);
        }
    }

    #[test]
    fn labels() {
        use torus_faults::RandomFaultError;
        assert_eq!(RoutingChoice::Deterministic.label(), "deterministic");
        assert_eq!(RoutingChoice::Adaptive.label(), "adaptive");
        let err = ExperimentError::Faults(FaultScenarioError::Random(
            RandomFaultError::TooManyFaults {
                requested: 10,
                nodes: 4,
            },
        ));
        assert!(format!("{err}").contains("fault scenario"));
    }
}
