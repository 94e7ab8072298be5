//! Equivalence harness: the active-set engine ([`Simulation`]) and the
//! straightforward full-scan reference ([`ReferenceSimulation`]) must produce
//! **bit-identical** [`SimulationReport`]s — same delivery order, same
//! floating-point accumulation order, same RNG stream — for every seed, load
//! and fault scenario.
//!
//! Every case runs both engines under the conservation sanitizer and asserts
//! a clean audit:
//! no flit created or destroyed outside inject/absorb, credit counters the
//! exact complement of downstream occupancy, faulty components quiescent, no
//! stale message references. (CDG-conformance runs, which need the static
//! verifier, live in the workspace-level `sanitizer_conformance` suite.)
//!
//! Both engines run one shared pipeline and differ only in scheduling, so
//! their agreement says nothing about the pipeline itself drifting. Every
//! case therefore also folds an FNV-1a digest of its report into a per-test
//! [`OutcomePin`], asserted against a constant captured while the two engines
//! were still independently written copies that agreed. A pin may only change
//! in a PR that *intends* to change simulated outcomes.
//!
//! One seeded-bug test closes the loop in the other direction: a scheduler
//! that hands its worklists back in descending order must be told apart from
//! [`FullScan`], proving the suite can catch a scheduling defect.

use rand::rngs::StdRng;
use rand::SeedableRng;
use torus_faults::{FaultScenario, FaultSet};
use torus_routing::{AnyRouting, RoutingAlgorithm, Substrate, TurnRule};
use torus_sim::router::RouterState;
use torus_sim::{
    Engine, FullScan, MessageState, ReferenceSimulation, Sanitizer, Schedule, SimConfig,
    Simulation, StopCondition,
};
use torus_topology::{AnyTopology, Direction, TopologySpec};

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// FNV-1a fold of the report digests of one `#[test]`, in case order.
struct OutcomePin(u64);

impl OutcomePin {
    fn new() -> Self {
        OutcomePin(FNV_OFFSET)
    }

    /// Checks one case with `algo` and folds its digest; returns the active
    /// and reference engines' message-table peaks.
    fn equivalent_with<A: RoutingAlgorithm + Clone>(
        &mut self,
        config: SimConfig,
        faults: FaultSet,
        algo: A,
    ) -> (u64, u64) {
        let (digest, active_peak, reference_peak) = assert_equivalent_with(config, faults, algo);
        self.0 = fnv1a(self.0, &digest.to_le_bytes());
        (active_peak, reference_peak)
    }

    /// The Software-Based routing over dimension order, deterministic or
    /// adaptive: the torus/mesh baseline cases.
    fn equivalent(&mut self, config: SimConfig, faults: FaultSet, adaptive: bool) -> (u64, u64) {
        if adaptive {
            self.equivalent_with(
                config,
                faults,
                AnyRouting::adaptive(Substrate::DimensionOrder),
            )
        } else {
            self.equivalent_with(
                config,
                faults,
                AnyRouting::deterministic(Substrate::DimensionOrder),
            )
        }
    }

    fn assert_is(self, expected: u64) {
        assert_eq!(
            self.0, expected,
            "simulated outcomes moved: fold is {:#018x}, pinned {expected:#018x}",
            self.0
        );
    }
}

/// Runs both engines with `algo` on the same configuration and asserts
/// identical results. Returns the FNV-1a of the debug rendering of the
/// (shared) report, then the active and reference message-table peaks.
fn assert_equivalent_with<A: RoutingAlgorithm + Clone>(
    config: SimConfig,
    faults: FaultSet,
    algo: A,
) -> (u64, u64, u64) {
    let audit = Sanitizer::new(&config, &algo, None);
    let mut a =
        Simulation::with_observer(config.clone(), faults.clone(), algo.clone(), audit.clone())
            .expect("valid config for the active engine");
    let mut r = ReferenceSimulation::with_observer(config, faults, algo.clone(), audit)
        .expect("valid config for the reference engine");
    let (active, reference) = (a.run(), r.run());
    for (engine, s) in [("active", a.observer()), ("reference", r.observer())] {
        assert!(
            s.is_clean(),
            "{engine} engine violated {} invariant(s) under {}; first: {:?}",
            s.violation_count(),
            algo.name(),
            s.violations().first()
        );
    }
    assert_eq!(
        active.report,
        reference.report,
        "active-set and full-scan engines diverged under {}",
        algo.name()
    );
    assert_eq!(active.hit_max_cycles, reference.hit_max_cycles);
    assert_eq!(active.forced_absorptions, reference.forced_absorptions);
    assert_eq!(active.dropped_messages, reference.dropped_messages);
    (
        fnv1a(FNV_OFFSET, format!("{:?}", active.report).as_bytes()),
        active.message_table_peak,
        reference.message_table_peak,
    )
}

fn quick(radix: u16, dims: u32, v: usize, m: u32, rate: f64, seed: u64) -> SimConfig {
    quick_topology(TopologySpec::torus(radix, dims), v, m, rate, seed)
}

fn quick_topology(spec: TopologySpec, v: usize, m: u32, rate: f64, seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_topology(spec, v, m, rate).with_seed(seed);
    c.warmup_messages = 100;
    c.stop = StopCondition::MeasuredMessages(500);
    c.max_cycles = 100_000;
    c
}

fn faults_for(scenario: &FaultScenario, torus: &AnyTopology, seed: u64) -> FaultSet {
    let mut rng = StdRng::seed_from_u64(seed);
    scenario
        .realize(torus, &mut rng)
        .expect("realizable faults")
}

#[test]
fn fault_free_across_seeds_and_loads() {
    let mut pin = OutcomePin::new();
    for seed in [1, 2, 3] {
        for rate in [0.003, 0.02] {
            for adaptive in [false, true] {
                let config = quick(4, 2, 4, 8, rate, seed);
                pin.equivalent(config, FaultSet::new(), adaptive);
            }
        }
    }
    pin.assert_is(0x33dad345ffde3ee3);
}

#[test]
fn random_node_faults_across_seeds() {
    let mut pin = OutcomePin::new();
    let torus = AnyTopology::torus(8, 2).unwrap();
    let scenario = FaultScenario::RandomNodes { count: 5 };
    for seed in [7, 8] {
        for adaptive in [false, true] {
            let config = quick(8, 2, 4, 16, 0.003, seed);
            let faults = faults_for(&scenario, &torus, seed ^ 0xFA);
            pin.equivalent(config, faults, adaptive);
        }
    }
    pin.assert_is(0x1469bc287ec52a73);
}

#[test]
fn region_faults_match() {
    let mut pin = OutcomePin::new();
    let torus = AnyTopology::torus(8, 2).unwrap();
    let scenario = FaultScenario::centered_region(
        torus.grid().unwrap(),
        torus_faults::RegionShape::paper_u_8(),
    );
    let faults = faults_for(&scenario, &torus, 0);
    let config = quick(8, 2, 4, 16, 0.003, 9);
    pin.equivalent(config, faults, true);
    pin.assert_is(0xd0265ee347593e91);
}

#[test]
fn three_dimensional_faulted_match() {
    let mut pin = OutcomePin::new();
    let torus = AnyTopology::torus(4, 3).unwrap();
    let scenario = FaultScenario::RandomNodes { count: 3 };
    let faults = faults_for(&scenario, &torus, 5);
    let config = quick(4, 3, 4, 8, 0.004, 4);
    pin.equivalent(config, faults, false);
    pin.assert_is(0x13ed863e869d5af6);
}

#[test]
fn near_saturation_cycle_capped_match() {
    // A saturated network exercises the busy sets at full occupancy and the
    // cycle-cap exit path.
    let mut pin = OutcomePin::new();
    let mut config = quick(4, 2, 4, 8, 0.2, 13);
    config.stop = StopCondition::Cycles(4_000);
    config.max_cycles = 4_000;
    pin.equivalent(config, FaultSet::new(), false);
    pin.assert_is(0x352c27778675487f);
}

#[test]
fn saturated_adaptive_heads_match() {
    // Far past saturation under adaptive routing, most heads stay blocked on
    // several candidates for many cycles: kept decisions, their re-allocation
    // and its RNG draws, under shallow buffers, a router delay and a watchdog
    // that fires.
    let mut pin = OutcomePin::new();
    for variant in 0..4 {
        let mut config = quick(4, 2, 4, 8, 0.2, 17);
        config.stop = StopCondition::Cycles(4_000);
        config.max_cycles = 4_000;
        match variant {
            1 => config.buffer_depth = 1,
            2 => config.router_delay = 2,
            3 => config.stall_absorb_threshold = 37,
            _ => {}
        }
        pin.equivalent(config, FaultSet::new(), true);
    }
    pin.assert_is(0x837df881d3a5fbe7);
}

#[test]
fn nonzero_delays_match() {
    // Router decision time and re-injection overhead shift `ready_at`
    // schedules; both engines must agree cycle for cycle.
    let mut pin = OutcomePin::new();
    let torus = AnyTopology::torus(8, 2).unwrap();
    let faults = faults_for(&FaultScenario::RandomNodes { count: 4 }, &torus, 3);
    let mut config = quick(8, 2, 4, 16, 0.003, 21);
    config.router_delay = 2;
    config.reinjection_delay = 40;
    pin.equivalent(config, faults, false);
    pin.assert_is(0x4b11756f4fb6cb25);
}

#[test]
fn message_table_stays_bounded_under_sustained_traffic() {
    // The active engine's table peak must track the in-flight population;
    // the reference's append-only table grows with the delivered total.
    let mut pin = OutcomePin::new();
    let mut config = quick(4, 2, 4, 8, 0.02, 2);
    config.stop = StopCondition::Cycles(50_000);
    config.max_cycles = 50_000;
    let (active_peak, reference_total) = pin.equivalent(config, FaultSet::new(), false);
    assert!(
        reference_total > 5_000,
        "run too short to be meaningful: {reference_total}"
    );
    assert!(
        active_peak < reference_total / 10,
        "active peak {active_peak} should be far below the append-only total {reference_total}"
    );
    pin.assert_is(0x3cfb0556a514af50);
}

#[test]
fn tiny_stall_threshold_matches() {
    // A threshold far below the default: the deadline-driven scans must
    // reproduce the reference's every-cycle checks exactly (including when
    // the watchdog never needs to fire).
    let mut pin = OutcomePin::new();
    let mut config = quick(4, 2, 4, 8, 0.02, 6);
    config.stall_absorb_threshold = 37;
    config.stop = StopCondition::MeasuredMessages(300);
    pin.equivalent(config, FaultSet::new(), false);
    pin.assert_is(0xc4061463f0925d1e);
}

#[test]
fn mesh_fault_free_across_seeds_and_loads() {
    // Non-wrap topologies exercise the absent-edge-port paths of both
    // engines; they must stay bit-identical there too.
    let mut pin = OutcomePin::new();
    for seed in [1, 2] {
        for rate in [0.003, 0.02] {
            for adaptive in [false, true] {
                let config = quick_topology(TopologySpec::mesh(4, 2), 4, 8, rate, seed);
                pin.equivalent(config, FaultSet::new(), adaptive);
            }
        }
    }
    pin.assert_is(0xc8d07ee737232a29);
}

#[test]
fn mesh_random_node_faults_match() {
    let mut pin = OutcomePin::new();
    let mesh = AnyTopology::mesh(8, 2).unwrap();
    let scenario = FaultScenario::RandomNodes { count: 4 };
    for adaptive in [false, true] {
        let config = quick_topology(TopologySpec::mesh(8, 2), 4, 16, 0.003, 15);
        let faults = faults_for(&scenario, &mesh, 0x3E5);
        pin.equivalent(config, faults, adaptive);
    }
    pin.assert_is(0xde27b273037e661a);
}

#[test]
fn mesh_region_faults_match() {
    let mut pin = OutcomePin::new();
    let mesh = AnyTopology::mesh(8, 2).unwrap();
    let scenario = FaultScenario::centered_region(
        mesh.grid().unwrap(),
        torus_faults::RegionShape::paper_u_8(),
    );
    let faults = faults_for(&scenario, &mesh, 0);
    let config = quick_topology(TopologySpec::mesh(8, 2), 4, 16, 0.003, 9);
    pin.equivalent(config, faults, true);
    pin.assert_is(0xd07cdae1d9fa22cc);
}

#[test]
fn hypercube_fault_free_and_faulted_match() {
    let mut pin = OutcomePin::new();
    let cube = AnyTopology::hypercube(5).unwrap();
    for adaptive in [false, true] {
        let config = quick_topology(TopologySpec::hypercube(5), 3, 8, 0.005, 31);
        pin.equivalent(config, FaultSet::new(), adaptive);
        let config = quick_topology(TopologySpec::hypercube(5), 3, 8, 0.005, 32);
        let faults = faults_for(&FaultScenario::RandomNodes { count: 2 }, &cube, 77);
        pin.equivalent(config, faults, adaptive);
    }
    pin.assert_is(0xd132b7baf8eeb776);
}

#[test]
fn mesh_minimum_vc_configurations_match() {
    // Meshes need no dateline VC: one VC suffices for deterministic routing
    // and two for Duato's protocol. Both engines must agree at the minimum.
    let mut pin = OutcomePin::new();
    let config = quick_topology(TopologySpec::mesh(4, 2), 1, 8, 0.01, 5);
    pin.equivalent(config, FaultSet::new(), false);
    let config = quick_topology(TopologySpec::mesh(4, 2), 2, 8, 0.01, 6);
    pin.equivalent(config, FaultSet::new(), true);
    pin.assert_is(0x436760f6e603b4f8);
}

#[test]
fn mixed_radix_network_matches() {
    // A 4x4 wrapped plane with an open radix-3 third dimension (48 nodes).
    let mut pin = OutcomePin::new();
    let spec = TopologySpec::mixed(vec![4, 4, 3], vec![true, true, false]);
    let net = spec.build().unwrap();
    let config = quick_topology(spec, 4, 8, 0.003, 23);
    let faults = faults_for(&FaultScenario::RandomNodes { count: 3 }, &net, 41);
    pin.equivalent(config, faults, false);
    pin.assert_is(0x720339ef0da35bc6);
}

#[test]
fn routers_wider_than_one_and_two_machine_words_match() {
    // A router's slot masks are bit sets over its input slots: torus:4x3
    // with V=10 has 70 (two words), hc:7 with V=10 has 150 (three), and
    // switch requests arrive from every word. Loaded enough that output
    // ports see competing requests, both
    // flavours, both schedulers, sanitizer attached. The pin was captured on
    // the engine that still probed every slot per output port.
    let mut pin = OutcomePin::new();
    for adaptive in [false, true] {
        let config = quick_topology(TopologySpec::torus(4, 3), 10, 8, 0.04, 41);
        pin.equivalent(config, FaultSet::new(), adaptive);
        let config = quick_topology(TopologySpec::hypercube(7), 10, 8, 0.03, 42);
        pin.equivalent(config, FaultSet::new(), adaptive);
    }
    pin.assert_is(0x9028a3aa37017c22);
}

#[test]
fn routers_wider_than_one_port_word_match() {
    // Every grid has at most 62 network ports; ft:33,1 has 66 (one switch
    // over 33 endpoints), so the switch allocator's set of requested ports
    // spans two words. Up*/down*, deterministic at V=1 and adaptive at V=2,
    // both schedulers, sanitizer attached. The pin was captured on the engine
    // that still probed every output port for a winner.
    let mut pin = OutcomePin::new();
    let spec = TopologySpec::fat_tree(33, 1);
    let config = quick_topology(spec.clone(), 1, 8, 0.04, 43);
    pin.equivalent_with(
        config,
        FaultSet::new(),
        AnyRouting::deterministic(Substrate::UpDown),
    );
    let config = quick_topology(spec, 2, 8, 0.04, 44);
    pin.equivalent_with(
        config,
        FaultSet::new(),
        AnyRouting::adaptive(Substrate::UpDown),
    );
    pin.assert_is(0xdc3c2ec6f2f2a784);
}

#[test]
fn turn_model_mesh_fault_free_across_seeds_and_loads() {
    // The negative-first turn model exercises a different deterministic
    // output and phase-restricted adaptive candidates; both engines must stay
    // bit-identical across seeds and loads.
    let mut pin = OutcomePin::new();
    for seed in [1, 2] {
        for rate in [0.003, 0.02] {
            let config = quick_topology(TopologySpec::mesh(4, 2), 2, 8, rate, seed);
            pin.equivalent_with(
                config.clone(),
                FaultSet::new(),
                AnyRouting::adaptive(Substrate::Turn(TurnRule::NegativeFirst)),
            );
            pin.equivalent_with(
                config,
                FaultSet::new(),
                AnyRouting::deterministic(Substrate::Turn(TurnRule::NegativeFirst)),
            );
        }
    }
    pin.assert_is(0x6e3130c91ac99769);
}

#[test]
fn turn_model_mesh_random_node_faults_match() {
    let mut pin = OutcomePin::new();
    let mesh = AnyTopology::mesh(8, 2).unwrap();
    let scenario = FaultScenario::RandomNodes { count: 4 };
    let faults = faults_for(&scenario, &mesh, 0x3E5);
    let config = quick_topology(TopologySpec::mesh(8, 2), 4, 16, 0.003, 15);
    pin.equivalent_with(
        config.clone(),
        faults.clone(),
        AnyRouting::adaptive(Substrate::Turn(TurnRule::NegativeFirst)),
    );
    pin.equivalent_with(
        config,
        faults,
        AnyRouting::deterministic(Substrate::Turn(TurnRule::NegativeFirst)),
    );
    pin.assert_is(0xb1ec093bdcadff11);
}

#[test]
fn turn_model_hypercube_matches() {
    let mut pin = OutcomePin::new();
    let cube = AnyTopology::hypercube(5).unwrap();
    let config = quick_topology(TopologySpec::hypercube(5), 2, 8, 0.005, 31);
    pin.equivalent_with(
        config.clone(),
        FaultSet::new(),
        AnyRouting::adaptive(Substrate::Turn(TurnRule::NegativeFirst)),
    );
    let faults = faults_for(&FaultScenario::RandomNodes { count: 2 }, &cube, 77);
    pin.equivalent_with(
        config,
        faults,
        AnyRouting::adaptive(Substrate::Turn(TurnRule::NegativeFirst)),
    );
    pin.assert_is(0x229e8303627e954f);
}

#[test]
fn turn_model_mixed_radix_open_mesh_matches() {
    // A mixed-radix all-open shape (6x3x2, 36 nodes): the turn model accepts
    // any network as long as no dimension wraps.
    let mut pin = OutcomePin::new();
    let spec = TopologySpec::mixed(vec![6, 3, 2], vec![false, false, false]);
    let net = spec.build().unwrap();
    let config = quick_topology(spec, 2, 8, 0.004, 19);
    let faults = faults_for(&FaultScenario::RandomNodes { count: 2 }, &net, 53);
    pin.equivalent_with(
        config,
        faults,
        AnyRouting::adaptive(Substrate::Turn(TurnRule::NegativeFirst)),
    );
    pin.assert_is(0x70628cf638a7fe3c);
}

#[test]
fn turn_model_minimum_vc_configurations_match() {
    // The reduced VC budget: one VC suffices for the deterministic flavour,
    // two (1 escape + 1 adaptive) for the adaptive flavour.
    let mut pin = OutcomePin::new();
    let config = quick_topology(TopologySpec::mesh(4, 2), 1, 8, 0.01, 5);
    pin.equivalent_with(
        config,
        FaultSet::new(),
        AnyRouting::deterministic(Substrate::Turn(TurnRule::NegativeFirst)),
    );
    let config = quick_topology(TopologySpec::mesh(4, 2), 2, 8, 0.01, 6);
    pin.equivalent_with(
        config,
        FaultSet::new(),
        AnyRouting::adaptive(Substrate::Turn(TurnRule::NegativeFirst)),
    );
    pin.assert_is(0xcf5f01fdcc4d6be5);
}

#[test]
fn fat_tree_fault_free_across_seeds_and_loads() {
    // Indirect-network traffic: messages are injected and absorbed only at
    // the endpoint leaves; switches never source traffic. Both engines must
    // stay bit-identical under either up/down flavour.
    let mut pin = OutcomePin::new();
    for seed in [1, 2] {
        for rate in [0.003, 0.02] {
            let config = quick_topology(TopologySpec::fat_tree(4, 2), 2, 8, rate, seed);
            pin.equivalent_with(
                config.clone(),
                FaultSet::new(),
                AnyRouting::adaptive(Substrate::UpDown),
            );
            pin.equivalent_with(
                config,
                FaultSet::new(),
                AnyRouting::deterministic(Substrate::UpDown),
            );
        }
    }
    pin.assert_is(0x7a549c505e37c45f);
}

#[test]
fn fat_tree_switch_and_uplink_faults_match() {
    // A dead level-1 switch plus a dead leaf up-link force the re-ascent
    // path through alternate parents; the case runs sanitizer-audited on
    // both engines (conservation, quiescent faulty components) and must
    // stay bit-identical.
    let mut pin = OutcomePin::new();
    let net = AnyTopology::fat_tree_new(4, 2).unwrap();
    let ft = net.fat_tree().unwrap();
    let mut faults = FaultSet::new();
    faults.fail_node(ft.switch_id(1, 0));
    let leaf = ft.switch_id(0, 1);
    let (port, _) = ft.parents(leaf)[1];
    faults.fail_link(&net, leaf, port, Direction::Plus);
    assert!(faults.num_faulty_links() > 0);
    assert!(faults.preserves_connectivity(&net));
    let config = quick_topology(TopologySpec::fat_tree(4, 2), 2, 8, 0.01, 33);
    pin.equivalent_with(
        config,
        faults.clone(),
        AnyRouting::adaptive(Substrate::UpDown),
    );
    let config = quick_topology(TopologySpec::fat_tree(4, 2), 1, 8, 0.01, 34);
    pin.equivalent_with(config, faults, AnyRouting::deterministic(Substrate::UpDown));
    pin.assert_is(0xf416caf0d5e01157);
}

#[test]
fn fat_tree_minimum_vc_configurations_match() {
    // The up*/down* channel order alone is deadlock free: one VC suffices
    // for the deterministic flavour, two (1 escape + 1 adaptive) for the
    // adaptive one — on a deeper 2-ary 3-level tree.
    let mut pin = OutcomePin::new();
    let config = quick_topology(TopologySpec::fat_tree(2, 3), 1, 8, 0.01, 5);
    pin.equivalent_with(
        config,
        FaultSet::new(),
        AnyRouting::deterministic(Substrate::UpDown),
    );
    let config = quick_topology(TopologySpec::fat_tree(2, 3), 2, 8, 0.01, 6);
    pin.equivalent_with(
        config,
        FaultSet::new(),
        AnyRouting::adaptive(Substrate::UpDown),
    );
    pin.assert_is(0xd6e1ca222088e917);
}

#[test]
fn up_down_rejected_identically_by_both_engines_on_grids() {
    use torus_sim::SimConfigError;
    let config = quick_topology(TopologySpec::torus(4, 2), 2, 8, 0.003, 1);
    let active = Simulation::new(
        config.clone(),
        FaultSet::new(),
        AnyRouting::adaptive(Substrate::UpDown),
    )
    .err()
    .expect("active engine must reject up/down routing on a torus");
    let reference = ReferenceSimulation::new(
        config,
        FaultSet::new(),
        AnyRouting::deterministic(Substrate::UpDown),
    )
    .err()
    .expect("reference engine must reject up/down routing on a torus");
    assert!(matches!(active, SimConfigError::UnsupportedRouting { .. }));
    assert!(matches!(
        reference,
        SimConfigError::UnsupportedRouting { .. }
    ));
}

#[test]
fn turn_model_rejected_identically_by_both_engines_on_wrapped_dimensions() {
    use torus_sim::SimConfigError;
    for spec in [
        TopologySpec::torus(4, 2),
        TopologySpec::mixed(vec![4, 3], vec![true, false]),
    ] {
        let config = quick_topology(spec, 4, 8, 0.003, 1);
        let active = Simulation::new(
            config.clone(),
            FaultSet::new(),
            AnyRouting::adaptive(Substrate::Turn(TurnRule::NegativeFirst)),
        )
        .err()
        .expect("active engine must reject the turn model on wrapped dims");
        let reference = ReferenceSimulation::new(
            config,
            FaultSet::new(),
            AnyRouting::deterministic(Substrate::Turn(TurnRule::NegativeFirst)),
        )
        .err()
        .expect("reference engine must reject the turn model on wrapped dims");
        assert!(matches!(active, SimConfigError::UnsupportedRouting { .. }));
        assert!(matches!(
            reference,
            SimConfigError::UnsupportedRouting { .. }
        ));
    }
}

/// Seeded scheduling defect: [`FullScan`] with every worklist reversed, which
/// breaks the one ordering rule a [`Schedule`] must keep.
struct Descending(FullScan);

impl Schedule for Descending {
    type Messages = Vec<MessageState>;

    fn new(routers: &[RouterState], num_endpoints: usize) -> Self {
        Descending(FullScan::new(routers, num_endpoints))
    }

    fn due_sources(&mut self, now: u64, out: &mut Vec<usize>) {
        self.0.due_sources(now, out);
        out.reverse();
    }

    fn injecting(&self, out: &mut Vec<usize>) {
        self.0.injecting(out);
        out.reverse();
    }

    fn busy(&self, out: &mut Vec<usize>) {
        self.0.busy(out);
        out.reverse();
    }

    fn watchdog_due(&self, now: u64) -> bool {
        self.0.watchdog_due(now)
    }
}

#[test]
fn descending_worklists_are_caught_by_the_oracle() {
    let config = quick(4, 2, 4, 8, 0.02, 1);
    let algo = AnyRouting::adaptive(Substrate::DimensionOrder);
    let audit = Sanitizer::new(&config, &algo, None);
    let mut buggy =
        Engine::<_, Descending, _>::with_observer(config.clone(), FaultSet::new(), algo, audit)
            .unwrap();
    let mut reference = ReferenceSimulation::new(config, FaultSet::new(), algo).unwrap();
    let flagged = buggy.run().report != reference.run().report || !buggy.observer().is_clean();
    assert!(flagged, "a descending visit order went unnoticed");
}
