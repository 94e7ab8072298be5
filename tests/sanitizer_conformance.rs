//! Runtime-vs-static conformance: both simulation engines run under the
//! sanitizer with the **exact CDG** of the verifier attached, so every
//! observed wait-for dependency (held channel → requested channel) is
//! asserted online to be an edge of the statically extracted graph for the
//! same (topology, routing, VC, fault) case.
//!
//! Two seeded-bug mutation tests close the loop in the other direction: a
//! routing wrapper that skips the via-host absorption, and a routing run
//! against the exact CDG of a *different* turn model, must both be flagged
//! with a concrete `cdg-divergence` report — proving the check can actually
//! catch real protocol violations, not just vacuously pass.

use swbft::faults::{FaultRegion, FaultSet, RegionShape};
use swbft::routing::cdg::DependencyGraph;
use swbft::routing::{
    AnyRouting, RouteDecision, RouteHeader, RoutingAlgorithm, RoutingFlavor, RoutingTopologyError,
    Substrate, TurnRule,
};
use swbft::sim::{ReferenceSimulation, Sanitizer, SimConfig, Simulation, StopCondition};
use swbft::topology::{AnyTopology, Direction, NodeId, TopologySpec};
use swbft::verify::{extract_exact_cdg, Granularity};

/// A short, deterministic run: enough traffic to exercise absorption and
/// re-injection around faults, small enough to keep the suite fast.
fn quick(spec: &str, v: usize, rate: f64, seed: u64) -> SimConfig {
    let topology = TopologySpec::parse(spec).expect("valid spec");
    let mut c = SimConfig::paper_topology(topology, v, 8, rate).with_seed(seed);
    c.warmup_messages = 100;
    c.stop = StopCondition::MeasuredMessages(400);
    c.max_cycles = 200_000;
    c
}

/// Extracts the exact per-VC CDG of `algo` for the simulated case. The
/// sanitizer numbers runtime channels with the same `channel_id * v + vc`
/// scheme, so the graph can be consumed as-is.
fn exact_cdg<A: RoutingAlgorithm>(
    config: &SimConfig,
    algo: &A,
    faults: &FaultSet,
) -> DependencyGraph {
    let net = config.topology.build().expect("topology builds");
    extract_exact_cdg(
        &net,
        algo,
        faults,
        config.virtual_channels,
        Granularity::PerVc,
        1 << 20,
    )
    .expect("exact walk fits the budget")
    .graph
}

/// Runs both engines under a sanitizer enforcing `cdg` and returns the two
/// audits, active engine first.
fn run_both_with_cdg<A: RoutingAlgorithm + Clone>(
    config: SimConfig,
    faults: FaultSet,
    algo: A,
    cdg: DependencyGraph,
) -> [(&'static str, Sanitizer); 2] {
    let audit = Sanitizer::new(&config, &algo, Some(cdg));
    let mut a =
        Simulation::with_observer(config.clone(), faults.clone(), algo.clone(), audit.clone())
            .expect("valid config for the active engine");
    let mut r = ReferenceSimulation::with_observer(config, faults, algo, audit)
        .expect("valid config for the reference");
    a.run();
    r.run();
    [
        ("active", a.into_observer()),
        ("reference", r.into_observer()),
    ]
}

/// Asserts that a run of `algo` conforms to its own exact CDG on both
/// engines: a clean audit, with at least one dependency actually checked.
fn assert_conformant<A: RoutingAlgorithm + Clone>(config: SimConfig, faults: FaultSet, algo: A) {
    let name = algo.name();
    let cdg = exact_cdg(&config, &algo, &faults);
    for (engine, s) in run_both_with_cdg(config, faults, algo, cdg) {
        assert!(
            s.edges_checked() > 0,
            "{engine} engine under {name}: no wait-for dependencies were checked"
        );
        assert!(
            s.is_clean(),
            "{engine} engine under {name}: {} violation(s); first: {:?}",
            s.violation_count(),
            s.violations().first()
        );
    }
}

#[test]
fn fault_free_deterministic_conforms_on_torus_and_mesh() {
    for spec in ["torus:4x2", "mesh:4x2"] {
        assert_conformant(
            quick(spec, 2, 0.01, 11),
            FaultSet::new(),
            AnyRouting::deterministic(Substrate::DimensionOrder),
        );
    }
}

#[test]
fn node_faulted_deterministic_conforms() {
    // A central faulty node forces absorptions, software re-injection and
    // misrouted via chains — the paths whose dependencies are easiest to get
    // wrong.
    let mut faults = FaultSet::new();
    faults.fail_node(NodeId(5));
    assert_conformant(
        quick("mesh:4x2", 2, 0.01, 12),
        faults,
        AnyRouting::deterministic(Substrate::DimensionOrder),
    );
}

#[test]
fn link_faulted_deterministic_conforms() {
    let config = quick("torus:4x2", 2, 0.01, 13);
    let net = config.topology.build().expect("topology builds");
    let mut faults = FaultSet::new();
    faults.fail_link(&net, NodeId(3), 0, Direction::Plus);
    assert!(faults.num_faulty_links() > 0);
    assert_conformant(
        config,
        faults,
        AnyRouting::deterministic(Substrate::DimensionOrder),
    );
}

#[test]
fn region_faulted_deterministic_conforms() {
    let config = quick("mesh:4x2", 2, 0.01, 14);
    let net = config.topology.build().expect("topology builds");
    let shape = RegionShape::LShape {
        vertical: 2,
        horizontal: 2,
    };
    let grid = net.grid().expect("mesh specs build grids");
    let faults = FaultRegion::in_default_plane(grid, shape, &[1, 1])
        .expect("region placement is valid")
        .to_fault_set(grid)
        .expect("region realises");
    assert!(faults.num_faulty_nodes() == 3);
    assert_conformant(
        config,
        faults,
        AnyRouting::deterministic(Substrate::DimensionOrder),
    );
}

#[test]
fn north_last_turn_model_conforms_on_meshes() {
    for (spec, seed) in [("mesh:4x2", 15), ("mesh:3x3", 16)] {
        assert_conformant(
            quick(spec, 1, 0.01, seed),
            FaultSet::new(),
            AnyRouting::deterministic(Substrate::Turn(TurnRule::NorthLast)),
        );
    }
}

#[test]
fn adaptive_escape_allocations_conform() {
    // Under the adaptive flavour only escape-channel grabs are tracked (the
    // adaptive layer is allowed arbitrary dependencies by Duato's protocol);
    // those grabs must still stay inside the exact relation's edge set.
    let mut faults = FaultSet::new();
    faults.fail_node(NodeId(3));
    // Congestion high enough that escape channels actually get used.
    let config = quick("torus:4x2", 3, 0.05, 17);
    let algo = AnyRouting::adaptive(Substrate::DimensionOrder);
    let cdg = exact_cdg(&config, &algo, &faults);
    for (engine, s) in run_both_with_cdg(config, faults, algo, cdg) {
        assert!(
            s.is_clean(),
            "{engine} engine (adaptive): {} violation(s); first: {:?}",
            s.violation_count(),
            s.violations().first()
        );
    }
}

/// Seeded bug #1: a wrapper that, at an intermediate via host, retargets the
/// message **in flight** instead of returning the `Absorb` the Software-Based
/// scheme mandates. The worm keeps every channel it holds across the
/// retarget, chaining dependencies (e.g. a high dimension back into a low
/// one) that the correct algorithm's exact CDG — where absorption releases
/// everything — cannot contain.
#[derive(Clone)]
struct SkipViaHostAbsorb(AnyRouting);

impl RoutingAlgorithm for SkipViaHostAbsorb {
    fn flavor(&self) -> RoutingFlavor {
        self.0.flavor()
    }

    fn min_virtual_channels(&self, net: &AnyTopology) -> usize {
        self.0.min_virtual_channels(net)
    }

    fn supported_on(&self, net: &AnyTopology) -> Result<(), RoutingTopologyError> {
        self.0.supported_on(net)
    }

    fn deterministic_output(
        &self,
        net: &AnyTopology,
        header: &RouteHeader,
        current: NodeId,
    ) -> Option<(usize, Direction)> {
        self.0.deterministic_output(net, header, current)
    }

    fn make_header(&self, net: &AnyTopology, src: NodeId, dest: NodeId) -> RouteHeader {
        self.0.make_header(net, src, dest)
    }

    fn route(
        &self,
        net: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        current: NodeId,
        v: usize,
    ) -> RouteDecision {
        // BUG: pop reached via targets without absorbing.
        while current == header.target() {
            if header.advance_target(current) {
                return RouteDecision::Deliver;
            }
        }
        self.0.route(net, faults, header, current, v)
    }

    fn note_hop(
        &self,
        net: &AnyTopology,
        header: &mut RouteHeader,
        from: NodeId,
        dim: usize,
        dir: Direction,
    ) {
        self.0.note_hop(net, header, from, dim, dir);
    }

    fn reroute_on_fault(
        &self,
        net: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        at: NodeId,
        blocked: (usize, Direction),
    ) -> bool {
        self.0.reroute_on_fault(net, faults, header, at, blocked)
    }

    fn name(&self) -> String {
        "skip-via-absorb".to_string()
    }
}

/// Asserts that at least one engine reported a `cdg-divergence` whose detail
/// carries the concrete (cycle, message, held, requested) context.
fn assert_divergence_flagged(audits: [(&'static str, Sanitizer); 2], what: &str) {
    let mut flagged = false;
    for (_, s) in &audits {
        if let Some(v) = s.violations().iter().find(|v| v.kind == "cdg-divergence") {
            flagged = true;
            assert!(
                v.detail.contains("not an edge of the exact CDG"),
                "{what}: divergence report missing the edge context: {}",
                v.detail
            );
        }
    }
    assert!(
        flagged,
        "{what}: the sanitizer failed to flag the seeded bug"
    );
}

#[test]
fn skipping_the_via_host_absorb_is_caught_as_cdg_divergence() {
    let correct = AnyRouting::deterministic(Substrate::DimensionOrder);
    let buggy = SkipViaHostAbsorb(correct);
    let mut faults = FaultSet::new();
    faults.fail_node(NodeId(5));
    let config = quick("mesh:4x2", 2, 0.01, 18);
    // The reference graph is the CORRECT algorithm's exact CDG: the bug does
    // not change which channels exist, only which dependencies the worm may
    // chain through a via host.
    let cdg = exact_cdg(&config, &correct, &faults);
    let audits = run_both_with_cdg(config, faults, buggy, cdg);
    assert_divergence_flagged(audits, "skip-via-absorb");
}

#[test]
fn forbidden_turn_dependency_is_caught_as_cdg_divergence() {
    // Mutation test: run north-last routing while asserting against the
    // negative-first exact CDG. North-last takes positive-then-negative turns
    // that negative-first forbids, so the first such turn held across two
    // channels must be reported as a divergence.
    let config = quick("mesh:4x2", 1, 0.02, 19);
    let faults = FaultSet::new();
    let negative_first = AnyRouting::deterministic(Substrate::Turn(TurnRule::NegativeFirst));
    let cdg = exact_cdg(&config, &negative_first, &faults);
    let audits = run_both_with_cdg(
        config,
        faults,
        AnyRouting::deterministic(Substrate::Turn(TurnRule::NorthLast)),
        cdg,
    );
    assert_divergence_flagged(audits, "forbidden-turn mutation");
}
