//! Property-based integration tests: for randomly drawn topologies, fault
//! placements and traffic parameters, the Software-Based routing scheme must
//! deliver every message, never trigger the deadlock watchdog, and never
//! drop a message while the healthy subgraph stays connected.

use proptest::prelude::*;
use swbft::faults::FaultSet;
use swbft::routing::{AnyRouting, RouteDecision, RoutingAlgorithm, Substrate};
use swbft::sim::{SimConfig, Simulation, StopCondition};
use swbft::topology::{AnyTopology, NodeId, TopologySpec};

/// Walks a single message from `src` to `dest` through a faulty network using
/// the full software loop (route → absorb → re-route → re-inject), mirroring
/// what the simulator does, and returns the number of absorptions.
/// Panics if the message fails to arrive within a generous hop budget.
fn deliver_one_message(
    net: &AnyTopology,
    faults: &FaultSet,
    algo: &AnyRouting,
    src: NodeId,
    dest: NodeId,
) -> u32 {
    let mut header = algo.make_header(net, src, dest);
    let mut current = src;
    let mut steps = 0usize;
    let budget = net.num_nodes() * 16 + 64;
    loop {
        steps += 1;
        assert!(
            steps < budget,
            "message from {src:?} to {dest:?} did not arrive within {budget} steps"
        );
        match algo.route(net, faults, &mut header, current, 6) {
            RouteDecision::Deliver => {
                assert_eq!(current, dest);
                return header.absorptions;
            }
            RouteDecision::Forward(cands) => {
                let c = &cands[0];
                algo.note_hop(net, &mut header, current, c.dim(), c.dir());
                current = net
                    .neighbor(current, c.dim(), c.dir())
                    .expect("forwarded over an existing channel");
                assert!(
                    !faults.is_node_faulty(current),
                    "routing forwarded into a faulty node"
                );
            }
            RouteDecision::Absorb => {
                let grid = net.grid().expect("this property only draws grids");
                let blocked = swbft::routing::ecube::ecube_output(grid, &header, current)
                    .unwrap_or((0, swbft::topology::Direction::Plus));
                assert!(
                    algo.reroute_on_fault(net, faults, &mut header, current, blocked),
                    "software layer failed to re-route in a connected network"
                );
                header.reset_for_injection();
            }
        }
    }
}

fn arb_topology() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        (4u16..=8, Just(2u32)).prop_map(|(k, n)| TopologySpec::torus(k, n)),
        (3u16..=5, Just(3u32)).prop_map(|(k, n)| TopologySpec::torus(k, n)),
        Just(TopologySpec::torus(3, 4)),
        (4u16..=8, Just(2u32)).prop_map(|(k, n)| TopologySpec::mesh(k, n)),
        (3u16..=4, Just(3u32)).prop_map(|(k, n)| TopologySpec::mesh(k, n)),
        (4u32..=6).prop_map(TopologySpec::hypercube),
        Just(TopologySpec::mixed(vec![6, 4, 3], vec![true, false, true])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every (source, destination) pair between healthy nodes is deliverable
    /// under random connectivity-preserving fault placements, for both
    /// flavours of the algorithm.
    #[test]
    fn every_message_is_deliverable(
        spec in arb_topology(),
        nf in 0usize..8,
        seed in any::<u64>(),
        adaptive in any::<bool>(),
    ) {
        let net = spec.build().unwrap();
        let nf = nf.min(net.num_nodes() / 8);
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        // Random fault placement can fail to preserve connectivity on sparse
        // meshes; retry with fewer faults in that case.
        let faults = (0..=nf)
            .rev()
            .find_map(|n| swbft::faults::random_node_faults(&net, n, &mut rng).ok())
            .expect("nf = 0 always succeeds");
        let algo = if adaptive {
            AnyRouting::adaptive(Substrate::DimensionOrder)
        } else {
            AnyRouting::deterministic(Substrate::DimensionOrder)
        };
        // Sample a handful of healthy pairs rather than all N^2.
        let healthy: Vec<NodeId> = faults.healthy_nodes(&net).collect();
        prop_assume!(healthy.len() >= 2);
        for i in 0..healthy.len().min(12) {
            let src = healthy[(i * 7) % healthy.len()];
            let dest = healthy[(i * 13 + 5) % healthy.len()];
            if src != dest {
                deliver_one_message(&net, &faults, &algo, src, dest);
            }
        }
    }

    /// Short full-simulator runs never drop messages, never trigger the stall
    /// watchdog, and account for every generated message.
    #[test]
    fn short_simulations_conserve_messages(
        nf in 0usize..6,
        seed in any::<u64>(),
        adaptive in any::<bool>(),
        mesh in any::<bool>(),
    ) {
        let spec = if mesh {
            TopologySpec::mesh(6, 2)
        } else {
            TopologySpec::torus(6, 2)
        };
        let net = spec.clone().build().unwrap();
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let faults = (0..=nf)
            .rev()
            .find_map(|n| swbft::faults::random_node_faults(&net, n, &mut rng).ok())
            .expect("nf = 0 always succeeds");
        let had_faults = faults.num_faulty_nodes() > 0;
        let mut cfg = SimConfig::paper_topology(spec, 4, 8, 0.01);
        cfg.seed = seed;
        cfg.warmup_messages = 50;
        cfg.stop = StopCondition::MeasuredMessages(300);
        cfg.max_cycles = 60_000;
        let algo = if adaptive {
            AnyRouting::adaptive(Substrate::DimensionOrder)
        } else {
            AnyRouting::deterministic(Substrate::DimensionOrder)
        };
        let mut sim = Simulation::new(cfg, faults, algo).unwrap();
        let out = sim.run();
        prop_assert_eq!(out.dropped_messages, 0);
        prop_assert_eq!(out.forced_absorptions, 0);
        prop_assert!(!out.hit_max_cycles);
        // Conservation: generated = delivered + still in flight.
        prop_assert_eq!(
            out.report.generated_messages,
            out.report.delivered_messages + out.report.in_flight_messages
        );
        if !had_faults {
            prop_assert_eq!(out.report.messages_queued, 0);
        }
    }

    /// The latency of every delivered message is at least its serialisation
    /// bound (length + hops) and the mean reflects that.
    #[test]
    fn latency_respects_serialisation_bound(seed in any::<u64>()) {
        let mut cfg = SimConfig::paper(4, 2, 4, 12, 0.01);
        cfg.seed = seed;
        cfg.warmup_messages = 0;
        cfg.stop = StopCondition::MeasuredMessages(200);
        let mut sim = Simulation::new(cfg, FaultSet::new(), AnyRouting::deterministic(Substrate::DimensionOrder)).unwrap();
        let out = sim.run();
        prop_assert!(out.report.mean_latency >= 12.0);
        prop_assert!(out.report.mean_hops >= 1.0);
    }
}
