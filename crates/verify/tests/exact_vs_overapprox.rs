//! Property-based bridge between the two CDG constructions: the exact graph
//! extracted from the deterministic turn-model routing relation must be a
//! subgraph of `build_turn_cdg`'s over-approximation (which admits every
//! rule-legal turn, minimal or not) on every open shape — and both must be
//! acyclic there.

use proptest::prelude::*;
use swbft_verify::{extract_exact_cdg, Granularity};
use torus_faults::FaultSet;
use torus_routing::cdg::{build_turn_cdg, TurnRule};
use torus_routing::{AnyRouting, Substrate};
use torus_topology::{AnyTopology, Direction, Network, NodeId};

/// Random open shapes: 1..=3 dimensions with mixed radices, no wraps.
fn arb_mesh() -> impl Strategy<Value = AnyTopology> {
    (1usize..=3, (2u16..5, 2u16..5, 2u16..4)).prop_map(|(n, (k0, k1, k2))| {
        let radices = [k0, k1, k2][..n].to_vec();
        Network::new(radices, vec![false; n]).unwrap().into()
    })
}

fn rules() -> Vec<(TurnRule, AnyRouting)> {
    vec![
        (
            TurnRule::NegativeFirst,
            AnyRouting::deterministic(Substrate::Turn(TurnRule::NegativeFirst)),
        ),
        (
            TurnRule::WestFirst,
            AnyRouting::deterministic(Substrate::Turn(TurnRule::WestFirst)),
        ),
        (
            TurnRule::NorthLast,
            AnyRouting::deterministic(Substrate::Turn(TurnRule::NorthLast)),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every dependency the real deterministic turn-model routing can create
    /// is predicted by the hand-derived turn CDG, and the exact graph is
    /// acyclic wherever the over-approximation is.
    #[test]
    fn exact_turn_cdg_is_a_subgraph_of_the_over_approximation(net in arb_mesh()) {
        for (rule, algo) in rules() {
            let exact = extract_exact_cdg(
                &net,
                &algo,
                &FaultSet::new(),
                1,
                Granularity::PerChannel,
                1 << 20,
            )
            .expect("open-shape walks are tiny");
            let over = build_turn_cdg(&net, Some(rule));
            prop_assert_eq!(exact.graph.num_vertices(), over.num_vertices());
            for (from, to) in exact.graph.iter_edges() {
                prop_assert!(
                    over.has_edge(from, to),
                    "exact edge {}->{} missing from the {:?} over-approximation on {}",
                    from, to, rule, net
                );
            }
            prop_assert!(over.is_acyclic(), "{:?} over-approximation on {}", rule, net);
            prop_assert!(exact.graph.find_cycle().is_none());
            // On shapes with more than one node the relation is non-trivial.
            if net.num_nodes() > 2 {
                prop_assert!(exact.graph.num_edges() <= over.num_edges());
            }
        }
    }

    /// Faults only remove behaviour: under any connectivity-preserving
    /// single link fault, the exact CDG of the rerouted relation is still a
    /// subgraph of the fault-free over-approximation (the turn rules keep
    /// holding), and still acyclic.
    #[test]
    fn link_fault_exact_cdg_stays_a_subgraph(net in arb_mesh(), pick in 0usize..1024) {
        let n = net.num_nodes();
        let node = NodeId(u32::try_from(pick % n).unwrap());
        let dim = (pick / n) % net.dims();
        let dir = if (pick / (n * net.dims())).is_multiple_of(2) {
            Direction::Plus
        } else {
            Direction::Minus
        };
        let mut faults = FaultSet::new();
        faults.fail_link(&net, node, dim, dir);
        prop_assume!(faults.num_faulty_links() > 0);
        prop_assume!(faults.preserves_connectivity(&net));
        for (rule, algo) in rules() {
            let exact = extract_exact_cdg(
                &net,
                &algo,
                &faults,
                1,
                Granularity::PerChannel,
                1 << 20,
            )
            .expect("open-shape walks are tiny");
            let over = build_turn_cdg(&net, Some(rule));
            for (from, to) in exact.graph.iter_edges() {
                prop_assert!(
                    over.has_edge(from, to),
                    "link-faulted exact edge {}->{} missing from the {:?} \
                     over-approximation on {}",
                    from, to, rule, net
                );
            }
            prop_assert!(
                exact.graph.find_cycle().is_none(),
                "{:?} exact CDG under a link fault on {}", rule, net
            );
        }
    }
}
