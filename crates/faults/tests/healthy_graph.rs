//! Property-based tests of the healthy-subgraph queries on arbitrary grid
//! shapes (tori, meshes, hypercubes, mixed wraps) and small fat-trees.

use proptest::prelude::*;
use torus_faults::FaultSet;
use torus_topology::{AnyTopology, Network};

/// A grid of 1..=3 dimensions with radices 2..10 and independent wrap
/// flags, or a k-ary l-level fat-tree with k in 2..5 and l in 1..4.
fn arb_topology() -> impl Strategy<Value = AnyTopology> {
    (
        1usize..=3,
        (2u16..10, 2u16..10, 2u16..10),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        (2u16..5, 1u32..4, any::<bool>()),
    )
        .prop_map(|(n, (k0, k1, k2), (w0, w1, w2), (k, l, tree))| {
            if tree {
                AnyTopology::fat_tree_new(k, l).unwrap()
            } else {
                let radices = [k0, k1, k2][..n].to_vec();
                let wraps = [w0, w1, w2][..n].to_vec();
                Network::new(radices, wraps).unwrap().into()
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Without faults the healthy subgraph is the whole network: connected,
    /// with BFS distances and shortest paths as long as the topology's
    /// minimal distance.
    #[test]
    fn fault_free_healthy_graph_is_the_network(net in arb_topology(), raw in 0u32..10_000) {
        let none = FaultSet::new();
        prop_assert!(none.preserves_connectivity(&net));
        let src = torus_topology::NodeId(raw % net.num_nodes() as u32);
        let dist = none.bfs_distances(&net, src);
        for dest in net.nodes() {
            prop_assert_eq!(dist[dest.index()], Some(net.distance(src, dest)));
            let path = none.shortest_path(&net, src, dest).unwrap();
            prop_assert!(path.is_well_formed(&net));
            prop_assert_eq!(path.len() as u32, net.distance(src, dest));
        }
    }
}
