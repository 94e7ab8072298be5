//! Graph queries over the healthy (non-faulty) subgraph of the network.
//!
//! The fault model (assumption (h) of the paper) requires that faults never
//! disconnect the network; the software re-routing layer additionally needs to
//! compute fault-free detour paths when the simple table-driven rules run out
//! of options. Both needs are served by [`HealthyGraph`], a thin view over any
//! [`Topology`] plus a predicate marking nodes/channels unusable.

use crate::channel::DirectedChannel;
use crate::coords::NodeId;
use crate::path::Path;
use crate::topo::Topology;
use std::collections::VecDeque;

/// Predicate describing which nodes and channels are unusable (faulty).
pub trait NodeFilter {
    /// True if the node is faulty / unusable.
    fn node_blocked(&self, node: NodeId) -> bool;

    /// True if the channel is faulty / unusable. The default implementation
    /// blocks a channel iff either endpoint is blocked; channels that do not
    /// physically exist (mesh edges, absent fat-tree ports) are always
    /// blocked.
    fn channel_blocked<T: Topology + ?Sized>(&self, net: &T, ch: DirectedChannel) -> bool {
        match net.channel_dest(ch) {
            Some(to) => self.node_blocked(ch.from) || self.node_blocked(to),
            None => true,
        }
    }
}

/// A filter that blocks nothing — the fault-free network.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl NodeFilter for NoFaults {
    fn node_blocked(&self, _node: NodeId) -> bool {
        false
    }
}

impl<F: Fn(NodeId) -> bool> NodeFilter for F {
    fn node_blocked(&self, node: NodeId) -> bool {
        self(node)
    }
}

/// A view of the network restricted to healthy nodes and channels.
pub struct HealthyGraph<'a, T: Topology + ?Sized, F: NodeFilter> {
    net: &'a T,
    filter: &'a F,
}

impl<'a, T: Topology + ?Sized, F: NodeFilter> HealthyGraph<'a, T, F> {
    /// Creates the healthy-subgraph view.
    pub fn new(net: &'a T, filter: &'a F) -> Self {
        HealthyGraph { net, filter }
    }

    /// The underlying topology.
    pub fn network(&self) -> &T {
        self.net
    }

    /// Healthy neighbours reachable over healthy channels.
    pub fn healthy_neighbors(&self, node: NodeId) -> Vec<(DirectedChannel, NodeId)> {
        self.net
            .neighbors(node)
            .into_iter()
            .filter(|(ch, next)| {
                !self.filter.node_blocked(*next) && !self.filter.channel_blocked(self.net, *ch)
            })
            .collect()
    }

    /// Iterator over every node id of the underlying topology.
    fn all_nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.net.num_nodes()).map(NodeId::from_index)
    }

    /// Number of healthy nodes.
    pub fn healthy_node_count(&self) -> usize {
        self.all_nodes()
            .filter(|n| !self.filter.node_blocked(*n))
            .count()
    }

    /// Breadth-first search from `start`, returning for every node its hop
    /// distance through the healthy subgraph (`None` if unreachable or
    /// blocked).
    pub fn bfs_distances(&self, start: NodeId) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.net.num_nodes()];
        if self.filter.node_blocked(start) {
            return dist;
        }
        let mut queue = VecDeque::new();
        dist[start.index()] = Some(0);
        queue.push_back(start);
        while let Some(cur) = queue.pop_front() {
            let d = dist[cur.index()].unwrap();
            for (_, next) in self.healthy_neighbors(cur) {
                if dist[next.index()].is_none() {
                    dist[next.index()] = Some(d + 1);
                    queue.push_back(next);
                }
            }
        }
        dist
    }

    /// True if every healthy node can reach every other healthy node through
    /// healthy channels (the paper's assumption (h): "faults do not disconnect
    /// the network").
    pub fn is_connected(&self) -> bool {
        let Some(start) = self.all_nodes().find(|n| !self.filter.node_blocked(*n)) else {
            // no healthy nodes at all: vacuously connected
            return true;
        };
        let dist = self.bfs_distances(start);
        self.all_nodes()
            .filter(|n| !self.filter.node_blocked(*n))
            .all(|n| dist[n.index()].is_some())
    }

    /// Shortest fault-free path from `src` to `dest` (BFS), or `None` when no
    /// such path exists or either endpoint is blocked.
    pub fn shortest_path(&self, src: NodeId, dest: NodeId) -> Option<Path> {
        if self.filter.node_blocked(src) || self.filter.node_blocked(dest) {
            return None;
        }
        if src == dest {
            return Some(Path {
                src,
                dest,
                hops: Vec::new(),
            });
        }
        let mut prev: Vec<Option<DirectedChannel>> = vec![None; self.net.num_nodes()];
        let mut seen = vec![false; self.net.num_nodes()];
        let mut queue = VecDeque::new();
        seen[src.index()] = true;
        queue.push_back(src);
        'search: while let Some(cur) = queue.pop_front() {
            for (ch, next) in self.healthy_neighbors(cur) {
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    prev[next.index()] = Some(ch);
                    if next == dest {
                        break 'search;
                    }
                    queue.push_back(next);
                }
            }
        }
        if !seen[dest.index()] {
            return None;
        }
        // Reconstruct hops back from dest.
        let mut hops = Vec::new();
        let mut cur = dest;
        while cur != src {
            let ch = prev[cur.index()].expect("breadcrumb must exist on reconstructed path");
            hops.push(ch);
            cur = ch.from;
        }
        hops.reverse();
        Some(Path { src, dest, hops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use std::collections::HashSet;

    struct Blocked(HashSet<NodeId>);

    impl NodeFilter for Blocked {
        fn node_blocked(&self, node: NodeId) -> bool {
            self.0.contains(&node)
        }
    }

    #[test]
    fn fault_free_network_is_connected() {
        for net in [
            Network::torus(8, 2).unwrap(),
            Network::mesh(8, 2).unwrap(),
            Network::hypercube(6).unwrap(),
        ] {
            let f = NoFaults;
            let g = HealthyGraph::new(&net, &f);
            assert!(g.is_connected());
            assert_eq!(g.healthy_node_count(), 64);
        }
    }

    #[test]
    fn bfs_distance_equals_network_distance_without_faults() {
        for net in [Network::torus(6, 2).unwrap(), Network::mesh(6, 2).unwrap()] {
            let f = NoFaults;
            let g = HealthyGraph::new(&net, &f);
            let src = net.node_from_digits(&[0, 0]).unwrap();
            let dist = g.bfs_distances(src);
            for node in net.nodes() {
                assert_eq!(dist[node.index()], Some(net.distance(src, node)));
            }
        }
    }

    #[test]
    fn blocked_nodes_are_unreachable() {
        let t = Network::torus(4, 2).unwrap();
        let blocked = Blocked(HashSet::from([t.node_from_digits(&[1, 1]).unwrap()]));
        let g = HealthyGraph::new(&t, &blocked);
        let dist = g.bfs_distances(t.node_from_digits(&[0, 0]).unwrap());
        assert_eq!(dist[t.node_from_digits(&[1, 1]).unwrap().index()], None);
        assert!(g.is_connected());
    }

    #[test]
    fn disconnection_is_detected() {
        // On a 4x1 ring, blocking two opposite nodes splits the ring.
        let t = Network::torus(4, 1).unwrap();
        let blocked = Blocked(HashSet::from([
            t.node_from_digits(&[0]).unwrap(),
            t.node_from_digits(&[2]).unwrap(),
        ]));
        let g = HealthyGraph::new(&t, &blocked);
        assert!(!g.is_connected());
        // On a 4x1 open line, blocking *one* interior node already splits it
        // (there is no wrap-around to route behind the fault).
        let m = Network::mesh(4, 1).unwrap();
        let blocked = Blocked(HashSet::from([m.node_from_digits(&[1]).unwrap()]));
        let g = HealthyGraph::new(&m, &blocked);
        assert!(!g.is_connected());
    }

    #[test]
    fn shortest_path_detours_around_faults() {
        let t = Network::torus(8, 2).unwrap();
        let src = t.node_from_digits(&[0, 0]).unwrap();
        let dest = t.node_from_digits(&[3, 0]).unwrap();
        // Block the straight line between them.
        let blocked = Blocked(HashSet::from([
            t.node_from_digits(&[1, 0]).unwrap(),
            t.node_from_digits(&[2, 0]).unwrap(),
        ]));
        let g = HealthyGraph::new(&t, &blocked);
        let p = g.shortest_path(src, dest).unwrap();
        assert!(p.is_well_formed(&t));
        assert!(p.len() > t.distance(src, dest) as usize);
        for node in p.nodes(&t) {
            assert!(!blocked.node_blocked(node));
        }
    }

    #[test]
    fn mesh_detours_stay_inside_the_grid() {
        let m = Network::mesh(8, 2).unwrap();
        let src = m.node_from_digits(&[0, 0]).unwrap();
        let dest = m.node_from_digits(&[3, 0]).unwrap();
        let blocked = Blocked(HashSet::from([
            m.node_from_digits(&[1, 0]).unwrap(),
            m.node_from_digits(&[2, 0]).unwrap(),
        ]));
        let g = HealthyGraph::new(&m, &blocked);
        let p = g.shortest_path(src, dest).unwrap();
        assert!(p.is_well_formed(&m));
        for node in p.nodes(&m) {
            assert!(!blocked.node_blocked(node));
        }
    }

    #[test]
    fn shortest_path_trivial_and_unreachable() {
        let t = Network::torus(4, 2).unwrap();
        let f = NoFaults;
        let g = HealthyGraph::new(&t, &f);
        let a = t.node_from_digits(&[1, 2]).unwrap();
        assert_eq!(g.shortest_path(a, a).unwrap().len(), 0);

        let blocked = Blocked(HashSet::from([a]));
        let g = HealthyGraph::new(&t, &blocked);
        assert!(g
            .shortest_path(a, t.node_from_digits(&[0, 0]).unwrap())
            .is_none());
    }

    #[test]
    fn fat_tree_connectivity_and_detours() {
        use crate::fattree::{FatTree, FatTreeNode};
        let ft = FatTree::new(4, 2).unwrap();
        let f = NoFaults;
        let g = HealthyGraph::new(&ft, &f);
        assert!(g.is_connected());
        assert_eq!(g.healthy_node_count(), ft.num_nodes());
        // Endpoint-to-endpoint BFS distance matches the closed-form distance.
        for a in ft.endpoints().take(4) {
            let dist = g.bfs_distances(a);
            for b in ft.endpoints() {
                assert_eq!(dist[b.index()], Some(ft.distance(a, b)));
            }
        }
        // Killing one level-1 (top) switch leaves the tree connected; the
        // shortest path between endpoints in different subtrees detours
        // through a sibling top switch.
        let top = ft.switch_id(1, 0);
        let blocked = move |n: NodeId| n == top;
        let g = HealthyGraph::new(&ft, &blocked);
        assert!(g.is_connected());
        let a = NodeId::from(0u32);
        let b = NodeId::from(5u32);
        let p = g.shortest_path(a, b).expect("detour must exist");
        assert!(p.is_well_formed(&ft));
        assert_eq!(p.len() as u32, ft.distance(a, b));
        assert!(p.nodes(&ft).iter().all(|n| *n != top));
        // Killing a leaf switch disconnects its endpoints: single point of
        // failure at level 0.
        let leaf = ft.switch_id(0, 0);
        assert!(matches!(
            ft.classify(leaf),
            FatTreeNode::Switch { level: 0, .. }
        ));
        let blocked = move |n: NodeId| n == leaf;
        let g = HealthyGraph::new(&ft, &blocked);
        assert!(!g.is_connected());
    }

    #[test]
    fn closure_filter_works() {
        let t = Network::torus(4, 2).unwrap();
        let bad = t.node_from_digits(&[3, 3]).unwrap();
        let filter = move |n: NodeId| n == bad;
        let g = HealthyGraph::new(&t, &filter);
        assert_eq!(g.healthy_node_count(), 15);
    }
}
