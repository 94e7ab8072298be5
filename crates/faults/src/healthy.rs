//! Queries over the healthy subgraph: the nodes a [`FaultSet`] leaves
//! alive and the channels it leaves usable.
//!
//! The fault model (assumption (h) of the paper) requires that faults never
//! disconnect the network, and the software re-routing layer (rule 3)
//! installs a shortest fault-free path when the table-driven rules run out
//! of options. Both are breadth-first searches over
//! [`FaultSet::is_channel_faulty`], visiting a node's neighbours in port
//! order (dimension ascending, `Plus` before `Minus`), so a detour is a
//! function of the fault set and the topology alone.

use crate::model::FaultSet;
use std::collections::VecDeque;
use torus_topology::{AnyTopology, DirectedChannel, NodeId, Path};

impl FaultSet {
    /// Healthy nodes of the network, in id order.
    pub fn healthy_nodes<'a>(&'a self, net: &'a AnyTopology) -> impl Iterator<Item = NodeId> + 'a {
        net.nodes().filter(move |&n| !self.is_node_faulty(n))
    }

    /// The neighbours of `node` over usable channels, in port order.
    fn healthy_neighbors<'a>(
        &'a self,
        net: &'a AnyTopology,
        node: NodeId,
    ) -> impl Iterator<Item = (DirectedChannel, NodeId)> + 'a {
        net.neighbors(node)
            .filter(move |&(ch, _)| !self.is_channel_faulty(net, ch))
    }

    /// Hop distance from `start` to every node through the healthy subgraph
    /// (`None` if unreachable or faulty).
    pub fn bfs_distances(&self, net: &AnyTopology, start: NodeId) -> Vec<Option<u32>> {
        let mut dist = vec![None; net.num_nodes()];
        if self.is_node_faulty(start) {
            return dist;
        }
        let mut queue = VecDeque::from([start]);
        dist[start.index()] = Some(0);
        while let Some(cur) = queue.pop_front() {
            let d = dist[cur.index()].map(|d| d + 1);
            for (_, next) in self.healthy_neighbors(net, cur) {
                if dist[next.index()].is_none() {
                    dist[next.index()] = d;
                    queue.push_back(next);
                }
            }
        }
        dist
    }

    /// True if all healthy nodes remain mutually reachable over usable
    /// channels (the paper's assumption (h): "faults do not disconnect the
    /// network"). A network without healthy nodes is vacuously connected.
    pub fn preserves_connectivity(&self, net: &AnyTopology) -> bool {
        let Some(start) = self.healthy_nodes(net).next() else {
            return true;
        };
        let dist = self.bfs_distances(net, start);
        self.healthy_nodes(net).all(|n| dist[n.index()].is_some())
    }

    /// Shortest fault-free path from `src` to `dest`, or `None` when no such
    /// path exists or either end is faulty. Among equally short paths it
    /// takes the one whose hops come first in port order.
    pub fn shortest_path(&self, net: &AnyTopology, src: NodeId, dest: NodeId) -> Option<Path> {
        if self.is_node_faulty(src) || self.is_node_faulty(dest) {
            return None;
        }
        if src == dest {
            return Some(Path {
                src,
                dest,
                hops: Vec::new(),
            });
        }
        let mut prev: Vec<Option<DirectedChannel>> = vec![None; net.num_nodes()];
        let mut seen = vec![false; net.num_nodes()];
        let mut queue = VecDeque::from([src]);
        seen[src.index()] = true;
        'search: while let Some(cur) = queue.pop_front() {
            for (ch, next) in self.healthy_neighbors(net, cur) {
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
    use torus_topology::{Direction, FatTreeNode};

    fn node(net: &AnyTopology, digits: &[u16]) -> NodeId {
        net.grid().unwrap().node_from_digits(digits).unwrap()
    }

    fn failing(nodes: impl IntoIterator<Item = NodeId>) -> FaultSet {
        let mut f = FaultSet::new();
        f.fail_nodes(nodes);
        f
    }

    #[test]
    fn fault_free_network_is_connected() {
        for net in [
            AnyTopology::torus(8, 2).unwrap(),
            AnyTopology::mesh(8, 2).unwrap(),
            AnyTopology::hypercube(6).unwrap(),
        ] {
            let f = FaultSet::new();
            assert!(f.preserves_connectivity(&net));
            assert_eq!(f.healthy_nodes(&net).count(), 64);
        }
    }

    #[test]
    fn bfs_distance_equals_network_distance_without_faults() {
        for net in [
            AnyTopology::torus(6, 2).unwrap(),
            AnyTopology::mesh(6, 2).unwrap(),
        ] {
            let src = node(&net, &[0, 0]);
            let dist = FaultSet::new().bfs_distances(&net, src);
            for n in net.nodes() {
                assert_eq!(dist[n.index()], Some(net.distance(src, n)));
            }
        }
    }

    #[test]
    fn faulty_nodes_are_unreachable() {
        let t = AnyTopology::torus(4, 2).unwrap();
        let f = failing([node(&t, &[1, 1])]);
        let dist = f.bfs_distances(&t, node(&t, &[0, 0]));
        assert_eq!(dist[node(&t, &[1, 1]).index()], None);
        assert!(f.preserves_connectivity(&t));
        assert_eq!(f.healthy_nodes(&t).count(), 15);
    }

    #[test]
    fn disconnection_is_detected() {
        // On a 4x1 ring, failing two opposite nodes splits the ring; on a
        // 2-D torus a single faulty node never disconnects.
        let ring = AnyTopology::torus(4, 1).unwrap();
        let f = failing([node(&ring, &[0]), node(&ring, &[2])]);
        assert!(!f.preserves_connectivity(&ring));
        let t = AnyTopology::torus(8, 2).unwrap();
        assert!(failing([node(&t, &[4, 4])]).preserves_connectivity(&t));
        // On a 4x1 open line, failing *one* interior node already splits it
        // (there is no wrap-around to route behind the fault).
        let line = AnyTopology::mesh(4, 1).unwrap();
        assert!(!failing([node(&line, &[1])]).preserves_connectivity(&line));
    }

    #[test]
    fn failing_both_links_of_a_corner_disconnects_without_node_faults() {
        let m = AnyTopology::mesh(4, 2).unwrap();
        let corner = node(&m, &[0, 0]);
        let mut f = FaultSet::new();
        f.fail_link(&m, corner, 0, Direction::Plus);
        assert!(f.preserves_connectivity(&m));
        f.fail_link(&m, corner, 1, Direction::Plus);
        assert_eq!(f.num_faulty_nodes(), 0);
        assert!(!f.preserves_connectivity(&m));
        assert_eq!(f.shortest_path(&m, corner, node(&m, &[3, 3])), None);
    }

    #[test]
    fn shortest_path_detours_around_faults() {
        for net in [
            AnyTopology::torus(8, 2).unwrap(),
            AnyTopology::mesh(8, 2).unwrap(),
        ] {
            let src = node(&net, &[0, 0]);
            let dest = node(&net, &[3, 0]);
            // Fail the straight line between them.
            let f = failing([node(&net, &[1, 0]), node(&net, &[2, 0])]);
            let p = f.shortest_path(&net, src, dest).unwrap();
            assert!(p.is_well_formed(&net));
            assert!(p.len() > net.distance(src, dest) as usize);
            assert!(p.nodes(&net).iter().all(|&n| !f.is_node_faulty(n)));
        }
    }

    #[test]
    fn shortest_path_avoids_a_failed_inter_switch_link_both_ways() {
        let torus = AnyTopology::torus(8, 2).unwrap();
        let tree = AnyTopology::fat_tree_new(4, 2).unwrap();
        let leaf = tree.fat_tree().unwrap().switch_id(0, 0);
        // Each case: the link that the fault-free shortest path from `src`
        // to `dest` crosses first in port order, named from its near side.
        for (net, src, dest, (from, dim, dir)) in [
            (
                &torus,
                NodeId(0),
                node(&torus, &[3, 0]),
                (NodeId(0), 0, Direction::Plus),
            ),
            (&tree, NodeId(0), NodeId(5), (leaf, 0, Direction::Plus)),
        ] {
            let link = DirectedChannel::new(from, dim, dir);
            let to = net.channel_dest(link).unwrap();
            let back = DirectedChannel::new(to, dim, dir.opposite());
            let healthy = FaultSet::new().shortest_path(net, src, dest).unwrap();
            assert!(healthy.hops.contains(&link), "{net}: {healthy:?}");

            let mut f = FaultSet::new();
            f.fail_link(net, from, dim, dir);
            let p = f.shortest_path(net, src, dest).unwrap();
            assert!(p.is_well_formed(net));
            assert!(
                !p.hops.contains(&link) && !p.hops.contains(&back),
                "{net}: {p:?}"
            );
            let reverse = f.shortest_path(net, dest, src).unwrap();
            assert!(!reverse.hops.contains(&link) && !reverse.hops.contains(&back));
            assert_eq!(f.num_faulty_nodes(), 0);
        }
    }

    #[test]
    fn shortest_path_trivial_and_unreachable() {
        let t = AnyTopology::torus(4, 2).unwrap();
        let a = node(&t, &[1, 2]);
        assert_eq!(FaultSet::new().shortest_path(&t, a, a).unwrap().len(), 0);
        assert!(failing([a]).shortest_path(&t, a, NodeId(0)).is_none());
    }

    #[test]
    fn fat_tree_connectivity_and_detours() {
        let net = AnyTopology::fat_tree_new(4, 2).unwrap();
        let ft = net.fat_tree().unwrap();
        let none = FaultSet::new();
        assert!(none.preserves_connectivity(&net));
        assert_eq!(none.healthy_nodes(&net).count(), net.num_nodes());
        // Endpoint-to-endpoint BFS distance matches the closed-form distance.
        for a in net.endpoints().take(4) {
            let dist = none.bfs_distances(&net, a);
            for b in net.endpoints() {
                assert_eq!(dist[b.index()], Some(net.distance(a, b)));
            }
        }
        // Killing one level-1 (top) switch leaves the tree connected; the
        // shortest path between endpoints in different subtrees detours
        // through a sibling top switch.
        let top = ft.switch_id(1, 0);
        let f = failing([top]);
        assert!(f.preserves_connectivity(&net));
        let (a, b) = (NodeId(0), NodeId(5));
        let p = f.shortest_path(&net, a, b).expect("detour must exist");
        assert!(p.is_well_formed(&net));
        assert_eq!(p.len() as u32, net.distance(a, b));
        assert!(p.nodes(&net).iter().all(|&n| n != top));
        // Killing a leaf switch disconnects its endpoints: single point of
        // failure at level 0.
        let leaf = ft.switch_id(0, 0);
        assert!(matches!(
            ft.classify(leaf),
            FatTreeNode::Switch { level: 0, .. }
        ));
        assert!(!failing([leaf]).preserves_connectivity(&net));
    }
}
