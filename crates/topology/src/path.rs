//! Path construction helpers.
//!
//! The deterministic baseline of the paper is dimension-order (e-cube)
//! routing: a message nullifies its offset in dimension 0, then dimension 1,
//! and so on. [`dimension_order_path`] materialises that path as a list of
//! channels, which is used by the topology tests, the channel-dependency-graph
//! analysis and the software re-routing layer when it pre-computes detours.

use crate::channel::{DirectedChannel, Direction};
use crate::coords::NodeId;
use crate::network::Network;
use crate::topo::AnyTopology;

/// A hop-by-hop path through the network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Path {
    /// Node the path starts at.
    pub src: NodeId,
    /// Node the path ends at.
    pub dest: NodeId,
    /// Channels traversed, in order.
    pub hops: Vec<DirectedChannel>,
}

impl Path {
    /// Number of hops in the path.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True for the trivial path from a node to itself.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// The sequence of nodes visited, including `src` and `dest`.
    ///
    /// # Panics
    /// Panics if the path contains a channel that does not exist in `net`
    /// (use [`Path::is_well_formed`] to check first).
    pub fn nodes(&self, net: &AnyTopology) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(self.hops.len() + 1);
        nodes.push(self.src);
        for hop in &self.hops {
            nodes.push(
                net.channel_dest(*hop)
                    .expect("path hop over a non-existent channel"),
            );
        }
        nodes
    }

    /// Verifies that every hop exists, consecutive hops are adjacent and the
    /// path ends at `dest`.
    pub fn is_well_formed(&self, net: &AnyTopology) -> bool {
        let mut cur = self.src;
        for hop in &self.hops {
            if hop.from != cur {
                return false;
            }
            match net.channel_dest(*hop) {
                Some(next) => cur = next,
                None => return false,
            }
        }
        cur == self.dest
    }
}

/// Builds the dimension-order (e-cube) minimal path from `src` to `dest`,
/// resolving each dimension in increasing order.
pub fn dimension_order_path(net: &Network, src: NodeId, dest: NodeId) -> Path {
    let mut hops = Vec::new();
    let mut cur = src;
    for dim in 0..net.dims() {
        loop {
            let off = net.offset(cur, dest, dim);
            let Some(dir) = Direction::from_offset(off) else {
                break;
            };
            hops.push(DirectedChannel::new(cur, dim, dir));
            cur = net
                .neighbor(cur, dim, dir)
                .expect("minimal hop always stays inside the network");
        }
    }
    Path { src, dest, hops }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecube_path_is_minimal_and_well_formed() {
        let any = AnyTopology::torus(8, 2).unwrap();
        let t = any.grid().unwrap();
        let src = t.node_from_digits(&[1, 1]).unwrap();
        let dest = t.node_from_digits(&[6, 3]).unwrap();
        let p = dimension_order_path(t, src, dest);
        assert!(p.is_well_formed(&any));
        assert_eq!(p.len() as u32, t.distance(src, dest));
        assert_eq!(p.len(), 5);
        // dimension order: all dim-0 hops precede dim-1 hops
        let first_dim1 = p.hops.iter().position(|h| h.dim == 1).unwrap();
        assert!(p.hops[..first_dim1].iter().all(|h| h.dim == 0));
        assert!(p.hops[first_dim1..].iter().all(|h| h.dim == 1));
    }

    #[test]
    fn trivial_path() {
        let any = AnyTopology::torus(4, 3).unwrap();
        let t = any.grid().unwrap();
        let a = t.node_from_digits(&[2, 1, 3]).unwrap();
        let p = dimension_order_path(t, a, a);
        assert!(p.is_empty());
        assert!(p.is_well_formed(&any));
        assert_eq!(p.nodes(&any), vec![a]);
    }

    #[test]
    fn path_uses_wraparound_when_shorter() {
        let t = Network::torus(8, 1).unwrap();
        let a = t.node_from_digits(&[1]).unwrap();
        let b = t.node_from_digits(&[6]).unwrap();
        let p = dimension_order_path(&t, a, b);
        assert_eq!(p.len(), 3);
        assert!(p.hops.iter().all(|h| h.dir == Direction::Minus));
        assert!(p.hops.iter().any(|h| t.is_wraparound(*h)));
    }

    #[test]
    fn mesh_path_never_leaves_the_grid() {
        let any = AnyTopology::mesh(8, 1).unwrap();
        let m = any.grid().unwrap();
        let a = m.node_from_digits(&[1]).unwrap();
        let b = m.node_from_digits(&[6]).unwrap();
        let p = dimension_order_path(m, a, b);
        // No wrap shortcut: 5 Plus hops instead of the torus's 3 Minus hops.
        assert_eq!(p.len(), 5);
        assert!(p.hops.iter().all(|h| h.dir == Direction::Plus));
        assert!(p.is_well_formed(&any));
    }

    #[test]
    fn all_pairs_paths_are_minimal_small_networks() {
        for any in [
            AnyTopology::torus(4, 3).unwrap(),
            AnyTopology::mesh(4, 2).unwrap(),
            AnyTopology::hypercube(4).unwrap(),
            Network::new(vec![4, 3], vec![true, false]).unwrap().into(),
        ] {
            let net = any.grid().unwrap();
            for src in any.nodes() {
                for dest in any.nodes() {
                    let p = dimension_order_path(net, src, dest);
                    assert!(p.is_well_formed(&any));
                    assert_eq!(p.len() as u32, net.distance(src, dest));
                }
            }
        }
    }

    #[test]
    fn ill_formed_paths_are_rejected() {
        let any = AnyTopology::mesh(4, 1).unwrap();
        let m = any.grid().unwrap();
        let edge = m.node_from_digits(&[0]).unwrap();
        // A hop off the open edge is not well-formed.
        let p = Path {
            src: edge,
            dest: m.node_from_digits(&[3]).unwrap(),
            hops: vec![DirectedChannel::new(edge, 0, Direction::Minus)],
        };
        assert!(!p.is_well_formed(&any));
    }
}
