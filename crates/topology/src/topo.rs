//! The one topology type the rest of the stack holds.
//!
//! [`AnyTopology`] captures what routing, the fault model, the simulator
//! engine and the verifier need from *any* interconnect: a dense node-id
//! space with endpoints first, per-node `(dim, dir)` port slots with a dense
//! channel-id encoding ([`ChannelId`]), neighbour arithmetic, and hop
//! distances. It is a closed enum over the direct [`Network`] grid and the
//! indirect [`FatTree`]: each method either calls the backends' inherent
//! method or is derived once, here, from those.
//!
//! Like `AnyRouting` in the routing crate, it is a zero-allocation value
//! that keeps the simulator engine monomorphised while configuration picks
//! the backend at runtime. Backend-specific consumers (e-cube offsets,
//! dateline policies, fault regions, up*/down* ports) downcast through
//! [`AnyTopology::grid`] / [`AnyTopology::fat_tree`], which
//! construction-time `supported_on` checks guarantee to succeed.
//!
//! **Which one to take:** whatever works on either backend — fault sets and
//! schedules, random placement, healthy-subgraph queries, the engine,
//! `RoutingAlgorithm` and the verifier's walks — takes `&AnyTopology`; code
//! that only makes sense on one backend takes `&Network` or `&FatTree`, and
//! when it also needs a backend-neutral query its caller hands it both.

use crate::channel::{ChannelId, DirectedChannel, Direction};
use crate::coords::NodeId;
use crate::fattree::FatTree;
use crate::network::{Network, NetworkError};
use std::fmt;

/// Either topology backend behind one dispatchable value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnyTopology {
    /// A direct mixed-radix grid (torus / mesh / hypercube / mixed).
    Grid(Network),
    /// An indirect k-ary l-level fat-tree.
    FatTree(FatTree),
}

macro_rules! topo_delegate {
    ($self:ident, $net:ident => $body:expr) => {
        match $self {
            AnyTopology::Grid($net) => $body,
            AnyTopology::FatTree($net) => $body,
        }
    };
}

impl AnyTopology {
    /// The grid backend, when this is a direct network.
    pub fn grid(&self) -> Option<&Network> {
        match self {
            AnyTopology::Grid(net) => Some(net),
            AnyTopology::FatTree(_) => None,
        }
    }

    /// The fat-tree backend, when this is an indirect network.
    pub fn fat_tree(&self) -> Option<&FatTree> {
        match self {
            AnyTopology::Grid(_) => None,
            AnyTopology::FatTree(ft) => Some(ft),
        }
    }

    /// Total number of nodes (endpoints first, then any switch levels).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        topo_delegate!(self, n => n.num_nodes())
    }

    /// Number of compute endpoints; node ids `0..num_endpoints()` are the
    /// endpoints. On a direct network every node is an endpoint.
    #[inline]
    pub fn num_endpoints(&self) -> usize {
        match self {
            AnyTopology::Grid(net) => net.num_nodes(),
            AnyTopology::FatTree(ft) => ft.num_endpoints(),
        }
    }

    /// True if `node` is a compute endpoint (may inject and consume traffic).
    #[inline]
    pub fn is_endpoint(&self, node: NodeId) -> bool {
        node.index() < self.num_endpoints()
    }

    /// Number of `(dim, dir)` port-pair slots per node (the grid's
    /// dimensionality; a fat-tree's arity).
    #[inline]
    pub fn dims(&self) -> usize {
        topo_delegate!(self, n => n.dims())
    }

    /// Size of the dense channel-id space, `num_nodes * 2 * dims`. On a
    /// torus every slot is a real channel; mesh edges and fat-tree endpoint
    /// ports leave some unused.
    #[inline]
    pub fn channel_slots(&self) -> usize {
        ChannelId::slots(self.num_nodes(), self.dims())
    }

    /// Number of unidirectional channels that physically exist.
    pub fn num_channels(&self) -> usize {
        topo_delegate!(self, n => n.num_channels())
    }

    /// Iterator over all node identifiers (endpoints first).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterator over the endpoint identifiers.
    pub fn endpoints(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_endpoints() as u32).map(NodeId)
    }

    /// Iterator over all existing unidirectional channels, node by node in
    /// port order.
    pub fn channels(&self) -> impl Iterator<Item = DirectedChannel> + '_ {
        self.nodes()
            .flat_map(move |node| self.neighbors(node).map(|(ch, _)| ch))
    }

    /// True if the outgoing channel of `node` over `(dim, dir)` exists.
    #[inline]
    pub fn has_channel(&self, node: NodeId, dim: usize, dir: Direction) -> bool {
        topo_delegate!(self, n => n.has_channel(node, dim, dir))
    }

    /// The neighbour over `(dim, dir)`, or `None` when the channel does not
    /// exist. Involutive over existing channels:
    /// `neighbor(neighbor(n, d, dir), d, dir.opposite()) == n`.
    #[inline]
    pub fn neighbor(&self, node: NodeId, dim: usize, dir: Direction) -> Option<NodeId> {
        topo_delegate!(self, n => n.neighbor(node, dim, dir))
    }

    /// All existing neighbours of a node with the channel used to reach
    /// them, in port order: dimension ascending, `Plus` before `Minus`.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (DirectedChannel, NodeId)> + '_ {
        (0..self.dims()).flat_map(move |dim| {
            Direction::BOTH.into_iter().filter_map(move |dir| {
                self.neighbor(node, dim, dir)
                    .map(|next| (DirectedChannel::new(node, dim, dir), next))
            })
        })
    }

    /// The node a channel leads to (`None` if the channel does not exist).
    #[inline]
    pub fn channel_dest(&self, ch: DirectedChannel) -> Option<NodeId> {
        self.neighbor(ch.from, ch.dim, ch.dir)
    }

    /// Dense identifier of a channel slot ([`ChannelId::new`]).
    #[inline]
    pub fn channel_id(&self, ch: DirectedChannel) -> ChannelId {
        ChannelId::new(ch, self.dims())
    }

    /// Inverse of [`AnyTopology::channel_id`].
    #[inline]
    pub fn channel_from_id(&self, id: ChannelId) -> DirectedChannel {
        id.channel(self.dims())
    }

    /// Minimal hop distance between two nodes.
    #[inline]
    pub fn distance(&self, src: NodeId, dest: NodeId) -> u32 {
        topo_delegate!(self, n => n.distance(src, dest))
    }

    /// Average minimal hop distance over ordered pairs of distinct endpoints.
    pub fn average_distance(&self) -> f64 {
        topo_delegate!(self, n => n.average_distance())
    }

    /// Human-readable node label for witnesses and reports (grid coordinates
    /// like `(1,2)`; fat-tree roles like `e3` / `s1.2`).
    pub fn node_label(&self, node: NodeId) -> String {
        match self {
            AnyTopology::Grid(net) => net.coord(node).to_string(),
            AnyTopology::FatTree(ft) => ft.node_label(node),
        }
    }
}

impl From<Network> for AnyTopology {
    fn from(net: Network) -> Self {
        AnyTopology::Grid(net)
    }
}

impl From<FatTree> for AnyTopology {
    fn from(ft: FatTree) -> Self {
        AnyTopology::FatTree(ft)
    }
}

impl fmt::Display for AnyTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        topo_delegate!(self, n => write!(f, "{n}"))
    }
}

/// Convenience constructors mirroring [`Network`]'s, wrapped in the enum.
impl AnyTopology {
    /// A k-ary n-cube as an [`AnyTopology`].
    pub fn torus(k: u16, n: u32) -> Result<Self, NetworkError> {
        Network::torus(k, n).map(AnyTopology::Grid)
    }

    /// A k-ary n-mesh as an [`AnyTopology`].
    pub fn mesh(k: u16, n: u32) -> Result<Self, NetworkError> {
        Network::mesh(k, n).map(AnyTopology::Grid)
    }

    /// A binary n-cube as an [`AnyTopology`].
    pub fn hypercube(n: u32) -> Result<Self, NetworkError> {
        Network::hypercube(n).map(AnyTopology::Grid)
    }

    /// A k-ary l-level fat-tree as an [`AnyTopology`].
    pub fn fat_tree_new(k: u16, l: u32) -> Result<Self, NetworkError> {
        FatTree::new(k, l).map(AnyTopology::FatTree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_endpoints_are_all_nodes() {
        let t = AnyTopology::torus(4, 2).unwrap();
        assert_eq!(t.num_endpoints(), t.num_nodes());
        assert!(t.nodes().all(|n| t.is_endpoint(n)));
        assert!(t.grid().is_some());
        assert!(t.fat_tree().is_none());
    }

    #[test]
    fn fat_tree_endpoints_precede_switches() {
        let ft = AnyTopology::fat_tree_new(4, 2).unwrap();
        assert_eq!(ft.num_endpoints(), 16);
        assert_eq!(ft.num_nodes(), 24);
        assert_eq!(ft.endpoints().count(), 16);
        assert!(ft.endpoints().all(|n| ft.is_endpoint(n)));
        assert!(ft.nodes().skip(16).all(|n| !ft.is_endpoint(n)));
        assert!(ft.grid().is_none());
        assert!(ft.fat_tree().is_some());
    }

    #[test]
    fn grid_queries_match_the_backend() {
        let net = Network::torus(4, 2).unwrap();
        let t = AnyTopology::Grid(net.clone());
        for node in t.nodes() {
            assert_eq!(t.neighbors(node).count(), 4);
            assert_eq!(t.node_label(node), format!("{}", net.coord(node)));
        }
        assert_eq!(t.channels().count(), net.num_channels());
        assert_eq!(t.channel_slots(), 16 * 4);
        assert!((t.average_distance() - net.average_distance()).abs() < 1e-12);
        assert_eq!(format!("{t}"), "4x4");
    }

    #[test]
    fn fat_tree_queries_match_the_backend() {
        let ft = FatTree::new(2, 2).unwrap();
        let topo: AnyTopology = ft.clone().into();
        for node in topo.nodes() {
            for dim in 0..topo.dims() {
                for dir in Direction::BOTH {
                    assert_eq!(ft.neighbor(node, dim, dir), topo.neighbor(node, dim, dir));
                }
            }
            assert_eq!(topo.node_label(node), ft.node_label(node));
        }
        assert_eq!(topo.channels().count(), ft.num_channels());
        assert_eq!(format!("{topo}"), "ft:2,2");
    }
}
