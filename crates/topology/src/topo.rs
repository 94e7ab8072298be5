//! The topology contract: the trait every backend implements, and the
//! closed enum the rest of the stack dispatches through.
//!
//! [`Topology`] captures what routing, the fault model, the simulator
//! engine and the verifier need from *any* interconnect: a dense node-id
//! space with endpoints first, per-node `(dim, dir)` port slots with a dense
//! channel-id encoding, neighbour arithmetic, and hop distances. The direct
//! [`Network`] grid and the indirect [`FatTree`] both implement it.
//!
//! [`AnyTopology`] mirrors `AnyRouting` in the routing crate: a
//! zero-allocation closed enum that keeps the simulator engine
//! monomorphised while configuration picks the backend at runtime. Backend
//! specific consumers (e-cube offsets, dateline policies, fault regions)
//! downcast through [`AnyTopology::grid`] / [`AnyTopology::fat_tree`], which
//! construction-time `supported_on` checks guarantee to succeed.
//!
//! **Which one to take:** a function that needs only the contract (fault
//! sets and schedules, random placement, healthy-graph queries, header
//! set-up) is generic over `T: Topology + ?Sized`, so a backend-specific
//! caller can hand it `&Network` or `&FatTree` directly; whatever stores a
//! topology picked at runtime or may have to downcast to a backend (the
//! engine, `RoutingAlgorithm` and everything that calls it — the verifier's
//! walks included —, configuration) takes `&AnyTopology`.

use crate::channel::{ChannelId, DirectedChannel, Direction};
use crate::coords::NodeId;
use crate::fattree::FatTree;
use crate::network::{Network, NetworkError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The contract every topology backend implements.
///
/// The dense channel-id encoding (`node * 2 * dims + dim * 2 + dir`) is part
/// of the contract: simulator tables and the verifier's resource-id space
/// index by channel slot, and both backends keep slots of non-existent
/// channels simply unused (mesh edges, endpoint down-ports).
pub trait Topology {
    /// Total number of nodes (endpoints first, then any switch levels).
    fn num_nodes(&self) -> usize;

    /// Number of compute endpoints; node ids `0..num_endpoints()` are the
    /// endpoints. On a direct network every node is an endpoint.
    fn num_endpoints(&self) -> usize;

    /// Number of `(dim, dir)` port-pair slots per node (the grid's
    /// dimensionality; a fat-tree's arity).
    fn dims(&self) -> usize;

    /// True if the outgoing channel of `node` over `(dim, dir)` exists.
    fn has_channel(&self, node: NodeId, dim: usize, dir: Direction) -> bool;

    /// The neighbour over `(dim, dir)`, or `None` when that channel does not
    /// exist. Involutive over existing channels:
    /// `neighbor(neighbor(n, d, dir), d, dir.opposite()) == n`.
    fn neighbor(&self, node: NodeId, dim: usize, dir: Direction) -> Option<NodeId>;

    /// Minimal hop distance between two nodes.
    fn distance(&self, src: NodeId, dest: NodeId) -> u32;

    /// Human-readable node label for witnesses and reports.
    fn node_label(&self, node: NodeId) -> String;

    /// True if `node` is a compute endpoint (may inject and consume traffic).
    fn is_endpoint(&self, node: NodeId) -> bool {
        node.index() < self.num_endpoints()
    }

    /// Size of the dense channel-id space, `num_nodes * 2 * dims`.
    fn channel_slots(&self) -> usize {
        self.num_nodes() * 2 * self.dims()
    }

    /// Dense identifier of a channel slot: `node * 2 * dims + dim * 2 + dir`.
    fn channel_id(&self, ch: DirectedChannel) -> ChannelId {
        let per_node = 2 * self.dims() as u32;
        ChannelId(ch.from.0 * per_node + (ch.dim as u32) * 2 + ch.dir.index() as u32)
    }

    /// Inverse of [`Topology::channel_id`].
    fn channel_from_id(&self, id: ChannelId) -> DirectedChannel {
        let per_node = 2 * self.dims() as u32;
        let node = NodeId(id.0 / per_node);
        let rest = id.0 % per_node;
        let dim = (rest / 2) as usize;
        let dir = Direction::from_index((rest % 2) as usize);
        DirectedChannel::new(node, dim, dir)
    }

    /// The node a channel leads to (`None` if the channel does not exist).
    fn channel_dest(&self, ch: DirectedChannel) -> Option<NodeId> {
        self.neighbor(ch.from, ch.dim, ch.dir)
    }

    /// All existing neighbours of a node with the channel used to reach them.
    fn neighbors(&self, node: NodeId) -> Vec<(DirectedChannel, NodeId)> {
        let mut out = Vec::with_capacity(2 * self.dims());
        for dim in 0..self.dims() {
            for dir in Direction::BOTH {
                if let Some(next) = self.neighbor(node, dim, dir) {
                    out.push((DirectedChannel::new(node, dim, dir), next));
                }
            }
        }
        out
    }
}

impl Topology for Network {
    fn num_nodes(&self) -> usize {
        Network::num_nodes(self)
    }

    fn num_endpoints(&self) -> usize {
        Network::num_nodes(self)
    }

    fn dims(&self) -> usize {
        Network::dims(self)
    }

    fn has_channel(&self, node: NodeId, dim: usize, dir: Direction) -> bool {
        Network::has_channel(self, node, dim, dir)
    }

    fn neighbor(&self, node: NodeId, dim: usize, dir: Direction) -> Option<NodeId> {
        Network::neighbor(self, node, dim, dir)
    }

    fn distance(&self, src: NodeId, dest: NodeId) -> u32 {
        Network::distance(self, src, dest)
    }

    fn node_label(&self, node: NodeId) -> String {
        format!("{}", self.coord(node))
    }

    fn channel_id(&self, ch: DirectedChannel) -> ChannelId {
        Network::channel_id(self, ch)
    }

    fn channel_from_id(&self, id: ChannelId) -> DirectedChannel {
        Network::channel_from_id(self, id)
    }
}

impl Topology for FatTree {
    fn num_nodes(&self) -> usize {
        FatTree::num_nodes(self)
    }

    fn num_endpoints(&self) -> usize {
        FatTree::num_endpoints(self)
    }

    fn dims(&self) -> usize {
        FatTree::dims(self)
    }

    fn has_channel(&self, node: NodeId, dim: usize, dir: Direction) -> bool {
        FatTree::has_channel(self, node, dim, dir)
    }

    fn neighbor(&self, node: NodeId, dim: usize, dir: Direction) -> Option<NodeId> {
        FatTree::neighbor(self, node, dim, dir)
    }

    fn distance(&self, src: NodeId, dest: NodeId) -> u32 {
        FatTree::distance(self, src, dest)
    }

    fn node_label(&self, node: NodeId) -> String {
        FatTree::node_label(self, node)
    }
}

/// Either topology backend behind one dispatchable value.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
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

    /// Total number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        topo_delegate!(self, n => Topology::num_nodes(n))
    }

    /// Number of compute endpoints (ids `0..num_endpoints()`).
    #[inline]
    pub fn num_endpoints(&self) -> usize {
        topo_delegate!(self, n => Topology::num_endpoints(n))
    }

    /// True if `node` may inject and consume traffic.
    #[inline]
    pub fn is_endpoint(&self, node: NodeId) -> bool {
        node.index() < self.num_endpoints()
    }

    /// Number of `(dim, dir)` port-pair slots per node.
    #[inline]
    pub fn dims(&self) -> usize {
        topo_delegate!(self, n => Topology::dims(n))
    }

    /// Size of the dense channel-id space.
    #[inline]
    pub fn channel_slots(&self) -> usize {
        self.num_nodes() * 2 * self.dims()
    }

    /// Number of unidirectional channels that physically exist.
    pub fn num_channels(&self) -> usize {
        match self {
            AnyTopology::Grid(net) => net.num_channels(),
            AnyTopology::FatTree(ft) => ft.num_channels(),
        }
    }

    /// Iterator over all node identifiers (endpoints first).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterator over the endpoint identifiers.
    pub fn endpoints(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_endpoints() as u32).map(NodeId)
    }

    /// Iterator over all existing unidirectional channels.
    pub fn channels(&self) -> impl Iterator<Item = DirectedChannel> + '_ {
        self.nodes().flat_map(move |node| {
            (0..self.dims()).flat_map(move |dim| {
                Direction::BOTH
                    .into_iter()
                    .filter(move |&dir| self.has_channel(node, dim, dir))
                    .map(move |dir| DirectedChannel::new(node, dim, dir))
            })
        })
    }

    /// True if the outgoing channel of `node` over `(dim, dir)` exists.
    #[inline]
    pub fn has_channel(&self, node: NodeId, dim: usize, dir: Direction) -> bool {
        topo_delegate!(self, n => Topology::has_channel(n, node, dim, dir))
    }

    /// The neighbour over `(dim, dir)`, or `None` when the channel does not
    /// exist.
    #[inline]
    pub fn neighbor(&self, node: NodeId, dim: usize, dir: Direction) -> Option<NodeId> {
        topo_delegate!(self, n => Topology::neighbor(n, node, dim, dir))
    }

    /// All existing neighbours of a node with the channel used to reach them.
    pub fn neighbors(&self, node: NodeId) -> Vec<(DirectedChannel, NodeId)> {
        topo_delegate!(self, n => Topology::neighbors(n, node))
    }

    /// The node a channel leads to (`None` if the channel does not exist).
    #[inline]
    pub fn channel_dest(&self, ch: DirectedChannel) -> Option<NodeId> {
        self.neighbor(ch.from, ch.dim, ch.dir)
    }

    /// Dense identifier of a channel slot.
    #[inline]
    pub fn channel_id(&self, ch: DirectedChannel) -> ChannelId {
        topo_delegate!(self, n => Topology::channel_id(n, ch))
    }

    /// Inverse of [`AnyTopology::channel_id`].
    #[inline]
    pub fn channel_from_id(&self, id: ChannelId) -> DirectedChannel {
        topo_delegate!(self, n => Topology::channel_from_id(n, id))
    }

    /// Minimal hop distance between two nodes.
    #[inline]
    pub fn distance(&self, src: NodeId, dest: NodeId) -> u32 {
        topo_delegate!(self, n => Topology::distance(n, src, dest))
    }

    /// Average minimal hop distance over ordered pairs of distinct endpoints.
    pub fn average_distance(&self) -> f64 {
        match self {
            AnyTopology::Grid(net) => net.average_distance(),
            AnyTopology::FatTree(ft) => ft.average_distance(),
        }
    }

    /// Human-readable node label for witnesses and reports (grid coordinates
    /// like `(1,2)`; fat-tree roles like `e3` / `s1.2`).
    pub fn node_label(&self, node: NodeId) -> String {
        topo_delegate!(self, n => Topology::node_label(n, node))
    }
}

impl Topology for AnyTopology {
    fn num_nodes(&self) -> usize {
        AnyTopology::num_nodes(self)
    }

    fn num_endpoints(&self) -> usize {
        AnyTopology::num_endpoints(self)
    }

    fn dims(&self) -> usize {
        AnyTopology::dims(self)
    }

    fn has_channel(&self, node: NodeId, dim: usize, dir: Direction) -> bool {
        AnyTopology::has_channel(self, node, dim, dir)
    }

    fn neighbor(&self, node: NodeId, dim: usize, dir: Direction) -> Option<NodeId> {
        AnyTopology::neighbor(self, node, dim, dir)
    }

    fn distance(&self, src: NodeId, dest: NodeId) -> u32 {
        AnyTopology::distance(self, src, dest)
    }

    fn node_label(&self, node: NodeId) -> String {
        AnyTopology::node_label(self, node)
    }

    fn channel_id(&self, ch: DirectedChannel) -> ChannelId {
        AnyTopology::channel_id(self, ch)
    }

    fn channel_from_id(&self, id: ChannelId) -> DirectedChannel {
        AnyTopology::channel_from_id(self, id)
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
    fn delegation_matches_backends() {
        let net = Network::torus(4, 2).unwrap();
        let t = AnyTopology::Grid(net.clone());
        for node in t.nodes() {
            assert_eq!(t.neighbors(node).len(), net.neighbors(node).len());
            assert_eq!(t.node_label(node), format!("{}", net.coord(node)));
        }
        assert_eq!(t.channels().count(), net.num_channels());
        assert_eq!(t.channel_slots(), net.channel_slots());
        assert!((t.average_distance() - net.average_distance()).abs() < 1e-12);
        assert_eq!(format!("{t}"), "4x4");
    }

    #[test]
    fn channel_id_roundtrip_both_backends() {
        for topo in [
            AnyTopology::mesh(4, 2).unwrap(),
            AnyTopology::fat_tree_new(4, 2).unwrap(),
        ] {
            for ch in topo.channels() {
                let id = topo.channel_id(ch);
                assert_eq!(topo.channel_from_id(id), ch);
                assert!(id.index() < topo.channel_slots());
            }
            assert_eq!(topo.channels().count(), topo.num_channels());
        }
    }

    #[test]
    fn trait_object_surface_is_consistent() {
        let ft = FatTree::new(2, 2).unwrap();
        let topo: AnyTopology = ft.clone().into();
        for node in topo.nodes() {
            for dim in 0..topo.dims() {
                for dir in Direction::BOTH {
                    assert_eq!(
                        Topology::neighbor(&ft, node, dim, dir),
                        topo.neighbor(node, dim, dir)
                    );
                }
            }
        }
        assert_eq!(format!("{topo}"), "ft:2,2");
    }
}
