//! # torus-topology
//!
//! Mixed-radix multidimensional network topology support for the
//! software-based fault-tolerant routing study (Safaei et al., IPDPS 2006).
//!
//! The rest of the stack holds one topology type, [`AnyTopology`]: node
//! ids, endpoint vs switch roles, a dense channel-id space, neighbour
//! arithmetic and distances. It is a closed enum over two backends:
//!
//! * [`Network`]: an n-dimensional grid with a per-dimension radix vector and
//!   a per-dimension wrap flag. A k-ary n-cube (torus), a k-ary n-mesh, a
//!   binary hypercube and arbitrary mixed-radix shapes like `8x8x4` are all
//!   instances of the same type, constructible from one code path
//!   ([`Network::torus`] / [`Network::mesh`] / [`Network::hypercube`] /
//!   [`Network::new`]). Every node is connected by a pair of unidirectional
//!   channels (one per direction) to its neighbour in each dimension; on open
//!   (non-wrapping) dimensions the edge nodes simply lack the outward channel.
//!   Every grid node is an endpoint.
//! * [`FatTree`]: a k-ary l-level fat-tree in which compute endpoints sit
//!   below leaf switches and only endpoints inject or absorb traffic; the
//!   switch levels above provide path diversity for up*/down* routing.
//!
//! This crate provides:
//!
//! * [`AnyTopology`] — the topology type used across routing, faults,
//!   simulation and verification.
//! * [`Network`] — the grid topology: node addressing, neighbour arithmetic,
//!   minimal offsets and distances.
//! * [`FatTree`] — the indirect k-ary l-level fat-tree topology.
//! * [`TopologySpec`] — a declarative, serialisable topology description with
//!   a compact string form, used by configurations and CLIs.
//! * [`Coord`] / [`NodeId`] — mixed-radix node addresses and their conversions.
//! * [`Direction`], [`DirectedChannel`], [`ChannelId`] — identification of
//!   unidirectional physical channels and their dense slot encoding.
//! * [`path`] — dimension-order path construction and hop counting
//!   (shortest fault-free paths are `torus_faults::FaultSet::shortest_path`).
//! * [`rings`] — dateline bookkeeping used for deadlock-free virtual-channel
//!   class assignment on wrapped dimensions (open dimensions need no dateline
//!   split, which [`DatelinePolicy`] encodes).
//!
//! # Example
//!
//! ```
//! use torus_topology::{Network, Direction};
//!
//! let t = Network::torus(8, 2).unwrap();      // 8-ary 2-cube: 64 nodes
//! assert_eq!(t.num_nodes(), 64);
//! let origin = t.node_from_digits(&[0, 0]).unwrap();
//! let east = t.neighbor(origin, 0, Direction::Plus).unwrap();
//! assert_eq!(t.coord(east).digits(), &[1, 0]);
//! // wrap-around
//! let west = t.neighbor(origin, 0, Direction::Minus).unwrap();
//! assert_eq!(t.coord(west).digits(), &[7, 0]);
//!
//! // the same origin on a mesh has no west neighbour at all
//! let m = Network::mesh(8, 2).unwrap();
//! assert_eq!(m.neighbor(origin, 0, Direction::Minus), None);
//! ```

pub mod channel;
pub mod coords;
pub mod fattree;
pub mod network;
pub mod path;
pub mod rings;
pub mod spec;
pub mod topo;

pub use channel::{ChannelId, DirectedChannel, Direction};
pub use coords::{Coord, NodeId};
pub use fattree::{FatTree, FatTreeNode};
pub use network::{Network, NetworkError};
pub use path::{dimension_order_path, hop_count, Path};
pub use rings::{DatelinePolicy, VcClass};
pub use spec::TopologySpec;
pub use topo::AnyTopology;

/// Convenience prelude re-exporting the most frequently used items.
pub mod prelude {
    pub use crate::channel::{ChannelId, DirectedChannel, Direction};
    pub use crate::coords::{Coord, NodeId};
    pub use crate::fattree::{FatTree, FatTreeNode};
    pub use crate::network::{Network, NetworkError};
    pub use crate::path::{dimension_order_path, hop_count};
    pub use crate::rings::{DatelinePolicy, VcClass};
    pub use crate::spec::TopologySpec;
    pub use crate::topo::AnyTopology;
}
