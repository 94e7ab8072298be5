//! The fault set: which nodes and channels are faulty.

use std::fmt;
use torus_topology::{AnyTopology, DirectedChannel, Direction, NodeId};

/// The set of faulty components of a network.
///
/// A `FaultSet` answers the queries the routers and routing algorithms need:
/// is this node faulty, is this outgoing channel usable, does this message
/// destination still exist. The queries over the healthy subgraph those
/// answers define (connectivity, BFS distances, shortest fault-free paths)
/// are methods too, in `crate::healthy`.
///
/// Channels that do not physically exist (the outward channels of mesh edge
/// nodes) are reported as unusable by every query, so routing layers can
/// treat "missing" and "faulty" uniformly.
///
/// Every routing decision asks it about each output it considers, so both
/// answers are dense lookups: faulty nodes are a bitset indexed by [`NodeId`], grown
/// as nodes fail, and link faults a sorted list searched by bisection.
/// Equality compares the faults, not how the storage grew.
#[derive(Clone, Default)]
pub struct FaultSet {
    /// Bit `n % 64` of word `n / 64` is set iff node `n` is faulty.
    faulty_nodes: Vec<u64>,
    /// Number of set bits in `faulty_nodes`.
    num_faulty_nodes: usize,
    /// Faulty directed channels not implied by node faults (genuine link
    /// faults), as sorted, distinct [`channel_key`]s. Stored per direction;
    /// [`FaultSet::fail_link`] inserts both.
    faulty_channels: Vec<u64>,
}

/// The sort key of the directed channel leaving `from` along `dim`/`dir`:
/// node-major, so one node's channels are adjacent.
fn channel_key(from: NodeId, dim: usize, dir: Direction) -> u64 {
    (u64::from(from.0) << 32) | ((dim as u64) << 1) | dir.index() as u64
}

/// Where node `node`'s bit lives: (word, mask).
#[inline]
fn node_bit(node: NodeId) -> (usize, u64) {
    let i = node.index();
    (i / 64, 1 << (i % 64))
}

impl FaultSet {
    /// Creates an empty (fault-free) fault set.
    pub fn new() -> Self {
        FaultSet::default()
    }

    /// Marks a node (PE + router) as faulty.
    pub fn fail_node(&mut self, node: NodeId) {
        let (word, mask) = node_bit(node);
        if self.faulty_nodes.len() <= word {
            self.faulty_nodes.resize(word + 1, 0);
        }
        if self.faulty_nodes[word] & mask == 0 {
            self.faulty_nodes[word] |= mask;
            self.num_faulty_nodes += 1;
        }
    }

    /// Marks several nodes as faulty.
    pub fn fail_nodes<I: IntoIterator<Item = NodeId>>(&mut self, nodes: I) {
        for n in nodes {
            self.fail_node(n);
        }
    }

    /// Marks the physical link leaving `from` along `dim`/`dir` as faulty in
    /// **both** directions (a link failure always affects the channel pair).
    ///
    /// Failing a channel that does not exist (the outward edge of an open
    /// dimension) is a no-op: there is no link there to fail.
    pub fn fail_link(&mut self, net: &AnyTopology, from: NodeId, dim: usize, dir: Direction) {
        let Some(to) = net.neighbor(from, dim, dir) else {
            return;
        };
        for key in [
            channel_key(from, dim, dir),
            channel_key(to, dim, dir.opposite()),
        ] {
            if let Err(at) = self.faulty_channels.binary_search(&key) {
                self.faulty_channels.insert(at, key);
            }
        }
    }

    /// True if the node itself (PE + router) is faulty.
    #[inline]
    pub fn is_node_faulty(&self, node: NodeId) -> bool {
        let (word, mask) = node_bit(node);
        self.faulty_nodes
            .get(word)
            .is_some_and(|&bits| bits & mask != 0)
    }

    /// True if the directed channel is unusable: it does not exist (mesh
    /// edge), it was failed explicitly (link fault), or one of its endpoints
    /// is a faulty node.
    #[inline]
    pub fn is_channel_faulty(&self, net: &AnyTopology, ch: DirectedChannel) -> bool {
        let Some(dest) = net.channel_dest(ch) else {
            return true;
        };
        self.is_node_faulty(ch.from)
            || self.is_node_faulty(dest)
            || (!self.faulty_channels.is_empty()
                && self
                    .faulty_channels
                    .binary_search(&channel_key(ch.from, ch.dim, ch.dir))
                    .is_ok())
    }

    /// Convenience query used by the routers: is the output channel of `node`
    /// along `dim`/`dir` usable?
    #[inline]
    pub fn output_usable(
        &self,
        net: &AnyTopology,
        node: NodeId,
        dim: usize,
        dir: Direction,
    ) -> bool {
        !self.is_channel_faulty(net, DirectedChannel::new(node, dim, dir))
    }

    /// Number of faulty nodes.
    pub fn num_faulty_nodes(&self) -> usize {
        self.num_faulty_nodes
    }

    /// Number of explicitly failed directed channels (not counting channels
    /// implied faulty by node failures).
    pub fn num_faulty_links(&self) -> usize {
        self.faulty_channels.len() / 2
    }

    /// Iterator over the faulty nodes, in ascending id order.
    pub fn faulty_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.faulty_nodes
            .iter()
            .enumerate()
            .flat_map(|(word, &bits)| {
                let mut rest = bits;
                std::iter::from_fn(move || {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest.wrapping_sub(1);
                    (bit < 64).then(|| NodeId::from_index(word * 64 + bit))
                })
            })
    }

    /// Sorted list of faulty nodes (deterministic order for reports/tests).
    pub fn faulty_nodes_sorted(&self) -> Vec<NodeId> {
        self.faulty_nodes().collect()
    }

    /// True if there are no faults at all.
    pub fn is_empty(&self) -> bool {
        self.num_faulty_nodes == 0 && self.faulty_channels.is_empty()
    }

    /// Merges another fault set into this one.
    pub fn merge(&mut self, other: &FaultSet) {
        if self.faulty_nodes.len() < other.faulty_nodes.len() {
            self.faulty_nodes.resize(other.faulty_nodes.len(), 0);
        }
        for (mine, &theirs) in self.faulty_nodes.iter_mut().zip(&other.faulty_nodes) {
            *mine |= theirs;
        }
        self.num_faulty_nodes = self
            .faulty_nodes
            .iter()
            .map(|bits| bits.count_ones() as usize)
            .sum();
        self.faulty_channels
            .extend_from_slice(&other.faulty_channels);
        self.faulty_channels.sort_unstable();
        self.faulty_channels.dedup();
    }

    /// The node bitset without trailing empty words.
    fn node_words(&self) -> &[u64] {
        let used = self
            .faulty_nodes
            .iter()
            .rposition(|&bits| bits != 0)
            .map_or(0, |last| last + 1);
        &self.faulty_nodes[..used]
    }
}

impl PartialEq for FaultSet {
    fn eq(&self, other: &Self) -> bool {
        self.node_words() == other.node_words() && self.faulty_channels == other.faulty_channels
    }
}

impl Eq for FaultSet {}

impl fmt::Debug for FaultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let channels: Vec<(u32, u32, u8)> = self
            .faulty_channels
            .iter()
            .map(|&key| ((key >> 32) as u32, (key as u32) >> 1, (key & 1) as u8))
            .collect();
        f.debug_struct("FaultSet")
            .field("faulty_nodes", &self.faulty_nodes_sorted())
            .field("faulty_channels", &channels)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torus8x8() -> AnyTopology {
        AnyTopology::torus(8, 2).unwrap()
    }

    fn node(net: &AnyTopology, digits: &[u16]) -> NodeId {
        net.grid().unwrap().node_from_digits(digits).unwrap()
    }

    #[test]
    fn empty_set_has_no_faults() {
        let t = torus8x8();
        let f = FaultSet::new();
        assert!(f.is_empty());
        assert_eq!(f.num_faulty_nodes(), 0);
        assert!(f.preserves_connectivity(&t));
        for ch in t.channels().take(32) {
            assert!(!f.is_channel_faulty(&t, ch));
        }
    }

    #[test]
    fn node_fault_marks_incident_channels() {
        let t = torus8x8();
        let mut f = FaultSet::new();
        let bad = node(&t, &[3, 3]);
        f.fail_node(bad);
        assert!(f.is_node_faulty(bad));
        assert_eq!(f.num_faulty_nodes(), 1);
        // every channel into or out of the faulty node is unusable
        for (ch, next) in t.neighbors(bad) {
            assert!(f.is_channel_faulty(&t, ch));
            // and the reverse channel from the healthy neighbour towards it
            let back = DirectedChannel::new(next, ch.dim, ch.dir.opposite());
            assert!(f.is_channel_faulty(&t, back));
            assert!(!f.output_usable(&t, next, ch.dim, ch.dir.opposite()));
        }
        // unrelated channels stay usable
        let far = node(&t, &[0, 0]);
        assert!(f.output_usable(&t, far, 0, Direction::Plus));
    }

    #[test]
    fn link_fault_blocks_both_directions_only() {
        let t = torus8x8();
        let mut f = FaultSet::new();
        let a = node(&t, &[2, 2]);
        f.fail_link(&t, a, 0, Direction::Plus);
        let b = t.neighbor(a, 0, Direction::Plus).unwrap();
        assert!(!f.is_node_faulty(a));
        assert!(!f.is_node_faulty(b));
        assert!(f.is_channel_faulty(&t, DirectedChannel::new(a, 0, Direction::Plus)));
        assert!(f.is_channel_faulty(&t, DirectedChannel::new(b, 0, Direction::Minus)));
        // the other channels of both endpoints stay healthy
        assert!(f.output_usable(&t, a, 1, Direction::Plus));
        assert!(f.output_usable(&t, b, 0, Direction::Plus));
        assert_eq!(f.num_faulty_links(), 1);
    }

    #[test]
    fn missing_mesh_channels_are_unusable_but_not_link_faults() {
        let m = AnyTopology::mesh(4, 2).unwrap();
        let mut f = FaultSet::new();
        let corner = node(&m, &[0, 0]);
        // The outward channel of an edge node does not exist: unusable, and
        // failing it is a no-op.
        assert!(!f.output_usable(&m, corner, 0, Direction::Minus));
        f.fail_link(&m, corner, 0, Direction::Minus);
        assert!(f.is_empty());
        assert_eq!(f.num_faulty_links(), 0);
        // An existing edge link can be failed normally.
        f.fail_link(&m, corner, 0, Direction::Plus);
        assert_eq!(f.num_faulty_links(), 1);
        assert!(!f.output_usable(&m, corner, 0, Direction::Plus));
    }

    #[test]
    fn merge_combines_faults() {
        let t = torus8x8();
        let mut a = FaultSet::new();
        a.fail_node(node(&t, &[0, 1]));
        let mut b = FaultSet::new();
        b.fail_node(node(&t, &[5, 5]));
        b.fail_link(&t, node(&t, &[6, 6]), 1, Direction::Minus);
        a.merge(&b);
        assert_eq!(a.num_faulty_nodes(), 2);
        assert_eq!(a.num_faulty_links(), 1);
    }

    #[test]
    fn equality_ignores_trailing_empty_node_words() {
        let mut direct = FaultSet::new();
        direct.fail_node(NodeId(3));
        let mut padded = direct.clone();
        padded.faulty_nodes.resize(12, 0);
        assert_eq!(padded, direct);
        padded.fail_node(NodeId(700));
        assert_ne!(padded, direct);
        assert_eq!(padded.faulty_nodes_sorted(), vec![NodeId(3), NodeId(700)]);
    }

    #[test]
    fn sorted_node_listing_is_deterministic() {
        let t = torus8x8();
        let mut f = FaultSet::new();
        f.fail_nodes([NodeId(9), NodeId(3), NodeId(27)]);
        assert_eq!(
            f.faulty_nodes_sorted(),
            vec![NodeId(3), NodeId(9), NodeId(27)]
        );
        let _ = &t;
    }
}
