//! k-ary l-level fat-tree (indirect) topology.
//!
//! A [`FatTree`] is the classical k-ary l-tree: `k^l` endpoints at the bottom
//! and `l` levels of `k^(l-1)` switches each. Unlike the direct [`Network`]
//! grid, compute endpoints and switches are distinct node roles — traffic is
//! injected and delivered only at endpoints, while switches merely forward.
//!
//! # Identifier layout
//!
//! Endpoints occupy node ids `0..k^l` (so uniform endpoint sampling draws
//! from the same dense range as on a direct network), followed by the
//! switches level by level: switch `w` of level `lev` has id
//! `k^l + lev * k^(l-1) + w`. Level 0 switches are the *leaf* switches wired
//! to the endpoints; level `l-1` switches form the top of the tree.
//!
//! # Wiring
//!
//! Write a switch index `w` in base k as digits `w_0 .. w_{l-2}`. Switch
//! `(lev, w)` and switch `(lev+1, q)` are connected iff their digits agree
//! everywhere except position `lev`. Endpoint `p` hangs off leaf switch
//! `p / k`.
//!
//! # Port encoding
//!
//! Ports reuse the grid's `(dim, dir)` channel addressing with `dims() == k`:
//! `dir == Plus` is an up-port (towards the top), `dir == Minus` a down-port,
//! and `dim` is the port index `0..k`. The port index of the link between
//! child `(lev, w)` and parent `(lev+1, q)` is `(w_lev + q_lev) mod k` **on
//! both sides**, which keeps [`FatTree::neighbor`] involutive
//! (`neighbor(neighbor(n, t, dir), t, dir.opposite()) == n`) — the property
//! the simulator engines rely on for credit returns. An endpoint `p` owns the
//! single up-port `p mod k`, matching the leaf's down-port for that endpoint.

use crate::channel::Direction;
use crate::coords::NodeId;
use crate::network::NetworkError;
use std::collections::VecDeque;
use std::fmt;

/// Role of a fat-tree node: a compute endpoint or a switch at some level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FatTreeNode {
    /// Compute endpoint `p` in `0..k^l`.
    Endpoint(u32),
    /// Switch `index` in `0..k^(l-1)` at `level` in `0..l` (0 = leaf).
    Switch {
        /// Level of the switch, `0..l` (0 is the leaf level).
        level: u32,
        /// Index of the switch within its level, `0..k^(l-1)`.
        index: u32,
    },
}

/// A k-ary l-level fat-tree.
///
/// Like [`Network`](crate::Network), the topology owns no per-node state; it
/// is a pure description of the id space and channel structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FatTree {
    arity: u16,
    levels: u32,
    num_endpoints: u32,
    switches_per_level: u32,
}

impl FatTree {
    /// Creates a k-ary l-level fat-tree.
    ///
    /// # Errors
    /// Returns an error when `arity < 2`, `levels < 1`, or the node-id /
    /// channel-id space would overflow.
    pub fn new(arity: u16, levels: u32) -> Result<Self, NetworkError> {
        if arity < 2 {
            return Err(NetworkError::RadixTooSmall {
                dim: 0,
                radix: arity,
            });
        }
        if levels < 1 {
            return Err(NetworkError::DimensionTooSmall(levels));
        }
        let k = arity as u64;
        let mut endpoints: u64 = 1;
        for _ in 0..levels {
            endpoints = endpoints.checked_mul(k).ok_or(NetworkError::TooManyNodes)?;
            if endpoints > u32::MAX as u64 {
                return Err(NetworkError::TooManyNodes);
            }
        }
        let switches_per_level = endpoints / k;
        let num_nodes = endpoints + levels as u64 * switches_per_level;
        // The dense channel-id space is num_nodes * 2k; keep it in u32 range.
        if num_nodes
            .checked_mul(2 * k)
            .is_none_or(|slots| slots > u32::MAX as u64)
        {
            return Err(NetworkError::TooManyNodes);
        }
        Ok(FatTree {
            arity,
            levels,
            num_endpoints: endpoints as u32,
            switches_per_level: switches_per_level as u32,
        })
    }

    /// Arity `k` of the tree (children per switch, also ports per direction).
    #[inline]
    pub fn arity(&self) -> u16 {
        self.arity
    }

    /// Number of switch levels `l`.
    #[inline]
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Number of compute endpoints, `k^l`.
    #[inline]
    pub fn num_endpoints(&self) -> usize {
        self.num_endpoints as usize
    }

    /// Number of switches per level, `k^(l-1)`.
    #[inline]
    pub fn switches_per_level(&self) -> usize {
        self.switches_per_level as usize
    }

    /// Total number of nodes (endpoints plus all switches).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        (self.num_endpoints + self.levels * self.switches_per_level) as usize
    }

    /// Number of port slots per direction (`k`), playing the role the
    /// dimensionality plays in the grid's dense channel-id encoding.
    #[inline]
    pub fn dims(&self) -> usize {
        self.arity as usize
    }

    /// Number of unidirectional channels that physically exist:
    /// `2 * l * k^l` (each of the `l` inter-level link stages, including the
    /// endpoint–leaf stage, has `k^l` bidirectional links).
    pub fn num_channels(&self) -> usize {
        2 * self.levels as usize * self.num_endpoints()
    }

    /// Classifies a node id into its role.
    ///
    /// # Panics
    /// Panics (in debug builds) when the id is out of range.
    pub fn classify(&self, node: NodeId) -> FatTreeNode {
        if node.0 < self.num_endpoints {
            return FatTreeNode::Endpoint(node.0);
        }
        let rest = node.0 - self.num_endpoints;
        let level = rest / self.switches_per_level;
        debug_assert!(level < self.levels, "node id out of range");
        FatTreeNode::Switch {
            level,
            index: rest % self.switches_per_level,
        }
    }

    /// Node id of switch `index` at `level`.
    pub fn switch_id(&self, level: u32, index: u32) -> NodeId {
        debug_assert!(level < self.levels && index < self.switches_per_level);
        NodeId(self.num_endpoints + level * self.switches_per_level + index)
    }

    /// Node id of endpoint `p`.
    #[inline]
    pub fn endpoint_id(&self, p: u32) -> NodeId {
        debug_assert!(p < self.num_endpoints);
        NodeId(p)
    }

    /// Leaf switch an endpoint hangs off.
    pub fn leaf_of(&self, endpoint: NodeId) -> NodeId {
        debug_assert!(endpoint.0 < self.num_endpoints);
        self.switch_id(0, endpoint.0 / self.arity as u32)
    }

    /// Base-k digit of a switch index at position `pos` (`0..l-1`).
    #[inline]
    fn digit(&self, index: u32, pos: u32) -> u32 {
        (index / (self.arity as u32).pow(pos)) % self.arity as u32
    }

    /// Switch index with the digit at `pos` replaced by `d`.
    #[inline]
    fn with_digit(&self, index: u32, pos: u32, d: u32) -> u32 {
        let stride = (self.arity as u32).pow(pos);
        index - self.digit(index, pos) * stride + d * stride
    }

    /// The neighbour over port `(dim, dir)` (`dir == Plus` is up), or `None`
    /// when that port does not exist (endpoint down-ports and non-matching
    /// endpoint up-ports, top-switch up-ports, out-of-range port indices).
    pub fn neighbor(&self, node: NodeId, dim: usize, dir: Direction) -> Option<NodeId> {
        let k = self.arity as u32;
        if dim >= k as usize {
            return None;
        }
        let t = dim as u32;
        match self.classify(node) {
            FatTreeNode::Endpoint(p) => match dir {
                // The single up-port of endpoint p carries index p mod k.
                Direction::Plus if t == p % k => Some(self.switch_id(0, p / k)),
                _ => None,
            },
            FatTreeNode::Switch { level, index } => match dir {
                Direction::Plus => {
                    if level + 1 >= self.levels {
                        return None;
                    }
                    // Port t on the child side selects the parent whose digit
                    // at position `level` is (t - w_level) mod k.
                    let j = (t + k - self.digit(index, level)) % k;
                    Some(self.switch_id(level + 1, self.with_digit(index, level, j)))
                }
                Direction::Minus => {
                    if level == 0 {
                        return Some(self.endpoint_id(index * k + t));
                    }
                    let pos = level - 1;
                    let i = (t + k - self.digit(index, pos)) % k;
                    Some(self.switch_id(level - 1, self.with_digit(index, pos, i)))
                }
            },
        }
    }

    /// True if the outgoing channel of `node` over `(dim, dir)` exists.
    #[inline]
    pub fn has_channel(&self, node: NodeId, dim: usize, dir: Direction) -> bool {
        self.neighbor(node, dim, dir).is_some()
    }

    /// All live parents of a node (switches one level up, or the leaf switch
    /// of an endpoint), with the up-port used to reach each.
    pub fn parents(&self, node: NodeId) -> Vec<(usize, NodeId)> {
        (0..self.dims())
            .filter_map(|t| self.neighbor(node, t, Direction::Plus).map(|p| (t, p)))
            .collect()
    }

    /// Generalised position of a node: its level (`-1` for endpoints) plus
    /// its digit at position `pos`, where endpoints carry the extra digit
    /// `p mod k` at position `-1` and their leaf's digits above. Switches
    /// have no digit at position `-1` (`None`).
    fn digit_at(&self, node: NodeId, pos: i32) -> Option<u32> {
        match self.classify(node) {
            FatTreeNode::Endpoint(p) => {
                if pos < 0 {
                    Some(p % self.arity as u32)
                } else {
                    Some(self.digit(p / self.arity as u32, pos as u32))
                }
            }
            FatTreeNode::Switch { index, .. } => {
                if pos < 0 {
                    None
                } else {
                    Some(self.digit(index, pos as u32))
                }
            }
        }
    }

    /// Level of a node, with endpoints at level `-1`.
    fn level_i32(&self, node: NodeId) -> i32 {
        match self.classify(node) {
            FatTreeNode::Endpoint(_) => -1,
            FatTreeNode::Switch { level, .. } => level as i32,
        }
    }

    /// True when `dest` is reachable from `node` by pure descent (`node` is
    /// an ancestor in the up*/down* routing sense). `node == dest` counts.
    pub fn descends_to(&self, node: NodeId, dest: NodeId) -> bool {
        let la = self.level_i32(node);
        let lb = self.level_i32(dest);
        if la < lb {
            return false;
        }
        if la == lb {
            return node == dest;
        }
        // Digits at positions >= la (untouched above) and < lb (untouched
        // below the descent) must agree.
        for pos in -1..self.levels as i32 - 1 {
            if pos >= lb && pos < la {
                continue;
            }
            if let (Some(da), Some(db)) = (self.digit_at(node, pos), self.digit_at(dest, pos)) {
                if da != db {
                    return false;
                }
            }
        }
        true
    }

    /// Minimal hop distance between two nodes.
    ///
    /// Endpoint-to-endpoint pairs (the hot path: every routed message) use
    /// the closed form `2h + 4` over the highest differing leaf digit `h`;
    /// pairs involving switches fall back to a breadth-first search.
    pub fn distance(&self, src: NodeId, dest: NodeId) -> u32 {
        if src == dest {
            return 0;
        }
        if src.0 < self.num_endpoints && dest.0 < self.num_endpoints {
            // Meeting level = one above the highest differing digit
            // (position -1 compares the endpoints' indices within the leaf).
            let mut h: i32 = -2;
            for pos in -1..self.levels as i32 - 1 {
                if self.digit_at(src, pos) != self.digit_at(dest, pos) {
                    h = pos;
                }
            }
            let m = (h + 1).max(0);
            return (2 * (m + 1)) as u32;
        }
        self.bfs_distance(src, dest)
    }

    /// Exact hop distance by breadth-first search (cold path: switch pairs).
    fn bfs_distance(&self, src: NodeId, dest: NodeId) -> u32 {
        let mut dist = vec![u32::MAX; self.num_nodes()];
        dist[src.index()] = 0;
        let mut queue = VecDeque::from([src]);
        while let Some(cur) = queue.pop_front() {
            if cur == dest {
                return dist[cur.index()];
            }
            for dim in 0..self.dims() {
                for dir in Direction::BOTH {
                    let Some(next) = self.neighbor(cur, dim, dir) else {
                        continue;
                    };
                    if dist[next.index()] == u32::MAX {
                        dist[next.index()] = dist[cur.index()] + 1;
                        queue.push_back(next);
                    }
                }
            }
        }
        unreachable!("a fat-tree is connected")
    }

    /// Average hop distance over all ordered pairs of distinct *endpoints*
    /// (the indirect-network analogue of the grid's node-pair average).
    pub fn average_distance(&self) -> f64 {
        let e = self.num_endpoints() as u64;
        let k = self.arity as u64;
        // Count pairs by meeting level: 2(m+1) hops for the pairs whose
        // nearest common ancestor sits at level m. Of the e*(e-1) ordered
        // pairs, those meeting at level m share the top l-1-m digits.
        let mut total: u128 = 0;
        let mut same_subtree = 1u64; // endpoints under one level-m subtree
        for m in 0..self.levels as u64 {
            let subtree = same_subtree * k; // endpoints under one level-m node
            let pairs = e * (subtree - same_subtree); // ordered pairs meeting at m
            total += (2 * (m + 1)) as u128 * pairs as u128;
            same_subtree = subtree;
        }
        total as f64 / (e * (e - 1)) as f64
    }

    /// Human-readable label of a node: `e<p>` for endpoints, `s<level>.<w>`
    /// for switches.
    pub fn node_label(&self, node: NodeId) -> String {
        match self.classify(node) {
            FatTreeNode::Endpoint(p) => format!("e{p}"),
            FatTreeNode::Switch { level, index } => format!("s{level}.{index}"),
        }
    }
}

impl fmt::Display for FatTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ft:{},{}", self.arity, self.levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::AnyTopology;

    fn any(ft: &FatTree) -> AnyTopology {
        AnyTopology::FatTree(ft.clone())
    }

    #[test]
    fn construction_and_sizes() {
        let ft = FatTree::new(4, 2).unwrap();
        assert_eq!(ft.num_endpoints(), 16);
        assert_eq!(ft.switches_per_level(), 4);
        assert_eq!(ft.num_nodes(), 24);
        assert_eq!(ft.dims(), 4);
        assert_eq!(ft.num_channels(), 2 * 2 * 16);
        assert_eq!(any(&ft).channel_slots(), 24 * 8);
        let ft = FatTree::new(4, 3).unwrap();
        assert_eq!(ft.num_endpoints(), 64);
        assert_eq!(ft.num_nodes(), 64 + 3 * 16);
        let ft = FatTree::new(2, 1).unwrap();
        assert_eq!(ft.num_endpoints(), 2);
        assert_eq!(ft.num_nodes(), 3);
    }

    #[test]
    fn construction_errors() {
        assert_eq!(
            FatTree::new(1, 2).unwrap_err(),
            NetworkError::RadixTooSmall { dim: 0, radix: 1 }
        );
        assert_eq!(
            FatTree::new(4, 0).unwrap_err(),
            NetworkError::DimensionTooSmall(0)
        );
        assert_eq!(FatTree::new(2, 40).unwrap_err(), NetworkError::TooManyNodes);
    }

    #[test]
    fn classify_roundtrip() {
        let ft = FatTree::new(4, 3).unwrap();
        for node in any(&ft).nodes() {
            match ft.classify(node) {
                FatTreeNode::Endpoint(p) => {
                    assert_eq!(ft.endpoint_id(p), node);
                    assert!(any(&ft).is_endpoint(node));
                }
                FatTreeNode::Switch { level, index } => {
                    assert_eq!(ft.switch_id(level, index), node);
                    assert!(!any(&ft).is_endpoint(node));
                }
            }
        }
        assert_eq!(any(&ft).endpoints().count(), 64);
    }

    #[test]
    fn endpoint_wiring() {
        let ft = FatTree::new(4, 2).unwrap();
        // Endpoint 6 hangs off leaf switch 1 over up-port 6 mod 4 = 2.
        let e = ft.endpoint_id(6);
        assert_eq!(ft.leaf_of(e), ft.switch_id(0, 1));
        assert_eq!(ft.neighbor(e, 2, Direction::Plus), Some(ft.switch_id(0, 1)));
        assert_eq!(ft.neighbor(e, 0, Direction::Plus), None);
        assert_eq!(ft.neighbor(e, 2, Direction::Minus), None);
        // The leaf's down-port 2 leads back to the endpoint.
        assert_eq!(
            ft.neighbor(ft.switch_id(0, 1), 2, Direction::Minus),
            Some(e)
        );
        assert_eq!(any(&ft).neighbors(e).count(), 1);
    }

    #[test]
    fn switch_degrees() {
        let ft = FatTree::new(4, 3).unwrap();
        for node in any(&ft).nodes() {
            let deg = any(&ft).neighbors(node).count();
            match ft.classify(node) {
                FatTreeNode::Endpoint(_) => assert_eq!(deg, 1),
                FatTreeNode::Switch { level, .. } => {
                    // Top switches have no parents; everyone has k children.
                    let expected = if level + 1 == ft.levels() { 4 } else { 8 };
                    assert_eq!(deg, expected, "level {level}");
                }
            }
        }
    }

    #[test]
    fn neighbor_is_involutive() {
        for ft in [
            FatTree::new(4, 2).unwrap(),
            FatTree::new(2, 3).unwrap(),
            FatTree::new(3, 3).unwrap(),
        ] {
            for node in any(&ft).nodes() {
                for dim in 0..ft.dims() {
                    for dir in Direction::BOTH {
                        if let Some(nb) = ft.neighbor(node, dim, dir) {
                            assert_eq!(
                                ft.neighbor(nb, dim, dir.opposite()),
                                Some(node),
                                "{node:?} d{dim}{dir}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn channel_count_matches_enumeration() {
        for ft in [FatTree::new(4, 2).unwrap(), FatTree::new(2, 3).unwrap()] {
            let listed: usize = any(&ft)
                .nodes()
                .map(|n| {
                    (0..ft.dims())
                        .flat_map(|d| Direction::BOTH.map(|dir| (d, dir)))
                        .filter(|&(d, dir)| ft.has_channel(n, d, dir))
                        .count()
                })
                .sum();
            assert_eq!(listed, ft.num_channels());
        }
    }

    #[test]
    fn parents_agree_per_level() {
        let ft = FatTree::new(4, 3).unwrap();
        // Every non-top switch has exactly k distinct parents at the level
        // above; all k children of a parent list it among their parents.
        let leaf = ft.switch_id(0, 5);
        let parents = ft.parents(leaf);
        assert_eq!(parents.len(), 4);
        for &(_, p) in &parents {
            match ft.classify(p) {
                FatTreeNode::Switch { level, .. } => assert_eq!(level, 1),
                _ => panic!("parent must be a switch"),
            }
            assert!(any(&ft).neighbors(p).any(|(_, n)| n == leaf));
        }
        let top = ft.switch_id(2, 0);
        assert!(ft.parents(top).is_empty());
    }

    #[test]
    fn descends_to_matches_subtrees() {
        let ft = FatTree::new(4, 2).unwrap();
        let leaf0 = ft.switch_id(0, 0);
        // Leaf 0 descends exactly to endpoints 0..4.
        for p in 0..16 {
            assert_eq!(ft.descends_to(leaf0, ft.endpoint_id(p)), p < 4, "e{p}");
        }
        // Every top switch descends to every endpoint.
        for w in 0..4 {
            let top = ft.switch_id(1, w);
            for p in 0..16 {
                assert!(ft.descends_to(top, ft.endpoint_id(p)));
            }
            assert!(ft.descends_to(top, leaf0));
        }
        assert!(!ft.descends_to(leaf0, ft.switch_id(1, 0)));
        assert!(ft.descends_to(leaf0, leaf0));
    }

    #[test]
    fn endpoint_distances() {
        let ft = FatTree::new(4, 2).unwrap();
        let a = ft.endpoint_id(0);
        assert_eq!(ft.distance(a, a), 0);
        // Same leaf: up, down.
        assert_eq!(ft.distance(a, ft.endpoint_id(3)), 2);
        // Different leaf: up to the top and back down.
        assert_eq!(ft.distance(a, ft.endpoint_id(4)), 4);
        assert_eq!(ft.distance(a, ft.endpoint_id(15)), 4);
        let ft3 = FatTree::new(2, 3).unwrap();
        assert_eq!(ft3.distance(ft3.endpoint_id(0), ft3.endpoint_id(1)), 2);
        assert_eq!(ft3.distance(ft3.endpoint_id(0), ft3.endpoint_id(2)), 4);
        assert_eq!(ft3.distance(ft3.endpoint_id(0), ft3.endpoint_id(7)), 6);
    }

    #[test]
    fn distance_formula_matches_bfs_on_endpoints() {
        let ft = FatTree::new(3, 2).unwrap();
        for a in any(&ft).endpoints() {
            for b in any(&ft).endpoints() {
                assert_eq!(ft.distance(a, b), ft.bfs_distance(a, b), "{a:?}->{b:?}");
            }
        }
    }

    #[test]
    fn switch_distances_via_bfs() {
        let ft = FatTree::new(4, 2).unwrap();
        // Endpoint to its leaf: one hop; to the top: two.
        assert_eq!(ft.distance(ft.endpoint_id(0), ft.switch_id(0, 0)), 1);
        assert_eq!(ft.distance(ft.endpoint_id(0), ft.switch_id(1, 2)), 2);
        // Two leaves: via any common parent.
        assert_eq!(ft.distance(ft.switch_id(0, 0), ft.switch_id(0, 3)), 2);
    }

    #[test]
    fn average_distance_matches_pairwise_mean() {
        for ft in [FatTree::new(4, 2).unwrap(), FatTree::new(2, 3).unwrap()] {
            let mut total = 0u64;
            let mut pairs = 0u64;
            for a in any(&ft).endpoints() {
                for b in any(&ft).endpoints() {
                    if a != b {
                        total += ft.distance(a, b) as u64;
                        pairs += 1;
                    }
                }
            }
            let expected = total as f64 / pairs as f64;
            assert!(
                (ft.average_distance() - expected).abs() < 1e-9,
                "{ft}: {} vs {expected}",
                ft.average_distance()
            );
        }
    }

    #[test]
    fn labels_and_display() {
        let ft = FatTree::new(4, 2).unwrap();
        assert_eq!(ft.node_label(ft.endpoint_id(7)), "e7");
        assert_eq!(ft.node_label(ft.switch_id(1, 3)), "s1.3");
        assert_eq!(format!("{ft}"), "ft:4,2");
    }
}
