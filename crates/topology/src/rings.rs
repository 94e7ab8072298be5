//! Dateline bookkeeping for deadlock-free virtual-channel class assignment.
//!
//! Rings (wrapped dimensions) contain an inherent cyclic channel dependency.
//! The classical remedy (Dally & Seitz) splits the virtual channels of every
//! ring into two classes and places a *dateline* on each ring: a message
//! starts on class 0 (the "high" channels) and switches permanently to class 1
//! (the "low" channels) for the remainder of its travel in that dimension once
//! it crosses the dateline. Because a message can cross the dateline of a
//! ring at most once on a minimal route, the resulting extended
//! channel-dependency graph is acyclic.
//!
//! Open (non-wrapping) dimensions have no wrap-around link, hence no cyclic
//! dependency and no dateline: deterministic routing may use the **whole** VC
//! pool on such a dimension, and a pure mesh needs no dateline split at all
//! (verified explicitly by the CDG acyclicity tests in `torus-routing`).
//!
//! [`DatelinePolicy`] computes how a pool of `V` virtual channels is
//! partitioned between the classes (and,
//! for Duato's protocol, how many channels remain available as fully adaptive
//! channels). All partition queries are wrap-aware: they take the dimension of
//! the hop and collapse to a single class on open dimensions. Fat-trees have
//! no rings at all, so [`DatelinePolicy::of`] treats them as the one-class
//! case throughout.

use crate::network::Network;
use crate::topo::AnyTopology;

/// Virtual-channel class required by the dateline scheme on a given hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VcClass {
    /// Before crossing the ring's dateline.
    BeforeDateline,
    /// After crossing the ring's dateline.
    AfterDateline,
}

impl VcClass {
    /// Encodes the class as 0 / 1.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            VcClass::BeforeDateline => 0,
            VcClass::AfterDateline => 1,
        }
    }
}

/// Assignment of dateline classes and partitioning of virtual channels.
///
/// The policy needs only the topology; datelines are placed uniformly on the
/// wrap-around link of every ring (the hop from position `k-1` to `0` in the
/// Plus direction and from `0` to `k-1` in the Minus direction). Open
/// dimensions carry no dateline.
///
/// The policy borrows the network (it is built on every routing decision in
/// the simulator's hot path, so it must stay allocation-free). A policy
/// without a grid (a fat-tree's) has no wrapped dimension anywhere.
#[derive(Clone, Copy, Debug)]
pub struct DatelinePolicy<'a> {
    net: Option<&'a Network>,
}

impl<'a> DatelinePolicy<'a> {
    /// Creates the dateline policy for a network.
    pub fn new(net: &'a Network) -> Self {
        DatelinePolicy { net: Some(net) }
    }

    /// The dateline policy of either topology backend: a grid's own, and the
    /// one-class policy on a fat-tree, which has no rings.
    pub fn of(net: &'a AnyTopology) -> Self {
        DatelinePolicy { net: net.grid() }
    }

    /// True if dimension `dim` wraps (and so carries a dateline).
    #[inline]
    fn wraps(&self, dim: usize) -> bool {
        self.net.is_some_and(|net| net.wraps(dim))
    }

    /// True if at least one dimension wraps (the network needs two dateline
    /// classes somewhere).
    pub fn any_wrap(&self) -> bool {
        self.net.is_some_and(Network::any_wrap)
    }

    /// Number of dateline classes the deterministic / escape layer needs:
    /// 2 when any dimension wraps, 1 on a pure mesh (the dateline VC is
    /// provably unnecessary when no dimension wraps).
    pub fn num_classes(&self) -> usize {
        if self.any_wrap() {
            2
        } else {
            1
        }
    }

    /// Minimum virtual channels per physical channel required for
    /// deterministic (e-cube) routing on this topology.
    pub fn min_deterministic_vcs(&self) -> usize {
        self.num_classes()
    }

    /// Minimum virtual channels per physical channel required for Duato's
    /// protocol on this topology (the escape classes plus at least one
    /// adaptive channel).
    pub fn min_adaptive_vcs(&self) -> usize {
        self.num_classes() + 1
    }

    /// Partitions `v` virtual channels of a physical channel into the two
    /// dateline classes for purely deterministic routing on a *wrapped*
    /// dimension: channels `0 .. v/2` belong to class 0 and `v/2 .. v` to
    /// class 1 (when `v` is odd the extra channel goes to class 0).
    ///
    /// Returns the half-open index ranges `(class0, class1)`.
    pub fn deterministic_partition(
        &self,
        v: usize,
    ) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        assert!(
            v >= 2,
            "deterministic routing on a wrapped dimension needs at least 2 virtual channels"
        );
        let split = v.div_ceil(2);
        (0..split, split..v)
    }

    /// Index range of the permitted deterministic VCs for a hop in `dim` with
    /// the given dateline class.
    ///
    /// Wrapped dimensions use the dateline split of
    /// [`DatelinePolicy::deterministic_partition`]; open dimensions have no
    /// dateline and may use the whole VC pool.
    pub fn deterministic_range(
        &self,
        v: usize,
        dim: usize,
        class: VcClass,
    ) -> std::ops::Range<usize> {
        if !self.wraps(dim) {
            assert!(
                v >= 1,
                "deterministic routing needs at least 1 virtual channel"
            );
            return 0..v;
        }
        let (c0, c1) = self.deterministic_partition(v);
        match class {
            VcClass::BeforeDateline => c0,
            VcClass::AfterDateline => c1,
        }
    }

    /// Partitions `v` virtual channels for Duato's protocol: the first
    /// [`DatelinePolicy::num_classes`] channels are the escape channels
    /// (dateline classes of the embedded e-cube network) and the rest are
    /// fully adaptive.
    ///
    /// Returns `(escape, adaptive)` index ranges.
    pub fn adaptive_partition(&self, v: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let escapes = self.num_classes();
        assert!(
            v > escapes,
            "Duato's protocol needs at least {} virtual channels ({} escape + 1 adaptive)",
            escapes + 1,
            escapes
        );
        (0..escapes, escapes..v)
    }

    /// Index of the single escape VC for a hop in `dim` with the given class
    /// under Duato's protocol. On open dimensions there is only one escape
    /// class, so the escape VC is always channel 0.
    pub fn escape_vc(&self, dim: usize, class: VcClass) -> usize {
        if self.wraps(dim) {
            class.index()
        } else {
            0
        }
    }

    /// Index range of the adaptive VCs under Duato's protocol.
    pub fn adaptive_range(&self, v: usize) -> std::ops::Range<usize> {
        self.adaptive_partition(v).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torus(k: u16) -> Network {
        Network::torus(k, 2).unwrap()
    }

    fn mesh(k: u16) -> Network {
        Network::mesh(k, 2).unwrap()
    }

    #[test]
    fn deterministic_partition_splits_evenly() {
        let net = torus(8);
        let p = DatelinePolicy::new(&net);
        assert_eq!(p.deterministic_partition(4), (0..2, 2..4));
        assert_eq!(p.deterministic_partition(6), (0..3, 3..6));
        assert_eq!(p.deterministic_partition(10), (0..5, 5..10));
        assert_eq!(p.deterministic_partition(5), (0..3, 3..5));
        assert_eq!(p.deterministic_range(6, 0, VcClass::AfterDateline), 3..6);
    }

    #[test]
    fn mesh_dimensions_use_the_whole_pool() {
        let net_m = mesh(8);
        let m = DatelinePolicy::new(&net_m);
        assert_eq!(m.deterministic_range(4, 0, VcClass::BeforeDateline), 0..4);
        assert_eq!(m.deterministic_range(1, 1, VcClass::BeforeDateline), 0..1);
        assert_eq!(m.num_classes(), 1);
        assert_eq!(m.min_deterministic_vcs(), 1);
        assert_eq!(m.min_adaptive_vcs(), 2);
        // Mixed shape: the open dimension sees the whole pool, the wrapped one
        // the dateline split.
        let mixed_net = Network::new(vec![8, 4], vec![true, false]).unwrap();
        let mixed = DatelinePolicy::new(&mixed_net);
        assert_eq!(mixed.num_classes(), 2);
        assert_eq!(
            mixed.deterministic_range(4, 0, VcClass::AfterDateline),
            2..4
        );
        assert_eq!(
            mixed.deterministic_range(4, 1, VcClass::BeforeDateline),
            0..4
        );
    }

    #[test]
    #[should_panic(expected = "at least 2 virtual channels")]
    fn deterministic_partition_requires_two_vcs() {
        let net = torus(8);
        DatelinePolicy::new(&net).deterministic_partition(1);
    }

    #[test]
    fn adaptive_partition_reserves_escape_channels() {
        let net = torus(8);
        let p = DatelinePolicy::new(&net);
        let (e, a) = p.adaptive_partition(10);
        assert_eq!(e, 0..2);
        assert_eq!(a, 2..10);
        assert_eq!(p.escape_vc(0, VcClass::BeforeDateline), 0);
        assert_eq!(p.escape_vc(0, VcClass::AfterDateline), 1);
        assert_eq!(p.adaptive_range(4), 2..4);
        // Pure mesh: one escape class, larger adaptive pool, escape VC 0.
        let net_m = mesh(8);
        let m = DatelinePolicy::new(&net_m);
        let (e, a) = m.adaptive_partition(4);
        assert_eq!(e, 0..1);
        assert_eq!(a, 1..4);
        assert_eq!(m.escape_vc(1, VcClass::AfterDateline), 0);
        assert_eq!(m.adaptive_range(2), 1..2);
    }

    #[test]
    #[should_panic(expected = "at least 3 virtual channels")]
    fn adaptive_partition_requires_three_vcs_with_wrap() {
        let net = torus(8);
        DatelinePolicy::new(&net).adaptive_partition(2);
    }

    #[test]
    #[should_panic(expected = "at least 2 virtual channels")]
    fn adaptive_partition_requires_two_vcs_on_mesh() {
        let net = mesh(8);
        DatelinePolicy::new(&net).adaptive_partition(1);
    }

    #[test]
    fn classes_are_disjoint_and_cover_all_vcs() {
        let net = torus(16);
        let p = DatelinePolicy::new(&net);
        for v in 2..=12 {
            let (c0, c1) = p.deterministic_partition(v);
            assert_eq!(c0.end, c1.start);
            assert_eq!(c1.end, v);
            assert!(!c0.is_empty());
            assert!(!c1.is_empty() || v < 2);
        }
    }
}
