//! Channel-dependency-graph (CDG) analysis.
//!
//! The deadlock-freedom argument of the paper (Section 4) rests on the
//! classical result that a routing algorithm is deadlock free if its (extended)
//! channel dependency graph is acyclic. This module materialises that graph
//! for the deterministic / escape layer of the Software-Based scheme — the
//! layer that carries every faulted message — and checks acyclicity
//! explicitly, which the test-suite exercises for representative network
//! sizes. It can also build the *naive* dependency graph that ignores the
//! dateline virtual-channel classes, demonstrating that torus wrap-around
//! links do introduce cycles without them — and, conversely, that on meshes
//! (no wrapped dimension) the naive single-class graph is already acyclic,
//! i.e. the dateline VC is provably unnecessary there.

//!
//! For the negative-first turn model the module builds the *turn-rule* CDG
//! ([`build_turn_cdg`]): an over-approximation containing a dependency edge
//! for **every** pair of consecutive channels a turn-permitted route could
//! occupy, not just the pairs the canonical routes actually use. Acyclicity
//! of this graph therefore proves deadlock freedom for every routing function
//! obeying the turn rule — the deterministic negative-first order and the
//! phase-adaptive variant alike — with a single virtual channel per physical
//! channel.

use crate::ecube::{ecube_output, ecube_vc_class};
use crate::header::{RouteHeader, RoutingFlavor};
use torus_topology::{
    AnyTopology, ChannelId, DirectedChannel, Direction, Network, NodeId, VcClass,
};

/// A dependency graph over virtual-channel resources.
#[derive(Clone, Debug, Default)]
pub struct DependencyGraph {
    /// Number of resource vertices.
    num_vertices: usize,
    /// Adjacency list: `edges[a]` holds every `b` such that a message can hold
    /// resource `a` while requesting resource `b`, once each, in first-insertion
    /// order (which fixes the cycle [`DependencyGraph::find_cycle`] reports).
    edges: Vec<Vec<usize>>,
    num_edges: usize,
}

impl DependencyGraph {
    /// Creates an edge-free graph over `num_vertices` resource vertices.
    pub fn new(num_vertices: usize) -> Self {
        DependencyGraph {
            num_vertices,
            edges: vec![Vec::new(); num_vertices],
            num_edges: 0,
        }
    }

    /// Records the dependency `from -> to`. Duplicate edges and self-loops
    /// (a worm re-requesting the resource it already holds) are ignored.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        if from != to && !self.edges[from].contains(&to) {
            self.edges[from].push(to);
            self.num_edges += 1;
        }
    }

    /// Number of resource vertices in the graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of (deduplicated) dependency edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether the dependency `from -> to` has been recorded.
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        self.edges
            .get(from)
            .is_some_and(|succs| succs.contains(&to))
    }

    /// Iterates over every recorded `(from, to)` dependency edge.
    pub fn iter_edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .flat_map(|(from, succs)| succs.iter().map(move |&to| (from, to)))
    }

    /// True if the graph contains no directed cycle.
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }

    /// Returns a directed cycle as a witness, or `None` if the graph is
    /// acyclic: [`find_cycle`] from every vertex in turn. The returned
    /// vertices `v0, v1, .., vk` are a closed walk: every consecutive pair
    /// `(vi, vi+1)` is a recorded edge, as is `(vk, v0)`.
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        find_cycle(self.num_vertices, 0..self.num_vertices, |v, i| {
            self.edges[v].get(i).copied()
        })
    }
}

/// Three-colour depth-first search over the vertices `0..len` from `roots`
/// in turn (colours shared between them), where `successor(v, i)` is the
/// `i`-th successor of `v` (`None` past the last): the first cycle met among
/// the vertices reachable from a root, as the run of vertices on the search
/// stack that the closing edge re-enters. A cycle reachable only from
/// vertices outside `roots` is not reported. The channel dependency graph's
/// deadlock check and the verifier's per-pair livelock check both run it.
pub fn find_cycle(
    len: usize,
    roots: impl IntoIterator<Item = usize>,
    mut successor: impl FnMut(usize, usize) -> Option<usize>,
) -> Option<Vec<usize>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour = vec![Colour::White; len];
    // Stack of (vertex, next-successor-index).
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in roots {
        if colour[root] != Colour::White {
            continue;
        }
        colour[root] = Colour::Grey;
        stack.push((root, 0));
        while let Some(&mut (v, ref mut idx)) = stack.last_mut() {
            let Some(child) = successor(v, *idx) else {
                colour[v] = Colour::Black;
                stack.pop();
                continue;
            };
            *idx += 1;
            match colour[child] {
                Colour::Grey => {
                    // The DFS stack from `child` up to `v` is the cycle.
                    let pos = stack
                        .iter()
                        .position(|&(u, _)| u == child)
                        .expect("grey vertices are always on the DFS stack");
                    return Some(stack[pos..].iter().map(|&(u, _)| u).collect());
                }
                Colour::White => {
                    colour[child] = Colour::Grey;
                    stack.push((child, 0));
                }
                Colour::Black => {}
            }
        }
    }
    None
}

/// Resource granularity used when building the dependency graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VcModel {
    /// Each physical channel contributes two resources, one per dateline
    /// class — the scheme actually used by the deterministic / escape layer
    /// on networks with wrapped dimensions.
    DatelineClasses,
    /// Each physical channel is a single resource (no virtual-channel
    /// classes). On a torus this graph is cyclic, which is exactly why the
    /// dateline classes are needed; on a mesh it is acyclic — one VC per
    /// class suffices when no dimension wraps.
    SingleClass,
}

fn resource_id(net: &Network, model: VcModel, ch: DirectedChannel, class: VcClass) -> usize {
    let slot = ChannelId::new(ch, net.dims()).index();
    match model {
        VcModel::DatelineClasses => slot * 2 + class.index(),
        VcModel::SingleClass => slot,
    }
}

/// Resource vertices are allocated per channel *slot* of the dense id space,
/// so missing mesh-edge channels simply leave isolated (edge-free) vertices.
fn num_resources(net: &Network, model: VcModel) -> usize {
    let slots = ChannelId::slots(net.num_nodes(), net.dims());
    match model {
        VcModel::DatelineClasses => slots * 2,
        VcModel::SingleClass => slots,
    }
}

/// Builds the channel dependency graph of dimension-order routing on the
/// fault-free network, walking every ordered (source, destination) pair and
/// recording the successive virtual-channel resources a message holds.
pub fn build_ecube_cdg(net: &Network, model: VcModel) -> DependencyGraph {
    let mut graph = DependencyGraph::new(num_resources(net, model));
    let nodes = || (0..net.num_nodes()).map(NodeId::from_index);
    for src in nodes() {
        for dest in nodes() {
            if src == dest {
                continue;
            }
            let mut header = RouteHeader::new(net.dims(), src, dest, RoutingFlavor::Deterministic);
            let mut current = src;
            let mut previous: Option<usize> = None;
            while let Some((dim, dir)) = ecube_output(net, &header, current) {
                let ch = DirectedChannel::new(current, dim, dir);
                let resource = resource_id(net, model, ch, ecube_vc_class(&header, dim));
                if let Some(prev) = previous {
                    graph.add_edge(prev, resource);
                }
                previous = Some(resource);
                header.hops += 1;
                header.note_grid_bookkeeping(net, current, dim, dir);
                current = net
                    .neighbor(current, dim, dir)
                    .expect("e-cube hop always crosses an existing channel");
            }
        }
    }
    graph
}

/// Turn rule used by [`build_turn_cdg`] and the turn-model substrates.
///
/// Every rule is a *per-dimension direction priority*: each dimension names a
/// "first" direction, and a hop against a dimension's first direction (the
/// second phase) may never be followed by a hop *in* any dimension's first
/// direction. Negative-first is the special case where every dimension's
/// first direction is Minus; west-first flips dimension 0. Any such rule is a
/// reflection (per-dimension relabelling of Plus/Minus) of negative-first, so
/// its turn CDG is acyclic on open shapes for exactly the same reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TurnRule {
    /// Negative-first: a hop in the Minus direction may never follow a hop in
    /// the Plus direction. Breaks every dependency cycle on open dimensions.
    NegativeFirst,
    /// West-first: dimension 0 routes Minus ("west") in the first phase while
    /// every higher dimension routes Plus first. A reflection of
    /// negative-first in all dimensions but the first.
    WestFirst,
    /// North-last: dimension 0 routes Plus ("east") in the first phase while
    /// every higher dimension routes Minus first, so every Plus ("north")
    /// hop in the higher dimensions happens in the closing phase — the exact
    /// mirror of west-first, and another reflection of negative-first.
    NorthLast,
}

impl TurnRule {
    /// The direction `dim` routes during the first phase.
    #[inline]
    pub(crate) fn first_direction(self, dim: usize) -> Direction {
        match self {
            TurnRule::NegativeFirst => Direction::Minus,
            TurnRule::WestFirst if dim == 0 => Direction::Minus,
            TurnRule::WestFirst => Direction::Plus,
            TurnRule::NorthLast if dim == 0 => Direction::Plus,
            TurnRule::NorthLast => Direction::Minus,
        }
    }

    /// Whether a message holding a channel along `held` (dimension,
    /// direction) may next request a channel along `next` under this rule: a
    /// second-phase hop may never be followed by a first-phase hop.
    #[inline]
    pub(crate) fn permits(self, held: (usize, Direction), next: (usize, Direction)) -> bool {
        !(held.1 != self.first_direction(held.0) && next.1 == self.first_direction(next.0))
    }
}

/// Builds the single-VC-class channel dependency graph of **all** routes
/// permitted by `rule`: one edge per pair of channels `(held, requested)`
/// such that `requested` starts where `held` ends, is not the U-turn back
/// along `held`, and the turn is legal under the rule. `None` permits every
/// turn (except U-turns) — the unrestricted adaptive baseline, cyclic on any
/// mesh with at least two dimensions.
///
/// This over-approximates every concrete routing function obeying the rule
/// (minimal or not), so acyclicity here implies deadlock freedom for the
/// turn-model substrates with one virtual channel. Conversely, on a wrapped
/// dimension the same-direction dependency chain around the ring closes a
/// cycle no turn prohibition can break — which is exactly why the turn model
/// is rejected on wrapped dimensions.
pub fn build_turn_cdg(net: &AnyTopology, rule: Option<TurnRule>) -> DependencyGraph {
    let mut graph = DependencyGraph::new(net.channel_slots());
    for held in net.channels() {
        let mid = net
            .channel_dest(held)
            .expect("channels() yields only existing channels");
        let from = net.channel_id(held).index();
        for dim in 0..net.dims() {
            for dir in Direction::BOTH {
                if dim == held.dim && dir == held.dir.opposite() {
                    continue; // U-turn
                }
                if rule.is_some_and(|r| !r.permits((held.dim, held.dir), (dim, dir))) {
                    continue;
                }
                if !net.has_channel(mid, dim, dir) {
                    continue;
                }
                let to = net.channel_id(DirectedChannel::new(mid, dim, dir)).index();
                graph.add_edge(from, to);
            }
        }
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ecube_with_dateline_classes_is_acyclic() {
        for (k, n) in [(4u16, 2u32), (5, 2), (8, 2), (4, 3)] {
            let t = Network::torus(k, n).unwrap();
            let g = build_ecube_cdg(&t, VcModel::DatelineClasses);
            assert!(g.num_edges() > 0);
            assert!(
                g.is_acyclic(),
                "e-cube with dateline classes must be deadlock free on {k}-ary {n}-cube"
            );
        }
    }

    #[test]
    fn ecube_without_vc_classes_has_cycles_on_tori() {
        // The wrap-around links close a cycle in every ring when virtual
        // channel classes are ignored (k >= 4 so that a ring has at least
        // four channels in each direction).
        for (k, n) in [(4u16, 2u32), (8, 2)] {
            let t = Network::torus(k, n).unwrap();
            let g = build_ecube_cdg(&t, VcModel::SingleClass);
            assert!(
                !g.is_acyclic(),
                "single-class e-cube on a {k}-ary {n}-cube torus must contain cycles"
            );
        }
    }

    #[test]
    fn ecube_on_meshes_is_acyclic_even_without_vc_classes() {
        // The dateline VC exists solely because of wrap-around links: on a
        // mesh the single-class (one VC per class) dependency graph is already
        // acyclic, so deterministic routing needs only one virtual channel.
        for (k, n) in [(4u16, 2u32), (8, 2), (4, 3)] {
            let m = Network::mesh(k, n).unwrap();
            let g = build_ecube_cdg(&m, VcModel::SingleClass);
            assert!(g.num_edges() > 0);
            assert!(
                g.is_acyclic(),
                "single-class e-cube on a {k}-ary {n}-mesh must be acyclic"
            );
        }
    }

    #[test]
    fn ecube_on_hypercubes_is_acyclic_without_vc_classes() {
        for n in [3u32, 4, 5] {
            let h = Network::hypercube(n).unwrap();
            let g = build_ecube_cdg(&h, VcModel::SingleClass);
            assert!(g.num_edges() > 0);
            assert!(
                g.is_acyclic(),
                "single-class e-cube on the {n}-hypercube must be acyclic"
            );
        }
    }

    #[test]
    fn mixed_radix_networks_stay_acyclic_with_dateline_classes() {
        // A wrapped 4x4 plane with an open third dimension: the wrapped plane
        // still needs the dateline classes, and with them the whole mixed
        // shape is deadlock free.
        let net = Network::new(vec![4, 4, 3], vec![true, true, false]).unwrap();
        let g = build_ecube_cdg(&net, VcModel::DatelineClasses);
        assert!(g.is_acyclic());
        // Without classes the wrapped plane closes cycles.
        let naive = build_ecube_cdg(&net, VcModel::SingleClass);
        assert!(!naive.is_acyclic());
    }

    #[test]
    fn dependency_graph_counts() {
        let t = Network::torus(4, 2).unwrap();
        let slots = AnyTopology::Grid(t.clone()).channel_slots();
        let g = build_ecube_cdg(&t, VcModel::DatelineClasses);
        assert_eq!(g.num_vertices(), slots * 2);
        let g1 = build_ecube_cdg(&t, VcModel::SingleClass);
        assert_eq!(g1.num_vertices(), slots);
        assert!(g1.num_edges() <= g.num_edges() * 2);
    }

    #[test]
    fn fault_free_ecube_cdg_acyclic_across_dimensionalities() {
        // The deadlock-freedom argument must hold in n dimensions, not just
        // the 2-D cases the other tests cover: SW-Based-nD sends every
        // faulted message over this escape layer.
        for (k, n) in [(4u16, 1u32), (9, 1), (3, 3), (3, 4)] {
            let t = Network::torus(k, n).unwrap();
            let g = build_ecube_cdg(&t, VcModel::DatelineClasses);
            assert!(g.num_edges() > 0);
            assert!(
                g.is_acyclic(),
                "fault-free e-cube CDG must be acyclic on the {k}-ary {n}-cube"
            );
        }
    }

    #[test]
    fn negative_first_turn_cdg_is_acyclic_on_open_shapes() {
        // The tentpole claim: with the Plus->Minus turn prohibited, the
        // *complete* dependency graph of all permitted routes is acyclic with
        // a single VC class — on meshes, hypercubes and mixed-radix open
        // shapes alike. West-first and north-last are per-dimension
        // reflections of the same rule and must stay acyclic for the same
        // reason.
        for net in [
            AnyTopology::mesh(4, 2).unwrap(),
            AnyTopology::mesh(8, 2).unwrap(),
            AnyTopology::mesh(3, 3).unwrap(),
            AnyTopology::hypercube(5).unwrap(),
            Network::new(vec![6, 3, 2], vec![false, false, false])
                .unwrap()
                .into(),
        ] {
            for rule in [
                TurnRule::NegativeFirst,
                TurnRule::WestFirst,
                TurnRule::NorthLast,
            ] {
                let g = build_turn_cdg(&net, Some(rule));
                assert!(g.num_edges() > 0);
                assert!(g.is_acyclic(), "{rule:?} turn CDG must be acyclic on {net}");
            }
        }
    }

    #[test]
    fn unrestricted_turns_close_cycles_on_meshes() {
        // Without the turn restriction even a mesh deadlocks: the four turns
        // of any 2-D plane close a cycle. This is why the adaptive flavour
        // restricts its candidates to the current negative-first phase.
        for net in [
            AnyTopology::mesh(2, 2).unwrap(),
            AnyTopology::mesh(4, 2).unwrap(),
            AnyTopology::hypercube(3).unwrap(),
        ] {
            let g = build_turn_cdg(&net, None);
            assert!(
                !g.is_acyclic(),
                "unrestricted turn CDG on {net} must contain cycles"
            );
        }
        // A 1-D line has no turns at all; even unrestricted it is acyclic.
        let line = AnyTopology::mesh(8, 1).unwrap();
        assert!(build_turn_cdg(&line, None).is_acyclic());
    }

    #[test]
    fn negative_first_turn_cdg_is_cyclic_on_wrapped_dimensions() {
        // The reason the turn model is rejected on tori: a ring's
        // same-direction chain is a cycle no turn prohibition breaks.
        for net in [
            AnyTopology::torus(4, 2).unwrap(),
            AnyTopology::torus(8, 1).unwrap(),
            Network::new(vec![4, 3], vec![true, false]).unwrap().into(),
        ] {
            for rule in [
                TurnRule::NegativeFirst,
                TurnRule::WestFirst,
                TurnRule::NorthLast,
            ] {
                let g = build_turn_cdg(&net, Some(rule));
                assert!(
                    !g.is_acyclic(),
                    "{rule:?} turn CDG on wrapped {net} must contain cycles"
                );
            }
        }
    }

    #[test]
    fn turn_rule_permits_table() {
        use Direction::{Minus, Plus};
        // Negative-first ignores the dimensions: only second-phase (Plus)
        // followed by first-phase (Minus) is forbidden.
        for (held_dim, next_dim) in [(0usize, 1usize), (1, 0), (0, 2)] {
            assert!(TurnRule::NegativeFirst.permits((held_dim, Minus), (next_dim, Minus)));
            assert!(TurnRule::NegativeFirst.permits((held_dim, Minus), (next_dim, Plus)));
            assert!(TurnRule::NegativeFirst.permits((held_dim, Plus), (next_dim, Plus)));
            assert!(!TurnRule::NegativeFirst.permits((held_dim, Plus), (next_dim, Minus)));
        }
        // West-first flips dimension 0: its first phase is Minus (west) while
        // every higher dimension routes Plus first.
        assert_eq!(TurnRule::WestFirst.first_direction(0), Minus);
        assert_eq!(TurnRule::WestFirst.first_direction(1), Plus);
        assert_eq!(TurnRule::WestFirst.first_direction(5), Plus);
        // East (second phase of dim 0) may not be followed by west or north.
        assert!(!TurnRule::WestFirst.permits((0, Plus), (0, Minus)));
        assert!(!TurnRule::WestFirst.permits((0, Plus), (1, Plus)));
        // South (second phase of dim 1) may not be followed by west or north.
        assert!(!TurnRule::WestFirst.permits((1, Minus), (0, Minus)));
        assert!(!TurnRule::WestFirst.permits((1, Minus), (2, Plus)));
        // First-phase hops may be followed by anything.
        assert!(TurnRule::WestFirst.permits((0, Minus), (1, Minus)));
        assert!(TurnRule::WestFirst.permits((1, Plus), (0, Plus)));
        assert!(TurnRule::WestFirst.permits((1, Plus), (2, Minus)));
        // North-last mirrors west-first: dimension 0 routes Plus (east) first
        // while every higher dimension routes Minus first, so northward (Plus)
        // hops in the higher dimensions come last.
        assert_eq!(TurnRule::NorthLast.first_direction(0), Plus);
        assert_eq!(TurnRule::NorthLast.first_direction(1), Minus);
        assert_eq!(TurnRule::NorthLast.first_direction(5), Minus);
        // West (second phase of dim 0) may not be followed by east or south.
        assert!(!TurnRule::NorthLast.permits((0, Minus), (0, Plus)));
        assert!(!TurnRule::NorthLast.permits((0, Minus), (1, Minus)));
        // North (second phase of dim 1) may not be followed by east or south.
        assert!(!TurnRule::NorthLast.permits((1, Plus), (0, Plus)));
        assert!(!TurnRule::NorthLast.permits((1, Plus), (2, Minus)));
        // First-phase hops may be followed by anything.
        assert!(TurnRule::NorthLast.permits((0, Plus), (1, Plus)));
        assert!(TurnRule::NorthLast.permits((1, Minus), (0, Minus)));
        assert!(TurnRule::NorthLast.permits((1, Minus), (2, Plus)));
    }

    #[test]
    fn turn_cdg_vertex_space_matches_channel_slots() {
        let m = AnyTopology::mesh(4, 2).unwrap();
        let g = build_turn_cdg(&m, Some(TurnRule::NegativeFirst));
        assert_eq!(g.num_vertices(), m.channel_slots());
        // The restricted graph is a strict subgraph of the unrestricted one.
        let u = build_turn_cdg(&m, None);
        assert!(g.num_edges() < u.num_edges());
    }

    #[test]
    fn artificial_cycle_is_rejected() {
        // A hand-built dependency cycle a -> b -> c -> a must be caught
        // regardless of how many acyclic vertices surround it.
        let mut g = DependencyGraph::new(6);
        g.add_edge(3, 4);
        g.add_edge(4, 5);
        assert!(g.is_acyclic());
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        assert!(!g.is_acyclic(), "a 3-cycle must be detected");
    }

    #[test]
    fn two_vertex_cycle_is_rejected() {
        let mut g = DependencyGraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert!(!g.is_acyclic(), "a 2-cycle must be detected");
    }

    #[test]
    fn cycle_unreachable_from_low_vertices_is_still_found() {
        // The DFS restarts from every white vertex, so a cycle confined to
        // the high-numbered vertices must not be missed.
        let mut g = DependencyGraph::new(8);
        for v in 0..4 {
            g.add_edge(v, v + 1);
        }
        g.add_edge(6, 7);
        g.add_edge(7, 6);
        assert!(!g.is_acyclic());
    }

    #[test]
    fn self_loops_are_not_recorded_as_edges() {
        // `add_edge` drops a == b pairs: a worm re-requesting the resource it
        // already holds is not a dependency. The graph must stay acyclic.
        let mut g = DependencyGraph::new(2);
        g.add_edge(0, 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_acyclic());
    }

    #[test]
    fn long_chain_is_acyclic_and_diamond_reconvergence_is_not_a_cycle() {
        // Reconverging paths (0 -> 1 -> 3, 0 -> 2 -> 3) share a sink but
        // contain no directed cycle; three-colour DFS must not confuse a
        // Black revisit with a Grey back-edge.
        let mut g = DependencyGraph::new(1000);
        for v in 0..999 {
            g.add_edge(v, v + 1);
        }
        assert!(g.is_acyclic());
        let mut d = DependencyGraph::new(4);
        d.add_edge(0, 1);
        d.add_edge(0, 2);
        d.add_edge(1, 3);
        d.add_edge(2, 3);
        assert!(d.is_acyclic(), "diamond reconvergence is not a cycle");
    }

    #[test]
    fn find_cycle_reports_only_cycles_its_roots_reach() {
        // 0 -> 1 is acyclic; 2 -> 3 -> 4 -> 2 is a cycle that only 2, 3, 4
        // and 5 (5 -> 3) reach.
        let succ: [&[usize]; 6] = [&[1], &[], &[3], &[4], &[2], &[3]];
        let search = |roots: &[usize]| {
            find_cycle(succ.len(), roots.iter().copied(), |v, i| {
                succ[v].get(i).copied()
            })
        };
        assert_eq!(search(&[0, 1]), None);
        let witness = search(&[5]).expect("5 reaches the cycle");
        assert_eq!(witness, [3, 4, 2]);
        for (i, &from) in witness.iter().enumerate() {
            let to = witness[(i + 1) % witness.len()];
            assert!(succ[from].contains(&to), "{from} -> {to} is no edge");
        }
        assert_eq!(search(&[0, 1, 2, 3, 4, 5]), Some(vec![2, 3, 4]));
    }

    #[test]
    fn cycle_witness_is_genuine_on_naive_torus_cdg() {
        // The known-cyclic case: the dateline-free (single-class) torus CDG.
        // A reported witness must be a genuine closed walk — every
        // consecutive pair, including the wrap-around back to the start, must
        // be a recorded edge — with no repeated vertex.
        let t = Network::torus(8, 2).unwrap();
        let g = build_ecube_cdg(&t, VcModel::SingleClass);
        let witness = g
            .find_cycle()
            .expect("dateline-free torus CDG must yield a cycle witness");
        assert!(witness.len() >= 2, "a cycle visits at least two resources");
        for i in 0..witness.len() {
            let from = witness[i];
            let to = witness[(i + 1) % witness.len()];
            assert!(
                g.has_edge(from, to),
                "witness edge {from} -> {to} is not in the extracted graph"
            );
        }
        let distinct: HashSet<usize> = witness.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            witness.len(),
            "a simple cycle witness must not repeat vertices"
        );
        // Consistency with the boolean check, and no witness on the provably
        // acyclic dateline-class graph.
        assert!(!g.is_acyclic());
        let datelined = build_ecube_cdg(&t, VcModel::DatelineClasses);
        assert!(datelined.find_cycle().is_none());
        assert!(datelined.is_acyclic());
    }

    #[test]
    fn edge_queries_and_iteration_agree() {
        let mut g = DependencyGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 1); // duplicate ignored
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        let all: Vec<(usize, usize)> = g.iter_edges().collect();
        assert_eq!(all, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn trivial_graph_properties() {
        let g = DependencyGraph::new(3);
        assert!(g.is_acyclic());
        let mut g = DependencyGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 1); // duplicate ignored
        assert_eq!(g.num_edges(), 2);
        assert!(g.is_acyclic());
        g.add_edge(2, 0);
        assert!(!g.is_acyclic());
    }
}
