//! Turn-model routing (negative-first, west-first and north-last) for open
//! (non-wrap) topologies.
//!
//! The turn model (Glass & Ni) achieves deadlock freedom on meshes without
//! virtual-channel classes by *prohibiting turns* instead of splitting
//! channels: negative-first routing forbids every turn from a positive
//! (Plus) channel onto a negative (Minus) channel, which breaks all channel
//! dependency cycles on open dimensions (see [`crate::cdg::build_turn_cdg`]
//! for the explicit acyclicity proof the test-suite runs). A message first
//! takes all its negative hops — in any order — and then all its positive
//! hops; once it has moved in a positive direction it never moves negatively
//! again within the same network traversal.
//!
//! The implementation is parameterised over a [`TurnRule`], i.e. a
//! per-dimension *first direction*: negative-first routes Minus first in
//! every dimension, west-first routes Minus first in dimension 0 and Plus
//! first everywhere else, north-last the exact mirror (Plus first in
//! dimension 0, Minus first above). Any such assignment is a reflection
//! (relabelling of Plus/Minus) of negative-first, so the same acyclicity
//! argument applies; the phase discipline below ("first-phase hops before
//! second-phase hops") is rule-agnostic.
//!
//! This gives the SW-Based scheme a second deterministic/escape substrate on
//! meshes, hypercubes and mixed-radix open shapes:
//!
//! * **deterministic flavour** — the canonical negative-first order (negative
//!   hops in increasing dimension order, then positive hops in increasing
//!   dimension order). One virtual channel suffices: the negative-first CDG
//!   is acyclic with a single VC class.
//! * **adaptive flavour** — minimal adaptive routing restricted to the
//!   current negative-first phase (any productive Minus hop while negative
//!   offsets remain, any productive Plus hop afterwards) on the adaptive VC
//!   pool, with the canonical negative-first output as the escape channel on
//!   VC 0. Two virtual channels suffice (1 escape + >= 1 adaptive), versus
//!   three for Duato-over-e-cube on a torus.
//!
//! Because the turn restriction replaces the dateline argument, the model is
//! only sound where no dimension wraps: a ring's same-direction dependency
//! chain closes a cycle no turn prohibition can break. Both simulator engines
//! therefore reject the algorithm on wrapped dimensions at construction time
//! with a typed [`RoutingTopologyError`]. The same check rejects indirect
//! topologies outright — turn directions are grid offsets, which a fat-tree
//! does not have.
//!
//! **Fault handling** mirrors the SW-Based software layer (Fig. 2 of the
//! paper) minus rule 1: re-routing in the same dimension, opposite direction
//! only pays off on a wrapped ring, which this model never runs on, so an
//! absorbed message goes straight to the orthogonal detour (rule 2) and
//! falls back to an explicit fault-free path (rule 3) when the misroute
//! budget is exhausted. As with the SW-Based scheme, the detour legs of a
//! faulted message may violate the turn restriction across absorption
//! boundaries; the deadlock-freedom argument for the fault-free layer (the
//! CDG analysis) matches the scope of the paper's Section 4 argument for
//! e-cube.

use crate::adaptive::productive_outputs;
use crate::cdg::TurnRule;
use crate::decision::{OutputCandidate, RouteDecision};
use crate::header::{RouteHeader, RoutingFlavor};
use crate::swbased::{
    arrival_decision, begin_reroute, expect_grid, install_explicit_path, orthogonal_order,
    RoutingAlgorithm,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use torus_faults::FaultSet;
use torus_topology::{AnyTopology, Direction, Network, NodeId};

/// Typed error for routing algorithms that cannot operate on a topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoutingTopologyError {
    /// The algorithm requires every dimension to be open (non-wrap), but the
    /// network wraps in the named dimension.
    WrappedDimension {
        /// Human-readable algorithm name.
        algorithm: &'static str,
        /// Shape string of the offending topology (`Network` display form,
        /// e.g. `8x8` for a wrapped 8x8 torus), parseable as a topology spec.
        shape: String,
        /// First wrapped dimension encountered.
        dim: usize,
        /// Radix of that dimension.
        radix: u16,
    },
    /// The algorithm does not operate on this topology class at all (a
    /// grid-offset scheme handed an indirect fat-tree, or the up/down scheme
    /// handed a direct grid).
    UnsupportedTopology {
        /// Human-readable algorithm name.
        algorithm: &'static str,
        /// Display form of the offending topology, parseable as a topology
        /// spec (e.g. `8x8` or `ft:4,2`).
        topology: String,
        /// What the algorithm needs instead (human-readable).
        requires: &'static str,
    },
}

impl fmt::Display for RoutingTopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingTopologyError::WrappedDimension {
                algorithm,
                shape,
                dim,
                radix,
            } => write!(
                f,
                "{algorithm} routing requires open dimensions, but topology \
                 '{shape}' wraps around in dimension {dim} (radix {radix}); \
                 use a mesh/hypercube topology or Duato-over-e-cube routing"
            ),
            RoutingTopologyError::UnsupportedTopology {
                algorithm,
                topology,
                requires,
            } => write!(
                f,
                "{algorithm} routing cannot operate on topology '{topology}': \
                 it requires {requires}"
            ),
        }
    }
}

impl std::error::Error for RoutingTopologyError {}

/// The canonical turn-rule output for a header at `current`: the lowest
/// dimension with a productive hop in its first-phase direction, else the
/// lowest dimension with a productive second-phase hop.
///
/// Returns `None` when the message is already at its current routing target,
/// and must not be called with [`TurnRule::Unrestricted`] (which orders no
/// dimension). Forced-direction overrides are never consulted: they are only
/// installed by software rule 1, which requires a wrapped dimension, and this
/// model runs exclusively on open topologies.
pub fn turn_rule_output(
    net: &Network,
    rule: TurnRule,
    header: &RouteHeader,
    current: NodeId,
) -> Option<(usize, Direction)> {
    let target = header.target();
    let mut second_phase = None;
    for dim in 0..net.dims() {
        let off = net.offset(current, target, dim);
        let Some(dir) = Direction::from_offset(off) else {
            continue;
        };
        let first = rule
            .first_direction(dim)
            .expect("turn_rule_output requires a rule that orders every dimension");
        if dir == first {
            return Some((dim, dir));
        }
        if second_phase.is_none() {
            second_phase = Some((dim, dir));
        }
    }
    second_phase
}

/// The canonical negative-first output: first-phase (Minus) hops in
/// increasing dimension order, then second-phase (Plus) hops.
pub fn negative_first_output(
    net: &Network,
    header: &RouteHeader,
    current: NodeId,
) -> Option<(usize, Direction)> {
    turn_rule_output(net, TurnRule::NegativeFirst, header, current)
}

/// Turn-model routing for open multidimensional networks, parameterised over
/// the turn rule (negative-first or west-first) and the routing flavour.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TurnModelRouting {
    flavor: RoutingFlavor,
    rule: TurnRule,
}

impl TurnModelRouting {
    /// Deterministic (canonical negative-first order) routing.
    pub fn deterministic() -> Self {
        TurnModelRouting {
            flavor: RoutingFlavor::Deterministic,
            rule: TurnRule::NegativeFirst,
        }
    }

    /// Phase-adaptive negative-first routing with a negative-first escape
    /// channel.
    pub fn adaptive() -> Self {
        TurnModelRouting {
            flavor: RoutingFlavor::Adaptive,
            rule: TurnRule::NegativeFirst,
        }
    }

    /// Deterministic west-first routing (dimension 0 routes Minus first,
    /// every higher dimension Plus first).
    pub fn west_first_deterministic() -> Self {
        TurnModelRouting {
            flavor: RoutingFlavor::Deterministic,
            rule: TurnRule::WestFirst,
        }
    }

    /// Phase-adaptive west-first routing with a west-first escape channel.
    pub fn west_first_adaptive() -> Self {
        TurnModelRouting {
            flavor: RoutingFlavor::Adaptive,
            rule: TurnRule::WestFirst,
        }
    }

    /// Deterministic north-last routing (dimension 0 routes Plus first,
    /// every higher dimension Minus first — the mirror of west-first, so the
    /// northward hops of the higher dimensions come last).
    pub fn north_last_deterministic() -> Self {
        TurnModelRouting {
            flavor: RoutingFlavor::Deterministic,
            rule: TurnRule::NorthLast,
        }
    }

    /// Phase-adaptive north-last routing with a north-last escape channel.
    pub fn north_last_adaptive() -> Self {
        TurnModelRouting {
            flavor: RoutingFlavor::Adaptive,
            rule: TurnRule::NorthLast,
        }
    }

    /// Constructs the negative-first algorithm for a given flavour.
    pub fn with_flavor(flavor: RoutingFlavor) -> Self {
        TurnModelRouting {
            flavor,
            rule: TurnRule::NegativeFirst,
        }
    }

    /// The turn rule this instance routes under.
    pub fn rule(&self) -> TurnRule {
        self.rule
    }

    fn rule_label(&self) -> &'static str {
        match self.rule {
            TurnRule::WestFirst => "West-First",
            TurnRule::NorthLast => "North-Last",
            _ => "Negative-First",
        }
    }

    fn algorithm_label(&self) -> &'static str {
        match self.rule {
            TurnRule::WestFirst => "west-first turn-model",
            TurnRule::NorthLast => "north-last turn-model",
            _ => "negative-first turn-model",
        }
    }

    /// Deterministic-mode routing step shared by the deterministic flavour
    /// and by faulted messages of the adaptive flavour.
    fn route_deterministic(
        &self,
        net: &Network,
        faults: &FaultSet,
        header: &RouteHeader,
        current: NodeId,
        v: usize,
    ) -> RouteDecision {
        let Some((dim, dir)) = turn_rule_output(net, self.rule, header, current) else {
            // `route` already advanced through reached targets, so a missing
            // output means the final destination.
            return RouteDecision::Deliver;
        };
        if !faults.output_usable(net, current, dim, dir) {
            return RouteDecision::Absorb;
        }
        let (vcs, is_escape) = if header.flavor == RoutingFlavor::Adaptive {
            // Faulted adaptive-flavour messages travel on the turn-rule
            // escape channel, mirroring the SW-Based scheme's use of the
            // e-cube escape layer.
            (vec![0], true)
        } else {
            // No dateline class exists on open dimensions: the whole pool is
            // permitted, and a single VC suffices (the turn-rule CDG is
            // acyclic with one class).
            ((0..v).collect(), false)
        };
        RouteDecision::Forward(vec![OutputCandidate {
            dim,
            dir,
            vcs,
            is_escape,
        }])
    }
}

impl RoutingAlgorithm for TurnModelRouting {
    fn flavor(&self) -> RoutingFlavor {
        self.flavor
    }

    fn min_virtual_channels(&self, _net: &AnyTopology) -> usize {
        match self.flavor {
            // The turn restriction alone is deadlock free: one VC suffices.
            RoutingFlavor::Deterministic => 1,
            // One negative-first escape channel plus at least one adaptive
            // channel.
            RoutingFlavor::Adaptive => 2,
        }
    }

    fn supported_on(&self, net: &AnyTopology) -> Result<(), RoutingTopologyError> {
        let Some(grid) = net.grid() else {
            return Err(RoutingTopologyError::UnsupportedTopology {
                algorithm: self.algorithm_label(),
                topology: net.to_string(),
                requires: "a direct open grid topology (mesh/hypercube); \
                           fat-trees route with the up/down scheme",
            });
        };
        for dim in 0..grid.dims() {
            if grid.wraps(dim) {
                return Err(RoutingTopologyError::WrappedDimension {
                    algorithm: self.algorithm_label(),
                    shape: grid.to_string(),
                    dim,
                    radix: grid.radix(dim),
                });
            }
        }
        Ok(())
    }

    fn deterministic_output(
        &self,
        net: &AnyTopology,
        header: &RouteHeader,
        current: NodeId,
    ) -> Option<(usize, Direction)> {
        turn_rule_output(expect_grid(net), self.rule, header, current)
    }

    fn make_header(&self, net: &AnyTopology, src: NodeId, dest: NodeId) -> RouteHeader {
        RouteHeader::new(net, src, dest, self.flavor)
    }

    fn route(
        &self,
        net: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        current: NodeId,
        v: usize,
    ) -> RouteDecision {
        let net = expect_grid(net);
        // At a via host an in-flight retarget could chain a forbidden
        // (second-phase → first-phase) turn on the escape VC; absorbing there
        // releases every held channel first.
        if let Some(decision) = arrival_decision(header, current) {
            return decision;
        }
        if header.is_deterministic() {
            return self.route_deterministic(net, faults, header, current, v);
        }
        // Adaptive flavour, not yet faulted: any productive output of the
        // current turn-rule phase on the adaptive VC pool. While any
        // productive first-phase hop remains only first-phase hops are legal;
        // afterwards the remaining productive hops are all second-phase, so a
        // first-phase hop can never follow a second-phase hop towards the
        // same target (offsets shrink monotonically under minimal routing).
        let rule = self.rule;
        let in_first_phase = |&(dim, dir): &(usize, Direction)| {
            rule.first_direction(dim)
                .expect("turn-model rules order every dimension")
                == dir
        };
        let prods = productive_outputs(net, header, current);
        let first_phase = prods.iter().any(in_first_phase);
        let adaptive_vcs: Vec<usize> = (1..v).collect();
        let mut candidates: Vec<OutputCandidate> = prods
            .into_iter()
            .filter(|hop| !first_phase || in_first_phase(hop))
            .filter(|&(dim, dir)| faults.output_usable(net, current, dim, dir))
            .map(|(dim, dir)| OutputCandidate::new(dim, dir, adaptive_vcs.clone()))
            .collect();
        if let Some((dim, dir)) = turn_rule_output(net, rule, header, current) {
            if faults.output_usable(net, current, dim, dir) {
                candidates.push(OutputCandidate::escape(dim, dir, 0));
            }
        }
        if candidates.is_empty() {
            return RouteDecision::Absorb;
        }
        RouteDecision::Forward(candidates)
    }

    fn note_hop(
        &self,
        net: &AnyTopology,
        header: &mut RouteHeader,
        from: NodeId,
        dim: usize,
        dir: Direction,
    ) {
        header.note_hop(net, from, dim, dir);
    }

    fn reroute_on_fault(
        &self,
        net: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        at: NodeId,
        blocked: (usize, Direction),
    ) -> bool {
        let net = expect_grid(net);
        if let Some(settled) = begin_reroute(net, faults, header, at) {
            return settled;
        }
        header.misroute_budget -= 1;

        // Rule 1 (same dimension, opposite direction) is skipped outright:
        // it only reaches the target the "wrong way round" a ring, and this
        // model never runs on wrapped dimensions.

        // Rule 2: orthogonal detour to slide along the fault region.
        // `output_usable` is false for channels that do not exist, so mesh
        // edges are skipped naturally.
        let (blocked_dim, _) = blocked;
        for o in orthogonal_order(net.dims(), blocked_dim) {
            for cand_dir in Direction::BOTH {
                if !faults.output_usable(net, at, o, cand_dir) {
                    continue;
                }
                let via = net
                    .neighbor(at, o, cand_dir)
                    .expect("usable output leads to an existing neighbour");
                if faults.is_node_faulty(via) {
                    continue;
                }
                header.push_intermediate(via);
                return true;
            }
        }

        // Walled in except for the arrival channel: fall back to the explicit
        // path, which exists as long as the network is connected.
        install_explicit_path(net, faults, header, at)
    }

    fn name(&self) -> String {
        format!("{} ({})", self.rule_label(), self.flavor.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> AnyTopology {
        AnyTopology::mesh(8, 2).unwrap()
    }

    fn no_faults() -> FaultSet {
        FaultSet::new()
    }

    /// Node id from grid digits (tests only run the model on grids).
    fn node(t: &AnyTopology, digits: &[u16]) -> NodeId {
        t.grid().unwrap().node_from_digits(digits).unwrap()
    }

    /// Walks a message with the given algorithm, always taking the first
    /// candidate, and returns the nodes visited. Panics on Absorb.
    fn walk(
        net: &AnyTopology,
        faults: &FaultSet,
        algo: &TurnModelRouting,
        src: NodeId,
        dest: NodeId,
        v: usize,
    ) -> Vec<NodeId> {
        let mut header = algo.make_header(net, src, dest);
        let mut current = src;
        let mut visited = vec![src];
        for _ in 0..10_000 {
            match algo.route(net, faults, &mut header, current, v) {
                RouteDecision::Deliver => return visited,
                RouteDecision::Absorb => panic!("unexpected absorption at {current:?}"),
                RouteDecision::Forward(cands) => {
                    let c = &cands[0];
                    algo.note_hop(net, &mut header, current, c.dim, c.dir);
                    current = net.neighbor(current, c.dim, c.dir).expect("existing hop");
                    visited.push(current);
                }
            }
        }
        panic!("message did not arrive");
    }

    /// Asserts a hop sequence never takes a Minus hop after a Plus hop.
    fn assert_negative_first(net: &Network, visited: &[NodeId]) {
        let mut seen_plus = false;
        for pair in visited.windows(2) {
            let (from, to) = (pair[0], pair[1]);
            let dim = (0..net.dims())
                .find(|&d| net.position(from, d) != net.position(to, d))
                .expect("consecutive nodes differ in exactly one dimension");
            let plus = net.position(to, dim) > net.position(from, dim);
            if plus {
                seen_plus = true;
            } else {
                assert!(!seen_plus, "Minus hop after a Plus hop in {visited:?}");
            }
        }
    }

    #[test]
    fn canonical_output_routes_negative_phase_first() {
        let m = mesh();
        let g = m.grid().unwrap();
        let src = node(&m, &[3, 5]);
        let dest = node(&m, &[5, 2]);
        let h = RouteHeader::new(&m, src, dest, RoutingFlavor::Deterministic);
        // Offset is (+2, -3): the negative dimension-1 offset goes first.
        assert_eq!(
            negative_first_output(g, &h, src),
            Some((1, Direction::Minus))
        );
        let mid = node(&m, &[3, 2]);
        assert_eq!(
            negative_first_output(g, &h, mid),
            Some((0, Direction::Plus))
        );
        assert_eq!(negative_first_output(g, &h, dest), None);
    }

    #[test]
    fn deterministic_walk_is_minimal_and_obeys_the_turn_restriction() {
        let m = mesh();
        let algo = TurnModelRouting::deterministic();
        for (s, d) in [([1u16, 6], [6u16, 1]), ([7, 0], [0, 7]), ([2, 2], [5, 5])] {
            let src = node(&m, &s);
            let dest = node(&m, &d);
            let visited = walk(&m, &no_faults(), &algo, src, dest, 1);
            assert_eq!(visited.len() as u32 - 1, m.distance(src, dest));
            assert_eq!(*visited.last().unwrap(), dest);
            assert_negative_first(m.grid().unwrap(), &visited);
        }
    }

    #[test]
    fn adaptive_walk_is_minimal_and_obeys_the_turn_restriction() {
        let m = mesh();
        let algo = TurnModelRouting::adaptive();
        let src = node(&m, &[6, 5]);
        let dest = node(&m, &[1, 0]);
        let visited = walk(&m, &no_faults(), &algo, src, dest, 2);
        assert_eq!(visited.len() as u32 - 1, m.distance(src, dest));
        assert_negative_first(m.grid().unwrap(), &visited);
    }

    #[test]
    fn adaptive_candidates_restricted_to_the_negative_phase() {
        let m = mesh();
        let algo = TurnModelRouting::adaptive();
        let src = node(&m, &[3, 5]);
        let dest = node(&m, &[5, 2]);
        let mut h = algo.make_header(&m, src, dest);
        let d = algo.route(&m, &no_faults(), &mut h, src, 3);
        let cands = d.candidates();
        // Offset (+2, -3): while the negative offset remains, the productive
        // Plus hop in dimension 0 is forbidden.
        assert!(cands
            .iter()
            .all(|c| c.dim == 1 && c.dir == Direction::Minus));
        let escape = cands.iter().find(|c| c.is_escape).unwrap();
        assert_eq!(escape.vcs, vec![0]);
        for c in cands.iter().filter(|c| !c.is_escape) {
            assert_eq!(c.vcs, vec![1, 2]);
        }
        // Once the negative phase is done, Plus hops open up.
        let mid = node(&m, &[3, 2]);
        let d = algo.route(&m, &no_faults(), &mut h, mid, 3);
        assert!(d
            .candidates()
            .iter()
            .all(|c| c.dim == 0 && c.dir == Direction::Plus));
    }

    #[test]
    fn deterministic_flavor_uses_the_whole_pool() {
        let m = mesh();
        let algo = TurnModelRouting::deterministic();
        let src = node(&m, &[0, 0]);
        let dest = node(&m, &[3, 0]);
        let mut h = algo.make_header(&m, src, dest);
        let d = algo.route(&m, &no_faults(), &mut h, src, 4);
        let cands = d.candidates();
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].vcs, vec![0, 1, 2, 3]);
        assert!(!cands[0].is_escape);
    }

    #[test]
    fn faulted_adaptive_messages_ride_the_escape_channel() {
        let m = mesh();
        let algo = TurnModelRouting::adaptive();
        let src = node(&m, &[0, 0]);
        let dest = node(&m, &[4, 0]);
        let mut h = algo.make_header(&m, src, dest);
        h.faulted = true;
        let d = algo.route(&m, &no_faults(), &mut h, src, 3);
        match d {
            RouteDecision::Forward(cands) => {
                assert_eq!(cands.len(), 1);
                assert_eq!(cands[0].vcs, vec![0]);
                assert!(cands[0].is_escape);
            }
            other => panic!("expected Forward, got {other:?}"),
        }
    }

    #[test]
    fn absorbs_at_fault_and_absorbs_only_when_all_phase_outputs_faulty() {
        let m = mesh();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&m, &[2, 0]));
        let det = TurnModelRouting::deterministic();
        let src = node(&m, &[1, 0]);
        let dest = node(&m, &[4, 0]);
        let mut h = det.make_header(&m, src, dest);
        assert!(det.route(&m, &faults, &mut h, src, 2).is_absorb());

        // The adaptive flavour still forwards while another phase-legal
        // productive output is healthy.
        let ada = TurnModelRouting::adaptive();
        let dest2 = node(&m, &[4, 2]);
        let mut h = ada.make_header(&m, src, dest2);
        let d = ada.route(&m, &faults, &mut h, src, 2);
        assert!(!d.candidates().is_empty());
        assert!(d
            .candidates()
            .iter()
            .all(|c| !(c.dim == 0 && c.dir == Direction::Plus && !c.is_escape)));
    }

    #[test]
    fn reroute_goes_straight_to_the_orthogonal_detour() {
        let m = mesh();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&m, &[2, 0]));
        let algo = TurnModelRouting::deterministic();
        let at = node(&m, &[1, 0]);
        let dest = node(&m, &[4, 0]);
        let mut header = algo.make_header(&m, at, dest);
        assert!(algo.reroute_on_fault(&m, &faults, &mut header, at, (0, Direction::Plus)));
        assert!(header.faulted);
        assert_eq!(header.absorptions, 1);
        // No rule-1 forced direction is ever installed on open dimensions.
        assert!(header.forced_dir.iter().all(Option::is_none));
        assert_eq!(header.pending_via(), 1);
        // From row 0 the only open orthogonal direction is Plus in dim 1.
        assert_eq!(header.target(), node(&m, &[1, 1]));
    }

    #[test]
    fn reroute_falls_back_to_explicit_path_when_budget_exhausted() {
        let m = mesh();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&m, &[3, 3]));
        let algo = TurnModelRouting::deterministic();
        let at = node(&m, &[3, 2]);
        let dest = node(&m, &[3, 5]);
        let mut header = algo.make_header(&m, at, dest);
        header.misroute_budget = 0;
        assert!(algo.reroute_on_fault(&m, &faults, &mut header, at, (1, Direction::Plus)));
        assert!(header.escorted);
    }

    #[test]
    fn routes_around_a_fault_end_to_end() {
        // Full software loop: route, absorb, re-route, re-inject until
        // delivery, on a mesh and on a hypercube. The faulty node sits on the
        // canonical negative-first path in each case.
        let cases = [
            (
                AnyTopology::mesh(8, 2).unwrap(),
                &[1u16, 0][..],
                &[4, 0][..],
                &[3, 0][..],
            ),
            (
                AnyTopology::hypercube(4).unwrap(),
                &[0, 0, 0, 0][..],
                &[1, 1, 0, 0][..],
                &[1, 0, 0, 0][..],
            ),
        ];
        for (net, src, dest, blocker) in cases {
            let mut faults = FaultSet::new();
            faults.fail_node(node(&net, blocker));
            for algo in [
                TurnModelRouting::deterministic(),
                TurnModelRouting::adaptive(),
            ] {
                let src = node(&net, src);
                let dest = node(&net, dest);
                let mut header = algo.make_header(&net, src, dest);
                let mut current = src;
                let mut steps = 0;
                loop {
                    steps += 1;
                    assert!(steps < 1000, "livelock: message never delivered");
                    match algo.route(&net, &faults, &mut header, current, 2) {
                        RouteDecision::Deliver => break,
                        RouteDecision::Forward(cands) => {
                            let c = &cands[0];
                            algo.note_hop(&net, &mut header, current, c.dim, c.dir);
                            current = net.neighbor(current, c.dim, c.dir).expect("existing hop");
                            assert!(!faults.is_node_faulty(current));
                        }
                        RouteDecision::Absorb => {
                            let blocked = algo
                                .deterministic_output(&net, &header, current)
                                .unwrap_or((0, Direction::Plus));
                            assert!(algo.reroute_on_fault(
                                &net,
                                &faults,
                                &mut header,
                                current,
                                blocked
                            ));
                            header.reset_for_injection();
                        }
                    }
                }
                assert_eq!(current, dest, "{}", algo.name());
            }
        }
    }

    #[test]
    fn supported_on_rejects_wrapped_dimensions() {
        let algo = TurnModelRouting::adaptive();
        assert_eq!(algo.supported_on(&AnyTopology::mesh(8, 2).unwrap()), Ok(()));
        assert_eq!(
            algo.supported_on(&AnyTopology::hypercube(6).unwrap()),
            Ok(())
        );
        let torus = AnyTopology::torus(8, 2).unwrap();
        assert_eq!(
            algo.supported_on(&torus),
            Err(RoutingTopologyError::WrappedDimension {
                algorithm: "negative-first turn-model",
                shape: "8x8".into(),
                dim: 0,
                radix: 8,
            })
        );
        // A single wrapped dimension anywhere is enough, and the error names
        // it precisely.
        let mixed =
            AnyTopology::Grid(Network::new(vec![4, 6, 3], vec![false, true, false]).unwrap());
        match algo.supported_on(&mixed) {
            Err(RoutingTopologyError::WrappedDimension {
                shape, dim, radix, ..
            }) => {
                assert_eq!((dim, radix), (1, 6));
                assert_eq!(shape, "4ox6x3o");
            }
            other => panic!("expected WrappedDimension, got {other:?}"),
        }
        // The message is self-describing: it names the topology shape and
        // the rejecting algorithm.
        let err = algo.supported_on(&torus).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("wraps around"));
        assert!(msg.contains("'8x8'"));
        assert!(msg.contains("negative-first turn-model"));
        let wf_err = TurnModelRouting::west_first_adaptive()
            .supported_on(&torus)
            .unwrap_err();
        assert!(format!("{wf_err}").contains("west-first turn-model"));
    }

    #[test]
    fn supported_on_rejects_fat_trees() {
        let ft = AnyTopology::fat_tree_new(4, 2).unwrap();
        let err = TurnModelRouting::adaptive().supported_on(&ft).unwrap_err();
        match &err {
            RoutingTopologyError::UnsupportedTopology {
                algorithm,
                topology,
                ..
            } => {
                assert_eq!(*algorithm, "negative-first turn-model");
                assert_eq!(topology, "ft:4,2");
            }
            other => panic!("expected UnsupportedTopology, got {other:?}"),
        }
        let msg = format!("{err}");
        assert!(msg.contains("cannot operate on topology 'ft:4,2'"));
    }

    /// Asserts a hop sequence never takes a first-phase hop (under `rule`)
    /// after a second-phase hop.
    fn assert_obeys_rule(net: &Network, rule: TurnRule, visited: &[NodeId]) {
        let mut seen_second_phase = false;
        for pair in visited.windows(2) {
            let (from, to) = (pair[0], pair[1]);
            let dim = (0..net.dims())
                .find(|&d| net.position(from, d) != net.position(to, d))
                .expect("consecutive nodes differ in exactly one dimension");
            let dir = if net.position(to, dim) > net.position(from, dim) {
                Direction::Plus
            } else {
                Direction::Minus
            };
            if Some(dir) == rule.first_direction(dim) {
                assert!(
                    !seen_second_phase,
                    "first-phase hop after a second-phase hop in {visited:?}"
                );
            } else {
                seen_second_phase = true;
            }
        }
    }

    #[test]
    fn west_first_walks_are_minimal_and_obey_the_rule() {
        let m = mesh();
        for (algo, v) in [
            (TurnModelRouting::west_first_deterministic(), 1),
            (TurnModelRouting::west_first_adaptive(), 2),
        ] {
            for (s, d) in [([1u16, 6], [6u16, 1]), ([7, 0], [0, 7]), ([5, 5], [2, 2])] {
                let src = node(&m, &s);
                let dest = node(&m, &d);
                let visited = walk(&m, &no_faults(), &algo, src, dest, v);
                assert_eq!(visited.len() as u32 - 1, m.distance(src, dest));
                assert_eq!(*visited.last().unwrap(), dest);
                assert_obeys_rule(m.grid().unwrap(), TurnRule::WestFirst, &visited);
            }
        }
    }

    #[test]
    fn west_first_routes_west_before_everything_else() {
        let m = mesh();
        let algo = TurnModelRouting::west_first_deterministic();
        // Offset (-2, -3): west (dim 0 Minus) is first phase, south (dim 1
        // Minus) is second phase — dim 0 must be exhausted first.
        let src = node(&m, &[4, 5]);
        let dest = node(&m, &[2, 2]);
        let h = algo.make_header(&m, src, dest);
        assert_eq!(
            algo.deterministic_output(&m, &h, src),
            Some((0, Direction::Minus))
        );
        // Offset (+2, +3): both hops are eastward/northward; north (dim 1
        // Plus) is first phase under west-first, east (dim 0 Plus) second.
        let src2 = node(&m, &[2, 2]);
        let dest2 = node(&m, &[4, 5]);
        let h2 = algo.make_header(&m, src2, dest2);
        assert_eq!(
            algo.deterministic_output(&m, &h2, src2),
            Some((1, Direction::Plus))
        );
    }

    #[test]
    fn west_first_routes_around_a_fault() {
        let m = mesh();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&m, &[3, 0]));
        for algo in [
            TurnModelRouting::west_first_deterministic(),
            TurnModelRouting::west_first_adaptive(),
        ] {
            let src = node(&m, &[4, 0]);
            let dest = node(&m, &[1, 0]);
            let mut header = algo.make_header(&m, src, dest);
            let mut current = src;
            let mut steps = 0;
            loop {
                steps += 1;
                assert!(steps < 1000, "livelock: message never delivered");
                match algo.route(&m, &faults, &mut header, current, 2) {
                    RouteDecision::Deliver => break,
                    RouteDecision::Forward(cands) => {
                        let c = &cands[0];
                        algo.note_hop(&m, &mut header, current, c.dim, c.dir);
                        current = m.neighbor(current, c.dim, c.dir).expect("existing hop");
                        assert!(!faults.is_node_faulty(current));
                    }
                    RouteDecision::Absorb => {
                        let blocked = algo
                            .deterministic_output(&m, &header, current)
                            .unwrap_or((0, Direction::Plus));
                        assert!(algo.reroute_on_fault(&m, &faults, &mut header, current, blocked));
                        header.reset_for_injection();
                    }
                }
            }
            assert_eq!(current, dest, "{}", algo.name());
        }
    }

    #[test]
    fn north_last_walks_are_minimal_and_obey_the_rule() {
        let m = mesh();
        for (algo, v) in [
            (TurnModelRouting::north_last_deterministic(), 1),
            (TurnModelRouting::north_last_adaptive(), 2),
        ] {
            for (s, d) in [([1u16, 6], [6u16, 1]), ([7, 0], [0, 7]), ([5, 5], [2, 2])] {
                let src = node(&m, &s);
                let dest = node(&m, &d);
                let visited = walk(&m, &no_faults(), &algo, src, dest, v);
                assert_eq!(visited.len() as u32 - 1, m.distance(src, dest));
                assert_eq!(*visited.last().unwrap(), dest);
                assert_obeys_rule(m.grid().unwrap(), TurnRule::NorthLast, &visited);
            }
        }
    }

    #[test]
    fn north_last_routes_north_after_everything_else() {
        let m = mesh();
        let algo = TurnModelRouting::north_last_deterministic();
        // Offset (+2, +3): east (dim 0 Plus) is first phase under north-last,
        // north (dim 1 Plus) is second phase — dim 0 must be exhausted first.
        let src = node(&m, &[2, 2]);
        let dest = node(&m, &[4, 5]);
        let h = algo.make_header(&m, src, dest);
        assert_eq!(
            algo.deterministic_output(&m, &h, src),
            Some((0, Direction::Plus))
        );
        // Offset (-2, +3): west and north are both second phase; with no
        // first-phase hop available the lowest second-phase dimension (west)
        // goes first.
        let src2 = node(&m, &[4, 2]);
        let dest2 = node(&m, &[2, 5]);
        let h2 = algo.make_header(&m, src2, dest2);
        assert_eq!(
            algo.deterministic_output(&m, &h2, src2),
            Some((0, Direction::Minus))
        );
        // Offset (+2, -3): both east and south are first phase; lowest
        // dimension wins.
        let src3 = node(&m, &[2, 5]);
        let dest3 = node(&m, &[4, 2]);
        let h3 = algo.make_header(&m, src3, dest3);
        assert_eq!(
            algo.deterministic_output(&m, &h3, src3),
            Some((0, Direction::Plus))
        );
    }

    #[test]
    fn north_last_routes_around_a_fault() {
        let m = mesh();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&m, &[3, 0]));
        for algo in [
            TurnModelRouting::north_last_deterministic(),
            TurnModelRouting::north_last_adaptive(),
        ] {
            let src = node(&m, &[1, 0]);
            let dest = node(&m, &[4, 0]);
            let mut header = algo.make_header(&m, src, dest);
            let mut current = src;
            let mut steps = 0;
            loop {
                steps += 1;
                assert!(steps < 1000, "livelock: message never delivered");
                match algo.route(&m, &faults, &mut header, current, 2) {
                    RouteDecision::Deliver => break,
                    RouteDecision::Forward(cands) => {
                        let c = &cands[0];
                        algo.note_hop(&m, &mut header, current, c.dim, c.dir);
                        current = m.neighbor(current, c.dim, c.dir).expect("existing hop");
                        assert!(!faults.is_node_faulty(current));
                    }
                    RouteDecision::Absorb => {
                        let blocked = algo
                            .deterministic_output(&m, &header, current)
                            .unwrap_or((0, Direction::Plus));
                        assert!(algo.reroute_on_fault(&m, &faults, &mut header, current, blocked));
                        header.reset_for_injection();
                    }
                }
            }
            assert_eq!(current, dest, "{}", algo.name());
        }
    }

    #[test]
    fn min_virtual_channels_and_names() {
        let m = mesh();
        assert_eq!(
            TurnModelRouting::deterministic().min_virtual_channels(&m),
            1
        );
        assert_eq!(TurnModelRouting::adaptive().min_virtual_channels(&m), 2);
        assert_eq!(
            TurnModelRouting::deterministic().name(),
            "Negative-First (deterministic)"
        );
        assert_eq!(
            TurnModelRouting::adaptive().name(),
            "Negative-First (adaptive)"
        );
        assert_eq!(
            TurnModelRouting::west_first_deterministic().name(),
            "West-First (deterministic)"
        );
        assert_eq!(
            TurnModelRouting::west_first_adaptive().name(),
            "West-First (adaptive)"
        );
        assert_eq!(
            TurnModelRouting::west_first_adaptive().min_virtual_channels(&m),
            2
        );
        assert_eq!(
            TurnModelRouting::north_last_deterministic().name(),
            "North-Last (deterministic)"
        );
        assert_eq!(
            TurnModelRouting::north_last_adaptive().name(),
            "North-Last (adaptive)"
        );
        assert_eq!(
            TurnModelRouting::north_last_adaptive().rule(),
            TurnRule::NorthLast
        );
        assert_eq!(
            TurnModelRouting::north_last_deterministic().min_virtual_channels(&m),
            1
        );
        assert_eq!(
            TurnModelRouting::with_flavor(RoutingFlavor::Adaptive).flavor(),
            RoutingFlavor::Adaptive
        );
        assert_eq!(
            TurnModelRouting::with_flavor(RoutingFlavor::Adaptive).rule(),
            TurnRule::NegativeFirst
        );
        assert_eq!(
            TurnModelRouting::west_first_adaptive().rule(),
            TurnRule::WestFirst
        );
    }

    #[test]
    fn deterministic_output_hook_is_negative_first() {
        let m = mesh();
        let algo = TurnModelRouting::deterministic();
        let src = node(&m, &[3, 5]);
        let dest = node(&m, &[5, 2]);
        let h = algo.make_header(&m, src, dest);
        assert_eq!(
            algo.deterministic_output(&m, &h, src),
            Some((1, Direction::Minus))
        );
        // The e-cube output for the same header would be (0, Plus): the hook
        // matters for the blocked-output reported at absorption time.
        assert_eq!(
            crate::ecube::ecube_output(m.grid().unwrap(), &h, src),
            Some((0, Direction::Plus))
        );
    }
}
