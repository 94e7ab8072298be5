//! The Software-Based fault-tolerant routing algorithm (SW-Based-nD).
//!
//! This module is the direct counterpart of Fig. 2 of the paper. A
//! [`SwBasedRouting`] instance encapsulates:
//!
//! * **normal-case routing** — dimension-order e-cube for the deterministic
//!   flavour, Duato's Protocol for the adaptive flavour (in a fault-free
//!   network the two flavours are *identical* to those baselines);
//! * **fault handling** — when the chosen output channel leads to a faulty
//!   node or link the message is absorbed ([`RouteDecision::Absorb`]) and the
//!   message-passing software rewrites the header via
//!   [`SwBasedRouting::reroute_on_fault`]:
//!   1. first re-route in the *same dimension, opposite direction* (a
//!      non-minimal traversal of the ring installed as a forced direction) —
//!      this rule only applies to wrapped dimensions: on an open (mesh)
//!      dimension the opposite direction leads away from the target and off
//!      the edge, so the scheme falls through to rule 2 directly,
//!   2. if another fault is encountered, route in an *orthogonal dimension*
//!      (an intermediate destination one hop to the side of the fault
//!      region),
//!   3. if the misroute budget is exhausted, compute an explicit fault-free
//!      intermediate-node path (the capability granted by assumption (i)(ii)
//!      of the paper), which bounds livelock;
//! * **post-fault behaviour** — once a message has been absorbed it is routed
//!   deterministically for the rest of its journey (Section 4: "from this
//!   point, faulted messages are always routed using detRouting2D").
//!
//! The scheme's offsets, datelines and orthogonal detours are grid concepts,
//! so [`RoutingAlgorithm::supported_on`] rejects indirect topologies with a
//! typed error; fat-trees route with
//! [`UpDownRouting`](crate::updown::UpDownRouting) instead.

use crate::adaptive::adaptive_candidates;
use crate::decision::{OutputCandidate, RouteDecision};
use crate::ecube::{deterministic_vcs, ecube_output, ecube_vc_class};
use crate::header::{RouteHeader, RoutingFlavor};
use crate::turnmodel::RoutingTopologyError;
use serde::{Deserialize, Serialize};
use torus_faults::FaultSet;
use torus_topology::{
    AnyTopology, DatelinePolicy, Direction, HealthyGraph, Network, NodeId, Topology,
};

/// Interface between the router pipeline / software layer and a routing
/// algorithm.
///
/// Every method takes the topology as an [`AnyTopology`]; algorithms that
/// only operate on one backend (the grid-offset based schemes, the fat-tree
/// up/down scheme) reject the other at construction time through
/// [`RoutingAlgorithm::supported_on`] and may downcast unconditionally
/// afterwards.
pub trait RoutingAlgorithm {
    /// The flavour this algorithm routes with in the absence of faults.
    fn flavor(&self) -> RoutingFlavor;

    /// Minimum number of virtual channels per physical channel this algorithm
    /// needs for deadlock freedom on the given network.
    fn min_virtual_channels(&self, net: &AnyTopology) -> usize;

    /// Checks that the algorithm can operate on `net` at all. Both simulator
    /// engines call this at construction time and surface the error as a
    /// typed configuration failure. Defaults to "supported everywhere"; the
    /// negative-first turn model overrides it to reject wrapped dimensions,
    /// the grid-offset schemes reject indirect topologies and the fat-tree
    /// up/down scheme rejects grids.
    fn supported_on(&self, _net: &AnyTopology) -> Result<(), RoutingTopologyError> {
        Ok(())
    }

    /// The deterministic-layer output this algorithm steers `header` towards
    /// at `current` — the output the simulator reports as `blocked` to
    /// [`RoutingAlgorithm::reroute_on_fault`] when a message is absorbed.
    /// Defaults to the e-cube output on grids; the turn model overrides it
    /// with the negative-first output and the up/down scheme with the
    /// deterministic up/down output.
    fn deterministic_output(
        &self,
        net: &AnyTopology,
        header: &RouteHeader,
        current: NodeId,
    ) -> Option<(usize, Direction)> {
        net.grid()
            .and_then(|grid| ecube_output(grid, header, current))
    }

    /// Builds the header of a newly generated message.
    fn make_header(&self, net: &AnyTopology, src: NodeId, dest: NodeId) -> RouteHeader;

    /// Routing decision for a header flit of `header` currently at `current`,
    /// with `v` virtual channels per physical channel.
    ///
    /// **Purity contract.** The decision is a function of
    /// `(header, current, faults, v)` alone, and `header` is left unchanged:
    /// the `&mut` in the signature is historical, no implementation writes
    /// through it (header bookkeeping belongs to [`note_hop`] and
    /// [`reroute_on_fault`]). Two consecutive calls therefore return equal
    /// decisions. The static verifier's walks assume this, and the simulator
    /// relies on it to keep a blocked head's decision instead of re-routing
    /// it every cycle (and re-checks it in debug builds); an implementation
    /// with hidden state, or one that mutates the header here, breaks both.
    ///
    /// **Source independence.** Within the header, neither this method nor
    /// [`deterministic_output`], [`note_hop`] and [`reroute_on_fault`] read
    /// `source`, `hops` or `absorptions`: where a message came from and how
    /// long it has travelled do not enter where it goes next. The static
    /// verifier shares one state graph per destination between all sources on
    /// the strength of this; `tests/route_purity.rs` checks it for every
    /// shipped algorithm.
    ///
    /// [`deterministic_output`]: RoutingAlgorithm::deterministic_output
    /// [`note_hop`]: RoutingAlgorithm::note_hop
    /// [`reroute_on_fault`]: RoutingAlgorithm::reroute_on_fault
    fn route(
        &self,
        net: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        current: NodeId,
        v: usize,
    ) -> RouteDecision;

    /// Header bookkeeping when the message advances one hop.
    fn note_hop(
        &self,
        net: &AnyTopology,
        header: &mut RouteHeader,
        from: NodeId,
        dim: usize,
        dir: Direction,
    );

    /// Software-layer header rewrite after the message was absorbed at `at`
    /// because output `blocked` led to a fault. Returns `false` only when the
    /// destination is unreachable (disconnected network), in which case the
    /// message must be dropped.
    fn reroute_on_fault(
        &self,
        net: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        at: NodeId,
        blocked: (usize, Direction),
    ) -> bool;

    /// Human-readable name used in reports.
    fn name(&self) -> String;
}

/// Downcast used by the grid-only algorithms after `supported_on` has
/// validated the topology at construction time.
pub(crate) fn expect_grid(net: &AnyTopology) -> &Network {
    net.grid()
        .expect("grid-only routing algorithm invoked on an indirect topology (supported_on rejects this at construction)")
}

/// The Software-Based fault-tolerant routing algorithm for n-dimensional
/// networks (tori, meshes, hypercubes and mixed-radix shapes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwBasedRouting {
    flavor: RoutingFlavor,
}

impl SwBasedRouting {
    /// Deterministic (e-cube based) Software-Based routing.
    pub fn deterministic() -> Self {
        SwBasedRouting {
            flavor: RoutingFlavor::Deterministic,
        }
    }

    /// Fully adaptive (Duato's-Protocol based) Software-Based routing.
    pub fn adaptive() -> Self {
        SwBasedRouting {
            flavor: RoutingFlavor::Adaptive,
        }
    }

    /// Constructs the algorithm for a given flavour.
    pub fn with_flavor(flavor: RoutingFlavor) -> Self {
        SwBasedRouting { flavor }
    }

    /// Deterministic-mode routing step shared by the deterministic flavour and
    /// by faulted messages of the adaptive flavour.
    fn route_deterministic(
        &self,
        net: &Network,
        faults: &FaultSet,
        header: &RouteHeader,
        current: NodeId,
        v: usize,
    ) -> RouteDecision {
        let Some((dim, dir)) = ecube_output(net, header, current) else {
            // No remaining offset: `current` is the header's target. `route`
            // answers that case first (`arrival_decision`), so this arm is a
            // total-function fallback, not a path it takes. Nothing on the
            // `route` side advances targets — `reroute_on_fault` does.
            return RouteDecision::Deliver;
        };
        if !faults.output_usable(net, current, dim, dir) {
            return RouteDecision::Absorb;
        }
        let vcs = if header.flavor == RoutingFlavor::Adaptive {
            // Faulted messages of the adaptive flavour travel on the escape
            // layer (the embedded e-cube network) to preserve Duato's
            // deadlock-freedom argument.
            let policy = DatelinePolicy::new(net);
            vec![policy.escape_vc(dim, ecube_vc_class(header, dim))]
        } else {
            deterministic_vcs(net, header, dim, v)
        };
        RouteDecision::Forward(vec![OutputCandidate {
            dim,
            dir,
            vcs,
            is_escape: header.flavor == RoutingFlavor::Adaptive,
        }])
    }

    /// Dimensions to try for the orthogonal detour (rule 2), preferring the
    /// partner dimension of the current dimension pair as in the SW-Based-nD
    /// formulation of Fig. 2.
    fn orthogonal_order(dims: usize, blocked_dim: usize) -> Vec<usize> {
        orthogonal_order(dims, blocked_dim)
    }
}

/// Installs an explicit fault-free path from `at` to the header's final
/// destination (rule 3 / assumption (i)(ii) of the paper). Shared between the
/// SW-Based scheme, the turn-model subsystem and the fat-tree up/down scheme,
/// whose software layers apply the same fallback. Returns `false` only when
/// the destination is unreachable.
pub(crate) fn install_explicit_path<T: Topology + ?Sized>(
    net: &T,
    faults: &FaultSet,
    header: &mut RouteHeader,
    at: NodeId,
) -> bool {
    let graph = HealthyGraph::new(net, faults);
    let Some(path) = graph.shortest_path(at, header.final_dest) else {
        return false;
    };
    let nodes = path.nodes(net);
    header.set_via_chain(nodes.into_iter().skip(1));
    header.escorted = true;
    for forced in &mut header.forced_dir {
        *forced = None;
    }
    true
}

/// The opening of every software-layer `route()`: what to do when the header
/// has reached its current target, `None` while it is still under way.
///
/// A reached intermediate via host absorbs: the message is delivered to the
/// local software layer and re-injected towards the next target (software
/// forwarding, Section 3). Releasing every held channel there is what keeps
/// the escape-layer dependency chains acyclic — an in-flight retarget could
/// chain a forbidden dependency through the via node.
pub(crate) fn arrival_decision(header: &RouteHeader, current: NodeId) -> Option<RouteDecision> {
    if current != header.target() {
        None
    } else if header.pending_via() > 0 {
        Some(RouteDecision::Absorb)
    } else {
        Some(RouteDecision::Deliver)
    }
}

/// The opening of every software-layer `reroute_on_fault()`. Returns the
/// re-route's outcome when it is settled here, `None` when the algorithm's
/// own rules 1 and 2 must pick a detour.
pub(crate) fn begin_reroute<T: Topology + ?Sized>(
    net: &T,
    faults: &FaultSet,
    header: &mut RouteHeader,
    at: NodeId,
) -> Option<bool> {
    header.absorptions += 1;
    // Software forwarding: the message was absorbed because it reached an
    // intermediate via host, not because of a new fault. Pop the reached
    // target(s) and re-inject unchanged.
    if at == header.target() && header.pending_via() > 0 {
        while at == header.target() && header.pending_via() > 0 {
            header.advance_target(at);
        }
        return Some(true);
    }
    header.faulted = true;
    // Rule 3 (fallback): out of budget, or already escorted yet absorbed
    // again (which can only happen if the fault set changed) — compute an
    // explicit fault-free path.
    if header.escorted || header.misroute_budget == 0 {
        return Some(install_explicit_path(net, faults, header, at));
    }
    None
}

/// Dimensions to try for the orthogonal detour (rule 2), preferring the
/// partner dimension of the blocked dimension's pair as in the SW-Based-nD
/// formulation of Fig. 2. Shared with the turn-model software layer.
pub(crate) fn orthogonal_order(dims: usize, blocked_dim: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(dims.saturating_sub(1));
    if blocked_dim + 1 < dims {
        order.push(blocked_dim + 1);
    } else if blocked_dim > 0 {
        order.push(blocked_dim - 1);
    }
    for d in 0..dims {
        if d != blocked_dim && !order.contains(&d) {
            order.push(d);
        }
    }
    order
}

impl RoutingAlgorithm for SwBasedRouting {
    fn flavor(&self) -> RoutingFlavor {
        self.flavor
    }

    fn min_virtual_channels(&self, net: &AnyTopology) -> usize {
        let policy = DatelinePolicy::new(expect_grid(net));
        match self.flavor {
            RoutingFlavor::Deterministic => policy.min_deterministic_vcs(),
            RoutingFlavor::Adaptive => policy.min_adaptive_vcs(),
        }
    }

    fn supported_on(&self, net: &AnyTopology) -> Result<(), RoutingTopologyError> {
        if net.grid().is_none() {
            return Err(RoutingTopologyError::UnsupportedTopology {
                algorithm: "SW-Based-nD",
                topology: net.to_string(),
                requires: "a direct grid topology (torus/mesh/hypercube); \
                           fat-trees route with the up/down scheme",
            });
        }
        Ok(())
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
        if let Some(decision) = arrival_decision(header, current) {
            return decision;
        }
        if header.is_deterministic() {
            return self.route_deterministic(net, faults, header, current, v);
        }
        // Adaptive flavour, not yet faulted: Duato's Protocol over the healthy
        // productive outputs. The message is absorbed only when *all*
        // productive outputs lead to faults (Section 5: "a message is
        // delivered to current node when all available paths are faulty").
        let candidates = adaptive_candidates(net, header, current, v, |dim, dir| {
            faults.output_usable(net, current, dim, dir)
        });
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

        let (dim, dir) = blocked;

        // Rule 1: re-route in the same dimension, opposite direction. Only a
        // wrapped dimension can reach the target the "wrong way round"; on an
        // open dimension the opposite direction walks away from the target
        // and dead-ends at the edge, so the rule is skipped there.
        if net.wraps(dim) && header.forced_dir[dim].is_none() {
            let opposite = dir.opposite();
            if faults.output_usable(net, at, dim, opposite)
                && net.offset(at, header.target(), dim) != 0
            {
                header.forced_dir[dim] = Some(opposite);
                return true;
            }
        }

        // Rule 2: route in an orthogonal dimension to slide along the fault
        // region, then resume towards the destination. `output_usable` is
        // false for channels that do not exist, so mesh edges are skipped
        // naturally.
        for o in Self::orthogonal_order(net.dims(), dim) {
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
                header.forced_dir[dim] = None;
                header.push_intermediate(via);
                return true;
            }
        }

        // Every neighbouring move is faulty (the node is walled in except for
        // the channel the message arrived on) — fall back to the explicit
        // path, which exists as long as the network is connected.
        install_explicit_path(net, faults, header, at)
    }

    fn name(&self) -> String {
        format!("SW-Based-nD ({})", self.flavor.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torus() -> AnyTopology {
        AnyTopology::torus(8, 2).unwrap()
    }

    fn no_faults() -> FaultSet {
        FaultSet::new()
    }

    /// Node id from grid digits (tests only run on grid topologies).
    fn node(t: &AnyTopology, digits: &[u16]) -> NodeId {
        t.grid().unwrap().node_from_digits(digits).unwrap()
    }

    /// Walks a message through the network with the given algorithm, always
    /// taking the first candidate, and returns the nodes visited. Panics on
    /// Absorb (tests that expect absorption handle it themselves).
    fn walk(
        net: &AnyTopology,
        faults: &FaultSet,
        algo: &SwBasedRouting,
        src: NodeId,
        dest: NodeId,
    ) -> Vec<NodeId> {
        let mut header = algo.make_header(net, src, dest);
        let mut current = src;
        let mut visited = vec![src];
        for _ in 0..10_000 {
            match algo.route(net, faults, &mut header, current, 4) {
                RouteDecision::Deliver => return visited,
                RouteDecision::Absorb => {
                    panic!("unexpected absorption at {current:?}");
                }
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

    #[test]
    fn fault_free_deterministic_is_ecube() {
        let t = torus();
        let algo = SwBasedRouting::deterministic();
        let src = node(&t, &[1, 1]);
        let dest = node(&t, &[5, 3]);
        let visited = walk(&t, &no_faults(), &algo, src, dest);
        let expected: Vec<NodeId> =
            torus_topology::dimension_order_path(t.grid().unwrap(), src, dest).nodes(&t);
        assert_eq!(visited, expected);
    }

    #[test]
    fn fault_free_deterministic_is_ecube_on_meshes_and_hypercubes() {
        for net in [
            AnyTopology::mesh(8, 2).unwrap(),
            AnyTopology::hypercube(5).unwrap(),
        ] {
            let algo = SwBasedRouting::deterministic();
            let src = NodeId(1);
            let dest = NodeId(net.num_nodes() as u32 - 2);
            let visited = walk(&net, &no_faults(), &algo, src, dest);
            let expected: Vec<NodeId> =
                torus_topology::dimension_order_path(net.grid().unwrap(), src, dest).nodes(&net);
            assert_eq!(visited, expected);
        }
    }

    #[test]
    fn fault_free_adaptive_reaches_destination_minimally() {
        let t = torus();
        let algo = SwBasedRouting::adaptive();
        let src = node(&t, &[0, 0]);
        let dest = node(&t, &[3, 6]);
        let visited = walk(&t, &no_faults(), &algo, src, dest);
        assert_eq!(visited.len() as u32 - 1, t.distance(src, dest));
        assert_eq!(*visited.last().unwrap(), dest);
    }

    #[test]
    fn deterministic_absorbs_at_fault() {
        let t = torus();
        let mut faults = FaultSet::new();
        // Fault directly on the e-cube path.
        faults.fail_node(node(&t, &[2, 0]));
        let algo = SwBasedRouting::deterministic();
        let src = node(&t, &[0, 0]);
        let dest = node(&t, &[4, 0]);
        let mut header = algo.make_header(&t, src, dest);
        // Walk to the node adjacent to the fault.
        let one = node(&t, &[1, 0]);
        let d = algo.route(&t, &faults, &mut header, one, 4);
        assert!(d.is_absorb());
    }

    #[test]
    fn adaptive_does_not_absorb_while_alternatives_exist() {
        let t = torus();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&t, &[2, 1]));
        let algo = SwBasedRouting::adaptive();
        let src = node(&t, &[1, 1]);
        let dest = node(&t, &[3, 3]);
        let mut header = algo.make_header(&t, src, dest);
        let d = algo.route(&t, &faults, &mut header, src, 6);
        // dim 0 plus is faulty but dim 1 plus is healthy: still forwarding.
        match d {
            RouteDecision::Forward(cands) => {
                assert!(cands
                    .iter()
                    .all(|c| !(c.dim == 0 && c.dir == Direction::Plus)));
                assert!(!cands.is_empty());
            }
            other => panic!("expected Forward, got {other:?}"),
        }
    }

    #[test]
    fn adaptive_absorbs_only_when_all_productive_paths_faulty() {
        let t = torus();
        let mut faults = FaultSet::new();
        // Message needs +1 in dim 0 and +1 in dim 1; block both neighbours.
        faults.fail_node(node(&t, &[2, 1]));
        faults.fail_node(node(&t, &[1, 2]));
        let algo = SwBasedRouting::adaptive();
        let src = node(&t, &[1, 1]);
        let dest = node(&t, &[2, 2]);
        let mut header = algo.make_header(&t, src, dest);
        let d = algo.route(&t, &faults, &mut header, src, 6);
        assert!(d.is_absorb());
    }

    #[test]
    fn reroute_rule1_forces_opposite_direction() {
        let t = torus();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&t, &[2, 0]));
        let algo = SwBasedRouting::deterministic();
        let src = node(&t, &[1, 0]);
        let dest = node(&t, &[4, 0]);
        let mut header = algo.make_header(&t, src, dest);
        assert!(algo.reroute_on_fault(&t, &faults, &mut header, src, (0, Direction::Plus)));
        assert!(header.faulted);
        assert_eq!(header.absorptions, 1);
        assert_eq!(header.forced_dir[0], Some(Direction::Minus));
    }

    #[test]
    fn reroute_rule1_skipped_on_open_dimensions() {
        // On a mesh the opposite direction cannot wrap around to the target,
        // so the software layer must go straight to the orthogonal rule.
        let m = AnyTopology::mesh(8, 2).unwrap();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&m, &[2, 0]));
        let algo = SwBasedRouting::deterministic();
        let at = node(&m, &[1, 0]);
        let dest = node(&m, &[4, 0]);
        let mut header = algo.make_header(&m, at, dest);
        assert!(algo.reroute_on_fault(&m, &faults, &mut header, at, (0, Direction::Plus)));
        assert!(header.forced_dir.iter().all(Option::is_none));
        assert_eq!(header.pending_via(), 1);
        // The orthogonal via node sits one hop away in dimension 1 (the only
        // open direction from row 0 is Plus).
        assert_eq!(header.target(), node(&m, &[1, 1]));
    }

    #[test]
    fn reroute_rule2_detours_orthogonally_when_both_directions_blocked() {
        let t = torus();
        let mut faults = FaultSet::new();
        // Block both dimension-0 neighbours of the absorbing node.
        faults.fail_node(node(&t, &[2, 0]));
        faults.fail_node(node(&t, &[0, 0]));
        let algo = SwBasedRouting::deterministic();
        let at = node(&t, &[1, 0]);
        let dest = node(&t, &[4, 0]);
        let mut header = algo.make_header(&t, at, dest);
        assert!(algo.reroute_on_fault(&t, &faults, &mut header, at, (0, Direction::Plus)));
        // An orthogonal intermediate destination (one hop in dimension 1) was
        // installed.
        assert_eq!(header.pending_via(), 1);
        let via = header.target();
        let grid = t.grid().unwrap();
        assert_eq!(grid.coord(via).get(0), 1);
        assert_ne!(grid.coord(via).get(1), 0);
    }

    #[test]
    fn reroute_rule1_skipped_when_dimension_already_resolved() {
        // If the blocked dimension has zero offset to the target, forcing the
        // opposite direction cannot help; the software layer must fall through
        // to the orthogonal rule.
        let t = torus();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&t, &[1, 1]));
        let algo = SwBasedRouting::deterministic();
        let at = node(&t, &[1, 0]);
        let mut header = algo.make_header(&t, at, node(&t, &[1, 4]));
        // Dimension 0 offset to the target is zero.
        assert!(algo.reroute_on_fault(&t, &faults, &mut header, at, (0, Direction::Plus)));
        assert!(header.forced_dir.iter().all(Option::is_none));
        assert_eq!(header.pending_via(), 1);
        // The orthogonal detour avoids the faulty node [1,1].
        assert_ne!(header.target(), node(&t, &[1, 1]));
    }

    #[test]
    fn reroute_falls_back_to_explicit_path_when_budget_exhausted() {
        let t = torus();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&t, &[3, 3]));
        let algo = SwBasedRouting::deterministic();
        let at = node(&t, &[3, 2]);
        let dest = node(&t, &[3, 5]);
        let mut header = algo.make_header(&t, at, dest);
        header.misroute_budget = 0;
        assert!(algo.reroute_on_fault(&t, &faults, &mut header, at, (1, Direction::Plus)));
        assert!(header.escorted);
        // The explicit path must avoid the faulty node and end at the
        // destination.
        let mut current = at;
        let mut hops = 0;
        while current != dest {
            match algo.route(&t, &faults, &mut header, current, 4) {
                RouteDecision::Deliver => break,
                RouteDecision::Forward(cands) => {
                    let c = &cands[0];
                    algo.note_hop(&t, &mut header, current, c.dim, c.dir);
                    current = t.neighbor(current, c.dim, c.dir).expect("existing hop");
                    assert!(!faults.is_node_faulty(current));
                }
                RouteDecision::Absorb => {
                    // Escorted hops are software-forwarded through every via
                    // host: absorbed and re-injected towards the next one.
                    let blocked = ecube_output(t.grid().unwrap(), &header, current)
                        .unwrap_or((0, Direction::Plus));
                    assert!(
                        algo.reroute_on_fault(&t, &faults, &mut header, current, blocked),
                        "escorted message must always forward"
                    );
                    header.reset_for_injection();
                }
            }
            hops += 1;
            assert!(hops < 100);
        }
    }

    #[test]
    fn deterministic_message_routes_around_single_fault_end_to_end() {
        // Full software loop: route, absorb, re-route, re-inject (conceptually)
        // until delivery, mirroring what the simulator does — on a torus and
        // on the matching mesh.
        for net in [
            AnyTopology::torus(8, 2).unwrap(),
            AnyTopology::mesh(8, 2).unwrap(),
        ] {
            let mut faults = FaultSet::new();
            faults.fail_node(node(&net, &[3, 0]));
            let algo = SwBasedRouting::deterministic();
            let src = node(&net, &[1, 0]);
            let dest = node(&net, &[4, 0]);

            let mut header = algo.make_header(&net, src, dest);
            let mut current = src;
            let mut absorptions = 0;
            let mut steps = 0;
            loop {
                steps += 1;
                assert!(steps < 1000, "livelock: message never delivered");
                match algo.route(&net, &faults, &mut header, current, 4) {
                    RouteDecision::Deliver => break,
                    RouteDecision::Forward(cands) => {
                        let c = &cands[0];
                        algo.note_hop(&net, &mut header, current, c.dim, c.dir);
                        current = net.neighbor(current, c.dim, c.dir).expect("existing hop");
                        assert!(!faults.is_node_faulty(current));
                    }
                    RouteDecision::Absorb => {
                        absorptions += 1;
                        // Determine the blocked output exactly as the router
                        // does; a via host at its reached target has none.
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
            assert_eq!(current, dest);
            assert!(absorptions >= 1, "the fault lies on the e-cube path");
            assert_eq!(header.absorptions, absorptions);
        }
    }

    #[test]
    fn adaptive_flavor_faulted_message_uses_escape_vcs() {
        let t = torus();
        let algo = SwBasedRouting::adaptive();
        let src = node(&t, &[0, 0]);
        let dest = node(&t, &[4, 0]);
        let mut header = algo.make_header(&t, src, dest);
        header.faulted = true;
        let d = algo.route(&t, &no_faults(), &mut header, src, 6);
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
    fn min_virtual_channels_and_names() {
        let t = torus();
        let m = AnyTopology::mesh(8, 2).unwrap();
        let mixed = AnyTopology::Grid(Network::new(vec![8, 4], vec![true, false]).unwrap());
        assert_eq!(SwBasedRouting::deterministic().min_virtual_channels(&t), 2);
        assert_eq!(SwBasedRouting::adaptive().min_virtual_channels(&t), 3);
        // Meshes need no dateline VC: one deterministic VC, two for Duato.
        assert_eq!(SwBasedRouting::deterministic().min_virtual_channels(&m), 1);
        assert_eq!(SwBasedRouting::adaptive().min_virtual_channels(&m), 2);
        // One wrapped dimension is enough to require the full split.
        assert_eq!(
            SwBasedRouting::deterministic().min_virtual_channels(&mixed),
            2
        );
        assert_eq!(
            SwBasedRouting::deterministic().name(),
            "SW-Based-nD (deterministic)"
        );
        assert_eq!(
            SwBasedRouting::with_flavor(RoutingFlavor::Adaptive).flavor(),
            RoutingFlavor::Adaptive
        );
    }

    #[test]
    fn supported_on_grids_but_not_fat_trees() {
        let algo = SwBasedRouting::deterministic();
        assert_eq!(algo.supported_on(&torus()), Ok(()));
        assert_eq!(algo.supported_on(&AnyTopology::mesh(4, 3).unwrap()), Ok(()));
        let ft = AnyTopology::fat_tree_new(4, 2).unwrap();
        match algo.supported_on(&ft) {
            Err(RoutingTopologyError::UnsupportedTopology {
                algorithm,
                topology,
                ..
            }) => {
                assert_eq!(algorithm, "SW-Based-nD");
                assert_eq!(topology, "ft:4,2");
            }
            other => panic!("expected UnsupportedTopology, got {other:?}"),
        }
        let msg = format!("{}", algo.supported_on(&ft).unwrap_err());
        assert!(msg.contains("SW-Based-nD"));
        assert!(msg.contains("'ft:4,2'"));
        assert!(msg.contains("up/down"));
    }

    #[test]
    fn orthogonal_order_prefers_pair_partner() {
        assert_eq!(SwBasedRouting::orthogonal_order(3, 0), vec![1, 2]);
        assert_eq!(SwBasedRouting::orthogonal_order(3, 1), vec![2, 0]);
        assert_eq!(SwBasedRouting::orthogonal_order(3, 2), vec![1, 0]);
        assert_eq!(SwBasedRouting::orthogonal_order(2, 1), vec![0]);
        assert_eq!(SwBasedRouting::orthogonal_order(1, 0), Vec::<usize>::new());
    }
}
