//! Up*/down* routing for k-ary l-level fat-trees.
//!
//! A fat-tree message first climbs ([`Direction::Plus`] hops) to the lowest
//! switch that is a common ancestor of source and destination, then descends
//! ([`Direction::Minus`] hops) along the unique down-path into the
//! destination's subtree. Because every legal route is of the form
//! `up* down*`, ordering all up-channels before all down-channels makes the
//! channel dependency graph acyclic — the classical up/down deadlock-freedom
//! argument, which the verifier re-establishes machine-checked through the
//! same exact-CDG pipeline used for the grid schemes.
//!
//! Two flavours mirror the SW-Based scheme's structure:
//!
//! * **deterministic flavour** ([`UpDownRouting::deterministic`]) — the
//!   ascent is pinned to the destination-aligned parent (the parent whose
//!   switch-index digit at the current level matches the destination's),
//!   yielding one canonical minimal path per pair. One virtual channel
//!   suffices: the up/down CDG is acyclic with a single VC class.
//! * **adaptive flavour** ([`UpDownRouting::adaptive`]) — *any* live parent
//!   is a valid ascent (every parent leads to some common ancestor at the
//!   same meeting level, so all up-choices are minimal); the descent is
//!   unique either way. Adaptive hops ride VCs `1..v` with the deterministic
//!   up/down output as the escape channel on VC 0, so two virtual channels
//!   suffice.
//!
//! **Fault handling** adapts the Software-Based rules to the indirect
//! topology. When the chosen output leads to a dead link or switch the
//! message is absorbed and the software layer rewrites the header:
//!
//! 1. *dead up-link or parent switch* — re-ascend through an alternate live
//!    parent (installed as an intermediate destination). This preserves the
//!    `up* down*` discipline: the message was still in its up-phase, and any
//!    parent is a valid ascent.
//! 2. *dead down-link or child switch* — re-ascending after a down-hop would
//!    break the up/down order, so the software layer immediately computes an
//!    explicit fault-free path (rule 3 of the paper's scheme); the escorted
//!    message is absorbed and re-injected at every via host, which releases
//!    all held channels and keeps the dependency chains acyclic.
//! 3. With the misroute budget exhausted, rule 3 applies directly; when the
//!    destination is unreachable (the fault set disconnects the tree —
//!    possible on fat-trees, where a leaf switch is a single point of
//!    failure), `reroute_on_fault` reports `false` and the message is
//!    dropped.
//!
//! Like the grid schemes rejecting fat-trees, [`UpDownRouting`] rejects
//! direct grids at construction time with a typed
//! [`RoutingTopologyError::UnsupportedTopology`].

use crate::decision::{OutputCandidate, RouteDecision};
use crate::header::{RouteHeader, RoutingFlavor};
use crate::swbased::{arrival_decision, begin_reroute, install_explicit_path, RoutingAlgorithm};
use crate::turnmodel::RoutingTopologyError;
use serde::{Deserialize, Serialize};
use torus_faults::FaultSet;
use torus_topology::{AnyTopology, Direction, FatTree, FatTreeNode, NodeId};

/// Downcast used by the up/down scheme after `supported_on` has validated
/// the topology at construction time.
fn expect_fat_tree(net: &AnyTopology) -> &FatTree {
    net.fat_tree().expect(
        "up/down routing invoked on a direct grid (supported_on rejects this at construction)",
    )
}

/// Destination-aligned digit: the base-k digit at `pos` of `node`'s switch
/// index (for endpoints, of the leaf switch's index). Drives the canonical
/// deterministic ascent.
fn aligned_digit(ft: &FatTree, node: NodeId, pos: u32) -> u32 {
    let k = u32::from(ft.arity());
    let index = match ft.classify(node) {
        FatTreeNode::Endpoint(p) => p / k,
        FatTreeNode::Switch { index, .. } => index,
    };
    (index / k.pow(pos)) % k
}

/// The unique down-port of `current` whose subtree contains `target`, when
/// `current` is an ancestor of `target` (in the [`FatTree::descends_to`]
/// sense) and not `target` itself.
fn down_port_towards(ft: &FatTree, current: NodeId, target: NodeId) -> Option<usize> {
    (0..ft.dims()).find(|&t| {
        ft.neighbor(current, t, Direction::Minus)
            .is_some_and(|child| ft.descends_to(child, target))
    })
}

/// The canonical deterministic up/down output for a header at `current`:
/// the unique down-port while `current` is an ancestor of the target, the
/// destination-aligned up-port otherwise. Returns `None` when the message is
/// already at its current routing target.
pub fn updown_output(
    ft: &FatTree,
    header: &RouteHeader,
    current: NodeId,
) -> Option<(usize, Direction)> {
    let target = header.target();
    if current == target {
        return None;
    }
    if ft.descends_to(current, target) {
        let t = down_port_towards(ft, current, target)
            .expect("an ancestor always has a down-port towards its descendant");
        return Some((t, Direction::Minus));
    }
    match ft.classify(current) {
        FatTreeNode::Endpoint(p) => {
            // The single up-port of an endpoint carries index p mod k.
            Some(((p % u32::from(ft.arity())) as usize, Direction::Plus))
        }
        FatTreeNode::Switch { level, index } => {
            // Ascend towards the parent whose digit at this level matches the
            // target's. Top switches descend to everything, so an up-port
            // always exists here.
            let k = u32::from(ft.arity());
            let w_lev = (index / k.pow(level)) % k;
            let t = ((w_lev + aligned_digit(ft, target, level)) % k) as usize;
            debug_assert!(ft.has_channel(current, t, Direction::Plus));
            Some((t, Direction::Plus))
        }
    }
}

/// Up*/down* routing on k-ary l-level fat-trees, in deterministic and
/// adaptive flavours.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpDownRouting {
    flavor: RoutingFlavor,
}

impl UpDownRouting {
    /// Deterministic up/down routing (destination-aligned ascent).
    pub fn deterministic() -> Self {
        UpDownRouting {
            flavor: RoutingFlavor::Deterministic,
        }
    }

    /// Adaptive up/down routing (any live parent on the ascent) with a
    /// deterministic up/down escape channel.
    pub fn adaptive() -> Self {
        UpDownRouting {
            flavor: RoutingFlavor::Adaptive,
        }
    }

    /// Constructs the algorithm for a given flavour.
    pub fn with_flavor(flavor: RoutingFlavor) -> Self {
        UpDownRouting { flavor }
    }

    /// Deterministic-mode routing step shared by the deterministic flavour
    /// and by faulted messages of the adaptive flavour.
    fn route_deterministic(
        &self,
        ft: &FatTree,
        faults: &FaultSet,
        header: &RouteHeader,
        current: NodeId,
        v: usize,
    ) -> RouteDecision {
        let Some((dim, dir)) = updown_output(ft, header, current) else {
            // `route` already advanced through reached targets, so a missing
            // output means the final destination.
            return RouteDecision::Deliver;
        };
        if !faults.output_usable(ft, current, dim, dir) {
            return RouteDecision::Absorb;
        }
        let (vcs, is_escape) = if header.flavor == RoutingFlavor::Adaptive {
            // Faulted adaptive-flavour messages travel on the up/down escape
            // channel, mirroring the grid schemes' escape layers.
            (vec![0], true)
        } else {
            // The up/down order alone is deadlock free: the whole pool is
            // permitted with a single VC class.
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

impl RoutingAlgorithm for UpDownRouting {
    fn flavor(&self) -> RoutingFlavor {
        self.flavor
    }

    fn min_virtual_channels(&self, _net: &AnyTopology) -> usize {
        match self.flavor {
            // The up*/down* channel order alone is deadlock free.
            RoutingFlavor::Deterministic => 1,
            // One up/down escape channel plus at least one adaptive channel.
            RoutingFlavor::Adaptive => 2,
        }
    }

    fn supported_on(&self, net: &AnyTopology) -> Result<(), RoutingTopologyError> {
        if net.fat_tree().is_none() {
            return Err(RoutingTopologyError::UnsupportedTopology {
                algorithm: "up/down",
                topology: net.to_string(),
                requires: "an indirect fat-tree topology (ft:k,l); \
                           grids route with the SW-Based or turn-model schemes",
            });
        }
        Ok(())
    }

    fn deterministic_output(
        &self,
        net: &AnyTopology,
        header: &RouteHeader,
        current: NodeId,
    ) -> Option<(usize, Direction)> {
        updown_output(expect_fat_tree(net), header, current)
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
        let ft = expect_fat_tree(net);
        // Absorbing at a via target releases every held channel, which is
        // what lets an escorted fat-tree path alternate between descents and
        // ascents without closing an up/down dependency cycle.
        if let Some(decision) = arrival_decision(header, current) {
            return decision;
        }
        if header.is_deterministic() {
            return self.route_deterministic(ft, faults, header, current, v);
        }
        // Adaptive flavour, not yet faulted. On the descent the next hop is
        // unique; on the ascent every live parent is minimal (all parents
        // reach a common ancestor at the same meeting level).
        let target = header.target();
        let adaptive_vcs: Vec<usize> = (1..v).collect();
        let mut candidates: Vec<OutputCandidate> = if ft.descends_to(current, target) {
            down_port_towards(ft, current, target)
                .into_iter()
                .filter(|&t| faults.output_usable(ft, current, t, Direction::Minus))
                .map(|t| OutputCandidate::new(t, Direction::Minus, adaptive_vcs.clone()))
                .collect()
        } else {
            ft.parents(current)
                .into_iter()
                .filter(|&(t, parent)| {
                    faults.output_usable(ft, current, t, Direction::Plus)
                        && !faults.is_node_faulty(parent)
                })
                .map(|(t, _)| OutputCandidate::new(t, Direction::Plus, adaptive_vcs.clone()))
                .collect()
        };
        if let Some((dim, dir)) = updown_output(ft, header, current) {
            if faults.output_usable(ft, current, dim, dir) {
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
        let ft = expect_fat_tree(net);
        if let Some(settled) = begin_reroute(ft, faults, header, at) {
            return settled;
        }

        // Rule 1 (fat-tree form): a dead up-link or parent switch is survived
        // by re-ascending through any alternate live parent — the message is
        // still in its up-phase, so the up*/down* discipline is preserved.
        let (blocked_dim, blocked_dir) = blocked;
        if blocked_dir == Direction::Plus {
            header.misroute_budget -= 1;
            for (t, parent) in ft.parents(at) {
                if t == blocked_dim {
                    continue;
                }
                if !faults.output_usable(ft, at, t, Direction::Plus)
                    || faults.is_node_faulty(parent)
                {
                    continue;
                }
                header.push_intermediate(parent);
                return true;
            }
        }

        // Down-phase fault (re-ascending would break the up/down order), or
        // every alternate parent dead: explicit fault-free path, which exists
        // as long as the fault set leaves the tree connected.
        install_explicit_path(ft, faults, header, at)
    }

    fn name(&self) -> String {
        format!("Up/Down ({})", self.flavor.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft42() -> AnyTopology {
        AnyTopology::fat_tree_new(4, 2).unwrap()
    }

    fn no_faults() -> FaultSet {
        FaultSet::new()
    }

    /// Walks a message with the given algorithm, always taking the first
    /// candidate, and returns the nodes visited. Panics on Absorb.
    fn walk(
        net: &AnyTopology,
        faults: &FaultSet,
        algo: &UpDownRouting,
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

    /// Asserts a hop sequence never takes an up (Plus) hop after a down
    /// (Minus) hop — the up*/down* discipline.
    fn assert_up_then_down(net: &AnyTopology, visited: &[NodeId]) {
        let ft = net.fat_tree().unwrap();
        let level = |n: NodeId| match ft.classify(n) {
            FatTreeNode::Endpoint(_) => -1i64,
            FatTreeNode::Switch { level, .. } => i64::from(level),
        };
        let mut descending = false;
        for pair in visited.windows(2) {
            let up = level(pair[1]) > level(pair[0]);
            if up {
                assert!(!descending, "up hop after a down hop in {visited:?}");
            } else {
                descending = true;
            }
        }
    }

    #[test]
    fn deterministic_walks_are_minimal_up_down_paths() {
        for net in [ft42(), AnyTopology::fat_tree_new(2, 3).unwrap()] {
            let algo = UpDownRouting::deterministic();
            let e = net.num_endpoints() as u32;
            for (s, d) in [(0u32, 1u32), (0, e - 1), (3, e / 2), (e - 1, 0)] {
                let (src, dest) = (NodeId(s), NodeId(d));
                let visited = walk(&net, &no_faults(), &algo, src, dest, 1);
                assert_eq!(visited.len() as u32 - 1, net.distance(src, dest));
                assert_eq!(*visited.last().unwrap(), dest);
                assert_up_then_down(&net, &visited);
            }
        }
    }

    #[test]
    fn adaptive_walks_are_minimal_whatever_parent_is_taken() {
        let net = ft42();
        let algo = UpDownRouting::adaptive();
        let src = NodeId(0);
        let dest = NodeId(13);
        // First candidate each step — still minimal and up-then-down.
        let visited = walk(&net, &no_faults(), &algo, src, dest, 2);
        assert_eq!(visited.len() as u32 - 1, net.distance(src, dest));
        assert_up_then_down(&net, &visited);
    }

    #[test]
    fn adaptive_ascent_offers_every_parent_plus_escape() {
        let net = ft42();
        let ft = net.fat_tree().unwrap();
        let algo = UpDownRouting::adaptive();
        // At a leaf switch ascending: all 4 parents are candidates, plus the
        // destination-aligned escape on VC 0.
        let src = NodeId(0);
        let dest = NodeId(13); // different leaf: must ascend to the top
        let mut h = algo.make_header(&net, src, dest);
        let leaf = ft.leaf_of(src);
        let d = algo.route(&net, &no_faults(), &mut h, leaf, 3);
        let cands = d.candidates();
        let adaptive: Vec<_> = cands.iter().filter(|c| !c.is_escape).collect();
        assert_eq!(adaptive.len(), 4);
        for c in &adaptive {
            assert_eq!(c.dir, Direction::Plus);
            assert_eq!(c.vcs, vec![1, 2]);
        }
        let escape = cands.iter().find(|c| c.is_escape).unwrap();
        assert_eq!(escape.vcs, vec![0]);
        assert_eq!(escape.dir, Direction::Plus);
        // On the descent the choice collapses to the unique down-port.
        let top = ft
            .neighbor(leaf, escape.dim, Direction::Plus)
            .expect("escape ascends to a top switch");
        let d = algo.route(&net, &no_faults(), &mut h, top, 3);
        let cands = d.candidates();
        assert!(cands.iter().all(|c| c.dir == Direction::Minus));
        let dims: Vec<_> = cands.iter().map(|c| c.dim).collect();
        assert_eq!(dims.len(), 2); // one adaptive + one escape, same port
        assert_eq!(dims[0], dims[1]);
    }

    #[test]
    fn faulted_adaptive_messages_ride_the_escape_channel() {
        let net = ft42();
        let algo = UpDownRouting::adaptive();
        let mut h = algo.make_header(&net, NodeId(0), NodeId(13));
        h.faulted = true;
        let d = algo.route(&net, &no_faults(), &mut h, NodeId(0), 3);
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
    fn dead_up_link_reroutes_through_an_alternate_parent() {
        let net = ft42();
        let ft = net.fat_tree().unwrap();
        let algo = UpDownRouting::deterministic();
        let src = NodeId(0);
        let dest = NodeId(13);
        let leaf = ft.leaf_of(src);
        let mut h = algo.make_header(&net, src, dest);
        // The canonical ascent from the leaf.
        let (t, dir) = updown_output(ft, &h, leaf).unwrap();
        assert_eq!(dir, Direction::Plus);
        let canonical_parent = ft.neighbor(leaf, t, Direction::Plus).unwrap();
        let mut faults = FaultSet::new();
        faults.fail_node(canonical_parent);
        // Routing at the leaf now absorbs; the software layer re-ascends
        // through an alternate parent.
        assert!(algo.route(&net, &faults, &mut h, leaf, 1).is_absorb());
        assert!(algo.reroute_on_fault(&net, &faults, &mut h, leaf, (t, dir)));
        assert!(h.faulted);
        assert_eq!(h.pending_via(), 1);
        let via = h.target();
        assert_ne!(via, canonical_parent);
        assert!(ft.parents(leaf).iter().any(|&(_, p)| p == via));
        assert!(!faults.is_node_faulty(via));
    }

    #[test]
    fn routes_around_a_dead_top_switch_end_to_end() {
        let net = ft42();
        let ft = net.fat_tree().unwrap();
        for algo in [UpDownRouting::deterministic(), UpDownRouting::adaptive()] {
            let src = NodeId(0);
            let dest = NodeId(13);
            // Kill the top switch the canonical path ascends through.
            let h0 = algo.make_header(&net, src, dest);
            let leaf = ft.leaf_of(src);
            let (t, _) = updown_output(ft, &h0, leaf).unwrap();
            let blocked_top = ft.neighbor(leaf, t, Direction::Plus).unwrap();
            let mut faults = FaultSet::new();
            faults.fail_node(blocked_top);

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
            assert!(header.absorptions >= 1 || algo.flavor() == RoutingFlavor::Adaptive);
        }
    }

    #[test]
    fn down_phase_fault_falls_back_to_an_explicit_path() {
        // ft:2,3 gives a two-hop descent, so a fault can sit strictly inside
        // the down-phase.
        let net = AnyTopology::fat_tree_new(2, 3).unwrap();
        let ft = net.fat_tree().unwrap();
        let algo = UpDownRouting::deterministic();
        let src = NodeId(0);
        let dest = NodeId(7);
        // The canonical descent to e7 passes its leaf switch s0.3; kill the
        // *link* between s1.3 (mid level) and s0.3 instead of the leaf (the
        // leaf is a single point of failure for e7).
        let mid = ft.switch_id(1, 3);
        let leaf = ft.switch_id(0, 3);
        let (t, _) = ft
            .neighbors(mid)
            .iter()
            .find_map(|&(ch, n)| (n == leaf).then_some((ch.dim, n)))
            .unwrap();
        let mut faults = FaultSet::new();
        faults.fail_link(ft, mid, t, Direction::Minus);

        let mut header = algo.make_header(&net, src, dest);
        let mut current = src;
        let mut steps = 0;
        let mut went_escorted = false;
        loop {
            steps += 1;
            assert!(steps < 1000, "livelock: message never delivered");
            match algo.route(&net, &faults, &mut header, current, 1) {
                RouteDecision::Deliver => break,
                RouteDecision::Forward(cands) => {
                    let c = &cands[0];
                    algo.note_hop(&net, &mut header, current, c.dim, c.dir);
                    current = net.neighbor(current, c.dim, c.dir).expect("existing hop");
                }
                RouteDecision::Absorb => {
                    let blocked = algo
                        .deterministic_output(&net, &header, current)
                        .unwrap_or((0, Direction::Plus));
                    assert!(algo.reroute_on_fault(&net, &faults, &mut header, current, blocked));
                    went_escorted |= header.escorted;
                    header.reset_for_injection();
                }
            }
        }
        assert_eq!(current, dest);
        if header.absorptions > 0 {
            assert!(
                went_escorted,
                "a down-phase fault must take the explicit-path rule"
            );
        }
    }

    #[test]
    fn unreachable_destination_is_reported() {
        // A leaf switch is a single point of failure for its endpoints.
        let net = ft42();
        let ft = net.fat_tree().unwrap();
        let algo = UpDownRouting::deterministic();
        let dest = NodeId(13);
        let mut faults = FaultSet::new();
        faults.fail_node(ft.leaf_of(dest));
        let mut header = algo.make_header(&net, NodeId(0), dest);
        header.misroute_budget = 0;
        assert!(!algo.reroute_on_fault(
            &net,
            &faults,
            &mut header,
            ft.leaf_of(NodeId(0)),
            (0, Direction::Plus)
        ));
    }

    #[test]
    fn supported_on_fat_trees_but_not_grids() {
        let algo = UpDownRouting::adaptive();
        assert_eq!(algo.supported_on(&ft42()), Ok(()));
        let torus = AnyTopology::torus(8, 2).unwrap();
        match algo.supported_on(&torus) {
            Err(RoutingTopologyError::UnsupportedTopology {
                algorithm,
                topology,
                ..
            }) => {
                assert_eq!(algorithm, "up/down");
                assert_eq!(topology, "8x8");
            }
            other => panic!("expected UnsupportedTopology, got {other:?}"),
        }
        let msg = format!("{}", algo.supported_on(&torus).unwrap_err());
        assert!(msg.contains("up/down"));
        assert!(msg.contains("'8x8'"));
        assert!(msg.contains("ft:k,l"));
    }

    #[test]
    fn min_virtual_channels_and_names() {
        let net = ft42();
        assert_eq!(UpDownRouting::deterministic().min_virtual_channels(&net), 1);
        assert_eq!(UpDownRouting::adaptive().min_virtual_channels(&net), 2);
        assert_eq!(
            UpDownRouting::deterministic().name(),
            "Up/Down (deterministic)"
        );
        assert_eq!(UpDownRouting::adaptive().name(), "Up/Down (adaptive)");
        assert_eq!(
            UpDownRouting::with_flavor(RoutingFlavor::Adaptive).flavor(),
            RoutingFlavor::Adaptive
        );
    }

    #[test]
    fn deterministic_output_is_destination_aligned() {
        let net = ft42();
        let ft = net.fat_tree().unwrap();
        let algo = UpDownRouting::deterministic();
        // e0 -> e13: ascend e0 -> s0.0 -> top, descend into leaf s0.3.
        let h = algo.make_header(&net, NodeId(0), NodeId(13));
        // Endpoint up-port is p mod k = 0.
        assert_eq!(updown_output(ft, &h, NodeId(0)), Some((0, Direction::Plus)));
        // From the leaf, the aligned top switch has digit 3 at position 0
        // (the destination's leaf index): port (0 + 3) mod 4 = 3.
        let leaf = ft.leaf_of(NodeId(0));
        assert_eq!(updown_output(ft, &h, leaf), Some((3, Direction::Plus)));
        let top = ft.neighbor(leaf, 3, Direction::Plus).unwrap();
        // The top switch descends: its down-port to leaf s0.3, then the
        // leaf's down-port to e13 (13 mod 4 = 1).
        let (t, dir) = updown_output(ft, &h, top).unwrap();
        assert_eq!(dir, Direction::Minus);
        assert_eq!(
            ft.neighbor(top, t, Direction::Minus),
            Some(ft.switch_id(0, 3))
        );
        let (t, dir) = updown_output(ft, &h, ft.switch_id(0, 3)).unwrap();
        assert_eq!(dir, Direction::Minus);
        assert_eq!(t, 1);
        // At the destination there is nothing left to do.
        assert_eq!(updown_output(ft, &h, NodeId(13)), None);
    }

    #[test]
    fn same_leaf_pairs_never_leave_the_leaf() {
        let net = ft42();
        let algo = UpDownRouting::deterministic();
        let visited = walk(&net, &no_faults(), &algo, NodeId(0), NodeId(3), 1);
        assert_eq!(visited.len(), 3); // e0 -> s0.0 -> e3
        assert_eq!(net.distance(NodeId(0), NodeId(3)), 2);
    }
}
