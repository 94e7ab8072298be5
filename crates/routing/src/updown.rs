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
//! The deterministic output ([`updown_output`]) pins the ascent to the
//! destination-aligned parent (the parent whose switch-index digit at the
//! current level matches the destination's), yielding one canonical minimal
//! path per pair. In the adaptive flavour *any* live parent is a valid ascent
//! (every parent leads to some common ancestor at the same meeting level, so
//! all up-choices are minimal); the descent is unique either way. There are
//! no rings, so one virtual channel suffices deterministic and two adaptive.
//!
//! The software layer's detour on a fat-tree is the alternate parent: a dead
//! up-link or parent switch is survived by re-ascending through another live
//! parent, which preserves the `up* down*` order because the message was
//! still in its up-phase. Re-ascending after a down-hop would break that
//! order, so a down-phase fault goes straight to an explicit fault-free path;
//! the escorted message is absorbed and re-injected at every via host, which
//! releases all held channels and keeps the dependency chains acyclic. When
//! the fault set disconnects the tree (a leaf switch is a single point of
//! failure) the re-route reports `false` and the message is dropped.

use crate::header::RouteHeader;
use torus_topology::{Direction, FatTree, FatTreeNode, NodeId};

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
pub(crate) fn down_port_towards(ft: &FatTree, current: NodeId, target: NodeId) -> Option<usize> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{deliver, walk};
    use crate::{
        AnyRouting, OutputCandidate, RouteDecision, RoutingAlgorithm, RoutingFlavor, Substrate,
    };
    use torus_faults::FaultSet;
    use torus_topology::AnyTopology;

    fn ft42() -> AnyTopology {
        AnyTopology::fat_tree_new(4, 2).unwrap()
    }

    fn no_faults() -> FaultSet {
        FaultSet::new()
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
            let algo = AnyRouting::deterministic(Substrate::UpDown);
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
        let algo = AnyRouting::adaptive(Substrate::UpDown);
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
        let algo = AnyRouting::adaptive(Substrate::UpDown);
        // At a leaf switch ascending: all 4 parents are candidates, plus the
        // destination-aligned escape on VC 0.
        let src = NodeId(0);
        let dest = NodeId(13); // different leaf: must ascend to the top
        let mut h = algo.make_header(&net, src, dest);
        let leaf = ft.leaf_of(src);
        let d = algo.route(&net, &no_faults(), &mut h, leaf, 3);
        let cands = d.candidates();
        let adaptive: Vec<_> = cands.iter().filter(|c| !c.is_escape()).collect();
        assert_eq!(adaptive.len(), 4);
        for c in &adaptive {
            assert_eq!(c.dir(), Direction::Plus);
            assert_eq!(c.vcs().range(), 1..3);
        }
        let escape = cands.iter().find(|c| c.is_escape()).unwrap();
        assert_eq!(escape.vcs().range(), 0..1);
        assert_eq!(escape.dir(), Direction::Plus);
        // On the descent the choice collapses to the unique down-port.
        let top = ft
            .neighbor(leaf, escape.dim(), Direction::Plus)
            .expect("escape ascends to a top switch");
        let d = algo.route(&net, &no_faults(), &mut h, top, 3);
        let cands = d.candidates();
        assert!(cands.iter().all(|c| c.dir() == Direction::Minus));
        let dims: Vec<_> = cands.iter().map(OutputCandidate::dim).collect();
        assert_eq!(dims.len(), 2); // one adaptive + one escape, same port
        assert_eq!(dims[0], dims[1]);
    }

    #[test]
    fn faulted_adaptive_messages_ride_the_escape_channel() {
        let net = ft42();
        let algo = AnyRouting::adaptive(Substrate::UpDown);
        let mut h = algo.make_header(&net, NodeId(0), NodeId(13));
        h.faulted = true;
        let d = algo.route(&net, &no_faults(), &mut h, NodeId(0), 3);
        match d {
            RouteDecision::Forward(cands) => {
                assert_eq!(cands.len(), 1);
                assert_eq!(cands[0].vcs().range(), 0..1);
                assert!(cands[0].is_escape());
            }
            other => panic!("expected Forward, got {other:?}"),
        }
    }

    #[test]
    fn dead_up_link_reroutes_through_an_alternate_parent() {
        let net = ft42();
        let ft = net.fat_tree().unwrap();
        let algo = AnyRouting::deterministic(Substrate::UpDown);
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
        for algo in [
            AnyRouting::deterministic(Substrate::UpDown),
            AnyRouting::adaptive(Substrate::UpDown),
        ] {
            let src = NodeId(0);
            let dest = NodeId(13);
            // Kill the top switch the canonical path ascends through.
            let h0 = algo.make_header(&net, src, dest);
            let leaf = ft.leaf_of(src);
            let (t, _) = updown_output(ft, &h0, leaf).unwrap();
            let blocked_top = ft.neighbor(leaf, t, Direction::Plus).unwrap();
            let mut faults = FaultSet::new();
            faults.fail_node(blocked_top);

            let end = deliver(&net, &faults, &algo, src, dest, 2);
            assert_eq!(end.at, dest, "{}", algo.name());
            assert!(end.header.absorptions >= 1 || algo.flavor() == RoutingFlavor::Adaptive);
        }
    }

    #[test]
    fn down_phase_fault_falls_back_to_an_explicit_path() {
        // ft:2,3 gives a two-hop descent, so a fault can sit strictly inside
        // the down-phase.
        let net = AnyTopology::fat_tree_new(2, 3).unwrap();
        let ft = net.fat_tree().unwrap();
        let algo = AnyRouting::deterministic(Substrate::UpDown);
        let src = NodeId(0);
        let dest = NodeId(7);
        // The canonical descent to e7 passes its leaf switch s0.3; kill the
        // *link* between s1.3 (mid level) and s0.3 instead of the leaf (the
        // leaf is a single point of failure for e7).
        let mid = ft.switch_id(1, 3);
        let leaf = ft.switch_id(0, 3);
        let (t, _) = net
            .neighbors(mid)
            .find_map(|(ch, n)| (n == leaf).then_some((ch.dim, n)))
            .unwrap();
        let mut faults = FaultSet::new();
        faults.fail_link(&net, mid, t, Direction::Minus);

        let end = deliver(&net, &faults, &algo, src, dest, 1);
        assert_eq!(end.at, dest);
        if end.absorptions > 0 {
            assert!(
                end.went_escorted,
                "a down-phase fault must take the explicit-path rule"
            );
        }
    }

    #[test]
    fn unreachable_destination_is_reported() {
        // A leaf switch is a single point of failure for its endpoints.
        let net = ft42();
        let ft = net.fat_tree().unwrap();
        let algo = AnyRouting::deterministic(Substrate::UpDown);
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
    fn deterministic_output_is_destination_aligned() {
        let net = ft42();
        let ft = net.fat_tree().unwrap();
        let algo = AnyRouting::deterministic(Substrate::UpDown);
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
        let algo = AnyRouting::deterministic(Substrate::UpDown);
        let visited = walk(&net, &no_faults(), &algo, NodeId(0), NodeId(3), 1);
        assert_eq!(visited.len(), 3); // e0 -> s0.0 -> e3
        assert_eq!(net.distance(NodeId(0), NodeId(3)), 2);
    }
}
