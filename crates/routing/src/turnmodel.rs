//! Turn-model substrates (negative-first, west-first and north-last) for open
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
//! A [`TurnRule`] is a per-dimension *first direction*: negative-first routes
//! Minus first in every dimension, west-first routes Minus first in
//! dimension 0 and Plus first everywhere else, north-last the exact mirror
//! (Plus first in dimension 0, Minus first above). Any such assignment is a
//! reflection (relabelling of Plus/Minus) of negative-first, so the same
//! acyclicity argument applies, and the phase discipline ("first-phase hops
//! before second-phase hops") is rule-agnostic.
//!
//! Because the turn restriction replaces the dateline argument, the model is
//! only sound where no dimension wraps: a ring's same-direction dependency
//! chain closes a cycle no turn prohibition can break, so
//! [`RoutingAlgorithm::supported_on`](crate::RoutingAlgorithm::supported_on)
//! rejects it on wrapped dimensions (and on fat-trees, which have no grid
//! offsets). On the open shapes it accepts there is one dateline class, so
//! one virtual channel suffices deterministic and two adaptive.

use crate::cdg::TurnRule;
use crate::header::RouteHeader;
use torus_topology::{Direction, Network, NodeId};

/// The canonical turn-rule output for a header at `current`: the lowest
/// dimension with a productive hop in its first-phase direction, else the
/// lowest dimension with a productive second-phase hop.
///
/// Returns `None` when the message is already at its current routing target.
/// Forced-direction overrides are never consulted: they are only installed
/// by software rule 1, which requires a wrapped dimension, and this model
/// runs exclusively on open topologies.
pub(crate) fn turn_rule_output(
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
        if dir == rule.first_direction(dim) {
            return Some((dim, dir));
        }
        if second_phase.is_none() {
            second_phase = Some((dim, dir));
        }
    }
    second_phase
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::RoutingFlavor;
    use crate::testkit::{deliver, node, walk};
    use crate::{AnyRouting, RouteDecision, RoutingAlgorithm, RoutingTopologyError, Substrate};
    use torus_faults::FaultSet;
    use torus_topology::AnyTopology;

    const NEGATIVE_FIRST: Substrate = Substrate::Turn(TurnRule::NegativeFirst);
    const WEST_FIRST: Substrate = Substrate::Turn(TurnRule::WestFirst);
    const NORTH_LAST: Substrate = Substrate::Turn(TurnRule::NorthLast);

    fn mesh() -> AnyTopology {
        AnyTopology::mesh(8, 2).unwrap()
    }

    fn no_faults() -> FaultSet {
        FaultSet::new()
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
            if dir == rule.first_direction(dim) {
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
    fn canonical_output_routes_negative_phase_first() {
        let m = mesh();
        let g = m.grid().unwrap();
        let src = node(&m, &[3, 5]);
        let dest = node(&m, &[5, 2]);
        let h = RouteHeader::new(m.dims(), src, dest, RoutingFlavor::Deterministic);
        let output = |at| turn_rule_output(g, TurnRule::NegativeFirst, &h, at);
        // Offset is (+2, -3): the negative dimension-1 offset goes first.
        assert_eq!(output(src), Some((1, Direction::Minus)));
        assert_eq!(output(node(&m, &[3, 2])), Some((0, Direction::Plus)));
        assert_eq!(output(dest), None);
    }

    #[test]
    fn deterministic_walk_is_minimal_and_obeys_the_turn_restriction() {
        let m = mesh();
        let algo = AnyRouting::deterministic(NEGATIVE_FIRST);
        for (s, d) in [([1u16, 6], [6u16, 1]), ([7, 0], [0, 7]), ([2, 2], [5, 5])] {
            let src = node(&m, &s);
            let dest = node(&m, &d);
            let visited = walk(&m, &no_faults(), &algo, src, dest, 1);
            assert_eq!(visited.len() as u32 - 1, m.distance(src, dest));
            assert_eq!(*visited.last().unwrap(), dest);
            assert_obeys_rule(m.grid().unwrap(), TurnRule::NegativeFirst, &visited);
        }
    }

    #[test]
    fn adaptive_walk_is_minimal_and_obeys_the_turn_restriction() {
        let m = mesh();
        let algo = AnyRouting::adaptive(NEGATIVE_FIRST);
        let src = node(&m, &[6, 5]);
        let dest = node(&m, &[1, 0]);
        let visited = walk(&m, &no_faults(), &algo, src, dest, 2);
        assert_eq!(visited.len() as u32 - 1, m.distance(src, dest));
        assert_obeys_rule(m.grid().unwrap(), TurnRule::NegativeFirst, &visited);
    }

    #[test]
    fn adaptive_candidates_restricted_to_the_negative_phase() {
        let m = mesh();
        let algo = AnyRouting::adaptive(NEGATIVE_FIRST);
        let src = node(&m, &[3, 5]);
        let dest = node(&m, &[5, 2]);
        let mut h = algo.make_header(&m, src, dest);
        let d = algo.route(&m, &no_faults(), &mut h, src, 3);
        let cands = d.candidates();
        // Offset (+2, -3): while the negative offset remains, the productive
        // Plus hop in dimension 0 is forbidden.
        assert!(cands
            .iter()
            .all(|c| c.dim() == 1 && c.dir() == Direction::Minus));
        let escape = cands.iter().find(|c| c.is_escape()).unwrap();
        assert_eq!(escape.vcs().range(), 0..1);
        for c in cands.iter().filter(|c| !c.is_escape()) {
            assert_eq!(c.vcs().range(), 1..3);
        }
        // Once the negative phase is done, Plus hops open up.
        let mid = node(&m, &[3, 2]);
        let d = algo.route(&m, &no_faults(), &mut h, mid, 3);
        assert!(d
            .candidates()
            .iter()
            .all(|c| c.dim() == 0 && c.dir() == Direction::Plus));
    }

    #[test]
    fn deterministic_flavor_uses_the_whole_pool() {
        let m = mesh();
        let algo = AnyRouting::deterministic(NEGATIVE_FIRST);
        let src = node(&m, &[0, 0]);
        let dest = node(&m, &[3, 0]);
        let mut h = algo.make_header(&m, src, dest);
        let d = algo.route(&m, &no_faults(), &mut h, src, 4);
        let cands = d.candidates();
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].vcs().range(), 0..4);
        assert!(!cands[0].is_escape());
    }

    #[test]
    fn faulted_adaptive_messages_ride_the_escape_channel() {
        let m = mesh();
        let algo = AnyRouting::adaptive(NEGATIVE_FIRST);
        let src = node(&m, &[0, 0]);
        let dest = node(&m, &[4, 0]);
        let mut h = algo.make_header(&m, src, dest);
        h.faulted = true;
        let d = algo.route(&m, &no_faults(), &mut h, src, 3);
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
    fn absorbs_at_fault_and_absorbs_only_when_all_phase_outputs_faulty() {
        let m = mesh();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&m, &[2, 0]));
        let det = AnyRouting::deterministic(NEGATIVE_FIRST);
        let src = node(&m, &[1, 0]);
        let dest = node(&m, &[4, 0]);
        let mut h = det.make_header(&m, src, dest);
        assert!(det.route(&m, &faults, &mut h, src, 2).is_absorb());

        // The adaptive flavour still forwards while another phase-legal
        // productive output is healthy.
        let ada = AnyRouting::adaptive(NEGATIVE_FIRST);
        let dest2 = node(&m, &[4, 2]);
        let mut h = ada.make_header(&m, src, dest2);
        let d = ada.route(&m, &faults, &mut h, src, 2);
        assert!(!d.candidates().is_empty());
        assert!(d
            .candidates()
            .iter()
            .all(|c| !(c.dim() == 0 && c.dir() == Direction::Plus && !c.is_escape())));
    }

    #[test]
    fn reroute_goes_straight_to_the_orthogonal_detour() {
        let m = mesh();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&m, &[2, 0]));
        let algo = AnyRouting::deterministic(NEGATIVE_FIRST);
        let at = node(&m, &[1, 0]);
        let dest = node(&m, &[4, 0]);
        let mut header = algo.make_header(&m, at, dest);
        assert!(algo.reroute_on_fault(&m, &faults, &mut header, at, (0, Direction::Plus)));
        assert!(header.faulted);
        assert_eq!(header.absorptions, 1);
        // No rule-1 forced direction is ever installed on open dimensions.
        assert!((0..2).all(|dim| header.forced_dir(dim).is_none()));
        assert_eq!(header.pending_via(), 1);
        // From row 0 the only open orthogonal direction is Plus in dim 1.
        assert_eq!(header.target(), node(&m, &[1, 1]));
    }

    #[test]
    fn reroute_falls_back_to_explicit_path_when_budget_exhausted() {
        let m = mesh();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&m, &[3, 3]));
        let algo = AnyRouting::deterministic(NEGATIVE_FIRST);
        let at = node(&m, &[3, 2]);
        let dest = node(&m, &[3, 5]);
        let mut header = algo.make_header(&m, at, dest);
        header.misroute_budget = 0;
        assert!(algo.reroute_on_fault(&m, &faults, &mut header, at, (1, Direction::Plus)));
        assert!(header.escorted);
    }

    #[test]
    fn routes_around_a_fault_end_to_end() {
        // On a mesh and on a hypercube; the faulty node sits on the
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
                AnyRouting::deterministic(NEGATIVE_FIRST),
                AnyRouting::adaptive(NEGATIVE_FIRST),
            ] {
                let (src, dest) = (node(&net, src), node(&net, dest));
                let end = deliver(&net, &faults, &algo, src, dest, 2);
                assert_eq!(end.at, dest, "{}", algo.name());
            }
        }
    }

    #[test]
    fn west_first_and_north_last_route_around_a_fault() {
        let m = mesh();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&m, &[3, 0]));
        // West-first travels westward through the fault, north-last
        // eastward.
        for (substrate, src, dest) in [
            (WEST_FIRST, [4u16, 0], [1u16, 0]),
            (NORTH_LAST, [1, 0], [4, 0]),
        ] {
            for algo in [
                AnyRouting::deterministic(substrate),
                AnyRouting::adaptive(substrate),
            ] {
                let (src, dest) = (node(&m, &src), node(&m, &dest));
                let end = deliver(&m, &faults, &algo, src, dest, 2);
                assert_eq!(end.at, dest, "{}", algo.name());
            }
        }
    }

    #[test]
    fn supported_on_rejects_wrapped_dimensions() {
        let algo = AnyRouting::adaptive(NEGATIVE_FIRST);
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
        let wf_err = AnyRouting::adaptive(WEST_FIRST)
            .supported_on(&torus)
            .unwrap_err();
        assert!(format!("{wf_err}").contains("west-first turn-model"));
    }

    #[test]
    fn supported_on_rejects_fat_trees() {
        let ft = AnyTopology::fat_tree_new(4, 2).unwrap();
        let err = AnyRouting::adaptive(NEGATIVE_FIRST)
            .supported_on(&ft)
            .unwrap_err();
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

    #[test]
    fn west_first_walks_are_minimal_and_obey_the_rule() {
        let m = mesh();
        for (algo, v) in [
            (AnyRouting::deterministic(WEST_FIRST), 1),
            (AnyRouting::adaptive(WEST_FIRST), 2),
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
        let algo = AnyRouting::deterministic(WEST_FIRST);
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
    fn north_last_walks_are_minimal_and_obey_the_rule() {
        let m = mesh();
        for (algo, v) in [
            (AnyRouting::deterministic(NORTH_LAST), 1),
            (AnyRouting::adaptive(NORTH_LAST), 2),
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
        let algo = AnyRouting::deterministic(NORTH_LAST);
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
    fn deterministic_output_hook_is_negative_first() {
        let m = mesh();
        let algo = AnyRouting::deterministic(NEGATIVE_FIRST);
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
