//! Helpers shared by the unit tests of the routing modules: drive one
//! message through [`AnyRouting`] the way the simulator does.

use crate::{AnyRouting, RouteDecision, RouteHeader, RoutingAlgorithm};
use torus_faults::FaultSet;
use torus_topology::{AnyTopology, Direction, NodeId};

/// Node id from grid digits.
pub(crate) fn node(t: &AnyTopology, digits: &[u16]) -> NodeId {
    t.grid().unwrap().node_from_digits(digits).unwrap()
}

/// Walks a message always taking the first candidate, and returns the nodes
/// visited. Panics on Absorb (tests that expect absorption use [`deliver`]).
pub(crate) fn walk(
    net: &AnyTopology,
    faults: &FaultSet,
    algo: &AnyRouting,
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
                algo.note_hop(net, &mut header, current, c.dim(), c.dir());
                current = net
                    .neighbor(current, c.dim(), c.dir())
                    .expect("existing hop");
                visited.push(current);
            }
        }
    }
    panic!("message did not arrive");
}

/// Where [`drive`] delivered a message.
pub(crate) struct Delivered {
    /// The header at delivery.
    pub header: RouteHeader,
    /// The node that delivered it.
    pub at: NodeId,
    /// Absorptions on the way.
    pub absorptions: u32,
    /// Whether the software layer ever installed an explicit path.
    pub went_escorted: bool,
}

/// The full software loop the simulator runs, from `header` at `current`:
/// route, hop over the first candidate, or absorb → `reroute_on_fault` with
/// the blocked output the router reports → re-inject, until delivery.
/// Panics on livelock, on a hop onto a faulty node and on a re-route that
/// reports the destination unreachable.
pub(crate) fn drive(
    net: &AnyTopology,
    faults: &FaultSet,
    algo: &AnyRouting,
    mut header: RouteHeader,
    mut current: NodeId,
    v: usize,
) -> Delivered {
    let mut absorptions = 0;
    let mut went_escorted = false;
    for _ in 0..1000 {
        match algo.route(net, faults, &mut header, current, v) {
            RouteDecision::Deliver => {
                return Delivered {
                    header,
                    at: current,
                    absorptions,
                    went_escorted,
                }
            }
            RouteDecision::Forward(cands) => {
                let c = &cands[0];
                algo.note_hop(net, &mut header, current, c.dim(), c.dir());
                current = net
                    .neighbor(current, c.dim(), c.dir())
                    .expect("existing hop");
                assert!(!faults.is_node_faulty(current));
            }
            RouteDecision::Absorb => {
                absorptions += 1;
                // A via host at its reached target has no blocked output.
                let blocked = algo
                    .deterministic_output(net, &header, current)
                    .unwrap_or((0, Direction::Plus));
                assert!(algo.reroute_on_fault(net, faults, &mut header, current, blocked));
                went_escorted |= header.escorted;
                header.reset_for_injection();
            }
        }
    }
    panic!("livelock: {} never delivered the message", algo.name());
}

/// [`drive`] for a fresh message from `src` to `dest`.
pub(crate) fn deliver(
    net: &AnyTopology,
    faults: &FaultSet,
    algo: &AnyRouting,
    src: NodeId,
    dest: NodeId,
    v: usize,
) -> Delivered {
    drive(net, faults, algo, algo.make_header(net, src, dest), src, v)
}
