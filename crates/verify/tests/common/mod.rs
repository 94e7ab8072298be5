//! Routing fixtures shared by the schedule tests.

use torus_faults::FaultSet;
use torus_routing::{
    AnyRouting, OutputCandidate, RouteDecision, RouteHeader, RoutingAlgorithm, RoutingFlavor,
};
use torus_topology::{AnyTopology, Direction, NodeId};

/// Dimension-order routing with every candidate moved to VC 0: the torus
/// rings lose their dateline classes, so the union CDG is cyclic at every
/// epoch.
pub(crate) struct AllOnVcZero(pub AnyRouting);

impl RoutingAlgorithm for AllOnVcZero {
    fn flavor(&self) -> RoutingFlavor {
        self.0.flavor()
    }

    fn min_virtual_channels(&self, net: &AnyTopology) -> usize {
        self.0.min_virtual_channels(net)
    }

    fn supported_on(&self, net: &AnyTopology) -> Result<(), torus_routing::RoutingTopologyError> {
        self.0.supported_on(net)
    }

    fn deterministic_output(
        &self,
        net: &AnyTopology,
        header: &RouteHeader,
        current: NodeId,
    ) -> Option<(usize, Direction)> {
        self.0.deterministic_output(net, header, current)
    }

    fn make_header(&self, net: &AnyTopology, src: NodeId, dest: NodeId) -> RouteHeader {
        self.0.make_header(net, src, dest)
    }

    fn route(
        &self,
        net: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        current: NodeId,
        v: usize,
    ) -> RouteDecision {
        match self.0.route(net, faults, header, current, v) {
            RouteDecision::Forward(candidates) => RouteDecision::Forward(
                candidates
                    .iter()
                    .map(|c| OutputCandidate::escape(c.dim(), c.dir(), 0))
                    .collect(),
            ),
            decision => decision,
        }
    }

    fn note_hop(
        &self,
        net: &AnyTopology,
        header: &mut RouteHeader,
        from: NodeId,
        dim: usize,
        dir: Direction,
    ) {
        self.0.note_hop(net, header, from, dim, dir);
    }

    fn reroute_on_fault(
        &self,
        net: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        at: NodeId,
        blocked: (usize, Direction),
    ) -> bool {
        self.0.reroute_on_fault(net, faults, header, at, blocked)
    }

    fn name(&self) -> String {
        format!("{} on vc0", self.0.name())
    }
}
