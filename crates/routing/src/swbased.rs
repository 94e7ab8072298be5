//! The Software-Based fault-tolerant routing function (SW-Based-nD): one
//! software layer over five escape substrates.
//!
//! This module is the direct counterpart of Fig. 2 of the paper. The scheme
//! is a *software layer* over an unchanged deadlock-free routing function,
//! and [`AnyRouting`] is that layer: a [`RoutingFlavor`] over a
//! [`Substrate`].
//!
//! | Substrate | Topologies | Deterministic output | Adaptive flavour's legal set |
//! |---|---|---|---|
//! | [`Substrate::DimensionOrder`] | every direct grid | e-cube ([`crate::ecube`]) | every productive output (Duato's Protocol, [`crate::adaptive`]) |
//! | [`Substrate::Turn`] (negative-first, west-first, north-last) | open grids | the canonical turn-rule order ([`crate::turnmodel`]) | the productive outputs of the current phase |
//! | [`Substrate::UpDown`] | fat-trees | destination-aligned up\*/down\* ([`crate::updown`]) | the down-port, or every live parent |
//!
//! * **normal-case routing** — the deterministic flavour takes the
//!   substrate's output; the adaptive flavour offers the substrate's legal
//!   set on the adaptive VC pool and the deterministic output as the escape
//!   candidate. Over dimension order, in a fault-free network, the two
//!   flavours are *identical* to e-cube and Duato's Protocol.
//! * **virtual channels** — one dateline rule
//!   ([`DatelinePolicy`]): a hop in a wrapped dimension uses the dateline
//!   class the header has earned, while open dimensions and fat-trees are the
//!   one-class case. The minimum is the number of escape classes, plus one
//!   adaptive channel for the adaptive flavour.
//! * **fault handling** — when the chosen output leads to a faulty node or
//!   link the message is absorbed ([`RouteDecision::Absorb`]) and the
//!   message-passing software rewrites the header in
//!   [`RoutingAlgorithm::reroute_on_fault`], with a detour chosen by the
//!   topology backend. On a grid:
//!   1. first re-route in the *same dimension, opposite direction* (a
//!      non-minimal traversal of the ring installed as a forced direction) —
//!      this rule only applies to wrapped dimensions: on an open (mesh)
//!      dimension the opposite direction leads away from the target and off
//!      the edge, so the scheme falls through to rule 2 directly,
//!   2. if another fault is encountered, route in an *orthogonal dimension*
//!      (an intermediate destination one hop to the side of the fault
//!      region).
//!
//!   On a fat-tree a dead up-link re-ascends through an alternate parent
//!   (see [`crate::updown`]). With the misroute budget exhausted, or no
//!   detour available, the layer computes an explicit fault-free
//!   intermediate-node path (the capability granted by assumption (i)(ii) of
//!   the paper), which bounds livelock;
//! * **post-fault behaviour** — once a message has been absorbed it is routed
//!   deterministically for the rest of its journey (Section 4: "from this
//!   point, faulted messages are always routed using detRouting2D").
//!
//! Each substrate is deadlock free only on its own topologies, so
//! [`RoutingAlgorithm::supported_on`] rejects the rest with a typed
//! [`RoutingTopologyError`], and the hop path relies on that check.

use crate::adaptive::productive_outputs;
use crate::cdg::TurnRule;
use crate::decision::{Candidates, OutputCandidate, RouteDecision};
use crate::ecube::{ecube_output, ecube_vc_class};
use crate::header::{RouteHeader, RoutingFlavor};
use crate::turnmodel::turn_rule_output;
use crate::updown::{down_port_towards, updown_output};
use std::fmt;
use torus_faults::FaultSet;
use torus_topology::{AnyTopology, DatelinePolicy, Direction, FatTree, Network, NodeId};

/// Interface between the router pipeline / software layer and a routing
/// algorithm.
///
/// Every method takes the topology as an [`AnyTopology`]; an algorithm that
/// only operates on one backend (every [`Substrate`] does) rejects the other
/// at construction time through [`RoutingAlgorithm::supported_on`] and may
/// downcast unconditionally afterwards.
pub trait RoutingAlgorithm {
    /// The flavour this algorithm routes with in the absence of faults.
    fn flavor(&self) -> RoutingFlavor;

    /// Minimum number of virtual channels per physical channel this algorithm
    /// needs for deadlock freedom on the given network.
    fn min_virtual_channels(&self, net: &AnyTopology) -> usize;

    /// Checks that the algorithm can operate on `net` at all. Both simulator
    /// engines and the schedule verifier call this at construction time and
    /// surface the error as a typed configuration failure. Defaults to
    /// "supported everywhere"; [`AnyRouting`] accepts each substrate only on
    /// the topologies it is deadlock free on.
    fn supported_on(&self, _net: &AnyTopology) -> Result<(), RoutingTopologyError> {
        Ok(())
    }

    /// The deterministic-layer output this algorithm steers `header` towards
    /// at `current` — the output the simulator reports as `blocked` to
    /// [`RoutingAlgorithm::reroute_on_fault`] when a message is absorbed.
    /// Defaults to the e-cube output on grids; [`AnyRouting`] answers with
    /// its substrate's output.
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

/// The deadlock-free routing function beneath the software layer: it yields
/// the deterministic output, the adaptive flavour's legal set and the escape
/// candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Substrate {
    /// Dimension-order (e-cube) routing with dateline VC classes; the
    /// adaptive flavour is Duato's Protocol. Every direct grid.
    DimensionOrder,
    /// Turn-model routing under a turn rule. Open grids only.
    Turn(TurnRule),
    /// Up*/down* routing. Fat-trees only.
    UpDown,
}

impl Substrate {
    /// The prefix of [`RoutingAlgorithm::name`] and the algorithm a
    /// [`RoutingTopologyError`] names.
    fn labels(self) -> (&'static str, &'static str) {
        match self {
            Substrate::DimensionOrder => ("SW-Based-nD", "SW-Based-nD"),
            Substrate::Turn(TurnRule::NegativeFirst) => {
                ("Negative-First", "negative-first turn-model")
            }
            Substrate::Turn(TurnRule::WestFirst) => ("West-First", "west-first turn-model"),
            Substrate::Turn(TurnRule::NorthLast) => ("North-Last", "north-last turn-model"),
            Substrate::UpDown => ("Up/Down", "up/down"),
        }
    }
}

/// The Software-Based routing function: the paper's software layer in one
/// flavour over one [`Substrate`]. Every engine, figure and verifier run
/// routes through this one type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnyRouting {
    flavor: RoutingFlavor,
    substrate: Substrate,
}

impl AnyRouting {
    /// The software layer in `flavor` over `substrate`.
    pub const fn new(flavor: RoutingFlavor, substrate: Substrate) -> Self {
        AnyRouting { flavor, substrate }
    }

    /// The deterministic flavour over `substrate`.
    pub const fn deterministic(substrate: Substrate) -> Self {
        Self::new(RoutingFlavor::Deterministic, substrate)
    }

    /// The adaptive flavour over `substrate`.
    pub const fn adaptive(substrate: Substrate) -> Self {
        Self::new(RoutingFlavor::Adaptive, substrate)
    }

    /// The substrate beneath the software layer.
    pub fn substrate(&self) -> Substrate {
        self.substrate
    }

    /// The substrate on `net`'s backend: the hop path's one downcast, which
    /// [`RoutingAlgorithm::supported_on`] guarantees at construction time.
    fn bind<'a>(&self, net: &'a AnyTopology) -> Bound<'a> {
        match (self.substrate, net) {
            (Substrate::DimensionOrder, AnyTopology::Grid(grid)) => Bound::DimensionOrder(grid),
            (Substrate::Turn(rule), AnyTopology::Grid(grid)) => Bound::Turn(grid, rule),
            (Substrate::UpDown, AnyTopology::FatTree(ft)) => Bound::UpDown(ft),
            _ => panic!(
                "{} invoked on topology '{net}' (supported_on rejects this at construction)",
                self.name()
            ),
        }
    }
}

/// A substrate bound to the topology backend it routes on.
#[derive(Clone, Copy)]
enum Bound<'a> {
    DimensionOrder(&'a Network),
    Turn(&'a Network, TurnRule),
    UpDown(&'a FatTree),
}

impl Bound<'_> {
    /// The substrate's deterministic output, `None` at the header's current
    /// target.
    fn output(self, header: &RouteHeader, current: NodeId) -> Option<(usize, Direction)> {
        match self {
            Bound::DimensionOrder(grid) => ecube_output(grid, header, current),
            Bound::Turn(grid, rule) => turn_rule_output(grid, rule, header, current),
            Bound::UpDown(ft) => updown_output(ft, header, current),
        }
    }

    /// Hands `push` every output the adaptive flavour may take at `current`,
    /// in candidate order, before the fault filter.
    fn adaptive_outputs(
        self,
        header: &RouteHeader,
        current: NodeId,
        push: impl FnMut((usize, Direction)),
    ) {
        match self {
            Bound::DimensionOrder(grid) => productive_outputs(grid, header, current).for_each(push),
            Bound::Turn(grid, rule) => {
                // While any productive first-phase hop remains only
                // first-phase hops are legal; afterwards the remaining
                // productive hops are all second-phase, so a first-phase hop
                // can never follow a second-phase hop towards the same target
                // (offsets shrink monotonically under minimal routing).
                let first = |&(dim, dir): &(usize, Direction)| rule.first_direction(dim) == dir;
                let first_phase = productive_outputs(grid, header, current).any(|hop| first(&hop));
                productive_outputs(grid, header, current)
                    .filter(|hop| !first_phase || first(hop))
                    .for_each(push);
            }
            Bound::UpDown(ft) => {
                // On the descent the next hop is unique; on the ascent every
                // parent is minimal (all parents reach a common ancestor at
                // the same meeting level). Up-ports without a parent fail the
                // fault filter.
                let target = header.target();
                if ft.descends_to(current, target) {
                    down_port_towards(ft, current, target)
                        .map(|t| (t, Direction::Minus))
                        .into_iter()
                        .for_each(push);
                } else {
                    (0..ft.dims()).map(|t| (t, Direction::Plus)).for_each(push);
                }
            }
        }
    }
}

/// The deterministic step's candidate for `hop`: the VC range of the header's
/// dateline class, or that class's single escape VC when an adaptive-flavour
/// message rides the escape layer (which preserves Duato's deadlock-freedom
/// argument).
fn deterministic_candidate(
    policy: &DatelinePolicy,
    header: &RouteHeader,
    (dim, dir): (usize, Direction),
    v: usize,
) -> OutputCandidate {
    let class = ecube_vc_class(header, dim);
    match header.flavor {
        RoutingFlavor::Deterministic => {
            OutputCandidate::new(dim, dir, policy.deterministic_range(v, dim, class))
        }
        RoutingFlavor::Adaptive => OutputCandidate::escape(dim, dir, policy.escape_vc(dim, class)),
    }
}

/// What to do when the header has reached its current target, `None` while
/// it is still under way.
///
/// A reached intermediate via host absorbs: the message is delivered to the
/// local software layer and re-injected towards the next target (software
/// forwarding, Section 3). Releasing every held channel there is what keeps
/// the escape-layer dependency chains acyclic — an in-flight retarget could
/// chain a forbidden dependency through the via node (a dateline class
/// reset, a second-phase → first-phase turn, or an up-hop after a descent).
fn arrival_decision(header: &RouteHeader, current: NodeId) -> Option<RouteDecision> {
    if current != header.target() {
        None
    } else if header.pending_via() > 0 {
        Some(RouteDecision::Absorb)
    } else {
        Some(RouteDecision::Deliver)
    }
}

/// The opening of `reroute_on_fault`. Returns the re-route's outcome when it
/// is settled here, `None` when the backend's detour must be tried.
fn begin_reroute(
    net: &AnyTopology,
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

/// The detour on a grid (rules 1 and 2), spending one unit of the misroute
/// budget. `false` when the node is walled in except for the channel the
/// message arrived on. `grid` is `net`'s backend.
fn grid_detour(
    net: &AnyTopology,
    grid: &Network,
    faults: &FaultSet,
    header: &mut RouteHeader,
    at: NodeId,
    (dim, dir): (usize, Direction),
) -> bool {
    header.misroute_budget -= 1;
    // Rule 1: re-route in the same dimension, opposite direction. Only a
    // wrapped dimension can reach the target the "wrong way round"; on an
    // open dimension the opposite direction walks away from the target and
    // dead-ends at the edge, so the rule is skipped there.
    if grid.wraps(dim) && header.forced_dir(dim).is_none() {
        let opposite = dir.opposite();
        if faults.output_usable(net, at, dim, opposite)
            && grid.offset(at, header.target(), dim) != 0
        {
            header.set_forced_dir(dim, Some(opposite));
            return true;
        }
    }
    // Rule 2: route in an orthogonal dimension to slide along the fault
    // region, then resume towards the destination. `output_usable` is false
    // for channels that do not exist and for channels into a faulty node, so
    // mesh edges and dead neighbours are skipped naturally.
    for o in orthogonal_order(net.dims(), dim) {
        for cand_dir in Direction::BOTH {
            if faults.output_usable(net, at, o, cand_dir) {
                let via = net
                    .neighbor(at, o, cand_dir)
                    .expect("usable output leads to an existing neighbour");
                header.set_forced_dir(dim, None);
                header.push_intermediate(via);
                return true;
            }
        }
    }
    false
}

/// The detour on a fat-tree: a dead up-link or parent switch is survived by
/// re-ascending through an alternate live parent, spending one unit of the
/// misroute budget. A down-phase fault has no detour — re-ascending after a
/// down-hop would break the up*/down* order. `ft` is `net`'s backend.
fn fat_tree_detour(
    net: &AnyTopology,
    ft: &FatTree,
    faults: &FaultSet,
    header: &mut RouteHeader,
    at: NodeId,
    (blocked_dim, blocked_dir): (usize, Direction),
) -> bool {
    if blocked_dir != Direction::Plus {
        return false;
    }
    header.misroute_budget -= 1;
    let alternate = ft
        .parents(at)
        .into_iter()
        .find(|&(t, _)| t != blocked_dim && faults.output_usable(net, at, t, Direction::Plus));
    let Some((_, parent)) = alternate else {
        return false;
    };
    header.push_intermediate(parent);
    true
}

/// Installs an explicit fault-free path from `at` to the header's final
/// destination (rule 3 / assumption (i)(ii) of the paper). Returns `false`
/// only when the destination is unreachable.
fn install_explicit_path(
    net: &AnyTopology,
    faults: &FaultSet,
    header: &mut RouteHeader,
    at: NodeId,
) -> bool {
    let Some(path) = faults.shortest_path(net, at, header.final_dest) else {
        return false;
    };
    let nodes = path.nodes(net);
    header.set_via_chain(&nodes[1..]);
    header.escorted = true;
    header.clear_forced();
    true
}

/// Dimensions to try for the orthogonal detour (rule 2), preferring the
/// partner dimension of the blocked dimension's pair as in the SW-Based-nD
/// formulation of Fig. 2.
fn orthogonal_order(dims: usize, blocked_dim: usize) -> impl Iterator<Item = usize> {
    let partner = if blocked_dim + 1 < dims {
        Some(blocked_dim + 1)
    } else {
        blocked_dim.checked_sub(1)
    };
    partner
        .into_iter()
        .chain((0..dims).filter(move |&d| d != blocked_dim && Some(d) != partner))
}

impl RoutingAlgorithm for AnyRouting {
    fn flavor(&self) -> RoutingFlavor {
        self.flavor
    }

    fn min_virtual_channels(&self, net: &AnyTopology) -> usize {
        let policy = DatelinePolicy::of(net);
        match self.flavor {
            RoutingFlavor::Deterministic => policy.min_deterministic_vcs(),
            RoutingFlavor::Adaptive => policy.min_adaptive_vcs(),
        }
    }

    fn supported_on(&self, net: &AnyTopology) -> Result<(), RoutingTopologyError> {
        let (_, algorithm) = self.substrate.labels();
        let requires = match (self.substrate, net) {
            (Substrate::DimensionOrder, AnyTopology::Grid(_))
            | (Substrate::UpDown, AnyTopology::FatTree(_)) => return Ok(()),
            (Substrate::Turn(_), AnyTopology::Grid(grid)) => {
                return match (0..grid.dims()).find(|&dim| grid.wraps(dim)) {
                    None => Ok(()),
                    Some(dim) => Err(RoutingTopologyError::WrappedDimension {
                        algorithm,
                        shape: grid.to_string(),
                        dim,
                        radix: grid.radix(dim),
                    }),
                };
            }
            (Substrate::DimensionOrder, _) => {
                "a direct grid topology (torus/mesh/hypercube); \
                 fat-trees route with the up/down scheme"
            }
            (Substrate::Turn(_), _) => {
                "a direct open grid topology (mesh/hypercube); \
                 fat-trees route with the up/down scheme"
            }
            (Substrate::UpDown, _) => {
                "an indirect fat-tree topology (ft:k,l); \
                 grids route with the SW-Based or turn-model schemes"
            }
        };
        Err(RoutingTopologyError::UnsupportedTopology {
            algorithm,
            topology: net.to_string(),
            requires,
        })
    }

    fn deterministic_output(
        &self,
        net: &AnyTopology,
        header: &RouteHeader,
        current: NodeId,
    ) -> Option<(usize, Direction)> {
        self.bind(net).output(header, current)
    }

    fn make_header(&self, net: &AnyTopology, src: NodeId, dest: NodeId) -> RouteHeader {
        RouteHeader::new(net.dims(), src, dest, self.flavor)
    }

    fn route(
        &self,
        net: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        current: NodeId,
        v: usize,
    ) -> RouteDecision {
        if let Some(decision) = arrival_decision(header, current) {
            return decision;
        }
        let substrate = self.bind(net);
        let policy = DatelinePolicy::of(net);
        let usable = |(dim, dir): (usize, Direction)| faults.output_usable(net, current, dim, dir);
        if header.is_deterministic() {
            return match substrate.output(header, current) {
                // No remaining offset: `current` is the header's target,
                // which `arrival_decision` answered, so this arm is a
                // total-function fallback. Nothing on the `route` side
                // advances targets — `reroute_on_fault` does.
                None => RouteDecision::Deliver,
                Some(hop) if !usable(hop) => RouteDecision::Absorb,
                Some(hop) => RouteDecision::Forward(
                    [deterministic_candidate(&policy, header, hop, v)]
                        .into_iter()
                        .collect(),
                ),
            };
        }
        // Adaptive flavour, not yet faulted: the substrate's legal outputs on
        // the adaptive pool, then its deterministic output as the escape
        // candidate. The message is absorbed only when *all* of them lead to
        // faults (Section 5: "a message is delivered to current node when all
        // available paths are faulty").
        let adaptive_vcs = policy.adaptive_range(v);
        let mut candidates = Candidates::new();
        substrate.adaptive_outputs(header, current, |(dim, dir)| {
            if usable((dim, dir)) {
                candidates.push(OutputCandidate::new(dim, dir, adaptive_vcs.clone()));
            }
        });
        if let Some(hop) = substrate.output(header, current).filter(|&hop| usable(hop)) {
            candidates.push(deterministic_candidate(&policy, header, hop, v));
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
        if let Some(settled) = begin_reroute(net, faults, header, at) {
            return settled;
        }
        let detoured = match net {
            AnyTopology::Grid(grid) => grid_detour(net, grid, faults, header, at, blocked),
            AnyTopology::FatTree(ft) => fat_tree_detour(net, ft, faults, header, at, blocked),
        };
        // No detour: fall back to the explicit path, which exists as long as
        // the network is connected.
        detoured || install_explicit_path(net, faults, header, at)
    }

    fn name(&self) -> String {
        let (family, _) = self.substrate.labels();
        format!("{family} ({})", self.flavor.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{deliver, drive, node, walk};

    const DIMENSION_ORDER: Substrate = Substrate::DimensionOrder;

    /// The five substrates; with both flavours, the ten routing functions.
    const SUBSTRATES: [Substrate; 5] = [
        Substrate::DimensionOrder,
        Substrate::Turn(TurnRule::NegativeFirst),
        Substrate::Turn(TurnRule::WestFirst),
        Substrate::Turn(TurnRule::NorthLast),
        Substrate::UpDown,
    ];

    fn torus() -> AnyTopology {
        AnyTopology::torus(8, 2).unwrap()
    }

    fn no_faults() -> FaultSet {
        FaultSet::new()
    }

    #[test]
    fn fault_free_deterministic_is_ecube() {
        let t = torus();
        let algo = AnyRouting::deterministic(DIMENSION_ORDER);
        let src = node(&t, &[1, 1]);
        let dest = node(&t, &[5, 3]);
        let visited = walk(&t, &no_faults(), &algo, src, dest, 4);
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
            let algo = AnyRouting::deterministic(DIMENSION_ORDER);
            let src = NodeId(1);
            let dest = NodeId(net.num_nodes() as u32 - 2);
            let visited = walk(&net, &no_faults(), &algo, src, dest, 4);
            let expected: Vec<NodeId> =
                torus_topology::dimension_order_path(net.grid().unwrap(), src, dest).nodes(&net);
            assert_eq!(visited, expected);
        }
    }

    #[test]
    fn fault_free_adaptive_reaches_destination_minimally() {
        let t = torus();
        let algo = AnyRouting::adaptive(DIMENSION_ORDER);
        let src = node(&t, &[0, 0]);
        let dest = node(&t, &[3, 6]);
        let visited = walk(&t, &no_faults(), &algo, src, dest, 4);
        assert_eq!(visited.len() as u32 - 1, t.distance(src, dest));
        assert_eq!(*visited.last().unwrap(), dest);
    }

    #[test]
    fn every_flavour_routes_minimally_fault_free_on_its_topologies() {
        let mesh = AnyTopology::mesh(4, 2).unwrap();
        let ft = AnyTopology::fat_tree_new(4, 2).unwrap();
        let mesh_pair = (node(&mesh, &[0, 3]), node(&mesh, &[3, 0]));
        for substrate in SUBSTRATES {
            let (net, (src, dest)) = match substrate {
                Substrate::UpDown => (&ft, (NodeId(0), NodeId(13))),
                _ => (&mesh, mesh_pair),
            };
            for algo in [
                AnyRouting::deterministic(substrate),
                AnyRouting::adaptive(substrate),
            ] {
                let visited = walk(net, &no_faults(), &algo, src, dest, 2);
                assert_eq!(*visited.last().unwrap(), dest, "{}", algo.name());
                assert_eq!(visited.len() as u32 - 1, net.distance(src, dest));
            }
        }
    }

    #[test]
    fn deterministic_absorbs_at_fault() {
        let t = torus();
        let mut faults = FaultSet::new();
        // Fault directly on the e-cube path.
        faults.fail_node(node(&t, &[2, 0]));
        let algo = AnyRouting::deterministic(DIMENSION_ORDER);
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
        let algo = AnyRouting::adaptive(DIMENSION_ORDER);
        let src = node(&t, &[1, 1]);
        let dest = node(&t, &[3, 3]);
        let mut header = algo.make_header(&t, src, dest);
        let d = algo.route(&t, &faults, &mut header, src, 6);
        // dim 0 plus is faulty but dim 1 plus is healthy: still forwarding.
        match d {
            RouteDecision::Forward(cands) => {
                assert!(cands
                    .iter()
                    .all(|c| !(c.dim() == 0 && c.dir() == Direction::Plus)));
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
        let algo = AnyRouting::adaptive(DIMENSION_ORDER);
        let src = node(&t, &[1, 1]);
        let dest = node(&t, &[2, 2]);
        let mut header = algo.make_header(&t, src, dest);
        let d = algo.route(&t, &faults, &mut header, src, 6);
        assert!(d.is_absorb());
    }

    /// Duato's Protocol's candidates for a fresh adaptive header at `src`.
    fn duato_candidates(
        net: &AnyTopology,
        faults: &FaultSet,
        src: &[u16],
        dest: &[u16],
        v: usize,
    ) -> Vec<OutputCandidate> {
        let algo = AnyRouting::adaptive(DIMENSION_ORDER);
        let (src, dest) = (node(net, src), node(net, dest));
        let mut h = algo.make_header(net, src, dest);
        algo.route(net, faults, &mut h, src, v)
            .candidates()
            .to_vec()
    }

    #[test]
    fn duato_candidates_include_adaptive_and_escape() {
        let t = AnyTopology::torus(8, 3).unwrap();
        let cands = duato_candidates(&t, &no_faults(), &[0, 0, 0], &[3, 2, 0], 6);
        // two productive dims -> two adaptive candidates + one escape
        assert_eq!(cands.len(), 3);
        assert_eq!(cands.iter().filter(|c| c.is_escape()).count(), 1);
        let escape = cands.iter().find(|c| c.is_escape()).unwrap();
        // escape follows e-cube: lowest unresolved dimension
        assert_eq!(escape.dim(), 0);
        assert_eq!(escape.vcs().range(), 0..1);
        for c in cands.iter().filter(|c| !c.is_escape()) {
            assert_eq!(c.vcs().range(), 2..6);
        }
    }

    #[test]
    fn mesh_reserves_a_single_escape_channel() {
        // A pure mesh needs only one escape class, so with the same v the
        // adaptive pool is one channel larger than on a torus.
        let m = AnyTopology::mesh(8, 2).unwrap();
        let cands = duato_candidates(&m, &no_faults(), &[0, 0], &[3, 2], 6);
        let escape = cands.iter().find(|c| c.is_escape()).unwrap();
        assert_eq!(escape.vcs().range(), 0..1);
        for c in cands.iter().filter(|c| !c.is_escape()) {
            assert_eq!(c.vcs().range(), 1..6);
        }
        // Two VCs suffice for Duato's protocol on a mesh.
        assert!(!duato_candidates(&m, &no_faults(), &[0, 0], &[3, 2], 2).is_empty());
    }

    #[test]
    fn escape_vc_switches_after_dateline() {
        let t = AnyTopology::torus(8, 3).unwrap();
        let algo = AnyRouting::adaptive(DIMENSION_ORDER);
        let src = node(&t, &[0, 0, 0]);
        let mut h = algo.make_header(&t, src, node(&t, &[3, 0, 0]));
        h.set_crossed_dateline(0);
        let d = algo.route(&t, &no_faults(), &mut h, src, 4);
        let escape = d.candidates().iter().find(|c| c.is_escape()).unwrap();
        assert_eq!(escape.vcs().range(), 1..2);
    }

    #[test]
    fn faulty_outputs_are_filtered() {
        let t = AnyTopology::torus(8, 3).unwrap();
        let src = node(&t, &[0, 0, 0]);
        // Dimension 0 plus is faulty: only the dimension 1 adaptive candidate
        // remains, and no escape (the escape layer follows e-cube, which is
        // dim 0, so it disappears as well).
        let mut faults = FaultSet::new();
        faults.fail_link(&t, src, 0, Direction::Plus);
        let cands = duato_candidates(&t, &faults, &[0, 0, 0], &[2, 3, 0], 6);
        assert_eq!(cands.len(), 1);
        assert!(!cands[0].is_escape());
        assert_eq!(cands[0].dim(), 1);
        // Nothing healthy at all -> the message is absorbed.
        faults.fail_link(&t, src, 1, Direction::Plus);
        assert!(duato_candidates(&t, &faults, &[0, 0, 0], &[2, 3, 0], 6).is_empty());
    }

    #[test]
    fn reroute_rule1_forces_opposite_direction() {
        let t = torus();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&t, &[2, 0]));
        let algo = AnyRouting::deterministic(DIMENSION_ORDER);
        let src = node(&t, &[1, 0]);
        let dest = node(&t, &[4, 0]);
        let mut header = algo.make_header(&t, src, dest);
        assert!(algo.reroute_on_fault(&t, &faults, &mut header, src, (0, Direction::Plus)));
        assert!(header.faulted);
        assert_eq!(header.absorptions, 1);
        assert_eq!(header.forced_dir(0), Some(Direction::Minus));
    }

    #[test]
    fn reroute_rule1_skipped_on_open_dimensions() {
        // On a mesh the opposite direction cannot wrap around to the target,
        // so the software layer must go straight to the orthogonal rule.
        let m = AnyTopology::mesh(8, 2).unwrap();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&m, &[2, 0]));
        let algo = AnyRouting::deterministic(DIMENSION_ORDER);
        let at = node(&m, &[1, 0]);
        let dest = node(&m, &[4, 0]);
        let mut header = algo.make_header(&m, at, dest);
        assert!(algo.reroute_on_fault(&m, &faults, &mut header, at, (0, Direction::Plus)));
        assert!((0..2).all(|dim| header.forced_dir(dim).is_none()));
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
        let algo = AnyRouting::deterministic(DIMENSION_ORDER);
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
        let algo = AnyRouting::deterministic(DIMENSION_ORDER);
        let at = node(&t, &[1, 0]);
        let mut header = algo.make_header(&t, at, node(&t, &[1, 4]));
        // Dimension 0 offset to the target is zero.
        assert!(algo.reroute_on_fault(&t, &faults, &mut header, at, (0, Direction::Plus)));
        assert!((0..2).all(|dim| header.forced_dir(dim).is_none()));
        assert_eq!(header.pending_via(), 1);
        // The orthogonal detour avoids the faulty node [1,1].
        assert_ne!(header.target(), node(&t, &[1, 1]));
    }

    #[test]
    fn reroute_falls_back_to_explicit_path_when_budget_exhausted() {
        let t = torus();
        let mut faults = FaultSet::new();
        faults.fail_node(node(&t, &[3, 3]));
        let algo = AnyRouting::deterministic(DIMENSION_ORDER);
        let at = node(&t, &[3, 2]);
        let dest = node(&t, &[3, 5]);
        let mut header = algo.make_header(&t, at, dest);
        header.misroute_budget = 0;
        assert!(algo.reroute_on_fault(&t, &faults, &mut header, at, (1, Direction::Plus)));
        assert!(header.escorted);
        // The explicit path must avoid the faulty node and end at the
        // destination; escorted hops are software-forwarded through every via
        // host (absorbed and re-injected towards the next one).
        assert_eq!(drive(&t, &faults, &algo, header, at, 4).at, dest);
    }

    #[test]
    fn deterministic_message_routes_around_single_fault_end_to_end() {
        // The full software loop on a torus and on the matching mesh.
        for net in [
            AnyTopology::torus(8, 2).unwrap(),
            AnyTopology::mesh(8, 2).unwrap(),
        ] {
            let mut faults = FaultSet::new();
            faults.fail_node(node(&net, &[3, 0]));
            let algo = AnyRouting::deterministic(DIMENSION_ORDER);
            let dest = node(&net, &[4, 0]);
            let end = deliver(&net, &faults, &algo, node(&net, &[1, 0]), dest, 4);
            assert_eq!(end.at, dest);
            assert!(end.absorptions >= 1, "the fault lies on the e-cube path");
            assert_eq!(end.header.absorptions, end.absorptions);
        }
    }

    #[test]
    fn adaptive_flavor_faulted_message_uses_escape_vcs() {
        let t = torus();
        let algo = AnyRouting::adaptive(DIMENSION_ORDER);
        let src = node(&t, &[0, 0]);
        let dest = node(&t, &[4, 0]);
        let mut header = algo.make_header(&t, src, dest);
        header.faulted = true;
        let d = algo.route(&t, &no_faults(), &mut header, src, 6);
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
    fn names_and_minimum_vcs_of_all_ten_flavours() {
        let torus = torus();
        let mesh = AnyTopology::mesh(8, 2).unwrap();
        let mixed = AnyTopology::Grid(Network::new(vec![8, 4], vec![true, false]).unwrap());
        let ft = AnyTopology::fat_tree_new(4, 2).unwrap();
        // (substrate, name prefix, the topologies it runs on with their
        // deterministic minimum; adaptive needs one more).
        let cases = [
            (
                DIMENSION_ORDER,
                "SW-Based-nD",
                vec![(&torus, 2), (&mesh, 1), (&mixed, 2)],
            ),
            (SUBSTRATES[1], "Negative-First", vec![(&mesh, 1)]),
            (SUBSTRATES[2], "West-First", vec![(&mesh, 1)]),
            (SUBSTRATES[3], "North-Last", vec![(&mesh, 1)]),
            (Substrate::UpDown, "Up/Down", vec![(&ft, 1)]),
        ];
        for (substrate, prefix, nets) in cases {
            for flavor in [RoutingFlavor::Deterministic, RoutingFlavor::Adaptive] {
                let algo = AnyRouting::new(flavor, substrate);
                assert_eq!(algo.flavor(), flavor);
                assert_eq!(algo.substrate(), substrate);
                assert_eq!(algo.name(), format!("{prefix} ({})", flavor.label()));
                for &(net, min) in &nets {
                    let extra = usize::from(flavor == RoutingFlavor::Adaptive);
                    assert_eq!(
                        algo.min_virtual_channels(net),
                        min + extra,
                        "{}",
                        algo.name()
                    );
                    assert_eq!(algo.supported_on(net), Ok(()), "{}", algo.name());
                }
            }
        }
        assert_eq!(
            AnyRouting::deterministic(DIMENSION_ORDER).name(),
            "SW-Based-nD (deterministic)"
        );
        assert_eq!(
            AnyRouting::adaptive(Substrate::UpDown).name(),
            "Up/Down (adaptive)"
        );
    }

    #[test]
    fn supported_on_grids_but_not_fat_trees() {
        let algo = AnyRouting::deterministic(DIMENSION_ORDER);
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
    fn supported_on_fat_trees_but_not_grids() {
        let algo = AnyRouting::adaptive(Substrate::UpDown);
        assert_eq!(
            algo.supported_on(&AnyTopology::fat_tree_new(4, 2).unwrap()),
            Ok(())
        );
        let torus = torus();
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
    fn deterministic_output_is_the_substrates() {
        let mesh = AnyTopology::mesh(8, 2).unwrap();
        let src = node(&mesh, &[3, 5]);
        let dest = node(&mesh, &[5, 2]);
        let sw = AnyRouting::deterministic(DIMENSION_ORDER);
        let tm = AnyRouting::deterministic(SUBSTRATES[1]);
        let h = sw.make_header(&mesh, src, dest);
        // e-cube goes lowest-dimension first (+2 in dim 0); negative-first
        // clears the negative dim-1 offset first.
        assert_eq!(
            sw.deterministic_output(&mesh, &h, src),
            Some((0, Direction::Plus))
        );
        assert_eq!(
            tm.deterministic_output(&mesh, &h, src),
            Some((1, Direction::Minus))
        );
        // Up/down on a fat-tree: an endpoint ascends through its only up-port.
        let ft = AnyTopology::fat_tree_new(4, 2).unwrap();
        let ud = AnyRouting::deterministic(Substrate::UpDown);
        let h = ud.make_header(&ft, NodeId(1), NodeId(13));
        assert_eq!(
            ud.deterministic_output(&ft, &h, NodeId(1)),
            Some((1, Direction::Plus))
        );
    }

    #[test]
    fn orthogonal_order_prefers_pair_partner() {
        let order = |dims, blocked| orthogonal_order(dims, blocked).collect::<Vec<_>>();
        assert_eq!(order(3, 0), vec![1, 2]);
        assert_eq!(order(3, 1), vec![2, 0]);
        assert_eq!(order(3, 2), vec![1, 0]);
        assert_eq!(order(2, 1), vec![0]);
        assert_eq!(order(1, 0), Vec::<usize>::new());
        assert_eq!(order(4, 3), vec![2, 0, 1]);
    }
}
