//! The simulation sanitizer: an invariant-checking [`Observer`] for the
//! engine, under either scheduler.
//!
//! The sanitizer audits a running simulation on two levels:
//!
//! 1. **Conservation invariants**, checked at the end of every cycle over the
//!    full router/message state: no flit is created or destroyed outside
//!    injection and local absorption/delivery (every in-network message has
//!    exactly `length` flits across all buffers and locally-sunk counters), every
//!    credit counter is the exact complement of its downstream buffer
//!    occupancy, faulty routers and faulty channels stay quiescent, every
//!    message reference (buffers, routes, output owners, re-injection
//!    queues) resolves to a live message — stale generation-tagged
//!    identifiers are caught, with the lazy `draining` owner of an
//!    already-retired message as the single documented exception — every
//!    source-queue record names a healthy endpoint other than its source and
//!    a generation cycle no later than now, oldest first, the engine's
//!    `in_flight` counts exactly the live messages and the records, and
//!    every router's occupancy mask marks exactly
//!    its non-empty input buffers, its waiting-head mask exactly the slots
//!    with an unrouted head flit at the front, and its kept-decision mask
//!    only waiting heads, one bit per entry of its kept-decision store. Both
//!    schedulers share the masks, so engine equivalence cannot catch a mask
//!    bug, and a stale set bit only costs time, so no outcome pin can
//!    either: this audit is their oracle. While a router has released no
//!    output VC since its last routing pass, no candidate VC of its kept
//!    decisions is claimable (a release the flag missed would have the
//!    engine skip a retry that could win).
//! 2. **Channel-dependency-graph conformance**: the sanitizer maintains the
//!    runtime *wait-for* state of every message — the last tracked (escape or
//!    deterministic-layer) virtual-channel resource it was granted — and on
//!    each new tracked allocation asserts that the observed
//!    `held → requested` dependency is an edge of the statically extracted
//!    exact CDG for this (topology, routing, VC, fault) case. This is the
//!    refinement check tying the static verifier (`swbft-verify`,
//!    `extract_exact_cdg`) to the real engine: the static graph records
//!    `held × requested` over *all* candidate VCs of every reachable header
//!    state, so every dependency a correct engine can create is predicted,
//!    and a divergence (reported with cycle, message, held and requested
//!    channel) means the engine routed outside the verified relation.
//!
//! Resource identifiers use exactly the per-VC granularity of
//! `swbft_verify::exact`: `channel_id(node, dim, dir) * V + vc`, so a
//! [`torus_routing::cdg::DependencyGraph`] produced by the verifier can be
//! handed to [`Sanitizer::new`] unchanged.
//!
//! Violations are recorded, not panicked on, so tests can assert both
//! directions: the equivalence suite asserts a clean run, the mutation tests
//! assert a seeded bug is flagged. The engine does not know this module: it
//! is generic over its observer, and a run pays for the audit only when it is
//! built with [`crate::Engine::with_observer`] around a [`Sanitizer`].

use crate::config::SimConfig;
use crate::flit::MessageId;
use crate::message::{MessageLookup, MessagePhase};
use crate::observer::{Allocation, Observer};
use crate::router::{KeptDecision, RouteTarget, RouterState};
use std::collections::HashMap;
use torus_faults::FaultSet;
use torus_routing::cdg::DependencyGraph;
use torus_routing::{RoutingAlgorithm, RoutingFlavor};
use torus_topology::{AnyTopology, DirectedChannel, Direction, NodeId};

/// Upper bound on stored violation reports (the total count keeps growing).
const MAX_RECORDED: usize = 64;

/// One invariant violation observed by the sanitizer.
#[derive(Clone, Debug)]
pub struct InvariantViolation {
    /// Simulation cycle the violation was observed at.
    pub cycle: u64,
    /// Short machine-matchable category, e.g. `"cdg-divergence"`.
    pub kind: &'static str,
    /// Human-readable description with the concrete state involved.
    pub detail: String,
}

/// The invariant-checking observer. Hand one to
/// [`crate::Engine::with_observer`], run the simulation, then inspect
/// [`Sanitizer::violations`] through the engine's `observer()`.
#[derive(Clone, Debug)]
pub struct Sanitizer {
    /// Virtual channels per physical channel (the resource-id stride).
    v: usize,
    /// Flit-buffer depth (the credit complement).
    buffer_depth: usize,
    /// True when every hop rides the tracked layer (deterministic-flavour
    /// routing); false tracks only escape-channel allocations, mirroring the
    /// escape-layer scope of the static extraction for adaptive flavours.
    all_tracked: bool,
    /// The statically extracted exact CDG to check runtime dependencies
    /// against, or `None` to run conservation checks only.
    allowed: Option<DependencyGraph>,
    /// Last tracked resource granted to each in-network message.
    held: HashMap<MessageId, usize>,
    /// First [`MAX_RECORDED`] violations, in observation order.
    recorded: Vec<InvariantViolation>,
    /// Total violations observed (including unrecorded ones).
    total: u64,
    /// Tracked allocations checked against the CDG so far.
    edges_checked: u64,
}

impl Sanitizer {
    /// Creates a sanitizer for an engine built from `config` and `algo`.
    /// Every hop is tracked under deterministic-flavour routing, escape
    /// allocations only otherwise. `allowed` is the statically extracted
    /// exact CDG to enforce (per-VC granularity, matching the engine's
    /// topology, routing, VC count and fault set), or `None` for conservation
    /// checks alone.
    pub fn new<A: RoutingAlgorithm>(
        config: &SimConfig,
        algo: &A,
        allowed: Option<DependencyGraph>,
    ) -> Self {
        Sanitizer {
            v: config.virtual_channels,
            buffer_depth: config.buffer_depth,
            all_tracked: algo.flavor() == RoutingFlavor::Deterministic,
            allowed,
            held: HashMap::new(),
            recorded: Vec::new(),
            total: 0,
            edges_checked: 0,
        }
    }

    /// The violations observed so far (capped at an internal limit; see
    /// [`Sanitizer::violation_count`] for the uncapped total).
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.recorded
    }

    /// Total number of violations observed, including any beyond the
    /// recording cap.
    pub fn violation_count(&self) -> u64 {
        self.total
    }

    /// True when no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Number of tracked allocations checked against the exact CDG.
    pub fn edges_checked(&self) -> u64 {
        self.edges_checked
    }

    fn record(&mut self, cycle: u64, kind: &'static str, detail: String) {
        self.total += 1;
        if self.recorded.len() < MAX_RECORDED {
            self.recorded.push(InvariantViolation {
                cycle,
                kind,
                detail,
            });
        }
    }

    fn describe(node: NodeId, dim: usize, dir: Direction, vc: usize) -> String {
        let sign = match dir {
            Direction::Plus => '+',
            Direction::Minus => '-',
        };
        format!("channel {node:?} d{dim}{sign} vc{vc}")
    }
}

impl Observer for Sanitizer {
    /// Tracked allocations (every allocation under deterministic-flavour
    /// routing, escape allocations otherwise) are checked against the exact
    /// CDG and update the message's wait-for state; untracked
    /// (adaptive-layer) allocations leave it unchanged, mirroring Duato-style
    /// indirect dependencies in the static extraction.
    fn on_allocate(&mut self, net: &AnyTopology, e: &Allocation) {
        if !(self.all_tracked || e.is_escape) {
            return;
        }
        // The per-VC resource id — identical to the `Granularity::PerVc` id
        // space of `swbft_verify::exact`.
        let channel = DirectedChannel::new(e.node, e.dim, e.dir);
        let requested = net.channel_id(channel).index() * self.v + e.vc;
        let msg = e.msg;
        if let Some(&held) = self.held.get(&msg) {
            self.edges_checked += 1;
            let allowed = match &self.allowed {
                Some(cdg) => held == requested || cdg.has_edge(held, requested),
                None => true,
            };
            if !allowed {
                let detail = format!(
                    "message {msg:?} holds resource {held} while being granted \
                     {requested} ({}): the dependency {held} -> {requested} is \
                     not an edge of the exact CDG",
                    Self::describe(e.node, e.dim, e.dir, e.vc)
                );
                self.record(e.cycle, "cdg-divergence", detail);
            }
        }
        self.held.insert(msg, requested);
    }

    /// Leaving the network clears the message's wait-for state.
    fn on_release(&mut self, msg: MessageId) {
        self.held.remove(&msg);
    }

    /// Audits the full router/message state at the end of a cycle.
    fn end_of_cycle(
        &mut self,
        cycle: u64,
        net: &AnyTopology,
        faults: &FaultSet,
        routers: &[RouterState],
        messages: &dyn MessageLookup,
        in_flight: u64,
    ) {
        self.check_flit_conservation(cycle, routers, messages);
        self.check_credits_and_faulty_channels(cycle, net, faults, routers);
        self.check_references(cycle, routers, messages);
        self.check_source_queues(cycle, net, faults, routers);
        self.check_in_flight(cycle, routers, messages, in_flight);
        self.check_occupancy(cycle, routers);
        self.check_kept_decisions(cycle, routers);
    }
}

impl Sanitizer {
    /// Every live in-network message has exactly `length` flits across all
    /// input buffers and locally-sunk counters; queued messages have none;
    /// every buffered flit belongs to a live message. (A buffer is one
    /// worm's run of consecutive flits by construction, so a flit delivered
    /// to the wrong buffer shows up here as a worm with too few or too many.)
    fn check_flit_conservation(
        &mut self,
        cycle: u64,
        routers: &[RouterState],
        messages: &dyn MessageLookup,
    ) {
        let mut counts: HashMap<MessageId, u32> = HashMap::new();
        for router in routers {
            for ivc in &router.inputs {
                if let Some(msg) = ivc.buffer.msg() {
                    *counts.entry(msg).or_insert(0) += ivc.buffer.len() as u32;
                }
                // Flits already drained into the local node still belong to
                // the worm being delivered or absorbed on this VC.
                if ivc.sunk > 0 {
                    match ivc.route {
                        Some(route) if !matches!(route.target, RouteTarget::Network { .. }) => {
                            *counts.entry(route.msg).or_insert(0) += ivc.sunk;
                        }
                        _ => self.record(
                            cycle,
                            "flit-conservation",
                            format!(
                                "router {:?} counts {} locally sunk flit(s) on a VC with \
                                 no local route",
                                router.node, ivc.sunk
                            ),
                        ),
                    }
                }
            }
        }
        for (&msg, &n) in &counts {
            match messages.lookup(msg) {
                None => self.record(
                    cycle,
                    "stale-flit",
                    format!("{n} buffered flit(s) reference retired/stale message {msg:?}"),
                ),
                Some(m) if m.phase != MessagePhase::InNetwork => self.record(
                    cycle,
                    "flit-conservation",
                    format!(
                        "message {msg:?} is {:?} but has {n} flit(s) in the network",
                        m.phase
                    ),
                ),
                Some(_) => {}
            }
        }
        messages.for_each_live(&mut |m| {
            if m.phase == MessagePhase::InNetwork {
                let n = counts.get(&m.id).copied().unwrap_or(0);
                if n != m.length {
                    self.record(
                        cycle,
                        "flit-conservation",
                        format!(
                            "in-network message {:?} has {n} flit(s) buffered, \
                             expected its full length {}",
                            m.id, m.length
                        ),
                    );
                }
            }
        });
    }

    /// Credit counters are the exact complement of the downstream buffer
    /// occupancy; faulty routers are quiescent; faulty channels carry no
    /// flits, no owner and a full credit counter.
    fn check_credits_and_faulty_channels(
        &mut self,
        cycle: u64,
        net: &AnyTopology,
        faults: &FaultSet,
        routers: &[RouterState],
    ) {
        for router in routers {
            let node = router.node;
            if router.is_faulty && !router.is_quiescent() {
                self.record(
                    cycle,
                    "faulty-router-active",
                    format!("faulty router {node:?} holds flits or queued messages"),
                );
            }
            for out_port in 0..router.num_net_ports() {
                let (dim, dir) = RouterState::port_dim_dir(out_port);
                // Asked of the topology, not of the router's own neighbour
                // table, so the audit stays independent of it.
                let Some(downstream) = net.neighbor(node, dim, dir) else {
                    continue;
                };
                let faulty_channel =
                    faults.is_channel_faulty(net, DirectedChannel::new(node, dim, dir));
                for vc in 0..self.v {
                    let slot = router.slot(out_port, vc);
                    let ovc = &router.outputs[slot];
                    let down_buf = routers[downstream.index()].inputs[slot].buffer.len();
                    if ovc.credits() > self.buffer_depth
                        || ovc.credits() + down_buf != self.buffer_depth
                    {
                        self.record(
                            cycle,
                            "credit-mismatch",
                            format!(
                                "{}: {} credits + {down_buf} buffered downstream != \
                                 depth {}",
                                Self::describe(node, dim, dir, vc),
                                ovc.credits(),
                                self.buffer_depth
                            ),
                        );
                    }
                    if faulty_channel
                        && (ovc.owner().is_some()
                            || ovc.credits() != self.buffer_depth
                            || down_buf != 0)
                    {
                        self.record(
                            cycle,
                            "faulty-channel-occupied",
                            format!(
                                "faulty {} is occupied (owner {:?}, {} credits, \
                                 {down_buf} downstream flits)",
                                Self::describe(node, dim, dir, vc),
                                ovc.owner(),
                                ovc.credits()
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Every message reference held by router state resolves to a live
    /// message, with the lazily released `draining` owner as the one allowed
    /// exception; non-draining output owners are backed by a matching input
    /// route of the same router; re-injection entries name absorbed
    /// messages.
    fn check_references(
        &mut self,
        cycle: u64,
        routers: &[RouterState],
        messages: &dyn MessageLookup,
    ) {
        let live = |id: MessageId| messages.lookup(id).is_some_and(|m| !m.is_done());
        for router in routers {
            let node = router.node;
            // Map of this router's claimed output slot -> message.
            let mut claimed: HashMap<usize, MessageId> = HashMap::new();
            for ivc in &router.inputs {
                let Some(route) = ivc.route else { continue };
                if !live(route.msg) {
                    self.record(
                        cycle,
                        "stale-route",
                        format!("router {node:?} route references retired {:?}", route.msg),
                    );
                }
                if let Some(msg) = ivc.buffer.msg() {
                    if msg != route.msg {
                        self.record(
                            cycle,
                            "route-mismatch",
                            format!(
                                "router {node:?} buffers {msg:?} on a VC routed for {:?}",
                                route.msg
                            ),
                        );
                    }
                }
                if let Some((out_port, out_vc)) = route.target.output() {
                    claimed.insert(router.slot(out_port, out_vc), route.msg);
                }
            }
            for (slot, ovc) in router.outputs.iter().enumerate() {
                let Some(owner) = ovc.owner() else { continue };
                if ovc.is_draining() {
                    continue; // lazy release: the owner may be retired
                }
                let (out_port, vc) = (slot / self.v, slot % self.v);
                if !live(owner) {
                    self.record(
                        cycle,
                        "stale-owner",
                        format!(
                            "router {node:?} output p{out_port} vc{vc} owned by \
                             retired {owner:?}"
                        ),
                    );
                }
                if claimed.get(&slot) != Some(&owner) {
                    self.record(
                        cycle,
                        "owner-without-route",
                        format!(
                            "router {node:?} output p{out_port} vc{vc} owned by \
                             {owner:?} without a matching input route"
                        ),
                    );
                }
            }
            for e in &router.reinjection_queue {
                if !messages
                    .lookup(e.msg)
                    .is_some_and(|m| m.phase == MessagePhase::Queued)
                {
                    self.record(
                        cycle,
                        "queue-mismatch",
                        format!(
                            "router {node:?} reinjection queue holds non-queued {:?}",
                            e.msg
                        ),
                    );
                }
            }
        }
    }

    /// Every router's occupancy mask holds exactly the input slots whose
    /// buffer is non-empty, and its waiting-head mask exactly the slots with
    /// an unrouted head flit at the front.
    fn check_occupancy(&mut self, cycle: u64, routers: &[RouterState]) {
        let state = |set: bool| if set { "set" } else { "clear" };
        for router in routers {
            for (slot, ivc) in router.inputs.iter().enumerate() {
                let occupied = !ivc.buffer.is_empty();
                if router.is_occupied(slot) != occupied {
                    self.record(
                        cycle,
                        "occupancy-mismatch",
                        format!(
                            "router {:?} input slot {slot} holds {} flit(s) but its \
                             occupancy bit is {}",
                            router.node,
                            ivc.buffer.len(),
                            state(!occupied)
                        ),
                    );
                }
                let waiting = ivc.waiting_head();
                if router.is_waiting(slot) != waiting.is_some() {
                    self.record(
                        cycle,
                        "waiting-mismatch",
                        format!(
                            "router {:?} input slot {slot} has waiting head {waiting:?} \
                             (route {:?}) but its waiting bit is {}",
                            router.node,
                            ivc.route,
                            state(waiting.is_none())
                        ),
                    );
                }
            }
        }
    }

    /// Every router's kept-decision mask marks only slots whose head still
    /// awaits VC allocation (a decision left on a bound or emptied VC is
    /// stale), and as many slots as its kept-decision store has entries (the
    /// store is found by rank in the mask, so a count that differs hands
    /// heads each other's candidates). While the router has released no
    /// output VC since its last routing pass, no candidate VC of a kept
    /// decision is claimable: the engine skips those heads' next attempts as
    /// bound to fail, so a VC made claimable without setting the release
    /// flag would keep a head from a VC it could win.
    fn check_kept_decisions(&mut self, cycle: u64, routers: &[RouterState]) {
        for router in routers {
            let node = router.node;
            let must_fail = !router.released();
            let mut marked = 0;
            for w in 0..router.occupancy_words() {
                for slot in router.kept_slots_in(w) {
                    if must_fail {
                        if let Some(kept) = router.kept_decisions().get(marked) {
                            self.check_must_fail(cycle, router, slot, kept);
                        }
                    }
                    marked += 1;
                    let ivc = &router.inputs[slot];
                    if ivc.waiting_head().is_none() {
                        self.record(
                            cycle,
                            "stale-decision",
                            format!(
                                "router {node:?} keeps a blocked head's routing decision on \
                                 input slot {slot}, which is not awaiting VC allocation \
                                 (route {:?})",
                                ivc.route
                            ),
                        );
                    }
                }
            }
            let stored = router.kept_decisions().len();
            if marked != stored {
                self.record(
                    cycle,
                    "kept-mask",
                    format!(
                        "router {node:?} marks {marked} slot(s) in its kept-decision mask \
                         but stores {stored} kept decision(s)"
                    ),
                );
            }
        }
    }

    /// No candidate VC of `kept`, the decision of the blocked head in input
    /// slot `slot` of `router`, is claimable.
    fn check_must_fail(
        &mut self,
        cycle: u64,
        router: &RouterState,
        slot: usize,
        kept: &KeptDecision,
    ) {
        for cand in &kept.candidates {
            let port = RouterState::out_port(cand.dim(), cand.dir());
            for vc in cand.vcs().range() {
                if router.outputs[port * self.v + vc].claimable(self.buffer_depth) {
                    let channel = Self::describe(router.node, cand.dim(), cand.dir(), vc);
                    self.record(
                        cycle,
                        "missed-release",
                        format!(
                            "router {:?} has released no output VC since its last routing \
                             pass, yet {channel}, a candidate of the blocked head in input \
                             slot {slot}, is claimable",
                            router.node
                        ),
                    );
                }
            }
        }
    }

    /// Every source-queue record could have been generated by its router by
    /// now: its destination is a healthy endpoint other than the router's
    /// node, its generation cycle is no later than `cycle`, and the queue is
    /// oldest first (FIFO).
    fn check_source_queues(
        &mut self,
        cycle: u64,
        net: &AnyTopology,
        faults: &FaultSet,
        routers: &[RouterState],
    ) {
        for router in routers {
            let node = router.node;
            let mut previous = 0;
            for (position, record) in router.source_queue.iter().enumerate() {
                let dest = record.dest;
                let generated_at = u64::from(record.generated_at);
                if dest == node || !net.is_endpoint(dest) || faults.is_node_faulty(dest) {
                    self.record(
                        cycle,
                        "queue-mismatch",
                        format!(
                            "router {node:?} source queue record {position} is bound for \
                             {dest:?}, not a healthy endpoint other than its source"
                        ),
                    );
                }
                if generated_at > cycle {
                    self.record(
                        cycle,
                        "queue-mismatch",
                        format!(
                            "router {node:?} source queue record {position} was generated \
                             at cycle {generated_at}, after the audited cycle"
                        ),
                    );
                }
                if generated_at < previous {
                    self.record(
                        cycle,
                        "queue-mismatch",
                        format!(
                            "router {node:?} source queue record {position} was generated \
                             at cycle {generated_at}, before the record ahead of it \
                             (cycle {previous}): the queue is not oldest first"
                        ),
                    );
                }
                previous = generated_at;
            }
        }
    }

    /// The engine's `in_flight` counter equals the live message population
    /// plus the source-queue records.
    fn check_in_flight(
        &mut self,
        cycle: u64,
        routers: &[RouterState],
        messages: &dyn MessageLookup,
        in_flight: u64,
    ) {
        let mut live = 0u64;
        messages.for_each_live(&mut |_| live += 1);
        let queued: u64 = routers.iter().map(|r| r.source_queue.len() as u64).sum();
        if live + queued != in_flight {
            self.record(
                cycle,
                "in-flight-mismatch",
                format!(
                    "in_flight counter is {in_flight} but {live} messages are live and \
                     {queued} wait in source queues"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Flit, WormRun};
    use crate::message::MessageState;
    use crate::router::{QueuedMessage, VcRoute};
    use crate::{Simulation, StopCondition};
    use torus_routing::{AnyRouting, Candidates, OutputCandidate, Substrate};
    use torus_topology::TopologySpec;

    fn mesh() -> AnyTopology {
        AnyTopology::mesh(4, 2).unwrap()
    }

    /// A sanitizer for `v` VCs of the given depth on [`mesh`], tracking every
    /// hop (deterministic flavour) or escape hops only (adaptive).
    fn sanitizer(
        v: usize,
        depth: usize,
        all_tracked: bool,
        cdg: Option<DependencyGraph>,
    ) -> Sanitizer {
        let mut config = SimConfig::paper_topology(TopologySpec::mesh(4, 2), v, 8, 0.01);
        config.buffer_depth = depth;
        if all_tracked {
            Sanitizer::new(
                &config,
                &AnyRouting::deterministic(Substrate::DimensionOrder),
                cdg,
            )
        } else {
            Sanitizer::new(
                &config,
                &AnyRouting::adaptive(Substrate::DimensionOrder),
                cdg,
            )
        }
    }

    fn grant(cycle: u64, node: NodeId, dim: usize, is_escape: bool) -> Allocation {
        Allocation {
            cycle,
            msg: MessageId(0),
            node,
            dim,
            dir: Direction::Plus,
            vc: 0,
            is_escape,
        }
    }

    fn routers_for(net: &AnyTopology, v: usize, depth: usize) -> Vec<RouterState> {
        net.nodes()
            .map(|node| RouterState::new(net, node, v, depth, false))
            .collect()
    }

    fn message(net: &AnyTopology, id: MessageId, length: u32) -> MessageState {
        let algo = AnyRouting::deterministic(Substrate::DimensionOrder);
        let header = algo.make_header(net, NodeId(0), NodeId(5));
        MessageState::new(id, header, length, 0, false)
    }

    #[test]
    fn pristine_state_is_clean() {
        let net = mesh();
        let routers = routers_for(&net, 2, 4);
        let messages: Vec<MessageState> = Vec::new();
        let mut s = sanitizer(2, 4, true, None);
        s.end_of_cycle(0, &net, &FaultSet::new(), &routers, &messages, 0);
        assert!(s.is_clean());
    }

    /// Audits `routers` at `cycle` on [`mesh`] with node 3 faulty, no table
    /// entries and `in_flight` messages, returning the violation details.
    fn audit_queues(routers: &[RouterState], cycle: u64, in_flight: u64) -> Vec<String> {
        let net = mesh();
        let mut faults = FaultSet::new();
        faults.fail_node(NodeId(3));
        let messages: Vec<MessageState> = Vec::new();
        let mut s = sanitizer(2, 4, true, None);
        s.end_of_cycle(cycle, &net, &faults, routers, &messages, in_flight);
        s.violations()
            .iter()
            .map(|v| format!("{}: {}", v.kind, v.detail))
            .collect()
    }

    /// Node 5's source queue with records for `dests` generated at `stamps`.
    fn queued(dests: &[u32], stamps: &[u32]) -> Vec<RouterState> {
        let mut routers = routers_for(&mesh(), 2, 4);
        for (&dest, &generated_at) in dests.iter().zip(stamps) {
            routers[5].source_queue.push_back(QueuedMessage {
                dest: NodeId(dest),
                generated_at,
                measured: false,
            });
        }
        routers
    }

    #[test]
    fn source_queue_records_are_counted_in_flight() {
        let routers = queued(&[0, 15], &[2, 4]);
        assert_eq!(audit_queues(&routers, 4, 2), Vec::<String>::new());
        let found = audit_queues(&routers, 4, 1);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("in-flight-mismatch"), "{found:?}");
        assert!(found[0].contains("2 wait in source queues"), "{found:?}");
    }

    #[test]
    fn a_record_bound_for_its_own_source_or_a_faulty_node_is_flagged() {
        for dest in [5, 3] {
            let found = audit_queues(&queued(&[0, dest], &[1, 1]), 4, 2);
            assert_eq!(found.len(), 1, "{found:?}");
            assert!(found[0].starts_with("queue-mismatch"), "{found:?}");
            assert!(found[0].contains("not a healthy endpoint"), "{found:?}");
        }
    }

    #[test]
    fn a_record_from_the_future_is_flagged() {
        let found = audit_queues(&queued(&[0, 15], &[3, 5]), 4, 2);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("queue-mismatch"), "{found:?}");
        assert!(found[0].contains("after the audited cycle"), "{found:?}");
    }

    #[test]
    fn a_source_queue_out_of_generation_order_is_flagged() {
        let found = audit_queues(&queued(&[0, 15, 1], &[2, 4, 3]), 4, 3);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("queue-mismatch"), "{found:?}");
        assert!(found[0].contains("not oldest first"), "{found:?}");
    }

    #[test]
    fn missing_flits_are_a_conservation_violation() {
        let net = mesh();
        let routers = routers_for(&net, 2, 4);
        let mut m = message(&net, MessageId(0), 4);
        m.note_injected(1); // InNetwork, but no flits buffered anywhere
        let messages = vec![m];
        let mut s = sanitizer(2, 4, true, None);
        s.end_of_cycle(1, &net, &FaultSet::new(), &routers, &messages, 1);
        assert!(!s.is_clean());
        assert!(s.violations().iter().any(|v| v.kind == "flit-conservation"));
    }

    #[test]
    fn locally_sunk_flits_count_towards_conservation() {
        // A 4-flit worm being delivered at node 5: the head has drained into
        // the PE, the other three flits wait on input slot 0, fed by node 4.
        let net = mesh();
        let mut routers = routers_for(&net, 2, 4);
        let mut m = message(&net, MessageId(0), 4);
        m.note_injected(0);
        let messages = vec![m];
        let deliver = VcRoute {
            msg: MessageId(0),
            target: RouteTarget::Deliver,
            ready_at: 0,
        };
        let mut rest = WormRun::whole(MessageId(0), 4);
        rest.pop();
        routers[5].push_flits(0, rest);
        let ivc = &mut routers[5].inputs[0];
        ivc.route = Some(deliver);
        ivc.sunk = 1;
        for _ in 0..3 {
            routers[4].outputs[0].send(false);
        }
        let audit = |routers: &[RouterState]| {
            let mut s = sanitizer(2, 4, true, None);
            s.end_of_cycle(5, &net, &FaultSet::new(), routers, &messages, 1);
            s
        };
        assert!(audit(&routers).is_clean());
        // Losing the count loses a flit.
        routers[5].inputs[0].sunk = 0;
        let s = audit(&routers);
        assert_eq!(s.violation_count(), 1);
        assert_eq!(s.violations()[0].kind, "flit-conservation");
        // A count with no local route to attribute it to is flagged as well.
        routers[5].inputs[0].sunk = 1;
        routers[5].inputs[0].route = None;
        assert!(audit(&routers)
            .violations()
            .iter()
            .any(|v| v.detail.contains("no local route")));
    }

    #[test]
    fn stale_flit_and_credit_mismatch_are_detected() {
        let net = mesh();
        let mut routers = routers_for(&net, 2, 4);
        // A flit referencing a message the table does not know.
        routers[0].push_flits(0, Flit::nth_of(MessageId(9), 0, 1).into());
        // A credit counter that lost a credit with no downstream flit
        // (port 0 = dim 0 towards +x, the one port node 0 of a mesh has).
        routers[0].outputs[0].send(false);
        let messages: Vec<MessageState> = Vec::new();
        let mut s = sanitizer(2, 4, true, None);
        s.end_of_cycle(2, &net, &FaultSet::new(), &routers, &messages, 0);
        let kinds: Vec<&str> = s.violations().iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&"stale-flit"), "{kinds:?}");
        assert!(kinds.contains(&"credit-mismatch"), "{kinds:?}");
    }

    #[test]
    fn occupancy_mask_mismatch_is_detected_in_both_directions() {
        // A one-flit message buffered on node 5's injection slot: clean while
        // the mask agrees, flagged when a set bit outlives its flit (the
        // stages would visit an empty slot) and when a flit sits behind a
        // clear bit (they would never visit it).
        let net = mesh();
        let mut m = message(&net, MessageId(0), 1);
        m.note_injected(0);
        let messages = vec![m];
        let head = Flit::nth_of(MessageId(0), 0, 1);
        let slot = routers_for(&net, 2, 4)[5].injection_slots().start;
        let audit = |routers: &[RouterState]| {
            let mut s = sanitizer(2, 4, true, None);
            s.end_of_cycle(7, &net, &FaultSet::new(), routers, &messages, 1);
            s
        };
        let occupancy = |s: &Sanitizer| -> Vec<String> {
            s.violations()
                .iter()
                .filter(|v| v.kind == "occupancy-mismatch")
                .map(|v| v.detail.clone())
                .collect()
        };
        let mut routers = routers_for(&net, 2, 4);
        routers[5].push_flits(slot, head.into());
        assert!(audit(&routers).is_clean());
        // The flit moves to the next slot behind the mask's back.
        routers[5].inputs[slot].buffer.clear();
        routers[5].push_flits(slot + 1, head.into());
        let found = occupancy(&audit(&routers));
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("bit is set"));
        let mut routers = routers_for(&net, 2, 4);
        routers[5].inputs[slot].buffer.push(head);
        let found = occupancy(&audit(&routers));
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("bit is clear"));
    }

    #[test]
    fn waiting_mask_mismatch_is_detected_in_both_directions() {
        // A one-flit message waiting for routing on node 5's injection slot:
        // clean while the waiting bit agrees, flagged when the bit outlives
        // the wait (routing would visit a bound head) and when a waiting head
        // sits behind a clear bit (routing would never visit it).
        let net = mesh();
        let mut m = message(&net, MessageId(0), 1);
        m.note_injected(0);
        let messages = vec![m];
        let slot = routers_for(&net, 2, 4)[5].injection_slots().start;
        let audit = |routers: &[RouterState]| {
            let mut s = sanitizer(2, 4, true, None);
            s.end_of_cycle(7, &net, &FaultSet::new(), routers, &messages, 1);
            s
        };
        let mut routers = routers_for(&net, 2, 4);
        routers[5].push_flits(slot, WormRun::whole(MessageId(0), 1));
        assert!(routers[5].is_waiting(slot));
        assert!(audit(&routers).is_clean());
        let route = VcRoute {
            msg: MessageId(0),
            target: RouteTarget::Deliver,
            ready_at: 0,
        };
        // Bound behind the mask's back: the bit stays set.
        let mut stale = routers.clone();
        stale[5].inputs[slot].route = Some(route);
        let s = audit(&stale);
        assert_eq!(s.violation_count(), 1);
        assert_eq!(s.violations()[0].kind, "waiting-mismatch");
        assert!(s.violations()[0].detail.contains("bit is set"));
        // Bound through the router, then unbound behind its back: the head
        // waits again with a clear bit.
        routers[5].bind(slot, route);
        assert!(audit(&routers).is_clean());
        routers[5].inputs[slot].route = None;
        let s = audit(&routers);
        assert_eq!(s.violation_count(), 1);
        assert_eq!(s.violations()[0].kind, "waiting-mismatch");
        assert!(s.violations()[0].detail.contains("bit is clear"));
    }

    #[test]
    fn a_kept_decision_beside_no_waiting_head_is_stale() {
        // The router's kept-decision store holds a blocked head's candidates
        // under the head's own slot; an entry under any other slot is stale.
        let net = mesh();
        let mut m = message(&net, MessageId(0), 1);
        m.note_injected(0);
        let messages = vec![m];
        let mut routers = routers_for(&net, 2, 4);
        let slot = routers[5].injection_slots().start;
        routers[5].push_flits(slot, WormRun::whole(MessageId(0), 1));
        let kept = KeptDecision {
            candidates: Candidates::new(),
        };
        let audit = |routers: &[RouterState]| {
            let mut s = sanitizer(2, 4, true, None);
            s.end_of_cycle(7, &net, &FaultSet::new(), routers, &messages, 1);
            s
        };
        routers[5].keep(slot, kept.clone());
        assert!(audit(&routers).is_clean());
        routers[5].keep(slot - 1, kept);
        let s = audit(&routers);
        assert_eq!(s.violation_count(), 1);
        assert_eq!(s.violations()[0].kind, "stale-decision");
    }

    #[test]
    fn a_kept_store_that_disagrees_with_its_mask_is_flagged() {
        // A blocked head's entry is found by its rank among the kept bits, so
        // an entry more or less than the mask marks misplaces every decision
        // ranked after it.
        let net = mesh();
        let mut m = message(&net, MessageId(0), 1);
        m.note_injected(0);
        let messages = vec![m];
        let mut routers = routers_for(&net, 2, 4);
        let slot = routers[5].injection_slots().start;
        routers[5].push_flits(slot, WormRun::whole(MessageId(0), 1));
        let kept = KeptDecision {
            candidates: Candidates::new(),
        };
        let audit = |routers: &[RouterState]| {
            let mut s = sanitizer(2, 4, true, None);
            s.end_of_cycle(7, &net, &FaultSet::new(), routers, &messages, 1);
            s
        };
        routers[5].keep(slot, kept.clone());
        assert!(audit(&routers).is_clean());
        for planted in [1, -1] {
            let mut bad = routers.clone();
            if planted > 0 {
                bad[5].kept_store_mut().push(kept.clone());
            } else {
                bad[5].kept_store_mut().clear();
            }
            let s = audit(&bad);
            assert_eq!(s.violation_count(), 1, "{:?}", s.violations());
            assert_eq!(s.violations()[0].kind, "kept-mask");
        }
    }

    #[test]
    fn a_claimable_candidate_at_an_unmoved_epoch_is_a_missed_release() {
        // A kept head at a router that has released no output VC since its
        // last routing pass is skipped as bound to fail. A fresh router's
        // output VCs are all free, so a decision naming one of them, with
        // the release flag clear, is a release the flag missed; once a VC's
        // return sets the flag, the head will retry in full and nothing is
        // missed.
        let net = mesh();
        let mut m = message(&net, MessageId(0), 1);
        m.note_injected(0);
        let messages = vec![m];
        let mut routers = routers_for(&net, 2, 4);
        let slot = routers[5].injection_slots().start;
        routers[5].push_flits(slot, WormRun::whole(MessageId(0), 1));
        let kept = KeptDecision {
            candidates: [OutputCandidate::new(0, Direction::Plus, 0..2)]
                .into_iter()
                .collect(),
        };
        routers[5].keep(slot, kept);
        let audit = |routers: &[RouterState]| {
            let mut s = sanitizer(2, 4, true, None);
            s.end_of_cycle(7, &net, &FaultSet::new(), routers, &messages, 1);
            s
        };
        let s = audit(&routers);
        assert_eq!(s.violation_count(), 2, "{:?}", s.violations());
        assert!(s.violations().iter().all(|v| v.kind == "missed-release"));
        assert!(s.violations()[1].detail.contains("d0+ vc1"));
        let out = routers[5].slot(RouterState::out_port(0, Direction::Plus), 0);
        routers[5].outputs[out].claim(MessageId(0));
        routers[5].outputs[out].send(true);
        routers[5].return_credit(out, 4);
        assert!(routers[5].released());
        assert!(audit(&routers).is_clean());
    }

    #[test]
    fn faulty_channel_occupancy_is_detected() {
        let net = mesh();
        let mut faults = FaultSet::new();
        faults.fail_link(&net, NodeId(0), 0, Direction::Plus);
        let mut routers = routers_for(&net, 2, 4);
        let port = RouterState::out_port(0, Direction::Plus);
        let slot = routers[0].slot(port, 1);
        routers[0].outputs[slot].claim(MessageId(3));
        let mut m = message(&net, MessageId(3), 1);
        m.note_injected(0);
        // Give the owner a matching route so only the fault check fires
        // (plus the flit-conservation check for the missing flit, which we
        // tolerate here).
        routers[0].inputs[0].route = Some(VcRoute {
            msg: MessageId(3),
            target: RouteTarget::network(port, 1),
            ready_at: 0,
        });
        let messages = vec![m];
        let mut s = sanitizer(2, 4, true, None);
        s.end_of_cycle(3, &net, &faults, &routers, &messages, 1);
        assert!(s
            .violations()
            .iter()
            .any(|v| v.kind == "faulty-channel-occupied"));
    }

    #[test]
    fn cdg_conformance_accepts_allowed_edges_and_flags_divergence() {
        let net = mesh();
        let v = 1;
        // Hand-built CDG permitting only the 0 -> +x -> +x chain.
        let a = NodeId(0);
        let b = net.neighbor(a, 0, Direction::Plus).unwrap();
        let mut cdg = DependencyGraph::new(net.channel_slots() * v);
        let ra = net
            .channel_id(DirectedChannel::new(a, 0, Direction::Plus))
            .index()
            * v;
        let rb = net
            .channel_id(DirectedChannel::new(b, 0, Direction::Plus))
            .index()
            * v;
        cdg.add_edge(ra, rb);
        let mut s = sanitizer(v, 4, true, Some(cdg));
        let msg = MessageId(0);
        // First allocation: no held resource yet, always fine.
        s.on_allocate(&net, &grant(0, a, 0, false));
        // Allowed edge.
        s.on_allocate(&net, &grant(1, b, 0, false));
        assert!(s.is_clean());
        assert_eq!(s.edges_checked(), 1);
        // A turn the CDG does not contain is a divergence.
        let c = net.neighbor(b, 0, Direction::Plus).unwrap();
        s.on_allocate(&net, &grant(2, c, 1, false));
        assert_eq!(s.violation_count(), 1);
        let v0 = &s.violations()[0];
        assert_eq!(v0.kind, "cdg-divergence");
        assert_eq!(v0.cycle, 2);
        assert!(v0.detail.contains("not an edge of the exact CDG"));
        // Release clears the wait-for state: the next allocation is fresh.
        s.on_release(msg);
        s.on_allocate(&net, &grant(3, c, 1, false));
        assert_eq!(s.violation_count(), 1);
    }

    #[test]
    fn untracked_allocations_are_ignored_without_all_tracked() {
        let net = mesh();
        let mut s = sanitizer(1, 4, false, Some(DependencyGraph::new(net.channel_slots())));
        // Adaptive-layer (non-escape) hops never touch the wait-for state.
        s.on_allocate(&net, &grant(0, NodeId(0), 0, false));
        s.on_allocate(&net, &grant(1, NodeId(1), 1, false));
        assert!(s.is_clean());
        assert_eq!(s.edges_checked(), 0);
        // Escape hops do: with an edge-free CDG the second one diverges.
        s.on_allocate(&net, &grant(2, NodeId(0), 0, true));
        s.on_allocate(&net, &grant(3, NodeId(1), 1, true));
        assert_eq!(s.violation_count(), 1);
    }

    #[test]
    fn recording_is_capped_but_counting_is_not() {
        let mut s = sanitizer(1, 1, true, None);
        for i in 0..(MAX_RECORDED as u64 + 10) {
            s.record(i, "test", String::new());
        }
        assert_eq!(s.violations().len(), MAX_RECORDED);
        assert_eq!(s.violation_count(), MAX_RECORDED as u64 + 10);
    }

    #[test]
    fn watchdog_absorption_drops_the_kept_decision() {
        // Past saturation with a threshold of a few cycles the watchdog keeps
        // absorbing heads that were blocked on VC allocation. Their kept
        // candidates must go with them: the sanitizer flags a decision left
        // on a bound VC, and in debug builds the next head to block there
        // would fail the purity re-check against the stale list.
        let mut config = SimConfig::paper(4, 2, 4, 8, 0.9);
        config.stall_absorb_threshold = 5;
        config.max_cycles = 2_000;
        config.stop = StopCondition::MeasuredMessages(u64::MAX);
        let algo = AnyRouting::adaptive(Substrate::DimensionOrder);
        let sanitizer = Sanitizer::new(&config, &algo, None);
        let mut sim = Simulation::with_observer(config, FaultSet::new(), algo, sanitizer).unwrap();
        let out = sim.run();
        assert!(out.forced_absorptions > 100, "{}", out.forced_absorptions);
        let sanitizer = sim.into_observer();
        assert!(sanitizer.is_clean(), "{:?}", sanitizer.violations().first());
    }
}
