//! The cycle-driven flit-level engine: one pipeline, run under a scheduler.
//!
//! Every simulated cycle is the classical wormhole router pipeline, applied
//! synchronously:
//!
//! 1. **Traffic generation** — healthy PEs draw new messages from their
//!    Poisson sources into the node's source queue, as compact records
//!    ([`crate::router::QueuedMessage`]).
//! 2. **Injection** — idle injection virtual channels accept the next message
//!    from the software re-injection queue (priority) or the source queue.
//!    A source-queue record becomes a message here: it gets its routing
//!    header, its identifier and its message-table entry.
//! 3. **Routing computation + virtual-channel allocation** — head flits at the
//!    front of an input VC obtain a routing decision from the routing
//!    algorithm and try to claim a permitted output VC. A head that finds no
//!    free VC keeps its decision (routing is a pure function of header, node
//!    and the frozen fault set) and retries each cycle until it wins. It
//!    repeats the full allocation — shuffle, availability checks, random
//!    choice — only once an output VC of its router has become claimable
//!    since the router's last routing pass (its release flag is set, see
//!    [`crate::router`]). Otherwise the attempt must fail
//!    again: the head is neither re-routed nor permuted, and makes only the
//!    draws its shuffle would have made, so the RNG sequence is the same.
//! 4. **Switch allocation + traversal** — each output physical channel moves
//!    at most one flit per cycle (round-robin among requesting input VCs with
//!    downstream credit): one pass over a router's input VCs, in ascending
//!    slot order, posts the requests and settles each port's winner as they
//!    arrive ([`crate::arbiter`]); each requested port then moves its
//!    winner's flit. Flits routed to the local node (delivery or absorption)
//!    drain in the same pass without bandwidth limit (paper assumption (d)).
//! 5. **Arrival application / credit return** — movements become visible to
//!    the downstream routers at the start of the next cycle.
//! 6. **Stall watchdog** — a safety valve that never fires with the
//!    deadlock-free algorithms shipped here.
//!
//! Absorption (the Software-Based mechanism) drains the whole worm into the
//! local node; once the tail flit has arrived the message-passing software
//! rewrites the header ([`torus_routing::RoutingAlgorithm::reroute_on_fault`])
//! and places the message in the node's re-injection queue, which is served
//! with priority over locally generated messages.
//!
//! [`Engine`] defines these stages exactly once. What varies is the
//! [`Schedule`] it is instantiated with — which routers each stage visits and
//! which table stores the messages (see [`crate::schedule`]) — and the
//! [`Observer`] that watches it (see [`crate::observer`]). [`Simulation`]
//! is the engine under [`ActiveSchedule`]: worklists of live state, an
//! arrival calendar, a reclaiming message table.
//! [`crate::ReferenceSimulation`] is the same engine under
//! [`crate::reference::FullScan`]. Worklists always come back in ascending
//! router order, so RNG draws and metric recordings happen in the same
//! sequence and fixed-seed reports are **bit-identical** under both (enforced
//! by the equivalence test suite).
//!
//! Within a router, each stage visits only the input slots it can act on
//! (the router's slot masks, see [`crate::router`]): stages 3 and 6 the
//! slots whose front head flit awaits routing (the waiting-head mask), the
//! request pass of stage 4 the occupied slots whose front flit is bound to a
//! route, and its grant loop only the output ports with a request. An empty
//! slot, a waiting head in the switch or a bound one in routing has nothing
//! for the stage. Slots and ports are still visited in ascending order, under
//! either scheduler, so skipping them changes no RNG draw or recording.
//!
//! Stages 3 and 4 run per router: `step` walks the busy routers once, and at
//! each one routes the waiting heads, then switches. (So an observer sees
//! one boundary before the walk and one after it, and
//! [`crate::observer::StageTimer`] reports the two stages together.) That is the order of two
//! full passes — every router routed, then every router switched — because
//! neither stage at one router can see the other at another:
//!
//! * switching at router A changes only A's state, the deferred arrival and
//!   credit lists (applied after the walk) and the messages whose head or
//!   tail leaves A, and it draws nothing from the RNG;
//! * routing at a later router B reads only B's state and the headers of
//!   the heads waiting at B, none of which switching at A touched (a worm
//!   whose head waits at B moves only body flits at A, and those leave its
//!   header alone).
//!
//! So every RNG draw, collector recording and VC allocation happens in the
//! same order as with two passes. Only the interleaving of one router's
//! releases ([`Observer::on_release`]) with a later router's allocations
//! differs, and those concern different messages.

use crate::arbiter::SwitchRequests;
use crate::config::{SimConfig, SimConfigError, StopCondition};
use crate::flit::{Flit, MessageId, WormRun};
use crate::message::{MessagePhase, MessageState};
use crate::observer::{Allocation, NoObserver, Observer, Stage};
use crate::router::{
    stamp, KeptDecision, OutputVc, QueuedMessage, ReinjectionEntry, RouteTarget, RouterState,
    VcRoute,
};
use crate::schedule::{ActiveSchedule, MessageTable, Schedule};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use torus_faults::FaultSet;
use torus_metrics::{MetricsCollector, SimulationReport, WarmupPolicy};
use torus_routing::{Candidates, OutputCandidate, RouteDecision, RoutingAlgorithm};
use torus_topology::{AnyTopology, Direction};
use torus_workloads::TrafficSource;

/// Result of running a simulation to its stop condition.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The metrics report of the run.
    pub report: SimulationReport,
    /// True if the run stopped because it hit the `max_cycles` cap rather than
    /// its stop condition (typically a saturated network).
    pub hit_max_cycles: bool,
    /// Messages absorbed by the stall watchdog rather than a fault encounter
    /// (always 0 with the deadlock-free algorithms shipped here).
    pub forced_absorptions: u64,
    /// Messages dropped because no fault-free path to their destination
    /// existed (always 0 when faults preserve connectivity).
    pub dropped_messages: u64,
    /// Peak number of messages the engine held at once, as message-table
    /// entries or source-queue records. Under [`ActiveSchedule`] that is the
    /// peak in-flight population (the table reclaims retired entries); under
    /// the append-only reference table it is the total number of messages
    /// generated.
    pub message_table_peak: u64,
}

/// A flit-level wormhole simulation of one network configuration under the
/// production scheduler.
pub type Simulation<A, O = NoObserver> = Engine<A, ActiveSchedule, O>;

/// The pipeline, generic over the routing algorithm, the scheduler and the
/// observer.
pub struct Engine<A: RoutingAlgorithm, S: Schedule, O: Observer = NoObserver> {
    net: AnyTopology,
    faults: FaultSet,
    algo: A,
    config: SimConfig,
    routers: Vec<RouterState>,
    messages: S::Messages,
    sources: Vec<TrafficSource>,
    collector: MetricsCollector,
    rng: StdRng,
    cycle: u64,
    /// Messages generated and not yet delivered or dropped: live table
    /// entries plus source-queue records.
    in_flight: u64,
    /// Records in the source queues.
    queued: usize,
    /// Largest `messages.held() + queued` so far ([`RunOutcome::message_table_peak`]).
    held_peak: usize,
    dropped: u64,
    forced_absorptions: u64,
    // Scratch buffers reused across cycles to avoid per-cycle allocation.
    /// Flits that crossed a link this cycle: `(router, input slot, flit)`.
    arrivals: Vec<(usize, usize, Flit)>,
    /// Credits owed for the buffer slots freed this cycle:
    /// `(upstream router, output slot)`.
    credit_returns: Vec<(usize, usize)>,
    schedule: S,
    /// The current stage's worklist. Stages snapshot it before processing so
    /// that notifications sent *during* the stage (downstream arrivals,
    /// queues draining) take effect from the next stage onwards.
    worklist: Vec<usize>,
    /// The switch allocator's requested ports and their winners, rebuilt for
    /// each router it visits.
    requests: SwitchRequests,
    /// VC allocation's scratch: the shuffled candidate order of the head
    /// being allocated and the free VCs of the candidate being tried.
    candidate_order: Vec<usize>,
    free_vcs: Vec<usize>,
    observer: O,
    /// Kept-head retries the replay path handled.
    #[cfg(test)]
    replayed: u64,
}

impl<A: RoutingAlgorithm, S: Schedule> Engine<A, S> {
    /// Builds a simulation from a configuration, a fault set and a routing
    /// algorithm, with nothing observing it.
    pub fn new(config: SimConfig, faults: FaultSet, algo: A) -> Result<Self, SimConfigError> {
        Self::with_observer(config, faults, algo, NoObserver)
    }
}

impl<A: RoutingAlgorithm, S: Schedule, O: Observer> Engine<A, S, O> {
    /// [`Engine::new`] with `observer` watching the run.
    pub fn with_observer(
        config: SimConfig,
        faults: FaultSet,
        algo: A,
        observer: O,
    ) -> Result<Self, SimConfigError> {
        let net = config.topology.build().map_err(SimConfigError::Topology)?;
        algo.supported_on(&net)
            .map_err(|error| SimConfigError::UnsupportedRouting {
                topology: config.topology.to_spec_string(),
                routing: algo.name(),
                error,
            })?;
        config.validate_parameters(algo.min_virtual_channels(&net))?;
        let n = net.dims();
        let v = config.virtual_channels;
        let routers: Vec<RouterState> = net
            .nodes()
            .map(|node| {
                let is_faulty = faults.is_node_faulty(node);
                RouterState::new(&net, node, v, config.buffer_depth, is_faulty)
            })
            .collect();
        // Traffic originates at endpoints only: on grids that is every node,
        // on fat-trees the processing nodes below the switch fabric. The
        // sources vector is indexed by node id, which works because endpoint
        // ids form the dense prefix `0..num_endpoints` of the id space.
        let sources = net
            .endpoints()
            .map(|node| config.traffic.source_for(node))
            .collect();
        let collector = MetricsCollector::new(
            net.num_nodes(),
            WarmupPolicy::Messages(config.warmup_messages),
        );
        let rng = StdRng::seed_from_u64(config.seed);
        let schedule = S::new(&routers, net.num_endpoints());
        let worklist = Vec::with_capacity(routers.len());
        Ok(Engine {
            net,
            faults,
            algo,
            config,
            routers,
            messages: S::Messages::default(),
            sources,
            collector,
            rng,
            cycle: 0,
            in_flight: 0,
            queued: 0,
            held_peak: 0,
            dropped: 0,
            forced_absorptions: 0,
            arrivals: Vec::new(),
            credit_returns: Vec::new(),
            schedule,
            worklist,
            requests: SwitchRequests::new(2 * n),
            candidate_order: Vec::new(),
            free_vcs: Vec::with_capacity(v),
            observer,
            #[cfg(test)]
            replayed: 0,
        })
    }

    /// The observer watching this engine.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Ends the simulation, keeping what the observer recorded.
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// The topology being simulated.
    pub fn network(&self) -> &AnyTopology {
        &self.net
    }

    /// The fault set applied to the network.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Messages generated and not yet delivered or dropped: queued or
    /// travelling.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Messages absorbed by the stall watchdog (should stay 0).
    pub fn forced_absorptions(&self) -> u64 {
        self.forced_absorptions
    }

    /// Messages dropped for lack of any fault-free path (should stay 0).
    pub fn dropped_messages(&self) -> u64 {
        self.dropped
    }

    /// Peak number of messages held at once, as table entries or
    /// source-queue records ([`RunOutcome::message_table_peak`]).
    pub fn message_table_peak(&self) -> usize {
        self.held_peak
    }

    /// The current metrics report.
    pub fn report(&self) -> SimulationReport {
        self.collector.report(self.cycle, self.in_flight)
    }

    /// Runs the simulation until its stop condition (or `max_cycles`) and
    /// returns the outcome.
    pub fn run(&mut self) -> RunOutcome {
        let mut hit_max_cycles = false;
        loop {
            if self.stop_condition_met() {
                break;
            }
            if self.cycle >= self.config.max_cycles {
                hit_max_cycles = true;
                break;
            }
            self.step();
        }
        RunOutcome {
            report: self.report(),
            hit_max_cycles,
            forced_absorptions: self.forced_absorptions,
            dropped_messages: self.dropped,
            message_table_peak: self.held_peak as u64,
        }
    }

    fn stop_condition_met(&self) -> bool {
        match self.config.stop {
            StopCondition::MeasuredMessages(n) => self.collector.delivered_measured() >= n,
            StopCondition::Cycles(c) => self.cycle >= c,
        }
    }

    /// Advances the simulation by one cycle.
    pub fn step(&mut self) {
        let now = self.cycle;
        self.observer.begin_stage(now, Stage::Generate);
        self.generate_traffic(now);
        self.observer.begin_stage(now, Stage::Inject);
        self.assign_injection_vcs(now);
        self.observer.begin_stage(now, Stage::Walk);
        // One snapshot of the busy routers serves the rest of the cycle.
        // Routing fills or drains no buffer, switching drains only the router
        // it visits and arrivals wait until every router has been visited, so
        // no router's occupancy changes before its own visit; the watchdog,
        // which runs after this cycle's arrivals, only misses routers whose
        // input buffers were all empty when the snapshot was taken. Every
        // slot occupied there now received its first flit this cycle —
        // `last_progress == now`, a deadline no earlier than the scan's own
        // default.
        let mut busy = std::mem::take(&mut self.worklist);
        self.schedule.busy(&mut busy);
        // Stages 3 and 4, one router at a time (see the module docs).
        for &idx in &busy {
            self.route_and_allocate(now, idx);
            self.switch_and_traverse(now, idx);
        }
        self.observer.begin_stage(now, Stage::ArrivalsCredits);
        self.apply_arrivals(now);
        self.apply_credit_returns();
        self.observer.begin_stage(now, Stage::Watchdog);
        if self.config.stall_absorb_threshold > 0 && self.schedule.watchdog_due(now) {
            self.stall_watchdog(now, &busy);
        }
        self.worklist = busy;
        self.observer.end_of_cycle(
            now,
            &self.net,
            &self.faults,
            &self.routers,
            &self.messages,
            self.in_flight,
        );
        self.cycle = now + 1;
    }

    // ---------------------------------------------------------------- stages

    /// Stage 1. A generated message costs a source-queue record; only
    /// generation adds to what the engine holds, so the held peak is taken
    /// here.
    fn generate_traffic(&mut self, now: u64) {
        let Engine {
            net,
            faults,
            routers,
            messages,
            sources,
            collector,
            rng,
            in_flight,
            queued,
            held_peak,
            schedule,
            worklist,
            ..
        } = self;
        schedule.due_sources(now, worklist);
        for &idx in worklist.iter() {
            let router = &mut routers[idx];
            debug_assert!(!router.is_faulty, "faulty nodes are never scheduled");
            let source = &mut sources[idx];
            let mut queued_any = false;
            for gen in source.generate(net, faults, now, rng) {
                debug_assert_eq!(gen.src, router.node, "sources are indexed by node");
                let measured = collector.on_generated(now);
                router.source_queue.push_back(QueuedMessage {
                    dest: gen.dest,
                    generated_at: stamp(now),
                    measured,
                });
                *in_flight += 1;
                *queued += 1;
                queued_any = true;
            }
            if queued_any {
                schedule.note_queued(idx);
            }
            if let Some(next_due) = source.next_due_cycle() {
                schedule.note_next_arrival(idx, next_due.max(now + 1));
            }
        }
        *held_peak = (*held_peak).max(messages.held() + *queued);
    }

    /// Stage 2. A source-queue record taken here gets its header (built by
    /// the pure `make_header`), its identifier and its table entry.
    fn assign_injection_vcs(&mut self, now: u64) {
        let Engine {
            net,
            algo,
            config,
            routers,
            messages,
            queued,
            schedule,
            worklist,
            ..
        } = self;
        let length = config.traffic.length;
        schedule.injecting(worklist);
        for &idx in worklist.iter() {
            let router = &mut routers[idx];
            for slot in router.injection_slots() {
                if !router.inputs[slot].is_idle() {
                    continue;
                }
                // Re-injected (absorbed) messages have priority over new ones.
                let msg_id = match router.reinjection_queue.front().copied() {
                    Some(entry) if entry.ready_at <= now => {
                        router.reinjection_queue.pop_front();
                        entry.msg
                    }
                    _ => {
                        let Some(record) = router.source_queue.pop_front() else {
                            break;
                        };
                        *queued -= 1;
                        let header = algo.make_header(net, router.node, record.dest);
                        let generated_at = u64::from(record.generated_at);
                        messages.insert_with(|id| {
                            MessageState::new(id, header, length, generated_at, record.measured)
                        })
                    }
                };
                let msg = &mut messages[msg_id];
                msg.header.reset_for_injection();
                msg.note_injected(now);
                router.inputs[slot].last_progress = stamp(now);
                if router.push_flits(slot, WormRun::whole(msg_id, msg.length)) {
                    schedule.note_router_occupied(idx);
                }
            }
            if router.source_queue.is_empty() && router.reinjection_queue.is_empty() {
                schedule.note_queues_empty(idx);
            }
        }
    }

    /// Stage 3 at router `idx`: every waiting head, in ascending slot order.
    ///
    /// Every kept decision failed after the router's last release (see
    /// [`crate::router`]). While the router has released no output VC since
    /// its last pass, a kept head's retry must fail again. An attempt that finds no VC asks
    /// `available` only of VCs it leaves untouched and `choose` only of empty
    /// lists, which draw nothing, so the shuffle's draws are all anyone could
    /// observe of it: the retry replays them over its candidate count and is
    /// neither re-routed nor permuted (debug builds still re-route it and
    /// check that no candidate VC is claimable). The walk finds a kept head's
    /// entry in the dense store with a cursor, `rank`: the number of entries
    /// of the slots it has passed.
    fn route_and_allocate(&mut self, now: u64, idx: usize) {
        let router = &self.routers[idx];
        let must_fail = !router.released();
        let mut rank = 0;
        for w in 0..self.routers[idx].occupancy_words() {
            for slot in self.routers[idx].waiting_slots_in(w) {
                let keeps = self.routers[idx].is_kept(slot);
                if keeps && must_fail {
                    #[cfg(debug_assertions)]
                    self.check_kept(idx, slot, rank, true);
                    let len = self.routers[idx].kept_decisions()[rank].candidates.len();
                    shuffle_draws(len, &mut self.rng);
                    #[cfg(test)]
                    {
                        self.replayed += 1;
                    }
                    rank += 1;
                    continue;
                }
                if let Some(msg_id) = self.routers[idx].inputs[slot].waiting_head() {
                    self.route_head(now, idx, slot, msg_id, keeps.then_some(rank));
                }
                rank += usize::from(self.routers[idx].is_kept(slot));
            }
        }
        self.routers[idx].end_routing_pass();
    }

    /// Debug builds' audit of kept decision `rank` of router `idx`, whose
    /// head waits in input slot `slot`. `route()` must still return the kept
    /// candidates: it is a pure function of (header, node, fault set), the
    /// header of a blocked head does not change and the fault set is frozen
    /// for the run. Runtime fault schedules (ROADMAP item 2) are the event
    /// that must drop every kept decision. And when the retry is skipped as
    /// `must_fail`, no candidate VC may be claimable: a release the flag
    /// missed would let the skipped attempt win.
    #[cfg(debug_assertions)]
    fn check_kept(&mut self, idx: usize, slot: usize, rank: usize, must_fail: bool) {
        let v = self.config.virtual_channels;
        let depth = self.config.buffer_depth;
        let router = &self.routers[idx];
        let node = router.node;
        let msg_id = router.inputs[slot]
            .waiting_head()
            .expect("a kept decision's slot holds a waiting head (the sanitizer's stale-decision)");
        let kept = &router.kept_decisions()[rank].candidates;
        let header = &mut self.messages[msg_id].header;
        let fresh = self.algo.route(&self.net, &self.faults, header, node, v);
        assert!(
            matches!(&fresh, RouteDecision::Forward(c) if c == kept),
            "route() is not pure: blocked head {msg_id:?} at {node:?} kept {kept:?}, now \
             routes {fresh:?}"
        );
        if must_fail {
            assert!(
                kept.iter().all(|cand| {
                    let out_port = RouterState::out_port(cand.dim(), cand.dir());
                    cand.vcs()
                        .range()
                        .all(|ovc| !router.outputs[out_port * v + ovc].claimable(depth))
                }),
                "no output VC released since the last routing pass, yet a candidate VC \
                 of blocked head \
                 {msg_id:?} at {node:?} is claimable"
            );
        }
    }

    /// Routing computation and VC allocation for message `msg_id`, whose
    /// unrouted head flit is at the front of input slot `slot` of router
    /// `idx`. `kept` is the position of the head's kept decision in the
    /// router's store, if it keeps one: a retry after a release.
    fn route_head(
        &mut self,
        now: u64,
        idx: usize,
        slot: usize,
        msg_id: MessageId,
        kept: Option<usize>,
    ) {
        #[cfg(debug_assertions)]
        if let Some(rank) = kept {
            self.check_kept(idx, slot, rank, false);
        }
        let v = self.config.virtual_channels;
        let depth = self.config.buffer_depth;
        let router = &mut self.routers[idx];
        let node = router.node;
        let ready_at = now + self.config.router_delay as u64;
        // The paper's assumption (e): pick randomly among the available VCs
        // of the profitable physical channels; escape channels are only
        // considered when no adaptive candidate has a free VC. The RNG
        // sequence is observable, so a kept decision is shuffled and drawn
        // from exactly like a fresh one: Fisher–Yates over the original
        // candidate order (as an index permutation), escapes stably sorted
        // last, `available` — whose lazy release is a side effect — asked of
        // the same VCs in the same order, one `choose` over the free ones.
        let order = &mut self.candidate_order;
        let (cand, out_vc) = if let Some(index) = kept {
            let (kept, outputs) = router.kept_and_outputs(index);
            shuffle_candidates(order, kept.candidates.len(), &mut self.rng);
            let Some(granted) = allocate(
                &kept.candidates,
                order,
                &mut self.free_vcs,
                outputs,
                msg_id,
                (v, depth),
                &mut self.rng,
            ) else {
                // The retry failed again: its entry stays, and it failed
                // after the router's last release.
                return;
            };
            granted
        } else {
            let header = &mut self.messages[msg_id].header;
            let candidates = match self.algo.route(&self.net, &self.faults, header, node, v) {
                RouteDecision::Forward(candidates) => candidates,
                RouteDecision::Deliver => {
                    router.bind(slot, VcRoute::new(msg_id, RouteTarget::Deliver, ready_at));
                    return;
                }
                RouteDecision::Absorb => {
                    router.bind(slot, VcRoute::new(msg_id, RouteTarget::Absorb, ready_at));
                    return;
                }
            };
            debug_assert!(
                candidates.iter().all(|cand| {
                    let out_port = RouterState::out_port(cand.dim(), cand.dir());
                    router.downstream(out_port).is_some()
                }),
                "routing candidate targets an absent mesh-edge port"
            );
            shuffle_candidates(order, candidates.len(), &mut self.rng);
            let Some(granted) = allocate(
                &candidates,
                order,
                &mut self.free_vcs,
                &mut router.outputs,
                msg_id,
                (v, depth),
                &mut self.rng,
            ) else {
                router.keep(slot, KeptDecision { candidates });
                return;
            };
            granted
        };
        let out_port = RouterState::out_port(cand.dim(), cand.dir());
        let target = RouteTarget::network(out_port, out_vc);
        router.bind(slot, VcRoute::new(msg_id, target, ready_at));
        let event = Allocation {
            cycle: now,
            msg: msg_id,
            node,
            dim: cand.dim(),
            dir: cand.dir(),
            vc: out_vc,
            is_escape: cand.is_escape(),
        };
        self.observer.on_allocate(&self.net, &event);
    }

    /// Stage 4 at router `idx`. Its moves become visible downstream only
    /// when the cycle's arrivals and credits are applied.
    fn switch_and_traverse(&mut self, now: u64, idx: usize) {
        // One pass over the router's routed input VCs (occupied, head not
        // waiting), in ascending slot order: local sinks drain (unbounded
        // bandwidth), network-bound VCs that could move a flit post a
        // request for their output port, which settles the port's winner
        // against its pointer. An input VC is bound to one output port and a
        // traversal touches only its own VC pair, so the winners are what a
        // probe per port would have found. A sink empties at most its own
        // slot, which the walk has passed, and moves no pointer.
        self.requests.clear();
        for w in 0..self.routers[idx].occupancy_words() {
            for slot in self.routers[idx].routed_slots_in(w) {
                let router = &self.routers[idx];
                let ivc = &router.inputs[slot];
                let Some(route) = ivc.route else {
                    continue;
                };
                if u64::from(route.ready_at) > now || ivc.buffer.is_empty() {
                    continue;
                }
                match route.target.output() {
                    Some((out_port, out_vc)) => {
                        if router.outputs[router.slot(out_port, out_vc)].credits() > 0 {
                            let pointer = router.pointer(out_port);
                            self.requests.request(out_port, slot, pointer);
                        }
                    }
                    None => self.sink_local_flit(now, idx, slot, route.target),
                }
            }
        }
        // Requested network output ports, ascending: one flit per physical
        // channel per cycle.
        for w in 0..self.requests.port_words() {
            for out_port in self.requests.requested_ports_in(w) {
                let slot = self.requests.winner(out_port);
                self.traverse(now, idx, slot);
            }
        }
    }

    /// Drains the front flit of input slot `slot` of router `idx` into the
    /// local node; the tail flit completes the delivery or absorption.
    fn sink_local_flit(&mut self, now: u64, idx: usize, slot: usize, target: RouteTarget) {
        let router = &mut self.routers[idx];
        let node = router.node;
        if let Some(upstream) = router.upstream_of_slot(slot) {
            self.credit_returns.push((upstream, slot));
        }
        let (flit, emptied) = router
            .pop_flit(slot)
            .expect("the request pass sinks only a slot whose buffer it saw non-empty");
        if emptied {
            self.schedule.note_router_empty(idx);
        }
        let ivc = &mut router.inputs[slot];
        ivc.last_progress = stamp(now);
        if !flit.kind.is_tail() {
            ivc.sunk += 1;
            return;
        }
        // A worm's flits are consecutive on one input VC, so the tail means
        // the whole message has arrived locally.
        ivc.sunk = 0;
        router.unbind(slot);
        // Delivery, absorption and drop all release every channel the worm
        // held.
        self.observer.on_release(flit.msg);
        let msg = &mut self.messages[flit.msg];
        match target {
            RouteTarget::Deliver => {
                // Fold-on-retire: fold the metrics into the collector, then
                // let the table reclaim the entry.
                msg.note_delivered(now);
                self.collector.on_delivered(
                    msg.generated_at,
                    msg.first_injected_at.unwrap_or(msg.generated_at),
                    now,
                    msg.length,
                    msg.header.hops,
                    msg.measured,
                );
                self.messages.retire(flit.msg);
                self.in_flight -= 1;
            }
            RouteTarget::Absorb => {
                self.collector.on_absorbed(msg.measured);
                let blocked = self
                    .algo
                    .deterministic_output(&self.net, &msg.header, node)
                    .unwrap_or((0, Direction::Plus));
                let rerouted = self.algo.reroute_on_fault(
                    &self.net,
                    &self.faults,
                    &mut msg.header,
                    node,
                    blocked,
                );
                if rerouted {
                    msg.phase = MessagePhase::Queued;
                    router.reinjection_queue.push_back(ReinjectionEntry {
                        msg: flit.msg,
                        ready_at: now + self.config.reinjection_delay as u64,
                    });
                    self.collector
                        .on_reinjection_queue_depth(router.reinjection_queue.len());
                    self.schedule.note_queued(idx);
                } else {
                    msg.note_dropped();
                    self.messages.retire(flit.msg);
                    self.dropped += 1;
                    self.in_flight -= 1;
                }
            }
            RouteTarget::Network { .. } => {
                unreachable!("the request pass sinks only Deliver and Absorb targets")
            }
        }
    }

    /// Moves the front flit of input slot `slot` of router `idx`, the
    /// switch-allocation winner of its output port, across the link.
    fn traverse(&mut self, now: u64, idx: usize, slot: usize) {
        let router = &mut self.routers[idx];
        let node = router.node;
        if let Some(upstream) = router.upstream_of_slot(slot) {
            self.credit_returns.push((upstream, slot));
        }
        let route = router.inputs[slot]
            .route
            .expect("a switch winner posted its request from a routed slot this cycle");
        let Some((out_port, out_vc)) = route.target.output() else {
            unreachable!("only network-bound VCs post requests")
        };
        let out_slot = router.slot(out_port, out_vc);
        let (flit, emptied) = router
            .pop_flit(slot)
            .expect("a switch winner posted its request with a non-empty buffer this cycle");
        if emptied {
            self.schedule.note_router_empty(idx);
        }
        router.inputs[slot].last_progress = stamp(now);
        if flit.kind.is_tail() {
            router.unbind(slot);
        }
        router.outputs[out_slot].send(flit.kind.is_tail());
        router.advance_pointer(out_port, slot);
        if flit.kind.is_head() {
            let (dim, dir) = RouterState::port_dim_dir(out_port);
            let header = &mut self.messages[flit.msg].header;
            self.algo.note_hop(&self.net, header, node, dim, dir);
        }
        let downstream = router.downstream(out_port).expect(
            "a VC is granted only on a routing candidate's port, and routing names only \
             ports whose channel exists",
        );
        self.arrivals.push((downstream, out_slot, flit));
    }

    fn apply_arrivals(&mut self, now: u64) {
        let Engine {
            routers,
            arrivals,
            config,
            schedule,
            ..
        } = self;
        for (node_idx, slot, flit) in arrivals.drain(..) {
            let router = &mut routers[node_idx];
            let ivc = &mut router.inputs[slot];
            debug_assert!(
                ivc.buffer.len() < config.buffer_depth,
                "flit arrived at a full buffer (credit accounting violated)"
            );
            if ivc.buffer.is_empty() {
                ivc.last_progress = stamp(now);
            }
            if router.push_flits(slot, flit.into()) {
                schedule.note_router_occupied(node_idx);
            }
        }
    }

    fn apply_credit_returns(&mut self) {
        let Engine {
            routers,
            credit_returns,
            config,
            ..
        } = self;
        for (node_idx, slot) in credit_returns.drain(..) {
            routers[node_idx].return_credit(slot, config.buffer_depth);
        }
    }

    /// Safety valve: a head flit that could not obtain an output VC for an
    /// extremely long time is handed to the software layer exactly as if it
    /// had hit a fault. Never triggers with the deadlock-free algorithms in
    /// this repository (asserted by the integration tests).
    ///
    /// A scan absorbs every stalled head flit whose deadline
    /// (`last_progress + threshold`) has expired and reports the earliest
    /// cycle another one can expire at, so a scheduler may skip the cycles in
    /// between: deadlines created after a scan (every progress event
    /// refreshes `last_progress`) are at least `now + threshold`.
    fn stall_watchdog(&mut self, now: u64, busy: &[usize]) {
        let threshold = self.config.stall_absorb_threshold;
        let mut next_expiry = now + threshold;
        for &idx in busy {
            let router = &mut self.routers[idx];
            for w in 0..router.occupancy_words() {
                for slot in router.waiting_slots_in(w) {
                    let ivc = &router.inputs[slot];
                    let Some(msg) = ivc.waiting_head() else {
                        continue;
                    };
                    let deadline = u64::from(ivc.last_progress) + threshold;
                    if deadline > now {
                        next_expiry = next_expiry.min(deadline);
                        continue;
                    }
                    // The forced absorption overrides any routing decision
                    // the head was waiting on: binding drops it.
                    router.bind(slot, VcRoute::new(msg, RouteTarget::Absorb, now));
                    self.forced_absorptions += 1;
                }
            }
        }
        self.schedule.note_watchdog_scan(now, next_expiry);
    }
}

/// Shuffles the candidate indices `0..len` into `order`: the draws every
/// allocation attempt, fresh or kept, makes first.
fn shuffle_candidates(order: &mut Vec<usize>, len: usize, rng: &mut StdRng) {
    order.clear();
    order.extend(0..len);
    order.shuffle(rng);
}

/// Makes the draws [`shuffle_candidates`] makes for `len` candidates, and no
/// permutation: `SliceRandom::shuffle`'s Fisher–Yates calls
/// `gen_range(0..=i)` once for each `i` from `len - 1` down to 1.
#[inline]
fn shuffle_draws(len: usize, rng: &mut StdRng) {
    for i in (1..len).rev() {
        let _: usize = rng.gen_range(0..=i);
    }
}

/// VC allocation over `candidates` in the shuffled `order`, escapes stably
/// sorted last: the first candidate with a free VC (among `outputs`, `V` per
/// port, of buffers `depth` deep) has `msg` claim a random one of them.
/// Returns that candidate and VC, or `None` when no candidate has a free VC.
fn allocate(
    candidates: &Candidates,
    order: &mut [usize],
    free: &mut Vec<usize>,
    outputs: &mut [OutputVc],
    msg: MessageId,
    (v, depth): (usize, usize),
    rng: &mut StdRng,
) -> Option<(OutputCandidate, usize)> {
    order.sort_by_key(|&c| candidates[c].is_escape());
    for &c in order.iter() {
        let cand = candidates[c];
        let out_port = RouterState::out_port(cand.dim(), cand.dir());
        let port_vcs = &mut outputs[out_port * v..][..v];
        free.clear();
        free.extend(
            cand.vcs()
                .range()
                .filter(|&ovc| port_vcs[ovc].available(depth)),
        );
        let Some(&out_vc) = free.choose(rng) else {
            continue;
        };
        port_vcs[out_vc].claim(msg);
        return Some((cand, out_vc));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use torus_faults::{random_node_faults, FaultScenario};
    use torus_routing::{AnyRouting, Substrate};
    use torus_workloads::TrafficSpec;

    fn quick_config(radix: u16, dims: u32, v: usize, m: u32, rate: f64) -> SimConfig {
        let mut c = SimConfig::paper(radix, dims, v, m, rate);
        c.warmup_messages = 200;
        c.stop = StopCondition::MeasuredMessages(1_500);
        c.max_cycles = 120_000;
        c
    }

    #[test]
    fn fault_free_deterministic_delivers_everything() {
        let config = quick_config(4, 2, 4, 8, 0.01);
        let mut sim = Simulation::new(
            config,
            FaultSet::new(),
            AnyRouting::deterministic(Substrate::DimensionOrder),
        )
        .unwrap();
        let out = sim.run();
        assert!(
            !out.hit_max_cycles,
            "network should not saturate at this load"
        );
        assert_eq!(out.forced_absorptions, 0);
        assert_eq!(out.dropped_messages, 0);
        assert_eq!(out.report.messages_queued, 0, "no faults, no absorptions");
        assert!(out.report.measured_messages >= 1_500);
        // Latency must be at least message length (serialisation) and below
        // an order-of-magnitude bound for this small, lightly loaded network.
        assert!(out.report.mean_latency >= 8.0);
        assert!(
            out.report.mean_latency < 80.0,
            "{}",
            out.report.mean_latency
        );
        // Mean hops should approximate the analytic average distance.
        let avg = sim.network().average_distance();
        assert!((out.report.mean_hops - avg).abs() < 0.6);
    }

    #[test]
    fn fault_free_adaptive_delivers_everything() {
        let config = quick_config(4, 2, 4, 8, 0.01);
        let mut sim = Simulation::new(
            config,
            FaultSet::new(),
            AnyRouting::adaptive(Substrate::DimensionOrder),
        )
        .unwrap();
        let out = sim.run();
        assert!(!out.hit_max_cycles);
        assert_eq!(out.report.messages_queued, 0);
        assert_eq!(out.forced_absorptions, 0);
        assert!(out.report.mean_latency >= 8.0);
        assert!(out.report.mean_latency < 80.0);
    }

    #[test]
    fn faulty_network_still_delivers_with_absorptions() {
        let mut config = quick_config(8, 2, 4, 16, 0.004);
        config.stop = StopCondition::MeasuredMessages(1_000);
        let torus = AnyTopology::torus(8, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let faults = random_node_faults(&torus, 5, &mut rng).unwrap();
        let mut sim = Simulation::new(
            config,
            faults,
            AnyRouting::deterministic(Substrate::DimensionOrder),
        )
        .unwrap();
        let out = sim.run();
        assert!(!out.hit_max_cycles);
        assert_eq!(out.dropped_messages, 0);
        assert_eq!(out.forced_absorptions, 0);
        assert!(
            out.report.messages_queued > 0,
            "with 5 faulty nodes some messages must be absorbed"
        );
        assert!(out.report.measured_messages >= 1_000);
    }

    #[test]
    fn adaptive_absorbs_fewer_messages_than_deterministic() {
        let torus = AnyTopology::torus(8, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let faults = random_node_faults(&torus, 5, &mut rng).unwrap();
        let mut config = quick_config(8, 2, 6, 16, 0.004);
        config.stop = StopCondition::MeasuredMessages(1_000);

        let det = Simulation::new(
            config.clone(),
            faults.clone(),
            AnyRouting::deterministic(Substrate::DimensionOrder),
        )
        .unwrap()
        .run();
        let ada = Simulation::new(
            config,
            faults,
            AnyRouting::adaptive(Substrate::DimensionOrder),
        )
        .unwrap()
        .run();
        assert!(det.report.messages_queued > 0);
        assert!(
            ada.report.messages_queued < det.report.messages_queued,
            "adaptive ({}) should absorb fewer messages than deterministic ({})",
            ada.report.messages_queued,
            det.report.messages_queued
        );
    }

    #[test]
    fn same_seed_reproduces_identical_results() {
        let config = quick_config(4, 2, 4, 8, 0.01);
        let run = |seed: u64| {
            let mut c = config.clone();
            c.seed = seed;
            Simulation::new(
                c,
                FaultSet::new(),
                AnyRouting::adaptive(Substrate::DimensionOrder),
            )
            .unwrap()
            .run()
            .report
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a, b);
        let c = run(12);
        assert_ne!(a.mean_latency, c.mean_latency);
    }

    #[test]
    fn message_table_is_reclaimed() {
        // A long fixed-cycle run delivers thousands of messages; with the
        // reclaiming slab the peak table occupancy must track the in-flight
        // population, not the delivered total.
        let mut config = quick_config(4, 2, 4, 8, 0.02);
        config.stop = StopCondition::Cycles(60_000);
        config.max_cycles = 60_000;
        let mut sim = Simulation::new(
            config,
            FaultSet::new(),
            AnyRouting::deterministic(Substrate::DimensionOrder),
        )
        .unwrap();
        let out = sim.run();
        assert!(
            out.report.generated_messages > 5_000,
            "generated {}",
            out.report.generated_messages
        );
        assert!(
            out.message_table_peak < out.report.generated_messages / 10,
            "peak {} should be far below the generated total {}",
            out.message_table_peak,
            out.report.generated_messages
        );
        assert_eq!(out.message_table_peak, sim.message_table_peak() as u64);
        let table = &sim.messages;
        assert!(table.capacity() <= table.peak_live());
        assert_eq!(table.live() as u64 + sim.queued as u64, sim.in_flight());
        assert_eq!(table.iter_live().count(), table.live());
    }

    #[test]
    fn the_table_holds_only_injected_messages() {
        // The saturated adaptive pin's configuration: source queues grow for
        // the whole run, yet a table entry exists only for a message with a
        // flit in an input buffer (one worm per slot) or an entry in a
        // re-injection queue. Everything else is a source-queue record.
        let mut config = quick_config(4, 2, 4, 8, 0.2);
        config.seed = 17;
        config.warmup_messages = 100;
        config.stop = StopCondition::Cycles(4_000);
        config.max_cycles = 4_000;
        let algo = AnyRouting::adaptive(Substrate::DimensionOrder);
        let mut sim = Simulation::new(config, FaultSet::new(), algo).unwrap();
        let (mut peak_live, mut peak_in_flight) = (0, 0);
        while sim.cycle() < 4_000 {
            sim.step();
            let live = sim.messages.live();
            let slots: usize = sim
                .routers
                .iter()
                .map(|r| r.inputs.len() + r.reinjection_queue.len())
                .sum();
            let records: usize = sim.routers.iter().map(|r| r.source_queue.len()).sum();
            assert!(live <= slots, "cycle {}: {live} entries", sim.cycle());
            assert_eq!(records, sim.queued);
            assert_eq!((live + records) as u64, sim.in_flight());
            peak_live = peak_live.max(live);
            peak_in_flight = peak_in_flight.max(sim.in_flight());
        }
        // The slab adds a slot only when every slot holds a live entry.
        assert!(sim.messages.capacity() <= sim.messages.peak_live());
        // The reported peak still counts the records.
        assert_eq!(sim.message_table_peak() as u64, peak_in_flight);
        assert!(
            peak_in_flight > 10 * peak_live as u64,
            "{peak_in_flight} in flight, {peak_live} entries"
        );
    }

    #[test]
    fn region_fault_scenario_runs() {
        let torus = AnyTopology::torus(8, 2).unwrap();
        let scenario = FaultScenario::centered_region(
            torus.grid().unwrap(),
            torus_faults::RegionShape::paper_u_8(),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let faults = scenario.realize(&torus, &mut rng).unwrap();
        let mut config = quick_config(8, 2, 4, 16, 0.003);
        config.stop = StopCondition::MeasuredMessages(600);
        let mut sim = Simulation::new(
            config,
            faults,
            AnyRouting::adaptive(Substrate::DimensionOrder),
        )
        .unwrap();
        let out = sim.run();
        assert!(!out.hit_max_cycles);
        assert_eq!(out.dropped_messages, 0);
        assert!(out.report.mean_latency > 0.0);
    }

    #[test]
    fn saturated_network_hits_cycle_cap_gracefully() {
        // An absurdly high injection rate saturates the network; the run must
        // terminate at max_cycles and still produce a coherent report.
        let mut config = quick_config(4, 2, 4, 8, 0.9);
        config.max_cycles = 3_000;
        config.stop = StopCondition::MeasuredMessages(u64::MAX);
        let mut sim = Simulation::new(
            config,
            FaultSet::new(),
            AnyRouting::deterministic(Substrate::DimensionOrder),
        )
        .unwrap();
        let out = sim.run();
        assert!(out.hit_max_cycles);
        assert!(out.report.delivered_messages > 0);
        assert!(out.report.generated_messages > out.report.delivered_messages);
    }

    /// A routing algorithm that breaks the purity contract: every other call
    /// hands its candidates back in reverse order.
    #[cfg(debug_assertions)]
    struct Fickle(AnyRouting, std::cell::Cell<bool>);

    #[cfg(debug_assertions)]
    impl RoutingAlgorithm for Fickle {
        fn flavor(&self) -> torus_routing::RoutingFlavor {
            self.0.flavor()
        }
        fn min_virtual_channels(&self, net: &AnyTopology) -> usize {
            self.0.min_virtual_channels(net)
        }
        fn make_header(
            &self,
            net: &AnyTopology,
            src: torus_topology::NodeId,
            dest: torus_topology::NodeId,
        ) -> torus_routing::RouteHeader {
            self.0.make_header(net, src, dest)
        }
        fn route(
            &self,
            net: &AnyTopology,
            faults: &FaultSet,
            header: &mut torus_routing::RouteHeader,
            current: torus_topology::NodeId,
            v: usize,
        ) -> RouteDecision {
            self.1.set(!self.1.get());
            match self.0.route(net, faults, header, current, v) {
                RouteDecision::Forward(mut candidates) if self.1.get() => {
                    candidates.reverse();
                    RouteDecision::Forward(candidates)
                }
                decision => decision,
            }
        }
        fn note_hop(
            &self,
            net: &AnyTopology,
            header: &mut torus_routing::RouteHeader,
            from: torus_topology::NodeId,
            dim: usize,
            dir: Direction,
        ) {
            self.0.note_hop(net, header, from, dim, dir);
        }
        fn reroute_on_fault(
            &self,
            net: &AnyTopology,
            faults: &FaultSet,
            header: &mut torus_routing::RouteHeader,
            at: torus_topology::NodeId,
            blocked: (usize, Direction),
        ) -> bool {
            self.0.reroute_on_fault(net, faults, header, at, blocked)
        }
        fn name(&self) -> String {
            "fickle".into()
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "route() is not pure")]
    fn debug_builds_catch_an_impure_routing_function() {
        let mut config = quick_config(4, 2, 4, 8, 0.9);
        config.max_cycles = 2_000;
        config.stop = StopCondition::MeasuredMessages(u64::MAX);
        let algo = Fickle(
            AnyRouting::adaptive(Substrate::DimensionOrder),
            std::cell::Cell::new(false),
        );
        Simulation::new(config, FaultSet::new(), algo)
            .unwrap()
            .run();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "yet a candidate VC of blocked head")]
    fn debug_builds_catch_a_release_the_epoch_missed() {
        // Saturate a 4x2 torus until some router's waiting heads all keep a
        // decision and it has released no output VC since its last routing
        // pass. Make a candidate VC of the first one claimable without
        // setting the release flag, then step: that head is the router's
        // first to retry, and the skipped attempt could now win.
        let mut config = quick_config(4, 2, 4, 8, 0.9);
        config.max_cycles = 2_000;
        config.stop = StopCondition::MeasuredMessages(u64::MAX);
        let algo = AnyRouting::adaptive(Substrate::DimensionOrder);
        let mut sim = Simulation::new(config, FaultSet::new(), algo).unwrap();
        for _ in 0..2_000 {
            sim.step();
            let released = sim.routers.iter_mut().any(|router| {
                if router.released() {
                    return false;
                }
                let mut waiting = (0..router.inputs.len())
                    .filter(|&slot| router.inputs[slot].waiting_head().is_some())
                    .map(|slot| router.kept(slot));
                let Some(first) = waiting.clone().next() else {
                    return false;
                };
                if !waiting.all(|kept| kept.is_some()) {
                    return false;
                }
                let cand = first.unwrap().candidates[0];
                let out_port = RouterState::out_port(cand.dim(), cand.dir());
                let out_slot = router.slot(out_port, cand.vcs().range().start);
                router.outputs[out_slot].release();
                true
            });
            if released {
                sim.step();
                return;
            }
        }
    }

    #[test]
    fn the_kept_store_holds_exactly_the_blocked_heads() {
        // The saturated adaptive pin's configuration, where most heads stay
        // blocked. After every cycle a waiting head keeps a decision iff this
        // cycle's routing saw it fail: it was there before routing ran.
        // Injected heads are routed the cycle they enter, heads that crossed
        // a link (stamped this cycle) only from the next one.
        let mut config = quick_config(4, 2, 4, 8, 0.2);
        config.seed = 17;
        config.warmup_messages = 100;
        config.stop = StopCondition::Cycles(4_000);
        config.max_cycles = 4_000;
        let algo = AnyRouting::adaptive(Substrate::DimensionOrder);
        let mut sim = Simulation::new(config, FaultSet::new(), algo).unwrap();
        let mut blocked = 0;
        while sim.cycle() < 4_000 {
            let now = sim.cycle();
            sim.step();
            for router in &sim.routers {
                let words = 0..router.occupancy_words();
                let routed_here = |slot: &usize| {
                    router.injection_slots().contains(slot)
                        || u64::from(router.inputs[*slot].last_progress) < now
                };
                let waiting: Vec<usize> = words
                    .clone()
                    .flat_map(|w| router.waiting_slots_in(w))
                    .filter(routed_here)
                    .collect();
                let kept: Vec<usize> = words.flat_map(|w| router.kept_slots_in(w)).collect();
                assert_eq!(kept, waiting, "cycle {now}, router {:?}", router.node);
                assert_eq!(router.kept_decisions().len(), kept.len());
                blocked += kept.len();
            }
        }
        assert!(blocked > 10_000, "only {blocked} blocked head-cycles");
    }

    #[test]
    fn shuffle_draws_leave_the_rng_where_a_shuffle_does() {
        // A must-fail retry replays its shuffle's draws without permuting:
        // the generator must end where `SliceRandom::shuffle` leaves it, or
        // every later draw of the run moves.
        for seed in 0..64 {
            for len in 0..=8 {
                let mut shuffled = StdRng::seed_from_u64(seed);
                let mut replayed = shuffled.clone();
                shuffle_candidates(&mut Vec::new(), len, &mut shuffled);
                shuffle_draws(len, &mut replayed);
                let next = |rng: &mut StdRng| [rng.next_u64(), rng.next_u64()];
                assert_eq!(
                    next(&mut shuffled),
                    next(&mut replayed),
                    "seed {seed}, {len} candidates"
                );
            }
        }
    }

    #[test]
    fn kept_heads_at_a_router_that_released_nothing_only_replay_their_draws() {
        // The saturated adaptive pin's configuration. Before each cycle, a
        // kept head at a router that has released no output VC since its
        // last routing pass must fail again; every such head, and no other,
        // takes the replay path, and past the knee most retries are of this
        // kind.
        let mut config = quick_config(4, 2, 4, 8, 0.2);
        config.seed = 17;
        config.warmup_messages = 100;
        config.stop = StopCondition::Cycles(4_000);
        config.max_cycles = 4_000;
        let algo = AnyRouting::adaptive(Substrate::DimensionOrder);
        let mut sim = Simulation::new(config, FaultSet::new(), algo).unwrap();
        let (mut must_fail, mut kept) = (0, 0);
        while sim.cycle() < 4_000 {
            for router in &sim.routers {
                let entries = router.kept_decisions().len() as u64;
                kept += entries;
                if !router.released() {
                    must_fail += entries;
                }
            }
            sim.step();
            assert_eq!(sim.replayed, must_fail, "cycle {}", sim.cycle());
        }
        assert!(
            must_fail > kept / 2 && must_fail > 10_000,
            "{must_fail} of {kept} kept-head retries replayed"
        );
    }

    #[test]
    fn higher_load_increases_latency() {
        let low = {
            let mut sim = Simulation::new(
                quick_config(4, 2, 4, 8, 0.005),
                FaultSet::new(),
                AnyRouting::deterministic(Substrate::DimensionOrder),
            )
            .unwrap();
            sim.run().report.mean_latency
        };
        let high = {
            let mut sim = Simulation::new(
                quick_config(4, 2, 4, 8, 0.06),
                FaultSet::new(),
                AnyRouting::deterministic(Substrate::DimensionOrder),
            )
            .unwrap();
            sim.run().report.mean_latency
        };
        assert!(
            high > low,
            "latency at high load ({high}) must exceed latency at low load ({low})"
        );
    }

    #[test]
    fn longer_messages_have_higher_latency() {
        let short = {
            let mut sim = Simulation::new(
                quick_config(4, 2, 4, 8, 0.01),
                FaultSet::new(),
                AnyRouting::deterministic(Substrate::DimensionOrder),
            )
            .unwrap();
            sim.run().report.mean_latency
        };
        let long = {
            let mut sim = Simulation::new(
                quick_config(4, 2, 4, 32, 0.01),
                FaultSet::new(),
                AnyRouting::deterministic(Substrate::DimensionOrder),
            )
            .unwrap();
            sim.run().report.mean_latency
        };
        assert!(long > short + 15.0, "long={long} short={short}");
    }

    #[test]
    fn router_delay_increases_latency() {
        let run = |td: u32| {
            let mut config = quick_config(4, 2, 4, 8, 0.005);
            config.router_delay = td;
            config.stop = StopCondition::MeasuredMessages(600);
            Simulation::new(
                config,
                FaultSet::new(),
                AnyRouting::deterministic(Substrate::DimensionOrder),
            )
            .unwrap()
            .run()
            .report
            .mean_latency
        };
        let fast = run(0);
        let slow = run(3);
        // Each hop pays the extra decision time, so the gap should be at least
        // a couple of cycles per average hop.
        assert!(
            slow > fast + 3.0,
            "Td=3 latency ({slow}) should clearly exceed Td=0 latency ({fast})"
        );
    }

    #[test]
    fn reinjection_delay_penalises_absorbed_messages_only() {
        let torus = AnyTopology::torus(8, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let faults = random_node_faults(&torus, 5, &mut rng).unwrap();
        let run = |delta: u32, faults: FaultSet| {
            let mut config = quick_config(8, 2, 4, 16, 0.003);
            config.reinjection_delay = delta;
            config.stop = StopCondition::MeasuredMessages(800);
            Simulation::new(
                config,
                faults,
                AnyRouting::deterministic(Substrate::DimensionOrder),
            )
            .unwrap()
            .run()
            .report
        };
        // Without faults the knob has no effect at all.
        let clean_zero = run(0, FaultSet::new());
        let clean_big = run(500, FaultSet::new());
        assert_eq!(clean_zero.mean_latency, clean_big.mean_latency);
        // With faults a large delta visibly increases mean latency.
        let faulty_zero = run(0, faults.clone());
        let faulty_big = run(500, faults);
        assert!(faulty_zero.messages_queued > 0);
        assert!(
            faulty_big.mean_latency > faulty_zero.mean_latency,
            "delta=500 latency ({}) should exceed delta=0 latency ({})",
            faulty_big.mean_latency,
            faulty_zero.mean_latency
        );
    }

    #[test]
    fn turn_model_runs_on_meshes_and_is_rejected_on_wrapped_dimensions() {
        use torus_routing::{RoutingTopologyError, TurnRule};
        use torus_topology::TopologySpec;
        // Two VCs (1 escape + 1 adaptive) are enough for the turn model on a
        // mesh — one less than Duato-over-e-cube needs on the torus.
        let mut config = quick_config(8, 2, 2, 16, 0.003);
        config.topology = TopologySpec::mesh(8, 2);
        config.stop = StopCondition::MeasuredMessages(800);
        let mesh = AnyTopology::mesh(8, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let faults = random_node_faults(&mesh, 4, &mut rng).unwrap();
        let mut sim = Simulation::new(
            config.clone(),
            faults,
            AnyRouting::adaptive(Substrate::Turn(TurnRule::NegativeFirst)),
        )
        .expect("turn model is valid on meshes");
        let out = sim.run();
        assert!(!out.hit_max_cycles);
        assert_eq!(out.dropped_messages, 0);
        assert_eq!(out.forced_absorptions, 0);
        assert!(out.report.messages_queued > 0);

        // The same configuration on a torus is rejected with the typed error.
        config.topology = TopologySpec::torus(8, 2);
        let err = Simulation::new(
            config,
            FaultSet::new(),
            AnyRouting::adaptive(Substrate::Turn(TurnRule::NegativeFirst)),
        )
        .err()
        .expect("turn model must be rejected on wrapped dimensions");
        assert!(matches!(
            err,
            SimConfigError::UnsupportedRouting {
                error: RoutingTopologyError::WrappedDimension { dim: 0, .. },
                ..
            }
        ));
        // The rendered message names both the topology spec and the routing.
        let msg = format!("{err}");
        assert!(msg.contains("'torus:8x2'"));
        assert!(msg.contains("Negative-First (adaptive)"));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut config = quick_config(4, 2, 2, 8, 0.01);
        config.virtual_channels = 2;
        assert!(Simulation::new(
            config,
            FaultSet::new(),
            AnyRouting::adaptive(Substrate::DimensionOrder)
        )
        .is_err());
    }

    #[test]
    fn values_past_the_router_widths_are_rejected() {
        use crate::ReferenceSimulation;
        use torus_topology::TopologySpec;
        let base = quick_config(4, 2, 4, 8, 0.01);
        let mut long = base.clone();
        long.max_cycles = u64::from(u32::MAX) + 1;
        let grid = Substrate::DimensionOrder;
        let mut cases = vec![(
            long,
            grid,
            SimConfigError::TooManyCycles {
                requested: u64::from(u32::MAX) + 1,
                maximum: u64::from(u32::MAX),
            },
        )];
        if let Ok(depth) = usize::try_from(u64::from(u32::MAX) + 1) {
            let mut deep = base.clone();
            deep.buffer_depth = depth;
            let error = SimConfigError::BufferTooDeep {
                requested: depth,
                maximum: u32::MAX as usize,
            };
            cases.push((deep, grid, error));
        }
        let mut wide = base;
        wide.topology = TopologySpec::fat_tree(16_384, 1);
        wide.virtual_channels = 2;
        let error = SimConfigError::TooManySlots {
            ports: 32_768,
            vcs: 2,
            maximum: u16::MAX as usize,
        };
        cases.push((wide, Substrate::UpDown, error));
        for (config, substrate, expected) in cases {
            let algo = AnyRouting::adaptive(substrate);
            assert_eq!(
                Simulation::new(config.clone(), FaultSet::new(), algo).err(),
                Some(expected.clone())
            );
            assert_eq!(
                ReferenceSimulation::new(config, FaultSet::new(), algo).err(),
                Some(expected)
            );
        }
    }

    #[test]
    fn zero_length_workload_is_rejected() {
        let config = quick_config(4, 2, 4, 0, 0.01);
        assert_eq!(
            Simulation::new(
                config,
                FaultSet::new(),
                AnyRouting::deterministic(Substrate::DimensionOrder)
            )
            .err(),
            Some(SimConfigError::ZeroMessageLength)
        );
    }

    #[test]
    fn bad_traffic_rate_is_an_error_not_a_panic() {
        use crate::ReferenceSimulation;
        for rate in [f64::NAN, -0.1, f64::INFINITY] {
            let config = quick_config(4, 2, 4, 8, rate);
            let algo = AnyRouting::deterministic(Substrate::DimensionOrder);
            let expected = Some(SimConfigError::InvalidTrafficRate {
                rate: rate.to_string(),
            });
            assert_eq!(
                Simulation::new(config.clone(), FaultSet::new(), algo).err(),
                expected
            );
            assert_eq!(
                ReferenceSimulation::new(config, FaultSet::new(), algo).err(),
                expected
            );
        }
    }

    #[test]
    fn three_dimensional_network_runs() {
        let mut config = quick_config(4, 3, 4, 8, 0.004);
        config.stop = StopCondition::MeasuredMessages(800);
        let torus = AnyTopology::torus(4, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let faults = random_node_faults(&torus, 3, &mut rng).unwrap();
        let mut sim = Simulation::new(
            config,
            faults,
            AnyRouting::deterministic(Substrate::DimensionOrder),
        )
        .unwrap();
        let out = sim.run();
        assert!(!out.hit_max_cycles);
        assert_eq!(out.dropped_messages, 0);
        assert!(out.report.messages_queued > 0);
    }

    #[test]
    fn traffic_spec_rates_are_respected() {
        let spec = TrafficSpec::paper(0.02, 8);
        assert!((spec.rate - 0.02).abs() < 1e-12);
        let mut config = quick_config(4, 2, 4, 8, 0.02);
        config.stop = StopCondition::Cycles(20_000);
        let mut sim = Simulation::new(
            config,
            FaultSet::new(),
            AnyRouting::deterministic(Substrate::DimensionOrder),
        )
        .unwrap();
        let out = sim.run();
        let offered_rate =
            out.report.generated_messages as f64 / (20_000.0 * sim.network().num_nodes() as f64);
        assert!(
            (offered_rate - 0.02).abs() < 0.004,
            "offered {offered_rate}"
        );
    }
}
