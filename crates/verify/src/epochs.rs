//! Epoch-differential verification of dynamic fault schedules.
//!
//! A [`torus_faults::FaultSchedule`] materialises into a sequence of epochs
//! — cumulative fault sets in force from each injection cycle. This module
//! re-proves the two static checks (exact-CDG acyclicity and reachability)
//! at *every* epoch and classifies every (source, destination) pair's fate:
//!
//! * **routable** — the pair delivers without ever touching the software
//!   layer (no absorb/re-inject in its state graph);
//! * **rerouted** — the pair delivers, but some schedule absorbs the message
//!   at a via host and re-injects it (software-layer recovery is on the
//!   path);
//! * **disconnected** — the pair dead-ends. When the healthy subnetwork no
//!   longer connects the pair this is a legitimate fate (the oracle the
//!   future runtime drop semantics will consume); when the graph *does*
//!   still connect the pair, it is a routing failure and the epoch fails.
//!
//! Epoch 0 is walked in full. Every later epoch is verified
//! *differentially*: the walk of an unaffected pair cannot change, so its
//! CDG fragment and fate are reused, and only affected pairs are re-walked.
//! A pair is affected when
//!
//! * its walk contains a re-injection — `reroute_on_fault` may install an
//!   explicit path computed by a *global* shortest-path query over the
//!   healthy graph, so any new fault anywhere can change the walk; or
//! * a newly failed node is one of the walk's visited nodes or their
//!   neighbours (routing queries are otherwise local: an algorithm at node
//!   `x` only inspects the fault state of `x`'s own output channels and
//!   neighbours); or
//! * a newly failed link has a visited endpoint.
//!
//! Pairs whose endpoints fail are removed from the universe (fault sets only
//! grow, so the pair universe shrinks monotonically). The per-epoch reports
//! record pairs re-walked vs reused, so the differential speedup is itself a
//! reported metric.
//!
//! The differential pass walks pair by pair, one `route()` call per state it
//! reports: its records are per pair (a fragment and a footprint each), and a
//! later epoch re-walks single pairs, which a graph shared per destination
//! has nothing to offer. The walks are [`crate::walk_pair`]'s, made by one
//! [`PairWalker`] per epoch that gets every walk back once its record is
//! distilled, and the dependency dataflow runs in buffers that
//! [`verify_schedule`] owns for the whole schedule; both are cleared, not
//! reallocated, between pairs. The `paranoid` mode
//! recomputes every epoch from scratch with the destination-major sweep of
//! [`crate::sweep`] and diffs the pair universe, every pair's fate and state
//! count, and every destination's CDG edge set against the differential
//! result; any divergence fails the case. Since the two sides share no
//! walker, each paranoid run also cross-checks the shared walker against the
//! per-pair one.

use crate::exact::{dependency_edges, resource_count, FoldScratch, Granularity};
use crate::reach::{check_pair, PairVerdict};
use crate::relation::{PairWalker, StateBudgetExceeded};
use crate::sweep::{sweep_destinations, DestinationOutcome};
use crate::witness::{describe_cycle, describe_pair_verdict};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Instant;
use torus_faults::{FaultSchedule, FaultScheduleError, FaultSet, ScheduleEpoch};
use torus_routing::cdg::DependencyGraph;
use torus_routing::{RoutingAlgorithm, RoutingTopologyError, MAX_VIRTUAL_CHANNELS};
use torus_topology::{AnyTopology, HealthyGraph, NodeId};

/// Per-epoch fate of one (source, destination) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairFate {
    /// Delivers without software-layer involvement.
    Routable,
    /// Delivers, but some schedule absorbs and re-injects at a via host.
    Rerouted,
    /// Dead-ends (legitimate only when the healthy graph no longer connects
    /// the pair).
    Disconnected,
}

impl PairFate {
    /// Lower-case name ("routable" / "rerouted" / "disconnected").
    pub fn name(self) -> &'static str {
        match self {
            PairFate::Routable => "routable",
            PairFate::Rerouted => "rerouted",
            PairFate::Disconnected => "disconnected",
        }
    }
}

/// The fate of one pair at one epoch, exposed for tests and diffing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairFateEntry {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// The pair's fate at the epoch.
    pub fate: PairFate,
}

/// Everything remembered about one pair's walk, enabling reuse at the next
/// epoch.
#[derive(Clone, Debug)]
struct PairRecord {
    /// Reachability verdict of the walk.
    verdict: PairVerdict,
    /// Whether the walk contains a re-injection (software-layer recovery).
    /// Such walks depend on a global shortest-path query and must be
    /// re-walked on any fault change.
    global: bool,
    /// Tracked-layer CDG edges contributed by this pair's walk (sorted,
    /// deduplicated).
    edges: Vec<(usize, usize)>,
    /// Nodes visited by any state of the walk (sorted, deduplicated).
    visited: Vec<NodeId>,
    /// States enumerated by the walk.
    states: usize,
}

/// The fate of a pair with the given verdict whose state graph does
/// (`reinjects`) or does not contain a re-injection.
fn fate_of(verdict: &PairVerdict, reinjects: bool) -> PairFate {
    match verdict {
        PairVerdict::Delivers if reinjects => PairFate::Rerouted,
        PairVerdict::Delivers => PairFate::Routable,
        PairVerdict::DeadEnd { .. } | PairVerdict::Livelock { .. } => PairFate::Disconnected,
    }
}

impl PairRecord {
    fn fate(&self) -> PairFate {
        fate_of(&self.verdict, self.global)
    }
}

/// Report of one verified epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochReport {
    /// First cycle of the epoch.
    pub cycle: u64,
    /// Labels of the events that arrived at this cycle.
    pub new_faults: Vec<String>,
    /// Cumulative faulty nodes in force.
    pub faulty_nodes: usize,
    /// Cumulative faulty links in force.
    pub faulty_links: usize,
    /// Pairs with both endpoints healthy at this epoch.
    pub pairs: usize,
    /// Pairs delivering without software-layer involvement.
    pub routable: usize,
    /// Pairs delivering via absorb/re-inject recovery.
    pub rerouted: usize,
    /// Pairs that dead-end (legitimately, when the graph is cut).
    pub disconnected: usize,
    /// Ordered pairs excluded because an endpoint is faulty.
    pub endpoint_faulty: usize,
    /// Pairs re-walked at this epoch.
    pub rewalked: usize,
    /// Pairs whose previous walk was reused unchanged.
    pub reused: usize,
    /// Vertices of the per-epoch union CDG.
    pub cdg_vertices: usize,
    /// Edges of the per-epoch union CDG.
    pub cdg_edges: usize,
    /// Whether the per-epoch union CDG is acyclic.
    pub acyclic: bool,
    /// Relation states enumerated by this epoch's re-walks.
    pub states: usize,
    /// Wall clock spent on this epoch, in milliseconds.
    pub wall_ms: u64,
    /// Failure description when the epoch fails verification.
    pub failure: Option<String>,
    /// Witness lines: the CDG cycle or spurious dead-end path on failure,
    /// or the first legitimate disconnection's path as evidence.
    pub witness: Vec<String>,
}

/// Outcome of verifying one (topology, routing, VC, schedule) case.
#[derive(Clone, Debug)]
pub struct ScheduleOutcome {
    /// One report per epoch, in schedule order.
    pub epochs: Vec<EpochReport>,
    /// Pair fates per epoch (sorted by (src, dest)), for tests and diffing.
    pub fates: Vec<Vec<PairFateEntry>>,
    /// Whether the paranoid from-scratch cross-check ran.
    pub paranoid: bool,
    /// Differential-vs-scratch divergences found by the paranoid mode
    /// (non-empty implies failure).
    pub divergences: Vec<String>,
}

impl ScheduleOutcome {
    /// True when any epoch failed verification or the paranoid diff found a
    /// divergence.
    pub fn failed(&self) -> bool {
        !self.divergences.is_empty() || self.epochs.iter().any(|e| e.failure.is_some())
    }

    /// Total relation states enumerated across all epochs.
    pub fn total_states(&self) -> usize {
        self.epochs.iter().map(|e| e.states).sum()
    }

    /// Total pairs re-walked / reused across all epochs.
    pub fn rewalk_totals(&self) -> (usize, usize) {
        self.epochs
            .iter()
            .fold((0, 0), |(rw, ru), e| (rw + e.rewalked, ru + e.reused))
    }

    /// One-line summary used as the matrix case detail.
    pub fn summary(&self) -> String {
        if let Some(d) = self.divergences.first() {
            return format!(
                "paranoid cross-check diverged ({} divergences); first: {d}",
                self.divergences.len()
            );
        }
        if let Some(e) = self.epochs.iter().find(|e| e.failure.is_some()) {
            return format!(
                "epoch at cycle {} failed: {}",
                e.cycle,
                e.failure.as_deref().unwrap_or("")
            );
        }
        let last = self.epochs.last().expect("schedules have at least epoch 0");
        let (rewalked, reused) = self.rewalk_totals();
        format!(
            "{} epochs all acyclic; final fates {} routable / {} rerouted / {} disconnected; \
             {} pairs re-walked, {} reused{}",
            self.epochs.len(),
            last.routable,
            last.rerouted,
            last.disconnected,
            rewalked,
            reused,
            if self.paranoid {
                "; paranoid diff clean"
            } else {
                ""
            }
        )
    }
}

/// Errors of a schedule verification: a configuration the simulator would
/// reject, an invalid schedule or a blown state budget.
#[derive(Clone, Debug)]
pub enum ScheduleVerifyError {
    /// The routing algorithm cannot operate on the topology.
    Unsupported(RoutingTopologyError),
    /// Fewer virtual channels than the routing algorithm needs for deadlock
    /// freedom on the topology.
    TooFewVirtualChannels {
        /// Requested V.
        requested: usize,
        /// Minimum required by the routing algorithm on this topology.
        minimum: usize,
    },
    /// More virtual channels than a routing decision can name
    /// ([`torus_routing::MAX_VIRTUAL_CHANNELS`]).
    TooManyVirtualChannels {
        /// Requested V.
        requested: usize,
        /// The largest V a routing decision can name.
        maximum: usize,
    },
    /// The schedule failed validation against the network.
    Schedule(FaultScheduleError),
    /// A pair walk exceeded the state budget.
    Budget(StateBudgetExceeded),
}

impl fmt::Display for ScheduleVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleVerifyError::Unsupported(e) => write!(f, "{e}"),
            ScheduleVerifyError::TooFewVirtualChannels { requested, minimum } => write!(
                f,
                "{requested} virtual channels requested but the routing algorithm needs at least {minimum} on this topology"
            ),
            ScheduleVerifyError::TooManyVirtualChannels { requested, maximum } => write!(
                f,
                "{requested} virtual channels requested but routing decisions name at most {maximum}"
            ),
            ScheduleVerifyError::Schedule(e) => write!(f, "invalid fault schedule: {e}"),
            ScheduleVerifyError::Budget(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScheduleVerifyError {}

impl From<FaultScheduleError> for ScheduleVerifyError {
    fn from(e: FaultScheduleError) -> Self {
        ScheduleVerifyError::Schedule(e)
    }
}

impl From<StateBudgetExceeded> for ScheduleVerifyError {
    fn from(e: StateBudgetExceeded) -> Self {
        ScheduleVerifyError::Budget(e)
    }
}

/// The record loop's per-pair machinery for one epoch: a [`PairWalker`]
/// under the epoch's faults, recycling each walk's buffers, and the
/// dependency dataflow's buffers, both cleared and reused from one pair to
/// the next. The dataflow's buffers outlive the epoch: [`verify_schedule`]
/// owns them.
struct Recorder<'a, A> {
    net: &'a AnyTopology,
    v: usize,
    granularity: Granularity,
    state_budget: usize,
    pairs: PairWalker<'a, A>,
    fold: &'a mut FoldScratch,
}

impl<A: RoutingAlgorithm> Recorder<'_, A> {
    /// Walks one pair under the epoch's faults and distils the record the
    /// differential pass needs: verdict, global flag, CDG fragment,
    /// visited-node footprint.
    fn record(&mut self, src: NodeId, dest: NodeId) -> Result<PairRecord, StateBudgetExceeded> {
        let walk = self.pairs.walk(src, dest, self.state_budget)?;
        let mut visited: Vec<NodeId> = walk.iter().map(|(_, s)| s.node).collect();
        visited.sort_unstable();
        visited.dedup();
        let global = walk.reinjects();
        let edges = dependency_edges(
            self.net,
            walk.graph(),
            [walk.start()],
            self.v,
            self.granularity,
            self.fold,
        );
        let record = PairRecord {
            verdict: check_pair(&walk),
            global,
            edges,
            visited,
            states: walk.len(),
        };
        self.pairs.recycle(walk);
        Ok(record)
    }
}

/// True when a new fault event can influence the recorded walk: routing
/// queries are local to the visited nodes and their incident channels, so
/// only a fault on a visited node, a neighbour of one, or a link with a
/// visited endpoint can change any decision along the walk.
fn event_touches(net: &AnyTopology, record: &PairRecord, event: &torus_faults::FaultEvent) -> bool {
    let visited = |n: NodeId| record.visited.binary_search(&n).is_ok();
    match *event {
        torus_faults::FaultEvent::Node { node } => {
            let node = NodeId(node);
            visited(node) || net.neighbors(node).iter().any(|&(_, nb)| visited(nb))
        }
        torus_faults::FaultEvent::Link { node, dim, dir } => {
            let node = NodeId(node);
            visited(node) || net.neighbor(node, dim, dir).is_some_and(visited)
        }
    }
}

/// Labels each healthy node with its connected component of the epoch's
/// healthy graph (faulty nodes get `usize::MAX`).
fn component_labels(net: &AnyTopology, faults: &FaultSet) -> Vec<usize> {
    let graph = HealthyGraph::new(net, faults);
    let mut labels = vec![usize::MAX; net.num_nodes()];
    let mut next = 0;
    for start in net.nodes() {
        if faults.is_node_faulty(start) || labels[start.index()] != usize::MAX {
            continue;
        }
        for (node, dist) in graph.bfs_distances(start).into_iter().enumerate() {
            if dist.is_some() {
                labels[node] = next;
            }
        }
        next += 1;
    }
    labels
}

/// Walks every healthy pair of `faults`, one at a time, into the record map
/// the differential pass starts from.
fn walk_all_pairs<A: RoutingAlgorithm>(
    recorder: &mut Recorder<'_, A>,
    faults: &FaultSet,
) -> Result<BTreeMap<(NodeId, NodeId), PairRecord>, StateBudgetExceeded> {
    let net = recorder.net;
    let mut records = BTreeMap::new();
    for src in net.endpoints() {
        if faults.is_node_faulty(src) {
            continue;
        }
        for dest in net.endpoints() {
            if dest == src || faults.is_node_faulty(dest) {
                continue;
            }
            records.insert((src, dest), recorder.record(src, dest)?);
        }
    }
    Ok(records)
}

/// Builds the epoch report from the record map: union CDG, fate counts,
/// failure analysis (cyclic CDG, spurious dead end, livelock) and witnesses.
#[allow(clippy::too_many_arguments)]
fn epoch_report(
    net: &AnyTopology,
    v: usize,
    granularity: Granularity,
    resources: usize,
    epoch: &ScheduleEpoch,
    records: &BTreeMap<(NodeId, NodeId), PairRecord>,
    rewalked: usize,
    reused: usize,
    states: usize,
    started: Instant,
) -> EpochReport {
    let mut graph = DependencyGraph::new(resources);
    for rec in records.values() {
        for &(from, to) in &rec.edges {
            graph.add_edge(from, to);
        }
    }
    let cdg_cycle = graph.find_cycle();
    let components = component_labels(net, &epoch.faults);
    let (mut routable, mut rerouted, mut disconnected) = (0usize, 0usize, 0usize);
    let mut failure = None;
    let mut witness = Vec::new();
    let mut first_disconnect: Option<(NodeId, NodeId)> = None;
    for (&(src, dest), rec) in records {
        match rec.fate() {
            PairFate::Routable => routable += 1,
            PairFate::Rerouted => rerouted += 1,
            PairFate::Disconnected => {
                disconnected += 1;
                let connected = components[src.index()] == components[dest.index()];
                let spurious = connected || matches!(rec.verdict, PairVerdict::Livelock { .. });
                if spurious && failure.is_none() {
                    failure = Some(format!(
                        "pair {} -> {} {} although the healthy graph {} them",
                        net.node_label(src),
                        net.node_label(dest),
                        match rec.verdict {
                            PairVerdict::Livelock { .. } => "livelocks",
                            _ => "dead-ends",
                        },
                        if connected {
                            "still connects"
                        } else {
                            "no longer connects"
                        },
                    ));
                    witness = describe_pair_verdict(net, &rec.verdict);
                } else if first_disconnect.is_none() {
                    first_disconnect = Some((src, dest));
                }
            }
        }
    }
    if let Some(cycle) = &cdg_cycle {
        failure = Some(format!(
            "per-epoch union CDG has a cycle of {} resources",
            cycle.len()
        ));
        witness = describe_cycle(net, cycle, v, granularity);
    } else if failure.is_none() {
        if let Some((src, dest)) = first_disconnect {
            // Evidence (not a violation): the first legitimately
            // disconnected pair and its dead-end path.
            if let Some(rec) = records.get(&(src, dest)) {
                witness = describe_pair_verdict(net, &rec.verdict);
            }
        }
    }
    let n = net.num_endpoints();
    EpochReport {
        cycle: epoch.cycle,
        new_faults: epoch
            .new_events
            .iter()
            .map(torus_faults::FaultEvent::label)
            .collect(),
        faulty_nodes: epoch.faults.num_faulty_nodes(),
        faulty_links: epoch.faults.num_faulty_links(),
        pairs: records.len(),
        routable,
        rerouted,
        disconnected,
        endpoint_faulty: n * (n - 1) - records.len(),
        rewalked,
        reused,
        cdg_vertices: graph.num_vertices(),
        cdg_edges: graph.num_edges(),
        acyclic: cdg_cycle.is_none(),
        states,
        wall_ms: u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX),
        failure,
        witness,
    }
}

fn fates_of(records: &BTreeMap<(NodeId, NodeId), PairRecord>) -> Vec<PairFateEntry> {
    records
        .iter()
        .map(|(&(src, dest), rec)| PairFateEntry {
            src,
            dest,
            fate: rec.fate(),
        })
        .collect()
}

/// Verifies a fault schedule epoch by epoch: epoch 0 from scratch, later
/// epochs differentially (see the module docs for the soundness argument).
/// With `paranoid` every epoch is additionally recomputed from scratch and
/// diffed against the differential result. A configuration the simulator
/// would reject (`algo` unsupported on `net`, `v` below its minimum or above
/// [`MAX_VIRTUAL_CHANNELS`]) is a typed error, not a proof.
pub fn verify_schedule<A: RoutingAlgorithm>(
    net: &AnyTopology,
    algo: &A,
    schedule: &FaultSchedule,
    v: usize,
    state_budget: usize,
    paranoid: bool,
) -> Result<ScheduleOutcome, ScheduleVerifyError> {
    algo.supported_on(net)
        .map_err(ScheduleVerifyError::Unsupported)?;
    let minimum = algo.min_virtual_channels(net);
    if v < minimum {
        return Err(ScheduleVerifyError::TooFewVirtualChannels {
            requested: v,
            minimum,
        });
    }
    if v > MAX_VIRTUAL_CHANNELS {
        return Err(ScheduleVerifyError::TooManyVirtualChannels {
            requested: v,
            maximum: MAX_VIRTUAL_CHANNELS,
        });
    }
    let granularity = Granularity::PerVc;
    let resources = resource_count(net, v, granularity);
    let epochs_spec = schedule.epochs(net)?;
    let mut records: BTreeMap<(NodeId, NodeId), PairRecord> = BTreeMap::new();
    let mut epochs = Vec::with_capacity(epochs_spec.len());
    let mut fates = Vec::with_capacity(epochs_spec.len());
    let mut divergences = Vec::new();
    let mut fold = FoldScratch::default();

    for (ei, epoch) in epochs_spec.iter().enumerate() {
        let started = Instant::now();
        let mut rewalked = 0usize;
        let mut reused = 0usize;
        let mut states = 0usize;
        let mut recorder = Recorder {
            net,
            v,
            granularity,
            state_budget,
            pairs: PairWalker::new(net, algo, &epoch.faults, v),
            fold: &mut fold,
        };
        if ei == 0 {
            records = walk_all_pairs(&mut recorder, &epoch.faults)?;
            rewalked = records.len();
            states = records.values().map(|r| r.states).sum();
        } else {
            // Fault sets only grow: drop pairs whose endpoints just failed.
            records.retain(|&(src, dest), _| {
                !epoch.faults.is_node_faulty(src) && !epoch.faults.is_node_faulty(dest)
            });
            let keys: Vec<(NodeId, NodeId)> = records.keys().copied().collect();
            for key in keys {
                let needs_rewalk = {
                    let rec = &records[&key];
                    rec.global
                        || epoch
                            .new_events
                            .iter()
                            .any(|ev| event_touches(net, rec, ev))
                };
                if needs_rewalk {
                    let rec = recorder.record(key.0, key.1)?;
                    states += rec.states;
                    records.insert(key, rec);
                    rewalked += 1;
                } else {
                    reused += 1;
                }
            }
        }
        let mut report = epoch_report(
            net,
            v,
            granularity,
            resources,
            epoch,
            &records,
            rewalked,
            reused,
            states,
            started,
        );
        if paranoid {
            diff_against_scratch(
                net,
                algo,
                epoch,
                v,
                state_budget,
                granularity,
                &records,
                &mut divergences,
            )?;
        }
        if report.failure.is_none() {
            if let Some(d) = divergences.first() {
                report.failure = Some(format!("paranoid cross-check diverged: {d}"));
            }
        }
        fates.push(fates_of(&records));
        epochs.push(report);
    }

    Ok(ScheduleOutcome {
        epochs,
        fates,
        paranoid,
        divergences,
    })
}

/// Recomputes `epoch` from scratch with the destination-major sweep and
/// diffs the differential record map against it: same pair universe, same
/// fates and state counts, same CDG edges into every destination.
#[allow(clippy::too_many_arguments)]
fn diff_against_scratch<A: RoutingAlgorithm>(
    net: &AnyTopology,
    algo: &A,
    epoch: &ScheduleEpoch,
    v: usize,
    state_budget: usize,
    granularity: Granularity,
    differential: &BTreeMap<(NodeId, NodeId), PairRecord>,
    divergences: &mut Vec<String>,
) -> Result<(), StateBudgetExceeded> {
    let cycle = epoch.cycle;
    let at =
        |key: &(NodeId, NodeId)| format!("{} -> {}", net.node_label(key.0), net.node_label(key.1));
    let mut fresh: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    let diff_destination = |scratch: DestinationOutcome| {
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for pair in &scratch.pairs {
            let key = (pair.src, scratch.dest);
            fresh.insert(key);
            let Some(diff) = differential.get(&key) else {
                divergences.push(format!(
                    "cycle {cycle}: differential lost pair {}",
                    at(&key)
                ));
                continue;
            };
            edges.extend(&diff.edges);
            let fate = fate_of(&pair.verdict, pair.reinjects);
            if diff.fate() != fate {
                divergences.push(format!(
                    "cycle {cycle}: pair {} fate {} differentially but {} from scratch",
                    at(&key),
                    diff.fate().name(),
                    fate.name()
                ));
            }
            if diff.states != pair.states {
                divergences.push(format!(
                    "cycle {cycle}: pair {} has {} states differentially but {} from scratch",
                    at(&key),
                    diff.states,
                    pair.states
                ));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        if edges != scratch.edges {
            divergences.push(format!(
                "cycle {cycle}: CDG edges into {} differ ({} differentially, {} from scratch)",
                net.node_label(scratch.dest),
                edges.len(),
                scratch.edges.len()
            ));
        }
    };
    sweep_destinations(
        net,
        algo,
        &epoch.faults,
        v,
        granularity,
        state_budget,
        diff_destination,
    )?;
    for key in differential.keys().filter(|key| !fresh.contains(key)) {
        divergences.push(format!(
            "cycle {cycle}: differential kept pair {} that a scratch sweep excludes",
            at(key)
        ));
    }
    Ok(())
}
