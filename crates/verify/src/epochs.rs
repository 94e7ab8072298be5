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
//! # The destination is the unit
//!
//! Every proof is made one destination at a time by the loop of
//! [`crate::sweep`]: one shared state graph per destination, one view of it
//! per healthy source and one dependency fold. Epoch 0 sweeps every
//! destination. A later epoch drops the destinations that failed, re-sweeps
//! every destination with a pair *due* at it, over all its healthy sources,
//! and reuses every other destination's record untouched.
//!
//! A pair's walk can change only when
//!
//! * it re-injects — `reroute_on_fault` may install an explicit path
//!   computed by a *global* shortest-path query over the healthy graph, so
//!   any new fault anywhere can change the walk; or
//! * a newly failed node is one of the nodes its view visits or their
//!   neighbours (routing queries are otherwise local: an algorithm at node
//!   `x` only inspects the fault state of `x`'s own output channels and
//!   neighbours); or
//! * a newly failed link has a visited endpoint.
//!
//! So when a destination is swept at epoch `e`, each pair's record notes the
//! epoch at which the pair is next due:
//!
//! * `e + 1` when its view re-injects;
//! * otherwise the first later epoch with an event that touches a visited
//!   node, by the rule above — each later epoch's touched nodes (a failed
//!   node and its neighbours, a failed link's two endpoints) are computed
//!   once per schedule;
//! * or the epoch at which the destination fails, if that is sooner: a view
//!   that dead-ends short of its destination never visits it, but the pair
//!   leaves the universe then all the same. The source is always visited,
//!   so a pair is due when its source fails, too.
//!
//! The destination is due at the earliest of its pairs' epochs. This is
//! sound because fault sets only grow and a record changes only when its
//! destination is re-swept: an epoch that touches no node of a view leaves
//! the pair's walk — its states, fate and dependency edges — as it is, so
//! until its first touching epoch a pair's record is what a fresh sweep
//! would find, and a record with no such epoch is final. A re-swept
//! destination re-derives its pairs that are not due as well; they come out
//! unchanged (debug builds assert the same states, fate and next epoch, a
//! free check of the touch rule) and count as reused. The tallies keep their
//! per-pair meaning: `rewalked` counts the due pairs, `states` adds up their
//! view sizes, and `reused` counts the rest.
//!
//! # What a record keeps
//!
//! Per source, the pair's state count, fate, failure verdict and next due
//! epoch; and the destination's deduplicated dependency edges, each with the
//! lowest source whose pair depends on it. The fold finds those labels at
//! the cost of the shared fold: it seeds the sources one at a time in
//! ascending order over one shared fixpoint, and an edge belongs to the
//! source in whose phase it is first emitted. Because the transfer functions
//! distribute over union, that source's pair depends on the edge and no
//! lower source's pair does.
//!
//! # The union CDG, in a fixed order
//!
//! Each epoch's union CDG is built once from `(lowest rank, from, to)`
//! entries: an edge's rank is `lowest source * endpoints + destination`,
//! minimised over the destinations, and the entries are added in sorted
//! order. That is the order in which adding every pair's sorted dependency
//! list in `(src, dest)` order first meets each edge, and the graph keeps
//! first occurrences, so the adjacency order — and the cycle
//! [`DependencyGraph::find_cycle`] reports — is the one a graph built pair by
//! pair would have.
//!
//! # Paranoid mode
//!
//! The `paranoid` mode recomputes every epoch from scratch with
//! `sweep_destinations` and diffs the pair universe, every pair's fate and
//! state count, and every destination's labelled edge list against the
//! records; any divergence fails the case. A touch rule that missed a change
//! shows there as a reused record that differs from the fresh sweep.

use crate::exact::{resource_count, Granularity};
use crate::reach::PairVerdict;
use crate::relation::StateBudgetExceeded;
use crate::sweep::{sweep_destinations, DestinationOutcome, DestinationSweep};
use crate::witness::{describe_cycle, describe_pair_verdict};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::time::Instant;
use torus_faults::{FaultEvent, FaultSchedule, FaultScheduleError, FaultSet, ScheduleEpoch};
use torus_routing::cdg::DependencyGraph;
use torus_routing::hash::BuildWordHasher;
use torus_routing::{RoutingAlgorithm, RoutingTopologyError, MAX_VIRTUAL_CHANNELS};
use torus_topology::{AnyTopology, NodeId};

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
    /// Pairs due at this epoch, proved again.
    pub rewalked: usize,
    /// Pairs whose previous proof was reused unchanged.
    pub reused: usize,
    /// Vertices of the per-epoch union CDG.
    pub cdg_vertices: usize,
    /// Edges of the per-epoch union CDG.
    pub cdg_edges: usize,
    /// Whether the per-epoch union CDG is acyclic.
    pub acyclic: bool,
    /// Relation states reachable from the injection states of the pairs
    /// proved again at this epoch, summed over those pairs.
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
        let last = self.epochs.last().expect(
            "verify_schedule reports every epoch and FaultSchedule::epochs yields one at least",
        );
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
    /// The network has more CDG resources (channel slots times V) than the
    /// records' 32-bit resource ids can name.
    TooManyResources {
        /// Channel slots times V.
        resources: usize,
    },
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
            ScheduleVerifyError::TooManyResources { resources } => write!(
                f,
                "{resources} CDG resources do not fit 32-bit resource ids"
            ),
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

/// What the schedule's events mean for the records, computed once per
/// schedule: the nodes whose visit by a view makes each epoch due for it,
/// and the epoch each node fails at.
struct Touches {
    /// Per epoch, the nodes its events touch (none at epoch 0).
    touched: Vec<Vec<NodeId>>,
    /// Per node, the epoch a node event fails it at, or [`NEVER`].
    fails_at: Vec<usize>,
}

impl Touches {
    /// Routing queries are local to the visited nodes and their incident
    /// channels, so an event can change a pair's walk only when it fails a
    /// visited node, a neighbour of one, or a link with a visited endpoint.
    fn new(net: &AnyTopology, epochs: &[ScheduleEpoch]) -> Self {
        let mut fails_at = vec![NEVER; net.num_nodes()];
        let touched = epochs
            .iter()
            .enumerate()
            .map(|(ei, epoch)| {
                let mut nodes = Vec::new();
                for event in &epoch.new_events {
                    match *event {
                        FaultEvent::Node { node } => {
                            let node = NodeId(node);
                            fails_at[node.index()] = ei;
                            nodes.push(node);
                            nodes.extend(net.neighbors(node).map(|(_, nb)| nb));
                        }
                        FaultEvent::Link { node, dim, dir } => {
                            let node = NodeId(node);
                            nodes.push(node);
                            nodes.extend(net.neighbor(node, dim, dir));
                        }
                    }
                }
                nodes
            })
            .collect();
        Touches { touched, fails_at }
    }

    /// For each node, the first epoch after `epoch` whose events touch it,
    /// or [`NEVER`].
    fn next_after(&self, epoch: usize) -> Vec<usize> {
        let mut next = vec![NEVER; self.fails_at.len()];
        for (ei, nodes) in self.touched.iter().enumerate().skip(epoch + 1).rev() {
            for node in nodes {
                next[node.index()] = ei;
            }
        }
        next
    }
}

/// Labels each healthy node with its connected component of the epoch's
/// healthy graph (faulty nodes get `usize::MAX`).
fn component_labels(net: &AnyTopology, faults: &FaultSet) -> Vec<usize> {
    let mut labels = vec![usize::MAX; net.num_nodes()];
    let mut next = 0;
    for start in faults.healthy_nodes(net) {
        if labels[start.index()] != usize::MAX {
            continue;
        }
        for (node, dist) in faults.bfs_distances(net, start).into_iter().enumerate() {
            if dist.is_some() {
                labels[node] = next;
            }
        }
        next += 1;
    }
    labels
}

/// What a later epoch needs of one pair's proof.
#[derive(Clone, Debug)]
struct PairRecord {
    src: NodeId,
    /// Reachability verdict of the pair, unless it delivers (most do).
    failure: Option<Box<PairVerdict>>,
    /// Whether the pair's state graph contains a re-injection
    /// (software-layer recovery). Such a pair depends on a global
    /// shortest-path query and is due at every later epoch.
    global: bool,
    /// States reachable from the pair's injection state.
    states: usize,
    /// The epoch at which the pair is next due, or [`NEVER`].
    next_rewalk: usize,
}

/// No later epoch is due for the record.
const NEVER: usize = usize::MAX;

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
    fn verdict(&self) -> &PairVerdict {
        static DELIVERS: PairVerdict = PairVerdict::Delivers;
        self.failure.as_deref().unwrap_or(&DELIVERS)
    }

    fn fate(&self) -> PairFate {
        fate_of(self.verdict(), self.global)
    }
}

/// Everything a later epoch reuses of one destination's sweep.
#[derive(Debug)]
struct DestinationRecord {
    dest: NodeId,
    /// One record per source healthy at the sweep, ascending.
    pairs: Vec<PairRecord>,
    /// The dependency edges of the pairs into `dest` as `(from, to, lowest
    /// source)`, sorted by `(from, to)`, one entry per edge.
    edges: Box<[(u32, u32, u32)]>,
    /// The earliest epoch at which a pair is due or the destination fails:
    /// the epoch that re-sweeps or drops the record, or [`NEVER`].
    next_sweep: usize,
}

impl DestinationRecord {
    fn pair(&self, src: NodeId) -> Option<&PairRecord> {
        let i = self.pairs.binary_search_by_key(&src, |p| p.src).ok()?;
        Some(&self.pairs[i])
    }
}

/// The due rule of one epoch: when each visited node is next touched, when
/// each node fails, and how many epochs there are.
struct DueRule<'a> {
    epoch: usize,
    epochs: usize,
    /// [`Touches::next_after`] this epoch.
    next_touch: Vec<usize>,
    fails_at: &'a [usize],
}

impl DueRule<'_> {
    /// The epoch at which the pair of a view into `dest` is next due, given
    /// whether the view re-injects and the nodes it visits.
    fn next_rewalk(
        &self,
        dest: NodeId,
        reinjects: bool,
        visited: &mut dyn Iterator<Item = NodeId>,
    ) -> usize {
        let touched = if reinjects {
            self.epoch + 1
        } else {
            visited
                .map(|node| self.next_touch[node.index()])
                .min()
                .unwrap_or(NEVER)
        };
        let next = touched.min(self.fails_at[dest.index()]);
        if next < self.epochs {
            next
        } else {
            NEVER
        }
    }
}

/// Sweeps `dest` under the epoch's faults into its record. The caller has
/// checked that every resource id fits in 32 bits.
fn record_destination<A: RoutingAlgorithm>(
    sweep: &mut DestinationSweep<'_, A>,
    rule: &DueRule<'_>,
    dest: NodeId,
) -> Result<DestinationRecord, StateBudgetExceeded> {
    let mut next = Vec::new();
    let DestinationOutcome { edges, pairs, .. } = sweep.sweep(dest, |view, visited| {
        next.push(rule.next_rewalk(dest, view.reinjects, visited));
    })?;
    let pairs: Vec<PairRecord> = pairs
        .into_iter()
        .zip(next)
        .map(|(pair, next_rewalk)| PairRecord {
            src: pair.src,
            global: pair.reinjects,
            states: pair.states,
            next_rewalk,
            failure: (pair.verdict != PairVerdict::Delivers).then(|| Box::new(pair.verdict)),
        })
        .collect();
    let next_sweep = pairs
        .iter()
        .map(|p| p.next_rewalk)
        .chain([rule.fails_at[dest.index()]])
        .min()
        .unwrap_or(NEVER);
    Ok(DestinationRecord {
        dest,
        pairs,
        edges: edges
            .into_iter()
            .map(|(from, to, src)| (from as u32, to as u32, src.0))
            .collect(),
        next_sweep,
    })
}

/// Pairs proved again, pairs reused and states enumerated at one epoch.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    rewalked: usize,
    reused: usize,
    states: usize,
}

/// Brings the records to `rule.epoch`: drops the destinations that failed
/// (fault sets only grow), sweeps every healthy destination that has no
/// record yet (all of them at epoch 0) or a pair due now, and reuses every
/// other record. A swept pair counts as proved again when it had no record
/// or was due; the other pairs of a swept destination count as reused, as
/// do all the pairs of a reused record.
fn advance<A: RoutingAlgorithm>(
    sweep: &mut DestinationSweep<'_, A>,
    rule: &DueRule<'_>,
    faults: &FaultSet,
    records: &mut [Option<DestinationRecord>],
) -> Result<Tally, StateBudgetExceeded> {
    for slot in records.iter_mut() {
        if slot.as_ref().is_some_and(|r| faults.is_node_faulty(r.dest)) {
            *slot = None;
        }
    }
    let mut tally = Tally::default();
    for i in 0..sweep.endpoints().len() {
        let dest = sweep.endpoints()[i];
        let slot = &mut records[dest.index()];
        if let Some(old) = slot.as_ref().filter(|old| old.next_sweep != rule.epoch) {
            tally.reused += old.pairs.len();
            continue;
        }
        let fresh = record_destination(sweep, rule, dest)?;
        for pair in &fresh.pairs {
            // A source that is healthy now was healthy at the old sweep.
            match slot.as_ref().and_then(|old| old.pair(pair.src)) {
                Some(kept) if kept.next_rewalk != rule.epoch => {
                    debug_assert_eq!(
                        (kept.states, kept.fate(), kept.next_rewalk),
                        (pair.states, pair.fate(), pair.next_rewalk),
                        "{:?} -> {dest:?} changed before its due epoch",
                        pair.src,
                    );
                    tally.reused += 1;
                }
                _ => {
                    tally.rewalked += 1;
                    tally.states += pair.states;
                }
            }
        }
        *slot = Some(fresh);
    }
    Ok(tally)
}

/// The epoch's union CDG, its edges added in ascending `(lowest rank, from,
/// to)` order (see the module docs).
fn union_cdg(resources: usize, records: &[Option<DestinationRecord>]) -> DependencyGraph {
    let endpoints = records.len() as u64;
    // Keyed by `from << 32 | to`: one word to hash.
    let mut lowest: HashMap<u64, u64, BuildWordHasher> = HashMap::default();
    for record in records.iter().flatten() {
        let dest = u64::from(record.dest.0);
        for &(from, to, src) in &record.edges {
            let rank = u64::from(src) * endpoints + dest;
            lowest
                .entry(u64::from(from) << 32 | u64::from(to))
                .and_modify(|lowest| *lowest = (*lowest).min(rank))
                .or_insert(rank);
        }
    }
    let mut entries: Vec<(u64, u32, u32)> = lowest
        .into_iter()
        .map(|(edge, rank)| (rank, (edge >> 32) as u32, edge as u32))
        .collect();
    entries.sort_unstable();
    let mut graph = DependencyGraph::new(resources);
    for (_, from, to) in entries {
        graph.add_edge(from as usize, to as usize);
    }
    graph
}

/// Every live pair as `(src, dest, record)`, in `(src, dest)` order: each
/// record lists its pairs by ascending source, so one cursor per record
/// reads them out source by source.
fn ordered_pairs(records: &[Option<DestinationRecord>]) -> Vec<(NodeId, NodeId, &PairRecord)> {
    let live: Vec<&DestinationRecord> = records.iter().flatten().collect();
    let mut cursors = vec![0; live.len()];
    let mut pairs = Vec::with_capacity(live.iter().map(|r| r.pairs.len()).sum());
    for src in (0..records.len()).map(|i| NodeId(i as u32)) {
        for (record, cursor) in live.iter().zip(&mut cursors) {
            if let Some(pair) = record.pairs.get(*cursor).filter(|p| p.src == src) {
                pairs.push((src, record.dest, pair));
                *cursor += 1;
            }
        }
    }
    pairs
}

/// Builds the epoch report from the records: union CDG, fate counts,
/// failure analysis (cyclic CDG, spurious dead end, livelock) and witnesses.
/// Its `wall_ms` is left for the caller to take.
fn epoch_report(
    net: &AnyTopology,
    v: usize,
    granularity: Granularity,
    epoch: &ScheduleEpoch,
    graph: &DependencyGraph,
    pairs: &[(NodeId, NodeId, &PairRecord)],
    tally: Tally,
) -> EpochReport {
    let cdg_cycle = graph.find_cycle();
    let components = component_labels(net, &epoch.faults);
    let (mut routable, mut rerouted, mut disconnected) = (0usize, 0usize, 0usize);
    let mut failure = None;
    let mut witness = Vec::new();
    let mut first_disconnect: Option<&PairRecord> = None;
    for &(src, dest, rec) in pairs {
        match rec.fate() {
            PairFate::Routable => routable += 1,
            PairFate::Rerouted => rerouted += 1,
            PairFate::Disconnected => {
                disconnected += 1;
                let connected = components[src.index()] == components[dest.index()];
                let spurious = connected || matches!(rec.verdict(), PairVerdict::Livelock { .. });
                if spurious && failure.is_none() {
                    failure = Some(format!(
                        "pair {} -> {} {} although the healthy graph {} them",
                        net.node_label(src),
                        net.node_label(dest),
                        match rec.verdict() {
                            PairVerdict::Livelock { .. } => "livelocks",
                            _ => "dead-ends",
                        },
                        if connected {
                            "still connects"
                        } else {
                            "no longer connects"
                        },
                    ));
                    witness = describe_pair_verdict(net, rec.verdict());
                } else if first_disconnect.is_none() {
                    first_disconnect = Some(rec);
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
        if let Some(rec) = first_disconnect {
            // Evidence (not a violation): the first legitimately
            // disconnected pair and its dead-end path.
            witness = describe_pair_verdict(net, rec.verdict());
        }
    }
    let n = net.num_endpoints();
    let pairs = routable + rerouted + disconnected;
    EpochReport {
        cycle: epoch.cycle,
        new_faults: epoch.new_events.iter().map(FaultEvent::label).collect(),
        faulty_nodes: epoch.faults.num_faulty_nodes(),
        faulty_links: epoch.faults.num_faulty_links(),
        pairs,
        routable,
        rerouted,
        disconnected,
        endpoint_faulty: n * (n - 1) - pairs,
        rewalked: tally.rewalked,
        reused: tally.reused,
        cdg_vertices: graph.num_vertices(),
        cdg_edges: graph.num_edges(),
        acyclic: cdg_cycle.is_none(),
        states: tally.states,
        wall_ms: 0,
        failure,
        witness,
    }
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
    // The records keep resource ids in 32 bits.
    if u32::try_from(resources).is_err() {
        return Err(ScheduleVerifyError::TooManyResources { resources });
    }
    let epochs_spec = schedule.epochs(net)?;
    let touches = Touches::new(net, &epochs_spec);
    let mut records: Vec<Option<DestinationRecord>> =
        (0..net.num_endpoints()).map(|_| None).collect();
    let mut epochs = Vec::with_capacity(epochs_spec.len());
    let mut fates = Vec::with_capacity(epochs_spec.len());
    let mut divergences = Vec::new();

    for (ei, epoch) in epochs_spec.iter().enumerate() {
        let started = Instant::now();
        let mut sweep =
            DestinationSweep::new(net, algo, &epoch.faults, v, granularity, state_budget);
        let rule = DueRule {
            epoch: ei,
            epochs: epochs_spec.len(),
            next_touch: touches.next_after(ei),
            fails_at: &touches.fails_at,
        };
        let tally = advance(&mut sweep, &rule, &epoch.faults, &mut records)?;
        let graph = union_cdg(resources, &records);
        let pairs = ordered_pairs(&records);
        let mut report = epoch_report(net, v, granularity, epoch, &graph, &pairs, tally);
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
        // Taken after the paranoid diff, which is part of what the epoch costs.
        report.wall_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
        fates.push(
            pairs
                .iter()
                .map(|&(src, dest, rec)| PairFateEntry {
                    src,
                    dest,
                    fate: rec.fate(),
                })
                .collect(),
        );
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
/// diffs the records against it: same pair universe, same fates and state
/// counts, same labelled dependency edges into every destination.
#[allow(clippy::too_many_arguments)]
fn diff_against_scratch<A: RoutingAlgorithm>(
    net: &AnyTopology,
    algo: &A,
    epoch: &ScheduleEpoch,
    v: usize,
    state_budget: usize,
    granularity: Granularity,
    records: &[Option<DestinationRecord>],
    divergences: &mut Vec<String>,
) -> Result<(), StateBudgetExceeded> {
    let cycle = epoch.cycle;
    let at =
        |key: &(NodeId, NodeId)| format!("{} -> {}", net.node_label(key.0), net.node_label(key.1));
    let mut fresh: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    let diff_destination = |scratch: DestinationOutcome| {
        let record = records.get(scratch.dest.index()).and_then(Option::as_ref);
        for pair in &scratch.pairs {
            let key = (pair.src, scratch.dest);
            fresh.insert(key);
            let Some(diff) = record.and_then(|r| r.pair(pair.src)) else {
                divergences.push(format!(
                    "cycle {cycle}: differential lost pair {}",
                    at(&key)
                ));
                continue;
            };
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
        let kept = record.map_or(&[][..], |r| &r.edges[..]);
        let same_edges = kept.len() == scratch.edges.len()
            && kept
                .iter()
                .zip(&scratch.edges)
                .all(|(&kept, &(from, to, src))| kept == (from as u32, to as u32, src.0));
        if !same_edges {
            divergences.push(format!(
                "cycle {cycle}: CDG edges into {} differ ({} differentially, {} from scratch)",
                net.node_label(scratch.dest),
                kept.len(),
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
    for (src, dest, _) in ordered_pairs(records) {
        if !fresh.contains(&(src, dest)) {
            divergences.push(format!(
                "cycle {cycle}: differential kept pair {} that a scratch sweep excludes",
                at(&(src, dest))
            ));
        }
    }
    Ok(())
}
