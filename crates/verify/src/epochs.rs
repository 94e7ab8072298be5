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
//! reports: its records are per pair, and a later epoch re-walks single
//! pairs, which a graph shared per destination has nothing to offer. The
//! walks are [`crate::walk_pair`]'s, made by one [`PairWalker`] per epoch
//! that gets every walk back once its record is distilled, and the
//! dependency dataflow runs in buffers that [`verify_schedule`] owns for the
//! whole schedule; both are cleared, not reallocated, between pairs.
//!
//! # What a record keeps
//!
//! A record keeps only what a later epoch can still change. When a pair is
//! walked at epoch `e`, the pass works out once the epoch at which it will
//! next look at the record again:
//!
//! * `e + 1` when the walk re-injects;
//! * otherwise the first later epoch with an event that touches a visited
//!   node, by the rule above — each later epoch's touched nodes (a failed
//!   node and its neighbours, a failed link's two endpoints) are computed
//!   once per schedule;
//! * or the epoch at which the pair's destination fails, if that is sooner:
//!   a walk that dead-ends short of its destination never visits it, but the
//!   pair leaves the universe then all the same. The source is always
//!   visited.
//!
//! Before that epoch the loop above reuses the record unchanged; at it, the
//! pair is re-walked or dropped. This is sound because fault sets only grow
//! and a record changes only when its pair is re-walked: an epoch that does
//! not touch a walk's footprint leaves the walk as it is, so the first
//! touching epoch is the one the loop would re-walk it at, and a record
//! with no such epoch is final. The footprint itself is dropped as soon as
//! the rule has been evaluated.
//!
//! Only a record that will be re-walked or dropped keeps its CDG fragment,
//! in one arena of 4- or 8-byte edges. Every other fragment is final and
//! goes into one permanent, per-schedule edge table keyed by edge, which
//! holds the lowest `(src, dest)` rank that contributed each edge. Records
//! sit in a dense table indexed by that rank.
//!
//! Each epoch's union CDG is built once, from the permanent table plus the
//! kept fragments, adding edges in ascending `(lowest contributing rank,
//! from, to)` order. That is the order in which adding every pair's sorted
//! fragment in `(src, dest)` order first meets each edge, and the graph
//! keeps first occurrences, so the adjacency order — and the cycle
//! [`DependencyGraph::find_cycle`] reports — is the one a graph built from
//! every fragment would have.
//!
//! The `paranoid` mode
//! recomputes every epoch from scratch with the destination-major sweep of
//! [`crate::sweep`] and diffs the pair universe, every pair's fate and state
//! count, and every destination's CDG edge set against the differential
//! result; any divergence fails the case. Since the two sides share no
//! walker, each paranoid run also cross-checks the shared walker against the
//! per-pair one. Its edge-set diff needs every pair's fragment, so in
//! paranoid mode every record keeps its fragment and the permanent table
//! stays empty; that is the only difference in what the pass retains.

use crate::exact::{dependency_edges, resource_count, FoldScratch, Granularity};
use crate::reach::{check_pair, PairVerdict};
use crate::relation::{PairWalker, StateBudgetExceeded};
use crate::sweep::{sweep_destinations, DestinationOutcome};
use crate::witness::{describe_cycle, describe_pair_verdict};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::Range;
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

/// Everything remembered about one pair's walk, enabling reuse at later
/// epochs.
#[derive(Clone, Debug)]
struct PairRecord {
    /// Reachability verdict of the walk, unless it delivers (most do).
    failure: Option<Box<PairVerdict>>,
    /// Whether the walk contains a re-injection (software-layer recovery).
    /// Such walks depend on a global shortest-path query and must be
    /// re-walked on any fault change.
    global: bool,
    /// States enumerated by the walk.
    states: u32,
    /// The epoch at which the pair is next re-walked or dropped, or
    /// [`NEVER`].
    next_rewalk: u32,
    /// The tracked-layer CDG edges contributed by the walk (sorted,
    /// deduplicated), when kept in the arena; a final fragment lives in the
    /// permanent table instead.
    fragment: Option<Span>,
}

/// No later epoch re-walks or drops the record.
const NEVER: u32 = u32::MAX;

/// A CDG edge between two resource ids.
type Edge = (u32, u32);

/// A fragment's words in an [`Arena`].
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// Kept CDG fragments, back to back in one buffer. An edge takes one word,
/// `from * resources + to`, when every such number fits in 32 bits, and two
/// words otherwise; either way a sorted fragment's words stay in
/// `(from, to)` order.
#[derive(Debug)]
struct Arena {
    words: Vec<u32>,
    /// The resource count when an edge takes one word.
    packed: Option<u32>,
}

impl Arena {
    fn new(resources: usize) -> Self {
        assert!(
            u32::try_from(resources).is_ok(),
            "{resources} CDG resources do not fit 32-bit ids"
        );
        Arena {
            words: Vec::new(),
            packed: u32::try_from(resources * resources)
                .is_ok()
                .then_some(resources as u32),
        }
    }

    /// Moves the fragments out into the returned arena, leaving this one
    /// empty, with the same edge width.
    fn take(&mut self) -> Self {
        Arena {
            words: std::mem::take(&mut self.words),
            packed: self.packed,
        }
    }

    fn span_from(&self, start: usize) -> Span {
        let word = |n: usize| u32::try_from(n).expect("the fragment arena fits 32-bit offsets");
        Span {
            start: word(start),
            end: word(self.words.len()),
        }
    }

    /// Appends a fragment.
    fn push(&mut self, edges: &[(usize, usize)]) -> Span {
        let start = self.words.len();
        // Resource ids fit in 32 bits (checked in `new`).
        for &(from, to) in edges {
            let (from, to) = (from as u32, to as u32);
            match self.packed {
                Some(resources) => self.words.push(from * resources + to),
                None => self.words.extend([from, to]),
            }
        }
        self.span_from(start)
    }

    /// Appends a fragment of `old`, an arena of the same width.
    fn copy(&mut self, old: &Arena, span: Span) -> Span {
        let start = self.words.len();
        self.words.extend_from_slice(&old.words[span.range()]);
        self.span_from(start)
    }

    fn edges(&self, span: Span) -> impl Iterator<Item = Edge> + '_ {
        let packed = self.packed;
        let width = if packed.is_some() { 1 } else { 2 };
        self.words[span.range()]
            .chunks_exact(width)
            .map(move |words| match packed {
                Some(resources) => (words[0] / resources, words[0] % resources),
                None => (words[0], words[1]),
            })
    }
}

/// Where a walk's CDG fragment goes: the arena when a later epoch re-walks
/// or drops the pair (always, in paranoid mode), the permanent table
/// otherwise.
#[derive(Debug)]
struct Fragments {
    kept: Arena,
    /// Every final fragment's edges, each with the lowest pair rank that
    /// contributed it.
    permanent: HashMap<Edge, u32, BuildWordHasher>,
    keep_all: bool,
}

impl Fragments {
    fn file(&mut self, rank: u32, next_rewalk: u32, edges: &[(usize, usize)]) -> Option<Span> {
        if self.keep_all || next_rewalk != NEVER {
            return Some(self.kept.push(edges));
        }
        for &(from, to) in edges {
            let lowest = self
                .permanent
                .entry((from as u32, to as u32))
                .or_insert(rank);
            *lowest = (*lowest).min(rank);
        }
        None
    }
}

/// Every pair's record, indexed by the pair's rank `src * endpoints + dest`
/// (endpoints are the dense id prefix), which orders pairs as `(src, dest)`
/// does. A slot is empty for `src == dest` and for a pair with a faulty
/// endpoint.
struct PairTable {
    endpoints: usize,
    slots: Vec<Option<PairRecord>>,
}

impl PairTable {
    fn new(endpoints: usize) -> Self {
        assert!(
            u32::try_from(endpoints * endpoints).is_ok(),
            "{endpoints} endpoints have more pairs than 32-bit ranks"
        );
        PairTable {
            endpoints,
            slots: vec![None; endpoints * endpoints],
        }
    }

    fn rank(&self, src: NodeId, dest: NodeId) -> usize {
        src.index() * self.endpoints + dest.index()
    }

    fn pair(&self, rank: usize) -> (NodeId, NodeId) {
        let node = |i: usize| NodeId(i as u32);
        (node(rank / self.endpoints), node(rank % self.endpoints))
    }

    fn get(&self, key: &(NodeId, NodeId)) -> Option<&PairRecord> {
        self.slots[self.rank(key.0, key.1)].as_ref()
    }

    /// The records in `(src, dest)` order.
    fn iter(&self) -> impl Iterator<Item = ((NodeId, NodeId), &PairRecord)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(rank, slot)| slot.as_ref().map(|rec| (self.pair(rank), rec)))
    }
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
    fn verdict(&self) -> &PairVerdict {
        static DELIVERS: PairVerdict = PairVerdict::Delivers;
        self.failure.as_deref().unwrap_or(&DELIVERS)
    }

    fn fate(&self) -> PairFate {
        fate_of(self.verdict(), self.global)
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

/// What the schedule's events mean for the records, computed once per
/// schedule: the nodes whose visit by a walk makes each epoch re-walk it,
/// and the epoch each node fails at.
struct Touches {
    /// Per epoch, the nodes its events touch (none at epoch 0).
    touched: Vec<Vec<NodeId>>,
    /// Per node, the epoch a node event fails it at, or [`NEVER`].
    fails_at: Vec<u32>,
}

impl Touches {
    /// Routing queries are local to the visited nodes and their incident
    /// channels, so an event can change a walk only when it fails a visited
    /// node, a neighbour of one, or a link with a visited endpoint.
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
                            fails_at[node.index()] = ei as u32;
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
    fn next_after(&self, epoch: usize) -> Vec<u32> {
        let mut next = vec![NEVER; self.fails_at.len()];
        for (ei, nodes) in self.touched.iter().enumerate().skip(epoch + 1).rev() {
            for node in nodes {
                next[node.index()] = ei as u32;
            }
        }
        next
    }
}

/// The record loop's per-pair machinery for one epoch: a [`PairWalker`]
/// under the epoch's faults, recycling each walk's buffers, and the
/// dependency dataflow's buffers, both cleared and reused from one pair to
/// the next. The dataflow's buffers and the fragment store outlive the
/// epoch: [`verify_schedule`] owns them.
struct Recorder<'a, A> {
    net: &'a AnyTopology,
    v: usize,
    granularity: Granularity,
    state_budget: usize,
    pairs: PairWalker<'a, A>,
    fold: &'a mut FoldScratch,
    fragments: &'a mut Fragments,
    /// This epoch and the number of epochs.
    epoch: u32,
    epochs: u32,
    /// [`Touches::next_after`] this epoch.
    next_touch: Vec<u32>,
    fails_at: &'a [u32],
}

impl<A: RoutingAlgorithm> Recorder<'_, A> {
    /// Walks one pair under the epoch's faults and distils the record the
    /// differential pass needs: verdict, global flag, the epoch it is next
    /// re-walked or dropped at, and its CDG fragment, filed by that epoch.
    fn record(
        &mut self,
        rank: usize,
        src: NodeId,
        dest: NodeId,
    ) -> Result<PairRecord, StateBudgetExceeded> {
        let walk = self.pairs.walk(src, dest, self.state_budget)?;
        let global = walk.reinjects();
        let touched = if global {
            self.epoch + 1
        } else {
            walk.iter()
                .map(|(_, state)| self.next_touch[state.node.index()])
                .min()
                .unwrap_or(NEVER)
        };
        // The source is always visited; a walk that dead-ends short of its
        // destination may never visit it.
        let next = touched.min(self.fails_at[dest.index()]);
        let next_rewalk = if next < self.epochs { next } else { NEVER };
        let edges = dependency_edges(
            self.net,
            walk.graph(),
            [walk.start()],
            self.v,
            self.granularity,
            self.fold,
        );
        let fragment = self.fragments.file(rank as u32, next_rewalk, edges);
        let verdict = check_pair(&walk);
        let record = PairRecord {
            failure: (verdict != PairVerdict::Delivers).then(|| Box::new(verdict)),
            global,
            states: u32::try_from(walk.len()).expect("a walk's states fit in 32 bits"),
            next_rewalk,
            fragment,
        };
        self.pairs.recycle(walk);
        Ok(record)
    }
}

/// Pairs re-walked, pairs reused and states enumerated at one epoch.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    rewalked: usize,
    reused: usize,
    states: usize,
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

/// Walks every healthy pair of `faults`, one at a time, into the table the
/// differential pass starts from.
fn walk_all_pairs<A: RoutingAlgorithm>(
    recorder: &mut Recorder<'_, A>,
    table: &mut PairTable,
    faults: &FaultSet,
) -> Result<Tally, StateBudgetExceeded> {
    let net = recorder.net;
    let mut tally = Tally::default();
    for src in net.endpoints() {
        if faults.is_node_faulty(src) {
            continue;
        }
        for dest in net.endpoints() {
            if dest == src || faults.is_node_faulty(dest) {
                continue;
            }
            let rank = table.rank(src, dest);
            let rec = recorder.record(rank, src, dest)?;
            tally.rewalked += 1;
            tally.states += rec.states as usize;
            table.slots[rank] = Some(rec);
        }
    }
    Ok(tally)
}

/// Brings the table to a later epoch: drops the pairs whose endpoints just
/// failed (fault sets only grow), re-walks the pairs due at this epoch and
/// moves every other kept fragment into a fresh arena, in rank order.
fn rewalk_due_pairs<A: RoutingAlgorithm>(
    recorder: &mut Recorder<'_, A>,
    table: &mut PairTable,
    faults: &FaultSet,
) -> Result<Tally, StateBudgetExceeded> {
    let old = recorder.fragments.kept.take();
    let mut tally = Tally::default();
    for rank in 0..table.slots.len() {
        let (src, dest) = table.pair(rank);
        let Some(rec) = &mut table.slots[rank] else {
            continue;
        };
        if faults.is_node_faulty(src) || faults.is_node_faulty(dest) {
            // A failing endpoint makes the pair due, so no fragment of a
            // dropped pair is in the permanent table.
            debug_assert_eq!(rec.next_rewalk, recorder.epoch, "dropped pair was not due");
            table.slots[rank] = None;
        } else if rec.next_rewalk == recorder.epoch {
            *rec = recorder.record(rank, src, dest)?;
            tally.rewalked += 1;
            tally.states += rec.states as usize;
        } else {
            tally.reused += 1;
            if let Some(span) = rec.fragment {
                rec.fragment = Some(recorder.fragments.kept.copy(&old, span));
            }
        }
    }
    Ok(tally)
}

/// The epoch's union CDG: the permanent table's edges merged with the kept
/// fragments, in ascending `(lowest contributing rank, from, to)` order (see
/// the module docs). A permanent record keeps no fragment, so no rank is in
/// both.
fn union_cdg(resources: usize, table: &PairTable, fragments: &Fragments) -> DependencyGraph {
    let mut permanent: Vec<(u32, Edge)> = fragments
        .permanent
        .iter()
        .map(|(&edge, &rank)| (rank, edge))
        .collect();
    permanent.sort_unstable();
    let mut permanent = permanent.into_iter().peekable();
    let mut graph = DependencyGraph::new(resources);
    let mut add = |(from, to): Edge| graph.add_edge(from as usize, to as usize);
    for (rank, slot) in table.slots.iter().enumerate() {
        let Some(span) = slot.as_ref().and_then(|rec| rec.fragment) else {
            continue;
        };
        while let Some((_, edge)) = permanent.next_if(|&(lowest, _)| (lowest as usize) < rank) {
            add(edge);
        }
        fragments.kept.edges(span).for_each(&mut add);
    }
    permanent.for_each(|(_, edge)| add(edge));
    graph
}

/// Builds the epoch report from the record table: union CDG, fate counts,
/// failure analysis (cyclic CDG, spurious dead end, livelock) and witnesses.
/// Its `wall_ms` is left for the caller to take.
#[allow(clippy::too_many_arguments)]
fn epoch_report(
    net: &AnyTopology,
    v: usize,
    granularity: Granularity,
    resources: usize,
    epoch: &ScheduleEpoch,
    table: &PairTable,
    fragments: &Fragments,
    tally: Tally,
) -> EpochReport {
    let graph = union_cdg(resources, table, fragments);
    let cdg_cycle = graph.find_cycle();
    let components = component_labels(net, &epoch.faults);
    let (mut routable, mut rerouted, mut disconnected) = (0usize, 0usize, 0usize);
    let mut failure = None;
    let mut witness = Vec::new();
    let mut first_disconnect: Option<(NodeId, NodeId)> = None;
    for ((src, dest), rec) in table.iter() {
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
        if let Some(key) = first_disconnect {
            // Evidence (not a violation): the first legitimately
            // disconnected pair and its dead-end path.
            if let Some(rec) = table.get(&key) {
                witness = describe_pair_verdict(net, rec.verdict());
            }
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

fn fates_of(table: &PairTable) -> Vec<PairFateEntry> {
    table
        .iter()
        .map(|((src, dest), rec)| PairFateEntry {
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
    let epoch_count =
        u32::try_from(epochs_spec.len()).expect("a schedule has fewer than 2^32 epochs");
    let touches = Touches::new(net, &epochs_spec);
    let mut table = PairTable::new(net.num_endpoints());
    let mut fragments = Fragments {
        kept: Arena::new(resources),
        permanent: HashMap::default(),
        keep_all: paranoid,
    };
    let mut epochs = Vec::with_capacity(epochs_spec.len());
    let mut fates = Vec::with_capacity(epochs_spec.len());
    let mut divergences = Vec::new();
    let mut fold = FoldScratch::default();

    for (ei, epoch) in epochs_spec.iter().enumerate() {
        let started = Instant::now();
        let tally = {
            let mut recorder = Recorder {
                net,
                v,
                granularity,
                state_budget,
                pairs: PairWalker::new(net, algo, &epoch.faults, v),
                fold: &mut fold,
                fragments: &mut fragments,
                epoch: ei as u32,
                epochs: epoch_count,
                next_touch: touches.next_after(ei),
                fails_at: &touches.fails_at,
            };
            if ei == 0 {
                walk_all_pairs(&mut recorder, &mut table, &epoch.faults)?
            } else {
                rewalk_due_pairs(&mut recorder, &mut table, &epoch.faults)?
            }
        };
        let mut report = epoch_report(
            net,
            v,
            granularity,
            resources,
            epoch,
            &table,
            &fragments,
            tally,
        );
        if paranoid {
            diff_against_scratch(
                net,
                algo,
                epoch,
                v,
                state_budget,
                granularity,
                &table,
                &fragments.kept,
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
        fates.push(fates_of(&table));
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
/// diffs the differential record table against it: same pair universe, same
/// fates and state counts, same CDG edges into every destination. Paranoid
/// mode keeps every fragment in `kept`.
#[allow(clippy::too_many_arguments)]
fn diff_against_scratch<A: RoutingAlgorithm>(
    net: &AnyTopology,
    algo: &A,
    epoch: &ScheduleEpoch,
    v: usize,
    state_budget: usize,
    granularity: Granularity,
    differential: &PairTable,
    kept: &Arena,
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
            let span = diff.fragment.expect("paranoid mode keeps every fragment");
            edges.extend(
                kept.edges(span)
                    .map(|(from, to)| (from as usize, to as usize)),
            );
            let fate = fate_of(&pair.verdict, pair.reinjects);
            if diff.fate() != fate {
                divergences.push(format!(
                    "cycle {cycle}: pair {} fate {} differentially but {} from scratch",
                    at(&key),
                    diff.fate().name(),
                    fate.name()
                ));
            }
            if diff.states as usize != pair.states {
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
    for (key, _) in differential.iter().filter(|(key, _)| !fresh.contains(key)) {
        divergences.push(format!(
            "cycle {cycle}: differential kept pair {} that a scratch sweep excludes",
            at(&key)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fragments come back as pushed at both edge widths, also after a copy
    /// into the next epoch's arena. Every resource count in the test suite's
    /// schedules packs an edge into one word, so this is the only check of
    /// the two-word width.
    #[test]
    fn arena_round_trips_fragments_at_both_widths() {
        for resources in [9_216, 70_000] {
            let mut arena = Arena::new(resources);
            assert_eq!(arena.packed.is_some(), resources <= 1 << 16);
            let top = resources - 1;
            let first = [(0, 1), (5, top), (top, 0)];
            let second = [(1, 2), (top, top - 1)];
            let (a, b) = (arena.push(&first), arena.push(&second));
            let old = arena.take();
            let copied = arena.copy(&old, b);
            let edges = |arena: &Arena, span| -> Vec<(usize, usize)> {
                arena
                    .edges(span)
                    .map(|(from, to)| (from as usize, to as usize))
                    .collect()
            };
            assert_eq!(edges(&old, a), first);
            assert_eq!(edges(&old, b), second);
            assert_eq!(edges(&arena, copied), second);
            assert_eq!(arena.words.len(), old.words[b.range()].len());
        }
    }
}
