//! Exhaustive enumeration of a routing relation as a finite state graph.
//!
//! A routing algorithm, observed from the network's point of view, is a
//! relation between *states* — (current node, message header) pairs — and the
//! channels it requests next. Because every header field is bounded (the via
//! chain, the forced-direction overrides, the dateline flags, the shrinking
//! misroute budget), the set of states reachable from one injection is
//! finite, and the whole relation can be walked exactly: no simulation, no
//! sampling, no hand-derived model. Both walkers here drive the real
//! [`RoutingAlgorithm`] implementation — `route`, `note_hop`,
//! `deterministic_output` and the software-layer `reroute_on_fault`, exactly
//! as the simulator engines do — and materialise every transition the
//! algorithm can take under a fixed fault set.
//!
//! * [`walk_pair`] walks one (source, destination) pair from scratch. It is
//!   the slow, obviously-correct oracle: one `route()` call per state of the
//!   pair, nothing remembered between pairs. It serves as the oracle; every
//!   proof, schedule epochs included, runs on [`SharedRelation`].
//! * [`SharedRelation`] memoises the relation per (destination, fault set),
//!   and `SharedRelation::reset` empties it for the next destination
//!   without giving up its buffers.
//!   No routing function reads `header.source` (nor the hop and absorption
//!   counters), so every source's walk to one destination re-derives the
//!   suffix states the other sources already derived; the shared walker
//!   interns states with `source` projected out as well and expands each at
//!   most once. An ordered pair is then a breadth-first *view* of the shared
//!   graph from the pair's injection state. The view discovers states in
//!   exactly the order `walk_pair` numbers them, so per-pair state counts,
//!   the state budget and the witnesses `crate::reach::check_pair` reads
//!   off a materialised view ([`SharedRelation::walk`]) are those of the
//!   per-pair walk.
//!
//! A walk's states are one flat [`StateGraph`]: a vector of [`StateNode`]s
//! and one arena of `Copy` [`Step`]s in which each state owns a contiguous
//! span, so expanding a state appends to two buffers and allocates nothing
//! once they have grown.
//!
//! The resulting state graphs are the common substrate of the two static
//! checks: exact channel-dependency-graph extraction ([`crate::exact`]) and
//! reachability/progress verification ([`crate::reach`]);
//! [`crate::sweep`] runs both over every destination's shared graph.

use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;
use torus_faults::FaultSet;
use torus_routing::hash::BuildWordHasher;
use torus_routing::{RouteDecision, RouteHeader, RoutingAlgorithm, VcRange};
use torus_topology::{AnyTopology, Direction, NodeId};

/// Index of a state inside a [`RelationWalk`].
pub type StateId = usize;

/// One outgoing transition of a routing state.
#[derive(Clone, Copy, Debug)]
pub enum Step {
    /// The head flit crosses the channel `(dim, dir)` out of the state's
    /// node, riding one of the listed virtual channels.
    Hop {
        /// Dimension of the crossed channel.
        dim: usize,
        /// Direction of the crossed channel.
        dir: Direction,
        /// Virtual channels the algorithm permits on this candidate.
        vcs: VcRange,
        /// Whether the candidate belongs to the analysed (deterministic /
        /// escape) layer: all candidates of a deterministic-flavour
        /// algorithm, only the escape candidates of an adaptive one.
        tracked: bool,
        /// State reached after the hop.
        next: StateId,
    },
    /// The message is absorbed at the node (its requested output is faulty),
    /// its header is rewritten by the software layer, and it is re-injected
    /// at the same node — releasing every channel it held.
    Reinject {
        /// State the rewritten message is re-injected into.
        next: StateId,
    },
}

impl Step {
    /// The state this transition leads to.
    pub fn next(&self) -> StateId {
        match self {
            Step::Hop { next, .. } | Step::Reinject { next } => *next,
        }
    }
}

/// Terminal classification of a state without outgoing transitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Terminal {
    /// The message is consumed at its final destination.
    Delivered,
    /// The message was absorbed and the software layer found no route
    /// (`reroute_on_fault` returned `false`): a dead end.
    Dead,
}

/// One state of the walk: the routing-relevant part of a (node, header)
/// pair. Its transitions live in its [`StateGraph`]'s step arena
/// ([`StateGraph::steps`]).
#[derive(Clone, Debug)]
pub struct StateNode {
    /// Node the message head occupies.
    pub node: NodeId,
    /// The header, projected onto what identifies the state: hop and
    /// absorption counters zeroed (and, in a [`SharedRelation`], the source).
    pub header: RouteHeader,
    /// Terminal classification, if the state has no outgoing transition.
    pub terminal: Option<Terminal>,
    /// This state's span of the graph's step arena.
    steps: Range<u32>,
}

/// A state graph in two flat buffers: the states, and one arena holding
/// every state's transitions, each state's contiguous. Emptied and refilled
/// rather than reallocated by the walkers that reuse one.
#[derive(Clone, Debug, Default)]
pub struct StateGraph {
    states: Vec<StateNode>,
    steps: Vec<Step>,
}

impl StateGraph {
    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True if the graph holds no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state with the given id.
    #[inline]
    pub fn state(&self, id: StateId) -> &StateNode {
        &self.states[id]
    }

    /// Every transition the algorithm permits from state `id`, in candidate
    /// order.
    #[inline]
    pub fn steps(&self, id: StateId) -> &[Step] {
        let span = &self.states[id].steps;
        &self.steps[span.start as usize..span.end as usize]
    }

    /// Iterates over `(id, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, &StateNode)> {
        self.states.iter().enumerate()
    }

    /// Appends an unexpanded state.
    fn push_state(&mut self, node: NodeId, header: RouteHeader) -> StateId {
        self.states.push(StateNode {
            node,
            header,
            terminal: None,
            steps: 0..0,
        });
        self.states.len() - 1
    }

    /// Appends a state with its transitions and terminal classification.
    pub(crate) fn push_expanded(
        &mut self,
        node: NodeId,
        header: RouteHeader,
        steps: impl IntoIterator<Item = Step>,
        terminal: Option<Terminal>,
    ) -> StateId {
        let id = self.push_state(node, header);
        let first = self.arena_end();
        self.steps.extend(steps);
        self.close_steps(id, first);
        self.states[id].terminal = terminal;
        id
    }

    /// The arena index the next pushed step gets.
    fn arena_end(&self) -> u32 {
        u32::try_from(self.steps.len()).expect("step arena fits in 32-bit indices")
    }

    /// Gives state `id` the steps pushed since the arena ended at `first`.
    fn close_steps(&mut self, id: StateId, first: u32) {
        self.states[id].steps = first..self.arena_end();
    }

    /// Empties the graph, keeping its buffers' capacity.
    fn clear(&mut self) {
        self.states.clear();
        self.steps.clear();
    }
}

/// The complete reachable state graph of one (source, destination) pair.
#[derive(Clone, Debug)]
pub struct RelationWalk {
    graph: StateGraph,
    start: StateId,
}

impl RelationWalk {
    /// The injection state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Number of reachable states.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// True if the walk holds no states (never produced by [`walk_pair`]).
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// The state with the given id.
    pub fn state(&self, id: StateId) -> &StateNode {
        self.graph.state(id)
    }

    /// The transitions out of state `id`.
    pub fn steps(&self, id: StateId) -> &[Step] {
        self.graph.steps(id)
    }

    /// Iterates over `(id, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, &StateNode)> {
        self.graph.iter()
    }

    /// Whether some state absorbs and re-injects the message.
    pub fn reinjects(&self) -> bool {
        self.graph
            .steps
            .iter()
            .any(|step| matches!(step, Step::Reinject { .. }))
    }

    /// The state graph, indexed by [`StateId`].
    pub fn graph(&self) -> &StateGraph {
        &self.graph
    }
}

/// The per-pair walk exceeded its state budget — the configuration is too
/// large for exact analysis (or the routing relation has blown up, which is
/// itself a finding worth reporting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateBudgetExceeded {
    /// The configured maximum number of states per pair.
    pub limit: usize,
}

impl std::fmt::Display for StateBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "routing-relation walk exceeded the state budget of {} states per pair",
            self.limit
        )
    }
}

impl std::error::Error for StateBudgetExceeded {}

/// Projects a header onto the state key of a per-pair walk: hop and
/// absorption counters do not influence any routing decision, so folding them
/// together keeps the state space finite without losing exactness.
fn project_counters(header: &mut RouteHeader) {
    header.hops = 0;
    header.absorptions = 0;
}

/// The state key of a [`SharedRelation`]: [`project_counters`] with `source`
/// projected out too, so walks from different sources meet in one state.
/// `crates/routing/tests/route_purity.rs` checks that no shipped algorithm
/// reads the field.
fn project_counters_and_source(header: &mut RouteHeader) {
    project_counters(header);
    header.source = NodeId(0);
}

/// The interned states of a walk and the routing context that expands them.
/// Interning hashes a whole header per transition, so the table uses the
/// routing crate's word hasher rather than SipHash.
struct Walker<'a, A> {
    net: &'a AnyTopology,
    algo: &'a A,
    faults: &'a FaultSet,
    v: usize,
    all_tracked: bool,
    project: fn(&mut RouteHeader),
    graph: StateGraph,
    ids: HashMap<(NodeId, RouteHeader), StateId, BuildWordHasher>,
}

impl<'a, A: RoutingAlgorithm> Walker<'a, A> {
    fn new(
        net: &'a AnyTopology,
        algo: &'a A,
        faults: &'a FaultSet,
        v: usize,
        project: fn(&mut RouteHeader),
    ) -> Self {
        Walker {
            net,
            algo,
            faults,
            v,
            all_tracked: algo.flavor() == torus_routing::RoutingFlavor::Deterministic,
            project,
            graph: StateGraph::default(),
            ids: HashMap::default(),
        }
    }

    /// Forgets every state, keeping the table's and the graph's capacity.
    fn clear(&mut self) {
        self.ids.clear();
        self.graph.clear();
    }

    /// The id of the state `(node, header)` under the walk's projection,
    /// created unexpanded when new. A header is fixed-size unless its via
    /// chain outgrew `torus_routing::header::VIA_INLINE`, so neither the key
    /// moved into the table nor the copy kept in the state list allocates.
    fn intern(&mut self, node: NodeId, mut header: RouteHeader) -> StateId {
        (self.project)(&mut header);
        match self.ids.entry((node, header)) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(new) => {
                let id = self.graph.push_state(node, new.key().1.clone());
                *new.insert(id)
            }
        }
    }

    /// Whether [`Walker::expand`] has run on `id`: it leaves every state with
    /// a transition or a terminal classification.
    fn is_expanded(&self, id: StateId) -> bool {
        let state = self.graph.state(id);
        state.terminal.is_some() || !state.steps.is_empty()
    }

    /// Asks the algorithm what it does in state `id` (one `route()` call) and
    /// records the transitions at the end of the step arena, interning their
    /// successors in candidate order.
    ///
    /// Absorption is handled exactly as in the simulator engines: the blocked
    /// output reported to `reroute_on_fault` is the algorithm's deterministic
    /// output (falling back to `(0, Plus)` when the header is already at its
    /// target), and a successful reroute re-injects the rewritten header at
    /// the same node with its per-traversal dateline flags reset.
    fn expand(&mut self, id: StateId) {
        let (net, algo, faults) = (self.net, self.algo, self.faults);
        let node = self.graph.states[id].node;
        // `route` takes the header mutably but leaves it as it found it (the
        // purity contract on `RoutingAlgorithm::route`), so the stored
        // representative can be lent out instead of cloned.
        let decision = algo.route(net, faults, &mut self.graph.states[id].header, node, self.v);
        let first = self.graph.arena_end();
        match decision {
            RouteDecision::Deliver => {
                self.graph.states[id].terminal = Some(Terminal::Delivered);
            }
            // Defensive: the algorithms absorb instead of returning an empty
            // candidate list, but an empty Forward would be a dead end all
            // the same.
            RouteDecision::Forward(cands) if cands.is_empty() => {
                self.graph.states[id].terminal = Some(Terminal::Dead);
            }
            RouteDecision::Forward(cands) => {
                for c in &cands {
                    let (dim, dir) = (c.dim(), c.dir());
                    let mut next_header = self.graph.states[id].header.clone();
                    algo.note_hop(net, &mut next_header, node, dim, dir);
                    let next_node = net
                        .neighbor(node, dim, dir)
                        .expect("routing candidates cross existing channels");
                    let next = self.intern(next_node, next_header);
                    self.graph.steps.push(Step::Hop {
                        dim,
                        dir,
                        vcs: c.vcs(),
                        tracked: self.all_tracked || c.is_escape(),
                        next,
                    });
                }
            }
            RouteDecision::Absorb => {
                // Mirror the engines' absorption handling bit for bit.
                let mut rewritten = self.graph.states[id].header.clone();
                let blocked = algo
                    .deterministic_output(net, &rewritten, node)
                    .unwrap_or((0, Direction::Plus));
                if algo.reroute_on_fault(net, faults, &mut rewritten, node, blocked) {
                    rewritten.reset_for_injection();
                    let next = self.intern(node, rewritten);
                    self.graph.steps.push(Step::Reinject { next });
                } else {
                    self.graph.states[id].terminal = Some(Terminal::Dead);
                }
            }
        }
        self.graph.close_steps(id, first);
    }
}

/// Walks the routing relation of `algo` for one (source, destination) pair
/// under `faults`, enumerating every reachable (node, header) state and every
/// transition out of it. `v` is the number of virtual channels per physical
/// channel.
pub fn walk_pair<A: RoutingAlgorithm>(
    net: &AnyTopology,
    algo: &A,
    faults: &FaultSet,
    v: usize,
    src: NodeId,
    dest: NodeId,
    state_budget: usize,
) -> Result<RelationWalk, StateBudgetExceeded> {
    let mut walker = Walker::new(net, algo, faults, v, project_counters);
    let start = walker.intern(src, algo.make_header(net, src, dest));
    let mut cursor = 0;
    while cursor < walker.graph.len() {
        if walker.graph.len() > state_budget {
            return Err(StateBudgetExceeded {
                limit: state_budget,
            });
        }
        walker.expand(cursor);
        cursor += 1;
    }
    Ok(RelationWalk {
        graph: walker.graph,
        start,
    })
}

/// What one ordered pair's view of a [`SharedRelation`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairView {
    /// Source of the pair.
    pub src: NodeId,
    /// The pair's injection state in the shared graph.
    pub start: StateId,
    /// States reachable from the injection state: what
    /// [`walk_pair`]`(src, dest).len()` returns.
    pub len: usize,
    /// Whether a reachable state absorbs and re-injects the message.
    pub reinjects: bool,
}

/// The routing relation towards one destination under one fault set, shared
/// by every source: each state is expanded (one `route()` call) at most once,
/// whichever pair's view reaches it first. `SharedRelation::reset` turns
/// it towards another destination, keeping every buffer's capacity.
pub struct SharedRelation<'a, A> {
    walker: Walker<'a, A>,
    dest: NodeId,
    /// `seen[s] == stamp` marks `s` as discovered by the view in progress.
    seen: Vec<u32>,
    stamp: u32,
    /// Discovery order of the latest view (shared ids).
    order: Vec<StateId>,
}

impl<'a, A: RoutingAlgorithm> SharedRelation<'a, A> {
    /// An empty relation towards `dest`; views fill it in.
    pub fn new(
        net: &'a AnyTopology,
        algo: &'a A,
        faults: &'a FaultSet,
        v: usize,
        dest: NodeId,
    ) -> Self {
        SharedRelation {
            walker: Walker::new(net, algo, faults, v, project_counters_and_source),
            dest,
            seen: Vec::new(),
            stamp: 0,
            order: Vec::new(),
        }
    }

    /// Empties the relation and points it at `dest`: what
    /// [`SharedRelation::new`] returns for `dest`, in the buffers of this one.
    pub(crate) fn reset(&mut self, dest: NodeId) {
        self.walker.clear();
        self.dest = dest;
        self.seen.clear();
        self.order.clear();
    }

    /// Every state any view has discovered so far. Each is reachable from
    /// some viewed source, and expanded once its view returned `Ok`.
    pub(crate) fn graph(&self) -> &StateGraph {
        &self.walker.graph
    }

    /// Views the pair `(src, dest)`: a breadth-first traversal from its
    /// injection state that expands the states no earlier view reached. It
    /// numbers states in [`walk_pair`]'s order and applies `state_budget` at
    /// the same points, so it fails exactly when the per-pair walk does.
    pub fn view(
        &mut self,
        src: NodeId,
        state_budget: usize,
    ) -> Result<PairView, StateBudgetExceeded> {
        let header = self
            .walker
            .algo
            .make_header(self.walker.net, src, self.dest);
        let start = self.walker.intern(src, header);
        self.stamp += 1;
        self.order.clear();
        self.discover(start);
        let mut reinjects = false;
        let mut cursor = 0;
        while cursor < self.order.len() {
            if self.order.len() > state_budget {
                return Err(StateBudgetExceeded {
                    limit: state_budget,
                });
            }
            let id = self.order[cursor];
            if !self.walker.is_expanded(id) {
                self.walker.expand(id);
            }
            let span = self.walker.graph.states[id].steps.clone();
            for i in span {
                let step = self.walker.graph.steps[i as usize];
                reinjects |= matches!(step, Step::Reinject { .. });
                self.discover(step.next());
            }
            cursor += 1;
        }
        Ok(PairView {
            src,
            start,
            len: self.order.len(),
            reinjects,
        })
    }

    /// The node of every state the latest view reached, in discovery order.
    pub(crate) fn viewed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let graph = &self.walker.graph;
        self.order.iter().map(move |&id| graph.state(id).node)
    }

    /// Appends `id` to the view in progress unless it is already part of it.
    fn discover(&mut self, id: StateId) {
        if self.seen.len() < self.walker.graph.len() {
            self.seen.resize(self.walker.graph.len(), 0);
        }
        if self.seen[id] != self.stamp {
            self.seen[id] = self.stamp;
            self.order.push(id);
        }
    }

    /// Materialises the view of `(src, dest)` as the [`RelationWalk`]
    /// [`walk_pair`] returns for the pair: same numbering, same transitions
    /// (the headers carry the shared projection, so no source).
    pub fn walk(
        &mut self,
        src: NodeId,
        state_budget: usize,
    ) -> Result<RelationWalk, StateBudgetExceeded> {
        self.view(src, state_budget)?;
        let shared = &self.walker.graph;
        let mut local = vec![usize::MAX; shared.len()];
        for (i, &id) in self.order.iter().enumerate() {
            local[id] = i;
        }
        let mut graph = StateGraph::default();
        for &id in &self.order {
            let state = shared.state(id);
            let steps = shared.steps(id).iter().map(|&step| {
                let mut step = step;
                match &mut step {
                    Step::Hop { next, .. } | Step::Reinject { next } => *next = local[*next],
                }
                step
            });
            graph.push_expanded(state.node, state.header.clone(), steps, state.terminal);
        }
        Ok(RelationWalk { graph, start: 0 })
    }
}
