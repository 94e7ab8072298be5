//! The from-scratch sweep: both static checks over every ordered pair of
//! healthy endpoints, one destination at a time.
//!
//! For each destination the sweep fills one [`SharedRelation`] by viewing it
//! from every source, then reads everything off that shared graph:
//!
//! * **per-pair state counts** are the sizes of the views, so the `states`
//!   totals reported everywhere keep meaning "Σ over pairs of the states
//!   reachable from the pair's injection state" — the number per-pair walks
//!   enumerate — not the (several times smaller) number of states expanded;
//! * **the dependency edges** come from *one* dataflow seeded at every
//!   source's injection state (`exact::dependency_edges`), which finds the
//!   union of what the per-pair dataflows find. It seeds the sources one at
//!   a time, in ascending order, so each edge also comes out with the lowest
//!   source whose pair depends on it, at no extra cost;
//! * **reachability** is decided by one pass over the shared graph: with no
//!   dead state and no cycle in it, every view is acyclic with delivering
//!   sinks only. Only a destination where that pass finds something pays for
//!   the per-pair [`check_pair`] traversals, which then yield the same
//!   witnesses as per-pair walks because the views number states alike.
//!
//! The graph is emptied before the next destination starts, so memory stays
//! that of the largest destination: the destination loop owns one
//! [`SharedRelation`] and [`SharedRelation::reset`]s it per destination,
//! which clears its intern table, states, step arena and view marks but
//! keeps their capacity. The dataflow's buffers live as long: the loop hands
//! them to every destination's dataflow, which clears them first.
//! [`crate::matrix::verify_case`], [`crate::exact::extract_exact_cdg`],
//! [`crate::reach::check_reachability`] and every epoch of
//! [`crate::epochs::verify_schedule`], its paranoid recomputation included,
//! are all this one loop; the per-pair
//! `walk_pair → accumulate_cdg → record_pair` pipeline survives as the oracle
//! the sweep is tested against.

use crate::exact::{dependency_edges, resource_count, ExactCdg, FoldScratch, Granularity};
use crate::reach::{check_pair, find_state_cycle, record_verdict, PairVerdict, ReachReport};
use crate::relation::{PairView, SharedRelation, StateBudgetExceeded, Terminal};
use torus_faults::FaultSet;
use torus_routing::cdg::DependencyGraph;
use torus_routing::RoutingAlgorithm;
use torus_topology::{AnyTopology, NodeId};

/// What the sweep proved about one ordered pair.
#[derive(Clone, Debug)]
pub struct PairOutcome {
    /// Source of the pair.
    pub src: NodeId,
    /// States reachable from the pair's injection state.
    pub states: usize,
    /// Whether some schedule absorbs and re-injects the message.
    pub reinjects: bool,
    /// The pair's reachability verdict, with its witness on failure.
    pub verdict: PairVerdict,
}

/// What the sweep proved about every pair into one destination.
#[derive(Clone, Debug)]
pub struct DestinationOutcome {
    /// The destination.
    pub dest: NodeId,
    /// Tracked-layer dependency edges of all pairs into `dest` as
    /// `(from, to, lowest source)`: sorted by `(from, to)`, one entry per
    /// edge, each with the lowest source whose pair depends on it.
    pub edges: Vec<(usize, usize, NodeId)>,
    /// One outcome per healthy source, in endpoint order.
    pub pairs: Vec<PairOutcome>,
}

/// The destination loop's state under one fault set: the healthy endpoints,
/// one [`SharedRelation`] reset per destination and the dependency fold's
/// buffers, all reused from one destination to the next.
pub(crate) struct DestinationSweep<'a, A> {
    net: &'a AnyTopology,
    v: usize,
    granularity: Granularity,
    state_budget: usize,
    endpoints: Vec<NodeId>,
    shared: SharedRelation<'a, A>,
    views: Vec<PairView>,
    fold: FoldScratch,
}

impl<'a, A: RoutingAlgorithm> DestinationSweep<'a, A> {
    /// A sweep of `algo`'s relation on `net` under `faults`, failing any pair
    /// with more than `state_budget` reachable states.
    pub(crate) fn new(
        net: &'a AnyTopology,
        algo: &'a A,
        faults: &'a FaultSet,
        v: usize,
        granularity: Granularity,
        state_budget: usize,
    ) -> Self {
        let endpoints: Vec<NodeId> = net
            .endpoints()
            .filter(|&n| !faults.is_node_faulty(n))
            .collect();
        // The relation is pointed at each destination before it is used.
        let shared = SharedRelation::new(net, algo, faults, v, NodeId(0));
        DestinationSweep {
            net,
            v,
            granularity,
            state_budget,
            views: Vec::with_capacity(endpoints.len()),
            endpoints,
            shared,
            fold: FoldScratch::default(),
        }
    }

    /// The healthy endpoints, ascending: the destinations and sources.
    pub(crate) fn endpoints(&self) -> &[NodeId] {
        &self.endpoints
    }

    /// Proves every pair into `dest` from every other healthy endpoint, in
    /// ascending source order. Each view is handed to `viewed`, with the
    /// nodes of the states it reaches, as soon as it is complete. The
    /// dependency fold seeds the sources one at a time in that order, which
    /// labels each edge with its lowest source (see `fold_dependencies`).
    pub(crate) fn sweep(
        &mut self,
        dest: NodeId,
        mut viewed: impl FnMut(&PairView, &mut dyn Iterator<Item = NodeId>),
    ) -> Result<DestinationOutcome, StateBudgetExceeded> {
        let shared = &mut self.shared;
        shared.reset(dest);
        self.views.clear();
        for &src in self.endpoints.iter().filter(|&&src| src != dest) {
            let view = shared.view(src, self.state_budget)?;
            viewed(&view, &mut shared.viewed_nodes());
            self.views.push(view);
        }
        let graph = shared.graph();
        let views = &self.views;
        let edges = dependency_edges(
            self.net,
            graph,
            views.iter().map(|view| view.start),
            self.v,
            self.granularity,
            &mut self.fold,
        )
        .iter()
        .map(|&(from, to, first)| (from, to, views[first].src))
        .collect();
        let all_deliver = graph
            .iter()
            .all(|(_, state)| state.terminal != Some(Terminal::Dead))
            && find_state_cycle(graph, 0..graph.len()).is_none();
        let mut pairs = Vec::with_capacity(views.len());
        for view in views {
            let verdict = if all_deliver {
                PairVerdict::Delivers
            } else {
                check_pair(&shared.walk(view.src, self.state_budget)?)
            };
            pairs.push(PairOutcome {
                src: view.src,
                states: view.len,
                reinjects: view.reinjects,
                verdict,
            });
        }
        Ok(DestinationOutcome { dest, edges, pairs })
    }
}

/// Runs both checks for every ordered pair of healthy endpoints of `net`
/// under `faults`, destination-major, handing each destination's outcome to
/// `visit` as soon as it is complete. Fails when any pair has more than
/// `state_budget` reachable states.
pub fn sweep_destinations<A: RoutingAlgorithm>(
    net: &AnyTopology,
    algo: &A,
    faults: &FaultSet,
    v: usize,
    granularity: Granularity,
    state_budget: usize,
    mut visit: impl FnMut(DestinationOutcome),
) -> Result<(), StateBudgetExceeded> {
    let mut sweep = DestinationSweep::new(net, algo, faults, v, granularity, state_budget);
    for i in 0..sweep.endpoints().len() {
        let dest = sweep.endpoints()[i];
        visit(sweep.sweep(dest, |_, _| {})?);
    }
    Ok(())
}

/// Sweeps one fully specified case into its exact dependency graph and its
/// reachability report. Each destination's edges enter the graph in sorted
/// order, so the graph — and any cycle witness read off it — is the same on
/// every run.
pub fn sweep_case<A: RoutingAlgorithm>(
    net: &AnyTopology,
    algo: &A,
    faults: &FaultSet,
    v: usize,
    granularity: Granularity,
    state_budget: usize,
) -> Result<(ExactCdg, ReachReport), StateBudgetExceeded> {
    let mut graph = DependencyGraph::new(resource_count(net, v, granularity));
    let mut reach = ReachReport::default();
    let outcome = |destination: DestinationOutcome| {
        for (from, to, _) in destination.edges {
            graph.add_edge(from, to);
        }
        for pair in destination.pairs {
            record_verdict(
                &mut reach,
                pair.states,
                pair.verdict,
                pair.src,
                destination.dest,
            );
        }
    };
    sweep_destinations(net, algo, faults, v, granularity, state_budget, outcome)?;
    let cdg = ExactCdg {
        graph,
        virtual_channels: v,
        granularity,
        states_explored: reach.states_explored,
        pairs: reach.pairs,
    };
    Ok((cdg, reach))
}
