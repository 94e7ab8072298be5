//! The from-scratch sweep: both static checks over every ordered pair of
//! healthy endpoints, one destination at a time.
//!
//! For each destination the sweep expands one [`SharedRelation`]: the union
//! of every source's walk, breadth-first from their injection states, with
//! the state budget applied to the union. One depth-first search then orders
//! it. Every relation that delivers all its pairs is acyclic, and from its
//! topological order the sweep reads everything without a traversal per
//! source (the topological path):
//!
//! * **per-pair state counts** are the sizes of the views: bitsets of the
//!   sources that reach each state, propagated forward in topological order
//!   and counted per source by a bit-sliced popcount. The `states` totals
//!   reported everywhere keep meaning "Σ over pairs of the states reachable
//!   from the pair's injection state" — the number per-pair walks enumerate
//!   — not the (several times smaller) number of states expanded;
//! * **re-injection, dead ends and the due rule's touch minimum** are
//!   summaries folded backward over successors as the search finishes each
//!   state, so each injection state carries its view's;
//! * **the dependency edges** come from *one* fold that visits each state
//!   once, in topological order (`exact::dependency_edges_topological`):
//!   each held resource carries the lowest source that can hold it, so each
//!   edge comes out with the lowest source whose pair depends on it;
//! * **reachability**: with no cycle, a pair delivers unless its injection
//!   state's summary reaches a dead end; only such a pair is walked
//!   (`check_pair` over its materialised view), for its witness.
//!
//! A union over the state budget, or one whose search meets a state cycle,
//! takes the per-source path instead: one breadth-first view per source,
//! which trips the budget exactly where the pair's own walk would, the
//! phased multi-source fold (`exact::dependency_edges`), which seeds the
//! sources one at a time in ascending order to find the same labels, and
//! `check_pair` for every pair of a destination whose graph holds a dead end
//! or a cycle, with the same witnesses as per-pair walks because the views
//! number states alike. Nothing selects a path but the graph.
//!
//! The graph is emptied before the next destination starts, so memory stays
//! that of the largest destination: the destination loop owns one
//! [`SharedRelation`] and `SharedRelation::reset`s it per destination,
//! which clears its intern table, states, step arena and view marks but
//! keeps their capacity. The topological pass's and the folds' buffers live
//! as long: the loop hands them to every destination, which clears them
//! first. [`crate::matrix::verify_case`],
//! [`crate::exact::extract_exact_cdg`] and every epoch of
//! [`crate::epochs::verify_schedule`], its paranoid recomputation included,
//! are all this one loop; the per-pair
//! `walk_pair → accumulate_cdg → record_pair` pipeline survives as the oracle
//! the sweep is tested against.

use crate::exact::{
    dependency_edges, dependency_edges_topological, resource_count, ExactCdg, FoldScratch,
    Granularity,
};
use crate::reach::{check_pair, find_state_cycle, record_verdict, PairVerdict, ReachReport};
use crate::relation::{PairView, SharedRelation, StateBudgetExceeded, Terminal, TopologicalViews};
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
/// one [`SharedRelation`] reset per destination, the topological pass's and
/// the dependency fold's buffers, all reused from one destination to the
/// next.
pub(crate) struct DestinationSweep<'a, A> {
    net: &'a AnyTopology,
    v: usize,
    granularity: Granularity,
    state_budget: usize,
    endpoints: Vec<NodeId>,
    shared: SharedRelation<'a, A>,
    views: Vec<PairView>,
    topological: TopologicalViews,
    fold: FoldScratch,
    /// Which path the latest [`DestinationSweep::sweep`] took.
    #[cfg(test)]
    path: Path,
}

/// The two ways [`DestinationSweep::sweep`] proves a destination.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    /// One topological pass over the expanded union.
    Topological,
    /// One view per source and the phased fold.
    PerSource,
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
            topological: TopologicalViews::default(),
            fold: FoldScratch::default(),
            #[cfg(test)]
            path: Path::PerSource,
        }
    }

    /// The healthy endpoints, ascending: the destinations and sources.
    pub(crate) fn endpoints(&self) -> &[NodeId] {
        &self.endpoints
    }

    /// Proves every pair into `dest` from every other healthy endpoint, in
    /// ascending source order. Each pair's view is handed to `viewed` with
    /// the smallest `touch` key (indexed by node) over the nodes of the
    /// states it reaches (`usize::MAX` without a key), before the dependency
    /// fold runs.
    ///
    /// The union of the views is expanded first. When it fits the state
    /// budget and has no cycle — every destination whose pairs all deliver
    /// has none — one topological pass counts every view and one fold visit
    /// per state finds the labelled edges. Otherwise the per-source path
    /// runs: it trips the budget where per-pair walks would, and finds the
    /// livelock witnesses.
    pub(crate) fn sweep(
        &mut self,
        dest: NodeId,
        touch: Option<&[usize]>,
        viewed: impl FnMut(&PairView, usize),
    ) -> Result<DestinationOutcome, StateBudgetExceeded> {
        self.shared.reset(dest);
        let sources = sources(&self.endpoints, dest);
        let count = sources.clone().count();
        if self.shared.expand_union(sources, self.state_budget)
            && self.topological.count(self.shared.graph(), count, touch)
        {
            self.sweep_topological(dest, viewed)
        } else {
            self.sweep_per_source(dest, touch, viewed)
        }
    }

    /// [`DestinationSweep::sweep`] once `self.topological` has counted the
    /// expanded, acyclic union. Only a pair whose view holds a dead end is
    /// walked, for its witness.
    fn sweep_topological(
        &mut self,
        dest: NodeId,
        mut viewed: impl FnMut(&PairView, usize),
    ) -> Result<DestinationOutcome, StateBudgetExceeded> {
        #[cfg(test)]
        {
            self.path = Path::Topological;
        }
        let topological = &self.topological;
        self.views.clear();
        for (start, src) in sources(&self.endpoints, dest).enumerate() {
            let reachable = topological.reachable(start);
            let view = PairView {
                src,
                start,
                len: topological.view_len(start),
                reinjects: reachable.reinjects,
            };
            viewed(&view, reachable.touch);
            self.views.push(view);
        }
        let edges = dependency_edges_topological(
            self.net,
            self.shared.graph(),
            topological.topological_order(),
            |s| topological.lowest_source(s),
            self.v,
            self.granularity,
            &mut self.fold,
        );
        let edges = label_sources(edges, &self.views);
        let walked = |view: &PairView| topological.reachable(view.start).dead;
        let pairs = pair_outcomes(&mut self.shared, &self.views, self.state_budget, walked)?;
        Ok(DestinationOutcome { dest, edges, pairs })
    }

    /// [`DestinationSweep::sweep`] one view per source, over a relation
    /// reset to `dest` and expanded as far as the union got: the path of a
    /// union over budget or with a cycle.
    fn sweep_per_source(
        &mut self,
        dest: NodeId,
        touch: Option<&[usize]>,
        mut viewed: impl FnMut(&PairView, usize),
    ) -> Result<DestinationOutcome, StateBudgetExceeded> {
        #[cfg(test)]
        {
            self.path = Path::PerSource;
        }
        let shared = &mut self.shared;
        self.views.clear();
        for src in sources(&self.endpoints, dest) {
            let view = shared.view(src, self.state_budget)?;
            let nearest = touch.map_or(usize::MAX, |key| {
                shared
                    .viewed_nodes()
                    .map(|node| key[node.index()])
                    .min()
                    .unwrap_or(usize::MAX)
            });
            viewed(&view, nearest);
            self.views.push(view);
        }
        let graph = shared.graph();
        let starts = self.views.iter().map(|view| view.start);
        let edges = dependency_edges(
            self.net,
            graph,
            starts,
            self.v,
            self.granularity,
            &mut self.fold,
        );
        let edges = label_sources(edges, &self.views);
        let all_deliver = graph
            .iter()
            .all(|(_, state)| state.terminal != Some(Terminal::Dead))
            && find_state_cycle(graph, 0..graph.len()).is_none();
        let pairs = pair_outcomes(shared, &self.views, self.state_budget, |_| !all_deliver)?;
        Ok(DestinationOutcome { dest, edges, pairs })
    }
}

/// The sources of the pairs into `dest`: every other healthy endpoint, in
/// ascending order.
fn sources(endpoints: &[NodeId], dest: NodeId) -> impl Iterator<Item = NodeId> + Clone + '_ {
    endpoints.iter().copied().filter(move |&src| src != dest)
}

/// A fold's edge list with each label, an index into `views`, replaced by
/// that view's source.
fn label_sources(
    edges: &[(usize, usize, usize)],
    views: &[PairView],
) -> Vec<(usize, usize, NodeId)> {
    edges
        .iter()
        .map(|&(from, to, first)| (from, to, views[first].src))
        .collect()
}

/// One outcome per view: a pair `walked` selects gets `check_pair`'s verdict
/// over its materialised view, with the witness, and every other pair
/// delivers.
fn pair_outcomes<A: RoutingAlgorithm>(
    shared: &mut SharedRelation<'_, A>,
    views: &[PairView],
    state_budget: usize,
    walked: impl Fn(&PairView) -> bool,
) -> Result<Vec<PairOutcome>, StateBudgetExceeded> {
    views
        .iter()
        .map(|view| {
            let verdict = if walked(view) {
                check_pair(&shared.walk(view.src, state_budget)?)
            } else {
                PairVerdict::Delivers
            };
            Ok(PairOutcome {
                src: view.src,
                states: view.len,
                reinjects: view.reinjects,
                verdict,
            })
        })
        .collect()
}

/// Runs both checks for every ordered pair of healthy endpoints of `net`
/// under `faults`, destination-major, handing each destination's outcome to
/// `visit` as soon as it is complete. Fails when any pair has more than
/// `state_budget` reachable states.
pub(crate) fn sweep_destinations<A: RoutingAlgorithm>(
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
        visit(sweep.sweep(dest, None, |_, _| {})?);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{
        matrix_fault_cases, matrix_routings, matrix_schedule_cases, matrix_topologies, MatrixKind,
        STATE_BUDGET,
    };
    use crate::tests::SpinForever;
    use torus_routing::{AnyRouting, Substrate};
    use torus_topology::TopologySpec;

    /// Everything a path of [`DestinationSweep::sweep`] tells about one
    /// destination that does not depend on how the shared graph numbers its
    /// states: per pair `(src, len, reinjects, touch minimum)` as handed to
    /// `viewed`, the labelled edges, and per pair `(src, states, reinjects,
    /// verdict)`.
    #[derive(Debug, PartialEq)]
    struct Proof {
        viewed: Vec<(NodeId, usize, bool, usize)>,
        edges: Vec<(usize, usize, NodeId)>,
        pairs: Vec<(NodeId, usize, bool, PairVerdict)>,
    }

    fn proof(
        viewed: Vec<(NodeId, usize, bool, usize)>,
        outcome: Result<DestinationOutcome, StateBudgetExceeded>,
    ) -> Result<Proof, StateBudgetExceeded> {
        let outcome = outcome?;
        Ok(Proof {
            viewed,
            edges: outcome.edges,
            pairs: outcome
                .pairs
                .into_iter()
                .map(|pair| (pair.src, pair.states, pair.reinjects, pair.verdict))
                .collect(),
        })
    }

    /// Sweeps `dest` as the sweep chooses, then again from a fresh relation
    /// one view per source, and checks that both tell the same. Returns the
    /// path the sweep chose and what it told.
    fn both_paths<A: RoutingAlgorithm>(
        sweep: &mut DestinationSweep<'_, A>,
        dest: NodeId,
        key: &[usize],
        label: &str,
    ) -> (Path, Result<Proof, StateBudgetExceeded>) {
        let mut viewed = Vec::new();
        let chosen = sweep.sweep(dest, Some(key), |view, touch| {
            viewed.push((view.src, view.len, view.reinjects, touch));
        });
        let chosen = proof(viewed, chosen);
        let path = sweep.path;
        sweep.shared.reset(dest);
        let mut viewed = Vec::new();
        let per_source = sweep.sweep_per_source(dest, Some(key), |view, touch| {
            viewed.push((view.src, view.len, view.reinjects, touch));
        });
        assert_eq!(sweep.path, Path::PerSource);
        assert_eq!(
            chosen,
            proof(viewed, per_source),
            "{label}: into {dest:?} via {path:?}"
        );
        (path, chosen)
    }

    /// A per-node key with repeats and `usize::MAX` entries, varied by `salt`.
    fn scrambled_key(net: &AnyTopology, salt: usize) -> Vec<usize> {
        (0..net.num_nodes())
            .map(|n| match (n * 0x9e37 + salt * 0x7f4b) % 23 {
                0..=4 => usize::MAX,
                k => k,
            })
            .collect()
    }

    /// Runs [`both_paths`] on every destination of every static case of
    /// `kind` at both granularities and of every epoch of its schedule
    /// cases; returns how many destinations took each path.
    fn cross_check(kind: MatrixKind) -> (usize, usize) {
        let (mut topological, mut per_source) = (0, 0);
        let mut tally = |path| match path {
            Path::Topological => topological += 1,
            Path::PerSource => per_source += 1,
        };
        for spec in matrix_topologies(kind) {
            let net = spec.build().expect("matrix topologies build");
            let fault_cases = matrix_fault_cases(&net, kind);
            let schedules = matrix_schedule_cases(&net, kind);
            for (routing, algo) in matrix_routings() {
                if algo.supported_on(&net).is_err() {
                    continue;
                }
                let v = algo.min_virtual_channels(&net);
                let label = |case: &str| format!("{}/{routing}/{case}", spec.to_spec_string());
                for (salt, (name, faults)) in fault_cases.iter().enumerate() {
                    let key = scrambled_key(&net, salt);
                    for granularity in [Granularity::PerVc, Granularity::PerChannel] {
                        let mut sweep = DestinationSweep::new(
                            &net,
                            &algo,
                            faults,
                            v,
                            granularity,
                            STATE_BUDGET,
                        );
                        for i in 0..sweep.endpoints().len() {
                            let dest = sweep.endpoints()[i];
                            let case = format!("{} at {granularity:?}", label(name));
                            tally(both_paths(&mut sweep, dest, &key, &case).0);
                        }
                    }
                }
                for (name, schedule) in &schedules {
                    let epochs = schedule.epochs(&net).expect("matrix schedules fit");
                    for (ei, epoch) in epochs.iter().enumerate() {
                        let key = scrambled_key(&net, ei);
                        let mut sweep = DestinationSweep::new(
                            &net,
                            &algo,
                            &epoch.faults,
                            v,
                            Granularity::PerVc,
                            STATE_BUDGET,
                        );
                        for i in 0..sweep.endpoints().len() {
                            let dest = sweep.endpoints()[i];
                            let case = format!("{} epoch {ei}", label(name));
                            tally(both_paths(&mut sweep, dest, &key, &case).0);
                        }
                    }
                }
            }
        }
        (topological, per_source)
    }

    #[test]
    fn the_topological_path_matches_the_per_source_path_on_the_smoke_matrix() {
        let (topological, per_source) = cross_check(MatrixKind::Smoke);
        assert!(
            topological > 3_000,
            "{topological} destinations took the topological path"
        );
        assert_eq!(per_source, 0, "no smoke relation has a state cycle");
    }

    /// The full matrix adds link, region, schedule and fat-tree cases (~5 s
    /// in release, several minutes unoptimised).
    #[test]
    #[ignore]
    fn the_topological_path_matches_the_per_source_path_on_the_full_matrix() {
        let (topological, per_source) = cross_check(MatrixKind::Full);
        assert!(
            topological > 60_000,
            "{topological} destinations took the topological path"
        );
        assert_eq!(per_source, 0, "no matrix relation has a state cycle");
    }

    /// No matrix topology has more than 64 endpoints; `torus:12x2` has 144,
    /// so its views span three blocks of sources, the last one partial.
    #[test]
    fn views_spanning_several_blocks_of_sources_match() {
        let net = TopologySpec::parse("torus:12x2").unwrap().build().unwrap();
        let mut faults = FaultSet::new();
        faults.fail_node(NodeId(30));
        faults.fail_node(NodeId(100));
        let key = scrambled_key(&net, 7);
        let mut checked = 0;
        for (routing, algo) in matrix_routings() {
            if algo.supported_on(&net).is_err() {
                continue;
            }
            let v = algo.min_virtual_channels(&net);
            let mut sweep =
                DestinationSweep::new(&net, &algo, &faults, v, Granularity::PerVc, STATE_BUDGET);
            for i in (0..sweep.endpoints().len()).step_by(5) {
                let dest = sweep.endpoints()[i];
                let (path, _) =
                    both_paths(&mut sweep, dest, &key, &format!("torus:12x2/{routing}"));
                assert_eq!(path, Path::Topological);
                checked += 1;
            }
        }
        assert!(checked > 50, "{checked} destinations checked");
    }

    #[test]
    fn a_livelock_takes_the_per_source_path() {
        let net = TopologySpec::parse("torus:4x1").unwrap().build().unwrap();
        let faults = FaultSet::new();
        let key = scrambled_key(&net, 0);
        let mut sweep =
            DestinationSweep::new(&net, &SpinForever, &faults, 1, Granularity::PerVc, 1 << 12);
        for dest in (0..4).map(NodeId) {
            assert_eq!(
                both_paths(&mut sweep, dest, &key, "spin").0,
                Path::PerSource
            );
        }
    }

    #[test]
    fn a_union_over_the_budget_takes_the_per_source_path() {
        let net = TopologySpec::parse("torus:4x2").unwrap().build().unwrap();
        let mut faults = FaultSet::new();
        faults.fail_node(NodeId(5));
        let algo = AnyRouting::deterministic(Substrate::DimensionOrder);
        let v = algo.min_virtual_channels(&net);
        let key = scrambled_key(&net, 0);
        let sweep_all = |budget: usize| {
            let mut sweep =
                DestinationSweep::new(&net, &algo, &faults, v, Granularity::PerVc, budget);
            let mut outcomes = Vec::new();
            for i in 0..sweep.endpoints().len() {
                let dest = sweep.endpoints()[i];
                let (path, proof) = both_paths(&mut sweep, dest, &key, &format!("budget {budget}"));
                outcomes.push((path, proof.expect("every pair fits")));
            }
            outcomes
        };
        let roomy = sweep_all(STATE_BUDGET);
        assert!(roomy.iter().all(|(path, _)| *path == Path::Topological));
        // A budget the largest pair just fits, and no destination's union.
        let largest = roomy
            .iter()
            .flat_map(|(_, proof)| proof.pairs.iter().map(|&(_, states, _, _)| states))
            .max()
            .unwrap();
        let tight = sweep_all(largest);
        assert!(tight.iter().all(|(path, _)| *path == Path::PerSource));
        for ((_, roomy), (_, tight)) in roomy.iter().zip(&tight) {
            assert_eq!(roomy, tight);
        }
    }
}
