//! Exact channel-dependency-graph extraction from the routing relation.
//!
//! Unlike the hand-derived graphs in `torus_routing::cdg` — which re-encode
//! what the routing functions *should* do — this module extracts the
//! dependency graph from the actual `(channel held, header state) → channel
//! requested` transitions of a [`RoutingAlgorithm`], as enumerated by the
//! walkers of [`crate::relation`]. The analysed resources are the virtual
//! channels of the deterministic / escape layer:
//!
//! * for a **deterministic-flavour** algorithm every candidate is tracked —
//!   the whole VC pool belongs to the layer whose acyclicity proves deadlock
//!   freedom;
//! * for an **adaptive-flavour** algorithm only the escape candidates are
//!   tracked, per Duato's theory: adaptive channels may sit on cycles as long
//!   as the *extended* dependency graph of the escape subfunction — direct
//!   dependencies between consecutive escape channels plus **indirect**
//!   dependencies bridged by any run of adaptive hops — stays acyclic.
//!
//! Indirect dependencies fall out of a small dataflow: every state carries
//! the set of tracked resources the message may still hold on arrival. A
//! tracked hop emits `held × requested` edges and replaces the set with the
//! hop's own resources; an adaptive hop propagates the set unchanged (the
//! escape channel stays held by the worm's tail while the head advances); an
//! absorption clears it (the software layer drains the message and releases
//! every channel before re-injection — exactly why the paper's Section 4
//! argument survives faults).
//!
//! The dataflow propagates *deltas*: a state's set only ever grows, so when
//! it grows the state passes on, and emits edges for, only the resources
//! added since it was last processed. Every transfer function distributes
//! over union, so the edges emitted over all deltas are exactly the
//! `held × requested` of the final sets. Emission order is still a function
//! of the state graph alone.
//!
//! With [`Granularity::PerChannel`] the same walk is projected onto whole
//! physical channels, ignoring the virtual-channel split. On a torus this
//! reproduces the classic dateline cycle from the *real* routing relation —
//! the negative control the `verify` binary demonstrates.

use crate::relation::{RelationWalk, StateBudgetExceeded, StateGraph, StateId, Step};
use crate::sweep::sweep_case;
use std::collections::VecDeque;
use torus_faults::FaultSet;
use torus_routing::cdg::DependencyGraph;
use torus_routing::RoutingAlgorithm;
use torus_topology::{AnyTopology, DirectedChannel, Direction, NodeId};

/// Resource granularity of the extracted graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Granularity {
    /// One resource per (physical channel, virtual channel) pair — the real
    /// resource structure the algorithms are deadlock-free over.
    PerVc,
    /// One resource per physical channel, merging all its virtual channels —
    /// the "no VC classes" projection. On wrapped dimensions this is the
    /// known-cyclic dateline-free model.
    PerChannel,
}

/// An exact dependency graph extracted from a routing relation.
#[derive(Clone, Debug)]
pub struct ExactCdg {
    /// The extracted graph over tracked (escape-layer) resources.
    pub graph: DependencyGraph,
    /// Virtual channels per physical channel the relation was walked with.
    pub virtual_channels: usize,
    /// Resource granularity of the graph's vertex space.
    pub granularity: Granularity,
    /// States reachable from each pair's injection state, summed over the
    /// pairs — what per-pair walks enumerate, however many of those states
    /// the shared walker actually had to expand.
    pub states_explored: usize,
    /// Number of (source, destination) pairs covered.
    pub pairs: usize,
}

/// Number of resource vertices for a network at the given granularity.
/// Resources are allocated per channel *slot* of the dense id space, so
/// missing mesh-edge channels leave isolated vertices, mirroring
/// `torus_routing::cdg`.
pub fn resource_count(net: &AnyTopology, v: usize, granularity: Granularity) -> usize {
    match granularity {
        Granularity::PerVc => net.channel_slots() * v,
        Granularity::PerChannel => net.channel_slots(),
    }
}

/// The resource id of virtual channel `vc` on the channel leaving `node`
/// along `(dim, dir)`.
pub fn resource_id(
    net: &AnyTopology,
    node: NodeId,
    dim: usize,
    dir: Direction,
    vc: usize,
    v: usize,
    granularity: Granularity,
) -> usize {
    let slot = net.channel_id(DirectedChannel::new(node, dim, dir)).index();
    match granularity {
        Granularity::PerVc => slot * v + vc,
        Granularity::PerChannel => slot,
    }
}

/// The dataflow's record of one state.
#[derive(Debug, Default)]
struct FoldState {
    /// Tracked resources the message may hold on arrival, in insertion
    /// order. Append-only: the sets are small (the VCs of the tracked hops
    /// that can precede a state), so a vector with a linear membership test
    /// is both smaller and faster than a hash set.
    held: Vec<usize>,
    /// `held[..pushed]` has been propagated to the successors and emitted.
    pushed: usize,
    /// Whether the state has been processed at least once.
    processed: bool,
    /// Whether the state is on the worklist.
    queued: bool,
}

/// The buffers of the dependency dataflow, cleared and reused from one call
/// to the next. Their owner is the destination loop of [`crate::sweep`],
/// which every static proof and every epoch of
/// [`crate::epochs::verify_schedule`] runs. [`accumulate_cdg`] uses a fresh
/// one per call.
#[derive(Debug, Default)]
pub(crate) struct FoldScratch {
    states: Vec<FoldState>,
    work: VecDeque<StateId>,
    requested: Vec<usize>,
    /// [`dependency_edges`]' emissions, in emission order.
    emitted: Vec<(usize, usize, usize)>,
    /// Per resource, where [`dependency_edges`] places its next emission.
    slots: Vec<usize>,
    /// The emissions ordered and deduplicated: the list
    /// [`dependency_edges`] lends out.
    edges: Vec<(usize, usize, usize)>,
}

/// Adds `r` to `set` unless present; true if the set grew.
fn insert(set: &mut Vec<usize>, r: usize) -> bool {
    let grows = !set.contains(&r);
    if grows {
        set.push(r);
    }
    grows
}

/// The dependency dataflow over a state graph, seeded at `starts`: a worklist
/// over the sets of tracked resources possibly held on arrival in each state,
/// calling `emit(phase, held, requested)` for every dependency it finds
/// (repeats included). Monotone (sets only grow), so it terminates at the
/// least fixpoint.
///
/// Each pass over a state handles only its *delta*, the resources added to
/// its set since the previous pass: adaptive hops propagate the delta, and
/// tracked hops emit `delta × requested`. A tracked hop's own `requested`
/// set does not depend on what is held, so it is pushed to the successor
/// once, on the state's first pass, which also enqueues every successor not
/// yet discovered. The union of the emissions over all passes is
/// `held × requested` over the final sets, the edges a pass over each final
/// set would emit; the order of emission is a function of the state graph
/// alone.
///
/// The starts are seeded one at a time, in the order given, each *phase*
/// running the worklist dry before the next start is seeded; `phase` is the
/// index of the start whose phase made the emission. It is a may-analysis
/// whose transfer functions distribute over union, so the fixpoint after
/// phase `i` is the union of what each of the first `i + 1` starts finds
/// alone: an edge first emitted in phase `i` is found from start `i` and
/// from no earlier one. A start an earlier phase already reached adds
/// nothing.
fn fold_dependencies(
    net: &AnyTopology,
    graph: &StateGraph,
    starts: impl IntoIterator<Item = StateId>,
    v: usize,
    granularity: Granularity,
    scratch: &mut FoldScratch,
    mut emit: impl FnMut(usize, usize, usize),
) {
    let FoldScratch {
        states: fold,
        work,
        requested,
        ..
    } = scratch;
    let n = graph.len();
    for state in fold.iter_mut().take(n) {
        state.held.clear();
        state.pushed = 0;
        state.processed = false;
        state.queued = false;
    }
    if fold.len() < n {
        fold.resize_with(n, FoldState::default);
    }
    work.clear();
    // Each phase seeds the next start no earlier phase reached and runs
    // the worklist dry.
    let mut starts = starts.into_iter().enumerate();
    let mut phase = 0;
    loop {
        let s = match work.pop_front() {
            Some(s) => s,
            None => match starts.find(|&(_, start)| !fold[start].processed) {
                Some((next, start)) => {
                    phase = next;
                    start
                }
                None => break,
            },
        };
        let first = !fold[s].processed;
        let (from, to) = (fold[s].pushed, fold[s].held.len());
        fold[s].queued = false;
        fold[s].processed = true;
        fold[s].pushed = to;
        let node = graph.state(s).node;
        for &step in graph.steps(s) {
            let next = step.next();
            // Whether what the message may hold on arrival in `next` grew.
            let mut grew = false;
            match step {
                Step::Hop {
                    dim,
                    dir,
                    vcs,
                    tracked: true,
                    ..
                } => {
                    requested.clear();
                    requested.extend(
                        vcs.range()
                            .map(|vc| resource_id(net, node, dim, dir, vc, v, granularity)),
                    );
                    for i in from..to {
                        let h = fold[s].held[i];
                        for &r in requested.iter() {
                            emit(phase, h, r);
                        }
                    }
                    // After the hop the message holds one of `requested`.
                    if first {
                        for &r in requested.iter() {
                            grew |= insert(&mut fold[next].held, r);
                        }
                    }
                }
                // Adaptive hop: the tracked resources stay held while the
                // head advances — Duato's indirect dependencies.
                Step::Hop { tracked: false, .. } => {
                    for i in from..to {
                        let h = fold[s].held[i];
                        grew |= insert(&mut fold[next].held, h);
                    }
                }
                // Absorption releases every held channel.
                Step::Reinject { .. } => {}
            }
            let successor = &mut fold[next];
            if (grew || !successor.processed) && !successor.queued {
                successor.queued = true;
                work.push_back(next);
            }
        }
    }
}

/// Folds one pair's [`RelationWalk`] into `graph` (the graph deduplicates).
pub fn accumulate_cdg(
    net: &AnyTopology,
    walk: &RelationWalk,
    v: usize,
    granularity: Granularity,
    graph: &mut DependencyGraph,
) {
    fold_dependencies(
        net,
        walk.graph(),
        [walk.start()],
        v,
        granularity,
        &mut FoldScratch::default(),
        |_, held, requested| graph.add_edge(held, requested),
    );
}

/// The dependencies of every message injected at one of `starts`, as a
/// list of `(from, to, first)` sorted by `(from, to)`, one entry per edge and
/// without self-loops: what [`accumulate_cdg`] would add to an empty graph
/// for each start in turn, each edge labelled with the index of the first
/// start whose messages depend on it. Adding such lists to a graph in order
/// fixes its adjacency order — and so the cycle
/// [`DependencyGraph::find_cycle`] reports — whatever order the dataflow
/// happened to visit states in. The list lives in `scratch` and is
/// overwritten by the next call.
pub(crate) fn dependency_edges<'s>(
    net: &AnyTopology,
    graph: &StateGraph,
    starts: impl IntoIterator<Item = StateId>,
    v: usize,
    granularity: Granularity,
    scratch: &'s mut FoldScratch,
) -> &'s [(usize, usize, usize)] {
    let mut emitted = std::mem::take(&mut scratch.emitted);
    emitted.clear();
    fold_dependencies(
        net,
        graph,
        starts,
        v,
        granularity,
        scratch,
        |phase, held, requested| {
            if held != requested {
                emitted.push((held, requested, phase));
            }
        },
    );
    // A counting sort by `from`, then a stable sort of each `from`'s run by
    // `to`: the repeats of an edge keep their emission order, in which
    // phases never decrease, so the first of each run has the lowest phase,
    // and `dedup_by_key` drops the rest.
    let resources = resource_count(net, v, granularity);
    // `slots[from]` is where the next edge from `from` goes.
    let slots = &mut scratch.slots;
    slots.clear();
    slots.resize(resources + 1, 0);
    for &(from, _, _) in &emitted {
        slots[from + 1] += 1;
    }
    for from in 1..=resources {
        slots[from] += slots[from - 1];
    }
    let mut edges = std::mem::take(&mut scratch.edges);
    edges.clear();
    edges.resize(emitted.len(), (0, 0, 0));
    for &edge in &emitted {
        edges[slots[edge.0]] = edge;
        slots[edge.0] += 1;
    }
    for run in edges.chunk_by_mut(|a, b| a.0 == b.0) {
        run.sort_by_key(|&(_, to, _)| to);
    }
    edges.dedup_by_key(|&mut (from, to, _)| (from, to));
    scratch.emitted = emitted;
    scratch.edges = edges;
    &scratch.edges
}

/// Extracts the exact dependency graph of `algo` on `net` under `faults`
/// from every ordered pair of healthy endpoints (the only nodes that inject
/// traffic — switches of an indirect topology are transit-only).
/// `state_budget` bounds the states of any single pair.
pub fn extract_exact_cdg<A: RoutingAlgorithm>(
    net: &AnyTopology,
    algo: &A,
    faults: &FaultSet,
    v: usize,
    granularity: Granularity,
    state_budget: usize,
) -> Result<ExactCdg, StateBudgetExceeded> {
    sweep_case(net, algo, faults, v, granularity, state_budget).map(|(cdg, _)| cdg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{
        matrix_fault_cases, matrix_routings, matrix_topologies, MatrixKind, STATE_BUDGET,
    };
    use crate::relation::{walk_pair, SharedRelation};
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use torus_routing::{AnyRouting, Substrate, VcRange};
    use torus_topology::TopologySpec;

    /// The dataflow before it propagated deltas: every pass over a state
    /// clones its whole set, re-emits `held × requested` and re-propagates
    /// everything. Kept as the reference [`fold_dependencies`] must match.
    fn reference_fold(
        net: &AnyTopology,
        graph: &StateGraph,
        starts: &[StateId],
        v: usize,
        granularity: Granularity,
    ) -> BTreeSet<(usize, usize)> {
        let n = graph.len();
        let mut emitted = BTreeSet::new();
        let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut visited = vec![false; n];
        let mut queued = vec![false; n];
        let mut work: VecDeque<usize> = VecDeque::new();
        for &start in starts {
            if !visited[start] {
                visited[start] = true;
                queued[start] = true;
                work.push_back(start);
            }
        }
        let mut requested: Vec<usize> = Vec::new();
        while let Some(s) = work.pop_front() {
            queued[s] = false;
            let node = graph.state(s).node;
            let held = incoming[s].clone();
            for &step in graph.steps(s) {
                let next = step.next();
                let mut changed = !visited[next];
                visited[next] = true;
                let propagated: &[usize] = match step {
                    Step::Hop {
                        dim,
                        dir,
                        vcs,
                        tracked: true,
                        ..
                    } => {
                        requested.clear();
                        requested.extend(
                            vcs.range()
                                .map(|vc| resource_id(net, node, dim, dir, vc, v, granularity)),
                        );
                        for &h in &held {
                            for &r in &requested {
                                emitted.insert((h, r));
                            }
                        }
                        &requested
                    }
                    Step::Hop { tracked: false, .. } => &held,
                    Step::Reinject { .. } => &[],
                };
                for &r in propagated {
                    if !incoming[next].contains(&r) {
                        incoming[next].push(r);
                        changed = true;
                    }
                }
                if changed && !queued[next] {
                    queued[next] = true;
                    work.push_back(next);
                }
            }
        }
        emitted
    }

    /// Every pair `fold_dependencies` emits, self-loops and repeats merged.
    fn delta_fold(
        net: &AnyTopology,
        graph: &StateGraph,
        starts: &[StateId],
        v: usize,
        granularity: Granularity,
        scratch: &mut FoldScratch,
    ) -> BTreeSet<(usize, usize)> {
        let mut emitted = BTreeSet::new();
        fold_dependencies(
            net,
            graph,
            starts.iter().copied(),
            v,
            granularity,
            scratch,
            |_, h, r| {
                emitted.insert((h, r));
            },
        );
        emitted
    }

    fn net(spec: &str) -> AnyTopology {
        TopologySpec::parse(spec)
            .expect("valid spec")
            .build()
            .expect("topology builds")
    }

    /// SplitMix64: the synthetic graphs' random source, seeded per case.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    /// A random state graph over `net`'s channels: tracked and adaptive hops
    /// requesting one or a run of several of `v` VCs, `Reinject` steps,
    /// self-loops and cycles, and one to three start states. Which headers
    /// the states carry does not matter to the dataflow.
    fn synthetic_graph(net: &AnyTopology, v: usize, seed: u64) -> (StateGraph, Vec<StateId>) {
        let mut rng = SplitMix(seed);
        let header = AnyRouting::deterministic(Substrate::DimensionOrder).make_header(
            net,
            NodeId(0),
            NodeId(1),
        );
        let n = 1 + rng.below(24);
        let mut graph = StateGraph::default();
        for _ in 0..n {
            let steps: Vec<Step> = (0..rng.below(4))
                .map(|_| {
                    let next = rng.below(n);
                    if rng.below(6) == 0 {
                        return Step::Reinject { next };
                    }
                    let first = rng.below(v);
                    let end = first + 1 + rng.below(v - first);
                    Step::Hop {
                        dim: rng.below(net.dims()),
                        dir: Direction::BOTH[rng.below(2)],
                        vcs: VcRange::new(first..end),
                        tracked: rng.below(2) == 0,
                        next,
                    }
                })
                .collect();
            let node = NodeId(rng.below(net.num_nodes()) as u32);
            graph.push_expanded(node, header.clone(), steps, None);
        }
        let starts = (0..1 + rng.below(3)).map(|_| rng.below(n)).collect();
        (graph, starts)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The delta fold emits exactly the pairs the reference fold does,
        /// on arbitrary state graphs, with its buffers dirty from the
        /// previous graph.
        #[test]
        fn delta_fold_matches_the_reference_on_synthetic_graphs(
            seed in any::<u64>(),
            v in 1usize..4,
            per_vc in any::<bool>(),
        ) {
            let net = net("torus:4x2");
            let granularity = if per_vc { Granularity::PerVc } else { Granularity::PerChannel };
            let mut scratch = FoldScratch::default();
            for round in 0..2u64 {
                let (graph, starts) = synthetic_graph(&net, v, seed.wrapping_add(round));
                prop_assert_eq!(
                    delta_fold(&net, &graph, &starts, v, granularity, &mut scratch),
                    reference_fold(&net, &graph, &starts, v, granularity),
                    "seed {} round {}", seed, round
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Seeding the starts one phase at a time labels each edge with the
        /// first start whose messages alone depend on it, and finds every
        /// edge the starts together find.
        #[test]
        fn each_edge_is_labelled_with_its_first_start(
            seed in any::<u64>(),
            v in 1usize..4,
        ) {
            let net = net("torus:4x2");
            let granularity = Granularity::PerVc;
            let (graph, mut starts) = synthetic_graph(&net, v, seed);
            starts.extend(synthetic_graph(&net, v, !seed).1.into_iter().filter(|&s| s < graph.len()));
            let alone: Vec<BTreeSet<(usize, usize)>> = starts
                .iter()
                .map(|&start| reference_fold(&net, &graph, &[start], v, granularity))
                .collect();
            let expected: Vec<(usize, usize, usize)> = reference_fold(&net, &graph, &starts, v, granularity)
                .into_iter()
                .filter(|&(from, to)| from != to)
                .map(|edge| {
                    let first = alone.iter().position(|edges| edges.contains(&edge));
                    (edge.0, edge.1, first.expect("some start finds every edge"))
                })
                .collect();
            let mut scratch = FoldScratch::default();
            let labelled = dependency_edges(&net, &graph, starts.iter().copied(), v, granularity, &mut scratch);
            prop_assert_eq!(labelled, &expected[..], "seed {}", seed);
        }
    }

    #[test]
    fn delta_fold_matches_the_reference_on_every_smoke_walk() {
        let mut scratch = FoldScratch::default();
        let mut walks = 0;
        for spec in matrix_topologies(MatrixKind::Smoke) {
            let net = spec.build().expect("matrix topologies build");
            for (routing, algo) in matrix_routings() {
                if algo.supported_on(&net).is_err() {
                    continue;
                }
                let v = algo.min_virtual_channels(&net);
                for (fault_label, faults) in matrix_fault_cases(&net, MatrixKind::Smoke) {
                    let label = format!("{}/{routing}/{fault_label}", spec.to_spec_string());
                    let endpoints: Vec<NodeId> = net
                        .endpoints()
                        .filter(|&n| !faults.is_node_faulty(n))
                        .collect();
                    for &dest in &endpoints {
                        let mut shared = SharedRelation::new(&net, &algo, &faults, v, dest);
                        let mut starts = Vec::new();
                        for &src in endpoints.iter().filter(|&&src| src != dest) {
                            let walk = walk_pair(&net, &algo, &faults, v, src, dest, STATE_BUDGET)
                                .expect("fits");
                            starts.push(shared.view(src, STATE_BUDGET).expect("fits").start);
                            for granularity in [Granularity::PerVc, Granularity::PerChannel] {
                                let start = [walk.start()];
                                assert_eq!(
                                    delta_fold(
                                        &net,
                                        walk.graph(),
                                        &start,
                                        v,
                                        granularity,
                                        &mut scratch
                                    ),
                                    reference_fold(&net, walk.graph(), &start, v, granularity),
                                    "{label}: {src:?} -> {dest:?} at {granularity:?}"
                                );
                            }
                            walks += 1;
                        }
                        for granularity in [Granularity::PerVc, Granularity::PerChannel] {
                            let graph = shared.graph();
                            assert_eq!(
                                delta_fold(&net, graph, &starts, v, granularity, &mut scratch),
                                reference_fold(&net, graph, &starts, v, granularity),
                                "{label}: shared graph into {dest:?} at {granularity:?}"
                            );
                        }
                    }
                }
            }
        }
        assert!(walks > 10_000, "the smoke matrix has {walks} pair walks");
    }
}
