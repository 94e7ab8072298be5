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
//! On an acyclic state graph (every relation that delivers all its pairs)
//! the dataflow visits each state once, in topological order, when its set
//! is complete (`dependency_edges_topological`). On any other graph it is
//! a worklist that propagates *deltas*: a state's set only ever grows, so
//! when it grows the state passes on, and emits edges for, only the
//! resources added since it was last processed. Every transfer function
//! distributes over union, so the edges emitted over all deltas are exactly
//! the `held × requested` of the final sets. Either way the edges come out
//! deduplicated and sorted, each labelled with the lowest start whose
//! messages depend on it, whatever order the states were visited in.
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
use torus_routing::{RoutingAlgorithm, VcRange};
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
    slot_resource(slot, vc, v, granularity)
}

/// The resource id of virtual channel `vc` on the channel in slot `slot`.
fn slot_resource(slot: usize, vc: usize, v: usize, granularity: Granularity) -> usize {
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
    /// The topological fold's record of each state: per resource a message
    /// may hold on arrival, `resource << 32 | label`, the label being the
    /// lowest start whose messages may hold it there; sorted. A record is
    /// recycled into `spare` once its state is visited, so only the records
    /// of the states between visited and unvisited ones hold memory.
    records: Vec<Vec<u64>>,
    spare: Vec<Vec<u64>>,
    /// Where the topological fold merges two records.
    merged: Vec<u64>,
    /// The labelled edges found so far.
    edges: LabelledEdges,
}

/// The labelled dependency edges `(from, to, label)` a fold emits, repeats
/// included, and a counting sort by `from` over the `from`s they use, which
/// yields each edge once with the lowest label it was emitted with.
#[derive(Debug, Default)]
struct LabelledEdges {
    emitted: Vec<(u32, u32, u32)>,
    /// Per resource, how many emissions leave it, then where the next one
    /// goes in `sorted`.
    counts: Vec<u32>,
    /// Bit `from % 64` of word `from / 64` is set iff an emission leaves
    /// `from`.
    froms: Vec<u64>,
    /// The emissions ordered by `from`, then the deduplicated list
    /// [`LabelledEdges::drain_sorted`] lends out.
    sorted: Vec<(usize, usize, usize)>,
}

impl LabelledEdges {
    /// Empties the set, with room for resources `0..resources`.
    fn clear(&mut self, resources: usize) {
        self.emitted.clear();
        for from in set_bits(&self.froms) {
            self.counts[from] = 0;
        }
        self.froms.fill(0);
        if self.counts.len() < resources {
            self.counts.resize(resources, 0);
            self.froms.resize(resources.div_ceil(64), 0);
        }
    }

    /// Records the emission of `from -> to` with `label`; self-loops are
    /// dropped.
    fn insert(&mut self, from: usize, to: usize, label: usize) {
        if from != to {
            let id = |x: usize| u32::try_from(x).expect("resource ids and labels fit in 32 bits");
            self.emitted.push((id(from), id(to), id(label)));
            self.counts[from] += 1;
            self.froms[from / 64] |= 1 << (from % 64);
        }
    }

    /// Every emitted edge once, sorted by `(from, to)`, with the lowest
    /// label it was emitted with; the set is empty afterwards.
    fn drain_sorted(&mut self) -> &[(usize, usize, usize)] {
        // Each `from` used gets the run of `sorted` after the previous one's.
        let mut end = 0;
        for from in set_bits(&self.froms) {
            let count = self.counts[from];
            self.counts[from] = end;
            end += count;
        }
        let sorted = &mut self.sorted;
        sorted.clear();
        sorted.resize(self.emitted.len(), (0, 0, 0));
        for &(from, to, label) in &self.emitted {
            let at = &mut self.counts[from as usize];
            sorted[*at as usize] = (from as usize, to as usize, label as usize);
            *at += 1;
        }
        for run in sorted.chunk_by_mut(|a, b| a.0 == b.0) {
            run.sort_unstable();
        }
        sorted.dedup_by_key(|&mut (from, to, _)| (from, to));
        self.clear(0);
        &self.sorted
    }
}

/// The positions of the set bits of a bitmap, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &word)| {
        std::iter::successors((word != 0).then_some(word), |&rest| {
            let rest = rest & (rest - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |bits| i * 64 + bits.trailing_zeros() as usize)
    })
}

/// The resources a tracked hop out of `node` along `(dim, dir)` on the VCs
/// `vcs` requests, into `out`, ascending and each once: one per VC, or the
/// one physical channel.
fn requested_resources(
    net: &AnyTopology,
    node: NodeId,
    (dim, dir, vcs): (usize, Direction, VcRange),
    v: usize,
    granularity: Granularity,
    out: &mut Vec<usize>,
) {
    let slot = net.channel_id(DirectedChannel::new(node, dim, dir)).index();
    out.clear();
    out.extend(
        vcs.range()
            .map(|vc| slot_resource(slot, vc, v, granularity)),
    );
    out.dedup();
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
                    requested_resources(net, node, (dim, dir, vcs), v, granularity, requested);
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
    let mut edges = std::mem::take(&mut scratch.edges);
    edges.clear(resource_count(net, v, granularity));
    fold_dependencies(
        net,
        graph,
        starts,
        v,
        granularity,
        scratch,
        |phase, held, requested| edges.insert(held, requested, phase),
    );
    scratch.edges = edges;
    scratch.edges.drain_sorted()
}

/// [`dependency_edges`] over an acyclic state graph, from a topological
/// `order` of its states, where `lowest(s)` is the lowest start whose
/// messages reach state `s` (`None` when no start does). The same list, in
/// one visit per state instead of one phase per start.
///
/// Each state's record maps every resource a message may hold on arrival to
/// the lowest start whose messages may hold it there. Visiting the states in
/// topological order finds each record complete: a tracked hop out of `s`
/// acquires its resources with `lowest(s)`, since every start reaching `s`
/// takes the hop, and an adaptive hop passes each held resource on with its
/// label, keeping the lower one where two paths merge. A tracked hop emits
/// `(held, requested, label of held)`; the lowest label an edge is emitted
/// with is the first start whose messages depend on it, the phase in which
/// the phased fold first emits it.
pub(crate) fn dependency_edges_topological<'s>(
    net: &AnyTopology,
    graph: &StateGraph,
    order: impl IntoIterator<Item = StateId>,
    lowest: impl Fn(StateId) -> Option<usize>,
    v: usize,
    granularity: Granularity,
    scratch: &'s mut FoldScratch,
) -> &'s [(usize, usize, usize)] {
    let FoldScratch {
        records,
        spare,
        merged,
        requested,
        edges,
        ..
    } = scratch;
    for record in records.iter_mut().filter(|record| record.capacity() > 0) {
        record.clear();
        spare.push(std::mem::take(record));
    }
    if records.len() < graph.len() {
        records.resize_with(graph.len(), Vec::new);
    }
    edges.clear(resource_count(net, v, granularity));
    for s in order {
        // No transition of an acyclic graph leads back to `s`.
        let mut held = std::mem::take(&mut records[s]);
        if let Some(low) = lowest(s) {
            let node = graph.state(s).node;
            for &step in graph.steps(s) {
                let into = &mut records[step.next()];
                match step {
                    Step::Hop {
                        dim,
                        dir,
                        vcs,
                        tracked: true,
                        ..
                    } => {
                        requested_resources(net, node, (dim, dir, vcs), v, granularity, requested);
                        for &entry in &held {
                            let (h, label) = unpack(entry);
                            for &r in requested.iter() {
                                edges.insert(h, r, label);
                            }
                        }
                        let acquired = requested.iter().map(|&r| pack(r, low));
                        merge_lowest(into, acquired, merged, spare);
                    }
                    Step::Hop { tracked: false, .. } => {
                        merge_lowest(into, held.iter().copied(), merged, spare);
                    }
                    Step::Reinject { .. } => {}
                }
            }
        }
        if held.capacity() > 0 {
            held.clear();
            spare.push(held);
        }
    }
    edges.drain_sorted()
}

/// A topological-fold record entry: `resource` held, with `label`.
fn pack(resource: usize, label: usize) -> u64 {
    let part =
        |x: usize| u64::from(u32::try_from(x).expect("resource ids and labels fit in 32 bits"));
    part(resource) << 32 | part(label)
}

/// The `(resource, label)` of a record entry.
fn unpack(entry: u64) -> (usize, usize) {
    (
        (entry >> 32) as usize,
        (entry & u64::from(u32::MAX)) as usize,
    )
}

/// Merges the entries of `add` into the record `into`, both sorted, keeping
/// the lower label of a resource in both. `merged` is scratch space; an
/// empty record takes a buffer from `spare`.
fn merge_lowest(
    into: &mut Vec<u64>,
    add: impl Iterator<Item = u64>,
    merged: &mut Vec<u64>,
    spare: &mut Vec<Vec<u64>>,
) {
    if into.is_empty() {
        if into.capacity() == 0 {
            *into = spare.pop().unwrap_or_default();
        }
        into.extend(add);
        return;
    }
    merged.clear();
    let mut old = into.iter().copied().peekable();
    for entry in add {
        let resource = entry >> 32;
        while let Some(kept) = old.next_if(|&kept| kept >> 32 < resource) {
            merged.push(kept);
        }
        // Equal resources order by label, so the lower entry is the min.
        match old.next_if(|&kept| kept >> 32 == resource) {
            Some(kept) => merged.push(kept.min(entry)),
            None => merged.push(entry),
        }
    }
    merged.extend(old);
    std::mem::swap(into, merged);
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
        synthetic(net, v, seed, false)
    }

    /// [`synthetic_graph`] with every transition leading to a higher state,
    /// so that the ids are a topological order.
    fn synthetic_dag(net: &AnyTopology, v: usize, seed: u64) -> (StateGraph, Vec<StateId>) {
        synthetic(net, v, seed, true)
    }

    fn synthetic(
        net: &AnyTopology,
        v: usize,
        seed: u64,
        acyclic: bool,
    ) -> (StateGraph, Vec<StateId>) {
        let mut rng = SplitMix(seed);
        let header = AnyRouting::deterministic(Substrate::DimensionOrder).make_header(
            net,
            NodeId(0),
            NodeId(1),
        );
        let n = 1 + rng.below(24);
        let mut graph = StateGraph::default();
        for id in 0..n {
            let fanout = if acyclic && id + 1 == n {
                0
            } else {
                rng.below(4)
            };
            let steps: Vec<Step> = (0..fanout)
                .map(|_| {
                    let next = if acyclic {
                        id + 1 + rng.below(n - id - 1)
                    } else {
                        rng.below(n)
                    };
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// On acyclic graphs one visit per state in topological order gives
        /// the phased fold's labelled list, with its buffers dirty from the
        /// previous graph.
        #[test]
        fn the_topological_fold_matches_the_phased_fold_on_synthetic_dags(
            seed in any::<u64>(),
            v in 1usize..4,
            per_vc in any::<bool>(),
        ) {
            let net = net("torus:4x2");
            let granularity = if per_vc { Granularity::PerVc } else { Granularity::PerChannel };
            let mut scratch = FoldScratch::default();
            for round in 0..2u64 {
                let (graph, starts) = synthetic_dag(&net, v, seed.wrapping_add(round));
                // The first start that reaches each state.
                let mut lowest = vec![None; graph.len()];
                for (i, &start) in starts.iter().enumerate() {
                    let mut work = vec![start];
                    while let Some(s) = work.pop() {
                        if lowest[s].is_none() {
                            lowest[s] = Some(i);
                            work.extend(graph.steps(s).iter().map(Step::next));
                        }
                    }
                }
                let phased =
                    dependency_edges(&net, &graph, starts.iter().copied(), v, granularity, &mut scratch)
                        .to_vec();
                let topological = dependency_edges_topological(
                    &net,
                    &graph,
                    0..graph.len(),
                    |s| lowest[s],
                    v,
                    granularity,
                    &mut scratch,
                );
                prop_assert_eq!(topological, &phased[..], "seed {} round {}", seed, round);
            }
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
