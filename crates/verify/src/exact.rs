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
//! With [`Granularity::PerChannel`] the same walk is projected onto whole
//! physical channels, ignoring the virtual-channel split. On a torus this
//! reproduces the classic dateline cycle from the *real* routing relation —
//! the negative control the `verify` binary demonstrates.

use crate::relation::{RelationWalk, StateBudgetExceeded, StateId, StateNode, Step};
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

/// The dependency dataflow over a state graph, seeded at `starts`: a worklist
/// over the sets of tracked resources possibly held on arrival in each state,
/// calling `emit(held, requested)` for every dependency it finds (repeats
/// included). Monotone (sets only grow), so it terminates at the least
/// fixpoint; emission is re-run whenever a state's set grows.
///
/// It is a may-analysis whose transfer functions distribute over union, so
/// seeding several start states at once yields exactly the union of the
/// dependencies found from each alone.
fn fold_dependencies(
    net: &AnyTopology,
    states: &[StateNode],
    starts: impl IntoIterator<Item = StateId>,
    v: usize,
    granularity: Granularity,
    mut emit: impl FnMut(usize, usize),
) {
    let n = states.len();
    // The sets are small (the VCs of the tracked hops that can precede a
    // state), so an insertion-ordered vector with a linear membership test is
    // both smaller and faster than a hash set — and makes the emission order
    // a function of the state graph alone.
    let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut visited = vec![false; n];
    let mut queued = vec![false; n];
    let mut work: VecDeque<usize> = VecDeque::new();
    for start in starts {
        if !visited[start] {
            visited[start] = true;
            queued[start] = true;
            work.push_back(start);
        }
    }

    let mut requested: Vec<usize> = Vec::new();
    while let Some(s) = work.pop_front() {
        queued[s] = false;
        let state = &states[s];
        let held = incoming[s].clone();
        for step in &state.steps {
            let next = step.next();
            let mut changed = !visited[next];
            visited[next] = true;
            // What the message may hold on arrival in `next`.
            let propagated: &[usize] =
                match step {
                    Step::Hop {
                        dim,
                        dir,
                        vcs,
                        tracked: true,
                        ..
                    } => {
                        requested.clear();
                        requested.extend(vcs.iter().map(|&vc| {
                            resource_id(net, state.node, *dim, *dir, vc, v, granularity)
                        }));
                        for &h in &held {
                            for &r in &requested {
                                emit(h, r);
                            }
                        }
                        // After the hop the message holds one of `requested`.
                        &requested
                    }
                    // Adaptive hop: the tracked resources stay held while the
                    // head advances — Duato's indirect dependencies.
                    Step::Hop { tracked: false, .. } => &held,
                    // Absorption releases every held channel.
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
        walk.states(),
        [walk.start()],
        v,
        granularity,
        |held, requested| graph.add_edge(held, requested),
    );
}

/// The dependencies of every message injected at one of `starts`, as a
/// sorted, deduplicated edge list without self-loops: what
/// [`accumulate_cdg`] would add to an empty graph for each start in turn.
/// Adding such lists to a graph in order fixes its adjacency order — and so
/// the cycle [`DependencyGraph::find_cycle`] reports — whatever order the
/// dataflow happened to visit states in.
pub(crate) fn dependency_edges(
    net: &AnyTopology,
    states: &[StateNode],
    starts: impl IntoIterator<Item = StateId>,
    v: usize,
    granularity: Granularity,
) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    fold_dependencies(net, states, starts, v, granularity, |held, requested| {
        if held != requested {
            edges.push((held, requested));
        }
    });
    edges.sort_unstable();
    edges.dedup();
    edges
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
