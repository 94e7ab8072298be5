//! Static reachability and progress checking over the routing relation.
//!
//! For every (source, destination) pair the checker inspects the pair's
//! complete state graph ([`RelationWalk`]: a per-pair walk, or a pair's view
//! of its destination's shared graph) and proves one of:
//!
//! * **Delivers** — every maximal path through the relation ends in delivery
//!   at the final destination, regardless of which permitted candidate the
//!   virtual-channel allocator picks at each hop. This is the static
//!   counterpart of the simulator's "no message is ever dropped" invariant,
//!   and it covers *all* adversarial schedules at once.
//! * **Dead end** — some reachable state absorbs the message and the
//!   software layer finds no route (`reroute_on_fault` returns `false`),
//!   with the hop-by-hop witness path from injection.
//! * **Livelock** — the state graph contains a reachable cycle: some
//!   schedule routes the message forever without delivering, again with a
//!   concrete witness (the node cycle).
//!
//! Because the walk enumerates header states exactly, a cycle here is a real
//! property of the routing relation, not a sampling artefact; conversely an
//! acyclic state graph whose sinks are all deliveries *proves* progress for
//! the pair.

use crate::relation::{RelationWalk, StateGraph, StateId, Step, Terminal};
use torus_routing::cdg::find_cycle;
use torus_topology::NodeId;

/// Typed verdict for one (source, destination) pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PairVerdict {
    /// Every schedule delivers the message.
    Delivers,
    /// A reachable state is a dead end; the witness is the node path from
    /// injection to the dead state (consecutive entries may repeat a node
    /// across an absorb/re-inject boundary).
    DeadEnd {
        /// Node path from the injection state to the dead state.
        path: Vec<NodeId>,
    },
    /// The state graph has a reachable cycle; the witness is the node cycle.
    Livelock {
        /// Nodes of the cyclic run of states.
        cycle: Vec<NodeId>,
    },
}

/// First failing pair of a reachability sweep.
#[derive(Clone, Debug)]
pub struct PairFailure {
    /// Source node of the failing pair.
    pub src: NodeId,
    /// Destination node of the failing pair.
    pub dest: NodeId,
    /// The failing verdict (never [`PairVerdict::Delivers`]).
    pub verdict: PairVerdict,
}

/// Summary of a whole-network reachability sweep.
#[derive(Clone, Debug, Default)]
pub struct ReachReport {
    /// Ordered healthy pairs checked.
    pub pairs: usize,
    /// Pairs proved to deliver under every schedule.
    pub delivered: usize,
    /// Pairs with a reachable dead end.
    pub dead_ends: usize,
    /// Pairs with a reachable livelock cycle.
    pub livelocks: usize,
    /// States reachable from each pair's injection state, summed over the
    /// pairs (see [`crate::exact::ExactCdg::states_explored`]).
    pub states_explored: usize,
    /// Largest single-pair state graph.
    pub max_states_per_pair: usize,
    /// The failing pair with the smallest `(src, dest)`, with its witness.
    pub first_failure: Option<PairFailure>,
}

/// [`torus_routing::cdg::find_cycle`] over the transitions of `graph`: the
/// first cycle met among the states reachable from `roots`.
pub(crate) fn find_state_cycle(
    graph: &StateGraph,
    roots: impl IntoIterator<Item = StateId>,
) -> Option<Vec<StateId>> {
    find_cycle(graph.len(), roots, |s, i| {
        graph.steps(s).get(i).map(Step::next)
    })
}

/// Classifies one pair's state graph. Dead ends take precedence over
/// livelocks in the verdict (both are reported in sweep counts via separate
/// pairs, but a single pair gets its most actionable witness).
pub(crate) fn check_pair(walk: &RelationWalk) -> PairVerdict {
    // Breadth-first search with parents: find a dead terminal.
    let mut parent: Vec<Option<usize>> = vec![None; walk.len()];
    let mut seen = vec![false; walk.len()];
    let mut queue = std::collections::VecDeque::new();
    seen[walk.start()] = true;
    queue.push_back(walk.start());
    while let Some(s) = queue.pop_front() {
        let state = walk.state(s);
        if state.terminal == Some(Terminal::Dead) {
            let mut path = vec![state.node];
            let mut at = s;
            while let Some(p) = parent[at] {
                path.push(walk.state(p).node);
                at = p;
            }
            path.reverse();
            return PairVerdict::DeadEnd { path };
        }
        for next in walk.steps(s).iter().map(Step::next) {
            if !seen[next] {
                seen[next] = true;
                parent[next] = Some(s);
                queue.push_back(next);
            }
        }
    }

    // A reachable cycle is a livelock; the witness is its node run.
    match find_state_cycle(walk.graph(), [walk.start()]) {
        Some(cycle) => PairVerdict::Livelock {
            cycle: cycle.iter().map(|&s| walk.state(s).node).collect(),
        },
        None => PairVerdict::Delivers,
    }
}

/// Folds one walked pair's verdict into a sweep report.
pub fn record_pair(report: &mut ReachReport, walk: &RelationWalk, src: NodeId, dest: NodeId) {
    record_verdict(report, walk.len(), check_pair(walk), src, dest);
}

/// Folds the verdict of a pair with `states` reachable states into a sweep
/// report. Pairs may arrive in any order: the failure kept is the smallest
/// `(src, dest)`, which is the first one a source-major loop meets.
pub(crate) fn record_verdict(
    report: &mut ReachReport,
    states: usize,
    verdict: PairVerdict,
    src: NodeId,
    dest: NodeId,
) {
    report.pairs += 1;
    report.states_explored += states;
    report.max_states_per_pair = report.max_states_per_pair.max(states);
    match verdict {
        PairVerdict::Delivers => {
            report.delivered += 1;
            return;
        }
        PairVerdict::DeadEnd { .. } => report.dead_ends += 1,
        PairVerdict::Livelock { .. } => report.livelocks += 1,
    }
    let earlier = |f: &PairFailure| (f.src, f.dest) < (src, dest);
    if !report.first_failure.as_ref().is_some_and(earlier) {
        report.first_failure = Some(PairFailure { src, dest, verdict });
    }
}
