//! Human-readable rendering of verification witnesses.
//!
//! Cycle witnesses are sequences of resource ids in the vertex space of an
//! extracted graph ([`crate::exact`]); this module decodes them back into
//! directed channels — source node, dimension, direction, destination node
//! and (at per-VC granularity) the virtual channel — so a CI failure prints
//! the actual channels of the dependency cycle. Node labels come from the
//! topology backend: grid coordinates like `(3,0)`, fat-tree roles like
//! `e7` / `s1.2`.

use crate::exact::Granularity;
use crate::reach::PairVerdict;
use torus_topology::{AnyTopology, ChannelId, Direction, NodeId};

/// Renders one resource id of an extracted graph, e.g.
/// `(3,0) -d0+-> (0,0) vc1`.
pub(crate) fn describe_resource(
    net: &AnyTopology,
    id: usize,
    v: usize,
    granularity: Granularity,
) -> String {
    let (slot, vc) = match granularity {
        Granularity::PerVc => (id / v, Some(id % v)),
        Granularity::PerChannel => (id, None),
    };
    let ch = net.channel_from_id(ChannelId::from_index(slot));
    let from = net.node_label(ch.from);
    let sign = match ch.dir {
        Direction::Plus => '+',
        Direction::Minus => '-',
    };
    let to = match net.neighbor(ch.from, ch.dim, ch.dir) {
        Some(n) => net.node_label(n),
        None => "(missing)".to_string(),
    };
    let dim = ch.dim;
    match vc {
        Some(vc) => format!("{from} -d{dim}{sign}-> {to} vc{vc}"),
        None => format!("{from} -d{dim}{sign}-> {to}"),
    }
}

/// Renders a cycle witness (as returned by
/// `DependencyGraph::find_cycle`) one channel per line, closing the loop
/// back to the first resource.
pub(crate) fn describe_cycle(
    net: &AnyTopology,
    cycle: &[usize],
    v: usize,
    granularity: Granularity,
) -> Vec<String> {
    let mut lines: Vec<String> = cycle
        .iter()
        .enumerate()
        .map(|(i, &r)| format!("c{i}: {}", describe_resource(net, r, v, granularity)))
        .collect();
    if !cycle.is_empty() {
        lines.push(format!("-> back to c0 (cycle of {} channels)", cycle.len()));
    }
    lines
}

/// Renders a node path (dead-end or livelock witness) as node labels.
pub(crate) fn describe_node_path(net: &AnyTopology, path: &[NodeId]) -> String {
    path.iter()
        .map(|&n| net.node_label(n))
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Renders a pair verdict's witness, if any, as display lines.
pub(crate) fn describe_pair_verdict(net: &AnyTopology, verdict: &PairVerdict) -> Vec<String> {
    match verdict {
        PairVerdict::Delivers => Vec::new(),
        PairVerdict::DeadEnd { path } => vec![format!(
            "dead end after path: {}",
            describe_node_path(net, path)
        )],
        PairVerdict::Livelock { cycle } => vec![format!(
            "livelock cycle: {} -> (repeats)",
            describe_node_path(net, cycle)
        )],
    }
}
