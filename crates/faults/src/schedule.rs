//! Time-ordered fault schedules: node and link failures arriving at
//! simulation cycles instead of being frozen before cycle 0.
//!
//! A [`FaultSchedule`] is an ordered list of `(cycle, FaultEvent)` pairs.
//! Grouping the events by cycle yields the schedule's *epochs*: every
//! distinct injection cycle starts a new epoch whose cumulative [`FaultSet`]
//! contains every component failed at or before that cycle. Epoch 0 (cycle
//! 0) always exists, so a schedule whose first event arrives later still
//! describes the initial fault-free interval explicitly.
//!
//! Schedules are validated against a concrete network before they are
//! materialised: cycles must be monotone non-decreasing, no component may be
//! failed twice, node ids and dimensions must be in range, and link events
//! must name channels that physically exist (a mesh edge has no outward
//! link to fail). The static verifier (`swbft-verify`) consumes the epoch
//! sequence to prove per-epoch safety and classify every (source,
//! destination) pair's fate as faults accumulate.

use crate::model::FaultSet;
use std::fmt;
use torus_topology::{AnyTopology, Direction, NodeId};

/// One scheduled component failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// The node (PE + router) fails; all incident channels fail with it.
    Node {
        /// Dense id of the failing node.
        node: u32,
    },
    /// The physical link leaving `node` along `dim`/`dir` fails in both
    /// directions.
    Link {
        /// Source-side node of the failing link.
        node: u32,
        /// Dimension of the failing link.
        dim: usize,
        /// Direction of the failing link as seen from `node`.
        dir: Direction,
    },
}

impl FaultEvent {
    /// Short label used in reports and schedule spec strings
    /// (`node@5` / `link@5:d0+`).
    pub fn label(&self) -> String {
        match self {
            FaultEvent::Node { node } => format!("node@{node}"),
            FaultEvent::Link { node, dim, dir } => format!("link@{node}:d{dim}{dir}"),
        }
    }

    /// Applies the event to a cumulative fault set.
    fn apply(&self, net: &AnyTopology, faults: &mut FaultSet) {
        match *self {
            FaultEvent::Node { node } => faults.fail_node(NodeId(node)),
            FaultEvent::Link { node, dim, dir } => faults.fail_link(net, NodeId(node), dim, dir),
        }
    }
}

/// One event of a schedule with its injection cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Simulation cycle the component fails at.
    pub cycle: u64,
    /// The failing component.
    pub event: FaultEvent,
}

/// Validation and parse errors for fault schedules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultScheduleError {
    /// Event cycles must be monotone non-decreasing in list order.
    NonMonotoneCycle {
        /// Index of the out-of-order event.
        index: usize,
        /// Its cycle.
        cycle: u64,
        /// The preceding event's cycle.
        previous: u64,
    },
    /// The same node is failed by two events.
    DuplicateNode {
        /// The node failed twice.
        node: u32,
    },
    /// The same physical link is failed by two events (possibly named from
    /// opposite endpoints).
    DuplicateLink {
        /// Source-side node of the second event naming the link.
        node: u32,
        /// Dimension of the link.
        dim: usize,
        /// Direction of the second event.
        dir: Direction,
    },
    /// A node id is outside the network.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Number of nodes in the network.
        nodes: usize,
    },
    /// A link event names a dimension the network does not have.
    DimOutOfRange {
        /// The offending dimension.
        dim: usize,
        /// The network's dimensionality.
        dims: usize,
    },
    /// A link event names a channel that does not physically exist (the
    /// outward edge of an open dimension).
    MissingLink {
        /// Source-side node of the event.
        node: u32,
        /// Dimension of the missing channel.
        dim: usize,
        /// Direction of the missing channel.
        dir: Direction,
    },
    /// A schedule spec string failed to parse.
    Parse {
        /// The offending token.
        token: String,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for FaultScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultScheduleError::NonMonotoneCycle {
                index,
                cycle,
                previous,
            } => write!(
                f,
                "schedule event {index} at cycle {cycle} precedes the previous event's \
                 cycle {previous} (events must be listed in non-decreasing cycle order)"
            ),
            FaultScheduleError::DuplicateNode { node } => {
                write!(f, "node {node} is failed by two schedule events")
            }
            FaultScheduleError::DuplicateLink { node, dim, dir } => write!(
                f,
                "link {node}:d{dim}{dir} is failed by two schedule events \
                 (links are identified up to direction)"
            ),
            FaultScheduleError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range for a {nodes}-node network")
            }
            FaultScheduleError::DimOutOfRange { dim, dims } => {
                write!(f, "dimension {dim} out of range for a {dims}-D network")
            }
            FaultScheduleError::MissingLink { node, dim, dir } => write!(
                f,
                "no physical channel leaves node {node} along d{dim}{dir} \
                 (open-dimension edge)"
            ),
            FaultScheduleError::Parse { token, reason } => {
                write!(f, "cannot parse schedule token '{token}': {reason}")
            }
        }
    }
}

impl std::error::Error for FaultScheduleError {}

/// One epoch of a materialised schedule: the cumulative fault set in force
/// from `cycle` until the next epoch's cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleEpoch {
    /// First cycle of the epoch.
    pub cycle: u64,
    /// The events that arrived at this cycle (empty only for the implicit
    /// fault-free epoch 0 of a schedule whose first event arrives later).
    pub new_events: Vec<FaultEvent>,
    /// Every component failed at or before `cycle`.
    pub faults: FaultSet,
}

/// An ordered, serialisable list of scheduled fault injections.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<ScheduledFault>,
}

impl FaultSchedule {
    /// An empty schedule: a single fault-free epoch at cycle 0.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Builds a schedule from `(cycle, event)` pairs, checking the
    /// network-independent invariant (monotone non-decreasing cycles) up
    /// front. Per-network validation happens in [`FaultSchedule::validate`].
    pub fn from_events(events: Vec<(u64, FaultEvent)>) -> Result<Self, FaultScheduleError> {
        for (index, w) in events.windows(2).enumerate() {
            if w[1].0 < w[0].0 {
                return Err(FaultScheduleError::NonMonotoneCycle {
                    index: index + 1,
                    cycle: w[1].0,
                    previous: w[0].0,
                });
            }
        }
        Ok(FaultSchedule {
            events: events
                .into_iter()
                .map(|(cycle, event)| ScheduledFault { cycle, event })
                .collect(),
        })
    }

    /// The events in schedule order.
    pub fn events(&self) -> &[ScheduledFault] {
        &self.events
    }

    /// True when the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Validates the schedule against a concrete network: in-range node ids
    /// and dimensions, physically existing links, and no component failed
    /// twice (links are identified up to direction, so naming the same link
    /// from both endpoints counts as a duplicate).
    pub fn validate(&self, net: &AnyTopology) -> Result<(), FaultScheduleError> {
        let nodes = net.num_nodes();
        let dims = net.dims();
        let mut seen_nodes: Vec<u32> = Vec::new();
        // A physical link, canonically keyed by its endpoint pair + dimension.
        let mut seen_links: Vec<(u32, u32, usize)> = Vec::new();
        for sf in &self.events {
            match sf.event {
                FaultEvent::Node { node } => {
                    if node as usize >= nodes {
                        return Err(FaultScheduleError::NodeOutOfRange { node, nodes });
                    }
                    if seen_nodes.contains(&node) {
                        return Err(FaultScheduleError::DuplicateNode { node });
                    }
                    seen_nodes.push(node);
                }
                FaultEvent::Link { node, dim, dir } => {
                    if node as usize >= nodes {
                        return Err(FaultScheduleError::NodeOutOfRange { node, nodes });
                    }
                    if dim >= dims {
                        return Err(FaultScheduleError::DimOutOfRange { dim, dims });
                    }
                    let Some(other) = net.neighbor(NodeId(node), dim, dir) else {
                        return Err(FaultScheduleError::MissingLink { node, dim, dir });
                    };
                    let key = (node.min(other.0), node.max(other.0), dim);
                    if seen_links.contains(&key) {
                        return Err(FaultScheduleError::DuplicateLink { node, dim, dir });
                    }
                    seen_links.push(key);
                }
            }
        }
        Ok(())
    }

    /// Validates the schedule and materialises its epochs: one
    /// [`ScheduleEpoch`] per distinct injection cycle, each carrying the
    /// cumulative fault set, preceded by an explicit fault-free epoch 0
    /// when the first event arrives after cycle 0.
    pub fn epochs(&self, net: &AnyTopology) -> Result<Vec<ScheduleEpoch>, FaultScheduleError> {
        self.validate(net)?;
        let mut epochs = Vec::new();
        if self.events.first().is_none_or(|e| e.cycle > 0) {
            epochs.push(ScheduleEpoch {
                cycle: 0,
                new_events: Vec::new(),
                faults: FaultSet::new(),
            });
        }
        let mut cumulative = FaultSet::new();
        let mut i = 0;
        while i < self.events.len() {
            let cycle = self.events[i].cycle;
            let mut new_events = Vec::new();
            while i < self.events.len() && self.events[i].cycle == cycle {
                self.events[i].event.apply(net, &mut cumulative);
                new_events.push(self.events[i].event);
                i += 1;
            }
            epochs.push(ScheduleEpoch {
                cycle,
                new_events,
                faults: cumulative.clone(),
            });
        }
        Ok(epochs)
    }

    /// Parses the comma-joined spec syntax used by the `verify --schedule`
    /// CLI: each token is `CYCLE:node@ID` or `CYCLE:link@ID:dDIM±`, e.g.
    /// `100:node@4,200:link@2:d0+`.
    pub fn parse(spec: &str) -> Result<Self, FaultScheduleError> {
        let parse_err = |token: &str, reason: &str| FaultScheduleError::Parse {
            token: token.to_string(),
            reason: reason.to_string(),
        };
        let mut events = Vec::new();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let Some((cycle_str, rest)) = token.split_once(':') else {
                return Err(parse_err(
                    token,
                    "expected CYCLE:node@ID or CYCLE:link@ID:dDIM+/-",
                ));
            };
            let Ok(cycle) = cycle_str.parse::<u64>() else {
                return Err(parse_err(token, "cycle is not a non-negative integer"));
            };
            let event = if let Some(id_str) = rest.strip_prefix("node@") {
                let Ok(node) = id_str.parse::<u32>() else {
                    return Err(parse_err(token, "node id is not an integer"));
                };
                FaultEvent::Node { node }
            } else if let Some(link_str) = rest.strip_prefix("link@") {
                let Some((id_str, chan)) = link_str.split_once(':') else {
                    return Err(parse_err(token, "link events need ID:dDIM+ or ID:dDIM-"));
                };
                let Ok(node) = id_str.parse::<u32>() else {
                    return Err(parse_err(token, "link node id is not an integer"));
                };
                let Some(dim_sign) = chan.strip_prefix('d') else {
                    return Err(parse_err(token, "channel must look like d0+ or d2-"));
                };
                let dir = if dim_sign.ends_with('+') {
                    Direction::Plus
                } else if dim_sign.ends_with('-') {
                    Direction::Minus
                } else {
                    return Err(parse_err(token, "channel direction must be + or -"));
                };
                let Ok(dim) = dim_sign[..dim_sign.len() - 1].parse::<usize>() else {
                    return Err(parse_err(token, "channel dimension is not an integer"));
                };
                FaultEvent::Link { node, dim, dir }
            } else {
                return Err(parse_err(token, "event must be node@ID or link@ID:dDIM+/-"));
            };
            events.push((cycle, event));
        }
        FaultSchedule::from_events(events)
    }

    /// Renders the schedule back into the spec syntax accepted by
    /// [`FaultSchedule::parse`].
    pub fn spec_string(&self) -> String {
        self.events
            .iter()
            .map(|sf| format!("{}:{}", sf.cycle, sf.event.label()))
            .collect::<Vec<_>>()
            .join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torus4x2() -> AnyTopology {
        AnyTopology::torus(4, 2).unwrap()
    }

    #[test]
    fn epochs_are_cumulative_with_an_implicit_fault_free_start() {
        let net = torus4x2();
        let sched = FaultSchedule::from_events(vec![
            (10, FaultEvent::Node { node: 5 }),
            (
                20,
                FaultEvent::Link {
                    node: 2,
                    dim: 0,
                    dir: Direction::Plus,
                },
            ),
            (20, FaultEvent::Node { node: 9 }),
        ])
        .unwrap();
        let epochs = sched.epochs(&net).unwrap();
        assert_eq!(epochs.len(), 3);
        assert_eq!(epochs[0].cycle, 0);
        assert!(epochs[0].faults.is_empty());
        assert!(epochs[0].new_events.is_empty());
        assert_eq!(epochs[1].cycle, 10);
        assert_eq!(epochs[1].faults.num_faulty_nodes(), 1);
        assert_eq!(epochs[2].cycle, 20);
        assert_eq!(epochs[2].new_events.len(), 2);
        assert_eq!(epochs[2].faults.num_faulty_nodes(), 2);
        assert_eq!(epochs[2].faults.num_faulty_links(), 1);
        // The earlier node fault persists into the later epoch.
        assert!(epochs[2].faults.is_node_faulty(NodeId(5)));
    }

    #[test]
    fn cycle_zero_events_fold_into_epoch_zero() {
        let net = torus4x2();
        let sched = FaultSchedule::from_events(vec![(0, FaultEvent::Node { node: 1 })]).unwrap();
        let epochs = sched.epochs(&net).unwrap();
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].cycle, 0);
        assert_eq!(epochs[0].faults.num_faulty_nodes(), 1);
    }

    #[test]
    fn empty_schedule_has_one_fault_free_epoch() {
        let net = torus4x2();
        let epochs = FaultSchedule::new().epochs(&net).unwrap();
        assert_eq!(epochs.len(), 1);
        assert!(epochs[0].faults.is_empty());
    }

    #[test]
    fn non_monotone_cycles_are_rejected() {
        let err = FaultSchedule::from_events(vec![
            (20, FaultEvent::Node { node: 1 }),
            (10, FaultEvent::Node { node: 2 }),
        ])
        .unwrap_err();
        assert!(matches!(
            err,
            FaultScheduleError::NonMonotoneCycle {
                index: 1,
                cycle: 10,
                previous: 20
            }
        ));
    }

    #[test]
    fn duplicates_and_bounds_are_rejected() {
        let net = torus4x2();
        let dup_node = FaultSchedule::from_events(vec![
            (1, FaultEvent::Node { node: 3 }),
            (2, FaultEvent::Node { node: 3 }),
        ])
        .unwrap();
        assert!(matches!(
            dup_node.validate(&net).unwrap_err(),
            FaultScheduleError::DuplicateNode { node: 3 }
        ));

        // The same physical link named from both endpoints is a duplicate.
        let other = net.neighbor(NodeId(2), 0, Direction::Plus).unwrap();
        let dup_link = FaultSchedule::from_events(vec![
            (
                1,
                FaultEvent::Link {
                    node: 2,
                    dim: 0,
                    dir: Direction::Plus,
                },
            ),
            (
                2,
                FaultEvent::Link {
                    node: other.0,
                    dim: 0,
                    dir: Direction::Minus,
                },
            ),
        ])
        .unwrap();
        assert!(matches!(
            dup_link.validate(&net).unwrap_err(),
            FaultScheduleError::DuplicateLink { .. }
        ));

        let oob = FaultSchedule::from_events(vec![(1, FaultEvent::Node { node: 99 })]).unwrap();
        assert!(matches!(
            oob.validate(&net).unwrap_err(),
            FaultScheduleError::NodeOutOfRange {
                node: 99,
                nodes: 16
            }
        ));

        let bad_dim = FaultSchedule::from_events(vec![(
            1,
            FaultEvent::Link {
                node: 0,
                dim: 7,
                dir: Direction::Plus,
            },
        )])
        .unwrap();
        assert!(matches!(
            bad_dim.validate(&net).unwrap_err(),
            FaultScheduleError::DimOutOfRange { dim: 7, dims: 2 }
        ));

        // Mesh edges have no outward channel to fail.
        let mesh = AnyTopology::mesh(4, 2).unwrap();
        let missing = FaultSchedule::from_events(vec![(
            1,
            FaultEvent::Link {
                node: 0,
                dim: 0,
                dir: Direction::Minus,
            },
        )])
        .unwrap();
        assert!(matches!(
            missing.validate(&mesh).unwrap_err(),
            FaultScheduleError::MissingLink { .. }
        ));
    }

    #[test]
    fn spec_round_trips() {
        let spec = "10:node@4,20:link@2:d0+,30:link@7:d1-";
        let sched = FaultSchedule::parse(spec).unwrap();
        assert_eq!(sched.events().len(), 3);
        assert_eq!(sched.spec_string(), spec);
        let reparsed = FaultSchedule::parse(&sched.spec_string()).unwrap();
        assert_eq!(reparsed, sched);
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        for bad in [
            "node@4",
            "10:node@x",
            "10:link@2",
            "10:link@2:0+",
            "10:link@2:d0*",
            "10:flux@2",
        ] {
            assert!(
                matches!(
                    FaultSchedule::parse(bad),
                    Err(FaultScheduleError::Parse { .. })
                ),
                "'{bad}' must fail to parse"
            );
        }
        // Whitespace and empty tokens are tolerated around well-formed ones.
        let ok = FaultSchedule::parse(" 5:node@1 , ,7:node@2 ").unwrap();
        assert_eq!(ok.events().len(), 2);
    }
}
