//! Routing decisions returned to the router pipeline.

use serde::{Deserialize, Serialize};
use torus_topology::Direction;

/// One admissible output for a header flit: a physical output port plus the
/// set of virtual channels the deadlock-avoidance scheme permits on it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutputCandidate {
    /// Dimension of the output physical channel.
    pub dim: usize,
    /// Direction of the output physical channel.
    pub dir: Direction,
    /// Permitted virtual-channel indices on that physical channel, in no
    /// particular order (the VC allocator picks a free one at random, per the
    /// paper's assumption (e)).
    pub vcs: Vec<usize>,
    /// True when this candidate is an escape channel of Duato's protocol
    /// (used only when no adaptive candidate has a free VC).
    pub is_escape: bool,
}

impl OutputCandidate {
    /// Creates an adaptive/ordinary candidate.
    pub fn new(dim: usize, dir: Direction, vcs: Vec<usize>) -> Self {
        OutputCandidate {
            dim,
            dir,
            vcs,
            is_escape: false,
        }
    }

    /// Creates an escape-channel candidate.
    pub fn escape(dim: usize, dir: Direction, vc: usize) -> Self {
        OutputCandidate {
            dim,
            dir,
            vcs: vec![vc],
            is_escape: true,
        }
    }
}

/// Decision taken by the routing function for a header flit at a node.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouteDecision {
    /// Forward the message over one of the listed candidates (in decreasing
    /// preference order between groups; within a group the VC allocator picks
    /// randomly among free VCs).
    Forward(Vec<OutputCandidate>),
    /// The message has reached its final destination; eject it to the local
    /// PE.
    Deliver,
    /// Every useful output leads to a faulty component: absorb the message at
    /// this node and hand it to the message-passing software for re-routing
    /// (the Software-Based mechanism).
    Absorb,
}

impl RouteDecision {
    /// Convenience accessor: the forwarding candidates, if any.
    pub fn candidates(&self) -> &[OutputCandidate] {
        match self {
            RouteDecision::Forward(c) => c,
            _ => &[],
        }
    }

    /// True if the decision is to absorb the message.
    pub fn is_absorb(&self) -> bool {
        matches!(self, RouteDecision::Absorb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_constructors() {
        let c = OutputCandidate::new(1, Direction::Minus, vec![2, 3, 4]);
        assert!(!c.is_escape);
        assert_eq!(c.vcs, vec![2, 3, 4]);
        let e = OutputCandidate::escape(0, Direction::Plus, 1);
        assert!(e.is_escape);
        assert_eq!(e.vcs, vec![1]);
    }

    #[test]
    fn decision_accessors() {
        let d = RouteDecision::Forward(vec![OutputCandidate::new(0, Direction::Plus, vec![0])]);
        assert_eq!(d.candidates().len(), 1);
        assert!(!d.is_absorb());
        assert!(RouteDecision::Absorb.is_absorb());
        assert!(RouteDecision::Deliver.candidates().is_empty());
    }
}
