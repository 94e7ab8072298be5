//! Identification of unidirectional physical channels.
//!
//! A k-ary n-cube node owns `2n` outgoing network channels: one per dimension
//! and direction. A channel is identified either *locally* (source node,
//! dimension, direction) via [`DirectedChannel`], or *globally* with a dense
//! integer [`ChannelId`] suitable for indexing simulator state tables.

use crate::coords::NodeId;
use std::fmt;

/// Direction of travel along a dimension of the torus.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// Increasing coordinate (wrapping from k-1 back to 0).
    Plus,
    /// Decreasing coordinate (wrapping from 0 back to k-1).
    Minus,
}

impl Direction {
    /// The opposite direction.
    #[inline]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::Plus => Direction::Minus,
            Direction::Minus => Direction::Plus,
        }
    }

    /// Encodes the direction as 0 (Plus) or 1 (Minus).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Direction::Plus => 0,
            Direction::Minus => 1,
        }
    }

    /// Decodes a direction from its index.
    #[inline]
    pub fn from_index(i: usize) -> Direction {
        if i == 0 {
            Direction::Plus
        } else {
            Direction::Minus
        }
    }

    /// Signed unit step (+1 / -1) represented by this direction.
    #[inline]
    pub fn sign(self) -> i32 {
        match self {
            Direction::Plus => 1,
            Direction::Minus => -1,
        }
    }

    /// The direction whose sign matches `offset` (> 0 ⇒ Plus, < 0 ⇒ Minus).
    ///
    /// Returns `None` for a zero offset.
    #[inline]
    pub fn from_offset(offset: i32) -> Option<Direction> {
        match offset.signum() {
            1 => Some(Direction::Plus),
            -1 => Some(Direction::Minus),
            _ => None,
        }
    }

    /// Both directions, Plus first.
    pub const BOTH: [Direction; 2] = [Direction::Plus, Direction::Minus];
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Plus => write!(f, "+"),
            Direction::Minus => write!(f, "-"),
        }
    }
}

/// A unidirectional physical channel identified by its source node, the
/// dimension it traverses and the direction of travel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DirectedChannel {
    /// Node the channel leaves from.
    pub from: NodeId,
    /// Dimension the channel traverses.
    pub dim: usize,
    /// Direction of travel along `dim`.
    pub dir: Direction,
}

impl DirectedChannel {
    /// Creates a new directed channel descriptor.
    pub fn new(from: NodeId, dim: usize, dir: Direction) -> Self {
        DirectedChannel { from, dim, dir }
    }
}

impl fmt::Display for DirectedChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[d{}{}]", self.from, self.dim, self.dir)
    }
}

/// Dense identifier of a unidirectional physical channel slot.
///
/// On a topology with `dims` `(dim, dir)` port pairs per node the encoding
/// is `node * 2 * dims + dim * 2 + dir`, so all channels leaving one node are
/// contiguous. Simulator tables and the verifier's resource-id space index by
/// slot; slots of channels that do not physically exist (mesh edges,
/// endpoint down-ports) are simply never used, and
/// [`crate::AnyTopology::channels`] never yields them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// The slot of `ch` on a topology with `dims` port pairs per node.
    #[inline]
    pub fn new(ch: DirectedChannel, dims: usize) -> Self {
        let per_node = 2 * dims as u32;
        ChannelId(ch.from.0 * per_node + (ch.dim as u32) * 2 + ch.dir.index() as u32)
    }

    /// The channel this slot names on a topology with `dims` port pairs per
    /// node (inverse of [`ChannelId::new`]).
    #[inline]
    pub fn channel(self, dims: usize) -> DirectedChannel {
        let per_node = 2 * dims as u32;
        let rest = self.0 % per_node;
        DirectedChannel::new(
            NodeId(self.0 / per_node),
            (rest / 2) as usize,
            Direction::from_index((rest % 2) as usize),
        )
    }

    /// Number of slots of `num_nodes` nodes with `dims` port pairs each.
    #[inline]
    pub fn slots(num_nodes: usize, dims: usize) -> usize {
        num_nodes * 2 * dims
    }

    /// Returns the identifier as a `usize` suitable for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a `ChannelId` from a raw index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        ChannelId(i as u32)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_opposite_and_sign() {
        assert_eq!(Direction::Plus.opposite(), Direction::Minus);
        assert_eq!(Direction::Minus.opposite(), Direction::Plus);
        assert_eq!(Direction::Plus.sign(), 1);
        assert_eq!(Direction::Minus.sign(), -1);
    }

    #[test]
    fn direction_index_roundtrip() {
        for d in Direction::BOTH {
            assert_eq!(Direction::from_index(d.index()), d);
        }
    }

    #[test]
    fn direction_from_offset() {
        assert_eq!(Direction::from_offset(3), Some(Direction::Plus));
        assert_eq!(Direction::from_offset(-2), Some(Direction::Minus));
        assert_eq!(Direction::from_offset(0), None);
    }

    #[test]
    fn display_forms() {
        let ch = DirectedChannel::new(NodeId(5), 1, Direction::Minus);
        assert_eq!(format!("{ch}"), "5[d1-]");
        assert_eq!(format!("{}", ChannelId(9)), "c9");
    }
}
