//! Routing decisions returned to the router pipeline.
//!
//! A decision is built on every routing call of the simulator and of the
//! static verifier's walks, so it never touches the heap in the common case:
//! a candidate is six bytes — its VC set is a contiguous range, which is
//! every set the dateline rule can produce — and [`Candidates`] keeps up to
//! [`CANDIDATES_INLINE`] of them inline, spilling to a vector beyond that.

use std::fmt;
use std::ops::{Deref, DerefMut, Range};
use torus_topology::Direction;

/// Most virtual channels per physical channel a routing decision can name:
/// a candidate stores its VC range in bytes. Every configuration entry point
/// (`SimConfig` validation, the schedule verifier) rejects a larger pool with
/// a typed error before anything routes.
pub const MAX_VIRTUAL_CHANNELS: usize = u8::MAX as usize;

/// Candidates a [`Candidates`] list holds before it moves to the heap: an
/// adaptive decision offers one productive output per dimension (or one
/// up-port per parent) plus the escape, so this covers `hypercube:5` and
/// `ft:4,3`; wider fat-trees and higher-dimensional grids spill.
pub const CANDIDATES_INLINE: usize = 6;

/// A contiguous, ascending set of virtual-channel indices on one physical
/// channel, `start..end`, with `end <= MAX_VIRTUAL_CHANNELS`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VcRange {
    start: u8,
    end: u8,
}

impl VcRange {
    /// The channels of `range`. Panics when `range` ends past
    /// [`MAX_VIRTUAL_CHANNELS`] or is reversed.
    pub fn new(range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= MAX_VIRTUAL_CHANNELS,
            "virtual-channel range {range:?} exceeds the {MAX_VIRTUAL_CHANNELS}-channel bound"
        );
        VcRange {
            start: range.start as u8,
            end: range.end as u8,
        }
    }

    /// The channels as an ascending index range.
    #[inline]
    pub fn range(self) -> Range<usize> {
        usize::from(self.start)..usize::from(self.end)
    }
}

impl fmt::Debug for VcRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.range(), f)
    }
}

/// One admissible output for a header flit: a physical output port plus the
/// set of virtual channels the deadlock-avoidance scheme permits on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutputCandidate {
    dim: u16,
    dir: Direction,
    is_escape: bool,
    vcs: VcRange,
}

impl OutputCandidate {
    /// Creates an adaptive/ordinary candidate over the channels `vcs`.
    pub fn new(dim: usize, dir: Direction, vcs: Range<usize>) -> Self {
        Self::with(dim, dir, VcRange::new(vcs), false)
    }

    /// Creates an escape-channel candidate over the single channel `vc`.
    pub fn escape(dim: usize, dir: Direction, vc: usize) -> Self {
        Self::with(dim, dir, VcRange::new(vc..vc + 1), true)
    }

    fn with(dim: usize, dir: Direction, vcs: VcRange, is_escape: bool) -> Self {
        OutputCandidate {
            dim: u16::try_from(dim).expect("dimension index fits in 16 bits"),
            dir,
            is_escape,
            vcs,
        }
    }

    /// Dimension of the output physical channel.
    #[inline]
    pub fn dim(&self) -> usize {
        usize::from(self.dim)
    }

    /// Direction of the output physical channel.
    #[inline]
    pub fn dir(&self) -> Direction {
        self.dir
    }

    /// Permitted virtual-channel indices on that physical channel, ascending
    /// (the VC allocator picks a free one at random, per the paper's
    /// assumption (e)).
    #[inline]
    pub fn vcs(&self) -> VcRange {
        self.vcs
    }

    /// True when this candidate is an escape channel of Duato's protocol
    /// (used only when no adaptive candidate has a free VC).
    #[inline]
    pub fn is_escape(&self) -> bool {
        self.is_escape
    }
}

/// The candidates of a [`RouteDecision::Forward`], in routing-function
/// order: inline up to [`CANDIDATES_INLINE`], on the heap beyond. Equality
/// and `Debug` see only the listed candidates, whatever the storage.
#[derive(Clone)]
pub struct Candidates(List);

#[derive(Clone)]
enum List {
    /// `items[..len]`.
    Inline {
        len: u8,
        items: [OutputCandidate; CANDIDATES_INLINE],
    },
    Spilled(Vec<OutputCandidate>),
}

impl Candidates {
    /// The empty list.
    pub const fn new() -> Self {
        const UNUSED: OutputCandidate = OutputCandidate {
            dim: 0,
            dir: Direction::Plus,
            is_escape: false,
            vcs: VcRange { start: 0, end: 0 },
        };
        Candidates(List::Inline {
            len: 0,
            items: [UNUSED; CANDIDATES_INLINE],
        })
    }

    /// Appends `candidate`, moving the list to the heap when it outgrows
    /// the inline slots.
    #[inline]
    pub fn push(&mut self, candidate: OutputCandidate) {
        match &mut self.0 {
            List::Inline { len, items } if usize::from(*len) < CANDIDATES_INLINE => {
                items[usize::from(*len)] = candidate;
                *len += 1;
            }
            List::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * CANDIDATES_INLINE);
                spilled.extend_from_slice(items);
                spilled.push(candidate);
                self.0 = List::Spilled(spilled);
            }
            List::Spilled(items) => items.push(candidate),
        }
    }
}

impl Default for Candidates {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Candidates {
    type Target = [OutputCandidate];

    #[inline]
    fn deref(&self) -> &[OutputCandidate] {
        match &self.0 {
            List::Inline { len, items } => &items[..usize::from(*len)],
            List::Spilled(items) => items,
        }
    }
}

impl DerefMut for Candidates {
    #[inline]
    fn deref_mut(&mut self) -> &mut [OutputCandidate] {
        match &mut self.0 {
            List::Inline { len, items } => &mut items[..usize::from(*len)],
            List::Spilled(items) => items,
        }
    }
}

impl<'a> IntoIterator for &'a Candidates {
    type Item = &'a OutputCandidate;
    type IntoIter = std::slice::Iter<'a, OutputCandidate>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<OutputCandidate> for Candidates {
    fn from_iter<I: IntoIterator<Item = OutputCandidate>>(iter: I) -> Self {
        let mut list = Candidates::new();
        for candidate in iter {
            list.push(candidate);
        }
        list
    }
}

impl PartialEq for Candidates {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Candidates {}

impl fmt::Debug for Candidates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Decision taken by the routing function for a header flit at a node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteDecision {
    /// Forward the message over one of the listed candidates (in decreasing
    /// preference order between groups; within a group the VC allocator picks
    /// randomly among free VCs).
    Forward(Candidates),
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
        let c = OutputCandidate::new(1, Direction::Minus, 2..5);
        assert!(!c.is_escape());
        assert_eq!(c.vcs().range(), 2..5);
        let e = OutputCandidate::escape(0, Direction::Plus, 1);
        assert!(e.is_escape());
        assert_eq!(e.vcs().range(), 1..2);
    }

    #[test]
    fn decision_accessors() {
        let d = RouteDecision::Forward(
            [OutputCandidate::new(0, Direction::Plus, 0..1)]
                .into_iter()
                .collect(),
        );
        assert_eq!(d.candidates().len(), 1);
        assert!(!d.is_absorb());
        assert!(RouteDecision::Absorb.is_absorb());
        assert!(RouteDecision::Deliver.candidates().is_empty());
    }

    #[test]
    fn candidates_spill_past_the_inline_slots_and_compare_by_content() {
        let all: Vec<OutputCandidate> = (0..2 * CANDIDATES_INLINE)
            .map(|dim| OutputCandidate::new(dim, Direction::Minus, 1..3))
            .collect();
        let mut list = Candidates::new();
        for (i, &candidate) in all.iter().enumerate() {
            list.push(candidate);
            assert_eq!(*list, all[..=i]);
        }
        assert!(matches!(list.0, List::Spilled(_)));
        let inline: Candidates = all[..3].iter().copied().collect();
        let mut spilled = Candidates(List::Spilled(all[..3].to_vec()));
        assert_eq!(inline, spilled);
        assert_eq!(format!("{inline:?}"), format!("{spilled:?}"));
        spilled.push(all[0]);
        assert_ne!(inline, spilled);
    }

    #[test]
    fn vc_ranges_stop_at_the_bound() {
        assert_eq!(
            VcRange::new(0..MAX_VIRTUAL_CHANNELS).range().len(),
            MAX_VIRTUAL_CHANNELS
        );
        assert_eq!(format!("{:?}", VcRange::new(2..4)), "2..4");
        assert!(std::panic::catch_unwind(|| VcRange::new(1..MAX_VIRTUAL_CHANNELS + 1)).is_err());
    }
}
