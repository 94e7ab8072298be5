//! Node identifiers and mixed-radix coordinates.
//!
//! Every node of a k-ary n-cube carries an n-digit radix-k address
//! `{a_{n-1}, ..., a_0}`. Internally we number nodes with a dense integer
//! [`NodeId`] in mixed-radix order (digit 0 is the least significant), which
//! makes table lookups in the simulator O(1) array indexing.

use std::fmt;

/// Dense node identifier, `0 <= id < k^n`.
///
/// `NodeId` is a thin newtype over `u32`; a k-ary n-cube with more than
/// 2^32 nodes is far beyond anything the simulator targets (the paper uses at
/// most 16^2 = 256 and 8^3 = 512 nodes).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the identifier as a `usize` suitable for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a `NodeId` from a raw index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NodeId(i as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Mixed-radix coordinate of a node: one digit per dimension, each in `0..k`.
///
/// Digit `i` is the position of the node along dimension `i`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Coord {
    digits: Vec<u16>,
}

impl Coord {
    /// Creates a coordinate from its digits (dimension 0 first).
    pub fn new(digits: Vec<u16>) -> Self {
        Coord { digits }
    }

    /// Creates the all-zero coordinate with `n` dimensions.
    pub fn zero(n: usize) -> Self {
        Coord { digits: vec![0; n] }
    }

    /// The per-dimension digits (dimension 0 first).
    #[inline]
    pub fn digits(&self) -> &[u16] {
        &self.digits
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.digits.len()
    }

    /// Position along dimension `dim`.
    #[inline]
    pub fn get(&self, dim: usize) -> u16 {
        self.digits[dim]
    }

    /// Sets the position along dimension `dim`.
    #[inline]
    pub fn set(&mut self, dim: usize, value: u16) {
        self.digits[dim] = value;
    }

    /// Returns a copy with dimension `dim` replaced by `value`.
    pub fn with(&self, dim: usize, value: u16) -> Self {
        let mut c = self.clone();
        c.set(dim, value);
        c
    }

    /// Set of dimensions in which the two coordinates differ.
    pub fn differing_dims(&self, other: &Coord) -> Vec<usize> {
        self.digits
            .iter()
            .zip(other.digits.iter())
            .enumerate()
            .filter_map(|(d, (a, b))| (a != b).then_some(d))
            .collect()
    }
}

impl fmt::Debug for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.digits.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<Vec<u16>> for Coord {
    fn from(digits: Vec<u16>) -> Self {
        Coord::new(digits)
    }
}

impl From<&[u16]> for Coord {
    fn from(digits: &[u16]) -> Self {
        Coord::new(digits.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(NodeId::from(42u32), id);
        assert_eq!(format!("{id}"), "42");
        assert_eq!(format!("{id:?}"), "n42");
    }

    #[test]
    fn coord_basics() {
        let mut c = Coord::zero(3);
        assert_eq!(c.dims(), 3);
        assert_eq!(c.digits(), &[0, 0, 0]);
        c.set(1, 5);
        assert_eq!(c.get(1), 5);
        let d = c.with(2, 7);
        assert_eq!(d.digits(), &[0, 5, 7]);
        assert_eq!(c.digits(), &[0, 5, 0]);
    }

    #[test]
    fn coord_differing_dims() {
        let a = Coord::new(vec![1, 2, 3]);
        let b = Coord::new(vec![1, 9, 3]);
        assert_eq!(a.differing_dims(&b), vec![1]);
        assert!(a.differing_dims(&a).is_empty());
    }

    #[test]
    fn coord_display() {
        let a = Coord::new(vec![3, 4]);
        assert_eq!(format!("{a}"), "(3,4)");
    }
}
