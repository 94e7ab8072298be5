//! The mixed-radix multidimensional network topology.
//!
//! A [`Network`] is an n-dimensional grid with a per-dimension radix vector
//! and a per-dimension *wrap* flag: dimension `d` has `k_d` nodes along it and
//! is either a ring (wrap-around link between positions `k_d - 1` and `0`) or
//! an open line. This one type covers every topology family the study uses:
//!
//! * [`Network::torus`] — the classical k-ary n-cube (all dimensions wrap);
//! * [`Network::mesh`] — the k-ary n-mesh (no dimension wraps; edge nodes have
//!   fewer neighbours);
//! * [`Network::hypercube`] — the binary n-cube (radix-2 mesh);
//! * [`Network::new`] — arbitrary mixed-radix shapes such as an `8x8x4`
//!   network with a wrapped plane and an open third dimension.

use crate::channel::{DirectedChannel, Direction};
use crate::coords::{Coord, NodeId};
use std::fmt;

/// Errors produced when constructing or querying a [`Network`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant payload fields are self-describing
pub enum NetworkError {
    /// A per-dimension radix must be at least 2 (k = 1 is a degenerate
    /// single-node line; the wormhole channel model additionally prefers
    /// k >= 3 for distinct plus/minus neighbours, but k = 2 is accepted and
    /// handled).
    RadixTooSmall { dim: usize, radix: u16 },
    /// Dimensionality must be at least 1.
    DimensionTooSmall(u32),
    /// The network's node count would overflow the node-id space.
    TooManyNodes,
    /// The radix and wrap vectors have different lengths.
    MismatchedWraps { radices: usize, wraps: usize },
    /// A supplied coordinate digit lies outside `0..k_dim`.
    DigitOutOfRange { dim: usize, digit: u16, radix: u16 },
    /// A coordinate has the wrong number of dimensions.
    WrongDimensionality { expected: usize, got: usize },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::RadixTooSmall { dim, radix } => {
                write!(
                    f,
                    "radix k={radix} in dimension {dim} is too small (need k >= 2)"
                )
            }
            NetworkError::DimensionTooSmall(n) => {
                write!(f, "dimensionality n={n} is too small (need n >= 1)")
            }
            NetworkError::TooManyNodes => {
                write!(f, "node count exceeds the supported node-id space")
            }
            NetworkError::MismatchedWraps { radices, wraps } => write!(
                f,
                "{radices} radices but {wraps} wrap flags (one flag per dimension)"
            ),
            NetworkError::DigitOutOfRange { dim, digit, radix } => {
                write!(
                    f,
                    "digit {digit} in dimension {dim} out of range 0..{radix}"
                )
            }
            NetworkError::WrongDimensionality { expected, got } => {
                write!(f, "coordinate has {got} dimensions, expected {expected}")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// A mixed-radix multidimensional direct network.
///
/// The topology owns no per-node state; it is a pure description of the
/// address space and channel structure, cheap to clone around. Dimension `d`
/// has `radices[d]` positions and wraps around iff `wraps[d]` is true.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Network {
    radices: Vec<u16>,
    wraps: Vec<bool>,
    num_nodes: u32,
    /// `strides[d] = k_0 * ... * k_{d-1}`, used for mixed-radix conversion.
    strides: Vec<u32>,
    /// Per dimension, division by the stride (none for stride 1) and by the
    /// radix, which [`Network::position`] does without a hardware division.
    dividers: Vec<(Option<Divisor>, Divisor)>,
}

/// Division of 32-bit numbers by a fixed divisor `d >= 2` with multiplies
/// instead of a hardware division. With `m = ceil(2^64 / d)`, `n / d` is the
/// high word of `m * n`, and `n % d` the high word of `(m * n mod 2^64) * d`,
/// for every 32-bit `n` and `d` (Lemire, Kaser and Kurz, "Faster Remainder by
/// Direct Computation", 2019).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Divisor {
    m: u64,
    d: u32,
}

impl Divisor {
    fn new(d: u32) -> Self {
        debug_assert!(d >= 2, "dividing by {d} needs no multiplier");
        // ceil(2^64 / d), which fits 64 bits for d >= 2.
        Divisor {
            m: u64::MAX / u64::from(d) + 1,
            d,
        }
    }

    /// `n / d`.
    #[inline]
    fn quotient(self, n: u32) -> u32 {
        ((u128::from(self.m) * u128::from(n)) >> 64) as u32
    }

    /// `n % d`.
    #[inline]
    fn remainder(self, n: u32) -> u32 {
        let low = self.m.wrapping_mul(u64::from(n));
        ((u128::from(low) * u128::from(self.d)) >> 64) as u32
    }
}

impl Network {
    /// Creates a network from per-dimension radices and wrap flags.
    ///
    /// # Errors
    /// Returns an error if any radix is below 2, the two vectors differ in
    /// length, the dimensionality is 0 or the node count overflows the
    /// node-id space.
    pub fn new(radices: Vec<u16>, wraps: Vec<bool>) -> Result<Self, NetworkError> {
        if radices.len() != wraps.len() {
            return Err(NetworkError::MismatchedWraps {
                radices: radices.len(),
                wraps: wraps.len(),
            });
        }
        if radices.is_empty() {
            return Err(NetworkError::DimensionTooSmall(0));
        }
        for (dim, &k) in radices.iter().enumerate() {
            if k < 2 {
                return Err(NetworkError::RadixTooSmall { dim, radix: k });
            }
        }
        let mut strides = Vec::with_capacity(radices.len());
        let mut acc: u64 = 1;
        for &k in &radices {
            strides.push(acc as u32);
            acc = acc
                .checked_mul(k as u64)
                .ok_or(NetworkError::TooManyNodes)?;
            if acc > u32::MAX as u64 {
                return Err(NetworkError::TooManyNodes);
            }
        }
        let dividers = strides
            .iter()
            .zip(&radices)
            .map(|(&stride, &k)| {
                let stride = (stride > 1).then(|| Divisor::new(stride));
                (stride, Divisor::new(u32::from(k)))
            })
            .collect();
        Ok(Network {
            radices,
            wraps,
            num_nodes: acc as u32,
            strides,
            dividers,
        })
    }

    /// Creates a k-ary n-cube (uniform radix, every dimension wraps).
    pub fn torus(k: u16, n: u32) -> Result<Self, NetworkError> {
        Network::uniform(k, n, true)
    }

    /// Creates a k-ary n-mesh (uniform radix, no dimension wraps).
    pub fn mesh(k: u16, n: u32) -> Result<Self, NetworkError> {
        Network::uniform(k, n, false)
    }

    /// `n` dimensions of radix `k`, all wrapped or all open.
    fn uniform(k: u16, n: u32, wrap: bool) -> Result<Self, NetworkError> {
        if n < 1 {
            return Err(NetworkError::DimensionTooSmall(n));
        }
        // 33 dimensions of radix 2 or more already overflow the u32 node-id
        // space, so `new` returns the same error for the first 33 as for all
        // `n`, without first allocating per-dimension vectors of length `n`
        // (a `--topology torus:2x4000000000` would otherwise ask for 12 GB).
        let n = n.min(u32::BITS + 1) as usize;
        Network::new(vec![k; n], vec![wrap; n])
    }

    /// Creates a binary n-cube (hypercube): radix 2 in every dimension,
    /// no wrap-around (each node has exactly one neighbour per dimension).
    pub fn hypercube(n: u32) -> Result<Self, NetworkError> {
        Network::mesh(2, n)
    }

    /// Radix (number of nodes) along dimension `dim`.
    #[inline]
    pub fn radix(&self, dim: usize) -> u16 {
        self.radices[dim]
    }

    /// The per-dimension radix vector.
    #[inline]
    pub fn radices(&self) -> &[u16] {
        &self.radices
    }

    /// True if dimension `dim` wraps around (is a ring rather than a line).
    #[inline]
    pub fn wraps(&self, dim: usize) -> bool {
        self.wraps[dim]
    }

    /// True if at least one dimension wraps (the network embeds a ring and
    /// therefore needs dateline virtual-channel classes for deadlock-free
    /// deterministic routing).
    pub fn any_wrap(&self) -> bool {
        self.wraps.iter().any(|&w| w)
    }

    /// Dimensionality of the network.
    #[inline]
    pub fn dims(&self) -> usize {
        self.radices.len()
    }

    /// Total number of nodes, `k_0 * ... * k_{n-1}`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// Number of unidirectional network channels that physically exist.
    ///
    /// A wrapped dimension contributes `2 * N` channels; an open dimension
    /// contributes `2 * N * (k - 1) / k` (edge nodes are missing the outward
    /// channel).
    pub fn num_channels(&self) -> usize {
        let n = self.num_nodes();
        (0..self.dims())
            .map(|d| {
                if self.wraps[d] {
                    2 * n
                } else {
                    2 * (n / self.radices[d] as usize) * (self.radices[d] as usize - 1)
                }
            })
            .sum()
    }

    /// Converts a node identifier to its mixed-radix coordinate.
    pub fn coord(&self, node: NodeId) -> Coord {
        debug_assert!(node.0 < self.num_nodes, "node id out of range");
        let mut digits = Vec::with_capacity(self.dims());
        let mut rest = node.0;
        for &k in &self.radices {
            digits.push((rest % k as u32) as u16);
            rest /= k as u32;
        }
        Coord::new(digits)
    }

    /// Converts a coordinate to its node identifier.
    ///
    /// # Errors
    /// Returns an error if the coordinate has the wrong dimensionality or a
    /// digit out of range.
    pub fn node(&self, coord: &Coord) -> Result<NodeId, NetworkError> {
        if coord.dims() != self.dims() {
            return Err(NetworkError::WrongDimensionality {
                expected: self.dims(),
                got: coord.dims(),
            });
        }
        let mut id = 0u32;
        for (dim, &digit) in coord.digits().iter().enumerate() {
            if digit >= self.radices[dim] {
                return Err(NetworkError::DigitOutOfRange {
                    dim,
                    digit,
                    radix: self.radices[dim],
                });
            }
            id += digit as u32 * self.strides[dim];
        }
        Ok(NodeId(id))
    }

    /// Convenience constructor of a node id from raw digits.
    pub fn node_from_digits(&self, digits: &[u16]) -> Result<NodeId, NetworkError> {
        self.node(&Coord::new(digits.to_vec()))
    }

    /// Position of `node` along `dim`.
    #[inline]
    pub fn position(&self, node: NodeId, dim: usize) -> u16 {
        let (stride, radix) = self.dividers[dim];
        let above = stride.map_or(node.0, |stride| stride.quotient(node.0));
        radix.remainder(above) as u16
    }

    /// True if the outgoing channel of `node` along `dim`/`dir` physically
    /// exists (always true on wrapped dimensions; false at the outward edge of
    /// an open dimension).
    #[inline]
    pub fn has_channel(&self, node: NodeId, dim: usize, dir: Direction) -> bool {
        if self.wraps[dim] {
            return true;
        }
        let pos = self.position(node, dim);
        match dir {
            Direction::Plus => pos + 1 < self.radices[dim],
            Direction::Minus => pos > 0,
        }
    }

    /// The neighbour of `node` one hop away along `dim` in direction `dir`,
    /// or `None` when the hop would step off the edge of an open dimension.
    pub fn neighbor(&self, node: NodeId, dim: usize, dir: Direction) -> Option<NodeId> {
        let pos = self.position(node, dim) as i32;
        let k = self.radices[dim] as i32;
        let mut next = pos + dir.sign();
        if !(0..k).contains(&next) {
            if !self.wraps[dim] {
                return None;
            }
            // The wrap-around link: one ring length back.
            next -= dir.sign() * k;
        }
        let base = node.0 - (pos as u32) * self.strides[dim];
        Some(NodeId(base + next as u32 * self.strides[dim]))
    }

    /// Minimal signed offset from `src` to `dest` along dimension `dim`.
    ///
    /// On a wrapped dimension the returned value lies in `[-(k/2), k/2]`; when
    /// the two directions are equidistant (even `k`, offset exactly `k/2`) the
    /// positive direction is chosen, matching the deterministic tie-break used
    /// by e-cube routing. On an open dimension the offset is simply the signed
    /// position difference (there is no wrap-around shortcut).
    pub fn offset(&self, src: NodeId, dest: NodeId, dim: usize) -> i32 {
        let a = self.position(src, dim) as i32;
        let b = self.position(dest, dim) as i32;
        if !self.wraps[dim] {
            return b - a;
        }
        let k = self.radices[dim] as i32;
        let mut d = b - a;
        if d < 0 {
            d += k; // 0..k, going Plus
        }
        if 2 * d > k {
            // going Minus is strictly shorter (on a tie d == k/2 with even k we
            // keep the positive direction, the deterministic e-cube tie-break)
            d -= k;
        }
        d
    }

    /// Minimal hop distance between two nodes.
    pub fn distance(&self, src: NodeId, dest: NodeId) -> u32 {
        (0..self.dims())
            .map(|d| self.offset(src, dest, d).unsigned_abs())
            .sum()
    }

    /// Whether travelling one hop from position `from` in direction `dir`
    /// crosses the dateline of the ring in dimension `dim`.
    ///
    /// The dateline is placed on the wrap-around link: Plus crosses it when
    /// moving from `k-1` to `0`, Minus when moving from `0` to `k-1`. Open
    /// dimensions have no wrap-around link and therefore no dateline.
    #[inline]
    pub fn crosses_dateline(&self, dim: usize, from: u16, dir: Direction) -> bool {
        if !self.wraps[dim] {
            return false;
        }
        match dir {
            Direction::Plus => from == self.radices[dim] - 1,
            Direction::Minus => from == 0,
        }
    }

    /// Whether a hop over `ch` is the wrap-around link of its ring (always
    /// false on open dimensions).
    pub fn is_wraparound(&self, ch: DirectedChannel) -> bool {
        self.crosses_dateline(ch.dim, self.position(ch.from, ch.dim), ch.dir)
    }

    /// Average minimal hop distance over all ordered pairs of distinct nodes.
    ///
    /// Computed exactly per dimension: a wrapped dimension contributes the
    /// mean ring distance, an open one the mean line distance.
    pub fn average_distance(&self) -> f64 {
        let mut total = 0.0f64;
        for d in 0..self.dims() {
            let k = self.radices[d] as i64;
            let per_dim_mean = if self.wraps[d] {
                // Mean over a uniformly random position difference delta.
                let mut per_dim_total = 0i64;
                for delta in 0..k {
                    per_dim_total += delta.min(k - delta);
                }
                per_dim_total as f64 / k as f64
            } else {
                // Mean |i - j| over all ordered position pairs.
                let mut pair_total = 0i64;
                for i in 0..k {
                    for j in 0..k {
                        pair_total += (i - j).abs();
                    }
                }
                pair_total as f64 / (k * k) as f64
            };
            total += per_dim_mean;
        }
        total * self.num_nodes() as f64 / (self.num_nodes() as f64 - 1.0)
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (d, (&k, &w)) in self.radices.iter().zip(self.wraps.iter()).enumerate() {
            if d > 0 {
                write!(f, "x")?;
            }
            write!(f, "{k}{}", if w { "" } else { "o" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::AnyTopology;

    fn any(net: &Network) -> AnyTopology {
        AnyTopology::Grid(net.clone())
    }

    /// The multiply-high division agrees with the hardware one at the edges
    /// of the 32-bit range, for the smallest, power-of-two and largest
    /// divisors.
    #[test]
    fn divisor_matches_hardware_division_at_the_extremes() {
        for d in [
            2,
            3,
            7,
            255,
            256,
            65_535,
            65_536,
            1 << 31,
            (1 << 31) + 1,
            u32::MAX,
        ] {
            let divisor = Divisor::new(d);
            for n in [0, 1, d - 1, d, d.wrapping_add(1), u32::MAX - 1, u32::MAX] {
                assert_eq!(divisor.quotient(n), n / d, "{n} / {d}");
                assert_eq!(divisor.remainder(n), n % d, "{n} % {d}");
            }
        }
    }

    #[test]
    fn construction_and_sizes() {
        let t = Network::torus(8, 2).unwrap();
        assert_eq!(t.num_nodes(), 64);
        assert_eq!(t.num_channels(), 64 * 4);
        let t = Network::torus(8, 3).unwrap();
        assert_eq!(t.num_nodes(), 512);
        assert_eq!(t.num_channels(), 512 * 6);
        let t = Network::torus(16, 2).unwrap();
        assert_eq!(t.num_nodes(), 256);
    }

    #[test]
    fn mesh_sizes_and_channels() {
        let m = Network::mesh(4, 2).unwrap();
        assert_eq!(m.num_nodes(), 16);
        // each dimension: 2 * 4 lines * 3 links = 24 channels
        assert_eq!(m.num_channels(), 48);
        assert_eq!(any(&m).channel_slots(), 64);
        assert_eq!(any(&m).channels().count(), m.num_channels());
        assert!(!m.any_wrap());
    }

    #[test]
    fn hypercube_is_a_radix2_mesh() {
        let h = Network::hypercube(4).unwrap();
        assert_eq!(h.num_nodes(), 16);
        assert_eq!(h.dims(), 4);
        // every node has exactly n neighbours
        for node in any(&h).nodes() {
            assert_eq!(any(&h).neighbors(node).count(), 4);
        }
        assert_eq!(h.num_channels(), 16 * 4);
    }

    #[test]
    fn mixed_radix_construction() {
        let n = Network::new(vec![8, 8, 4], vec![true, true, false]).unwrap();
        assert_eq!(n.num_nodes(), 256);
        assert_eq!(n.radix(2), 4);
        assert!(n.wraps(0) && !n.wraps(2));
        assert!(n.any_wrap());
        assert_eq!(format!("{n}"), "8x8x4o");
    }

    #[test]
    fn construction_errors() {
        assert_eq!(
            Network::torus(1, 2).unwrap_err(),
            NetworkError::RadixTooSmall { dim: 0, radix: 1 }
        );
        assert_eq!(
            Network::torus(4, 0).unwrap_err(),
            NetworkError::DimensionTooSmall(0)
        );
        assert_eq!(
            Network::torus(u16::MAX, 4).unwrap_err(),
            NetworkError::TooManyNodes
        );
        // Absurd dimension counts fail like any overflow, without
        // allocating per-dimension vectors that long.
        assert_eq!(
            Network::mesh(2, u32::MAX).unwrap_err(),
            NetworkError::TooManyNodes
        );
        assert_eq!(
            Network::torus(1, u32::MAX).unwrap_err(),
            NetworkError::RadixTooSmall { dim: 0, radix: 1 }
        );
        assert_eq!(Network::mesh(2, 31).unwrap().num_nodes(), 1 << 31);
        assert_eq!(
            Network::new(vec![4, 4], vec![true]).unwrap_err(),
            NetworkError::MismatchedWraps {
                radices: 2,
                wraps: 1
            }
        );
        assert_eq!(
            Network::new(vec![], vec![]).unwrap_err(),
            NetworkError::DimensionTooSmall(0)
        );
    }

    #[test]
    fn coord_roundtrip() {
        for net in [
            Network::torus(5, 3).unwrap(),
            Network::mesh(5, 3).unwrap(),
            Network::new(vec![3, 5, 2], vec![true, false, true]).unwrap(),
        ] {
            for node in any(&net).nodes() {
                let c = net.coord(node);
                assert_eq!(net.node(&c).unwrap(), node);
            }
        }
    }

    #[test]
    fn coord_errors() {
        let t = Network::torus(4, 2).unwrap();
        assert!(matches!(
            t.node(&Coord::new(vec![1, 2, 3])),
            Err(NetworkError::WrongDimensionality { .. })
        ));
        assert!(matches!(
            t.node(&Coord::new(vec![4, 0])),
            Err(NetworkError::DigitOutOfRange { .. })
        ));
    }

    #[test]
    fn neighbors_wrap_correctly() {
        let t = Network::torus(8, 2).unwrap();
        let origin = t.node_from_digits(&[0, 0]).unwrap();
        assert_eq!(
            t.coord(t.neighbor(origin, 0, Direction::Plus).unwrap())
                .digits(),
            &[1, 0]
        );
        assert_eq!(
            t.coord(t.neighbor(origin, 0, Direction::Minus).unwrap())
                .digits(),
            &[7, 0]
        );
        assert_eq!(
            t.coord(t.neighbor(origin, 1, Direction::Minus).unwrap())
                .digits(),
            &[0, 7]
        );
        let corner = t.node_from_digits(&[7, 7]).unwrap();
        assert_eq!(
            t.coord(t.neighbor(corner, 1, Direction::Plus).unwrap())
                .digits(),
            &[7, 0]
        );
    }

    #[test]
    fn mesh_edges_have_no_outward_neighbor() {
        let m = Network::mesh(4, 2).unwrap();
        let corner = m.node_from_digits(&[0, 0]).unwrap();
        assert_eq!(m.neighbor(corner, 0, Direction::Minus), None);
        assert_eq!(m.neighbor(corner, 1, Direction::Minus), None);
        assert!(!m.has_channel(corner, 0, Direction::Minus));
        assert!(m.has_channel(corner, 0, Direction::Plus));
        assert_eq!(any(&m).neighbors(corner).count(), 2);
        let far = m.node_from_digits(&[3, 3]).unwrap();
        assert_eq!(
            far,
            m.neighbor(m.node_from_digits(&[3, 2]).unwrap(), 1, Direction::Plus)
                .unwrap()
        );
        assert_eq!(m.neighbor(far, 0, Direction::Plus), None);
        let inner = m.node_from_digits(&[1, 2]).unwrap();
        assert_eq!(any(&m).neighbors(inner).count(), 4);
    }

    #[test]
    fn neighbor_is_involutive() {
        for net in [
            Network::torus(6, 3).unwrap(),
            Network::mesh(4, 3).unwrap(),
            Network::new(vec![6, 3], vec![true, false]).unwrap(),
        ] {
            for node in any(&net).nodes() {
                for dim in 0..net.dims() {
                    for dir in Direction::BOTH {
                        if let Some(nb) = net.neighbor(node, dim, dir) {
                            assert_eq!(net.neighbor(nb, dim, dir.opposite()), Some(node));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn degree_is_2n_on_tori() {
        let t = Network::torus(4, 3).unwrap();
        for node in any(&t).nodes().take(16) {
            assert_eq!(any(&t).neighbors(node).count(), 6);
        }
    }

    #[test]
    fn offsets_and_distance() {
        let t = Network::torus(8, 2).unwrap();
        let a = t.node_from_digits(&[1, 1]).unwrap();
        let b = t.node_from_digits(&[6, 2]).unwrap();
        // 1 -> 6 going minus is 3 hops (1 -> 0 -> 7 -> 6), going plus is 5.
        assert_eq!(t.offset(a, b, 0), -3);
        assert_eq!(t.offset(a, b, 1), 1);
        assert_eq!(t.distance(a, b), 4);
        assert_eq!(t.distance(a, a), 0);
    }

    #[test]
    fn mesh_offsets_have_no_wrap_shortcut() {
        let m = Network::mesh(8, 2).unwrap();
        let a = m.node_from_digits(&[1, 1]).unwrap();
        let b = m.node_from_digits(&[6, 2]).unwrap();
        assert_eq!(m.offset(a, b, 0), 5);
        assert_eq!(m.offset(b, a, 0), -5);
        assert_eq!(m.distance(a, b), 6);
    }

    #[test]
    fn offset_tie_break_is_positive() {
        let t = Network::torus(8, 1).unwrap();
        let a = t.node_from_digits(&[0]).unwrap();
        let b = t.node_from_digits(&[4]).unwrap();
        assert_eq!(t.offset(a, b, 0), 4);
        assert_eq!(t.offset(b, a, 0), 4);
    }

    #[test]
    fn dateline_crossings() {
        let t = Network::torus(8, 2).unwrap();
        assert!(t.crosses_dateline(0, 7, Direction::Plus));
        assert!(!t.crosses_dateline(0, 6, Direction::Plus));
        assert!(t.crosses_dateline(1, 0, Direction::Minus));
        assert!(!t.crosses_dateline(1, 1, Direction::Minus));
        let wrap = DirectedChannel::new(t.node_from_digits(&[7, 3]).unwrap(), 0, Direction::Plus);
        assert!(t.is_wraparound(wrap));
        let normal = DirectedChannel::new(t.node_from_digits(&[3, 3]).unwrap(), 0, Direction::Plus);
        assert!(!t.is_wraparound(normal));
        // Meshes have no datelines at all.
        let m = Network::mesh(8, 2).unwrap();
        assert!(!m.crosses_dateline(0, 7, Direction::Plus));
        assert!(!m.crosses_dateline(0, 0, Direction::Minus));
    }

    #[test]
    fn average_distance_matches_formula_even_k() {
        let t = Network::torus(8, 2).unwrap();
        // n*k/4 = 4, corrected for excluding self-pairs by factor N/(N-1)
        let expected = 4.0 * 64.0 / 63.0;
        assert!((t.average_distance() - expected).abs() < 1e-9);
        // Mesh: per-dim mean |i-j| = (k^2-1)/(3k) = 63/24 = 2.625
        let m = Network::mesh(8, 2).unwrap();
        let expected = 2.0 * 2.625 * 64.0 / 63.0;
        assert!((m.average_distance() - expected).abs() < 1e-9);
        // The mesh mean distance exceeds the torus mean distance.
        assert!(m.average_distance() > t.average_distance());
    }
}
