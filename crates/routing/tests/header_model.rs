//! `RouteHeader` against a reference model of its rewrite operations.
//!
//! The model keeps the header's original layout — the via chain as a
//! `VecDeque`, one `Option<Direction>` and one `bool` per dimension — and both
//! take the same random operation sequence: intermediate pushes, explicit
//! chains longer than the inline capacity, target advances, forced
//! directions, dateline flags, re-injection and hops. After every operation
//! the two must agree on everything routing reads, and the header must equal
//! and hash like a header built directly from the model's state, whatever
//! its own history (spilled and shrunk back, stale inline slots), under both
//! SipHash and the verifier's word hasher.

use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use torus_routing::hash::WordHasher;
use torus_routing::header::VIA_INLINE;
use torus_routing::{RouteHeader, RoutingFlavor};
use torus_topology::{AnyTopology, Direction, Network, NodeId};

/// The header's fields that the rewrite operations touch, in the layout the
/// header had before it was made fixed-size.
#[derive(Clone, Debug, PartialEq)]
struct Model {
    final_dest: NodeId,
    via: VecDeque<NodeId>,
    forced_dir: Vec<Option<Direction>>,
    crossed_dateline: Vec<bool>,
}

impl Model {
    fn new(dims: usize, dest: NodeId) -> Self {
        Model {
            final_dest: dest,
            via: VecDeque::from([dest]),
            forced_dir: vec![None; dims],
            crossed_dateline: vec![false; dims],
        }
    }

    fn target(&self) -> NodeId {
        self.via[0]
    }

    fn push_intermediate(&mut self, node: NodeId) {
        if self.target() != node {
            self.via.push_front(node);
        }
    }

    fn set_via_chain(&mut self, chain: &[NodeId]) {
        self.via = chain.iter().copied().collect();
        if self.via.back() != Some(&self.final_dest) {
            self.via.push_back(self.final_dest);
        }
    }

    fn advance_target(&mut self) -> bool {
        if self.via.len() > 1 {
            self.via.pop_front();
            false
        } else {
            true
        }
    }

    fn note_hop(&mut self, grid: &Network, from: NodeId, dim: usize, dir: Direction) {
        if grid.crosses_dateline(dim, grid.position(from, dim), dir) {
            self.crossed_dateline[dim] = true;
        }
        let next = grid.neighbor(from, dim, dir).unwrap();
        if self.forced_dir[dim].is_some() && grid.offset(next, self.target(), dim) == 0 {
            self.forced_dir[dim] = None;
        }
    }

    /// A header that never did anything but take the model's state.
    fn header(&self, net: &AnyTopology, like: &RouteHeader) -> RouteHeader {
        let mut fresh = RouteHeader::new(net.dims(), like.source, self.final_dest, like.flavor);
        fresh.set_via_chain(&Vec::from(self.via.clone()));
        for (dim, &dir) in self.forced_dir.iter().enumerate() {
            fresh.set_forced_dir(dim, dir);
        }
        for (dim, &crossed) in self.crossed_dateline.iter().enumerate() {
            if crossed {
                fresh.set_crossed_dateline(dim);
            }
        }
        fresh.hops = like.hops;
        fresh
    }
}

/// A SplitMix64 stream: the operation sequence of one case.
struct Ops(u64);

impl Ops {
    fn next(&mut self, below: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % below as u64) as usize
    }

    fn node(&mut self, grid: &Network) -> NodeId {
        NodeId(self.next(grid.num_nodes()) as u32)
    }

    fn direction(&mut self) -> Direction {
        Direction::BOTH[self.next(2)]
    }
}

fn hash_with<H: Hasher + Default>(header: &RouteHeader) -> u64 {
    let mut hasher = H::default();
    header.hash(&mut hasher);
    hasher.finish()
}

/// The header's hash under the standard library's SipHash and under the
/// word hasher the verifier's intern table uses.
fn hash_of(header: &RouteHeader) -> (u64, u64) {
    (
        hash_with::<DefaultHasher>(header),
        hash_with::<WordHasher>(header),
    )
}

fn shapes() -> [Network; 4] {
    [
        Network::torus(8, 2).unwrap(),
        Network::torus(4, 3).unwrap(),
        Network::mesh(4, 3).unwrap(),
        Network::new(vec![5, 3, 4], vec![true, false, true]).unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn header_agrees_with_the_reference_model(shape in 0usize..4, seed in any::<u64>()) {
        let grid = shapes()[shape].clone();
        let net = AnyTopology::Grid(grid.clone());
        let dims = grid.dims();
        let mut ops = Ops(seed);
        let (source, dest) = (ops.node(&grid), ops.node(&grid));
        let mut header = RouteHeader::new(net.dims(), source, dest, RoutingFlavor::Deterministic);
        let mut model = Model::new(dims, dest);
        let mut at = source;
        let mut before = (header.clone(), model.clone());
        for step in 0..60 {
            let op = ops.next(8);
            match op {
                0 => {
                    let node = if ops.next(4) == 0 { header.target() } else { ops.node(&grid) };
                    header.push_intermediate(node);
                    model.push_intermediate(node);
                }
                1 => {
                    let len = ops.next(2 * VIA_INLINE + 3);
                    let mut chain: Vec<NodeId> = (0..len).map(|_| ops.node(&grid)).collect();
                    if ops.next(3) == 0 {
                        chain.push(dest);
                    }
                    header.set_via_chain(&chain);
                    model.set_via_chain(&chain);
                }
                2 => {
                    let target = header.target();
                    prop_assert_eq!(header.advance_target(target), model.advance_target());
                }
                3 => {
                    let dim = ops.next(dims);
                    let dir = [None, Some(ops.direction())][ops.next(2)];
                    header.set_forced_dir(dim, dir);
                    model.forced_dir[dim] = dir;
                }
                4 => {
                    header.clear_forced();
                    model.forced_dir.fill(None);
                }
                5 => {
                    let dim = ops.next(dims);
                    header.set_crossed_dateline(dim);
                    model.crossed_dateline[dim] = true;
                }
                6 => {
                    header.reset_for_injection();
                    model.crossed_dateline.fill(false);
                }
                _ => {
                    let (dim, dir) = (ops.next(dims), ops.direction());
                    if let Some(next) = grid.neighbor(at, dim, dir) {
                        header.note_hop(&net, at, dim, dir);
                        model.note_hop(&grid, at, dim, dir);
                        at = next;
                    }
                }
            }
            let context = format!("seed {seed:#x}, step {step}, op {op}: {model:?} vs {header:?}");
            prop_assert_eq!(header.target(), model.target(), "{}", context);
            prop_assert_eq!(header.pending_via(), model.via.len() - 1, "{}", context);
            for dim in 0..dims {
                prop_assert_eq!(header.forced_dir(dim), model.forced_dir[dim], "{}", context);
                prop_assert_eq!(header.crossed_dateline(dim), model.crossed_dateline[dim], "{}", context);
            }
            let fresh = model.header(&net, &header);
            prop_assert_eq!(&fresh, &header, "{}", context);
            prop_assert_eq!(hash_of(&fresh), hash_of(&header), "{}", context);
            let (previous, previous_model) = &before;
            let unchanged = previous_model == &model && previous.hops == header.hops;
            prop_assert_eq!(previous == &header, unchanged, "{}", context);
            before = (header.clone(), model.clone());
        }
    }
}

#[test]
fn equal_headers_hash_equal_under_both_hashers() {
    let net = AnyTopology::torus(8, 2).unwrap();
    let (source, dest) = (NodeId(3), NodeId(60));
    let via = [NodeId(17), NodeId(42)];
    let fresh = |flavor| {
        let mut header = RouteHeader::new(net.dims(), source, dest, flavor);
        header.set_via_chain(&via);
        header
    };
    for flavor in [RoutingFlavor::Deterministic, RoutingFlavor::Adaptive] {
        let mut variants = vec![fresh(flavor)];
        // A chain that spilled to the heap and shrank back to `via`.
        let mut shrunk = RouteHeader::new(net.dims(), source, dest, flavor);
        let long: Vec<NodeId> = (0..2 * VIA_INLINE as u32).map(NodeId).chain(via).collect();
        shrunk.set_via_chain(&long);
        for _ in 0..2 * VIA_INLINE {
            assert!(!shrunk.advance_target(shrunk.target()));
        }
        variants.push(shrunk);
        // An inline chain that grew past `via` and came back, leaving stale
        // inline slots.
        let mut stale = fresh(flavor);
        stale.push_intermediate(NodeId(5));
        assert!(!stale.advance_target(NodeId(5)));
        variants.push(stale);
        // Every field the hash packs, set the same way on each variant.
        for header in &mut variants {
            header.faulted = true;
            header.escorted = true;
            header.set_forced_dir(1, Some(Direction::Minus));
            header.set_crossed_dateline(0);
            header.absorptions = 2;
            header.misroute_budget = 5;
            header.hops = 11;
        }
        for header in &variants[1..] {
            assert_eq!(header, &variants[0]);
            assert_eq!(hash_of(header), hash_of(&variants[0]), "{header:?}");
        }
        assert_eq!(variants[0].pending_via(), via.len());
    }
}
