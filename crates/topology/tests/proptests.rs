//! Property-based tests for the mixed-radix network topology (torus, mesh,
//! hypercube and arbitrary mixed shapes) and the dense channel-id encoding
//! shared with fat-trees.

use proptest::prelude::*;
use torus_topology::{dimension_order_path, AnyTopology, Direction, Network};

/// An arbitrary uniform-radix torus (every dimension wraps).
fn arb_torus() -> impl Strategy<Value = Network> {
    (2u16..10, 1u32..4).prop_map(|(k, n)| Network::torus(k, n).unwrap())
}

/// An arbitrary network: mixed radices (2..10) and independent per-dimension
/// wrap flags, 1..=3 dimensions — covers tori, meshes, hypercubes and mixed
/// shapes in one strategy.
fn arb_network() -> impl Strategy<Value = Network> {
    (
        1usize..=3,
        (2u16..10, 2u16..10, 2u16..10),
        (any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(|(n, (k0, k1, k2), (w0, w1, w2))| {
            let radices = [k0, k1, k2][..n].to_vec();
            let wraps = [w0, w1, w2][..n].to_vec();
            Network::new(radices, wraps).unwrap()
        })
}

/// Any grid shape of [`arb_network`], or a small k-ary l-level fat-tree.
fn arb_topology() -> impl Strategy<Value = AnyTopology> {
    (arb_network(), 2u16..5, 1u32..4, any::<bool>()).prop_map(|(net, k, l, tree)| {
        if tree {
            AnyTopology::fat_tree_new(k, l).unwrap()
        } else {
            net.into()
        }
    })
}

/// A network of any size the 32-bit node-id space holds: 1..=4 dimensions,
/// each radix either small (2..10) or anywhere up to `u16::MAX`, dimensions
/// dropped from the end until the node count fits.
fn arb_large_network() -> impl Strategy<Value = Network> {
    let radix = || {
        (any::<bool>(), 2u16..10, 2u16..=u16::MAX)
            .prop_map(|(small, k, large)| if small { k } else { large })
    };
    (
        1usize..=4,
        (radix(), radix(), radix(), radix()),
        (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(|(n, (k0, k1, k2, k3), (w0, w1, w2, w3))| {
            let mut radices = [k0, k1, k2, k3][..n].to_vec();
            while radices.iter().map(|&k| u64::from(k)).product::<u64>() > u64::from(u32::MAX) {
                radices.pop();
            }
            // Rings shorter than 3 are rejected as wrapped; open them.
            let wraps = radices
                .iter()
                .zip([w0, w1, w2, w3])
                .map(|(&k, w)| w && k >= 3)
                .collect();
            Network::new(radices, wraps).unwrap()
        })
}

/// `position`, `neighbor` and `offset` by the division formulas they
/// replace: `(id / stride) % k`, and `rem_euclid` for ring arithmetic.
fn division_position(net: &Network, node: u32, dim: usize) -> u32 {
    let stride: u32 = net.radices()[..dim].iter().map(|&k| u32::from(k)).product();
    (node / stride) % u32::from(net.radix(dim))
}

fn division_neighbor(net: &Network, node: u32, dim: usize, dir: Direction) -> Option<u32> {
    let stride: u32 = net.radices()[..dim].iter().map(|&k| u32::from(k)).product();
    let k = i64::from(net.radix(dim));
    let pos = i64::from(division_position(net, node, dim));
    let stepped = pos + i64::from(dir.sign());
    let next = if net.wraps(dim) {
        stepped.rem_euclid(k)
    } else if (0..k).contains(&stepped) {
        stepped
    } else {
        return None;
    };
    Some((i64::from(node) + (next - pos) * i64::from(stride)) as u32)
}

fn division_offset(net: &Network, src: u32, dest: u32, dim: usize) -> i32 {
    let a = division_position(net, src, dim) as i32;
    let b = division_position(net, dest, dim) as i32;
    if !net.wraps(dim) {
        return b - a;
    }
    let k = i32::from(net.radix(dim));
    let d = (b - a).rem_euclid(k);
    if d > k / 2 {
        d - k
    } else {
        d
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The division-free coordinates agree with the division formulas on
    /// every dimension, over random shapes up to the 32-bit node-id space
    /// and random node ids, the last id included.
    #[test]
    fn coordinates_match_the_division_formulas(
        net in arb_large_network(),
        raw in (any::<u32>(), any::<u32>(), any::<bool>()),
    ) {
        let n = net.num_nodes() as u32;
        let (src, dest) = (if raw.2 { n - 1 } else { raw.0 % n }, raw.1 % n);
        for dim in 0..net.dims() {
            prop_assert_eq!(
                u32::from(net.position(torus_topology::NodeId(src), dim)),
                division_position(&net, src, dim),
                "position of {} in dim {} of {}", src, dim, net
            );
            for dir in Direction::BOTH {
                prop_assert_eq!(
                    net.neighbor(torus_topology::NodeId(src), dim, dir).map(|nb| nb.0),
                    division_neighbor(&net, src, dim, dir),
                    "neighbour of {} in dim {} {:?} of {}", src, dim, dir, net
                );
            }
            prop_assert_eq!(
                net.offset(torus_topology::NodeId(src), torus_topology::NodeId(dest), dim),
                division_offset(&net, src, dest, dim),
                "offset {} -> {} in dim {} of {}", src, dest, dim, net
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coord_roundtrip_holds(net in arb_network(), raw in 0u32..10_000) {
        let node = torus_topology::NodeId(raw % net.num_nodes() as u32);
        let c = net.coord(node);
        prop_assert_eq!(net.node(&c).unwrap(), node);
        for (dim, &d) in c.digits().iter().enumerate() {
            prop_assert!(d < net.radix(dim));
        }
    }

    #[test]
    fn neighbor_inverse(net in arb_network(), raw in 0u32..10_000, dim_raw in 0usize..4, plus in any::<bool>()) {
        let node = torus_topology::NodeId(raw % net.num_nodes() as u32);
        let dim = dim_raw % net.dims();
        let dir = if plus { Direction::Plus } else { Direction::Minus };
        match net.neighbor(node, dim, dir) {
            Some(nb) => {
                prop_assert_eq!(net.neighbor(nb, dim, dir.opposite()), Some(node));
                // A hop changes exactly one coordinate (unless k == 2 where +/-
                // coincide but the digit still changes).
                let a = net.coord(node);
                let b = net.coord(nb);
                prop_assert_eq!(a.differing_dims(&b).len(), 1);
                prop_assert!(net.has_channel(node, dim, dir));
            }
            None => {
                // Missing neighbours only happen at the outward edge of an
                // open dimension.
                prop_assert!(!net.wraps(dim));
                prop_assert!(!net.has_channel(node, dim, dir));
                let pos = net.position(node, dim);
                match dir {
                    Direction::Plus => prop_assert_eq!(pos, net.radix(dim) - 1),
                    Direction::Minus => prop_assert_eq!(pos, 0),
                }
            }
        }
    }

    #[test]
    fn distance_is_metric(net in arb_network(), ra in 0u32..10_000, rb in 0u32..10_000, rc in 0u32..10_000) {
        let n = net.num_nodes() as u32;
        let a = torus_topology::NodeId(ra % n);
        let b = torus_topology::NodeId(rb % n);
        let c = torus_topology::NodeId(rc % n);
        prop_assert_eq!(net.distance(a, a), 0);
        prop_assert_eq!(net.distance(a, b), net.distance(b, a));
        prop_assert!(net.distance(a, c) <= net.distance(a, b) + net.distance(b, c));
    }

    #[test]
    fn ecube_path_minimal(net in arb_network(), ra in 0u32..10_000, rb in 0u32..10_000) {
        let n = net.num_nodes() as u32;
        let a = torus_topology::NodeId(ra % n);
        let b = torus_topology::NodeId(rb % n);
        let p = dimension_order_path(&net, a, b);
        prop_assert!(p.is_well_formed(&AnyTopology::Grid(net.clone())));
        prop_assert_eq!(p.len() as u32, net.distance(a, b));
        // dimension indices along the path never decrease
        let dims: Vec<usize> = p.hops.iter().map(|h| h.dim).collect();
        prop_assert!(dims.windows(2).all(|w| w[0] <= w[1]));
        // no hop of a minimal path crosses an open dimension's edge
        prop_assert!(p.hops.iter().all(|h| net.has_channel(h.from, h.dim, h.dir)));
    }

    #[test]
    fn offsets_bounded_by_half_radix_on_rings(t in arb_torus(), ra in 0u32..10_000, rb in 0u32..10_000) {
        let n = t.num_nodes() as u32;
        let a = torus_topology::NodeId(ra % n);
        let b = torus_topology::NodeId(rb % n);
        for dim in 0..t.dims() {
            prop_assert!(t.offset(a, b, dim).unsigned_abs() <= (t.radix(dim) as u32) / 2);
        }
    }

    #[test]
    fn mesh_offsets_are_plain_differences(net in arb_network(), ra in 0u32..10_000, rb in 0u32..10_000) {
        let n = net.num_nodes() as u32;
        let a = torus_topology::NodeId(ra % n);
        let b = torus_topology::NodeId(rb % n);
        for dim in 0..net.dims() {
            if !net.wraps(dim) {
                let expected =
                    net.position(b, dim) as i32 - net.position(a, dim) as i32;
                prop_assert_eq!(net.offset(a, b, dim), expected);
            }
        }
    }

    #[test]
    fn channel_ids_are_a_dense_bijection(topo in arb_topology()) {
        let mut seen = vec![false; topo.channel_slots()];
        let mut count = 0usize;
        for ch in topo.channels() {
            let id = topo.channel_id(ch);
            prop_assert!(!seen[id.index()]);
            seen[id.index()] = true;
            prop_assert_eq!(topo.channel_from_id(id), ch);
            // Every enumerated channel exists and has a destination.
            prop_assert!(topo.channel_dest(ch).is_some());
            count += 1;
        }
        prop_assert_eq!(count, topo.num_channels());
        // On a torus every slot is a real channel.
        if topo.grid().is_some_and(|g| (0..g.dims()).all(|d| g.wraps(d))) {
            prop_assert!(seen.into_iter().all(|b| b));
        }
    }

    #[test]
    fn datelines_only_on_wrapped_dimensions(net in arb_network()) {
        let any = AnyTopology::Grid(net.clone());
        for ch in any.channels() {
            if net.is_wraparound(ch) {
                prop_assert!(net.wraps(ch.dim));
            }
        }
        if !net.any_wrap() {
            prop_assert!(any.channels().all(|ch| !net.is_wraparound(ch)));
        }
    }
}
