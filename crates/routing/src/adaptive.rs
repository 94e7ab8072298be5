//! Duato's Protocol fully adaptive output selection.
//!
//! Duato's Protocol (DP) partitions the virtual channels of every physical
//! channel into a small *escape* set — operated exactly like deadlock-free
//! e-cube routing with dateline classes — and a larger *adaptive* set that a
//! message may use on **any** minimal (productive) output. Because a blocked
//! message can always fall back to the escape sub-network, whose extended
//! channel-dependency graph is acyclic, the whole protocol is deadlock free
//! while permitting full minimal adaptivity.
//!
//! The escape layer is wrap-aware: wrapped dimensions reserve two escape
//! channels (one per dateline class) while a pure mesh needs only one, which
//! leaves one more channel in the adaptive pool.
//!
//! The candidate list itself is built by the software layer
//! ([`crate::swbased`]), which writes the adaptive step once for every
//! substrate; this module supplies Duato's legal set, the productive outputs.

use crate::header::RouteHeader;
use torus_topology::{Direction, Network, NodeId};

/// All minimal (productive) outputs towards the header's current target:
/// one `(dim, dir)` pair per dimension with a non-zero offset, in increasing
/// dimension order. Minimal hops never leave an open dimension's extent, so
/// every productive output is an existing channel on meshes too.
pub fn productive_outputs<'a>(
    net: &'a Network,
    header: &RouteHeader,
    current: NodeId,
) -> impl Iterator<Item = (usize, Direction)> + 'a {
    let target = header.target();
    (0..net.dims()).filter_map(move |dim| {
        let off = net.offset(current, target, dim);
        Direction::from_offset(off).map(|dir| (dim, dir))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::RoutingFlavor;

    fn torus() -> Network {
        Network::torus(8, 3).unwrap()
    }

    #[test]
    fn productive_outputs_cover_all_unresolved_dimensions() {
        let t = torus();
        let src = t.node_from_digits(&[0, 0, 0]).unwrap();
        let dest = t.node_from_digits(&[2, 0, 6]).unwrap();
        let h = RouteHeader::new(t.dims(), src, dest, RoutingFlavor::Adaptive);
        let prods: Vec<_> = productive_outputs(&t, &h, src).collect();
        assert_eq!(prods.len(), 2);
        assert!(prods.contains(&(0, Direction::Plus)));
        assert!(prods.contains(&(2, Direction::Minus)));
    }

    #[test]
    fn no_productive_outputs_at_destination() {
        let t = torus();
        let dest = t.node_from_digits(&[1, 2, 3]).unwrap();
        let h = RouteHeader::new(t.dims(), dest, dest, RoutingFlavor::Adaptive);
        assert_eq!(productive_outputs(&t, &h, dest).count(), 0);
    }

    #[test]
    fn mesh_productive_outputs_always_exist() {
        let m = Network::mesh(4, 2).unwrap();
        let corner = m.node_from_digits(&[0, 0]).unwrap();
        let far = m.node_from_digits(&[3, 3]).unwrap();
        let h = RouteHeader::new(m.dims(), corner, far, RoutingFlavor::Adaptive);
        for (dim, dir) in productive_outputs(&m, &h, corner) {
            assert!(m.has_channel(corner, dim, dir));
        }
        let h = RouteHeader::new(m.dims(), far, corner, RoutingFlavor::Adaptive);
        for (dim, dir) in productive_outputs(&m, &h, far) {
            assert!(m.has_channel(far, dim, dir));
        }
    }
}
