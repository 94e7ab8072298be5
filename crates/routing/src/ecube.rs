//! Dimension-order (e-cube) output selection.
//!
//! E-cube routing nullifies the offset to the destination one dimension at a
//! time, in increasing dimension order. The Software-Based scheme reuses this
//! selection both as the deterministic flavour and as the escape layer of the
//! adaptive flavour, extended with the per-dimension *forced direction*
//! overrides installed by the software layer when it re-routes an absorbed
//! message the "wrong way" around a ring.
//!
//! Virtual-channel classes are wrap-aware: a hop in a wrapped dimension must
//! use the dateline class the header has earned ([`ecube_vc_class`]), while a
//! hop in an open (mesh) dimension needs no dateline split and may use the
//! whole VC pool.

use crate::header::RouteHeader;
use torus_topology::{Direction, Network, NodeId, VcClass};

/// The e-cube output (dimension, direction) for a header at `current`, taking
/// the header's forced-direction overrides into account.
///
/// Returns `None` when the message is already at its current routing target.
pub fn ecube_output(
    net: &Network,
    header: &RouteHeader,
    current: NodeId,
) -> Option<(usize, Direction)> {
    let target = header.target();
    for dim in 0..net.dims() {
        let off = net.offset(current, target, dim);
        if let Some(forced) = header.forced_dir(dim) {
            // A forced dimension is routed (possibly non-minimally) in the
            // stored direction until its offset is nullified.
            if off != 0 {
                return Some((dim, forced));
            }
            // Offset already nullified: fall through to the next dimension
            // (the override is cleared by `RouteHeader::note_hop`).
            continue;
        }
        if off != 0 {
            return Some((dim, Direction::from_offset(off).expect("non-zero offset")));
        }
    }
    None
}

/// The dateline virtual-channel class the deterministic scheme requires for a
/// hop in `dim`, given the header's dateline-crossing history. (Headers never
/// record a crossing in an open dimension, so the class is always
/// [`VcClass::BeforeDateline`] there.)
pub fn ecube_vc_class(header: &RouteHeader, dim: usize) -> VcClass {
    if header.crossed_dateline(dim) {
        VcClass::AfterDateline
    } else {
        VcClass::BeforeDateline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::RoutingFlavor;
    use torus_topology::DatelinePolicy;

    /// The deterministic VCs of a hop in `dim`: the header's dateline class
    /// of the pool.
    fn deterministic_vcs(net: &Network, header: &RouteHeader, dim: usize, v: usize) -> Vec<usize> {
        DatelinePolicy::new(net)
            .deterministic_range(v, dim, ecube_vc_class(header, dim))
            .collect()
    }

    fn torus() -> Network {
        Network::torus(8, 2).unwrap()
    }

    #[test]
    fn routes_lowest_dimension_first() {
        let t = torus();
        let src = t.node_from_digits(&[1, 1]).unwrap();
        let dest = t.node_from_digits(&[3, 5]).unwrap();
        let h = RouteHeader::new(t.dims(), src, dest, RoutingFlavor::Deterministic);
        assert_eq!(ecube_output(&t, &h, src), Some((0, Direction::Plus)));
        // Once dimension 0 is resolved, dimension 1 is routed.
        let mid = t.node_from_digits(&[3, 1]).unwrap();
        assert_eq!(ecube_output(&t, &h, mid), Some((1, Direction::Plus)));
        assert_eq!(ecube_output(&t, &h, dest), None);
    }

    #[test]
    fn picks_shorter_ring_direction() {
        let t = torus();
        let src = t.node_from_digits(&[1, 0]).unwrap();
        let dest = t.node_from_digits(&[6, 0]).unwrap();
        let h = RouteHeader::new(t.dims(), src, dest, RoutingFlavor::Deterministic);
        assert_eq!(ecube_output(&t, &h, src), Some((0, Direction::Minus)));
    }

    #[test]
    fn mesh_routes_straight_without_wrap_shortcut() {
        let m = Network::mesh(8, 2).unwrap();
        let src = m.node_from_digits(&[1, 0]).unwrap();
        let dest = m.node_from_digits(&[6, 0]).unwrap();
        let h = RouteHeader::new(m.dims(), src, dest, RoutingFlavor::Deterministic);
        // On the torus the minimal direction is Minus (3 hops over the wrap);
        // on the mesh the only way is Plus (5 hops).
        assert_eq!(ecube_output(&m, &h, src), Some((0, Direction::Plus)));
    }

    #[test]
    fn forced_direction_overrides_minimal_choice() {
        let t = torus();
        let src = t.node_from_digits(&[1, 0]).unwrap();
        let dest = t.node_from_digits(&[3, 0]).unwrap();
        let mut h = RouteHeader::new(t.dims(), src, dest, RoutingFlavor::Deterministic);
        h.set_forced_dir(0, Some(Direction::Minus));
        assert_eq!(ecube_output(&t, &h, src), Some((0, Direction::Minus)));
        // With the offset nullified the forced dimension is skipped.
        assert_eq!(ecube_output(&t, &h, dest), None);
    }

    #[test]
    fn forced_dimension_with_zero_offset_is_skipped() {
        let t = torus();
        let src = t.node_from_digits(&[2, 1]).unwrap();
        let dest = t.node_from_digits(&[2, 5]).unwrap();
        let mut h = RouteHeader::new(t.dims(), src, dest, RoutingFlavor::Deterministic);
        h.set_forced_dir(0, Some(Direction::Plus));
        // Dimension 0 has no offset, so routing proceeds in dimension 1.
        assert_eq!(ecube_output(&t, &h, src), Some((1, Direction::Plus)));
    }

    #[test]
    fn routes_toward_intermediate_target_first() {
        let t = torus();
        let src = t.node_from_digits(&[0, 0]).unwrap();
        let dest = t.node_from_digits(&[4, 0]).unwrap();
        let via = t.node_from_digits(&[0, 2]).unwrap();
        let mut h = RouteHeader::new(t.dims(), src, dest, RoutingFlavor::Deterministic);
        h.push_intermediate(via);
        assert_eq!(ecube_output(&t, &h, src), Some((1, Direction::Plus)));
    }

    #[test]
    fn vc_class_follows_dateline_history() {
        let t = torus();
        let src = t.node_from_digits(&[0, 0]).unwrap();
        let dest = t.node_from_digits(&[5, 0]).unwrap();
        let mut h = RouteHeader::new(t.dims(), src, dest, RoutingFlavor::Deterministic);
        assert_eq!(ecube_vc_class(&h, 0), VcClass::BeforeDateline);
        assert_eq!(deterministic_vcs(&t, &h, 0, 4), vec![0, 1]);
        h.set_crossed_dateline(0);
        assert_eq!(ecube_vc_class(&h, 0), VcClass::AfterDateline);
        assert_eq!(deterministic_vcs(&t, &h, 0, 4), vec![2, 3]);
        // other dimensions are unaffected
        assert_eq!(deterministic_vcs(&t, &h, 1, 6), vec![0, 1, 2]);
    }

    #[test]
    fn mesh_hops_use_the_whole_vc_pool() {
        let m = Network::mesh(8, 2).unwrap();
        let src = m.node_from_digits(&[0, 0]).unwrap();
        let dest = m.node_from_digits(&[5, 0]).unwrap();
        let h = RouteHeader::new(m.dims(), src, dest, RoutingFlavor::Deterministic);
        // No dateline split on open dimensions: every VC is permitted, and a
        // single VC suffices.
        assert_eq!(deterministic_vcs(&m, &h, 0, 4), vec![0, 1, 2, 3]);
        assert_eq!(deterministic_vcs(&m, &h, 1, 1), vec![0]);
        // Mixed shape: the wrapped dimension still splits.
        let mixed = Network::new(vec![8, 4], vec![true, false]).unwrap();
        let h = RouteHeader::new(
            mixed.dims(),
            mixed.node_from_digits(&[0, 0]).unwrap(),
            mixed.node_from_digits(&[5, 3]).unwrap(),
            RoutingFlavor::Deterministic,
        );
        assert_eq!(deterministic_vcs(&mixed, &h, 0, 4), vec![0, 1]);
        assert_eq!(deterministic_vcs(&mixed, &h, 1, 4), vec![0, 1, 2, 3]);
    }
}
