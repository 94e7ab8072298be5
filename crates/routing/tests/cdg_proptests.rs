//! Property-based CDG acyclicity tests: for randomly drawn meshes the e-cube
//! channel dependency graph is acyclic with a *single* VC per class — the
//! dateline virtual channel is provably unnecessary when no dimension wraps —
//! while randomly drawn tori always need the dateline classes. The
//! negative-first turn-rule CDG gives the same guarantee for the turn-model
//! subsystem (acyclic on every open shape, cyclic as soon as a dimension
//! wraps, and cyclic without the turn prohibition).

use proptest::prelude::*;
use torus_routing::cdg::{build_ecube_cdg, build_turn_cdg, TurnRule, VcModel};
use torus_topology::Network;

/// Random mesh shapes: 1..=3 dimensions with mixed radices, no wraps.
fn arb_mesh() -> impl Strategy<Value = Network> {
    (1usize..=3, (2u16..6, 2u16..6, 2u16..6)).prop_map(|(n, (k0, k1, k2))| {
        let radices = [k0, k1, k2][..n].to_vec();
        Network::new(radices, vec![false; n]).unwrap()
    })
}

/// Random mixed shapes with at least one wrapped dimension of radix >= 4
/// (radix-2/3 rings do not close single-class cycles under minimal routing:
/// no minimal route crosses the wrap link in the same direction twice).
fn arb_wrapped() -> impl Strategy<Value = Network> {
    (2u16..6, 4u16..6, any::<bool>()).prop_map(|(k_open, k_ring, open_first)| {
        if open_first {
            Network::new(vec![k_open, k_ring], vec![false, true]).unwrap()
        } else {
            Network::new(vec![k_ring, k_open], vec![true, false]).unwrap()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The satellite claim: on meshes a single VC per class suffices — the
    /// single-class e-cube CDG is acyclic for every mesh shape.
    #[test]
    fn mesh_single_class_cdg_is_acyclic(net in arb_mesh()) {
        let g = build_ecube_cdg(&net, VcModel::SingleClass);
        prop_assert!(
            g.is_acyclic(),
            "single-class CDG must be acyclic on mesh {net}"
        );
        // The dateline-class graph is acyclic too, trivially.
        prop_assert!(build_ecube_cdg(&net, VcModel::DatelineClasses).is_acyclic());
    }

    /// With the dateline classes every shape — wrapped, open or mixed — has
    /// an acyclic extended CDG.
    #[test]
    fn dateline_class_cdg_is_acyclic_on_wrapped_shapes(net in arb_wrapped()) {
        let g = build_ecube_cdg(&net, VcModel::DatelineClasses);
        prop_assert!(g.num_edges() > 0);
        prop_assert!(
            g.is_acyclic(),
            "dateline-class CDG must be acyclic on {net}"
        );
    }

    /// Conversely, a wrapped dimension of radix >= 4 closes a single-class
    /// cycle: the dateline VC is necessary exactly when a dimension wraps.
    #[test]
    fn wrapped_shapes_need_the_dateline_classes(net in arb_wrapped()) {
        let g = build_ecube_cdg(&net, VcModel::SingleClass);
        prop_assert!(
            !g.is_acyclic(),
            "single-class CDG on {net} (which has a wrapped ring) must contain cycles"
        );
    }

    /// The turn-model claim: on every mixed-radix mesh the negative-first
    /// turn-rule CDG — which over-approximates all permitted routes, minimal
    /// or not — is acyclic with a single virtual channel per physical
    /// channel. This is the reduced-VC-budget deadlock-freedom proof the
    /// simulator's `min_virtual_channels` relies on.
    #[test]
    fn negative_first_turn_cdg_is_acyclic_on_meshes(net in arb_mesh()) {
        let g = build_turn_cdg(&net.clone().into(), Some(TurnRule::NegativeFirst));
        prop_assert!(
            g.is_acyclic(),
            "negative-first turn CDG must be acyclic on mesh {net}"
        );
    }

    /// On shapes with at least two dimensions the prohibition is load
    /// bearing: lifting it (all turns permitted) closes cycles on the same
    /// meshes the restricted graph proves acyclic.
    #[test]
    fn unrestricted_turns_are_cyclic_on_multidim_meshes(net in arb_mesh()) {
        prop_assume!(net.dims() >= 2);
        let g = build_turn_cdg(&net.clone().into(), None);
        prop_assert!(
            !g.is_acyclic(),
            "unrestricted turn CDG on {net} must contain cycles"
        );
    }

    /// And a wrapped ring defeats the turn model entirely: the
    /// same-direction chain around the ring is a cycle no turn prohibition
    /// breaks — the reason both engines reject the turn model on wrapped
    /// dimensions with a typed error.
    #[test]
    fn negative_first_turn_cdg_is_cyclic_on_wrapped_shapes(net in arb_wrapped()) {
        let g = build_turn_cdg(&net.clone().into(), Some(TurnRule::NegativeFirst));
        prop_assert!(
            !g.is_acyclic(),
            "negative-first turn CDG on wrapped {net} must contain cycles"
        );
    }
}
