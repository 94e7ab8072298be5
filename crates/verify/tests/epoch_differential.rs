//! Property-based and unit checks for the epoch-differential schedule
//! verifier: the differential pass must agree bit-for-bit with a
//! from-scratch recomputation at every epoch (the paranoid diff is empty on
//! random schedules), the plain pass must report what the paranoid one
//! does, a schedule that cuts the healthy graph must flip exactly the cut
//! pairs to `disconnected` at exactly the epoch of the cut, with a concrete
//! witness, and a cyclic schedule must report a pinned cycle witness.

mod common;

use common::AllOnVcZero;
use proptest::prelude::*;
use swbft_verify::matrix::{matrix_routings, STATE_BUDGET};
use swbft_verify::{verify_schedule, EpochReport, PairFate};
use torus_faults::{FaultEvent, FaultSchedule, FaultSet};
use torus_routing::{AnyRouting, RoutingAlgorithm, Substrate};
use torus_topology::{AnyTopology, Direction, FatTree, Network, NodeId, TopologySpec};

/// Small mixed shapes — 1..=2-dimensional grids, wrapped or open per
/// dimension — plus small fat-trees, so the differential soundness property
/// is checked on both topology classes.
fn arb_net() -> impl Strategy<Value = AnyTopology> {
    let grids = (
        1usize..=2,
        (3u16..=4, 2u16..=3),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(|(n, (k0, k1), (w0, w1))| {
            let radices = [k0, k1][..n].to_vec();
            // Rings shorter than 3 are rejected as wrapped; open them.
            let wraps: Vec<bool> = radices
                .iter()
                .zip([w0, w1])
                .map(|(&k, w)| w && k >= 3)
                .collect();
            AnyTopology::from(Network::new(radices, wraps).unwrap())
        });
    let fat_trees = (2u16..=3).prop_map(|k| AnyTopology::from(FatTree::new(k, 2).unwrap()));
    prop_oneof![grids, fat_trees]
}

/// Builds a valid schedule from raw picks: events are injected at strictly
/// increasing cycles, and picks that would duplicate a fault or name a
/// missing link are skipped rather than rejected.
fn schedule_from_picks(net: &AnyTopology, picks: &[u32]) -> FaultSchedule {
    let mut mirror = FaultSet::new();
    let mut events = Vec::new();
    for (i, &pick) in picks.iter().enumerate() {
        let cycle = 100 * (i as u64 + 1);
        let node = NodeId(pick % net.num_nodes() as u32);
        if pick.is_multiple_of(2) {
            if mirror.is_node_faulty(node) {
                continue;
            }
            mirror.fail_node(node);
            events.push((cycle, FaultEvent::Node { node: node.0 }));
        } else {
            let dim = (pick as usize / net.num_nodes()) % net.dims();
            let dir = if pick.is_multiple_of(3) {
                Direction::Plus
            } else {
                Direction::Minus
            };
            if net.neighbor(node, dim, dir).is_none() {
                continue;
            }
            let before = mirror.num_faulty_links();
            mirror.fail_link(net, node, dim, dir);
            if mirror.num_faulty_links() == before {
                continue;
            }
            events.push((
                cycle,
                FaultEvent::Link {
                    node: node.0,
                    dim,
                    dir,
                },
            ));
        }
    }
    FaultSchedule::from_events(events).expect("cycles are strictly increasing")
}

/// The reports with their wall clock zeroed: every other field must match.
fn without_wall(epochs: &[EpochReport]) -> Vec<EpochReport> {
    epochs
        .iter()
        .map(|e| EpochReport {
            wall_ms: 0,
            ..e.clone()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random small topologies and random valid schedules, the
    /// differential pass and the from-scratch recomputation agree on the
    /// pair universe, every pair fate and every CDG fragment at every
    /// epoch — the paranoid diff is empty.
    #[test]
    fn differential_matches_from_scratch(
        net in arb_net(),
        picks in (0u32..1024, 0u32..1024, 0u32..1024, 0u32..1024),
    ) {
        let schedule = schedule_from_picks(&net, &[picks.0, picks.1, picks.2, picks.3]);
        prop_assume!(!schedule.is_empty());
        prop_assert!(schedule.validate(&net).is_ok());
        for (label, algo) in matrix_routings() {
            if algo.supported_on(&net).is_err() {
                continue;
            }
            let v = algo.min_virtual_channels(&net);
            let outcome = verify_schedule(&net, &algo, &schedule, v, STATE_BUDGET, true)
                .expect("small walks fit the state budget");
            prop_assert!(
                outcome.divergences.is_empty(),
                "{label} on {net}: differential diverged from scratch: {:?}",
                outcome.divergences
            );
            // Only the paranoid run keeps every pair's CDG fragment; the plain
            // run files final fragments in its permanent table, so this is
            // what ties that table to the from-scratch sweep.
            let plain = verify_schedule(&net, &algo, &schedule, v, STATE_BUDGET, false)
                .expect("small walks fit the state budget");
            prop_assert_eq!(
                without_wall(&plain.epochs),
                without_wall(&outcome.epochs),
                "{} on {}: plain and paranoid epochs differ", label, net
            );
            prop_assert_eq!(
                &plain.fates,
                &outcome.fates,
                "{} on {}: plain and paranoid fates differ", label, net
            );
            prop_assert_eq!(outcome.epochs.len(), outcome.fates.len());
            for (ei, e) in outcome.epochs.iter().enumerate() {
                prop_assert_eq!(e.routable + e.rerouted + e.disconnected, e.pairs);
                prop_assert_eq!(e.rewalked + e.reused, e.pairs);
                prop_assert_eq!(outcome.fates[ei].len(), e.pairs);
                if ei == 0 {
                    prop_assert_eq!(e.reused, 0, "epoch 0 is walked in full");
                }
            }
        }
    }
}

/// A schedule that walls off a mesh corner must flip exactly the corner's
/// pairs to `disconnected` at exactly the epoch completing the wall, with a
/// witness path, and must still *prove* the epoch (the cut is legitimate).
#[test]
fn disconnecting_schedule_flips_pairs_at_the_cut_epoch() {
    let net = AnyTopology::from(Network::new(vec![3, 3], vec![false, false]).unwrap());
    let corner = NodeId(0);
    let wall_a = net.neighbor(corner, 0, Direction::Plus).unwrap();
    let wall_b = net.neighbor(corner, 1, Direction::Plus).unwrap();
    let schedule = FaultSchedule::from_events(vec![
        (100, FaultEvent::Node { node: wall_a.0 }),
        (200, FaultEvent::Node { node: wall_b.0 }),
    ])
    .unwrap();

    let (label, algo) = matrix_routings().into_iter().next().unwrap();
    assert_eq!(label, "deterministic");
    assert!(algo.supported_on(&net).is_ok());
    let v = algo.min_virtual_channels(&net);
    let outcome = verify_schedule(&net, &algo, &schedule, v, STATE_BUDGET, true)
        .expect("3x3 mesh walks fit the state budget");

    assert!(
        !outcome.failed(),
        "a genuine cut is a legitimate fate, not a violation: {}",
        outcome.summary()
    );
    assert_eq!(outcome.epochs.len(), 3, "epoch 0 plus two injections");
    let half_wall = &outcome.epochs[1];
    assert_eq!(
        half_wall.disconnected, 0,
        "one wall node down still leaves the corner reachable"
    );
    let cut = &outcome.epochs[2];
    // 9 nodes - 2 faulty = 7 healthy; the corner is cut from the other 6.
    assert_eq!(cut.pairs, 7 * 6);
    assert_eq!(cut.disconnected, 2 * 6);
    assert!(cut.failure.is_none());
    assert!(
        !cut.witness.is_empty(),
        "the cut epoch carries a dead-end path as evidence"
    );
    for entry in &outcome.fates[2] {
        let involves_corner = entry.src == corner || entry.dest == corner;
        assert_eq!(
            entry.fate == PairFate::Disconnected,
            involves_corner,
            "exactly the corner's pairs are disconnected: {entry:?}"
        );
    }
    for entry in &outcome.fates[1] {
        assert_ne!(
            entry.fate,
            PairFate::Disconnected,
            "no pair is disconnected before the wall completes: {entry:?}"
        );
    }
}

/// The whole cycle witness of a failing schedule is pinned, as the naive
/// demo's is for a static case: `find_cycle` follows the union CDG's
/// edge-insertion order, so the plain pass must add edges in the order a
/// graph built from every pair's fragment in `(src, dest)` order would.
#[test]
fn cyclic_schedule_reports_a_pinned_witness_at_every_epoch() {
    let net = TopologySpec::parse("torus:4x2")
        .expect("valid spec")
        .build()
        .expect("topology builds");
    let algo = AllOnVcZero(AnyRouting::deterministic(Substrate::DimensionOrder));
    let schedule = FaultSchedule::parse("100:node@4,200:link@2:d0+").expect("valid schedule");
    let outcome = verify_schedule(&net, &algo, &schedule, 2, STATE_BUDGET, false)
        .expect("4x2 walks fit the state budget");
    let witness: Vec<String> = (0..4)
        .map(|y| format!("c{y}: (2,{y}) -d1+-> (2,{}) vc0", (y + 1) % 4))
        .chain(["-> back to c0 (cycle of 4 channels)".to_string()])
        .collect();
    let edges: Vec<usize> = outcome.epochs.iter().map(|e| e.cdg_edges).collect();
    assert_eq!(edges, [96, 80, 76]);
    for e in &outcome.epochs {
        assert!(!e.acyclic, "epoch at cycle {} is cyclic", e.cycle);
        assert_eq!(
            e.failure.as_deref(),
            Some("per-epoch union CDG has a cycle of 4 resources")
        );
        assert_eq!(e.witness, witness, "epoch at cycle {}", e.cycle);
    }
}
