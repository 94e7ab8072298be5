//! The contracts of [`RoutingAlgorithm::route`]. Purity: the decision depends
//! on `(header, current, faults, v)` alone and the header is left unchanged,
//! so two consecutive calls agree. The simulator keeps a blocked head's
//! decision on the strength of this, and the static verifier's walks assume
//! it.
//!
//! Each case drives one message from a sampled source to a sampled
//! destination through a sampled fault set the way the engine would — `route`,
//! then `note_hop` over a sampled candidate, or `reroute_on_fault` and
//! re-injection after an absorb — and checks the contract at every header
//! state it passes through, which is how faulted and escorted headers and
//! intermediate `current` nodes get covered.
//!
//! Along the way every candidate's VC set is checked against the dateline
//! rule: the engine's allocator draws over the set in listed order, so its
//! bit-identical replay rests on that order being the class range's.
//!
//! The same walks check the second contract on that method, source
//! independence: a twin header that differs only in `source` is carried
//! through every step and must be routed, steered, advanced and rewritten
//! exactly alike. The static verifier shares one state graph per destination
//! between all sources on the strength of it.

use proptest::prelude::*;
use torus_faults::FaultSet;
use torus_routing::ecube::ecube_vc_class;
use torus_routing::{
    AnyRouting, OutputCandidate, RouteDecision, RouteHeader, RoutingAlgorithm, RoutingFlavor,
    Substrate, TurnRule,
};
use torus_topology::{AnyTopology, DatelinePolicy, Direction, NodeId};

/// What one walk passed through.
#[derive(Default)]
struct Walk {
    states: u32,
    absorbs: u32,
    escorted_states: u32,
}

/// How one sampled message is walked: the contract under test.
type WalkCheck<A> = fn(&A, &AnyTopology, &FaultSet, (NodeId, NodeId), u64) -> Walk;

/// Walks one message and asserts the purity contract at every state.
fn assert_pure_along_walk<A: RoutingAlgorithm>(
    algo: &A,
    net: &AnyTopology,
    faults: &FaultSet,
    (src, dest): (NodeId, NodeId),
    mut choice: u64,
) -> Walk {
    let v = algo.min_virtual_channels(net) + 1;
    let mut walk = Walk::default();
    let mut header = algo.make_header(net, src, dest);
    let mut current = src;
    // Far more steps than any route the software layer can produce.
    for _ in 0..16 * net.num_nodes() {
        let before = header.clone();
        let first = algo.route(net, faults, &mut header, current, v);
        let second = algo.route(net, faults, &mut header, current, v);
        assert_eq!(
            first,
            second,
            "{}: two route() calls disagree at {current:?} for {before:?}",
            algo.name()
        );
        assert_eq!(
            header,
            before,
            "{}: route() changed the header at {current:?}",
            algo.name()
        );
        walk.states += 1;
        walk.escorted_states += u32::from(header.escorted);
        match first {
            RouteDecision::Deliver => {
                assert_eq!(current, dest, "delivered away from the destination");
                return walk;
            }
            RouteDecision::Absorb => {
                walk.absorbs += 1;
                let blocked = algo
                    .deterministic_output(net, &header, current)
                    .unwrap_or((0, Direction::Plus));
                if !algo.reroute_on_fault(net, faults, &mut header, current, blocked) {
                    return walk; // unreachable destination: dropped
                }
                header.reset_for_injection();
            }
            RouteDecision::Forward(candidates) => {
                for cand in &candidates {
                    assert_dateline_vcs(algo, net, &header, cand, v);
                }
                let cand = &candidates[(choice % candidates.len() as u64) as usize];
                choice = choice.rotate_left(7) ^ 0x9E37_79B9_7F4A_7C15;
                algo.note_hop(net, &mut header, current, cand.dim(), cand.dir());
                current = net
                    .neighbor(current, cand.dim(), cand.dir())
                    .expect("candidates use existing channels");
            }
        }
    }
    panic!("{}: walk from {src:?} to {dest:?} did not end", algo.name());
}

/// The engine's VC allocator draws over a candidate's channels in the order
/// they are listed, so the simulated outcomes rest on each candidate naming
/// exactly its dateline rule's channels, ascending: the class range of the
/// header's dateline class (the adaptive pool for an adaptive candidate), or
/// the class's single escape VC.
fn assert_dateline_vcs<A: RoutingAlgorithm>(
    algo: &A,
    net: &AnyTopology,
    header: &RouteHeader,
    cand: &OutputCandidate,
    v: usize,
) {
    let policy = DatelinePolicy::of(net);
    let class = ecube_vc_class(header, cand.dim());
    let expected = if cand.is_escape() {
        let vc = policy.escape_vc(cand.dim(), class);
        vc..vc + 1
    } else if algo.flavor() == RoutingFlavor::Deterministic {
        policy.deterministic_range(v, cand.dim(), class)
    } else {
        policy.adaptive_range(v)
    };
    assert_eq!(
        cand.vcs().range(),
        expected,
        "{}: candidate {cand:?} for {header:?}",
        algo.name()
    );
}

/// Walks one message together with a twin whose header differs only in
/// `source` and asserts that nothing tells them apart: equal `route()`
/// decisions, equal `deterministic_output`, equal `reroute_on_fault` results
/// and — `source` aside — equal headers after every hop and every rewrite.
fn assert_source_blind_along_walk<A: RoutingAlgorithm>(
    algo: &A,
    net: &AnyTopology,
    faults: &FaultSet,
    (src, dest): (NodeId, NodeId),
    mut choice: u64,
) -> Walk {
    let v = algo.min_virtual_channels(net) + 1;
    let mut walk = Walk::default();
    let mut header = algo.make_header(net, src, dest);
    // Any other endpoint will do as the twin's claimed origin.
    let elsewhere = NodeId(
        (src.0 + 1 + (choice % (net.num_endpoints() as u64 - 1)) as u32)
            % net.num_endpoints() as u32,
    );
    let mut twin = header.clone();
    twin.source = elsewhere;
    let same_but_for_source = |header: &RouteHeader, twin: &RouteHeader| {
        let mut relabelled = twin.clone();
        relabelled.source = header.source;
        *header == relabelled && twin.source == elsewhere
    };
    let mut current = src;
    for _ in 0..16 * net.num_nodes() {
        let at = format!("{}: at {current:?} for {header:?}", algo.name());
        let decision = algo.route(net, faults, &mut header, current, v);
        assert_eq!(
            decision,
            algo.route(net, faults, &mut twin, current, v),
            "{at}: route() depends on the source"
        );
        let steered = algo.deterministic_output(net, &header, current);
        assert_eq!(
            steered,
            algo.deterministic_output(net, &twin, current),
            "{at}: deterministic_output() depends on the source"
        );
        walk.states += 1;
        walk.escorted_states += u32::from(header.escorted);
        match decision {
            RouteDecision::Deliver => return walk,
            RouteDecision::Absorb => {
                walk.absorbs += 1;
                let blocked = steered.unwrap_or((0, Direction::Plus));
                let rerouted = algo.reroute_on_fault(net, faults, &mut header, current, blocked);
                assert_eq!(
                    rerouted,
                    algo.reroute_on_fault(net, faults, &mut twin, current, blocked),
                    "{at}: reroute_on_fault() depends on the source"
                );
                if !rerouted {
                    return walk;
                }
                header.reset_for_injection();
                twin.reset_for_injection();
            }
            RouteDecision::Forward(candidates) => {
                let cand = &candidates[(choice % candidates.len() as u64) as usize];
                choice = choice.rotate_left(7) ^ 0x9E37_79B9_7F4A_7C15;
                algo.note_hop(net, &mut header, current, cand.dim(), cand.dir());
                algo.note_hop(net, &mut twin, current, cand.dim(), cand.dir());
                current = net
                    .neighbor(current, cand.dim(), cand.dir())
                    .expect("candidates use existing channels");
            }
        }
        assert!(
            same_but_for_source(&header, &twin),
            "{at}: the headers drifted apart: {header:?} vs {twin:?}"
        );
    }
    panic!("{}: walk from {src:?} to {dest:?} did not end", algo.name());
}

/// How many node faults a case may draw: enough, on these small networks, to
/// exhaust misroute budgets and force explicit (escorted) paths.
const MAX_FAULTS: u64 = 6;

/// Runs `cases` sampled walks of `algo` on `net` under `contract`; returns
/// what they covered.
fn check<A: RoutingAlgorithm>(
    algo: &A,
    net: &AnyTopology,
    seed: u64,
    cases: u32,
    contract: WalkCheck<A>,
) -> Walk {
    algo.supported_on(net).expect("algorithm fits the topology");
    let mut total = Walk::default();
    // SplitMix64: the vendored proptest samples one seed per case; the rest
    // is derived here so every algorithm sees the same endpoints and faults.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let (nodes, endpoints) = (net.num_nodes() as u64, net.num_endpoints() as u64);
    for _ in 0..cases {
        let src = NodeId((next() % endpoints) as u32);
        let dest = NodeId((next() % endpoints) as u32);
        if src == dest {
            continue;
        }
        // Node faults away from the walk's endpoints, each kept only while
        // the healthy part stays connected.
        let mut faults = FaultSet::new();
        for _ in 0..next() % (MAX_FAULTS + 1) {
            let node = NodeId((next() % nodes) as u32);
            let mut with = faults.clone();
            with.fail_node(node);
            if node != src && node != dest && with.preserves_connectivity(net) {
                faults = with;
            }
        }
        let walk = contract(algo, net, &faults, (src, dest), next());
        total.states += walk.states;
        total.absorbs += walk.absorbs;
        total.escorted_states += walk.escorted_states;
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sw_based_route_is_pure(seed in any::<u64>()) {
        for net in [AnyTopology::torus(5, 2).unwrap(), AnyTopology::mesh(4, 3).unwrap()] {
            for algo in [
                AnyRouting::deterministic(Substrate::DimensionOrder),
                AnyRouting::adaptive(Substrate::DimensionOrder),
            ] {
                let walked = check(&algo, &net, seed, 40, assert_pure_along_walk);
                prop_assert!(walked.states > 40);
            }
        }
    }

    #[test]
    fn turn_model_route_is_pure_under_all_three_rules(seed in any::<u64>()) {
        let net = AnyTopology::mesh(5, 2).unwrap();
        for algo in [
            AnyRouting::deterministic(Substrate::Turn(TurnRule::NegativeFirst)),
            AnyRouting::adaptive(Substrate::Turn(TurnRule::NegativeFirst)),
            AnyRouting::deterministic(Substrate::Turn(TurnRule::WestFirst)),
            AnyRouting::adaptive(Substrate::Turn(TurnRule::WestFirst)),
            AnyRouting::deterministic(Substrate::Turn(TurnRule::NorthLast)),
            AnyRouting::adaptive(Substrate::Turn(TurnRule::NorthLast)),
        ] {
            let walked = check(&algo, &net, seed, 40, assert_pure_along_walk);
            prop_assert!(walked.states > 40);
        }
    }

    #[test]
    fn up_down_route_is_pure(seed in any::<u64>()) {
        let net = AnyTopology::fat_tree_new(3, 3).unwrap();
        for algo in [
            AnyRouting::deterministic(Substrate::UpDown),
            AnyRouting::adaptive(Substrate::UpDown),
        ] {
            let walked = check(&algo, &net, seed, 40, assert_pure_along_walk);
            prop_assert!(walked.states > 40);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn no_shipped_algorithm_reads_the_header_source(seed in any::<u64>()) {
        for net in [AnyTopology::torus(5, 2).unwrap(), AnyTopology::mesh(4, 3).unwrap()] {
            for algo in [
                AnyRouting::deterministic(Substrate::DimensionOrder),
                AnyRouting::adaptive(Substrate::DimensionOrder),
            ] {
                let walked = check(&algo, &net, seed, 40, assert_source_blind_along_walk);
                prop_assert!(walked.states > 40);
            }
        }
        let mesh = AnyTopology::mesh(5, 2).unwrap();
        for algo in [
            AnyRouting::deterministic(Substrate::Turn(TurnRule::NegativeFirst)),
            AnyRouting::adaptive(Substrate::Turn(TurnRule::NegativeFirst)),
            AnyRouting::deterministic(Substrate::Turn(TurnRule::WestFirst)),
            AnyRouting::adaptive(Substrate::Turn(TurnRule::WestFirst)),
            AnyRouting::deterministic(Substrate::Turn(TurnRule::NorthLast)),
            AnyRouting::adaptive(Substrate::Turn(TurnRule::NorthLast)),
        ] {
            let walked = check(&algo, &mesh, seed, 40, assert_source_blind_along_walk);
            prop_assert!(walked.states > 40);
        }
        let tree = AnyTopology::fat_tree_new(3, 3).unwrap();
        for algo in [
            AnyRouting::deterministic(Substrate::UpDown),
            AnyRouting::adaptive(Substrate::UpDown),
        ] {
            let walked = check(&algo, &tree, seed, 40, assert_source_blind_along_walk);
            prop_assert!(walked.states > 40);
        }
    }
}

/// The sampled walks are only worth something if they reach the states the
/// cache and the verifier's shared graphs will meet: absorbed-and-rerouted
/// (faulted) and escorted headers — under either contract.
#[test]
fn sampled_walks_cover_faulted_and_escorted_headers() {
    let torus = AnyTopology::torus(5, 2).unwrap();
    let mesh = AnyTopology::mesh(5, 2).unwrap();
    let tree = AnyTopology::fat_tree_new(3, 3).unwrap();
    let covered = [
        check(
            &AnyRouting::deterministic(Substrate::DimensionOrder),
            &torus,
            1,
            300,
            assert_pure_along_walk,
        ),
        check(
            &AnyRouting::deterministic(Substrate::Turn(TurnRule::NegativeFirst)),
            &mesh,
            2,
            300,
            assert_pure_along_walk,
        ),
        check(
            &AnyRouting::deterministic(Substrate::UpDown),
            &tree,
            3,
            300,
            assert_pure_along_walk,
        ),
        check(
            &AnyRouting::deterministic(Substrate::DimensionOrder),
            &torus,
            1,
            300,
            assert_source_blind_along_walk,
        ),
        check(
            &AnyRouting::deterministic(Substrate::Turn(TurnRule::NegativeFirst)),
            &mesh,
            2,
            300,
            assert_source_blind_along_walk,
        ),
        check(
            &AnyRouting::deterministic(Substrate::UpDown),
            &tree,
            3,
            300,
            assert_source_blind_along_walk,
        ),
    ];
    assert!(covered
        .iter()
        .all(|walk| walk.absorbs > 0 && walk.escorted_states > 0));
}
