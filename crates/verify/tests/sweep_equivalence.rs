//! The destination-major sweep against the per-pair oracle it replaced.
//!
//! `sweep_case` walks each destination's routing relation once and reads the
//! dependency graph, the per-pair state counts and the reachability verdicts
//! off that shared graph. The oracle is the loop it replaced — `walk_pair`
//! for every ordered pair, `accumulate_cdg` and `record_pair` per walk — and
//! the two must agree field by field: same edge set, same counts, same first
//! failure with the same witness, same state-budget error. One level down,
//! every pair's materialised view of the shared graph must be the walk
//! `walk_pair` returns, state for state.

use swbft_verify::exact::{accumulate_cdg, resource_count, ExactCdg, Granularity};
use swbft_verify::matrix::{
    matrix_fault_cases, matrix_routings, matrix_topologies, MatrixKind, STATE_BUDGET,
};
use swbft_verify::reach::{record_pair, PairVerdict, ReachReport};
use swbft_verify::relation::{RelationWalk, SharedRelation, StateBudgetExceeded};
use swbft_verify::sweep::sweep_case;
use swbft_verify::walk_pair;
use torus_faults::FaultSet;
use torus_routing::cdg::DependencyGraph;
use torus_routing::{
    AnyRouting, OutputCandidate, RouteDecision, RouteHeader, RoutingAlgorithm, RoutingFlavor,
    Substrate,
};
use torus_topology::{AnyTopology, Direction, NodeId, TopologySpec};

fn net(spec: &str) -> AnyTopology {
    TopologySpec::parse(spec)
        .expect("valid spec")
        .build()
        .expect("topology builds")
}

fn healthy_endpoints(net: &AnyTopology, faults: &FaultSet) -> Vec<NodeId> {
    net.endpoints()
        .filter(|&n| !faults.is_node_faulty(n))
        .collect()
}

/// The pre-sweep `verify_case`: one from-scratch walk per ordered pair,
/// source-major.
fn per_pair_oracle<A: RoutingAlgorithm>(
    net: &AnyTopology,
    algo: &A,
    faults: &FaultSet,
    v: usize,
    granularity: Granularity,
    state_budget: usize,
) -> Result<(ExactCdg, ReachReport), StateBudgetExceeded> {
    let mut graph = DependencyGraph::new(resource_count(net, v, granularity));
    let mut reach = ReachReport::default();
    let endpoints = healthy_endpoints(net, faults);
    for &src in &endpoints {
        for &dest in endpoints.iter().filter(|&&dest| dest != src) {
            let walk = walk_pair(net, algo, faults, v, src, dest, state_budget)?;
            accumulate_cdg(net, &walk, v, granularity, &mut graph);
            record_pair(&mut reach, &walk, src, dest);
        }
    }
    let cdg = ExactCdg {
        graph,
        virtual_channels: v,
        granularity,
        states_explored: reach.states_explored,
        pairs: reach.pairs,
    };
    Ok((cdg, reach))
}

fn sorted_edges(graph: &DependencyGraph) -> Vec<(usize, usize)> {
    let mut edges: Vec<_> = graph.iter_edges().collect();
    edges.sort_unstable();
    edges
}

/// Field-by-field equality of the two `(ExactCdg, ReachReport)` results.
fn assert_same_outcome(
    label: &str,
    sweep: &Result<(ExactCdg, ReachReport), StateBudgetExceeded>,
    oracle: &Result<(ExactCdg, ReachReport), StateBudgetExceeded>,
) {
    let ((cdg, reach), (oracle_cdg, oracle_reach)) = match (sweep, oracle) {
        (Ok(sweep), Ok(oracle)) => (sweep, oracle),
        (Err(sweep), Err(oracle)) => {
            assert_eq!(sweep, oracle, "{label}: budget errors differ");
            return;
        }
        _ => panic!(
            "{label}: one side blew the state budget: sweep ok = {}, oracle ok = {}",
            sweep.is_ok(),
            oracle.is_ok()
        ),
    };
    assert_eq!(
        sorted_edges(&cdg.graph),
        sorted_edges(&oracle_cdg.graph),
        "{label}: edge sets differ"
    );
    assert_eq!(
        cdg.graph.num_edges(),
        oracle_cdg.graph.num_edges(),
        "{label}"
    );
    assert_eq!(
        cdg.graph.num_vertices(),
        oracle_cdg.graph.num_vertices(),
        "{label}"
    );
    assert_eq!(
        cdg.states_explored, oracle_cdg.states_explored,
        "{label}: cdg states"
    );
    assert_eq!(cdg.pairs, oracle_cdg.pairs, "{label}: cdg pairs");
    assert_eq!(cdg.granularity, oracle_cdg.granularity, "{label}");
    assert_eq!(cdg.virtual_channels, oracle_cdg.virtual_channels, "{label}");
    assert_eq!(
        reach.states_explored, oracle_reach.states_explored,
        "{label}: states"
    );
    assert_eq!(reach.pairs, oracle_reach.pairs, "{label}: pairs");
    assert_eq!(
        reach.delivered, oracle_reach.delivered,
        "{label}: delivered"
    );
    assert_eq!(
        reach.dead_ends, oracle_reach.dead_ends,
        "{label}: dead ends"
    );
    assert_eq!(
        reach.livelocks, oracle_reach.livelocks,
        "{label}: livelocks"
    );
    assert_eq!(
        reach.max_states_per_pair, oracle_reach.max_states_per_pair,
        "{label}: largest pair"
    );
    let failure = |report: &ReachReport| {
        report
            .first_failure
            .as_ref()
            .map(|f| (f.src, f.dest, f.verdict.clone()))
    };
    assert_eq!(
        failure(reach),
        failure(oracle_reach),
        "{label}: first failure or its witness differs"
    );
}

/// A materialised view equals the per-pair walk state for state: same nodes,
/// same transitions to the same state numbers, same terminals. (Headers are
/// compared modulo `source`, which the shared relation projects out.)
fn assert_same_walk(label: &str, view: &RelationWalk, walk: &RelationWalk) {
    assert_eq!(view.len(), walk.len(), "{label}: state counts differ");
    assert_eq!(view.start(), walk.start(), "{label}");
    for ((id, a), (_, b)) in view.iter().zip(walk.iter()) {
        assert_eq!(a.node, b.node, "{label}: state {id} sits at another node");
        assert_eq!(a.terminal, b.terminal, "{label}: state {id} terminal");
        let mut header = b.header.clone();
        header.source = a.header.source;
        assert_eq!(a.header, header, "{label}: state {id} header");
        assert_eq!(
            format!("{:?}", view.steps(id)),
            format!("{:?}", walk.steps(id)),
            "{label}: state {id} transitions"
        );
    }
}

/// Every pair's view of its destination's shared graph against `walk_pair`.
fn assert_views_match_walks<A: RoutingAlgorithm>(
    label: &str,
    net: &AnyTopology,
    algo: &A,
    faults: &FaultSet,
    v: usize,
) {
    let endpoints = healthy_endpoints(net, faults);
    for &dest in &endpoints {
        let mut shared = SharedRelation::new(net, algo, faults, v, dest);
        for &src in endpoints.iter().filter(|&&src| src != dest) {
            let walk = walk_pair(net, algo, faults, v, src, dest, STATE_BUDGET).expect("fits");
            let view = shared.view(src, STATE_BUDGET).expect("fits");
            assert_eq!(view.len, walk.len(), "{label} {src:?}->{dest:?}");
            assert_eq!(
                view.reinjects,
                walk.reinjects(),
                "{label} {src:?}->{dest:?}"
            );
            let materialised = shared.walk(src, STATE_BUDGET).expect("fits");
            assert_same_walk(&format!("{label} {src:?}->{dest:?}"), &materialised, &walk);
        }
    }
}

#[test]
fn sweep_equals_the_per_pair_oracle_on_every_static_smoke_case() {
    let mut cases = 0;
    for spec in matrix_topologies(MatrixKind::Smoke) {
        let topology = spec.to_spec_string();
        let net = spec.build().expect("matrix topologies build");
        for (routing, algo) in matrix_routings() {
            if algo.supported_on(&net).is_err() {
                continue;
            }
            let v = algo.min_virtual_channels(&net);
            for (fault_label, faults) in matrix_fault_cases(&net, MatrixKind::Smoke) {
                let label = format!("{topology}/{routing}/v{v}/{fault_label}");
                for granularity in [Granularity::PerVc, Granularity::PerChannel] {
                    assert_same_outcome(
                        &label,
                        &sweep_case(&net, &algo, &faults, v, granularity, STATE_BUDGET),
                        &per_pair_oracle(&net, &algo, &faults, v, granularity, STATE_BUDGET),
                    );
                }
                assert_views_match_walks(&label, &net, &algo, &faults, v);
                cases += 1;
            }
        }
    }
    assert!(cases >= 40, "the smoke matrix has {cases} static cases");
}

#[test]
fn dead_ends_come_out_with_the_oracles_counts_and_witness() {
    // A 3-node open line with the middle node failed: the two ends are
    // disconnected, so both ordered pairs dead-end.
    let n = net("mesh:3x1");
    let mut faults = FaultSet::new();
    faults.fail_node(NodeId(1));
    for algo in [
        AnyRouting::deterministic(Substrate::DimensionOrder),
        AnyRouting::adaptive(Substrate::DimensionOrder),
    ] {
        let v = algo.min_virtual_channels(&n);
        let sweep = sweep_case(&n, &algo, &faults, v, Granularity::PerVc, STATE_BUDGET);
        let oracle = per_pair_oracle(&n, &algo, &faults, v, Granularity::PerVc, STATE_BUDGET);
        assert_same_outcome("mesh:3x1 dead end", &sweep, &oracle);
        let (_, reach) = sweep.expect("fits");
        assert_eq!((reach.pairs, reach.dead_ends), (2, 2));
        let first = reach.first_failure.expect("a dead end is a failure");
        assert_eq!((first.src, first.dest), (NodeId(0), NodeId(2)));
        assert!(matches!(first.verdict, PairVerdict::DeadEnd { .. }));
        assert_views_match_walks("mesh:3x1 dead end", &n, &algo, &faults, v);
    }
}

/// A deliberately broken algorithm that always forwards along dimension 0
/// Plus: on a ring it spins forever.
#[derive(Clone, Debug)]
struct SpinForever;

impl RoutingAlgorithm for SpinForever {
    fn name(&self) -> String {
        "spin-forever".to_string()
    }

    fn flavor(&self) -> RoutingFlavor {
        RoutingFlavor::Deterministic
    }

    fn make_header(&self, net: &AnyTopology, src: NodeId, dest: NodeId) -> RouteHeader {
        AnyRouting::deterministic(Substrate::DimensionOrder).make_header(net, src, dest)
    }

    fn min_virtual_channels(&self, _net: &AnyTopology) -> usize {
        1
    }

    fn deterministic_output(
        &self,
        _net: &AnyTopology,
        _header: &RouteHeader,
        _current: NodeId,
    ) -> Option<(usize, Direction)> {
        Some((0, Direction::Plus))
    }

    fn route(
        &self,
        _net: &AnyTopology,
        _faults: &FaultSet,
        _header: &mut RouteHeader,
        _current: NodeId,
        _v: usize,
    ) -> RouteDecision {
        RouteDecision::Forward(
            [OutputCandidate::escape(0, Direction::Plus, 0)]
                .into_iter()
                .collect(),
        )
    }

    fn note_hop(
        &self,
        _net: &AnyTopology,
        _header: &mut RouteHeader,
        _current: NodeId,
        _dim: usize,
        _dir: Direction,
    ) {
    }

    fn reroute_on_fault(
        &self,
        _net: &AnyTopology,
        _faults: &FaultSet,
        _header: &mut RouteHeader,
        _current: NodeId,
        _blocked: (usize, Direction),
    ) -> bool {
        false
    }
}

#[test]
fn livelocks_come_out_with_the_oracles_counts_and_cycle() {
    let n = net("torus:4x1");
    let faults = FaultSet::new();
    let sweep = sweep_case(&n, &SpinForever, &faults, 1, Granularity::PerVc, 1 << 12);
    let oracle = per_pair_oracle(&n, &SpinForever, &faults, 1, Granularity::PerVc, 1 << 12);
    assert_same_outcome("torus:4x1 livelock", &sweep, &oracle);
    let (cdg, reach) = sweep.expect("fits");
    assert_eq!((reach.pairs, reach.livelocks), (12, 12));
    assert!(cdg.graph.find_cycle().is_some(), "the ring's CDG is cyclic");
    let first = reach.first_failure.expect("a livelock is a failure");
    assert_eq!((first.src, first.dest), (NodeId(0), NodeId(1)));
    // Source 0's walk numbers the ring's states 0, 1, 2, 3; the sweep reaches
    // them through destination 1's shared graph, where another source may
    // have discovered them first — the witness is still the walk's.
    assert_eq!(
        first.verdict,
        PairVerdict::Livelock {
            cycle: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        }
    );
    assert_views_match_walks("torus:4x1 livelock", &n, &SpinForever, &faults, 1);
}

#[test]
fn the_state_budget_is_per_pair_and_trips_at_the_same_limit() {
    let n = net("torus:4x2");
    let mut faults = FaultSet::new();
    faults.fail_node(NodeId(5));
    let algo = AnyRouting::deterministic(Substrate::DimensionOrder);
    let v = algo.min_virtual_channels(&n);
    let (_, reach) =
        per_pair_oracle(&n, &algo, &faults, v, Granularity::PerVc, STATE_BUDGET).expect("fits");
    let largest = reach.max_states_per_pair;
    assert!(largest > 4, "the faulted torus has pairs of several states");
    // Well below any destination's shared graph, which holds the states of
    // fourteen pairs: the budget bounds a pair's view, not the graph.
    for limit in [1, 3, largest - 1, largest, largest + 1] {
        let sweep = sweep_case(&n, &algo, &faults, v, Granularity::PerVc, limit);
        let oracle = per_pair_oracle(&n, &algo, &faults, v, Granularity::PerVc, limit);
        assert_same_outcome(&format!("budget {limit}"), &sweep, &oracle);
        assert_eq!(
            sweep.map(|_| ()),
            if limit < largest {
                Err(StateBudgetExceeded { limit })
            } else {
                Ok(())
            },
            "budget {limit} against a largest pair of {largest} states"
        );
    }
}
