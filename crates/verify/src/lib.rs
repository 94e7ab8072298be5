//! Static routing verification for the Software-Based fault-tolerant
//! routing study: exact channel-dependency graphs, cycle witnesses, and
//! reachability proofs, extracted from the *real* routing implementations
//! rather than hand-derived models.
//!
//! The crate is organised as a small pipeline:
//!
//! * [`relation`] — walks a [`torus_routing::RoutingAlgorithm`] exhaustively,
//!   materialising the finite state graph of every `(node, header) →
//!   candidate` transition, including the software-layer
//!   absorb/reroute/re-inject loop under a fault set. A state graph is flat:
//!   states in one vector, every state's `Copy` transitions a span of one
//!   step arena. Two walkers: `walk_pair` for one (source, destination) pair
//!   from scratch, and `SharedRelation`, which memoises the relation per
//!   destination (no routing function reads the header's source) and serves
//!   each pair as a breadth-first *view* that numbers states exactly as
//!   `walk_pair` does;
//! * [`exact`] — folds state graphs into an exact per-VC channel dependency
//!   graph (escape-layer resources only for adaptive algorithms, with
//!   Duato-style indirect dependencies), whose acyclicity proves deadlock
//!   freedom. The fold propagates only what each state's held set gained
//!   since its last pass, in buffers its caller's loop owns and reuses;
//! * [`reach`] — proves deliver-under-every-schedule per pair, or produces a
//!   dead-end / livelock witness path;
//! * [`sweep`] — the from-scratch loop behind `verify_case`,
//!   `extract_exact_cdg` and the paranoid epoch
//!   recomputation: per destination one shared graph, one multi-source
//!   dependency dataflow and one dead-end/cycle pass, with per-pair
//!   traversals only where that pass finds something. Reported `states` stay
//!   Σ over pairs of each pair's reachable states (its view), not the several
//!   times fewer states the shared walker expands. The destination loop owns
//!   one `SharedRelation`, reset per destination, and the dependency fold's
//!   buffers for the whole sweep;
//! * [`epochs`] — verifies dynamic fault schedules epoch by epoch and
//!   classifies every pair's fate (routable / rerouted / disconnected) per
//!   epoch. The destination is its unit of work and of reuse: epoch 0 runs
//!   the [`sweep`] loop over every destination, and a later epoch re-sweeps
//!   only the destinations with a pair whose footprint a new fault touches,
//!   reusing every other destination's record (per-pair fates and state
//!   counts, and its dependency edges, each labelled with its lowest
//!   source);
//! * `witness` — renders cycle and path witnesses as concrete channels and
//!   coordinates;
//! * [`matrix`] — sweeps the supported (topology × routing × VC × fault)
//!   matrix and collects verdicts;
//! * [`report`] — renders a matrix run as `VERIFY.json` and console text.
//!
//! The `verify` binary in `torus-bench` drives [`matrix`] as a CI gate.

pub mod epochs;
pub mod exact;
pub mod matrix;
pub mod reach;
pub mod relation;
pub mod report;
pub mod sweep;
mod witness;

pub use epochs::{verify_schedule, EpochReport, PairFate, ScheduleOutcome, ScheduleVerifyError};
pub use exact::{extract_exact_cdg, ExactCdg, Granularity};
pub use matrix::{run_matrix, CaseResult, MatrixKind, MatrixReport, Verdict};
pub use reach::{PairVerdict, ReachReport};
pub use relation::{walk_pair, RelationWalk, StateBudgetExceeded};

#[cfg(test)]
mod tests {
    use super::*;
    use torus_faults::FaultSet;
    use torus_routing::{
        AnyRouting, RouteDecision, RouteHeader, RoutingAlgorithm, RoutingFlavor, Substrate,
        TurnRule,
    };
    use torus_topology::{AnyTopology, Direction, NodeId, TopologySpec};

    /// Checks every ordered pair of healthy endpoints fault-free, proving
    /// delivery or collecting the first witnessed failure.
    fn check_reachability(n: &AnyTopology, algo: &AnyRouting, v: usize) -> ReachReport {
        sweep::sweep_case(
            n,
            algo,
            &FaultSet::new(),
            v,
            Granularity::PerVc,
            matrix::STATE_BUDGET,
        )
        .expect("walk fits budget")
        .1
    }

    fn net(spec: &str) -> AnyTopology {
        TopologySpec::parse(spec)
            .expect("valid spec")
            .build()
            .expect("topology builds")
    }

    #[test]
    fn escape_layer_cdg_is_acyclic_for_swbased_on_small_tori() {
        for spec in ["torus:4x2", "torus:5x2", "torus:4x3"] {
            let n = net(spec);
            for (label, algo) in [
                ("det", AnyRouting::deterministic(Substrate::DimensionOrder)),
                ("adaptive", AnyRouting::adaptive(Substrate::DimensionOrder)),
            ] {
                let v = algo.min_virtual_channels(&n);
                let cdg = extract_exact_cdg(
                    &n,
                    &algo,
                    &FaultSet::new(),
                    v,
                    Granularity::PerVc,
                    matrix::STATE_BUDGET,
                )
                .expect("walk fits budget");
                assert!(
                    cdg.graph.find_cycle().is_none(),
                    "{spec}/{label}: escape-layer CDG must be acyclic"
                );
                assert!(
                    cdg.graph.num_edges() > 0,
                    "{spec}/{label}: CDG is non-trivial"
                );
            }
        }
    }

    #[test]
    fn merged_channel_projection_is_cyclic_on_a_torus_and_witness_is_genuine() {
        let n = net("torus:8x2");
        let algo = AnyRouting::deterministic(Substrate::DimensionOrder);
        let v = algo.min_virtual_channels(&n);
        let cdg = extract_exact_cdg(
            &n,
            &algo,
            &FaultSet::new(),
            v,
            Granularity::PerChannel,
            matrix::STATE_BUDGET,
        )
        .expect("walk fits budget");
        let cycle = cdg
            .graph
            .find_cycle()
            .expect("dateline-free projection must be cyclic on a torus");
        assert!(cycle.len() >= 2);
        for i in 0..cycle.len() {
            let from = cycle[i];
            let to = cycle[(i + 1) % cycle.len()];
            assert!(
                cdg.graph.has_edge(from, to),
                "witness edge {from}->{to} missing from the extracted graph"
            );
        }
        // The same relation at per-VC granularity is acyclic: the dateline
        // VC classes are exactly what breaks the cycle.
        let per_vc = extract_exact_cdg(
            &n,
            &algo,
            &FaultSet::new(),
            v,
            Granularity::PerVc,
            matrix::STATE_BUDGET,
        )
        .expect("walk fits budget");
        assert!(per_vc.graph.find_cycle().is_none());
    }

    #[test]
    fn every_algorithm_delivers_fault_free_on_its_supported_shapes() {
        for (spec, n) in [
            ("torus:4x2", net("torus:4x2")),
            ("mesh:4x2", net("mesh:4x2")),
        ] {
            for (label, algo) in matrix::matrix_routings() {
                if algo.supported_on(&n).is_err() {
                    continue;
                }
                let v = algo.min_virtual_channels(&n);
                let report = check_reachability(&n, &algo, v);
                assert_eq!(
                    report.delivered, report.pairs,
                    "{spec}/{label}: every pair must deliver fault-free"
                );
                assert!(report.first_failure.is_none());
            }
        }
    }

    #[test]
    fn swbased_survives_a_fault_and_the_escape_cdg_stays_acyclic() {
        let n = net("torus:4x2");
        let mut faults = FaultSet::new();
        faults.fail_node(NodeId(5));
        assert!(faults.preserves_connectivity(&n));
        for algo in [
            AnyRouting::deterministic(Substrate::DimensionOrder),
            AnyRouting::adaptive(Substrate::DimensionOrder),
        ] {
            let v = algo.min_virtual_channels(&n);
            let (cdg, reach) =
                matrix::verify_case(&n, &algo, &faults, v).expect("walk fits budget");
            assert!(cdg.graph.find_cycle().is_none());
            assert_eq!(reach.delivered, reach.pairs);
        }
    }

    #[test]
    fn dead_end_is_detected_with_a_witness_path() {
        // A 3-node open line with the middle node failed: (0) and (2) are
        // disconnected, so the software layer must report a dead end.
        let n = net("mesh:3x1");
        let mut faults = FaultSet::new();
        faults.fail_node(NodeId(1));
        let algo = AnyRouting::deterministic(Substrate::DimensionOrder);
        let v = algo.min_virtual_channels(&n);
        let walk = walk_pair(&n, &algo, &faults, v, NodeId(0), NodeId(2), 1 << 12)
            .expect("tiny walk fits budget");
        match reach::check_pair(&walk) {
            PairVerdict::DeadEnd { path } => {
                assert_eq!(
                    path.first(),
                    Some(&NodeId(0)),
                    "witness starts at injection"
                );
                assert!(!path.is_empty());
            }
            other => panic!("expected a dead end, got {other:?}"),
        }
    }

    /// A deliberately broken algorithm that always forwards along dimension
    /// 0 Plus: on a ring it spins forever, exercising livelock detection.
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
                [torus_routing::OutputCandidate::escape(
                    0,
                    Direction::Plus,
                    0,
                )]
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
    fn livelock_is_detected_with_a_node_cycle_witness() {
        let n = net("torus:4x1");
        let algo = SpinForever;
        let walk = walk_pair(
            &n,
            &algo,
            &FaultSet::new(),
            1,
            NodeId(0),
            NodeId(2),
            1 << 12,
        )
        .expect("tiny walk fits budget");
        match reach::check_pair(&walk) {
            PairVerdict::Livelock { cycle } => {
                assert!(!cycle.is_empty());
                assert!(cycle.len() <= n.num_nodes());
            }
            other => panic!("expected a livelock, got {other:?}"),
        }
    }

    #[test]
    fn turn_model_exact_cdgs_are_acyclic_on_open_shapes() {
        for spec in ["mesh:4x2", "mesh:3x3", "hypercube:3", "mixed:4o,3o"] {
            let n = net(spec);
            for algo in [
                AnyRouting::deterministic(Substrate::Turn(TurnRule::NegativeFirst)),
                AnyRouting::adaptive(Substrate::Turn(TurnRule::NegativeFirst)),
                AnyRouting::deterministic(Substrate::Turn(TurnRule::WestFirst)),
                AnyRouting::adaptive(Substrate::Turn(TurnRule::WestFirst)),
                AnyRouting::deterministic(Substrate::Turn(TurnRule::NorthLast)),
                AnyRouting::adaptive(Substrate::Turn(TurnRule::NorthLast)),
            ] {
                let v = algo.min_virtual_channels(&n);
                let cdg = extract_exact_cdg(
                    &n,
                    &algo,
                    &FaultSet::new(),
                    v,
                    Granularity::PerVc,
                    matrix::STATE_BUDGET,
                )
                .expect("walk fits budget");
                assert!(
                    cdg.graph.find_cycle().is_none(),
                    "{spec}/{}: turn-model exact CDG must be acyclic",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn updown_exact_cdgs_are_acyclic_and_every_endpoint_pair_delivers() {
        for spec in ["ft:4,2", "ft:2,3"] {
            let n = net(spec);
            for (label, algo) in [
                ("det", AnyRouting::deterministic(Substrate::UpDown)),
                ("adaptive", AnyRouting::adaptive(Substrate::UpDown)),
            ] {
                let v = algo.min_virtual_channels(&n);
                let cdg = extract_exact_cdg(
                    &n,
                    &algo,
                    &FaultSet::new(),
                    v,
                    Granularity::PerVc,
                    matrix::STATE_BUDGET,
                )
                .expect("walk fits budget");
                assert!(
                    cdg.graph.find_cycle().is_none(),
                    "{spec}/{label}: up/down escape-layer CDG must be acyclic"
                );
                assert!(cdg.graph.num_edges() > 0);
                let e = n.num_endpoints();
                assert_eq!(
                    cdg.pairs,
                    e * (e - 1),
                    "{spec}/{label}: only endpoint pairs are walked"
                );
                let report = check_reachability(&n, &algo, v);
                assert_eq!(report.delivered, report.pairs);
                assert!(report.first_failure.is_none());
            }
        }
    }

    #[test]
    fn updown_survives_switch_and_uplink_faults_with_acyclic_cdgs() {
        let n = net("ft:4,2");
        let ft = n.fat_tree().expect("fat-tree backend").clone();
        // A dead top switch and a dead leaf up-link, together: every route
        // over them must re-ascend via an alternate parent.
        let mut faults = FaultSet::new();
        faults.fail_node(ft.switch_id(1, 0));
        let (port, _) = ft.parents(ft.switch_id(0, 1))[1];
        faults.fail_link(&n, ft.switch_id(0, 1), port, Direction::Plus);
        assert!(faults.preserves_connectivity(&n));
        for algo in [
            AnyRouting::deterministic(Substrate::UpDown),
            AnyRouting::adaptive(Substrate::UpDown),
        ] {
            let v = algo.min_virtual_channels(&n);
            let (cdg, reach) =
                matrix::verify_case(&n, &algo, &faults, v).expect("walk fits budget");
            assert!(cdg.graph.find_cycle().is_none(), "{}", algo.name());
            assert_eq!(reach.delivered, reach.pairs, "{}", algo.name());
        }
    }

    #[test]
    fn fat_tree_witnesses_render_role_labels() {
        let n = net("ft:4,2");
        let algo = AnyRouting::deterministic(Substrate::UpDown);
        let cdg = extract_exact_cdg(
            &n,
            &algo,
            &FaultSet::new(),
            1,
            Granularity::PerVc,
            matrix::STATE_BUDGET,
        )
        .expect("walk fits budget");
        let (from, to) = cdg.graph.iter_edges().next().expect("non-trivial CDG");
        let lines = witness::describe_cycle(&n, &[from, to], 1, Granularity::PerVc);
        assert!(
            lines.iter().any(|l| l.contains('e') || l.contains('s')),
            "fat-tree witnesses use role labels: {lines:?}"
        );
    }

    #[test]
    fn smoke_matrix_proves_every_supported_case() {
        let report = run_matrix(MatrixKind::Smoke);
        assert_eq!(
            report.violations(),
            0,
            "smoke matrix must be violation-free"
        );
        let (proved, rejected, _) = report.tallies();
        assert!(proved > 0, "smoke matrix proves at least one case");
        assert!(
            rejected > 0,
            "turn models on the wrapped smoke shapes must be rejected"
        );
        for c in &report.cases {
            if c.verdict == Verdict::Rejected {
                assert!(
                    c.detail.contains(&c.topology)
                        || c.detail.contains("wraps around")
                        || c.detail.contains("cannot operate on topology"),
                    "rejection message names the topology: {}",
                    c.detail
                );
            }
        }
        assert!(
            report
                .cases
                .iter()
                .any(|c| c.faults.starts_with("links@") && c.verdict == Verdict::Proved),
            "smoke matrix covers at least one link-fault case"
        );
        assert!(
            report
                .cases
                .iter()
                .any(|c| c.faults.starts_with("region@") && c.verdict == Verdict::Proved),
            "smoke matrix covers at least one clustered-region case"
        );
        // Fat-tree coverage: the up/down flavours prove their cases on
        // ft:4,2 (including switch- and up-link-fault sets), the grid
        // schemes reject the fat-tree, and up/down rejects the grids.
        assert!(
            report.cases.iter().any(|c| c.topology == "ft:4,2"
                && c.routing.starts_with("updown")
                && c.faults.starts_with("node@s")
                && c.verdict == Verdict::Proved),
            "smoke matrix proves an up/down switch-fault case"
        );
        assert!(
            report.cases.iter().any(|c| c.topology == "ft:4,2"
                && c.routing.starts_with("updown")
                && c.faults.starts_with("links@")
                && c.verdict == Verdict::Proved),
            "smoke matrix proves an up/down up-link-fault case"
        );
        assert!(
            report.cases.iter().any(|c| c.topology == "ft:4,2"
                && c.routing == "deterministic"
                && c.verdict == Verdict::Rejected),
            "grid schemes are rejected on the fat-tree"
        );
        assert!(
            report.cases.iter().any(|c| c.topology == "torus:4x2"
                && c.routing.starts_with("updown")
                && c.verdict == Verdict::Rejected),
            "up/down is rejected on the torus"
        );
        let sched = report
            .cases
            .iter()
            .filter(|c| c.faults.starts_with("sched@"))
            .collect::<Vec<_>>();
        assert!(
            sched
                .iter()
                .any(|c| c.verdict == Verdict::Proved && c.epochs.len() > 1),
            "smoke matrix proves at least one multi-epoch schedule case"
        );
        assert!(
            sched.iter().flat_map(|c| &c.epochs).any(|e| e.reused > 0),
            "differential re-verification reuses at least one pair verdict"
        );
        let json = report::to_json(&report);
        assert!(json.contains("\"schema\": \"swbft-verify-v3\""));
        assert!(json.contains("\"failed\": 0"));
        assert!(json.contains("\"wall_clock_ms\": "));
        assert!(json.contains("\"rewalked\": "));
        let text = report::render_text(&report);
        assert!(text.contains("0 failed"));
    }

    #[test]
    fn parallel_matrix_matches_sequential_case_for_case() {
        let sequential = run_matrix(MatrixKind::Smoke);
        let parallel = matrix::run_matrix_with_options(MatrixKind::Smoke, 4, |_| {});
        assert_eq!(parallel.jobs, 4);
        assert_eq!(sequential.cases.len(), parallel.cases.len());
        for (a, b) in sequential.cases.iter().zip(&parallel.cases) {
            assert_eq!(a.topology, b.topology);
            assert_eq!(a.routing, b.routing);
            assert_eq!(a.virtual_channels, b.virtual_channels);
            assert_eq!(a.faults, b.faults);
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.cdg_edges, b.cdg_edges);
            assert_eq!(a.states, b.states);
            assert_eq!(a.detail, b.detail);
        }
    }

    /// The whole witness is pinned, not just its closing line: the cycle
    /// `find_cycle` reports follows the graph's edge-insertion order, so a
    /// change to that order must show up here as a reviewed diff.
    #[test]
    fn naive_demo_fails_with_a_channel_cycle_witness() {
        let case = matrix::naive_torus_demo();
        assert_eq!(case.verdict, Verdict::Failed);
        assert_eq!(case.cdg_edges, 512);
        assert_eq!(case.states, 20_416);
        let mut expected: Vec<String> = (0..8)
            .map(|x| format!("c{x}: ({x},0) -d0+-> ({},0)", (x + 1) % 8))
            .collect();
        expected.push("-> back to c0 (cycle of 8 channels)".to_string());
        assert_eq!(case.witness, expected);
    }

    #[test]
    fn json_escaping_handles_quotes_and_control_characters() {
        assert_eq!(report::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(report::json_escape("\u{1}"), "\\u0001");
    }
}
