//! Cross-crate integration tests: topology + faults + routing + simulator +
//! experiment harness working together, checking the qualitative claims of the
//! paper on small, fast configurations.

use swbft::faults::{random_node_faults, FaultSet, RegionShape};
use swbft::prelude::*;
use swbft::routing::cdg::{build_ecube_cdg, build_turn_cdg, TurnRule, VcModel};
use swbft::routing::{AnyRouting, Substrate};
use swbft::sim::{SimConfig, Simulation, StopCondition};
use swbft::topology::{AnyTopology, Network, TopologySpec};

/// A small, fast experiment configuration shared by several tests.
fn quick(radix: u16, dims: u32, v: usize, rate: f64) -> ExperimentConfig {
    ExperimentConfig::paper_point(radix, dims, v, 16, rate).quick(800, 200)
}

#[test]
fn fault_free_latency_close_to_ideal() {
    // At very low load the mean latency must approach the no-contention bound:
    // roughly (mean hops + message length) cycles.
    let out = quick(8, 2, 4, 0.001).run().expect("runs");
    let ideal = out.report.mean_hops + 16.0;
    assert!(
        out.report.mean_latency < ideal * 1.5 + 10.0,
        "latency {} too far above the ideal {}",
        out.report.mean_latency,
        ideal
    );
    assert_eq!(out.report.messages_queued, 0);
    assert_eq!(out.dropped_messages, 0);
}

#[test]
fn all_messages_delivered_under_faults_deterministic_and_adaptive() {
    for routing in RoutingChoice::BOTH {
        let out = quick(8, 2, 6, 0.003)
            .with_routing(routing)
            .with_faults(FaultScenario::RandomNodes { count: 6 })
            .run()
            .expect("runs");
        assert_eq!(out.dropped_messages, 0, "{routing:?}");
        assert_eq!(out.forced_absorptions, 0, "{routing:?}");
        assert!(!out.hit_max_cycles, "{routing:?} saturated unexpectedly");
        assert!(out.report.measured_messages >= 800);
    }
}

#[test]
fn latency_increases_with_fault_count() {
    let run = |nf: usize| {
        quick(8, 2, 4, 0.006)
            .with_faults(FaultScenario::random_nodes(nf))
            .with_seed(400)
            .run()
            .expect("runs")
            .report
            .mean_latency
    };
    let healthy = run(0);
    let faulty = run(6);
    assert!(
        faulty > healthy,
        "latency with 6 faults ({faulty}) should exceed the fault-free latency ({healthy})"
    );
}

#[test]
fn concave_region_costs_more_than_convex_region() {
    // Fig. 5's qualitative claim, on equal-sized regions.
    let torus = Network::torus(8, 2).unwrap();
    let run = |shape: RegionShape| {
        ExperimentConfig::paper_point(8, 2, 10, 32, 0.006)
            .with_routing(RoutingChoice::Deterministic)
            .with_faults(FaultScenario::centered_region(&torus, shape))
            .quick(1_500, 300)
            .run()
            .expect("runs")
            .report
    };
    let convex = run(RegionShape::Rect {
        width: 3,
        height: 3,
    });
    let concave = run(RegionShape::paper_l_9());
    assert!(
        concave.messages_queued >= convex.messages_queued,
        "concave region should absorb at least as many messages ({} vs {})",
        concave.messages_queued,
        convex.messages_queued
    );
}

#[test]
fn adaptive_beats_deterministic_under_faults() {
    // Figs. 6 and 7: adaptive SW-Based routing absorbs far fewer messages and
    // achieves at least the throughput of deterministic routing.
    let base = quick(8, 2, 6, 0.008).with_faults(FaultScenario::RandomNodes { count: 6 });
    let det = base
        .clone()
        .with_routing(RoutingChoice::Deterministic)
        .run()
        .expect("runs");
    let ada = base
        .with_routing(RoutingChoice::Adaptive)
        .run()
        .expect("runs");
    assert!(det.report.messages_queued > 0);
    assert!(
        ada.report.messages_queued < det.report.messages_queued,
        "adaptive queued {} vs deterministic {}",
        ada.report.messages_queued,
        det.report.messages_queued
    );
}

#[test]
fn messages_queued_grows_with_fault_count() {
    // Fig. 7's qualitative claim.
    let run = |nf: usize| {
        quick(8, 2, 6, 0.008)
            .with_routing(RoutingChoice::Deterministic)
            .with_faults(FaultScenario::RandomNodes { count: nf })
            .with_seed(77)
            .run()
            .expect("runs")
            .report
            .messages_queued
    };
    let few = run(2);
    let many = run(8);
    assert!(
        many > few,
        "8 faults should absorb more messages ({many}) than 2 faults ({few})"
    );
}

#[test]
fn deadlock_freedom_argument_holds_for_simulated_topologies() {
    // Section 4 of the paper: the channel dependency graph of the
    // deterministic / escape layer is acyclic for the topologies we simulate.
    for (k, n) in [(8u16, 2u32), (4, 3)] {
        let torus = Network::torus(k, n).unwrap();
        let cdg = build_ecube_cdg(&torus, VcModel::DatelineClasses);
        assert!(cdg.is_acyclic(), "{k}-ary {n}-cube CDG must be acyclic");
        let naive = build_ecube_cdg(&torus, VcModel::SingleClass);
        assert!(
            !naive.is_acyclic(),
            "without VC classes the torus CDG has cycles"
        );
    }
}

#[test]
fn turn_model_deadlock_freedom_argument_holds_for_open_topologies() {
    // The turn-model counterpart of the Section 4 argument: the
    // negative-first turn-rule CDG (an over-approximation of every permitted
    // route) is acyclic on the open shapes we simulate, with a single VC —
    // and cyclic on the torus, which is why the choice is rejected there.
    for net in [
        AnyTopology::mesh(8, 2).unwrap(),
        AnyTopology::hypercube(6).unwrap(),
    ] {
        let cdg = build_turn_cdg(&net, Some(TurnRule::NegativeFirst));
        assert!(cdg.is_acyclic(), "negative-first CDG must be acyclic");
        let unrestricted = build_turn_cdg(&net, None);
        assert!(
            !unrestricted.is_acyclic(),
            "without the turn prohibition the mesh CDG has cycles"
        );
    }
    let torus = AnyTopology::torus(8, 2).unwrap();
    assert!(!build_turn_cdg(&torus, Some(TurnRule::NegativeFirst)).is_acyclic());
}

#[test]
fn turn_model_experiments_run_end_to_end_on_open_topologies_only() {
    // The full vertical slice: RoutingChoice::TurnModel through
    // ExperimentConfig::run on a mesh and a hypercube, at the reduced VC
    // budget (V=2: one negative-first escape + one adaptive channel).
    for spec in [TopologySpec::mesh(8, 2), TopologySpec::hypercube(6)] {
        let out = ExperimentConfig::topology_point(spec.clone(), 2, 16, 0.003)
            .with_routing(RoutingChoice::TurnModel)
            .with_faults(FaultScenario::RandomNodes { count: 4 })
            .quick(600, 150)
            .run()
            .expect("turn-model experiment runs");
        assert_eq!(out.config.topology, spec);
        assert_eq!(out.dropped_messages, 0);
        assert_eq!(out.forced_absorptions, 0);
        assert!(!out.hit_max_cycles);
        assert!(out.report.messages_queued > 0);
    }
    // Wrapped dimensions reject the choice with a typed error, so the torus
    // baselines are untouched by the new subsystem.
    let err = ExperimentConfig::paper_point(8, 2, 4, 16, 0.003)
        .with_routing(RoutingChoice::TurnModel)
        .quick(300, 100)
        .run()
        .expect_err("turn model must be rejected on the torus");
    let msg = format!("{err}");
    assert!(msg.contains("unsupported on topology 'torus:8x2'"));
    assert!(msg.contains("routing 'Negative-First (adaptive)'"));
}

#[test]
fn direct_simulator_usage_with_link_faults() {
    // Link faults are supported by the fault model even though the paper's
    // experiments only use node faults.
    let torus = AnyTopology::torus(4, 2).unwrap();
    let mut faults = FaultSet::new();
    faults.fail_link(
        &torus,
        torus.grid().unwrap().node_from_digits(&[1, 1]).unwrap(),
        0,
        swbft::topology::Direction::Plus,
    );
    assert!(faults.preserves_connectivity(&torus));
    let mut cfg = SimConfig::paper(4, 2, 4, 8, 0.01);
    cfg.warmup_messages = 100;
    cfg.stop = StopCondition::MeasuredMessages(500);
    let mut sim = Simulation::new(
        cfg,
        faults,
        AnyRouting::deterministic(Substrate::DimensionOrder),
    )
    .unwrap();
    let out = sim.run();
    assert!(!out.hit_max_cycles);
    assert_eq!(out.dropped_messages, 0);
    assert!(
        out.report.messages_queued > 0,
        "messages crossing the dead link must be absorbed and re-routed"
    );
}

#[test]
fn four_dimensional_torus_is_supported() {
    // The whole point of the paper: the scheme generalises beyond 2-D.
    let out = quick(3, 4, 4, 0.002)
        .with_routing(RoutingChoice::Adaptive)
        .with_faults(FaultScenario::RandomNodes { count: 4 })
        .run()
        .expect("runs");
    assert_eq!(out.config.num_nodes(), 81);
    assert_eq!(out.dropped_messages, 0);
    assert!(!out.hit_max_cycles);
}

#[test]
fn random_fault_sets_preserve_connectivity_by_construction() {
    let torus = AnyTopology::torus(8, 3).unwrap();
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(99);
    for nf in [1, 5, 12, 20] {
        let f: FaultSet = random_node_faults(&torus, nf, &mut rng).unwrap();
        assert!(f.preserves_connectivity(&torus));
        assert_eq!(f.num_faulty_nodes(), nf);
    }
}

#[test]
fn reports_render_to_csv_and_text() {
    let out = quick(4, 2, 4, 0.01).run().expect("runs");
    let row = out.report.csv_row();
    assert_eq!(
        row.split(',').count(),
        SimulationReport::csv_header().split(',').count()
    );
    // A figure result built from a single point renders all its sections.
    let fig = FigureResult {
        id: "smoke".into(),
        title: "smoke figure".into(),
        panels: vec![PanelResult {
            title: "panel".into(),
            x_label: "Traffic rate".into(),
            metric: swbft::core::results::Metric::MeanLatency,
            curves: vec![CurveResult {
                label: "M=16, nf=0".into(),
                points: vec![PointResult {
                    x: 0.01,
                    report: out.report.clone(),
                    saturated: false,
                }],
            }],
        }],
        failures: Vec::new(),
    };
    assert!(fig.render_text().contains("M=16, nf=0"));
    assert!(fig.to_csv().lines().count() >= 2);
}

#[test]
fn mesh_experiments_run_end_to_end() {
    // The generalized network layer: the same experiment harness drives a
    // k-ary n-mesh (no wrap-around, one fewer VC class needed).
    for routing in RoutingChoice::BOTH {
        let out = ExperimentConfig::mesh_point(8, 2, 4, 16, 0.003)
            .with_routing(routing)
            .with_faults(FaultScenario::RandomNodes { count: 4 })
            .quick(600, 150)
            .run()
            .expect("mesh experiment runs");
        assert_eq!(out.config.topology, TopologySpec::mesh(8, 2));
        assert_eq!(out.dropped_messages, 0, "{routing:?}");
        assert_eq!(out.forced_absorptions, 0, "{routing:?}");
        assert!(!out.hit_max_cycles, "{routing:?}");
        assert!(out.report.messages_queued > 0, "{routing:?}");
    }
}

#[test]
fn hypercube_experiments_run_end_to_end() {
    let out = ExperimentConfig::hypercube_point(6, 2, 16, 0.003)
        .with_routing(RoutingChoice::Adaptive)
        .with_faults(FaultScenario::RandomNodes { count: 3 })
        .quick(600, 150)
        .run()
        .expect("hypercube experiment runs");
    assert_eq!(out.config.num_nodes(), 64);
    assert_eq!(out.dropped_messages, 0);
    assert_eq!(out.forced_absorptions, 0);
    assert!(!out.hit_max_cycles);
}

#[test]
fn mesh_edge_traffic_is_delivered() {
    // Corner-to-corner traffic on a mesh exercises the absent edge ports.
    let out = ExperimentConfig::mesh_point(4, 2, 1, 8, 0.01)
        .quick(500, 100)
        .run()
        .expect("single-VC mesh runs (no dateline class needed)");
    assert_eq!(out.dropped_messages, 0);
    assert!(!out.hit_max_cycles);
    assert!(out.report.mean_latency >= 8.0);
}

#[test]
fn mixed_radix_experiment_runs_end_to_end() {
    let spec = TopologySpec::mixed(vec![8, 8, 4], vec![true, true, false]);
    let out = ExperimentConfig::topology_point(spec.clone(), 4, 16, 0.002)
        .with_faults(FaultScenario::RandomNodes { count: 4 })
        .quick(400, 100)
        .run()
        .expect("mixed-radix experiment runs");
    assert_eq!(out.config.topology, spec);
    assert_eq!(out.config.num_nodes(), 256);
    assert_eq!(out.dropped_messages, 0);
}

#[test]
fn torus_beats_mesh_on_average_latency() {
    // Wrap-around links halve the average distance, so at equal low load the
    // torus must deliver lower mean latency than the matching mesh.
    let base = |spec: TopologySpec| {
        ExperimentConfig::topology_point(spec, 4, 16, 0.002)
            .with_seed(9876)
            .quick(800, 200)
            .run()
            .expect("runs")
            .report
    };
    let torus = base(TopologySpec::torus(8, 2));
    let mesh = base(TopologySpec::mesh(8, 2));
    assert!(
        mesh.mean_hops > torus.mean_hops,
        "mesh hops {} vs torus hops {}",
        mesh.mean_hops,
        torus.mean_hops
    );
    assert!(
        mesh.mean_latency > torus.mean_latency,
        "mesh latency {} vs torus latency {}",
        mesh.mean_latency,
        torus.mean_latency
    );
}
