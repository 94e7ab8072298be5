//! Pinning and smoke tests for the topology-parameterised figure pipeline.
//!
//! The default (no-override) figure grids must stay bit-identical to the
//! paper reproduction: every outcome is a deterministic function of its
//! `ExperimentConfig` (seeds included) and of the panel/curve labels the CSV
//! embeds, so digesting the full grid pins the CSV output without paying for
//! the simulations. The digests below were captured from the grids that
//! produced the pre-refactor torus CSVs (verified bit-identical binary
//! output), and must only change when a PR *intends* to change the figures.

use swbft_core::{
    estimate_saturation_rate, run_pool, ExperimentConfig, Figure, FigureOptions, Jobs,
    RoutingChoice, SaturationSearch, Scale,
};
use torus_faults::FaultScenario;
use torus_topology::TopologySpec;

/// FNV-1a over the debug rendering of the figure's labels and point configs.
fn grid_digest(figure: Figure, opts: &FigureOptions) -> u64 {
    let labels = figure.grid_labels(opts).expect("grid builds");
    let configs = figure.point_configs(opts).expect("grid builds");
    let mut h: u64 = 0xcbf29ce484222325;
    for b in format!("{labels:?}|{configs:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[test]
fn default_quick_grids_are_pinned() {
    let expected = [
        (Figure::Fig3, 0x45b6a8b0e077aa4du64),
        (Figure::Fig4, 0xeabcfc1542e41784u64),
        (Figure::Fig5, 0x5cea26c5c7549a04u64),
        (Figure::Fig6, 0x0205aefa0d67b24au64),
        (Figure::Fig7, 0x6b6a35b639ad7cb9u64),
    ];
    for (figure, digest) in expected {
        assert_eq!(
            grid_digest(figure, &FigureOptions::new(Scale::Quick)),
            digest,
            "{}: the default quick-scale grid changed — the figure CSVs are no \
             longer bit-identical to the paper reproduction",
            figure.id()
        );
    }
}

#[test]
fn default_paper_grids_are_pinned() {
    let expected = [
        (Figure::Fig3, 0xa8c214793ddee559u64),
        (Figure::Fig4, 0xf3a544bb4fe6eb2au64),
        (Figure::Fig5, 0xbd214c7b1df1009du64),
        (Figure::Fig6, 0x2c8138ac93bd3bbfu64),
        (Figure::Fig7, 0xfa61e585f8fba175u64),
    ];
    for (figure, digest) in expected {
        assert_eq!(
            grid_digest(figure, &FigureOptions::new(Scale::Paper)),
            digest,
            "{}: the default paper-scale grid changed",
            figure.id()
        );
    }
}

#[test]
fn topology_override_only_rewrites_the_topology() {
    // The mesh grid differs from the torus grid in topology (and panel
    // titles) only: same length, same seeds, same budgets.
    let torus = Figure::Fig7
        .point_configs(&FigureOptions::new(Scale::Quick))
        .unwrap();
    let mesh = Figure::Fig7
        .point_configs(&FigureOptions::new(Scale::Quick).with_topology(TopologySpec::mesh(8, 2)))
        .unwrap();
    assert_eq!(torus.len(), mesh.len());
    for (t, m) in torus.iter().zip(&mesh) {
        assert_eq!(m.topology, TopologySpec::mesh(8, 2));
        assert_eq!(t.seed, m.seed);
        assert_eq!(t.fault_seed, m.fault_seed);
        assert_eq!(t.rate, m.rate);
        assert_eq!(t.virtual_channels, m.virtual_channels);
        assert_eq!(t.routing, m.routing);
    }
}

#[test]
fn fig3_smoke_runs_on_a_mesh_under_the_deterministic_turn_model() {
    let res = Figure::Fig3
        .run_with(
            &FigureOptions::new(Scale::Smoke)
                .with_topology(TopologySpec::mesh(8, 2))
                .with_routing(RoutingChoice::TurnModelDeterministic),
        )
        .expect("mesh fig3 runs");
    assert!(res.failures.is_empty(), "failures: {:?}", res.failures);
    // One routing × 3 V panels, 2 M × 3 nf curves, 3 rate points.
    assert_eq!(res.panels.len(), 3);
    assert_eq!(res.num_points(), 3 * 6 * 3);
    assert!(res.panels[0].title.contains("8-ary 2-mesh"));
    assert!(res.panels[0].title.contains("Turn-model-det"));
    let csv = res.to_csv();
    assert!(csv.contains("8-ary 2-mesh"));
    // Every point measured a real latency.
    for panel in &res.panels {
        for curve in &panel.curves {
            for p in &curve.points {
                assert!(p.report.mean_latency > 0.0 || p.saturated);
            }
        }
    }
}

#[test]
fn fat_tree_smoke_grid_is_pinned_and_runs_under_up_down_routing() {
    // The fat-tree figure grid is deterministic too: pin its digest so the
    // indirect-network CSVs only change when a PR intends them to.
    let opts = FigureOptions::new(Scale::Smoke)
        .with_topology(TopologySpec::fat_tree(4, 2))
        .with_routing(RoutingChoice::UpDownDeterministic);
    assert_eq!(
        grid_digest(Figure::Fig3, &opts),
        0x09a31976042563bfu64,
        "fig3: the fat-tree smoke-scale grid changed"
    );
    let res = Figure::Fig3.run_with(&opts).expect("fat-tree fig3 runs");
    assert!(res.failures.is_empty(), "failures: {:?}", res.failures);
    assert!(res.num_points() > 0);
    assert!(res.panels[0].title.contains("4-ary 2-level fat-tree"));
    assert!(res.to_csv().contains("4-ary 2-level fat-tree"));
    for panel in &res.panels {
        for curve in &panel.curves {
            for p in &curve.points {
                assert!(p.report.mean_latency > 0.0 || p.saturated);
            }
        }
    }
}

/// The parallel-determinism guarantee of the experiment pool, on a real
/// quick-scale figure grid and then on all five default smoke-scale grids:
/// the assembled result — structure, CSV bytes and rendered text — is
/// identical at `--jobs 1` and `--jobs 4`. The quick-scale grid is
/// deliberately small (a 4-hypercube under one routing) so the quick-scale
/// budgets stay test-sized; the cells where the connectivity-preserving fault
/// sampler cannot place the requested fault count become typed point
/// failures, which must be identically ordered too.
///
/// Ignored by default: quick-scale budgets take minutes in debug builds. CI
/// runs it in release
/// (`cargo test --release -p swbft-core --test figure_pinning -- --ignored`);
/// the smoke-scale determinism tests below cover the same code path in the
/// default test run.
#[test]
#[ignore = "quick-scale grid: run explicitly (CI runs it in release)"]
fn quick_scale_figure_is_identical_at_jobs_1_and_4() {
    let opts = |jobs| {
        FigureOptions::new(Scale::Quick)
            .with_topology(TopologySpec::hypercube(4))
            .with_routing(RoutingChoice::Adaptive)
            .with_jobs(jobs)
    };
    let serial = Figure::Fig6.run_with(&opts(Jobs::serial())).unwrap();
    let parallel = Figure::Fig6.run_with(&opts(Jobs::count(4))).unwrap();
    assert!(serial.num_points() > 0, "some quick-scale points must run");
    assert_eq!(serial, parallel, "quick-scale fig6 diverged across --jobs");
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.render_text(), parallel.render_text());

    // The suite-level gate: every figure's default grid, at smoke scale.
    for figure in Figure::ALL {
        let run = |jobs| figure.run_with(&FigureOptions::new(Scale::Smoke).with_jobs(jobs));
        let (serial, parallel) = (run(Jobs::serial()).unwrap(), run(Jobs::count(4)).unwrap());
        assert!(serial.num_points() > 0);
        assert_eq!(serial, parallel, "{} diverged across --jobs", figure.id());
        assert_eq!(serial.to_csv(), parallel.to_csv());
    }
}

/// Saturation searches fanned over the pool (the `saturation` binary's
/// parallelism) are identical at `--jobs 1` and `--jobs 4`: each search is a
/// sequential probe chain that owns its seeds, so only the fan-out order
/// differs.
#[test]
fn saturation_searches_are_identical_at_jobs_1_and_4() {
    let cells: Vec<(RoutingChoice, usize)> = vec![
        (RoutingChoice::Deterministic, 0),
        (RoutingChoice::Deterministic, 2),
        (RoutingChoice::Adaptive, 0),
        (RoutingChoice::Adaptive, 2),
    ];
    let search = SaturationSearch {
        max_simulations: 6,
        ..SaturationSearch::default()
    };
    let run = |jobs| {
        run_pool(cells.clone(), jobs, |&(routing, nf)| {
            let faults = if nf == 0 {
                FaultScenario::None
            } else {
                FaultScenario::RandomNodes { count: nf }
            };
            let mut cfg = ExperimentConfig::paper_point(4, 2, 4, 8, 0.001)
                .with_routing(routing)
                .with_faults(faults)
                .with_fault_seed(2006 + nf as u64)
                .quick(400, 100);
            cfg.max_cycles = 150_000;
            estimate_saturation_rate(&cfg, search).map_err(|e| e.to_string())
        })
    };
    let serial = run(Jobs::serial());
    let parallel = run(Jobs::count(4));
    assert_eq!(serial.len(), 4);
    assert_eq!(
        serial, parallel,
        "saturation estimates diverged across --jobs"
    );
    assert!(serial.iter().all(Result::is_ok));
}

/// Failure ordering under parallel execution: a fig5 grid where every point
/// fails (the paper's regions cannot fit a radix-2 hypercube) produces the
/// same failure list — same order, same contents — at any jobs count.
#[test]
fn multi_failure_fig5_grid_has_deterministic_failure_order() {
    let opts = |jobs| {
        FigureOptions::new(Scale::Smoke)
            .with_topology(TopologySpec::hypercube(4))
            .with_routing(RoutingChoice::Adaptive)
            .with_jobs(jobs)
    };
    let serial = Figure::Fig5.run_with(&opts(Jobs::serial())).unwrap();
    let parallel = Figure::Fig5.run_with(&opts(Jobs::count(4))).unwrap();
    assert_eq!(serial.num_points(), 0);
    assert!(
        serial.failures.len() > 1,
        "the grid must produce multiple failures"
    );
    assert_eq!(serial.failures, parallel.failures);
    assert_eq!(serial.render_text(), parallel.render_text());
    // The failure list follows grid-enumeration order: within one curve the
    // rate points appear in increasing x.
    for pair in serial
        .failures
        .windows(2)
        .filter(|w| w[0].curve == w[1].curve)
    {
        assert!(pair[0].x <= pair[1].x);
    }
}

#[test]
fn fig6_smoke_runs_on_a_hypercube() {
    let res = Figure::Fig6
        .run_with(
            &FigureOptions::new(Scale::Smoke)
                .with_topology(TopologySpec::hypercube(6))
                .with_routing(RoutingChoice::Adaptive),
        )
        .expect("hypercube fig6 runs");
    assert!(res.failures.is_empty(), "failures: {:?}", res.failures);
    assert_eq!(res.panels.len(), 1);
    assert!(res.panels[0].title.contains("6-hypercube"));
    // One curve (adaptive), smoke fault counts 0/4/8.
    assert_eq!(res.panels[0].curves.len(), 1);
    let xs: Vec<f64> = res.panels[0].curves[0].points.iter().map(|p| p.x).collect();
    assert_eq!(xs, vec![0.0, 4.0, 8.0]);
}
