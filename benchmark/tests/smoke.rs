//! The traced half end to end at smoke scale (1/20 length): the one command
//! carries every workload and metric, the wrapper is transparent, counts are
//! a function of the seed, and the workloads keep their character.
#![cfg(feature = "trace")]

use std::process::Command;
use std::time::Instant;
use swbft_bench::json::Json;
use swbft_bench::metrics::{END_TO_END, PER_LAYER, SIMULATED};
use swbft_bench::trace::{run_traced, TracedResult};
use swbft_bench::workloads::{Workload, SMOKE_DIVISOR, WORKLOADS};

/// A traced smoke run with the minimum number of repetitions.
fn traced(name: &str, seed: u64) -> TracedResult {
    let workload = Workload::by_name(name).expect("known workload");
    run_traced(workload, seed, 0.0, SMOKE_DIVISOR).expect("the workload runs")
}

fn exact_layers(result: &TracedResult) -> Vec<(&'static str, u64)> {
    PER_LAYER
        .iter()
        .filter(|m| m.exact)
        .map(|m| (m.name, result.layers.get(m.name).to_bits()))
        .collect()
}

#[test]
fn smoke_mode_carries_every_workload_and_metric() {
    let started = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_swbft-bench"))
        .args(["--smoke", "--trace", "--seed", "7", "--seconds", "0.2"])
        .output()
        .expect("swbft-bench runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "exit {:?}\n{stdout}",
        output.status
    );
    assert!(
        started.elapsed().as_secs() < 30,
        "smoke mode took {:?}",
        started.elapsed()
    );

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let read = |file: &str| {
        let path = format!("{out}/{file}");
        Json::parse(&std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}")))
            .unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let result = read("result.json");
    let stamp = result.get("stamp").expect("stamp");
    assert_eq!(stamp.get("smoke"), Some(&Json::Bool(true)));
    assert_eq!(stamp.get("seed"), Some(&Json::str("7")));
    for key in [
        "git_rev",
        "rustc",
        "features",
        "nproc",
        "sweep_jobs",
        "seconds",
        "traced",
    ] {
        assert!(stamp.get(key).is_some(), "stamp carries '{key}'");
    }
    let spans = read("trace.json");
    for (name, _) in WORKLOADS {
        let section = result
            .get("workloads")
            .and_then(|w| w.get(name))
            .unwrap_or_else(|| panic!("{name} is in the result"));
        assert_eq!(section.get("correct"), Some(&Json::Bool(true)), "{name}");
        assert_eq!(section.get("failed"), Some(&Json::Num(0.0)), "{name}");
        assert!(!section.get("sizes").expect("sizes").members().is_empty());
        for metric in &END_TO_END {
            let m = section.get("end_to_end").and_then(|e| e.get(metric.name));
            let m = m.unwrap_or_else(|| panic!("{name} reports {}", metric.name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(metric.unit));
            for key in ["median", "min", "max", "n"] {
                assert!(
                    m.get(key).and_then(Json::as_f64).is_some(),
                    "{name}.{} has {key}",
                    metric.name
                );
            }
            assert!(
                stdout.contains(metric.name),
                "the table prints {}",
                metric.name
            );
        }
        for (metric, _) in SIMULATED {
            let simulated = section.get("simulated").and_then(|s| s.get(metric));
            assert_eq!(
                simulated.is_some(),
                name != "verify_matrix",
                "{name} and {metric}"
            );
            assert!(stdout.contains(metric), "the table prints {metric}");
        }
        for metric in &PER_LAYER {
            let m = section.get("per_layer").and_then(|l| l.get(metric.name));
            let m = m.unwrap_or_else(|| panic!("{name} reports {}", metric.name));
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name}.{}",
                metric.name
            );
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(metric.unit));
        }
        let root = spans
            .get(name)
            .unwrap_or_else(|| panic!("{name} has spans"));
        assert_eq!(root.get("name").and_then(Json::as_str), Some(name));
        assert!(matches!(root.get("children"), Some(Json::Arr(c)) if !c.is_empty()));
    }
}

#[test]
fn the_wrapper_and_the_rebuilt_verify_loop_are_transparent() {
    // `run_traced` gates on it: every traced repetition's report digest
    // equals the untraced one's, every traced verify case equals
    // `verify_case`/`verify_schedule`, serial equals pooled.
    for name in [
        "sim_faulted",
        "sim_fattree",
        "figure_sweep",
        "verify_matrix",
    ] {
        let result = traced(name, 5);
        let outcome = &result.end_to_end.outcome;
        assert!(result.end_to_end.correct(), "{name}: {:?}", outcome.errors);
        assert!(outcome.attempted > 0 && outcome.failed == 0);
    }
    let verify = traced("verify_matrix", 5);
    assert_eq!(verify.layers.get("verify.route_calls_per_state"), 1.0);
    assert!(verify.layers.get("verify.states") > 0.0);
    assert!(verify
        .root
        .children
        .iter()
        .all(|case| case.name == "case" && !case.children.is_empty()));
}

#[test]
fn counts_are_a_function_of_the_seed_and_workloads_keep_their_character() {
    for seed in [11, 12] {
        let oversat = traced("sim_oversat", seed);
        let faulted = traced("sim_faulted", seed);
        let lowload = traced("sim_lowload", seed);
        let delivered = oversat
            .end_to_end
            .outcome
            .simulated
            .expect("simulated")
            .delivered_frac;
        assert!(
            delivered < 0.9,
            "seed {seed}: sim_oversat delivered {delivered}"
        );
        assert!(oversat.layers.get("routing.route_calls_per_hop") > 5.0);
        let absorbs = faulted.layers.get("routing.absorb_per_msg");
        assert!(
            absorbs > 0.3,
            "seed {seed}: sim_faulted absorbs {absorbs} per message"
        );
        assert!(faulted.layers.get("routing.reroute_calls") > 0.0);
        let per_hop = lowload.layers.get("routing.route_calls_per_hop");
        assert!(
            per_hop < 1.5,
            "seed {seed}: sim_lowload makes {per_hop} route calls per hop"
        );
        assert_eq!(lowload.layers.get("routing.absorb_per_msg"), 0.0);
        for result in [&oversat, &faulted, &lowload] {
            let share = result.layers.get("routing.share") + result.layers.get("sim.self_share");
            assert!(
                (share - 1.0).abs() < 1e-9,
                "routing and engine shares partition the wall"
            );
        }
    }
    // Same seed: every exact metric repeats bit for bit. Another seed: other inputs.
    let (a, again, other) = (
        traced("sim_faulted", 3),
        traced("sim_faulted", 3),
        traced("sim_faulted", 4),
    );
    assert_eq!(a.end_to_end.outcome, again.end_to_end.outcome);
    assert_eq!(exact_layers(&a), exact_layers(&again));
    assert_ne!(a.end_to_end.outcome.digest, other.end_to_end.outcome.digest);
    assert_ne!(exact_layers(&a), exact_layers(&other));
    // The enumeration does not depend on the seed at all.
    let (v3, v4) = (traced("verify_matrix", 3), traced("verify_matrix", 4));
    assert_eq!(v3.end_to_end.outcome.digest, v4.end_to_end.outcome.digest);
}
