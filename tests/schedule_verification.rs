//! End-to-end fault-schedule verification through the umbrella crate: parse
//! a schedule spec, verify it epoch-differentially with the paranoid
//! cross-check, and render the v3 report artefacts.

use swbft::faults::{FaultSchedule, FaultSet};
use swbft::routing::{RoutingAlgorithm, MAX_VIRTUAL_CHANNELS};
use swbft::topology::TopologySpec;
use swbft::verify::matrix::{matrix_routings, run_matrix, MatrixKind, Verdict, STATE_BUDGET};
use swbft::verify::report::to_json;
use swbft::verify::{verify_schedule, PairFate, ScheduleVerifyError};

#[test]
fn parsed_schedule_round_trips_and_verifies() {
    let net = TopologySpec::parse("torus:4x2").unwrap().build().unwrap();
    let schedule = FaultSchedule::parse("100:node@4,200:link@2:d0+").unwrap();
    assert_eq!(schedule.spec_string(), "100:node@4,200:link@2:d0+");
    assert_eq!(
        FaultSchedule::parse(&schedule.spec_string()).unwrap(),
        schedule
    );
    schedule.validate(&net).unwrap();

    for (label, algo) in matrix_routings() {
        if algo.supported_on(&net).is_err() {
            continue;
        }
        let v = algo.min_virtual_channels(&net);
        let outcome = verify_schedule(&net, &algo, &schedule, v, STATE_BUDGET, true)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(!outcome.failed(), "{label}: {}", outcome.summary());
        assert_eq!(outcome.epochs.len(), 3, "{label}: epoch 0 + two injections");
        let (rewalked, reused) = outcome.rewalk_totals();
        assert!(rewalked > 0 && reused > 0, "{label}: differential reuse");
        // The single node fault forces software-layer recovery for some
        // pairs under every matrix routing, and never cuts the 4-ary
        // 2-cube.
        let last = outcome.epochs.last().unwrap();
        assert_eq!(last.disconnected, 0, "{label}: torus stays connected");
        assert!(
            outcome.fates[2]
                .iter()
                .all(|f| f.fate != PairFate::Disconnected),
            "{label}"
        );
    }
}

#[test]
fn invalid_schedules_are_rejected_with_typed_errors() {
    let net = TopologySpec::parse("mesh:3x2").unwrap().build().unwrap();
    // Duplicate node fault.
    let dup = FaultSchedule::parse("100:node@4,200:node@4").unwrap();
    assert!(dup.validate(&net).is_err());
    // Node beyond the 9-node mesh.
    let oob = FaultSchedule::parse("100:node@9").unwrap();
    assert!(oob.validate(&net).is_err());
    // Open-mesh edge: node 2 is at the +d0 face, so that link is missing.
    let missing = FaultSchedule::parse("100:link@2:d0+").unwrap();
    assert!(missing.validate(&net).is_err());
    // Cycles must be non-decreasing across the spec.
    assert!(FaultSchedule::parse("200:node@1,100:node@2").is_err());
    // An unknown event shape is a parse error, not a panic.
    assert!(FaultSchedule::parse("100:router@1").is_err());
}

#[test]
fn configurations_the_simulator_rejects_are_typed_errors_not_proofs() {
    let schedule = FaultSchedule::parse("100:node@5").unwrap();
    let routing = |label: &str| {
        let (_, algo) = matrix_routings()
            .into_iter()
            .find(|(l, _)| l == label)
            .unwrap();
        algo
    };
    // Below the minimum VC count: two of these used to panic in the dateline
    // partition, the other two reported `proved`.
    for (spec, label, v, minimum) in [
        ("torus:4x2", "adaptive", 2, 3),
        ("torus:4x2", "deterministic", 1, 2),
        ("mesh:4x2", "turn-model", 1, 2),
        ("ft:4,2", "updown", 1, 2),
    ] {
        let net = TopologySpec::parse(spec).unwrap().build().unwrap();
        let err = verify_schedule(&net, &routing(label), &schedule, v, STATE_BUDGET, false)
            .expect_err(label);
        assert!(
            matches!(
                err,
                ScheduleVerifyError::TooFewVirtualChannels { requested, minimum: m }
                    if requested == v && m == minimum
            ),
            "{spec}/{label}: {err}"
        );
        assert!(err.to_string().contains(&format!("at least {minimum}")));
    }
    // A routing the topology does not support.
    let torus = TopologySpec::parse("torus:4x2").unwrap().build().unwrap();
    let err = verify_schedule(
        &torus,
        &routing("updown"),
        &schedule,
        2,
        STATE_BUDGET,
        false,
    )
    .expect_err("up/down rejects grids");
    assert!(matches!(err, ScheduleVerifyError::Unsupported(_)), "{err}");
    // More virtual channels than a routing decision can name: past the
    // bound `route()` would panic, so the pool is rejected before any walk.
    let too_many = MAX_VIRTUAL_CHANNELS + 1;
    let err = verify_schedule(
        &torus,
        &routing("adaptive"),
        &schedule,
        too_many,
        STATE_BUDGET,
        false,
    )
    .expect_err("V above the bound");
    assert!(
        matches!(
            err,
            ScheduleVerifyError::TooManyVirtualChannels { requested, maximum }
                if requested == too_many && maximum == MAX_VIRTUAL_CHANNELS
        ),
        "{err}"
    );
}

#[test]
fn smoke_matrix_json_carries_schedule_epochs() {
    let report = run_matrix(MatrixKind::Smoke);
    let sched_cases: Vec<_> = report
        .cases
        .iter()
        .filter(|c| c.faults.starts_with("sched@"))
        .collect();
    assert!(!sched_cases.is_empty(), "smoke matrix has schedule cases");
    for c in &sched_cases {
        assert_ne!(c.verdict, Verdict::Failed, "{}: {}", c.faults, c.detail);
        if c.verdict == Verdict::Proved {
            assert!(!c.epochs.is_empty(), "{}: epochs recorded", c.faults);
            assert!(c.epochs.iter().all(|e| e.acyclic));
        }
    }
    let json = to_json(&report);
    assert!(json.contains("\"schema\": \"swbft-verify-v3\""));
    assert!(json.contains("\"faults\": \"sched@mix\""));
    assert!(json.contains("\"reused\": "));
}

#[test]
fn schedule_epochs_materialise_cumulatively() {
    let net = TopologySpec::parse("torus:4x2").unwrap().build().unwrap();
    let schedule = FaultSchedule::parse("50:node@1,50:node@2,300:link@5:d1-").unwrap();
    let epochs = schedule.epochs(&net).unwrap();
    assert_eq!(epochs.len(), 3, "implicit epoch 0 + cycles 50 and 300");
    assert_eq!(epochs[0].cycle, 0);
    assert_eq!(epochs[0].faults.num_faulty_nodes(), 0);
    assert_eq!(epochs[1].cycle, 50);
    assert_eq!(
        epochs[1].new_events.len(),
        2,
        "same-cycle events share an epoch"
    );
    assert_eq!(epochs[1].faults.num_faulty_nodes(), 2);
    assert_eq!(epochs[2].cycle, 300);
    assert_eq!(epochs[2].faults.num_faulty_nodes(), 2);
    assert!(epochs[2].faults.num_faulty_links() > 0);
    // The cumulative sets are supersets of every earlier epoch.
    let earlier: &FaultSet = &epochs[1].faults;
    for node in net.nodes() {
        if earlier.is_node_faulty(node) {
            assert!(epochs[2].faults.is_node_faulty(node));
        }
    }
}
