//! Pins of whole schedule proofs: an FNV-1a digest of every field of every
//! epoch report except the wall clock (the witness included), and of every
//! epoch's pair fates. Any change to how `verify_schedule` organises its work
//! must leave these digests alone; a moved pin means a proof's verdicts,
//! counts, fates or witnesses changed, never "update the constant".

mod common;

use common::AllOnVcZero;
use swbft_verify::matrix::{matrix_routings, matrix_schedule_cases, MatrixKind, STATE_BUDGET};
use swbft_verify::{verify_schedule, ScheduleOutcome};
use torus_faults::FaultSchedule;
use torus_routing::{AnyRouting, RoutingAlgorithm, Substrate};
use torus_topology::{AnyTopology, TopologySpec};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The digest of everything a schedule proof reports except `wall_ms`, one
/// line per field so that no two different reports render alike.
fn digest(outcome: &ScheduleOutcome) -> u64 {
    let mut text = String::new();
    for (e, fates) in outcome.epochs.iter().zip(&outcome.fates) {
        text += &format!("cycle {}\n", e.cycle);
        text += &format!("new_faults {:?}\n", e.new_faults);
        text += &format!("faulty {} {}\n", e.faulty_nodes, e.faulty_links);
        text += &format!(
            "pairs {} {} {} {} {}\n",
            e.pairs, e.routable, e.rerouted, e.disconnected, e.endpoint_faulty
        );
        text += &format!("rewalked {} reused {}\n", e.rewalked, e.reused);
        text += &format!("cdg {} {} {}\n", e.cdg_vertices, e.cdg_edges, e.acyclic);
        text += &format!("states {}\n", e.states);
        text += &format!("failure {:?}\n", e.failure);
        for line in &e.witness {
            text += &format!("witness {line}\n");
        }
        for f in fates {
            text += &format!("fate {} {} {}\n", f.src.0, f.dest.0, f.fate.name());
        }
    }
    assert_eq!(outcome.epochs.len(), outcome.fates.len());
    text += &format!("divergences {:?}\n", outcome.divergences);
    fnv1a(FNV_OFFSET, text.as_bytes())
}

fn net(spec: &str) -> AnyTopology {
    TopologySpec::parse(spec)
        .expect("valid spec")
        .build()
        .expect("topology builds")
}

/// Verifies the full matrix's `topology/routing/v/schedule` case.
fn matrix_case(topology: &str, routing: &str, v: usize, schedule: &str) -> ScheduleOutcome {
    let net = net(topology);
    let (_, algo) = matrix_routings()
        .into_iter()
        .find(|(label, _)| label == routing)
        .expect("a matrix routing");
    assert_eq!(
        algo.min_virtual_channels(&net),
        v,
        "the matrix runs at V_min"
    );
    let (_, schedule) = matrix_schedule_cases(&net, MatrixKind::Full)
        .into_iter()
        .find(|(label, _)| label == schedule)
        .expect("a matrix schedule");
    verify_schedule(&net, &algo, &schedule, v, STATE_BUDGET, false).expect("the case fits")
}

#[test]
fn mesh_turn_model_mix_is_pinned() {
    let outcome = matrix_case("mesh:8x2", "turn-model-det", 1, "sched@mix");
    assert!(!outcome.failed(), "{}", outcome.summary());
    assert_eq!(digest(&outcome), 0xeff5eae0b69b8bda);
}

/// The last epoch isolates node 0, so its pairs end disconnected.
#[test]
fn mesh_west_first_fence_is_pinned() {
    let outcome = matrix_case("mesh:8x2", "west-first", 2, "sched@fence0");
    assert!(!outcome.failed(), "{}", outcome.summary());
    let last = outcome.epochs.last().expect("epoch 0 at least");
    assert!(last.disconnected > 0);
    assert_eq!(digest(&outcome), 0x45d6aec24a2f9c77);
}

#[test]
fn fat_tree_updown_mix_is_pinned() {
    let outcome = matrix_case("ft:4,2", "updown", 2, "sched@mix");
    assert!(!outcome.failed(), "{}", outcome.summary());
    assert_eq!(digest(&outcome), 0xa91483e5ffc87234);
}

/// The schedule CI verifies with the paranoid cross-check.
#[test]
fn torus_deterministic_schedule_is_pinned() {
    let net = net("torus:4x2");
    let algo = AnyRouting::deterministic(Substrate::DimensionOrder);
    let schedule = FaultSchedule::parse("100:node@4,200:link@2:d0+").expect("valid schedule");
    let v = algo.min_virtual_channels(&net);
    let outcome =
        verify_schedule(&net, &algo, &schedule, v, STATE_BUDGET, false).expect("the case fits");
    assert!(!outcome.failed(), "{}", outcome.summary());
    assert_eq!(digest(&outcome), 0x9568c09a3a790e2b);
}

/// A cyclic union CDG at every epoch: the witness is part of the digest.
#[test]
fn cyclic_schedule_is_pinned() {
    let net = net("torus:4x2");
    let algo = AllOnVcZero(AnyRouting::deterministic(Substrate::DimensionOrder));
    let schedule = FaultSchedule::parse("100:node@4,200:link@2:d0+").expect("valid schedule");
    let outcome =
        verify_schedule(&net, &algo, &schedule, 2, STATE_BUDGET, false).expect("the case fits");
    assert!(outcome.epochs.iter().all(|e| !e.acyclic));
    assert_eq!(digest(&outcome), 0x613d4358b889bd3b);
}
