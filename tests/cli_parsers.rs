//! The command-line parsers never panic: every string a user can type into
//! `--topology`, `--schedule`, `--routing`, `--jobs`, `--scale` or
//! `--matrix` comes back as `Ok` or `Err`. Topologies that parse are also
//! built, and schedules that parse are validated against a torus, a mesh and
//! a fat-tree, since the binaries do both with user input. The shared flag
//! reader gets the same strings as whole argument vectors, mixed with the
//! flags it knows.
//!
//! The strings are seeded and built from the parsers' own vocabulary: digits
//! (including numbers too large for any id type), the separators
//! `x , : @ + - o d`, the kind names and the empty string; half of them
//! follow the grammar's outline, so many get past the first token.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use swbft::core::{Jobs, RoutingChoice, Scale};
use swbft::faults::FaultSchedule;
use swbft::topology::TopologySpec;
use swbft::verify::MatrixKind;
use torus_bench::Command;

const STRINGS: usize = 4_000;

const SEPARATORS: &[&str] = &["x", ",", ":", "@", "+", "-", "o", "d"];

/// The topology kinds first: [`topology_like`] draws from those seven.
const KIND_NAMES: &[&str] = &[
    "torus",
    "mesh",
    "hypercube",
    "hc",
    "mixed",
    "ft",
    "fattree",
    "node",
    "link",
    "det",
    "deterministic",
    "adaptive",
    "turnmodel",
    "turnmodel-det",
    "updown",
    "updown-det",
    "smoke",
    "quick",
    "paper",
    "full",
    "auto",
];

/// A number: usually small, sometimes one that overflows `u16`, `u32` or
/// `u64`, sometimes empty or zero-padded.
fn number(rng: &mut StdRng) -> String {
    match rng.gen_range(0..8u32) {
        0 => String::new(),
        1 => "65536".into(),
        2 => "4294967296".into(),
        3 => "99999999999999999999".into(),
        4 => format!("0{}", rng.gen_range(0..10u32)),
        _ => rng.gen_range(0..16u32).to_string(),
    }
}

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// Up to 12 tokens drawn from digits, separators and kind names.
fn soup(rng: &mut StdRng) -> String {
    let mut s = String::new();
    for _ in 0..rng.gen_range(0..13usize) {
        match rng.gen_range(0..3u32) {
            0 => s.push_str(&number(rng)),
            1 => s.push_str(pick(rng, SEPARATORS)),
            _ => s.push_str(pick(rng, KIND_NAMES)),
        }
    }
    s
}

/// A topology-shaped string: a kind, a colon and separated numbers.
fn topology_like(rng: &mut StdRng) -> String {
    let mut s = format!("{}:{}", pick(rng, &KIND_NAMES[..7]), number(rng));
    for _ in 0..rng.gen_range(0..4usize) {
        s.push_str(pick(rng, &["x", ","]));
        s.push_str(&number(rng));
        if rng.gen_range(0..4u32) == 0 {
            s.push('o');
        }
    }
    s
}

/// A schedule-shaped string: comma-separated `CYCLE:node@ID` and
/// `CYCLE:link@ID:dDIM±` events with random numbers.
fn schedule_like(rng: &mut StdRng) -> String {
    let events: Vec<String> = (0..rng.gen_range(0..4usize))
        .map(|_| {
            let (cycle, id) = (number(rng), number(rng));
            if rng.gen_range(0..2u32) == 0 {
                format!("{cycle}:node@{id}")
            } else {
                let (dim, sign) = (number(rng), pick(rng, &["+", "-", "", "o"]));
                format!("{cycle}:link@{id}:d{dim}{sign}")
            }
        })
        .collect();
    events.join(",")
}

fn inputs(seed: u64, shaped: fn(&mut StdRng) -> String) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<String> = [""]
        .iter()
        .chain(KIND_NAMES)
        .chain(SEPARATORS)
        .map(|s| (*s).to_string())
        .collect();
    while out.len() < STRINGS {
        let s = if rng.gen_range(0..2u32) == 0 {
            soup(&mut rng)
        } else {
            shaped(&mut rng)
        };
        out.push(s);
    }
    out
}

/// Runs `call` on every input and returns the inputs it panicked on.
fn panicking(inputs: &[String], call: impl Fn(&str)) -> Vec<String> {
    inputs
        .iter()
        .filter(|s| catch_unwind(AssertUnwindSafe(|| call(s))).is_err())
        .cloned()
        .collect()
}

#[test]
fn topology_specs_parse_and_build_without_panicking() {
    let inputs = inputs(0x70b0, topology_like);
    let built = inputs
        .iter()
        .filter(|s| TopologySpec::parse(s).is_ok_and(|spec| spec.build().is_ok()))
        .count();
    assert!(built > 100, "only {built} inputs built a topology");
    let bad = panicking(&inputs, |s| {
        if let Ok(spec) = TopologySpec::parse(s) {
            let _ = spec.build();
        }
    });
    assert!(bad.is_empty(), "panicked on {bad:?}");
}

#[test]
fn fault_schedules_parse_and_validate_without_panicking() {
    let nets: Vec<_> = ["torus:4x2", "mesh:4x2", "ft:4,2"]
        .iter()
        .map(|s| TopologySpec::parse(s).unwrap().build().unwrap())
        .collect();
    let inputs = inputs(0x5c4e, schedule_like);
    let valid = inputs
        .iter()
        .filter(|s| FaultSchedule::parse(s).is_ok_and(|sched| sched.validate(&nets[0]).is_ok()))
        .count();
    assert!(valid > 100, "only {valid} inputs were valid on torus:4x2");
    let bad = panicking(&inputs, |s| {
        if let Ok(schedule) = FaultSchedule::parse(s) {
            for net in &nets {
                let _ = schedule.validate(net);
            }
        }
    });
    assert!(bad.is_empty(), "panicked on {bad:?}");
}

#[test]
fn flag_values_parse_without_panicking() {
    let inputs = inputs(0xf1a6, soup);
    let bad = panicking(&inputs, |s| {
        let _ = RoutingChoice::parse(s);
        let _ = Jobs::parse(s);
        let _ = Scale::parse(s);
        let _ = MatrixKind::parse(s);
    });
    assert!(bad.is_empty(), "panicked on {bad:?}");
}

#[test]
fn argument_vectors_read_without_panicking() {
    const READER: Command = Command {
        usage: "usage: test",
        values: &["--scale", "--topology", "--routing", "--jobs"],
        switches: &["--smoke"],
        operands: 1,
    };
    const FLAGS: &[&str] = &[
        "--scale",
        "--topology",
        "--routing",
        "--jobs",
        "--smoke",
        "--help",
        "-h",
        "--bogus",
        "-",
    ];
    let strings = inputs(0xa265, soup);
    let mut rng = StdRng::seed_from_u64(0xa266);
    let vectors: Vec<Vec<String>> = (0..STRINGS)
        .map(|_| {
            (0..rng.gen_range(0..8usize))
                .map(|_| match rng.gen_range(0..2u32) {
                    0 => pick(&mut rng, FLAGS).to_string(),
                    _ => strings[rng.gen_range(0..strings.len())].clone(),
                })
                .collect()
        })
        .collect();
    let read = vectors
        .iter()
        .filter(|v| {
            READER
                .read(v.iter().cloned())
                .is_ok_and(|a| a.figure_options().is_ok())
        })
        .count();
    assert!(read > 100, "only {read} vectors gave figure options");
    let bad: Vec<&Vec<String>> = vectors
        .iter()
        .filter(|v| {
            catch_unwind(AssertUnwindSafe(|| {
                if let Ok(args) = READER.read(v.iter().cloned()) {
                    let _ = args.figure_options();
                    let _ = (
                        args.value("--scale"),
                        args.switch("--smoke"),
                        args.operands(),
                    );
                }
            }))
            .is_err()
        })
        .collect();
    assert!(bad.is_empty(), "panicked on {bad:?}");
}
