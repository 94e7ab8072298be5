//! Static routing verification gate: exact CDG acyclicity, cycle witnesses
//! and reachability proofs over the whole supported matrix, written to
//! `VERIFY.json`.
//!
//! ```text
//! usage: verify [--matrix smoke|full] [--jobs N|auto] [--out <path>] [--naive-demo]
//!               [--schedule <spec> [--topology T] [--routing R] [--vc N] [--paranoid]]
//!   --matrix M      matrix slice to verify (default: smoke)
//!   --jobs N|auto   worker threads for the sweep (default: 1; `auto` uses
//!                   every core); the case order in the report is
//!                   deterministic for any N
//!   --out PATH      output path (default: VERIFY.json)
//!   --naive-demo    instead of the matrix, run the known-cyclic negative
//!                   control (dimension-order torus routing with the dateline
//!                   VC classes merged away), print its channel-cycle witness,
//!                   and exit with status 2
//!   --schedule S    instead of the matrix, verify one fault schedule
//!                   epoch-differentially, e.g. '100:node@4,200:link@2:d0+'
//!   --topology T    topology for --schedule (default: torus:4x2)
//!   --routing R     routing label for --schedule (default: deterministic;
//!                   any label from the verify matrix)
//!   --vc N          virtual channels for --schedule (default: the routing's
//!                   minimum on the chosen topology)
//!   --paranoid      re-verify every epoch of --schedule from scratch and
//!                   diff against the differential result
//! ```
//!
//! Exit status: 0 when every case is proved or rejected, 1 on a usage or
//! I/O error (including a `--schedule` configuration the simulator would
//! reject: a routing the topology does not support, or `--vc` below the
//! routing's minimum; and a schedule that parses but does not fit the
//! topology), 2 when any case fails verification.

use std::path::PathBuf;
use std::process::ExitCode;
use swbft_core::Jobs;
use swbft_verify::epochs::{verify_schedule, ScheduleVerifyError};
use swbft_verify::matrix::{
    matrix_routings, naive_torus_demo, run_matrix_with_options, MatrixKind, STATE_BUDGET,
};
use swbft_verify::report::{case_line, render_schedule_text, render_text, to_json};
use torus_faults::FaultSchedule;
use torus_routing::RoutingAlgorithm;
use torus_topology::TopologySpec;

const USAGE: &str = "usage: verify [--matrix smoke|full] [--jobs N|auto] [--out <path>] [--naive-demo]\n\
                     \x20             [--schedule <spec> [--topology T] [--routing R] [--vc N] [--paranoid]]";

/// Runs the single-schedule verification path (`--schedule`).
fn run_schedule(
    spec: &str,
    topology: &str,
    routing: &str,
    vc: Option<usize>,
    paranoid: bool,
) -> ExitCode {
    let net = match TopologySpec::parse(topology).and_then(|s| s.build().map_err(|e| e.to_string()))
    {
        Ok(net) => net,
        Err(e) => {
            eprintln!("bad --topology '{topology}': {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some((label, algo)) = matrix_routings().into_iter().find(|(l, _)| l == routing) else {
        let known = matrix_routings()
            .into_iter()
            .map(|(l, _)| l)
            .collect::<Vec<_>>()
            .join(", ");
        eprintln!("unknown --routing '{routing}' (known: {known})");
        return ExitCode::FAILURE;
    };
    let schedule = match FaultSchedule::parse(spec) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bad --schedule '{spec}': {e}");
            return ExitCode::FAILURE;
        }
    };
    let v = vc.unwrap_or_else(|| algo.min_virtual_channels(&net));
    eprintln!(
        "verifying schedule '{}' on {topology} / {label} (v={v}{}):",
        schedule.spec_string(),
        if paranoid { ", paranoid" } else { "" }
    );
    match verify_schedule(&net, &algo, &schedule, v, STATE_BUDGET, paranoid) {
        Ok(outcome) => {
            print!("{}", render_schedule_text(&outcome));
            if outcome.failed() {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        // A configuration the simulator would reject, or a schedule that
        // does not fit the network, is a usage error.
        Err(
            e @ (ScheduleVerifyError::Unsupported(_)
            | ScheduleVerifyError::TooFewVirtualChannels { .. }
            | ScheduleVerifyError::TooManyVirtualChannels { .. }
            | ScheduleVerifyError::Schedule(_)),
        ) => {
            eprintln!("{label} on {topology} (v={v}): {e}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("schedule verification error: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let mut kind = MatrixKind::Smoke;
    let mut jobs = 1usize;
    let mut out_path = PathBuf::from("VERIFY.json");
    let mut naive_demo = false;
    let mut schedule: Option<String> = None;
    let mut topology = "torus:4x2".to_string();
    let mut routing = "deterministic".to_string();
    let mut vc: Option<usize> = None;
    let mut paranoid = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--schedule" => {
                let Some(spec) = args.next() else {
                    eprintln!("--schedule needs a spec like '100:node@4,200:link@2:d0+'\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                schedule = Some(spec);
            }
            "--topology" => {
                let Some(t) = args.next() else {
                    eprintln!("--topology needs a spec like torus:4x2\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                topology = t;
            }
            "--routing" => {
                let Some(r) = args.next() else {
                    eprintln!("--routing needs a matrix routing label\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                routing = r;
            }
            "--vc" => {
                let parsed = args.next().and_then(|n| n.parse::<usize>().ok());
                let Some(n) = parsed.filter(|&n| n >= 1) else {
                    eprintln!("--vc needs a positive integer\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                vc = Some(n);
            }
            "--paranoid" => paranoid = true,
            "--matrix" => {
                let Some(m) = args.next() else {
                    eprintln!("--matrix needs a value (smoke|full)\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                kind = match MatrixKind::parse(&m) {
                    Ok(k) => k,
                    Err(e) => {
                        eprintln!("{e}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--jobs" => {
                jobs = match Jobs::parse(&args.next().unwrap_or_default()) {
                    Ok(j) => j.effective(),
                    Err(e) => {
                        eprintln!("{e}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--out" => {
                let Some(path) = args.next() else {
                    eprintln!("--out needs a file path\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                out_path = PathBuf::from(path);
            }
            "--naive-demo" => naive_demo = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument '{other}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(spec) = schedule {
        return run_schedule(&spec, &topology, &routing, vc, paranoid);
    }

    if naive_demo {
        eprintln!("running the known-cyclic negative control (expected to fail):");
        let case = naive_torus_demo();
        println!("{}", case_line(&case));
        println!("  violation: {}", case.detail);
        for line in &case.witness {
            println!("  {line}");
        }
        return ExitCode::from(2);
    }

    eprintln!("verifying the {} matrix on {jobs} thread(s):", kind.name());
    let report = run_matrix_with_options(kind, jobs, |case| eprintln!("  {}", case_line(case)));
    print!("{}", render_text(&report));
    if let Err(e) = std::fs::write(&out_path, to_json(&report)) {
        eprintln!("failed to write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", out_path.display());
    if report.violations() > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
