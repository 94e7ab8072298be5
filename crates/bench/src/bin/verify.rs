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
//! I/O error (including `--topology`, `--routing`, `--vc` or `--paranoid`
//! without `--schedule`; a `--schedule` configuration the simulator would
//! reject: a routing the topology does not support, or `--vc` below the
//! routing's minimum; and a schedule that parses but does not fit the
//! topology), 2 when any case fails verification.

use std::process::ExitCode;
use swbft_core::Jobs;
use swbft_verify::epochs::{verify_schedule, ScheduleVerifyError};
use swbft_verify::matrix::{
    matrix_routings, naive_torus_demo, run_matrix_with_options, MatrixKind, STATE_BUDGET,
};
use swbft_verify::report::{case_line, render_schedule_text, render_text, to_json};
use torus_bench::{CliError, Command};
use torus_faults::FaultSchedule;
use torus_routing::RoutingAlgorithm;
use torus_topology::TopologySpec;

const VERIFY: Command = Command {
    usage:
        "usage: verify [--matrix smoke|full] [--jobs N|auto] [--out <path>] [--naive-demo]\n\
            \x20             [--schedule <spec> [--topology T] [--routing R] [--vc N] [--paranoid]]",
    values: &[
        "--matrix",
        "--jobs",
        "--out",
        "--schedule",
        "--topology",
        "--routing",
        "--vc",
    ],
    switches: &["--naive-demo", "--paranoid"],
    operands: 0,
};

/// The flags that configure `--schedule` and nothing else.
const SCHEDULE_ONLY: [&str; 4] = ["--topology", "--routing", "--vc", "--paranoid"];

/// Runs the single-schedule verification path (`--schedule`).
fn run_schedule(
    spec: &str,
    topology: &str,
    routing: &str,
    vc: Option<usize>,
    paranoid: bool,
) -> Result<ExitCode, CliError> {
    let net = TopologySpec::parse(topology)
        .and_then(|s| s.build().map_err(|e| e.to_string()))
        .map_err(|e| CliError::Input(format!("bad --topology '{topology}': {e}")))?;
    let Some((label, algo)) = matrix_routings().into_iter().find(|(l, _)| l == routing) else {
        let known = matrix_routings()
            .into_iter()
            .map(|(l, _)| l)
            .collect::<Vec<_>>()
            .join(", ");
        return Err(CliError::Input(format!(
            "unknown --routing '{routing}' (known: {known})"
        )));
    };
    let schedule = FaultSchedule::parse(spec)
        .map_err(|e| CliError::Input(format!("bad --schedule '{spec}': {e}")))?;
    let v = vc.unwrap_or_else(|| algo.min_virtual_channels(&net));
    eprintln!(
        "verifying schedule '{}' on {topology} / {label} (v={v}{}):",
        schedule.spec_string(),
        if paranoid { ", paranoid" } else { "" }
    );
    match verify_schedule(&net, &algo, &schedule, v, STATE_BUDGET, paranoid) {
        Ok(outcome) => {
            print!("{}", render_schedule_text(&outcome));
            Ok(if outcome.failed() {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            })
        }
        // A configuration the simulator would reject, or a schedule that
        // does not fit the network, is a usage error.
        Err(
            e @ (ScheduleVerifyError::Unsupported(_)
            | ScheduleVerifyError::TooFewVirtualChannels { .. }
            | ScheduleVerifyError::TooManyVirtualChannels { .. }
            | ScheduleVerifyError::Schedule(_)),
        ) => Err(CliError::Input(format!(
            "{label} on {topology} (v={v}): {e}"
        ))),
        Err(e) => {
            eprintln!("schedule verification error: {e}");
            Ok(ExitCode::from(2))
        }
    }
}

fn main() -> ExitCode {
    VERIFY.main(|args| {
        let kind = args
            .parse("--matrix", MatrixKind::parse)?
            .unwrap_or(MatrixKind::Smoke);
        let jobs = args
            .parse("--jobs", Jobs::parse)?
            .map_or(1, Jobs::effective);
        let vc = args.parse("--vc", |n| {
            n.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| "--vc needs a positive integer".to_string())
        })?;
        if let Some(spec) = args.value("--schedule") {
            return run_schedule(
                spec,
                args.value("--topology").unwrap_or("torus:4x2"),
                args.value("--routing").unwrap_or("deterministic"),
                vc,
                args.switch("--paranoid"),
            );
        }

        // The schedule's flags mean nothing to the matrix or the negative
        // control: name the first one given rather than ignore it.
        if let Some(flag) = SCHEDULE_ONLY
            .iter()
            .find(|&&flag| args.value(flag).is_some() || args.switch(flag))
        {
            return Err(CliError::Usage(format!(
                "{flag} applies only to --schedule"
            )));
        }

        if args.switch("--naive-demo") {
            eprintln!("running the known-cyclic negative control (expected to fail):");
            let case = naive_torus_demo();
            println!("{}", case_line(&case));
            println!("  violation: {}", case.detail);
            for line in &case.witness {
                println!("  {line}");
            }
            return Ok(ExitCode::from(2));
        }

        eprintln!("verifying the {} matrix on {jobs} thread(s):", kind.name());
        let report = run_matrix_with_options(kind, jobs, |case| eprintln!("  {}", case_line(case)));
        print!("{}", render_text(&report));
        let out_path = args.value("--out").unwrap_or("VERIFY.json");
        std::fs::write(out_path, to_json(&report))
            .map_err(|e| CliError::Input(format!("failed to write {out_path}: {e}")))?;
        eprintln!("wrote {out_path}");
        Ok(if report.violations() > 0 {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        })
    })
}
