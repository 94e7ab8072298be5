//! Every binary keeps the crate's exit-status convention: `--help` exits 0
//! with the usage on stdout; an unknown flag or a flag missing its value
//! exits 1 with the usage on stderr; a routing the requested topology cannot
//! run exits 1 with the typed rejection on stderr and nothing on stdout; only
//! `verify`'s negative control exits 2.

use std::process::{Command, Output};

const BINARIES: [(&str, &str); 4] = [
    ("fig", env!("CARGO_BIN_EXE_fig")),
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("saturation", env!("CARGO_BIN_EXE_saturation")),
    ("verify", env!("CARGO_BIN_EXE_verify")),
];

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .expect("binary starts")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn help_prints_the_usage_on_stdout_and_exits_0() {
    for (name, exe) in BINARIES {
        let out = run(exe, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{name}");
        assert!(
            text(&out.stdout).starts_with(&format!("usage: {name}")),
            "{name}"
        );
        assert!(out.stderr.is_empty(), "{name}");
    }
}

#[test]
fn usage_errors_print_the_usage_on_stderr_and_exit_1() {
    for (name, exe) in BINARIES {
        for (args, message) in [
            (&["--bogus"][..], "unknown argument '--bogus'"),
            (&["--topology"], "--topology needs a value"),
        ] {
            let out = run(exe, args);
            let stderr = text(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} {args:?}: {stderr}");
            assert!(stderr.contains(message), "{name} {args:?}: {stderr}");
            assert!(
                stderr.contains(&format!("usage: {name}")),
                "{name} {args:?}"
            );
            assert!(out.stdout.is_empty(), "{name} {args:?}");
        }
    }
}

#[test]
fn fig_takes_exactly_one_known_figure() {
    for (args, message) in [
        (&[][..], "missing figure (fig3..fig7)"),
        (&["fig8"], "unknown argument 'fig8'"),
        (&["fig3", "fig4"], "unknown argument 'fig4'"),
    ] {
        let out = run(env!("CARGO_BIN_EXE_fig"), args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn a_routing_the_topology_cannot_run_is_rejected_with_exit_1() {
    let rejected = ["--topology", "torus:8x2", "--routing", "turnmodel"];
    for (name, exe) in BINARIES {
        let args: Vec<&str> = match name {
            "fig" => [&["fig3"][..], &rejected].concat(),
            // `verify` reads the two flags for `--schedule`, in its own
            // vocabulary of matrix routing labels.
            "verify" => vec![
                "--schedule",
                "100:node@5",
                "--topology",
                "torus:8x2",
                "--routing",
                "turn-model",
            ],
            _ => rejected.to_vec(),
        };
        let out = run(exe, &args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains("turn-model routing requires open dimensions"),
            "{name}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name}: {}", text(&out.stdout));
    }
}

#[test]
fn only_a_failed_proof_exits_2() {
    let out = run(env!("CARGO_BIN_EXE_verify"), &["--naive-demo"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(text(&out.stdout).contains("cycle of 8 channels"));
}
