//! The three examples that take flags keep the exit-status convention of the
//! binaries: `--help` exits 0 with the usage on stdout, an unknown flag or a
//! flag missing its value exits 1 with the usage on stderr, and a routing
//! `fault_regions` cannot run on its topology exits 1 with the typed
//! rejection.
//!
//! The test runs the examples a plain `cargo test` (or `cargo test
//! --workspace`) builds beside it; `cargo test --test examples_cli` alone
//! builds none, so there it fails, and it fails too on an example binary
//! older than a source file it was built from.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The built example `name`. Integration tests run from
/// `target/<profile>/deps`, and `cargo test` builds the package's examples
/// into `target/<profile>/examples` before it runs any test.
fn example(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    let dir = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("target/<profile>/deps")
        .join("examples");
    let path = dir.join(name);
    let modified = |p: &Path| std::fs::metadata(p).and_then(|m| m.modified()).ok();
    let built = modified(&path);
    // Cargo's dep-info file lists every source the example was built from.
    let dep_info = std::fs::read_to_string(dir.join(format!("{name}.d"))).unwrap_or_default();
    let fresh = built.is_some()
        && dep_info.split_once(": ").is_some_and(|(_, sources)| {
            sources
                .replace("\\ ", "\0")
                .split_whitespace()
                .all(|source| modified(source.replace('\0', " ").as_ref()) <= built)
        });
    assert!(
        fresh,
        "{} is missing or older than its sources: run the tests with `cargo test`, which builds it",
        path.display()
    );
    path
}

fn run(name: &str, args: &[&str]) -> Output {
    Command::new(example(name))
        .args(args)
        .output()
        .expect("example starts")
}

#[test]
fn flag_taking_examples_keep_the_exit_status_convention() {
    for name in ["dimensionality_sweep", "fault_regions", "stage_split"] {
        let usage = format!("usage: {name}");
        let out = run(name, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{name}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with(&usage));
        for args in [&["--bogus"][..], &["--routing"]] {
            let out = run(name, args);
            assert_eq!(out.status.code(), Some(1), "{name} {args:?}");
            assert!(String::from_utf8_lossy(&out.stderr).contains(&usage));
            assert!(out.stdout.is_empty(), "{name} {args:?}");
        }
    }
    let out = run(
        "fault_regions",
        &["--topology", "torus:8x2", "--routing", "turnmodel"],
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr)
        .contains("routing 'turn-model' cannot run on 8-ary 2-torus"));
}
