#!/usr/bin/env bash
# Format, lint and test this package. The root workspace's CI cannot see a
# non-member, so this script is the package's own gate.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo clippy --offline --all-targets --features trace -- -D warnings
cargo test --offline --features trace
