#!/usr/bin/env bash
# The command of /BENCHMARK.json: builds swbft-bench from source (into
# $CARGO_TARGET_DIR when set, else benchmark/target) and runs it with the
# arguments given. `--trace 1` selects the build with the `trace` feature; the
# end-to-end runs (`--trace 0`) never compile the traced half, so an engine
# change that breaks the `Traced` wrapper leaves them buildable.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
features=()
previous=""
for argument in "$@"; do
    if [[ "$previous" == "--trace" && "$argument" == "1" ]]; then
        features=(--features trace)
    fi
    previous="$argument"
done
exec cargo run --quiet --release --offline --manifest-path "$here/Cargo.toml" \
    ${features[@]+"${features[@]}"} --bin swbft-bench -- "$@"
