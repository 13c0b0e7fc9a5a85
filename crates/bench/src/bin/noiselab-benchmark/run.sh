#!/usr/bin/env bash
# Build the `noiselab` CLI and the benchmark into one target directory,
# then run the benchmark with the given flags. Run from the repository
# root:
#
#   bash crates/bench/src/bin/noiselab-benchmark/run.sh \
#       --workload omp-saturated --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; stdout carries only the benchmark's
# metric lines and its JSON summary. The benchmark finds the CLI next
# to its own executable. It runs as a child, not through `exec`, so
# the peak RSS it reads for its children never includes the build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-target}")"
export CARGO_TARGET_DIR

cargo build --release --offline --quiet --manifest-path Cargo.toml -p noiselab --bin noiselab >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
"$CARGO_TARGET_DIR/release/noiselab-benchmark" "$@"
