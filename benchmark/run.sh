#!/usr/bin/env bash
# Build lt-node and the harness, then run the benchmark.
#
#   benchmark/run.sh [--seed N] [--sets K] [--runs R] [--smoke]
#       the whole suite: every workload untraced, then traced
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run, as the driver starts it; the last line is its result
#   benchmark/run.sh --self-test
#       the harness's own tests
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Absolute, so that cargo, this script and the epoch processes agree.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac
export CARGO_TARGET_DIR
manifest="$here/Cargo.toml"

cargo build --release --offline --quiet --manifest-path "$manifest" -p lt-net --bin lt-node
cargo build --release --offline --quiet --manifest-path "$manifest"
export LT_NODE_BIN="$CARGO_TARGET_DIR/release/lt-node"
if [ -z "${LT_BENCH_COMMIT:-}" ] && commit="$(git -C "$here" rev-parse HEAD 2>/dev/null)"; then
    export LT_BENCH_COMMIT="$commit"
fi

if [ "${1:-}" = "--self-test" ]; then
    exec cargo test --release --offline --manifest-path "$manifest"
fi
exec "$CARGO_TARGET_DIR/release/lt-benchmark" --out "$here/out" "$@"
