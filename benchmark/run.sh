#!/usr/bin/env bash
# The perf ledger's one command. Builds the harness (and, through its
# path dependencies, the crates it measures) from source, then hands
# every argument to it:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N]            whole ledger -> benchmark/out/results.json
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh manifest              render BENCHMARK.json
#   benchmark/run.sh golden                re-record golden/*.losses
#   benchmark/run.sh test                  the harness's own unit tests
set -euo pipefail

BENCH_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export BENCH_DIR
# Relative target directories (the driver's CARGO_TARGET_DIR=.bench_build)
# are meant relative to the checkout root.
cd "$BENCH_DIR/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

if [ "${1:-}" = "test" ]; then
    exec cargo test --release --offline --quiet --manifest-path "$BENCH_DIR/Cargo.toml"
fi

# Build output goes to stderr: stdout carries the result.
cargo build --release --offline --quiet --manifest-path "$BENCH_DIR/Cargo.toml" 1>&2

mkdir -p "$BENCH_DIR/out"
BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
BENCH_GIT_REV="$(git -C "$BENCH_DIR" rev-parse --short HEAD 2>/dev/null || echo none)"
export BENCH_RUSTC BENCH_GIT_REV

case "$CARGO_TARGET_DIR" in
    /*) BIN="$CARGO_TARGET_DIR/release/zi-benchmark" ;;
    *) BIN="./$CARGO_TARGET_DIR/release/zi-benchmark" ;;
esac
exec "$BIN" "$@"
