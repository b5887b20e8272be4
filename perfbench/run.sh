#!/usr/bin/env bash
# Builds the shipped binaries (`rtpool-serve`, `fig2`) and the benchmark
# from source, then runs one workload:
#
#   bash perfbench/run.sh --workload serve_open --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default `target`); everything the benchmark writes stays below it.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p rtpool-bench --bin rtpool-serve --bin fig2 >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
