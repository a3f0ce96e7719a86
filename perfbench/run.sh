#!/usr/bin/env bash
# Builds the shipped binaries and the benchmark from source, then runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload mine|read|ingest --seed N --seconds S --trace 0|1
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p aa-apps --bin analyze_log --bin serve_areas
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --target-dir "$target"
exec "$target/release/perfbench" --bin-dir "$target/release" "$@"
