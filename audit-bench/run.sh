#!/usr/bin/env bash
# Builds the `audit` CLI and the audit-bench harness from source into one
# target directory, then runs the harness with this script's arguments.
# Run from the repository root:
#
#   bash audit-bench/run.sh --workload lemma31-degree-one --seed 1 --seconds 28 --trace 0
#
# CARGO_TARGET_DIR defaults to .bench_build. Build output goes to stderr,
# so the harness's last stdout line is its JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin audit >&2
cargo build --release --offline --quiet --manifest-path audit-bench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/hiding-lcp-audit-bench" "$@"
