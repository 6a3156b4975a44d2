#!/usr/bin/env bash
# Builds greenfpga-serve and the servebench load generator from the source
# tree in the current directory, then runs the benchmark. Run it from the
# repository root; every argument passes through to the load generator:
#
#   bash servebench/run.sh --workload point_lookups --seed 1 --seconds 10 --trace 0
#   bash servebench/run.sh --workload all --seconds 4
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/server ]]; then
    echo "servebench: run from the repository root (no Cargo.toml or crates/server here)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet --manifest-path Cargo.toml \
    -p gf-server --bin greenfpga-serve >&2
cargo build --offline --release --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" \
    --server "$CARGO_TARGET_DIR/release/greenfpga-serve" "$@"
