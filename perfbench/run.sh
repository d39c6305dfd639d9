#!/usr/bin/env bash
# Builds the benchmark and the nvpg-serve daemon from source, then runs
# one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from anywhere inside a checkout; build output goes to
# $CARGO_TARGET_DIR (default: .bench_build at the checkout root). Cargo's
# messages go to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates/serve ]; then
    echo "perfbench: run from a checkout of the repository" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p nvpg-serve --bin nvpg-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec env -u NVPG_SIMD "$CARGO_TARGET_DIR/release/nvpg-perfbench" "$@"
