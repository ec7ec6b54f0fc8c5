#!/usr/bin/env bash
# Build megasw and the benchmark from source, then run one workload:
#
#   bash megabench/run.sh --workload megapair --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Both builds share $CARGO_TARGET_DIR
# (default: target); run records and traces go to $CARGO_TARGET_DIR/megabench.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates ] || [ ! -d megabench ]; then
    echo "megabench/run.sh: run from the root of a megasw checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin megasw >&2
cargo build --release --offline --quiet --manifest-path megabench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/megabench" \
    --megasw "$CARGO_TARGET_DIR/release/megasw" \
    --out "$CARGO_TARGET_DIR/megabench" "$@"
