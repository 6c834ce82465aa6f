#!/usr/bin/env bash
# Builds the serving binaries and ktbench from this checkout, then runs
# one measurement:
#
#   bash benchmark/run.sh --workload hit-small --seed 1 --seconds 10 --trace 0
#
# The last line of stdout is the result object; build output and the
# metric table go to stderr. CARGO_TARGET_DIR (default: target) holds
# both builds, so ktbench finds ktiler_serve and ktiler_gateway beside it.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p bench --bin ktiler_serve --bin ktiler_gateway >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ktbench" run "$@"
