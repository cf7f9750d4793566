#!/usr/bin/env bash
# Migration gate (DESIGN.md §16): the fast, always-on slice of the
# migration-policy contract.
#
# Run the grid-migration registry sweep (churn x policy) at smoke
# fidelity; its gating test relations (rescue pays at high churn) are
# asserted by `cargo test`, this run proves the figure path itself stays
# executable and captures the figure for CI artifacts. The pinned
# migration-policy campaign rows (rescue wins, inflation, digests) are
# checked by `tests/sim_output_pins.rs` in the ordinary test suite.
#
# Zero-churn EXPERIMENTS.md byte-identity is verify.sh's
# `experiments_identity` step; the CI migration-gate lane runs both.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

mkdir -p target

echo "==> grid-migration sweep smoke"
cargo run -q --release --bin vgrid -- run grid-migration \
  > target/grid-migration.figure.txt
cat target/grid-migration.figure.txt
echo "migration gate: OK"
