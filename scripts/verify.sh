#!/usr/bin/env bash
# Tier-1 verification: everything here must pass offline, with no
# network access, using only the vendored/in-repo dependencies.
#
#   ./scripts/verify.sh
#
# Runs the same gates as CI: formatting, lints over the whole workspace
# (warnings are errors; the bench crate and the in-repo
# criterion/proptest shims included, though they are outside the
# default members), the determinism lint, the test suite for the
# default workspace members, the simcore tests again in release (the
# tests behind `#[cfg(not(debug_assertions))]`, e.g. the event queues'
# past-schedule clamp, only compile there), a fault-injection smoke
# run, the EXPERIMENTS.md byte-identity check (zero churn must leave
# every figure untouched) and the fig1 run manifest byte-identity check
# against the committed golden.
#
# Each step's wall time is summarized at the end — reported for humans
# and CI logs only, never gated (DESIGN.md §11).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

STEP_NAMES=()
STEP_SECS=()

step() {
  local name="$1"
  shift
  echo "==> $name"
  local t0=$SECONDS
  "$@"
  STEP_NAMES+=("$name")
  STEP_SECS+=($((SECONDS - t0)))
}

experiments_identity() {
  cargo run -q --release --bin vgrid-report -- --paper > target/EXPERIMENTS.regen.md
  cmp EXPERIMENTS.md target/EXPERIMENTS.regen.md
}

metrics_identity() {
  cargo run -q --release --bin vgrid -- run fig1 \
    --metrics-json target/fig1.metrics.json > /dev/null
  cmp tests/golden/fig1.metrics.json target/fig1.metrics.json
}

churn_smoke() {
  cargo run -q --release --bin vgrid -- run grid-churn > /dev/null
}

# Live wire smoke (DESIGN.md §15): served responses must be
# byte-identical to `vgrid campaign --spec` output for the golden
# request fixtures. Shared with CI's dedicated serve-smoke lane.
serve_smoke() {
  ./scripts/serve_smoke.sh
}

# Migration gate (DESIGN.md §16): the grid-migration sweep smoke (the
# pinned migration rows are checked by `cargo test`). Shared with CI's
# dedicated migration-gate lane.
migration_gate() {
  ./scripts/migration_gate.sh
}

step "cargo fmt --check" \
  cargo fmt --all -- --check

step "cargo clippy (whole workspace, -D warnings)" \
  cargo clippy --workspace --all-targets -- -D warnings

step "simlint (determinism + shared-state contracts: exit 0 = clean, 1 = violations)" \
  cargo run -q -p simlint

step "cargo build --workspace (includes bench crate + shims)" \
  cargo build -q --workspace --examples --tests --benches

step "cargo test (default members)" \
  cargo test -q

step "cargo test --release (simcore release-only tests)" \
  cargo test --release -q -p vgrid-simcore

step "grid-churn quick run (fault-injection smoke)" \
  churn_smoke

step "EXPERIMENTS.md byte-identity (zero churn must not move any figure)" \
  experiments_identity

step "fig1 metrics manifest byte-identity (tests/golden/fig1.metrics.json)" \
  metrics_identity

step "serve smoke (live server vs campaign --spec, byte-identical)" \
  serve_smoke

step "migration gate (grid-migration sweep smoke)" \
  migration_gate

echo
echo "step wall times (reported only, never gated):"
for i in "${!STEP_NAMES[@]}"; do
  printf '  %4ds  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
done

echo "verify: OK"
