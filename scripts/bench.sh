#!/usr/bin/env bash
# Engine benchmark driver: runs the `substrate` criterion bench target
# (event loop, slice coalescing, contention solver, LZMA/FFT kernels)
# and captures machine-readable results in BENCH_engine.json — one JSON
# object per line, written by the in-tree criterion shim when
# VGRID_BENCH_JSON is set.
#
#   ./scripts/bench.sh             # quick run, rewrite BENCH_engine.json
#   ./scripts/bench.sh --full      # full sample counts (slower, steadier)
#   ./scripts/bench.sh --check     # quick run + enforce the coalescing
#                                  # and fast-forward speedup floors
#
# --check gates on (Gate 1) the fast path handling >= 3x fewer events
# and finishing >= 2x faster than the per-quantum reference on the
# fig1/fig7 substrate scenarios, and (Gate 4) the fast-forward
# trajectory cache making the grid-churn sweep >= 5x faster while
# leaving its report digest untouched. Both compare rows of the same
# run. The simulation outputs (event-count budgets, grid digests,
# migration rows) are pinned by `tests/sim_output_pins.rs` in the
# ordinary test suite. Timings are recorded, never compared with the
# committed file — wall clock is machine-dependent.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

MODE="write"
QUICK=1
for arg in "$@"; do
  case "$arg" in
    --check) MODE="check" ;;
    --full) QUICK=0 ;;
    *)
      echo "usage: $0 [--full] [--check]" >&2
      exit 2
      ;;
  esac
done

# cargo bench runs each bench with the crate dir as cwd, so the JSON
# path handed to the shim must be absolute.
OUT="$PWD/BENCH_engine.json"
if [[ "$MODE" == "check" ]]; then
  # A stable path (not mktemp) so CI can upload the candidate as a
  # failure artifact for diffing against the committed baseline.
  mkdir -p target
  OUT="$PWD/target/BENCH_engine.candidate.json"
fi

rm -f "$OUT"
echo "==> cargo bench -p vgrid-bench --bench substrate (quick=$QUICK)"
VGRID_BENCH_JSON="$OUT" VGRID_BENCH_QUICK="$QUICK" \
  cargo bench -q -p vgrid-bench --bench substrate

# Grid scale smoke (10k hosts always; --full adds the 1M-host month and
# the 100k-host churn campaign from ROADMAP item 1, and asserts their
# hydration cap).
echo "==> cargo bench -p vgrid-bench --bench grid_scale (quick=$QUICK)"
VGRID_BENCH_JSON="$OUT" VGRID_BENCH_QUICK="$QUICK" \
  cargo bench -q -p vgrid-bench --bench grid_scale

# Analytic fast-forward: the grid-churn sweep with the cross-sweep
# caches off vs on, plus result digests proving the caches are invisible.
echo "==> cargo bench -p vgrid-bench --bench fastforward (quick=$QUICK)"
VGRID_BENCH_JSON="$OUT" VGRID_BENCH_QUICK="$QUICK" \
  cargo bench -q -p vgrid-bench --bench fastforward

# Grid tradeoff figure.
echo "==> cargo bench -p vgrid-bench --bench grid_tradeoff (quick=$QUICK)"
VGRID_BENCH_JSON="$OUT" VGRID_BENCH_QUICK="$QUICK" \
  cargo bench -q -p vgrid-bench --bench grid_tradeoff

if [[ "$MODE" == "write" ]]; then
  echo "bench: wrote $OUT"
  exit 0
fi

python3 - "$OUT" <<'PY'
import json
import sys

def load(path):
    bench, metric = {}, {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            key = (row["group"], row["id"])
            if row["type"] == "bench":
                bench[key] = row
            elif row["type"] == "metric":
                metric[key + (row["metric"],)] = row["value"]
    return bench, metric

bench, metric = load(sys.argv[1])
failures = []

# Gate 1: coalescing floors on the substrate scenarios (ISSUE acceptance
# criteria: >= 3x fewer events, >= 2x lower wall time).
for fig in ("fig1_substrate", "fig7_substrate"):
    ev_fast = metric[("substrate", fig, "events_fast")]
    ev_ref = metric[("substrate", fig, "events_reference")]
    if ev_fast * 3 > ev_ref:
        failures.append(
            f"{fig}: events_fast={ev_fast:.0f} not >=3x below reference={ev_ref:.0f}"
        )
    wall_fast = bench[("substrate", f"{fig}_fast")]["median_ns"]
    wall_ref = bench[("substrate", f"{fig}_reference")]["median_ns"]
    if wall_fast * 2 > wall_ref:
        failures.append(
            f"{fig}: median {wall_fast:.0f} ns not >=2x below reference {wall_ref:.0f} ns"
        )
    print(
        f"{fig}: events {ev_ref:.0f} -> {ev_fast:.0f} "
        f"({ev_ref / ev_fast:.1f}x), wall {wall_ref / wall_fast:.1f}x"
    )

# Gate 4: analytic fast-forward on the grid-churn sweep. Within this
# run's candidate rows: the warm sweep must be >= 5x faster than the
# cold one, and both digests must agree exactly — the caches may only
# change how fast results appear, never the results.
ff_off = metric.get(("fastforward", "churn_sweep", "digest_off"))
ff_on = metric.get(("fastforward", "churn_sweep", "digest_on"))
if ff_off is None or ff_on is None:
    failures.append("fastforward/churn_sweep: digest rows missing from this run")
elif ff_off != ff_on:
    failures.append(
        f"fastforward/churn_sweep: digest_on={ff_on!r} != digest_off={ff_off!r}"
    )
try:
    wall_off = bench[("fastforward", "churn_sweep_off")]["median_ns"]
    wall_on = bench[("fastforward", "churn_sweep_on")]["median_ns"]
except KeyError:
    failures.append("fastforward/churn_sweep: timing rows missing from this run")
else:
    if wall_on * 5 > wall_off:
        failures.append(
            f"fastforward: warm sweep {wall_on:.0f} ns not >=5x below cold {wall_off:.0f} ns"
        )
    print(
        f"fastforward: churn sweep wall {wall_off / wall_on:.1f}x, "
        f"digests {'match' if ff_off == ff_on else 'DIFFER'}"
    )

if failures:
    print("bench check FAILED:", file=sys.stderr)
    for f in failures:
        print(f"  - {f}", file=sys.stderr)
    sys.exit(1)
print("bench check: OK")
PY
