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
#                                  # speedup floors and compare event
#                                  # counts against the committed baseline
#
# --check gates on (a) the fast path handling >= 3x fewer events and
# finishing >= 2x faster than the per-quantum reference on the fig1/fig7
# substrate scenarios, (b) deterministic event counts staying within
# +20% of the committed BENCH_engine.json, (c) grid_scale/fastforward
# simulation outputs matching the committed rows exactly, and (d) the
# fast-forward trajectory cache making the grid-churn sweep >= 5x faster
# while leaving its report digest untouched. Timings vs. the baseline
# are reported but never gated — wall clock is machine-dependent.
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
BASELINE="$PWD/BENCH_engine.json"
OUT="$BASELINE"
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
# the 100k-host churn campaign from ROADMAP item 1).
echo "==> cargo bench -p vgrid-bench --bench grid_scale (quick=$QUICK)"
VGRID_BENCH_JSON="$OUT" VGRID_BENCH_QUICK="$QUICK" \
  cargo bench -q -p vgrid-bench --bench grid_scale

# Analytic fast-forward: the grid-churn sweep with the cross-sweep
# caches off vs on, plus result digests proving the caches are invisible.
echo "==> cargo bench -p vgrid-bench --bench fastforward (quick=$QUICK)"
VGRID_BENCH_JSON="$OUT" VGRID_BENCH_QUICK="$QUICK" \
  cargo bench -q -p vgrid-bench --bench fastforward

# Grid tradeoff figure + the migration-policy sweep rows (Gate 5).
echo "==> cargo bench -p vgrid-bench --bench grid_tradeoff (quick=$QUICK)"
VGRID_BENCH_JSON="$OUT" VGRID_BENCH_QUICK="$QUICK" \
  cargo bench -q -p vgrid-bench --bench grid_tradeoff

if [[ "$MODE" == "write" ]]; then
  echo "bench: wrote $OUT"
  exit 0
fi

python3 - "$OUT" "$BASELINE" <<'PY'
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

# Gate 2: deterministic event counts within +20% of the committed
# baseline (fewer events is always fine; more means lost coalescing).
try:
    _, base_metric = load(sys.argv[2])
except FileNotFoundError:
    base_metric = {}
    print(f"note: no committed {sys.argv[2]}; skipping baseline comparison")
for key, base in sorted(base_metric.items()):
    if key[2] not in ("events_fast", "events_reference"):
        continue
    now = metric.get(key)
    if now is None:
        failures.append(f"{key}: metric missing from this run")
    elif now > base * 1.2:
        failures.append(f"{key}: {now:.0f} events vs baseline {base:.0f} (+20% budget)")
    else:
        print(f"{'/'.join(key)}: {now:.0f} (baseline {base:.0f}) ok")

# Gate 3: grid_scale and fastforward outputs are deterministic
# simulation results, not timings — any committed row this run
# reproduces must match EXACTLY. Rows only the baseline has (e.g.
# --full nightly scenarios compared during a quick run) are skipped;
# the smoke scenario must be present.
smoke = [k for k in metric if k[0] == "grid_scale" and k[1] == "pool_10k"]
if not smoke:
    failures.append("grid_scale/pool_10k: smoke metrics missing from this run")
if not any(k[0] == "grid_scale" for k in base_metric):
    print("note: no grid_scale rows in committed baseline; skipping Gate 3")
for key, base in sorted(base_metric.items()):
    if key[0] not in ("grid_scale", "fastforward"):
        continue
    now = metric.get(key)
    if now is None:
        print(f"{'/'.join(key)}: not exercised in this run (full-only), skipped")
    elif now != base:
        failures.append(f"{key}: {now!r} != committed baseline {base!r}")
    else:
        print(f"{'/'.join(key)}: {now:.0f} exact match ok")

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

# Gate 5: migration-policy sweep rows (grid_tradeoff bench). Like Gate
# 3 these are deterministic simulation outputs: every committed
# grid_migration row must reproduce EXACTLY, rescue must actually win
# at high churn, and the policy must beat the checkpoint-only baseline
# on makespan inflation.
wins = metric.get(("grid_migration", "churn3_policy_full", "rescue_wins"))
if wins is None:
    failures.append("grid_migration: rescue_wins row missing from this run")
elif wins <= 0:
    failures.append(f"grid_migration: rescue_wins={wins:.0f}, expected > 0")
infl_off = metric.get(("grid_migration", "churn3_checkpoint_only", "makespan_inflation"))
infl_full = metric.get(("grid_migration", "churn3_policy_full", "makespan_inflation"))
if infl_off is None or infl_full is None:
    failures.append("grid_migration: makespan_inflation rows missing from this run")
elif not infl_full < infl_off:
    failures.append(
        f"grid_migration: policy inflation {infl_full!r} not below "
        f"checkpoint-only {infl_off!r}"
    )
else:
    print(
        f"grid_migration: inflation {infl_off:.2f} -> {infl_full:.2f}, "
        f"rescue_wins {wins:.0f}"
    )
if not any(k[0] == "grid_migration" for k in base_metric):
    print("note: no grid_migration rows in committed baseline; skipping Gate 5 pin")
for key, base in sorted(base_metric.items()):
    if key[0] != "grid_migration":
        continue
    now = metric.get(key)
    if now is None:
        failures.append(f"{key}: metric missing from this run")
    elif now != base:
        failures.append(f"{key}: {now!r} != committed baseline {base!r}")
    else:
        print(f"{'/'.join(key)}: exact match ok")

if failures:
    print("bench check FAILED:", file=sys.stderr)
    for f in failures:
        print(f"  - {f}", file=sys.stderr)
    sys.exit(1)
print("bench check: OK")
PY
