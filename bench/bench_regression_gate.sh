#!/usr/bin/env bash
# CTest-registered throughput regression gate.
#
# Briefly re-runs the recorded bench binaries (bench_update_throughput plus
# bench_sharded_ingest) and fails if any benchmark drops below GATE_FLOOR x
# its recorded "current" items/sec in BENCH_baseline.json. The floor is
# deliberately generous (default 0.25): the gate exists to catch
# order-of-magnitude rot — an accidentally quadratic hot path, a lost fast
# path, a Debug-flag leak into Release — not to police run-to-run or
# machine-to-machine variance.
#
# Exit codes: 0 ok, 1 regression, 77 skip (CTest SKIP_RETURN_CODE) when a
# bench binary, the baseline file, or python3 is unavailable.
#
# Environment knobs:
#   BENCH_GATE_FLOOR      fraction of recorded throughput required (0.25)
#   BENCH_GATE_MIN_TIME   per-benchmark min time for the quick re-run (0.05)
#   BENCH_GATE_SKIP_REGEX benchmarks to record but never gate. Default:
#                         BM_BlockingQueryUnderIngest — a query that
#                         quiesces a live writer is scheduler-bound by
#                         design (that pathology is why snapshot-mode
#                         queries exist), so its throughput swings orders
#                         of magnitude run to run and would only add noise.
set -euo pipefail

usage="usage: bench_regression_gate.sh BASELINE_JSON BENCH_BINARY..."
BASELINE=${1:?$usage}
shift
[ $# -ge 1 ] || { echo "$usage" >&2; exit 2; }
FLOOR=${BENCH_GATE_FLOOR:-0.25}
MIN_TIME=${BENCH_GATE_MIN_TIME:-0.05}
SKIP_REGEX=${BENCH_GATE_SKIP_REGEX:-BM_BlockingQueryUnderIngest}

command -v python3 > /dev/null 2>&1 || { echo "skip: python3 missing"; exit 77; }
[ -f "$BASELINE" ] || { echo "skip: $BASELINE missing"; exit 77; }
for BIN in "$@"; do
  [ -x "$BIN" ] || { echo "skip: $BIN not built"; exit 77; }
done

RUNS=()
cleanup() { rm -f "${RUNS[@]}"; }
trap cleanup EXIT
# Skipped benchmarks are excluded from the re-run itself (negative filter),
# not just from the comparison — no point timing the slowest, scheduler-bound
# benchmark only to discard its number.
FILTER_ARGS=()
if [ -n "$SKIP_REGEX" ]; then
  FILTER_ARGS=(--benchmark_filter="-$SKIP_REGEX")
fi
for BIN in "$@"; do
  TMP=$(mktemp)
  RUNS+=("$TMP")
  "$BIN" --benchmark_min_time="$MIN_TIME" --benchmark_format=json \
         --benchmark_out="$TMP" "${FILTER_ARGS[@]}" > /dev/null
done

python3 - "$BASELINE" "$FLOOR" "$SKIP_REGEX" "${RUNS[@]}" <<'PY'
import json
import re
import sys

baseline_path, floor = sys.argv[1], float(sys.argv[2])
skip_regex = sys.argv[3]
with open(baseline_path) as f:
    recorded = json.load(f).get("current", {})

got = {}
for run_path in sys.argv[4:]:
    with open(run_path) as f:
        run = json.load(f)
    for b in run.get("benchmarks", []):
        got[b["name"]] = b.get("items_per_second")

failures = []
skipped = []
for name, ref in sorted(recorded.items()):
    if skip_regex and re.search(skip_regex, name):
        skipped.append(name)
        continue
    ips = got.get(name)
    if ips is None:
        failures.append(f"{name}: missing from the re-run")
    elif ips < floor * ref:
        failures.append(
            f"{name}: {ips:,.0f} items/s < {floor} x recorded {ref:,.0f}")

for name, ips in sorted(got.items()):
    if ips:
        print(f"  {name}: {ips:,.0f} items/s")
if skipped:
    print("ungated (scheduler-bound, recorded for information only):")
    for name in skipped:
        print("  " + name)
if failures:
    print("bench_regression_gate FAILED:")
    for failure in failures:
        print("  " + failure)
    sys.exit(1)
print(f"bench_regression_gate OK "
      f"({len(recorded) - len(skipped)} benchmarks >= {floor} x recorded)")
PY
