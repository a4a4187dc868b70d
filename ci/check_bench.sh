#!/usr/bin/env bash
# Perf-regression gate: run bench_rollup and bench_heap_sorting in JSON
# mode and compare every named measurement against the committed baseline
# (ci/BENCH_baseline.json).
# A measurement fails the gate when it is BOTH more than TDE_BENCH_TOLERANCE
# slower relatively AND more than TDE_BENCH_MIN_MS slower absolutely — the
# absolute floor keeps sub-millisecond timer noise from failing CI.
#
# Decode gate (check mode): bench_tpch's per-encoding x type decode section
# must show every dictionary.* and uncompressed.* cell within 2x the ns/row
# of frame-of-reference.integer in the same run. A within-run ratio, so it
# holds on any machine and needs no baseline.
#
# Usage: ci/check_bench.sh <build-dir> [--rebaseline]
#
# Knobs (all optional):
#   TDE_BENCH_TOLERANCE  relative slowdown allowed (default: 0.25 = 25%)
#   TDE_BENCH_MIN_MS     absolute slowdown floor in ms (default: 20)
#   TDE_ROLLUP_ROWS      bench table size (default: 1000000 for the gate;
#                        must match the baseline's "rows" or the gate
#                        refuses to compare)
#   TDE_SORT_ROWS        ORDER BY / Top-N table size (default: 1000000;
#                        recorded in the baseline as "sort_rows")
#
# --rebaseline replaces the committed baseline with this run's numbers
# (use after an intentional perf change, on the reference machine).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:?usage: ci/check_bench.sh <build-dir> [--rebaseline]}"
BUILD="$(cd "$BUILD" && pwd)"
MODE="${2:-check}"
BASELINE="$ROOT/ci/BENCH_baseline.json"
ROWS="${TDE_ROLLUP_ROWS:-1000000}"
SORT_ROWS="${TDE_SORT_ROWS:-1000000}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
(cd "$WORK" && TDE_ROLLUP_ROWS="$ROWS" "$BUILD/bench/bench_rollup" --json \
    > bench.out) || { cat "$WORK/bench.out"; exit 1; }
[[ -f "$WORK/BENCH_rollup.json" ]] || {
  echo "bench_rollup wrote no BENCH_rollup.json"; exit 1; }
# The sorting bench's Fig. 6 half replays TPC-H imports; shrink them so
# the gate only pays for the ORDER BY / Top-N measurements.
(cd "$WORK" && TDE_SORT_ROWS="$SORT_ROWS" TDE_SF=0.001 \
    TDE_FLIGHTS_ROWS=1000 "$BUILD/bench/bench_heap_sorting" --json \
    > sortbench.out) || { cat "$WORK/sortbench.out"; exit 1; }
[[ -f "$WORK/BENCH_sorting.json" ]] || {
  echo "bench_heap_sorting wrote no BENCH_sorting.json"; exit 1; }

# One merged doc: measurement names are globally unique across benches.
FRESH="$WORK/BENCH_fresh.json"
python3 - "$WORK/BENCH_rollup.json" "$WORK/BENCH_sorting.json" \
    "$FRESH" <<'EOF'
import json, sys
rollup = json.load(open(sys.argv[1]))
sorting = json.load(open(sys.argv[2]))
doc = {"bench": "gate", "results": rollup["results"] + sorting["results"]}
json.dump(doc, open(sys.argv[3], "w"))
EOF

if [[ "$MODE" == "--rebaseline" ]]; then
  python3 - "$FRESH" "$BASELINE" "$ROWS" "$SORT_ROWS" <<'EOF'
import json, sys
fresh, baseline = sys.argv[1], sys.argv[2]
doc = json.load(open(fresh))
doc["rows"] = int(sys.argv[3])
doc["sort_rows"] = int(sys.argv[4])
json.dump(doc, open(baseline, "w"), indent=1)
open(baseline, "a").write("\n")
print(f"rebaselined {baseline} at rows={doc['rows']} "
      f"sort_rows={doc['sort_rows']} ({len(doc['results'])} measurements)")
EOF
  exit 0
fi

[[ -f "$BASELINE" ]] || {
  echo "no baseline at $BASELINE; run: ci/check_bench.sh $BUILD --rebaseline"
  exit 1
}

# SF 0.02 gives every lineitem column two sealed segments.
(cd "$WORK" && TDE_SF=0.02 "$BUILD/bench/bench_tpch" --json \
    > tpchbench.out) || { cat "$WORK/tpchbench.out"; exit 1; }
[[ -f "$WORK/BENCH_tpch.json" ]] || {
  echo "bench_tpch wrote no BENCH_tpch.json"; exit 1; }
decode_status=0
python3 - "$WORK/BENCH_tpch.json" <<'EOF' || decode_status=$?
import json, sys
doc = json.load(open(sys.argv[1]))
cells = {r["decode"]: r for r in doc["results"] if "decode" in r}
ref = cells.get("frame-of-reference.integer")
if ref is None:
    sys.exit("decode gate: no frame-of-reference.integer cell to compare "
             "against")
limit = 2.0
gated = [n for n in cells if n.startswith(("dictionary.", "uncompressed."))]
if not gated:
    sys.exit("decode gate: no dictionary or uncompressed cell in this run")
failed = []
print(f"{'decode cell':<30}{'ns/row':>9}{'rows':>10}{'vs FoR int':>12}")
for name in sorted(cells):
    r = cells[name]
    ratio = r["ns_per_row"] / ref["ns_per_row"]
    mark = "" if name in gated else "  (not gated)"
    if name in gated and ratio > limit:
        failed.append(f"{name}: {r['ns_per_row']:.2f} ns/row = {ratio:.1f}x "
                      f"frame-of-reference.integer "
                      f"({ref['ns_per_row']:.2f} ns/row), limit {limit:.0f}x")
        mark = "  TOO SLOW"
    print(f"{name:<30}{r['ns_per_row']:>9.2f}{r['rows']:>10}"
          f"{ratio:>11.2f}x{mark}")
if failed:
    print("\ndecode gate FAILED:")
    for f in failed:
        print(f"  {f}")
    sys.exit(1)
print(f"\ndecode gate passed (limit {limit:.0f}x frame-of-reference.integer)\n")
EOF

python3 - "$FRESH" "$BASELINE" "$ROWS" "$SORT_ROWS" <<'EOF'
import json, os, sys
fresh = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
rows = int(sys.argv[3])
sort_rows = int(sys.argv[4])
tol = float(os.environ.get("TDE_BENCH_TOLERANCE", "0.25"))
floor_ms = float(os.environ.get("TDE_BENCH_MIN_MS", "20"))

if base.get("rows") != rows:
    sys.exit(f"baseline was recorded at rows={base.get('rows')}, this run "
             f"used rows={rows}; set TDE_ROLLUP_ROWS to match or rebaseline")
if base.get("sort_rows", sort_rows) != sort_rows:
    sys.exit(f"baseline was recorded at sort_rows={base.get('sort_rows')}, "
             f"this run used sort_rows={sort_rows}; set TDE_SORT_ROWS to "
             "match or rebaseline")

old = {r["name"]: r for r in base["results"]}
new = {r["name"]: r for r in fresh["results"]}
missing = sorted(set(old) - set(new))
if missing:
    sys.exit(f"measurements missing from this run: {missing}")

failed = []
print(f"{'measurement':<28}{'base_ms':>10}{'new_ms':>10}{'delta':>8}")
for name in sorted(old):
    b, n = old[name]["ms"], new[name]["ms"]
    if old[name].get("groups") != new[name].get("groups"):
        failed.append(f"{name}: groups changed "
                      f"{old[name].get('groups')} -> {new[name].get('groups')}"
                      " (bench output drifted; rebaseline deliberately)")
    rel = (n - b) / b if b > 0 else 0.0
    mark = ""
    if n - b > floor_ms and rel > tol:
        failed.append(f"{name}: {b:.1f}ms -> {n:.1f}ms (+{rel:.0%}, "
                      f"tolerance {tol:.0%})")
        mark = "  REGRESSION"
    print(f"{name:<28}{b:>10.1f}{n:>10.1f}{rel:>+8.0%}{mark}")

added = sorted(set(new) - set(old))
if added:
    print(f"note: new measurements not in baseline (rebaseline to gate "
          f"them): {added}")
if failed:
    print("\nperf-regression gate FAILED:")
    for f in failed:
        print(f"  {f}")
    sys.exit(1)
print("\nperf-regression gate passed "
      f"(tolerance {tol:.0%}, floor {floor_ms:.0f}ms)")
EOF
exit "$decode_status"
