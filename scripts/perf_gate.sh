#!/usr/bin/env bash
# Same-machine performance gate: does CHANGE_DIR run slower than
# PARENT_DIR on this machine?
#
#   scripts/perf_gate.sh PARENT_DIR CHANGE_DIR
#
# Both directories are full checkouts. Each builds its own perfbench
# harness into its .bench_build/. The gate runs 5 pairs of
#   python3 perfbench/run.py --workload all --trace 0
# Pair i uses seed i on both sides. The side that runs first
# alternates from pair to pair, so a slow phase of the host lands
# on both sides.
# Every run lasts BENCHMARK.json's run_seconds per workload, read
# from CHANGE_DIR. The results go to CHANGE_DIR/.bench_build/perf-gate/
# {parent,change}.jsonl, and `run.py compare` judges them.
#
# Exit status: 0 if every run succeeded and compare names no
# REGRESSION; 1 if a run failed (non-zero exit or a workload with
# failed operations) or compare names a REGRESSION; 2 on bad usage.
# The environment (e.g. WLCRC_SIMD) passes through to every run.
set -u

if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
  echo "usage: scripts/perf_gate.sh PARENT_DIR CHANGE_DIR" >&2
  exit 2
fi
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
PAIRS=5

SECONDS_PER_RUN=$(python3 -c '
import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$CHANGE/BENCHMARK.json") || exit 2

OUT="$CHANGE/.bench_build/perf-gate"
rm -rf "$OUT"
mkdir -p "$OUT"
status=0

for seed in $(seq "$PAIRS"); do
  order="parent change"
  [ $((seed % 2)) -eq 0 ] && order="change parent"
  for side in $order; do
    if [ "$side" = parent ]; then dir=$PARENT; else dir=$CHANGE; fi
    echo "== pair $seed/$PAIRS: $side" >&2
    if ! (cd "$dir" && python3 perfbench/run.py --workload all \
            --trace 0 --seed "$seed" --seconds "$SECONDS_PER_RUN" \
            --out "$OUT/$side.jsonl" > "$OUT/$side.$seed.log"); then
      echo "perf_gate: $side run with seed $seed failed" \
           "(see $OUT/$side.$seed.log)" >&2
      status=1
    fi
  done
done

# A run that exits 0 may still have failed operations.
python3 - "$OUT/parent.jsonl" "$OUT/change.jsonl" <<'EOF' || status=1
import json, sys
bad = 0
for path in sys.argv[1:]:
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            res = rec["result"]
            if not res["correct"] or res["failed"]:
                print("perf_gate: %s %s seed %d: correct=%s failed=%d"
                      % (path, rec["workload"], rec["seed"],
                         res["correct"], res["failed"]),
                      file=sys.stderr)
                bad = 1
sys.exit(bad)
EOF

python3 "$CHANGE/perfbench/run.py" compare \
  "$OUT/parent.jsonl" "$OUT/change.jsonl" || status=1
exit "$status"
