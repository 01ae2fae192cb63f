#!/usr/bin/env bash
# Stability check for the ledger benchmark.
#
# Runs two sets of N runs of the same build per workload, alternating which
# set runs first, with seed BASE+i for run i of both sets. Then prints, per
# workload and end-to-end metric, each set's median and quartiles, the
# spread (Q3 - Q1) / median, and whether the sets agree within the bounds of
# BENCHMARK.json: each set's spread is within the bound (setup_s exempt) and
# the second set's median is not worse than the first's by more than it.
# A spread above a third of its bound is flagged as "wide".
#
# Usage: bench/ledger/compare.sh [-n RUNS] [-s SECONDS] [-b SEED_BASE]
#                                [WORKLOAD...]
# Defaults: 5 runs a set, BENCHMARK.json's run_seconds, seeds 101.., every
# workload. Exit status 0 when every workload agrees.
set -euo pipefail
cd "$(dirname "$0")/../.."

runs=5
seconds=""
base=100
while getopts "n:s:b:" opt; do
  case "$opt" in
    n) runs="$OPTARG" ;;
    s) seconds="$OPTARG" ;;
    b) base="$OPTARG" ;;
    *) echo "usage: $0 [-n RUNS] [-s SECONDS] [-b SEED_BASE] [WORKLOAD...]" >&2
       exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [[ -z "$seconds" ]]; then
  seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
fi
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
  workloads=(lake_dense kfk_train serve_mixed serve_wide)
fi

mkdir -p .bench_work
out=$(mktemp -d .bench_work/compare.XXXXXX)
echo "compare: ${runs} runs a set, ${seconds}s each; logs in ${out}"
for workload in "${workloads[@]}"; do
  for ((i = 1; i <= runs; i++)); do
    order=(A B)
    if ((i % 2 == 0)); then order=(B A); fi
    for set in "${order[@]}"; do
      log="${out}/${workload}.${set}.${i}.log"
      if ! python3 bench/ledger/run.py --workload "$workload" \
          --seed $((base + i)) --seconds "$seconds" --trace 0 >"$log" 2>&1; then
        echo "  ${workload} set ${set} run ${i}: FAILED (see ${log})"
      fi
    done
  done
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json
import statistics
import sys

out, workloads = sys.argv[1], sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
metrics = bench["end_to_end"]


def results(workload, run_set):
    rows = []
    i = 1
    while True:
        try:
            lines = open(f"{out}/{workload}.{run_set}.{i}.log").read().splitlines()
        except FileNotFoundError:
            return rows
        try:
            rows.append(json.loads(lines[-1]))
        except (IndexError, ValueError):
            rows.append(None)
        i += 1


agree = True
for workload in workloads:
    sets = {s: results(workload, s) for s in "AB"}
    bad = sum(r is None or not r["correct"] for s in "AB" for r in sets[s])
    print(f"\n{workload}: {len(sets['A'])} + {len(sets['B'])} runs, "
          f"{bad} incorrect or failed")
    if bad:
        agree = False
    print(f"  {'metric':24} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        medians = {}
        for s in "AB":
            values = [r["metrics"][name]["value"] for r in sets[s]
                      if r is not None and name in r["metrics"]]
            if len(values) < 2:
                print(f"  {name:24} {s:3} too few results")
                agree = False
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            medians[s] = median
            spread = (q3 - q1) / median if median else float("inf")
            verdict = "ok"
            if name != "setup_s" and spread > bound:
                verdict = "SPREAD ABOVE BOUND"
                agree = False
            elif name != "setup_s" and spread > bound / 3:
                verdict = "wide (above a third of the bound)"
            print(f"  {name:24} {s:3} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound:6.3f}  {verdict}")
        if len(medians) == 2:
            a, b = medians["A"], medians["B"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = worse <= bound
            agree &= ok
            print(f"  {name:24} B vs A: {100 * worse:+.2f}% worse "
                  f"({'within' if ok else 'OUTSIDE'} the bound)")
print("\ncompare:", "sets agree within every bound" if agree
      else "sets DISAGREE")
sys.exit(0 if agree else 1)
EOF
