#!/usr/bin/env bash
# A/A self-check: runs every workload of BENCHMARK.json in two sets of N runs
# of the same checkout (run k of either set uses seed 2203+k), then prints per
# workload x end-to-end metric the two medians, how much worse the second is
# than the first next to the metric's bound, and each set's spread (distance
# between the quartiles as a share of the median). Exits non-zero if a second
# median is worse than the first by more than its bound, if a spread other
# than setup_s's exceeds its bound, or if a run fails.
#
#   benchmark/aa.sh [N]        N defaults to 10; at least 3
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
runs=${1:-10}
if ((runs < 3)); then
  echo "aa.sh: need at least 3 runs per set" >&2
  exit 2
fi
out=benchmark/out/aa
rm -rf "$out"
mkdir -p "$out"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for set in A B; do
  for ((k = 0; k < runs; k++)); do
    for w in $workloads; do
      echo "set $set run $k: $w" >&2
      # A run with failed ops still prints its result; the report counts it.
      bash benchmark/run.sh --workload "$w" --seed $((2203 + k)) --seconds "$seconds" --trace 0 \
        >"$out/$set-$w-$k.txt" || true
    done
  done
done

python3 - "$out" "$runs" <<'EOF'
import json, statistics, sys

out, runs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
breaches = 0
print(f"{'workload':18} {'metric':17} {'median A':>12} {'median B':>12} {'B worse by':>11} {'bound':>6} {'spread A':>9} {'spread B':>9}")
for w in (w["name"] for w in bench["workloads"]):
    sets = {s: [json.loads(open(f"{out}/{s}-{w}-{k}.txt").read().splitlines()[-1]) for k in range(runs)] for s in "AB"}
    for s, results in sets.items():
        for k, r in enumerate(results):
            if not r["correct"] or r["failed"]:
                print(f"{w}: set {s} run {k} failed {r['failed']} of {r['attempted']} ops")
                breaches += 1
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med, spread = {}, {}
        for s, results in sets.items():
            values = [r["metrics"][name]["value"] for r in results]
            q = statistics.quantiles(values, n=4)
            med[s] = statistics.median(values)
            spread[s] = (q[2] - q[0]) / med[s]
        worse = (med["B"] - med["A"]) / med["A"]
        if m["better"] == "higher":
            worse = -worse
        flag = ""
        if worse > bound or (name != "setup_s" and max(spread.values()) > bound):
            flag = "  BREACH"
            breaches += 1
        elif name != "setup_s" and max(spread.values()) > bound / 3:
            flag = "  spread above a third of the bound"
        print(f"{w:18} {name:17} {med['A']:12.6g} {med['B']:12.6g} {worse:+11.4f} {bound:6.2f} {spread['A']:9.4f} {spread['B']:9.4f}{flag}")
sys.exit(1 if breaches else 0)
EOF
