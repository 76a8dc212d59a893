#!/usr/bin/env bash
# Paired A/B run of one BENCHMARK.json workload: the committed files of a base
# revision against this checkout as it stands (uncommitted edits included).
#
#   scripts/bench-ab.sh BASE WORKLOAD [N=10] [SEED=2203] [SECONDS=25]
#
# The base revision is exported with `git archive` under the git-ignored
# .bench_build/ (nothing is registered in .git, so a killed run leaves only
# files there) and removed on exit. Each of the N pairs runs both sides'
# own `benchmark/run.sh --trace 0` once, alternating which side goes first.
# Prints, per end-to-end metric, both sides' median [q1, q3], the ratio of
# those medians, the median of the per-pair change/base ratios ("paired":
# a pair's two runs are back to back, so this cancels the clock drift between
# sessions that moves both sides alike) and in how many pairs the change read
# better (ties count for neither), over the pairs where both sides printed a
# result. Exits non-zero if an op failed on either side,
# or if a side printed no result (a failed build, a panic): that pair is named
# and counted as failed.
set -euo pipefail
if (($# < 2)); then
  echo "usage: scripts/bench-ab.sh BASE WORKLOAD [N] [SEED] [SECONDS]" >&2
  exit 2
fi
base=$1 workload=$2 pairs=${3:-10} seed=${4:-2203} seconds=${5:-25}
cd "$(dirname "${BASH_SOURCE[0]}")/.."
rev=$(git rev-parse --verify "$base^{commit}")
work="$PWD/.bench_build/ab"
rm -rf "$work"
mkdir -p "$work/base" "$work/out"
trap 'rm -rf "$work/base"' EXIT
git archive "$rev" | tar -x -C "$work/base"

run() { # side k
  local dir=$PWD
  [[ $1 == base ]] && dir="$work/base"
  echo "pair $2: $1" >&2
  # A run with failed ops still prints its result; the report counts it.
  bash "$dir/benchmark/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    >"$work/out/$1-$2.txt" || true
}
for ((k = 0; k < pairs; k++)); do
  if ((k % 2 == 0)); then
    run base "$k" && run change "$k"
  else
    run change "$k" && run base "$k"
  fi
done

python3 - "$work/out" "$pairs" "$workload" "$seed" "$seconds" "$rev" <<'PY'
import json, statistics, sys

out, pairs, workload, seed, seconds, rev = sys.argv[1], int(sys.argv[2]), *sys.argv[3:]
bench = json.load(open("BENCHMARK.json"))


def result(side, k):
    """The run's result line, None when it printed none (or not JSON)."""
    try:
        return json.loads(open(f"{out}/{side}-{k}.txt").read().splitlines()[-1])
    except (IndexError, ValueError):
        return None


runs = {s: [result(s, k) for k in range(pairs)] for s in ("base", "change")}
failed, complete = 0, []
for k in range(pairs):
    bad = []
    for s in ("base", "change"):
        r = runs[s][k]
        if r is None:
            bad.append(f"{s} printed no result")
        elif not r["correct"] or r["failed"]:
            bad.append(f"{s} failed {r['failed']} of {r['attempted']} ops")
    if bad:
        print(f"pair {k} failed: " + "; ".join(bad))
        failed += 1
    if runs["base"][k] is not None and runs["change"][k] is not None:
        complete.append(k)
if not complete:
    print(f"{workload}: no pair printed a result on both sides")
    sys.exit(1)

def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return statistics.median(values), q[0], q[2]

print(f"{workload}, seed {seed}, {seconds} s windows, {len(complete)} of {pairs} alternating pairs, base {rev[:7]}")
print(f"{'metric':17} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34} {'ratio':>7} {'paired':>7} {'wins':>6}")
for m in bench["end_to_end"]:
    name = m["name"]
    b = [runs["base"][k]["metrics"][name]["value"] for k in complete]
    c = [runs["change"][k]["metrics"][name]["value"] for k in complete]
    better = (lambda x, y: x < y) if m["better"] == "lower" else (lambda x, y: x > y)
    wins = sum(better(x, y) for x, y in zip(c, b))
    (bm, b1, b3), (cm, c1, c3) = spread(b), spread(c)
    paired = statistics.median(y / x for x, y in zip(b, c)) if all(b) else float("nan")
    cell = lambda med, q1, q3: f"{med:.6g} [{q1:.6g}, {q3:.6g}]"
    print(f"{name:17} {cell(bm, b1, b3):>34} {cell(cm, c1, c3):>34} {cm / bm:7.3f} {paired:7.3f} {wins:3}/{len(complete)}")
sys.exit(1 if failed else 0)
PY
