#!/bin/sh
# Compare one perfbench workload between the src/ of a git revision and
# that of the working tree, in alternating pairs of runs:
#
#     scripts/bench_pairs.sh REV WORKLOAD [PAIRS]     # PAIRS defaults to 10
#
# Both sides run from temporary checkouts built alike: `git archive REV
# src` is unpacked into one, and a copy of the working tree's src/
# (without __pycache__) into the other, each next to copies of this
# working tree's perfbench/ and BENCHMARK.json, so both sides run the same
# benchmark from the same kind of directory.  Pair k runs each side once with
# `--seed k --seconds 20`; odd pairs run REV first, even pairs the working
# tree first.  For every end-to-end metric of BENCHMARK.json the script
# prints each side's median and quartiles, and the number of pairs the
# working tree won (ties count for neither side).  `gain` marks a metric
# whose working tree won at least nine tenths of the pairs with medians
# further apart than REV's interquartile range; `worse` marks a median
# worse than REV's by more than the metric's bound.  Two more rows, read
# from each run's report, give the raw walls behind `op_s.p50` and
# `setup_s`: perfbench normalizes its walls by a reference speed measured
# between ops, which the allocator state an op leaves can move.  The exit
# status is non-zero if a run is not `correct` or has failed ops.  The
# temporary checkouts are removed on exit.
set -eu

usage() {
    echo "usage: $0 REV WORKLOAD [PAIRS]   (PAIRS >= 2, for quartiles)" >&2
    exit 2
}
[ $# -ge 2 ] && [ $# -le 3 ] || usage
rev=$1
workload=$2
pairs=${3:-10}
case $pairs in
    '' | *[!0-9]*) usage ;;
esac
[ "$pairs" -ge 2 ] || usage
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

mkdir -p "$tmp/old" "$tmp/new" "$tmp/runs"
git -C "$root" archive -o "$tmp/src.tar" "$rev" src
tar -x -f "$tmp/src.tar" -C "$tmp/old"
tar -c -f - --exclude=__pycache__ -C "$root" src | tar -x -f - -C "$tmp/new"
for side in old new; do
    cp -R "$root/perfbench" "$root/BENCHMARK.json" "$tmp/$side/"
done

run() {  # run SIDE DIR SEED
    echo "pair $3: $1" >&2
    (cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$3" \
        --seconds 20) > "$tmp/runs/$1-$3.out"
}

k=1
while [ "$k" -le "$pairs" ]; do
    if [ $((k % 2)) -eq 1 ]; then
        run old "$tmp/old" "$k"
        run new "$tmp/new" "$k"
    else
        run new "$tmp/new" "$k"
        run old "$tmp/old" "$k"
    fi
    k=$((k + 1))
done

python3 - "$root/BENCHMARK.json" "$tmp/runs" "$pairs" "$rev" "$workload" \
    "$tmp/old" "$tmp/new" <<'PY'
import json
import statistics
import sys

spec_path, runs, pairs, rev, workload, old_dir, new_dir = sys.argv[1:]
spec = json.load(open(spec_path))
seeds = range(1, int(pairs) + 1)
result = {side: [json.loads(open(f"{runs}/{side}-{k}.out").read().splitlines()[-1])
                 for k in seeds]
          for side in ("old", "new")}
reports = {side: [json.load(open(f"{d}/.bench_out/report-{workload}-seed{k}-trace0.json"))
                  for k in seeds]
           for side, d in (("old", old_dir), ("new", new_dir))}
bad = [f"{side} seed {k}" for side, rs in result.items() for k, r in zip(seeds, rs)
       if not r["correct"] or r["failed"]]


def num(x):
    return f"{x:.0f}" if abs(x) >= 1e4 else f"{x:.4g}"


def row(name, old, new, sign, bound=None):
    (o1, om, o3), (n1, nm, n3) = (statistics.quantiles(v, n=4, method="inclusive")
                                  for v in (old, new))
    wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
    change = (nm - om) / om if om else float("nan")
    flags = []
    if bound is not None and wins >= 0.9 * len(old) and sign * (nm - om) > o3 - o1:
        flags.append("gain")
    if bound is not None and -sign * change > bound:
        flags.append("worse")
    print(f"{name:16} {num(om)} [{num(o1)}, {num(o3)}]".ljust(50)
          + f"{num(nm)} [{num(n1)}, {num(n3)}]".ljust(33)
          + f"{wins:3}/{len(old):<2} {change:+8.1%} {' '.join(flags)}".rstrip())


print(f"{workload}: {rev} (old) against the working tree (new), {pairs} pairs")
print(f"{'metric':16} {'old median [q1, q3]':32} {'new median [q1, q3]':32} "
      f"{'wins':>6} {'change':>8}")
for metric in spec["end_to_end"]:
    name = metric["name"]
    row(name, *([r["metrics"][name]["value"] for r in result[side]]
                for side in ("old", "new")),
        1 if metric["better"] == "higher" else -1, metric["bound"])
row("op_s.p50 raw", *([statistics.median(r["op_walls_s"]["raw"]["timed"]) for r in reports[side]]
                      for side in ("old", "new")), -1)
row("setup_s raw", *([statistics.median(r["setup_samples_s"]["raw"]) for r in reports[side]]
                     for side in ("old", "new")), -1)
if bad:
    print("not correct or with failed ops:", ", ".join(bad))
    sys.exit(1)
PY
