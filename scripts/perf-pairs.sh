#!/usr/bin/env bash
# Alternating parent/head runs of one benchmark workload: the procedure of
# the choosing-metrics guide, section 8, as one command.
#
#   scripts/perf-pairs.sh <parent-rev> <workload> [pairs=10] [seconds=20]
#
# Builds <parent-rev> in a git worktree under target/perf-pairs/ (a
# directory given in its place is used as the parent checkout as it is) and
# the working tree as head, then runs
#   benchmark ... run --workload W --trace 0 --seed i --seconds S
# once per side for i = 1..pairs, the side that goes first alternating.
# Prints, per end-to-end metric, both medians with quartiles, head/parent,
# and in how many pairs head read better. Exits non-zero only when a run
# fails or reports a failed operation: the table is evidence, not a gate.
set -euo pipefail

[ $# -ge 2 ] || { sed -n '2,15p' "$0" >&2; exit 2; }
rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-20}
root=$(git rev-parse --show-toplevel)
cd "$root"

if [ -d "$rev" ]; then
    parent=$(cd "$rev" && pwd)
else
    parent=$root/target/perf-pairs/parent
    git worktree remove --force "$parent" 2>/dev/null || true
    git worktree add --force --detach "$parent" "$rev" >&2
fi

build() { # <checkout>: prints the benchmark executable's path
    local lock_clean=0
    git -C "$1" diff --quiet -- benchmark/Cargo.lock 2>/dev/null && lock_clean=1
    (cd "$1" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml) >&2
    # cargo prunes the benchmark's lock file when it builds; put it back.
    [ $lock_clean = 0 ] || git -C "$1" checkout -- benchmark/Cargo.lock
    echo "$1/benchmark/target/release/ca-benchmark"
}
bin_parent=$(build "$parent")
bin_head=$(build "$root")

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
run() { # <side> <binary> <checkout> <seed>
    (cd "$3" && "$2" run --workload "$workload" --seed "$4" --seconds "$seconds" --trace 0) \
        | tail -n 1 >"$out/$1-$4.json"
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) = 1 ]; then
        run parent "$bin_parent" "$parent" "$i"; run head "$bin_head" "$root" "$i"
    else
        run head "$bin_head" "$root" "$i"; run parent "$bin_parent" "$parent" "$i"
    fi
    echo "pair $i/$pairs done" >&2
done

python3 - "$root/BENCHMARK.json" "$out" "$pairs" "$workload" <<'PY'
import json, statistics, sys
spec, out, pairs, workload = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3]), sys.argv[4]
runs = {s: [json.load(open(f"{out}/{s}-{i}.json")) for i in range(1, pairs + 1)] for s in ("parent", "head")}
failed = sum(r["failed"] for rs in runs.values() for r in rs)
def summary(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
print(f"workload {workload}: {pairs} alternating pairs, failed operations: {failed}")
print(f"{'metric':<14}{'better':<8}{'parent median [q1, q3]':<30}{'head median [q1, q3]':<30}{'head/parent':<13}head better")
for m in spec["end_to_end"]:
    p, h = ([r["metrics"][m["name"]]["value"] for r in runs[s]] for s in ("parent", "head"))
    sign = 1 if m["better"] == "higher" else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(p, h))
    ratio = statistics.median(h) / statistics.median(p)
    print(f"{m['name']:<14}{m['better']:<8}{summary(p):<30}{summary(h):<30}{ratio:<13.3f}{wins}/{pairs}")
sys.exit(1 if failed else 0)
PY
