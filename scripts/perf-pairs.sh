#!/usr/bin/env bash
# Compares this checkout with a base revision through the repository's
# benchmark, on this host.
#
#   scripts/perf-pairs.sh <base-rev>
#   scripts/perf-pairs.sh <base-rev> --workload W [--pairs N] [--seed X]
#
# Builds `mgc-benchmark` from the base revision (extracted into a temporary
# directory) and from this checkout, each into its own benchmark/target. Runs
# K interleaved pairs of `run --seed 0 --seconds S`, the side that runs first
# alternating from pair to pair, and merges each side's per-round samples into
# one result file. Exits with the head binary's `compare base.json head.json`:
# 0 when no row regressed and no workload failed more often, 1 otherwise.
# For each regressed workload it then runs one traced run per side and prints
# the five per-layer metrics that moved most, as "metric: base vs head".
# Before each pair it runs scripts/host-par.rs (compiled once with rustc -O)
# and prints whether two threads ran in parallel on the host just then
# ("host: parallel" or "host: serial"); the serial count goes under the table.
#
# Claim mode (--workload): N interleaved pairs (default 10) of the one-workload
# contract run, `--workload W --seed X --seconds S --trace 0` (default seed 0;
# S is BENCHMARK.json's `run_seconds`), alternating which side runs first. Per
# end-to-end metric it prints each side's median and quartiles and how many
# pairs the head won, then the claim rule's verdict: the head is better in at
# least 9 of every 10 pairs, its median is further from the base's than the
# base's quartiles are apart, and it failed no larger share of its operations.
# Exits 0 once the table is printed. A bad argument exits 2 before any build.
set -euo pipefail

K=3    # pairs
S=5    # seconds each workload measures for, per run
SEED=0
W=""   # the claim mode's workload

usage() {
  echo "usage: $0 <base-rev> [--workload W [--pairs N] [--seed X]]" >&2
  exit 2
}
[ $# -ge 1 ] || usage
base_arg=$1
shift
pairs="" seed=""
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case "$1" in
    --workload) W=$2 ;;
    --pairs) [[ $2 =~ ^[1-9][0-9]*$ ]] || usage; pairs=$2 ;;
    --seed) [[ $2 =~ ^[0-9]+$ ]] || usage; seed=$2 ;;
    *) usage ;;
  esac
  shift 2
done
head=$(git rev-parse --show-toplevel)
if [ -n "$W$pairs$seed" ]; then
  [ -n "$W" ] || usage
  S=$(python3 -c 'import json, sys
contract = json.load(open(sys.argv[1]))
if sys.argv[2] not in [w["name"] for w in contract["workloads"]]:
    sys.exit(1)
print(contract["run_seconds"])' "$head/BENCHMARK.json" "$W") || usage
  K=${pairs:-10} SEED=${seed:-0}
fi
base_rev=$(git -C "$head" rev-parse --verify "$base_arg^{commit}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$head" archive "$base_rev" | tar -x -C "$work/base"

tree() { if [ "$1" = base ]; then echo "$work/base"; else echo "$head"; fi; }
bin() { echo "$(tree "$1")/benchmark/target/release/mgc-benchmark"; }

for side in base head; do
  echo "building $side" >&2
  cargo build --release --offline --quiet \
    --manifest-path "$(tree $side)/benchmark/Cargo.toml" \
    --target-dir "$(tree $side)/benchmark/target"
done

# The host-mode check: a sample taken next to each pair, not a measurement of
# the pair itself.
rustc --edition 2021 -O "$head/scripts/host-par.rs" -o "$work/host-par"
serial=0

# One run of one side: the whole `run`, or in claim mode the one-workload
# contract run, whose last line is the result. Either exits 1 when a check
# failed; that counts in the result's failed share, so only a usage error (2)
# stops the script. `run` writes its result into the tree's own
# benchmark/out, so copy it aside.
run() {
  if [ -n "$W" ]; then
    "$(bin "$1")" --workload "$W" --seed $SEED --seconds $S --trace 0 \
      > "$work/$1-$2.log" || [ $? -eq 1 ]
    tail -n 1 "$work/$1-$2.log" > "$work/$1-$2.json"
    return
  fi
  local out; out="$(tree "$1")/benchmark/out/result.json"
  rm -f "$out"
  "$(bin "$1")" run --seed $SEED --seconds $S > "$work/$1-$2.log" || [ $? -eq 1 ]
  cp "$out" "$work/$1-$2.json"
}

for i in $(seq 1 $K); do
  if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
  mode=$("$work/host-par")
  echo "pair $i/$K: $mode"
  case "$mode" in "host: serial"*) serial=$((serial + 1)) ;; esac
  for side in $order; do
    echo "pair $i/$K: $side" >&2
    run "$side" "$i"
  done
done

if [ -n "$W" ]; then
  echo "a = base ($base_rev), b = head; $K pairs of --workload $W --seed $SEED --seconds $S"
  python3 - "$head/BENCHMARK.json" "$work" "$K" <<'EOF'
import json, statistics, sys
contract, work, pairs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
runs = {side: [json.load(open(f"{work}/{side}-{i}.json")) for i in range(1, pairs + 1)]
        for side in ("base", "head")}
share = {}
for side in ("base", "head"):
    failed = sum(run["failed"] for run in runs[side])
    attempted = sum(run["attempted"] for run in runs[side])
    share[side] = failed / attempted if attempted else 0.0
    print(f"  {side}: {failed} of {attempted} operations failed")
failed_more = share["head"] > share["base"]
if failed_more:
    print("  no claim holds: the head failed a larger share of its operations")
def quartiles(values):
    return values * 3 if len(values) < 2 else statistics.quantiles(values, n=4)
print(f"  {'metric':<16} {'a median':>12} {'a q1..q3':>25} {'b median':>12} {'b q1..q3':>25}"
      "  wins  claim")
for metric in contract["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    a, b = ([run["metrics"][name]["value"] for run in runs[side]] for side in ("base", "head"))
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    gap = (a2 - b2) if lower else (b2 - a2)
    holds = wins * 10 >= 9 * pairs and gap > a3 - a1 and not failed_more
    print(f"  {name:<16} {a2:>12.6g} {f'{a1:.6g}..{a3:.6g}':>25} {b2:>12.6g}"
          f" {f'{b1:.6g}..{b3:.6g}':>25}  {wins:>2}/{pairs}  {'holds' if holds else 'no'}")
EOF
  echo "host-serial pairs: $serial of $K (host-par.rs samples taken next to each pair," \
    "not measurements of the pairs)"
  exit 0
fi

# Per workload and metric: samples concatenated, rounds, attempted and
# failed summed.
for side in base head; do
  python3 - "$work/$side.json" "$work/$side"-[0-9]*.json <<'EOF'
import json, sys
runs = [json.load(open(path)) for path in sys.argv[2:]]
merged = runs[0]
for run in runs[1:]:
    for w in merged["workloads"]:
        other = next((o for o in run["workloads"] if o["name"] == w["name"]), None)
        if other is None:
            continue
        for key in ("rounds", "attempted", "failed", "failures"):
            w[key] += other[key]
        for name, metric in other["metrics"].items():
            w["metrics"].setdefault(name, {"samples": []})["samples"] += metric["samples"]
for w in merged["workloads"]:
    for metric in w["metrics"].values():
        for stale in ("median", "q1", "q3"):
            metric.pop(stale, None)
        metric["n"] = len(metric["samples"])
json.dump(merged, open(sys.argv[1], "w"), indent=1)
EOF
done

echo "a = base ($base_rev), b = head; $K pairs of run --seed $SEED --seconds $S"
status=0
"$(bin head)" compare "$work/base.json" "$work/head.json" | tee "$work/compare.txt" \
  || status=${PIPESTATUS[0]}
echo "host-serial pairs: $serial of $K (host-par.rs samples taken next to each pair," \
  "not measurements of the pairs)"

for workload in $(awk '$NF == "regressed" { print $1 }' "$work/compare.txt" | sort -u); do
  for side in base head; do
    echo "tracing $workload: $side" >&2
    "$(bin "$side")" --workload "$workload" --seed $SEED --seconds $S --trace 1 \
      > "$work/$side-trace.log" || [ $? -eq 1 ]
    tail -n 1 "$work/$side-trace.log" > "$work/$side-trace.json"
  done
  echo "$workload: the five per-layer metrics that moved most"
  python3 - "$work/base-trace.json" "$work/head-trace.json" <<'EOF'
import json, math, sys
base, head = (json.load(open(path))["metrics"] for path in sys.argv[1:])
moves = [(abs(math.log(head[m]["value"] / b["value"])), m) for m, b in base.items()
         if m in head and b["value"] > 0 and head[m]["value"] > 0]
for _, m in sorted(moves, reverse=True)[:5]:
    unit = base[m]["unit"]
    print(f"  {m}: {base[m]['value']:.6g} {unit} vs {head[m]['value']:.6g} {unit}")
EOF
done
exit $status
