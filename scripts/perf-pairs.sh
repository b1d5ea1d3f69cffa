#!/usr/bin/env bash
# Compares this checkout with a base revision through the repository's
# benchmark, on this host.
#
#   scripts/perf-pairs.sh <base-rev>
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
set -euo pipefail

K=3    # pairs
S=5    # seconds each workload measures for, per run
SEED=0

if [ $# -ne 1 ]; then
  echo "usage: $0 <base-rev>" >&2
  exit 2
fi
head=$(git rev-parse --show-toplevel)
base_rev=$(git -C "$head" rev-parse --verify "$1^{commit}")
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

# One `run` of one side. It exits 1 when a check failed; `compare` judges
# that through the failed share, so only a usage error (2) stops the script.
# The result file lands in the tree's own benchmark/out, so copy it aside.
run() {
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
