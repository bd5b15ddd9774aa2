#!/usr/bin/env bash
# Records one point of the benchmark trajectory. Runs every perfbench
# workload on both manifest sets, untraced (the end-to-end metrics) and
# traced (the per-layer counters), and writes BENCH_<issue>.json next to
# this script: the commit, whether the tree had uncommitted changes, the
# CPU count, and each run's whole result line (its last stdout line).
#
#   bash record_bench.sh <issue>
#
# Sixteen runs of 25 s each plus the first build: about ten minutes.
set -euo pipefail
cd "$(dirname "$0")"
issue="${1:?usage: record_bench.sh <issue>}"
runs="$(mktemp)"
trap 'rm -f "$runs"' EXIT
for workload in stp_seq misdp_seq ug_par serve; do
    for set in 1 2; do
        for trace in 0 1; do
            echo "record_bench: $workload --set $set --trace $trace" >&2
            line="$(bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 25 \
                --trace "$trace" --set "$set" | tail -n 1)"
            printf '%s\t%s\t%s\t%s\n' "$workload" "$set" "$trace" "$line" >>"$runs"
        done
    done
done
dirty=false
git diff --quiet HEAD -- || dirty=true
python3 - "$runs" "BENCH_${issue}.json" "$issue" "$(git rev-parse HEAD)" "$dirty" "$(nproc)" <<'EOF'
import json
import sys

runs_file, out, issue, sha, dirty, nproc = sys.argv[1:]
runs = []
with open(runs_file) as f:
    for row in f:
        workload, set_, trace, line = row.rstrip("\n").split("\t", 3)
        run = {"workload": workload, "set": int(set_), "trace": int(trace)}
        run["result"] = json.loads(line)
        runs.append(run)
doc = {
    "issue": int(issue),
    "sha": sha,
    "dirty": dirty == "true",
    "nproc": int(nproc),
    "seed": 1,
    "seconds": 25,
    "runs": runs,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=1, sort_keys=True)
    f.write("\n")
print(f"record_bench: wrote {out} ({len(runs)} runs)", file=sys.stderr)
EOF
