#!/usr/bin/env bash
# Alternate benchmark runs of two commits on one workload, and keep the
# result file of every run.
#
# usage: scripts/bench_pairs.sh PARENT CHANGE WORKLOAD N [OUT]
#   e.g. scripts/bench_pairs.sh HEAD~1 HEAD sim_cnn 10 BENCH_cnn.json
#
# Each commit is exported with `git archive` into its own directory under
# $BENCH_SCRATCH (default: a new temporary directory), so neither side
# sees the working tree or the other's build. Then N pairs of
#
#   benchmark/run.sh --workload WORKLOAD --seed $SEED --seconds 10 --trace 0
#
# run, SEED defaulting to 11: the parent first in odd pairs, the change
# first in even ones, after both sides are built. Every
# run's benchmark/out/WORKLOAD.json, failed runs included, is appended
# verbatim to OUT (default BENCH_pairs.json at the repository root), a
# JSON array with one object per run:
#
#   {"side": "parent"|"change", "commit", "pair", "seed", "workload",
#    "exit": run.sh's exit status, "result": the file, or null if the run
#    wrote none}
#
# `lt-experiments benchcmp OUT` summarises the record: medians, IQRs,
# pairs won and a sign-test p-value per workload and end-to-end metric.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 PARENT CHANGE WORKLOAD N [OUT]" >&2
    exit 2
fi
parent="$(git rev-parse --verify "$1^{commit}")"
change="$(git rev-parse --verify "$2^{commit}")"
workload="$3" pairs="$4" out="${5:-BENCH_pairs.json}"
seed="${SEED:-11}"
scratch="${BENCH_SCRATCH:-$(mktemp -d)}"

for side in parent change; do
    dir="$scratch/$side"
    # A directory that already holds this commit (from an earlier call with
    # the same $BENCH_SCRATCH) is reused as it is.
    if [ "$(cat "$dir/.commit" 2>/dev/null)" != "${!side}" ]; then
        rm -rf "$dir"
        mkdir -p "$dir"
        git archive "${!side}" | tar -x -C "$dir"
        echo "${!side}" >"$dir/.commit"
    fi
    # run.sh builds before it starts the harness, and the harness stops at
    # once on an unknown flag: this builds the side, so that no measured
    # run follows a build. A failed build shows in the runs that follow.
    bash "$dir/benchmark/run.sh" --build-only >/dev/null 2>&1 || true
done

# Run one side once and append its result to $out.
run() {
    local side="$1" pair="$2" dir="$scratch/$1" status=0
    local result="$dir/benchmark/out/$workload.json"
    rm -f "$result"
    LT_BENCH_COMMIT="${!side}" bash "$dir/benchmark/run.sh" --workload "$workload" \
        --seed "$seed" --seconds 10 --trace 0 || status=$?
    python3 - "$out" "$result" "$side" "${!side}" "$pair" "$seed" "$workload" "$status" <<'PY'
import json, os, sys
out, result, side, commit, pair, seed, workload, status = sys.argv[1:]
runs = json.load(open(out)) if os.path.exists(out) else []
runs.append({
    "side": side,
    "commit": commit,
    "pair": int(pair),
    "seed": int(seed),
    "workload": workload,
    "exit": int(status),
    "result": json.load(open(result)) if os.path.exists(result) else None,
})
with open(out, "w") as f:
    json.dump(runs, f, indent=1)
    f.write("\n")
PY
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$pair"
        run change "$pair"
    else
        run change "$pair"
        run parent "$pair"
    fi
done
echo "$pairs pairs of $workload (seed $seed) appended to $out"
