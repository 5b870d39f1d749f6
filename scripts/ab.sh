#!/usr/bin/env bash
# Parent-vs-change evidence on the repo benchmark, the way the driver
# judges a PR: alternating pairs of BENCHMARK.json's command.
#
#   scripts/ab.sh <parent-rev> [RUNS] [WORKLOAD...]      (default: 10, all)
#
# Checks <parent-rev> out into a `git worktree` under ${TMPDIR:-/tmp}
# (removed again on exit), builds parent and change into their own
# CARGO_TARGET_DIRs there, then runs RUNS pairs per workload: both sides
# get the pair's seed (a new one per pair), and which side goes first
# alternates. For every end-to-end metric it prints both medians, how much
# worse the change's is, both quartile spreads (first-to-third-quartile
# distance over the median), the pairs the change won (ties count for
# neither) and the metric's bound. AB_PARENT_DIR=<dir> uses an existing
# checkout of the parent instead of a worktree. VERBOSE=1 also prints every
# run's value. Reads BENCHMARK.json; writes nothing under the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
[[ $# -ge 1 ]] || { sed -n '2,17p' "$0" >&2; exit 2; }
parent_rev=$1
shift

work=$(mktemp -d "${TMPDIR:-/tmp}/gengar-ab.XXXXXX")
parent_dir=${AB_PARENT_DIR:-}
cleanup() {
    [[ -n "${AB_PARENT_DIR:-}" ]] || git worktree remove --force "$work/parent" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT
if [[ -z "$parent_dir" ]]; then
    parent_dir=$work/parent
    git worktree add --detach --quiet "$parent_dir" "$parent_rev"
fi

echo "building parent ($parent_rev) and change" >&2
for side in parent change; do
    dir=$([[ $side == parent ]] && echo "$parent_dir" || pwd)
    CARGO_TARGET_DIR=$work/target-$side cargo build --offline --quiet --release \
        --manifest-path "$dir/benchmark/Cargo.toml"
done

AB_WORK=$work AB_PARENT=$parent_dir python3 - "$@" <<'EOF'
import json, os, statistics, subprocess, sys

runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
manifest = json.load(open("BENCHMARK.json"))
workloads = sys.argv[2:] or [w["name"] for w in manifest["workloads"]]
metrics = manifest["end_to_end"]
dirs = {"parent": os.environ["AB_PARENT"], "change": os.getcwd()}

def run(side, workload, seed):
    cmd = manifest["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(manifest["run_seconds"]), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=f"{os.environ['AB_WORK']}/target-{side}")
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=dirs[side], env=env)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode or not result.get("correct") or result.get("failed"):
        sys.exit(f"{side} {workload} seed {seed}: exit {done.returncode}\n"
                 f"{done.stderr.strip()}\n{lines[-1] if lines else ''}")
    return {name: m["value"] for name, m in result["metrics"].items()}

def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

print(f"{'workload':13}{'metric':14}{'parent':>12}{'change':>12}{'worse':>8}"
      f"{'spread P':>10}{'spread C':>10}{'won':>7}{'bound':>7}")
for workload in workloads:
    pairs = []
    for i in range(runs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: run(side, workload, i + 1) for side in order}
        pairs.append(pair)
        print(f"  {workload} pair {i + 1}/{runs} done", file=sys.stderr)
    for m in metrics:
        p, c = ([pair[side][m["name"]] for pair in pairs] for side in ("parent", "change"))
        sign = 1 if m["better"] == "lower" else -1
        med_p, med_c = statistics.median(p), statistics.median(c)
        worse = (med_c - med_p) / med_p * sign
        won = sum((a - b) * sign > 0 for a, b in zip(p, c))
        over = "  OVER" if worse > m["bound"] else ""
        print(f"{workload:13}{m['name']:14}{med_p:12.4f}{med_c:12.4f}{worse:+8.1%}"
              f"{spread(p):10.1%}{spread(c):10.1%}{won:4d}/{runs:<2d}{m['bound']:7.0%}{over}", flush=True)
        if os.environ.get("VERBOSE"):
            print("    parent:", " ".join(f"{v:.4g}" for v in p),
                  "\n    change:", " ".join(f"{v:.4g}" for v in c))
EOF
