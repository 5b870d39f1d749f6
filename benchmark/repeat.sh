#!/usr/bin/env bash
# A/A evidence that the benchmark is steady: two sets of runs of the same
# code, the way the driver checks it.
#
#   benchmark/repeat.sh [RUNS_PER_SET] [WORKLOAD...]     (default: 10, all)
#
# Each set runs BENCHMARK.json's command RUNS_PER_SET times per workload,
# each time with another --seed. For every end-to-end metric it prints the
# two medians, how much worse the second is than the first, each set's
# spread (first-to-third-quartile distance over the median, as
# statistics.quantiles(values, n=4) gives them) and the metric's bound.
# Exits non-zero if a spread (setup_s excepted) or a median difference
# exceeds its bound. VERBOSE=1 also prints every run's value.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec python3 - "$@" <<'EOF'
import json, os, statistics, subprocess, sys

runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
manifest = json.load(open("BENCHMARK.json"))
workloads = sys.argv[2:] or [w["name"] for w in manifest["workloads"]]
metrics = manifest["end_to_end"]

def run(workload, seed):
    cmd = manifest["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(manifest["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}

def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

bad = 0
print(f"{'workload':13}{'metric':14}{'median A':>14}{'median B':>14}{'B worse':>9}{'spread A':>10}{'spread B':>10}{'bound':>7}")
for workload in workloads:
    # Set A takes seeds 1..runs, set B the next ones: never the same inputs twice.
    sets = [[run(workload, s * runs + i + 1) for i in range(runs)] for s in (0, 1)]
    for m in metrics:
        a, b = ([r[m["name"]] for r in s] for s in sets)
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
        spreads = [spread(a), spread(b)]
        over = worse > m["bound"] or (m["name"] != "setup_s" and max(spreads) > m["bound"])
        bad += over
        print(f"{workload:13}{m['name']:14}{med_a:14.4f}{med_b:14.4f}{worse:+9.1%}"
              f"{spreads[0]:10.1%}{spreads[1]:10.1%}{m['bound']:7.0%}{'  OVER' if over else ''}", flush=True)
        if os.environ.get("VERBOSE"):
            print("    A:", " ".join(f"{v:.4g}" for v in a), "\n    B:", " ".join(f"{v:.4g}" for v in b))
sys.exit(1 if bad else 0)
EOF
