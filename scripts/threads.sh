#!/usr/bin/env bash
# Where the host's CPU goes during one run of the repo benchmark, per thread.
#
#   scripts/threads.sh <workload> [seconds]      (default: 21, the driver's)
#
# Runs BENCHMARK.json's command once in the driver's form (seed 1, --trace
# 0), samples /proc/<pid>/task/* at the start and the end of a window of a
# seventh of the run centred on its middle (inside the second of the three
# trials), and prints per thread name: how many threads carry it, CPU % of
# one core, and voluntary / involuntary context switches per second. Each
# server runs one thread, s<id>-loop (RPCs, proxy drains and the epoch);
# the load thread carries the binary's name. Then the whole host's busy
# share over the window, the run's ops_per_s, and the server loops' CPU
# per op in microseconds (divide by the workload's write share for CPU per
# drained record on a writing workload).
# Writes nothing but the build output (CARGO_TARGET_DIR, default target/).
set -euo pipefail
cd "$(dirname "$0")/.."
[[ $# -ge 1 && $# -le 2 ]] || { sed -n '2,16p' "$0" >&2; exit 2; }
workload=$1
seconds=${2:-21}

# Build first, so the run's clock starts with the binary.
cargo build --offline --quiet --release --manifest-path benchmark/Cargo.toml

python3 - "$workload" "$seconds" <<'EOF'
import json, os, subprocess, sys, time
from collections import defaultdict

workload, seconds = sys.argv[1], float(sys.argv[2])
cmd = json.load(open("BENCHMARK.json"))["command"] + [
    "--workload", workload, "--seed", "1", "--seconds", sys.argv[2], "--trace", "0"]
run = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
pid = run.pid
tick = os.sysconf("SC_CLK_TCK")

def sample():
    """tid -> (name, cpu ticks, voluntary, involuntary), plus host busy/total."""
    threads = {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        base = f"/proc/{pid}/task/{tid}"
        try:
            name = open(f"{base}/comm").read().strip()
            stat = open(f"{base}/stat").read()
            status = open(f"{base}/status").read().splitlines()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        ctx = {k: int(v) for k, v in (l.split(":") for l in status if "ctxt_switches" in l)}
        threads[tid] = (name, int(fields[11]) + int(fields[12]),
                        ctx["voluntary_ctxt_switches"], ctx["nonvoluntary_ctxt_switches"])
    cpu = [int(v) for v in open("/proc/stat").readline().split()[1:]]
    return threads, sum(cpu) - cpu[3] - cpu[4], sum(cpu)

# run.sh execs the benchmark binary in place once its build check is done.
while not open(f"/proc/{pid}/comm").read().startswith("gengar-bench"):
    time.sleep(0.05)
time.sleep(0.2)
if run.poll() is not None:
    sys.exit(f"the benchmark exited at once ({run.returncode}): {run.stdout.read().strip()}")
window = seconds / 7
time.sleep(seconds / 2 - window / 2)
t0, (a, busy0, total0) = time.monotonic(), sample()
time.sleep(window)
t1, (b, busy1, total1) = time.monotonic(), sample()
stdout, _ = run.communicate()
dt = t1 - t0

rows = defaultdict(lambda: [0, 0, 0, 0])
for tid, (name, cpu, vol, invol) in b.items():
    if tid in a:
        row = rows[name]
        row[0] += 1
        row[1] += cpu - a[tid][1]
        row[2] += vol - a[tid][2]
        row[3] += invol - a[tid][3]
changed = len(set(a) ^ set(b))
print(f"{'thread':20}{'n':>4}{'cpu %':>9}{'vol cs/s':>12}{'invol cs/s':>12}")
for name, (n, cpu, vol, invol) in sorted(rows.items(), key=lambda r: -r[1][1]):
    print(f"{name:20}{n:4d}{cpu / tick / dt * 100:9.1f}{vol / dt:12.0f}{invol / dt:12.0f}")
print(f"host busy {(busy1 - busy0) / max(total1 - total0, 1):.0%} of {os.cpu_count()} vCPUs "
      f"over {dt:.1f} s" + (f"; {changed} threads came or went" if changed else ""))
lines = stdout.strip().splitlines()
result = json.loads(lines[-1]) if lines else {}
ops = result.get("metrics", {}).get("ops_per_s", {}).get("value")
if not ops:
    sys.exit(f"no ops_per_s in the run's output: {lines[-1] if lines else 'empty'}")
loops = sum(r[1] for name, r in rows.items() if name.endswith("-loop")) / tick / dt
print(f"ops_per_s {ops:.0f}; server loops {loops * 1e6 / ops:.2f} us CPU per op")
EOF
