#!/usr/bin/env bash
# The repo benchmark, one command per mode (see README.md beside this file):
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   the driver's form
#   benchmark/run.sh run   <workload|all> [--seed N] [--seconds S]   timed run
#   benchmark/run.sh trace <workload|all> [--seed N] [--seconds S] [--out DIR]
#   benchmark/run.sh check                                           fmt, clippy, tests, smoke
#   benchmark/run.sh manifest                                        prints BENCHMARK.json
#
# Builds the benchmark package (release, offline) into CARGO_TARGET_DIR
# (default: the repository's target/) and runs it from the repository root.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
manifest=benchmark/Cargo.toml
workloads=(read_skew write_stream batch_mix shared_rw)

if [[ "${1:-}" == check ]]; then
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --offline --quiet --manifest-path "$manifest" --all-targets -- -D warnings
    # Release: the smoke run refuses to say anything about a debug build's
    # timing, and busy-wait device models crawl without optimisation.
    cargo test --offline --quiet --release --manifest-path "$manifest"
    exit
fi

cargo build --offline --quiet --release --manifest-path "$manifest"
bin="$CARGO_TARGET_DIR/release/gengar-benchmark"
GENGAR_BENCH_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export GENGAR_BENCH_REV
# Large buffers go back to the OS as soon as they are freed. Left alone,
# glibc raises its mmap threshold as it frees, and peak RSS then depends on
# which trial's devices happened to land in an arena (82 or 153 MiB on
# batch_mix, run to run).
export MALLOC_MMAP_THRESHOLD_="${MALLOC_MMAP_THRESHOLD_:-1048576}"

case "${1:-}" in
run | trace)
    if [[ "${2:-}" == all ]]; then
        # One process per workload: peak RSS is per process.
        for w in "${workloads[@]}"; do
            "$bin" "$1" "$w" "${@:3}"
        done
    else
        "$bin" "$@"
    fi
    ;;
*)
    exec "$bin" "$@"
    ;;
esac
