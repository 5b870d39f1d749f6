#!/usr/bin/env bash
# Seeded chaos sweep: runs the gengar-core chaos suite once per fixed seed
# and prints each seed's wall time and the sweep's total (the suite is
# built before the first seed, so the times are test time, not build time).
# A failure prints the seed so the run reproduces exactly:
#   CHAOS_SEEDS=<seed> cargo test -p gengar-core --test chaos
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS=(1 2 3 5 8 13 21 42 97 2024)

cargo test -q -p gengar-core --test chaos --no-run

now_ms() { date +%s%3N; }
sweep_start=$(now_ms)
for seed in "${SEEDS[@]}"; do
    echo "== chaos seed $seed"
    seed_start=$(now_ms)
    if ! CHAOS_SEEDS=$seed cargo test -q -p gengar-core --test chaos; then
        echo "chaos suite FAILED at seed $seed" >&2
        echo "reproduce with: CHAOS_SEEDS=$seed cargo test -p gengar-core --test chaos" >&2
        exit 1
    fi
    echo "chaos seed $seed: $(($(now_ms) - seed_start)) ms"
done

echo "chaos sweep passed (${#SEEDS[@]} seeds) in $(($(now_ms) - sweep_start)) ms"
