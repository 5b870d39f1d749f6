#!/usr/bin/env bash
# Repo-wide hygiene gate: format, lints, tests. Run before every push.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Intra-doc links name items by path; a rename or removal only shows up here.
echo "== cargo doc --workspace -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo test --workspace"
cargo test --workspace -q

# The benchmark package path-depends on the public surface of the core,
# rdma, hybridmem and telemetry crates but sits outside the workspace, so
# an API break there passes everything above and would only show up as a
# failed benchmark run.
echo "== benchmark package (fmt, clippy, tests, smoke run)"
bash benchmark/run.sh check

# Opt-in chaos sweep (ten fixed seeds); slowish, so gated:
#   CHAOS=1 scripts/check.sh
# Includes the replication scenarios: kill-primary-under-load must lose
# no settled write across the failover, kill-backup must leave the
# primary path undisturbed and re-establish a new backup.
if [[ "${CHAOS:-0}" == "1" ]]; then
    echo "== chaos sweep"
    scripts/chaos.sh
fi

# Nothing from here on may touch the committed BENCH_*.json snapshots
# (gate runs once overwrote seven of them): `harness gate` writes no file,
# the trace-schema run reports from a scratch directory, and the checksums
# are compared at the end.
snapshots_before=$(sha256sum BENCH_*.json)

# The ten numeric gates are one table in crates/bench/src/gate.rs, judged
# in-process on the metrics the experiments return; thresholds, retries and
# the reason for each are on its row. `harness -- gate <name>` reruns one.
echo "== numeric gates (harness gate)"
cargo run -p gengar-bench --release --bin harness -- gate

echo "== trace schema gate (E3 --trace-out must be valid Chrome trace JSON)"
trace_dir=$(mktemp -d -t gengar-trace.XXXXXX)
(cd "$trace_dir" && cargo run --manifest-path "$OLDPWD/Cargo.toml" -p gengar-bench --release \
    --bin harness -- e3 --quick --trace-out trace.json >/dev/null)
cargo run -p gengar-bench --release --bin tracecheck -- "$trace_dir/trace.json"
rm -rf "$trace_dir"

echo "== inspect schema gate (gengar-top --once --json must pass inspectcheck)"
inspect_tmp=$(mktemp -t gengar-inspect.XXXXXX)
cargo run -p gengar-bench --release --bin gengar-top -- --once --json >"$inspect_tmp"
cargo run -p gengar-bench --release --bin inspectcheck -- "$inspect_tmp"
rm -f "$inspect_tmp"

if [[ "$(sha256sum BENCH_*.json)" != "$snapshots_before" ]]; then
    echo "a gate modified a committed BENCH_*.json snapshot" >&2
    exit 1
fi

echo "all checks passed"
