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

echo "== pipelining gate (E4P: window 16 must be >= 2x window 1)"
e4p_out=$(cargo run -p gengar-bench --release --bin harness -- e4p --quick --no-telemetry)
echo "$e4p_out" | grep '^E4P '
w1=$(echo "$e4p_out" | sed -n 's/^E4P window=1 read_kops=\([0-9.]*\).*/\1/p')
w16=$(echo "$e4p_out" | sed -n 's/^E4P window=16 read_kops=\([0-9.]*\).*/\1/p')
if [[ -z "$w1" || -z "$w16" ]]; then
    echo "pipelining gate: missing E4P window=1/window=16 lines" >&2
    exit 1
fi
if ! awk -v a="$w16" -v b="$w1" 'BEGIN { exit !(a >= 2 * b) }'; then
    echo "pipelining gate FAILED: window 16 read ${w16} kops/s < 2x window 1 read ${w1} kops/s" >&2
    exit 1
fi
echo "pipelining gate passed: ${w16} >= 2x ${w1} kops/s"

echo "== fan-out gate (E11: batched must be >= 1.5x scalar at 4 servers)"
# Like the tracing-overhead gate below, throughput on a shared host is
# noisy, so the gate retries: a real fan-out regression fails every
# attempt, a scheduler hiccup does not.
fanout_ok=0
for attempt in 1 2 3; do
    e11_out=$(cargo run -p gengar-bench --release --bin harness -- e11 --quick --no-telemetry)
    echo "$e11_out" | grep '^E11 '
    s4=$(echo "$e11_out" | sed -n 's/^E11 servers=4 scalar_kops=\([0-9.]*\).*/\1/p')
    b4=$(echo "$e11_out" | sed -n 's/^E11 servers=4 scalar_kops=[0-9.]* batched_kops=\([0-9.]*\).*/\1/p')
    if [[ -z "$s4" || -z "$b4" ]]; then
        echo "fan-out gate: missing E11 servers=4 line" >&2
        exit 1
    fi
    if awk -v a="$b4" -v b="$s4" 'BEGIN { exit !(a >= 1.5 * b) }'; then
        fanout_ok=1
        break
    fi
    echo "fan-out gate attempt ${attempt}: batched ${b4} < 1.5x scalar ${s4} kops/s, retrying"
done
if [[ "$fanout_ok" != "1" ]]; then
    echo "fan-out gate FAILED: batched ${b4} kops/s < 1.5x scalar ${s4} kops/s at 4 servers" >&2
    exit 1
fi
echo "fan-out gate passed: ${b4} >= 1.5x ${s4} kops/s"

echo "== fairness gate (E12: QoS must restore the victim tail and cap the aggressors)"
# Three conditions on one run: with QoS off the aggressors must actually
# hurt (victim p99 >= 3x solo — otherwise the gate proves nothing), with
# QoS on the victim must recover (p99 <= 2x solo) and aggregate aggressor
# throughput must respect the configured budget (<= 1.5x the cap, the
# slack covering bucket-burst rounding over a short window). Retried like
# the fan-out gate: tail percentiles on a shared host are noisy.
fairness_ok=0
for attempt in 1 2 3; do
    e12_out=$(cargo run -p gengar-bench --release --bin harness -- e12 --quick --no-telemetry)
    echo "$e12_out" | grep '^E12 '
    solo=$(echo "$e12_out" | sed -n 's/^E12 victim_solo_p99_us=\([0-9.]*\).*/\1/p')
    off=$(echo "$e12_out" | sed -n 's/^E12 .*victim_qosoff_p99_us=\([0-9.]*\).*/\1/p')
    on=$(echo "$e12_out" | sed -n 's/^E12 .*victim_qoson_p99_us=\([0-9.]*\).*/\1/p')
    kops=$(echo "$e12_out" | sed -n 's/^E12 .*aggr_qoson_kops=\([0-9.]*\).*/\1/p')
    cap=$(echo "$e12_out" | sed -n 's/^E12 .*aggr_cap_kops=\([0-9.]*\).*/\1/p')
    if [[ -z "$solo" || -z "$off" || -z "$on" || -z "$kops" || -z "$cap" ]]; then
        echo "fairness gate: missing E12 machine line fields" >&2
        exit 1
    fi
    if awk -v solo="$solo" -v off="$off" -v on="$on" -v kops="$kops" -v cap="$cap" \
        'BEGIN { exit !(off >= 3 * solo && on <= 2 * solo && kops > 0 && kops <= 1.5 * cap) }'; then
        fairness_ok=1
        break
    fi
    echo "fairness gate attempt ${attempt}: solo ${solo} off ${off} on ${on} us," \
        "capped ${kops} of ${cap} kops/s — retrying"
done
if [[ "$fairness_ok" != "1" ]]; then
    echo "fairness gate FAILED: solo ${solo} off ${off} on ${on} us, capped ${kops} of ${cap} kops/s" >&2
    exit 1
fi
echo "fairness gate passed: off ${off} >= 3x solo ${solo}, on ${on} <= 2x solo, ${kops} <= 1.5x cap ${cap} kops/s"

echo "== ablation gate (E12A: proxy-only and full must beat the no-mechanism baseline)"
# The stretched time scale makes modelled I/O dominate, so the proxy's
# per-write win shows up as throughput again on fast hosts. Retried like
# the fan-out gate: shared-host throughput is noisy.
ablation_ok=0
for attempt in 1 2 3; do
    e12a_out=$(cargo run -p gengar-bench --release --bin harness -- e12a --quick --no-telemetry)
    echo "$e12a_out" | grep '^E12A '
    neither=$(echo "$e12a_out" | sed -n 's/^E12A config=neither kops=\([0-9.]*\).*/\1/p')
    proxy=$(echo "$e12a_out" | sed -n 's/^E12A config=proxy_only kops=\([0-9.]*\).*/\1/p')
    full=$(echo "$e12a_out" | sed -n 's/^E12A config=full kops=\([0-9.]*\).*/\1/p')
    if [[ -z "$neither" || -z "$proxy" || -z "$full" ]]; then
        echo "ablation gate: missing E12A config lines" >&2
        exit 1
    fi
    if awk -v n="$neither" -v p="$proxy" -v f="$full" \
        'BEGIN { exit !(p >= 1.3 * n && f >= 1.3 * n) }'; then
        ablation_ok=1
        break
    fi
    echo "ablation gate attempt ${attempt}: proxy ${proxy} / full ${full} vs neither ${neither} kops/s, retrying"
done
if [[ "$ablation_ok" != "1" ]]; then
    echo "ablation gate FAILED: proxy ${proxy} or full ${full} < 1.3x neither ${neither} kops/s" >&2
    exit 1
fi
echo "ablation gate passed: proxy ${proxy} and full ${full} >= 1.3x neither ${neither} kops/s"

echo "== replication gate (E13: replicated write <= 2x unreplicated and < nvm-direct)"
# The mirror fan-out rides the same doorbell, so a replicated staged
# write must stay near the unreplicated proxy path and keep its win over
# the direct NVM write. Gated on the 1024 B row; retried for noise. The
# run also hard-asserts zero settled-write loss across a kill-primary
# failover (the experiment aborts on any lost write).
replication_ok=0
for attempt in 1 2 3; do
    e13_out=$(cargo run -p gengar-bench --release --bin harness -- e13 --quick --no-telemetry)
    echo "$e13_out" | grep '^E13 '
    plain=$(echo "$e13_out" | sed -n 's/^E13 size=1024 unreplicated_ns=\([0-9.]*\).*/\1/p')
    mirrored=$(echo "$e13_out" | sed -n 's/^E13 size=1024 .*replicated_ns=\([0-9.]*\) nvmdirect.*/\1/p')
    direct=$(echo "$e13_out" | sed -n 's/^E13 size=1024 .*nvmdirect_ns=\([0-9.]*\).*/\1/p')
    verified=$(echo "$e13_out" | sed -n 's/^E13 recovery_ms=.*settled_verified=\([0-9]*\).*/\1/p')
    if [[ -z "$plain" || -z "$mirrored" || -z "$direct" || -z "$verified" ]]; then
        echo "replication gate: missing E13 machine line fields" >&2
        exit 1
    fi
    if awk -v p="$plain" -v m="$mirrored" -v d="$direct" \
        'BEGIN { exit !(m <= 2 * p && m < d) }'; then
        replication_ok=1
        break
    fi
    echo "replication gate attempt ${attempt}: replicated ${mirrored} vs unreplicated ${plain} / nvm-direct ${direct} ns, retrying"
done
if [[ "$replication_ok" != "1" ]]; then
    echo "replication gate FAILED: replicated ${mirrored} ns > 2x unreplicated ${plain} ns or >= nvm-direct ${direct} ns" >&2
    exit 1
fi
echo "replication gate passed: replicated ${mirrored} <= 2x unreplicated ${plain} ns, < nvm-direct ${direct} ns (settled_verified=${verified})"

echo "== cache hit-ratio gate (E5: zipf-0.99 hit ratio at 1/8 DRAM budget)"
# The adaptive cache (TinyLFU admission + ghost-sized segments + subclass
# frame rounding) holds >= 0.60 on zipf-0.99 with cache DRAM at 1/8 of
# the working set; the pre-adaptive plane ceilinged near 0.58. Full-size
# run (it is ~2 s); retried for scheduler noise.
e5_ok=0
for attempt in 1 2 3; do
    e5_out=$(cargo run -p gengar-bench --release --bin harness -- e5 --no-telemetry)
    echo "$e5_out" | grep '^E5 '
    z99=$(echo "$e5_out" | sed -n 's/^E5 dist=zipf099 hit_ratio=\([0-9.]*\).*/\1/p')
    if [[ -z "$z99" ]]; then
        echo "cache hit-ratio gate: missing E5 dist=zipf099 line" >&2
        exit 1
    fi
    if awk -v z="$z99" 'BEGIN { exit !(z >= 0.60) }'; then
        e5_ok=1
        break
    fi
    echo "cache hit-ratio gate attempt ${attempt}: zipf-0.99 hit ratio ${z99} < 0.60, retrying"
done
if [[ "$e5_ok" != "1" ]]; then
    echo "cache hit-ratio gate FAILED: zipf-0.99 hit ratio ${z99} < 0.60" >&2
    exit 1
fi
echo "cache hit-ratio gate passed: zipf-0.99 hit ratio ${z99} >= 0.60"

echo "== cache size-sweep gate (E6: hit ratio floors at 8% and 64% DRAM)"
# The same zipf-0.99 trace across cache sizes: the curve must clear 0.50
# at an 8% budget and 0.75 at 64% (measured 0.58 / 0.85; the old slab's
# power-of-two frames wasted half the budget and sat near 0.47 / 0.78).
e6_ok=0
for attempt in 1 2 3; do
    e6_out=$(cargo run -p gengar-bench --release --bin harness -- e6 --no-telemetry)
    echo "$e6_out" | grep '^E6 '
    p8=$(echo "$e6_out" | sed -n 's/^E6 pct=8 hit_ratio=\([0-9.]*\).*/\1/p')
    p64=$(echo "$e6_out" | sed -n 's/^E6 pct=64 hit_ratio=\([0-9.]*\).*/\1/p')
    if [[ -z "$p8" || -z "$p64" ]]; then
        echo "cache size-sweep gate: missing E6 pct=8/pct=64 lines" >&2
        exit 1
    fi
    if awk -v a="$p8" -v b="$p64" 'BEGIN { exit !(a >= 0.50 && b >= 0.75) }'; then
        e6_ok=1
        break
    fi
    echo "cache size-sweep gate attempt ${attempt}: pct8 ${p8} / pct64 ${p64}, retrying"
done
if [[ "$e6_ok" != "1" ]]; then
    echo "cache size-sweep gate FAILED: pct8 ${p8} < 0.50 or pct64 ${p64} < 0.75" >&2
    exit 1
fi
echo "cache size-sweep gate passed: pct8 ${p8} >= 0.50, pct64 ${p64} >= 0.75"

echo "== phase-change gate (E14: demote tier must recover via repromotion)"
# Hotspot migrates away and back; the demote arm must (a) actually
# repromote parked frames, (b) recover its steady hit ratio within half a
# phase in both directions, and (c) return to the original hotspot no
# slower than the legacy policy that re-proves heat from a cold miss.
e14_ok=0
for attempt in 1 2 3; do
    e14_out=$(cargo run -p gengar-bench --release --bin harness -- e14 --no-telemetry)
    echo "$e14_out" | grep '^E14 '
    demote_line=$(echo "$e14_out" | grep '^E14 arm=demote ')
    legacy_line=$(echo "$e14_out" | grep '^E14 arm=legacy ')
    reprom=$(echo "$demote_line" | sed -n 's/.*repromotions=\([0-9]*\).*/\1/p')
    d_rec=$(echo "$demote_line" | sed -n 's/.* recovery_ops=\([0-9]*\).*/\1/p')
    d_ret=$(echo "$demote_line" | sed -n 's/.*return_recovery_ops=\([0-9]*\).*/\1/p')
    l_ret=$(echo "$legacy_line" | sed -n 's/.*return_recovery_ops=\([0-9]*\).*/\1/p')
    if [[ -z "$reprom" || -z "$d_rec" || -z "$d_ret" || -z "$l_ret" ]]; then
        echo "phase-change gate: missing E14 arm=demote/arm=legacy fields" >&2
        exit 1
    fi
    if awk -v r="$reprom" -v rec="$d_rec" -v ret="$d_ret" -v lret="$l_ret" \
        'BEGIN { exit !(r >= 1 && rec <= 4000 && ret <= 4000 && ret <= lret) }'; then
        e14_ok=1
        break
    fi
    echo "phase-change gate attempt ${attempt}: repromotions ${reprom}," \
        "recovery ${d_rec}, return ${d_ret} (legacy ${l_ret}) ops — retrying"
done
if [[ "$e14_ok" != "1" ]]; then
    echo "phase-change gate FAILED: repromotions ${reprom}, recovery ${d_rec} ops, return ${d_ret} ops (legacy ${l_ret})" >&2
    exit 1
fi
echo "phase-change gate passed: ${reprom} repromotions, recovery ${d_rec} ops, return ${d_ret} <= legacy ${l_ret} ops"

echo "== trace schema gate (E3 --trace-out must be valid Chrome trace JSON)"
trace_tmp=$(mktemp -t gengar-trace.XXXXXX)
cargo run -p gengar-bench --release --bin harness -- e3 --quick --trace-out "$trace_tmp" >/dev/null
cargo run -p gengar-bench --release --bin tracecheck -- "$trace_tmp"
rm -f "$trace_tmp"

echo "== tracing overhead gate (E4P sampled tracing within 5% of tracing off)"
# Quick-mode throughput on a shared host is noisy (runs span +-15%), so
# the gate compares *paired* back-to-back runs — same thermal/load
# conditions — and passes if any pair shows <= 5% overhead. Real >5%
# tracing overhead would fail every pair.
e4p_kops() {
    cargo run -p gengar-bench --release --bin harness -- \
        e4p --quick --no-telemetry "$@" |
        sed -n 's/^E4P window=16 read_kops=\([0-9.]*\).*/\1/p'
}
overhead_ok=0
for attempt in 1 2 3; do
    off=$(e4p_kops)
    on=$(e4p_kops --trace-out /dev/null)
    echo "pair ${attempt}: tracing off ${off} kops/s, sampled ${on} kops/s"
    if awk -v on="${on:-0}" -v off="${off:-0}" 'BEGIN { exit !(off > 0 && on >= 0.95 * off) }'; then
        overhead_ok=1
        break
    fi
done
if [[ "$overhead_ok" != "1" ]]; then
    echo "tracing overhead gate FAILED: no pair within 5% (last: ${on} vs ${off} kops/s)" >&2
    exit 1
fi
echo "tracing overhead gate passed: sampled ${on} within 5% of off ${off} kops/s"

echo "== inspect schema gate (gengar-top --once --json must pass inspectcheck)"
inspect_tmp=$(mktemp -t gengar-inspect.XXXXXX)
cargo run -p gengar-bench --release --bin gengar-top -- --once --json >"$inspect_tmp"
cargo run -p gengar-bench --release --bin inspectcheck -- "$inspect_tmp"
rm -f "$inspect_tmp"

echo "== health overhead gate (E15: health plane on within 5% of off)"
# E15 runs both arms back-to-back itself (same pairing rationale as the
# tracing gate above), at full scale — quick-mode sections are too short
# for a 5% bound on a shared host. The on-arm ticks at 10ms, ~100x a
# production scrape, so a pass here is a generous upper bound.
e15_ok=0
for attempt in 1 2 3; do
    e15_out=$(cargo run -p gengar-bench --release --bin harness -- e15 --no-telemetry)
    echo "$e15_out" | grep '^E15 '
    hoff=$(echo "$e15_out" | sed -n 's/^E15 health=off read_kops=\([0-9.]*\).*/\1/p')
    hon=$(echo "$e15_out" | sed -n 's/^E15 health=on read_kops=\([0-9.]*\).*/\1/p')
    if [[ -z "$hoff" || -z "$hon" ]]; then
        echo "health overhead gate: missing E15 health=off/health=on lines" >&2
        exit 1
    fi
    if awk -v on="$hon" -v off="$hoff" 'BEGIN { exit !(off > 0 && on >= 0.95 * off) }'; then
        e15_ok=1
        break
    fi
    echo "health overhead gate attempt ${attempt}: on ${hon} < 0.95x off ${hoff} kops/s, retrying"
done
if [[ "$e15_ok" != "1" ]]; then
    echo "health overhead gate FAILED: health on ${hon} kops/s < 0.95x off ${hoff} kops/s" >&2
    exit 1
fi
echo "health overhead gate passed: on ${hon} within 5% of off ${hoff} kops/s"

echo "all checks passed"
