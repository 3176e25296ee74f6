#!/bin/sh
# Tier-1 gate for this repository. The root workspace has zero external
# dependencies, so everything up to the bench step runs with no network
# access. The bench harness is a separate workspace (crates/bench) whose
# `criterion` dev-dependency needs a reachable crates.io registry; its
# tests run only when resolution succeeds and are skipped gracefully
# offline.
#
# Usage: ./ci.sh
set -eu
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release (offline-capable)"
cargo build --release

echo "==> cargo test -q (every workspace member: units, integration, properties)"
# Includes tests/chaos.rs and tests/config_matrix.rs on their baked-in
# seeds (0xC0FFEE, 0xDEADBEEF, 42).
cargo test -q

echo "==> chaos seed matrix (extra seeds beyond the baked-in trio)"
# Covers every scenario in tests/chaos.rs, including the fragmentation
# run (loss + duplication + reordering over multi-fragment events), and
# the same lossy fragmentation run under all 16 EchoConfig combinations
# in tests/config_matrix.rs.
for s in ${CHAOS_SEEDS:-1 7}; do
    echo "    CHAOS_SEED=$s cargo test -q --test chaos"
    CHAOS_SEED="$s" cargo test -q --test chaos
    echo "    CHAOS_SEED=$s cargo test -q --test config_matrix"
    CHAOS_SEED="$s" cargo test -q --test config_matrix
done

echo "==> examples (offline smoke runs; each asserts its own output)"
for ex in quickstart stats_dump echo_evolution trace_dump failover qos_telemetry self_telemetry vm_dump; do
    echo "    cargo run --release --example $ex"
    cargo run -q --release --example "$ex" >/dev/null
done

echo "==> end-to-end correctness smoke (perfbench, format_churn, 2 s)"
# One writer revision every 8 events keeps Algorithm 2's cold path (match,
# compile, compose) busy; the run exits non-zero on any wrong delivery.
cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload format_churn --seed 1 --seconds 2 --trace 0 >/dev/null

echo "==> end-to-end correctness smoke (perfbench, evolve_large, 2 s)"
# 36 KB ChannelOpenResponse frames through the table-driven CRC, the
# projected decode and the fused Fig. 5 rollback; exits non-zero on any
# wrong delivery.
cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload evolve_large --seed 1 --seconds 2 --trace 0 >/dev/null

echo "==> warm-path bench (smoke mode; writes BENCH_9.json)"
# Fails if the fused warm path is slower than staged; the gate runs
# offline, without the criterion harness.
cargo run -q --release --example fused_bench >/dev/null
cat BENCH_9.json

echo "==> fan-out scaling bench (writes BENCH_6.json)"
# The example measures 1/2/4/8-shard throughput under the wall-clock
# driver and exits non-zero if 4 shards regress below the single-shard
# baseline (and, on >=4-core machines, if they fail to scale >=1.7x).
cargo run -q --release --example fanout_bench >/dev/null
cat BENCH_6.json

echo "==> monitoring overhead bench (writes BENCH_7.json)"
# The same warm workload with the full opt-in monitoring surface (link
# monitors, adaptive watermarks, self-telemetry) on vs off; exits
# non-zero if the monitored system falls below 0.95x bare throughput.
cargo run -q --release --example monitor_bench >/dev/null
cat BENCH_7.json

echo "==> crash-recovery smoke + journaling overhead bench (writes BENCH_8.json)"
# Part 1 replays a deterministic crash-restart conversation (both roles
# die and come back; exactly-once must hold). Part 2 runs the Reliable
# fan-out workload journaled vs bare and exits non-zero if the journaled
# system falls below 0.85x bare throughput.
cargo run -q --release --example crash_recovery >/dev/null
cat BENCH_8.json

echo "==> bench workspace (needs registry access for criterion)"
if (cd crates/bench && cargo metadata --format-version 1 >/dev/null 2>&1); then
    (cd crates/bench && cargo test -q)
else
    echo "    registry unreachable — skipping bench workspace tests"
fi

echo "==> OK"
