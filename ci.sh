#!/usr/bin/env sh
# Tier-1 verification, runnable offline (all dependencies are vendored
# path crates; see [workspace.dependencies] in Cargo.toml).
#
#   ./ci.sh
#
# Mirrors .github/workflows/ci.yml.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo clippy (-D warnings)"
cargo clippy --all-targets --offline -- -D warnings

# Every workspace crate's suites, not just the root package's: the
# differential suites that pin exactness (service, sharded, evolving,
# compact, net, ...) live in crates/*.
echo "==> cargo test --workspace -q"
cargo test --workspace -q --offline

# The fault-injection differential suite is the robustness gate: it
# proves panic isolation, budget-escalation recovery, and worker-death
# requeue keep answers exact. Run it by name so a regression is
# impossible to miss in the log.
echo "==> fault-injection suite"
cargo test -p psi-core --test fault_injection --offline

echo "==> unwrap/expect audit (crates/core/src, crates/core/src/engine, crates/match/src, crates/signature/src)"
sh scripts/audit_unwraps.sh

# The docs are API contract: rustdoc warnings (broken intra-doc links,
# missing docs) fail the build.
echo "==> cargo doc --no-deps (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

# Observability overhead guard: the recorder seam on the clean path
# must stay under 3% (asserted inside the binary; also writes
# BENCH_profile.json with a sample QueryProfile).
echo "==> observability overhead bench (<3%)"
cargo run --release --offline -p psi-bench --bin profile

# Serve throughput guard: the persistent PsiService must stay at least
# as fast as per-query scoped pools on a ≥64-job batch (asserted
# inside the binary with PSI_SERVE_SLACK, default 1.15; also writes
# BENCH_serve.json and cross-checks every service answer against
# sequential runs).
echo "==> serve throughput bench (service >= scoped pools)"
cargo run --release --offline -p psi-bench --bin serve

# Dynamic-graph guard: incremental signature repair must stay ≥5× per
# update over a from-scratch rebuild on a 50k-node/200-update stream,
# and the add_node append stream must stay linear (asserted inside the
# binary with PSI_DYNAMIC_SLACK, default 1.0; also writes
# BENCH_dynamic.json after a bit-exactness check of the maintained
# matrix against a from-scratch build).
echo "==> dynamic-graph bench (incremental >= 5x rebuild, linear append)"
cargo run --release --offline -p psi-bench --bin dynamic

# Shard guard: scatter-gather serving over a 4-shard range cut of a
# 500k-node locality-ordered graph must stay within PSI_SHARD_SLACK
# (default 1.5) of a single-context service with the same total worker
# count, the peak per-shard signature slab must undercut half the full
# matrix, and every merged answer projection must equal the
# single-context one (all asserted inside the binary; also writes
# BENCH_shard.json).
echo "==> shard bench (scatter-gather parity + per-shard slab < 1/2 full)"
cargo run --release --offline -p psi-bench --bin shard

# Front-door latency guard: under 2x-saturation offered load the p99
# latency of ADMITTED jobs must stay within the queue-depth bound the
# admission ladder enforces, every shed response must carry a
# retry_after_ms hint, and a seeded chaos + mid-stream drain run must
# lose zero accepted jobs — every request the server reads gets
# exactly one answer or one structured failure (asserted inside the
# binary with PSI_LATENCY_SLACK, default 3.0; also writes
# BENCH_latency.json).
echo "==> front-door latency bench (bounded p99 under overload, zero loss)"
cargo run --release --offline -p psi-bench --bin latency

# Compact-store guard: on a 5M-node/64-label generated graph the
# quantized u8+bitset signature index must fit in a third of the dense
# f32 matrix, every compact answer projection must equal the dense
# engine's, and the compact query wall must stay within
# PSI_COMPACT_SLACK (default 1.5) of dense (all asserted inside the
# binary; also writes BENCH_compact.json).
echo "==> compact store bench (index <= 1/3 dense, identical answers)"
cargo run --release --offline -p psi-bench --bin compact

# Parallel scaling guard: on the fig9 dense single-label study the
# work-stealing pool (train once, one batched phase-A sweep, warm
# shared worker pool) must beat static chunking (per-chunk retraining)
# by at least 2.0x / PSI_PARALLEL_SLACK at 8 threads (asserted inside
# the binary; also refreshes BENCH_parallel.json). The study also runs
# a 1-thread row, the honest baseline: every row reports
# speedup_vs_1t next to the gated speedup_vs_static, and the JSON's
# host block records the core count that explains it.
echo "==> parallel scaling bench (work stealing >= 2x static at 8 threads)"
PSI_FIG9_SCALING_ONLY=1 cargo run --release --offline -p psi-bench --bin fig9

# Quarantined tests are opted out with #[ignore = "reason"]; listing
# them keeps the quarantine visible in every CI log. (The suite is
# currently quarantine-free — this prints an empty list.)
echo "==> quarantined (ignored) tests"
cargo test -q --offline -- --ignored --list

echo "ci.sh: all green"
