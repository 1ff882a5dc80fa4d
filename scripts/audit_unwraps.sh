#!/usr/bin/env sh
# Panic-discipline audit for the PSI engine core and the matching
# kernels.
#
# crates/core/src hosts the fault-tolerance layer (catch_unwind
# boundaries, retry ladder, failure ledger) and crates/match/src runs
# inside those boundaries, so production code in either must not
# quietly grow new panic sites: every `.unwrap()` / `.expect(` is
# either behind an isolation boundary on purpose or a bug. This script
# counts such calls on non-test, non-comment lines per crate and fails
# when a count rises above that crate's audited baseline.
#
# crates/core/src baseline (4) — each site is deliberate:
#   evaluator.rs  x1: anchor-neighbor edge-label lookup (structural
#                     invariant of the compiled plan)
#   evaluator.rs  x2: partial_cmp sorts in the optimistic ranker —
#                     kept as the realistic NaN panic surface the
#                     isolation layer is exercised against
#   plan.rs       x1: connected-query invariant (validated on parse)
#
# crates/match/src baseline (9) — all structural invariants of parsed,
# connected pivoted queries (panicking here means the query parser is
# broken, and the core's panic isolation turns it into one accounted
# node failure, not an abort):
#   cfl.rs        x2: spanning-tree parent/child edge labels exist
#   cfl.rs        x1: connected query yields a next BFS node
#   common.rs     x1: chosen anchor is a neighbor of the current node
#   graphql.rs    x2: non-empty query / connected-query ordering
#   turboiso.rs   x1: connected query yields a next tree node
#   turboiso.rs   x1: TurboIso⁺ always forces the pivot as start
#   vf2.rs        x1: an unmapped query node exists while depth < n
#
# crates/core/src/engine baseline (0) — the PR-4 layered engine
# (context/training/ladder/exec/service, plus the PR-5 evolve and PR-6
# shard modules) was written panic-free from the start: poisoned locks
# are ridden out explicitly and every fallible path returns through
# the failure ledger. Keep it at zero.
#
# engine/shard.rs additionally gets its own zero-baseline line: the
# scatter-gather layer fans one query out across shard worker pools,
# so a panic there escapes *outside* the per-shard catch_unwind
# boundary and would poison the merge, not one node. The per-file
# check keeps that guarantee from being absorbed into the directory
# total if the directory baseline is ever raised.
#
# crates/signature/src baseline (0) — signature construction and the
# PR-5 incremental maintainer sit under the served-graph update path
# (PsiService::apply_update), where a panic would take down the update
# lock, not one query: batches are validated up front and every
# fallible path returns GraphError. Keep it at zero.
#
# engine/net.rs and engine/proto.rs (PR 7) get their own
# zero-baseline lines for the same reason shard.rs does: the network
# front door runs OUTSIDE every catch_unwind boundary — a panic in the
# accept loop, a connection thread, or the wire parser kills serving
# for every client, not one node. The malformed-protocol corpus test
# (crates/core/tests/net.rs) proves hostile input cannot panic these
# modules; this audit keeps refactors from quietly reintroducing a
# panic site.
#
# signature/store.rs and engine/deploy.rs (PR 8) get per-file
# zero-baseline lines: the pluggable signature store sits under every
# stage-1/2/3 row read and the deploy front door is the one
# constructor every serving topology now routes through — a panic in
# either takes down the whole deployment, not one node.
#
# engine/pool.rs (PR 9) gets a per-file zero-baseline line: the
# shared lazy worker pool is process-global state under every parallel
# driver — a quiet panic site there would strand scatter latches and
# hang every future parallel run, not one node. Poisoned mutexes and
# condvars are ridden out with unwrap_or_else(into_inner), and task
# panics are contained by catch_unwind + the completion latch. Keep it
# at zero.
#
# To change a baseline, fix or document the new site and update the
# BASELINE value below in the same commit.
set -eu

cd "$(dirname "$0")/.."

fail=0

audit_dir() {
    dir="$1"
    baseline="$2"
    total=0
    for f in "$dir"/*.rs; do
        # Test modules sit at the bottom of each file: drop everything
        # from the first `#[cfg(test)]` down, then drop comment-only
        # lines (doc comments included) before counting.
        n=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f" \
            | grep -cE '\.unwrap\(\)|\.expect\(') || n=0
        if [ "$n" -gt 0 ]; then
            echo "  $f: $n"
        fi
        total=$((total + n))
    done
    echo "unwrap/expect in $dir (non-test): $total (baseline $baseline)"
    if [ "$total" -gt "$baseline" ]; then
        echo "audit: new unwrap()/expect() in $dir production code." >&2
        echo "Handle the error instead, or document the site above and" >&2
        echo "raise the baseline in scripts/audit_unwraps.sh in this" >&2
        echo "commit." >&2
        fail=1
    fi
}

audit_file() {
    f="$1"
    baseline="$2"
    n=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f" \
        | grep -cE '\.unwrap\(\)|\.expect\(') || n=0
    echo "unwrap/expect in $f (non-test): $n (baseline $baseline)"
    if [ "$n" -gt "$baseline" ]; then
        echo "audit: new unwrap()/expect() in $f production code." >&2
        echo "Handle the error instead, or document the site and raise" >&2
        echo "the baseline in scripts/audit_unwraps.sh in this commit." >&2
        fail=1
    fi
}

audit_dir crates/core/src 4
audit_dir crates/core/src/engine 0
audit_file crates/core/src/engine/shard.rs 0
audit_file crates/core/src/engine/net.rs 0
audit_file crates/core/src/engine/proto.rs 0
audit_file crates/core/src/engine/deploy.rs 0
audit_file crates/core/src/engine/pool.rs 0
audit_file crates/signature/src/store.rs 0
audit_dir crates/match/src 9
audit_dir crates/signature/src 0

exit "$fail"
