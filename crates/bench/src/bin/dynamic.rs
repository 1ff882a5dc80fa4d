//! Dynamic-graph bench — incremental signature maintenance vs. full
//! rebuilds on an update stream. Writes `BENCH_dynamic.json`.
//!
//! PR 5's evolving-graph claim: serving updates by repairing the
//! signature rows inside the update's `D−1` ball must beat recomputing
//! `matrix_signatures` from scratch after every update — that gap is
//! the entire reason [`IncrementalSignatures`] exists. Two guards, both
//! asserted in-process (tunable via `PSI_DYNAMIC_SLACK`):
//!
//! * **incremental vs rebuild** — a 50k-node graph takes a 200-update
//!   stream (edge inserts with occasional node appends, one batch per
//!   update, exactly how `PsiService::apply_update` receives them).
//!   The incremental arm repairs in place; the rebuild arm re-derives
//!   the full matrix (snapshot + `matrix_signatures`) at evenly spaced
//!   points of the same stream, and the guard compares *per-update*
//!   cost: incremental must be ≥5× cheaper.
//! * **add_node linearity** — the pre-fix maintainer reallocated the
//!   whole `|V|×|L|` matrix per appended node, so an N-node insert
//!   stream cost O(N²·|L|). Appending rows in place is amortized
//!   O(|L|), so doubling the stream should roughly double the time;
//!   the guard asserts the 2N/N total-time ratio stays well under the
//!   4× a quadratic append would show.
//!
//! A correctness pass (bit-exact equality of the incrementally
//! maintained matrix against a from-scratch build of the final graph)
//! runs untimed before any number is reported — a fast wrong matrix
//! prices nothing.
//!
//! [`IncrementalSignatures`]: psi_signature::IncrementalSignatures

use std::fmt::Write as _;

use psi_bench::{slack, time, write_bench_json, ResultTable};
use psi_graph::dynamic::DynamicGraph;
use psi_graph::GraphUpdate;
use psi_signature::{matrix_signatures, IncrementalSignatures};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Timing rounds per arm; the minimum is recorded.
const ROUNDS: usize = 3;
/// Signature propagation depth (the paper's default).
const DEPTH: u32 = 2;
/// Label capacity of the evolving deployment: wide rows make both the
/// repair and the rebuild arm do measurable per-row work.
const CAPACITY: usize = 64;
/// Nodes in the base graph of the stream arm.
const NODES: usize = 50_000;
/// Updates in the stream.
const UPDATES: usize = 200;
/// The rebuild arm re-derives the full matrix at every `REBUILD_EVERY`-th
/// update of the stream (a full 200-rebuild pass would measure the same
/// per-rebuild cost 10× slower); the guard compares per-update averages.
const REBUILD_EVERY: usize = 10;
/// Node count of the smaller add_node linearity stream.
const APPEND_N: usize = 50_000;

/// A 200-update stream over a graph that currently has `nodes` nodes:
/// mostly random edge inserts, with an occasional appended node that
/// later edges may touch.
fn update_stream(nodes: usize, seed: u64) -> Vec<GraphUpdate> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut n = nodes as u32;
    (0..UPDATES)
        .map(|_| {
            if rng.gen_bool(0.1) {
                n += 1;
                GraphUpdate::AddNode { label: rng.gen_range(0..CAPACITY as u16) }
            } else {
                loop {
                    let u = rng.gen_range(0..n);
                    let v = rng.gen_range(0..n);
                    if u != v {
                        break GraphUpdate::AddEdge {
                            u,
                            v,
                            label: rng.gen_range(0..CAPACITY as u16),
                        };
                    }
                }
            }
        })
        .collect()
}

/// Total wall-clock of appending `n` labeled nodes to a small live
/// deployment (min over `ROUNDS`).
fn append_stream_ms(n: usize) -> f64 {
    let g = psi_datasets::generators::erdos_renyi(100, 300, CAPACITY, 3);
    let base = IncrementalSignatures::new(DynamicGraph::from_graph(&g), DEPTH, CAPACITY);
    let mut best = f64::MAX;
    for round in 0..ROUNDS {
        let mut inc = base.clone();
        let (_, t) = time(|| {
            for i in 0..n {
                inc.add_node(((i + round) % CAPACITY) as u16);
            }
        });
        best = best.min(t.as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    let slack = slack("PSI_DYNAMIC_SLACK", 1.0);

    let g = psi_datasets::generators::erdos_renyi(NODES, 200_000, CAPACITY, 11);
    let stream = update_stream(NODES, 0xd15c);
    let (base, t_init) = time(|| {
        IncrementalSignatures::new(DynamicGraph::from_graph(&g), DEPTH, CAPACITY)
    });
    eprintln!(
        "[dynamic] |V|={} |E|={} |L|={CAPACITY} D={DEPTH}, {UPDATES}-update stream, \
         initial build {:.1} ms",
        g.node_count(),
        g.edge_count(),
        t_init.as_secs_f64() * 1e3
    );

    // Untimed correctness pass: after the whole stream, the maintained
    // matrix must equal a from-scratch build of the final graph bit
    // for bit (padding columns beyond the final label space stay 0).
    let mut checked = base.clone();
    let mut rows_repaired = 0usize;
    for u in &stream {
        rows_repaired += checked.apply_batch(std::slice::from_ref(u)).unwrap().rows_repaired;
    }
    let final_graph = checked.graph().snapshot();
    let scratch = matrix_signatures(&final_graph, DEPTH);
    let trimmed = checked.signatures().truncated(scratch.label_count());
    assert_eq!(trimmed.node_count(), scratch.node_count());
    for (i, (a, b)) in trimmed.as_flat().iter().zip(scratch.as_flat()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "incremental matrix diverged from scratch build at entry {i}"
        );
    }

    // Incremental arm: repair after every update, the serving pattern.
    let mut t_inc = f64::MAX;
    for _ in 0..ROUNDS {
        let mut inc = base.clone();
        let (_, t) = time(|| {
            for u in &stream {
                inc.apply_batch(std::slice::from_ref(u)).unwrap();
            }
        });
        t_inc = t_inc.min(t.as_secs_f64() * 1e3);
    }
    let inc_per_update = t_inc / UPDATES as f64;

    // Rebuild arm: apply the same stream to a bare graph and re-derive
    // the full matrix at every REBUILD_EVERY-th update. Applying the
    // edge itself is in both arms; the rebuild (snapshot + full
    // matrix_signatures) is what the incremental repair replaces.
    let rebuilds = UPDATES / REBUILD_EVERY;
    let mut t_rebuild = f64::MAX;
    for _ in 0..ROUNDS {
        let mut dg = DynamicGraph::from_graph(&g);
        let (_, t) = time(|| {
            for (i, u) in stream.iter().enumerate() {
                dg.apply(std::slice::from_ref(u)).unwrap();
                if (i + 1) % REBUILD_EVERY == 0 {
                    std::hint::black_box(matrix_signatures(&dg.snapshot(), DEPTH));
                }
            }
        });
        t_rebuild = t_rebuild.min(t.as_secs_f64() * 1e3);
    }
    let rebuild_per_update = t_rebuild / rebuilds as f64;
    let speedup = rebuild_per_update / inc_per_update.max(1e-9);

    // add_node linearity: double the append stream, compare totals.
    let t_n = append_stream_ms(APPEND_N);
    let t_2n = append_stream_ms(2 * APPEND_N);
    let append_ratio = t_2n / t_n.max(1e-9);

    let mut table = ResultTable::new("dynamic", &["arm", "ms_per_update", "total_ms"]);
    table.row(vec![
        "incremental repair".into(),
        format!("{inc_per_update:.3}"),
        format!("{t_inc:.1}"),
    ]);
    table.row(vec![
        "full rebuild".into(),
        format!("{rebuild_per_update:.3}"),
        format!("{t_rebuild:.1} ({rebuilds} rebuilds)"),
    ]);
    table.finish();
    println!(
        "incremental vs full rebuild: {speedup:.1}x per update \
         ({rows_repaired} rows repaired over {UPDATES} updates)"
    );
    println!(
        "add_node stream: {APPEND_N} appends {t_n:.2} ms, {} appends {t_2n:.2} ms \
         (ratio {append_ratio:.2}, linear ≈ 2)",
        2 * APPEND_N
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"experiment\": \"dynamic serving: incremental signature repair vs full rebuild \
         ({NODES} nodes, {UPDATES}-update stream, best of {ROUNDS} rounds)\",",
    );
    let _ = writeln!(json, "  \"nodes\": {NODES},");
    let _ = writeln!(json, "  \"label_capacity\": {CAPACITY},");
    let _ = writeln!(json, "  \"depth\": {DEPTH},");
    let _ = writeln!(json, "  \"updates\": {UPDATES},");
    let _ = writeln!(json, "  \"rows_repaired\": {rows_repaired},");
    let _ = writeln!(json, "  \"initial_build_ms\": {:.1},", t_init.as_secs_f64() * 1e3);
    let _ = writeln!(json, "  \"incremental_stream_ms\": {t_inc:.2},");
    let _ = writeln!(json, "  \"incremental_ms_per_update\": {inc_per_update:.4},");
    let _ = writeln!(json, "  \"rebuilds_timed\": {rebuilds},");
    let _ = writeln!(json, "  \"rebuild_ms_per_update\": {rebuild_per_update:.4},");
    let _ = writeln!(json, "  \"incremental_speedup\": {speedup:.2},");
    let _ = writeln!(json, "  \"append_n\": {APPEND_N},");
    let _ = writeln!(json, "  \"append_n_ms\": {t_n:.3},");
    let _ = writeln!(json, "  \"append_2n_ms\": {t_2n:.3},");
    let _ = writeln!(json, "  \"append_ratio\": {append_ratio:.3},");
    let _ = writeln!(json, "  \"slack\": {slack}");
    let _ = writeln!(json, "}}");
    write_bench_json("BENCH_dynamic.json", &json);

    // The CI gates: an incremental maintainer within noise of a full
    // rebuild has no reason to exist, and a super-linear append stream
    // means the in-place row growth regressed to reallocation.
    assert!(
        speedup >= 5.0 / slack,
        "incremental repair regressed: only {speedup:.1}x faster than full rebuild \
         (need ≥ {:.1}x)",
        5.0 / slack
    );
    assert!(
        append_ratio <= 2.8 * slack,
        "add_node stream is super-linear: 2N/N time ratio {append_ratio:.2} \
         (linear ≈ 2, cap {:.2})",
        2.8 * slack
    );
    println!("dynamic: incremental ≥{:.1}x rebuild, append linear — PASS", 5.0 / slack);
}
