//! Compact-store bench — quantized [`SigStoreKind::Compact`] index vs.
//! the dense f32 matrix on a generated multi-million-node graph.
//! Writes `BENCH_compact.json`.
//!
//! PR 8's storage claim: on a wide label alphabet the u8-count +
//! presence-bitset store holds the *same* stage-1/2/3 pruning power in
//! a third of the dense matrix's bytes, and — because quantization is
//! monotone and saturation only ever *weakens* the filter — the final
//! valid sets are identical. The bench measures and asserts:
//!
//! * **memory** — `compact_bytes * 3 <= dense_bytes` on the 64-label
//!   bench graph (`|V| * (L + 8·⌈L/64⌉)` vs `|V| * 4L` bytes). This is
//!   deterministic, no slack needed. The ≤1/3 bound is a wide-alphabet
//!   property: a few-label graph pays the fixed 8-byte presence word
//!   per row and only beats dense, not a third of it.
//! * **throughput** — the compact engine's query wall over the job
//!   stream must stay within `PSI_COMPACT_SLACK` (default 1.5, CI uses
//!   2.0) of the dense engine's. Row dequantization costs a multiply
//!   per label, so parity is the bar, not speedup.
//! * **correctness** — every compact answer projection (valid set,
//!   candidate count, unresolved, failure nodes) must equal the dense
//!   engine's. A memory win with wrong answers is no win.
//!
//! `PSI_COMPACT_NODES` overrides the graph size (default 5,000,000)
//! for local smoke runs; the CI gate runs the default.
//!
//! [`SigStoreKind::Compact`]: psi_signature::SigStoreKind::Compact

use std::fmt::Write as _;

use psi_bench::{locality_graph, projection, slack, time, write_bench_json, ResultTable};
use psi_core::{RunSpec, SmartPsi, SmartPsiConfig};
use psi_datasets::QueryWorkload;
use psi_signature::SigStoreKind;

/// Timing rounds per arm; the minimum is recorded.
const ROUNDS: usize = 2;
/// Bench graph: 5M nodes, ~10M edges. A wide alphabet is what the
/// compact store is built for — at 64 labels a row is 64 count bytes
/// plus exactly one presence word, 28% of the 256-byte f32 row — and
/// it keeps per-query candidate sets (≈ |V| / labels) bounded so the
/// stream is a serving workload rather than one giant scan.
const NODES: usize = 5_000_000;
const LABELS: u16 = 64;

fn main() {
    let slack = slack("PSI_COMPACT_SLACK", 1.5);
    let nodes: usize = std::env::var("PSI_COMPACT_NODES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(NODES);

    let (g, t_gen) = time(|| locality_graph(nodes, LABELS, 23));
    let cfg = SmartPsiConfig {
        min_candidates_for_ml: 10,
        ..SmartPsiConfig::default()
    };

    let (dense, t_dense_build) = time(|| SmartPsi::new(g.clone(), cfg.clone()));
    let (compact, t_compact_build) = time(|| {
        SmartPsi::new(
            g,
            SmartPsiConfig {
                sig_store: SigStoreKind::Compact,
                ..cfg
            },
        )
    });
    let g = dense.graph();

    let dense_bytes = dense.signatures().index_bytes();
    let compact_bytes = compact.signatures().index_bytes();
    assert!(
        compact_bytes * 3 <= dense_bytes,
        "the compact index must fit in a third of the dense matrix on a \
         {LABELS}-label graph: {compact_bytes} B vs {dense_bytes} B"
    );
    let bytes_ratio = compact_bytes as f64 / dense_bytes as f64;

    let queries = QueryWorkload::extract(g, 4, 8, 701)
        .expect("workload extraction on the bench graph")
        .queries;
    assert!(queries.len() >= 6, "need a real job stream, got {}", queries.len());
    eprintln!(
        "[compact] |V|={} |E|={} labels={} generated in {:.2?}; dense build {:.2?} \
         ({dense_bytes} B), compact build {:.2?} ({compact_bytes} B, {:.0}%), {} jobs",
        g.node_count(),
        g.edge_count(),
        g.label_count(),
        t_gen,
        t_dense_build,
        t_compact_build,
        bytes_ratio * 100.0,
        queries.len()
    );

    let mut t_dense = f64::MAX;
    let mut t_compact = f64::MAX;
    for _ in 0..ROUNDS {
        let (_, t) = time(|| {
            for q in &queries {
                let _ = dense.run(q, &RunSpec::new());
            }
        });
        t_dense = t_dense.min(t.as_secs_f64() * 1e3);

        let (_, t) = time(|| {
            for q in &queries {
                let _ = compact.run(q, &RunSpec::new());
            }
        });
        t_compact = t_compact.min(t.as_secs_f64() * 1e3);
    }

    // Untimed differential pass: compact answers against dense,
    // projection-compared.
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            projection(&dense.run(q, &RunSpec::new())),
            projection(&compact.run(q, &RunSpec::new())),
            "compact answer diverged from dense on query {i}"
        );
    }

    let ratio = t_compact / t_dense.max(1e-9);
    assert!(
        ratio <= slack,
        "the compact store fell behind the dense matrix: {t_compact:.1} ms vs \
         {t_dense:.1} ms ({ratio:.2}x > slack {slack})"
    );

    let mut table = ResultTable::new("compact", &["arm", "index_mb", "build_ms", "query_ms"]);
    table.row(vec![
        "dense f32".to_string(),
        format!("{:.1}", dense_bytes as f64 / 1e6),
        format!("{:.0}", t_dense_build.as_secs_f64() * 1e3),
        format!("{t_dense:.1}"),
    ]);
    table.row(vec![
        "compact u8+bitset".to_string(),
        format!("{:.1}", compact_bytes as f64 / 1e6),
        format!("{:.0}", t_compact_build.as_secs_f64() * 1e3),
        format!("{t_compact:.1}"),
    ]);
    table.finish();
    println!(
        "compact vs dense: {:.0}% index bytes, {ratio:.2}x query wall, answers identical",
        bytes_ratio * 100.0
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"experiment\": \"quantized compact signature store vs dense f32 matrix \
         ({nodes} nodes, {LABELS} labels, {} jobs, best of {ROUNDS} rounds)\",",
        queries.len()
    );
    let _ = writeln!(json, "  \"nodes\": {nodes},");
    let _ = writeln!(json, "  \"labels\": {LABELS},");
    let _ = writeln!(json, "  \"jobs\": {},", queries.len());
    let _ = writeln!(json, "  \"dense_index_bytes\": {dense_bytes},");
    let _ = writeln!(json, "  \"compact_index_bytes\": {compact_bytes},");
    let _ = writeln!(json, "  \"compact_over_dense_bytes\": {bytes_ratio:.3},");
    let _ = writeln!(json, "  \"dense_build_ms\": {:.1},", t_dense_build.as_secs_f64() * 1e3);
    let _ = writeln!(
        json,
        "  \"compact_build_ms\": {:.1},",
        t_compact_build.as_secs_f64() * 1e3
    );
    let _ = writeln!(json, "  \"dense_query_ms\": {t_dense:.1},");
    let _ = writeln!(json, "  \"compact_query_ms\": {t_compact:.1},");
    let _ = writeln!(json, "  \"compact_over_dense_wall\": {ratio:.3},");
    let _ = writeln!(json, "  \"answers_identical\": true,");
    let _ = writeln!(json, "  \"slack\": {slack}");
    let _ = writeln!(json, "}}");
    write_bench_json("BENCH_compact.json", &json);
}
