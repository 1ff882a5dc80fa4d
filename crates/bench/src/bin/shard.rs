//! Shard bench — a scatter-gather [`PsiService`] of 4 shards vs. a
//! 1-shard one with the same total worker count on a generated
//! 500k-node graph. Writes `BENCH_shard.json`.
//!
//! PR 6's serving claim is about *memory locality*, not raw speed: a
//! range shard only materializes its owned range plus a depth-`D` halo,
//! so each shard's signature slab is a fraction of the full matrix —
//! the property that lets a deployment place shards on machines that
//! cannot hold the whole graph. The bench measures and asserts:
//!
//! * **throughput** — the sharded deployment (S shards × W workers)
//!   must stay within `PSI_SHARD_SLACK` (default 1.5, CI uses 2.0) of
//!   a single-context service with `S × W` workers on the same job
//!   stream. Scatter-gather pays per-shard training and a merge step,
//!   so parity is the bar, not speedup.
//! * **memory** — the *peak per-shard* slab (residents × labels × 4
//!   bytes) must undercut half the full matrix on the 4-shard cut
//!   (owned quarter + halo); the ratio is recorded in the JSON. This
//!   is deterministic, no slack needed. The bench graph is a
//!   locality-ordered ring-with-chords (see [`locality_graph`]) —
//!   range cuts only buy memory when node order has locality.
//! * **correctness** — every sharded answer projection (valid set,
//!   candidate count, unresolved, failure nodes) must equal the
//!   single-context service's. A locality win with wrong answers is
//!   no win.
//!
//! [`PsiService`]: psi_core::PsiService

use std::fmt::Write as _;

use psi_bench::{slack, time, write_bench_json, ResultTable};
use psi_core::obs::Counter;
use psi_core::{DeploymentSpec, PsiResult, RunSpec, SmartPsi, SmartPsiConfig};
use psi_datasets::QueryWorkload;
use psi_graph::{Graph, GraphBuilder};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Timing rounds per arm; the minimum is recorded.
const ROUNDS: usize = 2;
/// Range shards in the sharded arm.
const SHARDS: usize = 4;
/// Workers per shard; the single-context arm gets `SHARDS * WORKERS`.
const WORKERS: usize = 2;
/// Bench graph: 500k nodes, ~1M edges. A wide label alphabet keeps
/// per-query candidate sets (≈ |V| / labels) in the thousands, so the
/// stream is a serving workload rather than one giant scan.
const NODES: usize = 500_000;
const LABELS: u16 = 48;
/// Chord reach of the locality generator, in id distance.
const WINDOW: u32 = 64;

/// A ring with one random short-range chord per node: every edge spans
/// at most [`WINDOW`] ids, so node order has real locality — the
/// regime a range-sharded deployment is built for (graphs renumbered
/// by BFS/community order, road networks, event streams). On an
/// expander like Erdős–Rényi a depth-D halo ball is nearly the whole
/// graph and *no* range cut can be memory-local; that is a property of
/// the ordering, not of the scatter-gather machinery.
fn locality_graph(nodes: usize, labels: u16, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(nodes, nodes * 2);
    for _ in 0..nodes {
        b.add_node(rng.gen_range(0..labels));
    }
    let n = nodes as u32;
    for i in 0..n {
        if i + 1 < n {
            b.add_edge(i, i + 1);
        }
        let j = rng.gen_range(i.saturating_sub(WINDOW)..=(i + WINDOW).min(n - 1));
        if j != i {
            b.add_edge(i, j);
        }
    }
    b.build().expect("valid bench graph")
}

/// The answer-projection two deployments must agree on. Steps and
/// profile counters legitimately differ: each shard trains on its own
/// candidate sample, and training changes cost, never verdicts.
fn projection(r: &PsiResult) -> (Vec<u32>, usize, usize, Vec<u32>) {
    (
        r.valid.clone(),
        r.candidates,
        r.unresolved,
        r.failures.nodes.iter().map(|f| f.node).collect(),
    )
}

fn main() {
    let slack = slack("PSI_SHARD_SLACK", 1.5);

    let (g, t_gen) = time(|| locality_graph(NODES, LABELS, 23));
    let cfg = SmartPsiConfig {
        min_candidates_for_ml: 10,
        ..SmartPsiConfig::default()
    };
    let (smart, t_sigs) = time(|| SmartPsi::new(g, cfg));
    let g = smart.graph();

    let queries = QueryWorkload::extract(g, 4, 8, 501)
        .expect("workload extraction on the bench graph")
        .queries;
    assert!(queries.len() >= 6, "need a real job stream, got {}", queries.len());
    eprintln!(
        "[shard] |V|={} |E|={} labels={} generated in {:.2?}, signatures in {:.2?}, {} jobs",
        g.node_count(),
        g.edge_count(),
        g.label_count(),
        t_gen,
        t_sigs,
        queries.len()
    );

    let (sharded, t_cut) =
        time(|| smart.deploy(&DeploymentSpec::new().shards(SHARDS).workers(WORKERS)));
    let halo = sharded.halo_depth().expect("a sharded deployment has a halo");
    eprintln!("[shard] {SHARDS} shards × {WORKERS} workers cut in {t_cut:.2?}");

    // Peak per-shard slab vs. the full matrix — the locality claim.
    let label_count = g.label_count();
    let full_slab_bytes = g.node_count() * label_count * 4;
    let peak_shard_slab_bytes = (0..SHARDS)
        .map(|s| sharded.resident_nodes(s).len() * label_count * 4)
        .max()
        .unwrap_or(0);
    assert!(
        peak_shard_slab_bytes * 2 < full_slab_bytes,
        "a range shard of a locality-ordered graph must undercut half the full matrix: \
         {peak_shard_slab_bytes} B vs {full_slab_bytes} B"
    );
    let slab_ratio = peak_shard_slab_bytes as f64 / full_slab_bytes as f64;

    let mut t_single = f64::MAX;
    let mut t_sharded = f64::MAX;
    for _ in 0..ROUNDS {
        let (_, t) = time(|| {
            let service = smart.deploy(&DeploymentSpec::new().workers(SHARDS * WORKERS));
            let handles: Vec<_> = queries
                .iter()
                .map(|q| service.submit(q.clone(), RunSpec::new()))
                .collect();
            for h in handles {
                let _ = h.wait();
            }
            drop(service);
        });
        t_single = t_single.min(t.as_secs_f64() * 1e3);

        let (_, t) = time(|| {
            let handles: Vec<_> = queries
                .iter()
                .map(|q| sharded.submit(q.clone(), RunSpec::new()))
                .collect();
            for h in handles {
                let _ = h.wait();
            }
        });
        t_sharded = t_sharded.min(t.as_secs_f64() * 1e3);
    }

    // Untimed differential pass: sharded answers against a
    // single-context service, projection-compared.
    let service = smart.deploy(&DeploymentSpec::new().workers(SHARDS * WORKERS));
    let truth: Vec<_> = queries
        .iter()
        .map(|q| service.submit(q.clone(), RunSpec::new()))
        .collect();
    let merged: Vec<_> = queries
        .iter()
        .map(|q| sharded.submit(q.clone(), RunSpec::new()))
        .collect();
    for (i, (t, m)) in truth.into_iter().zip(merged).enumerate() {
        assert_eq!(
            projection(&t.wait()),
            projection(&m.wait()),
            "sharded answer diverged from single-context on query {i}"
        );
    }
    drop(service);
    let fanout = sharded.metrics().counter(Counter::ShardFanout);

    let ratio = t_sharded / t_single.max(1e-9);
    assert!(
        ratio <= slack,
        "sharded serving fell behind the single-context service: {t_sharded:.1} ms vs \
         {t_single:.1} ms ({ratio:.2}x > slack {slack})"
    );

    let mut table = ResultTable::new("shard", &["arm", "total_ms", "peak_slab_mb"]);
    table.row(vec![
        format!("single ({} workers)", SHARDS * WORKERS),
        format!("{t_single:.1}"),
        format!("{:.1}", full_slab_bytes as f64 / 1e6),
    ]);
    table.row(vec![
        format!("sharded ({SHARDS}x{WORKERS})"),
        format!("{t_sharded:.1}"),
        format!("{:.1}", peak_shard_slab_bytes as f64 / 1e6),
    ]);
    table.finish();
    println!(
        "sharded vs single-context: {ratio:.2}x wall, {:.0}% peak slab, halo depth {}",
        slab_ratio * 100.0,
        halo
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"experiment\": \"sharded scatter-gather vs single-context service \
         ({NODES} nodes, {} jobs, best of {ROUNDS} rounds)\",",
        queries.len()
    );
    let _ = writeln!(json, "  \"shards\": {SHARDS},");
    let _ = writeln!(json, "  \"workers_per_shard\": {WORKERS},");
    let _ = writeln!(json, "  \"halo_depth\": {halo},");
    let _ = writeln!(json, "  \"jobs\": {},", queries.len());
    let _ = writeln!(json, "  \"single_ms\": {t_single:.1},");
    let _ = writeln!(json, "  \"sharded_ms\": {t_sharded:.1},");
    let _ = writeln!(json, "  \"sharded_over_single\": {ratio:.3},");
    let _ = writeln!(json, "  \"shard_fanout\": {fanout},");
    let _ = writeln!(json, "  \"full_slab_bytes\": {full_slab_bytes},");
    let _ = writeln!(json, "  \"peak_shard_slab_bytes\": {peak_shard_slab_bytes},");
    let _ = writeln!(json, "  \"peak_shard_slab_ratio\": {slab_ratio:.3},");
    let _ = writeln!(json, "  \"slack\": {slack}");
    let _ = writeln!(json, "}}");
    write_bench_json("BENCH_shard.json", &json);
}
