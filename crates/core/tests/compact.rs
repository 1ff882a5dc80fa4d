//! Differential tests for the quantized compact signature store: a
//! deployment on [`SigStoreKind::Compact`] must answer every PSI query
//! with exactly the same valid set as the paper's dense f32 backend.
//!
//! Two regimes are exercised:
//!
//! * **Lossless** — when every depth-D signature weight stays below
//!   the u8 cap, quantization at scale `2^D` is exact (depth-D weights
//!   live on the `2^-D` grid), so dequantized rows, scores, features,
//!   and cache keys all match dense bit-for-bit and the entire
//!   [`PsiResult`] is identical.
//! * **Saturated** — a hub-heavy graph clips counters at the cap. The
//!   compact prune is then only *weaker* (monotone quantization can
//!   never turn a satisfying row into a non-satisfying one), so extra
//!   candidates cost steps but the valid set stays exact: stage 3 is
//!   exhaustive.

use proptest::prelude::*;
use psi_core::{DeploymentSpec, RunSpec, SmartPsi, SmartPsiConfig};
use psi_datasets::{generators, rwr, PaperDataset, QueryWorkload};
use psi_graph::builder::GraphBuilder;
use psi_graph::PivotedQuery;
use psi_signature::SigStoreKind;

fn config(kind: SigStoreKind) -> SmartPsiConfig {
    SmartPsiConfig {
        min_candidates_for_ml: 10,
        sig_store: kind,
        ..SmartPsiConfig::default()
    }
}

/// Engines to sweep in the differential runs: sequential, the §4.1
/// two-thread baseline, and the work-stealing pool.
fn specs() -> Vec<RunSpec> {
    vec![
        RunSpec::new(),
        RunSpec::new().two_thread(),
        RunSpec::new().threads(4),
    ]
}

#[test]
fn paper_datasets_answer_identically_on_the_compact_store() {
    for (dataset, scale) in [(PaperDataset::Yeast, 0.08), (PaperDataset::Cora, 0.05)] {
        let g = dataset.generate_scaled(scale, 42);
        let w = QueryWorkload::extract(&g, 4, 4, 7).expect("workload on paper dataset");
        let dense = SmartPsi::new(g.clone(), config(SigStoreKind::Dense));
        let compact = SmartPsi::new(g, config(SigStoreKind::Compact));
        assert_eq!(compact.signatures().kind(), SigStoreKind::Compact);
        // The ≤1/3 ratio is a wide-alphabet property (the bench graph's
        // 64 labels give u8+presence = 28% of dense); few-label paper
        // graphs pay a fixed ≥8-byte presence word per row, so here we
        // only require a strict win.
        assert!(
            compact.signatures().index_bytes() < dense.signatures().index_bytes(),
            "compact index must undercut dense"
        );
        for q in &w.queries {
            let want = dense.run(q, &RunSpec::new());
            let got = compact.run(q, &RunSpec::new());
            assert_eq!(want.valid, got.valid, "{dataset:?}: valid set diverged");
        }
    }
}

/// A star around a high-degree hub: the hub's depth-2 leaf-label
/// weight is ~leaves/2 · 1 → far past the u8 cap at scale 4, so the
/// compact row saturates. The valid set must not move.
#[test]
fn saturated_hub_keeps_the_answer_exact() {
    let mut b = GraphBuilder::new();
    b.add_node(0); // hub
    for _ in 0..300 {
        let leaf = b.add_node(1);
        b.add_edge(0, leaf);
    }
    // A second, small motif so queries have non-hub candidates too.
    let a = b.add_node(0);
    let c = b.add_node(1);
    b.add_edge(a, c);
    let g = b.build().expect("star graph");

    let q = PivotedQuery::from_parts(&[0, 1], &[(0, 1)], 0).expect("star query");
    let dense = SmartPsi::new(g.clone(), config(SigStoreKind::Dense));
    let compact = SmartPsi::new(g, config(SigStoreKind::Compact));
    // Prove the regime: at least one quantized hub count is clipped,
    // i.e. dequantizing disagrees with the dense row.
    let mut buf = Vec::new();
    let hub_compact = compact.signatures().row_view(0, &mut buf).to_vec();
    let mut dbuf = Vec::new();
    let hub_dense = dense.signatures().row_view(0, &mut dbuf).to_vec();
    assert_ne!(hub_compact, hub_dense, "hub row must actually saturate");
    for spec in specs() {
        let want = dense.run(&q, &spec);
        let got = compact.run(&q, &spec);
        assert_eq!(want.valid, got.valid, "saturation changed the answer");
        assert_eq!(got.unresolved, 0);
    }
}

#[test]
fn sharded_and_evolving_deployments_agree_with_dense() {
    let g = generators::erdos_renyi(500, 2200, 4, 31);
    let queries: Vec<_> = (0..3)
        .filter_map(|s| rwr::extract_query_seeded(&g, 4, 31 ^ (s * 977)))
        .collect();
    assert!(!queries.is_empty());
    let dense = SmartPsi::new(g.clone(), config(SigStoreKind::Dense));
    let truth: Vec<_> = queries.iter().map(|q| dense.run(q, &RunSpec::new())).collect();

    let smart = SmartPsi::new(g, config(SigStoreKind::Dense));
    let deployments = [
        DeploymentSpec::new().workers(2).sig_store(SigStoreKind::Compact),
        DeploymentSpec::new()
            .workers(2)
            .shards(3)
            .halo(4)
            .sig_store(SigStoreKind::Compact),
        DeploymentSpec::new()
            .workers(2)
            .evolving(8)
            .sig_store(SigStoreKind::Compact),
        DeploymentSpec::new()
            .workers(1)
            .shards(2)
            .halo(4)
            .evolving(8)
            .sig_store(SigStoreKind::Compact),
    ];
    for (d, spec) in deployments.into_iter().enumerate() {
        let mut dep = smart.deploy(&spec);
        for (i, q) in queries.iter().enumerate() {
            let r = dep.submit(q.clone(), RunSpec::new()).wait();
            assert_eq!(
                r.valid, truth[i].valid,
                "deployment {d}: compact valid set diverged on query {i}"
            );
        }
        dep.shutdown(std::time::Duration::from_secs(5));
    }
}

/// An evolving compact deployment stays exact across update batches:
/// the f32 maintainer repairs rows and the compact mirror re-quantizes
/// them, so post-update answers match a cold dense engine on the final
/// graph.
#[test]
fn evolving_compact_updates_match_cold_dense_engine() {
    use psi_graph::GraphUpdate;
    let g = generators::erdos_renyi(300, 1100, 3, 77);
    let q = rwr::extract_query_seeded(&g, 4, 13).expect("query");
    let smart = SmartPsi::new(g.clone(), config(SigStoreKind::Dense));
    let dep = smart.deploy(
        &DeploymentSpec::new()
            .workers(2)
            .evolving(6)
            .sig_store(SigStoreKind::Compact),
    );
    let mut mirror = psi_graph::dynamic::DynamicGraph::from_graph(&g);
    let batch = vec![
        GraphUpdate::AddNode { label: 2 },
        GraphUpdate::AddEdge { u: 300, v: 0, label: 0 },
        GraphUpdate::AddEdge { u: 5, v: 300, label: 1 },
    ];
    mirror.apply(&batch).unwrap();
    let epoch = dep.apply_update(&batch).unwrap().epoch;
    assert_eq!(epoch, 1);
    let cold = SmartPsi::new(mirror.snapshot(), config(SigStoreKind::Dense));
    let want = cold.run(&q, &RunSpec::new());
    let got = dep.submit(q, RunSpec::new()).wait();
    assert_eq!(want.valid, got.valid, "post-update compact answer diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random graphs × depths × every executor: compact deployments in
    /// the lossless regime reproduce the dense backend's full result
    /// (valid set, steps, stage accounting), not just the answer.
    #[test]
    fn random_graphs_lossless_bitwise_equivalence(
        seed in 0u64..500,
        depth in 1u32..4,
    ) {
        let g = generators::erdos_renyi(220, 700, 4, seed);
        let Some(q) = rwr::extract_query_seeded(&g, 3, seed ^ 0xc0ffee) else {
            return Ok(());
        };
        let dense_cfg = SmartPsiConfig { depth, ..config(SigStoreKind::Dense) };
        let compact_cfg = SmartPsiConfig { depth, ..config(SigStoreKind::Compact) };
        let dense = SmartPsi::new(g.clone(), dense_cfg);
        let compact = SmartPsi::new(g, compact_cfg);

        // Only compare bit-exactly when no counter clips: sparse ER
        // graphs at these sizes stay below the cap, but guard anyway.
        let lossless = {
            let mut db = Vec::new();
            let mut cb = Vec::new();
            (0..dense.graph().node_count() as u32).all(|n| {
                dense.signatures().row_view(n, &mut db) == compact.signatures().row_view(n, &mut cb)
            })
        };
        for spec in specs() {
            let want = dense.run(&q, &spec);
            let got = compact.run(&q, &spec);
            prop_assert_eq!(&want.valid, &got.valid, "valid set diverged (depth {})", depth);
            // Every executor — including the two-thread baseline, whose
            // lockstep step bar makes its accounted cost a pure
            // function of the inputs — must cost identically in the
            // lossless regime.
            if lossless {
                prop_assert_eq!(want.steps, got.steps, "lossless runs must cost identically");
                prop_assert_eq!(want.candidates, got.candidates);
                prop_assert_eq!(want.unresolved, got.unresolved);
            }
        }
    }
}
