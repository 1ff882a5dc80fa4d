//! Differential tests for evolving-graph serving: applying update
//! batches to a live [`PsiService`] must be indistinguishable from
//! tearing everything down and cold-starting an engine on the final
//! graph. Concretely:
//!
//! * every post-update answer is **bit-identical** to a fresh
//!   sequential [`SmartPsi::run`] over a from-scratch deployment of the
//!   final graph — for any worker count and cache warmth,
//! * no prediction cached before an update is ever consulted after it
//!   (prediction caches are keyed by `(epoch, shape)` and retired on
//!   update; [`ServiceStats::cache_invalidations`] prices the
//!   retirements),
//! * the guarantee survives injected chaos (compare valid sets — steps
//!   legitimately differ under faults),
//! * and the underlying incremental signature maintenance stays
//!   bit-exact under random interleaved add-node/add-edge streams at
//!   every supported depth (the core-level extension of
//!   `psi-signature`'s `random_evolution_stays_in_sync`).

use std::sync::Arc;

use proptest::prelude::*;
use psi_core::fault::{install_quiet_panic_hook, FaultPlan};
use psi_core::{
    DeploymentSpec, EvolvingContext, GraphContext, PsiResult, PsiService, RunSpec, SmartPsi,
    SmartPsiConfig, UpdateError,
};
use psi_datasets::{generators, rwr};
use psi_graph::dynamic::DynamicGraph;
use psi_graph::{GraphUpdate, PivotedQuery};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Label capacity every evolving deployment in this file is built
/// with; update streams stay below it.
const CAPACITY: usize = 6;

/// Fisher–Yates with the workspace's deterministic RNG (the vendored
/// `rand` has no `SliceRandom`).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn config() -> SmartPsiConfig {
    SmartPsiConfig {
        min_candidates_for_ml: 10,
        ..SmartPsiConfig::default()
    }
}

fn deployment(seed: u64) -> (SmartPsi, DynamicGraph, Vec<PivotedQuery>) {
    let g = generators::erdos_renyi(300, 1100, 3, seed);
    let queries: Vec<_> = (0..5)
        .filter_map(|s| rwr::extract_query_seeded(&g, 3 + (s as usize % 2), seed ^ (s * 977)))
        .collect();
    let mirror = DynamicGraph::from_graph(&g);
    (SmartPsi::new(g, config()), mirror, queries)
}

/// An evolving worker-pool service over `smart`, via the deploy front
/// door.
fn evolving_service(smart: &SmartPsi, workers: usize) -> PsiService {
    smart.deploy(&DeploymentSpec::new().workers(workers).evolving(CAPACITY))
}

/// One random update batch over a graph that currently has `nodes`
/// nodes: node appends interleaved with edges, where edges draw both
/// endpoints — in arbitrary (so frequently descending) id order — from
/// everything valid at that point in the batch, including nodes the
/// batch itself just added, with deliberate duplicate edges mixed in.
fn random_batch(rng: &mut StdRng, nodes: &mut u32, size: usize) -> Vec<GraphUpdate> {
    let mut batch = vec![GraphUpdate::AddNode {
        label: rng.gen_range(0..CAPACITY as u16),
    }];
    let mut avail = *nodes + 1;
    while batch.len() < size {
        if rng.gen_bool(0.2) {
            batch.push(GraphUpdate::AddNode {
                label: rng.gen_range(0..CAPACITY as u16),
            });
            avail += 1;
            continue;
        }
        let u = rng.gen_range(0..avail);
        let v = rng.gen_range(0..avail);
        if u == v {
            continue;
        }
        let e = GraphUpdate::AddEdge {
            u,
            v,
            label: rng.gen_range(0..CAPACITY as u16),
        };
        batch.push(e);
        if rng.gen_bool(0.25) && batch.len() < size {
            batch.push(e); // guaranteed duplicate
        }
    }
    *nodes = avail;
    batch
}

/// Cold ground truth on the mirror's current graph: a from-scratch
/// deployment with no shared cache.
fn ground_truth(mirror: &DynamicGraph, queries: &[PivotedQuery]) -> Vec<PsiResult> {
    let smart = SmartPsi::new(mirror.snapshot(), config());
    queries.iter().map(|q| smart.run(q, &RunSpec::new())).collect()
}

#[test]
fn service_after_updates_matches_cold_engine_across_worker_counts() {
    for workers in [1usize, 2, 4, 8] {
        let (smart, mut mirror, queries) = deployment(41);
        assert!(queries.len() >= 3, "need a real batch of queries");
        let service = evolving_service(&smart, workers);

        // Round 1: warm every shape's cache on epoch 0.
        let handles: Vec<_> = queries
            .iter()
            .map(|q| service.submit(q.clone(), RunSpec::new()))
            .collect();
        let truth0 = ground_truth(&mirror, &queries);
        for (h, t) in handles.into_iter().zip(&truth0) {
            assert_eq!(&h.wait(), t, "workers={workers}: epoch-0 answer diverged");
        }
        let warmed = service.stats();
        assert_eq!(warmed.graph_epoch, 0);
        assert_eq!(warmed.cache_invalidations, 0);
        assert_eq!(warmed.distinct_query_shapes, queries.len());

        // Apply two batches, mirroring them for the cold engine.
        let mut rng = StdRng::seed_from_u64(workers as u64 ^ 0xeb0c);
        let mut nodes = mirror.node_count() as u32;
        for expected_epoch in 1..=2u64 {
            let batch = random_batch(&mut rng, &mut nodes, 12);
            mirror.apply(&batch).unwrap();
            let report = service.apply_update(&batch).unwrap();
            assert_eq!(report.epoch, expected_epoch);
            assert!(report.rows_repaired > 0);
        }
        let updated = service.stats();
        assert_eq!(updated.graph_epoch, 2);
        // Epoch-0 caches were retired (the second batch found the map
        // already empty, which is fine — nothing had refilled it).
        assert_eq!(updated.cache_invalidations, queries.len() as u64);

        // Round 2: answers must be bit-identical to a cold engine on
        // the final graph — impossible if any epoch-0 prediction were
        // still consulted, since the graph around those nodes changed.
        let truth2 = ground_truth(&mirror, &queries);
        let mut jobs: Vec<usize> = (0..queries.len()).flat_map(|i| [i, i]).collect();
        shuffle(&mut jobs, workers as u64);
        let handles: Vec<(usize, _)> = jobs
            .iter()
            .map(|&i| (i, service.submit(queries[i].clone(), RunSpec::new())))
            .collect();
        for (i, h) in handles {
            assert_eq!(
                h.wait(),
                truth2[i],
                "workers={workers}: post-update answer diverged for query {i}"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.worker_panics, 0);
        assert_eq!(
            stats.distinct_query_shapes,
            queries.len(),
            "round-2 caches all live under the new epoch key"
        );
        assert!(
            stats.cross_query_cache_hits > 0,
            "workers={workers}: repeats within epoch 2 must reuse the cache"
        );
    }
}

#[test]
fn cross_query_hits_are_a_lifetime_count_across_updates() {
    let (smart, _mirror, queries) = deployment(43);
    let service = evolving_service(&smart, 2);
    for _ in 0..3 {
        for q in &queries {
            service.submit(q.clone(), RunSpec::new()).wait();
        }
    }
    let before = service.stats();
    assert!(before.cross_query_cache_hits > 0, "{before:?}");
    service
        .apply_update(&[GraphUpdate::AddNode { label: 0 }])
        .unwrap();
    let after = service.stats();
    assert_eq!(after.distinct_query_shapes, 0, "the update retired every cache");
    assert!(
        after.cross_query_cache_hits >= before.cross_query_cache_hits,
        "retiring caches must not lower the count: {before:?} -> {after:?}"
    );
}

#[test]
fn updates_under_chaos_preserve_answers() {
    install_quiet_panic_hook();
    let (smart, mut mirror, queries) = deployment(67);
    let service = evolving_service(&smart, 4);
    let fault = Arc::new(FaultPlan::seeded(9, 0.03, 0.03, 0.02));
    let mut rng = StdRng::seed_from_u64(0x51ee);
    let mut nodes = mirror.node_count() as u32;
    for round in 0..3 {
        if round > 0 {
            let batch = random_batch(&mut rng, &mut nodes, 10);
            mirror.apply(&batch).unwrap();
            service.apply_update(&batch).unwrap();
        }
        let truth = ground_truth(&mirror, &queries);
        let handles: Vec<_> = queries
            .iter()
            .map(|q| service.submit(q.clone(), RunSpec::new().faults(fault.clone())))
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let r = h.wait();
            assert_eq!(
                r.valid, truth[i].valid,
                "round {round}: chaos changed the answer of query {i}"
            );
            assert_eq!(r.unresolved, 0, "round {round}: query {i} left unresolved");
        }
    }
    assert_eq!(service.stats().graph_epoch, 2);
}

#[test]
fn static_service_refuses_updates() {
    let g = generators::erdos_renyi(120, 400, 3, 5);
    let service = SmartPsi::new(g, config()).deploy(&DeploymentSpec::new().workers(2));
    let err = service
        .apply_update(&[GraphUpdate::AddNode { label: 0 }])
        .unwrap_err();
    assert!(matches!(err, UpdateError::StaticDeployment));
    let stats = service.stats();
    assert_eq!(stats.graph_epoch, 0);
    assert_eq!(stats.cache_invalidations, 0);
}

#[test]
fn erroneous_batch_leaves_the_service_untouched() {
    let (smart, _mirror, queries) = deployment(23);
    let service = evolving_service(&smart, 2);
    let q = &queries[0];
    let before = service.submit(q.clone(), RunSpec::new()).wait();
    let err = service.apply_update(&[
        GraphUpdate::AddNode { label: 0 },
        GraphUpdate::AddEdge { u: 0, v: 99_999, label: 0 },
    ]);
    assert!(matches!(err, Err(UpdateError::Graph(_))));
    let stats = service.stats();
    assert_eq!(stats.graph_epoch, 0, "failed batch must not publish");
    assert_eq!(stats.cache_invalidations, 0, "failed batch must not drop caches");
    assert_eq!(service.submit(q.clone(), RunSpec::new()).wait(), before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random interleaved update streams (duplicate edges, edges in
    /// arbitrary id order to just-added nodes, multiple depths): the
    /// incrementally maintained snapshot stays bit-exact against a
    /// from-scratch build, and queries against it answer exactly like
    /// a from-scratch engine.
    #[test]
    fn random_interleaved_evolution_stays_in_sync(
        seed in 0u64..200,
        depth in 1u32..5,
        batches in 1usize..4,
    ) {
        let g = generators::erdos_renyi(140, 420, 3, seed);
        let cfg = SmartPsiConfig { depth, ..config() };
        let query = rwr::extract_query_seeded(&g, 3, seed ^ 0xa11);
        let mut ev = EvolvingContext::new(g, cfg.clone(), CAPACITY);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd15c);
        let mut nodes = 140u32;
        for _ in 0..batches {
            let batch = random_batch(&mut rng, &mut nodes, 10);
            ev.apply(&batch).unwrap();
        }
        let snapshot = ev.current();
        let cold = GraphContext::new(snapshot.graph().clone(), cfg.clone());
        prop_assert_eq!(snapshot.epoch(), batches as u64);
        prop_assert_eq!(
            snapshot.signatures().label_count(),
            cold.signatures().label_count()
        );
        for (i, (a, b)) in snapshot
            .signatures()
            .dense()
            .expect("default deployments publish on the dense store")
            .as_flat()
            .iter()
            .zip(cold.signatures().dense().unwrap().as_flat())
            .enumerate()
        {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "signature entry {} diverged from from-scratch build (depth {})",
                i,
                depth
            );
        }
        if let Some(q) = query {
            let evolved = SmartPsi::from_context(snapshot.clone()).run(&q, &RunSpec::new());
            let scratch = SmartPsi::new(snapshot.graph().clone(), cfg).run(&q, &RunSpec::new());
            prop_assert_eq!(evolved, scratch, "evolved snapshot answered unlike a cold engine");
        }
    }
}
