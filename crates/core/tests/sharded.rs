//! Differential suite for sharded [`PsiService`] deployments:
//! scatter-gather serving over a range-partitioned graph must be an
//! *invisible* deployment choice. Every merged answer has to match a single-context run of
//! the same query — for any shard count, any worker count, any cache
//! warmth, under injected chaos, and across interleaved update
//! streams.
//!
//! What "match" means is deliberately two-tiered:
//!
//! * **Answer projection** (valid set, candidate count, unresolved
//!   count, failure nodes) is compared across *different partitions* —
//!   per-shard training samples differ, so steps and escalation
//!   accounting legitimately differ while verdicts cannot (the retry
//!   ladder's unlimited stage 3 is partition-independent).
//! * **Full [`PsiResult`] equality** (steps and failure accounting
//!   included) is asserted wherever determinism is claimed: a 1-shard
//!   deployment against the sequential engine, a fixed partition
//!   across worker counts and cache warmth, and the job-death and
//!   expired-deadline mirrors against a 1-shard deployment.
//!
//! The halo tests prove the exactness theorem in both directions: with
//! halo depth ≥ the query pivot's eccentricity every D-ball is
//! resident and answers are exact; one level shallower is *detectably
//! wrong* on a crafted query whose outermost embedding edge joins two
//! distance-D nodes.

use std::sync::Arc;
use std::time::Instant;

use proptest::prelude::*;
use psi_core::engine::proto::query_result_line;
use psi_core::fault::{install_quiet_panic_hook, FaultKind, FaultPlan, ALWAYS, ONCE};
use psi_core::{
    DeploymentSpec, EvalLimits, GraphContext, PsiResult, PsiService, RunSpec, SmartPsi,
    SmartPsiConfig, UpdateError, QUERY_TOO_DEEP_REASON,
};
use psi_datasets::{generators, rwr};
use psi_graph::dynamic::DynamicGraph;
use psi_graph::{GraphBuilder, GraphUpdate, NodeId, PivotedQuery};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn config() -> SmartPsiConfig {
    SmartPsiConfig {
        min_candidates_for_ml: 10,
        ..SmartPsiConfig::default()
    }
}

fn deployment(seed: u64) -> (Arc<GraphContext>, Vec<PivotedQuery>) {
    let g = generators::erdos_renyi(350, 1400, 3, seed);
    let ctx = Arc::new(GraphContext::new(g.clone(), config()));
    let queries: Vec<_> = (0..8)
        .filter_map(|s| rwr::extract_query_seeded(&g, 3 + (s as usize % 3), seed ^ (s * 977)))
        .collect();
    (ctx, queries)
}

fn ground_truth(ctx: &Arc<GraphContext>, queries: &[PivotedQuery]) -> Vec<PsiResult> {
    let smart = SmartPsi::from_context(ctx.clone());
    queries.iter().map(|q| smart.run(q, &RunSpec::new())).collect()
}

/// Deploy `spec` over the shared context.
fn deploy(ctx: &Arc<GraphContext>, spec: DeploymentSpec) -> PsiService {
    SmartPsi::from_context(ctx.clone()).deploy(&spec)
}

/// Shards whose epoch moved between two [`PsiService::shard_epochs`]
/// readings.
fn bumped(before: &[u64], after: &[u64]) -> Vec<usize> {
    (0..after.len()).filter(|&s| after[s] > before[s]).collect()
}

/// The partition-independent slice of a result: verdicts and failure
/// placement, without the scheduling/training-dependent cost fields.
fn projection(r: &PsiResult) -> (Vec<NodeId>, usize, usize, Vec<(NodeId, String)>) {
    (
        r.valid.clone(),
        r.candidates,
        r.unresolved,
        r.failures.nodes.iter().map(|f| (f.node, f.reason.clone())).collect(),
    )
}

/// Pivot eccentricity inside the query graph.
fn ecc(q: &PivotedQuery) -> u32 {
    q.graph()
        .bfs_distances(q.pivot())
        .into_iter()
        .filter(|&d| d != u32::MAX)
        .max()
        .unwrap_or(0)
}

#[test]
fn scatter_gather_matches_sequential_across_shard_and_worker_counts() {
    let (ctx, queries) = deployment(91);
    assert!(queries.len() >= 6, "need a real batch");
    let truth = ground_truth(&ctx, &queries);
    for shards in [1usize, 2, 4, 8] {
        for workers in [1usize, 2, 4] {
            let service = deploy(&ctx, DeploymentSpec::new().shards(shards).workers(workers));
            assert_eq!(service.shard_count(), shards);
            let handles: Vec<_> = queries
                .iter()
                .map(|q| service.submit(q.clone(), RunSpec::new()))
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                let merged = h.wait();
                if shards == 1 {
                    // One shard = the whole graph in one context with
                    // the same candidate order: bit-identical, steps
                    // included.
                    assert_eq!(
                        merged, truth[i],
                        "shards=1 workers={workers}: diverged on query {i}"
                    );
                } else {
                    assert_eq!(
                        projection(&merged),
                        projection(&truth[i]),
                        "shards={shards} workers={workers}: diverged on query {i}"
                    );
                }
            }
            // Every routed shard job is accounted: the fanout counter
            // equals the shard jobs served. One shard routes nothing.
            let fanout = service.metrics().counter(psi_core::obs::Counter::ShardFanout);
            let served = service.stats().queries_served;
            if shards == 1 {
                assert_eq!((fanout, served), (0, queries.len() as u64), "one shard, no fanout");
            } else {
                assert_eq!(fanout, served, "shards={shards}: fanout vs shard jobs");
                assert!(fanout >= queries.len() as u64, "every query routes somewhere");
            }
            assert_eq!(service.stats().worker_panics, 0);
        }
    }
}

#[test]
fn fixed_partition_is_bit_identical_across_worker_counts_and_cache_warmth() {
    let (ctx, queries) = deployment(57);
    let spec = |w: usize| DeploymentSpec::new().shards(4).workers(w);
    // Reference pass: 1 worker per shard, cold caches, submit-and-wait
    // so cache warming is sequenced deterministically.
    let reference: Vec<PsiResult> = {
        let service = deploy(&ctx, spec(1));
        queries
            .iter()
            .flat_map(|q| {
                [
                    service.submit(q.clone(), RunSpec::new()).wait(),
                    // warm repeat
                    service.submit(q.clone(), RunSpec::new()).wait(),
                ]
            })
            .collect()
    };
    for workers in [2usize, 4] {
        let service = deploy(&ctx, spec(workers));
        let results: Vec<PsiResult> = queries
            .iter()
            .flat_map(|q| {
                [
                    service.submit(q.clone(), RunSpec::new()).wait(),
                    service.submit(q.clone(), RunSpec::new()).wait(),
                ]
            })
            .collect();
        assert_eq!(
            results, reference,
            "workers_per_shard={workers}: same partition must be bit-identical"
        );
        let stats = service.stats();
        assert!(
            stats.cross_query_cache_hits > 0,
            "workers_per_shard={workers}: warm repeats must hit per-shard caches"
        );
    }
}

#[test]
fn seeded_chaos_preserves_answers() {
    install_quiet_panic_hook();
    let (ctx, queries) = deployment(17);
    let truth = ground_truth(&ctx, &queries);
    let service = deploy(&ctx, DeploymentSpec::new().shards(3).workers(2));
    // Per-submit seeded chaos: the projection materializes each
    // shard's share of the one-shot draws, per-node isolation and the
    // retry ladder absorb all of them, so valid sets match the clean
    // truth. Steps legitimately differ under faults.
    let fault = Arc::new(FaultPlan::seeded(5, 0.03, 0.03, 0.02));
    let handles: Vec<_> = queries
        .iter()
        .map(|q| service.submit(q.clone(), RunSpec::new().faults(fault.clone())))
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let r = h.wait();
        assert_eq!(r.valid, truth[i].valid, "chaos changed the answer of query {i}");
        assert_eq!(r.unresolved, 0, "chaos left query {i} unresolved");
    }
}

#[test]
fn job_death_mirrors_the_single_context_service() {
    install_quiet_panic_hook();
    let (ctx, queries) = deployment(33);
    let truth = ground_truth(&ctx, &queries);
    let q = &queries[0];
    // A sticky ALWAYS-panic on every candidate with per-node isolation
    // off: in both deployments every attempt of the poisoned job dies,
    // is requeued once, dies again, and collapses to the structured
    // empty-result-plus-failure shape. The sharded merge must
    // reproduce the single-context result bit-for-bit — including the
    // panic reason, whose embedded node id the merge translates back
    // to global space.
    let poison = || {
        Arc::new(
            psi_core::single::pivot_candidates(ctx.graph(), q)
                .into_iter()
                .fold(FaultPlan::empty(), |p, n| p.inject(n, FaultKind::Panic, ALWAYS)),
        )
    };
    let single = deploy(&ctx, DeploymentSpec::new().workers(2));
    let single_failed = single
        .submit(q.clone(), RunSpec::new().faults(poison()).panic_isolation(false))
        .wait();
    assert_eq!(single_failed.failures.worker_deaths, 2, "both attempts died");

    let sharded = deploy(&ctx, DeploymentSpec::new().shards(4).workers(2));
    let poisoned =
        sharded.submit(q.clone(), RunSpec::new().faults(poison()).panic_isolation(false));
    // Healthy traffic around the poisoned job stays exact.
    let healthy: Vec<_> = queries[1..]
        .iter()
        .map(|hq| sharded.submit(hq.clone(), RunSpec::new()))
        .collect();
    let merged = poisoned.wait();
    // The panic payload names whichever poisoned candidate the dying
    // attempt evaluated first — rank-order-dependent, so the embedded
    // node id may differ between deployments. Everything else must be
    // bit-identical, and *both* payloads must name a real poisoned
    // candidate in global id space (proving the sharded merge
    // translated the shard-local payload back correctly).
    let payload_node = |r: &PsiResult| -> u32 {
        let reason = &r.failures.nodes[0].reason;
        reason
            .strip_prefix("injected panic (node ")
            .and_then(|s| s.strip_suffix(')'))
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unexpected payload shape: {reason:?}"))
    };
    let poisoned_set = psi_core::single::pivot_candidates(ctx.graph(), q);
    for r in [&merged, &single_failed] {
        assert!(poisoned_set.contains(&payload_node(r)), "payload not a candidate");
    }
    let mut normalized = merged.clone();
    normalized.failures.nodes[0].reason = single_failed.failures.nodes[0].reason.clone();
    assert_eq!(normalized, single_failed, "job-death shape diverged");
    for (i, h) in healthy.into_iter().enumerate() {
        assert_eq!(
            projection(&h.wait()),
            projection(&truth[i + 1]),
            "healthy query {} was disturbed",
            i + 1
        );
    }
    let requeues = sharded.stats().requeued_jobs;
    assert!(requeues >= 1, "a poisoned shard job must requeue before failing");
}

#[test]
fn one_shot_panic_requeues_the_shard_job_then_recovers() {
    install_quiet_panic_hook();
    let (ctx, queries) = deployment(71);
    let truth = ground_truth(&ctx, &queries);
    let q = &queries[0];
    let victim = *psi_core::single::pivot_candidates(ctx.graph(), q)
        .first()
        .expect("query has candidates");
    // A one-shot panic with per-node isolation off kills exactly one
    // shard's job on its first attempt. The shard-job boundary absorbs
    // it: the job is requeued, the retry — with the one-shot budget
    // consumed — answers cleanly, and the merged result is
    // indistinguishable from an unfaulted run.
    let sharded = deploy(&ctx, DeploymentSpec::new().shards(4).workers(2));
    let plan = Arc::new(FaultPlan::empty().inject(victim, FaultKind::Panic, ONCE));
    let r = sharded
        .submit(q.clone(), RunSpec::new().faults(plan).panic_isolation(false))
        .wait();
    assert_eq!(r.valid, truth[0].valid, "recovery changed the answer");
    assert_eq!(r.unresolved, 0);
    assert!(r.failures.nodes.is_empty(), "the retry answered cleanly");
    let requeues = sharded.stats().requeued_jobs;
    assert_eq!(requeues, 1, "exactly one shard job died and was requeued");
    assert_eq!(
        sharded.stats().queries_served,
        sharded.metrics().counter(psi_core::obs::Counter::ShardFanout),
        "all routed shard jobs answered"
    );
}

#[test]
fn worker_kills_inside_shard_pools_requeue_grabs_and_stay_exact() {
    install_quiet_panic_hook();
    let (ctx, queries) = deployment(83);
    let truth = ground_truth(&ctx, &queries);
    let q = &queries[0];
    // Arm a one-shot worker kill on every candidate and run each shard
    // job on its own 2-worker pool with one whole-queue grab: in every
    // shard that reaches the pool stage, whichever pool worker grabs
    // first dies, the in-job parent requeues the grab, and the merged
    // answer stays exact. This is the layer *below* the shard-job
    // boundary — the job survives, so no shard-level requeue happens.
    let plan = Arc::new(
        psi_core::single::pivot_candidates(ctx.graph(), q)
            .into_iter()
            .fold(FaultPlan::empty(), |p, n| p.inject(n, FaultKind::KillWorker, ONCE)),
    );
    let sharded = deploy(&ctx, DeploymentSpec::new().shards(2));
    let r = sharded
        .submit(q.clone(), RunSpec::new().faults(plan).threads(2).grab(1_000_000))
        .wait();
    assert_eq!(r.valid, truth[0].valid, "pool-level kills changed the answer");
    assert_eq!(r.unresolved, 0);
    assert!(r.failures.nodes.is_empty());
    assert!(
        r.failures.worker_deaths >= 1,
        "at least one shard pool lost a worker"
    );
    assert!(
        r.failures.requeued >= r.failures.worker_deaths,
        "each dead pool worker's in-flight grab (>= 1 node) was requeued"
    );
    let shard_requeues = sharded.stats().requeued_jobs;
    assert_eq!(shard_requeues, 0, "pool kills never cross the shard-job boundary");
}

#[test]
fn halo_guard_rejects_queries_deeper_than_the_halo() {
    let g = generators::erdos_renyi(120, 420, 3, 3);
    let ctx = Arc::new(GraphContext::new(g, config()));
    let service = deploy(&ctx, DeploymentSpec::new().shards(2).halo(1));
    // A 3-node path pivoted at one end has eccentricity 2 > halo 1.
    let q = PivotedQuery::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)], 0)
        .expect("valid query");
    // The serving tier must refuse the query with a structured,
    // recoverable failure through its handle — a client mistake is
    // not a deployment panic — and never run it.
    let r = service.submit(q.clone(), RunSpec::new()).wait();
    assert!(r.valid.is_empty() && r.candidates == 0, "{r:?}");
    let [failure] = r.failures.nodes.as_slice() else {
        panic!("one structured failure expected: {r:?}");
    };
    assert_eq!(failure.node, q.pivot());
    assert!(failure.reason.starts_with(QUERY_TOO_DEEP_REASON), "{}", failure.reason);
    assert!(
        failure.reason.contains("eccentricity 2") && failure.reason.contains("halo depth 1"),
        "{}",
        failure.reason
    );
    let fanout = || service.metrics().counter(psi_core::obs::Counter::ShardFanout);
    assert_eq!(fanout(), 0, "the refused query reached no shard");
    // The deployment survives the refusal and keeps serving.
    let shallow = PivotedQuery::from_parts(&[0, 1], &[(0, 1)], 0).expect("valid query");
    let r = service.submit(shallow, RunSpec::new()).wait();
    assert!(r.failures.nodes.is_empty(), "{r:?}");
    assert!(fanout() > 0);
}

/// A query whose deadline passed before any shard picked it up is
/// answered exactly as a 1-shard deployment answers it — one
/// structured failure at the pivot, sent on the wire as a `deadline`
/// error — never as an empty success merged from per-shard failures.
#[test]
fn expired_deadline_collapses_to_the_one_shard_failure() {
    let (ctx, queries) = deployment(19);
    let one = deploy(&ctx, DeploymentSpec::new());
    let three = deploy(&ctx, DeploymentSpec::new().shards(3));
    for (i, q) in queries.iter().enumerate() {
        let spec = RunSpec::new().limits(EvalLimits::unlimited().with_deadline(Instant::now()));
        let single = one.submit(q.clone(), spec.clone()).wait();
        let sharded = three.submit(q.clone(), spec).wait();
        assert_eq!(sharded, single, "query {i}: sharded expiry diverged");
        let line = query_result_line(7, &sharded);
        assert!(line.contains("\"error\":\"deadline\""), "query {i}: {line}");
    }
}

/// The deterministic halo-shrink breaker. Query: `v0(a)–v1(b)`,
/// `v1–v2(c)`, `v1–v3(c)`, `v2–v3`; pivot `v0`, eccentricity 2. Data
/// graph: the exact same shape on nodes `0:a, 1:b, 2:c, 3:c`. Cut
/// after node 0 with halo 2: nodes 2 and 3 are members of shard 0
/// (distance 2), the edge `2–3` is retained, and the pivot binding
/// `v0 → 0` is found. With halo 1, nodes 2 and 3 are rim stubs and the
/// `2–3` edge — an embedding edge joining two distance-2 nodes — is
/// dropped, so the undersized deployment *loses the answer*. A simple
/// path query would not notice (every consecutive-path edge has a
/// nearer endpoint inside the halo); the end-triangle is the minimal
/// witness that `D ≥ ecc` is tight.
#[test]
fn undersized_halo_is_detectably_wrong_on_the_end_triangle() {
    let mut b = GraphBuilder::new();
    for l in [0u16, 1, 2, 2] {
        b.add_node(l);
    }
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(1, 3);
    b.add_edge(2, 3);
    let g = b.build().expect("valid data graph");
    let q = PivotedQuery::from_parts(
        &[0, 1, 2, 2],
        &[(0, 1), (1, 2), (1, 3), (2, 3)],
        0,
    )
    .expect("valid query");
    assert_eq!(ecc(&q), 2);
    let ctx = Arc::new(GraphContext::new(g, config()));
    let truth = SmartPsi::from_context(Arc::new(GraphContext::new(
        ctx.graph().clone(),
        config(),
    )))
    .run(&q, &RunSpec::new());
    assert_eq!(truth.valid, vec![0], "the pivot binds in the full graph");

    // Exact halo (D = ecc = 2): shard 0 owns only node 0, everything
    // else is halo — answers match.
    let exact = deploy(&ctx, DeploymentSpec::new().shards(4).halo(2));
    assert_eq!(exact.owned_range(0), (0, 1));
    let r = exact.submit(q.clone(), RunSpec::new()).wait();
    assert_eq!(r.valid, truth.valid, "halo = ecc must be exact");

    // Undersized halo (D = 1 < ecc): the guard would reject this
    // query, and for good reason — bypassing it loses the binding.
    let shrunk = deploy(&ctx, DeploymentSpec::new().shards(4).halo(1));
    let r = shrunk.submit_unchecked(q, RunSpec::new()).wait();
    assert_ne!(r.valid, truth.valid, "halo = ecc - 1 must be detectably wrong");
    assert!(r.valid.is_empty(), "the boundary-crossing embedding is lost");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random graphs × random cuts × query depths: with halo depth set
    /// to the query pivot's exact eccentricity, (a) every node within
    /// `ecc` of a shard's owned range is resident there, and (b) the
    /// merged answer projection equals the sequential engine's.
    #[test]
    fn exact_eccentricity_halo_is_resident_and_answer_exact(
        seed in 0u64..1000,
        shards in 2usize..=4,
        size in 2usize..=5,
    ) {
        let g = generators::erdos_renyi(160, 560, 3, seed);
        let Some(q) = rwr::extract_query_seeded(&g, size, seed ^ 0x5eed) else {
            return Ok(());
        };
        let d = ecc(&q).max(1);
        let ctx = Arc::new(GraphContext::new(g.clone(), config()));
        let service = deploy(&ctx, DeploymentSpec::new().shards(shards).halo(d));

        // (a) D-ball residency, shard by shard, via a global BFS.
        for s in 0..shards {
            let (lo, hi) = service.owned_range(s);
            let residents = service.resident_nodes(s);
            let mut dist = vec![u32::MAX; g.node_count()];
            let mut frontier: Vec<NodeId> = (lo..hi).collect();
            for &u in &frontier {
                dist[u as usize] = 0;
            }
            for _ in 0..d {
                let mut next = Vec::new();
                for &u in &frontier {
                    for &v in g.neighbors(u) {
                        if dist[v as usize] == u32::MAX {
                            dist[v as usize] = 1;
                            next.push(v);
                        }
                    }
                }
                frontier = next;
            }
            for v in 0..g.node_count() as NodeId {
                if dist[v as usize] != u32::MAX {
                    prop_assert!(
                        residents.binary_search(&v).is_ok(),
                        "shard {s}: node {v} within {d} of [{lo},{hi}) not resident"
                    );
                }
            }
        }

        // (b) answers.
        let truth = SmartPsi::from_context(ctx).run(&q, &RunSpec::new());
        let service_ctx = Arc::new(GraphContext::new(g, config()));
        let service = deploy(&service_ctx, DeploymentSpec::new().shards(shards).halo(d));
        let merged = service.submit(q, RunSpec::new()).wait();
        prop_assert_eq!(projection(&merged), projection(&truth));
    }
}

// ---------------------------------------------------------------------
// Evolving sharded deployments
// ---------------------------------------------------------------------

/// Label capacity for evolving deployments; update streams stay below.
const CAPACITY: usize = 6;

/// One random update batch (mirrors `evolving.rs`): node appends
/// interleaved with edges over everything valid at that point,
/// duplicates included.
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
            batch.push(e);
        }
    }
    *nodes = avail;
    batch
}

#[test]
fn static_sharded_deployment_rejects_updates() {
    let (ctx, _) = deployment(3);
    let service = deploy(&ctx, DeploymentSpec::new().shards(2));
    let batch = [GraphUpdate::AddNode { label: 0 }];
    assert!(matches!(
        service.apply_update(&batch),
        Err(UpdateError::StaticDeployment)
    ));
}

#[test]
fn evolving_shards_match_a_cold_single_context_of_the_final_graph() {
    let g = generators::erdos_renyi(300, 1100, 3, 41);
    let queries: Vec<_> = (0..5)
        .filter_map(|s| rwr::extract_query_seeded(&g, 3 + (s as usize % 2), 41 ^ (s * 977)))
        .collect();
    assert!(queries.len() >= 3, "need a real batch of queries");
    let mut mirror = DynamicGraph::from_graph(&g);
    let service = SmartPsi::new(g, config())
        .deploy(&DeploymentSpec::new().shards(3).workers(2).evolving(CAPACITY));
    assert_eq!(service.shard_epochs(), vec![0, 0, 0]);

    let mut rng = StdRng::seed_from_u64(0xc0de);
    let mut nodes = mirror.node_count() as u32;
    for round in 0..3 {
        let batch = random_batch(&mut rng, &mut nodes, 12);
        mirror.apply(&batch).expect("mirror accepts the batch");
        let before = service.shard_epochs();
        let report = service.apply_update(&batch).expect("sharded update");
        let affected = bumped(&before, &service.shard_epochs());
        assert!(report.rows_repaired > 0, "round {round}: repairs happened");
        assert!(
            !affected.is_empty(),
            "round {round}: every endpoint is resident somewhere"
        );
        assert!(
            report.nodes_added == 0 || affected.contains(&2),
            "round {round}: appended nodes land on the last shard"
        );
        // Epochs advance exactly on the affected shards.
        for (s, e) in service.shard_epochs().into_iter().enumerate() {
            assert!(e as usize <= round + 1, "round {round}: shard {s} over-bumped");
        }

        // Post-update answers match a cold single-context deployment
        // of the final graph — halo membership, gathered rows, and
        // per-shard epochs all repaired correctly or this diverges.
        let cold = SmartPsi::new(mirror.snapshot(), config());
        for (i, q) in queries.iter().enumerate() {
            let truth = cold.run(q, &RunSpec::new());
            let merged = service
                .submit(q.clone(), RunSpec::new())
                .wait();
            assert_eq!(
                projection(&merged),
                projection(&truth),
                "round {round}: post-update answer diverged on query {i}"
            );
        }
    }
    // The last shard's open range absorbed every appended node.
    let n = mirror.node_count() as NodeId;
    assert_eq!(service.owned_range(2).1, n);
}

#[test]
fn boundary_updates_repair_both_halos_and_epochs_stay_independent() {
    // A 60-node path graph: locality makes shard blast zones exact,
    // so which shards an update touches is fully predictable.
    let mut b = GraphBuilder::new();
    for i in 0..60u16 {
        b.add_node(i % 3);
    }
    for i in 0..59 {
        b.add_edge(i, i + 1);
    }
    let g = b.build().expect("valid path graph");
    let queries: Vec<_> = (0..4)
        .filter_map(|s| rwr::extract_query_seeded(&g, 3, 7 ^ (s * 131)))
        .collect();
    assert!(!queries.is_empty());
    let mut mirror = DynamicGraph::from_graph(&g);
    let service = SmartPsi::new(g, config())
        .deploy(&DeploymentSpec::new().shards(2).halo(2).evolving(CAPACITY));
    assert_eq!(service.owned_range(0), (0, 30));
    assert_eq!(service.owned_range(1), (30, 60));

    let check = |mirror: &DynamicGraph, label: &str| {
        let cold = SmartPsi::new(mirror.snapshot(), config());
        for (i, q) in queries.iter().enumerate() {
            let truth = cold.run(q, &RunSpec::new());
            let merged = service
                .submit(q.clone(), RunSpec::new())
                .wait();
            assert_eq!(
                projection(&merged),
                projection(&truth),
                "{label}: diverged on query {i}"
            );
        }
    };

    // Interior edge deep inside shard 0: its blast zone (endpoints +
    // the depth−1 repair ball) stays left of shard 1's residents
    // (which reach down to node 27), so only shard 0 republishes.
    let interior = [GraphUpdate::AddEdge { u: 5, v: 7, label: 0 }];
    mirror.apply(&interior).expect("mirror");
    let before = service.shard_epochs();
    service.apply_update(&interior).expect("interior update");
    assert_eq!(bumped(&before, &service.shard_epochs()), vec![0], "interior edge stays local");
    assert_eq!(service.shard_epochs(), vec![1, 0], "shard 1 untouched");
    check(&mirror, "after interior edge");

    // Boundary edge 28–31: node 28 sits in shard 1's halo and node 31
    // in shard 0's, so *both* shards must re-repair their halos — a
    // one-sided repair would leave one shard answering on a stale
    // ghost ring.
    let boundary = [GraphUpdate::AddEdge { u: 28, v: 31, label: 0 }];
    mirror.apply(&boundary).expect("mirror");
    let before = service.shard_epochs();
    service.apply_update(&boundary).expect("boundary update");
    assert_eq!(bumped(&before, &service.shard_epochs()), vec![0, 1], "boundary edge hits both");
    assert_eq!(service.shard_epochs(), vec![2, 1], "independent epochs");
    check(&mirror, "after boundary edge");

    // Append a node hanging off the far end: only the last (open)
    // shard grows; shard 0's snapshot, epoch, and caches are untouched.
    let residents_before = service.resident_nodes(0);
    let append = [
        GraphUpdate::AddNode { label: 1 },
        GraphUpdate::AddEdge { u: 59, v: 60, label: 0 },
    ];
    mirror.apply(&append).expect("mirror");
    let before = service.shard_epochs();
    let report = service.apply_update(&append).expect("append update");
    assert_eq!(report.nodes_added, 1);
    assert_eq!(report.epoch, 2, "the highest shard epoch");
    assert_eq!(bumped(&before, &service.shard_epochs()), vec![1], "append lands on the open shard");
    assert_eq!(service.shard_epochs(), vec![2, 2]);
    assert_eq!(service.owned_range(1), (30, 61));
    assert_eq!(
        service.resident_nodes(0),
        residents_before,
        "the untouched shard keeps its snapshot"
    );
    assert!(
        service.resident_nodes(1).binary_search(&60).is_ok(),
        "the new node is resident in its owner"
    );
    check(&mirror, "after append");
}

#[test]
fn sharded_shutdown_sums_per_shard_drain_reports() {
    use psi_core::ABORTED_BY_SHUTDOWN_REASON;
    use std::time::Duration;

    let (ctx, queries) = deployment(77);
    let truth = ground_truth(&ctx, &queries);

    // Generous grace: everything drains, nothing aborts, answers stay
    // exact after the drain.
    let mut service = deploy(&ctx, DeploymentSpec::new().shards(3).workers(2));
    let handles: Vec<_> = queries
        .iter()
        .map(|q| service.submit(q.clone(), RunSpec::new()))
        .collect();
    let report = service.shutdown(Duration::from_secs(60));
    assert_eq!(report.aborted, 0, "{report:?}");
    // No lower bound on `drained`: jobs the workers finish *before*
    // shutdown is called are not part of the drain report, and on a
    // fast machine that can be most of the backlog.
    for (h, t) in handles.into_iter().zip(&truth) {
        assert_eq!(h.wait().valid, t.valid);
    }

    // Zero grace on a single-worker-per-shard backlog: the aggregate
    // report sees the stranded jobs, and every merged handle still
    // resolves — either to the exact answer or, when any of its shard
    // parts was aborted, to exactly the 1-shard aborted shape (never a
    // partial answer, never a hang). A heavier deployment keeps the
    // queues deep enough that a zero grace is guaranteed to strand
    // work.
    let g = generators::erdos_renyi(1500, 9000, 3, 78);
    let ctx = Arc::new(GraphContext::new(g.clone(), config()));
    let queries: Vec<_> = (0..4)
        .filter_map(|s| rwr::extract_query_seeded(&g, 5, 78 ^ (s * 977)))
        .collect();
    assert!(!queries.is_empty());
    let truth = ground_truth(&ctx, &queries);
    let mut service = deploy(&ctx, DeploymentSpec::new().shards(3));
    let handles: Vec<_> = (0..200)
        .map(|i| service.submit(queries[i % queries.len()].clone(), RunSpec::new()))
        .collect();
    let report = service.shutdown(Duration::ZERO);
    assert!(report.aborted > 0, "zero grace must strand jobs: {report:?}");
    let mut aborted_jobs = 0u64;
    for (i, h) in handles.into_iter().enumerate() {
        let q = i % queries.len();
        let r = h.wait();
        let mut aborted = PsiResult::empty(0, 0);
        aborted
            .failures
            .record(queries[q].pivot(), ABORTED_BY_SHUTDOWN_REASON, 0);
        if r == aborted {
            aborted_jobs += 1;
        } else {
            assert_eq!(projection(&r), projection(&truth[q]), "job {i}");
        }
    }
    assert!(aborted_jobs > 0, "aborts surface through merged handles");
}
