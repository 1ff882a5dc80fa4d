//! Differential tests for [`PsiService`]: a persistent worker pool
//! must be an *invisible* optimization. Every answer it produces has
//! to be bit-identical to a fresh sequential [`SmartPsi::run`] of the
//! same query — for any worker count, any submission order, any cache
//! warmth, and under injected chaos.
//!
//! The soundness argument being exercised: the shared cross-query
//! cache only ever stores *confirmed model predictions*, and the
//! models are deterministic per query shape (seeded RNG over the same
//! candidates), so a pre-warmed cache can change which code path
//! resolves a node but never the verdict; and the retry ladder's
//! unlimited stage 3 makes verdicts scheduling-independent.

use std::sync::Arc;

use proptest::prelude::*;
use psi_core::fault::{install_quiet_panic_hook, FaultKind, FaultPlan, ALWAYS};
use psi_core::{
    DeploymentSpec, GraphContext, PsiResult, PsiService, RunSpec, SmartPsi, SmartPsiConfig,
};
use psi_datasets::{generators, rwr};
use psi_graph::PivotedQuery;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Fisher–Yates with the workspace's deterministic RNG (the vendored
/// `rand` has no `SliceRandom`).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn deployment(seed: u64) -> (Arc<GraphContext>, Vec<PivotedQuery>) {
    let g = generators::erdos_renyi(350, 1400, 3, seed);
    let cfg = SmartPsiConfig {
        min_candidates_for_ml: 10,
        ..SmartPsiConfig::default()
    };
    let ctx = Arc::new(GraphContext::new(g.clone(), cfg));
    let queries: Vec<_> = (0..8)
        .filter_map(|s| rwr::extract_query_seeded(&g, 3 + (s as usize % 3), seed ^ (s * 977)))
        .collect();
    (ctx, queries)
}

/// A 1-shard service with `workers` workers over the shared context.
fn serve(ctx: Arc<GraphContext>, workers: usize) -> PsiService {
    SmartPsi::from_context(ctx).deploy(&DeploymentSpec::new().workers(workers))
}

/// Sequential ground truth for each query, computed on a fresh facade
/// with no shared cache.
fn ground_truth(ctx: &Arc<GraphContext>, queries: &[PivotedQuery]) -> Vec<PsiResult> {
    let smart = SmartPsi::from_context(ctx.clone());
    queries.iter().map(|q| smart.run(q, &RunSpec::new())).collect()
}

#[test]
fn shuffled_batches_match_sequential_across_worker_counts() {
    let (ctx, queries) = deployment(91);
    assert!(queries.len() >= 4, "need a real batch");
    let truth = ground_truth(&ctx, &queries);
    for workers in [1usize, 2, 4, 8] {
        let service = serve(ctx.clone(), workers);
        // Submit each query three times, in a worker-count-dependent
        // shuffled order, so cache warmth and interleaving vary.
        let mut jobs: Vec<usize> = (0..queries.len()).flat_map(|i| [i, i, i]).collect();
        shuffle(&mut jobs, workers as u64);
        let handles: Vec<(usize, _)> = jobs
            .iter()
            .map(|&i| (i, service.submit(queries[i].clone(), RunSpec::new())))
            .collect();
        for (i, h) in handles {
            assert_eq!(
                h.wait(),
                truth[i],
                "workers={workers}: service answer diverged for query {i}"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.queries_served, jobs.len() as u64);
        assert_eq!(stats.worker_panics, 0);
        assert_eq!(stats.distinct_query_shapes, queries.len());
        assert!(
            stats.cross_query_cache_hits > 0,
            "workers={workers}: repeated shapes must reuse the cache"
        );
    }
}

#[test]
fn chaos_jobs_still_match_clean_sequential_answers() {
    install_quiet_panic_hook();
    let (ctx, queries) = deployment(17);
    let truth = ground_truth(&ctx, &queries);
    let service = serve(ctx, 4);
    // One-shot seeded faults (panics, spurious interrupts, budget
    // burn): per-node isolation plus the retry ladder must absorb all
    // of them, so the *valid set* equals the clean run's. Steps and
    // failure accounting legitimately differ under faults, so compare
    // answers, not whole results.
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
fn job_that_kills_its_worker_is_requeued_then_failed_gracefully() {
    install_quiet_panic_hook();
    let (ctx, queries) = deployment(33);
    let truth = ground_truth(&ctx, &queries);
    let service = serve(ctx.clone(), 2);
    // A sticky ALWAYS-panic on every candidate of one query, with
    // per-node panic isolation disabled: the job's panic escapes to
    // the service's catch_unwind on every attempt. First attempt is
    // requeued, second produces a structured failure — and the healthy
    // jobs around it are answered correctly throughout.
    let q = &queries[0];
    let every_node: Vec<_> =
        psi_core::single::pivot_candidates(ctx.graph(), q).into_iter().collect();
    let poison = every_node
        .iter()
        .fold(FaultPlan::empty(), |p, &n| p.inject(n, FaultKind::Panic, ALWAYS));
    let poisoned = service.submit(
        q.clone(),
        RunSpec::new()
            .faults(Arc::new(poison))
            .panic_isolation(false),
    );
    let healthy: Vec<_> = queries[1..]
        .iter()
        .map(|hq| service.submit(hq.clone(), RunSpec::new()))
        .collect();

    let failed = poisoned.wait();
    assert!(failed.valid.is_empty());
    assert_eq!(failed.failures.len(), 1, "one structured failure entry");
    assert_eq!(failed.failures.worker_deaths, 2, "both attempts died");
    assert!(
        failed.failures.nodes[0].reason.contains("injected panic"),
        "reason must carry the panic payload: {:?}",
        failed.failures.nodes[0].reason
    );
    for (i, h) in healthy.into_iter().enumerate() {
        assert_eq!(h.wait(), truth[i + 1], "healthy query {} was disturbed", i + 1);
    }
    let stats = service.stats();
    assert_eq!(stats.requeued_jobs, 1, "poisoned job requeued exactly once");
    assert_eq!(stats.worker_panics, 2);
    // All jobs answered, including the failed one.
    assert_eq!(stats.queries_served, queries.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random deployments, worker counts, and submission shuffles —
    /// with and without seeded chaos — never change an answer.
    #[test]
    fn service_is_transparent(
        seed in 0u64..300,
        workers in 1usize..6,
        shuffle_seed in 0u64..1000,
        chaos in any::<bool>(),
    ) {
        install_quiet_panic_hook();
        let (ctx, queries) = deployment(seed);
        if queries.is_empty() {
            return Ok(());
        }
        let truth = ground_truth(&ctx, &queries);
        let service = serve(ctx, workers);
        let mut jobs: Vec<usize> = (0..queries.len()).flat_map(|i| [i, i]).collect();
        shuffle(&mut jobs, shuffle_seed);
        let fault = chaos.then(|| Arc::new(FaultPlan::seeded(seed ^ 0xc4a5, 0.02, 0.02, 0.01)));
        let handles: Vec<(usize, _)> = jobs
            .iter()
            .map(|&i| {
                let mut spec = RunSpec::new();
                if let Some(f) = &fault {
                    spec = spec.faults(f.clone());
                }
                (i, service.submit(queries[i].clone(), spec))
            })
            .collect();
        for (i, h) in handles {
            let r = h.wait();
            prop_assert_eq!(&r.valid, &truth[i].valid, "query {} diverged", i);
            prop_assert_eq!(r.unresolved, 0);
            if !chaos {
                prop_assert_eq!(&r, &truth[i], "clean run must be bit-identical");
            }
        }
    }
}

// ---------------------------------------------------------------
// Drain, deadlines, and shutdown: the service must answer EVERY
// accepted job exactly once — a result, a DEADLINE_EXPIRED_REASON
// failure, or an ABORTED_BY_SHUTDOWN_REASON failure — no matter how
// rudely it is torn down.
// ---------------------------------------------------------------

use std::time::{Duration, Instant};

use psi_core::{EvalLimits, ABORTED_BY_SHUTDOWN_REASON, DEADLINE_EXPIRED_REASON};

#[test]
fn shutdown_with_zero_grace_aborts_queued_jobs_but_answers_every_handle() {
    let (ctx, queries) = deployment(17);
    let mut service = serve(ctx, 1);
    let handles: Vec<_> = (0..200)
        .map(|i| service.submit(queries[i % queries.len()].clone(), RunSpec::new()))
        .collect();

    let report = service.shutdown(Duration::ZERO);
    assert!(report.aborted > 0, "zero grace must strand jobs: {report:?}");

    let mut aborted_seen = 0u64;
    for h in handles {
        let r = h.wait(); // never hangs: every slot was filled
        if r.failures.nodes.iter().any(|f| f.reason == ABORTED_BY_SHUTDOWN_REASON) {
            assert!(r.valid.is_empty(), "aborted jobs never ran");
            aborted_seen += 1;
        } else {
            assert_eq!(r.unresolved, 0, "drained jobs are real answers");
        }
    }
    assert_eq!(aborted_seen, report.aborted, "report matches the handles");
    assert_eq!(service.stats().drained, report.drained);

    // Idempotent, and late submissions are refused with the same
    // structured failure rather than queued into a dead pool.
    assert_eq!(service.shutdown(Duration::from_secs(1)), psi_core::DrainReport::default());
    let late = service.submit(queries[0].clone(), RunSpec::new()).wait();
    assert!(
        late.failures.nodes.iter().any(|f| f.reason == ABORTED_BY_SHUTDOWN_REASON),
        "{late:?}"
    );
}

#[test]
fn generous_grace_drains_everything_without_aborts() {
    let (ctx, queries) = deployment(18);
    let truth = ground_truth(&ctx, &queries);
    let mut service = serve(ctx, 2);
    let handles: Vec<_> = queries
        .iter()
        .map(|q| service.submit(q.clone(), RunSpec::new()))
        .collect();
    let report = service.shutdown(Duration::from_secs(60));
    assert_eq!(report.aborted, 0, "{report:?}");
    // A job can finish before `shutdown` snapshots the served count,
    // so `drained` may undercount the backlog; nothing is lost.
    assert!(report.drained as usize <= queries.len(), "{report:?}");
    assert_eq!(service.stats().queries_served, queries.len() as u64);
    for (h, t) in handles.into_iter().zip(&truth) {
        assert_eq!(h.wait().valid, t.valid, "drained answers stay correct");
    }
}

#[test]
fn jobs_expired_in_queue_report_deadline_expired_and_never_run() {
    let (ctx, queries) = deployment(19);
    let service = serve(ctx, 1);
    let expired = EvalLimits::unlimited().with_deadline(Instant::now());
    let handles: Vec<_> = (0..8)
        .map(|i| {
            service.submit(
                queries[i % queries.len()].clone(),
                RunSpec::new().limits(expired.clone()),
            )
        })
        .collect();
    for h in handles {
        let r = h.wait();
        assert!(r.valid.is_empty(), "expired jobs must not run: {r:?}");
        assert_eq!(r.failures.nodes.len(), 1);
        assert_eq!(r.failures.nodes[0].reason, DEADLINE_EXPIRED_REASON);
    }
    let stats = service.stats();
    assert_eq!(stats.deadline_expired, 8);
    // Expired jobs are ANSWERED (counted served), not lost.
    assert_eq!(stats.queries_served, 8);

    // A live deadline on an empty queue still evaluates normally.
    let roomy = EvalLimits::unlimited().with_deadline(Instant::now() + Duration::from_secs(60));
    let r = service
        .submit(queries[0].clone(), RunSpec::new().limits(roomy))
        .wait();
    assert!(r.failures.is_clean(), "{r:?}");
}

#[test]
fn apply_update_racing_a_drain_keeps_epoch_and_answer_invariants() {
    use psi_graph::GraphUpdate;
    use std::sync::RwLock;

    let g = generators::erdos_renyi(350, 1400, 3, 23);
    let queries: Vec<_> = (0..4)
        .filter_map(|s| rwr::extract_query_seeded(&g, 3, 23 ^ (s * 977)))
        .collect();
    assert!(!queries.is_empty());
    let label_capacity = g.label_count();
    let smart = SmartPsi::new(g, SmartPsiConfig::default());
    let service = Arc::new(RwLock::new(
        smart
            .deploy(&DeploymentSpec::new().workers(2).evolving(label_capacity)),
    ));

    // A mutator thread interleaves updates and submissions through the
    // read lock (the same aliasing discipline the network front door
    // uses) while the main thread drains through the write lock.
    let mutator = {
        let service = Arc::clone(&service);
        let queries = queries.clone();
        std::thread::spawn(move || {
            let mut handles = Vec::new();
            let mut epochs = 0u64;
            for round in 0..50u32 {
                let Ok(svc) = service.read() else { break };
                let update = [GraphUpdate::AddNode { label: (round % 3) as u16 }];
                match svc.apply_update(&update) {
                    Ok(report) => {
                        epochs += 1;
                        assert_eq!(report.epoch, epochs, "epochs stay dense");
                    }
                    // After the drain flips the shutdown flag the
                    // deployment is read-only; that is a clean stop.
                    Err(_) => break,
                }
                handles.push(svc.submit(queries[round as usize % queries.len()].clone(), RunSpec::new()));
            }
            (handles, epochs)
        })
    };

    std::thread::sleep(Duration::from_millis(20));
    let report = service.write().unwrap().shutdown(Duration::from_secs(30));
    let (handles, epochs) = mutator.join().expect("mutator thread");

    // Every job submitted before the drain completes resolves: a real
    // answer or the structured abort — nothing hangs, nothing is lost.
    let mut answered = 0u64;
    for h in handles {
        let r = h.wait();
        let aborted = r
            .failures
            .nodes
            .iter()
            .any(|f| f.reason == ABORTED_BY_SHUTDOWN_REASON);
        assert!(aborted || r.unresolved == 0, "{r:?}");
        answered += 1;
    }
    assert!(answered > 0);
    assert!(epochs > 0, "the race must exercise at least one update");
    let stats = service.read().unwrap().stats();
    assert_eq!(stats.graph_epoch, epochs, "final epoch matches applied updates");
    assert_eq!(stats.drained, report.drained);
}

// ---------------------------------------------------------------
// The bounded shape table: at most MAX_LIVE_SHAPES per-shape caches
// stay live, least recently used evicted first, and answers never
// depend on which shapes happen to be resident.
// ---------------------------------------------------------------

use psi_core::MAX_LIVE_SHAPES;

/// `n` queries of pairwise distinct shape (labels, edges, pivot) on a
/// fresh deployment, plus that deployment.
fn distinct_shapes(seed: u64, n: usize) -> (Arc<GraphContext>, Vec<PivotedQuery>) {
    let g = generators::erdos_renyi(350, 1400, 3, seed);
    let cfg = SmartPsiConfig {
        min_candidates_for_ml: 10,
        ..SmartPsiConfig::default()
    };
    let ctx = Arc::new(GraphContext::new(g.clone(), cfg));
    let mut seen = std::collections::HashSet::new();
    let queries: Vec<_> = (0..10_000u64)
        .filter_map(|s| rwr::extract_query_seeded(&g, 3 + (s as usize % 3), seed ^ (s * 977)))
        .filter(|q| {
            let g = q.graph();
            seen.insert((g.labels().to_vec(), g.edges().collect::<Vec<_>>(), q.pivot()))
        })
        .take(n)
        .collect();
    assert_eq!(queries.len(), n, "not enough distinct shapes");
    (ctx, queries)
}

#[test]
fn more_shapes_than_the_bound_evict_lru_and_stay_exact() {
    let shapes = MAX_LIVE_SHAPES + 16;
    let (ctx, queries) = distinct_shapes(61, shapes);
    let truth = ground_truth(&ctx, &queries);
    let service = serve(ctx, 2);
    let handles: Vec<_> = queries
        .iter()
        .map(|q| service.submit(q.clone(), RunSpec::new()))
        .collect();
    for (i, (h, t)) in handles.into_iter().zip(&truth).enumerate() {
        assert_eq!(&h.wait(), t, "query {i} diverged from the sequential run");
    }
    let stats = service.stats();
    assert_eq!(stats.queries_served, shapes as u64);
    assert_eq!(stats.distinct_query_shapes, MAX_LIVE_SHAPES, "{stats:?}");
    assert_eq!(stats.cache_evictions, (shapes - MAX_LIVE_SHAPES) as u64, "{stats:?}");

    // A second pass over every shape runs on evicted and resident
    // caches alike; answers stay bit-identical and the table bounded.
    let handles: Vec<_> = queries
        .iter()
        .map(|q| service.submit(q.clone(), RunSpec::new()))
        .collect();
    for (i, (h, t)) in handles.into_iter().zip(&truth).enumerate() {
        assert_eq!(&h.wait(), t, "query {i} diverged on the second pass");
    }
    assert!(service.stats().distinct_query_shapes <= MAX_LIVE_SHAPES);
}

#[test]
fn hot_shape_stays_resident_between_churned_shapes() {
    let churn = 2 * MAX_LIVE_SHAPES;
    let (ctx, mut queries) = distinct_shapes(62, churn + 1);
    let hot = queries.pop().expect("hot query");
    let hot_truth = ground_truth(&ctx, std::slice::from_ref(&hot)).remove(0);
    let service = serve(ctx, 1);
    assert_eq!(service.submit(hot.clone(), RunSpec::new()).wait(), hot_truth);

    // Serve the hot shape after every 8 one-off shapes: it is used far
    // more recently than the 64th-oldest shape, so it is never the one
    // evicted, and every visit reuses its cache.
    let mut hits = service.stats().cross_query_cache_hits;
    for (i, chunk) in queries.chunks(8).enumerate() {
        for q in chunk {
            service.submit(q.clone(), RunSpec::new()).wait();
        }
        assert_eq!(service.submit(hot.clone(), RunSpec::new()).wait(), hot_truth);
        let now = service.stats().cross_query_cache_hits;
        assert!(now > hits, "visit {i}: hot shape lost its cache ({now} <= {hits})");
        hits = now;
    }
    let stats = service.stats();
    assert!(stats.distinct_query_shapes <= MAX_LIVE_SHAPES, "{stats:?}");
    assert_eq!(stats.cache_evictions, (churn + 1 - MAX_LIVE_SHAPES) as u64, "{stats:?}");
}

#[test]
fn every_shard_bounds_its_own_shape_table() {
    let shapes = MAX_LIVE_SHAPES + 16;
    let (ctx, queries) = distinct_shapes(63, shapes);
    let truth = ground_truth(&ctx, &queries);
    let halo = queries
        .iter()
        .map(|q| q.graph().bfs_distances(q.pivot()).into_iter().filter(|&d| d != u32::MAX).max())
        .max()
        .flatten()
        .unwrap_or(1)
        .max(1);
    let spec = DeploymentSpec::new().shards(2).workers(2).halo(halo);
    let service = SmartPsi::from_context(ctx.clone()).deploy(&spec);
    let handles: Vec<_> = queries
        .iter()
        .map(|q| service.submit(q.clone(), RunSpec::new()))
        .collect();
    for (i, (h, t)) in handles.into_iter().zip(&truth).enumerate() {
        assert_eq!(h.wait().valid, t.valid, "query {i} diverged");
    }
    // A shard runs one job per query it owns a candidate of, and every
    // shape is distinct, so each shard's table fills to the bound and
    // then evicts once per further job — per shard, not deployment-wide.
    let jobs: Vec<u64> = (0..service.shard_count())
        .map(|s| {
            let (lo, hi) = service.owned_range(s);
            queries
                .iter()
                .filter(|q| {
                    psi_core::single::pivot_candidates(ctx.graph(), q)
                        .iter()
                        .any(|c| (lo..hi).contains(c))
                })
                .count() as u64
        })
        .collect();
    let bound = MAX_LIVE_SHAPES as u64;
    let stats = service.stats();
    assert_eq!(stats.queries_served, jobs.iter().sum::<u64>(), "{jobs:?}");
    assert_eq!(
        stats.distinct_query_shapes as u64,
        jobs.iter().map(|&j| j.min(bound)).sum::<u64>(),
        "every shard holds at most the bound: {jobs:?} {stats:?}"
    );
    assert_eq!(
        stats.cache_evictions,
        jobs.iter().map(|&j| j.saturating_sub(bound)).sum::<u64>(),
        "every shape past a shard's bound evicts one: {jobs:?} {stats:?}"
    );
    assert!(stats.cache_evictions > 0, "the bound was exercised");
}
