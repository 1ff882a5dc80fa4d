//! Serve bench — persistent [`PsiService`] vs. per-query scoped pools
//! on a shuffled query stream. Writes `BENCH_serve.json`.
//!
//! PR 4's throughput claim: once the engine layers share an immutable
//! [`GraphContext`], a long-lived worker pool with a submission queue
//! must beat spawning a fresh work-stealing pool inside every
//! `SmartPsi::run` call. Three arms over the same ≥64-job batch
//! (16 distinct query shapes, each submitted several times, order
//! shuffled):
//!
//! * **sequential** — one `RunSpec::new()` run per job, no threads;
//!   the reference answer set and a floor for the comparison.
//! * **scoped pools** — `RunSpec::new().threads(W)` per job: the
//!   pre-PR-4 calling convention, paying pool spawn/join and a cold
//!   prediction cache on every job. The spawn bill is also measured
//!   separately (sum of `Phase::PoolSpawn` spans over a recorded
//!   pass), matching the `pool_spawn_ms` column in
//!   `BENCH_parallel.json`.
//! * **service** — one deployed `PsiService` pool for the whole batch:
//!   spawn once, queue jobs, share a cross-query prediction cache
//!   keyed by query shape.
//!
//! The run *asserts* (with slack for scheduler noise, tunable via
//! `PSI_SERVE_SLACK`) that the service arm is at least as fast as the
//! scoped-pool arm, so `ci.sh` fails if the persistent service ever
//! regresses below the per-query convention it exists to replace. It
//! also cross-checks every service answer against the sequential
//! reference — a throughput win with wrong answers is no win.
//!
//! [`PsiService`]: psi_core::PsiService
//! [`GraphContext`]: psi_core::GraphContext

use std::fmt::Write as _;
use std::sync::Arc;

use psi_bench::{slack, time, write_bench_json, ResultTable};
use psi_core::obs::{MetricsRecorder, Phase};
use psi_core::{DeploymentSpec, RunSpec, SmartPsi, SmartPsiConfig};
use psi_datasets::{generators, QueryWorkload};
use psi_graph::PivotedQuery;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Timing rounds per arm; the minimum is recorded.
const ROUNDS: usize = 3;
/// Worker / thread count for both parallel arms.
const WORKERS: usize = 4;
/// Times each distinct query shape appears in the batch.
const REPEATS: usize = 6;

/// Fisher–Yates with the workspace's deterministic RNG (the vendored
/// `rand` has no `SliceRandom`).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn main() {
    let slack = slack("PSI_SERVE_SLACK", 1.15);
    let deploy_spec = DeploymentSpec::new().workers(WORKERS);

    // A labeled graph keeps individual queries cheap, so per-job pool
    // setup is a real fraction of the bill — the regime a query stream
    // lives in (cf. the scaling study in fig9, which goes single-label
    // to stress the cache instead).
    let g = generators::erdos_renyi(2_000, 8_000, 3, 7);
    let cfg = SmartPsiConfig {
        min_candidates_for_ml: 10,
        ..SmartPsiConfig::default()
    };
    let smart = SmartPsi::new(g.clone(), cfg);

    let mut queries: Vec<PivotedQuery> = Vec::new();
    for size in 4..=6usize {
        if let Some(w) = QueryWorkload::extract(&g, size, 6, 100 + size as u64) {
            queries.extend(w.queries);
        }
    }
    queries.truncate(16);
    assert!(queries.len() >= 11, "need a real shape mix, got {}", queries.len());

    let mut order: Vec<usize> =
        (0..queries.len()).flat_map(|i| std::iter::repeat_n(i, REPEATS)).collect();
    shuffle(&mut order, 0xba7c4);
    assert!(order.len() >= 64, "acceptance requires a ≥64-job batch");
    eprintln!(
        "[serve] |V|={} |E|={}, {} jobs over {} shapes, {} workers",
        g.node_count(),
        g.edge_count(),
        order.len(),
        queries.len(),
        WORKERS
    );

    // Reference answers, and the correctness bar for the service arm.
    let truth: Vec<_> = queries.iter().map(|q| smart.run(q, &RunSpec::new())).collect();

    let seq_spec = RunSpec::new();
    let scoped_spec = RunSpec::new().threads(WORKERS);

    let mut t_seq = f64::MAX;
    let mut t_scoped = f64::MAX;
    let mut t_service = f64::MAX;
    for _ in 0..ROUNDS {
        let (_, t) = time(|| {
            for &i in &order {
                let _ = smart.run(&queries[i], &seq_spec);
            }
        });
        t_seq = t_seq.min(t.as_secs_f64() * 1e3);

        // The historical convention: a fresh pool (and a cold cache)
        // inside every call.
        let (_, t) = time(|| {
            for &i in &order {
                let _ = smart.run(&queries[i], &scoped_spec);
            }
        });
        t_scoped = t_scoped.min(t.as_secs_f64() * 1e3);

        // One pool for the whole batch; spawn, queue drain, and join
        // are all inside the timed region — the service pays its setup
        // once, not per job.
        let (_, t) = time(|| {
            let service = smart.deploy(&deploy_spec);
            let handles: Vec<_> = order
                .iter()
                .map(|&i| service.submit(queries[i].clone(), RunSpec::new()))
                .collect();
            for h in handles {
                let _ = h.wait();
            }
            drop(service);
        });
        t_service = t_service.min(t.as_secs_f64() * 1e3);
    }

    // The scoped arm's spawn bill, measured the same way fig9 reports
    // `pool_spawn_ms`: one recorded pass, summing per-worker
    // `Phase::PoolSpawn` spans across the batch. A profile absorbs the
    // recorder without draining it, so each run needs a fresh one.
    let spawn_ns: u64 = order
        .iter()
        .map(|&i| {
            let recorded = scoped_spec.clone().recorder(Arc::new(MetricsRecorder::new()));
            let r = smart.run(&queries[i], &recorded);
            r.profile.as_ref().map_or(0, |p| p.span(Phase::PoolSpawn).as_nanos() as u64)
        })
        .sum();
    let scoped_spawn_ms = spawn_ns as f64 / 1e6;

    // Untimed verification pass: every service answer must be
    // bit-identical to the sequential reference, and the shared cache
    // must actually carry cross-query traffic.
    let service = smart.deploy(&deploy_spec);
    let handles: Vec<(usize, _)> = order
        .iter()
        .map(|&i| (i, service.submit(queries[i].clone(), RunSpec::new())))
        .collect();
    for (i, h) in handles {
        assert_eq!(h.wait(), truth[i], "service diverged from sequential on query {i}");
    }
    let stats = service.stats();
    drop(service);
    assert_eq!(stats.queries_served, order.len() as u64);
    assert_eq!(stats.worker_panics, 0);
    assert!(stats.cross_query_cache_hits > 0, "repeated shapes must reuse the cache");

    let speedup = t_scoped / t_service.max(1e-9);
    let jobs_per_sec = order.len() as f64 / (t_service / 1e3).max(1e-9);
    let mut table = ResultTable::new(
        "serve",
        &["arm", "total_ms", "jobs_per_sec"],
    );
    for (arm, ms) in [("sequential", t_seq), ("scoped pools", t_scoped), ("service", t_service)] {
        table.row(vec![
            arm.into(),
            format!("{ms:.1}"),
            format!("{:.0}", order.len() as f64 / (ms / 1e3).max(1e-9)),
        ]);
    }
    table.finish();
    println!(
        "service vs scoped pools: {speedup:.2}x  (scoped spawn bill {scoped_spawn_ms:.2} ms, \
         {} cross-query cache hits over {} shapes)",
        stats.cross_query_cache_hits, stats.distinct_query_shapes
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"experiment\": \"serve throughput: persistent PsiService vs per-query scoped pools \
         ({} jobs, {} shapes, best of {ROUNDS} rounds)\",",
        order.len(),
        queries.len()
    );
    let _ = writeln!(json, "  \"workers\": {WORKERS},");
    let _ = writeln!(json, "  \"jobs\": {},", order.len());
    let _ = writeln!(json, "  \"distinct_queries\": {},", queries.len());
    let _ = writeln!(json, "  \"sequential_ms\": {t_seq:.1},");
    let _ = writeln!(json, "  \"scoped_pool_ms\": {t_scoped:.1},");
    let _ = writeln!(json, "  \"scoped_pool_spawn_ms\": {scoped_spawn_ms:.2},");
    let _ = writeln!(json, "  \"service_ms\": {t_service:.1},");
    let _ = writeln!(json, "  \"service_speedup_vs_scoped\": {speedup:.3},");
    let _ = writeln!(json, "  \"service_jobs_per_sec\": {jobs_per_sec:.0},");
    let _ = writeln!(json, "  \"cross_query_cache_hits\": {},", stats.cross_query_cache_hits);
    let _ = writeln!(json, "  \"slack\": {slack}");
    let _ = writeln!(json, "}}");
    write_bench_json("BENCH_serve.json", &json);

    // The CI gate: a persistent service that loses to re-spawning a
    // pool per query has no reason to exist.
    assert!(
        t_service <= t_scoped * slack,
        "service arm regressed: {t_service:.1} ms vs scoped {t_scoped:.1} ms (slack {slack})"
    );
    println!("serve: service within {slack}x of scoped pools — PASS");
}
