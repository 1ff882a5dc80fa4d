//! Differential tests for the online α/β adaptation layer (DESIGN.md
//! §19): a deployment that pools per-query feedback and periodically
//! refits its models must change *costs only* — never answers, and
//! never anything at all when it is switched off.
//!
//! The contract under test, in order of severity:
//!
//! * **Off ⟹ bit-identical.** A deployment without
//!   [`DeploymentSpec::adaptive`] produces results byte-equal to a
//!   fresh sequential [`SmartPsi::run`] — PR 10 must be invisible
//!   until opted into.
//! * **On ⟹ verdict-identical.** Adapted models and ε-exploration
//!   re-route nodes between the optimist and the pessimist, but the
//!   retry ladder's unlimited stage 3 keeps every verdict exact.
//! * **Deterministic.** Serial submission fixes the admission order,
//!   and the admission order alone drives the ε stream, the refit
//!   points, and the refit seeds — so worker count cannot matter.
//! * **Chaos-proof.** Injected faults during an adapting stream are
//!   absorbed by the same ladder that protects frozen serving.

use std::sync::Arc;

use psi_core::fault::{install_quiet_panic_hook, FaultPlan};
use psi_core::{
    AdaptiveConfig, DeploymentSpec, GraphContext, PsiResult, RunSpec,
    SmartPsi, SmartPsiConfig,
};
use psi_datasets::{generators, rwr};
use psi_graph::PivotedQuery;

/// A deployment big enough to take the ML + pool path, with a query
/// mix cycled into a stream long enough to cross several refit points.
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

/// Serve `rounds` cycles of the query mix serially (submit, wait,
/// repeat — the deterministic regime) and return every result.
fn serve_stream(
    smart: &SmartPsi,
    spec: &DeploymentSpec,
    queries: &[PivotedQuery],
    rounds: usize,
    run: &RunSpec,
) -> (Vec<PsiResult>, Option<psi_core::AdaptiveStats>) {
    let service = smart.deploy(spec);
    let mut results = Vec::with_capacity(rounds * queries.len());
    for _ in 0..rounds {
        for q in queries {
            results.push(service.submit(q.clone(), run.clone()).wait());
        }
    }
    let stats = service.adaptive_stats();
    (results, stats)
}

/// Worker count must be invisible to an adapting deployment: serial
/// submission pins the admission order, and admission order is the
/// *only* input to the ε draws, the refit points, and the refit
/// seeds — so 1, 2, 4 and 8 workers replay the identical adaptation
/// trajectory, down to full result equality and identical counters.
#[test]
fn refit_trajectory_is_deterministic_across_worker_counts() {
    let (ctx, queries) = deployment(23);
    let smart = SmartPsi::from_context(ctx);
    let spec =
        |w: usize| DeploymentSpec::new().workers(w).adaptive_config(AdaptiveConfig::new(4, 0.1));
    let (baseline, base_stats) =
        serve_stream(&smart, &spec(1), &queries, 4, &RunSpec::new());
    let base_stats = base_stats.expect("adaptive deployment");
    assert!(base_stats.refits > 0, "the stream must cross refit points: {base_stats:?}");
    assert!(base_stats.feedback_samples > 0, "{base_stats:?}");

    for workers in [2usize, 4, 8] {
        let (results, stats) = serve_stream(&smart, &spec(workers), &queries, 4, &RunSpec::new());
        assert_eq!(
            results, baseline,
            "workers={workers}: adaptation trajectory diverged from 1-worker replay"
        );
        assert_eq!(stats, Some(base_stats), "workers={workers}: counters diverged");
    }
}

/// With adaptation left off, the whole PR is invisible: a plain
/// deployment's answers are byte-equal to fresh sequential runs, and
/// switching adaptation *on* over the same stream still moves no
/// verdict.
#[test]
fn adaptation_off_is_bit_identical_and_on_is_verdict_identical() {
    let (ctx, queries) = deployment(31);
    let smart = SmartPsi::from_context(ctx.clone());
    let truth: Vec<PsiResult> = {
        let fresh = SmartPsi::from_context(ctx);
        queries.iter().map(|q| fresh.run(q, &RunSpec::new())).collect()
    };

    let (frozen, frozen_stats) =
        serve_stream(&smart, &DeploymentSpec::new().workers(2), &queries, 1, &RunSpec::new());
    assert!(frozen_stats.is_none(), "frozen deployments expose no adaptation stats");
    for (r, t) in frozen.iter().zip(&truth) {
        assert_eq!(r, t, "frozen service must be bit-identical to sequential runs");
    }

    let (adaptive, stats) = serve_stream(
        &smart,
        &DeploymentSpec::new().workers(2).adaptive(2, 0.2),
        &queries,
        4,
        &RunSpec::new(),
    );
    let stats = stats.expect("adaptive deployment");
    assert!(stats.refits > 0, "{stats:?}");
    for (i, r) in adaptive.iter().enumerate() {
        let t = &truth[i % queries.len()];
        assert_eq!(r.valid, t.valid, "adaptation moved a verdict on job {i}");
        assert_eq!(r.candidates, t.candidates);
        assert_eq!(r.unresolved, 0);
    }
}

/// The ε-exploration floor fires at its configured per-query rate
/// (the draw is a seeded deterministic stream — the bounds document
/// the binomial tolerance, not flakiness), and an explored run marks
/// *every* harvested row as explored so accuracy metrics can skip
/// exactly the rows whose method choice carried no signal.
#[test]
fn exploration_floor_rate_and_row_marking() {
    let (ctx, queries) = deployment(47);
    let smart = SmartPsi::from_context(ctx);
    // Cadence far beyond the stream: isolates exploration from refits.
    let spec = DeploymentSpec::new()
        .workers(2)
        .adaptive_config(AdaptiveConfig::new(1_000_000, 0.25));
    let rounds = 15; // 120 jobs at ε = 0.25 ⟹ ~30 explored
    let (results, stats) = serve_stream(&smart, &spec, &queries, rounds, &RunSpec::new());
    let stats = stats.expect("adaptive deployment");
    assert_eq!(stats.refits, 0, "cadence never reached: {stats:?}");
    assert_eq!(stats.model_version, 0, "{stats:?}");

    let jobs = (rounds * queries.len()) as u64;
    assert!(
        stats.exploration_runs * 4 >= jobs / 2 && stats.exploration_runs * 4 <= jobs * 2,
        "ε = 0.25 over {jobs} jobs explored {} times — outside [ε/2, 2ε]",
        stats.exploration_runs
    );

    let mut explored_jobs = 0u64;
    for r in &results {
        let flags: Vec<bool> = r.feedback.iter().map(|row| row.explored).collect();
        assert!(
            flags.iter().all(|&f| f == flags[0]),
            "exploration is a per-run choice; rows must agree"
        );
        explored_jobs += u64::from(flags.first().copied().unwrap_or(false));
    }
    assert_eq!(
        explored_jobs, stats.exploration_runs,
        "row marking must reconcile with the counter"
    );
}

/// Injected chaos during an adapting stream — one-shot panics,
/// spurious interrupts and budget burns — changes step accounting
/// (and therefore possibly the refit inputs), but the retry ladder
/// keeps every verdict identical to the clean adapting run, with
/// nothing unresolved and the refit loop still alive.
#[test]
fn refits_under_chaos_leave_answers_invariant() {
    install_quiet_panic_hook();
    let (ctx, queries) = deployment(59);
    let smart = SmartPsi::from_context(ctx);
    let spec = DeploymentSpec::new().workers(2).adaptive(4, 0.1);
    let (clean, clean_stats) = serve_stream(&smart, &spec, &queries, 4, &RunSpec::new());
    let clean_stats = clean_stats.expect("adaptive deployment");
    assert!(clean_stats.refits > 0, "{clean_stats:?}");

    let fault = Arc::new(FaultPlan::seeded(7, 0.05, 0.05, 0.05));
    let (chaos, chaos_stats) =
        serve_stream(&smart, &spec, &queries, 4, &RunSpec::new().faults(fault));
    let chaos_stats = chaos_stats.expect("adaptive deployment");
    assert!(chaos_stats.refits > 0, "chaos must not starve the refit loop: {chaos_stats:?}");
    assert_eq!(
        chaos_stats.feedback_samples, clean_stats.feedback_samples,
        "every job still reports feedback under chaos"
    );
    for (i, (c, r)) in clean.iter().zip(&chaos).enumerate() {
        assert_eq!(r.valid, c.valid, "chaos changed the answer of job {i}");
        assert_eq!(r.unresolved, 0, "chaos left job {i} unresolved");
        assert!(r.failures.nodes.is_empty(), "one-shot faults must be recovered: job {i}");
    }
}

/// The sharded deployment's collect-only cells plus coordinator-merged
/// refits stay answer-invariant against single-context ground truth,
/// and the merged counters prove the loop ran (rows pooled from every
/// shard, at least one merged refit installed everywhere).
#[test]
fn sharded_merged_refits_stay_answer_invariant() {
    let (ctx, queries) = deployment(67);
    let truth: Vec<PsiResult> = {
        let fresh = SmartPsi::from_context(ctx.clone());
        queries.iter().map(|q| fresh.run(q, &RunSpec::new())).collect()
    };
    let spec = DeploymentSpec::new()
        .shards(3)
        .workers(2)
        .adaptive_config(AdaptiveConfig::new(4, 0.1));
    let service = SmartPsi::from_context(ctx.clone()).deploy(&spec);
    for round in 0..4 {
        for (i, q) in queries.iter().enumerate() {
            let r = service.submit(q.clone(), RunSpec::new()).wait();
            assert_eq!(
                r.valid, truth[i].valid,
                "round {round}: sharded adaptation moved a verdict on query {i}"
            );
            assert_eq!(r.unresolved, 0);
        }
    }
    let stats = service.adaptive_stats().expect("adaptive sharded deployment");
    assert!(stats.refits > 0, "coordinator must merge-refit: {stats:?}");
    assert!(stats.feedback_samples > 0, "{stats:?}");
}
