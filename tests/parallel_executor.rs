//! Determinism and limit-observance tests for the work-stealing
//! parallel SmartPSI executor (`psi_core::engine::exec`).
//!
//! The executor's contract: the whole result — the sorted `valid`
//! vector, steps, failures and the accounting counters — is identical
//! for every worker count and repeated run, the valid set is identical
//! for every grab size and cache mode, and a global deadline or cancel
//! flag stops the whole pool promptly, reporting untouched candidates
//! as unresolved.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smartpsi::core::evaluator::{NodeEvaluator, QueryContext};
use smartpsi::core::obs::{Counter, MetricsRecorder};
use smartpsi::core::{
    heuristic_plan, EvalLimits, PsiResult, RunSpec, SmartPsi, SmartPsiConfig, Strategy, Verdict,
};
use smartpsi::datasets::{generators, rwr};
use smartpsi::graph::PivotedQuery;

/// Stage counter from the result's attached profile (0 if absent).
fn counter(r: &PsiResult, c: Counter) -> u64 {
    r.profile.as_ref().map_or(0, |p| p.counter(c))
}

fn deployment() -> (SmartPsi, PivotedQuery) {
    deployment_with(SmartPsiConfig::default())
}

/// The shared workload on a deployment of `cfg`, forced onto the ML
/// path.
fn deployment_with(cfg: SmartPsiConfig) -> (SmartPsi, PivotedQuery) {
    let g = generators::erdos_renyi(600, 2600, 3, 17);
    let q = rwr::extract_query_seeded(&g, 5, 11).expect("query extraction");
    let cfg = SmartPsiConfig {
        min_candidates_for_ml: 10, // force the ML + pool path
        ..cfg
    };
    (SmartPsi::new(g, cfg), q)
}

#[test]
fn valid_set_is_identical_across_worker_counts_and_runs() {
    let (smart, q) = deployment();
    // A fresh recorder per run, so the recorder-only counters
    // (`MlInferences`, `PrefilterPruned`) are this run's alone.
    let recorded = |spec: RunSpec| smart.run(&q, &spec.recorder(Arc::new(MetricsRecorder::new())));
    let baseline = recorded(RunSpec::new());
    assert!(baseline.candidates >= 10, "needs the ML path");
    assert!(counter(&baseline, Counter::MlInferences) > 0, "the forests ran");
    for threads in [1usize, 2, 4, 8] {
        for run in 0..2 {
            let r = recorded(RunSpec::new().threads(threads));
            assert_eq!(
                r.valid, baseline.valid,
                "threads={threads} run={run}: valid set must be byte-identical"
            );
            // One driver at every worker count and one phase-A plan:
            // the whole result (steps and failures too) matches.
            assert_eq!(r, baseline, "threads={threads} run={run}: whole result");
            assert_eq!(r.unresolved, 0, "unlimited run resolves everything");
            // Phase A dedupes identical rows on the calling thread, so
            // how many forest calls ran cannot depend on the schedule.
            for c in [
                Counter::TrainedNodes,
                Counter::PredictedValid,
                Counter::CacheHits,
                Counter::MlInferences,
                Counter::PrefilterPruned,
            ] {
                assert_eq!(
                    counter(&r, c),
                    counter(&baseline, c),
                    "threads={threads} run={run}: {c:?}"
                );
            }
            let alpha = |r: &PsiResult| r.profile.as_ref().map_or(0.0, |p| p.alpha_accuracy);
            assert_eq!(
                alpha(&r).to_bits(),
                alpha(&baseline).to_bits(),
                "threads={threads} run={run}: alpha_accuracy bits"
            );
            assert_eq!(
                counter(&r, Counter::TrainedNodes)
                    + counter(&r, Counter::ResolvedS1)
                    + counter(&r, Counter::RecoveredS2)
                    + counter(&r, Counter::RecoveredS3),
                r.candidates as u64,
                "stage accounting is complete at threads={threads}"
            );
        }
    }
}

#[test]
fn valid_set_is_invariant_to_grab_size_and_cache_mode() {
    let (smart, q) = deployment();
    let baseline = smart.run(&q, &RunSpec::new()).valid;
    for enable_cache in [true, false] {
        let (deployed, q) = deployment_with(SmartPsiConfig {
            enable_cache,
            ..SmartPsiConfig::default()
        });
        for grab in [1usize, 3, 64] {
            let spec = RunSpec::new().threads(4).grab(grab);
            let r = deployed.run(&q, &spec);
            assert_eq!(r.valid, baseline, "grab={grab} enable_cache={enable_cache}");
        }
    }
}

#[test]
fn pre_set_cancel_flag_stops_every_worker_before_any_work() {
    let (smart, q) = deployment();
    let flag = Arc::new(AtomicBool::new(true));
    let spec = RunSpec::new()
        .threads(8)
        .limits(EvalLimits::unlimited().with_cancel(flag));
    let t0 = Instant::now();
    let r = smart.run(&q, &spec);
    assert!(r.valid.is_empty());
    assert_eq!(r.unresolved, r.candidates, "nothing resolves");
    assert_eq!(counter(&r, Counter::TrainedNodes), 0, "training observes the flag too");
    // Not a tight bound — just "did not evaluate the whole workload".
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "a cancelled pool must return promptly"
    );
}

#[test]
fn expired_deadline_reports_all_candidates_unresolved() {
    let (smart, q) = deployment();
    let spec = RunSpec::new()
        .threads(4)
        .limits(EvalLimits::unlimited().with_deadline(Instant::now() - Duration::from_millis(1)));
    let r = smart.run(&q, &spec);
    assert_eq!(r.unresolved, r.candidates);
    assert!(r.valid.is_empty());
}

/// A deadline landing mid-evaluation may stop the pool anywhere; the
/// report must stay internally consistent either way: every reported
/// valid node is truly valid (verdicts are exact), and every candidate
/// is accounted for as trained, staged or unresolved.
#[test]
fn mid_run_deadline_keeps_the_report_consistent() {
    let (smart, q) = deployment();
    let exact: Vec<_> = smart.run(&q, &RunSpec::new()).valid;
    for micros in [50u64, 500, 5_000, 50_000] {
        let spec = RunSpec::new().threads(4).limits(
            EvalLimits::unlimited().with_deadline(Instant::now() + Duration::from_micros(micros)),
        );
        let r = smart.run(&q, &spec);
        assert!(
            r.valid.iter().all(|u| exact.contains(u)),
            "deadline={micros}µs: partial answers are never wrong"
        );
        assert_eq!(
            counter(&r, Counter::TrainedNodes)
                + counter(&r, Counter::ResolvedS1)
                + counter(&r, Counter::RecoveredS2)
                + counter(&r, Counter::RecoveredS3)
                + r.unresolved as u64,
            r.candidates as u64,
            "deadline={micros}µs: complete accounting"
        );
        if r.unresolved == 0 {
            assert_eq!(r.valid, exact, "fully resolved run is exact");
        }
    }
}

/// The cancel flag interrupts an in-flight node evaluation (the
/// `Verdict::Interrupted` path the pool's unresolved accounting relies
/// on), not just the grab boundaries.
#[test]
fn cancel_flag_interrupts_a_single_evaluation() {
    // Single label and high density leave signature pruning toothless,
    // so the exhaustive search has real work to interrupt.
    let g = generators::erdos_renyi(150, 2800, 1, 23);
    let q = rwr::extract_query_seeded(&g, 8, 3).expect("query");
    let sigs = smartpsi::signature::matrix_signatures(&g, 2);
    let ctx = QueryContext::new(q.clone(), 2);
    let plan = ctx.compile(&heuristic_plan(&g, &q));
    let mut ev = NodeEvaluator::new(&g, &sigs);
    // Pick the most expensive candidate so the search is guaranteed to
    // outlive the tracker's 256-step cancel-polling window.
    let candidate = smartpsi::core::single::pivot_candidates(&g, &q)
        .into_iter()
        .max_by_key(|&u| {
            ev.evaluate(&ctx, &plan, u, Strategy::pessimistic(), &EvalLimits::unlimited()).1
        })
        .expect("at least one candidate");
    let (_, unlimited_steps) =
        ev.evaluate(&ctx, &plan, candidate, Strategy::pessimistic(), &EvalLimits::unlimited());
    assert!(
        unlimited_steps > 256,
        "test graph too easy ({unlimited_steps} steps); grow it"
    );
    let flag = Arc::new(AtomicBool::new(true));
    let limits = EvalLimits::unlimited().with_cancel(flag);
    let (verdict, steps) = ev.evaluate(&ctx, &plan, candidate, Strategy::pessimistic(), &limits);
    assert_eq!(verdict, Verdict::Interrupted, "pre-set flag interrupts");
    // The tracker polls the flag every 256 steps; one evaluation may
    // not overshoot that window by more than a batch.
    assert!(steps <= 512, "interrupted after {steps} steps");
}
