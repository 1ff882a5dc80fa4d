//! Differential and property tests for the observability layer.
//!
//! Two contracts are pinned here:
//!
//! 1. **RunSpec roundtrip** — [`RunSpec`] is the single front door for
//!    evaluation: a default spec, a candidate subset, step limits, and
//!    each parallel executor all flow through `SmartPsi::run`, and two
//!    runs of the same spec agree bit-for-bit on their answers and on
//!    the accounting counters of their attached [`QueryProfile`]s.
//! 2. **Profile soundness** — the [`QueryProfile`] attached to every
//!    `run` result satisfies the PR-2 accounting identity
//!    (`reconciles()`), and on a sequential run its per-phase spans
//!    are disjoint slices of the run, so their sum never exceeds the
//!    total wall time (one-sided, plus a jitter epsilon).

use std::sync::Arc;

use proptest::prelude::*;
use psi_core::obs::{Counter, MetricsRecorder, QueryProfile};
use psi_core::{EvalLimits, PsiResult, RunSpec, SmartPsi, SmartPsiConfig};
use psi_datasets::{generators, rwr};
use psi_graph::{NodeId, PivotedQuery};

/// Timer-jitter allowance for the span-sum bound: each of the phases
/// contributes at most one `Instant::now` pair of slack.
const SPAN_EPS_NS: u64 = 2_000_000;

fn deployment() -> (SmartPsi, PivotedQuery) {
    let g = generators::erdos_renyi(600, 2600, 3, 17);
    let q = rwr::extract_query_seeded(&g, 5, 11).expect("query extraction");
    let cfg = SmartPsiConfig {
        min_candidates_for_ml: 10,
        ..SmartPsiConfig::default()
    };
    (SmartPsi::new(g, cfg), q)
}

fn counter(r: &PsiResult, c: Counter) -> u64 {
    r.profile.as_ref().map_or(0, |p| p.counter(c))
}

/// Assert two runs of equivalent specs are the same evaluation:
/// identical answer, identical accounting counters, identical
/// α-accuracy bits. Wall-clock timings are excluded — two runs never
/// share a clock.
fn assert_equivalent(label: &str, a: &PsiResult, b: &PsiResult) {
    assert_eq!(a.valid, b.valid, "{label}: valid set");
    assert_eq!(a.candidates, b.candidates, "{label}: candidates");
    assert_eq!(a.steps, b.steps, "{label}: steps");
    assert_eq!(a.unresolved, b.unresolved, "{label}: unresolved");
    assert_eq!(a.failures, b.failures, "{label}: failures");
    for c in [
        Counter::TrainedNodes,
        Counter::ResolvedS1,
        Counter::RecoveredS2,
        Counter::RecoveredS3,
        Counter::PredictedValid,
        Counter::CacheHits,
    ] {
        assert_eq!(counter(a, c), counter(b, c), "{label}: {c:?}");
    }
    let alpha = |r: &PsiResult| r.profile.as_ref().map_or(0.0, |p| p.alpha_accuracy);
    assert_eq!(
        alpha(a).to_bits(),
        alpha(b).to_bits(),
        "{label}: alpha_accuracy bits ({} vs {})",
        alpha(a),
        alpha(b)
    );
}

/// Run `spec` twice: the two runs must agree on the answer and on
/// every accounting counter of their profiles.
fn roundtrip(label: &str, smart: &SmartPsi, q: &PivotedQuery, spec: &RunSpec) {
    let first = smart.run(q, spec);
    let again = smart.run(q, spec);
    assert!(first.profile.is_some(), "{label}: run always attaches a profile");
    assert_equivalent(label, &first, &again);
}

// ---------------------------------------------------------------------
// 1. Every historical calling convention, as a RunSpec.
// ---------------------------------------------------------------------

#[test]
fn full_run_roundtrips() {
    let (smart, q) = deployment();
    let r = smart.run(&q, &RunSpec::new());
    assert!(r.count() > 0, "workload must be non-trivial");
    roundtrip("sequential", &smart, &q, &RunSpec::new());
}

#[test]
fn candidate_subset_roundtrips() {
    let (smart, q) = deployment();
    // The full candidate set, thinned to every other node.
    let subset: Vec<NodeId> = psi_core::single::pivot_candidates(smart.graph(), &q)
        .into_iter()
        .step_by(2)
        .collect();
    assert!(subset.len() >= 10, "subset must still take the ML path");
    let spec = RunSpec::new().candidates(subset.clone());
    let r = smart.run(&q, &spec);
    assert_eq!(r.candidates, subset.len());
    roundtrip("candidates(Some)", &smart, &q, &spec);
}

#[test]
fn limited_subset_roundtrips() {
    let (smart, q) = deployment();
    let subset: Vec<NodeId> = psi_core::single::pivot_candidates(smart.graph(), &q);
    roundtrip(
        "candidates+limits",
        &smart,
        &q,
        &RunSpec::new()
            .candidates(subset)
            .limits(EvalLimits::unlimited()),
    );
}

#[test]
fn work_stealing_roundtrips_and_matches_sequential() {
    let (smart, q) = deployment();
    roundtrip("threads(2)", &smart, &q, &RunSpec::new().threads(2));
    let seq = smart.run(&q, &RunSpec::new());
    let par = smart.run(&q, &RunSpec::new().threads(2));
    assert_eq!(seq, par, "pool answers must equal sequential answers");
}

#[test]
fn static_chunks_roundtrips() {
    let (smart, q) = deployment();
    roundtrip("static_chunks(3)", &smart, &q, &RunSpec::new().static_chunks(3));
}

#[test]
fn tuned_work_stealing_roundtrips() {
    let (smart, q) = deployment();
    roundtrip(
        "threads+grab+shared_cache",
        &smart,
        &q,
        &RunSpec::new()
            .threads(4)
            .grab(2)
            .shared_cache(true)
            .limits(EvalLimits::unlimited()),
    );
}

// ---------------------------------------------------------------------
// 2. Profile soundness.
// ---------------------------------------------------------------------

/// A profiled run and an unprofiled run of the same spec produce the
/// same answer — recording is observation, not interference.
#[test]
fn recording_does_not_change_answers() {
    let (smart, q) = deployment();
    let plain = smart.run(&q, &RunSpec::new());
    let spec = RunSpec::new().recorder(Arc::new(MetricsRecorder::new()));
    let recorded = smart.run(&q, &spec);
    assert_eq!(plain.valid, recorded.valid);
    assert_eq!(plain.steps, recorded.steps);
    assert_eq!(plain.unresolved, recorded.unresolved);
    let p = recorded.profile.as_deref().expect("run always attaches a profile");
    assert!(p.recorded, "recorder output must reach the profile");
}

fn check_profile(label: &str, p: &QueryProfile, sequential: bool) {
    assert!(p.reconciles(), "{label}: accounting identity must hold");
    assert!(p.total_wall_ns > 0, "{label}: wall clock must tick");
    if sequential {
        // Phases are disjoint slices of one thread's run: their sum is
        // a lower bound on the total (one-sided — parallel runs sum
        // per-worker time and may legitimately exceed the wall clock).
        let sum = p.phase_total().as_nanos() as u64;
        assert!(
            sum <= p.total_wall_ns + SPAN_EPS_NS,
            "{label}: span sum {sum}ns exceeds total {}ns + eps",
            p.total_wall_ns
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On random deployments, every sequential profile reconciles and
    /// its span sum stays under the total wall time.
    #[test]
    fn sequential_profile_is_sound(
        nodes in 120usize..400,
        edge_factor in 2usize..5,
        labels in 2usize..5,
        seed in 0u64..500,
    ) {
        let g = generators::erdos_renyi(nodes, nodes * edge_factor, labels, seed);
        let Some(q) = rwr::extract_query_seeded(&g, 4, seed ^ 0x5eed) else {
            return Ok(());
        };
        let smart = SmartPsi::new(g, SmartPsiConfig {
            min_candidates_for_ml: 10,
            ..SmartPsiConfig::default()
        });
        let spec = RunSpec::new().recorder(Arc::new(MetricsRecorder::new()));
        let r = smart.run(&q, &spec);
        let p = r.profile.as_deref().expect("profile always attached");
        check_profile("sequential", p, true);
        // The executor's exact accounting must agree with the result.
        prop_assert_eq!(p.counter(Counter::Candidates), r.candidates as u64);
        prop_assert_eq!(p.counter(Counter::Steps), r.steps);
        prop_assert_eq!(p.counter(Counter::Unresolved), r.unresolved as u64);
        prop_assert_eq!(p.counter(Counter::FailedNodes), r.failures.nodes.len() as u64);
    }

    /// Parallel profiles reconcile too (span sums may exceed wall time
    /// there — per-worker buffers add up — so only the identity and the
    /// result/counter agreement are asserted).
    #[test]
    fn parallel_profile_is_sound(
        threads in 2usize..6,
        seed in 0u64..200,
    ) {
        let g = generators::erdos_renyi(300, 1300, 3, seed);
        let Some(q) = rwr::extract_query_seeded(&g, 4, seed.wrapping_mul(31)) else {
            return Ok(());
        };
        let smart = SmartPsi::new(g, SmartPsiConfig {
            min_candidates_for_ml: 10,
            ..SmartPsiConfig::default()
        });
        let spec = RunSpec::new()
            .threads(threads)
            .recorder(Arc::new(MetricsRecorder::new()));
        let r = smart.run(&q, &spec);
        let p = r.profile.as_deref().expect("profile always attached");
        check_profile("parallel", p, false);
        prop_assert_eq!(p.counter(Counter::Candidates), r.candidates as u64);
        prop_assert_eq!(p.counter(Counter::Steps), r.steps);
        prop_assert_eq!(p.counter(Counter::Unresolved), r.unresolved as u64);
    }
}
