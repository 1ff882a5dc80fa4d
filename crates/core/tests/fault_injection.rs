//! Differential fault-injection tests for the PSI executors.
//!
//! The contract under test (DESIGN.md §11): a deterministic
//! [`FaultPlan`] keyed by data node id produces the *same* fault
//! schedule for every worker count and executor; panic isolation plus
//! the retry/escalation ladder turn every recoverable fault back into
//! an exact answer, and every unrecoverable fault into one accounted
//! entry in the result's [`FailureReport`] — never an abort, never a
//! silently dropped candidate.

use proptest::prelude::*;
use psi_core::fault::{ALWAYS, ONCE};
use psi_core::obs::Counter;
use psi_core::single::{psi_with_strategy, RunOptions};
use psi_core::{
    install_quiet_panic_hook, FaultKind, FaultPlan, PsiResult, RunSpec, SmartPsi, SmartPsiConfig,
    Strategy,
};
use psi_datasets::{generators, rwr};
use psi_graph::{NodeId, PivotedQuery};
use std::sync::Arc;

/// Stage counter from the result's attached profile (0 if absent).
fn counter(r: &PsiResult, c: Counter) -> u64 {
    r.profile.as_ref().map_or(0, |p| p.counter(c))
}

/// A deployment big enough to take the ML + pool path (~100+
/// candidates), built fresh per call so per-plan one-shot fault state
/// never leaks between runs.
fn deployment(fault: Option<Arc<FaultPlan>>) -> (SmartPsi, PivotedQuery) {
    let g = generators::erdos_renyi(600, 2600, 3, 17);
    let q = rwr::extract_query_seeded(&g, 5, 11).expect("query extraction");
    let cfg = SmartPsiConfig {
        min_candidates_for_ml: 10,
        fault,
        ..SmartPsiConfig::default()
    };
    (SmartPsi::new(g, cfg), q)
}

fn candidate_nodes(smart: &SmartPsi, q: &PivotedQuery) -> Vec<NodeId> {
    psi_core::single::pivot_candidates(smart.graph(), q)
}

// ---------------------------------------------------------------------
// Recoverable faults: the answer stays exact.
// ---------------------------------------------------------------------

/// One-shot seeded chaos (panics + spurious interrupts + budget burns
/// on ~15% of nodes) must be fully absorbed by the retry ladder: the
/// valid set is byte-identical to the clean run for every worker
/// count, with zero failed nodes and zero unresolved.
#[test]
fn determinism_across_worker_counts_under_seeded_faults() {
    install_quiet_panic_hook();
    let (clean_smart, q) = deployment(None);
    let clean = clean_smart.run(&q, &RunSpec::new());
    assert!(clean.candidates >= 10, "needs the ML path");

    for threads in [1usize, 2, 4, 8] {
        let plan = Arc::new(FaultPlan::seeded(7, 0.05, 0.05, 0.05));
        let (smart, q) = deployment(Some(plan));
        let r = smart.run(&q, &RunSpec::new().threads(threads));
        assert_eq!(
            r.valid, clean.valid,
            "threads={threads}: one-shot faults must all be recovered"
        );
        assert!(
            r.failures.nodes.is_empty(),
            "threads={threads}: no node may fail under one-shot faults: {:?}",
            r.failures.nodes
        );
        assert_eq!(r.unresolved, 0, "threads={threads}");
        assert!(
            r.failures.panics_recovered + r.failures.escalations > 0,
            "threads={threads}: the drill must actually fire faults"
        );
    }
}

/// Budget burns force the stage-1 budget to fire; the ladder escalates
/// and the node still resolves: `unresolved == 0` and the answer is
/// exact for a SmartPSI run without a global deadline (the PR's
/// acceptance criterion).
#[test]
fn burned_budgets_escalate_and_recover() {
    install_quiet_panic_hook();
    let (clean_smart, q) = deployment(None);
    let clean = clean_smart.run(&q, &RunSpec::new());

    // Burn on *every* candidate, every attempt: only the unlimited
    // exact fallback (where a burn costs steps but cannot interrupt)
    // is guaranteed to finish, so this exercises the whole ladder.
    let all = candidate_nodes(&clean_smart, &q);
    let plan = all
        .iter()
        .fold(FaultPlan::empty(), |p, &n| p.inject(n, FaultKind::BurnSteps(2000), ALWAYS));
    let (smart, q) = deployment(Some(Arc::new(plan)));
    let r = smart.run(&q, &RunSpec::new());

    assert_eq!(r.valid, clean.valid, "burns never change verdicts");
    assert_eq!(r.unresolved, 0, "no global deadline: everything resolves");
    assert!(r.failures.nodes.is_empty());
    assert!(
        r.failures.escalations > 0,
        "sticky burns must trigger budget escalation"
    );
    assert_eq!(
        counter(&r, Counter::TrainedNodes)
            + counter(&r, Counter::ResolvedS1)
            + counter(&r, Counter::RecoveredS2)
            + counter(&r, Counter::RecoveredS3),
        r.candidates as u64,
        "complete stage accounting"
    );
}

/// A worker thread killed mid-run loses only its in-flight grab: the
/// pool survives, the parent requeues the grab, and the final answer
/// is exact. (The pre-fault executor `expect`-aborted here.)
#[test]
fn killed_worker_grab_is_requeued_and_the_answer_stays_exact() {
    install_quiet_panic_hook();
    let (clean_smart, q) = deployment(None);
    let clean = clean_smart.run(&q, &RunSpec::new());

    // Arm a one-shot kill on every candidate and make the first grab
    // span the whole queue: whichever worker grabs first dies
    // deterministically, the other exits cleanly, and the parent must
    // requeue the entire grab.
    let all = candidate_nodes(&clean_smart, &q);
    let plan = all
        .iter()
        .fold(FaultPlan::empty(), |p, &n| p.inject(n, FaultKind::KillWorker, ONCE));
    let (smart, q) = deployment(Some(Arc::new(plan)));
    let r = smart.run(&q, &RunSpec::new().threads(2).grab(1_000_000));

    assert_eq!(r.valid, clean.valid, "requeued run is exact");
    assert_eq!(r.unresolved, 0);
    assert!(r.failures.nodes.is_empty());
    assert_eq!(r.failures.worker_deaths, 1, "exactly one worker grabs, dies");
    assert!(
        r.failures.requeued > 0,
        "the dead worker's grab must be requeued"
    );
}

/// Many small grabs, several kills: each kill costs one worker and one
/// requeued grab, and as long as one worker survives the queue drains
/// completely.
#[test]
fn multiple_worker_deaths_with_small_grabs_still_drain_the_queue() {
    install_quiet_panic_hook();
    let (clean_smart, q) = deployment(None);
    let clean = clean_smart.run(&q, &RunSpec::new());
    let all = candidate_nodes(&clean_smart, &q);
    // Kill on three spread-out candidates (training or rest — kills on
    // training nodes are simply never consulted).
    let kills = [all[0], all[all.len() / 2], all[all.len() - 1]];
    let plan = kills
        .iter()
        .fold(FaultPlan::empty(), |p, &n| p.inject(n, FaultKind::KillWorker, ONCE));
    let (smart, q) = deployment(Some(Arc::new(plan)));
    let r = smart.run(&q, &RunSpec::new().threads(8).grab(2));

    assert_eq!(r.valid, clean.valid);
    assert_eq!(r.unresolved, 0);
    assert!(r.failures.worker_deaths <= kills.len());
    // Each dead worker drops exactly its in-flight grab. Grabs hold 2
    // nodes except the queue's tail grab, which holds however many
    // survivors remain — so the requeue total is bounded by the grab
    // size per death, not pinned to it.
    assert!(
        r.failures.requeued >= r.failures.worker_deaths
            && r.failures.requeued <= r.failures.worker_deaths * 2,
        "each dead worker drops exactly its in-flight grab of <= 2: \
         {} deaths, {} requeued",
        r.failures.worker_deaths,
        r.failures.requeued
    );
}

// ---------------------------------------------------------------------
// Unrecoverable faults: accounted, never dropped.
// ---------------------------------------------------------------------

/// A node whose matcher always claims "interrupted" without any budget
/// having fired is broken; the ladder must give up on it, record it,
/// and leave every other node untouched.
#[test]
fn sticky_spurious_interrupt_is_an_accounted_failure() {
    install_quiet_panic_hook();
    let (clean_smart, q) = deployment(None);
    let clean = clean_smart.run(&q, &RunSpec::new());
    let victim = *candidate_nodes(&clean_smart, &q).last().expect("candidates");

    let plan = FaultPlan::empty().inject(victim, FaultKind::SpuriousInterrupt, ALWAYS);
    let (smart, q) = deployment(Some(Arc::new(plan)));
    let r = smart.run(&q, &RunSpec::new());

    let expect_valid: Vec<NodeId> =
        clean.valid.iter().copied().filter(|&u| u != victim).collect();
    assert_eq!(r.valid, expect_valid);
    assert_eq!(r.unresolved, 0, "a failure is not an unresolved node");
    assert_eq!(r.failures.len(), 1);
    assert_eq!(r.failures.nodes[0].node, victim);
    assert!(r.failures.nodes[0].attempts >= 1);
}

/// The single-strategy runners isolate a panicking node and keep
/// sweeping.
#[test]
fn single_runner_isolates_a_panicking_node() {
    install_quiet_panic_hook();
    let g = generators::erdos_renyi(300, 1200, 3, 5);
    let q = rwr::extract_query_seeded(&g, 4, 3).expect("query");
    let clean = psi_with_strategy(&g, &q, Strategy::pessimistic(), &RunOptions::default());
    let victim = *psi_core::single::pivot_candidates(&g, &q).first().expect("candidates");

    let opts = RunOptions {
        fault: Some(Arc::new(FaultPlan::panic_on(&[victim]))),
        ..RunOptions::default()
    };
    let r = psi_with_strategy(&g, &q, Strategy::pessimistic(), &opts);

    let expect_valid: Vec<NodeId> =
        clean.valid.iter().copied().filter(|&u| u != victim).collect();
    assert_eq!(r.valid, expect_valid);
    assert_eq!(r.failures.len(), 1);
    assert_eq!(r.failures.nodes[0].node, victim);
    assert!(r.failures.nodes[0].reason.contains("injected panic"));
}

/// In the two-threaded race a one-shot panic loses the race for that
/// node while the surviving side still decides it; only a node where
/// *both* sides panic fails.
#[test]
fn twothread_survives_one_sided_panics_and_records_two_sided_ones() {
    install_quiet_panic_hook();
    let g = generators::erdos_renyi(300, 1200, 3, 5);
    let q = rwr::extract_query_seeded(&g, 4, 3).expect("query");
    let smart = SmartPsi::new(g.clone(), SmartPsiConfig::default());
    let clean = smart.run(&q, &RunSpec::new().two_thread());
    let candidates = psi_core::single::pivot_candidates(&g, &q);
    let (one_sided, two_sided) = (candidates[0], candidates[candidates.len() - 1]);

    let plan = FaultPlan::empty()
        .inject(one_sided, FaultKind::Panic, ONCE) // one racer absorbs it
        .inject(two_sided, FaultKind::Panic, ALWAYS); // both racers die
    let r = smart.run(&q, &RunSpec::new().two_thread().faults(Arc::new(plan)));

    let expect_valid: Vec<NodeId> =
        clean.valid.iter().copied().filter(|&u| u != two_sided).collect();
    assert_eq!(r.valid, expect_valid, "one-sided panic must not change the verdict");
    assert_eq!(r.failures.len(), 1);
    assert_eq!(r.failures.nodes[0].node, two_sided);
    assert!(r.failures.panics_recovered >= 3, "1 one-sided + 2 two-sided panics");
}

// ---------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------

fn proptest_deployment(seed: u32, fault: Option<Arc<FaultPlan>>) -> Option<(SmartPsi, PivotedQuery)> {
    let g = generators::erdos_renyi(250, 900, 3, u64::from(seed));
    let q = rwr::extract_query_seeded(&g, 4, u64::from(seed).wrapping_mul(31))?;
    let cfg = SmartPsiConfig {
        min_candidates_for_ml: 10,
        fault,
        ..SmartPsiConfig::default()
    };
    Some((SmartPsi::new(g, cfg), q))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A [`ChaosMatcher`] carrying an *empty* plan is byte-identical to
    /// the bare evaluator — same valid set, same step counts, same
    /// stage accounting — so the fault machinery provably costs
    /// nothing on the clean path but the plan lookup.
    #[test]
    fn empty_fault_plan_is_byte_identical_to_a_clean_run(seed in 0u32..1000) {
        let Some((clean_smart, q)) = proptest_deployment(seed, None) else {
            return Ok(());
        };
        let Some((chaos_smart, _)) =
            proptest_deployment(seed, Some(Arc::new(FaultPlan::empty()))) else {
            return Ok(());
        };
        let a = clean_smart.run(&q, &RunSpec::new());
        let b = chaos_smart.run(&q, &RunSpec::new());
        prop_assert_eq!(&a.valid, &b.valid);
        prop_assert_eq!(a.steps, b.steps);
        prop_assert_eq!(a.candidates, b.candidates);
        prop_assert_eq!(a.unresolved, b.unresolved);
        // Natural budget escalations (§4.2.2 plan timing) may occur on
        // a clean run too; what matters is that the chaos wrapper adds
        // nothing to them.
        prop_assert_eq!(&a.failures, &b.failures);
        prop_assert!(b.failures.is_empty(), "no failed nodes without faults");
        prop_assert_eq!(b.failures.panics_recovered, 0);
        for c in [
            Counter::TrainedNodes,
            Counter::ResolvedS1,
            Counter::RecoveredS2,
            Counter::RecoveredS3,
        ] {
            prop_assert_eq!(counter(&a, c), counter(&b, c), "counter {}", c.name());
        }
    }

    /// k sticky panics on arbitrary candidates: the parallel executor
    /// returns the correct valid set for every non-faulted node and
    /// exactly k accounted failures — no aborts, no lost nodes.
    #[test]
    fn sticky_panics_fail_exactly_the_faulted_nodes(
        seed in 0u32..1000,
        picks in proptest::collection::vec(0usize..1_000_000, 1..4usize),
    ) {
        install_quiet_panic_hook();
        let Some((clean_smart, q)) = proptest_deployment(seed, None) else {
            return Ok(());
        };
        let clean = clean_smart.run(&q, &RunSpec::new());
        let candidates = candidate_nodes(&clean_smart, &q);
        if candidates.is_empty() {
            return Ok(());
        }
        let mut faulted: Vec<NodeId> =
            picks.iter().map(|ix| candidates[ix % candidates.len()]).collect();
        faulted.sort_unstable();
        faulted.dedup();

        let Some((smart, q)) =
            proptest_deployment(seed, Some(Arc::new(FaultPlan::panic_on(&faulted)))) else {
            return Ok(());
        };
        let r = smart.run(&q, &RunSpec::new().threads(4));

        let expect_valid: Vec<NodeId> = clean
            .valid
            .iter()
            .copied()
            .filter(|u| faulted.binary_search(u).is_err())
            .collect();
        prop_assert_eq!(&r.valid, &expect_valid);
        let failed: Vec<NodeId> = r.failures.nodes.iter().map(|f| f.node).collect();
        prop_assert_eq!(&failed, &faulted, "exactly the faulted nodes fail");
        prop_assert_eq!(r.unresolved, 0);
        prop_assert!(r.failures.panics_recovered >= faulted.len() as u64);
        prop_assert_eq!(
            counter(&r, Counter::TrainedNodes)
                + counter(&r, Counter::ResolvedS1)
                + counter(&r, Counter::RecoveredS2)
                + counter(&r, Counter::RecoveredS3)
                + r.failures.len() as u64,
            r.candidates as u64,
            "every candidate is accounted: trained, staged or failed"
        );
    }
}
