//! Workspace-level property tests over the full pipeline.

use proptest::prelude::*;
use smartpsi::core::single::{psi_with_strategy, RunOptions};
use smartpsi::core::{RunSpec, SmartPsi, SmartPsiConfig, Strategy as PsiStrategy};
use smartpsi::graph::builder::graph_from;
use smartpsi::graph::Graph;
use smartpsi::matching::{psi_by_enumeration, Engine, SearchBudget};
use smartpsi::signature::{matrix_signatures, satisfies};

fn random_graph() -> impl Strategy<Value = Graph> {
    (8usize..=16, any::<u64>()).prop_map(|(n, seed)| {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let labels: Vec<u16> = (0..n).map(|_| rng.gen_range(0..4)).collect();
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen_bool(0.3) {
                    edges.push((u, v));
                }
            }
        }
        graph_from(&labels, &edges).expect("valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Proposition 3.2 end-to-end: a node whose signature does not
    /// satisfy the query pivot's signature is never a PSI answer.
    #[test]
    fn prop32_pruning_is_safe(g in random_graph(), size in 2usize..=4, seed in any::<u64>()) {
        let Some(q) = smartpsi::datasets::rwr::extract_query_seeded(&g, size, seed) else {
            return Ok(());
        };
        let answer = psi_by_enumeration(&Engine::Vf2, &g, &q, &SearchBudget::unlimited());
        let gsigs = matrix_signatures(&g, 2);
        let qsigs = matrix_signatures(q.graph(), 2);
        let pivot_row = qsigs.row(q.pivot());
        for &u in &answer.valid {
            prop_assert!(
                satisfies(gsigs.row(u), pivot_row),
                "valid node {u} would be pruned by Prop 3.2"
            );
        }
    }

    /// PSI answers are invariant to the pivot-preserving strategy used.
    #[test]
    fn strategies_are_interchangeable(g in random_graph(), size in 2usize..=4, seed in any::<u64>()) {
        let Some(q) = smartpsi::datasets::rwr::extract_query_seeded(&g, size, seed) else {
            return Ok(());
        };
        let opts = RunOptions::default();
        let a = psi_with_strategy(&g, &q, PsiStrategy::optimistic(), &opts).valid;
        let b = psi_with_strategy(&g, &q, PsiStrategy::plain_optimistic(), &opts).valid;
        let c = psi_with_strategy(&g, &q, PsiStrategy::pessimistic(), &opts).valid;
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    /// SmartPSI is exact whatever its configuration toggles.
    #[test]
    fn smartpsi_exact_under_all_toggles(
        g in random_graph(),
        size in 2usize..=4,
        seed in any::<u64>(),
        beta in any::<bool>(),
        cache in any::<bool>(),
        recovery in any::<bool>(),
    ) {
        let Some(q) = smartpsi::datasets::rwr::extract_query_seeded(&g, size, seed) else {
            return Ok(());
        };
        let oracle = psi_by_enumeration(&Engine::Vf2, &g, &q, &SearchBudget::unlimited()).valid;
        let cfg = SmartPsiConfig {
            min_candidates_for_ml: 4, // force ML path even on tiny graphs
            max_train_nodes: 6,
            enable_beta: beta,
            enable_cache: cache,
            enable_recovery: recovery,
            ..SmartPsiConfig::default()
        };
        let smart = SmartPsi::new(g.clone(), cfg);
        prop_assert_eq!(smart.run(&q, &RunSpec::new()).valid, oracle);
    }

    /// Answers never include nodes with the wrong label or insufficient
    /// degree, and never duplicate.
    #[test]
    fn answers_are_wellformed(g in random_graph(), size in 2usize..=4, seed in any::<u64>()) {
        let Some(q) = smartpsi::datasets::rwr::extract_query_seeded(&g, size, seed) else {
            return Ok(());
        };
        let r = psi_with_strategy(&g, &q, PsiStrategy::pessimistic(), &RunOptions::default());
        let pivot_deg = q.graph().degree(q.pivot());
        for w in r.valid.windows(2) {
            prop_assert!(w[0] < w[1], "sorted, distinct");
        }
        for &u in &r.valid {
            prop_assert_eq!(g.label(u), q.pivot_label());
            prop_assert!(g.degree(u) >= pivot_deg);
        }
    }

    /// Differential harness over every executor: the work-stealing
    /// pool, the one-worker SmartPSI run, the model-less plan below the
    /// training threshold and both single-strategy runners return the
    /// same valid set on random labeled graphs.
    #[test]
    fn all_executors_agree(
        g in random_graph(),
        size in 2usize..=4,
        seed in any::<u64>(),
        threads in 1usize..=4,
    ) {
        let Some(q) = smartpsi::datasets::rwr::extract_query_seeded(&g, size, seed) else {
            return Ok(());
        };
        let opts = RunOptions::default();
        let optimistic = psi_with_strategy(&g, &q, PsiStrategy::optimistic(), &opts).valid;
        let pessimistic = psi_with_strategy(&g, &q, PsiStrategy::pessimistic(), &opts).valid;
        prop_assert_eq!(&optimistic, &pessimistic);
        let cfg = SmartPsiConfig {
            min_candidates_for_ml: 4, // force the ML path even on tiny graphs
            max_train_nodes: 6,
            ..SmartPsiConfig::default()
        };
        let smart = SmartPsi::new(g.clone(), cfg);
        let seq = smart.run(&q, &RunSpec::new());
        let ws = smart.run(&q, &RunSpec::new().threads(threads));
        prop_assert_eq!(&seq.valid, &optimistic);
        prop_assert_eq!(&ws.valid, &optimistic);
        prop_assert_eq!(ws.unresolved, 0);
        prop_assert_eq!(ws.candidates, seq.candidates);
        // Below the training threshold the plan is exact: the
        // pessimist on the heuristic plan per candidate, so the valid
        // set and the steps are the pessimist runner's.
        let untrained = SmartPsi::new(g.clone(), SmartPsiConfig {
            min_candidates_for_ml: usize::MAX,
            ..SmartPsiConfig::default()
        });
        let exact = untrained.run(&q, &RunSpec::new().threads(threads));
        let pessimist = psi_with_strategy(&g, &q, PsiStrategy::pessimistic(), &opts);
        prop_assert_eq!(&exact.valid, &pessimist.valid);
        prop_assert_eq!(exact.steps, pessimist.steps);
    }

    /// Re-pivoting the query changes the question but every answer set
    /// stays consistent with enumeration.
    #[test]
    fn repivoting_stays_consistent(g in random_graph(), size in 3usize..=4, seed in any::<u64>()) {
        let Some(q) = smartpsi::datasets::rwr::extract_query_seeded(&g, size, seed) else {
            return Ok(());
        };
        for pivot in 0..q.size() as u32 {
            let qp = q.with_pivot(pivot).expect("valid pivot");
            let oracle = psi_by_enumeration(&Engine::Vf2, &g, &qp, &SearchBudget::unlimited()).valid;
            let fast = psi_with_strategy(&g, &qp, PsiStrategy::pessimistic(), &RunOptions::default()).valid;
            prop_assert_eq!(fast, oracle, "pivot {}", pivot);
        }
    }
}
