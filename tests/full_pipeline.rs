//! End-to-end integration tests: generate datasets, extract query
//! workloads, answer them with every engine in the workspace, and
//! cross-check all answers.

use smartpsi::core::single::{psi_with_strategy_presig, RunOptions};
use smartpsi::core::{RunSpec, SmartPsi, SmartPsiConfig, Strategy};
use smartpsi::datasets::{PaperDataset, QueryWorkload};
use smartpsi::graph::GraphStats;
use smartpsi::matching::{psi_by_enumeration, turboiso::turboiso_plus_psi, Engine, SearchBudget};
use smartpsi::signature::matrix_signatures;

/// Every PSI implementation in the workspace must return the same
/// answer set on a shared workload.
#[test]
fn all_engines_agree_end_to_end() {
    let g = PaperDataset::Yeast.generate_scaled(0.15, 7);
    let sigs = matrix_signatures(&g, 2);
    let smart = SmartPsi::new(g.clone(), SmartPsiConfig::default());
    let opts = RunOptions::default();
    let budget = SearchBudget::unlimited();

    let mut checked = 0;
    for size in 3..=6 {
        let Some(w) = QueryWorkload::extract(&g, size, 4, size as u64) else {
            continue;
        };
        for q in &w.queries {
            let oracle = psi_by_enumeration(&Engine::Vf2, &g, q, &budget).valid;
            assert_eq!(
                psi_by_enumeration(&Engine::Ullmann, &g, q, &budget).valid,
                oracle
            );
            assert_eq!(
                psi_by_enumeration(&Engine::TurboIso, &g, q, &budget).valid,
                oracle
            );
            assert_eq!(
                psi_by_enumeration(&Engine::CflMatch, &g, q, &budget).valid,
                oracle
            );
            assert_eq!(turboiso_plus_psi(&g, q, &budget).valid, oracle);
            assert_eq!(
                psi_with_strategy_presig(&g, &sigs, q, Strategy::optimistic(), &opts).valid,
                oracle
            );
            assert_eq!(
                psi_with_strategy_presig(&g, &sigs, q, Strategy::pessimistic(), &opts).valid,
                oracle
            );
            assert_eq!(smart.run(q, &RunSpec::new().two_thread()).valid, oracle);
            assert_eq!(smart.run(q, &RunSpec::new()).valid, oracle);
            checked += 1;
        }
    }
    assert!(checked >= 8, "workloads too small: {checked}");
}

/// The ML path of SmartPSI (forced on) must stay exact on a graph large
/// enough to actually train the models.
#[test]
fn smartpsi_ml_path_exact_on_social_graph() {
    let g = PaperDataset::Youtube.generate_scaled(0.05, 3);
    let cfg = SmartPsiConfig {
        min_candidates_for_ml: 10,
        ..SmartPsiConfig::default()
    };
    let smart = SmartPsi::new(g.clone(), cfg);
    let budget = SearchBudget::unlimited();
    for size in [4usize, 5] {
        let Some(w) = QueryWorkload::extract(&g, size, 3, size as u64) else {
            continue;
        };
        for q in &w.queries {
            let r = smart.run(q, &RunSpec::new());
            let oracle = psi_by_enumeration(&Engine::TurboIso, &g, q, &budget).valid;
            assert_eq!(r.valid, oracle, "size {size}");
            assert_eq!(r.unresolved, 0);
        }
    }
}

/// Graph I/O round-trips through the text format and the reloaded
/// graph answers queries identically.
#[test]
fn io_roundtrip_preserves_psi_answers() {
    let g = PaperDataset::Cora.generate_scaled(0.2, 5);
    let mut buf = Vec::new();
    smartpsi::graph::io::write_graph(&g, &mut buf).unwrap();
    let g2 = smartpsi::graph::io::read_graph(buf.as_slice()).unwrap();
    assert_eq!(GraphStats::of(&g), GraphStats::of(&g2));
    let q = smartpsi::datasets::rwr::extract_query_seeded(&g, 4, 1).unwrap();
    let budget = SearchBudget::unlimited();
    assert_eq!(
        psi_by_enumeration(&Engine::Vf2, &g, &q, &budget).valid,
        psi_by_enumeration(&Engine::Vf2, &g2, &q, &budget).valid
    );
}

/// FSM mining with the PSI evaluator equals mining with the iso
/// evaluator on a generated dataset.
#[test]
fn fsm_evaluators_agree_on_generated_graph() {
    use smartpsi::fsm::{canonical_code, IsoSupport, Miner, MinerConfig, PsiSupport};
    let g = PaperDataset::Yeast.generate_scaled(0.08, 9);
    let sigs = matrix_signatures(&g, 2);
    let config = MinerConfig {
        threshold: 3,
        max_edges: 2,
        max_candidates_per_level: 500,
    };
    let miner = Miner::new(&g, config);
    let a = miner.mine(&mut IsoSupport::new(&g, u64::MAX));
    let b = miner.mine(&mut PsiSupport::new(&g, &sigs));
    let codes = |o: &smartpsi::fsm::MiningOutcome| {
        let mut v: Vec<_> = o.frequent.iter().map(|(p, s)| (canonical_code(p), *s)).collect();
        v.sort();
        v
    };
    assert_eq!(codes(&a), codes(&b));
}

/// Signature computation methods must agree at depth 1 and the matrix
/// method must dominate pointwise at any depth (walk-counting ≥
/// shortest-path counting).
#[test]
fn signature_methods_relationship_holds_on_real_scale() {
    let g = PaperDataset::Human.generate_scaled(0.1, 4);
    let e1 = smartpsi::signature::exploration_signatures(&g, 1);
    let m1 = matrix_signatures(&g, 1);
    for v in g.node_ids() {
        for l in 0..g.label_count() {
            assert!((e1.row(v)[l] - m1.row(v)[l]).abs() < 1e-4, "depth-1 equality");
        }
    }
    let e2 = smartpsi::signature::exploration_signatures(&g, 2);
    let m2 = matrix_signatures(&g, 2);
    for v in g.node_ids() {
        for l in 0..g.label_count() {
            assert!(m2.row(v)[l] >= e2.row(v)[l] - 1e-3, "matrix dominates");
        }
    }
}

/// The preemption/recovery machinery never changes answers, only cost:
/// run the same workload with recovery on and off.
#[test]
fn recovery_toggle_preserves_answers() {
    let g = PaperDataset::Twitter.generate_scaled(0.03, 6);
    let on = SmartPsi::new(
        g.clone(),
        SmartPsiConfig {
            min_candidates_for_ml: 10,
            enable_recovery: true,
            ..SmartPsiConfig::default()
        },
    );
    let off = SmartPsi::new(
        g.clone(),
        SmartPsiConfig {
            min_candidates_for_ml: 10,
            enable_recovery: false,
            ..SmartPsiConfig::default()
        },
    );
    for size in [4usize, 6] {
        let Some(w) = QueryWorkload::extract(&g, size, 3, size as u64) else {
            continue;
        };
        for q in &w.queries {
            assert_eq!(
                on.run(q, &RunSpec::new()).valid,
                off.run(q, &RunSpec::new()).valid
            );
        }
    }
}
