//! Criterion micro-benches, one group per paper experiment. These are
//! the statistically-measured companions to the `src/bin/*` repro
//! binaries (which run the full sweeps): each group pins one or two
//! representative points of the corresponding table/figure so
//! `cargo bench` tracks regressions in the quantities the paper plots.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use psi_core::single::{psi_with_strategy_presig, RunOptions};
use psi_core::{RunSpec, SmartPsi, SmartPsiConfig, Strategy};
use psi_datasets::{PaperDataset, QueryWorkload};
use psi_fsm::{IsoSupport, Miner, MinerConfig, PsiSupport, SupportEvaluator};
use psi_match::{count_embeddings, psi_by_enumeration, turboiso::turboiso_plus_psi, Engine, SearchBudget};
use psi_ml::{Classifier, Dataset};
use psi_signature::{exploration_signatures, matrix_signatures};

fn quick<'c>(c: &'c mut Criterion, name: &str) -> criterion::BenchmarkGroup<'c, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    g
}

/// Table 1 point: embedding counting vs. PSI on a Yeast-scale graph.
fn bench_table1(c: &mut Criterion) {
    let g = PaperDataset::Yeast.generate_scaled(0.3, 1);
    let q = QueryWorkload::extract(&g, 5, 1, 3).unwrap().queries.remove(0);
    let smart = SmartPsi::new(g.clone(), SmartPsiConfig::default());
    let mut group = quick(c, "table1_counts");
    group.bench_function("count_all_embeddings", |b| {
        b.iter(|| count_embeddings(&g, q.graph(), &SearchBudget::steps(5_000_000)))
    });
    group.bench_function("psi_answer", |b| b.iter(|| smart.run(&q, &RunSpec::new())));
    group.finish();
}

/// Table 2 / Figure 7 point: the three systems on a Human-scale graph.
fn bench_fig7(c: &mut Criterion) {
    let g = PaperDataset::Human.generate_scaled(0.25, 2);
    let q = QueryWorkload::extract(&g, 5, 1, 5).unwrap().queries.remove(0);
    let smart = SmartPsi::new(g.clone(), SmartPsiConfig::default());
    let cap = SearchBudget::steps(5_000_000);
    let mut group = quick(c, "fig7_systems");
    group.bench_function("turboiso_enumerate", |b| {
        b.iter(|| psi_by_enumeration(&Engine::TurboIso, &g, &q, &cap))
    });
    group.bench_function("cflmatch_enumerate", |b| {
        b.iter(|| psi_by_enumeration(&Engine::CflMatch, &g, &q, &cap))
    });
    group.bench_function("turboiso_plus", |b| b.iter(|| turboiso_plus_psi(&g, &q, &cap)));
    group.bench_function("smartpsi", |b| b.iter(|| smart.run(&q, &RunSpec::new())));
    group.finish();
}

/// Figure 8 point: signature construction on a YouTube-scale graph.
fn bench_fig8(c: &mut Criterion) {
    let g = PaperDataset::Youtube.generate_scaled(0.1, 3);
    let mut group = quick(c, "fig8_signatures");
    group.bench_function("exploration", |b| b.iter(|| exploration_signatures(&g, 2)));
    group.bench_function("matrix", |b| b.iter(|| matrix_signatures(&g, 2)));
    group.finish();
}

/// Figure 9 point: two-threaded baseline vs. SmartPSI on one query.
fn bench_fig9(c: &mut Criterion) {
    let g = PaperDataset::Youtube.generate_scaled(0.05, 4);
    let q = QueryWorkload::extract(&g, 5, 1, 7).unwrap().queries.remove(0);
    let smart = SmartPsi::new(g, SmartPsiConfig::web_scale());
    let mut group = quick(c, "fig9_baseline");
    let two = RunSpec::new().two_thread();
    group.bench_function("two_threaded", |b| b.iter(|| smart.run(&q, &two)));
    let ws2 = RunSpec::new().threads(2);
    group.bench_function("smartpsi_2threads", |b| b.iter(|| smart.run(&q, &ws2)));
    group.finish();
}

/// Figure 10 point: fixed strategies vs. SmartPSI on a Twitter-scale
/// graph.
fn bench_fig10(c: &mut Criterion) {
    let g = PaperDataset::Twitter.generate_scaled(0.08, 5);
    let sigs = matrix_signatures(&g, 2);
    let q = QueryWorkload::extract(&g, 6, 1, 9).unwrap().queries.remove(0);
    let smart = SmartPsi::new(g.clone(), SmartPsiConfig::web_scale());
    let opts = RunOptions::default();
    let mut group = quick(c, "fig10_strategies");
    group.bench_function("optimistic_only", |b| {
        b.iter(|| psi_with_strategy_presig(&g, &sigs, &q, Strategy::optimistic(), &opts))
    });
    group.bench_function("pessimistic_only", |b| {
        b.iter(|| psi_with_strategy_presig(&g, &sigs, &q, Strategy::pessimistic(), &opts))
    });
    group.bench_function("smartpsi", |b| b.iter(|| smart.run(&q, &RunSpec::new())));
    group.finish();
}

/// Figure 11 / §5.4 point: model fitting on signature features.
fn bench_models(c: &mut Criterion) {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(6);
    let mut ds = Dataset::new(25);
    for _ in 0..400 {
        let label = rng.gen_range(0..2usize);
        let row: Vec<f32> = (0..25)
            .map(|i| rng.gen_range(0.0..2.0) + if label == 1 && i < 5 { 1.0 } else { 0.0 })
            .collect();
        ds.push(&row, label);
    }
    let mut group = quick(c, "models");
    group.bench_function("random_forest_fit", |b| {
        b.iter_batched(
            psi_ml::forest::RandomForest::default,
            |mut rf| {
                rf.fit(&ds, 1);
                rf
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("svm_fit", |b| {
        b.iter_batched(
            psi_ml::svm::LinearSvm::default,
            |mut m| {
                m.fit(&ds, 1);
                m
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("mlp_fit", |b| {
        b.iter_batched(
            psi_ml::mlp::Mlp::default,
            |mut m| {
                m.fit(&ds, 1);
                m
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Figure 12 point: one pattern's frequency via iso vs. PSI.
fn bench_fig12(c: &mut Criterion) {
    let g = PaperDataset::Twitter.generate_scaled(0.05, 7);
    let sigs = matrix_signatures(&g, 2);
    let miner = Miner::new(&g, MinerConfig::default());
    let _ = miner; // seeds demonstrated below with a fixed pattern
    let pattern = psi_fsm::Pattern::seed(0, 0, 1).extend_with_node(1, 0, 0);
    let mut group = quick(c, "fig12_fsm");
    group.bench_function("support_via_iso", |b| {
        b.iter(|| IsoSupport::new(&g, 3_000_000).mni_support(&pattern, 4))
    });
    group.bench_function("support_via_psi", |b| {
        b.iter(|| PsiSupport::new(&g, &sigs).mni_support(&pattern, 4))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_table1,
    bench_fig7,
    bench_fig8,
    bench_fig9,
    bench_fig10,
    bench_models,
    bench_fig12
);
criterion_main!(benches);
