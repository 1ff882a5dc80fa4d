//! Figure 9 — parallel SmartPSI vs. the two-threaded baseline on
//! YouTube and Twitter, query sizes 4–8, plus the parallel-executor
//! scaling study (`BENCH_parallel.json`).
//!
//! For fairness (as in the paper) SmartPSI also gets two concurrent
//! threads in the headline comparison, each evaluating different
//! candidate nodes, while the baseline spends its two threads racing
//! the optimistic and pessimistic methods on the *same* node. Every arm
//! runs through `SmartPsi::run` on one deployment, so the baseline
//! reuses the precomputed signatures exactly like SmartPSI does. SmartPSI
//! appears three times: on one thread (the honest baseline for its
//! parallel arms), the static-chunk driver (one candidate chunk per
//! thread, each with its own training run and cache) and the
//! work-stealing pool (train once, shared queue, shared prediction
//! cache).
//!
//! Paper's claims to reproduce: the baseline can win on the smallest
//! queries (no training overhead), but grows much faster with query
//! size and eventually times out where SmartPSI keeps finishing.
//!
//! The scaling study then drops the baseline and compares static
//! chunking against work stealing at 1/2/4/8 workers on a skewed
//! single-label workload (see [`scaling_study`] for why the paper
//! datasets cannot exercise the prediction cache), also counting how
//! often the shared cache serves a prediction versus per-worker
//! private caches. Worker threads live in the engine's shared lazy
//! pool, so the OS-thread spawn bill (`pool_spawn_ms`) is paid once
//! per thread level — the study warms the pool with one recorded run,
//! reports that one-time bill as its own column, and times every
//! arm against warm workers. Each row reports its speedup against the
//! 1-thread row (`speedup_vs_1t`, the honest baseline) next to its
//! speedup against static chunking (`speedup_vs_static`, the gated
//! one). With `PSI_FIG9_SCALING_ONLY` set, the binary skips the
//! paper-dataset comparison and runs just the scaling study; `ci.sh`
//! uses that mode to enforce the 8-thread scaling floor
//! (`PSI_PARALLEL_SLACK`). Results land in `BENCH_parallel.json` next
//! to the CSVs.

use std::fmt::Write as _;
use std::sync::Arc;

use psi_bench::{render_grouped_bars, slack, time, write_bench_json, ExperimentEnv, ResultTable, Series};
use psi_core::obs::{Counter, MetricsRecorder, Phase};
use psi_core::{EvalLimits, PsiResult, RunSpec, SmartPsi, SmartPsiConfig};
use psi_datasets::PaperDataset;

/// Timing rounds per scaling-study arm; the minimum is recorded.
const STUDY_ROUNDS: usize = 3;

fn main() {
    // CI mode: only the scaling study (which asserts the 8-thread
    // scaling floor), skipping the long paper-dataset comparison.
    if std::env::var_os("PSI_FIG9_SCALING_ONLY").is_some() {
        scaling_study();
        return;
    }
    let env = ExperimentEnv::from_env();
    // The paper evaluates 100 queries here ("evaluating 1000 queries
    // takes too much time for the two-threaded approach") — we default
    // to the harness-wide count.
    let cap: u64 = std::env::var("PSI_REPRO_STEP_CAP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000_000);
    let mut table = ResultTable::new(
        "fig9",
        &[
            "dataset",
            "size",
            "two_threaded_ms",
            "smartpsi1_ms",
            "smartpsi2_static_ms",
            "smartpsi2_ws_ms",
            "baseline_unresolved",
        ],
    );

    for d in [PaperDataset::Youtube, PaperDataset::Twitter] {
        let g = env.dataset(d);
        eprintln!("[fig9] {}: |V|={} |E|={}", d.name(), g.node_count(), g.edge_count());
        let smart = SmartPsi::new(g.clone(), SmartPsiConfig::web_scale());
        let mut xs: Vec<String> = Vec::new();
        let mut series = vec![
            Series { name: "two-threaded".into(), values: Vec::new() },
            Series { name: "SmartPSI (1t)".into(), values: Vec::new() },
            Series { name: "SmartPSI static (2t)".into(), values: Vec::new() },
            Series { name: "SmartPSI stealing (2t)".into(), values: Vec::new() },
        ];
        for size in 4..=8 {
            let Some(w) = env.workload(&g, size) else { continue };
            // The step cap bounds each racer of the baseline (the
            // realist's executors ignore `max_steps`).
            let two = RunSpec::new().two_thread().limits(EvalLimits::steps(cap));
            let (unresolved, t_two) = time(|| {
                let mut u = 0usize;
                for q in &w.queries {
                    u += smart.run(q, &two).unresolved;
                }
                u
            });
            let seq = RunSpec::new();
            let (_, t_seq) = time(|| {
                for q in &w.queries {
                    let _ = smart.run(q, &seq);
                }
            });
            let static2 = RunSpec::new().static_chunks(2);
            let (_, t_static) = time(|| {
                for q in &w.queries {
                    let _ = smart.run(q, &static2);
                }
            });
            let ws2 = RunSpec::new().threads(2);
            let (_, t_ws) = time(|| {
                for q in &w.queries {
                    let _ = smart.run(q, &ws2);
                }
            });
            table.row(vec![
                d.name().into(),
                size.to_string(),
                t_two.as_millis().to_string(),
                t_seq.as_millis().to_string(),
                t_static.as_millis().to_string(),
                t_ws.as_millis().to_string(),
                unresolved.to_string(),
            ]);
            xs.push(format!("query size {size}"));
            series[0].values.push(Some(t_two.as_millis() as f64));
            series[1].values.push(Some(t_seq.as_millis() as f64));
            series[2].values.push(Some(t_static.as_millis() as f64));
            series[3].values.push(Some(t_ws.as_millis() as f64));
            eprintln!("[fig9] {} size {size} done", d.name());
        }
        println!("{}", render_grouped_bars(&format!("Figure 9({}): total ms per workload", d.name()), &xs, &series, 48));
    }
    println!(
        "\nFigure 9: parallel SmartPSI vs. two-threaded baseline ({} queries/size)",
        env.queries_per_size
    );
    table.finish();

    scaling_study();
}

/// Static chunking vs. work stealing at increasing worker counts
/// (the 1-thread row, where both degenerate to the sequential
/// executor, is the baseline of `speedup_vs_1t`), plus
/// shared-vs-private cache hit counts. Writes
/// `BENCH_parallel.json` and enforces the 8-thread scaling floor:
/// work stealing must beat static chunking by at least
/// `2.0 / PSI_PARALLEL_SLACK` (slack defaults to 1.0, so the default
/// floor is a hard 2.0×; the checked-in JSON targets ≥ 2.5×).
///
/// The study runs on a dense single-label graph rather than the paper
/// datasets, for two reasons. First, with many labels every
/// candidate's signature row is distinctive — on YouTube and Twitter
/// not a single pair of candidates shares an exact signature, so the
/// prediction cache can never hit and the shared-vs-private ablation
/// is vacuous. With one label, 50–75% of candidates are exact
/// duplicates and the cache carries real traffic. Second, the
/// single-label candidate set is every node in the graph, so the
/// training cap binds globally but not per chunk: static chunking
/// pays for `threads ×` as many ground-truth runs (expensive
/// exhaustive searches on a dense graph) while the pool trains once —
/// the redundancy that grows with the worker count is exactly what
/// the study is after. Each arm is timed as the best of
/// [`STUDY_ROUNDS`] rounds to damp scheduler noise.
fn scaling_study() {
    let g = psi_datasets::generators::erdos_renyi(6_000, 36_000, 1, 31);
    let cfg = SmartPsiConfig {
        // An aggressive fraction under a web-scale cap: the cap of 400
        // binds for the pool's single training run (0.5 × 6000 » 400),
        // while each static chunk re-trains its own fraction (0.5 ×
        // 750 = 375 nodes at 8 threads, 3000 ground-truth runs total
        // vs. the pool's 400) — the per-chunk redundancy that grows
        // with the worker count is exactly what the study measures.
        train_fraction: 0.50,
        max_train_nodes: 400,
        ..SmartPsiConfig::default()
    };
    let smart = SmartPsi::new(g.clone(), cfg);
    // Size-mixed (skewed) workload: small queries are cheap, large
    // ones expensive, so contiguous chunks get uneven work.
    let mut queries = Vec::new();
    for size in 5..=7usize {
        if let Some(w) = psi_datasets::QueryWorkload::extract(&g, size, 5, 48 + size as u64) {
            queries.extend(w.queries);
        }
    }
    eprintln!(
        "[fig9] scaling study: |V|={} |E|={} single-label, {} queries",
        g.node_count(),
        g.edge_count(),
        queries.len()
    );

    let mut table = ResultTable::new(
        "parallel_scaling",
        &[
            "threads",
            "static_ms",
            "ws_ms",
            "pool_spawn_ms",
            "speedup_vs_static",
            "speedup_vs_1t",
            "shared_hits",
            "prefilter_pruned",
        ],
    );
    let mut json_rows = String::new();
    let mut speedup_at_8 = f64::MAX;
    let mut t_one = f64::NAN;
    for &threads in &[1usize, 2, 4, 8] {
        // Warm the shared pool at this thread level with one recorded
        // run, and read back the one-time spawn bill: the engine's
        // lazy pool spawns each OS thread exactly once per process, so
        // this is the entire `pool_spawn_ms` the whole batch pays —
        // every timed round below runs on warm workers.
        let warmup = RunSpec::new()
            .threads(threads)
            .recorder(Arc::new(MetricsRecorder::new()));
        let r = smart.run(&queries[0], &warmup);
        let (pool_spawn_ms, pool_threads_spawned) = r.profile.as_ref().map_or((0.0, 0), |p| {
            (
                p.span(Phase::PoolSpawn).as_nanos() as f64 / 1e6,
                p.counter(Counter::PoolThreadsSpawned),
            )
        });
        let mut t_static = f64::MAX;
        let mut t_ws = f64::MAX;
        let mut t_private = f64::MAX;
        let mut shared_hits = 0usize;
        let mut pruned = 0usize;
        let static_spec = RunSpec::new().static_chunks(threads);
        let ws_spec = RunSpec::new().threads(threads);
        let uncached_spec = RunSpec::new().threads(threads).shared_cache(false);
        for _ in 0..STUDY_ROUNDS {
            let (_, t) = time(|| {
                for q in &queries {
                    let _ = smart.run(q, &static_spec);
                }
            });
            t_static = t_static.min(t.as_secs_f64() * 1e3);
            let ((hits, pr), t) = time(|| {
                let (mut hits, mut pr) = (0usize, 0usize);
                for q in &queries {
                    let r = smart.run(q, &ws_spec);
                    hits += cache_hits(&r);
                    pr += prefilter_pruned(&r);
                }
                (hits, pr)
            });
            t_ws = t_ws.min(t.as_secs_f64() * 1e3);
            shared_hits = hits;
            pruned = pr;
            // Ablation: same pool and batch plan, but the phase-A
            // sweep predicts every survivor from scratch — no
            // prediction cache at all.
            let (_, t) = time(|| {
                for q in &queries {
                    let _ = smart.run(q, &uncached_spec);
                }
            });
            t_private = t_private.min(t.as_secs_f64() * 1e3);
        }
        if threads == 1 {
            t_one = t_ws;
        }
        let speedup = t_static / t_ws.max(1e-9);
        let speedup_1t = t_one / t_ws.max(1e-9);
        if threads == 8 {
            speedup_at_8 = speedup;
        }
        table.row(vec![
            threads.to_string(),
            format!("{t_static:.1}"),
            format!("{t_ws:.1}"),
            format!("{pool_spawn_ms:.2}"),
            format!("{speedup:.2}"),
            format!("{speedup_1t:.2}"),
            shared_hits.to_string(),
            pruned.to_string(),
        ]);
        let _ = writeln!(
            json_rows,
            "    {{\"threads\": {threads}, \"static_ms\": {t_static:.1}, \
             \"work_stealing_ms\": {t_ws:.1}, \"work_stealing_uncached_ms\": {t_private:.1}, \
             \"pool_spawn_ms\": {pool_spawn_ms:.2}, \
             \"pool_threads_spawned\": {pool_threads_spawned}, \
             \"speedup_vs_static\": {speedup:.3}, \"speedup_vs_1t\": {speedup_1t:.3}, \
             \"shared_cache_hits\": {shared_hits}, \
             \"prefilter_pruned\": {pruned}}},",
        );
        eprintln!("[fig9] scaling study at {threads} threads done");
    }
    table.finish();

    let json = format!(
        "{{\n  \"experiment\": \"fig9 parallel scaling (dense single-label skewed workload, \
         best of {STUDY_ROUNDS} rounds)\",\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.trim_end().trim_end_matches(','),
    );
    write_bench_json("BENCH_parallel.json", &json);

    // Scaling floor: train-once + one batched phase-A sweep + warm
    // workers must beat per-chunk retraining by at least 2.0× at 8
    // threads (`PSI_PARALLEL_SLACK` loosens the floor for noisy CI
    // hosts; the checked-in numbers target ≥ 2.5×).
    let slack = slack("PSI_PARALLEL_SLACK", 1.0);
    let floor = 2.0 / slack;
    assert!(
        speedup_at_8 >= floor,
        "scaling floor: work stealing at 8 threads is only {speedup_at_8:.2}x \
         over static chunking (floor {floor:.2}x; raise PSI_PARALLEL_SLACK only \
         for a provably noisy host)"
    );
    println!("[fig9] scaling floor ok: {speedup_at_8:.2}x >= {floor:.2}x at 8 threads");
}

/// Prediction-cache hits served during `r`'s evaluation, read back
/// from the attached [`psi_core::obs::QueryProfile`].
fn cache_hits(r: &PsiResult) -> usize {
    r.profile.as_ref().map_or(0, |p| p.counter(Counter::CacheHits) as usize)
}

/// Candidates the batched phase-A sweep pruned before prediction.
fn prefilter_pruned(r: &PsiResult) -> usize {
    r.profile.as_ref().map_or(0, |p| p.counter(Counter::PrefilterPruned) as usize)
}
