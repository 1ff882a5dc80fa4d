//! Figure 9 — parallel SmartPSI vs. the two-threaded baseline on
//! YouTube and Twitter, query sizes 4–8, plus the parallel-executor
//! scaling study (`BENCH_parallel.json`).
//!
//! For fairness (as in the paper) SmartPSI also gets two concurrent
//! threads in the headline comparison, each evaluating different
//! candidate nodes, while the baseline spends its two threads racing
//! the optimistic and pessimistic methods on the *same* node. Every arm
//! runs through `SmartPsi::run` on one deployment, so the baseline
//! reuses the precomputed signatures exactly like SmartPSI does.
//! SmartPSI appears twice: on one thread (the honest baseline for its
//! parallel arm) and on the work-stealing pool with two workers (train
//! once with the per-node runs and tree fits on the pool, one phase-A
//! plan whose inferences fan out, a shared grab queue).
//!
//! Paper's claims to reproduce: the baseline can win on the smallest
//! queries (no training overhead), but grows much faster with query
//! size and eventually times out where SmartPSI keeps finishing.
//!
//! The scaling study then drops the baseline and times the pool at
//! 1/2/4/8 workers on a skewed single-label workload (see
//! [`scaling_study`] for why the paper datasets cannot exercise the
//! prediction cache), also counting how often the shared cache serves
//! a prediction and timing the pool on a deployment with the cache
//! off. Worker threads live in the engine's shared lazy pool, so the
//! OS-thread spawn bill (`pool_spawn_ms`) is paid once per thread
//! level — the study warms the pool with one recorded run, reports
//! that one-time bill as its own column, and times every arm against
//! warm workers. Each row reports its speedup against the 1-thread row
//! (`speedup_vs_1t`). With `PSI_FIG9_SCALING_ONLY` set, the binary
//! skips the paper-dataset comparison and runs just the scaling study;
//! `ci.sh` uses that mode to enforce the 2-thread scaling floor
//! ([`FLOOR_2T`] / `PSI_PARALLEL_SLACK`). Results land in
//! `BENCH_parallel.json` next to the CSVs.

use std::fmt::Write as _;
use std::sync::Arc;

use psi_bench::{render_grouped_bars, slack, time, write_bench_json, ExperimentEnv, ResultTable, Series};
use psi_core::obs::{Counter, MetricsRecorder, Phase};
use psi_core::{EvalLimits, PsiResult, RunSpec, SmartPsi, SmartPsiConfig};
use psi_datasets::PaperDataset;

/// Timing rounds per scaling-study arm; the minimum is recorded.
const STUDY_ROUNDS: usize = 3;

/// The scaling floor: the pool at 2 threads must run the study at
/// least this many times faster than its own 1-thread row, divided by
/// `PSI_PARALLEL_SLACK` (default 1.0). Chosen below the lowest of 15
/// runs of the study on a 2-core host, which read 1.18–2.01×
/// (EXPERIMENTS.md, Figure 9); a host with one core reports the
/// 2-thread row ungated.
const FLOOR_2T: f64 = 1.15;

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
                t_ws.as_millis().to_string(),
                unresolved.to_string(),
            ]);
            xs.push(format!("query size {size}"));
            series[0].values.push(Some(t_two.as_millis() as f64));
            series[1].values.push(Some(t_seq.as_millis() as f64));
            series[2].values.push(Some(t_ws.as_millis() as f64));
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

/// The work-stealing pool at increasing worker counts against its own
/// 1-thread row (the baseline of `speedup_vs_1t`), plus shared-cache
/// hit counts and an uncached arm. Writes `BENCH_parallel.json` and
/// enforces the 2-thread scaling floor: on a host with at least two
/// cores, `speedup_vs_1t` at 2 threads must reach
/// [`FLOOR_2T`] / `PSI_PARALLEL_SLACK`. The 4- and 8-thread rows are
/// reported, not gated: on a 2-core host they add workers, not cores.
///
/// The study runs on a dense single-label graph rather than the paper
/// datasets, for two reasons. First, with many labels every
/// candidate's signature row is distinctive — on YouTube and Twitter
/// not a single pair of candidates shares an exact signature, so the
/// prediction cache can never hit and the uncached ablation is
/// vacuous. With one label, 50–75% of candidates are exact
/// duplicates and the cache carries real traffic. Second, the
/// single-label candidate set is every node in the graph, so the
/// training sample is large (the cap of 400 binds: 0.5 × 6000 » 400)
/// and its ground-truth runs are expensive exhaustive searches on a
/// dense graph — the set-up the pool now spreads over its workers
/// instead of running it on the calling thread. Each arm is timed as
/// the best of [`STUDY_ROUNDS`] rounds to damp scheduler noise.
fn scaling_study() {
    let g = psi_datasets::generators::erdos_renyi(6_000, 36_000, 1, 31);
    let cfg = SmartPsiConfig {
        // An aggressive fraction under a web-scale cap: the cap of 400
        // binds (0.5 × 6000 » 400), so every query trains on 400
        // expensive ground-truth runs — the heavy set-up the pool
        // carries in parallel.
        train_fraction: 0.50,
        max_train_nodes: 400,
        ..SmartPsiConfig::default()
    };
    let smart = SmartPsi::new(g.clone(), cfg.clone());
    // The ablation arm's deployment: the same graph and config with
    // the prediction cache off, so phase A predicts every survivor
    // from scratch. Built here, outside every timed round.
    let uncached = SmartPsi::new(
        g.clone(),
        SmartPsiConfig {
            enable_cache: false,
            ..cfg
        },
    );
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
            "ws_ms",
            "pool_spawn_ms",
            "speedup_vs_1t",
            "shared_hits",
            "prefilter_pruned",
        ],
    );
    let mut json_rows = String::new();
    let mut speedup_at_2 = f64::NAN;
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
        let mut t_ws = f64::MAX;
        let mut t_private = f64::MAX;
        let mut shared_hits = 0usize;
        let mut pruned = 0usize;
        let ws_spec = RunSpec::new().threads(threads);
        for _ in 0..STUDY_ROUNDS {
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
            // Ablation: same driver and spec on the uncached
            // deployment — no prediction cache at all.
            let (_, t) = time(|| {
                for q in &queries {
                    let _ = uncached.run(q, &ws_spec);
                }
            });
            t_private = t_private.min(t.as_secs_f64() * 1e3);
        }
        if threads == 1 {
            t_one = t_ws;
        }
        let speedup_1t = t_one / t_ws.max(1e-9);
        if threads == 2 {
            speedup_at_2 = speedup_1t;
        }
        table.row(vec![
            threads.to_string(),
            format!("{t_ws:.1}"),
            format!("{pool_spawn_ms:.2}"),
            format!("{speedup_1t:.2}"),
            shared_hits.to_string(),
            pruned.to_string(),
        ]);
        let _ = writeln!(
            json_rows,
            "    {{\"threads\": {threads}, \
             \"work_stealing_ms\": {t_ws:.1}, \"work_stealing_uncached_ms\": {t_private:.1}, \
             \"pool_spawn_ms\": {pool_spawn_ms:.2}, \
             \"pool_threads_spawned\": {pool_threads_spawned}, \
             \"speedup_vs_1t\": {speedup_1t:.3}, \
             \"shared_cache_hits\": {shared_hits}, \
             \"prefilter_pruned\": {pruned}}},",
        );
        eprintln!("[fig9] scaling study at {threads} threads done");
    }
    table.finish();

    // Scaling floor: with the set-up (training's runs, the tree fits,
    // phase-A inference) and the grab loop all on the pool, two
    // workers on two cores must beat one by FLOOR_2T
    // (`PSI_PARALLEL_SLACK` loosens it for noisy CI hosts). One core
    // cannot run two workers at once, so there the row is a report.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let slack = slack("PSI_PARALLEL_SLACK", 1.0);
    let floor = FLOOR_2T / slack;
    let gated = cores >= 2;
    let json = format!(
        "{{\n  \"experiment\": \"fig9 parallel scaling (dense single-label skewed workload, \
         best of {STUDY_ROUNDS} rounds)\",\n  \
         \"floor\": {{\"speedup_vs_1t_at_2_threads\": {FLOOR_2T:.2}, \"slack\": {slack:.2}, \
         \"cores\": {cores}, \"gated\": {gated}}},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.trim_end().trim_end_matches(','),
    );
    write_bench_json("BENCH_parallel.json", &json);

    if !gated {
        println!(
            "[fig9] scaling floor not gated on a {cores}-core host: \
             {speedup_at_2:.2}x at 2 threads (floor {floor:.2}x needs 2 cores)"
        );
        return;
    }
    assert!(
        speedup_at_2 >= floor,
        "scaling floor: the pool at 2 threads is only {speedup_at_2:.2}x over its \
         1-thread row (floor {floor:.2}x; raise PSI_PARALLEL_SLACK only for a \
         provably noisy host)"
    );
    println!("[fig9] scaling floor ok: {speedup_at_2:.2}x >= {floor:.2}x at 2 threads");
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
