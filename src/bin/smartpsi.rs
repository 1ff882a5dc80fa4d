//! `smartpsi` — command-line front end for the PSI toolkit.
//!
//! ```text
//! smartpsi generate --dataset yeast --seed 42 --out yeast.lg
//! smartpsi stats    --graph yeast.lg
//! smartpsi extract  --graph yeast.lg --size 6 --count 100 --seed 7 --out q6.q
//! smartpsi query    --graph yeast.lg --queries q6.q [--engine smartpsi|optimistic|pessimistic|twothread|turboiso+|enumerate] [--threads N]
//! smartpsi batch    --graph yeast.lg --queries q6.q [--workers N] [--repeat N] [--updates u.up] [--shards N]
//! smartpsi serve    --graph yeast.lg --listen 127.0.0.1:7878 [--workers N] [--max-queue N] [--rate R]
//! smartpsi mine     --graph yeast.lg --threshold 50 --max-edges 3 [--evaluator psi|iso]
//! smartpsi similarity --graph yeast.lg --a 3 --b 17
//! ```
//!
//! Arguments are `--key value` pairs; unknown keys are rejected.
//! Hand-rolled parsing keeps the dependency set to the sanctioned
//! crates.

use std::collections::BTreeMap;
use std::process::ExitCode;

use smartpsi::core::obs::MetricsRecorder;
use smartpsi::core::single::{psi_with_strategy_presig, RunOptions};
use smartpsi::core::{
    install_quiet_panic_hook, DeploymentSpec, FailureReport, FaultPlan, RunSpec, SmartPsi,
    SmartPsiConfig, Strategy,
};
use smartpsi::datasets::{PaperDataset, QueryWorkload};
use smartpsi::graph::{Graph, GraphStats};
use smartpsi::matching::{
    psi_by_enumeration, turboiso::turboiso_plus_psi, Engine, PanicIsolated, SearchBudget,
};
use smartpsi::signature::matrix_signatures;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        print_usage();
        return Ok(());
    };
    let opts = parse_opts(rest)?;
    type Command = fn(&Opts) -> Result<(), String>;
    let (command, keys): (Command, &[&str]) = match cmd.as_str() {
        "generate" => (cmd_generate, &["dataset", "seed", "scale", "out"]),
        "stats" => (cmd_stats, &["graph", "sig-store"]),
        "extract" => (cmd_extract, &["graph", "size", "count", "seed", "out"]),
        "query" => (
            cmd_query,
            &[
                "graph",
                "queries",
                "engine",
                "step-cap",
                "threads",
                "max-retries",
                "node-timeout-ms",
                "fault-seed",
                "sig-store",
                "profile-out",
            ],
        ),
        "batch" => (
            cmd_batch,
            &[
                "graph",
                "queries",
                "workers",
                "repeat",
                "updates",
                "shards",
                "sig-store",
            ],
        ),
        "serve" => (
            cmd_serve,
            &[
                "graph",
                "listen",
                "workers",
                "max-queue",
                "rate",
                "burst",
                "deadline-ms",
                "write-timeout-ms",
                "label-capacity",
                "sig-store",
            ],
        ),
        "mine" => (cmd_mine, &["graph", "threshold", "max-edges", "evaluator"]),
        "similarity" => (cmd_similarity, &["graph", "a", "b"]),
        "help" | "--help" | "-h" => {
            print_usage();
            return Ok(());
        }
        other => return Err(format!("unknown command '{other}' (try 'smartpsi help')")),
    };
    if let Some(key) = opts.keys().find(|k| !keys.contains(&k.as_str())) {
        return Err(format!(
            "unknown option --{key} for '{cmd}' (accepted: --{})",
            keys.join(", --")
        ));
    }
    command(&opts)
}

fn print_usage() {
    println!(
        "smartpsi — pivoted subgraph isomorphism toolkit\n\n\
         commands:\n\
         \x20 generate   --dataset <yeast|cora|human|youtube|twitter|weibo> [--seed N] [--scale F] --out FILE\n\
         \x20 stats      --graph FILE [--sig-store dense|compact]\n\
         \x20            prints graph stats plus the signature-index footprint\n\
         \x20            under the chosen store backend\n\
         \x20 extract    --graph FILE --size N [--count N] [--seed N] --out FILE\n\
         \x20 query      --graph FILE --queries FILE [--engine NAME] [--step-cap N] [--threads N]\n\
         \x20            [--max-retries N] [--node-timeout-ms N] [--fault-seed N]\n\
         \x20            [--sig-store dense|compact]\n\
         \x20            engines: smartpsi (default), optimistic, pessimistic, twothread,\n\
         \x20                     turboiso+, enumerate\n\
         \x20            --threads: smartpsi workers (1 = the calling thread, default;\n\
         \x20                       0 = one worker per hardware thread)\n\
         \x20            --max-retries: budget-escalation attempts before the exact\n\
         \x20                       fallback (smartpsi engine, default 2)\n\
         \x20            --node-timeout-ms: per-node wall-clock budget, all attempts\n\
         \x20                       (smartpsi engine, default unlimited)\n\
         \x20            --fault-seed: enable the deterministic fault-injection drill\n\
         \x20                       (seeded panics/interrupts/step-burns; see DESIGN.md §11)\n\
         \x20            --profile-out: write per-query QueryProfile JSON to FILE and\n\
         \x20                       print the phase-time table (smartpsi engine)\n\
         \x20 batch      --graph FILE --queries FILE [--workers N] [--repeat N] [--updates FILE]\n\
         \x20            [--shards N] [--sig-store dense|compact]\n\
         \x20            serve the whole query file through a persistent PsiService\n\
         \x20            worker pool (spawned once, shared signatures, cross-query\n\
         \x20            prediction cache); prints per-query answers plus service\n\
         \x20            stats. --workers: pool size (default 4); --repeat: submit\n\
         \x20            the workload N times (default 1) to exercise cache reuse;\n\
         \x20            --updates: evolve the served graph from an update-stream\n\
         \x20            file ('v LABEL' / 'e SRC DST [LABEL]' lines, batches end at\n\
         \x20            'commit') and replay the workload after every batch;\n\
         \x20            --shards: partition the graph into N range shards, each a\n\
         \x20            private context with --workers workers, and scatter-gather\n\
         \x20            every query (halo sized from the workload; see DESIGN.md §15)\n\
         \x20 serve      --graph FILE --listen ADDR [--workers N] [--max-queue N]\n\
         \x20            [--rate R] [--burst N] [--deadline-ms N] [--write-timeout-ms N]\n\
         \x20            [--label-capacity N] [--sig-store dense|compact]\n\
         \x20            serve PSI queries over TCP with a line-delimited JSON protocol\n\
         \x20            (one request per line; see DESIGN.md §16 for the grammar and a\n\
         \x20            netcat walkthrough). --listen: e.g. 127.0.0.1:7878 (port 0 picks\n\
         \x20            one); --workers: pool size (default 4); --max-queue: queue-depth\n\
         \x20            shed ceiling (default 256); --rate/--burst: per-connection\n\
         \x20            token-bucket quota (requests/s, default off); --deadline-ms:\n\
         \x20            default per-query deadline; --write-timeout-ms: slow-client\n\
         \x20            write timeout (default 5000); --label-capacity: reserve label\n\
         \x20            ids for labels first seen in wire updates. Drain with\n\
         \x20            '{{\"op\":\"shutdown\",\"id\":0,\"grace_ms\":1000}}'.\n\
         \x20 mine       --graph FILE [--threshold N] [--max-edges N] [--evaluator psi|iso]\n\
         \x20 similarity --graph FILE --a NODE --b NODE"
    );
}

type Opts = BTreeMap<String, String>;

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut m = Opts::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --key, got '{k}'"))?;
        let v = it
            .next()
            .ok_or_else(|| format!("missing value for --{key}"))?;
        if m.insert(key.to_string(), v.clone()).is_some() {
            return Err(format!("duplicate option --{key}"));
        }
    }
    Ok(m)
}

fn req<'a>(opts: &'a Opts, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing required option --{key}"))
}

fn opt_parse<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value for --{key}: '{v}'")),
    }
}

fn load(opts: &Opts) -> Result<Graph, String> {
    let path = req(opts, "graph")?;
    smartpsi::graph::io::load_graph(path).map_err(|e| format!("loading {path}: {e}"))
}

/// `--sig-store dense|compact` (default dense: the paper's bit-exact
/// f32 backend; `compact` serves from the quantized u8 + presence
/// index at ~28% of the memory).
fn sig_store_opt(opts: &Opts) -> Result<smartpsi::signature::SigStoreKind, String> {
    match opts.get("sig-store") {
        None => Ok(smartpsi::signature::SigStoreKind::Dense),
        Some(v) => smartpsi::signature::SigStoreKind::parse(v).ok_or_else(|| {
            format!("invalid value for --sig-store: '{v}' (expected dense|compact)")
        }),
    }
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let dataset: PaperDataset = req(opts, "dataset")?.parse()?;
    let seed: u64 = opt_parse(opts, "seed", 42)?;
    let scale: f64 = opt_parse(opts, "scale", 1.0)?;
    let out = req(opts, "out")?;
    let g = if (scale - 1.0).abs() < 1e-12 {
        dataset.generate(seed)
    } else {
        dataset.generate_scaled(scale, seed)
    };
    smartpsi::graph::io::save_graph(&g, out).map_err(|e| e.to_string())?;
    println!("wrote {out}: {}", GraphStats::of(&g));
    Ok(())
}

fn cmd_stats(opts: &Opts) -> Result<(), String> {
    use smartpsi::signature::{default_scale, SigStore, SigStoreKind};
    let g = load(opts)?;
    let kind = sig_store_opt(opts)?;
    let s = GraphStats::of(&g);
    println!("{s}");
    let (_, components) = smartpsi::graph::algo::connected_components(&g);
    println!("components: {components}");
    // Price the signature index under the requested backend (and show
    // the dense baseline so the savings are visible at a glance).
    let depth = SmartPsiConfig::default().depth;
    let dense = matrix_signatures(&g, depth);
    let dense_bytes = SigStore::Dense(dense.clone()).index_bytes();
    let store = SigStore::from_matrix(dense, kind, default_scale(depth));
    if store.kind() == SigStoreKind::Dense {
        println!("signature store: dense ({} bytes)", store.index_bytes());
    } else {
        println!(
            "signature store: {} ({} bytes, {:.1}% of dense's {} bytes)",
            store.kind().name(),
            store.index_bytes(),
            100.0 * store.index_bytes() as f64 / dense_bytes.max(1) as f64,
            dense_bytes
        );
    }
    let mut hist: Vec<(usize, usize)> = s
        .label_histogram
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(l, &c)| (c, l))
        .collect();
    hist.sort_unstable_by(|a, b| b.cmp(a));
    println!("top labels:");
    for (c, l) in hist.iter().take(8) {
        println!("  label {l}: {c} nodes");
    }
    Ok(())
}

fn cmd_extract(opts: &Opts) -> Result<(), String> {
    let g = load(opts)?;
    let size: usize = req(opts, "size")?.parse().map_err(|_| "bad --size")?;
    let count: usize = opt_parse(opts, "count", 100)?;
    let seed: u64 = opt_parse(opts, "seed", 7)?;
    let out = req(opts, "out")?;
    let w = QueryWorkload::extract(&g, size, count, seed)
        .ok_or("graph cannot produce queries of this size")?;
    smartpsi::datasets::save_workload(&w, out).map_err(|e| e.to_string())?;
    println!("wrote {out}: {} queries of size {size}", w.queries.len());
    Ok(())
}

/// Per-query result line, with a failure suffix when nodes failed.
fn print_query_line(i: usize, valid: usize, steps: u64, failures: &FailureReport) {
    if failures.is_empty() {
        println!("query {i}: {valid} valid nodes ({steps} steps)");
    } else {
        println!(
            "query {i}: {valid} valid nodes ({steps} steps, {} failed)",
            failures.len()
        );
    }
}

fn cmd_query(opts: &Opts) -> Result<(), String> {
    let g = load(opts)?;
    let queries = req(opts, "queries")?;
    let w = smartpsi::datasets::load_workload(queries).map_err(|e| e.to_string())?;
    let engine = opts.get("engine").map(|s| s.as_str()).unwrap_or("smartpsi");
    let step_cap: u64 = opt_parse(opts, "step-cap", u64::MAX)?;
    let threads: usize = opt_parse(opts, "threads", 1)?;
    let max_retries: u32 = opt_parse(opts, "max-retries", 2)?;
    let node_timeout_ms: u64 = opt_parse(opts, "node-timeout-ms", 0)?;
    let fault_seed: Option<u64> = match opts.get("fault-seed") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("invalid value for --fault-seed: '{v}'"))?),
    };
    // Deterministic chaos drill: 1% of nodes panic once, 1% spuriously
    // interrupt once, 1% burn budget once. All one-shot, so the retry
    // ladder must recover every node and the answer stays exact.
    let fault = fault_seed.map(|seed| {
        install_quiet_panic_hook();
        std::sync::Arc::new(FaultPlan::seeded(seed, 0.01, 0.01, 0.01))
    });
    let run_opts = RunOptions {
        fault: fault.clone(),
        ..RunOptions::default()
    };

    let t0 = std::time::Instant::now();
    let mut total_valid = 0usize;
    let mut total_failures = FailureReport::default();
    match engine {
        "smartpsi" => {
            let mut config = SmartPsiConfig {
                fault: fault.clone(),
                sig_store: sig_store_opt(opts)?,
                ..SmartPsiConfig::default()
            };
            config.max_attempts = max_retries;
            if node_timeout_ms > 0 {
                config.node_timeout = Some(std::time::Duration::from_millis(node_timeout_ms));
            }
            let smart = SmartPsi::new(g.clone(), config);
            let profile_out = opts.get("profile-out").cloned();
            // 0 = auto (one worker per hardware thread).
            let base_spec = RunSpec::new().threads(threads);
            let mut profiles = Vec::new();
            for (i, q) in w.queries.iter().enumerate() {
                // Fresh recorder per query so spans and counters do not
                // accumulate across the workload.
                let spec = if profile_out.is_some() {
                    base_spec.clone().recorder(std::sync::Arc::new(MetricsRecorder::new()))
                } else {
                    base_spec.clone()
                };
                let r = smart.run(q, &spec);
                print_query_line(i, r.count(), r.steps, &r.failures);
                total_valid += r.count();
                total_failures.merge(&r.failures);
                if let Some(p) = r.profile {
                    profiles.push(*p);
                }
            }
            if let Some(path) = profile_out {
                if let Some(last) = profiles.last() {
                    println!("{last}");
                }
                let rows: Vec<String> = profiles.iter().map(|p| p.to_json()).collect();
                let body = format!("[\n{}\n]\n", rows.join(",\n"));
                std::fs::write(&path, body).map_err(|e| format!("writing {path}: {e}"))?;
                println!("wrote {} query profiles to {path}", profiles.len());
            }
        }
        "optimistic" | "pessimistic" => {
            let sigs = matrix_signatures(&g, 2);
            let strategy = if engine == "optimistic" {
                Strategy::optimistic()
            } else {
                Strategy::pessimistic()
            };
            for (i, q) in w.queries.iter().enumerate() {
                let r = psi_with_strategy_presig(&g, &sigs, q, strategy, &run_opts);
                print_query_line(i, r.count(), r.steps, &r.failures);
                total_valid += r.count();
                total_failures.merge(&r.failures);
            }
        }
        "twothread" => {
            // The §4.1 race over the deployment's precomputed
            // signatures, built once for the whole workload.
            let config = SmartPsiConfig {
                fault: fault.clone(),
                ..SmartPsiConfig::default()
            };
            let smart = SmartPsi::new(g.clone(), config);
            let spec = RunSpec::new().two_thread();
            for (i, q) in w.queries.iter().enumerate() {
                let r = smart.run(q, &spec);
                print_query_line(i, r.count(), r.steps, &r.failures);
                total_valid += r.count();
                total_failures.merge(&r.failures);
            }
        }
        "turboiso+" => {
            let budget = SearchBudget::steps(step_cap);
            for (i, q) in w.queries.iter().enumerate() {
                let a = turboiso_plus_psi(&g, q, &budget);
                println!("query {i}: {} valid nodes ({} steps)", a.count(), a.steps);
                total_valid += a.count();
            }
        }
        "enumerate" => {
            let budget = SearchBudget::steps(step_cap);
            // The enumeration engine is third-party-shaped code; contain
            // its panics at the matcher boundary instead of letting one
            // broken query kill the whole batch.
            let isolated = PanicIsolated::new(Engine::TurboIso);
            for (i, q) in w.queries.iter().enumerate() {
                let a = psi_by_enumeration(&isolated, &g, q, &budget);
                println!("query {i}: {} valid nodes ({} steps)", a.count(), a.steps);
                if let Some(reason) = isolated.take_panic() {
                    eprintln!("query {i}: engine panicked ({reason}); results are partial");
                    total_failures.panics_recovered += 1;
                }
                total_valid += a.count();
            }
        }
        other => return Err(format!("unknown engine '{other}'")),
    }
    println!(
        "total: {} valid bindings over {} queries in {:.2?}",
        total_valid,
        w.queries.len(),
        t0.elapsed()
    );
    if !total_failures.is_clean() {
        println!(
            "fault summary: {} failed nodes, {} panics recovered, {} budget escalations, {} worker deaths, {} requeued grabs",
            total_failures.len(),
            total_failures.panics_recovered,
            total_failures.escalations,
            total_failures.worker_deaths,
            total_failures.requeued
        );
    }
    Ok(())
}

/// Serve a query file through a persistent [`smartpsi::core::PsiService`]:
/// the worker pool is spawned once, every job shares the precomputed
/// signatures, and repeated query shapes share a prediction cache.
///
/// With `--updates FILE` the deployment evolves: the workload is
/// served once per committed batch in the update stream, with
/// signatures repaired incrementally and a fresh epoch snapshot
/// published between replays. With `--shards N` (N > 1) the graph is
/// range-partitioned into N shards, each with `--workers` workers, and
/// every query is scattered and gathered; the ghost-node halo is sized
/// from the workload (its maximum pivot eccentricity), so every query
/// passes the deployment's exactness guard.
fn cmd_batch(opts: &Opts) -> Result<(), String> {
    let g = load(opts)?;
    let queries = req(opts, "queries")?;
    let w = smartpsi::datasets::load_workload(queries).map_err(|e| e.to_string())?;
    if w.queries.is_empty() {
        return Err("query file is empty".into());
    }
    let workers: usize = opt_parse(opts, "workers", 4)?;
    let repeat: usize = opt_parse(opts, "repeat", 1)?;
    if workers == 0 || repeat == 0 {
        return Err("--workers and --repeat must be ≥ 1".into());
    }
    let update_batches = match opts.get("updates") {
        None => Vec::new(),
        Some(path) => {
            let batches = smartpsi::graph::io::load_updates(path)
                .map_err(|e| format!("loading {path}: {e}"))?;
            if batches.iter().all(|b| b.is_empty()) {
                return Err(format!("update file {path} holds no updates"));
            }
            batches
        }
    };
    let shards: usize = opt_parse(opts, "shards", 0)?;
    let sig_store = sig_store_opt(opts)?;
    let halo = w
        .queries
        .iter()
        .map(|q| {
            q.graph()
                .bfs_distances(q.pivot())
                .into_iter()
                .filter(|&d| d != u32::MAX)
                .max()
                .unwrap_or(0)
        })
        .max()
        .unwrap_or(1)
        .max(1);
    let spec = DeploymentSpec::new().workers(workers).shards(shards).halo(halo);

    let t_load = std::time::Instant::now();
    let (service, signature_build) = if update_batches.is_empty() {
        let config = SmartPsiConfig { sig_store, ..SmartPsiConfig::default() };
        let smart = SmartPsi::new(g, config);
        (smart.deploy(&spec), smart.signature_build_time())
    } else {
        // Fix the deployment's label space up front so update batches
        // may introduce labels the initial graph has never seen.
        let capacity = update_batches
            .iter()
            .flatten()
            .map(|u| match *u {
                smartpsi::graph::GraphUpdate::AddNode { label } => label as usize + 1,
                smartpsi::graph::GraphUpdate::AddEdge { label, .. } => label as usize + 1,
            })
            .max()
            .unwrap_or(0)
            .max(g.label_count());
        // Build dense (the evolving maintainer seeds from f32 rows)
        // and let the deploy spec pick the serving backend.
        let smart = SmartPsi::new(g, SmartPsiConfig::default());
        let spec = spec.evolving(capacity).sig_store(sig_store);
        (smart.deploy(&spec), smart.signature_build_time())
    };
    println!(
        "deployment ready in {:.2?} (signatures {:.2?}, {} store)",
        t_load.elapsed(),
        signature_build,
        sig_store.name()
    );

    let t0 = std::time::Instant::now();
    let mut submitted = 0usize;
    let mut total_valid = 0usize;
    let mut total_failures = FailureReport::default();
    let mut replay = |service: &smartpsi::core::PsiService| {
        // Submit everything up front — the point of the service is
        // that submission is cheap and the pool drains the queue.
        let handles: Vec<(usize, smartpsi::core::JobHandle)> = (0..repeat)
            .flat_map(|_| w.queries.iter().enumerate())
            .map(|(i, q)| (i, service.submit(q.clone(), RunSpec::new())))
            .collect();
        submitted += handles.len();
        for (i, h) in handles {
            let r = h.wait();
            print_query_line(i, r.count(), r.steps, &r.failures);
            total_valid += r.count();
            total_failures.merge(&r.failures);
        }
    };

    replay(&service);
    for batch in &update_batches {
        let report = service
            .apply_update(batch)
            .map_err(|e| format!("applying update batch: {e}"))?;
        println!(
            "epoch {}: +{} nodes, +{} edges ({} duplicates), {} signature rows repaired, \
             {} caches invalidated",
            report.epoch,
            report.nodes_added,
            report.edges_added,
            report.duplicate_edges,
            report.rows_repaired,
            service.stats().cache_invalidations
        );
        replay(&service);
    }

    let elapsed = t0.elapsed();
    let stats = service.stats();
    println!(
        "total: {total_valid} valid bindings over {submitted} jobs in {elapsed:.2?} \
         ({:.1} queries/s, {} workers)",
        submitted as f64 / elapsed.as_secs_f64().max(1e-9),
        service.workers()
    );
    println!(
        "service: {} served, {} cross-query cache hits, {} shapes, {} evictions, {} requeued, \
         {} panics",
        stats.queries_served,
        stats.cross_query_cache_hits,
        stats.distinct_query_shapes,
        stats.cache_evictions,
        stats.requeued_jobs,
        stats.worker_panics
    );
    if stats.graph_epoch > 0 {
        println!(
            "evolution: final epoch {}, {} cache invalidations",
            stats.graph_epoch, stats.cache_invalidations
        );
    }
    if !total_failures.is_clean() {
        println!(
            "fault summary: {} failed nodes, {} panics recovered, {} budget escalations",
            total_failures.len(),
            total_failures.panics_recovered,
            total_failures.escalations
        );
    }
    Ok(())
}

/// `smartpsi serve`: the network front door. Builds an evolving
/// deployment (so wire `update` requests are accepted), binds a
/// [`smartpsi::core::NetServer`] on `--listen`, and blocks until a
/// client sends the protocol `shutdown` op, then reports the drain.
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    use std::time::Duration;

    let g = load(opts)?;
    let listen = req(opts, "listen")?.to_string();
    let workers: usize = opt_parse(opts, "workers", 4)?;
    if workers == 0 {
        return Err("--workers must be ≥ 1".into());
    }
    let max_queue: usize = opt_parse(opts, "max-queue", 256)?;
    let rate: f64 = opt_parse(opts, "rate", 0.0)?;
    let burst: f64 = opt_parse(opts, "burst", 32.0)?;
    let deadline_ms: u64 = opt_parse(opts, "deadline-ms", 0)?;
    let write_timeout_ms: u64 = opt_parse(opts, "write-timeout-ms", 5_000)?;
    let label_capacity: usize = opt_parse(opts, "label-capacity", 0)?;
    if rate < 0.0 || burst < 0.0 {
        return Err("--rate and --burst must be ≥ 0".into());
    }

    let t_load = std::time::Instant::now();
    // Always deploy evolving so wire updates work; --label-capacity
    // reserves extra label ids beyond the file's.
    let sig_store = sig_store_opt(opts)?;
    let capacity = label_capacity.max(g.label_count());
    let smart = SmartPsi::new(g, SmartPsiConfig::default());
    let build = smart.signature_build_time();
    let dspec = DeploymentSpec::new()
        .workers(workers)
        .evolving(capacity)
        .sig_store(sig_store);
    let service = smart.deploy(&dspec);
    println!(
        "deployment ready in {:.2?} (signatures {:.2?}, {workers} workers, {} store)",
        t_load.elapsed(),
        build,
        sig_store.name()
    );

    let cfg = smartpsi::core::NetServerConfig {
        max_queue,
        quota_rate: rate,
        quota_burst: burst,
        default_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        write_timeout: Duration::from_millis(write_timeout_ms.max(1)),
        ..Default::default()
    };
    let mut server = smartpsi::core::NetServer::bind(service, listen.as_str(), cfg)
        .map_err(|e| format!("binding {listen}: {e}"))?;
    let addr = server.local_addr();
    println!("listening on {addr} (line-delimited JSON; see DESIGN.md §16)");
    println!(
        "try: echo '{{\"op\":\"stats\",\"id\":1}}' | nc {} {}",
        addr.ip(),
        addr.port()
    );
    let report = server.wait();
    let stats = server.service_stats();
    println!(
        "drained: {} jobs completed, {} aborted past deadline",
        report.drained, report.aborted
    );
    println!(
        "service: {} served, {} cross-query cache hits, {} shapes, {} evictions",
        stats.queries_served,
        stats.cross_query_cache_hits,
        stats.distinct_query_shapes,
        stats.cache_evictions
    );
    Ok(())
}

fn cmd_mine(opts: &Opts) -> Result<(), String> {
    use smartpsi::fsm::{IsoSupport, Miner, MinerConfig, PsiSupport};
    let g = load(opts)?;
    let threshold: usize = opt_parse(opts, "threshold", (g.node_count() / 50).max(2))?;
    let max_edges: usize = opt_parse(opts, "max-edges", 3)?;
    let evaluator = opts.get("evaluator").map(|s| s.as_str()).unwrap_or("psi");
    let config = MinerConfig {
        threshold,
        max_edges,
        max_candidates_per_level: 10_000,
    };
    let miner = Miner::new(&g, config);
    let t0 = std::time::Instant::now();
    let out = match evaluator {
        "psi" => {
            let sigs = matrix_signatures(&g, 2);
            miner.mine(&mut PsiSupport::new(&g, &sigs))
        }
        "iso" => miner.mine(&mut IsoSupport::new(&g, 100_000_000)),
        other => return Err(format!("unknown evaluator '{other}'")),
    };
    println!(
        "mined {} frequent patterns (threshold {threshold}, ≤{max_edges} edges) in {:.2?}{}",
        out.frequent.len(),
        t0.elapsed(),
        if out.exact { "" } else { " [inexact: budget hit]" }
    );
    for (p, s) in out.frequent.iter().take(20) {
        println!(
            "  {} nodes / {} edges, labels {:?}: support {s}",
            p.node_count(),
            p.edge_count(),
            p.graph().labels()
        );
    }
    if out.frequent.len() > 20 {
        println!("  … and {} more", out.frequent.len() - 20);
    }
    Ok(())
}

fn cmd_similarity(opts: &Opts) -> Result<(), String> {
    let g = load(opts)?;
    let a: u32 = req(opts, "a")?.parse().map_err(|_| "bad --a")?;
    let b: u32 = req(opts, "b")?.parse().map_err(|_| "bad --b")?;
    if a as usize >= g.node_count() || b as usize >= g.node_count() {
        return Err("node id out of range".into());
    }
    let sigs = matrix_signatures(&g, 2);
    let s = smartpsi::apps::pivoted_similarity(&g, &sigs, a, b, &Default::default());
    println!("pivoted-subgraph similarity of {a} and {b}: {s:.3}");
    Ok(())
}
