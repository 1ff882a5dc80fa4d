//! `waterfall` — the repository's benchmark: where a SmartPSI request's
//! time goes, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline -p psi-bench --bin waterfall -- --seed 42
//! cargo run --release --offline -p psi-bench --bin waterfall -- \
//!     --workload wire-unique --seed 7 --seconds 28 --trace 0
//! cargo test -p psi-bench --bin waterfall
//! ```
//!
//! Without `--workload` every workload runs, timed and then traced.
//! With it, one pass of one workload runs (`--trace 0` timed, `--trace
//! 1` traced) and the last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the same line goes to
//! `target/waterfall/result.json`. `--quick` shrinks every pass to
//! three 2-second cycles and turns the validity gates off. `--runs N [--out
//! FILE]` repeats timed runs in child processes (seeds `--seed` onward),
//! writes their values to a fresh FILE (default
//! `target/waterfall/runs.json`, replaced, never appended to) and prints
//! each (workload, metric)'s median and IQR; `--compare A B`
//! judges two such files against the bounds in `BENCHMARK.json` as
//! `better`, `worse`, `within`, or `unresolved` when either side's IQR
//! over median is wider than the bound.
//!
//! # Workloads
//!
//! Graphs and query catalogs are fixed (their seeds are constants in
//! this directory); `--seed` decides the order and arrival time of every
//! request and the content of every update batch. The graph and the
//! stream at seed 42 are pinned by 64-bit fingerprints in `spec.rs`, and
//! a run whose inputs do not match them exits non-zero before measuring.
//! Queries are RWR extractions of 4–6 nodes, plus `batch-human`'s fixed
//! tail of 7- and 8-node queries.
//!
//! * `wire-repeat` — Erdős–Rényi graph (2,000 nodes, 8,000 edges, 3
//!   labels), 16 query shapes drawn Zipf(1.0), a static 2-worker
//!   deployment (`max_queue` 32) behind `NetServer`, 150 q/s nominal,
//!   1,200 q/s overload, 100 ms limit. Why: queries are cheap and shapes
//!   repeat, so the front door (`net`/`proto`), the service queue and the
//!   cross-query `PredictionCache` carry most of each request.
//! * `wire-unique` — the YouTube stand-in at 0.3 scale (15,300 nodes,
//!   122k edges, 25 labels, `SmartPsiConfig::web_scale`), a distinct
//!   query per request, 60 q/s nominal, 1,000 q/s overload, 250 ms
//!   limit. Why: costs are heavy-tailed and no two queries share a cache
//!   entry, so training, the ladder and `psi-match` dominate; a
//!   front-door or cache change should read *no change* here.
//! * `batch-human` — the Human stand-in (4,674 nodes, 44 labels) and a
//!   fixed set of 340 queries (300 of 4–6 nodes, 20 of 7 and 20 of 8),
//!   run whole in every pass by one closed-loop caller on
//!   `RunSpec::threads(2)`; the first pass warms up. Why: the paper's
//!   mining setting and the only workload that uses intra-query
//!   parallelism (work stealing, the pool, merge); no network, no
//!   service. The large queries take a sixth of each pass, so work on
//!   them registers in its throughput.
//! * `wire-evolving` — `wire-unique`'s graph on an evolving deployment:
//!   distinct queries at 25 q/s (1,000 q/s overload) on one connection,
//!   25 `update` batches per second (8 edge insertions, and a node one
//!   time in 10) on the other. Why: writes beside reads on the same
//!   layers, so a change that speeds reads but slows repair or publish
//!   (or the reverse) shows here and not in `wire-unique`.
//!
//! Served workloads run open loop from one process: two connections,
//! one client thread each, arrivals at a fixed absolute rate, every
//! request timed from when it was *due*. A run is a train of identical
//! cycles (`spec::Windows`): a nominal segment, an overload segment
//! above capacity, and a gap in which the admission queue drains. The
//! first cycle warms up and is not measured. Overload requests carry the
//! latency limit as their wire deadline; nominal ones carry none, so a
//! slow answer counts as late, not failed. The server's threads run at
//! nice 10 so that the load generator sends on time, as remote clients
//! would.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! * `setup_s` — generated graph text to ready to answer:
//!   `psi_graph::io::read_graph` + `SmartPsi::new` (+ `deploy` +
//!   `NetServer::bind`); the median of at least 7 set-ups.
//! * `query_p50_ms`, `query_p90_ms` — served: latency of the nominal
//!   segments' queries from due time to response, pooled over the
//!   measured cycles; a query not answered ok counts as infinitely late.
//!   Batch: each pass's percentile of `run` call times, the median over
//!   passes. A percentile with fewer than 10 samples beyond it makes the
//!   run invalid.
//! * `goodput_qps` — served: answers ok and within the latency limit
//!   per second of overload segment, where admission shedding holds the
//!   server at capacity; the median over cycles. Batch: queries per
//!   second of a pass, the median over passes.
//! * `peak_rss_mb` — `VmHWM` after resetting it (`5` into
//!   `/proc/self/clear_refs`) at the workload's start, read before any
//!   reference engine is built.
//!
//! Each run also checks answers: 64 evenly spaced answers must equal a
//! sequential `SmartPsi::run` on a cold engine (`wire-evolving`: 64 fresh
//! wire queries after the update stream drained, against an engine
//! built cold on the final graph). `failed` counts requests not answered
//! ok, except sheds and deadline misses in overload segments, which are
//! the admission control working. The load generator's p99 lateness
//! over the measured nominal requests (`client.gen_lag_p99_ms`) may
//! exceed by at most 5 ms that of a bare thread that only sleeps to a
//! 5 ms tick beside it (`client.host_lag_p99_ms`): the host alone delayed
//! such a sleeper by up to 9 ms at p99 on an idle 2-vCPU KVM guest, so
//! the gate judges what the generator adds. Served runs
//! also print `update_p50_ms`/`update_p90_ms` (`wire-evolving`'s
//! `update` ops, due time to response) and `query_p99_ms` where 10
//! samples lie beyond it.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! The traced pass repeats the TCP run with fewer cycles (for the
//! front-door counters and the TCP median), then replays its whole
//! schedule in-process at the same due times, with a `MetricsRecorder`
//! per query; the service's queue cap stands in for the front door's
//! shedding (batch: one pass, each query run with and without a
//! recorder). Spans (name, start, end, parent, request id) stay in
//! memory and are written to `target/waterfall/trace-<workload>.jsonl`;
//! phase spans carry `"aggregated":true` because `psi-obs` keeps phase
//! totals, not intervals. Every metric is reported on every workload; a
//! layer a workload does not cross reports 0.
//!
//! | metric | layer | how | should move |
//! |---|---|---|---|
//! | `graph.load_ms`, `context.signature_build_ms`, `context.deploy_ms` | `psi-graph` io, context, deploy | set-up spans (median) | `setup_s` |
//! | `signature.index_bytes` | `psi-signature` | `SigStore::index_bytes` | `peak_rss_mb` |
//! | `net.parse_us`, `net.serialize_us` | `proto` | spans around `proto::parse_request` / `query_result_line` | `query_p50_ms` @ wire-repeat |
//! | `net.write_us_per_resp` | `net` | `Phase::NetWrite` ÷ responses | `query_p50_ms` @ wire-repeat |
//! | `net.wire_ms_p50` | `net` | TCP p50 − in-process p50 (the replay polls every 0.2 ms, so it can read below 0) | `query_p50_ms` @ wire-repeat |
//! | `net.shed_frac` | `net` | `Shed` ÷ (`Admitted` + `Shed`) over the TCP run | `goodput_qps` @ served |
//! | `service.queue_wait_p50_ms`, `service.queue_wait_p99_ms` | `service` | `Histogram::QueueWait` of the replay, overload bursts included, read at bucket midpoints as `NetServer` reads it | `query_p90_ms` @ wire-unique, wire-evolving |
//! | `service.busy_frac` | `service` | Σ engine wall ÷ (workers × replay) | `goodput_qps` @ wire-unique |
//! | `cache.hit_frac`, `cache.cross_query_hits`, `cache.invalidations` | `exec` `PredictionCache`, `service` | `CacheHits`/`CacheMisses`; `ServiceStats` | `query_p50_ms` @ wire-repeat, wire-evolving |
//! | `training.ms_per_query`, `training.nodes_per_query`, `training.share` | `training` | `Phase::Train`, `TrainedNodes`, Train ÷ Σ phases | `query_p50_ms` @ wire-unique; `goodput_qps` @ batch-human |
//! | `ladder.prefilter_ms_per_query`, `ladder.prefilter_pruned_frac` | `ladder`, `psi-signature` | `Phase::Prefilter`, `PrefilterPruned` ÷ evaluated | `query_p50_ms` @ wire-repeat, wire-unique |
//! | `ladder.predict_ms_per_query`, `ml.inferences_per_query`, `ml.us_per_inference` | `ladder`, `psi-ml` | `Phase::Predict`, `MlInferences` | `query_p50_ms` @ wire-unique |
//! | `ladder.s1_ms_per_query`, `ladder.s2_ms_per_query`, `ladder.s3_ms_per_query` | `ladder` | `Phase::MatchS1`/`S2`/`S3` | `query_p90_ms` @ wire-unique; `goodput_qps` @ batch-human |
//! | `ladder.s1_resolved_frac`, `ladder.retries_per_query`, `ladder.escalations_per_query`, `ladder.alpha_accuracy` | `ladder` | `ResolvedS1` ÷ evaluated, `Retries`, `Escalations`, `QueryProfile::alpha_accuracy` | `query_p90_ms` @ wire-unique; `goodput_qps` @ batch-human |
//! | `match.steps_per_query`, `match.steps_per_candidate`, `match.steps_per_node_p99` | `psi-match` | `Counter::Steps`, `Histogram::StepsPerNode` | `goodput_qps` @ batch-human |
//! | `exec.grabs_per_query`, `exec.grab_len_p50`, `exec.merge_ms_per_query`, `exec.pool_spawn_ms` | `exec`, `pool` | `GrabSteals`, `Histogram::GrabLength`, `Phase::Merge`, `Phase::PoolSpawn` | `goodput_qps` @ batch-human |
//! | `exec.parallel_speedup` | `exec` | 1-thread wall ÷ 2-thread wall on the 64-query sample (the sequential baseline, not static chunks) | `goodput_qps` @ batch-human |
//! | `evolve.apply_ms_p50`, `evolve.apply_ms_p90`, `evolve.rows_repaired_per_batch` | `evolve`, `service` | span around `PsiService::apply_update` in the replay (static workloads: an `EvolvingContext` replica fed 100 seeded batches); `UpdateReport::rows_repaired` | `query_p90_ms`, `goodput_qps` @ wire-evolving |
//! | `signature.repair_ms_p50` | `psi-signature` | span around `IncrementalSignatures::apply_batch` on a replica fed the same batches; `evolve.apply_ms_p50` minus it is the publish cost | `query_p90_ms` @ wire-evolving |
//! | `trace.e2e_p50_ms` | bench | in-process due-to-done p50 | — |
//! | `trace.unattributed_frac` | bench | median over nominal queries of 1 − (queue wait + Σ phases) ÷ submit-to-done | validity of the trace |
//! | `trace.overhead_pct` | bench | wall with ÷ without the recorder − 1 (served: the reference sample; batch: the paired runs) | validity of the trace |
//!
//! # What `paths` protects
//!
//! `BENCHMARK.json` names this directory as the benchmark's only path.
//! Cargo discovers `main.rs` as the `waterfall` binary of `psi-bench`,
//! so the benchmark needs no build file of its own and is compiled with
//! the workspace's release profile, exactly as users' binaries are: a
//! change to that profile shows in its numbers. A change outside this
//! directory cannot alter the workloads, cycles, rates, checks or metric
//! definitions, and the fingerprints guard the inputs it takes from
//! `psi-datasets` and `psi-graph`. The code does not use
//! `psi_bench::harness`, so nothing it measures with lives outside it.

mod batch;
mod client;
mod compare;
mod inputs;
mod report;
mod served;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use inputs::Inputs;
use report::{Report, END_TO_END, PER_LAYER};
use spec::{Windows, Workload, DEFAULT_SECONDS, PIN_SEED};

/// Where results and traces go, relative to the working directory.
const OUT_DIR: &str = "target/waterfall";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    runs: Option<u64>,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
        runs: None,
        out: PathBuf::from(OUT_DIR).join("runs.json"),
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds < 1.0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--quick" => a.quick = true,
            "--runs" => a.runs = Some(value()?.parse().map_err(|e| format!("--runs: {e}"))?),
            "--out" => a.out = PathBuf::from(value()?),
            "--compare" => {
                let first = PathBuf::from(value()?);
                a.compare = Some((first, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// One pass of one workload, after checking its inputs' pins.
fn run_pass(w: Workload, a: &Args, trace: bool) -> Result<Report, String> {
    let gates = !a.quick;
    let win = if trace {
        Windows::traced(a.seconds, a.quick)
    } else {
        Windows::timed(a.seconds, a.quick)
    };
    report::reset_peak_rss();
    let inputs = Inputs::generate(w, a.seed, &win);
    let default = Windows::timed(DEFAULT_SECONDS, false);
    let pinned_stream = Inputs::on_graph(w, PIN_SEED, &default, inputs.graph.clone()).stream_fp;
    println!(
        "[{}] fingerprints: graph {:016x}, stream {:016x} (seed {}), pinned stream {:016x} (seed {PIN_SEED})",
        w.name(),
        inputs.graph_fp,
        inputs.stream_fp,
        a.seed,
        pinned_stream
    );
    let (graph_pin, stream_pin) = w.pins();
    if (inputs.graph_fp, pinned_stream) != (graph_pin, stream_pin) {
        return Err(format!(
            "{}: inputs moved: graph {:016x} / stream {:016x}, pinned {graph_pin:016x} / {stream_pin:016x}",
            w.name(),
            inputs.graph_fp,
            pinned_stream
        ));
    }
    let start = Instant::now();
    let mut r = match (w.served(), trace) {
        (true, false) => served::timed(w, &inputs, &win, gates),
        (false, false) => batch::timed(w, &inputs, win.end(), gates),
        (served, true) => {
            let mut log = trace::SpanLog::new(start);
            let r = if served {
                served::traced(w, a.seed, &inputs, &win, gates, &mut log)
            } else {
                batch::traced(w, a.seed, &inputs, &win, &mut log)
            };
            let path = PathBuf::from(OUT_DIR).join(format!("trace-{}.jsonl", w.name()));
            log.write_jsonl(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let mut own: Vec<_> = log.self_times_ms().into_iter().collect();
            own.sort_by(|x, y| y.1.total_cmp(&x.1));
            let top: Vec<String> = own
                .iter()
                .take(8)
                .map(|(n, ms)| format!("{n} {ms:.1}"))
                .collect();
            println!("[{}] self time ms: {}", w.name(), top.join(", "));
            println!(
                "[{}] {} spans in {}",
                w.name(),
                log.spans.len(),
                path.display()
            );
            r
        }
    };
    r.note("pass_wall_s", "s", start.elapsed().as_secs_f64());
    let declared = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for (name, _) in declared {
        match r.get(name) {
            Some(v) if v.is_finite() => {}
            _ if !gates => {}
            _ => r.problems.push(format!("{name} was not measured")),
        }
    }
    Ok(r)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("waterfall: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((x, y)) = &a.compare {
        return match compare::compare(x, y) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("waterfall: {e}");
                ExitCode::from(2)
            }
        };
    }
    let workloads: Vec<Workload> = a.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    if let Some(n) = a.runs {
        let ok = compare::runs(&workloads, a.seed, n, a.seconds, a.quick, &a.out);
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let passes: Vec<bool> = match (a.workload, a.trace) {
        (Some(_), t) => vec![t.unwrap_or(false)],
        (None, Some(t)) => vec![t],
        (None, None) => vec![false, true],
    };
    let windows: Vec<(String, String)> = workloads
        .iter()
        .flat_map(|w| passes.iter().map(move |&t| (w, t)))
        .map(|(w, t)| {
            let win = if t { Windows::traced(a.seconds, a.quick) } else { Windows::timed(a.seconds, a.quick) };
            let load = w.load();
            let pass = if t { "traced" } else { "timed" };
            let desc = if w.served() {
                format!(
                    "{pass} pass: 1 warm-up + {} measured cycles of nominal {:.2} s, overload \
                     {:.2} s, gap {:.2} s; {} q/s nominal, {} q/s overload, {} updates/s, limit {} ms",
                    win.cycles, win.nominal, win.overload, win.gap,
                    load.nominal_qps, load.overload_qps, load.update_bps, load.limit_ms
                )
            } else if t {
                "traced pass: the query set once, each query with and without a recorder".to_string()
            } else {
                format!("timed pass: whole passes over the query set for {:.2} s, the first a warm-up", win.end())
            };
            (w.name().to_string(), desc)
        })
        .collect();
    let passes_run = match passes[..] {
        [false] => "timed",
        [true] => "traced",
        _ => "timed, traced",
    };
    print!(
        "{}",
        report::host_block(a.seed, a.seconds, passes_run, &windows)
    );
    for w in &workloads {
        println!("[{}] why: {}", w.name(), w.why());
    }

    let mut ok = true;
    let mut all = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let single = workloads.len() == 1 && passes.len() == 1;
    let mut last_line = String::new();
    for w in &workloads {
        for &t in &passes {
            let r = match run_pass(*w, &a, t) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("waterfall: {e}");
                    return ExitCode::from(3);
                }
            };
            print!("{}", r.lines(w.name()));
            ok &= r.correct && r.problems.is_empty();
            correct &= r.correct;
            attempted += r.attempted;
            failed += r.failed;
            let prefix = if single {
                String::new()
            } else {
                format!("{}/", w.name())
            };
            all.extend(r.prefixed(&prefix));
            if single {
                last_line = r.json("");
            }
        }
    }
    if !single {
        last_line = report::json_line(correct, attempted, failed, &all);
    }
    let result = PathBuf::from(OUT_DIR).join("result.json");
    if std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&result, &last_line))
        .is_err()
    {
        eprintln!("waterfall: could not write {}", result.display());
    }
    println!("{last_line}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
