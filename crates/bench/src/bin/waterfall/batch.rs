//! The batch workload: one closed-loop caller of `SmartPsi::run` on
//! the 2-thread work-stealing pool, with no network and no service.

use std::sync::Arc;
use std::time::Instant;

use psi_core::engine::proto;
use psi_core::{PsiResult, RunSpec, SmartPsi};
use psi_graph::PivotedQuery;
use psi_obs::MetricsRecorder;

use crate::inputs::{self, Inputs};
use crate::report::{peak_rss_mb, Report};
use crate::served::{setup, setup_layers};
use crate::spec::{Windows, Workload, BATCH_THREADS, REPLICA_BATCHES, SAMPLE};
use crate::stats::{median, percentile, percentile_unguarded, sorted};
use crate::trace::{self, evenly, Agg, SpanLog};

fn run(smart: &SmartPsi, q: &PivotedQuery, rec: Option<Arc<MetricsRecorder>>) -> (f64, PsiResult) {
    let mut spec = RunSpec::new().threads(BATCH_THREADS);
    if let Some(rec) = rec {
        spec = spec.recorder(rec);
    }
    let t = Instant::now();
    let result = smart.run(q, &spec);
    (t.elapsed().as_secs_f64(), result)
}

fn failed(r: &PsiResult) -> bool {
    r.unresolved > 0 || !r.failures.nodes.is_empty()
}

/// Check `(query index, answer)` pairs against sequential runs of a
/// cold reference engine.
fn check(inputs: &Inputs, answers: &[(usize, &PsiResult)], r: &mut Report) {
    let engine = SmartPsi::new(inputs.graph.clone(), inputs.config.clone());
    for (q, got) in answers {
        if engine.run(&inputs.queries[*q], &RunSpec::new()).valid != got.valid {
            r.problems.push(format!(
                "query {q}: 2-thread answer differs from the sequential one"
            ));
            r.correct = false;
            return;
        }
    }
    r.note("answers_checked", "count", answers.len() as f64);
}

/// Passes over the query set of a timed run: at least this many, the
/// first of which warms up (the pool threads spawn lazily on the first
/// parallel run).
const MIN_PASSES: usize = 3;

/// The timed pass: the whole query set, in its seeded order, run again
/// and again by one closed-loop caller until `seconds` are spent. The
/// first pass warms up; every metric is the median over the other
/// passes, which all do the same work.
pub fn timed(w: Workload, inputs: &Inputs, seconds: f64, gates: bool) -> Report {
    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    let mut s = setup(w, inputs, None);
    let set = &inputs.queries;
    let picked = evenly(set.len(), SAMPLE);
    let t0 = Instant::now();
    // Per pass: its wall seconds and each call's milliseconds. Only the
    // sampled answers are kept (of the latest pass), so the
    // benchmark's own memory does not grow with the run.
    let mut passes: Vec<(f64, Vec<f64>)> = Vec::new();
    let mut sampled: Vec<(usize, PsiResult)> = Vec::new();
    loop {
        let start = Instant::now();
        sampled.clear();
        let mut ms = Vec::with_capacity(set.len());
        for (i, q) in set.iter().enumerate() {
            let (secs, result) = run(&s.smart, q, None);
            ms.push(secs * 1e3);
            if failed(&result) && !passes.is_empty() {
                r.failed += 1;
            }
            if picked.binary_search(&i).is_ok() {
                sampled.push((i, result));
            }
        }
        passes.push((start.elapsed().as_secs_f64(), ms));
        // Stop at the pass end nearest to `seconds`.
        let spent = t0.elapsed().as_secs_f64();
        let per_pass = spent / passes.len() as f64;
        if passes.len() >= MIN_PASSES && spent + per_pass / 2.0 >= seconds {
            break;
        }
    }
    let rss = peak_rss_mb();
    s.absorb(setup(w, inputs, None));
    let measured = &passes[1..];
    r.attempted = (measured.len() * set.len()) as u64;
    r.outcomes
        .insert(crate::client::Outcome::Ok, r.attempted - r.failed);
    let (mut p50s, mut p90s, mut rates) = (vec![], vec![], vec![]);
    for (secs, ms) in measured {
        let ms = sorted(ms.clone());
        p50s.push(r.latency_pct("pass call time", &ms, 0.5, gates));
        p90s.push(r.latency_pct("pass call time", &ms, 0.9, gates));
        rates.push(ms.len() as f64 / secs);
    }
    r.metric("setup_s", s.setup_s);
    r.metric("query_p50_ms", median(&p50s));
    r.metric("query_p90_ms", median(&p90s));
    r.metric("goodput_qps", median(&rates));
    r.metric("peak_rss_mb", rss);
    let all = sorted(measured.iter().flat_map(|p| p.1.iter().copied()).collect());
    r.note("query_samples", "count", all.len() as f64);
    r.note("measured_passes", "count", measured.len() as f64);
    if let Some(p99) = percentile(&all, 0.99) {
        r.note("query_p99_ms", "ms", p99);
    }
    let answers: Vec<(usize, &PsiResult)> = sampled.iter().map(|(i, res)| (*i, res)).collect();
    check(inputs, &answers, &mut r);
    r
}

/// The traced pass: the query set once, within a time budget, each
/// query run twice back to back, with and without a recorder
/// (alternating which goes first).
pub fn traced(w: Workload, seed: u64, inputs: &Inputs, win: &Windows, log: &mut SpanLog) -> Report {
    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    let s = setup(w, inputs, Some(log));
    setup_layers(&mut r, &s);
    let pool = &inputs.queries;
    // The pool's threads spawn on the first parallel run, untimed here.
    run(&s.smart, &pool[0], None);
    // The served workloads' traced pass spends about twice `end` on TCP
    // plus replay; this one leaves a fifth of that for the reference
    // sample and the replicas.
    let budget = 1.6 * win.end();
    let t0 = Instant::now();
    let mut replayed: Vec<(usize, f64, f64, PsiResult)> = Vec::new();
    while t0.elapsed().as_secs_f64() < budget && replayed.len() < pool.len() {
        let q = replayed.len();
        let traced_first = q.is_multiple_of(2);
        let traced = |smart: &SmartPsi| {
            let start = Instant::now();
            let (secs, res) = run(smart, &pool[q], Some(Arc::new(MetricsRecorder::new())));
            (start, secs, res)
        };
        let (start, with_s, res, without_s) = if traced_first {
            let (start, with_s, res) = traced(&s.smart);
            (start, with_s, res, run(&s.smart, &pool[q], None).0)
        } else {
            let without_s = run(&s.smart, &pool[q], None).0;
            let (start, with_s, res) = traced(&s.smart);
            (start, with_s, res, without_s)
        };
        let p = res.profile.as_deref().expect("every run carries a profile");
        let req = q as u64;
        let begin = log.ns(start);
        let end = begin + (with_s * 1e9) as u64;
        let root = log.push("request", None, Some(req), begin, end, false);
        let engine = log.push("engine.run", Some(root), Some(req), begin, end, false);
        log.phases(engine, req, begin, p);
        replayed.push((q, with_s, without_s, res));
    }
    r.attempted = replayed.len() as u64;
    r.failed = replayed.iter().filter(|x| failed(&x.3)).count() as u64;
    r.outcomes
        .insert(crate::client::Outcome::Ok, r.attempted - r.failed);

    let mut agg = Agg::default();
    let (mut parse_ns, mut serialize_ns) = (0u128, 0u128);
    let mut unattributed = vec![];
    for (q, with_s, _, res) in &replayed {
        let p = res.profile.as_deref().expect("profile");
        agg.add(p);
        unattributed.push(1.0 - trace::attributed_ns(p, BATCH_THREADS) / (with_s * 1e9));
        let line = inputs::query_line(*q as u64, &pool[*q], None);
        let t = Instant::now();
        let parsed = proto::parse_request(&line);
        let mid = Instant::now();
        let out = proto::query_result_line(*q as u64, res);
        let end = Instant::now();
        assert!(parsed.is_ok() && !out.is_empty());
        parse_ns += (mid - t).as_nanos();
        serialize_ns += (end - mid).as_nanos();
        log.record("proto.parse", None, Some(*q as u64), t, mid);
        log.record("proto.serialize", None, Some(*q as u64), mid, end);
    }
    let n = replayed.len().max(1) as f64;
    let with: f64 = replayed.iter().map(|x| x.1).sum();
    let without: f64 = replayed.iter().map(|x| x.2).sum();
    r.metric("net.parse_us", parse_ns as f64 / n / 1e3);
    r.metric("net.serialize_us", serialize_ns as f64 / n / 1e3);
    // No front door and no service: their layers are idle here.
    for idle in [
        "net.write_us_per_resp",
        "net.wire_ms_p50",
        "net.shed_frac",
        "service.queue_wait_p50_ms",
        "service.queue_wait_p99_ms",
        "service.busy_frac",
        "cache.cross_query_hits",
        "cache.invalidations",
    ] {
        r.metric(idle, 0.0);
    }
    agg.report(&mut r);

    let picked: Vec<usize> = evenly(replayed.len(), SAMPLE);
    let queries: Vec<&PivotedQuery> = picked.iter().map(|&i| &pool[replayed[i].0]).collect();
    let sample = trace::sample_runs(&s.smart, &queries, BATCH_THREADS);
    for (&i, seq) in picked.iter().zip(&sample.answers) {
        if seq.valid != replayed[i].3.valid {
            r.problems.push(format!(
                "query {}: 2-thread answer differs from the sequential one",
                replayed[i].0
            ));
            r.correct = false;
            break;
        }
    }
    r.note("answers_checked", "count", picked.len() as f64);
    r.metric("exec.parallel_speedup", sample.speedup);
    let batches = inputs::update_stream(seed, &inputs.graph, REPLICA_BATCHES);
    trace::evolve_layers(&mut r, log, &inputs.graph, &inputs.config, &batches, None);
    let walls = sorted(replayed.iter().map(|x| x.1 * 1e3).collect());
    r.metric(
        "trace.e2e_p50_ms",
        percentile_unguarded(&walls, 0.5).unwrap_or(f64::NAN),
    );
    r.metric("trace.unattributed_frac", median(&unattributed));
    r.metric("trace.overhead_pct", (with / without - 1.0) * 100.0);
    r
}
