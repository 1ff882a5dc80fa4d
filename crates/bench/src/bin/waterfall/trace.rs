//! The traced pass's building blocks: an in-memory span log written
//! out as JSON lines, the per-layer aggregation of `QueryProfile`s,
//! the evolve/signature replicas, and the timed reference sample.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use psi_core::{EvolvingContext, PsiResult, RunSpec, SmartPsi, SmartPsiConfig};
use psi_graph::{DynamicGraph, Graph, GraphUpdate, PivotedQuery};
use psi_obs::{Counter, Histogram, MetricsRecorder, Phase, QueryProfile};
use psi_signature::IncrementalSignatures;

use crate::report::Report;
use crate::stats::{hist_quantile, percentile_unguarded, sorted};

/// One span: a named interval, its parent, and the request it served.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
    /// The interval stands for a sum of `psi-obs` phase time laid end
    /// to end, not one contiguous stretch of wall time.
    pub aggregated: bool,
}

/// Spans kept in memory during the run and written out at its end.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a measured span; returns its id for children.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(name, parent, req, start_ns, end_ns, false)
    }

    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: Option<u64>,
        start_ns: u64,
        end_ns: u64,
        aggregated: bool,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            req,
            aggregated,
        });
        self.spans.len() - 1
    }

    /// Lay a query's phase totals end to end under `parent`, starting
    /// at `start_ns` (the engine's run span).
    pub fn phases(&mut self, parent: usize, req: u64, start_ns: u64, p: &QueryProfile) {
        let mut at = start_ns;
        for phase in ENGINE_PHASES {
            let ns = p.spans_ns[phase as usize];
            if ns > 0 {
                self.push(
                    phase_span(phase),
                    Some(parent),
                    Some(req),
                    at,
                    at + ns,
                    true,
                );
                at += ns;
            }
        }
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover, summed by name, in milliseconds.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut s = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{id},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"aggregated\":{}}}",
                opt(span.parent.map(|p| p as u64)),
                opt(span.req),
                span.name,
                span.start_ns,
                span.end_ns,
                span.aggregated
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

/// The phases of one query's engine run, in execution order. They are
/// disjoint on a sequential run; on a parallel run the matching phases
/// are summed over the pool workers.
pub const ENGINE_PHASES: [Phase; 8] = [
    Phase::Train,
    Phase::Prefilter,
    Phase::Predict,
    Phase::MatchS1,
    Phase::MatchS2,
    Phase::MatchS3,
    Phase::ExactFallback,
    Phase::Merge,
];

fn phase_span(p: Phase) -> &'static str {
    match p {
        Phase::Train => "training.train",
        Phase::Prefilter => "ladder.prefilter",
        Phase::Predict => "ladder.predict",
        Phase::MatchS1 => "ladder.match_s1",
        Phase::MatchS2 => "ladder.match_s2",
        Phase::MatchS3 => "ladder.match_s3",
        Phase::ExactFallback => "ladder.exact_fallback",
        _ => "exec.merge",
    }
}

/// The engine wall time of one run that its phases account for. On a
/// parallel run, the phases the pool workers record in parallel count
/// once per worker.
pub fn attributed_ns(p: &QueryProfile, threads: usize) -> f64 {
    let ns = |ph: Phase| p.spans_ns[ph as usize] as f64;
    if p.counter(Counter::GrabSteals) == 0 {
        return ENGINE_PHASES.iter().map(|&ph| ns(ph)).sum();
    }
    let caller = ns(Phase::Train) + ns(Phase::Prefilter) + ns(Phase::Predict) + ns(Phase::Merge);
    let workers = ns(Phase::MatchS1)
        + ns(Phase::MatchS2)
        + ns(Phase::MatchS3)
        + ns(Phase::ExactFallback)
        + ns(Phase::PoolSpawn);
    caller + workers / threads.max(1) as f64
}

/// Sums over the traced queries' profiles.
#[derive(Default)]
pub struct Agg {
    n: u64,
    sum: QueryProfile,
    alpha: Vec<f64>,
}

impl Agg {
    pub fn add(&mut self, p: &QueryProfile) {
        self.n += 1;
        for (dst, src) in self.sum.spans_ns.iter_mut().zip(p.spans_ns) {
            *dst += src;
        }
        for (dst, src) in self.sum.counters.iter_mut().zip(p.counters) {
            *dst += src;
        }
        for (dst, src) in self.sum.hists.iter_mut().zip(&p.hists) {
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        if p.counter(Counter::TrainedNodes) > 0 && p.alpha_accuracy.is_finite() {
            self.alpha.push(p.alpha_accuracy);
        }
    }

    fn ph(&self, p: Phase) -> f64 {
        self.sum.spans_ns[p as usize] as f64
    }

    fn c(&self, c: Counter) -> f64 {
        self.sum.counter(c) as f64
    }

    fn hist_quantile(&self, h: Histogram, q: f64) -> f64 {
        hist_quantile(&self.sum.hists[h as usize], q).unwrap_or(0.0)
    }

    /// Record the engine-layer metrics (training, ladder, ML, match,
    /// cache, exec) into `r`.
    pub fn report(&self, r: &mut Report) {
        let n = self.n.max(1) as f64;
        let per_q_ms = |p: Phase| self.ph(p) / n / 1e6;
        let frac = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let total: f64 = ENGINE_PHASES.iter().map(|&p| self.ph(p)).sum();
        // Candidates the ladder evaluated: all but the trained ones.
        let evaluated = self.c(Counter::Candidates) - self.c(Counter::TrainedNodes);
        let alpha = if self.alpha.is_empty() {
            0.0
        } else {
            self.alpha.iter().sum::<f64>() / self.alpha.len() as f64
        };
        let hits = self.c(Counter::CacheHits);
        for (name, value) in [
            ("training.ms_per_query", per_q_ms(Phase::Train)),
            (
                "training.nodes_per_query",
                self.c(Counter::TrainedNodes) / n,
            ),
            ("training.share", frac(self.ph(Phase::Train), total)),
            ("ladder.prefilter_ms_per_query", per_q_ms(Phase::Prefilter)),
            (
                "ladder.prefilter_pruned_frac",
                frac(self.c(Counter::PrefilterPruned), evaluated),
            ),
            ("ladder.predict_ms_per_query", per_q_ms(Phase::Predict)),
            ("ml.inferences_per_query", self.c(Counter::MlInferences) / n),
            (
                "ml.us_per_inference",
                frac(self.ph(Phase::Predict) / 1e3, self.c(Counter::MlInferences)),
            ),
            ("ladder.s1_ms_per_query", per_q_ms(Phase::MatchS1)),
            ("ladder.s2_ms_per_query", per_q_ms(Phase::MatchS2)),
            ("ladder.s3_ms_per_query", per_q_ms(Phase::MatchS3)),
            (
                "ladder.s1_resolved_frac",
                frac(self.c(Counter::ResolvedS1), evaluated),
            ),
            ("ladder.retries_per_query", self.c(Counter::Retries) / n),
            (
                "ladder.escalations_per_query",
                self.c(Counter::Escalations) / n,
            ),
            ("ladder.alpha_accuracy", alpha),
            ("match.steps_per_query", self.c(Counter::Steps) / n),
            (
                "match.steps_per_candidate",
                frac(self.c(Counter::Steps), self.c(Counter::Candidates)),
            ),
            (
                "match.steps_per_node_p99",
                self.hist_quantile(Histogram::StepsPerNode, 0.99),
            ),
            (
                "cache.hit_frac",
                frac(hits, hits + self.c(Counter::CacheMisses)),
            ),
            ("exec.grabs_per_query", self.c(Counter::GrabSteals) / n),
            (
                "exec.grab_len_p50",
                self.hist_quantile(Histogram::GrabLength, 0.5),
            ),
            ("exec.merge_ms_per_query", per_q_ms(Phase::Merge)),
            ("exec.pool_spawn_ms", per_q_ms(Phase::PoolSpawn)),
        ] {
            r.metric(name, value);
        }
        r.note(
            "ladder.exact_fallback_ms_per_query",
            "ms",
            per_q_ms(Phase::ExactFallback),
        );
        r.note("traced_queries", "count", self.n as f64);
    }
}

/// What the evolve and signature layers cost on a stream of batches:
/// `evolve.apply_ms_p50` from an `EvolvingContext` replica (repair plus
/// snapshot publish) unless `applied_ms` already holds the in-service
/// `PsiService::apply_update` times, and `signature.repair_ms_p50` from
/// an `IncrementalSignatures` replica.
pub fn evolve_layers(
    r: &mut Report,
    log: &mut SpanLog,
    graph: &Graph,
    config: &SmartPsiConfig,
    batches: &[Vec<GraphUpdate>],
    applied: Option<(Vec<f64>, Vec<f64>)>,
) {
    let capacity = graph.label_count();
    let (apply_ms, rows) = match applied {
        Some(measured) => measured,
        None => {
            let mut ev = EvolvingContext::new(graph.clone(), config.clone(), capacity);
            let mut apply_ms = Vec::new();
            let mut rows = Vec::new();
            for b in batches {
                let t = Instant::now();
                let report = ev.apply(b).expect("generated batches apply");
                let end = Instant::now();
                log.record("evolve.apply", None, None, t, end);
                apply_ms.push((end - t).as_secs_f64() * 1e3);
                rows.push(report.rows_repaired as f64);
            }
            (apply_ms, rows)
        }
    };
    let mut replica = IncrementalSignatures::with_store(
        DynamicGraph::from_graph(graph),
        config.depth,
        capacity,
        config.sig_store,
    );
    let mut repair_ms = Vec::new();
    for b in batches {
        let t = Instant::now();
        replica.apply_batch(b).expect("generated batches apply");
        let end = Instant::now();
        log.record("signature.repair", None, None, t, end);
        repair_ms.push((end - t).as_secs_f64() * 1e3);
    }
    let (apply_ms, repair_ms) = (sorted(apply_ms), sorted(repair_ms));
    let pct = |v: &[f64], q| percentile_unguarded(v, q).unwrap_or(0.0);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    r.metric("evolve.apply_ms_p50", pct(&apply_ms, 0.5));
    r.metric("evolve.apply_ms_p90", pct(&apply_ms, 0.9));
    r.metric("evolve.rows_repaired_per_batch", mean(&rows));
    r.metric("signature.repair_ms_p50", pct(&repair_ms, 0.5));
}

/// The reference sample run three ways on `engine`: sequentially (the
/// answers other runs are checked against, and the 1-thread baseline),
/// sequentially with a recorder (the tracing overhead), and on the
/// `threads`-thread pool (the parallel speed-up). Each query runs all
/// three back to back, in an order that rotates from query to query, so
/// a drift in the host's speed weighs on the three alike.
pub struct Sample {
    pub answers: Vec<PsiResult>,
    pub overhead_pct: f64,
    pub speedup: f64,
}

pub fn sample_runs(engine: &SmartPsi, queries: &[&PivotedQuery], threads: usize) -> Sample {
    let mut secs = [0.0f64; 3];
    let mut answers = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        for k in 0..3 {
            let mode = (i + k) % 3;
            let spec = match mode {
                0 => RunSpec::new(),
                1 => RunSpec::new().recorder(Arc::new(MetricsRecorder::new())),
                _ => RunSpec::new().threads(threads),
            };
            let t = Instant::now();
            let result = engine.run(q, &spec);
            secs[mode] += t.elapsed().as_secs_f64();
            if mode == 0 {
                answers.push(result);
            }
        }
    }
    let [plain_s, traced_s, pool_s] = secs;
    Sample {
        answers,
        overhead_pct: (traced_s / plain_s - 1.0) * 100.0,
        speedup: plain_s / pool_s,
    }
}

/// Positions of `k` evenly spaced items among `n`.
pub fn evenly(n: usize, k: usize) -> Vec<usize> {
    if n <= k {
        return (0..n).collect();
    }
    (0..k).map(|i| i * n / k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.push("request", None, Some(1), 0, 100, false);
        let run = log.push("engine.run", Some(root), Some(1), 40, 100, false);
        log.push("training.train", Some(run), Some(1), 40, 70, true);
        let t = log.self_times_ms();
        assert_eq!(t["request"], 40.0 / 1e6);
        assert_eq!(t["engine.run"], 30.0 / 1e6);
        assert_eq!(t["training.train"], 30.0 / 1e6);
    }

    #[test]
    fn evenly_spaced_sample() {
        assert_eq!(evenly(10, 4), vec![0, 2, 5, 7]);
        assert_eq!(evenly(3, 4), vec![0, 1, 2]);
    }
}
