//! SmartPSI — "the realist" (§4.2–4.3, Figure 6): the public facade.
//!
//! The full system:
//!
//! 1. Load the graph and precompute all neighborhood signatures
//!    (matrix method).
//! 2. Per query, extract the pivot's candidate nodes and *train on a
//!    small random sample* of them (paper: ~10% up to 1000 nodes):
//!    each training node is evaluated with the pessimistic method to
//!    obtain its true type (Model α's label), and with a sample of
//!    execution plans under an escalating step limit to find its
//!    cheapest plan (Model β's label).
//! 3. Fit two Random-Forest classifiers on the signature feature
//!    vectors: **Model α** (valid/invalid → optimistic/pessimistic)
//!    and **Model β** (best plan).
//! 4. Evaluate the remaining candidates with the predicted method and
//!    plan under the **preemptive executor**: a step budget of
//!    `2 × AvgT(method, plan)` (training averages) detects likely
//!    mispredictions; recovery retries with the opposite method
//!    (stage 2) and finally with the predicted method and the
//!    heuristic plan, unlimited (stage 3). Exactness is guaranteed:
//!    stage 3 has no limit and both methods are exhaustive.
//! 5. Cache conclusions keyed by the exact signature row, so
//!    structurally identical nodes skip both prediction and, when the
//!    cached verdict exists, any further cost.
//!
//! The implementation lives in the layered [`crate::engine`] module
//! (context → training → ladder → exec → service); this module is the
//! thin public surface over it: [`SmartPsi`] wraps an
//! `Arc<`[`GraphContext`]`>` and [`SmartPsi::run`] matches the
//! [`RunSpec`]'s executor kind to one of the engine's drivers.
//! `SmartPsiConfig` and `RetryPolicy` are re-exported here.
//!
//! # The one run surface
//!
//! [`SmartPsi::run`] is the only way into any executor: the realist on
//! the calling thread, the work-stealing pool, the static splitter and
//! the §4.1 two-thread baseline. Its builder-style [`RunSpec`]
//! (`.threads(n)`, `.two_thread()`, `.limits(..)`, `.faults(..)`,
//! `.recorder(..)`), read together with the context's
//! [`SmartPsiConfig`], is the only per-run settings struct. The result
//! is a [`PsiResult`] carrying a [`QueryProfile`] — per-phase wall
//! times, the metrics-registry counters, and log₂ step histograms (see
//! [`psi_obs`]). For a *stream* of queries, [`SmartPsi::deploy`]
//! spawns a persistent [`PsiService`] (one shard or k, static or
//! evolving) over the same context.

use std::sync::Arc;
use std::time::Instant;

use psi_graph::{Graph, NodeId, PivotedQuery};
use psi_obs::{Counter, MetricsRecorder, NoopRecorder, QueryProfile, Recorder};
use psi_signature::SigStore;

use crate::engine::context::GraphContext;
use crate::engine::deploy::DeploymentSpec;
use crate::engine::exec::{unresolved_report, work_stealing, ExecutorKind, PredictionCache};
use crate::engine::service::PsiService;
use crate::fault::FaultPlan;
use crate::limits::EvalLimits;
use crate::report::{PsiResult, StageTimings};

pub use crate::engine::context::SmartPsiConfig;
pub use crate::engine::ladder::RetryPolicy;

/// Builder-style specification of one [`SmartPsi::run`] call: executor
/// choice, thread count, global limits, candidate subset, and per-run
/// overrides of the deployment's fault/isolation knobs, plus an
/// optional [`MetricsRecorder`] for fine-grained profiling. Read
/// together with the context's [`SmartPsiConfig`], it is the only
/// per-run settings struct: the executors, training and the ladder
/// read it directly.
///
/// `RunSpec::default()` is a sequential, unlimited, unprofiled run
/// with every knob deferring to the deployment's
/// [`SmartPsiConfig`].
///
/// ```no_run
/// # use psi_core::smart::RunSpec;
/// # use psi_core::limits::EvalLimits;
/// # use std::sync::Arc;
/// let rec = Arc::new(psi_obs::MetricsRecorder::new());
/// let spec = RunSpec::new()
///     .threads(4)
///     .limits(EvalLimits::unlimited())
///     .recorder(rec.clone());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunSpec {
    pub(crate) executor: ExecutorKind,
    pub(crate) threads: usize,
    pub(crate) grab: usize,
    pub(crate) shared_cache: Option<bool>,
    pub(crate) limits: EvalLimits,
    pub(crate) subset: Option<Vec<NodeId>>,
    pub(crate) panic_isolation: Option<bool>,
    pub(crate) fault: Option<Arc<FaultPlan>>,
    pub(crate) cache: Option<Arc<PredictionCache>>,
    pub(crate) recorder: Option<Arc<MetricsRecorder>>,
}

impl RunSpec {
    /// A sequential, unlimited, unprofiled run (same as `default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Run on the work-stealing pool with `n` workers (`0` = one per
    /// available hardware thread; `1` runs on the calling thread).
    pub fn threads(mut self, n: usize) -> Self {
        self.executor = ExecutorKind::WorkStealing;
        self.threads = n;
        self
    }

    /// Run the §4.1 two-threaded baseline: optimist and pessimist
    /// raced per candidate on the deployment's precomputed signatures
    /// (no training, no cache).
    pub fn two_thread(mut self) -> Self {
        self.executor = ExecutorKind::TwoThread;
        self
    }

    /// Run the static chunk-per-thread baseline with `n ≥ 1` threads.
    pub fn static_chunks(mut self, n: usize) -> Self {
        self.executor = ExecutorKind::StaticChunks;
        self.threads = n;
        self
    }

    /// Candidates per work-stealing queue grab (`0` = the default of
    /// 8). Small grabs keep hard (pessimistic) nodes from serializing
    /// a whole chunk behind one worker; large grabs reduce queue
    /// traffic.
    pub fn grab(mut self, n: usize) -> Self {
        self.grab = n;
        self
    }

    /// Whether the pool's phase-A sweep uses a prediction cache
    /// (default `true`, the paper's cache-reuse optimization).
    /// `false` is the ablation baseline: every survivor is predicted
    /// from scratch.
    pub fn shared_cache(mut self, share: bool) -> Self {
        self.shared_cache = Some(share);
        self
    }

    /// Global deadline / cancel flag observed by the whole run. The
    /// realist's executors ignore `max_steps` (their per-node budgets
    /// are SmartPSI's own); the two-thread baseline applies it to each
    /// racer, so a node neither side finishes within it is left
    /// unresolved.
    pub fn limits(mut self, limits: EvalLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Restrict the run to a candidate subset (used by the FSM miner,
    /// which evaluates specific extension nodes).
    pub fn candidates(mut self, subset: Vec<NodeId>) -> Self {
        self.subset = Some(subset);
        self
    }

    /// Override the config's panic isolation for this run.
    pub fn panic_isolation(mut self, on: bool) -> Self {
        self.panic_isolation = Some(on);
        self
    }

    /// Inject a deterministic fault schedule for this run (chaos
    /// drills and the fault-injection tests), overriding the config's.
    pub fn faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Attach an external, long-lived [`PredictionCache`] to this run
    /// instead of the per-run cache the executor would otherwise
    /// create. Entries are confirmed model predictions keyed by exact
    /// signature, so pre-warmed entries change cost only, never the
    /// answer. This is how a [`PsiService`] shares predictions across
    /// queries of the same shape; ignored when the config disables
    /// caching.
    pub fn cache(mut self, cache: Arc<PredictionCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Record fine-grained spans, counters, and histograms into `rec`;
    /// the run's [`QueryProfile`] absorbs the recorder's totals at
    /// query end. Without a recorder the instrumentation seam is the
    /// no-op [`psi_obs::NoopRecorder`] — one predictable branch per
    /// site — and the profile still carries the coarse timings and the
    /// exact accounting counters.
    ///
    /// Pass a fresh recorder per query for per-query profiles; a
    /// long-lived recorder accumulates across runs (and the profile of
    /// each run then absorbs the running totals).
    pub fn recorder(mut self, rec: Arc<MetricsRecorder>) -> Self {
        self.recorder = Some(rec);
        self
    }
}

/// A SmartPSI deployment: one data graph, loaded in memory with all
/// node signatures precomputed — a thin handle over an
/// `Arc<`[`GraphContext`]`>`, so cloning facades (or spawning a
/// [`PsiService`]) never re-reads the graph or rebuilds signatures.
pub struct SmartPsi {
    ctx: Arc<GraphContext>,
}

/// The executors' internal report: the answer plus the stage counters
/// and timings that [`SmartPsi::run`] folds into the result's
/// [`QueryProfile`].
#[derive(Debug, Clone)]
pub(crate) struct SmartPsiReport {
    /// The PSI answer.
    pub(crate) result: PsiResult,
    /// Wall-clock stage breakdown (Table 4).
    pub(crate) timings: StageTimings,
    /// Training nodes used.
    pub(crate) trained_nodes: usize,
    /// Candidates whose (method, plan) came from the cache.
    pub(crate) cache_hits: usize,
    /// Candidates resolved in stage 1 (prediction trusted and
    /// confirmed by the budget).
    pub(crate) resolved_stage1: usize,
    /// Candidates that needed the opposite method (stage 2).
    pub(crate) recovered_stage2: usize,
    /// Candidates that fell back to the heuristic plan, unlimited
    /// (stage 3).
    pub(crate) recovered_stage3: usize,
    /// Candidates Model α predicted valid.
    pub(crate) predicted_valid: usize,
    /// Accuracy of Model α measured against the final ground truth of
    /// every predicted candidate (Figure 11's metric). Candidates left
    /// unresolved by a deadline/cancel count as mispredicted.
    pub(crate) alpha_accuracy: f64,
}

impl Default for SmartPsiReport {
    /// An empty report (no candidates, nothing resolved).
    fn default() -> Self {
        unresolved_report(0, 0)
    }
}

impl SmartPsi {
    /// Load a graph: precomputes all neighborhood signatures with the
    /// matrix method (§3.1's optimization).
    pub fn new(g: Graph, config: SmartPsiConfig) -> Self {
        Self::from_context(Arc::new(GraphContext::new(g, config)))
    }

    /// Wrap an already-built (typically shared) deployment context.
    pub fn from_context(ctx: Arc<GraphContext>) -> Self {
        Self { ctx }
    }

    /// The shared deployment context behind this facade.
    pub fn context(&self) -> &Arc<GraphContext> {
        &self.ctx
    }

    /// The data graph.
    pub fn graph(&self) -> &Graph {
        self.ctx.graph()
    }

    /// Precomputed node signatures, behind the deployment's
    /// [`SigStore`] backend (dense f32 by default; see
    /// [`psi_signature::SigStoreKind`]).
    pub fn signatures(&self) -> &SigStore {
        self.ctx.signatures()
    }

    /// The configuration this deployment runs with.
    pub fn config(&self) -> &SmartPsiConfig {
        self.ctx.config()
    }

    /// Time spent building the signatures in [`SmartPsi::new`].
    pub fn signature_build_time(&self) -> std::time::Duration {
        self.ctx.signature_build_time()
    }

    /// Resolve a [`DeploymentSpec`] into a live [`PsiService`] — the
    /// one front door over the whole serving matrix: one shard or k,
    /// static or evolving, dense or compact signature store.
    ///
    /// When the spec names a [`psi_signature::SigStoreKind`] different
    /// from the context's, the store is converted once here (compact →
    /// dense recomputes the f32 matrix from the graph); a static
    /// deployment then serves the converted context, an evolving one
    /// rebuilds its maintainer with the requested backend.
    pub fn deploy(&self, spec: &DeploymentSpec) -> PsiService {
        PsiService::deploy(&self.ctx, spec)
    }

    /// Evaluate one PSI query — the unified entry point fronting every
    /// executor. The returned [`PsiResult`] always carries a
    /// [`QueryProfile`]: coarse stage timings and the exact accounting
    /// counters (satisfying `trained + s1 + s2 + s3 + failed +
    /// unresolved == candidates`) unconditionally, plus per-phase
    /// spans and histograms when the spec supplies a
    /// [`MetricsRecorder`].
    pub fn run(&self, query: &PivotedQuery, spec: &RunSpec) -> PsiResult {
        let t0 = Instant::now();
        let rec: &dyn Recorder = match spec.recorder.as_deref() {
            Some(r) => r,
            None => &NoopRecorder,
        };
        let ctx = &*self.ctx;
        let report = match spec.executor {
            ExecutorKind::Sequential => ctx.seq_run(query, spec.subset.as_deref(), spec, rec),
            ExecutorKind::WorkStealing => work_stealing(ctx, query, spec, rec),
            ExecutorKind::StaticChunks => ctx.static_chunks(query, spec, rec),
            ExecutorKind::TwoThread => ctx.two_thread(query, spec, rec),
        };
        self.finish(report, t0, spec.recorder.as_deref())
    }

    /// Build the [`QueryProfile`] for one finished run and attach it.
    fn finish(
        &self,
        report: SmartPsiReport,
        t0: Instant,
        rec: Option<&MetricsRecorder>,
    ) -> PsiResult {
        let mut profile = QueryProfile::new();
        if let Some(r) = rec {
            profile.absorb(r);
        }
        profile.total_wall_ns = t0.elapsed().as_nanos() as u64;
        profile.signature_build_ns = self.ctx.signature_build_time().as_nanos() as u64;
        profile.train_ns = report.timings.training_and_prediction.as_nanos() as u64;
        profile.evaluation_ns = report.timings.evaluation.as_nanos() as u64;
        profile.alpha_accuracy = report.alpha_accuracy;
        // The executor's own bookkeeping overrides whatever the
        // recorder sampled: the accounting identity must be exact even
        // on unprofiled runs (and recorder totals may span several
        // queries when the caller reuses one registry).
        let f = &report.result.failures;
        profile.set_counter(Counter::Candidates, report.result.candidates as u64);
        profile.set_counter(Counter::TrainedNodes, report.trained_nodes as u64);
        profile.set_counter(Counter::ResolvedS1, report.resolved_stage1 as u64);
        profile.set_counter(Counter::RecoveredS2, report.recovered_stage2 as u64);
        profile.set_counter(Counter::RecoveredS3, report.recovered_stage3 as u64);
        profile.set_counter(Counter::FailedNodes, f.len() as u64);
        profile.set_counter(Counter::Unresolved, report.result.unresolved as u64);
        profile.set_counter(Counter::PredictedValid, report.predicted_valid as u64);
        profile.set_counter(Counter::CacheHits, report.cache_hits as u64);
        profile.set_counter(Counter::Steps, report.result.steps);
        profile.set_counter(Counter::Escalations, f.escalations);
        profile.set_counter(Counter::PanicsRecovered, f.panics_recovered);
        profile.set_counter(Counter::WorkerDeaths, f.worker_deaths as u64);
        profile.set_counter(Counter::Requeued, f.requeued as u64);
        let mut result = report.result;
        result.profile = Some(Box::new(profile));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_obs::{Histogram, Phase};
    use std::time::Duration;

    #[test]
    fn stage_accounting_is_complete() {
        let g = psi_datasets::generators::erdos_renyi(500, 2500, 3, 11);
        let cfg = SmartPsiConfig {
            min_candidates_for_ml: 10,
            ..SmartPsiConfig::default()
        };
        let smart = SmartPsi::new(g.clone(), cfg);
        let q = psi_datasets::rwr::extract_query_seeded(&g, 4, 2).unwrap();
        let r = smart.run(&q, &RunSpec::new());
        let p = r.profile.as_ref().unwrap();
        let rest = p.counter(Counter::Candidates) - p.counter(Counter::TrainedNodes);
        assert_eq!(
            p.counter(Counter::ResolvedS1)
                + p.counter(Counter::RecoveredS2)
                + p.counter(Counter::RecoveredS3),
            rest,
            "every non-training candidate resolves in exactly one stage"
        );
        assert!(p.reconciles());
        assert!(p.alpha_accuracy >= 0.0 && p.alpha_accuracy <= 1.0);
    }

    #[test]
    fn recorder_fills_spans_and_histograms() {
        let g = psi_datasets::generators::erdos_renyi(400, 1600, 4, 3);
        let cfg = SmartPsiConfig {
            min_candidates_for_ml: 10,
            ..SmartPsiConfig::default()
        };
        let smart = SmartPsi::new(g.clone(), cfg);
        let q = psi_datasets::rwr::extract_query_seeded(&g, 4, 13).unwrap();
        let rec = Arc::new(MetricsRecorder::new());
        let r = smart.run(&q, &RunSpec::new().recorder(rec.clone()));
        let p = r.profile.as_ref().unwrap();
        assert!(p.recorded);
        assert!(p.span(Phase::Train) > Duration::ZERO, "train span recorded");
        assert!(
            p.span(Phase::MatchS1) > Duration::ZERO,
            "stage-1 matching span recorded"
        );
        assert!(p.reconciles());
        // The step histogram saw every non-training candidate.
        let hist_count: u64 = p.hists[Histogram::StepsPerNode as usize].iter().sum();
        assert_eq!(
            hist_count,
            p.counter(Counter::Candidates) - p.counter(Counter::TrainedNodes)
        );
        // Spans are disjoint, so their sum stays below total wall time.
        assert!(p.phase_total().as_nanos() as u64 <= p.total_wall_ns);
    }
}
