//! The preemptive recovery ladder (§4.3): the optimist, the pessimist
//! and the realist, per candidate node.
//!
//! One candidate's evaluation runs up to
//! [`SmartPsiConfig::max_attempts`](super::context::SmartPsiConfig::max_attempts)
//! *limited* attempts — the predicted method first (stage 1), then
//! alternating with the opposite method under doubling budgets
//! (stage 2) — and finally one unlimited attempt with the exact
//! fallback (stage 3). Both methods are exhaustive, so stage 3 is
//! conclusive: scheduling, caching and worker count can change the
//! *cost* of a node, never its verdict.
//!
//! This module owns the per-node outcome types, the batched phase-A
//! sweep (`GraphContext::batch_plan`), the ladder itself
//! (`GraphContext::eval_rest_node`) and the exact-pessimist routine
//! (`GraphContext::settle_exact`) that both training's ground truth
//! and a model-less plan's survivors run.
//!
//! **Phase A / phase B split.** Evaluation of the non-training
//! candidates is two-phased. Phase A (`GraphContext::batch_plan`)
//! runs once per query, before any grab: a structure-of-arrays
//! stage-1 prefilter sweep (the chunked
//! [`psi_signature::SignatureStore::rows_satisfy`] /
//! [`rows_score`](psi_signature::SignatureStore::rows_score) kernels
//! over maximal contiguous id runs) settles provably-invalid
//! candidates without touching a matcher, and the survivors get their
//! `(method, plan)` predicted — cache probe first, forests otherwise —
//! with the sweep score appended as the last ML feature. Everything
//! but the forest inference runs on the calling thread in sorted-id
//! order; the inference of the distinct rows the cache misses fans
//! out over the run's workers. A session without models (below
//! `min_candidates_for_ml`, or every training node failed) gets an
//! *exact* plan instead: its survivors skip prediction and the ladder,
//! and the exact-pessimist routine settles each one. Phase B (the
//! per-survivor work below) then only ever runs the matcher. Because
//! phase A is identical for every worker count, answers *and*
//! per-node costs stay bit-identical across them.

use std::collections::hash_map::Entry;
use std::ops::ControlFlow;
use std::time::Instant;

use psi_graph::hash::FxHashMap;
use psi_graph::NodeId;
use psi_obs::{timed, Counter, Histogram, Phase, Recorder};
use psi_signature::{SignatureKey, SignatureStore};

use crate::evaluator::{CompiledPlan, QueryContext, Verdict};
use crate::fault::{eval_isolated, IsolatedOutcome, NodeMatcher};
use crate::limits::EvalLimits;
use crate::smart::{RunSpec, SmartPsiReport};
use crate::Strategy;

use super::context::GraphContext;
use super::exec::PredictionCache;
use super::pool::scatter_map;
use super::training::{Models, TrainedSession};

/// Step budget for limited ladder attempt `attempt` (0-based) given
/// the trained base budget: the base doubles per attempt. Saturates
/// instead of overflowing.
fn budget(base: u64, attempt: u32) -> u64 {
    let scaled = base as f64 * 2f64.powi(attempt.min(64) as i32);
    if scaled >= u64::MAX as f64 {
        u64::MAX
    } else {
        (scaled as u64).max(base).max(1)
    }
}

/// Retry/isolation cost of one candidate, folded into the failure
/// report's counters by [`absorb_outcome`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeCost {
    pub(crate) steps: u64,
    pub(crate) panics_recovered: u64,
    pub(crate) escalations: u64,
}

/// Outcome of one main-loop candidate (see
/// [`GraphContext::eval_rest_node`]).
#[derive(Debug, Clone)]
pub(crate) struct NodeOutcome {
    pub(crate) end: NodeEnd,
    /// Whether the node's (method, plan) came from the cache.
    pub(crate) cache_hit: bool,
    /// Model α's call (`true` = valid, optimist first); `None` when
    /// an exact plan settled the node without a model.
    pub(crate) predicted_valid: Option<bool>,
    pub(crate) cost: NodeCost,
}

/// How one candidate's evaluation ended.
#[derive(Debug, Clone)]
pub(crate) enum NodeEnd {
    /// The candidate resolved (stage 1–3), or the *global*
    /// deadline/cancel fired first (stage 0, verdict `Interrupted`).
    Done {
        verdict: Verdict,
        /// Resolving stage (1–3); 0 = unresolved (global stop).
        stage: u8,
    },
    /// The candidate could not be resolved despite panic isolation and
    /// every retry — its matcher is broken or its per-node timeout
    /// expired.
    Failed { reason: String, attempts: u32 },
}

impl NodeOutcome {
    /// Whether the executor must stop sweeping (global limits fired).
    pub(crate) fn is_global_stop(&self) -> bool {
        matches!(self.end, NodeEnd::Done { stage: 0, .. })
    }
}

/// How [`GraphContext::settle_exact`] ended.
pub(crate) enum Exact {
    /// A conclusive verdict, with the steps of the attempt that
    /// reached it.
    Settled(Verdict, u64),
    /// The global deadline or cancel flag fired.
    Stopped,
    /// No attempt concluded: each panicked, or came back interrupted
    /// without the global limits firing.
    Failed { reason: String, attempts: u32 },
}

/// Why an unlimited attempt came back interrupted although the global
/// limits did not fire: the per-node timeout, or a matcher
/// misreporting its budget.
fn interrupted_reason(node_deadline: Option<Instant>) -> String {
    if node_deadline.is_some_and(|d| Instant::now() >= d) {
        "node timeout".to_string()
    } else {
        "interrupted without an expired budget".to_string()
    }
}

/// Step-limited stage limits inheriting the global deadline/cancel.
pub(crate) fn stage_limits(max_steps: u64, global: &EvalLimits) -> EvalLimits {
    stage_limits_node(max_steps, global, None)
}

/// [`stage_limits`] with an additional per-node deadline; the earlier
/// of the global and node deadline wins.
pub(crate) fn stage_limits_node(
    max_steps: u64,
    global: &EvalLimits,
    node_deadline: Option<Instant>,
) -> EvalLimits {
    let deadline = match (global.deadline, node_deadline) {
        (Some(g), Some(n)) => Some(g.min(n)),
        (g, n) => g.or(n),
    };
    EvalLimits {
        max_steps,
        deadline,
        cancel: global.cancel.clone(),
        cancel_at: global.cancel_at.clone(),
    }
}

/// Structure-of-arrays execution plan for one query's non-training
/// candidates, built once by [`GraphContext::batch_plan`] and shared
/// read-only by every executor worker.
///
/// Layout: the candidates pruned by the stage-1 prefilter come first
/// (ids ascending), then one contiguous group per predicted
/// `(method, plan)` pair with ids ascending inside each group — so a
/// pool grab is a contiguous range of same-plan candidates over an
/// ascending CSR span. An exact plan has one survivor group.
pub(crate) struct BatchPlan {
    /// Candidate ids in grouped evaluation order.
    pub(crate) ids: Vec<NodeId>,
    /// Predicted method index per id (0 = optimistic, 1 = pessimistic;
    /// pruned ids are pessimistic by construction).
    method: Vec<u8>,
    /// Predicted plan index per id.
    plan: Vec<u16>,
    /// Whether the prediction came from the cache.
    cached: Vec<bool>,
    /// `ids[..pruned]` failed the pivot-signature prefilter: provably
    /// invalid without running any matcher.
    pruned: usize,
    /// No model made these decisions: the session has no models, and
    /// the exact-pessimist routine settles every survivor.
    exact: bool,
}

impl BatchPlan {
    /// Number of planned candidates (`== rest.len()`).
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The phase-A decision for slot `i`.
    pub(crate) fn pred(&self, i: usize) -> NodePred {
        NodePred {
            survives: i >= self.pruned,
            model: (!self.exact).then(|| (self.method[i] as usize, self.plan[i] as usize)),
            cache_hit: self.cached[i],
        }
    }
}

/// One candidate's precomputed phase-A decision, consumed by
/// [`GraphContext::eval_rest_node`].
#[derive(Clone, Copy)]
pub(crate) struct NodePred {
    /// Passed the stage-1 prefilter; `false` means settled Invalid.
    pub(crate) survives: bool,
    /// The models' (method index, plan index); `None` on an exact
    /// plan.
    pub(crate) model: Option<(usize, usize)>,
    pub(crate) cache_hit: bool,
}

impl GraphContext {
    /// Phase A of the batched pipeline: one structure-of-arrays sweep
    /// over the whole non-training candidate set.
    ///
    /// 1. **Prefilter** ([`Phase::Prefilter`]): sort the candidates
    ///    ascending, cut them into maximal contiguous id runs, and run
    ///    the chunked batch kernels over each run against the pivot's
    ///    query signature row. A candidate failing the Proposition 3.2
    ///    necessary condition cannot host the pivot under either
    ///    method, so it resolves Invalid on the spot (stage 1, zero
    ///    matcher steps).
    /// 2. **Predict** ([`Phase::Predict`]): probe the cache once per
    ///    survivor, in sorted-id order on the calling thread; a row an
    ///    earlier survivor of the sweep already missed on counts as a
    ///    hit and takes that row's decision, as if its insert had come
    ///    first. The distinct missing rows then go through the forests
    ///    — with the sweep score appended as the last ML feature —
    ///    over `workers` workers, and their decisions are inserted into
    ///    the cache. So hits, inferences and decisions are the same at
    ///    every worker count. Without a cache every survivor is
    ///    predicted. A session without models skips this step: its
    ///    plan is exact.
    /// 3. **Group**: pruned ids first, then one contiguous group per
    ///    predicted `(method, plan)`, ids ascending within each group.
    ///
    /// The plan is built before any grab and is identical for every
    /// worker count — which is what keeps answers and per-node costs
    /// bit-identical across them.
    pub(crate) fn batch_plan(
        &self,
        sess: &TrainedSession,
        cache: Option<&PredictionCache>,
        workers: usize,
        rec: &dyn Recorder,
    ) -> BatchPlan {
        let n = sess.rest.len();
        let mut sorted = sess.rest.clone();
        sorted.sort_unstable();
        let mut survives = vec![false; n];
        let mut scores = vec![0.0f32; n];
        timed(rec, Phase::Prefilter, || {
            let pivot_row = sess.ctx.signatures().row(sess.ctx.query().pivot());
            let mut i = 0;
            while i < n {
                let mut j = i + 1;
                while j < n && sorted[j] == sorted[j - 1] + 1 {
                    j += 1;
                }
                let range = sorted[i]..sorted[i] + (j - i) as NodeId;
                self.sigs.rows_satisfy(range.clone(), pivot_row, &mut survives[i..j]);
                self.sigs.rows_score(range, pivot_row, &mut scores[i..j]);
                i = j;
            }
        });
        // Pruned candidates are settled; only survivors pay the cache
        // probe and forest inference.
        let dim = self.sigs.label_count() + 1;
        let mut method = vec![1u8; n];
        let mut plan = vec![0u16; n];
        let mut cached = vec![false; n];
        if let Some(models) = &sess.models {
            timed(rec, Phase::Predict, || {
                // `infer`: survivors whose rows need the forests;
                // `copies`: survivors whose row an earlier survivor
                // already sent there, with that row's slot in `infer`
                // (a hit, as if that row's insert preceded the probe).
                let mut infer: Vec<usize> = Vec::new();
                let mut copies: Vec<(usize, usize)> = Vec::new();
                let mut pending: FxHashMap<SignatureKey, usize> = FxHashMap::default();
                let mut row_buf = Vec::new();
                for i in (0..n).filter(|&i| survives[i]) {
                    let Some(c) = cache else {
                        infer.push(i);
                        continue;
                    };
                    let key = SignatureKey::exact(self.sigs.row_view(sorted[i], &mut row_buf));
                    if let Some((mi, pi)) = c.get(&key) {
                        cached[i] = true;
                        method[i] = mi as u8;
                        plan[i] = pi.min(u16::MAX as usize) as u16;
                        continue;
                    }
                    match pending.entry(key) {
                        Entry::Occupied(k) => {
                            cached[i] = true;
                            copies.push((i, *k.get()));
                        }
                        Entry::Vacant(slot) => {
                            slot.insert(infer.len());
                            infer.push(i);
                        }
                    }
                }
                // Inference of the distinct missing rows: the only
                // step of phase A that fans out.
                let mut decided = Vec::with_capacity(infer.len());
                scatter_map(
                    infer.len(),
                    workers,
                    rec,
                    || (Vec::new(), Vec::with_capacity(dim)),
                    |(row_buf, feat), k, out: &mut (usize, usize), rec| {
                        let i = infer[k];
                        feat.clear();
                        feat.extend_from_slice(self.sigs.row_view(sorted[i], row_buf));
                        feat.push(scores[i]);
                        *out = models.predict(feat, rec);
                    },
                    |_, out| {
                        decided.push(*out);
                        ControlFlow::Continue(())
                    },
                );
                let slots = infer.iter().enumerate().map(|(k, &i)| (i, k));
                for (i, k) in slots.chain(copies) {
                    let (mi, pi) = decided[k];
                    method[i] = mi as u8;
                    plan[i] = pi.min(u16::MAX as usize) as u16;
                }
                if let Some(c) = cache {
                    for (key, k) in pending {
                        c.insert(key, decided[k]);
                    }
                }
            });
        }
        let pruned = survives.iter().filter(|&&s| !s).count();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&i| (survives[i], method[i], plan[i], sorted[i]));
        BatchPlan {
            ids: order.iter().map(|&i| sorted[i]).collect(),
            method: order.iter().map(|&i| method[i]).collect(),
            plan: order.iter().map(|&i| plan[i]).collect(),
            cached: order.iter().map(|&i| cached[i]).collect(),
            pruned,
            exact: sess.models.is_none(),
        }
    }

    /// Evaluate one non-training candidate from its phase-A decision.
    /// A candidate the prefilter pruned skips the matcher entirely and
    /// resolves Invalid at zero step cost. A survivor with a model
    /// decision climbs the preemptive ladder (§4.3): up to
    /// `max_attempts` *limited* attempts — the predicted method first
    /// (stage 1), then alternating with the opposite method under
    /// doubling budgets (stage 2) — and finally one unlimited attempt
    /// with the exact fallback (stage 3). A survivor of an exact plan
    /// is settled by [`GraphContext::settle_exact`] inside a
    /// [`Phase::ExactFallback`] span and counts as resolved at stage 1.
    /// Every attempt is panic-isolated; a panic costs the attempt, not
    /// the query.
    ///
    /// Exits: `Done { stage: 1..3 }` (conclusive), `Done { stage: 0 }`
    /// (global deadline/cancel fired — the only inexact exit), or
    /// `Failed` (the node's matcher is broken or its per-node timeout
    /// expired; recorded instead of silently dropped).
    ///
    /// Instrumentation: the ladder attempts run inside
    /// [`Phase::MatchS1`] / [`Phase::MatchS2`] / [`Phase::MatchS3`]
    /// spans, and the node's totals feed the step histogram and the
    /// cache/retry counters (prediction itself was already billed by
    /// [`GraphContext::batch_plan`]).
    pub(crate) fn eval_rest_node(
        &self,
        sess: &TrainedSession,
        m: &mut dyn NodeMatcher,
        pred: NodePred,
        u: NodeId,
        spec: &RunSpec,
        rec: &dyn Recorder,
    ) -> NodeOutcome {
        let mut cost = NodeCost::default();
        let end = match (pred.survives, pred.model, &sess.models) {
            // Settled by the phase-A sweep: the pivot-signature
            // necessary condition failed, so no embedding can map the
            // pivot onto `u` under either method. The prefilter is
            // always right, so under a model this counts toward
            // α-accuracy as a correct pessimistic call.
            (false, ..) => NodeEnd::Done {
                verdict: Verdict::Invalid,
                stage: 1,
            },
            (true, Some((mi, pi)), Some(models)) => {
                self.climb_ladder(sess, models, m, (mi, pi), u, spec, rec, &mut cost)
            }
            _ => match timed(rec, Phase::ExactFallback, || {
                self.settle_exact(&sess.ctx, &sess.heuristic, m, u, spec, &mut cost)
            }) {
                Exact::Settled(verdict, _) => NodeEnd::Done { verdict, stage: 1 },
                Exact::Stopped => NodeEnd::Done {
                    verdict: Verdict::Interrupted,
                    stage: 0,
                },
                Exact::Failed { reason, attempts } => NodeEnd::Failed { reason, attempts },
            },
        };
        let out = NodeOutcome {
            end,
            cache_hit: pred.cache_hit,
            predicted_valid: pred.model.map(|(mi, _)| mi == 0),
            cost,
        };
        if rec.enabled() {
            if !pred.survives {
                rec.add(Counter::PrefilterPruned, 1);
            } else if pred.model.is_some() {
                rec.add(
                    if out.cache_hit { Counter::CacheHits } else { Counter::CacheMisses },
                    1,
                );
            }
            rec.add(
                if out.predicted_valid == Some(true) {
                    Counter::NodesOptimistic
                } else {
                    Counter::NodesPessimistic
                },
                1,
            );
            rec.add(Counter::Steps, cost.steps);
            rec.add(Counter::Escalations, cost.escalations);
            rec.add(Counter::PanicsRecovered, cost.panics_recovered);
            rec.observe(Histogram::StepsPerNode, cost.steps);
            match &out.end {
                NodeEnd::Done { stage, .. } => match stage {
                    1 => rec.add(Counter::ResolvedS1, 1),
                    2 => rec.add(Counter::RecoveredS2, 1),
                    3 => rec.add(Counter::RecoveredS3, 1),
                    _ => rec.add(Counter::Unresolved, 1),
                },
                NodeEnd::Failed { .. } => rec.add(Counter::FailedNodes, 1),
            }
        }
        out
    }

    /// The preemptive ladder for one survivor with a model decision
    /// `(method_idx, plan_idx)`; see [`GraphContext::eval_rest_node`].
    #[allow(clippy::too_many_arguments)]
    fn climb_ladder(
        &self,
        sess: &TrainedSession,
        models: &Models,
        m: &mut dyn NodeMatcher,
        (method_idx, plan_idx): (usize, usize),
        u: NodeId,
        spec: &RunSpec,
        rec: &dyn Recorder,
        cost: &mut NodeCost,
    ) -> NodeEnd {
        let plan = &models.plans[plan_idx];
        let limits = &spec.limits;
        let node_deadline = self.config.node_timeout.map(|t| Instant::now() + t);
        let isolate = self.isolation(spec);
        let recovery = self.config.enable_recovery;
        let mut attempts = 0u32;
        if recovery {
            // Limited attempts: predicted method first, then
            // alternating with the opposite, budgets doubling.
            for attempt in 0..self.config.max_attempts {
                let mi = if attempt % 2 == 0 { method_idx } else { 1 - method_idx };
                let lim = stage_limits_node(
                    budget(models.max_time(mi, plan_idx), attempt),
                    limits,
                    node_deadline,
                );
                attempts += 1;
                if attempt > 0 {
                    rec.add(Counter::Retries, 1);
                }
                let phase = if attempt == 0 { Phase::MatchS1 } else { Phase::MatchS2 };
                match timed(rec, phase, || {
                    eval_isolated(m, &sess.ctx, plan, u, models.strategies[mi], &lim, isolate)
                }) {
                    IsolatedOutcome::Finished(v, s) => {
                        cost.steps += s;
                        if v != Verdict::Interrupted {
                            let stage = if attempt == 0 { 1 } else { 2 };
                            return NodeEnd::Done { verdict: v, stage };
                        }
                        if limits.expired() {
                            return NodeEnd::Done {
                                verdict: Verdict::Interrupted,
                                stage: 0,
                            };
                        }
                        cost.escalations += 1;
                    }
                    IsolatedOutcome::Panicked(_) => cost.panics_recovered += 1,
                }
            }
        }
        // Final attempt, no step budget: the exact fallback (the
        // pessimist on the heuristic plan); the predicted method and
        // plan when recovery is disabled.
        let (final_mi, final_plan, phase, stage) = if recovery {
            (1, &sess.heuristic, Phase::MatchS3, 3)
        } else {
            (method_idx, plan, Phase::MatchS1, 1)
        };
        let lim = stage_limits_node(0, limits, node_deadline);
        attempts += 1;
        if attempts > 1 {
            rec.add(Counter::Retries, 1);
        }
        match timed(rec, phase, || {
            eval_isolated(m, &sess.ctx, final_plan, u, models.strategies[final_mi], &lim, isolate)
        }) {
            IsolatedOutcome::Finished(v, s) => {
                cost.steps += s;
                if v != Verdict::Interrupted {
                    NodeEnd::Done { verdict: v, stage }
                } else if limits.expired() {
                    NodeEnd::Done {
                        verdict: Verdict::Interrupted,
                        stage: 0,
                    }
                } else {
                    NodeEnd::Failed {
                        reason: interrupted_reason(node_deadline),
                        attempts,
                    }
                }
            }
            IsolatedOutcome::Panicked(reason) => NodeEnd::Failed { reason, attempts },
        }
    }

    /// The exact pessimist: run the pessimistic method on the
    /// heuristic plan, unlimited but for the per-node deadline, for at
    /// most `max_attempts + 1` panic-isolated attempts, until one
    /// concludes. A panic adds to `cost.panics_recovered`; an
    /// interruption that is not the global limits' adds to
    /// `cost.escalations`; an expired global limit stops at once.
    ///
    /// Training's ground truth (§4.2.1) and an exact plan's survivors
    /// both settle nodes here. It opens no span: training's calls sit
    /// inside [`Phase::Train`], the sweep's inside
    /// [`Phase::ExactFallback`].
    pub(crate) fn settle_exact(
        &self,
        ctx: &QueryContext,
        heuristic: &CompiledPlan,
        m: &mut dyn NodeMatcher,
        u: NodeId,
        spec: &RunSpec,
        cost: &mut NodeCost,
    ) -> Exact {
        let limits = &spec.limits;
        let node_deadline = self.config.node_timeout.map(|t| Instant::now() + t);
        let lim = stage_limits_node(0, limits, node_deadline);
        let isolate = self.isolation(spec);
        let attempts = self.config.max_attempts.saturating_add(1);
        let mut reason = String::new();
        for _ in 0..attempts {
            match eval_isolated(m, ctx, heuristic, u, Strategy::Pessimistic, &lim, isolate) {
                IsolatedOutcome::Finished(v, s) => {
                    cost.steps += s;
                    if v != Verdict::Interrupted {
                        return Exact::Settled(v, s);
                    }
                    if limits.expired() {
                        return Exact::Stopped;
                    }
                    cost.escalations += 1;
                    reason = interrupted_reason(node_deadline);
                }
                IsolatedOutcome::Panicked(r) => {
                    cost.panics_recovered += 1;
                    reason = r;
                }
            }
        }
        Exact::Failed { reason, attempts }
    }
}

/// Accumulate one [`NodeOutcome`] into a report. Only nodes a model
/// decided count toward α's correct calls; the report's `alpha_predicted`
/// is set once per run by its driver.
pub(crate) fn absorb_outcome(report: &mut SmartPsiReport, u: NodeId, out: &NodeOutcome) {
    let cost = &out.cost;
    report.result.steps += cost.steps;
    report.result.failures.panics_recovered += cost.panics_recovered;
    report.result.failures.escalations += cost.escalations;
    if out.cache_hit {
        report.cache_hits += 1;
    }
    if out.predicted_valid == Some(true) {
        report.predicted_valid += 1;
    }
    match &out.end {
        NodeEnd::Done { verdict, stage } => {
            match stage {
                1 => report.resolved_stage1 += 1,
                2 => report.recovered_stage2 += 1,
                3 => report.recovered_stage3 += 1,
                _ => report.result.unresolved += 1,
            }
            let is_valid = *verdict == Verdict::Valid;
            if is_valid {
                report.result.valid.push(u);
            }
            if *stage != 0 && out.predicted_valid == Some(is_valid) {
                report.alpha_correct += 1;
            }
        }
        NodeEnd::Failed { reason, attempts } => {
            report.result.failures.record(u, reason.clone(), *attempts);
        }
    }
}

#[cfg(test)]
mod tests {
    use psi_graph::{Graph, PivotedQuery};
    use psi_graph::builder::graph_from;
    use psi_obs::Counter;

    use crate::smart::{RunSpec, SmartPsi};
    use crate::{PsiResult, SmartPsiConfig};

    fn figure1() -> (Graph, PivotedQuery) {
        let g = graph_from(
            &[0, 1, 2, 2, 1, 0],
            &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (3, 4), (2, 4), (4, 5)],
        )
        .unwrap();
        let q = PivotedQuery::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        (g, q)
    }

    fn counter(r: &PsiResult, c: Counter) -> u64 {
        r.profile.as_ref().expect("run always attaches a profile").counter(c)
    }

    #[test]
    fn tiny_graph_takes_the_exact_plan_and_is_exact() {
        let (g, q) = figure1();
        let smart = SmartPsi::new(g, SmartPsiConfig::default());
        let r = smart.run(&q, &RunSpec::new());
        assert_eq!(r.valid, vec![0, 5]);
        assert_eq!(counter(&r, Counter::TrainedNodes), 0); // below min_candidates_for_ml
        assert_eq!(r.unresolved, 0);
        assert!(r.profile.as_ref().unwrap().reconciles());
    }

    #[test]
    fn recovery_disabled_still_exact() {
        let g = psi_datasets::generators::erdos_renyi(300, 1000, 3, 7);
        let cfg = SmartPsiConfig {
            min_candidates_for_ml: 10,
            enable_recovery: false,
            ..SmartPsiConfig::default()
        };
        let smart = SmartPsi::new(g.clone(), cfg);
        let q = psi_datasets::rwr::extract_query_seeded(&g, 4, 5).unwrap();
        let oracle = psi_match::psi_by_enumeration(
            &psi_match::Engine::Vf2,
            &g,
            &q,
            &psi_match::SearchBudget::unlimited(),
        );
        let r = smart.run(&q, &RunSpec::new());
        assert_eq!(r.valid, oracle.valid);
    }

    #[test]
    fn beta_disabled_still_exact() {
        let g = psi_datasets::generators::erdos_renyi(300, 1000, 3, 8);
        let cfg = SmartPsiConfig {
            min_candidates_for_ml: 10,
            enable_beta: false,
            enable_cache: false,
            ..SmartPsiConfig::default()
        };
        let smart = SmartPsi::new(g.clone(), cfg);
        let q = psi_datasets::rwr::extract_query_seeded(&g, 4, 6).unwrap();
        let oracle = psi_match::psi_by_enumeration(
            &psi_match::Engine::Vf2,
            &g,
            &q,
            &psi_match::SearchBudget::unlimited(),
        );
        let r = smart.run(&q, &RunSpec::new());
        assert_eq!(r.valid, oracle.valid);
        assert_eq!(counter(&r, Counter::CacheHits), 0);
    }
}
