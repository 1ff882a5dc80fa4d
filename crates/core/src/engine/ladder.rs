//! The preemptive recovery ladder (§4.3): the optimist, the pessimist
//! and the realist, per candidate node.
//!
//! One candidate's evaluation runs up to
//! [`RetryPolicy::max_attempts`] *limited* attempts — the predicted
//! method first (stage 1), then alternating with the opposite method
//! under escalating budgets (stage 2) — and finally one unlimited
//! attempt with the exact fallback (stage 3). Both methods are
//! exhaustive, so stage 3 is conclusive: scheduling, caching and
//! worker count can change the *cost* of a node, never its verdict.
//!
//! This module owns [`RetryPolicy`], the per-node outcome types, the
//! batched phase-A sweep (`GraphContext::batch_plan`), the ladder
//! itself (`GraphContext::eval_rest_node`) and the no-ML exact sweep
//! used below the training threshold (`GraphContext::plain_sweep`).
//!
//! **Phase A / phase B split.** Evaluation of the non-training
//! candidates is two-phased. Phase A (`GraphContext::batch_plan`)
//! runs once per query on the calling thread: a structure-of-arrays
//! stage-1 prefilter sweep (the chunked
//! [`psi_signature::SignatureStore::rows_satisfy`] /
//! [`rows_score`](psi_signature::SignatureStore::rows_score) kernels
//! over maximal contiguous id runs) settles provably-invalid
//! candidates without touching a matcher, and the survivors get their
//! `(method, plan)` predicted — cache probe first, forests otherwise —
//! with the sweep score appended as the last ML feature. Phase B (the
//! per-survivor retry ladder below) then only ever runs the matcher.
//! Because phase A is identical for every executor, answers *and*
//! per-node costs stay bit-identical across worker counts.

use std::time::Instant;

use psi_graph::NodeId;
use psi_obs::{timed, Counter, Histogram, Phase, Recorder};
use psi_signature::{SignatureKey, SignatureStore};

use crate::evaluator::{QueryContext, Verdict};
use crate::fault::{eval_isolated, IsolatedOutcome, NodeMatcher};
use crate::limits::EvalLimits;
use crate::plan::heuristic_plan;
use crate::report::{FailureReport, PsiResult, StageTimings};
use crate::smart::{RunSpec, SmartPsiReport};
use crate::Strategy;

use super::context::GraphContext;
use super::exec::PredictionCache;
use super::training::TrainedSession;

/// How the preemptive executor retries a node whose evaluation was
/// interrupted by its step budget, spuriously interrupted, or panicked
/// (§4.3 recovery, generalized into an explicit ladder).
///
/// The ladder runs `max_attempts` *limited* attempts — the predicted
/// method first, then alternating with the opposite method, each under
/// a budget of `2×AvgT × budget_multiplier^attempt` — and then one
/// final unlimited attempt: the pessimist exact matcher on the
/// heuristic plan when `escalate_to_exact` is set (the predicted
/// method otherwise). Both methods are exhaustive, so the final
/// attempt is conclusive unless the node's matcher itself is broken,
/// in which case the node is reported in
/// [`FailureReport`] instead of being
/// silently dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Limited (budgeted) attempts before the unlimited fallback.
    pub max_attempts: u32,
    /// Budget growth per limited attempt (clamped to ≥ 1.0).
    pub budget_multiplier: f64,
    /// Run the final unlimited attempt with the pessimist exact
    /// matcher on the heuristic plan rather than the predicted method.
    pub escalate_to_exact: bool,
}

impl Default for RetryPolicy {
    /// Two limited attempts (predicted, then opposite at 2× budget),
    /// then the exact fallback — the paper's three-stage executor
    /// expressed as a policy.
    fn default() -> Self {
        Self {
            max_attempts: 2,
            budget_multiplier: 2.0,
            escalate_to_exact: true,
        }
    }
}

impl RetryPolicy {
    /// Step budget for limited attempt `attempt` (0-based) given the
    /// trained base budget. Saturates instead of overflowing.
    pub fn budget(&self, base: u64, attempt: u32) -> u64 {
        let m = self.budget_multiplier.max(1.0);
        let scaled = base as f64 * m.powi(attempt.min(64) as i32);
        if scaled >= u64::MAX as f64 {
            u64::MAX
        } else {
            (scaled as u64).max(base).max(1)
        }
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
pub(crate) enum NodeOutcome {
    /// The candidate resolved (stage 1–3), or the *global*
    /// deadline/cancel fired first (stage 0, verdict `Interrupted`).
    Done {
        verdict: Verdict,
        /// Resolving stage (1–3); 0 = unresolved (global stop).
        stage: u8,
        cache_hit: bool,
        predicted_valid: bool,
        cost: NodeCost,
    },
    /// The candidate could not be resolved despite panic isolation and
    /// the full retry ladder — its matcher is broken or its per-node
    /// timeout expired.
    Failed {
        reason: String,
        attempts: u32,
        cache_hit: bool,
        predicted_valid: bool,
        cost: NodeCost,
    },
}

impl NodeOutcome {
    /// Whether the executor must stop sweeping (global limits fired).
    pub(crate) fn is_global_stop(&self) -> bool {
        matches!(self, NodeOutcome::Done { stage: 0, .. })
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
/// ascending CSR span.
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
            method_idx: self.method[i] as usize,
            plan_idx: self.plan[i] as usize,
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
    pub(crate) method_idx: usize,
    pub(crate) plan_idx: usize,
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
    /// 2. **Predict** ([`Phase::Predict`]): probe the cache / run the
    ///    forests once per survivor, with the sweep score appended as
    ///    the last ML feature. Fresh predictions are published to the
    ///    cache immediately, so structurally identical survivors hit
    ///    within the same sweep.
    /// 3. **Group**: pruned ids first, then one contiguous group per
    ///    predicted `(method, plan)`, ids ascending within each group.
    ///
    /// The plan is built before any worker spawns and is identical for
    /// every executor — which is what keeps answers and per-node costs
    /// bit-identical across worker counts.
    pub(crate) fn batch_plan(
        &self,
        sess: &TrainedSession,
        cache: Option<&PredictionCache>,
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
        timed(rec, Phase::Predict, || {
            let mut row_buf = Vec::new();
            let mut feat = Vec::with_capacity(dim);
            for i in 0..n {
                if !survives[i] {
                    continue;
                }
                let row = self.sigs.row_view(sorted[i], &mut row_buf);
                let key = cache.map(|_| SignatureKey::exact(row));
                let hit = match (cache, &key) {
                    (Some(c), Some(k)) => c.get(k),
                    _ => None,
                };
                cached[i] = hit.is_some();
                let (mi, pi) = match hit {
                    Some(v) => v,
                    None => {
                        feat.clear();
                        feat.extend_from_slice(row);
                        feat.push(scores[i]);
                        let v = sess.predict(&feat, rec);
                        if let (Some(c), Some(k)) = (cache, key) {
                            c.insert(k, v);
                        }
                        v
                    }
                };
                method[i] = mi as u8;
                plan[i] = pi.min(u16::MAX as usize) as u16;
            }
        });
        let pruned = survives.iter().filter(|&&s| !s).count();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&i| (survives[i], method[i], plan[i], sorted[i]));
        BatchPlan {
            ids: order.iter().map(|&i| sorted[i]).collect(),
            method: order.iter().map(|&i| method[i]).collect(),
            plan: order.iter().map(|&i| plan[i]).collect(),
            cached: order.iter().map(|&i| cached[i]).collect(),
            pruned,
        }
    }

    /// Evaluate one non-training candidate with the preemptive
    /// executor (§4.3), generalized into the [`RetryPolicy`] ladder:
    /// take the phase-A decision (survivor mask, method, plan, cache
    /// provenance), then run up to `max_attempts` *limited* attempts —
    /// the predicted method first (stage 1), then alternating with the
    /// opposite method under escalating budgets (stage 2) — and
    /// finally one unlimited attempt with the exact fallback
    /// (stage 3). Every attempt is panic-isolated; a panic costs the
    /// attempt, not the query. A candidate the prefilter pruned skips
    /// the matcher entirely and resolves Invalid at zero step cost.
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
        let out = if pred.survives {
            self.eval_rest_node_inner(sess, m, pred, u, spec, rec)
        } else {
            // Settled by the phase-A sweep: the pivot-signature
            // necessary condition failed, so no embedding can map the
            // pivot onto `u` under either method. The prefilter is
            // always right, so this counts toward α-accuracy as a
            // correct pessimistic call.
            NodeOutcome::Done {
                verdict: Verdict::Invalid,
                stage: 1,
                cache_hit: false,
                predicted_valid: false,
                cost: NodeCost::default(),
            }
        };
        let (cache_hit, predicted_valid, cost) = match &out {
            NodeOutcome::Done {
                cache_hit,
                predicted_valid,
                cost,
                ..
            }
            | NodeOutcome::Failed {
                cache_hit,
                predicted_valid,
                cost,
                ..
            } => (*cache_hit, *predicted_valid, *cost),
        };
        if rec.enabled() {
            if pred.survives {
                rec.add(
                    if cache_hit { Counter::CacheHits } else { Counter::CacheMisses },
                    1,
                );
            } else {
                rec.add(Counter::PrefilterPruned, 1);
            }
            rec.add(
                if predicted_valid { Counter::NodesOptimistic } else { Counter::NodesPessimistic },
                1,
            );
            rec.add(Counter::Steps, cost.steps);
            rec.add(Counter::Escalations, cost.escalations);
            rec.add(Counter::PanicsRecovered, cost.panics_recovered);
            rec.observe(Histogram::StepsPerNode, cost.steps);
            match &out {
                NodeOutcome::Done { stage, .. } => match stage {
                    1 => rec.add(Counter::ResolvedS1, 1),
                    2 => rec.add(Counter::RecoveredS2, 1),
                    3 => rec.add(Counter::RecoveredS3, 1),
                    _ => rec.add(Counter::Unresolved, 1),
                },
                NodeOutcome::Failed { .. } => rec.add(Counter::FailedNodes, 1),
            }
        }
        out
    }

    fn eval_rest_node_inner(
        &self,
        sess: &TrainedSession,
        m: &mut dyn NodeMatcher,
        pred: NodePred,
        u: NodeId,
        spec: &RunSpec,
        rec: &dyn Recorder,
    ) -> NodeOutcome {
        let NodePred {
            method_idx,
            plan_idx,
            cache_hit,
            ..
        } = pred;
        let predicted_valid = method_idx == 0;
        let plan = &sess.plans[plan_idx];
        let limits = &spec.limits;
        let node_deadline = self.config.node_timeout.map(|t| Instant::now() + t);
        let isolate = self.isolation(spec);
        let retry = self.config.retry;
        let mut cost = NodeCost::default();
        let mut attempts = 0u32;

        let (verdict, stage) = 'ladder: {
            if self.config.enable_recovery {
                // Limited attempts: predicted method first, then
                // alternating with the opposite, budgets escalating by
                // the policy's multiplier.
                for attempt in 0..retry.max_attempts {
                    let mi = if attempt % 2 == 0 { method_idx } else { 1 - method_idx };
                    let budget = retry.budget(sess.max_time(mi, plan_idx), attempt);
                    let lim = stage_limits_node(budget, limits, node_deadline);
                    attempts += 1;
                    if attempt > 0 {
                        rec.add(Counter::Retries, 1);
                    }
                    let phase = if attempt == 0 { Phase::MatchS1 } else { Phase::MatchS2 };
                    match timed(rec, phase, || {
                        eval_isolated(m, &sess.ctx, plan, u, sess.strategies[mi], &lim, isolate)
                    }) {
                        IsolatedOutcome::Finished(v, s) => {
                            cost.steps += s;
                            if v != Verdict::Interrupted {
                                break 'ladder (v, if attempt == 0 { 1 } else { 2 });
                            }
                            if limits.expired() {
                                break 'ladder (Verdict::Interrupted, 0);
                            }
                            cost.escalations += 1;
                        }
                        IsolatedOutcome::Panicked(_) => cost.panics_recovered += 1,
                    }
                }
            }
            // Final attempt, no step budget: the exact fallback (the
            // pessimist on the heuristic plan) by default; the
            // predicted method when the policy opts out of escalation
            // or recovery is disabled.
            let (final_mi, final_plan) = if !self.config.enable_recovery {
                (method_idx, plan)
            } else if retry.escalate_to_exact {
                (1, &sess.heuristic)
            } else {
                (method_idx, &sess.heuristic)
            };
            let lim = stage_limits_node(0, limits, node_deadline);
            attempts += 1;
            if attempts > 1 {
                rec.add(Counter::Retries, 1);
            }
            let phase = if self.config.enable_recovery { Phase::MatchS3 } else { Phase::MatchS1 };
            match timed(rec, phase, || {
                eval_isolated(
                    m,
                    &sess.ctx,
                    final_plan,
                    u,
                    sess.strategies[final_mi],
                    &lim,
                    isolate,
                )
            }) {
                IsolatedOutcome::Finished(v, s) => {
                    cost.steps += s;
                    if v != Verdict::Interrupted {
                        (v, if self.config.enable_recovery { 3 } else { 1 })
                    } else if limits.expired() {
                        (Verdict::Interrupted, 0)
                    } else {
                        // An unlimited attempt interrupted without the
                        // global limits firing: per-node timeout, or a
                        // matcher misreporting its budget.
                        let reason = if node_deadline.is_some_and(|d| Instant::now() >= d) {
                            "node timeout".to_string()
                        } else {
                            "interrupted without an expired budget".to_string()
                        };
                        return NodeOutcome::Failed {
                            reason,
                            attempts,
                            cache_hit,
                            predicted_valid,
                            cost,
                        };
                    }
                }
                IsolatedOutcome::Panicked(reason) => {
                    return NodeOutcome::Failed {
                        reason,
                        attempts,
                        cache_hit,
                        predicted_valid,
                        cost,
                    };
                }
            }
        };

        NodeOutcome::Done {
            verdict,
            stage,
            cache_hit,
            predicted_valid,
            cost,
        }
    }

    /// Exact sweep without ML for small candidate sets. Each node is
    /// panic-isolated and retried like the main path, so a broken node
    /// is recorded instead of failing the query. Runs inside a
    /// [`Phase::ExactFallback`] span.
    pub(crate) fn plain_sweep(
        &self,
        ctx: &QueryContext,
        m: &mut dyn NodeMatcher,
        candidates: Vec<NodeId>,
        spec: &RunSpec,
        rec: &dyn Recorder,
    ) -> SmartPsiReport {
        let t0 = Instant::now();
        let heuristic = ctx.compile(&heuristic_plan(&self.g, ctx.query()));
        let isolate = self.isolation(spec);
        let limits = &spec.limits;
        let retry = self.config.retry;
        let mut valid = Vec::new();
        let mut steps = 0u64;
        let mut unresolved = 0usize;
        let mut resolved = 0usize;
        let mut failures = FailureReport::default();
        'sweep: for (i, &u) in candidates.iter().enumerate() {
            let node_deadline = self.config.node_timeout.map(|t| Instant::now() + t);
            let mut attempts = 0u32;
            let mut last_reason = String::new();
            while attempts <= retry.max_attempts {
                attempts += 1;
                let lim = stage_limits_node(0, limits, node_deadline);
                match timed(rec, Phase::ExactFallback, || {
                    eval_isolated(m, ctx, &heuristic, u, Strategy::Pessimistic, &lim, isolate)
                }) {
                    IsolatedOutcome::Finished(v, s) => {
                        steps += s;
                        rec.observe(Histogram::StepsPerNode, s);
                        match v {
                            Verdict::Valid => {
                                valid.push(u);
                                resolved += 1;
                                continue 'sweep;
                            }
                            Verdict::Invalid => {
                                resolved += 1;
                                continue 'sweep;
                            }
                            Verdict::Interrupted => {
                                if limits.expired() {
                                    unresolved += candidates.len() - i;
                                    break 'sweep;
                                }
                                failures.escalations += 1;
                                last_reason = "node timeout".into();
                            }
                        }
                    }
                    IsolatedOutcome::Panicked(reason) => {
                        failures.panics_recovered += 1;
                        last_reason = reason;
                    }
                }
            }
            failures.record(u, last_reason, attempts);
        }
        valid.sort_unstable();
        failures.sort();
        rec.add(Counter::Steps, steps);
        SmartPsiReport {
            result: PsiResult {
                valid,
                candidates: candidates.len(),
                steps,
                unresolved,
                failures,
                profile: None,
            },
            timings: StageTimings {
                training_and_prediction: std::time::Duration::ZERO,
                evaluation: t0.elapsed(),
            },
            trained_nodes: 0,
            cache_hits: 0,
            resolved_stage1: resolved,
            recovered_stage2: 0,
            recovered_stage3: 0,
            predicted_valid: 0,
            alpha_accuracy: 1.0,
        }
    }
}

/// Accumulate one [`NodeOutcome`] into a report.
pub(crate) fn absorb_outcome(
    report: &mut SmartPsiReport,
    alpha_correct: &mut usize,
    u: NodeId,
    out: &NodeOutcome,
) {
    let (cache_hit, predicted_valid, cost) = match out {
        NodeOutcome::Done {
            cache_hit,
            predicted_valid,
            cost,
            ..
        }
        | NodeOutcome::Failed {
            cache_hit,
            predicted_valid,
            cost,
            ..
        } => (*cache_hit, *predicted_valid, *cost),
    };
    report.result.steps += cost.steps;
    report.result.failures.panics_recovered += cost.panics_recovered;
    report.result.failures.escalations += cost.escalations;
    if cache_hit {
        report.cache_hits += 1;
    }
    if predicted_valid {
        report.predicted_valid += 1;
    }
    match out {
        NodeOutcome::Done { verdict, stage, .. } => {
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
            if *stage != 0 && is_valid == predicted_valid {
                *alpha_correct += 1;
            }
        }
        NodeOutcome::Failed {
            reason, attempts, ..
        } => {
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
    fn tiny_graph_uses_plain_sweep_and_is_exact() {
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
