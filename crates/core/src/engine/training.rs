//! The training layer (§4.2): sample selection, ground truth, plan
//! timing, and forest fitting.
//!
//! `GraphContext::train_session` runs exactly once per query —
//! regardless of worker count — and produces a `TrainedSession`: the
//! heuristic plan, the shuffled candidate split and, when ML pays,
//! `Models` — the sampled plans, Models α and β and the step-budget
//! tables. Below `min_candidates_for_ml`, or when every training node
//! failed, the session has no models and its phase-A plan is exact.
//! The session is shared read-only by every executor worker of the
//! query.
//!
//! With more than one worker, the per-node ground-truth and
//! plan-timing runs and both forests' trees run as pool tasks
//! (`pool::scatter_map`); the rows fold in sample order and every
//! random draw stays on the calling thread, so the models are
//! bit-identical at every worker count.
//!
//! **Refit policy under graph evolution.** Sessions are never cached
//! across queries, so an evolving deployment gets model refits for
//! free: every job trains against the snapshot it pinned at pickup,
//! and the first job after
//! [`PsiService::apply_update`](super::service::PsiService::apply_update)
//! simply trains on the new epoch's graph. Only *predictions* persist
//! across queries, and those live in epoch-keyed caches that the
//! update path retires.

use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use psi_graph::{NodeId, PivotedQuery};
use psi_ml::forest::{ForestFit, RandomForest};
use psi_ml::tree::DecisionTree;
use psi_ml::Dataset;
use psi_obs::{timed, Counter, Phase, Recorder};
use psi_signature::SignatureStore;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::evaluator::{CompiledPlan, QueryContext, Verdict};
use crate::fault::{eval_isolated, IsolatedOutcome, PsiMatcher};
use crate::plan::{heuristic_plan, sample_plans};
use crate::report::FailureReport;
use crate::smart::RunSpec;
use crate::Strategy;

use super::context::GraphContext;
use super::ladder::{stage_limits, Exact, NodeCost};
use super::pool::scatter_map;

/// Everything [`TrainedSession`]-building can conclude.
pub(crate) enum TrainOutcome {
    /// A *global* deadline or cancel flag fired during training;
    /// `steps` were spent and `failures` accumulated before stopping.
    Interrupted { steps: u64, failures: FailureReport },
    /// The session is ready, with models or without.
    Trained(Box<TrainedSession>),
}

/// Per-query state produced by the training phase (§4.2), shared
/// read-only by every executor worker: the heuristic plan, the models
/// (when there are any) and the candidate split.
pub(crate) struct TrainedSession {
    pub(crate) ctx: QueryContext,
    /// The heuristic plan: the exact routine's plan and the ladder's
    /// stage-3 fallback.
    pub(crate) heuristic: CompiledPlan,
    /// Models α and β; `None` for a session without models — too few
    /// candidates for ML to pay off, or every training node failed —
    /// whose phase-A plan is exact.
    pub(crate) models: Option<Models>,
    /// Valid nodes discovered among the training sample.
    pub(crate) train_valid: Vec<NodeId>,
    /// Steps spent during training.
    pub(crate) train_steps: u64,
    pub(crate) n_train: usize,
    /// The candidates left for the main loop (shuffled order).
    pub(crate) rest: Vec<NodeId>,
    pub(crate) total_candidates: usize,
    pub(crate) training_and_prediction: Duration,
    /// Faults survived while training (failed training nodes are not
    /// in `train_valid`, `rest`, or `n_train`).
    pub(crate) failures: FailureReport,
}

/// Fitted Models α and β with the compiled plans β chooses among and
/// the step-budget tables the ladder reads.
pub(crate) struct Models {
    pub(crate) plans: Vec<CompiledPlan>,
    pub(crate) strategies: [Strategy; 2],
    alpha: RandomForest,
    beta: Option<RandomForest>,
    sum_steps: Vec<Vec<u64>>,
    cnt_steps: Vec<Vec<u64>>,
    global_avg: u64,
}

impl Models {
    /// `MaxTime(u) = 2 × AvgT(method, plan)` (§4.3), with a floor so a
    /// zero-cost training average cannot starve stage 1.
    pub(crate) fn max_time(&self, method_idx: usize, plan_idx: usize) -> u64 {
        let c = self.cnt_steps[method_idx][plan_idx];
        match (2 * self.sum_steps[method_idx][plan_idx]).checked_div(c) {
            None => 2 * self.global_avg,
            Some(avg) => avg.max(32),
        }
    }

    /// Predict (method index, plan index) for a feature row — the
    /// signature row with the stage-1 prefilter score appended, the
    /// same layout the models were fitted on. Each forest call is one
    /// recorded ML inference.
    pub(crate) fn predict(&self, row: &[f32], rec: &dyn Recorder) -> (usize, usize) {
        let m = 1 - self.alpha.predict_recorded(row, rec).min(1); // class 1 (valid) → optimistic (0)
        let p = self
            .beta
            .as_ref()
            .map_or(0, |b| b.predict_recorded(row, rec).min(self.plans.len() - 1));
        (m, p)
    }
}

/// One training node's row, filled by the per-node run and folded
/// into the session in sample order.
#[derive(Default)]
struct TrainRow {
    /// Steps, recovered panics and escalations of the node's runs.
    cost: NodeCost,
    truth: TrainTruth,
    /// `(plan index, steps)` of every sampled plan that finished in the
    /// node's last timing round: its method's row of the budget tables.
    times: Vec<(usize, u64)>,
}

/// How one training node's runs ended.
#[derive(Default)]
enum TrainTruth {
    /// The global deadline or cancel flag fired: training stops here.
    #[default]
    Stopped,
    /// No exact attempt concluded (panics or per-node timeout).
    Failed { reason: String, attempts: u32 },
    /// Ground truth (Model α's label) and the cheapest plan (Model
    /// β's).
    Labeled { valid: bool, best_plan: usize },
}

impl GraphContext {
    /// Training phase (§4.2): sample training nodes, obtain ground
    /// truth and plan timings, fit Models α and β — the per-node runs
    /// and the trees over `spec.workers()` workers. Runs exactly once
    /// per query; the result is shared read-only across executor
    /// workers. Wrapped in a [`Phase::Train`] span on the calling
    /// thread.
    pub(crate) fn train_session(
        &self,
        query: &PivotedQuery,
        candidates: Vec<NodeId>,
        spec: &RunSpec,
        rec: &dyn Recorder,
    ) -> TrainOutcome {
        timed(rec, Phase::Train, || {
            self.train_session_inner(query, candidates, spec, rec)
        })
    }

    fn train_session_inner(
        &self,
        query: &PivotedQuery,
        candidates: Vec<NodeId>,
        spec: &RunSpec,
        rec: &dyn Recorder,
    ) -> TrainOutcome {
        let t_setup = Instant::now();
        let ctx = QueryContext::new(query.clone(), self.config.depth);
        let heuristic = ctx.compile(&heuristic_plan(&self.g, query));
        let total_candidates = candidates.len();
        if total_candidates < self.config.min_candidates_for_ml {
            // Too few candidates for ML to pay off: no models, and the
            // whole candidate set is left for the exact plan.
            return TrainOutcome::Trained(Box::new(TrainedSession {
                ctx,
                heuristic,
                models: None,
                train_valid: Vec::new(),
                train_steps: 0,
                n_train: 0,
                rest: candidates,
                total_candidates,
                training_and_prediction: Duration::ZERO,
                failures: FailureReport::default(),
            }));
        }
        let workers = spec.workers();
        let isolate = self.isolation(spec);
        let limits = &spec.limits;
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // ---- Plans -------------------------------------------------
        let plan_orders = sample_plans(&self.g, query, self.config.plan_sample.max(1), rng.gen());
        let plans: Vec<CompiledPlan> = plan_orders.iter().map(|p| ctx.compile(p)).collect();

        // ---- Training sample ---------------------------------------
        let n_train = ((total_candidates as f64 * self.config.train_fraction).ceil() as usize)
            .clamp(1, self.config.max_train_nodes.min(total_candidates));
        let mut shuffled = candidates;
        for i in (1..shuffled.len()).rev() {
            let j = rng.gen_range(0..=i);
            shuffled.swap(i, j);
        }
        let rest = shuffled.split_off(n_train);
        let train_nodes = shuffled;

        // ---- Ground truth + plan timing on the training nodes ------
        let strategies = [
            Strategy::Optimistic { super_cap: Some(self.config.super_cap) },
            Strategy::Pessimistic,
        ];
        // One node's row, from its sample index alone (the scatter
        // contract), so the rows are the same at every worker count.
        let train_node = |m: &mut PsiMatcher, i: usize, row: &mut TrainRow, _: &dyn Recorder| {
            let u = train_nodes[i];
            row.cost = NodeCost::default();
            row.times.clear();
            // True type via the exact pessimist (§4.2.1: "more stable
            // and performs better on average"), isolated and retried
            // so one broken training node cannot fail the query.
            let (truth_verdict, s_truth) =
                match self.settle_exact(&ctx, &heuristic, m, u, spec, &mut row.cost) {
                    Exact::Settled(v, s) => (v, s),
                    // Only the global deadline/cancel — not a node
                    // fault — aborts training.
                    Exact::Stopped => {
                        row.truth = TrainTruth::Stopped;
                        return;
                    }
                    Exact::Failed { reason, attempts } => {
                        row.truth = TrainTruth::Failed { reason, attempts };
                        return;
                    }
                };
            let is_valid = truth_verdict == Verdict::Valid;
            let method_idx = !is_valid as usize; // 0 = optimistic (valid), 1 = pessimistic
            // Best plan under escalating limits (§4.2.2). Bounded:
            // past MAX_PLAN_ESCALATIONS doublings (or when every plan
            // panics, which no budget can fix) the node falls back to
            // the heuristic order instead of looping.
            const MAX_PLAN_ESCALATIONS: u32 = 20;
            let strategy = strategies[method_idx];
            let mut limit = self.config.initial_plan_limit;
            let mut first_round = true;
            let mut rounds = 0u32;
            let best_plan = loop {
                let mut best: Option<(u64, usize)> = None;
                let mut any_interrupted = false;
                for (pi, plan) in plans.iter().enumerate() {
                    // The ground-truth run above already timed the
                    // pessimistic method on the heuristic plan
                    // (plans[0] starts as the heuristic order); reuse
                    // it instead of re-evaluating.
                    let outcome = if first_round && pi == 0 && method_idx == 1 {
                        Some((truth_verdict, s_truth)) // reuse, costs nothing extra
                    } else {
                        let lim = stage_limits(limit, limits);
                        match eval_isolated(m, &ctx, plan, u, strategy, &lim, isolate) {
                            IsolatedOutcome::Finished(v, s) => {
                                row.cost.steps += s;
                                Some((v, s))
                            }
                            IsolatedOutcome::Panicked(_) => {
                                row.cost.panics_recovered += 1;
                                None
                            }
                        }
                    };
                    match outcome {
                        Some((v, s)) if v != Verdict::Interrupted => {
                            row.times.push((pi, s));
                            if best.is_none_or(|(bs, _)| s < bs) {
                                best = Some((s, pi));
                            }
                        }
                        Some(_) => any_interrupted = true,
                        None => {}
                    }
                }
                rounds += 1;
                match best {
                    Some((_, pi)) => break pi,
                    None => {
                        if limits.expired() {
                            // The interruptions were the global limits,
                            // not the escalating step cap: doubling the
                            // cap would loop forever.
                            row.truth = TrainTruth::Stopped;
                            return;
                        }
                        if !any_interrupted || rounds > MAX_PLAN_ESCALATIONS {
                            break 0;
                        }
                        row.cost.escalations += 1;
                        limit = limit.saturating_mul(2);
                        first_round = false;
                    }
                }
            };
            row.truth = TrainTruth::Labeled { valid: is_valid, best_plan };
        };

        // Fold the rows in sample order; the first global stop ends
        // training, as the stopped node's own run did.
        let mut valid = Vec::new();
        let mut steps = 0u64;
        let mut failures = FailureReport::default();
        // avg_steps[method][plan] from training runs.
        let mut sum_steps = vec![vec![0u64; plans.len()]; 2];
        let mut cnt_steps = vec![vec![0u64; plans.len()]; 2];
        let mut alpha_rows: Vec<(NodeId, usize)> = Vec::with_capacity(n_train);
        let mut beta_rows: Vec<(NodeId, usize)> = Vec::with_capacity(n_train);
        let mut stopped = false;
        let fold = |i: usize, row: &mut TrainRow| {
            let u = train_nodes[i];
            steps += row.cost.steps;
            failures.panics_recovered += row.cost.panics_recovered;
            failures.escalations += row.cost.escalations;
            match std::mem::take(&mut row.truth) {
                TrainTruth::Stopped => {
                    stopped = true;
                    return ControlFlow::Break(());
                }
                TrainTruth::Failed { reason, attempts } => failures.record(u, reason, attempts),
                TrainTruth::Labeled { valid: is_valid, best_plan } => {
                    if is_valid {
                        valid.push(u);
                    }
                    let method_idx = !is_valid as usize;
                    for &(pi, s) in &row.times {
                        sum_steps[method_idx][pi] += s;
                        cnt_steps[method_idx][pi] += 1;
                    }
                    alpha_rows.push((u, is_valid as usize));
                    beta_rows.push((u, best_plan));
                }
            }
            ControlFlow::Continue(())
        };
        scatter_map(train_nodes.len(), workers, rec, || self.matcher(spec), train_node, fold);
        if stopped {
            return TrainOutcome::Interrupted { steps, failures };
        }

        // ---- Fit the models -----------------------------------------
        // When every training node failed no model can be fitted: the
        // session keeps training's steps and faults, and the exact plan
        // covers `rest`.
        let models = (!alpha_rows.is_empty()).then(|| {
            // Feature vector = the signature row plus the stage-1
            // satisfiability score against the pivot's query signature —
            // the same score the batched prefilter sweep hands the
            // predictor at evaluation time (bitwise-equal per the batch
            // parity tests), so training and inference share one feature
            // map.
            let dim = self.sigs.label_count() + 1;
            let pivot_row = ctx.signatures().row(query.pivot());
            // One reusable row buffer: a no-op view for dense storage, the
            // dequantization target for compact storage.
            let mut row_buf = Vec::new();
            let mut feat = Vec::with_capacity(dim);
            let mut dataset = |rows: &[(NodeId, usize)]| {
                let mut ds = Dataset::with_capacity(dim, rows.len());
                for &(u, label) in rows {
                    feat.clear();
                    feat.extend_from_slice(self.sigs.row_view(u, &mut row_buf));
                    feat.push(self.sigs.row_score(u, pivot_row));
                    ds.push(&feat, label);
                }
                ds
            };
            let alpha_ds = dataset(&alpha_rows);
            let beta_ds = (self.config.enable_beta && plans.len() > 1).then(|| dataset(&beta_rows));
            // Both forests' bootstrap samples are drawn here, in the
            // seed order of two sequential fits; their trees are then
            // grown as one batch, α's first.
            let forest = RandomForest::new(self.config.forest);
            let alpha_fit = forest.bootstrap(&alpha_ds, rng.gen());
            let beta_fit = beta_ds.as_ref().map(|ds| forest.bootstrap(ds, rng.gen()));
            let fits: Vec<&ForestFit<'_>> = std::iter::once(&alpha_fit).chain(&beta_fit).collect();
            let n = self.config.forest.n_trees;
            let mut trees = Vec::with_capacity(fits.len() * n);
            scatter_map(
                fits.len() * n,
                workers,
                rec,
                || (),
                |_, i, tree: &mut Option<DecisionTree>, _| *tree = Some(fits[i / n].tree(i % n)),
                |_, tree| {
                    trees.extend(tree.take());
                    ControlFlow::Continue(())
                },
            );
            let beta_trees = trees.split_off(n);
            let alpha = alpha_fit.finish(trees);
            let beta = beta_fit.map(|fit| fit.finish(beta_trees));

            let global_avg = {
                let total: u64 = sum_steps.iter().flatten().sum();
                let cnt: u64 = cnt_steps.iter().flatten().sum();
                match total.checked_div(cnt) {
                    None => self.config.initial_plan_limit,
                    Some(avg) => avg.max(16),
                }
            };
            Models {
                plans,
                strategies,
                alpha,
                beta,
                sum_steps,
                cnt_steps,
                global_avg,
            }
        });
        // Failed training nodes are accounted in `failures`, not as
        // trained (keeps `trained + stages + failed + unresolved ==
        // candidates` exact).
        let n_trained = n_train - failures.len();
        rec.add(Counter::TrainedNodes, n_trained as u64);
        rec.add(Counter::Steps, steps);
        TrainOutcome::Trained(Box::new(TrainedSession {
            ctx,
            heuristic,
            models,
            train_valid: valid,
            train_steps: steps,
            n_train: n_trained,
            rest,
            total_candidates,
            training_and_prediction: t_setup.elapsed(),
            failures,
        }))
    }
}

#[cfg(test)]
mod tests {
    use psi_obs::Counter;

    use crate::smart::{RunSpec, SmartPsi};
    use crate::{PsiResult, SmartPsiConfig};

    fn counter(r: &PsiResult, c: Counter) -> u64 {
        r.profile.as_ref().expect("run always attaches a profile").counter(c)
    }

    #[test]
    fn ml_path_matches_oracle_on_generated_graph() {
        let g = psi_datasets::generators::erdos_renyi(400, 1600, 4, 3);
        let cfg = SmartPsiConfig {
            min_candidates_for_ml: 10, // force the ML path
            ..SmartPsiConfig::default()
        };
        let smart = SmartPsi::new(g.clone(), cfg);
        for size in 3..=5usize {
            let Some(q) = psi_datasets::rwr::extract_query_seeded(&g, size, size as u64 * 13) else {
                continue;
            };
            let oracle = psi_match::psi_by_enumeration(
                &psi_match::Engine::TurboIso,
                &g,
                &q,
                &psi_match::SearchBudget::unlimited(),
            );
            let r = smart.run(&q, &RunSpec::new());
            assert_eq!(r.valid, oracle.valid, "size {size}");
            assert!(counter(&r, Counter::TrainedNodes) > 0, "ML path must engage");
            assert_eq!(r.unresolved, 0, "SmartPSI always resolves");
        }
    }
}
