//! Single-strategy PSI runners: Optimistic-only and Pessimistic-only
//! (the two non-adaptive competitors of Figure 10), plus the shared
//! candidate extraction.
//!
//! Both use the selectivity [`heuristic_plan`] for every node — the
//! paper: "the Pessimistic and Optimistic solutions use a
//! heuristic-based query evaluation plan".

use std::sync::Arc;

use psi_graph::{Graph, NodeId, PivotedQuery};
use psi_signature::SignatureMatrix;

use crate::evaluator::{NodeEvaluator, QueryContext, Verdict};
use crate::fault::{eval_isolated, FaultPlan, IsolatedOutcome, PsiMatcher};
use crate::limits::EvalLimits;
use crate::plan::heuristic_plan;
use crate::report::{FailureReport, PsiResult};
use crate::Strategy;

/// Options shared by the simple runners.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Signature propagation depth `D` (paper default 2).
    pub depth: u32,
    /// Per-node evaluation limits (unlimited by default — the simple
    /// runners are exact).
    pub limits: EvalLimits,
    /// Wrap each per-node evaluation in `catch_unwind` so a panicking
    /// node is recorded in the result's failure report instead of
    /// failing the sweep (default on).
    pub panic_isolation: bool,
    /// Deterministic fault schedule for chaos drills; `None` in
    /// production.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            depth: psi_signature::DEFAULT_DEPTH,
            limits: EvalLimits::unlimited(),
            panic_isolation: true,
            fault: None,
        }
    }
}

/// Candidate data nodes for a query pivot: same label, sufficient
/// degree.
pub fn pivot_candidates(g: &Graph, query: &PivotedQuery) -> Vec<NodeId> {
    let q = query.graph();
    let pivot = query.pivot();
    let deg = q.degree(pivot);
    g.nodes_with_label(query.pivot_label())
        .iter()
        .copied()
        .filter(|&u| g.degree(u) >= deg)
        .collect()
}

/// Evaluate a PSI query with one fixed strategy for every candidate
/// node, computing signatures on the fly.
pub fn psi_with_strategy(
    g: &Graph,
    query: &PivotedQuery,
    strategy: Strategy,
    options: &RunOptions,
) -> PsiResult {
    let sigs = psi_signature::matrix_signatures(g, options.depth);
    psi_with_strategy_presig(g, &sigs, query, strategy, options)
}

/// Same as [`psi_with_strategy`] but reusing precomputed data-graph
/// signatures (what a long-lived deployment does).
pub fn psi_with_strategy_presig(
    g: &Graph,
    sigs: &SignatureMatrix,
    query: &PivotedQuery,
    strategy: Strategy,
    options: &RunOptions,
) -> PsiResult {
    let ctx = QueryContext::new(query.clone(), options.depth);
    let plan = ctx.compile(&heuristic_plan(g, query));
    let mut matcher = PsiMatcher::new(NodeEvaluator::new(g, sigs), options.fault.as_ref());
    let candidates = pivot_candidates(g, query);
    let mut valid = Vec::new();
    let mut steps = 0u64;
    let mut unresolved = 0usize;
    let mut failures = FailureReport::default();
    for &u in &candidates {
        match eval_isolated(
            &mut matcher,
            &ctx,
            &plan,
            u,
            strategy,
            &options.limits,
            options.panic_isolation,
        ) {
            IsolatedOutcome::Finished(verdict, s) => {
                steps += s;
                match verdict {
                    Verdict::Valid => valid.push(u),
                    Verdict::Invalid => {}
                    Verdict::Interrupted => unresolved += 1,
                }
            }
            IsolatedOutcome::Panicked(reason) => {
                failures.panics_recovered += 1;
                failures.record(u, reason, 1);
            }
        }
    }
    valid.sort_unstable();
    failures.sort();
    PsiResult {
        valid,
        candidates: candidates.len(),
        steps,
        unresolved,
        failures,
        profile: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_graph::builder::graph_from;

    fn figure1() -> (Graph, PivotedQuery) {
        let g = graph_from(
            &[0, 1, 2, 2, 1, 0],
            &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (3, 4), (2, 4), (4, 5)],
        )
        .unwrap();
        let q = PivotedQuery::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        (g, q)
    }

    #[test]
    fn figure1_both_runners() {
        let (g, q) = figure1();
        let opt = psi_with_strategy(&g, &q, Strategy::optimistic(), &RunOptions::default());
        let pes = psi_with_strategy(&g, &q, Strategy::pessimistic(), &RunOptions::default());
        assert_eq!(opt.valid, vec![0, 5]);
        assert_eq!(pes.valid, vec![0, 5]);
        assert_eq!(opt.candidates, 2); // two label-A nodes
        assert_eq!(opt.unresolved, 0);
        assert_eq!(pes.unresolved, 0);
    }

    #[test]
    fn candidates_respect_degree_filter() {
        // Pivot needs degree ≥ 2; node 5 (degree 1) is not a candidate.
        let (g, _) = figure1();
        let q = PivotedQuery::from_parts(&[0, 1, 2], &[(0, 1), (0, 2)], 0).unwrap();
        let c = pivot_candidates(&g, &q);
        assert_eq!(c, vec![0]);
    }

    #[test]
    fn unresolved_counted_under_tight_limits() {
        let (g, q) = figure1();
        let opts = RunOptions {
            limits: EvalLimits::steps(1),
            ..RunOptions::default()
        };
        let r = psi_with_strategy(&g, &q, Strategy::plain_optimistic(), &opts);
        assert!(r.unresolved > 0);
    }

    #[test]
    fn agrees_with_oracle_on_generated_data() {
        let g = psi_datasets::generators::erdos_renyi(120, 420, 4, 5);
        for size in 3..=5usize {
            let Some(q) = psi_datasets::rwr::extract_query_seeded(&g, size, size as u64 * 31) else {
                continue;
            };
            let oracle = psi_match::psi_by_enumeration(
                &psi_match::Engine::TurboIso,
                &g,
                &q,
                &psi_match::SearchBudget::unlimited(),
            );
            let opt = psi_with_strategy(&g, &q, Strategy::optimistic(), &RunOptions::default());
            let pes = psi_with_strategy(&g, &q, Strategy::pessimistic(), &RunOptions::default());
            assert_eq!(opt.valid, oracle.valid, "optimistic, size {size}");
            assert_eq!(pes.valid, oracle.valid, "pessimistic, size {size}");
        }
    }
}
