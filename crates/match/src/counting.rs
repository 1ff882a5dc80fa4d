//! Embedding counting and enumeration-based PSI — the "existing
//! applications" strategy the paper argues against (§1, Table 1): run
//! full subgraph isomorphism, then project the distinct bindings of the
//! pivot node.

use psi_graph::{Graph, NodeId, PivotedQuery};

use crate::budget::{BudgetOutcome, SearchBudget};
use crate::common::{MatchStats, SubgraphMatcher};
use crate::turboiso::TurboIso;

/// The answer to a PSI query: all distinct data nodes that bind the
/// pivot in at least one embedding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PsiAnswer {
    /// Sorted, distinct valid nodes.
    pub valid: Vec<NodeId>,
    /// Search steps spent.
    pub steps: u64,
    /// Whether the evaluation completed (`valid` is exact) or was
    /// censored by the budget (`valid` is a lower bound).
    pub outcome: BudgetOutcome,
}

impl PsiAnswer {
    /// Number of valid nodes.
    pub fn count(&self) -> usize {
        self.valid.len()
    }

    /// Whether `node` is in the answer.
    pub fn contains(&self, node: NodeId) -> bool {
        self.valid.binary_search(&node).is_ok()
    }
}

/// Count all embeddings of `q` in `g` with the default engine
/// (TurboIso), within `budget`.
pub fn count_embeddings(g: &Graph, q: &Graph, budget: &SearchBudget) -> (u64, MatchStats) {
    TurboIso::default().count(g, q, budget)
}

/// Evaluate a PSI query the way subgraph-isomorphism-based applications
/// do: enumerate *all* embeddings with `engine` and collect the
/// distinct pivot bindings. This is the expensive strategy Table 1
/// quantifies; [`crate::turboiso::turboiso_plus_psi`] and the psi-core
/// evaluators exist to beat it.
pub fn psi_by_enumeration<M: SubgraphMatcher>(
    engine: &M,
    g: &Graph,
    query: &PivotedQuery,
    budget: &SearchBudget,
) -> PsiAnswer {
    let pivot = query.pivot() as usize;
    let mut seen = vec![false; g.node_count()];
    let mut valid = Vec::new();
    let stats = engine.enumerate(g, query.graph(), budget, &mut |e| {
        let u = e[pivot];
        if !seen[u as usize] {
            seen[u as usize] = true;
            valid.push(u);
        }
        true
    });
    valid.sort_unstable();
    PsiAnswer {
        valid,
        steps: stats.steps,
        outcome: stats.outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ullmann::Ullmann;
    use crate::vf2::Vf2;
    use psi_graph::builder::graph_from;

    /// The running example of the paper (Figure 1): the path query
    /// S(v1(A) - v2(B) - v3(C)) has few embeddings in G but only 2
    /// distinct pivot bindings (u1, u6).
    ///
    /// Note: the paper lists 5 embeddings, omitting (u6, u5, u4) — but
    /// that omission is inconsistent with its own list, since it
    /// accepts both (u1, u5, u4) (edge u5-u4 exists) and (u6, u5, u3)
    /// (edge u6-u5 exists), which together force (u6, u5, u4) to be an
    /// embedding too. The correct count on the Figure 1 graph is 6;
    /// the PSI answer {u1, u6} is unaffected.
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
    fn figure1_embedding_count() {
        let (g, q) = figure1();
        let (n, _) = count_embeddings(&g, q.graph(), &SearchBudget::unlimited());
        assert_eq!(n, 6); // see fixture doc: the paper's "5" omits one
    }

    #[test]
    fn figure1_psi_answer_is_u1_u6() {
        let (g, q) = figure1();
        for ans in [
            psi_by_enumeration(&Ullmann, &g, &q, &SearchBudget::unlimited()),
            psi_by_enumeration(&Vf2, &g, &q, &SearchBudget::unlimited()),
            psi_by_enumeration(&TurboIso::default(), &g, &q, &SearchBudget::unlimited()),
            psi_by_enumeration(&crate::cfl::CflMatch, &g, &q, &SearchBudget::unlimited()),
        ] {
            assert_eq!(ans.valid, vec![0, 5]);
            assert_eq!(ans.count(), 2);
            assert!(ans.contains(0));
            assert!(!ans.contains(3));
            assert_eq!(ans.outcome, BudgetOutcome::Completed);
        }
    }

    #[test]
    fn psi_projects_duplicates_once() {
        // Hub with 3 leaves: many embeddings, one pivot binding.
        let g = graph_from(&[0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let q = PivotedQuery::from_parts(&[0, 1, 1], &[(0, 1), (0, 2)], 0).unwrap();
        let (n, _) = count_embeddings(&g, q.graph(), &SearchBudget::unlimited());
        assert_eq!(n, 6);
        let ans = psi_by_enumeration(&TurboIso::default(), &g, &q, &SearchBudget::unlimited());
        assert_eq!(ans.valid, vec![0]);
    }

    #[test]
    fn censored_answer_reports_exhaustion() {
        let mut edges = Vec::new();
        for u in 0..12u32 {
            for v in (u + 1)..12 {
                edges.push((u, v));
            }
        }
        let g = graph_from(&[0; 12], &edges).unwrap();
        let q = PivotedQuery::from_parts(&[0, 0, 0], &[(0, 1), (1, 2)], 0).unwrap();
        let ans = psi_by_enumeration(&Vf2, &g, &q, &SearchBudget::steps(8));
        assert_eq!(ans.outcome, BudgetOutcome::Exhausted);
    }
}
