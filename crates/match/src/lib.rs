//! # psi-match
//!
//! Subgraph-isomorphism engines: the competitors SmartPSI is evaluated
//! against in §5.2 of the paper, plus shared matching infrastructure.
//!
//! * [`ullmann`] — the classic backtracking algorithm (Ullmann 1976),
//!   with label/degree candidate refinement. Simple, slow; mostly a
//!   readable reference and test oracle.
//! * [`vf2`] — VF2 (Cordella et al.) with its connectivity-aware
//!   feasibility rules; the second oracle.
//! * [`turboiso`] — TurboIso (Han et al., SIGMOD 2013): degree/label
//!   ranked start vertex, per-region exploration, adaptive matching
//!   order. Includes **TurboIso⁺**, the paper's pivot-aware
//!   modification that seeds the search at pivot candidates and stops
//!   per candidate after the first embedding.
//! * [`cfl`] — CFL-Match (Bi et al., SIGMOD 2016): core-forest-leaf
//!   query decomposition with a BFS-tree candidate-space index and
//!   postponed Cartesian products.
//! * [`counting`] — exhaustive embedding counting and enumeration-based
//!   PSI (find all embeddings, project distinct pivot bindings), used
//!   for Table 1 and as ground truth everywhere.
//!
//! All engines implement [`SubgraphMatcher`] and share exact semantics:
//! injective mappings that preserve node labels, edge presence and edge
//! labels (Definition 2.2; standard non-induced subgraph isomorphism).
//!
//! ```
//! use psi_graph::{builder::graph_from, PivotedQuery};
//! use psi_match::{Engine, SubgraphMatcher, SearchBudget};
//!
//! let g = graph_from(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3)]).unwrap();
//! let q = PivotedQuery::from_parts(&[0, 1], &[(0, 1)], 0).unwrap();
//! let embeddings = Engine::Vf2.find_all(&g, q.graph(), &SearchBudget::unlimited());
//! assert_eq!(embeddings.embeddings.len(), 3); // (0,1), (2,1), (2,3)
//! ```

#![warn(missing_docs)]

pub mod budget;
pub mod cfl;
pub mod common;
pub mod counting;
pub mod graphql;
pub mod turboiso;
pub mod ullmann;
pub mod vf2;

pub use budget::{BudgetOutcome, SearchBudget};
pub use common::{EnumerationResult, Embedding, MatchStats, PanicIsolated, SubgraphMatcher};
pub use counting::{count_embeddings, psi_by_enumeration};

use psi_graph::Graph;

/// Engine selector covering every implemented matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Ullmann-style backtracking.
    Ullmann,
    /// VF2.
    Vf2,
    /// GraphQL.
    GraphQl,
    /// TurboIso.
    TurboIso,
    /// CFL-Match.
    CflMatch,
}

impl Engine {
    /// All engines, for oracle tests.
    pub const ALL: [Engine; 5] = [
        Engine::Ullmann,
        Engine::Vf2,
        Engine::GraphQl,
        Engine::TurboIso,
        Engine::CflMatch,
    ];

    /// Human-readable name as used in the paper's plots.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Ullmann => "Ullmann",
            Engine::Vf2 => "VF2",
            Engine::GraphQl => "GraphQL",
            Engine::TurboIso => "TurboIso",
            Engine::CflMatch => "CFL-Match",
        }
    }
}

impl SubgraphMatcher for Engine {
    fn find_all(&self, g: &Graph, q: &Graph, budget: &SearchBudget) -> EnumerationResult {
        match self {
            Engine::Ullmann => ullmann::Ullmann.find_all(g, q, budget),
            Engine::Vf2 => vf2::Vf2.find_all(g, q, budget),
            Engine::GraphQl => graphql::GraphQl::default().find_all(g, q, budget),
            Engine::TurboIso => turboiso::TurboIso::default().find_all(g, q, budget),
            Engine::CflMatch => cfl::CflMatch.find_all(g, q, budget),
        }
    }
}
