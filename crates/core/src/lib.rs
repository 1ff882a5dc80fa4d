//! # psi-core
//!
//! The paper's contribution: dedicated Pivoted Subgraph Isomorphism
//! evaluation (§3–§4 of *"Pivoted Subgraph Isomorphism: The Optimist,
//! the Pessimist and the Realist"*, EDBT 2019).
//!
//! A PSI query asks for the distinct data nodes that can bind a query's
//! pivot node. Instead of enumerating all embeddings, this crate
//! evaluates each candidate node with one of two dedicated methods:
//!
//! * **The optimist** ([`Strategy::optimistic`]) — greedy depth-first
//!   search that sorts candidate extensions by *satisfiability score*
//!   (signature-guided) to reach a witness embedding quickly; great for
//!   valid nodes, wasteful for invalid ones. A *super-optimistic* first
//!   pass caps the candidates per level (paper: 10) to skip the sorting
//!   overhead when a match is easy.
//! * **The pessimist** ([`Strategy::pessimistic`]) — unguided search
//!   with aggressive signature pruning (Proposition 3.2) that proves
//!   invalid nodes fast, at extra per-node cost for valid ones.
//! * **The realist** ([`smart::SmartPsi`]) — the full SmartPSI system:
//!   a Random-Forest *node-type model* (α) picks the method per node, a
//!   *plan model* (β) picks a matching order per node, correct
//!   predictions are cached, and a *preemptive executor* detects
//!   mispredictions by budget timeout and recovers (§4.3).
//!
//! The §4.1 two-threaded baseline (run both methods in parallel, first
//! finisher wins) is included for Figure 9.
//!
//! **One run surface.** [`SmartPsi::run`](smart::SmartPsi::run) is the
//! only way into any executor — the realist's one driver (one worker
//! on the calling thread, or the work-stealing pool) and the
//! two-threaded baseline —
//! and its [`RunSpec`], read together with the
//! deployment's [`SmartPsiConfig`], is the only
//! per-run settings struct. The single-strategy runners in [`single`]
//! stay free functions over a borrowed graph for the apps and the
//! miner.
//!
//! ```
//! use psi_graph::{builder::graph_from, PivotedQuery};
//! use psi_core::{single::psi_with_strategy, Strategy};
//!
//! // Figure 1 of the paper.
//! let g = graph_from(
//!     &[0, 1, 2, 2, 1, 0],
//!     &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (3, 4), (2, 4), (4, 5)],
//! ).unwrap();
//! let q = PivotedQuery::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
//! let result = psi_with_strategy(&g, &q, Strategy::optimistic(), &Default::default());
//! assert_eq!(result.valid, vec![0, 5]); // u1 and u6
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod evaluator;
pub mod fault;
pub mod limits;
pub mod plan;
pub mod report;
pub mod single;
pub mod smart;
pub mod twothread;

pub use engine::context::GraphContext;
pub use engine::deploy::DeploymentSpec;
pub use engine::evolve::{EvolvingContext, UpdateError, UpdateReport};
pub use engine::exec::PredictionCache;
pub use engine::net::{NetServer, NetServerConfig};
pub use engine::service::{
    DrainReport, JobHandle, PsiService, ServiceStats, ABORTED_BY_SHUTDOWN_REASON,
    DEADLINE_EXPIRED_REASON, MAX_LIVE_SHAPES, QUERY_TOO_DEEP_REASON,
};
pub use evaluator::{NodeEvaluator, QueryContext, Verdict};
pub use fault::{
    install_quiet_panic_hook, ChaosMatcher, FaultKind, FaultPlan, NodeMatcher, PsiMatcher,
};
pub use limits::{EvalLimits, LimitTracker, POLL_INTERVAL};
pub use plan::{heuristic_plan, sample_plans, Plan};
pub use report::{FailureReport, NodeFailure, PsiResult, StageTimings};
pub use smart::{RunSpec, SmartPsi, SmartPsiConfig};

/// Signature-store backends (re-exported `psi-signature` surface): the
/// [`SignatureStore`] trait, the
/// [`SigStore`] enum every
/// [`GraphContext`] carries, and the [`SigStoreKind`] selector used by
/// [`SmartPsiConfig`] and [`DeploymentSpec::sig_store`].
pub use psi_signature::{SigStore, SigStoreKind, SignatureStore};

/// The observability subsystem (re-exported `psi-obs`): the
/// [`Recorder`](psi_obs::Recorder) seam, the
/// [`MetricsRecorder`](psi_obs::MetricsRecorder) registry, and the
/// [`QueryProfile`](psi_obs::QueryProfile) attached to every
/// [`SmartPsi::run`] result.
pub use psi_obs as obs;

/// One-stop imports for driving SmartPSI:
///
/// ```
/// use psi_core::prelude::*;
/// ```
pub mod prelude {
    pub use crate::engine::context::GraphContext;
    pub use crate::engine::deploy::DeploymentSpec;
    pub use crate::engine::evolve::{EvolvingContext, UpdateError, UpdateReport};
    pub use crate::engine::service::{DrainReport, JobHandle, PsiService, ServiceStats};
    pub use psi_graph::GraphUpdate;
    pub use crate::fault::FaultPlan;
    pub use crate::limits::EvalLimits;
    pub use crate::report::{FailureReport, PsiResult};
    pub use crate::smart::{RunSpec, SmartPsi, SmartPsiConfig};
    pub use crate::Strategy;
    pub use psi_obs::{MetricsRecorder, NoopRecorder, QueryProfile, Recorder};
    pub use psi_signature::{SigStore, SigStoreKind, SignatureStore};
}

/// Per-node evaluation strategy (the `T` flag of Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Greedy guided search; `cap` limits candidates per level when in
    /// the super-optimistic first pass.
    Optimistic {
        /// Candidate cap for the super-optimistic pass (`None`
        /// disables the pass).
        super_cap: Option<usize>,
    },
    /// Signature-pruned unguided search.
    Pessimistic,
}

impl Strategy {
    /// The paper's optimistic method with its default super-optimistic
    /// candidate cap of 10.
    pub fn optimistic() -> Self {
        Strategy::Optimistic { super_cap: Some(10) }
    }

    /// The optimistic method without the super-optimistic pass.
    pub fn plain_optimistic() -> Self {
        Strategy::Optimistic { super_cap: None }
    }

    /// The pessimistic method.
    pub fn pessimistic() -> Self {
        Strategy::Pessimistic
    }

    /// The opposite method, used by the preemptive executor's recovery
    /// path.
    pub fn opposite(self) -> Self {
        match self {
            Strategy::Optimistic { .. } => Strategy::Pessimistic,
            Strategy::Pessimistic => Strategy::optimistic(),
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Optimistic { .. } => "optimistic",
            Strategy::Pessimistic => "pessimistic",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_flips() {
        assert_eq!(Strategy::optimistic().opposite(), Strategy::Pessimistic);
        assert_eq!(
            Strategy::pessimistic().opposite(),
            Strategy::Optimistic { super_cap: Some(10) }
        );
    }

    #[test]
    fn names() {
        assert_eq!(Strategy::optimistic().name(), "optimistic");
        assert_eq!(Strategy::pessimistic().name(), "pessimistic");
    }
}
