//! Per-graph immutable state: the loaded CSR graph, its precomputed
//! signature matrix, and the deployment configuration.
//!
//! A [`GraphContext`] is built once per data graph (the expensive part
//! is the §3.1 matrix signature computation) and is then shared
//! read-only by every query, executor worker, and
//! [`PsiService`](super::service::PsiService) job — typically behind an
//! `Arc`. The public facade [`SmartPsi`](crate::SmartPsi) is a thin
//! wrapper around `Arc<GraphContext>`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use psi_graph::Graph;
use psi_ml::forest::ForestConfig;
use psi_signature::{default_scale, SigStore, SigStoreKind};

use crate::evaluator::NodeEvaluator;
use crate::fault::{FaultPlan, PsiMatcher};
use crate::smart::RunSpec;

/// SmartPSI configuration (defaults follow the paper).
#[derive(Debug, Clone)]
pub struct SmartPsiConfig {
    /// Signature propagation depth `D`.
    pub depth: u32,
    /// Fraction of candidates used for training ("around 10%").
    pub train_fraction: f64,
    /// Hard cap on training nodes ("up to a maximum value"; the
    /// experiments use 1000).
    pub max_train_nodes: usize,
    /// Skip ML below this many candidates (training would dominate);
    /// all nodes are then evaluated pessimistically.
    pub min_candidates_for_ml: usize,
    /// Number of execution plans sampled for Model β.
    pub plan_sample: usize,
    /// Candidate cap of the super-optimistic pass.
    pub super_cap: usize,
    /// Random-forest hyper-parameters for both models.
    pub forest: ForestConfig,
    /// Train and use Model β (false = heuristic plan everywhere; used
    /// by the ablation bench).
    pub enable_beta: bool,
    /// Use the prediction cache.
    pub enable_cache: bool,
    /// Use the preemptive executor (false = trust predictions and run
    /// without limits; used by the ablation bench).
    pub enable_recovery: bool,
    /// Initial step limit when timing candidate plans during training;
    /// doubled until at least one plan finishes (§4.2.2).
    pub initial_plan_limit: u64,
    /// RNG seed (training-sample selection, plan sampling, forests).
    pub seed: u64,
    /// Limited (budgeted) ladder attempts before the unlimited exact
    /// fallback: the predicted method first, then alternating with the
    /// opposite method, each budget double the last. The exact-pessimist
    /// routine (training's ground truth and an exact plan's survivors)
    /// makes at most `max_attempts + 1` attempts.
    pub max_attempts: u32,
    /// Optional wall-clock budget per candidate node. A node that
    /// cannot be resolved within it (even by the exact fallback) is
    /// reported in `FailureReport` instead of stalling the query.
    pub node_timeout: Option<Duration>,
    /// Wrap every per-node evaluation in `catch_unwind` so a panicking
    /// matcher fails one node, not the query. On by default; the
    /// robustness bench turns it off to measure the clean-path cost.
    pub panic_isolation: bool,
    /// Deterministic fault schedule for chaos drills and the
    /// fault-injection tests; `None` in production.
    pub fault: Option<Arc<FaultPlan>>,
    /// Signature storage backend. `Dense` (the default) keeps the
    /// bit-exact f32 matrix of the paper; the compact kinds trade it
    /// for a quantized index ~3–7× smaller with identical valid sets
    /// (see [`psi_signature::store`] for the exactness argument).
    pub sig_store: SigStoreKind,
}

impl Default for SmartPsiConfig {
    fn default() -> Self {
        Self {
            depth: psi_signature::DEFAULT_DEPTH,
            train_fraction: 0.10,
            max_train_nodes: 1000,
            min_candidates_for_ml: 40,
            plan_sample: 4,
            super_cap: 10,
            forest: ForestConfig::default(),
            enable_beta: true,
            enable_cache: true,
            enable_recovery: true,
            initial_plan_limit: 2_000,
            seed: 0x05aa_7951,
            max_attempts: 2,
            node_timeout: None,
            panic_isolation: true,
            fault: None,
            sig_store: SigStoreKind::Dense,
        }
    }
}

impl SmartPsiConfig {
    /// Preset matching the paper's *effective* training ratio on the
    /// web-scale datasets. The paper trains at most 1000 of roughly
    /// 450k candidates (~0.2%); our scaled-down YouTube/Twitter/Weibo
    /// have candidate sets two orders of magnitude smaller, so keeping
    /// `train_fraction = 0.10` would inflate the training share of the
    /// total far beyond anything the paper measured (see Table 4).
    /// This preset restores the paper's ratio at laptop scale.
    pub fn web_scale() -> Self {
        Self {
            train_fraction: 0.02,
            max_train_nodes: 120,
            plan_sample: 3,
            ..Self::default()
        }
    }
}

/// One data graph loaded for querying: the graph, all node signatures
/// precomputed with the matrix method (§3.1), and the deployment
/// configuration. Immutable after construction, so an
/// `Arc<GraphContext>` is freely shared across queries, executor
/// workers, and service threads.
pub struct GraphContext {
    pub(crate) g: Graph,
    pub(crate) sigs: SigStore,
    pub(crate) config: SmartPsiConfig,
    pub(crate) signature_build: Duration,
    /// Version of the evolving graph this snapshot was published at;
    /// `0` for a cold-loaded (static) deployment. Bumped by
    /// [`EvolvingContext`](super::evolve::EvolvingContext) on every
    /// applied update batch.
    pub(crate) epoch: u64,
}

impl GraphContext {
    /// Load a graph: precomputes all neighborhood signatures.
    pub fn new(g: Graph, config: SmartPsiConfig) -> Self {
        let t0 = Instant::now();
        let dense = psi_signature::matrix_signatures(&g, config.depth);
        // Quantization (when configured) is part of the index build:
        // the dense matrix is dropped right here, so peak residency of
        // a compact deployment is one matrix, not two.
        let sigs = SigStore::from_matrix(dense, config.sig_store, default_scale(config.depth));
        let signature_build = t0.elapsed();
        Self {
            g,
            sigs,
            config,
            signature_build,
            epoch: 0,
        }
    }

    /// Assemble a snapshot from precomputed parts (the evolving-graph
    /// publish path): `sigs` must equal `matrix_signatures(&g,
    /// config.depth)` bit-for-bit — the incremental maintainer
    /// guarantees exactly that — so queries against this context are
    /// indistinguishable from a cold [`GraphContext::new`] build.
    pub(crate) fn from_precomputed(
        g: Graph,
        sigs: SigStore,
        config: SmartPsiConfig,
        epoch: u64,
        signature_build: Duration,
    ) -> Self {
        debug_assert_eq!(sigs.node_count(), g.node_count());
        debug_assert_eq!(sigs.label_count(), g.label_count());
        Self {
            g,
            sigs,
            config,
            signature_build,
            epoch,
        }
    }

    /// The graph version this snapshot was published at (`0` for a
    /// static deployment).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The data graph.
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// Precomputed node signatures, behind the storage backend chosen
    /// by [`SmartPsiConfig::sig_store`]. Use [`SigStore::dense`] when
    /// raw f32 rows are required (the bit-exact repro paths).
    pub fn signatures(&self) -> &SigStore {
        &self.sigs
    }

    /// Rebuild this context on a different storage backend. Dense →
    /// compact re-quantizes the existing rows (no signature
    /// recomputation); compact → anything recomputes from the graph
    /// (saturated counters are not invertible).
    pub(crate) fn with_store_kind(&self, kind: SigStoreKind) -> Self {
        let t0 = Instant::now();
        let scale = default_scale(self.config.depth);
        let sigs = if kind == self.sigs.kind() {
            self.sigs.clone()
        } else if let Some(dense) = self.sigs.dense() {
            SigStore::from_matrix(dense.clone(), kind, scale)
        } else {
            let dense = psi_signature::matrix_signatures(&self.g, self.config.depth);
            SigStore::from_matrix(dense, kind, scale)
        };
        let mut config = self.config.clone();
        config.sig_store = kind;
        Self {
            g: self.g.clone(),
            sigs,
            config,
            signature_build: self.signature_build + t0.elapsed(),
            epoch: self.epoch,
        }
    }

    /// The configuration this deployment runs with.
    pub fn config(&self) -> &SmartPsiConfig {
        &self.config
    }

    /// Time spent building the signatures in [`GraphContext::new`].
    pub fn signature_build_time(&self) -> Duration {
        self.signature_build
    }

    /// A per-worker node matcher: the bare evaluator, chaos-wrapped
    /// when the run (or else the config) carries a fault schedule.
    pub(crate) fn matcher(&self, spec: &RunSpec) -> PsiMatcher<'_> {
        PsiMatcher::new(
            NodeEvaluator::from_store(&self.g, &self.sigs),
            spec.fault.as_ref().or(self.config.fault.as_ref()),
        )
    }

    /// Whether this run panic-isolates each per-node evaluation: the
    /// spec's override, else the config's.
    pub(crate) fn isolation(&self, spec: &RunSpec) -> bool {
        spec.panic_isolation.unwrap_or(self.config.panic_isolation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smart::{RunSpec, SmartPsi};

    #[test]
    fn signature_reuse_across_queries() {
        let g = psi_datasets::generators::erdos_renyi(200, 700, 4, 12);
        let smart = SmartPsi::new(g.clone(), SmartPsiConfig::default());
        assert!(smart.signatures().node_count() == g.node_count());
        assert!(smart.signature_build_time() > Duration::ZERO);
        // Two different queries reuse the same deployment.
        let q1 = psi_datasets::rwr::extract_query_seeded(&g, 3, 1).unwrap();
        let q2 = psi_datasets::rwr::extract_query_seeded(&g, 4, 2).unwrap();
        let _ = smart.run(&q1, &RunSpec::new());
        let _ = smart.run(&q2, &RunSpec::new());
    }

    #[test]
    fn context_is_shareable_across_facades() {
        let g = psi_datasets::generators::erdos_renyi(200, 700, 3, 5);
        let ctx = Arc::new(GraphContext::new(g.clone(), SmartPsiConfig::default()));
        let q = psi_datasets::rwr::extract_query_seeded(&g, 3, 4).unwrap();
        let a = SmartPsi::from_context(ctx.clone());
        let b = SmartPsi::from_context(ctx.clone());
        assert_eq!(a.run(&q, &RunSpec::new()), b.run(&q, &RunSpec::new()));
        assert!(Arc::ptr_eq(a.context(), b.context()));
    }
}
