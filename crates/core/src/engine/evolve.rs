//! Evolving-graph deployments: copy-on-write, epoch-numbered
//! [`GraphContext`] snapshots over an incrementally-maintained
//! signature matrix.
//!
//! The paper's SmartPSI assumes a frozen data graph; the serving
//! scenario it motivates (§5's web-scale workloads) does not. An
//! [`EvolvingContext`] owns the mutable half of a deployment — a
//! [`DynamicGraph`] plus [`IncrementalSignatures`] — and publishes
//! immutable `Arc<GraphContext>` snapshots:
//!
//! * **Copy-on-write.** Queries only ever see a published snapshot.
//!   Applying a batch repairs the signature rows inside the update's
//!   `D−1` ball (see `psi-signature`'s incremental module), then
//!   builds a *fresh* CSR snapshot + trimmed matrix and swaps it in.
//!   In-flight jobs keep their old `Arc` — a consistent view — while
//!   new jobs see the new epoch.
//! * **Epoch numbering.** Every publish bumps [`EvolvingContext::epoch`]
//!   and stamps it on the snapshot ([`GraphContext::epoch`]). The
//!   service keys its cross-query prediction caches by
//!   `(epoch, query shape)`, so a pre-update cache entry can never
//!   drive a post-update evaluation.
//! * **Bit-identity.** The incremental repair replays the batch
//!   recurrence op-for-op, so a published snapshot is bit-identical to
//!   a cold [`GraphContext::new`] over the same graph — and therefore
//!   every query answer (valid set, steps, counters) matches a cold
//!   engine exactly. `crates/core/tests/evolving.rs` holds the
//!   differential suite.
//! * **Lazy refit.** `TrainedSession` models are fit per query against
//!   the snapshot a job captured (see [`super::training`]); nothing
//!   trained against an old epoch survives into a new one, and no
//!   eager retraining happens at update time.

use std::sync::Arc;
use std::time::Instant;

use psi_graph::dynamic::DynamicGraph;
use psi_graph::{Graph, GraphError, GraphUpdate};
use psi_obs::{span, Counter, Phase, Recorder};
use psi_signature::{IncrementalSignatures, SignatureMatrix};

use super::context::{GraphContext, SmartPsiConfig};

/// What one applied update batch did (see [`EvolvingContext::apply`]
/// and [`PsiService::apply_update`](crate::PsiService::apply_update)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateReport {
    /// The epoch the batch published (monotonic, starts at 1).
    pub epoch: u64,
    /// Nodes appended.
    pub nodes_added: usize,
    /// Edges newly inserted.
    pub edges_added: usize,
    /// Edge updates that were no-ops (edge already existed).
    pub duplicate_edges: usize,
    /// Signature rows recomputed by the incremental repair.
    pub rows_repaired: usize,
}

/// Why an update could not be applied.
#[derive(Debug)]
pub enum UpdateError {
    /// The service was deployed static (a
    /// [`SmartPsi::deploy`](crate::SmartPsi::deploy) without
    /// [`DeploymentSpec::evolving`](crate::DeploymentSpec::evolving));
    /// it has no mutable graph to update.
    StaticDeployment,
    /// The batch itself was invalid; the graph and its signatures are
    /// unchanged (batches apply atomically).
    Graph(GraphError),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::StaticDeployment => {
                write!(
                    f,
                    "this deployment is static: deploy with DeploymentSpec::evolving to apply \
                     updates"
                )
            }
            UpdateError::Graph(e) => write!(f, "invalid update batch: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UpdateError::Graph(e) => Some(e),
            UpdateError::StaticDeployment => None,
        }
    }
}

impl From<GraphError> for UpdateError {
    fn from(e: GraphError) -> Self {
        UpdateError::Graph(e)
    }
}

/// The mutable side of an evolving deployment; publishes immutable
/// epoch-numbered [`GraphContext`] snapshots.
///
/// ```
/// use psi_core::{EvolvingContext, RunSpec, SmartPsi, SmartPsiConfig};
/// use psi_graph::GraphUpdate;
///
/// let g = psi_datasets::generators::erdos_renyi(300, 1000, 3, 7);
/// let q = psi_datasets::rwr::extract_query_seeded(&g, 4, 1).unwrap();
/// let mut ev = EvolvingContext::new(g, SmartPsiConfig::default(), 4);
/// let before = SmartPsi::from_context(ev.current()).run(&q, &RunSpec::new());
/// let report = ev
///     .apply(&[GraphUpdate::AddNode { label: 2 }, GraphUpdate::AddEdge { u: 300, v: 0, label: 0 }])
///     .unwrap();
/// assert_eq!(report.epoch, 1);
/// // The new snapshot answers like a cold engine over the new graph;
/// // the one captured before the update still serves the old view.
/// let after = SmartPsi::from_context(ev.current()).run(&q, &RunSpec::new());
/// assert_eq!(ev.current().graph().node_count(), 301);
/// # let _ = (before, after);
/// ```
pub struct EvolvingContext {
    inc: IncrementalSignatures,
    config: SmartPsiConfig,
    epoch: u64,
    current: Arc<GraphContext>,
}

impl EvolvingContext {
    /// Deploy `g` for evolution. `label_capacity` fixes the signature
    /// label space for the deployment's lifetime (updates may
    /// introduce labels up to it); it is clamped up to the graph's
    /// existing label count.
    pub fn new(g: Graph, config: SmartPsiConfig, label_capacity: usize) -> Self {
        Self::build(g, config, label_capacity, None)
    }

    /// Upgrade an already-loaded static context to an evolving
    /// deployment, reusing its signatures as the maintainer's seed
    /// where possible (dense rows seed directly; a compact context has
    /// no f32 truth left, so the maintainer recomputes it once).
    /// `store` overrides the context's signature-store backend for the
    /// published snapshots; the f32 maintenance substrate is kept
    /// either way.
    pub(crate) fn from_context(
        ctx: &GraphContext,
        label_capacity: usize,
        store: Option<psi_signature::SigStoreKind>,
    ) -> Self {
        let mut config = ctx.config().clone();
        if let Some(k) = store {
            config.sig_store = k;
        }
        Self::build(
            ctx.graph().clone(),
            config,
            label_capacity,
            ctx.signatures().dense(),
        )
    }

    fn build(
        g: Graph,
        config: SmartPsiConfig,
        label_capacity: usize,
        seed: Option<&SignatureMatrix>,
    ) -> Self {
        let capacity = label_capacity.max(g.label_count());
        let t0 = Instant::now();
        let dyng = DynamicGraph::from_graph(&g);
        let inc = match seed {
            Some(m) => IncrementalSignatures::from_precomputed(
                dyng,
                config.depth,
                capacity,
                m,
                config.sig_store,
            ),
            None => IncrementalSignatures::with_store(dyng, config.depth, capacity, config.sig_store),
        };
        // Epoch 0 reuses the caller's CSR directly; the maintainer's
        // initial matrix came from the same batch build, so trimming
        // its capacity padding reproduces it bit-for-bit.
        let sigs = inc.store().truncated_store(g.label_count());
        let current = Arc::new(GraphContext::from_precomputed(
            g,
            sigs,
            config.clone(),
            0,
            t0.elapsed(),
        ));
        Self {
            inc,
            config,
            epoch: 0,
            current,
        }
    }

    /// The currently published snapshot. Cheap (`Arc` clone); holders
    /// keep a consistent view across later updates.
    pub fn current(&self) -> Arc<GraphContext> {
        self.current.clone()
    }

    /// The epoch of the currently published snapshot (0 until the
    /// first update).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The live mutable graph behind the snapshots.
    pub fn graph(&self) -> &DynamicGraph {
        self.inc.graph()
    }

    /// Apply one update batch and publish the next epoch.
    ///
    /// Batches are atomic: on `Err` nothing changed and no epoch was
    /// published. A batch of only duplicates still publishes (epoch
    /// numbering stays in lockstep with accepted batches).
    pub fn apply(&mut self, updates: &[GraphUpdate]) -> Result<UpdateReport, GraphError> {
        self.apply_recorded(updates, &psi_obs::NoopRecorder)
    }

    /// [`EvolvingContext::apply`] under a [`Phase::GraphUpdate`] span,
    /// counting [`Counter::RowsRepaired`] and
    /// [`Counter::EpochsPublished`] into `rec`.
    pub fn apply_recorded(
        &mut self,
        updates: &[GraphUpdate],
        rec: &dyn Recorder,
    ) -> Result<UpdateReport, GraphError> {
        let (report, ctx) = span!(rec, Phase::GraphUpdate, {
            let stats = self.inc.apply_batch(updates)?;
            self.epoch += 1;
            let ctx = self.publish();
            (
                UpdateReport {
                    epoch: self.epoch,
                    nodes_added: stats.nodes_added,
                    edges_added: stats.edges_added,
                    duplicate_edges: stats.duplicate_edges,
                    rows_repaired: stats.rows_repaired,
                },
                ctx,
            )
        });
        self.current = Arc::new(ctx);
        rec.add(Counter::RowsRepaired, report.rows_repaired as u64);
        rec.add(Counter::EpochsPublished, 1);
        Ok(report)
    }

    /// Freeze the live graph into the next immutable snapshot: CSR
    /// rebuild plus one row-trim copy of the maintained (capacity-
    /// padded) matrix down to the snapshot's label space. `O(|V|·|L| +
    /// |E|)` per publish — the signature *content* is already repaired
    /// incrementally, which is where the asymptotic win lives
    /// (`BENCH_dynamic.json` prices it).
    fn publish(&self) -> GraphContext {
        let t0 = Instant::now();
        let snapshot = self.inc.graph().snapshot();
        let sigs = self.inc.store().truncated_store(snapshot.label_count());
        GraphContext::from_precomputed(snapshot, sigs, self.config.clone(), self.epoch, t0.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smart::{RunSpec, SmartPsi};

    fn base() -> (Graph, SmartPsiConfig) {
        let g = psi_datasets::generators::erdos_renyi(200, 700, 3, 21);
        let cfg = SmartPsiConfig {
            min_candidates_for_ml: 10,
            ..SmartPsiConfig::default()
        };
        (g, cfg)
    }

    #[test]
    fn initial_snapshot_matches_cold_context_bitwise() {
        let (g, cfg) = base();
        let ev = EvolvingContext::new(g.clone(), cfg.clone(), 8);
        let cold = GraphContext::new(g, cfg);
        assert_eq!(ev.current().epoch(), 0);
        assert_eq!(
            ev.current().signatures().dense().unwrap().as_flat(),
            cold.signatures().dense().unwrap().as_flat()
        );
    }

    #[test]
    fn published_snapshot_matches_cold_context_bitwise_after_updates() {
        let (g, cfg) = base();
        let mut ev = EvolvingContext::new(g, cfg.clone(), 8);
        let report = ev
            .apply(&[
                GraphUpdate::AddNode { label: 7 },
                GraphUpdate::AddEdge { u: 200, v: 3, label: 0 },
                GraphUpdate::AddEdge { u: 5, v: 9, label: 0 },
            ])
            .unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.nodes_added, 1);
        let cold = GraphContext::new(ev.current().graph().clone(), cfg);
        // The new label widened the snapshot's label space; the
        // trimmed publish must still be bit-identical to cold.
        assert_eq!(ev.current().graph().label_count(), 8);
        assert_eq!(
            ev.current().signatures().dense().unwrap().as_flat(),
            cold.signatures().dense().unwrap().as_flat()
        );
        assert_eq!(ev.current().epoch(), 1);
    }

    #[test]
    fn inflight_arcs_keep_the_old_view() {
        let (g, cfg) = base();
        let mut ev = EvolvingContext::new(g, cfg, 4);
        let old = ev.current();
        ev.apply(&[GraphUpdate::AddNode { label: 1 }]).unwrap();
        assert_eq!(old.epoch(), 0);
        assert_eq!(old.graph().node_count(), 200, "published snapshots are immutable");
        assert_eq!(ev.current().graph().node_count(), 201);
        assert!(!Arc::ptr_eq(&old, &ev.current()));
    }

    #[test]
    fn failed_batch_publishes_nothing() {
        let (g, cfg) = base();
        let mut ev = EvolvingContext::new(g, cfg, 4);
        let before = ev.current();
        let err = ev.apply(&[GraphUpdate::AddEdge { u: 0, v: 9999, label: 0 }]);
        assert!(err.is_err());
        assert_eq!(ev.epoch(), 0);
        assert!(Arc::ptr_eq(&before, &ev.current()));
    }

    #[test]
    fn evolved_run_equals_from_scratch_engine() {
        let (g, cfg) = base();
        let q = psi_datasets::rwr::extract_query_seeded(&g, 4, 3).unwrap();
        let mut ev = EvolvingContext::new(g, cfg.clone(), 4);
        for seed in 0..3u32 {
            ev.apply(&[GraphUpdate::AddEdge {
                u: seed * 17 % 200,
                v: (seed * 31 + 7) % 200,
                label: 0,
            }])
            .unwrap();
        }
        let evolved = SmartPsi::from_context(ev.current()).run(&q, &RunSpec::new());
        let scratch = SmartPsi::new(ev.current().graph().clone(), cfg).run(&q, &RunSpec::new());
        assert_eq!(evolved, scratch);
    }
}
