//! One builder for every deployment shape.
//!
//! [`DeploymentSpec`] describes the whole serving product space:
//!
//! ```text
//!   {workers} × {1 shard | k shards} × {static | evolving}
//!             × {dense | compact}
//! ```
//!
//! resolved by a single call, [`SmartPsi::deploy`], into the one
//! serving type, a [`PsiService`] of k ≥ 1 shards:
//!
//! ```
//! use psi_core::{DeploymentSpec, RunSpec, SmartPsi, SmartPsiConfig};
//!
//! let g = psi_datasets::generators::erdos_renyi(300, 1200, 3, 7);
//! let q = psi_datasets::rwr::extract_query_seeded(&g, 4, 1).unwrap();
//! let smart = SmartPsi::new(g, SmartPsiConfig::default());
//!
//! // A 2-worker single-shard service on the compact store:
//! let spec = DeploymentSpec::new()
//!     .workers(2)
//!     .sig_store(psi_signature::SigStoreKind::Compact);
//! let mut service = smart.deploy(&spec);
//! let r = service.submit(q, RunSpec::new()).wait();
//! # let _ = r;
//! service.shutdown(std::time::Duration::from_secs(1));
//! ```
//!
//! [`SmartPsi::deploy`]: crate::SmartPsi::deploy
//! [`PsiService`]: crate::PsiService

use psi_signature::SigStoreKind;

use crate::engine::shard::{ShardBalance, DEFAULT_HALO_DEPTH};

/// Builder-style description of one serving deployment: worker count,
/// sharding, halo depth, partition balance, signature store backend,
/// and static-vs-evolving. `DeploymentSpec::default()` is a 1-worker,
/// 1-shard, static deployment on the context's existing store.
#[derive(Debug, Clone, Default)]
pub struct DeploymentSpec {
    workers: usize,
    shards: usize,
    halo: Option<u32>,
    balance: ShardBalance,
    sig_store: Option<SigStoreKind>,
    evolving: Option<usize>,
}

impl DeploymentSpec {
    /// A 1-worker, 1-shard, static deployment on the context's
    /// existing signature store (same as `default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker threads *per shard* (clamped to ≥ 1 at deploy).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Partition the graph into `shards` contiguous ranges served
    /// scatter-gather (`0` or `1` = one shard over the whole graph).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Ghost-node halo depth for sharded deployments (default:
    /// [`DEFAULT_HALO_DEPTH`]): a sharded deployment runs a query iff
    /// its pivot eccentricity is `≤ depth`, and deeper halos cost more
    /// resident memory per shard. Ignored with one shard.
    pub fn halo(mut self, depth: u32) -> Self {
        self.halo = Some(depth);
        self
    }

    /// Partition balance policy for sharded deployments. Ignored with
    /// one shard.
    pub fn balance(mut self, balance: ShardBalance) -> Self {
        self.balance = balance;
        self
    }

    /// Signature store backend for the deployment. Unset (the default)
    /// keeps whatever store the context was built with; setting a
    /// different backend converts once at deploy time.
    pub fn sig_store(mut self, kind: SigStoreKind) -> Self {
        self.sig_store = Some(kind);
        self
    }

    /// Make the deployment evolving: accept
    /// [`apply_update`](crate::PsiService::apply_update) batches,
    /// reserving signature label space for `label_capacity` labels
    /// (clamped up to the graph's current label count).
    pub fn evolving(mut self, label_capacity: usize) -> Self {
        self.evolving = Some(label_capacity);
        self
    }

    pub(crate) fn worker_count(&self) -> usize {
        self.workers.max(1)
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.max(1)
    }

    pub(crate) fn halo_depth(&self) -> u32 {
        self.halo.unwrap_or(DEFAULT_HALO_DEPTH)
    }

    pub(crate) fn shard_balance(&self) -> ShardBalance {
        self.balance
    }

    pub(crate) fn label_capacity(&self) -> Option<usize> {
        self.evolving
    }

    pub(crate) fn store_kind(&self) -> Option<SigStoreKind> {
        self.sig_store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunSpec, SmartPsi, SmartPsiConfig};
    use psi_graph::PivotedQuery;
    use std::time::Duration;

    fn setup() -> (SmartPsi, PivotedQuery) {
        let g = psi_datasets::generators::erdos_renyi(400, 1800, 3, 5);
        let q = psi_datasets::rwr::extract_query_seeded(&g, 4, 2).unwrap();
        (SmartPsi::new(g, SmartPsiConfig::default()), q)
    }

    #[test]
    fn default_spec_matches_run() {
        let (smart, q) = setup();
        let want = smart.run(&q, &RunSpec::new()).valid;
        let mut service = smart.deploy(&DeploymentSpec::new());
        assert_eq!(service.shard_count(), 1);
        assert_eq!(service.halo_depth(), None);
        let got = service.submit(q, RunSpec::new()).wait().valid;
        assert_eq!(want, got);
        service.shutdown(Duration::from_secs(2));
    }

    #[test]
    fn sharded_compact_evolving_full_product() {
        let (smart, q) = setup();
        let want = smart.run(&q, &RunSpec::new()).valid;
        let spec = DeploymentSpec::new()
            .workers(2)
            .shards(3)
            .halo(4)
            .evolving(8)
            .sig_store(SigStoreKind::Compact);
        let mut service = smart.deploy(&spec);
        assert_eq!(service.shard_count(), 3);
        assert_eq!(service.halo_depth(), Some(4));
        let got = service.submit(q.clone(), RunSpec::new()).wait().valid;
        assert_eq!(want, got);
        let report = service
            .apply_update(&[psi_graph::GraphUpdate::AddNode { label: 1 }])
            .unwrap();
        assert_eq!(report.epoch, 1);
        service.shutdown(Duration::from_secs(2));
    }

    #[test]
    fn evolving_single_service_updates() {
        let (smart, q) = setup();
        let mut service = smart.deploy(&DeploymentSpec::new().workers(2).evolving(6));
        let before = service.submit(q.clone(), RunSpec::new()).wait().valid;
        let report = service
            .apply_update(&[psi_graph::GraphUpdate::AddNode { label: 0 }])
            .unwrap();
        assert_eq!(report.epoch, 1);
        let after = service.submit(q, RunSpec::new()).wait().valid;
        assert_eq!(before, after, "an isolated new node can't change the answer");
        service.shutdown(Duration::from_secs(2));
    }
}
