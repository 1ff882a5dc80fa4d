//! Sharded scatter-gather serving: the k > 1 half of [`PsiService`].
//! Partition the data graph into contiguous node ranges, give every
//! shard its own [`GraphContext`] (signature slab + worker pool +
//! epoch), and answer PSI queries by fanning out to the shards that own
//! candidates and merging their partial valid sets. None of this runs
//! on a 1-shard deployment.
//!
//! # Why PSI shards cleanly
//!
//! A PSI answer is a set of *pivot bindings* — per-node verdicts. Each
//! data node is owned by exactly one shard, so the merged answer is a
//! disjoint union of per-shard answers; nothing is double-counted and
//! nothing needs reconciliation. The only obstruction is embeddings
//! that cross a partition boundary, and that is solved locally with a
//! ghost-node **halo**.
//!
//! # The halo-depth argument
//!
//! Let `ecc(q)` be the eccentricity of the query pivot inside the query
//! graph. In any full embedding, the image of a query node `w` lies
//! within data-distance `qdist(pivot, w) ≤ ecc(q)` of the matched pivot
//! candidate `u` (a query path maps to a data walk of the same length).
//! Therefore every embedding that binds `u` lives entirely inside the
//! `ecc(q)`-ball of `u`, and every edge of that embedding joins two
//! nodes at distance `≤ ecc(q)`.
//!
//! A shard built with halo depth `D` materializes, per owned range:
//!
//! * **members** — all nodes at distance `≤ D` of the owned range, with
//!   *every* incident edge whose nearer endpoint is at distance `≤ D`.
//!   Members at distance `≤ D` keep their full global adjacency (their
//!   neighbors are at distance `≤ D + 1` and hence resident), so their
//!   local degree equals their global degree;
//! * **rim stubs** — nodes at distance exactly `D + 1`, retained only
//!   so the members at distance `D` keep exact degrees. Rim stubs carry
//!   truncated adjacency and are never owned candidates.
//!
//! Signature rows are **gathered from the global matrix**, never
//! recomputed per shard — a boundary node's `D`-ball extends outside
//! the shard, so local recomputation would diverge. With global rows,
//! signature pruning and ranking behave identically to the
//! single-context engine.
//!
//! With `D ≥ ecc(q)` the local search over an owned pivot candidate is
//! verdict-exact: candidates it examines are at distance `≤ ecc + 1`
//! and every check it performs (label, degree for nodes `≤ D`,
//! signature, adjacency between embedding nodes) matches the global
//! graph. Scheduling-dependent *cost* (steps, escalations) may differ —
//! per-shard training samples differ — but verdicts cannot.
//! [`PsiService::submit`] therefore refuses queries with `ecc(q) > D`
//! (a [`QUERY_TOO_DEEP_REASON`] failure through the handle);
//! `crates/core/tests/sharded.rs` proves both directions (exactness at
//! depth `D`, detectable wrongness at `D − 1`).
//!
//! # Merge semantics
//!
//! Per-shard partial results are translated back to global ids (owned
//! locals are `global − lo`, a mapping that is stable across epoch
//! republishes) and merged under a [`Phase::ShardMerge`] span: valid
//! sets concatenate and sort, candidate/step/unresolved totals add,
//! failure reports merge with node ids and injected-panic reasons
//! rewritten to global space. A shard part answered without running —
//! its deadline expired in the queue, a drain aborted it, or its job
//! died twice (fault isolation at the shard-job boundary) —
//! collapses the whole query to the same empty-result-plus-failure
//! shape a 1-shard deployment produces, so differential suites can
//! compare the two bit-for-bit.
//!
//! # Updates
//!
//! An evolving sharded deployment owns one global
//! [`IncrementalSignatures`] maintainer. [`PsiService::apply_update`]
//! repairs the global matrix, then rebuilds only the shards whose
//! resident set intersects the batch's blast zone — the endpoints plus
//! the `(depth − 1)`-ball of repaired rows — bumping each affected
//! shard's epoch independently. Appended nodes are owned by the last
//! shard (its range is open-ended).
//!
//! [`PsiService`]: super::service::PsiService
//! [`PsiService::submit`]: super::service::PsiService::submit
//! [`PsiService::apply_update`]: super::service::PsiService::apply_update
//! [`QUERY_TOO_DEEP_REASON`]: super::service::QUERY_TOO_DEEP_REASON

use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use psi_graph::dynamic::DynamicGraph;
use psi_graph::hash::FxHashSet;
use psi_graph::{Graph, GraphBuilder, GraphUpdate, LabelId, NodeId, PivotedQuery};
use psi_obs::{timed, Counter, MetricsRecorder, Phase, QueryProfile, Recorder};
use psi_signature::{IncrementalSignatures, SigStore, SignatureStore};

use crate::fault::{unpoison, FaultPlan};
use crate::report::PsiResult;
use crate::smart::RunSpec;

use super::context::{GraphContext, SmartPsiConfig};
use super::deploy::DeploymentSpec;
use super::evolve::{UpdateError, UpdateReport};
use super::service::{structured_failure, with_store, JobHandle, Shard, QUERY_TOO_DEEP_REASON};

/// Default halo depth: supports query pivot eccentricities up to 4
/// (e.g. any connected query of ≤ 5 nodes).
pub const DEFAULT_HALO_DEPTH: u32 = 4;

/// What one shard rebuild produced.
struct ShardBuild {
    graph: Graph,
    /// Resident signature rows, gathered in the deployment's storage
    /// backend (a compact deployment gathers compact slabs).
    slab: SigStore,
    /// local id → global id; owned prefix `0..owned_len` (ascending,
    /// `global = lo + local`), then halo + rim in ascending global
    /// order.
    locals: Vec<NodeId>,
}

/// Per-shard state that changes when an update republishes the shard.
struct ShardMeta {
    /// Owned range end (exclusive). Only the last shard's `hi` grows.
    hi: NodeId,
    /// local → global for every resident node (owned, halo, rim).
    locals: Vec<NodeId>,
}

/// Where one shard sits in the global id space.
struct ShardRange {
    /// Owned range start. Never changes, so `owned local ↔ global`
    /// translation (`global = lo + local`) is stable across epochs.
    lo: NodeId,
    meta: RwLock<ShardMeta>,
}

/// Everything a k > 1 deployment keeps beside its shards: the range
/// map, the halo depth, the fault plan it projects per query and, when
/// evolving, the one global signature maintainer. Its methods take the
/// deployment's shards, in range order.
pub(crate) struct Sharding {
    halo_depth: u32,
    /// Per-shard deployment config (fault plan stripped; faults are
    /// projected per query instead).
    shard_config: SmartPsiConfig,
    /// The deployment-level fault plan, projected onto each shard's
    /// candidate subset at submit time.
    base_fault: Option<Arc<FaultPlan>>,
    ranges: Vec<ShardRange>,
    /// The global incremental maintainer of an evolving deployment.
    inc: Mutex<Option<IncrementalSignatures>>,
}

impl Sharding {
    /// Partition `ctx`'s graph per `spec` and build every shard's
    /// context. A static deployment gathers slabs out of the context's
    /// precomputed matrix (converted to the spec's store first); an
    /// evolving one builds its global maintainer on the requested
    /// backend and gathers from that.
    pub(crate) fn new(
        ctx: &Arc<GraphContext>,
        spec: &DeploymentSpec,
    ) -> (Self, Vec<Arc<GraphContext>>) {
        let Some(capacity) = spec.label_capacity() else {
            let ctx = with_store(ctx, spec.store_kind());
            return Self::build(ctx.graph(), ctx.signatures(), ctx.config(), spec);
        };
        let mut config = ctx.config().clone();
        if let Some(k) = spec.store_kind() {
            config.sig_store = k;
        }
        let g = ctx.graph();
        let inc = IncrementalSignatures::with_store(
            DynamicGraph::from_graph(g),
            config.depth,
            capacity.max(g.label_count()),
            config.sig_store,
        );
        let (mut sharding, contexts) = Self::build(g, inc.store(), &config, spec);
        *unpoison(sharding.inc.get_mut()) = Some(inc);
        (sharding, contexts)
    }

    fn build(
        g: &Graph,
        sigs: &dyn SignatureStore,
        config: &SmartPsiConfig,
        spec: &DeploymentSpec,
    ) -> (Self, Vec<Arc<GraphContext>>) {
        let mut shard_config = config.clone();
        let base_fault = shard_config.fault.take();
        let halo_depth = spec.halo_depth();
        let (ranges, contexts) = partition(g, spec.shard_count())
            .into_iter()
            .map(|(lo, hi)| {
                let b = build_shard(g, sigs, lo, hi, halo_depth);
                let ctx = GraphContext::from_precomputed(
                    b.graph,
                    b.slab,
                    shard_config.clone(),
                    0,
                    Duration::ZERO,
                );
                let meta = RwLock::new(ShardMeta { hi, locals: b.locals });
                (ShardRange { lo, meta }, Arc::new(ctx))
            })
            .unzip();
        let sharding = Self {
            halo_depth,
            shard_config,
            base_fault,
            ranges,
            inc: Mutex::new(None),
        };
        (sharding, contexts)
    }

    pub(crate) fn halo_depth(&self) -> u32 {
        self.halo_depth
    }

    pub(crate) fn owned_range(&self, shard: usize) -> (NodeId, NodeId) {
        let range = &self.ranges[shard];
        (range.lo, unpoison(range.meta.read()).hi)
    }

    pub(crate) fn resident_nodes(&self, shard: usize) -> Vec<NodeId> {
        let mut nodes = unpoison(self.ranges[shard].meta.read()).locals.clone();
        nodes.sort_unstable();
        nodes
    }

    /// Owned nodes carrying `label`, and owned nodes in all, summed
    /// over shards.
    pub(crate) fn label_population(&self, shards: &[Arc<Shard>], label: LabelId) -> (usize, usize) {
        let mut out = (0, 0);
        for (range, shard) in self.ranges.iter().zip(shards) {
            let owned = (unpoison(range.meta.read()).hi - range.lo) as usize;
            // Owned nodes are the local-id prefix, and the label index
            // is sorted by id.
            let ctx = shard.context();
            out.0 += ctx
                .graph()
                .nodes_with_label(label)
                .partition_point(|&l| (l as usize) < owned);
            out.1 += owned;
        }
        out
    }

    /// Fan a query out to every shard owning candidates; the handle
    /// merges the per-shard parts on [`JobHandle::wait`]. With
    /// `checked`, a query whose pivot eccentricity exceeds the halo
    /// depth is refused through its handle instead of being run.
    pub(crate) fn submit(
        &self,
        shards: &[Arc<Shard>],
        query: PivotedQuery,
        spec: RunSpec,
        metrics: &Arc<MetricsRecorder>,
        checked: bool,
    ) -> JobHandle {
        if checked {
            let ecc = pivot_eccentricity(&query);
            if ecc > self.halo_depth {
                let reason = format!(
                    "{QUERY_TOO_DEEP_REASON} (eccentricity {ecc} > halo depth {}); deploy \
                     with DeploymentSpec::halo({ecc}) or more",
                    self.halo_depth
                );
                return JobHandle::ready(structured_failure(query.pivot(), &reason));
            }
        }
        let pivot_degree = query.graph().degree(query.pivot());
        let label = query.pivot_label();
        let fault = spec.fault.clone().or_else(|| self.base_fault.clone());
        let mut parts = Vec::new();
        for (range, shard) in self.ranges.iter().zip(shards) {
            // Pin this shard's current snapshot for candidate routing.
            // Owned locals are `global - lo` under every epoch, so a
            // concurrent republish cannot invalidate the subset ids.
            let ctx = shard.context();
            let local_g = ctx.graph();
            if (label as usize) >= local_g.label_count() {
                continue;
            }
            let owned_len = (unpoison(range.meta.read()).hi - range.lo) as usize;
            // Exactly the global candidate filter, restricted to owned
            // nodes: owned nodes keep full adjacency, so local degree
            // equals global degree and the union over shards is the
            // global candidate set.
            let subset: Vec<NodeId> = local_g
                .nodes_with_label(label)
                .iter()
                .copied()
                .filter(|&l| (l as usize) < owned_len && local_g.degree(l) >= pivot_degree)
                .collect();
            if subset.is_empty() {
                continue;
            }
            let mut shard_spec = spec.clone();
            if let Some(plan) = &fault {
                let projected = plan.project(subset.iter().map(|&l| (range.lo + l, l)));
                shard_spec = shard_spec.faults(Arc::new(projected));
            }
            shard_spec = shard_spec.candidates(subset);
            parts.push((range.lo, shard.submit(query.clone(), shard_spec)));
        }
        metrics.add(Counter::ShardFanout, parts.len() as u64);
        JobHandle::fanout(query.pivot(), parts, metrics.clone())
    }

    /// Apply one update batch to an evolving sharded deployment:
    /// repair the global signature matrix once, then rebuild — with a
    /// fresh halo BFS, local CSR, and re-gathered slab — only the
    /// shards whose resident set intersects the batch's blast zone
    /// (edge endpoints, appended nodes, and the `(depth − 1)`-ball of
    /// repaired signature rows). Each rebuilt shard bumps its own
    /// epoch and retires its cross-query caches; untouched shards keep
    /// serving their current snapshot. The report's epoch is the
    /// highest shard epoch after the batch.
    ///
    /// Appended nodes are owned by the last shard, whose range is
    /// open-ended.
    pub(crate) fn apply_update(
        &self,
        shards: &[Arc<Shard>],
        updates: &[GraphUpdate],
        metrics: &MetricsRecorder,
    ) -> Result<UpdateReport, UpdateError> {
        let mut guard = unpoison(self.inc.lock());
        let Some(inc) = guard.as_mut() else {
            return Err(UpdateError::StaticDeployment);
        };
        let pre_nodes = inc.graph().node_count() as NodeId;
        let (stats, republished) = timed(metrics, Phase::GraphUpdate, || {
            let stats = inc.apply_batch(updates).map_err(UpdateError::Graph)?;
            let snapshot = inc.graph().snapshot();
            let sigs = inc.store();

            // Blast zone: batch endpoints + appended nodes, dilated by
            // the signature repair radius (rows within depth−1 of an
            // endpoint were rewritten). Updates are additive, so the
            // post-update BFS ball contains the pre-update one.
            let mut seeds = Vec::new();
            let mut next_new = pre_nodes;
            for u in updates {
                match u {
                    GraphUpdate::AddNode { .. } => {
                        seeds.push(next_new);
                        next_new += 1;
                    }
                    GraphUpdate::AddEdge { u, v, .. } => {
                        seeds.push(*u);
                        seeds.push(*v);
                    }
                }
            }
            let touched = ball(&snapshot, &seeds, inc.depth().saturating_sub(1));

            let last = self.ranges.len() - 1;
            let mut republished = 0u64;
            for (idx, (range, shard)) in self.ranges.iter().zip(shards).enumerate() {
                let grows = idx == last && stats.nodes_added > 0;
                let hit = grows || {
                    let meta = unpoison(range.meta.read());
                    touched.iter().any(|&t| {
                        (t >= range.lo && t < meta.hi)
                            || meta.locals[(meta.hi - range.lo) as usize..]
                                .binary_search(&t)
                                .is_ok()
                    })
                };
                if !hit {
                    continue;
                }
                let mut meta = unpoison(range.meta.write());
                let hi = if idx == last {
                    snapshot.node_count() as NodeId
                } else {
                    meta.hi
                };
                let b = build_shard(&snapshot, sigs, range.lo, hi, self.halo_depth);
                let ctx = GraphContext::from_precomputed(
                    b.graph,
                    b.slab,
                    self.shard_config.clone(),
                    shard.context().epoch() + 1,
                    Duration::ZERO,
                );
                shard.publish(Arc::new(ctx));
                meta.hi = hi;
                meta.locals = b.locals;
                republished += 1;
            }
            Ok::<_, UpdateError>((stats, republished))
        })?;
        metrics.add(Counter::RowsRepaired, stats.rows_repaired as u64);
        metrics.add(Counter::EpochsPublished, republished);
        Ok(UpdateReport {
            epoch: shards.iter().map(|s| s.context().epoch()).max().unwrap_or(0),
            nodes_added: stats.nodes_added,
            edges_added: stats.edges_added,
            duplicate_edges: stats.duplicate_edges,
            rows_repaired: stats.rows_repaired,
        })
    }
}

/// Merge per-shard partial results into one global-id result.
pub(crate) fn merge_results(pivot: NodeId, parts: Vec<(NodeId, PsiResult)>) -> PsiResult {
    // A part answered without running — deadline expired in its queue,
    // aborted by a drain, or a job that died twice — comes back as an
    // empty result plus failures at the query pivot. Mirror the 1-shard
    // deployment: the whole query collapses to that shape (partial
    // answers from other shards are discarded so the two deployments
    // stay bit-identical and the wire reports the failure).
    if let Some((lo, r)) = parts
        .iter()
        .find(|(_, r)| r.candidates == 0 && !r.failures.nodes.is_empty())
    {
        let mut out = PsiResult::empty(0, 0);
        for f in &r.failures.nodes {
            debug_assert_eq!(f.node, pivot, "an unrun shard part records the query pivot");
            out.failures.record(f.node, translate_reason(&f.reason, *lo), f.attempts);
        }
        out.failures.worker_deaths = r.failures.worker_deaths;
        return out;
    }
    let mut out = PsiResult::empty(0, 0);
    let mut profile = QueryProfile::new();
    let mut any_profile = false;
    for (lo, r) in parts {
        out.valid.extend(r.valid.iter().map(|&l| lo + l));
        out.candidates += r.candidates;
        out.steps += r.steps;
        out.unresolved += r.unresolved;
        let mut failures = r.failures.clone();
        for f in &mut failures.nodes {
            f.reason = translate_reason(&f.reason, lo);
            f.node += lo;
        }
        out.failures.merge(&failures);
        if let Some(p) = r.profile {
            merge_profile(&mut profile, &p);
            any_profile = true;
        }
    }
    out.valid.sort_unstable();
    out.failures.sort();
    if any_profile {
        out.profile = Some(Box::new(profile));
    }
    out
}

/// Rewrite a shard-local injected-panic reason to global id space.
/// (The injected-panic format is the only reason string carrying a
/// data node id; see `fault::panic_reason`.)
fn translate_reason(reason: &str, lo: NodeId) -> String {
    if let Some(rest) = reason.strip_prefix("injected panic (node ") {
        if let Some(num) = rest.strip_suffix(')') {
            if let Ok(local) = num.parse::<NodeId>() {
                return format!("injected panic (node {})", lo + local);
            }
        }
    }
    reason.to_string()
}

/// Sum a shard profile into the merged one. Spans, counters and
/// histograms add; wall clocks take the slowest shard (the shards ran
/// concurrently); the alpha accuracy is averaged weighted by trained
/// nodes.
fn merge_profile(into: &mut QueryProfile, p: &QueryProfile) {
    let w_prev = into.counter(Counter::TrainedNodes) as f64;
    let w_new = p.counter(Counter::TrainedNodes) as f64;
    let acc = |a: f64| if a.is_nan() { 0.0 } else { a };
    if w_prev + w_new > 0.0 {
        into.alpha_accuracy =
            (acc(into.alpha_accuracy) * w_prev + acc(p.alpha_accuracy) * w_new) / (w_prev + w_new);
    }
    into.total_wall_ns = into.total_wall_ns.max(p.total_wall_ns);
    into.signature_build_ns = into.signature_build_ns.max(p.signature_build_ns);
    into.train_ns += p.train_ns;
    into.evaluation_ns += p.evaluation_ns;
    into.recorded |= p.recorded;
    for (o, v) in into.spans_ns.iter_mut().zip(p.spans_ns.iter()) {
        *o += v;
    }
    for (o, v) in into.counters.iter_mut().zip(p.counters.iter()) {
        *o += v;
    }
    for (oh, vh) in into.hists.iter_mut().zip(p.hists.iter()) {
        for (o, v) in oh.iter_mut().zip(vh.iter()) {
            *o += v;
        }
    }
}

/// Eccentricity of the query pivot inside the (connected) query graph.
fn pivot_eccentricity(q: &PivotedQuery) -> u32 {
    q.graph()
        .bfs_distances(q.pivot())
        .into_iter()
        .filter(|&d| d != u32::MAX)
        .max()
        .unwrap_or(0)
}

/// Cut `[0, n)` into `k` contiguous ranges of equal node counts.
fn partition(g: &Graph, k: usize) -> Vec<(NodeId, NodeId)> {
    let n = g.node_count();
    let k = k.max(1);
    (0..k)
        .map(|i| ((i * n / k) as NodeId, ((i + 1) * n / k) as NodeId))
        .collect()
}

/// Build one shard: BFS the halo, assemble the local CSR (owned
/// prefix, then halo members, then rim stubs) and gather its signature
/// slab from the global matrix.
fn build_shard(g: &Graph, sigs: &dyn SignatureStore, lo: NodeId, hi: NodeId, halo: u32) -> ShardBuild {
    let n = g.node_count();
    let reach = halo + 1;
    // Multi-source BFS from the owned range, bounded at halo + 1.
    let mut dist = vec![u32::MAX; n];
    let mut frontier: Vec<NodeId> = (lo..hi).collect();
    for &u in &frontier {
        dist[u as usize] = 0;
    }
    let mut d = 0;
    while d < reach && !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in g.neighbors(u) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = d + 1;
                    next.push(v);
                }
            }
        }
        frontier = next;
        d += 1;
    }

    // Local ids: owned prefix first (local = global - lo), then every
    // other resident node in ascending global order.
    let mut locals: Vec<NodeId> = (lo..hi).collect();
    for v in 0..n as NodeId {
        if dist[v as usize] != u32::MAX && !(lo..hi).contains(&v) {
            locals.push(v);
        }
    }
    let mut to_local = vec![u32::MAX; n];
    for (l, &gv) in locals.iter().enumerate() {
        to_local[gv as usize] = l as NodeId;
    }

    let mut b = GraphBuilder::with_capacity(locals.len(), locals.len() * 2);
    b.reserve_label_space(sigs.label_count());
    for &gv in &locals {
        b.add_node(g.label(gv));
    }
    for (lu, &gu) in locals.iter().enumerate() {
        if dist[gu as usize] > halo {
            continue; // rim stub: its retained edges come from members
        }
        for (gv, el) in g.neighbors_with_labels(gu) {
            let dv = dist[gv as usize];
            if dv == u32::MAX {
                continue; // unreachable from an isolated owned node's side
            }
            if dv <= halo {
                // member–member: add once, from the smaller global id
                if gu < gv {
                    b.add_labeled_edge(lu as NodeId, to_local[gv as usize], el);
                }
            } else {
                // member–rim: the rim side is skipped above, so this
                // enumeration is the only one
                b.add_labeled_edge(lu as NodeId, to_local[gv as usize], el);
            }
        }
    }
    let graph = match b.build() {
        Ok(graph) => graph,
        Err(e) => unreachable!("a shard subgraph of a valid graph is valid: {e}"),
    };

    // Gather global signature rows for every resident node — never
    // recompute locally: boundary balls extend outside the shard. The
    // gather stays in the deployment's storage backend, so a compact
    // deployment's per-shard slabs are compact too.
    ShardBuild {
        graph,
        slab: sigs.gather(&locals),
        locals,
    }
}

/// Bounded multi-source BFS: every node within `depth` of any seed.
fn ball(g: &Graph, seeds: &[NodeId], depth: u32) -> Vec<NodeId> {
    let mut seen = FxHashSet::default();
    let mut frontier: Vec<NodeId> = Vec::new();
    for &s in seeds {
        if (s as usize) < g.node_count() && seen.insert(s) {
            frontier.push(s);
        }
    }
    let mut out: Vec<NodeId> = frontier.clone();
    for _ in 0..depth {
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in g.neighbors(u) {
                if seen.insert(v) {
                    next.push(v);
                }
            }
        }
        out.extend_from_slice(&next);
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_partition_covers_range() {
        let g = psi_datasets::generators::erdos_renyi(103, 300, 3, 1);
        let cuts = partition(&g, 4);
        assert_eq!(cuts.len(), 4);
        assert_eq!(cuts[0].0, 0);
        assert_eq!(cuts[3].1, 103);
        for w in cuts.windows(2) {
            assert_eq!(w[0].1, w[1].0, "contiguous");
        }
    }

    #[test]
    fn shard_members_keep_global_degrees() {
        let g = psi_datasets::generators::erdos_renyi(80, 240, 3, 9);
        let sigs = psi_signature::matrix_signatures(&g, 2);
        let halo = 2;
        let b = build_shard(&g, &sigs, 10, 30, halo);
        let dist_ok = |gv: NodeId| {
            (10..30)
                .map(|s| g.bfs_distances(s)[gv as usize])
                .min()
                .unwrap_or(u32::MAX)
        };
        for (l, &gv) in b.locals.iter().enumerate() {
            assert_eq!(b.graph.label(l as NodeId), g.label(gv), "labels preserved");
            assert_eq!(
                b.slab.dense().unwrap().row(l as NodeId),
                sigs.row(gv),
                "rows gathered"
            );
            if dist_ok(gv) <= halo {
                assert_eq!(
                    b.graph.degree(l as NodeId),
                    g.degree(gv),
                    "member {gv} keeps its global degree"
                );
            }
        }
    }

    #[test]
    fn translate_reason_rewrites_injected_panics_only() {
        assert_eq!(translate_reason("injected panic (node 3)", 100), "injected panic (node 103)");
        assert_eq!(translate_reason("node timeout", 100), "node timeout");
        assert_eq!(translate_reason("panic: boom", 100), "panic: boom");
    }
}
