//! Incremental signature maintenance for evolving graphs.
//!
//! SmartPSI precomputes all signatures at load time; for evolving
//! graphs (the incremental frequent-subgraph-mining setting of
//! Abdelhamid et al., TKDE 2017, which the paper cites) recomputing
//! `|V| × |L|` from scratch per edge is wasteful.
//! [`IncrementalSignatures`] keeps a [`DynamicGraph`] and its
//! signature matrix in sync, repairing exactly the affected rows.
//!
//! ## Which rows change (the `D−1` ball)
//!
//! The matrix signature is `NS^D = (I + A/2)^D · NS⁰`, so row `n` is a
//! sum over *walks of length ≤ D starting at `n`*. Inserting edge
//! `(u, v)` changes row `n` only if some such walk traverses the new
//! edge — which requires reaching `u` or `v` within the first `D−1`
//! steps (the walk still needs one step left to cross). Hence the
//! affected rows are exactly `dist(n, {u, v}) ≤ D−1` in the *new*
//! graph; at `D = 0` no row changes (NS⁰ is one-hot labels,
//! edge-independent). An earlier version repaired the strictly larger
//! `ball({u, v}, D)`.
//!
//! ## Bit-identical repair
//!
//! Affected rows are recomputed by replaying the *exact* batch
//! recurrence of [`crate::matrix_signatures`] on a local region: for
//! pass `i = 1..=D`, `NS^i(n)` is needed on nodes within `D−1 + (D−i)`
//! hops of the touched endpoints, so one BFS of radius `2D−1` collects
//! the region and `D` local passes rebuild it from the (known, one-hot)
//! `NS⁰`. Because every per-element operation (`out[l] += 0.5 *
//! cur[m][l]`, neighbors in ascending id order — both adjacency
//! representations are sorted) matches the batch method exactly, the
//! repaired rows are **bit-identical** to a from-scratch
//! `matrix_signatures` on the final graph, which is what lets the
//! evolving-graph engine promise answers identical to a cold engine.
//! Rows outside the `D−1` ball are untouched — and unchanged in the
//! batch result too, by the same walk argument, so bit-identity holds
//! matrix-wide.
//!
//! ## No per-edge allocation
//!
//! Region discovery and the local passes run on generation-stamped
//! dense scratch buffers owned by the maintainer (the same trick
//! `explore::exploration_signatures` uses for its per-source BFS
//! state), so a repair allocates nothing once the buffers are warm and
//! costs `O(|ball(2D−1)| · d · |L| · D)` — proportional to the region,
//! not to hash-map churn.

use psi_graph::dynamic::DynamicGraph;
use psi_graph::{GraphError, GraphUpdate, LabelId, NodeId};

use crate::store::{default_scale, CompactStore, SigStoreKind, SignatureStore};
use crate::SignatureMatrix;

/// Tally of one [`IncrementalSignatures::apply_batch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Nodes appended (each gets a one-hot row in place).
    pub nodes_added: usize,
    /// Edges newly inserted.
    pub edges_added: usize,
    /// Edge updates that were no-ops (edge already existed).
    pub duplicate_edges: usize,
    /// Signature rows recomputed by the localized recurrence.
    pub rows_repaired: usize,
}

/// Generation-stamped dense scratch for repairs: BFS state plus two
/// row arenas for the local recurrence. A stamp equal to the current
/// generation marks a node as part of the active region, so starting a
/// new repair is `O(1)` instead of clearing hash maps per edge.
#[derive(Debug, Clone, Default)]
struct RepairScratch {
    generation: u32,
    /// `stamp[n] == generation` ⇔ `n` is in the current region.
    stamp: Vec<u32>,
    /// BFS distance from the update's endpoints (valid when stamped).
    dist: Vec<u32>,
    /// Arena row index of `n` (valid when stamped).
    slot: Vec<u32>,
    /// Region nodes in BFS order (distances are non-decreasing).
    region: Vec<NodeId>,
    /// `|region| × label_capacity` arenas for the local passes.
    cur: Vec<f32>,
    next: Vec<f32>,
}

impl RepairScratch {
    /// Open a new generation over a graph of `node_count` nodes.
    fn begin(&mut self, node_count: usize) {
        if self.stamp.len() < node_count {
            self.stamp.resize(node_count, 0);
            self.dist.resize(node_count, 0);
            self.slot.resize(node_count, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // One full clear every 2³² repairs keeps stale stamps from
            // a wrapped generation out of the new region.
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.region.clear();
    }
}

/// A dynamic graph with continuously-maintained matrix signatures.
#[derive(Debug, Clone)]
pub struct IncrementalSignatures {
    g: DynamicGraph,
    /// The f32 ground truth: repairs replay the batch recurrence here
    /// bit-exactly regardless of the serving backend.
    sigs: SignatureMatrix,
    depth: u32,
    label_capacity: usize,
    scratch: RepairScratch,
    /// Optional quantized serving mirror, kept in lockstep with `sigs`
    /// by the `add_node`/repair hooks. The dense matrix stays the
    /// maintenance substrate — quantizing the *recurrence* would break
    /// the bit-identity contract — so a compact deployment carries both
    /// on the maintainer and serves snapshots from the mirror.
    mirror: Option<CompactStore>,
}

impl IncrementalSignatures {
    /// Wrap a dynamic graph, computing initial signatures. The label
    /// space is fixed at `label_capacity` columns (labels ≥ capacity
    /// are rejected later), so rows never need widening; the padding
    /// columns stay exactly `0.0` through every repair.
    pub fn new(g: DynamicGraph, depth: u32, label_capacity: usize) -> Self {
        Self::with_store(g, depth, label_capacity, SigStoreKind::Dense)
    }

    /// [`IncrementalSignatures::new`] with an explicit serving backend:
    /// `Dense` keeps only the f32 matrix; a compact kind additionally
    /// maintains a quantized mirror that [`IncrementalSignatures::store`]
    /// serves from.
    pub fn with_store(g: DynamicGraph, depth: u32, label_capacity: usize, kind: SigStoreKind) -> Self {
        let snapshot = g.snapshot();
        assert!(
            snapshot.label_count() <= label_capacity,
            "label_capacity too small for existing labels"
        );
        // Compute via the batch method on a capacity-padded matrix.
        let batch = crate::matrix_signatures(&snapshot, depth);
        Self::from_padded(g, depth, label_capacity, &batch, kind)
    }

    /// Wrap a dynamic graph around an *already computed* signature
    /// matrix, skipping the batch build. The caller promises `seed`
    /// equals `matrix_signatures(&g.snapshot(), depth)` (possibly
    /// already capacity-padded with zero columns) — this is how a
    /// static deployment upgrades to an evolving one without paying the
    /// signature build twice.
    pub fn from_precomputed(
        g: DynamicGraph,
        depth: u32,
        label_capacity: usize,
        seed: &SignatureMatrix,
        kind: SigStoreKind,
    ) -> Self {
        assert_eq!(seed.node_count(), g.node_count(), "seed rows must match the graph");
        assert!(
            seed.label_count() <= label_capacity,
            "label_capacity too small for the seed matrix"
        );
        assert!(
            g.snapshot().label_count() <= label_capacity,
            "label_capacity too small for existing labels"
        );
        Self::from_padded(g, depth, label_capacity, seed, kind)
    }

    fn from_padded(
        g: DynamicGraph,
        depth: u32,
        label_capacity: usize,
        batch: &SignatureMatrix,
        kind: SigStoreKind,
    ) -> Self {
        let mut sigs = SignatureMatrix::zeroed(g.node_count(), label_capacity);
        for n in 0..g.node_count() as NodeId {
            let row = batch.row(n);
            sigs.row_mut(n)[..row.len()].copy_from_slice(row);
        }
        let mirror = match kind {
            SigStoreKind::Dense => None,
            SigStoreKind::Compact => Some(CompactStore::from_matrix(&sigs, default_scale(depth))),
        };
        Self {
            g,
            sigs,
            depth,
            label_capacity,
            scratch: RepairScratch::default(),
            mirror,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.g
    }

    /// The maintained signatures (capacity-padded; see
    /// [`SignatureMatrix::truncated`] for trimming to a snapshot's
    /// label space).
    pub fn signatures(&self) -> &SignatureMatrix {
        &self.sigs
    }

    /// The *serving* view of the maintained rows: the quantized mirror
    /// when one is configured, otherwise the dense matrix. Snapshot
    /// publication and shard row-gather read from here, so a compact
    /// deployment never materializes dense slabs.
    pub fn store(&self) -> &dyn SignatureStore {
        match &self.mirror {
            Some(m) => m,
            None => &self.sigs,
        }
    }

    /// Which backend [`IncrementalSignatures::store`] serves.
    pub fn store_kind(&self) -> SigStoreKind {
        self.store().kind()
    }

    /// Propagation depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The fixed number of label columns.
    pub fn label_capacity(&self) -> usize {
        self.label_capacity
    }

    /// Add a node; its signature is its one-hot label row (no edges
    /// yet, so no other row changes). The matrix grows by one row in
    /// place — `O(|L|)` amortized, not a full reallocation.
    pub fn add_node(&mut self, label: LabelId) -> NodeId {
        assert!(
            (label as usize) < self.label_capacity,
            "label {label} exceeds the fixed label capacity {}",
            self.label_capacity
        );
        let id = self.g.add_node(label);
        self.sigs.push_zeroed_row();
        self.sigs.row_mut(id)[label as usize] = 1.0;
        if let Some(m) = &mut self.mirror {
            m.push_row(self.sigs.row(id));
        }
        id
    }

    /// Add an edge and repair all affected signature rows (the
    /// `dist ≤ D−1` ball — see the module docs). Returns `Ok(false)`
    /// (and changes nothing) when the edge already existed.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, label: LabelId) -> Result<bool, GraphError> {
        if !self.g.add_labeled_edge(u, v, label)? {
            return Ok(false);
        }
        self.repair_from(&[u, v]);
        Ok(true)
    }

    /// Apply a whole update batch, then repair the union ball once.
    ///
    /// The batch is validated up front (endpoints in range — nodes
    /// added earlier in the same batch count — no self-loops, labels
    /// within capacity), so an `Err` leaves graph and signatures
    /// untouched. Batching amortizes the repair: `k` edges landing in
    /// overlapping neighborhoods share one region BFS and one set of
    /// local passes instead of `k`.
    pub fn apply_batch(&mut self, updates: &[GraphUpdate]) -> Result<RepairStats, GraphError> {
        self.g.validate(updates)?;
        for u in updates {
            if let GraphUpdate::AddNode { label } = *u {
                if label as usize >= self.label_capacity {
                    return Err(GraphError::LabelOutOfCapacity {
                        label,
                        capacity: self.label_capacity,
                    });
                }
            }
        }
        let mut stats = RepairStats::default();
        let mut touched: Vec<NodeId> = Vec::new();
        for u in updates {
            match *u {
                GraphUpdate::AddNode { label } => {
                    self.add_node(label);
                    stats.nodes_added += 1;
                }
                GraphUpdate::AddEdge { u, v, label } => {
                    match self.g.add_labeled_edge(u, v, label) {
                        Ok(true) => {
                            touched.push(u);
                            touched.push(v);
                            stats.edges_added += 1;
                        }
                        Ok(false) => stats.duplicate_edges += 1,
                        // Unreachable after validate(), but an error
                        // must still surface rather than be swallowed.
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        stats.rows_repaired = self.repair_from(&touched);
        Ok(stats)
    }

    /// Recompute every row within `D−1` hops of `sources` by replaying
    /// the batch recurrence on the `2D−1`-hop region around them (see
    /// the module docs for both radii and the bit-identity argument).
    /// Returns the number of rows rewritten.
    fn repair_from(&mut self, sources: &[NodeId]) -> usize {
        let depth = self.depth as usize;
        if depth == 0 || sources.is_empty() {
            // NS⁰ rows are one-hot labels: edge-independent.
            return 0;
        }
        let cap = self.label_capacity;
        let affected_radius = (depth - 1) as u32;
        let region_radius = (2 * depth - 1) as u32;

        let g = &self.g;
        let s = &mut self.scratch;
        s.begin(g.node_count());
        let generation = s.generation;
        for &src in sources {
            if s.stamp[src as usize] != generation {
                s.stamp[src as usize] = generation;
                s.dist[src as usize] = 0;
                s.slot[src as usize] = s.region.len() as u32;
                s.region.push(src);
            }
        }
        // Multi-source BFS; `region` doubles as the queue, leaving the
        // nodes in non-decreasing distance order.
        let mut head = 0;
        while head < s.region.len() {
            let x = s.region[head];
            head += 1;
            let d = s.dist[x as usize];
            if d == region_radius {
                continue;
            }
            for &(y, _) in g.neighbors(x) {
                if s.stamp[y as usize] != generation {
                    s.stamp[y as usize] = generation;
                    s.dist[y as usize] = d + 1;
                    s.slot[y as usize] = s.region.len() as u32;
                    s.region.push(y);
                }
            }
        }

        // NS⁰ on the whole region: one-hot label rows.
        let rows = s.region.len();
        s.cur.clear();
        s.cur.resize(rows * cap, 0.0);
        s.next.clear();
        s.next.resize(rows * cap, 0.0);
        for (idx, &n) in s.region.iter().enumerate() {
            s.cur[idx * cap + g.label(n) as usize] = 1.0;
        }

        // Pass i rebuilds NS^i on `dist ≤ 2D−1−i`; each row reads its
        // neighbors' NS^{i−1}, which live one hop further out and were
        // rebuilt by the previous pass. The last pass covers exactly
        // the affected `D−1` ball.
        for i in 1..=depth {
            let limit = region_radius - i as u32;
            let upto = s.region.partition_point(|&n| s.dist[n as usize] <= limit);
            for idx in 0..upto {
                let n = s.region[idx];
                let out = &mut s.next[idx * cap..(idx + 1) * cap];
                out.copy_from_slice(&s.cur[idx * cap..(idx + 1) * cap]);
                for &(m, _) in g.neighbors(n) {
                    // Every neighbor of a pass-i row is within the
                    // region radius, hence stamped and slotted.
                    let ms = s.slot[m as usize] as usize;
                    let src = &s.cur[ms * cap..(ms + 1) * cap];
                    // Identical per-element update (and neighbor
                    // order) to `matrix_signatures` — the bit-identity
                    // contract.
                    for (o, &w) in out.iter_mut().zip(src) {
                        *o += 0.5 * w;
                    }
                }
            }
            std::mem::swap(&mut s.cur, &mut s.next);
        }

        let repaired = s.region.partition_point(|&n| s.dist[n as usize] <= affected_radius);
        for idx in 0..repaired {
            let n = s.region[idx];
            let row = &s.cur[idx * cap..(idx + 1) * cap];
            self.sigs.row_mut(n).copy_from_slice(row);
            if let Some(m) = &mut self.mirror {
                // Re-quantize from the repaired f32 truth so the mirror
                // is always exactly `quantize(sigs)` row-for-row.
                m.set_row(n, row);
            }
        }
        repaired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The incremental matrix must always equal a from-scratch batch
    /// recomputation (padded to the same capacity) — **bit-exactly**:
    /// the repair replays the batch recurrence op for op, so even f32
    /// rounding must agree.
    fn assert_matches_batch(inc: &IncrementalSignatures) {
        let snapshot = inc.graph().snapshot();
        let batch = crate::matrix_signatures(&snapshot, inc.depth());
        for n in 0..snapshot.node_count() as NodeId {
            let brow = batch.row(n);
            let irow = inc.signatures().row(n);
            for (l, &iv) in irow.iter().enumerate() {
                let b = brow.get(l).copied().unwrap_or(0.0);
                assert!(
                    iv.to_bits() == b.to_bits(),
                    "node {n} label {l}: incremental {iv} vs batch {b} (not bit-identical)"
                );
            }
        }
    }

    #[test]
    fn starts_in_sync() {
        let mut g = DynamicGraph::new();
        for l in [0, 1, 1, 2] {
            g.add_node(l);
        }
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        let inc = IncrementalSignatures::new(g, 2, 4);
        assert_matches_batch(&inc);
    }

    #[test]
    fn edge_insertions_stay_in_sync() {
        let mut g = DynamicGraph::new();
        for i in 0..10 {
            g.add_node((i % 3) as u16);
        }
        let mut inc = IncrementalSignatures::new(g, 2, 3);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (0, 4), (5, 6), (6, 7), (1, 5), (8, 9), (4, 8)] {
            assert!(inc.add_edge(u, v, 0).unwrap());
            assert_matches_batch(&inc);
        }
    }

    #[test]
    fn duplicate_edge_is_noop() {
        let mut g = DynamicGraph::new();
        g.add_node(0);
        g.add_node(1);
        g.add_edge(0, 1).unwrap();
        let mut inc = IncrementalSignatures::new(g, 2, 2);
        let before = inc.signatures().clone();
        assert!(!inc.add_edge(0, 1, 0).unwrap());
        assert_eq!(inc.signatures(), &before);
    }

    #[test]
    fn node_additions_grow_matrix() {
        let mut g = DynamicGraph::new();
        g.add_node(0);
        let mut inc = IncrementalSignatures::new(g, 2, 3);
        let b = inc.add_node(2);
        assert_eq!(inc.signatures().node_count(), 2);
        assert_eq!(inc.signatures().row(b), &[0.0, 0.0, 1.0]);
        inc.add_edge(0, b, 0).unwrap();
        assert_matches_batch(&inc);
    }

    #[test]
    fn deep_propagation_repairs_the_whole_ball() {
        // A long path; adding the closing edge changes rows far away
        // only within depth D=3.
        let mut g = DynamicGraph::new();
        for i in 0..8 {
            g.add_node((i % 2) as u16);
        }
        for i in 0..7u32 {
            g.add_edge(i, i + 1).unwrap();
        }
        let mut inc = IncrementalSignatures::new(g, 3, 2);
        inc.add_edge(0, 7, 0).unwrap();
        assert_matches_batch(&inc);
    }

    #[test]
    fn depths_one_through_four_stay_in_sync() {
        // The D−1 repair radius must hold at every depth the engine
        // ships, including the D=1 edge case (only the endpoints
        // themselves change) — and D=0, where nothing changes.
        for depth in 0..=4u32 {
            let mut g = DynamicGraph::new();
            for i in 0..12 {
                g.add_node((i % 4) as u16);
            }
            for i in 0..11u32 {
                g.add_edge(i, i + 1).unwrap();
            }
            let mut inc = IncrementalSignatures::new(g, depth, 4);
            for (u, v) in [(0u32, 11u32), (2, 9), (5, 11), (0, 6), (3, 7)] {
                assert!(inc.add_edge(u, v, 0).unwrap(), "depth {depth} edge ({u},{v})");
                assert_matches_batch(&inc);
            }
        }
    }

    #[test]
    fn repair_radius_is_tight() {
        // On a path with D=2, inserting (0,1) must not rewrite rows at
        // distance ≥ 2 from the endpoints — scribble on a far row's
        // padding column and verify the repair never touches it.
        let mut g = DynamicGraph::new();
        for _ in 0..6 {
            g.add_node(0);
        }
        for i in 1..5u32 {
            g.add_edge(i, i + 1).unwrap();
        }
        let mut inc = IncrementalSignatures::new(g, 2, 2);
        // Node 4 is 3 hops from node 1 (and ∞ from 0): outside the
        // D−1 = 1 affected ball of the new edge (0,1).
        inc.sigs.row_mut(4)[1] = 42.0;
        assert!(inc.add_edge(0, 1, 0).unwrap());
        assert_eq!(inc.signatures().row(4)[1], 42.0, "far row must not be rewritten");
        // …while a row inside the ball (node 1) is repaired.
        let snapshot = inc.graph().snapshot();
        let batch = crate::matrix_signatures(&snapshot, 2);
        assert_eq!(inc.signatures().row(1)[0], batch.row(1)[0]);
    }

    #[test]
    fn streaming_10k_nodes_is_in_place_and_correct() {
        // Regression for the quadratic add_node: stream 10k nodes
        // (with a sprinkle of edges to keep repairs in the loop) and
        // verify the final matrix against a cold batch build.
        let mut g = DynamicGraph::new();
        g.add_node(0);
        let mut inc = IncrementalSignatures::new(g, 2, 4);
        for i in 1..10_000u32 {
            let id = inc.add_node((i % 4) as u16);
            if i % 97 == 0 {
                inc.add_edge(id, id - 1, 0).unwrap();
            }
        }
        assert_eq!(inc.signatures().node_count(), 10_000);
        assert_matches_batch(&inc);
    }

    #[test]
    fn batch_apply_matches_batch_and_counts() {
        let mut g = DynamicGraph::new();
        for i in 0..6 {
            g.add_node((i % 2) as u16);
        }
        g.add_edge(0, 1).unwrap();
        let mut inc = IncrementalSignatures::new(g, 2, 3);
        let stats = inc
            .apply_batch(&[
                GraphUpdate::AddNode { label: 2 },
                // Forward reference to the node added above (id 6).
                GraphUpdate::AddEdge { u: 6, v: 0, label: 0 },
                GraphUpdate::AddEdge { u: 2, v: 3, label: 0 },
                GraphUpdate::AddEdge { u: 0, v: 1, label: 0 }, // duplicate
            ])
            .unwrap();
        assert_eq!(stats.nodes_added, 1);
        assert_eq!(stats.edges_added, 2);
        assert_eq!(stats.duplicate_edges, 1);
        assert!(stats.rows_repaired > 0);
        assert_matches_batch(&inc);
    }

    #[test]
    fn erroneous_batch_is_atomic() {
        let mut g = DynamicGraph::new();
        g.add_node(0);
        g.add_node(1);
        let mut inc = IncrementalSignatures::new(g, 2, 2);
        let before_sigs = inc.signatures().clone();
        let before_edges = inc.graph().edge_count();
        for bad in [
            vec![
                GraphUpdate::AddEdge { u: 0, v: 1, label: 0 },
                GraphUpdate::AddEdge { u: 0, v: 9, label: 0 },
            ],
            vec![
                GraphUpdate::AddEdge { u: 0, v: 1, label: 0 },
                GraphUpdate::AddNode { label: 7 }, // beyond capacity 2
            ],
        ] {
            assert!(inc.apply_batch(&bad).is_err());
            assert_eq!(inc.signatures(), &before_sigs, "failed batch must not mutate");
            assert_eq!(inc.graph().edge_count(), before_edges);
        }
    }

    #[test]
    #[should_panic(expected = "label_capacity too small")]
    fn capacity_too_small_rejected() {
        let mut g = DynamicGraph::new();
        g.add_node(5);
        IncrementalSignatures::new(g, 2, 3);
    }

    #[test]
    #[should_panic(expected = "exceeds the fixed label capacity")]
    fn out_of_capacity_label_rejected() {
        let g = DynamicGraph::new();
        let mut inc = IncrementalSignatures::new(g, 2, 2);
        inc.add_node(2);
    }

    #[test]
    fn random_evolution_stays_in_sync() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut g = DynamicGraph::new();
        for _ in 0..20 {
            g.add_node(rng.gen_range(0..4));
        }
        let mut inc = IncrementalSignatures::new(g, 2, 4);
        for _ in 0..40 {
            let u = rng.gen_range(0..inc.graph().node_count() as u32);
            let v = rng.gen_range(0..inc.graph().node_count() as u32);
            if u != v {
                let _ = inc.add_edge(u, v, 0);
            }
            if rng.gen_bool(0.2) {
                inc.add_node(rng.gen_range(0..4));
            }
        }
        assert_matches_batch(&inc);
    }

    /// The compact mirror must stay exactly `quantize(sigs)` through an
    /// arbitrary interleaving of node adds and edge repairs.
    #[test]
    fn compact_mirror_stays_in_lockstep() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = DynamicGraph::new();
        for _ in 0..16 {
            g.add_node(rng.gen_range(0..4));
        }
        let mut inc = IncrementalSignatures::with_store(g, 2, 4, SigStoreKind::Compact);
        assert_eq!(inc.store_kind(), SigStoreKind::Compact);
        for _ in 0..60 {
            let u = rng.gen_range(0..inc.graph().node_count() as u32);
            let v = rng.gen_range(0..inc.graph().node_count() as u32);
            if u != v {
                let _ = inc.add_edge(u, v, 0);
            }
            if rng.gen_bool(0.25) {
                inc.add_node(rng.gen_range(0..4));
            }
        }
        assert_matches_batch(&inc);
        let fresh = CompactStore::from_matrix(inc.signatures(), default_scale(2));
        let mut got = vec![0.0f32; inc.label_capacity()];
        let mut want = vec![0.0f32; inc.label_capacity()];
        assert_eq!(inc.store().node_count(), inc.graph().node_count());
        for n in 0..inc.graph().node_count() as NodeId {
            inc.store().write_row(n, &mut got);
            fresh.write_row(n, &mut want);
            assert_eq!(got, want, "mirror row {n} drifted from quantize(sigs)");
        }
    }

    /// Seeding from a precomputed matrix must behave exactly like the
    /// batch-building constructor.
    #[test]
    fn precomputed_seed_matches_batch_build() {
        let mut g = DynamicGraph::new();
        for l in [0, 1, 1, 2] {
            g.add_node(l);
        }
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            g.add_labeled_edge(u, v, 0).unwrap();
        }
        let seed = crate::matrix_signatures(&g.snapshot(), 2);
        let mut inc =
            IncrementalSignatures::from_precomputed(g, 2, 6, &seed, SigStoreKind::Dense);
        assert_eq!(inc.label_capacity(), 6);
        assert_matches_batch(&inc);
        inc.add_node(3);
        inc.add_edge(3, 4, 0).unwrap();
        assert_matches_batch(&inc);
    }
}
