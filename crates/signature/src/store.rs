//! Pluggable signature storage: the [`SignatureStore`] trait and its
//! backends.
//!
//! The dense `|V| × |L|` f32 [`SignatureMatrix`] is the scaling wall of
//! a large deployment: at 10M nodes × 64 labels it costs 2.5 GB before
//! the graph itself, and every serving layer (services, evolving
//! snapshots, sharded slabs) pays it per copy. This module puts row
//! access, the Proposition 3.2 satisfaction test, the satisfiability
//! score, row-gather (sharding), and the push/repair hooks (incremental
//! maintenance) behind one trait with two concrete backends:
//!
//! * **Dense** — the existing [`SignatureMatrix`]: bit-exact paper
//!   reproduction, the default for every repro path.
//! * **Compact** — [`CompactStore`]: saturating u8 fixed-point
//!   counters plus a label-presence bitset fused in front of the count
//!   compare as a stage-1 fast path (reject before compare).
//!
//! ## Why quantization cannot change an answer
//!
//! Signature satisfaction is a per-label `candidate ≥ query` test used
//! only to *prune* candidates (Proposition 3.2); the search itself is
//! exhaustive. Pruning is sound as long as no **true** match is ever
//! rejected, and a true match satisfies `candidate[l] ≥ query[l]`
//! exactly. Both sides are quantized with the same map
//! `Q(w) = min(cap, round(w · scale))`, which is monotone
//! (non-decreasing), so `candidate ≥ query ⟹ Q(candidate) ≥ Q(query)`
//! — **including when either side saturates at the cap**. A saturated
//! counter can only make the filter *weaker* (letting a non-match
//! through costs steps; the search still rejects it), never stronger
//! against a true match. Hence valid sets are identical to the dense
//! backend for any `scale` and any cap.
//!
//! With `scale = 2^depth` ([`default_scale`]) quantization is also
//! *lossless* below the cap: depth-`D` matrix signatures live on the
//! `2^-D` grid (every weight is a sum of `count · 2^-d` terms, `d ≤
//! D`), so `w · scale` is an integer and dequantized rows, scores, and
//! cached prediction keys match the dense backend bit-for-bit until a
//! counter clips.

use psi_graph::NodeId;

use crate::score::{satisfiability_score, satisfies, SATISFACTION_EPSILON};
use crate::SignatureMatrix;

/// The shared tail rule of [`satisfies`]: query labels beyond the
/// store's alphabet must carry (effectively) zero weight. The rule is
/// row-independent, so the batch kernels decide it once per block
/// instead of once per row.
#[inline]
fn tail_is_zero(query_row: &[f32], shared: usize) -> bool {
    query_row[shared..].iter().all(|&w| w <= SATISFACTION_EPSILON)
}

/// Branch-free Proposition 3.2 prefix test over one dense row,
/// accumulated in 8 boolean lanes so LLVM lowers the inner loop to
/// packed f32 compares.
///
/// The lane predicate is `!(c + ε < q)` — the negation of the scalar
/// [`satisfies`] early-exit test — rather than the tempting `c + ε ≥ q`,
/// which differs on NaN. With the negated form a NaN weight produces
/// the same verdict bit the per-row path produces.
#[inline]
#[allow(clippy::neg_cmp_op_on_partial_ord)] // negation IS the predicate: see above
fn prefix_satisfies(row: &[f32], q: &[f32]) -> bool {
    debug_assert_eq!(row.len(), q.len());
    let mut lanes = [true; 8];
    let mut rc = row.chunks_exact(8);
    let mut qc = q.chunks_exact(8);
    for (r8, q8) in (&mut rc).zip(&mut qc) {
        for k in 0..8 {
            lanes[k] &= !(r8[k] + SATISFACTION_EPSILON < q8[k]);
        }
    }
    let mut ok = lanes.into_iter().all(|b| b);
    for (&c, &w) in rc.remainder().iter().zip(qc.remainder()) {
        ok &= !(c + SATISFACTION_EPSILON < w);
    }
    ok
}

/// The hoisted query side of a batched score sweep: the active terms
/// (`w > 0`, in index order — the exact accumulation order of the
/// scalar [`satisfiability_score`]) restricted to the store's alphabet,
/// plus the total term count. Terms beyond the alphabet contribute a
/// trailing `+0.0` in the scalar sum, which cannot change the bits of a
/// sum that starts at `+0.0`, so only their count survives the hoist.
fn active_terms(query_row: &[f32], label_count: usize) -> (Vec<(usize, f32)>, u32) {
    let mut active = Vec::new();
    let mut terms = 0u32;
    for (i, &w) in query_row.iter().enumerate() {
        if w > 0.0 {
            terms += 1;
            if i < label_count {
                active.push((i, w));
            }
        }
    }
    (active, terms)
}

/// Which signature storage backend a deployment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SigStoreKind {
    /// Dense f32 rows ([`SignatureMatrix`]) — bit-exact paper repro,
    /// 4 bytes per (node, label).
    Dense,
    /// Saturating u8 counters + presence bitset — ~1.1 bytes per
    /// (node, label), exact valid sets (see the module docs).
    Compact,
}

impl SigStoreKind {
    /// Parse a CLI/config spelling (`dense`, `compact`, `compact8`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "dense" => Some(Self::Dense),
            "compact" | "compact8" => Some(Self::Compact),
            _ => None,
        }
    }

    /// Canonical display name (accepted back by [`SigStoreKind::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Self::Dense => "dense",
            Self::Compact => "compact",
        }
    }
}

/// The fixed-point scale that makes quantization lossless below the
/// saturation cap: depth-`D` signatures live on the `2^-D` grid, so
/// `scale = 2^D` maps every unclipped weight to an exact integer. The
/// exponent is clamped (a depth beyond 8 would overflow the u8 cap on
/// the very first hop anyway); beyond the clamp quantization is merely
/// conservative, which keeps answers exact regardless.
pub fn default_scale(depth: u32) -> f32 {
    (1u32 << depth.min(8)) as f32
}

/// Storage abstraction over per-node signature rows.
///
/// Everything the engine needs from signatures goes through here: row
/// access (ML features and cache keys), the Proposition 3.2
/// satisfaction test, the §3.3 satisfiability score, row-gather (how
/// shard slabs are built), column truncation (how evolving snapshots
/// trim capacity padding), and the push/repair hooks the incremental
/// maintainer calls. `Send + Sync` because one store is shared
/// read-only by every worker of a deployment.
pub trait SignatureStore: Send + Sync + std::fmt::Debug {
    /// Which backend this is.
    fn kind(&self) -> SigStoreKind;

    /// Number of node rows.
    fn node_count(&self) -> usize;

    /// Number of label columns.
    fn label_count(&self) -> usize;

    /// Resident bytes of the index payload (rows + any presence tier);
    /// what the memory-sizing table and `BENCH_compact.json` report.
    fn index_bytes(&self) -> usize;

    /// Write node `n`'s (de-quantized) signature into `out`, which must
    /// hold exactly [`SignatureStore::label_count`] slots.
    fn write_row(&self, n: NodeId, out: &mut [f32]);

    /// Whether node `n`'s signature satisfies `query_row`
    /// (Proposition 3.2; see [`crate::satisfies`] for the dense
    /// semantics this must conservatively agree with).
    fn row_satisfies(&self, n: NodeId, query_row: &[f32]) -> bool;

    /// Satisfiability score of node `n` against `query_row` (§3.3).
    /// Guidance only — it orders candidate visits and never decides a
    /// verdict.
    fn row_score(&self, n: NodeId, query_row: &[f32]) -> f32;

    /// Batched [`SignatureStore::row_satisfies`] over the contiguous
    /// row block `range`: `out[i]` receives the verdict for node
    /// `range.start + i`. `out.len()` must equal the range length and
    /// the range must lie inside [`SignatureStore::node_count`].
    ///
    /// The default body is the per-row loop — the per-row method *is*
    /// the `chunk = 1` case — and both backends override it with a
    /// structure-of-arrays kernel that hoists the query-side work
    /// (tail rule, quantization, presence masks) out of the row loop.
    /// Overrides must stay bit-identical to this default; the parity
    /// suite (`crates/signature/tests/batch_parity.rs`) pins it.
    fn rows_satisfy(&self, range: std::ops::Range<NodeId>, query_row: &[f32], out: &mut [bool]) {
        assert_eq!(out.len(), range.len(), "output length mismatch");
        for (slot, n) in out.iter_mut().zip(range) {
            *slot = self.row_satisfies(n, query_row);
        }
    }

    /// Batched [`SignatureStore::row_score`] over the contiguous row
    /// block `range`: `out[i]` receives the score for node
    /// `range.start + i`. Same contract and bitwise-parity guarantee
    /// as [`SignatureStore::rows_satisfy`].
    fn rows_score(&self, range: std::ops::Range<NodeId>, query_row: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), range.len(), "output length mismatch");
        for (slot, n) in out.iter_mut().zip(range) {
            *slot = self.row_score(n, query_row);
        }
    }

    /// Gather `ids` into a new store of the same backend and width —
    /// the shard-slab build path (rows are *copied*, never recomputed:
    /// boundary balls extend outside a shard).
    fn gather(&self, ids: &[NodeId]) -> SigStore;

    /// Copy keeping only the first `label_count` columns of every row
    /// — the evolving-snapshot publish path (trimming capacity
    /// padding).
    fn truncated_store(&self, label_count: usize) -> SigStore;

    /// Append one row (the incremental maintainer's `add_node` hook).
    /// `row.len()` must equal [`SignatureStore::label_count`].
    fn push_row(&mut self, row: &[f32]);

    /// Overwrite row `n` (the incremental maintainer's repair hook).
    /// `row.len()` must equal [`SignatureStore::label_count`].
    fn set_row(&mut self, n: NodeId, row: &[f32]);
}

impl SignatureStore for SignatureMatrix {
    fn kind(&self) -> SigStoreKind {
        SigStoreKind::Dense
    }

    fn node_count(&self) -> usize {
        self.node_count()
    }

    fn label_count(&self) -> usize {
        self.label_count()
    }

    fn index_bytes(&self) -> usize {
        std::mem::size_of_val(self.as_flat())
    }

    fn write_row(&self, n: NodeId, out: &mut [f32]) {
        out.copy_from_slice(self.row(n));
    }

    fn row_satisfies(&self, n: NodeId, query_row: &[f32]) -> bool {
        satisfies(self.row(n), query_row)
    }

    fn row_score(&self, n: NodeId, query_row: &[f32]) -> f32 {
        satisfiability_score(self.row(n), query_row)
    }

    // The single-label fast path repeats [`prefix_satisfies`]'s
    // NaN-exact `!(c + ε < q)` lane predicate; same rationale.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn rows_satisfy(&self, range: std::ops::Range<NodeId>, query_row: &[f32], out: &mut [bool]) {
        assert_eq!(out.len(), range.len(), "output length mismatch");
        let l = self.label_count();
        let shared = l.min(query_row.len());
        if !tail_is_zero(query_row, shared) {
            out.fill(false);
            return;
        }
        if shared == 0 {
            // No constrained labels: every row trivially satisfies.
            out.fill(true);
            return;
        }
        let q = &query_row[..shared];
        let base = range.start as usize * l;
        let block = &self.as_flat()[base..base + out.len() * l];
        if l == 1 {
            // One-label alphabets collapse the label loop entirely:
            // the candidate axis becomes the vector axis, one packed
            // compare per 8 rows.
            let q0 = q[0];
            for (slot, &c) in out.iter_mut().zip(block) {
                *slot = !(c + SATISFACTION_EPSILON < q0);
            }
            return;
        }
        for (slot, row) in out.iter_mut().zip(block.chunks_exact(l)) {
            *slot = prefix_satisfies(&row[..shared], q);
        }
    }

    fn rows_score(&self, range: std::ops::Range<NodeId>, query_row: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), range.len(), "output length mismatch");
        let l = self.label_count();
        let (active, terms) = active_terms(query_row, l);
        if terms == 0 {
            out.fill(f32::INFINITY);
            return;
        }
        let flat = self.as_flat();
        let base = range.start as usize * l;
        for (i, slot) in out.iter_mut().enumerate() {
            let row = &flat[base + i * l..base + (i + 1) * l];
            let mut sum = 0.0f32;
            for &(idx, w) in &active {
                sum += row[idx] / w;
            }
            *slot = sum / terms as f32;
        }
    }

    fn gather(&self, ids: &[NodeId]) -> SigStore {
        let width = self.label_count();
        let mut flat = Vec::with_capacity(ids.len() * width);
        for &n in ids {
            flat.extend_from_slice(self.row(n));
        }
        SigStore::Dense(SignatureMatrix::from_flat(flat, width))
    }

    fn truncated_store(&self, label_count: usize) -> SigStore {
        SigStore::Dense(self.truncated(label_count))
    }

    fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.label_count(), "row width mismatch");
        self.push_zeroed_row();
        let n = self.node_count() as NodeId - 1;
        self.row_mut(n).copy_from_slice(row);
    }

    fn set_row(&mut self, n: NodeId, row: &[f32]) {
        self.row_mut(n).copy_from_slice(row);
    }
}

/// Quantized compact signature index: saturating u8 fixed-point
/// counters, one per (node, label), with a label-presence bitset fused
/// in front of every satisfaction test as the stage-1 fast path.
///
/// The presence tier stores one bit per (node, label) — set iff the
/// quantized counter is non-zero — so a candidate missing *any* label
/// the query needs is rejected by bit tests on a 64-label word without
/// ever touching the counter slab. The whole index costs
/// `|V| · (|L| + |L|/8)` bytes ≈ 28% of the dense f32 matrix.
///
/// Answer exactness under quantization and saturation is argued in the
/// [module docs](self); the differential suite
/// (`crates/core/tests/compact.rs`) enforces it.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactStore {
    counts: Vec<u8>,
    /// Presence bitset, `words_per_row` u64 words per node row.
    presence: Vec<u64>,
    words_per_row: usize,
    label_count: usize,
    /// Fixed-point scale: stored counter ≈ `weight · scale`, clipped at
    /// [`CompactStore::cap`].
    scale: f32,
}

impl CompactStore {
    /// Quantize a dense matrix at `scale` (see [`default_scale`]).
    pub fn from_matrix(m: &SignatureMatrix, scale: f32) -> Self {
        let mut out = Self::empty(m.label_count(), scale);
        for n in 0..m.node_count() as NodeId {
            out.push_row(m.row(n));
        }
        out
    }

    /// An empty store ready to absorb rows via
    /// [`SignatureStore::push_row`].
    pub fn empty(label_count: usize, scale: f32) -> Self {
        assert!(scale > 0.0, "quantization scale must be positive");
        Self {
            counts: Vec::new(),
            presence: Vec::new(),
            words_per_row: label_count.div_ceil(64),
            label_count,
            scale,
        }
    }

    /// The fixed-point scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The saturation cap of the counter slab (255).
    pub fn cap(&self) -> u32 {
        u8::MAX as u32
    }

    /// Monotone saturating quantization: `min(cap, round(w · scale))`.
    /// Monotonicity is the whole exactness argument (module docs), so
    /// both the stored rows and the query side go through this exact
    /// map.
    #[inline]
    pub fn quantize(&self, w: f32) -> u32 {
        // `as u32` saturates on overflow and clamps negatives to 0;
        // weights are non-negative by construction.
        ((w * self.scale + 0.5) as u32).min(self.cap())
    }

    #[inline]
    fn count(&self, n: NodeId, l: usize) -> u32 {
        self.counts[n as usize * self.label_count + l] as u32
    }

    #[inline]
    fn presence_row(&self, n: NodeId) -> &[u64] {
        let i = n as usize * self.words_per_row;
        &self.presence[i..i + self.words_per_row]
    }

    /// Truncation that stays compact (the capacity-padding trim of the
    /// evolving publish path). Padding columns hold zero counters and
    /// clear presence bits, so dropping them loses nothing.
    pub fn truncated_compact(&self, label_count: usize) -> CompactStore {
        assert!(
            label_count <= self.label_count,
            "cannot widen a store by truncation ({label_count} > {})",
            self.label_count
        );
        let nodes = self.node_count();
        let mut out = Self::empty(label_count, self.scale);
        out.counts.reserve(nodes * label_count);
        out.presence.reserve(nodes * out.words_per_row);
        for n in 0..nodes {
            let base = n * self.label_count;
            out.counts.extend_from_slice(&self.counts[base..base + label_count]);
            let prow = self.presence_row(n as NodeId);
            for (w, &word) in prow.iter().take(out.words_per_row).enumerate() {
                let mut word = word;
                let high = label_count - w * 64;
                if high < 64 {
                    word &= (1u64 << high) - 1;
                }
                out.presence.push(word);
            }
        }
        out
    }
}

impl SignatureStore for CompactStore {
    fn kind(&self) -> SigStoreKind {
        SigStoreKind::Compact
    }

    fn node_count(&self) -> usize {
        self.counts.len().checked_div(self.label_count).unwrap_or(0)
    }

    fn label_count(&self) -> usize {
        self.label_count
    }

    fn index_bytes(&self) -> usize {
        self.counts.len() + self.presence.len() * std::mem::size_of::<u64>()
    }

    fn write_row(&self, n: NodeId, out: &mut [f32]) {
        assert_eq!(out.len(), self.label_count, "row width mismatch");
        for (l, slot) in out.iter_mut().enumerate() {
            *slot = self.count(n, l) as f32 / self.scale;
        }
    }

    fn row_satisfies(&self, n: NodeId, query_row: &[f32]) -> bool {
        let shared = self.label_count.min(query_row.len());
        // Query labels beyond this store's alphabet must carry no
        // weight — same tail rule as the dense `satisfies`.
        if !tail_is_zero(query_row, shared) {
            return false;
        }
        let prow = self.presence_row(n);
        for (l, &w) in query_row[..shared].iter().enumerate() {
            let needed = self.quantize(w);
            if needed == 0 {
                continue;
            }
            // Stage 1 — presence tier: a needed label with a clear bit
            // rejects without reading the counter slab.
            if prow[l >> 6] & (1u64 << (l & 63)) == 0 {
                return false;
            }
            // Stage 2 — saturating counter compare. Both sides went
            // through the same monotone quantization, so a true match
            // can never fail here (module docs).
            if self.count(n, l) < needed {
                return false;
            }
        }
        true
    }

    fn row_score(&self, n: NodeId, query_row: &[f32]) -> f32 {
        // Mirrors `satisfiability_score` term-for-term over dequantized
        // counters: identical to dense while nothing saturates (the
        // scale is lossless on the signature grid), merely approximate
        // past the cap — scores order visits, they never decide.
        let mut sum = 0.0f32;
        let mut terms = 0u32;
        for (i, &w) in query_row.iter().enumerate() {
            if w > 0.0 {
                let c = if i < self.label_count {
                    self.count(n, i) as f32 / self.scale
                } else {
                    0.0
                };
                sum += c / w;
                terms += 1;
            }
        }
        if terms == 0 {
            f32::INFINITY
        } else {
            sum / terms as f32
        }
    }

    fn rows_satisfy(&self, range: std::ops::Range<NodeId>, query_row: &[f32], out: &mut [bool]) {
        assert_eq!(out.len(), range.len(), "output length mismatch");
        let shared = self.label_count.min(query_row.len());
        if !tail_is_zero(query_row, shared) {
            out.fill(false);
            return;
        }
        // Quantize the query once for the whole block: the sparse
        // needed-count list drives the counter compares, and its
        // per-word presence masks drive the word-at-a-time stage-1
        // fast path.
        let mut needs: Vec<(usize, u32)> = Vec::new();
        let mut qmask = vec![0u64; self.words_per_row];
        for (l, &w) in query_row[..shared].iter().enumerate() {
            let needed = self.quantize(w);
            if needed > 0 {
                needs.push((l, needed));
                qmask[l >> 6] |= 1u64 << (l & 63);
            }
        }
        let start = range.start as usize;
        for (i, slot) in out.iter_mut().enumerate() {
            // Stage 1 — presence words: any needed label missing from
            // the row rejects on |L|/64 AND-NOT words, without
            // touching the counter slab.
            let prow = self.presence_row((start + i) as NodeId);
            let mut missing = 0u64;
            for (&have, &need) in prow.iter().zip(&qmask) {
                missing |= !have & need;
            }
            if missing != 0 {
                *slot = false;
                continue;
            }
            // Stage 2 — saturating counter compares on the needed
            // labels only.
            let base = (start + i) * self.label_count;
            *slot = needs.iter().all(|&(l, needed)| self.counts[base + l] as u32 >= needed);
        }
    }

    fn rows_score(&self, range: std::ops::Range<NodeId>, query_row: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), range.len(), "output length mismatch");
        let (active, terms) = active_terms(query_row, self.label_count);
        if terms == 0 {
            out.fill(f32::INFINITY);
            return;
        }
        let start = range.start as usize;
        for (i, slot) in out.iter_mut().enumerate() {
            let base = (start + i) * self.label_count;
            let mut sum = 0.0f32;
            for &(l, w) in &active {
                sum += (self.counts[base + l] as f32 / self.scale) / w;
            }
            *slot = sum / terms as f32;
        }
    }

    fn gather(&self, ids: &[NodeId]) -> SigStore {
        let mut out = Self::empty(self.label_count, self.scale);
        out.counts.reserve(ids.len() * self.label_count);
        out.presence.reserve(ids.len() * self.words_per_row);
        for &n in ids {
            let base = n as usize * self.label_count;
            out.counts.extend_from_slice(&self.counts[base..base + self.label_count]);
            out.presence.extend_from_slice(self.presence_row(n));
        }
        SigStore::Compact(out)
    }

    fn truncated_store(&self, label_count: usize) -> SigStore {
        SigStore::Compact(self.truncated_compact(label_count))
    }

    fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.label_count, "row width mismatch");
        let n = self.node_count();
        self.counts.resize(self.counts.len() + self.label_count, 0);
        self.presence.resize(self.presence.len() + self.words_per_row, 0);
        self.set_row(n as NodeId, row);
    }

    fn set_row(&mut self, n: NodeId, row: &[f32]) {
        assert_eq!(row.len(), self.label_count, "row width mismatch");
        let base = n as usize * self.label_count;
        let pbase = n as usize * self.words_per_row;
        for w in &mut self.presence[pbase..pbase + self.words_per_row] {
            *w = 0;
        }
        for (l, &v) in row.iter().enumerate() {
            let q = self.quantize(v);
            // `quantize` clips at the u8 cap, so the cast is exact.
            self.counts[base + l] = q as u8;
            if q > 0 {
                self.presence[pbase + (l >> 6)] |= 1u64 << (l & 63);
            }
        }
    }
}

/// An owned signature store of either backend — what a deployment
/// context actually holds. Dispatch is a two-arm match (no boxing), and
/// the enum itself implements [`SignatureStore`], so `&SigStore`
/// coerces to `&dyn SignatureStore` wherever the engine is generic over
/// storage.
#[derive(Debug, Clone, PartialEq)]
pub enum SigStore {
    /// Dense f32 rows.
    Dense(SignatureMatrix),
    /// Quantized counters + presence bitset.
    Compact(CompactStore),
}

impl SigStore {
    /// Wrap a freshly built dense matrix in the requested backend,
    /// dropping the dense copy when quantizing. `scale` is the
    /// fixed-point scale for compact backends (see [`default_scale`]).
    pub fn from_matrix(m: SignatureMatrix, kind: SigStoreKind, scale: f32) -> Self {
        match kind {
            SigStoreKind::Dense => SigStore::Dense(m),
            SigStoreKind::Compact => SigStore::Compact(CompactStore::from_matrix(&m, scale)),
        }
    }

    /// The dense matrix, when this is the dense backend (the bit-exact
    /// repro surface: pinned paper-example tests and figure benches
    /// read raw f32 rows).
    pub fn dense(&self) -> Option<&SignatureMatrix> {
        match self {
            SigStore::Dense(m) => Some(m),
            SigStore::Compact(_) => None,
        }
    }

    /// Which backend this is.
    pub fn kind(&self) -> SigStoreKind {
        match self {
            SigStore::Dense(_) => SigStoreKind::Dense,
            SigStore::Compact(c) => SignatureStore::kind(c),
        }
    }

    /// Number of node rows.
    pub fn node_count(&self) -> usize {
        match self {
            SigStore::Dense(m) => m.node_count(),
            SigStore::Compact(c) => SignatureStore::node_count(c),
        }
    }

    /// Number of label columns.
    pub fn label_count(&self) -> usize {
        match self {
            SigStore::Dense(m) => m.label_count(),
            SigStore::Compact(c) => SignatureStore::label_count(c),
        }
    }

    /// Resident bytes of the index payload.
    pub fn index_bytes(&self) -> usize {
        match self {
            SigStore::Dense(m) => SignatureStore::index_bytes(m),
            SigStore::Compact(c) => SignatureStore::index_bytes(c),
        }
    }

    /// Borrow row `n` as f32: the dense backend lends its row directly
    /// (no copy, no allocation); the compact backend dequantizes into
    /// `buf` and lends that. This is how the ML feature/cache-key path
    /// reads rows without committing the hot path to a copy.
    pub fn row_view<'a>(&'a self, n: NodeId, buf: &'a mut Vec<f32>) -> &'a [f32] {
        match self {
            SigStore::Dense(m) => m.row(n),
            SigStore::Compact(c) => {
                buf.resize(SignatureStore::label_count(c), 0.0);
                c.write_row(n, buf);
                buf
            }
        }
    }
}

impl SignatureStore for SigStore {
    fn kind(&self) -> SigStoreKind {
        SigStore::kind(self)
    }

    fn node_count(&self) -> usize {
        SigStore::node_count(self)
    }

    fn label_count(&self) -> usize {
        SigStore::label_count(self)
    }

    fn index_bytes(&self) -> usize {
        SigStore::index_bytes(self)
    }

    fn write_row(&self, n: NodeId, out: &mut [f32]) {
        match self {
            SigStore::Dense(m) => SignatureStore::write_row(m, n, out),
            SigStore::Compact(c) => c.write_row(n, out),
        }
    }

    fn row_satisfies(&self, n: NodeId, query_row: &[f32]) -> bool {
        match self {
            SigStore::Dense(m) => satisfies(m.row(n), query_row),
            SigStore::Compact(c) => c.row_satisfies(n, query_row),
        }
    }

    fn row_score(&self, n: NodeId, query_row: &[f32]) -> f32 {
        match self {
            SigStore::Dense(m) => satisfiability_score(m.row(n), query_row),
            SigStore::Compact(c) => c.row_score(n, query_row),
        }
    }

    fn rows_satisfy(&self, range: std::ops::Range<NodeId>, query_row: &[f32], out: &mut [bool]) {
        match self {
            SigStore::Dense(m) => SignatureStore::rows_satisfy(m, range, query_row, out),
            SigStore::Compact(c) => c.rows_satisfy(range, query_row, out),
        }
    }

    fn rows_score(&self, range: std::ops::Range<NodeId>, query_row: &[f32], out: &mut [f32]) {
        match self {
            SigStore::Dense(m) => SignatureStore::rows_score(m, range, query_row, out),
            SigStore::Compact(c) => c.rows_score(range, query_row, out),
        }
    }

    fn gather(&self, ids: &[NodeId]) -> SigStore {
        match self {
            SigStore::Dense(m) => SignatureStore::gather(m, ids),
            SigStore::Compact(c) => c.gather(ids),
        }
    }

    fn truncated_store(&self, label_count: usize) -> SigStore {
        match self {
            SigStore::Dense(m) => SignatureStore::truncated_store(m, label_count),
            SigStore::Compact(c) => c.truncated_store(label_count),
        }
    }

    fn push_row(&mut self, row: &[f32]) {
        match self {
            SigStore::Dense(m) => SignatureStore::push_row(m, row),
            SigStore::Compact(c) => c.push_row(row),
        }
    }

    fn set_row(&mut self, n: NodeId, row: &[f32]) {
        match self {
            SigStore::Dense(m) => SignatureStore::set_row(m, n, row),
            SigStore::Compact(c) => c.set_row(n, row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_graph::builder::graph_from;

    fn paper_matrix() -> SignatureMatrix {
        // Figure 2 of the paper (depth 2) — quarter-grid weights.
        let g = graph_from(&[0, 1, 1, 2, 3], &[(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        crate::matrix_signatures(&g, 2)
    }

    #[test]
    fn quantization_is_lossless_on_the_signature_grid() {
        let m = paper_matrix();
        let c = CompactStore::from_matrix(&m, default_scale(2));
        let mut buf = vec![0.0; m.label_count()];
        for n in 0..m.node_count() as NodeId {
            c.write_row(n, &mut buf);
            assert_eq!(&buf[..], m.row(n), "node {n} dequantizes bit-exactly");
        }
    }

    #[test]
    fn satisfies_and_score_match_dense_below_cap() {
        let m = paper_matrix();
        let c = CompactStore::from_matrix(&m, default_scale(2));
        for n in 0..m.node_count() as NodeId {
            for q in 0..m.node_count() as NodeId {
                let qrow = m.row(q);
                assert_eq!(
                    c.row_satisfies(n, qrow),
                    satisfies(m.row(n), qrow),
                    "satisfies({n}, {q})"
                );
                assert_eq!(
                    c.row_score(n, qrow).to_bits(),
                    satisfiability_score(m.row(n), qrow).to_bits(),
                    "score({n}, {q})"
                );
            }
        }
    }

    #[test]
    fn saturation_never_prunes_a_true_match() {
        // Candidate weights that blow far past the u8 cap at scale 4:
        // a true match (candidate >= query pointwise) must still pass,
        // whether the query side saturates or not.
        let m = SignatureMatrix::from_flat(
            vec![
                500.0, 50.0, 0.25, // candidate: saturates on label 0
                400.0, 30.0, 0.25, // query: also saturates on label 0
            ],
            3,
        );
        let c = CompactStore::from_matrix(&m, 4.0);
        assert_eq!(c.cap(), 255);
        assert!(c.quantize(500.0) == 255 && c.quantize(400.0) == 255);
        assert!(satisfies(m.row(0), m.row(1)), "dense ground truth");
        assert!(c.row_satisfies(0, m.row(1)), "saturated compare stays conservative");
        // The reverse violates on label 1 (30 < 50, both far below the
        // cap), so the quantized filter must still reject it. (On the
        // cap-saturated label 0 both sides clip to 255 — saturation can
        // only weaken the filter, never invert a below-cap rejection.)
        assert!(!satisfies(m.row(1), m.row(0)));
        assert!(!c.row_satisfies(1, m.row(0)));
    }

    #[test]
    fn quantized_filter_is_conservative_on_random_rows() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let l = rng.gen_range(1..9usize);
            let cand: Vec<f32> = (0..l).map(|_| rng.gen_range(0..400) as f32 * 0.25).collect();
            // True matches by construction: query <= candidate.
            let query: Vec<f32> = cand.iter().map(|&c| c * rng.gen_range(0.0..=1.0f32)).collect();
            let m = SignatureMatrix::from_flat(cand.clone(), l);
            let c = CompactStore::from_matrix(&m, 4.0);
            assert!(
                c.row_satisfies(0, &query),
                "true match pruned: cand {cand:?} query {query:?}"
            );
        }
    }

    #[test]
    fn presence_tier_rejects_missing_labels() {
        let m = SignatureMatrix::from_flat(vec![1.0, 0.0, 2.0], 3);
        let c = CompactStore::from_matrix(&m, 4.0);
        // Label 1 is absent from the candidate: one presence bit test.
        assert!(!c.row_satisfies(0, &[0.0, 0.25, 0.0]));
        assert!(c.row_satisfies(0, &[1.0, 0.0, 2.0]));
    }

    #[test]
    fn tail_labels_beyond_alphabet_follow_dense_rule() {
        let m = SignatureMatrix::from_flat(vec![1.0, 1.0], 2);
        let c = CompactStore::from_matrix(&m, 4.0);
        assert!(!c.row_satisfies(0, &[1.0, 0.0, 0.5]));
        assert!(c.row_satisfies(0, &[1.0, 0.0, 0.0]));
    }

    #[test]
    fn gather_and_truncate_preserve_rows() {
        let m = paper_matrix();
        let store: SigStore = SigStore::from_matrix(m.clone(), SigStoreKind::Compact, 4.0);
        let picked = [4u32, 0, 2];
        let sub = store.gather(&picked);
        let mut buf = Vec::new();
        for (local, &global) in picked.iter().enumerate() {
            assert_eq!(sub.row_view(local as NodeId, &mut buf), m.row(global));
        }
        let trimmed = store.truncated_store(2);
        assert_eq!(trimmed.label_count(), 2);
        for n in 0..m.node_count() as NodeId {
            assert_eq!(trimmed.row_view(n, &mut buf), &m.row(n)[..2]);
        }
    }

    #[test]
    fn push_and_set_row_maintain_presence() {
        let mut c = CompactStore::empty(70, 4.0);
        let mut row = vec![0.0f32; 70];
        row[0] = 1.0;
        row[69] = 2.5;
        c.push_row(&row);
        assert_eq!(SignatureStore::node_count(&c), 1);
        let mut out = vec![0.0; 70];
        c.write_row(0, &mut out);
        assert_eq!(out, row);
        assert!(c.row_satisfies(0, &row));
        // Repair hook: overwrite clears stale presence bits.
        let mut row2 = vec![0.0f32; 70];
        row2[5] = 0.75;
        c.set_row(0, &row2);
        c.write_row(0, &mut out);
        assert_eq!(out, row2);
        assert!(!c.row_satisfies(0, &row), "old labels no longer present");
        assert!(c.row_satisfies(0, &row2));
    }

    #[test]
    fn index_bytes_undercut_dense_by_three_x() {
        let m = SignatureMatrix::zeroed(1000, 64);
        let dense_bytes = SignatureStore::index_bytes(&m);
        let c = CompactStore::from_matrix(&m, 4.0);
        assert_eq!(dense_bytes, 1000 * 64 * 4);
        assert!(
            SignatureStore::index_bytes(&c) * 3 <= dense_bytes,
            "u8 + presence must stay under a third of dense: {} vs {dense_bytes}",
            SignatureStore::index_bytes(&c)
        );
    }

    #[test]
    fn batch_kernels_match_per_row_over_every_range() {
        let m = paper_matrix();
        let stores: Vec<SigStore> = vec![
            SigStore::Dense(m.clone()),
            SigStore::from_matrix(m.clone(), SigStoreKind::Compact, default_scale(2)),
        ];
        let nodes = m.node_count() as NodeId;
        for store in &stores {
            for q in 0..nodes {
                let qrow = m.row(q).to_vec();
                for start in 0..=nodes {
                    for end in start..=nodes {
                        let len = (end - start) as usize;
                        let mut sat = vec![false; len];
                        let mut score = vec![0.0f32; len];
                        store.rows_satisfy(start..end, &qrow, &mut sat);
                        store.rows_score(start..end, &qrow, &mut score);
                        for i in 0..len {
                            let n = start + i as NodeId;
                            assert_eq!(
                                sat[i],
                                store.row_satisfies(n, &qrow),
                                "satisfy {:?} range {start}..{end} node {n} query {q}",
                                store.kind()
                            );
                            assert_eq!(
                                score[i].to_bits(),
                                store.row_score(n, &qrow).to_bits(),
                                "score {:?} range {start}..{end} node {n} query {q}",
                                store.kind()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_satisfy_preserves_nan_verdicts() {
        // A NaN candidate weight never compares less-than, so the
        // scalar early-exit test lets it pass; the branch-free lanes
        // must agree bit-for-bit (this is why the kernel negates the
        // `<` predicate instead of testing `>=`).
        let m = SignatureMatrix::from_flat(
            vec![f32::NAN, 2.0, 1.0, 0.5, 0.25, 2.0, 1.0, 0.5],
            4,
        );
        let q = [1.0f32, 1.0, 1.0, 0.25];
        let mut out = [false; 2];
        SignatureStore::rows_satisfy(&m, 0..2, &q, &mut out);
        assert_eq!(out[0], satisfies(m.row(0), &q));
        assert!(out[0], "NaN weight passes the scalar test, so batch must too");
        assert_eq!(out[1], satisfies(m.row(1), &q));
        assert!(!out[1], "0.25 < 1.0 rejects in both paths");
    }

    #[test]
    fn batch_kernels_handle_degenerate_shapes() {
        let m = paper_matrix();
        let store = SigStore::Dense(m.clone());
        let qrow = m.row(0).to_vec();
        // Empty range: nothing written, nothing read.
        store.rows_satisfy(2..2, &qrow, &mut []);
        store.rows_score(2..2, &qrow, &mut []);
        // All-zero query: every row satisfies, every score is +inf.
        let zeros = vec![0.0f32; m.label_count()];
        let n = m.node_count();
        let mut sat = vec![false; n];
        let mut score = vec![0.0f32; n];
        store.rows_satisfy(0..n as NodeId, &zeros, &mut sat);
        store.rows_score(0..n as NodeId, &zeros, &mut score);
        assert!(sat.iter().all(|&b| b));
        assert!(score.iter().all(|&s| s == f32::INFINITY));
        // Query wider than the alphabet with weight in the tail:
        // whole block rejected by the hoisted tail rule.
        let mut wide = zeros.clone();
        wide.push(1.0);
        store.rows_satisfy(0..n as NodeId, &wide, &mut sat);
        assert!(sat.iter().all(|&b| !b));
    }

    #[test]
    fn single_label_fast_path_matches_scalar() {
        // label_count == 1 takes the across-rows vector path.
        let m = SignatureMatrix::from_flat(vec![0.0, 0.25, 0.5, 1.0, 2.0], 1);
        for qw in [0.0f32, 0.25, 0.6, 2.0, 5.0] {
            let q = [qw];
            let mut sat = [false; 5];
            let mut score = [0.0f32; 5];
            SignatureStore::rows_satisfy(&m, 0..5, &q, &mut sat);
            SignatureStore::rows_score(&m, 0..5, &q, &mut score);
            for n in 0..5u32 {
                assert_eq!(sat[n as usize], satisfies(m.row(n), &q), "q={qw} n={n}");
                assert_eq!(
                    score[n as usize].to_bits(),
                    satisfiability_score(m.row(n), &q).to_bits(),
                    "q={qw} n={n}"
                );
            }
        }
    }

    #[test]
    fn kind_parse_roundtrip() {
        for k in [SigStoreKind::Dense, SigStoreKind::Compact] {
            assert_eq!(SigStoreKind::parse(k.name()), Some(k));
        }
        assert_eq!(SigStoreKind::parse("sparse"), None);
        assert_eq!(SigStoreKind::parse("compact16"), None);
    }

    #[test]
    fn dense_store_hooks_match_matrix_ops() {
        let mut m: SigStore = SigStore::Dense(SignatureMatrix::zeroed(1, 3));
        m.push_row(&[1.0, 0.5, 0.0]);
        m.set_row(0, &[0.25, 0.0, 0.0]);
        let d = m.dense().unwrap();
        assert_eq!(d.row(0), &[0.25, 0.0, 0.0]);
        assert_eq!(d.row(1), &[1.0, 0.5, 0.0]);
    }
}
