//! # psi-signature
//!
//! Neighborhood signatures (§3.1–3.2 of the SmartPSI paper).
//!
//! A node's *neighborhood signature* is a vector of per-label weights
//! describing how labels are distributed around the node: labels on
//! close-by nodes contribute more (`2^-d` per node at distance `d`).
//! Signatures power all three pillars of the paper:
//!
//! * **pruning** (Proposition 3.2): a data node whose signature does not
//!   *satisfy* the query pivot's signature cannot be a PSI answer,
//! * **guidance**: the optimistic matcher orders candidates by the
//!   *satisfiability score* derived from signatures,
//! * **learning**: signatures are the feature vectors fed to the
//!   node-type and plan classifiers.
//!
//! Two construction algorithms are provided, exactly as in the paper:
//! the exploration-based method ([`explore::exploration_signatures`],
//! BFS per node, shortest-distance semantics, `O(|N|·|L|·d^D)`) and the
//! matrix-based method ([`matrix::matrix_signatures`], `D` sparse
//! row-sum passes, `O(|N|·|L|·d·D)`). Figure 8 of the paper compares
//! their cost; `psi-bench` regenerates that comparison.
//!
//! ```
//! use psi_graph::builder::graph_from;
//! use psi_signature::matrix_signatures;
//!
//! let g = graph_from(&[0, 1, 1], &[(0, 1), (1, 2)]).unwrap();
//! let sig = matrix_signatures(&g, 2);
//! // Node 0 sees its own label (0) with weight 1 plus nearby label-1 mass.
//! assert!(sig.row(0)[0] >= 1.0);
//! assert!(sig.row(0)[1] > 0.0);
//! ```

#![warn(missing_docs)]

pub mod explore;
pub mod incremental;
pub mod key;
pub mod matrix;
pub mod score;
pub mod store;

pub use explore::exploration_signatures;
pub use incremental::{IncrementalSignatures, RepairStats};
pub use key::SignatureKey;
pub use matrix::matrix_signatures;
pub use score::{satisfiability_score, satisfies, SATISFACTION_EPSILON};
pub use store::{default_scale, CompactStore, SigStore, SigStoreKind, SignatureStore};

use psi_graph::NodeId;

/// Default maximum propagation depth `D`; the paper's running examples
/// and experiments use 2.
pub const DEFAULT_DEPTH: u32 = 2;

/// Dense `|V| × |L|` matrix of neighborhood signatures.
///
/// Row `n` is the signature of node `n`; column `l` is the weight of
/// label `l`. Label alphabets in all paper datasets are small (≤ 71), so
/// dense rows are both compact and fast to compare.
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureMatrix {
    data: Vec<f32>,
    label_count: usize,
}

impl SignatureMatrix {
    /// Create a zeroed matrix for `nodes × labels`.
    pub fn zeroed(nodes: usize, label_count: usize) -> Self {
        Self {
            data: vec![0.0; nodes * label_count],
            label_count,
        }
    }

    /// Create from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if the buffer length is not a multiple of `label_count`
    /// (for non-zero `label_count`).
    pub fn from_flat(data: Vec<f32>, label_count: usize) -> Self {
        if label_count > 0 {
            assert_eq!(data.len() % label_count, 0, "flat buffer must be |V|*|L|");
        } else {
            assert!(data.is_empty(), "label_count 0 requires empty buffer");
        }
        Self { data, label_count }
    }

    /// Number of node rows.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.data.len().checked_div(self.label_count).unwrap_or(0)
    }

    /// Number of label columns.
    #[inline]
    pub fn label_count(&self) -> usize {
        self.label_count
    }

    /// Signature of node `n`.
    #[inline]
    pub fn row(&self, n: NodeId) -> &[f32] {
        let i = n as usize * self.label_count;
        &self.data[i..i + self.label_count]
    }

    /// Mutable signature of node `n`.
    #[inline]
    pub fn row_mut(&mut self, n: NodeId) -> &mut [f32] {
        let i = n as usize * self.label_count;
        &mut self.data[i..i + self.label_count]
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Append one zeroed row in place — `O(|L|)` amortized.
    ///
    /// This is how the incremental maintainer grows with its graph;
    /// reallocating a fresh matrix per added node (the pre-fix
    /// behavior) is quadratic over an insert stream.
    pub fn push_zeroed_row(&mut self) {
        self.data.resize(self.data.len() + self.label_count, 0.0);
    }

    /// Copy of this matrix keeping only the first `label_count`
    /// columns of every row.
    ///
    /// The evolving-graph engine keeps capacity-padded rows internally
    /// (extra all-zero columns, which never perturb the `f32`
    /// recurrence) and trims them when publishing a snapshot whose
    /// graph has a smaller label space.
    ///
    /// # Panics
    /// Panics if `label_count` exceeds the current column count.
    pub fn truncated(&self, label_count: usize) -> SignatureMatrix {
        assert!(
            label_count <= self.label_count,
            "cannot widen a matrix by truncation ({label_count} > {})",
            self.label_count
        );
        let mut out = SignatureMatrix::zeroed(self.node_count(), label_count);
        for n in 0..self.node_count() as u32 {
            out.row_mut(n).copy_from_slice(&self.row(n)[..label_count]);
        }
        out
    }

    /// Whether `row(u)` satisfies `query_row` (see [`score::satisfies`]).
    #[inline]
    pub fn row_satisfies(&self, u: NodeId, query_row: &[f32]) -> bool {
        score::satisfies(self.row(u), query_row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_dimensions() {
        let m = SignatureMatrix::zeroed(3, 4);
        assert_eq!(m.node_count(), 3);
        assert_eq!(m.label_count(), 4);
        assert!(m.row(2).iter().all(|&w| w == 0.0));
    }

    #[test]
    fn from_flat_roundtrip() {
        let m = SignatureMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(m.node_count(), 2);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.as_flat().len(), 4);
    }

    #[test]
    #[should_panic(expected = "flat buffer")]
    fn from_flat_rejects_ragged() {
        SignatureMatrix::from_flat(vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn zero_labels_edge_case() {
        let m = SignatureMatrix::zeroed(0, 0);
        assert_eq!(m.node_count(), 0);
        let m2 = SignatureMatrix::from_flat(vec![], 0);
        assert_eq!(m2.node_count(), 0);
    }

    #[test]
    fn push_zeroed_row_grows_in_place() {
        let mut m = SignatureMatrix::zeroed(1, 3);
        m.row_mut(0)[1] = 2.0;
        m.push_zeroed_row();
        assert_eq!(m.node_count(), 2);
        assert_eq!(m.row(0), &[0.0, 2.0, 0.0], "existing rows untouched");
        assert_eq!(m.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn truncated_drops_trailing_columns() {
        let m = SignatureMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3);
        let t = m.truncated(2);
        assert_eq!(t.label_count(), 2);
        assert_eq!(t.row(0), &[1.0, 2.0]);
        assert_eq!(t.row(1), &[4.0, 5.0]);
        // Full-width truncation is an identity copy.
        assert_eq!(m.truncated(3), m);
    }

    #[test]
    #[should_panic(expected = "cannot widen")]
    fn truncated_rejects_widening() {
        SignatureMatrix::zeroed(1, 2).truncated(3);
    }

    #[test]
    fn row_mut_updates() {
        let mut m = SignatureMatrix::zeroed(2, 2);
        m.row_mut(1)[0] = 9.0;
        assert_eq!(m.row(1), &[9.0, 0.0]);
        assert_eq!(m.row(0), &[0.0, 0.0]);
    }
}
