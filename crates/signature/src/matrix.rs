//! Matrix-based signature computation (the paper's optimization, §3.1).
//!
//! Instead of one BFS per node, run `D` global passes of the recurrence
//!
//! ```text
//! NSⁱ(n) = NSⁱ⁻¹(n) + ½ · Σ_{m ∈ adj(n)} NSⁱ⁻¹(m)
//! ```
//!
//! over the dense `|V| × |L|` signature matrix, i.e. `D` products of the
//! (implicit, CSR) adjacency matrix with the signature matrix. Cost is
//! `O(|N|·|L|·d·D)` — linear in average degree rather than exponential
//! in depth. As the paper notes, weights differ from the exploration
//! method (a node reachable along several paths is counted once per
//! path, with the weight of each path length), but they measure the same
//! notion of label proximity and are what SmartPSI actually deploys.

use psi_graph::Graph;

use crate::SignatureMatrix;

/// Compute all node signatures by `depth` passes of the matrix
/// recurrence.
pub fn matrix_signatures(g: &Graph, depth: u32) -> SignatureMatrix {
    let n = g.node_count();
    let l = g.label_count();
    let mut cur = SignatureMatrix::zeroed(n, l);
    if n == 0 || l == 0 {
        return cur;
    }
    // NS⁰: one-hot label rows.
    for v in 0..n {
        cur.row_mut(v as u32)[g.label(v as u32) as usize] = 1.0;
    }
    // Every `next` row is fully overwritten below (copy_from_slice then
    // accumulate), so a zeroed scratch matrix suffices — cloning `cur`
    // would copy |V|·|L| floats only to discard them.
    let mut next = SignatureMatrix::zeroed(n, l);
    for _ in 0..depth {
        for v in 0..n as u32 {
            // next[v] = cur[v] + 0.5 * sum_{m in adj(v)} cur[m]
            let out = next.row_mut(v);
            out.copy_from_slice(cur.row(v));
            // `cur` and `next` are distinct matrices, so reading `cur`
            // rows while writing `next.row_mut(v)` never aliases.
            //
            // The exact shape of this inner loop — neighbors in
            // ascending id order, `+= 0.5 * s` element-wise — is a
            // contract: `IncrementalSignatures` replays it verbatim so
            // incrementally repaired rows are bit-identical to a
            // from-scratch build (see incremental.rs).
            for &m in g.neighbors(v) {
                let src = cur.row(m);
                for (o, &s) in out.iter_mut().zip(src) {
                    *o += 0.5 * s;
                }
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_graph::builder::graph_from;

    /// The worked example from §3.1: query of Figure 2(a).
    /// Nodes v0(A) v1(B) v2(B) v3(C) v4(D); edges v0-v1, v1-v2, v1-v3,
    /// v2-v3, v3-v4. Expected NS² row for v1: [1, 3, 5/4, 1/4].
    ///
    /// Note: the paper prints NS²(v3) = [1/4, 13/4, 2, 1], which is
    /// inconsistent with its own recurrence applied to its own NS¹
    /// (a typo in the paper); the recurrence yields [1/4, 5/2, 7/4, 1],
    /// which is what we assert. All other rows match the paper exactly.
    #[test]
    fn paper_figure2_example() {
        // labels: A=0 B=1 C=2 D=3
        let g = graph_from(&[0, 1, 1, 2, 3], &[(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        let sig = matrix_signatures(&g, 2);
        let expect = [
            [1.25, 1.25, 0.25, 0.0], // v0
            [1.0, 3.0, 1.25, 0.25],  // v1
            [0.25, 2.75, 1.25, 0.25], // v2
            [0.25, 2.5, 1.75, 1.0],  // v3 (see doc comment re paper typo)
            [0.0, 0.5, 1.0, 1.25],   // v4
        ];
        for (v, row) in expect.iter().enumerate() {
            for (l, &w) in row.iter().enumerate() {
                assert!(
                    (sig.row(v as u32)[l] - w).abs() < 1e-6,
                    "NS²[v{v}][{l}] = {} expected {w}",
                    sig.row(v as u32)[l]
                );
            }
        }
    }

    /// Intermediate NS¹ of the same example, also printed in the paper.
    #[test]
    fn paper_figure2_first_iteration() {
        let g = graph_from(&[0, 1, 1, 2, 3], &[(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        let sig = matrix_signatures(&g, 1);
        let expect = [
            [1.0, 0.5, 0.0, 0.0],
            [0.5, 1.5, 0.5, 0.0],
            [0.0, 1.5, 0.5, 0.0],
            [0.0, 1.0, 1.0, 0.5],
            [0.0, 0.0, 0.5, 1.0],
        ];
        for (v, row) in expect.iter().enumerate() {
            for (l, &w) in row.iter().enumerate() {
                assert!(
                    (sig.row(v as u32)[l] - w).abs() < 1e-6,
                    "NS¹[v{v}][{l}] = {} expected {w}",
                    sig.row(v as u32)[l]
                );
            }
        }
    }

    #[test]
    fn depth_zero_is_one_hot() {
        let g = graph_from(&[2, 0], &[(0, 1)]).unwrap();
        let sig = matrix_signatures(&g, 0);
        assert_eq!(sig.row(0), &[0.0, 0.0, 1.0]);
        assert_eq!(sig.row(1), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn matches_exploration_on_trees() {
        // On a tree there is exactly one path between any two nodes, so
        // within depth D both methods see each node once... but the
        // matrix method also walks back-and-forth paths (v->u->v), so
        // equality only holds for D=1.
        let g = graph_from(&[0, 1, 2, 1], &[(0, 1), (0, 2), (2, 3)]).unwrap();
        let me = matrix_signatures(&g, 1);
        let ex = crate::exploration_signatures(&g, 1);
        for v in 0..4u32 {
            for l in 0..3 {
                assert!((me.row(v)[l] - ex.row(v)[l]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn matrix_dominates_exploration_pointwise() {
        // The matrix method counts every walk, the exploration method
        // only shortest paths once — so matrix weights are >= explore
        // weights everywhere. (This is why Prop. 3.2 remains safe when
        // both sides use the same method.)
        let g = graph_from(
            &[0, 1, 1, 2, 0],
            &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)],
        )
        .unwrap();
        let me = matrix_signatures(&g, 3);
        let ex = crate::exploration_signatures(&g, 3);
        for v in 0..5u32 {
            for l in 0..3 {
                assert!(me.row(v)[l] >= ex.row(v)[l] - 1e-6);
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = psi_graph::GraphBuilder::new().build().unwrap();
        let sig = matrix_signatures(&g, 2);
        assert_eq!(sig.node_count(), 0);
    }

    #[test]
    fn isolated_node_keeps_identity_row() {
        let mut b = psi_graph::GraphBuilder::new();
        b.add_node(1);
        let g = b.build().unwrap();
        let sig = matrix_signatures(&g, 5);
        assert_eq!(sig.row(0), &[0.0, 1.0]);
    }
}
