//! Bitwise parity between the batched structure-of-arrays kernels
//! (`rows_satisfy` / `rows_score`) and their per-row counterparts, for
//! every signature-store backend.
//!
//! The batch kernels are the stage-1 hot path: the engine's phase-A
//! sweep prunes and scores whole candidate ranges through them, and
//! answers stay bit-identical across executors only if a batched
//! verdict can never diverge from the per-row call it replaces. The
//! per-row method is the `chunk = 1` case by construction; this suite
//! pins the SoA overrides (f32 chunks for Dense, presence-bitset words
//! for Compact) to it over random matrices, random query
//! rows, and random subranges, plus the chunk-boundary edge cases —
//! empty range, unaligned tail, full matrix.

use proptest::prelude::*;
use psi_graph::builder::graph_from;
use psi_graph::Graph;
use psi_signature::{default_scale, matrix_signatures, SigStore, SigStoreKind, SignatureStore};

const KINDS: [SigStoreKind; 2] = [SigStoreKind::Dense, SigStoreKind::Compact];

fn random_graph() -> impl Strategy<Value = Graph> {
    (2usize..=48, any::<u64>()).prop_map(|(n, seed)| {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let labels: Vec<u16> = (0..n).map(|_| rng.gen_range(0..4)).collect();
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen_bool(0.2) {
                    edges.push((u, v));
                }
            }
        }
        graph_from(&labels, &edges).expect("valid")
    })
}

/// Assert batch ≡ per-row over `range` for one store. Scores compare
/// by bit pattern, not tolerance: the kernels must preserve the exact
/// accumulation order of the scalar path.
fn assert_parity(store: &SigStore, range: std::ops::Range<u32>, query_row: &[f32]) {
    let mut satisfy = vec![false; range.len()];
    let mut score = vec![0.0f32; range.len()];
    store.rows_satisfy(range.clone(), query_row, &mut satisfy);
    store.rows_score(range.clone(), query_row, &mut score);
    for (i, n) in range.enumerate() {
        assert_eq!(
            satisfy[i],
            store.row_satisfies(n, query_row),
            "{} rows_satisfy diverges at node {n}",
            store.kind().name()
        );
        assert_eq!(
            score[i].to_bits(),
            store.row_score(n, query_row).to_bits(),
            "{} rows_score diverges at node {n}: {} vs {}",
            store.kind().name(),
            score[i],
            store.row_score(n, query_row)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random subranges of a random signature matrix, queried with a
    /// real pivot row: batched and per-row verdicts/scores are
    /// bitwise equal on all three backends.
    #[test]
    fn batch_matches_per_row_on_random_ranges(
        g in random_graph(),
        pivot_sel in any::<u64>(),
        lo_sel in any::<u64>(),
        hi_sel in any::<u64>(),
    ) {
        let depth = 2;
        let m = matrix_signatures(&g, depth);
        let n = m.node_count() as u32;
        let pivot = (pivot_sel % n as u64) as u32;
        let query_row = m.row(pivot).to_vec();
        let a = (lo_sel % (n as u64 + 1)) as u32;
        let b = (hi_sel % (n as u64 + 1)) as u32;
        let range = a.min(b)..a.max(b);
        for kind in KINDS {
            let store = SigStore::from_matrix(m.clone(), kind, default_scale(depth));
            assert_parity(&store, range.clone(), &query_row);
        }
    }

    /// A query row scaled off the stored values exercises both sides
    /// of the satisfaction epsilon and the compact stores' quantized
    /// tail rule.
    #[test]
    fn batch_matches_per_row_under_scaled_query_rows(
        g in random_graph(),
        pivot_sel in any::<u64>(),
        scale in 0.25f32..4.0,
    ) {
        let depth = 2;
        let m = matrix_signatures(&g, depth);
        let n = m.node_count() as u32;
        let pivot = (pivot_sel % n as u64) as u32;
        let query_row: Vec<f32> = m.row(pivot).iter().map(|&v| v * scale).collect();
        for kind in KINDS {
            let store = SigStore::from_matrix(m.clone(), kind, default_scale(depth));
            assert_parity(&store, 0..n, &query_row);
        }
    }
}

/// A deterministic 67-node graph: 67 is prime, so the full range is
/// unaligned for both the dense chunk width (8) and the bitset word
/// width (64), forcing every kernel's tail path.
fn tail_heavy_store(kind: SigStoreKind) -> (SigStore, Vec<f32>) {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(97);
    let n = 67usize;
    let labels: Vec<u16> = (0..n).map(|_| rng.gen_range(0..5)).collect();
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen_bool(0.15) {
                edges.push((u, v));
            }
        }
    }
    let g = graph_from(&labels, &edges).expect("valid");
    let m = matrix_signatures(&g, 2);
    let query_row = m.row(13).to_vec();
    (SigStore::from_matrix(m, kind, default_scale(2)), query_row)
}

#[test]
fn empty_range_is_a_no_op() {
    for kind in KINDS {
        let (store, row) = tail_heavy_store(kind);
        let mut satisfy: Vec<bool> = Vec::new();
        let mut score: Vec<f32> = Vec::new();
        store.rows_satisfy(5..5, &row, &mut satisfy);
        store.rows_score(5..5, &row, &mut score);
        assert!(satisfy.is_empty() && score.is_empty());
    }
}

#[test]
fn unaligned_tails_match_per_row() {
    for kind in KINDS {
        let (store, row) = tail_heavy_store(kind);
        // Ranges chosen to straddle chunk and word boundaries: inside
        // one word, across one boundary, and a tail shorter than any
        // chunk width.
        for range in [0..7u32, 3..9, 6..67, 60..67, 63..65, 66..67] {
            assert_parity(&store, range, &row);
        }
    }
}

#[test]
fn full_matrix_matches_per_row() {
    for kind in KINDS {
        let (store, row) = tail_heavy_store(kind);
        let n = store.node_count() as u32;
        assert_parity(&store, 0..n, &row);
    }
}
