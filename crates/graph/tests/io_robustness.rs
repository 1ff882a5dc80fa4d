//! Robustness: the text parser must never panic — any byte soup either
//! parses to a valid graph or returns a structured error.

use proptest::prelude::*;
use psi_graph::io::{read_graph, write_graph};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary UTF-8 input never panics the parser.
    #[test]
    fn parser_never_panics_on_text(input in ".{0,256}") {
        let _ = read_graph(input.as_bytes());
    }

    /// Arbitrary bytes never panic the parser.
    #[test]
    fn parser_never_panics_on_bytes(input in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_graph(input.as_slice());
    }

    /// Structured-ish records: random v/e lines with random numbers —
    /// parse, and if accepted the graph must be internally consistent.
    #[test]
    fn accepted_graphs_are_consistent(
        nodes in 0usize..20,
        edges in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..30),
    ) {
        let mut text = String::new();
        for i in 0..nodes {
            text.push_str(&format!("v {i} {}\n", i % 4));
        }
        for (u, v) in edges {
            text.push_str(&format!("e {u} {v}\n"));
        }
        // A rejection (out-of-range / self-loop) is fine; an accepted
        // graph must be well-formed.
        if let Ok(g) = read_graph(text.as_bytes()) {
            prop_assert_eq!(g.node_count(), nodes);
            for u in g.node_ids() {
                for &v in g.neighbors(u) {
                    prop_assert!(g.has_edge(v, u), "symmetry");
                    prop_assert!((v as usize) < nodes);
                }
            }
        }
    }

    /// Write → read is the identity on generated graphs.
    #[test]
    fn roundtrip_identity(n in 1usize..20, seed in any::<u64>()) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = psi_graph::GraphBuilder::new();
        for _ in 0..n {
            b.add_node(rng.gen_range(0..5));
        }
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen_bool(0.3) {
                    b.add_labeled_edge(u, v, rng.gen_range(0..3));
                }
            }
        }
        let g = b.build().unwrap();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let g2 = read_graph(buf.as_slice()).unwrap();
        prop_assert_eq!(g.labels(), g2.labels());
        prop_assert_eq!(
            g.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );
    }
}
