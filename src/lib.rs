//! # smartpsi
//!
//! A complete Rust implementation of **Pivoted Subgraph Isomorphism**
//! after the EDBT 2019 paper *"Pivoted Subgraph Isomorphism: The
//! Optimist, the Pessimist and the Realist"*.
//!
//! Given a query graph `S` with a designated *pivot* node and a data
//! graph `G`, a PSI query returns the distinct data nodes that bind the
//! pivot in at least one subgraph-isomorphic embedding of `S` — one
//! witness per node instead of the exponentially many embeddings a
//! classic matcher enumerates.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`graph`] | `psi-graph` | CSR labeled graphs, builders, queries, I/O |
//! | [`signature`] | `psi-signature` | neighborhood signatures (§3.1–3.2) |
//! | [`datasets`] | `psi-datasets` | paper-matched synthetic datasets, RWR query extraction |
//! | [`matching`] | `psi-match` | Ullmann / VF2 / TurboIso(+) / CFL-Match baselines |
//! | [`ml`] | `psi-ml` | Random Forest, SVM, MLP (from scratch) |
//! | [`core`] | `psi-core` | optimistic/pessimistic evaluators, two-threaded baseline, **SmartPSI** |
//! | [`fsm`] | `psi-fsm` | frequent subgraph mining with PSI-based frequency evaluation |
//! | [`apps`] | `psi-apps` | §2.2 applications: neighborhood patterns, query discovery, node similarity |
//!
//! ## Quickstart
//!
//! ```
//! use smartpsi::core::{RunSpec, SmartPsi, SmartPsiConfig};
//! use smartpsi::datasets::{PaperDataset, QueryWorkload};
//!
//! // A Yeast-like protein-interaction graph.
//! let g = PaperDataset::Yeast.generate_scaled(0.2, 42);
//! // Load it into SmartPSI (precomputes all node signatures).
//! let engine = SmartPsi::new(g.clone(), SmartPsiConfig::default());
//! // Extract a 5-node pivoted query the way the paper does.
//! let workload = QueryWorkload::extract(&g, 5, 1, 7).unwrap();
//! let result = engine.run(&workload.queries[0], &RunSpec::new());
//! println!("{} valid bindings", result.count());
//! ```
//!
//! For a *stream* of queries, spawn a persistent service instead of
//! paying per-query pool setup:
//! `engine.deploy(&DeploymentSpec::new().workers(n))` resolves a
//! [`core::DeploymentSpec`] — worker count, sharding, evolving
//! updates, dense vs compact signature store — into a live
//! [`core::PsiService`] with a submission queue, shared signatures,
//! and a cross-query prediction cache (see the README's "Serving a
//! query stream" walkthrough and the `smartpsi batch` subcommand).

#![warn(missing_docs)]

pub use psi_apps as apps;
pub use psi_core as core;
pub use psi_datasets as datasets;
pub use psi_fsm as fsm;
pub use psi_graph as graph;
pub use psi_match as matching;
pub use psi_ml as ml;
pub use psi_signature as signature;
