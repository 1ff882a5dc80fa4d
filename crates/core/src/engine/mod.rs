//! The layered SmartPSI engine.
//!
//! What used to be one monolithic `smart.rs` is split into explicit
//! layers, each owning one concern of the paper's pipeline
//! (§4.2–§4.3), stacked bottom-up:
//!
//! ```text
//!   context   per-graph immutable state: CSR graph + SignatureMatrix
//!      │      behind an Arc, shareable across queries and threads
//!      ▼
//!   training  per-query sample selection, ground truth, plan timing,
//!      │      forest fitting → TrainedSession
//!      ▼
//!   ladder    the optimist/pessimist/realist stage-1/2/3 preemptive
//!      │      executor with doubling budgets, and the exact-pessimist
//!      │      routine, per node
//!      ▼
//!   exec      the realist's one driver (one worker on the calling
//!      │      thread; more run training, fitting, phase-A inference
//!      │      and the grab loop on the work-stealing pool; the
//!      │      two-thread baseline lives in twothread), matched from
//!      │      the RunSpec in SmartPsi::run
//!      ▼
//!   service   PsiService: k ≥ 1 shards, each a persistent worker
//!   + shard   pool serving a stream of (query, spec) jobs with
//!      │      cross-query cache reuse; k > 1 range-partitions the
//!      │      graph with a ghost-node halo and scatter-gathers
//!      ▼
//!   net       NetServer: the TCP front door — line-JSON protocol
//!             (proto), token-bucket quotas, cost-laddered queue
//!             shedding, deadlines, graceful drain
//! ```
//!
//! Side modules ride on the stack: [`evolve`] maintains an
//! incrementally-updated deployment ([`EvolvingContext`]), [`shard`]
//! holds the k > 1 half of the service (partition, halo, routing,
//! merge), [`deploy`] the one [`DeploymentSpec`] builder, and the
//! crate-private `pool` owns the process-global lazy worker pool the
//! realist's driver draws its OS threads from.
//!
//! [`crate::smart`] remains the thin public facade: [`SmartPsi`]
//! wraps an `Arc<GraphContext>`, and `SmartPsi::run` — the only way
//! into any executor — matches its [`RunSpec`](crate::RunSpec) to one
//! driver. The spec, read together with the context's
//! [`SmartPsiConfig`], is the only per-run settings struct.
//!
//! [`SmartPsi`]: crate::SmartPsi

pub mod context;
pub mod deploy;
pub mod evolve;
pub mod exec;
pub mod ladder;
pub mod net;
pub(crate) mod pool;
pub mod proto;
pub mod service;
pub mod shard;
pub mod training;

pub use context::{GraphContext, SmartPsiConfig};
pub use deploy::DeploymentSpec;
pub use evolve::{EvolvingContext, UpdateError, UpdateReport};
pub use exec::PredictionCache;
pub use net::{NetServer, NetServerConfig};
pub use proto::{ErrorKind, ProtoError, Request};
pub use service::{
    DrainReport, JobHandle, PsiService, ServiceStats, ABORTED_BY_SHUTDOWN_REASON,
    DEADLINE_EXPIRED_REASON, MAX_LIVE_SHAPES, QUERY_TOO_DEEP_REASON,
};
pub use shard::DEFAULT_HALO_DEPTH;
