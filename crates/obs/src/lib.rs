//! # psi-obs
//!
//! Zero-dependency observability layer for the PSI engine: structured
//! tracing spans and a metrics registry behind a [`Recorder`] trait
//! whose no-op implementation costs one predictable branch per site.
//!
//! The paper's whole argument (EDBT 2019, §4–§5) is about *where the
//! time goes* — training vs. prediction vs. the three matching stages
//! of the preemptive executor — so every executor in `psi-core`
//! reports into this layer:
//!
//! * **Spans** ([`Phase`]) — wall-clock intervals for the query
//!   phases: train / prefilter / predict / match-S1 / match-S2 /
//!   match-S3 / exact-fallback / merge. Use the [`span!`] macro or
//!   [`timed`]; with a disabled recorder neither even reads the clock.
//! * **Counters** ([`Counter`]) — named monotonic counters (per-method
//!   node counts, steps burned, retries, cache hits/misses, grab-queue
//!   steals, recovered panics, …).
//! * **Histograms** ([`Histogram`]) — log₂-bucketed distributions
//!   (e.g. steps per candidate node).
//!
//! The concrete sinks live in [`metrics`] ([`MetricsRecorder`], a
//! thread-safe atomic registry that doubles as a per-worker buffer via
//! [`MetricsRecorder::drain_into`]) and [`profile`] ([`QueryProfile`],
//! the per-query report attached to every `PsiResult`, serializable to
//! JSON and pretty-printable as a phase-time table).
//!
//! ```
//! use psi_obs::{span, MetricsRecorder, NoopRecorder, Phase, Counter, Recorder};
//!
//! let rec = MetricsRecorder::new();
//! let sum = span!(&rec, Phase::Train, {
//!     rec.add(Counter::TrainedNodes, 3);
//!     1 + 2
//! });
//! assert_eq!(sum, 3);
//! assert_eq!(rec.counter(Counter::TrainedNodes), 3);
//! // The no-op recorder compiles down to the untimed body.
//! assert_eq!(span!(&NoopRecorder, Phase::Train, { 7 }), 7);
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod profile;

pub use metrics::{LogHistogram, MetricsRecorder, HIST_BUCKETS};
pub use profile::QueryProfile;

/// The traced phases of one PSI query, in execution order.
///
/// The phases are *disjoint*: no span nests inside another, so their
/// sum is a lower bound on the query's total wall time (uninstrumented
/// glue — loop overhead, signature-row lookups, queue traffic — makes
/// up the rest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// §4.2 training: ground-truth evaluation of the sample, plan
    /// timing, and fitting Models α and β.
    Train,
    /// Batched stage-1 prefilter: the structure-of-arrays
    /// `rows_satisfy`/`rows_score` sweep over the whole untrained
    /// candidate range, producing the survivor mask and score vector
    /// the prediction phase consumes.
    Prefilter,
    /// Per-node (method, plan) prediction: cache probe + forest
    /// inference.
    Predict,
    /// Stage 1 of the preemptive executor: first budgeted attempt with
    /// the predicted method.
    MatchS1,
    /// Stage 2: budgeted recovery attempts with alternating methods.
    MatchS2,
    /// Stage 3: the final unlimited attempt of the retry ladder.
    MatchS3,
    /// The exact-pessimist routine settling the survivors of a
    /// model-less plan (below the training threshold, or when every
    /// training node failed). Training's ground-truth runs use the same
    /// routine inside [`Phase::Train`].
    ExactFallback,
    /// Deterministic merge of per-worker partials (sorting, failure
    /// ledger, requeue recovery).
    Merge,
    /// Thread-pool spawn/attach latency: from the moment an executor
    /// decides to go parallel until each worker starts pulling work.
    /// Reported per worker so BENCH_parallel (per-query scoped pools)
    /// and BENCH_serve (persistent service) are comparable.
    PoolSpawn,
    /// Applying one evolving-graph update batch: incremental signature
    /// repair plus publishing the new epoch snapshot
    /// (`PsiService::apply_update` / `EvolvingContext` in `psi-core`).
    GraphUpdate,
    /// Merging per-shard partial answers of a scatter-gather query into
    /// one result: valid-set union, id translation back to global space,
    /// and failure-report aggregation (a sharded `PsiService` in
    /// `psi-core`).
    ShardMerge,
    /// Reading and parsing protocol lines off client sockets (the
    /// network front door's per-connection reader threads).
    NetRead,
    /// Serializing and writing protocol responses back to client
    /// sockets (the front door's per-connection writer threads).
    NetWrite,
}

/// Number of [`Phase`] variants.
pub const PHASE_COUNT: usize = 13;

impl Phase {
    /// All phases, in execution order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Train,
        Phase::Prefilter,
        Phase::Predict,
        Phase::MatchS1,
        Phase::MatchS2,
        Phase::MatchS3,
        Phase::ExactFallback,
        Phase::Merge,
        Phase::PoolSpawn,
        Phase::GraphUpdate,
        Phase::ShardMerge,
        Phase::NetRead,
        Phase::NetWrite,
    ];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Train => "train",
            Phase::Prefilter => "prefilter",
            Phase::Predict => "predict",
            Phase::MatchS1 => "match_s1",
            Phase::MatchS2 => "match_s2",
            Phase::MatchS3 => "match_s3",
            Phase::ExactFallback => "exact_fallback",
            Phase::Merge => "merge",
            Phase::PoolSpawn => "pool_spawn",
            Phase::GraphUpdate => "graph_update",
            Phase::ShardMerge => "shard_merge",
            Phase::NetRead => "net_read",
            Phase::NetWrite => "net_write",
        }
    }
}

/// Named monotonic counters of the metrics registry.
///
/// The first block mirrors the executor's per-candidate accounting and
/// satisfies the identity checked by [`QueryProfile::reconciles`]:
/// `TrainedNodes + ResolvedS1 + RecoveredS2 + RecoveredS3 +
/// FailedNodes + Unresolved == Candidates`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Candidate nodes considered (after the label/degree filter).
    Candidates,
    /// Candidates resolved during training (§4.2 ground truth).
    TrainedNodes,
    /// Candidates resolved by the first budgeted attempt (stage 1).
    ResolvedS1,
    /// Candidates recovered by a later budgeted attempt (stage 2).
    RecoveredS2,
    /// Candidates recovered by the unlimited fallback (stage 3).
    RecoveredS3,
    /// Candidates that stayed failed after the whole retry ladder.
    FailedNodes,
    /// Candidates cut off unresolved by a global deadline/cancel.
    Unresolved,
    /// Candidates evaluated with the optimistic method first.
    NodesOptimistic,
    /// Candidates evaluated with the pessimistic method first.
    NodesPessimistic,
    /// Candidates Model α predicted valid.
    PredictedValid,
    /// Search steps burned across all evaluations.
    Steps,
    /// Prediction-cache hits.
    CacheHits,
    /// Prediction-cache misses (a model inference was needed).
    CacheMisses,
    /// Per-node evaluation attempts beyond the first.
    Retries,
    /// Budget/spurious interrupts escalated to a bigger budget or the
    /// exact fallback.
    Escalations,
    /// Panicking per-node attempts contained by the isolation layer.
    PanicsRecovered,
    /// Grabs pulled from the shared work-stealing queue.
    GrabSteals,
    /// Candidates re-queued from dead workers and re-evaluated.
    Requeued,
    /// Worker threads that died mid-run.
    WorkerDeaths,
    /// Random-forest inferences (Model α + Model β calls).
    MlInferences,
    /// Queries a `PsiService` worker pool answered (service-level).
    QueriesServed,
    /// Prediction-cache hits on entries inserted by an *earlier* query
    /// (service-level: cross-query cache reuse).
    CrossQueryCacheHits,
    /// Epoch snapshots published by an evolving deployment (one per
    /// applied update batch).
    EpochsPublished,
    /// Signature rows recomputed by incremental repair of an evolving
    /// deployment.
    RowsRepaired,
    /// Cross-query prediction caches dropped because a graph update
    /// made their epoch stale (each invalidation retires one
    /// (epoch, query-shape) cache).
    CacheInvalidations,
    /// Shard jobs dispatched by scatter-gather queries: one increment
    /// per (query, shard) pair that actually received work — shards
    /// with no owned candidates are skipped and not counted.
    ShardFanout,
    /// Requests the front door's admission layer accepted into the
    /// service queue (the complement of [`Counter::Shed`]).
    Admitted,
    /// Requests rejected by admission control — per-client quota or
    /// queue-depth shedding — each answered with a structured
    /// `retry-after` instead of queueing unboundedly.
    Shed,
    /// Accepted jobs whose deadline passed while they waited in the
    /// queue: answered with a structured failure, never run.
    DeadlineExpired,
    /// Jobs answered normally during a graceful
    /// `shutdown(grace)` drain window (the complement of the drain
    /// report's aborted count).
    Drained,
    /// Candidates rejected by the batched stage-1 prefilter sweep
    /// (pivot-signature satisfaction, Proposition 3.2) and resolved
    /// invalid without entering the retry ladder. A subset of
    /// [`Counter::ResolvedS1`].
    PrefilterPruned,
    /// OS threads actually spawned into the shared lazy worker pool.
    /// Stays zero on runs that reuse already-warm pool threads — the
    /// complement of the amortization [`Phase::PoolSpawn`] measures.
    PoolThreadsSpawned,
    /// Per-shape cross-query prediction caches a service dropped
    /// because its bounded shape table was full and a new shape
    /// arrived (least recently used first). Complements
    /// [`Counter::CacheInvalidations`], which counts update-driven
    /// retirements.
    CacheEvictions,
}

/// Number of [`Counter`] variants.
pub const COUNTER_COUNT: usize = 33;

impl Counter {
    /// All counters, in declaration order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::Candidates,
        Counter::TrainedNodes,
        Counter::ResolvedS1,
        Counter::RecoveredS2,
        Counter::RecoveredS3,
        Counter::FailedNodes,
        Counter::Unresolved,
        Counter::NodesOptimistic,
        Counter::NodesPessimistic,
        Counter::PredictedValid,
        Counter::Steps,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::Retries,
        Counter::Escalations,
        Counter::PanicsRecovered,
        Counter::GrabSteals,
        Counter::Requeued,
        Counter::WorkerDeaths,
        Counter::MlInferences,
        Counter::QueriesServed,
        Counter::CrossQueryCacheHits,
        Counter::EpochsPublished,
        Counter::RowsRepaired,
        Counter::CacheInvalidations,
        Counter::ShardFanout,
        Counter::Admitted,
        Counter::Shed,
        Counter::DeadlineExpired,
        Counter::Drained,
        Counter::PrefilterPruned,
        Counter::PoolThreadsSpawned,
        Counter::CacheEvictions,
    ];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Candidates => "candidates",
            Counter::TrainedNodes => "trained_nodes",
            Counter::ResolvedS1 => "resolved_s1",
            Counter::RecoveredS2 => "recovered_s2",
            Counter::RecoveredS3 => "recovered_s3",
            Counter::FailedNodes => "failed_nodes",
            Counter::Unresolved => "unresolved",
            Counter::NodesOptimistic => "nodes_optimistic",
            Counter::NodesPessimistic => "nodes_pessimistic",
            Counter::PredictedValid => "predicted_valid",
            Counter::Steps => "steps",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::Retries => "retries",
            Counter::Escalations => "escalations",
            Counter::PanicsRecovered => "panics_recovered",
            Counter::GrabSteals => "grab_steals",
            Counter::Requeued => "requeued",
            Counter::WorkerDeaths => "worker_deaths",
            Counter::MlInferences => "ml_inferences",
            Counter::QueriesServed => "queries_served",
            Counter::CrossQueryCacheHits => "cross_query_cache_hits",
            Counter::EpochsPublished => "epochs_published",
            Counter::RowsRepaired => "rows_repaired",
            Counter::CacheInvalidations => "cache_invalidations",
            Counter::ShardFanout => "shard_fanout",
            Counter::Admitted => "admitted",
            Counter::Shed => "shed",
            Counter::DeadlineExpired => "deadline_expired",
            Counter::Drained => "drained",
            Counter::PrefilterPruned => "prefilter_pruned",
            Counter::PoolThreadsSpawned => "pool_threads_spawned",
            Counter::CacheEvictions => "cache_evictions",
        }
    }
}

/// Named log₂-bucketed histograms of the metrics registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Histogram {
    /// Search steps spent per candidate node.
    StepsPerNode,
    /// Candidates per work-stealing grab actually evaluated.
    GrabLength,
    /// Nanoseconds a submitted query waited in a `PsiService` queue
    /// before a worker picked it up.
    QueueWait,
}

/// Number of [`Histogram`] variants.
pub const HISTOGRAM_COUNT: usize = 3;

impl Histogram {
    /// All histograms, in declaration order.
    pub const ALL: [Histogram; HISTOGRAM_COUNT] =
        [Histogram::StepsPerNode, Histogram::GrabLength, Histogram::QueueWait];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Histogram::StepsPerNode => "steps_per_node",
            Histogram::GrabLength => "grab_length",
            Histogram::QueueWait => "queue_wait_ns",
        }
    }
}

/// The observability seam. Every instrumentation site in the engine
/// calls through `&dyn Recorder`; the default method bodies make a
/// unit implementation ([`NoopRecorder`]) a true no-op, and
/// [`Recorder::enabled`] lets hot paths skip even the clock reads that
/// would feed a span.
///
/// Implementations must be thread-safe: the work-stealing pool shares
/// one recorder across workers (or gives each worker a private
/// [`MetricsRecorder`] buffer and merges at query end).
pub trait Recorder: Send + Sync {
    /// Whether this recorder keeps anything. Hot paths gate their
    /// `Instant::now` calls on this, so a disabled recorder costs one
    /// virtual call per site and no clock reads.
    fn enabled(&self) -> bool {
        false
    }

    /// Record `nanos` of wall time spent in `phase`.
    fn span_ns(&self, _phase: Phase, _nanos: u64) {}

    /// Add `n` to a named counter.
    fn add(&self, _counter: Counter, _n: u64) {}

    /// Record one observation of `value` into a histogram.
    fn observe(&self, _hist: Histogram, _value: u64) {}
}

/// The do-nothing recorder: production default when nobody asked for a
/// profile. All methods inherit the trait's empty defaults.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// Run `f` inside a [`Phase`] span: times the call and reports it to
/// `rec` when the recorder is enabled, otherwise just calls `f`.
#[inline]
pub fn timed<R>(rec: &dyn Recorder, phase: Phase, f: impl FnOnce() -> R) -> R {
    if rec.enabled() {
        let t0 = std::time::Instant::now();
        let r = f();
        rec.span_ns(phase, t0.elapsed().as_nanos() as u64);
        r
    } else {
        f()
    }
}

/// Statement form of [`timed`]: `span!(rec, Phase::Train, { … })`
/// evaluates the block inside a span and yields its value.
#[macro_export]
macro_rules! span {
    ($rec:expr, $phase:expr, $body:expr) => {{
        let __rec = $rec;
        if $crate::Recorder::enabled(__rec) {
            let __t0 = ::std::time::Instant::now();
            let __out = $body;
            $crate::Recorder::span_ns(__rec, $phase, __t0.elapsed().as_nanos() as u64);
            __out
        } else {
            $body
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_tables_are_consistent() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, h) in Histogram::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
        }
        // Names are unique (they become JSON keys).
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTER_COUNT);
    }

    #[test]
    fn noop_recorder_is_disabled_and_inert() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        rec.add(Counter::Steps, 10);
        rec.span_ns(Phase::Train, 10);
        rec.observe(Histogram::StepsPerNode, 10);
        assert_eq!(timed(&rec, Phase::Merge, || 41 + 1), 42);
    }

    #[test]
    fn span_macro_records_only_when_enabled() {
        let rec = MetricsRecorder::new();
        let out = span!(&rec, Phase::Predict, "x");
        assert_eq!(out, "x");
        // Even a zero-length body records a (possibly zero) span; the
        // recorder must have been consulted.
        assert!(rec.enabled());
        let noop = NoopRecorder;
        assert_eq!(span!(&noop, Phase::Predict, 5u32), 5);
    }
}
