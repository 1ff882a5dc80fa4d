//! [`PsiService`]: a long-lived worker pool serving a stream of PSI
//! queries against one shared [`GraphContext`].
//!
//! [`SmartPsi::run`](crate::SmartPsi::run) answers *one* query; every
//! parallel executor behind it spins its pool up and down per call.
//! A query *stream* (the CLI `batch` subcommand, the `serve` bench, an
//! embedding application) wants the opposite cost profile:
//!
//! * **Spawn once.** Workers are spawned at [`PsiService::new`], park
//!   on a condvar while the queue is empty, and are joined on drop —
//!   no per-query thread churn.
//! * **Share across queries.** All jobs share the `Arc<GraphContext>`
//!   (graph + signatures), and jobs with the *same query shape* share
//!   a [`PredictionCache`] keyed by the exact shape, so query #2
//!   starts with query #1's confirmed predictions
//!   ([`ServiceStats::cross_query_cache_hits`] counts the reuse). At
//!   most [`MAX_LIVE_SHAPES`] shapes keep a live cache; a new shape
//!   evicts the least recently used one, so memory follows the graph
//!   and that constant, not the query history.
//! * **Survive worker trouble.** Each job runs under `catch_unwind`:
//!   a panic that escapes a job (possible when the submitter disables
//!   per-node panic isolation, or from an injected
//!   [`FaultPlan`](crate::fault::FaultPlan)) fails that *attempt*,
//!   not the service. The job is requeued once (PR-2 semantics:
//!   retry-then-report); a second death produces a structured failed
//!   result via the job's handle instead of a poisoned future. The
//!   worker thread itself never unwinds out of its loop.
//! * **Evolve without downtime.** A service deployed with
//!   [`DeploymentSpec::evolving`](crate::DeploymentSpec::evolving)
//!   owns an
//!   [`EvolvingContext`]; [`PsiService::apply_update`] applies a
//!   [`GraphUpdate`] batch, repairs signatures incrementally, and
//!   swaps in the next epoch-numbered snapshot while in-flight jobs
//!   finish on the one they pinned. Prediction caches are keyed by
//!   `(epoch, query shape)` and dropped on update, so stale
//!   predictions are unreachable by construction.
//!
//! Determinism: verdicts are scheduling-independent (see the
//! [`exec`](super::exec) module docs), and the shared cache only ever
//! holds *confirmed model predictions*, which are themselves
//! deterministic per query shape — so a service answer is bit-identical
//! to a fresh sequential [`SmartPsi::run`](crate::SmartPsi::run) of the
//! same query, for any worker count, submission order, and cache warmth
//! (property-tested in `crates/core/tests/service.rs`).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use psi_graph::hash::FxHashMap;
use psi_graph::{GraphUpdate, LabelId, NodeId, PivotedQuery};
use psi_obs::{Counter, Histogram, MetricsRecorder, Phase, Recorder};

use crate::fault::panic_reason;
use crate::report::{FeedbackRow, PsiResult};
use crate::smart::{RunSpec, SmartPsi};

use super::adapt::{AdaptedModels, AdaptiveConfig, AdaptiveState, AdaptiveStats};
use super::context::GraphContext;
use super::evolve::{EvolvingContext, UpdateError, UpdateReport};
use super::exec::PredictionCache;

/// Lock a mutex, riding through poisoning: a worker that panicked
/// while holding the lock has already had its job accounted for by the
/// catch_unwind in `worker_loop`, so the protected state stays
/// consistent and the service keeps serving.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Failure reason recorded on a job whose deadline (or cancel flag)
/// fired while it was still queued: the job is answered with this
/// structured failure instead of being run. The network front door
/// keys its `deadline` error responses off this exact string.
pub const DEADLINE_EXPIRED_REASON: &str = "deadline expired before evaluation";

/// Failure reason recorded on a job still queued when a
/// [`PsiService::shutdown`] grace period ran out (or on a job
/// submitted to an already-shut-down service): answered with this
/// structured failure, never run.
pub const ABORTED_BY_SHUTDOWN_REASON: &str = "aborted by shutdown drain";

/// A structured failed result: no verdicts, one failure entry at the
/// query pivot. The shape every answered-without-running job takes
/// (deadline expiry, shutdown abort) — distinguishable from a real
/// answer by its non-empty failure ledger.
fn structured_failure(pivot: NodeId, reason: &str) -> PsiResult {
    let mut failed = PsiResult::empty(0, 0);
    failed.failures.record(pivot, reason, 0);
    failed
}

/// Most per-shape cross-query prediction caches one [`PsiService`]
/// keeps live. A job whose shape has no live cache creates one; when
/// the table is full, the least recently used shape's cache is dropped
/// first ([`ServiceStats::cache_evictions`] counts the drops).
///
/// Worst case: 64 shapes × one entry per candidate — each shape's
/// cache holds at most one `(method, plan)` entry per surviving
/// candidate of its pivot, so the bound is set by the graph and this
/// constant, never by uptime. Every in-repo workload and bench uses
/// ≤ 16 shapes, so none of them evicts. Each shard of a
/// [`ShardedService`](crate::ShardedService) is a `PsiService` and has
/// its own bound.
pub const MAX_LIVE_SHAPES: usize = 64;

/// The exact structure of a query at one graph epoch: the key of a
/// cross-query cache. Keying by the full shape rather than a hash of it
/// means two shapes can never share a cache by collision — their
/// cached `(method, plan)` indices refer to different plan lists.
#[derive(PartialEq, Eq, Hash)]
struct ShapeKey {
    epoch: u64,
    pivot: NodeId,
    labels: Box<[LabelId]>,
    edges: Box<[(NodeId, NodeId, LabelId)]>,
}

impl ShapeKey {
    fn new(query: &PivotedQuery, epoch: u64) -> Self {
        Self {
            epoch,
            pivot: query.pivot(),
            labels: query.graph().labels().into(),
            edges: query.graph().edges().collect(),
        }
    }
}

/// The live cross-query caches: at most [`MAX_LIVE_SHAPES`], evicted
/// least recently used first.
#[derive(Default)]
struct ShapeCaches {
    /// Each live cache with the clock value of its last use.
    live: FxHashMap<ShapeKey, (Arc<PredictionCache>, u64)>,
    /// Bumped on every lookup, so the smallest stamp marks the least
    /// recently used shape.
    clock: u64,
}

impl ShapeCaches {
    /// The cache for `key`, created on first use. Returns `true` as
    /// the second element when creating it evicted another shape.
    fn get_or_create(&mut self, key: ShapeKey, shards: usize) -> (Arc<PredictionCache>, bool) {
        self.clock += 1;
        if let Some((cache, used)) = self.live.get_mut(&key) {
            *used = self.clock;
            return (cache.clone(), false);
        }
        let evict = self.live.len() >= MAX_LIVE_SHAPES;
        if evict {
            // Stamps are unique, so this drops exactly one shape. A
            // job still holding its `Arc` finishes on it.
            if let Some(oldest) = self.live.values().map(|&(_, used)| used).min() {
                self.live.retain(|_, &mut (_, used)| used != oldest);
            }
        }
        let cache = Arc::new(PredictionCache::new(shards));
        self.live.insert(key, (cache.clone(), self.clock));
        (cache, evict)
    }

    /// Drop every live cache; returns how many there were.
    fn clear(&mut self) -> usize {
        let n = self.live.len();
        self.live.clear();
        n
    }
}

/// What a [`PsiService::shutdown`] drain window observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainReport {
    /// Jobs answered normally between the shutdown call and the last
    /// worker exiting: queued jobs the grace period covered plus
    /// in-flight jobs that were allowed to finish.
    pub drained: u64,
    /// Jobs still queued when the grace period ran out, answered with
    /// an [`ABORTED_BY_SHUTDOWN_REASON`] structured failure instead of
    /// being run.
    pub aborted: u64,
}

impl DrainReport {
    /// Merge another report into this one (the sharded fan-in).
    pub fn absorb(&mut self, other: DrainReport) {
        self.drained += other.drained;
        self.aborted += other.aborted;
    }
}

/// One submitted query plus everything needed to run and account it.
struct Job {
    query: PivotedQuery,
    spec: RunSpec,
    slot: Arc<JobSlot>,
    enqueued: Instant,
    /// 0 on first submission; 1 after a requeue. A job whose second
    /// attempt also dies is failed, not retried again.
    attempt: u32,
    /// Adaptive admission sequence number (`None` when the service
    /// runs without adaptation). Every admitted seq is absorbed
    /// exactly once — with the job's feedback on success, empty on
    /// every failure path — so the adaptation loop's in-order drain
    /// can never stall.
    seq: Option<u64>,
}

/// The rendezvous between a worker finishing a job and the caller
/// waiting on its [`JobHandle`].
struct JobSlot {
    result: Mutex<Option<PsiResult>>,
    ready: Condvar,
}

impl JobSlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            result: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fill(&self, result: PsiResult) {
        *lock(&self.result) = Some(result);
        self.ready.notify_all();
    }
}

/// A handle to one submitted query; redeem it with [`JobHandle::wait`].
pub struct JobHandle {
    slot: Arc<JobSlot>,
}

impl JobHandle {
    /// Block until the job's result is ready and take it.
    pub fn wait(self) -> PsiResult {
        let mut guard = lock(&self.slot.result);
        loop {
            if let Some(r) = guard.take() {
                return r;
            }
            guard = self
                .slot
                .ready
                .wait(guard)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Whether the result is already available (non-blocking).
    pub fn is_finished(&self) -> bool {
        lock(&self.slot.result).is_some()
    }
}

/// State shared between the submitting side and the workers.
struct ServiceInner {
    /// The currently published snapshot. Behind a lock only so
    /// [`PsiService::apply_update`] can swap it; workers take a cheap
    /// read-clone per job, so an in-flight job keeps the `Arc` (and
    /// hence the graph view) it started with.
    ctx: RwLock<Arc<GraphContext>>,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Jobs popped from the queue whose slot has not been filled yet.
    /// `queue.is_empty() && in_flight == 0` is the drain-complete
    /// predicate [`PsiService::shutdown`] waits on.
    in_flight: AtomicUsize,
    /// Cross-query prediction caches, one per `(graph epoch, query
    /// shape)` pair, at most [`MAX_LIVE_SHAPES`] of them. Keying by
    /// epoch (and clearing on update) is what guarantees a pre-update
    /// prediction is never consulted by a post-update job — even a
    /// racing job that grabbed the old snapshot right as an update
    /// landed re-creates an *old-epoch* entry that new-epoch jobs can
    /// never see.
    caches: Mutex<ShapeCaches>,
    /// Service-level counters and histograms (queries served, queue
    /// wait, worker deaths, …) — all order-independent sums.
    metrics: MetricsRecorder,
    /// The online α/β adaptation loop (`None` = frozen deployment,
    /// the default — bit-identical to pre-adaptive behavior). Lock
    /// order: `queue` before `adaptive`, never the reverse.
    adaptive: Option<Mutex<AdaptiveState>>,
}

impl ServiceInner {
    /// The snapshot new jobs should run against, riding poisoning like
    /// [`lock`] (the swap in `apply_update` cannot leave it torn).
    fn current_ctx(&self) -> Arc<GraphContext> {
        self.ctx
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The shared cache for this query's shape at this graph epoch,
    /// created on first use (evicting the least recently used shape
    /// when [`MAX_LIVE_SHAPES`] are live). The key is the query's
    /// exact structure (labels, edges, pivot), so only structurally
    /// identical queries — whose trained models, and hence cached
    /// predictions, are deterministic and interchangeable — ever share
    /// a cache; the epoch half of the key separates graph versions.
    fn cache_for(&self, query: &PivotedQuery, ctx: &GraphContext) -> Arc<PredictionCache> {
        let key = ShapeKey::new(query, ctx.epoch());
        let (cache, evicted) = lock(&self.caches).get_or_create(key, ctx.config().cache_shards);
        if evicted {
            self.metrics.add(Counter::CacheEvictions, 1);
        }
        cache
    }

    /// Retire every live cross-query cache (their epoch went stale).
    fn invalidate_caches(&self) {
        let retired = lock(&self.caches).clear();
        self.metrics.add(Counter::CacheInvalidations, retired as u64);
    }

    /// Hand one admitted job's feedback to the adaptation loop (empty
    /// rows on failure paths keep the in-order drain moving).
    fn absorb_feedback(&self, seq: Option<u64>, rows: Vec<FeedbackRow>) {
        if let (Some(a), Some(s)) = (&self.adaptive, seq) {
            lock(a).absorb(s, rows, &self.metrics);
        }
    }
}

/// Snapshot of a service's lifetime counters ([`PsiService::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Jobs answered (including jobs answered with a failed result).
    pub queries_served: u64,
    /// Prediction-cache hits on entries inserted by an *earlier* job —
    /// the cross-query reuse the service exists to provide. A lifetime
    /// count: eviction and update invalidation never lower it.
    pub cross_query_cache_hits: u64,
    /// Jobs whose first attempt died and were requeued.
    pub requeued_jobs: u64,
    /// Job attempts that escaped a `catch_unwind` (worker survived).
    pub worker_panics: u64,
    /// Distinct `(epoch, query shape)` pairs currently cached (= live
    /// cross-query caches). At most [`MAX_LIVE_SHAPES`]; resets to 0
    /// when an update invalidates them.
    pub distinct_query_shapes: usize,
    /// Epoch of the currently published graph snapshot (0 = the
    /// initial deployment, static services stay there).
    pub graph_epoch: u64,
    /// Cross-query caches retired by [`PsiService::apply_update`]
    /// because their epoch went stale.
    pub cache_invalidations: u64,
    /// Cross-query caches dropped, least recently used first, to make
    /// room for a new shape once [`MAX_LIVE_SHAPES`] were live.
    pub cache_evictions: u64,
    /// Jobs whose deadline expired while queued: answered with a
    /// structured [`DEADLINE_EXPIRED_REASON`] failure, never run.
    pub deadline_expired: u64,
    /// Jobs answered during a [`PsiService::shutdown`] drain window.
    pub drained: u64,
}

/// A persistent PSI query service over one graph deployment.
///
/// ```
/// use psi_core::{PsiService, RunSpec, SmartPsi, SmartPsiConfig};
///
/// let g = psi_datasets::generators::erdos_renyi(300, 1000, 3, 7);
/// let smart = SmartPsi::new(g.clone(), SmartPsiConfig::default());
/// let service = smart
///     .deploy(&psi_core::DeploymentSpec::new().workers(4)) // 4 persistent workers
///     .into_service();
/// let q = psi_datasets::rwr::extract_query_seeded(&g, 4, 1).unwrap();
/// let handles: Vec<_> = (0..8)
///     .map(|_| service.submit(q.clone(), RunSpec::new()))
///     .collect();
/// for h in handles {
///     assert_eq!(h.wait().unresolved, 0);
/// }
/// assert_eq!(service.stats().queries_served, 8);
/// ```
pub struct PsiService {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
    /// The mutable half of an evolving deployment; `None` for a
    /// static service. Workers never touch it — they only see the
    /// snapshots it publishes into `inner.ctx`.
    evolving: Mutex<Option<EvolvingContext>>,
}

impl PsiService {
    /// Spawn a service with `workers` persistent worker threads
    /// (minimum 1) over the shared *static* deployment `ctx`
    /// ([`PsiService::apply_update`] will refuse; deploy with
    /// [`DeploymentSpec::evolving`](crate::DeploymentSpec::evolving)
    /// for an updatable service).
    pub fn new(ctx: Arc<GraphContext>, workers: usize) -> Self {
        Self::spawn(ctx, workers, None, None)
    }

    /// [`PsiService::new`] with the online α/β adaptation loop
    /// enabled: every served query contributes feedback, an ε
    /// fraction explores, and the models refit on the configured
    /// cadence (see [`AdaptiveConfig`]).
    pub fn with_adaptive(
        ctx: Arc<GraphContext>,
        workers: usize,
        adaptive: Option<AdaptiveConfig>,
    ) -> Self {
        Self::spawn(ctx, workers, None, adaptive)
    }

    /// Spawn a service over an evolving deployment: queries run
    /// against the currently published snapshot, and
    /// [`PsiService::apply_update`] advances it. Internal entry behind
    /// the [`Deployment`] front door.
    ///
    /// [`Deployment`]: crate::Deployment
    pub(crate) fn spawn_evolving(
        evolving: EvolvingContext,
        workers: usize,
        adaptive: Option<AdaptiveConfig>,
    ) -> Self {
        let ctx = evolving.current();
        Self::spawn(ctx, workers, Some(evolving), adaptive)
    }

    fn spawn(
        ctx: Arc<GraphContext>,
        workers: usize,
        evolving: Option<EvolvingContext>,
        adaptive: Option<AdaptiveConfig>,
    ) -> Self {
        let adaptive = adaptive.map(|cfg| {
            let dim = ctx.signatures().label_count() + 1;
            Mutex::new(AdaptiveState::new(cfg, dim, ctx.config().forest))
        });
        let inner = Arc::new(ServiceInner {
            ctx: RwLock::new(ctx),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            caches: Mutex::new(ShapeCaches::default()),
            metrics: MetricsRecorder::new(),
            adaptive,
        });
        let spawn_t0 = Instant::now();
        let workers = (0..workers.max(1))
            .map(|_| {
                let inner = inner.clone();
                std::thread::spawn(move || worker_loop(&inner, spawn_t0))
            })
            .collect();
        Self {
            inner,
            workers,
            evolving: Mutex::new(evolving),
        }
    }

    /// Apply one [`GraphUpdate`] batch to an evolving deployment:
    /// repair signatures incrementally, publish the next epoch
    /// snapshot, and retire every cross-query prediction cache (their
    /// epoch key is now stale, so no pre-update prediction can drive a
    /// post-update evaluation — [`ServiceStats::cache_invalidations`]
    /// counts the retirements).
    ///
    /// Jobs already running keep the snapshot (and old-epoch caches)
    /// they started with; jobs picked up after this call — including
    /// ones queued before it — see the new epoch. Per-query models are
    /// refit lazily: training runs inside each job against the
    /// snapshot it captured, so the first post-update job of a shape
    /// simply trains against the new graph.
    ///
    /// Returns [`UpdateError::StaticDeployment`] on a service built
    /// with [`PsiService::new`]. Erroneous batches are atomic: nothing
    /// mutates, no epoch publishes, no cache drops.
    pub fn apply_update(&self, updates: &[GraphUpdate]) -> Result<UpdateReport, UpdateError> {
        let mut guard = lock(&self.evolving);
        let Some(ev) = guard.as_mut() else {
            return Err(UpdateError::StaticDeployment);
        };
        let report = ev.apply_recorded(updates, &self.inner.metrics)?;
        *self
            .inner
            .ctx
            .write()
            .unwrap_or_else(|e| e.into_inner()) = ev.current();
        self.inner.invalidate_caches();
        // Drift hook: the adaptation loop drops its stale reservoir
        // and models and opens a forced refit window on the new epoch.
        if let Some(a) = &self.inner.adaptive {
            let dim = self.inner.current_ctx().signatures().label_count() + 1;
            lock(a).note_drift(dim);
        }
        Ok(report)
    }

    /// Swap in an externally built context snapshot, retiring every
    /// cross-query prediction cache (their epoch key is stale).
    ///
    /// This is the publish half of [`PsiService::apply_update`] without
    /// the signature repair: the sharded scatter-gather layer owns one
    /// global incremental maintainer and pushes rebuilt per-shard
    /// snapshots into each affected shard's service through here.
    pub(crate) fn publish_ctx(&self, ctx: Arc<GraphContext>) {
        let dim = ctx.signatures().label_count() + 1;
        *self
            .inner
            .ctx
            .write()
            .unwrap_or_else(|e| e.into_inner()) = ctx;
        self.inner.invalidate_caches();
        if let Some(a) = &self.inner.adaptive {
            lock(a).note_drift(dim);
        }
    }

    /// The context snapshot new jobs will pin (the current epoch).
    pub(crate) fn context(&self) -> Arc<GraphContext> {
        self.inner.current_ctx()
    }

    /// Enqueue one query; returns immediately with a handle to its
    /// eventual result. Jobs are served FIFO by whichever worker
    /// parks first.
    ///
    /// A spec carrying an [`EvalLimits`](crate::EvalLimits) deadline is
    /// deadline-aware end to end: if the deadline passes while the job
    /// is still queued, a worker answers it with a structured
    /// [`DEADLINE_EXPIRED_REASON`] failure instead of running it.
    ///
    /// Submitting to a service that [`PsiService::shutdown`] has
    /// already stopped never loses the job: it is answered immediately
    /// with an [`ABORTED_BY_SHUTDOWN_REASON`] structured failure.
    pub fn submit(&self, query: PivotedQuery, mut spec: RunSpec) -> JobHandle {
        let slot = JobSlot::new();
        {
            let mut q = lock(&self.inner.queue);
            if self.inner.shutdown.load(Ordering::Acquire) {
                // The workers are gone (or leaving); parking the job
                // would orphan its handle.
                drop(q);
                slot.fill(structured_failure(query.pivot(), ABORTED_BY_SHUTDOWN_REASON));
                return JobHandle { slot };
            }
            // Adaptive admission happens under the queue lock so a
            // serial client's admission order matches its submission
            // order (determinism of the ε stream and refit points).
            // Or-semantics on explore/adapted let an outer coordinator
            // (the sharded layer) pre-fill them; this service's own
            // draw only applies when the spec arrives unset.
            let seq = match &self.inner.adaptive {
                Some(a) => {
                    let adm = lock(a).admit(&self.inner.metrics);
                    spec.feedback = true;
                    if spec.explore.is_none() {
                        spec.explore = adm.explore;
                    }
                    if spec.adapted.is_none() {
                        spec.adapted = adm.models;
                    }
                    Some(adm.seq)
                }
                None => None,
            };
            q.push_back(Job {
                query,
                spec,
                slot: slot.clone(),
                enqueued: Instant::now(),
                attempt: 0,
                seq,
            });
        }
        self.inner.available.notify_one();
        JobHandle { slot }
    }

    /// Graceful shutdown with an explicit grace period and observable
    /// accounting (the drop path drains silently; the network drain
    /// path and the overload tests need the counts).
    ///
    /// Semantics, in order:
    ///
    /// 1. **Finish in-flight and queued work** while the grace period
    ///    lasts — workers keep popping jobs as usual (jobs whose own
    ///    deadline expires in the queue still take the
    ///    [`DEADLINE_EXPIRED_REASON`] path and count as drained:
    ///    answered, not lost).
    /// 2. **Abort what remains** when the grace period runs out: every
    ///    job still queued is answered with an
    ///    [`ABORTED_BY_SHUTDOWN_REASON`] structured failure, never run.
    /// 3. **Stop and join** the workers; jobs already executing are
    ///    allowed to finish (a thread cannot be safely killed) and
    ///    count as drained.
    ///
    /// Every job accepted before the call gets exactly one answer —
    /// a result or a structured failure — through its handle.
    /// Idempotent: a second call returns an empty report.
    pub fn shutdown(&mut self, grace: Duration) -> DrainReport {
        if self.workers.is_empty() {
            return DrainReport::default();
        }
        let deadline = Instant::now() + grace;
        let served_at_entry = self.inner.metrics.counter(Counter::QueriesServed);

        // Phase 1: wait for the backlog to drain or the grace period
        // to lapse. Plain bounded polling — shutdown is not a hot
        // path, and the 1 ms granularity only delays the abort sweep,
        // never an answer.
        loop {
            {
                let q = lock(&self.inner.queue);
                if q.is_empty() && self.inner.in_flight.load(Ordering::Acquire) == 0 {
                    break;
                }
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }

        // Phase 2 + 3: under the queue lock, abort the remnants and
        // flip the shutdown flag so no worker can park past it (and no
        // new job can enqueue behind the sweep).
        let mut aborted = 0u64;
        {
            let mut q = lock(&self.inner.queue);
            while let Some(job) = q.pop_front() {
                self.inner.absorb_feedback(job.seq, Vec::new());
                job.slot
                    .fill(structured_failure(job.query.pivot(), ABORTED_BY_SHUTDOWN_REASON));
                aborted += 1;
            }
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }

        let drained = self
            .inner
            .metrics
            .counter(Counter::QueriesServed)
            .saturating_sub(served_at_entry);
        self.inner.metrics.add(Counter::Drained, drained);
        DrainReport { drained, aborted }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently queued (not yet picked up).
    pub fn pending(&self) -> usize {
        lock(&self.inner.queue).len()
    }

    /// Lifetime counters of this service.
    pub fn stats(&self) -> ServiceStats {
        let m = &self.inner.metrics;
        ServiceStats {
            queries_served: m.counter(Counter::QueriesServed),
            cross_query_cache_hits: m.counter(Counter::CrossQueryCacheHits),
            requeued_jobs: m.counter(Counter::Requeued),
            worker_panics: m.counter(Counter::WorkerDeaths),
            distinct_query_shapes: lock(&self.inner.caches).live.len(),
            graph_epoch: self.inner.current_ctx().epoch(),
            cache_invalidations: m.counter(Counter::CacheInvalidations),
            cache_evictions: m.counter(Counter::CacheEvictions),
            deadline_expired: m.counter(Counter::DeadlineExpired),
            drained: m.counter(Counter::Drained),
        }
    }

    /// The service-level metrics registry (queue-wait histogram,
    /// pool-spawn spans, the counters behind [`PsiService::stats`]).
    pub fn metrics(&self) -> &MetricsRecorder {
        &self.inner.metrics
    }

    /// Snapshot of the adaptation loop's counters, or `None` on a
    /// frozen (non-adaptive) service.
    pub fn adaptive_stats(&self) -> Option<AdaptiveStats> {
        self.inner.adaptive.as_ref().map(|a| lock(a).stats())
    }

    /// Clone of the current feedback reservoir (the sharded layer's
    /// merged-refit input); `None` on a frozen service.
    pub(crate) fn adaptive_rows(&self) -> Option<Vec<FeedbackRow>> {
        self.inner.adaptive.as_ref().map(|a| lock(a).rows())
    }

    /// Install externally fit models into the adaptation loop (the
    /// sharded layer pushes its merged refit down through here). A
    /// no-op on a frozen service.
    #[allow(dead_code)]
    pub(crate) fn adaptive_install(&self, models: Arc<AdaptedModels>) {
        if let Some(a) = &self.inner.adaptive {
            lock(a).install(models);
        }
    }
}

impl Drop for PsiService {
    /// Graceful shutdown: already-submitted jobs are drained and
    /// answered, then the workers exit and are joined.
    fn drop(&mut self) {
        {
            // Flip the flag under the queue lock so a worker checking
            // "empty and not shut down" cannot park past the signal.
            let _q = lock(&self.inner.queue);
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.available.notify_all();
        for w in self.workers.drain(..) {
            // A worker that somehow died is already accounted; joining
            // the corpse must not abort the drop of the others.
            let _ = w.join();
        }
    }
}

fn worker_loop(inner: &ServiceInner, spawn_t0: Instant) {
    inner
        .metrics
        .span_ns(Phase::PoolSpawn, spawn_t0.elapsed().as_nanos() as u64);
    let mut smart = SmartPsi::from_context(inner.current_ctx());
    loop {
        let job = {
            let mut q = lock(&inner.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    // Count the job in-flight before the lock drops so
                    // the drain predicate (empty queue, nothing in
                    // flight) can never observe it in neither place.
                    inner.in_flight.fetch_add(1, Ordering::AcqRel);
                    break job;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = inner.available.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        inner
            .metrics
            .observe(Histogram::QueueWait, job.enqueued.elapsed().as_nanos() as u64);

        // Deadline-aware dequeue: a job whose global stop signal
        // (deadline or cancel flag) fired while it waited is answered
        // with a structured failure instead of being run — under
        // overload there is no point training a model for an answer
        // nobody can use in time, and shedding it here frees the
        // worker for jobs that can still meet their deadlines.
        if job.spec.limits.expired() {
            inner.metrics.add(Counter::DeadlineExpired, 1);
            inner.metrics.add(Counter::QueriesServed, 1);
            inner.absorb_feedback(job.seq, Vec::new());
            job.slot
                .fill(structured_failure(job.query.pivot(), DEADLINE_EXPIRED_REASON));
            inner.in_flight.fetch_sub(1, Ordering::AcqRel);
            continue;
        }

        // Pin the currently published snapshot for the whole job
        // (lazy refit: a worker whose facade is from an older epoch
        // rebuilds it here, and the per-query model trains against the
        // new graph inside `run`).
        let ctx = inner.current_ctx();
        if !Arc::ptr_eq(smart.context(), &ctx) {
            smart = SmartPsi::from_context(ctx);
        }

        let cache = inner.cache_for(&job.query, smart.context());
        // Mark the query boundary: whatever this job reads from before
        // this instant was produced by an earlier job.
        cache.advance_epoch();
        let spec = job.spec.clone().cache(cache.clone());
        let outcome = catch_unwind(AssertUnwindSafe(|| smart.run(&job.query, &spec)));
        // Drain this job's reuse into the lifetime counter before its
        // handle fills, so a caller that waited sees it in `stats`.
        inner
            .metrics
            .add(Counter::CrossQueryCacheHits, cache.take_cross_query_hits());
        match outcome {
            Ok(result) => {
                inner.metrics.add(Counter::QueriesServed, 1);
                // Absorb before fill: a serial client that waits on
                // each handle before submitting the next job observes
                // admissions and absorptions strictly interleaved, so
                // refit points are deterministic for it.
                inner.absorb_feedback(job.seq, result.feedback.clone());
                job.slot.fill(result);
            }
            Err(payload) => {
                // (in_flight is decremented at the bottom for every
                // arm; a requeued job re-enters the queue first, so
                // the drain predicate stays false throughout.)
                // The attempt died (panic escaped the per-node
                // isolation). First death: requeue once so a healthy
                // worker (or a second try) can still answer. Second
                // death: answer with a structured failure.
                let reason = panic_reason(payload.as_ref());
                inner.metrics.add(Counter::WorkerDeaths, 1);
                if job.attempt == 0 {
                    inner.metrics.add(Counter::Requeued, 1);
                    lock(&inner.queue).push_back(Job {
                        enqueued: Instant::now(),
                        attempt: 1,
                        ..job
                    });
                    inner.available.notify_one();
                } else {
                    let mut failed = PsiResult::empty(0, 0);
                    failed
                        .failures
                        .record(job.query.pivot(), reason, job.attempt + 1);
                    failed.failures.worker_deaths = job.attempt as usize + 1;
                    inner.metrics.add(Counter::QueriesServed, 1);
                    inner.absorb_feedback(job.seq, Vec::new());
                    job.slot.fill(failed);
                }
            }
        }
        inner.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::context::SmartPsiConfig;
    use psi_graph::Graph;

    fn deployment() -> (Graph, Arc<GraphContext>) {
        let g = psi_datasets::generators::erdos_renyi(300, 1100, 3, 31);
        let cfg = SmartPsiConfig {
            min_candidates_for_ml: 10,
            ..SmartPsiConfig::default()
        };
        let ctx = Arc::new(GraphContext::new(g.clone(), cfg));
        (g, ctx)
    }

    #[test]
    fn service_answers_match_direct_runs() {
        let (g, ctx) = deployment();
        let smart = SmartPsi::from_context(ctx.clone());
        let service = PsiService::new(ctx, 3);
        let queries: Vec<_> = (0..6)
            .filter_map(|s| psi_datasets::rwr::extract_query_seeded(&g, 4, s))
            .collect();
        let handles: Vec<_> = queries
            .iter()
            .map(|q| service.submit(q.clone(), RunSpec::new()))
            .collect();
        for (q, h) in queries.iter().zip(handles) {
            assert_eq!(h.wait(), smart.run(q, &RunSpec::new()));
        }
        let stats = service.stats();
        assert_eq!(stats.queries_served, queries.len() as u64);
        assert_eq!(stats.worker_panics, 0);
    }

    #[test]
    fn repeated_shapes_share_a_cache() {
        let (g, ctx) = deployment();
        let service = PsiService::new(ctx, 2);
        let q = psi_datasets::rwr::extract_query_seeded(&g, 4, 5).unwrap();
        let first = service.submit(q.clone(), RunSpec::new()).wait();
        // Serve the same shape repeatedly: later jobs must hit the
        // entries the first one confirmed.
        for _ in 0..4 {
            assert_eq!(service.submit(q.clone(), RunSpec::new()).wait(), first);
        }
        let stats = service.stats();
        assert_eq!(stats.distinct_query_shapes, 1);
        assert!(
            stats.cross_query_cache_hits > 0,
            "identical queries must reuse cached predictions: {stats:?}"
        );
    }

    #[test]
    fn drop_drains_pending_jobs() {
        let (g, ctx) = deployment();
        let service = PsiService::new(ctx, 1);
        let q = psi_datasets::rwr::extract_query_seeded(&g, 3, 2).unwrap();
        let handles: Vec<_> = (0..5)
            .map(|_| service.submit(q.clone(), RunSpec::new()))
            .collect();
        drop(service); // must answer all five before the workers exit
        for h in handles {
            assert!(h.is_finished());
            assert_eq!(h.wait().unresolved, 0);
        }
    }
}
