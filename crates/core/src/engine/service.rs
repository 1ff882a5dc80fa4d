//! [`PsiService`]: the one serving type — a long-lived deployment of
//! k ≥ 1 shards, each a private worker pool over one [`GraphContext`],
//! serving a stream of PSI queries.
//!
//! [`SmartPsi::run`](crate::SmartPsi::run) answers *one* query; every
//! parallel executor behind it spins its pool up and down per call.
//! A query *stream* (the CLI `batch` subcommand, the `serve` bench, an
//! embedding application) wants the opposite cost profile:
//!
//! * **Spawn once.** Workers are spawned at
//!   [`SmartPsi::deploy`](crate::SmartPsi::deploy), park on a condvar
//!   while their shard's queue is empty, and are joined on drop — no
//!   per-query thread churn.
//! * **Share across queries.** All jobs of a shard share its
//!   `Arc<GraphContext>` (graph + signatures), and jobs with the *same
//!   query shape* share a [`PredictionCache`] keyed by the exact shape,
//!   so query #2 starts with query #1's confirmed predictions
//!   ([`ServiceStats::cross_query_cache_hits`] counts the reuse). At
//!   most [`MAX_LIVE_SHAPES`] shapes per shard keep a live cache; a new
//!   shape evicts the least recently used one, so memory follows the
//!   graph and that constant, not the query history.
//! * **Survive worker trouble.** Each job runs under `catch_unwind`:
//!   a panic that escapes a job (possible when the submitter disables
//!   per-node panic isolation, or from an injected
//!   [`FaultPlan`](crate::fault::FaultPlan)) fails that *attempt*,
//!   not the service. The job is requeued once (PR-2 semantics:
//!   retry-then-report); a second death produces a structured failed
//!   result via the job's handle instead of a poisoned future. The
//!   worker thread itself never unwinds out of its loop.
//! * **Evolve without downtime.** A service deployed with
//!   [`DeploymentSpec::evolving`] accepts
//!   [`PsiService::apply_update`]: signatures are repaired
//!   incrementally and the next epoch-numbered snapshot is swapped in
//!   while in-flight jobs finish on the one they pinned. Prediction
//!   caches are keyed by `(epoch, query shape)` and dropped on update,
//!   so stale predictions are unreachable by construction.
//!
//! With k = 1 (the default) the single shard serves the deployment's
//! own context: no halo, no routing, no merge. With k > 1
//! ([`DeploymentSpec::shards`]) the graph is range-partitioned and
//! every query is scattered to the shards owning candidates and its
//! parts merged on [`JobHandle::wait`]; the [`shard`](super::shard)
//! module holds that machinery and the exactness argument.
//!
//! Determinism: verdicts are scheduling-independent (see the
//! [`exec`](super::exec) module docs), and the shared cache only ever
//! holds *confirmed model predictions*, which are themselves
//! deterministic per query shape — so a 1-shard answer is
//! bit-identical to a fresh sequential
//! [`SmartPsi::run`](crate::SmartPsi::run) of the same query, for any
//! worker count, submission order, and cache warmth (property-tested
//! in `crates/core/tests/service.rs`).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use psi_graph::hash::FxHashMap;
use psi_graph::{GraphUpdate, LabelId, NodeId, PivotedQuery};
use psi_obs::{timed, Counter, Histogram, MetricsRecorder, Phase, Recorder};
use psi_signature::SigStoreKind;

use crate::fault::{panic_reason, unpoison};
use crate::report::PsiResult;
use crate::smart::{RunSpec, SmartPsi};

use super::context::GraphContext;
use super::deploy::DeploymentSpec;
use super::evolve::{EvolvingContext, UpdateError, UpdateReport};
use super::exec::{PredictionCache, CACHE_SHARDS};
use super::shard::{merge_results, Sharding};

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

/// Failure reason prefix recorded on a query a sharded deployment
/// refuses because its pivot eccentricity exceeds the halo depth:
/// answering it could silently miss boundary-crossing embeddings, so
/// it is answered with this structured failure (the full reason
/// appends both numbers) and never run. The network front door answers
/// it as `bad_request`.
pub const QUERY_TOO_DEEP_REASON: &str = "query pivot eccentricity exceeds the shard halo depth";

/// A structured failed result: no verdicts, one failure entry at the
/// query pivot. The shape every answered-without-running job takes
/// (deadline expiry, shutdown abort, too-deep refusal) —
/// distinguishable from a real answer by its non-empty failure ledger.
pub(crate) fn structured_failure(pivot: NodeId, reason: &str) -> PsiResult {
    let mut failed = PsiResult::empty(0, 0);
    failed.failures.record(pivot, reason, 0);
    failed
}

/// Most per-shape cross-query prediction caches one shard keeps live.
/// A job whose shape has no live cache creates one; when the table is
/// full, the least recently used shape's cache is dropped first
/// ([`ServiceStats::cache_evictions`] counts the drops).
///
/// Worst case: 64 shapes × one entry per candidate — each shape's
/// cache holds at most one `(method, plan)` entry per surviving
/// candidate of its pivot, so the bound is set by the graph and this
/// constant, never by uptime. Each shard of a sharded deployment has
/// its own bound. A stream that repeats at most 64 shapes never
/// evicts (the `serve` bench and `waterfall`'s `wire-repeat` use 16).
/// A stream of distinct queries (`waterfall`'s `wire-unique` and
/// `wire-evolving`) evicts one shape per job once the table is full,
/// and its caches serve almost no lookups (`cache.hit_frac` 0.002 on
/// `wire-unique`): there the table costs memory for no reuse.
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
    fn get_or_create(&mut self, key: ShapeKey) -> (Arc<PredictionCache>, bool) {
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
        let cache = Arc::new(PredictionCache::new(CACHE_SHARDS));
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

/// One submitted query plus everything needed to run and account it.
struct Job {
    query: PivotedQuery,
    spec: RunSpec,
    slot: Arc<JobSlot>,
    enqueued: Instant,
    /// 0 on first submission; 1 after a requeue. A job whose second
    /// attempt also dies is failed, not retried again.
    attempt: u32,
}

/// The rendezvous between a worker finishing a job and the caller
/// waiting on its [`JobHandle`].
pub(crate) struct JobSlot {
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
        *unpoison(self.result.lock()) = Some(result);
        self.ready.notify_all();
    }

    /// A slot answered at submit time, without a worker.
    fn filled(result: PsiResult) -> Arc<Self> {
        let slot = Self::new();
        slot.fill(result);
        slot
    }

    fn is_filled(&self) -> bool {
        unpoison(self.result.lock()).is_some()
    }

    /// Block until the slot is filled and take the result.
    fn take(&self) -> PsiResult {
        let mut guard = unpoison(self.result.lock());
        loop {
            if let Some(r) = guard.take() {
                return r;
            }
            guard = unpoison(self.ready.wait(guard));
        }
    }
}

/// A handle to one submitted query; redeem it with [`JobHandle::wait`].
pub struct JobHandle(Parts);

enum Parts {
    /// A 1-shard job, or an answer decided at submit time.
    One(Arc<JobSlot>),
    /// A k > 1 query: one slot per shard it was routed to, with that
    /// shard's owned-range start, merged on `wait`.
    Fanout {
        pivot: NodeId,
        parts: Vec<(NodeId, Arc<JobSlot>)>,
        metrics: Arc<MetricsRecorder>,
    },
}

impl JobHandle {
    /// A handle that is already answered with `result`.
    pub(crate) fn ready(result: PsiResult) -> Self {
        Self(Parts::One(JobSlot::filled(result)))
    }

    /// A scatter-gather handle over per-shard `(lo, slot)` parts.
    pub(crate) fn fanout(
        pivot: NodeId,
        parts: Vec<(NodeId, Arc<JobSlot>)>,
        metrics: Arc<MetricsRecorder>,
    ) -> Self {
        Self(Parts::Fanout {
            pivot,
            parts,
            metrics,
        })
    }

    /// Block until the job's result is ready and take it. A sharded
    /// query waits for every routed shard and merges their parts.
    pub fn wait(self) -> PsiResult {
        match self.0 {
            Parts::One(slot) => slot.take(),
            Parts::Fanout {
                pivot,
                parts,
                metrics,
            } => {
                let results: Vec<(NodeId, PsiResult)> =
                    parts.into_iter().map(|(lo, s)| (lo, s.take())).collect();
                timed(metrics.as_ref(), Phase::ShardMerge, || {
                    merge_results(pivot, results)
                })
            }
        }
    }

    /// Whether the result is already available (non-blocking).
    pub fn is_finished(&self) -> bool {
        match &self.0 {
            Parts::One(slot) => slot.is_filled(),
            Parts::Fanout { parts, .. } => parts.iter().all(|(_, s)| s.is_filled()),
        }
    }
}

/// One shard of a deployment: the state its worker pool shares with
/// the submitting side — the published context, the job queue and the
/// shape caches.
pub(crate) struct Shard {
    /// The currently published snapshot. Behind a lock only so an
    /// update can swap it; workers take a cheap read-clone per job, so
    /// an in-flight job keeps the `Arc` (and hence the graph view) it
    /// started with.
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
    /// The deployment's registry (shared by every shard): queries
    /// served, queue wait, worker deaths, … — all order-independent
    /// sums.
    metrics: Arc<MetricsRecorder>,
}

impl Shard {
    /// A shard over `ctx`, with `workers` (minimum 1) pool threads
    /// spawned into `handles`.
    fn spawn(
        ctx: Arc<GraphContext>,
        workers: usize,
        metrics: &Arc<MetricsRecorder>,
        handles: &mut Vec<JoinHandle<()>>,
    ) -> Arc<Self> {
        let shard = Arc::new(Self {
            ctx: RwLock::new(ctx),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            caches: Mutex::new(ShapeCaches::default()),
            metrics: metrics.clone(),
        });
        let spawn_t0 = Instant::now();
        handles.extend((0..workers.max(1)).map(|_| {
            let shard = shard.clone();
            std::thread::spawn(move || worker_loop(&shard, spawn_t0))
        }));
        shard
    }

    /// The snapshot new jobs will pin, riding poisoning (the swap in
    /// [`Shard::publish`] cannot leave it torn).
    pub(crate) fn context(&self) -> Arc<GraphContext> {
        unpoison(self.ctx.read()).clone()
    }

    /// Swap in the next snapshot and retire every cross-query cache
    /// (their epoch key is stale, so no pre-update prediction can
    /// drive a post-update evaluation —
    /// [`ServiceStats::cache_invalidations`] counts the retirements).
    pub(crate) fn publish(&self, ctx: Arc<GraphContext>) {
        *unpoison(self.ctx.write()) = ctx;
        let retired = unpoison(self.caches.lock()).clear();
        self.metrics.add(Counter::CacheInvalidations, retired as u64);
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
        let (cache, evicted) = unpoison(self.caches.lock()).get_or_create(key);
        if evicted {
            self.metrics.add(Counter::CacheEvictions, 1);
        }
        cache
    }

    /// Enqueue one job; its slot is filled by a worker (or right away
    /// with an [`ABORTED_BY_SHUTDOWN_REASON`] failure once the shard
    /// has shut down, so the job is never orphaned).
    pub(crate) fn submit(&self, query: PivotedQuery, spec: RunSpec) -> Arc<JobSlot> {
        let slot = JobSlot::new();
        {
            let mut q = unpoison(self.queue.lock());
            if self.shutdown.load(Ordering::Acquire) {
                drop(q);
                slot.fill(structured_failure(query.pivot(), ABORTED_BY_SHUTDOWN_REASON));
                return slot;
            }
            q.push_back(Job {
                query,
                spec,
                slot: slot.clone(),
                enqueued: Instant::now(),
                attempt: 0,
            });
        }
        self.available.notify_one();
        slot
    }

    /// Nothing queued and nothing running.
    fn is_idle(&self) -> bool {
        let q = unpoison(self.queue.lock());
        q.is_empty() && self.in_flight.load(Ordering::Acquire) == 0
    }

    /// Stop the shard's workers. With `abort`, every job still queued
    /// is answered with an [`ABORTED_BY_SHUTDOWN_REASON`] structured
    /// failure first (returns how many); without, the workers drain
    /// the queue before exiting. The flag flips under the queue lock,
    /// so a worker checking "empty and not shut down" cannot park past
    /// the signal and no new job can enqueue behind the sweep.
    fn close(&self, abort: bool) -> u64 {
        let mut q = unpoison(self.queue.lock());
        let stranded = if abort { std::mem::take(&mut *q) } else { VecDeque::new() };
        let aborted = stranded.len() as u64;
        for job in stranded {
            job.slot
                .fill(structured_failure(job.query.pivot(), ABORTED_BY_SHUTDOWN_REASON));
        }
        self.shutdown.store(true, Ordering::Release);
        drop(q);
        self.available.notify_all();
        aborted
    }

    fn pending(&self) -> usize {
        unpoison(self.queue.lock()).len()
    }

    fn live_shapes(&self) -> usize {
        unpoison(self.caches.lock()).live.len()
    }
}

/// Snapshot of a service's lifetime counters ([`PsiService::stats`]).
/// Counters cover every shard of the deployment; on a sharded
/// deployment a query counts once per shard it was routed to.
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
    /// cross-query caches), summed over shards. At most
    /// [`MAX_LIVE_SHAPES`] per shard; resets to 0 when an update
    /// invalidates them.
    pub distinct_query_shapes: usize,
    /// Epoch of the currently published graph snapshot (0 = the
    /// initial deployment, static services stay there); the highest
    /// shard epoch on a sharded deployment.
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

/// A persistent PSI query service: k ≥ 1 shards, each a private
/// worker pool over one graph context, built by
/// [`SmartPsi::deploy`](crate::SmartPsi::deploy).
///
/// ```
/// use psi_core::{DeploymentSpec, RunSpec, SmartPsi, SmartPsiConfig};
///
/// let g = psi_datasets::generators::erdos_renyi(300, 1000, 3, 7);
/// let smart = SmartPsi::new(g.clone(), SmartPsiConfig::default());
/// let service = smart.deploy(&DeploymentSpec::new().workers(4)); // 4 persistent workers
/// let q = psi_datasets::rwr::extract_query_seeded(&g, 4, 1).unwrap();
/// let handles: Vec<_> = (0..8)
///     .map(|_| service.submit(q.clone(), RunSpec::new()))
///     .collect();
/// for h in handles {
///     assert_eq!(h.wait().unresolved, 0);
/// }
/// assert_eq!(service.stats().queries_served, 8);
///
/// // The same graph range-sharded four ways answers the same.
/// let sharded = smart.deploy(&DeploymentSpec::new().shards(4));
/// let merged = sharded.submit(q.clone(), RunSpec::new()).wait();
/// assert_eq!(merged.valid, smart.run(&q, &RunSpec::new()).valid);
/// ```
pub struct PsiService {
    /// The k ≥ 1 shards; a 1-shard deployment's only shard serves the
    /// deployment's own context.
    shards: Vec<Arc<Shard>>,
    /// Every shard's worker threads.
    workers: Vec<JoinHandle<()>>,
    /// The deployment's one registry; every shard records into it.
    metrics: Arc<MetricsRecorder>,
    /// The mutable half of an evolving 1-shard deployment; `None` for
    /// a static or sharded one. Workers never touch it — they only see
    /// the snapshots it publishes into the shard.
    evolving: Mutex<Option<EvolvingContext>>,
    /// k > 1 only: the range map, halo, fault projection and
    /// (evolving) global signature maintainer.
    sharding: Option<Sharding>,
}

impl PsiService {
    /// Resolve `spec` over `ctx`: the body of
    /// [`SmartPsi::deploy`](crate::SmartPsi::deploy).
    pub(crate) fn deploy(ctx: &Arc<GraphContext>, spec: &DeploymentSpec) -> Self {
        let metrics = Arc::new(MetricsRecorder::new());
        let mut evolving = None;
        let mut sharding = None;
        let contexts = if spec.shard_count() > 1 {
            let (sh, contexts) = Sharding::new(ctx, spec);
            sharding = Some(sh);
            contexts
        } else if let Some(cap) = spec.label_capacity() {
            // The maintainer seeds from the current dense rows and
            // publishes snapshots on the requested backend itself;
            // converting the static context first would only throw
            // the f32 seed away.
            let ev = EvolvingContext::from_context(ctx, cap, spec.store_kind());
            let current = ev.current();
            evolving = Some(ev);
            vec![current]
        } else {
            vec![with_store(ctx, spec.store_kind())]
        };
        let mut workers = Vec::new();
        let shards = contexts
            .into_iter()
            .map(|c| Shard::spawn(c, spec.worker_count(), &metrics, &mut workers))
            .collect();
        Self {
            shards,
            workers,
            metrics,
            evolving: Mutex::new(evolving),
            sharding,
        }
    }

    /// Identity: [`SmartPsi::deploy`](crate::SmartPsi::deploy) already
    /// returns a `PsiService`. Kept only for the `waterfall` bench
    /// binary, whose sources are frozen with the repo benchmark.
    #[doc(hidden)]
    pub fn into_service(self) -> Self {
        self
    }

    /// Apply one [`GraphUpdate`] batch to an evolving deployment and
    /// publish the next epoch.
    ///
    /// With one shard, signatures are repaired incrementally, a full
    /// snapshot is published, and every cross-query prediction cache is
    /// retired ([`ServiceStats::cache_invalidations`] counts them).
    /// With k > 1, the one global maintainer repairs the matrix and
    /// only the shards whose residents intersect the batch's blast
    /// zone are rebuilt, each bumping its own epoch (see the
    /// [`shard`](super::shard) module docs).
    ///
    /// Jobs already running keep the snapshot (and old-epoch caches)
    /// they started with; jobs picked up after this call — including
    /// ones queued before it — see the new epoch. Per-query models are
    /// refit lazily: training runs inside each job against the
    /// snapshot it captured, so the first post-update job of a shape
    /// simply trains against the new graph.
    ///
    /// Returns [`UpdateError::StaticDeployment`] on a deployment built
    /// without [`DeploymentSpec::evolving`]. Erroneous batches are
    /// atomic: nothing mutates, no epoch publishes, no cache drops.
    pub fn apply_update(&self, updates: &[GraphUpdate]) -> Result<UpdateReport, UpdateError> {
        if let Some(sh) = &self.sharding {
            return sh.apply_update(&self.shards, updates, &self.metrics);
        }
        let mut guard = unpoison(self.evolving.lock());
        let Some(ev) = guard.as_mut() else {
            return Err(UpdateError::StaticDeployment);
        };
        let report = ev.apply_recorded(updates, self.metrics.as_ref())?;
        self.shards[0].publish(ev.current());
        Ok(report)
    }

    /// Enqueue one query; returns immediately with a handle to its
    /// eventual result. Jobs are served FIFO by whichever worker of
    /// their shard parks first; a sharded deployment enqueues one part
    /// per shard owning candidates.
    ///
    /// A spec carrying an [`EvalLimits`](crate::EvalLimits) deadline is
    /// deadline-aware end to end: if the deadline passes while the job
    /// is still queued, it is answered with a structured
    /// [`DEADLINE_EXPIRED_REASON`] failure instead of being run.
    ///
    /// Submitting to a service that [`PsiService::shutdown`] has
    /// already stopped never loses the job: it is answered immediately
    /// with an [`ABORTED_BY_SHUTDOWN_REASON`] structured failure.
    ///
    /// On a sharded deployment a query whose pivot eccentricity
    /// exceeds the halo depth is never run: it could match embeddings
    /// that leave a shard's resident ball, so its answer would
    /// silently miss boundary-crossing embeddings. Its handle answers
    /// with a [`QUERY_TOO_DEEP_REASON`] structured failure naming both
    /// numbers, and the deployment keeps serving.
    pub fn submit(&self, query: PivotedQuery, spec: RunSpec) -> JobHandle {
        match &self.sharding {
            None => JobHandle(Parts::One(self.shards[0].submit(query, spec))),
            Some(sh) => sh.submit(&self.shards, query, spec, &self.metrics, true),
        }
    }

    /// [`PsiService::submit`] without the halo-depth guard. Only for
    /// tests that deliberately build an undersized halo to prove the
    /// guard is load-bearing; never correct in production.
    #[doc(hidden)]
    pub fn submit_unchecked(&self, query: PivotedQuery, spec: RunSpec) -> JobHandle {
        match &self.sharding {
            None => self.submit(query, spec),
            Some(sh) => sh.submit(&self.shards, query, spec, &self.metrics, false),
        }
    }

    /// Graceful shutdown with an explicit grace period and observable
    /// accounting (the drop path drains silently; the network drain
    /// path and the overload tests need the counts).
    ///
    /// Semantics, in order:
    ///
    /// 1. **Finish in-flight and queued work** on every shard while the
    ///    one grace period lasts — workers keep popping jobs as usual
    ///    (jobs whose own deadline expires in the queue still take the
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
        let served_at_entry = self.metrics.counter(Counter::QueriesServed);

        // Phase 1: wait for every backlog to drain or the grace period
        // to lapse. Plain bounded polling — shutdown is not a hot
        // path, and the 1 ms granularity only delays the abort sweep,
        // never an answer.
        while !self.shards.iter().all(|s| s.is_idle()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }

        // Phase 2 + 3: abort the remnants, stop and join the workers.
        let aborted = self.shards.iter().map(|s| s.close(true)).sum();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }

        let drained = self
            .metrics
            .counter(Counter::QueriesServed)
            .saturating_sub(served_at_entry);
        self.metrics.add(Counter::Drained, drained);
        DrainReport { drained, aborted }
    }

    /// Number of worker threads, over all shards.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently queued (not yet picked up), over all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.pending()).sum()
    }

    /// Lifetime counters of this deployment.
    pub fn stats(&self) -> ServiceStats {
        let m = &self.metrics;
        ServiceStats {
            queries_served: m.counter(Counter::QueriesServed),
            cross_query_cache_hits: m.counter(Counter::CrossQueryCacheHits),
            requeued_jobs: m.counter(Counter::Requeued),
            worker_panics: m.counter(Counter::WorkerDeaths),
            distinct_query_shapes: self.shards.iter().map(|s| s.live_shapes()).sum(),
            graph_epoch: self.shard_epochs().into_iter().max().unwrap_or(0),
            cache_invalidations: m.counter(Counter::CacheInvalidations),
            cache_evictions: m.counter(Counter::CacheEvictions),
            deadline_expired: m.counter(Counter::DeadlineExpired),
            drained: m.counter(Counter::Drained),
        }
    }

    /// The deployment's metrics registry: the queue-wait histogram,
    /// pool-spawn spans and the counters behind [`PsiService::stats`],
    /// plus [`Counter::ShardFanout`] and [`Phase::ShardMerge`] spans
    /// on a sharded deployment.
    pub fn metrics(&self) -> &MetricsRecorder {
        &self.metrics
    }

    /// Number of shards (1 unless [`DeploymentSpec::shards`] asked for
    /// more).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The ghost-node halo depth `D` every shard was built with;
    /// `None` on a 1-shard deployment, which needs no halo.
    pub fn halo_depth(&self) -> Option<u32> {
        self.sharding.as_ref().map(|sh| sh.halo_depth())
    }

    /// Owned node range `[lo, hi)` of one shard.
    pub fn owned_range(&self, shard: usize) -> (NodeId, NodeId) {
        match &self.sharding {
            None => (0, self.shards[shard].context().graph().node_count() as NodeId),
            Some(sh) => sh.owned_range(shard),
        }
    }

    /// Every global node resident in a shard (owned + halo + rim),
    /// ascending. Test/introspection surface for the halo proofs.
    pub fn resident_nodes(&self, shard: usize) -> Vec<NodeId> {
        match &self.sharding {
            None => {
                let (lo, hi) = self.owned_range(shard);
                (lo..hi).collect()
            }
            Some(sh) => sh.resident_nodes(shard),
        }
    }

    /// Current per-shard epochs (each starts at 0 and advances only
    /// when an update batch touches that shard).
    pub fn shard_epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.context().epoch()).collect()
    }

    /// Data nodes carrying `label`, and data nodes in all: the front
    /// door's pre-evaluation cost signal.
    pub(crate) fn label_population(&self, label: LabelId) -> (usize, usize) {
        match &self.sharding {
            None => {
                let ctx = self.shards[0].context();
                let g = ctx.graph();
                (g.nodes_with_label(label).len(), g.node_count())
            }
            Some(sh) => sh.label_population(&self.shards, label),
        }
    }
}

impl Drop for PsiService {
    /// Graceful shutdown: already-submitted jobs are drained and
    /// answered, then the workers exit and are joined.
    fn drop(&mut self) {
        for s in &self.shards {
            s.close(false);
        }
        for w in self.workers.drain(..) {
            // A worker that somehow died is already accounted; joining
            // the corpse must not abort the drop of the others.
            let _ = w.join();
        }
    }
}

/// `ctx` on the requested signature-store backend: converted once when
/// `kind` names a different backend, otherwise the shared context as-is.
pub(crate) fn with_store(ctx: &Arc<GraphContext>, kind: Option<SigStoreKind>) -> Arc<GraphContext> {
    match kind {
        Some(k) if k != ctx.config().sig_store => Arc::new(ctx.with_store_kind(k)),
        _ => ctx.clone(),
    }
}

fn worker_loop(shard: &Shard, spawn_t0: Instant) {
    shard
        .metrics
        .span_ns(Phase::PoolSpawn, spawn_t0.elapsed().as_nanos() as u64);
    let mut smart = SmartPsi::from_context(shard.context());
    loop {
        let job = {
            let mut q = unpoison(shard.queue.lock());
            loop {
                if let Some(job) = q.pop_front() {
                    // Count the job in-flight before the lock drops so
                    // the drain predicate (empty queue, nothing in
                    // flight) can never observe it in neither place.
                    shard.in_flight.fetch_add(1, Ordering::AcqRel);
                    break job;
                }
                if shard.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = unpoison(shard.available.wait(q));
            }
        };
        shard
            .metrics
            .observe(Histogram::QueueWait, job.enqueued.elapsed().as_nanos() as u64);

        // Deadline-aware dequeue: a job whose global stop signal
        // (deadline or cancel flag) fired while it waited is answered
        // with a structured failure instead of being run — under
        // overload there is no point training a model for an answer
        // nobody can use in time, and shedding it here frees the
        // worker for jobs that can still meet their deadlines.
        if job.spec.limits.expired() {
            shard.metrics.add(Counter::DeadlineExpired, 1);
            shard.metrics.add(Counter::QueriesServed, 1);
            job.slot
                .fill(structured_failure(job.query.pivot(), DEADLINE_EXPIRED_REASON));
            shard.in_flight.fetch_sub(1, Ordering::AcqRel);
            continue;
        }

        // Pin the currently published snapshot for the whole job
        // (lazy refit: a worker whose facade is from an older epoch
        // rebuilds it here, and the per-query model trains against the
        // new graph inside `run`).
        let ctx = shard.context();
        if !Arc::ptr_eq(smart.context(), &ctx) {
            smart = SmartPsi::from_context(ctx);
        }

        let cache = shard.cache_for(&job.query, smart.context());
        // Mark the query boundary: whatever this job reads from before
        // this instant was produced by an earlier job.
        cache.advance_epoch();
        let spec = job.spec.clone().cache(cache.clone());
        let outcome = catch_unwind(AssertUnwindSafe(|| smart.run(&job.query, &spec)));
        // Drain this job's reuse into the lifetime counter before its
        // handle fills, so a caller that waited sees it in `stats`.
        shard
            .metrics
            .add(Counter::CrossQueryCacheHits, cache.take_cross_query_hits());
        match outcome {
            Ok(result) => {
                shard.metrics.add(Counter::QueriesServed, 1);
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
                shard.metrics.add(Counter::WorkerDeaths, 1);
                if job.attempt == 0 {
                    shard.metrics.add(Counter::Requeued, 1);
                    unpoison(shard.queue.lock()).push_back(Job {
                        enqueued: Instant::now(),
                        attempt: 1,
                        ..job
                    });
                    shard.available.notify_one();
                } else {
                    let mut failed = PsiResult::empty(0, 0);
                    failed
                        .failures
                        .record(job.query.pivot(), reason, job.attempt + 1);
                    failed.failures.worker_deaths = job.attempt as usize + 1;
                    shard.metrics.add(Counter::QueriesServed, 1);
                    job.slot.fill(failed);
                }
            }
        }
        shard.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::context::SmartPsiConfig;
    use psi_graph::Graph;

    fn deployment() -> (Graph, SmartPsi) {
        let g = psi_datasets::generators::erdos_renyi(300, 1100, 3, 31);
        let cfg = SmartPsiConfig {
            min_candidates_for_ml: 10,
            ..SmartPsiConfig::default()
        };
        (g.clone(), SmartPsi::new(g, cfg))
    }

    #[test]
    fn service_answers_match_direct_runs() {
        let (g, smart) = deployment();
        let service = smart.deploy(&DeploymentSpec::new().workers(3));
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
        let (g, smart) = deployment();
        let service = smart.deploy(&DeploymentSpec::new().workers(2));
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
        let (g, smart) = deployment();
        let service = smart.deploy(&DeploymentSpec::new());
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
