//! The execution layer: the drivers that sweep a query's candidate
//! set. [`SmartPsi::run`](crate::SmartPsi::run) matches the
//! [`RunSpec`]'s `ExecutorKind` to one of them; each reads the spec
//! and `ctx.config()` directly.
//!
//! One realist driver, one splitter around it, and one baseline:
//!
//! * **WorkStealing** — the realist at every worker count: train once,
//!   build one phase-A `BatchPlan` (model decisions with a
//!   [`PredictionCache`], or an exact plan for a session without
//!   models), then drain it in grabs from an atomic cursor. One worker
//!   runs the grab loop on the calling thread; more run it as tasks on
//!   the shared pool.
//! * **StaticChunks** — one static candidate chunk per thread, each
//!   run through the one-worker driver with its own training run and
//!   cache (the Figure 9 static splitter).
//! * **TwoThread** — the §4.1 baseline in [`crate::twothread`]: race
//!   the optimist and the pessimist on two threads per candidate over
//!   the deployment's precomputed signatures.
//!
//! Every partial result — a grab, a requeued grab, a static chunk — is
//! folded by the one merge, `SmartPsiReport::absorb`.
//!
//! **Determinism argument.** Which worker evaluates which candidate —
//! and whether its (method, plan) came from the cache or a model —
//! affects only *cost* (steps, stage counters, cache hits), never the
//! *verdict*: every recovery pipeline ends in an exhaustive unlimited
//! run, and both methods are exact (§4.3). Phase A runs once on the
//! calling thread, so the plan — and with it every per-node cost — is
//! identical for any worker count, grab size and run; the whole
//! result is, not only the sorted `valid` vector. Tested in
//! `valid_set_is_identical_across_worker_counts_and_runs`
//! (`tests/parallel_executor.rs`) and, under seeded faults, in
//! `determinism_across_worker_counts_under_seeded_faults`
//! (`crates/core/tests/fault_injection.rs`).
//!
//! **Limit observance.** A global deadline or cancel flag
//! ([`EvalLimits`]) is (a) threaded into
//! every per-stage limit, so in-flight searches unwind within
//! [`POLL_INTERVAL`](crate::limits::POLL_INTERVAL) steps, and (b)
//! polled at every grab boundary, so no worker starts more than one
//! grab after cancellation. Candidates never grabbed, and the
//! remainder of a grab whose node came back
//! [`Verdict::Interrupted`](crate::Verdict::Interrupted), are
//! reported as `unresolved`.
//!
//! **Fault tolerance.** Every per-node evaluation inside a grab is
//! panic-isolated and retried by the ladder
//! (`GraphContext::eval_rest_node`), so a broken node costs one
//! entry in the result's
//! [`FailureReport`](crate::report::FailureReport), not the pool. A
//! pool worker *task* dying entirely (a panic outside the isolated
//! region, or an injected
//! [`FaultKind::KillWorker`](crate::fault::FaultKind::KillWorker)) is
//! detected at join: each grab is committed to a shared ledger as a
//! unit, so a dead worker loses only its in-flight grab, which the
//! calling thread detects via the ledger and re-evaluates inline
//! (`requeued` in the failure report). The pool never aborts on a
//! worker death. The one-worker loop on the calling thread takes no
//! ledger and never consults `KillWorker`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use psi_graph::hash::{FxHashMap, FxHasher};
use psi_graph::{NodeId, PivotedQuery};
use psi_obs::{timed, Counter, Histogram, MetricsRecorder, NoopRecorder, Phase, Recorder};
use psi_signature::SignatureKey;

use crate::fault::{unpoison, InjectedPanic, NodeMatcher};
use crate::limits::EvalLimits;
use crate::report::{PsiResult, StageTimings};
use crate::single::pivot_candidates;
use crate::smart::{RunSpec, SmartPsiReport};

use super::context::GraphContext;
use super::ladder::{absorb_outcome, BatchPlan};
use super::pool;
use super::training::{TrainOutcome, TrainedSession};

/// Which driver [`SmartPsi::run`](crate::SmartPsi::run) matches a
/// [`RunSpec`] to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum ExecutorKind {
    /// The realist: train once, then drain one shared phase-A plan in
    /// grabs — on the calling thread with one worker, on the pool with
    /// more.
    #[default]
    WorkStealing,
    /// The §4.1 two-threaded baseline: race the optimist and the
    /// pessimist per candidate (no training, no cache).
    TwoThread,
    /// The static splitter: one candidate chunk per thread, each with
    /// its own training run and cache (Figure 9's comparison arm).
    StaticChunks,
}

/// Candidates per work-stealing queue grab when the spec leaves
/// [`RunSpec::grab`] at 0.
const DEFAULT_GRAB: usize = 8;

/// Shards of every prediction cache the engine creates (a power of
/// two). More shards = less lock contention between pool workers.
pub(crate) const CACHE_SHARDS: usize = 16;

/// One cached conclusion: the confirmed (method, plan) indices and the
/// cache epoch it was inserted in (for cross-query accounting).
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    value: (usize, usize),
    epoch: u64,
}

/// One lock-protected slice of the prediction cache.
type CacheShard = Mutex<FxHashMap<SignatureKey, CacheEntry>>;

/// Concurrent (method, plan) prediction cache keyed by exact
/// signature, sharded to keep workers off each other's locks. With a
/// single shard this is exactly the sequential executor's cache plus
/// one uncontended lock.
///
/// The cache carries an *epoch* so a long-lived instance (the
/// cross-query cache of a [`PsiService`](super::service::PsiService))
/// can account reuse: [`PredictionCache::advance_epoch`] marks a query
/// boundary, and a `get` that hits an entry inserted in an earlier
/// epoch counts as one cross-query hit
/// ([`PredictionCache::cross_query_hits`]). Per-run caches never
/// advance the epoch, so the mechanism is free for them.
pub struct PredictionCache {
    shards: Box<[CacheShard]>,
    mask: usize,
    epoch: AtomicU64,
    cross_epoch_hits: AtomicU64,
}

impl std::fmt::Debug for PredictionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictionCache")
            .field("shards", &self.shards.len())
            .field("entries", &self.len())
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .finish()
    }
}

impl PredictionCache {
    /// Create a cache with `shards` shards (rounded up to a power of
    /// two, minimum 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n).map(|_| Mutex::new(FxHashMap::default())).collect(),
            mask: n - 1,
            epoch: AtomicU64::new(0),
            cross_epoch_hits: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &SignatureKey) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = FxHasher::default();
        key.hash(&mut h);
        (h.finish() as usize) & self.mask
    }

    /// Look up a cached (method index, plan index).
    pub fn get(&self, key: &SignatureKey) -> Option<(usize, usize)> {
        let entry = unpoison(self.shards[self.shard_of(key)].lock()).get(key).copied()?;
        if entry.epoch < self.epoch.load(Ordering::Relaxed) {
            self.cross_epoch_hits.fetch_add(1, Ordering::Relaxed);
        }
        Some(entry.value)
    }

    /// Publish a confirmed (method index, plan index).
    pub fn insert(&self, key: SignatureKey, value: (usize, usize)) {
        let epoch = self.epoch.load(Ordering::Relaxed);
        unpoison(self.shards[self.shard_of(&key)].lock()).insert(key, CacheEntry { value, epoch });
    }

    /// Mark a query boundary: entries inserted before this call count
    /// as cross-query when hit afterwards.
    pub fn advance_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Hits on entries inserted in an earlier epoch (i.e. by an
    /// earlier query, when the owner advances the epoch per query),
    /// since creation or the last
    /// [`PredictionCache::take_cross_query_hits`].
    pub fn cross_query_hits(&self) -> u64 {
        self.cross_epoch_hits.load(Ordering::Relaxed)
    }

    /// Read and reset [`PredictionCache::cross_query_hits`]. A service
    /// drains each job's hits into its lifetime counter this way, so
    /// concurrent jobs on one cache count every hit exactly once and
    /// dropping the cache loses none.
    pub fn take_cross_query_hits(&self) -> u64 {
        self.cross_epoch_hits.swap(0, Ordering::Relaxed)
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| unpoison(s.lock()).len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl GraphContext {
    /// The static chunk-per-thread driver behind
    /// [`ExecutorKind::StaticChunks`]: each of `spec.threads` (≥ 1)
    /// chunks runs the one-worker driver on its own pool task (its own
    /// training and cache), and the chunk reports fold by the one
    /// merge. A chunk never scatters onto the pool itself: a nested
    /// scatter from inside a pool task could deadlock.
    pub(crate) fn static_chunks(
        &self,
        query: &PivotedQuery,
        spec: &RunSpec,
        rec: &dyn Recorder,
    ) -> SmartPsiReport {
        let threads = spec.threads.max(1);
        let candidates = subset_or(self, query, spec.subset.as_deref());
        let chunk = candidates.len().div_ceil(threads);
        if threads == 1 || chunk == 0 {
            return work_stealing(self, query, candidates, 1, spec, rec);
        }
        let slices: Vec<&[NodeId]> = candidates.chunks(chunk).collect();
        let pool = pool::global();
        pool.ensure(threads, rec);
        let t_attach = rec.enabled().then(Instant::now);
        let slots: Vec<Mutex<Option<SmartPsiReport>>> =
            slices.iter().map(|_| Mutex::new(None)).collect();
        let tasks: Vec<pool::ScopedTask<'_>> = slices
            .iter()
            .zip(&slots)
            .map(|(&slice, slot)| {
                Box::new(move || {
                    if let Some(t0) = t_attach {
                        rec.span_ns(Phase::PoolSpawn, t0.elapsed().as_nanos() as u64);
                    }
                    let r = work_stealing(self, query, slice.to_vec(), 1, spec, rec);
                    *unpoison(slot.lock()) = Some(r);
                }) as pool::ScopedTask<'_>
            })
            .collect();
        pool.scatter(tasks);
        let reports: Vec<SmartPsiReport> = slices
            .iter()
            .zip(slots)
            .map(|(slice, slot)| match unpoison(slot.into_inner()) {
                Some(r) => r,
                None => {
                    // The chunk's task died outside the isolated
                    // per-node path; its candidates stay unresolved,
                    // the run keeps going.
                    let mut r = unresolved_report(slice.len(), 0);
                    r.result.failures.worker_deaths = 1;
                    r
                }
            })
            .collect();
        timed(rec, Phase::Merge, || {
            let mut merged = SmartPsiReport::default();
            for r in &reports {
                merged.absorb(r);
            }
            merged.sort();
            merged
        })
    }
}

/// One committed grab's worth of results (or, on the calling thread,
/// a whole one-worker sweep's), folded by the one merge after join.
#[derive(Default)]
struct Partial {
    report: SmartPsiReport,
    grabbed: usize,
}

/// Shared commit log of the pool. Workers (a) register a grab range
/// as in-flight before evaluating it and (b) atomically commit its
/// [`Partial`] *and* retire the registration under one lock, so a
/// worker death can never lose a committed grab or double-count a
/// requeued one — whatever is still in `inflight` after all joins is
/// exactly the work dead workers dropped.
#[derive(Default)]
struct PoolLedger {
    partials: Vec<Partial>,
    inflight: Vec<(usize, usize)>,
}

/// The shared work queue over one phase-A [`BatchPlan`]: an atomic
/// cursor handing out `grab`-sized contiguous ranges.
struct Grabs<'a> {
    bp: &'a BatchPlan,
    cursor: AtomicUsize,
    grab: usize,
    limits: &'a EvalLimits,
}

impl Grabs<'_> {
    /// The next range to evaluate, or `None` once the plan is drained
    /// or the global limits fired (polled at every grab boundary).
    fn next(&self) -> Option<(usize, usize)> {
        if self.limits.expired() {
            return None;
        }
        let start = self.cursor.fetch_add(self.grab, Ordering::Relaxed);
        (start < self.bp.len()).then(|| (start, (start + self.grab).min(self.bp.len())))
    }
}

/// Evaluate one grab range — a contiguous slice of the phase-A
/// [`BatchPlan`], i.e. same-`(method, plan)` candidates with ascending
/// ids — into `part`. Returns true when the *global* limits fired
/// mid-grab (the caller must stop grabbing); the remainder of the
/// grab is then already accounted as unresolved.
#[allow(clippy::too_many_arguments)]
fn run_grab(
    ctx: &GraphContext,
    sess: &TrainedSession,
    m: &mut dyn NodeMatcher,
    bp: &BatchPlan,
    (start, end): (usize, usize),
    spec: &RunSpec,
    rec: &dyn Recorder,
    part: &mut Partial,
) -> bool {
    part.grabbed += end - start;
    rec.add(Counter::GrabSteals, 1);
    rec.observe(Histogram::GrabLength, (end - start) as u64);
    // Prefetch: touch each candidate's CSR adjacency span once before
    // matching. Ids ascend within a grab, so this walks one contiguous
    // region of the edge array instead of hopping around it per node.
    for &u in &bp.ids[start..end] {
        std::hint::black_box(ctx.g.neighbors(u).first());
    }
    for i in start..end {
        let u = bp.ids[i];
        let out = ctx.eval_rest_node(sess, m, bp.pred(i), u, spec, rec);
        absorb_outcome(&mut part.report, u, &out);
        if out.is_global_stop() {
            part.report.result.unresolved += end - i - 1;
            return true;
        }
    }
    false
}

/// The realist's one driver, behind [`RunSpec::new`],
/// [`RunSpec::threads`](crate::RunSpec::threads) and every static
/// chunk: train once on `candidates`, build the phase-A plan, and
/// drain it in grabs with `workers` workers — the calling thread when
/// `workers` is 1 (no pool task, no lock), else pool tasks.
///
/// Instrumentation: pool workers record into *private*
/// [`MetricsRecorder`] buffers (no cross-thread contention on the
/// shared registry) and drain them into the caller's recorder exactly
/// once at exit; the sums are order-independent, so profiled totals
/// are deterministic across schedules. Each pool worker also reports
/// its spawn/attach latency as a [`Phase::PoolSpawn`] span, so
/// per-query pool setup is visible separately from evaluation time. A
/// dead worker's undrained buffer is lost — observational metrics
/// only; the exact accounting counters are rebuilt from the merged
/// report either way.
pub(crate) fn work_stealing(
    ctx: &GraphContext,
    query: &PivotedQuery,
    candidates: Vec<NodeId>,
    workers: usize,
    spec: &RunSpec,
    rec: &dyn Recorder,
) -> SmartPsiReport {
    let cfg = ctx.config();
    let total = candidates.len();
    if spec.limits.expired() {
        return unresolved_report(total, 0);
    }
    let sess = match ctx.train_session(query, candidates, spec, rec) {
        TrainOutcome::Interrupted { steps, failures } => {
            let mut r = unresolved_report(total, steps);
            r.result.failures = failures;
            return r;
        }
        TrainOutcome::Trained(sess) => sess,
    };

    // The one cache rule: with `enable_cache`, phase A probes the
    // run's attached (cross-query) cache, else a fresh one. An exact
    // plan predicts nothing and needs none.
    let fresh;
    let cache = if sess.models.is_none() || !cfg.enable_cache {
        None
    } else if let Some(attached) = spec.cache.as_deref() {
        Some(attached)
    } else {
        fresh = PredictionCache::new(CACHE_SHARDS);
        Some(&fresh)
    };

    // Phase A: the SoA prefilter sweep + survivor prediction, once,
    // before any worker starts. Every worker count sees this identical
    // plan, and grabs become contiguous same-(method, plan) ranges.
    let bp = ctx.batch_plan(&sess, cache, rec);
    let grabs = Grabs {
        bp: &bp,
        cursor: AtomicUsize::new(0),
        grab: if spec.grab != 0 { spec.grab } else { DEFAULT_GRAB },
        limits: &spec.limits,
    };
    let t_eval = Instant::now();
    let (partials, worker_deaths) = if workers <= 1 {
        let mut matcher = ctx.matcher(spec);
        let mut part = Partial::default();
        while let Some(range) = grabs.next() {
            if run_grab(ctx, &sess, &mut matcher, &bp, range, spec, rec, &mut part) {
                break;
            }
        }
        (vec![part], 0)
    } else {
        pool_sweep(ctx, &sess, &grabs, workers, spec, rec)
    };
    let evaluation = t_eval.elapsed();

    // ---- Deterministic merge ---------------------------------------
    timed(rec, Phase::Merge, || {
        let grabbed: usize = partials.iter().map(|p| p.grabbed).sum();
        let mut report = SmartPsiReport {
            result: PsiResult {
                valid: sess.train_valid.clone(),
                candidates: sess.total_candidates,
                steps: sess.train_steps,
                // Candidates the cursor handed out past cancellation
                // to nobody, plus dead-worker grabs the requeue pass
                // could not finish.
                unresolved: bp.len() - grabbed,
                failures: sess.failures.clone(),
                profile: None,
            },
            timings: StageTimings {
                training_and_prediction: sess.training_and_prediction,
                evaluation,
            },
            trained_nodes: sess.n_train,
            // A model decided every planned candidate; an exact plan,
            // none.
            alpha_predicted: if sess.models.is_some() { bp.len() } else { 0 },
            ..SmartPsiReport::default()
        };
        report.result.failures.worker_deaths = worker_deaths;
        for p in &partials {
            report.absorb(&p.report);
        }
        report.sort();
        debug_assert_eq!(
            report.result.valid.len()
                + report.result.unresolved
                + report.result.failures.len()
                + invalid_count(&report, sess.n_train),
            report.result.candidates,
            "every candidate is valid, invalid, unresolved or failed"
        );
        report
    })
}

/// Drain `grabs` with `workers` pool tasks, then requeue on the
/// calling thread whatever grab a dead worker dropped. Returns the
/// committed partials and the number of worker deaths.
fn pool_sweep(
    ctx: &GraphContext,
    sess: &TrainedSession,
    grabs: &Grabs<'_>,
    workers: usize,
    spec: &RunSpec,
    rec: &dyn Recorder,
) -> (Vec<Partial>, usize) {
    let bp = grabs.bp;
    let pool = pool::global();
    pool.ensure(workers, rec);
    let ledger = Mutex::new(PoolLedger::default());
    let fault = spec.fault.as_ref().or(ctx.config().fault.as_ref());
    let t_spawn = rec.enabled().then(Instant::now);

    let worker_deaths = {
        let ledger = &ledger;
        let tasks: Vec<pool::ScopedTask<'_>> = (0..workers)
            .map(|_| {
                Box::new(move || {
                    let mut matcher = ctx.matcher(spec);
                    // Private metrics buffer, drained into the shared
                    // recorder once at worker exit.
                    let local_rec = rec.enabled().then(MetricsRecorder::new);
                    let wrec: &dyn Recorder = match &local_rec {
                        Some(l) => l,
                        None => &NoopRecorder,
                    };
                    if let Some(t0) = t_spawn {
                        wrec.span_ns(Phase::PoolSpawn, t0.elapsed().as_nanos() as u64);
                    }
                    while let Some((start, end)) = grabs.next() {
                        unpoison(ledger.lock()).inflight.push((start, end));
                        // Simulated worker death: a KillWorker fault
                        // on any node of this grab kills the task
                        // before evaluation; the grab stays in the
                        // inflight list for the parent to requeue.
                        if let Some(f) = fault {
                            for &u in &bp.ids[start..end] {
                                if f.take_worker_kill(u) {
                                    std::panic::panic_any(InjectedPanic { node: u });
                                }
                            }
                        }
                        let mut part = Partial::default();
                        let stopped =
                            run_grab(ctx, sess, &mut matcher, bp, (start, end), spec, wrec, &mut part);
                        {
                            let mut l = unpoison(ledger.lock());
                            l.partials.push(part);
                            if let Some(pos) =
                                l.inflight.iter().position(|&r| r == (start, end))
                            {
                                l.inflight.swap_remove(pos);
                            }
                        }
                        if stopped {
                            break;
                        }
                    }
                    if let Some(l) = &local_rec {
                        l.drain_into(rec);
                    }
                }) as pool::ScopedTask<'_>
            })
            .collect();
        // A worker task that died (panicked outside the per-node
        // isolation) is counted by the pool's completion latch; its
        // in-flight grab is recovered from the ledger below. No task
        // death aborts the run or costs a pool thread.
        pool.scatter(tasks)
    };

    let PoolLedger {
        mut partials,
        inflight,
    } = unpoison(ledger.into_inner());

    // ---- Requeue grabs dropped by dead workers ---------------------
    if !inflight.is_empty() {
        let mut matcher = ctx.matcher(spec);
        for &range in &inflight {
            if spec.limits.expired() {
                // Unrecovered ranges fall into the `rest - grabbed`
                // unresolved accounting of the merge.
                break;
            }
            let mut part = Partial::default();
            let stopped = run_grab(ctx, sess, &mut matcher, bp, range, spec, rec, &mut part);
            let n = range.1 - range.0;
            part.report.result.failures.requeued += n;
            rec.add(Counter::Requeued, n as u64);
            partials.push(part);
            if stopped {
                break;
            }
        }
    }
    (partials, worker_deaths)
}

fn invalid_count(report: &SmartPsiReport, n_train: usize) -> usize {
    let resolved =
        n_train + report.resolved_stage1 + report.recovered_stage2 + report.recovered_stage3;
    resolved - report.result.valid.len()
}

/// Report for a query whose evaluation was stopped before any
/// candidate resolved. Every candidate counts as a mispredicted α
/// call, so its α-accuracy reads 0.
pub(crate) fn unresolved_report(candidates: usize, steps: u64) -> SmartPsiReport {
    SmartPsiReport {
        result: PsiResult::empty(candidates, steps),
        timings: StageTimings::default(),
        trained_nodes: 0,
        cache_hits: 0,
        resolved_stage1: 0,
        recovered_stage2: 0,
        recovered_stage3: 0,
        predicted_valid: 0,
        alpha_correct: 0,
        alpha_predicted: candidates,
    }
}

/// The run's candidate list: the given subset, else every pivot
/// candidate.
pub(crate) fn subset_or(
    ctx: &GraphContext,
    query: &PivotedQuery,
    subset: Option<&[NodeId]>,
) -> Vec<NodeId> {
    match subset {
        Some(s) => s.to_vec(),
        None => pivot_candidates(&ctx.g, query),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::EvalLimits;
    use crate::smart::SmartPsi;
    use crate::SmartPsiConfig;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn deployment() -> (SmartPsi, PivotedQuery) {
        let g = psi_datasets::generators::erdos_renyi(400, 1600, 3, 21);
        let q = psi_datasets::rwr::extract_query_seeded(&g, 4, 7).unwrap();
        let cfg = SmartPsiConfig {
            min_candidates_for_ml: 10,
            ..SmartPsiConfig::default()
        };
        (SmartPsi::new(g, cfg), q)
    }

    fn counter(r: &crate::PsiResult, c: Counter) -> u64 {
        r.profile.as_ref().expect("run attaches a profile").counter(c)
    }

    #[test]
    fn cache_round_trips_and_shards() {
        let cache = PredictionCache::new(7); // rounds up to 8
        assert!(cache.is_empty());
        for i in 0..64u32 {
            let key = SignatureKey::exact(&[i as f32, 1.0, 2.0]);
            assert_eq!(cache.get(&key), None);
            cache.insert(key.clone(), (i as usize % 2, i as usize % 3));
            assert_eq!(cache.get(&key), Some((i as usize % 2, i as usize % 3)));
        }
        assert_eq!(cache.len(), 64);
    }

    #[test]
    fn cache_epochs_count_cross_query_hits() {
        let cache = PredictionCache::new(2);
        let key = SignatureKey::exact(&[1.0, 2.0]);
        cache.insert(key.clone(), (0, 1));
        assert_eq!(cache.get(&key), Some((0, 1)));
        assert_eq!(cache.cross_query_hits(), 0, "same epoch: not cross-query");
        cache.advance_epoch();
        assert_eq!(cache.get(&key), Some((0, 1)));
        assert_eq!(cache.get(&key), Some((0, 1)));
        assert_eq!(cache.cross_query_hits(), 2, "hits after the boundary count");
        // Entries inserted in the new epoch are again same-epoch.
        let key2 = SignatureKey::exact(&[3.0]);
        cache.insert(key2.clone(), (1, 0));
        assert_eq!(cache.get(&key2), Some((1, 0)));
        assert_eq!(cache.cross_query_hits(), 2);
    }

    #[test]
    fn work_stealing_matches_sequential_valid_set() {
        let (smart, q) = deployment();
        let seq = smart.run(&q, &RunSpec::new());
        for threads in [1, 2, 4] {
            let ws = smart.run(&q, &RunSpec::new().threads(threads));
            assert_eq!(ws.valid, seq.valid, "threads={threads}");
            assert_eq!(ws.candidates, seq.candidates);
            assert_eq!(ws.unresolved, 0);
            assert_eq!(
                counter(&ws, Counter::TrainedNodes),
                counter(&seq, Counter::TrainedNodes),
                "trains once"
            );
        }
    }

    #[test]
    fn all_executors_agree() {
        use psi_signature::SigStoreKind;
        // Every executor × every signature store: the batched phase-A
        // plan is built identically per run, so answers must match
        // bit-for-bit across drivers on each backend.
        let g = psi_datasets::generators::erdos_renyi(400, 1600, 3, 21);
        let q = psi_datasets::rwr::extract_query_seeded(&g, 4, 7).unwrap();
        for kind in [SigStoreKind::Dense, SigStoreKind::Compact] {
            let cfg = SmartPsiConfig {
                min_candidates_for_ml: 10,
                sig_store: kind,
                ..SmartPsiConfig::default()
            };
            let smart = SmartPsi::new(g.clone(), cfg);
            let seq = smart.run(&q, &RunSpec::new());
            let par = smart.run(&q, &RunSpec::new().threads(2));
            let stat = smart.run(&q, &RunSpec::new().static_chunks(2));
            let two = smart.run(&q, &RunSpec::new().two_thread());
            assert_eq!(seq.valid, par.valid, "store {}", kind.name());
            assert_eq!(seq.valid, stat.valid, "store {}", kind.name());
            assert_eq!(seq.valid, two.valid, "store {}", kind.name());
            // PartialEq ignores the profile, so whole-result comparison
            // works across executors (costs differ for the baseline, so
            // only the work-stealing pool is fully comparable).
            assert_eq!(seq, par, "store {}", kind.name());
        }
    }

    #[test]
    fn prefilter_prunes_labeled_candidates_and_still_reconciles() {
        // On a labeled graph many candidates fail the pivot-signature
        // containment check; the batched phase-A sweep must prune them
        // (Proposition 3.2 — no survivor lost, no prediction spent)
        // while the stage accounting identity keeps reconciling. A
        // deployment that never trains gets a model-less (exact) plan,
        // which the prefilter fronts just the same.
        let (trained, q) = deployment();
        let g = trained.graph().clone();
        let model_less = SmartPsi::new(
            g,
            SmartPsiConfig {
                min_candidates_for_ml: usize::MAX,
                ..SmartPsiConfig::default()
            },
        );
        for smart in [&trained, &model_less] {
            let rec = Arc::new(MetricsRecorder::new());
            let r = smart.run(&q, &RunSpec::new().threads(4).recorder(rec.clone()));
            assert!(
                rec.counter(Counter::PrefilterPruned) > 0,
                "a 3-label deployment must prune some candidates in phase A"
            );
            let p = r.profile.as_ref().unwrap();
            assert!(p.reconciles());
            // Pruned nodes resolve at stage 1 with zero cost and must
            // agree with the one-worker run bit-for-bit.
            let seq = smart.run(&q, &RunSpec::new());
            assert_eq!(seq, r);
        }
    }

    #[test]
    fn stage_accounting_is_complete_under_work_stealing() {
        let (smart, q) = deployment();
        let r = smart.run(&q, &RunSpec::new().threads(4));
        let p = r.profile.as_ref().unwrap();
        assert_eq!(
            p.counter(Counter::TrainedNodes)
                + p.counter(Counter::ResolvedS1)
                + p.counter(Counter::RecoveredS2)
                + p.counter(Counter::RecoveredS3),
            r.candidates as u64,
            "no candidate lost or double-counted across workers"
        );
        assert!(p.reconciles());
    }

    #[test]
    fn pre_cancelled_pool_reports_everything_unresolved() {
        let (smart, q) = deployment();
        let flag = Arc::new(AtomicBool::new(true));
        let spec = RunSpec::new()
            .threads(4)
            .limits(EvalLimits::unlimited().with_cancel(flag));
        let r = smart.run(&q, &spec);
        assert!(r.valid.is_empty());
        assert_eq!(r.unresolved, r.candidates);
        assert!(r.profile.as_ref().unwrap().reconciles());
    }

    #[test]
    fn profiled_pool_run_merges_worker_buffers() {
        let (smart, q) = deployment();
        let rec = Arc::new(MetricsRecorder::new());
        let r = smart.run(&q, &RunSpec::new().threads(4).recorder(rec.clone()));
        let p = r.profile.as_ref().unwrap();
        assert!(p.recorded);
        assert!(p.counter(Counter::GrabSteals) > 0, "grabs were recorded");
        // Histogram of grab lengths saw every grab the workers took.
        let grabs: u64 = p.hists[Histogram::GrabLength as usize].iter().sum();
        assert_eq!(grabs, p.counter(Counter::GrabSteals));
        // Each worker reported its spawn latency.
        assert!(p.span(Phase::PoolSpawn) > std::time::Duration::ZERO);
        assert!(p.reconciles());
    }

    #[test]
    fn external_cache_prewarms_identical_queries() {
        let (smart, q) = deployment();
        let cache = Arc::new(PredictionCache::new(4));
        let baseline = smart.run(&q, &RunSpec::new());
        let first = smart.run(&q, &RunSpec::new().cache(cache.clone()));
        assert!(!cache.is_empty(), "first run must populate the cache");
        cache.advance_epoch();
        let second = smart.run(&q, &RunSpec::new().cache(cache.clone()));
        // Cached entries are confirmed model predictions, so a warm
        // cache changes cost accounting only — never the answer.
        assert_eq!(baseline, first);
        assert_eq!(baseline, second);
        assert!(cache.cross_query_hits() > 0, "second run reused the first's entries");
    }
}
