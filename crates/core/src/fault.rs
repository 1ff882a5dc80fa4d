//! Deterministic fault injection and panic isolation for the PSI
//! executors.
//!
//! SmartPSI's premise is graceful degradation: when the optimistically
//! predicted matcher misbehaves, the realist recovers (§4.3). This
//! module supplies the machinery to *prove* that property instead of
//! hoping for it:
//!
//! * [`NodeMatcher`] — the per-node evaluation seam every executor
//!   calls through. [`NodeEvaluator`] is the production implementation.
//! * [`ChaosMatcher`] — a wrapper that injects faults ([`FaultKind`])
//!   on chosen node ids according to a seeded [`FaultPlan`]: panics,
//!   spurious interrupts, step-budget burn and (at the pool level)
//!   whole-worker death.
//! * [`eval_isolated`] — the `catch_unwind` shim that turns a panic
//!   anywhere below the per-node call into a structured
//!   [`IsolatedOutcome::Panicked`] the retry ladder can act on.
//!
//! Faults are keyed by **data node id**, not by worker or timing, and
//! each keyed entry carries its own fire counter, so a fault schedule
//! replays identically for any worker count, grab size or cache mode —
//! the differential tests in `crates/core/tests/fault_injection.rs`
//! rely on exactly this to compare faulted runs against clean ones
//! bit-for-bit.
//!
//! Panic hygiene: injected panics carry an [`InjectedPanic`] payload;
//! [`install_quiet_panic_hook`] suppresses the default hook's stderr
//! spew for those payloads only, so fault-heavy test suites stay
//! readable while genuine panics still print.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, LockResult, Mutex, PoisonError};

use psi_graph::hash::{FxHashMap, FxHashSet, FxHasher};
use psi_graph::NodeId;

use crate::evaluator::{CompiledPlan, NodeEvaluator, QueryContext, Verdict};
use crate::limits::EvalLimits;
use crate::Strategy;

/// A fault entry fires on every evaluation of its node.
pub const ALWAYS: u32 = u32::MAX;

/// A fault entry fires on the first evaluation of its node only.
pub const ONCE: u32 = 1;

/// What a [`ChaosMatcher`] does when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the matcher (payload: [`InjectedPanic`]).
    Panic,
    /// Return [`Verdict::Interrupted`] without touching the search —
    /// a misbehaving matcher claiming its budget fired.
    SpuriousInterrupt,
    /// Burn this many steps off the evaluation's budget before the
    /// real search starts (a matcher wasting its `2×AvgT` allowance).
    BurnSteps(u64),
    /// Kill the whole worker thread that pulled this node from the
    /// queue. Handled by the work-stealing pool, not the matcher;
    /// [`FaultPlan::draw`] never returns it.
    KillWorker,
}

#[derive(Debug)]
struct FaultEntry {
    kind: FaultKind,
    /// Remaining fires; [`ALWAYS`] never decrements.
    remaining: AtomicU32,
}

/// Seeded rates for [`FaultPlan::seeded`]: each node draws at most one
/// one-shot fault, chosen by hashing `(seed, node)`.
#[derive(Debug, Clone, Copy)]
struct RandomFaults {
    seed: u64,
    panic_rate: f64,
    interrupt_rate: f64,
    burn_rate: f64,
}

/// A deterministic schedule of faults keyed by data node id.
///
/// Two modes, combinable:
///
/// * **Explicit** — [`FaultPlan::inject`] arms one [`FaultKind`] on one
///   node with a fire budget ([`ONCE`], [`ALWAYS`], or any count).
/// * **Seeded** — [`FaultPlan::seeded`] arms a pseudo-random one-shot
///   fault on a rate-controlled fraction of nodes, derived purely from
///   `hash(seed, node)` so the schedule is identical across runs,
///   worker counts and platforms.
#[derive(Debug, Default)]
pub struct FaultPlan {
    entries: FxHashMap<NodeId, FaultEntry>,
    random: Option<RandomFaults>,
    /// Nodes whose seeded one-shot fault has already fired.
    fired: Mutex<FxHashSet<NodeId>>,
}

impl FaultPlan {
    /// A plan with no faults: a [`ChaosMatcher`] carrying it is
    /// behaviorally identical to the bare evaluator.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Arm `kind` on `node`, firing at most `fires` times
    /// ([`ALWAYS`] = every evaluation). Replaces any earlier entry for
    /// the node.
    pub fn inject(mut self, node: NodeId, kind: FaultKind, fires: u32) -> Self {
        self.entries.insert(
            node,
            FaultEntry {
                kind,
                remaining: AtomicU32::new(fires),
            },
        );
        self
    }

    /// Arm a sticky panic ([`ALWAYS`]) on each listed node — the
    /// "this node can never be evaluated" worst case.
    pub fn panic_on(nodes: &[NodeId]) -> Self {
        nodes
            .iter()
            .fold(Self::empty(), |p, &n| p.inject(n, FaultKind::Panic, ALWAYS))
    }

    /// Rate-based chaos: every node independently draws at most one
    /// one-shot fault from `hash(seed, node)` — `panic_rate` of nodes
    /// panic once, the next `interrupt_rate` spuriously interrupt
    /// once, the next `burn_rate` burn budget once. All one-shot, so a
    /// healthy retry ladder recovers every node and the run stays
    /// exact.
    pub fn seeded(seed: u64, panic_rate: f64, interrupt_rate: f64, burn_rate: f64) -> Self {
        Self {
            random: Some(RandomFaults {
                seed,
                panic_rate,
                interrupt_rate,
                burn_rate,
            }),
            ..Self::default()
        }
    }

    /// Whether the plan can never fire anything.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.random.is_none()
    }

    /// Draw the fault (if any) for evaluating `node` now, consuming
    /// one fire. [`FaultKind::KillWorker`] entries are never returned
    /// here — they belong to [`FaultPlan::take_worker_kill`].
    pub fn draw(&self, node: NodeId) -> Option<FaultKind> {
        if let Some(e) = self.entries.get(&node) {
            if e.kind != FaultKind::KillWorker && Self::consume(&e.remaining) {
                return Some(e.kind);
            }
            return None;
        }
        let r = self.random?;
        let u = Self::unit_hash(r.seed, node);
        let kind = if u < r.panic_rate {
            FaultKind::Panic
        } else if u < r.panic_rate + r.interrupt_rate {
            FaultKind::SpuriousInterrupt
        } else if u < r.panic_rate + r.interrupt_rate + r.burn_rate {
            // Burn a budget-sized chunk; 4096 comfortably exceeds the
            // trained `2×AvgT` budgets of small workloads.
            FaultKind::BurnSteps(4096)
        } else {
            return None;
        };
        if !unpoison(self.fired.lock()).insert(node) {
            return None; // one-shot: already fired for this node
        }
        Some(kind)
    }

    /// Whether pulling `node` from the queue should kill the worker
    /// (consumes one fire). Only the pool consults this; the requeue
    /// path deliberately does not, so a killed node recovers inline.
    pub fn take_worker_kill(&self, node: NodeId) -> bool {
        match self.entries.get(&node) {
            Some(e) if e.kind == FaultKind::KillWorker => Self::consume(&e.remaining),
            _ => false,
        }
    }

    /// Project this plan onto a shard's local id space.
    ///
    /// `mapping` yields `(global, local)` pairs for every node the
    /// shard can evaluate as a candidate (faults are keyed by candidate
    /// id, and each global node is a candidate in exactly one shard).
    /// The projection is a standalone plan in local-id space:
    ///
    /// * explicit entries (including [`FaultKind::KillWorker`]) are
    ///   copied with a snapshot of their remaining fire budget;
    /// * seeded faults are *materialized*: the `hash(seed, global)`
    ///   draw each mapped node would make is resolved now and armed as
    ///   an explicit one-shot entry on the local id, so the shard
    ///   replays exactly the schedule the global plan would have
    ///   produced.
    ///
    /// Nodes whose seeded one-shot already fired on `self` are not
    /// re-armed.
    pub fn project(&self, mapping: impl IntoIterator<Item = (NodeId, NodeId)>) -> FaultPlan {
        let mut out = FaultPlan::empty();
        let fired = unpoison(self.fired.lock());
        for (global, local) in mapping {
            if let Some(e) = self.entries.get(&global) {
                out.entries.insert(
                    local,
                    FaultEntry {
                        kind: e.kind,
                        remaining: AtomicU32::new(e.remaining.load(Ordering::Relaxed)),
                    },
                );
                continue;
            }
            let Some(r) = self.random else { continue };
            if fired.contains(&global) {
                continue;
            }
            let u = Self::unit_hash(r.seed, global);
            let kind = if u < r.panic_rate {
                FaultKind::Panic
            } else if u < r.panic_rate + r.interrupt_rate {
                FaultKind::SpuriousInterrupt
            } else if u < r.panic_rate + r.interrupt_rate + r.burn_rate {
                FaultKind::BurnSteps(4096)
            } else {
                continue;
            };
            out.entries.insert(
                local,
                FaultEntry {
                    kind,
                    remaining: AtomicU32::new(ONCE),
                },
            );
        }
        out
    }

    fn consume(remaining: &AtomicU32) -> bool {
        loop {
            let r = remaining.load(Ordering::Relaxed);
            if r == 0 {
                return false;
            }
            if r == ALWAYS {
                return true;
            }
            if remaining
                .compare_exchange(r, r - 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Deterministic uniform draw in `[0, 1)` from `(seed, node)`.
    fn unit_hash(seed: u64, node: NodeId) -> f64 {
        use std::hash::{Hash, Hasher};
        let mut h = FxHasher::default();
        seed.hash(&mut h);
        node.hash(&mut h);
        // 53 mantissa bits → exact double in [0, 1).
        (h.finish() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Panic payload used by injected faults, so the quiet hook and the
/// reason extractor can tell them apart from genuine panics.
#[derive(Debug)]
pub struct InjectedPanic {
    /// The node whose evaluation panicked.
    pub node: NodeId,
}

/// Install (once, process-wide) a panic hook that suppresses the
/// default stderr report for [`InjectedPanic`] payloads and defers to
/// the previous hook for everything else. Call from fault-injection
/// tests and chaos drills; a no-op after the first call.
pub fn install_quiet_panic_hook() {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

/// The per-node evaluation seam shared by every executor. The
/// production implementation is [`NodeEvaluator`]; [`ChaosMatcher`]
/// wraps any implementation with fault injection.
pub trait NodeMatcher {
    /// Evaluate `candidate` with `strategy` along `plan` under
    /// `limits`; returns the verdict and steps spent. May panic — all
    /// executors call through [`eval_isolated`], which contains the
    /// blast radius to the single node.
    fn eval_node(
        &mut self,
        ctx: &QueryContext,
        plan: &CompiledPlan,
        candidate: NodeId,
        strategy: Strategy,
        limits: &EvalLimits,
    ) -> (Verdict, u64);
}

impl NodeMatcher for NodeEvaluator<'_> {
    fn eval_node(
        &mut self,
        ctx: &QueryContext,
        plan: &CompiledPlan,
        candidate: NodeId,
        strategy: Strategy,
        limits: &EvalLimits,
    ) -> (Verdict, u64) {
        self.evaluate(ctx, plan, candidate, strategy, limits)
    }
}

/// A [`NodeMatcher`] that injects the faults of a [`FaultPlan`] into
/// an inner matcher. Used by the differential fault tests and the CLI
/// `--fault-seed` chaos drill.
pub struct ChaosMatcher<M> {
    inner: M,
    plan: Arc<FaultPlan>,
}

impl<M: NodeMatcher> ChaosMatcher<M> {
    /// Wrap `inner` with the fault schedule `plan`.
    pub fn new(inner: M, plan: Arc<FaultPlan>) -> Self {
        Self { inner, plan }
    }
}

impl<M: NodeMatcher> NodeMatcher for ChaosMatcher<M> {
    fn eval_node(
        &mut self,
        ctx: &QueryContext,
        plan: &CompiledPlan,
        candidate: NodeId,
        strategy: Strategy,
        limits: &EvalLimits,
    ) -> (Verdict, u64) {
        match self.plan.draw(candidate) {
            Some(FaultKind::Panic) => {
                std::panic::panic_any(InjectedPanic { node: candidate })
            }
            Some(FaultKind::SpuriousInterrupt) => (Verdict::Interrupted, 0),
            Some(FaultKind::BurnSteps(n)) => {
                // Shrink the budget by the burned steps; if nothing is
                // left the "search" is interrupted before it starts.
                let mut l = limits.clone();
                if l.max_steps != 0 {
                    if l.max_steps <= n {
                        return (Verdict::Interrupted, n);
                    }
                    l.max_steps -= n;
                }
                let (v, s) = self.inner.eval_node(ctx, plan, candidate, strategy, &l);
                (v, s + n)
            }
            Some(FaultKind::KillWorker) | None => {
                self.inner.eval_node(ctx, plan, candidate, strategy, limits)
            }
        }
    }
}

/// Either the bare evaluator or its chaos-wrapped version — what
/// [`crate::SmartPsi`] hands each executor worker, chosen by whether
/// the deployment config carries a [`FaultPlan`].
pub enum PsiMatcher<'g> {
    /// Production path: no fault schedule.
    Plain(NodeEvaluator<'g>),
    /// Chaos drill: every evaluation consults the plan first.
    Chaos(ChaosMatcher<NodeEvaluator<'g>>),
}

impl<'g> PsiMatcher<'g> {
    /// Build from an evaluator plus an optional fault schedule.
    pub fn new(ev: NodeEvaluator<'g>, fault: Option<&Arc<FaultPlan>>) -> Self {
        match fault {
            Some(plan) => PsiMatcher::Chaos(ChaosMatcher::new(ev, plan.clone())),
            None => PsiMatcher::Plain(ev),
        }
    }
}

impl NodeMatcher for PsiMatcher<'_> {
    fn eval_node(
        &mut self,
        ctx: &QueryContext,
        plan: &CompiledPlan,
        candidate: NodeId,
        strategy: Strategy,
        limits: &EvalLimits,
    ) -> (Verdict, u64) {
        match self {
            PsiMatcher::Plain(m) => m.eval_node(ctx, plan, candidate, strategy, limits),
            PsiMatcher::Chaos(m) => m.eval_node(ctx, plan, candidate, strategy, limits),
        }
    }
}

/// Outcome of one isolated per-node evaluation attempt.
#[derive(Debug)]
pub enum IsolatedOutcome {
    /// The matcher returned normally.
    Finished(Verdict, u64),
    /// The matcher panicked; the payload was converted to a reason
    /// string and the panic contained to this node.
    Panicked(String),
}

/// Run one per-node evaluation inside `catch_unwind` (when `isolate`
/// is set), converting a panic anywhere below the call into
/// [`IsolatedOutcome::Panicked`].
///
/// Soundness of reusing the matcher afterwards: [`NodeEvaluator`]'s
/// only cross-candidate state is the generation-stamped scratch, and a
/// fresh generation stamp invalidates whatever a unwound search left
/// behind, so a panicked evaluation cannot poison the next one.
#[allow(clippy::too_many_arguments)]
pub fn eval_isolated(
    m: &mut dyn NodeMatcher,
    ctx: &QueryContext,
    plan: &CompiledPlan,
    candidate: NodeId,
    strategy: Strategy,
    limits: &EvalLimits,
    isolate: bool,
) -> IsolatedOutcome {
    if !isolate {
        let (v, s) = m.eval_node(ctx, plan, candidate, strategy, limits);
        return IsolatedOutcome::Finished(v, s);
    }
    match catch_unwind(AssertUnwindSafe(|| {
        m.eval_node(ctx, plan, candidate, strategy, limits)
    })) {
        Ok((v, s)) => IsolatedOutcome::Finished(v, s),
        Err(payload) => IsolatedOutcome::Panicked(panic_reason(payload.as_ref())),
    }
}

/// Human-readable reason from a caught panic payload.
pub fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(p) = payload.downcast_ref::<InjectedPanic>() {
        format!("injected panic (node {})", p.node)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Ride through lock poisoning: take the guard (or inner value) a
/// poisoned `lock`/`read`/`write`/`wait`/`into_inner` still carries.
/// Every lock in this crate protects state that a panicking holder
/// leaves consistent — a panic is contained by `catch_unwind` and
/// accounted where it happened (one failed node, one dead worker
/// task) — so the caller keeps going instead of propagating the
/// poison.
pub(crate) fn unpoison<G>(r: LockResult<G>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let p = FaultPlan::empty();
        assert!(p.is_empty());
        for n in 0..100 {
            assert_eq!(p.draw(n), None);
            assert!(!p.take_worker_kill(n));
        }
    }

    #[test]
    fn once_entry_fires_exactly_once() {
        let p = FaultPlan::empty().inject(5, FaultKind::SpuriousInterrupt, ONCE);
        assert_eq!(p.draw(5), Some(FaultKind::SpuriousInterrupt));
        assert_eq!(p.draw(5), None);
        assert_eq!(p.draw(4), None);
    }

    #[test]
    fn always_entry_keeps_firing() {
        let p = FaultPlan::panic_on(&[3]);
        for _ in 0..10 {
            assert_eq!(p.draw(3), Some(FaultKind::Panic));
        }
    }

    #[test]
    fn counted_entry_fires_n_times() {
        let p = FaultPlan::empty().inject(1, FaultKind::BurnSteps(10), 3);
        for _ in 0..3 {
            assert!(p.draw(1).is_some());
        }
        assert_eq!(p.draw(1), None);
    }

    #[test]
    fn worker_kill_is_invisible_to_draw() {
        let p = FaultPlan::empty().inject(9, FaultKind::KillWorker, ONCE);
        assert_eq!(p.draw(9), None);
        assert!(p.take_worker_kill(9));
        assert!(!p.take_worker_kill(9), "one-shot kill");
    }

    #[test]
    fn seeded_plan_is_deterministic_and_one_shot() {
        let a = FaultPlan::seeded(42, 0.2, 0.2, 0.2);
        let b = FaultPlan::seeded(42, 0.2, 0.2, 0.2);
        let mut fired = 0usize;
        for n in 0..500 {
            let fa = a.draw(n);
            let fb = b.draw(n);
            assert_eq!(fa, fb, "same seed, same schedule (node {n})");
            if fa.is_some() {
                fired += 1;
                assert_eq!(a.draw(n), None, "seeded faults are one-shot");
            }
        }
        // ~60% of 500 nodes; loose bounds, the point is "some but not all".
        assert!(fired > 200 && fired < 400, "fired {fired} of 500");
        // A different seed gives a different schedule somewhere.
        let c = FaultPlan::seeded(43, 0.2, 0.2, 0.2);
        let differs = (0..500).any(|n| c.draw(n) != FaultPlan::seeded(42, 0.2, 0.2, 0.2).draw(n));
        assert!(differs);
    }

    #[test]
    fn panic_reason_formats() {
        assert_eq!(
            panic_reason(&InjectedPanic { node: 7 }),
            "injected panic (node 7)"
        );
        assert_eq!(panic_reason(&"boom"), "panic: boom");
        assert_eq!(panic_reason(&String::from("bang")), "panic: bang");
        assert_eq!(panic_reason(&42u32), "panic: <non-string payload>");
    }
}
