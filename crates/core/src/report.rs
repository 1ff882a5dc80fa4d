//! Result and timing types shared by the PSI runners.
//!
//! [`PsiResult`] is what every runner returns. From
//! [`SmartPsi::run`](crate::SmartPsi::run) it carries a
//! [`QueryProfile`] with the stage counters, timings and α-accuracy of
//! the run; the executors' own stage report, from which the profile is
//! built, is crate-private, so the profile is the one public view of
//! those numbers.

use std::time::Duration;

use psi_graph::NodeId;
use psi_obs::QueryProfile;

/// Result of evaluating one PSI query over the whole data graph.
///
/// Equality deliberately ignores [`PsiResult::profile`]: two results
/// are equal when they agree on the *answer* (valid set, accounting,
/// failures), regardless of how long each phase took or which run was
/// profiled. The differential tests compare executors this way.
#[derive(Debug, Clone)]
pub struct PsiResult {
    /// Sorted distinct valid nodes (pivot bindings).
    pub valid: Vec<NodeId>,
    /// Candidate nodes considered (after the label/degree filter).
    pub candidates: usize,
    /// Total search steps across all candidates.
    pub steps: u64,
    /// Candidates whose evaluation was cut off by a *global* deadline
    /// or cancel flag and never resolved (0 for exact runs; the
    /// SmartPSI recovery path resolves everything else, so SmartPSI
    /// reports 0 here for runs without a global limit).
    pub unresolved: usize,
    /// Faults survived during the evaluation: per-node failures the
    /// executor isolated instead of aborting, plus retry/worker-death
    /// accounting. Empty on healthy runs.
    pub failures: FailureReport,
    /// Observability profile of the run that produced this result:
    /// per-phase wall times, the metrics-registry counters, and step
    /// histograms. Always attached by
    /// [`SmartPsi::run`](crate::SmartPsi::run), whatever the executor;
    /// `None` from the single-strategy runners in
    /// [`crate::single`]. Boxed so the common answer-only consumers
    /// pay one pointer.
    pub profile: Option<Box<QueryProfile>>,
}

impl PartialEq for PsiResult {
    fn eq(&self, other: &Self) -> bool {
        self.valid == other.valid
            && self.candidates == other.candidates
            && self.steps == other.steps
            && self.unresolved == other.unresolved
            && self.failures == other.failures
    }
}

impl Eq for PsiResult {}

impl PsiResult {
    /// Number of valid nodes.
    pub fn count(&self) -> usize {
        self.valid.len()
    }

    /// Whether `node` is valid.
    pub fn contains(&self, node: NodeId) -> bool {
        self.valid.binary_search(&node).is_ok()
    }

    /// An empty result over `candidates` candidates (nothing resolved).
    pub fn empty(candidates: usize, steps: u64) -> Self {
        Self {
            valid: Vec::new(),
            candidates,
            steps,
            unresolved: candidates,
            failures: FailureReport::default(),
            profile: None,
        }
    }
}

/// One candidate node the executor could not resolve despite panic
/// isolation and the full retry/escalation ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeFailure {
    /// The data node whose evaluation failed.
    pub node: NodeId,
    /// Why the last attempt failed (panic payload, "node timeout", …).
    pub reason: String,
    /// Evaluation attempts spent on the node before giving up.
    pub attempts: u32,
}

/// Fault accounting for one PSI evaluation: what went wrong and what
/// the executor did about it. All healthy-path counters are zero, so
/// [`FailureReport::is_clean`] is the cheap "nothing happened" check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureReport {
    /// Nodes that stayed unresolved after every recovery attempt,
    /// sorted by node id after the executor's final merge.
    pub nodes: Vec<NodeFailure>,
    /// Per-node evaluation attempts that panicked but were isolated
    /// and retried (a node that eventually resolves still counts its
    /// failed attempts here).
    pub panics_recovered: u64,
    /// Per-node attempts that ended in a budget/spurious interrupt and
    /// were escalated to a bigger budget or the exact fallback.
    pub escalations: u64,
    /// Worker threads that died mid-run and were detected at join.
    pub worker_deaths: usize,
    /// Candidates re-queued from dead workers and re-evaluated.
    pub requeued: usize,
}

impl FailureReport {
    /// Record one unrecoverable node failure.
    pub fn record(&mut self, node: NodeId, reason: impl Into<String>, attempts: u32) {
        self.nodes.push(NodeFailure {
            node,
            reason: reason.into(),
            attempts,
        });
    }

    /// Number of failed nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether any node failed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether the run saw no fault activity at all — no failed nodes,
    /// no recovered panics, no escalations, no worker deaths.
    pub fn is_clean(&self) -> bool {
        self == &FailureReport::default()
    }

    /// Merge another report into this one (parallel-executor join).
    pub fn merge(&mut self, other: &FailureReport) {
        self.nodes.extend(other.nodes.iter().cloned());
        self.panics_recovered += other.panics_recovered;
        self.escalations += other.escalations;
        self.worker_deaths += other.worker_deaths;
        self.requeued += other.requeued;
    }

    /// Canonical order for deterministic comparison across executors.
    pub fn sort(&mut self) {
        self.nodes.sort_by_key(|f| f.node);
    }
}

/// Wall-clock breakdown of a SmartPSI evaluation, used by Table 4
/// (training overhead as a fraction of total time).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Training-node ground-truth evaluation + model fitting +
    /// per-node prediction (the paper's "models training/prediction"
    /// overhead).
    pub training_and_prediction: Duration,
    /// PSI evaluation of the remaining candidates.
    pub evaluation: Duration,
}

impl StageTimings {
    /// Total accounted time.
    pub fn total(&self) -> Duration {
        self.training_and_prediction + self.evaluation
    }

    /// Training+prediction share of total, in [0, 1]; 0 for an empty
    /// total.
    pub fn overhead_fraction(&self) -> f64 {
        let t = self.total().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.training_and_prediction.as_secs_f64() / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_queries() {
        let r = PsiResult {
            valid: vec![1, 4, 9],
            candidates: 10,
            steps: 123,
            unresolved: 0,
            failures: FailureReport::default(),
            profile: None,
        };
        assert_eq!(r.count(), 3);
        assert!(r.contains(4));
        assert!(!r.contains(5));
        assert!(r.failures.is_clean());
        // Equality ignores the profile.
        let mut p = r.clone();
        p.profile = Some(Box::new(QueryProfile::new()));
        assert_eq!(p, r);
    }

    #[test]
    fn failure_report_merge_and_sort() {
        let mut a = FailureReport::default();
        a.record(7, "panic", 3);
        a.panics_recovered = 2;
        let mut b = FailureReport::default();
        b.record(2, "node timeout", 1);
        b.escalations = 5;
        b.worker_deaths = 1;
        b.requeued = 4;
        a.merge(&b);
        a.sort();
        assert_eq!(a.len(), 2);
        assert_eq!(a.nodes[0].node, 2);
        assert_eq!(a.nodes[1].node, 7);
        assert_eq!(a.panics_recovered, 2);
        assert_eq!(a.escalations, 5);
        assert_eq!(a.worker_deaths, 1);
        assert_eq!(a.requeued, 4);
        assert!(!a.is_clean());
        assert!(FailureReport::default().is_clean());
    }

    #[test]
    fn overhead_fraction() {
        let t = StageTimings {
            training_and_prediction: Duration::from_millis(25),
            evaluation: Duration::from_millis(75),
        };
        assert!((t.overhead_fraction() - 0.25).abs() < 1e-9);
        assert_eq!(StageTimings::default().overhead_fraction(), 0.0);
        assert_eq!(t.total(), Duration::from_millis(100));
    }
}
