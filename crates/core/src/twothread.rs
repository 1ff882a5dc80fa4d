//! The two-threaded baseline (§4.1, Figure 5), reached through
//! [`SmartPsi::run`](crate::SmartPsi::run) with
//! [`RunSpec::two_thread`](crate::RunSpec::two_thread).
//!
//! For each candidate node, run the optimistic and the pessimistic
//! method concurrently on two real threads; whichever finishes first
//! wins the race and its verdict is taken. The paper proposes this as
//! the straw-man that motivates SmartPSI: it is correct and per-node
//! near-optimal in wall-clock, but (*i*) it burns two threads per task
//! and (*ii*) it pays thread create/join overhead for every one of
//! potentially millions of candidates — both costs are deliberately
//! reproduced here (a fresh `std::thread::scope` per candidate), not
//! optimized away. It reuses the deployment's precomputed signatures
//! and none of the ML pipeline: no training, no prediction, no cache.
//!
//! ## Deterministic step accounting (logical lockstep)
//!
//! An earlier version stopped the loser with a wall-clock cancel flag,
//! which made the per-node step total depend on OS scheduling: the
//! loser was charged however many steps its thread happened to reach
//! before it polled the flag. The race now cancels through a shared
//! *step-count bar* ([`EvalLimits::cancel_at`]): each side that
//! finishes with a real verdict publishes its own step count via
//! `fetch_min`, every side clamps its charged steps to the final bar
//! `W = min(natural step counts)`, and the reported per-node cost is
//! exactly `2·W` — as if both racers advanced in lockstep and stopped
//! the instant the faster method finished. Threads still race in wall
//! time (the loser may *execute* a few steps past `W` before it
//! observes the bar), but the *accounted* cost is a pure function of
//! the inputs, so the two-thread driver participates in bit-exact cost
//! comparisons like any sequential executor.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use psi_graph::PivotedQuery;
use psi_obs::{timed, Counter, Histogram, Phase, Recorder};

use crate::engine::context::GraphContext;
use crate::engine::exec::subset_or;
use crate::evaluator::{QueryContext, Verdict};
use crate::fault::{eval_isolated, IsolatedOutcome};
use crate::limits::EvalLimits;
use crate::plan::heuristic_plan;
use crate::report::{FailureReport, PsiResult, StageTimings};
use crate::smart::{RunSpec, SmartPsiReport};
use crate::Strategy;

/// One racing thread's result: a finished (verdict, steps), or the
/// reason its evaluation panicked.
type RaceOutcome = Result<(Verdict, u64), String>;

impl GraphContext {
    /// The driver behind [`RunSpec::two_thread`]. Candidate subsets are
    /// honored, and `spec.limits` — `max_steps` included — bounds each
    /// racer; every resolved node counts as stage 1 (the race is a
    /// single attempt). Each per-candidate race is timed in a
    /// [`Phase::MatchS1`] span from the parent thread (the race's wall
    /// time, not the two racers' CPU sum).
    ///
    /// Fault behavior: each racing thread catches its own panics (under
    /// the run's panic isolation), so a broken matcher on one side
    /// simply loses the race — the other side's exhaustive run still
    /// decides the node. The node fails (recorded in the result's
    /// failure report) only when *both* sides panic.
    pub(crate) fn two_thread(
        &self,
        query: &PivotedQuery,
        spec: &RunSpec,
        rec: &dyn Recorder,
    ) -> SmartPsiReport {
        let t0 = Instant::now();
        let isolate = self.isolation(spec);
        let ctx = QueryContext::new(query.clone(), self.config.depth);
        let plan = ctx.compile(&heuristic_plan(&self.g, query));
        let candidates = subset_or(self, query, spec.subset.as_deref());

        let mut valid = Vec::new();
        let mut steps = 0u64;
        let mut unresolved = 0usize;
        let mut failures = FailureReport::default();

        for &u in &candidates {
            // The lockstep bar: each racer that reaches a real verdict
            // publishes its step count, and both racers stop (and are
            // charged) at the minimum published count. `u64::MAX` means
            // "no one has finished yet".
            let bar = Arc::new(AtomicU64::new(u64::MAX));
            let run = |strategy: Strategy| -> RaceOutcome {
                let limits = EvalLimits {
                    cancel_at: Some(bar.clone()),
                    ..spec.limits.clone()
                };
                let mut matcher = self.matcher(spec);
                match eval_isolated(&mut matcher, &ctx, &plan, u, strategy, &limits, isolate) {
                    IsolatedOutcome::Finished(verdict, s) => {
                        if verdict != Verdict::Interrupted {
                            // Publish our natural finishing count; fetch_min
                            // keeps the bar at the *fastest* finisher even
                            // if both sides complete.
                            bar.fetch_min(s, Ordering::Relaxed);
                        }
                        Ok((verdict, s))
                    }
                    IsolatedOutcome::Panicked(reason) => Err(reason),
                }
            };
            // A join error means the thread died outside the isolated
            // evaluation; fold it into the same "panicked" arm.
            let (opt_out, pes_out) = timed(rec, Phase::MatchS1, || {
                std::thread::scope(|scope| {
                    let h1 = scope.spawn(|| run(Strategy::optimistic()));
                    let h2 = scope.spawn(|| run(Strategy::Pessimistic));
                    (
                        h1.join().unwrap_or_else(|_| Err("optimistic thread died".into())),
                        h2.join().unwrap_or_else(|_| Err("pessimistic thread died".into())),
                    )
                })
            });

            // Charge each side min(own steps, W): the loser may have
            // *executed* slightly past the bar before observing it, but the
            // accounted cost is the lockstep ideal — deterministic across
            // thread interleavings.
            let w = bar.load(Ordering::Relaxed);
            let node_steps =
                opt_out.as_ref().map_or(0, |o| o.1.min(w)) + pes_out.as_ref().map_or(0, |p| p.1.min(w));
            rec.observe(Histogram::StepsPerNode, node_steps);
            steps += node_steps;
            // Every contained panic counts, even when the surviving racer
            // decided the node.
            failures.panics_recovered += u64::from(opt_out.is_err()) + u64::from(pes_out.is_err());
            // Prefer whichever thread reached a conclusion.
            let verdicts = (
                opt_out.as_ref().map_or(Verdict::Interrupted, |o| o.0),
                pes_out.as_ref().map_or(Verdict::Interrupted, |p| p.0),
            );
            match verdicts {
                (Verdict::Valid, _) | (_, Verdict::Valid) => valid.push(u),
                (Verdict::Invalid, _) | (_, Verdict::Invalid) => {}
                _ => {
                    if let (Err(r1), Err(r2)) = (&opt_out, &pes_out) {
                        // Both sides panicked: the node is genuinely broken.
                        failures.record(u, format!("optimist: {r1}; pessimist: {r2}"), 2);
                    } else {
                        unresolved += 1;
                    }
                }
            }
        }
        valid.sort_unstable();
        failures.sort();
        let resolved = candidates.len() - unresolved - failures.len();
        if rec.enabled() {
            rec.add(Counter::Candidates, candidates.len() as u64);
            rec.add(Counter::ResolvedS1, resolved as u64);
            rec.add(Counter::Unresolved, unresolved as u64);
            rec.add(Counter::FailedNodes, failures.len() as u64);
            rec.add(Counter::PanicsRecovered, failures.panics_recovered);
            rec.add(Counter::Steps, steps);
        }
        SmartPsiReport {
            result: PsiResult {
                valid,
                candidates: candidates.len(),
                steps,
                unresolved,
                failures,
                profile: None,
            },
            timings: StageTimings {
                training_and_prediction: Duration::ZERO,
                evaluation: t0.elapsed(),
            },
            trained_nodes: 0,
            cache_hits: 0,
            resolved_stage1: resolved,
            recovered_stage2: 0,
            recovered_stage3: 0,
            predicted_valid: 0,
            alpha_accuracy: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::{psi_with_strategy, RunOptions};
    use crate::{SmartPsi, SmartPsiConfig};
    use psi_graph::builder::graph_from;
    use psi_graph::Graph;

    fn two_thread(g: &Graph, q: &PivotedQuery) -> PsiResult {
        SmartPsi::new(g.clone(), SmartPsiConfig::default()).run(q, &RunSpec::new().two_thread())
    }

    #[test]
    fn figure1_answer() {
        let g = graph_from(
            &[0, 1, 2, 2, 1, 0],
            &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (3, 4), (2, 4), (4, 5)],
        )
        .unwrap();
        let q = PivotedQuery::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap();
        let r = two_thread(&g, &q);
        assert_eq!(r.valid, vec![0, 5]);
        assert_eq!(r.unresolved, 0);
    }

    #[test]
    fn agrees_with_single_strategy_runners() {
        let g = psi_datasets::generators::erdos_renyi(80, 240, 4, 9);
        for size in 3..=4usize {
            let Some(q) = psi_datasets::rwr::extract_query_seeded(&g, size, size as u64) else {
                continue;
            };
            let two = two_thread(&g, &q);
            let one = psi_with_strategy(&g, &q, Strategy::pessimistic(), &RunOptions::default());
            assert_eq!(two.valid, one.valid, "size {size}");
        }
    }

    #[test]
    fn step_accounting_is_deterministic_and_bounded() {
        // Lockstep accounting charges exactly 2·min(optimist,
        // pessimist) natural steps per node, so (a) repeated runs agree
        // bit-for-bit despite real thread racing, and (b) the total
        // never exceeds twice the single pessimistic run (min ≤
        // pessimist per node).
        let g = psi_datasets::generators::erdos_renyi(60, 200, 3, 4);
        let Some(q) = psi_datasets::rwr::extract_query_seeded(&g, 3, 2) else {
            return;
        };
        let first = two_thread(&g, &q);
        assert!(first.steps > 0);
        for trial in 0..5 {
            let again = two_thread(&g, &q);
            assert_eq!(again.valid, first.valid, "trial {trial}");
            assert_eq!(again.steps, first.steps, "trial {trial}");
        }
        let one = psi_with_strategy(&g, &q, Strategy::pessimistic(), &RunOptions::default());
        assert!(
            first.steps <= 2 * one.steps,
            "two {} one {}",
            first.steps,
            one.steps
        );
    }

    #[test]
    fn step_cap_in_limits_leaves_nodes_unresolved() {
        // The race applies `RunSpec::limits`' `max_steps` to each racer
        // (fig9 caps the baseline this way): a node neither side can
        // settle within the cap stays unresolved, and the resolved
        // ones still agree with an uncapped run.
        let g = psi_datasets::generators::erdos_renyi(300, 1200, 3, 5);
        let q = psi_datasets::rwr::extract_query_seeded(&g, 4, 3).expect("query");
        let smart = SmartPsi::new(g, SmartPsiConfig::default());
        let full = smart.run(&q, &RunSpec::new().two_thread());
        assert_eq!(full.unresolved, 0);
        let capped = smart.run(&q, &RunSpec::new().two_thread().limits(EvalLimits::steps(1)));
        assert!(capped.unresolved > 0, "a 1-step cap must leave nodes unresolved");
        assert_eq!(capped.candidates, full.candidates);
        assert!(capped.valid.iter().all(|u| full.valid.contains(u)));
        assert!(capped.profile.as_ref().unwrap().reconciles());
    }
}
