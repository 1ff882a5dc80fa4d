//! Differential and property tests for the observability layer.
//!
//! Two contracts are pinned here:
//!
//! 1. **RunSpec roundtrip** — [`RunSpec`] is the single front door for
//!    evaluation: a default spec, a candidate subset, step limits, and
//!    each parallel executor all flow through `SmartPsi::run`, and two
//!    runs of the same spec agree bit-for-bit on their answers and on
//!    the accounting counters of their attached [`QueryProfile`]s.
//! 2. **Profile soundness** — the [`QueryProfile`] attached to every
//!    `run` result satisfies the PR-2 accounting identity
//!    (`reconciles()`), and on a sequential run its per-phase spans
//!    are disjoint slices of the run, so their sum never exceeds the
//!    total wall time (one-sided, plus a jitter epsilon).
//!
//! A third test pins **liveness**: every declared counter and phase is
//! either moved by ordinary recorded traffic or named as conditional,
//! with the test that moves it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use psi_core::obs::{Counter, MetricsRecorder, Phase, QueryProfile};
use psi_core::{
    DeploymentSpec, EvalLimits, NetServer, NetServerConfig, PsiResult, RunSpec, SmartPsi,
    SmartPsiConfig,
};
use psi_datasets::{generators, rwr};
use psi_graph::{NodeId, PivotedQuery};

/// Timer-jitter allowance for the span-sum bound: each of the phases
/// contributes at most one `Instant::now` pair of slack.
const SPAN_EPS_NS: u64 = 2_000_000;

fn deployment() -> (SmartPsi, PivotedQuery) {
    let g = generators::erdos_renyi(600, 2600, 3, 17);
    let q = rwr::extract_query_seeded(&g, 5, 11).expect("query extraction");
    let cfg = SmartPsiConfig {
        min_candidates_for_ml: 10,
        ..SmartPsiConfig::default()
    };
    (SmartPsi::new(g, cfg), q)
}

fn counter(r: &PsiResult, c: Counter) -> u64 {
    r.profile.as_ref().map_or(0, |p| p.counter(c))
}

/// Assert two runs of equivalent specs are the same evaluation:
/// identical answer, identical accounting counters, identical
/// α-accuracy bits. Wall-clock timings are excluded — two runs never
/// share a clock.
fn assert_equivalent(label: &str, a: &PsiResult, b: &PsiResult) {
    assert_eq!(a.valid, b.valid, "{label}: valid set");
    assert_eq!(a.candidates, b.candidates, "{label}: candidates");
    assert_eq!(a.steps, b.steps, "{label}: steps");
    assert_eq!(a.unresolved, b.unresolved, "{label}: unresolved");
    assert_eq!(a.failures, b.failures, "{label}: failures");
    for c in [
        Counter::TrainedNodes,
        Counter::ResolvedS1,
        Counter::RecoveredS2,
        Counter::RecoveredS3,
        Counter::PredictedValid,
        Counter::CacheHits,
    ] {
        assert_eq!(counter(a, c), counter(b, c), "{label}: {c:?}");
    }
    let alpha = |r: &PsiResult| r.profile.as_ref().map_or(0.0, |p| p.alpha_accuracy);
    assert_eq!(
        alpha(a).to_bits(),
        alpha(b).to_bits(),
        "{label}: alpha_accuracy bits ({} vs {})",
        alpha(a),
        alpha(b)
    );
}

/// Run `spec` twice: the two runs must agree on the answer and on
/// every accounting counter of their profiles.
fn roundtrip(label: &str, smart: &SmartPsi, q: &PivotedQuery, spec: &RunSpec) {
    let first = smart.run(q, spec);
    let again = smart.run(q, spec);
    assert!(first.profile.is_some(), "{label}: run always attaches a profile");
    assert_equivalent(label, &first, &again);
}

// ---------------------------------------------------------------------
// 1. Every historical calling convention, as a RunSpec.
// ---------------------------------------------------------------------

#[test]
fn full_run_roundtrips() {
    let (smart, q) = deployment();
    let r = smart.run(&q, &RunSpec::new());
    assert!(r.count() > 0, "workload must be non-trivial");
    roundtrip("sequential", &smart, &q, &RunSpec::new());
}

#[test]
fn candidate_subset_roundtrips() {
    let (smart, q) = deployment();
    // The full candidate set, thinned to every other node.
    let subset: Vec<NodeId> = psi_core::single::pivot_candidates(smart.graph(), &q)
        .into_iter()
        .step_by(2)
        .collect();
    assert!(subset.len() >= 10, "subset must still take the ML path");
    let spec = RunSpec::new().candidates(subset.clone());
    let r = smart.run(&q, &spec);
    assert_eq!(r.candidates, subset.len());
    roundtrip("candidates(Some)", &smart, &q, &spec);
}

#[test]
fn limited_subset_roundtrips() {
    let (smart, q) = deployment();
    let subset: Vec<NodeId> = psi_core::single::pivot_candidates(smart.graph(), &q);
    roundtrip(
        "candidates+limits",
        &smart,
        &q,
        &RunSpec::new()
            .candidates(subset)
            .limits(EvalLimits::unlimited()),
    );
}

#[test]
fn work_stealing_roundtrips_and_matches_sequential() {
    let (smart, q) = deployment();
    roundtrip("threads(2)", &smart, &q, &RunSpec::new().threads(2));
    let seq = smart.run(&q, &RunSpec::new());
    let par = smart.run(&q, &RunSpec::new().threads(2));
    assert_eq!(seq, par, "pool answers must equal sequential answers");
}

#[test]
fn tuned_work_stealing_roundtrips() {
    let (smart, q) = deployment();
    roundtrip(
        "threads+grab",
        &smart,
        &q,
        &RunSpec::new()
            .threads(4)
            .grab(2)
            .limits(EvalLimits::unlimited()),
    );
}

// ---------------------------------------------------------------------
// 2. Profile soundness.
// ---------------------------------------------------------------------

/// A profiled run and an unprofiled run of the same spec produce the
/// same answer — recording is observation, not interference.
#[test]
fn recording_does_not_change_answers() {
    let (smart, q) = deployment();
    let plain = smart.run(&q, &RunSpec::new());
    let spec = RunSpec::new().recorder(Arc::new(MetricsRecorder::new()));
    let recorded = smart.run(&q, &spec);
    assert_eq!(plain.valid, recorded.valid);
    assert_eq!(plain.steps, recorded.steps);
    assert_eq!(plain.unresolved, recorded.unresolved);
    let p = recorded.profile.as_deref().expect("run always attaches a profile");
    assert!(p.recorded, "recorder output must reach the profile");
}

fn check_profile(label: &str, p: &QueryProfile, sequential: bool) {
    assert!(p.reconciles(), "{label}: accounting identity must hold");
    assert!(p.total_wall_ns > 0, "{label}: wall clock must tick");
    if sequential {
        // Phases are disjoint slices of one thread's run: their sum is
        // a lower bound on the total (one-sided — parallel runs sum
        // per-worker time and may legitimately exceed the wall clock).
        let sum = p.phase_total().as_nanos() as u64;
        assert!(
            sum <= p.total_wall_ns + SPAN_EPS_NS,
            "{label}: span sum {sum}ns exceeds total {}ns + eps",
            p.total_wall_ns
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On random deployments, every sequential profile reconciles and
    /// its span sum stays under the total wall time.
    #[test]
    fn sequential_profile_is_sound(
        nodes in 120usize..400,
        edge_factor in 2usize..5,
        labels in 2usize..5,
        seed in 0u64..500,
    ) {
        let g = generators::erdos_renyi(nodes, nodes * edge_factor, labels, seed);
        let Some(q) = rwr::extract_query_seeded(&g, 4, seed ^ 0x5eed) else {
            return Ok(());
        };
        let smart = SmartPsi::new(g, SmartPsiConfig {
            min_candidates_for_ml: 10,
            ..SmartPsiConfig::default()
        });
        let spec = RunSpec::new().recorder(Arc::new(MetricsRecorder::new()));
        let r = smart.run(&q, &spec);
        let p = r.profile.as_deref().expect("profile always attached");
        check_profile("sequential", p, true);
        // The executor's exact accounting must agree with the result.
        prop_assert_eq!(p.counter(Counter::Candidates), r.candidates as u64);
        prop_assert_eq!(p.counter(Counter::Steps), r.steps);
        prop_assert_eq!(p.counter(Counter::Unresolved), r.unresolved as u64);
        prop_assert_eq!(p.counter(Counter::FailedNodes), r.failures.nodes.len() as u64);
    }

    /// Parallel profiles reconcile too (span sums may exceed wall time
    /// there — per-worker buffers add up — so only the identity and the
    /// result/counter agreement are asserted).
    #[test]
    fn parallel_profile_is_sound(
        threads in 2usize..6,
        seed in 0u64..200,
    ) {
        let g = generators::erdos_renyi(300, 1300, 3, seed);
        let Some(q) = rwr::extract_query_seeded(&g, 4, seed.wrapping_mul(31)) else {
            return Ok(());
        };
        let smart = SmartPsi::new(g, SmartPsiConfig {
            min_candidates_for_ml: 10,
            ..SmartPsiConfig::default()
        });
        let spec = RunSpec::new()
            .threads(threads)
            .recorder(Arc::new(MetricsRecorder::new()));
        let r = smart.run(&q, &spec);
        let p = r.profile.as_deref().expect("profile always attached");
        check_profile("parallel", p, false);
        prop_assert_eq!(p.counter(Counter::Candidates), r.candidates as u64);
        prop_assert_eq!(p.counter(Counter::Steps), r.steps);
        prop_assert_eq!(p.counter(Counter::Unresolved), r.unresolved as u64);
    }
}

/// One declared metric: a counter or a phase span.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Metric {
    C(Counter),
    P(Phase),
}

/// Metrics that ordinary recorded traffic moves: the scenario in
/// [`declared_metrics_are_live_or_conditional`] must read each one
/// non-zero, so a metric listed here that loses its writer fails.
const LIVE: &[Metric] = &[
    Metric::C(Counter::Candidates),
    Metric::C(Counter::TrainedNodes),
    Metric::C(Counter::ResolvedS1),
    Metric::C(Counter::RecoveredS2),
    Metric::C(Counter::RecoveredS3),
    Metric::C(Counter::NodesOptimistic),
    Metric::C(Counter::NodesPessimistic),
    Metric::C(Counter::PredictedValid),
    Metric::C(Counter::Steps),
    Metric::C(Counter::CacheHits),
    Metric::C(Counter::CacheMisses),
    Metric::C(Counter::Retries),
    Metric::C(Counter::Escalations),
    Metric::C(Counter::GrabSteals),
    Metric::C(Counter::MlInferences),
    Metric::C(Counter::QueriesServed),
    Metric::C(Counter::CrossQueryCacheHits),
    Metric::C(Counter::EpochsPublished),
    Metric::C(Counter::RowsRepaired),
    Metric::C(Counter::CacheInvalidations),
    Metric::C(Counter::Admitted),
    Metric::C(Counter::PrefilterPruned),
    Metric::P(Phase::Train),
    Metric::P(Phase::Prefilter),
    Metric::P(Phase::Predict),
    Metric::P(Phase::MatchS1),
    Metric::P(Phase::MatchS2),
    Metric::P(Phase::MatchS3),
    Metric::P(Phase::ExactFallback),
    Metric::P(Phase::Merge),
    Metric::P(Phase::PoolSpawn),
    Metric::P(Phase::GraphUpdate),
    Metric::P(Phase::NetRead),
    Metric::P(Phase::NetWrite),
];

/// Metrics that only move under faults, sharding, shedding, deadlines,
/// drain, a full shape table or a cold worker pool. Each comment names
/// a test that moves the metric.
const CONDITIONAL: &[Metric] = &[
    // fault_injection.rs: sticky_spurious_interrupt_is_an_accounted_failure
    Metric::C(Counter::FailedNodes),
    // exec.rs: pre_cancelled_pool_reports_everything_unresolved
    Metric::C(Counter::Unresolved),
    // fault_injection.rs: twothread_survives_one_sided_panics_and_records_two_sided_ones
    Metric::C(Counter::PanicsRecovered),
    // fault_injection.rs: killed_worker_grab_is_requeued_and_the_answer_stays_exact
    Metric::C(Counter::Requeued),
    // service.rs: job_that_kills_its_worker_is_requeued_then_failed_gracefully
    Metric::C(Counter::WorkerDeaths),
    // sharded.rs: scatter_gather_matches_sequential_across_shard_and_worker_counts
    Metric::C(Counter::ShardFanout),
    Metric::P(Phase::ShardMerge),
    // net.rs: queue_full_sheds_with_retry_after_and_every_id_is_answered_once
    Metric::C(Counter::Shed),
    // service.rs: jobs_expired_in_queue_report_deadline_expired_and_never_run
    Metric::C(Counter::DeadlineExpired),
    // service.rs: generous_grace_drains_everything_without_aborts
    Metric::C(Counter::Drained),
    // service.rs: more_shapes_than_the_bound_evict_lru_and_stay_exact
    Metric::C(Counter::CacheEvictions),
    // pool.rs: ensure_bills_only_actual_spawns — the pool is shared by
    // the whole process, so a run spawns threads only while it is cold.
    Metric::C(Counter::PoolThreadsSpawned),
];

/// `query` as one wire `query` line.
fn query_line(id: u64, q: &PivotedQuery) -> String {
    let labels: Vec<String> = q.graph().labels().iter().map(|l| l.to_string()).collect();
    let edges: Vec<String> = q
        .graph()
        .edges()
        .map(|(u, v, _)| format!("[{u},{v}]"))
        .collect();
    format!(
        r#"{{"op":"query","id":{id},"labels":[{}],"edges":[{}],"pivot":{}}}"#,
        labels.join(","),
        edges.join(","),
        q.pivot()
    )
}

/// Send one line and check its one response line is a success.
fn exchange(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read");
    assert!(response.contains("\"ok\":true"), "{line} got {response}");
}

/// Liveness of the metrics registry. One recorded 1-shard evolving
/// deployment with 2 workers serves, behind a [`NetServer`], the same
/// query twice (the second reuses the first's cache entries) and one
/// update. Beside it one `RunSpec::threads(2)` run and one run below
/// the training threshold (the no-ML sweep) record their own profiles.
/// Every [`LIVE`] metric must read non-zero in the sum of those
/// registries, and [`LIVE`] and [`CONDITIONAL`] together must place
/// every declared counter and phase exactly once.
#[test]
fn declared_metrics_are_live_or_conditional() {
    for c in Counter::ALL {
        let placed = [LIVE, CONDITIONAL]
            .concat()
            .iter()
            .filter(|&&m| m == Metric::C(c))
            .count();
        assert_eq!(
            placed, 1,
            "{c:?} must be on exactly one of LIVE and CONDITIONAL"
        );
    }
    for p in Phase::ALL {
        let placed = [LIVE, CONDITIONAL]
            .concat()
            .iter()
            .filter(|&&m| m == Metric::P(p))
            .count();
        assert_eq!(
            placed, 1,
            "{p:?} must be on exactly one of LIVE and CONDITIONAL"
        );
    }

    // A query whose run sends some candidates to stages 2 and 3 and
    // finds structurally identical survivors in its own cache.
    let g = generators::erdos_renyi(800, 2400, 3, 17);
    let q = rwr::extract_query_seeded(&g, 5, 0).expect("query extraction");
    let cfg = SmartPsiConfig {
        min_candidates_for_ml: 10,
        ..SmartPsiConfig::default()
    };
    let smart = SmartPsi::new(g.clone(), cfg);
    let recorded = |smart: &SmartPsi, q: &PivotedQuery, spec: RunSpec| -> QueryProfile {
        let r = smart.run(q, &spec.recorder(Arc::new(MetricsRecorder::new())));
        *r.profile.expect("run always attaches a profile")
    };
    let threads = recorded(&smart, &q, RunSpec::new().threads(2));
    // The paper's Figure 1: two candidates, below the training
    // threshold, so the run takes the no-ML exact sweep.
    let figure1 = psi_graph::builder::graph_from(
        &[0, 1, 2, 2, 1, 0],
        &[
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 3),
            (3, 4),
            (2, 4),
            (4, 5),
        ],
    )
    .expect("valid graph");
    let path = PivotedQuery::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)], 0).expect("valid query");
    let tiny = recorded(
        &SmartPsi::new(figure1, SmartPsiConfig::default()),
        &path,
        RunSpec::new(),
    );

    let service = smart.deploy(&DeploymentSpec::new().workers(2).evolving(g.label_count()));
    let mut server =
        NetServer::bind(service, "127.0.0.1:0", NetServerConfig::default()).expect("bind loopback");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    exchange(&mut stream, &mut reader, &query_line(1, &q));
    exchange(&mut stream, &mut reader, &query_line(2, &q));
    let far = (1..g.node_count() as NodeId)
        .find(|&v| !g.neighbors(0).contains(&v))
        .expect("node 0 is not adjacent to every node");
    exchange(
        &mut stream,
        &mut reader,
        &format!(r#"{{"op":"update","id":3,"updates":[{{"add_edge":[0,{far},0]}}]}}"#),
    );
    drop((stream, reader));
    server.shutdown(Duration::from_secs(5));
    let (front_door, served) = (server.metrics(), server.service_metrics());

    let value = |m: Metric| match m {
        Metric::C(c) => {
            threads.counter(c) + tiny.counter(c) + served.counter(c) + front_door.counter(c)
        }
        Metric::P(p) => {
            (threads.span(p) + tiny.span(p) + served.span(p)).as_nanos() as u64
                + front_door.phase_nanos(p)
        }
    };
    let dead: Vec<Metric> = LIVE.iter().copied().filter(|&m| value(m) == 0).collect();
    let all: Vec<(Metric, u64)> = LIVE
        .iter()
        .chain(CONDITIONAL)
        .map(|&m| (m, value(m)))
        .collect();
    assert!(
        dead.is_empty(),
        "live metrics read zero: {dead:?}\nall: {all:?}"
    );
}
