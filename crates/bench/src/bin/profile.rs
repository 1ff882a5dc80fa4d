//! Observability overhead guard — what the PR-3 instrumentation layer
//! costs (`BENCH_profile.json`).
//!
//! The [`psi_core::obs::Recorder`] seam sits on every phase of every
//! executor: the training loop, each per-node match attempt, the
//! merge. Its contract is that the default no-op recorder compiles
//! away — `enabled()` is `false`, so no clock is read and no counter
//! is touched — and costs **< 3%** against the pre-instrumentation
//! engine. That baseline binary no longer exists (every entry point
//! now routes through the seam), so the guard measures the seam
//! itself: a spin workload calibrated to the engine's *measured* mean
//! per-node cost is run bare, then wrapped in the exact per-node
//! instrumentation pattern (three [`timed`] spans, six counter bumps,
//! one histogram sample) on a [`NoopRecorder`]. The difference is the
//! seam's whole contribution to the clean path, and it is asserted
//! under the 3% budget.
//!
//! Attaching a [`MetricsRecorder`] is *opt-in per query* and pays for
//! real clock reads and atomics; the guard measures that too at the
//! engine level and reports it in the JSON (informational — the
//! budget applies to the clean path).
//!
//! The run also writes the last query's full [`QueryProfile`] into
//! the JSON and pretty-prints its phase table, so the artifact
//! doubles as a living example of the profiling output.

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;

use psi_bench::{time, write_bench_json, ResultTable};
use psi_core::obs::{timed, Counter, Histogram, MetricsRecorder, NoopRecorder, Phase, QueryProfile, Recorder};
use psi_core::{RunSpec, SmartPsi, SmartPsiConfig};
use psi_datasets::QueryWorkload;

/// Timing rounds per arm; the minimum is recorded.
const ROUNDS: usize = 8;

/// Relative overhead budget for the no-op recorder seam on the clean
/// path (ISSUE 3 acceptance criterion).
const OVERHEAD_TARGET_PCT: f64 = 3.0;

/// Deterministic integer spin — stands in for one node's match work.
fn spin(iters: u64) -> u64 {
    let mut x = 0u64;
    for i in 0..black_box(iters) {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    black_box(x)
}

/// One node's worth of seam traffic around `iters` of work: the
/// pattern the engine emits per candidate (predict span + stage-1
/// span + a stage-2 retry, counter bumps, one histogram sample).
fn spin_with_seam(rec: &dyn Recorder, iters: u64) -> u64 {
    let a = timed(rec, Phase::Predict, || spin(iters / 3));
    let b = timed(rec, Phase::MatchS1, || spin(iters / 3));
    let c = timed(rec, Phase::MatchS2, || spin(iters - 2 * (iters / 3)));
    rec.add(Counter::Candidates, 1);
    rec.add(Counter::ResolvedS1, 1);
    rec.add(Counter::Steps, iters);
    rec.add(Counter::CacheHits, 1);
    rec.add(Counter::MlInferences, 2);
    rec.add(Counter::PredictedValid, 1);
    rec.observe(Histogram::StepsPerNode, iters);
    a ^ b ^ c
}

fn main() {
    // Same shape as the robustness guard: dense enough that per-node
    // evaluation dominates, small enough that all rounds stay in
    // seconds.
    let g = psi_datasets::generators::erdos_renyi(2_000, 12_000, 3, 17);
    let mut queries = Vec::new();
    for size in 5..=7usize {
        if let Some(w) = QueryWorkload::extract(&g, size, 5, 90 + size as u64) {
            queries.extend(w.queries);
        }
    }
    eprintln!(
        "[profile] |V|={} |E|={} labels=3, {} queries",
        g.node_count(),
        g.edge_count(),
        queries.len()
    );
    let smart = SmartPsi::new(g.clone(), SmartPsiConfig::default());

    // ------------------------------------------------------------------
    // Engine-level measurement: clean path (no recorder) vs a live
    // MetricsRecorder per query. This prices *opt-in profiling*, and
    // yields the mean per-node cost that calibrates the seam bench.
    // ------------------------------------------------------------------
    let noop_spec = RunSpec::new();
    let mut last_profile: Option<QueryProfile> = None;
    let mut t_clean = f64::MAX;
    let mut t_profiled = f64::MAX;
    let mut candidates_total = 0usize;
    let mut check = (0usize, 0usize);
    for _ in 0..ROUNDS {
        // Interleave the arms so drift (thermal, scheduler) hits both.
        let (a, t) = time(|| {
            let mut total = 0usize;
            for q in &queries {
                let r = smart.run(q, &noop_spec);
                candidates_total += r.candidates;
                total += r.count();
            }
            total
        });
        t_clean = t_clean.min(t.as_secs_f64() * 1e3);
        let (b, t) = time(|| {
            let mut total = 0usize;
            for q in &queries {
                let spec = RunSpec::new().recorder(Arc::new(MetricsRecorder::new()));
                let r = smart.run(q, &spec);
                total += r.count();
                if let Some(p) = r.profile {
                    last_profile = Some(*p);
                }
            }
            total
        });
        t_profiled = t_profiled.min(t.as_secs_f64() * 1e3);
        check = (a, b);
    }
    assert_eq!(check.0, check.1, "profiling changed an answer");
    assert!(check.0 > 0, "workload produced no valid bindings");
    candidates_total /= ROUNDS;
    let profiled_overhead = (t_profiled - t_clean) / t_clean.max(1e-9) * 100.0;

    // ------------------------------------------------------------------
    // Seam measurement: the same per-node seam traffic the engine
    // emits, on a NoopRecorder, around work calibrated to the mean
    // per-node cost just measured. The difference vs the bare spin is
    // everything the clean path pays for being instrumented.
    // ------------------------------------------------------------------
    let node_ns = t_clean * 1e6 / candidates_total.max(1) as f64;
    // Calibrate spin iterations to one node's worth of nanoseconds.
    let (_, probe) = time(|| spin(1 << 22));
    let ns_per_iter = probe.as_secs_f64() * 1e9 / (1 << 22) as f64;
    let iters = ((node_ns / ns_per_iter) as u64).max(64);
    let reps = (40_000_000.0 / node_ns.max(1.0)) as u64; // ~40ms per arm
    eprintln!(
        "[profile] seam bench: {node_ns:.0}ns/node -> {iters} spin iters x {reps} reps"
    );
    let noop = NoopRecorder;
    let mut t_bare = f64::MAX;
    let mut t_seam = f64::MAX;
    for _ in 0..ROUNDS {
        let (_, t) = time(|| {
            let mut acc = 0u64;
            for _ in 0..reps {
                acc ^= spin(iters);
            }
            acc
        });
        t_bare = t_bare.min(t.as_secs_f64() * 1e3);
        let (_, t) = time(|| {
            let mut acc = 0u64;
            for _ in 0..reps {
                acc ^= spin_with_seam(&noop, iters);
            }
            acc
        });
        t_seam = t_seam.min(t.as_secs_f64() * 1e3);
    }
    let seam_overhead = (t_seam - t_bare) / t_bare.max(1e-9) * 100.0;

    let mut table = ResultTable::new(
        "profile_overhead",
        &["arm", "best_ms", "overhead_pct"],
    );
    table.row(vec!["bare_node_work".into(), format!("{t_bare:.1}"), "0.00".into()]);
    table.row(vec![
        "noop_seam".into(),
        format!("{t_seam:.1}"),
        format!("{seam_overhead:+.2}"),
    ]);
    table.row(vec!["engine_clean".into(), format!("{t_clean:.1}"), "0.00".into()]);
    table.row(vec![
        "engine_profiled".into(),
        format!("{t_profiled:.1}"),
        format!("{profiled_overhead:+.2}"),
    ]);
    table.finish();

    let sample = last_profile.expect("profiled arm attaches a profile to every result");
    assert!(sample.reconciles(), "sample profile violates the accounting identity");
    println!("\nlast query's phase table:\n{sample}");

    let mut json = String::new();
    let _ = writeln!(
        json,
        "{{\n  \"experiment\": \"observability overhead guard (no-op seam asserted < {OVERHEAD_TARGET_PCT}%; \
         enabled MetricsRecorder priced for reference; best of {ROUNDS} interleaved rounds)\",\n  \
         \"overhead_target_pct\": {OVERHEAD_TARGET_PCT},\n  \
         \"noop_seam_overhead_pct\": {seam_overhead:.2},\n  \
         \"bare_ms\": {t_bare:.1},\n  \
         \"noop_seam_ms\": {t_seam:.1},\n  \
         \"engine_clean_ms\": {t_clean:.1},\n  \
         \"engine_profiled_ms\": {t_profiled:.1},\n  \
         \"profiled_overhead_pct\": {profiled_overhead:.2},\n  \
         \"mean_node_ns\": {node_ns:.0},\n  \
         \"queries\": {},\n  \
         \"sample_profile\": {}\n}}",
        queries.len(),
        sample.to_json(),
    );
    write_bench_json("BENCH_profile.json", &json);

    assert!(
        seam_overhead < OVERHEAD_TARGET_PCT,
        "no-op seam overhead {seam_overhead:.2}% exceeds the {OVERHEAD_TARGET_PCT}% budget"
    );
    println!(
        "[profile] no-op seam {seam_overhead:+.2}% is within the {OVERHEAD_TARGET_PCT}% budget \
         (enabled recorder: {profiled_overhead:+.2}%, opt-in per query)"
    );
}
