//! Robustness guard — the cost and the payoff of the fault-tolerance
//! layer (`BENCH_robustness.json`).
//!
//! Two questions, answered on the same synthetic workload:
//!
//! 1. **What does panic isolation cost when nothing goes wrong?** The
//!    `catch_unwind` boundary wraps every per-node evaluation, so it
//!    sits on the hottest loop in the engine. We time SmartPSI and the
//!    single-strategy pessimistic runner with isolation on and off
//!    (best of [`ROUNDS`] rounds each) and report the relative
//!    overhead. The budget is **< 5%**; the run prints a loud warning
//!    when an arm exceeds it.
//! 2. **What does the layer buy under faults?** A chaos arm re-runs
//!    the workload with a seeded [`FaultPlan`] (panics, spurious
//!    interrupts and budget burns at 5% each) and checks the valid
//!    sets against the clean run, recording how many faults were
//!    absorbed on the way to the identical answer.
//!
//! Results land in `BENCH_robustness.json` (in `target/repro/` and at
//! the workspace root), keyed so CI or a reviewer can diff them
//! against a previous run.

use std::fmt::Write as _;
use std::sync::Arc;

use psi_bench::{time, write_bench_json, ResultTable};
use psi_core::single::{psi_with_strategy_presig, RunOptions};
use psi_core::{install_quiet_panic_hook, FaultPlan, RunSpec, SmartPsi, SmartPsiConfig, Strategy};
use psi_datasets::QueryWorkload;

/// Timing rounds per arm; the minimum is recorded.
const ROUNDS: usize = 5;

/// Relative clean-path overhead budget for panic isolation.
const OVERHEAD_TARGET_PCT: f64 = 5.0;

fn main() {
    // Dense enough that per-node evaluation dominates, small enough
    // that five rounds of every arm stay in seconds.
    let g = psi_datasets::generators::erdos_renyi(2_000, 9_000, 3, 17);
    let sigs = psi_signature::matrix_signatures(&g, 2);
    let mut queries = Vec::new();
    for size in 4..=6usize {
        if let Some(w) = QueryWorkload::extract(&g, size, 5, 90 + size as u64) {
            queries.extend(w.queries);
        }
    }
    eprintln!(
        "[robustness] |V|={} |E|={} labels=3, {} queries",
        g.node_count(),
        g.edge_count(),
        queries.len()
    );

    let mut table = ResultTable::new(
        "robustness_overhead",
        &["arm", "isolation_off_ms", "isolation_on_ms", "overhead_pct"],
    );
    let mut json_rows = String::new();

    // --- Arm 1a: single-strategy pessimistic runner -----------------
    // The leanest loop in the engine: signatures precomputed, no
    // training, one catch_unwind per candidate node when isolation is
    // on. This is the worst case for the boundary's relative cost.
    let run_single = |isolate: bool| {
        let opts = RunOptions {
            panic_isolation: isolate,
            ..RunOptions::default()
        };
        let mut total_valid = 0usize;
        for q in &queries {
            total_valid +=
                psi_with_strategy_presig(&g, &sigs, q, Strategy::pessimistic(), &opts)
                    .valid
                    .len();
        }
        total_valid
    };
    let (t_off, t_on, check) = best_of(ROUNDS, &run_single);
    push_arm(&mut table, &mut json_rows, "single_pessimistic", t_off, t_on);
    assert!(check > 0, "workload produced no valid bindings");

    // --- Arm 1b: SmartPSI sequential -------------------------------
    // Training + prediction amortize the boundary, so the overhead
    // here is what a deployment actually sees.
    let smart_off = SmartPsi::new(
        g.clone(),
        SmartPsiConfig {
            panic_isolation: false,
            ..SmartPsiConfig::default()
        },
    );
    let smart_on = SmartPsi::new(g.clone(), SmartPsiConfig::default());
    let run_smart = |isolate: bool| {
        let smart = if isolate { &smart_on } else { &smart_off };
        let mut total_valid = 0usize;
        for q in &queries {
            total_valid += smart.run(q, &RunSpec::new()).valid.len();
        }
        total_valid
    };
    let (t_off, t_on, _) = best_of(ROUNDS, &run_smart);
    push_arm(&mut table, &mut json_rows, "smartpsi", t_off, t_on);
    table.finish();

    // --- Arm 2: chaos run -------------------------------------------
    // Same workload, seeded fault plan. The answer must not move.
    install_quiet_panic_hook();
    let clean: Vec<_> = queries.iter().map(|q| smart_on.run(q, &RunSpec::new())).collect();
    let chaotic = SmartPsi::new(
        g.clone(),
        SmartPsiConfig {
            fault: Some(Arc::new(FaultPlan::seeded(7, 0.05, 0.05, 0.05))),
            ..SmartPsiConfig::default()
        },
    );
    let mut mismatches = 0usize;
    let mut panics = 0u64;
    let mut escalations = 0u64;
    let mut failed_nodes = 0usize;
    let mut unresolved = 0usize;
    let (_, t_chaos) = time(|| {
        for (q, base) in queries.iter().zip(&clean) {
            let r = chaotic.run(q, &RunSpec::new());
            if r.valid != base.valid {
                mismatches += 1;
            }
            panics += r.failures.panics_recovered;
            escalations += r.failures.escalations;
            failed_nodes += r.failures.len();
            unresolved += r.unresolved;
        }
    });
    println!(
        "chaos: {} queries, {} panics recovered, {} escalations, {} failed nodes, \
         {} unresolved, {} answer mismatches, {:.1} ms",
        queries.len(),
        panics,
        escalations,
        failed_nodes,
        unresolved,
        mismatches,
        t_chaos.as_secs_f64() * 1e3
    );
    assert_eq!(mismatches, 0, "chaos run changed a valid set");
    assert_eq!(failed_nodes, 0, "recoverable faults left failed nodes");
    assert_eq!(unresolved, 0, "chaos run left unresolved candidates");
    assert!(panics + escalations > 0, "fault plan injected nothing");

    let json = format!(
        "{{\n  \"experiment\": \"robustness guard (panic-isolation overhead, best of \
         {ROUNDS} rounds; seeded chaos run)\",\n  \
         \"overhead_target_pct\": {OVERHEAD_TARGET_PCT},\n  \
         \"overhead\": [\n{}\n  ],\n  \
         \"chaos\": {{\"seed\": 7, \"rates\": 0.05, \"queries\": {}, \
         \"panics_recovered\": {panics}, \"budget_escalations\": {escalations}, \
         \"failed_nodes\": {failed_nodes}, \"unresolved\": {unresolved}, \
         \"answer_mismatches\": {mismatches}, \"total_ms\": {:.1}}}\n}}\n",
        json_rows.trim_end().trim_end_matches(','),
        queries.len(),
        t_chaos.as_secs_f64() * 1e3,
    );
    write_bench_json("BENCH_robustness.json", &json);
}

/// Run `f(false)` and `f(true)` `rounds` times interleaved, returning
/// the best wall-clock for each plus `f`'s (arm-independent) result.
fn best_of(rounds: usize, f: &dyn Fn(bool) -> usize) -> (f64, f64, usize) {
    let mut t_off = f64::MAX;
    let mut t_on = f64::MAX;
    let mut out = 0usize;
    for _ in 0..rounds {
        let (a, t) = time(|| f(false));
        t_off = t_off.min(t.as_secs_f64() * 1e3);
        let (b, t) = time(|| f(true));
        t_on = t_on.min(t.as_secs_f64() * 1e3);
        assert_eq!(a, b, "panic isolation changed a clean-path answer");
        out = b;
    }
    (t_off, t_on, out)
}

fn push_arm(table: &mut ResultTable, json_rows: &mut String, arm: &str, t_off: f64, t_on: f64) {
    let overhead = (t_on - t_off) / t_off.max(1e-9) * 100.0;
    table.row(vec![
        arm.into(),
        format!("{t_off:.1}"),
        format!("{t_on:.1}"),
        format!("{overhead:+.2}"),
    ]);
    let _ = writeln!(
        json_rows,
        "    {{\"arm\": \"{arm}\", \"isolation_off_ms\": {t_off:.1}, \
         \"isolation_on_ms\": {t_on:.1}, \"overhead_pct\": {overhead:.2}}},",
    );
    if overhead > OVERHEAD_TARGET_PCT {
        eprintln!(
            "[robustness] WARNING: {arm} isolation overhead {overhead:.2}% exceeds \
             the {OVERHEAD_TARGET_PCT}% budget"
        );
    }
}
