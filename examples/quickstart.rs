//! Quickstart: the paper's Figure 1 example, end to end.
//!
//! Builds the running-example graph, issues the pivoted query
//! `A - B - C` (pivot `A`), and answers it with every engine in the
//! workspace — the enumeration-based baselines and the dedicated PSI
//! evaluators — printing what each one did.
//!
//! Run with: `cargo run --release --example quickstart`

use smartpsi::core::obs::Counter;
use smartpsi::core::single::{psi_with_strategy, RunOptions};
use smartpsi::core::{RunSpec, SmartPsi, SmartPsiConfig, Strategy};
use smartpsi::graph::{builder::graph_from, PivotedQuery};
use smartpsi::matching::{psi_by_enumeration, turboiso::turboiso_plus_psi, Engine, SearchBudget};

fn main() {
    // Figure 1(b): six proteins, labels A(0), B(1), C(2).
    let g = graph_from(
        &[0, 1, 2, 2, 1, 0],
        &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (3, 4), (2, 4), (4, 5)],
    )
    .expect("valid graph");
    // Figure 1(a): the path query A - B - C, pivoted on the A node.
    let q = PivotedQuery::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)], 0).expect("valid query");

    println!("data graph : {}", smartpsi::graph::GraphStats::of(&g));
    println!("query      : {} nodes, pivot label {}", q.size(), q.pivot_label());
    println!();

    // --- The expensive way: enumerate everything, project the pivot.
    let budget = SearchBudget::unlimited();
    for engine in Engine::ALL {
        let ans = psi_by_enumeration(&engine, &g, &q, &budget);
        println!(
            "{:<12} (enumeration): valid = {:?}, steps = {}",
            engine.name(),
            ans.valid,
            ans.steps
        );
    }

    // --- TurboIso⁺: pivot-seeded, stop at first match per candidate.
    let plus = turboiso_plus_psi(&g, &q, &budget);
    println!("TurboIso+                : valid = {:?}, steps = {}", plus.valid, plus.steps);

    // --- The paper's dedicated evaluators.
    let opts = RunOptions::default();
    let opt = psi_with_strategy(&g, &q, Strategy::optimistic(), &opts);
    let pes = psi_with_strategy(&g, &q, Strategy::pessimistic(), &opts);
    println!("Optimistic               : valid = {:?}, steps = {}", opt.valid, opt.steps);
    println!("Pessimistic              : valid = {:?}, steps = {}", pes.valid, pes.steps);

    // --- One deployment, every executor behind `SmartPsi::run`: the
    // §4.1 two-threaded race, then SmartPSI (the realist).
    let smart = SmartPsi::new(g, SmartPsiConfig::default());
    let two = smart.run(&q, &RunSpec::new().two_thread());
    println!("Two-threaded baseline    : valid = {:?}, steps = {}", two.valid, two.steps);
    let result = smart.run(&q, &RunSpec::new());
    let trained = result.profile.as_ref().map_or(0, |p| p.counter(Counter::TrainedNodes));
    println!(
        "SmartPSI                 : valid = {:?}, steps = {}, trained on {} nodes",
        result.valid, result.steps, trained
    );

    assert_eq!(result.valid, vec![0, 5]);
    println!("\nAll engines agree: the pivot binds u1 and u6, exactly as in the paper.");
}
