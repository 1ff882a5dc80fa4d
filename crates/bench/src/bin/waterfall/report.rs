//! Metric records, the host block, process memory, and the output
//! formats (report lines, the final JSON line, `result.json`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::client::Outcome;
use crate::stats::{percentile, percentile_unguarded};

/// End-to-end metrics (every run with `--trace 0` reports all of them):
/// `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("goodput_qps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (every run with `--trace 1` reports all of them):
/// `(name, unit)`. A layer a workload does not cross reports 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("graph.load_ms", "ms"),
    ("context.signature_build_ms", "ms"),
    ("context.deploy_ms", "ms"),
    ("signature.index_bytes", "bytes"),
    ("net.parse_us", "us"),
    ("net.serialize_us", "us"),
    ("net.write_us_per_resp", "us"),
    ("net.wire_ms_p50", "ms"),
    ("net.shed_frac", "ratio"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p99_ms", "ms"),
    ("service.busy_frac", "ratio"),
    ("cache.hit_frac", "ratio"),
    ("cache.cross_query_hits", "count"),
    ("cache.invalidations", "count"),
    ("training.ms_per_query", "ms"),
    ("training.nodes_per_query", "count"),
    ("training.share", "ratio"),
    ("ladder.prefilter_ms_per_query", "ms"),
    ("ladder.prefilter_pruned_frac", "ratio"),
    ("ladder.predict_ms_per_query", "ms"),
    ("ml.inferences_per_query", "count"),
    ("ml.us_per_inference", "us"),
    ("ladder.s1_ms_per_query", "ms"),
    ("ladder.s2_ms_per_query", "ms"),
    ("ladder.s3_ms_per_query", "ms"),
    ("ladder.s1_resolved_frac", "ratio"),
    ("ladder.retries_per_query", "count"),
    ("ladder.escalations_per_query", "count"),
    ("ladder.alpha_accuracy", "ratio"),
    ("match.steps_per_query", "count"),
    ("match.steps_per_candidate", "count"),
    ("match.steps_per_node_p99", "count"),
    ("exec.grabs_per_query", "count"),
    ("exec.grab_len_p50", "count"),
    ("exec.merge_ms_per_query", "ms"),
    ("exec.pool_spawn_ms", "ms"),
    ("exec.parallel_speedup", "ratio"),
    ("evolve.apply_ms_p50", "ms"),
    ("evolve.apply_ms_p90", "ms"),
    ("evolve.rows_repaired_per_batch", "count"),
    ("signature.repair_ms_p50", "ms"),
    ("trace.e2e_p50_ms", "ms"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// One named number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything one run of one workload found.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the run's mode (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Numbers printed for people but not part of the result line.
    pub notes: Vec<Metric>,
    /// Requests by outcome.
    pub outcomes: BTreeMap<Outcome, u64>,
    /// Validity gates that failed (the run exits non-zero).
    pub problems: Vec<String>,
}

impl Report {
    /// Record a metric of the result line, checking it is one of the
    /// mode's declared metrics.
    pub fn metric(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn note(&mut self, name: &str, unit: &'static str, value: f64) {
        self.notes.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// The `q`-percentile of an ascending latency sample. With fewer
    /// than 10 samples beyond it, or a failed request (infinitely late)
    /// at it, the run is invalid unless the gates are off.
    pub fn latency_pct(&mut self, what: &str, sorted_ms: &[f64], q: f64, gates: bool) -> f64 {
        let p = (q * 100.0).round();
        let v = percentile(sorted_ms, q).unwrap_or_else(|| {
            if gates {
                self.problems.push(format!(
                    "{what}: {} samples leave fewer than 10 beyond p{p}",
                    sorted_ms.len()
                ));
            }
            percentile_unguarded(sorted_ms, q).unwrap_or(f64::NAN)
        });
        if gates && !v.is_finite() {
            self.problems
                .push(format!("{what}: failed requests reach p{p}"));
        }
        v
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The report lines of the run.
    pub fn lines(&self, workload: &str) -> String {
        let mut s = String::new();
        let sent: u64 = self.outcomes.values().sum();
        let mut ops = format!("[{workload}] ops_sent {sent}");
        for o in Outcome::ALL {
            let n = self.outcomes.get(&o).copied().unwrap_or(0);
            let _ = write!(ops, " ops_{} {n}", o.name());
        }
        let _ = writeln!(
            s,
            "{ops} (failed {} of {} attempted)",
            self.failed, self.attempted
        );
        for m in self.metrics.iter().chain(&self.notes) {
            let _ = writeln!(
                s,
                "[{workload}] {} = {} {}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        for p in &self.problems {
            let _ = writeln!(s, "[{workload}] INVALID: {p}");
        }
        s
    }

    /// The result line: `correct`, `attempted`,
    /// `failed` and `metrics`, with metric names prefixed by `prefix`.
    pub fn json(&self, prefix: &str) -> String {
        json_line(
            self.correct,
            self.attempted,
            self.failed,
            &self.prefixed(prefix),
        )
    }

    pub fn prefixed(&self, prefix: &str) -> Vec<Metric> {
        self.metrics
            .iter()
            .map(|m| Metric {
                name: format!("{prefix}{}", m.name),
                ..m.clone()
            })
            .collect()
    }
}

pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            fmt_num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// A number with all its digits; non-finite values (which no metric
/// should reach) print as `null` so the line stays valid JSON.
pub fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Reset the process's peak resident set size to its current size.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit the checkout came from, read from `.git` without
/// running git; `unknown` outside a repository.
pub fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host block: what a reader needs to interpret the numbers.
pub fn host_block(seed: u64, seconds: f64, passes: &str, windows: &[(String, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut s = format!(
        "host: nproc {nproc}, profile {profile}, git {}, seed {seed}, seconds {seconds}, passes {passes}\n",
        git_sha()
    );
    for (w, desc) in windows {
        let _ = writeln!(s, "host: windows {w}: {desc}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let text = loop {
            if let Ok(t) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break t;
            }
            assert!(dir.pop(), "BENCHMARK.json not found above the package");
        };
        let json = psi_core::engine::proto::parse_json(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let declared: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, declared, "{key}");
        }
    }

    #[test]
    fn result_line_is_valid_json() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.metric("setup_s", 0.25);
        r.metric("query_p50_ms", 1.5e-3);
        let line = r.json("");
        let v = psi_core::engine::proto::parse_json(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(|a| a.as_u64()), Some(3));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("query_p50_ms"))
            .unwrap();
        assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some("ms"));
        assert_eq!(fmt_num(f64::INFINITY), "null");
    }
}
