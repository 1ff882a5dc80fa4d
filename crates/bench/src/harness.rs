//! Shared measurement plumbing for the reproduction binaries.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use psi_datasets::{PaperDataset, QueryWorkload};
use psi_graph::Graph;

/// Knobs every reproduction binary honors, read from the environment:
///
/// * `PSI_REPRO_SCALE` — multiply dataset sizes (default 1.0; the
///   web-scale datasets are already scaled inside `psi-datasets`).
/// * `PSI_REPRO_QUERIES` — queries per size (default 20; the paper
///   uses 1000, which is hours of laptop time).
/// * `PSI_REPRO_SEED` — RNG seed (default 42).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentEnv {
    /// Dataset scale multiplier in (0, 1].
    pub scale: f64,
    /// Queries per query size.
    pub queries_per_size: usize,
    /// Base seed.
    pub seed: u64,
}

impl ExperimentEnv {
    /// Read from the process environment.
    pub fn from_env() -> Self {
        let scale = std::env::var("PSI_REPRO_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0f64)
            .clamp(0.001, 1.0);
        let queries_per_size = std::env::var("PSI_REPRO_QUERIES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(20usize)
            .max(1);
        let seed = std::env::var("PSI_REPRO_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42u64);
        Self {
            scale,
            queries_per_size,
            seed,
        }
    }

    /// Generate a dataset at this environment's scale.
    pub fn dataset(&self, d: PaperDataset) -> Graph {
        if (self.scale - 1.0).abs() < 1e-9 {
            d.generate(self.seed)
        } else {
            d.generate_scaled(self.scale, self.seed)
        }
    }

    /// Extract a workload of `size`-node queries.
    pub fn workload(&self, g: &Graph, size: usize) -> Option<QueryWorkload> {
        QueryWorkload::extract(g, size, self.queries_per_size, self.seed.wrapping_add(size as u64))
    }
}

/// Time a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Humane duration formatting matching the paper's tables
/// ("27 sec", "14 min", "5.4 hrs").
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1.0 {
        format!("{:.0} ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.1} sec")
    } else if s < 7200.0 {
        format!("{:.1} min", s / 60.0)
    } else {
        format!("{:.1} hrs", s / 3600.0)
    }
}

/// A result table that renders aligned text to stdout and CSV to
/// `target/repro/<name>.csv`.
pub struct ResultTable {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// New table with column names.
    pub fn new(name: &str, header: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render to stdout and write the CSV; returns the CSV path.
    pub fn finish(&self) -> PathBuf {
        // Aligned text.
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        for (i, h) in self.header.iter().enumerate() {
            let _ = write!(out, "{:>w$}  ", h, w = widths[i]);
        }
        out.push('\n');
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", c, w = widths[i]);
            }
            out.push('\n');
        }
        println!("{out}");

        // CSV.
        let dir = repro_dir();
        fs::create_dir_all(&dir).expect("create target/repro");
        let path = dir.join(format!("{}.csv", self.name));
        let mut f = fs::File::create(&path).expect("create csv");
        writeln!(f, "{}", self.header.join(",")).expect("write header");
        for row in &self.rows {
            writeln!(f, "{}", row.join(",")).expect("write row");
        }
        println!("[csv] {}", path.display());
        path
    }
}

/// Output directory for reproduction CSVs.
pub fn repro_dir() -> PathBuf {
    // CARGO_TARGET_DIR may move `target`; default to workspace target.
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    PathBuf::from(target).join("repro")
}

/// Parse a `PSI_*_SLACK` gate-loosening factor from the environment,
/// falling back to `default` when the variable is unset or malformed.
pub fn slack(var: &str, default: f64) -> f64 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The facts that explain a measurement: core count, build profile and
/// the commit measured — suffixed `-dirty` when the working tree
/// differs from it, `"unknown"` outside a git checkout — as a JSON
/// object.
fn host_json() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let git = |args: &[&str]| std::process::Command::new("git").args(args).output().ok();
    let sha = git(&["rev-parse", "HEAD"])
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .map_or_else(
            || "unknown".to_string(),
            |sha| match git(&["diff", "--quiet", "HEAD"]) {
                Some(o) if !o.status.success() => format!("{sha}-dirty"),
                _ => sha,
            },
        );
    format!("{{\"cores\": {cores}, \"profile\": \"{profile}\", \"git_sha\": \"{sha}\"}}")
}

/// Write a `BENCH_*.json` document: `body` is one non-empty JSON
/// object, which gains a leading `"host"` member (cores, build profile,
/// git sha). The file lands in `target/repro/<name>` and, when run from
/// the workspace root, also at the root for discoverability. Returns
/// the `target/repro` path.
pub fn write_bench_json(name: &str, body: &str) -> PathBuf {
    let rest = body.trim_start().strip_prefix('{').expect("bench JSON body is an object");
    let json = format!("{{\n  \"host\": {},{rest}", host_json());
    let dir = repro_dir();
    fs::create_dir_all(&dir).expect("create target/repro");
    let path = dir.join(name);
    fs::write(&path, &json).unwrap_or_else(|e| panic!("write {name}: {e}"));
    if std::path::Path::new("Cargo.toml").exists() {
        let _ = fs::write(name, &json);
    }
    println!("[json] {}", path.display());
    path
}

/// Scientific-notation formatting like the paper's Table 1
/// (`1.3 × 10^7` rendered as `1.3e7`).
pub fn fmt_sci(x: f64) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    let exp = x.abs().log10().floor() as i32;
    if (0..4).contains(&exp) {
        format!("{x:.0}")
    } else {
        format!("{:.1}e{}", x / 10f64.powi(exp), exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        let e = ExperimentEnv {
            scale: 1.0,
            queries_per_size: 5,
            seed: 1,
        };
        let g = e.dataset(PaperDataset::Cora);
        assert_eq!(g.node_count(), 2708);
        let w = e.workload(&g, 4).unwrap();
        assert_eq!(w.queries.len(), 5);
    }

    #[test]
    fn duration_formats() {
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5 ms");
        assert_eq!(fmt_duration(Duration::from_secs(27)), "27.0 sec");
        assert_eq!(fmt_duration(Duration::from_secs(14 * 60)), "14.0 min");
        assert_eq!(fmt_duration(Duration::from_secs(5 * 3600)), "5.0 hrs");
    }

    #[test]
    fn sci_formats() {
        assert_eq!(fmt_sci(0.0), "0");
        assert_eq!(fmt_sci(70_000.0), "7.0e4");
        assert_eq!(fmt_sci(123.0), "123");
        assert_eq!(fmt_sci(1.3e7), "1.3e7");
    }

    #[test]
    fn table_round_trip() {
        let mut t = ResultTable::new("test_table", &["a", "b"]);
        t.row(vec!["1".into(), "x".into()]);
        let path = t.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("a,b"));
        assert!(text.contains("1,x"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bench_json_gains_a_host_block() {
        let body = "{\n  \"x\": 1\n}\n";
        let path = write_bench_json("BENCH_harness_test.json", body);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file("BENCH_harness_test.json").ok();
        assert!(text.starts_with("{\n  \"host\": {\"cores\": "), "{text}");
        assert!(text.contains("\"profile\": "));
        assert!(text.contains("\"git_sha\": "));
        assert!(text.contains("\"x\": 1"));
    }

    #[test]
    fn slack_falls_back_when_unset() {
        assert_eq!(slack("PSI_HARNESS_TEST_UNSET_SLACK", 1.5), 1.5);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        let mut t = ResultTable::new("bad", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
