//! `--runs`: repeat timed runs in child processes and summarize each
//! (workload, metric) by median and spread. `--compare`: judge two such
//! sets against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use psi_core::engine::proto::{parse_json, Json};

use crate::report::{fmt_num, END_TO_END};
use crate::spec::Workload;
use crate::stats::{median, spread};

/// Values per workload, per metric.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Run each workload `n` times (seeds `seed`, `seed + 1`, …) as child
/// processes of this binary, write their end-to-end values to `out`
/// (replacing what it held, so a set never mixes two builds), and print
/// the summary. Returns false if any run failed.
pub fn runs(
    workloads: &[Workload],
    seed: u64,
    n: u64,
    seconds: f64,
    quick: bool,
    out: &Path,
) -> bool {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut set = RunSet::new();
    let mut ok = true;
    for w in workloads {
        for i in 0..n {
            let s = seed + i;
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &s.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"]);
            if quick {
                cmd.arg("--quick");
            }
            let output = cmd.output().expect("run the benchmark binary");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let parsed = parse_json(last).ok().filter(|_| output.status.success());
            let Some(metrics) = parsed.as_ref().and_then(|j| j.get("metrics")) else {
                eprintln!("{} seed {s}: run failed ({})", w.name(), output.status);
                ok = false;
                continue;
            };
            let entry = set.entry(w.name().to_string()).or_default();
            for (name, _) in END_TO_END {
                if let Some(v) = metrics.get(name).and_then(|m| m.get("value")).and_then(num) {
                    entry.entry(name.to_string()).or_default().push(v);
                }
            }
            eprintln!("{} seed {s}: done", w.name());
        }
    }
    for (w, metrics) in &set {
        for (m, v) in metrics {
            println!(
                "{w} {m}: median {} IQR/median {} over {} runs",
                fmt_num(median(v)),
                spread(v).map_or("n/a".into(), fmt_num),
                v.len()
            );
        }
    }
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(out, to_json(&set)).expect("write the run set");
    println!("run set: {}", out.display());
    ok
}

fn num(j: &Json) -> Option<f64> {
    match j {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

fn to_json(set: &RunSet) -> String {
    let obj = |items: Vec<String>| format!("{{{}}}", items.join(","));
    obj(set
        .iter()
        .map(|(w, ms)| {
            let inner = ms
                .iter()
                .map(|(m, v)| {
                    let vals: Vec<String> = v.iter().map(|x| fmt_num(*x)).collect();
                    format!("\"{m}\":[{}]", vals.join(","))
                })
                .collect();
            format!("\"{w}\":{}", obj(inner))
        })
        .collect())
}

pub fn load(path: &Path) -> Option<RunSet> {
    parse_set(&std::fs::read_to_string(path).ok()?)
}

fn parse_set(text: &str) -> Option<RunSet> {
    let Json::Obj(workloads) = parse_json(text).ok()? else {
        return None;
    };
    let mut set = RunSet::new();
    for (w, metrics) in workloads {
        let Json::Obj(metrics) = metrics else {
            return None;
        };
        for (m, values) in metrics {
            let v: Vec<f64> = values.as_arr()?.iter().filter_map(num).collect();
            set.entry(w.clone()).or_default().insert(m, v);
        }
    }
    Some(set)
}

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `b` against `a`: unresolved when either side's spread (IQR over
/// median) exceeds `bound`, else better or worse when the medians differ
/// by more than `bound` of `a`'s median, else within.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let wide = |v: &[f64]| spread(v).is_none_or(|s| s > bound);
    if wide(a) || wide(b) {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let change = (mb - ma) / ma.abs();
    let worse_by = if lower_is_better { change } else { -change };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Print a verdict for every (workload, end-to-end metric) pair of two
/// run sets, using `BENCHMARK.json` in the working directory for the
/// bounds. Returns false when a pair is worse.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json in the working directory: {e}"))?;
    let bench = parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let (sa, sb) = (
        load(a).ok_or(format!("cannot read {}", a.display()))?,
        load(b).ok_or(format!("cannot read {}", b.display()))?,
    );
    let mut all_ok = true;
    for (w, ma) in &sa {
        let Some(mb) = sb.get(w) else { continue };
        for m in metrics {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("");
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let bound = m.get("bound").and_then(num).unwrap_or(0.0);
            let (Some(va), Some(vb)) = (ma.get(name), mb.get(name)) else {
                continue;
            };
            let v = verdict(va, vb, lower, bound);
            all_ok &= v != Verdict::Worse;
            println!(
                "{w} {name}: {} (median {} -> {}, spread {} / {}, bound {bound})",
                v.name(),
                fmt_num(median(va)),
                fmt_num(median(vb)),
                spread(va).map_or("n/a".into(), fmt_num),
                spread(vb).map_or("n/a".into(), fmt_num)
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_apply_the_bound_in_the_better_direction() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [12.0, 12.1, 11.9, 12.0, 12.05];
        let same = [10.2, 10.1, 10.3, 10.2, 10.25];
        assert_eq!(verdict(&a, &slower, true, 0.1), Verdict::Worse);
        assert_eq!(verdict(&a, &slower, false, 0.1), Verdict::Better);
        assert_eq!(verdict(&a, &same, true, 0.1), Verdict::Within);
        assert_eq!(verdict(&slower, &a, true, 0.1), Verdict::Better);
        // A side whose quartiles spread wider than the bound decides
        // nothing, however far apart the medians are.
        let noisy = [5.0, 20.0, 12.0, 3.0, 30.0];
        assert_eq!(verdict(&a, &noisy, true, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&a, &[12.0], true, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn run_sets_round_trip_through_json() {
        let mut set = RunSet::new();
        set.entry("wire-repeat".into())
            .or_default()
            .insert("query_p50_ms".into(), vec![1.25, 1.5]);
        assert_eq!(parse_set(&to_json(&set)), Some(set));
        assert_eq!(parse_set("[1]"), None);
    }
}
