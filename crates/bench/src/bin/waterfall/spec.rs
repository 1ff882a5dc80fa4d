//! The four workloads: their inputs, load, windows and pinned input
//! fingerprints. Every rate, window and size of the benchmark is a
//! constant here.

use psi_core::{DeploymentSpec, NetServerConfig, SmartPsiConfig};
use psi_datasets::{generators, PaperDataset};
use psi_graph::Graph;

use crate::inputs::Phase;

/// Measured seconds per run when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 28.0;
/// Service workers behind every served workload.
pub const WORKERS: usize = 2;
/// Admission queue-depth cap of every served workload.
pub const MAX_QUEUE: usize = 32;
/// Client connections (one thread each) of every served workload.
pub const CONNECTIONS: usize = 2;
/// Threads of the batch workload's `RunSpec::threads`.
pub const BATCH_THREADS: usize = 2;
/// Answers checked against a reference engine per workload.
pub const SAMPLE: usize = 64;
/// Set-ups per run: at least `SETUP_REPS.0`, more until they have
/// taken `SETUP_REPS.1` seconds, at most `SETUP_REPS.2`; `setup_s` is
/// their median.
pub const SETUP_REPS: (usize, f64, usize) = (7, 0.5, 100);
/// Update batches fed to the evolve/signature replicas in a traced run:
/// enough for 10 beyond their p90.
pub const REPLICA_BATCHES: usize = 100;
/// Nice value of the served workloads' server threads (the load
/// generator's threads keep 0).
pub const SERVER_NICE: i32 = 10;
/// Largest tolerated p99 lateness of the load generator, beyond the
/// p99 lateness of a bare sleeper beside it (`client::host_lag`).
pub const MAX_GEN_LAG_MS: f64 = 5.0;
/// The seed whose request stream is pinned by [`Workload::pins`].
pub const PIN_SEED: u64 = 42;
/// Scale of the YouTube stand-in behind `wire-unique` and
/// `wire-evolving` (0.3 → 15,300 nodes, 122k edges, 25 labels). At full
/// scale a query costs 4× more, so the same load gives a quarter of the
/// samples per run, and the medians of those runs spread by a fifth.
pub const YOUTUBE_SCALE: f64 = 0.3;
/// Query sizes (nodes) of the query catalogs. Sizes 7–8 are drawn from
/// the catalog stream on no workload: there about one such query in 300
/// runs for 10 s or more, so a single draw would decide a whole run.
/// `batch-human` adds a fixed, bounded tail of 7- and 8-node queries
/// instead (`inputs::TAIL_SIZES`).
pub const QUERY_SIZES: [usize; 3] = [4, 5, 6];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireRepeat,
    WireUnique,
    BatchHuman,
    WireEvolving,
}

/// Open-loop load of a served workload.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Queries per second in the warm-up and nominal windows.
    pub nominal_qps: f64,
    /// Queries per second in the overload window.
    pub overload_qps: f64,
    /// Latency limit: the deadline of overload queries and the goodput
    /// cut-off.
    pub limit_ms: u64,
    /// Update batches per second on a second connection (0 = none).
    pub update_bps: f64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WireRepeat,
        Workload::WireUnique,
        Workload::BatchHuman,
        Workload::WireEvolving,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireRepeat => "wire-repeat",
            Workload::WireUnique => "wire-unique",
            Workload::BatchHuman => "batch-human",
            Workload::WireEvolving => "wire-evolving",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Served over TCP (every workload but the batch one).
    pub fn served(self) -> bool {
        self != Workload::BatchHuman
    }

    pub fn load(self) -> Load {
        match self {
            Workload::WireRepeat => Load {
                nominal_qps: 150.0,
                overload_qps: 1200.0,
                limit_ms: 100,
                update_bps: 0.0,
            },
            Workload::WireUnique => Load {
                nominal_qps: 60.0,
                overload_qps: 1000.0,
                limit_ms: 250,
                update_bps: 0.0,
            },
            Workload::BatchHuman => Load {
                nominal_qps: 0.0,
                overload_qps: 0.0,
                limit_ms: 0,
                update_bps: 0.0,
            },
            Workload::WireEvolving => Load {
                nominal_qps: 25.0,
                overload_qps: 1000.0,
                limit_ms: 250,
                update_bps: 25.0,
            },
        }
    }

    /// The wire deadline of a query sent in `phase`: the latency limit
    /// in overload segments, none in nominal ones.
    pub fn deadline_ms(self, phase: Phase) -> Option<u64> {
        (phase == Phase::Overload).then_some(self.load().limit_ms)
    }

    /// The data graph. It is fixed (its seed is a constant) so that
    /// runs with different `--seed`s differ only in their request
    /// streams; [`Workload::pins`] guards it against generator drift.
    pub fn graph(self) -> Graph {
        match self {
            Workload::WireRepeat => generators::erdos_renyi(2_000, 8_000, 3, 7),
            Workload::WireUnique | Workload::WireEvolving => {
                PaperDataset::Youtube.generate_scaled(YOUTUBE_SCALE, 1)
            }
            Workload::BatchHuman => PaperDataset::Human.generate(1),
        }
    }

    pub fn config(self) -> SmartPsiConfig {
        match self {
            Workload::WireRepeat => SmartPsiConfig {
                min_candidates_for_ml: 10,
                ..SmartPsiConfig::default()
            },
            Workload::WireUnique | Workload::WireEvolving => SmartPsiConfig::web_scale(),
            Workload::BatchHuman => SmartPsiConfig::default(),
        }
    }

    pub fn deployment(self, graph: &Graph) -> DeploymentSpec {
        let spec = DeploymentSpec::new().workers(WORKERS);
        match self {
            Workload::WireEvolving => spec.evolving(graph.label_count()),
            _ => spec,
        }
    }

    pub fn net_config(self) -> NetServerConfig {
        NetServerConfig {
            max_queue: MAX_QUEUE,
            ..NetServerConfig::default()
        }
    }

    /// Expected fingerprints: the graph's, and the request stream's at
    /// [`PIN_SEED`] with the default windows. A change outside this
    /// directory that alters either (a generator, the RNG, the CSR
    /// layout) stops the benchmark instead of moving its baseline.
    pub fn pins(self) -> (u64, u64) {
        match self {
            Workload::WireRepeat => (0x06ee_be4c_39fb_6bf5, 0x9066_bff0_d146_40f3),
            Workload::WireUnique => (0x634e_ee7d_f947_2d6f, 0x5197_12e0_fbaf_2f01),
            Workload::BatchHuman => (0xd350_4a7b_d91d_c0d1, 0x6ee0_2023_b2e7_1653),
            Workload::WireEvolving => (0x634e_ee7d_f947_2d6f, 0xeb47_fba3_3528_7ae4),
        }
    }

    /// Why the workload exists: the layers it loads and the ones it
    /// leaves alone.
    pub fn why(self) -> &'static str {
        match self {
            Workload::WireRepeat => {
                "cheap repeated query shapes: the front door, the service queue and the \
                 cross-query prediction cache carry each request"
            }
            Workload::WireUnique => {
                "distinct heavy-tailed queries with no cross-query cache hits: training, the \
                 ladder and matching dominate, a front-door or cache change should not move it"
            }
            Workload::BatchHuman => {
                "the paper's mining setting: one closed-loop caller with 2-thread work stealing, \
                 no network and no service; the only workload with 7- and 8-node queries"
            }
            Workload::WireEvolving => {
                "update batches beside distinct queries on one deployment, so signature repair \
                 and snapshot publish compete with reads"
            }
        }
    }
}

/// How a served run splits its measured seconds: repeats of one cycle —
/// a nominal segment, an overload segment, and a gap in which the
/// admission queue drains — of which the first is a warm-up and the
/// rest are measured. Clients send at the nominal rate in the nominal
/// segments and at the overload rate in the overload segments.
///
/// On the 2-vCPU KVM guest the benchmark was calibrated on, a lightly
/// loaded server answered slowly until its first burst of full load, and
/// work ran up to 50 % slower in spells of seconds. Cycles that mix both
/// loads, after a warm-up cycle that has an overload segment too, keep a
/// cold start or one slow spell from deciding a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windows {
    /// Measured cycles (after the warm-up cycle).
    pub cycles: usize,
    pub nominal: f64,
    pub overload: f64,
    pub gap: f64,
}

/// Seconds the admission queue gets to drain after an overload segment:
/// 32 queued jobs at the slowest workload's capacity, plus slack.
const DRAIN_GAP: f64 = 0.4;
/// Target length of one cycle.
const CYCLE: f64 = 3.0;

impl Windows {
    /// Windows of a timed run of `seconds`.
    pub fn timed(seconds: f64, quick: bool) -> Self {
        let seconds = if quick { 6.0 } else { seconds };
        let total = ((seconds / CYCLE).floor() as usize).max(3);
        let cycle = seconds / total as f64;
        let gap = DRAIN_GAP.min(0.15 * cycle);
        let overload = 0.3 * (cycle - gap);
        Self {
            cycles: total - 1,
            nominal: cycle - gap - overload,
            overload,
            gap,
        }
    }

    /// Windows of the TCP part of a traced run; its in-process replay
    /// then repeats the same schedule.
    pub fn traced(seconds: f64, quick: bool) -> Self {
        Self::timed(seconds * 0.45, quick)
    }

    pub fn cycle(&self) -> f64 {
        self.nominal + self.overload + self.gap
    }

    /// `[start, end)` of the nominal segment of cycle `c` (0 = warm-up).
    pub fn nominal_segment(&self, c: usize) -> (f64, f64) {
        let start = c as f64 * self.cycle();
        (start, start + self.nominal)
    }

    /// `[start, end)` of the overload segment of cycle `c`.
    pub fn overload_segment(&self, c: usize) -> (f64, f64) {
        let start = self.nominal_segment(c).1;
        (start, start + self.overload)
    }

    /// Whether `t` falls in the nominal segment of a measured cycle.
    pub fn in_measured_nominal(&self, t: f64) -> bool {
        self.segment_of(t).is_some_and(|k| {
            let (a, b) = self.nominal_segment(k + 1);
            (a..b).contains(&t)
        })
    }

    /// The measured cycle a time falls in: `None` in the warm-up cycle,
    /// `Some(c - 1)` in cycle `c`.
    pub fn segment_of(&self, t: f64) -> Option<usize> {
        let c = ((t / self.cycle()) as usize).min(self.cycles);
        c.checked_sub(1)
    }

    pub fn end(&self) -> f64 {
        (self.cycles + 1) as f64 * self.cycle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_fill_the_measured_seconds() {
        for s in [10.0, 20.0, 40.0] {
            let w = Windows::timed(s, false);
            assert!((w.end() - s).abs() < 1e-9, "{w:?}");
            assert!(w.cycles >= 2 && w.nominal > w.overload && w.gap <= DRAIN_GAP);
            assert_eq!(w.overload_segment(1).0, w.nominal_segment(1).1);
            assert_eq!(w.segment_of(w.nominal_segment(2).0 + 0.01), Some(1));
            assert_eq!(w.segment_of(w.end()), Some(w.cycles - 1));
            assert_eq!(w.segment_of(w.cycle() / 2.0), None);
            assert!(w.in_measured_nominal(w.nominal_segment(1).0));
            assert!(!w.in_measured_nominal(w.overload_segment(1).0));
            assert!(!w.in_measured_nominal(w.nominal_segment(0).0));
        }
        let t = Windows::traced(20.0, false);
        assert!(2.0 * t.end() <= 20.0);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
