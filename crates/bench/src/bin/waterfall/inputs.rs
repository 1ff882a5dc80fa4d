//! Everything a run feeds the program, generated from the seed: the
//! graph's text form, the query pool, the update batches, and the
//! open-loop send schedule with each request's wire line.

use psi_core::SmartPsiConfig;
use psi_datasets::{rwr, ZipfSampler};
use psi_graph::{Graph, GraphUpdate, LabelId, NodeId, PivotedQuery};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::spec::{Windows, Workload, CONNECTIONS, QUERY_SIZES, SAMPLE};

/// Seed of the query catalogs. The queries are fixed so that every run
/// sends the same set; `--seed` picks their order and arrival times.
const CATALOG_SEED: u64 = 0x5eed_ca7a_1095;
/// Distinct query shapes of `wire-repeat`.
const REPEAT_SHAPES: usize = 16;
/// Zipf exponent of the shape draw of `wire-repeat`.
const REPEAT_ZIPF: f64 = 1.0;
/// Catalog queries of `batch-human`'s set, which every pass runs whole
/// (with the tail below, about 3.5 s).
const BATCH_QUERIES: usize = 300;
/// Sizes of `batch-human`'s large-query tail: [`TAIL_PER_SIZE`] queries
/// of each, extracted with seeds `0..TAIL_PER_SIZE`. On the 2-vCPU KVM
/// guest they took 3–150 ms each on 2 threads, about 0.55 s a pass,
/// against 10 ms for the average catalog query, so the exact fallback
/// and the large-query path carry a sixth of every pass.
const TAIL_SIZES: [usize; 2] = [7, 8];
const TAIL_PER_SIZE: u64 = 20;
/// Edge insertions per update batch of `wire-evolving`.
const EDGES_PER_BATCH: usize = 8;
/// One update batch in this many also appends a node.
const NODE_EVERY: u32 = 10;

/// `(due, query index, window, segment)` of one planned query.
type Pick = (f64, usize, Phase, Option<usize>);

/// Which segment of its cycle an operation was scheduled in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Nominal,
    Overload,
}

/// What an operation sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A query: index into [`Inputs::queries`].
    Query(usize),
    /// An update batch: index into [`Inputs::updates`].
    Update(usize),
}

/// One scheduled request of one connection.
#[derive(Debug, Clone)]
pub struct Op {
    /// Seconds after the run's start at which it is due.
    pub at: f64,
    pub kind: OpKind,
    pub phase: Phase,
    /// The measured cycle it belongs to (`None` in the warm-up cycle).
    pub segment: Option<usize>,
    /// The protocol line, without its newline.
    pub line: String,
}

/// A run's inputs.
pub struct Inputs {
    pub graph: Graph,
    /// The graph in `psi_graph::io` text form: set-up starts here.
    pub bytes: Vec<u8>,
    pub config: SmartPsiConfig,
    pub queries: Vec<PivotedQuery>,
    pub updates: Vec<Vec<GraphUpdate>>,
    /// Per connection, its operations in send order (served only).
    pub conns: Vec<Vec<Op>>,
    /// `wire-evolving`: queries sent after the update stream drained,
    /// checked against an engine built cold on the final graph.
    pub post_drain: Vec<usize>,
    pub graph_fp: u64,
    pub stream_fp: u64,
}

impl Inputs {
    pub fn generate(w: Workload, seed: u64, win: &Windows) -> Self {
        let mut inputs = Self::on_graph(w, seed, win, w.graph());
        psi_graph::io::write_graph(&inputs.graph, &mut inputs.bytes)
            .expect("writing to memory cannot fail");
        inputs.graph_fp = graph_fingerprint(&inputs.graph);
        inputs
    }

    /// The request stream of workload `w` over `graph` (no text form or
    /// graph fingerprint).
    pub fn on_graph(w: Workload, seed: u64, win: &Windows, graph: Graph) -> Self {
        let mut inputs = Self {
            graph,
            bytes: Vec::new(),
            config: w.config(),
            queries: Vec::new(),
            updates: Vec::new(),
            conns: Vec::new(),
            post_drain: Vec::new(),
            graph_fp: 0,
            stream_fp: 0,
        };
        inputs.fill_stream(w, seed, win);
        inputs
    }

    fn fill_stream(&mut self, w: Workload, seed: u64, win: &Windows) {
        let mut catalog = StdRng::seed_from_u64(CATALOG_SEED);
        let mut order = StdRng::seed_from_u64(sub_seed(seed, 1));
        let load = w.load();
        let mut windows = Vec::new();
        for c in 0..=win.cycles {
            let segment = c.checked_sub(1);
            let (a, b) = win.nominal_segment(c);
            windows.push((a, b, load.nominal_qps, Phase::Nominal, segment));
            let (a, b) = win.overload_segment(c);
            windows.push((a, b, load.overload_qps, Phase::Overload, segment));
        }
        match w {
            Workload::BatchHuman => {
                self.queries = self.catalog(BATCH_QUERIES, &mut catalog);
                for size in TAIL_SIZES {
                    for seed in 0..TAIL_PER_SIZE {
                        let q = rwr::extract_query_seeded(&self.graph, size, seed).expect(
                            "the Human stand-in holds connected subgraphs of every tail size",
                        );
                        self.queries.push(q);
                    }
                }
                shuffle(&mut self.queries, &mut order);
            }
            Workload::WireRepeat => {
                self.queries = self.catalog(REPEAT_SHAPES, &mut catalog);
                let zipf = ZipfSampler::new(REPEAT_SHAPES, REPEAT_ZIPF);
                let mut picks = Vec::new();
                for (from, to, rate, phase, segment) in windows {
                    for at in arrivals(&mut order, from, to, rate) {
                        picks.push((at, zipf.sample(&mut order), phase, segment));
                    }
                }
                self.conns = self.query_conns(w, &picks, CONNECTIONS);
            }
            Workload::WireUnique | Workload::WireEvolving => {
                let mut picks = Vec::new();
                for (from, to, rate, phase, segment) in windows {
                    let times = arrivals(&mut order, from, to, rate);
                    let first = self.queries.len();
                    let mut window = self.catalog(times.len(), &mut catalog);
                    shuffle(&mut window, &mut order);
                    self.queries.extend(window);
                    let picked = times.into_iter().enumerate();
                    picks.extend(picked.map(|(k, at)| (at, first + k, phase, segment)));
                }
                if w == Workload::WireEvolving {
                    // Queries on the first connection, update batches on
                    // the second.
                    self.conns = self.query_conns(w, &picks, 1);
                    let updates = self.update_ops(w, seed, win);
                    self.conns.push(updates);
                    let first = self.queries.len();
                    let fresh = self.catalog(SAMPLE, &mut catalog);
                    self.queries.extend(fresh);
                    self.post_drain = (first..self.queries.len()).collect();
                } else {
                    self.conns = self.query_conns(w, &picks, CONNECTIONS);
                }
            }
        }
        let mut fp = Fnv::new();
        for q in &self.queries {
            fp.str(&query_line(0, q, None));
        }
        for b in &self.updates {
            fp.str(&update_line(0, b));
        }
        for ops in &self.conns {
            for op in ops {
                fp.u64((op.at * 1e9) as u64);
                fp.str(&op.line);
            }
        }
        self.stream_fp = fp.finish();
    }

    /// `n` queries from the fixed catalog stream, sizes in rotation.
    fn catalog(&self, n: usize, rng: &mut StdRng) -> Vec<PivotedQuery> {
        (0..n)
            .map(|i| {
                rwr::extract_query(
                    &self.graph,
                    QUERY_SIZES[i % QUERY_SIZES.len()],
                    &rwr::RwrConfig::default(),
                    rng,
                )
                .expect("the benchmark graphs hold connected subgraphs of every query size")
            })
            .collect()
    }

    /// Deal picks round-robin onto `conns` connections. Overload
    /// requests carry the workload's latency limit as their deadline;
    /// nominal ones carry none, so a slow answer counts as late, not as
    /// failed.
    fn query_conns(&self, w: Workload, picks: &[Pick], conns: usize) -> Vec<Vec<Op>> {
        let mut out: Vec<Vec<Op>> = vec![Vec::new(); conns];
        for (k, &(at, q, phase, segment)) in picks.iter().enumerate() {
            let ops = &mut out[k % conns];
            let id = (k % conns) as u64 * 1_000_000 + ops.len() as u64;
            ops.push(Op {
                at,
                kind: OpKind::Query(q),
                phase,
                segment,
                line: query_line(id, &self.queries[q], w.deadline_ms(phase)),
            });
        }
        out
    }

    /// The update batches of `wire-evolving`: through every segment, gaps
    /// included.
    fn update_ops(&mut self, w: Workload, seed: u64, win: &Windows) -> Vec<Op> {
        let mut times = StdRng::seed_from_u64(sub_seed(seed, 30));
        let mut ops = Vec::new();
        let at = arrivals(&mut times, 0.0, win.end(), w.load().update_bps);
        let batches = update_stream(seed, &self.graph, at.len());
        for (at, batch) in at.into_iter().zip(batches) {
            let line = update_line(9_000_000 + ops.len() as u64, &batch);
            self.updates.push(batch);
            let segment = win.segment_of(at);
            let c = segment.map_or(0, |k| k + 1);
            let (a, b) = win.overload_segment(c);
            let phase = if (a..b).contains(&at) {
                Phase::Overload
            } else {
                Phase::Nominal
            };
            ops.push(Op {
                at,
                kind: OpKind::Update(self.updates.len() - 1),
                phase,
                segment,
                line,
            });
        }
        ops
    }
}

/// A seeded stream of update batches over `graph` (each batch applies
/// after the ones before it); the traced run feeds it to its replicas.
pub fn update_stream(seed: u64, graph: &Graph, batches: usize) -> Vec<Vec<GraphUpdate>> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 31));
    let mut nodes = graph.node_count() as NodeId;
    let labels = graph.label_count() as LabelId;
    (0..batches)
        .map(|_| update_batch(&mut rng, &mut nodes, labels))
        .collect()
}

/// Eight edge insertions between existing nodes, after appending a
/// node (wired to the first edge) once in [`NODE_EVERY`] batches.
fn update_batch(rng: &mut StdRng, nodes: &mut NodeId, labels: LabelId) -> Vec<GraphUpdate> {
    let mut batch = Vec::with_capacity(EDGES_PER_BATCH + 1);
    let grow = rng.gen_range(0..NODE_EVERY) == 0;
    if grow {
        batch.push(GraphUpdate::AddNode {
            label: rng.gen_range(0..labels),
        });
        *nodes += 1;
    }
    let n = *nodes;
    for i in 0..EDGES_PER_BATCH {
        let u = if grow && i == 0 {
            n - 1
        } else {
            rng.gen_range(0..n)
        };
        let mut v = rng.gen_range(0..n);
        if v == u {
            v = (v + 1) % n;
        }
        batch.push(GraphUpdate::AddEdge {
            u,
            v,
            label: psi_graph::UNLABELED_EDGE,
        });
    }
    batch
}

/// Arrival times of a Poisson stream at `rate` in `[from, to)`,
/// conditioned on its expected count: `round(rate × length)` uniform
/// points, sorted. Fixing the count keeps every window's request set
/// the same from run to run; the seed moves only when each arrives.
pub fn arrivals(rng: &mut StdRng, from: f64, to: f64, rate: f64) -> Vec<f64> {
    let n = (rate * (to - from)).round().max(0.0) as usize;
    let mut t: Vec<f64> = (0..n)
        .map(|_| from + rng.gen::<f64>() * (to - from))
        .collect();
    t.sort_by(f64::total_cmp);
    t
}

/// Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// An independent seed for one purpose (SplitMix64 finalizer).
fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The wire `query` line for `q`.
pub fn query_line(id: u64, q: &PivotedQuery, deadline_ms: Option<u64>) -> String {
    let g = q.graph();
    let labels: Vec<String> = g.labels().iter().map(|l| l.to_string()).collect();
    let edges: Vec<String> = g.edges().map(|(u, v, _)| format!("[{u},{v}]")).collect();
    let mut line = format!(
        "{{\"op\":\"query\",\"id\":{id},\"labels\":[{}],\"edges\":[{}],\"pivot\":{}",
        labels.join(","),
        edges.join(","),
        q.pivot()
    );
    if let Some(ms) = deadline_ms {
        line.push_str(&format!(",\"deadline_ms\":{ms}"));
    }
    line.push('}');
    line
}

/// The wire `update` line for one batch.
pub fn update_line(id: u64, batch: &[GraphUpdate]) -> String {
    let items: Vec<String> = batch
        .iter()
        .map(|u| match *u {
            GraphUpdate::AddNode { label } => format!("{{\"add_node\":{label}}}"),
            GraphUpdate::AddEdge { u, v, label } => format!("{{\"add_edge\":[{u},{v},{label}]}}"),
        })
        .collect();
    format!(
        "{{\"op\":\"update\",\"id\":{id},\"updates\":[{}]}}",
        items.join(",")
    )
}

/// 64-bit FNV-1a over the graph's labels and CSR adjacency.
pub fn graph_fingerprint(g: &Graph) -> u64 {
    let mut fp = Fnv::new();
    fp.u64(g.node_count() as u64);
    for &l in g.labels() {
        fp.u64(u64::from(l));
    }
    for n in g.node_ids() {
        fp.u64(g.degree(n) as u64);
        for (&v, &l) in g.neighbors(n).iter().zip(g.neighbor_edge_labels(n)) {
            fp.u64(u64::from(v) << 16 | u64::from(l));
        }
    }
    fp.finish()
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(b"\n");
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        let win = Windows::timed(4.0, false);
        let graph = psi_datasets::generators::erdos_renyi(400, 1600, 3, 5);
        let stream = |seed| {
            let inputs = Inputs::on_graph(Workload::WireEvolving, seed, &win, graph.clone());
            let mut bytes = Vec::new();
            for op in inputs.conns.iter().flatten() {
                bytes.extend_from_slice(&op.at.to_le_bytes());
                bytes.extend_from_slice(op.line.as_bytes());
            }
            (bytes, inputs.stream_fp)
        };
        let (a, fp_a) = stream(9);
        let (b, fp_b) = stream(9);
        let (c, fp_c) = stream(10);
        assert!(a.len() > 1000);
        assert_eq!(a, b);
        assert_eq!(fp_a, fp_b);
        assert_ne!(a, c);
        assert_ne!(fp_a, fp_c);
    }

    #[test]
    fn arrivals_fill_the_window_at_the_asked_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = arrivals(&mut rng, 1.0, 201.0, 50.0);
        assert_eq!(t.len(), 10_000);
        assert!(t.windows(2).all(|p| p[0] <= p[1]));
        assert!(t[0] >= 1.0 && *t.last().unwrap() < 201.0);
        // Gaps average 1/rate and spread like an exponential's.
        let gaps: Vec<f64> = t.windows(2).map(|p| p[1] - p[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.02).abs() < 0.001, "mean gap {mean}");
        let long = gaps.iter().filter(|&&g| g > 0.02).count() as f64 / gaps.len() as f64;
        assert!(
            (long - (-1.0f64).exp()).abs() < 0.02,
            "P(gap > mean) {long}"
        );
        let mut again = StdRng::seed_from_u64(3);
        assert_eq!(t, arrivals(&mut again, 1.0, 201.0, 50.0));
    }

    #[test]
    fn update_batches_only_touch_existing_nodes() {
        let graph = psi_datasets::generators::erdos_renyi(50, 100, 3, 5);
        let mut dynamic = psi_graph::DynamicGraph::from_graph(&graph);
        for batch in update_stream(4, &graph, 200) {
            dynamic
                .apply(&batch)
                .expect("every generated batch applies");
        }
        assert!(dynamic.node_count() > 50);
    }

    #[test]
    fn wire_lines_parse_back() {
        let graph = psi_datasets::generators::erdos_renyi(300, 1200, 3, 5);
        let q = rwr::extract_query_seeded(&graph, 5, 1).unwrap();
        let line = query_line(7, &q, Some(100));
        match psi_core::engine::proto::parse_request(&line) {
            Ok(psi_core::engine::Request::Query {
                id,
                query,
                deadline_ms,
            }) => {
                assert_eq!((id, deadline_ms), (7, Some(100)));
                assert_eq!(query.graph().labels(), q.graph().labels());
            }
            other => panic!("{other:?}"),
        }
        let batch = update_stream(1, &graph, 12).concat();
        match psi_core::engine::proto::parse_request(&update_line(3, &batch)) {
            Ok(psi_core::engine::Request::Update { id, updates }) => {
                assert_eq!((id, updates), (3, batch));
            }
            other => panic!("{other:?}"),
        }
    }
}
