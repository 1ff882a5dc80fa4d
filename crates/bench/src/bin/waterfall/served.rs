//! The served workloads: set-up, the open-loop TCP run against an
//! in-process `NetServer`, the answer checks, and the traced pass that
//! replays the same schedule in-process with a recorder per query.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use psi_core::engine::proto;
use psi_core::{
    EvalLimits, JobHandle, NetServer, PsiResult, PsiService, RunSpec, SmartPsi, UpdateReport,
};
use psi_graph::{DynamicGraph, GraphUpdate, PivotedQuery};
use psi_obs::{Counter, Histogram, MetricsRecorder, Phase, QueryProfile};

use crate::client::{self, ConnResult, Outcome};
use crate::inputs::{self, Inputs, OpKind, Phase as Window};
use crate::report::{peak_rss_mb, Report};
use crate::spec::{
    Windows, Workload, BATCH_THREADS, MAX_GEN_LAG_MS, MAX_QUEUE, REPLICA_BATCHES, SAMPLE,
    SETUP_REPS, WORKERS,
};
use crate::stats::{hist_quantile, median, percentile, percentile_unguarded, sorted};
use crate::trace::{self, evenly, Agg, SpanLog};

/// Poll interval of the in-process replay (matches the TCP client).
const POLL: Duration = Duration::from_micros(200);
/// How long a connection waits for answers after its last send.
const GRACE: Duration = Duration::from_secs(15);

/// A deployment ready to answer, with the set-up's timings (medians
/// over the repetitions).
pub struct Setup {
    pub smart: SmartPsi,
    pub server: Option<NetServer>,
    pub setup_s: f64,
    pub load_ms: f64,
    pub signature_ms: f64,
    pub deploy_ms: f64,
    /// Every set-up's seconds.
    pub totals: Vec<f64>,
}

impl Setup {
    /// Fold in the timings of a later burst of set-ups (and drop its
    /// deployment): the host's speed drifts over tens of seconds, so
    /// `setup_s` is the median over set-ups on both sides of the run.
    pub fn absorb(&mut self, later: Setup) {
        self.totals.extend(later.totals);
        self.setup_s = median(&self.totals);
    }
}

/// Set the workload up repeatedly (see [`SETUP_REPS`]) from the graph's
/// text form and keep the last: `psi_graph::io::read_graph`,
/// `SmartPsi::new`, and for served workloads `SmartPsi::deploy` plus
/// `NetServer::bind`.
pub fn setup(w: Workload, inputs: &Inputs, mut log: Option<&mut SpanLog>) -> Setup {
    let (min_reps, min_secs, max_reps) = SETUP_REPS;
    let (mut total, mut load, mut sig, mut deploy) = (vec![], vec![], vec![], vec![]);
    let mut last: Option<(SmartPsi, Option<NetServer>)> = None;
    while total.len() < min_reps || (total.iter().sum::<f64>() < min_secs && total.len() < max_reps)
    {
        // The previous repetition shuts down outside the timed span.
        drop(last.take());
        let t0 = Instant::now();
        let graph = psi_graph::io::read_graph(&inputs.bytes[..]).expect("generated text parses");
        let t1 = Instant::now();
        let smart = SmartPsi::new(graph, inputs.config.clone());
        let t2 = Instant::now();
        let server = w.served().then(|| {
            let service = smart.deploy(&w.deployment(&inputs.graph)).into_service();
            NetServer::bind(service, "127.0.0.1:0", w.net_config()).expect("bind loopback")
        });
        let t3 = Instant::now();
        let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
        let sig_s = smart.signature_build_time().as_secs_f64();
        total.push(secs(t0, t3));
        load.push(secs(t0, t1) * 1e3);
        sig.push(sig_s * 1e3);
        deploy.push((secs(t1, t3) - sig_s) * 1e3);
        if let Some(log) = log.as_deref_mut() {
            let root = log.record("setup", None, None, t0, t3);
            log.record("graph.load", Some(root), None, t0, t1);
            log.record("context.new", Some(root), None, t1, t2);
            log.record("deploy", Some(root), None, t2, t3);
        }
        last = Some((smart, server));
    }
    let (smart, server) = last.expect("at least one set-up");
    Setup {
        smart,
        server,
        setup_s: median(&total),
        load_ms: median(&load),
        signature_ms: median(&sig),
        deploy_ms: median(&deploy),
        totals: total,
    }
}

/// Record the set-up layers of a traced run.
pub fn setup_layers(r: &mut Report, s: &Setup) {
    r.metric("graph.load_ms", s.load_ms);
    r.metric("context.signature_build_ms", s.signature_ms);
    r.metric("context.deploy_ms", s.deploy_ms);
    r.metric(
        "signature.index_bytes",
        s.smart.signatures().index_bytes() as f64,
    );
}

/// The TCP run's raw results.
struct Tcp {
    conns: Vec<ConnResult>,
    /// Front-door `(Admitted, Shed)` at the end of the run.
    admitted_shed: (u64, u64),
    net_write_ns: u64,
    /// `(due, ms late)` of a bare sleeper beside the clients.
    host_lag: Vec<(f64, f64)>,
}

fn tcp_run(inputs: &Inputs, server: &NetServer) -> Tcp {
    let addr = server.local_addr();
    let t0 = Instant::now() + Duration::from_millis(20);
    let end = inputs
        .conns
        .iter()
        .flatten()
        .map(|op| op.at)
        .fold(0.0, f64::max);
    let (conns, host_lag) = std::thread::scope(|s| {
        let host = s.spawn(move || client::host_lag(t0, end));
        let clients: Vec<_> = inputs
            .conns
            .iter()
            .map(|ops| s.spawn(move || client::drive(addr, ops, t0, GRACE)))
            .collect();
        let conns = clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect();
        (conns, host.join().expect("sleeper thread"))
    });
    let m = server.metrics();
    Tcp {
        host_lag,
        conns,
        admitted_shed: (m.counter(Counter::Admitted), m.counter(Counter::Shed)),
        net_write_ns: m.phase_nanos(Phase::NetWrite),
    }
}

/// Latencies and outcome counts of a TCP run.
struct Scored {
    /// Per segment: latencies of nominal queries (failed ones infinite).
    nominal_ms: Vec<Vec<f64>>,
    update_ms: Vec<f64>,
    /// Per segment: overload queries answered ok within the limit.
    good_overload: Vec<u64>,
    /// How late the client sent each measured nominal request. Overload
    /// segments saturate both cores on purpose, so they are left out.
    lag_ms: Vec<f64>,
    /// `(query index, response line)` of nominal-window answers.
    answers: Vec<(usize, String)>,
    /// Update batches answered ok, in send order.
    applied: Vec<usize>,
    peak_rss_mb: f64,
}

fn score(w: Workload, inputs: &Inputs, win: &Windows, tcp: &Tcp, r: &mut Report) -> Scored {
    let limit_s = w.load().limit_ms as f64 / 1e3;
    let mut s = Scored {
        nominal_ms: vec![Vec::new(); win.cycles],
        update_ms: vec![],
        good_overload: vec![0; win.cycles],
        lag_ms: vec![],
        answers: vec![],
        applied: vec![],
        peak_rss_mb: f64::NAN,
    };
    for (ops, conn) in inputs.conns.iter().zip(&tcp.conns) {
        for (i, op) in ops.iter().enumerate() {
            r.attempted += 1;
            let Some(reply) = conn.replies.get(i) else {
                *r.outcomes.entry(Outcome::Io).or_default() += 1;
                r.failed += 1;
                continue;
            };
            if op.phase == Window::Nominal && op.segment.is_some() {
                s.lag_ms.push((reply.sent - op.at).max(0.0) * 1e3);
            }
            let outcome = reply.outcome(conn.io_failed);
            *r.outcomes.entry(outcome).or_default() += 1;
            let expected_degradation = op.phase == Window::Overload
                && matches!(outcome, Outcome::Shed | Outcome::Deadline);
            if outcome != Outcome::Ok && !expected_degradation {
                r.failed += 1;
            }
            let ok_ms = (outcome == Outcome::Ok)
                .then(|| reply.latency(op.at))
                .flatten()
                .map(|l| l * 1e3);
            if let (OpKind::Update(b), Some(_)) = (op.kind, ok_ms) {
                s.applied.push(b);
            }
            let Some(k) = op.segment else {
                continue; // the warm-up cycle is not measured
            };
            match (op.kind, op.phase) {
                (OpKind::Query(q), Window::Nominal) => {
                    s.nominal_ms[k].push(ok_ms.unwrap_or(f64::INFINITY));
                    if let (Some(_), Some((_, line))) = (ok_ms, &reply.done) {
                        s.answers.push((q, line.clone()));
                    }
                }
                (OpKind::Query(_), Window::Overload) => {
                    if ok_ms.is_some_and(|ms| ms <= limit_s * 1e3) {
                        s.good_overload[k] += 1;
                    }
                }
                (OpKind::Update(_), Window::Nominal) => {
                    s.update_ms.push(ok_ms.unwrap_or(f64::INFINITY));
                }
                (OpKind::Update(_), Window::Overload) => {}
            }
        }
    }
    s
}

fn parse_valid(line: &str) -> Option<Vec<u32>> {
    let json = proto::parse_json(line).ok()?;
    json.get("valid")?
        .as_arr()?
        .iter()
        .map(|v| v.as_u64().map(|n| n as u32))
        .collect()
}

/// Compare wire answers against `reference` answers of the same query
/// indices; returns the number checked or the first mismatch.
fn check_wire(
    answers: &[(usize, &str)],
    reference: &BTreeMap<usize, Vec<u32>>,
) -> Result<usize, String> {
    for (q, line) in answers {
        let got = parse_valid(line).ok_or_else(|| format!("unparsable answer {line}"))?;
        if reference.get(q) != Some(&got) {
            return Err(format!(
                "query {q}: wire answer differs from the reference engine"
            ));
        }
    }
    Ok(answers.len())
}

/// Evenly spaced nominal answers, at most [`SAMPLE`].
fn sample_answers(s: &Scored) -> Vec<(usize, &str)> {
    evenly(s.answers.len(), SAMPLE)
        .into_iter()
        .map(|i| (s.answers[i].0, s.answers[i].1.as_str()))
        .collect()
}

/// `wire-evolving`'s check: after the update stream drained, fresh
/// queries over the wire must answer like an engine built cold on the
/// final graph. Returns that engine for the traced pass's sample.
fn post_drain_check(inputs: &Inputs, server: &NetServer, s: &Scored, r: &mut Report) -> SmartPsi {
    let lines: Vec<String> = inputs
        .post_drain
        .iter()
        .enumerate()
        .map(|(i, &q)| inputs::query_line(8_000_000 + i as u64, &inputs.queries[q], None))
        .collect();
    let responses = client::closed_loop(server.local_addr(), &lines).unwrap_or_default();
    let mut graph = DynamicGraph::from_graph(&inputs.graph);
    for &b in &s.applied {
        graph
            .apply(&inputs.updates[b])
            .expect("the server applied this batch");
    }
    let cold = SmartPsi::new(graph.snapshot(), inputs.config.clone());
    let reference: BTreeMap<usize, Vec<u32>> = inputs
        .post_drain
        .iter()
        .map(|&q| (q, cold.run(&inputs.queries[q], &RunSpec::new()).valid))
        .collect();
    let answers: Vec<(usize, &str)> = inputs
        .post_drain
        .iter()
        .copied()
        .zip(responses.iter().map(String::as_str))
        .collect();
    if answers.len() < inputs.post_drain.len() {
        r.problems.push("post-drain queries went unanswered".into());
        r.correct = false;
    }
    if let Err(e) = check_wire(&answers, &reference) {
        r.problems.push(format!("post-drain: {e}"));
        r.correct = false;
    }
    cold
}

/// The common part of both passes: set up, run the TCP schedule, score
/// it and check answers. Returns what the traced pass builds on.
struct Served {
    setup: Setup,
    tcp: Tcp,
    scored: Scored,
    /// The engine answers were checked against: built cold on the base
    /// graph, or for `wire-evolving` on the final graph.
    reference: SmartPsi,
}

fn serve(
    w: Workload,
    inputs: &Inputs,
    win: &Windows,
    gates: bool,
    log: Option<&mut SpanLog>,
    r: &mut Report,
) -> Served {
    let mut first = client::at_server_priority(|| setup(w, inputs, log));
    let server = first.server.take().expect("served workloads bind a server");
    let tcp = tcp_run(inputs, &server);
    let mut scored = score(w, inputs, win, &tcp, r);
    r.correct = true;
    // Peak memory is read before any reference engine exists.
    scored.peak_rss_mb = peak_rss_mb();
    let reference = if w == Workload::WireEvolving {
        let cold = post_drain_check(inputs, &server, &scored, r);
        r.note("answers_checked", "count", inputs.post_drain.len() as f64);
        cold
    } else {
        let engine = SmartPsi::new(inputs.graph.clone(), inputs.config.clone());
        let picked = sample_answers(&scored);
        let answers: BTreeMap<usize, Vec<u32>> = picked
            .iter()
            .map(|&(q, _)| (q, engine.run(&inputs.queries[q], &RunSpec::new()).valid))
            .collect();
        match check_wire(&picked, &answers) {
            Ok(n) => r.note("answers_checked", "count", n as f64),
            Err(e) => {
                r.problems.push(e);
                r.correct = false;
            }
        }
        engine
    };
    let mut server = server;
    server.shutdown(Duration::from_secs(5));
    first.absorb(client::at_server_priority(|| setup(w, inputs, None)));
    let lag = sorted(scored.lag_ms.clone());
    let lag_p99 = percentile_unguarded(&lag, 0.99).unwrap_or(0.0);
    let host = tcp
        .host_lag
        .iter()
        .filter(|(at, _)| win.in_measured_nominal(*at));
    let host = sorted(host.map(|&(_, ms)| ms).collect());
    let host_p99 = percentile_unguarded(&host, 0.99).unwrap_or(0.0);
    r.note("client.gen_lag_p99_ms", "ms", lag_p99);
    r.note("client.host_lag_p99_ms", "ms", host_p99);
    if gates && lag_p99 - host_p99 > MAX_GEN_LAG_MS {
        r.problems.push(format!(
            "the load generator ran {lag_p99:.2} ms late at p99, {:.2} ms more than a bare \
             sleeper (limit {MAX_GEN_LAG_MS} ms)",
            lag_p99 - host_p99
        ));
    }
    Served {
        setup: first,
        tcp,
        scored,
        reference,
    }
}

/// The timed pass: end-to-end metrics over TCP.
pub fn timed(w: Workload, inputs: &Inputs, win: &Windows, gates: bool) -> Report {
    let mut r = Report::default();
    let sv = serve(w, inputs, win, gates, None, &mut r);
    let pooled = sorted(sv.scored.nominal_ms.concat());
    let p50 = r.latency_pct("query latency", &pooled, 0.5, gates);
    let p90 = r.latency_pct("query latency", &pooled, 0.9, gates);
    r.metric("setup_s", sv.setup.setup_s);
    r.metric("query_p50_ms", p50);
    r.metric("query_p90_ms", p90);
    let goodput: Vec<f64> = sv
        .scored
        .good_overload
        .iter()
        .map(|&n| n as f64 / win.overload)
        .collect();
    r.metric("goodput_qps", median(&goodput));
    r.metric("peak_rss_mb", sv.scored.peak_rss_mb);
    r.note("query_samples", "count", pooled.len() as f64);
    if let Some(p99) = percentile(&pooled, 0.99) {
        r.note("query_p99_ms", "ms", p99);
    }
    let updates = sorted(sv.scored.update_ms.clone());
    for (name, q) in [("update_p50_ms", 0.5), ("update_p90_ms", 0.9)] {
        if let Some(v) = percentile(&updates, q) {
            r.note(name, "ms", v);
        }
    }
    r
}

/// One query of the in-process replay.
#[derive(Clone, Copy)]
struct Item {
    due: f64,
    query: usize,
    id: u64,
    /// Overload items are shed, as the front door would, when the
    /// service queue is at its cap, and carry the latency limit as
    /// their deadline.
    phase: Window,
}

/// One replayed query that ran.
struct Traced {
    item: Item,
    submitted: f64,
    done: f64,
    result: PsiResult,
}

/// One in-process update: `(start, end)` seconds and its report.
type Applied = (f64, f64, UpdateReport);

/// Replay `items` and `updates` (`(due, batch)`) against `service` at
/// their due times: one thread submits and polls its handles without
/// blocking, another applies the updates as a connection's reader
/// would. Returns the queries that ran, the updates, and the number of
/// overload queries shed.
fn replay(
    service: &PsiService,
    queries: &[PivotedQuery],
    items: &[Item],
    updates: &[(f64, &[GraphUpdate])],
    limit: Duration,
    t0: Instant,
) -> (Vec<Traced>, Vec<Applied>, usize) {
    let since = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
    let wait_until = |due: f64| {
        let at = t0 + Duration::from_secs_f64(due);
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
    };
    std::thread::scope(|s| {
        let updater = s.spawn(|| {
            updates
                .iter()
                .map(|&(due, batch)| {
                    wait_until(due);
                    let start = Instant::now();
                    let report = service
                        .apply_update(batch)
                        .expect("generated batches apply");
                    (since(start), since(Instant::now()), report)
                })
                .collect::<Vec<_>>()
        });
        let mut pending: Vec<(Item, f64, JobHandle)> = Vec::new();
        let mut done = Vec::with_capacity(items.len());
        let (mut next, mut shed) = (0, 0);
        while next < items.len() || !pending.is_empty() {
            let now = Instant::now();
            let mut i = 0;
            while i < pending.len() {
                if pending[i].2.is_finished() {
                    let (item, submitted, h) = pending.swap_remove(i);
                    let result = h.wait();
                    done.push(Traced {
                        item,
                        submitted,
                        done: since(now),
                        result,
                    });
                } else {
                    i += 1;
                }
            }
            if next < items.len() && items[next].due <= since(Instant::now()) {
                let item = items[next];
                next += 1;
                let overload = item.phase == Window::Overload;
                if overload && service.pending() >= MAX_QUEUE {
                    shed += 1;
                    continue;
                }
                let submitted = Instant::now();
                let mut spec = RunSpec::new().recorder(Arc::new(MetricsRecorder::new()));
                if overload {
                    spec = spec.limits(EvalLimits::unlimited().with_deadline(submitted + limit));
                }
                let h = service.submit(queries[item.query].clone(), spec);
                pending.push((item, since(submitted), h));
                continue;
            }
            let until_next = items.get(next).map_or(POLL, |it| {
                Duration::from_secs_f64((it.due - since(Instant::now())).max(0.0))
            });
            std::thread::sleep(until_next.min(POLL));
        }
        done.sort_by_key(|t| t.item.id);
        (done, updater.join().expect("updater thread"), shed)
    })
}

/// The traced pass: the TCP run (front-door counters, TCP latency),
/// then an in-process replay of the same schedule with a recorder per
/// query, then the reference sample and the replicas.
pub fn traced(
    w: Workload,
    seed: u64,
    inputs: &Inputs,
    win: &Windows,
    gates: bool,
    log: &mut SpanLog,
) -> Report {
    let mut r = Report::default();
    let sv = serve(w, inputs, win, gates, Some(log), &mut r);
    setup_layers(&mut r, &sv.setup);
    let tcp_p50 =
        percentile_unguarded(&sorted(sv.scored.nominal_ms.concat()), 0.5).unwrap_or(f64::NAN);
    let (admitted, shed) = sv.tcp.admitted_shed;
    r.metric(
        "net.shed_frac",
        shed as f64 / ((admitted + shed) as f64).max(1.0),
    );
    let responses: usize = sv
        .tcp
        .conns
        .iter()
        .map(|c| c.replies.iter().filter(|x| x.done.is_some()).count())
        .sum();
    r.metric(
        "net.write_us_per_resp",
        sv.tcp.net_write_ns as f64 / responses.max(1) as f64 / 1e3,
    );

    // The in-process replay of the whole schedule. Overload segments
    // keep their bursts, which keep the host's cores as busy as in the
    // TCP run; the queue cap stands in for the front door's shedding.
    let service = client::at_server_priority(|| {
        sv.setup
            .smart
            .deploy(&w.deployment(&inputs.graph))
            .into_service()
    });
    let mut items: Vec<Item> = Vec::new();
    let mut updates: Vec<(f64, &[GraphUpdate])> = Vec::new();
    for ops in &inputs.conns {
        for op in ops {
            match op.kind {
                OpKind::Query(query) => items.push(Item {
                    due: op.at,
                    query,
                    id: 0,
                    phase: op.phase,
                }),
                OpKind::Update(b) => updates.push((op.at, &inputs.updates[b])),
            }
        }
    }
    // Replayed requests are numbered in due order.
    items.sort_by(|a, b| a.due.total_cmp(&b.due));
    for (k, it) in items.iter_mut().enumerate() {
        it.id = k as u64;
    }
    let limit = Duration::from_millis(w.load().limit_ms);
    let t0 = Instant::now() + Duration::from_millis(20);
    let t_replay = Instant::now();
    let (done, applied, replay_shed) =
        replay(&service, &inputs.queries, &items, &updates, limit, t0);
    let replay_s = t_replay.elapsed().as_secs_f64();
    let stats = service.stats();
    let queue_wait = service.metrics().histogram(Histogram::QueueWait);
    drop(service);
    r.note("replay_shed", "count", replay_shed as f64);

    // Spans, per-layer aggregation, and the in-process latencies of the
    // nominal segments. Jobs answered without running (deadline expired
    // in the queue) carry no profile.
    let base = log.ns(t0);
    let at = |s: f64| base + (s * 1e9) as u64;
    let mut agg = Agg::default();
    let (mut e2e_ms, mut unattributed, mut busy_ns) = (vec![], vec![], 0.0);
    let mut parse_ns = 0u128;
    let mut serialize_ns = 0u128;
    let ran: Vec<(&Traced, &QueryProfile)> = done
        .iter()
        .filter_map(|t| Some((t, t.result.profile.as_deref()?)))
        .collect();
    for &(t, p) in &ran {
        let id = t.item.id;
        agg.add(p);
        let wall = p.total_wall_ns as f64;
        busy_ns += wall;
        if t.item.phase == Window::Nominal {
            let e2e = (t.done - t.submitted) * 1e9;
            e2e_ms.push((t.done - t.item.due) * 1e3);
            unattributed.push((wall - trace::attributed_ns(p, 1)) / e2e.max(1.0));
        }
        let root = log.push("request", None, Some(id), at(t.item.due), at(t.done), false);
        log.push(
            "client.submit_lag",
            Some(root),
            Some(id),
            at(t.item.due),
            at(t.submitted),
            false,
        );
        let run_start = at(t.done).saturating_sub(p.total_wall_ns);
        log.push(
            "service.queue",
            Some(root),
            Some(id),
            at(t.submitted),
            run_start,
            false,
        );
        let run = log.push(
            "engine.run",
            Some(root),
            Some(id),
            run_start,
            at(t.done),
            false,
        );
        log.phases(run, id, run_start, p);
        let line = inputs::query_line(
            id,
            &inputs.queries[t.item.query],
            w.deadline_ms(t.item.phase),
        );
        let t_parse = Instant::now();
        let parsed = proto::parse_request(&line);
        let t_mid = Instant::now();
        let out = proto::query_result_line(id, &t.result);
        let t_end = Instant::now();
        assert!(parsed.is_ok() && !out.is_empty());
        parse_ns += (t_mid - t_parse).as_nanos();
        serialize_ns += (t_end - t_mid).as_nanos();
        log.record("proto.parse", None, Some(id), t_parse, t_mid);
        log.record("proto.serialize", None, Some(id), t_mid, t_end);
    }
    for (start, end, _) in &applied {
        log.push(
            "evolve.apply_update",
            None,
            None,
            at(*start),
            at(*end),
            false,
        );
    }
    let n = ran.len().max(1) as f64;
    let e2e = sorted(e2e_ms);
    let inproc_p50 = percentile_unguarded(&e2e, 0.5).unwrap_or(f64::NAN);
    r.metric("net.parse_us", parse_ns as f64 / n / 1e3);
    r.metric("net.serialize_us", serialize_ns as f64 / n / 1e3);
    r.metric("net.wire_ms_p50", tcp_p50 - inproc_p50);
    let qw = |q| hist_quantile(&queue_wait, q).unwrap_or(0.0) / 1e6;
    r.metric("service.queue_wait_p50_ms", qw(0.5));
    r.metric("service.queue_wait_p99_ms", qw(0.99));
    r.metric(
        "service.busy_frac",
        busy_ns / 1e9 / (WORKERS as f64 * replay_s),
    );
    r.metric(
        "cache.cross_query_hits",
        stats.cross_query_cache_hits as f64,
    );
    r.metric("cache.invalidations", stats.cache_invalidations as f64);
    agg.report(&mut r);
    r.metric("trace.e2e_p50_ms", inproc_p50);
    r.metric("trace.unattributed_frac", median(&unattributed));
    r.note("tcp_query_p50_ms", "ms", tcp_p50);

    // The reference sample: answers, tracing overhead, speed-up. The
    // replayed answers of `wire-evolving` ran on moving snapshots, so
    // its sample is the post-drain set on the final graph.
    let evolving = w == Workload::WireEvolving;
    let answered: Vec<&Traced> = done
        .iter()
        .filter(|t| t.result.unresolved == 0 && t.result.failures.nodes.is_empty())
        .collect();
    let picked: Vec<usize> = if evolving {
        inputs.post_drain.clone()
    } else {
        evenly(answered.len(), SAMPLE)
            .into_iter()
            .map(|i| answered[i].item.query)
            .collect()
    };
    let queries: Vec<&PivotedQuery> = picked.iter().map(|&q| &inputs.queries[q]).collect();
    let sample = trace::sample_runs(&sv.reference, &queries, BATCH_THREADS);
    if !evolving {
        let reference: BTreeMap<usize, &Vec<u32>> = picked
            .iter()
            .copied()
            .zip(sample.answers.iter().map(|a| &a.valid))
            .collect();
        let mismatch = answered.iter().find(|t| {
            reference
                .get(&t.item.query)
                .is_some_and(|v| **v != t.result.valid)
        });
        if let Some(t) = mismatch {
            r.problems.push(format!(
                "replayed query {} differs from the reference engine",
                t.item.query
            ));
            r.correct = false;
        }
    }
    r.metric("exec.parallel_speedup", sample.speedup);
    r.metric("trace.overhead_pct", sample.overhead_pct);

    // The evolve and signature layers.
    if w == Workload::WireEvolving {
        let apply_ms = applied.iter().map(|(s, e, _)| (e - s) * 1e3).collect();
        let rows = applied
            .iter()
            .map(|(_, _, u)| u.rows_repaired as f64)
            .collect();
        let batches: Vec<Vec<GraphUpdate>> = updates
            .iter()
            .take(REPLICA_BATCHES)
            .map(|(_, b)| b.to_vec())
            .collect();
        trace::evolve_layers(
            &mut r,
            log,
            &inputs.graph,
            &inputs.config,
            &batches,
            Some((apply_ms, rows)),
        );
    } else {
        let batches = inputs::update_stream(seed, &inputs.graph, REPLICA_BATCHES);
        trace::evolve_layers(&mut r, log, &inputs.graph, &inputs.config, &batches, None);
    }
    r
}
