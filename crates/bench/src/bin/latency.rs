//! Latency bench — the network front door under saturation, overload,
//! and chaos. Writes `BENCH_latency.json`.
//!
//! PR 7's robustness claim: admission control turns overload from a
//! latency catastrophe into bounded-latency service plus fast,
//! actionable sheds. Three phases against a live [`NetServer`] on a
//! loopback socket:
//!
//! 1. **Saturation probe** — closed-loop clients (one outstanding
//!    request each) measure the deployment's ceiling in jobs/sec.
//! 2. **Open-loop offered load** at 0.5×/1×/2× the measured ceiling —
//!    paced senders that do NOT wait for responses, the regime where
//!    an unprotected queue grows without bound. Per level: p50/p99
//!    client-observed latency of *admitted* jobs, jobs/sec answered,
//!    and the shed rate.
//! 3. **Chaos + drain zero-loss run** — seeded clients pipeline a mix
//!    of normal queries, already-expired deadlines, and malformed
//!    lines, then the server is drained mid-stream. In-order response
//!    ids must form an exact prefix of each connection's request ids:
//!    every request the server read got exactly one answer (result or
//!    structured failure) — nothing lost, duplicated, or reordered.
//!
//! The run *asserts* (slack via `PSI_LATENCY_SLACK`, default 3.0)
//! that at 2× saturation the p99 of admitted jobs stays under the
//! queue-depth bound `(max_queue + workers) / saturation_rate` ×
//! slack — the whole point of shedding — that every shed response
//! carries a `retry_after_ms` hint, and that the chaos run loses
//! nothing. `ci.sh` fails if the front door ever regresses into
//! unbounded queueing or silent drops.
//!
//! [`NetServer`]: psi_core::NetServer

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use psi_bench::{slack, write_bench_json};
use psi_core::{DeploymentSpec, NetServer, NetServerConfig, SmartPsi, SmartPsiConfig};
use psi_datasets::{generators, QueryWorkload};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Worker pool size behind the front door.
const WORKERS: usize = 2;
/// Queue-depth shed ceiling — the latency bound under overload.
const MAX_QUEUE: usize = 32;
/// Closed-loop clients for the saturation probe.
const PROBE_CLIENTS: usize = 8;
/// Open-loop sender connections per load level.
const SENDERS: usize = 4;
/// Seconds of measurement per phase/level.
const LEVEL_SECS: f64 = 1.5;

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

/// `"id":N` (or `"id":null` → `None`) from a response line.
fn response_id(line: &str) -> Option<u64> {
    let rest = &line[line.find("\"id\":")? + 5..];
    if rest.starts_with("null") {
        return None;
    }
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One query shape on the wire: node labels, edges, pivot.
type Shape = (Vec<u16>, Vec<(u32, u32)>, u32);

/// One wire query line for the i-th shape in the workload.
fn query_line(id: u64, shapes: &[Shape], i: usize) -> String {
    let (labels, edges, pivot) = &shapes[i % shapes.len()];
    let labels: Vec<String> = labels.iter().map(|l| l.to_string()).collect();
    let edges: Vec<String> = edges.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
    format!(
        "{{\"op\":\"query\",\"id\":{id},\"labels\":[{}],\"edges\":[{}],\"pivot\":{pivot}}}",
        labels.join(","),
        edges.join(",")
    )
}

fn bind_server() -> (NetServer, Vec<Shape>) {
    let g = generators::erdos_renyi(2_000, 8_000, 3, 7);
    let cfg = SmartPsiConfig {
        min_candidates_for_ml: 10,
        ..SmartPsiConfig::default()
    };
    let mut shapes = Vec::new();
    for size in 4..=5usize {
        if let Some(w) = QueryWorkload::extract(&g, size, 4, 100 + size as u64) {
            for q in &w.queries {
                let qg = q.graph();
                let labels: Vec<u16> = (0..qg.node_count()).map(|n| qg.label(n as u32)).collect();
                let edges: Vec<(u32, u32)> = qg.edges().map(|(u, v, _)| (u, v)).collect();
                shapes.push((labels, edges, q.pivot()));
            }
        }
    }
    assert!(shapes.len() >= 6, "need a shape mix, got {}", shapes.len());
    let capacity = g.label_count();
    let service =
        SmartPsi::new(g, cfg).deploy(&DeploymentSpec::new().workers(WORKERS).evolving(capacity));
    let net_cfg = NetServerConfig {
        max_queue: MAX_QUEUE,
        ..NetServerConfig::default()
    };
    let server = NetServer::bind(service, "127.0.0.1:0", net_cfg).expect("bind loopback");
    (server, shapes)
}

fn connect(server: &NetServer) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// Phase 1: closed-loop ceiling in jobs/sec.
fn saturation_probe(server: &NetServer, shapes: &[Shape]) -> f64 {
    let answered = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(LEVEL_SECS);
    std::thread::scope(|scope| {
        for c in 0..PROBE_CLIENTS {
            let answered = Arc::clone(&answered);
            let (mut stream, mut reader) = connect(server);
            scope.spawn(move || {
                let mut id = 0u64;
                let mut line = String::new();
                while Instant::now() < deadline {
                    let mut req = query_line(id, shapes, c + id as usize);
                    req.push('\n');
                    stream.write_all(req.as_bytes()).expect("write");
                    line.clear();
                    reader.read_line(&mut line).expect("read");
                    assert!(line.contains("\"ok\":true"), "probe shed unexpectedly: {line}");
                    answered.fetch_add(1, Ordering::Relaxed);
                    id += 1;
                }
            });
        }
    });
    answered.load(Ordering::Relaxed) as f64 / t0.elapsed().as_secs_f64()
}

struct LevelOutcome {
    offered_mult: f64,
    sent: u64,
    admitted: u64,
    shed: u64,
    p50_ms: f64,
    p99_ms: f64,
    answered_per_sec: f64,
}

/// Phase 2: one open-loop level at `mult` × the saturation rate.
fn open_loop_level(server: &NetServer, shapes: &[Shape], sat_jps: f64, mult: f64) -> LevelOutcome {
    let per_sender_rate = sat_jps * mult / SENDERS as f64;
    let interval = Duration::from_secs_f64(1.0 / per_sender_rate.max(1.0));
    let latencies = Mutex::new(Vec::<f64>::new());
    let shed = AtomicU64::new(0);
    let sent_total = AtomicU64::new(0);
    let t0 = Instant::now();

    std::thread::scope(|scope| {
        for c in 0..SENDERS {
            let (mut stream, mut reader) = connect(server);
            let latencies = &latencies;
            let shed = &shed;
            let sent_total = &sent_total;
            scope.spawn(move || {
                // Sender half: absolute-schedule pacing (bursts catch
                // up, average rate holds); receiver inline after the
                // send window closes would overflow kernel buffers, so
                // responses are drained by a paired thread.
                let send_times = Arc::new(Mutex::new(Vec::<Instant>::new()));
                let stop = Arc::new(AtomicU64::new(0));
                let reader_times = Arc::clone(&send_times);
                let reader_stop = Arc::clone(&stop);
                // A short poll timeout lets the collector re-check the
                // stop target after the sender's final response has
                // already been consumed (otherwise it would park in
                // read_line with nothing left in flight).
                reader
                    .get_ref()
                    .set_read_timeout(Some(Duration::from_millis(100)))
                    .expect("poll timeout");
                let collector = std::thread::spawn({
                    let mut got = 0u64;
                    let mut local_lat = Vec::new();
                    let mut local_shed = 0u64;
                    move || {
                        let mut line = String::new();
                        loop {
                            let target = reader_stop.load(Ordering::Acquire);
                            if target != 0 && got == target {
                                break;
                            }
                            // On a poll timeout any partial bytes stay
                            // in `line` and the next read_line call
                            // appends the rest of the response.
                            match reader.read_line(&mut line) {
                                Ok(0) => panic!("server closed mid-level"),
                                Ok(_) => {}
                                Err(e)
                                    if e.kind() == std::io::ErrorKind::WouldBlock
                                        || e.kind() == std::io::ErrorKind::TimedOut =>
                                {
                                    continue;
                                }
                                Err(e) => panic!("read failed: {e}"),
                            }
                            let now = Instant::now();
                            let id = response_id(&line).expect("response id") as usize;
                            let sent_at = reader_times.lock().unwrap()[id];
                            if line.contains("\"ok\":true") {
                                local_lat.push((now - sent_at).as_secs_f64() * 1e3);
                            } else {
                                assert!(
                                    line.contains("\"error\":\"shed\""),
                                    "unexpected failure: {line}"
                                );
                                assert!(
                                    line.contains("\"retry_after_ms\":"),
                                    "shed without retry hint: {line}"
                                );
                                local_shed += 1;
                            }
                            line.clear();
                            got += 1;
                        }
                        (local_lat, local_shed)
                    }
                });

                let level_end = t0 + Duration::from_secs_f64(LEVEL_SECS);
                let mut next = Instant::now();
                let mut id = 0u64;
                while Instant::now() < level_end {
                    let mut req = query_line(id, shapes, c + id as usize);
                    req.push('\n');
                    send_times.lock().unwrap().push(Instant::now());
                    stream.write_all(req.as_bytes()).expect("write");
                    id += 1;
                    next += interval;
                    let now = Instant::now();
                    if next > now {
                        std::thread::sleep(next - now);
                    }
                }
                assert!(id > 0, "the level window always fits one send");
                sent_total.fetch_add(id, Ordering::Relaxed);
                stop.store(id, Ordering::Release);
                let (local_lat, local_shed) = collector.join().expect("collector");
                latencies.lock().unwrap().extend(local_lat);
                shed.fetch_add(local_shed, Ordering::Relaxed);
            });
        }
    });

    let elapsed = t0.elapsed().as_secs_f64();
    let mut lat = latencies.into_inner().unwrap();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let shed = shed.into_inner();
    let sent = sent_total.into_inner();
    LevelOutcome {
        offered_mult: mult,
        sent,
        admitted: lat.len() as u64,
        shed,
        p50_ms: percentile(&lat, 0.50),
        p99_ms: percentile(&lat, 0.99),
        answered_per_sec: (lat.len() as u64 + shed) as f64 / elapsed,
    }
}

/// Phase 3: seeded chaos + mid-stream drain; returns
/// `(requests_answered, aborted_like_failures)` after proving the
/// prefix property on every connection.
fn chaos_drain_zero_loss(seed: u64) -> (u64, u64) {
    let (mut server, shapes) = bind_server();
    const CONNS: usize = 4;
    const REQS: usize = 120;

    let answered = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for c in 0..CONNS {
            let (mut stream, mut reader) = connect(&server);
            let shapes = &shapes;
            let answered = &answered;
            let failures = &failures;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ c as u64);
                // Expected in-order response ids: Some(id) for real
                // requests, None for garbage lines (answered with
                // "id":null).
                let mut expected: Vec<Option<u64>> = Vec::new();
                for id in 0..REQS as u64 {
                    let roll: f64 = rng.gen();
                    let line = if roll < 0.70 {
                        expected.push(Some(id));
                        query_line(id, shapes, c + id as usize)
                    } else if roll < 0.80 {
                        expected.push(Some(id));
                        let mut q = query_line(id, shapes, c + id as usize);
                        q.truncate(q.len() - 1);
                        q.push_str(",\"deadline_ms\":0}");
                        q
                    } else if roll < 0.90 {
                        expected.push(None);
                        format!("chaff {} not json", rng.gen::<u32>())
                    } else {
                        expected.push(Some(id));
                        format!("{{\"op\":\"stats\",\"id\":{id}}}")
                    };
                    // Writes may start failing once the drain lands;
                    // anything unread by the server was never accepted.
                    let mut line = line;
                    line.push('\n');
                    if stream.write_all(line.as_bytes()).is_err() {
                        expected.pop();
                        break;
                    }
                }
                let _ = stream.flush();

                // The zero-loss proof: responses arrive in order, one
                // per read request, forming an exact prefix.
                let mut got = 0usize;
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                    assert!(got < expected.len(), "conn {c}: extra response {line}");
                    assert_eq!(
                        response_id(&line),
                        expected[got],
                        "conn {c}: response {got} out of order: {line}"
                    );
                    if line.contains("\"ok\":true") {
                        answered.fetch_add(1, Ordering::Relaxed);
                    } else {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                    got += 1;
                }
            });
        }

        // Let the streams collide with the drain mid-flight.
        std::thread::sleep(Duration::from_millis(30));
        let (mut ctl, mut ctl_reader) = connect(&server);
        ctl.write_all(b"{\"op\":\"shutdown\",\"id\":9000,\"grace_ms\":2000}\n")
            .expect("shutdown write");
        let mut line = String::new();
        ctl_reader.read_line(&mut line).expect("drain report");
        assert!(line.contains("\"drained\":"), "{line}");
    });

    let report = server.wait();
    eprintln!(
        "[latency] chaos drain: {} ok, {} structured failures, report {report:?}",
        answered.load(Ordering::Relaxed),
        failures.load(Ordering::Relaxed)
    );
    (
        answered.load(Ordering::Relaxed),
        failures.load(Ordering::Relaxed),
    )
}

fn main() {
    let slack = slack("PSI_LATENCY_SLACK", 3.0);

    let (mut server, shapes) = bind_server();
    eprintln!(
        "[latency] front door on {} ({} workers, queue cap {})",
        server.local_addr(),
        WORKERS,
        MAX_QUEUE
    );

    // First pass warms the cross-query prediction cache (service time
    // keeps dropping until repeated shapes hit it), second pass is the
    // steady-state ceiling the offered-load levels are scaled from.
    let cold_jps = saturation_probe(&server, &shapes);
    let sat_jps = saturation_probe(&server, &shapes);
    eprintln!(
        "[latency] saturation ≈ {sat_jps:.0} jobs/s steady state ({cold_jps:.0} cold, \
         closed loop, {PROBE_CLIENTS} clients)"
    );
    assert!(sat_jps > 50.0, "deployment too slow to bench: {sat_jps:.0} jobs/s");

    let mut levels = Vec::new();
    for mult in [0.5, 1.0, 2.0] {
        let lvl = open_loop_level(&server, &shapes, sat_jps, mult);
        eprintln!(
            "[latency] {:.1}x offered: {} sent, {} admitted (p50 {:.2} ms, p99 {:.2} ms), \
             {} shed ({:.0}% of answered), {:.0} answered/s",
            lvl.offered_mult,
            lvl.sent,
            lvl.admitted,
            lvl.p50_ms,
            lvl.p99_ms,
            lvl.shed,
            100.0 * lvl.shed as f64 / (lvl.admitted + lvl.shed).max(1) as f64,
            lvl.answered_per_sec
        );
        levels.push(lvl);
    }
    let shed_counter = server.metrics().counter(psi_core::obs::Counter::Shed);
    let drain = server.shutdown(Duration::from_secs(30));
    assert_eq!(drain.aborted, 0, "a 30s grace drains the bench queue: {drain:?}");

    let (chaos_ok, chaos_failures) = chaos_drain_zero_loss(0x1a7e);

    // ---- gates --------------------------------------------------
    // The latency SLO is the queue-depth bound the admission ladder
    // enforces: a newly admitted job sits behind at most max_queue
    // jobs spread over the workers, so its wait is bounded by
    // (max_queue + workers) / saturation_rate regardless of offered
    // load. Slack covers scheduler noise and the coarse probe.
    let slo_ms = (MAX_QUEUE + WORKERS) as f64 / sat_jps * 1e3;
    let overload = levels.last().expect("levels");
    assert!(
        overload.p99_ms <= slo_ms * slack,
        "admitted p99 at 2x offered load broke the queue bound: \
         {:.2} ms > {slo_ms:.2} ms x {slack}",
        overload.p99_ms
    );
    assert!(
        overload.shed > 0,
        "2x offered load over a {MAX_QUEUE}-deep queue must shed"
    );
    assert!(shed_counter >= overload.shed, "shed counter undercounts");
    let light = &levels[0];
    let light_total = (light.admitted + light.shed).max(1);
    assert!(
        light.shed as f64 / light_total as f64 <= 0.10,
        "0.5x offered load should pass the admission ladder: {}/{light_total} shed",
        light.shed
    );
    assert!(chaos_ok > 0, "chaos run must land real answers");

    // ---- report -------------------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"experiment\": \"front-door latency under offered load (open loop, {SENDERS} senders, \
         {WORKERS} workers, queue cap {MAX_QUEUE})\","
    );
    let _ = writeln!(json, "  \"saturation_jobs_per_sec\": {sat_jps:.0},");
    let _ = writeln!(json, "  \"slo_ms\": {slo_ms:.3},");
    let _ = writeln!(json, "  \"slack\": {slack},");
    let _ = writeln!(json, "  \"levels\": [");
    for (i, l) in levels.iter().enumerate() {
        let comma = if i + 1 < levels.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"offered_x\": {:.1}, \"sent\": {}, \"admitted\": {}, \"shed\": {}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"answered_per_sec\": {:.0}}}{comma}",
            l.offered_mult, l.sent, l.admitted, l.shed, l.p50_ms, l.p99_ms, l.answered_per_sec
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"chaos_drain\": {{");
    let _ = writeln!(json, "    \"answered\": {chaos_ok},");
    let _ = writeln!(json, "    \"structured_failures\": {chaos_failures},");
    let _ = writeln!(json, "    \"lost\": 0");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    write_bench_json("BENCH_latency.json", &json);
    println!(
        "latency: 2x-overload admitted p99 {:.2} ms within {slack}x of the {slo_ms:.2} ms \
         queue bound, {} sheds all carried retry-after, chaos drain lost nothing — PASS",
        overload.p99_ms, overload.shed
    );
}
