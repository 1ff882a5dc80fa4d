//! Loopback integration tests for the TCP front door
//! ([`NetServer`]): protocol round-trips, malformed-input robustness,
//! queue-depth shedding with retry hints, per-request deadlines,
//! per-connection quotas, and graceful drain.
//!
//! The invariant every test leans on: **every request the server
//! reads gets exactly one response line on the same connection, in
//! request order** — a result, or a structured `"ok":false` error.
//! Accepted (admitted) jobs are never silently dropped, even when the
//! test slams the queue or drains the server mid-stream.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use psi_core::{DeploymentSpec, NetServer, NetServerConfig, SmartPsi, SmartPsiConfig};
use psi_datasets::generators;

/// Spin up a served deployment on an ephemeral loopback port.
fn serve(nodes: usize, edges: usize, workers: usize, cfg: NetServerConfig) -> NetServer {
    let g = generators::erdos_renyi(nodes, edges, 3, 7);
    let capacity = g.label_count() + 4; // headroom for wire updates
    let service = SmartPsi::new(g, SmartPsiConfig::default())
        .deploy(&DeploymentSpec::new().workers(workers).evolving(capacity));
    NetServer::bind(service, "127.0.0.1:0", cfg).expect("bind loopback")
}

/// A blocking line-protocol client with a read timeout so a wedged
/// server fails the test instead of hanging it.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &NetServer) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("write");
        self.stream.write_all(b"\n").expect("write newline");
    }

    /// Next response line, or `None` once the server closes the
    /// connection.
    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(e) => panic!("read from server failed: {e}"),
        }
    }
}

/// Extract `"id":N` from a response line without a JSON parser.
fn response_id(line: &str) -> Option<u64> {
    let rest = &line[line.find("\"id\":")? + 5..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn loopback_roundtrip_query_update_stats_shutdown() {
    let mut server = serve(150, 600, 2, NetServerConfig::default());
    let mut c = Client::connect(&server);

    c.send(r#"{"op":"query","id":1,"labels":[0,1],"edges":[[0,1]],"pivot":0}"#);
    let r = c.recv().expect("query response");
    assert!(r.contains("\"id\":1") && r.contains("\"ok\":true"), "{r}");
    assert!(r.contains("\"valid\":["), "{r}");

    c.send(r#"{"op":"update","id":2,"updates":[{"add_node":1},{"add_edge":[0,1,0]}]}"#);
    let r = c.recv().expect("update response");
    assert!(r.contains("\"id\":2") && r.contains("\"ok\":true"), "{r}");
    assert!(r.contains("\"epoch\":1"), "{r}");

    c.send(r#"{"op":"stats","id":3}"#);
    let r = c.recv().expect("stats response");
    assert!(r.contains("\"id\":3") && r.contains("\"ok\":true"), "{r}");
    assert!(r.contains("\"graph_epoch\":1"), "update must be visible: {r}");
    assert!(r.contains("\"admitted\":1"), "{r}");

    // The updated graph serves queries (epoch bumped, caches intact).
    c.send(r#"{"op":"query","id":4,"labels":[0],"edges":[],"pivot":0}"#);
    let r = c.recv().expect("post-update query");
    assert!(r.contains("\"id\":4") && r.contains("\"ok\":true"), "{r}");

    c.send(r#"{"op":"shutdown","id":5,"grace_ms":2000}"#);
    let r = c.recv().expect("shutdown response");
    assert!(r.contains("\"id\":5") && r.contains("\"drained\":"), "{r}");
    assert_eq!(c.recv(), None, "connection closes after shutdown");

    let report = server.wait();
    assert_eq!(report.aborted, 0, "nothing was left to abort");
}

#[test]
fn malformed_lines_get_errors_and_never_wedge_the_connection() {
    let mut server = serve(150, 600, 2, NetServerConfig::default());
    let mut bad = Client::connect(&server);
    let mut good = Client::connect(&server);

    // A fuzz-style corpus: every entry must produce exactly one
    // structured bad_request/update error on THIS connection and leave
    // the server serving.
    let deep = format!("{}1{}", "[".repeat(60), "]".repeat(60));
    let corpus: Vec<String> = vec![
        "GARBAGE NOT JSON".into(),
        "{".into(),
        "{}".into(),
        r#"{"op":"nosuch","id":1}"#.into(),
        r#"{"op":"query","id":2}"#.into(),
        r#"{"op":"query","id":3,"labels":"zebra","edges":[],"pivot":0}"#.into(),
        r#"{"op":"query","id":4,"labels":[0],"edges":[[0,9]],"pivot":0}"#.into(),
        r#"{"op":"query","id":5,"labels":[0],"edges":[],"pivot":7}"#.into(),
        r#"{"op":"update","id":6,"updates":[{"warp_core":1}]}"#.into(),
        r#"{"op":"update","id":7,"updates":[{"add_edge":[0,999999,0]}]}"#.into(),
        r#"{"id":8,"labels":[0]}"#.into(),
        "\u{0}\u{1}\u{2}binary\u{7f}".into(),
        "[1,2,3]".into(),
        "null".into(),
        r#""just a string""#.into(),
        "{\"op\":\"query\",\"id\":9,".into(),
        deep,
    ];
    for line in &corpus {
        bad.send(line);
        let r = bad.recv().expect("error response for malformed line");
        assert!(r.contains("\"ok\":false"), "line {line:?} got {r}");
    }

    // The abused connection still serves…
    bad.send(r#"{"op":"stats","id":100}"#);
    let r = bad.recv().expect("stats after abuse");
    assert!(r.contains("\"id\":100") && r.contains("\"ok\":true"), "{r}");

    // …and the garbage never leaked onto the healthy connection.
    good.send(r#"{"op":"query","id":200,"labels":[0,1],"edges":[[0,1]],"pivot":0}"#);
    let r = good.recv().expect("healthy connection response");
    assert!(r.contains("\"id\":200") && r.contains("\"ok\":true"), "{r}");

    server.shutdown(Duration::from_secs(2));
}

#[test]
fn oversized_line_is_rejected_but_connection_survives() {
    let cfg = NetServerConfig {
        max_line_bytes: 1024,
        ..NetServerConfig::default()
    };
    let mut server = serve(150, 600, 2, cfg);
    let mut c = Client::connect(&server);

    let huge = format!(r#"{{"op":"stats","id":1,"pad":"{}"}}"#, "x".repeat(4096));
    c.send(&huge);
    let r = c.recv().expect("oversized-line response");
    assert!(
        r.contains("\"ok\":false") && r.contains("bad_request"),
        "{r}"
    );

    c.send(r#"{"op":"stats","id":2}"#);
    let r = c.recv().expect("stats after oversized line");
    assert!(r.contains("\"id\":2") && r.contains("\"ok\":true"), "{r}");

    server.shutdown(Duration::from_secs(2));
}

#[test]
fn queue_full_sheds_with_retry_after_and_every_id_is_answered_once() {
    // One slow worker + a one-deep queue: pipelining a burst MUST shed
    // most of it, and everything — admitted or shed — answers exactly
    // once.
    let cfg = NetServerConfig {
        max_queue: 1,
        ..NetServerConfig::default()
    };
    let mut server = serve(3000, 24000, 1, cfg);
    let mut c = Client::connect(&server);

    const BURST: u64 = 24;
    let mut batch = String::new();
    for id in 0..BURST {
        batch.push_str(&format!(
            r#"{{"op":"query","id":{id},"labels":[0,1,0,1,0,1],"edges":[[0,1],[1,2],[2,3],[3,4],[4,5]],"pivot":0}}"#
        ));
        batch.push('\n');
    }
    c.stream.write_all(batch.as_bytes()).expect("burst write");

    let mut answered = vec![0u32; BURST as usize];
    let (mut ok, mut shed) = (0u32, 0u32);
    for _ in 0..BURST {
        let r = c.recv().expect("burst response");
        let id = response_id(&r).expect("response id") as usize;
        answered[id] += 1;
        if r.contains("\"ok\":true") {
            ok += 1;
        } else {
            assert!(r.contains("\"error\":\"shed\""), "unexpected failure: {r}");
            assert!(r.contains("\"retry_after_ms\":"), "shed without hint: {r}");
            shed += 1;
        }
    }
    assert!(
        answered.iter().all(|&n| n == 1),
        "every id answers exactly once: {answered:?}"
    );
    assert!(ok >= 1, "at least the first job is admitted");
    assert!(shed >= 1, "a 1-deep queue under a {BURST}-burst must shed");
    assert_eq!(ok + shed, BURST as u32);

    // The shed counter is observable over the wire.
    c.send(&format!(r#"{{"op":"stats","id":{}}}"#, BURST));
    let r = c.recv().expect("stats");
    assert!(r.contains(&format!("\"shed\":{shed}")), "{r}");

    let report = server.shutdown(Duration::from_secs(30));
    assert_eq!(
        report.aborted, 0,
        "a 30s grace drains every admitted job: {report:?}"
    );
}

#[test]
fn wire_deadline_already_expired_reports_deadline_error() {
    let mut server = serve(150, 600, 1, NetServerConfig::default());
    let mut c = Client::connect(&server);

    c.send(r#"{"op":"query","id":1,"labels":[0,1],"edges":[[0,1]],"pivot":0,"deadline_ms":0}"#);
    let r = c.recv().expect("deadline response");
    assert!(
        r.contains("\"id\":1") && r.contains("\"error\":\"deadline\""),
        "{r}"
    );

    // Deadline bookkeeping is visible in stats, and the connection is
    // healthy for a query with room to breathe.
    c.send(r#"{"op":"stats","id":2}"#);
    let r = c.recv().expect("stats");
    assert!(r.contains("\"deadline_expired\":1"), "{r}");
    c.send(r#"{"op":"query","id":3,"labels":[0],"edges":[],"pivot":0,"deadline_ms":60000}"#);
    let r = c.recv().expect("roomy deadline response");
    assert!(r.contains("\"id\":3") && r.contains("\"ok\":true"), "{r}");

    server.shutdown(Duration::from_secs(2));
}

#[test]
fn per_connection_quota_sheds_with_retry_after() {
    let cfg = NetServerConfig {
        quota_rate: 0.001, // one token per ~17 minutes: no refill mid-test
        quota_burst: 2.0,
        ..NetServerConfig::default()
    };
    let mut server = serve(150, 600, 2, cfg);
    let mut c = Client::connect(&server);

    for id in 1..=2 {
        c.send(&format!(
            r#"{{"op":"query","id":{id},"labels":[0],"edges":[],"pivot":0}}"#
        ));
        let r = c.recv().expect("burst-credit response");
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    c.send(r#"{"op":"query","id":3,"labels":[0],"edges":[],"pivot":0}"#);
    let r = c.recv().expect("quota response");
    assert!(r.contains("\"error\":\"quota\""), "{r}");
    assert!(r.contains("\"retry_after_ms\":"), "{r}");

    // Stats are exempt from the quota (cheap, needed to observe the
    // backoff) and a FRESH connection gets its own bucket.
    c.send(r#"{"op":"stats","id":4}"#);
    let r = c.recv().expect("stats exempt from quota");
    assert!(r.contains("\"id\":4") && r.contains("\"ok\":true"), "{r}");
    let mut fresh = Client::connect(&server);
    fresh.send(r#"{"op":"query","id":5,"labels":[0],"edges":[],"pivot":0}"#);
    let r = fresh.recv().expect("fresh connection response");
    assert!(r.contains("\"id\":5") && r.contains("\"ok\":true"), "{r}");

    server.shutdown(Duration::from_secs(2));
}

#[test]
fn drain_closes_connections_and_refuses_new_ones() {
    let mut server = serve(150, 600, 2, NetServerConfig::default());
    let addr = server.local_addr();
    let mut a = Client::connect(&server);
    let mut b = Client::connect(&server);

    a.send(r#"{"op":"shutdown","id":1,"grace_ms":2000}"#);
    let r = a.recv().expect("drain report");
    assert!(r.contains("\"drained\":") && r.contains("\"aborted\":"), "{r}");
    assert_eq!(a.recv(), None, "initiator's connection closes");

    // The bystander either races a final request in (answered with a
    // structured "draining" shed) or finds its connection already
    // closed (write fails, EOF, or — when its late bytes reach a socket
    // the server already shut for reading — a reset) — never a silent
    // hang.
    let late = b
        .stream
        .write_all(b"{\"op\":\"query\",\"id\":2,\"labels\":[0],\"edges\":[],\"pivot\":0}\n");
    if late.is_ok() {
        let mut r = String::new();
        match b.reader.read_line(&mut r) {
            Ok(0) => {}
            Ok(_) => assert!(r.contains("\"error\":\"draining\""), "{r}"),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("read from server failed: {e}"),
        }
    }

    let report = server.wait();
    assert_eq!(report.aborted, 0, "{report:?}");

    // The accept loop is gone: new connections fail outright or are
    // closed without ever being served.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(s) => {
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut r = BufReader::new(s);
            let mut line = String::new();
            assert_eq!(r.read_line(&mut line).unwrap_or(0), 0, "got {line:?}");
        }
    }
}

/// A query request line for `q` with correlation id `id`.
fn query_line(id: u64, q: &psi_graph::PivotedQuery) -> String {
    let g = q.graph();
    let labels: Vec<String> = g.labels().iter().map(|l| l.to_string()).collect();
    let edges: Vec<String> = g.edges().map(|(u, v, _)| format!("[{u},{v}]")).collect();
    format!(
        r#"{{"op":"query","id":{id},"labels":[{}],"edges":[{}],"pivot":{}}}"#,
        labels.join(","),
        edges.join(","),
        q.pivot()
    )
}

/// A response line without its `"steps"` field: per-shard training
/// samples legitimately move step counts, never the answer.
fn answer(line: &str) -> String {
    match line.find("\"steps\":") {
        None => line.to_string(),
        Some(at) => {
            let rest = &line[at..];
            let end = rest.find(',').map_or(rest.len(), |e| e + 1);
            format!("{}{}", &line[..at], &rest[end..])
        }
    }
}

/// Send `line` to both servers' clients and return both responses.
fn exchange(c1: &mut Client, c3: &mut Client, line: &str) -> (String, String) {
    c1.send(line);
    c3.send(line);
    (
        c1.recv().expect("1-shard response"),
        c3.recv().expect("3-shard response"),
    )
}

#[test]
fn sharded_deployment_answers_over_the_wire_like_one_shard() {
    let g = generators::erdos_renyi(300, 1200, 3, 11);
    let queries: Vec<_> = (0..6)
        .filter_map(|s| psi_datasets::rwr::extract_query_seeded(&g, 3 + (s as usize % 2), s))
        .collect();
    assert!(queries.len() >= 4, "need a real batch");
    let smart = SmartPsi::new(g.clone(), SmartPsiConfig::default());
    let spec = DeploymentSpec::new()
        .workers(2)
        .evolving(g.label_count() + 2);
    let bind = |spec: &DeploymentSpec| {
        NetServer::bind(
            smart.deploy(spec),
            "127.0.0.1:0",
            NetServerConfig::default(),
        )
        .expect("bind loopback")
    };
    let mut one = bind(&spec);
    let mut three = bind(&spec.clone().shards(3));
    let (mut c1, mut c3) = (Client::connect(&one), Client::connect(&three));
    let check_answers = |c1: &mut Client, c3: &mut Client, when: &str| {
        for (i, q) in queries.iter().enumerate() {
            let (r1, r3) = exchange(c1, c3, &query_line(i as u64, q));
            assert!(r1.contains("\"ok\":true"), "{when}: {r1}");
            assert_eq!(answer(&r3), answer(&r1), "{when}: query {i}");
        }
    };
    check_answers(&mut c1, &mut c3, "before the update");

    // A 6-node path pivoted at one end: eccentricity 5 exceeds the
    // default halo of 4. The sharded server refuses it as a bad
    // request; the 1-shard server has no halo and answers it.
    let deep = concat!(
        r#"{"op":"query","id":90,"labels":[0,1,2,0,1,2],"#,
        r#""edges":[[0,1],[1,2],[2,3],[3,4],[4,5]],"pivot":0}"#
    );
    let (r1, r3) = exchange(&mut c1, &mut c3, deep);
    assert!(r1.contains("\"ok\":true"), "{r1}");
    assert!(
        r3.contains("\"id\":90") && r3.contains("\"error\":\"bad_request\""),
        "{r3}"
    );
    assert!(r3.contains("eccentricity 5 > halo depth 4"), "{r3}");

    // The same update on both servers: the same report, and answers
    // that still agree afterwards.
    let update = concat!(
        r#"{"op":"update","id":91,"updates":[{"add_node":1},{"add_edge":[300,0,0]},"#,
        r#"{"add_edge":[5,17,0]},{"add_edge":[150,290,0]}]}"#
    );
    let (r1, r3) = exchange(&mut c1, &mut c3, update);
    assert!(
        r1.contains("\"ok\":true") && r1.contains("\"epoch\":1"),
        "{r1}"
    );
    assert_eq!(r3, r1, "the sharded update report");
    check_answers(&mut c1, &mut c3, "after the update");

    let (r1, r3) = exchange(&mut c1, &mut c3, r#"{"op":"stats","id":92}"#);
    assert!(r1.contains("\"workers\":2"), "{r1}");
    assert!(r3.contains("\"workers\":6"), "3 shards × 2 workers: {r3}");
    assert!(r3.contains("\"graph_epoch\":1"), "{r3}");

    for server in [&mut one, &mut three] {
        assert_eq!(server.shutdown(Duration::from_secs(5)).aborted, 0);
    }
}
