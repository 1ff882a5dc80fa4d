//! The network front door: TCP serving over a [`PsiService`] of any
//! shard count, with admission control, backpressure, and graceful
//! degradation.
//!
//! # Architecture
//!
//! ```text
//!   accept loop ──┬── connection 1: reader thread ──► job queue
//!                 │                 writer thread ◄── JobHandles
//!                 ├── connection 2: reader / writer
//!                 └── …
//! ```
//!
//! One accept thread owns the listener. Each connection gets a
//! *reader* thread (parse → admission → submit) and a *writer* thread
//! (redeem [`JobHandle`]s in request order, serialize, write); the
//! pair is connected by an in-order channel, so a client can pipeline
//! requests and still receive responses in request order.
//!
//! # Admission control (the shed ladder)
//!
//! A request is admitted only if it passes, in order:
//!
//! 1. **Drain gate** — a draining server answers `"error":"draining"`.
//! 2. **Per-connection token bucket** — `quota_rate` tokens/second,
//!    `quota_burst` capacity; an empty bucket answers
//!    `"error":"quota"` with the exact `retry_after_ms` until the next
//!    token.
//! 3. **Cost-laddered queue depth** — the paper's optimist/pessimist
//!    cost framing gives a per-query difficulty signal *before*
//!    evaluation: predicted cost ≈ pivot-label candidate count ×
//!    query size. Cheap queries may fill the whole queue
//!    (`max_queue`), medium ones ¾ of it, heavy ones ½ — so under
//!    pressure the server sheds the expensive tail first and keeps
//!    serving cheap traffic. Shed responses carry a `retry_after_ms`
//!    derived from the live [`Histogram::QueueWait`] median scaled by
//!    the backlog-per-worker, so clients back off proportionally to
//!    real queue latency, not a guess.
//!
//! Admitted queries are stamped with a deadline
//! ([`EvalLimits::with_deadline`]): if it expires while the job is
//! still queued, the service answers `"error":"deadline"` without
//! running it (see
//! [`DEADLINE_EXPIRED_REASON`](super::service::DEADLINE_EXPIRED_REASON)).
//!
//! # Graceful drain
//!
//! The `shutdown` op (or [`NetServer::shutdown`]) drains: stop
//! accepting connections, answer new requests with `draining`, give
//! queued jobs a grace window via [`PsiService::shutdown`], abort the
//! rest with structured failures, then close every connection. Every
//! accepted job gets exactly one response — a result or a structured
//! error — through its connection's writer. There is no signal
//! handling here (the dependency policy rules out `libc`); a process
//! manager's SIGTERM hook should speak the protocol and send
//! `{"op":"shutdown",…}`.
//!
//! # Robustness
//!
//! A malformed line answers `"error":"bad_request"` on that
//! connection only — the parser never panics and over-long lines are
//! skipped, not buffered unboundedly. Slow or dead clients hit
//! `write_timeout` and their connection is dropped without blocking
//! the service (their in-flight jobs still complete and are
//! discarded). `crates/core/tests/net.rs` fuzzes all of this over a
//! loopback socket.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use psi_graph::hash::FxHashMap;
use psi_graph::PivotedQuery;
use psi_obs::{Counter, Histogram, MetricsRecorder, Phase, QueryProfile, Recorder};

use crate::fault::unpoison;
use crate::limits::EvalLimits;
use crate::smart::RunSpec;

use super::proto::{self, ErrorKind, Request, WireStats};
use super::service::{DrainReport, JobHandle, PsiService, ServiceStats};

/// Tuning for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Queue-depth ceiling for the admission ladder: cheap queries are
    /// shed at this depth, medium at ¾ of it, heavy at ½.
    pub max_queue: usize,
    /// Per-connection token-bucket refill rate, tokens (requests) per
    /// second. `0.0` disables the quota.
    pub quota_rate: f64,
    /// Token-bucket capacity (burst size).
    pub quota_burst: f64,
    /// Deadline stamped on queries that do not carry `deadline_ms`.
    /// `None` admits them without a deadline.
    pub default_deadline: Option<Duration>,
    /// Socket write timeout — a client that cannot drain its responses
    /// this long is disconnected instead of wedging its writer.
    pub write_timeout: Duration,
    /// Longest accepted request line, bytes; longer lines answer
    /// `bad_request` and are skipped without buffering.
    pub max_line_bytes: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        Self {
            max_queue: 256,
            quota_rate: 0.0,
            quota_burst: 32.0,
            default_deadline: None,
            write_timeout: Duration::from_secs(5),
            max_line_bytes: 1 << 20,
        }
    }
}

/// Classified per-query cost for the shed ladder; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CostClass {
    Cheap,
    Medium,
    Heavy,
}

/// What the reader hands the writer, in request order.
enum Outgoing {
    /// A fully formed response line.
    Line(String),
    /// An admitted job: redeem the handle, then serialize.
    Job { id: u64, handle: JobHandle },
}

struct Shared {
    service: RwLock<PsiService>,
    cfg: NetServerConfig,
    local_addr: SocketAddr,
    draining: AtomicBool,
    /// `Some` once a drain has completed (idempotency + the report for
    /// later callers). The lock also serializes concurrent drains.
    drain_result: Mutex<Option<DrainReport>>,
    /// Read-half clones of every live connection, keyed by connection
    /// number, closed on drain to unblock parked readers. Writers keep
    /// flushing pending responses — only the read direction is shut.
    /// A connection removes its own entry when it ends, so a closed
    /// client's socket closes with it.
    conn_streams: Mutex<FxHashMap<u64, TcpStream>>,
    /// Front-door metrics: [`Counter::Admitted`]/[`Counter::Shed`]
    /// and the [`Phase::NetRead`]/[`Phase::NetWrite`] spans. Queue
    /// and service counters live in the service's own recorder.
    metrics: Arc<MetricsRecorder>,
}

/// A TCP front door over one [`PsiService`] deployment, sharded or
/// not. See the module docs for the admission and drain semantics; see
/// [`super::proto`] for the wire grammar.
pub struct NetServer {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Bind `addr` and start serving `service` (use port 0 for an
    /// ephemeral port; [`NetServer::local_addr`] reports the actual
    /// one).
    pub fn bind(
        service: PsiService,
        addr: impl ToSocketAddrs,
        cfg: NetServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service: RwLock::new(service),
            cfg,
            local_addr,
            draining: AtomicBool::new(false),
            drain_result: Mutex::new(None),
            conn_streams: Mutex::new(FxHashMap::default()),
            metrics: Arc::new(MetricsRecorder::new()),
        });
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = shared.clone();
            let conn_threads = conn_threads.clone();
            std::thread::spawn(move || accept_loop(&listener, &shared, &conn_threads))
        };
        Ok(Self {
            shared,
            accept: Some(accept),
            conn_threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Front-door metrics: [`Counter::Admitted`], [`Counter::Shed`],
    /// and the [`Phase::NetRead`]/[`Phase::NetWrite`] spans.
    pub fn metrics(&self) -> &MetricsRecorder {
        &self.shared.metrics
    }

    /// Lifetime counters of the served deployment (still readable
    /// after a drain).
    pub fn service_stats(&self) -> ServiceStats {
        unpoison(self.shared.service.read()).stats()
    }

    /// A snapshot of the served deployment's own registry
    /// ([`PsiService::metrics`]): queue wait, queries served, pool
    /// spawn, update and cache metrics (still readable after a drain).
    pub fn service_metrics(&self) -> QueryProfile {
        let mut snapshot = QueryProfile::new();
        snapshot.absorb(unpoison(self.shared.service.read()).metrics());
        snapshot
    }

    /// Drain and stop: stop accepting, shed new requests, give queued
    /// jobs `grace` to finish, abort the rest, close every connection,
    /// and join every thread. Idempotent — the first drain's report is
    /// returned to later callers (a protocol `shutdown` op may already
    /// have drained the server).
    pub fn shutdown(&mut self, grace: Duration) -> DrainReport {
        let report = self.shared.drain(grace);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let threads: Vec<_> = unpoison(self.conn_threads.lock()).drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
        report
    }

    /// Block until the server drains (a protocol `shutdown` op from
    /// some client, or [`NetServer::shutdown`] from another thread),
    /// then return the drain report. This is what `smartpsi serve`
    /// parks on.
    pub fn wait(&mut self) -> DrainReport {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let threads: Vec<_> = unpoison(self.conn_threads.lock()).drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
        unpoison(self.shared.drain_result.lock()).unwrap_or_default()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown(Duration::from_secs(1));
    }
}

impl Shared {
    fn drain(&self, grace: Duration) -> DrainReport {
        let mut done = unpoison(self.drain_result.lock());
        if let Some(r) = *done {
            return r;
        }
        self.draining.store(true, Ordering::Release);
        // Poke the accept loop out of its blocking accept().
        let _ = TcpStream::connect(self.local_addr);
        // Give queued jobs their grace, then abort the remnants; every
        // already-submitted JobHandle resolves here, so connection
        // writers flush exactly one response per accepted job.
        let report = unpoison(self.service.write()).shutdown(grace);
        // Unblock parked readers (EOF); their pending writes still go
        // out before each connection closes.
        for (_, s) in unpoison(self.conn_streams.lock()).drain() {
            let _ = s.shutdown(Shutdown::Read);
        }
        *done = Some(report);
        report
    }

    /// Queue-wait median in milliseconds, from the live histogram;
    /// `None` until the service has served something.
    fn queue_wait_p50_ms(&self) -> Option<f64> {
        let hist = {
            let svc = unpoison(self.service.read());
            svc.metrics().histogram(Histogram::QueueWait)
        };
        histogram_p50_ms(&hist)
    }

    /// Predicted difficulty of a query before evaluation: candidates
    /// that share the pivot's label × query size, bucketed relative to
    /// the graph. This is the coarse end of the paper's
    /// optimist/pessimist cost model — enough signal to shed the
    /// expensive tail first.
    fn cost_class(&self, query: &PivotedQuery) -> CostClass {
        let (candidates, nodes) = unpoison(self.service.read()).label_population(query.pivot_label());
        let cost = candidates.saturating_mul(query.graph().node_count());
        let base = nodes.max(1);
        if cost >= base {
            CostClass::Heavy
        } else if cost * 4 >= base {
            CostClass::Medium
        } else {
            CostClass::Cheap
        }
    }

    /// The admission ladder (drain gate and quota run in the caller).
    /// `Err` carries a ready-to-send shed line.
    fn admit(&self, id: u64, query: &PivotedQuery) -> Result<(), String> {
        let depth = unpoison(self.service.read()).pending();
        let cap = match self.cost_class(query) {
            CostClass::Cheap => self.cfg.max_queue,
            CostClass::Medium => (self.cfg.max_queue * 3) / 4,
            CostClass::Heavy => self.cfg.max_queue / 2,
        }
        .max(1);
        if depth < cap {
            return Ok(());
        }
        self.metrics.add(Counter::Shed, 1);
        let workers = unpoison(self.service.read()).workers().max(1);
        // Expected wait to clear the backlog down to this class's cap:
        // excess jobs × median per-job queue wait ÷ workers, clamped
        // to something a client can act on.
        let p50 = self.queue_wait_p50_ms().unwrap_or(5.0);
        let excess = (depth - cap + 1) as f64;
        let retry_ms = (excess * p50.max(0.1) / workers as f64).clamp(1.0, 30_000.0) as u64;
        Err(proto::error_line(
            Some(id),
            ErrorKind::Shed,
            &format!("queue depth {depth} at or over the {cap} cap for this cost class"),
            Some(retry_ms),
        ))
    }
}

/// Median of a log₂-bucketed nanosecond histogram, in milliseconds;
/// `None` when empty. The median bucket is represented by its
/// *midpoint*: a log bucket spans a full doubling, so reporting its
/// floor (the pre-fix behavior) underestimated the p50 by up to 2× —
/// shed responses then carried a too-small `retry_after_ms` and
/// clients hammered back before the backlog could clear.
fn histogram_p50_ms(hist: &[u64]) -> Option<f64> {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return None;
    }
    let mut seen = 0u64;
    for (i, &n) in hist.iter().enumerate() {
        seen += n;
        if seen * 2 >= total {
            return Some(psi_obs::LogHistogram::bucket_midpoint(i) as f64 / 1e6);
        }
    }
    None
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for (conn, stream) in (0u64..).zip(listener.incoming()) {
        if shared.draining.load(Ordering::Acquire) {
            break; // the drain poke (or any racing client) lands here
        }
        let Ok(stream) = stream else { continue };
        // Responses are single small writes; Nagle coupling with the
        // peer's delayed ACKs would add ~40 ms per round trip.
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        unpoison(shared.conn_streams.lock()).insert(conn, read_half);
        let shared = shared.clone();
        let handle = std::thread::spawn(move || {
            conn_reader(&shared, stream);
            unpoison(shared.conn_streams.lock()).remove(&conn);
        });
        // Keep handles of live connections only: a finished thread's
        // handle is dropped here instead of piling up until shutdown.
        let mut threads = unpoison(conn_threads.lock());
        threads.retain(|t| !t.is_finished());
        threads.push(handle);
    }
}

/// Per-connection request-rate limiter.
struct TokenBucket {
    tokens: f64,
    rate: f64,
    burst: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(rate: f64, burst: f64) -> Self {
        Self {
            tokens: burst.max(1.0),
            rate,
            burst: burst.max(1.0),
            last: Instant::now(),
        }
    }

    /// Take one token, or report how long until one refills.
    fn take(&mut self) -> Result<(), Duration> {
        if self.rate <= 0.0 {
            return Ok(());
        }
        let now = Instant::now();
        self.tokens =
            (self.tokens + now.duration_since(self.last).as_secs_f64() * self.rate).min(self.burst);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            Err(Duration::from_secs_f64((1.0 - self.tokens) / self.rate))
        }
    }
}

/// Read one `\n`-terminated line of at most `cap` bytes into `buf`.
/// Returns `Ok(false)` on EOF, `Err(())` when the line overflowed the
/// cap (the rest of the line is consumed and discarded, so the
/// connection can keep serving).
fn read_capped_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<Result<bool, ()>> {
    buf.clear();
    let mut overflow = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF: a non-empty partial line still parses (netcat -N
            // closes without a trailing newline).
            return Ok(if buf.is_empty() && !overflow {
                Ok(false)
            } else if overflow {
                Err(())
            } else {
                Ok(true)
            });
        }
        let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (chunk.len(), false),
        };
        if !overflow {
            let keep = take.min(cap.saturating_sub(buf.len()) + 1);
            buf.extend_from_slice(&chunk[..keep]);
            if buf.len() > cap {
                overflow = true;
            }
        }
        reader.consume(take);
        if done {
            while buf.last() == Some(&b'\n') || buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(if overflow { Err(()) } else { Ok(true) });
        }
    }
}

fn conn_reader(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let _ = write_half.set_write_timeout(Some(shared.cfg.write_timeout));
    let (tx, rx) = mpsc::channel::<Outgoing>();
    let writer = {
        let shared = shared.clone();
        std::thread::spawn(move || conn_writer(&shared, write_half, &rx))
    };
    let mut reader = BufReader::new(stream);
    let mut bucket = TokenBucket::new(shared.cfg.quota_rate, shared.cfg.quota_burst);
    let mut buf = Vec::new();
    loop {
        let t0 = Instant::now();
        let read = read_capped_line(&mut reader, &mut buf, shared.cfg.max_line_bytes);
        shared
            .metrics
            .span_ns(Phase::NetRead, t0.elapsed().as_nanos() as u64);
        let line = match read {
            Err(_) | Ok(Ok(false)) => break, // socket error or EOF
            Ok(Err(())) => {
                let err = proto::error_line(
                    None,
                    ErrorKind::BadRequest,
                    &format!("line over {} bytes", shared.cfg.max_line_bytes),
                    None,
                );
                if tx.send(Outgoing::Line(err)).is_err() {
                    break;
                }
                continue;
            }
            Ok(Ok(true)) => String::from_utf8_lossy(&buf).into_owned(),
        };
        if line.trim().is_empty() {
            continue;
        }
        let mut shutdown_after = false;
        let out = handle_line(shared, &mut bucket, line.trim(), &mut shutdown_after);
        if tx.send(out).is_err() {
            break; // writer gave up on a slow/dead client
        }
        if shutdown_after {
            break;
        }
    }
    drop(tx);
    let _ = writer.join();
}

fn handle_line(
    shared: &Arc<Shared>,
    bucket: &mut TokenBucket,
    line: &str,
    shutdown_after: &mut bool,
) -> Outgoing {
    let request = match proto::parse_request(line) {
        Ok(r) => r,
        Err((id, e)) => {
            return Outgoing::Line(proto::error_line(
                id,
                ErrorKind::BadRequest,
                &e.message,
                None,
            ));
        }
    };
    let id = request.id();
    // Drain gate: during and after a drain, nothing new is accepted.
    if shared.draining.load(Ordering::Acquire) && !matches!(request, Request::Shutdown { .. }) {
        return Outgoing::Line(proto::error_line(
            Some(id),
            ErrorKind::Draining,
            "server is draining",
            None,
        ));
    }
    // Token-bucket quota, query and update ops only (stats/shutdown
    // are control traffic).
    if matches!(request, Request::Query { .. } | Request::Update { .. }) {
        if let Err(wait) = bucket.take() {
            shared.metrics.add(Counter::Shed, 1);
            return Outgoing::Line(proto::error_line(
                Some(id),
                ErrorKind::Quota,
                "per-connection quota exhausted",
                Some((wait.as_millis() as u64).max(1)),
            ));
        }
    }
    match request {
        Request::Query {
            id,
            query,
            deadline_ms,
        } => {
            if let Err(shed_line) = shared.admit(id, &query) {
                return Outgoing::Line(shed_line);
            }
            let deadline = deadline_ms
                .map(Duration::from_millis)
                .or(shared.cfg.default_deadline)
                .map(|d| Instant::now() + d);
            let mut spec = RunSpec::new();
            if let Some(deadline) = deadline {
                spec = spec.limits(EvalLimits::unlimited().with_deadline(deadline));
            }
            shared.metrics.add(Counter::Admitted, 1);
            let handle = unpoison(shared.service.read()).submit(query, spec);
            Outgoing::Job { id, handle }
        }
        Request::Update { id, updates } => {
            let outcome = unpoison(shared.service.read()).apply_update(&updates);
            Outgoing::Line(match outcome {
                Ok(report) => proto::update_report_line(id, &report),
                Err(e) => proto::error_line(Some(id), ErrorKind::Update, &e.to_string(), None),
            })
        }
        Request::Stats { id } => {
            let (service, queue_depth, workers) = {
                let svc = unpoison(shared.service.read());
                (svc.stats(), svc.pending(), svc.workers())
            };
            let stats = WireStats {
                service,
                queue_depth,
                workers,
                admitted: shared.metrics.counter(Counter::Admitted),
                shed: shared.metrics.counter(Counter::Shed),
            };
            Outgoing::Line(proto::stats_line(id, &stats))
        }
        Request::Shutdown { id, grace_ms } => {
            let report = shared.drain(Duration::from_millis(grace_ms));
            *shutdown_after = true;
            Outgoing::Line(proto::drain_line(id, report))
        }
    }
}

fn conn_writer(shared: &Arc<Shared>, mut stream: TcpStream, rx: &mpsc::Receiver<Outgoing>) {
    for out in rx.iter() {
        let line = match out {
            Outgoing::Line(line) => line,
            Outgoing::Job { id, handle } => {
                // Redeeming in channel order preserves response order
                // under pipelining.
                let result = handle.wait();
                proto::query_result_line(id, &result)
            }
        };
        let t0 = Instant::now();
        let wrote = stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .and_then(|()| stream.flush());
        shared
            .metrics
            .span_ns(Phase::NetWrite, t0.elapsed().as_nanos() as u64);
        if wrote.is_err() {
            // Slow or gone client: stop writing and unblock the reader
            // so the connection tears down. Remaining handles resolve
            // when dropped — accepted jobs still run to completion.
            let _ = stream.shutdown(Shutdown::Both);
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_refills_at_rate() {
        let mut b = TokenBucket::new(1000.0, 2.0);
        assert!(b.take().is_ok());
        assert!(b.take().is_ok());
        let wait = match b.take() {
            Err(w) => w,
            Ok(()) => panic!("burst of 2 must exhaust"),
        };
        assert!(wait <= Duration::from_millis(2), "1000/s refills within ~1ms");
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.take().is_ok(), "refilled after sleeping past the rate");
    }

    #[test]
    fn disabled_quota_always_admits() {
        let mut b = TokenBucket::new(0.0, 1.0);
        for _ in 0..10_000 {
            assert!(b.take().is_ok());
        }
    }

    #[test]
    fn queue_wait_p50_uses_the_bucket_midpoint() {
        use psi_obs::{LogHistogram, HIST_BUCKETS};
        // Known histogram: 3 observations in bucket 21 ([2^20, 2^21) ns
        // ≈ [1.05, 2.10) ms), 1 in bucket 23. The median bucket is 21;
        // its floor is ~1.05 ms but its midpoint is ~1.57 ms.
        let mut hist = [0u64; HIST_BUCKETS];
        hist[21] = 3;
        hist[23] = 1;
        let p50 = histogram_p50_ms(&hist).expect("non-empty histogram");
        let floor_ms = LogHistogram::bucket_floor(21) as f64 / 1e6;
        let mid_ms = LogHistogram::bucket_midpoint(21) as f64 / 1e6;
        assert!(p50 > floor_ms, "p50 {p50} must not sit on the bucket floor {floor_ms}");
        assert!((p50 - mid_ms).abs() < 1e-9, "p50 {p50} is the midpoint {mid_ms}");
        // Empty histogram: no estimate.
        assert_eq!(histogram_p50_ms(&[0u64; HIST_BUCKETS]), None);
        // Single observation of zero wait: bucket 0 is exact.
        let mut zero = [0u64; HIST_BUCKETS];
        zero[0] = 1;
        assert_eq!(histogram_p50_ms(&zero), Some(0.0));
    }
}
