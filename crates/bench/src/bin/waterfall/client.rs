//! The open-loop TCP client: one thread per connection sends each
//! request when it is due and reads responses without blocking, so a
//! slow answer never delays the next send.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::inputs::Op;
use crate::spec::SERVER_NICE;

/// Longest sleep while responses are outstanding and the next send is
/// near; bounds how late a response is stamped.
const POLL: Duration = Duration::from_micros(200);
/// How early a blocking read's timeout fires before the next send. The
/// socket timer runs on the kernel tick, so a timeout can overshoot by
/// several milliseconds.
const BLOCK_MARGIN: Duration = Duration::from_millis(10);

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Seconds after the run's start at which the line was handed to
    /// the socket.
    pub sent: f64,
    /// Seconds after the run's start at which its response was read,
    /// with the response line; `None` if none came.
    pub done: Option<(f64, String)>,
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Outcome {
    Ok,
    Shed,
    Deadline,
    BadRequest,
    Io,
    Timeout,
    Other,
}

impl Outcome {
    pub const ALL: [Outcome; 7] = [
        Outcome::Ok,
        Outcome::Shed,
        Outcome::Deadline,
        Outcome::BadRequest,
        Outcome::Io,
        Outcome::Timeout,
        Outcome::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Shed => "shed",
            Outcome::Deadline => "deadline",
            Outcome::BadRequest => "bad_request",
            Outcome::Io => "io",
            Outcome::Timeout => "timeout",
            Outcome::Other => "other",
        }
    }
}

impl Reply {
    /// Classify the response. A query answer cut short by its deadline
    /// (`"unresolved"` above 0) is a deadline miss, not an answer.
    pub fn outcome(&self, io_failed: bool) -> Outcome {
        let Some((_, line)) = &self.done else {
            return if io_failed {
                Outcome::Io
            } else {
                Outcome::Timeout
            };
        };
        if line.contains("\"ok\":true") {
            return match field_u64(line, "unresolved") {
                Some(n) if n > 0 => Outcome::Deadline,
                _ => Outcome::Ok,
            };
        }
        match field_str(line, "error") {
            Some("shed" | "quota") => Outcome::Shed,
            Some("deadline") => Outcome::Deadline,
            Some("bad_request") => Outcome::BadRequest,
            _ => Outcome::Other,
        }
    }

    /// Seconds from when the request was due to its response.
    pub fn latency(&self, due: f64) -> Option<f64> {
        self.done.as_ref().map(|(t, _)| t - due)
    }
}

/// The unsigned integer after `"key":` in a response line.
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    rest.split('"').next()
}

/// A connection's replies (one per op, in op order) and whether its
/// socket failed before every reply arrived.
pub struct ConnResult {
    pub replies: Vec<Reply>,
    pub io_failed: bool,
}

/// Send `ops` on a fresh connection at their due times (relative to
/// `t0`) and collect the responses, waiting at most `grace` after the
/// last send for the rest.
pub fn drive(addr: SocketAddr, ops: &[Op], t0: Instant, grace: Duration) -> ConnResult {
    let mut replies: Vec<Reply> = Vec::with_capacity(ops.len());
    let io_failed = match run(addr, ops, t0, grace, &mut replies) {
        Ok(()) => false,
        Err(e) => {
            eprintln!("connection error after {} sends: {e}", replies.len());
            true
        }
    };
    for (reply, op) in replies.iter().zip(ops) {
        if let Some((_, line)) = &reply.done {
            let id = field_u64(line, "id");
            let want = field_u64(&op.line, "id");
            assert_eq!(id, want, "responses arrive in request order");
        }
    }
    ConnResult { replies, io_failed }
}

fn run(
    addr: SocketAddr,
    ops: &[Op],
    t0: Instant,
    grace: Duration,
    replies: &mut Vec<Reply>,
) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let give_up = ops.last().map_or(0.0, |op| op.at) + grace.as_secs_f64();
    let mut out: Vec<u8> = Vec::new();
    let mut written = 0usize;
    let mut inbuf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut answered = 0usize;
    loop {
        let now = t0.elapsed().as_secs_f64();
        while replies.len() < ops.len() && ops[replies.len()].at <= now {
            out.extend_from_slice(ops[replies.len()].line.as_bytes());
            out.push(b'\n');
            replies.push(Reply {
                sent: now,
                done: None,
            });
        }
        while written < out.len() {
            match stream.write(&out[written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if written == out.len() {
            out.clear();
            written = 0;
        }
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let now = t0.elapsed().as_secs_f64();
        let mut start = 0;
        while let Some(pos) = inbuf[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&inbuf[start..start + pos]).into_owned();
            start += pos + 1;
            if answered >= replies.len() {
                return Err(std::io::Error::other("response to a request never sent"));
            }
            replies[answered].done = Some((now, line));
            answered += 1;
        }
        inbuf.drain(..start);
        if answered == ops.len() || now > give_up {
            return Ok(());
        }
        let next_at = ops
            .get(replies.len())
            .map_or(give_up, |op| op.at.min(give_up));
        let until_next = Duration::from_secs_f64((next_at - now).max(0.0));
        if answered == replies.len() && written == out.len() {
            // Nothing in flight: no response can arrive before the next send.
            std::thread::sleep(until_next);
        } else if written == out.len() && until_next > BLOCK_MARGIN * 2 {
            // Block until a response arrives; the socket's timer is
            // coarse, so it is set to wake well before the next send
            // and the precise sleep above finishes the wait.
            stream.set_nonblocking(false)?;
            stream.set_read_timeout(Some(until_next - BLOCK_MARGIN))?;
            let read = stream.read(&mut chunk);
            stream.set_nonblocking(true)?;
            match read {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        } else {
            std::thread::sleep(until_next.min(POLL));
        }
    }
}

/// Interval of the bare sleeper of [`host_lag`].
const HOST_TICK: Duration = Duration::from_millis(5);

/// How late a bare sleeper wakes, every [`HOST_TICK`] from `t0` until
/// `end` seconds after it: `(due, ms late)`. The host delays every
/// thread's wake-ups: on the 2-vCPU KVM guest a sleeper with nothing
/// else running woke 2–9 ms late at p99 and up to 45 ms late at worst.
/// The load generator is judged by the lateness it adds beyond this.
pub fn host_lag(t0: Instant, end: f64) -> Vec<(f64, f64)> {
    let tick = HOST_TICK.as_secs_f64();
    let mut out = Vec::with_capacity((end / tick) as usize + 1);
    let mut at = 0.0;
    while at < end {
        let now = t0.elapsed().as_secs_f64();
        if at > now {
            std::thread::sleep(Duration::from_secs_f64(at - now));
        }
        out.push((at, (t0.elapsed().as_secs_f64() - at).max(0.0) * 1e3));
        at += tick;
    }
    out
}

/// Run `f` on a thread whose nice value is raised by
/// [`SERVER_NICE`]; the threads it spawns (service workers, the
/// front door's accept and connection threads) inherit it. The server
/// shares the host's cores with the load generator, which must send on
/// time; remote clients would not compete with it at all. Linux keeps
/// the nice value per thread, so the caller's own is unchanged.
pub fn at_server_priority<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    extern "C" {
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    std::thread::scope(|s| {
        s.spawn(|| {
            // SAFETY: a C library call with plain integer arguments.
            // PRIO_PROCESS (0) with `who` 0 names the calling thread on
            // Linux. Raising one's own nice value needs no privilege; if
            // it fails anyway, the server keeps the default priority.
            unsafe { setpriority(0, 0, SERVER_NICE) };
            f()
        })
        .join()
        .expect("server set-up thread")
    })
}

/// Send `lines` one at a time on a fresh connection and return each
/// response (the closed-loop probe behind the post-drain check).
pub fn closed_loop(addr: SocketAddr, lines: &[String]) -> std::io::Result<Vec<String>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut reader = std::io::BufReader::new(stream.try_clone()?);
    let mut out = Vec::with_capacity(lines.len());
    for line in lines {
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        let mut resp = String::new();
        std::io::BufRead::read_line(&mut reader, &mut resp)?;
        out.push(resp.trim_end().to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(line: &str) -> Reply {
        Reply {
            sent: 0.0,
            done: Some((0.01, line.to_string())),
        }
    }

    #[test]
    fn outcomes_follow_the_wire_grammar() {
        let ok = reply(
            "{\"id\":3,\"ok\":true,\"valid\":[1,2],\"candidates\":9,\"steps\":4,\"unresolved\":0}",
        );
        assert_eq!(ok.outcome(false), Outcome::Ok);
        let cut = reply(
            "{\"id\":3,\"ok\":true,\"valid\":[],\"candidates\":9,\"steps\":4,\"unresolved\":5}",
        );
        assert_eq!(cut.outcome(false), Outcome::Deadline);
        let shed = reply(
            "{\"id\":3,\"ok\":false,\"error\":\"shed\",\"message\":\"x\",\"retry_after_ms\":4}",
        );
        assert_eq!(shed.outcome(false), Outcome::Shed);
        let update = reply("{\"id\":9,\"ok\":true,\"epoch\":1,\"nodes_added\":0}");
        assert_eq!(update.outcome(false), Outcome::Ok);
        let none = Reply {
            sent: 0.0,
            done: None,
        };
        assert_eq!(none.outcome(false), Outcome::Timeout);
        assert_eq!(none.outcome(true), Outcome::Io);
        assert_eq!(field_u64("{\"id\":12,\"ok\":true}", "id"), Some(12));
        assert!((ok.latency(0.004).unwrap() - 0.006).abs() < 1e-12);
    }
}
