//! Line-delimited JSON protocol for the network front door.
//!
//! One request per line, one response line per request, over a plain
//! TCP stream — speakable with `netcat`. The grammar (all numbers are
//! non-negative integers unless noted):
//!
//! ```text
//! request  = query | update | stats | shutdown
//! query    = {"op":"query","id":N,"labels":[L,…],"edges":[[U,V],…],
//!             "pivot":N,"deadline_ms":N?}
//! update   = {"op":"update","id":N,
//!             "updates":[{"add_node":L} | {"add_edge":[U,V,L]},…]}
//! stats    = {"op":"stats","id":N}
//! shutdown = {"op":"shutdown","id":N,"grace_ms":N?}
//!
//! response = ok | error
//! ok       = {"id":N,"ok":true, …op-specific fields…}
//! error    = {"id":N,"ok":false,"error":KIND,"message":S,
//!             "retry_after_ms":N?}
//! ```
//!
//! `id` is a caller-chosen correlation number echoed verbatim on the
//! response; responses on one connection arrive in request order, so
//! pipelining works with or without distinct ids.
//!
//! Every integer, `id` included, must be at most [`MAX_WIRE_INT`]
//! (2^53 − 1): numbers parse as `f64`, which cannot represent every
//! larger integer, so a bigger one could be echoed back altered. Such a
//! request is refused as `bad_request` instead.
//!
//! The JSON parser here is deliberately minimal and *hostile-input
//! safe*: recursion depth is capped ([`MAX_JSON_DEPTH`]), numbers are
//! plain `f64`s, and any malformed byte sequence yields a structured
//! [`ProtoError`] — never a panic. The fuzz corpus in
//! `crates/core/tests/net.rs` holds the server to that.

use psi_graph::{GraphUpdate, LabelId, NodeId, PivotedQuery};

use super::evolve::UpdateReport;
use super::service::{
    DrainReport, ServiceStats, ABORTED_BY_SHUTDOWN_REASON, DEADLINE_EXPIRED_REASON,
    QUERY_TOO_DEEP_REASON,
};
use crate::report::PsiResult;

/// The largest integer the protocol accepts (2^53 − 1, JavaScript's
/// `Number.MAX_SAFE_INTEGER`): every integer up to it is exact as an
/// `f64`, so an `id` up to it round-trips verbatim.
pub const MAX_WIRE_INT: u64 = (1 << 53) - 1;

/// Maximum nesting depth the JSON parser accepts. Protocol messages
/// need 3 levels; the cap only exists so `[[[[…` cannot recurse the
/// stack away.
pub const MAX_JSON_DEPTH: usize = 24;

// ---------------------------------------------------------------------
// JSON values
// ---------------------------------------------------------------------

/// A parsed JSON value (object keys keep insertion order; duplicate
/// keys resolve to the first occurrence).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer no larger than
    /// [`MAX_WIRE_INT`]. Larger numbers are rejected rather than
    /// rounded: their `f64` may stand for a different integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_WIRE_INT as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why a line failed to parse as a protocol request. The message is
/// safe to echo back to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Human-readable description of the first problem found.
    pub message: String,
}

impl ProtoError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Parse one JSON value from `input` (must consume the whole string
/// up to trailing whitespace).
pub fn parse_json(input: &str) -> Result<Json, ProtoError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ProtoError::new(format!(
            "trailing garbage at byte {pos}"
        )));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\r' | b'\n') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ProtoError> {
    if depth > MAX_JSON_DEPTH {
        return Err(ProtoError::new("nesting too deep"));
    }
    skip_ws(bytes, pos);
    let Some(&c) = bytes.get(*pos) else {
        return Err(ProtoError::new("unexpected end of input"));
    };
    match c {
        b'{' => parse_obj(bytes, pos, depth),
        b'[' => parse_arr(bytes, pos, depth),
        b'"' => parse_str(bytes, pos).map(Json::Str),
        b't' => parse_lit(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(bytes, pos, "null", Json::Null),
        b'-' | b'0'..=b'9' => parse_num(bytes, pos),
        _ => Err(ProtoError::new(format!(
            "unexpected byte 0x{c:02x} at {pos}",
            pos = *pos
        ))),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, ProtoError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(ProtoError::new(format!("invalid literal at byte {}", *pos)))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, ProtoError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| ProtoError::new("invalid number bytes"))?;
    let n: f64 = text
        .parse()
        .map_err(|_| ProtoError::new(format!("invalid number {text:?}")))?;
    if !n.is_finite() {
        return Err(ProtoError::new("non-finite number"));
    }
    Ok(Json::Num(n))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, ProtoError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = bytes.get(*pos) else {
            return Err(ProtoError::new("unterminated string"));
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(ProtoError::new("unterminated escape"));
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| ProtoError::new("bad \\u escape"))?;
                        *pos += 4;
                        // Surrogates are rejected rather than paired:
                        // protocol strings are ASCII-ish reasons and
                        // op names, not arbitrary UTF-16 payloads.
                        let ch = char::from_u32(hex)
                            .ok_or_else(|| ProtoError::new("bad \\u code point"))?;
                        out.push(ch);
                    }
                    _ => return Err(ProtoError::new("unknown escape")),
                }
            }
            // Raw control bytes are invalid JSON; multi-byte UTF-8
            // sequences pass through (the input is a &str already).
            0x00..=0x1f => return Err(ProtoError::new("raw control byte in string")),
            _ => {
                // Re-assemble the UTF-8 sequence this byte starts.
                let len = utf8_len(c);
                let chunk = bytes
                    .get(*pos - 1..*pos - 1 + len)
                    .and_then(|b| std::str::from_utf8(b).ok())
                    .ok_or_else(|| ProtoError::new("invalid UTF-8 in string"))?;
                out.push_str(chunk);
                *pos += len - 1;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ProtoError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(ProtoError::new("expected ',' or ']'")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ProtoError> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(ProtoError::new("expected object key"));
        }
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(ProtoError::new("expected ':'"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(ProtoError::new("expected ',' or '}'")),
        }
    }
}

/// Escape a string for embedding in a JSON response line.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// One parsed protocol request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Evaluate a pivoted-subgraph-isomorphism query.
    Query {
        /// Correlation id echoed on the response.
        id: u64,
        /// The query, validated by [`PivotedQuery::from_parts`].
        query: PivotedQuery,
        /// Client-requested deadline, milliseconds from receipt.
        deadline_ms: Option<u64>,
    },
    /// Apply a graph-update batch (evolving deployments only).
    Update {
        /// Correlation id echoed on the response.
        id: u64,
        /// The batch, in order.
        updates: Vec<GraphUpdate>,
    },
    /// Report serving stats.
    Stats {
        /// Correlation id echoed on the response.
        id: u64,
    },
    /// Gracefully drain and stop the server.
    Shutdown {
        /// Correlation id echoed on the response.
        id: u64,
        /// Grace period for the drain, milliseconds.
        grace_ms: u64,
    },
}

impl Request {
    /// The correlation id carried by any request kind.
    pub fn id(&self) -> u64 {
        match self {
            Request::Query { id, .. }
            | Request::Update { id, .. }
            | Request::Stats { id }
            | Request::Shutdown { id, .. } => *id,
        }
    }
}

/// Grace period used when a `shutdown` request omits `grace_ms`.
pub const DEFAULT_SHUTDOWN_GRACE_MS: u64 = 1_000;

fn field_u64(obj: &Json, key: &str) -> Result<u64, ProtoError> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtoError::new(format!("missing or invalid {key:?}")))
}

fn field_id(obj: &Json) -> Result<u64, ProtoError> {
    field_u64(obj, "id")
}

/// Parse one request line. Errors carry a client-safe message; the id
/// (when recoverable from the malformed line) is included so the
/// server can still correlate the error response.
pub fn parse_request(line: &str) -> Result<Request, (Option<u64>, ProtoError)> {
    let value = parse_json(line).map_err(|e| (None, e))?;
    let id = value.get("id").and_then(Json::as_u64);
    let parsed = parse_request_value(&value);
    parsed.map_err(|e| (id, e))
}

fn parse_request_value(value: &Json) -> Result<Request, ProtoError> {
    if !matches!(value, Json::Obj(_)) {
        return Err(ProtoError::new("request must be a JSON object"));
    }
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new("missing or invalid \"op\""))?;
    match op {
        "query" => {
            let id = field_id(value)?;
            let labels = value
                .get("labels")
                .and_then(Json::as_arr)
                .ok_or_else(|| ProtoError::new("missing or invalid \"labels\""))?
                .iter()
                .map(|l| {
                    l.as_u64()
                        .filter(|&l| l <= LabelId::MAX as u64)
                        .map(|l| l as LabelId)
                        .ok_or_else(|| ProtoError::new("invalid label"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let edges = value
                .get("edges")
                .and_then(Json::as_arr)
                .ok_or_else(|| ProtoError::new("missing or invalid \"edges\""))?
                .iter()
                .map(|e| match e.as_arr() {
                    Some([u, v]) => {
                        let u = u
                            .as_u64()
                            .filter(|&n| n <= NodeId::MAX as u64)
                            .ok_or_else(|| ProtoError::new("invalid edge endpoint"))?;
                        let v = v
                            .as_u64()
                            .filter(|&n| n <= NodeId::MAX as u64)
                            .ok_or_else(|| ProtoError::new("invalid edge endpoint"))?;
                        Ok((u as NodeId, v as NodeId))
                    }
                    _ => Err(ProtoError::new("edge must be a [u,v] pair")),
                })
                .collect::<Result<Vec<_>, _>>()?;
            let pivot = field_u64(value, "pivot")?;
            if pivot > NodeId::MAX as u64 {
                return Err(ProtoError::new("invalid pivot"));
            }
            let deadline_ms = match value.get("deadline_ms") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or_else(|| ProtoError::new("invalid \"deadline_ms\""))?,
                ),
            };
            let query = PivotedQuery::from_parts(&labels, &edges, pivot as NodeId)
                .map_err(|e| ProtoError::new(format!("invalid query: {e}")))?;
            Ok(Request::Query {
                id,
                query,
                deadline_ms,
            })
        }
        "update" => {
            let id = field_id(value)?;
            let updates = value
                .get("updates")
                .and_then(Json::as_arr)
                .ok_or_else(|| ProtoError::new("missing or invalid \"updates\""))?
                .iter()
                .map(parse_update)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Update { id, updates })
        }
        "stats" => Ok(Request::Stats {
            id: field_id(value)?,
        }),
        "shutdown" => {
            let id = field_id(value)?;
            let grace_ms = match value.get("grace_ms") {
                None | Some(Json::Null) => DEFAULT_SHUTDOWN_GRACE_MS,
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| ProtoError::new("invalid \"grace_ms\""))?,
            };
            Ok(Request::Shutdown { id, grace_ms })
        }
        other => Err(ProtoError::new(format!("unknown op {other:?}"))),
    }
}

fn parse_update(u: &Json) -> Result<GraphUpdate, ProtoError> {
    if let Some(label) = u.get("add_node") {
        let label = label
            .as_u64()
            .filter(|&l| l <= LabelId::MAX as u64)
            .ok_or_else(|| ProtoError::new("invalid add_node label"))?;
        return Ok(GraphUpdate::AddNode {
            label: label as LabelId,
        });
    }
    if let Some(edge) = u.get("add_edge") {
        if let Some([u, v, label]) = edge.as_arr() {
            let get_node = |j: &Json| {
                j.as_u64()
                    .filter(|&n| n <= NodeId::MAX as u64)
                    .map(|n| n as NodeId)
                    .ok_or_else(|| ProtoError::new("invalid add_edge endpoint"))
            };
            let label = label
                .as_u64()
                .filter(|&l| l <= LabelId::MAX as u64)
                .ok_or_else(|| ProtoError::new("invalid add_edge label"))?;
            return Ok(GraphUpdate::AddEdge {
                u: get_node(u)?,
                v: get_node(v)?,
                label: label as LabelId,
            });
        }
        return Err(ProtoError::new("add_edge must be [u,v,label]"));
    }
    Err(ProtoError::new(
        "update must be {\"add_node\":L} or {\"add_edge\":[u,v,label]}",
    ))
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// Structured error kinds the server emits; the wire string is
/// [`ErrorKind::wire_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not a valid protocol request, or its query is
    /// deeper than a sharded deployment's halo.
    BadRequest,
    /// The per-connection token-bucket quota is exhausted.
    Quota,
    /// Queue-depth admission control shed the request.
    Shed,
    /// The server is draining and accepts no new work.
    Draining,
    /// The job's deadline expired before it could run.
    Deadline,
    /// The job was aborted by a shutdown drain.
    Aborted,
    /// A graph-update batch was rejected.
    Update,
}

impl ErrorKind {
    /// The `"error"` field value on the wire.
    pub fn wire_name(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Quota => "quota",
            ErrorKind::Shed => "shed",
            ErrorKind::Draining => "draining",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Aborted => "aborted",
            ErrorKind::Update => "update",
        }
    }
}

/// Serialize an error response line (no trailing newline). An absent
/// id serializes as `null` — the client could not be correlated.
pub fn error_line(
    id: Option<u64>,
    kind: ErrorKind,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let id = id.map_or_else(|| "null".to_string(), |i| i.to_string());
    let mut out = format!(
        "{{\"id\":{id},\"ok\":false,\"error\":\"{}\",\"message\":\"{}\"",
        kind.wire_name(),
        escape(message)
    );
    if let Some(ms) = retry_after_ms {
        out.push_str(&format!(",\"retry_after_ms\":{ms}"));
    }
    out.push('}');
    out
}

/// Serialize a query result line. Results that are structured
/// deadline/shutdown/too-deep failures (see
/// [`DEADLINE_EXPIRED_REASON`], [`ABORTED_BY_SHUTDOWN_REASON`] and
/// [`QUERY_TOO_DEEP_REASON`]) become `"error":"deadline"` /
/// `"error":"aborted"` / `"error":"bad_request"` responses, so a
/// client sees exactly one answer *or* one structured failure per
/// accepted job.
pub fn query_result_line(id: u64, r: &PsiResult) -> String {
    if let [failure] = r.failures.nodes.as_slice() {
        if r.valid.is_empty() && failure.reason == DEADLINE_EXPIRED_REASON {
            return error_line(Some(id), ErrorKind::Deadline, DEADLINE_EXPIRED_REASON, None);
        }
        if r.valid.is_empty() && failure.reason == ABORTED_BY_SHUTDOWN_REASON {
            return error_line(Some(id), ErrorKind::Aborted, ABORTED_BY_SHUTDOWN_REASON, None);
        }
        if r.valid.is_empty() && failure.reason.starts_with(QUERY_TOO_DEEP_REASON) {
            return error_line(Some(id), ErrorKind::BadRequest, &failure.reason, None);
        }
    }
    let mut out = format!("{{\"id\":{id},\"ok\":true,\"valid\":[");
    for (i, v) in r.valid.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push_str(&format!(
        "],\"candidates\":{},\"steps\":{},\"unresolved\":{}",
        r.candidates, r.steps, r.unresolved
    ));
    if !r.failures.nodes.is_empty() {
        out.push_str(",\"failures\":[");
        for (i, f) in r.failures.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"node\":{},\"reason\":\"{}\"}}",
                f.node,
                escape(&f.reason)
            ));
        }
        out.push(']');
    }
    out.push('}');
    out
}

/// Serialize an update-report response line.
pub fn update_report_line(id: u64, r: &UpdateReport) -> String {
    format!(
        "{{\"id\":{id},\"ok\":true,\"epoch\":{},\"nodes_added\":{},\"edges_added\":{},\
         \"duplicate_edges\":{},\"rows_repaired\":{}}}",
        r.epoch, r.nodes_added, r.edges_added, r.duplicate_edges, r.rows_repaired
    )
}

/// Serving-tier numbers reported by the `stats` op, merging service
/// counters with front-door admission counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireStats {
    /// [`ServiceStats`] of the backing service.
    pub service: ServiceStats,
    /// Jobs currently queued behind the front door.
    pub queue_depth: usize,
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Requests admitted past quota + queue-depth control.
    pub admitted: u64,
    /// Requests shed by quota or queue-depth control.
    pub shed: u64,
}

/// Serialize a stats response line.
pub fn stats_line(id: u64, s: &WireStats) -> String {
    format!(
        "{{\"id\":{id},\"ok\":true,\"queries_served\":{},\"queue_depth\":{},\"workers\":{},\
         \"admitted\":{},\"shed\":{},\"deadline_expired\":{},\"drained\":{},\
         \"graph_epoch\":{},\"requeued_jobs\":{},\"worker_panics\":{}}}",
        s.service.queries_served,
        s.queue_depth,
        s.workers,
        s.admitted,
        s.shed,
        s.service.deadline_expired,
        s.service.drained,
        s.service.graph_epoch,
        s.service.requeued_jobs,
        s.service.worker_panics
    )
}

/// Serialize a drain-report response line (the `shutdown` op answer).
pub fn drain_line(id: u64, r: DrainReport) -> String {
    format!(
        "{{\"id\":{id},\"ok\":true,\"drained\":{},\"aborted\":{}}}",
        r.drained, r.aborted
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_query_request() {
        let line = r#"{"op":"query","id":7,"labels":[0,1,2],"edges":[[0,1],[1,2]],"pivot":0,"deadline_ms":250}"#;
        let req = parse_request(line).expect("valid request");
        match req {
            Request::Query {
                id,
                query,
                deadline_ms,
            } => {
                assert_eq!(id, 7);
                assert_eq!(query.pivot(), 0);
                assert_eq!(query.graph().node_count(), 3);
                assert_eq!(deadline_ms, Some(250));
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_update_stats_shutdown() {
        let req = parse_request(
            r#"{"op":"update","id":1,"updates":[{"add_node":2},{"add_edge":[0,5,1]}]}"#,
        )
        .expect("valid");
        match req {
            Request::Update { id, updates } => {
                assert_eq!(id, 1);
                assert_eq!(
                    updates,
                    vec![
                        GraphUpdate::AddNode { label: 2 },
                        GraphUpdate::AddEdge { u: 0, v: 5, label: 1 },
                    ]
                );
            }
            other => panic!("wrong request: {other:?}"),
        }
        assert!(matches!(
            parse_request(r#"{"op":"stats","id":3}"#).expect("valid"),
            Request::Stats { id: 3 }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown","id":4,"grace_ms":50}"#).expect("valid"),
            Request::Shutdown { id: 4, grace_ms: 50 }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown","id":4}"#).expect("valid"),
            Request::Shutdown {
                id: 4,
                grace_ms: DEFAULT_SHUTDOWN_GRACE_MS
            }
        ));
    }

    #[test]
    fn malformed_lines_error_and_keep_the_id_when_possible() {
        let (id, _) = parse_request(r#"{"op":"nope","id":9}"#).expect_err("unknown op");
        assert_eq!(id, Some(9), "id recovered from a bad request");
        let (id, _) = parse_request("not json at all").expect_err("garbage");
        assert_eq!(id, None);
        // Deep nesting is rejected, not a stack overflow.
        let deep = "[".repeat(2000) + &"]".repeat(2000);
        assert!(parse_json(&deep).is_err());
    }

    #[test]
    fn ids_beyond_the_exact_f64_range_are_refused() {
        // 2^53 + 1 parses to the f64 2^53: answering it would echo an
        // id the client never sent.
        let (id, e) = parse_request(r#"{"op":"stats","id":9007199254740993}"#)
            .expect_err("id above 2^53 - 1");
        assert_eq!(id, None);
        assert!(e.message.contains("\"id\""), "{e}");
        // 2^64 used to saturate to u64::MAX.
        assert!(parse_request(r#"{"op":"stats","id":18446744073709551616}"#).is_err());
        assert!(parse_request(r#"{"op":"stats","id":9007199254740992}"#).is_err());
        // The largest exact integer still round-trips verbatim.
        let req = parse_request(r#"{"op":"stats","id":9007199254740991}"#).expect("2^53 - 1");
        assert_eq!(req.id(), MAX_WIRE_INT);
    }

    #[test]
    fn json_roundtrip_essentials() {
        let v = parse_json(r#"{"a":[1,2.5,-3],"b":"x\"\nA","c":true,"d":null}"#)
            .expect("valid json");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "x\"\nA");
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn structured_failures_become_error_responses() {
        let mut r = PsiResult::empty(0, 0);
        r.failures.record(3, DEADLINE_EXPIRED_REASON, 0);
        let line = query_result_line(9, &r);
        assert!(line.contains("\"error\":\"deadline\""), "{line}");
        let mut r = PsiResult::empty(0, 0);
        r.failures.record(3, ABORTED_BY_SHUTDOWN_REASON, 0);
        let line = query_result_line(9, &r);
        assert!(line.contains("\"error\":\"aborted\""), "{line}");
        let mut r = PsiResult::empty(0, 0);
        let reason = format!("{QUERY_TOO_DEEP_REASON} (eccentricity 5 > halo depth 4)");
        r.failures.record(3, &reason, 0);
        let line = query_result_line(9, &r);
        assert!(line.contains("\"error\":\"bad_request\""), "{line}");
        assert!(line.contains("eccentricity 5 > halo depth 4"), "{line}");
        // A real answer stays ok:true even with incidental failures.
        let mut r = PsiResult::empty(5, 10);
        r.valid = vec![1, 4];
        r.failures.record(2, "node timeout", 1);
        let line = query_result_line(2, &r);
        assert!(line.starts_with("{\"id\":2,\"ok\":true,\"valid\":[1,4]"), "{line}");
        assert!(line.contains("node timeout"), "{line}");
    }

    /// A valid request line of each op, carrying `id`.
    fn valid_line(op: usize, id: u64) -> String {
        match op {
            0 => format!(
                r#"{{"op":"query","id":{id},"labels":[0,1,2],"edges":[[0,1],[1,2]],"pivot":0,"deadline_ms":250}}"#
            ),
            1 => format!(
                r#"{{"op":"update","id":{id},"updates":[{{"add_node":2}},{{"add_edge":[0,5,1]}}]}}"#
            ),
            2 => format!(r#"{{"op":"stats","id":{id}}}"#),
            _ => format!(r#"{{"op":"shutdown","id":{id},"grace_ms":50}}"#),
        }
    }

    /// Truncate, splice random bytes into, drop or double characters
    /// of `line`, driven by `seed`; the result is decoded lossily, as
    /// the server decodes a line off the wire.
    fn mutate(line: &str, kind: usize, seed: u64) -> String {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = line.as_bytes().to_vec();
        let at = rng.gen_range(0..=bytes.len());
        match kind {
            0 => bytes.truncate(at),
            1 => {
                let n = rng.gen_range(1..8usize);
                let junk: Vec<u8> = (0..n).map(|_| rng.gen()).collect();
                bytes.splice(at..at, junk);
            }
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ if at < bytes.len() => bytes.insert(at, bytes[at]),
            _ => {}
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes off the wire never panic the parser.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
            let line = String::from_utf8_lossy(&bytes);
            let _ = parse_request(&line);
        }

        /// Mutated valid requests never panic the parser, and whenever
        /// the mutated line is still a JSON object with a valid `id`,
        /// the outcome — request or error — carries that id.
        #[test]
        fn mutated_requests_never_panic_and_keep_a_parsable_id(
            op in 0usize..4,
            id in 0u64..=MAX_WIRE_INT,
            kind in 0usize..4,
            seed in any::<u64>(),
        ) {
            let line = mutate(&valid_line(op, id), kind, seed);
            let want = match parse_json(&line) {
                Ok(v @ Json::Obj(_)) => v.get("id").and_then(Json::as_u64),
                _ => None,
            };
            match parse_request(&line) {
                Ok(req) => prop_assert_eq!(Some(req.id()), want, "line {}", line),
                Err((got, _)) => {
                    if want.is_some() {
                        prop_assert_eq!(got, want, "line {}", line);
                    }
                }
            }
        }
    }
}
