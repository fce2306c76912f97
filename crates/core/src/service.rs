//! Wire protocol and client for the `hyperpredd` compile-and-simulate
//! service: hand-written JSON bodies read back through the one
//! tokenizing reader in [`crate::json`] (no serde in the tree), a
//! minimal HTTP/1.1 reader/writer shared by the daemon and its clients,
//! and the `bench-load` request generator.
//!
//! # Protocol
//!
//! Everything rides HTTP/1.1 over a local TCP socket, one request per
//! connection (`Connection: close`). Endpoints:
//!
//! * `POST /v1/cell` — body is one cell-request object; response is one
//!   cell-response object.
//! * `POST /v1/cells` — body is `{"cells":[...]}`; response is
//!   `{"results":[...]}` in request order.
//! * `GET /v1/stats` — daemon counters (cells stored, hits, computed,
//!   failed, rejected, conflicts, queue depth).
//! * `GET /healthz` — liveness probe, body `ok`.
//!
//! A cell request. Bodies are tokenized, so key order carries no meaning
//! and no string value can spoof a key; duplicate keys, trailing bytes,
//! out-of-range machine parameters and non-integer numbers are `400`s:
//!
//! ```text
//! {"name":"gen-branchy-1","model":"fullpred","issue":8,"branches":1,
//!  "memory":"perfect","max_cycles":10000000000,"args":[1,-2],
//!  "source":"int main() { ... }"}
//! ```
//!
//! A cell response is one of five statuses. `hit` and `computed` carry
//! the full flattened [`SimStats`] plus the degradation flag; `failed`
//! carries the stage, stable triage signature, and rendered error;
//! `rejected` is the typed backpressure answer (queue full — retry
//! later); `conflict` means the store refuses the key (two different
//! results were recorded under the same fingerprint — see
//! [`JournalConflict`](crate::journal::JournalConflict)).
//!
//! ```text
//! {"status":"hit","fingerprint":"92ab...","degraded":false,"cycles":123,...,"ret":42}
//! {"status":"failed","fingerprint":"92ab...","stage":"compile","signature":"compile: ...","error":"..."}
//! {"status":"rejected","fingerprint":"","error":"queue full (depth 256); retry later"}
//! ```

use crate::journal::{
    memory_slug, model_slug, parse_memory_slug, parse_model_slug, read_stats, stats_json,
};
use crate::json::{self, escape, Value};
use crate::matrix::CellRequest;
use crate::pipeline::Model;
use hyperpred_sim::{MemoryModel, SimStats, DEFAULT_CYCLE_LIMIT};
use hyperpred_workloads::gen::{self, Profile};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Largest request/response body either side will read. Bounded so a
/// damaged or hostile peer degrades into a typed `413`, never unbounded
/// memory.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// The unsigned integer member `key` of a JSON object body, if any.
pub fn get_u64(json: &str, key: &str) -> Option<u64> {
    json::parse(json).ok()?.get(key)?.as_u64()
}

// ---------------------------------------------------------------------------
// Cell request serialization.
// ---------------------------------------------------------------------------

/// Serializes one request.
pub fn request_to_json(req: &CellRequest) -> String {
    let args: Vec<String> = req.args.iter().map(i64::to_string).collect();
    format!(
        "{{\"name\":\"{}\",\"model\":\"{}\",\"issue\":{},\"branches\":{},\
         \"memory\":\"{}\",\"max_cycles\":{},\"args\":[{}],\"source\":\"{}\"}}",
        escape(&req.name),
        model_slug(Some(req.model)),
        req.issue,
        req.branches,
        memory_slug(&req.memory),
        req.max_cycles,
        args.join(","),
        escape(&req.source),
    )
}

/// Parses one request object; the error names the first missing or
/// malformed field (it becomes the daemon's `400` body).
pub fn parse_request(json: &str) -> Result<CellRequest, String> {
    request_from(&json::parse(json)?)
}

fn request_from(v: &Value) -> Result<CellRequest, String> {
    let model = v.req("model", Value::as_str)?;
    // "baseline" names the matrix's denominator slot, not a model a
    // request can ask for.
    let Some(Some(model)) = parse_model_slug(model) else {
        return Err(format!("unknown model `{model}`"));
    };
    let memory = v.opt("memory", Value::as_str)?.unwrap_or("perfect");
    let memory = parse_memory_slug(memory).ok_or_else(|| format!("unknown memory `{memory}`"))?;
    let u32_field = |key| v.req(key, |n| n.as_u64().and_then(|n| u32::try_from(n).ok()));
    let args = v.opt("args", |a| {
        a.as_array()?.iter().map(Value::as_i64).collect()
    })?;
    Ok(CellRequest {
        name: v.opt("name", Value::as_str)?.unwrap_or("").to_string(),
        source: v.req("source", Value::as_str)?.to_string(),
        args: args.unwrap_or_default(),
        model,
        issue: u32_field("issue")?,
        branches: u32_field("branches")?,
        memory,
        max_cycles: v
            .opt("max_cycles", Value::as_u64)?
            .unwrap_or(DEFAULT_CYCLE_LIMIT),
    })
}

/// The object elements of the array member `key`, each read by `read`;
/// an error names the failing element's index.
fn array_of<T>(
    json: &str,
    key: &str,
    what: &str,
    read: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let body = json::parse(json)?;
    let items = body.req(key, Value::as_array)?;
    let object = |item: &Value| match item {
        Value::Object(_) => read(item),
        _ => Err("not an object".to_string()),
    };
    let each = items.iter().enumerate();
    each.map(|(i, item)| object(item).map_err(|e| format!("{what} {i}: {e}")))
        .collect()
}

/// Serializes a batch body: `{"cells":[...]}`.
pub fn batch_to_json(reqs: &[CellRequest]) -> String {
    let cells: Vec<String> = reqs.iter().map(request_to_json).collect();
    format!("{{\"cells\":[{}]}}", cells.join(","))
}

/// Parses a batch body into its requests, in order.
pub fn parse_batch(json: &str) -> Result<Vec<CellRequest>, String> {
    array_of(json, "cells", "cell", request_from)
}

// ---------------------------------------------------------------------------
// Cell response serialization.
// ---------------------------------------------------------------------------

/// Per-request outcome class (the `status` wire field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Served from the store — no compile, no simulation.
    Hit,
    /// Computed by this request and recorded in the store.
    Computed,
    /// Permanently failed; the payload describes why.
    Failed,
    /// Bounded queue was full — typed backpressure, retry later.
    Rejected,
    /// The store refuses this fingerprint: two different results were
    /// recorded under it, so neither can be trusted.
    Conflict,
}

impl CellStatus {
    /// The wire slug.
    pub fn as_str(self) -> &'static str {
        match self {
            CellStatus::Hit => "hit",
            CellStatus::Computed => "computed",
            CellStatus::Failed => "failed",
            CellStatus::Rejected => "rejected",
            CellStatus::Conflict => "conflict",
        }
    }

    /// Parses the wire slug (the inverse of [`CellStatus::as_str`]).
    pub fn parse(s: &str) -> Option<CellStatus> {
        use CellStatus::*;
        [Hit, Computed, Failed, Rejected, Conflict]
            .into_iter()
            .find(|status| status.as_str() == s)
    }
}

/// One per-request structured answer.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResponse {
    /// Outcome class.
    pub status: CellStatus,
    /// The request's content address (empty for `rejected`, whose work
    /// was never admitted).
    pub fingerprint: String,
    /// The stats, for `hit`/`computed`.
    pub stats: Option<SimStats>,
    /// True when the degradation ladder had to disable passes.
    pub degraded: bool,
    /// Failure stage slug, for `failed`.
    pub stage: Option<String>,
    /// Stable triage signature, for `failed`.
    pub signature: Option<String>,
    /// Rendered error, for `failed`/`rejected`.
    pub error: Option<String>,
}

impl CellResponse {
    /// An answer carrying only a status, a fingerprint and an error.
    fn bare(status: CellStatus, fingerprint: String, error: Option<String>) -> Self {
        CellResponse {
            status,
            fingerprint,
            stats: None,
            degraded: false,
            stage: None,
            signature: None,
            error,
        }
    }

    /// A successful answer (`hit` or `computed`).
    pub fn served(
        status: CellStatus,
        fingerprint: String,
        stats: SimStats,
        degraded: bool,
    ) -> Self {
        CellResponse {
            stats: Some(stats),
            degraded,
            ..Self::bare(status, fingerprint, None)
        }
    }

    /// A failure answer.
    pub fn failed(fingerprint: String, stage: String, signature: String, error: String) -> Self {
        CellResponse {
            stage: Some(stage),
            signature: Some(signature),
            ..Self::bare(CellStatus::Failed, fingerprint, Some(error))
        }
    }

    /// The typed backpressure answer.
    pub fn rejected(error: String) -> Self {
        Self::bare(CellStatus::Rejected, String::new(), Some(error))
    }

    /// The conflicted-key refusal.
    pub fn conflict(fingerprint: String) -> Self {
        let error = "fingerprint conflict: key quarantined".to_string();
        Self::bare(CellStatus::Conflict, fingerprint, Some(error))
    }
}

/// Serializes one response object.
pub fn response_to_json(resp: &CellResponse) -> String {
    let mut out = format!(
        "{{\"status\":\"{}\",\"fingerprint\":\"{}\"",
        resp.status.as_str(),
        escape(&resp.fingerprint)
    );
    if let Some(s) = &resp.stats {
        out.push_str(&format!(
            ",\"degraded\":{},{}",
            resp.degraded,
            stats_json(s)
        ));
    }
    if let Some(stage) = &resp.stage {
        out.push_str(&format!(",\"stage\":\"{}\"", escape(stage)));
    }
    if let Some(sig) = &resp.signature {
        out.push_str(&format!(",\"signature\":\"{}\"", escape(sig)));
    }
    if let Some(err) = &resp.error {
        out.push_str(&format!(",\"error\":\"{}\"", escape(err)));
    }
    out.push('}');
    out
}

/// Parses one response object. A `hit`/`computed` answer must carry
/// every [`SimStats`] field as an integer.
pub fn parse_response(json: &str) -> Result<CellResponse, String> {
    response_from(&json::parse(json)?)
}

fn response_from(v: &Value) -> Result<CellResponse, String> {
    let status_slug = v.req("status", Value::as_str)?;
    let status =
        CellStatus::parse(status_slug).ok_or_else(|| format!("unknown status `{status_slug}`"))?;
    let stats = match status {
        CellStatus::Hit | CellStatus::Computed => Some(read_stats(v)?),
        _ => None,
    };
    let text = |key| v.opt(key, Value::as_str).map(|s| s.map(str::to_string));
    Ok(CellResponse {
        status,
        fingerprint: text("fingerprint")?.unwrap_or_default(),
        stats,
        degraded: v.opt("degraded", Value::as_bool)?.unwrap_or(false),
        stage: text("stage")?,
        signature: text("signature")?,
        error: text("error")?,
    })
}

/// Serializes a batch response: `{"results":[...]}`.
pub fn batch_response_to_json(resps: &[CellResponse]) -> String {
    let results: Vec<String> = resps.iter().map(response_to_json).collect();
    format!("{{\"results\":[{}]}}", results.join(","))
}

/// Parses a batch response into its per-cell answers, in order.
pub fn parse_batch_response(json: &str) -> Result<Vec<CellResponse>, String> {
    array_of(json, "results", "result", response_from)
}

// ---------------------------------------------------------------------------
// Minimal HTTP/1.1, shared by the daemon and its clients.
// ---------------------------------------------------------------------------

/// One parsed HTTP request (the slice of HTTP the service speaks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// `GET` / `POST`.
    pub method: String,
    /// Path only (no query parsing — the protocol does not use queries).
    pub path: String,
    /// Raw body (empty for bodyless requests).
    pub body: String,
}

/// Reads one HTTP request off `stream`. Returns `Ok(None)` on a cleanly
/// closed idle connection (EOF before any bytes).
///
/// # Errors
/// Malformed request lines, bodies over [`MAX_BODY_BYTES`], and
/// transport errors.
pub fn read_http_request(stream: &mut impl Read) -> io::Result<Option<HttpRequest>> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed request line",
        ));
    }
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((k, v)) = header.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("body of {content_length} bytes exceeds cap {MAX_BODY_BYTES}"),
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
    Ok(Some(HttpRequest { method, path, body }))
}

/// Writes one HTTP response (status + body) and flushes.
///
/// # Errors
/// Transport errors only.
pub fn write_http_response(stream: &mut impl Write, status: u16, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Issues one `method path` request with `body` against `addr`
/// (`host:port`) and returns `(status, body)`.
///
/// # Errors
/// Transport errors, malformed responses, bodies over [`MAX_BODY_BYTES`].
pub fn http_call(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let stream = TcpStream::connect(addr)?;
    http_call_on(stream, addr, method, path, body)
}

/// Like [`http_call`], but with bounded connect and read/write timeouts
/// — the variant [`crate::client::Client`] builds on, so a dead or hung
/// daemon degrades into a typed `TimedOut`/`WouldBlock` error instead
/// of blocking forever.
///
/// # Errors
/// See [`http_call`]; additionally `TimedOut` on a slow connect and the
/// platform's read-timeout kind (`WouldBlock` on Unix) on a stalled
/// response.
pub fn http_call_timeout(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    connect_timeout: Duration,
    read_timeout: Duration,
) -> io::Result<(u16, String)> {
    let mut last = io::Error::new(
        io::ErrorKind::AddrNotAvailable,
        format!("no addresses resolved for {addr}"),
    );
    let mut stream = None;
    for sock_addr in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sock_addr, connect_timeout) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(e) => last = e,
        }
    }
    let Some(stream) = stream else {
        return Err(last);
    };
    stream.set_read_timeout(Some(read_timeout)).ok();
    stream.set_write_timeout(Some(read_timeout)).ok();
    http_call_on(stream, addr, method, path, body)
}

/// The shared request/response exchange over an already-connected stream.
fn http_call_on(
    mut stream: TcpStream,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    stream.set_nodelay(true).ok();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        // The server died before sending a byte (kill mid-request):
        // retryable transport loss, not a protocol violation.
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        ));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed status line: {status_line:?}"),
            )
        })?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((k, v)) = header.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().ok();
            }
        }
    }
    let body = match content_length {
        Some(n) if n > MAX_BODY_BYTES => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response body of {n} bytes exceeds cap {MAX_BODY_BYTES}"),
            ))
        }
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            String::from_utf8_lossy(&buf).into_owned()
        }
        None => {
            let mut buf = String::new();
            reader
                .take(MAX_BODY_BYTES as u64)
                .read_to_string(&mut buf)?;
            buf
        }
    };
    Ok((status, body))
}

/// `POST path` with a JSON body.
///
/// # Errors
/// See [`http_call`].
pub fn http_post(addr: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    http_call(addr, "POST", path, body)
}

// ---------------------------------------------------------------------------
// Load generation (`hyperpredc bench-load`).
// ---------------------------------------------------------------------------

/// What `bench-load` sends: seeded generated programs fanned across the
/// three models, batched into `/v1/cells` posts.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Total cell requests to send.
    pub cells: usize,
    /// Cells per `/v1/cells` post.
    pub batch: usize,
    /// Base seed for the program generator.
    pub seed: u64,
    /// Issue width every request asks for.
    pub issue: u32,
    /// Branch slots every request asks for.
    pub branches: u32,
    /// Attempts per batch (transport retries and rejected-cell
    /// re-posts), with exponential backoff between them.
    pub attempts: u32,
    /// Base backoff between attempts (doubles per attempt, jittered).
    pub backoff: Duration,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: "127.0.0.1:7199".to_string(),
            cells: 120,
            batch: 40,
            seed: 1,
            issue: 8,
            branches: 1,
            attempts: 4,
            backoff: Duration::from_millis(100),
        }
    }
}

/// The deterministic request list for a [`LoadConfig`]: generated MiniC
/// programs (cycling profiles and seeds) crossed with the three models,
/// so repeated invocations with the same seed address the same cells —
/// the second run is the cache-hit measurement.
pub fn load_requests(cfg: &LoadConfig) -> Vec<CellRequest> {
    let mut reqs = Vec::with_capacity(cfg.cells);
    let mut round = 0u64;
    'outer: loop {
        for profile in Profile::ALL {
            let program = gen::generate(profile, cfg.seed.wrapping_add(round));
            for model in Model::ALL {
                if reqs.len() >= cfg.cells {
                    break 'outer;
                }
                reqs.push(CellRequest {
                    name: program.name.clone(),
                    source: program.source.clone(),
                    args: program.args.clone(),
                    model,
                    issue: cfg.issue,
                    branches: cfg.branches,
                    memory: MemoryModel::Perfect,
                    max_cycles: DEFAULT_CYCLE_LIMIT,
                });
            }
        }
        round += 1;
    }
    reqs
}

/// One measured `bench-load` pass.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: usize,
    /// Answers served from the store.
    pub hits: usize,
    /// Answers computed fresh.
    pub computed: usize,
    /// Permanent failures.
    pub failed: usize,
    /// Typed backpressure rejections.
    pub rejected: usize,
    /// Conflicted-key refusals.
    pub conflicts: usize,
    /// Wall time for the whole pass.
    pub wall: Duration,
    /// Requests per second (wall clamped to a minimum measurable
    /// duration, so a tiny pass reports a finite rate).
    pub requests_per_sec: f64,
    /// `hits / sent` (0 when nothing was sent).
    pub hit_rate: f64,
    /// Cells whose batch could not be delivered at all (connection
    /// refused/reset/timeout after every retry). Counted under
    /// [`LoadReport::failed`] too — these are the typed `transport`
    /// failures in the response list.
    pub transport_failures: usize,
    /// Retry rounds the client spent (transport and rejected-cell).
    pub retries: u64,
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cells in {:.2?}: {:.0} req/s, {} hit ({:.1}%), {} computed, \
             {} failed, {} rejected, {} conflicted",
            self.sent,
            self.wall,
            self.requests_per_sec,
            self.hits,
            self.hit_rate * 100.0,
            self.computed,
            self.failed,
            self.rejected,
            self.conflicts,
        )?;
        if self.transport_failures > 0 || self.retries > 0 {
            write!(
                f,
                " ({} transport-failed, {} retries)",
                self.transport_failures, self.retries
            )?;
        }
        Ok(())
    }
}

/// Sends `reqs` to the daemon in batches and tallies the answers.
/// Delivery goes through [`crate::client::Client`], so a refused or
/// reset connection is retried with backoff; a batch that stays
/// undeliverable after every attempt degrades into typed per-cell
/// `transport` failures (counted in
/// [`LoadReport::transport_failures`]) and the pass *continues* — it
/// never aborts mid-stream.
///
/// # Errors
/// Protocol errors only: a non-200/503 answer, an unparseable response,
/// or a result count that does not match the batch. An unreachable
/// daemon is a typed failure in the report, not an `Err`.
pub fn run_load(
    cfg: &LoadConfig,
    reqs: &[CellRequest],
) -> io::Result<(LoadReport, Vec<CellResponse>)> {
    use crate::client::{Client, ClientConfig, ClientError};
    let client = Client::new(ClientConfig {
        addr: cfg.addr.clone(),
        max_attempts: cfg.attempts.max(1),
        backoff: cfg.backoff,
        ..ClientConfig::default()
    });
    let started = Instant::now();
    let mut responses: Vec<CellResponse> = Vec::with_capacity(reqs.len());
    let mut transport_failures = 0usize;
    for chunk in reqs.chunks(cfg.batch.max(1)) {
        match client.post_cells(chunk) {
            Ok(batch) => responses.extend(batch),
            Err(ClientError::Exhausted { attempts, last }) => {
                transport_failures += chunk.len();
                for req in chunk {
                    responses.push(CellResponse::failed(
                        String::new(),
                        "transport".to_string(),
                        "transport: undeliverable".to_string(),
                        format!(
                            "cell {}: transport failure after {attempts} attempt(s): {last}",
                            req.name
                        ),
                    ));
                }
            }
            Err(ClientError::Fatal(e)) => return Err(e),
        }
    }
    let wall = started.elapsed();
    let mut report = LoadReport {
        sent: responses.len(),
        hits: 0,
        computed: 0,
        failed: 0,
        rejected: 0,
        conflicts: 0,
        wall,
        requests_per_sec: 0.0,
        hit_rate: 0.0,
        transport_failures,
        retries: client.retries(),
    };
    for r in &responses {
        match r.status {
            CellStatus::Hit => report.hits += 1,
            CellStatus::Computed => report.computed += 1,
            CellStatus::Failed => report.failed += 1,
            CellStatus::Rejected => report.rejected += 1,
            CellStatus::Conflict => report.conflicts += 1,
        }
    }
    // Clamp like the bench harness: a sub-nanosecond wall must report a
    // finite rate the JSON layer can round-trip.
    let secs = wall.as_secs_f64().max(1e-9);
    report.requests_per_sec = report.sent as f64 / secs;
    if report.sent > 0 {
        report.hit_rate = report.hits as f64 / report.sent as f64;
    }
    Ok((report, responses))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpred_sim::CacheConfig;

    fn stats(seed: u64) -> SimStats {
        SimStats {
            cycles: seed,
            insts: seed + 1,
            nullified: seed + 2,
            branches: seed + 3,
            mispredicts: seed + 4,
            loads: seed + 5,
            stores: seed + 6,
            icache_misses: seed + 7,
            dcache_misses: seed + 8,
            ret: -(seed as i64),
        }
    }

    fn request() -> CellRequest {
        CellRequest {
            name: "gen-branchy-1".to_string(),
            source: "int main() { return 1 + 2; }".to_string(),
            args: vec![1, -2],
            model: Model::FullPred,
            issue: 8,
            branches: 1,
            memory: MemoryModel::Perfect,
            max_cycles: 1_000_000,
        }
    }

    #[test]
    fn request_round_trips() {
        let req = request();
        let json = request_to_json(&req);
        let parsed = parse_request(&json).expect("parses");
        assert_eq!(parsed, req);
    }

    #[test]
    fn request_with_hostile_source_round_trips() {
        // Source text that contains every key pattern the parser looks
        // for, with quotes — the backslash-aware key search must not be
        // spoofed by the escaped copies inside the value.
        let mut req = request();
        req.source =
            "int main() { /* \"issue\":0,\"model\":\"zzz\",\"args\":[9] */ return 3; }".to_string();
        req.memory = MemoryModel::Caches(CacheConfig::default());
        let json = request_to_json(&req);
        let parsed = parse_request(&json).expect("parses");
        assert_eq!(parsed, req);
    }

    /// A request as any standard JSON encoder writes it: tab, CR LF and
    /// a surrogate pair escaped, `é` both raw and as `\u00e9`, and the
    /// optional `\/` escape.
    #[test]
    fn standard_json_escapes_decode_to_the_original_source() {
        let json = "{\"name\":\"std\",\"model\":\"fullpred\",\"issue\":8,\"branches\":1,\
                    \"source\":\"int main() {\\r\\n\\treturn 1; \\/* \u{e9} \\u00e9 \\ud83d\\ude00 *\\/ }\"}";
        let parsed = parse_request(json).expect("parses");
        assert_eq!(
            parsed.source,
            "int main() {\r\n\treturn 1; /* \u{e9} \u{e9} \u{1f600} */ }"
        );
        // Lone surrogates and unknown escapes decode to U+FFFD.
        let json = "{\"model\":\"fullpred\",\"issue\":8,\"branches\":1,\
                    \"source\":\"a\\ud83d b\\ude00 c\\q\"}";
        assert_eq!(
            parse_request(json).expect("parses").source,
            "a\u{fffd} b\u{fffd} c\u{fffd}"
        );
    }

    #[test]
    fn encoded_requests_hold_no_control_bytes() {
        let mut req = request();
        req.name = "tab\tname".to_string();
        req.source = "int main() {\r\n\treturn 2;\u{1}\u{1f} }\n".to_string();
        let json = request_to_json(&req);
        assert!(
            json.bytes().all(|b| b >= 0x20),
            "control byte in encoded request: {json:?}"
        );
        assert_eq!(parse_request(&json).expect("parses"), req);
    }

    #[test]
    fn batch_round_trips() {
        let mut b = request();
        b.name = "second { } [ ] \" cell".to_string();
        b.model = Model::Superblock;
        let reqs = vec![request(), b];
        let json = batch_to_json(&reqs);
        let parsed = parse_batch(&json).expect("parses");
        assert_eq!(parsed, reqs);
    }

    #[test]
    fn responses_round_trip_bit_identically() {
        let cases = vec![
            CellResponse::served(CellStatus::Hit, "aa".to_string(), stats(7), false),
            CellResponse::served(CellStatus::Computed, "bb".to_string(), stats(9), true),
            CellResponse::failed(
                "cc".to_string(),
                "compile".to_string(),
                "compile: 1:2 boom".to_string(),
                "1:2: boom \"quoted\"".to_string(),
            ),
            CellResponse::rejected("queue full (depth 4); retry later".to_string()),
            CellResponse::conflict("dd".to_string()),
        ];
        let json = batch_response_to_json(&cases);
        let parsed = parse_batch_response(&json).expect("parses");
        assert_eq!(parsed, cases, "every status round-trips exactly");
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(parse_request("{}").unwrap_err().contains("model"));
        assert!(parse_request("{\"model\":\"nope\",\"source\":\"x\"}")
            .unwrap_err()
            .contains("unknown model"));
        let no_issue = "{\"model\":\"fullpred\",\"source\":\"int main(){return 0;}\"}";
        assert!(parse_request(no_issue).unwrap_err().contains("issue"));
        assert!(parse_batch("{\"cells\":\"nope\"}").is_err());
    }

    /// Machine parameters are read exactly: a `u32` overflow or a
    /// fraction is a `400`, never some other cell.
    #[test]
    fn out_of_range_and_fractional_machine_params_are_errors() {
        let json = request_to_json(&request());
        for (from, to) in [
            ("\"issue\":8", "\"issue\":4294967304"),
            ("\"issue\":8", "\"issue\":8.9"),
            ("\"issue\":8", "\"issue\":-8"),
            ("\"branches\":1", "\"branches\":4294967297"),
            ("\"max_cycles\":1000000", "\"max_cycles\":1e6"),
        ] {
            let bad = json.replacen(from, to, 1);
            assert_ne!(bad, json);
            let err = parse_request(&bad).expect_err(&bad);
            let key = from.split('"').nth(1).expect("key");
            assert!(err.contains(key), "{err}");
        }
    }

    #[test]
    fn whitespace_between_tokens_is_tolerated() {
        let json = "{\"model\" : \"fullpred\", \"issue\" :8 ,\"branches\": 1,\n\
                    \t\"args\" : [ 1 , -2 ] , \"source\" : \"int main() { return 1 + 2; }\",\
                    \"name\":\"gen-branchy-1\", \"max_cycles\": 1000000 }";
        assert_eq!(parse_request(json).expect("parses"), request());
    }

    #[test]
    fn trailing_bytes_and_duplicate_keys_are_errors() {
        let json = request_to_json(&request());
        assert!(parse_request(&format!("{json}garbage")).is_err());
        let dup = json.replacen("{", "{\"issue\":4,", 1);
        let err = parse_request(&dup).expect_err("duplicate key");
        assert!(err.contains("duplicate key `issue`"), "{err}");
        let err = parse_response("{\"status\":\"hit\",\"status\":\"failed\"}").unwrap_err();
        assert!(err.contains("duplicate key `status`"), "{err}");
    }

    #[test]
    fn served_responses_need_every_stat_as_an_integer() {
        let json = response_to_json(&CellResponse::served(
            CellStatus::Hit,
            "aa".to_string(),
            stats(7),
            false,
        ));
        for key in [
            "cycles",
            "insts",
            "nullified",
            "branches",
            "mispredicts",
            "loads",
            "stores",
            "icache_misses",
            "dcache_misses",
            "ret",
        ] {
            let at = json.find(&format!(",\"{key}\":")).expect("field present");
            let end = json[at + 1..].find([',', '}']).expect("field end") + at + 1;
            let missing = format!("{}{}", &json[..at], &json[end..]);
            let err = parse_response(&missing).expect_err(&missing);
            assert!(err.contains(&format!("missing field `{key}`")), "{err}");
        }
        let fractional = json.replacen("\"cycles\":7", "\"cycles\":12.5", 1);
        let err = parse_response(&fractional).expect_err("fractional cycles");
        assert!(err.contains("bad field `cycles`"), "{err}");
    }

    #[test]
    fn non_object_batch_elements_are_errors_naming_their_index() {
        let req = request_to_json(&request());
        let err = parse_batch(&format!("{{\"cells\":[{req},1,\"x\",{req}]}}")).unwrap_err();
        assert!(err.contains("cell 1: not an object"), "{err}");
        let resp = response_to_json(&CellResponse::conflict("dd".to_string()));
        let err = parse_batch_response(&format!("{{\"results\":[{resp},[]]}}")).unwrap_err();
        assert!(err.contains("result 1: not an object"), "{err}");
    }

    #[test]
    fn load_requests_are_deterministic_and_sized() {
        let cfg = LoadConfig {
            cells: 47,
            ..LoadConfig::default()
        };
        let a = load_requests(&cfg);
        let b = load_requests(&cfg);
        assert_eq!(a.len(), 47);
        assert_eq!(a, b, "same seed, same request list");
        assert!(
            a.iter().any(|r| r.model == Model::CondMove),
            "models are crossed in"
        );
    }

    #[test]
    fn http_request_parsing_handles_bodies_and_eof() {
        let raw = b"POST /v1/cells HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_http_request(&mut &raw[..]).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/cells");
        assert_eq!(req.body, "abcd");
        assert!(read_http_request(&mut &b""[..]).unwrap().is_none());
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(read_http_request(&mut huge.as_bytes()).is_err());
    }
}
