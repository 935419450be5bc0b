//! # `vhdl1-daemon` — analysis-as-a-service over the VHDL1 engine
//!
//! A dependency-free HTTP/1.1 server (`vhdl1d`) that keeps a pool of warm
//! [`Engine`]s resident and serves the same byte-for-byte JSON reports as
//! `vhdl1c analyze` / `vhdl1c verify` over TCP.  Designed for the serving
//! direction of the roadmap: a long-lived process amortises parsing and
//! closure work across requests through the engine memo tables, and — when
//! configured with [`CachePolicy::Persistent`] — across *restarts* through
//! the disk-backed content-addressed artifact store.
//!
//! ## Endpoints
//!
//! * `POST /analyze` — body is VHDL1 source text (or a corpus manifest with
//!   `--! design` headers); response is the schema-3 batch report JSON,
//!   byte-identical to `vhdl1c analyze --format json` over the same input.
//!   Query parameters: `name` (single-source job name, default `design`),
//!   `smoke` (`1`/`true`), `deadline_ms` (per-request watchdog override).
//! * `POST /verify` — same body, plus `rounds` and `seed` query parameters;
//!   responses match `vhdl1c verify --format json`.
//! * `POST /update` — one revision of an edited design: body is one VHDL1
//!   source, and the required `id` query parameter names the job.  Served
//!   like a single-source `POST /analyze?name=ID` (same engines, memo
//!   entries and `deadline_ms` handling), so the bytes are the same; a
//!   revision seen before is a memo hit.
//! * `GET /healthz` — liveness probe, `200 ok`.
//! * `GET /metrics` — Prometheus text exposition: per-stage counters merged
//!   across all worker engines plus daemon request counters.
//! * `POST /shutdown` — graceful drain: stop accepting, finish queued
//!   connections, then exit.  (Pure-std builds cannot trap SIGTERM, so
//!   drain is an endpoint; see ARCHITECTURE.md.)
//!
//! ## Determinism and cache-key discipline
//!
//! Request handling goes through [`vhdl1_cli::run_batch_on`] against a
//! long-lived engine, so report bytes depend only on the job sources and
//! the engine's analysis options — never on worker count, cache warmth, or
//! request interleaving.  Per-request deadlines ride the *watchdog*
//! (`BatchOptions::deadline_ms`), deliberately not the analysis budget:
//! the budget is part of the cache key, and forking it per request would
//! split otherwise-identical artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use vhdl1_cli::{run_batch_on, BatchOptions, Format, Job, VerifyOptions};
use vhdl1_corpus::parse_manifest;
use vhdl1_infoflow::{
    fnv1a64, render_prometheus, AnalysisOptions, CachePolicy, Engine, EngineConfig, EngineStats,
    TraceSnapshot,
};

/// Upper bound on the HTTP header block we are willing to buffer.
const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Upper bound on a request body (a corpus manifest of a few thousand
/// designs fits comfortably; anything larger is refused with 413).
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;
/// Per-connection socket read timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port `0` picks an ephemeral port).
    pub listen: String,
    /// Connection-handler threads, each owning one warm [`Engine`]
    /// (requests shard across engines by source content hash).
    pub workers: usize,
    /// Intra-batch worker count handed to the driver pool for manifest
    /// requests (`<= 1` analyzes designs inline).
    pub jobs: usize,
    /// Engine memo-table policy; [`CachePolicy::Persistent`] makes warm
    /// artifacts survive daemon restarts.
    pub cache: CachePolicy,
    /// Analysis options shared by every engine (fixed for the daemon's
    /// lifetime: options are part of the cache key).
    pub analysis: AnalysisOptions,
    /// Default per-request deadline (watchdog), overridable per request
    /// with `?deadline_ms=`.
    pub deadline_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            workers: 2,
            jobs: 1,
            cache: CachePolicy::Capped(512),
            analysis: AnalysisOptions::default(),
            deadline_ms: None,
        }
    }
}

/// Request counters, one slot per endpoint plus a catch-all.
const ENDPOINTS: [&str; 7] = [
    "analyze", "verify", "update", "healthz", "metrics", "shutdown", "other",
];

struct Shared {
    config: ServerConfig,
    engines: Vec<Engine>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    requests: [AtomicU64; ENDPOINTS.len()],
    panics: AtomicU64,
}

/// A bound, not-yet-running daemon.  [`Server::run`] blocks until a
/// `POST /shutdown` drains the connection queue.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listen address and builds the worker engines.  The server
    /// does not accept connections until [`Server::run`].
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let engines = (0..workers)
            .map(|_| {
                Engine::new(EngineConfig {
                    options: config.analysis,
                    cache: config.cache.clone(),
                })
            })
            .collect();
        let shared = Arc::new(Shared {
            config,
            engines,
            shutdown: AtomicBool::new(false),
            addr,
            requests: Default::default(),
            panics: AtomicU64::new(0),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (useful with an ephemeral listen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Accepts connections until a graceful shutdown, dispatching each to a
    /// fixed pool of handler threads.  Returns once every queued connection
    /// has been answered and every handler joined.
    pub fn run(self) -> std::io::Result<()> {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = self.shared.engines.len();
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("vhdl1d-{i}"))
                .spawn(move || loop {
                    // Hold the lock only for the recv itself so a slow
                    // request never serialises the other handlers.
                    let stream = {
                        let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
                        guard.recv()
                    };
                    match stream {
                        Ok(stream) => handle_connection(&shared, stream),
                        Err(_) => break, // acceptor dropped the sender: drain done
                    }
                })
                .expect("spawn vhdl1d handler thread");
            handles.push(handle);
        }
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break; // the wake-up connection (or any later one) is dropped
            }
            match stream {
                Ok(stream) => {
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(_) => continue, // transient accept error; keep serving
            }
        }
        drop(tx);
        for handle in handles {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// One parsed HTTP request.
struct Request {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Request {
    fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn flag(&self, name: &str) -> bool {
        matches!(self.param(name), Some("1") | Some("true"))
    }
}

/// A response ready to serialise: `(status, reason, content-type, body)`.
struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: Vec<u8>,
}

impl Response {
    fn ok(content_type: &'static str, body: Vec<u8>) -> Response {
        Response {
            status: 200,
            reason: "OK",
            content_type,
            body,
        }
    }

    fn error(status: u16, reason: &'static str, message: &str) -> Response {
        Response {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            body: format!("{message}\n").into_bytes(),
        }
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let response = match read_request(&mut stream) {
        Ok(request) => {
            // A panicking analysis (e.g. a stale persistent artifact whose
            // source no longer elaborates) must not take the handler thread
            // down: answer 500 and keep serving.
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dispatch(shared, &request)
            })) {
                Ok(response) => response,
                Err(_) => {
                    shared.panics.fetch_add(1, Ordering::Relaxed);
                    Response::error(500, "Internal Server Error", "analysis panicked")
                }
            }
        }
        Err(response) => response,
    };
    write_response(&mut stream, &response);
}

fn dispatch(shared: &Shared, request: &Request) -> Response {
    let endpoint = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/analyze") => 0,
        ("POST", "/verify") => 1,
        ("POST", "/update") => 2,
        ("GET", "/healthz") => 3,
        ("GET", "/metrics") => 4,
        ("POST", "/shutdown") => 5,
        _ => 6,
    };
    shared.requests[endpoint].fetch_add(1, Ordering::Relaxed);
    match endpoint {
        0 => analyze(shared, request, None),
        1 => {
            let rounds = match parse_u64_param(request, "rounds") {
                Ok(v) => v.unwrap_or_else(|| VerifyOptions::default().rounds),
                Err(response) => return response,
            };
            let seed = match parse_u64_param(request, "seed") {
                Ok(v) => v.unwrap_or_else(|| VerifyOptions::default().seed),
                Err(response) => return response,
            };
            analyze(shared, request, Some(VerifyOptions { rounds, seed }))
        }
        2 => update(shared, request),
        3 => Response::ok("text/plain; charset=utf-8", b"ok\n".to_vec()),
        4 => Response::ok(
            "text/plain; version=0.0.4; charset=utf-8",
            metrics(shared).into_bytes(),
        ),
        5 => {
            shared.shutdown.store(true, Ordering::SeqCst);
            // The acceptor is blocked in accept(); poke it awake so it can
            // observe the flag, stop accepting, and drain.
            let _ = TcpStream::connect(shared.addr);
            Response::ok("text/plain; charset=utf-8", b"draining\n".to_vec())
        }
        _ => {
            if matches!(
                request.path.as_str(),
                "/analyze" | "/verify" | "/update" | "/shutdown"
            ) {
                Response::error(405, "Method Not Allowed", "use POST")
            } else if matches!(request.path.as_str(), "/healthz" | "/metrics") {
                Response::error(405, "Method Not Allowed", "use GET")
            } else {
                Response::error(404, "Not Found", "no such endpoint")
            }
        }
    }
}

/// `POST /update` — one revision of the design named by `?id=`: a single
/// job named by the id, served exactly like `POST /analyze?name=ID` over a
/// bare source (a manifest-looking body stays one source).
fn update(shared: &Shared, request: &Request) -> Response {
    let source = match body_source(request) {
        Ok(source) => source,
        Err(response) => return response,
    };
    let Some(id) = request.param("id") else {
        return Response::error(400, "Bad Request", "update needs an `id` query parameter");
    };
    serve(
        shared,
        request,
        &[Job::from_source(id, source)],
        false,
        None,
    )
}

/// `POST /analyze` and `POST /verify`: body → jobs → warm engine →
/// schema-3 report JSON, byte-identical to the CLI.
fn analyze(shared: &Shared, request: &Request, verify: Option<VerifyOptions>) -> Response {
    let source = match body_source(request) {
        Ok(source) => source,
        Err(response) => return response,
    };
    let jobs = match jobs_from_body(source, request.param("name").unwrap_or("design")) {
        Ok(jobs) => jobs,
        Err(message) => return Response::error(400, "Bad Request", &message),
    };
    serve(shared, request, &jobs, request.flag("smoke"), verify)
}

/// The request body as source text: UTF-8 and not blank.
fn body_source(request: &Request) -> Result<&str, Response> {
    let source = std::str::from_utf8(&request.body)
        .map_err(|_| Response::error(400, "Bad Request", "body is not UTF-8"))?;
    if source.trim().is_empty() {
        return Err(Response::error(
            400,
            "Bad Request",
            "empty body: send VHDL1 source text",
        ));
    }
    Ok(source)
}

/// Runs `jobs` on the engine their first source shards to, under the
/// request's `deadline_ms` (or the daemon default), and answers with the
/// report JSON.
fn serve(
    shared: &Shared,
    request: &Request,
    jobs: &[Job],
    smoke: bool,
    verify: Option<VerifyOptions>,
) -> Response {
    let deadline_ms = match parse_u64_param(request, "deadline_ms") {
        Ok(v) => v.or(shared.config.deadline_ms),
        Err(response) => return response,
    };
    // Content sharding: the same design always lands on the same engine, so
    // its memo entry is reused instead of duplicated across workers.
    let shard = (fnv1a64(jobs[0].source.as_bytes()) % shared.engines.len() as u64) as usize;
    let opts = BatchOptions {
        jobs: shared.config.jobs,
        format: Format::Json,
        smoke,
        verify,
        deadline_ms,
        ..BatchOptions::default()
    };
    let batch = run_batch_on(&shared.engines[shard], jobs, &opts);
    Response::ok("application/json", batch.to_json().into_bytes())
}

/// A body is a corpus manifest when it carries `--! design` headers;
/// otherwise it is one bare VHDL1 design.
fn jobs_from_body(source: &str, name: &str) -> Result<Vec<Job>, String> {
    let is_manifest = source
        .lines()
        .any(|line| line.trim_start().starts_with("--!"));
    if !is_manifest {
        return Ok(vec![Job::from_source(name, source)]);
    }
    let designs = parse_manifest(source).map_err(|e| format!("manifest: {e}"))?;
    if designs.is_empty() {
        return Err("manifest contains no designs".to_string());
    }
    Ok(designs.into_iter().map(Job::from_generated).collect())
}

fn parse_u64_param(request: &Request, name: &str) -> Result<Option<u64>, Response> {
    match request.param(name) {
        None => Ok(None),
        Some(raw) => raw.parse::<u64>().map(Some).map_err(|_| Response {
            status: 400,
            reason: "Bad Request",
            content_type: "text/plain; charset=utf-8",
            body: format!("query parameter `{name}` must be an unsigned integer\n").into_bytes(),
        }),
    }
}

/// Merges stats and trace snapshots across every worker engine and renders
/// the combined Prometheus exposition, plus the daemon's own counters.
fn metrics(shared: &Shared) -> String {
    let mut stats = EngineStats::default();
    let mut snapshot = TraceSnapshot::default();
    for engine in &shared.engines {
        let s = engine.stats();
        stats.frontend += s.frontend;
        stats.rd += s.rd;
        stats.local += s.local;
        stats.specialized += s.specialized;
        stats.global += s.global;
        stats.improved += s.improved;
        stats.flow_graph += s.flow_graph;
        stats.kemmerer += s.kemmerer;
        stats.smoke += s.smoke;
        stats.dynamic_flows += s.dynamic_flows;
        stats.cache_hits += s.cache_hits;
        stats.cache_misses += s.cache_misses;
        stats.store_hits += s.store_hits;
        stats.store_misses += s.store_misses;
        stats.store_writes += s.store_writes;
        if let Some(sink) = engine.trace_sink() {
            let shard = sink.snapshot();
            snapshot.spans.extend(shard.spans);
            for (total, part) in snapshot.memo_hits.iter_mut().zip(shard.memo_hits) {
                *total += part;
            }
            snapshot.events.extend(shard.events);
        }
    }
    // Restore the deterministic order the per-engine snapshots had.
    snapshot
        .spans
        .sort_by(|a, b| (a.design.as_str(), a.stage).cmp(&(b.design.as_str(), b.stage)));
    snapshot
        .events
        .sort_by(|a, b| (a.design.as_str(), a.kind).cmp(&(b.design.as_str(), b.kind)));
    let mut out = render_prometheus(&snapshot, &stats);
    out.push_str("# HELP vhdl1d_requests_total Requests handled, by endpoint.\n");
    out.push_str("# TYPE vhdl1d_requests_total counter\n");
    for (name, counter) in ENDPOINTS.iter().zip(&shared.requests) {
        out.push_str(&format!(
            "vhdl1d_requests_total{{endpoint=\"{name}\"}} {}\n",
            counter.load(Ordering::Relaxed)
        ));
    }
    out.push_str("# HELP vhdl1d_request_panics_total Requests answered 500 after a panic.\n");
    out.push_str("# TYPE vhdl1d_request_panics_total counter\n");
    out.push_str(&format!(
        "vhdl1d_request_panics_total {}\n",
        shared.panics.load(Ordering::Relaxed)
    ));
    out
}

/// Reads and parses one HTTP/1.1 request; protocol violations map to the
/// error [`Response`] the caller should answer with.
fn read_request(stream: &mut TcpStream) -> Result<Request, Response> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(Response::error(
                431,
                "Request Header Fields Too Large",
                "header block exceeds 64 KiB",
            ));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(Response::error(
                    400,
                    "Bad Request",
                    "connection closed before the header block ended",
                ))
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(Response::error(408, "Request Timeout", "read timed out")),
        }
    };
    let header_text = match std::str::from_utf8(&buf[..header_end]) {
        Ok(text) => text,
        Err(_) => return Err(Response::error(400, "Bad Request", "header is not UTF-8")),
    };
    let mut lines = header_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("");
    if method.is_empty() || target.is_empty() {
        return Err(Response::error(
            400,
            "Bad Request",
            "malformed request line",
        ));
    }
    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let query = query_text
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    Response::error(400, "Bad Request", "unparseable Content-Length")
                })?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(Response::error(
            413,
            "Payload Too Large",
            "body exceeds 16 MiB",
        ));
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(Response::error(
                    400,
                    "Bad Request",
                    "connection closed mid-body",
                ))
            }
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(Response::error(408, "Request Timeout", "read timed out")),
        }
    }
    body.truncate(content_length);
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn write_response(stream: &mut TcpStream, response: &Response) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.reason,
        response.content_type,
        response.body.len()
    );
    // A peer that hung up mid-response is its own problem; never panic here.
    if stream.write_all(head.as_bytes()).is_ok() {
        let _ = stream.write_all(&response.body);
    }
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn manifest_bodies_become_manifest_jobs() {
        let single = jobs_from_body("entity e is end;", "alpha").unwrap();
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].name, "alpha");
        assert!(single[0].truth.is_none());
        assert!(jobs_from_body("--! design broken", "x").is_err());
    }
}
