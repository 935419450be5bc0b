//! Real-TCP integration tests of `vhdl1d`: concurrent `POST /analyze`
//! responses are byte-identical to `vhdl1c analyze --format json` over the
//! same input, warm artifacts survive a daemon restart, and `/shutdown`
//! drains gracefully.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use vhdl1_cli::driver::{run_batch, BatchOptions, Job, VerifyOptions};
use vhdl1_corpus::{generate, write_manifest, CorpusSpec, Family};
use vhdl1_daemon::{Server, ServerConfig};
use vhdl1_infoflow::CachePolicy;

/// Self-cleaning scratch directory.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vhdl1d-test-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Starts a daemon on an ephemeral port; returns its address and the
/// blocked `run()` thread (joined after `POST /shutdown`).
fn spawn_daemon(config: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        ..config
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("daemon run"));
    (addr, handle)
}

/// Minimal HTTP/1.1 client: one request per connection, like curl.
fn http(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: vhdl1d\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete response header");
    let head_text = std::str::from_utf8(&raw[..header_end]).unwrap();
    let status: u16 = head_text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, raw[header_end + 4..].to_vec())
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    let (status, _) = http(addr, "POST", "/shutdown", b"");
    assert_eq!(status, 200);
    handle.join().expect("daemon drained and exited");
}

#[test]
fn concurrent_analyze_responses_match_cli_bytes() {
    let designs = generate(&CorpusSpec::new(23, 8));
    let (addr, handle) = spawn_daemon(ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    });

    std::thread::scope(|scope| {
        for d in &designs {
            scope.spawn(move || {
                let expected = run_batch(
                    &[Job::from_source(d.name.clone(), d.source.clone())],
                    &BatchOptions::default(),
                )
                .to_json();
                let (status, body) = http(
                    addr,
                    "POST",
                    &format!("/analyze?name={}", d.name),
                    d.source.as_bytes(),
                );
                assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
                assert_eq!(
                    body,
                    expected.as_bytes(),
                    "daemon bytes must match `vhdl1c analyze --format json`"
                );
            });
        }
    });

    // A manifest body fans out into one report entry per design, exactly
    // like `vhdl1c analyze corpus.manifest`.
    let manifest = write_manifest(&designs);
    let jobs: Vec<Job> = designs.iter().cloned().map(Job::from_generated).collect();
    let expected = run_batch(&jobs, &BatchOptions::default()).to_json();
    let (status, body) = http(addr, "POST", "/analyze", manifest.as_bytes());
    assert_eq!(status, 200);
    assert_eq!(body, expected.as_bytes());

    shutdown(addr, handle);
}

#[test]
fn verify_endpoint_matches_cli_verify_bytes() {
    let designs = generate(&CorpusSpec::new(29, 3));
    let manifest = write_manifest(&designs);
    let jobs: Vec<Job> = designs.into_iter().map(Job::from_generated).collect();
    let expected = run_batch(
        &jobs,
        &BatchOptions {
            verify: Some(VerifyOptions { rounds: 4, seed: 9 }),
            ..BatchOptions::default()
        },
    )
    .to_json();

    let (addr, handle) = spawn_daemon(ServerConfig::default());
    let (status, body) = http(addr, "POST", "/verify?rounds=4&seed=9", manifest.as_bytes());
    assert_eq!(status, 200);
    assert_eq!(body, expected.as_bytes());
    shutdown(addr, handle);
}

#[test]
fn update_endpoint_replays_an_edit_stream() {
    let stream = vhdl1_corpus::edit_stream(13, 6, 3);
    let (addr, handle) = spawn_daemon(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });

    // Every response must be byte-identical to a from-scratch
    // `vhdl1c analyze --format json` over that revision.
    let mut base_report = Vec::new();
    for src in stream.sources() {
        let expected = run_batch(
            &[Job::from_source(stream.name.clone(), src.to_string())],
            &BatchOptions::default(),
        )
        .to_json();
        let (status, body) = http(
            addr,
            "POST",
            &format!("/update?id={}", stream.name),
            src.as_bytes(),
        );
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert_eq!(
            body,
            expected.as_bytes(),
            "update bytes must match a fresh analysis"
        );
        if base_report.is_empty() {
            base_report = body;
        }
    }

    // `/update?id=X` and `/analyze?name=X` answer the same bytes from the
    // same memo entry: the base revision is not analyzed again.
    let (status, body) = http(
        addr,
        "POST",
        &format!("/analyze?name={}", stream.name),
        stream.base.as_bytes(),
    );
    assert_eq!(status, 200);
    assert_eq!(body, base_report, "/analyze and /update bytes must agree");
    let (status, metrics) = http(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics).unwrap();
    let hits: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("vhdl1_engine_cache_hits_total "))
        .and_then(|v| v.parse().ok())
        .expect("memo hit counter exposed");
    assert_eq!(hits, 1, "the repeated base revision must be a memo hit");

    // Protocol errors: an update without a design id cannot be routed.
    let (status, _) = http(addr, "POST", "/update", stream.base.as_bytes());
    assert_eq!(status, 400, "update without ?id= is a client error");
    let (status, _) = http(addr, "GET", "/update", b"");
    assert_eq!(status, 405);

    shutdown(addr, handle);
}

#[test]
fn update_honours_the_request_deadline() {
    // The longest hostile fixpoint chain of seed 3 takes far longer than
    // 5 ms to analyze: the watchdog cancels it, and the next stage
    // boundary degrades the design instead of finishing the pipeline.
    let slow = generate(&CorpusSpec::new(3, 12).with_families(vec![Family::Hostile]))
        .into_iter()
        .max_by_key(|d| d.source.matches("<=").count())
        .expect("hostile corpus is not empty");
    let (addr, handle) = spawn_daemon(ServerConfig::default());
    let (status, body) = http(
        addr,
        "POST",
        &format!("/update?id={}&deadline_ms=5", slow.name),
        slow.source.as_bytes(),
    );
    assert_eq!(status, 200);
    let body = String::from_utf8(body).unwrap();
    assert!(body.contains("\"stage\": \"deadline\""), "{body}");
    shutdown(addr, handle);
}

#[test]
fn warm_artifacts_survive_a_daemon_restart() {
    let tmp = TempDir::new("restart");
    let config = || {
        let mut config = ServerConfig {
            workers: 2,
            cache: CachePolicy::Persistent {
                dir: tmp.0.clone(),
                cap: 64,
            },
            ..ServerConfig::default()
        };
        // Tracing makes /metrics count actual frontend runs; it is
        // excluded from the cache fingerprint, so warm artifacts are
        // shared with non-tracing engines.
        config.analysis.trace = true;
        config
    };
    let designs = generate(&CorpusSpec::new(31, 4));
    let manifest = write_manifest(&designs);

    let (addr, handle) = spawn_daemon(config());
    let (status, cold) = http(addr, "POST", "/analyze", manifest.as_bytes());
    assert_eq!(status, 200);
    shutdown(addr, handle);

    // A fresh daemon over the same cache directory serves the same bytes
    // from disk; /metrics proves the artifacts were actually hit.
    let (addr, handle) = spawn_daemon(config());
    let (status, warm) = http(addr, "POST", "/analyze", manifest.as_bytes());
    assert_eq!(status, 200);
    assert_eq!(warm, cold, "bytes must be stable across restarts");
    let (status, metrics) = http(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics).unwrap();
    let hits: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("vhdl1_store_hits_total "))
        .and_then(|v| v.parse().ok())
        .expect("store hit counter exposed");
    assert!(hits >= 1, "restart must serve from the artifact store");
    let frontend: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("vhdl1_stage_runs_total{stage=\"frontend\"} "))
        .and_then(|v| v.parse().ok())
        .expect("frontend stage counter exposed");
    assert_eq!(frontend, 0, "warm daemon must not re-parse");
    shutdown(addr, handle);
}

#[test]
fn health_metrics_and_protocol_errors() {
    let (addr, handle) = spawn_daemon(ServerConfig::default());

    let (status, body) = http(addr, "GET", "/healthz", b"");
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));

    let (status, body) = http(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("vhdl1_engine_cache_misses_total"));
    assert!(text.contains("vhdl1d_requests_total{endpoint=\"healthz\"} 1"));

    let (status, _) = http(addr, "GET", "/analyze", b"");
    assert_eq!(status, 405);
    let (status, _) = http(addr, "POST", "/nope", b"x");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "POST", "/analyze", b"");
    assert_eq!(status, 400, "empty body is a client error");
    let (status, _) = http(
        addr,
        "POST",
        "/analyze?deadline_ms=abc",
        b"entity e is end;",
    );
    assert_eq!(status, 400, "unparseable query parameter is a client error");
    let (status, _) = http(addr, "POST", "/analyze", b"entity oops");
    assert_eq!(
        status, 200,
        "parse failures are report errors, not HTTP errors"
    );

    shutdown(addr, handle);
}
