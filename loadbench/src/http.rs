//! A minimal HTTP/1.1 client for the daemon: one connection per request
//! (the daemon answers `Connection: close`), with the connect, request
//! write, first byte and rest of the response each under their own span
//! when tracing.

use crate::trace::{maybe, Ctx, Tracer};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Generous bound on any one response, so a stuck daemon fails the run
/// instead of hanging it.
const TIMEOUT: Duration = Duration::from_secs(30);

/// A request ready to send.
pub fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// A body-less GET request.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").into_bytes()
}

/// Sends one request and reads the whole response: `(status, body)`.
pub fn exchange(
    addr: SocketAddr,
    request: &[u8],
    trace: Option<(&Tracer, Ctx)>,
) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = maybe(trace, "daemon.connect", || TcpStream::connect(addr))?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    maybe(trace, "daemon.write", || stream.write_all(request))?;
    let mut response = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    let n = maybe(trace, "daemon.ttfb", || stream.read(&mut chunk))?;
    response.extend_from_slice(&chunk[..n]);
    maybe(trace, "daemon.read", || stream.read_to_end(&mut response))?;
    parse(&response)
}

fn parse(response: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response without a header block"))?;
    let status = std::str::from_utf8(&response[..head_end])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    Ok((status, response[head_end + 4..].to_vec()))
}

/// The value of an unlabelled or fully labelled Prometheus sample, e.g.
/// `vhdl1_store_hits_total` or `vhdl1_stage_self_seconds_total{stage="rd"}`;
/// `None` when the text has no such series.
pub fn prom(text: &str, key: &str) -> Option<f64> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            (name == key).then(|| value.parse::<f64>().ok()).flatten()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_body() {
        let (status, body) = parse(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\n").unwrap();
        assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));
        assert!(parse(b"garbage").is_err());
    }

    #[test]
    fn reads_prometheus_samples() {
        let text = "# HELP x\nvhdl1_store_hits_total 3\nvhdl1_stage_self_seconds_total{stage=\"rd\"} 0.25\n";
        assert_eq!(prom(text, "vhdl1_store_hits_total"), Some(3.0));
        assert_eq!(
            prom(text, "vhdl1_stage_self_seconds_total{stage=\"rd\"}"),
            Some(0.25)
        );
        assert_eq!(prom(text, "absent"), None);
    }
}
