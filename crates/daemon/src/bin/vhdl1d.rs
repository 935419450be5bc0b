//! `vhdl1d` — the VHDL1 information-flow analysis daemon.
//!
//! ```text
//! vhdl1d --listen 127.0.0.1:7411 --workers 4 --cache-dir /var/cache/vhdl1
//! curl -sS -X POST --data-binary @design.vhd 'http://127.0.0.1:7411/analyze?name=design'
//! ```

use vhdl1_daemon::{Server, ServerConfig};
use vhdl1_infoflow::{Budget, CachePolicy};

const USAGE: &str = "\
vhdl1d - VHDL1 information-flow analysis daemon

USAGE:
    vhdl1d [OPTIONS]

OPTIONS:
      --listen ADDR     bind address (default 127.0.0.1:7411; port 0 is ephemeral)
      --workers N       connection handlers / warm engines (default: CPU count)
      --jobs N          driver pool width for manifest batches (default 1)
      --cache-dir DIR   persistent artifact cache directory (warm across restarts)
      --cache-cap N     artifact cap of the persistent cache (default 4096)
      --deadline-ms MS  default per-request watchdog deadline
      --budget NAME     resource budget: tight | standard | unlimited
      --base            base closure only (no incoming/outgoing nodes)
      --no-trace        disable stage tracing (shrinks /metrics)
      --help            print this help

ENDPOINTS:
    POST /analyze   VHDL1 source or corpus manifest -> batch report JSON
    POST /verify    like /analyze plus dynamic flow witnessing (?rounds=&seed=)
    POST /update    one revision of an edited design, named by the required ?id=;
                    same bytes and ?deadline_ms= handling as /analyze?name=ID
    GET  /healthz   liveness probe
    GET  /metrics   Prometheus text exposition
    POST /shutdown  graceful drain (std cannot trap SIGTERM)
";

fn main() {
    match parse_args(std::env::args().skip(1).collect()) {
        Ok(Some(config)) => {
            let server = match Server::bind(config) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("vhdl1d: cannot bind: {e}");
                    std::process::exit(1);
                }
            };
            println!("vhdl1d listening on {}", server.local_addr());
            if let Err(e) = server.run() {
                eprintln!("vhdl1d: {e}");
                std::process::exit(1);
            }
        }
        Ok(None) => print!("{USAGE}"),
        Err(message) => {
            eprintln!("vhdl1d: {message}");
            eprintln!("run `vhdl1d --help` for usage");
            std::process::exit(1);
        }
    }
}

/// Parses argv; `Ok(None)` means `--help` was requested.
fn parse_args(mut args: Vec<String>) -> Result<Option<ServerConfig>, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    let mut config = ServerConfig {
        listen: "127.0.0.1:7411".to_string(),
        workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
        ..ServerConfig::default()
    };
    // Stage tracing is observability-only: it is excluded from the cache
    // fingerprint and never changes a report byte, so the daemon defaults
    // it on to keep /metrics informative.
    config.analysis.trace = true;
    if let Some(addr) = take_value(&mut args, "--listen")? {
        config.listen = addr;
    }
    if let Some(n) = take_value(&mut args, "--workers")? {
        config.workers = n
            .parse()
            .map_err(|_| format!("--workers expects a count, got `{n}`"))?;
    }
    if let Some(n) = take_value(&mut args, "--jobs")? {
        config.jobs = n
            .parse()
            .map_err(|_| format!("--jobs expects a count, got `{n}`"))?;
    }
    let mut cache_cap = vhdl1_cli::driver::DEFAULT_PERSISTENT_CACHE_CAP;
    if let Some(n) = take_value(&mut args, "--cache-cap")? {
        cache_cap = n
            .parse()
            .map_err(|_| format!("--cache-cap expects a count, got `{n}`"))?;
    }
    if let Some(dir) = take_value(&mut args, "--cache-dir")? {
        config.cache = CachePolicy::Persistent {
            dir: dir.into(),
            cap: cache_cap,
        };
    }
    if let Some(ms) = take_value(&mut args, "--deadline-ms")? {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("--deadline-ms expects milliseconds, got `{ms}`"))?;
        config.deadline_ms = Some(ms);
    }
    if let Some(name) = take_value(&mut args, "--budget")? {
        config.analysis.budget = Budget::preset(&name)
            .ok_or_else(|| format!("unknown budget `{name}` (tight, standard, unlimited)"))?;
    }
    if take_flag(&mut args, "--base") {
        config.analysis.improved = false;
    }
    if take_flag(&mut args, "--no-trace") {
        config.analysis.trace = false;
    }
    if let Some(unknown) = args.first() {
        return Err(format!("unknown argument `{unknown}`"));
    }
    Ok(Some(config))
}

fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} expects a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        return Ok(Some(value));
    }
    Ok(None)
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        return true;
    }
    false
}
