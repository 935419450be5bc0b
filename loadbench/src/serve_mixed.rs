//! `serve_mixed`: the `vhdl1d` service under a read-mostly mix.  An op is
//! one `POST /analyze` of a single-design manifest to an in-process
//! `vhdl1_daemon::Server` configured as `vhdl1d --cache-dir DIR --cache-cap
//! 16384` configures itself (stage tracing on, one worker engine per core, a
//! fresh persistent store).  Two closed-loop clients (`nproc`) send the
//! requests: about 4/5 go to a hot set that set-up wrote to the store — a
//! store hit, then memo hits — and 1/5 to designs never seen before, which
//! run the full pipeline and are written back.  The first client also sends
//! an orchestrator's probes on the wall clock: `GET /healthz` every 10 s
//! and `GET /metrics` every 15 s, from the start of the phase.  Probes are
//! not ops.
//!
//! Idle or slow clients are left out: each pins a daemon handler for the
//! 30 s read timeout, so a run with them would measure that constant rather
//! than the program.

use crate::http::{exchange, get, post, prom};
use crate::layers::{report_ms, stage_metrics};
use crate::measure::{
    cpu_seconds, end_to_end, median, ms, peak_rss_mb, ratio, repeated_setup, rss_mb,
};
use crate::trace::{durations_ms, roots_ms, Replay, Stages, Tracer, STAGE_LAYERS};
use crate::{seed_for, Config, Outcome};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vhdl1_cli::{pool, run_batch, run_batch_on, BatchOptions, Job};
use vhdl1_corpus::{
    generate, generate_one, parse_manifest, write_manifest, CorpusSpec, Family, GeneratedDesign,
    Rng,
};
use vhdl1_daemon::{Server, ServerConfig};
use vhdl1_infoflow::{fnv1a64, AnalysisOptions, ArtifactStore, CachePolicy, Engine, EngineConfig};

/// The daemon's store cap (`vhdl1d --cache-cap`), four times the default
/// of 4096 so that no run reaches eviction: past the cap every save reads
/// every artifact header, a cliff that would make the numbers depend on how
/// many new designs a run manages to store.
const STORE_CAP: usize = 16_384;
/// Designs set-up writes to the store.  A deliberate choice, not observed
/// traffic: small enough that every hot design stays in its worker
/// engine's memo table after its first request (the memo cap is
/// `STORE_CAP`), so hot requests measure the hit path, and large enough
/// to cover all four design families on both worker engines.
const HOT: usize = 64;
/// One request in `COLD_IN` is a design never seen before.
const COLD_IN: u64 = 5;
/// Period of the liveness probe: Kubernetes' default `periodSeconds`.
const HEALTHZ_PERIOD: Duration = Duration::from_secs(10);
/// Period of the metrics scrape: the `scrape_interval` of the example
/// `prometheus.yml` shipped with Prometheus (its built-in default is 1 m,
/// longer than a run).
const SCRAPE_PERIOD: Duration = Duration::from_secs(15);
/// Ops (both clients) after which peak memory is read.
const MEM_OPS: usize = 4000;
/// Fewest ops per client, so even a minimal run sends new designs.
const MIN_OPS_PER_CLIENT: usize = 20;
/// Artifacts timed directly against the store.
const STORE_PROBES: usize = 64;

/// Which design a request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Pick {
    Hot(usize),
    /// The `k`-th new design of client `c`.
    Cold {
        c: usize,
        k: usize,
    },
}

/// The seeded request sequence of one client.
struct Plan {
    rng: Rng,
    client: usize,
    cold: usize,
}

impl Plan {
    fn new(seed: u64, client: usize) -> Plan {
        Plan {
            rng: Rng::new(seed_for(seed, "serve_mixed", client as u64)),
            client,
            cold: 0,
        }
    }

    fn next(&mut self) -> Pick {
        if self.rng.chance(1, COLD_IN) {
            self.cold += 1;
            Pick::Cold {
                c: self.client,
                k: self.cold - 1,
            }
        } else {
            Pick::Hot(self.rng.below(HOT as u64) as usize)
        }
    }
}

fn cold_design(seed: u64, c: usize, k: usize) -> GeneratedDesign {
    let family = Family::ALL[k % Family::ALL.len()];
    let mut rng = Rng::new(seed_for(seed, "serve_cold", ((c as u64) << 32) | k as u64));
    let name = format!("{}_c{c}_{k:05}_s{seed}", family.as_str());
    generate_one(family, &name, &mut rng, (k / Family::ALL.len()) % 2 == 1)
}

fn design_of(seed: u64, hot: &[GeneratedDesign], pick: Pick) -> GeneratedDesign {
    match pick {
        Pick::Hot(i) => hot[i].clone(),
        Pick::Cold { c, k } => cold_design(seed, c, k),
    }
}

/// One answered op.
struct Record {
    pick: Pick,
    latency_ms: f64,
    status: u16,
    hash: u64,
}

/// What one client saw.
#[derive(Default)]
struct ClientRun {
    records: Vec<Record>,
    /// Probes sent, and those not answered 200.
    probes: usize,
    probes_failed: usize,
}

/// What the clients of one phase share.
struct Load<'a> {
    addr: SocketAddr,
    seed: u64,
    hot: &'a [Vec<u8>],
    start: Instant,
    deadline: Instant,
    min_ops: usize,
    /// Ops (both clients) after which memory is read: the daemon keeps
    /// every design it saw, so memory grows with the ops a run completes,
    /// and a faster daemon must not read as a larger one.
    mem_ops: usize,
    done: AtomicUsize,
    /// `(peak RSS, RSS)` in MB once `mem_ops` ops had answered.
    memory: Mutex<Option<(f64, f64)>>,
    tracer: Option<&'a Tracer>,
}

/// A daemon running on a thread of this process, over its own store.
struct Daemon {
    addr: SocketAddr,
    handle: Option<JoinHandle<std::io::Result<()>>>,
    dir: PathBuf,
    config: ServerConfig,
}

static STORES: AtomicUsize = AtomicUsize::new(0);

impl Daemon {
    /// Generates nothing: starts a daemon over a fresh store that `hot`
    /// was pre-written to, and waits until it answers `/healthz`.
    fn start(cfg: &Config, hot: &[Job]) -> Daemon {
        let n = STORES.fetch_add(1, Ordering::Relaxed);
        let dir = cfg
            .out_dir
            .join(format!("store-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut analysis = AnalysisOptions::default();
        analysis.trace = true;
        let config = ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            workers: cfg.nproc,
            cache: CachePolicy::Persistent {
                dir: dir.clone(),
                cap: STORE_CAP,
            },
            analysis,
            ..ServerConfig::default()
        };
        // Store pre-warm through an engine configured like a worker's.
        let warm = Engine::new(EngineConfig {
            options: config.analysis,
            cache: config.cache.clone(),
        });
        std::hint::black_box(run_batch_on(&warm, hot, &BatchOptions::default()));
        drop(warm);
        let server = Server::bind(config.clone()).expect("bind the daemon on localhost");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let (status, _) = exchange(addr, &get("/healthz"), None).expect("daemon answers /healthz");
        assert_eq!(status, 200, "daemon not healthy after start");
        Daemon {
            addr,
            handle: Some(handle),
            dir,
            config,
        }
    }

    /// Drains and joins the daemon, keeping its store on disk.
    fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = exchange(self.addr, &post("/shutdown", b""), None);
            handle
                .join()
                .expect("daemon thread panicked")
                .expect("daemon run failed");
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = exchange(self.addr, &post("/shutdown", b""), None);
            let _ = handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Runs client `c`'s closed loop until the deadline has passed and enough
/// ops ran, or for exactly `replay` ops.  Client 0 sends each probe that
/// has come due before its next op.
fn client(load: &Load<'_>, c: usize, replay: Option<usize>) -> ClientRun {
    let mut plan = Plan::new(load.seed, c);
    let mut run = ClientRun::default();
    let (mut next_healthz, mut next_scrape) = (load.start, load.start);
    loop {
        let j = run.records.len();
        let done = match replay {
            Some(n) => j >= n,
            None => {
                j >= load.min_ops.max(MIN_OPS_PER_CLIENT)
                    && load.done.load(Ordering::Relaxed) >= load.mem_ops
                    && Instant::now() >= load.deadline
            }
        };
        if done {
            break;
        }
        let op = ((c as u64) << 40) | j as u64;
        if c == 0 {
            let now = Instant::now();
            for (next, path, span, period) in [
                (
                    &mut next_healthz,
                    "/healthz",
                    "daemon.healthz",
                    HEALTHZ_PERIOD,
                ),
                (
                    &mut next_scrape,
                    "/metrics",
                    "daemon.metrics",
                    SCRAPE_PERIOD,
                ),
            ] {
                if now >= *next {
                    *next += period;
                    let probe = || exchange(load.addr, &get(path), None);
                    let reply = match load.tracer {
                        Some(tr) => tr.root(span, op, |_| probe()),
                        None => probe(),
                    };
                    run.probes += 1;
                    if !matches!(reply, Ok((200, _))) {
                        run.probes_failed += 1;
                    }
                }
            }
        }
        let pick = plan.next();
        let cold_request;
        let request: &[u8] = match pick {
            Pick::Hot(i) => &load.hot[i],
            Pick::Cold { c, k } => {
                cold_request = post(
                    "/analyze",
                    write_manifest(&[cold_design(load.seed, c, k)]).as_bytes(),
                );
                &cold_request
            }
        };
        let t = Instant::now();
        let reply = match load.tracer {
            Some(tr) => tr.root("op", op, |ctx| {
                exchange(load.addr, request, Some((tr, ctx)))
            }),
            None => exchange(load.addr, request, None),
        };
        let latency_ms = ms(t.elapsed());
        let (status, hash) = reply.map_or((0, 0), |(s, body)| (s, fnv1a64(&body)));
        run.records.push(Record {
            pick,
            latency_ms,
            status,
            hash,
        });
        if load.done.fetch_add(1, Ordering::Relaxed) + 1 == load.mem_ops {
            *load.memory.lock().expect("memory reading poisoned") = Some((peak_rss_mb(), rss_mb()));
        }
    }
    run
}

/// `GET /metrics` as the text body.
fn scrape(addr: SocketAddr) -> Result<String, String> {
    match exchange(addr, &get("/metrics"), None) {
        Ok((200, body)) => Ok(String::from_utf8_lossy(&body).into_owned()),
        Ok((status, _)) => Err(format!("GET /metrics answered {status}")),
        Err(e) => Err(format!("GET /metrics failed: {e}")),
    }
}

/// Both clients, concurrently: their runs, the phase wall time, and the
/// memory reading taken after `mem_ops` ops.
fn phase(
    cfg: &Config,
    addr: SocketAddr,
    hot: &[Vec<u8>],
    replay: Option<&[usize]>,
    tracer: Option<&Tracer>,
) -> (Vec<ClientRun>, f64, Option<(f64, f64)>) {
    let start = Instant::now();
    let load = Load {
        addr,
        seed: cfg.seed,
        hot,
        start,
        deadline: start + Duration::from_secs_f64(cfg.seconds),
        min_ops: cfg.min_ops,
        mem_ops: cfg.mem_ops(MEM_OPS),
        done: AtomicUsize::new(0),
        memory: Mutex::new(None),
        tracer,
    };
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.nproc)
            .map(|c| {
                let load = &load;
                s.spawn(move || client(load, c, replay.map(|r| r[c])))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let memory = load.memory.into_inner().expect("memory reading poisoned");
    (runs, start.elapsed().as_secs_f64(), memory)
}

/// What the oracle expects for one design: the report hash of `run_batch`
/// on the same manifest, whether the verdict matches the generator's ground
/// truth, and the reported edge count.
#[derive(Clone, Copy)]
struct Expected {
    hash: u64,
    verdict_ok: bool,
    edges: usize,
}

fn expect(design: &GeneratedDesign, corrupt: bool) -> Expected {
    let manifest = write_manifest(std::slice::from_ref(design));
    let jobs: Vec<Job> = parse_manifest(&manifest)
        .expect("own manifest parses")
        .into_iter()
        .map(Job::from_generated)
        .collect();
    let mut batch = run_batch(&jobs, &BatchOptions::default());
    if corrupt {
        if let Some(d) = batch.designs.first_mut() {
            d.violations.clear();
            d.edges.clear();
        }
    }
    let mut expected = design.expected_violations.clone();
    expected.sort();
    let verdict_ok = batch.errors.is_empty()
        && batch.designs.len() == 1
        && batch.designs.iter().all(|d| {
            let mut got: Vec<(String, String)> = d
                .violations
                .iter()
                .map(|v| (v.from.clone(), v.to.clone()))
                .collect();
            got.sort();
            got == expected && d.ground_truth_ok == Some(true)
        });
    Expected {
        hash: fnv1a64(batch.to_json().as_bytes()),
        verdict_ok,
        edges: batch.designs.first().map_or(0, |d| d.edges.len()),
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let hot_seed = seed_for(cfg.seed, "serve_hot", 0);
    let (setup, (hot, hot_requests, mut daemon)) = repeated_setup(cfg.setup_reps, || {
        let hot = generate(&CorpusSpec::new(hot_seed, HOT));
        let requests: Vec<Vec<u8>> = hot
            .iter()
            .map(|d| {
                post(
                    "/analyze",
                    write_manifest(std::slice::from_ref(d)).as_bytes(),
                )
            })
            .collect();
        let jobs: Vec<Job> = hot.iter().cloned().map(Job::from_generated).collect();
        let daemon = Daemon::start(cfg, &jobs);
        (hot, requests, daemon)
    });
    let hot_jobs: Vec<Job> = hot.iter().cloned().map(Job::from_generated).collect();

    let rss0 = rss_mb();
    let cpu0 = cpu_seconds();
    let (runs, wall_s, memory) = phase(cfg, daemon.addr, &hot_requests, None, None);
    let cpu_s = cpu_seconds() - cpu0;
    let (peak, rss_then) = memory.expect("the timed phase runs at least mem_ops ops");
    let rss_growth = rss_then - rss0;
    daemon.stop();
    drop(daemon);
    let per_client: Vec<usize> = runs.iter().map(|r| r.records.len()).collect();
    let latencies: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.records.iter().map(|x| x.latency_ms))
        .collect();
    let ops = latencies.len();

    let mut out = Outcome {
        attempted: ops as u64,
        end_to_end: end_to_end(&setup, &latencies, ops as f64, wall_s, cpu_s, peak),
        ..Outcome::default()
    };

    let traced = if cfg.trace {
        let mut daemon = Daemon::start(cfg, &hot_jobs);
        let tracer = Tracer::default();
        let before = scrape(daemon.addr)?;
        let (runs, replay_s, _) = phase(
            cfg,
            daemon.addr,
            &hot_requests,
            Some(&per_client),
            Some(&tracer),
        );
        let after = scrape(daemon.addr)?;
        daemon.stop();
        let store = store_probes(&daemon, cfg.seed, &hot, &runs);
        let config = EngineConfig {
            options: daemon.config.analysis,
            cache: CachePolicy::Capped(HOT),
        };
        let probes: Vec<&[Job]> = hot_jobs.iter().map(std::slice::from_ref).collect();
        let report = report_ms(&config, &probes, &BatchOptions::default());
        Some((runs, replay_s, tracer, before, after, store, report))
    } else {
        None
    };

    // Oracle, outside the timed phases: every answer is 200, its bytes are
    // `run_batch`'s on the same manifest, and that report's verdict matches
    // the generator's ground truth.
    let mut picks: Vec<Pick> = runs
        .iter()
        .flat_map(|r| r.records.iter().map(|x| x.pick))
        .collect();
    picks.extend((0..HOT).map(Pick::Hot));
    picks.sort();
    picks.dedup();
    let expected: BTreeMap<Pick, Expected> = picks
        .iter()
        .copied()
        .zip(pool::run(&picks, cfg.nproc, |_, &p: &Pick| {
            expect(&design_of(cfg.seed, &hot, p), false)
        }))
        .map(|(p, e)| (p, e.expect("oracle analysis panicked")))
        .collect();
    let ok = |r: &Record| {
        r.status == 200 && expected[&r.pick].verdict_ok && expected[&r.pick].hash == r.hash
    };
    let mut failed = runs
        .iter()
        .flat_map(|r| &r.records)
        .filter(|r| !ok(r))
        .count() as u64
        + runs.iter().map(|r| r.probes_failed as u64).sum::<u64>();

    // Oracle self-check: corrupted bytes and a corrupted verdict both fail.
    let first = &runs[0].records[0];
    let forged = Record {
        pick: first.pick,
        latency_ms: 0.0,
        status: 200,
        hash: first.hash ^ 1,
    };
    assert!(!ok(&forged), "serve_mixed oracle accepted corrupted bytes");
    let leaky = hot
        .iter()
        .find(|d| d.leaky)
        .expect("hot set holds leaky designs");
    assert!(
        !expect(leaky, true).verdict_ok,
        "serve_mixed oracle accepted a corrupted verdict"
    );

    let cold = picks
        .iter()
        .filter(|p| matches!(p, Pick::Cold { .. }))
        .count();
    out.notes.push(format!(
        "{ops} ops from {} clients ({per_client:?}), {cold} new designs, {} probes; memory read after {} ops",
        cfg.nproc,
        runs.iter().map(|r| r.probes).sum::<usize>(),
        cfg.mem_ops(MEM_OPS)
    ));

    if let Some((truns, replay_s, tracer, before, after, store, report)) = traced {
        failed += truns
            .iter()
            .flat_map(|r| &r.records)
            .filter(|r| !ok(r))
            .count() as u64
            + truns.iter().map(|r| r.probes_failed as u64).sum::<u64>();
        out.attempted += ops as u64;
        let delta = |key: &str| match (prom(&after, key), prom(&before, key)) {
            (Some(a), Some(b)) => Ok(a - b),
            _ => Err(format!(
                "workload serve_mixed: /metrics has no series {key}"
            )),
        };
        // The engine stages run inside the daemon, within `daemon.ttfb`;
        // the daemon's own stage trace (deltas of /metrics) gives their
        // times and work.
        let mut stages = Stages::default();
        for (stage, _, _) in STAGE_LAYERS {
            let series = |name: &str| delta(&format!("vhdl1_stage_{name}{{stage=\"{stage}\"}}"));
            stages.add_stage(
                stage,
                series("runs_total")? as u64,
                (series("self_seconds_total")? * 1e9).round() as u64,
                series("work_total")? as u64,
                0,
            );
        }
        let spans = tracer.spans();
        let mut layer_ms = stages.layer_ms();
        for name in [
            "daemon.connect",
            "daemon.write",
            "daemon.read",
            "daemon.healthz",
            "daemon.metrics",
        ] {
            layer_ms.insert(name, durations_ms(&spans, name).iter().sum());
        }
        let mut m = stage_metrics(&stages, ops);
        m.insert(
            "infoflow.graph.edges_per_op",
            truns
                .iter()
                .flat_map(|r| &r.records)
                .filter(|r| matches!(r.pick, Pick::Cold { .. }))
                .map(|r| expected[&r.pick].edges as f64)
                .sum::<f64>()
                / ops as f64,
        );
        m.insert("cli.report.ms_per_op", report);
        let (hits, misses) = (
            delta("vhdl1_engine_cache_hits_total")?,
            delta("vhdl1_engine_cache_misses_total")?,
        );
        if let Some(r) = ratio(hits, hits + misses) {
            m.insert("infoflow.engine.memo_hit_ratio", r);
        }
        let (shits, smisses) = (
            delta("vhdl1_store_hits_total")?,
            delta("vhdl1_store_misses_total")?,
        );
        if let Some(r) = ratio(shits, shits + smisses) {
            m.insert("infoflow.store.hit_ratio", r);
        }
        let medians = [
            ("infoflow.store.load_ms_p50", store.0),
            ("infoflow.store.save_ms_p50", store.1),
            (
                "daemon.connect_ms_p50",
                durations_ms(&spans, "daemon.connect"),
            ),
            ("daemon.ttfb_ms_p50", durations_ms(&spans, "daemon.ttfb")),
            (
                "daemon.healthz_ms_p50",
                durations_ms(&spans, "daemon.healthz"),
            ),
            (
                "daemon.metrics_scrape_ms",
                durations_ms(&spans, "daemon.metrics"),
            ),
        ];
        for (name, samples) in medians {
            m.insert(name, median(&samples));
        }
        m.insert("daemon.metrics_bytes", after.len() as f64);
        m.insert("daemon.rss_growth_mb", rss_growth);
        out.notes.push(format!(
            "store hits {shits}, misses {smisses}, writes {}; memo hits {hits}, misses {misses}; \
             {} healthz and {} metrics probes traced",
            delta("vhdl1_store_writes_total")?,
            durations_ms(&spans, "daemon.healthz").len(),
            durations_ms(&spans, "daemon.metrics").len()
        ));
        let busy_ms = roots_ms(&spans);
        let replay = Replay {
            ops,
            spans,
            engine_spans: Vec::new(),
            layer_ms,
            busy_ms,
            glue: "the daemon's handler outside the engine's stages, which the daemon records no \
                   spans for: HTTP and manifest parsing, memo lookups, store probes and writes \
                   (timed apart as infoflow.store.*), report assembly and rendering (timed apart \
                   as cli.report)",
            wall_s: replay_s,
        };
        replay.into_outcome(&mut out, m, wall_s);
    }
    out.failed = failed;
    Ok(out)
}

/// `ArtifactStore::load` and `save` timed directly on the store the traced
/// daemon left behind: the hot set and up to [`STORE_PROBES`] new designs,
/// each loaded and saved back under its own key.  Saving into the store
/// the run filled keeps the cost of the directory listing every save
/// makes, which grows with the store.
fn store_probes(
    daemon: &Daemon,
    seed: u64,
    hot: &[GeneratedDesign],
    runs: &[ClientRun],
) -> (Vec<f64>, Vec<f64>) {
    let keyer = Engine::new(EngineConfig {
        options: daemon.config.analysis,
        cache: CachePolicy::Disabled,
    });
    let store = ArtifactStore::open(&daemon.dir, STORE_CAP).expect("open the daemon's store");
    let cold = runs
        .iter()
        .flat_map(|r| &r.records)
        .filter_map(|r| match r.pick {
            Pick::Cold { c, k } => Some(cold_design(seed, c, k)),
            Pick::Hot(_) => None,
        })
        .take(STORE_PROBES);
    let (mut loads, mut saves) = (Vec::new(), Vec::new());
    for design in hot.iter().cloned().chain(cold) {
        let key = keyer.source_key(&design.source);
        let t = Instant::now();
        let artifact = store.load(key);
        loads.push(ms(t.elapsed()));
        if let Some(artifact) = artifact {
            let t = Instant::now();
            if store.save(&artifact).is_ok() {
                saves.push(ms(t.elapsed()));
            }
        }
    }
    (loads, saves)
}
