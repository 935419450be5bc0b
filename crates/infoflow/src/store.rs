//! Disk-backed content-addressed artifact store — the persistence half of
//! [`CachePolicy::Persistent`](crate::CachePolicy::Persistent).
//!
//! The engine's memo table dies with the process, yet warm re-analysis is
//! orders of magnitude faster than cold.  This module persists the
//! *serving* artifacts of an analysis — the design summary, the four flow
//! graphs, the smoke report and any dynamic flow-witness reports — keyed by
//! the same FNV-1a `source ⊕ options` hash the in-memory table uses
//! ([`Engine::source_key`](crate::Engine::source_key)), so a fresh engine
//! (or a restarted daemon) serves a previously analyzed design from disk
//! without parsing it.
//!
//! # Format
//!
//! One artifact per file, `<key as 016x hex>.vhd1art`, written atomically
//! (unique temp name + rename).  The layout is a fixed header followed by a
//! checksummed payload of tagged sections:
//!
//! ```text
//! magic    8 bytes   b"VHD1ART\n"
//! version  u32 LE    ARTIFACT_VERSION
//! key      u64 LE    cache key (must match the filename's hex)
//! seq      u64 LE    store-wide write sequence number (eviction order)
//! len      u64 LE    payload length in bytes
//! checksum u64 LE    fnv1a64 of the payload
//! payload  sections: tag u8, body_len u64 LE, body
//! ```
//!
//! Strings are length-prefixed UTF-8; graphs are a node list plus an edge
//! list (each node one kind byte + name); unknown section tags are skipped
//! so a newer writer's extra sections do not poison an older reader.
//!
//! # Failure domains
//!
//! *Every* read anomaly — missing file, short read, bad magic, version
//! mismatch, checksum mismatch, malformed section, non-UTF-8 string — is a
//! **miss**, never an error: [`ArtifactStore::load`] returns `None` and the
//! engine recomputes (and rewrites) the artifact.  Writes are best-effort:
//! an I/O failure loses persistence, not correctness.  Concurrent writers
//! are safe by construction — each write goes to a unique temp file and the
//! final rename is atomic, so readers only ever observe complete artifacts.

use crate::dynflow::{DynFlowReport, NoFlowProperty};
use crate::engine::{fnv1a64, SmokeReport};
use crate::graph::{FlowGraph, GraphLabels};
use crate::rm::{Access, Node, ResourceMatrix};
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use vhdl1_dataflow::{ActiveRd, SigDef, Solution};
use vhdl1_syntax::Label;

/// Version stamp of the on-disk artifact format.  Bump on any change to the
/// payload layout *or* to the semantics of a persisted stage: readers treat
/// every other version as a miss.
pub const ARTIFACT_VERSION: u32 = 2;

const MAGIC: &[u8; 8] = b"VHD1ART\n";
const EXTENSION: &str = "vhd1art";
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8;

// Section tags of the payload.
const SEC_SOURCE: u8 = 1;
const SEC_SUMMARY: u8 = 2;
const SEC_GRAPH: u8 = 3;
const SEC_BASE_GRAPH: u8 = 4;
const SEC_MERGED_GRAPH: u8 = 5;
const SEC_KEMMERER: u8 = 6;
const SEC_SMOKE: u8 = 7;
const SEC_DYNFLOW: u8 = 8;
const SEC_NODE_LABELS: u8 = 9;
// Per-unit artifacts ([`UnitArtifact`]) reuse the same container format
// under their own tags.  They carry no `SEC_SOURCE`, so a unit file read as
// a design artifact decodes to `None` — and vice versa a design file read
// as a unit artifact misses on the absent `SEC_UNIT_META`.
const SEC_UNIT_META: u8 = 10;
const SEC_UNIT_ACTIVE: u8 = 11;
const SEC_UNIT_LOCAL: u8 = 12;

/// The report-facing shape of a design: everything `vhdl1c` reports read
/// from the elaborated [`Design`](vhdl1_syntax::Design), flattened so a
/// disk-served analysis never has to re-parse the source to render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignSummary {
    /// Design (architecture) name.
    pub name: String,
    /// Number of processes in the elaborated design.
    pub processes: usize,
    /// Number of labelled elementary blocks.
    pub labels: u32,
    /// Number of variables and signals.
    pub resources: usize,
}

impl DesignSummary {
    /// Flattens an elaborated design.
    pub fn of(design: &vhdl1_syntax::Design) -> DesignSummary {
        DesignSummary {
            name: design.name.clone(),
            processes: design.processes.len(),
            labels: design.max_label(),
            resources: design.resource_names().len(),
        }
    }
}

/// One persisted analysis: the source text (collision guard + lazy re-parse
/// seed) plus whichever serving artifacts had been computed when the engine
/// wrote it back.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The cache key ([`Engine::source_key`](crate::Engine::source_key)).
    pub key: u64,
    /// The exact source text the key was derived from.  Loads verify it
    /// against the requested source, so a hash collision degrades to a miss
    /// instead of serving the wrong design.
    pub source: String,
    /// Report-facing design shape, when computed.
    pub summary: Option<DesignSummary>,
    /// The information-flow graph (improved when the options say so).
    pub graph: Option<FlowGraph>,
    /// The base (non-improved) closure's graph.
    pub base_graph: Option<FlowGraph>,
    /// The merged-IO presentation graph audits run against.
    pub merged_graph: Option<FlowGraph>,
    /// The Kemmerer comparison baseline graph.
    pub kemmerer: Option<FlowGraph>,
    /// The smoke-simulation report, when the run succeeded.
    pub smoke: Option<SmokeReport>,
    /// Dynamic flow-witness reports, one per `(rounds, seed)` pair.
    pub dynflows: Vec<(u64, u64, DynFlowReport)>,
    /// Per-node label annotations for DOT rendering, when computed — lets a
    /// warm `--format dot` run zero front-end work.
    pub graph_labels: Option<GraphLabels>,
}

impl Artifact {
    /// An artifact holding only its identity (key + source); stage sections
    /// are filled in by the engine's write-through.
    pub fn new(key: u64, source: String) -> Artifact {
        Artifact {
            key,
            source,
            summary: None,
            graph: None,
            base_graph: None,
            merged_graph: None,
            kemmerer: None,
            smoke: None,
            dynflows: Vec::new(),
            graph_labels: None,
        }
    }
}

/// One persisted per-process analysis unit, keyed by
/// `unit_fingerprint ⊕ rotl17(options_fingerprint)`: the unit's canonical
/// texts (collision guard) plus the stage rows the incremental engine can
/// reuse without re-running the per-process fixpoints.
///
/// Rows are stored set-canonically (sorted facts, label rows in control-flow
/// order), so rehydration via [`Solution::from_rows`] reproduces solutions
/// content-equal to a fresh per-process analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitArtifact {
    /// The unit cache key.
    pub key: u64,
    /// Canonical design-context text the key mixes in (signal table, process
    /// count, design/entity names).
    pub context: String,
    /// Canonical labelled text of the process itself.
    pub unit: String,
    /// Rows `(label, entry, exit)` of the active-signal over-approximation.
    pub over: Vec<(Label, Vec<SigDef>, Vec<SigDef>)>,
    /// Rows of the active-signal under-approximation.
    pub under: Vec<(Label, Vec<SigDef>, Vec<SigDef>)>,
    /// Entries `(label, node, access)` of the local Resource Matrix.
    pub local: Vec<(Label, Node, Access)>,
}

impl UnitArtifact {
    /// Flattens a computed per-process state into its persisted shape.
    pub fn of(
        key: u64,
        context: &str,
        unit: &str,
        active: &ActiveRd,
        local: &ResourceMatrix,
    ) -> UnitArtifact {
        let rows = |s: &Solution<SigDef>| {
            s.labels()
                .iter()
                .map(|&l| {
                    (
                        l,
                        s.entry_of(l).into_iter().collect::<Vec<_>>(),
                        s.exit_of(l).into_iter().collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>()
        };
        UnitArtifact {
            key,
            context: context.to_string(),
            unit: unit.to_string(),
            over: rows(&active.over),
            under: rows(&active.under),
            local: local
                .iter()
                .map(|e| (e.label, e.node.clone(), e.access))
                .collect(),
        }
    }

    /// Rehydrates the active-signal Reaching Definitions solutions.
    pub fn active(&self) -> ActiveRd {
        let solution = |rows: &[(Label, Vec<SigDef>, Vec<SigDef>)]| {
            Solution::from_rows(
                rows.iter()
                    .map(|(l, en, ex)| {
                        (
                            *l,
                            en.iter().cloned().collect::<BTreeSet<_>>(),
                            ex.iter().cloned().collect::<BTreeSet<_>>(),
                        )
                    })
                    .collect(),
            )
        };
        ActiveRd {
            over: solution(&self.over),
            under: solution(&self.under),
        }
    }

    /// Rehydrates the local Resource Matrix.
    pub fn local_matrix(&self) -> ResourceMatrix {
        let mut rm = ResourceMatrix::new();
        for (label, node, access) in &self.local {
            rm.insert(node.clone(), *label, *access);
        }
        rm
    }
}

/// A directory of content-addressed analysis artifacts with atomic writes
/// and deterministic capped eviction (lowest write-sequence first).
///
/// Shared freely across threads; safe across *processes* too — writers
/// never clobber a partially written file (unique temp name + rename), and
/// readers treat any torn or foreign bytes as a miss.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    cap: usize,
    /// Next write sequence number; seeded past every sequence already on
    /// disk so eviction order survives restarts.
    seq: AtomicU64,
}

impl ArtifactStore {
    /// Opens (creating if needed) an artifact directory capped at `cap`
    /// artifacts (`0` means 1 — an artifact just written is never evicted
    /// by its own write).
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be created or read.
    pub fn open(dir: impl Into<PathBuf>, cap: usize) -> io::Result<ArtifactStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut max_seq = 0u64;
        for entry in fs::read_dir(&dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(EXTENSION) {
                continue;
            }
            if let Some((_, seq)) = read_header(&path) {
                max_seq = max_seq.max(seq);
            }
        }
        Ok(ArtifactStore {
            dir,
            cap: cap.max(1),
            seq: AtomicU64::new(max_seq.wrapping_add(1)),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The eviction cap (artifact count).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Number of artifacts currently on disk.
    pub fn len(&self) -> usize {
        self.artifact_files().len()
    }

    /// Whether the store holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Loads the artifact stored under `key`.  Any anomaly — absent,
    /// truncated, corrupted, version-mismatched or key-mismatched file — is
    /// a miss (`None`), never an error.
    pub fn load(&self, key: u64) -> Option<Artifact> {
        let bytes = fs::read(self.path_of(key)).ok()?;
        decode(&bytes, key)
    }

    /// Loads the per-process unit artifact stored under `key`.  Same failure
    /// domain as [`ArtifactStore::load`]: any anomaly — including the file
    /// being a whole-design artifact — is a miss.
    pub fn load_unit(&self, key: u64) -> Option<UnitArtifact> {
        let bytes = fs::read(self.path_of(key)).ok()?;
        decode_unit(&bytes, key)
    }

    /// Atomically persists `artifact` (unique temp file + rename), then
    /// evicts oldest-written artifacts beyond the cap.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the write or rename; eviction failures are
    /// ignored (a racing process may have removed the file first).
    pub fn save(&self, artifact: &Artifact) -> io::Result<()> {
        self.save_bytes(artifact.key, |seq| encode(artifact, seq))
    }

    /// Atomically persists a per-process unit artifact.  Units share the
    /// store's directory, sequence numbering and eviction cap with design
    /// artifacts.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the write or rename.
    pub fn save_unit(&self, unit: &UnitArtifact) -> io::Result<()> {
        self.save_bytes(unit.key, |seq| encode_unit(unit, seq))
    }

    fn save_bytes(&self, key: u64, encode: impl FnOnce(u64) -> Vec<u8>) -> io::Result<()> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let bytes = encode(seq);
        let tmp = self
            .dir
            .join(format!(".{:016x}.{}.{}.tmp", key, std::process::id(), seq));
        fs::write(&tmp, &bytes)?;
        let result = fs::rename(&tmp, self.path_of(key));
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result?;
        self.evict();
        Ok(())
    }

    /// Removes oldest-written artifacts (by embedded sequence number) until
    /// the store is within its cap.  Deterministic for a fixed write
    /// history: eviction order is the write order, not directory order.
    fn evict(&self) {
        let files = self.artifact_files();
        if files.len() <= self.cap {
            return;
        }
        // Unreadable headers sort first (sequence 0): corrupt files are the
        // most useless residents of a full store.
        let mut by_seq: Vec<(u64, PathBuf)> = files
            .into_iter()
            .map(|p| (read_header(&p).map_or(0, |(_, seq)| seq), p))
            .collect();
        by_seq.sort();
        let excess = by_seq.len().saturating_sub(self.cap);
        for (_, path) in by_seq.into_iter().take(excess) {
            let _ = fs::remove_file(path);
        }
    }

    fn path_of(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.{EXTENSION}"))
    }

    fn artifact_files(&self) -> Vec<PathBuf> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(EXTENSION))
            .collect()
    }
}

/// Reads `(key, seq)` from an artifact header, validating magic and
/// version.  `None` on any anomaly.
fn read_header(path: &Path) -> Option<(u64, u64)> {
    use std::io::Read as _;
    let mut file = fs::File::open(path).ok()?;
    let mut header = [0u8; HEADER_LEN];
    file.read_exact(&mut header).ok()?;
    let mut r = Reader::new(&header);
    if r.take(MAGIC.len())? != MAGIC {
        return None;
    }
    if r.u32()? != ARTIFACT_VERSION {
        return None;
    }
    let key = r.u64()?;
    let seq = r.u64()?;
    Some((key, seq))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode(artifact: &Artifact, seq: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(artifact.source.len() + 256);
    section(&mut payload, SEC_SOURCE, |b| {
        put_str(b, &artifact.source);
    });
    if let Some(summary) = &artifact.summary {
        section(&mut payload, SEC_SUMMARY, |b| {
            put_str(b, &summary.name);
            put_u64(b, summary.processes as u64);
            put_u64(b, u64::from(summary.labels));
            put_u64(b, summary.resources as u64);
        });
    }
    for (tag, graph) in [
        (SEC_GRAPH, &artifact.graph),
        (SEC_BASE_GRAPH, &artifact.base_graph),
        (SEC_MERGED_GRAPH, &artifact.merged_graph),
        (SEC_KEMMERER, &artifact.kemmerer),
    ] {
        if let Some(graph) = graph {
            section(&mut payload, tag, |b| put_graph(b, graph));
        }
    }
    if let Some(smoke) = &artifact.smoke {
        section(&mut payload, SEC_SMOKE, |b| {
            put_u64(b, smoke.deltas);
            put_u64(b, smoke.state_digest);
        });
    }
    for (rounds, seed, report) in &artifact.dynflows {
        section(&mut payload, SEC_DYNFLOW, |b| {
            put_u64(b, *rounds);
            put_u64(b, *seed);
            put_dynflow(b, report);
        });
    }
    if let Some(labels) = &artifact.graph_labels {
        section(&mut payload, SEC_NODE_LABELS, |b| {
            put_u64(b, labels.at.len() as u64);
            for (node, at) in &labels.at {
                put_node(b, node);
                put_u64(b, at.len() as u64);
                for l in at {
                    put_u64(b, u64::from(*l));
                }
            }
        });
    }
    framed(artifact.key, seq, payload)
}

fn encode_unit(unit: &UnitArtifact, seq: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(unit.context.len() + unit.unit.len() + 256);
    section(&mut payload, SEC_UNIT_META, |b| {
        put_str(b, &unit.context);
        put_str(b, &unit.unit);
    });
    section(&mut payload, SEC_UNIT_ACTIVE, |b| {
        put_active_rows(b, &unit.over);
        put_active_rows(b, &unit.under);
    });
    section(&mut payload, SEC_UNIT_LOCAL, |b| {
        put_u64(b, unit.local.len() as u64);
        for (label, node, access) in &unit.local {
            put_u64(b, u64::from(*label));
            put_node(b, node);
            b.push(match access {
                Access::M0 => 0,
                Access::M1 => 1,
                Access::R0 => 2,
                Access::R1 => 3,
            });
        }
    });
    framed(unit.key, seq, payload)
}

/// Wraps a finished payload in the common header (magic, version, key,
/// sequence, length, checksum).
fn framed(key: u64, seq: u64, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// One label's reconstructed over- or under-approximation row: the active
/// signal definitions at entry and at exit.
type ActiveRow = (Label, Vec<SigDef>, Vec<SigDef>);

fn put_active_rows(out: &mut Vec<u8>, rows: &[ActiveRow]) {
    put_u64(out, rows.len() as u64);
    for (label, entry, exit) in rows {
        put_u64(out, u64::from(*label));
        for defs in [entry, exit] {
            put_u64(out, defs.len() as u64);
            for (sig, at) in defs {
                put_str(out, sig);
                put_u64(out, u64::from(*at));
            }
        }
    }
}

fn section(out: &mut Vec<u8>, tag: u8, body: impl FnOnce(&mut Vec<u8>)) {
    out.push(tag);
    let len_at = out.len();
    put_u64(out, 0);
    let start = out.len();
    body(out);
    let len = (out.len() - start) as u64;
    out[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_node(out: &mut Vec<u8>, node: &Node) {
    let kind = match node {
        Node::Res(_) => 0u8,
        Node::Incoming(_) => 1,
        Node::Outgoing(_) => 2,
    };
    out.push(kind);
    put_str(out, node.name());
}

fn put_graph(out: &mut Vec<u8>, graph: &FlowGraph) {
    put_u64(out, graph.node_count() as u64);
    for node in graph.nodes() {
        put_node(out, node);
    }
    put_u64(out, graph.edge_count() as u64);
    for (from, to) in graph.edges() {
        put_node(out, from);
        put_node(out, to);
    }
}

fn put_pairs(out: &mut Vec<u8>, pairs: &[(String, String)]) {
    put_u64(out, pairs.len() as u64);
    for (from, to) in pairs {
        put_str(out, from);
        put_str(out, to);
    }
}

fn put_dynflow(out: &mut Vec<u8>, report: &DynFlowReport) {
    put_u64(out, report.rounds);
    put_u64(out, report.seed);
    put_pairs(out, &report.witnessed);
    put_pairs(out, &report.soundness_violations);
    put_pairs(out, &report.unwitnessed_static);
    put_u64(out, report.no_flow_properties.len() as u64);
    for p in &report.no_flow_properties {
        put_str(out, &p.from);
        put_str(out, &p.to);
        out.push(u8::from(p.static_agrees));
    }
    put_u64(out, report.covered_edges as u64);
    put_u64(out, report.static_edges as u64);
    put_u64(out, report.kemmerer_covered as u64);
    put_u64(out, report.kemmerer_edges as u64);
    put_u64(out, report.total_deltas);
    put_u64(out, report.total_steps);
}

// ---------------------------------------------------------------------------
// Decoding (every anomaly is `None` — corruption is a miss, not an error)
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A length that still has to fit in the remaining buffer — rejects
    /// absurd corrupted lengths before any allocation sized by them.
    fn len(&mut self) -> Option<usize> {
        let len = usize::try_from(self.u64()?).ok()?;
        (len <= self.buf.len() - self.pos).then_some(len)
    }

    fn string(&mut self) -> Option<String> {
        let len = self.len()?;
        Some(std::str::from_utf8(self.take(len)?).ok()?.to_string())
    }

    fn node(&mut self) -> Option<Node> {
        let kind = self.u8()?;
        let name = self.string()?;
        match kind {
            0 => Some(Node::res(name)),
            1 => Some(Node::incoming(name)),
            2 => Some(Node::outgoing(name)),
            _ => None,
        }
    }

    fn graph(&mut self) -> Option<FlowGraph> {
        let mut graph = FlowGraph::new();
        let nodes = self.len()?;
        for _ in 0..nodes {
            graph.add_node(self.node()?);
        }
        let edges = self.len()?;
        for _ in 0..edges {
            let from = self.node()?;
            let to = self.node()?;
            graph.add_edge(from, to);
        }
        Some(graph)
    }

    fn active_rows(&mut self) -> Option<Vec<ActiveRow>> {
        let count = self.len()?;
        let mut rows = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let label = Label::try_from(self.u64()?).ok()?;
            let mut sets = [Vec::new(), Vec::new()];
            for set in &mut sets {
                let n = self.len()?;
                for _ in 0..n {
                    let sig = self.string()?;
                    let at = Label::try_from(self.u64()?).ok()?;
                    set.push((sig, at));
                }
            }
            let [entry, exit] = sets;
            rows.push((label, entry, exit));
        }
        Some(rows)
    }

    fn pairs(&mut self) -> Option<Vec<(String, String)>> {
        let count = self.len()?;
        let mut pairs = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            pairs.push((self.string()?, self.string()?));
        }
        Some(pairs)
    }

    fn dynflow(&mut self) -> Option<DynFlowReport> {
        let rounds = self.u64()?;
        let seed = self.u64()?;
        let witnessed = self.pairs()?;
        let soundness_violations = self.pairs()?;
        let unwitnessed_static = self.pairs()?;
        let count = self.len()?;
        let mut no_flow_properties = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            no_flow_properties.push(NoFlowProperty {
                from: self.string()?,
                to: self.string()?,
                static_agrees: self.u8()? != 0,
            });
        }
        Some(DynFlowReport {
            rounds,
            seed,
            witnessed,
            soundness_violations,
            unwitnessed_static,
            no_flow_properties,
            covered_edges: usize::try_from(self.u64()?).ok()?,
            static_edges: usize::try_from(self.u64()?).ok()?,
            kemmerer_covered: usize::try_from(self.u64()?).ok()?,
            kemmerer_edges: usize::try_from(self.u64()?).ok()?,
            total_deltas: self.u64()?,
            total_steps: self.u64()?,
        })
    }
}

/// Validates the header of a stored file and returns its checksummed
/// payload.  `None` on any anomaly.
fn validated_payload(bytes: &[u8], expected_key: u64) -> Option<&[u8]> {
    let mut r = Reader::new(bytes);
    if r.take(MAGIC.len())? != MAGIC {
        return None;
    }
    if r.u32()? != ARTIFACT_VERSION {
        return None;
    }
    let key = r.u64()?;
    if key != expected_key {
        return None;
    }
    let _seq = r.u64()?;
    let payload_len = r.len()?;
    let checksum = r.u64()?;
    let payload = r.take(payload_len)?;
    if r.pos != bytes.len() || fnv1a64(payload) != checksum {
        return None;
    }
    Some(payload)
}

fn decode(bytes: &[u8], expected_key: u64) -> Option<Artifact> {
    let payload = validated_payload(bytes, expected_key)?;
    let mut source = None;
    let mut artifact = Artifact::new(expected_key, String::new());
    let mut r = Reader::new(payload);
    while r.pos < payload.len() {
        let tag = r.u8()?;
        let len = r.len()?;
        let body = r.take(len)?;
        let mut b = Reader::new(body);
        match tag {
            SEC_SOURCE => source = Some(b.string()?),
            SEC_SUMMARY => {
                artifact.summary = Some(DesignSummary {
                    name: b.string()?,
                    processes: usize::try_from(b.u64()?).ok()?,
                    labels: u32::try_from(b.u64()?).ok()?,
                    resources: usize::try_from(b.u64()?).ok()?,
                });
            }
            SEC_GRAPH => artifact.graph = Some(b.graph()?),
            SEC_BASE_GRAPH => artifact.base_graph = Some(b.graph()?),
            SEC_MERGED_GRAPH => artifact.merged_graph = Some(b.graph()?),
            SEC_KEMMERER => artifact.kemmerer = Some(b.graph()?),
            SEC_SMOKE => {
                artifact.smoke = Some(SmokeReport {
                    deltas: b.u64()?,
                    state_digest: b.u64()?,
                });
            }
            SEC_DYNFLOW => {
                let rounds = b.u64()?;
                let seed = b.u64()?;
                artifact.dynflows.push((rounds, seed, b.dynflow()?));
            }
            SEC_NODE_LABELS => {
                let count = b.len()?;
                let mut labels = GraphLabels::default();
                for _ in 0..count {
                    let node = b.node()?;
                    let n = b.len()?;
                    let mut at = BTreeSet::new();
                    for _ in 0..n {
                        at.insert(Label::try_from(b.u64()?).ok()?);
                    }
                    labels.at.insert(node, at);
                }
                artifact.graph_labels = Some(labels);
            }
            // Unknown tags (from a newer writer of the same version, e.g.
            // during a rolling upgrade) are skipped, not fatal.
            _ => {}
        }
    }
    artifact.source = source?;
    Some(artifact)
}

fn decode_unit(bytes: &[u8], expected_key: u64) -> Option<UnitArtifact> {
    let payload = validated_payload(bytes, expected_key)?;
    let mut meta = None;
    let mut active = None;
    let mut local = None;
    let mut r = Reader::new(payload);
    while r.pos < payload.len() {
        let tag = r.u8()?;
        let len = r.len()?;
        let body = r.take(len)?;
        let mut b = Reader::new(body);
        match tag {
            SEC_UNIT_META => meta = Some((b.string()?, b.string()?)),
            SEC_UNIT_ACTIVE => active = Some((b.active_rows()?, b.active_rows()?)),
            SEC_UNIT_LOCAL => {
                let count = b.len()?;
                let mut entries = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let label = Label::try_from(b.u64()?).ok()?;
                    let node = b.node()?;
                    let access = match b.u8()? {
                        0 => Access::M0,
                        1 => Access::M1,
                        2 => Access::R0,
                        3 => Access::R1,
                        _ => return None,
                    };
                    entries.push((label, node, access));
                }
                local = Some(entries);
            }
            _ => {}
        }
    }
    // A design artifact (no unit sections) is a miss, not a panic.
    let (context, unit) = meta?;
    let (over, under) = active?;
    Some(UnitArtifact {
        key: expected_key,
        context,
        unit,
        over,
        under,
        local: local?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// A unique, self-cleaning temp directory (no external tempfile crate).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static COUNTER: AtomicU32 = AtomicU32::new(0);
            let dir = std::env::temp_dir().join(format!(
                "vhdl1-store-{tag}-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn sample_graph() -> FlowGraph {
        let mut graph = FlowGraph::new();
        graph.add_node(Node::res("lonely"));
        graph.add_edge(Node::incoming("a"), Node::res("t"));
        graph.add_edge(Node::res("t"), Node::outgoing("b"));
        graph
    }

    fn sample_artifact(key: u64) -> Artifact {
        let mut artifact = Artifact::new(key, "entity e is end e;".to_string());
        artifact.summary = Some(DesignSummary {
            name: "rtl".into(),
            processes: 2,
            labels: 7,
            resources: 5,
        });
        artifact.graph = Some(sample_graph());
        artifact.merged_graph = Some(sample_graph());
        artifact.smoke = Some(SmokeReport {
            deltas: 3,
            state_digest: 0xdead_beef,
        });
        artifact.dynflows.push((
            16,
            1,
            DynFlowReport {
                rounds: 16,
                seed: 1,
                witnessed: vec![("a".into(), "b".into())],
                soundness_violations: vec![],
                unwitnessed_static: vec![("a".into(), "c".into())],
                no_flow_properties: vec![NoFlowProperty {
                    from: "a".into(),
                    to: "c".into(),
                    static_agrees: true,
                }],
                covered_edges: 1,
                static_edges: 2,
                kemmerer_covered: 1,
                kemmerer_edges: 1,
                total_deltas: 42,
                total_steps: 99,
            },
        ));
        let mut labels = GraphLabels::default();
        labels.at.insert(Node::res("t"), BTreeSet::from([1, 3]));
        labels.at.insert(Node::incoming("a"), BTreeSet::from([2]));
        artifact.graph_labels = Some(labels);
        artifact
    }

    fn sample_unit(key: u64) -> UnitArtifact {
        UnitArtifact {
            key,
            context: "design rtl entity e\nprocesses 2\nsignal a in std_logic\n".into(),
            unit: "process p #0\nbegin\n1: b <= a\n2: wait on a\n".into(),
            over: vec![
                (1, vec![("a".into(), 2)], vec![("a".into(), 2)]),
                (2, vec![("a".into(), 2), ("b".into(), 1)], vec![]),
            ],
            under: vec![(1, vec![], vec![]), (2, vec![("b".into(), 1)], vec![])],
            local: vec![
                (1, Node::res("b"), Access::M1),
                (1, Node::res("a"), Access::R0),
                (2, Node::res("a"), Access::R1),
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_every_section() {
        let tmp = TempDir::new("roundtrip");
        let store = ArtifactStore::open(tmp.path(), 16).unwrap();
        let artifact = sample_artifact(0x1234);
        store.save(&artifact).unwrap();
        let loaded = store.load(0x1234).expect("artifact must load");
        assert_eq!(loaded, artifact);
        // A partially filled artifact (identity only) roundtrips too.
        let bare = Artifact::new(0x99, "src".into());
        store.save(&bare).unwrap();
        assert_eq!(store.load(0x99).unwrap(), bare);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn unit_artifacts_roundtrip_and_rehydrate() {
        let tmp = TempDir::new("unit");
        let store = ArtifactStore::open(tmp.path(), 16).unwrap();
        let unit = sample_unit(0x51);
        store.save_unit(&unit).unwrap();
        let loaded = store.load_unit(0x51).expect("unit must load");
        assert_eq!(loaded, unit);
        // Rehydrated solutions carry the persisted rows set-canonically.
        let active = loaded.active();
        assert_eq!(active.over.entry_of(2).len(), 2);
        assert!(active.must_be_active_at(2).contains("b"));
        let rm = loaded.local_matrix();
        assert!(rm.contains(&Node::res("b"), 1, Access::M1));
        assert_eq!(rm.len(), 3);
    }

    #[test]
    fn design_and_unit_artifacts_miss_each_other() {
        let tmp = TempDir::new("cross-kind");
        let store = ArtifactStore::open(tmp.path(), 16).unwrap();
        store.save(&sample_artifact(0x61)).unwrap();
        store.save_unit(&sample_unit(0x62)).unwrap();
        // A unit file read as a design artifact (and vice versa) is a miss,
        // never a panic or a wrong-shape hit.
        assert!(store.load(0x62).is_none());
        assert!(store.load_unit(0x61).is_none());
        assert!(store.load(0x61).is_some());
        assert!(store.load_unit(0x62).is_some());
    }

    #[test]
    fn missing_and_wrong_key_are_misses() {
        let tmp = TempDir::new("miss");
        let store = ArtifactStore::open(tmp.path(), 16).unwrap();
        assert!(store.load(7).is_none());
        store.save(&sample_artifact(7)).unwrap();
        assert!(store.load(8).is_none());
        // A file renamed under a different key fails the embedded-key check.
        fs::rename(
            tmp.path().join(format!("{:016x}.{EXTENSION}", 7)),
            tmp.path().join(format!("{:016x}.{EXTENSION}", 8)),
        )
        .unwrap();
        assert!(store.load(8).is_none());
    }

    #[test]
    fn truncated_and_garbage_artifacts_are_misses() {
        let tmp = TempDir::new("corrupt");
        let store = ArtifactStore::open(tmp.path(), 16).unwrap();
        let key = 0xabcd;
        store.save(&sample_artifact(key)).unwrap();
        let path = tmp.path().join(format!("{key:016x}.{EXTENSION}"));
        let full = fs::read(&path).unwrap();

        // Truncation at every prefix length is a miss, never a panic.
        for cut in [0, 1, 7, HEADER_LEN - 1, HEADER_LEN, full.len() - 1] {
            fs::write(&path, &full[..cut]).unwrap();
            assert!(store.load(key).is_none(), "cut={cut}");
        }
        // Pure garbage.
        fs::write(&path, b"not an artifact at all").unwrap();
        assert!(store.load(key).is_none());
        // A single flipped payload byte fails the checksum.
        let mut flipped = full.clone();
        *flipped.last_mut().unwrap() ^= 0xff;
        fs::write(&path, &flipped).unwrap();
        assert!(store.load(key).is_none());
        // Trailing junk after the payload is a miss too.
        let mut padded = full.clone();
        padded.push(0);
        fs::write(&path, &padded).unwrap();
        assert!(store.load(key).is_none());
        // Restoring the original bytes restores the hit.
        fs::write(&path, &full).unwrap();
        assert!(store.load(key).is_some());
    }

    #[test]
    fn version_bump_is_a_miss() {
        let tmp = TempDir::new("version");
        let store = ArtifactStore::open(tmp.path(), 16).unwrap();
        let key = 0x77;
        store.save(&sample_artifact(key)).unwrap();
        let path = tmp.path().join(format!("{key:016x}.{EXTENSION}"));
        let mut bytes = fs::read(&path).unwrap();
        // The version field sits right after the 8-byte magic.
        let bumped = (ARTIFACT_VERSION + 1).to_le_bytes();
        bytes[8..12].copy_from_slice(&bumped);
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(key).is_none());
    }

    #[test]
    fn eviction_is_deterministic_and_write_ordered() {
        let tmp = TempDir::new("evict");
        let store = ArtifactStore::open(tmp.path(), 3).unwrap();
        for key in 1..=5u64 {
            store
                .save(&Artifact::new(key, format!("src {key}")))
                .unwrap();
        }
        assert_eq!(store.len(), 3);
        assert!(store.load(1).is_none(), "oldest write evicted first");
        assert!(store.load(2).is_none());
        for key in 3..=5u64 {
            assert!(store.load(key).is_some(), "key {key} must survive");
        }
        // Re-saving an existing key refreshes its write sequence.
        store.save(&Artifact::new(3, "src 3".into())).unwrap();
        store.save(&Artifact::new(6, "src 6".into())).unwrap();
        assert!(store.load(4).is_none(), "4 is now the oldest write");
        assert!(store.load(3).is_some(), "refreshed key survives");
    }

    #[test]
    fn sequence_numbers_survive_reopen() {
        let tmp = TempDir::new("reopen");
        {
            let store = ArtifactStore::open(tmp.path(), 3).unwrap();
            for key in 1..=3u64 {
                store
                    .save(&Artifact::new(key, format!("src {key}")))
                    .unwrap();
            }
        }
        // A fresh store continues the sequence: the next write evicts key 1
        // (the oldest), not an arbitrary resident.
        let store = ArtifactStore::open(tmp.path(), 3).unwrap();
        store.save(&Artifact::new(4, "src 4".into())).unwrap();
        assert!(store.load(1).is_none());
        assert!(store.load(2).is_some());
        assert!(store.load(4).is_some());
    }

    #[test]
    fn concurrent_writers_never_tear_an_artifact() {
        let tmp = TempDir::new("race");
        let store = ArtifactStore::open(tmp.path(), 64).unwrap();
        let key = 0xfeed;
        std::thread::scope(|scope| {
            for t in 0..8 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..16 {
                        let mut artifact = sample_artifact(key);
                        artifact.summary.as_mut().unwrap().processes = t * 100 + i;
                        store.save(&artifact).unwrap();
                        // Every observed state is a complete, valid artifact.
                        let loaded = store.load(key).expect("never torn");
                        assert_eq!(loaded.key, key);
                        assert!(loaded.summary.is_some());
                    }
                });
            }
        });
        assert!(store.load(key).is_some());
        // No temp files leaked.
        let leftovers: Vec<_> = fs::read_dir(tmp.path())
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn unknown_sections_are_skipped_not_fatal() {
        let tmp = TempDir::new("forward");
        let store = ArtifactStore::open(tmp.path(), 16).unwrap();
        let key = 0x31u64;
        // Hand-build an artifact with an unknown trailing section.
        let mut payload = Vec::new();
        section(&mut payload, SEC_SOURCE, |b| put_str(b, "src"));
        section(&mut payload, 200, |b| b.extend_from_slice(b"future data"));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&key.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        fs::write(store.dir().join(format!("{key:016x}.{EXTENSION}")), &bytes).unwrap();
        let loaded = store.load(0x31).expect("unknown section must be skipped");
        assert_eq!(loaded.source, "src");
    }
}
