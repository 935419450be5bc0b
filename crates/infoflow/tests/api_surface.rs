//! Dependency-free public-API snapshot test.
//!
//! The crate's surface — its `pub mod`s and the names re-exported at the
//! root — is pinned in `tests/api_surface.golden`.  Accidental additions,
//! removals or renames fail this test; intentional changes regenerate the
//! golden with `UPDATE_GOLDEN=1 cargo test -p vhdl1-infoflow --test
//! api_surface`.
//!
//! The snapshot is extracted textually from `src/lib.rs` (no proc-macro or
//! rustdoc dependency); the `compile_time_surface_check` test below keeps
//! the extraction honest by `use`-ing every golden name, so a stale golden
//! cannot pass the build.

use std::fmt::Write as _;

fn surface() -> String {
    let lib = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/src/lib.rs"))
        .expect("lib.rs is readable");
    let mut mods: Vec<String> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    // `pub use` lists may span lines; strip to `;` before splitting.
    let flattened = lib.replace('\n', " ");
    for item in flattened.split(';') {
        // The first statement of a chunk may be preceded by doc comments or
        // attributes; locate the declaration inside the chunk.
        if let Some(at) = item.find("pub mod ") {
            mods.push(item[at + "pub mod ".len()..].trim().to_string());
        } else if let Some(at) = item.find("pub use ") {
            let u = item[at + "pub use ".len()..].trim();
            let (_path, list) = match u.split_once('{') {
                Some((p, rest)) => (p, rest.trim_end_matches('}')),
                None => ("", u.rsplit("::").next().unwrap_or(u)),
            };
            for name in list.split(',') {
                let name = name.trim();
                if !name.is_empty() {
                    names.push(name.rsplit("::").next().unwrap_or(name).to_string());
                }
            }
        }
    }
    mods.sort();
    names.sort();
    let mut out = String::new();
    let _ = writeln!(out, "# public modules");
    for m in &mods {
        let _ = writeln!(out, "mod {m}");
    }
    let _ = writeln!(out, "# root re-exports");
    for n in &names {
        let _ = writeln!(out, "{n}");
    }
    out
}

#[test]
fn public_api_matches_golden() {
    let actual = surface();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/api_surface.golden");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden `{path}` ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        actual, expected,
        "the public API surface of vhdl1-infoflow changed; if intentional, \
         regenerate with UPDATE_GOLDEN=1 and mention the change in CHANGES.md"
    );
}

/// Every name in the golden must actually resolve — imports fail the build
/// if the snapshot and the crate drift apart in the other direction.
#[test]
fn compile_time_surface_check() {
    #[allow(unused_imports)]
    use vhdl1_infoflow::{
        analyze, analyze_all, analyze_source, analyze_with, audit, fnv1a64, global_closure,
        improved_closure, kemmerer_graph, kemmerer_graph_from_matrix, local_dependencies,
        local_dependencies_process, options_fingerprint, render_prometheus, specialize_rd, Access,
        Analysis, AnalysisOptions, AnalysisOptionsBuilder, AnalysisResult, Artifact, ArtifactStore,
        AuditReport, CachePolicy, DesignSummary, Engine, EngineConfig, EngineError, EnginePhase,
        EngineStats, FlowGraph, GraphLabels, ImprovedClosure, ImprovedOptions, Node, Policy,
        ResourceMatrix, RmEntry, SpanRecord, SpecializedRd, StageAgg, TraceEvent, TraceSink,
        TraceSnapshot, UnitArtifact, Violation, Workspace, ARTIFACT_VERSION,
    };
    // A couple of value-level touches so the imports are demonstrably live.
    let _ = fnv1a64(b"api");
    let _ = Engine::with_options(AnalysisOptions::base());
}
