//! # `vhdl1-infoflow` — the Information Flow analysis of Section 5
//!
//! This crate is the primary contribution of the reproduced paper,
//! *Information Flow Analysis for VHDL* (Tolstrup, Nielson & Nielson,
//! PaCT 2005): a flow-sensitive information-flow analysis for VHDL1 whose
//! result is a (generally non-transitive) directed graph over the variables
//! and signals of a design.
//!
//! The pipeline:
//!
//! 1. [`local`] — the inference system of Table 6 builds the local Resource
//!    Matrix `RM_lo` (which resources are read/modified at each label,
//!    including implicit flows from branch conditions);
//! 2. [`closure`] — Table 7 specialises the Reaching Definitions results of
//!    `vhdl1-dataflow`, and Table 8 closes `RM_lo` along admissible
//!    definition-use chains into the global matrix `RM_gl`;
//! 3. [`improved`] — Table 9 adds incoming (`n◦`) and outgoing (`n•`) nodes
//!    modelling the environment process `π`;
//! 4. [`graph`] — the matrix induces the information-flow graph, exportable
//!    to Graphviz;
//! 5. [`kemmerer`] — the flow-insensitive baseline the paper compares
//!    against; [`policy`] — Common Criteria style flow audits.
//!
//! The primary entry point is the demand-driven [`engine`] API: a
//! long-lived [`Engine`] session hands out lazy, memoized [`Analysis`]
//! handles whose stage queries compute on first demand and return borrowed
//! artifacts.  [`Engine::workspace`] opens an edit session ([`Workspace`])
//! that analyses successive revisions of a design through the engine's
//! memo table.  The eager [`analyze`]/[`analyze_with`] one-shots remain as
//! compatibility wrappers materialising an owned [`AnalysisResult`].
//!
//! ```
//! use vhdl1_infoflow::analyze;
//!
//! let design = vhdl1_syntax::frontend(
//!     "entity e is port(a : in std_logic; b : out std_logic); end e;
//!      architecture rtl of e is begin
//!        p : process begin b <= a; wait on a; end process p;
//!      end rtl;")?;
//! let result = analyze(&design);
//! let graph = result.flow_graph();
//! assert!(graph.has_edge("a", "b"));
//! println!("{}", graph.to_dot("copy"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alfp_encoding;
pub mod analysis;
pub mod budget;
pub mod closure;
pub mod dynflow;
pub mod engine;
pub mod graph;
pub mod improved;
pub mod kemmerer;
pub mod local;
pub mod policy;
pub mod rm;
pub mod store;
pub mod trace;

pub use analysis::{
    analyze, analyze_all, analyze_source, analyze_with, AnalysisOptions, AnalysisOptionsBuilder,
    AnalysisResult,
};
pub use budget::{Budget, CancelFlag};
pub use closure::{
    global_closure, global_closure_bounded, specialize_rd, ClosureExhausted, SpecializedRd,
};
pub use dynflow::{DynFlowReport, NoFlowProperty};
pub use engine::{
    fnv1a64, options_fingerprint, Analysis, CachePolicy, Engine, EngineConfig, EngineError,
    EnginePhase, EngineStage, EngineStats, SmokeReport, Workspace, DYNFLOW_MAX_DELTAS,
};
pub use graph::{FlowGraph, GraphLabels};
pub use improved::{improved_closure, improved_closure_bounded, ImprovedClosure, ImprovedOptions};
pub use kemmerer::{kemmerer_graph, kemmerer_graph_from_matrix};
pub use local::local_dependencies;
pub use policy::{audit, AuditReport, Policy, Violation};
pub use rm::{Access, Node, ResourceMatrix, RmEntry};
pub use store::{Artifact, ArtifactStore, DesignSummary, ARTIFACT_VERSION};
pub use trace::{render_prometheus, SpanRecord, StageAgg, TraceEvent, TraceSink, TraceSnapshot};
