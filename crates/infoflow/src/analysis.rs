//! The eager one-shot entry points and their owned [`AnalysisResult`].
//!
//! These are compatibility façades over the session API: each drives a
//! throwaway [`crate::Engine`] session, runs a lazy [`crate::Analysis`] to
//! completion and materialises an owned result.  Callers that query more
//! than once, analyse more than one design, or do not need every stage
//! should hold an [`crate::Engine`] instead.

use crate::budget::Budget;
use crate::closure::SpecializedRd;
use crate::engine::{Engine, EngineError};
use crate::graph::FlowGraph;
use crate::improved::{ImprovedClosure, ImprovedOptions};
use crate::kemmerer::kemmerer_graph_from_matrix;
use crate::rm::ResourceMatrix;
use serde::{Deserialize, Serialize};
use vhdl1_dataflow::{RdOptions, ReachingDefinitions};
use vhdl1_syntax::Design;

/// Options of the complete Information Flow analysis.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`AnalysisOptions::builder`] (or start from [`Default::default`],
/// [`AnalysisOptions::base`] or [`AnalysisOptions::sequential_illustration`]
/// and mutate fields), so adding an option is never a breaking change for
/// downstream crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct AnalysisOptions {
    /// Options of the underlying Reaching Definitions analyses.
    pub rd: RdOptions,
    /// Apply the RD specialisation of Table 7 before the closure.  Disabling
    /// it is an ablation: the closure then follows every reaching definition,
    /// not only the ones actually read at a label.
    pub specialize_rd: bool,
    /// Run the improved analysis of Section 5.3 (incoming `n◦` / outgoing
    /// `n•` nodes) in addition to the base closure.
    pub improved: bool,
    /// Options of the improved analysis.
    pub improved_options: ImprovedOptions,
    /// Resource limits of every stage (unlimited by default).  The budget is
    /// part of the options and therefore of the engine's memo key, so
    /// analyses under different budgets never share cached stages.
    pub budget: Budget,
    /// Collect stage-level spans and metrics into the engine's
    /// [`crate::TraceSink`] (`vhdl1c --profile`).  Off by default: the
    /// disabled path performs no span allocation and no timing calls —
    /// every instrumentation site reduces to one `Option` check.  Tracing
    /// never changes any analysis artifact or report byte.
    pub trace: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            rd: RdOptions::default(),
            specialize_rd: true,
            improved: true,
            improved_options: ImprovedOptions::default(),
            budget: Budget::default(),
            trace: false,
        }
    }
}

impl AnalysisOptions {
    /// Options for analysing the straight-line illustration programs of
    /// Figures 3 and 4: processes do not repeat and final assignments are
    /// treated as outgoing values.
    pub fn sequential_illustration() -> Self {
        AnalysisOptions {
            rd: RdOptions {
                process_repeats: false,
                ..RdOptions::default()
            },
            specialize_rd: true,
            improved: true,
            improved_options: ImprovedOptions {
                finals_are_outgoing: true,
            },
            budget: Budget::default(),
            trace: false,
        }
    }

    /// Options for the base (non-improved) analysis.
    pub fn base() -> Self {
        AnalysisOptions {
            improved: false,
            ..AnalysisOptions::default()
        }
    }

    /// Starts a builder from the default (paper-faithful) options.
    ///
    /// # Examples
    ///
    /// ```
    /// use vhdl1_infoflow::AnalysisOptions;
    ///
    /// let opts = AnalysisOptions::builder().improved(false).trace(true).build();
    /// assert!(!opts.improved);
    /// assert!(opts.trace);
    /// ```
    pub fn builder() -> AnalysisOptionsBuilder {
        AnalysisOptionsBuilder {
            opts: AnalysisOptions::default(),
        }
    }

    /// Starts a builder from these options (e.g. from
    /// [`AnalysisOptions::base`]), for changing a field without struct
    /// update syntax — which `#[non_exhaustive]` forbids downstream.
    pub fn to_builder(self) -> AnalysisOptionsBuilder {
        AnalysisOptionsBuilder { opts: self }
    }
}

/// Builder of [`AnalysisOptions`] — the construction path for downstream
/// crates, since the options struct is `#[non_exhaustive]`.
///
/// Obtained from [`AnalysisOptions::builder`] (defaults) or
/// [`AnalysisOptions::to_builder`] (any starting point); finished with
/// [`AnalysisOptionsBuilder::build`].
#[derive(Debug, Clone, Copy)]
pub struct AnalysisOptionsBuilder {
    opts: AnalysisOptions,
}

impl Default for AnalysisOptionsBuilder {
    fn default() -> Self {
        AnalysisOptions::builder()
    }
}

impl AnalysisOptionsBuilder {
    /// Sets the Reaching Definitions options.
    pub fn rd(mut self, rd: RdOptions) -> Self {
        self.opts.rd = rd;
        self
    }

    /// Sets whether the RD specialisation of Table 7 runs.
    pub fn specialize_rd(mut self, on: bool) -> Self {
        self.opts.specialize_rd = on;
        self
    }

    /// Sets whether the improved analysis of Section 5.3 runs.
    pub fn improved(mut self, on: bool) -> Self {
        self.opts.improved = on;
        self
    }

    /// Sets the options of the improved analysis.
    pub fn improved_options(mut self, improved_options: ImprovedOptions) -> Self {
        self.opts.improved_options = improved_options;
        self
    }

    /// Sets the resource budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.opts.budget = budget;
        self
    }

    /// Sets whether stage-level tracing is collected.
    pub fn trace(mut self, on: bool) -> Self {
        self.opts.trace = on;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> AnalysisOptions {
        self.opts
    }
}

/// Every artefact produced by the analysis pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisResult {
    /// Name of the analysed architecture.
    pub design_name: String,
    /// The options used.
    pub options: AnalysisOptions,
    /// The Reaching Definitions artefacts (Section 4).
    pub rd: ReachingDefinitions,
    /// The local Resource Matrix `RM_lo` (Table 6).
    pub local: ResourceMatrix,
    /// The specialised Reaching Definitions (Table 7).
    pub specialized: SpecializedRd,
    /// The global Resource Matrix `RM_gl` of the base closure (Table 8).
    pub global: ResourceMatrix,
    /// The improved closure (Table 9), if requested.
    pub improved: Option<ImprovedClosure>,
}

impl AnalysisResult {
    /// The information-flow graph of the analysis: the improved graph when
    /// the improved analysis was run, the base graph otherwise.
    ///
    /// Builds a fresh graph on every call (the owned result has no memo
    /// slots); query [`crate::Analysis::flow_graph`] instead when the graph
    /// is needed more than once.
    pub fn flow_graph(&self) -> FlowGraph {
        match &self.improved {
            Some(imp) => FlowGraph::from_resource_matrix(&imp.matrix),
            None => FlowGraph::from_resource_matrix(&self.global),
        }
    }

    /// The information-flow graph of the base (non-improved) closure.
    pub fn base_flow_graph(&self) -> FlowGraph {
        FlowGraph::from_resource_matrix(&self.global)
    }

    /// The graph produced by Kemmerer's method on the same local Resource
    /// Matrix (the paper's comparison baseline).
    pub fn kemmerer_flow_graph(&self) -> FlowGraph {
        kemmerer_graph_from_matrix(&self.local)
    }
}

/// Runs the full analysis with default (paper-faithful) options.
///
/// # Examples
///
/// The canonical one-process copier: information flows from the input port
/// to the output port, and nowhere else:
///
/// ```
/// use vhdl1_infoflow::analyze;
///
/// let design = vhdl1_syntax::frontend(
///     "entity e is port(a : in std_logic; b : out std_logic); end e;
///      architecture rtl of e is begin
///        p : process begin b <= a; wait on a; end process p;
///      end rtl;")?;
/// let result = analyze(&design);
/// let graph = result.flow_graph();
/// assert!(graph.has_edge("a", "b"));
/// assert!(!graph.has_edge("b", "a"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn analyze(design: &Design) -> AnalysisResult {
    analyze_with(design, &AnalysisOptions::default())
}

/// Runs the full analysis with explicit options.
///
/// # Panics
///
/// Panics when `options.budget` is exhausted mid-pipeline (see
/// [`crate::Analysis::into_result`]); budget-aware callers should drive an
/// [`Engine`] and use [`crate::Analysis::try_into_result`] instead.
///
/// # Examples
///
/// [`AnalysisOptions::base`] skips the improved (Section 5.3) closure; the
/// result then carries no incoming/outgoing nodes:
///
/// ```
/// use vhdl1_infoflow::{analyze_with, AnalysisOptions};
///
/// let design = vhdl1_syntax::frontend(
///     "entity e is port(a : in std_logic; b : out std_logic); end e;
///      architecture rtl of e is begin
///        p : process begin b <= a; wait on a; end process p;
///      end rtl;")?;
/// let result = analyze_with(&design, &AnalysisOptions::base());
/// assert!(result.improved.is_none());
/// assert!(result.base_flow_graph().has_edge("a", "b"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn analyze_with(design: &Design, options: &AnalysisOptions) -> AnalysisResult {
    let mut batch = analyze_all([design], options);
    batch.pop().expect("one design in, one result out")
}

/// Parses, elaborates and analyzes a source text in one step — the
/// per-design entry point of batch drivers (`vhdl1c analyze`), where inputs
/// arrive as text rather than elaborated designs.
///
/// Internally this is [`Engine::analyze_source`] on a throwaway
/// [`Engine`].
///
/// # Panics
///
/// Panics when `options.budget` is exhausted mid-pipeline, like
/// [`analyze_with`].
///
/// # Errors
///
/// Returns the front end's [`vhdl1_syntax::SyntaxError`] when the source
/// does not parse or elaborate.
///
/// # Examples
///
/// ```
/// use vhdl1_infoflow::{analyze_source, AnalysisOptions};
///
/// let result = analyze_source(
///     "entity e is port(a : in std_logic; b : out std_logic); end e;
///      architecture rtl of e is begin
///        p : process begin b <= a; wait on a; end process p;
///      end rtl;",
///     &AnalysisOptions::default(),
/// )?;
/// assert!(result.flow_graph().has_edge("a", "b"));
/// # Ok::<(), vhdl1_syntax::SyntaxError>(())
/// ```
pub fn analyze_source(
    src: &str,
    options: &AnalysisOptions,
) -> Result<AnalysisResult, vhdl1_syntax::SyntaxError> {
    let engine = Engine::with_options(*options);
    let analysis = match engine.analyze_source(src) {
        Ok(analysis) => analysis,
        Err(EngineError::Frontend { source, .. }) => return Err(source),
        Err(err) => panic!("analysis budget exhausted: {err}"),
    };
    Ok(analysis.into_result())
}

/// Analyzes every design of a batch with shared options, preserving order.
///
/// This is the sequential batch entry point; parallel drivers (the
/// `vhdl1c` worker pool) distribute the same per-design calls across
/// threads.
pub fn analyze_all<'d>(
    designs: impl IntoIterator<Item = &'d Design>,
    options: &AnalysisOptions,
) -> Vec<AnalysisResult> {
    let engine = Engine::with_options(*options);
    designs
        .into_iter()
        .map(|d| engine.analyze(d).into_result())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vhdl1_syntax::frontend;

    const COPY: &str = "entity e is port(a : in std_logic; b : out std_logic); end e;
         architecture rtl of e is begin
           p : process begin b <= a; wait on a; end process p;
         end rtl;";

    #[test]
    fn analyze_produces_flow_from_input_to_output() {
        let design = frontend(COPY).unwrap();
        let result = analyze(&design);
        let g = result.flow_graph();
        assert!(g.has_edge("a", "b"));
        assert_eq!(result.design_name, "rtl");
        assert!(result.improved.is_some());
    }

    #[test]
    fn base_option_skips_improved_analysis() {
        let design = frontend(COPY).unwrap();
        let result = analyze_with(&design, &AnalysisOptions::base());
        assert!(result.improved.is_none());
        assert!(result.flow_graph().has_edge("a", "b"));
    }

    #[test]
    fn kemmerer_graph_is_superset_of_rd_graph_edges_on_plain_nodes() {
        let design = frontend(
            "entity e is port(a : in std_logic; c : in std_logic; b : out std_logic); end e;
             architecture rtl of e is
               signal t : std_logic;
             begin
               p : process
                 variable tmp : std_logic;
               begin
                 tmp := a;
                 t <= tmp;
                 tmp := c;
                 b <= tmp;
                 wait on a, c;
               end process p;
             end rtl;",
        )
        .unwrap();
        let result = analyze(&design);
        let ours = result.flow_graph().merge_io_nodes();
        let kemmerer = result.kemmerer_flow_graph();
        for (f, t) in ours.edges() {
            assert!(
                kemmerer.has_edge_nodes(f, t),
                "edge {f} -> {t} reported by our analysis but not by Kemmerer"
            );
        }
        // And Kemmerer has strictly more edges (the spurious ones).
        assert!(kemmerer.edge_count() > ours.edge_count());
        assert!(
            kemmerer.has_edge("a", "b"),
            "spurious flow via the reused temporary"
        );
        assert!(
            !ours.has_edge("a", "b"),
            "our analysis kills the overwritten temporary"
        );
    }

    #[test]
    fn sequential_illustration_options() {
        let o = AnalysisOptions::sequential_illustration();
        assert!(!o.rd.process_repeats);
        assert!(o.improved_options.finals_are_outgoing);
    }

    #[test]
    fn analyze_source_runs_the_front_end() {
        let result = analyze_source(COPY, &AnalysisOptions::default()).unwrap();
        assert!(result.flow_graph().has_edge("a", "b"));
        assert!(analyze_source("entity broken", &AnalysisOptions::default()).is_err());
    }

    #[test]
    fn analyze_all_preserves_order() {
        let d1 = frontend(COPY).unwrap();
        let d2 = frontend(&COPY.replace("rtl", "rtl2")).unwrap();
        let results = analyze_all([&d1, &d2], &AnalysisOptions::default());
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].design_name, "rtl");
        assert_eq!(results[1].design_name, "rtl2");
    }
}
