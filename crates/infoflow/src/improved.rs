//! The improved Information Flow analysis of Section 5.3 (Table 9).
//!
//! The base analysis answers "which resources may influence which resources",
//! but it cannot distinguish the *initial* value of a resource from values it
//! obtains during execution, nor relate values to the environment.  The
//! improvement adds, for every relevant resource `n`, an **incoming** node
//! `n◦` (its initial value or a value injected by the environment at a
//! synchronisation point) and, for every `out` port, an **outgoing** node
//! `n•` (the value the environment can observe), modelled through the
//! environment process `π` of Section 5.3.

use crate::closure::{close, propagation_edges, wait_labels, ClosureExhausted, SpecializedRd};
use crate::rm::{Access, Node, ResourceMatrix};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use vhdl1_dataflow::{BlockKind, Def, ReachingDefinitions};
use vhdl1_syntax::{Design, Ident, Label};

/// Options of the improved analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ImprovedOptions {
    /// Treat the variables assigned by the final statements of each process
    /// as outgoing values.  This reproduces the sequential illustration of
    /// Figure 4, where the last assignment of program (b) is considered
    /// "outcoming"; designs with entities normally rely on `out` ports
    /// instead.
    pub finals_are_outgoing: bool,
}

/// Result of the improved closure: the extended global Resource Matrix plus
/// the synthetic labels allocated for the outgoing assignments of the
/// environment process `π`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImprovedClosure {
    /// The extended global Resource Matrix.
    pub matrix: ResourceMatrix,
    /// Synthetic label `l_{n•}` per outgoing resource.
    pub outgoing_labels: BTreeMap<Ident, Label>,
}

/// Runs the combined closure of Table 8 and Table 9, starting from the local
/// Resource Matrix.
pub fn improved_closure(
    design: &Design,
    rd: &ReachingDefinitions,
    spec: &SpecializedRd,
    local: &ResourceMatrix,
    options: &ImprovedOptions,
) -> ImprovedClosure {
    match improved_closure_bounded(design, rd, spec, local, options, u64::MAX) {
        Ok(closure) => closure,
        Err(e) => unreachable!("unbounded closure cannot exhaust: {e}"),
    }
}

/// [`improved_closure`] under an iteration budget: each worklist pop charges
/// one iteration, as in [`crate::global_closure_bounded`].
///
/// Table 9 needs no fixpoint of its own.  Its rules either add entries that
/// depend only on the specialised Reaching Definitions — constant seeds of
/// the starting matrix — or copy `R0` entries from one label to another —
/// more edges of the Table 8 worklist.
///
/// # Errors
///
/// Returns [`ClosureExhausted`] when the closure does not converge within
/// `max_iterations` worklist pops.
pub fn improved_closure_bounded(
    design: &Design,
    rd: &ReachingDefinitions,
    spec: &SpecializedRd,
    local: &ResourceMatrix,
    options: &ImprovedOptions,
    max_iterations: u64,
) -> Result<ImprovedClosure, ClosureExhausted> {
    let wait_labels = wait_labels(rd);
    let mut edges = propagation_edges(rd, spec, &wait_labels);
    let mut start = local.clone();
    let input_signals: BTreeSet<Ident> = design.input_signals().into_iter().collect();

    // [Initial values]: reading a value that may still be the initial one
    // reads the incoming node of that resource.  [Incoming values]: a present
    // value obtained at a synchronisation point may have been driven by the
    // environment process π — only the `in` ports of the entity are driven
    // by π.
    for (&l, defs) in &spec.present {
        for (n, def) in defs {
            let incoming = match def {
                Def::Init => true,
                Def::At(lp) => wait_labels.contains(lp) && input_signals.contains(n),
            };
            if incoming {
                start.insert(Node::incoming(n.clone()), l, Access::R0);
            }
        }
    }

    // Allocate the synthetic labels of the π process: one per outgoing value.
    // [Outcoming values]: the active values of an out port arriving at *any*
    // synchronisation point determine its outgoing value, so the resources
    // read where those values were produced flow to the outgoing node.
    let mut next_label = design.max_label() + 1;
    let mut outgoing_labels: BTreeMap<Ident, Label> = BTreeMap::new();
    for s in design.output_signals().into_iter().collect::<BTreeSet<_>>() {
        for active_defs in wait_labels.iter().filter_map(|w| spec.active.get(w)) {
            for (_, l_def) in active_defs.iter().filter(|(s2, _)| *s2 == s) {
                edges.entry(*l_def).or_default().insert(next_label);
            }
        }
        outgoing_labels.insert(s, next_label);
        next_label += 1;
    }
    // Sequential illustration mode: the "final" label is a plain variable
    // assignment, not a wait; its reads flow to the outgoing node directly.
    if options.finals_are_outgoing {
        for pcfg in &rd.cfg.processes {
            for l in &pcfg.finals {
                if let Some(BlockKind::VarAssign { target, .. }) =
                    pcfg.blocks.get(l).map(|b| &b.kind)
                {
                    let l_out = *outgoing_labels
                        .entry(target.name.clone())
                        .or_insert_with(|| {
                            let l = next_label;
                            next_label += 1;
                            l
                        });
                    edges.entry(*l).or_default().insert(l_out);
                }
            }
        }
    }

    // [Outgoing values]: each outgoing value is modified at its synthetic
    // label; the resource's own (final) value is what the π process reads.
    for (n, &l_out) in &outgoing_labels {
        start.insert(Node::outgoing(n.clone()), l_out, Access::M1);
        start.insert(Node::res(n.clone()), l_out, Access::R0);
    }

    Ok(ImprovedClosure {
        matrix: close(start, &edges, max_iterations)?,
        outgoing_labels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::specialize_rd;
    use crate::graph::FlowGraph;
    use crate::local::local_dependencies;
    use vhdl1_dataflow::RdOptions;
    use vhdl1_syntax::frontend;

    fn improved_graph(src: &str, rd_opts: &RdOptions, opts: &ImprovedOptions) -> FlowGraph {
        let design = frontend(src).unwrap();
        let rd = ReachingDefinitions::compute(&design, rd_opts);
        let local = local_dependencies(&design);
        let spec = specialize_rd(&rd, &local, true);
        let closure = improved_closure(&design, &rd, &spec, &local, opts);
        FlowGraph::from_resource_matrix(&closure.matrix)
    }

    /// Program (b) of the paper as a straight-line process over variables.
    const PROGRAM_B: &str = "entity e is port(inp : in std_logic); end e;
         architecture rtl of e is begin
           p : process
             variable a : std_logic;
             variable b : std_logic;
             variable c : std_logic;
           begin
             b := a;
             c := b;
           end process p;
         end rtl;";

    #[test]
    fn figure_4b_initial_value_of_b_does_not_reach_c() {
        let g = improved_graph(
            PROGRAM_B,
            &RdOptions {
                process_repeats: false,
                ..Default::default()
            },
            &ImprovedOptions {
                finals_are_outgoing: true,
            },
        );
        // The initial value of a flows into b (and transitively c): a◦ -> b.
        assert!(g.has_edge_nodes(&Node::incoming("a"), &Node::res("b")));
        assert!(g.has_edge_nodes(&Node::incoming("a"), &Node::res("c")));
        // The initial value of b must NOT reach c — it is overwritten first.
        assert!(!g.has_edge_nodes(&Node::incoming("b"), &Node::res("c")));
        // The resulting (outgoing) value of c is influenced by b and a◦.
        assert!(g.has_edge_nodes(&Node::res("c"), &Node::outgoing("c")));
        assert!(g.has_edge_nodes(&Node::res("b"), &Node::outgoing("c")));
        assert!(g.has_edge_nodes(&Node::incoming("a"), &Node::outgoing("c")));
        assert!(!g.has_edge_nodes(&Node::incoming("b"), &Node::outgoing("c")));
    }

    const PORTED: &str = "entity e is port(a : in std_logic; b : out std_logic); end e;
         architecture rtl of e is
           signal t : std_logic;
         begin
           p1 : process begin t <= a; wait on a; end process p1;
           p2 : process begin b <= t; wait on t; end process p2;
         end rtl;";

    #[test]
    fn incoming_port_values_flow_to_outputs() {
        let g = improved_graph(PORTED, &RdOptions::default(), &ImprovedOptions::default());
        // a's environment-provided value flows through t into b and to b•.
        assert!(g.has_edge_nodes(&Node::incoming("a"), &Node::res("t")));
        assert!(g.has_edge_nodes(&Node::res("t"), &Node::res("b")));
        assert!(g.has_edge_nodes(&Node::res("b"), &Node::outgoing("b")));
        assert!(g.has_edge_nodes(&Node::res("a"), &Node::outgoing("b")));
        // The internal signal t gets an incoming node only through the
        // [Initial values] rule (its initial value may reach a use); the
        // environment-driven [Incoming values] rule is restricted to `in`
        // ports, so b (an `out` port never read with an initial value) has none.
        assert!(!g
            .nodes()
            .any(|n| matches!(n, Node::Incoming(x) if x == "b")));
    }

    #[test]
    fn merged_view_matches_base_analysis_reachability() {
        let g = improved_graph(PORTED, &RdOptions::default(), &ImprovedOptions::default());
        let merged = g.merge_io_nodes();
        assert!(merged.has_edge("a", "t"));
        assert!(merged.has_edge("t", "b"));
    }

    #[test]
    fn bounded_improved_closure_exhausts_deterministically() {
        let design = frontend(PORTED).unwrap();
        let rd = ReachingDefinitions::compute(&design, &RdOptions::default());
        let local = local_dependencies(&design);
        let spec = specialize_rd(&rd, &local, true);
        let opts = ImprovedOptions::default();
        let roomy = improved_closure_bounded(&design, &rd, &spec, &local, &opts, 100_000).unwrap();
        assert_eq!(roomy, improved_closure(&design, &rd, &spec, &local, &opts));
        let e1 = improved_closure_bounded(&design, &rd, &spec, &local, &opts, 1).unwrap_err();
        let e2 = improved_closure_bounded(&design, &rd, &spec, &local, &opts, 1).unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(e1.limit, 1);
        assert_eq!(e1.iterations, 2);
    }

    #[test]
    fn outgoing_labels_are_fresh() {
        let design = frontend(PORTED).unwrap();
        let rd = ReachingDefinitions::compute(&design, &RdOptions::default());
        let local = local_dependencies(&design);
        let spec = specialize_rd(&rd, &local, true);
        let closure = improved_closure(&design, &rd, &spec, &local, &ImprovedOptions::default());
        let max = design.max_label();
        for l in closure.outgoing_labels.values() {
            assert!(*l > max);
        }
        assert_eq!(closure.outgoing_labels.len(), 1);
    }
}
