//! Global dependencies: RD specialisation (Table 7) and the RD-guided
//! transitive closure of the Resource Matrix (Table 8).
//!
//! Rather than closing the local dependencies transitively (Kemmerer's
//! flow-insensitive method), the closure follows only those definition-use
//! chains that the Reaching Definitions analyses admit.  This is what makes
//! the resulting information-flow graph non-transitive and eliminates the
//! "spurious flows" of overwritten variables and signals.
//!
//! Every rule only copies `(n, ·, R0)` entries along label-to-label edges,
//! so one worklist (`close`) computes the closure; the improved analysis
//! of [`crate::improved`] runs the same worklist with more seeds and edges.

use crate::rm::{Access, Node, ResourceMatrix};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use vhdl1_dataflow::{Def, ReachingDefinitions};
use vhdl1_syntax::{Ident, Label};

/// A closure fixpoint (Table 8 or Table 9) failed to converge within its
/// iteration budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosureExhausted {
    /// Iterations charged before giving up (always `limit + 1`).
    pub iterations: u64,
    /// The configured iteration budget.
    pub limit: u64,
}

impl std::fmt::Display for ClosureExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "closure iteration budget exhausted: {} iterations, limit {}",
            self.iterations, self.limit
        )
    }
}

impl std::error::Error for ClosureExhausted {}

/// The specialised Reaching Definitions relations of Table 7.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SpecializedRd {
    /// `RD†(l)`: definitions of variables / present signal values that reach
    /// *and are read at* label `l`.
    pub present: BTreeMap<Label, BTreeSet<(Ident, Def)>>,
    /// `RD†ϕ(l)`: active-signal definitions that reach *and are synchronised
    /// at* the wait label `l`.
    pub active: BTreeMap<Label, BTreeSet<(Ident, Label)>>,
}

/// Computes the specialisation of Table 7.
///
/// When `specialize` is `false` (an ablation discussed in DESIGN.md) the
/// filtering on "actually read at the label" is skipped and the raw entry
/// sets of the Reaching Definitions analyses are used instead.
pub fn specialize_rd(
    rd: &ReachingDefinitions,
    local: &ResourceMatrix,
    specialize: bool,
) -> SpecializedRd {
    let mut out = SpecializedRd::default();
    let labels = rd.cfg.labels();

    for &l in &labels {
        // RD† for present values and local variables.  The dense entry rows
        // are iterated without materialising a set, filtered against the
        // names actually read at `l` (collected once per label), and only
        // the surviving entries are cloned into the result.
        let reads = if specialize {
            local.res_names_with(l, Access::R0)
        } else {
            BTreeSet::new()
        };
        let filtered: BTreeSet<(Ident, Def)> = rd
            .present
            .entry_iter(l)
            .filter(|(n, _)| !specialize || reads.contains(n.as_str()))
            .cloned()
            .collect();
        if !filtered.is_empty() {
            out.present.insert(l, filtered);
        }

        // RD†ϕ for active signals at synchronisation points.
        if rd.cross.occurs_in_some_tuple(l) {
            let synced = if specialize {
                local.res_names_with(l, Access::R1)
            } else {
                BTreeSet::new()
            };
            let filtered: BTreeSet<(Ident, Label)> = rd
                .active
                .over
                .entry_iter(l)
                .filter(|(s, _)| !specialize || synced.contains(s.as_str()))
                .cloned()
                .collect();
            if !filtered.is_empty() {
                out.active.insert(l, filtered);
            }
        }
    }
    out
}

/// Labels of the `wait` statements of every process.
pub(crate) fn wait_labels(rd: &ReachingDefinitions) -> BTreeSet<Label> {
    rd.cfg
        .processes
        .iter()
        .flat_map(|p| p.wait_labels())
        .collect()
}

/// Label-to-label propagation edges: `l' → l` means every `(n, l', R0)`
/// entry implies the entry `(n, l, R0)`.
pub(crate) type Edges = HashMap<Label, BTreeSet<Label>>;

/// The propagation edges induced by the two rules of Table 8.
///
/// Both rules have this shape — the rule premises mention `RM_gl` only
/// through `(n, ·, R0)` with the node passed through unchanged — so the
/// whole closure collapses to reachability over these edges, computed once
/// from the specialised Reaching Definitions.
pub(crate) fn propagation_edges(
    rd: &ReachingDefinitions,
    spec: &SpecializedRd,
    wait_labels: &BTreeSet<Label>,
) -> Edges {
    let mut edges = Edges::new();
    for (&l, defs) in &spec.present {
        for (s_prime, def) in defs {
            let Def::At(l_prime) = def else { continue };

            // [Present values and local variables]: (n', l') ∈ RD†(l) lets
            // R0 entries at l' flow to l.
            edges.entry(*l_prime).or_default().insert(l);

            // [Synchronized values]: definitions made at a wait label l_i
            // additionally pull in the active-signal definitions of every
            // co-occurring wait l_j.
            if !wait_labels.contains(l_prime) {
                continue;
            }
            for (&lj, active_defs) in &spec.active {
                if !rd.cross.co_occur(*l_prime, lj) {
                    continue;
                }
                for (s2, l_dprime) in active_defs {
                    if s2 == s_prime {
                        edges.entry(*l_dprime).or_default().insert(l);
                    }
                }
            }
        }
    }
    edges
}

/// Computes the global Resource Matrix `RM_gl` of Table 8 by closing the
/// local dependencies under the two propagation rules, guided by the
/// specialised Reaching Definitions.
pub fn global_closure(
    rd: &ReachingDefinitions,
    spec: &SpecializedRd,
    local: &ResourceMatrix,
) -> ResourceMatrix {
    match global_closure_bounded(rd, spec, local, u64::MAX) {
        Ok(global) => global,
        Err(e) => unreachable!("unbounded closure cannot exhaust: {e}"),
    }
}

/// [`global_closure`] under an iteration budget: each worklist pop charges
/// one iteration.
///
/// # Errors
///
/// Returns [`ClosureExhausted`] when the closure does not converge within
/// `max_iterations` worklist pops.
pub fn global_closure_bounded(
    rd: &ReachingDefinitions,
    spec: &SpecializedRd,
    local: &ResourceMatrix,
    max_iterations: u64,
) -> Result<ResourceMatrix, ClosureExhausted> {
    let edges = propagation_edges(rd, spec, &wait_labels(rd));
    close(local.clone(), &edges, max_iterations)
}

/// Closes `matrix` under `edges`: every `(n, l', R0)` entry and edge
/// `l' → l` imply `(n, l, R0)`.
///
/// A FIFO worklist propagates each `R0` entry exactly once — semi-naive
/// evaluation specialised to the closures' shape.  Each pop charges one
/// iteration, so the charge is the number of `R0` entries of the closed
/// matrix, and a given input and budget always exhaust at the same point
/// regardless of thread count or run.
///
/// # Errors
///
/// Returns [`ClosureExhausted`] when the closure does not converge within
/// `max_iterations` worklist pops.
pub(crate) fn close(
    mut matrix: ResourceMatrix,
    edges: &Edges,
    max_iterations: u64,
) -> Result<ResourceMatrix, ClosureExhausted> {
    let mut worklist: VecDeque<(Node, Label)> = matrix
        .iter()
        .filter(|e| e.access == Access::R0)
        .map(|e| (e.node.clone(), e.label))
        .collect();
    let mut iterations: u64 = 0;
    while let Some((node, label)) = worklist.pop_front() {
        iterations += 1;
        if iterations > max_iterations {
            return Err(ClosureExhausted {
                iterations,
                limit: max_iterations,
            });
        }
        let Some(targets) = edges.get(&label) else {
            continue;
        };
        for &target in targets {
            if matrix.insert(node.clone(), target, Access::R0) {
                worklist.push_back((node.clone(), target));
            }
        }
    }
    Ok(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FlowGraph;
    use crate::local::local_dependencies;
    use vhdl1_dataflow::RdOptions;
    use vhdl1_syntax::{frontend, Design};

    fn sequential(vars_body: &str) -> Design {
        let src = format!(
            "entity e is port(inp : in std_logic); end e;
             architecture rtl of e is begin
               p : process
                 variable a : std_logic;
                 variable b : std_logic;
                 variable c : std_logic;
               begin
                 {vars_body}
               end process p;
             end rtl;"
        );
        frontend(&src).unwrap()
    }

    fn analyse_sequential(body: &str) -> FlowGraph {
        let design = sequential(body);
        let opts = RdOptions {
            process_repeats: false,
            ..Default::default()
        };
        let rd = ReachingDefinitions::compute(&design, &opts);
        let local = local_dependencies(&design);
        let spec = specialize_rd(&rd, &local, true);
        let global = global_closure(&rd, &spec, &local);
        FlowGraph::from_resource_matrix(&global)
    }

    #[test]
    fn figure_3a_program_a_is_non_transitive() {
        // (a): c := b; b := a  — flows b->c and a->b but NOT a->c.
        let g = analyse_sequential("c := b; b := a;");
        assert!(g.has_edge("b", "c"));
        assert!(g.has_edge("a", "b"));
        assert!(
            !g.has_edge("a", "c"),
            "the RD-based analysis must not report a -> c"
        );
        assert!(!g.is_transitive());
    }

    #[test]
    fn figure_3b_program_b_has_the_transitive_flow() {
        // (b): b := a; c := b  — here a -> c is a real flow.
        let g = analyse_sequential("b := a; c := b;");
        assert!(g.has_edge("a", "b"));
        assert!(g.has_edge("b", "c"));
        assert!(g.has_edge("a", "c"));
    }

    #[test]
    fn overwritten_temporary_does_not_leak() {
        // tmp is used for a, then overwritten and used for b: no cross flow.
        let src = "entity e is port(inp : in std_logic); end e;
             architecture rtl of e is begin
               p : process
                 variable a : std_logic;
                 variable b : std_logic;
                 variable outa : std_logic;
                 variable outb : std_logic;
                 variable tmp : std_logic;
               begin
                 tmp := a;
                 outa := tmp;
                 tmp := b;
                 outb := tmp;
               end process p;
             end rtl;";
        let design = frontend(src).unwrap();
        let opts = RdOptions {
            process_repeats: false,
            ..Default::default()
        };
        let rd = ReachingDefinitions::compute(&design, &opts);
        let local = local_dependencies(&design);
        let spec = specialize_rd(&rd, &local, true);
        let global = global_closure(&rd, &spec, &local);
        let g = FlowGraph::from_resource_matrix(&global);
        assert!(g.has_edge("a", "outa"));
        assert!(g.has_edge("b", "outb"));
        assert!(
            !g.has_edge("a", "outb"),
            "stale tmp value must not flow to outb"
        );
        assert!(!g.has_edge("b", "outa"));
        // Kemmerer's method reports both spurious edges on the same program.
        let k = crate::kemmerer::kemmerer_graph(&design);
        assert!(k.has_edge("a", "outb"));
        assert!(k.has_edge("b", "outa"));
    }

    #[test]
    fn flows_across_processes_through_signals() {
        let src = "entity e is port(a : in std_logic; b : out std_logic); end e;
             architecture rtl of e is
               signal t : std_logic;
             begin
               p1 : process begin t <= a; wait on a; end process p1;
               p2 : process
                 variable v : std_logic;
               begin
                 v := t;
                 b <= v;
                 wait on t;
               end process p2;
             end rtl;";
        let design = frontend(src).unwrap();
        let rd = ReachingDefinitions::compute(&design, &RdOptions::default());
        let local = local_dependencies(&design);
        let spec = specialize_rd(&rd, &local, true);
        let global = global_closure(&rd, &spec, &local);
        let g = FlowGraph::from_resource_matrix(&global);
        assert!(g.has_edge("a", "t"), "direct assignment flow");
        assert!(g.has_edge("t", "v"), "present value read into variable");
        assert!(g.has_edge("v", "b"));
        assert!(
            g.has_edge("a", "b"),
            "synchronised flow a -> t -> v -> b must be closed"
        );
    }

    #[test]
    fn bounded_closure_exhausts_deterministically() {
        let design = sequential("b := a; c := b;");
        let opts = RdOptions {
            process_repeats: false,
            ..Default::default()
        };
        let rd = ReachingDefinitions::compute(&design, &opts);
        let local = local_dependencies(&design);
        let spec = specialize_rd(&rd, &local, true);
        // Roomy budget: identical to the unbounded closure.
        let bounded = global_closure_bounded(&rd, &spec, &local, 10_000).unwrap();
        assert_eq!(bounded, global_closure(&rd, &spec, &local));
        // Starved budget: a structured, repeatable error.
        let e1 = global_closure_bounded(&rd, &spec, &local, 1).unwrap_err();
        let e2 = global_closure_bounded(&rd, &spec, &local, 1).unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(e1.limit, 1);
        assert_eq!(e1.iterations, 2);
        assert!(e1.to_string().contains("budget exhausted"));
    }

    #[test]
    fn specialization_filters_unread_definitions() {
        let src = "entity e is port(a : in std_logic; b : out std_logic); end e;
             architecture rtl of e is begin
               p : process
                 variable x : std_logic;
                 variable y : std_logic;
               begin
                 x := a;
                 y := a;
                 b <= y;
                 wait on a;
               end process p;
             end rtl;";
        let design = frontend(src).unwrap();
        let rd = ReachingDefinitions::compute(&design, &RdOptions::default());
        let local = local_dependencies(&design);
        let spec = specialize_rd(&rd, &local, true);
        // At label 3 (b <= y) only y is read, so RD†(3) mentions y but not x.
        let at3 = &spec.present[&3];
        assert!(at3.iter().any(|(n, _)| n == "y"));
        assert!(!at3.iter().any(|(n, _)| n == "x"));
        // Without specialisation x's definition is kept.
        let raw = specialize_rd(&rd, &local, false);
        assert!(raw.present[&3].iter().any(|(n, _)| n == "x"));
    }
}
