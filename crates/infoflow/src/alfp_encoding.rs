//! ALFP / Datalog encodings of the analyses (the paper's implementation
//! vehicle, Section 6: "Both the presented analyses and Kemmerer's method
//! have been implemented using the Succinct Solver").
//!
//! The native Rust implementations in [`crate::closure`] and
//! [`crate::improved`] are the ones used for benchmarking; the clause systems
//! generated here demonstrate the paper's implementation route and serve as
//! an independent cross-check of Tables 8 and 9: the flow graph extracted
//! from the least model of the clause system must coincide with the graph of
//! the native analysis (see the `alfp_crosscheck` integration test and the
//! `engine_differential` corpus test).

use crate::analysis::AnalysisResult;
use crate::graph::FlowGraph;
use crate::rm::{Access, Node};
use alfp_solver::{Model, Program, SolveError, Symbol, Term};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use vhdl1_dataflow::{BlockKind, Def};
use vhdl1_syntax::{Design, Ident, Label};

fn node_symbol(n: &Node) -> String {
    match n {
        Node::Res(x) => format!("res:{x}"),
        Node::Incoming(x) => format!("in:{x}"),
        Node::Outgoing(x) => format!("out:{x}"),
    }
}

fn symbol_node(s: &str) -> Node {
    match s.split_once(':') {
        Some(("res", x)) => Node::res(x),
        Some(("in", x)) => Node::incoming(x),
        Some(("out", x)) => Node::outgoing(x),
        _ => Node::res(s),
    }
}

fn access_symbol(a: Access) -> &'static str {
    match a {
        Access::M0 => "m0",
        Access::M1 => "m1",
        Access::R0 => "r0",
        Access::R1 => "r1",
    }
}

/// Memoised interning of the encoding's symbols: each distinct node, label
/// or resource name is formatted and interned once, and facts are emitted
/// through the solver's interned fast path with no per-fact string
/// formatting.
struct SymbolCache {
    nodes: HashMap<Node, Symbol>,
    labels: HashMap<Label, Symbol>,
    resources: HashMap<String, Symbol>,
}

impl SymbolCache {
    fn new() -> SymbolCache {
        SymbolCache {
            nodes: HashMap::new(),
            labels: HashMap::new(),
            resources: HashMap::new(),
        }
    }

    fn node(&mut self, p: &mut Program, n: &Node) -> Symbol {
        if let Some(&s) = self.nodes.get(n) {
            return s;
        }
        let s = p.intern(&node_symbol(n));
        self.nodes.insert(n.clone(), s);
        s
    }

    fn label(&mut self, p: &mut Program, l: Label) -> Symbol {
        if let Some(&s) = self.labels.get(&l) {
            return s;
        }
        let s = p.intern(&format!("l{l}"));
        self.labels.insert(l, s);
        s
    }

    /// Symbol of the plain-resource node `res:<name>`.
    fn resource(&mut self, p: &mut Program, name: &str) -> Symbol {
        if let Some(&s) = self.resources.get(name) {
            return s;
        }
        let s = p.intern(&format!("res:{name}"));
        self.resources.insert(name.to_string(), s);
        s
    }
}

/// Encodes the RD-guided global closure (Table 8) as a clause program.
///
/// Relations:
///
/// * `rm_lo(n, l, a)` — the local Resource Matrix,
/// * `rd_dag(n, l_def, l_use)` — the specialised `RD†`,
/// * `rd_phi(s, l_def, l_wait)` — the specialised `RD†ϕ`,
/// * `co_occur(l1, l2)` — the cross-flow co-occurrence of wait labels,
/// * `rm_gl(n, l, a)` — the derived global Resource Matrix,
/// * `flow(n1, n2)` — the edges of the information-flow graph.
pub fn encode_closure(result: &AnalysisResult) -> Program {
    let mut p = Program::new();
    let mut syms = SymbolCache::new();
    let rm_lo = p.intern("rm_lo");
    let rd_dag = p.intern("rd_dag");
    let rd_init = p.intern("rd_init");
    let rd_phi = p.intern("rd_phi");
    let co_occur = p.intern("co_occur");
    let wait_label = p.intern("wait_label");
    let access_syms =
        [Access::M0, Access::M1, Access::R0, Access::R1].map(|a| (a, p.intern(access_symbol(a))));
    let access = |a: Access| {
        access_syms
            .iter()
            .find(|(k, _)| *k == a)
            .expect("all accesses")
            .1
    };

    // Facts: the local Resource Matrix.
    for entry in result.local.iter() {
        let node = syms.node(&mut p, entry.node);
        let label = syms.label(&mut p, entry.label);
        p.fact_interned(rm_lo, vec![node, label, access(entry.access)]);
    }

    // Facts: the specialised Reaching Definitions.
    for (l, defs) in &result.specialized.present {
        for (n, d) in defs {
            let res = syms.resource(&mut p, n);
            let l_use = syms.label(&mut p, *l);
            if let Def::At(l_def) = d {
                let l_def = syms.label(&mut p, *l_def);
                p.fact_interned(rd_dag, vec![res, l_def, l_use]);
            } else {
                p.fact_interned(rd_init, vec![res, l_use]);
            }
        }
    }
    for (l, defs) in &result.specialized.active {
        for (s, l_def) in defs {
            let res = syms.resource(&mut p, s);
            let l_def = syms.label(&mut p, *l_def);
            let l_wait = syms.label(&mut p, *l);
            p.fact_interned(rd_phi, vec![res, l_def, l_wait]);
        }
    }

    // Facts: co-occurrence of wait labels in some synchronisation tuple.
    let wait_labels: Vec<_> = result
        .rd
        .cfg
        .processes
        .iter()
        .flat_map(|pr| pr.wait_labels())
        .collect();
    for &l1 in &wait_labels {
        let s1 = syms.label(&mut p, l1);
        for &l2 in &wait_labels {
            if result.rd.cross.co_occur(l1, l2) {
                let s2 = syms.label(&mut p, l2);
                p.fact_interned(co_occur, vec![s1, s2]);
            }
        }
        p.fact_interned(wait_label, vec![s1]);
    }

    // [Initialization]: rm_gl(N, L, A) :- rm_lo(N, L, A).
    p.rule(
        "rm_gl",
        vec![Term::var("N"), Term::var("L"), Term::var("A")],
    )
    .pos(
        "rm_lo",
        vec![Term::var("N"), Term::var("L"), Term::var("A")],
    )
    .build();

    // [Present values and local variables]:
    // rm_gl(N, L, r0) :- rd_dag(NP, LDEF, L), rm_gl(N, LDEF, r0).
    p.rule(
        "rm_gl",
        vec![Term::var("N"), Term::var("L"), Term::cst("r0")],
    )
    .pos(
        "rd_dag",
        vec![Term::var("NP"), Term::var("LDEF"), Term::var("L")],
    )
    .pos(
        "rm_gl",
        vec![Term::var("N"), Term::var("LDEF"), Term::cst("r0")],
    )
    .build();

    // [Synchronized values]:
    // rm_gl(S, L, r0) :- rd_dag(SP, LI, L), wait_label(LI), co_occur(LI, LJ),
    //                    rd_phi(SP, LPP, LJ), rm_gl(S, LPP, r0).
    p.rule(
        "rm_gl",
        vec![Term::var("S"), Term::var("L"), Term::cst("r0")],
    )
    .pos(
        "rd_dag",
        vec![Term::var("SP"), Term::var("LI"), Term::var("L")],
    )
    .pos("wait_label", vec![Term::var("LI")])
    .pos("co_occur", vec![Term::var("LI"), Term::var("LJ")])
    .pos(
        "rd_phi",
        vec![Term::var("SP"), Term::var("LPP"), Term::var("LJ")],
    )
    .pos(
        "rm_gl",
        vec![Term::var("S"), Term::var("LPP"), Term::cst("r0")],
    )
    .build();

    // Graph extraction: flow(N1, N2) :- rm_gl(N1, L, r0), rm_gl(N2, L, m0|m1).
    for m in ["m0", "m1"] {
        p.rule("flow", vec![Term::var("N1"), Term::var("N2")])
            .pos(
                "rm_gl",
                vec![Term::var("N1"), Term::var("L"), Term::cst("r0")],
            )
            .pos("rm_gl", vec![Term::var("N2"), Term::var("L"), Term::cst(m)])
            .build();
    }

    p
}

/// Encodes the improved analysis (Table 9) as a clause program: the Table 8
/// program of [`encode_closure`] plus the incoming (`n◦`) and outgoing
/// (`n•`) nodes of the environment process `π`.
///
/// Additional relations:
///
/// * `rd_init(n, l)` — `(n, ?) ∈ RD†(l)`, already part of [`encode_closure`],
/// * `incoming_of(n, n◦)` — the incoming node of every resource read,
/// * `input(n)` — the `in` ports of the entity, the only signals `π` drives,
/// * `out_def(n, n•, l_out)` — an outgoing value and its synthetic label,
/// * `out_at(l_out, l)` — the labels whose values form the outgoing value:
///   every wait label for an `out` port, and under
///   [`crate::ImprovedOptions::finals_are_outgoing`] the final assignments of
///   the target.
///
/// The synthetic labels follow [`crate::improved`]: `out` ports in name
/// order from `max_label + 1`, then the new targets of final assignments.
pub fn encode_improved(design: &Design, result: &AnalysisResult) -> Program {
    let mut p = encode_closure(result);
    let mut syms = SymbolCache::new();
    let incoming_of = p.intern("incoming_of");
    let input = p.intern("input");
    let out_def = p.intern("out_def");
    let out_at = p.intern("out_at");

    // Facts: incoming nodes of the resources read, and the `in` ports.
    let read: BTreeSet<&Ident> = result
        .specialized
        .present
        .values()
        .flatten()
        .map(|(n, _)| n)
        .collect();
    for n in read {
        let res = syms.resource(&mut p, n);
        let node = syms.node(&mut p, &Node::incoming(n.clone()));
        p.fact_interned(incoming_of, vec![res, node]);
    }
    for n in design.input_signals() {
        let res = syms.resource(&mut p, &n);
        p.fact_interned(input, vec![res]);
    }

    // Facts: the outgoing values of π and where they are formed.
    let wait_labels: Vec<Label> = result
        .rd
        .cfg
        .processes
        .iter()
        .flat_map(|pr| pr.wait_labels())
        .collect();
    let outputs: BTreeSet<Ident> = design.output_signals().into_iter().collect();
    let mut next = design.max_label() + 1;
    let mut out_labels: BTreeMap<Ident, Label> = BTreeMap::new();
    let mut formed_at: Vec<(Label, Label)> = Vec::new();
    for s in outputs {
        formed_at.extend(wait_labels.iter().map(|&w| (next, w)));
        out_labels.insert(s, next);
        next += 1;
    }
    if result.options.improved_options.finals_are_outgoing {
        for pr in &result.rd.cfg.processes {
            for l in &pr.finals {
                let Some(BlockKind::VarAssign { target, .. }) = pr.blocks.get(l).map(|b| &b.kind)
                else {
                    continue;
                };
                let l_out = *out_labels.entry(target.name.clone()).or_insert_with(|| {
                    let l = next;
                    next += 1;
                    l
                });
                formed_at.push((l_out, *l));
            }
        }
    }
    for (n, l_out) in &out_labels {
        let res = syms.resource(&mut p, n);
        let node = syms.node(&mut p, &Node::outgoing(n.clone()));
        let l_out = syms.label(&mut p, *l_out);
        p.fact_interned(out_def, vec![res, node, l_out]);
    }
    for (l_out, l) in formed_at {
        let l_out = syms.label(&mut p, l_out);
        let l = syms.label(&mut p, l);
        p.fact_interned(out_at, vec![l_out, l]);
    }

    // [Initial values]: rm_gl(I, L, r0) :- rd_init(N, L), incoming_of(N, I).
    p.rule(
        "rm_gl",
        vec![Term::var("I"), Term::var("L"), Term::cst("r0")],
    )
    .pos("rd_init", vec![Term::var("N"), Term::var("L")])
    .pos("incoming_of", vec![Term::var("N"), Term::var("I")])
    .build();

    // [Incoming values]:
    // rm_gl(I, L, r0) :- rd_dag(N, LP, L), wait_label(LP), input(N),
    //                    incoming_of(N, I).
    p.rule(
        "rm_gl",
        vec![Term::var("I"), Term::var("L"), Term::cst("r0")],
    )
    .pos(
        "rd_dag",
        vec![Term::var("N"), Term::var("LP"), Term::var("L")],
    )
    .pos("wait_label", vec![Term::var("LP")])
    .pos("input", vec![Term::var("N")])
    .pos("incoming_of", vec![Term::var("N"), Term::var("I")])
    .build();

    // [Outgoing values]: rm_gl(O, LO, m1) :- out_def(N, O, LO).
    //                    rm_gl(N, LO, r0) :- out_def(N, O, LO).
    for (head, access) in [("O", "m1"), ("N", "r0")] {
        p.rule(
            "rm_gl",
            vec![Term::var(head), Term::var("LO"), Term::cst(access)],
        )
        .pos(
            "out_def",
            vec![Term::var("N"), Term::var("O"), Term::var("LO")],
        )
        .build();
    }

    // [Outcoming values]:
    // rm_gl(M, LO, r0) :- out_def(N, O, LO), out_at(LO, L), rd_phi(N, LD, L),
    //                     rm_gl(M, LD, r0).
    p.rule(
        "rm_gl",
        vec![Term::var("M"), Term::var("LO"), Term::cst("r0")],
    )
    .pos(
        "out_def",
        vec![Term::var("N"), Term::var("O"), Term::var("LO")],
    )
    .pos("out_at", vec![Term::var("LO"), Term::var("L")])
    .pos(
        "rd_phi",
        vec![Term::var("N"), Term::var("LD"), Term::var("L")],
    )
    .pos(
        "rm_gl",
        vec![Term::var("M"), Term::var("LD"), Term::cst("r0")],
    )
    .build();

    // Final assignments (sequential illustration): the value is formed at a
    // plain assignment rather than a wait, so its reads flow out directly.
    // rm_gl(M, LO, r0) :- out_def(N, O, LO), out_at(LO, L), ¬wait_label(L),
    //                     rm_gl(M, L, r0).
    p.rule(
        "rm_gl",
        vec![Term::var("M"), Term::var("LO"), Term::cst("r0")],
    )
    .pos(
        "out_def",
        vec![Term::var("N"), Term::var("O"), Term::var("LO")],
    )
    .pos("out_at", vec![Term::var("LO"), Term::var("L")])
    .neg("wait_label", vec![Term::var("L")])
    .pos(
        "rm_gl",
        vec![Term::var("M"), Term::var("L"), Term::cst("r0")],
    )
    .build();

    p
}

/// Encodes Kemmerer's method as a clause program: direct flows from the local
/// Resource Matrix followed by a transitive closure.
pub fn encode_kemmerer(result: &AnalysisResult) -> Program {
    let mut p = Program::new();
    let mut syms = SymbolCache::new();
    let rm_lo = p.intern("rm_lo");
    for entry in result.local.iter() {
        let node = syms.node(&mut p, entry.node);
        let label = syms.label(&mut p, entry.label);
        let access = p.intern(access_symbol(entry.access));
        p.fact_interned(rm_lo, vec![node, label, access]);
    }
    for m in ["m0", "m1"] {
        p.rule("direct", vec![Term::var("N1"), Term::var("N2")])
            .pos(
                "rm_lo",
                vec![Term::var("N1"), Term::var("L"), Term::cst("r0")],
            )
            .pos("rm_lo", vec![Term::var("N2"), Term::var("L"), Term::cst(m)])
            .build();
    }
    p.rule("flow", vec![Term::var("X"), Term::var("Y")])
        .pos("direct", vec![Term::var("X"), Term::var("Y")])
        .build();
    p.rule("flow", vec![Term::var("X"), Term::var("Z")])
        .pos("flow", vec![Term::var("X"), Term::var("Y")])
        .pos("direct", vec![Term::var("Y"), Term::var("Z")])
        .build();
    p
}

/// Extracts the information-flow graph from the `flow` relation of a model.
pub fn graph_from_model(model: &Model) -> FlowGraph {
    let mut g = FlowGraph::new();
    // Decode each distinct symbol once; edges and nodes then reuse the
    // decoded `Node`s instead of re-parsing strings per tuple.
    let mut nodes: HashMap<Symbol, Node> = HashMap::new();
    let mut node_of = |s: Symbol| -> Node {
        nodes
            .entry(s)
            .or_insert_with(|| symbol_node(model.resolve(s)))
            .clone()
    };
    if let Some(flow) = model.relation_ref("flow") {
        for tuple in flow.iter() {
            if let [from, to] = tuple {
                let (from, to) = (node_of(*from), node_of(*to));
                g.add_edge(from, to);
            }
        }
    }
    for rel in [model.relation_ref("rm_lo"), model.relation_ref("rm_gl")]
        .into_iter()
        .flatten()
    {
        for tuple in rel.iter() {
            if let Some(first) = tuple.first() {
                g.add_node(node_of(*first));
            }
        }
    }
    g
}

/// Solves the encoded base closure and returns the resulting graph.
///
/// # Errors
///
/// Propagates [`SolveError`] from the solver (the generated clause systems
/// are always safe and stratified, so errors indicate an encoding bug).
pub fn solve_closure(result: &AnalysisResult) -> Result<FlowGraph, SolveError> {
    let model = encode_closure(result).solve()?;
    Ok(graph_from_model(&model))
}

/// [`solve_closure`] under explicit solver resource limits.
///
/// # Errors
///
/// Propagates [`SolveError`], including
/// [`SolveError::ResourceExhausted`](alfp_solver::SolveError) when a limit
/// of `limits` is hit.
pub fn solve_closure_bounded(
    result: &AnalysisResult,
    limits: &alfp_solver::SolveLimits,
) -> Result<FlowGraph, SolveError> {
    let model = encode_closure(result).solve_bounded(limits)?;
    Ok(graph_from_model(&model))
}

/// Solves the encoded improved analysis and returns the resulting graph.
///
/// # Errors
///
/// Propagates [`SolveError`] from the solver.
pub fn solve_improved(design: &Design, result: &AnalysisResult) -> Result<FlowGraph, SolveError> {
    let model = encode_improved(design, result).solve()?;
    Ok(graph_from_model(&model))
}

/// Solves the encoded Kemmerer analysis and returns the resulting graph.
///
/// # Errors
///
/// Propagates [`SolveError`] from the solver.
pub fn solve_kemmerer(result: &AnalysisResult) -> Result<FlowGraph, SolveError> {
    let model = encode_kemmerer(result).solve()?;
    Ok(graph_from_model(&model))
}

/// [`solve_kemmerer`] under explicit solver resource limits.
///
/// # Errors
///
/// Propagates [`SolveError`], including
/// [`SolveError::ResourceExhausted`](alfp_solver::SolveError) when a limit
/// of `limits` is hit.
pub fn solve_kemmerer_bounded(
    result: &AnalysisResult,
    limits: &alfp_solver::SolveLimits,
) -> Result<FlowGraph, SolveError> {
    let model = encode_kemmerer(result).solve_bounded(limits)?;
    Ok(graph_from_model(&model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze_with, AnalysisOptions};
    use vhdl1_syntax::frontend;

    fn result_for(src: &str, opts: &AnalysisOptions) -> AnalysisResult {
        analyze_with(&frontend(src).unwrap(), opts)
    }

    const TEMP_REUSE: &str = "entity e is port(inp : in std_logic); end e;
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

    #[test]
    fn alfp_closure_matches_native_closure() {
        let opts = AnalysisOptions {
            rd: vhdl1_dataflow::RdOptions {
                process_repeats: false,
                ..Default::default()
            },
            improved: false,
            ..AnalysisOptions::default()
        };
        let result = result_for(TEMP_REUSE, &opts);
        let native = result.base_flow_graph();
        let alfp = solve_closure(&result).unwrap();
        for (f, t) in native.edges() {
            assert!(
                alfp.has_edge_nodes(f, t),
                "missing edge {f} -> {t} in ALFP model"
            );
        }
        for (f, t) in alfp.edges() {
            assert!(
                native.has_edge_nodes(f, t),
                "extra edge {f} -> {t} in ALFP model"
            );
        }
    }

    #[test]
    fn alfp_kemmerer_matches_native_kemmerer() {
        let result = result_for(TEMP_REUSE, &AnalysisOptions::base());
        let native = result.kemmerer_flow_graph();
        let alfp = solve_kemmerer(&result).unwrap();
        for (f, t) in native.edges() {
            assert!(alfp.has_edge_nodes(f, t), "missing edge {f} -> {t}");
        }
        assert!(
            alfp.has_edge("a", "outb"),
            "Kemmerer's spurious edge must be present"
        );
    }

    #[test]
    fn symbols_roundtrip() {
        for n in [Node::res("x"), Node::incoming("a"), Node::outgoing("b")] {
            assert_eq!(symbol_node(&node_symbol(&n)), n);
        }
    }

    #[test]
    fn cross_process_flows_agree_with_native() {
        let src = "entity e is port(a : in std_logic; b : out std_logic); end e;
             architecture rtl of e is
               signal t : std_logic;
             begin
               p1 : process begin t <= a; wait on a; end process p1;
               p2 : process begin b <= t; wait on t; end process p2;
             end rtl;";
        let result = result_for(src, &AnalysisOptions::base());
        let native = result.base_flow_graph();
        let alfp = solve_closure(&result).unwrap();
        assert_eq!(
            native.edges().collect::<Vec<_>>(),
            alfp.edges().collect::<Vec<_>>(),
            "edge sets must be identical"
        );
        assert!(alfp.has_edge("a", "b"));
    }
}
