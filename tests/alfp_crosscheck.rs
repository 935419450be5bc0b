//! SOLVER — the analyses implemented through the ALFP/Datalog solver (the
//! Succinct Solver substrate) must compute exactly the same graphs as the
//! native Rust implementation.

use bench::workloads::{design_of, program_a_src, program_b_src, temp_reuse_src};
use vhdl_infoflow::aes::vhdl::shift_rows_vhdl;
use vhdl_infoflow::alfp::{Program, Term};
use vhdl_infoflow::infoflow::alfp_encoding::{solve_closure, solve_improved, solve_kemmerer};
use vhdl_infoflow::infoflow::{analyze_with, AnalysisOptions, Node};
use vhdl_infoflow::syntax::frontend;

fn assert_same_graph(
    native: &vhdl_infoflow::infoflow::FlowGraph,
    alfp: &vhdl_infoflow::infoflow::FlowGraph,
) {
    for (f, t) in native.edges() {
        assert!(
            alfp.has_edge_nodes(f, t),
            "edge {f} -> {t} missing from the ALFP model"
        );
    }
    for (f, t) in alfp.edges() {
        assert!(
            native.has_edge_nodes(f, t),
            "edge {f} -> {t} only in the ALFP model"
        );
    }
}

#[test]
fn closure_encoding_agrees_on_the_evaluation_workloads() {
    for src in [program_a_src(), temp_reuse_src(6), shift_rows_vhdl()] {
        let design = design_of(&src);
        let result = analyze_with(&design, &AnalysisOptions::base());
        let native = result.base_flow_graph();
        let alfp = solve_closure(&result).expect("generated clauses are safe and stratified");
        assert_same_graph(&native, &alfp);
    }
}

#[test]
fn improved_encoding_agrees_on_figure_4b_and_shift_rows() {
    for (src, opts) in [
        (program_b_src(), AnalysisOptions::sequential_illustration()),
        (shift_rows_vhdl(), AnalysisOptions::default()),
    ] {
        let design = design_of(&src);
        let result = analyze_with(&design, &opts);
        let native = result.flow_graph();
        let alfp =
            solve_improved(&design, &result).expect("generated clauses are safe and stratified");
        assert_same_graph(&native, &alfp);
        assert!(
            alfp.nodes()
                .any(|n| matches!(n, Node::Incoming(_) | Node::Outgoing(_))),
            "the improved graph carries the nodes of the environment process"
        );
    }
}

#[test]
fn kemmerer_encoding_agrees_with_the_native_baseline() {
    let design = frontend(&shift_rows_vhdl()).unwrap();
    let result = analyze_with(&design, &AnalysisOptions::base());
    let native = result.kemmerer_flow_graph();
    let alfp = solve_kemmerer(&result).unwrap();
    for (f, t) in native.edges() {
        assert!(
            alfp.has_edge_nodes(f, t),
            "edge {f} -> {t} missing from ALFP Kemmerer"
        );
    }
}

#[test]
fn the_solver_substrate_computes_least_models() {
    // Sanity check of the solver on a classic reachability program, the way
    // the analyses use it.
    let mut p = Program::new();
    for (a, b) in [("key", "mix"), ("mix", "ct"), ("pt", "mix")] {
        p.fact("edge", vec![Term::cst(a), Term::cst(b)]);
    }
    p.rule("reach", vec![Term::var("X"), Term::var("Y")])
        .pos("edge", vec![Term::var("X"), Term::var("Y")])
        .build();
    p.rule("reach", vec![Term::var("X"), Term::var("Z")])
        .pos("reach", vec![Term::var("X"), Term::var("Y")])
        .pos("edge", vec![Term::var("Y"), Term::var("Z")])
        .build();
    let m = p.solve().unwrap();
    assert!(m.contains("reach", &["key", "ct"]));
    assert!(!m.contains("reach", &["ct", "key"]));
}
