//! Differential property tests of the demand-driven engine against the
//! eager one-shot pipeline, over seeded `vhdl1-corpus` designs.
//!
//! For every generated design, every lazy query result must be identical to
//! the corresponding eager `analyze_with` artifact — in *both* demand
//! orders (graph-first, which pulls the whole pipeline in one go, and
//! rd-first, which walks the stages upstream-to-downstream) — and the
//! engine's memo table must be deterministic: re-analysing the same corpus
//! through a warm engine yields byte-for-byte the same graphs while
//! performing zero additional stage computations, mirroring the
//! worker-count-independence golden tests of `vhdl1c`.
//!
//! The improved closure (Table 9) is checked twice more per design: against
//! its ALFP clause encoding, and against the base closure (Table 8), which
//! it must contain exactly on the plain resources at program labels.

use vhdl1_corpus::{generate, CorpusSpec};
use vhdl1_infoflow::alfp_encoding::solve_improved;
use vhdl1_infoflow::{
    analyze_with, AnalysisOptions, Engine, EngineStats, ImprovedClosure, Node, ResourceMatrix,
};
use vhdl1_syntax::Design;

fn corpus_sources(seed: u64, count: usize) -> Vec<(String, String)> {
    generate(&CorpusSpec::new(seed, count))
        .into_iter()
        .map(|d| (d.name, d.source))
        .collect()
}

/// Asserts that `global` is `improved` restricted to plain resources at the
/// labels of the design: Table 9 adds only incoming/outgoing nodes and the
/// synthetic labels of the environment process.
fn assert_restricts_to_global(
    design: &Design,
    improved: &ImprovedClosure,
    global: &ResourceMatrix,
    name: &str,
) {
    let mut restricted = ResourceMatrix::new();
    for e in improved.matrix.iter() {
        if matches!(e.node, Node::Res(_)) && e.label <= design.max_label() {
            restricted.insert(e.node.clone(), e.label, e.access);
        }
    }
    assert_eq!(
        &restricted, global,
        "{name}: improved ≠ global on Res × labels"
    );
}

fn check_against_eager(options: AnalysisOptions, seed: u64, count: usize) {
    let sources = corpus_sources(seed, count);
    let engine = Engine::with_options(options);
    for (name, src) in &sources {
        let design = vhdl1_syntax::frontend(src).expect("corpus designs elaborate");
        let eager = analyze_with(&design, &options);

        // Graph-first order: the downstream query pulls in every upstream
        // stage transparently.
        let graph_first = engine.analyze(&design);
        assert_eq!(
            graph_first.flow_graph().unwrap(),
            &eager.flow_graph(),
            "{name}"
        );
        assert_eq!(
            graph_first.kemmerer_graph().unwrap(),
            &eager.kemmerer_flow_graph(),
            "{name}"
        );
        assert_eq!(graph_first.rd().unwrap(), &eager.rd, "{name}");
        assert_eq!(graph_first.local(), &eager.local, "{name}");
        assert_eq!(
            graph_first.specialized().unwrap(),
            &eager.specialized,
            "{name}"
        );
        assert_eq!(graph_first.global().unwrap(), &eager.global, "{name}");
        assert_eq!(
            graph_first.improved().unwrap(),
            eager.improved.as_ref(),
            "{name}"
        );
        if let Some(improved) = graph_first.improved().unwrap() {
            assert_restricts_to_global(&design, improved, graph_first.global().unwrap(), name);
        }

        // Rd-first order: stages demanded upstream-to-downstream.
        let rd_first = engine.analyze(&design);
        assert_eq!(rd_first.rd().unwrap(), &eager.rd, "{name}");
        assert_eq!(rd_first.local(), &eager.local, "{name}");
        assert_eq!(
            rd_first.specialized().unwrap(),
            &eager.specialized,
            "{name}"
        );
        assert_eq!(rd_first.global().unwrap(), &eager.global, "{name}");
        assert_eq!(
            rd_first.improved().unwrap(),
            eager.improved.as_ref(),
            "{name}"
        );
        assert_eq!(
            rd_first.base_flow_graph().unwrap(),
            &eager.base_flow_graph(),
            "{name}"
        );
        assert_eq!(
            rd_first.flow_graph().unwrap(),
            &eager.flow_graph(),
            "{name}"
        );

        // And the materialised owned result is the eager result.
        assert_eq!(rd_first.into_result(), eager, "{name}");
    }
}

#[test]
fn lazy_queries_match_eager_pipeline_in_both_orders() {
    check_against_eager(AnalysisOptions::default(), 7, 16);
}

#[test]
fn lazy_queries_match_eager_pipeline_under_base_options() {
    check_against_eager(AnalysisOptions::base(), 11, 12);
}

#[test]
fn improved_closure_matches_its_alfp_encoding() {
    for options in [
        AnalysisOptions::default(),
        AnalysisOptions::sequential_illustration(),
    ] {
        for seed in [7, 42] {
            for (name, src) in corpus_sources(seed, 20) {
                let design = vhdl1_syntax::frontend(&src).expect("corpus designs elaborate");
                let result = analyze_with(&design, &options);
                let improved = result
                    .improved
                    .as_ref()
                    .expect("improved analysis requested");
                let alfp = solve_improved(&design, &result)
                    .expect("generated clauses are safe and stratified");
                let native = result.flow_graph();
                assert_eq!(
                    alfp.edges().collect::<Vec<_>>(),
                    native.edges().collect::<Vec<_>>(),
                    "{name} (seed {seed})"
                );
                assert_restricts_to_global(&design, improved, &result.global, &name);
            }
        }
    }
}

#[test]
fn warm_engine_reproduces_cold_results_without_recomputation() {
    let sources = corpus_sources(13, 12);
    let engine = Engine::default();

    // Cold pass: analyse every source through the content-hash cache.
    let cold_graphs: Vec<String> = sources
        .iter()
        .map(|(name, src)| {
            let a = engine.analyze_source(src).expect("corpus source analyses");
            a.flow_graph().unwrap().to_dot(name)
        })
        .collect();
    let cold = engine.stats();
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.cache_misses as usize, sources.len());
    assert_eq!(cold.frontend as usize, sources.len());

    // Warm pass: byte-identical graphs, zero new stage computations.
    let warm_graphs: Vec<String> = sources
        .iter()
        .map(|(name, src)| {
            let a = engine.analyze_source(src).expect("cached source analyses");
            a.flow_graph().unwrap().to_dot(name)
        })
        .collect();
    assert_eq!(cold_graphs, warm_graphs);
    let warm = engine.stats();
    assert_eq!(warm.cache_hits as usize, sources.len());
    assert_eq!(
        EngineStats {
            cache_hits: cold.cache_hits,
            ..warm
        },
        cold,
        "a warm pass must perform no frontend or stage work"
    );

    // Determinism across engines: a fresh engine reproduces the same bytes.
    let other = Engine::default();
    for ((name, src), cold_dot) in sources.iter().zip(&cold_graphs) {
        let a = other.analyze_source(src).expect("corpus source analyses");
        assert_eq!(&a.flow_graph().unwrap().to_dot(name), cold_dot);
    }
}
