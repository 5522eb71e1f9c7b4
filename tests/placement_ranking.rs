//! `placement::analyze` ranks placements without extracting duplicate
//! mappings, and that shortcut changes nothing: the ranked list it
//! returns is the one the straightforward pipeline produces — extract
//! every enumerated mapping, cost it, stable-sort by
//! `(score, fingerprint)`, keep the first solution of each fingerprint.
//! That pipeline lives here only, as the oracle.

use std::collections::HashSet;
use std::sync::Arc;
use syncplace::automata::predefined::{
    element_overlap_2d_full, element_overlap_two_layer_2d, fig6, fig7, fig8,
};
use syncplace::automata::OverlapAutomaton;
use syncplace::ir::Program;
use syncplace::obs::{keys, Recorder, TraceRecorder};
use syncplace::placement::{
    analyze_recorded, cost, enumerate, solution, CostParams, SearchOptions, SearchStats, Solution,
};

/// The per-mapping pipeline `analyze` used to run.
fn oracle(
    prog: &Program,
    automaton: &OverlapAutomaton,
    opts: &SearchOptions,
    params: &CostParams,
) -> (Vec<Solution>, SearchStats, usize) {
    let dfg = syncplace::dfg::build(prog);
    let (mappings, stats) = enumerate(&dfg, automaton, opts);
    let n_mappings = mappings.len();
    let mut sols: Vec<Solution> = mappings
        .into_iter()
        .map(|m| solution::extract(prog, &dfg, automaton, m))
        .collect();
    for s in &mut sols {
        s.cost = cost::evaluate(prog, &dfg, s, params);
    }
    sols.sort_by(|a, b| {
        a.cost
            .score
            .partial_cmp(&b.cost.score)
            .unwrap()
            .then_with(|| a.fingerprint().cmp(&b.fingerprint()))
    });
    let mut seen = HashSet::new();
    sols.retain(|s| seen.insert(s.fingerprint()));
    (sols, stats, n_mappings)
}

/// Assert `analyze` equals the oracle on one case; returns the number
/// of ranked placements.
fn assert_equivalent(
    name: &str,
    prog: &Program,
    automaton: &OverlapAutomaton,
    collapse: bool,
) -> usize {
    let opts = SearchOptions {
        collapse_deterministic: collapse,
        ..Default::default()
    };
    let params = CostParams::default();
    let (want, want_stats, n_mappings) = oracle(prog, automaton, &opts, &params);
    let dfg = syncplace::dfg::build(prog);
    let trace = Arc::new(TraceRecorder::new());
    let rec = Some(Arc::clone(&trace) as Arc<dyn Recorder>);
    let got = analyze_recorded(prog, &dfg, automaton, &opts, &params, &rec);
    let case = format!("{name} × {} (collapse {collapse})", automaton.name);

    assert_eq!(got.stats, want_stats, "{case}: search stats");
    assert_eq!(got.solutions.len(), want.len(), "{case}: placement count");
    for (i, (g, w)) in got.solutions.iter().zip(&want).enumerate() {
        assert_eq!(
            g.fingerprint(),
            w.fingerprint(),
            "{case}: rank {i} fingerprint"
        );
        assert_eq!(g.cost, w.cost, "{case}: rank {i} cost");
        assert_eq!(
            g.mapping, w.mapping,
            "{case}: rank {i} representative mapping"
        );
        assert_eq!(g.comm_sites, w.comm_sites, "{case}: rank {i} sites");
        assert_eq!(g.domains, w.domains, "{case}: rank {i} domains");
    }
    let snap = trace.snapshot();
    assert_eq!(
        snap.counter(keys::SEARCH_SOLUTIONS),
        want.len() as u64,
        "{case}: search.solutions"
    );
    assert_eq!(
        snap.counter(keys::SEARCH_PRUNED),
        (n_mappings - want.len()) as u64,
        "{case}: search.pruned"
    );
    assert_eq!(snap.counter(keys::SEARCH_VISITS), want_stats.visits);
    want.len()
}

/// Every builtin program, with the unrolled TESTIV the two-layer
/// automaton exists for.
fn builtins() -> Vec<(&'static str, Program)> {
    use syncplace::ir::programs;
    vec![
        ("testiv", programs::testiv()),
        ("fig5-sketch", programs::fig5_sketch()),
        ("edge-smooth", programs::edge_smooth()),
        ("tet-heat", programs::tet_heat(20)),
        (
            "testiv-unrolled-x2",
            syncplace::ir::transform::unroll_time_loop_check_last(&programs::testiv_with(8), 2),
        ),
    ]
}

/// Check every builtin under `automaton`, with and without the §5.2
/// chain collapse, and return the names of the programs it types.
fn builtins_under(automaton: &OverlapAutomaton) -> Vec<&'static str> {
    let mut typed = Vec::new();
    for (name, prog) in builtins() {
        let plain = assert_equivalent(name, &prog, automaton, false);
        let collapsed = assert_equivalent(name, &prog, automaton, true);
        assert_eq!(
            plain, collapsed,
            "{name}: collapse changed the placement count"
        );
        if plain > 0 {
            typed.push(name);
        }
    }
    typed
}

#[test]
fn builtins_under_fig6_rank_as_the_per_mapping_pipeline_does() {
    assert_eq!(
        builtins_under(&fig6()),
        ["testiv", "fig5-sketch", "testiv-unrolled-x2"]
    );
}

#[test]
fn builtins_under_fig7_rank_as_the_per_mapping_pipeline_does() {
    assert_eq!(
        builtins_under(&fig7()),
        ["testiv", "fig5-sketch", "testiv-unrolled-x2"]
    );
}

#[test]
fn builtins_under_fig8_rank_as_the_per_mapping_pipeline_does() {
    assert_eq!(
        builtins_under(&fig8()),
        [
            "testiv",
            "fig5-sketch",
            "edge-smooth",
            "tet-heat",
            "testiv-unrolled-x2"
        ]
    );
}

#[test]
fn builtins_under_the_full_2d_automaton_rank_as_the_per_mapping_pipeline_does() {
    assert_eq!(
        builtins_under(&element_overlap_2d_full()),
        ["testiv", "fig5-sketch", "edge-smooth", "testiv-unrolled-x2"]
    );
}

#[test]
fn builtins_under_the_two_layer_automaton_rank_as_the_per_mapping_pipeline_does() {
    assert_eq!(
        builtins_under(&element_overlap_two_layer_2d()),
        ["testiv", "fig5-sketch", "testiv-unrolled-x2"]
    );
}

#[test]
fn wide_programs_rank_as_the_per_mapping_pipeline_does() {
    for k in 1..=6 {
        let prog =
            syncplace::ir::parser::parse(&syncplace_bench::setup::wide_program_src_scaled(k, 1.0))
                .expect("wide program parses");
        let n = assert_equivalent(
            &format!("wide({k})"),
            &prog,
            &element_overlap_2d_full(),
            true,
        );
        assert!(n > 0, "wide({k}) has no placement");
    }
}

#[test]
fn wide_five_is_not_capped_at_the_default_cap() {
    let prog =
        syncplace::ir::parser::parse(&syncplace_bench::setup::wide_program_src_scaled(5, 1.0))
            .expect("wide program parses");
    let dfg = syncplace::dfg::build(&prog);
    let opts = SearchOptions {
        collapse_deterministic: true,
        ..Default::default()
    };
    let (mappings, stats) = enumerate(&dfg, &element_overlap_2d_full(), &opts);
    assert!(mappings.len() < opts.max_solutions);
    assert!(!stats.capped && !stats.truncated);
}
