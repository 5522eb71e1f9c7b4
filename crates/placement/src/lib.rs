//! Automatic placement of communications — the paper's contribution
//! (§3–§4).
//!
//! Given a program's data-flow graph (`syncplace-dfg`) and the overlap
//! automaton of the chosen overlapping pattern (`syncplace-automata`),
//! this crate:
//!
//! 1. **Verifies the applicability of the method** (§3.2, Fig. 4):
//!    no dependence may remain carried across the iterations of a
//!    partitioned loop after reduction detection and localization, no
//!    value may escape a particular partitioned iteration (case *g*)
//!    except through a reduction, and no array may be used both
//!    partitioned and sequentially. See [`legality`].
//! 2. **Finds every mapping** `M_n` (data-flow node → automaton state)
//!    and `M_a` (data-flow arrow → automaton transition) satisfying
//!    the three conditions of §3.4 — inputs at their given states,
//!    outputs at their required states, and every arrow mapped to a
//!    transition connecting its endpoints' states. The propagation is
//!    nondeterministic and backtracking; both the paper's recursive
//!    sketch ([`propagate`]) and the iterative, trail-based version
//!    the paper says its implementation uses ([`search`]) are
//!    provided, and they enumerate the same solutions.
//! 3. **Extracts the concrete placement** from each distinct
//!    placement ([`solution`]): the `C$SYNCHRONIZE` communication
//!    sites (one per variable × dominating insertion point) and the
//!    `C$ITERATION DOMAIN` (kernel/overlap) of every partitioned loop
//!    — exactly the two outputs §4 names ("from M_a we shall get the
//!    places where to set communications, and from M_n … the precise
//!    iteration domain of each partitioned loop"). Many mappings
//!    differ only in the states of internal nodes and so place the
//!    same communications; they are deduplicated by a placement key
//!    (per-arrow communication kinds plus `Def`-node states) *before*
//!    extraction, and the survivors are extracted against one
//!    position graph built per analysis.
//! 4. **Ranks the solutions** with a cost model ([`cost`]): the paper
//!    observes that several placements exist (Figs. 9–10) and that
//!    "performance depends on this choice" — grouped communication
//!    phases versus kernel-restricted iteration domains. Each
//!    survivor's fingerprint is computed once; the first mapping of
//!    each fingerprint (in enumeration order) is kept and the list is
//!    sorted by `(score, fingerprint)`, which yields the same ranked
//!    list as extracting every mapping and deduplicating after the
//!    sort (DESIGN.md §5.4).
//! 5. **Checks a given placement** in simulation mode ([`checker`],
//!    §5.2): verify that a proposed set of communication-carrying
//!    dependences admits a consistent mapping — the "test mode" the
//!    paper describes, which also catches hand-placement errors (§6).

#![forbid(unsafe_code)]

pub mod arrowclass;
pub mod checker;
pub mod cost;
pub mod legality;
pub mod propagate;
pub mod search;
pub mod solution;

pub use arrowclass::classify_arrow;
pub use checker::{check_placement, verify_mapping, PlacementDiagnosis};
pub use cost::{CostParams, SolutionCost};
pub use legality::{check_legality, LegalityError, LegalityReport};
pub use search::{enumerate, SearchOptions, SearchStats};
pub use solution::{CommSite, InsertionPoint, IterationDomain, Mapping, Solution};

use solution::PlacementKey;
use std::collections::HashSet;
use syncplace_automata::OverlapAutomaton;
use syncplace_dfg::Dfg;
use syncplace_ir::Program;
use syncplace_obs::{self as obs, keys, RecorderRef};

/// Full analysis result.
#[derive(Debug)]
pub struct Analysis {
    /// The legality report (empty = the user partitioning is legal).
    pub legality: LegalityReport,
    /// All solutions found (empty when illegal), ranked best-first by
    /// the cost model.
    pub solutions: Vec<Solution>,
    /// Search statistics (node visits, backtracks).
    pub stats: SearchStats,
}

/// Run the complete analysis: legality check, solution enumeration,
/// placement extraction, ranking.
pub fn analyze(
    prog: &Program,
    dfg: &Dfg,
    automaton: &OverlapAutomaton,
    options: &SearchOptions,
    cost: &CostParams,
) -> Analysis {
    analyze_recorded(prog, dfg, automaton, options, cost, &None)
}

/// [`analyze`] with an observability hook: a span around the
/// backtracking enumeration plus `search.*` counters — automaton
/// nodes visited, backtracks taken, distinct placements kept,
/// duplicate mappings pruned by the dedupe, and whether the
/// `max_solutions` cap stopped the enumeration.
pub fn analyze_recorded(
    prog: &Program,
    dfg: &Dfg,
    automaton: &OverlapAutomaton,
    options: &SearchOptions,
    cost: &CostParams,
    rec: &RecorderRef,
) -> Analysis {
    let legality = check_legality(prog, dfg);
    if !legality.is_legal() {
        return Analysis {
            legality,
            solutions: Vec::new(),
            stats: SearchStats::default(),
        };
    }
    let t0 = obs::start(rec);
    let (mappings, stats) = enumerate(dfg, automaton, options);
    obs::finish(rec, keys::SEARCH_SPAN, t0);
    let n_mappings = mappings.len();
    // Mappings differing only in internal state choices produce the
    // same placement: extract only the first mapping of each placement
    // key, then keep the first of each fingerprint. The score is a
    // function of the fingerprint, so this keeps the representative a
    // stable sort of every mapping followed by a dedupe would keep
    // (DESIGN.md §5.4).
    let pos_graph = solution::build_pos_graph(prog, dfg);
    let mut keys_seen = HashSet::new();
    let mut fingerprints_seen = HashSet::new();
    let mut ranked: Vec<(String, Solution)> = Vec::new();
    for m in mappings {
        if !keys_seen.insert(PlacementKey::of(dfg, &m)) {
            continue;
        }
        let mut s = solution::extract_with(prog, dfg, automaton, &pos_graph, m);
        let fingerprint = s.fingerprint();
        if fingerprints_seen.insert(fingerprint.clone()) {
            s.cost = cost::evaluate(prog, dfg, &s, cost);
            ranked.push((fingerprint, s));
        }
    }
    ranked.sort_by(|(fa, a), (fb, b)| {
        a.cost
            .score
            .partial_cmp(&b.cost.score)
            .unwrap()
            .then_with(|| fa.cmp(fb))
    });
    let solutions: Vec<Solution> = ranked.into_iter().map(|(_, s)| s).collect();
    if let Some(r) = rec {
        r.add(keys::SEARCH_VISITS, stats.visits);
        r.add(keys::SEARCH_BACKTRACKS, stats.backtracks);
        r.add(keys::SEARCH_SOLUTIONS, solutions.len() as u64);
        r.add(keys::SEARCH_PRUNED, (n_mappings - solutions.len()) as u64);
        if stats.capped {
            r.add(keys::SEARCH_CAPPED, 1);
        }
    }
    Analysis {
        legality,
        solutions,
        stats,
    }
}

/// Convenience: build the DFG and analyze in one call.
pub fn analyze_program(
    prog: &Program,
    automaton: &OverlapAutomaton,
    options: &SearchOptions,
    cost: &CostParams,
) -> (Dfg, Analysis) {
    analyze_program_recorded(prog, automaton, options, cost, &None)
}

/// [`analyze_program`] with an observability hook (see
/// [`analyze_recorded`]).
pub fn analyze_program_recorded(
    prog: &Program,
    automaton: &OverlapAutomaton,
    options: &SearchOptions,
    cost: &CostParams,
    rec: &RecorderRef,
) -> (Dfg, Analysis) {
    let dfg = syncplace_dfg::build(prog);
    let analysis = analyze_recorded(prog, &dfg, automaton, options, cost, rec);
    (dfg, analysis)
}
