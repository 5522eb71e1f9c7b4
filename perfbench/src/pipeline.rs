//! The serve path rebuilt from each crate's public functions, with a
//! timer around every call. It is both the correctness oracle (outputs
//! against `run_sequential`, checksum against the wire) and the
//! per-layer attribution of the traced run.
//!
//! Each step mirrors `syncplace_server::service` call for call:
//! parse → placement (DFG, analysis, codegen) → plan (mesh, partition,
//! decomposition, `CommPlan`) → bindings → engine. The checksum
//! comparison against the daemon's reply is what keeps the two in
//! step: if this file drifted from the service, every request would
//! fail.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use syncplace::codegen::SpmdProgram;
use syncplace::ir::{printer, EntityKind, Program, VarKind};
use syncplace::mesh::Mesh2d;
use syncplace::overlap::Decomposition;
use syncplace::placement::{self, CostParams, SearchOptions};
use syncplace::runtime::{self, Bindings, CommPlan};
use syncplace::Engine;
use syncplace_server::protocol::{ProgramSpec, RunRequest};
use syncplace_server::service::{automaton_for, output_checksum};

/// The tolerance the repository's tests hold engines to against the
/// sequential run.
pub const TOLERANCE: f64 = 1e-9;

/// Layers whose time the service pays on its request path; their sum
/// over `server.service_ms` is `trace.coverage`.
pub const SERVICE_LAYERS: &[&str] = &[
    "ir.parse_ms",
    "dfg.build_ms",
    "placement.legality_ms",
    "placement.enumerate_ms",
    "placement.extract_ms",
    "placement.cost_ms",
    "placement.rank_ms",
    "codegen.spmd_ms",
    "mesh.gen_ms",
    "partition.split_ms",
    "runtime.decompose_ms",
    "runtime.commplan_ms",
    "runtime.bindings_ms",
    "runtime.engine_ms",
];

/// Accumulated milliseconds per layer metric.
#[derive(Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        *self.0.entry(name).or_default() += t.elapsed().as_secs_f64() * 1e3;
        out
    }

    fn add(&mut self, name: &'static str, ms: f64) {
        *self.0.entry(name).or_default() += ms;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Exact work counts of the most recent placement, plan and run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub visits: u64,
    pub mappings: usize,
    pub placements: usize,
    pub triangles: usize,
    pub edge_cut: usize,
    pub messages: usize,
    pub values: usize,
    pub iterations: usize,
}

/// What one request produced in process.
#[derive(Debug, Clone, Copy)]
pub struct Checked {
    /// The service's output digest of the engine run.
    pub checksum: u64,
    /// Largest relative error of the engine's outputs against
    /// `run_sequential`.
    pub max_rel_err: f64,
}

struct Placed {
    key: String,
    prog: Program,
    spmd: SpmdProgram,
}

struct Compiled {
    key: String,
    mesh: Mesh2d,
    d: Decomposition<3>,
    plan: Arc<CommPlan>,
}

/// The in-process pipeline, holding the last placement and plan it
/// built (the same content keys the service caches on).
#[derive(Default)]
pub struct Pipeline {
    /// Also split `analyze` into its parts and time the round-robin
    /// reference engine. Off for the oracle, which needs neither.
    traced: bool,
    placed: Option<Placed>,
    compiled: Option<Compiled>,
    pub counts: Counts,
}

impl Pipeline {
    pub fn new(traced: bool) -> Pipeline {
        Pipeline {
            traced,
            ..Default::default()
        }
    }

    /// Run one request. A placement or plan is rebuilt unless the
    /// last one has the same key and `reuse_place`/`reuse_plan` allow
    /// reusing it (the traced run passes the service's cache outcome,
    /// so each layer is timed exactly when the service paid for it).
    pub fn run(
        &mut self,
        req: &RunRequest,
        reuse_place: bool,
        reuse_plan: bool,
        l: &mut Layers,
    ) -> Result<Checked, String> {
        if req.engine != Engine::Batched {
            return Err(format!(
                "engine {} is not the served default",
                req.engine.name()
            ));
        }
        let automaton = automaton_for(req.pattern);
        let (prog, canonical) = l.time("ir.parse_ms", || -> Result<_, String> {
            let prog = match &req.program {
                ProgramSpec::Builtin(name) if name == "testiv" => syncplace::ir::programs::testiv(),
                ProgramSpec::Builtin(other) => return Err(format!("unsupported builtin {other}")),
                ProgramSpec::Source(src) => {
                    syncplace::ir::parser::parse(src).map_err(|e| format!("parse error: {e}"))?
                }
            };
            if !syncplace::ir::validate::check(&prog).is_empty() {
                return Err("shape errors".into());
            }
            let canonical = printer::to_dsl(&prog);
            Ok((prog, canonical))
        })?;
        let pkey = format!("{canonical}\u{0}{}", automaton.name);

        let hit = reuse_place && self.placed.as_ref().is_some_and(|p| p.key == pkey);
        if !hit {
            self.placed = Some(self.place(prog, pkey.clone(), &automaton, l)?);
        }
        let placed = self.placed.as_ref().expect("placed");

        let m = &req.mesh;
        let plkey = format!(
            "{pkey}\u{0}{}x{}:{}:{}:{}:{}",
            m.nx,
            m.ny,
            m.perturb.to_bits(),
            m.seed,
            req.pattern.name(),
            req.p
        );
        let hit = reuse_plan && self.compiled.as_ref().is_some_and(|c| c.key == plkey);
        if !hit {
            let mesh = l.time("mesh.gen_ms", || {
                syncplace::mesh::gen2d::perturbed_grid(m.nx, m.ny, m.perturb, m.seed)
            });
            let part = l.time("partition.split_ms", || {
                syncplace::partition::partition2d(&mesh, req.p, syncplace::partition::Method::RcbKl)
            });
            let (d, _) = l.time("runtime.decompose_ms", || {
                runtime::decomp::decompose2d_par(
                    &mesh,
                    &part.part,
                    req.p,
                    req.pattern,
                    req.p.clamp(1, 4),
                    &None,
                )
            });
            let plan = l.time("runtime.commplan_ms", || {
                Arc::new(CommPlan::build(&placed.prog, &placed.spmd, &d))
            });
            self.counts.triangles = mesh.ntris();
            self.counts.edge_cut = syncplace::partition::metrics::edge_cut(&part.dual, &part.part);
            self.compiled = Some(Compiled {
                key: plkey,
                mesh,
                d,
                plan,
            });
        }
        let compiled = self.compiled.as_ref().expect("compiled");

        let bindings = l.time("runtime.bindings_ms", || -> Result<_, String> {
            let mut b = Bindings::for_mesh2d(&placed.prog, &compiled.mesh);
            synth_inputs(&placed.prog, &compiled.mesh, &mut b);
            b.validate(&placed.prog)?;
            Ok(b)
        })?;
        let res = l.time("runtime.engine_ms", || {
            runtime::run_spmd_batched_with_plan(
                &placed.prog,
                &placed.spmd,
                &compiled.d,
                &bindings,
                &compiled.plan,
            )
        })?;
        if self.traced {
            l.time("runtime.reference_ms", || {
                runtime::run_spmd(&placed.prog, &placed.spmd, &compiled.d, &bindings)
            })?;
        }
        let seq = l.time("runtime.sequential_ms", || {
            runtime::run_sequential(&placed.prog, &bindings)
        });
        self.counts.messages = res.stats.total_messages();
        self.counts.values = res.stats.total_values();
        self.counts.iterations = res.iterations;
        Ok(Checked {
            checksum: output_checksum(&placed.prog, &res),
            max_rel_err: runtime::max_rel_error(&seq, &res),
        })
    }

    /// The service's `place`, split into its public parts. `analyze`
    /// runs whole (that is the time the service pays); its callable
    /// parts then run again on the same input, and ranking — the
    /// sort/dedupe inside `analyze`, which has no entry point of its
    /// own — is the remainder.
    fn place(
        &mut self,
        prog: Program,
        key: String,
        automaton: &syncplace::automata::OverlapAutomaton,
        l: &mut Layers,
    ) -> Result<Placed, String> {
        let opts = SearchOptions {
            collapse_deterministic: true,
            ..Default::default()
        };
        let cost = CostParams::default();
        let dfg = l.time("dfg.build_ms", || syncplace::dfg::build(&prog));
        let t = Instant::now();
        let analysis = placement::analyze(&prog, &dfg, automaton, &opts, &cost);
        let analyze_ms = t.elapsed().as_secs_f64() * 1e3;
        if !analysis.legality.is_legal() {
            return Err("illegal partitioning".into());
        }
        let best = analysis.solutions.first().ok_or("no placement exists")?;
        let spmd = l.time("codegen.spmd_ms", || {
            syncplace::codegen::spmd_program(&prog, &dfg, best)
        });
        self.counts.placements = analysis.solutions.len();
        if !self.traced {
            return Ok(Placed { key, prog, spmd });
        }

        let mut parts = Layers::default();
        parts.time("placement.legality_ms", || {
            placement::check_legality(&prog, &dfg)
        });
        let (mappings, stats) = parts.time("placement.enumerate_ms", || {
            placement::enumerate(&dfg, automaton, &opts)
        });
        let n_mappings = mappings.len();
        let solutions: Vec<_> = parts.time("placement.extract_ms", || {
            mappings
                .into_iter()
                .map(|m| placement::solution::extract(&prog, &dfg, automaton, m))
                .collect()
        });
        parts.time("placement.cost_ms", || {
            for s in &solutions {
                std::hint::black_box(placement::cost::evaluate(&prog, &dfg, s, &cost));
            }
        });
        let callable: f64 = parts.0.values().sum();
        for (k, v) in parts.0 {
            l.add(k, v);
        }
        l.add("placement.rank_ms", analyze_ms - callable);
        self.counts.visits = stats.visits;
        self.counts.mappings = n_mappings;
        Ok(Placed { key, prog, spmd })
    }
}

/// The service's input synthesis (scalars small positive, arrays a
/// mildly varying positive field), needed to rebuild its bindings.
fn synth_inputs(prog: &Program, mesh: &Mesh2d, b: &mut Bindings) {
    for v in prog.inputs() {
        match prog.decl(v).kind {
            VarKind::Scalar => {
                b.input_scalars.entry(v).or_insert(1e-8);
            }
            VarKind::Array { base } => {
                let n = match base {
                    EntityKind::Node => mesh.nnodes(),
                    EntityKind::Tri => mesh.ntris(),
                    EntityKind::Edge => mesh.connectivity().edges.len(),
                    EntityKind::Tet => 0,
                };
                b.input_arrays
                    .entry(v)
                    .or_insert_with(|| (0..n).map(|i| 1.0 + 0.1 * ((i % 7) as f64)).collect());
            }
            VarKind::Map { .. } => {}
        }
    }
}
