//! The batched multi-threaded SPMD engine: persistent pool workers, one
//! coalesced packet per peer per communication phase, and recycled
//! flat f64 staging buffers — zero allocation in the steady state.
//!
//! Compared to the round-robin reference's simulated per-op wire (one
//! message per op per peer), this engine:
//!
//! * executes a [`crate::plan::CommPlan`] built once from the
//!   decomposition's schedules and reused across all time-loop
//!   iterations — every comm op at an insertion point rides the same
//!   packet ([`crate::comm::merge_phase`] realized in the data path);
//! * transfers packets by moving ownership of the staging buffer
//!   through the channel (no copy) and recycles spent buffers back to
//!   their sender on a return channel;
//! * runs its ranks as a gang on the persistent
//!   [`crate::pool::SpmdPool`], reusing OS threads across runs and
//!   experiments.
//!
//! Combine orders are identical to the reference engine, so outputs
//! are **bitwise identical** to round-robin runs.

use crate::bindings::Bindings;
use crate::comm::CommStats;
use crate::exec::Machine;
use crate::plan::{CommPlan, PackItem, PhasePlan, Term};
use crate::pool::SpmdPool;
use crate::spmd::{build_machines, collect_results, SpmdResult};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use syncplace_codegen::SpmdProgram;
use syncplace_obs::{self as obs, keys, RecorderRef};
use syncplace_ir::{Program, Stmt};
use syncplace_overlap::Decomposition;
use syncplace_placement::IterationDomain;

/// One rank's job on the worker pool: run the rank to completion and
/// return its machine, comm stats and iteration count.
type RankJob = Box<dyn FnOnce() -> Result<(Machine, CommStats, usize), String> + Send + 'static>;

/// One rank's endpoints: data channels in both directions plus return
/// channels that carry spent staging buffers back to their sender.
struct BatchNet {
    rank: usize,
    d_tx: Vec<Sender<Vec<f64>>>,
    d_rx: Vec<Option<Receiver<Vec<f64>>>>,
    r_tx: Vec<Sender<Vec<f64>>>,
    r_rx: Vec<Option<Receiver<Vec<f64>>>>,
    rec: RecorderRef,
}

impl BatchNet {
    /// A cleared staging buffer for peer `q`: recycled if one has come
    /// back, freshly allocated only until the steady state is reached.
    fn acquire(&mut self, q: usize) -> Vec<f64> {
        match self.r_rx[q].as_ref().and_then(|rx| rx.try_recv().ok()) {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::new(),
        }
    }

    fn send(&mut self, q: usize, buf: Vec<f64>) {
        if let Some(r) = &self.rec {
            r.hb(self.rank as u32, keys::HB_SEND, q as u32);
        }
        self.d_tx[q].send(buf).expect("peer alive");
    }

    fn recv_from(&mut self, r: usize) -> Vec<f64> {
        // The scatter/combine read of the wire buffer follows
        // immediately at every call site, so the `hb.read` that the
        // happens-before checker matches against the sender's write is
        // emitted here alongside the receive itself.
        if let Some(rr) = &self.rec {
            rr.hb(self.rank as u32, keys::HB_RECV, r as u32);
            rr.hb(self.rank as u32, keys::HB_READ, r as u32);
        }
        self.d_rx[r]
            .as_ref()
            .expect("no self-channel")
            .recv()
            .expect("peer alive")
    }

    /// Return a spent buffer to the rank that allocated it.
    fn give_back(&mut self, r: usize, buf: Vec<f64>) {
        let _ = self.r_tx[r].send(buf); // peer may have finished
    }
}

struct BatchProc {
    prog: Arc<Program>,
    spmd: Arc<SpmdProgram>,
    plan: Arc<CommPlan>,
    m: Machine,
    net: BatchNet,
    nparts: usize,
    stats: CommStats,
    iterations: usize,
    rec: RecorderRef,
}

impl BatchProc {
    fn apply_phase(&mut self, idx: usize) {
        let plan = Arc::clone(&self.plan);
        let ph: &PhasePlan = &plan.phases[idx];
        let rp = &ph.ranks[self.net.rank];
        // Plan-derived accounting is identical on every rank; rank 0
        // alone reports counters and the phase span. Packets and
        // staged bytes are per-rank own-sends; the clock runs on
        // every rank so each rank's in-phase time lands on its
        // timeline lane.
        let report = self.net.rank == 0;
        let t0 = obs::start(&self.rec);

        // Round 1: pack and ship one packet per peer.
        for q in 0..self.nparts {
            if rp.send1_len[q] == 0 {
                continue;
            }
            let mut buf = self.net.acquire(q);
            buf.reserve(rp.send1_len[q]);
            for item in &rp.send1[q] {
                match item {
                    PackItem::Gather { var, idx } => {
                        let arr = &self.m.arrays[*var];
                        buf.extend(idx.iter().map(|&i| arr[i as usize]));
                    }
                }
            }
            debug_assert_eq!(buf.len(), rp.send1_len[q]);
            if let Some(r) = &self.rec {
                r.packet(self.net.rank as u32, q as u32, buf.len() as u64);
                r.add(keys::BYTES_STAGED, 8 * buf.len() as u64);
            }
            self.net.send(q, buf);
        }
        let mut bufs1: Vec<Option<Vec<f64>>> = (0..self.nparts)
            .map(|r| rp.has_recv1[r].then(|| self.net.recv_from(r)))
            .collect();

        // Updates: scatter straight out of the wire buffers.
        for (r, buf) in bufs1.iter().enumerate() {
            let Some(buf) = buf else { continue };
            for ru in &rp.recv1[r] {
                let arr = &mut self.m.arrays[ru.var];
                for (k, &dst) in ru.dst.iter().enumerate() {
                    arr[dst as usize] = buf[ru.off as usize + k];
                }
            }
        }

        // Assemblies: combine owned groups in the fixed order, write
        // back, stage totals for round 2.
        let mut bufs2: Vec<Vec<f64>> = Vec::new();
        if rp.send2_len.iter().any(|&l| l > 0) {
            bufs2 = (0..self.nparts)
                .map(|q| {
                    if rp.send2_len[q] > 0 {
                        let mut b = self.net.acquire(q);
                        b.reserve(rp.send2_len[q]);
                        b
                    } else {
                        Vec::new()
                    }
                })
                .collect();
        }
        for ap in &rp.assembles {
            for g in &ap.own_groups {
                let mut terms = g.terms.iter();
                let mut total = match terms.next().expect("non-empty group") {
                    Term::Own(l) => self.m.arrays[ap.var][*l as usize],
                    Term::Peer { .. } => unreachable!("owner term first"),
                };
                for t in terms {
                    total += match t {
                        Term::Own(l) => self.m.arrays[ap.var][*l as usize],
                        Term::Peer { peer, off } => {
                            bufs1[*peer as usize].as_ref().expect("peer packet")[*off as usize]
                        }
                    };
                }
                self.m.arrays[ap.var][g.write as usize] = total;
                for &q in &g.send_to {
                    bufs2[q as usize].push(total);
                }
            }
        }

        // Reductions: combine partials up the shared binomial tree and
        // broadcast the totals back down.  One packet per tree edge per
        // direction, carrying every reduce op's value in phase order —
        // the combine order is exactly `comm::tree_fold`, so results
        // stay bitwise-identical to the per-op engines.
        if !rp.reduces.is_empty() {
            let me = self.net.rank as u32;
            let mut accs: Vec<f64> = rp
                .reduces
                .iter()
                .map(|red| self.m.scalars[red.var])
                .collect();
            for &c in &rp.red_children {
                let buf = self.net.recv_from(c as usize);
                for (acc, (red, &sub)) in
                    accs.iter_mut().zip(rp.reduces.iter().zip(buf.iter()))
                {
                    *acc = red.op.combine(*acc, sub);
                }
                self.net.give_back(c as usize, buf);
            }
            let totals: Vec<f64> = match rp.red_parent {
                Some(parent) => {
                    let p = parent as usize;
                    let mut buf = self.net.acquire(p);
                    buf.extend_from_slice(&accs);
                    if let Some(r) = &self.rec {
                        r.packet(me, parent, buf.len() as u64);
                        r.add(keys::BYTES_STAGED, 8 * buf.len() as u64);
                    }
                    self.net.send(p, buf);
                    let buf = self.net.recv_from(p);
                    let totals = buf.clone();
                    self.net.give_back(p, buf);
                    totals
                }
                None => accs,
            };
            for &c in &rp.red_children {
                let mut buf = self.net.acquire(c as usize);
                buf.extend_from_slice(&totals);
                if let Some(r) = &self.rec {
                    r.packet(me, c, buf.len() as u64);
                    r.add(keys::BYTES_STAGED, 8 * buf.len() as u64);
                }
                self.net.send(c as usize, buf);
            }
            for (red, &t) in rp.reduces.iter().zip(&totals) {
                self.m.scalars[red.var] = t;
            }
        }

        // Round 2: totals owner → participants.
        for (q, buf) in bufs2.into_iter().enumerate() {
            if rp.send2_len[q] > 0 {
                debug_assert_eq!(buf.len(), rp.send2_len[q]);
                if let Some(r) = &self.rec {
                    r.packet(self.net.rank as u32, q as u32, buf.len() as u64);
                    r.add(keys::BYTES_STAGED, 8 * buf.len() as u64);
                }
                self.net.send(q, buf);
            }
        }
        for r in 0..self.nparts {
            if rp.recv2[r].is_empty() {
                continue;
            }
            let buf = self.net.recv_from(r);
            for (k, &(var, slot)) in rp.recv2[r].iter().enumerate() {
                self.m.arrays[var][slot as usize] = buf[k];
            }
            self.net.give_back(r, buf);
        }

        // Recycle the round-1 staging buffers to their senders.
        for (r, buf) in bufs1.iter_mut().enumerate() {
            if let Some(buf) = buf.take() {
                self.net.give_back(r, buf);
            }
        }

        // Accounting is plan-derived: identical on every rank.
        self.stats.phases.push(ph.stat);
        self.stats.updates += ph.updates;
        self.stats.assembles += ph.assembles;
        self.stats.reduces += ph.reduces;
        if report {
            if let Some(r) = &self.rec {
                r.add(keys::COMM_MESSAGES, ph.stat.messages as u64);
                r.add(keys::COMM_VALUES, ph.stat.values as u64);
                r.add(keys::UPDATES, ph.updates as u64);
                r.add(keys::ASSEMBLES, ph.assembles as u64);
                r.add(keys::REDUCES, ph.reduces as u64);
                for red in &rp.reduces {
                    r.add(crate::comm::reduce_key(red.op), 1);
                }
            }
        }
        obs::finish_ranked(&self.rec, keys::PHASE_SPAN, self.net.rank as u32, t0);
    }

    /// Exit-test allgather: recorded under `exit.*` counters (per-rank
    /// own-sends), kept out of the per-pair matrix so the matrix holds
    /// only `C$SYNCHRONIZE` phase traffic.
    fn allgather_scalar(&mut self, x: f64) -> Vec<f64> {
        if let Some(r) = &self.rec {
            r.add(keys::EXIT_MESSAGES, self.nparts.saturating_sub(1) as u64);
            r.add(keys::EXIT_VALUES, self.nparts.saturating_sub(1) as u64);
        }
        for q in 0..self.nparts {
            if q != self.net.rank {
                let mut buf = self.net.acquire(q);
                buf.push(x);
                self.net.send(q, buf);
            }
        }
        let me = self.net.rank;
        let mut all = vec![0.0; self.nparts];
        all[me] = x;
        for r in (0..self.nparts).filter(|&r| r != me) {
            let buf = self.net.recv_from(r);
            all[r] = buf[0];
            self.net.give_back(r, buf);
        }
        all
    }

    fn run_block(&mut self, stmts: &[Stmt]) -> Result<bool, String> {
        for s in stmts {
            let id = match s {
                Stmt::Loop(l) => l.id,
                Stmt::Assign(a) => a.id,
                Stmt::TimeLoop(t) => t.id,
                Stmt::ExitIf(e) => e.id,
            };
            if let Some(&phase) = self.plan.before.get(&id) {
                self.apply_phase(phase);
            }
            match s {
                Stmt::Assign(a) => self.m.exec_assign(a, None),
                Stmt::Loop(l) => {
                    if !l.partitioned {
                        return Err("sequential entity loops unsupported".into());
                    }
                    let domain = self.spmd.domains[&l.id];
                    let full = self.m.count(l.entity);
                    let kernel = self.m.kernel_count(l.entity);
                    let n = match domain {
                        IterationDomain::Overlap => full,
                        IterationDomain::Kernel => kernel,
                    };
                    let spmd = Arc::clone(&self.spmd);
                    let t0 = obs::start(&self.rec);
                    self.m.exec_loop(l, n, kernel, &spmd.kernel_guarded);
                    obs::finish_ranked(&self.rec, keys::COMPUTE_SPAN, self.net.rank as u32, t0);
                }
                Stmt::TimeLoop(t) => {
                    'time: for _ in 0..t.max_iters {
                        self.iterations += 1;
                        if self.run_block(&t.body)? {
                            break 'time;
                        }
                    }
                }
                Stmt::ExitIf(e) => {
                    let mine = self.m.eval_exit(&e.lhs, e.rel, &e.rhs);
                    let all = self.allgather_scalar(if mine { 1.0 } else { 0.0 });
                    if all.iter().any(|&x| x != all[0]) {
                        self.stats.divergent_exits += 1;
                    }
                    // Rank-0's decision rules (same as the reference).
                    if all[0] != 0.0 {
                        return Ok(true);
                    }
                }
            }
        }
        Ok(false)
    }
}

/// Run a placed SPMD program with the batched engine, building the
/// communication plan on the fly.
pub fn run_spmd_batched<const V: usize>(
    prog: &Program,
    spmd: &SpmdProgram,
    d: &Decomposition<V>,
    b: &Bindings,
) -> Result<SpmdResult, String> {
    let plan = Arc::new(CommPlan::build(prog, spmd, d));
    run_spmd_batched_with_plan(prog, spmd, d, b, &plan)
}

/// [`run_spmd_batched`] with an observability hook (plan built on the
/// fly).
pub fn run_spmd_batched_recorded<const V: usize>(
    prog: &Program,
    spmd: &SpmdProgram,
    d: &Decomposition<V>,
    b: &Bindings,
    rec: &RecorderRef,
) -> Result<SpmdResult, String> {
    let plan = Arc::new(CommPlan::build(prog, spmd, d));
    run_spmd_batched_with_plan_recorded(prog, spmd, d, b, &plan, rec)
}

/// Run with a prebuilt plan (reuse it across runs on the same
/// decomposition — e.g. the repeated runs of a benchmark).
pub fn run_spmd_batched_with_plan<const V: usize>(
    prog: &Program,
    spmd: &SpmdProgram,
    d: &Decomposition<V>,
    b: &Bindings,
    plan: &Arc<CommPlan>,
) -> Result<SpmdResult, String> {
    run_spmd_batched_with_plan_recorded(prog, spmd, d, b, plan, &None)
}

/// [`run_spmd_batched_with_plan`] with an observability hook: per-rank
/// packet / staged-byte recording at the two coalesced send sites,
/// rank-0 phase spans and plan-derived counters, exit-test traffic
/// under `exit.*`, and a whole-run span.
pub fn run_spmd_batched_with_plan_recorded<const V: usize>(
    prog: &Program,
    spmd: &SpmdProgram,
    d: &Decomposition<V>,
    b: &Bindings,
    plan: &Arc<CommPlan>,
    rec: &RecorderRef,
) -> Result<SpmdResult, String> {
    let run_t0 = obs::start(rec);
    let machines = build_machines(prog, d, b)?;
    let nparts = d.nparts;
    let prog_arc = Arc::new(prog.clone());
    let spmd_arc = Arc::new(spmd.clone());

    // Data and buffer-return channels per ordered pair.
    type PairChannels = Vec<Vec<Option<(Sender<Vec<f64>>, Receiver<Vec<f64>>)>>>;
    let mut d_ch: PairChannels = (0..nparts)
        .map(|_| (0..nparts).map(|_| Some(channel())).collect())
        .collect();
    let mut r_ch: PairChannels = (0..nparts)
        .map(|_| (0..nparts).map(|_| Some(channel())).collect())
        .collect();
    let mut d_tx: Vec<Vec<Sender<Vec<f64>>>> = (0..nparts)
        .map(|p| {
            (0..nparts)
                .map(|q| {
                    d_ch[p][q]
                        .as_ref()
                        .unwrap_or_else(|| {
                            panic!("data channel rank {p} -> peer {q} already wired")
                        })
                        .0
                        .clone()
                })
                .collect()
        })
        .collect();
    let mut r_tx: Vec<Vec<Sender<Vec<f64>>>> = (0..nparts)
        .map(|p| {
            (0..nparts)
                .map(|q| {
                    r_ch[p][q]
                        .as_ref()
                        .unwrap_or_else(|| {
                            panic!("return channel rank {p} -> peer {q} already wired")
                        })
                        .0
                        .clone()
                })
                .collect()
        })
        .collect();

    let mut jobs: Vec<RankJob> = Vec::with_capacity(nparts);
    for (rank, m) in machines.into_iter().enumerate() {
        let net = BatchNet {
            rank,
            d_tx: std::mem::take(&mut d_tx[rank]),
            d_rx: (0..nparts)
                .map(|r| d_ch[r][rank].take().map(|(_, rx)| rx))
                .collect(),
            r_tx: std::mem::take(&mut r_tx[rank]),
            r_rx: (0..nparts)
                .map(|q| r_ch[rank][q].take().map(|(_, rx)| rx))
                .collect(),
            rec: rec.clone(),
        };
        let prog = Arc::clone(&prog_arc);
        let spmd = Arc::clone(&spmd_arc);
        let plan = Arc::clone(plan);
        let rec = rec.clone();
        jobs.push(Box::new(move || {
            let t_job = obs::start(&rec);
            let mut proc = BatchProc {
                prog,
                spmd,
                plan,
                m,
                net,
                nparts,
                stats: CommStats::default(),
                iterations: 0,
                rec,
            };
            let body = Arc::clone(&proc.prog);
            proc.run_block(&body.body)?;
            if let Some(end) = proc.plan.at_end {
                proc.apply_phase(end);
            }
            obs::finish_event(&proc.rec, keys::RANK_RUN, rank as u32, t_job);
            Ok((proc.m, proc.stats, proc.iterations))
        }));
    }

    let results = SpmdPool::global().run_gang_recorded(jobs, rec);
    let mut machines = Vec::with_capacity(nparts);
    let mut stats = CommStats::default();
    let mut iterations = 0;
    for (rank, r) in results.into_iter().enumerate() {
        let (m, s, it) = r?;
        if rank == 0 {
            stats = s;
            iterations = it;
        }
        machines.push(m);
    }
    if let Some(r) = rec {
        r.add(keys::ITERATIONS, iterations as u64);
    }
    obs::finish(rec, keys::RUN_SPAN, run_t0);
    Ok(collect_results::<V>(prog, d, machines, stats, iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::testiv_bindings;
    use syncplace_automata::predefined::{fig6, fig7};
    use syncplace_ir::programs;
    use syncplace_mesh::gen2d;
    use syncplace_overlap::{decompose2d, Pattern};
    use syncplace_partition::{partition2d, Method};
    use syncplace_placement::{analyze_program, CostParams, SearchOptions};

    fn engines(pattern: Pattern, nparts: usize) -> (SpmdResult, SpmdResult) {
        let p = programs::testiv();
        let mesh = gen2d::perturbed_grid(9, 9, 0.15, 3);
        let b = testiv_bindings(&p, &mesh, 1e-9);
        let automaton = match pattern {
            Pattern::NodeOverlap => fig7(),
            _ => fig6(),
        };
        let (dfg, analysis) = analyze_program(
            &p,
            &automaton,
            &SearchOptions::default(),
            &CostParams::default(),
        );
        let spmd_prog = syncplace_codegen::spmd_program(&p, &dfg, &analysis.solutions[0]);
        let part = partition2d(&mesh, nparts, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, nparts, pattern);
        let rr = crate::spmd::run_spmd(&p, &spmd_prog, &d, &b).unwrap();
        let ba = run_spmd_batched(&p, &spmd_prog, &d, &b).unwrap();
        (rr, ba)
    }

    #[test]
    fn batched_bitwise_matches_round_robin_fig1() {
        let (rr, ba) = engines(Pattern::FIG1, 4);
        assert_eq!(rr.iterations, ba.iterations);
        for (v, a) in &rr.output_arrays {
            let b = &ba.output_arrays[v];
            assert!(
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "array outputs differ bitwise"
            );
        }
        for (v, a) in &rr.output_scalars {
            assert_eq!(a.to_bits(), ba.output_scalars[v].to_bits());
        }
    }

    #[test]
    fn batched_bitwise_matches_round_robin_fig2() {
        let (rr, ba) = engines(Pattern::FIG2, 3);
        for (v, a) in &rr.output_arrays {
            let b = &ba.output_arrays[v];
            assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn batched_sends_at_most_one_packet_per_peer_per_phase() {
        let (rr, ba) = engines(Pattern::FIG2, 4);
        // Same number of phases; never more messages per phase than
        // there are ordered peer pairs × 2 rounds plus the 2(P−1)
        // binomial-tree edges a reducing phase adds.  Batched can ship
        // *fewer* values than the per-op engines (one tree packet
        // carries every reduce op in the phase) but never more
        // messages.
        assert_eq!(rr.stats.nphases(), ba.stats.nphases());
        let tree_edges = 2 * (4 - 1);
        for (ph, rh) in ba.stats.phases.iter().zip(&rr.stats.phases) {
            assert!(
                ph.messages <= 2 * 4 * 3 + tree_edges,
                "one packet per pair per round plus tree edges"
            );
            assert!(
                ph.messages <= rh.messages,
                "batched must never exceed the per-op engine on messages"
            );
            assert!(ph.rounds <= crate::comm::reduce_tree_rounds(4).max(2));
        }
        // Op counters are engine-independent.
        assert_eq!(rr.stats.updates, ba.stats.updates);
        assert_eq!(rr.stats.assembles, ba.stats.assembles);
        assert_eq!(rr.stats.reduces, ba.stats.reduces);
    }

    #[test]
    fn batched_single_processor_is_exact() {
        let (rr, ba) = engines(Pattern::FIG1, 1);
        for (v, a) in &rr.output_arrays {
            assert_eq!(a, &ba.output_arrays[v]);
        }
        assert_eq!(ba.stats.total_messages(), 0);
    }

    #[test]
    fn plan_reuse_across_runs_is_stable() {
        let p = programs::testiv();
        let mesh = gen2d::perturbed_grid(8, 8, 0.1, 5);
        let b = testiv_bindings(&p, &mesh, 1e-9);
        let (dfg, analysis) = analyze_program(
            &p,
            &fig6(),
            &SearchOptions::default(),
            &CostParams::default(),
        );
        let spmd_prog = syncplace_codegen::spmd_program(&p, &dfg, &analysis.solutions[0]);
        let part = partition2d(&mesh, 4, Method::Greedy);
        let d = decompose2d(&mesh, &part.part, 4, Pattern::FIG1);
        let plan = Arc::new(CommPlan::build(&p, &spmd_prog, &d));
        let r1 = run_spmd_batched_with_plan(&p, &spmd_prog, &d, &b, &plan).unwrap();
        let r2 = run_spmd_batched_with_plan(&p, &spmd_prog, &d, &b, &plan).unwrap();
        for (v, a) in &r1.output_arrays {
            assert_eq!(a, &r2.output_arrays[v]);
        }
        assert_eq!(r1.iterations, r2.iterations);
    }
}
