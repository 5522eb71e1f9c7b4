//! Iterative, trail-based enumeration of all mappings — the
//! production version of the propagation (§4: "For efficiency,
//! recursive functions have been implemented iteratively"; here the
//! explicit obligation stack plays that role and also enables full
//! solution enumeration: "In general, for a given program and a given
//! overlapping pattern, there may be more than one solution mapping").

use crate::arrowclass::{classify_arrow, propagation_arrows, shape_of};
use crate::solution::Mapping;
use syncplace_automata::{OverlapAutomaton, State, Transition};
use syncplace_dfg::{DefClass, Dfg, NodeKind};

/// Search options.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Return at most this many complete mappings; a search that
    /// found more reports [`SearchStats::capped`].
    pub max_solutions: usize,
    /// Abort (truncated = true) after this many propagation steps.
    pub max_visits: u64,
    /// When set: arrows in the set must cross a communication
    /// transition, arrows outside it must not. Used by the
    /// simulation-mode checker (§5.2) to validate a *given* placement.
    pub forced_comm: Option<std::collections::HashSet<usize>>,
    /// §5.2 optimization: skip re-deriving choices on arrows whose
    /// transition is uniquely determined by the source state
    /// (state-preserving chains are crossed without branching
    /// bookkeeping). Does not change the solution set.
    pub collapse_deterministic: bool,
    /// Worker threads for the enumeration. `1` (the default) runs the
    /// sequential reference search; `> 1` work-steals over the
    /// backtracking frontier: a busy worker donates the untaken
    /// candidates of a branch point whenever another worker runs dry.
    /// The merged solution list preserves the sequential order exactly.
    pub workers: usize,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            max_solutions: 4096,
            max_visits: 20_000_000,
            forced_comm: None,
            collapse_deterministic: false,
            workers: 1,
        }
    }
}

/// Search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Propagation steps (arrow crossings attempted).
    pub visits: u64,
    /// Dead ends (an arrow with no viable transition).
    pub backtracks: u64,
    /// Number of complete mappings emitted.
    pub solutions: usize,
    /// True when the visit budget stopped the search early.
    pub truncated: bool,
    /// True when more than `max_solutions` mappings exist: the list
    /// holds the first `max_solutions` of them in enumeration order,
    /// and any ranking over it did not see every candidate.
    pub capped: bool,
    /// Largest share of [`SearchStats::visits`] done by any one worker
    /// (equals `visits` in the sequential search). The load-balance
    /// figure `visits / max_worker_visits` is the modeled parallel
    /// speedup under perfect multithreading — what the runtime
    /// benchmark reports for hosts with fewer cores than workers.
    pub max_worker_visits: u64,
}

/// Enumerate all mappings `⟨M_n • M_a⟩` satisfying §3.4's conditions.
///
/// With `opts.workers > 1` the top-level nondeterministic branches of
/// the obligation trail are split across threads
/// ([`enumerate_parallel`]); the solution list is identical, in the
/// same order, as the sequential search.
pub fn enumerate(
    dfg: &Dfg,
    automaton: &OverlapAutomaton,
    opts: &SearchOptions,
) -> (Vec<Mapping>, SearchStats) {
    if opts.workers > 1 {
        return enumerate_parallel(dfg, automaton, opts);
    }
    let pre = Precomp::build(dfg, automaton);
    let mut s = seeded_search(dfg, automaton, opts, pre);
    // One mapping past the cap tells a capped search from one that
    // ended exactly at it.
    s.limit = opts.max_solutions.saturating_add(1);
    s.go();
    let mut solutions = s.solutions;
    let capped = solutions.len() > opts.max_solutions;
    solutions.truncate(opts.max_solutions);
    let stats = SearchStats {
        solutions: solutions.len(),
        capped,
        max_worker_visits: s.stats.visits,
        ..s.stats
    };
    (solutions, stats)
}

/// Work-steal the enumeration across `opts.workers` threads.
///
/// The whole tree starts as one task. Whenever a worker reaches a
/// *genuine* branch point (≥ 2 viable candidates) while some other
/// worker is hungry (blocked on an empty queue), it donates the
/// untaken candidates as resumable tasks — a snapshot of the
/// trail plus the candidate index to take on resume — and continues
/// with the first candidate itself. Donation happens at whatever depth
/// the running worker currently is, so the frontier splits adaptively:
/// big subtrees shed work, exhausted workers restock, and no prefix
/// depth has to be guessed up front.
///
/// Determinism: every solution is tagged with its *branch path* — the
/// candidate index taken at each genuine branch point from the root
/// (forced steps contribute nothing). Distinct solutions always
/// diverge at some branch point, so the paths are prefix-free and
/// their lexicographic order is exactly the sequential DFS emission
/// order. The merge sorts by path; the solution list and its order are
/// identical to [`enumerate`] with `workers == 1`.
///
/// Limits: `max_visits` bounds each task's subtree walk (the merged
/// `truncated` flag is the OR), and `max_solutions` is applied to the
/// merged list, which truncates to the same prefix the sequential
/// search would have produced and sets `capped` exactly when it does.
pub fn enumerate_parallel(
    dfg: &Dfg,
    automaton: &OverlapAutomaton,
    opts: &SearchOptions,
) -> (Vec<Mapping>, SearchStats) {
    let workers = opts.workers.max(1);
    let pre = Precomp::build(dfg, automaton);
    // Workers must run unbounded below their snapshot; the solution
    // cap is applied after the ordered merge.
    let sub_opts = SearchOptions {
        max_solutions: usize::MAX,
        workers: 1,
        ..opts.clone()
    };

    let queue = TaskQueue::new();
    {
        // Seed: the root task is the whole tree with an empty path.
        let s = seeded_search(dfg, automaton, &sub_opts, pre.clone());
        queue.state.lock().unwrap().tasks.push(Task {
            snap: s.snapshot(),
            take_first: None,
            path: Vec::new(),
        });
    }

    let q = &queue;
    let pre_ref = &pre;
    let sub_ref = &sub_opts;
    let per_worker: Vec<(Vec<TaggedSolution>, SearchStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut tagged: Vec<TaggedSolution> = Vec::new();
                    let mut stats = SearchStats::default();
                    while let Some(task) = q.pop() {
                        let mut s = seeded_search(dfg, automaton, sub_ref, pre_ref.clone());
                        s.steal = Some(q);
                        task.snap.install(&mut s);
                        s.path = task.path;
                        s.take_first = task.take_first;
                        s.go();
                        stats.visits += s.stats.visits;
                        stats.backtracks += s.stats.backtracks;
                        stats.truncated |= s.stats.truncated;
                        tagged.append(&mut s.tagged);
                        q.task_done();
                    }
                    (tagged, stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("search workers do not panic"))
            .collect()
    });

    // Deterministic merge: sort by branch path = sequential DFS order.
    let mut stats = SearchStats::default();
    let mut all: Vec<TaggedSolution> = Vec::new();
    for (tagged, st) in per_worker {
        stats.visits += st.visits;
        stats.backtracks += st.backtracks;
        stats.truncated |= st.truncated;
        stats.max_worker_visits = stats.max_worker_visits.max(st.visits);
        all.extend(tagged);
    }
    all.sort_by(|a, b| a.0.cmp(&b.0));
    let mut solutions: Vec<Mapping> = all.into_iter().map(|(_, m)| m).collect();
    stats.capped = solutions.len() > opts.max_solutions;
    solutions.truncate(opts.max_solutions);
    stats.solutions = solutions.len();
    (solutions, stats)
}

/// A donated unit of work: resume the trail captured in `snap`, take
/// candidate `take_first` at the first branch point reached (the one
/// the donor split), and explore that subtree. Solutions found under
/// it are tagged with paths extending `path`.
struct Task {
    snap: Snapshot,
    take_first: Option<u32>,
    path: Vec<u32>,
}

/// The shared work-stealing state: a LIFO task queue plus the count of
/// hungry workers that busy workers poll (one relaxed atomic load per
/// branch point) to decide whether donating is worth the snapshot.
struct TaskQueue {
    state: std::sync::Mutex<QueueState>,
    cv: std::sync::Condvar,
    hungry: std::sync::atomic::AtomicUsize,
}

struct QueueState {
    tasks: Vec<Task>,
    /// Workers currently running a task (they may still donate).
    active: usize,
}

impl TaskQueue {
    fn new() -> TaskQueue {
        TaskQueue {
            state: std::sync::Mutex::new(QueueState {
                tasks: Vec::new(),
                active: 0,
            }),
            cv: std::sync::Condvar::new(),
            hungry: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    fn hungry(&self) -> usize {
        self.hungry.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn push(&self, batch: Vec<Task>) {
        let mut st = self.state.lock().unwrap();
        st.tasks.extend(batch);
        drop(st);
        self.cv.notify_all();
    }

    /// Pop a task, waiting while other workers are active (they may
    /// donate). `None` means the enumeration is drained: queue empty
    /// and nobody running.
    fn pop(&self) -> Option<Task> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(t) = st.tasks.pop() {
                st.active += 1;
                return Some(t);
            }
            if st.active == 0 {
                self.cv.notify_all();
                return None;
            }
            self.hungry
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            st = self.cv.wait(st).unwrap();
            self.hungry
                .fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    fn task_done(&self) {
        let mut st = self.state.lock().unwrap();
        st.active -= 1;
        if st.active == 0 && st.tasks.is_empty() {
            drop(st);
            self.cv.notify_all();
        }
    }
}

/// Search tables derived once per (DFG, automaton) pair and shared by
/// every worker.
#[derive(Clone)]
struct Precomp {
    required: Vec<Option<State>>,
    out_prop: Vec<Vec<usize>>,
    classes: Vec<Option<syncplace_automata::ArrowClass>>,
    shapes: Vec<syncplace_automata::Shape>,
    arrow_is_array: Vec<bool>,
    sca1_def_ok: Vec<bool>,
    has_in: Vec<bool>,
}

impl Precomp {
    fn build(dfg: &Dfg, automaton: &OverlapAutomaton) -> Precomp {
        let n = dfg.nodes.len();

        // Required states: outputs and exit tests must end coherent.
        let mut required: Vec<Option<State>> = vec![None; n];
        for (i, node) in dfg.nodes.iter().enumerate() {
            match node.kind {
                NodeKind::Output(_) => {
                    required[i] = Some(automaton.required_state(shape_of(dfg, i)));
                }
                NodeKind::Exit { .. } => {
                    required[i] = Some(automaton.required_state(shape_of(dfg, i)));
                }
                _ => {}
            }
        }

        // Outgoing propagation arrows per node, ascending arrow id.
        let mut out_prop: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in propagation_arrows(dfg) {
            out_prop[dfg.arrows[i].from].push(i);
        }

        // Precompute arrow classes.
        let classes: Vec<Option<syncplace_automata::ArrowClass>> = dfg
            .arrows
            .iter()
            .map(|a| {
                matches!(
                    a.kind,
                    syncplace_dfg::DepKind::True
                        | syncplace_dfg::DepKind::Value
                        | syncplace_dfg::DepKind::Control
                )
                .then(|| classify_arrow(dfg, a))
            })
            .collect();

        let shapes: Vec<syncplace_automata::Shape> = (0..n).map(|i| shape_of(dfg, i)).collect();

        let arrow_is_array: Vec<bool> = dfg
            .arrows
            .iter()
            .map(|a| arrow_concerns_array(dfg, a))
            .collect();

        let sca1_def_ok: Vec<bool> = (0..n).map(|i| sca1_def_allowed(dfg, i)).collect();

        let mut has_in = vec![false; n];
        for (a, class) in dfg.arrows.iter().zip(&classes) {
            if class.is_some() {
                has_in[a.to] = true;
            }
        }

        Precomp {
            required,
            out_prop,
            classes,
            shapes,
            arrow_is_array,
            sca1_def_ok,
            has_in,
        }
    }
}

/// A fresh search over `dfg`, seeded with the program inputs at their
/// given states.
fn seeded_search<'a>(
    dfg: &'a Dfg,
    automaton: &'a OverlapAutomaton,
    opts: &'a SearchOptions,
    pre: Precomp,
) -> Search<'a> {
    let n = dfg.nodes.len();
    let na = dfg.arrows.len();
    let mut s = Search {
        dfg,
        automaton,
        opts,
        required: pre.required,
        out_prop: pre.out_prop,
        classes: pre.classes,
        shapes: pre.shapes,
        arrow_is_array: pre.arrow_is_array,
        sca1_def_ok: pre.sca1_def_ok,
        has_in: pre.has_in,
        limit: opts.max_solutions,
        node_state: vec![None; n],
        arrow_trans: vec![None; na],
        obligations: Vec::new(),
        solutions: Vec::new(),
        stats: SearchStats::default(),
        steal: None,
        path: Vec::new(),
        take_first: None,
        tagged: Vec::new(),
    };
    let mut seeded = Vec::new();
    for (&_v, &node) in dfg.input_node.iter() {
        seeded.push(node);
    }
    seeded.sort_unstable();
    for node in seeded {
        let st = automaton.input_state(shape_of(dfg, node));
        s.node_state[node] = Some(st);
        s.obligations.extend(s.out_prop[node].iter().rev());
    }
    s
}

/// A resumable snapshot of the search state: everything `go` mutates,
/// captured mid-descent. Installing it into a fresh seeded search and
/// calling `go` explores exactly the subtree the sequential search
/// would explore below this point.
#[derive(Clone)]
struct Snapshot {
    node_state: Vec<Option<State>>,
    arrow_trans: Vec<Option<Transition>>,
    obligations: Vec<usize>,
}

impl Snapshot {
    fn install(&self, s: &mut Search<'_>) {
        s.node_state = self.node_state.clone();
        s.arrow_trans = self.arrow_trans.clone();
        s.obligations = self.obligations.clone();
    }
}

/// Does a dependence arrow concern a real (distributed) array — the
/// precondition for carrying an array update/assembly communication?
/// Localized scalars take their loop's entity *shape* but are accessed
/// as scalars: there is no array to exchange for them.
pub(crate) fn arrow_concerns_array(dfg: &Dfg, a: &syncplace_dfg::Arrow) -> bool {
    use syncplace_dfg::NodeKind;
    match &dfg.nodes[a.to].kind {
        NodeKind::Use {
            access: syncplace_ir::Access::Scalar(_),
            ..
        } => false,
        _ => a.var.is_some(),
    }
}

/// May this node hold the partial-reduction state `Sca1`? Only the
/// definitions of genuine reduction statements produce per-processor
/// partials; a plain scalar definition is always replicated (assigning
/// it `Sca1` would invite a meaningless "reduce" of a non-partial).
/// Uses of scalars may see `Sca1` freely (they read a reduction def).
pub(crate) fn sca1_def_allowed(dfg: &Dfg, node: usize) -> bool {
    match &dfg.nodes[node].kind {
        NodeKind::Def { stmt, .. } => dfg.classification.reductions.contains_key(stmt),
        _ => true,
    }
}

struct Search<'a> {
    dfg: &'a Dfg,
    automaton: &'a OverlapAutomaton,
    opts: &'a SearchOptions,
    required: Vec<Option<State>>,
    out_prop: Vec<Vec<usize>>,
    classes: Vec<Option<syncplace_automata::ArrowClass>>,
    shapes: Vec<syncplace_automata::Shape>,
    /// Does this arrow concern a real (distributed) array variable?
    arrow_is_array: Vec<bool>,
    /// May this node take the `Sca1` state (reduction defs only)?
    sca1_def_ok: Vec<bool>,
    /// Does this node have an incoming propagation arrow?
    has_in: Vec<bool>,
    /// Stop once this many mappings are found.
    limit: usize,
    node_state: Vec<Option<State>>,
    arrow_trans: Vec<Option<Transition>>,
    obligations: Vec<usize>,
    solutions: Vec<Mapping>,
    stats: SearchStats,
    /// Work-stealing context (`None` in the sequential search).
    steal: Option<&'a TaskQueue>,
    /// Branch path from the enumeration root: the candidate index
    /// taken at each genuine (≥ 2 viable) branch point. Maintained
    /// only under work-stealing; sorting solution tags by this path
    /// reproduces the sequential DFS order.
    path: Vec<u32>,
    /// When resuming a donated [`Task`]: take exactly this candidate
    /// at the first branch point (the donor's split site), consuming
    /// the marker. The path component was recorded at donation time.
    take_first: Option<u32>,
    /// Path-tagged solutions under work-stealing (`solutions` stays
    /// empty there; the caller merges tags across workers).
    tagged: Vec<TaggedSolution>,
}

/// A solution paired with its branch path; sorting by path reproduces
/// the sequential DFS emission order across workers.
type TaggedSolution = (Vec<u32>, Mapping);

impl<'a> Search<'a> {
    fn done(&self) -> bool {
        self.stats.truncated || self.solutions.len().max(self.tagged.len()) >= self.limit
    }

    /// Is transition `t` admissible on arrow `arrow`?
    /// Array update/assembly communications only make sense on
    /// dependences about real (distributed) arrays — a localized
    /// scalar has the loop entity's *shape* but no array to exchange.
    fn comm_ok(&self, arrow: usize, t: &Transition) -> bool {
        use syncplace_automata::CommKind;
        if matches!(
            t.comm,
            Some(CommKind::UpdateOverlap | CommKind::AssembleShared)
        ) && !self.arrow_is_array[arrow]
        {
            return false;
        }
        match &self.opts.forced_comm {
            None => true,
            Some(set) => set.contains(&arrow) == t.comm.is_some(),
        }
    }

    fn go(&mut self) {
        if self.done() {
            return;
        }
        if let Some(arrow_id) = self.obligations.pop() {
            self.stats.visits += 1;
            if self.stats.visits > self.opts.max_visits {
                self.stats.truncated = true;
                self.obligations.push(arrow_id);
                return;
            }
            let a = &self.dfg.arrows[arrow_id];
            let from_state = self.node_state[a.from].expect("source assigned");
            let class = self.classes[arrow_id].expect("propagation arrow");
            let to = a.to;
            // Admission (shape, Sca1-on-reductions-only, required
            // states, §5.2 simulation filter) is checked up front so
            // the candidate count — and with it the branch-path
            // component and any work-stealing donation — is known
            // before the first descent.
            let trans: Vec<Transition> = self
                .automaton
                .from_on(from_state, class)
                .copied()
                .filter(|t| self.comm_ok(arrow_id, t) && self.candidate_viable(to, t))
                .collect();
            if trans.is_empty() {
                self.stats.backtracks += 1;
                self.obligations.push(arrow_id);
                return;
            }
            let (only, push_path) = self.branch_setup(trans.len(), Some(arrow_id));
            for (k, t) in trans.into_iter().enumerate() {
                if only.is_some_and(|o| o != k) {
                    continue;
                }
                if self.done() {
                    break;
                }
                if push_path {
                    self.path.push(k as u32);
                }
                match self.node_state[to] {
                    // §5.2 collapse: a uniquely-determined, state-
                    // preserving crossing onto an already-consistent
                    // node needs no branching bookkeeping.
                    Some(_) => {
                        self.arrow_trans[arrow_id] = Some(t);
                        self.go();
                        self.arrow_trans[arrow_id] = None;
                    }
                    None => {
                        let mut assigned: Vec<(usize, usize)> = Vec::new(); // (node, arrow)
                        self.node_state[to] = Some(t.to);
                        self.arrow_trans[arrow_id] = Some(t);
                        assigned.push((to, arrow_id));
                        // §5.2 chain collapse: follow forced single-
                        // transition chains eagerly ("merging sequences
                        // of dependences that would not change the
                        // [search] state" — no obligations, no branch
                        // bookkeeping for them).
                        let mut tail = to;
                        if self.opts.collapse_deterministic {
                            while let Some((na, nn, nt)) = self.forced_step(tail) {
                                self.node_state[nn] = Some(nt.to);
                                self.arrow_trans[na] = Some(nt);
                                assigned.push((nn, na));
                                tail = nn;
                            }
                        }
                        let mark = self.obligations.len();
                        // Push the out arrows of every newly assigned
                        // node except those already consumed by the
                        // chain. Reverse so lower arrow ids pop first.
                        let consumed: Vec<usize> = assigned.iter().map(|&(_, a)| a).collect();
                        let mut outs: Vec<usize> = Vec::new();
                        for &(n, _) in &assigned {
                            for &a in &self.out_prop[n] {
                                if !consumed.contains(&a) {
                                    outs.push(a);
                                }
                            }
                        }
                        outs.sort_unstable();
                        outs.reverse();
                        self.obligations.extend(outs);
                        self.go();
                        self.obligations.truncate(mark);
                        for &(n, a) in assigned.iter().rev() {
                            self.node_state[n] = None;
                            self.arrow_trans[a] = None;
                        }
                        self.arrow_trans[arrow_id] = None;
                    }
                }
                if push_path {
                    self.path.pop();
                }
            }
            self.obligations.push(arrow_id);
        } else if let Some(node) = self.next_unassigned() {
            let states: Vec<State> = self
                .free_states(node)
                .into_iter()
                .filter(|st| self.required[node].is_none_or(|r| r == *st))
                .collect();
            let (only, push_path) = self.branch_setup(states.len(), None);
            for (k, st) in states.into_iter().enumerate() {
                if only.is_some_and(|o| o != k) {
                    continue;
                }
                if self.done() {
                    break;
                }
                if push_path {
                    self.path.push(k as u32);
                }
                self.node_state[node] = Some(st);
                let mark = self.obligations.len();
                let outs: Vec<usize> = self.out_prop[node].iter().rev().copied().collect();
                self.obligations.extend(outs);
                self.go();
                self.obligations.truncate(mark);
                self.node_state[node] = None;
                if push_path {
                    self.path.pop();
                }
            }
        } else {
            // Complete mapping.
            let mapping = Mapping {
                node_state: self.node_state.iter().map(|s| s.unwrap()).collect(),
                arrow_transition: self.arrow_trans.clone(),
            };
            if self.steal.is_some() {
                self.tagged.push((self.path.clone(), mapping));
            } else {
                self.solutions.push(mapping);
            }
        }
    }

    /// Decide how to iterate a branch point's `ncand` pre-validated
    /// candidates. Returns `(only, push_path)`: `only` restricts the
    /// loop to a single candidate index, `push_path` says whether each
    /// descent extends the branch path by its index.
    ///
    /// * Not a branch (< 2 candidates): take the one candidate, no
    ///   path component — forced steps must not shift sibling order.
    /// * Resuming a donated task: take exactly `take_first` (its path
    ///   component was recorded by the donor) and consume the marker.
    /// * Genuine branch with a hungry worker: donate candidates `1..`
    ///   as tasks resuming right here — `pending_arrow` is pushed back
    ///   around the snapshot so the resumed `go` re-pops it — and keep
    ///   candidate `0` locally.
    /// * Genuine branch otherwise: iterate all candidates, extending
    ///   the path per descent.
    fn branch_setup(&mut self, ncand: usize, pending_arrow: Option<usize>) -> (Option<usize>, bool) {
        if ncand < 2 {
            return (None, false);
        }
        if let Some(k) = self.take_first.take() {
            return (Some(k as usize), false);
        }
        if let Some(q) = self.steal.filter(|q| q.hungry() > 0) {
            if let Some(a) = pending_arrow {
                self.obligations.push(a);
            }
            let snap = self.snapshot();
            if pending_arrow.is_some() {
                self.obligations.pop();
            }
            let mut batch = Vec::with_capacity(ncand - 1);
            for k in 1..ncand {
                let mut path = self.path.clone();
                path.push(k as u32);
                batch.push(Task {
                    snap: snap.clone(),
                    take_first: Some(k as u32),
                    path,
                });
            }
            q.push(batch);
            return (Some(0), true);
        }
        (None, true)
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            node_state: self.node_state.clone(),
            arrow_trans: self.arrow_trans.clone(),
            obligations: self.obligations.clone(),
        }
    }

    /// Would `go` descend into `t` on an arrow into `to` right now?
    /// Mirrors the admission checks of the two arms of `go` without
    /// mutating anything.
    fn candidate_viable(&self, to: usize, t: &Transition) -> bool {
        match self.node_state[to] {
            Some(s) => s == t.to,
            None => {
                t.to.shape == self.shapes[to]
                    && (t.to != syncplace_automata::state::SCA1 || self.sca1_def_ok[to])
                    && self.required[to].is_none_or(|r| r == t.to)
            }
        }
    }

    /// One step of a forced chain from `node`: its unique outgoing
    /// arrow, when exactly one transition is viable and the target is
    /// fresh. Used by the §5.2 collapse.
    fn forced_step(&self, node: usize) -> Option<(usize, usize, Transition)> {
        let outs = &self.out_prop[node];
        if outs.len() != 1 {
            return None;
        }
        let a = outs[0];
        let to = self.dfg.arrows[a].to;
        if self.node_state[to].is_some() {
            return None;
        }
        let from_state = self.node_state[node]?;
        let class = self.classes[a]?;
        let mut viable: Option<Transition> = None;
        for t in self.automaton.from_on(from_state, class) {
            if !self.comm_ok(a, t) || t.to.shape != self.shapes[to] {
                continue;
            }
            if t.to == syncplace_automata::state::SCA1 && !self.sca1_def_ok[to] {
                continue;
            }
            if let Some(r) = self.required[to] {
                if r != t.to {
                    continue;
                }
            }
            if viable.is_some() {
                return None; // branch point, not a forced chain
            }
            viable = Some(*t);
        }
        viable.map(|t| (a, to, t))
    }

    /// Pick the next node to assign freely: prefer true sources (no
    /// incoming propagation arrows), else break a cycle at the lowest
    /// unassigned node.
    fn next_unassigned(&self) -> Option<usize> {
        let mut fallback = None;
        for (i, &hin) in self.has_in.iter().enumerate() {
            if self.node_state[i].is_some() {
                continue;
            }
            if !hin {
                return Some(i);
            }
            if fallback.is_none() {
                fallback = Some(i);
            }
        }
        fallback
    }

    /// Candidate states for a freely-assigned node.
    fn free_states(&self, node: usize) -> Vec<State> {
        let shape = shape_of(self.dfg, node);
        match &self.dfg.nodes[node].kind {
            NodeKind::Def { class, .. } => self
                .automaton
                .free_def_states(shape, *class == DefClass::Scatter),
            // Cycle-break or uninitialized read: any state of the shape
            // (consistency with incoming arrows is still enforced when
            // those arrows are crossed).
            _ => self
                .automaton
                .states
                .iter()
                .copied()
                .filter(|s| s.shape == shape)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncplace_automata::predefined::{fig6, fig7};
    use syncplace_automata::CommKind;
    use syncplace_ir::programs;

    fn comm_count(_dfg: &Dfg, m: &Mapping, kind: CommKind) -> usize {
        m.arrow_transition
            .iter()
            .filter(|t| t.map(|t| t.comm == Some(kind)).unwrap_or(false))
            .count()
    }

    #[test]
    fn testiv_fig6_has_solutions() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let (sols, stats) = enumerate(&dfg, &fig6(), &SearchOptions::default());
        assert!(!sols.is_empty(), "stats: {stats:?}");
        assert!(!stats.truncated);
        // Every solution reduces sqrdiff exactly over the true deps
        // into its uses (the exit test), i.e. at least one reduce comm.
        for m in &sols {
            assert!(comm_count(&dfg, m, CommKind::ReduceScalar) >= 1);
            assert!(comm_count(&dfg, m, CommKind::UpdateOverlap) >= 1);
        }
    }

    #[test]
    fn testiv_fig7_has_solutions() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let (sols, stats) = enumerate(&dfg, &fig7(), &SearchOptions::default());
        assert!(!sols.is_empty(), "stats: {stats:?}");
        for m in &sols {
            assert!(comm_count(&dfg, m, CommKind::AssembleShared) >= 1);
        }
    }

    #[test]
    fn fig5_sketch_matches_paper_walkthrough() {
        // §3.3: a communication restoring NEW's coherence must sit
        // between its scatter def and the last gather; the sqrdiff
        // reduction needs a total-sum communication.
        let p = programs::fig5_sketch();
        let dfg = syncplace_dfg::build(&p);
        let (sols, _) = enumerate(&dfg, &fig6(), &SearchOptions::default());
        assert!(!sols.is_empty());
        for m in &sols {
            assert!(comm_count(&dfg, m, CommKind::UpdateOverlap) >= 1);
            assert!(comm_count(&dfg, m, CommKind::ReduceScalar) >= 1);
        }
    }

    #[test]
    fn solutions_are_distinct() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let (sols, _) = enumerate(&dfg, &fig6(), &SearchOptions::default());
        for i in 0..sols.len() {
            for j in i + 1..sols.len() {
                assert_ne!(sols[i], sols[j], "duplicate mappings {i} and {j}");
            }
        }
    }

    #[test]
    fn every_mapping_satisfies_the_three_conditions() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let a = fig6();
        let (sols, _) = enumerate(&dfg, &a, &SearchOptions::default());
        for m in &sols {
            crate::checker::verify_mapping(&dfg, &a, m).unwrap();
        }
    }

    #[test]
    fn edge_program_needs_full_automaton() {
        use syncplace_automata::predefined::element_overlap_2d_full;
        let p = programs::edge_smooth();
        let dfg = syncplace_dfg::build(&p);
        // The 5-state fig6 cannot type edge-based data...
        let (sols5, _) = enumerate(&dfg, &fig6(), &SearchOptions::default());
        assert!(sols5.is_empty());
        // ...the full 2-D element-overlap automaton can.
        let (sols, _) = enumerate(&dfg, &element_overlap_2d_full(), &SearchOptions::default());
        assert!(!sols.is_empty());
    }

    #[test]
    fn chain_collapse_preserves_solutions_and_saves_visits() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let a = fig6();
        let (plain, s1) = enumerate(&dfg, &a, &SearchOptions::default());
        let opts = SearchOptions {
            collapse_deterministic: true,
            ..Default::default()
        };
        let (collapsed, s2) = enumerate(&dfg, &a, &opts);
        // Same solution set (order may differ; compare as sets).
        assert_eq!(plain.len(), collapsed.len());
        for m in &collapsed {
            assert!(plain.contains(m), "collapse invented a solution");
        }
        // And strictly fewer propagation steps.
        assert!(s2.visits < s1.visits, "{} !< {}", s2.visits, s1.visits);
    }

    #[test]
    fn parallel_enumeration_matches_sequential_order() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        for automaton in [fig6(), fig7()] {
            let (seq, s1) = enumerate(&dfg, &automaton, &SearchOptions::default());
            for workers in [2, 4, 8] {
                let opts = SearchOptions {
                    workers,
                    ..Default::default()
                };
                let (par, s2) = enumerate(&dfg, &automaton, &opts);
                assert_eq!(seq, par, "solution list+order differs at {workers} workers");
                assert_eq!(s1.solutions, s2.solutions);
                assert!(!s2.truncated);
            }
        }
    }

    #[test]
    fn parallel_enumeration_matches_under_chain_collapse() {
        let p = programs::fig5_sketch();
        let dfg = syncplace_dfg::build(&p);
        let a = fig6();
        let opts_seq = SearchOptions {
            collapse_deterministic: true,
            ..Default::default()
        };
        let (seq, _) = enumerate(&dfg, &a, &opts_seq);
        let opts_par = SearchOptions {
            collapse_deterministic: true,
            workers: 4,
            ..Default::default()
        };
        let (par, _) = enumerate(&dfg, &a, &opts_par);
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_solution_cap_is_the_sequential_prefix() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let a = fig6();
        let (full, _) = enumerate(&dfg, &a, &SearchOptions::default());
        let opts = SearchOptions {
            max_solutions: 3,
            workers: 4,
            ..Default::default()
        };
        let (capped, stats) = enumerate(&dfg, &a, &opts);
        assert_eq!(capped.len(), 3.min(full.len()));
        assert_eq!(capped[..], full[..capped.len()]);
        assert_eq!(stats.solutions, capped.len());
        assert_eq!(stats.capped, full.len() > 3);
    }

    #[test]
    fn work_stealing_actually_balances() {
        // testiv×fig6 costs ~30k visits, so hungry peers have ample
        // time to trigger a donation at some branch point — at least
        // one slice of the tree must land on another worker, making
        // the busiest worker's share strictly less than the total.
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let a = fig6();
        let opts = SearchOptions {
            workers: 4,
            max_solutions: usize::MAX,
            ..Default::default()
        };
        let mut balanced = false;
        for _ in 0..5 {
            let (_, st) = enumerate(&dfg, &a, &opts);
            assert!(st.max_worker_visits > 0);
            assert!(st.max_worker_visits <= st.visits);
            if st.max_worker_visits < st.visits {
                balanced = true;
                break;
            }
        }
        assert!(balanced, "no donation happened in 5 runs");
    }

    #[test]
    fn visit_limit_truncates() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let opts = SearchOptions {
            max_visits: 10,
            ..Default::default()
        };
        let (_, stats) = enumerate(&dfg, &fig6(), &opts);
        assert!(stats.truncated);
    }

    #[test]
    fn solution_cap_respected() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let opts = SearchOptions {
            max_solutions: 2,
            ..Default::default()
        };
        let (sols, _) = enumerate(&dfg, &fig6(), &opts);
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn solution_cap_is_reported_at_any_worker_count() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let (full, st) = enumerate(&dfg, &fig6(), &SearchOptions::default());
        assert!(!st.capped && full.len() > 2);
        for workers in [1, 4] {
            let opts = SearchOptions {
                max_solutions: 2,
                workers,
                ..Default::default()
            };
            let (sols, stats) = enumerate(&dfg, &fig6(), &opts);
            assert_eq!(sols[..], full[..2], "{workers} workers");
            assert_eq!(stats.solutions, 2);
            assert!(stats.capped, "{workers} workers: cap not reported");
            assert!(!stats.truncated);
        }
    }

    #[test]
    fn a_cap_equal_to_the_count_is_not_capped() {
        let p = programs::testiv();
        let dfg = syncplace_dfg::build(&p);
        let (full, _) = enumerate(&dfg, &fig6(), &SearchOptions::default());
        for workers in [1, 4] {
            let opts = SearchOptions {
                max_solutions: full.len(),
                workers,
                ..Default::default()
            };
            let (sols, stats) = enumerate(&dfg, &fig6(), &opts);
            assert_eq!(sols, full);
            assert!(!stats.capped, "{workers} workers");
        }
    }
}
