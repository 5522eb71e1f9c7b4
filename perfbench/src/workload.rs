//! The three workloads: what requests each sends, how many clients
//! send them, and which cache counters each must move.

use syncplace::obs::trace::json_escape;
use syncplace_bench::setup::wide_program_src_scaled;
use syncplace_server::ServiceConfig;

/// A closed-loop traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct `wide(5)` programs from two clients: every request
    /// misses both caches.
    ColdPlace,
    /// The builtin TESTIV repeated by one client: both caches hit.
    HotRun,
    /// `wide(1)` on fresh 128×128 meshes: placement hits, plan misses.
    PlanMiss,
}

/// Upper bound on timed requests per run; keeps the `cold-place`
/// scales (four decimals in the program text) distinct.
pub const MAX_REQUESTS: usize = 999;

/// The daemon's cache counters, read through `stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounts {
    pub place_hits: u64,
    pub place_misses: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
}

impl CacheCounts {
    /// What the counters gained since `earlier`.
    pub fn since(self, earlier: CacheCounts) -> CacheCounts {
        CacheCounts {
            place_hits: self.place_hits - earlier.place_hits,
            place_misses: self.place_misses - earlier.place_misses,
            plan_hits: self.plan_hits - earlier.plan_hits,
            plan_misses: self.plan_misses - earlier.plan_misses,
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ColdPlace, Workload::HotRun, Workload::PlanMiss];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPlace => "cold-place",
            Workload::HotRun => "hot-run",
            Workload::PlanMiss => "plan-miss",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Concurrent closed-loop clients. On `cold-place` two keep both
    /// cores of the 2-CPU reference host busy; one client's CPU-bound
    /// placements ran on whichever core was free, whose speed drifted
    /// with the load on its sibling, and the spread reached 0.26
    /// between runs. On `hot-run` the engine's gangs are serialized, so
    /// a second client only queues behind the first: its p90 became
    /// the other request's whole run and spread up to 1.1 between runs.
    pub fn clients(self) -> usize {
        match self {
            Workload::ColdPlace => 2,
            Workload::HotRun | Workload::PlanMiss => 1,
        }
    }

    /// The untimed warm-up requests sent after each daemon spawn. None
    /// equals a timed request of `cold-place` or `plan-miss`.
    /// `plan-miss` fills the plan cache, so that every timed request
    /// inserts one plan and evicts one, as in a daemon that has run for
    /// a while: while the cache filled, its first 64 timed requests
    /// ran up to 35% slower than the rest, by a share that changed from
    /// run to run.
    pub fn warmup(self, seed: u64) -> Vec<String> {
        match self {
            Workload::ColdPlace => vec![cold(seed, 0)],
            Workload::HotRun => vec![self.request(seed, 0)],
            Workload::PlanMiss => (0..ServiceConfig::default().plan_cap)
                .map(|j| plan_miss(seed, MAX_REQUESTS + 1 + j))
                .collect(),
        }
    }

    /// The `i`-th timed request (`i < MAX_REQUESTS`).
    pub fn request(self, seed: u64, i: usize) -> String {
        match self {
            Workload::ColdPlace => cold(seed, i + 1),
            Workload::HotRun => format!(
                "{{\"op\":\"run\",\"program\":\"testiv\",\
                 \"mesh\":{{\"nx\":32,\"ny\":32,\"seed\":{}}},\"pattern\":\"fig1\",\"p\":8}}",
                mesh_seed(seed, 0)
            ),
            Workload::PlanMiss => plan_miss(seed, i + 1),
        }
    }

    /// A spare set-up is timed after every this many slices. A
    /// `plan-miss` set-up builds a full plan cache, about 3 s, so it
    /// takes a third as many.
    pub fn setup_every(self) -> usize {
        match self {
            Workload::ColdPlace | Workload::HotRun => 1,
            Workload::PlanMiss => 3,
        }
    }

    /// Do all timed requests repeat one request line?
    pub fn repeats(self) -> bool {
        self == Workload::HotRun
    }

    /// Check that the timed loop exercised the workload's layer.
    pub fn check_shape(self, timed: u64, d: CacheCounts) -> Result<(), String> {
        let ok = match self {
            Workload::ColdPlace => d.place_misses == timed && d.plan_misses == timed,
            Workload::HotRun => d.place_hits == timed && d.plan_hits == timed,
            Workload::PlanMiss => d.place_hits == timed && d.plan_misses == timed,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{}: {timed} timed requests but cache deltas {d:?}",
                self.name()
            ))
        }
    }
}

fn mesh_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64) % 1_000_000_007
}

/// `wide(5)` with a scale unique to `(seed, i)` for `i ≤ MAX_REQUESTS`.
fn cold(seed: u64, i: usize) -> String {
    let scale = 1.0 + ((seed % 9) as usize * 1000 + i) as f64 / 10_000.0;
    format!(
        "{{\"op\":\"run\",\"source\":{},\"mesh\":{{\"nx\":24,\"ny\":24,\"seed\":{}}},\
         \"pattern\":\"fig1\",\"p\":8}}",
        json_escape(&wide_program_src_scaled(5, scale)),
        mesh_seed(seed, 0)
    )
}

fn plan_miss(seed: u64, i: usize) -> String {
    format!(
        "{{\"op\":\"run\",\"source\":{},\"mesh\":{{\"nx\":128,\"ny\":128,\"seed\":{}}},\
         \"pattern\":\"fig1\",\"p\":8}}",
        json_escape(&wide_program_src_scaled(
            1,
            1.0 + (seed % 97) as f64 / 100.0
        )),
        mesh_seed(seed, i)
    )
}
