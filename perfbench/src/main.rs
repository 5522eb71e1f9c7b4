//! Wall-clock serving benchmark for `syncplace-serve`.
//!
//! Drives an in-process `syncplace_server::Daemon` over its Unix
//! socket with closed-loop `Client`s (each caller waits for its
//! reply), checks every reply against an in-process oracle, and prints
//! the end-to-end metrics (`--trace 0`) or the per-layer attribution
//! (`--trace 1`). The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-place --seed 1 --seconds 20 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads and the metric table.

mod pipeline;
mod sys;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use syncplace::obs::json::Value;
use syncplace_server::protocol::{parse_request, Request, RunRequest};
use syncplace_server::{Client, Daemon, DaemonHandle, Lookup, Service, ServiceConfig};

use pipeline::{Checked, Layers, Pipeline, SERVICE_LAYERS, TOLERANCE};
use workload::{CacheCounts, Workload, MAX_REQUESTS};

/// Longest stretch of the timed loop between two oracle passes.
const SLICE_S: f64 = 2.0;

/// The flag that makes the benchmark time one set-up and exit.
const SETUP_ONLY: &str = "--setup-only";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Time one set-up, print its seconds and exit (the spare set-ups
    /// run this way, see [`spare_setup`]).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let setup_only = argv.iter().any(|a| a == SETUP_ONLY);
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!(
        "unknown workload '{name}' (cold-place|hot-run|plan-miss)"
    ))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    if setup_only {
        return Ok(Args {
            workload,
            seed,
            seconds: 0.0,
            trace: false,
            setup_only,
        });
    }
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

/// One timed wire request.
struct Sample {
    idx: usize,
    latency_ms: f64,
    /// The reply's checksum, or why there was no `result`.
    reply: Result<u64, String>,
}

fn result_checksum(events: &[Value]) -> Result<u64, String> {
    let last = events.last().ok_or("empty response")?;
    match last.get("event").and_then(Value::as_str) {
        Some("result") => {}
        other => {
            return Err(format!(
                "terminal event {other:?}: {}",
                syncplace::obs::json::write(last)
            ))
        }
    }
    let hex = last
        .get("checksum")
        .and_then(Value::as_str)
        .ok_or("result without checksum")?;
    u64::from_str_radix(hex, 16).map_err(|e| format!("bad checksum {hex}: {e}"))
}

fn run_request(line: &str) -> RunRequest {
    match parse_request(line) {
        Ok(Request::Run(r)) => *r,
        other => panic!("generated request does not parse as run: {other:?}"),
    }
}

/// Every distinct request run once in process, untimed: its engine
/// outputs must match `run_sequential` within [`TOLERANCE`], and its
/// checksum is what every wire reply to it must carry.
///
/// The requests are shared out over one pipeline per core; the oracle
/// runs between slices, untimed, so this only shortens the run.
struct Oracle {
    w: Workload,
    seed: u64,
    lanes: Vec<Pipeline>,
    checksums: BTreeMap<usize, u64>,
}

impl Oracle {
    fn new(w: Workload, seed: u64) -> Oracle {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Oracle {
            w,
            seed,
            lanes: (0..cores).map(|_| Pipeline::new(false)).collect(),
            checksums: BTreeMap::new(),
        }
    }

    fn key(&self, idx: usize) -> usize {
        if self.w.repeats() {
            0
        } else {
            idx
        }
    }

    /// Run every request of `slice` whose key has no checksum yet.
    fn check(&mut self, slice: &[Sample], problems: &mut Vec<String>) {
        let mut todo: BTreeMap<usize, usize> = BTreeMap::new();
        for s in slice {
            let key = self.key(s.idx);
            if !self.checksums.contains_key(&key) {
                todo.entry(key).or_insert(s.idx);
            }
        }
        let todo: Vec<(usize, usize)> = todo.into_iter().collect();
        let (w, seed, n) = (self.w, self.seed, self.lanes.len());
        let mut done: Vec<(usize, usize, Result<Checked, String>)> = std::thread::scope(|s| {
            let lanes: Vec<_> = self
                .lanes
                .iter_mut()
                .enumerate()
                .map(|(lane, pipe)| {
                    let mine: Vec<(usize, usize)> =
                        todo.iter().copied().skip(lane).step_by(n).collect();
                    s.spawn(move || {
                        mine.into_iter()
                            .map(|(key, idx)| {
                                let req = run_request(&w.request(seed, idx));
                                (key, idx, pipe.run(&req, true, true, &mut Layers::default()))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            lanes
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread"))
                .collect()
        });
        done.sort_by_key(|d| d.1);
        for (key, idx, checked) in done {
            match checked {
                Ok(c) if c.max_rel_err <= TOLERANCE => {
                    self.checksums.insert(key, c.checksum);
                }
                Ok(c) => problems.push(format!(
                    "request {idx}: engine vs sequential error {:e} > {TOLERANCE:e}",
                    c.max_rel_err
                )),
                Err(e) => problems.push(format!("request {idx}: oracle failed: {e}")),
            }
        }
    }

    fn expected(&self, idx: usize) -> Option<u64> {
        self.checksums.get(&self.key(idx)).copied()
    }
}

/// Daemon counters read through the public `stats` verb.
struct Stats {
    caches: CacheCounts,
    queue_mean_ms: f64,
    /// Count and total milliseconds of the daemon's `server.request`
    /// spans: the time each request spent inside `Service::run`.
    requests: (f64, f64),
}

fn read_stats(path: &Path) -> Result<Stats, String> {
    let mut c = Client::connect(path).map_err(|e| format!("stats connect: {e}"))?;
    let ev = c
        .request("{\"op\":\"stats\"}")
        .map_err(|e| format!("stats: {e}"))?;
    let metrics = ev
        .last()
        .and_then(|v| v.get("metrics"))
        .ok_or("stats event without metrics")?;
    let counter = |k: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64
    };
    let hist = |name: &str, field: &str| {
        metrics
            .get("hists")
            .and_then(Value::as_arr)
            .and_then(|hs| {
                hs.iter()
                    .find(|h| h.get("name").and_then(Value::as_str) == Some(name))
            })
            .and_then(|h| h.get(field))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let queue_mean_ms = hist("server.queue", "mean_ms");
    let count = hist("server.request", "count");
    Ok(Stats {
        caches: CacheCounts {
            place_hits: counter("server.place_hits"),
            place_misses: counter("server.place_misses"),
            plan_hits: counter("server.plan_hits"),
            plan_misses: counter("server.plan_misses"),
        },
        queue_mean_ms,
        requests: (count, count * hist("server.request", "mean_ms")),
    })
}

/// Spawn a daemon, connect the workload's clients and send the
/// warm-up requests.
fn setup(w: Workload, seed: u64, sock: &Path) -> Result<(DaemonHandle, Vec<Client>), String> {
    let handle =
        Daemon::spawn(sock, ServiceConfig::default()).map_err(|e| format!("spawn: {e}"))?;
    let mut clients = (0..w.clients())
        .map(|_| Client::connect(sock))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    for line in w.warmup(seed) {
        let reply = clients[0]
            .request(&line)
            .map_err(|e| format!("warm-up: {e}"))?;
        result_checksum(&reply).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok((handle, clients))
}

/// Time one set-up in this process, then stop its daemon.
fn setup_only(w: Workload, seed: u64) -> Result<f64, String> {
    let sock = PathBuf::from(format!(".perfbench-{}.sock", std::process::id()));
    let t = Instant::now();
    let (handle, clients) = setup(w, seed, &sock)?;
    let seconds = t.elapsed().as_secs_f64();
    drop(clients);
    handle.stop().map_err(|e| format!("stop: {e}"))?;
    Ok(seconds)
}

/// Time one more set-up in a fresh process: the benchmark runs itself
/// with [`SETUP_ONLY`] and waits for it to exit. Each set-up thus
/// starts from the same cold process, as the first one does, and the
/// spare daemon's caches stay out of this process's `peak_rss_mb`.
fn spare_setup(w: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            SETUP_ONLY,
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spare set-up: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("spare set-up exited with {}", out.status));
    }
    stdout
        .trim()
        .parse()
        .map_err(|e| format!("spare set-up printed '{}': {e}", stdout.trim()))
}

/// Closed loop: each client sends its next request when the previous
/// reply is complete, until the deadline. `next` numbers the requests
/// across slices.
fn timed_loop(
    w: Workload,
    seed: u64,
    seconds: f64,
    clients: &mut [Client],
    next: &AtomicUsize,
) -> Vec<Sample> {
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while start.elapsed() < deadline {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= MAX_REQUESTS {
                            break;
                        }
                        let line = w.request(seed, idx);
                        let t = Instant::now();
                        let reply = client.request(&line);
                        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                        let dropped = reply.is_err();
                        let reply = reply
                            .map_err(|e| format!("connection: {e}"))
                            .and_then(|ev| result_checksum(&ev));
                        mine.push(Sample {
                            idx,
                            latency_ms,
                            reply,
                        });
                        if dropped {
                            break;
                        }
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    samples.sort_by_key(|s| s.idx);
    samples
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The metrics of one run, in declaration order, with their units.
type Metrics = Vec<(&'static str, f64, &'static str)>;

struct Report {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: Metrics,
}

fn run(a: &Args) -> Result<Report, String> {
    let w = a.workload;
    let sock = PathBuf::from(format!(".perfbench-{}.sock", std::process::id()));
    let mut problems = Vec::new();

    let t = Instant::now();
    let (handle, mut clients) = setup(w, a.seed, &sock)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    // The timed loop runs in slices. Between two slices the oracle
    // checks the slice's requests and, after every
    // `setup_every()`-th slice, one more set-up is timed in a fresh
    // process, so the timed requests and set-ups sample more wall time
    // for the same budget: this host's own speed drifts over tens of
    // seconds.
    let slices = (a.seconds / SLICE_S).ceil() as usize;
    let slice_s = a.seconds / slices as f64;
    let next = AtomicUsize::new(0);
    let mut oracle = Oracle::new(w, a.seed);
    let mut samples = Vec::new();
    let (mut wall_s, mut cpu_s, mut peak_rss_mb) = (0.0, 0.0, 0.0);
    let before = read_stats(&sock)?;
    for i in 0..slices {
        let u0 = sys::usage();
        let t0 = Instant::now();
        let slice = timed_loop(w, a.seed, slice_s, &mut clients, &next);
        wall_s += t0.elapsed().as_secs_f64();
        let u1 = sys::usage();
        cpu_s += u1.cpu_s - u0.cpu_s;
        peak_rss_mb = u1.peak_rss_mb;
        oracle.check(&slice, &mut problems);
        samples.extend(slice);
        if (i + 1) % w.setup_every() == 0 {
            setup_s.push(spare_setup(w, a.seed)?);
        }
    }
    let after = read_stats(&sock)?;
    drop(clients);
    handle.stop().map_err(|e| format!("stop: {e}"))?;

    let timed = samples.len() as u64;
    let delta = after.caches.since(before.caches);
    if let Err(e) = w.check_shape(timed, delta) {
        problems.push(format!("workload shape: {e}"));
    }
    let mut failed = 0;
    for s in &samples {
        let bad = match (&s.reply, oracle.expected(s.idx)) {
            (Ok(got), Some(want)) if *got == want => None,
            (Ok(got), want) => Some(format!("checksum {got:016x}, oracle {want:016x?}")),
            (Err(e), _) => Some(e.clone()),
        };
        if let Some(why) = bad {
            failed += 1;
            if failed <= 5 {
                problems.push(format!("request {} failed: {why}", s.idx));
            }
        }
    }
    let completed = samples.len() - failed;

    let mut lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    lat.sort_by(f64::total_cmp);
    if lat.is_empty() {
        return Err("no request completed within the run".into());
    }
    let p50 = percentile(&lat, 0.5);
    let p90 = percentile(&lat, 0.9);
    println!(
        "# {}: {} requests from {} client(s) in {wall_s:.3} s; latency samples {}, \
         {} beyond p90; error_rate {}",
        w.name(),
        samples.len(),
        w.clients(),
        lat.len(),
        lat.iter().filter(|&&x| x > p90).count(),
        failed as f64 / samples.len() as f64
    );

    let metrics = if a.trace {
        // The socket and protocol cost of a timed request: its mean wire
        // latency minus the mean time the daemon spent in `Service::run`
        // on the same requests.
        let spans = after.requests.0 - before.requests.0;
        let in_service = (after.requests.1 - before.requests.1) / spans.max(1.0);
        let wire = lat.iter().sum::<f64>() / lat.len() as f64;
        traced(
            w,
            a,
            &samples,
            wire - in_service,
            &after,
            delta,
            &mut problems,
        )?
    } else {
        let per_req = completed.max(1) as f64;
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("latency_p50_ms", p50, "ms"),
            ("latency_p90_ms", p90, "ms"),
            ("req_per_s", completed as f64 / wall_s, "1/s"),
            ("cpu_ms_per_req", cpu_s * 1e3 / per_req, "ms"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    };
    Ok(Report {
        attempted: samples.len(),
        failed,
        problems,
        metrics,
    })
}

/// The traced run: replay the timed requests in process, one caller,
/// timing `Service::run` and then every layer call of the pipeline
/// with the service's cache outcome for that request.
fn traced(
    w: Workload,
    a: &Args,
    samples: &[Sample],
    protocol_ms: f64,
    stats: &Stats,
    delta: CacheCounts,
    problems: &mut Vec<String>,
) -> Result<Metrics, String> {
    let svc = Service::new(ServiceConfig::default());
    let mut pipe = Pipeline::new(true);
    let warm: Vec<RunRequest> = w.warmup(a.seed).iter().map(|l| run_request(l)).collect();
    for req in &warm {
        svc.run(req)
            .map_err(|e| format!("in-process warm-up: {e:?}"))?;
    }
    // The pipeline keeps one placement and one plan: the last warm-up
    // leaves it holding what the service holds for the timed requests.
    let last = warm.last().ok_or("workload without warm-up")?;
    pipe.run(last, false, false, &mut Layers::default())?;

    let mut layers = Layers::default();
    let mut service_ms = Vec::new();
    let budget = Duration::from_secs_f64(a.seconds);
    let t0 = Instant::now();
    for s in samples {
        if !service_ms.is_empty() && t0.elapsed() >= budget {
            break;
        }
        let req = run_request(&w.request(a.seed, s.idx));
        let t = Instant::now();
        let out = svc
            .run(&req)
            .map_err(|e| format!("in-process run: {e:?}"))?;
        service_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let c = pipe.run(
            &req,
            out.placement == Lookup::Hit,
            out.plan == Lookup::Hit,
            &mut layers,
        )?;
        if c.checksum != out.checksum {
            problems.push(format!(
                "request {}: pipeline checksum {:016x} != service {:016x}",
                s.idx, c.checksum, out.checksum
            ));
        }
    }
    let n = service_ms.len() as f64;
    let mean = |k: &str| layers.get(k) / n;
    let service_mean = service_ms.iter().sum::<f64>() / n;
    let share = |ks: &[&str]| ks.iter().map(|k| mean(k)).sum::<f64>() / service_mean;
    let placement_layers = [
        "placement.rank_ms",
        "placement.extract_ms",
        "placement.enumerate_ms",
        "placement.cost_ms",
        "placement.legality_ms",
    ];
    let (dominant, predicted) = match w {
        Workload::ColdPlace => (share(&placement_layers), 0.8),
        Workload::HotRun => (share(&["runtime.engine_ms"]), 0.8),
        Workload::PlanMiss => (
            share(&[
                "mesh.gen_ms",
                "partition.split_ms",
                "runtime.decompose_ms",
                "runtime.bindings_ms",
            ]),
            0.7,
        ),
    };
    println!(
        "# traced replay: {} of {} requests; predicted dominant share {dominant:.3} {} {predicted}",
        service_ms.len(),
        samples.len(),
        if dominant >= predicted {
            ">="
        } else {
            "< (prediction FAILS)"
        }
    );

    let c = pipe.counts;
    let timed = samples.len().max(1) as f64;
    let ms = |k: &'static str| (k, mean(k), "ms");
    let count = |k: &'static str, v: u64| (k, v as f64, "count");
    let ratio = |k: &'static str, v: f64| (k, v, "ratio");
    Ok(vec![
        ms("placement.rank_ms"),
        ms("placement.extract_ms"),
        ms("placement.enumerate_ms"),
        ms("placement.cost_ms"),
        ms("placement.legality_ms"),
        count("placement.visits", c.visits),
        count("placement.mappings", c.mappings as u64),
        count("placement.placements", c.placements as u64),
        ratio(
            "placement.useful_ratio",
            c.placements as f64 / c.mappings.max(1) as f64,
        ),
        ms("runtime.engine_ms"),
        ms("runtime.reference_ms"),
        ms("runtime.sequential_ms"),
        count("runtime.messages", c.messages as u64),
        count("runtime.values", c.values as u64),
        count("runtime.iterations", c.iterations as u64),
        ms("mesh.gen_ms"),
        count("mesh.triangles", c.triangles as u64),
        ms("partition.split_ms"),
        count("partition.edge_cut", c.edge_cut as u64),
        ms("runtime.decompose_ms"),
        ms("runtime.commplan_ms"),
        ms("runtime.bindings_ms"),
        ms("ir.parse_ms"),
        ms("dfg.build_ms"),
        ms("codegen.spmd_ms"),
        ("server.service_ms", service_mean, "ms"),
        ("server.protocol_ms", protocol_ms, "ms"),
        ("server.queue_ms", stats.queue_mean_ms, "ms"),
        ratio("server.place_hit_ratio", delta.place_hits as f64 / timed),
        ratio("server.plan_hit_ratio", delta.plan_hits as f64 / timed),
        ratio("trace.coverage", share(SERVICE_LAYERS)),
        ratio("trace.dominant_share", dominant),
    ])
}

fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <cold-place|hot-run|plan-miss> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        return match setup_only(args.workload, args.seed) {
            Ok(seconds) => {
                println!("{seconds}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!("# host {}", sys::host_json());
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &report.problems {
        println!("# FAILED CHECK: {p}");
    }
    for (name, value, unit) in &report.metrics {
        println!("# {name} = {value:.4} {unit}");
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
