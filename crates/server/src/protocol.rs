//! The wire protocol: newline-delimited JSON over a Unix-domain
//! socket.
//!
//! Every request is one JSON object on one line; every response is a
//! stream of one-line JSON *events*, terminated by a terminal event
//! (`result`, `error`, `pong`, `stats`, `dump` or `bye`). The full
//! schema with examples
//! lives in OPERATIONS.md; this module is its executable counterpart.
//!
//! Requests:
//!
//! ```json
//! {"op":"run","program":"testiv","mesh":{"nx":16,"ny":16,"perturb":0.2,"seed":42},
//!  "pattern":"fig1","p":4,"engine":"batched","diag":true}
//! {"op":"run","source":"program p ... end","p":8}
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"dump"}
//! {"op":"shutdown"}
//! ```
//!
//! Parsing uses the shared workspace reader
//! ([`syncplace::obs::json`]) — the same code that reads
//! `BENCH_runtime.json` — so the server accepts exactly the JSON
//! subset the rest of the suite emits.

use syncplace::obs::json::{self, Value};
use syncplace::obs::trace::json_escape;
use syncplace::overlap::Pattern;
use syncplace::Engine;

/// The mesh a `run` request executes on: an `nx × ny` perturbed grid
/// (the workspace's standard synthetic mesh family).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshSpec {
    /// Grid nodes along x.
    pub nx: usize,
    /// Grid nodes along y.
    pub ny: usize,
    /// Node-position perturbation amplitude (0 = regular grid).
    pub perturb: f64,
    /// Deterministic perturbation seed.
    pub seed: u64,
}

impl Default for MeshSpec {
    fn default() -> MeshSpec {
        MeshSpec {
            nx: 16,
            ny: 16,
            perturb: 0.2,
            seed: 42,
        }
    }
}

/// Which program a `run` request places and executes.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramSpec {
    /// One of the built-in example programs by name (`"testiv"`,
    /// `"fig5-sketch"`, `"edge-smooth"`).
    Builtin(String),
    /// Full DSL source text, parsed server-side.
    Source(String),
}

/// A fully parsed `run` request.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// The program to place and execute.
    pub program: ProgramSpec,
    /// The mesh to decompose.
    pub mesh: MeshSpec,
    /// The overlapping pattern (selects the overlap automaton too).
    pub pattern: Pattern,
    /// Processor count.
    pub p: usize,
    /// Which SPMD engine executes the placed program. Not part of any
    /// cache key — engines are bitwise-identical.
    pub engine: Engine,
    /// Stream a `diag` event (cache outcomes, timings, trace snapshot)
    /// before the `result` event.
    pub diag: bool,
}

/// One request line, parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Place + execute a program.
    Run(Box<RunRequest>),
    /// Health check; answered with a `pong` stats event.
    Ping,
    /// Live-metrics snapshot; answered with a `stats` event carrying
    /// the registry snapshot as JSON plus the text exposition.
    Stats,
    /// Drain the flight recorder; answered with a `dump` event
    /// replaying the last-N request spans and diag events in order.
    Dump,
    /// Stop the daemon after answering `bye`.
    Shutdown,
}

/// Why a request line was refused: a `bad-request` error naming the
/// offending field (dotted, e.g. `mesh.perturb`) when one field is to
/// blame.
#[derive(Debug)]
pub struct BadRequest {
    /// The field at fault, or `None` for a whole-line problem (bad
    /// JSON, missing `op`).
    pub field: Option<String>,
    /// Human-readable detail.
    pub detail: String,
}

impl BadRequest {
    fn at(field: &str, detail: impl Into<String>) -> BadRequest {
        BadRequest {
            field: Some(field.to_string()),
            detail: detail.into(),
        }
    }

    fn line(detail: impl Into<String>) -> BadRequest {
        BadRequest {
            field: None,
            detail: detail.into(),
        }
    }

    /// Render as the terminal `error` event (code `bad-request`, plus
    /// `field` when one is named).
    pub fn render(&self) -> String {
        let field = match &self.field {
            Some(f) => format!(",\"field\":{}", json_escape(f)),
            None => String::new(),
        };
        format!(
            "{{\"event\":\"error\",\"code\":\"bad-request\"{field},\"detail\":{}}}",
            json_escape(&self.detail)
        )
    }
}

/// Parse one request line. Unknown fields are rejected (they are
/// always a client bug — typically a misspelled option silently
/// falling back to a default). Values the mesh generator would refuse
/// are rejected here too, so they cost a `bad-request` reply and not a
/// panicked handler.
pub fn parse_request(line: &str) -> Result<Request, BadRequest> {
    let v = json::parse(line).map_err(|e| BadRequest::line(format!("bad JSON: {e}")))?;
    let obj = match &v {
        Value::Obj(m) => m,
        _ => return Err(BadRequest::line("request must be a JSON object")),
    };
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| BadRequest::at("op", "missing string field 'op'"))?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "dump" => Ok(Request::Dump),
        "shutdown" => Ok(Request::Shutdown),
        "run" => {
            for (k, _) in obj {
                if !matches!(
                    k.as_str(),
                    "op" | "program" | "source" | "mesh" | "pattern" | "p" | "engine" | "diag"
                ) {
                    return Err(BadRequest::at(k, format!("unknown field '{k}'")));
                }
            }
            let program = match (v.get("program"), v.get("source")) {
                (Some(p), None) => ProgramSpec::Builtin(
                    p.as_str()
                        .ok_or_else(|| BadRequest::at("program", "'program' must be a string"))?
                        .to_string(),
                ),
                (None, Some(s)) => ProgramSpec::Source(
                    s.as_str()
                        .ok_or_else(|| BadRequest::at("source", "'source' must be a string"))?
                        .to_string(),
                ),
                (Some(_), Some(_)) => {
                    return Err(BadRequest::line("give 'program' or 'source', not both"))
                }
                (None, None) => {
                    return Err(BadRequest::line(
                        "missing 'program' (builtin name) or 'source'",
                    ))
                }
            };
            let mesh = match v.get("mesh") {
                None => MeshSpec::default(),
                Some(m) => parse_mesh(m)?,
            };
            let pattern = match v.get("pattern") {
                None => Pattern::FIG1,
                Some(p) => p
                    .as_str()
                    .ok_or("'pattern' must be a string".to_string())
                    .and_then(parse_pattern)
                    .map_err(|e| BadRequest::at("pattern", e))?,
            };
            let p = match v.get("p") {
                None => 4,
                Some(n) => match n.as_usize() {
                    Some(p) if (1..=512).contains(&p) => p,
                    _ => return Err(BadRequest::at("p", "'p' must be an integer in 1..=512")),
                },
            };
            let engine = match v.get("engine") {
                None => Engine::Batched,
                Some(e) => e
                    .as_str()
                    .ok_or("'engine' must be a string".to_string())
                    .and_then(parse_engine)
                    .map_err(|e| BadRequest::at("engine", e))?,
            };
            let diag = match v.get("diag") {
                None => false,
                Some(Value::Bool(b)) => *b,
                Some(_) => return Err(BadRequest::at("diag", "'diag' must be a boolean")),
            };
            Ok(Request::Run(Box::new(RunRequest {
                program,
                mesh,
                pattern,
                p,
                engine,
                diag,
            })))
        }
        other => Err(BadRequest::at("op", format!("unknown op '{other}'"))),
    }
}

fn parse_mesh(m: &Value) -> Result<MeshSpec, BadRequest> {
    let d = MeshSpec::default();
    let dim = |k: &str, dv: usize| -> Result<usize, BadRequest> {
        match m.get(k) {
            None => Ok(dv),
            Some(n) => match n.as_usize() {
                Some(n) if (2..=4096).contains(&n) => Ok(n),
                _ => Err(BadRequest::at(
                    &format!("mesh.{k}"),
                    format!("mesh '{k}' must be an integer in 2..=4096"),
                )),
            },
        }
    };
    Ok(MeshSpec {
        nx: dim("nx", d.nx)?,
        ny: dim("ny", d.ny)?,
        perturb: match m.get("perturb") {
            None => d.perturb,
            // Larger amplitudes could invert triangles; the mesh
            // generator refuses them.
            Some(n) => match n.as_f64() {
                Some(x) if (0.0..0.5).contains(&x) => x,
                _ => {
                    return Err(BadRequest::at(
                        "mesh.perturb",
                        "mesh 'perturb' must be a finite number in [0, 0.5)",
                    ))
                }
            },
        },
        seed: match m.get("seed") {
            None => d.seed,
            Some(n) => n.as_usize().ok_or_else(|| {
                BadRequest::at("mesh.seed", "mesh 'seed' must be a non-negative integer")
            })? as u64,
        },
    })
}

fn parse_pattern(s: &str) -> Result<Pattern, String> {
    match s {
        "fig1" => Ok(Pattern::FIG1),
        "fig2" => Ok(Pattern::FIG2),
        "2layer" => Ok(Pattern::ElementOverlap { layers: 2 }),
        other => Err(format!("unknown pattern '{other}' (fig1|fig2|2layer)")),
    }
}

fn parse_engine(s: &str) -> Result<Engine, String> {
    Engine::ALL
        .into_iter()
        .find(|e| e.name() == s)
        .ok_or_else(|| {
            let names: Vec<&str> = Engine::ALL.iter().map(|e| e.name()).collect();
            format!("unknown engine '{s}' ({})", names.join("|"))
        })
}

/// Render the terminal `result` event. `capped` says the placement
/// search stopped at its `max_solutions` cap, so the executed
/// placement is the best of the mappings it saw, not of all of them.
pub fn render_result(
    iterations: usize,
    phases: usize,
    messages: usize,
    values: usize,
    run_ms: f64,
    checksum: u64,
    capped: bool,
) -> String {
    format!(
        "{{\"event\":\"result\",\"iterations\":{iterations},\"phases\":{phases},\
         \"messages\":{messages},\"values\":{values},\"run_ms\":{run_ms:.3},\
         \"checksum\":\"{checksum:016x}\",\"capped\":{capped}}}"
    )
}

/// Render the `diag` event streamed before `result` when the request
/// set `"diag": true`. `trace_json` is an already-rendered
/// `TRACE_runtime.json` document (embedded verbatim as a JSON value)
/// or `None` when tracing was disabled.
pub fn render_diag(
    placement: &'static str,
    plan: &'static str,
    n_solutions: usize,
    compile_ms: f64,
    trace_json: Option<&str>,
) -> String {
    let trace = trace_json.unwrap_or("null");
    format!(
        "{{\"event\":\"diag\",\"cache\":{{\"placement\":\"{placement}\",\"plan\":\"{plan}\"}},\
         \"solutions\":{n_solutions},\"compile_ms\":{compile_ms:.3},\"trace\":{trace}}}"
    )
}

/// Render a terminal `error` event. `code` is a stable machine-readable
/// tag: `busy` (shed by admission control — retry later), `bad-request`
/// (malformed line; [`BadRequest::render`] adds the field), `invalid`
/// (the program/placement/run failed).
pub fn render_error(code: &str, detail: &str) -> String {
    format!(
        "{{\"event\":\"error\",\"code\":{},\"detail\":{}}}",
        json_escape(code),
        json_escape(detail)
    )
}

/// Render the terminal `error` event for a shed request, carrying the
/// structured shed reason (`capacity` — the admission budget was
/// full; `shutdown` — the daemon was draining) alongside the
/// human-readable detail.
pub fn render_busy(reason: &str, detail: &str) -> String {
    format!(
        "{{\"event\":\"error\",\"code\":\"busy\",\"reason\":{},\"detail\":{}}}",
        json_escape(reason),
        json_escape(detail)
    )
}

/// Render the `bye` event acknowledging a shutdown request.
pub fn render_bye() -> String {
    "{\"event\":\"bye\"}".to_string()
}

/// Is this event name terminal (the last line of a response)?
pub fn is_terminal(event: &str) -> bool {
    matches!(event, "result" | "error" | "pong" | "stats" | "dump" | "bye")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_run_request() {
        let r = parse_request(
            "{\"op\":\"run\",\"program\":\"testiv\",\"mesh\":{\"nx\":10,\"ny\":12,\
             \"perturb\":0.1,\"seed\":7},\"pattern\":\"fig2\",\"p\":8,\
             \"engine\":\"round-robin\",\"diag\":true}",
        )
        .unwrap();
        let Request::Run(r) = r else { panic!("not run") };
        assert_eq!(r.program, ProgramSpec::Builtin("testiv".into()));
        assert_eq!((r.mesh.nx, r.mesh.ny, r.mesh.seed), (10, 12, 7));
        assert_eq!(r.pattern, Pattern::FIG2);
        assert_eq!((r.p, r.engine, r.diag), (8, Engine::RoundRobin, true));
    }

    #[test]
    fn retired_engine_names_are_bad_requests_on_engine() {
        for retired in ["overlapped", "threaded", "threaded-pooled"] {
            let line = format!("{{\"op\":\"run\",\"program\":\"x\",\"engine\":\"{retired}\"}}");
            let err = parse_request(&line).expect_err(&line);
            assert_eq!(err.field.as_deref(), Some("engine"), "{line}");
            assert!(
                err.detail.contains("round-robin|batched"),
                "detail must list both engines: {}",
                err.detail
            );
            let v = syncplace::obs::json::parse(&err.render()).unwrap();
            assert_eq!(v.get("code").unwrap().as_str(), Some("bad-request"));
            assert_eq!(v.get("field").unwrap().as_str(), Some("engine"));
        }
    }

    #[test]
    fn defaults_fill_omitted_fields() {
        let Request::Run(r) = parse_request("{\"op\":\"run\",\"program\":\"testiv\"}").unwrap()
        else {
            panic!("not run")
        };
        assert_eq!(r.mesh, MeshSpec::default());
        assert_eq!(r.pattern, Pattern::FIG1);
        assert_eq!((r.p, r.engine, r.diag), (4, Engine::Batched, false));
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            "{\"op\":\"fly\"}",
            "{\"op\":\"run\"}",
            "{\"op\":\"run\",\"program\":\"x\",\"source\":\"y\"}",
            "{\"op\":\"run\",\"program\":\"x\",\"p\":0}",
            "{\"op\":\"run\",\"program\":\"x\",\"engine\":\"warp\"}",
            "{\"op\":\"run\",\"program\":\"x\",\"engine\":\"overlapped\"}",
            "{\"op\":\"run\",\"program\":\"x\",\"engine\":\"threaded\"}",
            "{\"op\":\"run\",\"program\":\"x\",\"pattern\":\"fig9\"}",
            "{\"op\":\"run\",\"program\":\"x\",\"typo\":1}",
            "{\"op\":\"run\",\"program\":\"x\",\"mesh\":{\"nx\":1}}",
        ] {
            assert!(parse_request(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn perturb_outside_the_generator_range_names_its_field() {
        for bad in ["0.7", "0.5", "-0.1", "1e999", "-1e999"] {
            let line =
                format!("{{\"op\":\"run\",\"program\":\"x\",\"mesh\":{{\"perturb\":{bad}}}}}");
            let err = parse_request(&line).expect_err(&line);
            assert_eq!(err.field.as_deref(), Some("mesh.perturb"), "{line}");
            let v = syncplace::obs::json::parse(&err.render()).unwrap();
            assert_eq!(v.get("code").unwrap().as_str(), Some("bad-request"));
            assert_eq!(v.get("field").unwrap().as_str(), Some("mesh.perturb"));
        }
        for ok in ["0", "0.0", "0.49"] {
            let line =
                format!("{{\"op\":\"run\",\"program\":\"x\",\"mesh\":{{\"perturb\":{ok}}}}}");
            assert!(parse_request(&line).is_ok(), "{line}");
        }
    }

    #[test]
    fn ping_and_shutdown_parse() {
        assert_eq!(parse_request("{\"op\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            parse_request("{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn stats_and_dump_parse_and_are_terminal() {
        assert_eq!(parse_request("{\"op\":\"stats\"}").unwrap(), Request::Stats);
        assert_eq!(parse_request("{\"op\":\"dump\"}").unwrap(), Request::Dump);
        assert!(is_terminal("stats"));
        assert!(is_terminal("dump"));
    }

    #[test]
    fn busy_error_carries_its_reason() {
        let line = render_busy("capacity", "4 running and 16 queued");
        let v = syncplace::obs::json::parse(&line).unwrap();
        assert_eq!(v.get("code").unwrap().as_str(), Some("busy"));
        assert_eq!(v.get("reason").unwrap().as_str(), Some("capacity"));
        let line = render_busy("shutdown", "the daemon is draining");
        assert!(line.contains("\"reason\":\"shutdown\""));
    }

    #[test]
    fn rendered_events_are_valid_json() {
        for line in [
            render_result(3, 2, 10, 100, 1.5, 0xdead_beef, false),
            render_diag("hit", "miss", 4, 12.25, None),
            render_diag("miss", "miss", 1, 0.5, Some("{\"counters\":{}}")),
            render_error("busy", "queue full (depth 16)"),
            render_bye(),
        ] {
            let v = syncplace::obs::json::parse(&line).expect(&line);
            assert!(is_terminal(v.get("event").unwrap().as_str().unwrap()) || line.contains("diag"));
        }
    }
}
