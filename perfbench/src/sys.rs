//! Process accounting and the host/build stamp.

use std::process::Command;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// of which the first is `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// CPU time (user + sys) and peak resident set of this process.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User + system CPU seconds since process start.
    pub cpu_s: f64,
    /// Peak resident set size in MiB since process start.
    pub peak_rss_mb: f64,
}

/// Read this process's resource usage.
pub fn usage() -> Usage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a properly sized and aligned `struct rusage` for
    // 64-bit Linux, and RUSAGE_SELF is always a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage failed");
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    Usage {
        cpu_s: t(&r.utime) + t(&r.stime),
        peak_rss_mb: r.maxrss as f64 / 1024.0,
    }
}

fn run(cmd: &str, args: &[&str]) -> Option<String> {
    // Never let git walk above the working directory: outside a
    // repository the stamp must say so, not borrow a parent's rev.
    let cwd = std::env::current_dir().ok()?;
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    let out = Command::new(cmd)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The `host` block stamped on every output: core count, compiler,
/// git revision and whether the working tree differs from it. Outside
/// a git checkout `rev` is `"none"` and `dirty` is `null`.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = run("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let rev = run("git", &["rev-parse", "--short=12", "HEAD"]);
    let dirty = match &rev {
        Some(_) => match run("git", &["status", "--porcelain"]) {
            Some(s) => (!s.is_empty()).to_string(),
            None => "null".into(),
        },
        None => "null".into(),
    };
    format!(
        "{{\"nproc\":{nproc},\"rustc\":{},\"rev\":{},\"dirty\":{dirty}}}",
        syncplace::obs::trace::json_escape(&rustc),
        syncplace::obs::trace::json_escape(rev.as_deref().unwrap_or("none")),
    )
}
