//! A short run of every workload, untraced and traced: each completes
//! with no failed request, reports `correct`, and prints exactly the
//! metric names `BENCHMARK.json` declares.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::path::Path;
use std::process::{Command, Output};

use syncplace::obs::json::{self, Value};

fn declared(spec: &Value, section: &str) -> Vec<String> {
    let mut names: Vec<String> = spec
        .get(section)
        .and_then(Value::as_arr)
        .expect("section")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

/// Run the benchmark binary with space-separated `args`, in a scratch
/// directory of the build tree (it binds its socket in the working
/// directory).
fn perfbench(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_syncplace-perfbench"))
        .args(args.split(' '))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn the benchmark binary")
}

#[test]
fn every_workload_runs_clean_and_prints_the_declared_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let spec = json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap()).unwrap();
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    assert_eq!(workloads, ["cold-place", "hot-run", "plan-miss"]);
    for w in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = perfbench(&format!(
                "--workload {w} --seed 7 --seconds 1 --trace {trace}"
            ));
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{w} --trace {trace} failed:\n{stdout}{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(stdout.lines().any(|l| l.starts_with("# host {\"nproc\":")));
            let last = json::parse(stdout.lines().last().unwrap()).unwrap();
            assert_eq!(last.get("correct"), Some(&Value::Bool(true)), "{stdout}");
            assert_eq!(last.get("failed").and_then(Value::as_usize), Some(0));
            assert!(last.get("attempted").and_then(Value::as_usize).unwrap() >= 1);
            let Some(Value::Obj(metrics)) = last.get("metrics") else {
                panic!("no metrics object: {stdout}")
            };
            let mut printed: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            printed.sort();
            assert_eq!(printed, declared(&spec, section), "{w} --trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload hot-run --seed 1 --seconds 1 --trace 2",
        "--workload hot-run --seed 1 --seconds 0 --trace 0",
        "--workload hot-run",
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
