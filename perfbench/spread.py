#!/usr/bin/env python3
"""Run every workload of the benchmark over several seeds and report,
per end-to-end metric, the median and the quartile spread (Q3 - Q1 as
a share of the median) next to the bound declared in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 --seconds 12
    python3 perfbench/spread.py --runs 5 --workloads hot-run --trace 1

Exits non-zero if any run fails or reports correct=false, or if a
spread (other than setup_s) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

CMD = ["cargo", "run", "--release", "-q", "--manifest-path", "perfbench/Cargo.toml", "--"]


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    a = ap.parse_args()
    declared = spec["per_layer"] if a.trace else spec["end_to_end"]
    ok = True
    for w in a.workloads:
        values = {}
        walls = []
        for i in range(a.runs):
            seed = a.first_seed + i
            t = time.monotonic()
            p = subprocess.run(
                CMD + ["--workload", w, "--seed", str(seed), "--seconds", str(a.seconds),
                       "--trace", str(a.trace)],
                capture_output=True, text=True)
            walls.append(time.monotonic() - t)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stdout}{p.stderr}")
                ok = False
                continue
            res = json.loads(lines[-1])
            names = sorted(res["metrics"])
            if names != sorted(m["name"] for m in declared):
                print(f"{w} seed {seed}: metric names {names} differ from BENCHMARK.json")
                ok = False
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}")
                ok = False
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"== {w}: {a.runs} runs x {a.seconds} s; wall per run "
              f"{min(walls):.1f}..{max(walls):.1f} s")
        for m in declared:
            xs = values.get(m["name"], [])
            if len(xs) < 2:
                continue
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = f"bound {bound:.2f} ({'ok' if spread <= bound / 3 else 'WIDE'})"
                if m["name"] != "setup_s" and spread > bound:
                    ok = False
            print(f"  {m['name']:26s} median {med:12.4f} {m['unit']:6s} spread {spread:7.4f} {flag}")
            print("      " + " ".join(f"{x:.4g}" for x in xs))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
