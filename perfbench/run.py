#!/usr/bin/env python3
"""End-to-end simulation benchmark of the score-based scheduler.

Run from the repository root:

    python3 perfbench/run.py --workload week100 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes
    python3 perfbench/run.py --workload fleet1k --workload-seed 20071002

--seed drives the run's random stream (datacenter operation durations);
--workload-seed picks the simulated week, by default the paper week.

Builds perfbench/ (which compiles the repository's library) in Release into
.bench_build, refuses to report from a build that is
not optimised, runs the harness, checks its outputs and prints every metric
with its unit and sample count. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end_to_end ones of BENCHMARK.json, with --trace 1 the per_layer
ones. A failed check prints the result with "correct": false and exits 1.
NOTES.md explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

# Fidelity reference: week100 in the paper's configuration (week and
# datacenter seed 20071001) must land inside the golden envelopes of the
# paper-reproduction gate (read, never written).
PAPER_SEED = 20071001
ENVELOPES = Path("tests/data/golden_envelopes.json")
ENVELOPE_KEYS = {
    "energy_kwh": "table4.SB_30_90.energy_kwh",
    "satisfaction_pct": "table4.SB_30_90.satisfaction_pct",
}
# Every tail figure is a p99.9, which must keep 10 samples beyond it.
TAIL_PERCENTILE = 99.9
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest(root):
    """Digest of the sources the harness compiles; the checkout may not be
    a git repository, so this identifies the code when no sha exists."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        base = root / top
        paths = [base] if base.is_file() else sorted(base.rglob("*"))
        for p in paths:
            if p.is_file():
                h.update(str(p.relative_to(root)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:12]


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(root, build_dir):
    """Configures once, then (re)builds the harness; build output goes to
    stderr so stdout stays the benchmark's report."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench_sim", "perfbench_stats_test"])
    # The compiler's temporary files stay inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    deadline = time.monotonic() + BUILD_LIMIT_S
    for cmd in steps:
        try:
            res = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                                 stderr=sys.stderr, env=env,
                                 timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if res.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def run_json(cmd, root, timeout):
    try:
        res = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                             timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    sys.stderr.write(res.stderr)
    if res.returncode != 0:
        fail(f"exit code {res.returncode}: {' '.join(cmd)}")
    lines = res.stdout.strip().splitlines()
    if not lines:
        fail(f"no output: {' '.join(cmd)}")
    return json.loads(lines[-1])


def envelope_problems(root, reference):
    golden = {m["name"]: m for m in
              json.loads((root / ENVELOPES).read_text())["metrics"]}
    problems = []
    if not reference.get("all_finished"):
        problems.append("reference week left jobs unfinished")
    for ours, theirs in ENVELOPE_KEYS.items():
        g = golden[theirs]
        tol = g["abs_tol"] if "abs_tol" in g else g["rel_tol"] * abs(g["value"])
        got = reference[ours]
        if abs(got - g["value"]) > tol:
            problems.append(f"{ours} {got:.6f} outside {theirs} "
                            f"{g['value']} +- {tol:.6g}")
    return problems


def measure(root, binary, bench, args, workload, trace, deadline):
    """Runs the harness once; returns (result line dict, problems, raw)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--workload-seed", str(args.workload_seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if workload == "week100":
        cmd.append("--reference")
    raw = run_json(cmd, root, deadline - time.monotonic())

    declared = bench["per_layer"] if trace else bench["end_to_end"]
    problems = []
    checks = raw["checks"]
    if not checks["all_finished"] or raw["failed"] != 0:
        problems.append(f"{raw['failed']} of {raw['attempted']} jobs unfinished")
    if not checks["identical"]:
        problems.append("reports or decisions differ between repeats")
    if checks["tail_percentile"] < TAIL_PERCENTILE:
        problems.append(f"a p99.9 has only {checks['p999_beyond']} samples "
                        f"beyond it; the tail supported is "
                        f"p{checks['tail_percentile']:g}")
    if "reference" in raw:
        problems += envelope_problems(root, raw["reference"])
    metrics = {}
    for d in declared:
        got = raw["metrics"].get(d["name"])
        if got is None or got["unit"] != d["unit"] or not math.isfinite(got["value"]):
            problems.append(f"metric {d['name']} missing or malformed")
            continue
        metrics[d["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {"correct": not problems, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return result, problems, raw


def report(raw, result, trace, root):
    ctx = raw["context"]
    print(f"context: build_type={ctx['build_type']} compiler={ctx['compiler']} "
          f"hw_threads={ctx['hw_threads']} git_sha={git_sha(root)} "
          f"source_digest={source_digest(root)} seed={raw['seed']} "
          f"workload_seed={raw['workload_seed']} "
          f"solver_threads={ctx['solver_threads']}")
    reps = raw["repeats"]
    print(f"workload: {raw['workload']} hosts={raw['hosts']} jobs={raw['jobs']} "
          f"events={raw['events']} repeats untraced={reps['untraced']} "
          f"traced={reps['traced']} trace={trace}")
    q1, q2, q3 = raw["wall_run_s"]
    print(f"wall time of one untraced repeat: q1={q1:.4f} median={q2:.4f} "
          f"q3={q3:.4f} s (n={reps['untraced']}); timings below are folded by "
          f"per-position minimum over repeats; p99.9 leaves "
          f"{raw['checks']['p999_beyond']} samples beyond it")
    for name, m in raw["metrics"].items():
        mark = "*" if name in result["metrics"] else " "
        print(f" {mark} {name:30s} {m['value']:>14.6g} {m['unit']:6s} "
              f"n={m['samples']}")
    if "reference" in raw:
        ref = raw["reference"]
        print(f"reference seed {ref['seed']}: energy_kwh={ref['energy_kwh']:.6f} "
              f"satisfaction_pct={ref['satisfaction_pct']:.6f}")
    print(f"decisions={raw['checks']['decisions']} report: {raw['checks']['report']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=PAPER_SEED)
    ap.add_argument("--workload-seed", type=int, default=PAPER_SEED)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.workload_seed < 0:
        fail("seeds must be non-negative")

    root = Path.cwd()
    for needed in ("CMakeLists.txt", "src", "perfbench/CMakeLists.txt",
                   "BENCHMARK.json", str(ENVELOPES)):
        if not (root / needed).exists():
            fail(f"{needed} not found; run from the repository root")
    bench = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload}; one of {', '.join(names)} or all")

    build_dir = root / ".bench_build"
    build(root, build_dir)
    binary = build_dir / "perfbench_sim"
    deadline = time.monotonic() + RUN_LIMIT_S
    ctx = run_json([str(binary), "--context"], root, 30)
    if not (ctx["optimized"] and ctx["ndebug"]):
        fail(f"refusing to measure a build that is not optimised: {ctx}", 3)
    test = subprocess.run([str(build_dir / "perfbench_stats_test")], cwd=root,
                          capture_output=True, text=True, timeout=30)
    if test.returncode != 0:
        fail(f"statistics self-test failed:\n{test.stderr}")

    if args.workload != "all":
        result, problems, raw = measure(root, binary, bench, args,
                                        args.workload, args.trace, deadline)
        report(raw, result, args.trace, root)
        for p in problems:
            print(f"CHECK FAILED: {p}", file=sys.stderr)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    # Every workload, untraced then traced, without the per-run time limit.
    ok = True
    for name in names:
        for trace in (0, 1):
            result, problems, raw = measure(root, binary, bench, args, name,
                                            trace, time.monotonic() + 3600)
            report(raw, result, trace, root)
            for p in problems:
                print(f"CHECK FAILED: {p}", file=sys.stderr)
            ok = ok and result["correct"]
            print()
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
