#!/usr/bin/env python3
"""Builds the perfbench program from source and runs the benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      Runs one workload. The last stdout line is one JSON object with the
      keys correct, attempted, failed and metrics: the end_to_end metrics of
      BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
      Exits non-zero when the build fails, a result is wrong or the metric
      names disagree with BENCHMARK.json.

  python3 perfbench/run.py --smoke
      Runs every workload at a tiny size, untraced and traced, and checks
      that a corrupted store read is caught by the correctness gate.

The build goes to .bench_build/perfbench under the repository root. Traced
runs write their host spans to .bench_build/perfbench/spans-*.jsonl.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Tool output goes to stderr."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_binary(argv):
    """Runs perfbench; returns (exit code, stdout lines, parsed last line)."""
    try:
        p = subprocess.run([str(BINARY)] + argv, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(argv)}")
        return 1, [], None
    lines = p.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, lines, result


def names_ok(result, spec, traced):
    want = {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = set(result["metrics"]) if result else set()
    if got != want:
        log(f"metric names differ from BENCHMARK.json: missing "
            f"{sorted(want - got)}, extra {sorted(got - want)}")
        return False
    return True


def smoke(spec):
    """Every workload, untraced and traced, at tiny size; then the gate."""
    failures = 0
    for w in spec["workloads"]:
        for trace in ("0", "1"):
            argv = ["--workload", w["name"], "--seed", "7", "--seconds", "0.2",
                    "--trace", trace, "--smoke",
                    "--spans", str(BUILD / f"spans-smoke-{w['name']}.jsonl")]
            rc, _, res = run_binary(argv)
            ok = (rc == 0 and res is not None and res["correct"]
                  and res["failed"] == 0 and res["attempted"] >= 2
                  and names_ok(res, spec, trace == "1"))
            log(f"smoke {w['name']} trace={trace}: {'ok' if ok else 'FAILED'}")
            failures += not ok
    # A wrong byte read through the store wrapper must fail the gate.
    rc, _, res = run_binary(["--workload", "cc_weak", "--seed", "7",
                             "--seconds", "0.2", "--trace", "0", "--smoke",
                             "--corrupt"])
    ok = rc != 0 and res is not None and not res["correct"] and res["failed"] > 0
    log(f"smoke gate catches a corrupted read: {'ok' if ok else 'FAILED'}")
    failures += not ok
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds,
                                   args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    spec = load_spec()
    if not build():
        return 1
    if args.smoke:
        return smoke(spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 1

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        argv += ["--spans", str(BUILD / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    rc, lines, res = run_binary(argv)
    for line in lines:
        print(line)
    sys.stdout.flush()
    if rc != 0 or res is None:
        log(f"perfbench exited with {rc}")
        return rc or 1
    return 0 if names_ok(res, spec, args.trace == "1") else 1


if __name__ == "__main__":
    sys.exit(main())
