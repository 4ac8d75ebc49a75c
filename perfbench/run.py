#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-resnet --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, seed 1, untraced

The first run configures and builds perfbench/ (and the repository's
libraries from src/) into .bench_build/perfbench; later runs only rebuild
what changed. Each workload runs in its own process under a hard timeout.
Output: the binary's knob, check and metric lines, then one JSON result
line, which is always the last line of standard output. The exit code is 0
only when every output check passed and the metrics match BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["train-resnet", "dist-mlp", "serve-lenet"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources under {ROOT}/src; nothing to benchmark")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                   timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if r.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")


def declared_metrics(trace):
    """Metric name -> unit that BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (result dict or None, exit code)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("D500_")}
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s and was "
              "killed", file=sys.stderr)
        return None, 3
    lines = r.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(r.stdout, end="")
        print(f"perfbench: {workload} printed no result (exit code "
              f"{r.returncode})", file=sys.stderr)
        return None, r.returncode or 1
    want = declared_metrics(trace)
    if trace:
        # A per-layer metric of a layer the workload lacks reads 0.
        for name, unit in want.items():
            result["metrics"].setdefault(name, {"value": 0, "unit": unit})
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print(f"perfbench: {workload} metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}, units "
              f"{sorted(k for k in set(want) & set(got) if want[k] != got[k])}",
              file=sys.stderr)
        result["correct"] = False
    code = r.returncode if r.returncode != 0 else (0 if result["correct"] else 1)
    return result, code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results, worst = {}, 0
    for name in names:
        result, code = run_one(name, args.seed, args.seconds, args.trace)
        worst = worst or code
        if result is None:
            continue
        results[name] = result
        if len(names) == 1:
            print(json.dumps(result))
    if len(names) > 1:
        print(json.dumps({
            "correct": worst == 0 and len(results) == len(names),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    sys.exit(worst)


if __name__ == "__main__":
    main()
