#!/usr/bin/env python3
"""Repository benchmark runner.

Builds nshd_perfbench from this checkout's sources (CMake, into
.bench_build/ at the checkout root) and runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It prints a configuration stamp line and, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 its per_layer metrics; a per-layer metric the workload does not
exercise reads 0.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "nshd_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then rebuilds nshd_perfbench (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the NSHD sources (src/) are not in this checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "nshd_perfbench", "-j", "4"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as tail:
                    sys.stderr.write("".join(tail.readlines()[-40:]))
                fail("build failed: " + " ".join(step))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    build()

    trace_out = os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.jsonl")
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-out", trace_out, "--commit", source_id()]
    try:
        run = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if len(lines) < 2:
        fail(f"{args.workload} exited {run.returncode} without a result")
    stamp, result = json.loads(lines[-2]), json.loads(lines[-1])

    measured = result["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = measured.get(name)
        if got is None:
            if not args.trace:
                fail(f"{args.workload} did not report end-to-end metric {name}")
            got = {"value": 0.0, "unit": unit}  # layer not exercised by this workload
        if got["unit"] != unit:
            fail(f"{name}: unit {got['unit']} differs from BENCHMARK.json's {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}

    print(json.dumps(stamp))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if run.returncode == 0 and result["correct"] and result["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
