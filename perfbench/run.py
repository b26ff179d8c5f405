#!/usr/bin/env python3
"""Builds and runs the served-query benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload ssb-cpu-c1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The benchmark binary is built from source first (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Build output
goes to stderr. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units are
checked against BENCHMARK.json. --trace 1 also writes the run's spans to
<build dir>/traces/<workload>-seed<seed>.json.

--quick shrinks every table ~20x (smoke test); --corrupt-expected perturbs
one oracle answer so the run must fail (oracle self-test).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ssb-cpu-c1", "ssb-gpu-c4", "star-build-zipf"]
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            log("build failed: " + " ".join(step))
            sys.exit(2)
    return os.path.join(out, "perfbench")


def git_sha():
    """HEAD's commit, read from .git without running git; 'none' outside a
    git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[len("ref: "):]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as packed:
            for line in packed:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "none"


def source_digest():
    """sha256 over the sources the benchmark builds from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, args, workload, provenance):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", provenance[0], "--source-digest", provenance[1]]
    if args.quick:
        cmd.append("--quick")
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        sys.exit(4)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"{workload}: exited with {proc.returncode}")
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        sys.stdout.write(proc.stdout)
        log(f"{workload}: metrics {sorted(got.items())} do not match "
            f"BENCHMARK.json {sorted(want.items())}")
        sys.exit(3)
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--corrupt-expected", action="store_true")
    args = parser.parse_args()

    binary = build()
    provenance = (git_sha(), source_digest())
    if args.workload != "all":
        lines, result = run_workload(binary, args, args.workload, provenance)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        return 0

    # Every workload in turn; the last line aggregates them, with metric
    # names prefixed by the workload.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines, result = run_workload(binary, args, workload, provenance)
        print("\n".join(lines))
        print(json.dumps({"workload": workload, **result}), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
