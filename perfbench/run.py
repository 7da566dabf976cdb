#!/usr/bin/env python3
"""Build and run the gRouting end-to-end benchmark.

    python3 perfbench/run.py --workload hotspot-raw --seed 1 --seconds 10 --trace 0

Run from the repository root. Configures and builds perfbench/ (Release)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
the benchmark binary with the same arguments. Prints a host fingerprint,
the binary's report, and as the last line the binary's JSON result holding
exactly the metrics BENCHMARK.json lists for the mode (end_to_end with
--trace 0, per_layer with --trace 1); the report prints a few more. Exits
non-zero, without a result line, when the build fails or a listed metric
is missing or has another unit; exits with the binary's code otherwise (1
when a correctness check failed).
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
                return None
        jobs = str(max(1, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=log, stderr=log).returncode != 0:
            return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def fingerprint(build_dir):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return "cpu=%s; nproc=%d; compiler=%s; build=%s" % (
        cpu, os.cpu_count() or 0, version, cache.get("CMAKE_BUILD_TYPE", "?"))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)
    if binary is None:
        fail("build failed; see " + os.path.join(build_dir, "build.log"))
    expected = expected_metrics(args.trace)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.csv" % (args.workload, args.seed))]
    print("host: " + fingerprint(build_dir), flush=True)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print("\n".join(lines[:-1]))
        fail("benchmark printed no result (exit code %d)" % proc.returncode)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    print("\n".join(lines[:-1]))
    missing = sorted(name for name, unit in expected.items() if got.get(name) != unit)
    if missing:
        fail("metrics missing or in another unit than BENCHMARK.json lists: %s" % missing)
    result["metrics"] = {name: result["metrics"][name] for name in expected}
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
