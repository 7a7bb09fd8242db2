#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload chip_tick --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The build goes to .bench_build/ (CMake, Release). Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. Each run
also writes its result set, with the host, CPU count, thread count, seed and
build type, to .bench_build/results/; the traced run (--trace 1) writes its
Chrome trace there too.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "cpm_perfbench")


def build():
    """Configures once, then builds incrementally. Returns True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "cpm_perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def check_declared_metrics():
    """BENCHMARK.json must declare exactly the metrics the binary emits."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([BINARY, "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout
    emitted = json.loads(listed)
    ok = True
    for group in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        if declared != emitted[group]:
            print(f"self-test FAIL: BENCHMARK.json {group} != emitted "
                  f"metrics ({sorted(set(declared) ^ set(emitted[group]))})",
                  file=sys.stderr)
            ok = False
    declared_workloads = [w["name"] for w in spec["workloads"]]
    if declared_workloads != emitted["workloads"]:
        print("self-test FAIL: BENCHMARK.json workloads != binary workloads",
              file=sys.stderr)
        ok = False
    if ok:
        print("self-test ok: BENCHMARK.json matches the emitted metrics")
    return ok


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--self-test" in args:
        rc = subprocess.run([BINARY, "--self-test"], cwd=ROOT).returncode
        return rc if rc else (0 if check_declared_metrics() else 1)
    out_dir = os.path.join(".bench_build", "results")
    return subprocess.run([BINARY, *args, "--out-dir", out_dir],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
