#!/usr/bin/env python3
"""Fails unless every loop marked `// cpm: vectorized` is vectorized by GCC.

The flat tick sweeps (the micro-model pass in src/sim/chip.cpp and the power
sweep in src/power/model.cpp) are written to vectorize, but nothing in the
language says so: an extra branch, an integer shift or one more aliasing
pointer silently turns them scalar again. This script recompiles each given
source with its exact compile command from the build's compile_commands.json
plus -fopt-info-vec-optimized, and requires GCC to report
"loop vectorized" for the first `for` line after each marker.

Link-time optimization flags are dropped: with -flto -fno-fat-lto-objects
GCC only vectorizes at link time, and the compile-time report is the one
that names source lines. Everything else (-O3, -fno-trapping-math, -march
in a CPM_SIMD build) is kept.

Usage, from the root of the repository:

    python3 scripts/check_vectorized.py --build-dir build \\
        src/power/model.cpp src/sim/chip.cpp
"""
import argparse
import json
import os
import re
import shlex
import subprocess
import sys

MARKER = "// cpm: vectorized"
DROPPED_FLAGS = ("-flto", "-fno-fat-lto-objects", "-ffat-lto-objects")


def marked_loops(path):
    """Line numbers of the `for` loops that follow a marker comment."""
    with open(path) as f:
        lines = f.read().splitlines()
    loops = []
    for i, line in enumerate(lines):
        if line.strip() != MARKER:
            continue
        for j in range(i + 1, len(lines)):
            if lines[j].strip().startswith("for"):
                loops.append(j + 1)
                break
    return loops


def compile_args(entry, source):
    """The entry's compiler invocation, reporting vectorization to stderr."""
    args = entry.get("arguments") or shlex.split(entry["command"])
    out = []
    skip = False
    for arg in args:
        if skip:
            skip = False
            continue
        if arg == "-o":
            skip = True
            continue
        if arg == "-c" or arg.startswith(DROPPED_FLAGS):
            continue
        if os.path.realpath(os.path.join(entry["directory"], arg)) == source:
            continue
        out.append(arg)
    return out + ["-fopt-info-vec-optimized", "-c", source, "-o", os.devnull]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", required=True,
                        help="CMake build directory with compile_commands.json")
    parser.add_argument("sources", nargs="+",
                        help="source files with `// cpm: vectorized` loops")
    opts = parser.parse_args()

    db_path = os.path.join(opts.build_dir, "compile_commands.json")
    try:
        with open(db_path) as f:
            database = json.load(f)
    except OSError as e:
        print(f"check_vectorized: cannot read {db_path}: {e}", file=sys.stderr)
        return 2
    by_file = {os.path.realpath(os.path.join(e["directory"], e["file"])): e
               for e in database}

    ok = True
    for rel in opts.sources:
        source = os.path.realpath(rel)
        loops = marked_loops(source)
        if not loops:
            print(f"FAIL {rel}: no `{MARKER}` marker found")
            ok = False
            continue
        entry = by_file.get(source)
        if entry is None:
            print(f"FAIL {rel}: not in {db_path}")
            ok = False
            continue
        proc = subprocess.run(compile_args(entry, source), cwd=entry["directory"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"FAIL {rel}: compile failed\n{proc.stderr}")
            ok = False
            continue
        name = re.escape(os.path.basename(source))
        vectorized = {int(m.group(1)) for m in re.finditer(
            name + r":(\d+):\d+: optimized: loop vectorized", proc.stderr)}
        for line in loops:
            if line in vectorized:
                print(f"ok   {rel}:{line}: loop vectorized")
            else:
                print(f"FAIL {rel}:{line}: marked `{MARKER}` but GCC did not "
                      f"vectorize it (rerun the compile with "
                      f"-fopt-info-vec-missed for the reason)")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
