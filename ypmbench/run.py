#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 ypmbench/run.py --workload fig3_flow --seed 1 --seconds 10 --trace 0

The first call configures and compiles the library sources (src/) and the
benchmark binary (ypmbench/src/) as an optimised CMake build under
.bench_build/ypmbench; later calls only rebuild what changed. All build
output goes to stderr, so the last line of stdout is the benchmark's JSON
summary. Results and traces are written to .bench_build/results/.
Extra arguments (e.g. --scale tiny) are passed to the binary.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "ypmbench"
RESULTS = ROOT / ".bench_build" / "results"
BINARY = BUILD / "ypmbench"


def fail(message):
    print(f"ypmbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "core" / "flow.cpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def source_id():
    """Git commit when the tree is a checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main(argv):
    build()
    RESULTS.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), *argv, "--out-dir", str(RESULTS), "--commit", source_id()]
    try:
        return subprocess.run(cmd, timeout=175).returncode
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded 175 s")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
