#!/usr/bin/env python3
"""Builds the repository benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload batch_exact --seed 1 --seconds 16 --trace 0

Run from the checkout root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when that is unset; a traced run (--trace 1) also writes its
spans to <build dir>/traces/. The last line of standard output is the
result object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("batch_exact", "ingest_mixed")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_logged(cmd, log):
    with open(log, "a") as out:
        return subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT).returncode


def build(out_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the knmatch sources (src/) are not in this checkout", 2)
    os.makedirs(out_dir, exist_ok=True)
    log = os.path.join(out_dir, "perfbench-build.log")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log) != 0:
            fail(f"cmake configure failed; see {log}")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs], log) != 0:
        fail(f"build failed; see {log}")
    return os.path.join(out_dir, "perfbench")


def git_commit():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources, path by path."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", git_commit(), "--source-digest", source_digest()]
    if args.trace == "1":
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
