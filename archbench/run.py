#!/usr/bin/env python3
"""Build and run one workload of the Archipelago benchmark.

Usage (from the root of a checkout):

    python3 archbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds archbench/ and the src/ libraries it
links, always as Release, into $CARGO_TARGET_DIR (default .bench_build);
later calls rebuild only what changed.  The benchmark's own output passes
through unchanged: its last line is the JSON result.  Build logs go to
standard error.  Any flag after the known ones is handed to the binary.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def source_commit():
    """The git commit of the checkout, or a digest of src/ and archbench/
    when the checkout is not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "archbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build():
    """Configures (once) and builds the benchmark; exits non-zero on failure."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "archbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "archbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.exit("archbench: build timed out")
        if done.returncode != 0:
            sys.exit("archbench: build failed: " + " ".join(cmd))
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
            sys.exit("archbench: refusing to record from a non-Release build in " + out)
    return os.path.join(out, "archbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args, extra = parser.parse_known_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("archbench: no src/ next to archbench/; run from a full checkout")
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", source_commit()] + extra
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("archbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
