#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Everything the build and the run write stays inside the repository: the
binary, the Go build cache and temporary files under $CARGO_TARGET_DIR
(default .bench_build), traced spans under its spans/ and serve journals
under its work/. The binary's standard output, whose last line is the
result object, is passed through unchanged; its exit code is this script's.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def commit():
    """The source revision, or "unknown" outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOPATH=os.path.join(build, "gopath"),
               GOTMPDIR=tmp, TMPDIR=tmp,
               GOPROXY="off", GOTOOLCHAIN="local",
               GOWORK="off", CGO_ENABLED="0")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."],
                           cwd=HERE, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [binary,
           "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-spans-dir", os.path.join(build, "spans"),
           "-work-dir", os.path.join(build, "work"),
           "-commit", commit()]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
