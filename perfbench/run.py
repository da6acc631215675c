#!/usr/bin/env python3
"""Build and run the OceanStore end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload serve|archive|zipf_flash \
        --seed N --seconds S --trace 0|1

The first run configures and compiles perfbench/CMakeLists.txt (the
repository's src/ tree, optimised, with the threaded runtime on) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
check that the build is up to date.  Build output goes to stderr.  The
benchmark's own output goes to stdout, and its last line is the JSON
result.  With --trace 1 the spans are also written to
<build dir>/traces/<workload>-seed<N>.jsonl.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve", "archive", "zipf_flash")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no OceanStore sources at %s; run from a full checkout" % (ROOT / "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "oceanbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            fail("build step %s exited %d" % (" ".join(cmd[:2]), done.returncode))
    return bdir / "oceanbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = bdir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / ("%s-seed%d.jsonl" % (args.workload, args.seed)))]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
