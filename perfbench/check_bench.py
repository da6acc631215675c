#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/check_bench.py [--seed N]

Runs perfbench/run.py (which builds first) on every workload, short
runs, and checks:

  * the last stdout line has exactly the keys correct / attempted /
    failed / metrics; --trace 0 reports every end_to_end metric of
    BENCHMARK.json with its unit and a value above zero, --trace 1
    every per_layer metric with its unit;
  * every operation succeeded and was byte-verified (correct, failed 0);
  * every run took at least 1000 write and read samples (1000 restores
    on archive), so each p99 has at least ten samples beyond it;
  * each per-layer metric rests on a nonzero sample count on the
    workloads README.md maps it to;
  * on archive and zipf_flash, two traced runs with one seed report
    identical exact counters.

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
ALL = ("serve", "archive", "zipf_flash")
SIM = ("archive", "zipf_flash")

# Per-layer metric prefix -> workloads on which it must have samples.
COVERAGE = [
    ("runtime.", ("serve",)),
    ("sim.", SIM),
    ("core.", ALL),
    ("pbft.", ALL),
    ("sec.", ALL),
    ("crypto.", ALL),
    ("erasure.", ("archive",)),
    ("archive.", ("archive",)),
    ("storage.", ("archive",)),
    ("recovery.", ("archive",)),
    ("bloom.", ALL),
    ("plaxton.", ALL),
    ("introspect.", ALL),
    ("obs.", ALL),
    ("bench.", ALL),
]

failures = []


def check(ok, msg):
    if not ok:
        failures.append(msg)
        print("FAIL " + msg)


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900, check=False)
    lines = [l for l in done.stdout.splitlines() if l.startswith("{")]
    tag = "%s trace=%d" % (workload, trace)
    check(done.returncode == 0, "%s: exit code %d" % (tag, done.returncode))
    if len(lines) < 2:
        check(False, "%s: no detail and result lines" % tag)
        return None, None
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    exact = {}
    for workload in ALL:
        for trace in (0, 1):
            detail, result = run(workload, args.seed, trace)
            if result is None:
                continue
            tag = "%s trace=%d" % (workload, trace)
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  "%s: result keys %s" % (tag, sorted(result)))
            check(result["correct"] is True and result["failed"] == 0,
                  "%s: correct=%s failed=%s" % (tag, result["correct"], result["failed"]))
            want = layer if trace else e2e
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, "%s: metric names/units differ from BENCHMARK.json" % tag)
            if not trace:
                for name, v in result["metrics"].items():
                    check(v["value"] > 0, "%s: %s is %r" % (tag, name, v["value"]))
            samples = detail["samples"]
            check(samples["write"] >= 1000 and samples["read"] >= 1000,
                  "%s: too few latency samples %s" % (tag, samples))
            if workload == "archive":
                check(samples["restore"] >= 1000,
                      "%s: too few restore samples %s" % (tag, samples))
            if trace:
                for prefix, where in COVERAGE:
                    if workload not in where:
                        continue
                    for name, n in detail["layer_samples"].items():
                        if name.startswith(prefix):
                            check(n > 0, "%s: %s has no samples" % (tag, name))
                exact[workload] = detail["exact"]

    for workload in SIM:
        detail, result = run(workload, args.seed, 1)
        if detail is None:
            continue
        check(detail["exact"] == exact.get(workload),
              "%s: exact counters differ between two runs with seed %d"
              % (workload, args.seed))
        check(len(detail["exact"]) > 0, "%s: no exact counters" % workload)

    print("check_bench: %s" % ("FAILED (%d)" % len(failures) if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
