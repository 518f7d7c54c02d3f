#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # every workload, as a table

Builds perfbench/perfbench.exe from source with dune (release profile,
build directory .bench_build), runs one workload and prints its result
as the last line of stdout: one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero without a result when the
build or the run fails, or when the metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ["kernels", "kernels-exec", "serve-zipf"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: dune-project or lib/ is missing")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/perfbench.exe",
           "./perfbench/probe.exe"]
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (dune exit %d)" % r.returncode)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None if absent."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(workload, seed, seconds, trace):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                           universal_newlines=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("%s: %s" % (workload, e))
    if r.returncode != 0:
        fail("%s: exit %d" % (workload, r.returncode))
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s: no result line" % workload)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: malformed result" % workload)
    declared = declared_metrics(trace)
    if declared is not None and list(result["metrics"]) != declared:
        fail("%s: metrics differ from BENCHMARK.json" % workload)
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    build()
    if a.workload != "all":
        print(json.dumps(run(a.workload, a.seed, a.seconds, a.trace)))
        return
    results = {w: run(w, a.seed, a.seconds, a.trace) for w in WORKLOADS}
    names = list(results[WORKLOADS[0]]["metrics"])
    print("%-28s %-7s" % ("metric", "unit") + "".join("%16s" % w for w in WORKLOADS))
    for n in names:
        unit = results[WORKLOADS[0]]["metrics"][n]["unit"]
        print("%-28s %-7s" % (n, unit)
              + "".join("%16.6g" % results[w]["metrics"][n]["value"] for w in WORKLOADS))
    print("%-36s" % "correct" + "".join("%16s" % results[w]["correct"] for w in WORKLOADS))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (w, n): v for w, r in results.items()
                    for n, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
