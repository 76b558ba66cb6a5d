#!/usr/bin/env python3
"""Build and run the wfde benchmark.

    python3 wfdebench/run.py --workload msgpass --seed 1 --seconds 30 --trace 0
    python3 wfdebench/run.py --workload all       # every workload, untraced

Run from the root of a wfde checkout. The script builds
wfdebench/wfdebench.exe and wfdebench/calib.exe with dune, runs the
workload and prints its lines. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The exit
status is 0 only when every unit's output matched the reference.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "wfdebench", "wfdebench.exe")
WORKLOADS = ["msgpass", "shm", "check", "serve"]
RUN_TIMEOUT_S = 170


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.exit("wfdebench: run.py must sit in a wfde checkout "
                 "(dune-project and lib/ not found)")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "./wfdebench/wfdebench.exe", "./wfdebench/calib.exe"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=870)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        sys.exit("wfdebench: build failed")


def run_one(workload, seed, seconds, trace):
    p = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=RUN_TIMEOUT_S)
    lines = p.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(p.stdout + p.stderr)
        sys.exit("wfdebench: %s produced no result" % workload)
    for line in lines[:-1]:
        print(line)
    sys.stderr.write(p.stderr)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    build()
    if a.workload == "all":
        results = {w: run_one(w, a.seed, a.seconds, a.trace)
                   for w in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        result = run_one(a.workload, a.seed, a.seconds, a.trace)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
