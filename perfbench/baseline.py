"""Record a baseline: ``python3 perfbench/baseline.py [--out F]``.

Runs every workload of BENCHMARK.json once per seed 1..10 with tracing off,
plus one traced run per workload on seed 1, and writes to F (default
``perfbench/baseline.json``) the per-run results, each end-to-end metric's
median, quartiles and spread (interquartile range over median), the
per-layer numbers, and the Python version, CPU count, CPU model and git
commit they were measured on; then prints every end-to-end metric of every
workload by name, with its median, unit and spread.  Takes about
4 * 11 * (run_seconds + 3) seconds.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed:\n%s"
                           % (workload, seed, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu,
            "date": time.strftime("%Y-%m-%d", time.gmtime())}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=str(HERE / "baseline.json"))
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    doc = dict(machine(), run_seconds=seconds, seeds=list(SEEDS),
               workloads={})
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for seed in SEEDS:
            r = run_once(name, seed, seconds, 0)
            runs.append({"seed": seed, "attempted": r["attempted"],
                         "failed": r["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in r["metrics"].items()}})
            print(name, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        traced = run_once(name, 1, seconds, 1)
        doc["workloads"][name] = {
            "why": w["why"],
            "end_to_end": {m["name"]: dict(describe(
                [r["metrics"][m["name"]] for r in runs]), unit=m["unit"],
                bound=m["bound"]) for m in spec["end_to_end"]},
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "per_layer_seed1": {k: v["value"]
                                for k, v in traced["metrics"].items()},
            "runs": runs,
        }
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    for name, w in doc["workloads"].items():
        for metric, d in w["end_to_end"].items():
            print("%-14s %-13s median %-11.5g %-3s spread %.3f (bound %.2f)"
                  % (name, metric, d["median"], d["unit"], d["spread"],
                     d["bound"]))


if __name__ == "__main__":
    main()
