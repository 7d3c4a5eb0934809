#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload chase-tc --runs 10 [--first-seed 1]

Runs the benchmark once per seed (untraced, BENCHMARK.json's run_seconds)
and prints, for each end-to-end metric the workload reports, the median
of the runs and the distance between the first and third quartile as a
share of that median, beside the metric's bound.  Each run's result line
is appended to --log (default: none) as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--log")
    a = p.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        t0 = time.time()
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, check=True).stdout.decode()
        res = json.loads(out.strip().splitlines()[-1])
        if a.log:
            with open(a.log, "a") as fh:
                fh.write(json.dumps({"workload": a.workload, "seed": seed, **res}) + "\n")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d (%.1f s): correct=%s failed=%d/%d %s" % (
            seed, time.time() - t0, res["correct"], res["failed"], res["attempted"],
            " ".join("%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())),
            flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        print("%-16s median %12.5g  iqr/median %6.3f  bound %s" % (
            name, med, (q[2] - q[0]) / med, bounds.get(name)))


if __name__ == "__main__":
    main()
