"""Do two sets of benchmark runs of the same code agree within the
benchmark's bounds?

    python3 perfbench/agree.py

Runs the command in BENCHMARK.json one process at a time, each with its
own seed, RUNS times per workload and set.  For every end-to-end metric
it prints, per set, the median and the spread (distance between the
first and third quartile, as a share of the median).  A metric agrees
when each set's spread is within its bound and the two medians differ,
either way, by no more than the bound as a share of the first.  Exits 1
if any metric of any workload disagrees or any run failed.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUNS = 10


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"(exit {proc.returncode}): {proc.stderr[-500:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True
    seed = 1
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = []
        for _ in range(2):
            runs = []
            for _ in range(RUNS):
                runs.append(run_once(spec, workload, seed))
                seed += 1
            sets.append(runs)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians, spreads = [], []
            for runs in sets:
                values = [r[name] for r in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            apart = abs(medians[1] - medians[0]) / medians[0]
            good = all(s <= bound for s in spreads) and apart <= bound
            ok = ok and good
            print(f"{workload:13s} {name:12s} bound {bound:.2f}  "
                  + "  ".join(f"median {md:.4g} spread {sp:.3f}"
                              for md, sp in zip(medians, spreads))
                  + f"  apart {apart:.3f}"
                  + ("" if good else "  DISAGREES"), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
