"""Time the construction of the Q isomorphism-search candidate pool.

    PYTHONPATH=src python3 tools/bench_iso_pool.py --label after

For each of the 44 catalog bases at its first admissible parameters (the
bases of the iso-q benchmark workload), build the height-3 pool of
`morphisms._candidate_vectors` and time it.  One run covers all 44
bases.  The record appended to BENCH_iso_pool.json (next to `tools/`)
holds the median, minimum and spread (quartile distance over median) of
five run totals in raw seconds, the pool sizes and a digest of the pools,
the git commit of the checkout the package was imported from, and the
Python version.  Point PYTHONPATH at another checkout's `src` to measure
that version; equal digests mean equal pools, vector for vector.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import time
from fractions import Fraction
from itertools import product

import novikov
from novikov.catalog import SAMPLE_POOL, load_catalog
from novikov.fields import QQ
from novikov.morphisms import _candidate_vectors

HEIGHT = 3
RUNS = 5
OUT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_iso_pool.json")


def first_admissible_env(rec):
    for combo in product(SAMPLE_POOL, repeat=len(rec.params)):
        env = {p: QQ(Fraction(v)) for p, v in zip(rec.params, combo)}
        if rec.check_params(QQ, env):
            return env
    raise ValueError(f"no admissible parameters for {rec.key}")


def git_commit(path):
    def git(*args):
        return subprocess.run(["git", "-C", path, *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    sha = git("rev-parse", "--short", "HEAD")
    return sha + ("-dirty" if git("status", "--porcelain", "--", "src")
                  else "")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True,
                    help="name of the measured version, e.g. before/after")
    args = ap.parse_args()

    cat = load_catalog()
    bases = [rec.algebra(QQ, first_admissible_env(rec))
             for _, rec in sorted(cat.bases.items())]
    for B in bases:
        B.square()   # computed once per algebra, outside the timed runs
    totals = []
    for _ in range(RUNS):
        start = time.perf_counter()
        pools = [_candidate_vectors(B, HEIGHT) for B in bases]
        totals.append(time.perf_counter() - start)
    sizes = {}
    for B, pool in zip(bases, pools):
        sizes.setdefault(str(B.dim), set()).add(len(pool))
    # the digest is of the vectors as field elements, as earlier
    # versions built them
    pools = [[tuple(map(QQ.wrap, v)) for v in pool] for pool in pools]
    q1, _, q3 = statistics.quantiles(totals, n=4)
    median = statistics.median(totals)
    record = {
        "label": args.label,
        "commit": git_commit(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(novikov.__file__))))),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "bases": len(bases),
        "height": HEIGHT,
        "runs_s": [round(t, 3) for t in totals],
        "median_s": round(median, 3),
        "min_s": round(min(totals), 3),
        "spread": round((q3 - q1) / median, 3),
        "pool_sizes_by_dim": {d: sorted(n) for d, n in sorted(sizes.items())},
        "pool_digest": hashlib.sha256(repr(pools).encode()).hexdigest()[:16],
    }
    records = []
    if os.path.exists(OUT):
        with open(OUT) as fh:
            records = json.load(fh)
    records.append(record)
    with open(OUT, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
