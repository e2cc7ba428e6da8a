"""Time the construction of the Q isomorphism-search candidate pool.

    PYTHONPATH=src python3 tools/bench_iso_pool.py --label after

For each of the 44 catalog bases at its first admissible parameters (the
bases of the iso-q benchmark workload), build the height-3 pool of
`morphisms._candidate_vectors` and time it.  One run covers all 44
bases.  The record appended to BENCH_iso_pool.json (next to `tools/`)
holds the median, minimum and spread (quartile distance over median) of
five run totals in raw and in host-speed reference seconds
(`benchclock`), the pool sizes and a digest of the pools,
the git commit of the checkout the package was imported from, and the
Python version.  Point PYTHONPATH at another checkout's `src` to measure
that version; equal digests mean equal pools, vector for vector.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from fractions import Fraction
from itertools import product

from novikov.catalog import SAMPLE_POOL, load_catalog
from novikov.fields import QQ
from novikov.morphisms import _candidate_vectors

from benchclock import append_record, provenance, summary, timed

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
    raw, ref = [], []
    for _ in range(RUNS):
        pools, raw_s, ref_s = timed(
            lambda: [_candidate_vectors(B, HEIGHT) for B in bases])
        raw.append(raw_s)
        ref.append(ref_s)
    sizes = {}
    for B, pool in zip(bases, pools):
        sizes.setdefault(str(B.dim), set()).add(len(pool))
    # the digest is of the vectors as field elements, as earlier
    # versions built them
    pools = [[tuple(map(QQ.wrap, v)) for v in pool] for pool in pools]
    record = {
        **provenance(args.label),
        "bases": len(bases),
        "height": HEIGHT,
        **summary(raw, ref),
        "pool_sizes_by_dim": {d: sorted(n) for d, n in sorted(sizes.items())},
        "pool_digest": hashlib.sha256(repr(pools).encode()).hexdigest()[:16],
    }
    append_record(OUT, record)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
