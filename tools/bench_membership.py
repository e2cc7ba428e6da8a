"""Time the catalog membership predicates and the extension laws.

    PYTHONPATH=src python3 tools/bench_membership.py --label after

Two runs, five times each:
  verify-catalog  `catalog.verify_entry` over Q on every default sample
                  of the 218 entries (448 samples), as `verify-catalog`
                  and the catalog-q benchmark workload do;
  criterion-6     the extension laws of acceptance criterion 6
                  (`extension_is_novikov_iff`, `extension_annihilator_law`)
                  on the 44 bases at their first admissible parameters,
                  40 trials per base instead of 500, alternating random
                  Z^2 elements and random matrices as the test does.
Every repeat loads the catalog anew, so each base is specialized once
per (field, base parameter values) in every repeat, as in one
`verify-catalog` run, and nothing cached on a base or an algebra
carries over from one repeat to the next.  The record appended to
BENCH_membership.json (next to `tools/`) holds, per run, the median,
minimum and spread (quartile distance over median) of the five times in
raw and in host-speed reference seconds (`benchclock`) and a digest of
every verdict, plus the git commit of the
checkout the package was imported from and the Python version.  Point
PYTHONPATH at another checkout's `src` to measure that version; equal
digests mean equal verdicts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
from fractions import Fraction

from novikov.catalog import load_catalog, verify_entry
from novikov.cohomology import Cocycle, cocycle_space
from novikov.extensions import (extension_annihilator_law,
                                extension_is_novikov_iff)
from novikov.fields import QQ
from novikov.linalg import Matrix

from bench_iso_pool import first_admissible_env
from benchclock import append_record, provenance, summary, timed

REPEATS = 5
TRIALS = 40
OUT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_membership.json")


def verify_catalog(cat):
    out = []
    for label, entry in cat.entries.items():
        for rep in verify_entry(entry, QQ):
            out.append([label, list(rep["sample"]), rep["checks"]])
    return out


def criterion_6(cat):
    """The trials of acceptance criterion 6, cut to TRIALS per base."""
    rng = random.Random(0)
    out = []
    for key, rec in sorted(cat.bases.items()):
        A = rec.algebra(QQ, first_admissible_env(rec))
        zbasis = list(cocycle_space(A).basis)
        n = A.dim
        for t in range(TRIALS):
            if t % 2 == 0 and zbasis:
                coeffs = [QQ(Fraction(rng.randint(-3, 3))) for _ in zbasis]
                flat = [sum((c * x for c, x in zip(coeffs, col)), QQ(0))
                        for col in zip(*zbasis)]
                m = Matrix(QQ, [[flat[i * n + j] for j in range(n)]
                                for i in range(n)])
            else:
                m = Matrix(QQ, [[QQ(Fraction(rng.randint(-2, 2)))
                                 for _ in range(n)] for _ in range(n)])
            theta = Cocycle(A, [m], check=False)
            nov, in_z2 = extension_is_novikov_iff(A, theta)
            holds, _ = extension_annihilator_law(A, theta)
            out.append([key, nov, in_z2, holds])
    return out


RUNS = (("verify-catalog", verify_catalog), ("criterion-6", criterion_6))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True,
                    help="name of the measured version, e.g. before/after")
    args = ap.parse_args()

    results = {}
    for rid, run in RUNS:
        raw, ref = [], []
        for _ in range(REPEATS):
            verdicts, raw_s, ref_s = timed(run, load_catalog())
            raw.append(raw_s)
            ref.append(ref_s)
        results[rid] = {
            **summary(raw, ref),
            "verdicts": len(verdicts),
            "digest": hashlib.sha256(json.dumps(
                verdicts, sort_keys=True).encode()).hexdigest()[:16],
        }
        print(rid, json.dumps(results[rid]), flush=True)
    append_record(OUT, {**provenance(args.label), "runs": results})


if __name__ == "__main__":
    main()
