"""Time the F_p extension procedure on three catalog bases.

    PYTHONPATH=src python3 tools/bench_fp_orbits.py --label after

Runs `fplab.run_procedure_fp_report` on M4_01 over F_2 at s = 1 and on
N3s_01 over F_3 at s = 1 and s = 2, five times each.  The record
appended to BENCH_fp_orbits.json (next to `tools/`) holds, per run, the
median, minimum and spread (quartile distance over median) of the five
times in raw and in host-speed reference seconds (`benchclock`), the
report's counts and a digest of its classes and class points, plus the
git commit of the checkout the package was imported from and the Python
version.  Point PYTHONPATH at another
checkout's `src` to measure that version; equal digests mean equal
reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os

from novikov.catalog import load_catalog
from novikov.fields import PrimeField
from novikov.fplab import run_procedure_fp_report

from benchclock import append_record, provenance, summary, timed

RUNS = (("M4_01", 2, 1), ("N3s_01", 3, 1), ("N3s_01", 3, 2))
REPEATS = 5
COUNTS = ("h2_dim", "aut_order", "points", "distinct_actions", "orbits",
          "admissible_orbits", "merged")
OUT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_fp_orbits.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True,
                    help="name of the measured version, e.g. before/after")
    args = ap.parse_args()

    cat = load_catalog()
    results = {}
    for key, p, s in RUNS:
        A = cat.bases[key].algebra(PrimeField(p), {})
        raw, ref = [], []
        for _ in range(REPEATS):
            rep, raw_s, ref_s = timed(run_procedure_fp_report, A, s)
            raw.append(raw_s)
            ref.append(ref_s)
        classes = (rep["class_points"], [B.to_json() for B in rep["classes"]])
        rid = f"{key}/F{p}/s={s}"
        results[rid] = {
            **summary(raw, ref),
            "counts": {k: rep[k] for k in COUNTS if k in rep},
            "classes": len(rep["classes"]),
            "digest": hashlib.sha256(json.dumps(
                classes, sort_keys=True).encode()).hexdigest()[:16],
        }
        print(rid, json.dumps(results[rid]), flush=True)
    append_record(OUT, {**provenance(args.label), "runs": results})


if __name__ == "__main__":
    main()
