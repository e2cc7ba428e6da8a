"""Time the F_p extension procedure on three catalog bases.

    PYTHONPATH=src python3 tools/bench_fp_orbits.py --label after

Runs `fplab.run_procedure_fp_report` on M4_01 over F_2 at s = 1, on
N3s_01 over F_3 at s = 1 and s = 2, on N3s_04z over F_3 at s = 2 and on
M4_01 over F_3 at s = 1, five times each (`--repeats` sets another
count, at least 2, for a version whose slowest row takes minutes).  The
record appended to BENCH_fp_orbits.json (next to `tools/`) holds, per
run, the median, minimum and spread (quartile distance over median) of
the times in raw and in host-speed reference seconds (`benchclock`), the
report's counts and a digest of its classes and class points, plus the
git commit of the checkout the package was imported from and the Python
version.  Point PYTHONPATH at another checkout's `src` to measure that
version; equal digests mean equal reports.
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

RUNS = (("M4_01", 2, 1), ("N3s_01", 3, 1), ("N3s_01", 3, 2),
        ("N3s_04z", 3, 2), ("M4_01", 3, 1))
COUNTS = ("h2_dim", "aut_order", "points", "distinct_actions", "orbits",
          "admissible_orbits", "merged", "census_splits", "dedupe_searches")
OUT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_fp_orbits.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True,
                    help="name of the measured version, e.g. before/after")
    ap.add_argument("--repeats", type=int, default=5,
                    help="runs per row (at least 2; default 5)")
    args = ap.parse_args()
    if args.repeats < 2:
        ap.error("--repeats must be at least 2")

    cat = load_catalog()
    results = {}
    for key, p, s in RUNS:
        A = cat.bases[key].algebra(PrimeField(p), {})
        raw, ref = [], []
        for _ in range(args.repeats):
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
