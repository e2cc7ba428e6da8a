"""Time the isomorphism searches of the catalog's noted isomorphisms.

    PYTHONPATH=src python3 tools/bench_iso_search.py --label after

Each row is one `iso_search` between the two sides of a noted
isomorphism (the catalog's `noted_isomorphisms`, as acceptance
criterion 8 builds them), at the default budget and height 3: the five
pairs over Q, then N_087 over F_5.  One run times every row once.  The
record appended to BENCH_iso_search.json (next to `tools/`) holds, per
row, the median, minimum and spread (quartile distance over median) of
five runs in raw and in host-speed reference seconds (`benchclock`) and
a digest of the witness; the same for the
sum of the five Q rows, which is the search time of criterion 8; the
git commit of the checkout the package was imported from, and the
Python version.  Point PYTHONPATH at another checkout's `src` to measure
that version; equal digests mean equal witnesses, entry for entry.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os

from novikov.catalog import load_catalog
from novikov.fields import QQ, PrimeField
from novikov.morphisms import iso_search

from benchclock import append_record, provenance, summary, timed

RUNS = 5
HEIGHT = 3
OUT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_iso_search.json")


def noted_pairs(cat):
    """[(row name, left, right)]: the noted pairs over Q, then N_087
    over F_5."""
    def build(field, spec):
        label, pd = spec
        e = cat.entry(label)
        return e.extension(field, tuple(pd[p] for p in e.params),
                           strict=False)
    rows = []
    for field, name, only in ((QQ, "Q", None), (PrimeField(5), "F5", "N_087")):
        for pair in cat.meta["noted_isomorphisms"]:
            left = pair["left"][0]
            if only in (None, left):
                rows.append((f"{left}/{name}", build(field, pair["left"]),
                             build(field, pair["right"])))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True,
                    help="name of the measured version, e.g. before/after")
    args = ap.parse_args()

    rows = noted_pairs(load_catalog())
    for _, L, R in rows:   # cached invariants, outside the timed runs
        for X in (L, R):
            X.square(), X.annihilator(), X.nilpotency_index()
    raw = {name: [] for name, _, _ in rows}
    ref = {name: [] for name, _, _ in rows}
    digests = {}
    for _ in range(RUNS):
        for name, L, R in rows:
            w, raw_s, ref_s = timed(lambda: iso_search(L, R, height=HEIGHT))
            raw[name].append(raw_s)
            ref[name].append(ref_s)
            digest = hashlib.sha256(repr(
                w.entries if w is not None else None).encode()).hexdigest()
            assert digests.setdefault(name, digest[:16]) == digest[:16]
    q_rows = [name for name in raw if name.endswith("/Q")]

    def q_total(times):
        return [sum(times[name][r] for name in q_rows) for r in range(RUNS)]
    record = {
        **provenance(args.label),
        "height": HEIGHT,
        "rows": {name: dict(summary(raw[name], ref[name]),
                            witness_digest=digests[name]) for name in raw},
        "criterion8_q": summary(q_total(raw), q_total(ref)),
    }
    append_record(OUT, record)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
