"""Timing and provenance shared by the bench tools.

The hosts these tools run on share their cores, and their speed drifts,
so raw seconds from two records taken minutes apart can read backwards.
`timed` therefore measures each call twice: in raw seconds, and in
reference seconds through `perfbench/hostspeed.HostSpeed` (the call's
length at the host speed where that module's fixed kernel takes its
REFERENCE time).  Compare records by their reference seconds; the raw
seconds stay next to them, comparable with records that predate them.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from hostspeed import HostSpeed  # noqa: E402


def timed(fn, *args):
    """(fn(*args), raw seconds, reference seconds) of one call.  The
    host-speed samples taken during the call are left out of both."""
    with HostSpeed() as speed:
        start = time.perf_counter()
        result = fn(*args)
        stop = time.perf_counter()
    sampling = sum(e - b for b, e in zip(speed.begin, speed.end)
                   if start < b < stop)
    return result, stop - start - sampling, speed.normalize(start, stop)


def summary(raw, ref):
    """Per-run and summary statistics of raw and reference seconds:
    each run, the median, the minimum and the spread (quartile distance
    over the median).  Seconds keep 6 decimals, so sub-millisecond rows
    read as more than 0."""
    out = {}
    for tag, times in (("", raw), ("_ref", ref)):
        q1, _, q3 = statistics.quantiles(times, n=4)
        median = statistics.median(times)
        out.update({
            f"runs{tag}_s": [round(t, 6) for t in times],
            f"median{tag}_s": round(median, 6),
            f"min{tag}_s": round(min(times), 6),
            f"spread{tag}": round((q3 - q1) / median, 3) if median else 0.0,
        })
    return out


def provenance(label):
    """The head of a record: the label, the git commit of the checkout
    the package was imported from (marked -dirty when its src/ has
    uncommitted changes; None when the checkout is not a git work tree,
    such as a `git archive` copy), the Python version and the CPU
    count."""
    import novikov
    checkout = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(novikov.__file__))))

    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        dirty = git("status", "--porcelain", "--", "src")
        commit = git("rev-parse", "--short", "HEAD") + \
            ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"label": label, "commit": commit,
            "python": platform.python_version(),
            "cpus": os.cpu_count()}


def append_record(path, record):
    """Append record to the JSON list in the file at path."""
    records = []
    if os.path.exists(path):
        with open(path) as fh:
            records = json.load(fh)
    records.append(record)
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
