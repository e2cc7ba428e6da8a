"""Benchmark of the novikov package: one seeded workload per run.

    python3 perfbench/run.py --workload catalog-q --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  A run builds the workload's items from the seed (set-up, timed
fifteen times with a fresh import each time), then calls the items in the
seed's order, pass after pass, until --seconds have gone by and at least
one full pass is done.  Every verdict is checked against the known
answers in oracle.py.  Times are in reference seconds: measured seconds
rescaled to an idle host's speed by hostspeed.py.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones:
    wall_s        time to all verdicts of one pass: the sum over items
                  of each item's median latency in this run
    setup_s       median time of the fifteen set-ups (import,
                  load_catalog and input generation)
    item_p50_ms   median over items of each item's median latency
    peak_rss_mb   peak resident memory of this process
and a line on stderr before it adds the raw (unscaled) pass time, the
failed share and, where there are at least 11 items, the latency at the
highest percentile with ten items beyond it.
With --trace 1 the run makes one untraced pass (cut after 2 x --seconds)
and one traced pass over the same items and reports per-layer metrics from
spans recorded around the package's public functions (see tracer.py):
    <layer>.<function>.calls and .self_pct (share of traced time),
    fields.FieldElement.created, the ratios morphisms.iso_search.found_ratio
    and fplab.admissible_ratio, trace.wall_s and trace_overhead.
The spans are written to perfbench/traces/<workload>.{json,bin}.

The process exits 0 only when every verdict matched the known answer.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUPS = 15

#: functions given spans in the traced run, by layer
SPANS = (
    "linalg.Matrix.rref", "linalg.Matrix.kernel", "linalg.Matrix.solve",
    "linalg.Matrix.rank", "linalg.Matrix.inverse",
    "linalg.Subspace.__init__", "linalg.Subspace.member",
    "exprs.Expr.evaluate",
    "algebra.Algebra.is_novikov", "algebra.Algebra.square",
    "algebra.Algebra.annihilator", "algebra.Algebra.power_filtration",
    "algebra.Algebra.multiply", "algebra.Algebra.change_basis",
    "cohomology.cocycle_space", "cohomology.Cocycle", "cohomology.h2_basis",
    "cohomology.in_Ts",
    "extensions.central_extension",
    "morphisms.iso_search", "morphisms.enumerate_aut_fp",
    "morphisms.derivation_algebra",
    "invariants.fingerprint",
    "fplab.run_procedure_fp_report", "fplab.induced_h2_matrices",
    "fplab.crosscheck",
    "catalog.load_catalog", "catalog.verify_entry",
)

#: ratios of useful outcomes to attempts: metric -> (span, outcome)
RATIOS = {
    "morphisms.iso_search.found_ratio":
        ("morphisms.iso_search", lambda w: (w is not None, 1)),
    "fplab.admissible_ratio":
        ("fplab.run_procedure_fp_report",
         lambda rep: (rep["admissible_orbits"], rep["orbits"])),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, default=None,
                   help="keep only the first N items (smoke tests)")
    return p.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


class Outcomes:
    """Verdicts and timed intervals of item calls, checked as they
    arrive; intervals are converted to reference seconds by `speed`."""

    def __init__(self, speed):
        self.speed = speed
        self.spans = {}       # item id -> [(start, end), ...]
        self.verdict = {}     # item id -> first verdict
        self.attempted = 0
        self.failed = 0

    def call(self, item):
        # start each item from a collected heap: every iso_search leaves
        # its candidate pool in a reference cycle, and peak memory would
        # otherwise depend on how many earlier pools the collector missed.
        # The package never collects like this, so peak_rss_mb does not
        # show the cycle, nor a later fix of it.
        gc.collect()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            v = item.run()
        except Exception as e:  # a raising item is a failed verdict
            print(f"{item.id}: raised {type(e).__name__}: {e}",
                  file=sys.stderr)
            self.failed += 1
            return
        self.spans.setdefault(item.id, []).append((t0, time.perf_counter()))
        problems = item.check(v)
        first = self.verdict.setdefault(item.id, v)
        if first != v:
            problems.append("verdict differs from an earlier pass")
        if problems:
            self.failed += 1
            print(f"{item.id}: " + "; ".join(problems), file=sys.stderr)

    def medians(self, items, normalized=True):
        """Each item's median latency (reference seconds, or raw)."""
        out = []
        for it in items:
            spans = self.spans.get(it.id)
            if spans:
                out.append(statistics.median(
                    self.speed.normalize(a, b) if normalized else b - a
                    for a, b in spans))
        return out


def run_timed(items, seconds, speed):
    """Pass after pass in the seed's order.  After the first full pass,
    stop before an item that would end past `seconds`."""
    out = Outcomes(speed)
    t0 = time.perf_counter()
    first_pass = True
    while True:
        for it in items:
            if not first_pass:
                a, b = out.spans.get(it.id, [(0.0, 0.0)])[-1]
                if time.perf_counter() - t0 + (b - a) > seconds:
                    return out
            out.call(it)
        first_pass = False


def end_to_end(out, items, setup_s):
    medians = out.medians(items)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": metric(sum(medians), "s"),
        "setup_s": metric(setup_s, "s"),
        "item_p50_ms": metric(1000 * statistics.median(medians), "ms"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
    }


def traced_pass(workloads, nv, args, speed, count):
    """A traced set-up, then a traced pass over the first `count` items."""
    from tracer import Tracer

    tracer = Tracer()
    outcomes = {span: f for span, f in RATIOS.values()}
    for target in SPANS:
        tracer.span(target, outcomes.get(target))
    tracer.count("fields.FieldElement.__init__", "fields.FieldElement.created")
    t0 = time.perf_counter()
    try:
        items = workloads.build(nv, args.workload, args.seed,
                                args.limit)[:count]
        traced = Outcomes(speed)
        for k, it in enumerate(items):
            tracer.item = k
            traced.call(it)
        tracer.item = -1
    finally:
        tracer.uninstall()
    tracer.dump(os.path.join(HERE, "traces"), args.workload,
                [it.id for it in items])
    return traced, tracer, (t0, time.perf_counter()), items


def per_layer(tracer, window, speed, traced, plain, items):
    for it in items:
        if traced.verdict.get(it.id) != plain.verdict.get(it.id):
            traced.failed += 1
            print(f"{it.id}: traced verdict differs from untraced",
                  file=sys.stderr)
    # the host-speed samples taken during the traced pass are not the
    # program's work: leave them out of the spans they fell in, and of
    # the total the shares are taken of
    t0, t1 = window
    holes = [(b, e) for b, e in zip(speed.begin, speed.end)
             if t0 <= b and e <= t1]
    total = t1 - t0 - sum(e - b for b, e in holes)
    metrics = {}
    for name, (calls, self_s) in tracer.summary(holes).items():
        metrics[name + ".calls"] = metric(calls, "count")
        metrics[name + ".self_pct"] = metric(100 * self_s / total, "%")
    metrics["fields.FieldElement.created"] = metric(
        tracer.counters["fields.FieldElement.created"][0], "count")
    for name, (span, _) in RATIOS.items():
        useful, attempts = tracer.outcomes[span]
        metrics[name] = metric(useful / attempts if attempts else 0.0,
                               "ratio")
    traced_s = sum(traced.medians(items))
    metrics["trace.wall_s"] = metric(traced_s, "s")
    metrics["trace_overhead"] = metric(traced_s / sum(plain.medians(items)),
                                       "ratio")
    return metrics


def tail(medians):
    """Highest percentile with at least ten items beyond it, or None."""
    n = len(medians)
    if n < 11:
        return None
    return {"item_tail_ms": 1000 * sorted(medians)[n - 11],
            "tail_percentile": 100 * (n - 10) / n, "tail_items": n}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "novikov")):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    with HostSpeed() as speed:
        setup_times = []
        for _ in range(SETUPS):
            speed.sample()      # the host's speed right at each set-up
            t0 = time.perf_counter()
            nv = workloads.import_fresh()
            items = workloads.build(nv, args.workload, args.seed, args.limit)
            setup_times.append((t0, time.perf_counter()))
        speed.sample()
        if args.trace:
            # untraced pass, cut short on a slow host so that the traced
            # pass over the same items still ends in time
            plain = Outcomes(speed)
            t0 = time.perf_counter()
            for it in items:
                if time.perf_counter() - t0 > 2 * args.seconds:
                    break
                plain.call(it)
            traced, tracer, window, items = traced_pass(
                workloads, nv, args, speed, plain.attempted)
        else:
            out = run_timed(items, args.seconds, speed)
    setup_s = statistics.median(speed.normalize(a, b) for a, b in setup_times)

    if args.trace:
        metrics = per_layer(tracer, window, speed, traced, plain, items)
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
    else:
        metrics = end_to_end(out, items, setup_s)
        attempted, failed = out.attempted, out.failed
        print(json.dumps({
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "items": len(items), "passes": round(attempted / len(items), 2),
            "failed_share": failed / attempted,
            "raw_wall_s": sum(out.medians(items, normalized=False)),
            "kernel_s_median": statistics.median(speed.took),
            **(tail(out.medians(items)) or {})}), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
