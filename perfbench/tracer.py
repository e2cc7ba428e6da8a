"""Outside-in tracer: wraps public functions of the `novikov` modules at
run time, from outside the package, and records one span per call.

Spans are kept in memory as parallel arrays (function, parent span,
item, start, end) in the order the calls started, and can be written out
with `dump` when the run ends.  A span's self time is its duration minus
the part of its interval that its child spans cover (`self_times`).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array


def self_times(parents, starts, ends, holes=()):
    """Self time of every span.  Spans must be listed in the order they
    started, parents before children, as the tracer records them; a
    parent index of -1 marks a root.  Child intervals are clipped to
    the parent's and overlapping children are counted once.  `holes`
    are sorted (begin, end) intervals of work that is not the program's
    (the host-speed samples, taken on a timer signal); each is taken out
    of the innermost span open around it."""
    n = len(starts)
    covered = [0.0] * n
    reach = list(starts)          # furthest point of each span covered so far
    for s in range(n):
        p = parents[s]
        if p < 0:
            continue
        lo = max(starts[s], reach[p])
        hi = min(ends[s], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    open_, s = [], 0              # spans open at the current hole
    for begin, end in holes:
        while s < n and starts[s] <= begin:
            open_.append(s)
            s += 1
        while open_ and ends[open_[-1]] <= begin:
            open_.pop()
        if open_:
            covered[open_[-1]] += end - begin
    return [ends[s] - starts[s] - covered[s] for s in range(n)]


def _resolve(modules, target):
    """(owner object, attribute, original) for "module.func",
    "module.Class.method" or "module.Class" (its __init__)."""
    parts = target.split(".")
    owner = modules[parts[0]]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    obj = getattr(owner, parts[-1])
    if isinstance(obj, type):
        return obj, "__init__", obj.__dict__["__init__"]
    return owner, parts[-1], obj


class Tracer:
    """Records spans for wrapped functions; `item` labels the spans with
    the workload item running when they start (-1 during set-up)."""

    def __init__(self, package="novikov"):
        self.package = package
        self.names = []
        self.fn = array("i")
        self.parent = array("i")
        self.span_item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.item = -1
        self.counters = {}        # name -> [calls]
        self.outcomes = {}        # name -> [useful, attempts]
        self._stack = [-1]
        self._patches = []

    # -- installing -----------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        mods = {name[len(prefix):]: mod for name, mod in sys.modules.items()
                if name.startswith(prefix)}
        mods[""] = sys.modules[self.package]
        return mods

    def _patch(self, owner, attr, original, replacement):
        """Replace `original` on its owner and, for module-level
        functions, everywhere a module of the package imported it."""
        owners = [owner]
        if not isinstance(owner, type):
            owners = [m for m in self._modules().values()
                      if m.__dict__.get(attr) is original]
        for o in owners:
            self._patches.append((o, attr, original))
            setattr(o, attr, replacement)

    def span(self, target, outcome=None):
        """Record a span for every call of `target`.  `outcome(result)`
        may return (useful, attempts) increments for a ratio."""
        owner, attr, original = _resolve(self._modules(), target)
        ix = len(self.names)
        self.names.append(target)
        if outcome is not None:
            self.outcomes[target] = [0, 0]
        fn, parent, span_item = self.fn, self.parent, self.span_item
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            s = len(start)
            fn.append(ix)
            parent.append(stack[-1])
            span_item.append(tracer.item)
            end.append(0.0)
            stack.append(s)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[s] = clock()
                stack.pop()
            if outcome is not None:
                useful, attempts = outcome(result)
                acc = tracer.outcomes[target]
                acc[0] += useful
                acc[1] += attempts
            return result

        self._patch(owner, attr, original, traced)

    def count(self, target, name):
        """Count calls of `target` under `name`, without spans."""
        owner, attr, original = _resolve(self._modules(), target)
        box = self.counters.setdefault(name, [0])

        @functools.wraps(original)
        def counted(*args, **kwargs):
            box[0] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, counted)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ------------------------------------------------------

    def summary(self, holes=()):
        """{name: (calls, self seconds)} over every recorded span, with
        `holes` taken out as in `self_times`."""
        calls = [0] * len(self.names)
        selfs = [0.0] * len(self.names)
        for f, t in zip(self.fn, self_times(self.parent, self.start,
                                            self.end, holes)):
            calls[f] += 1
            selfs[f] += t
        return {name: (calls[i], selfs[i])
                for i, name in enumerate(self.names)}

    def dump(self, directory, stem, item_ids):
        """Write <stem>.json (names, items, layout) and <stem>.bin (the
        span arrays, in the order listed in the JSON)."""
        os.makedirs(directory, exist_ok=True)
        arrays = [("fn", self.fn), ("parent", self.parent),
                  ("item", self.span_item), ("start", self.start),
                  ("end", self.end)]
        with open(os.path.join(directory, stem + ".bin"), "wb") as fh:
            for _, arr in arrays:
                arr.tofile(fh)
        header = {
            "spans": len(self.start),
            "names": self.names,
            "items": list(item_ids),
            "arrays": [[key, arr.typecode, arr.itemsize]
                       for key, arr in arrays],
            "byteorder": sys.byteorder,
        }
        with open(os.path.join(directory, stem + ".json"), "w") as fh:
            json.dump(header, fh, indent=1)
