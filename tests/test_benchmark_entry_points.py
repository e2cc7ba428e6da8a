"""The benchmark's entry points still exist in the package.

perfbench's traced run wraps the functions named in `run.SPANS` and
counts `fields.FieldElement.__init__`; its workloads call library
functions (`fplab.specialized_entries_fp`, `catalog.verify_entry`, ...)
by name.  perfbench/tests is not part of this suite, so a rename in
`src/` would otherwise break only the benchmark.  These tests resolve
every name with the benchmark's own resolver and run one item of each
workload, plus fp-procedure's M4_01/F2 cross-check, on the modules this
suite already imported (a fresh import would reload the package under
the other tests).
"""

import importlib
import os
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MODULES = {m: importlib.import_module("novikov." + m)
           for m in workloads.MODULES}
NV = SimpleNamespace(**MODULES)


@pytest.mark.parametrize("target",
                         run.SPANS + ("fields.FieldElement.__init__",))
def test_traced_names_resolve(target):
    owner, attr, original = tracer._resolve(MODULES, target)
    assert callable(original) and getattr(owner, attr) is original


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_first_item_is_correct(name):
    (item,) = workloads.build(NV, name, 1, limit=1)
    assert item.check(item.run()) == []


def test_fp_procedure_crosscheck_item_is_correct():
    (item,) = [it for it in workloads.build(NV, "fp-procedure", 1)
               if it.id == "M4_01/F2"]
    assert item.check(item.run()) == []
