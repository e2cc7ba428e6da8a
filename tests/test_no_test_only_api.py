"""Every function and method in `src/novikov` has a caller outside the tests.

Each one defined in `src/novikov/*.py` (dunders aside) must be referenced
from `src/`, `perfbench/*.py` or `tools/*.py`, or be traced by perfbench
(`run.SPANS`).  A module-level or nested function counts as referenced by
its name or as an attribute (`linalg.combine`), a method only as an
attribute (`self.reduce`, `Matrix.identity`); references inside its own
body (recursion) do not count, and neither do the re-exports of
`novikov/__init__.py`.  The few names kept for the tests' sake are listed
in ALLOWED with their reason, so the list cannot grow unnoticed.
"""

import ast
import glob
import os

import novikov

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "novikov")

ACCEPTANCE = "subject of an acceptance criterion"
ORACLE = "test oracle"
EXPORT = "public export in novikov.__all__"
MATRIX = "Matrix op on the keep list"

ALLOWED = {
    "catalog.BaseRecord.automorphism": ACCEPTANCE,
    "catalog.CatalogEntry.find_sample": ACCEPTANCE,
    "catalog.class_coordinates": ACCEPTANCE,
    "fplab.qualifies_as_extension": ACCEPTANCE,
    "fplab.specialized_tables_fp": ACCEPTANCE,
    "morphisms.act_on_cocycle": ACCEPTANCE,
    "cohomology.coboundary_of": ORACLE,
    "cohomology.h2_symmetric_dimension": EXPORT,
    "extensions.extension_is_split": EXPORT,
    "linalg.Matrix.apply": MATRIX,
    "linalg.Matrix.transpose": MATRIX,
}


def _definitions(tree, module):
    """(qualified name, name, is a method, def node) of every function
    and method in the module, nested functions included."""
    out = []

    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}"
                out.append((qual, child.name, in_class, child))
                walk(child, qual, False)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}", True)
            else:
                walk(child, prefix, in_class)

    walk(tree, module, False)
    return out


def _references(node):
    """(names loaded or imported, attribute names) under `node`."""
    names, attrs = [], []
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.append(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.append(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.extend(a.name for a in n.names)
    return names, attrs


def _spans():
    with open(os.path.join(ROOT, "perfbench", "run.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == ["SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no SPANS")


def _unreferenced():
    """Qualified names of the functions and methods in src/novikov that
    nothing outside the tests refers to."""
    files = sorted(glob.glob(os.path.join(SRC, "*.py")))
    callers = [p for p in files if os.path.basename(p) != "__init__.py"]
    callers += sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    callers += sorted(glob.glob(os.path.join(ROOT, "tools", "*.py")))
    trees = {}
    for path in set(files) | set(callers):
        with open(path) as fh:
            trees[path] = ast.parse(fh.read(), path)
    names, attrs = [], []
    for path in callers:
        n, a = _references(trees[path])
        names += n
        attrs += a
    traced = {target.split(".")[-1] for target in _spans()}
    out = []
    for path in files:
        module = os.path.basename(path)[:-3]
        for qual, name, method, node in _definitions(trees[path], module):
            if name.startswith("__") and name.endswith("__"):
                continue
            own_names, own_attrs = _references(node)
            uses = attrs.count(name) - own_attrs.count(name)
            if not method:
                uses += names.count(name) - own_names.count(name)
            if uses <= 0 and name not in traced:
                out.append(qual)
    return out


def test_no_function_in_src_is_test_only():
    extra = sorted(set(_unreferenced()) - set(ALLOWED))
    assert not extra, (
        f"{extra} have no caller in src/, perfbench/ or tools/: call them "
        "there, move them into the tests, or list them in ALLOWED with "
        "their reason")


def test_the_allow_list_is_current():
    # an entry whose name gained a caller, or went away, is stale
    assert sorted(ALLOWED) == sorted(set(_unreferenced()) & set(ALLOWED))
    for qual, reason in ALLOWED.items():
        assert reason in (ACCEPTANCE, ORACLE, EXPORT, MATRIX), qual
        if reason == EXPORT:
            assert qual.split(".")[-1] in novikov.__all__, qual
