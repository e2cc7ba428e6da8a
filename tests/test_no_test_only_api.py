"""Every function and method in `src/novikov` has a caller outside the tests.

Each one defined in `src/novikov/*.py` (dunders aside) must be referenced
from `src/`, `perfbench/*.py` or `tools/*.py`, or be traced by perfbench
(`run.SPANS`, by qualified name).  What counts as a reference:

- a module-level or nested function: its bare name, or, for a
  module-level one, an attribute whose receiver names its module
  (`linalg.combine`, `nv.catalog.verify_entry`);
- a staticmethod: an attribute whose receiver names its class
  (`Matrix.identity`, or `self` inside the class);
- any other method: an attribute whose receiver is not an imported
  module (`self.reduce`, `B.annihilator`, but not `json.dumps`).

References inside its own body (recursion) do not count, and neither do
the re-exports of `novikov/__init__.py`.  The few names kept for the
tests' sake are listed in ALLOWED with their reason, so the list cannot
grow unnoticed.
"""

import ast
import glob
import os
from collections import Counter

import novikov

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "novikov")

ACCEPTANCE = "subject of an acceptance criterion"
EXPORT = "public export in novikov.__all__"
MATRIX = "Matrix op on the keep list"

ALLOWED = {
    "catalog.BaseRecord.automorphism": ACCEPTANCE,
    "catalog.CatalogEntry.find_sample": ACCEPTANCE,
    "catalog.class_coordinates": ACCEPTANCE,
    "fplab.qualifies_as_extension": ACCEPTANCE,
    "fplab.specialized_tables_fp": ACCEPTANCE,
    "linalg.Matrix.zero": ACCEPTANCE,
    "morphisms.act_on_cocycle": ACCEPTANCE,
    "cohomology.h2_symmetric_dimension": EXPORT,
    "extensions.extension_is_split": EXPORT,
    "linalg.Matrix.apply": MATRIX,
    "linalg.Matrix.transpose": MATRIX,
}


def _definitions(tree, module):
    """(qualified name, name, kind, owner, def node) of every function
    and method in the module, nested functions included.  kind is
    "function" (module level), "nested", "method" or "static"; owner is
    the module's name for a function and the class's name for a
    method."""
    out = []

    def walk(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}"
                if isinstance(node, ast.ClassDef):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in child.decorator_list)
                    kind = "static" if static else "method"
                else:
                    kind = "function" if node is tree else "nested"
                out.append((qual, child.name, kind, owner, child))
                walk(child, qual, owner)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}", child.name)
            else:
                walk(child, prefix, owner)

    walk(tree, module, module)
    return out


def _imported_modules(tree):
    """The names that `import` statements bind to modules."""
    return {a.asname or a.name.split(".")[0]
            for n in ast.walk(tree) if isinstance(n, ast.Import)
            for a in n.names}


def _references(node, modules, cls=None):
    """Counter of the references under `node`, which lies in the class
    `cls` (if any): ("name", id) for a name loaded or imported, and
    ("attr", attr, receiver, module) for an attribute loaded, where
    receiver is the last name of a `name.name...` receiver (`self` read
    as the enclosing class, "" for any other expression) and module says
    whether the receiver is a name of the imported `modules`."""
    refs = Counter()

    def visit(n, cls):
        if isinstance(n, ast.ClassDef):
            cls = n.name
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            refs["name", n.id] += 1
        elif isinstance(n, ast.ImportFrom):
            refs.update(("name", a.name) for a in n.names)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            v = n.value
            if isinstance(v, ast.Name):
                receiver = cls if v.id == "self" else v.id
            else:
                receiver = v.attr if isinstance(v, ast.Attribute) else ""
            module = isinstance(v, ast.Name) and v.id in modules
            refs["attr", n.attr, receiver, module] += 1
        for child in ast.iter_child_nodes(n):
            visit(child, cls)

    visit(node, cls)
    return refs


def _uses(refs, name, kind, owner):
    """How many of `refs` refer to the definition `name` of this kind."""
    def counts(ref):
        if ref[0] == "name":
            return kind in ("function", "nested") and ref[1] == name
        if ref[1] != name or kind == "nested":
            return False
        return not ref[3] if kind == "method" else ref[2] == owner
    return sum(c for ref, c in refs.items() if counts(ref))


def _unreferenced(files, callers, traced):
    """Qualified names of the functions and methods in the source files
    `files` that no file of `callers` refers to and `traced` (qualified
    names) does not list."""
    trees, modules = {}, {}
    for path in set(files) | set(callers):
        with open(path) as fh:
            trees[path] = ast.parse(fh.read(), path)
        modules[path] = _imported_modules(trees[path])
    refs = Counter()
    for path in callers:
        refs.update(_references(trees[path], modules[path]))
    out = []
    for path in files:
        module = os.path.basename(path)[:-3]
        for qual, name, kind, owner, node in _definitions(trees[path],
                                                          module):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = _references(node, modules[path], owner)
            uses = _uses(refs, name, kind, owner) - \
                _uses(own, name, kind, owner)
            if uses <= 0 and qual not in traced:
                out.append(qual)
    return out


def _spans():
    with open(os.path.join(ROOT, "perfbench", "run.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == ["SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no SPANS")


def _unreferenced_in_src():
    files = sorted(glob.glob(os.path.join(SRC, "*.py")))
    callers = [p for p in files if os.path.basename(p) != "__init__.py"]
    callers += sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    callers += sorted(glob.glob(os.path.join(ROOT, "tools", "*.py")))
    return _unreferenced(files, callers, set(_spans()))


def test_no_function_in_src_is_test_only():
    extra = sorted(set(_unreferenced_in_src()) - set(ALLOWED))
    assert not extra, (
        f"{extra} have no caller in src/, perfbench/ or tools/: call them "
        "there, move them into the tests, or list them in ALLOWED with "
        "their reason")


def test_the_allow_list_is_current():
    # an entry whose name gained a caller, or went away, is stale
    assert sorted(ALLOWED) == sorted(set(_unreferenced_in_src())
                                     & set(ALLOWED))
    for qual, reason in ALLOWED.items():
        assert reason in (ACCEPTANCE, EXPORT, MATRIX), qual
        if reason == EXPORT:
            assert qual.split(".")[-1] in novikov.__all__, qual


SYNTHETIC_SOURCE = '''
def by_name(): pass
def by_module(): pass
def by_other_receiver(): pass
def by_method_call(): pass
def traced(): pass
def recursive(n): return recursive(n - 1)

class Table:
    def method(self): pass
    def dumps(self): pass
    def run(self): return self.helper()
    @staticmethod
    def helper(): pass
    @staticmethod
    def build(): pass
    @staticmethod
    def zero(): pass
'''

SYNTHETIC_CALLER = '''
import json
import pkg.mod as mod
from pkg.mod import by_name

by_name()
mod.by_module()
other.by_other_receiver()
x.by_method_call()
table.method()
table.run()
json.dumps({})
pkg.mod.Table.build()
field.zero()
'''


def test_references_need_the_right_receiver(tmp_path):
    source, caller = tmp_path / "mod.py", tmp_path / "caller.py"
    source.write_text(SYNTHETIC_SOURCE)
    caller.write_text(SYNTHETIC_CALLER)
    assert sorted(_unreferenced([str(source)], [str(source), str(caller)],
                                {"mod.traced"})) == [
        "mod.Table.dumps", "mod.Table.zero", "mod.by_method_call",
        "mod.by_other_receiver", "mod.recursive"]
