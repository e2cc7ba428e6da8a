"""No module in `src/novikov`, `tests/` or `tools/` imports a name it never
uses.

A name bound by `import` or `from ... import` counts as used when the
module loads it anywhere (`json.dumps` uses `json`).  The re-exports of
`novikov/__init__.py` are exempt, and so are `__future__` imports.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _unused_imports(source):
    """(line, name) of each name the module source imports and never
    loads."""
    tree = ast.parse(source)
    bound = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            bound += [(n.lineno, a.asname or a.name.split(".")[0])
                      for a in n.names]
        elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
            bound += [(n.lineno, a.asname or a.name) for a in n.names]
    loaded = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in loaded]


def test_no_module_imports_an_unused_name():
    paths = [p for d in ("src/novikov", "tests", "tools")
             for p in sorted(glob.glob(os.path.join(ROOT, d, "*.py")))
             if os.path.basename(p) != "__init__.py"]
    unused = []
    for path in paths:
        with open(path) as fh:
            unused += [f"{os.path.relpath(path, ROOT)}:{line} {name}"
                       for line, name in _unused_imports(fh.read())]
    assert not unused, f"imported and never used: {unused}"


def test_an_unused_import_is_found():
    source = ("import os\nimport os.path as osp\nimport json\n"
              "from itertools import product, chain as ch\n"
              "json.dumps(ch)\n")
    assert _unused_imports(source) == [(1, "os"), (2, "osp"),
                                       (4, "product")]
