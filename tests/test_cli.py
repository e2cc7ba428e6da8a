"""Command-line interface: exit codes, JSON reports, idempotent fmt."""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import novikov
from novikov import invariants
from novikov.algebra import Algebra
from novikov.cli import main
from novikov.fields import QQ, PrimeField
from novikov.linalg import Matrix

import test_invariants

F3, F5 = PrimeField(3), PrimeField(5)

A = Algebra(QQ, 3, {(0, 0, 1): QQ(1), (0, 1, 2): QQ(1)})


@pytest.fixture
def alg_file(tmp_path):
    p = tmp_path / "alg.json"
    p.write_text(A.dumps())
    return str(p)


def test_check(alg_file, capsys):
    assert main(["check", alg_file]) == 0
    out = capsys.readouterr().out
    assert "novikov: true" in out
    report = json.loads(out[out.index("{"):])
    assert report["novikov"] is True
    assert report["ann"] == 1
    assert report["nilpotency"] == 4


def test_check_report_file(alg_file, tmp_path, capsys):
    rp = tmp_path / "report.json"
    assert main(["--report", str(rp), "check", alg_file]) == 0
    capsys.readouterr()
    assert json.loads(rp.read_text())["novikov"] is True


def test_h2(alg_file, capsys):
    assert main(["h2", alg_file]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["dim_h2"] == len(report["classes"])


def test_extend_and_reconstruct_roundtrip(alg_file, tmp_path, capsys):
    # pick one H^2 representative, extend, then reconstruct
    assert main(["h2", alg_file]) == 0
    h2 = json.loads(capsys.readouterr().out)
    coc = tmp_path / "coc.json"
    coc.write_text(json.dumps(h2["classes"][0]))
    ext = tmp_path / "ext.json"
    assert main(["extend", "--algebra", alg_file, "--cocycle", str(coc),
                 "--out", str(ext)]) == 0
    capsys.readouterr()
    B = Algebra.from_json(json.loads(ext.read_text()))
    assert B.dim == 4
    assert main(["reconstruct", str(ext)]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["base"]["dim"] + rec["cocycle"]["s"] == 4


def test_iso_exit_codes(tmp_path, capsys):
    X = Algebra(F5, 2, {(0, 0, 1): F5(1)})
    Y = Algebra(F5, 2, {(0, 0, 1): F5(4)})
    Z = Algebra(F5, 2, {})
    px, py, pz = (tmp_path / n for n in ("x.json", "y.json", "z.json"))
    px.write_text(X.dumps())
    py.write_text(Y.dumps())
    pz.write_text(Z.dumps())
    assert main(["iso", str(px), str(py)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "isomorphic"
    assert main(["iso", str(px), str(pz)]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "proven_distinct"
    # over Q unequal fingerprints are a proof too, not a failed search
    qx, qz = tmp_path / "qx.json", tmp_path / "qz.json"
    qx.write_text(Algebra(QQ, 2, {(0, 0, 1): QQ(1)}).dumps())
    qz.write_text(Algebra(QQ, 2, {}).dumps())
    assert main(["iso", str(qx), str(qz)]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "proven_distinct"
    # a census-distinct pair: iso settles it by census, as separate does,
    # before a search can spend its budget
    cx, cy = tmp_path / "cx.json", tmp_path / "cy.json"
    cx.write_text(test_invariants.X.dumps())
    cy.write_text(test_invariants.Y.dumps())
    assert main(["--field", "fp:3", "--budget", "1", "iso", str(cx),
                 str(cy)]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "proven_distinct"


def _no_isomorphism(A, B, **options):
    """A stand-in for iso_search: x -> 2x is invertible, but not
    multiplicative on A (e1 e1 = e2 would go to 4 e2, not 2 e2)."""
    return Matrix.identity(A.field, A.dim) * A.field(2)


def test_iso_refuses_a_witness_that_is_no_isomorphism(tmp_path, capsys,
                                                      monkeypatch):
    pa = tmp_path / "a.json"
    pa.write_text(A.dumps())
    monkeypatch.setattr(invariants, "iso_search", _no_isomorphism)
    assert main(["iso", str(pa), str(pa)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_iso_refuses_a_bad_witness_under_python_O(tmp_path):
    # the check is no assert: python -O keeps it
    pa = tmp_path / "a.json"
    pa.write_text(A.dumps())
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        novikov.__file__)))
    code = ("import sys\n"
            "from novikov import cli, invariants\n"
            "from novikov.linalg import Matrix\n"
            "invariants.iso_search = lambda A, B, **options: "
            "Matrix.identity(A.field, A.dim) * A.field(2)\n"
            f"sys.exit(cli.main(['iso', {str(pa)!r}, {str(pa)!r}]))\n")
    done = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
def test_iso_on_non_nilpotent_algebras(tmp_path, capsys, field):
    # a valid algebra that a complement of its square does not generate
    X = Algebra(field, 2, {(0, 0, 0): field(1)})    # e1 e1 = e1
    Y = Algebra(field, 2, {(1, 1, 1): field(1)})    # e2 e2 = e2
    px, py = tmp_path / "x.json", tmp_path / "y.json"
    px.write_text(X.dumps())
    py.write_text(Y.dumps())
    assert main(["iso", str(px), str(py)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "isomorphic"
    assert [[field.parse(x) for x in row] for row in rep["witness"]] == \
        [[field(0), field(1)], [field(1), field(0)]]


def test_separate(tmp_path, capsys):
    X = Algebra(F5, 2, {(0, 0, 1): F5(1)})
    Z = Algebra(F5, 2, {})
    px, pz = tmp_path / "x.json", tmp_path / "z.json"
    px.write_text(X.dumps())
    pz.write_text(Z.dumps())
    assert main(["separate", str(px), str(pz)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["groups"]) == 2


def _limited_cli(argv):
    """The CLI in a child process with 1 GB of address space and a 60 s
    timeout: (exit code, stdout, stderr)."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        novikov.__file__)))
    done = subprocess.run([sys.executable, "-m", "novikov.cli"] + argv,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=limit,
                          env={**os.environ, "PYTHONPATH": src})
    return done.returncode, done.stdout, done.stderr


def test_local_types_refuse_a_huge_field(tmp_path):
    # over F_(2^31 - 1) the local types of a 3-dimensional algebra would
    # walk p^3 elements: iso and separate ran for minutes; pairs that
    # fingerprints split are still decided
    def write(name, c, table=True):
        path = tmp_path / name
        path.write_text(json.dumps({
            "dim": 3, "field": "fp:2147483647",
            "table": _table((1, 1, 2), c=c) + _table((1, 2, 3))
            if table else []}))
        return str(path)
    x, y, z = write("x.json", "1"), write("y.json", "2"), \
        write("z.json", "1", table=False)
    for argv in (["iso", x, y], ["separate", x, y]):
        code, out, err = _limited_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "2147483647^3 elements are too many" in err
    code, out, _ = _limited_cli(["separate", x, z])
    assert code == 0
    assert json.loads(out)["proven_distinct"] == [[x, z, "fingerprint"]]


@pytest.mark.parametrize("first", [0, 1])
def test_separate_rejects_algebras_over_different_fields(tmp_path, capsys,
                                                          first):
    # the same table over Q and over F_3: with Q first both used to land
    # in one group as undecided (exit 0), with F_3 first the local types
    # refused the Q algebra with a message about prime fields
    paths = []
    for field, name in ((QQ, "q.json"), (PrimeField(3), "f3.json")):
        p = tmp_path / name
        p.write_text(Algebra(field, 2, {(0, 0, 1): 1}).dumps())
        paths.append(str(p))
    if first:
        paths.reverse()
    assert main(["separate"] + paths) == 2
    _one_line_error(capsys, "different fields")


def test_census(capsys):
    assert main(["census"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "218 (104, 82, 27, 5)"


def test_verify_catalog_good_labels(capsys):
    assert main(["verify-catalog", "--labels", "N_001,N_013"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["checked"] == 2 and not rep["failures"]


def test_verify_catalog_reports_known_failure(capsys):
    assert main(["verify-catalog", "--labels", "N_070"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["failures"]
    assert all(f["failed"] == ["annihilator"] for f in rep["failures"])


def test_verify_catalog_parallel(capsys):
    assert main(["verify-catalog", "--labels", "N_001,N_002,N_003"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["checked"] == 3


def test_orbits_fp(capsys):
    assert main(["--field", "fp:3", "orbits-fp", "--base", "N3s_02"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["p"] == 3 and rep["classes"] == []


def test_orbits_fp_reports_dedupe_counters(capsys):
    # the three same-fingerprint pairs of N3s_01 over F_3 at s = 1 are
    # all settled by census
    assert main(["--field", "fp:3", "orbits-fp", "--base", "N3s_01"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["merged"], rep["census_splits"], rep["dedupe_searches"]) \
        == (0, 3, 0)


def test_orbits_fp_report_is_byte_stable(capsys):
    # the whole canonical report of M4_01 over F_2 cross-checked against
    # N_001..N_012: 20 classes, 5 of them unmatched (exit 1), 2 + 3
    # pairs settled by census and 1 + 17 by search
    labels = ",".join("N_%03d" % i for i in range(1, 13))
    assert main(["--field", "fp:2", "orbits-fp", "--base", "M4_01",
                 "--crosscheck-labels", labels]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "3cc9f00a8b75ee39ae28fd005c5df2b0073392ca3368e77c71c311f8a9c8737c"


def test_orbits_fp_needs_prime_field(capsys):
    assert main(["orbits-fp", "--base", "N3s_02"]) == 2


def test_orbits_fp_reports_distinct_actions(capsys):
    assert main(["--field", "fp:3", "orbits-fp", "--base", "N3s_04l",
                 "--base-params", "lambda=1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["aut_order"], rep["distinct_actions"]) == (54, 3)


def _one_line_error(capsys, *words):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert all(w in err for w in words)


@pytest.mark.parametrize("argv, words", [
    (["--field", "fp:2", "--budget", "100", "orbits-fp", "--base", "M4_01"],
     "budget 100"),
    (["--field", "fp:3", "--budget", "0", "orbits-fp", "--base", "N3s_01"],
     "budget 0"),
])
def test_orbits_fp_spent_budget_exits_2(capsys, argv, words):
    # a spent budget used to end in a BudgetExceeded traceback and exit
    # 1, the code of a failed verification
    assert main(argv) == 2
    _one_line_error(capsys, words)


@pytest.mark.parametrize("option, value", [
    ("--budget", "0"), ("--budget", "-1"), ("--height", "0"),
    ("--height", "-2")])
def test_search_bound_below_1_exits_2(tmp_path, capsys, cat, option,
                                     value):
    # iso used to report budget_exceeded or not_found_heuristic and exit
    # 1, the code of a failed verification
    M = cat.bases["M4_01"].algebra(QQ)
    P = Matrix(QQ, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [1, 0, 0, 1]])
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(M.dumps())
    pb.write_text(M.change_basis(P).dumps())
    assert main([option, value, "iso", str(pa), str(pb)]) == 2
    _one_line_error(capsys, f"{option} {value}")


@pytest.mark.parametrize("argv, words", [
    (["--base", "N3s_04l", "--base-params", "lambda=1,lambda=2"],
     ["--base-params", "'lambda'"]),
    (["--base", "N3s_02", "--crosscheck-labels", "N_155,N_155"],
     ["--crosscheck-labels", "N_155"]),
    (["--base", "N3s_02", "--crosscheck-labels", "N_16,N_016"],
     ["--crosscheck-labels", "N_016"]),
])
def test_orbits_fp_rejects_a_name_given_twice(capsys, argv, words):
    # the last base parameter value used to win; a label given twice put
    # its entry's tuples into the pool twice
    assert main(["--field", "fp:3", "orbits-fp"] + argv) == 2
    _one_line_error(capsys, *words, "twice")


@pytest.mark.parametrize("labels", ["N_999", "N_001,"])
def test_orbits_fp_rejects_unknown_crosscheck_label(capsys, labels):
    assert main(["--field", "fp:3", "orbits-fp", "--base", "N3s_02",
                 "--crosscheck-labels", labels]) == 2
    _one_line_error(capsys, "--crosscheck-labels")


def test_orbits_fp_rejects_unknown_base_param(capsys):
    assert main(["--field", "fp:3", "orbits-fp", "--base", "N3s_04l",
                 "--base-params", "lambda=1,bogus=2"]) == 2
    _one_line_error(capsys, "bogus")


def test_orbits_fp_rejects_excluded_base_param(capsys):
    # N3s_04l records lambda != 0
    assert main(["--field", "fp:3", "orbits-fp", "--base", "N3s_04l",
                 "--base-params", "lambda=0"]) == 2
    _one_line_error(capsys, "lambda=0")


def test_verify_catalog_rejects_unknown_label(capsys):
    assert main(["verify-catalog", "--labels", "N_001,N_999"]) == 2
    _one_line_error(capsys, "N_999")


def test_verify_catalog_rejects_a_label_given_twice(capsys):
    # it used to check the entry twice and count it twice
    assert main(["verify-catalog", "--labels", "N_001,N_1"]) == 2
    _one_line_error(capsys, "--labels", "N_001", "twice")


def test_verify_catalog_reports_errors(capsys):
    # the curated sample -2 of N_011 is 0 mod 2, so specializing it
    # raises: the failure carries the error and names no predicate
    assert main(["--field", "fp:2", "verify-catalog",
                 "--labels", "N_001,N_011"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["checked"] == 2
    assert rep["failures"] == [{
        "label": "N_011", "failed": [],
        "error": "InadmissibleSample: N_011 at ('-2',)"}]


@pytest.mark.parametrize("tag", [
    "zz", "fp:4", "fp:", "qsqrt:x", "qsqrt:4",
    "fp:170141183460469231731687303715884105727"])    # 2^127 - 1
@pytest.mark.parametrize("command", [
    ["check", "ALG"], ["h2", "ALG"], ["census"],
    ["verify-catalog", "--labels", "N_001"],
    ["orbits-fp", "--base", "N3s_02"]], ids=lambda c: c[0])
def test_malformed_field_exits_2(alg_file, capsys, tag, command):
    # each command succeeds with a valid tag
    argv = [alg_file if a == "ALG" else a for a in command]
    assert main(["--field", tag] + argv) == 2
    _one_line_error(capsys)


def test_fmt_idempotent(tmp_path, capsys):
    p = tmp_path / "doc.json"
    p.write_text('{"b":1,\n "a": [1,2]}')
    assert main(["fmt", str(p)]) == 0
    once = p.read_text()
    assert main(["fmt", str(p)]) == 0
    assert p.read_text() == once
    assert json.loads(once) == {"a": [1, 2], "b": 1}


def test_input_errors(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["check", str(bad)]) == 2


@pytest.mark.parametrize("argv", [
    ["--report", "OUT", "check", "ALG"],
    ["extend", "--algebra", "ALG", "--cocycle", "COC", "--out", "OUT"],
    ["reconstruct", "EXT", "--out", "OUT"],
])
def test_unwritable_output_exits_2(alg_file, tmp_path, capsys, argv):
    # a report into a missing directory raised a traceback (exit 1, the
    # code of a failed verification)
    assert main(["h2", alg_file]) == 0
    coc = tmp_path / "coc.json"
    coc.write_text(json.dumps(json.loads(capsys.readouterr().out)
                              ["classes"][0]))
    ext = tmp_path / "ext.json"
    assert main(["extend", "--algebra", alg_file, "--cocycle", str(coc),
                 "--out", str(ext)]) == 0
    capsys.readouterr()
    out = str(tmp_path / "missing" / "r.json")
    names = {"ALG": alg_file, "COC": str(coc), "EXT": str(ext), "OUT": out}
    assert main([names.get(a, a) for a in argv]) == 2
    _one_line_error(capsys, out)


def _table(*triples, c="1"):
    return [{"i": i, "j": j, "k": k, "c": c} for i, j, k in triples]


@pytest.mark.parametrize("doc, words", [
    # index 0 used to wrap to the last basis vector and exit 0
    ({"dim": 2, "field": "q", "table": _table((0, 1, 2))}, "i = 0"),
    # k = 3 in dim 2 used to raise an IndexError traceback
    ({"dim": 2, "field": "q", "table": _table((1, 1, 3))}, "k = 3"),
    # a repeated triple used to overwrite the earlier one
    ({"dim": 2, "field": "q", "table": _table((1, 1, 2), (1, 1, 2))},
     "duplicate entry (i, j, k) = (1, 1, 2)"),
    ({"dim": 2, "field": "q", "table": _table((1, "1", 2))}, "j = '1'"),
    ({"dim": -1, "field": "q", "table": []}, "dim = -1"),
    ({"dim": 2.5, "field": "q", "table": []}, "dim = 2.5"),
    # this one used to allocate 10^15 cells and exhaust memory
    ({"dim": 10 ** 5, "field": "q", "table": _table((1, 1, 2))},
     "dim = 100000 is not an integer in 0..100"),
    # each of these used to raise a traceback and exit 1
    ({"dim": 2, "field": "q", "table": _table((1, 1, 2), c="1/0")},
     "divides by zero"),
    ({"dim": 2, "field": 5, "table": []}, "field tag 5"),
    ([{"dim": 2, "field": "q", "table": []}], "not a JSON object"),
    ({"dim": 2, "field": "q", "table": [7]}, "table is not a list"),
    ({"dim": 2, "field": "q", "table": None}, "table is not a list"),
    ({"dim": 2, "field": "q", "table": _table((1, 1, 2), c=None)},
     "c = None"),
    ({"dim": 2, "field": "q", "table": _table((1, 1, 2), c=[1])},
     "c = [1]"),
    # each of these used to build a wrong constant silently
    ({"dim": 2, "field": "q", "table": _table((1, 1, 2), c=0.1)},
     "c = 0.1"),
    ({"dim": 2, "field": "fp:5", "table": _table((1, 1, 2), c=0.5)},
     "c = 0.5"),
    ({"dim": 2, "field": "q", "table": _table((1, 1, 2), c=True)},
     "c = True"),
    # literals of another field used to raise a traceback and exit 1
    ({"dim": 2, "field": "fp:3", "table": _table((1, 1, 2), c="1 mod 5")},
     "mod 5 literal in F_3"),
    ({"dim": 2, "field": "qsqrt:2",
      "table": _table((1, 1, 2), c="1+1*sqrt(3)")},
     "sqrt(3) literal in Q(sqrt 2)"),
], ids=["zero-index", "index-past-dim", "duplicate-triple",
        "string-index", "negative-dim", "fractional-dim", "huge-dim",
        "division-by-zero", "integer-field", "top-level-list",
        "entry-not-object", "null-table", "null-coefficient",
        "list-coefficient", "float-coefficient", "float-coefficient-fp5",
        "bool-coefficient", "fp-literal-of-other-p",
        "sqrt-literal-of-other-d"])
def test_check_rejects_malformed_algebra(tmp_path, capsys, doc, words):
    p = tmp_path / "alg.json"
    p.write_text(json.dumps(doc))
    for command in ("check", "h2"):
        assert main([command, str(p)]) == 2
        _one_line_error(capsys, "alg.json", words)


@pytest.mark.parametrize("base, entries, words", [
    (A, [{"t": 1, "i": 4, "j": 1, "c": "1"}], "i = 4"),
    (A, [{"t": 2, "i": 1, "j": 1, "c": "1"}], "t = 2"),
    (A, [{"t": 1, "i": 1, "j": 1, "c": "1"},
         {"t": 1, "i": 1, "j": 1, "c": "0"}],
     "duplicate entry (t, i, j) = (1, 1, 1)"),
    (A, [{"t": 1, "i": 1, "c": "1"}], "'j'"),
    (A, [{"t": 1, "i": 1, "j": 1, "c": "1/0"}], "divides by zero"),
    (A, [7], "entries is not a list"),
    (A, [{"t": 1, "i": 1, "j": 1, "c": 0.5}], "c = 0.5"),
    # a literal of another field used to raise a traceback and exit 1
    (Algebra(F3, 3, {(0, 0, 1): 1, (0, 1, 2): 1}),
     [{"t": 1, "i": 1, "j": 1, "c": "1 mod 5"}], "mod 5 literal in F_3"),
], ids=["index-past-dim", "component-past-s", "duplicate-triple",
        "missing-index", "division-by-zero", "entry-not-object",
        "float-coefficient", "fp-literal-of-other-p"])
def test_extend_rejects_malformed_cocycle(tmp_path, capsys, base, entries,
                                          words):
    alg = tmp_path / "alg.json"
    alg.write_text(base.dumps())
    coc = tmp_path / "coc.json"
    coc.write_text(json.dumps({"base": base.to_json(), "s": 1,
                               "entries": entries}))
    assert main(["extend", "--algebra", str(alg), "--cocycle",
                 str(coc)]) == 2
    _one_line_error(capsys, "coc.json", words)


# ----------------------------------------------------------------------
# fuzzed algebra and cocycle documents: each carries at least one defect,
# and every command that loads them must exit 2 with one line on stderr.
# A size of 10^5 or 10^9 is past `algebra.MAX_SIZE` and is refused
# before any table is allocated.

_BAD_SIZE = [-1, -8, 1.5, 2.0, True, False, "3", None, [3], {}, 10 ** 5,
             10 ** 9]
_BAD_INDEX = [0, -1, 9, 1.0, True, False, "1", None, [1]]
_BAD_SCALAR = [0.5, 1.0, True, False, None, [1], {"c": 1}, "1/0", "x", "",
               "1/", "2//3", "1 mod 7"]
_BAD_FIELD = ["", "r", "fp:4", "fp:1", "fp:0", "fp:-3", "fp:x", "qsqrt:",
              "qsqrt:4", "qsqrt:1", 5, None, 2.5, True, ["q"]]
_BAD_LIST = [{}, "t", 3, None, [3], [[1, 1, 2]], [None]]


def _entries(data, names, bounds):
    return [dict(zip(names, [data.draw(st.integers(1, b)) for b in bounds]),
                 c=data.draw(st.sampled_from(["1", "-2", "1/3", 3])))
            for _ in range(data.draw(st.integers(0, 4)))]


def _break(data, doc, size, names, listed, required):
    """`doc` with one or two defects, each one of the bad values above
    put in one place."""
    doc = json.loads(json.dumps(doc))
    defects = [("size", v) for v in _BAD_SIZE] + \
        [("missing", k) for k in required] + \
        [("list", v) for v in _BAD_LIST] + \
        [("shape", v) for v in ([], "doc", 3, None, True)] + \
        [("index", v) for v in _BAD_INDEX] + \
        [("scalar", v) for v in _BAD_SCALAR] + [("duplicate", None)]
    if "field" in doc:
        defects += [("field", v) for v in _BAD_FIELD]
    for kind, value in data.draw(st.lists(st.sampled_from(defects),
                                          min_size=1, max_size=2)):
        if not isinstance(doc, dict):
            break
        entries = doc.get(listed)
        if kind in ("size", "field", "list"):
            doc[size if kind == "size" else
                "field" if kind == "field" else listed] = value
        elif kind == "missing":
            doc.pop(value, None)
        elif kind == "shape":
            doc = value
        elif kind == "duplicate":
            doc[listed] = [{**{n: 1 for n in names}, "c": "1"}] * 2
        elif isinstance(entries, list) and \
                all(isinstance(e, dict) for e in entries):
            if not entries:
                entries.append({**{n: 1 for n in names}, "c": "1"})
            e = data.draw(st.sampled_from(entries))
            if kind == "index":
                e[data.draw(st.sampled_from(names))] = value
            else:
                e["c"] = value
    return doc


def _algebra_doc(data):
    dim = data.draw(st.integers(1, 4))
    field = data.draw(st.sampled_from(["q", "fp:5", "qi"]))
    return {"dim": dim, "field": field,
            "table": _entries(data, "ijk", (dim,) * 3)}


def _broken_algebra(data):
    return _break(data, _algebra_doc(data), "dim", "ijk", "table",
                  ["dim", "field", "table"])


def _run_exits_2(tmp, argv, docs):
    paths = []
    for t, doc in enumerate(docs):
        path = f"{tmp}/doc{t}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        paths.append(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a if not isinstance(a, int) else paths[a]
                     for a in argv])
    lines = err.getvalue().splitlines()
    assert code == 2, (docs, out.getvalue(), lines)
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert out.getvalue() == ""


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fuzzed_algebra_documents_exit_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        valid = _algebra_doc(data)
        broken = _broken_algebra(data)
        pair = data.draw(st.permutations([valid, broken]))
        _run_exits_2(tmp, ["iso", 0, 1], pair)
        extra = data.draw(st.lists(st.sampled_from([valid, broken]),
                                   max_size=2))
        _run_exits_2(tmp, ["separate"] + list(range(len(extra) + 2)),
                     pair + extra)
        _run_exits_2(tmp, ["extend", "--algebra", 0, "--cocycle", 1],
                     [broken, {"s": 1, "entries": []}])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fuzzed_cocycle_documents_exit_2(data):
    base = A.to_json()
    s = data.draw(st.integers(1, 2))
    doc = {"base": base, "s": s,
           "entries": _entries(data, "tij", (s, A.dim, A.dim))}
    broken = _break(data, doc, "s", "tij", "entries", ["s", "entries"])
    with tempfile.TemporaryDirectory() as tmp:
        _run_exits_2(tmp, ["extend", "--algebra", 0, "--cocycle", 1],
                     [base, broken])
