"""Finite-field pipeline: Grassmannian enumeration, orbits, cross-check."""

from itertools import product

import pytest

from novikov import fplab, invariants
from novikov.algebra import Algebra
from novikov.cohomology import coboundary_space, flatten, h2_basis
from novikov.exprs import Expr, ExprError, SqrtNotInField
from novikov.extensions import central_extension
from novikov.fields import DivisionByZero, PrimeField, QQ
from novikov.fplab import (crosscheck, grassmannian_points,
                           qualifies_as_extension, run_procedure_fp_report,
                           specialized_entries_fp, specialized_tables_fp)
from novikov.linalg import Matrix
from novikov.morphisms import BudgetExceeded, enumerate_aut_fp, iso_search

from test_catalog import _reference_exclusion_holds, _reference_specialize
from test_invariants import _IDEMPOTENT_1, _IDEMPOTENT_2, _squares

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("dim,s,p", [
    (2, 1, 2), (3, 1, 3), (2, 2, 3), (4, 2, 3), (5, 1, 2), (3, 2, 5),
])
def test_grassmannian_point_counts(dim, s, p):
    pts = grassmannian_points(dim, s, p)
    assert len(pts) == gaussian_binomial(dim, s, p)
    assert len(set(pts)) == len(pts)
    for pt in pts:
        assert len(pt) == s and all(len(row) == dim for row in pt)
        # already in reduced row-echelon form: the procedure uses the
        # points without canonicalizing them
        assert fplab._canonical(pt, p) == pt


def test_grassmannian_degenerate_cases():
    assert grassmannian_points(3, 0, 2) == []
    assert grassmannian_points(2, 3, 2) == []


def test_run_procedure_one_dimensional_base():
    # the 1-dimensional zero algebra has a single admissible class:
    # the extension e1e1 = e2
    A = Algebra(F3, 1, {})
    classes = run_procedure_fp_report(A, 1)["classes"]
    assert len(classes) == 1
    B = classes[0]
    assert B.dim == 2 and B.table[0][0][1] == F3(1)


def test_run_procedure_report_invariants():
    A = Algebra(F2, 2, {})
    rep = run_procedure_fp_report(A, 1)
    assert rep["p"] == 2 and rep["s"] == 1
    assert rep["h2_dim"] == 4
    assert rep["points"] == gaussian_binomial(4, 1, 2)
    assert rep["orbits"] <= rep["points"]
    assert len(rep["classes"]) <= rep["admissible_orbits"]
    assert len(rep["class_points"]) == len(rep["classes"])
    for i, B in enumerate(rep["classes"]):
        assert B.is_novikov()
        assert B.annihilator().dim == 1
        assert B.square().contains(B.annihilator())
        for C in rep["classes"][i + 1:]:
            assert iso_search(B, C) is None


def test_run_procedure_preconditions():
    with pytest.raises(ValueError):
        run_procedure_fp_report(Algebra(QQ, 2, {}), 1)
    with pytest.raises(ValueError):
        run_procedure_fp_report(Algebra(PrimeField(7), 2, {}), 1)
    with pytest.raises(ValueError):
        run_procedure_fp_report(Algebra(F2, 2, {}), 3)


def test_specialized_tables(cat):
    out, skips = specialized_tables_fp(cat, F3, 3)
    assert not skips
    names = [n for n, _ in out]
    assert len(names) == len(set(names))
    assert any(n.startswith("N3s_01") for n in names)
    for _, A in out:
        assert A.dim == 3


def test_specialized_entries_and_skips(cat):
    out, skips = specialized_entries_fp(cat, F2, ["N_001", "N_011"])
    assert [n for n, _ in out if n == "N_001"] == ["N_001"]
    assert all(n.startswith("N_011") for n, _ in skips)
    for _, B in out:
        assert B.dim == 5


def test_qualifies_as_extension():
    A = Algebra(F3, 1, {})
    good = Algebra(F3, 2, {(0, 0, 1): F3(1)})
    assert qualifies_as_extension(good, A, 1)
    # wrong dimension
    assert not qualifies_as_extension(good, Algebra(F3, 2, {}), 1)
    # split: annihilator not inside the square
    assert not qualifies_as_extension(Algebra(F3, 2, {}), A, 1)


def test_crosscheck_exhaustive_matching():
    A = Algebra(F3, 2, {(0, 0, 1): F3(1)})
    B = Algebra(F3, 2, {(0, 0, 1): F3(2)})    # isomorphic by scaling
    C = Algebra(F3, 2, {})
    rep = crosscheck([A, C], [("same", B), ("zero", C)])
    assert rep["matches"] == {0: ["same"], 1: ["zero"]}
    assert not rep["unmatched_classes"] and not rep["unmatched_pool"]
    assert (rep["census_splits"], rep["dedupe_searches"]) == (0, 2)
    rep = crosscheck([A], [("zero", C)])
    assert rep["unmatched_classes"] == [0]
    assert rep["unmatched_pool"] == ["zero"]
    # a spent budget leaves a pair undecided, which over F_p is no
    # verdict
    with pytest.raises(BudgetExceeded):
        crosscheck([_squares(F5, 1)], [("y", _squares(F5, 4))], budget=1)
    # over Q a failed search is no proof either
    with pytest.raises(ValueError, match="no proof"):
        crosscheck([_IDEMPOTENT_1], [("y", _IDEMPOTENT_2)])


# ----------------------------------------------------------------------
# the orbit stage against the construction it replaced: one
# Matrix.solve per (automorphism, class) for the H^2 action, and a
# union of every point with its image under every automorphism

class _ReferenceUnionFind:
    def __init__(self, keys):
        self.parent = {k: k for k in keys}

    def find(self, k):
        while self.parent[k] != k:
            self.parent[k] = self.parent[self.parent[k]]
            k = self.parent[k]
        return k

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def roots(self):
        return sorted({self.find(k) for k in self.parent})


def _reference_induced_h2_matrices(A, reps, auts):
    f = A.field
    cob = list(coboundary_space(A).basis)
    mats = [r.components[0] for r in reps]
    cols = [list(flatten(m)) for m in mats] + [list(v) for v in cob]
    stack = Matrix(f, cols).transpose()
    d = len(reps)
    out = []
    for phi in auts:
        pt = phi.transpose()
        columns = []
        for m in mats:
            image = pt * Matrix(f, m) * phi
            sol = stack.solve([x for row in image.entries for x in row])
            if sol is None:
                raise RuntimeError("automorphism left the cocycle space")
            columns.append([c.data for c in sol[:d]])
        out.append([[columns[j][i] for j in range(d)] for i in range(d)])
    return out


def _reference_orbit_roots(points, actions, p):
    d = len(points[0][0]) if points else 0
    uf = _ReferenceUnionFind(points)
    for pt in points:
        for M in actions:
            image = [tuple(sum(M[i][j] * row[j] for j in range(d)) % p
                           for i in range(d)) for row in pt]
            uf.union(pt, fplab._canonical(image, p))
    return uf.roots()


def _catalog_base(key, p):
    def make(cat):
        return cat.bases[key].algebra(PrimeField(p), {})
    return make


def _rebased(key, p, rows):
    def make(cat):
        A = cat.bases[key].algebra(PrimeField(p), {})
        return A.change_basis(Matrix(A.field, rows))
    return make


def _zero(n, p):
    return lambda cat: Algebra(PrimeField(p), n, {})


ORBIT_CASES = {
    "N3s_01/F3": (_catalog_base("N3s_01", 3), 1),
    "N3s_04z/F3": (_catalog_base("N3s_04z", 3), 1),
    "M4_01/F2": (_catalog_base("M4_01", 2), 1),
    "N3s_01/F3-monomial": (
        _rebased("N3s_01", 3, [[0, 0, 2], [1, 0, 0], [0, 2, 0]]), 1),
    "N3s_04z/F3-s2": (_catalog_base("N3s_04z", 3), 2),
    # a general basis change: dense H^2 functionals and representatives
    "N3s_04z/F3-unitriangular": (
        _rebased("N3s_04z", 3, [[1, 1, 1], [0, 1, 2], [0, 0, 1]]), 1),
    "zero2/F2": (_zero(2, 2), 1),
    "zero2/F3": (_zero(2, 3), 1),
    "zero2/F5": (_zero(2, 5), 1),
    "zero2/F3-s2": (_zero(2, 3), 2),
}


def _comparable(rep):
    out = dict(rep)
    out["classes"] = [B.to_json() for B in rep["classes"]]
    return out


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_stage_matches_reference(cat, case):
    make, s = ORBIT_CASES[case]
    A = make(cat)
    p = A.field.p
    reps, d = h2_basis(A)
    auts = enumerate_aut_fp(A)
    actions = _reference_induced_h2_matrices(A, reps, auts)
    assert fplab.induced_h2_matrices(A, reps, auts) == actions

    distinct = list(dict.fromkeys(tuple(map(tuple, M)) for M in actions))
    points = [fplab._canonical(pt, p)
              for pt in grassmannian_points(d, s, p)]
    assert (fplab._orbit_representatives(points, distinct, p)
            == _reference_orbit_roots(points, actions, p))


# the whole report, with the reference orbit stage swapped in (s = 2 on
# N3s_04z spends minutes deduplicating, after the orbit stage compared
# above)
@pytest.mark.parametrize("case", sorted(
    c for c in ORBIT_CASES if c != "N3s_04z/F3-s2"))
def test_report_matches_reference(cat, case, monkeypatch):
    make, s = ORBIT_CASES[case]
    A = make(cat)
    rep = run_procedure_fp_report(A, s)
    monkeypatch.setattr(fplab, "induced_h2_matrices",
                        _reference_induced_h2_matrices)
    monkeypatch.setattr(fplab, "_orbit_representatives",
                        _reference_orbit_roots)
    assert _comparable(rep) == _comparable(run_procedure_fp_report(A, s))


def test_distinct_actions_counts(cat):
    # |Aut| 192 acts on H^2 of M4_01 over F_2 through 96 matrices,
    # |Aut| 108 on H^2 of N3s_01 over F_3 through 36; the dedupe settles
    # 2 same-fingerprint pairs of M4_01 by census and searches 1, and
    # settles all 3 of N3s_01 by census
    for key, p, aut, distinct, splits, searches in (
            ("M4_01", 2, 192, 96, 2, 1), ("N3s_01", 3, 108, 36, 3, 0)):
        rep = run_procedure_fp_report(
            cat.bases[key].algebra(PrimeField(p), {}), 1)
        assert (rep["aut_order"], rep["distinct_actions"]) == (aut, distinct)
        assert (rep["census_splits"], rep["dedupe_searches"]) == \
            (splits, searches)
        if key == "M4_01":
            pool, _ = specialized_entries_fp(
                cat, PrimeField(p), ["N_%03d" % i for i in range(1, 13)])
            cc = crosscheck(rep["classes"], pool)
            assert (cc["census_splits"], cc["dedupe_searches"]) == (3, 17)


# the census screen against the dedupe without it (every census equal):
# the same classes, and every pair the screen settles is searched instead
@pytest.mark.parametrize("case", sorted(
    c for c in ORBIT_CASES if c != "N3s_04z/F3-s2"))
def test_census_screen_keeps_the_report(cat, case, monkeypatch):
    make, s = ORBIT_CASES[case]
    A = make(cat)
    rep = run_procedure_fp_report(A, s)
    monkeypatch.setattr(invariants, "element_census", lambda B: ())
    unscreened = run_procedure_fp_report(A, s)
    assert unscreened["census_splits"] == 0
    assert unscreened["dedupe_searches"] == \
        rep["census_splits"] + rep["dedupe_searches"]
    for r in (rep, unscreened):
        del r["census_splits"], r["dedupe_searches"]
    assert _comparable(rep) == _comparable(unscreened)


def test_induced_h2_matrices_rejects_non_automorphism():
    # e1 e1 = e2 over F_3; phi below (invertible, not an automorphism)
    # maps the class of e1* (x) e2* outside Z^2
    A = Algebra(F3, 2, {(0, 0, 1): F3(1)})
    reps, _ = h2_basis(A)
    phi = Matrix(F3, [[0, 1], [1, 1]])
    for induced in (fplab.induced_h2_matrices,
                    _reference_induced_h2_matrices):
        with pytest.raises(RuntimeError, match="left the cocycle space"):
            induced(A, reps, [Matrix.identity(F3, 2), phi])


# ----------------------------------------------------------------------
# both catalog specializations against their copies before they called
# the catalog's exclusion test: their own exclusion loops, and a pass
# that evaluated every cocycle coefficient before specializing

def _reference_specialized_tables_fp(catalog, field, dim):
    out, skips = [], []
    for key, rec in sorted(catalog.bases.items()):
        if rec.dim != dim:
            continue
        for combo in product(range(field.p), repeat=len(rec.params)):
            env = {name: field(v) for name, v in zip(rec.params, combo)}
            name = key if not combo else f"{key}{list(combo)}"
            try:
                if not all(_reference_exclusion_holds(x, field, env)
                           for x in rec.param_exclusions):
                    continue
                out.append((name, rec.algebra(field, env)))
            except (SqrtNotInField, DivisionByZero, ExprError) as e:
                skips.append((name, str(e)))
    return out, skips


def _reference_specialized_entries_fp(catalog, field, labels):
    out, skips = [], []
    for label in labels:
        entry = catalog.entry(label)
        for combo in product(range(field.p), repeat=len(entry.params)):
            name = label if not entry.params else f"{label}{list(combo)}"
            try:
                env = entry.sample_env(field, combo)
                excluded = False
                for x in entry.exclusions:
                    if not _reference_exclusion_holds(x, field, env):
                        excluded = True
                        break
                if not excluded:
                    benv = entry.base_env(field, env)
                    for x in entry.base.param_exclusions:
                        if not _reference_exclusion_holds(x, field, benv):
                            excluded = True
                            break
                if excluded:
                    continue
                for comp in entry.cocycle_raw:
                    for expr in comp.values():
                        Expr(expr).evaluate(field, env)
                A, theta = _reference_specialize(entry, field, combo)
            except (SqrtNotInField, DivisionByZero, ExprError) as e:
                skips.append((name, str(e)))
                continue
            out.append((name, central_extension(A, theta)))
    return out, skips


def _tables(pool):
    return [(name, A.to_json()) for name, A in pool]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_specializations_match_reference(cat, p):
    field = PrimeField(p)
    for dim in (3, 4):
        out, skips = specialized_tables_fp(cat, field, dim)
        ref_out, ref_skips = _reference_specialized_tables_fp(cat, field, dim)
        assert (_tables(out), skips) == (_tables(ref_out), ref_skips)
    # every entry whose tuples meet an exclusion of its own or of its
    # base, or fail to evaluate, and a few without parameters
    labels = [label for label, e in cat.entries.items()
              if e.exclusions or e.base.param_exclusions] + \
        ["N_001", "N_011", "N_012"]
    out, skips = specialized_entries_fp(cat, field, labels)
    ref_out, ref_skips = _reference_specialized_entries_fp(cat, field, labels)
    assert (_tables(out), skips) == (_tables(ref_out), ref_skips)
    assert skips
    assert any(_excluded_by_base(cat.entry(label), field, combo)
               for label in labels
               for combo in product(range(p),
                                    repeat=len(cat.entry(label).params)))


def _excluded_by_base(entry, field, combo):
    try:
        benv = entry.base_env(field, entry.sample_env(field, combo))
        return not all(_reference_exclusion_holds(x, field, benv)
                       for x in entry.base.param_exclusions)
    except (SqrtNotInField, DivisionByZero, ExprError):
        return False
