"""Catalog data integrity and the entry construction pipeline."""

import os
from itertools import product

import pytest

from novikov.algebra import Algebra
from novikov.catalog import (BaseRecord, CatalogEntry, CatalogError,
                             InadmissibleSample, PREDICATES, _evaluate,
                             census, class_coordinates, load_catalog,
                             membership_checks, verify_entry)
from novikov.cohomology import Cocycle, DependentClasses, in_Ts
from novikov.exprs import Expr, ExprError, SqrtNotInField
from novikov.fields import QQ, DivisionByZero, PrimeField
from novikov.linalg import Matrix

F5 = PrimeField(5)


def test_catalog_shape(cat):
    assert len(cat) == 218
    assert len(cat.bases) == 44
    labels = list(cat.entries)
    assert labels == sorted(labels)
    assert labels[0] == "N_001" and labels[-1] == "N_218"
    for entry in cat.entries.values():
        assert entry.base.key in cat.bases
        assert entry.s in (1, 2)
        assert entry.base.dim + entry.s == 5
        assert entry.census_arity >= 0


def test_entry_lookup_accepts_short_labels(cat):
    assert cat.entry("N_16") is cat.entry("N_016")
    with pytest.raises(KeyError):
        cat.entry("N_999")


def test_default_samples_are_admissible(cat):
    for label, entry in cat.entries.items():
        samples = entry.default_samples(QQ)
        if entry.params:
            assert len(samples) >= 3, label
            assert len(set(samples)) == len(samples), label
        else:
            assert samples == [()]
        for s in samples:
            env = entry.sample_env(QQ, s)
            assert entry.admissible(QQ, env), (label, s)


def test_specialize_produces_checked_cocycles(cat):
    entry = cat.entry("N_001")
    A, theta = entry.specialize(QQ, ())
    assert theta.checked and theta.s == 1
    assert A.dim == entry.base.dim
    B = entry.extension(QQ, ())
    assert B.dim == A.dim + 1


def test_inadmissible_sample_rejected(cat):
    entry = cat.entry("N_012")
    with pytest.raises(InadmissibleSample):
        entry.specialize(QQ, ("1/4",))       # excluded boundary value
    A, theta = entry.specialize(QQ, ("1/4",), strict=False)
    assert theta.checked
    with pytest.raises(InadmissibleSample):
        entry.sample_env(QQ, ())             # wrong arity


def test_sample_env_and_base_env(cat):
    entry = cat.entry("N_011")
    env = entry.sample_env(QQ, ("3",))
    assert env["lambda"] == QQ(3)
    benv = entry.base_env(QQ, env)
    assert all(isinstance(k, str) for k in benv)


def test_find_sample_prime_field_fallback(cat):
    entry = cat.entry("N_011")
    s = entry.find_sample(F5)
    assert s is not None
    A, theta = entry.specialize(F5, s)
    assert theta.checked


def test_find_sample_skips_only_dependent_classes(cat, monkeypatch):
    import novikov.catalog as catalog_mod
    entry = cat.entry("N_011")

    def dependent(A, thetas):
        raise DependentClasses("classes linearly dependent in H^2")

    monkeypatch.setattr(catalog_mod, "in_Ts", dependent)
    assert entry.find_sample(F5) is None

    def broken(A, thetas):
        raise RuntimeError("bug")

    monkeypatch.setattr(catalog_mod, "in_Ts", broken)
    with pytest.raises(RuntimeError):
        entry.find_sample(F5)


def test_membership_checks_keys(cat):
    entry = cat.entry("N_001")
    A, theta = entry.specialize(QQ, ())
    checks = membership_checks(A, theta)
    assert set(PREDICATES) <= set(checks)
    assert "nonsplit" in checks
    assert all(checks[k] for k in PREDICATES)


def test_nilpotency_predicate_fails_on_a_non_nilpotent_extension():
    # base e1e1 = e1 with a zero cocycle: the extension has no
    # nilpotency index, and the predicate must read False, not raise
    base = BaseRecord({"key": "E1", "dim": 1, "table": [[1, 1, 1, "1"]],
                       "nablas": [[[1, 1, "1"]]]})
    entry = CatalogEntry({"label": "E1_zero", "display": "E1_zero", "s": 1,
                          "cocycle": [{"1": "0"}], "census_arity": 0}, base)
    [report] = verify_entry(entry, QQ)
    assert report["checks"]["nilpotency"] is False
    assert not report["passed"]


def test_verify_entry_report_shape(cat):
    reports = verify_entry(cat.entry("N_011"), QQ)
    assert len(reports) >= 3
    for r in reports:
        assert set(r) == {"sample", "checks", "passed"}
        assert r["passed"]


def test_class_coordinates_roundtrip(cat):
    rec = cat.bases["M4_02"]
    A = rec.algebra(QQ)
    nabs = rec.nabla_matrices(QQ)
    coeffs = [QQ(c) for c in (3, 0, -2, 1, 0, 5)]
    m = Matrix.zero(QQ, A.dim, A.dim)
    for c, nab in zip(coeffs, nabs):
        m = m + Matrix(QQ, nab) * c
    theta = Cocycle(A, [m], check=False)
    got = class_coordinates(A, theta, nabs)
    assert list(got[0]) == coeffs
    outside = Cocycle(A, [Matrix.zero(QQ, A.dim, A.dim)], check=False)
    # the zero form is inside the span (all-zero coordinates)
    assert all(not c for c in class_coordinates(A, outside, nabs)[0])


def test_census_matches_meta(cat):
    got = census(cat)
    assert got["total"] == cat.meta["census"]["total"]
    assert list(got["histogram"]) == cat.meta["census"]["histogram"]


def test_base_record_errors(cat):
    rec = cat.bases["M4_01"]
    assert rec.check_params(QQ, {})
    no_shape = [r for r in cat.bases.values() if r.aut_shape is None]
    if no_shape:
        with pytest.raises(CatalogError):
            no_shape[0].automorphism(QQ, {})


def test_data_dir_override(cat, tmp_path, monkeypatch):
    monkeypatch.setenv("NOVIKOV_DATA", str(tmp_path))
    with pytest.raises(OSError):
        load_catalog()
    monkeypatch.delenv("NOVIKOV_DATA")
    assert len(load_catalog()) == 218


# ----------------------------------------------------------------------
# specialization against the construction it replaced: the exclusions
# tested by their own loop, the base table and generator forms evaluated
# from the record's raw data for every sample, every coefficient
# evaluated once for the admissibility test and again for the form, and
# each component summed with Matrix.zero and Matrix.__add__

def _reference_exclusion_holds(excl, field, env):
    if "nonzero" in excl:
        return bool(_evaluate(excl["nonzero"], field, env))
    if "any_nonzero" in excl:
        return any(bool(_evaluate(e, field, env))
                   for e in excl["any_nonzero"])
    raise CatalogError(f"unknown exclusion form {excl!r}")


def _reference_admissible(entry, field, env):
    try:
        for x in entry.exclusions:
            if not _reference_exclusion_holds(x, field, env):
                return False
        benv = entry.base_env(field, env)
        if not all(_reference_exclusion_holds(x, field, benv)
                   for x in entry.base.param_exclusions):
            return False
        for comp in entry.cocycle_raw:
            for expr in comp.values():
                _evaluate(expr, field, env)
        return True
    except (SqrtNotInField, DivisionByZero, ExprError):
        return False


def _reference_base(rec, field, env):
    """A fresh base algebra and list of generator forms at env."""
    n = rec.dim
    table = {}
    for i, j, k, c in rec.table_raw:
        table[(i - 1, j - 1, k - 1)] = Expr(c).evaluate(field, env)
    A = Algebra(field, n, table)
    if rec.nablas_raw is None:
        raise CatalogError(f"{rec.key} has no trusted generator list")
    nablas = []
    for nab in rec.nablas_raw:
        m = [[field.zero()] * n for _ in range(n)]
        for i, j, c in nab:
            m[i - 1][j - 1] = Expr(c).evaluate(field, env)
        nablas.append(Matrix(field, m))
    return A, nablas


def _reference_specialize(entry, field, sample, strict=True):
    env = entry.sample_env(field, sample)
    if strict and not _reference_admissible(entry, field, env):
        raise InadmissibleSample(f"{entry.label} at {sample!r}")
    A, nablas = _reference_base(entry.base, field,
                                entry.base_env(field, env))
    comps = []
    for comp in entry.cocycle_raw:
        m = Matrix.zero(field, A.dim, A.dim)
        for idx, expr in comp.items():
            c = _evaluate(expr, field, env)
            m = m + nablas[int(idx) - 1] * c
        comps.append(m)
    return A, Cocycle(A, comps)


def _outcome(specialize, *args):
    try:
        A, theta = specialize(*args)
    except (CatalogError, SqrtNotInField, DivisionByZero, ExprError) as e:
        return type(e), str(e)
    return A, theta.components


def test_specialize_matches_reference(cat):
    for entry in cat.entries.values():
        for s in entry.default_samples(QQ):
            assert _outcome(entry.specialize, QQ, s) == \
                _outcome(_reference_specialize, entry, QQ, s)
            env = entry.sample_env(QQ, s)
            assert entry.admissible(QQ, env) == \
                _reference_admissible(entry, QQ, env)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_specialize_matches_reference_at_every_tuple(cat, p):
    # every parameter tuple over F_p, excluded and failing ones included
    field = PrimeField(p)
    verdicts = set()
    for entry in cat.entries.values():
        if len(entry.params) > 2:
            continue
        for s in product(range(p), repeat=len(entry.params)):
            env = entry.sample_env(field, s)
            ok = entry.admissible(field, env)
            assert ok == _reference_admissible(entry, field, env)
            verdicts.add(ok)
            for strict in (True, False):
                assert _outcome(entry.specialize, field, s, strict) == \
                    _outcome(_reference_specialize, entry, field, s,
                             strict), (entry.label, s, strict)
    assert verdicts == {True, False}


def test_strict_specialize_evaluates_each_expression_once(cat, monkeypatch):
    """The admissibility test of a strict `specialize` hands over the base
    parameter values and the coefficients it evaluated; neither is
    evaluated again for the form."""
    calls = []
    for name in ("base_env", "coefficients"):
        def counted(self, *args, _name=name,
                    _original=getattr(CatalogEntry, name)):
            calls.append(_name)
            return _original(self, *args)
        monkeypatch.setattr(CatalogEntry, name, counted)
    entry = cat.entry("N_064")     # base parameters and exclusions
    sample = entry.default_samples()[0]
    calls.clear()
    strict = entry.specialize(QQ, sample)
    assert sorted(calls) == ["base_env", "coefficients"]
    calls.clear()
    loose = entry.specialize(QQ, sample, strict=False)
    assert sorted(calls) == ["base_env", "coefficients"]
    assert strict[0] == loose[0] and strict[1] == loose[1]


# ----------------------------------------------------------------------
# one shared specialization per (field, base parameter values)

def test_equal_base_tuples_share_one_specialization(cat):
    # N_104 (alpha = 1) and N_105 (alpha = -1) on M4_14a; N_011 and N_012
    # on one parameter-free base, at different samples
    for labels in (("N_104", "N_104"), ("N_011", "N_012")):
        a, b = (cat.entry(label) for label in labels)
        A, _ = a.specialize(QQ, a.default_samples()[0])
        B, _ = b.specialize(QQ, b.default_samples()[-1])
        assert A is B
    rec = cat.bases["M4_14a"]
    for field in (QQ, F5):
        one = rec.algebra(field, {"alpha": field(1)})
        assert rec.algebra(field, {"alpha": field(1)}) is one
        assert rec.nabla_matrices(field, {"alpha": field(1)}) is \
            rec.nabla_matrices(field, {"alpha": field(1)})
        assert isinstance(rec.nabla_matrices(field, {"alpha": field(1)}),
                          tuple)
        minus_one = rec.algebra(field, {"alpha": field(-1)})
        assert minus_one is not one and minus_one != one
    assert rec.algebra(QQ, {"alpha": QQ(1)}) is not \
        rec.algebra(F5, {"alpha": F5(1)})
    q, f5 = (cat.entry("N_001").specialize(field, ())[0]
             for field in (QQ, F5))
    assert q is not f5 and q.field == QQ and f5.field == F5
    # every catalog load starts with no specializations
    fresh = load_catalog().bases["M4_14a"]
    assert fresh.algebra(QQ, {"alpha": QQ(1)}) is not \
        rec.algebra(QQ, {"alpha": QQ(1)})
    assert fresh.algebra(QQ, {"alpha": QQ(1)}) == \
        rec.algebra(QQ, {"alpha": QQ(1)})


def test_specialization_errors_keep_nothing(cat):
    rec = load_catalog().bases["N4_06a"]    # a form divides by alpha
    for _ in range(2):
        with pytest.raises(DivisionByZero):
            rec.algebra(QQ, {"alpha": QQ(0)})
    assert rec._specializations == {}
    A = rec.algebra(QQ, {"alpha": QQ(2)})
    assert A is rec.algebra(QQ, {"alpha": QQ(2)}) == \
        _reference_base(rec, QQ, {"alpha": QQ(2)})[0]


# ----------------------------------------------------------------------
# find_sample against the version that tested admissibility before a
# strict specialize tested it again

def _reference_find_sample(entry, field):
    candidates = list(entry.default_samples())
    if isinstance(field, PrimeField) and entry.params:
        candidates += list(product(range(field.p), repeat=len(entry.params)))
    for cand in candidates:
        try:
            env = entry.sample_env(field, cand)
        except (SqrtNotInField, DivisionByZero, ExprError):
            continue
        if not entry.admissible(field, env):
            continue
        A, theta = entry.specialize(field, cand)
        try:
            if not in_Ts(A, [theta]):
                continue
        except DependentClasses:
            continue
        return cand
    return None


@pytest.mark.parametrize("field", [QQ, PrimeField(3), F5],
                         ids=["Q", "F3", "F5"])
def test_find_sample_matches_reference(cat, field):
    for label in ("N_001", "N_011", "N_012", "N_064", "N_070", "N_074",
                  "N_095", "N_104", "N_111", "N_122", "N_160", "N_200"):
        entry = cat.entry(label)
        assert entry.find_sample(field) == \
            _reference_find_sample(entry, field), label


def test_find_sample_tests_admissibility_once(cat, monkeypatch):
    """The strict `specialize` of each candidate is its only
    admissibility test (the default samples are chosen over Q)."""
    calls = []
    for name in ("admissible", "_admitted", "specialize"):
        def counted(self, field, *args, _name=name,
                    _original=getattr(CatalogEntry, name), **kwargs):
            if field == F5:
                calls.append(_name)
            return _original(self, field, *args, **kwargs)
        monkeypatch.setattr(CatalogEntry, name, counted)
    entry = cat.entry("N_074")      # no sample in T_s over F_5
    assert entry.find_sample(F5) is None
    assert calls.count("admissible") == 0
    # one test per candidate: the default samples, then every tuple
    tried = len(entry.default_samples()) + 5 ** len(entry.params)
    assert calls.count("_admitted") == calls.count("specialize") == tried
