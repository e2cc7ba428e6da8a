"""Catalog data integrity and the entry construction pipeline."""

import os

import pytest

from novikov.catalog import (CatalogError, InadmissibleSample, PREDICATES,
                             census, class_coordinates, load_catalog,
                             membership_checks, verify_entry)
from novikov.cohomology import Cocycle, DependentClasses
from novikov.fields import QQ, PrimeField
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
    s = entry.find_sample(F5, require_ts=True)
    assert s is not None
    A, theta = entry.specialize(F5, s)
    assert theta.checked


def test_find_sample_skips_only_dependent_classes(cat, monkeypatch):
    import novikov.catalog as catalog_mod
    entry = cat.entry("N_011")

    def dependent(A, thetas):
        raise DependentClasses("classes linearly dependent in H^2")

    monkeypatch.setattr(catalog_mod, "in_Ts", dependent)
    assert entry.find_sample(F5, require_ts=True) is None

    def broken(A, thetas):
        raise RuntimeError("bug")

    monkeypatch.setattr(catalog_mod, "in_Ts", broken)
    with pytest.raises(RuntimeError):
        entry.find_sample(F5, require_ts=True)


def test_membership_checks_keys(cat):
    entry = cat.entry("N_001")
    A, theta = entry.specialize(QQ, ())
    checks = membership_checks(A, theta)
    assert set(PREDICATES) <= set(checks)
    assert "nonsplit" in checks
    assert all(checks[k] for k in PREDICATES)


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
        m = m + nab * c
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
