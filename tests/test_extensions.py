"""Central extensions: construction, laws, splitness, reconstruction."""

import pytest

from novikov.algebra import Algebra
from novikov.cohomology import Cocycle, form_sum, h2_basis
from novikov.extensions import (ZeroAnnihilator, central_extension,
                                extension_annihilator_law,
                                extension_is_novikov_iff,
                                extension_is_split, reconstruct)
from novikov.fields import (QQ, FieldMismatch, GaussianRationalField,
                            PrimeField, QuadraticField)
from novikov.linalg import Matrix

from conftest import coboundary_of, reconstruction_basis_change

F5 = PrimeField(5)

A = Algebra(QQ, 2, {(0, 0, 1): QQ(1)})   # e1e1 = e2, Ann = <e2>


def _theta(entries, n=2, s=1, check=True):
    comps = []
    for t in range(s):
        m = [[QQ(0)] * n for _ in range(n)]
        for (tt, i, j), c in entries.items():
            if tt == t:
                m[i][j] = QQ(c)
        comps.append(Matrix(QQ, m))
    return Cocycle(A, comps, check=check)


def test_central_extension_table():
    theta = _theta({(0, 0, 1): 1})       # theta(e1, e2) = 1
    B = central_extension(A, theta)
    assert B.dim == 3
    # old products survive, theta lands in the new coordinate
    assert B.table[0][0][1] == QQ(1)
    assert B.table[0][1][2] == QQ(1)
    # the adjoined direction is central
    e = Matrix.identity(QQ, 3).entries
    for i in range(3):
        assert B.multiply(e[2], e[i]) == (QQ(0),) * 3
        assert B.multiply(e[i], e[2]) == (QQ(0),) * 3


def test_central_extension_keeps_one_field():
    # the table is built from raw scalars, so a cocycle over another
    # field must be refused, not mixed in as residues
    over_f5 = Cocycle(Algebra(F5, 2, {(0, 0, 1): 1}),
                      [[[F5(0), F5(1)], [F5(0), F5(0)]]])
    with pytest.raises(FieldMismatch):
        central_extension(A, over_f5)


def test_novikov_iff_cocycle():
    good = _theta({(0, 0, 1): 1})
    nov, inz = extension_is_novikov_iff(A, good)
    assert nov and inz
    bad = _theta({(0, 1, 1): 1}, check=False)   # theta(e2, e2) = 1
    nov, inz = extension_is_novikov_iff(A, bad)
    assert nov == inz is False


def test_annihilator_law():
    for entries, check in [({(0, 0, 0): 1}, True),
                           ({(0, 0, 1): 1}, True),
                           ({(0, 1, 1): 1}, False)]:
        theta = _theta(entries, check=check)
        holds, ann = extension_annihilator_law(A, theta)
        assert holds
        core = theta.annihilator().intersect(A.annihilator())
        assert ann.dim == core.dim + theta.s


def test_split_detection():
    # a coboundary component gives a split (dependent-class) extension
    delta = Cocycle(A, [coboundary_of(A, [QQ(0), QQ(1)])])
    assert extension_is_split(A, delta)
    reps, d = h2_basis(A)
    assert d >= 1
    assert not extension_is_split(A, reps[0])
    # two equal components are dependent
    m = reps[0].components[0]
    assert extension_is_split(A, Cocycle(A, [m, m], check=False))


def test_reconstruct_roundtrip():
    theta = _theta({(0, 0, 0): 1})       # theta(e1, e1) = 1
    B = central_extension(A, theta)
    base, theta2 = reconstruct(B)
    assert base.dim + theta2.s == B.dim
    rebuilt = central_extension(base, theta2)
    P = reconstruction_basis_change(B)
    assert B.change_basis(P) == rebuilt
    # over Q, Q(i), Q(sqrt 2) and F_5, on raw forms with entries such as
    # 1/2 (3 over F_5)
    for f in (QQ, GaussianRationalField(), QuadraticField(2), F5):
        A3 = Algebra(f, 3, {(0, 0, 1): f(1), (0, 1, 2): f(1)})
        reps = [r.components[0] for r in h2_basis(A3)[0]]
        theta = Cocycle.from_raw(A3, [form_sum(A3, [(f(1) / 2, reps[0]),
                                                    (f(3), reps[-1])])])
        B = central_extension(A3, theta)
        base, theta2 = reconstruct(B)
        assert theta2 == Cocycle.from_raw(base, theta2.components)
        assert central_extension(base, theta2) == \
            B.change_basis(reconstruction_basis_change(B))


def test_reconstruct_needs_annihilator():
    idem = Algebra(QQ, 1, {(0, 0, 0): QQ(1)})
    with pytest.raises(ZeroAnnihilator):
        reconstruct(idem)


def test_reconstruct_catalog_extension(cat):
    entry = cat.entry("N_001")
    B = entry.extension(QQ, ())
    base, theta2 = reconstruct(B)
    Ab, _ = entry.specialize(QQ, ())
    # the stripped base has the original's dimension and its table
    # (annihilator is already the trailing coordinate)
    assert base.dim == Ab.dim
    assert central_extension(base, theta2) == \
        B.change_basis(reconstruction_basis_change(B))
