"""The derived subspaces built from raw rows against the FieldElement
paths they replaced.

Each `_reference_*` below is the earlier code: it builds its vectors in
FieldElement arithmetic (`Algebra.multiply`, the `FieldElement` table)
and takes kernels through `Matrix`.  An RREF basis is unique, so the
bases and pivot columns must be equal, not only the spans.
"""

import pytest

from novikov.cohomology import (Cocycle, coboundary_space, cocycle_space,
                                h2_basis)
from novikov.fields import (QQ, GaussianRationalField, PrimeField,
                            QuadraticField)
from novikov.fplab import specialized_tables_fp
from novikov.linalg import Matrix, Subspace
from novikov.morphisms import derivation_algebra

from conftest import first_admissible_env

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)
QI, QS2 = GaussianRationalField(), QuadraticField(2)


def _reference_square(A):
    return Subspace(A.field, A.dim, [p for plane in A.table for p in plane])


def _reference_powers(A):
    powers = [Subspace.full(A.field, A.dim), _reference_square(A)]
    while powers[-1].dim and powers[-1] != powers[-2]:
        m = len(powers) + 1
        prods = (A.multiply(u, v) for i in range(1, m)
                 for u in powers[i - 1].basis
                 for v in powers[m - i - 1].basis)
        powers.append(Subspace(A.field, A.dim,
                               [p for p in prods if any(p)]))
    return tuple(powers)


def _reference_operator_kernel(A, left, right):
    z = A.field.zero()
    rows = {}
    for a, plane in enumerate(A.nonzero_products()):
        for b, terms in enumerate(plane):
            for k, c in terms:
                if left:
                    rows.setdefault((0, b, k), [z] * A.dim)[a] = c
                if right:
                    rows.setdefault((1, a, k), [z] * A.dim)[b] = c
    if not rows:
        return Subspace.full(A.field, A.dim)
    return Matrix(A.field, list(rows.values())).kernel()


def _reference_derivation_algebra(A):
    n, f = A.dim, A.field
    z = f.zero()
    rows = []
    for i in range(n):
        for j in range(n):
            for m in range(n):
                row = [z] * (n * n)
                for l in range(n):
                    c = A.table[i][j][l]
                    if c:
                        row[m * n + l] = row[m * n + l] + c
                for k in range(n):
                    c = A.table[k][j][m]
                    if c:
                        row[k * n + i] = row[k * n + i] - c
                    c = A.table[i][k][m]
                    if c:
                        row[k * n + j] = row[k * n + j] - c
                if any(row):
                    rows.append(row)
    if not rows:
        return Subspace.full(f, n * n)
    return Matrix(f, rows).kernel()


def _reference_cocycle_annihilator(theta):
    n = theta.base.dim
    rows = []
    for m in theta.components:
        for j in range(n):
            rows.append([m[i, j] for i in range(n)])
            rows.append([m[j, i] for i in range(n)])
    return Matrix(theta.base.field, rows).kernel()


def _reference_coboundary_space(A):
    n = A.dim
    return Subspace(A.field, n * n, [
        [A.table[i][j][t] for i in range(n) for j in range(n)]
        for t in range(n)])


def _same(got, want):
    assert (got.basis, got._pivots) == (want.basis, want._pivots)


def _assert_match_reference(A):
    _same(A.square(), _reference_square(A))
    powers = A.power_filtration()
    want = _reference_powers(A)
    assert len(powers) == len(want)
    for got_k, want_k in zip(powers, want):
        _same(got_k, want_k)
    for left, right in ((True, False), (False, True), (True, True)):
        _same(A._operator_kernel(left, right),
              _reference_operator_kernel(A, left, right))
    _same(derivation_algebra(A)[0], _reference_derivation_algebra(A))
    _same(coboundary_space(A), _reference_coboundary_space(A))
    # the annihilator of each H^2 representative, of all of them
    # jointly, and of a cocycle that is not one
    reps = [r.components[0] for r in h2_basis(A)[0]]
    z2 = cocycle_space(A).basis
    n, f = A.dim, A.field
    thetas = [Cocycle(A, [m], check=False) for m in reps]
    thetas.append(Cocycle(A, reps, check=False))
    thetas.append(Cocycle(A, [[[f(i - j) for j in range(n)]
                               for i in range(n)]], check=False))
    if z2:
        thetas.append(Cocycle(A, [[list(z2[-1][i * n:i * n + n])
                                   for i in range(n)]]))
    for theta in thetas:
        _same(theta.annihilator(), _reference_cocycle_annihilator(theta))


def _first_admissible(cat, field):
    """Each base at its first admissible parameters: from the sample pool
    over Q, in residue order over F_p; and a few dimension-5 extensions."""
    if isinstance(field, PrimeField):
        algebras = {}
        for dim in (3, 4):
            for name, A in specialized_tables_fp(cat, field, dim)[0]:
                algebras.setdefault(name.partition("[")[0], A)
        algebras = [algebras[key] for key in sorted(algebras)]
    else:
        algebras = [rec.algebra(field, first_admissible_env(rec, field))
                    for _, rec in sorted(cat.bases.items())]
    return algebras + [cat.entry(label).extension(field, ())
                       for label in ("N_001", "N_013", "N_070")]


@pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=repr)
def test_derived_subspaces_match_reference_on_every_base(cat, field):
    algebras = _first_admissible(cat, field)
    # every base is specialized: over F_p some parameter tuple of each
    # base passes its constraints
    assert len(algebras) == len(cat.bases) + 3
    for A in algebras:
        _assert_match_reference(A)


@pytest.mark.parametrize("field", [QI, QS2], ids=repr)
def test_derived_subspaces_match_reference_over_quadratic_fields(cat, field):
    for key in ("M4_01", "M4_07", "N3s_01", "N4_12", "N4_16"):
        rec = cat.bases[key]
        _assert_match_reference(rec.algebra(field,
                                            first_admissible_env(rec, field)))
