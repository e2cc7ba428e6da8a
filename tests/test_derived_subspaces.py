"""The derived subspaces and the changes of coordinates built from raw
rows against the FieldElement paths they replaced.

Each `_reference_*` below is the earlier code: it builds its vectors in
FieldElement arithmetic (`Algebra.multiply`, the `FieldElement` table),
takes kernels through `Matrix`, and writes vectors in a basis by one
`Matrix.solve` per vector or by `Matrix.inverse`.  An RREF basis is
unique, so the bases and pivot columns must be equal, not only the
spans; coordinates in a basis are unique, so the tables must be equal
entry for entry, and so must their printed forms.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from novikov.algebra import Algebra
from novikov.catalog import CatalogError, class_coordinates
from novikov.cohomology import (Cocycle, coboundary_space, cocycle_space,
                                flatten, form_sum, h2_basis)
from novikov.exprs import ExprError, SqrtNotInField
from novikov.extensions import central_extension, reconstruct
from novikov.fields import (QQ, DivisionByZero, GaussianRationalField,
                            PrimeField, QuadraticField)
from novikov.fplab import specialized_tables_fp
from novikov.linalg import Matrix, Subspace, solve_in_basis
from novikov.morphisms import WordBasis, derivation_algebra

from conftest import first_admissible_env, reconstruction_basis_change

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
            rows.append([m[i][j] for i in range(n)])
            rows.append([m[j][i] for i in range(n)])
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


# ----------------------------------------------------------------------
# changes of coordinates

def _reference_quotient(A, I):
    comp = I.coordinate_complement()
    reps = list(comp.basis)
    m = len(reps)
    stack = Matrix(A.field, [list(v) for v in reps] +
                   [list(v) for v in I.basis]).transpose()
    table = {}
    for a in range(m):
        for b in range(m):
            coeff = stack.solve(A.multiply(reps[a], reps[b]))
            for k in range(m):
                if coeff[k]:
                    table[(a, b, k)] = coeff[k]
    return Algebra(A.field, m, table)


def _reference_reconstruct(B):
    ann = B.annihilator()
    m = ann.dim
    reps = list(ann.coordinate_complement().basis)
    n = len(reps)
    stack = Matrix(B.field, [list(v) for v in reps] +
                   [list(v) for v in ann.basis]).transpose()
    table = {}
    theta = [[[B.field.zero()] * n for _ in range(n)] for _ in range(m)]
    for a in range(n):
        for b in range(n):
            coeff = stack.solve(B.multiply(reps[a], reps[b]))
            for k in range(n):
                if coeff[k]:
                    table[(a, b, k)] = coeff[k]
            for t in range(m):
                theta[t][a][b] = coeff[n + t]
    base = Algebra(B.field, n, table)
    return base, Cocycle(base, theta, check=False)


def _reference_change_basis(A, P):
    Pinv, cols = P.inverse(), P.transpose().entries
    table = {}
    for i in range(A.dim):
        for j in range(A.dim):
            coeff = Pinv.apply(A.multiply(cols[i], cols[j]))
            for k in range(A.dim):
                if coeff[k]:
                    table[(i, j, k)] = coeff[k]
    return Algebra(A.field, A.dim, table)


def _reference_class_coordinates(A, theta, nabla_mats):
    cob = list(coboundary_space(A).basis)
    cols = [list(flatten(m)) for m in nabla_mats] + [list(v) for v in cob]
    stack = Matrix(A.field, cols).transpose()
    out = []
    for m in theta.components:
        sol = stack.solve(list(flatten(m)))
        if sol is None:
            raise CatalogError("component outside the printed class span")
        out.append(tuple(sol[:len(nabla_mats)]))
    return out


def _reference_word_basis(A):
    """(words, vectors, levels, minimal, inverse, relations) of the word
    basis, with FieldElement vectors, a `Matrix` inverse and one-vector
    `Subspace`s for the span, and per level the relations scheduled
    there, with their coordinates as full FieldElement tuples."""
    def close(gens):
        words = [("gen", g) for g in range(len(gens))]
        vectors, level = list(gens), list(range(len(gens)))
        span = Subspace(A.field, A.dim, vectors)
        grew = True
        while span.dim < A.dim and grew:
            grew = False
            size = len(vectors)
            for a in range(size):
                for b in range(size):
                    v = A.multiply(vectors[a], vectors[b])
                    if any(v) and not span.member(v):
                        words.append(("prod", a, b))
                        vectors.append(v)
                        level.append(max(level[a], level[b]))
                        span = span + Subspace(A.field, A.dim, [v])
                        grew = True
                        if span.dim == A.dim:
                            break
                if span.dim == A.dim:
                    break
        return words, vectors, level
    n = A.dim
    words, vectors, level = close(A.square().coordinate_complement().basis)
    minimal = len(vectors) == n
    if not minimal:
        words, vectors, level = close(Subspace.full(A.field, n).basis)
    inverse = Matrix(A.field, vectors).transpose().inverse()
    relations = [[] for _ in range(sum(w[0] == "gen" for w in words))]
    for a in range(n):
        for b in range(n):
            coords = inverse.apply(A.multiply(vectors[a], vectors[b]))
            needed = [t for t, c in enumerate(coords) if c]
            lv = max([level[a], level[b]] + [level[t] for t in needed])
            relations[lv].append((a, b, tuple(coords)))
    return words, vectors, level, minimal, inverse, relations


def _wrapped(field, rows):
    return [tuple(map(field.wrap, row)) for row in rows]


def _assert_coordinates_match_reference(A, rng):
    f, n = A.field, A.dim
    # quotients by the annihilator, the square and A^3 (ideals), and the
    # reconstruction when the annihilator is not zero
    ideals = [A.annihilator()] + A.power_filtration()[1:3]
    for I in ideals:
        assert A.quotient(I).dumps() == _reference_quotient(A, I).dumps()
    if A.annihilator().dim:
        base, theta = reconstruct(A)
        want_base, want_theta = _reference_reconstruct(A)
        assert base.dumps() == want_base.dumps()
        assert theta.to_json() == want_theta.to_json()
    # a random invertible basis change
    while True:
        P = Matrix(f, [[f(rng.randint(-2, 2)) for _ in range(n)]
                       for _ in range(n)])
        if P.is_invertible():
            break
    assert A.change_basis(P).dumps() == _reference_change_basis(A, P).dumps()
    # the word basis
    wb = WordBasis(A)
    words, vectors, level, minimal, inverse, relations = \
        _reference_word_basis(A)
    assert (wb.words, wb.word_level, wb.minimal) == (words, level, minimal)
    assert _wrapped(f, wb.vectors) == vectors
    assert _wrapped(f, wb.inverse) == list(inverse.entries)
    assert [[(a, b, [(t, f.wrap(c)) for t, c in terms])
             for a, b, terms in lvl] for lvl in wb.relations] == \
        [[(a, b, [(t, c) for t, c in enumerate(coords) if c])
          for a, b, coords in lvl] for lvl in relations]


def _extensions(cat, field):
    """Every catalog entry at its first sample that specializes: a
    default sample, else (over F_p) the first residue tuple."""
    out = []
    for entry in cat.entries.values():
        cands = entry.default_samples()[:1]
        if isinstance(field, PrimeField):
            cands += list(product(range(field.p), repeat=len(entry.params)))
        for sample in cands:
            try:
                out.append(entry.extension(field, sample))
                break
            except (CatalogError, DivisionByZero, ExprError, SqrtNotInField):
                continue
    return out


@pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=repr)
def test_coordinates_match_reference_on_every_base(cat, field):
    rng = random.Random(repr(field))
    algebras = _first_admissible(cat, field) + _extensions(cat, field)
    assert len(algebras) > len(cat.bases) + 200
    for A in algebras:
        _assert_coordinates_match_reference(A, rng)


@pytest.mark.parametrize("field", [QI, QS2], ids=repr)
def test_coordinates_match_reference_over_quadratic_fields(cat, field):
    rng = random.Random(repr(field))
    for key in ("M4_01", "M4_07", "N3s_01", "N4_12", "N4_16"):
        rec = cat.bases[key]
        A = rec.algebra(field, first_admissible_env(rec, field))
        _assert_coordinates_match_reference(A, rng)
        _assert_coordinates_match_reference(
            central_extension(A, h2_basis(A)[0][0]), rng)


def test_class_coordinates_match_reference(cat):
    rng = random.Random(5)
    checked = 0
    for field in (QQ, F3, F5):
        for key, rec in sorted(cat.bases.items()):
            if rec.nablas_raw is None:
                continue
            env = first_admissible_env(rec, QQ)
            if field is not QQ:
                env = {p: field(v.data) for p, v in env.items()}
                if not rec.check_params(field, env):
                    continue
            A = rec.algebra(field, env)
            nabs = rec.nabla_matrices(field, env)
            # a combination of the classes plus a coboundary
            b2 = coboundary_space(A).basis
            flat = [sum((f * x for f, x in zip(
                [field(rng.randint(-3, 3)) for _ in (*nabs, *b2)], col)),
                field.zero()) for col in zip(*(
                    [flatten(m) for m in nabs] + list(b2)))]
            inside = Cocycle(A, [[flat[i * A.dim:(i + 1) * A.dim]
                                  for i in range(A.dim)]], check=False)
            try:
                want = _reference_class_coordinates(A, inside, nabs)
            except CatalogError:
                with pytest.raises(CatalogError):
                    class_coordinates(A, inside, nabs)
                continue
            assert class_coordinates(A, inside, nabs) == want, (key, field)
            checked += 1
    assert checked > 50


def test_class_coordinates_reject_dependent_classes(cat):
    # the reference returned one arbitrary solution, (1, 0), for both
    rec = cat.bases["M4_02"]
    A = rec.algebra(QQ)
    nab = rec.nabla_matrices(QQ)[0]
    theta = Cocycle(A, [nab], check=False)
    for classes in ([nab, nab], [nab, form_sum(A, [(QQ(2), nab)])]):
        assert _reference_class_coordinates(A, theta, classes) == \
            [(QQ(1), QQ(0))]
        with pytest.raises(CatalogError, match="dependent"):
            class_coordinates(A, theta, classes)


def test_solve_in_basis_returns_rationals():
    """Over Q every coordinate and residual scalar is a Fraction: an int
    pivot would turn into a float under `1 / x`, and Fraction(1) == 1.0
    would hide it from an equality test."""
    rng = random.Random(3)
    raw = QQ.raw
    for _ in range(30):
        n, k = rng.randint(1, 5), rng.randint(0, 4)
        columns = [[raw(QQ(rng.randint(-3, 3))) for _ in range(n)]
                   for _ in range(k)]
        targets = [[raw(QQ(rng.randint(-3, 3))) for _ in range(n)]
                   for _ in range(3)]
        solved = solve_in_basis(columns, targets)
        if solved is None:
            assert Matrix(QQ, columns or [[0] * n]).rank() < k
            continue
        coords, residual = solved
        assert len(coords) == k and len(residual) == n - k
        assert all(type(x) is Fraction for row in coords + residual
                   for x in row)
        # target t minus its combination of the columns is zero exactly
        # when the residual column t is
        for t, v in enumerate(targets):
            rest = [v[r] - sum(coords[i][t] * columns[i][r]
                               for i in range(k)) for r in range(n)]
            assert (not any(rest)) == (not any(row[t] for row in residual))
    A = Algebra(QQ, 3, {(0, 0, 1): QQ(1), (0, 1, 2): QQ(1)})
    B = A.change_basis(Matrix(QQ, [[1, 1, 0], [0, 2, 0], [1, 0, 3]]))
    assert all(type(c) is Fraction for plane in B.table
               for row in plane for c in row)
    W = WordBasis(B)
    assert all(type(x) is Fraction for row in W.inverse + W.vectors
               for x in row)


@st.composite
def _extension_in_a_random_basis(draw):
    """(a central extension of a random table by 1-2 dimensions, written
    in a random basis): an algebra whose annihilator is not zero."""
    field = draw(st.sampled_from([QQ, F2, F3, F5]))
    m, s = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    n = m + s
    values = st.integers(-2, 2)
    base = Algebra(field, m, {
        key: field(c) for key, c in draw(st.dictionaries(
            st.tuples(*[st.integers(0, m - 1)] * 3), values, max_size=6))
        .items()})
    theta = Cocycle(base, [[[field(draw(values)) for _ in range(m)]
                            for _ in range(m)] for _ in range(s)],
                    check=False)
    P = Matrix(field, draw(st.lists(st.lists(values, min_size=n,
                                             max_size=n),
                                    min_size=n, max_size=n)))
    if not P.is_invertible():
        P = Matrix.identity(field, n)
    return central_extension(base, theta).change_basis(P)


@settings(max_examples=60, deadline=None)
@given(B=_extension_in_a_random_basis())
def test_reconstruct_then_extend_is_a_basis_change(B):
    assert B.annihilator().dim
    assert central_extension(*reconstruct(B)) == \
        B.change_basis(reconstruction_basis_change(B))
