"""Exact linear algebra: RREF, kernels, solving, subspace lattice."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from novikov.algebra import Algebra
from novikov.fields import (QQ, GaussianRationalField, PrimeField,
                            QuadraticField)
from novikov.linalg import (DimensionMismatch, Matrix, SingularMatrix,
                            Subspace, combine, eliminate, null_space,
                            reduce)
from novikov.morphisms import iso_search

from conftest import reference_null_space

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)
QI, QS2 = GaussianRationalField(), QuadraticField(2)


def mat5(draw_rows):
    return Matrix(F5, [[F5(x) for x in row] for row in draw_rows])


small_entries = st.integers(min_value=0, max_value=4)
small_matrix = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(small_entries, min_size=n, max_size=n),
        min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(rows=small_matrix)
def test_rref_properties(rows):
    m = mat5(rows)
    red, rank = m.rref()
    assert rank <= min(m.rows, m.cols)
    # idempotence and rank stability
    red2, rank2 = red.rref()
    assert red2 == red and rank2 == rank
    # row space is preserved
    assert Subspace(m.field, m.cols, m.entries) == \
        Subspace(m.field, m.cols, red.entries)


@settings(max_examples=60, deadline=None)
@given(rows=small_matrix)
def test_kernel_and_rank_nullity(rows):
    m = mat5(rows)
    ker = m.kernel()
    assert ker.dim == m.cols - m.rank()
    z = tuple(F5.zero() for _ in range(m.rows))
    for v in ker.basis:
        assert m.apply(v) == z


@settings(max_examples=60, deadline=None)
@given(rows=small_matrix,
       coeffs=st.lists(small_entries, min_size=4, max_size=4))
def test_solve_consistent_system(rows, coeffs):
    m = mat5(rows)
    x = [F5(c) for c in coeffs[:m.cols]]
    rhs = m.apply(x)
    sol = m.solve(list(rhs))
    assert sol is not None
    assert m.apply(sol) == rhs


def test_solve_inconsistent():
    m = Matrix(F5, [[1, 0], [2, 0]])
    assert m.solve([F5(1), F5(1)]) is None


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.lists(small_entries, min_size=3, max_size=3),
                     min_size=3, max_size=3))
def test_inverse(rows):
    m = mat5(rows)
    if m.is_invertible():
        assert m.inverse() * m == Matrix.identity(F5, 3)
        assert m * m.inverse() == Matrix.identity(F5, 3)
    else:
        with pytest.raises(SingularMatrix):
            m.inverse()


def test_scalar_multiplication():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    assert m * QQ(2) == Matrix(QQ, [[2, 4], [6, 8]])
    assert 2 * m == m * 2


def test_matrix_shape_errors():
    with pytest.raises(DimensionMismatch):
        Matrix(QQ, [[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix(QQ, [[1, 2]]) * Matrix(QQ, [[1, 2]])
    with pytest.raises(DimensionMismatch):
        Matrix(QQ, [[1, 2]]).apply([QQ(1)])


@settings(max_examples=60, deadline=None)
@given(u=small_matrix, w=small_matrix)
def test_subspace_dimension_formula(u, w):
    cols = min(len(u[0]), len(w[0]))
    U = Subspace(F5, cols, [row[:cols] for row in u])
    W = Subspace(F5, cols, [row[:cols] for row in w])
    S = U + W
    I = U.intersect(W)
    assert U.dim + W.dim == S.dim + I.dim
    assert S.contains(U) and S.contains(W)
    assert U.contains(I) and W.contains(I)
    for v in U.basis:
        assert S.member(v)


@settings(max_examples=40, deadline=None)
@given(u=small_matrix)
def test_coordinate_complement_and_quotient_basis(u):
    cols = len(u[0])
    U = Subspace(F5, cols, u)
    C = U.coordinate_complement()
    assert U.dim + C.dim == cols
    assert (U + C).dim == cols
    full = Subspace.full(F5, cols)
    reps = full.quotient_basis(U)
    assert len(reps) == cols - U.dim
    span = Subspace(F5, cols, list(U.basis) + list(reps))
    assert span.dim == cols


@pytest.mark.parametrize("field", [QQ, F5, QI], ids=["Q", "F5", "Qi"])
def test_unit_span_is_the_span_of_its_unit_rows(field):
    zero, one = field.raw(field.zero()), field.raw(field.one())
    for cols in ([3, 0, 2], [1, 1, 4, 1], [], range(5), [4, 3, 2, 1, 0]):
        S = Subspace.unit_span(field, 5, cols)
        units = [[one if i == j else zero for i in range(5)] for j in cols]
        T = Subspace.from_raw(field, 5, units)
        assert (S._rows, S._pivots) == (T._rows, T._pivots), cols
        assert S == T and hash(S) == hash(T)
    for cols in ([5], [0, -1]):
        with pytest.raises(DimensionMismatch):
            Subspace.unit_span(field, 5, cols)


def test_subspace_canonical_equality():
    a = Subspace(QQ, 2, [[1, 1], [0, 2]])
    b = Subspace(QQ, 2, [[3, 5], [7, 1]])
    assert a == b  # both are the full plane, same RREF basis
    assert hash(a) == hash(b)


def _reference_kernel(m):
    """Kernel from the public RREF, pivots read off its rows."""
    rref, rank = m.rref()
    red = rref.entries
    pivots = [next(j for j in range(m.cols) if red[r][j])
              for r in range(rank)]
    z, o = m.field.zero(), m.field.one()
    basis = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [z] * m.cols
        v[f] = o
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return Subspace(m.field, m.cols, basis)


def _reference_inverse(m):
    """Inverse read off the public RREF of [M | I], or None if singular."""
    n = m.rows
    eye = Matrix.identity(m.field, n).entries
    rref, rank = Matrix(m.field, [m.entries[i] + eye[i]
                                  for i in range(n)]).rref()
    red = rref.entries
    if any(not red[i][i] for i in range(n)):
        return None
    return Matrix(m.field, [red[i][n:] for i in range(n)])


@pytest.mark.parametrize("field", [QQ, F5], ids=repr)
def test_kernel_and_inverse_match_rref_reference(field):
    rng = random.Random(7)
    singular = inverted = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = Matrix(field, [[field(rng.choice([0, 0, 1, -1, 2, Fraction(1, 3)]))
                            for _ in range(cols)] for _ in range(rows)])
        k = m.kernel()
        assert k == _reference_kernel(m)
        assert all(not any(m.apply(v)) for v in k.basis)
        pivots = eliminate([[field.raw(x) for x in row] for row in m.entries],
                           field.modulus)[2]
        assert pivots == [next(j for j in range(cols) if row[j])
                          for row in m.rref()[0].entries if any(row)]
        if rows != cols:
            continue
        want = _reference_inverse(m)
        if want is None:
            singular += 1
            with pytest.raises(SingularMatrix):
                m.inverse()
        else:
            inverted += 1
            assert m.inverse() == want
            assert m * want == Matrix.identity(field, rows)
    assert singular and inverted


def _reference_eliminate(field, rows):
    """Gauss-Jordan elimination in FieldElement arithmetic, as
    `Matrix.rref` did before it ran on raw scalars."""
    m = [list(row) for row in rows]
    height, width = len(m), len(m[0]) if m else 0
    rank = 0
    pivots = []
    for col in range(width):
        pivot = next((r for r in range(rank, height) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = field.one() / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(height):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == height:
            break
    return m, rank, pivots


def _reference_member(field, vec, basis):
    """Membership in the span of an RREF basis, reduced entry by entry in
    FieldElement arithmetic (the earlier `Subspace.member`)."""
    for row in basis:
        piv = next(j for j in range(len(row)) if row[j])
        if vec[piv]:
            f = vec[piv]
            vec = [a - f * b for a, b in zip(vec, row)]
    return not any(vec)


def _reference_fp_rref(rows, p):
    """(rref rows as int tuples, rank, pivot columns) for rows mod p, the
    int elimination the F_p search and orbit code used to keep apart."""
    m = [list(r) for r in rows]
    if not m:
        return [], 0, []
    cols = len(m[0])
    rank = 0
    pivots = []
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(m):
            break
    return [tuple(r) for r in m[:rank]], rank, pivots


def _reference_fp_reduce(vec, basis_rows, p):
    v = list(vec)
    for row in basis_rows:
        piv = next(j for j, x in enumerate(row) if x)
        if v[piv]:
            f = v[piv]
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return tuple(v)


def _random_rows(rng, field, height, width):
    """Small sparse entries; every third matrix repeats a combination of
    its rows, so rank deficiency is common."""
    gens = [field(1), field(-1), field(2), field(Fraction(1, 3))] \
        if field.modulus is None or field.modulus > 3 \
        else [field(1), field(field.modulus - 1)]
    if isinstance(field, GaussianRationalField):
        gens.append(field("0+1*i"))
    if isinstance(field, QuadraticField):
        gens.append(field(f"0+1*sqrt({field.d})"))
    z = field.zero()
    rows = [[rng.choice(gens) if rng.random() < 0.5 else z
             for _ in range(width)] for _ in range(height)]
    if height > 1 and rng.random() < 1 / 3:
        c = rng.choice(gens)
        rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
    return rows


@pytest.mark.parametrize("field", [QQ, QI, QS2, F2, F5], ids=repr)
def test_eliminate_and_reduce_match_reference(field):
    rng = random.Random(repr(field))
    raw, wrap, p = field.raw, field.wrap, field.modulus
    for _ in range(80):
        rows = _random_rows(rng, field, rng.randint(1, 6), rng.randint(1, 7))
        raw_rows = [[raw(x) for x in row] for row in rows]
        got, rank, pivots = eliminate(raw_rows, p)
        want = _reference_eliminate(field, rows)
        assert ([[wrap(x) for x in row] for row in got], rank, pivots) \
            == want
        if p is not None:
            assert ([tuple(r) for r in got[:rank]], rank, pivots) \
                == _reference_fp_rref(raw_rows, p)
        m = Matrix(field, rows)
        assert m._rows == tuple(map(tuple, raw_rows))
        assert m.rref() == (Matrix.from_raw(field, got), rank)
        basis = want[0][:rank]
        for _ in range(4):
            vec = _random_rows(rng, field, 1, len(rows[0]))[0]
            if rank and rng.random() < 0.5:   # a vector of the span
                c = rng.choice([field(1), field(2)])
                vec = [c * a + b for a, b in zip(basis[0], basis[-1])]
            residual = reduce([raw(x) for x in vec], got[:rank], pivots,
                              p)
            member = _reference_member(field, vec, basis)
            assert not any(residual) == member
            assert Subspace(field, len(vec), rows).member(vec) == member
            if p is not None:
                assert tuple(residual) == _reference_fp_reduce(
                    [raw(x) for x in vec], got[:rank], p)


# ----------------------------------------------------------------------
# the unit-row peel of null_space against one elimination of all rows

def _nonzero(rng, field):
    """A random nonzero raw scalar of the field."""
    gens = [field(1), field(-1), field(2), field(Fraction(1, 3))] \
        if field.modulus is None or field.modulus > 3 \
        else [field(c) for c in range(1, field.modulus)]
    if isinstance(field, GaussianRationalField):
        gens.append(field("0+1*i"))
        gens.append(field("1/2+1*i"))
    return field.raw(rng.choice(gens))


def _unit_row(rng, field, width, col):
    zero = field.raw(field.zero())
    return [_nonzero(rng, field) if j == col else zero for j in range(width)]


def _peel_cases(rng, field):
    """Raw row sets that the peel meets in every way: random sparse rows
    with unit rows mixed in, cascades (each peel makes the next row a
    unit row), duplicate and zero rows, no rows, width 0, and rows whose
    only live entry sits after dead columns."""
    raw, zero = field.raw, field.raw(field.zero())
    for _ in range(40):
        width = rng.randint(1, 8)
        rows = [[raw(x) for x in row] for row in
                _random_rows(rng, field, rng.randint(1, 6), width)]
        for _ in range(rng.randint(0, 3)):
            rows.insert(rng.randint(0, len(rows)),
                        _unit_row(rng, field, width, rng.randrange(width)))
        yield "random", rows, width
        # duplicates, a unit row again at another scale, zero rows
        dup = rows + [list(rng.choice(rows))] + [[zero] * width] * 2
        dup.insert(0, _unit_row(rng, field, width, rng.randrange(width)))
        dup.append(_unit_row(rng, field, width, next(
            j for j, x in enumerate(dup[0]) if x)))
        rng.shuffle(dup)
        yield "duplicate and zero rows", dup, width
    for _ in range(30):
        # a chain c0, c1, ...: the unit row at c0 makes the row on
        # (c0, c1) a unit row, and so on; extra rows on the other columns
        width = rng.randint(2, 8)
        cols = rng.sample(range(width), rng.randint(2, width))
        chain = [_unit_row(rng, field, width, cols[0])]
        for a, b in zip(cols, cols[1:]):
            row = _unit_row(rng, field, width, b)
            row[a] = _nonzero(rng, field)
            if rng.random() < 0.5:   # an entry on an earlier dead column
                row[rng.choice(cols[:cols.index(a) + 1])] = \
                    _nonzero(rng, field)
            chain.append(row)
        rest = [j for j in range(width) if j not in cols]
        for _ in range(rng.randint(0, 3)):
            row = [zero] * width
            for j in rest + [rng.choice(cols)]:
                if rng.random() < 0.6:
                    row[j] = _nonzero(rng, field)
            chain.append(row)
        rng.shuffle(chain)
        yield "cascade", chain, width
    for width in range(5):
        yield "no rows", [], width
    for height in range(4):
        yield "width 0", [[]] * height, 0
    for _ in range(20):
        # unit rows on the first k columns; then a row on those columns
        # plus one later column j, whose only live entry is at j
        width = rng.randint(2, 7)
        k = rng.randint(1, width - 1)
        j = rng.randrange(k, width)
        rows = [_unit_row(rng, field, width, c) for c in range(k)]
        row = _unit_row(rng, field, width, j)
        for c in range(k):
            row[c] = _nonzero(rng, field)
        rows.append(row)
        rows += [[raw(x) for x in r] for r in
                 _random_rows(rng, field, rng.randint(0, 3), width)]
        yield "live entry after dead columns", rows, width


@pytest.mark.parametrize("field", [QQ, F2, F3, F5, QI], ids=repr)
def test_null_space_peel_matches_plain_elimination(field):
    rng = random.Random("peel " + repr(field))
    zero, one = field.raw(field.zero()), field.raw(field.one())
    kinds = set()
    for kind, rows, width in _peel_cases(rng, field):
        want = reference_null_space(rows, width, zero, one, field.modulus)
        assert null_space(rows, width, zero, one, field.modulus) == want, \
            (kind, rows)
        assert null_space(iter(rows), width, zero, one,
                          field.modulus) == want, kind
        kinds.add(kind)
    assert len(kinds) == 6


def _raw_entries(field):
    if field.modulus is not None:
        return st.integers(min_value=0, max_value=field.modulus - 1)
    return st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_from_raw_equals_constructor(data):
    # the span of raw rows, zero and repeated rows included, is the span
    # of the same rows as FieldElements, with the same raw rows and pivots
    field = data.draw(st.sampled_from([QQ, F2, PrimeField(3), F5]))
    n = data.draw(st.integers(min_value=0, max_value=5))
    rows = data.draw(st.lists(st.lists(_raw_entries(field), min_size=n,
                                       max_size=n), max_size=6))
    if rows and data.draw(st.booleans()):
        rows.append(list(data.draw(st.sampled_from(rows))))
    if data.draw(st.booleans()):
        rows.insert(data.draw(st.integers(0, len(rows))),
                    [field.raw(field.zero())] * n)
    wrapped = [[field.wrap(x) for x in row] for row in rows]
    got = Subspace.from_raw(field, n, rows)
    want = Subspace(field, n, wrapped)
    assert got == want
    assert (got._rows, got._pivots) == (want._rows, want._pivots)
    red, rank, pivots = _reference_eliminate(field, wrapped)
    assert got.basis == tuple(map(tuple, red[:rank]))
    assert got._pivots == pivots


def _reference_intersect(U, W):
    """U ∩ W from the kernel of [U^T | -W^T] in FieldElement arithmetic,
    as `Subspace.intersect` computed it before it ran on raw rows."""
    if not U.basis or not W.basis:
        return Subspace(U.field, U.ambient)
    cols = [list(v) for v in U.basis] + [[-x for x in v] for v in W.basis]
    vecs = []
    for coeff in Matrix(U.field, cols).transpose().kernel().basis:
        vec = [U.field.zero()] * U.ambient
        for c, bvec in zip(coeff[:len(U.basis)], U.basis):
            vec = [u + c * w for u, w in zip(vec, bvec)]
        vecs.append(vec)
    return Subspace(U.field, U.ambient, vecs)


@pytest.mark.parametrize("field", [QQ, QI, QS2, F2, F5], ids=repr)
def test_intersect_and_contains_match_reference(field):
    rng = random.Random(repr(field))
    sizes = set()
    for _ in range(60):
        n = rng.randint(1, 6)
        U, W = (Subspace(field, n, _random_rows(rng, field,
                                                rng.randint(0, 4), n))
                for _ in range(2))
        got, want = U.intersect(W), _reference_intersect(U, W)
        assert (got.basis, got._pivots) == (want.basis, want._pivots)
        sizes.add(got.dim)
        for S, T in ((U, W), (U + W, U), (got, U)):
            assert S.contains(T) == all(S.member(v) for v in T.basis)
    assert 0 in sizes and max(sizes) > 0


@pytest.mark.parametrize("field", [QQ, F5, QI, QS2],
                         ids=["Q", "F5", "Qi", "Qsqrt2"])
def test_subspaces_from_different_spanning_sets(field):
    u, v = [field(1), field(2), field(0)], [field(0), field(1), field(3)]
    w = [a + 2 * b for a, b in zip(u, v)]
    spans = [Subspace(field, 3, [u, v]), Subspace(field, 3, [w, v, u]),
             Subspace(field, 3, [[3 * x for x in u], w]),
             Subspace.from_raw(field, 3, [[field.raw(x) for x in w],
                                          [field.raw(x) for x in u]])]
    for S in spans:
        assert S == spans[0] and hash(S) == hash(spans[0]) and S.dim == 2
        assert S.basis == tuple(tuple(map(field.wrap, row))
                                for row in S._rows)
    assert spans[0] != Subspace(field, 3, [u])


# ----------------------------------------------------------------------
# Matrix on raw rows against FieldElement arithmetic, on every field

def _reference_product(a, b, zero):
    """The rows of a times b, in FieldElement arithmetic."""
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), zero)
                       for col in zip(*b)) for row in a)


def _reference_solve(field, a, rhs):
    """One solution of a x = rhs read off the reference reduction of
    [a | rhs], the free unknowns zero; None when inconsistent."""
    k = len(a[0])
    red, _, pivots = _reference_eliminate(
        field, [list(row) + [b] for row, b in zip(a, rhs)])
    if k in pivots:
        return None
    x = [field.zero()] * k
    for r, j in enumerate(pivots):
        x[j] = red[r][k]
    return tuple(x)


def _reference_matrix_inverse(field, a):
    """The right half of the reference reduction of [a | I], or None
    when a is singular."""
    n = len(a)
    one, zero = field.one(), field.zero()
    red, _, pivots = _reference_eliminate(field, [
        list(row) + [one if i == j else zero for j in range(n)]
        for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red)


def _all_fractions(*matrices):
    return all(type(x) is Fraction for M in matrices
               for row in M._rows for x in row)


@pytest.mark.parametrize("field", [QQ, QI, QS2, F5], ids=repr)
def test_matrix_matches_field_element_arithmetic(field):
    rng = random.Random(f"matrix:{field!r}")
    zero = field.zero()
    inverted = singular = inconsistent = 0
    for _ in range(80):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        a, c = (_random_rows(rng, field, n, k) for _ in range(2))
        b = _random_rows(rng, field, k, rng.randint(1, 4))
        sq = _random_rows(rng, field, n, n)
        A, B, C, S = (Matrix(field, m) for m in (a, b, c, sq))
        s = rng.choice([field(3), field(-1)]
                       + _random_rows(rng, field, 1, 3)[0])
        assert (A * B).entries == _reference_product(a, b, zero)
        scaled = tuple(tuple(x * s for x in row) for row in a)
        assert (A * s).entries == (s * A).entries == scaled
        assert (A + C).entries == tuple(tuple(x + y for x, y in zip(r, t))
                                        for r, t in zip(a, c))
        assert (A - C).entries == tuple(tuple(x - y for x, y in zip(r, t))
                                        for r, t in zip(a, c))
        vec = _random_rows(rng, field, 1, k)[0]
        assert A.apply(vec) == tuple(
            x for x, in _reference_product(a, [[y] for y in vec], zero))
        assert A.transpose().entries == tuple(zip(*a))
        red, rank, _ = _reference_eliminate(field, a)
        assert A.rref() == (Matrix(field, red), rank)
        rhs = A.apply(vec) if rng.random() < 0.5 else \
            _random_rows(rng, field, 1, n)[0]
        want = _reference_solve(field, a, rhs)
        inconsistent += want is None
        assert A.solve(rhs) == want
        want = _reference_matrix_inverse(field, sq)
        if want is None:
            singular += 1
            with pytest.raises(SingularMatrix):
                S.inverse()
        else:
            inverted += 1
            assert S.inverse().entries == want
        if field is QQ:
            assert _all_fractions(A, A * B, A * s, A + C, A - C,
                                  A.transpose(), A.rref()[0],
                                  *([S.inverse()] if want else []))
    assert inverted and singular and inconsistent


@pytest.mark.parametrize("field", [QQ, QI, QS2, F5], ids=repr)
def test_combine_matches_field_element_arithmetic(field):
    # start + sum c * row on raw scalars, against the same sum on field
    # elements; rows are sparse (nonzero pairs) or enumerate of dense
    # rows, coefficients and entries are often zero
    rng = random.Random(f"combine:{field!r}")
    raw, zero, p = field.raw, field.zero(), field.modulus
    for _ in range(200):
        n, k = rng.randint(1, 5), rng.randint(0, 4)
        start = _random_rows(rng, field, 1, n)[0] if rng.random() < 0.7 \
            else [zero] * n
        rows = _random_rows(rng, field, k, n)
        coeffs = [rng.choice([zero, field(1), field(-3), *row])
                  for row in rows]
        terms = [(raw(c), [(m, raw(v)) for m, v in enumerate(row) if v]
                  if rng.random() < 0.5 else enumerate(map(raw, row)))
                 for c, row in zip(coeffs, rows)]
        want = list(start)
        for c, row in zip(coeffs, rows):
            want = [w + c * v for w, v in zip(want, row)]
        got = combine([raw(x) for x in start], terms, p)
        assert type(got) is tuple and tuple(map(field.wrap, got)) == \
            tuple(want)
        if p is not None:
            assert all(0 <= x < p for x in got)
        if field is QQ:
            assert all(type(x) is Fraction for x in got)


def test_matrix_equality_is_on_raw_rows():
    for field, entry, raw in ((F5, -1, 4), (QQ, "1/2", Fraction(1, 2))):
        m = Matrix(field, [[entry]])
        assert m == Matrix.from_raw(field, [[raw]])
        assert hash(m) == hash(Matrix.from_raw(field, [[raw]]))
        assert m.entries == ((field(entry),),)
        assert m.entries[0][0] == field(raw)


def test_q_witness_is_on_fractions():
    A = Algebra(QQ, 3, {(0, 0, 1): 1, (0, 1, 2): 1})
    P = Matrix(QQ, [[1, 1, 0], [0, 2, 0], [1, 0, 3]])
    w = iso_search(A, A.change_basis(P))
    assert w is not None and _all_fractions(w, P, Matrix.identity(QQ, 3))
