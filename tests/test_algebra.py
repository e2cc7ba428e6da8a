"""Structure-constant algebras: identities, filtration, basis change."""

import json
import random
from fractions import Fraction
from functools import partial
from itertools import product

import pytest

from novikov.algebra import Algebra, NotAnIdeal
from novikov.fields import (QQ, FieldMismatch, GaussianRationalField,
                            PrimeField, QuadraticField)
from novikov.linalg import (DimensionMismatch, Matrix, SingularMatrix,
                            Subspace)

from conftest import reference_null_space

F2, F5 = PrimeField(2), PrimeField(5)

# e1e1 = e2, everything else zero: commutative, associative? (e1e1)e1 =
# e2e1 = 0 = e1(e1e1); Novikov; nilpotent of index 3.
A3 = Algebra(QQ, 3, {(0, 0, 1): QQ(1)})

# e1e2 = e3, e2e1 = -e3: anticommutative, not right-commutative in
# general?  Check: it *is* 2-step so all triples vanish; use a genuine
# counterexample instead: e1e1 = e1 breaks left-symmetry with a second
# generator interacting.
NOT_NOVIKOV = Algebra(QQ, 2, {(0, 0, 0): QQ(1), (0, 1, 1): QQ(1),
                              (1, 0, 1): QQ(-1)})


def test_identity_checks_on_examples():
    assert A3.is_novikov()
    assert A3.is_commutative()
    assert A3.is_associative()
    ok, witness = NOT_NOVIKOV.is_left_symmetric()
    rc, _ = NOT_NOVIKOV.is_right_commutative()
    assert not (ok and rc)
    assert not NOT_NOVIKOV.is_novikov()


def test_multiply_bilinearity():
    x = (QQ(2), QQ(0), QQ(0))
    y = (QQ(3), QQ(0), QQ(0))
    assert A3.multiply(x, y) == (QQ(0), QQ(6), QQ(0))


def test_power_filtration_and_nilpotency():
    powers = A3.power_filtration()
    assert [s.dim for s in powers] == [3, 1, 0]
    assert A3.nilpotency_index() == 3
    assert A3.is_two_step()
    # an idempotent line never reaches zero
    idem = Algebra(QQ, 1, {(0, 0, 0): QQ(1)})
    assert idem.nilpotency_index() is None


def test_annihilators_and_split():
    assert A3.annihilator().dim == 2        # e2, e3
    assert A3.left_annihilator().dim == 2
    assert A3.right_annihilator().dim == 2
    assert A3.square().dim == 1
    assert A3.min_generators() == 2
    # e3 is an annihilator line outside A^2: split
    assert A3.is_split()
    A2 = Algebra(QQ, 2, {(0, 0, 1): QQ(1)})
    assert not A2.is_split()


def test_quotient():
    ann = Subspace(QQ, 3, [[0, 0, 1]])
    q = A3.quotient(ann)
    assert q.dim == 2
    assert q.table[0][0][1] == QQ(1)
    not_ideal = Subspace(QQ, 3, [[1, 0, 0]])
    with pytest.raises(NotAnIdeal):
        A3.quotient(not_ideal)


def test_change_basis_preserves_invariants():
    rng = random.Random(1)
    A = Algebra(F5, 3, {(0, 0, 1): F5(1), (0, 1, 2): F5(1),
                        (1, 0, 2): F5(1)})
    seen = 0
    while seen < 10:
        P = Matrix(F5, [[F5(rng.randrange(5)) for _ in range(3)]
                        for _ in range(3)])
        if not P.is_invertible():
            continue
        B = A.change_basis(P)
        assert B.is_novikov() == A.is_novikov()
        assert B.annihilator().dim == A.annihilator().dim
        assert B.square().dim == A.square().dim
        assert B.nilpotency_index() == A.nilpotency_index()
        assert B.min_generators() == A.min_generators()
        assert B.is_commutative() == A.is_commutative()
        seen += 1


def test_change_basis_identity_and_errors():
    assert A3.change_basis(Matrix.identity(QQ, 3)) == A3
    with pytest.raises(SingularMatrix):
        A3.change_basis(Matrix.zero(QQ, 3, 3))
    # an F_5 matrix of a Q algebra: its residues are no rationals
    with pytest.raises(FieldMismatch):
        A3.change_basis(Matrix(PrimeField(5), [[1, 0, 0], [0, 2, 0],
                                               [0, 0, 1]]))


def test_change_basis_rejects_a_basis_of_the_wrong_size():
    # an invertible 2x2 change of a 3-dimensional algebra: its columns
    # are too short to be vectors of the algebra
    with pytest.raises(DimensionMismatch):
        A3.change_basis(Matrix.identity(QQ, 2))
    with pytest.raises(DimensionMismatch):
        A3.change_basis(Matrix.identity(QQ, 4))
    # a matrix that is not square is not a basis change at all
    with pytest.raises(SingularMatrix):
        A3.change_basis(Matrix(QQ, [[1, 0], [0, 1], [0, 0]]))


def test_json_roundtrip():
    doc = A3.to_json()
    assert doc["field"] == "q"
    assert Algebra.from_json(doc) == A3
    B = Algebra(F5, 2, {(0, 1, 0): F5(3)})
    assert Algebra.from_json(B.to_json()) == B


def test_commutator_space():
    assert A3.commutator_space().dim == 0
    assert NOT_NOVIKOV.commutator_space().dim == 1


# ----------------------------------------------------------------------
# The identity checks contract the structure tensor, and the derived
# subspaces are memoized.  The references below are the basis-vector
# checkers, the product_space filtration and the dense-operator
# annihilators they replaced.

QI, QS2 = GaussianRationalField(), QuadraticField(2)


def _reference_multiply(A, x, y):
    z = A.field.zero()
    out = [z] * A.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            coef = xi * yj
            for k, c in enumerate(A.table[i][j]):
                if c:
                    out[k] = out[k] + coef * c
    return tuple(out)


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _reference_right_commutative(A):
    mul = partial(_reference_multiply, A)
    e = Matrix.identity(A.field, A.dim).entries
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(j + 1, A.dim):
                if mul(mul(e[i], e[j]), e[k]) != mul(mul(e[i], e[k]), e[j]):
                    return False, (i, j, k)
    return True, None


def _reference_left_symmetric(A):
    mul = partial(_reference_multiply, A)
    e = Matrix.identity(A.field, A.dim).entries
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            for k in range(A.dim):
                lhs = _vsub(mul(mul(e[i], e[j]), e[k]),
                            mul(e[i], mul(e[j], e[k])))
                rhs = _vsub(mul(mul(e[j], e[i]), e[k]),
                            mul(e[j], mul(e[i], e[k])))
                if lhs != rhs:
                    return False, (i, j, k)
    return True, None


def _reference_associative(A):
    mul = partial(_reference_multiply, A)
    e = Matrix.identity(A.field, A.dim).entries
    return all(mul(mul(e[i], e[j]), e[k]) == mul(e[i], mul(e[j], e[k]))
               for i in range(A.dim) for j in range(A.dim)
               for k in range(A.dim))


def _reference_product_space(A, S, T):
    return Subspace(A.field, A.dim, [_reference_multiply(A, u, v)
                                     for u in S.basis for v in T.basis])


def _reference_filtration(A):
    powers = [Subspace.full(A.field, A.dim)]
    while True:
        m = len(powers) + 1
        nxt = Subspace(A.field, A.dim)
        for i in range(1, m):
            nxt = nxt + _reference_product_space(A, powers[i - 1],
                                                 powers[m - i - 1])
        powers.append(nxt)
        if nxt.dim == 0 or nxt == powers[-2]:
            return powers


def _reference_two_step(A):
    full = Subspace.full(A.field, A.dim)
    sq = _reference_product_space(A, full, full)
    return (_reference_product_space(A, sq, full).dim == 0
            and _reference_product_space(A, full, sq).dim == 0)


def _reference_annihilators(A):
    """(left, right, two-sided) from the dense stacked operators, each the
    kernel of one elimination of all their rows (no unit rows peeled)."""
    n, f = A.dim, A.field
    left = [[A.table[i][j][k] for i in range(n)]
            for j in range(n) for k in range(n)]
    right = [[A.table[j][i][k] for i in range(n)]
             for j in range(n) for k in range(n)]
    zero, one = f.raw(f.zero()), f.raw(f.one())
    return tuple(Subspace.from_raw(f, n, reference_null_space(
        rows, n, zero, one, f.modulus)) for rows in (left, right, left + right))


def _scalar(f, rng, lo=-2, hi=2):
    c = f(rng.randint(lo, hi))
    if f is QI:
        c = c + f(rng.randint(lo, hi)) * f("0+1*i")
    elif f is QS2:
        c = c + f(rng.randint(lo, hi)) * f("0+1*sqrt(2)")
    return c


def _random_change(A, rng):
    while True:
        P = Matrix(A.field, [[_scalar(A.field, rng, -1, 1)
                              for _ in range(A.dim)] for _ in range(A.dim)])
        if P.is_invertible():
            return A.change_basis(P)


def _perturbed(A, rng):
    """A with one structure constant moved (usually not Novikov)."""
    n = A.dim
    table = {(i, j, k): A.table[i][j][k] for i in range(n)
             for j in range(n) for k in range(n)}
    key = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
    table[key] = table[key] + A.field(1)
    return Algebra(A.field, n, table)


def _random_sparse(f, rng):
    n = rng.randint(1, 5)
    return Algebra(f, n, {(rng.randrange(n), rng.randrange(n),
                           rng.randrange(n)): _scalar(f, rng)
                          for _ in range(rng.randint(0, 2 * n))})


def _identity_cases(cat, f, seed):
    rng = random.Random(seed)
    cases = []
    for key in ("M4_01", "M4_07", "N3s_01", "N4_12"):
        A = cat.bases[key].algebra(f, {})
        B = _random_change(A, rng)
        cases += [A, B, _perturbed(A, rng), _perturbed(B, rng)]
    cases += [_random_sparse(f, rng) for _ in range(40)]
    return cases


@pytest.mark.parametrize("field", [QQ, QI, QS2, F5],
                         ids=["Q", "Q(i)", "Q(sqrt2)", "F_5"])
def test_identity_checks_match_reference(cat, field):
    cases = _identity_cases(cat, field, seed=str(field))
    verdicts = set()
    for A in cases:
        rc, ls = A.is_right_commutative(), A.is_left_symmetric()
        assert rc == _reference_right_commutative(A), A
        assert ls == _reference_left_symmetric(A), A
        assert A.is_associative() == _reference_associative(A), A
        assert A.is_novikov() == (rc[0] and ls[0])
        verdicts.add((rc[0], ls[0]))
    # both verdicts, and witnesses of both failures, are exercised
    assert {(True, True), (False, False)} <= verdicts
    assert any(v == (True, False) for v in verdicts) or \
        any(v == (False, True) for v in verdicts)


def _reference_sparse_multiply(A, x, y):
    """The product over `nonzero_products` in FieldElement arithmetic."""
    nz = A.nonzero_products()
    out = [A.field.zero()] * A.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj or not nz[i][j]:
                continue
            coef = xi * yj
            for k, c in nz[i][j]:
                out[k] = out[k] + coef * c
    return tuple(out)


def _reference_fp_multiply(A, x, y):
    """The product on int tuples mod p over the dense table, as the
    separate F_p search algebra computed it."""
    p, n = A.field.p, A.dim
    table = A.table
    out = [0] * n
    for i in range(n):
        if not x[i]:
            continue
        for j in range(n):
            if not y[j]:
                continue
            c = x[i] * y[j]
            row = table[i][j]
            for k in range(n):
                if row[k]:
                    out[k] = (out[k] + c * row[k]) % p
    return tuple(out)


def test_multiply_matches_reference():
    rng = random.Random(3)
    for f in (QQ, QI, QS2, F2, F5):
        for _ in range(30):
            A = _random_sparse(f, rng)
            x = [_scalar(f, rng) for _ in range(A.dim)]
            y = [_scalar(f, rng) for _ in range(A.dim)]
            want = _reference_multiply(A, x, y)
            assert A.multiply(x, y) == want
            assert _reference_sparse_multiply(A, x, y) == want
            got = A.multiply_raw([f.raw(a) for a in x], [f.raw(b) for b in y])
            assert got == tuple(map(f.raw, want))
            if f.modulus is not None:
                assert got == _reference_fp_multiply(
                    A, [f.raw(a) for a in x], [f.raw(b) for b in y])


def _rational(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 6))


def test_rational_products_match_reference():
    # over Q multiply_raw sums on integers scaled by the lcm of the
    # denominators; each coordinate must come back as the exact
    # Fraction (an int would compare equal and pass unnoticed)
    rng = random.Random(17)
    for case in range(120):
        n = rng.randint(1, 5)
        integral = case % 4 == 0
        draw = (lambda: Fraction(rng.randint(-5, 5))) if integral else \
            (lambda: _rational(rng))
        A = Algebra(QQ, n, {(i, j, k): draw() for i in range(n)
                            for j in range(n) for k in range(n)})
        units = [tuple(Fraction(int(i == k)) for k in range(n))
                 for i in range(n)]
        vectors = [tuple(_rational(rng) for _ in range(n)) for _ in range(3)]
        vectors += [tuple(Fraction(rng.randint(-5, 5)) for _ in range(n)),
                    (Fraction(0),) * n] + units
        for x in vectors:
            for y in vectors:
                got = A.multiply_raw(x, y)
                want = _reference_multiply(A, tuple(map(QQ.wrap, x)),
                                           tuple(map(QQ.wrap, y)))
                assert got == tuple(map(QQ.raw, want)), (A, x, y)
                assert all(type(c) is Fraction for c in got), got
    # the table's own rows times rationals, and a sparse table
    B = Algebra(QQ, 3, BOUNDARY_TABLE)
    x = (Fraction(1, 3), Fraction(-2, 5), Fraction(3, 4))
    for y in B.table[0] + (x,):
        got = B.multiply_raw(x, y)
        assert got == tuple(map(QQ.raw, _reference_multiply(
            B, tuple(map(QQ.wrap, x)), tuple(map(QQ.wrap, y)))))
        assert all(type(c) is Fraction for c in got)


def _reference_left_products(A):
    """L[i][j][k] = (e_i e_j) e_k by two products."""
    mul, e, n = A.multiply_raw, A._units(), A.dim
    return [[[mul(mul(e[i], e[j]), e[k]) for k in range(n)]
             for j in range(n)] for i in range(n)]


def _reference_associators(A):
    """D[i][j][k] = (e_i e_j) e_k - e_i (e_j e_k) by four products."""
    mul, e, n, p = A.multiply_raw, A._units(), A.dim, A.field.modulus

    def sub(u, v):
        d = [a - b for a, b in zip(u, v)]
        return tuple(d) if p is None else tuple(a % p for a in d)
    return [[[sub(mul(mul(e[i], e[j]), e[k]), mul(e[i], mul(e[j], e[k])))
              for k in range(n)] for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("field", [QQ, QI, QS2, F5],
                         ids=["Q", "Q(i)", "Q(sqrt2)", "F_5"])
def test_triple_products_match_their_definitions(cat, field):
    # the tables are sparse: each listed triple matches the definition,
    # and each omitted one stands for zero, so must be zero by it
    for A in _identity_cases(cat, field, seed="triples " + str(field)):
        triples = list(product(range(A.dim), repeat=3))
        zeros = (field.raw(field.zero()),) * A.dim
        for table, want in ((A._left_products(), _reference_left_products(A)),
                            (A._associators(), _reference_associators(A))):
            assert set(table) <= set(triples), A
            for i, j, k in triples:
                assert table.get((i, j, k), zeros) == want[i][j][k], \
                    (A, i, j, k)


def _assert_derived_match_reference(A):
    powers = A.power_filtration()
    assert powers == _reference_filtration(A)
    assert A.square() == powers[1]
    assert A.is_two_step() == _reference_two_step(A)
    assert A.nilpotency_index() == (
        len(powers) if powers[-1].dim == 0 else None)
    _assert_annihilators_match_reference(A)


def _assert_annihilators_match_reference(A):
    left, right, ann = _reference_annihilators(A)
    assert A.annihilator() == ann
    assert A.left_annihilator() == left
    assert A.right_annihilator() == right


def test_annihilators_match_reference_on_catalog_samples(cat):
    # every base tuple of the default samples over Q, and the extension
    # of every such sample (the items of the catalog-q benchmark)
    from novikov.extensions import central_extension
    bases = {}
    for entry in cat.entries.values():
        for sample in entry.default_samples(QQ):
            A, theta = entry.specialize(QQ, sample)
            bases[id(A)] = A
            _assert_annihilators_match_reference(central_extension(A, theta))
    assert len(bases) == 34
    for A in bases.values():
        _assert_annihilators_match_reference(A)


def test_derived_subspaces_match_reference_on_catalog(cat):
    from conftest import first_admissible_env
    from novikov.cohomology import Cocycle, cocycle_space
    from novikov.extensions import central_extension
    rng = random.Random(5)
    for key, rec in sorted(cat.bases.items()):
        A = rec.algebra(QQ, first_admissible_env(rec))
        _assert_derived_match_reference(A)
        z2 = cocycle_space(A).basis
        n = A.dim
        coeffs = [QQ(rng.randint(-2, 2)) for _ in z2]
        flat = [sum((c * v[t] for c, v in zip(coeffs, z2)), QQ(0))
                for t in range(n * n)]
        novikov_ext = central_extension(A, Cocycle(
            A, [[flat[i * n: i * n + n] for i in range(n)]]))
        other_ext = central_extension(A, Cocycle(
            A, [[[QQ(rng.randint(-1, 1)) for _ in range(n)]
                 for _ in range(n)]], check=False))
        for B in (novikov_ext, other_ext):
            _assert_derived_match_reference(B)


@pytest.mark.parametrize("field, c", [
    (QQ, QQ(Fraction(2, 3))), (QI, QI("0+1*i")), (QS2, QS2("0+1*sqrt(2)")),
    (F5, F5(3))], ids=["Q", "Q(i)", "Q(sqrt2)", "F_5"])
def test_filtration_matches_reference_when_products_cancel(field, c):
    # e1e1 = e2 + e3, e2e1 = c e4, e3e1 = -c e4, e1e2 = e4, e1e3 = e5:
    # (e2 + e3) e1, a product of basis rows of A^2 and A, meets the
    # nonzero constants of e2e1 and e3e1 and cancels to zero
    A = Algebra(field, 5, {(0, 0, 1): 1, (0, 0, 2): 1, (1, 0, 3): c,
                           (2, 0, 3): -c, (0, 1, 3): 1, (0, 2, 4): 1})
    zero, one = field.raw(field.zero()), field.raw(field.one())
    u, e1 = (zero, one, one, zero, zero), (one,) + (zero,) * 4
    assert list(u) in A.square()._rows
    assert A.multiply_raw(u, e1) == (zero,) * 5
    assert [S.dim for S in A.power_filtration()] == [5, 3, 1, 0]
    rng = random.Random(str(field))
    for B in [A] + [_random_change(A, rng) for _ in range(6)]:
        _assert_derived_match_reference(B)


def test_derived_subspaces_match_reference_on_random_tables():
    rng = random.Random(11)
    for f in (QQ, QI, F5):
        for _ in range(40):
            _assert_derived_match_reference(_random_sparse(f, rng))
    idem = Algebra(QQ, 2, {(0, 0, 0): QQ(1), (0, 1, 1): QQ(1)})
    _assert_derived_match_reference(idem)        # stabilizes at A^2 = A
    _assert_derived_match_reference(Algebra(QQ, 0, {}))


def test_cache_does_not_leak():
    A = Algebra(QQ, 3, {(0, 0, 1): QQ(1), (0, 1, 2): QQ(1)})
    assert [s.dim for s in A.power_filtration()] == [3, 2, 1, 0]
    assert A.annihilator().dim == 1 and A.is_novikov()
    # a fresh list each time: mutating one changes no later answer
    A.power_filtration().append(None)
    assert len(A.power_filtration()) == 4
    # equality and hashing ignore the cache
    fresh = Algebra(QQ, 3, {(0, 0, 1): QQ(1), (0, 1, 2): QQ(1)})
    assert fresh == A and hash(fresh) == hash(A)
    # results of change_basis and quotient compute their own data
    P = Matrix(QQ, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    B = A.change_basis(P)
    assert B.table != A.table
    _assert_derived_match_reference(B)
    assert B.square() != A.square()
    assert B.is_novikov()
    assert B.is_left_symmetric() == _reference_left_symmetric(B)
    Q = A.quotient(A.annihilator())
    _assert_derived_match_reference(Q)
    assert [s.dim for s in Q.power_filtration()] == [2, 1, 0]


# e1e1 = 2 e2, e1e2 = -e3 + e2, e2e1 = 3 e3, e3e3 = 1/2 e1
BOUNDARY_TABLE = {(0, 0, 1): 2, (0, 1, 2): -1, (0, 1, 1): 1, (1, 0, 2): 3,
                  (2, 2, 0): Fraction(1, 2)}


@pytest.mark.parametrize("field", [QQ, F5, GaussianRationalField(),
                                   QuadraticField(2)],
                         ids=["Q", "F5", "Qi", "Qsqrt2"])
def test_the_constructor_is_the_one_coercing_boundary(field):
    elements = {key: field(c) for key, c in BOUNDARY_TABLE.items()}
    raw = [[[field.raw(elements.get((i, j, k), field.zero()))
             for k in range(3)] for j in range(3)] for i in range(3)]
    algebras = [
        Algebra(field, 3, BOUNDARY_TABLE),
        Algebra(field, 3, {key: repr(c) for key, c in elements.items()}),
        Algebra(field, 3, elements),
        Algebra(field, 3, [[[field.wrap(c) for c in row] for row in plane]
                           for plane in raw]),
        Algebra.from_raw(field, 3, raw),
    ]
    for B in algebras:
        assert B == algebras[0] and hash(B) == hash(algebras[0])
        assert B.to_json() == algebras[0].to_json()
        assert repr(B) == repr(algebras[0])
    A = algebras[0]
    # the table holds raw scalars: Fractions over Q (an int there would
    # make elimination divide in floats), residues in [0, p) over F_p
    entries = [c for plane in A.table for row in plane for c in row]
    if field == QQ:
        assert all(type(c) is Fraction for c in entries)
    elif field == F5:
        assert all(type(c) is int and 0 <= c < 5 for c in entries)
    e = Matrix.identity(field, 3).entries
    assert A.multiply(e[0], e[1]) == tuple(map(field.wrap, A.table[0][1]))
    assert Algebra.from_json(json.loads(json.dumps(A.to_json()))) == A


@pytest.mark.parametrize("field", [QQ, F5, GaussianRationalField()],
                         ids=["Q", "F5", "Qi"])
def test_multiply_coerces_plain_vectors(field):
    A = Algebra(field, 3, BOUNDARY_TABLE)
    x, y = (1, -2, 3), (2, 0, -1)
    as_raw = [[field.raw(field(c)) for c in v] for v in (x, y)]
    as_elements = [[field(c) for c in v] for v in (x, y)]
    want = tuple(map(field.wrap, A.multiply_raw(*as_raw)))
    assert A.multiply(x, y) == A.multiply(*as_raw) == \
        A.multiply(*as_elements) == want
    # a row of the raw table is itself a vector multiply accepts
    row = A.table[0][0]
    assert A.multiply(row, row) == tuple(map(field.wrap,
                                             A.multiply_raw(row, row)))
