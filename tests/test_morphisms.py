"""Homomorphisms, automorphisms, the H^2 action, isomorphism search."""

import gc
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from novikov.algebra import Algebra
from novikov.catalog import _evaluate
from novikov.cohomology import Cocycle
from novikov.fields import (QQ, FieldMismatch, GaussianRationalField,
                            PrimeField, QuadraticField)
from novikov.linalg import Matrix, eliminate
from novikov.morphisms import (DEFAULT_BUDGET, BudgetExceeded,
                               NotAutomorphism, WordBasis, _candidate_vectors,
                               _search, act_on_cocycle, derivation_algebra,
                               enumerate_aut_fp, is_homomorphism,
                               is_isomorphism, iso_search)

from conftest import first_admissible_env
from test_algebra import (QI, QS2, _identity_cases, _reference_fp_multiply,
                          _reference_multiply, _scalar)
from test_linalg import _reference_fp_reduce, _reference_fp_rref

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)

A = Algebra(QQ, 3, {(0, 0, 1): QQ(1)})   # e1e1 = e2


def test_homomorphism_check():
    ok, wit = is_homomorphism(A, A, Matrix.identity(QQ, 3))
    assert ok and wit is None
    # x -> 2x is not multiplicative here (square scales by 4)
    ok, wit = is_homomorphism(A, A, Matrix.identity(QQ, 3) * QQ(2))
    assert not ok and wit == (0, 0)
    with pytest.raises(ValueError):
        is_homomorphism(A, A, Matrix.identity(QQ, 2))
    # the check runs on raw scalars, which must not mix across fields
    with pytest.raises(FieldMismatch):
        is_homomorphism(A, A, Matrix.identity(F5, 3))


def test_isomorphism_check():
    # e1 -> e1, e2 -> e2, e3 -> e2 + e3 is an automorphism
    phi = Matrix(QQ, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    assert is_isomorphism(A, A, phi)
    assert not is_isomorphism(A, A, Matrix.zero(QQ, 3, 3))


def _reference_homomorphism(A, B, phi):
    """`is_homomorphism` by dense FieldElement products: phi applied to
    the table row of e_i e_j against phi(e_i) phi(e_j)."""
    wrap, cols = A.field.wrap, phi.transpose().entries
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = phi.apply([wrap(c) for c in A.table[i][j]])
            if lhs != _reference_multiply(B, cols[i], cols[j]):
                return False, (i, j)
    return True, None


@pytest.mark.parametrize("field", [QQ, QI, QS2, F5],
                         ids=["Q", "Q(i)", "Q(sqrt2)", "F_5"])
def test_homomorphism_check_matches_dense_reference(cat, field):
    # P is a homomorphism from A.change_basis(P) to A; moving one or two
    # of its entries usually breaks it, and the first failing pair
    # (i, j) must be the reference's
    rng = random.Random("homomorphism " + str(field))
    verdicts = []
    for A in _identity_cases(cat, field, seed="maps " + str(field)):
        n = A.dim
        while True:
            P = Matrix(field, [[_scalar(field, rng, -1, 1) for _ in range(n)]
                               for _ in range(n)])
            if P.is_invertible():
                break
        B = A.change_basis(P)
        assert is_homomorphism(B, A, P) == (True, None)
        for moved in (1, 2):
            rows = [list(r) for r in P.entries]
            for _ in range(moved):
                i, j = rng.randrange(n), rng.randrange(n)
                rows[i][j] = rows[i][j] + _scalar(field, rng)
            Q = Matrix(field, rows)
            got = is_homomorphism(B, A, Q)
            assert got == _reference_homomorphism(B, A, Q), (A, Q)
            verdicts.append(got)
    assert any(ok for ok, _ in verdicts)
    assert len({w for ok, w in verdicts if not ok}) >= 3


def test_act_on_cocycle_is_congruence():
    phi = Matrix(QQ, [[2, 0, 0], [0, 4, 0], [0, 0, 1]])
    assert is_isomorphism(A, A, phi)
    m = Matrix(QQ, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])  # Delta_13
    theta = Cocycle(A, [m], check=False)
    out = act_on_cocycle(A, phi, theta)
    assert Matrix(QQ, out.components[0]) == phi.transpose() * m * phi
    with pytest.raises(NotAutomorphism):
        act_on_cocycle(A, Matrix.identity(QQ, 3) * QQ(2), theta)


def test_act_on_cocycle_group_action():
    rng = random.Random(3)
    m = Matrix(QQ, [[0, 1, 0], [0, 0, 0], [1, 0, 0]])
    theta = Cocycle(A, [m], check=False)
    def random_aut():
        # for e1e1 = e2 the automorphisms are exactly
        # e1 -> a e1 + b e2 + c e3, e2 -> a^2 e2, e3 -> e e2 + f e3
        a = rng.choice([1, -1, 2, -2, 3])
        b, c, e = (rng.randint(-2, 2) for _ in range(3))
        f = rng.choice([1, -1, 2])
        phi = Matrix(QQ, [[a, 0, 0], [b, a * a, e], [c, 0, f]])
        assert is_isomorphism(A, A, phi)
        return phi
    for _ in range(5):
        phi, psi = random_aut(), random_aut()
        lhs = act_on_cocycle(A, phi * psi, theta)
        rhs = act_on_cocycle(A, psi, act_on_cocycle(A, phi, theta))
        assert lhs.components == rhs.components


def test_derivation_algebra():
    # for the zero product every endomorphism is a derivation
    zero = Algebra(QQ, 2, {})
    _, d = derivation_algebra(zero)
    assert d == 4
    _, d = derivation_algebra(A)
    sub, _ = derivation_algebra(A)
    e = Matrix.identity(QQ, 3).entries
    # each basis element satisfies the Leibniz rule
    for v in sub.basis:
        D = Matrix(QQ, [[v[i * 3 + j] for j in range(3)] for i in range(3)])
        for i in range(3):
            for j in range(3):
                x, y = e[i], e[j]
                left = D.apply(A.multiply(x, y))
                right = tuple(
                    a + b for a, b in zip(A.multiply(D.apply(x), y),
                                          A.multiply(x, D.apply(y))))
                assert left == right


def test_iso_search_finds_basis_change():
    rng = random.Random(5)
    B5 = Algebra(F5, 3, {(0, 0, 1): F5(1), (0, 1, 2): F5(1)})
    while True:
        P = Matrix(F5, [[F5(rng.randrange(5)) for _ in range(3)]
                        for _ in range(3)])
        if P.is_invertible():
            break
    C = B5.change_basis(P)
    w = iso_search(B5, C)
    assert w is not None and is_isomorphism(B5, C, w)


def test_iso_search_proves_distinct_over_fp():
    X = Algebra(F5, 2, {(0, 0, 1): F5(1)})
    Y = Algebra(F5, 2, {})
    assert iso_search(X, Y) is None


def test_iso_search_over_q():
    X = Algebra(QQ, 2, {(0, 0, 1): QQ(1)})
    Y = Algebra(QQ, 2, {(0, 0, 1): QQ(4)})     # rescale e1 by 1/2
    w = iso_search(X, Y, height=3)
    assert w is not None and is_isomorphism(X, Y, w)


def test_iso_search_leaves_no_garbage():
    X = Algebra(QQ, 2, {(0, 0, 1): QQ(1)})
    Y = Algebra(QQ, 2, {(0, 0, 1): QQ(4)})
    gc.disable()
    try:
        gc.collect()
        assert iso_search(X, Y, height=3) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_complete_enumeration_leaves_no_garbage(cat):
    # the search generator runs to its end here, where iso_search stops
    # it after the first witness
    A = cat.bases["N3s_01"].algebra(F3, {})
    gc.disable()
    try:
        gc.collect()
        assert len(enumerate_aut_fp(A)) == 108
        assert gc.collect() == 0
    finally:
        gc.enable()


class _ReferenceOps:
    """What the pool reference needs of B: its field, dimension and
    square (the generic-field search adapter of earlier versions)."""

    def __init__(self, B):
        self.B = B
        self.field = B.field
        self.sq = B.square()

    def not_in_square(self, v):
        return not self.sq.member(v)


def _reference_pool(ops, height):
    """The pool built vector by vector with a membership test in B^2,
    as field elements."""
    vals = []
    seen = set()
    for num in range(1, height + 1):
        for den in range(1, height + 1):
            fr = Fraction(num, den)
            for s in (fr, -fr):
                if s not in seen:
                    seen.add(s)
                    vals.append(s)
    vals.sort(key=lambda v: (abs(v.numerator) + v.denominator, abs(v)))
    f, z, dim = ops.field, ops.field.zero(), ops.B.dim
    out = []
    for size in (1, 2, 3):
        for supp in combinations(range(dim), size):
            for coeffs in product(vals, repeat=size):
                v = [z] * dim
                for pos, c in zip(supp, coeffs):
                    v[pos] = f(c)
                v = tuple(v)
                if ops.not_in_square(v):
                    out.append(v)
    return out


def _raw(field, vectors):
    return [tuple(map(field.raw, v)) for v in vectors]


QI, QS2 = GaussianRationalField(), QuadraticField(2)


@pytest.mark.parametrize("algebra", [
    Algebra(QQ, 3, {}),                                       # B^2 = 0
    Algebra(QQ, 3, {(i, i, i): QQ(1) for i in range(3)}),     # B^2 = all
    Algebra(QI, 4, {(0, 0, 2): QI(1), (0, 0, 3): QI("0+1*i"),
                    (1, 1, 0): QI("0+1*i"), (1, 1, 1): QI("0+1*i")}),
    Algebra(QS2, 4, {(0, 0, 1): QS2("0+1*sqrt(2)"),
                     (0, 0, 2): QS2(2) * QS2("0+1*sqrt(2)"),
                     (1, 1, 3): QS2(1) + QS2("0+1*sqrt(2)")}),
], ids=["zero-square", "full-square", "Q(i)", "Q(sqrt2)"])
def test_candidate_pool_matches_reference(algebra):
    ops = _ReferenceOps(algebra)
    pool = _candidate_vectors(algebra, 3)
    assert pool == _raw(algebra.field, _reference_pool(ops, 3))
    if not ops.sq.basis:
        assert len(pool) == 14 * 3 + 14 ** 2 * 3 + 14 ** 3
    if ops.sq.dim == algebra.dim:
        assert pool == []


def test_candidate_pool_matches_reference_on_catalog(cat):
    base = cat.bases["N4_07"]
    B = base.algebra(QQ, first_admissible_env(base))
    assert _candidate_vectors(B, 3) == \
        _raw(QQ, _reference_pool(_ReferenceOps(B), 3))
    left = cat.meta["noted_isomorphisms"][1]["left"]
    assert left[0] == "N_016"
    entry = cat.entry(left[0])
    ext = entry.extension(QQ, tuple(left[1][p] for p in entry.params),
                          strict=False)
    pool = _candidate_vectors(ext, 3)
    assert len(pool) == 26096
    assert pool == _raw(QQ, _reference_pool(_ReferenceOps(ext), 3))


def test_budget_exceeded():
    X = Algebra(F5, 4, {(0, 0, 1): F5(1), (2, 2, 3): F5(1)})
    P = Matrix(F5, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]])
    Y = X.change_basis(P)      # e3e3 = 4 e4: same algebra, new table
    assert X.table != Y.table
    with pytest.raises(BudgetExceeded):
        iso_search(X, Y, budget=1)


def test_enumerate_aut_fp():
    # zero product on F_2^2: Aut = GL(2, F_2), order 6
    zero = Algebra(F2, 2, {})
    auts = enumerate_aut_fp(zero)
    assert len(auts) == 6
    assert len({a.entries for a in auts}) == 6
    for a in auts:
        assert is_isomorphism(zero, zero, a)
    # no generator to assign: the one automorphism is the 0 x 0 identity
    assert enumerate_aut_fp(Algebra(F3, 0, {})) == [Matrix.identity(F3, 0)]
    with pytest.raises(ValueError):
        enumerate_aut_fp(Algebra(QQ, 1, {}))


def _reference_fp_pool(A):
    """The nonzero int vectors mod p outside A^2, in `product` order."""
    p = A.field.p
    rows = [list(row) for plane in A.table for row in plane]
    square = _reference_fp_rref([r for r in rows if any(r)], p)[0]
    return [v for v in product(range(p), repeat=A.dim)
            if any(v) and any(_reference_fp_reduce(v, square, p))]


def _reference_enumerate_aut_fp(A):
    """Every automorphism, by the generator-image search on int tuples
    mod p with its own elimination and product, as `enumerate_aut_fp`
    ran before every field shared one scalar kernel."""
    p, n = A.field.p, A.dim
    wb = WordBasis(A)
    pool = _reference_fp_pool(A)
    # every relation: the checked ones and those the search solves
    relations = [[(a, b, tuple(dict(terms).get(t, 0) for t in range(n)))
                  for a, b, terms in checked + affine]
                 for checked, affine in zip(wb.relations, wb.affine)]
    images = [None] * n
    results = []

    def mul(x, y):
        return _reference_fp_multiply(A, x, y)

    def combine(coords):
        out = [0] * n
        for c, v in zip(coords, images):
            if c:
                out = [(u + c * w) % p for u, w in zip(out, v)]
        return tuple(out)

    def extend(level):
        for cand in pool:
            for t in wb.new_words[level]:
                w = wb.words[t]
                images[t] = cand if w[0] == "gen" else \
                    mul(images[w[1]], images[w[2]])
            if any(mul(images[a], images[b]) != combine(coords)
                   for a, b, coords in relations[level]):
                continue
            avail = [images[t] for t in range(n) if wb.word_level[t] <= level]
            if _reference_fp_rref(avail, p)[1] != len(avail):
                continue
            if level + 1 == wb.n_generators:
                img = Matrix(A.field, [[A.field(x) for x in images[t]]
                                       for t in range(n)]).transpose()
                results.append(img * Matrix(A.field, wb.inverse))
            else:
                extend(level + 1)

    extend(0)
    return results


# every parameter-free catalog base over F_2, the 3-dimensional ones over
# F_3: the whole-pool oracles check every relation at every node, so the
# search's solve of the affine relations is checked on each relation
# shape of the catalog
_FREE_BASE_ORDERS = [
    ("M4_02", 2, 32), ("M4_03", 2, 192), ("M4_04z", 2, 32), ("M4_05", 2, 64),
    ("M4_06", 2, 16), ("M4_07", 2, 16), ("M4_08one", 2, 32),
    ("M4_10", 2, 48), ("M4_11", 2, 48), ("M4_12", 2, 32), ("M4_13", 2, 32),
    ("M4_14one", 2, 32), ("M4_14z", 2, 32), ("M4_15", 2, 48),
    ("N3s_01", 2, 8), ("N3s_02", 2, 8), ("N3s_03", 2, 24),
    ("N3s_04z", 2, 4), ("N4_01", 2, 16), ("N4_02one", 2, 16),
    ("N4_05", 2, 16), ("N4_07", 2, 8), ("N4_08", 2, 16), ("N4_09", 2, 16),
    ("N4_10", 2, 8), ("N4_11", 2, 8), ("N4_12", 2, 8), ("N4_13", 2, 8),
    ("N4_14", 2, 8), ("N4_15", 2, 8), ("N4_16", 2, 8), ("N4_17", 2, 8),
    ("N4_18", 2, 8), ("N4_19", 2, 8),
    ("N3s_02", 3, 144), ("N3s_03", 3, 432), ("N3s_04z", 3, 36)]


@pytest.mark.parametrize("key, p, order", [
    ("N3s_01", 3, 108), ("M4_01", 2, 192),
    (None, 5, 1200),    # e1e1 = e3, e2e2 = 2 e3: a relation coefficient 2
    *_FREE_BASE_ORDERS])
def test_enumerate_aut_fp_matches_reference(cat, key, p, order):
    F = PrimeField(p)
    A = cat.bases[key].algebra(F, {}) if key else \
        Algebra(F, 3, {(0, 0, 2): F(1), (1, 1, 2): F(2)})
    assert _candidate_vectors(A, 0) == _reference_fp_pool(A)
    auts = [phi.entries for phi in enumerate_aut_fp(A)]
    assert auts == [phi.entries for phi in _reference_enumerate_aut_fp(A)]
    assert auts == [phi.entries for phi in _reference_search(
        A, A, 50_000_000, 0, find_all=True)]
    assert auts == [phi.entries for phi in _search(A, A, DEFAULT_BUDGET, 0)]
    assert len(auts) == order


def test_recorded_automorphism_shapes(cat):
    """Every stored parameterized automorphism shape really is an
    automorphism wherever its determinant is nonzero."""
    rng = random.Random(11)
    for key, rec in sorted(cat.bases.items()):
        if rec.aut_shape is None or rec.params:
            continue
        A0 = rec.algebra(QQ, {})
        done = 0
        while done < 5:
            env = {p: QQ(Fraction(rng.randint(-3, 3)))
                   for p in rec.aut_params}
            if not _evaluate(rec.aut_det, QQ, env):
                continue
            phi = rec.automorphism(QQ, env)
            assert is_isomorphism(A0, A0, phi), (key, env)
            done += 1


# ----------------------------------------------------------------------
# the linear filter of the search against the whole-pool search

def _reference_search(A, B, budget, height, find_all):
    """`_search` as it was before each level solved its affine
    relations: every pool vector is tried at every level and checked
    against every relation.  Every witness is re-verified, over F_p too,
    where `_search` trusts its relation checks."""
    wb = WordBasis(A)
    g = wb.n_generators
    f = A.field
    raw, p = f.raw, f.modulus
    pool = _candidate_vectors(B, height)
    relations = [checked + affine
                 for checked, affine in zip(wb.relations, wb.affine)]
    multiply = B.multiply_raw
    zero = raw(f.zero())
    counter = [0]
    results = []
    n = A.dim
    images = [None] * n

    def combine(terms):
        out = [zero] * n
        for t, c in terms:
            for k, w in enumerate(images[t]):
                if w:
                    out[k] = out[k] + c * w
        return tuple(out) if p is None else tuple(x % p for x in out)

    def extend(level):
        for cand in pool:
            counter[0] += 1
            if counter[0] > budget:
                raise BudgetExceeded(f"search budget {budget} exhausted")
            ok = True
            for t in wb.new_words[level]:
                w = wb.words[t]
                images[t] = cand if w[0] == "gen" else \
                    multiply(images[w[1]], images[w[2]])
            for a, b, terms in relations[level]:
                if multiply(images[a], images[b]) != combine(terms):
                    ok = False
                    break
            if ok:
                avail = [images[t] for t in range(n)
                         if wb.word_level[t] <= level]
                ok = eliminate(avail, p)[1] == len(avail)
            if ok:
                if level + 1 == g:
                    img = Matrix(f, [[f.wrap(x) for x in images[t]]
                                     for t in range(n)]).transpose()
                    phi = img * Matrix(f, [[f.wrap(x) for x in row]
                                           for row in wb.inverse])
                    if is_isomorphism(A, B, phi):
                        results.append(phi)
                        if not find_all:
                            return True
                elif extend(level + 1):
                    return True
        return False

    try:
        extend(0)
    finally:
        extend = None
    return results


def _noted_pair(cat, k, field):
    pair = cat.meta["noted_isomorphisms"][k]

    def build(spec):
        label, params = spec
        entry = cat.entry(label)
        return entry.extension(field, tuple(params[p] for p in entry.params),
                               strict=False)
    return build(pair["left"]), build(pair["right"])


def _unitriangular(rng, n):
    """Ones on the diagonal, random signs above it (the basis changes of
    the iso-q benchmark workload)."""
    return [[1 if i == j else rng.choice((1, -1)) if j > i else 0
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("seed", [1, 2])
def test_search_matches_reference_on_iso_q_inputs(cat, seed):
    pairs = [_noted_pair(cat, k, QQ) for k in (0, 1)]
    rng = random.Random(f"iso-q:{seed}")
    for _, rec in sorted(cat.bases.items()):
        A = rec.algebra(QQ, first_admissible_env(rec))
        pairs.append((A, A.change_basis(
            Matrix(QQ, _unitriangular(rng, A.dim)))))
    for L, R in pairs:
        found = next(_search(L, R, DEFAULT_BUDGET, 3), None)
        assert found is not None, L
        assert [found] == \
            _reference_search(L, R, 5_000_000, 3, find_all=False)
        assert found == iso_search(L, R)


def test_search_matches_reference_on_n088_over_f5(cat):
    L, R = _noted_pair(cat, 3, F5)
    found = next(_search(L, R, DEFAULT_BUDGET, 0), None)
    assert found is not None and is_isomorphism(L, R, found)
    assert [found] == \
        _reference_search(L, R, 50_000_000, 0, find_all=False)
    assert found == iso_search(L, R)


def test_search_skips_a_level_whose_system_is_inconsistent():
    # both generated by e1, e2 with e3 = e1 e2; X is not commutative, Y
    # is, so with e1's image fixed the relations of e2's image that are
    # linear in it have no solution, and no second image is visited
    X = Algebra(F3, 3, {(0, 0, 2): F3(2), (0, 1, 2): F3(1),
                        (1, 0, 2): F3(2), (1, 1, 2): F3(2)})
    Y = Algebra(F3, 3, {(0, 1, 2): F3(1), (1, 0, 2): F3(1),
                        (1, 1, 2): F3(2)})
    first_level = len(_candidate_vectors(Y, 0))
    assert first_level == 24
    assert list(_search(X, Y, first_level, 0)) == []
    with pytest.raises(BudgetExceeded):
        _reference_search(X, Y, first_level, 0, find_all=True)
    assert _reference_search(X, Y, 10 ** 6, 0, find_all=True) == []
    assert iso_search(X, Y) is None


# ----------------------------------------------------------------------
# algebras that a complement of the square does not generate

def _idempotent_lines(field):
    """e1 e1 = e1 and e2 e2 = e2 on F^2: isomorphic, not nilpotent."""
    return (Algebra(field, 2, {(0, 0, 0): field(1)}),
            Algebra(field, 2, {(1, 1, 1): field(1)}))


@pytest.mark.parametrize("field", [QQ, F3], ids=["Q", "F3"])
def test_iso_search_on_non_nilpotent_algebras(field):
    X, Y = _idempotent_lines(field)
    wb = WordBasis(X)
    assert not wb.minimal and wb.n_generators == 2
    w = iso_search(X, Y)
    assert w is not None and is_isomorphism(X, Y, w)
    assert w == Matrix(field, [[0, 1], [1, 0]])
    # e1 idempotent and e2 e2 = e3 (commutative) against the same with
    # e2 e1 = e3 added (not commutative): equal invariants, distinct
    C = Algebra(field, 3, {(0, 0, 0): field(1), (1, 1, 2): field(1)})
    D = Algebra(field, 3, {(0, 0, 0): field(1), (1, 1, 2): field(1),
                           (1, 0, 2): field(1)})
    assert iso_search(C, D) is None
    P = Matrix(field, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    w = iso_search(C, C.change_basis(P))
    assert w is not None and is_isomorphism(C, C.change_basis(P), w)


# ----------------------------------------------------------------------
# property: the search recovers a basis change

@settings(max_examples=20, deadline=None)
@given(p=st.sampled_from([3, 5]), data=st.data())
def test_iso_search_recovers_a_basis_change_over_fp(cat, p, data):
    key = data.draw(st.sampled_from(
        sorted(k for k, rec in cat.bases.items() if not rec.params)))
    F = PrimeField(p)
    A = cat.bases[key].algebra(F, {})
    n = A.dim
    P = Matrix(F, data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    assume(P.is_invertible())
    B = A.change_basis(P)
    w = iso_search(A, B)       # exhaustive: an isomorphism must be found
    assert w is not None and is_isomorphism(A, B, w)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_iso_search_recovers_a_unitriangular_change_over_q(cat, data):
    rec = cat.bases[data.draw(st.sampled_from(sorted(cat.bases)))]
    A = rec.algebra(QQ, first_admissible_env(rec))
    n = A.dim
    signs = data.draw(st.lists(st.sampled_from([1, -1]),
                               min_size=n * n, max_size=n * n))
    P = Matrix(QQ, [[1 if i == j else signs[i * n + j] if j > i else 0
                     for j in range(n)] for i in range(n)])
    B = A.change_basis(P)
    w = iso_search(A, B, height=3)
    assert w is not None and is_isomorphism(A, B, w)
