"""Cocycles, coboundaries, H^2, and T_s membership."""

import random

import pytest

from novikov.algebra import Algebra
from novikov.cohomology import (Cocycle, DependentClasses, NotACocycle,
                                NotCommutative, classes_independent,
                                coboundary_space, cocycle_equations,
                                cocycle_space, flatten, form_sum, h2_basis,
                                h2_coordinates, h2_dimension,
                                h2_symmetric_dimension, in_Ts)
from novikov.fields import (QQ, GaussianRationalField, PrimeField,
                            QuadraticField)
from novikov.fplab import specialized_tables_fp
from novikov.linalg import Matrix, Subspace

from conftest import coboundary_of, first_admissible_env

F5 = PrimeField(5)

A = Algebra(QQ, 3, {(0, 0, 1): QQ(1)})   # e1e1 = e2


def test_coboundaries_are_cocycles():
    z2 = cocycle_space(A)
    b2 = coboundary_space(A)
    assert z2.contains(b2)
    assert h2_dimension(A) == z2.dim - b2.dim
    rng = random.Random(0)
    for _ in range(10):
        f = [QQ(rng.randint(-3, 3)) for _ in range(A.dim)]
        delta = coboundary_of(A, f)
        assert z2.member(flatten(delta))
        assert b2.member(flatten(delta))


def test_h2_basis_representatives():
    reps, d = h2_basis(A)
    assert len(reps) == d == h2_dimension(A)
    assert classes_independent(A, reps)
    for r in reps:
        # representatives really satisfy the cocycle equations
        Cocycle(A, [r.components[0]], check=True)


def _delta(i, j, n=3):
    return Matrix(QQ, [[QQ(1 if (a, b) == (i, j) else 0) for b in range(n)]
                       for a in range(n)])


def test_cocycle_validation():
    # the cocycle equations for A force theta(e2, e2) = 0, so Delta_22
    # is not a cocycle while Delta_11 is
    Cocycle(A, [_delta(0, 0)], check=True)
    with pytest.raises(NotACocycle):
        Cocycle(A, [_delta(1, 1)], check=True)
    # unchecked construction allows deliberate non-cocycles
    theta = Cocycle(A, [_delta(1, 1)], check=False)
    assert theta.s == 1 and not theta.checked


def test_cocycle_annihilator():
    theta = Cocycle(A, [_delta(0, 0)])
    # e2, e3 annihilate Delta_11
    assert theta.annihilator().dim == 2


def test_cocycle_json_roundtrip():
    reps, _ = h2_basis(A)
    theta = Cocycle(A, [reps[0].components[0]], check=True)
    doc = theta.to_json()
    back = Cocycle.from_json(doc)
    assert back.components == theta.components
    assert back.base == A
    # over Q, Q(i), Q(sqrt 2) and F_5: the coercing constructor, from a
    # Matrix, nested ints or strings, stores the raw forms that from_raw
    # takes, and to_json/from_json gives the same cocycle back
    for f in (QQ, QI, QuadraticField(2), F5):
        B = Algebra(f, 3, {(0, 0, 1): f(1), (0, 1, 2): f(1)})
        ints = [[3 * i - j for j in range(3)] for i in range(3)]
        want = Cocycle.from_raw(B, [[[f.raw(f(x)) for x in row]
                                     for row in ints]], check=False)
        for form in (Matrix(f, ints), ints,
                     [[repr(f(x)) for x in row] for row in ints]):
            assert Cocycle(B, [form], check=False) == want
        reps = [r.components[0] for r in h2_basis(B)[0]]
        theta = Cocycle.from_raw(B, [form_sum(B, [(f(2), reps[0]),
                                                  (f(-3), reps[-1])]),
                                     reps[-1]])
        assert Cocycle(B, [Matrix(f, m) for m in theta.components]) == theta
        assert Cocycle.from_json(theta.to_json()) == theta


def test_flatten_unflatten():
    # flatten is row-major; rows of n entries give the form back, as
    # h2_basis reads its representatives
    m = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
    flat = flatten(m)
    assert flat == list(range(1, 10))
    assert tuple(tuple(flat[i * 3:(i + 1) * 3]) for i in range(3)) == m


def test_symmetric_h2():
    assert h2_symmetric_dimension(A) >= 0
    noncomm = Algebra(QQ, 2, {(0, 1, 1): QQ(1)})
    assert not noncomm.is_commutative()
    with pytest.raises(NotCommutative):
        h2_symmetric_dimension(noncomm)


def test_in_ts():
    # Delta_13 is a cocycle independent of the coboundaries, but its
    # annihilator <e2> meets Ann(A) = <e2,e3>: not in T_1
    theta = Cocycle(A, [_delta(0, 2)])
    assert not in_Ts(A, [theta])
    # a coboundary is a dependent class
    delta = Cocycle(A, [coboundary_of(A, [QQ(0), QQ(1), QQ(0)])])
    with pytest.raises(DependentClasses):
        in_Ts(A, [delta])


def test_in_ts_positive(cat):
    # every curated sample of a rigid entry lands in T_1
    entry = cat.entry("N_001")
    Ab, theta = entry.specialize(QQ, ())
    assert in_Ts(Ab, [theta])


def test_abelian_algebra_cocycles():
    zero = Algebra(F5, 2, {})
    assert cocycle_space(zero).dim == 4      # every form is a cocycle
    assert coboundary_space(zero).dim == 0
    assert h2_dimension(zero) == 4


# ----------------------------------------------------------------------
# Z^2 and Cocycle(check=True) share the sparse rows of cocycle_equations;
# the reference is the dense row builder they replaced, and membership in
# the Z^2 it eliminates.

QI = GaussianRationalField()


def _reference_cocycle_space(A):
    n = A.dim
    f = A.field
    z = f.zero()
    rows = []
    for i in range(n):
        for j in range(n):
            pij = A.table[i][j]
            for k in range(n):
                pik = A.table[i][k]
                pjk = A.table[j][k]
                pji = A.table[j][i]
                # eq 1: theta(e_i e_j, e_k) - theta(e_i e_k, e_j) = 0
                if k > j:  # (j,k) symmetric pair; skip duplicates
                    row = [z] * (n * n)
                    for l in range(n):
                        if pij[l]:
                            row[l * n + k] = row[l * n + k] + pij[l]
                        if pik[l]:
                            row[l * n + j] = row[l * n + j] - pik[l]
                    if any(row):
                        rows.append(row)
                # eq 2: theta(e_i e_j, e_k) - theta(e_i, e_j e_k)
                #     - theta(e_j e_i, e_k) + theta(e_j, e_i e_k) = 0
                if j > i:  # antisymmetric in (i,j); skip duplicates
                    row = [z] * (n * n)
                    for l in range(n):
                        if pij[l]:
                            row[l * n + k] = row[l * n + k] + pij[l]
                        if pji[l]:
                            row[l * n + k] = row[l * n + k] - pji[l]
                        if pjk[l]:
                            row[i * n + l] = row[i * n + l] - pjk[l]
                        if pik[l]:
                            row[j * n + l] = row[j * n + l] + pik[l]
                    if any(row):
                        rows.append(row)
    if not rows:
        return Subspace.full(f, n * n)
    return Matrix(f, rows).kernel()


def _reference_is_cocycle(A, m):
    return _reference_cocycle_space(A).member(flatten(m))


def _random_form(A, rng, in_z2):
    n, f = A.dim, A.field
    if in_z2:
        z2 = cocycle_space(A).basis
        coeffs = [f(rng.randint(-3, 3)) for _ in z2]
        flat = [sum((c * v[t] for c, v in zip(coeffs, z2)), f.zero())
                for t in range(n * n)]
    else:
        flat = [f(rng.randint(-2, 2)) for _ in range(n * n)]
    return [[f.raw(x) for x in flat[i * n:(i + 1) * n]] for i in range(n)]


@pytest.mark.parametrize("field", [QQ, QI, F5, PrimeField(2), PrimeField(3)],
                         ids=["Q", "Q(i)", "F_5", "F_2", "F_3"])
def test_cocycle_check_matches_reference(cat, field):
    rng = random.Random(str(field))
    verdicts = set()
    for key in ("M4_01", "M4_05", "M4_12", "N3s_01", "N4_07", "N4_16"):
        A = cat.bases[key].algebra(field, {})
        for t in range(20):
            m = _random_form(A, rng, in_z2=t % 2 == 0)
            want = _reference_is_cocycle(A, m)
            verdicts.add(want)
            try:
                Cocycle.from_raw(A, [m], check=True)
                got = True
            except NotACocycle as e:
                assert str(e) == ("component 1 violates the cocycle "
                                  "equations")
                got = False
            assert got == want, (key, t)
    assert verdicts == {True, False}


def test_cocycle_check_names_first_bad_component():
    good, bad = _delta(0, 0), _delta(1, 1)
    Cocycle(A, [good, good], check=True)
    for comps, t in (([bad, good], 1), ([good, bad], 2)):
        with pytest.raises(NotACocycle, match=f"component {t} "):
            Cocycle(A, comps, check=True)


def test_cocycle_space_computed_once_per_algebra():
    B = Algebra(QQ, 3, {(0, 0, 1): QQ(1), (0, 1, 2): QQ(1)})
    z2 = cocycle_space(B)
    assert cocycle_space(B) is z2
    assert cocycle_equations(B) is cocycle_equations(B)
    assert z2 == _reference_cocycle_space(Algebra(QQ, 3, B.table))
    # a basis change is another algebra with its own Z^2
    C = B.change_basis(Matrix(QQ, [[0, 0, 1], [0, 1, 0], [1, 0, 0]]))
    assert cocycle_space(C) == _reference_cocycle_space(C)
    assert cocycle_space(C) != z2


@pytest.mark.parametrize("field", [QQ, QI, PrimeField(2), PrimeField(3), F5],
                         ids=repr)
def test_cocycle_space_matches_reference(cat, field):
    # every base at its first admissible parameters (over F_p: at every
    # admissible parameter tuple), and some dimension-5 extensions
    if isinstance(field, PrimeField):
        algebras = [A for dim in (3, 4)
                    for _, A in specialized_tables_fp(cat, field, dim)[0]]
    else:
        algebras = [rec.algebra(field, first_admissible_env(rec, field))
                    for _, rec in sorted(cat.bases.items())]
    algebras += [cat.entry(label).extension(field, ())
                 for label in ("N_001", "N_002", "N_013", "N_070")]
    for A in algebras:
        assert cocycle_space(A).basis == _reference_cocycle_space(A).basis, A


def test_form_sum_matches_matrix_sum():
    rng = random.Random(3)
    for field in (QQ, QI, F5):
        B = Algebra(field, 3, {})
        for _ in range(20):
            terms = [(field(rng.randint(-3, 3)),
                      Matrix(field, [[rng.randint(-2, 2) for _ in range(3)]
                                     for _ in range(3)]))
                     for _ in range(rng.randint(0, 4))]
            want = Matrix.zero(field, 3, 3)
            for c, m in terms:
                want = want + m * c
            got = form_sum(B, [(c, m._rows) for c, m in terms])
            assert Matrix(field, got) == want
    # over F_5 the sums reach p and come out reduced: 4*4 + 3*2 = 22,
    # 4*3 = 12, 3*4 = 12 and 4*1 + 3*4 = 16
    B = Algebra(F5, 2, {})
    assert form_sum(B, [(F5(4), ((4, 3), (0, 1))),
                        (F5(3), ((2, 0), (4, 4)))]) == ((2, 2), (2, 1))


@pytest.mark.parametrize("entries, s, words", [
    ([{"t": 2, "i": 1, "j": 1, "c": "1"}], 1, "t = 2"),
    ([{"t": 1, "i": 0, "j": 1, "c": "1"}], 1, "i = 0"),
    ([{"t": 1, "i": 1, "j": 4, "c": "1"}], 1, "j = 4"),
    ([{"t": 1, "i": 1.0, "j": 1, "c": "1"}], 1, "i = 1.0"),
    ([{"t": 1, "i": 1, "j": 1, "c": "1"},
      {"t": 1, "i": 1, "j": 1, "c": "2"}], 1, "duplicate"),
    ([], -1, "s = -1"),
])
def test_cocycle_json_rejects_malformed(entries, s, words):
    doc = {"base": A.to_json(), "s": s, "entries": entries}
    with pytest.raises(ValueError, match=words):
        Cocycle.from_json(doc)


@pytest.mark.parametrize("key", ["base", "s", "entries"])
def test_cocycle_json_names_a_missing_key(key):
    doc = {"base": A.to_json(), "s": 1, "entries": []}
    del doc[key]
    with pytest.raises(ValueError, match=f"missing key '{key}'"):
        Cocycle.from_json(doc)


def _reference_h2_coordinates(A, classes, targets):
    """Per target, its coordinates on the classes by `Matrix.solve` in
    the basis (classes, then B^2), or None when it lies outside their
    span; None for all when that basis is dependent."""
    f = A.field
    cols = [flatten(m) for m in classes] + \
        [list(v) for v in coboundary_space(A).basis]
    stack = Matrix(f, cols).transpose()
    if stack.rank() < len(cols):
        return None
    out = []
    for v in targets:
        sol = stack.solve([f.wrap(x) for x in v])
        out.append(None if sol is None else
                   [f.raw(c) for c in sol[:len(classes)]])
    return out


@pytest.mark.parametrize("field", [QQ, F5], ids=repr)
def test_h2_coordinates_match_reference(cat, field):
    rng = random.Random(7)
    raw = field.raw
    checked = 0
    for key, rec in sorted(cat.bases.items()):
        if not rec.nablas_raw:
            continue
        env = first_admissible_env(rec, field)
        A = rec.algebra(field, env)
        classes = rec.nabla_matrices(field, env)
        cob = coboundary_space(A)._rows
        n2 = A.dim ** 2
        targets = [[raw(field(rng.randint(-3, 3))) for _ in range(n2)]
                   for _ in range(3)]
        for _ in range(3):
            # a point of Z = span(classes) + B^2
            terms = [(field(rng.randint(-3, 3)), m) for m in classes]
            form = flatten(form_sum(A, terms))
            for row in cob:
                c = raw(field(rng.randint(-2, 2)))
                form = [x + c * y for x, y in zip(form, row)]
            targets.append([raw(field(x)) for x in form])
        want = _reference_h2_coordinates(A, classes, targets)
        got = h2_coordinates(A, classes, targets)
        assert want is not None, key
        coords, residual = got
        coords = coords[:len(classes)]
        for t, w in enumerate(want):
            in_span = not any(row[t] for row in residual)
            assert in_span == (w is not None), (key, t)
            if in_span:
                assert [row[t] for row in coords] == w, (key, t)
        assert all(w is not None for w in want[3:]), key
        checked += 1
        # dependent classes: a class twice, or a class and a multiple of
        # it plus a coboundary
        nab = classes[0]
        twice = flatten(form_sum(A, [(field(2), nab)]))
        if cob:
            twice = [x + y for x, y in zip(twice, cob[0])]
        for dependent in ([nab, nab],
                          [nab, [twice[i * A.dim:(i + 1) * A.dim]
                                 for i in range(A.dim)]]):
            assert h2_coordinates(A, dependent, targets) is None
            assert _reference_h2_coordinates(A, dependent, targets) is None
        if checked == 8:
            break
    assert checked == 8
