"""Fingerprints and the isomorphism separation report."""

import random
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from novikov import invariants
from novikov.algebra import Algebra
from novikov.exprs import ExprError, SqrtNotInField
from novikov.fields import QQ, DivisionByZero, PrimeField
from novikov.invariants import decide, element_census, fingerprint, separate
from novikov.linalg import Matrix
from novikov.morphisms import is_isomorphism

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


def test_fingerprint_is_basis_independent():
    rng = random.Random(7)
    A = Algebra(F5, 4, {(0, 0, 1): F5(1), (0, 1, 2): F5(1),
                        (1, 0, 2): F5(1), (0, 2, 3): F5(1)})
    fp = fingerprint(A)
    done = 0
    while done < 8:
        P = Matrix(F5, [[F5(rng.randrange(5)) for _ in range(4)]
                        for _ in range(4)])
        if not P.is_invertible():
            continue
        assert fingerprint(A.change_basis(P)) == fp
        done += 1


@st.composite
def _table_and_basis_change(draw):
    """(a random table over Q, F_2, F_3 or F_5, an invertible matrix of
    its size)."""
    field = draw(st.sampled_from([QQ, F2, F3, F5]))
    n = draw(st.integers(1, 4))
    values = st.integers(-2, 2)
    A = Algebra(field, n, draw(st.dictionaries(
        st.tuples(*[st.integers(0, n - 1)] * 3), values, max_size=8)))
    P = Matrix(field, draw(st.lists(st.lists(values, min_size=n,
                                             max_size=n),
                                    min_size=n, max_size=n)))
    assume(P.is_invertible())
    return A, P


@settings(max_examples=60, deadline=None)
@given(case=_table_and_basis_change())
def test_fingerprint_does_not_depend_on_the_basis(case):
    # the filtration, Ann, A^2, Der, Z^2 and H^2 of the same product in
    # another basis; over F_p the element census too
    A, P = case
    B = A.change_basis(P)
    assert fingerprint(B) == fingerprint(A)
    if A.field.modulus is not None:
        assert element_census(B) == element_census(A)


def test_fingerprint_fields():
    A = Algebra(QQ, 2, {(0, 0, 1): QQ(1)})
    fp = fingerprint(A)
    assert fp.dim == 2
    assert fp.filtration == (2, 1, 0)
    assert fp.ann == 1 and fp.square == 1 and fp.min_generators == 1
    assert fp.commutative and fp.associative


def test_separate_over_fp():
    A = Algebra(F5, 2, {(0, 0, 1): F5(1)})
    B = A.change_basis(Matrix(F5, [[2, 0], [0, 1]]))
    C = Algebra(F5, 2, {})
    rep = separate([("a", A), ("b", B), ("c", C)])
    assert ("a", "b") in rep["proven_isomorphic"]
    assert any(p[:2] == ("a", "c") for p in rep["proven_distinct"])
    assert not rep["undecided"]
    assert sorted(map(len, rep["groups"])) == [1, 2]


def test_separate_over_q_undecided_never_distinct_without_proof():
    # same fingerprint, heuristically isomorphic via scaling
    A = Algebra(QQ, 2, {(0, 0, 1): QQ(1)})
    B = Algebra(QQ, 2, {(0, 0, 1): QQ(4)})
    rep = separate([("a", A), ("b", B)])
    assert ("a", "b") in rep["proven_isomorphic"] or \
        ("a", "b") in rep["undecided"]
    assert all(p[:2] != ("a", "b") for p in rep["proven_distinct"])


# two classes of the s = 1 procedure on N3s_01 over F_3: equal
# fingerprints, and elements of type (1, 0, 1, 4) in X only
X = Algebra(F3, 4, {(0, 0, 1): 1, (0, 2, 3): 1, (1, 0, 3): 2, (2, 0, 3): 1})
Y = Algebra(F3, 4, {(0, 0, 1): 1, (0, 1, 3): 1, (0, 2, 3): 2, (2, 0, 3): 2})


def test_separate_over_fp_settles_by_census_without_search(monkeypatch):
    assert fingerprint(X) == fingerprint(Y)
    assert element_census(X) != element_census(Y)

    def no_search(*args, **kwargs):
        raise AssertionError("iso_search ran")
    monkeypatch.setattr(invariants, "iso_search", no_search)
    rep = separate([("x", X), ("y", Y)])
    assert rep["proven_distinct"] == [("x", "y", "census")]
    assert not rep["proven_isomorphic"] and not rep["undecided"]


# two classes of the s = 1 procedure on N3s_04z over F_3 with equal
# fingerprints and censuses (e2 e2 = e4 or 2 e4)
U, V = (Algebra(F3, 4, {(0, 0, 3): 1, (0, 1, 2): 1, (1, 0, 3): 2,
                        (1, 1, 3): c, (1, 2, 3): 2, (2, 1, 3): 1})
        for c in (1, 2))


_IDEMPOTENT_1 = Algebra(QQ, 2, {(0, 1, 0): 1, (1, 0, 0): 2, (1, 1, 1): 1})
_IDEMPOTENT_2 = Algebra(QQ, 2, {(0, 1, 0): 2, (1, 0, 0): 3, (1, 1, 1): 2})


def _squares(field, c):
    """e1 e1 = e2, e3 e3 = c e4: the search for c = 1 against c = 4
    takes more than one try."""
    return Algebra(field, 4, {(0, 0, 1): 1, (2, 2, 3): c})


@pytest.mark.parametrize("A, B, budget, verdict, reason", [
    (Algebra(QQ, 2, {(0, 0, 1): 1}), Algebra(QQ, 2, {}), 5_000_000,
     "distinct", "fingerprint"),
    (Algebra(F5, 2, {(0, 0, 1): 1}), Algebra(F5, 2, {}), 5_000_000,
     "distinct", "fingerprint"),
    (X, Y, 1, "distinct", "census"),
    (U, V, 5_000_000, "distinct", "exhaustive_search"),
    (_squares(F5, 1), _squares(F5, 4), 5_000_000, "isomorphic", "witness"),
    (_squares(F5, 1), _squares(F5, 4), 1, "undecided", "budget_exceeded"),
    (_squares(QQ, 1), _squares(QQ, 4), 1, "undecided", "budget_exceeded"),
    # not isomorphic: the one nonzero idempotent, e2 or e2 / 2, acts on
    # e1 by 2 or 3/2 from the left; but a failed search is no proof
    (_IDEMPOTENT_1, _IDEMPOTENT_2, 5_000_000,
     "undecided", "not_found_heuristic"),
], ids=["fingerprint-Q", "fingerprint-F5", "census", "exhaustive-search",
        "witness", "budget-F5", "budget-Q", "not-found-heuristic"])
def test_decide(A, B, budget, verdict, reason):
    if reason != "fingerprint":
        assert fingerprint(A) == fingerprint(B)
    got = decide(A, B, budget=budget)
    assert got[:2] == (verdict, reason)
    assert (got[2] is not None) == (verdict == "isomorphic")
    if got[2] is not None:
        assert is_isomorphism(A, B, got[2])


def test_decide_refuses_algebras_over_different_fields():
    with pytest.raises(ValueError, match="different fields"):
        decide(Algebra(QQ, 1, {}), Algebra(F3, 1, {}))


def test_local_types_of_a_small_algebra():
    # e1 e1 = e2 over F_3: A^2 = <e2>, A^3 = 0
    A = Algebra(F3, 2, {(0, 0, 1): 1})
    assert A.local_type((0, 0)) == (3, 0, 0, 3)
    assert A.local_type((0, 2)) == (2, 0, 0, 3)
    assert A.local_type((1, 2)) == (1, 1, 1, 2)
    assert element_census(A) == (((1, 1, 1, 2), 6), ((2, 0, 0, 3), 2),
                                 ((3, 0, 0, 3), 1))
    # Q has no finite set of elements to count
    with pytest.raises(ValueError):
        Algebra(QQ, 2, {(0, 0, 1): 1}).local_types()


@settings(max_examples=20, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), extension=st.booleans(),
       data=st.data())
def test_local_types_are_basis_independent_over_fp(cat, p, extension,
                                                   data):
    """The element with coordinates y in the basis of B = A.change_basis(P)
    is P y in A's: both have one local type, so the censuses agree."""
    F = PrimeField(p)
    if extension:
        label = data.draw(st.sampled_from(sorted(
            label for label, e in cat.entries.items() if not e.params)))
        try:
            A = cat.entry(label).extension(F, (), strict=False)
        except (SqrtNotInField, DivisionByZero, ExprError):
            assume(False)
    else:
        A = cat.bases[data.draw(st.sampled_from(sorted(
            k for k, rec in cat.bases.items() if not rec.params)))
                      ].algebra(F, {})
    n = A.dim
    P = Matrix(F, data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    assume(P.is_invertible())
    B = A.change_basis(P)
    assert element_census(B) == element_census(A)
    rows = P._rows
    for y in product(range(p), repeat=n):
        x = tuple(sum(a * b for a, b in zip(row, y)) % p for row in rows)
        assert B.local_type(y) == A.local_type(x)
