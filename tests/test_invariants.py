"""Fingerprints and the isomorphism separation report."""

import random

from novikov.algebra import Algebra
from novikov.fields import QQ, PrimeField
from novikov.invariants import fingerprint, separate
from novikov.linalg import Matrix

F5 = PrimeField(5)


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
