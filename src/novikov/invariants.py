"""Isomorphism-invariant fingerprints and the one isomorphism decision.

A Fingerprint collects basis-independent numbers cheap enough to
compute for every algebra; unequal fingerprints prove non-isomorphism.
Over F_p the element census, the multiset of the local types of all p^n
elements (`Algebra.local_types`), is a finer invariant, and unequal
censuses prove non-isomorphism too; it is never used over Q, which has
no finite set of elements to count.

`decide` settles a pair for `iso`, `separate` and the F_p dedupe and
cross-check.  Its verdicts and reasons, in the order tried:
    distinct    fingerprint          on every field
    distinct    census               F_p only
    isomorphic  witness              the search found an isomorphism
    distinct    exhaustive_search    F_p only: the search found none
    undecided   not_found_heuristic  other fields: the search found none
    undecided   budget_exceeded      the search ran out of budget
A failed search is a proof over F_p and only a heuristic elsewhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .algebra import Algebra
from .cohomology import cocycle_space, h2_dimension
from .fields import PrimeField
from .morphisms import (DEFAULT_BUDGET, BudgetExceeded, derivation_algebra,
                        iso_search)


@dataclass(frozen=True)
class Fingerprint:
    dim: int
    filtration: tuple
    ann: int
    left_ann: int
    right_ann: int
    square: int
    commutator: int
    min_generators: int
    der: int
    z2: int
    h2: int
    commutative: bool
    associative: bool


def fingerprint(A: Algebra) -> Fingerprint:
    """The Fingerprint of A, computed once per algebra."""
    return A._memo("fingerprint", lambda: Fingerprint(
        dim=A.dim,
        filtration=tuple(s.dim for s in A.power_filtration()),
        ann=A.annihilator().dim,
        left_ann=A.left_annihilator().dim,
        right_ann=A.right_annihilator().dim,
        square=A.square().dim,
        commutator=A.commutator_space().dim,
        min_generators=A.min_generators(),
        der=derivation_algebra(A)[1],
        z2=cocycle_space(A).dim,
        h2=h2_dimension(A),
        commutative=A.is_commutative(),
        associative=A.is_associative(),
    ))


def element_census(A: Algebra):
    """The multiset of local types (`Algebra.local_types`) of the
    elements of A over F_p, as sorted (type, count) pairs, computed
    once per algebra.  An isomorphism preserves each element's type, so
    unequal censuses prove non-isomorphism."""
    def compute():
        ids, types = A.local_types()
        return tuple(sorted((types[i], c) for i, c in Counter(ids).items()))
    return A._memo("element_census", compute)


def decide(A: Algebra, B: Algebra, budget: int = DEFAULT_BUDGET,
           height: int = 3):
    """(verdict, reason, witness) for A and B, as in the module
    docstring; the witness is an isomorphism A -> B (a Matrix) for
    "isomorphic" and None otherwise.  ValueError when the algebras live
    over different fields."""
    if A.field != B.field:
        raise ValueError("the algebras live over different fields")
    if fingerprint(A) != fingerprint(B):
        return "distinct", "fingerprint", None
    exhaustive = isinstance(A.field, PrimeField)
    if exhaustive and element_census(A) != element_census(B):
        return "distinct", "census", None
    try:
        w = iso_search(A, B, budget=budget, height=height)
    except BudgetExceeded:
        return "undecided", "budget_exceeded", None
    if w is not None:
        return "isomorphic", "witness", w
    if exhaustive:
        return "distinct", "exhaustive_search", None
    return "undecided", "not_found_heuristic", None


def separate(named_algebras, budget: int = DEFAULT_BUDGET, height: int = 3):
    """Partition report for [(name, Algebra), ...].

    Returns a dict with:
      groups: fingerprint-equivalence classes (distinct groups are
              proven non-isomorphic),
      proven_isomorphic: pairs with a verified witness,
      proven_distinct: (a, b, reason) for the pairs `decide` proves
              distinct, the reason being "fingerprint", "census" or
              "exhaustive_search",
      undecided: the pairs `decide` leaves undecided.
    ValueError when the algebras live over different fields.
    """
    items = list(named_algebras)
    if len({alg.field for _, alg in items}) > 1:
        raise ValueError("the algebras live over different fields")
    groups = {}
    for name, alg in items:
        groups.setdefault(fingerprint(alg), []).append(name)
    proven_iso = []
    proven_distinct = []
    undecided = []
    for i, (a, A) in enumerate(items):
        for b, B in items[i + 1:]:
            verdict, reason, _ = decide(A, B, budget, height)
            if verdict == "isomorphic":
                proven_iso.append((a, b))
            elif verdict == "distinct":
                proven_distinct.append((a, b, reason))
            else:
                undecided.append((a, b))
    return {
        "groups": [sorted(members) for members in groups.values()],
        "proven_isomorphic": proven_iso,
        "proven_distinct": proven_distinct,
        "undecided": undecided,
    }
