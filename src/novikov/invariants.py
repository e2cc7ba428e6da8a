"""Isomorphism-invariant fingerprints and the separation report.

A Fingerprint collects basis-independent numbers cheap enough to
compute for every algebra; unequal fingerprints prove non-isomorphism.
Over F_p the element census, the multiset of the local types of all p^n
elements (`Algebra.local_types`), is a finer invariant, and unequal
censuses prove non-isomorphism too; it is never used over Q, which has
no finite set of elements to count.
`separate` groups algebras by fingerprint and, inside a group over F_p,
settles pairs by census, then by exhaustive search.  Over Q the search
is heuristic, so unresolved pairs are reported as "undecided", never as
distinct.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .algebra import Algebra
from .cohomology import cocycle_space, h2_dimension
from .fields import PrimeField
from .morphisms import BudgetExceeded, derivation_algebra, iso_search


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


def separate(named_algebras, budget: int = 5_000_000, height: int = 3):
    """Partition report for [(name, Algebra), ...].

    Returns a dict with:
      groups: fingerprint-equivalence classes (distinct groups are
              proven non-isomorphic),
      proven_isomorphic: pairs with a verified witness,
      proven_distinct: (a, b, reason) for the pairs separated by
              "fingerprint", plus — over F_p only — by "census" or
              where the "exhaustive_search" failed,
      undecided: same-fingerprint pairs the heuristic search could not
              settle (only possible over non-prime fields).
    ValueError when the algebras live over different fields.
    """
    items = list(named_algebras)
    if len({alg.field for _, alg in items}) > 1:
        raise ValueError("the algebras live over different fields")
    fps = {name: fingerprint(alg) for name, alg in items}
    groups = {}
    for name, alg in items:
        groups.setdefault(fps[name], []).append(name)
    algs = dict(items)
    proven_iso = []
    proven_distinct = []
    undecided = []
    names = [name for name, _ in items]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if fps[a] != fps[b]:
                proven_distinct.append((a, b, "fingerprint"))
                continue
            exhaustive = isinstance(algs[a].field, PrimeField)
            if exhaustive and \
                    element_census(algs[a]) != element_census(algs[b]):
                proven_distinct.append((a, b, "census"))
                continue
            try:
                w = iso_search(algs[a], algs[b], budget=budget, height=height)
            except BudgetExceeded:
                w = None
                exhaustive = False
            if w is not None:
                proven_iso.append((a, b))
            elif exhaustive:
                proven_distinct.append((a, b, "exhaustive_search"))
            else:
                undecided.append((a, b))
    return {
        "groups": [sorted(members) for members in groups.values()],
        "proven_isomorphic": proven_iso,
        "proven_distinct": proven_distinct,
        "undecided": undecided,
    }
