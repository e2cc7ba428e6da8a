"""Finite-field classification lab.

Runs the full extension procedure over a prime field, where everything
is finite and exhaustively checkable: enumerate H^2, enumerate the
Grassmannian of s-dimensional subspaces of H^2 in canonical reduced
row-echelon form, act with the distinct H^2 matrices of the (fully
enumerated) automorphism group, keep the admissible orbits, build one
extension per orbit and deduplicate by exhaustive isomorphism search.

Both the dedupe and the cross-check settle each pair with
`invariants.decide`, where every verdict is a proof: unequal
fingerprints, then unequal element censuses (the multiset of local
types of the p^n elements), prove it non-isomorphic without a search,
and otherwise the exhaustive search decides; a spent budget raises
BudgetExceeded.  The reports count the pairs settled by census,
`census_splits`, and by search, `dedupe_searches`; they are counts,
not times, so the reports stay byte-stable.

Each orbit is generated once, from its first point in Grassmannian
order, by mapping that point under every distinct action; its
representative is the last image to appear for the first time (the
point itself if it is fixed).  Orbits are listed sorted by
representative.

The orbit stage runs on raw rows (residues mod p) throughout: the
automorphisms are the Matrices of `morphisms.enumerate_aut_fp`, which
builds the group from coset transversals along the generators and lists
it lexicographically in their images; their raw rows are read as they
are; their action on H^2 is read off sparse
coordinate functionals without forming the image forms
(`induced_h2_matrices`), and a point's image under an action is a sum
of the action's sparse columns (`linalg.combine`).  The catalog is
specialized over F_p by the catalog's one tuple walk,
`catalog.tuples_fp`.

Orbit counts over F_p are p-specific and are never claimed to equal
characteristic-zero counts; the value of a run is the bidirectional
cross-check against specializations of the catalog, with specialization
failures (denominators divisible by p, square roots that do not exist
in F_p) listed rather than silently dropped.
"""

from __future__ import annotations

from itertools import combinations, product

from .algebra import Algebra
from .catalog import Catalog, tuples_fp
from .cohomology import Cocycle, form_sum, h2_basis, h2_coordinates, in_Ts
from .extensions import central_extension
from .fields import PrimeField
from .invariants import decide
from .linalg import combine, eliminate
from .morphisms import (DEFAULT_BUDGET, BudgetExceeded, enumerate_aut_fp,
                        iso_search)


def grassmannian_points(dim: int, s: int, p: int):
    """All s-dimensional subspaces of F_p^dim, one canonical reduced
    row-echelon basis each, as tuples of s coordinate tuples."""
    if not 0 < s <= dim:
        return []
    points = []
    for pivots in combinations(range(dim), s):
        # free positions: row r, columns right of its pivot that are
        # not pivots of later rows
        free = []
        for r in range(s):
            for c in range(pivots[r] + 1, dim):
                if c not in pivots:
                    free.append((r, c))
        for vals in product(range(p), repeat=len(free)):
            rows = [[0] * dim for _ in range(s)]
            for r in range(s):
                rows[r][pivots[r]] = 1
            for (r, c), v in zip(free, vals):
                rows[r][c] = v
            points.append(tuple(tuple(r) for r in rows))
    return points


def _canonical(rows, p):
    """The reduced row-echelon basis of independent rows of residues mod
    p: one row is scaled by the inverse of its first nonzero entry, more
    go through `eliminate`."""
    if len(rows) == 1:
        row = rows[0]
        lead = next((x for x in row if x), 0)
        if lead == 1:
            return (tuple(row),)
        if lead:
            inv = pow(lead, -1, p)
            return (tuple(x * inv % p for x in row),)
    rref, rank, _ = eliminate(rows, p)
    if rank != len(rows):
        raise ValueError("rows not independent")
    return tuple(tuple(r) for r in rref[:rank])


def induced_h2_matrices(A: Algebra, reps, auts):
    """For each automorphism (a Matrix over F_p, read by its raw rows),
    the d x d integer matrix of its action on H^2 coordinates in the
    basis `reps` (single-component cocycles): entry (i, j) is
    coordinate i of the image of class j.

    `cohomology.h2_coordinates` of the unit forms, in the basis S of the
    representatives followed by B^2, gives a left inverse of S on the
    classes (the coordinates) and the equations of Z^2 = span(S) (the
    residual rows).  These functionals are kept sparse, as (a, b, R_ab)
    triples, and so is each representative m, as (i, j, m_ij) triples.  A
    functional R takes the value sum R_ab m_ij phi_ia phi_jb on the
    image phi^T m phi, mod p, so the image itself is never formed; every
    nonzero equation is evaluated on every image."""
    n, d, p = A.dim, len(reps), A.field.modulus
    mats = [r.components[0] for r in reps]
    solved = h2_coordinates(A, mats, [[int(i == j) for j in range(n * n)]
                                      for i in range(n * n)])
    if solved is None:
        raise ValueError("representatives are not independent modulo B^2")
    coords, equations = solved[0][:d], [e for e in solved[1] if any(e)]
    functionals = [[(k // n, k % n, c) for k, c in enumerate(row) if c]
                   for row in coords + equations]
    # per representative: (functional, R_ab m_ij, flat ia, flat jb)
    plans = [[(t, r * c % p, i * n + a, j * n + b)
              for t, R in enumerate(functionals) for a, b, r in R
              for i, row in enumerate(m) for j, c in enumerate(row) if c]
             for m in mats]
    out = []
    for phi in auts:
        flat = [x for row in phi._rows for x in row]
        columns = []
        for plan in plans:
            acc = [0] * len(functionals)
            for t, k, u, v in plan:
                acc[t] += k * flat[u] * flat[v]
            if any(x % p for x in acc[d:]):
                raise RuntimeError("automorphism left the cocycle space")
            columns.append([x % p for x in acc[:d]])
        # columns[j] = coordinates of the image of basis class j
        out.append([list(row) for row in zip(*columns)])
    return out


def _orbit_representatives(points, actions, p):
    """One representative per orbit of `actions` (matrices forming a
    group) on the canonical `points`, sorted.  Each orbit is generated
    from its first point in the order of `points`; its representative is
    the last image of that point to appear for the first time, or the
    point itself when it is fixed.  A point row's image under M is the
    sum of M's columns at the row's nonzero entries, each scaled by its
    entry (`linalg.combine` of M's sparse columns)."""
    zeros = (0,) * len(actions[0])
    columns = [[[(i, x) for i, x in enumerate(col) if x] for col in zip(*M)]
               for M in actions]
    seen = set()
    roots = []
    for pt in points:
        if pt in seen:
            continue
        seen.add(pt)
        root = pt
        terms = [[(j, c) for j, c in enumerate(row) if c] for row in pt]
        for cols in columns:
            image = _canonical([combine(zeros, [(c, cols[j]) for j, c in t],
                                        p) for t in terms], p)
            if image not in seen:
                seen.add(image)
                root = image
        roots.append(root)
    return sorted(roots)


def _isomorphic(B: Algebra, C: Algebra, counts, budget):
    """Is B isomorphic to C, for algebras over F_p?  `decide` answers;
    a census settlement is counted in counts["census_splits"] and a
    search in counts["dedupe_searches"]."""
    verdict, reason, _ = decide(B, C, budget)
    if reason == "budget_exceeded":
        raise BudgetExceeded(f"search budget {budget} exhausted")
    if verdict == "undecided":
        raise ValueError(f"no proof over {B.field} ({reason})")
    if reason != "fingerprint":
        counts["census_splits" if reason == "census"
               else "dedupe_searches"] += 1
    return verdict == "isomorphic"


def run_procedure_fp_report(A: Algebra, s: int,
                            budget: int = DEFAULT_BUDGET):
    if not isinstance(A.field, PrimeField):
        raise ValueError("the exhaustive procedure needs a prime field")
    if A.dim > 4:
        raise ValueError("dimension at most 4")
    if A.field.p not in (2, 3, 5):
        raise ValueError("p must be 2, 3 or 5")
    if s not in (1, 2):
        raise ValueError("s must be 1 or 2")
    p = A.field.p
    f = A.field
    reps, d = h2_basis(A)
    mats = [r.components[0] for r in reps]
    auts = enumerate_aut_fp(A, budget=budget)
    # distinct actions, each at its first occurrence
    actions = list(dict.fromkeys(
        tuple(map(tuple, M)) for M in induced_h2_matrices(A, reps, auts)))

    points = grassmannian_points(d, s, p)
    roots = _orbit_representatives(points, actions, p)

    def cocycle_at(pt):
        return Cocycle.from_raw(A, [
            form_sum(A, [(f(c), m) for c, m in zip(row, mats)])
            for row in pt], check=False)

    admissible = []
    for root in roots:
        theta = cocycle_at(root)
        if in_Ts(A, [theta]):
            admissible.append((root, theta))

    built = [(root, central_extension(A, theta))
             for root, theta in admissible]

    # deduplicate, in representative order
    classes = []
    merged = 0
    counts = {"census_splits": 0, "dedupe_searches": 0}
    for root, B in built:
        if any(_isomorphic(B, C, counts, budget) for _, C in classes):
            merged += 1
        else:
            classes.append((root, B))
    return {
        "p": p,
        "s": s,
        "h2_dim": d,
        "aut_order": len(auts),
        "points": len(points),
        "distinct_actions": len(actions),
        "orbits": len(roots),
        "admissible_orbits": len(admissible),
        "merged": merged,
        **counts,
        "class_points": [root for root, _ in classes],
        "classes": [B for _, B in classes],
    }


# ----------------------------------------------------------------------
# catalog specialization over F_p and the bidirectional cross-check

def specialized_tables_fp(catalog: Catalog, field: PrimeField, dim: int):
    """All printed base tables of the given dimension, at every
    parameter value over F_p that passes the recorded constraints.
    Returns ([(name, Algebra)], [(name, reason)] skips)."""
    return tuples_fp(sorted((key, rec) for key, rec in catalog.bases.items()
                            if rec.dim == dim), field,
                     lambda rec, values, env: rec.algebra(field, env))


def specialized_entries_fp(catalog: Catalog, field: PrimeField, labels):
    """Catalog entries at every parameter tuple over F_p.  Constraint
    violations are silently excluded; evaluation failures (division by
    p, missing square roots) are listed as skips.  Not strict: the
    exclusions passed, and an evaluation error is listed as it is
    raised."""
    return tuples_fp([(label, catalog.entry(label)) for label in labels],
                     field, lambda entry, values, env: central_extension(
                         *entry.specialize(field, values, strict=False)))


def qualifies_as_extension(P: Algebra, A: Algebra, s: int,
                           budget: int = DEFAULT_BUDGET) -> bool:
    """Is P (up to isomorphism) an admissible extension of A by a
    central s-dimensional kernel?  Requires: Novikov, Ann(P) of
    dimension exactly s inside the square, and P/Ann(P) isomorphic
    to A (exhaustive over F_p)."""
    if P.dim != A.dim + s or not P.is_novikov():
        return False
    ann = P.annihilator()
    if ann.dim != s or not P.square().contains(ann):
        return False
    return iso_search(P.quotient(ann), A, budget=budget) is not None


def crosscheck(classes, pool, budget: int = DEFAULT_BUDGET):
    """Bidirectional matching between pipeline classes and a pool of
    named algebras over F_p.  Matching is exhaustive, so leftovers on
    either side are proofs of absence.

    Returns {"matches", "unmatched_classes", "unmatched_pool",
    "census_splits", "dedupe_searches"} where matches maps class index
    -> sorted pool names isomorphic to it, and the counts are those of
    the pairs settled by census and by search.
    """
    matches = {}
    matched_names = set()
    unmatched_classes = []
    counts = {"census_splits": 0, "dedupe_searches": 0}
    for idx, C in enumerate(classes):
        hits = [name for name, B in pool if _isomorphic(C, B, counts, budget)]
        matched_names.update(hits)
        if hits:
            matches[idx] = sorted(hits)
        else:
            unmatched_classes.append(idx)
    unmatched_pool = [name for name, _ in pool if name not in matched_names]
    return {
        "matches": matches,
        "unmatched_classes": unmatched_classes,
        "unmatched_pool": unmatched_pool,
        **counts,
    }
