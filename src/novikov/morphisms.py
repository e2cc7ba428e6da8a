"""Homomorphisms, automorphisms, derivations and isomorphism search.

The isomorphism engine backtracks over images of a minimal generating
set only; all other basis vectors are words (iterated products) in the
generators, so their images are forced.  Partial assignments are pruned
by checking every product relation as soon as all words it mentions
have images.

Over F_p the generator-image candidate set is exhaustive, so a failed
search is a proof of non-isomorphism.  Over Q the candidates are
height-bounded vectors enumerated sparsest-first; a failed search is
only a negative heuristic and is reported as such.  Over every field
the search keeps images as tuples of raw scalars (`Field.raw`) and
multiplies them with `Algebra.multiply_raw`; only witnesses are
converted back to field elements.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product as iproduct

from .algebra import Algebra
from .cohomology import Cocycle
from .fields import PrimeField
from .linalg import Matrix, Subspace, eliminate, reduce


class NotAutomorphism(Exception):
    pass


class BudgetExceeded(Exception):
    pass


def is_homomorphism(A: Algebra, B: Algebra, phi: Matrix):
    """phi(e_i e_j) = phi(e_i) phi(e_j) on all basis pairs.
    Returns (True, None) or (False, (i, j))."""
    if phi.rows != B.dim or phi.cols != A.dim:
        raise ValueError("map shape does not match the algebras")
    cols = [phi.col(i) for i in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = phi.apply(A.table[i][j])
            rhs = B.multiply(cols[i], cols[j])
            if lhs != rhs:
                return False, (i, j)
    return True, None


def is_isomorphism(A: Algebra, B: Algebra, phi: Matrix) -> bool:
    return A.dim == B.dim and phi.is_invertible() and \
        is_homomorphism(A, B, phi)[0]


def act_on_cocycle(A: Algebra, phi: Matrix, theta: Cocycle) -> Cocycle:
    """(phi theta)(x, y) = theta(phi x, phi y); coordinates phi^T M phi."""
    if not is_isomorphism(A, A, phi):
        raise NotAutomorphism("the map is not an automorphism of the base")
    pt = phi.transpose()
    return Cocycle(A, [pt * m * phi for m in theta.components],
                   check=theta.checked)


def derivation_algebra(A: Algebra):
    """(Subspace of n^2-flattened derivation matrices, its dimension).
    D(xy) = D(x)y + xD(y); kernel of the induced linear system."""
    n = A.dim
    f = A.field
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
        return Subspace.full(f, n * n), n * n
    ker = Matrix(f, rows).kernel()
    return ker, ker.dim


# ----------------------------------------------------------------------
# word bases

class WordBasis:
    """A basis of A made of minimal generators and products of earlier
    basis elements, with a per-level schedule for the backtracking
    search.

    words[t] is ("gen", g) or ("prod", a, b) meaning words[a]*words[b].
    word_level[t] = highest generator index a word involves; a word has
    an image once generators 0..word_level[t] are assigned.  The
    relation (a, b) — "product of words a and b expands with the stored
    coordinates" — is scheduled at the first level where a, b and every
    word in the expansion are available.
    """

    def __init__(self, A: Algebra):
        self.algebra = A
        comp = A.square().coordinate_complement()
        gens = list(comp.basis)
        self.n_generators = len(gens)
        words = [("gen", g) for g in range(len(gens))]
        vectors = list(gens)
        level = list(range(len(gens)))
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
        if span.dim < A.dim:
            raise ValueError("generators do not generate (non-nilpotent?)")
        self.words = words
        self.vectors = vectors
        self.word_level = level
        self.matrix = Matrix(A.field, vectors).transpose()  # cols = words
        self.inverse = self.matrix.inverse()
        n = A.dim
        # schedule: per level, the words that become available and the
        # relations that become fully checkable
        self.new_words = [[t for t in range(n) if level[t] == lv]
                          for lv in range(self.n_generators)]
        self.relations = [[] for _ in range(self.n_generators)]
        for a in range(n):
            for b in range(n):
                prod = A.multiply(vectors[a], vectors[b])
                coords = self.inverse.apply(prod)
                needed = [t for t, c in enumerate(coords) if c]
                lv = max([level[a], level[b]] + [level[t] for t in needed])
                self.relations[lv].append((a, b, tuple(coords)))


def _candidate_vectors_fp(B: Algebra):
    """Every raw vector of F_p^dim outside B^2, in `product` order."""
    f = B.field
    p = f.modulus
    square = [[f.raw(x) for x in row] for row in B.square().basis]
    return [v for v in iproduct(range(p), repeat=B.dim)
            if any(reduce(v, square, p))]


def _height_values(height: int):
    """The nonzero rationals p/q with |p|, q <= height, ordered by
    |p| + q, then by absolute value, positive before negative."""
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
    return vals


def _candidate_vectors_q(B: Algebra, height: int):
    """Height-bounded raw vectors outside B^2, sparsest-first then by
    height.

    The pool is every vector whose support S has size 1, 2 or 3 and
    whose entries on S are values p/q with |p|, q <= height: supports
    in `combinations` order, then coefficient tuples in `product` order
    over the values of `_height_values`, minus the vectors in B^2.  Over
    a 4- or 5-dimensional base that is at most 14*4 + 196*6 + 2744*4 =
    12,208 or 14*5 + 196*10 + 2744*10 = 29,470 vectors at height 3.

    B^2 is the common kernel of the functionals that vanish on it, so a
    tuple c on S lies in B^2 exactly when it lies in the kernel K_S of
    those functionals restricted to S.  If K_S = 0 every tuple on S is
    kept.  Otherwise an element of K_S is fixed by its values at the
    pivots of K_S's echelon basis, so the excluded tuples are found by
    enumerating height values at those pivots only, and every other
    tuple is kept without a membership test.
    """
    f = B.field
    raw = f.raw
    z = raw(f.zero())
    dim = B.dim
    vals = [raw(f(c)) for c in _height_values(height)]
    index = {c: i for i, c in enumerate(vals)}
    sq = B.square()
    functionals = Matrix(f, sq.basis).kernel().basis if sq.basis \
        else Matrix.identity(f, dim).entries
    out = []
    for support_size in (1, 2, 3):
        for supp in combinations(range(dim), support_size):
            excluded = _tuples_in_kernel(f, functionals, supp, vals, index)
            for coeffs in iproduct(range(len(vals)), repeat=support_size):
                if coeffs in excluded:
                    continue
                v = [z] * dim
                for pos, c in zip(supp, coeffs):
                    v[pos] = vals[c]
                out.append(tuple(v))
    return out


def _tuples_in_kernel(f, functionals, supp, vals, index):
    """Index tuples (into vals) of the height-value tuples on `supp` that
    every functional sends to zero: the pool vectors on `supp` in B^2.
    A point of the kernel takes its values at the pivots of the echelon
    basis freely; every other entry is the sum of the basis rows
    weighted by those values, and only these entries are computed."""
    size = len(supp)
    kernel = Matrix(f, [[w[j] for j in supp] for w in functionals]).kernel() \
        if functionals else Subspace.full(f, size)
    rows = [[f.raw(x) for x in row] for row in kernel.basis]
    pivots = [next(j for j in range(size) if row[j]) for row in rows]
    rest = [j for j in range(size) if j not in pivots]
    z = f.raw(f.zero())
    excluded = set()
    for at_pivots in iproduct(range(len(vals)), repeat=len(rows)):
        c = [None] * size
        for p, a in zip(pivots, at_pivots):
            c[p] = a
        for j in rest:
            x = z
            for a, row in zip(at_pivots, rows):
                x = x + vals[a] * row[j]
            if x not in index:
                break
            c[j] = index[x]
        else:
            excluded.add(tuple(c))
    return excluded


def _search(A: Algebra, B: Algebra, budget, height, find_all):
    """Backtracking core shared by iso_search and enumerate_aut_fp.

    Returns a list of witnesses (all of them when find_all, else at most
    one)."""
    wb = WordBasis(A)
    g = wb.n_generators
    f = A.field
    raw, p = f.raw, f.modulus
    exhaustive = p is not None
    pool = _candidate_vectors_fp(B) if exhaustive \
        else _candidate_vectors_q(B, height)
    # each relation's right side as (word, raw coordinate) terms
    relations = [[(a, b, [(t, raw(c)) for t, c in enumerate(coords) if c])
                  for a, b, coords in lvl] for lvl in wb.relations]
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
                    # the scheduled relations cover every word-basis pair
                    # and independence was checked, so phi is already an
                    # isomorphism; re-verify only on the heuristic path
                    img = Matrix(f, [[f.wrap(x) for x in images[t]]
                                     for t in range(n)]).transpose()
                    phi = img * wb.inverse
                    if exhaustive or is_isomorphism(A, B, phi):
                        results.append(phi)
                        if not find_all:
                            return True
                else:
                    if extend(level + 1):
                        return True
        return False

    try:
        extend(0)
    finally:
        extend = None  # the closure refers to itself: break the cycle
    return results


def iso_search(A: Algebra, B: Algebra, budget: int = 5_000_000,
               height: int = 3):
    """An isomorphism A -> B, or None.

    Over F_p the generator-image pool is exhaustive: None is a proof of
    non-isomorphism (BudgetExceeded is raised if the budget runs out
    first).  Over Q the pool is height-bounded and None only means
    "not found within the heuristic pool".
    """
    if A.dim != B.dim or A.field != B.field:
        return None
    if (A.square().dim != B.square().dim
            or A.annihilator().dim != B.annihilator().dim
            or A.nilpotency_index() != B.nilpotency_index()):
        return None
    if A.table == B.table:
        return Matrix.identity(A.field, A.dim)
    found = _search(A, B, budget, height, find_all=False)
    return found[0] if found else None


def enumerate_aut_fp(A: Algebra, budget: int = 50_000_000):
    """The full automorphism group of A over F_p, by exhaustive
    generator-image backtracking."""
    if not isinstance(A.field, PrimeField):
        raise ValueError("exhaustive enumeration needs a prime field")
    return _search(A, A, budget, 0, find_all=True)
