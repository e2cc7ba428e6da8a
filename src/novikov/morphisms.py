"""Homomorphisms, automorphisms, derivations and isomorphism search.

The isomorphism engine backtracks over images of a minimal generating
set only (of every basis vector when A is not generated by a complement
of A^2); all other basis vectors are words (iterated products) in the
generators, so their images are forced.  Each product relation falls
at the first level (generator) where all words it mentions have images,
on a per-level schedule that `WordBasis` owns.  The search is one
generator of witnesses, and `iso_search` takes the first one.
`enumerate_aut_fp` walks cosets instead of every leaf: with generators
x_0..x_(g-1) and G_i the automorphisms fixing x_0..x_(i-1), G_i is the
union of t_y G_(i+1), one coset per image y of x_i, t_y the search's
first witness with that prefix.  Its list is the search's list, element
for element: lexicographic in the generator images.

Candidates for a generator's image are not tried one by one from the
whole pool.  With the earlier images fixed, the relations affine in the
new image are solved as one linear system, and only the pool points on
its solution set that are independent of the earlier images modulo B^2
are visited, in pool order; the skipped points can never extend to an
isomorphism, so the witnesses and their order do not change.  A node
checks only the other relations.  Both read one residual, product minus
expansion.  An affine residual is a part that the earlier images fix
plus a part linear in the new image (`WordBasis.affine_split`): the
system is the fixed part, evaluated once, and the linear part at the
unit vectors.  Over
F_p those points are filtered once more, in pool order: an isomorphism
sends each element to one of the same local type
(`Algebra.local_types`), so only the points whose type in B is the type
of the generator in A are visited.  Over Q the pool is not filtered by
type (the filter keeps most of a height-bounded pool and costs more
than it saves).  The search budget counts the visited candidates, those
that pass every filter.

Over F_p the generator-image candidate set is exhaustive, so a failed
search is a proof of non-isomorphism.  Over Q the candidates are
height-bounded vectors enumerated sparsest-first; a failed search is
only a negative heuristic and is reported as such.  Over every field
the search keeps images as tuples of raw scalars (`Field.raw`) and
multiplies them with `Algebra.multiply_raw` (on integers over Q).
Each witness is a `Matrix` made from raw rows (`Matrix.from_raw`): the
image rows times the inverse word matrix, one `linalg.matmul`.  The
homomorphism check reads phi(e_i e_j) off A's sparse table as a
combination of the images phi(e_k) (`linalg.combine`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product as iproduct

from .algebra import Algebra
from .cohomology import Cocycle, congruence
from .fields import FieldMismatch
from .linalg import (Matrix, Subspace, combine, eliminate, matmul,
                     null_space, reduce, solve_in_basis)


class NotAutomorphism(Exception):
    pass


class BudgetExceeded(Exception):
    pass


#: the default search budget of every caller: visited candidates
DEFAULT_BUDGET = 5_000_000


def is_homomorphism(A: Algebra, B: Algebra, phi: Matrix):
    """phi(e_i e_j) = phi(e_i) phi(e_j) on all basis pairs.
    Returns (True, None) or (False, (i, j))."""
    if phi.rows != B.dim or phi.cols != A.dim:
        raise ValueError("map shape does not match the algebras")
    if not phi.field == A.field == B.field:
        raise FieldMismatch(f"{phi.field} map from {A.field} to {B.field}")
    nz, p = A.nonzero_products(), B.field.modulus
    zeros = (B.field.raw(B.field.zero()),) * B.dim
    cols = list(zip(*phi._rows))
    # phi(e_i e_j) is the sum over (k, c) in nz[i][j] of c phi(e_k)
    images = [[(r, a) for r, a in enumerate(col) if a] for col in cols]
    for i in range(A.dim):
        for j in range(A.dim):
            if combine(zeros, [(c, images[k]) for k, c in nz[i][j]],
                       p) != B.multiply_raw(cols[i], cols[j]):
                return False, (i, j)
    return True, None


def is_isomorphism(A: Algebra, B: Algebra, phi: Matrix) -> bool:
    return A.dim == B.dim and phi.is_invertible() and \
        is_homomorphism(A, B, phi)[0]


def act_on_cocycle(A: Algebra, phi: Matrix, theta: Cocycle) -> Cocycle:
    """(phi theta)(x, y) = theta(phi x, phi y); coordinates phi^T M phi."""
    if not is_isomorphism(A, A, phi):
        raise NotAutomorphism("the map is not an automorphism of the base")
    ph, p = phi._rows, A.field.modulus
    return Cocycle.from_raw(A, [congruence(m, ph, p)
                                for m in theta.components],
                            check=theta.checked)


def derivation_algebra(A: Algebra):
    """(Subspace of n^2-flattened derivation matrices, its dimension).
    D(xy) = D(x)y + xD(y); kernel of the induced linear system."""
    n, f, p = A.dim, A.field, A.field.modulus
    table, zero = A.table, f.raw(f.zero())
    rows = []
    for i in range(n):
        for j in range(n):
            for m in range(n):
                row = [zero] * (n * n)
                for l in range(n):
                    c = table[i][j][l]
                    if c:
                        row[m * n + l] = row[m * n + l] + c
                for k in range(n):
                    c = table[k][j][m]
                    if c:
                        row[k * n + i] = row[k * n + i] - c
                    c = table[i][k][m]
                    if c:
                        row[k * n + j] = row[k * n + j] - c
                if p is not None:
                    row = [x % p for x in row]
                if any(row):
                    rows.append(row)
    ker = Subspace.kernel(f, n * n, rows)
    return ker, ker.dim


# ----------------------------------------------------------------------
# word bases

class WordBasis:
    """A basis of A made of generators and products of earlier basis
    elements, with the per-level schedule of the backtracking search.

    The generators are a basis of the lexicographically first coordinate
    complement of A^2 (`minimal` is True), which generates A when A is
    nilpotent.  When these words do not span A, every basis vector is a
    generator and every product a relation (`minimal` is False).

    words[t] is ("gen", g) or ("prod", a, b) meaning words[a]*words[b],
    with raw coefficient vector vectors[t] (`Field.raw`, as is all else).
    word_level[t] = highest generator index a word involves; a word has
    an image once generators 0..word_level[t] are assigned.
    inverse[t][c] is the coordinate of e_c on words[t].

    The schedule, per level (generator index): new_words get their
    images there and linear_words are those of degree 1 in its
    generator.  A relation (a, b, terms) — "words[a]*words[b] = sum of
    c * words[t] over the (t, c) terms" — falls at the first level where
    a, b and every word in the expansion have images; a word's own
    factor pair gets none, as its image is set to that very product.
    Each level's relations go to one of two disjoint lists: affine, those
    affine in its generator's image (every word of degree <= 1 in it, a
    and b not both 1), which the search solves as a linear system, and
    relations, all the others, which it checks at every node it visits
    there.  affine_split[lv][j] splits affine[lv][j] into two parts, each
    (a, b, terms) read as the residual images[a]*images[b] - sum c *
    images[t], with no product when a is None: the part that the earlier
    levels fix (a product of two earlier words, the earlier words of the
    expansion) and the part linear in the generator's image (the rest).
    """

    def __init__(self, A: Algebra):
        n, units = A.dim, A._units()
        words, vectors, level = self._close(
            A, A.square().coordinate_complement()._rows)
        self.minimal = len(vectors) == n
        if not self.minimal:
            words, vectors, level = self._close(A, units)
        g = self.n_generators = sum(w[0] == "gen" for w in words)
        self.words = words
        self.vectors = vectors
        self.word_level = level
        degree = []     # a word's degree in the generator of its level
        for t, w in enumerate(words):
            degree.append(1 if w[0] == "gen" else sum(
                degree[c] for c in w[1:] if level[c] == level[t]))
        # one elimination: the unit vectors, then the n^2 products
        coords = solve_in_basis(vectors, units + [
            A.multiply_raw(u, v) for u in vectors for v in vectors],
            A.field.modulus)[0]
        self.inverse = [row[:n] for row in coords]
        self.new_words = [[t for t in range(n) if level[t] == lv]
                          for lv in range(g)]
        self.linear_words = [[t for t in new if degree[t] == 1]
                             for new in self.new_words]
        self.relations = [[] for _ in range(g)]
        self.affine = [[] for _ in range(g)]
        self.affine_split = [[] for _ in range(g)]
        factors = {w[1:] for w in words if w[0] == "prod"}
        products = list(zip(*coords))[n:]
        for (a, b), col in zip(iproduct(range(n), repeat=2), products):
            if (a, b) in factors:
                continue
            terms = tuple((t, c) for t, c in enumerate(col) if c)
            lv = max([level[a], level[b]] + [level[t] for t, _ in terms])
            deg = [degree[t] * (level[t] == lv) for t in (a, b, *dict(terms))]
            affine = deg[0] + deg[1] <= 1 and max(deg) <= 1
            (self.affine if affine else self.relations)[lv].append(
                (a, b, terms))
            if affine:
                fixed = tuple((t, c) for t, c in terms if level[t] < lv)
                linear = tuple((t, c) for t, c in terms if level[t] == lv)
                if max(level[a], level[b]) < lv:
                    split = (a, b, fixed), (None, None, linear)
                else:
                    split = (None, None, fixed), (a, b, linear)
                self.affine_split[lv].append(split)

    @staticmethod
    def _close(A, gens):
        """(words, vectors, levels): the raw generators, then products
        of earlier words that leave their span, until the span stops
        growing (a product leaves the span, kept as RREF rows, when it
        does not `reduce` to zero)."""
        p = A.field.modulus
        words = [("gen", g) for g in range(len(gens))]
        vectors = [tuple(g) for g in gens]
        level = list(range(len(gens)))
        rows, rank, pivots = eliminate(vectors, p)
        grew = True
        while rank < A.dim and grew:
            grew = False
            for a, b in iproduct(range(len(vectors)), repeat=2):
                v = A.multiply_raw(vectors[a], vectors[b])
                if any(reduce(v, rows[:rank], pivots, p)):
                    words.append(("prod", a, b))
                    vectors.append(v)
                    level.append(max(level[a], level[b]))
                    rows, rank, pivots = eliminate(rows[:rank] + [v], p)
                    grew = True
                    if rank == A.dim:
                        break
        return words, vectors, level


# ----------------------------------------------------------------------
# candidate images

def _solution_tuples(rows, size, vals, index, p=None):
    """Index tuples c (into vals) of the points x = (vals[c_0], ...) that
    satisfy sum_j row[j] x_j = row[size] for every raw row, sorted (so in
    `product` order).

    A point takes its values at the free columns of the reduced system
    freely; its entry at a pivot column is that row's right side less
    the free entries it weights.  Only these entries are computed, and
    each must be a key of `index`."""
    red, rank, pivots = eliminate(rows, p)
    if not rank:
        return list(iproduct(range(len(vals)), repeat=size))
    if pivots[-1] == size:
        return []       # a row 0 = 1: no solution
    free = [j for j in range(size) if j not in pivots]
    weights = [[(j, row[j]) for j in free if row[j]] for row in red[:rank]]
    out = []
    for at_free in iproduct(range(len(vals)), repeat=len(free)):
        c = [None] * size
        for j, a in zip(free, at_free):
            c[j] = a
        for row, terms, j in zip(red, weights, pivots):
            x = row[size]
            for k, w in terms:
                x = x - w * vals[c[k]]
            if p is not None:
                x %= p
            if x not in index:
                break
            c[j] = index[x]
        else:
            out.append(tuple(c))
    out.sort()
    return out


class _Pool:
    """The candidate images of a generator, in pool order: over F_p
    every vector of F_p^dim, in `product` order; over the other fields
    the vectors whose support S has size 1, 2 or 3 and whose entries on
    S are values of `_height_values(height)`, supports in `combinations`
    order, then coefficient tuples in `product` order."""

    def __init__(self, field, dim, height):
        raw, p = field.raw, field.modulus
        self.dim, self.p, self.zero = dim, p, raw(field.zero())
        if p is not None:
            self.supports = [tuple(range(dim))]
            self.vals = self.index = range(p)
        else:
            self.supports = [supp for size in (1, 2, 3)
                             for supp in combinations(range(dim), size)]
            self.vals = [raw(field(c)) for c in _height_values(height)]
            self.index = {c: i for i, c in enumerate(self.vals)}

    def points(self, system, functionals):
        """The pool vectors x that solve `system` (raw rows: sum_j row[j]
        x_j = row[dim]) and lie outside the subspace cut out by
        `functionals` (some functional does not vanish on x), in pool
        order, generated lazily support by support.  On a support S the
        points are those of the system restricted to the columns in S,
        less the points that also solve the functionals restricted to
        S."""
        dim, vals, zero = self.dim, self.vals, self.zero
        for supp in self.supports:
            size = len(supp)
            rows = [[row[j] for j in supp] + [row[dim]] for row in system]
            points = _solution_tuples(rows, size, vals, self.index, self.p)
            if not points:
                continue
            inside = set(_solution_tuples(
                rows + [[w[j] for j in supp] + [zero] for w in functionals],
                size, vals, self.index, self.p))
            for c in points:
                if c not in inside:
                    v = [zero] * dim
                    for pos, a in zip(supp, c):
                        v[pos] = vals[a]
                    yield tuple(v)


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


def _candidate_vectors(B: Algebra, height: int):
    """The raw vectors of the `_Pool` at `height` (ignored over F_p)
    that lie outside B^2, in pool order: over F_p every vector of
    F_p^dim outside B^2, in `product` order; over the other fields the
    height-bounded vectors, sparsest first, then by height.  Over a 4-
    or 5-dimensional base that is at most 14*4 + 196*6 + 2744*4 = 12,208
    or 14*5 + 196*10 + 2744*10 = 29,470 vectors at height 3.

    B^2 is the common kernel of the functionals that vanish on it, so a
    tuple on a support S lies in B^2 exactly when it solves those
    functionals restricted to S.  Such a tuple is fixed by its values at
    the free columns of that system, so the excluded tuples are found by
    enumerating height values there only, and every other tuple is kept
    without a membership test.
    """
    f = B.field
    raw = f.raw
    functionals = null_space(B.square()._rows, B.dim, raw(f.zero()),
                             raw(f.one()), f.modulus)
    return list(_Pool(f, B.dim, height).points([], functionals))


# ----------------------------------------------------------------------
# the search

def _search(A: Algebra, B: Algebra, budget, height, group=False):
    """Backtracking core shared by iso_search and enumerate_aut_fp:
    yields the witness Matrices in visiting order.

    At each level, with the earlier generators' images fixed, the
    level's affine relations (`WordBasis.affine`) are stacked into one
    system over raw scalars in its generator's image x and reduced once,
    and only the pool points that solve it and lie outside W =
    span(earlier generator images) + B^2 are visited (W = the span alone
    when the generators are not minimal, and the pool then keeps B^2).
    Over F_p they must also have the local type of the level's generator
    in A.  Any other candidate fails a relation, leaves the generator
    images dependent modulo B^2, or changes a local type, which an
    isomorphism never does.  Survivors solve the affine relations; they
    get the check of the others (`WordBasis.relations`) and the
    independence check, so the witnesses and their order are those of
    visiting the whole pool.  BudgetExceeded is raised when more than
    `budget` candidates are visited.

    With `group` (A = B over F_p) it yields Aut(A) instead, the same
    list in the same order, from coset transversals (`stabilizer`)."""
    wb = WordBasis(A)
    f, n, g = A.field, A.dim, wb.n_generators
    p = f.modulus
    exhaustive = p is not None
    zero, one = f.raw(f.zero()), f.raw(f.one())
    zeros = (zero,) * n
    square = B.square()._rows if wb.minimal else []
    pool = _Pool(f, n, height)
    units = B._units()
    multiply = B.multiply_raw
    visited = 0
    images = [None] * n

    def assign(words, x):
        """Set these words' images from their level's generator image x."""
        for t in words:
            w = wb.words[t]
            images[t] = x if w[0] == "gen" else \
                multiply(images[w[1]], images[w[2]])

    def residual(a, b, terms):
        """images[a]·images[b] - sum c·images[t] (no product when a is
        None): 0 iff the relation holds."""
        product = zeros if a is None else multiply(images[a], images[b])
        if not terms:
            return product
        return combine(product, [(-c, enumerate(images[t]))
                                 for t, c in terms], p)

    def candidates(level):
        """The pool points that solve the level's affine relations and
        lie outside W, in pool order."""
        rows = []
        split = wb.affine_split[level]
        if split:
            # each residual is F(x) = C + L(x), C fixed by the earlier
            # images and L linear in x, so its rows are L(e_i)_k | -C_k
            fixed = [residual(*part) for part, _ in split]
            at = []
            for x in units:
                assign(wb.linear_words[level], x)
                at.append([residual(*part) for _, part in split])
            for j, base in enumerate(fixed):
                for k, c in enumerate(base):
                    row = [L[j][k] for L in at]
                    row.append(-c)
                    if p is not None:
                        row = [x % p for x in row]
                    if any(row):
                        rows.append(row)
        red, rank, pivots = eliminate(rows, p)
        if rank and pivots[-1] == n:
            return ()       # inconsistent: no image of this generator fits
        # the generators are words 0..g-1
        points = pool.points(red[:rank], null_space(
            square + images[:level], n, zero, one, p))
        if not exhaustive:
            return points
        want = A.local_type(wb.vectors[level])
        return (x for x in points if B.local_type(x) == want)

    def step(level, cand):
        """Visit cand at the level: count it against the budget, assign
        its words' images; True when they pass the level's other
        relations and keep the images independent."""
        nonlocal visited
        visited += 1
        if visited > budget:
            raise BudgetExceeded(f"search budget {budget} exhausted")
        assign(wb.new_words[level], cand)
        if any(any(residual(*rel)) for rel in wb.relations[level]):
            return False
        avail = [images[t] for t in range(n) if wb.word_level[t] <= level]
        return eliminate(avail, p)[1] == len(avail)

    def extend(level):
        if level == g:
            # phi sends each word's vector to its image: the image matrix
            # times the inverse word matrix.  Every word-basis product
            # relation holds (a factor pair's by construction, an affine
            # one by the solve) and the images are independent, so only
            # the heuristic path re-checks
            phi = Matrix.from_raw(f, matmul(zip(*images), wb.inverse, p))
            if exhaustive or is_isomorphism(A, B, phi):
                yield phi
            return
        for cand in candidates(level):
            if step(level, cand):
                yield from extend(level + 1)

    def stabilizer(level):
        """G_level, the automorphisms fixing generators 0..level-1, as
        raw rows.  With the earlier images at A's own words, the level's
        candidates are visited as `extend` visits them.  Its own
        generator x leads to G_(level+1); for any other candidate y the
        first witness t_y of `extend` is kept, and none proves that no
        element of G_level takes x to y (the search is exhaustive).
        G_level is the union of the cosets t_y G_(level+1)."""
        if level == g:
            return [tuple(units)]
        own = wb.vectors[level]
        reps = []
        for cand in candidates(level):
            if step(level, cand):
                if cand == own:
                    sub = stabilizer(level + 1)
                else:
                    t = next(extend(level + 1), None)
                    if t is not None:
                        reps.append(t._rows)
        return sub + [matmul(t, h, p) for t in reps for h in sub]

    try:
        if group:
            # an automorphism is fixed by its generator images, its
            # columns at the generators (unit vectors), and `extend`
            # meets them in lexicographic order
            cols = [x.index(one) for x in wb.vectors[:g]]
            yield from (Matrix.from_raw(f, m) for m in sorted(
                stabilizer(0),
                key=lambda m: [m[r][k] for k in cols for r in range(n)]))
        else:
            yield from extend(0)
    finally:
        # the closures refer to themselves: break the cycles
        extend = stabilizer = None


def iso_search(A: Algebra, B: Algebra, budget: int = DEFAULT_BUDGET,
               height: int = 3):
    """An isomorphism A -> B, or None.

    Over F_p the generator-image pool is exhaustive: None is a proof of
    non-isomorphism (BudgetExceeded is raised if the budget runs out
    first).  Over Q the pool is height-bounded and None only means
    "not found within the heuristic pool".  At each generator only the
    pool points that solve the relations linear in its image and are
    independent of the earlier images modulo B^2 (over F_p: and have
    the generator's local type) are tried, and the budget counts these
    tries alone.
    """
    if A.dim != B.dim or A.field != B.field:
        return None
    if (A.square().dim != B.square().dim
            or A.annihilator().dim != B.annihilator().dim
            or A.nilpotency_index() != B.nilpotency_index()):
        return None
    if A.table == B.table:
        return Matrix.identity(A.field, A.dim)
    return next(_search(A, B, budget, height), None)


def enumerate_aut_fp(A: Algebra, budget: int = DEFAULT_BUDGET):
    """The full automorphism group of A over F_p, lexicographic in the
    images of the `WordBasis` generators: the list of the exhaustive
    search over every leaf, element for element, built from coset
    transversals (`_search` with `group`).  Level by level, with the
    earlier generators fixed, the search finds one automorphism per
    reachable image of the next generator, and the group is the
    products of these.  As in `iso_search`, each generator's images are
    the solutions of the relations linear in it that are independent of
    the earlier images modulo A^2 and have the generator's local type,
    and the budget counts these tries."""
    if A.field.modulus is None:
        raise ValueError("exhaustive enumeration needs a prime field")
    return list(_search(A, A, budget, 0, group=True))
