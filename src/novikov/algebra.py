"""Finite-dimensional algebras by structure constants.

An Algebra is a bilinear product on field^n given by a tensor c[i][j][k]
with e_i e_j = sum_k c[i][j][k] e_k (0-based internally; the JSON format
and printed tables are 1-based).  Every product is one loop over the
nonzero structure constants on raw scalars (`multiply_raw`, on integers
over Q).  Identity checks run on basis triples only, which suffices by
multilinearity, and read the triple products off the same constants
into sparse tables: only triples that some nonzero constants reach are
stored, and a missing triple is zero.  The power filtration keeps the
support of each basis row as a bitmask and multiplies two rows only
when the sparse table has a nonzero product between their supports.
The entry lists of JSON documents (an algebra's table, a cocycle's
entries) are read and checked by one function, `read_entries`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .fields import (DivisionByZero, Field, FieldMismatch, RationalField,
                     field_from_tag)
from .linalg import (DimensionMismatch, Matrix, SingularMatrix, Subspace,
                     combine, eliminate, null_space, reduce, solve_in_basis)


class NotAnIdeal(Exception):
    pass


class Algebra:
    """A bilinear product on field^dim given by its structure constants.

    `table[i][j][k]` is c_ij^k on raw scalars (`Field.raw`): the
    constructor coerces ints, strings and field elements, `from_raw`
    takes raw tables as they are, and `multiply`, `to_json` and `repr`
    give field elements back.  The table is immutable, so derived data
    is computed once and kept in `_cache`: the sparse table
    (`nonzero_products`), the sparse tables of triple products behind
    the identity checks (dicts over the triples that can be nonzero),
    `square`, `power_filtration` (whose products skip row pairs the
    sparse table shows are zero), `annihilator`, the cocycle
    equations and Z^2 (`cohomology.cocycle_equations`,
    `cohomology.cocycle_space`), the `invariants.fingerprint`, and over
    F_p the `local_types` of all elements and their
    `invariants.element_census`.  `__eq__` and `__hash__` ignore
    `_cache`, and `change_basis`/`quotient` build new algebras with
    empty caches, so cached values never leak between algebras.
    """

    __slots__ = ("field", "dim", "table", "_cache")

    def __init__(self, field: Field, dim: int, table):
        """table: nested n x n x n of scalars, or a dict {(i,j,k): c} 0-based."""
        if isinstance(table, dict):
            z = field.zero()
            t = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
            for (i, j, k), c in table.items():
                t[i][j][k] = c
            table = t
        self.field, self.dim, self._cache = field, dim, {}
        self.table = tuple(tuple(tuple(field.raw(field(c)) for c in row)
                                 for row in plane) for plane in table)

    @staticmethod
    def from_raw(field, dim, table):
        """The algebra with the n x n x n raw table `table` (Fractions
        over Q, residues in [0, p) over F_p), taken as it is."""
        A = Algebra.__new__(Algebra)
        A.field, A.dim, A._cache = field, dim, {}
        A.table = tuple(tuple(map(tuple, plane)) for plane in table)
        return A

    # ------------------------------------------------------------------
    # multiplication

    def multiply(self, x, y):
        """Bilinear extension: x, y vectors of length dim whose
        coordinates the field coerces (ints, strings, raw scalars, field
        elements); returns field elements."""
        f = self.field
        return tuple(map(f.wrap, self.multiply_raw(
            [f.raw(f(a)) for a in x], [f.raw(f(b)) for b in y])))

    def multiply_raw(self, x, y):
        """`multiply` on raw coefficient vectors (`Field.raw`), read off
        the nonzero structure constants, reduced mod p once.  Over Q the
        x_i, y_j that meet a nonzero product are scaled by the lcm of their
        denominators and summed as integers against the scaled table."""
        nz, zero, p, scaled = self._memo("nz", self._sparse)
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        if scaled is None:
            out = [zero] * self.dim
            for i, xi in enumerate(x):
                if xi:
                    row = nz[i]
                    for j, yj in ys:
                        if row[j]:
                            coef = xi * yj
                            for k, c in row[j]:
                                out[k] = out[k] + coef * c
            return tuple(out) if p is None else tuple(v % p for v in out)
        ints, d = scaled
        hits = [(a, b, row[j]) for a, row in zip(x, ints) if a
                for j, b in ys if row[j]]
        if not hits:
            return (zero,) * self.dim
        da = lcm(*[a.denominator for a, _, _ in hits])
        db = lcm(*[b.denominator for _, b, _ in hits])
        out = [0] * self.dim
        for a, b, terms in hits:
            coef = a.numerator * (da // a.denominator) * \
                b.numerator * (db // b.denominator)
            for k, c in terms:
                out[k] += coef * c
        d *= da * db
        if d == 1:
            return tuple(Fraction(v) if v else zero for v in out)
        return tuple(Fraction(v, d) if v else zero for v in out)

    # ------------------------------------------------------------------
    # memoized derived data

    def _memo(self, key, compute):
        """The value cached under `key`, computed on first use."""
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = compute()
            return value

    def nonzero_products(self):
        """nz[i][j] = ((k, c_ij^k), ...) over the nonzero constants of
        e_i e_j, in increasing k."""
        return self._memo("nz", self._sparse)[0]

    def _sparse(self):
        """(`nonzero_products`, the raw zero, the modulus, and over Q the
        integer table of `multiply_raw`: nz with every constant times D,
        and D, the lcm of the denominators; None over other fields)."""
        f = self.field
        nz = tuple(tuple(tuple((k, c) for k, c in enumerate(row) if c)
                         for row in plane) for plane in self.table)
        if not isinstance(f, RationalField):
            return nz, f.raw(f.zero()), f.modulus, None
        d = lcm(*[c.denominator for plane in nz for terms in plane
                  for _, c in terms])
        return nz, f.raw(f.zero()), None, (tuple(tuple(tuple(
            (k, c.numerator * (d // c.denominator)) for k, c in terms)
            for terms in plane) for plane in nz), d)

    def _units(self):
        """The basis vectors on raw scalars, computed once."""
        return self._memo("units", lambda: [
            tuple(e) for e in Subspace.full(self.field, self.dim)._rows])

    def _left_products(self):
        """The sparse table of L(i, j, k) = (e_i e_j) e_k, the sum over
        (l, c) in nz[i][j] of c nz[l][k], on raw scalars: a dict over
        the triples some nonzero constants reach; a missing triple is
        zero."""
        def compute():
            nz, zero, p, _ = self._memo("nz", self._sparse)
            zeros, L = (zero,) * self.dim, {}
            for i, j, terms in _nonempty(nz):
                for k in range(self.dim):
                    hits = [(c, nz[l][k]) for l, c in terms if nz[l][k]]
                    if hits:
                        L[i, j, k] = combine(zeros, hits, p)
            return L
        return self._memo("left", compute)

    def _associators(self):
        """The sparse table of D(i, j, k) = (e_i e_j) e_k - e_i (e_j e_k),
        where e_i (e_j e_k) is the sum over (l, c) in nz[j][k] of
        c nz[i][l]; a missing triple is zero."""
        def compute():
            nz, zero, p, _ = self._memo("nz", self._sparse)
            zeros, D = (zero,) * self.dim, dict(self._left_products())
            for j, k, terms in _nonempty(nz):
                for i, row in enumerate(nz):
                    hits = [(-c, row[l]) for l, c in terms if row[l]]
                    if hits:
                        D[i, j, k] = combine(D.get((i, j, k), zeros), hits, p)
            return D
        return self._memo("associators", compute)

    def _least_failure(self, table, swap=None):
        """Compare the sparse triple table `table`, where a missing
        triple is zero, with its mirror: table[t] with table[swap(t)],
        or with zero when swap is None.  (True, None) when they agree,
        else (False, t) for the least failing t <= swap(t) in the
        order of a loop over i, then j, then k."""
        zeros = (self._memo("nz", self._sparse)[1],) * self.dim
        for t in sorted({t if swap is None else min(t, swap(t))
                         for t in table}):
            other = zeros if swap is None else table.get(swap(t), zeros)
            if table.get(t, zeros) != other:
                return False, t
        return True, None

    def local_types(self):
        """The local type of every element x of F_p^dim: (depth of x,
        rank L_x, rank R_x, depth of x x), where L_x: y -> x y, R_x:
        y -> y x, and the depth of a vector is the number of terms of
        `power_filtration` that contain it.  An isomorphism sends each
        element to one of the same type.

        Returns (ids, types), computed once: `types` lists the distinct
        types in order of first appearance, and ids[i] (2-byte unsigned
        integers) is the position in `types` of the type of the element
        whose base-p digits, first coordinate most significant, are i
        (so elements are listed in `product` order).  ValueError when
        p^dim exceeds `MAX_ELEMENTS`."""
        return self._memo("local_types", self._local_types)

    def local_type(self, x):
        """The local type of the raw vector x (residues mod p)."""
        ids, types = self.local_types()
        return types[ids[_index(x, self.field.modulus)]]

    def _local_types(self):
        """L_x, R_x and the filtration functionals' values at x are
        linear in x, so one walk through the elements in `product`
        order keeps them as a running sum: the next element adds the
        data of e_d for each coordinate d the step changes (a
        coordinate wrapping from p - 1 to 0 adds it p times in all).
        L_x repeats whenever x does modulo the left annihilator, so
        ranks are cached by matrix."""
        n, p = self.dim, self.field.modulus
        if p is None:
            raise ValueError("local types need a prime field")
        if p ** n > MAX_ELEMENTS:
            raise ValueError(f"{p}^{n} elements are too many to list "
                             f"local types (at most {MAX_ELEMENTS})")
        table = self.table
        levels = [null_space(P._rows, n, 0, 1, p)
                  for P in self.power_filtration()[1:]]
        steps = [[c for j in range(n) for c in table[d][j]] +
                 [c for j in range(n) for c in table[j][d]] +
                 [w[d] for ws in levels for w in ws] for d in range(n)]
        bounds, at = [], 2 * n * n
        for ws in levels:
            bounds.append((at, at + len(ws)))
            at += len(ws)
        ranks = {}

        def rank(key):
            r = ranks.get(key)
            if r is None:
                r = ranks[key] = eliminate(
                    [key[j * n:(j + 1) * n] for j in range(n)], p)[1]
            return r
        x = [0] * n
        v = [0] * at
        depth, data = [], []
        for _ in range(p ** n):
            d = 1
            for lo, hi in bounds:
                if any(v[lo:hi]):
                    break
                d += 1
            depth.append(d)
            data.append((rank(tuple(v[:n * n])),
                         rank(tuple(v[n * n:2 * n * n])),
                         _index(self.multiply_raw(x, x), p)))
            for c in range(n - 1, -1, -1):
                v = [(a + b) % p for a, b in zip(v, steps[c])]
                x[c] += 1
                if x[c] < p:
                    break
                x[c] = 0
        # two bytes per element, without loading the array module into
        # processes that never build a table
        ids, types = memoryview(bytearray(2 * len(depth))).cast("H"), {}
        for i, (d, (left, right, square)) in enumerate(zip(depth, data)):
            ids[i] = types.setdefault((d, left, right, depth[square]),
                                      len(types))
        return ids, list(types)

    # ------------------------------------------------------------------
    # identities

    def is_right_commutative(self):
        """(xy)z = (xz)y on all basis triples; witness (i,j,k) on failure."""
        return self._least_failure(self._left_products(),
                                   lambda t: (t[0], t[2], t[1]))

    def is_left_symmetric(self):
        """(xy)z - x(yz) = (yx)z - y(xz) on basis triples."""
        return self._least_failure(self._associators(),
                                   lambda t: (t[1], t[0], t[2]))

    def is_novikov(self):
        ok, _ = self.is_right_commutative()
        if not ok:
            return False
        ok, _ = self.is_left_symmetric()
        return ok

    def is_commutative(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.table[i][j] != self.table[j][i]:
                    return False
        return True

    def is_associative(self):
        return self._least_failure(self._associators())[0]

    # ------------------------------------------------------------------
    # subspace machinery

    def product_space(self, S: Subspace, T: Subspace) -> Subspace:
        return Subspace.from_raw(self.field, self.dim, [
            self.multiply_raw(u, v) for u in S._rows for v in T._rows])

    def square(self) -> Subspace:
        """A^2, spanned by the basis products."""
        return self._memo("square", lambda: Subspace.from_raw(
            self.field, self.dim, [self.table[i][j] for i, j, _
                                   in _nonempty(self.nonzero_products())]))

    def power_filtration(self):
        """[A^1, A^2, ...] down to 0 or stabilization (a fresh list).

        Non-associative convention: A^{m} = sum_{i+j=m} A^i A^j.
        """
        return list(self._memo("powers", self._powers))

    def _powers(self):
        """Each product u v of basis rows is taken only when it can be
        nonzero: when some a in supp(u), b in supp(v) have e_a e_b != 0,
        i.e. when reach(u), the union of reach[a] = {b : e_a e_b != 0}
        over a in supp(u), meets supp(v) (supports as bitmasks)."""
        reach = [sum(1 << b for b, terms in enumerate(plane) if terms)
                 for plane in self.nonzero_products()]

        def masked(S):
            rows = []
            for u in S._rows:
                supp = hit = 0
                for a, c in enumerate(u):
                    if c:
                        supp, hit = supp | 1 << a, hit | reach[a]
                rows.append((u, supp, hit))
            return rows
        powers = [Subspace.full(self.field, self.dim), self.square()]
        rows = [masked(S) for S in powers]
        while powers[-1].dim and powers[-1] != powers[-2]:
            m = len(powers) + 1
            prods = (self.multiply_raw(u, v) for i in range(1, m)
                     for u, _, hit in rows[i - 1]
                     for v, supp, _ in rows[m - i - 1] if hit & supp)
            # products that cancel to zero change no span
            powers.append(Subspace.from_raw(self.field, self.dim,
                                            [p for p in prods if any(p)]))
            rows.append(masked(powers[-1]))
        return tuple(powers)

    def nilpotency_index(self):
        """First k with A^k = 0, or None if the filtration stabilizes nonzero."""
        powers = self.power_filtration()
        return len(powers) if powers[-1].dim == 0 else None

    def is_two_step(self):
        """All triple products vanish under both bracketings (xyz = 0),
        i.e. A^2 = 0 or A^3 = A A^2 + A^2 A = 0."""
        powers = self.power_filtration()
        return powers[1].dim == 0 or (len(powers) > 2 and powers[2].dim == 0)

    def _operator_kernel(self, left: bool, right: bool) -> Subspace:
        """{x : x A = 0 (left) and A x = 0 (right)}: the kernel of the
        nonzero rows of the stacked multiplication operators."""
        nz, zero, _, _ = self._memo("nz", self._sparse)
        rows = {}
        for a, plane in enumerate(nz):
            for b, terms in enumerate(plane):
                for k, c in terms:
                    if left:   # e_k-coefficient of x e_b: sum_a x_a c_ab^k
                        rows.setdefault((0, b, k), [zero] * self.dim)[a] = c
                    if right:  # e_k-coefficient of e_a x: sum_b x_b c_ab^k
                        rows.setdefault((1, a, k), [zero] * self.dim)[b] = c
        return Subspace.kernel(self.field, self.dim, list(rows.values()))

    def left_annihilator(self) -> Subspace:
        """{x : x A = 0}."""
        return self._operator_kernel(left=True, right=False)

    def right_annihilator(self) -> Subspace:
        """{x : A x = 0}."""
        return self._operator_kernel(left=False, right=True)

    def annihilator(self) -> Subspace:
        return self._memo("annihilator", lambda: self._operator_kernel(
            left=True, right=True))

    def is_split(self):
        """True iff Ann(A) is not contained in A^2 (an annihilator
        component splits off)."""
        return not self.square().contains(self.annihilator())

    def min_generators(self):
        return self.dim - self.square().dim

    def commutator_space(self) -> Subspace:
        n, t, p = self.dim, self.table, self.field.modulus
        return Subspace.from_raw(self.field, n, [
            combine(t[i][j], [(-1, enumerate(t[j][i]))], p)
            for i in range(n) for j in range(i + 1, n)])

    def is_ideal(self, I: Subspace) -> bool:
        full = Subspace.full(self.field, self.dim)
        return I.contains(self.product_space(I, full)) and \
            I.contains(self.product_space(full, I))

    def quotient(self, I: Subspace) -> "Algebra":
        """A / I on the lexicographically-first coordinate complement, the
        e_j at the non-pivot columns j of I: a product reduced against
        I's RREF basis is zero at the pivots, so its other entries are
        its coordinates on the complement."""
        if not self.is_ideal(I):
            raise NotAnIdeal("quotient by a non-ideal")
        free = [j for j in range(self.dim) if j not in I._pivots]
        table, p = self.table, self.field.modulus

        def coordinates(v):
            w = reduce(v, I._rows, I._pivots, p)
            return [w[c] for c in free]
        return Algebra.from_raw(self.field, len(free), [
            [coordinates(table[i][j]) for j in free] for i in free])

    def change_basis(self, P: Matrix) -> "Algebra":
        """Same product expressed in the basis f_i = sum_j P[j][i] e_j
        (columns of P are the new basis vectors)."""
        n, f = self.dim, self.field
        if P.field != f:
            # P's raw rows would be read as scalars of the wrong field
            raise FieldMismatch(f"a basis change over {P.field} of an "
                                f"algebra over {f}")
        if P.rows != P.cols:
            raise SingularMatrix("basis change by a singular matrix")
        if P.rows != n:
            raise DimensionMismatch(f"a {P.rows}x{P.cols} basis change "
                                    f"of a {n}-dimensional algebra")
        cols = list(zip(*P._rows))
        solved = solve_in_basis(cols, [self.multiply_raw(u, v) for u in cols
                                       for v in cols], f.modulus)
        if solved is None:
            raise SingularMatrix("basis change by a singular matrix")
        products = list(zip(*solved[0]))
        return Algebra.from_raw(f, n, [products[i * n:(i + 1) * n]
                                       for i in range(n)])

    # ------------------------------------------------------------------
    # serialization

    def to_json(self):
        wrap = self.field.wrap
        triples = [{"i": i + 1, "j": j + 1, "k": k + 1, "c": repr(wrap(c))}
                   for i, plane in enumerate(self.nonzero_products())
                   for j, terms in enumerate(plane) for k, c in terms]
        return {"dim": self.dim, "field": self.field.tag,
                "table": triples}

    @staticmethod
    def from_json(doc) -> "Algebra":
        n = check_size(doc, "dim")
        f = field_from_tag(doc["field"])
        return Algebra(f, n, read_entries(doc, "table", "ijk", (n, n, n), f))

    def __eq__(self, other):
        return (isinstance(other, Algebra) and self.field == other.field
                and self.dim == other.dim and self.table == other.table)

    def __hash__(self):
        return hash((self.field, self.dim, self.table))

    def __repr__(self):
        wrap = self.field.wrap
        prods = [f"e{i + 1}e{j + 1}=" + "+".join(
                     f"{repr(wrap(c))}*e{k + 1}" for k, c in terms)
                 for i, plane in enumerate(self.nonzero_products())
                 for j, terms in enumerate(plane) if terms]
        return f"Algebra(dim {self.dim}: " + ", ".join(prods) + ")"


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


#: the largest `dim` or `s` a JSON document may give, checked before any
#: table is allocated: dim^3 <= 10^6 cells (the catalog has dim <= 5)
MAX_SIZE = 100

#: the most elements (p^dim) whose local types `Algebra.local_types`
#: lists, checked before the walk
MAX_ELEMENTS = 10 ** 6


def check_size(doc, name):
    """doc[name], for a JSON object doc, which must be an integer in
    0..MAX_SIZE; ValueError otherwise."""
    if not isinstance(doc, dict):
        raise ValueError("the document is not a JSON object")
    value = doc[name]
    if not _is_int(value) or not 0 <= value <= MAX_SIZE:
        raise ValueError(f"{name} = {value!r} is not an integer in "
                         f"0..{MAX_SIZE}")
    return value


def read_entries(doc, name, indices, bounds, field):
    """The entry list doc[name] of a JSON document, as {0-based index
    tuple: scalar}: doc[name] must be a list of JSON objects, each with
    the 1-based indices named by `indices`, index m an integer in
    1..bounds[m] (`check_index`), and a scalar "c" (`check_scalar`), and
    no index tuple may appear twice; ValueError otherwise."""
    entries = doc[name]
    if not isinstance(entries, list) or \
            not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"{name} is not a list of JSON objects")
    values = {}
    for e in entries:
        key = tuple(check_index(e, m, b) for m, b in zip(indices, bounds))
        if key in values:
            raise ValueError(f"duplicate entry ({', '.join(indices)}) = "
                             f"({', '.join(str(e[m]) for m in indices)})")
        values[key] = check_scalar(e, field)
    return values


def check_scalar(entry, field):
    """entry["c"], a string literal or an integer, as an element of
    field; ValueError otherwise (a float or a bool, division by 0, or
    a literal of another field)."""
    value = entry["c"]
    if not isinstance(value, str) and not _is_int(value):
        raise ValueError(f"c = {value!r} is not a string or an integer")
    try:
        return field(value)
    except (ZeroDivisionError, DivisionByZero) as e:
        raise ValueError(f"c = {value!r} divides by zero ({e})")


def check_index(entry, name, bound):
    """entry[name] as a 0-based index, for a JSON entry whose 1-based
    index must be an integer in 1..bound; ValueError otherwise."""
    value = entry[name]
    if not _is_int(value) or not 1 <= value <= bound:
        raise ValueError(f"{name} = {value!r} is not an integer in 1..{bound}")
    return value - 1


def _index(x, p):
    """The integer whose base-p digits are x, most significant first."""
    i = 0
    for c in x:
        i = i * p + c
    return i


def _nonempty(nz):
    """(i, j, nz[i][j]) for the nonzero products e_i e_j of the sparse
    table nz, in increasing (i, j)."""
    return [(i, j, terms) for i, plane in enumerate(nz)
            for j, terms in enumerate(plane) if terms]
