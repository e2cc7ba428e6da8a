"""Dense exact linear algebra over any of the supported fields.

Everything is stored on raw scalars (`Field.raw`; residues mod p when p
is given).  Subspaces are stored by their unique RREF basis, so equal
subspaces compare equal structurally.  Plain Gaussian elimination with
the first nonzero pivot in column order; exact fields make this correct
and deterministic.

The row reduction itself is `eliminate` and `reduce`, the one matrix
product is `matmul`, and the one linear combination of raw vectors is
`combine`.  Every `Subspace` is built from raw rows by
`Subspace.from_raw`, which eliminates them once and keeps only the raw
RREF basis, or by `Subspace.unit_span`, whose unit rows are their own
RREF basis; every vector written in a basis goes through
`solve_in_basis`.  `Matrix`, the public type of linear maps
(automorphisms, basis changes, witnesses), keeps its raw rows too
(`Matrix.from_raw` takes them as they are) and gives field elements on
the way out; bilinear forms are raw n x n tuples (`cohomology`).
"""

from __future__ import annotations

from operator import mul

from .fields import Field


def eliminate(rows, p=None):
    """Gauss-Jordan elimination of raw rows, mod p when p is given (the
    entries must then be residues in [0, p)).

    Returns (rows, rank, pivot columns): the first `rank` rows are the
    reduced row echelon basis, the rest are zero."""
    m = [list(row) for row in rows]
    height = len(m)
    width = len(m[0]) if m else 0
    rank = 0
    pivots = []
    for col in range(width):
        if rank == height:
            break
        piv = next((r for r in range(rank, height) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        row = m[rank]
        inv = 1 / row[col] if p is None else pow(row[col], -1, p)
        # entries left of col are zero in every row from rank on
        support = [j for j in range(col, width) if row[j]]
        for j in support:
            row[j] = row[j] * inv if p is None else row[j] * inv % p
        for r in range(height):
            target = m[r]
            f = target[col]
            if r == rank or not f:
                continue
            for j in support:
                x = target[j] - f * row[j]
                target[j] = x if p is None else x % p
        pivots.append(col)
        rank += 1
    return m, rank, pivots


def reduce(vec, rows, pivots, p=None):
    """The residual of the raw vector vec against rows in reduced row
    echelon form with the given pivot columns (as returned by
    `eliminate`): zero exactly when vec lies in their span."""
    v = list(vec)
    for row, col in zip(rows, pivots):
        f = v[col]
        if f:
            for j in range(col, len(v)):
                if row[j]:
                    x = v[j] - f * row[j]
                    v[j] = x if p is None else x % p
    return v


def solve_in_basis(columns, targets, p=None):
    """The raw targets written in the basis `columns` (raw vectors of
    one length) by one elimination of [columns | targets]: (coordinates,
    residual), where coordinates[i][t] is the coefficient of columns[i]
    in target t and the residual rows vanish in column t exactly when
    target t lies in the span; None when the columns are dependent."""
    vectors = list(columns) + list(targets)
    if len({len(v) for v in vectors}) > 1:
        raise DimensionMismatch("vectors of different lengths")
    k = len(columns)
    red, _, pivots = eliminate([list(r) for r in zip(*vectors)], p)
    if pivots[:k] != list(range(k)):
        return None
    return [row[k:] for row in red[:k]], [row[k:] for row in red[k:]]


def null_space(rows, width, zero, one, p=None):
    """A basis of the raw vectors of length `width` that every raw row
    sends to zero (a row times the vector), one per free column of the
    rows' reduced form; `zero` and `one` are the field's raw 0 and 1."""
    red, _, pivots = eliminate(rows, p)
    basis = []
    for c in range(width):
        if c not in pivots:
            v = [zero] * width
            v[c] = one
            for r, j in enumerate(pivots):
                v[j] = -red[r][c] if p is None else -red[r][c] % p
            basis.append(v)
    return basis


class DimensionMismatch(Exception):
    pass


class SingularMatrix(Exception):
    pass


class Matrix:
    """A linear map (automorphism, basis change, witness), stored by its
    raw rows (`_rows`: `Field.raw` scalars, residues in [0, p) over
    F_p), like `Subspace`.  The constructor coerces ints, strings and
    field elements; `from_raw` takes raw rows as they are.  `entries`,
    indexing, `row`, `col` and `repr` give field elements."""

    __slots__ = ("field", "rows", "cols", "_rows")

    def __init__(self, field: Field, entries):
        raw = field.raw
        self._set(field, [[raw(field(x)) for x in row] for row in entries])
        for row in self._rows:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged rows")

    @staticmethod
    def from_raw(field, rows):
        """The matrix with the raw rows `rows` (Fractions over Q, residues
        in [0, p) over F_p), taken as they are."""
        M = Matrix.__new__(Matrix)
        M._set(field, rows)
        return M

    def _set(self, field, rows):
        self.field = field
        self._rows = tuple(map(tuple, rows))
        self.rows = len(self._rows)
        self.cols = len(self._rows[0]) if self.rows else 0

    @staticmethod
    def zero(field, rows, cols):
        z = field.raw(field.zero())
        return Matrix.from_raw(field, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(field, n):
        z, o = field.raw(field.zero()), field.raw(field.one())
        return Matrix.from_raw(field, [[o if i == j else z for j in range(n)]
                                       for i in range(n)])

    @property
    def entries(self):
        wrap = self.field.wrap
        return tuple(tuple(map(wrap, row)) for row in self._rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.field.wrap(self._rows[i][j])

    def row(self, i):
        return tuple(map(self.field.wrap, self._rows[i]))

    def col(self, j):
        return tuple(self.field.wrap(row[j]) for row in self._rows)

    def transpose(self):
        return Matrix.from_raw(self.field, zip(*self._rows))

    def __mul__(self, other):
        f, p = self.field, self.field.modulus
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.cols} vs {other.rows}")
            return Matrix.from_raw(f, matmul(self._rows, other._rows, p))
        try:
            c = f.raw(f(other))
        except Exception:
            return NotImplemented
        return Matrix.from_raw(f, [[a * c if p is None else a * c % p
                                    for a in row] for row in self._rows])

    def __rmul__(self, other):
        return self.__mul__(other)

    def apply(self, vec):
        """Matrix-vector product (vec as a sequence of scalars)."""
        if len(vec) != self.cols:
            raise DimensionMismatch(f"{self.cols} vs {len(vec)}")
        f = self.field
        if not self.cols:
            return (f.zero(),) * self.rows
        column = matmul(self._rows, [[f.raw(f(x))] for x in vec], f.modulus)
        return tuple(f.wrap(x) for x, in column)

    def __add__(self, other):
        return self._entrywise(other, 1)

    def __sub__(self, other):
        return self._entrywise(other, -1)

    def _entrywise(self, other, sign):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape")
        return Matrix.from_raw(self.field, [
            combine(r, [(sign, enumerate(s))], self.field.modulus)
            for r, s in zip(self._rows, other._rows)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.field, self._rows))

    def __repr__(self):
        body = "; ".join(" ".join(repr(x) for x in row) for row in self.entries)
        return f"Matrix[{body}]"

    def rref(self):
        """(reduced row echelon form, rank)."""
        m, rank, _ = eliminate(self._rows, self.field.modulus)
        return Matrix.from_raw(self.field, m) if m else self, rank

    def rank(self):
        return eliminate(self._rows, self.field.modulus)[1]

    def kernel(self) -> "Subspace":
        """Right null space {v : M v = 0}."""
        return Subspace.kernel(self.field, self.cols, self._rows)

    def solve(self, rhs):
        """One solution x of M x = rhs, or None if inconsistent."""
        if len(rhs) != self.rows:
            raise DimensionMismatch("rhs length")
        f = self.field
        red, _, pivots = eliminate([row + (f.raw(f(b)),) for row, b
                                    in zip(self._rows, rhs)], f.modulus)
        x = [f.zero()] * self.cols
        for r, piv in enumerate(pivots):
            if piv == self.cols:
                return None  # 0 = 1 row
            x[piv] = f.wrap(red[r][self.cols])
        return tuple(x)

    def inverse(self):
        if self.rows != self.cols:
            raise SingularMatrix("not square")
        solved = solve_in_basis(
            list(zip(*self._rows)),
            Matrix.identity(self.field, self.rows)._rows, self.field.modulus)
        if solved is None:
            raise SingularMatrix("singular")
        return Matrix.from_raw(self.field, solved[0])

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows


def matmul(a, b, p=None):
    """The product of the raw matrices a and b (given by their rows, of
    `Field.raw` scalars), as a tuple of rows, reduced mod p unless p
    (`Field.modulus`) is None."""
    cols = list(zip(*b))
    if p is None:
        return tuple(tuple(sum(map(mul, row, c)) for c in cols) for row in a)
    return tuple(tuple(sum(map(mul, row, c)) % p for c in cols) for row in a)


def combine(start, terms, p=None):
    """start plus the sum of c row over the (c, row) terms, each row a
    raw vector given by its (index, value) pairs: a sparse row of
    `Algebra.nonzero_products`, or `enumerate` of a dense row.  Zero
    coefficients and values are skipped; the result is a tuple, reduced
    mod p once unless p (`Field.modulus`) is None."""
    out = list(start)
    for c, row in terms:
        if c:
            for m, v in row:
                if v:
                    out[m] = out[m] + c * v
    return tuple(out) if p is None else tuple(v % p for v in out)


class Subspace:
    """A subspace of field^ambient, stored by its canonical RREF basis on
    raw scalars (`_rows`, with their pivot columns `_pivots`)."""

    __slots__ = ("field", "ambient", "_rows", "_pivots")

    def __init__(self, field: Field, ambient: int, vectors=()):
        rows = [[field.raw(field(x)) for x in v] for v in vectors]
        for row in rows:
            if len(row) != ambient:
                raise DimensionMismatch(f"ambient {ambient} vs {len(row)}")
        self._span(field, ambient, rows)

    def _span(self, field, ambient, rows):
        self.field, self.ambient = field, ambient
        red, rank, self._pivots = eliminate(rows, field.modulus)
        self._rows = red[:rank]

    @staticmethod
    def from_raw(field, ambient, rows):
        """The span of raw rows (`Field.raw` scalars, residues in [0, p)
        over F_p, `ambient` of them in each row)."""
        S = Subspace.__new__(Subspace)
        S._span(field, ambient, rows)
        return S

    @staticmethod
    def full(field, ambient):
        return Subspace.unit_span(field, ambient, range(ambient))

    @staticmethod
    def unit_span(field, ambient, cols):
        """The span of the unit vectors e_j, j in cols (each in
        range(ambient)): the unit rows at the sorted distinct columns
        are already its RREF basis."""
        pivots = sorted(set(cols))
        if pivots and (pivots[0] < 0 or pivots[-1] >= ambient):
            raise DimensionMismatch(f"unit vectors {pivots} of ambient "
                                    f"{ambient}")
        zero, one = field.raw(field.zero()), field.raw(field.one())
        S = Subspace.__new__(Subspace)
        S.field, S.ambient, S._pivots = field, ambient, pivots
        S._rows = [[one if i == j else zero for i in range(ambient)]
                   for j in pivots]
        return S

    @staticmethod
    def kernel(field, ambient, rows):
        """The vectors of field^ambient that every raw row (`Field.raw`
        scalars, `ambient` of them) sends to zero."""
        raw = field.raw
        return Subspace.from_raw(field, ambient, null_space(
            rows, ambient, raw(field.zero()), raw(field.one()),
            field.modulus))

    @property
    def basis(self):
        """The RREF basis as tuples of FieldElements."""
        return tuple(tuple(map(self.field.wrap, row)) for row in self._rows)

    @property
    def dim(self):
        return len(self._rows)

    def member(self, vec) -> bool:
        if len(vec) != self.ambient:
            raise DimensionMismatch("vector length")
        f = self.field
        return not any(reduce([f.raw(f(x)) for x in vec], self._rows,
                              self._pivots, f.modulus))

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        return not any(any(reduce(v, self._rows, self._pivots,
                                  self.field.modulus)) for v in other._rows)

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.from_raw(self.field, self.ambient,
                                 self._rows + other._rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        # U ∩ W = (U^⊥ + W^⊥)^⊥ for the (nondegenerate) dot product
        self._check(other)
        f, n = self.field, self.ambient
        zero, one = f.raw(f.zero()), f.raw(f.one())
        return Subspace.kernel(f, n, [
            v for S in (self, other)
            for v in null_space(S._rows, n, zero, one, f.modulus)])

    def quotient_basis(self, sub: "Subspace"):
        """Coset representatives completing `sub` inside self (self >= sub),
        as raw rows: the rows of self at the pivot columns past sub's of
        one elimination of [sub | self]."""
        self._check(sub)
        k = len(sub._rows)
        _, _, pivots = eliminate([list(r) for r in zip(
            *sub._rows, *self._rows)], self.field.modulus)
        return [self._rows[c - k] for c in pivots if c >= k]

    def coordinate_complement(self):
        """Lexicographically-first coordinate complement of self."""
        pivots = set(self._pivots)
        return Subspace.unit_span(self.field, self.ambient,
                                  [j for j in range(self.ambient)
                                   if j not in pivots])

    def _check(self, other):
        if self.ambient != other.ambient or self.field != other.field:
            raise DimensionMismatch("ambient/field mismatch")

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and (self.ambient, self._rows) == (other.ambient, other._rows))

    def __hash__(self):
        return hash((self.field, self.ambient, *map(tuple, self._rows)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"
