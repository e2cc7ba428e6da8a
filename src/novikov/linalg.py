"""Dense exact linear algebra over any of the supported fields.

Matrices are immutable row-major tuples of FieldElement.  Subspaces are
stored by their unique RREF basis, so equal subspaces compare equal
structurally.  Plain Gaussian elimination with the first nonzero pivot
in column order; exact fields make this correct and deterministic.

The row reduction itself is `eliminate` and `reduce`, which work on
raw scalars (`Field.raw`; residues mod p when p is given) for every
field.  Every `Subspace` is built from raw rows by `Subspace.from_raw`,
which eliminates them once and keeps only the raw RREF basis; every
vector written in a basis goes through `solve_in_basis`.  `Matrix`, the
public type of linear maps (automorphisms, basis changes, witnesses),
holds FieldElements and converts at its boundary; the isomorphism
search and the F_p orbit stage (`fplab`) keep automorphisms as raw rows,
and bilinear forms are raw (`cohomology`).
"""

from __future__ import annotations

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
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries):
        self.field = field
        self.entries = tuple(tuple(field(x) for x in row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged rows")

    @staticmethod
    def zero(field, rows, cols):
        z = field.zero()
        return Matrix(field, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(field, n):
        z, o = field.zero(), field.one()
        return Matrix(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def transpose(self):
        return Matrix(self.field, [self.col(j) for j in range(self.cols)])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.cols} vs {other.rows}")
            ot = other.transpose()
            return Matrix(self.field, [
                [_dot(r, c, self.field) for c in ot.entries] for r in self.entries
            ])
        try:
            c = self.field(other)
        except Exception:
            return NotImplemented
        return Matrix(self.field, [[a * c for a in row]
                                   for row in self.entries])

    def __rmul__(self, other):
        return self.__mul__(other)

    def apply(self, vec):
        """Matrix-vector product (vec as a sequence of scalars)."""
        if len(vec) != self.cols:
            raise DimensionMismatch(f"{self.cols} vs {len(vec)}")
        return tuple(_dot(r, vec, self.field) for r in self.entries)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape")
        return Matrix(self.field, [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ])

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape")
        return Matrix(self.field, [
            [a - b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(repr(x) for x in row) for row in self.entries)
        return f"Matrix[{body}]"

    def _raw(self):
        raw = self.field.raw
        return [[raw(x) for x in row] for row in self.entries]

    def _eliminate(self):
        """`eliminate` on the raw entries: (raw rows, rank, pivots)."""
        return eliminate(self._raw(), self.field.modulus)

    def _wrapped(self, rows):
        wrap = self.field.wrap
        return [[wrap(x) for x in row] for row in rows]

    def rref(self):
        """(reduced row echelon form, rank)."""
        m, rank, _ = self._eliminate()
        return Matrix(self.field, self._wrapped(m)) if m else self, rank

    def rank(self):
        return self._eliminate()[1]

    def kernel(self) -> "Subspace":
        """Right null space {v : M v = 0}."""
        return Subspace.kernel(self.field, self.cols, self._raw())

    def solve(self, rhs):
        """One solution x of M x = rhs, or None if inconsistent."""
        if len(rhs) != self.rows:
            raise DimensionMismatch("rhs length")
        aug = Matrix(self.field, [
            list(self.entries[i]) + [rhs[i]] for i in range(self.rows)
        ])
        red, _, pivots = aug._eliminate()
        z = self.field.zero()
        x = [z] * self.cols
        for r, piv in enumerate(pivots):
            if piv == self.cols:
                return None  # 0 = 1 row
            x[piv] = self.field.wrap(red[r][self.cols])
        return tuple(x)

    def inverse(self):
        if self.rows != self.cols:
            raise SingularMatrix("not square")
        solved = solve_in_basis(
            self.transpose()._raw(),
            Matrix.identity(self.field, self.rows)._raw(), self.field.modulus)
        if solved is None:
            raise SingularMatrix("singular")
        return Matrix(self.field, self._wrapped(solved[0]))

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows


def _dot(a, b, field):
    acc = field.zero()
    for x, y in zip(a, b):
        acc = acc + x * y
    return acc


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
        """The span of the unit vectors e_j, j in cols."""
        zero, one = field.raw(field.zero()), field.raw(field.one())
        return Subspace.from_raw(field, ambient, [
            [one if i == j else zero for i in range(ambient)] for j in cols])

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
