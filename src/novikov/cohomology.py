"""Second cohomology of an algebra with coefficients in a trivial module.

Bilinear forms on A are coordinatized in the Delta_ij basis
(Delta_ij(e_l, e_m) = delta_il delta_jm), ordered lexicographically by
(i, j); a form is an n^2-vector, row-major.  A Cocycle with s components
is s such forms; it describes a map A x A -> F^s.  Forms are n x n
tuples of raw scalars (`Field.raw`), like the planes of `Algebra.table`.

Z^2 is the kernel of the cocycle equations, written once as the rows of
`cocycle_equations`; the same rows check a Cocycle.  One solve,
`h2_coordinates`, writes forms modulo B^2 in given classes and so tells
whether those classes are independent in H^2.
"""

from __future__ import annotations

from .algebra import Algebra, check_size, read_entries, require
from .fields import FieldMismatch
from .linalg import Matrix, Subspace, combine, matmul, solve_in_basis


class NotACocycle(Exception):
    pass


class NotCommutative(Exception):
    pass


class DependentClasses(Exception):
    pass


class Cocycle:
    """s bilinear forms on `base`, each satisfying the cocycle equations
    (unless constructed with check=False for negative tests).
    `components[t][i][j]` is theta_t(e_i, e_j) on raw scalars: the
    constructor coerces Matrices and nested sequences of ints, strings
    and field elements, `from_raw` takes raw forms as they are.
    `checked`: checked here, or a sum of checked forms (`catalog`)."""

    __slots__ = ("base", "s", "components", "checked")

    def __init__(self, base: Algebra, components, check: bool = True):
        f, n = base.field, base.dim
        forms = [[[f.raw(f(x)) for x in row] for row in
                  (m.entries if isinstance(m, Matrix) else m)]
                 for m in components]
        if any(len(m) != n or any(len(row) != n for row in m) for m in forms):
            raise FieldMismatch("component shape != base dim")
        self._set(base, forms, check)

    @staticmethod
    def from_raw(base: Algebra, forms, check: bool = True):
        """The cocycle with the raw n x n forms `forms` (Fractions over
        Q, residues in [0, p) over F_p), taken as they are."""
        theta = Cocycle.__new__(Cocycle)
        theta._set(base, forms, check)
        return theta

    def _set(self, base, forms, check):
        self.base = base
        self.components = tuple(tuple(map(tuple, m)) for m in forms)
        self.s = len(self.components)
        self.checked = check
        if check:
            p, equations = base.field.modulus, cocycle_equations(base)
            for t, m in enumerate(self.components):
                v = flatten(m)
                values = (sum(c * v[col] for col, c in eq) for eq in equations)
                if any(values if p is None else (x % p for x in values)):
                    raise NotACocycle(f"component {t + 1} violates "
                                      "the cocycle equations")

    def annihilator(self) -> Subspace:
        """{x in A : theta(x, A) = theta(A, x) = 0 for all components}."""
        rows = [row for m in self.components for row in (*m, *zip(*m))]
        return Subspace.kernel(self.base.field, self.base.dim, rows)

    def to_json(self):
        wrap = self.base.field.wrap
        entries = [{"t": t + 1, "i": i + 1, "j": j + 1, "c": repr(wrap(c))}
                   for t, m in enumerate(self.components)
                   for i, row in enumerate(m) for j, c in enumerate(row)
                   if c]
        return {"base": self.base.to_json(), "s": self.s, "entries": entries}

    @staticmethod
    def from_json(doc, base: Algebra | None = None):
        s = check_size(doc, "s")
        if base is None:
            base = Algebra.from_json(require(doc, "base"))
        n = base.dim
        values = read_entries(doc, "entries", "tij", (s, n, n), base.field)
        return Cocycle(base, [[[values.get((t, i, j), 0) for j in range(n)]
                               for i in range(n)] for t in range(s)])

    def __eq__(self, other):
        return (isinstance(other, Cocycle) and self.base == other.base
                and self.components == other.components)

    def __repr__(self):
        return f"Cocycle(s={self.s} on dim-{self.base.dim} base)"


def flatten(m):
    """The raw n x n form m as an n^2-vector, row-major."""
    return [x for row in m for x in row]


def cocycle_equations(A: Algebra):
    """The cocycle equations of A, as sparse raw rows ((column, raw
    coefficient), ...) on the flattened form (column i*n + j holds
    theta(e_i, e_j)), computed once per algebra.  For every basis triple
    (e_i, e_j, e_k), read off the nonzero structure constants:

        theta(e_i e_j, e_k) - theta(e_i e_k, e_j) = 0             (j < k)
        theta(e_i e_j, e_k) - theta(e_i, e_j e_k)
            - theta(e_j e_i, e_k) + theta(e_j, e_i e_k) = 0       (i < j)

    The other triples repeat these up to sign; rows that cancel to zero
    are left out."""
    return A._memo("cocycle_equations", lambda: _cocycle_equations(A))


def _cocycle_equations(A: Algebra):
    n, p = A.dim, A.field.modulus
    nz = A.nonzero_products()

    def row(*parts):
        # parts: (sign, terms of a product, step, offset); its term
        # (l, c) adds sign * c at column l * step + offset, so step n,
        # offset k reads theta(e_l, e_k) and step 1, offset i*n reads
        # theta(e_i, e_l)
        acc = {}
        for sign, terms, step, offset in parts:
            for l, c in terms:
                col = l * step + offset
                acc[col] = acc[col] + sign * c if col in acc else sign * c
        if p is not None:
            acc = {col: c % p for col, c in acc.items()}
        return tuple((col, c) for col, c in sorted(acc.items()) if c)

    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if k > j:
                    rows.append(row((1, nz[i][j], n, k), (-1, nz[i][k], n, j)))
                if j > i:
                    rows.append(row((1, nz[i][j], n, k), (-1, nz[j][i], n, k),
                                    (-1, nz[j][k], 1, i * n),
                                    (1, nz[i][k], 1, j * n)))
    return tuple(r for r in rows if r)


def cocycle_space(A: Algebra) -> Subspace:
    """Z^2(A, F) as a subspace of the n^2-dimensional form space: the
    kernel of `cocycle_equations`, computed once per algebra."""
    def compute():
        f, width = A.field, A.dim ** 2
        zero = f.raw(f.zero())
        rows = []
        for eq in cocycle_equations(A):
            row = [zero] * width
            for col, c in eq:
                row[col] = c
            rows.append(row)
        return Subspace.kernel(f, width, rows)
    return A._memo("cocycle_space", compute)


def form_sum(A: Algebra, terms):
    """The raw bilinear form sum(c * m) over the (coefficient, form) pairs
    in `terms` (FieldElement coefficients, raw n x n forms): one
    `linalg.combine` of the flattened forms."""
    f, n = A.field, A.dim
    flat = combine((f.raw(f.zero()),) * (n * n), [
        (f.raw(c), enumerate(flatten(m))) for c, m in terms], f.modulus)
    return tuple(flat[i * n:(i + 1) * n] for i in range(n))


def congruence(m, phi, p):
    """The raw form phi^T m phi, (x, y) -> m(phi x, phi y), of the raw
    n x n form m and the raw rows of an n x n matrix phi, reduced mod p
    unless p (`Field.modulus`) is None."""
    return matmul(zip(*phi), matmul(m, phi, p), p)


def coboundary_space(A: Algebra) -> Subspace:
    """B^2(A, F): forms delta f (x, y) = f(xy); spanned by the dual-basis
    slices of the structure tensor."""
    n, table = A.dim, A.table
    return Subspace.from_raw(A.field, n * n, [
        [table[i][j][t] for i in range(n) for j in range(n)]
        for t in range(n)])


def h2_basis(A: Algebra):
    """(representative Cocycles, dim H^2); representatives complete B^2
    inside Z^2, chosen deterministically from the RREF basis of Z^2."""
    n = A.dim
    reps = cocycle_space(A).quotient_basis(coboundary_space(A))
    return [Cocycle.from_raw(A, [[v[i * n:(i + 1) * n] for i in range(n)]],
                             check=False) for v in reps], len(reps)


def h2_dimension(A: Algebra) -> int:
    return cocycle_space(A).dim - coboundary_space(A).dim


def h2_symmetric_dimension(A: Algebra) -> int:
    """Dimension of the symmetric-cocycle classes (commutative A only)."""
    if not A.is_commutative():
        raise NotCommutative("symmetric cohomology needs a commutative base")
    n, f = A.dim, A.field
    zero, one = f.raw(f.zero()), f.raw(f.one())
    # symmetric forms: spanned by Delta_ij + Delta_ji (i < j) and Delta_ii
    sym = Subspace.from_raw(f, n * n, [
        [one if c in (i * n + j, j * n + i) else zero for c in range(n * n)]
        for i in range(n) for j in range(i, n)])
    zsym = cocycle_space(A).intersect(sym)
    b2 = coboundary_space(A)  # symmetric since A is commutative
    return zsym.dim - b2.dim


def classes_independent(A: Algebra, thetas) -> bool:
    """Are the classes of the forms (raw n x n forms, or single-component
    cocycles) independent in H^2?  `h2_coordinates` of no targets."""
    return h2_coordinates(A, [
        th.components[0] if isinstance(th, Cocycle) else th
        for th in thetas], []) is not None


def h2_coordinates(A: Algebra, classes, targets):
    """The raw n^2-vectors `targets` written in the basis of the raw
    n x n forms `classes` followed by B^2, by one `solve_in_basis`:
    (coordinates, residual), whose first len(classes) coordinate rows
    are those on the classes; None when the classes are dependent modulo
    B^2."""
    return solve_in_basis(
        [flatten(m) for m in classes] + coboundary_space(A)._rows,
        targets, A.field.modulus)


def in_Ts(A: Algebra, thetas) -> bool:
    """T_s membership: classes independent in H^2 and the joint cocycle
    annihilator meets Ann(A) trivially."""
    comps = [m for th in thetas
             for m in (th.components if isinstance(th, Cocycle) else [th])]
    if not classes_independent(A, comps):
        raise DependentClasses("classes linearly dependent in H^2")
    joint = Cocycle.from_raw(A, comps, check=False)
    return joint.annihilator().intersect(A.annihilator()).dim == 0
