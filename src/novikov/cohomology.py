"""Second cohomology of an algebra with coefficients in a trivial module.

Bilinear forms on A are coordinatized in the Delta_ij basis
(Delta_ij(e_l, e_m) = delta_il delta_jm), ordered lexicographically by
(i, j); a form is an n^2-vector, row-major.  A Cocycle with s components
is s such forms; it describes a map A x A -> F^s.

The two cocycle equations (for theta in Z^2):
    theta(xy, z) = theta(xz, y)
    theta(xy, z) - theta(x, yz) = theta(yx, z) - theta(y, xz)
"""

from __future__ import annotations

from .algebra import Algebra, check_index, check_size
from .fields import FieldMismatch
from .linalg import Matrix, Subspace


class NotACocycle(Exception):
    pass


class NotCommutative(Exception):
    pass


class DependentClasses(Exception):
    pass


class Cocycle:
    """s bilinear forms on `base`, each satisfying the cocycle equations
    (unless constructed with check=False for negative tests)."""

    __slots__ = ("base", "s", "components", "checked")

    def __init__(self, base: Algebra, components, check: bool = True):
        self.base = base
        comps = []
        for m in components:
            if not isinstance(m, Matrix):
                m = Matrix(base.field, m)
            if m.rows != base.dim or m.cols != base.dim:
                raise FieldMismatch("component shape != base dim")
            comps.append(m)
        self.components = tuple(comps)
        self.s = len(comps)
        self.checked = check
        if check:
            for t, m in enumerate(self.components):
                if not _satisfies_cocycle_equations(base, m):
                    raise NotACocycle(f"component {t + 1} violates the "
                                      "cocycle equations")

    def evaluate(self, x, y):
        """theta(x, y) as an s-tuple of scalars."""
        out = []
        for m in self.components:
            acc = self.base.field.zero()
            for i, xi in enumerate(x):
                if not xi:
                    continue
                for j, yj in enumerate(y):
                    if yj and m[i, j]:
                        acc = acc + xi * yj * m[i, j]
            out.append(acc)
        return tuple(out)

    def annihilator(self) -> Subspace:
        """{x in A : theta(x, A) = theta(A, x) = 0 for all components}."""
        n = self.base.dim
        rows = []
        for m in self.components:
            for j in range(n):
                rows.append([m[i, j] for i in range(n)])
                rows.append([m[j, i] for i in range(n)])
        return Matrix(self.base.field, rows).kernel()

    def to_json(self):
        entries = []
        for t, m in enumerate(self.components):
            for i in range(m.rows):
                for j in range(m.cols):
                    if m[i, j]:
                        entries.append({"t": t + 1, "i": i + 1, "j": j + 1,
                                        "c": repr(m[i, j])})
        return {"base": self.base.to_json(), "s": self.s, "entries": entries}

    @staticmethod
    def from_json(doc, base: Algebra | None = None, check: bool = True):
        if base is None:
            base = Algebra.from_json(doc["base"])
        f = base.field
        n = base.dim
        s = check_size(doc, "s")
        z = f.zero()
        comps = [[[z] * n for _ in range(n)] for _ in range(s)]
        seen = set()
        for e in doc["entries"]:
            key = (check_index(e, "t", s), check_index(e, "i", n),
                   check_index(e, "j", n))
            if key in seen:
                raise ValueError("duplicate entry (t, i, j) = "
                                 f"({e['t']}, {e['i']}, {e['j']})")
            seen.add(key)
            t, i, j = key
            comps[t][i][j] = f.parse(str(e["c"]))
        return Cocycle(base, comps, check=check)

    def __eq__(self, other):
        return (isinstance(other, Cocycle) and self.base == other.base
                and self.components == other.components)

    def __repr__(self):
        return f"Cocycle(s={self.s} on dim-{self.base.dim} base)"


def flatten(m: Matrix):
    return tuple(m[i, j] for i in range(m.rows) for j in range(m.cols))


def unflatten(base: Algebra, vec) -> Matrix:
    n = base.dim
    return Matrix(base.field, [[vec[i * n + j] for j in range(n)]
                               for i in range(n)])


def _satisfies_cocycle_equations(A: Algebra, m: Matrix) -> bool:
    """Both cocycle equations for the form m on every basis triple, read
    off the sparse table; the same verdict as membership in Z^2, which
    is the kernel of exactly these equations."""
    n, nz, z = A.dim, A.nonzero_products(), A.field.zero()
    rows, cols = m.entries, m.transpose().entries

    def pair(terms, vec):
        # sum over (l, c) in terms of c * vec[l]
        acc = z
        for l, c in terms:
            if vec[l]:
                acc = acc + c * vec[l]
        return acc

    # first[i][j][k] = theta(e_i e_j, e_k)
    first = [[[pair(nz[i][j], cols[k]) for k in range(n)] for j in range(n)]
             for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                if first[i][j][k] != first[i][k][j]:
                    return False
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                # theta(e_i, e_j e_k) and theta(e_j, e_i e_k)
                if first[i][j][k] - pair(nz[j][k], rows[i]) != \
                   first[j][i][k] - pair(nz[i][k], rows[j]):
                    return False
    return True


def cocycle_space(A: Algebra) -> Subspace:
    """Z^2(A, F) as a subspace of the n^2-dimensional form space,
    computed once per algebra."""
    return A._memo("cocycle_space", lambda: _cocycle_space(A))


def _cocycle_space(A: Algebra) -> Subspace:
    n = A.dim
    f = A.field
    z = f.zero()
    rows = []
    for i in range(n):
        for j in range(n):
            pij = A.table[i][j]
            for k in range(n):
                pik = A.table[i][k]
                pjk = A.table[j][k]
                pji = A.table[j][i]
                # eq 1: theta(e_i e_j, e_k) - theta(e_i e_k, e_j) = 0
                if k > j:  # (j,k) symmetric pair; skip duplicates
                    row = [z] * (n * n)
                    for l in range(n):
                        if pij[l]:
                            row[l * n + k] = row[l * n + k] + pij[l]
                        if pik[l]:
                            row[l * n + j] = row[l * n + j] - pik[l]
                    if any(row):
                        rows.append(row)
                # eq 2: theta(e_i e_j, e_k) - theta(e_i, e_j e_k)
                #     - theta(e_j e_i, e_k) + theta(e_j, e_i e_k) = 0
                if j > i:  # antisymmetric in (i,j); skip duplicates
                    row = [z] * (n * n)
                    for l in range(n):
                        if pij[l]:
                            row[l * n + k] = row[l * n + k] + pij[l]
                        if pji[l]:
                            row[l * n + k] = row[l * n + k] - pji[l]
                        if pjk[l]:
                            row[i * n + l] = row[i * n + l] - pjk[l]
                        if pik[l]:
                            row[j * n + l] = row[j * n + l] + pik[l]
                    if any(row):
                        rows.append(row)
    if not rows:
        return Subspace.full(f, n * n)
    return Matrix(f, rows).kernel()


def coboundary_space(A: Algebra) -> Subspace:
    """B^2(A, F): forms delta f (x, y) = f(xy); spanned by the dual-basis
    slices of the structure tensor."""
    n = A.dim
    vecs = []
    for t in range(n):
        vecs.append([A.table[i][j][t] for i in range(n) for j in range(n)])
    return Subspace(A.field, n * n, vecs)


def coboundary_of(A: Algebra, f_coeffs) -> Matrix:
    """delta f for the functional f = sum_t f_coeffs[t] e_t^*."""
    n = A.dim
    return Matrix(A.field, [
        [sum((f_coeffs[t] * A.table[i][j][t] for t in range(n)),
             A.field.zero()) for j in range(n)]
        for i in range(n)
    ])


def h2_basis(A: Algebra):
    """(representative Cocycles, dim H^2); representatives complete B^2
    inside Z^2, chosen deterministically from the RREF basis of Z^2."""
    z2 = cocycle_space(A)
    b2 = coboundary_space(A)
    reps = z2.quotient_basis(b2)
    return [Cocycle(A, [unflatten(A, v)], check=False) for v in reps], len(reps)


def h2_dimension(A: Algebra) -> int:
    return cocycle_space(A).dim - coboundary_space(A).dim


def h2_symmetric_dimension(A: Algebra) -> int:
    """Dimension of the symmetric-cocycle classes (commutative A only)."""
    if not A.is_commutative():
        raise NotCommutative("symmetric cohomology needs a commutative base")
    n = A.dim
    f = A.field
    z = f.zero()
    # symmetric forms: theta_ij = theta_ji
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            row = [z] * (n * n)
            row[i * n + j] = f.one()
            row[j * n + i] = -f.one()
            rows.append(row)
    sym = Matrix(f, rows).kernel() if rows else Subspace.full(f, n * n)
    zsym = cocycle_space(A).intersect(sym)
    b2 = coboundary_space(A)  # symmetric since A is commutative
    return zsym.dim - b2.dim


def classes_independent(A: Algebra, thetas) -> bool:
    """Are the single-component cocycles' classes independent in H^2?"""
    b2 = coboundary_space(A)
    span = Subspace(A.field, A.dim ** 2, b2.basis)
    for th in thetas:
        v = flatten(th.components[0] if isinstance(th, Cocycle) else th)
        if span.member(v):
            return False
        span = span + Subspace(A.field, A.dim ** 2, [v])
    return True


def in_Ts(A: Algebra, thetas) -> bool:
    """T_s membership: classes independent in H^2 and the joint cocycle
    annihilator meets Ann(A) trivially."""
    comps = []
    for th in thetas:
        comps.extend(th.components if isinstance(th, Cocycle) else [th])
    if not classes_independent(A, [Cocycle(A, [m], check=False)
                                   for m in comps]):
        raise DependentClasses("classes linearly dependent in H^2")
    joint = Cocycle(A, comps, check=False)
    return joint.annihilator().intersect(A.annihilator()).dim == 0
