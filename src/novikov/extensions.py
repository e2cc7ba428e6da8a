"""Central extensions A_theta and the inverse construction.

central_extension(A, theta) adjoins s central basis vectors and adds
theta's values to the product: (x + u)(y + v) = xy + theta(x, y) with
the new summand annihilating everything.

reconstruct(B) inverts this: for B with Ann(B) != 0 it produces the
quotient algebra on the lexicographically-first coordinate complement of
Ann(B) together with the cocycle recording the annihilator part of the
products, both read off the products without solving a linear system,
so that central_extension(reconstruct(B)) is B up to the induced basis
change.
"""

from __future__ import annotations

from .algebra import Algebra
from .cohomology import Cocycle, classes_independent, cocycle_space, flatten
from .fields import FieldMismatch
from .linalg import Matrix, Subspace


class ZeroAnnihilator(Exception):
    pass


def central_extension(A: Algebra, theta: Cocycle) -> Algebra:
    n, s, f = A.dim, theta.s, A.field
    if theta.base.field != f:
        raise FieldMismatch(f"{theta.base.field} vs {f}")
    zero = (f.raw(f.zero()),) * (n + s)
    table = [[row + tuple(m[i][j] for m in theta.components)
              for j, row in enumerate(plane)] + [zero] * s
             for i, plane in enumerate(A.table)]
    return Algebra.from_raw(f, n + s, table + [[zero] * (n + s)] * s)


def extension_is_novikov_iff(A: Algebra, theta: Cocycle):
    """(is_novikov(A_theta), theta in Z^2) — equal for Novikov A."""
    ext = central_extension(A, theta)
    in_z2 = cocycle_space(A).contains(Subspace.from_raw(
        A.field, A.dim ** 2, [flatten(m) for m in theta.components]))
    return ext.is_novikov(), in_z2


def extension_annihilator_law(A: Algebra, theta: Cocycle):
    """Check Ann(A_theta) = (Ann(theta) ∩ Ann(A)) ⊕ V; returns
    (holds, computed Ann(A_theta))."""
    n, s = A.dim, theta.s
    ext = central_extension(A, theta)
    ann_ext = ext.annihilator()
    core = theta.annihilator().intersect(A.annihilator())
    f = A.field
    expected = Subspace.from_raw(f, n + s, [
        v + [f.raw(f.zero())] * s for v in core._rows]) + \
        Subspace.unit_span(f, n + s, range(n, n + s))
    return ann_ext == expected, ann_ext


def extension_is_split(A: Algebra, theta: Cocycle) -> bool:
    """A_theta is split iff the component classes are linearly dependent
    in H^2 (includes any component being a coboundary)."""
    return not classes_independent(A, theta.components)


def reconstruct(B: Algebra):
    """(A, theta) with central_extension(A, theta) = B after moving
    Ann(B) to the trailing coordinates.  Requires Ann(B) != 0.  A is
    B.quotient(Ann(B)); theta's t-th component holds the products' entries
    at the pivot column of Ann(B)'s t-th RREF row, their coordinate on it."""
    ann = B.annihilator()
    if ann.dim == 0:
        raise ZeroAnnihilator("no central subspace to strip")
    base = B.quotient(ann)
    free = [j for j in range(B.dim) if j not in ann._pivots]
    return base, Cocycle.from_raw(base, [[[B.table[i][j][c] for j in free]
                                          for i in free] for c in ann._pivots],
                                  check=False)


def reconstruction_basis_change(B: Algebra) -> Matrix:
    """The basis change aligning B with central_extension(*reconstruct(B)):
    columns are the complement representatives followed by Ann(B) basis."""
    ann = B.annihilator()
    return Matrix.from_raw(B.field, ann.coordinate_complement()._rows +
                           ann._rows).transpose()
