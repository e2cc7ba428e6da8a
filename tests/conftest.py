"""Shared fixtures and helpers for the test suite."""

from fractions import Fraction
from itertools import product

import pytest

from novikov.catalog import SAMPLE_POOL, load_catalog
from novikov.cohomology import form_sum
from novikov.fields import QQ
from novikov.linalg import Matrix, eliminate


@pytest.fixture(scope="session")
def cat():
    return load_catalog()


def first_admissible_env(rec, field=QQ):
    """First parameter assignment from the default sample pool that
    passes the base record's recorded constraints."""
    if not rec.params:
        return {}
    for combo in product(SAMPLE_POOL, repeat=len(rec.params)):
        env = {p: field(Fraction(v)) for p, v in zip(rec.params, combo)}
        if rec.check_params(field, env):
            return env
    raise AssertionError(f"no admissible parameters for {rec.key}")


def reconstruction_basis_change(B):
    """The basis change aligning B with central_extension(*reconstruct(B)):
    columns are the complement representatives followed by Ann(B) basis."""
    ann = B.annihilator()
    return Matrix(B.field, ann.coordinate_complement().basis +
                  ann.basis).transpose()


def coboundary_of(A, f_coeffs):
    """delta f for the functional f = sum_t f_coeffs[t] e_t^*, as a raw
    form: the structure tensor's dual-basis slices summed by `form_sum`."""
    f = A.field
    return form_sum(A, [(f(c), [[row[t] for row in plane]
                                for plane in A.table])
                        for t, c in enumerate(f_coeffs)])


def reference_null_space(rows, width, zero, one, p=None):
    """`linalg.null_space` by one elimination of all the raw rows, with no
    unit rows peeled first: one basis vector per free column."""
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
