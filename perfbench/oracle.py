"""Known answers for the benchmark workloads, and checkers that use only
`fractions.Fraction` and plain integers.

Nothing here imports `novikov`: the checkers read the package's outputs
through their JSON forms (`Algebra.to_json`, witness entries printed with
`repr`) and redo the arithmetic themselves, so a defect in the package's
scalar, linear-algebra or identity code cannot also hide in the check.
"""

from __future__ import annotations

from fractions import Fraction

# ----------------------------------------------------------------------
# frozen answers

#: Copied from tests/test_acceptance.py (DEGENERATE_ENTRIES and
#: test_criterion_4_membership_suite): at its default samples over Q
#: every catalog entry passes all six membership predicates, except these
#: seven, which fail exactly the "annihilator" predicate.
CATALOG_FAILS_ANNIHILATOR = frozenset(
    ("N_070", "N_071", "N_072", "N_073", "N_074", "N_095", "N_122"))


def catalog_expected_failures(label):
    """Sorted tuple of the predicates the entry fails at any sample."""
    return ("annihilator",) if label in CATALOG_FAILS_ANNIHILATOR else ()


#: Basis-independent counts of run_procedure_fp_report at s = 1:
#: (h2_dim, aut_order, points, orbits, classes).
#: N3s_01 (5, 108, 121, _, 9) and M4_01/F_2 (10, 192, 1023, _, 20) are
#: asserted by tests/test_acceptance.py::test_criterion_9_fp_pipeline_crosscheck,
#: which also asserts zero classes for N3s_02, N3s_03 and N3s_04l at
#: lambda = 1, 2 and fourteen for N3s_04z.  The remaining numbers (orbit
#: counts, and h2_dim/aut_order/points of the empty and N3s_04z runs) were
#: frozen from the same runs at the commit that introduced this benchmark;
#: they are invariants of the base algebra, so no basis change may move them.
FP_COUNTS = {
    "N3s_01/F3": (5, 108, 121, 19, 9),
    "N3s_02/F3": (3, 144, 13, 5, 0),
    "N3s_03/F3": (3, 432, 13, 3, 0),
    "N3s_04l(lambda=1)/F3": (3, 54, 13, 5, 0),
    "N3s_04l(lambda=2)/F3": (3, 72, 13, 5, 0),
    "N3s_04z/F3": (5, 36, 121, 23, 14),
    "M4_01/F2": (10, 192, 1023, 51, 20),
}

#: Copied from test_criterion_9: the F_2 specializations of N_001..N_012
#: that cannot be built, the size of the pool that can, and the class
#: residue of the M4_01/F_2 run (every pool member matched; the unmatched
#: classes are one per listed skip plus one commutative class).
M4_01_SKIPS = (("N_011[0]", "1/0 in F_2"), ("N_011[1]", "1/0 in F_2"),
               ("N_012[0]", "1/0 in F_2"), ("N_012[1]", "1/0 in F_2"))
M4_01_POOL_SIZE = 16
M4_01_COMMUTATIVE_UNMATCHED = 1

# Every iso-q pair is isomorphic: by construction (A against a basis
# change of A) or by tests/test_acceptance.py::test_criterion_8_noted_isomorphisms
# (N_012 ~ N_011 at lambda = 1/4, N_016(2,3) ~ N_016(3,2), both found over
# Q there).  witness_problems checks each witness the search returns.


# ----------------------------------------------------------------------
# reading the package's JSON forms

def parse_scalar(text):
    """A `repr`'d scalar of Q ("-3/2") or of F_p ("2 mod 3"), as a
    Fraction or an int residue."""
    text = text.strip()
    if " mod " in text:
        value, p = text.split(" mod ")
        return int(value) % int(p)
    return Fraction(text)


def _modulus(doc):
    tag = doc["field"]
    if tag == "q":
        return None
    if tag.startswith("fp:"):
        return int(tag[3:])
    raise ValueError(f"unsupported field tag {tag!r}")


def table_of(doc):
    """(n, p or None, dense n x n x n list) from an Algebra JSON dict."""
    n = doc["dim"]
    p = _modulus(doc)
    zero = 0 if p else Fraction(0)
    t = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for e in doc["table"]:
        t[e["i"] - 1][e["j"] - 1][e["k"] - 1] = parse_scalar(str(e["c"]))
    return n, p, t


def _reduce(x, p):
    return x % p if p else x


def _mul(t, n, p, x, y):
    out = [0] * n if p else [Fraction(0)] * n
    for i in range(n):
        if not x[i]:
            continue
        for j in range(n):
            if not y[j]:
                continue
            c = x[i] * y[j]
            row = t[i][j]
            for k in range(n):
                if row[k]:
                    out[k] += c * row[k]
    return [_reduce(v, p) for v in out]


def rank(rows, p):
    """Rank of a list of rows, over F_p or (p = None) over Q."""
    m = [[_reduce(x, p) for x in r] for r in rows]
    done = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(done, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[done], m[piv] = m[piv], m[done]
        inv = pow(m[done][c], -1, p) if p else 1 / m[done][c]
        m[done] = [_reduce(x * inv, p) for x in m[done]]
        for r in range(len(m)):
            if r != done and m[r][c]:
                f = m[r][c]
                m[r] = [_reduce(a - f * b, p) for a, b in zip(m[r], m[done])]
        done += 1
    return done


def _basis(n, p, i):
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    return [one if k == i else zero for k in range(n)]


# ----------------------------------------------------------------------
# checkers

def witness_problems(a_doc, b_doc, witness):
    """Problems with `witness` as an isomorphism A -> B, where the
    witness is a list of rows of `repr`'d scalars and its columns are the
    images of A's basis vectors.  An empty list means the witness holds."""
    n, p, ta = table_of(a_doc)
    nb, pb, tb = table_of(b_doc)
    if (nb, pb) != (n, p):
        return ["the algebras differ in dimension or field"]
    if witness is None:
        return ["no witness returned"]
    w = [[parse_scalar(str(x)) for x in row] for row in witness]
    if len(w) != n or any(len(row) != n for row in w):
        return ["witness has the wrong shape"]
    if rank(w, p) != n:
        return ["witness is singular"]
    cols = [[w[r][c] for r in range(n)] for c in range(n)]

    def apply(v):
        return [_reduce(sum(w[r][c] * v[c] for c in range(n)), p)
                for r in range(n)]

    problems = []
    for i in range(n):
        for j in range(n):
            lhs = apply(ta[i][j])
            rhs = _mul(tb, n, p, cols[i], cols[j])
            if lhs != rhs:
                problems.append(f"phi(e{i + 1}e{j + 1}) != "
                                f"phi(e{i + 1})phi(e{j + 1})")
    return problems


def is_novikov_table(doc):
    """Right commutativity and left symmetry on all basis triples."""
    n, p, t = table_of(doc)
    e = [_basis(n, p, i) for i in range(n)]

    def m(x, y):
        return _mul(t, n, p, x, y)

    for i in range(n):
        for j in range(n):
            for k in range(n):
                if m(m(e[i], e[j]), e[k]) != m(m(e[i], e[k]), e[j]):
                    return False
                lhs = [a - b for a, b in zip(m(m(e[i], e[j]), e[k]),
                                             m(e[i], m(e[j], e[k])))]
                rhs = [a - b for a, b in zip(m(m(e[j], e[i]), e[k]),
                                             m(e[j], m(e[i], e[k])))]
                if [_reduce(x, p) for x in lhs] != \
                        [_reduce(x, p) for x in rhs]:
                    return False
    return True


def is_commutative_table(doc):
    n, _, t = table_of(doc)
    return all(t[i][j] == t[j][i] for i in range(n) for j in range(n))
