"""Acceptance suite: nine end-to-end criteria, one test (and one
pass/fail line) each.

Known catalog defects are frozen as constants below; the affected
criteria first assert that the failure set matches the frozen
expectation exactly (so any drift is caught), then assert the criterion
itself.  See notes outside the package for the analysis behind each
frozen set.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from novikov.catalog import (PREDICATES, SAMPLE_POOL, census,
                             class_coordinates, membership_checks,
                             verify_entry, _evaluate)
from novikov.cohomology import (Cocycle, NotACocycle, classes_independent,
                                cocycle_space, h2_dimension)
from novikov.extensions import (central_extension,
                                extension_annihilator_law,
                                extension_is_novikov_iff, reconstruct)
from novikov.fields import QQ, PrimeField
from novikov.fplab import (crosscheck, qualifies_as_extension,
                           run_procedure_fp_report, specialized_entries_fp,
                           specialized_tables_fp)
from novikov.linalg import Matrix
from novikov.morphisms import (BudgetExceeded, act_on_cocycle,
                               is_isomorphism, iso_search)

from conftest import first_admissible_env

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)

#: duplicated class-list rows in the source tables; the recorded
#: dimension for these comes from the independent computation (8).
TYPO_BASES = {"M4_09a": 8, "M4_10": 8, "M4_11": 8, "M4_15": 8}

#: entries whose published admissibility condition is weaker than the
#: true requirement Ann(theta) ∩ Ann(A) = 0: every admissible sample
#: yields a 5-dimensional algebra with a 2-dimensional annihilator
#: (N_122's is moreover not inside the square).  Frozen after
#: coboundary-invariant recomputation; these fail criteria 4 and 7.
DEGENERATE_ENTRIES = ("N_070", "N_071", "N_072", "N_073", "N_074",
                      "N_095", "N_122")

#: full predicate-failure profile of the flagged specializations
#: (becoming commutative/split forces some collateral failures).
FLAGGED_PROFILES = {
    "N_125 at 1": {"noncommutative"},
    "N_126 at 1": {"noncommutative", "annihilator", "nonsplit"},
    "N_126 at 0": {"annihilator", "nonsplit"},
}


def _line(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status}" + (f" — {detail}" if detail else ""))


# ----------------------------------------------------------------------
# 1. second-cohomology dimension table

def test_criterion_1_h2_dimension_table(cat):
    t0 = time.time()
    mismatches = []
    typos = {}
    for key, rec in sorted(cat.bases.items()):
        env = first_admissible_env(rec)
        d = h2_dimension(rec.algebra(QQ, env))
        if d != rec.expected_h2_dim:
            mismatches.append((key, d, rec.expected_h2_dim))
        if rec.typo:
            typos[key] = d
            print(f"  duplicated-row log: {key} printed tokens "
                  f"{rec.printed_tokens}, computed dim {d}")
    elapsed = time.time() - t0
    ok = not mismatches and typos == TYPO_BASES and elapsed < 10
    _line(1, ok, f"{len(cat.bases)} bases, {elapsed:.1f}s, "
          f"{len(typos)} duplicated rows logged")
    assert not mismatches, mismatches
    assert typos == TYPO_BASES
    assert elapsed < 10


# ----------------------------------------------------------------------
# 2. printed generators are independent cocycles

def test_criterion_2_generators_are_independent_cocycles(cat):
    t0 = time.time()
    bad = []
    for key, rec in sorted(cat.bases.items()):
        if rec.nablas_raw is None:
            continue
        env = first_admissible_env(rec)
        A = rec.algebra(QQ, env)
        try:
            cocs = [Cocycle.from_raw(A, [m])
                    for m in rec.nabla_matrices(QQ, env)]
        except NotACocycle as e:
            bad.append((key, str(e)))
            continue
        if not classes_independent(A, cocs):
            bad.append((key, "classes dependent modulo coboundaries"))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 10
    _line(2, ok, f"{elapsed:.1f}s")
    assert not bad, bad
    assert elapsed < 10


# ----------------------------------------------------------------------
# 3. census

def test_criterion_3_census(cat):
    got = census(cat)
    ok = (got["total"] == 218 and tuple(got["histogram"]) == (104, 82, 27, 5))
    _line(3, ok, f"{got['total']} entries, histogram {got['histogram']}")
    assert got["total"] == 218
    assert tuple(got["histogram"]) == (104, 82, 27, 5)


# ----------------------------------------------------------------------
# 4. membership predicates at every sample + flagged specializations

def _flagged_checks(cat, spec):
    rec = cat.bases[spec["base"]]
    benv = {k: _evaluate(v, QQ, {})
            for k, v in (spec.get("base_params") or {}).items()}
    A = rec.algebra(QQ, benv)
    nabs = rec.nabla_matrices(QQ, benv)
    m = Matrix.zero(QQ, A.dim, A.dim)
    for idx, expr in spec["cocycle"][0].items():
        m = m + Matrix(QQ, nabs[int(idx) - 1]) * _evaluate(expr, QQ, {})
    return membership_checks(A, Cocycle(A, [m]))


def test_criterion_4_membership_suite(cat):
    t0 = time.time()
    failures = {}
    for label, entry in cat.entries.items():
        for rep in verify_entry(entry, QQ):
            if not rep["passed"]:
                failures.setdefault(label, set()).update(
                    k for k in PREDICATES if not rep["checks"][k])
    elapsed = time.time() - t0

    flagged_bad = []
    for spec in cat.meta["flagged_specializations"]:
        checks = _flagged_checks(cat, spec)
        failed = {k for k, v in checks.items() if not v}
        if checks[spec["fails"]] or failed != FLAGGED_PROFILES[spec["name"]]:
            flagged_bad.append((spec["name"], sorted(failed)))

    ok = not failures and not flagged_bad and elapsed < 120
    _line(4, ok, f"{len(cat.entries)} entries in {elapsed:.1f}s; "
          f"{len(failures)} failing: {sorted(failures)}")
    # drift guards: the defect set must be exactly the frozen one
    assert failures == {l: {"annihilator"} for l in DEGENERATE_ENTRIES}, \
        failures
    assert not flagged_bad, flagged_bad
    assert elapsed < 120
    # the criterion itself: fails honestly on the frozen defect set
    assert not failures, \
        f"entries failing a membership predicate: {sorted(failures)}"


# ----------------------------------------------------------------------
# 5. transformation formulas for the induced H^2 action

def test_criterion_5_transformation_formulas(cat):
    rng = random.Random(0)
    for key in ("M4_01", "M4_02", "M4_07"):
        rec = cat.bases[key]
        A = rec.algebra(QQ)
        nabs = rec.nabla_matrices(QQ)
        d = len(nabs)
        trials = 0
        while trials < 100:
            env = {p: QQ(Fraction(rng.randint(-4, 4)))
                   for p in rec.aut_params}
            if not _evaluate(rec.aut_det, QQ, env):
                continue
            phi = rec.automorphism(QQ, env)
            alphas = [QQ(Fraction(rng.randint(-3, 3))) for _ in range(d)]
            env2 = dict(env)
            for i, a in enumerate(alphas, 1):
                env2[f"a{i}"] = a
            m = Matrix.zero(QQ, A.dim, A.dim)
            for a, nab in zip(alphas, nabs):
                m = m + Matrix(QQ, nab) * a
            theta = Cocycle(A, [m], check=False)
            got = class_coordinates(A, act_on_cocycle(A, phi, theta), nabs)[0]
            want = tuple(_evaluate(e, QQ, env2) for e in rec.aut_action)
            assert tuple(got) == want, (key, env, got, want)
            trials += 1
    _line(5, True, "3 bases x 100 random points, exact")


# ----------------------------------------------------------------------
# 6. extension laws on random pairs

def test_criterion_6_extension_laws(cat):
    rng = random.Random(0)
    checked = 0
    for key, rec in sorted(cat.bases.items()):
        env = first_admissible_env(rec)
        A = rec.algebra(QQ, env)
        assert A.is_novikov(), key
        zbasis = list(cocycle_space(A).basis)
        n = A.dim
        for t in range(500):
            if t % 2 == 0 and zbasis:
                coeffs = [QQ(Fraction(rng.randint(-3, 3))) for _ in zbasis]
                flat = [sum((c * x for c, x in zip(coeffs, col)), QQ(0))
                        for col in zip(*zbasis)]
                m = Matrix(QQ, [[flat[i * n + j] for j in range(n)]
                                for i in range(n)])
            else:
                m = Matrix(QQ, [[QQ(Fraction(rng.randint(-2, 2)))
                                 for _ in range(n)] for _ in range(n)])
            theta = Cocycle(A, [m], check=False)
            nov, in_z2 = extension_is_novikov_iff(A, theta)
            assert nov == in_z2, (key, t)
            holds, _ = extension_annihilator_law(A, theta)
            assert holds, (key, t)
            checked += 1
    _line(6, True, f"{checked} random pairs across {len(cat.bases)} bases")


# ----------------------------------------------------------------------
# 7. reconstruct ∘ central_extension round-trip over F_5

def test_criterion_7_roundtrip_f5(cat):
    t0 = time.time()
    failed = {}
    for label, entry in cat.entries.items():
        sample = entry.find_sample(F5)
        if sample is None:
            failed[label] = "no sample with a 1-dimensional central kernel"
            continue
        B = entry.extension(F5, sample)
        base2, _ = reconstruct(B)
        A, _ = entry.specialize(F5, sample)
        w = iso_search(base2, A)
        if w is None or not is_isomorphism(base2, A, w):
            failed[label] = f"no isomorphism witness at {sample}"
    elapsed = time.time() - t0
    ok = not failed and elapsed < 300
    _line(7, ok, f"{len(cat.entries)} entries in {elapsed:.1f}s; "
          f"{len(failed)} failing: {sorted(failed)}")
    # drift guard: exactly the frozen defect set, for the frozen reason
    assert failed == {l: "no sample with a 1-dimensional central kernel"
                      for l in DEGENERATE_ENTRIES}, failed
    assert elapsed < 300
    # the criterion itself: fails honestly on the frozen defect set
    assert not failed, f"round-trip failures: {sorted(failed)}"


# ----------------------------------------------------------------------
# 8. noted isomorphisms

def test_criterion_8_noted_isomorphisms(cat):
    found = []
    for pair in cat.meta["noted_isomorphisms"]:
        def build(field, spec):
            label, pd = spec
            e = cat.entry(label)
            sample = tuple(pd[p] for p in e.params)
            return e.extension(field, sample, strict=False)
        L, R = build(QQ, pair["left"]), build(QQ, pair["right"])
        w = None
        where = "Q"
        try:
            w = iso_search(L, R, budget=5_000_000, height=3)
        except BudgetExceeded:
            w = None
        if w is not None:
            assert is_isomorphism(L, R, w)
        else:
            where = "F_5"
            L, R = build(F5, pair["left"]), build(F5, pair["right"])
            w = iso_search(L, R, budget=50_000_000)
            assert w is not None and is_isomorphism(L, R, w), pair
        found.append((pair["left"][0], pair["right"][0], where))
    _line(8, True, "; ".join(f"{a}≅{b} over {f}" for a, b, f in found))
    assert len(found) == 5


# ----------------------------------------------------------------------
# 9. finite-field pipeline cross-check

F3_EMPTY_RUNS = [("N3s_02", {}), ("N3s_03", {}),
                 ("N3s_04l", {"lambda": 1}), ("N3s_04l", {"lambda": 2})]

#: one F_3 class of N3s_04z sits in no printed one-parameter family at
#: an F_3-rational parameter: reducing mod 3 collapses square classes,
#: so the automorphism orbits split finer than in characteristic 0.
#: The canonical point is frozen; the class itself is a verified
#: admissible extension (checked below).
F3_EXTRA_CLASS_POINT = ((1, 0, 2, 2, 2),)


def test_criterion_9_fp_pipeline_crosscheck(cat):
    t0 = time.time()
    pool4, skips4 = specialized_tables_fp(cat, F3, 4)
    assert not skips4

    # N3s_01: perfect 9 <-> 9 correspondence
    A = cat.bases["N3s_01"].algebra(F3, {})
    rep = run_procedure_fp_report(A, 1)
    qual = [(n, P) for n, P in pool4 if qualifies_as_extension(P, A, 1)]
    cc = crosscheck(rep["classes"], qual)
    assert (rep["h2_dim"], rep["aut_order"], rep["points"]) == (5, 108, 121)
    assert len(rep["classes"]) == 9 and len(qual) == 9
    assert not cc["unmatched_classes"] and not cc["unmatched_pool"]

    # bases whose printed classes never make the kernel central: both
    # sides empty
    for key, bp in F3_EMPTY_RUNS:
        env = {k: F3(v) for k, v in bp.items()}
        Ab = cat.bases[key].algebra(F3, env)
        repb = run_procedure_fp_report(Ab, 1)
        qualb = [(n, P) for n, P in pool4
                 if qualifies_as_extension(P, Ab, 1)]
        assert not repb["classes"] and not qualb, (key, bp)

    # N3s_04z: every printed specialization is hit; one extra F_3-only
    # orbit (square-class collapse) at the frozen canonical point
    Az = cat.bases["N3s_04z"].algebra(F3, {})
    repz = run_procedure_fp_report(Az, 1)
    qualz = [(n, P) for n, P in pool4 if qualifies_as_extension(P, Az, 1)]
    ccz = crosscheck(repz["classes"], qualz)
    assert len(repz["classes"]) == 14 and len(qualz) == 13
    assert not ccz["unmatched_pool"]
    assert len(ccz["unmatched_classes"]) == 1
    extra = ccz["unmatched_classes"][0]
    assert repz["class_points"][extra] == F3_EXTRA_CLASS_POINT
    X = repz["classes"][extra]
    assert X.is_novikov() and X.annihilator().dim == 1 \
        and X.square().contains(X.annihilator())

    # M4_01 over F_2: all specializations that exist mod 2 are hit;
    # the only class residue is 4 classes accounted to the 4 listed
    # specialization skips plus 1 commutative class (outside the
    # noncommutative catalog scope)
    A2 = cat.bases["M4_01"].algebra(F2, {})
    rep2 = run_procedure_fp_report(A2, 1)
    assert (rep2["h2_dim"], rep2["aut_order"], rep2["points"]) == (10, 192, 1023)
    labels = ["N_%03d" % i for i in range(1, 13)]
    pool2, skips2 = specialized_entries_fp(cat, F2, labels)
    assert len(pool2) == 16
    assert skips2 == [("N_011[0]", "1/0 in F_2"), ("N_011[1]", "1/0 in F_2"),
                      ("N_012[0]", "1/0 in F_2"), ("N_012[1]", "1/0 in F_2")]
    cc2 = crosscheck(rep2["classes"], pool2)
    assert not cc2["unmatched_pool"]
    assert len(rep2["classes"]) == 20
    commutative = [i for i in cc2["unmatched_classes"]
                   if rep2["classes"][i].is_commutative()]
    residue = [i for i in cc2["unmatched_classes"]
               if not rep2["classes"][i].is_commutative()]
    assert len(commutative) == 1
    assert len(residue) == len(skips2)

    elapsed = time.time() - t0
    _line(9, elapsed < 600,
          f"6 runs in {elapsed:.1f}s; N3s_01 9<->9 exact; 4 empty runs; "
          f"N3s_04z 13 matched + 1 frozen F_3-only orbit; F_2 run 16/16 "
          f"matched, residue = {len(skips2)} listed skips + 1 commutative")
    assert elapsed < 600
