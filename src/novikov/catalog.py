"""The generated classification catalog.

The catalog is data plus construction: base-algebra records (structure
constants, listed H^2 generator forms, automorphism shapes) and entry
records (cocycle coefficient expressions over parameters).  An entry at
a parameter sample *is* the central extension built from its base and
cocycle; nothing 5-dimensional is stored.

The 218 entries rest on 44 bases, so many samples share one base at the
same parameter values (the 448 default samples over Q use 34 such
tuples).  Each `BaseRecord` builds its algebra and generator forms once
per (field, base parameter values) and hands the same objects to every
caller, so everything the algebra memoizes (sparse table, cocycle
equations, Z^2, annihilator) is computed once per tuple too.  The memo
lives on the records of one `load_catalog()` result: each load starts
empty.  Every walk over the parameter tuples of records over F_p is
`tuples_fp`.

Data lives in JSON files next to this module (override the directory
with the NOVIKOV_DATA environment variable):
    bases/<key>.json    one base algebra record
    entries/N_xxx.json  one catalog entry
    meta.json           census totals, noted isomorphisms, flagged
                        specializations
"""

from __future__ import annotations

import json
import os
from itertools import product

from .algebra import Algebra
from .cohomology import (Cocycle, DependentClasses, coboundary_space,
                         flatten, form_sum, in_Ts)
from .exprs import Expr, ExprError
from .extensions import central_extension
from .fields import DivisionByZero, Field, QQ, PrimeField
from .linalg import Matrix, solve_in_basis

DATA_ENV = "NOVIKOV_DATA"

#: default parameter values tried, in order, when an entry has no
#: curated samples; three admissible tuples are kept.
SAMPLE_POOL = ("2", "3", "1/2", "-2", "-1", "5", "-3", "1/3")


#: the errors of evaluating a catalog expression in a field: a division
#: by zero (a denominator divisible by p), or an expression that does not
#: evaluate there (`SqrtNotInField` is an `ExprError`)
EVALUATION_ERRORS = (DivisionByZero, ExprError)


class CatalogError(Exception):
    pass


class InadmissibleSample(CatalogError):
    pass


def _evaluate(text, field, env):
    return Expr(text).evaluate(field, env)


def _exclusion_holds(excl, field, env):
    """True when the constraint is satisfied (nonzero where required)."""
    if "nonzero" in excl:
        return bool(_evaluate(excl["nonzero"], field, env))
    if "any_nonzero" in excl:
        return any(bool(_evaluate(e, field, env))
                   for e in excl["any_nonzero"])
    raise CatalogError(f"unknown exclusion form {excl!r}")


class BaseRecord:
    """A base algebra with its listed H^2 generator forms."""

    def __init__(self, doc):
        self.key = doc["key"]
        self.dim = doc["dim"]
        self.params = doc.get("params") or []
        self.param_exclusions = doc.get("param_exclusions") or []
        self.table_raw = doc["table"]
        self.nablas_raw = doc.get("nablas")
        self.expected_h2_dim = doc.get("expected_h2_dim")
        self.printed_tokens = doc.get("printed_tokens")
        self.typo = doc.get("typo", False)
        self.aut_shape = doc.get("aut_shape")
        self.aut_params = doc.get("aut_params")
        self.aut_det = doc.get("aut_det")
        self.aut_action = doc.get("aut_action")
        self.extra_orbits = doc.get("extra_orbits") or []
        self.note = doc.get("note")
        self._specializations = {}

    def excluded(self, field: Field, env) -> bool:
        """Do the parameter values violate a recorded constraint?
        `EVALUATION_ERRORS` propagate."""
        return not all(_exclusion_holds(x, field, env)
                       for x in self.param_exclusions)

    def check_params(self, field: Field, env) -> bool:
        try:
            return not self.excluded(field, env)
        except EVALUATION_ERRORS:
            return False

    def algebra(self, field: Field, env=None) -> Algebra:
        """The base algebra at the parameter values `env`; equal (field,
        values) give the same object."""
        return self._specialization(field, env or {})[0]

    def nabla_matrices(self, field: Field, env=None):
        """The listed generator forms at `env`, as a tuple of raw n x n
        forms (`cohomology.form_sum`'s convention) shared like `algebra`."""
        if self.nablas_raw is None:
            raise CatalogError(f"{self.key} has no trusted generator list")
        return self._specialization(field, env or {})[1]

    def _specialization(self, field: Field, env):
        """(algebra, generator forms or None), built once per (field,
        parameter values) and kept on this record.  The table and the
        forms are evaluated together; an evaluation error propagates and
        nothing is kept."""
        key = (field, tuple(sorted(env.items())))
        spec = self._specializations.get(key)
        if spec is None:
            n = self.dim
            A = Algebra(field, n, {
                (i - 1, j - 1, k - 1): _evaluate(c, field, env)
                for i, j, k, c in self.table_raw})
            forms, raw = None, field.raw
            if self.nablas_raw is not None:
                forms = []
                for nab in self.nablas_raw:
                    m = [[raw(field.zero())] * n for _ in range(n)]
                    for i, j, c in nab:
                        m[i - 1][j - 1] = raw(_evaluate(c, field, env))
                    forms.append(tuple(map(tuple, m)))
                forms = tuple(forms)
            spec = self._specializations[key] = (A, forms)
        return spec

    def automorphism(self, field: Field, env) -> Matrix:
        if self.aut_shape is None:
            raise CatalogError(f"{self.key} has no recorded shape")
        return Matrix(field, [[_evaluate(c, field, env) for c in row]
                              for row in self.aut_shape])

    def __repr__(self):
        return f"BaseRecord({self.key})"


class CatalogEntry:
    """One classification entry: base key, parameters, cocycle."""

    def __init__(self, doc, base: BaseRecord):
        self.label = doc["label"]
        self.display = doc["display"]
        self.base = base
        self.s = doc["s"]
        self.params = doc.get("params") or []
        self.exclusions = doc.get("exclusions") or []
        self.base_params = doc.get("base_params") or {}
        self.cocycle_raw = doc["cocycle"]
        self.census_arity = doc["census_arity"]
        self.curated_samples = doc.get("samples")
        self.equivalences = doc.get("equivalences") or []
        self.note = doc.get("note")

    # -- parameter handling -------------------------------------------

    def base_env(self, field: Field, env):
        return {name: _evaluate(expr, field, env)
                for name, expr in self.base_params.items()}

    def excluded(self, field: Field, env) -> bool:
        """Does the sample violate one of the entry's exclusions, or its
        base parameters one of the base's?  Evaluation errors propagate."""
        return not all(_exclusion_holds(x, field, env)
                       for x in self.exclusions) or \
            self.base.excluded(field, self.base_env(field, env))

    def coefficients(self, field: Field, env):
        """Per cocycle component, the (generator index, coefficient)
        pairs at the sample; evaluation errors propagate."""
        return [[(int(idx) - 1, _evaluate(expr, field, env))
                 for idx, expr in comp.items()] for comp in self.cocycle_raw]

    def admissible(self, field: Field, env) -> bool:
        """Sample satisfies every exclusion and all expressions evaluate
        in the field."""
        return self._admitted(field, env) is not None

    def _admitted(self, field: Field, env):
        """(base parameter values, `coefficients`) at an admissible
        sample, each expression evaluated once; None otherwise."""
        try:
            if not all(_exclusion_holds(x, field, env)
                       for x in self.exclusions):
                return None
            benv = self.base_env(field, env)
            if self.base.excluded(field, benv):
                return None
            return benv, self.coefficients(field, env)
        except EVALUATION_ERRORS:
            return None

    def sample_env(self, field: Field, sample):
        if len(sample) != len(self.params):
            raise InadmissibleSample(
                f"{self.label} needs {len(self.params)} values")
        return {name: _evaluate(str(v), field, {})
                for name, v in zip(self.params, sample)}

    def default_samples(self, field: Field = QQ):
        """Curated samples if recorded, else the first three admissible
        tuples from the deterministic pool (>= 3 distinct values per
        parameter by construction)."""
        if self.curated_samples is not None:
            return [tuple(s) for s in self.curated_samples]
        k = len(self.params)
        if k == 0:
            return [()]
        pool = SAMPLE_POOL
        out = []
        m = 0
        while len(out) < 3 and m < 10 * len(pool):
            cand = tuple(pool[(m + j) % len(pool)] for j in range(k))
            try:
                env = self.sample_env(field, cand)
            except EVALUATION_ERRORS:
                m += 1
                continue
            if self.admissible(field, env):
                out.append(cand)
            m += 1
        if len(out) < 3:
            raise CatalogError(f"no admissible samples for {self.label}")
        return out

    def find_sample(self, field: Field):
        """First admissible sample in the given field whose cocycle lies
        in T_s; for prime fields the search falls back to all parameter
        tuples over the field.  None when no candidate qualifies."""
        candidates = list(self.default_samples())
        if isinstance(field, PrimeField) and self.params:
            candidates += list(product(range(field.p),
                                       repeat=len(self.params)))
        for cand in candidates:
            try:
                self.sample_env(field, cand)   # evaluates in this field
            except EVALUATION_ERRORS:
                continue
            try:
                # the strict specialization is the admissibility test
                A, theta = self.specialize(field, cand)
            except InadmissibleSample:
                continue
            try:
                if in_Ts(A, [theta]):
                    return cand
            except DependentClasses:
                pass
        return None

    # -- construction -------------------------------------------------

    def specialize(self, field: Field, sample, strict=True):
        """(base algebra, cocycle) at the sample; the base algebra is the
        one `BaseRecord.algebra` shares among all samples with the same
        base parameter values.  With strict=False the entry's own
        exclusions are ignored (boundary values stay constructible as
        long as the expressions evaluate)."""
        env = self.sample_env(field, sample)
        admitted = self._admitted(field, env) if strict else None
        if strict and admitted is None:
            raise InadmissibleSample(f"{self.label} at {sample!r}")
        benv = admitted[0] if strict else self.base_env(field, env)
        A = self.base.algebra(field, benv)
        nablas = self.base.nabla_matrices(field, benv)
        coefficients = admitted[1] if strict else \
            self.coefficients(field, env)
        return A, Cocycle.from_raw(A, [
            form_sum(A, [(c, nablas[t]) for t, c in comp])
            for comp in coefficients])

    def extension(self, field: Field, sample, strict=True) -> Algebra:
        A, theta = self.specialize(field, sample, strict=strict)
        return central_extension(A, theta)

    def __repr__(self):
        return f"CatalogEntry({self.display})"


class Catalog:
    def __init__(self, bases, entries, meta):
        self.bases = bases           # key -> BaseRecord
        self.entries = entries       # label -> CatalogEntry (ordered)
        self.meta = meta

    def entry(self, label) -> CatalogEntry:
        if label in self.entries:
            return self.entries[label]
        # accept short forms like "N_16"
        if label.startswith("N_"):
            padded = "N_%03d" % int(label[2:])
            if padded in self.entries:
                return self.entries[padded]
        raise KeyError(label)

    def __len__(self):
        return len(self.entries)


def data_dir():
    return os.environ.get(
        DATA_ENV, os.path.join(os.path.dirname(__file__), "data"))


def load_catalog() -> Catalog:
    d = data_dir()
    bases = {}
    bdir = os.path.join(d, "bases")
    for name in sorted(os.listdir(bdir)):
        if name.endswith(".json"):
            with open(os.path.join(bdir, name)) as fh:
                rec = BaseRecord(json.load(fh))
            bases[rec.key] = rec
    entries = {}
    edir = os.path.join(d, "entries")
    for name in sorted(os.listdir(edir)):
        if name.endswith(".json"):
            with open(os.path.join(edir, name)) as fh:
                doc = json.load(fh)
            entries[doc["label"]] = CatalogEntry(doc, bases[doc["base"]])
    with open(os.path.join(d, "meta.json")) as fh:
        meta = json.load(fh)
    return Catalog(bases, entries, meta)


def tuples_fp(records, field: PrimeField, build):
    """Every parameter tuple over F_p of each (key, record) pair, in
    `product` order, named key[v1, ...] (the key alone when the record
    has no parameters); the record is a `BaseRecord` or a
    `CatalogEntry`.  Returns ([(name, build(record, values, env))] over
    the tuples the record's exclusions admit, [(name, error text)] over
    those whose evaluation raises one of `EVALUATION_ERRORS`), where env
    maps the parameter names to the values."""
    out, skips = [], []
    for key, rec in records:
        for values in product(range(field.p), repeat=len(rec.params)):
            name = f"{key}{list(values)}" if values else key
            env = {n: field(v) for n, v in zip(rec.params, values)}
            try:
                if not rec.excluded(field, env):
                    out.append((name, build(rec, values, env)))
            except EVALUATION_ERRORS as e:
                skips.append((name, str(e)))
    return out, skips


def census(catalog: Catalog):
    """Entry count and parameter-arity histogram (3 means >= 3)."""
    hist = [0, 0, 0, 0]
    for e in catalog.entries.values():
        hist[min(e.census_arity, 3)] += 1
    return {"total": len(catalog.entries), "histogram": tuple(hist)}


#: names of the six membership predicates, in report order
PREDICATES = ("novikov", "nilpotency", "non_2_step", "annihilator",
              "generators", "noncommutative")


def membership_checks(A: Algebra, theta: Cocycle):
    """The six predicates for a catalog extension, plus a splitness
    check.  The annihilator predicate asks dim Ann = s (the number of
    adjoined central directions) with Ann inside the square; the
    nilpotency predicate is False for an extension that is not
    nilpotent."""
    B = central_extension(A, theta)
    ann = B.annihilator()
    return {
        "novikov": B.is_novikov(),
        "nilpotency": (B.nilpotency_index() or 0) >= 4,
        "non_2_step": not B.is_two_step(),
        "annihilator": ann.dim == theta.s and B.square().contains(ann),
        "generators": B.min_generators() >= 2,
        "noncommutative": not B.is_commutative(),
        "nonsplit": not B.is_split(),
    }


def verify_entry(entry: CatalogEntry, field: Field = QQ, samples=None):
    """Run the six membership predicates at each sample.  Returns a list
    of {"sample", "checks", "passed"} dicts; "passed" covers exactly the
    six predicates (splitness is reported but not counted)."""
    out = []
    for sample in (samples if samples is not None
                   else entry.default_samples(field)):
        A, theta = entry.specialize(field, sample)
        checks = membership_checks(A, theta)
        out.append({
            "sample": tuple(sample),
            "checks": checks,
            "passed": all(checks[k] for k in PREDICATES),
        })
    return out


def class_coordinates(A: Algebra, theta: Cocycle, nabla_mats):
    """Coordinates of theta's components in the printed class basis,
    modulo coboundaries (the classes followed by B^2 are the basis of
    one `solve_in_basis`).  Raises CatalogError if the classes are
    dependent modulo B^2 or a component is outside their span."""
    f = A.field
    solved = solve_in_basis(
        [flatten(m) for m in nabla_mats] + coboundary_space(A)._rows,
        [flatten(m) for m in theta.components], f.modulus)
    if solved is None:
        raise CatalogError("printed classes dependent modulo coboundaries")
    coords, residual = solved
    if any(any(row) for row in residual):
        raise CatalogError("component outside the printed class span")
    return [tuple(f.wrap(row[t]) for row in coords[:len(nabla_mats)])
            for t in range(theta.s)]
