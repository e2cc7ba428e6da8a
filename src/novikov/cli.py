"""Command-line front end.

Subcommands:
    check           identities and invariants of one algebra
    h2              second cohomology of one algebra
    extend          build a central extension from algebra + cocycle
    reconstruct     strip the annihilator, recover (base, cocycle)
    iso             decide whether two algebras are isomorphic
    separate        partition a list of algebras up to isomorphism
    verify-catalog  run the membership predicates over catalog entries
    census          entry count and parameter-arity histogram
    orbits-fp       run the extension procedure over a prime field
    fmt             canonicalize a JSON file (idempotent)

`iso`, `separate` and `orbits-fp` settle each pair of algebras with one
decision, `invariants.decide`, so they agree on its verdict.

Exit codes: 0 success / verified, 1 verification failure, 2 input error
or a spent `--budget` in `orbits-fp`.
All machine-readable output is canonical JSON (sorted keys); pass
--report PATH to also write the report to a file.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import Algebra
from .catalog import (PREDICATES, census, load_catalog, verify_entry)
from .cohomology import Cocycle, NotACocycle, h2_basis
from .exprs import ExprError
from .extensions import ZeroAnnihilator, central_extension, reconstruct
from .fields import PrimeField, field_from_tag
from .invariants import decide, fingerprint, separate
from .morphisms import BudgetExceeded, is_isomorphism
from .fplab import (crosscheck, run_procedure_fp_report,
                    specialized_entries_fp)


class InputError(Exception):
    pass


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"{path}: {e}")


def _load_algebra(path):
    doc = _load_json(path)
    try:
        return Algebra.from_json(doc)
    except (KeyError, ValueError, ExprError) as e:
        raise InputError(f"{path}: bad algebra document ({e})")


def _canonical(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"{path}: {e}")


def _emit(report, args):
    text = _canonical(report)
    if args.report:
        _write(args.report, text)
    sys.stdout.write(text)


# ----------------------------------------------------------------------
# subcommands

def cmd_check(args):
    A = _load_algebra(args.algebra)
    fp = fingerprint(A)
    report = {
        "novikov": A.is_novikov(),
        "right_commutative": A.is_right_commutative()[0],
        "left_symmetric": A.is_left_symmetric()[0],
        "nilpotency": A.nilpotency_index(),
        "filtration": list(fp.filtration),
        "ann": fp.ann,
        "square": fp.square,
        "min_generators": fp.min_generators,
        "commutative": fp.commutative,
        "associative": fp.associative,
        "split": A.is_split(),
    }
    for key in ("novikov", "nilpotency", "ann"):
        print(f"{key}: {str(report[key]).lower()}")
    _emit(report, args)
    return 0


def cmd_h2(args):
    A = _load_algebra(args.algebra)
    reps, dim = h2_basis(A)
    report = {
        "dim_h2": dim,
        "classes": [r.to_json() for r in reps],
    }
    _emit(report, args)
    return 0


def cmd_extend(args):
    A = _load_algebra(args.algebra)
    doc = _load_json(args.cocycle)
    try:
        theta = Cocycle.from_json(doc, base=A)
    except NotACocycle as e:
        raise InputError(f"{args.cocycle}: {e}")
    except (KeyError, ValueError, ExprError) as e:
        raise InputError(f"{args.cocycle}: bad cocycle document ({e})")
    B = central_extension(A, theta)
    report = B.to_json()
    if args.out:
        _write(args.out, _canonical(report))
    _emit(report, args)
    return 0


def cmd_reconstruct(args):
    B = _load_algebra(args.algebra)
    try:
        base, theta = reconstruct(B)
    except ZeroAnnihilator as e:
        raise InputError(str(e))
    report = {"base": base.to_json(), "cocycle": theta.to_json()}
    if args.out:
        _write(args.out, _canonical(report))
    _emit(report, args)
    return 0


def cmd_iso(args):
    A = _load_algebra(args.a)
    B = _load_algebra(args.b)
    verdict, reason, w = decide(A, B, budget=args.budget, height=args.height)
    if verdict == "isomorphic":
        if not is_isomorphism(A, B, w):
            print("error: the witness is not an isomorphism", file=sys.stderr)
            return 1
        _emit({"verdict": "isomorphic",
               "witness": [[repr(x) for x in row] for row in w.entries]},
              args)
        return 0
    # an undecided pair reports its reason
    _emit({"verdict": "proven_distinct" if verdict == "distinct"
           else reason}, args)
    return 1


def cmd_separate(args):
    named = [(path, _load_algebra(path)) for path in args.algebras]
    _emit(separate(named, budget=args.budget, height=args.height), args)
    return 0


def _entry_labels(cat, text, option):
    """The comma-separated entry labels of `option`, each one known and
    none given twice (a short form such as N_16 names its entry)."""
    labels = text.split(",")
    seen = set()
    for label in labels:
        try:
            full = cat.entry(label).label
        except (KeyError, ValueError):
            raise InputError(f"{option}: unknown entry label {label!r}")
        if full in seen:
            raise InputError(f"{option}: entry {full} is given twice")
        seen.add(full)
    return labels


def _base_env(rec, field, text):
    """The `--base-params` assignments of a base record, checked against
    its parameter names and constraints."""
    env = {}
    for item in (text.split(",") if text else []):
        name, _, value = item.partition("=")
        if name not in rec.params:
            raise InputError(f"--base-params: {rec.key} has no parameter "
                             f"{name!r} (parameters: {rec.params})")
        if name in env:
            raise InputError(f"--base-params: {name!r} is given twice")
        try:
            env[name] = field(int(value))
        except ValueError:
            raise InputError(f"--base-params: {item!r} is not name=int")
    missing = [name for name in rec.params if name not in env]
    if missing:
        raise InputError(f"--base-params: {rec.key} needs {missing}")
    if not rec.check_params(field, env):
        raise InputError(f"--base-params: {text} violates the constraints "
                         f"of {rec.key} {rec.param_exclusions}")
    return env


def cmd_verify_catalog(args):
    cat = load_catalog()
    labels = _entry_labels(cat, args.labels, "--labels") if args.labels \
        else list(cat.entries)
    failures = []
    for label in labels:
        # a check that raises is a failure of its entry: it is reported
        # with its error, and with no predicate, since none ran
        try:
            reports = verify_entry(cat.entry(label), args.field)
        except Exception as e:
            failures.append({"label": label, "failed": [],
                             "error": f"{type(e).__name__}: {e}"})
            continue
        failures.extend({
            "label": label,
            "sample": list(r["sample"]),
            "failed": sorted(k for k in PREDICATES if not r["checks"][k]),
        } for r in reports if not r["passed"])
    report = {"checked": len(labels), "failures": failures}
    _emit(report, args)
    return 1 if failures else 0


def cmd_census(args):
    cat = load_catalog()
    got = census(cat)
    expected = cat.meta["census"]
    report = {
        "total": got["total"],
        "histogram": list(got["histogram"]),
        "expected_total": expected["total"],
        "expected_histogram": list(expected["histogram"]),
    }
    print(f"{got['total']} {tuple(got['histogram'])}")
    _emit(report, args)
    ok = (got["total"] == expected["total"]
          and list(got["histogram"]) == list(expected["histogram"]))
    return 0 if ok else 1


def cmd_orbits_fp(args):
    field = args.field
    if not isinstance(field, PrimeField):
        raise InputError("orbits-fp needs --field fp:p")
    cat = load_catalog()
    if args.base not in cat.bases:
        raise InputError(f"unknown base key {args.base!r}")
    rec = cat.bases[args.base]
    env = _base_env(rec, field, args.base_params)
    labels = _entry_labels(cat, args.crosscheck_labels,
                           "--crosscheck-labels") \
        if args.crosscheck_labels else None
    A = rec.algebra(field, env)
    rep = run_procedure_fp_report(A, args.s, budget=args.budget)
    report = {k: rep[k] for k in ("p", "s", "h2_dim", "aut_order", "points",
                                  "distinct_actions", "orbits",
                                  "admissible_orbits", "merged",
                                  "census_splits", "dedupe_searches")}
    report["classes"] = [B.to_json() for B in rep["classes"]]
    ok = True
    if labels:
        pool, skips = specialized_entries_fp(cat, field, labels)
        cc = crosscheck(rep["classes"], pool, budget=args.budget)
        # string keys sort as text ("1", "10", "2"); int keys would not
        report["crosscheck"] = {
            **cc, "matches": {str(k): v for k, v in cc["matches"].items()},
            "skips": skips}
        ok = not cc["unmatched_classes"] and not cc["unmatched_pool"]
    _emit(report, args)
    return 0 if ok else 1


def cmd_fmt(args):
    doc = _load_json(args.file)
    _write(args.file, _canonical(doc))
    return 0


# ----------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="novikov",
        description="Exact-arithmetic central-extension toolkit")
    p.add_argument("--field", default="q",
                   help="field tag: q | qi | qsqrt:d | fp:p")
    p.add_argument("--budget", type=int, default=5_000_000,
                   help="isomorphism-search budget: generator images "
                   "tried, counting only those that solve the relations "
                   "linear in them")
    p.add_argument("--height", type=int, default=3,
                   help="rational height bound for heuristic searches")
    p.add_argument("--report", default=None,
                   help="also write the JSON report to this path")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check", help="identities/invariants of one algebra")
    s.add_argument("algebra")
    s.set_defaults(func=cmd_check)

    s = sub.add_parser("h2", help="second cohomology")
    s.add_argument("algebra")
    s.set_defaults(func=cmd_h2)

    s = sub.add_parser("extend", help="build a central extension")
    s.add_argument("--algebra", required=True)
    s.add_argument("--cocycle", required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_extend)

    s = sub.add_parser("reconstruct", help="recover (base, cocycle)")
    s.add_argument("algebra")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_reconstruct)

    s = sub.add_parser("iso", help="isomorphism search")
    s.add_argument("a")
    s.add_argument("b")
    s.set_defaults(func=cmd_iso)

    s = sub.add_parser("separate", help="partition algebras by isomorphism")
    s.add_argument("algebras", nargs="+")
    s.set_defaults(func=cmd_separate)

    s = sub.add_parser("verify-catalog", help="membership predicates")
    s.add_argument("--labels", default=None,
                   help="comma-separated entry labels (default: all)")
    s.set_defaults(func=cmd_verify_catalog)

    s = sub.add_parser("census", help="entry count and arity histogram")
    s.set_defaults(func=cmd_census)

    s = sub.add_parser("orbits-fp", help="extension procedure over F_p")
    s.add_argument("--base", required=True, help="base record key")
    s.add_argument("--base-params", default=None,
                   help="comma-separated name=int assignments")
    s.add_argument("--s", type=int, default=1)
    s.add_argument("--crosscheck-labels", default=None,
                   help="match classes against these catalog entries")
    s.set_defaults(func=cmd_orbits_fp)

    s = sub.add_parser("fmt", help="canonicalize a JSON file in place")
    s.add_argument("file")
    s.set_defaults(func=cmd_fmt)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # argparse's type= would print its usage line too
        for option in ("budget", "height"):
            value = getattr(args, option)
            if value < 1:
                raise InputError(f"--{option} {value}: must be at least 1")
        args.field = field_from_tag(args.field)
        return args.func(args)
    except (InputError, ValueError, ExprError, BudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
