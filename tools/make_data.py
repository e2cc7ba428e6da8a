#!/usr/bin/env python3
"""Emit the catalog data files (base algebras and entries) as JSON.

Run from the repository root:  python3 tools/make_data.py [--out DIR]

The files go to DIR (default: src/novikov/data, the package's data).

Bases carry structure-constant tables, the listed H^2 generator forms
("nablas"), automorphism-group shapes where recorded, and frozen
expected H^2 dimensions.  Entries carry cocycle coefficient expressions
over their parameters plus exclusion constraints.  The script checks
the census histogram before writing anything.
"""

import argparse
import json
import os
import sys

OUT = os.path.join(os.path.dirname(__file__), os.pardir,
                   "src", "novikov", "data")


def form(*terms):
    """form((1,2,"1"),(2,1,"1")) -> [[1,2,"1"],[2,1,"1"]]"""
    return [[i, j, str(c)] for (i, j, c) in terms]


def tbl(*terms):
    """tbl((1,1,2,"1"),...) -> [[i,j,k,"c"],...]"""
    return [[i, j, k, str(c)] for (i, j, k, c) in terms]


def nz(e):
    return {"nonzero": str(e)}


def anynz(*es):
    return {"any_nonzero": [str(e) for e in es]}


BASES = {}


def base(key, dim, table, nablas=None, params=(), param_exclusions=(),
         expected_h2_dim=None, printed_tokens=None, typo=False,
         aut_shape=None, aut_params=None, aut_det=None, aut_action=None,
         note=None):
    BASES[key] = {
        "key": key, "dim": dim, "table": table,
        "params": list(params),
        "param_exclusions": list(param_exclusions),
        "nablas": nablas,
        "expected_h2_dim": expected_h2_dim,
        "printed_tokens": printed_tokens,
        "typo": typo,
        "aut_shape": aut_shape, "aut_params": aut_params,
        "aut_det": aut_det, "aut_action": aut_action,
        "note": note,
    }


# ---------------------------------------------------------------------------
# 4-dimensional 2-step nilpotent bases (M4_*)

base("M4_01", 4, tbl((1, 1, 2, 1)),
     nablas=[form((1, 2, 1), (2, 1, 1)), form((1, 3, 1), (3, 1, 1)),
             form((1, 4, 1), (4, 1, 1)), form((3, 3, 1)),
             form((3, 4, 1), (4, 3, 1)), form((4, 4, 1)),
             form((2, 1, 1)), form((3, 1, 1)), form((4, 1, 1)),
             form((4, 3, 1))],
     expected_h2_dim=10,
     aut_shape=[["x", "0", "0", "0"], ["q", "x^2", "r", "u"],
                ["w", "0", "t", "k"], ["z", "0", "y", "l"]],
     aut_params=["x", "q", "r", "u", "w", "t", "k", "z", "y", "l"],
     aut_det="x^3*(t*l-k*y)",
     aut_action=[
         "x^3*a1",
         "r*x*a1 + y*(x*a3+w*a5+z*a6) + t*(x*a2+w*a4+z*(a5+a10))",
         "u*x*a1 + l*(x*a3+w*a5+z*a6) + k*(x*a2+w*a4+z*(a5+a10))",
         "t^2*a4 + y*(2*t*a5+y*a6+t*a10)",
         "k*t*a4 + (l*t+k*y)*a5 + y*(l*a6+k*a10)",
         "k^2*a4 + l*(2*k*a5+l*a6+k*a10)",
         "x^3*a7",
         "r*x*a7 + t*x*a8 + x*y*a9 + w*y*a10 - t*z*a10",
         "u*x*a7 + k*x*a8 + l*x*a9 + l*w*a10 - k*z*a10",
         "(l*t-k*y)*a10",
     ])

base("M4_02", 4, tbl((1, 1, 3, 1), (2, 2, 4, 1)),
     nablas=[form((1, 2, 1), (2, 1, 1)), form((1, 3, 1), (3, 1, 1)),
             form((2, 4, 1), (4, 2, 1)), form((2, 1, 1)),
             form((3, 1, 1)), form((4, 2, 1))],
     expected_h2_dim=6,
     aut_shape=[["x", "0", "0", "0"], ["0", "y", "0", "0"],
                ["z", "u", "x^2", "0"], ["t", "v", "0", "y^2"]],
     aut_params=["x", "y", "z", "u", "t", "v"],
     aut_det="x^3*y^3",
     aut_action=[
         "x*y*a1 + u*x*a2 + t*y*(a3+a6)",
         "x^3*a2",
         "y^3*a3",
         "x*y*a4 + u*x*a5 - t*y*a6",
         "x^3*a5",
         "y^3*a6",
     ])

base("M4_03", 4, tbl((1, 2, 3, 1), (2, 1, 3, -1)),
     nablas=[form((1, 1, 1)), form((1, 4, 1)), form((2, 1, 1)),
             form((2, 2, 1)), form((2, 4, 1)), form((4, 1, 1)),
             form((4, 2, 1)), form((4, 4, 1))],
     expected_h2_dim=8)

base("M4_04a", 4, tbl((1, 1, 3, 1), (1, 2, 3, 1), (2, 2, 3, "alpha")),
     params=["alpha"], param_exclusions=[nz("alpha")],
     nablas=[form((1, 2, 1)), form((1, 4, 1)), form((2, 1, 1)),
             form((2, 2, 1)), form((2, 4, 1)), form((4, 1, 1)),
             form((4, 2, 1)), form((4, 4, 1))],
     expected_h2_dim=8)

base("M4_04z", 4, tbl((1, 1, 3, 1), (1, 2, 3, 1)),
     nablas=[form((1, 2, 1)), form((1, 3, 1)), form((1, 4, 1)),
             form((2, 1, 1)), form((2, 2, 1)), form((2, 4, 1)),
             form((4, 1, 1)), form((4, 2, 1)), form((4, 4, 1)),
             form((3, 1, 1), (3, 2, 1), (2, 3, -1))],
     expected_h2_dim=10,
     aut_shape=[["x", "0", "0", "0"], ["y", "x+y", "0", "0"],
                ["z", "t", "x*(x+y)", "w"], ["u", "v", "0", "r"]],
     aut_params=["x", "y", "z", "t", "w", "u", "v", "r"],
     aut_det="x^2*(x+y)^2*r")

base("M4_05", 4, tbl((1, 1, 3, 1), (1, 2, 3, 1), (2, 1, 3, 1)),
     nablas=[form((1, 2, 1)), form((1, 4, 1)), form((2, 1, 1)),
             form((2, 2, 1)), form((2, 4, 1)), form((4, 1, 1)),
             form((4, 2, 1)), form((4, 4, 1))],
     expected_h2_dim=8)

base("M4_06", 4, tbl((1, 2, 4, 1), (3, 1, 4, 1)),
     nablas=[form((1, 1, 1)), form((1, 3, 1)), form((2, 1, 1)),
             form((2, 2, 1)), form((2, 3, 1)), form((3, 1, 1)),
             form((3, 2, 1)), form((3, 3, 1))],
     expected_h2_dim=8)

base("M4_07", 4, tbl((1, 2, 3, 1), (2, 1, 4, 1), (2, 2, 3, -1)),
     nablas=[form((1, 1, 1)), form((2, 2, 1)),
             form((2, 3, 1), (1, 3, -1)), form((2, 4, 1)),
             form((3, 2, 1), (1, 3, -1)), form((4, 1, 1), (1, 4, -1))],
     expected_h2_dim=6,
     aut_shape=[["x", "0", "0", "0"], ["0", "x", "0", "0"],
                ["z", "u", "x^2", "0"], ["t", "v", "0", "x^2"]],
     aut_params=["x", "z", "u", "t", "v"],
     aut_det="x^6",
     aut_action=[
         "x*(x*a1 - z*(a3+a5))",
         "x*(x*a2 + v*a4 + z*a5 - v*a6)",
         "x^3*a3",
         "x^3*a4",
         "x^3*a5",
         "x^3*a6",
     ])

base("M4_08a", 4,
     tbl((1, 1, 3, 1), (1, 2, 4, 1), (2, 1, 3, "-alpha"), (2, 2, 4, -1)),
     params=["alpha"], param_exclusions=[nz("alpha-1")],
     nablas=[form((1, 2, 1)), form((2, 1, 1)),
             form((1, 3, 1), (2, 3, "-alpha")),
             form((1, 4, 1), (2, 4, -1)),
             form((3, 1, 1), (1, 3, -1)),
             form((4, 2, 1), (2, 4, -1))],
     expected_h2_dim=6,
     aut_shape=[["x", "0", "0", "0"], ["0", "x", "0", "0"],
                ["t", "v", "x^2", "0"], ["u", "w", "0", "x^2"]],
     aut_params=["x", "t", "v", "u", "w"],
     aut_det="x^6")

base("M4_08one", 4,
     tbl((1, 1, 3, 1), (1, 2, 4, 1), (2, 1, 3, -1), (2, 2, 4, -1)),
     nablas=[form((1, 2, 1)), form((2, 1, 1)),
             form((1, 3, 1), (2, 3, -1)),
             form((1, 4, 1), (2, 4, -1)),
             form((3, 1, 1), (1, 3, -1)),
             form((4, 2, 1), (2, 4, -1)),
             form((3, 2, 1), (4, 1, 1), (2, 3, -1), (1, 4, -1))],
     expected_h2_dim=7,
     aut_shape=[["x", "y", "0", "0"], ["x+y-z", "z", "0", "0"],
                ["t", "v", "x*(z-y)", "y*(z-y)"],
                ["u", "w", "(x+y-z)*(z-y)", "z*(z-y)"]],
     aut_params=["x", "y", "z", "t", "v", "u", "w"],
     aut_det="(x*z-y*(x+y-z))^2*(z-y)^2")

base("M4_09a", 4,
     tbl((1, 1, 4, 1), (1, 2, 4, "alpha"), (2, 1, 4, "-alpha"),
         (2, 2, 4, 1), (3, 3, 4, 1)),
     params=["alpha"],
     printed_tokens=["D12", "D12", "D21", "D22", "D23",
                     "D31", "D32", "D33"],
     typo=True,
     expected_h2_dim=8,
     note="printed generator list contains a duplicated token; "
          "expected dimension frozen from independent computation")

base("M4_10", 4,
     tbl((1, 2, 4, 1), (1, 3, 4, 1), (2, 1, 4, -1), (2, 2, 4, 1),
         (3, 1, 4, 1)),
     printed_tokens=["D12", "D12", "D21", "D22", "D23",
                     "D31", "D32", "D33"],
     typo=True,
     expected_h2_dim=8,
     note="printed generator list contains a duplicated token; "
          "expected dimension frozen from independent computation")

base("M4_11", 4,
     tbl((1, 1, 4, 1), (1, 2, 4, 1), (2, 1, 4, -1), (3, 3, 4, 1)),
     printed_tokens=["D12", "D12", "D21", "D22", "D23",
                     "D31", "D32", "D33"],
     typo=True,
     expected_h2_dim=8,
     note="printed generator list contains a duplicated token; "
          "expected dimension frozen from independent computation")

base("M4_12", 4, tbl((1, 2, 3, 1), (2, 1, 4, 1)),
     nablas=[form((1, 1, 1)), form((1, 3, 1)),
             form((1, 4, 1), (4, 1, -1)), form((2, 2, 1)),
             form((2, 3, 1), (3, 2, -1)), form((2, 4, 1))],
     expected_h2_dim=6,
     aut_shape=[["x", "0", "0", "0"], ["0", "y", "0", "0"],
                ["z", "v", "x*y", "0"], ["u", "t", "0", "x*y"]],
     aut_params=["x", "y", "z", "v", "u", "t"],
     aut_det="x^3*y^3")

base("M4_13", 4,
     tbl((1, 1, 4, 1), (1, 2, 3, 1), (2, 1, 3, -1), (2, 2, 3, 2),
         (2, 2, 4, 1)),
     nablas=[form((2, 1, 1)), form((2, 2, 1)),
             form((1, 4, 1), (2, 3, 1)),
             form((2, 4, 1), (1, 3, -1), (1, 4, 2)),
             form((4, 2, 1), (1, 3, -2), (3, 1, 1), (3, 2, -2)),
             form((4, 1, 1), (1, 4, -2), (3, 2, -1))],
     expected_h2_dim=6,
     aut_shape=[["x", "0", "0", "0"], ["0", "x", "0", "0"],
                ["z", "u", "x^2", "0"], ["t", "v", "0", "x^2"]],
     aut_params=["x", "z", "u", "t", "v"],
     aut_det="x^6")

base("M4_14a", 4, tbl((1, 2, 4, 1), (2, 1, 4, "alpha"), (2, 2, 3, 1)),
     params=["alpha"], param_exclusions=[nz("alpha")],
     nablas=[form((1, 1, 1)), form((2, 1, 1)), form((2, 3, 1)),
             form((1, 3, 1), (2, 4, 1)), form((3, 2, 1)),
             form((2, 4, "alpha-1"), (3, 1, "alpha"), (4, 2, 1))],
     expected_h2_dim=6,
     aut_shape=[["x", "z", "0", "0"], ["0", "y", "0", "0"],
                ["w", "u", "y^2", "0"], ["t", "v", "(1+alpha)*y*z", "x*y"]],
     aut_params=["x", "y", "z", "w", "u", "t", "v"],
     aut_det="x^2*y^4",
     note="the last generator form spans the listed class for every "
          "parameter value, including the special value 1")

base("M4_14z", 4, tbl((1, 2, 4, 1), (2, 2, 3, 1)),
     nablas=[form((1, 1, 1)), form((2, 1, 1)), form((2, 3, 1)),
             form((1, 3, 1), (2, 4, 1)), form((3, 2, 1)),
             form((4, 2, 1), (2, 4, -1)), form((1, 4, 1))],
     expected_h2_dim=7,
     aut_shape=[["x", "z", "0", "0"], ["0", "y", "0", "0"],
                ["w", "u", "y^2", "0"], ["t", "v", "y*z", "x*y"]],
     aut_params=["x", "y", "z", "w", "u", "t", "v"],
     aut_det="x^2*y^4")

base("M4_14one", 4, tbl((1, 2, 4, 1), (2, 1, 4, 1), (2, 2, 3, 1)),
     nablas=[form((1, 1, 1)),
             form((1, 3, 1), (3, 1, 1), (2, 4, 1), (4, 2, 1)),
             form((2, 3, 1), (3, 2, 1)),
             form((2, 1, 1)), form((3, 2, 1)),
             form((3, 1, 1), (4, 2, 1))],
     expected_h2_dim=6,
     aut_shape=[["x", "z", "0", "0"], ["0", "y", "0", "0"],
                ["w", "u", "y^2", "0"], ["t", "v", "2*y*z", "x*y"]],
     aut_params=["x", "y", "z", "w", "u", "t", "v"],
     aut_det="x^2*y^4")

base("M4_15", 4, tbl((1, 2, 4, 1), (2, 1, 4, -1), (3, 3, 4, 1)),
     nablas=[form((1, 1, 1)), form((1, 3, 1)), form((2, 1, 1)),
             form((2, 2, 1)), form((2, 3, 1)), form((3, 1, 1)),
             form((3, 2, 1)), form((3, 3, 1))],
     typo=True,
     expected_h2_dim=8,
     note="listed with the duplicated-token rows; the printed list "
          "itself has 8 distinct tokens and matches the computation")

# ---------------------------------------------------------------------------
# 4-dimensional 3-step nilpotent two-generated bases (N4_*)

base("N4_01", 4, tbl((1, 1, 2, 1), (2, 1, 3, 1)),
     nablas=[form((1, 2, 1)), form((1, 3, 1), (3, 1, -1)),
             form((1, 4, 1)), form((4, 1, 1)), form((4, 4, 1))],
     expected_h2_dim=5,
     aut_shape=[["x", "0", "0", "0"], ["y", "x^2", "0", "0"],
                ["z", "x*y", "x^3", "t"], ["u", "0", "0", "r"]],
     aut_params=["x", "y", "z", "t", "u", "r"],
     aut_det="x^6*r")

base("N4_02l", 4, tbl((1, 1, 2, 1), (1, 2, 3, 1), (2, 1, 3, "lambda")),
     params=["lambda"], param_exclusions=[nz("lambda-1")],
     nablas=[form((1, 4, 1)), form((2, 1, 1)),
             form((1, 3, "2-lambda"), (2, 2, "lambda"),
                  (3, 1, "lambda")),
             form((4, 1, 1)), form((4, 4, 1))],
     expected_h2_dim=5,
     aut_shape=[["x", "0", "0", "0"], ["y", "x^2", "0", "0"],
                ["z", "(1+lambda)*x*y", "x^3", "t"], ["u", "0", "0", "r"]],
     aut_params=["x", "y", "z", "t", "u", "r"],
     aut_det="x^6*r")

base("N4_02one", 4, tbl((1, 1, 2, 1), (1, 2, 3, 1), (2, 1, 3, 1)),
     nablas=[form((1, 4, 1), (4, 1, 1)), form((2, 1, 1)),
             form((1, 3, 1), (2, 2, 1), (3, 1, 1)),
             form((4, 1, 1)), form((4, 4, 1))],
     expected_h2_dim=5,
     aut_shape=[["x", "0", "0", "0"], ["y", "x^2", "0", "0"],
                ["z", "2*x*y", "x^3", "t"], ["u", "0", "0", "r"]],
     aut_params=["x", "y", "z", "t", "u", "r"],
     aut_det="x^6*r")

base("N4_04a", 4,
     tbl((1, 1, 2, 1), (1, 2, 4, 1), (2, 1, 4, "alpha"), (3, 3, 4, 1)),
     params=["alpha"],
     nablas=[form((1, 3, 1)), form((2, 1, 1)), form((3, 1, 1)),
             form((3, 3, 1))],
     expected_h2_dim=4)

base("N4_05", 4,
     tbl((1, 1, 2, 1), (1, 2, 4, 1), (1, 3, 4, 1), (2, 1, 4, 1),
         (3, 3, 4, 1)),
     nablas=[form((1, 3, 1)), form((2, 1, 1)), form((3, 1, 1)),
             form((3, 3, 1))],
     expected_h2_dim=4)

base("N4_06a", 4,
     tbl((1, 1, 2, 1), (1, 2, 4, 1), (1, 3, 4, 1), (2, 1, 4, "alpha")),
     params=["alpha"], param_exclusions=[nz("alpha")],
     nablas=[form((1, 3, 1)), form((2, 1, 1)), form((3, 1, 1)),
             form((1, 4, "(2-alpha)/alpha"), (2, 2, 1), (2, 3, 1),
                  (3, 2, -1), (4, 1, 1)),
             form((3, 3, 1))],
     expected_h2_dim=5,
     aut_shape=[["x", "0", "0", "0"], ["y", "x^2", "0", "0"],
                ["z", "0", "x^2", "0"],
                ["u", "x*((1+alpha)*y+z)", "v", "x^3"]],
     aut_params=["x", "y", "z", "u", "v"],
     aut_det="x^8")

base("N4_07", 4, tbl((1, 1, 2, 1), (2, 1, 4, 1), (3, 3, 4, 1)),
     nablas=[form((1, 2, 1)), form((1, 3, 1)), form((3, 1, 1)),
             form((3, 3, 1))],
     expected_h2_dim=4)

base("N4_08", 4, tbl((1, 1, 2, 1), (1, 3, 4, 1), (2, 1, 4, 1)),
     nablas=[form((1, 2, 1)), form((2, 1, 1)), form((3, 1, 1)),
             form((3, 3, 1)),
             form((2, 3, 1), (3, 2, -1), (1, 4, -1), (4, 1, 1))],
     expected_h2_dim=5,
     aut_shape=[["x", "0", "0", "0"], ["y", "x^2", "0", "0"],
                ["z", "0", "x^2", "0"],
                ["u", "x*(y+z)", "v", "x^3"]],
     aut_params=["x", "y", "z", "u", "v"],
     aut_det="x^8")

base("N4_09", 4, tbl((1, 1, 2, 1), (1, 2, 4, 1), (3, 1, 4, 1)),
     nablas=[form((1, 3, 1)), form((2, 1, 1)), form((3, 1, 1)),
             form((3, 3, 1)), form((1, 4, 1), (3, 2, 1))],
     expected_h2_dim=5,
     aut_shape=[["x", "0", "0", "0"], ["y", "x^2", "0", "0"],
                ["z", "0", "x^2", "0"],
                ["u", "x*(y+z)", "v", "x^3"]],
     aut_params=["x", "y", "z", "u", "v"],
     aut_det="x^8")

base("N4_10", 4, tbl((1, 2, 3, 1), (1, 3, 4, 1)),
     nablas=[form((1, 1, 1)), form((1, 4, 1)), form((2, 1, 1)),
             form((2, 2, 1)), form((2, 3, 1), (3, 2, -1))],
     expected_h2_dim=5,
     aut_shape=[["x", "0", "0", "0"], ["0", "y", "0", "0"],
                ["0", "z", "x*y", "0"], ["u", "v", "x*z", "x^2*y"]],
     aut_params=["x", "y", "z", "u", "v"],
     aut_det="x^4*y^3")

base("N4_11", 4, tbl((1, 2, 3, 1), (1, 3, 4, 1), (2, 1, 4, 1)),
     nablas=[form((1, 1, 1)), form((2, 1, 1)), form((2, 2, 1)),
             form((2, 3, 1), (3, 2, -1))],
     expected_h2_dim=4)

base("N4_12", 4, tbl((1, 2, 3, 1), (2, 3, 4, 1), (3, 2, 4, -1)),
     nablas=[form((1, 1, 1)), form((1, 3, 1)), form((2, 1, 1)),
             form((2, 2, 1))],
     expected_h2_dim=4)

base("N4_13", 4,
     tbl((1, 2, 3, 1), (1, 1, 4, 1), (2, 3, 4, 1), (3, 2, 4, -1)),
     nablas=[form((1, 1, 1)), form((1, 3, 1)), form((2, 1, 1)),
             form((2, 2, 1))],
     expected_h2_dim=4)

base("N4_14", 4,
     tbl((1, 2, 3, 1), (1, 3, 4, 1), (2, 3, 4, 1), (3, 2, 4, -1)),
     nablas=[form((1, 1, 1)), form((1, 3, 1)), form((2, 1, 1)),
             form((2, 2, 1))],
     expected_h2_dim=4)

base("N4_15", 4,
     tbl((1, 2, 3, 1), (1, 1, 4, 1), (1, 3, 4, 1), (2, 3, 4, 1),
         (3, 2, 4, -1)),
     nablas=[form((1, 1, 1)), form((1, 3, 1)), form((2, 1, 1)),
             form((2, 2, 1))],
     expected_h2_dim=4)

base("N4_16", 4, tbl((1, 2, 3, 1), (1, 3, 4, 1), (2, 2, 4, 1)),
     nablas=[form((1, 1, 1)), form((2, 1, 1)), form((2, 2, 1)),
             form((1, 4, 1), (2, 3, 1)), form((2, 3, -1), (3, 2, 1))],
     expected_h2_dim=5,
     aut_shape=[["x", "0", "0", "0"], ["0", "x^2", "0", "0"],
                ["0", "y", "x^3", "0"], ["u", "v", "x*y", "x^4"]],
     aut_params=["x", "y", "u", "v"],
     aut_det="x^10")

base("N4_17", 4,
     tbl((1, 2, 3, 1), (1, 3, 4, 1), (2, 1, 4, 1), (2, 2, 4, 1)),
     nablas=[form((1, 1, 1)), form((2, 1, 1)), form((2, 2, 1)),
             form((2, 3, 1), (3, 2, -1))],
     expected_h2_dim=4)

base("N4_18", 4,
     tbl((1, 2, 3, 1), (2, 2, 4, 1), (2, 3, 4, 1), (3, 2, 4, -1)),
     nablas=[form((1, 1, 1)), form((1, 3, 1)), form((2, 1, 1)),
             form((2, 2, 1))],
     expected_h2_dim=4)

base("N4_19", 4,
     tbl((1, 2, 3, 1), (1, 1, 4, 1), (2, 2, 4, 1), (2, 3, 4, 1),
         (3, 2, 4, -1)),
     nablas=[form((1, 1, 1)), form((1, 3, 1)), form((2, 1, 1)),
             form((2, 2, 1))],
     expected_h2_dim=4)

base("N4_20a", 4,
     tbl((1, 2, 3, 1), (1, 1, 4, "alpha"), (1, 3, 4, 1), (2, 2, 4, 1),
         (2, 3, 4, 1), (3, 2, 4, -1)),
     params=["alpha"],
     nablas=[form((1, 1, 1)), form((1, 3, 1)), form((2, 1, 1)),
             form((2, 2, 1))],
     expected_h2_dim=4)

# ---------------------------------------------------------------------------
# 3-dimensional two-generated bases (N3s_*)

base("N3s_01", 3, tbl((1, 1, 2, 1)),
     nablas=[form((1, 2, 1), (2, 1, 1)), form((1, 3, 1), (3, 1, 1)),
             form((2, 1, 1)), form((3, 1, 1)), form((3, 3, 1))],
     expected_h2_dim=5,
     aut_shape=[["x", "0", "0"], ["u", "x^2", "w"], ["z", "0", "y"]],
     aut_params=["x", "u", "w", "z", "y"],
     aut_det="x^3*y")

base("N3s_02", 3, tbl((1, 1, 3, 1), (2, 2, 3, 1)),
     nablas=[form((1, 2, 1)), form((2, 1, 1)), form((2, 2, 1))],
     expected_h2_dim=3)

base("N3s_03", 3, tbl((1, 2, 3, 1), (2, 1, 3, -1)),
     nablas=[form((1, 1, 1)), form((2, 1, 1)), form((2, 2, 1))],
     expected_h2_dim=3)

base("N3s_04l", 3,
     tbl((1, 1, 3, "lambda"), (2, 1, 3, 1), (2, 2, 3, 1)),
     params=["lambda"], param_exclusions=[nz("lambda")],
     nablas=[form((1, 2, 1)), form((2, 1, 1)), form((2, 2, 1))],
     expected_h2_dim=3)

base("N3s_04z", 3, tbl((1, 2, 3, 1)),
     nablas=[form((1, 1, 1)), form((1, 3, 1)), form((2, 1, 1)),
             form((2, 2, 1)), form((2, 3, 1), (3, 2, -1))],
     expected_h2_dim=5,
     aut_shape=[["x", "0", "0"], ["0", "y", "0"], ["z", "t", "x*y"]],
     aut_params=["x", "y", "z", "t"],
     aut_det="x^2*y^2",
     note="one two-dimensional orbit in this family's orbit list "
          "carries no label of its own; see extra_orbits")

BASES["N3s_04z"]["extra_orbits"] = [
    {"cocycle": [{"2": "1"}, {"1": "alpha", "3": "1", "4": "1"}],
     "params": ["alpha"],
     "covered_by": ["N_190 at alpha=1", "N_062 at (0,0) for alpha=0",
                    "N_064 at ((alpha-1)/alpha, 0) otherwise"]},
    {"cocycle": [{"2": "1"}, {"3": "1"}], "covered_by": ["N_089 at 0"]},
    {"cocycle": [{"2": "1", "4": "1"}, {"3": "1"}],
     "covered_by": ["N_090 at 0"]},
    {"cocycle": [{"1": "1", "5": "1"}, {"4": "1"}],
     "covered_by": ["N_114 at 0"]},
    {"cocycle": [{"2": "1", "4": "1"}, {"1": "1", "3": "1"}],
     "covered_by": [],
     "note": "listed orbit with no label token of its own in the "
             "printed enumeration"},
]

# ---------------------------------------------------------------------------
# entries

ENTRIES = []


def E(num, bkey, cocycle, params=(), excl=(), base_params=None,
      samples=None, equiv=None, arity=None, note=None):
    if isinstance(cocycle, dict):
        cocycle = [cocycle]
    cocycle = [{str(k): str(v) for k, v in comp.items()} for comp in cocycle]
    label = "N_%03d" % num
    display = "N_%d" % num
    if params:
        display += "^{%s}" % ",".join(params)
    ENTRIES.append({
        "label": label, "display": display, "base": bkey,
        "s": len(cocycle), "params": list(params),
        "exclusions": list(excl),
        "base_params": base_params or {},
        "cocycle": cocycle,
        "census_arity": len(params) if arity is None else arity,
        "samples": samples,
        "equivalences": equiv or [],
        "note": note,
    })


# --- extensions of M4_01
E(1, "M4_01", {3: 1, 4: 1, 7: 1})
E(2, "M4_01", {5: 1, 7: 1, 10: -2})
E(3, "M4_01", {2: 1, 6: 1, 7: 1, 10: 1})
E(4, "M4_01", {1: 1, 4: 1, 7: "alpha", 9: 1}, params=["alpha"])
E(5, "M4_01", {1: 1, 4: 1, 6: 1, 8: 1})
E(6, "M4_01", {1: 1, 5: 1, 8: 1})
E(7, "M4_01", {1: "alpha", 4: 1, 6: 1, 7: 1}, params=["alpha"])
E(8, "M4_01", {1: 1, 5: 1, 7: "alpha", 10: -2}, params=["alpha"])
E(9, "M4_01", {1: 1, 5: 1, 7: -2, 8: 1, 10: -2})
E(10, "M4_01", {1: "alpha", 4: "lambda", 6: 1, 7: 1, 10: 1},
  params=["alpha", "lambda"])
E(11, "M4_01", {1: "(-1+sqrt(1-4*lambda))/2", 4: "lambda", 6: 1, 7: 1,
                8: 1, 10: 1},
  params=["lambda"], samples=[["-2"], ["0"], ["-6"]])
E(12, "M4_01", {1: "(-1-sqrt(1-4*lambda))/2", 4: "lambda", 6: 1, 7: 1,
                8: 1, 10: 1},
  params=["lambda"], excl=[nz("1-4*lambda")],
  samples=[["-2"], ["0"], ["-6"]],
  equiv=["N_12 at lambda=1/4 equals N_11 at lambda=1/4"])

# --- extensions of M4_02
E(13, "M4_02", {2: 1, 3: 1, 4: 1})
E(14, "M4_02", {1: 1, 2: "alpha", 3: "-(1+alpha)", 5: 1, 6: 1},
  params=["alpha"])
E(15, "M4_02", {2: "alpha", 3: 1, 5: 1}, params=["alpha"])
E(16, "M4_02", {2: "alpha", 3: "beta", 5: 1, 6: 1},
  params=["alpha", "beta"], excl=[nz("beta+1+alpha")],
  equiv=["orbit of (alpha,beta) equals orbit of (beta,alpha)"])

# --- extensions of M4_04z
E(17, "M4_04z", {2: 1, 9: 1})
E(18, "M4_04z", {2: 1, 6: 1, 9: 1})
E(19, "M4_04z", {2: 1, 4: 1, 9: 1})
E(20, "M4_04z", {2: 1, 4: 1, 6: 1, 9: 1})
E(21, "M4_04z", {2: 1, 4: 1, 5: 1, 6: "alpha", 9: 1}, params=["alpha"])
E(22, "M4_04z", {2: 1, 5: 1, 6: "alpha", 9: 1}, params=["alpha"])
E(23, "M4_04z", {2: 1, 5: 1, 7: 1, 8: 1})
E(24, "M4_04z", {2: 1, 5: 1, 6: -1, 7: 1, 8: 1})
E(25, "M4_04z", {2: 1, 6: "alpha", 7: 1, 8: 1}, params=["alpha"])
E(26, "M4_04z", {2: 1, 4: 1, 8: 1})
E(27, "M4_04z", {2: 1, 5: 1, 6: -1, 8: 1})
E(28, "M4_04z", {2: 1, 6: "alpha", 8: 1}, params=["alpha"])
E(29, "M4_04z", {2: 1, 7: 1})
E(30, "M4_04z", {2: 1, 5: 1, 7: 1})
E(31, "M4_04z", {2: 1, 6: 1, 7: 1})
E(32, "M4_04z", {2: 1, 6: 1})
E(33, "M4_04z", {2: -1, 9: 1, 10: 1})
E(34, "M4_04z", {2: -1, 3: 1, 9: 1, 10: 1})
E(35, "M4_04z", {1: 1, 2: -1, 3: "alpha", 9: 1, 10: 1},
  params=["alpha"],
  equiv=["orbit of alpha equals orbit of -alpha"])
E(36, "M4_04z", {1: 1, 2: -1, 5: 1, 9: 1, 10: 1})
E(37, "M4_04z", {2: -1, 3: "alpha", 5: 1, 9: 1, 10: 1},
  params=["alpha"],
  equiv=["orbit of alpha equals orbit of -alpha"])
E(38, "M4_04z", {1: 1, 2: -1, 3: 1, 5: 1, 9: 1, 10: 1})
E(39, "M4_04z", {9: 1, 10: 1})
E(40, "M4_04z", {1: 1, 9: 1, 10: 1})
E(41, "M4_04z", {1: "alpha", 3: 1, 9: 1, 10: 1}, params=["alpha"])
E(42, "M4_04z", {1: "alpha", 3: "beta", 5: 1, 9: 1, 10: 1},
  params=["alpha", "beta"],
  equiv=["orbit of (alpha,beta) equals orbit of (alpha,-beta)"])
E(43, "M4_04z", {2: -1, 3: 1, 6: 1, 10: 1})
E(44, "M4_04z", {1: 1, 2: -1, 3: 1, 6: 1, 10: 1})
E(45, "M4_04z", {2: -1, 3: 1, 6: 1, 7: 1, 10: 1})
E(46, "M4_04z", {1: 1, 2: -1, 6: 1, 7: 1, 10: 1})
E(47, "M4_04z", {2: -1, 6: 1, 7: "alpha", 10: 1}, params=["alpha"])
E(48, "M4_04z", {1: 1, 3: "alpha", 6: 1, 7: "-alpha", 10: 1},
  params=["alpha"])
E(49, "M4_04z", {3: "alpha", 6: 1, 7: "beta", 10: 1},
  params=["alpha", "beta"])
E(50, "M4_04z", {1: 1, 2: -1, 3: -1, 7: 1, 10: 1})
E(51, "M4_04z", {2: -1, 3: "alpha", 7: 1, 10: 1}, params=["alpha"],
  arity=0,
  note="printed catalog label carries no parameter superscript even "
       "though the orbit family is parameterized; counted as rigid "
       "for the census")
E(52, "M4_04z", {1: 1, 2: -1, 3: -1, 5: 1, 7: 1, 10: 1})
E(53, "M4_04z", {2: -1, 3: "alpha", 5: 1, 7: 1, 10: 1}, params=["alpha"])
E(54, "M4_04z", {3: "alpha", 7: 1, 10: 1}, params=["alpha"])
E(55, "M4_04z", {3: "alpha", 5: 1, 7: 1, 10: 1}, params=["alpha"])
E(56, "M4_04z", {2: -1, 3: 1, 10: 1})
E(57, "M4_04z", {2: -1, 3: 1, 5: 1, 10: 1})
E(58, "M4_04z", {3: 1, 10: 1})
E(59, "M4_04z", {3: 1, 5: 1, 10: 1})

# --- extensions of M4_07
E(60, "M4_07", {1: 1, 3: -1, 4: "alpha", 5: 1, 6: "beta"},
  params=["alpha", "beta"], excl=[anynz("alpha", "beta")])
E(61, "M4_07", {3: "gamma", 4: "alpha", 5: 1, 6: "beta"},
  params=["alpha", "beta", "gamma"], excl=[anynz("alpha", "beta")])
E(62, "M4_07", {3: 1, 4: "alpha", 6: "beta"},
  params=["alpha", "beta"], excl=[anynz("alpha", "beta")])
E(63, "M4_07", {2: 1, 3: 1, 4: "alpha", 6: "alpha"},
  params=["alpha"], excl=[nz("alpha")])

# --- extensions of M4_08a (base parameter alpha != 1)
E(64, "M4_08a", {3: 1, 4: "beta"},
  params=["alpha", "beta"], excl=[nz("beta")],
  base_params={"alpha": "alpha"})
E(65, "M4_08a", {3: "beta", 4: "gamma", 5: 1, 6: "delta"},
  params=["alpha", "beta", "gamma", "delta"],
  base_params={"alpha": "alpha"}, arity=3,
  note="four printed parameter names; counted in the three-or-more "
       "census bucket")
E(66, "M4_08a", {1: 1, 3: "beta",
                 4: "beta*delta/((alpha-1)*beta+1)", 5: 1, 6: "delta"},
  params=["alpha", "beta", "delta"],
  excl=[nz("(alpha-1)*beta+1")],
  base_params={"alpha": "alpha"})
E(67, "M4_08a", {1: 1, 3: "1/(1-alpha)", 4: "beta", 5: 1},
  params=["alpha", "beta"], base_params={"alpha": "alpha"})
E(68, "M4_08a", {3: "beta", 4: "gamma", 6: 1},
  params=["beta", "gamma"], base_params={"alpha": "0"})
E(69, "M4_08a", {2: 1, 3: "beta", 4: -1, 6: 1},
  params=["beta"], base_params={"alpha": "0"})

# --- extensions of M4_08one
E(70, "M4_08one", {3: 1, 4: -1})
E(71, "M4_08one", {1: 1, 2: -1, 3: 1, 4: -1})
E(72, "M4_08one", {2: 1, 3: 1, 4: -1})
E(73, "M4_08one", {3: "beta", 4: "-beta", 5: 1, 6: 1, 7: -1},
  params=["beta"])
E(74, "M4_08one", {2: 1, 3: "beta", 4: "-beta", 5: 1, 6: 1, 7: -1},
  params=["beta"])
E(75, "M4_08one", {3: 1, 5: 1, 6: 1, 7: -1})
E(76, "M4_08one", {2: 1, 3: 1, 5: 1, 6: 1, 7: -1})
E(77, "M4_08one", {3: "beta", 4: 1, 5: 1}, params=["beta"])
E(78, "M4_08one", {2: 1, 3: "beta", 4: 1, 5: 1}, params=["beta"])
E(79, "M4_08one", {3: "beta", 5: -2, 7: 1}, params=["beta"])
E(80, "M4_08one", {2: 1, 3: "beta", 5: -2, 7: 1}, params=["beta"])
E(81, "M4_08one", {3: "beta", 4: 1, 5: -2, 7: 1}, params=["beta"])
E(82, "M4_08one", {2: 1, 3: "beta", 4: 1, 5: -2, 7: 1}, params=["beta"])
E(83, "M4_08one", {3: "beta", 4: "gamma", 7: 1}, params=["beta", "gamma"])
E(84, "M4_08one", {2: 1, 3: "beta", 4: "gamma", 7: 1},
  params=["beta", "gamma"])

# --- extensions of M4_12
E(85, "M4_12", {3: 1, 5: 1})
E(86, "M4_12", {1: 1, 3: 1, 5: 1})
E(87, "M4_12", {1: "alpha", 3: 1, 4: 1, 5: 1}, params=["alpha"],
  equiv=["orbit of alpha equals orbit of 1/alpha"])
E(88, "M4_12", {2: 1, 3: "alpha", 5: "beta", 6: 1},
  params=["alpha", "beta"],
  equiv=["orbit of (alpha,beta) equals orbit of (beta,alpha)"])
E(89, "M4_12", {5: "alpha", 6: 1}, params=["alpha"], excl=[nz("alpha")])
E(90, "M4_12", {1: 1, 5: "alpha", 6: 1}, params=["alpha"],
  excl=[nz("alpha")])
E(91, "M4_12", {3: 1, 5: "alpha", 6: 1}, params=["alpha"],
  excl=[nz("alpha")])
E(92, "M4_12", {1: 1, 3: 1, 5: "alpha", 6: 1}, params=["alpha"],
  excl=[nz("alpha")])

# --- extensions of M4_13
E(93, "M4_13", {4: 1})
E(94, "M4_13", {3: 1, 4: "alpha"}, params=["alpha"],
  equiv=["orbit of alpha equals orbit of 1/alpha"])
E(95, "M4_13", {1: 1, 3: 1, 4: -1})
E(96, "M4_13", {1: 1, 3: "2+alpha", 4: -1, 5: 1, 6: "alpha"},
  params=["alpha"],
  equiv=["orbit of alpha equals orbit of 1/(2+alpha)"])
E(97, "M4_13", {2: 1, 3: -2, 4: -1, 5: 1, 6: -2})
E(98, "M4_13", {3: "alpha", 4: "beta", 5: 1, 6: "gamma"},
  params=["alpha", "beta", "gamma"],
  equiv=["orbit of (alpha,beta,gamma) equals orbit of "
         "((2+beta)/(2+gamma), (alpha-2*(2+gamma))/(2+gamma), "
         "-(3+2*gamma)/(2+gamma))"])
E(99, "M4_13",
  {2: 1, 3: "beta-alpha+sqrt(-2*alpha*beta-2*alpha-2*beta-1)",
   4: "alpha", 5: 1, 6: "beta"},
  params=["alpha", "beta"], excl=[nz("alpha+1")],
  samples=[["0", "-5"], ["-5", "0"], ["-3", "1"]])
E(100, "M4_13",
  {2: 1, 3: "beta-alpha-sqrt(-2*alpha*beta-2*alpha-2*beta-1)",
   4: "alpha", 5: 1, 6: "beta"},
  params=["alpha", "beta"],
  excl=[nz("alpha+1"), nz("alpha*(2+2*beta)+1+2*beta")],
  samples=[["2", "-1"], ["-5", "0"], ["-3", "1"]])

# --- extensions of M4_14z (base at parameter value 0, with extra class)
E(101, "M4_14z", {3: 1, 4: "beta", 6: "gamma", 7: 1},
  params=["beta", "gamma"],
  equiv=["orbit of (beta,gamma) equals orbit of (-beta,-gamma)"])
E(102, "M4_14z", {2: 1, 5: 1, 6: "beta", 7: 1}, params=["beta"],
  equiv=["orbit of beta equals orbit of -beta"])
E(103, "M4_14z", {5: 1, 6: "beta", 7: 1}, params=["beta"],
  equiv=["orbit of beta equals orbit of -beta"])

# --- extensions of M4_14a (entries pin or share the base parameter)
E(104, "M4_14a", {1: 1, 3: 1, 4: 1, 6: 1}, base_params={"alpha": "1"})
E(105, "M4_14a", {1: 1, 2: 1, 4: 1, 6: 1}, base_params={"alpha": "-1"})
E(106, "M4_14a", {3: 1, 4: 1, 5: "beta"}, params=["beta"],
  base_params={"alpha": "-2"})
E(107, "M4_14a", {1: 1, 3: "beta", 4: "1/2", 5: 1, 6: 1},
  params=["beta"], base_params={"alpha": "-1/2"})
E(108, "M4_14a", {3: "beta", 4: "1/2", 5: 1, 6: 1},
  params=["beta"], excl=[nz("beta")], base_params={"alpha": "-1/2"})
E(109, "M4_14a", {2: 1, 4: 1, 5: 1, 6: 1}, base_params={"alpha": "-1/2"})
E(110, "M4_14a", {4: "beta", 5: 1, 6: 1}, params=["beta"],
  base_params={"alpha": "-1/2"})
E(111, "M4_14a", {2: 1, 3: 1, 4: 1, 6: 1}, params=["alpha"],
  excl=[nz("2*alpha+1")], base_params={"alpha": "alpha"},
  equiv=["N_111 at alpha=-1/2 equals N_112 at alpha=-1/2"])
E(112, "M4_14a", {2: 1, 4: 1, 6: 1}, params=["alpha"],
  base_params={"alpha": "alpha"})
E(113, "M4_14a", {1: 1, 3: 1, 4: "-alpha", 6: 1}, params=["alpha"],
  base_params={"alpha": "alpha"})
E(114, "M4_14a", {1: 1, 4: "-alpha", 6: 1}, params=["alpha"],
  base_params={"alpha": "alpha"})
E(115, "M4_14a", {3: 1, 4: "beta", 6: 1}, params=["alpha", "beta"],
  base_params={"alpha": "alpha"})
E(116, "M4_14a", {4: "beta", 6: 1}, params=["alpha", "beta"],
  base_params={"alpha": "alpha"})
E(117, "M4_14a", {4: 1, 5: 1}, params=["alpha"],
  base_params={"alpha": "alpha"})
E(118, "M4_14a", {4: 1}, params=["alpha"], base_params={"alpha": "alpha"})

# --- extensions of N4_01
E(119, "N4_01", {2: 1, 5: 1})
E(120, "N4_01", {2: 1, 4: 1})

# --- extensions of N4_02l
E(121, "N4_02l", {3: 1, 4: 1}, base_params={"lambda": "0"})
E(122, "N4_02l", {2: 1, 3: 1}, base_params={"lambda": "0"})
E(123, "N4_02l", {2: 1, 3: 1, 4: 1}, base_params={"lambda": "0"})
E(124, "N4_02l", {2: 1, 3: 1, 5: 1}, base_params={"lambda": "0"})
E(125, "N4_02l", {3: 1, 5: 1}, params=["lambda"],
  base_params={"lambda": "lambda"},
  note="at the excluded value 1 the specialization is "
       "commutative-associative (checked against the base record at 1)")
E(126, "N4_02l", {1: 1, 3: 1}, params=["lambda"],
  excl=[nz("lambda")], base_params={"lambda": "lambda"},
  note="at the excluded value 1 the specialization is "
       "commutative-associative; at 0 it is split")

# --- extensions of N4_02one
E(127, "N4_02one", {2: 1, 3: 1, 4: 1})
E(128, "N4_02one", {3: 1, 4: 1})
E(129, "N4_02one", {3: 1, 4: 1, 5: 1})
E(130, "N4_02one", {2: 1, 3: 1, 4: 1, 5: "alpha"}, params=["alpha"])

# --- extensions of N4_06a
E(131, "N4_06a", {4: 1, 5: "beta"}, params=["alpha", "beta"],
  base_params={"alpha": "alpha"})
E(132, "N4_06a", {1: 1, 4: 1, 5: "1/(alpha-1)^2"}, params=["alpha"],
  excl=[nz("alpha-1")], base_params={"alpha": "alpha"})

# --- extensions of N4_08
E(133, "N4_08", {3: 1, 5: 1},
  note="the printed label list for this base repeats the parameter "
       "superscripts of the previous base's entries; the orbits "
       "themselves fix the arities used here")
E(134, "N4_08", {4: "alpha", 5: 1}, params=["alpha"], excl=[nz("alpha")])

# --- extensions of N4_09
E(135, "N4_09", {2: "alpha", 3: 1, 4: 2, 5: 1}, params=["alpha"])
E(136, "N4_09", {4: "alpha", 5: 1}, params=["alpha"])
E(137, "N4_09", {2: 1, 4: "alpha", 5: 1}, params=["alpha"])

# --- extensions of N4_10
E(138, "N4_10", {2: 1})
E(139, "N4_10", {2: 1, 4: 1})
E(140, "N4_10", {2: 1, 3: 1})
E(141, "N4_10", {2: 1, 3: 1, 4: 1})
E(142, "N4_10", {2: 1, 5: 1})
E(143, "N4_10", {2: 1, 4: 1, 5: 1})
E(144, "N4_10", {2: 1, 3: 1, 4: "alpha", 5: 1}, params=["alpha"])

# --- extensions of N4_16
E(145, "N4_16", {4: 1, 5: "alpha"}, params=["alpha"])
E(146, "N4_16", {2: 1, 4: 1, 5: "alpha"}, params=["alpha"])
E(147, "N4_16", {2: "alpha", 3: 1, 4: 1, 5: "beta"},
  params=["alpha", "beta"])

# --- two-dimensional extensions of N3s_01
E(148, "N3s_01", [{1: "alpha", 3: 1}, {5: 1}], params=["alpha"])
E(149, "N3s_01", [{1: "alpha", 3: 1}, {1: 1, 5: 1}], params=["alpha"])
E(150, "N3s_01", [{1: "alpha", 3: 1}, {4: 1, 5: 1}], params=["alpha"])
E(151, "N3s_01", [{1: "alpha", 3: 1}, {1: 1, 4: 1, 5: 1}],
  params=["alpha"])
E(152, "N3s_01", [{1: "alpha", 2: 1, 3: 1}, {5: 1}], params=["alpha"])
E(153, "N3s_01", [{1: "alpha", 2: 1, 3: 1}, {1: 1, 5: 1}],
  params=["alpha"])
E(154, "N3s_01", [{1: "alpha", 2: 1, 3: 1}, {1: "beta", 4: 1, 5: 1}],
  params=["alpha", "beta"])
E(155, "N3s_01", [{1: "alpha", 3: 1}, {2: "beta", 4: 1}],
  params=["alpha", "beta"])
E(156, "N3s_01", [{1: "alpha", 2: 1, 3: 1}, {2: "alpha", 4: 1}],
  params=["alpha"])
E(157, "N3s_01", [{1: "alpha", 3: 1}, {1: 1, 2: "beta", 4: 1}],
  params=["alpha", "beta"])
E(158, "N3s_01", [{1: "alpha", 3: 1, 5: 1}, {2: "beta", 4: 1}],
  params=["alpha", "beta"])
E(159, "N3s_01", [{1: "alpha", 3: 1, 5: 1}, {1: 1, 4: 1}],
  params=["alpha"])
E(160, "N3s_01", [{1: 1}, {3: 1, 4: 1}])
E(161, "N3s_01", [{1: 1}, {2: 1, 3: 1, 4: "alpha"}], params=["alpha"])
E(162, "N3s_01", [{1: 1}, {3: 1, 5: 1}])
E(163, "N3s_01", [{1: 1, 2: 1}, {3: 1, 5: 1}])
E(164, "N3s_01", [{1: "alpha", 3: 1}, {2: 1}], params=["alpha"])
E(165, "N3s_01", [{1: "alpha", 3: 1, 5: 1}, {2: 1}], params=["alpha"])
E(166, "N3s_01", [{1: 1, 4: 1}, {5: 1}])
E(167, "N3s_01", [{1: 1, 5: 1}, {2: "alpha", 4: 1}], params=["alpha"])
E(168, "N3s_01", [{1: 1, 4: 1}, {1: 1, 5: 1}])
E(169, "N3s_01", [{1: 1}, {2: "alpha", 4: 1}], params=["alpha"])
E(170, "N3s_01", [{1: 1}, {4: 1, 5: 1}])
E(171, "N3s_01", [{1: 1, 4: 1}, {2: 1}])
E(172, "N3s_01", [{1: 1, 4: 1, 5: 1}, {2: 1}])

# --- two-dimensional extensions of N3s_04z
E(173, "N3s_04z", [{2: 1}, {5: 1}])
E(174, "N3s_04z", [{2: 1}, {1: 1, 5: 1}])
E(175, "N3s_04z", [{2: 1}, {4: 1, 5: 1}])
E(176, "N3s_04z", [{2: 1}, {1: 1, 4: 1, 5: 1}])
E(177, "N3s_04z", [{2: 1, 4: 1}, {5: 1}])
E(178, "N3s_04z", [{2: 1, 4: 1}, {1: 1, 5: 1}])
E(179, "N3s_04z", [{2: 1, 4: 1}, {1: "alpha", 4: 1, 5: 1}],
  params=["alpha"])
E(180, "N3s_04z", [{2: 1, 3: 1}, {4: "alpha", 5: 1}], params=["alpha"])
E(181, "N3s_04z", [{2: 1, 3: 1}, {1: 1, 4: "alpha", 5: 1}],
  params=["alpha"])
E(182, "N3s_04z", [{2: 1, 3: 1, 4: 1}, {1: "alpha", 4: "beta", 5: 1}],
  params=["alpha", "beta"])
E(183, "N3s_04z", [{1: 1, 2: 1}, {5: 1}])
E(184, "N3s_04z", [{1: 1, 2: 1}, {4: 1, 5: 1}])
E(185, "N3s_04z", [{1: 1, 2: 1}, {1: 1, 4: "alpha", 5: 1}],
  params=["alpha"])
E(186, "N3s_04z", [{1: 1, 2: 1, 4: 1}, {1: "alpha", 4: "beta", 5: 1}],
  params=["alpha", "beta"])
E(187, "N3s_04z", [{1: 1, 2: 1, 3: 1, 4: "alpha"},
                   {1: "beta", 4: "gamma", 5: 1}],
  params=["alpha", "beta", "gamma"])
E(188, "N3s_04z", [{2: 1}, {4: 1}])
E(189, "N3s_04z", [{2: 1}, {1: 1, 4: 1}])
E(190, "N3s_04z", [{2: 1}, {1: 1, 3: 1, 4: 1}])
E(191, "N3s_04z", [{2: 1, 5: 1}, {1: "alpha", 3: "beta", 4: 1}],
  params=["alpha", "beta"])
E(192, "N3s_04z", [{2: 1, 3: 1}, {4: 1}])
E(193, "N3s_04z", [{2: 1, 3: 1}, {1: 1, 4: 1}])
E(194, "N3s_04z", [{2: 1, 3: 1}, {1: "alpha", 3: 1, 4: 1}],
  params=["alpha"])
E(195, "N3s_04z", [{2: 1, 3: 1, 5: 1}, {1: "alpha", 3: "beta", 4: 1}],
  params=["alpha", "beta"])
E(196, "N3s_04z", [{2: 1}, {1: 1, 3: 1}],
  note="one neighbouring listed orbit carries no label token; the "
       "positional assignment here is recorded in the base's "
       "extra_orbits")
E(197, "N3s_04z", [{2: 1, 5: 1}, {1: "alpha", 3: 1}], params=["alpha"])
E(198, "N3s_04z", [{2: 1, 4: 1, 5: 1}, {1: "alpha", 3: 1}],
  params=["alpha"])
E(199, "N3s_04z", [{2: 1, 3: 1, 4: "alpha", 5: 1}, {1: 1, 3: 1}],
  params=["alpha"])
E(200, "N3s_04z", [{2: 1}, {1: 1}])
E(201, "N3s_04z", [{2: 1, 3: 1}, {1: 1}])
E(202, "N3s_04z", [{2: 1, 4: 1}, {1: 1}])
E(203, "N3s_04z", [{2: 1, 3: 1, 4: 1}, {1: 1}])
E(204, "N3s_04z", [{2: 1, 5: 1}, {1: 1}])
E(205, "N3s_04z", [{2: 1, 4: 1, 5: 1}, {1: 1}])
E(206, "N3s_04z", [{5: 1}, {4: 1}])
E(207, "N3s_04z", [{5: 1}, {1: 1, 4: 1}])
E(208, "N3s_04z", [{5: 1}, {1: "alpha", 3: 1, 4: 1}], params=["alpha"])
E(209, "N3s_04z", [{1: 1, 5: 1}, {1: 1, 4: 1}])
E(210, "N3s_04z", [{1: 1, 5: 1}, {1: "alpha", 3: 1, 4: 1}],
  params=["alpha"])
E(211, "N3s_04z", [{5: 1}, {3: 1}])
E(212, "N3s_04z", [{1: 1, 5: 1}, {3: 1}])
E(213, "N3s_04z", [{5: 1}, {1: 1, 3: 1}])
E(214, "N3s_04z", [{4: 1, 5: 1}, {3: 1}])
E(215, "N3s_04z", [{1: 1, 4: 1, 5: 1}, {3: 1}])
E(216, "N3s_04z", [{4: 1, 5: 1}, {1: 1, 3: 1}])
E(217, "N3s_04z", [{5: 1}, {1: 1}])
E(218, "N3s_04z", [{4: 1, 5: 1}, {1: 1}])


# ---------------------------------------------------------------------------

NOTED_ISOMORPHISMS = [
    {"left": ["N_012", {"lambda": "1/4"}],
     "right": ["N_011", {"lambda": "1/4"}]},
    {"left": ["N_016", {"alpha": "2", "beta": "3"}],
     "right": ["N_016", {"alpha": "3", "beta": "2"}]},
    {"left": ["N_087", {"alpha": "2"}],
     "right": ["N_087", {"alpha": "1/2"}]},
    {"left": ["N_088", {"alpha": "2", "beta": "3"}],
     "right": ["N_088", {"alpha": "3", "beta": "2"}]},
    {"left": ["N_094", {"alpha": "2"}],
     "right": ["N_094", {"alpha": "1/2"}]},
]

FLAGGED_SPECIALIZATIONS = [
    # label, base record carrying the specialized generator numbering,
    # cocycle in that record's numbering, predicate expected to fail
    {"name": "N_125 at 1", "base": "N4_02one",
     "cocycle": [{"3": "1", "5": "1"}], "fails": "noncommutative"},
    {"name": "N_126 at 1", "base": "N4_02one",
     "cocycle": [{"1": "1", "3": "1"}], "fails": "noncommutative"},
    {"name": "N_126 at 0", "base": "N4_02l",
     "base_params": {"lambda": "0"},
     "cocycle": [{"1": "1", "3": "1"}], "fails": "nonsplit"},
]

CENSUS = {"total": 218, "histogram": [104, 82, 27, 5]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=OUT,
                    help="directory to write the data files into "
                         "(default: the package's data directory)")
    out = ap.parse_args().out
    hist = [0, 0, 0, 0]
    labels = set()
    for e in ENTRIES:
        assert e["label"] not in labels, e["label"]
        labels.add(e["label"])
        assert e["base"] in BASES, e["base"]
        hist[min(e["census_arity"], 3)] += 1
        nab = BASES[e["base"]]["nablas"]
        assert nab is not None, e["base"]
        for comp in e["cocycle"]:
            for k in comp:
                assert 1 <= int(k) <= len(nab), (e["label"], k)
        bps = set(e["base_params"])
        assert bps == set(BASES[e["base"]]["params"]), e["label"] + \
            " base params " + str(bps)
    assert len(ENTRIES) == CENSUS["total"], len(ENTRIES)
    assert hist == CENSUS["histogram"], hist

    bdir = os.path.join(out, "bases")
    edir = os.path.join(out, "entries")
    os.makedirs(bdir, exist_ok=True)
    os.makedirs(edir, exist_ok=True)
    for key, b in BASES.items():
        with open(os.path.join(bdir, key + ".json"), "w") as fh:
            json.dump(b, fh, indent=1, sort_keys=True)
            fh.write("\n")
    for e in ENTRIES:
        with open(os.path.join(edir, e["label"] + ".json"), "w") as fh:
            json.dump(e, fh, indent=1, sort_keys=True)
            fh.write("\n")
    with open(os.path.join(out, "meta.json"), "w") as fh:
        json.dump({"census": CENSUS,
                   "noted_isomorphisms": NOTED_ISOMORPHISMS,
                   "flagged_specializations": FLAGGED_SPECIALIZATIONS},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(BASES)} bases, {len(ENTRIES)} entries")


if __name__ == "__main__":
    sys.exit(main())
