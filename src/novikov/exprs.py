"""Tiny expression grammar for parameterized coefficients.

Grammar (recursive descent):
    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' INT)?
    atom   := INT | NAME | '(' expr ')' | 'sqrt' '(' expr ')'

Evaluation happens in a chosen field with an environment mapping
parameter names to field elements.  sqrt uses the field's try_sqrt and
fails loudly when no square root exists in the field.
"""

from __future__ import annotations

import re

from .fields import Field, FieldElement


class ExprError(Exception):
    pass


class SqrtNotInField(ExprError):
    pass


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*|/|\+|-|\^|\(|\))")


def tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExprError(f"bad character at {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class Expr:
    """A parsed expression; evaluate with a field and an environment."""

    def __init__(self, text: str):
        self.text = text
        self._ast = _parse(tokenize(text))

    def evaluate(self, field: Field, env=None) -> FieldElement:
        env = env or {}

        def ev(node):
            kind = node[0]
            if kind == "int":
                return field(node[1])
            if kind == "var":
                if node[1] not in env:
                    raise ExprError(f"unbound parameter {node[1]!r} "
                                    f"in {self.text!r}")
                return field(env[node[1]])
            if kind == "add":
                return ev(node[1]) + ev(node[2])
            if kind == "sub":
                return ev(node[1]) - ev(node[2])
            if kind == "mul":
                return ev(node[1]) * ev(node[2])
            if kind == "div":
                return ev(node[1]) / ev(node[2])
            if kind == "neg":
                return -ev(node[1])
            if kind == "pow":
                base = ev(node[1])
                out = field.one()
                for _ in range(node[2]):
                    out = out * base
                return out
            if kind == "sqrt":
                arg = ev(node[1])
                root = field.try_sqrt(arg)
                if root is None:
                    raise SqrtNotInField(
                        f"sqrt({arg!r}) does not exist in {field!r}")
                return root
            raise ExprError(f"bad node {node!r}")

        return ev(self._ast)

    def __repr__(self):
        return f"Expr({self.text!r})"


def _parse(tokens):
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ExprError(f"expected {expected!r}, got {tok!r}")
        pos[0] += 1
        return tok

    def atom():
        tok = peek()
        if tok == "(":
            take()
            node = expr()
            take(")")
            return node
        if tok == "sqrt":
            take()
            take("(")
            node = expr()
            take(")")
            return ("sqrt", node)
        if tok is not None and tok.isdigit():
            take()
            return ("int", int(tok))
        if tok is not None and re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            take()
            return ("var", tok)
        raise ExprError(f"unexpected token {tok!r}")

    def factor():
        if peek() == "-":
            take()
            return ("neg", factor())
        node = atom()
        if peek() == "^":
            take()
            exp = take()
            if not exp.isdigit():
                raise ExprError("integer exponent required")
            node = ("pow", node, int(exp))
        return node

    def term():
        node = factor()
        while peek() in ("*", "/"):
            op = take()
            node = ("mul" if op == "*" else "div", node, factor())
        return node

    def expr():
        node = term()
        while peek() in ("+", "-"):
            op = take()
            node = ("add" if op == "+" else "sub", node, term())
        return node

    root = expr()
    if pos[0] != len(tokens):
        raise ExprError(f"trailing tokens: {tokens[pos[0]:]}")
    return root


def evaluate(text: str, field: Field, env=None) -> FieldElement:
    return Expr(text).evaluate(field, env)
