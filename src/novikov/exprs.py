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

import operator
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
        self._ast = _Parser(tokenize(text)).parse()

    def evaluate(self, field: Field, env=None) -> FieldElement:
        return _evaluate(self._ast, field, env or {}, self.text)

    def __repr__(self):
        return f"Expr({self.text!r})"


# Recursion runs through a parser object and a module function, never
# through a nested closure that refers to itself, so parsing and
# evaluating leave no reference cycles for the garbage collector.

_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
           "div": operator.truediv}


def _evaluate(node, field, env, text):
    kind = node[0]
    if kind == "int":
        return field(node[1])
    if kind == "var":
        if node[1] not in env:
            raise ExprError(f"unbound parameter {node[1]!r} in {text!r}")
        return field(env[node[1]])
    if kind in _BINARY:
        return _BINARY[kind](_evaluate(node[1], field, env, text),
                             _evaluate(node[2], field, env, text))
    if kind == "neg":
        return -_evaluate(node[1], field, env, text)
    if kind == "pow":
        base = _evaluate(node[1], field, env, text)
        out = field.one()
        for _ in range(node[2]):
            out = out * base
        return out
    if kind == "sqrt":
        arg = _evaluate(node[1], field, env, text)
        root = field.try_sqrt(arg)
        if root is None:
            raise SqrtNotInField(f"sqrt({arg!r}) does not exist in {field!r}")
        return root
    raise ExprError(f"bad node {node!r}")


class _Parser:
    """Recursive descent over a token list (grammar in the module
    docstring)."""

    def __init__(self, tokens):
        self.tokens, self.pos = tokens, 0

    def parse(self):
        root = self.expr()
        if self.pos != len(self.tokens):
            raise ExprError(f"trailing tokens: {self.tokens[self.pos:]}")
        return root

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ExprError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def atom(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if tok == "sqrt":
            self.take()
            self.take("(")
            node = self.expr()
            self.take(")")
            return ("sqrt", node)
        if tok is not None and tok.isdigit():
            self.take()
            return ("int", int(tok))
        if tok is not None and re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            self.take()
            return ("var", tok)
        raise ExprError(f"unexpected token {tok!r}")

    def factor(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.factor())
        node = self.atom()
        if self.peek() == "^":
            self.take()
            exp = self.take()
            if not exp.isdigit():
                raise ExprError("integer exponent required")
            node = ("pow", node, int(exp))
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            node = ("mul" if op == "*" else "div", node, self.factor())
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = ("add" if op == "+" else "sub", node, self.term())
        return node
