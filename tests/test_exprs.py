"""Expression grammar: parsing, precedence, evaluation, failure modes."""

import gc
from fractions import Fraction

import pytest

from novikov.exprs import Expr, ExprError, SqrtNotInField, tokenize
from novikov.fields import QQ, DivisionByZero, PrimeField, QuadraticField

F7 = PrimeField(7)


@pytest.mark.parametrize("text,expected", [
    ("2+3*4", Fraction(14)),
    ("(2+3)*4", Fraction(20)),
    ("2*3^2", Fraction(18)),
    ("-2^2", Fraction(-4)),          # unary minus binds outside the power
    ("1/2+1/3", Fraction(5, 6)),
    ("2-3-4", Fraction(-5)),         # left associative
    ("12/3/2", Fraction(2)),
    ("--3", Fraction(3)),
    ("sqrt(9/4)", Fraction(3, 2)),
    ("sqrt(4)*sqrt(9)", Fraction(6)),
])
def test_rational_evaluation(text, expected):
    assert Expr(text).evaluate(QQ) == QQ(expected)


def test_variables_and_environment():
    e = Expr("a*b^2 - c/2")
    env = {"a": QQ(3), "b": QQ(-2), "c": QQ(5)}
    assert e.evaluate(QQ, env) == QQ(Fraction(19, 2))
    with pytest.raises(ExprError):
        e.evaluate(QQ, {"a": QQ(1), "b": QQ(1)})


def test_prime_field_evaluation():
    assert Expr("1/2").evaluate(F7) == F7(4)
    assert Expr("x^3+1").evaluate(F7, {"x": F7(2)}) == F7(2)
    with pytest.raises(DivisionByZero):
        Expr("1/x").evaluate(F7, {"x": F7(0)})


def test_sqrt_behavior():
    qs2 = QuadraticField(2)
    assert Expr("sqrt(2)").evaluate(qs2) == qs2("0+1*sqrt(2)")
    assert Expr("sqrt(8)").evaluate(qs2) == qs2(2) * qs2("0+1*sqrt(2)")
    with pytest.raises(SqrtNotInField):
        Expr("sqrt(2)").evaluate(QQ)
    with pytest.raises(SqrtNotInField):
        Expr("sqrt(3)").evaluate(F7)
    assert Expr("sqrt(2)").evaluate(F7) == F7(3)


@pytest.mark.parametrize("bad", [
    "2++", "2 3", "(1+2", "a$b", "", "2^x", "^2", "1..2",
])
def test_parse_errors(bad):
    with pytest.raises(ExprError):
        Expr(bad)


def test_tokenizer():
    assert tokenize("a1*(b_2 - 3)^2") == \
        ["a1", "*", "(", "b_2", "-", "3", ")", "^", "2"]
    with pytest.raises(ExprError):
        tokenize("1 @ 2")


def test_parse_and_evaluate_leave_no_reference_cycles():
    F5 = PrimeField(5)
    texts = ["(2-alpha)/alpha", "-alpha^2+3*b", "sqrt(4)*a-1/2"]
    env = {"alpha": 3, "a": 2, "b": 7}

    def run(n):
        for t in range(n):
            for field in (QQ, F5):
                Expr(texts[t % len(texts)]).evaluate(field, env)

    run(3)                                   # warm-up: compiled patterns
    gc.collect()
    gc.disable()
    try:
        run(50)                              # 100 parses and evaluations
        assert gc.collect() == 0
    finally:
        gc.enable()
