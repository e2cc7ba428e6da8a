"""Field arithmetic: axioms, canonical forms, parsing, square roots."""

import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from novikov.fields import (QQ, DivisionByZero, FieldMismatch,
                            GaussianRationalField, PrimeField,
                            QuadraticField, RationalField, field_from_tag)

QI = GaussianRationalField()
QS2 = QuadraticField(2)
QS3 = QuadraticField(3)
F7 = PrimeField(7)

FIELDS = [QQ, QI, QS2, F7]

rationals = st.builds(Fraction,
                      st.integers(min_value=-50, max_value=50),
                      st.integers(min_value=1, max_value=9))


def _elem(field, q1, q2):
    if isinstance(field, RationalField):
        return field(q1)
    if isinstance(field, (GaussianRationalField, QuadraticField)):
        return field(q1) + field(q2) * field("0+1*i" if isinstance(
            field, GaussianRationalField) else f"0+1*sqrt({field.d})")
    return field.from_rational(Fraction(q1.numerator % 7))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(a=rationals, b=rationals, c=rationals, d=rationals)
def test_field_axioms(field, a, b, c, d):
    x, y, z = _elem(field, a, b), _elem(field, c, d), _elem(field, a + c, b)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + field.zero() == x
    assert x * field.one() == x
    assert x + (-x) == field.zero()
    if y:
        assert y * (field.one() / y) == field.one()
        assert (x / y) * y == x


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(a=rationals, b=rationals)
def test_parse_format_roundtrip(field, a, b):
    x = _elem(field, a, b)
    assert field.parse(repr(x)) == x


def _from_pair(field, gen, a, b):
    return field(f"{a}+{b}*{gen}")


@pytest.mark.parametrize("field, gen", [(QI, "i"), (QS2, "sqrt(2)"),
                                        (QS3, "sqrt(3)")], ids=repr)
@settings(max_examples=40, deadline=None)
@given(a=rationals, b=rationals, c=rationals, d=rationals)
def test_quadratic_arithmetic_matches_a_reference(field, gen, a, b, c, d):
    # an oracle on Fraction pairs: (a + b g)(c + d g) = (ac + bd g^2) +
    # (ad + bc) g, and 1/(a + b g) = (a - b g) / (a^2 - b^2 g^2)
    g2 = field.d
    x, y = _from_pair(field, gen, a, b), _from_pair(field, gen, c, d)
    assert x + y == _from_pair(field, gen, a + c, b + d)
    assert x - y == _from_pair(field, gen, a - c, b - d)
    assert -x == _from_pair(field, gen, -a, -b)
    assert x * y == _from_pair(field, gen, a * c + b * d * g2, a * d + b * c)
    norm = c * c - d * d * g2
    if c or d:
        inv = _from_pair(field, gen, c / norm, -d / norm)
        assert field.one() / y == inv
        assert x / y == x * inv
    else:
        with pytest.raises(DivisionByZero,
                           match=re.escape(f"1/0 in {field!r}")):
            x / y


@pytest.mark.parametrize("field", FIELDS + [QS3], ids=repr)
@settings(max_examples=40, deadline=None)
@given(a=rationals, b=rationals, c=rationals)
def test_raw_view_matches_field_arithmetic(field, a, b, c):
    # elimination, combine and the matrix products run on raw scalars:
    # sum() starts at int 0, null spaces negate, coefficients scale rows,
    # and pivots are inverted by Field.inverse (1 / r off F_p)
    x, k = _elem(field, a, b), field(c.numerator)
    raw, wrap, p = field.raw, field.wrap, field.modulus
    r, rk = raw(x), raw(k)
    assert wrap(r) == x and raw(wrap(r)) == r
    assert bool(r) == bool(x)
    assert wrap(0 + r) == wrap(r + 0) == wrap(sum([r, r])) - x == x
    assert wrap(-1 * r) == wrap(-r) == -x
    assert wrap(r * rk) == wrap(rk * r) == x * k
    assert wrap(r * c.numerator) == x * c.numerator
    assert wrap(r - rk) == x - k and wrap(rk - r) == k - x
    assert wrap(c.numerator - r) == k - x
    # raw values and elements mix, either side, through Field.__call__
    assert r == x and x == r and x + r == wrap(r + r) == r + x
    assert hash(raw(field(repr(x)))) == hash(r)
    assert {r: 1}[raw(wrap(r))] == 1
    if p is None:
        # a rational raw value equals, and hashes like, that rational
        q = raw(field(a))
        assert q == a and a == q and hash(q) == hash(a)
    if x:
        assert wrap(field.inverse(r)) == field.one() / x
        assert wrap(r * field.inverse(r)) == field.one()
        if p is None:
            assert wrap(1 / r) == field.one() / x
            assert wrap(r / r) == field.one()
    zero = raw(field.zero())
    for divide in (lambda: field.inverse(zero), lambda: x / field.zero(),
                   lambda: field.one() / 0, lambda: 1 / field.zero()):
        with pytest.raises(DivisionByZero,
                           match=re.escape(f"1/0 in {field!r}")):
            divide()
    assert (p is None) == (not isinstance(field, PrimeField))


def test_elements_hash_like_the_numbers_they_equal():
    half = Fraction(1, 2)
    assert 1 in {QQ(1)} and QQ(1) in {1} and {QQ(1): "a"}[1] == "a"
    assert half in {QQ(half)} and QQ(half) in {half}
    assert QI(1) in {1} and QS2(half) in {half}
    # over F_p the residue in [0, p) that the element is
    assert F7(3) in {3} and 3 in {F7(10)} and hash(F7(-1)) == hash(6)
    # equal elements of one field hash equal; other fields' never equal
    assert len({QQ(1), QQ(Fraction(2, 2)), QI(1), F7(1)}) == 3
    assert QQ(1) != F7(1) and QQ(1) != QI(1)


def test_equality_with_a_rational_outside_f_p_is_false():
    # 1/5 is no element of F_5: == used to raise DivisionByZero
    F5 = PrimeField(5)
    assert not F5(1) == Fraction(1, 5)
    assert F5(1) != Fraction(1, 5)
    assert Fraction(1, 5) != F5(1)
    assert Fraction(1, 5) not in [F5(1)]
    assert F5(1) != QQ(1) and F5(1) != "1 mod 7" and F5(1) != "x"
    assert F5(1) != "1/0" and QQ(1) != "1/0"
    with pytest.raises(DivisionByZero):
        F5(1) + Fraction(1, 5)


def test_floats_do_not_coerce():
    # a float would enter exact arithmetic as its binary expansion
    for field in FIELDS:
        with pytest.raises(TypeError):
            field(0.1)
        with pytest.raises(TypeError):
            field.one() + 0.1
        assert field.one() != 1.0


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=30, deadline=None)
@given(a=rationals, b=rationals)
def test_sqrt_of_square(field, a, b):
    x = _elem(field, a, b)
    r = field.try_sqrt(x * x)
    assert r is not None
    assert r * r == x * x


def test_sqrt_nonsquares():
    assert QQ.try_sqrt(QQ(2)) is None
    assert QQ.try_sqrt(QQ(-1)) is None
    assert QI.try_sqrt(QI("0+1*i")) is None


def test_sqrt_specials():
    assert QQ.try_sqrt(QQ(Fraction(9, 4))) == QQ(Fraction(3, 2))
    # Q(i): sqrt(-1) = i under the sign convention
    assert QI.try_sqrt(QI(-1)) == QI("0+1*i")
    # Q(sqrt 2): sqrt(2) is the generator
    assert QS2.try_sqrt(QS2(2)) == QS2("0+1*sqrt(2)")
    assert QS2.try_sqrt(QS2(3)) is None
    # F_7: squares are {0,1,2,4}; smaller-root convention
    assert F7.try_sqrt(F7(2)) == F7(3)
    assert F7.try_sqrt(F7(3)) is None


def test_sqrt_of_huge_rationals_is_exact():
    # 10**400 is past the float range, so a float square root overflows
    assert QQ.try_sqrt(QQ(10 ** 400)) == QQ(10 ** 200)
    assert QQ.try_sqrt(QQ(2 * 10 ** 400)) is None
    assert QQ.try_sqrt(QQ(Fraction(10 ** 400, 3))) is None


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 17])
def test_prime_sqrt_matches_scan(p):
    F = PrimeField(p)
    for x in range(p):
        roots = [r for r in range(p) if r * r % p == x]
        got = F.try_sqrt(F(x))
        if roots:
            assert got == F(min(roots)), (p, x)
        else:
            assert got is None, (p, x)


def test_prime_sqrt_large_modulus():
    # 998244353 - 1 = 119 * 2^23: the longest Tonelli-Shanks loop
    F = PrimeField(998244353)
    r = 123456789
    start = time.perf_counter()
    got = F.try_sqrt(F(r * r))
    assert time.perf_counter() - start < 0.5
    assert got == F(min(r, F.p - r))
    assert F.try_sqrt(F(3)) is None     # 3 generates the unit group


def test_prime_field_canonical_residues():
    assert F7(9).data == 2
    assert F7(-1).data == 6
    assert F7(Fraction(1, 2)) == F7(4)
    with pytest.raises(DivisionByZero):
        F7(Fraction(1, 7))
    with pytest.raises(DivisionByZero):
        F7.one() / F7.zero()


def test_bad_field_constructions():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        QuadraticField(4)  # not squarefree
    with pytest.raises(ValueError):
        QuadraticField(1)
    # d is bounded like p: the squarefree test trial-divides up to sqrt(d)
    start = time.perf_counter()
    for d in (2 ** 31 + 11, 10000000000037, int("7" * 25)):
        with pytest.raises(ValueError, match="2\\^31"):
            QuadraticField(d)
    assert QuadraticField(2 ** 31 - 1).tag == "qsqrt:2147483647"
    assert time.perf_counter() - start < 0.5


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        QQ(1) + F7(1)
    with pytest.raises(FieldMismatch):
        PrimeField(5)(F7(1))


def test_field_tags_roundtrip():
    for f in (QQ, QI, QS2, F7, PrimeField(3)):
        assert field_from_tag(f.tag) == f
    with pytest.raises(ValueError):
        field_from_tag("r")


def test_fields_are_equal_iff_their_tags_are():
    # fresh instances of each field, so equality is not identity
    def fields():
        return [RationalField(), GaussianRationalField(), QuadraticField(2),
                QuadraticField(3), PrimeField(5), PrimeField(7)]
    for f, tag in zip(fields(), ["q", "qi", "qsqrt:2", "qsqrt:3", "fp:5",
                                 "fp:7"]):
        assert f.tag == tag
    for f in fields():
        for g in fields():
            assert (f == g) == (f.tag == g.tag)
            assert (f != g) == (f.tag != g.tag)
            if f == g:
                assert hash(f) == hash(g)
    assert len(set(fields() + fields())) == 6
    assert QQ != "q" and F7 != 7


def test_element_text_encodings():
    assert repr(QQ(Fraction(-3, 2))) == "-3/2"
    assert repr(QI(2) + QI("0+1*i")) == "2+1*i"
    assert repr(QS2(1) + QS2("0+1*sqrt(2)")) == "1+1*sqrt(2)"
    assert repr(F7(3)) == "3 mod 7"
    with pytest.raises(FieldMismatch):
        F7.parse("3 mod 5")
    with pytest.raises(FieldMismatch):
        QS2.parse("1+1*sqrt(3)")


@pytest.mark.parametrize("field, gen", [(QI, "i"), (QS2, "sqrt(2)")],
                         ids=repr)
@pytest.mark.parametrize("text", ["1", "0", "1/2", "-3", "+2/6", " 5 "])
def test_quadratic_fields_parse_plain_rationals(field, gen, text):
    # "a" and "a/b" used to raise "bad ... literal"
    full = f"{text.strip()}+0*{gen}"
    assert field(text) == field(full) == field(Fraction(text.strip()))
