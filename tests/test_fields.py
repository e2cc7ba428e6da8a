"""Field arithmetic: axioms, canonical forms, parsing, square roots."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from novikov.fields import (QQ, DivisionByZero, FieldMismatch,
                            GaussianRationalField, PrimeField,
                            QuadraticField, RationalField, field_from_tag,
                            field_tag)

QI = GaussianRationalField()
QS2 = QuadraticField(2)
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


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(a=rationals, b=rationals, c=rationals, d=rationals)
def test_raw_view_matches_field_arithmetic(field, a, b, c, d):
    x, y = _elem(field, a, b), _elem(field, c, d)
    raw, wrap, p = field.raw, field.wrap, field.modulus
    assert wrap(raw(x)) == x
    assert bool(raw(x)) == bool(x)
    for got, want in ((raw(x) + raw(y), x + y), (raw(x) - raw(y), x - y),
                      (raw(x) * raw(y), x * y)):
        # raw results over F_p are reduced by wrap
        assert wrap(got) == want
        assert raw(wrap(got)) == raw(want)
    assert (p is None) == (not isinstance(field, PrimeField))


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


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        QQ(1) + F7(1)
    with pytest.raises(FieldMismatch):
        PrimeField(5)(F7(1))


def test_field_tags_roundtrip():
    for f in (QQ, QI, QS2, F7, PrimeField(3)):
        assert field_from_tag(field_tag(f)) == f
    with pytest.raises(ValueError):
        field_from_tag("r")


def test_fields_are_equal_iff_their_tags_are():
    # fresh instances of each field, so equality is not identity
    def fields():
        return [RationalField(), GaussianRationalField(), QuadraticField(2),
                QuadraticField(3), PrimeField(5), PrimeField(7)]
    for f, tag in zip(fields(), ["q", "qi", "qsqrt:2", "qsqrt:3", "fp:5",
                                 "fp:7"]):
        assert f.tag == field_tag(f) == tag
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
