"""Exact field arithmetic: Q, Q(i), Q(sqrt d), and prime fields F_p.

Each field has one raw scalar, a value with native + - * (and / unless
`Field.modulus` is set): the Fraction over Q, the int residue in [0, p)
over F_p, and a `_QuadraticNumber` (a, b, d), meaning a + b*g with
g^2 = d, over Q(i) (d = -1) and Q(sqrt d).  Stored data
(`Algebra.table`, `Subspace._rows`, `Matrix._rows`,
`Cocycle.components`) and hot loops (elimination, the matrix and
structure-constant products, the isomorphism search) run on raw
scalars directly: `Field.raw(x)` is x's raw value, `Field.wrap(r)` the
element with raw value r, `Field.inverse(r)` the raw inverse, and
`Field.modulus` is p over F_p (raw results are reduced mod p and
inverted with `pow(x, -1, p)`) and None elsewhere.

Scalars at the library's boundary are FieldElements tied to a Field
instance: a thin wrapper around the raw value, whose operators are
written once on it.  Elements are immutable and kept in canonical form
after every operation (fractions in lowest terms with positive
denominator, F_p residues in [0, p)).  A field is known by its tag
(`Field.tag`, the text `field_from_tag` reads): fields with equal tags
are equal and hash alike.  Elements of unequal fields never mix;
mixing raises FieldMismatch, a ValueError.

Text encodings (used in all JSON formats):
    Q          "a/b"            (or "a" when b == 1)
    Q(i)       "a/b+c/d*i"
    Q(sqrt d)  "a/b+c/d*sqrt(d)"
    F_p        "k mod p"
"""

from __future__ import annotations

from fractions import Fraction
import math
import re


class FieldMismatch(ValueError):
    pass


class DivisionByZero(Exception):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _squarefree_part(n: int) -> int:
    """Largest squarefree divisor of n > 0 (helper for sqrt of rationals)."""
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return out * n


class FieldElement:
    """A scalar in one of the supported fields: `data` is its raw value
    (`Field.raw`), on which every operator runs.  It hashes like `data`,
    so like the int or Fraction that it equals; over F_p that is the
    residue in [0, p) only: F7(1) == 8, yet F7(1) hashes like 1, not 8."""

    __slots__ = ("field", "data")

    def __init__(self, field: "Field", data):
        self.field = field
        self.data = data

    def _coerce(self, other):
        """The raw value of other, anything `Field.__call__` accepts, in
        this element's field; NotImplemented for anything else."""
        if isinstance(other, FieldElement) and other.field is self.field:
            return other.data
        try:
            return self.field(other).data
        except TypeError:
            return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self.field.wrap(self.data + o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self.field.wrap(self.data - o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self.field.wrap(o - self.data)

    def __mul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self.field.wrap(self.data * o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else \
            self.field.wrap(self.data * self.field.inverse(o))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else \
            self.field.wrap(o * self.field.inverse(self.data))

    def __neg__(self):
        return self.field.wrap(-self.data)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (ValueError, ZeroDivisionError, DivisionByZero):
            # an element of another field (FieldMismatch), a string that
            # is no literal of this one ("x", "1/0"), or a rational whose
            # denominator p divides: none of them is an element here
            return False
        return o if o is NotImplemented else self.data == o

    def __hash__(self):
        return hash(self.data)

    def __bool__(self):
        return bool(self.data)

    def __repr__(self):
        return self.field.format(self)


class Field:
    """Abstract base: a field instance producing FieldElement values."""

    #: the CLI/JSON tag, q | qi | qsqrt:d | fp:p, and the field's identity
    tag: str

    #: p for F_p, where raw values are residues mod p; None elsewhere
    modulus = None

    def __eq__(self, other):
        return isinstance(other, Field) and other.tag == self.tag

    def __hash__(self):
        return hash(self.tag)

    def raw(self, x: FieldElement):
        """The raw value of x: a scalar with native + - * (and / unless
        `modulus` is set)."""
        return x.data

    def wrap(self, r) -> FieldElement:
        """The FieldElement whose raw value is r (inverse of `raw`)."""
        return FieldElement(self, r)

    def inverse(self, r):
        """The raw inverse of the raw value r; DivisionByZero when r is
        zero."""
        if not r:
            raise DivisionByZero(f"1/0 in {self!r}")
        return 1 / r if self.modulus is None else pow(r, -1, self.modulus)

    def zero(self) -> FieldElement:
        return self.from_rational(Fraction(0))

    def one(self) -> FieldElement:
        return self.from_rational(Fraction(1))

    def from_rational(self, q: Fraction) -> FieldElement:
        """The element q; over Q, q is its own raw value."""
        return self.wrap(q)

    def __call__(self, value) -> FieldElement:
        """The element `value` names: an element of this field, an int, a
        Fraction, a literal (`parse`) or a raw value; TypeError for
        anything else (a float, say)."""
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise FieldMismatch(f"{value.field} vs {self}")
            return value
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, (int, Fraction)):
            return self.from_rational(Fraction(value))
        raise TypeError(f"{value!r} is not an element of {self!r}")

    def try_sqrt(self, a: FieldElement):
        """A square root of `a` in this field, or None when none exists.

        Deterministic sign convention: the root with nonnegative rational
        part; over F_p, the smaller residue.
        """
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def parse(self, text: str) -> FieldElement:
        raise NotImplementedError


def _fmt_frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


_FRAC_RE = r"[+-]?\d+(?:/\d+)?"


def _rational_sqrt(q: Fraction):
    """The nonnegative square root of q in Q, or None when q is not a
    rational square."""
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class RationalField(Field):
    """The rational numbers Q."""

    tag = "q"

    def try_sqrt(self, a):
        r = _rational_sqrt(a.data)
        return None if r is None else FieldElement(self, r)

    def format(self, a):
        return _fmt_frac(a.data)

    def parse(self, text):
        return FieldElement(self, Fraction(text.strip()))

    def __repr__(self):
        return "Q"


class _QuadraticNumber:
    """a + b*g with Fractions a, b and g^2 = d: the raw scalar of Q(i)
    (d = -1) and Q(sqrt d).  Ints and Fractions mix in on either side as
    a + 0*g, as the raw loops need (`sum`, `-1 * v`, `1 / x`)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a, self.b, self.d = a, b, d

    def __add__(self, o):
        if isinstance(o, _QuadraticNumber):
            return _QuadraticNumber(self.a + o.a, self.b + o.b, self.d)
        if isinstance(o, (int, Fraction)):
            return _QuadraticNumber(self.a + o, self.b, self.d)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _QuadraticNumber(-self.a, -self.b, self.d)

    def __sub__(self, o):
        if isinstance(o, _QuadraticNumber):
            return _QuadraticNumber(self.a - o.a, self.b - o.b, self.d)
        if isinstance(o, (int, Fraction)):
            return _QuadraticNumber(self.a - o, self.b, self.d)
        return NotImplemented

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if isinstance(o, _QuadraticNumber):
            return _QuadraticNumber(self.a * o.a + self.b * o.b * self.d,
                                    self.a * o.b + self.b * o.a, self.d)
        if isinstance(o, (int, Fraction)):
            return _QuadraticNumber(self.a * o, self.b * o, self.d)
        return NotImplemented

    __rmul__ = __mul__

    def _inverse(self):
        # d is -1 or squarefree >= 2, so the norm vanishes only at 0
        # (and dividing by it raises ZeroDivisionError, as a Fraction does)
        n = self.a * self.a - self.b * self.b * self.d
        return _QuadraticNumber(self.a / n, -self.b / n, self.d)

    def __truediv__(self, o):
        if isinstance(o, _QuadraticNumber):
            return self * o._inverse()
        if isinstance(o, (int, Fraction)):
            return _QuadraticNumber(self.a / o, self.b / o, self.d)
        return NotImplemented

    def __rtruediv__(self, o):
        return self._inverse() * o

    def __eq__(self, o):
        if isinstance(o, _QuadraticNumber):
            return self.a == o.a and self.b == o.b and \
                (not self.b or self.d == o.d)
        if isinstance(o, (int, Fraction)):
            return not self.b and self.a == o
        return NotImplemented

    def __hash__(self):
        # a rational a + 0*g hashes like a, which it equals
        return hash((self.a, self.b, self.d)) if self.b else hash(self.a)

    def __bool__(self):
        return bool(self.a or self.b)


class _QuadraticField(Field):
    """Q(g) with g^2 = d, g written `gen` ("i" or "sqrt(d)"): elements
    a + b*g with rational a, b, whose raw value is the _QuadraticNumber
    (a, b, d)."""

    _re = re.compile(rf"^({_FRAC_RE})\+({_FRAC_RE})\*(i|sqrt\(\d+\))$")

    def __init__(self, d: int, tag: str, gen: str, name: str):
        self.d, self.tag, self._gen, self._name = d, tag, gen, name

    def from_rational(self, q):
        return FieldElement(self, _QuadraticNumber(q, Fraction(0), self.d))

    def __call__(self, value):
        if isinstance(value, _QuadraticNumber):
            if value.d != self.d:
                raise FieldMismatch(f"a number with g^2 = {value.d} "
                                    f"in {self!r}")
            return FieldElement(self, value)
        return super().__call__(value)

    def format(self, a):
        return f"{_fmt_frac(a.data.a)}+{_fmt_frac(a.data.b)}*{self._gen}"

    def parse(self, text):
        """"a+b*g" with g written as in `format`, or a plain rational
        "a" or "a/b", meaning a+0*g."""
        t = text.strip().replace(" ", "")
        if re.fullmatch(_FRAC_RE, t):
            return self.from_rational(Fraction(t))
        m = self._re.match(t)
        if not m:
            raise ValueError(f"bad {self!r} literal: {text!r}")
        if m.group(3) != self._gen:
            raise FieldMismatch(f"{m.group(3)} literal in {self!r}")
        return FieldElement(self, _QuadraticNumber(
            Fraction(m.group(1)), Fraction(m.group(2)), self.d))

    def try_sqrt(self, x):
        # (u + v g)^2 = p + q g.  For q = 0: u^2 = p (v = 0), or d v^2 = p
        # (u = 0).  Otherwise u^2 is a root t of t^2 - p t + d q^2 / 4 and
        # v = q / (2u).  Every candidate has u >= 0, and v >= 0 when u = 0.
        p, q, d = x.data.a, x.data.b, self.d
        if not q:
            u, v = _rational_sqrt(p), _rational_sqrt(p / d)
            root = (u, Fraction(0)) if u is not None else \
                None if v is None else (Fraction(0), v)
        else:
            disc = _rational_sqrt(p * p - d * q * q)
            u = None if disc is None else next(
                (u for u in (_rational_sqrt((p + sign * disc) / 2)
                             for sign in (1, -1)) if u), None)
            root = None if u is None else (u, q / (2 * u))
        return None if root is None else \
            FieldElement(self, _QuadraticNumber(*root, d))

    def __repr__(self):
        return self._name


class GaussianRationalField(_QuadraticField):
    """Q(i): elements a + b*i with rational a, b."""

    def __init__(self):
        super().__init__(-1, "qi", "i", "Q(i)")


class QuadraticField(_QuadraticField):
    """Q(sqrt d) for a fixed squarefree integer 2 <= d <= 2^31."""

    def __init__(self, d: int):
        # the bound keeps the squarefree test's trial division short
        if not 2 <= d <= 2 ** 31 or _squarefree_part(d) != d:
            raise ValueError(
                f"d must be a squarefree integer in [2, 2^31], got {d}")
        super().__init__(d, f"qsqrt:{d}", f"sqrt({d})", f"Q(sqrt {d})")


class PrimeField(Field):
    """F_p for a prime p <= 2^31."""

    def __init__(self, p: int):
        if p > 2 ** 31 or not _is_prime(p):
            raise ValueError(f"p must be a prime <= 2^31, got {p}")
        self.p = self.modulus = p
        self.tag = f"fp:{p}"

    def wrap(self, r):
        return FieldElement(self, r % self.p)

    def from_rational(self, q):
        den = q.denominator % self.p
        if den == 0:
            raise DivisionByZero(f"denominator divisible by {self.p}")
        return FieldElement(self, q.numerator * pow(den, -1, self.p) % self.p)

    def try_sqrt(self, a):
        # Euler's criterion, then Tonelli-Shanks (Cohen, A Course in
        # Computational Algebraic Number Theory, Alg. 1.5.1).
        p, x = self.p, a.data
        if p == 2 or x == 0:
            return FieldElement(self, x)
        if pow(x, (p - 1) // 2, p) != 1:
            return None
        q, s = p - 1, 0
        while q % 2 == 0:
            q, s = q // 2, s + 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c, t, r = pow(z, q, p), pow(x, q, p), pow(x, (q + 1) // 2, p)
        m = s
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2, i = t2 * t2 % p, i + 1
            b = pow(c, 1 << (m - i - 1), p)
            c, t, r, m = b * b % p, t * b * b % p, r * b % p, i
        return FieldElement(self, min(r, p - r))

    def format(self, a):
        return f"{a.data} mod {self.p}"

    _re = re.compile(r"^(-?\d+)(?:\s*mod\s*(\d+))?$")

    def parse(self, text):
        m = self._re.match(text.strip())
        if m:
            if m.group(2) is not None and int(m.group(2)) != self.p:
                raise FieldMismatch(f"mod {m.group(2)} literal in F_{self.p}")
            return FieldElement(self, int(m.group(1)) % self.p)
        # allow rational literals like "1/2" (meaning 2^{-1} mod p)
        return self.from_rational(Fraction(text.strip()))

    def __repr__(self):
        return f"F_{self.p}"


QQ = RationalField()


def field_from_tag(tag: str) -> Field:
    """Field from a CLI/JSON tag: q | qi | qsqrt:d | fp:p."""
    if not isinstance(tag, str):
        raise ValueError(f"field tag {tag!r} is not a string")
    tag = tag.strip().lower()
    if tag == "q":
        return RationalField()
    if tag == "qi":
        return GaussianRationalField()
    if tag.startswith("qsqrt:"):
        return QuadraticField(int(tag.split(":", 1)[1]))
    if tag.startswith("fp:"):
        return PrimeField(int(tag.split(":", 1)[1]))
    raise ValueError(f"unknown field tag: {tag!r}")
