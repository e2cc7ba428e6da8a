"""Exact field arithmetic: Q, Q(i), Q(sqrt d), and prime fields F_p.

Scalars at the library's boundary are FieldElements tied to a Field
instance.  Elements are immutable and kept in canonical form after
every operation (fractions in lowest terms with positive denominator,
F_p residues in [0, p)).  A field is known by its tag (`Field.tag`, the
text `field_from_tag` reads): fields with equal tags are equal and hash
alike.  Elements of unequal fields never mix; mixing raises
FieldMismatch, a ValueError.

Stored data (`Algebra.table`, `Subspace._rows`, `Matrix._rows`,
`Cocycle.components`) and hot loops (elimination, the matrix and
structure-constant products, the isomorphism search) use each field's
raw view instead: `Field.raw(x)`
is a value with native `+ - *` (the Fraction over Q, the int residue
over F_p, the FieldElement itself over Q(i) and Q(sqrt d)),
`Field.wrap(r)` turns a raw value back into a FieldElement, and
`Field.modulus` is p over F_p (raw results are reduced mod p and
inverted with `pow(x, -1, p)`) and None elsewhere.

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
    """A scalar in one of the supported fields.

    `data` is a Fraction (Q), a pair of Fractions (Qi / Qsqrt), or an
    int residue (Fp).  All arithmetic is delegated to the field object.
    """

    __slots__ = ("field", "data")

    def __init__(self, field: "Field", data):
        self.field = field
        self.data = data

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(Fraction(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.field.add(self, o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.field.sub(self, o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.field.sub(o, self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.field.mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.field.div(self, o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.field.div(o, self)

    def __neg__(self):
        return self.field.neg(self)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(Fraction(other))
        if not isinstance(other, FieldElement):
            return NotImplemented
        if self.field != other.field:
            return False
        return self.data == other.data

    def __hash__(self):
        return hash((self.field, self.data))

    def __bool__(self):
        return not self.field.is_zero(self)

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
        return x

    def wrap(self, r) -> FieldElement:
        """The FieldElement whose raw value is r (inverse of `raw`)."""
        return r

    def zero(self) -> FieldElement:
        return self.from_rational(Fraction(0))

    def one(self) -> FieldElement:
        return self.from_rational(Fraction(1))

    def from_rational(self, q: Fraction) -> FieldElement:
        raise NotImplementedError

    def __call__(self, value) -> FieldElement:
        """Convenience constructor from int/Fraction/str/FieldElement."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatch(f"{value.field} vs {self}")
            return value
        if isinstance(value, str):
            return self.parse(value)
        return self.from_rational(Fraction(value))

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

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

    def raw(self, x):
        return x.data

    def wrap(self, r):
        return FieldElement(self, r)

    def from_rational(self, q):
        return FieldElement(self, Fraction(q))

    def add(self, a, b):
        return FieldElement(self, a.data + b.data)

    def mul(self, a, b):
        return FieldElement(self, a.data * b.data)

    def neg(self, a):
        return FieldElement(self, -a.data)

    def inv(self, a):
        if a.data == 0:
            raise DivisionByZero("1/0 in Q")
        return FieldElement(self, 1 / a.data)

    def is_zero(self, a):
        return a.data == 0

    def try_sqrt(self, a):
        r = _rational_sqrt(a.data)
        return None if r is None else FieldElement(self, r)

    def format(self, a):
        return _fmt_frac(a.data)

    def parse(self, text):
        return FieldElement(self, Fraction(text.strip()))

    def __repr__(self):
        return "Q"


class _QuadraticArithmetic(Field):
    """Q(g) with g^2 = d for the subclass's integer d (not a square):
    elements a + b*g with rational a, b, stored as the pair (a, b)."""

    d: int

    def from_rational(self, q):
        return FieldElement(self, (Fraction(q), Fraction(0)))

    def add(self, a, b):
        return FieldElement(self, (a.data[0] + b.data[0], a.data[1] + b.data[1]))

    def mul(self, a, b):
        (p, q), (r, s) = a.data, b.data
        return FieldElement(self, (p * r + q * s * self.d, p * s + q * r))

    def neg(self, a):
        return FieldElement(self, (-a.data[0], -a.data[1]))

    def inv(self, a):
        p, q = a.data
        # d is -1 or squarefree >= 2, so the norm vanishes only at 0
        n = p * p - q * q * self.d
        if n == 0:
            raise DivisionByZero(f"1/0 in {self!r}")
        return FieldElement(self, (p / n, -q / n))

    def is_zero(self, a):
        return a.data == (0, 0)

    def parse(self, text):
        """"a+b*g" in the subclass's notation for g (`_re`), or a plain
        rational "a" or "a/b", meaning a+0*g."""
        t = text.strip().replace(" ", "")
        if re.fullmatch(_FRAC_RE, t):
            return self.from_rational(Fraction(t))
        m = self._re.match(t)
        if not m:
            raise ValueError(f"bad {self._literal} literal: {text!r}")
        if m.lastindex == 3 and int(m.group(3)) != self.d:
            raise FieldMismatch(f"sqrt({m.group(3)}) literal in Q(sqrt {self.d})")
        return FieldElement(self, (Fraction(m.group(1)), Fraction(m.group(2))))

    def try_sqrt(self, a):
        # (x + y g)^2 = p + q g: either y=0 / x=0 shortcut or x^2 solves
        # t^2 - p t + d q^2 / 4 = 0 over Q.
        p, q = a.data
        cands = []
        if q == 0:
            r = _rational_sqrt(p)
            if r is not None:
                cands.append((r, Fraction(0)))
            r = _rational_sqrt(p / self.d)
            if r is not None:
                cands.append((Fraction(0), r))
        else:
            disc = _rational_sqrt(p * p - self.d * q * q)
            if disc is not None:
                for sign in (1, -1):
                    x = _rational_sqrt((p + sign * disc) / 2)
                    if x:
                        cands.append((x, q / (2 * x)))
        for x, y in cands:
            cand = FieldElement(self, (x, y))
            if self.mul(cand, cand) == a:
                if x < 0 or (x == 0 and y < 0):
                    cand = self.neg(cand)
                return cand
        return None


class GaussianRationalField(_QuadraticArithmetic):
    """Q(i): elements a + b*i with rational a, b."""

    d = -1
    tag = "qi"

    def format(self, a):
        p, q = a.data
        return f"{_fmt_frac(p)}+{_fmt_frac(q)}*i"

    _re = re.compile(rf"^({_FRAC_RE})\+({_FRAC_RE})\*i$")
    _literal = "Q(i)"

    def __repr__(self):
        return "Q(i)"


class QuadraticField(_QuadraticArithmetic):
    """Q(sqrt d) for a fixed squarefree integer d >= 2."""

    def __init__(self, d: int):
        if d < 2 or _squarefree_part(d) != d:
            raise ValueError(f"d must be a squarefree integer >= 2, got {d}")
        self.d = d
        self.tag = f"qsqrt:{d}"

    def format(self, a):
        p, q = a.data
        return f"{_fmt_frac(p)}+{_fmt_frac(q)}*sqrt({self.d})"

    _re = re.compile(rf"^({_FRAC_RE})\+({_FRAC_RE})\*sqrt\((\d+)\)$")
    _literal = "Q(sqrt d)"

    def __repr__(self):
        return f"Q(sqrt {self.d})"


class PrimeField(Field):
    """F_p for a prime p <= 2^31."""

    def __init__(self, p: int):
        if p > 2 ** 31 or not _is_prime(p):
            raise ValueError(f"p must be a prime <= 2^31, got {p}")
        self.p = self.modulus = p
        self.tag = f"fp:{p}"

    def raw(self, x):
        return x.data

    def wrap(self, r):
        return FieldElement(self, r % self.p)

    def from_rational(self, q):
        den = q.denominator % self.p
        if den == 0:
            raise DivisionByZero(f"denominator divisible by {self.p}")
        return FieldElement(self, q.numerator * pow(den, -1, self.p) % self.p)

    def add(self, a, b):
        return FieldElement(self, (a.data + b.data) % self.p)

    def mul(self, a, b):
        return FieldElement(self, (a.data * b.data) % self.p)

    def neg(self, a):
        return FieldElement(self, -a.data % self.p)

    def inv(self, a):
        if a.data == 0:
            raise DivisionByZero(f"1/0 in F_{self.p}")
        return FieldElement(self, pow(a.data, -1, self.p))

    def is_zero(self, a):
        return a.data == 0

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


def field_tag(field: Field) -> str:
    return field.tag
