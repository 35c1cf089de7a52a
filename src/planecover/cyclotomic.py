"""Exact arithmetic in Q(zeta), zeta a primitive 6th root of unity.

Elements are written a + b*zeta with rational a, b and the reduction rule
zeta^2 = zeta - 1.  Conjugation sends zeta to 1 - zeta (so zeta*conj(zeta) = 1)
and is the unique nontrivial field automorphism.  This degree-2 field contains
every constant needed by the bundled line arrangements.

An element is stored as integers (p, q, d), a + b*zeta = (p + q*zeta)/d with
d > 0 and gcd(p, q, d) = 1: a canonical form, so equality compares the triple,
and each operation is integer arithmetic and one gcd.  A rational element
hashes like the equal int or Fraction, so either finds it in a set or dict.
"""

from __future__ import annotations

import re
import sys
from math import gcd
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

    _RationalLike = int | Fraction


class CycNumber:
    """Immutable element (p + q*zeta)/d of Q(zeta), zeta^2 = zeta - 1."""

    __slots__ = ("p", "q", "d")

    def __new__(cls, a: _RationalLike = 0, b: _RationalLike = 0) -> CycNumber:
        (p, d1), (q, d2) = a.as_integer_ratio(), b.as_integer_ratio()
        return _reduced(p * d2, q * d1, d1 * d2)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CycNumber is immutable")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through _reduced: the default reduce would
        # restore the slots through the refusing __setattr__
        return (_reduced, (self.p, self.q, self.d))

    a = property(lambda self: _fraction(self.p, self.d), doc="rational part")
    b = property(lambda self: _fraction(self.q, self.d), doc="coefficient of zeta")

    # -- ring / field structure -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CycNumber and (other := _coerce(other)) is None:
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self) -> int:
        if self.q:
            return hash((self.p, self.q, self.d))
        if self.d == 1:
            return hash(self.p)
        return _rational_hash(self.p, self.d)

    def __bool__(self) -> bool:
        return bool(self.p) or bool(self.q)

    def __neg__(self) -> CycNumber:
        return _reduced(-self.p, -self.q, self.d)

    def __add__(self, other: CycNumber | _RationalLike) -> CycNumber:
        if other.__class__ is not CycNumber and (other := _coerce(other)) is None:
            return NotImplemented
        d1, d2 = self.d, other.d
        return _reduced(self.p * d2 + other.p * d1, self.q * d2 + other.q * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: CycNumber | _RationalLike) -> CycNumber:
        if other.__class__ is not CycNumber and (other := _coerce(other)) is None:
            return NotImplemented
        d1, d2 = self.d, other.d
        return _reduced(self.p * d2 - other.p * d1, self.q * d2 - other.q * d1, d1 * d2)

    def __rsub__(self, other: CycNumber | _RationalLike) -> CycNumber:
        return (-self) + other

    def __mul__(self, other: CycNumber | _RationalLike) -> CycNumber:
        if other.__class__ is not CycNumber and (other := _coerce(other)) is None:
            return NotImplemented
        # (p1 + q1 z)(p2 + q2 z) with z^2 = z - 1
        p1, q1, p2, q2 = self.p, self.q, other.p, other.q
        return _reduced(p1 * p2 - q1 * q2, p1 * q2 + q1 * p2 + q1 * q2, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other: CycNumber | _RationalLike) -> CycNumber:
        if other.__class__ is not CycNumber and (other := _coerce(other)) is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero in Q(zeta)")
        # x / y = x conj(y) / norm(y), conj(y) = (c - q2 z)/d2, norm(y) = n/d2^2
        p1, q1, p2, q2, d2 = self.p, self.q, other.p, other.q, other.d
        c, n = p2 + q2, p2 * p2 + p2 * q2 + q2 * q2
        return _reduced((p1 * c + q1 * q2) * d2, (q1 * c - p1 * q2 - q1 * q2) * d2, self.d * n)

    def __rtruediv__(self, other: CycNumber | _RationalLike) -> CycNumber:
        return CycNumber(other) / self

    # -- field automorphism and predicates ---------------------------------

    def conjugate(self) -> CycNumber:
        """Complex conjugation: a + b*zeta maps to (a+b) - b*zeta."""
        return _reduced(self.p + self.q, -self.q, self.d)

    def is_real(self) -> bool:
        return self.q == 0

    # -- textual form -------------------------------------------------------

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        if self.p:
            parts.append(_fmt_ratio(self.p, self.d))
        if self.q:
            term = f"{_fmt_ratio(abs(self.q), self.d)}*z"
            if parts:
                parts.append("+" if self.q > 0 else "-")
                parts.append(term)
            else:
                parts.append(term if self.q > 0 else "-" + term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"CycNumber({self.a!r}, {self.b!r})"


_set_p, _set_q, _set_d = CycNumber.p.__set__, CycNumber.q.__set__, CycNumber.d.__set__


def _reduced(p: int, q: int, d: int) -> CycNumber:
    """(p + q*zeta)/d for d > 0, with gcd(p, q, d) divided out."""
    g = gcd(p, q, d)
    x = object.__new__(CycNumber)
    _set_p(x, p // g)
    _set_q(x, q // g)
    _set_d(x, d // g)
    return x


def _coerce(x: object) -> CycNumber | None:
    """An int or a Fraction (any rational with numerator and denominator) as
    an element; None for anything else."""
    if isinstance(x, int):
        return _reduced(x, 0, 1)
    try:
        return _reduced(x.numerator, 0, x.denominator)
    except AttributeError:
        return None


_MODULUS = sys.hash_info.modulus


def _rational_hash(p: int, d: int) -> int:
    """hash(Fraction(p, d)) for d > 1 in lowest terms, as Python defines
    the hash of a rational: |p| / d modulo the hash modulus (the infinity
    hash where d has no inverse), with p's sign, and -1 taken as -2."""
    h = abs(p) * pow(d, -1, _MODULUS) % _MODULUS if d % _MODULUS else sys.hash_info.inf
    h = h if p >= 0 else -h
    return -2 if h == -1 else h


def _fraction(n: int, d: int) -> Fraction:
    # the one use of `fractions`, imported here so that loading this module
    # (and computing on (p, q, d)) does not load it
    from fractions import Fraction

    return Fraction(n, d)


def _fmt_ratio(p: int, d: int) -> str:
    """p/d in lowest terms, as an integer when d divides p."""
    g = gcd(p, d)
    return str(p // g) if g == d else f"{p // g}/{d // g}"


ZERO = CycNumber(0, 0)
ONE = CycNumber(1, 0)
ZETA = CycNumber(0, 1)

_TERM = re.compile(
    r"""(?P<sign>[+-]?)
        (?: (?P<coef>\d+(?:/\d+)?) (?P<star>\*z)?
          | (?P<barez>z) )""",
    re.VERBOSE,
)


def parse_cyc(text: str) -> CycNumber:
    """Parse the textual form "p/q+r/s*z" (either part may be absent).

    Bare "z" and "-z" are accepted; printing always writes an explicit
    coefficient, and print/parse round-trip bit-exactly.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty cyclotomic literal")
    if s == "0":
        return ZERO
    pos = 0
    value = ZERO
    while pos < len(s):
        match = _TERM.match(s, pos)
        if match is None:
            raise ValueError(f"bad cyclotomic literal {text!r} at position {pos}")
        sign = -1 if match.group("sign") == "-" else 1
        if match.group("barez"):
            value = value + CycNumber(0, sign)
        else:
            num, _, den = match.group("coef").partition("/")
            coef, d = sign * int(num), int(den or 1)
            if d == 0:  # refused at the slash, in ASCII or other digits
                raise ValueError(
                    f"bad cyclotomic literal {text!r} at position {match.start('coef') + len(num)}"
                )
            if match.group("star"):
                value = value + _reduced(0, coef, d)
            else:
                value = value + _reduced(coef, 0, d)
        pos = match.end()
    return value
