"""Exact arithmetic in Q(zeta), zeta a primitive 6th root of unity.

Elements are written a + b*zeta with rational a, b and the reduction rule
zeta^2 = zeta - 1.  Conjugation sends zeta to 1 - zeta (so zeta*conj(zeta) = 1)
and is the unique nontrivial field automorphism.  This degree-2 field contains
every constant needed by the bundled line arrangements.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RationalLike = int | Fraction


class CycNumber:
    """Immutable element a + b*zeta of Q(zeta), zeta^2 = zeta - 1."""

    __slots__ = ("a", "b")

    def __init__(self, a: _RationalLike = 0, b: _RationalLike = 0) -> None:
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CycNumber is immutable")

    # -- ring / field structure -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycNumber):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __neg__(self) -> CycNumber:
        return CycNumber(-self.a, -self.b)

    def __add__(self, other: CycNumber | _RationalLike) -> CycNumber:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return CycNumber(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: CycNumber | _RationalLike) -> CycNumber:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return CycNumber(self.a - other.a, self.b - other.b)

    def __rsub__(self, other: CycNumber | _RationalLike) -> CycNumber:
        return (-self) + other

    def __mul__(self, other: CycNumber | _RationalLike) -> CycNumber:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # (a1 + b1 z)(a2 + b2 z) with z^2 = z - 1
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return CycNumber(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 + b1 * b2)

    __rmul__ = __mul__

    def __truediv__(self, other: CycNumber | _RationalLike) -> CycNumber:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(zeta)")
        c = other.conjugate()
        num = self * c
        return CycNumber(num.a / n, num.b / n)

    def __rtruediv__(self, other: CycNumber | _RationalLike) -> CycNumber:
        return CycNumber(other) / self

    def __pow__(self, exponent: int) -> CycNumber:
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        result = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- field automorphism and predicates ---------------------------------

    def conjugate(self) -> CycNumber:
        """Complex conjugation: a + b*zeta maps to (a+b) - b*zeta."""
        return CycNumber(self.a + self.b, -self.b)

    def norm(self) -> Fraction:
        """x * conj(x) = a^2 + a*b + b^2, a rational."""
        return self.a * self.a + self.a * self.b + self.b * self.b

    def is_real(self) -> bool:
        return self.b == 0

    # -- textual form -------------------------------------------------------

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        if self.a:
            parts.append(_fmt_fraction(self.a))
        if self.b:
            term = f"{_fmt_fraction(abs(self.b))}*z"
            if parts:
                parts.append("+" if self.b > 0 else "-")
                parts.append(term)
            else:
                parts.append(term if self.b > 0 else "-" + term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"CycNumber({self.a!r}, {self.b!r})"


def _coerce(x: object) -> CycNumber | None:
    if isinstance(x, CycNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNumber(x)
    return None


def _fmt_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


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
            coef = Fraction(match.group("coef")) * sign
            if match.group("star"):
                value = value + CycNumber(0, coef)
            else:
                value = value + CycNumber(coef, 0)
        pos = match.end()
    return value
