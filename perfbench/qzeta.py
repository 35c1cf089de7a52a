"""The benchmark's own exact arithmetic in Q(zeta), zeta a primitive 6th root
of unity, and the projective geometry the checks need.

It shares no code with planecover: numbers are pairs (a, b) of Fractions
meaning a + b*zeta with zeta^2 = zeta - 1, and complex conjugation sends
zeta to 1 - zeta.  Geometry is done by 2x2 minors and adjugates, so the
checks never rely on planecover's normal forms.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

Num = tuple[Fraction, Fraction]
Vec = tuple[Num, Num, Num]

ZERO: Num = (Fraction(0), Fraction(0))
ONE: Num = (Fraction(1), Fraction(0))
ZETA: Num = (Fraction(0), Fraction(1))


def add(x: Num, y: Num) -> Num:
    return (x[0] + y[0], x[1] + y[1])


def sub(x: Num, y: Num) -> Num:
    return (x[0] - y[0], x[1] - y[1])


def neg(x: Num) -> Num:
    return (-x[0], -x[1])


def mul(x: Num, y: Num) -> Num:
    a1, b1 = x
    a2, b2 = y
    return (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 + b1 * b2)


def conj(x: Num) -> Num:
    return (x[0] + x[1], -x[1])


def inv(x: Num) -> Num:
    norm = x[0] * x[0] + x[0] * x[1] + x[1] * x[1]
    if not norm:
        raise ZeroDivisionError("inverse of 0 in Q(zeta)")
    c = conj(x)
    return (c[0] / norm, c[1] / norm)


def power(x: Num, e: int) -> Num:
    out = ONE
    for _ in range(e):
        out = mul(out, x)
    return out


def is_zero(x: Num) -> bool:
    return not x[0] and not x[1]


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(\*?z)?")


def parse(text: str) -> Num:
    """Read the textual form 'p/q+r/s*z' that planecover prints."""
    s = text.replace(" ", "")
    a, b = Fraction(0), Fraction(0)
    pos = 0
    while pos < len(s):
        match = _TERM.match(s, pos)
        if not match or match.end() == pos:
            raise ValueError(f"bad Q(zeta) literal {text!r}")
        sign = -1 if match.group(1) == "-" else 1
        coef = Fraction(match.group(2)) if match.group(2) else Fraction(1)
        if match.group(3):
            b += sign * coef
        elif match.group(2):
            a += sign * coef
        else:
            raise ValueError(f"bad Q(zeta) literal {text!r}")
        pos = match.end()
    return (a, b)


def fmt(x: Num) -> str:
    """Write x in the input syntax planecover parses: 'a+b*z'."""
    a, b = x
    sign = "-" if b < 0 else "+"
    return f"{a}{sign}{abs(b)}*z"


# -- vectors and matrices ------------------------------------------------------


def dot(u: Vec, v: Vec) -> Num:
    return add(add(mul(u[0], v[0]), mul(u[1], v[1])), mul(u[2], v[2]))


def cross(u: Vec, v: Vec) -> Vec:
    return (
        sub(mul(u[1], v[2]), mul(u[2], v[1])),
        sub(mul(u[2], v[0]), mul(u[0], v[2])),
        sub(mul(u[0], v[1]), mul(u[1], v[0])),
    )


def conj_vec(u: Vec) -> Vec:
    return tuple(conj(x) for x in u)  # type: ignore[return-value]


def is_zero_vec(u: Vec) -> bool:
    return all(is_zero(x) for x in u)


def same_projective(u: Vec, v: Vec) -> bool:
    """u and v are nonzero and span the same line (every 2x2 minor is 0)."""
    return not is_zero_vec(u) and not is_zero_vec(v) and is_zero_vec(cross(u, v))


def normal_form(u: Vec) -> Vec:
    """Scale so the last nonzero entry is 1; used only as a dictionary key."""
    for x in reversed(u):
        if not is_zero(x):
            s = inv(x)
            return tuple(mul(y, s) for y in u)  # type: ignore[return-value]
    raise ValueError("zero vector")


def matvec(m: tuple[Vec, Vec, Vec], u: Vec) -> Vec:
    return (dot(m[0], u), dot(m[1], u), dot(m[2], u))


def det(m: tuple[Vec, Vec, Vec]) -> Num:
    return dot(m[0], cross(m[1], m[2]))


def inverse_transpose_adj(m: tuple[Vec, Vec, Vec]) -> tuple[Vec, Vec, Vec]:
    """The cofactor matrix, a nonzero multiple of (M^T)^(-1): rows are the
    cross products of pairs of rows of M."""
    return (cross(m[1], m[2]), cross(m[2], m[0]), cross(m[0], m[1]))


def incidence(lines: list[Vec]) -> list[tuple[int, ...]]:
    """Sorted 0-based incident line sets of all intersection points."""
    by_point: dict[Vec, set[int]] = {}
    for i, j in itertools.combinations(range(len(lines)), 2):
        p = cross(lines[i], lines[j])
        if is_zero_vec(p):
            raise ValueError(f"lines {i + 1} and {j + 1} coincide")
        by_point.setdefault(normal_form(p), set()).update((i, j))
    return sorted(tuple(sorted(s)) for s in by_point.values())


def point_coords(lines: list[Vec], incident: tuple[int, ...]) -> Vec:
    return cross(lines[incident[0]], lines[incident[1]])
