"""Exact intersection theory on the plane blown up at a chosen point set.

Divisor classes live in the lattice spanned by the hyperplane class H and
the exceptional classes E_p, with H.H = 1, E_p.E_p = -1 and all mixed
products 0.  Coefficients are rationals throughout because the adjoint
class of a degree-m cover involves (m-1)/m before any scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Arrangement

Context = tuple[int, ...]  # sorted blown point ids


@dataclass(frozen=True)
class DivisorClass:
    h: Fraction
    e: tuple[tuple[int, Fraction], ...]  # sorted (point_id, coefficient), zeros dropped
    context: Context

    @classmethod
    def make(cls, h: Fraction | int, e: dict[int, Fraction], context: Context) -> DivisorClass:
        unknown = set(e) - set(context)
        if unknown:
            raise ValueError(f"exceptional coefficients outside context: {sorted(unknown)}")
        cleaned = tuple(sorted((p, Fraction(c)) for p, c in e.items() if c))
        return cls(Fraction(h), cleaned, tuple(context))

    def __add__(self, other: DivisorClass) -> DivisorClass:
        self._check(other)
        e = {p: c for p, c in self.e}
        for p, c in other.e:
            e[p] = e.get(p, Fraction(0)) + c
        return DivisorClass.make(self.h + other.h, e, self.context)

    def __sub__(self, other: DivisorClass) -> DivisorClass:
        return self + other.scaled(Fraction(-1))

    def scaled(self, s: Fraction | int) -> DivisorClass:
        s = Fraction(s)
        return DivisorClass.make(self.h * s, {p: c * s for p, c in self.e}, self.context)

    def _check(self, other: DivisorClass) -> None:
        if self.context != other.context:
            raise ValueError("divisor classes from different blow-up contexts")

    def __str__(self) -> str:
        parts = [f"{self.h}H"] if self.h else []
        for p, c in self.e:
            sign = "-" if c < 0 else "+"
            parts.append(f" {sign} {abs(c)}E{p}")
        return "".join(parts).lstrip(" +") or "0"


def exceptional(point_id: int, context: Context) -> DivisorClass:
    return DivisorClass.make(Fraction(0), {point_id: Fraction(1)}, context)


def pairing(d1: DivisorClass, d2: DivisorClass) -> Fraction:
    """The intersection form: H.H = 1, E_p.E_p = -1, everything else 0."""
    d1._check(d2)
    total = d1.h * d2.h
    coeffs2 = dict(d2.e)
    for p, c in d1.e:
        total -= c * coeffs2.get(p, Fraction(0))
    return total


def strict_transform(arr: Arrangement, line_index: int, context: Context) -> DivisorClass:
    """H minus the exceptional classes of the blown points on the line."""
    e = {
        pid: Fraction(-1)
        for pid in context
        if line_index in arr.points[pid].incident
    }
    return DivisorClass.make(Fraction(1), e, context)


def canonical_class(context: Context) -> DivisorClass:
    """-3H + sum of E_p over the blown points."""
    return DivisorClass.make(
        Fraction(-3), {p: Fraction(1) for p in context}, context
    )

