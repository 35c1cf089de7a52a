"""Tiny exact linear algebra over Q(zeta): 3-vectors and 3x3 matrices.

Vectors and matrices are plain tuples; everything is pure and hashable so
projective objects can be deduplicated with dict keys.
"""

from __future__ import annotations

from .cyclotomic import ONE, CycNumber

Vec3 = tuple[CycNumber, CycNumber, CycNumber]
Mat3 = tuple[Vec3, Vec3, Vec3]


def dot(u: Vec3, v: Vec3) -> CycNumber:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def scale(u: Vec3, s: CycNumber) -> Vec3:
    return (u[0] * s, u[1] * s, u[2] * s)


def conj_vec(u: Vec3) -> Vec3:
    return (u[0].conjugate(), u[1].conjugate(), u[2].conjugate())


def is_zero_vec(u: Vec3) -> bool:
    return not (u[0] or u[1] or u[2])


def canonical(u: Vec3) -> Vec3:
    """Projective normal form: scale so the first nonzero entry is 1."""
    for x in u:
        if x:
            return scale(u, ONE / x)
    raise ValueError("zero vector has no projective normal form")


def proportional(u: Vec3, v: Vec3) -> bool:
    """True iff u and v span the same line (all 2x2 minors vanish)."""
    if is_zero_vec(u) or is_zero_vec(v):
        return False
    return is_zero_vec(cross(u, v))


def det3(m: Mat3) -> CycNumber:
    return dot(m[0], cross(m[1], m[2]))


def matvec(m: Mat3, u: Vec3) -> Vec3:
    return (dot(m[0], u), dot(m[1], u), dot(m[2], u))


def matmul(m: Mat3, n: Mat3) -> Mat3:
    nt = transpose(n)
    return tuple(tuple(dot(row, col) for col in nt) for row in m)  # type: ignore[return-value]


def transpose(m: Mat3) -> Mat3:
    return tuple(zip(*m))  # type: ignore[return-value]


def columns_to_matrix(c0: Vec3, c1: Vec3, c2: Vec3) -> Mat3:
    return transpose((c0, c1, c2))


def adjugate(m: Mat3) -> Mat3:
    """adj(m), with m . adj(m) = det(m) I: its columns are the cross
    products of pairs of rows of m."""
    return columns_to_matrix(cross(m[1], m[2]), cross(m[2], m[0]), cross(m[0], m[1]))


def inverse(m: Mat3) -> Mat3:
    d = det3(m)
    if not d:
        raise ValueError("singular matrix")
    inv = ONE / d
    return tuple(scale(row, inv) for row in adjugate(m))  # type: ignore[return-value]


def normalize_matrix(m: Mat3) -> Mat3:
    """Scale a nonzero matrix so its first nonzero entry (row-major) is 1."""
    for row in m:
        for x in row:
            if x:
                inv = ONE / x
                return tuple(scale(r, inv) for r in m)  # type: ignore[return-value]
    raise ValueError("zero matrix")

