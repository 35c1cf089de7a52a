"""Reference realization: the inverse-based `realize_symmetry` and
`fixed_points_of` that rebuild the projective frame of a general-position
quadruple for every permutation, solving for its scaling with 3x3 inverses.
The quadruple is read here from the incidence points rather than from
determinants; any quadruple of lines in general position gives the same
normalized matrix.

The library instead keeps one frame per arrangement and anti flag in its
search state, works with adjugates and keeps each realization there; the
tests require the same matrix, or None, from both routes, cold and from
the arrangement's memo.  The library reads fixed points from the line
permutation alone; the matrix route here, (M^T)^(-1) sigma(x) on every
point, is the oracle its answer must equal for every realized (perm, anti).
"""

from __future__ import annotations

import itertools

from planecover.arrangement import Arrangement, IncidencePoint, Perm
from planecover.cyclotomic import ONE, ZERO
from planecover.linalg import (
    Mat3,
    Vec3,
    canonical,
    columns_to_matrix,
    conj_vec,
    inverse,
    matmul,
    matvec,
    normalize_matrix,
    proportional,
    scale,
    transpose,
)

IDENTITY3: Mat3 = ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE))


def solve3(m: Mat3, rhs: Vec3) -> Vec3:
    """Solve m * x = rhs exactly (m must be invertible)."""
    return matvec(inverse(m), rhs)


def general_position_quadruple(arr: Arrangement) -> tuple[int, ...]:
    """Four lines no three of which pass through one incidence point."""
    concurrent = {three for p in arr.points for three in itertools.combinations(p.incident, 3)}
    for quad in itertools.combinations(range(arr.n), 4):
        if not concurrent & set(itertools.combinations(quad, 3)):
            return quad
    raise ValueError("the arrangement has no 4 lines in general position")


def realize_symmetry(arr: Arrangement, perm: Perm, anti: bool) -> Mat3 | None:
    if sorted(perm) != list(range(arr.n)):
        raise ValueError("perm is not a permutation of the lines")
    quad = general_position_quadruple(arr)
    sigma = conj_vec if anti else (lambda v: v)
    sources = [sigma(arr.lines[i].coeffs) for i in quad]
    targets = [arr.lines[perm[i]].coeffs for i in quad]

    v_basis = columns_to_matrix(sources[0], sources[1], sources[2])
    a = solve3(v_basis, sources[3])
    w_basis = columns_to_matrix(targets[0], targets[1], targets[2])
    b = solve3(w_basis, targets[3])
    if not all(a) or not all(b):
        return None

    v_scaled = columns_to_matrix(*(scale(sources[i], a[i]) for i in range(3)))
    w_scaled = columns_to_matrix(*(scale(targets[i], b[i]) for i in range(3)))
    m = matmul(w_scaled, inverse(v_scaled))

    for i in range(arr.n):
        image = matvec(m, sigma(arr.lines[i].coeffs))
        if not proportional(image, arr.lines[perm[i]].coeffs):
            return None
    return normalize_matrix(m)


def fixed_points_of(arr: Arrangement, matrix: Mat3, anti: bool) -> tuple[IncidencePoint, ...]:
    n = inverse(transpose(matrix))
    sigma = conj_vec if anti else (lambda v: v)
    return tuple(p for p in arr.points if canonical(matvec(n, sigma(p.coords))) == p.coords)
