"""Character set of the cover's function-field decomposition.

A character is a zero-sum vector a in {0..m-1}^n; the coordinate a_i is the
mod-m vanishing order along the branch curve over line i of any function in
the corresponding eigenspace.  The set A_phi is the (Z/mZ)-span of phi's
columns, stored as full n-vectors (the zero-sum relation fixes the last
coordinate, and full vectors make residue profiles direct).
"""

from __future__ import annotations

from itertools import product

from .arrangement import Perm, invert_perm
from .homology import Epimorphism, Vector, row_reduce

Character = Vector


def enumerate_characters(phi: Epimorphism) -> tuple[Character, ...]:
    """All m^k characters, in lexicographic order.

    They are the combinations c1*b1 + ... + ck*bk of the reduced echelon
    basis b of phi's columns (phi has rank k, so distinct coefficient
    vectors give distinct characters).  A character's coordinate at the
    pivot of b_j is c_j and its coordinates before that pivot depend only
    on c1..c_(j-1), so `itertools.product` order is lexicographic order.
    """
    m, n = phi.m, phi.n
    basis = row_reduce([phi.column(j) for j in range(phi.k)], m, n)[0]
    return tuple(
        tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) % m for i in range(n))
        for coeffs in product(range(m), repeat=phi.k)
    )


def r_profile(a: Character, m: int) -> Vector:
    """Counts (r_0, ..., r_{m-1}) of coordinates equal to each residue."""
    counts = [0] * m
    for x in a:
        counts[x % m] += 1
    return tuple(counts)


def preserves_charset(perm: Perm, charset: frozenset[Character]) -> bool:
    """Whether the left action moving the value at coordinate i to
    coordinate perm(i) maps the character set onto itself."""
    inv = invert_perm(perm)
    return all(tuple(a[j] for j in inv) in charset for a in charset)
