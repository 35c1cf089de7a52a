"""Character set of the cover's function-field decomposition.

A character is a zero-sum vector a in {0..m-1}^n; the coordinate a_i is the
mod-m vanishing order along the branch curve over line i of any function in
the corresponding eigenspace.  The set A_phi is the (Z/mZ)-span of phi's
columns, stored as full n-vectors (the zero-sum relation fixes the last
coordinate, and full vectors make residue profiles direct).
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from .arrangement import Perm, invert_perm
from .homology import Epimorphism, Vector

Character = Vector


def enumerate_characters(phi: Epimorphism) -> tuple[Character, ...]:
    """All m^k characters c1*col1 + ... + ck*colk, sorted lexicographically.

    phi has rank k, so distinct coefficient vectors give distinct characters.
    """
    m, n = phi.m, phi.n
    cols = [phi.column(j) for j in range(phi.k)]
    return tuple(sorted(
        tuple(sum(c * col[i] for c, col in zip(coeffs, cols)) % m for i in range(n))
        for coeffs in product(range(m), repeat=phi.k)
    ))


def r_profile(a: Character, m: int) -> Vector:
    """Counts (r_0, ..., r_{m-1}) of coordinates equal to each residue."""
    counts = [0] * m
    for x in a:
        counts[x % m] += 1
    return tuple(counts)


def unique_profile_elements(charset: tuple[Character, ...], m: int) -> tuple[Character, ...]:
    """Characters whose residue profile occurs exactly once in the set."""
    profiles = [r_profile(a, m) for a in charset]
    freq = Counter(profiles)
    return tuple(a for a, p in zip(charset, profiles) if freq[p] == 1)


def preserves_charset(perm: Perm, charset: frozenset[Character]) -> bool:
    """Whether the left action moving the value at coordinate i to
    coordinate perm(i) maps the character set onto itself."""
    inv = invert_perm(perm)
    return all(tuple(a[j] for j in inv) in charset for a in charset)
