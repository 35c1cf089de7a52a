"""Character set of the cover's function-field decomposition.

A character is a zero-sum vector a in {0..m-1}^n; the coordinate a_i is the
mod-m vanishing order along the branch curve over line i of any function in
the corresponding eigenspace.  The set A_phi is the (Z/mZ)-span of phi's
columns, stored as full n-vectors (the zero-sum relation fixes the last
coordinate, and full vectors make residue profiles direct).
"""

from __future__ import annotations

from .arrangement import Perm, invert_perm
from .homology import Epimorphism, Vector

Character = Vector


def enumerate_characters(phi: Epimorphism) -> tuple[Character, ...]:
    """All m^k characters c1*col1 + ... + ck*colk, sorted lexicographically."""
    m, k, n = phi.m, phi.k, phi.n
    cols = [phi.column(j) for j in range(k)]
    out = set()
    coeffs = [0] * k
    while True:
        vec = tuple(
            sum(coeffs[j] * cols[j][i] for j in range(k)) % m for i in range(n)
        )
        out.add(vec)
        for j in range(k):
            coeffs[j] += 1
            if coeffs[j] < m:
                break
            coeffs[j] = 0
        else:
            break
    return tuple(sorted(out))


def r_profile(a: Character, m: int) -> Vector:
    """Counts (r_0, ..., r_{m-1}) of coordinates equal to each residue."""
    counts = [0] * m
    for x in a:
        counts[x % m] += 1
    return tuple(counts)


def unique_profile_elements(charset: tuple[Character, ...], m: int) -> tuple[Character, ...]:
    """Characters whose residue profile occurs exactly once in the set."""
    profiles = [r_profile(a, m) for a in charset]
    from collections import Counter

    freq = Counter(profiles)
    return tuple(a for a, p in zip(charset, profiles) if freq[p] == 1)


def act_on_character(perm: Perm, a: Character) -> Character:
    """Left action moving the value at coordinate i to coordinate perm(i)."""
    inv = invert_perm(perm)
    return tuple(a[inv[i]] for i in range(len(a)))


def preserves_charset(perm: Perm, charset: frozenset[Character]) -> bool:
    return all(act_on_character(perm, a) in charset for a in charset)
