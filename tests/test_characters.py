import json
import random
import re
from collections import Counter
from importlib import resources
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from planecover.catalog import PHI1, PHI2, PHI3
from planecover import cli
from planecover.characters import enumerate_characters, preserves_charset, r_profile
from planecover.homology import Epimorphism

ALPHA = (1, 1, 1, 3, 3, 0, 0, 0, 1)
BETA = (1, 0, 1, 3, 0, 1, 1, 2, 1)


def unique_profile_elements(charset, m):
    """Characters whose residue profile occurs exactly once in the set."""
    profiles = [r_profile(a, m) for a in charset]
    freq = Counter(profiles)
    return tuple(a for a, p in zip(charset, profiles) if freq[p] == 1)


def sorted_span(phi):
    """The (Z/mZ)-span of phi's columns, sorted: every combination of the
    columns themselves, with no echelon form."""
    cols = [phi.column(j) for j in range(phi.k)]
    return tuple(sorted({
        tuple(sum(c * col[i] for c, col in zip(coeffs, cols)) % phi.m for i in range(phi.n))
        for coeffs in product(range(phi.m), repeat=phi.k)
    }))


def act_on_character(perm, a):
    """Left action moving the value at coordinate i to coordinate perm(i)."""
    moved = [0] * len(a)
    for i, x in enumerate(a):
        moved[perm[i]] = x
    return tuple(moved)


def character_action(perm, charset):
    """The permuted character set, re-sorted."""
    return tuple(sorted(act_on_character(perm, a) for a in charset))


def reference_lists():
    with resources.files("planecover.golden").joinpath("reference.json").open() as fh:
        data = json.load(fh)["characters"]
    return (
        tuple(tuple(v) for v in data["A1"]),
        tuple(tuple(v) for v in data["A2"]),
    )


def test_phi1_reproduces_reference_list():
    a1, _ = reference_lists()
    assert enumerate_characters(PHI1) == a1


def test_phi2_reproduces_reference_list():
    _, a2 = reference_lists()
    assert enumerate_characters(PHI2) == a2


def test_reference_lists_have_25_zero_sum_vectors():
    for charset in reference_lists():
        assert len(charset) == 25
        assert (0,) * 9 in charset
        for a in charset:
            assert sum(a) % 5 == 0
            assert all(0 <= x <= 4 for x in a)


def test_designated_elements_present():
    a1 = enumerate_characters(PHI1)
    assert ALPHA in a1 and BETA in a1
    a2 = enumerate_characters(PHI2)
    assert (0, 1, 1, 0, 1, 0, 1, 1, 0) in a2
    assert (1, 0, 0, 1, 0, 1, 2, 2, 3) in a2


def test_r_profile_examples():
    assert r_profile(ALPHA, 5) == (3, 4, 0, 2, 0)
    assert r_profile(BETA, 5) == (2, 5, 1, 1, 0)
    assert r_profile((0,) * 9, 5) == (9, 0, 0, 0, 0)


def test_profile_unique_elements_of_a1():
    uniq = unique_profile_elements(enumerate_characters(PHI1), 5)
    assert ALPHA in uniq
    assert BETA in uniq


def test_singleton_zero_set_is_profile_unique():
    assert unique_profile_elements(((0, 0, 0),), 5) == ((0, 0, 0),)


def test_identity_action_fixes_set():
    a1 = enumerate_characters(PHI1)
    assert character_action(tuple(range(9)), a1) == a1


def test_conjugation_permutation_preserves_a2():
    a2 = enumerate_characters(PHI2)
    perm = (0, 2, 1, 5, 4, 3, 7, 6, 8)
    assert character_action(perm, a2) == a2
    assert preserves_charset(perm, frozenset(a2))


def test_opposite_swap_preserves_phi3_characters():
    # the coordinate action exchanging the two generator columns
    a3 = enumerate_characters(PHI3)
    perm = (3, 4, 5, 0, 1, 2)
    assert character_action(perm, a3) == a3
    u, v = PHI3.column(0), PHI3.column(1)
    assert act_on_character(perm, u) == v
    assert act_on_character(perm, v) == u


def test_profiles_invariant_under_any_permutation():
    rng = random.Random(5)
    a1 = enumerate_characters(PHI1)
    for _ in range(20):
        perm = list(range(9))
        rng.shuffle(perm)
        for a in a1:
            assert r_profile(act_on_character(tuple(perm), a), 5) == r_profile(a, 5)


def test_action_composition():
    rng = random.Random(11)
    a1 = enumerate_characters(PHI1)
    for _ in range(10):
        p1 = list(range(9))
        p2 = list(range(9))
        rng.shuffle(p1)
        rng.shuffle(p2)
        composed = tuple(p1[p2[i]] for i in range(9))
        assert character_action(composed, a1) == character_action(
            tuple(p1), character_action(tuple(p2), a1)
        )


def test_enumeration_size_and_uniqueness():
    for phi in (PHI1, PHI2, PHI3):
        charset = enumerate_characters(phi)
        assert len(charset) == len(set(charset)) == 25


@st.composite
def epimorphisms(draw):
    """Zero-sum rows onto (Z/m)^k, m^k <= 343; not always of rank k."""
    m = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(1, {2: 4, 3: 4, 5: 3, 7: 3}[m]))
    n = draw(st.integers(k + 1, 8))
    rows = draw(st.lists(st.tuples(*[st.integers(0, m - 1)] * k), min_size=n - 1, max_size=n - 1))
    rows.append(tuple(-sum(r[j] for r in rows) % m for j in range(k)))
    return m, k, tuple(rows)


@settings(max_examples=150, deadline=None)
@given(epimorphisms())
def test_enumeration_is_the_sorted_span(spec):
    # product order against the echelon basis is lexicographic order, with
    # no sort; and the report's profile_unique is the oracle's
    m, k, rows = spec
    try:
        phi = Epimorphism(m=m, k=k, rows=rows)
    except ValueError:
        assume(False)
    charset = enumerate_characters(phi)
    assert charset == sorted_span(phi)
    report = cli.characters_report(SimpleNamespace(phi=phi, m=m), "ref")
    assert report["profile_unique"] == [list(a) for a in unique_profile_elements(charset, m)]


def test_invalid_phi_rejected():
    message = "invalid epimorphism: ('rows do not generate (Z/mZ)^k',)"
    with pytest.raises(ValueError, match=re.escape(message)):
        Epimorphism(m=5, k=2, rows=((1, 0), (4, 0), (0, 0)))
