import copy
import pickle
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from planecover.cyclotomic import ONE, ZETA, CycNumber, parse_cyc

small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=6)
cyc = st.builds(CycNumber, small_fraction, small_fraction)
nonzero_cyc = cyc.filter(bool)


def test_zeta_minimal_polynomial():
    assert ZETA * ZETA == ZETA - 1


def test_product_one_plus_one_minus():
    assert (1 + ZETA) * (1 - ZETA) == CycNumber(2, -1)


def test_zeta_is_sixth_root():
    # repeated-multiplication oracle
    power = ONE
    seen = []
    for _ in range(6):
        seen.append(power)
        power = power * ZETA
    assert power == ONE
    assert seen[3] == ZETA * ZETA * ZETA == CycNumber(-1)
    assert len(set(seen)) == 6


def test_conjugate_examples():
    assert ZETA.conjugate() == 1 - ZETA
    assert CycNumber(3).conjugate() == CycNumber(3)
    assert (ZETA * ZETA.conjugate()) == ONE


def test_is_real():
    assert CycNumber(Fraction(1, 2)).is_real()
    assert not ZETA.is_real()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / CycNumber(0)


def test_negative_powers():
    # zeta has norm 1, so its inverse is its conjugate
    inverse = ONE / ZETA
    assert inverse == ZETA.conjugate()
    power = ONE
    for _ in range(6):
        power = power * inverse
    assert power == ONE


@given(cyc, cyc, cyc)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(cyc, nonzero_cyc)
def test_division_inverts_multiplication(x, y):
    assert (x / y) * y == x


@given(cyc)
def test_conjugation_involutive(x):
    assert x.conjugate().conjugate() == x


@given(cyc, cyc)
def test_conjugation_is_ring_homomorphism(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


@given(cyc)
def test_trace_is_real(x):
    assert (x + x.conjugate()).is_real()


@given(cyc)
def test_norm_matches_conjugate_product(x):
    # the norm a^2 + a*b + b^2 of x = a + b*zeta
    assert x * x.conjugate() == CycNumber(x.a * x.a + x.a * x.b + x.b * x.b)


@settings(max_examples=200)
@given(cyc)
def test_text_round_trip(x):
    assert parse_cyc(str(x)) == x


def test_printing_examples():
    assert str(CycNumber(0)) == "0"
    assert str(ZETA) == "1*z"
    assert str(1 - ZETA) == "1-1*z"
    assert str(CycNumber(Fraction(-1, 2), Fraction(3, 4))) == "-1/2+3/4*z"


def test_parsing_is_liberal_about_bare_z():
    assert parse_cyc("z") == ZETA
    assert parse_cyc("-z") == -ZETA
    assert parse_cyc("2 - z") == CycNumber(2, -1)


def test_parse_rejects_garbage():
    for bad in ("", "q", "1**z", "1/0+z", "1/00", "z-3/0*z"):
        with pytest.raises(ValueError):
            parse_cyc(bad)
    assert parse_cyc("1/10") == CycNumber(Fraction(1, 10))


@pytest.mark.parametrize("zero", ["0", "00", "\u0660", "0\u0660", "\u09e6"])
def test_zero_denominator_in_any_digits_is_refused_at_the_slash(zero):
    # non-ASCII digits parse as numbers (int reads them), so a zero
    # denominator written in them is refused like an ASCII one
    for text, pos in ((f"1/{zero}", 1), (f"2-13/{zero}*z", 4)):
        with pytest.raises(ValueError, match=f"bad cyclotomic literal .* at position {pos}$"):
            parse_cyc(text)
    assert parse_cyc("\u0661/\u0662") == CycNumber(Fraction(1, 2))
    # a leading zero in a nonzero denominator is read as a number
    assert parse_cyc("1/01") == 1


def test_hashable_for_map_keys():
    assert len({ZETA, ZETA * ONE, ONE}) == 2


MODULUS = sys.hash_info.modulus
rational = (
    st.integers()
    | st.fractions()
    # numerators and denominators at and past the hash modulus, where a
    # denominator may have no inverse
    | st.builds(Fraction, st.integers(-3, 3).map(lambda c: c * MODULUS - 1) | st.integers(),
                st.integers(1, 3).map(lambda c: c * MODULUS) | st.integers(1, 10**30))
)


@given(rational)
@example(-1)
@example(Fraction(-1, MODULUS))
@example(Fraction(MODULUS + 1, 2 * MODULUS))
def test_a_rational_element_hashes_like_the_equal_int_or_fraction(x):
    z = CycNumber(x)
    assert z == x and hash(z) == hash(x)
    assert x in {z} and z in {x} and {x: 0}[z] == 0 and {z: 0}[x] == 0
    if x == int(x):
        assert hash(z) == hash(int(x))


# -- second route: the field on pairs of Fractions ----------------------------
#
# A test-local reference keeps a + b*zeta as the pair (a, b) of Fractions,
# the representation the integer triples replaced, with the same formulas.


def ref_mul(x, y):
    (a1, b1), (a2, b2) = x, y
    return (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 + b1 * b2)


def ref_conj(x):
    return (x[0] + x[1], -x[1])


def ref_norm(x):
    return x[0] * x[0] + x[0] * x[1] + x[1] * x[1]


def ref_div(x, y):
    n = ref_norm(y)
    a, b = ref_mul(x, ref_conj(y))
    return (a / n, b / n)


def ref_str(x):
    def fmt(f):
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    a, b = x
    if not a and not b:
        return "0"
    out = fmt(a) if a else ""
    if b:
        term = f"{fmt(abs(b))}*z"
        out += ("+" if b > 0 else "-") + term if a else (term if b > 0 else "-" + term)
    return out


def assert_canonical(z):
    assert z.d > 0 and gcd(z.p, z.q, z.d) == 1
    assert (z.a, z.b) == (Fraction(z.p, z.d), Fraction(z.q, z.d))


wide_fraction = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


@settings(max_examples=200)
@given(wide_fraction, wide_fraction, wide_fraction, wide_fraction, st.integers(-9, 9))
def test_kernel_matches_fraction_pairs(a1, b1, a2, b2, n):
    x, y = CycNumber(a1, b1), CycNumber(a2, b2)
    rx, ry = (a1, b1), (a2, b2)
    results = {
        "add": (x + y, (a1 + a2, b1 + b2)),
        "sub": (x - y, (a1 - a2, b1 - b2)),
        "mul": (x * y, ref_mul(rx, ry)),
        "conjugate": (x.conjugate(), ref_conj(rx)),
        "neg": (-x, (-a1, -b1)),
        "radd int": (n + x, (n + a1, b1)),
        "rsub int": (n - x, (n - a1, -b1)),
        "mul Fraction": (x * a2, (a1 * a2, b1 * a2)),
    }
    if y:
        results["div"] = (x / y, ref_div(rx, ry))
        results["rtruediv Fraction"] = (a1 / y, ref_div((a1, Fraction(0)), ry))
    if n:
        results["div int"] = (x / n, (a1 / n, b1 / n))
    for name, (got, want) in results.items():
        assert (got.a, got.b) == want, name
        assert_canonical(got)
        assert str(got) == ref_str(want), name
        assert parse_cyc(str(got)) == got, name
    assert x * x.conjugate() == ref_norm(rx)
    assert x.is_real() == (b1 == 0)
    assert bool(x) == (rx != (0, 0))
    assert (x == y) == (rx == ry)
    assert (x == a2) == (rx == (a2, 0)) and (x == n) == (rx == (n, 0))


@given(small_fraction, small_fraction, st.integers(1, 6))
def test_routes_to_one_value_are_equal_and_hash_equally(a, b, s):
    scaled = CycNumber(
        Fraction(a.numerator * s, a.denominator * s), Fraction(b.numerator * s, b.denominator * s)
    )
    routes = [
        CycNumber(a, b),
        scaled,
        CycNumber(a) + CycNumber(0, b),
        a + b * ZETA,
        parse_cyc(str(CycNumber(a, b))),
        (CycNumber(a, b) * s) / s,
        ONE / (ONE / CycNumber(a, b)) if a or b else CycNumber(0),
    ]
    for z in routes:
        assert_canonical(z)
        assert z == routes[0]
        assert hash(z) == hash(routes[0])
        assert (z.p, z.q, z.d) == (routes[0].p, routes[0].q, routes[0].d)


def test_one_half_by_every_route():
    routes = [
        CycNumber(Fraction(2, 4)),
        CycNumber(Fraction(1, 2), 0),
        parse_cyc("1/2"),
        parse_cyc("2/4"),
        ONE / 2,
        Fraction(1, 2) * ONE,
        (ONE + ONE) / 4,
    ]
    assert {(z.p, z.q, z.d) for z in routes} == {(1, 0, 2)}
    assert len({hash(z) for z in routes}) == 1
    assert routes[0] == Fraction(1, 2) and routes[0] != 1
    assert ZETA / 2 == CycNumber(0, Fraction(3, 6)) == parse_cyc("1/2*z")


@given(cyc)
def test_copy_and_pickle_round_trip(x):
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is CycNumber
        assert (y.p, y.q, y.d) == (x.p, x.q, x.d) and hash(y) == hash(x)
    # the benchmark's trace wraps these by name on the class
    assert {"__mul__", "__rmul__", "__truediv__", "__rtruediv__"} <= set(CycNumber.__dict__)


def test_arrangement_dataclass_copies():
    from planecover.arrangement import dual_hesse

    dh = dual_hesse()
    fields = dh._asdict()
    assert list(fields) == ["lines", "points", "notes"]
    assert [line._asdict()["coeffs"] for line in fields["lines"]] == [line.coeffs for line in dh.lines]
    # the copies go through CycNumber.__reduce__
    for copied in (copy.deepcopy(dh), pickle.loads(pickle.dumps(dh))):
        assert type(copied) is type(dh) and copied == dh
